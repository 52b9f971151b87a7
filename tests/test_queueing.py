import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uavm2m import queueing, scheduler
from uavm2m.model import DwellMatrix, RadioParams, generate_scenario


def test_pmf_symmetric_coin():
    assert queueing.arrival_pmf(2, 0.5, 1) == pytest.approx(0.5, rel=1e-15)


def test_pmf_no_arrivals():
    # 0.9 ** 10 evaluated directly
    assert queueing.arrival_pmf(10, 0.1, 0) == pytest.approx(0.3486784401, abs=1e-12)


@pytest.mark.parametrize("members", [1, 2, 7, 31, 64])
@pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.99])
def test_pmf_normalizes(members, p):
    total = sum(queueing.arrival_pmf(members, p, n) for n in range(members + 1))
    assert abs(total - 1.0) < 1e-12


def test_pmf_out_of_range():
    with pytest.raises(ValueError):
        queueing.arrival_pmf(5, 0.5, 6)
    with pytest.raises(ValueError):
        queueing.arrival_pmf(5, 0.5, -1)
    with pytest.raises(ValueError):
        queueing.arrival_pmf(5, 1.5, 2)


def test_mean_arrival_values():
    assert queueing.mean_arrival(10, 0.1) == pytest.approx(1.0, abs=1e-15)
    assert queueing.mean_arrival(5, 0.0) == 0.0


@pytest.mark.parametrize("members,p", [(3, 0.2), (10, 0.1), (25, 0.47), (64, 0.9)])
def test_mean_matches_pmf_summation(members, p):
    """Independent oracle: first moment of the pmf."""
    by_sum = sum(n * queueing.arrival_pmf(members, p, n) for n in range(members + 1))
    assert queueing.mean_arrival(members, p) == pytest.approx(by_sum, abs=1e-10)


def test_step_queue_examples():
    assert queueing.step_queue(5, 7, 2) == 2
    assert queueing.step_queue(5, 3, 0) == 2
    assert queueing.step_queue(0, 0, 4) == 4


def test_step_queue_rejects_negative():
    for args in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError):
            queueing.step_queue(*args)


def _scenario(seed=7, clusters=5, p=0.1):
    radio = RadioParams(p_tx=p)
    return generate_scenario(seed, clusters, 1, 10, radio)


def test_simulate_zero_plan_accumulates_arrivals():
    scenario = _scenario()
    plan = DwellMatrix(entries=np.zeros((1, scenario.num_clusters)))
    trace = queueing.simulate(scenario, plan, horizon=100, seed=3)
    # with no service, the backlog is the running arrival count
    for g in range(scenario.num_clusters):
        diffs = np.diff(trace.backlog[g])
        assert np.all(diffs >= 0)
        assert trace.backlog[g, 0] == 0
        members = scenario.clusters[g].members
        assert np.all(diffs <= members)


def test_simulate_zero_probability_is_silent():
    radio = RadioParams(p_tx=0.0)
    scenario = generate_scenario(1, 3, 2, 4, radio)
    plan = DwellMatrix(entries=np.zeros((1, 3)))
    trace = queueing.simulate(scenario, plan, horizon=2000, seed=5)
    assert np.all(trace.backlog == 0)
    assert queueing.is_rate_stable(trace, 1e-6)


def test_simulate_matches_scalar_recursion():
    scenario = _scenario(clusters=3)
    entries = np.zeros((2, 3))
    entries[0] = [0.4, 0.2, 0.0]
    entries[1] = [0.0, 0.3, 0.55]
    plan = DwellMatrix(entries=entries)
    trace = queueing.simulate(scenario, plan, service_rate=1.3, horizon=400, seed=11)
    capacity = 1.3 * plan.total_per_ch()
    for g, cluster in enumerate(scenario.clusters):
        rng = np.random.default_rng(np.random.SeedSequence([11, g]))
        arrivals = rng.binomial(cluster.members, scenario.p_tx, size=400).astype(float)
        q = 0.0
        for t in range(400):
            q = queueing.step_queue(q, capacity[g], arrivals[t])
            assert trace.backlog[g, t + 1] == pytest.approx(q, abs=1e-9)


def test_simulate_integer_service_serves_whole_packets():
    scenario = _scenario(clusters=2)
    plan = DwellMatrix(entries=np.array([[0.7, 0.3]]))
    trace = queueing.simulate(scenario, plan, horizon=500, seed=2, integer_service=True)
    # integer arrivals and integer departures keep the backlog integral
    assert np.all(trace.backlog == np.round(trace.backlog))


def test_simulate_deterministic_per_seed():
    scenario = _scenario()
    plan = DwellMatrix(entries=np.full((2, scenario.num_clusters), 0.1))
    a = queueing.simulate(scenario, plan, horizon=300, seed=9)
    b = queueing.simulate(scenario, plan, horizon=300, seed=9)
    assert np.array_equal(a.backlog, b.backlog)
    c = queueing.simulate(scenario, plan, horizon=300, seed=10)
    assert not np.array_equal(a.backlog, c.backlog)


def test_simulate_dimension_mismatch():
    scenario = _scenario(clusters=4)
    plan = DwellMatrix(entries=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        queueing.simulate(scenario, plan, horizon=10, seed=0)


def test_empirical_mean_within_three_standard_errors():
    scenario = _scenario(seed=12, clusters=4, p=0.3)
    plan = DwellMatrix(entries=np.zeros((1, 4)))
    horizon = 100_000
    trace = queueing.simulate(scenario, plan, horizon=horizon, seed=21)
    for g, cluster in enumerate(scenario.clusters):
        m, p = cluster.members, scenario.p_tx
        observed = trace.backlog[g, -1] / horizon
        se = math.sqrt(m * p * (1 - p) / horizon)
        assert abs(observed - m * p) < 3 * se, f"ch {g}: {observed} vs {m * p}"


def test_backlog_never_negative():
    scenario = _scenario(seed=4, clusters=6, p=0.4)
    plan = DwellMatrix(entries=np.full((3, 6), 1 / 6))
    trace = queueing.simulate(scenario, plan, service_rate=2.0, horizon=5000, seed=1)
    assert np.all(trace.backlog >= 0)


def test_is_rate_stable_examples():
    zero = queueing.QueueTrace(backlog=np.zeros((2, 2001)), horizon=2000, seed=0)
    assert queueing.is_rate_stable(zero, 1e-9)
    growing = queueing.QueueTrace(
        backlog=np.arange(2001, dtype=float)[None, :], horizon=2000, seed=0)
    assert not queueing.is_rate_stable(growing, 0.99)


def test_is_rate_stable_needs_long_horizon():
    short = queueing.QueueTrace(backlog=np.zeros((1, 100)), horizon=99, seed=0)
    with pytest.raises(ValueError):
        queueing.is_rate_stable(short, 0.01)


def test_trace_csv_export():
    trace = queueing.QueueTrace(backlog=np.array([[0.0, 1.5], [0.0, 2.0]]),
                                horizon=1, seed=0)
    buf = io.StringIO()
    queueing.write_trace_csv(trace, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "slot,ch_id,backlog"
    assert lines[1] == "0,0,0"
    assert lines[-1] == "1,1,2"


def _per_row_csv(trace):
    """Reference writer: one f-string write per row."""
    out = io.StringIO()
    out.write("slot,ch_id,backlog\n")
    for t in range(trace.horizon + 1):
        for g in range(trace.num_chs):
            out.write(f"{t},{g},{trace.backlog[g, t]:.9g}\n")
    return out.getvalue()


def _block_csv(trace):
    out = io.StringIO()
    queueing.write_trace_csv(trace, out)
    return out.getvalue()


BLOCK = queueing._TRACE_BLOCK_SLOTS


@pytest.mark.parametrize("clusters,slots,integer_service", [
    (5, BLOCK - 1, False),
    (5, BLOCK, False),
    (5, BLOCK + 1, False),
    (1, 2 * BLOCK + 3, False),
    (4, BLOCK + 1, True),
])
def test_trace_csv_matches_per_row_writer(clusters, slots, integer_service):
    scenario = _scenario(seed=5, clusters=clusters, p=0.3)
    plan = scheduler.plan_min_fleet(queueing.arrival_rates(scenario), 1.0, 0.0)
    trace = queueing.simulate(scenario, plan.dwell, horizon=slots - 1, seed=8,
                              integer_service=integer_service)
    assert trace.backlog.shape == (clusters, slots)
    assert _block_csv(trace) == _per_row_csv(trace)


# values where '.9g' changes form: subnormals, float dust, and both sides of
# 1e-4 and 1e9, where it switches between fixed and exponent notation
_EDGE_VALUES = [0.0, 5e-324, 2.2250738585072014e-308, 1.1e-15, 3e-16,
                np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), 9.99999999e-5, 9.999999995e-5,
                999999999.0, 999999999.4, 999999999.5, np.nextafter(1e9, 0), 1e9,
                np.nextafter(1e9, 2e9), 1e9 + 1, 1.5e300]


@settings(deadline=None)
@given(
    backlog=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
        elements=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
        | st.sampled_from(_EDGE_VALUES),
    ),
    block=st.integers(min_value=1, max_value=5),
)
def test_trace_csv_matches_per_row_writer_on_any_backlog(backlog, block):
    trace = queueing.QueueTrace(backlog=backlog, horizon=backlog.shape[1] - 1, seed=0)
    with mock.patch.object(queueing, "_TRACE_BLOCK_SLOTS", block):
        assert _block_csv(trace) == _per_row_csv(trace)


# -- arrival draws: the vectorized inversion against numpy's own sampler --

_GRID_P = [0.0, 1e-3, 0.1, 0.3, 0.5, math.nextafter(0.5, 1.0), 0.7, 0.999, 1.0]
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _numpy_arrivals(seed, ch, members, p, size):
    rng = np.random.default_rng(np.random.SeedSequence([seed, ch]))
    return rng.binomial(members, p, size=size).astype(float), rng


def _inversion_loop(u, n, p):
    """numpy's `random_binomial_inversion` on one uniform, line by line; None
    where it would restart on a fresh uniform."""
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px = 0, qn
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


def _generator_at(u):
    """A PCG64 Generator whose next uniform is u (a multiple of 2**-53)."""
    bitgen = np.random.PCG64(0)
    state = bitgen.state
    # PCG64 steps state = state * multiplier + inc, then outputs the xor of its
    # halves rotated by the top 6 bits: pick a stepped state with no rotation
    stepped = (1 << 64) | (1 ^ (int(u * 2.0**53) << 11))
    inverse = pow(_PCG64_MULTIPLIER, -1, 1 << 128)
    state["state"]["state"] = (stepped - state["state"]["inc"]) * inverse % (1 << 128)
    bitgen.state = state
    return np.random.Generator(bitgen)


class _Uniforms:
    """Stands in for a Generator whose uniforms are given."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        return np.resize(self.values, size)


@pytest.mark.parametrize("p", _GRID_P)
def test_arrival_draws_equal_numpy_binomial(p):
    size = 1500
    for members in range(65):
        ch = members % 7
        expected, after = _numpy_arrivals(3, ch, members, p, size)
        assert queueing._arrivals_for(3, ch, members, p, size).tobytes() == expected.tobytes()
        rng = np.random.default_rng(np.random.SeedSequence([3, ch]))
        draws = queueing._binomial_draws(rng, members, p, size)
        if draws is None:  # numpy's BTPE range: nothing drawn yet
            assert members * min(p, 1.0 - p) > 30
            rng.binomial(members, p, size=size)
        else:
            assert draws.tobytes() == expected.tobytes()
        # the same number of uniforms was read
        assert rng.random() == after.random()


def test_btpe_range_falls_back_to_numpy():
    rng = np.random.default_rng(0)
    assert queueing._binomial_draws(rng, 400, 0.1, 10) is None
    assert rng.random() == np.random.default_rng(0).random()
    expected, _ = _numpy_arrivals(5, 2, 400, 0.1, 3000)
    assert queueing._arrivals_for(5, 2, 400, 0.1, 3000).tobytes() == expected.tobytes()


@pytest.mark.parametrize("members,p", [(1, 1e-3), (7, 0.1), (10, 0.3), (33, 0.5),
                                       (64, 0.45), (20, 1e-3)])
def test_inversion_cuts_are_the_loops_exact_stopping_points(members, p):
    cuts = queueing._inversion_cuts(members, p)
    assert cuts == sorted(cuts)
    for k, t in enumerate(cuts):
        # on every double: the loop stops by step k at t, and passes it just above
        assert _inversion_loop(t, members, p) <= k
        above = _inversion_loop(math.nextafter(t, 2.0), members, p)
        assert above is None if t == cuts[-1] else above >= k + 1
        # on the uniforms numpy can draw, numpy's own sampler agrees
        lo = math.floor(t * 2.0**53) / 2.0**53
        hi = lo + 2.0**-53
        assert _generator_at(lo).binomial(members, p) <= k
        if hi <= cuts[-1] and hi < 1.0:  # no restart above t
            assert _generator_at(hi).binomial(members, p) >= k + 1


# cases whose last cut lies below the largest uniform, so numpy can restart
@pytest.mark.parametrize("members,p,flip", [(5, 0.1, False), (11, 0.5, False),
                                            (50, 0.01, False), (9, 0.7, True)])
def test_uniform_above_the_last_cut_takes_the_fallback(members, p, flip):
    cuts = queueing._inversion_cuts(members, 1.0 - p if flip else p)
    bound, t_bound = len(cuts) - 1, cuts[-1]
    over = math.nextafter(t_bound, 1.0)
    assert over < 1.0  # a uniform numpy can draw
    at = queueing._binomial_draws(_Uniforms([0.0, t_bound]), members, p, 4)
    assert at.tolist() == ([members, members - bound] * 2 if flip else [0, bound] * 2)
    assert queueing._binomial_draws(_Uniforms([0.0, over]), members, p, 4) is None
    # numpy restarts there: it reads a second uniform for the same draw
    hi = math.floor(t_bound * 2.0**53) / 2.0**53 + 2.0**-53
    rng = _generator_at(hi)
    rng.binomial(members, p)
    skipped = _generator_at(hi)
    skipped.random(2)
    assert rng.random() == skipped.random()
    with mock.patch.object(queueing, "_binomial_draws", return_value=None):
        expected, _ = _numpy_arrivals(1, 0, members, p, 500)
        assert queueing._arrivals_for(1, 0, members, p, 500).tobytes() == expected.tobytes()


# -- backlog pass: the in-place kernel against the expression it replaced --

def _reference_backlog_path(arrivals, service):
    """Prefix sum minus running minimum with fresh temporaries."""
    horizon = arrivals.shape[0]
    q = np.empty(horizon + 1)
    q[0] = 0.0
    x = arrivals[:-1] - service[1:]
    prefix = np.concatenate(([0.0], np.cumsum(x)))
    w = prefix - np.minimum.accumulate(prefix)
    q[1:] = w + arrivals
    return q


@settings(deadline=None, max_examples=150)
@given(
    pattern=hnp.arrays(np.float64, st.integers(1, 40),
                       elements=st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
                       | st.integers(0, 64).map(float)),
    horizon=st.integers(1, 3) | st.integers(4, 200)
    | st.sampled_from([8191, 8192, 8193, 16385, 3 * 8192 + 5]),
    capacity=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    integer_service=st.booleans(),
)
def test_backlog_path_matches_reference_expression(pattern, horizon, capacity,
                                                   integer_service):
    arrivals = np.resize(pattern, horizon)
    if integer_service:
        service = queueing._integer_offered(capacity, horizon)
    else:
        service = np.full(horizon, capacity)
    out = np.full(horizon + 1, np.nan)
    got = queueing._backlog_path(arrivals, service, out)
    assert got is out
    assert got.tobytes() == _reference_backlog_path(arrivals, service).tobytes()


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -1.0])
def test_simulate_rejects_non_finite_or_negative_service_rate(rate):
    scenario = _scenario(clusters=2)
    plan = DwellMatrix(entries=np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError, match="service_rate"):
        queueing.simulate(scenario, plan, service_rate=rate, horizon=10, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -math.inf])
def test_queue_trace_rejects_non_finite_or_negative_backlog(bad):
    backlog = np.zeros((2, 11))
    backlog[1, 5] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        queueing.QueueTrace(backlog=backlog, horizon=10, seed=0)
