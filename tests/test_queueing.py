import dataclasses
import io
import math
import re
import sys
import threading
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


def _cpus(monkeypatch, n):
    """Make `simulate` see a CPU set of n CPUs."""
    monkeypatch.setattr(queueing.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.mark.parametrize("clusters,p,big_ch,integer_service", [
    (1, 0.1, False, False),
    (3, 0.1, False, False),
    (20, 0.1, False, False),
    (20, 0.3, False, True),
    (3, 0.0, False, False),
    (3, 0.7, False, False),  # numpy draws n - Binomial(n, 1 - p)
    (3, 0.1, True, False),   # CH 1 on the Generator.binomial fallback
])
def test_simulate_bytes_do_not_depend_on_the_worker_count(monkeypatch, clusters, p, big_ch,
                                                          integer_service):
    scenario = _scenario(seed=6, clusters=clusters, p=p)
    if big_ch:
        chs = list(scenario.clusters)
        chs[1] = dataclasses.replace(chs[1], members=400)
        scenario = dataclasses.replace(scenario, clusters=tuple(chs))
        assert queueing._binomial_draws(np.random.default_rng(0), 400, p,
                                        *_scratch(10)) is None
    plan = scheduler.plan_min_fleet(queueing.arrival_rates(scenario), 1.0, 0.05)
    calling_thread_chs = []
    draw = queueing._arrivals_for

    def arrivals_for(seed, ch, *args):
        if threading.current_thread() is threading.main_thread():
            calling_thread_chs.append(ch)
        return draw(seed, ch, *args)

    monkeypatch.setattr(queueing, "_arrivals_for", arrivals_for)
    backlogs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for cpus in (1, 2, 3, 64):
            _cpus(monkeypatch, cpus)
            calling_thread_chs.clear()
            trace = queueing.simulate(scenario, plan.dwell, horizon=3000, seed=4,
                                      integer_service=integer_service)
            backlogs[cpus] = trace.backlog.tobytes()
            assert calling_thread_chs == list(range(0, clusters, min(cpus, clusters)))
    finally:
        sys.setswitchinterval(interval)
    assert len(set(backlogs.values())) == 1


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_simulate_raises_the_error_of_any_worker(monkeypatch, failing):
    # CH 0 runs on the calling thread, CHs 1 and 2 on the pool
    _cpus(monkeypatch, 3)
    scenario = _scenario(clusters=3)
    plan = DwellMatrix(entries=np.array([[0.1, 0.2, 0.3]]))
    path = queueing._backlog_path

    def backlog_path(arrivals, service, out, prefix):
        if service == plan.entries[0, failing]:
            raise RuntimeError(f"CH {failing} failed")
        return path(arrivals, service, out, prefix)

    monkeypatch.setattr(queueing, "_backlog_path", backlog_path)
    with pytest.raises(RuntimeError, match=f"CH {failing} failed"):
        queueing.simulate(scenario, plan, horizon=100, seed=0)


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
WRITE = queueing._TRACE_WRITE_SLOTS


@pytest.mark.parametrize("clusters,slots,integer_service", [
    (5, 2 * WRITE - 1, False),
    (5, 2 * WRITE, False),
    (5, 2 * WRITE + 1, False),
    (1, BLOCK + 3, False),
    (4, 2 * WRITE + 1, True),
    (5, BLOCK - 1, False),
    (5, BLOCK, False),
    (5, BLOCK + 1, False),
])
def test_trace_csv_matches_per_row_writer(clusters, slots, integer_service):
    scenario = _scenario(seed=5, clusters=clusters, p=0.3)
    plan = scheduler.plan_min_fleet(queueing.arrival_rates(scenario), 1.0, 0.0)
    trace = queueing.simulate(scenario, plan.dwell, horizon=slots - 1, seed=8,
                              integer_service=integer_service)
    assert trace.backlog.shape == (clusters, slots)
    assert _block_csv(trace) == _per_row_csv(trace)


# values where '.9g' changes form: subnormals, float dust, both sides of 1e-4
# and 1e9, where it switches between fixed and exponent notation, -0.0, which
# prints '-0', and the doubles around the 9-digit ties 1.000000005 and
# 1234.567895, which round one way or the other
_EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.1e-15, 3e-16,
                np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), 9.99999999e-5, 9.999999995e-5,
                999999999.0, 999999999.4, 999999999.5, np.nextafter(1e9, 0), 1e9,
                np.nextafter(1e9, 2e9), 1e9 + 1, 1.5e300,
                np.nextafter(1.000000005, 0), 1.000000005, np.nextafter(1.000000005, 2),
                np.nextafter(1234.567895, 0), 1234.567895, np.nextafter(1234.567895, 2e3)]


def _around(x):
    return [np.nextafter(x, 0), x, np.nextafter(x, np.inf)]


# the ends of the 9-digit key's guard: 8 - floor(log10 x) of 22 and 23 (x near
# 1e-14 and 1e-15, where 10**k stops being an exact double), both sides of
# 10**e, where log10 can round onto the integer e, and the doubles around two
# more 9-digit ties, 12345678.75 (exactly a tie) and 5.000000005e-12
_EDGE_VALUES += [*_around(1e-14), 1.23456789e-14, 9.87654321e-15, *_around(1e-15),
                 *(v for e in (-13, -9, -5, -1, 0, 1, 2, 5, 8) for v in _around(10.0**e)),
                 *_around(12345678.75), *_around(5.000000005e-12)]


_ANY_BACKLOG = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
    elements=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    | st.sampled_from(_EDGE_VALUES))


@settings(deadline=None)
@given(backlog=_ANY_BACKLOG, block=st.integers(min_value=1, max_value=5))
def test_trace_csv_matches_per_row_writer_on_any_backlog(backlog, block):
    trace = queueing.QueueTrace(backlog=backlog, horizon=backlog.shape[1] - 1, seed=0)
    with mock.patch.object(queueing, "_TRACE_BLOCK_SLOTS", block):
        assert _block_csv(trace) == _per_row_csv(trace)


@settings(deadline=None)
@given(backlog=_ANY_BACKLOG)
def test_nine_digit_lines_format_every_value(backlog):
    values = backlog.ravel()
    assert queueing._nine_digit_lines(values).tolist() == [f"{x:.9g}\n" for x in values]


def test_nine_digit_lines_split_a_group_whose_ends_differ():
    # neighbouring doubles around the tie 55326.42745: the first prints
    # 55326.4274 and the second 55326.4275
    pair = [np.nextafter(55326.42745, 0), 55326.42745]
    assert f"{pair[0]:.9g}" != f"{pair[1]:.9g}"
    values = np.array(pair * 3 + [-0.0, 0.0, 0.0, -0.0, 1.5, 1.5])
    lines = queueing._nine_digit_lines(values).tolist()
    assert lines == [f"{x:.9g}\n" for x in values]
    assert lines[6:10] == ["-0\n", "0\n", "0\n", "-0\n"]


def test_nine_digit_lines_format_a_group_whose_ends_agree_once():
    # 1.5 and the next double both print 1.5: one string serves the group,
    # also when another group's value comes first in the array
    values = np.array([2.0, 1.5, np.nextafter(1.5, 2), 2.0, 1.5])
    lines = queueing._nine_digit_lines(values)
    assert lines.tolist() == ["2\n", "1.5\n", "1.5\n", "2\n", "1.5\n"]
    assert lines[1] is lines[2] is lines[4] and lines[0] is lines[3]


def test_trace_csv_on_a_repeat_rich_and_a_repeat_poor_block():
    # block 0 repeats a coarse grid, block 1 holds distinct random values
    rng = np.random.default_rng(4)
    slots = 2 * BLOCK + 7
    backlog = rng.integers(0, 40, (3, slots)) / 10.0
    backlog[:, :BLOCK] += rng.uniform(0.0, 1e-11, (3, BLOCK))  # roundoff-like noise
    backlog[:, BLOCK:] = rng.uniform(0.0, 500.0, (3, slots - BLOCK))
    trace = queueing.QueueTrace(backlog=backlog, horizon=slots - 1, seed=0)
    distinct = [len({f"{x:.9g}" for x in backlog[:, a:a + BLOCK].ravel()}) for a in (0, BLOCK)]
    assert distinct[0] < 3 * BLOCK // 10 and distinct[1] == 3 * BLOCK
    assert _block_csv(trace) == _per_row_csv(trace)


def test_trace_csv_formats_an_integer_backlog_as_floats():
    backlog = np.array([[0, 3, 7], [1, 0, 12]])
    trace = queueing.QueueTrace(backlog=backlog, horizon=2, seed=0)
    assert trace.backlog.dtype == np.float64
    assert _block_csv(trace) == _per_row_csv(trace)
    assert _block_csv(trace).splitlines()[1:3] == ["0,0,0", "0,1,1"]


def test_trace_csv_formats_each_distinct_string_about_once():
    # a simulated 20-CH trace over three blocks and a bit; the count of
    # formatted values does not depend on the machine
    scenario = _scenario(seed=3, clusters=20)
    plan = scheduler.plan_min_fleet(queueing.arrival_rates(scenario), 1.0, 0.0)
    trace = queueing.simulate(scenario, plan.dwell, horizon=3 * BLOCK + 100, seed=5)
    with mock.patch.object(queueing, "_format_lines", wraps=queueing._format_lines) as fmt:
        text = _block_csv(trace)
    assert text == _per_row_csv(trace)
    formatted = sum(call.args[0].size for call in fmt.call_args_list)
    distinct = sum(len({f"{x:.9g}" for x in trace.backlog[:, a:a + BLOCK].ravel()})
                   for a in range(0, trace.horizon + 1, BLOCK))
    assert trace.horizon + 1 > 3 * BLOCK and formatted <= 1.1 * distinct


def test_trace_csv_of_no_chs_is_the_header():
    trace = queueing.QueueTrace(backlog=np.zeros((0, 3)), horizon=2, seed=0)
    assert _block_csv(trace) == "slot,ch_id,backlog\n"


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

    def random(self, out):
        out[:] = np.resize(self.values, out.size)
        return out


def _scratch(size):
    """Buffers for `_binomial_draws` and `_arrivals_for`: uniforms, cells, draws,
    filled with garbage that the draws must overwrite."""
    return np.full(size, np.nan), np.full(size, -1, dtype=np.intp), np.full(size, np.nan)


@pytest.mark.parametrize("p", _GRID_P)
def test_arrival_draws_equal_numpy_binomial(p):
    size = 1500
    for members in range(65):
        ch = members % 7
        expected, after = _numpy_arrivals(3, ch, members, p, size)
        got = queueing._arrivals_for(3, ch, members, p, *_scratch(size))
        assert got.tobytes() == expected.tobytes()
        rng = np.random.default_rng(np.random.SeedSequence([3, ch]))
        draws = queueing._binomial_draws(rng, members, p, *_scratch(size))
        if draws is None:  # numpy's BTPE range: nothing drawn yet
            assert members * min(p, 1.0 - p) > 30
            rng.binomial(members, p, size=size)
        else:
            assert draws.tobytes() == expected.tobytes()
        # the same number of uniforms was read
        assert rng.random() == after.random()


def test_btpe_range_falls_back_to_numpy():
    rng = np.random.default_rng(0)
    assert queueing._binomial_draws(rng, 400, 0.1, *_scratch(10)) is None
    assert rng.random() == np.random.default_rng(0).random()
    expected, _ = _numpy_arrivals(5, 2, 400, 0.1, 3000)
    got = queueing._arrivals_for(5, 2, 400, 0.1, *_scratch(3000))
    assert got.tobytes() == expected.tobytes()


def _stopping_points(members, p):
    """numpy's stopping points t_0..t_bound for p <= 0.5: t_k is the largest
    double on which `_inversion_loop` stops by step k, walked to from the
    partial sum S_k (the loop stops by step k on a down-set of uniforms)."""
    def stops_by(u, k):
        x = _inversion_loop(u, members, p)
        return x is not None and x <= k

    points = []
    for k, t in enumerate(np.cumsum(queueing._inversion_terms(members, p)).tolist()):
        while not stops_by(t, k):
            t = math.nextafter(t, -math.inf)
        while stops_by(math.nextafter(t, math.inf), k):
            t = math.nextafter(t, math.inf)
        points.append(t)
    return points


def _ulps(x, n):
    """x and the n doubles on either side of it."""
    below = above = x
    out = [x]
    for _ in range(n):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def _check_draws_near_the_partial_sums(members, p):
    """`_binomial_draws` on the uniforms where its draw can step, against
    `_inversion_loop` and, on uniforms numpy can draw, `Generator.binomial`:
    each partial sum S_k, 1-4 ulps and the 2**-38 margin either side of it,
    and twice the margin, where the search decides; numpy's stopping points
    and the doubles either side of them. Above the last stopping point
    numpy restarts, and the draws are None."""
    flip = p > 0.5
    pe = 1.0 - p if flip else p
    points = _stopping_points(members, pe)
    uniforms = set()
    for s in np.cumsum(queueing._inversion_terms(members, pe)).tolist():
        uniforms.update(_ulps(s, 4), [s - 2.0**-38, s + 2.0**-38, s - 2.0**-37, s + 2.0**-37])
    for t in points:
        uniforms.update(_ulps(t, 1))
    uniforms = sorted(u for u in uniforms if 0.0 <= u < 1.0)
    loop = {u: _inversion_loop(u, members, pe) for u in uniforms}
    drawn = [u for u in uniforms if loop[u] is not None]
    expected = [members - loop[u] if flip else loop[u] for u in drawn]
    with mock.patch.object(queueing, "_inversion_loop", wraps=queueing._inversion_loop) as run:
        got = queueing._binomial_draws(_Uniforms(drawn), members, p, *_scratch(len(drawn)))
    assert run.called and got.tolist() == expected
    for u, x in zip(drawn, expected):
        if u == math.floor(u * 2.0**53) / 2.0**53:  # a uniform numpy can draw
            assert _generator_at(u).binomial(members, p) == x
    restarts = [u for u in uniforms if loop[u] is None]
    assert restarts == [u for u in uniforms if u > points[-1]]
    for u in restarts:
        assert queueing._binomial_draws(_Uniforms([0.0, u]), members, p, *_scratch(4)) is None


@pytest.mark.parametrize("members,p", [(1, 1e-3), (7, 0.1), (10, 0.3), (33, 0.5),
                                       (64, 0.45), (20, 1e-3)])
def test_inversion_cuts_are_the_loops_exact_stopping_points(members, p):
    # the draws step up exactly where numpy's loop stops one step later
    _check_draws_near_the_partial_sums(members, p)


# cases whose last stopping point (the loop's last cut) lies below the
# largest uniform, so numpy can restart
@pytest.mark.parametrize("members,p,flip", [(5, 0.1, False), (11, 0.5, False),
                                            (50, 0.01, False), (9, 0.7, True)])
def test_uniform_above_the_last_cut_takes_the_fallback(members, p, flip):
    _check_draws_near_the_partial_sums(members, p)
    points = _stopping_points(members, 1.0 - p if flip else p)
    bound, t_bound = len(points) - 1, points[-1]
    over = math.nextafter(t_bound, 1.0)
    assert over < 1.0  # a uniform numpy can draw
    at = queueing._binomial_draws(_Uniforms([0.0, t_bound]), members, p, *_scratch(4))
    assert at.tolist() == ([members, members - bound] * 2 if flip else [0, bound] * 2)
    assert queueing._binomial_draws(_Uniforms([0.0, over]), members, p, *_scratch(4)) is None
    # numpy restarts there: it reads a second uniform for the same draw
    hi = math.floor(t_bound * 2.0**53) / 2.0**53 + 2.0**-53
    rng = _generator_at(hi)
    rng.binomial(members, p)
    skipped = _generator_at(hi)
    skipped.random(2)
    assert rng.random() == skipped.random()
    with mock.patch.object(queueing, "_binomial_draws", return_value=None):
        expected, _ = _numpy_arrivals(1, 0, members, p, 500)
        got = queueing._arrivals_for(1, 0, members, p, *_scratch(500))
        assert got.tobytes() == expected.tobytes()


@st.composite
def _arrival_cases(draw):
    """(members, p): min(p, 1 - p) anywhere in [0, 0.5] or within a factor of
    two of 30 / members, where numpy turns from inversion to BTPE; p on
    either side of 0.5."""
    members = draw(st.integers(0, 3000))
    near_btpe = st.floats(0.5, 2.0).map(lambda r: min(0.5, r * 30.0 / max(members, 1)))
    pe = draw(st.floats(0.0, 0.5) | near_btpe)
    return members, draw(st.sampled_from([pe, 1.0 - pe]))


@settings(deadline=None, max_examples=300)
@given(case=_arrival_cases(), seed=st.integers(0, 2**64 - 1), ch=st.integers(0, 99),
       size=st.integers(1, 2000))
def test_arrivals_equal_numpy_binomial_on_drawn_cases(case, seed, ch, size):
    members, p = case
    expected, after = _numpy_arrivals(seed, ch, members, p, size)
    made = []  # the Generators `_arrivals_for` makes; the last one draws its output

    def default_rng(seq, make=np.random.default_rng):
        made.append(make(seq))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", default_rng):
        got = queueing._arrivals_for(seed, ch, members, p, *_scratch(size))
    assert got.tobytes() == expected.tobytes()
    assert made[-1].bit_generator.state == after.bit_generator.state


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
        service = per_slot = queueing._integer_offered(capacity, horizon)
    else:
        service, per_slot = capacity, np.full(horizon, capacity)
    out = np.full(horizon + 1, np.nan)
    got = queueing._backlog_path(arrivals, service, out, np.full(horizon, np.nan))
    assert got is out
    assert got.tobytes() == _reference_backlog_path(arrivals, per_slot).tobytes()


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -1.0])
def test_simulate_rejects_non_finite_or_negative_service_rate(rate):
    scenario = _scenario(clusters=2)
    plan = DwellMatrix(entries=np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError, match="service_rate"):
        queueing.simulate(scenario, plan, service_rate=rate, horizon=10, seed=0)


def test_queue_trace_rejects_a_backlog_that_is_not_2d_or_of_the_wrong_length():
    for backlog, horizon in [(np.zeros(11), 10), (np.zeros((2, 3, 4)), 2), (np.zeros((2, 11)), 9)]:
        with pytest.raises(ValueError, match=re.escape(f"got {backlog.shape}")):
            queueing.QueueTrace(backlog=backlog, horizon=horizon, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -math.inf])
def test_queue_trace_rejects_non_finite_or_negative_backlog(bad):
    backlog = np.zeros((2, 11))
    backlog[1, 5] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        queueing.QueueTrace(backlog=backlog, horizon=10, seed=0)
