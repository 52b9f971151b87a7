import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavm2m import queueing, scheduler
from uavm2m.model import RadioParams, generate_scenario


def test_single_uav_covers_light_load():
    plan = scheduler.find_dwell([0.4, 0.3], 1)
    assert plan is not None
    assert plan.dwell.entries == pytest.approx(np.array([[0.4, 0.3]]))
    assert plan.slack == pytest.approx(np.zeros(2), abs=1e-12)


def test_two_saturated_chs_get_one_uav_each():
    plan = scheduler.find_dwell([1.0, 1.0], 2)
    assert plan is not None
    assert np.array_equal(plan.dwell.entries, np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_overload_is_infeasible():
    assert scheduler.find_dwell([0.8, 0.8], 1) is None


def test_demand_spills_across_uavs():
    plan = scheduler.find_dwell([0.5, 0.5, 1.0], 2)
    assert plan is not None
    assert plan.dwell.entries[0] == pytest.approx([0.5, 0.5, 0.0])
    assert plan.dwell.entries[1] == pytest.approx([0.0, 0.0, 1.0])
    # a single CH may span several UAVs
    plan = scheduler.find_dwell([2.5], 3)
    assert plan is not None
    assert plan.dwell.entries[:, 0] == pytest.approx([1.0, 1.0, 0.5])


def test_find_dwell_with_slack_target():
    plan = scheduler.find_dwell([0.3, 0.3], 1, slack_target=0.1)
    assert plan is not None
    assert np.all(plan.slack >= 0.1 - 1e-12)
    # margin must fit in the budget too
    assert scheduler.find_dwell([0.45, 0.45], 1, slack_target=0.1) is None
    # sized for the margin, which a CH without traffic does not get
    plan = scheduler.plan_min_fleet([0.45, 0.45, 0.0], slack_target=0.1)
    assert plan.uav_count == 2
    assert plan.slack == pytest.approx([0.1, 0.1, 0.0], abs=1e-12)
    with pytest.raises(ValueError):
        scheduler.plan_min_fleet([0.45], slack_target=-0.1)


def test_find_dwell_parameter_errors():
    with pytest.raises(ValueError):
        scheduler.find_dwell([-0.1], 1)
    with pytest.raises(ValueError):
        scheduler.find_dwell([0.1], 0)
    with pytest.raises(ValueError):
        scheduler.find_dwell([0.1], 1, mu=0.0)


def test_find_dwell_names_a_service_rate_too_large_to_plan():
    # at mu = 1e308 each CH needs ~1e-309 of a slot, below the 1e-12 dust
    # cut that removes subtraction slivers; CH 0 has nothing to serve
    for plan in (lambda: scheduler.find_dwell([0.0, 0.3], 1, mu=1e308),
                 lambda: scheduler.plan_min_fleet([0.0, 0.3], mu=1e308)):
        with pytest.raises(ValueError, match=r"mu=1e\+308 leaves CH 1 ") as err:
            plan()
        assert isinstance(err.value, scheduler.UnplannableRateError)
    # a large mu whose demands stay above the cut still plans
    plan = scheduler.find_dwell([0.0, 0.3], 1, mu=1e10)
    assert plan.dwell.entries[0, 1] == pytest.approx(3e-11)


@pytest.mark.parametrize("rates,mu,total", [
    ([1e308, 1e308], 0.5, math.inf),  # each CH's demand overflows
    ([1e20, 0.3], 1.0, 1e20),  # ceil(total) + 1 rows exceed intp
])
def test_plan_min_fleet_names_a_total_demand_too_large_to_plan(rates, mu, total):
    with pytest.raises(ValueError, match=re.escape(
            f"arrival_rates / mu (mu={mu!r}) give a total demand of {total!r} slots")):
        scheduler.plan_min_fleet(rates, mu=mu)
    # a fleet of given size is simply too small
    assert scheduler.find_dwell(rates, 5, mu=mu) is None


def test_min_uavs_examples():
    assert scheduler.min_uavs([0.4, 0.3]) == 1
    assert scheduler.min_uavs([1.0, 1.0]) == 2
    assert scheduler.min_uavs([0.7, 0.8]) == 2  # ceil(1.5)


def test_min_uavs_zero_demand_still_deploys_one():
    assert scheduler.min_uavs([0.0, 0.0, 0.0]) == 1


def test_min_uavs_respects_mu():
    assert scheduler.min_uavs([2.0, 2.0], mu=1.0) == 4
    assert scheduler.min_uavs([2.0, 2.0], mu=4.0) == 1


def _reference_find_dwell(rates, uav_count, mu, slack_target):
    """The fill as it stood with a fleet-size search on top: a fixed
    `uav_count` rows, and None as soon as the fill opens one more."""
    rates = np.asarray(rates, dtype=float)
    demand = (rates + np.where(rates > 0, slack_target, 0.0)) / mu
    if demand.sum() > uav_count + 1e-9:
        return None
    entries = np.zeros((uav_count, rates.size))
    u = 0
    budget = 1.0
    for g in range(rates.size):
        remaining = demand[g]
        while remaining > 0:
            if budget <= 0:
                u += 1
                budget = 1.0
                if u >= uav_count:
                    return None
            pour = min(remaining, budget)
            entries[u, g] += pour
            remaining -= pour
            budget -= pour
    entries[entries < 1e-12] = 0.0
    served = mu * entries.sum(axis=0)
    if np.any(served < rates - 1e-9):
        raise scheduler.UnplannableRateError(f"mu={mu:g}")
    return uav_count, entries.tobytes(), (served - rates).tobytes()


def _reference_plan_min_fleet(rates, mu, slack_target):
    """The search from ceil(total demand) up, one UAV at a time."""
    rates = np.asarray(rates, dtype=float)
    total = float((rates + np.where(rates > 0, slack_target, 0.0)).sum()) / mu
    u = max(1, math.ceil(total - 1e-9))
    while (plan := _reference_find_dwell(rates, u, mu, slack_target)) is None:
        u += 1
    return plan


def _outcome(planner, *args):
    """The plan's UAV count, entry bytes and slack bytes; None; or the error."""
    try:
        plan = planner(*args)
    except scheduler.UnplannableRateError:
        return scheduler.UnplannableRateError
    if isinstance(plan, scheduler.StabilityPlan):
        return plan.uav_count, plan.dwell.entries.tobytes(), plan.slack.tobytes()
    return plan


_FIND_DWELL = scheduler.find_dwell


@pytest.fixture
def no_find_dwell(monkeypatch):
    # the minimum fleet comes from one fill, never from trying fleet sizes
    def refuse(*args, **kwargs):
        raise AssertionError("plan_min_fleet called find_dwell")

    monkeypatch.setattr(scheduler, "find_dwell", refuse)


@pytest.mark.usefixtures("no_find_dwell")
@pytest.mark.parametrize("mu,slack_target", [
    (1.0, 0.0), (1.0, 0.05), (0.7, 0.0), (0.7, 0.05), (3.0, 0.0), (3.0, 0.05)])
def test_plans_on_generated_cells_match_the_fleet_size_search(mu, slack_target):
    # seeds 0-199 x 5/10/15/20 clusters, the cells in which the search steps
    # past ceil(total demand) (88 of them at mu = 1 without slack) included
    excess = 0
    for seed in range(200):
        for clusters in (5, 10, 15, 20):
            rates = queueing.arrival_rates(generate_scenario(seed, clusters, 1, 10))
            plan = _outcome(scheduler.plan_min_fleet, rates, mu, slack_target)
            assert plan == _outcome(_reference_plan_min_fleet, rates, mu, slack_target)
            u = plan[0]
            for count in range(max(1, u - 1), u + 2):
                assert (_outcome(_FIND_DWELL, rates, count, mu, slack_target)
                        == _outcome(_reference_find_dwell, rates, count, mu, slack_target))
            excess += u > max(1, math.ceil(float(np.sum(rates)) - 1e-9))
    if (mu, slack_target) == (1.0, 0.0):
        assert excess == 88


@pytest.mark.usefixtures("no_find_dwell")
@settings(deadline=None, max_examples=300)
@given(rates=st.lists(st.integers(0, 15).map(lambda k: k / 10), min_size=1, max_size=14),
       mu=st.sampled_from([1.0, 0.7, 3.0, 1e308]), slack_target=st.sampled_from([0.0, 0.05]),
       offset=st.integers(-2, 2))
def test_plans_on_drawn_rates_match_the_fleet_size_search(rates, mu, slack_target, offset):
    # one-decimal rates often sum to a whole number, where float dust can
    # open the excess UAV; mu = 1e308 makes every CH with traffic unplannable
    assert (_outcome(scheduler.plan_min_fleet, rates, mu, slack_target)
            == _outcome(_reference_plan_min_fleet, rates, mu, slack_target))
    total = sum(r + slack_target for r in rates if r > 0) / mu
    count = max(1, math.ceil(total) + offset)
    assert (_outcome(_FIND_DWELL, rates, count, mu, slack_target)
            == _outcome(_reference_find_dwell, rates, count, mu, slack_target))


@pytest.mark.parametrize("name,call", [
    ("arrival_rates", lambda: scheduler.find_dwell([math.nan, 0.3], 1)),
    ("arrival_rates", lambda: scheduler.plan_min_fleet([0.3, math.inf])),
    ("mu", lambda: scheduler.find_dwell([0.3], 1, mu=math.inf)),
    ("mu", lambda: scheduler.plan_min_fleet([0.3], mu=math.nan)),
    ("slack_target", lambda: scheduler.find_dwell([0.3], 1, slack_target=math.nan)),
    ("slack_target", lambda: scheduler.plan_min_fleet([0.3], slack_target=math.inf)),
], ids=["rates-nan", "rates-inf", "mu-inf", "mu-nan", "slack-nan", "slack-inf"])
def test_non_finite_inputs_are_rejected_by_name(name, call):
    # unchecked, NaN rates plan a CH no dwell, mu=inf gives NaN slack and a
    # NaN slack target is blamed on mu
    with pytest.raises(ValueError, match=f"^{name} must be finite") as err:
        call()
    assert not isinstance(err.value, scheduler.UnplannableRateError)


def test_verify_plan_accepts_constructed_plans(rng):
    for _ in range(50):
        rates = rng.uniform(0, 1.2, size=rng.integers(1, 12))
        u = scheduler.min_uavs(rates)
        plan = scheduler.find_dwell(rates, u)
        assert plan is not None
        assert scheduler.verify_plan(plan, rates)


def test_verify_plan_rejects_zero_matrix():
    import uavm2m.model as model
    idle = scheduler.StabilityPlan(
        dwell=model.DwellMatrix(entries=np.zeros((1, 2))), uav_count=1,
        slack=np.zeros(2))
    assert not scheduler.verify_plan(idle, [0.5, 0.5])


def test_verify_plan_rejects_underservice():
    plan = scheduler.find_dwell([0.5, 0.4], 1)
    entries = plan.dwell.entries.copy()
    entries[0, 0] -= 0.5
    entries = np.clip(entries, 0, None)
    import uavm2m.model as model
    hacked = scheduler.StabilityPlan(
        dwell=model.DwellMatrix(entries=entries), uav_count=1,
        slack=np.zeros(2))
    assert not scheduler.verify_plan(hacked, [0.5, 0.4])


def test_minimality_on_random_rates(rng):
    for _ in range(300):
        rates = rng.uniform(0, 1.5, size=int(rng.integers(1, 15)))
        if rates.sum() == 0:
            continue
        u = scheduler.min_uavs(rates)
        assert scheduler.find_dwell(rates, u) is not None
        if u > 1:
            assert scheduler.find_dwell(rates, u - 1) is None
        assert u == max(1, math.ceil(rates.sum() - 1e-9))


def test_min_uavs_monotone_in_probability():
    members = np.array([3, 7, 2, 9, 5, 10, 1, 4])
    counts = [scheduler.min_uavs(p * members) for p in (0.1, 0.2, 0.4, 0.6, 0.8)]
    assert counts == sorted(counts)


def test_min_uavs_monotone_in_cluster_count(rng):
    members = rng.integers(1, 11, size=30)
    counts = [scheduler.min_uavs(0.3 * members[:n]) for n in (5, 10, 20, 30)]
    assert counts == sorted(counts)


def test_plans_keep_queues_stable():
    radio = RadioParams(p_tx=0.15)
    scenario = generate_scenario(44, 8, 1, 10, radio)
    rates = queueing.arrival_rates(scenario)
    plan = scheduler.find_dwell(rates, scheduler.min_uavs(rates))
    trace = queueing.simulate(scenario, plan.dwell, horizon=100_000, seed=44)
    assert queueing.is_rate_stable(trace, 0.01)


def test_plan_csv_export():
    plan = scheduler.find_dwell([0.4, 0.3], 1)
    buf = io.StringIO()
    scheduler.write_plan_csv(plan, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines == ["uav_id,ch_id,dwell_fraction", "0,0,0.4", "0,1,0.3"]
