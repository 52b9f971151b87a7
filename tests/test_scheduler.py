import io
import math

import numpy as np
import pytest

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


def test_min_uavs_examples():
    assert scheduler.min_uavs([0.4, 0.3]) == 1
    assert scheduler.min_uavs([1.0, 1.0]) == 2
    assert scheduler.min_uavs([0.7, 0.8]) == 2  # ceil(1.5)


def test_min_uavs_zero_demand_still_deploys_one():
    assert scheduler.min_uavs([0.0, 0.0, 0.0]) == 1


def test_min_uavs_respects_mu():
    assert scheduler.min_uavs([2.0, 2.0], mu=1.0) == 4
    assert scheduler.min_uavs([2.0, 2.0], mu=4.0) == 1


def test_plan_min_fleet_searches_once(monkeypatch):
    # the fleet size comes from one search whose first plan is the result
    calls = []
    find_dwell = scheduler.find_dwell

    def counted(*args, **kwargs):
        calls.append(args)
        return find_dwell(*args, **kwargs)

    monkeypatch.setattr(scheduler, "find_dwell", counted)
    plan = scheduler.plan_min_fleet([0.7, 0.8], slack_target=0.05)
    assert plan.uav_count == 2 and len(calls) == 1
    assert scheduler.min_uavs([0.7, 0.8]) == 2 and len(calls) == 2


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
