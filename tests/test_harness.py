import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest

from uavm2m import harness, raopt
from uavm2m.model import RadioParams, UavFleet, generate_scenario

GOLDEN = Path(__file__).parent / "golden"


def _radio(**kw):
    return dataclasses.replace(RadioParams(), **kw)


def test_pipeline_zero_traffic_degenerates():
    scenario = generate_scenario(3, 1, 4, 4, _radio(p_tx=0.0, total_rbs=6))
    result = harness.run_pipeline(scenario)
    assert result.u_min == 1
    assert result.continuous.z[0] == pytest.approx(6.0)
    assert result.continuous.objective == 0.0
    assert result.avg_power_w == 0.0


def test_pipeline_summary_consistency():
    scenario = generate_scenario(5, 6, 1, 10, _radio(total_rbs=12))
    result = harness.run_pipeline(scenario, seed=5)
    assert result.u_min == result.plan.uav_count == result.fleet.count
    assert result.energy_per_slot_j == pytest.approx(result.continuous.objective)
    assert result.avg_power_w > 0
    # all served links satisfy the delivery constraint with equality
    inst = result.instance
    for g, u in inst.active_pairs():
        req = inst.pair_power(g, u, float(result.continuous.z[u]))
        assert result.continuous.power[g, u] == pytest.approx(req, rel=1e-9)


def test_pipeline_reuses_matching_fleet():
    scenario = generate_scenario(9, 4, 1, 6, _radio(total_rbs=12))
    first = harness.run_pipeline(scenario, seed=1)
    pinned = scenario.with_fleet(UavFleet(altitudes=tuple([500.0] * first.u_min)))
    second = harness.run_pipeline(pinned, seed=999)
    assert second.fleet.altitudes == pinned.fleet.altitudes


def test_pipeline_solver_modes_agree_on_single_server_plans():
    # 2 clusters at saturation load: each CH is served by exactly one UAV,
    # where the kkt and reduced routes solve the identical system
    scenario = generate_scenario(13, 2, 10, 10, _radio(total_rbs=12))
    both = harness.run_pipeline(scenario, seed=13, solver="both")
    assert both.kkt_objective_w == pytest.approx(both.continuous.objective, rel=1e-6)


@pytest.mark.parametrize("seed,clusters,rbs", [
    (1017319567, 9, 24), (717772468, 10, 24), (1528723634, 7, 24), (1431454342, 9, 24),
])
def test_pipeline_kkt_solves_split_ch_plans(seed, clusters, rbs):
    # plans that split CHs across UAVs, on which the KKT route once failed to
    # converge: it must reach a verified point at the reduced optimum
    scenario = generate_scenario(seed, clusters, 1, 10, _radio(total_rbs=rbs))
    both = harness.run_pipeline(scenario, seed=seed, solver="both")
    point, inst = both.kkt_point, both.instance
    assert np.linalg.norm(raopt.kkt_residuals(point, inst)) <= 1e-8
    assert raopt.max_feasibility_violation(inst, point) <= 1e-9
    assert both.kkt_objective_w == pytest.approx(both.continuous.objective, rel=1e-6)


def test_pipeline_altitudes_in_default_range():
    scenario = generate_scenario(21, 8, 1, 10, _radio(total_rbs=12))
    result = harness.run_pipeline(scenario, seed=21)
    for alt in result.fleet.altitudes:
        assert 400.0 <= alt <= 600.0


def test_more_blocks_never_cost_more_power():
    for seed in range(5):
        scenario6 = generate_scenario(seed, 10, 1, 10, _radio(total_rbs=6))
        scenario24 = dataclasses.replace(scenario6, total_rbs=24)
        p6 = harness.run_pipeline(scenario6, seed=seed).avg_power_w
        p24 = harness.run_pipeline(scenario24, seed=seed).avg_power_w
        assert p24 <= p6 + 1e-15


def test_sweep_rows_and_aggregates():
    spec = harness.SweepSpec(variable="p_tx", values=(0.1, 0.3), replications=3,
                             base_seed=5, num_clusters=4,
                             radio=_radio(total_rbs=12))
    rows = harness.run_sweep(spec)
    assert len(rows) == 2 * 3 + 2
    means = [r for r in rows if r["replication"] == "mean"]
    assert len(means) == 2
    per_value = [r for r in rows if r["replication"] != "mean" and r["value"] == 0.1]
    assert means[0]["u_min"] == pytest.approx(
        sum(r["u_min"] for r in per_value) / len(per_value))


def test_sweep_seeds_unique_and_reproducible():
    spec = harness.SweepSpec(variable="num_clusters", values=(2.0, 3.0, 4.0),
                             replications=4, base_seed=17, num_clusters=4,
                             radio=_radio(total_rbs=12))
    rows = [r for r in harness.run_sweep(spec) if r["replication"] != "mean"]
    seeds = [r["seed"] for r in rows]
    assert len(set(seeds)) == len(seeds)
    assert harness.derive_seed(17, 0, 0) == seeds[0]
    assert harness.derive_seed(17, 2, 3) == seeds[-1]


def test_sweep_csv_byte_identical():
    spec = harness.SweepSpec(variable="total_rbs", values=(6.0, 12.0),
                             replications=2, base_seed=3, num_clusters=5,
                             radio=_radio())
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        harness.sweep_to_csv(harness.run_sweep(spec), buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def test_sweep_fleet_grows_with_transmission_probability():
    spec = harness.SweepSpec(variable="p_tx", values=(0.2, 0.6), replications=3,
                             base_seed=9, num_clusters=8,
                             radio=_radio(total_rbs=12))
    means = {r["value"]: r for r in harness.run_sweep(spec)
             if r["replication"] == "mean"}
    assert means[0.6]["u_min"] > means[0.2]["u_min"]


def test_sweep_records_failures_and_continues():
    spec = harness.SweepSpec(variable="num_clusters", values=(0.0, 3.0),
                             replications=2, base_seed=1, num_clusters=3,
                             radio=_radio(total_rbs=12))
    rows = harness.run_sweep(spec)
    failed = [r for r in rows if r["error"] and r["replication"] != "mean"]
    succeeded = [r for r in rows if not r["error"] and r["replication"] != "mean"]
    assert len(failed) == 2 and all(r["value"] == 0.0 for r in failed)
    assert len(succeeded) == 2
    mean_rows = [r for r in rows if r["replication"] == "mean"]
    assert "2 replication(s) failed" in mean_rows[0]["error"]


def test_baseline_identical_links_cancel():
    scenario = generate_scenario(31, 6, 1, 10, _radio(total_rbs=12))
    probe = harness.run_pipeline(scenario)
    pinned = scenario.with_fleet(UavFleet(altitudes=tuple([500.0] * probe.u_min)))
    spec = harness.BaselineSpec(bs_height_m=500.0, pathloss_exp_terrestrial=2.5,
                                placement="at_cluster_heads")
    result = harness.run_baseline_comparison(pinned, spec)
    assert result.reduction == pytest.approx(0.0, abs=1e-9)


def test_baseline_default_favors_overhead_service():
    scenario = generate_scenario(2, 10, 1, 10, _radio(total_rbs=6))
    result = harness.run_baseline_comparison(scenario, seed=2)
    assert result.uav_avg_power_w < result.terrestrial_avg_power_w


def test_baseline_reduction_grows_with_terrestrial_exponent():
    # cap lifted so the harsher ground channel stays feasible
    scenario = generate_scenario(6, 8, 1, 10, _radio(total_rbs=6, pmax_w=1e15))
    lo = harness.run_baseline_comparison(
        scenario, harness.BaselineSpec(pathloss_exp_terrestrial=3.2), seed=6)
    hi = harness.run_baseline_comparison(
        scenario, harness.BaselineSpec(pathloss_exp_terrestrial=6.4), seed=6)
    assert hi.reduction > lo.reduction


def test_grid_positions_cover_area():
    for count in (1, 2, 5, 9, 13):
        pts = harness.grid_positions(count, 500.0)
        assert len(pts) == count
        assert len(set(pts)) == count
        for x, y in pts:
            assert 0 < x < 500 and 0 < y < 500


def test_pipeline_golden_regression():
    """Locked first verified run: 20 clusters, p=0.1, 6 RBs, seed 7."""
    golden_path = GOLDEN / "pipeline_20c_z6_seed7.csv"
    scenario = generate_scenario(7, 20, 1, 10, _radio(total_rbs=6))
    result = harness.run_pipeline(scenario, seed=7)
    got = (
        "u_min,avg_power_w,avg_rbs_per_uav,energy_per_slot_j,objective_w\n"
        f"{result.u_min},{result.avg_power_w:.9g},{result.avg_rbs_per_uav:.9g},"
        f"{result.energy_per_slot_j:.9g},{result.continuous.objective:.9g}\n"
    )
    assert result.avg_power_w > 0
    assert got == golden_path.read_text()
