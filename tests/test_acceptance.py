"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured runtime (run with `pytest -s` to see them
as they complete).

Stability runs use dwell plans carrying a strict 0.05 packets/slot service
margin (the scheduler's slack_target option): plans meeting demand with bare
equality are critically loaded, and their O(sqrt(T)) backlog excursions are
not a scheduler defect.
"""

import dataclasses
import io
import time

import numpy as np
import pytest

from uavm2m import channel, harness, queueing, raopt, scheduler
from uavm2m.model import DwellMatrix, RadioParams, generate_scenario

from conftest import random_instance


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_1_arrival_statistics_exact():
    start = time.monotonic()
    worst_norm = 0.0
    worst_mean = 0.0
    for members in range(1, 65):
        for p in (0.01, 0.1, 0.5, 0.99):
            pmf = [queueing.arrival_pmf(members, p, n) for n in range(members + 1)]
            worst_norm = max(worst_norm, abs(sum(pmf) - 1.0))
            first_moment = sum(n * q for n, q in enumerate(pmf))
            worst_mean = max(worst_mean, abs(queueing.mean_arrival(members, p) - first_moment))
    elapsed = time.monotonic() - start
    ok = worst_norm < 1e-12 and worst_mean < 1e-10
    _report(1, ok, f"pmf normalization off by {worst_norm:.2e}, "
                   f"mean off by {worst_mean:.2e}", elapsed, 1.0)


def test_criterion_2_rate_stability_soundness():
    start = time.monotonic()
    master = np.random.default_rng(20240811)
    margin = 0.05
    stable = 0
    starved_unstable = 0
    runs = 100
    for _ in range(runs):
        clusters = int(master.integers(1, 21))
        p = float(master.choice([0.1, 0.2, 0.3, 0.4, 0.5]))
        scn_seed = int(master.integers(0, 2**31))
        sim_seed = int(master.integers(0, 2**31))
        scenario = generate_scenario(scn_seed, clusters, 1, 10, RadioParams(p_tx=p))
        rates = queueing.arrival_rates(scenario)

        u = scheduler.min_uavs(rates + margin)
        plan = scheduler.find_dwell(rates, u, slack_target=margin)
        trace = queueing.simulate(scenario, plan.dwell, horizon=100_000, seed=sim_seed)
        if queueing.is_rate_stable(trace, 0.01):
            stable += 1

        # starve the busiest CH by 0.1 packets/slot below its arrival rate;
        # its backlog then drifts, failing the 0.01 test and in fact growing
        # past 0.05 per slot
        base = scheduler.find_dwell(rates, scheduler.min_uavs(rates))
        g_star = int(np.argmax(rates))
        entries = base.dwell.entries.copy()
        entries[:, g_star] *= (rates[g_star] - 0.1) / rates[g_star]
        starved = queueing.simulate(scenario, DwellMatrix(entries=entries),
                                    horizon=100_000, seed=sim_seed)
        if (not queueing.is_rate_stable(starved, 0.01)
                and float(starved.final_rates().max()) > 0.05):
            starved_unstable += 1
    elapsed = time.monotonic() - start
    ok = stable >= 95 and starved_unstable >= 95
    _report(2, ok, f"stable {stable}/{runs}, starved-detected {starved_unstable}/{runs}",
            elapsed, 120.0)


def test_criterion_3_scheduler_minimality_and_trends():
    start = time.monotonic()
    rng = np.random.default_rng(97)
    minimal = 0
    runs = 1000
    for _ in range(runs):
        rates = rng.uniform(0.0, 1.5, size=int(rng.integers(1, 21)))
        u = scheduler.min_uavs(rates)
        feasible_at_u = scheduler.find_dwell(rates, u) is not None
        below_infeasible = u == 1 or scheduler.find_dwell(rates, u - 1) is None
        if feasible_at_u and below_infeasible:
            minimal += 1
    members = rng.integers(1, 11, size=40)
    by_p = [scheduler.min_uavs(p * members[:20]) for p in (0.1, 0.2, 0.4, 0.6, 0.8)]
    by_count = [scheduler.min_uavs(0.4 * members[:n]) for n in (5, 10, 20, 40)]
    elapsed = time.monotonic() - start
    ok = (minimal == runs and by_p == sorted(by_p) and by_count == sorted(by_count)
          and by_p[-1] > by_p[0] and by_count[-1] > by_count[0])
    _report(3, ok, f"minimality {minimal}/{runs}, u(p)={by_p}, u(count)={by_count}",
            elapsed, 60.0)


def test_criterion_4_solver_cross_validation():
    start = time.monotonic()
    rng = np.random.default_rng(424242)
    worst_gap = 0.0
    worst_residual = 0.0
    worst_feas = 0.0
    runs = 200
    for _ in range(runs):
        inst = random_instance(rng, max_uavs=3, max_chs=6, max_rbs=24)
        sol_kkt, point = raopt.solve_kkt(inst)
        sol_red = raopt.solve_reduced(inst)
        gap = abs(sol_kkt.objective - sol_red.objective) / abs(sol_red.objective)
        worst_gap = max(worst_gap, gap)
        worst_residual = max(worst_residual,
                             float(np.linalg.norm(raopt.kkt_residuals(point, inst))))
        worst_feas = max(worst_feas, raopt.max_feasibility_violation(inst, point))
    elapsed = time.monotonic() - start
    ok = worst_gap < 1e-6 and worst_residual < 1e-8 and worst_feas <= 1e-9
    _report(4, ok, f"worst objective gap {worst_gap:.2e}, residual {worst_residual:.2e}, "
                   f"feasibility {worst_feas:.2e} over {runs} instances", elapsed, 300.0)


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(555)
    runs = 1000
    bound_ok = 0
    worst_round_gap = 0.0
    for _ in range(runs):
        inst = random_instance(rng, max_uavs=3, max_chs=6, max_rbs=12)
        cont = raopt.solve_reduced(inst)
        exact = raopt.brute_force(inst)
        if cont.objective <= exact.objective * (1 + 1e-9):
            bound_ok += 1
        rounded = raopt.round_rbs(inst)
        worst_round_gap = max(worst_round_gap,
                              rounded.objective / exact.objective - 1.0)
    elapsed = time.monotonic() - start
    ok = bound_ok == runs and worst_round_gap <= 0.05
    _report(5, ok, f"relaxation bound {bound_ok}/{runs}, "
                   f"worst rounding gap {100 * worst_round_gap:.3f}%", elapsed, 300.0)


def test_criterion_6_channel_closed_forms():
    start = time.monotonic()
    gap_ok = abs(channel.snr_gap(1e-7) - 0.103386) < 1e-6
    pg = channel.path_gain(500.0, 0.15, 2.5)
    pg_ok = abs(pg - 2.7845e-12) / 2.7845e-12 < 1e-3
    rng = np.random.default_rng(66)
    worst_inv = 0.0
    for _ in range(2000):
        bits = rng.uniform(10, 2000)
        z = rng.uniform(0.5, 24)
        dwell = rng.uniform(0.02, 1.0)
        gain = 10.0 ** rng.uniform(-14, -9)
        p = channel.required_power(bits, z, 15e3, dwell, 0.1034, gain, 1e-20, 1.0)
        back = channel.achievable_bits(p, z, 15e3, dwell, 0.1034, gain, 1e-20, 1.0)
        worst_inv = max(worst_inv, abs(back - bits) / bits)
    elapsed = time.monotonic() - start
    ok = gap_ok and pg_ok and worst_inv < 1e-9
    _report(6, ok, f"snr_gap={channel.snr_gap(1e-7):.6f}, path_gain={pg:.4e}, "
                   f"worst inverse error {worst_inv:.2e}", elapsed, 30.0)


def _sweep_means(variable, values, radio, replications=50, clusters=20):
    spec = harness.SweepSpec(variable=variable, values=values,
                             replications=replications, base_seed=1234,
                             num_clusters=clusters, radio=radio)
    rows = harness.run_sweep(spec)
    means = {r["value"]: r for r in rows if r["replication"] == "mean"}
    assert all(not means[v]["error"] for v in values), f"sweep failures: {means}"
    return means


def _nested_cluster_runs(counts, reps, rbs, base_seed=1234):
    """Paired cluster-count experiment: replication r draws one 20-cluster
    layout and evaluates its prefixes, so every count shares clusters,
    altitudes, and traffic (common random numbers)."""
    out = {n: [] for n in counts}
    for r in range(reps):
        seed = harness.derive_seed(base_seed, 0, r)
        full = generate_scenario(seed, max(counts), 1, 10, RadioParams(total_rbs=rbs))
        for n in counts:
            scenario = dataclasses.replace(full, clusters=full.clusters[:n])
            out[n].append(harness.run_pipeline(scenario, seed=seed))
    return out


def test_criterion_7_figure_trends_at_desk_scale():
    start = time.monotonic()
    reps = 50
    counts = (5, 10, 15, 20)

    runs6 = _nested_cluster_runs(counts, reps, rbs=6)
    runs24 = _nested_cluster_runs(counts, reps, rbs=24)
    power6 = [float(np.mean([r.avg_power_w for r in runs6[n]])) for n in counts]
    power24 = [float(np.mean([r.avg_power_w for r in runs24[n]])) for n in counts]
    power_monotone = all(a <= b for a, b in zip(power6, power6[1:]))
    z24_below_z6 = all(p24 < p6 for p24, p6 in zip(power24, power6))

    rbs24 = [float(np.mean([r.avg_rbs_per_uav for r in runs24[n]])) for n in counts]
    rbs_decreasing = all(a > b for a, b in zip(rbs24, rbs24[1:]))

    energy = [float(np.mean([r.energy_per_slot_j for r in runs6[n]])) for n in counts]
    energy_clusters_up = all(a <= b for a, b in zip(energy, energy[1:]))

    bits_grid = (50.0, 100.0, 200.0, 400.0)
    by_bits = _sweep_means("packet_bits", bits_grid, RadioParams(total_rbs=12), reps)
    energy_bits = [by_bits[v]["total_energy_j"] for v in bits_grid]
    energy_bits_up = all(a <= b for a, b in zip(energy_bits, energy_bits[1:]))

    uav_power, terr_default, terr_calibrated = [], [], []
    for seed in range(reps):
        scenario = generate_scenario(seed, 20, 1, 10, RadioParams(total_rbs=6))
        default = harness.run_baseline_comparison(scenario, harness.BaselineSpec(),
                                                  seed=seed)
        calibrated = harness.run_baseline_comparison(scenario,
                                                     harness.CALIBRATED_BASELINE,
                                                     seed=seed)
        uav_power.append(default.uav_avg_power_w)
        terr_default.append(default.terrestrial_avg_power_w)
        terr_calibrated.append(calibrated.terrestrial_avg_power_w)
    uav_below_terrestrial = float(np.mean(uav_power)) < float(np.mean(terr_default))
    calibrated_reduction = 1.0 - float(np.mean(uav_power)) / float(np.mean(terr_calibrated))
    calibrated_ok = 0.58 <= calibrated_reduction <= 0.78

    elapsed = time.monotonic() - start
    ok = (power_monotone and z24_below_z6 and rbs_decreasing and energy_clusters_up
          and energy_bits_up and uav_below_terrestrial and calibrated_ok)
    _report(7, ok,
            f"power(clusters) {['%.3g' % p for p in power6]}, Z24<Z6 {z24_below_z6}, "
            f"rbs/uav {['%.2f' % r for r in rbs24]}, energy(bits) up {energy_bits_up}, "
            f"uav<terrestrial {uav_below_terrestrial}, "
            f"calibrated reduction {calibrated_reduction:.3f}",
            elapsed, 600.0)


def test_criterion_8_numerical_hygiene():
    start = time.monotonic()
    rng = np.random.default_rng(88)

    worst_deriv = 0.0
    for _ in range(500):
        # extended-precision central differences: in float64 the tiny-slope
        # corner (small c, large z) loses the difference to cancellation
        c = np.longdouble(rng.uniform(0.05, 40.0))
        z = np.longdouble(rng.uniform(1.0, 64.0))
        h = np.longdouble(1e-6) * z
        f = lambda v: (np.longdouble(2.0) ** (c / v) - 1) * v
        numeric = float((f(z + h) - f(z - h)) / (2 * h))
        analytic = raopt.rb_term_derivative(float(c), float(z))
        worst_deriv = max(worst_deriv, abs(analytic - numeric) / abs(numeric))
    deriv_ok = worst_deriv < 1e-6

    monotone_ok = True
    for _ in range(25):
        inst = random_instance(rng)
        _, point = raopt.solve_kkt(inst)
        costs = point.accepted_costs
        if not (costs and all(a > b for a, b in zip(costs, costs[1:]))):
            monotone_ok = False
            break

    spec = harness.SweepSpec(variable="p_tx", values=(0.1, 0.3), replications=3,
                             base_seed=2024, num_clusters=6,
                             radio=RadioParams(total_rbs=12))
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        harness.sweep_to_csv(harness.run_sweep(spec), buf)
        outputs.append(buf.getvalue())
    csv_ok = outputs[0] == outputs[1]

    elapsed = time.monotonic() - start
    ok = deriv_ok and monotone_ok and csv_ok
    _report(8, ok, f"derivative error {worst_deriv:.2e}, LMA monotonic {monotone_ok}, "
                   f"byte-identical sweep {csv_ok}", elapsed, 120.0)
