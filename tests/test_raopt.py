import collections
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from uavm2m import channel, harness, lma, raopt
from uavm2m.model import DwellMatrix, RadioParams, generate_scenario

from conftest import BETA, WAVELENGTH, random_instance, single_link_instance, split_ch_instance


def _kkt_block_offsets(inst):
    """Start offsets of the five residual blocks, in stacked order."""
    n_u = len(inst.links.uavs)
    n_p = len(inst.active_pairs())
    pmax = 0
    budget = pmax + n_p
    stat_p = budget + 1
    stat_z = stat_p + n_p
    rate = stat_z + n_u
    return pmax, budget, stat_p, stat_z, rate, rate + n_p


def _zeroed_point(inst, z_value):
    z = np.zeros(inst.num_uavs)
    for u in inst.links.uavs:
        z[u] = z_value
    return raopt.KktPoint(
        z=z,
        power=np.zeros((inst.num_chs, inst.num_uavs)),
        lam_pmax=np.zeros((inst.num_chs, inst.num_uavs)),
        lam_budget=0.0,
        lam_rate=np.zeros((inst.num_chs, inst.num_uavs)),
    )


def test_residuals_with_zero_multipliers_reduce_to_dwell_totals(rng):
    # power stationarity prices each link at its own dwell, which on the
    # split CH is less than the CH's total
    for inst in [random_instance(rng, max_uavs=3, max_chs=5), split_ch_instance()]:
        point = _zeroed_point(inst, z_value=inst.total_rbs / 2)
        res = raopt.kkt_residuals(point, inst)
        _, _, stat_p, stat_z, rate, end = _kkt_block_offsets(inst)
        d = inst.dwell.entries
        for k, (g, u) in enumerate(inst.active_pairs()):
            assert res[stat_p + k] == pytest.approx(d[u, g], rel=1e-12)
        # every product block vanishes with zero multipliers
        assert np.all(res[:stat_p] == 0)
        assert np.all(res[stat_z:stat_z + len(inst.links.uavs)] == 0)
        assert np.all(res[rate:end] == 0)


def test_residual_linear_in_delivery_slack():
    inst = single_link_instance(total_rbs=6)
    delta = 3.7e-7
    point = _zeroed_point(inst, z_value=4.0)
    point.lam_rate[0, 0] = 1.0
    point.power[0, 0] = inst.pair_power(0, 0, 4.0) + delta
    res = raopt.kkt_residuals(point, inst)
    assert res[-1] == pytest.approx(-delta, rel=1e-9)


def test_residuals_reject_zero_rb_count():
    inst = single_link_instance()
    point = _zeroed_point(inst, z_value=0.0)
    with pytest.raises(ValueError):
        raopt.kkt_residuals(point, inst)


def test_residuals_dimension_check():
    inst = single_link_instance()
    point = _zeroed_point(inst, z_value=1.0)
    point.z = np.ones(3)
    with pytest.raises(ValueError):
        raopt.kkt_residuals(point, inst)


def _checks_by_pair(point, inst):
    """`kkt_residuals` and `max_feasibility_violation` as per-pair loops on
    the scalar formulas, the reference for their array code."""
    pairs = inst.active_pairs()
    uavs = inst.links.uavs.tolist()
    z, power, d = point.z, point.power, inst.dwell.entries
    res = [point.lam_pmax[g, u] * (power[g, u] - inst.pmax) for g, u in pairs]
    res.append(point.lam_budget * (sum(z[u] for u in uavs) - inst.total_rbs))
    res += [d[u, g] + point.lam_pmax[g, u] - point.lam_rate[g, u] for g, u in pairs]
    stat_z = dict.fromkeys(uavs, point.lam_budget)
    for (g, u), c, coeff in zip(pairs, inst.links.c.tolist(), inst.links.coeff.tolist()):
        stat_z[u] += point.lam_rate[g, u] * coeff * raopt.rb_term_derivative(c, float(z[u]))
    res += stat_z.values()
    res += [point.lam_rate[g, u] * (inst.pair_power(g, u, float(z[u])) - power[g, u])
            for g, u in pairs]
    worst = 0.0
    for g, u in pairs:
        worst = max(worst, inst.pair_power(g, u, float(z[u])) - power[g, u],
                    power[g, u] - inst.pmax, -power[g, u], -point.lam_rate[g, u],
                    -point.lam_pmax[g, u])
    for u in uavs:
        worst = max(worst, -z[u])
    worst = max(worst, sum(float(z[u]) for u in uavs) - inst.total_rbs, -point.lam_budget)
    return np.array(res), worst


def test_array_checks_match_the_per_pair_loops(rng):
    # a split-CH plan, its binding-cap variant, the plan with a fourth CH
    # that sends nothing, and three serving UAVs on two blocks; at the
    # KKT route's start and end points, where rows cancel, and at random
    # points, where every row and every feasibility condition is in play
    split = split_ch_instance(6)
    idle = dataclasses.replace(
        split, dwell=DwellMatrix(entries=np.hstack([split.dwell.entries, np.zeros((3, 1))])),
        gains=np.vstack([split.gains, split.gains[:1]]))
    crowded = dataclasses.replace(split, dwell=DwellMatrix(entries=np.eye(3) * 0.6), total_rbs=2)
    fixtures = [split, _binding_cap(split), idle, crowded]
    assert len(crowded.links.uavs) > crowded.total_rbs
    points = [(system.inst, system.decode(x)[1]) for system, x in _kkt_iterates(fixtures)]
    for inst in fixtures:
        for _ in range(10):
            shape = (inst.num_chs, inst.num_uavs)
            z = np.zeros(inst.num_uavs)
            z[inst.links.uavs] = rng.uniform(0.05, 1.0, len(inst.links.uavs)) * inst.total_rbs
            points.append((inst, raopt.KktPoint(
                z=z, power=rng.uniform(-0.1, 1.2, shape) * inst.pmax,
                lam_pmax=rng.uniform(-0.1, 1.0, shape), lam_budget=rng.uniform(-1e-8, 1e-8),
                lam_rate=rng.uniform(-0.1, 1.0, shape))))
    for inst, point in points:
        ref, worst = _checks_by_pair(point, inst)
        np.testing.assert_allclose(raopt.kkt_residuals(point, inst), ref, rtol=1e-15, atol=0)
        assert raopt.max_feasibility_violation(inst, point) == pytest.approx(worst, rel=1e-15)


def test_single_link_optimum_uses_all_blocks():
    inst = single_link_instance(total_rbs=6)
    sol, point = raopt.solve_kkt(inst)
    assert sol.z[0] == pytest.approx(6.0, abs=1e-6)
    expected = channel.required_power(100, 6, 15e3, 1.0, BETA, inst.gains[0, 0], 1e-20, 1.0)
    assert expected == pytest.approx(2.408520e-6, rel=1e-4)  # direct evaluation
    assert sol.power[0, 0] == pytest.approx(expected, rel=1e-6)
    assert float(np.linalg.norm(point.residuals)) < 1e-8


def test_solved_points_are_kkt_fixed_points(rng):
    for _ in range(20):
        inst = random_instance(rng)
        sol, point = raopt.solve_kkt(inst)
        recheck = raopt.kkt_residuals(point, inst)
        assert float(np.linalg.norm(recheck)) < 1e-8
        assert raopt.max_feasibility_violation(inst, point) <= 1e-9


def test_complementary_slackness_at_convergence(rng):
    for _ in range(10):
        inst = random_instance(rng)
        _, point = raopt.solve_kkt(inst)
        z_total = sum(point.z[u] for u in inst.links.uavs)
        assert abs(point.lam_budget * (z_total - inst.total_rbs)) < 1e-8
        for g, u in inst.active_pairs():
            assert abs(point.lam_pmax[g, u] * (point.power[g, u] - inst.pmax)) < 1e-8


def test_infeasible_cap_names_link():
    inst = single_link_instance(total_rbs=6)
    tight = raopt.RaInstance(
        dwell=inst.dwell, gains=inst.gains, packet_bits=inst.packet_bits,
        rb_bandwidth=inst.rb_bandwidth, total_rbs=inst.total_rbs,
        noise_psd=inst.noise_psd, beta=inst.beta, pmax=1e-9, slot_s=1.0)
    with pytest.raises(raopt.InfeasibleInstanceError) as err:
        raopt.solve_kkt(tight)
    assert err.value.ch == 0 and err.value.uav == 0
    with pytest.raises(raopt.InfeasibleInstanceError):
        raopt.solve_reduced(tight)


def test_reduced_single_uav_takes_whole_budget():
    inst = single_link_instance(total_rbs=9)
    sol = raopt.solve_reduced(inst)
    assert sol.z[0] == pytest.approx(9.0)


def test_reduced_symmetric_split():
    dwell = DwellMatrix(entries=np.array([[0.6, 0.0], [0.0, 0.6]]))
    gain = channel.path_gain(500.0, WAVELENGTH, 2.5)
    inst = raopt.RaInstance(
        dwell=dwell, gains=np.full((2, 2), gain), packet_bits=100.0,
        rb_bandwidth=15e3, total_rbs=13, noise_psd=1e-20, beta=BETA, pmax=1.0)
    sol = raopt.solve_reduced(inst)
    assert sol.z[0] == pytest.approx(6.5, rel=1e-9)
    assert sol.z[1] == pytest.approx(6.5, rel=1e-9)


def test_solver_cross_agreement_sample(rng):
    for _ in range(30):
        inst = random_instance(rng)
        sol_k, _ = raopt.solve_kkt(inst)
        sol_r = raopt.solve_reduced(inst)
        assert sol_k.objective == pytest.approx(sol_r.objective, rel=1e-6)


def test_solver_cross_agreement_split_ch():
    inst = split_ch_instance()
    sol_k, _ = raopt.solve_kkt(inst)
    sol_r = raopt.solve_reduced(inst)
    assert sol_k.objective == pytest.approx(sol_r.objective, rel=1e-6)


def _kkt_iterates(instances):
    """(system, x) at the start of `solve_kkt` and at the final LM iterate
    from it, on each instance."""
    for inst in instances:
        system = raopt.KktSystem(inst)
        yield system, system.start
        yield system, lma.solve(system.residual, system.start,
                                jacobian=system.jacobian).solution


def _kkt_fixtures(rng):
    return [split_ch_instance(), *(random_instance(rng) for _ in range(30))]


def test_kkt_jacobian_matches_central_differences(rng):
    # a relative step of 1e-5 keeps both the truncation error and the
    # rounding noise of the near-cancelling delivery rows below 1e-5 of the
    # largest entry
    for system, x in _kkt_iterates(_kkt_fixtures(rng)):
        assert system.size == len(system.links.uavs) + len(system.links.ch) + 1
        jac = system.jacobian(x)
        numeric = np.empty_like(jac)
        for i in range(x.size):
            h = 1e-5 * max(abs(x[i]), 1.0)
            step = np.zeros_like(x)
            step[i] = h
            numeric[:, i] = (system.residual(x + step) - system.residual(x - step)) / (2 * h)
        assert np.abs(jac - numeric).max() <= 1e-4 * np.abs(jac).max()


def test_scaled_kkt_residual_matches_scalar_reference(rng):
    # every term is O(1) or smaller (dwells, multipliers near dwell, powers
    # under the 1 W cap), so a reordered sum moves a row by a few 1e-16. The
    # system's rows are rows 1, 2 and 4 of `kkt_residuals`; `decode` fills
    # in the powers and delivery multipliers that make rows 3 and 5 vanish
    for system, x in _kkt_iterates(_kkt_fixtures(rng)):
        _, point = system.decode(x)
        full = raopt.kkt_residuals(point, system.inst)
        _, _, stat_p, stat_z, rate, end = _kkt_block_offsets(system.inst)
        np.testing.assert_allclose(system.residual(x) * system.row_scale,
                                   np.concatenate([full[:stat_p], full[stat_z:rate]]),
                                   rtol=1e-9, atol=1e-14)
        assert np.all(full[stat_p:stat_z] == 0)
        np.testing.assert_allclose(full[rate:end], 0.0, atol=1e-14)


def test_kkt_jacobian_reuses_the_residual_kernels(monkeypatch):
    # LM asks for the Jacobian only at the point whose residual it last
    # evaluated, so inside LM each link kernel runs once per residual
    # evaluation, and the Jacobian from the kept terms is the one a fresh
    # system computes at that point. The instances: the split-CH fixture
    # and the first 20 of the benchmark's crosscheck pool
    refs = Path(__file__).resolve().parents[1] / "bench" / "refs.json"
    pool = json.loads(refs.read_text(encoding="utf-8"))["crosscheck_pool"][:20]
    instances = [split_ch_instance()] + [
        harness.run_pipeline(generate_scenario(e["seed"], e["clusters"], 1, 10,
                                               RadioParams(total_rbs=e["rbs"])),
                             seed=e["seed"]).instance
        for e in pool]
    calls, in_lm, jacobians = collections.Counter(), [], []

    def counted(name, fn):
        def wrapper(self, *args):
            calls[name] += bool(in_lm)
            return fn(self, *args)
        return wrapper

    for cls, name in ((raopt.LinkView, "power"), (raopt.LinkView, "link_slopes"),
                      (raopt.KktSystem, "residual")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    solve, jacobian = lma.solve, raopt.KktSystem.jacobian

    def in_solve(*args, **kwargs):
        in_lm.append(None)
        try:
            return solve(*args, **kwargs)
        finally:
            in_lm.pop()

    def kept_jacobian(self, x):
        jac = jacobian(self, x)
        jacobians.append((self.inst, x.copy(), jac))
        return jac

    monkeypatch.setattr(raopt.lma, "solve", in_solve)
    monkeypatch.setattr(raopt.KktSystem, "jacobian", kept_jacobian)
    for inst in instances:
        calls.clear()
        raopt.solve_kkt(inst)
        assert calls["power"] == calls["link_slopes"] == calls["residual"] > 0
    assert len(jacobians) >= len(instances)
    for inst, x, jac in jacobians:
        assert np.array_equal(jac, jacobian(raopt.KktSystem(inst), x))


def test_reduced_solves_instances_with_binding_caps(rng):
    # pmax just below the uncapped optimum's peak link power: the even split
    # Z/n can break the cap while an uneven split still keeps it. The KKT
    # route must never call such an instance infeasible. Its single LM run
    # verifies only some of them (a floor on the count below); the others
    # raise SolverConvergenceError and are left to a fallback route. Which
    # draws verify turns on pmax's last bits (one ulp either way verifies 4),
    # so pmax comes from the KKT route's uncapped optimum, which the reduced
    # route's last bits cannot move
    slacks = [split_ch_instance(6)]
    while len(slacks) < 41:
        slack = random_instance(rng)
        if len(slack.links.uavs) >= 2:
            slacks.append(slack)
    solved = binding = verified = 0
    for slack in slacks:
        uncapped, _ = raopt.solve_kkt(slack)
        inst = dataclasses.replace(slack, pmax=0.999 * float(uncapped.power.max()))
        try:
            exact = raopt.brute_force(inst)
        except (raopt.InfeasibleInstanceError, ValueError):  # infeasible or too large
            exact = None
        try:
            sol = raopt.solve_reduced(inst)
        except raopt.InfeasibleInstanceError:
            assert exact is None, "brute force found an allocation the solver rejected"
            continue
        solved += 1
        assert sol.z.sum() <= inst.total_rbs + 1e-9
        assert sol.power.max() <= inst.pmax * (1 + 1e-9)
        assert sol.objective >= uncapped.objective * (1 - 1e-12)
        if exact is not None:
            assert sol.objective <= exact.objective * (1 + 1e-9)
        try:
            sol_k, point = raopt.solve_kkt(inst)
        except raopt.SolverConvergenceError:
            pass
        else:
            assert np.linalg.norm(raopt.kkt_residuals(point, inst)) <= 1e-8
            assert raopt.max_feasibility_violation(inst, point) <= 1e-9
            assert sol_k.objective == pytest.approx(sol.objective, rel=1e-6)
            verified += 1
        # optimality: UAVs off their cap floor share one marginal cost; a UAV
        # held at its floor gains less from a block and would give blocks
        # away if its cap allowed
        links = inst.links
        level = -links.slopes(sol.z[links.uavs])[0]
        hot = sol.power[links.ch, links.uav] >= inst.pmax * (1 - 1e-6)
        at_floor = np.bincount(links.seg, weights=hot, minlength=len(links.uavs)) > 0
        binding += bool(at_floor.any())
        free = level[~at_floor]
        if len(free):
            assert free.max() - free.min() <= 1e-6 * free.mean()
            assert np.all(level[at_floor] <= free.mean() * (1 + 1e-6))
    # the KKT route verifies 5 of the 13 feasible draws
    assert solved > 0 and binding > 0 and verified >= 5


def test_kkt_prices_power_caps_per_link():
    # a crosscheck-pool plan with pmax just below its optimum's peak link
    # power: the cap binds on one link of each of two CHs split across two
    # UAVs, and the KKT route, with one multiplier per link cap, must reach
    # the capped optimum as a verified point
    scenario = generate_scenario(2101114459, 8, 1, 10, RadioParams(total_rbs=6))
    slack = harness.run_pipeline(scenario, seed=2101114459).instance
    inst = dataclasses.replace(
        slack, pmax=0.999 * float(raopt.solve_reduced(slack).power.max()))
    sol, point = raopt.solve_kkt(inst)
    assert np.linalg.norm(raopt.kkt_residuals(point, inst)) <= 1e-8
    assert raopt.max_feasibility_violation(inst, point) <= 1e-9
    assert sol.objective == pytest.approx(raopt.solve_reduced(inst).objective, rel=1e-6)


def test_link_kernels_match_scalar_reference(rng):
    # z is drawn so that each UAV's smallest t = c/z is log-uniform in
    # [1e-4, 3]; in expm1 form neither the power nor the marginal cancels
    # there (the marginal's 2**t * (1 - t ln2) - 1 loses ~1e-8 at t = 1e-4)
    for inst in [split_ch_instance(), *(random_instance(rng) for _ in range(30))]:
        links = inst.links
        d = inst.dwell.entries
        assert list(zip(links.ch, links.uav)) == [
            (g, u) for g in range(inst.num_chs) for u in range(inst.num_uavs) if d[u, g] > 0]
        c_min = np.array([links.c[links.seg == i].min() for i in range(len(links.uavs))])
        z = c_min / np.exp(rng.uniform(np.log(1e-4), np.log(3.0), size=len(links.uavs)))
        power = links.power(z[links.seg])
        ref_cost = np.zeros(len(links.uavs))
        for k, (g, u) in enumerate(zip(links.ch, links.uav)):
            i = links.uavs.tolist().index(u)
            ref = channel.required_power(inst.packet_bits, z[i], inst.rb_bandwidth, d[u, g],
                                         inst.beta, inst.gains[g, u], inst.noise_psd)
            assert power[k] == pytest.approx(ref, rel=1e-12)
            ref_cost[i] += d[u, g] * ref
            assert links.c[k] == inst.packet_bits / (inst.rb_bandwidth * d[u, g])
            assert links.coeff[k] == (inst.rb_bandwidth * inst.noise_psd
                                      / (inst.beta * inst.gains[g, u]))
        np.testing.assert_allclose(links.cost(z), ref_cost, rtol=1e-12)
        # the kernel's slope and the reference evaluate one np.expm1
        # expression, so they agree bit for bit, also at small t where a
        # one-ulp difference in expm1 moves the slope by up to ~6e-12
        z_link = z[links.seg]
        assert np.array_equal(links.link_slopes(z_link)[0],
                              links.coeff * raopt.rb_term_derivative(links.c, z_link))
        marginal, curvature = links.slopes(z)
        # curvature against central differences of the marginal, computed in
        # extended precision and in expm1 form: at t = 1e-4 the 2**t form
        # leaves ~5e-11 relative error in the marginal even in long double,
        # which the differences amplify past 1e-6
        c = links.c.astype(np.longdouble)
        w_coeff = (links.weight * links.coeff).astype(np.longdouble)

        def marginal_ld(zz):
            a = c / zz[links.seg] * np.log(np.longdouble(2))
            per_link = w_coeff * (np.expm1(a) * (1 - a) - a)
            return np.array([per_link[links.seg == i].sum() for i in range(len(z))])

        h = np.longdouble(1e-6) * z.astype(np.longdouble)
        numeric = (marginal_ld(z + h) - marginal_ld(z - h)) / (2 * h)
        np.testing.assert_allclose(curvature, numeric.astype(float), rtol=1e-6)


def test_link_slope_matches_reference_where_the_two_expm1_differ():
    # at c = 0.0012679746698940637, z = 1 math.expm1 and np.expm1 round a
    # = ln2 * c apart by one ulp (numpy 2.4 on AVX-512 x86-64), which moves
    # the slope by ~3e-13 relative; the reference takes the kernel's expm1
    c = np.array([0.0012679746698940637, 0.5, 3.0])
    n = len(c)
    links = raopt.LinkView(ch=np.arange(n), uav=np.zeros(n, int), weight=np.ones(n), c=c,
                           coeff=np.ones(n), uavs=np.array([0]), seg=np.zeros(n, int))
    slope = links.link_slopes(np.ones(n))[0]
    assert slope.tolist() == [raopt.rb_term_derivative(float(ck), 1.0) for ck in c]
    assert np.array_equal(slope, raopt.rb_term_derivative(c, 1.0))


def test_objective_decreases_with_budget(rng):
    for _ in range(10):
        inst = random_instance(rng, max_rbs=6)
        richer = raopt.RaInstance(
            dwell=inst.dwell, gains=inst.gains, packet_bits=inst.packet_bits,
            rb_bandwidth=inst.rb_bandwidth, total_rbs=inst.total_rbs * 4,
            noise_psd=inst.noise_psd, beta=inst.beta, pmax=inst.pmax)
        assert raopt.solve_reduced(richer).objective <= raopt.solve_reduced(inst).objective


def test_round_symmetric_tie_prefers_lower_uav():
    gain = channel.path_gain(500.0, WAVELENGTH, 2.5)
    dwell = DwellMatrix(entries=np.array([[0.6, 0.0], [0.0, 0.6]]))
    inst = raopt.RaInstance(
        dwell=dwell, gains=np.full((2, 2), gain), packet_bits=100.0,
        rb_bandwidth=15e3, total_rbs=11, noise_psd=1e-20, beta=BETA, pmax=1.0)
    rounded = raopt.round_rbs(inst)
    assert np.array_equal(rounded.z, [6.0, 5.0])


def test_round_equals_brute_force_on_slack_and_binding_caps(rng):
    # marginal allocation from the whole-block cap floors is exact: it gives
    # the enumeration's allocation, binding caps included, and raises only
    # where no integer allocation meets the caps
    slack = [split_ch_instance()]
    slack += [random_instance(rng, max_uavs=4, max_rbs=16) for _ in range(200)]
    solved = {False: 0, True: 0}
    for base in slack:
        for capped, inst in ((False, base), (True, _binding_cap(base))):
            try:
                exact = raopt.brute_force(inst)
            except raopt.InfeasibleInstanceError:
                with pytest.raises(raopt.InfeasibleInstanceError):
                    raopt.round_rbs(inst)
                continue
            rounded = raopt.round_rbs(inst)
            assert np.array_equal(rounded.z, exact.z)
            assert rounded.objective == exact.objective
            solved[capped] += 1
    assert solved[False] == len(slack) and solved[True] >= 10


def test_round_raises_when_whole_block_floors_exceed_budget():
    # two symmetric links capped at their power at z = 2.5: the continuous
    # problem splits Z = 5 evenly, but 3 + 3 whole blocks do not fit
    gain = channel.path_gain(500.0, WAVELENGTH, 2.5)
    dwell = DwellMatrix(entries=np.array([[0.6, 0.0], [0.0, 0.6]]))
    slack = raopt.RaInstance(
        dwell=dwell, gains=np.full((2, 2), gain), packet_bits=100.0,
        rb_bandwidth=15e3, total_rbs=5, noise_psd=1e-20, beta=BETA, pmax=1.0)
    inst = dataclasses.replace(slack, pmax=slack.pair_power(0, 0, 2.5))
    np.testing.assert_allclose(raopt.solve_reduced(inst).z, [2.5, 2.5], rtol=1e-12)
    with pytest.raises(raopt.InfeasibleInstanceError):
        raopt.brute_force(inst)
    with pytest.raises(raopt.InfeasibleInstanceError) as exc:
        raopt.round_rbs(inst)
    assert exc.value.uav in (0, 1)
    # more serving UAVs than blocks, with slack caps
    crowded = raopt.RaInstance(
        dwell=DwellMatrix(entries=np.eye(3) * 0.6), gains=np.full((3, 3), gain),
        packet_bits=100.0, rb_bandwidth=15e3, total_rbs=2, noise_psd=1e-20,
        beta=BETA, pmax=1.0)
    with pytest.raises(raopt.InfeasibleInstanceError) as exc:
        raopt.round_rbs(crowded)
    assert exc.value.uav == 0


def test_brute_force_single_uav_matches_closed_form():
    inst = single_link_instance(total_rbs=6)
    sol = raopt.brute_force(inst)
    assert sol.z[0] == 6.0
    assert sol.objective == pytest.approx(2.408520e-6, rel=1e-4)


def test_brute_force_symmetric_even_budget():
    gain = channel.path_gain(500.0, WAVELENGTH, 2.5)
    dwell = DwellMatrix(entries=np.array([[0.6, 0.0], [0.0, 0.6]]))
    inst = raopt.RaInstance(
        dwell=dwell, gains=np.full((2, 2), gain), packet_bits=100.0,
        rb_bandwidth=15e3, total_rbs=10, noise_psd=1e-20, beta=BETA, pmax=1.0)
    sol = raopt.brute_force(inst)
    assert sorted(sol.z) == [5.0, 5.0]


def test_brute_force_size_guard():
    inst = single_link_instance(total_rbs=17)
    with pytest.raises(ValueError):
        raopt.brute_force(inst)


def test_relaxation_bound_and_rounding_gap(rng):
    instances = [random_instance(rng, max_uavs=3, max_chs=6, max_rbs=12) for _ in range(100)]
    for inst in [split_ch_instance(), *instances]:
        cont = raopt.solve_reduced(inst)
        exact = raopt.brute_force(inst)
        assert cont.objective <= exact.objective * (1 + 1e-9)
        rounded = raopt.round_rbs(inst)
        assert rounded.objective <= exact.objective * (1 + 1e-12)


def test_rb_term_derivative_matches_central_differences(rng):
    # extended-precision oracle; float64 differences lose the tiny-slope
    # corner (small c, large z) to cancellation
    for _ in range(200):
        c = np.longdouble(rng.uniform(0.05, 40.0))
        z = np.longdouble(rng.uniform(1.0, 64.0))
        h = np.longdouble(1e-6) * z
        f = lambda v: (np.longdouble(2.0) ** (c / v) - 1) * v
        numeric = float((f(z + h) - f(z - h)) / (2 * h))
        analytic = raopt.rb_term_derivative(float(c), float(z))
        assert analytic == pytest.approx(numeric, rel=1e-6)
        assert analytic < 0


def test_scalar_references_match_extended_precision(rng):
    # t = c/z log-uniform in [1e-4, 40]; against the expm1 forms in long
    # double, the 2**t forms lose up to ~1e-7 (marginal) and ~1e-12 (power)
    # to cancellation at small t
    ln2 = np.log(np.longdouble(2))
    worst_slope = worst_power = 0.0
    for t in np.exp(rng.uniform(np.log(1e-4), np.log(40.0), size=500)):
        z, dwell = rng.uniform(0.5, 64.0), rng.uniform(0.01, 1.0)
        bz, slot = 15e3, rng.uniform(0.5, 2.0)
        beta, gain, n0 = rng.uniform(0.05, 1.0), 10.0 ** rng.uniform(-14, -8), 1e-20
        c = t * z
        a = np.longdouble(c) / np.longdouble(z) * ln2
        ref = np.expm1(a) * (1 - a) - a
        worst_slope = max(worst_slope, abs(raopt.rb_term_derivative(c, z) / float(ref) - 1))
        bits = t * z * bz * dwell * slot
        a = (np.longdouble(bits) / (np.longdouble(z) * np.longdouble(bz) * np.longdouble(dwell)
                                    * np.longdouble(slot)) * ln2)
        ref = (np.longdouble(bz) * np.longdouble(n0) * np.expm1(a) * np.longdouble(z)
               / (np.longdouble(beta) * np.longdouble(gain)))
        power = channel.required_power(bits, z, bz, dwell, beta, gain, n0, slot)
        worst_power = max(worst_power, abs(power / float(ref) - 1))
    assert worst_slope <= 1e-9
    assert worst_power <= 1e-13


def test_rb_term_derivative_is_minus_inf_past_the_float_range():
    # |expm1(a) * (1 - a) - a| passes the largest float at a_max, where
    # a + log(a - 1) = log(DBL_MAX) (~703.2); past log(DBL_MAX) (~709.78)
    # expm1 itself overflows, and the function still returns -inf
    log_max = math.log(sys.float_info.max)
    a_max = log_max
    for _ in range(5):
        a_max = log_max - math.log(a_max - 1.0)
    ln2 = math.log(2.0)
    below = raopt.rb_term_derivative(a_max * (1 - 1e-9) / ln2, 1.0)
    assert math.isfinite(below) and below < 0
    assert raopt.rb_term_derivative(a_max * (1 + 1e-9) / ln2, 1.0) == -math.inf
    for a in (log_max * (1 + 1e-12), 1e4):
        with pytest.raises(OverflowError):
            math.expm1(a / ln2 * ln2)
        assert raopt.rb_term_derivative(a / ln2, 1.0) == -math.inf
    # element-wise over an array, with no overflow warning
    a = np.array([a_max * (1 - 1e-9), a_max * (1 + 1e-9), log_max * (1 + 1e-12), 1e4])
    assert raopt.rb_term_derivative(a / ln2, 1.0).tolist() == [below] + [-math.inf] * 3


@pytest.mark.parametrize("uavs", [1, 2, 3])
def test_no_served_chs_put_the_whole_budget_at_uav_0(uavs):
    # zero dwell everywhere: every route, continuous and integral, gives all
    # Z blocks to UAV 0 at zero power
    dwell = DwellMatrix(entries=np.zeros((uavs, 2)))
    inst = raopt.RaInstance(
        dwell=dwell, gains=np.full((2, uavs), 1e-12), packet_bits=100.0,
        rb_bandwidth=15e3, total_rbs=6, noise_psd=1e-20, beta=BETA, pmax=1.0)
    kkt_sol, point = raopt.solve_kkt(inst)
    reduced = raopt.solve_reduced(inst)
    for sol in (reduced, kkt_sol, raopt.round_rbs(inst), raopt.brute_force(inst)):
        assert sol.z.tolist() == [6.0] + [0.0] * (uavs - 1)
        assert np.all(sol.power == 0) and sol.objective == 0.0
    assert raopt.max_feasibility_violation(inst, point) <= 0


def test_instance_validation():
    dwell = DwellMatrix(entries=np.array([[0.5]]))
    with pytest.raises(ValueError):
        raopt.RaInstance(dwell=dwell, gains=np.array([[0.0]]), packet_bits=100.0,
                         rb_bandwidth=15e3, total_rbs=6, noise_psd=1e-20,
                         beta=BETA, pmax=1.0)
    with pytest.raises(ValueError):
        raopt.RaInstance(dwell=dwell, gains=np.ones((2, 2)), packet_bits=100.0,
                         rb_bandwidth=15e3, total_rbs=6, noise_psd=1e-20,
                         beta=BETA, pmax=1.0)
    # non-finite gains and scalars: NaN passes a plain `> 0` test, and an
    # inf would reach `solve_reduced` and come out as a NaN or zero
    # objective or as an InfeasibleInstanceError that blames the power cap
    valid = dict(dwell=dwell, gains=np.array([[1e-9]]), packet_bits=100.0, rb_bandwidth=15e3,
                 total_rbs=6, noise_psd=1e-20, beta=BETA, pmax=1.0)
    raopt.RaInstance(**valid)
    for name in ("gains", "packet_bits", "rb_bandwidth", "total_rbs", "noise_psd", "beta",
                 "pmax", "slot_s"):
        for bad in (np.nan, np.inf):
            value = np.array([[bad]]) if name == "gains" else bad
            with pytest.raises(ValueError, match=name):
                raopt.RaInstance(**{**valid, name: value})
    # a fractional budget is an error, not truncated: round_rbs would spend
    # 6 of 6.5 blocks and brute_force would raise TypeError
    for bad in (6.5, 6.0):
        with pytest.raises(ValueError, match="total_rbs must be a whole number"):
            raopt.RaInstance(**{**valid, "total_rbs": bad})
    whole = raopt.RaInstance(**{**valid, "total_rbs": np.int64(6)})
    assert raopt.brute_force(whole).z.tolist() == [6.0]


def test_solution_csv_layout():
    inst = single_link_instance(total_rbs=6)
    sol = raopt.brute_force(inst)
    buf = io.StringIO()
    raopt.write_solution_csv(sol, inst, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "uav_id,rbs"
    assert lines[1] == "0,6"
    assert lines[2] == "ch_id,uav_id,power_w"
    assert lines[-1].startswith("objective_w=")


def _binding_cap(slack):
    """`slack` with pmax at 0.999 x its uncapped optimum's peak link power."""
    return dataclasses.replace(slack, pmax=0.999 * float(raopt.solve_reduced(slack).power.max()))


def _feasible(inst):
    """Whether the cap floors of `inst` fit in its budget."""
    try:
        raopt._cap_floors(inst)
    except raopt.InfeasibleInstanceError:
        return False
    return True


def _cap_floor_fixtures(rng):
    """The split-CH instances, 30 random ones, and 10 feasible binding-cap
    instances made from random draws with at least two serving UAVs."""
    slacks = [split_ch_instance(), split_ch_instance(6),
              *(random_instance(rng) for _ in range(30))]
    capped = [_binding_cap(split_ch_instance(6))]
    while len(capped) < 11:
        slack = random_instance(rng)
        if len(slack.links.uavs) < 2:
            continue
        inst = _binding_cap(slack)
        if _feasible(inst):
            capped.append(inst)
    return slacks + capped


def _counted_power(monkeypatch):
    """Patch `LinkView.power` to record its calls; returns the list."""
    calls = []
    power = raopt.LinkView.power

    def counted(self, z):
        calls.append(z)
        return power(self, z)

    monkeypatch.setattr(raopt.LinkView, "power", counted)
    return calls


def test_cap_floors_read_few_powers(monkeypatch, rng):
    # Newton finds every capped crossing without the kernel: with the check
    # at Z and the capped test, 3 calls per instance when every Newton root
    # keeps its cap, and one more per doubling step up the doubles. The
    # feasible binding-cap variants of these draws, whose caps sit where
    # the power is nearly flat in z, take ~4 calls, against ~67 for the
    # bisection that located their floors before
    draws = [random_instance(rng) for _ in range(50)]
    binding = [inst for inst in map(_binding_cap, draws) if _feasible(inst)]
    calls = _counted_power(monkeypatch)
    capped = sum(bool(np.any(raopt._cap_floors(inst) > raopt.Z_MIN_ACTIVE)) for inst in draws)
    assert len(calls) / len(draws) <= 10 and capped >= 25
    calls.clear()
    for inst in binding:
        raopt._cap_floors(inst)
    assert len(calls) / len(binding) <= 6 and len(binding) >= 10


def _crossings_in_long_double(inst):
    """Per link, the exact z where its power meets pmax, bisected in
    np.longdouble on [Z_MIN_ACTIVE, Z] (Z_MIN_ACTIVE if within the cap there)."""
    links = inst.links
    c, coeff = links.c.astype(np.longdouble), links.coeff.astype(np.longdouble)
    ln2 = np.log(np.longdouble(2))
    lo = np.full(len(c), np.longdouble(raopt.Z_MIN_ACTIVE))
    hi = np.full(len(c), np.longdouble(inst.total_rbs))
    capped = coeff * np.expm1(ln2 * c / lo) * lo > inst.pmax
    for _ in range(100):
        mid = (lo + hi) / 2
        too_hot = coeff * np.expm1(ln2 * c / mid) * mid > inst.pmax
        lo = np.where(too_hot, mid, lo)
        hi = np.where(too_hot, hi, mid)
    return np.where(capped, hi, raopt.Z_MIN_ACTIVE)


def test_cap_floors_keep_the_cap_next_to_the_exact_crossing(rng):
    # every link's float power at its UAV's floor keeps the cap, and each
    # floor lies within 1e-12 relative of the exact crossing, also where
    # the float power wiggles across pmax for hundreds of doubles (binding
    # caps at small a = ln2 * c / z). The fixtures add a crosscheck-pool
    # plan whose float power is not monotone within the doubles next to
    # one crossing, and its binding-cap variant
    scenario = generate_scenario(1012411160, 5, 1, 10, RadioParams(total_rbs=12))
    plan = harness.run_pipeline(scenario, seed=1012411160).instance
    crossings = _crossings_in_long_double(plan).astype(float)
    window = (crossings.view(np.int64) + np.arange(-4, 5)[:, None]).view(np.float64)
    hot = plan.links.power(window) > plan.pmax
    assert np.any(np.count_nonzero(hot[1:] != hot[:-1], axis=0) > 1)
    capped_any = 0
    for inst in [*_cap_floor_fixtures(rng), plan, _binding_cap(plan)]:
        links = inst.links
        floors = raopt._cap_floors(inst)
        assert np.all(links.power(floors[links.seg]) <= inst.pmax)
        exact = np.full(len(links.uavs), np.longdouble(raopt.Z_MIN_ACTIVE))
        np.maximum.at(exact, links.seg, _crossings_in_long_double(inst))
        assert np.all(np.abs(floors - exact) <= 1e-12 * exact)
        capped_any += bool(np.any(floors > raopt.Z_MIN_ACTIVE))
    assert capped_any >= 10


def _levels(inst):
    links = inst.links
    floors = raopt._cap_floors(inst)
    z_full = np.full_like(floors, float(inst.total_rbs))
    return links, floors, z_full, -links.slopes(z_full)[0], -links.slopes(floors)[0]


def test_bracketed_z_at_level_matches_cold_start(rng):
    # z falls as the level rises, so the allocations at two levels bracket
    # the allocation at any level between them. Both solves stop at the
    # marginal's rounding noise: within 1e-10 where every link of the UAV
    # has t = c/z >= 0.05, and within 1e-9 where a small t makes the
    # marginal cancel (see test_link_kernels_match_scalar_reference)
    for inst in _cap_floor_fixtures(rng):
        links, floors, z_full, mu_full, mu_floor = _levels(inst)
        span = np.log([0.5 * mu_full.min(), 2.0 * mu_floor.max()])
        for _ in range(5):
            low, mid, high = np.sort(np.exp(rng.uniform(*span, size=3)))
            cold = [raopt._z_at_level(links, mu, floors, z_full, mu_full, mu_floor)[0]
                    for mu in (low, mid, high)]
            assert np.all(cold[2] <= cold[1]) and np.all(cold[1] <= cold[0])
            bracketed = raopt._z_at_level(links, mid, cold[2], cold[0], mu_full, mu_floor)[0]
            rel = np.abs(bracketed - cold[1]) / cold[1]
            t_min = np.full(len(links.uavs), np.inf)
            np.minimum.at(t_min, links.seg, links.c / cold[1][links.seg])
            assert np.all(rel[t_min >= 0.05] <= 1e-10)
            assert np.all(rel <= 1e-9)


def test_z_at_level_reaches_the_root(rng):
    # against the root of the marginal in extended precision, where every
    # link has t = c/z >= 0.05 and the float64 marginal stays accurate; a
    # Newton step that lands on its own bracket end is taken, not traded
    # for a jump to the bracket's geometric mean
    ln2 = np.log(np.longdouble(2))
    checked = 0
    for inst in [split_ch_instance(), *(random_instance(rng) for _ in range(30))]:
        links, floors, z_full, mu_full, mu_floor = _levels(inst)
        span = np.log([0.5 * mu_full.min(), 2.0 * mu_floor.max()])
        for mu in np.exp(rng.uniform(*span, size=5)):
            z = raopt._z_at_level(links, mu, floors, z_full, mu_full, mu_floor)[0]
            for i in np.flatnonzero((mu_full < mu) & (mu < mu_floor)):
                k = links.seg == i
                if np.min(links.c[k] / z[i]) < 0.05:
                    continue
                c = links.c[k].astype(np.longdouble)
                w_coeff = (links.weight * links.coeff)[k].astype(np.longdouble)
                lo, hi = np.longdouble(floors[i]), np.longdouble(z_full[i])
                for _ in range(100):
                    mid = (lo + hi) / 2
                    t = c / mid
                    if -np.sum(w_coeff * (2**t * (1 - t * ln2) - 1)) > mu:
                        lo = mid
                    else:
                        hi = mid
                assert z[i] == pytest.approx(float(lo), rel=1e-12)
                checked += 1
    assert checked >= 100


def test_reduced_matches_cold_start_bisection(rng):
    # reference: bisection to adjacent floats from the wide bracket [lowest
    # marginal at Z, lowest marginal at an even split of the spare blocks],
    # every level solved from the box [floors, Z]
    for inst in _cap_floor_fixtures(rng):
        links, floors, z_full, mu_full, mu_floor = _levels(inst)
        big_z = float(inst.total_rbs)
        lo = float(mu_full.min())
        hi = float(-links.slopes(floors + (big_z - floors.sum()) / len(floors))[0].min())
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if raopt._z_at_level(links, mid, floors, z_full, mu_full, mu_floor)[0].sum() > big_z:
                lo = mid
            else:
                hi = mid
        z = raopt._z_at_level(links, hi, floors, z_full, mu_full, mu_floor)[0]
        z[np.argmax(z)] += big_z - z.sum()
        expected = float(links.cost(z).sum())
        assert raopt.solve_reduced(inst).objective == pytest.approx(expected, rel=1e-12)


def _floors_fill_the_budget():
    """Two UAVs with one link each, of different dwell, capped at their
    power at z = 2.5 with Z = 5: the cap floors sum to Z up to rounding,
    at different marginals."""
    gain = channel.path_gain(500.0, WAVELENGTH, 2.5)
    dwell = DwellMatrix(entries=np.array([[0.6, 0.0], [0.0, 0.3]]))
    slack = raopt.RaInstance(
        dwell=dwell, gains=np.full((2, 2), gain), packet_bits=100.0,
        rb_bandwidth=15e3, total_rbs=5, noise_psd=1e-20, beta=BETA, pmax=1.0)
    p0, p1 = slack.pair_power(0, 0, 2.5), slack.pair_power(1, 1, 2.5)
    gains = np.full((2, 2), gain)
    gains[1, 1] *= p1 / p0
    return dataclasses.replace(slack, gains=gains, pmax=p0)


def test_equal_marginal_levels_bracket_the_shared_level(rng):
    # the equal-marginal start z0 spends the budget and z falls as the level
    # rises: at the lowest of the levels mu0 = -marginal(z0) every UAV takes
    # at least its z0, at the highest at most its z0, so the allocations
    # there over- and underspend Z; `solve_reduced` bisects between them
    tight = _floors_fill_the_budget()
    assert tight.cap_floors.sum() == pytest.approx(5.0, rel=1e-12)
    singles = [random_instance(rng, max_uavs=1) for _ in range(5)]
    for inst in [*_cap_floor_fixtures(rng), *singles, tight]:
        links, floors, z_full, mu_full, mu_floor = _levels(inst)
        big_z = float(inst.total_rbs)
        z0 = raopt._equal_marginal_start(inst)
        assert np.all(z0 >= floors) and z0.sum() == pytest.approx(big_z, rel=1e-12)
        mu0 = -links.slopes(z0)[0]
        over = raopt._z_at_level(links, mu0.min(), floors, z_full, mu_full, mu_floor)[0]
        under = raopt._z_at_level(links, mu0.max(), floors, z_full, mu_full, mu_floor)[0]
        assert np.all(over >= z0 * (1 - 1e-9)) and np.all(under <= z0 * (1 + 1e-9))
        assert over.sum() >= big_z * (1 - 1e-12) and under.sum() <= big_z * (1 + 1e-12)
    np.testing.assert_allclose(raopt.solve_reduced(tight).z, [2.5, 2.5], rtol=1e-12)


def test_reduced_level_search_reads_few_marginals(monkeypatch, rng):
    # the equal-marginal bracket is ~1e-3 of the level wide, the search
    # stops once the budget is spent to its rounding noise, and each level's
    # Newton solve starts at the Hermite prediction from the bracket's two
    # solved levels, where most levels need one pass: ~34 marginal passes per
    # solve on these draws (~1.06 per level), against ~56 from the upper
    # bracket end and ~100 from a bracket several times the level wide
    # bisected to adjacent floats. A prediction with the sign of its
    # derivative term or of the solved rate flipped still converges, but
    # takes ~1.17 passes per level. Stopping there still leaves every UAV's
    # marginal at the shared level, and the budget gap left goes to one UAV,
    # so the blocks sum to Z to rounding
    calls, per_level = [], []
    slopes = raopt.LinkView.slopes
    z_at_level = raopt._z_at_level

    def counted(self, z):
        calls.append(z)
        return slopes(self, z)

    def counted_level(*args):
        before = len(calls)
        result = z_at_level(*args)
        per_level.append(len(calls) - before)
        return result

    monkeypatch.setattr(raopt.LinkView, "slopes", counted)
    monkeypatch.setattr(raopt, "_z_at_level", counted_level)
    solves, spread, gap = 0, 0.0, 0.0
    while solves < 50:
        inst = random_instance(rng)
        if len(inst.links.uavs) >= 2:
            links = inst.links
            z = raopt.solve_reduced(inst).z
            level = -slopes(links, z[links.uavs])[0]
            spread = max(spread, (level.max() - level.min()) / level.min())
            gap = max(gap, abs(z.sum() - inst.total_rbs) / inst.total_rbs)
            solves += 1
    assert len(calls) / solves <= 40 and np.mean(per_level) <= 1.1
    assert spread <= 1e-11 and gap <= 1e-15


def test_kkt_warm_start_residual_is_order_one(rng):
    # the warm start's multipliers sit at the sizes of the rows they enter,
    # so LM starts from a scaled residual of O(1), not ~4e2 in the cap rows:
    # the budget multiplier at the median row size, every cap multiplier at
    # 1e-16, and the RB counts above the cap floors, spending the budget
    for inst in [split_ch_instance(), *(random_instance(rng) for _ in range(30))]:
        system = raopt.KktSystem(inst)
        assert np.abs(system.residual(system.start)).max() <= 1.0
        links = inst.links
        _, point = system.decode(system.start)
        assert point.lam_budget == system.sigma_mult
        assert np.all(np.abs(point.lam_pmax[links.ch, links.uav] - 1e-16) <= 1e-30)
        assert np.all(point.z[links.uavs] >= inst.cap_floors)
        assert point.z.sum() == pytest.approx(inst.total_rbs, abs=1e-12)


def test_kkt_start_and_end_keep_every_cap(rng):
    # z = floors + Z * et**2 holds every RB count at or above its UAV's cap
    # floor, at the start and wherever LM ends, on binding-cap instances
    # too; a link whose floor sets its UAV's may sit at pmax up to rounding
    for system, x in _kkt_iterates(_cap_floor_fixtures(rng)):
        inst, links = system.inst, system.links
        _, point = system.decode(x)
        assert np.all(point.z[links.uavs] >= inst.cap_floors)
        assert np.all(point.power[links.ch, links.uav] <= inst.pmax * (1 + 1e-12))


def test_kkt_residuals_reject_a_point_off_rb_stationarity():
    # one link at z = Z with tight delivery and its delivery multiplier at
    # its dwell: RB stationarity needs lam_budget = s, the size of the
    # delivery term. With lam_budget = s - 1 that row reads -1 and every
    # other row vanishes
    inst = single_link_instance()
    big_z = float(inst.total_rbs)
    point = _zeroed_point(inst, z_value=big_z)
    point.power[0, 0] = inst.pair_power(0, 0, big_z)
    point.lam_rate[0, 0] = inst.dwell.entries[0, 0]
    c, coeff = inst.links.c[0], inst.links.coeff[0]
    s = -point.lam_rate[0, 0] * coeff * raopt.rb_term_derivative(c, big_z)
    assert s > 0
    point.lam_budget = s - 1.0
    res = raopt.kkt_residuals(point, inst)
    _, _, _, stat_z, _, _ = _kkt_block_offsets(inst)
    assert res[stat_z] == pytest.approx(-1.0, rel=1e-12)
    assert np.all(np.delete(res, stat_z) == 0)


def test_convergence_error_names_the_failed_check():
    # a crosscheck-pool plan with a binding cap where LM stalls at a
    # stationary point of ||r||**2 that is no root
    scenario = generate_scenario(239858209, 5, 1, 10, RadioParams(total_rbs=6))
    inst = _binding_cap(harness.run_pipeline(scenario, seed=239858209).instance)
    with pytest.raises(raopt.SolverConvergenceError) as err:
        raopt.solve_kkt(inst)
    assert err.value.check == "scaled residual norm" and err.value.bound == 1e-10
    assert err.value.value > 1e-3
    assert f"scaled residual norm {err.value.value:.3e} > 1e-10" in str(err.value)


@pytest.mark.parametrize("seed,clusters,rbs", [
    (25605609, 5, 24), (455845046, 5, 24), (234752347, 5, 12),
    (903180690, 10, 6), (907713271, 9, 24), (1431454342, 9, 24), (0, 80, 24),
])
def test_kkt_converges_from_the_warm_start(monkeypatch, seed, clusters, rbs):
    # crosscheck-pool pipelines and one at paper scale: the warm start wins
    # in a few LM iterations, because the complementarity rows s**2 * g of
    # the slack constraints start below tolerance (at their double root
    # s = 0 LM only halves s per step) and LM stops once
    # `KktSystem.shortfall` finds no failed check. The final checks read
    # LM's last residual, so every residual evaluation is made inside LM
    scenario = generate_scenario(seed, clusters, 1, 10, RadioParams(total_rbs=rbs))
    inst = harness.run_pipeline(scenario, seed=seed).instance
    iterations, in_lm, residual_calls = [], [], []
    solve, residual = lma.solve, raopt.KktSystem.residual

    def counted(*args, **kwargs):
        in_lm.append(None)
        result = solve(*args, **kwargs)
        in_lm.pop()
        iterations.append(result.iterations)
        return result

    def counted_residual(self, x):
        residual_calls.append(bool(in_lm))
        return residual(self, x)

    monkeypatch.setattr(raopt.lma, "solve", counted)
    monkeypatch.setattr(raopt.KktSystem, "residual", counted_residual)
    sol, _ = raopt.solve_kkt(inst)
    assert len(iterations) == 1 and iterations[0] <= 5
    assert residual_calls and all(residual_calls)
    assert sol.objective == pytest.approx(raopt.solve_reduced(inst).objective, rel=1e-6)


def test_both_routes_share_one_cap_floor_bisection(monkeypatch):
    calls = []
    cap_floors = raopt._cap_floors

    def counted(inst):
        calls.append(inst)
        return cap_floors(inst)

    monkeypatch.setattr(raopt, "_cap_floors", counted)
    scenario = generate_scenario(903180690, 10, 1, 10, RadioParams(total_rbs=6))
    result = harness.run_pipeline(scenario, seed=903180690, solver="both")
    assert len(calls) == 1 and calls[0] is result.instance
    assert not result.instance.cap_floors.flags.writeable


def test_infeasible_floors_raise_from_both_routes_every_time():
    # every link meets its cap at Z, the hottest one only just, so its UAV's
    # floor takes the whole budget and the floors overflow it. The floors of
    # an infeasible instance are not cached: each route raises in turn. And
    # dataclasses.replace does not carry the slack instance's floors over
    slack = split_ch_instance(6)
    assert slack.cap_floors.sum() < 1.0
    links = slack.links
    at_z = links.power(np.full(len(links.ch), float(slack.total_rbs)))
    inst = dataclasses.replace(slack, pmax=float(at_z.max()) * (1 + 1e-9))
    for solve in (raopt.solve_reduced, raopt.solve_kkt, raopt.solve_reduced):
        with pytest.raises(raopt.InfeasibleInstanceError, match="more resource blocks"):
            solve(inst)
