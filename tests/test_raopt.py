import dataclasses
import io

import numpy as np
import pytest

from uavm2m import channel, harness, lma, raopt
from uavm2m.model import DwellMatrix, RadioParams, generate_scenario

from conftest import BETA, WAVELENGTH, random_instance, single_link_instance, split_ch_instance


def _kkt_block_offsets(inst):
    """Start offsets of the six residual blocks, in stacked order."""
    n_u = len(inst.active_uavs())
    n_p = len(inst.active_pairs())
    rb_cap = 0
    pmax = rb_cap + n_u
    budget = pmax + n_p
    stat_p = budget + 1
    stat_z = stat_p + n_p
    rate = stat_z + n_u
    return rb_cap, pmax, budget, stat_p, stat_z, rate, rate + n_p


def _zeroed_point(inst, z_value):
    z = np.zeros(inst.num_uavs)
    for u in inst.active_uavs():
        z[u] = z_value
    return raopt.KktPoint(
        z=z,
        power=np.zeros((inst.num_chs, inst.num_uavs)),
        lam_rb_cap=np.zeros(inst.num_uavs),
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
        _, _, _, stat_p, stat_z, rate, end = _kkt_block_offsets(inst)
        d = inst.dwell.entries
        for k, (g, u) in enumerate(inst.active_pairs()):
            assert res[stat_p + k] == pytest.approx(d[u, g], rel=1e-12)
        # every product block vanishes with zero multipliers
        assert np.all(res[:stat_p] == 0)
        assert np.all(res[stat_z:stat_z + len(inst.active_uavs())] == 0)
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
        z_total = sum(point.z[u] for u in inst.active_uavs())
        assert abs(point.lam_budget * (z_total - inst.total_rbs)) < 1e-8
        for u in inst.active_uavs():
            assert abs(point.lam_rb_cap[u] * (point.z[u] - inst.total_rbs)) < 1e-8
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


def _kkt_iterates(rng):
    """(system, x) at every start of `solve_kkt` and at the final LM iterate
    from it, on the split-CH instance and 30 random ones."""
    for inst in [split_ch_instance(), *(random_instance(rng) for _ in range(30))]:
        for start in raopt._kkt_starts(inst):
            system = raopt.KktSystem(inst, start)
            x0 = system.encode(start)
            yield system, x0
            yield system, lma.solve(system.residual, x0, jacobian=system.jacobian).solution


def test_kkt_jacobian_matches_central_differences(rng):
    # a relative step of 1e-5 keeps both the truncation error and the
    # rounding noise of the near-cancelling delivery rows below 1e-5 of the
    # largest entry
    for system, x in _kkt_iterates(rng):
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
    # under the 1 W cap), so a reordered sum moves a row by a few 1e-16
    for system, x in _kkt_iterates(rng):
        point = system.decode(x)
        np.testing.assert_allclose(system.residual(x) * system.row_scale,
                                   raopt.kkt_residuals(point, system.inst),
                                   rtol=1e-9, atol=1e-14)


def test_reduced_solves_instances_with_binding_caps(rng):
    # pmax just below the uncapped optimum's peak link power: the even split
    # Z/n can break the cap while an uneven split still keeps it. The KKT
    # route must never call such an instance infeasible; it may still fail
    # to converge on it
    slacks = [split_ch_instance(6)]
    while len(slacks) < 41:
        slack = random_instance(rng)
        if len(slack.active_uavs()) >= 2:
            slacks.append(slack)
    solved = binding = 0
    for slack in slacks:
        uncapped = raopt.solve_reduced(slack)
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
    assert solved > 0 and binding > 0


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
    # 2**t - 1 and the marginal's 2**t * (1 - t ln2) - 1 cancel for small
    # t = c/z, so the scalar references lose digits there (a 1-ulp change of
    # 2**t moves the marginal by ~4e-16 / (t ln2)**2 relative); z is drawn so
    # that every link has t >= 0.05, where both stay accurate to 1e-12
    for inst in [split_ch_instance(), *(random_instance(rng) for _ in range(30))]:
        links = inst.links
        d = inst.dwell.entries
        assert list(zip(links.ch, links.uav)) == [
            (g, u) for g in range(inst.num_chs) for u in range(inst.num_uavs) if d[u, g] > 0]
        c_min = np.array([links.c[links.seg == i].min() for i in range(len(links.uavs))])
        z = c_min / rng.uniform(0.05, 3.0, size=len(links.uavs))
        power = links.power(z[links.seg])
        ref_cost = np.zeros(len(links.uavs))
        ref_marginal = np.zeros(len(links.uavs))
        for k, (g, u) in enumerate(zip(links.ch, links.uav)):
            i = links.uavs.tolist().index(u)
            ref = channel.required_power(inst.packet_bits, z[i], inst.rb_bandwidth, d[u, g],
                                         inst.beta, inst.gains[g, u], inst.noise_psd)
            assert power[k] == pytest.approx(ref, rel=1e-12)
            ref_cost[i] += d[u, g] * ref
            c = inst.packet_bits / (inst.rb_bandwidth * d[u, g])
            coeff = inst.rb_bandwidth * inst.noise_psd / (inst.beta * inst.gains[g, u])
            ref_marginal[i] += d[u, g] * coeff * raopt.rb_term_derivative(c, z[i])
        np.testing.assert_allclose(links.cost(z), ref_cost, rtol=1e-12)
        marginal, curvature = links.slopes(z)
        np.testing.assert_allclose(marginal, ref_marginal, rtol=1e-12)
        # curvature against central differences of the marginal, computed in
        # extended precision as in the rb_term_derivative test
        c = links.c.astype(np.longdouble)
        w_coeff = (links.weight * links.coeff).astype(np.longdouble)

        def marginal_ld(zz):
            t = c / zz[links.seg]
            per_link = w_coeff * (2 ** t * (1 - t * np.log(np.longdouble(2))) - 1)
            return np.array([per_link[links.seg == i].sum() for i in range(len(z))])

        h = np.longdouble(1e-6) * z.astype(np.longdouble)
        numeric = (marginal_ld(z + h) - marginal_ld(z - h)) / (2 * h)
        np.testing.assert_allclose(curvature, numeric.astype(float), rtol=1e-6)


def test_slopes_match_the_former_kernels(rng):
    # the marginal and curvature expressions as they stood when each had its
    # own pass over the links; the one-pass kernel keeps their operation
    # order, so it must agree bit for bit
    def marginal(links, z):
        t = links.c / z[links.seg]
        return links.per_uav(links.weight * links.coeff * (2.0**t * (1.0 - t * np.log(2.0)) - 1.0))

    def curvature(links, z):
        z_link = z[links.seg]
        t = links.c / z_link
        return links.per_uav(links.weight * links.coeff * 2.0**t * (t * np.log(2.0)) ** 2 / z_link)

    for inst in [split_ch_instance(), *(random_instance(rng) for _ in range(30))]:
        links = inst.links
        floors = raopt._cap_floors(inst)
        big_z = float(inst.total_rbs)
        for z in (floors, np.full_like(floors, big_z),
                  *(rng.uniform(floors, big_z) for _ in range(5))):
            slope, bend = links.slopes(z)
            assert np.array_equal(slope, marginal(links, z))
            assert np.array_equal(bend, curvature(links, z))


def test_objective_decreases_with_budget(rng):
    for _ in range(10):
        inst = random_instance(rng, max_rbs=6)
        richer = raopt.RaInstance(
            dwell=inst.dwell, gains=inst.gains, packet_bits=inst.packet_bits,
            rb_bandwidth=inst.rb_bandwidth, total_rbs=inst.total_rbs * 4,
            noise_psd=inst.noise_psd, beta=inst.beta, pmax=inst.pmax)
        assert raopt.solve_reduced(richer).objective <= raopt.solve_reduced(inst).objective


def test_round_keeps_integral_solution():
    dwell = DwellMatrix(entries=np.array([[0.6, 0.0], [0.0, 0.6]]))
    gain = channel.path_gain(500.0, WAVELENGTH, 2.5)
    inst = raopt.RaInstance(
        dwell=dwell, gains=np.full((2, 2), gain), packet_bits=100.0,
        rb_bandwidth=15e3, total_rbs=12, noise_psd=1e-20, beta=BETA, pmax=1.0)
    cont = raopt.RaSolution(z=np.array([3.0, 9.0]),
                            power=raopt._powers_for(inst, np.array([3.0, 9.0])),
                            objective=0.0)
    rounded = raopt.round_rbs(cont, inst)
    assert np.array_equal(rounded.z, [3.0, 9.0])


def test_round_picks_cheaper_neighbor():
    gain = channel.path_gain(500.0, WAVELENGTH, 2.5)
    for d0, d1 in [(0.6, 0.6), (0.9, 0.2), (0.2, 0.9)]:
        dwell = DwellMatrix(entries=np.array([[d0, 0.0], [0.0, d1]]))
        inst = raopt.RaInstance(
            dwell=dwell, gains=np.full((2, 2), gain), packet_bits=100.0,
            rb_bandwidth=15e3, total_rbs=12, noise_psd=1e-20, beta=BETA, pmax=1.0)
        cont = raopt.RaSolution(z=np.array([3.5, 8.5]),
                                power=raopt._powers_for(inst, np.array([3.5, 8.5])),
                                objective=0.0)
        rounded = raopt.round_rbs(cont, inst)
        cand = {}
        for z_try in ([4.0, 8.0], [3.0, 9.0]):
            p = raopt._powers_for(inst, np.array(z_try))
            cand[tuple(z_try)] = raopt.objective_value(inst, p)
        best = min(sorted(cand), key=lambda k: cand[k])
        assert tuple(rounded.z) == best
        assert rounded.objective == pytest.approx(cand[best], rel=1e-12)


def test_round_symmetric_tie_prefers_lower_uav():
    gain = channel.path_gain(500.0, WAVELENGTH, 2.5)
    dwell = DwellMatrix(entries=np.array([[0.6, 0.0], [0.0, 0.6]]))
    inst = raopt.RaInstance(
        dwell=dwell, gains=np.full((2, 2), gain), packet_bits=100.0,
        rb_bandwidth=15e3, total_rbs=11, noise_psd=1e-20, beta=BETA, pmax=1.0)
    cont = raopt.RaSolution(z=np.array([5.5, 5.5]),
                            power=raopt._powers_for(inst, np.array([5.5, 5.5])),
                            objective=0.0)
    rounded = raopt.round_rbs(cont, inst)
    assert np.array_equal(rounded.z, [6.0, 5.0])


def test_round_respects_budget_with_fractional_counts(rng):
    for _ in range(20):
        inst = random_instance(rng, max_uavs=3, max_rbs=8)
        cont = raopt.solve_reduced(inst)
        if len(inst.active_uavs()) > inst.total_rbs:
            continue
        rounded = raopt.round_rbs(cont, inst)
        assert rounded.z.sum() <= inst.total_rbs + 1e-12
        active = inst.active_uavs()
        assert all(rounded.z[u] >= 1 for u in active)
        assert rounded.objective >= cont.objective - 1e-12 * abs(cont.objective)


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
        rounded = raopt.round_rbs(cont, inst)
        assert rounded.objective <= exact.objective * 1.05


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


def test_no_served_chs_degenerates_to_even_split():
    dwell = DwellMatrix(entries=np.zeros((1, 2)))
    inst = raopt.RaInstance(
        dwell=dwell, gains=np.full((2, 1), 1e-12), packet_bits=100.0,
        rb_bandwidth=15e3, total_rbs=6, noise_psd=1e-20, beta=BETA, pmax=1.0)
    sol, point = raopt.solve_kkt(inst)
    assert sol.z[0] == 6.0 and sol.objective == 0.0
    assert raopt.solve_reduced(inst).objective == 0.0


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


def _cap_floor_fixtures(rng):
    """The split-CH instances, 30 random ones, and 10 feasible binding-cap
    instances made from random draws with at least two serving UAVs."""
    slacks = [split_ch_instance(), split_ch_instance(6),
              *(random_instance(rng) for _ in range(30))]
    capped = [_binding_cap(split_ch_instance(6))]
    while len(capped) < 11:
        slack = random_instance(rng)
        if len(slack.active_uavs()) < 2:
            continue
        inst = _binding_cap(slack)
        try:
            raopt._cap_floors(inst)
        except raopt.InfeasibleInstanceError:
            continue
        capped.append(inst)
    return slacks + capped


def test_cap_floors_match_fixed_level_bisection(rng):
    # the reference bisects every link for a fixed 80 levels, more than any
    # bracket in [Z_MIN_ACTIVE, Z] needs to reach adjacent floats
    capped_any = 0
    for inst in _cap_floor_fixtures(rng):
        links = inst.links
        lo = np.full(len(links.ch), raopt.Z_MIN_ACTIVE)
        hi = np.full(len(links.ch), float(inst.total_rbs))
        capped = links.power(lo) > inst.pmax
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            too_hot = links.power(mid) > inst.pmax
            lo = np.where(too_hot, mid, lo)
            hi = np.where(too_hot, hi, mid)
        expected = np.full(len(links.uavs), raopt.Z_MIN_ACTIVE)
        np.maximum.at(expected, links.seg, np.where(capped, hi, raopt.Z_MIN_ACTIVE))
        floors = raopt._cap_floors(inst)
        assert np.array_equal(floors, expected)
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
            cold = [raopt._z_at_level(links, mu, floors, z_full, mu_full, mu_floor)
                    for mu in (low, mid, high)]
            assert np.all(cold[2] <= cold[1]) and np.all(cold[1] <= cold[0])
            bracketed = raopt._z_at_level(links, mid, cold[2], cold[0], mu_full, mu_floor)
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
            z = raopt._z_at_level(links, mu, floors, z_full, mu_full, mu_floor)
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
    # reference: the same bisection with every level solved from the box
    # [floors, Z], as before levels bracketed each other
    for inst in _cap_floor_fixtures(rng):
        links, floors, z_full, mu_full, mu_floor = _levels(inst)
        big_z = float(inst.total_rbs)
        lo = float(mu_full.min())
        hi = float(-links.slopes(floors + (big_z - floors.sum()) / len(floors))[0].min())
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if raopt._z_at_level(links, mid, floors, z_full, mu_full, mu_floor).sum() > big_z:
                lo = mid
            else:
                hi = mid
        z = raopt._z_at_level(links, hi, floors, z_full, mu_full, mu_floor)
        z[np.argmax(z)] += big_z - z.sum()
        expected = float(links.cost(z).sum())
        assert raopt.solve_reduced(inst).objective == pytest.approx(expected, rel=1e-12)


def test_kkt_warm_start_residual_is_order_one(rng):
    # the warm start's multipliers sit at the sizes of the rows they enter,
    # so LM starts from a scaled residual of O(1), not ~4e2 in the cap rows
    for inst in [split_ch_instance(), *(random_instance(rng) for _ in range(30))]:
        start = next(raopt._kkt_starts(inst))
        system = raopt.KktSystem(inst, start)
        assert np.abs(system.residual(system.encode(start))).max() <= 1.0


def test_kkt_starts_are_the_warm_and_even_shares(rng):
    # two starts, each at or above every UAV's cap floor, so both keep every
    # link's power cap, on binding-cap instances too; the second is the
    # even share of the blocks the floors leave over
    for inst in _cap_floor_fixtures(rng):
        links = inst.links
        floors = raopt._cap_floors(inst)
        starts = list(raopt._kkt_starts(inst))
        assert len(starts) == 2
        for start in starts:
            assert np.all(start.z[links.uavs] >= floors)
            assert np.all(start.power[links.ch, links.uav] <= inst.pmax)
        even = floors + (inst.total_rbs - floors.sum()) / len(floors)
        np.testing.assert_array_equal(starts[1].z[links.uavs], even)


@pytest.mark.xfail(strict=True, reason="RB stationarity prices z_u <= Z with -lam_rb_cap; "
                                       "the Lagrangian of that constraint gives +lam_rb_cap")
def test_rb_cap_multiplier_enters_rb_stationarity_with_a_plus_sign():
    # one link at z = Z with both the RB cap and the budget active: RB
    # stationarity needs lam_budget + lam_rb_cap = s, where s is the size of
    # the delivery term. lam_rb_cap = 1 and lam_budget = 1 + s break it by 2,
    # but with the cap multiplier's sign flipped the row reads zero
    inst = single_link_instance()
    big_z = float(inst.total_rbs)
    point = _zeroed_point(inst, z_value=big_z)
    point.power[0, 0] = inst.pair_power(0, 0, big_z)
    point.lam_rate[0, 0] = inst.dwell.entries[0, 0]
    c, coeff = inst.pair_constants(0, 0)
    s = -point.lam_rate[0, 0] * coeff * raopt.rb_term_derivative(c, big_z)
    point.lam_rb_cap[0] = 1.0
    point.lam_budget = 1.0 + s
    _, _, _, _, stat_z, _, _ = _kkt_block_offsets(inst)
    assert abs(raopt.kkt_residuals(point, inst)[stat_z]) >= 1.0
    system = raopt.KktSystem(inst, point)
    scaled = system.residual(system.encode(point)) * system.row_scale
    assert abs(scaled[stat_z]) >= 1.0


@pytest.mark.parametrize("seed,clusters,rbs", [
    (25605609, 5, 24), (455845046, 5, 24), (234752347, 5, 12),
    (903180690, 10, 6), (907713271, 9, 24), (1431454342, 9, 24),
])
def test_kkt_converges_from_the_warm_start(monkeypatch, seed, clusters, rbs):
    # crosscheck-pool pipelines: the warm start wins in a few LM iterations
    # (~22 when its cap multipliers started at an absolute 1e-6; on the last
    # instance it ran out of iterations and a later start won)
    scenario = generate_scenario(seed, clusters, 1, 10, RadioParams(total_rbs=rbs))
    inst = harness.run_pipeline(scenario, seed=seed).instance
    iterations = []
    solve = lma.solve

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(raopt.lma, "solve", counted)
    sol, _ = raopt.solve_kkt(inst)
    assert len(iterations) == 1 and iterations[0] <= 16
    assert sol.objective == pytest.approx(raopt.solve_reduced(inst).objective, rel=1e-6)
