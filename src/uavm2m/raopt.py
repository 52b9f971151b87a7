"""Joint RB-allocation and power-control optimizer.

Given a fixed dwell plan and per-link gains, choose how many resource blocks
each UAV gets (z_u, continuous here, integers after `round_rbs`) and the
transmit power of every served CH so that each CH can deliver its packet
within its dwell time, minimizing the dwell-weighted total power

    objective = sum_g sum_u dwell[u, g] * power[g, u].

Three independent routes are provided and cross-checked against each other:

* `solve_kkt`   - assembles the first-order optimality system of the relaxed
  convex program (power-delivery constraints tight, multipliers nonnegative)
  and solves it as a nonlinear root-finding problem with Levenberg-Marquardt.
* `solve_reduced` - eliminates powers through the tight delivery constraint
  and minimizes the remaining separable convex function of z by bisecting on
  the shared multiplier that equalizes per-UAV marginal costs, solving for
  every UAV's RB count at once with a bracketed Newton iteration.
* `brute_force` - exact enumeration over integer allocations (small sizes).

The reduced route, rounding and the oracle share `RaInstance.links`, one
array view of the served links (`LinkView`); the KKT route keeps its own
per-link arithmetic so that the two routes stay independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channel, lma
from .model import DwellMatrix

# lower bound on RB counts of serving UAVs in the continuous problem; keeps
# the 2**(c/z) delivery term finite
Z_MIN_ACTIVE = 1e-3

_LN2 = math.log(2.0)


class InfeasibleInstanceError(RuntimeError):
    """No allocation can satisfy the power cap; names the violating link."""

    def __init__(self, message: str, ch: int | None = None, uav: int | None = None):
        super().__init__(message)
        self.ch = ch
        self.uav = uav


class SolverConvergenceError(RuntimeError):
    """The root-finder failed to reach the residual tolerance."""

    def __init__(self, message: str, residual_norm: float):
        super().__init__(message)
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class LinkView:
    """The served links of an instance as read-only parallel arrays.

    Link k joins CH `ch[k]` to UAV `uav[k]` (ch-major order); `seg[k]` is
    the position of that UAV in `uavs`, the serving UAVs in ascending order.
    At z resource blocks the link needs coeff[k] * (2**(c[k]/z) - 1) * z
    watts, which enters the objective with weight `weight[k]`, its dwell.
    The per-UAV kernels take one RB count per serving UAV, in `uavs` order.
    """

    ch: np.ndarray
    uav: np.ndarray
    weight: np.ndarray
    c: np.ndarray
    coeff: np.ndarray
    uavs: np.ndarray
    seg: np.ndarray

    @staticmethod
    def build(inst: RaInstance) -> LinkView:
        d = inst.dwell.entries
        ch, uav = np.nonzero(d.T > 0)
        weight = d[uav, ch]
        uavs = np.flatnonzero(np.any(d > 0, axis=1))
        view = LinkView(
            ch=ch, uav=uav, weight=weight,
            c=inst.packet_bits / (inst.rb_bandwidth * weight * inst.slot_s),
            coeff=inst.rb_bandwidth * inst.noise_psd / (inst.beta * inst.gains[ch, uav]),
            uavs=uavs, seg=np.searchsorted(uavs, uav),
        )
        for arr in vars(view).values():
            arr.setflags(write=False)
        return view

    def power(self, z_link: np.ndarray) -> np.ndarray:
        """Required power of each link at its RB count z_link[..., k]."""
        return self.coeff * (2.0 ** (self.c / z_link) - 1.0) * z_link

    def cost(self, z: np.ndarray) -> np.ndarray:
        """Per serving UAV: dwell-weighted power of its links."""
        return self._per_uav(self.weight * self.power(z[self.seg]))

    def marginal(self, z: np.ndarray) -> np.ndarray:
        """Per serving UAV: d cost / dz, negative and increasing in z."""
        t = self.c / z[self.seg]
        return self._per_uav(self.weight * self.coeff * (2.0**t * (1.0 - t * _LN2) - 1.0))

    def curvature(self, z: np.ndarray) -> np.ndarray:
        """Per serving UAV: d2 cost / dz2, positive."""
        z_link = z[self.seg]
        t = self.c / z_link
        return self._per_uav(self.weight * self.coeff * 2.0**t * (t * _LN2) ** 2 / z_link)

    def _per_uav(self, per_link: np.ndarray) -> np.ndarray:
        return np.bincount(self.seg, weights=per_link, minlength=len(self.uavs))


@dataclass(frozen=True)
class RaInstance:
    """One allocation problem: dwell plan, link gains, and radio constants."""

    dwell: DwellMatrix        # U x G dwell fractions
    gains: np.ndarray         # G x U channel gains, all > 0
    packet_bits: float
    rb_bandwidth: float
    total_rbs: int
    noise_psd: float
    beta: float
    pmax: float
    slot_s: float = 1.0
    links: LinkView = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        if gains.shape != (self.dwell.num_clusters, self.dwell.num_uavs):
            raise ValueError(
                f"gains shape {gains.shape} does not match dwell "
                f"({self.dwell.num_uavs} UAVs x {self.dwell.num_clusters} CHs)"
            )
        if np.any(gains <= 0):
            raise ValueError("all link gains must be > 0")
        if self.total_rbs < 1:
            raise ValueError(f"total_rbs must be >= 1, got {self.total_rbs}")
        for name in ("packet_bits", "rb_bandwidth", "noise_psd", "beta", "pmax", "slot_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        gains.setflags(write=False)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "links", LinkView.build(self))

    @property
    def num_uavs(self) -> int:
        return self.dwell.num_uavs

    @property
    def num_chs(self) -> int:
        return self.dwell.num_clusters

    def active_pairs(self) -> list[tuple[int, int]]:
        """(ch, uav) links with positive dwell, ch-major order."""
        return list(zip(self.links.ch.tolist(), self.links.uav.tolist()))

    def active_uavs(self) -> list[int]:
        return self.links.uavs.tolist()

    def served_chs(self) -> list[int]:
        return sorted(set(self.links.ch.tolist()))

    def pair_constants(self, g: int, u: int) -> tuple[float, float]:
        """(c, coeff) with required power = coeff * (2**(c/z) - 1) * z."""
        k = np.flatnonzero((self.links.ch == g) & (self.links.uav == u))[0]
        return float(self.links.c[k]), float(self.links.coeff[k])

    def pair_power(self, g: int, u: int, z: float) -> float:
        """Minimum power for link (g, u) at z resource blocks."""
        return channel.required_power(
            self.packet_bits, z, self.rb_bandwidth, self.dwell.entries[u, g],
            self.beta, self.gains[g, u], self.noise_psd, self.slot_s,
        )


@dataclass(frozen=True)
class RaSolution:
    z: np.ndarray        # per-UAV RB counts (0 for UAVs that serve nothing)
    power: np.ndarray    # G x U transmit powers in W (0 where dwell is 0)
    objective: float     # dwell-weighted total power in W
    integral: bool = False


@dataclass
class KktPoint:
    """Primal allocation plus the multipliers of the optimality system.

    Multiplier names follow the constraint they price: `lam_rb_cap[u]` for
    z_u <= Z, `lam_pmax[g]` for the CH power cap, `lam_budget` for
    sum_u z_u <= Z, and `lam_rate[g, u]` for the packet-delivery constraint.
    """

    z: np.ndarray
    power: np.ndarray
    lam_rb_cap: np.ndarray
    lam_pmax: np.ndarray
    lam_budget: float
    lam_rate: np.ndarray
    residuals: np.ndarray | None = None
    accepted_costs: list[float] | None = None  # ||r||^2 history of the winning solve


def rb_term_derivative(c: float, z: float) -> float:
    """d/dz of (2**(c/z) - 1) * z, the RB-count sensitivity of required power
    up to the per-link coefficient. Strictly negative for c > 0."""
    t = c / z
    if t > 1024.0:  # 2**t overflows; the factor (1 - t ln2) is negative there
        return -math.inf
    e = 2.0**t
    return e * (1.0 - t * _LN2) - 1.0


def objective_value(inst: RaInstance, power: np.ndarray) -> float:
    """Dwell-weighted total power sum_g sum_u d[u,g] * P[g,u]."""
    return float(np.sum(inst.dwell.entries.T * power))


@np.errstate(over="ignore")
def _powers_for(inst: RaInstance, z: np.ndarray) -> np.ndarray:
    """Tight delivery powers at allocation z (0 where no dwell)."""
    links = inst.links
    power = np.zeros((inst.num_chs, inst.num_uavs))
    power[links.ch, links.uav] = links.power(np.asarray(z, dtype=float)[links.uav])
    return power


# ---------------------------------------------------------------------------
# optimality system
# ---------------------------------------------------------------------------

def kkt_residuals(point: KktPoint, inst: RaInstance) -> np.ndarray:
    """Residual vector of the first-order optimality system.

    Stacked in this order (`n_u` serving UAVs, `n_g` served CHs, `n_p`
    served links in ch-major order):

      1. per serving UAV: lam_rb_cap * (z_u - Z)                     [n_u]
      2. per served CH:   lam_pmax * (max_u P_gu - pmax)             [n_g]
      3. shared budget:   lam_budget * (sum_u z_u - Z)               [1]
      4. per link: power stationarity
         total_dwell_g + lam_pmax_g - lam_rate_gu                    [n_p]
      5. per serving UAV: RB stationarity
         -lam_rb_cap + lam_budget
         + sum_g lam_rate_gu * coeff_gu * rb_term_derivative(c, z_u) [n_u]
      6. per link: lam_rate_gu * (required_power_gu(z_u) - P_gu)     [n_p]

    All entries are zero exactly at an optimal point of the relaxed program.
    """
    pairs = inst.active_pairs()
    uavs = inst.active_uavs()
    chs = inst.served_chs()
    z = np.asarray(point.z, dtype=float)
    power = np.asarray(point.power, dtype=float)
    if z.shape != (inst.num_uavs,) or power.shape != (inst.num_chs, inst.num_uavs):
        raise ValueError("point dimensions do not match instance")
    for u in uavs:
        if z[u] <= 0:
            raise ValueError(f"z[{u}] <= 0 makes the delivery term singular")

    big_z = float(inst.total_rbs)
    total_dwell = inst.dwell.total_per_ch()
    res: list[float] = []
    for u in uavs:
        res.append(point.lam_rb_cap[u] * (z[u] - big_z))
    for g in chs:
        p_g = max(power[g, uu] for gg, uu in pairs if gg == g)
        res.append(point.lam_pmax[g] * (p_g - inst.pmax))
    res.append(point.lam_budget * (sum(z[u] for u in uavs) - big_z))
    for g, u in pairs:
        res.append(total_dwell[g] + point.lam_pmax[g] - point.lam_rate[g, u])
    for u in uavs:
        acc = -point.lam_rb_cap[u] + point.lam_budget
        for g, uu in pairs:
            if uu == u:
                c, coeff = inst.pair_constants(g, u)
                acc += point.lam_rate[g, u] * coeff * rb_term_derivative(c, float(z[u]))
        res.append(acc)
    for g, u in pairs:
        res.append(point.lam_rate[g, u] * (inst.pair_power(g, u, float(z[u])) - power[g, u]))
    return np.array(res)


def max_feasibility_violation(inst: RaInstance, point: KktPoint) -> float:
    """Largest violation of the primal/dual feasibility conditions: tight
    delivery, 0 < z_u <= Z, 0 < P <= pmax, sum z <= Z, multipliers >= 0."""
    pairs = inst.active_pairs()
    uavs = inst.active_uavs()
    worst = 0.0
    for g, u in pairs:
        worst = max(worst, inst.pair_power(g, u, float(point.z[u])) - point.power[g, u])
        worst = max(worst, point.power[g, u] - inst.pmax)
        worst = max(worst, -point.power[g, u])
        worst = max(worst, -point.lam_rate[g, u])
    for u in uavs:
        worst = max(worst, point.z[u] - inst.total_rbs)
        worst = max(worst, -point.z[u])
        worst = max(worst, -point.lam_rb_cap[u])
    for g in inst.served_chs():
        worst = max(worst, -point.lam_pmax[g])
    worst = max(worst, sum(float(point.z[u]) for u in uavs) - inst.total_rbs)
    worst = max(worst, -point.lam_budget)
    return float(worst)


def _trivial_solution(inst: RaInstance) -> tuple[RaSolution, KktPoint]:
    # nothing to serve: split the budget evenly, no power spent
    z = np.full(inst.num_uavs, inst.total_rbs / inst.num_uavs)
    power = np.zeros((inst.num_chs, inst.num_uavs))
    point = KktPoint(
        z=z, power=power,
        lam_rb_cap=np.zeros(inst.num_uavs), lam_pmax=np.zeros(inst.num_chs),
        lam_budget=0.0, lam_rate=np.zeros((inst.num_chs, inst.num_uavs)),
        residuals=np.zeros(0),
    )
    return RaSolution(z=z, power=power, objective=0.0), point


def _check_start_feasible(inst: RaInstance) -> float:
    """Raise unless every served link fits under pmax at the even split
    z = Z / (number of serving UAVs); returns the largest such power."""
    uavs = inst.active_uavs()
    z0 = inst.total_rbs / len(uavs)
    p_scale = 0.0
    for g, u in inst.active_pairs():
        try:
            p = inst.pair_power(g, u, z0)
        except OverflowError:
            p = math.inf
        p_scale = max(p_scale, p)
        if p > inst.pmax:
            raise InfeasibleInstanceError(
                f"link (ch={g}, uav={u}) needs {p:.6g} W at z={z0:.6g}, "
                f"above the {inst.pmax:.6g} W cap", ch=g, uav=u,
            )
    return p_scale


def solve_kkt(
    inst: RaInstance,
    init: KktPoint | None = None,
    config: lma.LmaConfig | None = None,
) -> tuple[RaSolution, KktPoint]:
    """Solve the optimality system by Levenberg-Marquardt root finding.

    Multipliers are parameterized as squares so iterates stay sign-feasible;
    internally rows and variables are rescaled to comparable magnitudes
    (which leaves the roots unchanged). The returned point satisfies
    ||kkt_residuals|| <= 1e-8 and feasibility within 1e-9, else a
    SolverConvergenceError reports the best residual norm reached.
    """
    pairs = inst.active_pairs()
    if not pairs:
        return _trivial_solution(inst)
    uavs = inst.active_uavs()
    chs = inst.served_chs()
    n_u, n_g, n_p = len(uavs), len(chs), len(pairs)
    big_z = float(inst.total_rbs)
    total_dwell = inst.dwell.total_per_ch()
    p_scale = _check_start_feasible(inst)
    cfg = config or lma.LmaConfig()

    pair_const = [inst.pair_constants(g, u) for g, u in pairs]
    sigma_rate = np.array([total_dwell[g] + 1e-6 for g, _ in pairs])
    uav_index = {u: i for i, u in enumerate(uavs)}
    ch_index = {g: j for j, g in enumerate(chs)}
    pairs_of_uav = [[kk for kk, (_, uu) in enumerate(pairs) if uu == u] for u in uavs]
    pairs_of_ch = [[kk for kk, (gg, _) in enumerate(pairs) if gg == g] for g in chs]
    n_vars = 2 * n_u + 2 * n_p + n_g + 1
    bad = np.full(n_vars, np.inf)

    def build_scales(z_ref: np.ndarray) -> tuple[np.ndarray, float]:
        """Magnitude of each RB-stationarity row near z_ref; used to put those
        rows and the budget/cap multipliers on an O(1) footing. Scaling rows
        and multipliers by positive constants leaves the roots unchanged."""
        rho = np.empty(n_u)
        for i in range(n_u):
            acc = 0.0
            for kk in pairs_of_uav[i]:
                c, coeff = pair_const[kk]
                acc += sigma_rate[kk] * coeff * abs(rb_term_derivative(c, float(z_ref[i])))
            rho[i] = acc if math.isfinite(acc) and acc > 0 else 1e-300
        return rho, float(np.median(rho))

    def make_system(rho: np.ndarray, sigma_mult: float):
        def scaled_residuals(x: np.ndarray) -> np.ndarray:
            zt = x[:n_u]
            if np.any(zt <= 1e-9) or np.any(zt > 10.0):
                return bad  # far off the feasible region; reject the step
            pt = x[n_u:n_u + n_p]
            s_cap = x[n_u + n_p:2 * n_u + n_p]
            s_pmax = x[2 * n_u + n_p:2 * n_u + n_p + n_g]
            s_budget = x[2 * n_u + n_p + n_g]
            s_rate = x[2 * n_u + n_p + n_g + 1:]
            try:
                res = np.empty(n_vars)
                k = 0
                for i in range(n_u):
                    res[k] = s_cap[i] ** 2 * (zt[i] - 1.0)
                    k += 1
                for j in range(n_g):
                    p_g = max(pt[kk] for kk in pairs_of_ch[j]) * p_scale
                    res[k] = s_pmax[j] ** 2 * (p_g - inst.pmax) / inst.pmax
                    k += 1
                res[k] = s_budget ** 2 * (float(np.sum(zt)) - 1.0)
                k += 1
                for kk, (g, u) in enumerate(pairs):
                    lam6 = sigma_rate[kk] * s_rate[kk] ** 2
                    res[k] = (total_dwell[g] + s_pmax[ch_index[g]] ** 2 - lam6) / total_dwell[g]
                    k += 1
                for i in range(n_u):
                    z_u = zt[i] * big_z
                    acc = sigma_mult * (s_budget ** 2 - s_cap[i] ** 2)
                    for kk in pairs_of_uav[i]:
                        c, coeff = pair_const[kk]
                        acc += (sigma_rate[kk] * s_rate[kk] ** 2 * coeff
                                * rb_term_derivative(c, z_u))
                    res[k] = acc / rho[i]
                    k += 1
                for kk, (g, u) in enumerate(pairs):
                    z_u = zt[uav_index[u]] * big_z
                    req = inst.pair_power(g, u, z_u)
                    res[k] = s_rate[kk] ** 2 * (req - pt[kk] * p_scale) / p_scale
                    k += 1
            except OverflowError:
                return bad
            return res if np.all(np.isfinite(res)) else bad

        def decode(x: np.ndarray) -> KktPoint:
            z = np.zeros(inst.num_uavs)
            power = np.zeros((inst.num_chs, inst.num_uavs))
            lam_rb_cap = np.zeros(inst.num_uavs)
            lam_pmax = np.zeros(inst.num_chs)
            lam_rate = np.zeros((inst.num_chs, inst.num_uavs))
            for i, u in enumerate(uavs):
                z[u] = x[i] * big_z
                lam_rb_cap[u] = sigma_mult * x[n_u + n_p + i] ** 2
            for kk, (g, u) in enumerate(pairs):
                power[g, u] = x[n_u + kk] * p_scale
                lam_rate[g, u] = sigma_rate[kk] * x[2 * n_u + n_p + n_g + 1 + kk] ** 2
            for j, g in enumerate(chs):
                lam_pmax[g] = x[2 * n_u + n_p + j] ** 2
            lam_budget = sigma_mult * x[2 * n_u + n_p + n_g] ** 2
            return KktPoint(z=z, power=power, lam_rb_cap=lam_rb_cap, lam_pmax=lam_pmax,
                            lam_budget=lam_budget, lam_rate=lam_rate)

        def encode(point: KktPoint) -> np.ndarray:
            x = np.empty(n_vars)
            for i, u in enumerate(uavs):
                x[i] = min(max(float(point.z[u]), Z_MIN_ACTIVE), 9.0 * big_z) / big_z
                x[n_u + n_p + i] = math.sqrt(max(point.lam_rb_cap[u], 0.0) / sigma_mult)
            for kk, (g, u) in enumerate(pairs):
                x[n_u + kk] = float(point.power[g, u]) / p_scale
                x[2 * n_u + n_p + n_g + 1 + kk] = math.sqrt(
                    max(point.lam_rate[g, u], 0.0) / sigma_rate[kk])
            for j, g in enumerate(chs):
                x[2 * n_u + n_p + j] = math.sqrt(max(point.lam_pmax[g], 0.0))
            x[2 * n_u + n_p + n_g] = math.sqrt(max(point.lam_budget, 0.0) / sigma_mult)
            return x

        return scaled_residuals, decode, encode

    def initial_point(z_active: np.ndarray, lam_budget: float) -> KktPoint:
        z = np.zeros(inst.num_uavs)
        power = np.zeros((inst.num_chs, inst.num_uavs))
        lam_rate = np.zeros((inst.num_chs, inst.num_uavs))
        lam_pmax = np.zeros(inst.num_chs)
        lam_rb_cap = np.zeros(inst.num_uavs)
        for i, u in enumerate(uavs):
            z[u] = float(z_active[i])
            lam_rb_cap[u] = 1e-6
        for g, u in pairs:
            power[g, u] = inst.pair_power(g, u, float(z[u]))
            # power stationarity with lam_pmax ~ 0 puts lam_rate at total dwell
            lam_rate[g, u] = total_dwell[g] + 1e-6
        for g in chs:
            lam_pmax[g] = 1e-6
        return KktPoint(z=z, power=power, lam_rb_cap=lam_rb_cap, lam_pmax=lam_pmax,
                        lam_budget=lam_budget, lam_rate=lam_rate)

    z_even = big_z / n_u
    # small-exponent approximation: per-UAV cost ~ const + K/z, so equalized
    # marginal costs put z proportional to sqrt(K); a strong warm start
    # whenever packets are far from saturating their links
    k_load = np.empty(n_u)
    for i in range(n_u):
        acc = 0.0
        for kk in pairs_of_uav[i]:
            c, coeff = pair_const[kk]
            acc += sigma_rate[kk] * coeff * (c * _LN2) ** 2 / 2.0
        k_load[i] = max(acc, 1e-300)
    warm = np.maximum(big_z * np.sqrt(k_load) / np.sum(np.sqrt(k_load)), Z_MIN_ACTIVE)

    starts: list[tuple[np.ndarray, float]] = []
    if init is not None:
        starts.append((np.array([max(float(init.z[u]), Z_MIN_ACTIVE) for u in uavs]), 1e-6))
    starts.append((np.full(n_u, z_even), 1e-6))
    starts.append((warm, build_scales(warm)[1]))
    for factor in (0.5, 0.25):
        starts.append((np.full(n_u, max(z_even * factor, Z_MIN_ACTIVE)), 1e-6))

    def attempt(point0: KktPoint, z_ref: np.ndarray) -> tuple[KktPoint, float]:
        rho, sigma_mult = build_scales(z_ref)
        scaled, decode, encode = make_system(rho, sigma_mult)
        result = lma.solve(scaled, encode(point0), cfg)
        point = decode(result.solution)
        point.accepted_costs = result.accepted_costs
        try:
            raw = kkt_residuals(point, inst)
        except (ValueError, OverflowError):
            return point, math.inf
        point.residuals = raw
        return point, float(np.linalg.norm(raw))

    def accept(point: KktPoint, raw_norm: float):
        if raw_norm <= 1e-8 and max_feasibility_violation(inst, point) <= 1e-9:
            return RaSolution(z=point.z.copy(), power=point.power.copy(),
                              objective=objective_value(inst, point.power)), point
        return None

    best_norm = math.inf
    for z_start, lam5 in starts:
        point, raw_norm = attempt(initial_point(z_start, lam5), z_start)
        best_norm = min(best_norm, raw_norm)
        done = accept(point, raw_norm)
        if done:
            return done
        # re-center the row scaling on wherever the iterate landed and keep
        # going from there; helps when the optimum is very lopsided
        for _ in range(3):
            if not math.isfinite(raw_norm):
                break
            z_now = np.array([min(max(float(point.z[u]), Z_MIN_ACTIVE), big_z) for u in uavs])
            point2, norm2 = attempt(point, z_now)
            best_norm = min(best_norm, norm2)
            done = accept(point2, norm2)
            if done:
                return done
            if not (norm2 < 0.5 * raw_norm):
                break
            point, raw_norm = point2, norm2

    raise SolverConvergenceError(
        f"optimality system not solved to tolerance (best residual norm {best_norm:.3e})",
        residual_norm=best_norm,
    )


# ---------------------------------------------------------------------------
# reduced solver (independent of the LMA route)
# ---------------------------------------------------------------------------

def _cap_floors(inst: RaInstance) -> np.ndarray:
    """Per serving UAV, the smallest z keeping all its links within pmax:
    bisection on every link's power at once."""
    links = inst.links
    big_z = float(inst.total_rbs)
    n_links = len(links.ch)
    too_hot = links.power(np.full(n_links, big_z)) > inst.pmax
    if np.any(too_hot):
        k = int(np.argmax(too_hot))
        g, u = int(links.ch[k]), int(links.uav[k])
        raise InfeasibleInstanceError(
            f"link (ch={g}, uav={u}) exceeds the power cap even with all "
            f"{inst.total_rbs} resource blocks", ch=g, uav=u)
    lo, hi = np.full(n_links, Z_MIN_ACTIVE), np.full(n_links, big_z)
    capped = links.power(lo) > inst.pmax
    if np.any(capped):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            too_hot = links.power(mid) > inst.pmax
            lo = np.where(too_hot, mid, lo)
            hi = np.where(too_hot, hi, mid)
    floors = np.full(len(links.uavs), Z_MIN_ACTIVE)
    np.maximum.at(floors, links.seg, np.where(capped, hi, Z_MIN_ACTIVE))
    return floors


def _z_at_level(links: LinkView, mu: float, floors: np.ndarray, big_z: float,
                mu_full: np.ndarray, mu_floor: np.ndarray) -> np.ndarray:
    """Per serving UAV, the z in [floors, big_z] where the marginal cost is
    -mu, clamped to that box: at mu <= mu_full a UAV takes all of big_z, at
    mu >= mu_floor it stays at its floor. Newton steps on log(-marginal) over
    log z, safeguarded by each UAV's bracket, stop once no z moves by more
    than 1e-10 relative; the error is then at the marginal's rounding noise."""
    free = (mu_full < mu) & (mu < mu_floor)
    lo = floors
    z = hi = np.full_like(floors, big_z)
    for _ in range(100):
        slope = links.marginal(z)
        g = np.log(-slope / mu)  # > 0 while z is below its root
        lo = np.where(g > 0, z, lo)
        hi = np.where(g > 0, hi, z)
        z_new = z * np.exp(-g * slope / (z * links.curvature(z)))
        z_new = np.where((lo < z_new) & (z_new < hi), z_new, np.sqrt(lo * hi))
        z_new = np.where(free, z_new, z)
        done = np.all(np.abs(z_new - z) <= 1e-10 * z)
        z = z_new
        if done:
            break
    return np.where(mu <= mu_full, big_z, np.where(mu >= mu_floor, floors, z))


@np.errstate(over="ignore", invalid="ignore")
def solve_reduced(inst: RaInstance) -> RaSolution:
    """Convex minimization after eliminating powers via tight delivery.

    The remaining cost is separable and strictly decreasing in each z_u, so
    the whole RB budget is spent; the optimum equalizes per-UAV marginal
    costs at a shared level mu found by bisection. Power caps become
    per-UAV floors on z; the instance is feasible iff they fit in the budget.
    """
    links = inst.links
    if not len(links.ch):
        return _trivial_solution(inst)[0]
    big_z = float(inst.total_rbs)
    floors = _cap_floors(inst)
    if floors.sum() > big_z + 1e-9:
        raise InfeasibleInstanceError(
            "power caps force more resource blocks than the budget holds",
            uav=int(links.uavs[np.argmax(floors)]))

    mu_full = -links.marginal(np.full_like(floors, big_z))
    mu_floor = -links.marginal(floors)
    # at mu = lo some UAV takes all of Z; at mu = hi every UAV takes at most
    # its floor plus an even share of the slack, so the level lies between
    lo = float(mu_full.min())
    hi = float(-links.marginal(floors + (big_z - floors.sum()) / len(floors)).min())
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _z_at_level(links, mid, floors, big_z, mu_full, mu_floor).sum() > big_z:
            lo = mid
        else:
            hi = mid
    z_serving = _z_at_level(links, hi, floors, big_z, mu_full, mu_floor)
    # the bisection ends at adjacent levels; the last rounding-level gap to
    # the budget goes to the largest allocation
    z_serving[np.argmax(z_serving)] += big_z - z_serving.sum()

    z = np.zeros(inst.num_uavs)
    z[links.uavs] = z_serving
    power = _powers_for(inst, z)
    if np.any(power > inst.pmax * (1 + 1e-9)):
        g, u = np.unravel_index(int(np.argmax(power)), power.shape)
        raise InfeasibleInstanceError(
            f"link (ch={g}, uav={u}) exceeds the power cap at the optimum",
            ch=int(g), uav=int(u))
    return RaSolution(z=z, power=power, objective=objective_value(inst, power))


# ---------------------------------------------------------------------------
# integer recovery and enumeration oracle
# ---------------------------------------------------------------------------

def _integral_solution(inst: RaInstance, z_serving: np.ndarray) -> RaSolution:
    """z_serving blocks at the serving UAVs; with no served link the whole
    budget sits at UAV 0."""
    z = np.zeros(inst.num_uavs)
    if len(inst.links.ch):
        z[inst.links.uavs] = z_serving
    else:
        z[0] = inst.total_rbs
    power = _powers_for(inst, z)
    return RaSolution(z=z, power=power, objective=objective_value(inst, power),
                      integral=True)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def round_rbs(sol: RaSolution, inst: RaInstance) -> RaSolution:
    """Recover an integer allocation from a continuous solution.

    Floors each serving UAV's count (at least 1), then hands out the
    remaining blocks one at a time to the UAV whose cost drops the most
    (ties to the lower UAV id). Fails if the result breaks the power cap.
    """
    links = inst.links
    big_z = inst.total_rbs
    if not len(links.ch):
        return _integral_solution(inst, np.zeros(0))
    if len(links.uavs) > big_z:
        raise InfeasibleInstanceError(
            f"{len(links.uavs)} serving UAVs cannot each get a resource block out of {big_z}")

    z = np.clip(np.floor(sol.z[links.uavs] + 1e-9), 1, big_z)
    # flooring plus the >=1 bump can overshoot the budget; undo the cheapest
    while z.sum() > big_z:
        rise = np.where(z > 1, links.cost(z - 1) - links.cost(z), np.inf)
        z[np.argmin(rise)] -= 1
    for _ in range(int(big_z - z.sum())):
        drop = np.where(z < big_z, links.cost(z) - links.cost(z + 1), -np.inf)
        z[np.argmax(drop)] += 1

    rounded = _integral_solution(inst, z)
    if np.any(rounded.power > inst.pmax * (1 + 1e-12)):
        g, u = np.unravel_index(int(np.argmax(rounded.power)), rounded.power.shape)
        raise InfeasibleInstanceError(
            f"rounding pushes link (ch={g}, uav={u}) above the power cap",
            ch=int(g), uav=int(u))
    return rounded


@np.errstate(over="ignore", invalid="ignore")
def brute_force(inst: RaInstance) -> RaSolution:
    """Exhaustive enumeration over integer allocations (1 <= z_u, sum <= Z).

    Only for small instances: Z <= 16 and at most 4 serving UAVs.
    """
    links = inst.links
    big_z = inst.total_rbs
    n = len(links.uavs)
    if not n:
        return _integral_solution(inst, np.zeros(0))
    if big_z > 16 or n > 4:
        raise ValueError(
            f"enumeration bound exceeded: Z={big_z} (max 16), "
            f"{n} serving UAVs (max 4)")

    combos = np.array(list(itertools.product(range(1, big_z + 1), repeat=n)), dtype=float)
    combos = combos[combos.sum(axis=1) <= big_z]
    power = links.power(combos[:, links.seg])
    capped = np.all(power <= inst.pmax * (1 + 1e-12), axis=1)
    if not np.any(capped):
        raise InfeasibleInstanceError("no integer allocation satisfies the power cap")
    objective = np.where(capped, power @ links.weight, np.inf)
    return _integral_solution(inst, combos[np.argmin(objective)])


def write_solution_csv(sol: RaSolution, inst: RaInstance, out) -> None:
    """RB table, power table, and the objective summary line."""
    out.write("uav_id,rbs\n")
    for u in range(inst.num_uavs):
        out.write(f"{u},{sol.z[u]:.9g}\n")
    out.write("ch_id,uav_id,power_w\n")
    for g, u in inst.active_pairs():
        out.write(f"{g},{u},{sol.power[g, u]:.9g}\n")
    out.write(f"objective_w={sol.objective:.9g}\n")
