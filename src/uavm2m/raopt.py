"""Joint RB-allocation and power-control optimizer.

Given a fixed dwell plan and per-link gains, choose how many resource blocks
each UAV gets (z_u, continuous here, integers after `round_rbs`) and the
transmit power of every served CH so that each CH can deliver its packet
within its dwell time, minimizing the dwell-weighted total power

    objective = sum_g sum_u dwell[u, g] * power[g, u].

Three independent routes are provided and cross-checked against each other:

* `solve_kkt`   - assembles the first-order optimality system of the relaxed
  convex program (power-delivery constraints tight, one power cap per link,
  multipliers nonnegative) and solves it as a nonlinear root-finding problem
  with Levenberg-Marquardt on its reduced unknowns: per serving UAV the RB
  count, held above its cap floor so that no iterate breaks a power cap,
  one multiplier per link cap and the budget multiplier. LM runs once, from
  the warm start that `KktSystem` builds (`KktSystem.start`, the cap
  multipliers below tolerance), and stops where the point would pass its
  final checks (`KktSystem.shortfall` is None), in ~3 iterations on 5-10
  cluster plans and at paper scale.
* `solve_reduced` - eliminates powers through the tight delivery constraint
  and minimizes the remaining separable convex function of z by bisecting on
  the shared multiplier that equalizes per-UAV marginal costs, from the
  bracket the marginals span at the equal-marginal start down to the
  budget's rounding noise, solving for every UAV's RB count at once with a
  Newton iteration safeguarded by the allocations at the two levels
  bracketing the multiplier and started at their cubic Hermite prediction
  (predictor-corrector, Allgower & Georg, 2003), so that most levels take
  one pass over the links (`LinkView.slopes`).
* `brute_force` - exact enumeration over integer allocations (small sizes),
  the oracle for `round_rbs`: marginal allocation from the whole-block cap
  floors, exact because the cost is separable and convex in each UAV's
  integer z (Fox, "Discrete optimization via marginal analysis",
  Management Science 13, 1966); it reads no continuous solution.

All routes read `RaInstance.links`, one array view of the served links
(`LinkView`), whose `power` and `link_slopes` are the one per-link kernel
(expm1 form, no cancellation at small c/z). The KKT route builds its
rescaled residual and analytic Jacobian on it (`KktSystem`) and checks
every point it returns against `kkt_residuals` and
`max_feasibility_violation`, array code on the same formulas written apart
from `LinkView` (`rb_term_derivative`, `channel.required_power`); the two
routes stay independent because they solve different systems (the KKT
conditions against an equal-marginal search). Both decide feasibility
the same way, from the per-UAV cap floors (a Newton root per capped link,
stepped up the doubles until its float power keeps the cap,
`_cap_floors`), and both start from the same heuristic allocation
(`RaInstance.equal_marginal_start`), which is neither route's answer; the
instance computes each once. Every route turns the serving UAVs' RB
counts into its solution in `_solution`, which puts the whole budget at
UAV 0, at zero power, when no link is served.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import channel, lma
from .model import DwellMatrix

# lower bound on RB counts of serving UAVs in the continuous problem; keeps
# the delivery term finite
Z_MIN_ACTIVE = 1e-3

_LN2 = math.log(2.0)


class InfeasibleInstanceError(RuntimeError):
    """No allocation can satisfy the power cap; names the violating link."""

    def __init__(self, message: str, ch: int | None = None, uav: int | None = None):
        super().__init__(message)
        self.ch = ch
        self.uav = uav


class SolverConvergenceError(RuntimeError):
    """The root-finder stopped at a point that fails a check a returned point
    must pass: `check` names it, `value` is what the point reached and
    `bound` the largest value the check allows."""

    def __init__(self, check: str, value: float, bound: float):
        super().__init__(
            f"optimality system not solved to tolerance: {check} {value:.3e} > {bound:g}")
        self.check = check
        self.value = value
        self.bound = bound


@dataclass(frozen=True)
class LinkView:
    """The served links of an instance as read-only parallel arrays.

    Link k joins CH `ch[k]` to UAV `uav[k]` (ch-major order); `seg[k]` is
    the position of that UAV in `uavs`, the serving UAVs in ascending order.
    At z resource blocks the link needs coeff[k] * (2**(c[k]/z) - 1) * z
    watts, which enters the objective with weight `weight[k]`, its dwell;
    `power` and `link_slopes` are that formula and its z-derivatives in
    expm1 form, free of cancellation at small c/z. The per-UAV kernels
    take one RB count per serving UAV, in `uavs` order.
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
        """Required power of each link at its RB count z_link[..., k]:
        coeff * expm1(a) * z with a = ln2 * c / z."""
        return self.coeff * np.expm1(self.c / z_link * _LN2) * z_link

    def link_slopes(self, z_link: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per link at its RB count z_link[k]: d power / dz =
        coeff * (expm1(a) * (1 - a) - a), negative, and d2 power / dz2 =
        coeff * (1 + expm1(a)) * a**2 / z, positive (a = ln2 * c / z)."""
        a = self.c / z_link * _LN2
        em1 = np.expm1(a)
        return (self.coeff * (em1 * (1.0 - a) - a),
                self.coeff * (1.0 + em1) * a**2 / z_link)

    def cost(self, z: np.ndarray) -> np.ndarray:
        """Per serving UAV: dwell-weighted power of its links."""
        return self.per_uav(self.weight * self.power(z[self.seg]))

    def slopes(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per serving UAV: d cost / dz, negative and increasing in z, and
        d2 cost / dz2, positive; one pass over the links for both."""
        slope, bend = self.link_slopes(z[self.seg])
        return self.per_uav(self.weight * slope), self.per_uav(self.weight * bend)

    def per_uav(self, per_link: np.ndarray) -> np.ndarray:
        """Sum of a per-link quantity over the links of each serving UAV."""
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
        if not np.all((0 < gains) & (gains < np.inf)):
            raise ValueError("all link gains must be finite and > 0")
        if not isinstance(self.total_rbs, (int, np.integer)) or self.total_rbs < 1:
            raise ValueError(f"total_rbs must be a whole number >= 1, got {self.total_rbs!r}")
        for name in ("packet_bits", "rb_bandwidth", "noise_psd", "beta", "pmax", "slot_s"):
            if not 0 < (value := getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        gains.setflags(write=False)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "links", LinkView.build(self))

    @property
    def num_uavs(self) -> int:
        return self.dwell.num_uavs

    @property
    def num_chs(self) -> int:
        return self.dwell.num_clusters

    @cached_property
    def cap_floors(self) -> np.ndarray:
        """Per serving UAV, the smallest z keeping all its links within pmax
        (`_cap_floors`, read-only), located once per instance for both
        routes; every read of an infeasible instance raises
        InfeasibleInstanceError."""
        floors = _cap_floors(self)
        floors.setflags(write=False)
        return floors

    @cached_property
    def equal_marginal_start(self) -> np.ndarray:
        """`_equal_marginal_start`, read-only, computed once per instance for
        both routes."""
        start = _equal_marginal_start(self)
        start.setflags(write=False)
        return start

    def active_pairs(self) -> list[tuple[int, int]]:
        """(ch, uav) links with positive dwell, ch-major order."""
        return list(zip(self.links.ch.tolist(), self.links.uav.tolist()))

    def pair_power(self, g, u, z):
        """Minimum power for link (g, u) at z resource blocks
        (`channel.required_power`); element-wise over arrays of links."""
        return channel.required_power(
            self.packet_bits, z, self.rb_bandwidth, self.dwell.entries[u, g],
            self.beta, self.gains[g, u], self.noise_psd, self.slot_s,
        )


@dataclass(frozen=True)
class RaSolution:
    z: np.ndarray        # per-UAV RB counts (0 for UAVs that serve nothing)
    power: np.ndarray    # G x U transmit powers in W (0 where dwell is 0)
    objective: float     # dwell-weighted total power in W


@dataclass
class KktPoint:
    """Primal allocation plus the multipliers of the optimality system.

    Multiplier names follow the constraint they price: `lam_pmax[g, u]` for
    the link power cap P_gu <= pmax, `lam_budget` for sum_u z_u <= Z, and
    `lam_rate[g, u]` for the packet-delivery constraint. No multiplier
    prices z_u <= Z: the budget and z > 0 imply it.
    """

    z: np.ndarray
    power: np.ndarray
    lam_pmax: np.ndarray
    lam_budget: float
    lam_rate: np.ndarray
    residuals: np.ndarray | None = None
    accepted_costs: list[float] | None = None  # ||r||^2 history of the winning solve


def rb_term_derivative(c, z):
    """d/dz of (2**(c/z) - 1) * z, the RB-count sensitivity of required power
    up to the per-link coefficient: expm1(a) * (1 - a) - a with a = ln2 * c / z,
    element-wise over scalars or arrays. Strictly negative for c > 0; -inf
    once the value leaves the float range."""
    a = c / z * _LN2
    with np.errstate(over="ignore"):
        return np.expm1(a) * (1.0 - a) - a


@np.errstate(over="ignore")
def _solution(inst: RaInstance, z_serving: np.ndarray) -> RaSolution:
    """z_serving blocks at the serving UAVs (`links.uavs` order) at tight
    delivery powers (0 where no dwell), and the objective sum_g sum_u
    d[u,g] * P[g,u]; with no served link, all Z blocks at UAV 0."""
    links = inst.links
    z = np.zeros(inst.num_uavs)
    if len(links.ch):
        z[links.uavs] = z_serving
    else:
        z[0] = inst.total_rbs
    power = np.zeros((inst.num_chs, inst.num_uavs))
    power[links.ch, links.uav] = links.power(z[links.uav])
    return RaSolution(z=z, power=power, objective=float(np.sum(inst.dwell.entries.T * power)))


# ---------------------------------------------------------------------------
# optimality system
# ---------------------------------------------------------------------------

def kkt_residuals(point: KktPoint, inst: RaInstance) -> np.ndarray:
    """Residual vector of the first-order optimality system.

    Stacked in this order (`n_u` serving UAVs, `n_p` served links in
    ch-major order):

      1. per link:        lam_pmax_gu * (P_gu - pmax)                [n_p]
      2. shared budget:   lam_budget * (sum_u z_u - Z)               [1]
      3. per link: power stationarity
         dwell_ug + lam_pmax_gu - lam_rate_gu                        [n_p]
      4. per serving UAV: RB stationarity
         lam_budget
         + sum_g lam_rate_gu * coeff_gu * rb_term_derivative(c, z_u) [n_u]
      5. per link: lam_rate_gu * (required_power_gu(z_u) - P_gu)     [n_p]

    All entries are zero exactly at an optimal point of the relaxed program.
    Array code on `rb_term_derivative` and `channel.required_power`, one
    call per block; no `LinkView` kernel is read.
    """
    links = inst.links
    ch, uav, uavs = links.ch, links.uav, links.uavs
    z = np.asarray(point.z, dtype=float)
    power = np.asarray(point.power, dtype=float)
    if z.shape != (inst.num_uavs,) or power.shape != (inst.num_chs, inst.num_uavs):
        raise ValueError("point dimensions do not match instance")
    if np.any(singular := z[uavs] <= 0):
        raise ValueError(f"z[{uavs[np.argmax(singular)]}] <= 0 makes the delivery term singular")
    p, lam_pmax, lam_rate = power[ch, uav], point.lam_pmax[ch, uav], point.lam_rate[ch, uav]
    # sums in the order the rows are written: z in UAV order, and each RB
    # stationarity row from lam_budget through its links
    n_u = len(uavs)
    stat_z = np.bincount(np.concatenate([np.arange(n_u), links.seg]), weights=np.concatenate([
        np.full(n_u, point.lam_budget),
        lam_rate * links.coeff * rb_term_derivative(links.c, z[uav])]))
    return np.concatenate([
        lam_pmax * (p - inst.pmax),
        [point.lam_budget * (sum(z[uavs].tolist()) - inst.total_rbs)],
        inst.dwell.entries[uav, ch] + lam_pmax - lam_rate,
        stat_z,
        lam_rate * (inst.pair_power(ch, uav, z[uav]) - p),
    ])


def max_feasibility_violation(inst: RaInstance, point: KktPoint) -> float:
    """Largest violation of the primal/dual feasibility conditions: tight
    delivery, z_u > 0, 0 < P <= pmax, sum z <= Z, multipliers >= 0."""
    links = inst.links
    ch, uav, uavs = links.ch, links.uav, links.uavs
    z = np.asarray(point.z, dtype=float)
    p = point.power[ch, uav]
    return float(np.max(np.concatenate([
        inst.pair_power(ch, uav, z[uav]) - p, p - inst.pmax, -p,
        -point.lam_rate[ch, uav], -point.lam_pmax[ch, uav], -z[uavs],
        [0.0, sum(z[uavs].tolist()) - inst.total_rbs, -point.lam_budget]])))


def _cap_crossings(c: np.ndarray, coeff: np.ndarray, pmax: float, big_z: float) -> np.ndarray:
    """Per link, the z in [Z_MIN_ACTIVE, Z] where its power meets pmax.
    With a = ln2 * c / z, power = coeff * ln2 * c * exp(g(a)), where g(a) =
    log(expm1(a) / a) is the cumulant generating function of the uniform
    distribution on [0, 1]: increasing and convex, g'(a) = 1 / -expm1(-a) -
    1 / a, and close to linear at large a. Newton on g from the hot end a =
    ln2 * c / Z_MIN_ACTIVE never passes the root, and stops once no step
    moves a by more than 1e-9 relative; converging quadratically, it has
    then reached the root up to rounding."""
    ca = c * _LN2
    target = np.log(pmax / (coeff * ca))
    a, a_min = ca / Z_MIN_ACTIVE, ca / big_z
    for _ in range(100):
        em = -np.expm1(-a)
        a_new = np.maximum(a - (a + np.log(em / a) - target) / (1.0 / em - 1.0 / a), a_min)
        done = np.all(np.abs(a_new - a) <= 1e-9 * a)
        a = a_new
        if done:
            break
    return ca / a


@np.errstate(over="ignore")
def _cap_floors(inst: RaInstance) -> np.ndarray:
    """Per serving UAV, the largest of its links' floors. A link within the
    cap at Z_MIN_ACTIVE has its floor there. Each capped link starts at its
    Newton crossing (`_cap_crossings`), and while the float power at any of
    them is above pmax, those move up by a doubling number of ulps, clipped
    at Z. So each floor is a double whose float power keeps the cap, within
    ~1e-12 relative of the exact crossing; the float power wiggles across
    pmax near it, over hundreds of doubles where it is nearly flat in z.
    Both routes decide feasibility here, through `RaInstance.cap_floors`:
    the instance is feasible iff every link meets the cap at z = Z and the
    floors fit in the budget; otherwise InfeasibleInstanceError."""
    links = inst.links
    big_z = float(inst.total_rbs)
    too_hot = links.power(big_z) > inst.pmax
    if np.any(too_hot):
        k = int(np.argmax(too_hot))
        g, u = int(links.ch[k]), int(links.uav[k])
        raise InfeasibleInstanceError(
            f"link (ch={g}, uav={u}) exceeds the power cap even with all "
            f"{inst.total_rbs} resource blocks", ch=g, uav=u)
    z = np.full(len(links.ch), Z_MIN_ACTIVE)
    capped = links.power(z) > inst.pmax
    z[capped] = _cap_crossings(links.c[capped], links.coeff[capped], inst.pmax, big_z)
    # Z keeps every cap, so the steps end
    ulps = 1
    while np.any(hot := links.power(z) > inst.pmax):
        z[hot] = np.minimum((z[hot].view(np.int64) + ulps).view(np.float64), big_z)
        ulps *= 2
    floors = np.full(len(links.uavs), Z_MIN_ACTIVE)
    np.maximum.at(floors, links.seg, z)
    if floors.sum() > big_z + 1e-9:
        raise InfeasibleInstanceError(
            "power caps force more resource blocks than the budget holds",
            uav=int(links.uavs[np.argmax(floors)]))
    return floors


def _equal_marginal_start(inst: RaInstance) -> np.ndarray:
    """Per serving UAV, its cap floor plus a share of the spare blocks
    proportional to sqrt(K) (cost ~ const + K/z at small exponents, so equal
    marginals): a heuristic start for both routes, neither route's answer."""
    links, floors = inst.links, inst.cap_floors
    spare = max(float(inst.total_rbs) - floors.sum(), 0.0)
    root_k = np.sqrt(np.maximum(links.per_uav(
        (links.weight + 1e-6) * links.coeff * (links.c * _LN2) ** 2 / 2.0), 1e-300))
    return floors + spare * root_k / root_k.sum()


class KktSystem:
    """The optimality system of `kkt_residuals` on the unknowns that
    `solve_kkt` iterates on, with its analytic Jacobian.

    x stacks, per serving UAV, et; per link, s_pmax; then s_budget. The RB
    counts are z = floors + Z * et**2, held above the cap floors, so no
    iterate breaks a power cap and no root breaking one is left (the
    squared-variable bound reformulation, Nocedal & Wright, Numerical
    Optimization, 2nd ed., ch. 17). Multipliers are squares too (lam_pmax =
    s_pmax**2, lam_budget = sigma_mult * s_budget**2), so iterates stay
    sign-feasible. Tight delivery and power stationarity fix the rest:
    P = `LinkView.power(z)` and lam_rate = dwell + lam_pmax, which `decode`
    fills in. The rows are rows 1, 2 and 4 of `kkt_residuals` (link cap,
    budget, RB stationarity), row k divided by `row_scale[k]`; the
    RB-stationarity rows are normalized at the warm start `start`, built here.
    Scaling rows and unknowns by positive constants leaves the roots unchanged.
    `residual` keeps the link powers and slopes with its x; `jacobian`, which
    LM asks for at that x, reads them there.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, inst: RaInstance):
        links = self.links = inst.links
        self.inst = inst
        self.big_z = float(inst.total_rbs)
        self.floors = inst.cap_floors
        n_u, n_p = len(links.uavs), len(links.ch)
        self.size = n_u + n_p + 1
        # warm start: the RB counts at `_equal_marginal_start`, the budget
        # multiplier at sigma_mult (the median RB-stationarity row there) and
        # the cap multipliers, slack at a typical optimum, at 1e-16: the scaled
        # residual is O(1) and the slack caps' rows s**2 * g start below
        # tolerance; at 1e-6 their double root at s = 0 lets LM only halve s
        # per step, ~12 iterations, not ~3
        z0 = inst.equal_marginal_start
        # rho: each RB-stationarity row's size at z0, delivery multipliers at dwell + 1e-6
        rho = links.per_uav((links.weight + 1e-6) * np.abs(links.link_slopes(z0[links.seg])[0]))
        self.rho = np.where(np.isfinite(rho) & (rho > 0), rho, 1e-300)
        self.sigma_mult = float(np.median(self.rho))
        self.start = np.concatenate([np.sqrt(np.maximum(z0 - self.floors, 0.0) / self.big_z),
                                     np.full(n_p, np.sqrt(1e-16)), [1.0]])
        self.row_scale = np.concatenate([
            np.full(n_p, inst.pmax), [self.sigma_mult * self.big_z], self.rho])
        self._kept = None, ()

    def _split(self, x: np.ndarray):
        """et, s_pmax, s_budget, and the RB counts z of the serving UAVs."""
        n_u = len(self.floors)
        et = x[:n_u]
        return et, x[n_u:-1], x[-1], self.floors + self.big_z * et**2

    @np.errstate(over="ignore", invalid="ignore")
    def residual(self, x: np.ndarray) -> np.ndarray:
        _, s_pmax, s_budget, z = self._split(x)
        links, pmax = self.links, self.inst.pmax
        z_link = z[links.seg]
        self._kept = x.copy(), (links.power(z_link), *links.link_slopes(z_link))
        power, slope, _ = self._kept[1]
        return np.concatenate([
            s_pmax**2 * (power - pmax) / pmax,
            [s_budget**2 * (float(np.sum(z)) / self.big_z - 1.0)],
            (self.sigma_mult * s_budget**2 + links.per_uav((links.weight + s_pmax**2) * slope))
            / self.rho,
        ])

    def shortfall(self, x: np.ndarray, r: np.ndarray) -> tuple[str, float, float] | None:
        """The first stop check that x, with residual r, fails, as (check,
        value, bound); None once ||r|| is within 1e-10 and the budget within
        1e-10 blocks. The other feasibility conditions hold by construction,
        the caps up to rounding at the floors. Without the budget check, 36
        of the benchmark pool's 320 instances stop 1-3.3e-9 blocks over Z,
        past the 1e-9 feasibility check, with ||r|| under 1e-10."""
        norm = float(np.linalg.norm(r))
        if not norm <= 1e-10:
            return "scaled residual norm", norm, 1e-10
        over = float(np.sum(self._split(x)[3])) - self.big_z
        if over > 1e-10:
            return "budget overspend (blocks)", over, 1e-10
        return None

    @np.errstate(over="ignore", invalid="ignore")
    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Dense; columns et from 0, s_pmax from n_u, s_budget last; rows 1, 2
        and 4 from 0, n_p and n_p + 1, each block set under its row's comment."""
        et, s_pmax, s_budget, z = self._split(x)
        links, pmax, big_z, rho = self.links, self.inst.pmax, self.big_z, self.rho
        seg = links.seg
        n_u, n_p = len(rho), len(seg)
        iu, ip = np.arange(n_u), np.arange(n_p)
        if not np.array_equal(self._kept[0], x):
            self.residual(x)  # keeps the link terms at x
        power, slope, bend = self._kept[1]
        dz = 2.0 * big_z * et  # dz / d et
        jac = np.zeros((self.size, self.size))
        # 1. s_pmax**2 * (power(z) - pmax) / pmax
        jac[ip, seg] = s_pmax**2 * slope * dz[seg] / pmax
        jac[ip, n_u + ip] = 2.0 * s_pmax * (power - pmax) / pmax
        # 2. s_budget**2 * (sum z / Z - 1)
        jac[n_p, :n_u] = s_budget**2 * dz / big_z
        jac[n_p, -1] = 2.0 * s_budget * (float(np.sum(z)) / big_z - 1.0)
        # 4. (sigma_mult * s_budget**2 + sum_k (w + s_pmax**2) * slope(z)) / rho
        stat = jac[n_p + 1:]
        stat[iu, iu] = links.per_uav((links.weight + s_pmax**2) * bend) * dz / rho
        stat[seg, n_u + ip] = 2.0 * s_pmax * slope / rho[seg]
        stat[:, -1] = 2.0 * self.sigma_mult * s_budget / rho
        return jac

    def decode(self, x: np.ndarray) -> tuple[RaSolution, KktPoint]:
        """The solution at x's RB counts and the full KKT point there."""
        _, s_pmax, s_budget, z_serving = self._split(x)
        links, inst = self.links, self.inst
        sol = _solution(inst, z_serving)
        lam_pmax = np.zeros_like(sol.power)
        lam_pmax[links.ch, links.uav] = s_pmax**2
        return sol, KktPoint(z=sol.z, power=sol.power, lam_pmax=lam_pmax,
                             lam_budget=self.sigma_mult * s_budget**2,
                             lam_rate=inst.dwell.entries.T + lam_pmax)


def solve_kkt(inst: RaInstance) -> tuple[RaSolution, KktPoint]:
    """Solve the optimality system by Levenberg-Marquardt root finding.

    Runs LM once from `KktSystem.start`, on the system's unknowns with its
    analytic Jacobian, until `KktSystem.shortfall` finds no failed check,
    and returns the point it reaches only if none fails on LM's last
    residual and the point passes the checks ||kkt_residuals|| <=
    1e-8 and feasibility within 1e-9; else a SolverConvergenceError names
    the first check that failed and its value.
    Power caps that no allocation meets raise InfeasibleInstanceError,
    decided by the cap floors as in `solve_reduced`.
    """
    if not len(inst.links.ch):
        sol = _solution(inst, np.zeros(0))
        return sol, KktPoint(z=sol.z, power=sol.power, lam_pmax=np.zeros_like(sol.power),
                             lam_budget=0.0, lam_rate=np.zeros_like(sol.power),
                             residuals=np.zeros(0))
    system = KktSystem(inst)
    result = lma.solve(system.residual, system.start, jacobian=system.jacobian,
                       done=lambda x, r: system.shortfall(x, r) is None)
    sol, point = system.decode(result.solution)
    point.accepted_costs = result.accepted_costs
    failed = system.shortfall(result.solution, result.residual)
    if failed is None:
        point.residuals = kkt_residuals(point, inst)
        norm = float(np.linalg.norm(point.residuals))
        worst = max_feasibility_violation(inst, point)
        failed = (("kkt_residuals norm", norm, 1e-8) if not norm <= 1e-8 else
                  ("feasibility violation", worst, 1e-9) if not worst <= 1e-9 else None)
    if failed is not None:
        raise SolverConvergenceError(*failed)
    return sol, point


# ---------------------------------------------------------------------------
# reduced solver (independent of the LMA route)
# ---------------------------------------------------------------------------

def _z_at_level(links: LinkView, mu: float, z_min: np.ndarray, z_max: np.ndarray,
                mu_full: np.ndarray, mu_floor: np.ndarray,
                start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per serving UAV, the z where the marginal cost is -mu, clamped to the
    box [floors, Z], and dz/dmu there: -1/curvature, 0 at a bound. At mu <=
    mu_full a UAV takes all of Z, at mu >= mu_floor it stays at its floor.
    [z_min, z_max] brackets the answer: the z of a higher and of a lower
    level (z falls as mu rises), or [floors, Z] when no level is known yet.
    Newton steps on log(-marginal) over log z start at `start` clipped into
    the bracket (at z_max without one), are safeguarded by each UAV's
    bracket, and stop once no z moves by more than 1e-10 relative; the error
    is then at the marginal's rounding noise. The rate comes from the last
    pass, at the z the last step left from."""
    free = (mu_full < mu) & (mu < mu_floor)
    lo, hi = z_min, z_max
    z = z_max if start is None else np.where(free, np.minimum(np.maximum(start, z_min), z_max),
                                             z_max)
    for _ in range(100):
        slope, bend = links.slopes(z)
        g = np.log(-slope / mu)  # > 0 while z is below its root
        lo = np.where(g > 0, z, lo)
        hi = np.where(g > 0, hi, z)
        z_new = z * np.exp(-g * slope / (z * bend))
        z_new = np.where((lo <= z_new) & (z_new <= hi), z_new, np.sqrt(lo * hi))
        z_new = np.where(free, z_new, z)
        done = np.all(np.abs(z_new - z) <= 1e-10 * z)
        z = z_new
        if done:
            break
    # a UAV at Z (mu <= mu_full) starts there and never moves; one held at
    # its floor sits at the bracket's low end, the floor itself
    return np.where(mu >= mu_floor, z_min, z), np.where(free, -1.0 / bend, 0.0)


@np.errstate(over="ignore", invalid="ignore")
def solve_reduced(inst: RaInstance) -> RaSolution:
    """Convex minimization after eliminating powers via tight delivery.

    The remaining cost is separable and strictly decreasing in each z_u, so
    the whole RB budget is spent; the optimum equalizes per-UAV marginal
    costs at a shared level mu found by bisection (the multiplier search of
    Patriksson, EJOR 185, 2008). z falls as mu rises, so the levels
    -marginal_u(z0) at the equal-marginal start z0, which spends the
    budget, bracket mu (at the lowest every UAV takes at least its z0, at
    the highest at most), and the allocations at a bracket's two levels
    bracket every UAV's z at the next level. Its Newton solve starts at the
    cubic Hermite prediction from the z and dz/dmu of those two levels, or,
    until both are solved, at the tangent from the latest solved level,
    first z0 (each UAV's z0 solves its own level mu0_u); most levels then
    take one pass.
    The search stops once a level's allocation spends the budget within
    1e-13 * Z, the accuracy of its sum (or at adjacent floats); the gap
    left goes to the largest allocation. Power caps become per-UAV floors
    on z; the instance is feasible iff they fit in the budget.
    """
    links = inst.links
    if not len(links.ch):
        return _solution(inst, np.zeros(0))
    big_z = float(inst.total_rbs)
    floors = inst.cap_floors
    z_full = np.full_like(floors, big_z)
    mu_full = -links.slopes(z_full)[0]
    mu_floor = -links.slopes(floors)[0]
    slope0, bend0 = links.slopes(inst.equal_marginal_start)
    mu0 = -slope0
    lo, hi = float(mu0.min()), float(mu0.max())
    # z and dz/dmu at levels lo and hi once solved; [floors, Z] brackets
    # every level. Until both are, the start is the tangent at the latest
    # solved level, first at z0, where each UAV solves its own level mu0
    z_lo, z_hi = z_full, floors
    rate_lo = rate_hi = None
    latest = mu0, inst.equal_marginal_start, -1.0 / bend0
    while True:
        mid = 0.5 * (lo + hi)
        if rate_lo is None or rate_hi is None:
            mu_at, z_at, rate_at = latest
            start = z_at + (mid - mu_at) * rate_at
        else:
            start = 0.5 * (z_lo + z_hi) + 0.125 * (hi - lo) * (rate_lo - rate_hi)
        z_serving, rate = _z_at_level(links, mid, z_hi, z_lo, mu_full, mu_floor, start)
        latest = mid, z_serving, rate
        gap = z_serving.sum() - big_z
        if abs(gap) <= 1e-13 * big_z or not lo < mid < hi:
            break
        if gap > 0:
            lo, z_lo, rate_lo = mid, z_serving, rate
        else:
            hi, z_hi, rate_hi = mid, z_serving, rate
    z_serving[np.argmax(z_serving)] -= gap
    sol = _solution(inst, z_serving)
    if np.any(sol.power > inst.pmax * (1 + 1e-9)):
        g, u = np.unravel_index(int(np.argmax(sol.power)), sol.power.shape)
        raise InfeasibleInstanceError(
            f"link (ch={g}, uav={u}) exceeds the power cap at the optimum",
            ch=int(g), uav=int(u))
    return sol


# ---------------------------------------------------------------------------
# integer recovery and enumeration oracle
# ---------------------------------------------------------------------------

def round_rbs(inst: RaInstance) -> RaSolution:
    """The optimal integer allocation: each serving UAV starts at its cap
    floor rounded up, the fewest whole blocks (at least 1) within pmax, and
    each spare block goes to the UAV whose cost drops the most (ties to the
    lower UAV id). Fails only when those starts exceed Z."""
    links = inst.links
    if not len(links.ch):
        return _solution(inst, np.zeros(0))
    z = np.ceil(inst.cap_floors)
    if z.sum() > inst.total_rbs:
        raise InfeasibleInstanceError(
            f"whole-block cap floors sum to {z.sum():.0f} > {inst.total_rbs} resource blocks",
            uav=int(links.uavs[np.argmax(z)]))
    # each UAV's cost reads its own links only, so a block changes one entry
    cost = links.cost(z)
    for _ in range(int(inst.total_rbs - z.sum())):
        cost_up = links.cost(z + 1)
        u = np.argmax(cost - cost_up)
        z[u] += 1
        cost[u] = cost_up[u]
    return _solution(inst, z)


@np.errstate(over="ignore", invalid="ignore")
def brute_force(inst: RaInstance) -> RaSolution:
    """Exhaustive enumeration over integer allocations (1 <= z_u, sum <= Z).

    Only for small instances: Z <= 16 and at most 4 serving UAVs.
    """
    links = inst.links
    big_z = inst.total_rbs
    n = len(links.uavs)
    if not n:
        return _solution(inst, np.zeros(0))
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
    return _solution(inst, combos[np.argmin(objective)])


def write_solution_csv(sol: RaSolution, inst: RaInstance, out) -> None:
    """RB table, power table, and the objective summary line."""
    out.write("uav_id,rbs\n")
    for u in range(inst.num_uavs):
        out.write(f"{u},{sol.z[u]:.9g}\n")
    out.write("ch_id,uav_id,power_w\n")
    for g, u in inst.active_pairs():
        out.write(f"{g},{u},{sol.power[g, u]:.9g}\n")
    out.write(f"objective_w={sol.objective:.9g}\n")
