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
  with Levenberg-Marquardt, once from each of two starts that keep the
  caps; the first, a warm start with every multiplier at the size of the
  rows it enters, converges in ~12 iterations on 5-10 cluster plans, and the
  second, an even share of the spare blocks, catches binding caps.
* `solve_reduced` - eliminates powers through the tight delivery constraint
  and minimizes the remaining separable convex function of z by bisecting on
  the shared multiplier that equalizes per-UAV marginal costs, solving for
  every UAV's RB count at once with a bracketed Newton iteration that starts
  from the allocations at the two levels bracketing the multiplier; each
  Newton step reads the marginal cost and its curvature from one pass over
  the links (`LinkView.slopes`).
* `brute_force` - exact enumeration over integer allocations (small sizes).

All routes read `RaInstance.links`, one array view of the served links
(`LinkView`). The KKT route builds its rescaled residual and analytic
Jacobian on it (`KktSystem`) and checks every point it returns against the
scalar `kkt_residuals`; the two routes stay independent because they solve
different systems (the KKT conditions against an equal-marginal search).
Both decide feasibility the same way, from the per-UAV cap floors.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
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


def _required_power(c: np.ndarray, coeff: np.ndarray, z: np.ndarray) -> np.ndarray:
    """coeff * (2**(c/z) - 1) * z: the power a link needs at z blocks."""
    return coeff * (2.0 ** (c / z) - 1.0) * z


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
        return _required_power(self.c, self.coeff, z_link)

    def cost(self, z: np.ndarray) -> np.ndarray:
        """Per serving UAV: dwell-weighted power of its links."""
        return self.per_uav(self.weight * self.power(z[self.seg]))

    def slopes(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per serving UAV: d cost / dz, negative and increasing in z, and
        d2 cost / dz2, positive; one pass over the links for both."""
        z_link = z[self.seg]
        t = self.c / z_link
        e = 2.0**t
        w_coeff = self.weight * self.coeff
        return (self.per_uav(w_coeff * (e * (1.0 - t * _LN2) - 1.0)),
                self.per_uav(w_coeff * e * (t * _LN2) ** 2 / z_link))

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


@dataclass
class KktPoint:
    """Primal allocation plus the multipliers of the optimality system.

    Multiplier names follow the constraint they price: `lam_rb_cap[u]` for
    z_u <= Z, `lam_pmax[g, u]` for the link power cap P_gu <= pmax,
    `lam_budget` for sum_u z_u <= Z, and `lam_rate[g, u]` for the
    packet-delivery constraint.
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

    Stacked in this order (`n_u` serving UAVs, `n_p` served links in
    ch-major order):

      1. per serving UAV: lam_rb_cap * (z_u - Z)                     [n_u]
      2. per link:        lam_pmax_gu * (P_gu - pmax)                [n_p]
      3. shared budget:   lam_budget * (sum_u z_u - Z)               [1]
      4. per link: power stationarity
         dwell_ug + lam_pmax_gu - lam_rate_gu                        [n_p]
      5. per serving UAV: RB stationarity
         -lam_rb_cap + lam_budget
         + sum_g lam_rate_gu * coeff_gu * rb_term_derivative(c, z_u) [n_u]
      6. per link: lam_rate_gu * (required_power_gu(z_u) - P_gu)     [n_p]

    All entries are zero exactly at an optimal point of the relaxed program.
    """
    pairs = inst.active_pairs()
    uavs = inst.active_uavs()
    z = np.asarray(point.z, dtype=float)
    power = np.asarray(point.power, dtype=float)
    if z.shape != (inst.num_uavs,) or power.shape != (inst.num_chs, inst.num_uavs):
        raise ValueError("point dimensions do not match instance")
    for u in uavs:
        if z[u] <= 0:
            raise ValueError(f"z[{u}] <= 0 makes the delivery term singular")

    big_z = float(inst.total_rbs)
    d = inst.dwell.entries
    res: list[float] = []
    for u in uavs:
        res.append(point.lam_rb_cap[u] * (z[u] - big_z))
    for g, u in pairs:
        res.append(point.lam_pmax[g, u] * (power[g, u] - inst.pmax))
    res.append(point.lam_budget * (sum(z[u] for u in uavs) - big_z))
    for g, u in pairs:
        res.append(d[u, g] + point.lam_pmax[g, u] - point.lam_rate[g, u])
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
        worst = max(worst, -point.lam_pmax[g, u])
    for u in uavs:
        worst = max(worst, point.z[u] - inst.total_rbs)
        worst = max(worst, -point.z[u])
        worst = max(worst, -point.lam_rb_cap[u])
    worst = max(worst, sum(float(point.z[u]) for u in uavs) - inst.total_rbs)
    worst = max(worst, -point.lam_budget)
    return float(worst)


def _trivial_solution(inst: RaInstance) -> tuple[RaSolution, KktPoint]:
    # nothing to serve: split the budget evenly, no power spent
    z = np.full(inst.num_uavs, inst.total_rbs / inst.num_uavs)
    power = np.zeros((inst.num_chs, inst.num_uavs))
    point = KktPoint(
        z=z, power=power,
        lam_rb_cap=np.zeros(inst.num_uavs), lam_pmax=np.zeros((inst.num_chs, inst.num_uavs)),
        lam_budget=0.0, lam_rate=np.zeros((inst.num_chs, inst.num_uavs)),
        residuals=np.zeros(0),
    )
    return RaSolution(z=z, power=power, objective=0.0), point


@np.errstate(over="ignore")
def _cap_floors(inst: RaInstance) -> np.ndarray:
    """Per serving UAV, the smallest z keeping all its links within pmax:
    bisection on the power of every link that breaks the cap at
    Z_MIN_ACTIVE, all at once, down to adjacent floats. Both routes decide
    feasibility here: the instance is feasible iff every link meets the cap
    at z = Z and the floors fit in the budget; otherwise
    InfeasibleInstanceError."""
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
    capped = np.flatnonzero(links.power(np.full(n_links, Z_MIN_ACTIVE)) > inst.pmax)
    lo, hi = np.full(len(capped), Z_MIN_ACTIVE), np.full(len(capped), big_z)
    c, coeff = links.c[capped], links.coeff[capped]
    # power(lo) > pmax >= power(hi) throughout; once every midpoint rounds to
    # an end, no bracket can shrink further
    while np.any((lo < (mid := 0.5 * (lo + hi))) & (mid < hi)):
        too_hot = _required_power(c, coeff, mid) > inst.pmax
        lo = np.where(too_hot, mid, lo)
        hi = np.where(too_hot, hi, mid)
    floors = np.full(len(links.uavs), Z_MIN_ACTIVE)
    np.maximum.at(floors, links.seg[capped], hi)
    if floors.sum() > big_z + 1e-9:
        raise InfeasibleInstanceError(
            "power caps force more resource blocks than the budget holds",
            uav=int(links.uavs[np.argmax(floors)]))
    return floors


def _rate_scale(links: LinkView) -> np.ndarray:
    """Per link, the expected size of its delivery multiplier: power
    stationarity with lam_pmax ~ 0 puts lam_rate at the link's dwell."""
    return links.weight + 1e-6


@np.errstate(over="ignore", invalid="ignore")
def _row_scales(inst: RaInstance, z_ref: np.ndarray) -> tuple[np.ndarray, float]:
    """Magnitude of each RB-stationarity row at z_ref (one entry per serving
    UAV), and its median; used to put those rows and the budget/cap
    multipliers on an O(1) footing."""
    links = inst.links
    t = links.c / z_ref[links.seg]
    slope = 2.0**t * (1.0 - t * _LN2) - 1.0
    rho = links.per_uav(_rate_scale(links) * links.coeff * np.abs(slope))
    rho = np.where(np.isfinite(rho) & (rho > 0), rho, 1e-300)
    return rho, float(np.median(rho))


class KktSystem:
    """The optimality system of `kkt_residuals` in the unknowns that
    `solve_kkt` iterates on, with its analytic Jacobian.

    x stacks, per serving UAV, zt = z / Z; per link, pt = P / p_scale; per
    serving UAV, s_cap; per link, s_pmax; then s_budget; and per link,
    s_rate. Multipliers are squares of these (lam_rb_cap = sigma_mult *
    s_cap**2, lam_pmax = s_pmax**2, lam_budget = sigma_mult * s_budget**2,
    lam_rate = sigma_rate * s_rate**2), so iterates stay sign-feasible. Row
    k of `residual` is row k of `kkt_residuals` divided by `row_scale[k]`;
    the RB-stationarity rows are normalized at the RB counts of `center`,
    and powers by its largest link power `p_scale`. Scaling rows and
    unknowns by positive constants leaves the roots unchanged.
    """

    def __init__(self, inst: RaInstance, center: KktPoint):
        links = self.links = inst.links
        self.inst = inst
        self.p_scale = float(center.power.max())
        self.big_z = float(inst.total_rbs)
        z_ref = np.clip(center.z[links.uavs], Z_MIN_ACTIVE, self.big_z)
        self.rho, self.sigma_mult = _row_scales(inst, z_ref)
        self.sigma_rate = _rate_scale(links)
        n_u, n_p = len(links.uavs), len(links.ch)
        cols = np.cumsum([0, n_u, n_p, n_u, n_p, 1])  # block starts in x
        self._blocks = [slice(a, b) for a, b in zip(cols, [*cols[1:], None])]
        self.size = 2 * n_u + 3 * n_p + 1
        # the Jacobian's nonzeros as one flat index, in the order `jacobian`
        # lists their values; no position repeats
        cz, cp, cc, cg, cb, cr = cols
        r_cap, r_pmax, r_budget, r_stat_p, r_stat_z, r_rate = np.cumsum([0, n_u, n_p, 1, n_p, n_u])
        iu, ip, seg = np.arange(n_u), np.arange(n_p), links.seg
        at = [  # (row, column) per entry
            (r_cap + iu, cz + iu), (r_cap + iu, cc + iu),
            (r_pmax + ip, cp + ip), (r_pmax + ip, cg + ip),
            (np.full(n_u, r_budget), cz + iu), ([r_budget], [cb]),
            (r_stat_p + ip, cg + ip), (r_stat_p + ip, cr + ip),
            (r_stat_z + iu, np.full(n_u, cb)), (r_stat_z + iu, cc + iu),
            (r_stat_z + seg, cr + ip), (r_stat_z + iu, cz + iu),
            (r_rate + ip, cz + seg), (r_rate + ip, cp + ip), (r_rate + ip, cr + ip),
        ]
        self._jac_at = np.ravel_multi_index(
            (np.concatenate([r for r, _ in at]), np.concatenate([c for _, c in at])),
            (self.size, self.size))

    @property
    def row_scale(self) -> np.ndarray:
        """Per row, the factor that turns `residual` into `kkt_residuals`."""
        n_u, n_p = len(self.links.uavs), len(self.links.ch)
        return np.concatenate([
            np.full(n_u, self.sigma_mult * self.big_z), np.full(n_p, self.inst.pmax),
            [self.sigma_mult * self.big_z], self.links.weight, self.rho,
            self.p_scale * self.sigma_rate,
        ])

    def _split(self, x: np.ndarray):
        zt, pt, s_cap, s_pmax, s_budget, s_rate = (x[b] for b in self._blocks)
        return zt, pt, s_cap, s_pmax, s_budget[0], s_rate

    def _link_terms(self, zt: np.ndarray):
        """Per link at z = zt * Z: required power, its z-slope over coeff
        (`rb_term_derivative`) and that slope's z-derivative."""
        links = self.links
        z_link = zt[links.seg] * self.big_z
        t = links.c / z_link
        e = 2.0**t
        req = links.coeff * (e - 1.0) * z_link
        slope = e * (1.0 - t * _LN2) - 1.0
        bend = e * (t * _LN2) ** 2 / z_link
        return req, slope, bend

    @np.errstate(over="ignore", invalid="ignore")
    def residual(self, x: np.ndarray) -> np.ndarray:
        zt, pt, s_cap, s_pmax, s_budget, s_rate = self._split(x)
        if zt.min() <= 1e-9 or zt.max() > 10.0:
            return np.full(self.size, np.inf)  # far off the feasible region; reject the step
        links, inst, p_scale = self.links, self.inst, self.p_scale
        req, slope, _ = self._link_terms(zt)
        lam_rate = self.sigma_rate * s_rate**2
        res = np.concatenate([
            s_cap**2 * (zt - 1.0),
            s_pmax**2 * (pt * p_scale - inst.pmax) / inst.pmax,
            [s_budget**2 * (float(np.sum(zt)) - 1.0)],
            (links.weight + s_pmax**2 - lam_rate) / links.weight,
            (self.sigma_mult * (s_budget**2 - s_cap**2)
             + links.per_uav(lam_rate * links.coeff * slope)) / self.rho,
            s_rate**2 * (req - pt * p_scale) / p_scale,
        ])
        return res if np.all(np.isfinite(res)) else np.full(self.size, np.inf)

    @np.errstate(over="ignore", invalid="ignore")
    def jacobian(self, x: np.ndarray) -> np.ndarray:
        zt, pt, s_cap, s_pmax, s_budget, s_rate = self._split(x)
        links, inst, p_scale, rho = self.links, self.inst, self.p_scale, self.rho
        req, slope, bend = self._link_terms(zt)
        seg, w, n_u = links.seg, links.weight, len(zt)
        values = np.concatenate([
            # 1. s_cap**2 * (zt - 1)
            s_cap**2, 2.0 * s_cap * (zt - 1.0),
            # 2. s_pmax**2 * (pt * p_scale - pmax) / pmax
            s_pmax**2 * p_scale / inst.pmax,
            2.0 * s_pmax * (pt * p_scale - inst.pmax) / inst.pmax,
            # 3. s_budget**2 * (sum zt - 1)
            np.full(n_u, s_budget**2), [2.0 * s_budget * (float(np.sum(zt)) - 1.0)],
            # 4. (w + s_pmax**2 - sigma_rate * s_rate**2) / w
            2.0 * s_pmax / w, -2.0 * self.sigma_rate * s_rate / w,
            # 5. (sigma_mult * (s_budget**2 - s_cap**2)
            #     + sum_k sigma_rate * s_rate**2 * coeff * slope(Z zt)) / rho
            2.0 * self.sigma_mult * s_budget / rho, -2.0 * self.sigma_mult * s_cap / rho,
            2.0 * self.sigma_rate * s_rate * links.coeff * slope / rho[seg],
            links.per_uav(self.sigma_rate * s_rate**2 * links.coeff * bend) * self.big_z / rho,
            # 6. s_rate**2 * (req(Z zt) - pt * p_scale) / p_scale
            s_rate**2 * links.coeff * slope * self.big_z / p_scale, -s_rate**2,
            2.0 * s_rate * (req - pt * p_scale) / p_scale,
        ])
        jac = np.zeros(self.size * self.size)
        jac[self._jac_at] = values
        return jac.reshape(self.size, self.size)

    def decode(self, x: np.ndarray) -> KktPoint:
        zt, pt, s_cap, s_pmax, s_budget, s_rate = self._split(x)
        links, inst = self.links, self.inst
        z = np.zeros(inst.num_uavs)
        lam_rb_cap = np.zeros(inst.num_uavs)
        z[links.uavs] = zt * self.big_z
        lam_rb_cap[links.uavs] = self.sigma_mult * s_cap**2
        power = np.zeros((inst.num_chs, inst.num_uavs))
        lam_pmax = np.zeros((inst.num_chs, inst.num_uavs))
        lam_rate = np.zeros((inst.num_chs, inst.num_uavs))
        power[links.ch, links.uav] = pt * self.p_scale
        lam_pmax[links.ch, links.uav] = s_pmax**2
        lam_rate[links.ch, links.uav] = self.sigma_rate * s_rate**2
        return KktPoint(z=z, power=power, lam_rb_cap=lam_rb_cap, lam_pmax=lam_pmax,
                        lam_budget=self.sigma_mult * s_budget**2, lam_rate=lam_rate)

    def encode(self, point: KktPoint) -> np.ndarray:
        links = self.links
        return np.concatenate([
            np.clip(point.z[links.uavs], Z_MIN_ACTIVE, 9.0 * self.big_z) / self.big_z,
            point.power[links.ch, links.uav] / self.p_scale,
            np.sqrt(np.maximum(point.lam_rb_cap[links.uavs], 0.0) / self.sigma_mult),
            np.sqrt(np.maximum(point.lam_pmax[links.ch, links.uav], 0.0)),
            [math.sqrt(max(point.lam_budget, 0.0) / self.sigma_mult)],
            np.sqrt(np.maximum(point.lam_rate[links.ch, links.uav], 0.0) / self.sigma_rate),
        ])


def _initial_point(inst: RaInstance, z_serving: np.ndarray, lam_budget: float,
                   lam_rb_cap: float) -> KktPoint:
    """Tight delivery powers at z_serving blocks per serving UAV, delivery
    multipliers at their expected sizes, link cap multipliers near 0, and
    the budget and per-UAV RB cap multipliers as given."""
    links = inst.links
    z = np.zeros(inst.num_uavs)
    z[links.uavs] = z_serving
    lam_rb_caps = np.zeros(inst.num_uavs)
    lam_rb_caps[links.uavs] = lam_rb_cap
    lam_pmax = np.zeros((inst.num_chs, inst.num_uavs))
    lam_pmax[links.ch, links.uav] = 1e-6
    lam_rate = np.zeros((inst.num_chs, inst.num_uavs))
    lam_rate[links.ch, links.uav] = _rate_scale(links)
    return KktPoint(z=z, power=_powers_for(inst, z), lam_rb_cap=lam_rb_caps,
                    lam_pmax=lam_pmax, lam_budget=lam_budget, lam_rate=lam_rate)


def _kkt_starts(inst: RaInstance) -> Iterator[KktPoint]:
    """The two start points of `solve_kkt`, made one at a time in the order
    tried. Each puts every serving UAV at its cap floor plus a share of the
    blocks the floors leave over, so both keep the power caps: first the
    share of a small-exponent warm start, then an even share.

    The warm start sets the budget multiplier at sigma, the median size of
    the RB-stationarity rows there (`_row_scales`), and the RB cap
    multipliers at 1e-6 * sigma, so every entry of its scaled residual is
    O(1); absolute values of 1e-6 against sigma ~ 1e-9 put the cap rows
    near 4e2 and cost LM ~10 iterations. The even start keeps absolute 1e-6
    multipliers: it is the fallback for the binding-cap instances the warm
    start misses. Smaller even shares never win on the benchmark pool or
    on its binding-cap variants."""
    links = inst.links
    floors = _cap_floors(inst)
    spare = max(float(inst.total_rbs) - floors.sum(), 0.0)
    # small-exponent approximation: per-UAV cost ~ const + K/z, so equalized
    # marginal costs put z proportional to sqrt(K); a strong warm start
    # whenever packets are far from saturating their links
    k_load = np.maximum(
        links.per_uav(_rate_scale(links) * links.coeff * (links.c * _LN2) ** 2 / 2.0), 1e-300)
    warm = floors + spare * np.sqrt(k_load) / np.sum(np.sqrt(k_load))
    sigma = _row_scales(inst, warm)[1]
    yield _initial_point(inst, warm, sigma, 1e-6 * sigma)
    yield _initial_point(inst, floors + spare / len(floors), 1e-6, 1e-6)


def solve_kkt(inst: RaInstance) -> tuple[RaSolution, KktPoint]:
    """Solve the optimality system by Levenberg-Marquardt root finding.

    Runs LM once from each of `_kkt_starts`, on the rescaled unknowns of
    `KktSystem` with its analytic Jacobian, and returns the first point with
    ||kkt_residuals|| <= 1e-8 and feasibility within 1e-9; else a
    SolverConvergenceError reports the best residual norm reached. Power
    caps that no allocation meets raise InfeasibleInstanceError, decided by
    the cap floors as in `solve_reduced`.
    """
    if not len(inst.links.ch):
        return _trivial_solution(inst)
    best_norm = math.inf
    for start in _kkt_starts(inst):
        system = KktSystem(inst, start)
        result = lma.solve(system.residual, system.encode(start), jacobian=system.jacobian)
        point = system.decode(result.solution)
        point.accepted_costs = result.accepted_costs
        try:
            point.residuals = kkt_residuals(point, inst)
        except (ValueError, OverflowError):
            continue
        norm = float(np.linalg.norm(point.residuals))
        best_norm = min(best_norm, norm)
        if norm <= 1e-8 and max_feasibility_violation(inst, point) <= 1e-9:
            return RaSolution(z=point.z.copy(), power=point.power.copy(),
                              objective=objective_value(inst, point.power)), point

    raise SolverConvergenceError(
        f"optimality system not solved to tolerance (best residual norm {best_norm:.3e})",
        residual_norm=best_norm,
    )


# ---------------------------------------------------------------------------
# reduced solver (independent of the LMA route)
# ---------------------------------------------------------------------------

def _z_at_level(links: LinkView, mu: float, z_min: np.ndarray, z_max: np.ndarray,
                mu_full: np.ndarray, mu_floor: np.ndarray) -> np.ndarray:
    """Per serving UAV, the z where the marginal cost is -mu, clamped to the
    box [floors, Z]: at mu <= mu_full a UAV takes all of Z, at mu >= mu_floor
    it stays at its floor. [z_min, z_max] brackets the answer: the z of a
    higher and of a lower level (z falls as mu rises), or [floors, Z] when
    no level is known yet. Newton steps on log(-marginal) over log z start
    at z_max, are safeguarded by each UAV's bracket, and stop once no z moves
    by more than 1e-10 relative; the error is then at the marginal's
    rounding noise."""
    free = (mu_full < mu) & (mu < mu_floor)
    lo, z, hi = z_min, z_max, z_max
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
    return np.where(mu >= mu_floor, z_min, z)


@np.errstate(over="ignore", invalid="ignore")
def solve_reduced(inst: RaInstance) -> RaSolution:
    """Convex minimization after eliminating powers via tight delivery.

    The remaining cost is separable and strictly decreasing in each z_u, so
    the whole RB budget is spent; the optimum equalizes per-UAV marginal
    costs at a shared level mu found by bisection. z falls as mu rises, so
    the allocations at the bracket's two levels bracket every UAV's z at the
    next level, and each level's Newton solve starts inside that bracket.
    Power caps become per-UAV floors on z; the instance is feasible iff
    they fit in the budget.
    """
    links = inst.links
    if not len(links.ch):
        return _trivial_solution(inst)[0]
    big_z = float(inst.total_rbs)
    floors = _cap_floors(inst)
    z_full = np.full_like(floors, big_z)
    mu_full = -links.slopes(z_full)[0]
    mu_floor = -links.slopes(floors)[0]
    # at mu = lo some UAV takes all of Z; at mu = hi every UAV takes at most
    # its floor plus an even share of the slack, so the level lies between
    lo = float(mu_full.min())
    hi = float(-links.slopes(floors + (big_z - floors.sum()) / len(floors))[0].min())
    # z at levels lo and hi once solved; [floors, Z] brackets every level
    z_lo, z_hi = z_full, floors
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        z_mid = _z_at_level(links, mid, z_hi, z_lo, mu_full, mu_floor)
        if z_mid.sum() > big_z:
            lo, z_lo = mid, z_mid
        else:
            hi, z_hi = mid, z_mid
    z_serving = _z_at_level(links, hi, z_hi, z_lo, mu_full, mu_floor)
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
    return RaSolution(z=z, power=power, objective=objective_value(inst, power))


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
