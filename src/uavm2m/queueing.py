"""Arrival statistics, queue recursion, and Monte Carlo backlog simulation.

Each cluster head (CH) queues packets fired by its members: every member
transmits with probability p per slot, so per-slot arrivals are
Binomial(members, p). Service is a per-slot capacity mu * (total dwell the
CH receives), and the backlog follows

    Q[t+1] = max(Q[t] - service, 0) + arrivals[t].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .model import ClusterScenario, DwellMatrix


def arrival_pmf(members: int, p: float, n: int) -> float:
    """P(exactly n of `members` fire in a slot) = C(members,n) p^n (1-p)^(members-n)."""
    if members < 0:
        raise ValueError(f"members must be >= 0, got {members}")
    if not (0 <= p <= 1):
        raise ValueError(f"p must be in [0, 1], got {p}")
    if not (0 <= n <= members):
        raise ValueError(f"n must be in [0, {members}], got {n}")
    return math.comb(members, n) * p**n * (1.0 - p) ** (members - n)


def mean_arrival(members: int, p: float) -> float:
    """Expected packets per slot: p * members."""
    if members < 0:
        raise ValueError(f"members must be >= 0, got {members}")
    if not (0 <= p <= 1):
        raise ValueError(f"p must be in [0, 1], got {p}")
    return p * members


def arrival_rates(scenario: ClusterScenario) -> np.ndarray:
    """Per-CH mean arrival rates (packets/slot) of a scenario."""
    return scenario.p_tx * scenario.member_counts()


def step_queue(q: float, departures: float, arrivals: float) -> float:
    """One slot of the backlog recursion: max(q - departures, 0) + arrivals."""
    if q < 0 or departures < 0 or arrivals < 0:
        raise ValueError(f"queue inputs must be nonnegative, got ({q}, {departures}, {arrivals})")
    return max(q - departures, 0.0) + arrivals


@dataclass(frozen=True, eq=False)
class QueueTrace:
    """Backlog trajectories Q[g, t] for t = 0..horizon, Q[g, 0] = 0."""

    backlog: np.ndarray  # shape (num_chs, horizon + 1)
    horizon: int
    seed: int

    def __post_init__(self):
        if self.backlog.shape[1] != self.horizon + 1:
            raise ValueError("backlog length must be horizon + 1")
        # min and max propagate NaN, which then fails both tests
        if not (self.backlog.min(initial=0.0) >= 0 and self.backlog.max(initial=0.0) < np.inf):
            raise ValueError("backlog must be finite and nonnegative")

    @property
    def num_chs(self) -> int:
        return self.backlog.shape[0]

    def final_rates(self) -> np.ndarray:
        """Q[g, horizon] / horizon for each CH."""
        return self.backlog[:, -1] / self.horizon


def _inversion_cuts(n: int, p: float) -> list[float]:
    """Cut points t_0 <= ... <= t_bound of numpy's Binomial inversion sampler, p <= 0.5.

    `Generator.binomial` draws Binomial(n, p) with n*p <= 30 by inversion
    (`random_binomial_inversion` in numpy's distributions.c): one uniform U,
    then `X = 0, px = qn; while U > px: X += 1, U -= px, px = next pmf term`,
    restarting on a fresh uniform once X passes `bound`. Each `U -= px` is
    monotone in U, so the loop passes step k exactly when U > t_k, t_k being
    the largest double at which it stops by step k, and the draw is the
    number of cuts below U. The pmf terms follow the C expressions in the
    C order, so they are the same doubles; each cut starts at the partial sum
    and moves a few ulps until the sequential residual agrees.
    """
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = [qn]
    for x in range(1, bound + 1):
        px.append(((n - x + 1) * p * px[-1]) / (x * q))

    def stops_by(u: float, k: int) -> bool:
        for term in px[:k]:
            u -= term
        return u <= px[k]

    cuts, partial, cut = [], 0.0, 0.0
    for k in range(bound + 1):
        partial += px[k]
        t = partial
        while not stops_by(t, k):
            t = math.nextafter(t, -math.inf)
        while stops_by(math.nextafter(t, math.inf), k):
            t = math.nextafter(t, math.inf)
        cut = max(cut, t)
        cuts.append(cut)
    return cuts


# cells of the lookup table over [0, 1): a uniform in a cell that holds no
# cut takes the cell's draw; the few in cells with a cut are searched. The
# table stays at 2 KB: with 32 KB per-CH tables the heap fragmented and the
# trace workload's peak memory crept up with each export.
_CELLS = 256


def _binomial_draws(rng: np.random.Generator, members: int, p: float,
                    size: int) -> np.ndarray | None:
    """`rng.binomial(members, p, size).astype(float)`, bit for bit and with the
    same stream use, from one vectorized uniform draw; None where numpy would
    not invert (BTPE for members * min(p, 1 - p) > 30) or would restart on an
    extra uniform (a uniform above the last cut)."""
    if members == 0 or p == 0.0:
        return np.zeros(size)
    flip = p > 0.5  # numpy draws n - Binomial(n, 1 - p)
    pe = 1.0 - p if flip else p
    if pe * members > 30.0:
        return None
    # scaling by a power of two is exact, so comparisons keep their outcome
    cuts = np.array(_inversion_cuts(members, pe)) * _CELLS
    u = rng.random(size)
    u *= _CELLS
    if u.max() > cuts[-1]:
        return None
    below = np.searchsorted(cuts, np.arange(_CELLS + 1.0))  # cuts under each cell start
    table = np.where(below[1:] == below[:-1], below[:-1], np.nan)
    draws = table[u.astype(np.intp)]
    cut_cells = np.flatnonzero(np.isnan(draws))
    draws[cut_cells] = np.searchsorted(cuts, u[cut_cells])
    return members - draws if flip else draws


def _arrivals_for(seed: int, ch: int, members: int, p: float, horizon: int) -> np.ndarray:
    # one deterministic substream per (seed, CH): parallel replications
    # reproduce the serial draws bit-exactly
    seq = np.random.SeedSequence([seed, ch])
    draws = _binomial_draws(np.random.default_rng(seq), members, p, horizon)
    if draws is None:
        draws = np.random.default_rng(seq).binomial(members, p, size=horizon).astype(float)
    return draws


def _integer_offered(capacity: float, horizon: int) -> np.ndarray:
    # whole packets per slot, carrying the fractional remainder forward
    cum = np.floor(capacity * np.arange(1, horizon + 1) + 1e-12)
    return np.diff(np.concatenate(([0.0], cum)))


def _backlog_path(arrivals: np.ndarray, service: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of Q[t+1] = max(Q[t] - service[t], 0) + arrivals[t]
    into `out` (length horizon + 1), which is returned.

    Uses the reflected-walk identity: with U[t] = Q[t] - arrivals[t-1] (the
    backlog left after service, before the slot's arrivals), U follows a
    plain Lindley recursion whose solution is prefix-sum minus running min.
    One prefix buffer is the only temporary; `fmin` equals `minimum` on the
    NaN-free prefix (service is finite) and skips its NaN propagation.
    """
    out[0] = 0.0
    horizon = arrivals.shape[0]
    if horizon == 0:
        return out
    # prefix[k] = sum of increments X[j] = arrivals[j-1] - service[j], j = 1..k
    prefix = np.empty(horizon)
    prefix[0] = 0.0
    np.subtract(arrivals[:-1], service[1:], out=prefix[1:])
    np.cumsum(prefix[1:], out=prefix[1:])
    q = out[1:]
    np.fmin.accumulate(prefix, out=q)
    np.subtract(prefix, q, out=q)
    q += arrivals
    return out


def simulate(
    scenario: ClusterScenario,
    plan: DwellMatrix,
    service_rate: float = 1.0,
    horizon: int = 10_000,
    seed: int = 0,
    integer_service: bool = False,
) -> QueueTrace:
    """Monte Carlo backlog simulation of every CH queue under a dwell plan.

    Each CH g gets per-slot service capacity service_rate * sum_u dwell[u, g];
    with integer_service=True only whole packets are served per slot, the
    fractional capacity remainder carrying over. Deterministic per seed.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= service_rate < math.inf:
        raise ValueError(f"service_rate must be finite and >= 0, got {service_rate}")
    if plan.num_clusters != scenario.num_clusters:
        raise ValueError(
            f"plan covers {plan.num_clusters} CHs but scenario has {scenario.num_clusters}"
        )
    capacity = service_rate * plan.total_per_ch()
    backlog = np.empty((scenario.num_clusters, horizon + 1))
    for g, cluster in enumerate(scenario.clusters):
        arrivals = _arrivals_for(seed, g, cluster.members, scenario.p_tx, horizon)
        if integer_service:
            service = _integer_offered(capacity[g], horizon)
        else:
            service = np.full(horizon, capacity[g])
        _backlog_path(arrivals, service, backlog[g])
    backlog.setflags(write=False)
    return QueueTrace(backlog=backlog, horizon=horizon, seed=seed)


def is_rate_stable(trace: QueueTrace, epsilon: float) -> bool:
    """True iff max_g Q[g, horizon] / horizon < epsilon.

    Requires horizon >= 1000 so the ratio is a meaningful rate estimate.
    """
    if trace.horizon < 1000:
        raise ValueError(f"horizon must be >= 1000 for a stability verdict, got {trace.horizon}")
    return bool(np.max(trace.final_rates()) < epsilon)


# slots formatted per write: ~20k rows at 20 CHs, a few hundred KB of text
_TRACE_BLOCK_SLOTS = 1024


def write_trace_csv(trace: QueueTrace, out: IO[str]) -> None:
    """Emit `slot,ch_id,backlog` rows for the whole trace, slot-major.

    Each block of slots is formatted by one `%` call on a row template that
    holds the CH ids as literals; '%.9g' and f'{x:.9g}' use the same float
    conversion, so the bytes equal a per-row f-string loop's.
    """
    out.write("slot,ch_id,backlog\n")
    num_chs = trace.num_chs
    slot_rows = "".join(f"%d,{g},%.9g\n" for g in range(num_chs))
    for a in range(0, trace.horizon + 1, _TRACE_BLOCK_SLOTS):
        block = trace.backlog[:, a:a + _TRACE_BLOCK_SLOTS].T
        slots = block.shape[0]
        args = [None] * (2 * block.size)
        args[0::2] = np.repeat(np.arange(a, a + slots), num_chs).tolist()
        args[1::2] = block.ravel().tolist()
        out.write((slot_rows * slots) % tuple(args))
