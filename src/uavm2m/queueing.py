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
        if np.any(self.backlog < 0):
            raise ValueError("backlog must be nonnegative")

    @property
    def num_chs(self) -> int:
        return self.backlog.shape[0]

    def final_rates(self) -> np.ndarray:
        """Q[g, horizon] / horizon for each CH."""
        return self.backlog[:, -1] / self.horizon


def _arrivals_for(seed: int, ch: int, members: int, p: float, horizon: int) -> np.ndarray:
    # one deterministic substream per (seed, CH): parallel replications
    # reproduce the serial draws bit-exactly
    rng = np.random.default_rng(np.random.SeedSequence([seed, ch]))
    return rng.binomial(members, p, size=horizon).astype(float)


def _integer_offered(capacity: float, horizon: int) -> np.ndarray:
    # whole packets per slot, carrying the fractional remainder forward
    cum = np.floor(capacity * np.arange(1, horizon + 1) + 1e-12)
    return np.diff(np.concatenate(([0.0], cum)))


def _backlog_path(arrivals: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of Q[t+1] = max(Q[t] - service[t], 0) + arrivals[t].

    Uses the reflected-walk identity: with U[t] = Q[t] - arrivals[t-1] (the
    backlog left after service, before the slot's arrivals), U follows a
    plain Lindley recursion whose solution is prefix-sum minus running min.
    """
    horizon = arrivals.shape[0]
    q = np.empty(horizon + 1)
    q[0] = 0.0
    if horizon == 0:
        return q
    # increments X[k] = arrivals[k-1] - service[k], k = 1..horizon-1
    x = arrivals[:-1] - service[1:]
    prefix = np.concatenate(([0.0], np.cumsum(x)))
    w = prefix - np.minimum.accumulate(prefix)
    q[1:] = w + arrivals
    return q


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
    if service_rate < 0:
        raise ValueError(f"service_rate must be >= 0, got {service_rate}")
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
        backlog[g] = _backlog_path(arrivals, service)
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
