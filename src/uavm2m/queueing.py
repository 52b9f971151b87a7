"""Arrival statistics, queue recursion, and Monte Carlo backlog simulation.

Each cluster head (CH) queues packets fired by its members: every member
transmits with probability p per slot, so per-slot arrivals are
Binomial(members, p). Service is a per-slot capacity mu * (total dwell the
CH receives), and the backlog follows

    Q[t+1] = max(Q[t] - service, 0) + arrivals[t].
"""

from __future__ import annotations

import math
import os
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
        # the CSV writer reads the values' float64 bits
        object.__setattr__(self, "backlog", np.asarray(self.backlog, dtype=np.float64))
        if self.backlog.ndim != 2 or self.backlog.shape[1] != self.horizon + 1:
            raise ValueError(f"backlog must have shape (num_chs, horizon + 1 = "
                             f"{self.horizon + 1}), got {self.backlog.shape}")
        # min and max propagate NaN, which then fails both tests
        if not (self.backlog.min(initial=0.0) >= 0 and self.backlog.max(initial=0.0) < np.inf):
            raise ValueError("backlog must be finite and nonnegative")

    @property
    def num_chs(self) -> int:
        return self.backlog.shape[0]

    def final_rates(self) -> np.ndarray:
        """Q[g, horizon] / horizon for each CH."""
        return self.backlog[:, -1] / self.horizon


def _inversion_terms(n: int, p: float) -> list[float]:
    """The pmf terms px_0..px_bound of numpy's Binomial inversion sampler, p <= 0.5.

    `Generator.binomial` draws Binomial(n, p) with n*p <= 30 by inversion
    (`random_binomial_inversion` in numpy's distributions.c). The terms here
    follow its C expressions in its C order, so they are the same doubles.
    """
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = [math.exp(n * math.log1p(-p))]
    for x in range(1, bound + 1):
        px.append(((n - x + 1) * p * px[-1]) / (x * q))
    return px


def _inversion_loop(u: float, terms: list[float]) -> int:
    """numpy's inversion loop on the one uniform u: `X = 0, px = qn; while
    U > px: X += 1, U -= px, px = next term`. Returns len(terms) where numpy
    passes the last term and restarts on a fresh uniform."""
    for x, px in enumerate(terms):
        if u <= px:
            return x
        u -= px
    return len(terms)


# cells of the lookup table over [0, 1): a uniform in a cell with no partial
# sum near it takes the cell's draw; the few in other cells are searched. The
# table stays at 2 KB: with 32 KB per-CH tables the heap fragmented and the
# trace workload's peak memory crept up with each export.
_CELLS = 256
# The loop passes step k exactly where U exceeds a stopping point t_k, as each
# `U -= px` is monotone in U. t_k lies within about 2(k + 1) rounding errors
# (< 1e-13 for the at most 86 terms, n*p <= 30) of the partial sum S_k, so a
# uniform more than this margin from every S_k draws the number of S_k below it.
_MARGIN = 2.0**-38
_CELL_LO = np.arange(_CELLS) / _CELLS - _MARGIN
_CELL_HI = np.arange(1, _CELLS + 1) / _CELLS + _MARGIN


def _binomial_draws(rng: np.random.Generator, members: int, p: float, uniforms: np.ndarray,
                    cells: np.ndarray, out: np.ndarray) -> np.ndarray | None:
    """`rng.binomial(members, p, out.size)` into the float64 buffer `out`, bit for
    bit and with the same stream use, from one vectorized uniform draw into
    `uniforms` (float64), whose table cells go to `cells` (intp); the three
    buffers are the caller's and of one length. Returns `out`, or None where
    numpy would not invert (BTPE for members * min(p, 1 - p) > 30) or would
    restart on an extra uniform (a uniform past the last term)."""
    if members == 0 or p == 0.0:
        out.fill(0.0)
        return out
    flip = p > 0.5  # numpy draws n - Binomial(n, 1 - p)
    pe = 1.0 - p if flip else p
    if pe * members > 30.0:
        return None
    terms = _inversion_terms(members, pe)
    # summed in order; no uniform is near the infinite last sum, which ends
    # every search
    sums = np.cumsum(terms + [math.inf])
    u = rng.random(out=uniforms)
    # a cell's draw where no sum lies within the margin of the cell, else NaN
    lo = np.searchsorted(sums, _CELL_LO)
    table = np.where(lo == np.searchsorted(sums, _CELL_HI), lo, np.nan)
    np.multiply(u, _CELLS, out=cells, casting="unsafe")  # exact, then truncated
    # every cell is in range; mode="raise" would take into a temporary copy of out
    table.take(cells, out=out, mode="clip")
    searched = np.flatnonzero(np.isnan(out))
    v = u[searched]
    lo = np.searchsorted(sums, v - _MARGIN)
    out[searched] = lo
    for i in np.flatnonzero(sums[lo] < v + _MARGIN):  # near a sum: numpy's loop decides
        out[searched[i]] = _inversion_loop(v[i], terms)
    if out.max() == len(terms):  # a draw passed the last term: numpy restarts
        return None
    if flip:
        np.subtract(members, out, out=out)
    return out


def _arrivals_for(seed: int, ch: int, members: int, p: float, uniforms: np.ndarray,
                  cells: np.ndarray, out: np.ndarray) -> np.ndarray:
    """CH `ch`'s arrivals into `out`, on the buffers of `_binomial_draws`."""
    # one deterministic substream per (seed, CH): CHs drawn on any worker
    # reproduce the serial draws bit-exactly
    seq = np.random.SeedSequence([seed, ch])
    if _binomial_draws(np.random.default_rng(seq), members, p, uniforms, cells, out) is None:
        out[:] = np.random.default_rng(seq).binomial(members, p, size=out.size)
    return out


def _integer_offered(capacity: float, horizon: int) -> np.ndarray:
    # whole packets per slot, carrying the fractional remainder forward
    cum = np.floor(capacity * np.arange(1, horizon + 1) + 1e-12)
    return np.diff(np.concatenate(([0.0], cum)))


def _backlog_path(arrivals: np.ndarray, service: float | np.ndarray, out: np.ndarray,
                  prefix: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of Q[t+1] = max(Q[t] - service[t], 0) + arrivals[t]
    into `out` (length horizon + 1), which is returned. `service` is one
    capacity for every slot or an array of per-slot service.

    Uses the reflected-walk identity: with U[t] = Q[t] - arrivals[t-1] (the
    backlog left after service, before the slot's arrivals), U follows a
    plain Lindley recursion whose solution is prefix-sum minus running min.
    The caller's `prefix` buffer (length horizon) is the only scratch; `fmin`
    equals `minimum` on the NaN-free prefix (service is finite) and skips its
    NaN propagation.
    """
    out[0] = 0.0
    horizon = arrivals.shape[0]
    if horizon == 0:
        return out
    # prefix[k] = sum of increments X[j] = arrivals[j-1] - service[j], j = 1..k
    prefix[0] = 0.0
    np.subtract(arrivals[:-1], service[1:] if isinstance(service, np.ndarray) else service,
                out=prefix[1:])
    np.cumsum(prefix[1:], out=prefix[1:])
    q = out[1:]
    np.fmin.accumulate(prefix, out=q)
    np.subtract(prefix, q, out=q)
    q += arrivals
    return out


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    The CHs run on n = min(CPUs in the process's CPU set, CH count) workers:
    worker i simulates CHs i, i + n, ..., the calling thread being worker 0
    and a thread pool made for the call running the rest. Each CH draws from
    its own substream and writes only its own row, so the backlog bytes do
    not depend on n.
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
    num_chs = scenario.num_clusters
    workers = min(_cpu_count(), num_chs)
    backlog = np.empty((num_chs, horizon + 1))
    # each worker's scratch is allocated here: buffers a pool thread allocated
    # would come from its own malloc arena and raise the process's peak memory
    floats = np.empty((workers, 3, horizon))  # uniforms, arrivals, prefix
    cells = np.empty((workers, horizon), dtype=np.intp)

    def run(worker: int) -> None:
        uniforms, arrivals, prefix = floats[worker]
        for g in range(worker, num_chs, workers):
            _arrivals_for(seed, g, scenario.clusters[g].members, scenario.p_tx,
                          uniforms, cells[worker], arrivals)
            service = _integer_offered(capacity[g], horizon) if integer_service else capacity[g]
            _backlog_path(arrivals, service, backlog[g], prefix)

    # imported here, as its import of logging would add ~4 ms to every
    # `import uavm2m`; a pool thread starts per submitted worker, so with one
    # worker none does
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run, w) for w in range(1, workers)]
        run(0)
        for future in futures:
            future.result()
    backlog.setflags(write=False)
    return QueueTrace(backlog=backlog, horizon=horizon, seed=seed)


def is_rate_stable(trace: QueueTrace, epsilon: float) -> bool:
    """True iff max_g Q[g, horizon] / horizon < epsilon.

    Requires horizon >= 1000 so the ratio is a meaningful rate estimate.
    """
    if trace.horizon < 1000:
        raise ValueError(f"horizon must be >= 1000 for a stability verdict, got {trace.horizon}")
    return bool(np.max(trace.final_rates()) < epsilon)


# slots per block, the unit that is sorted and formatted once per distinct
# string (~41k values at 20 CHs), and slots per write, which bounds the row
# pieces and text held at once
_TRACE_BLOCK_SLOTS = 2048
_TRACE_WRITE_SLOTS = 512
# 10**k for k in [0, 22], the powers of ten that are exact doubles
_POW10 = np.array([float(10**k) for k in range(23)])


def _format_lines(x: np.ndarray) -> list[str]:
    """`"%.9g\\n" % v` for each value, from one `%` call on a repeated template."""
    return (("%.9g\n" * x.size) % tuple(x.tolist())).splitlines(keepends=True)


def _nine_digit_lines(values: np.ndarray) -> np.ndarray:
    """`f"{x:.9g}\\n"` for each value of a 1-D float64 array of values >= 0,
    as an object array, formatting each distinct string once, bar rare values.

    With k = 8 - floor(log10 x) clipped to [0, 22] and y = x * 10**k, x is
    safe when 1e8 <= y, rint(y) <= 1e9 and y is more than 2**-22 from a
    half-integer. A safe x keys on (rint(y), k), which fixes its string (see
    `write_trace_csv`). The rest (zeros, dust below ~1e-14, values from ~1e9
    up, near-ties) key on their bits, so -0.0 ('-0') and 0.0 ('0') stay
    apart. One value per key is formatted, in array order, so the strings
    lie in memory about in the order the rows read them (in value order,
    distinct values were written ~20% slower, from cache misses).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.clip(8.0 - np.floor(np.log10(values)), 0.0, 22.0)
        y = _POW10[k.astype(np.intp)] * values
        m = np.rint(y)
        safe = (y >= 1e8) & (m <= 1e9) & (np.abs(y - m) < 0.5 - 2.0**-22)
        # (rint(y), k) as one integer below 2**35; inverted, it lies in
        # [-2**35, -1], where no bits of a value >= 0 (or -0.0) lie
        key = np.where(safe, ~(m + k * 2.0**30).astype(np.int64), values.view(np.int64))
    del k, y, m, safe  # freed before the strings are built
    order = np.argsort(key)
    key = key[order]
    new = np.empty(key.size, dtype=bool)  # where each key starts, in sorted order
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    heads = order[new]  # one value of each key
    head = np.zeros(key.size, dtype=bool)
    head[heads] = True
    lines = _format_lines(values[head])
    rows = np.empty(key.size, dtype=np.intp)
    rows[order] = (np.cumsum(head)[heads] - 1)[np.cumsum(new) - 1]  # each key's line
    return np.array(lines, dtype=object)[rows]


def write_trace_csv(trace: QueueTrace, out: IO[str]) -> None:
    """Emit `slot,ch_id,backlog` rows for the whole trace, slot-major, in
    blocks of `_TRACE_BLOCK_SLOTS` slots written `_TRACE_WRITE_SLOTS` at a time.

    Each block goes through `_nine_digit_lines`, which formats each distinct
    9-digit string once; the rows are joined from the slot number, the CH id
    and that string. This is exact because a safe key is the correctly
    rounded mantissa: 10**k is an exact double and y < 2**30, so y is within
    2**-24 of P = x * 10**k, and as y is more than 2**-22 from a
    half-integer, P rounds to rint(y) with no tie. So x to 9 significant
    digits is rint(y) * 10**-k (also where P < 1e8 <= y: x then rounds up
    to 1e8 * 10**-k). Correctly rounded '%.9g' (Gay, "Correctly rounded
    binary-decimal and decimal-binary conversions", 1990) prints that number
    in a form set by its exponent alone, so one key prints one string.
    '%.9g' and f'{x:.9g}' use the same float conversion, so the bytes equal
    a per-row f-string loop's.
    """
    out.write("slot,ch_id,backlog\n")
    num_chs = trace.num_chs
    ch_ids = [f"{g}," for g in range(num_chs)]
    block_slots, write_slots = _TRACE_BLOCK_SLOTS, _TRACE_WRITE_SLOTS
    for a in range(0, trace.horizon + 1, block_slots):
        block = trace.backlog[:, a:a + block_slots].T
        lines = _nine_digit_lines(block.ravel()).reshape(block.shape)
        for c in range(0, block.shape[0], write_slots):
            rows = lines[c:c + write_slots]
            # per row: slot number, CH id, value string; made per write, as a
            # buffer reused across writes raised peak memory ~5 MB over
            # repeated exports in one process
            pieces = np.empty((*rows.shape, 3), dtype=object)
            pieces[:, :, 0] = np.array([f"{t}," for t in range(a + c, a + c + rows.shape[0])],
                                       dtype=object)[:, None]
            pieces[:, :, 1] = ch_ids
            pieces[:, :, 2] = rows
            out.write("".join(pieces.ravel().tolist()))
