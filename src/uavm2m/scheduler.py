"""Dwelling-time planning: a feasible dwell matrix for given arrival rates
and the minimum UAV count for which one exists.

Feasibility means every CH's service rate covers its arrival rate while each
UAV spends at most one full slot dwelling. Total demand sum_g rate_g / mu
therefore fits into U unit budgets iff it is <= U. Both plans come from one
greedy sequential fill: CHs in ascending id order, each pouring its demand
into the current UAV until that UAV's budget is full, spilling the remainder
onto the next (a single CH may span several UAVs). The UAVs it opens are the
minimum fleet; float dust at a whole-number total can open one beyond the ceil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .model import DwellMatrix

# slack allowed when checking feasibility / verifying plans, absorbs float dust
_FEAS_EPS = 1e-9
# dwell entries below this fraction of a slot are subtraction dust, not visits
_DUST = 1e-12


class UnplannableRateError(ValueError):
    """The service rate mu is outside what a plan can hold: so large that a
    CH's demand, in slots, is dust, or so small that the total demand is
    infinite or too large to index."""


@dataclass(frozen=True)
class StabilityPlan:
    """A dwell matrix together with the per-CH service margin it achieves."""

    dwell: DwellMatrix
    uav_count: int
    slack: np.ndarray  # per CH: mu * total dwell - arrival rate

    def __post_init__(self):
        if self.dwell.num_uavs != self.uav_count:
            raise ValueError("dwell matrix row count must equal uav_count")
        if np.any(self.slack < -_FEAS_EPS):
            raise ValueError("plan has negative slack")


def _demand(arrival_rates: Sequence[float], mu: float,
            slack_target: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The checked rates, each CH's demand in slots (no margin without traffic)
    and the total demand, infinite where it overflows."""
    rates = np.asarray(arrival_rates, dtype=float)
    if rates.ndim != 1 or rates.size == 0:
        raise ValueError("arrival_rates must be a nonempty 1-D sequence")
    if not np.all((rates >= 0) & (rates < math.inf)):
        raise ValueError(f"arrival_rates must be finite and nonnegative, got {rates}")
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be finite and > 0, got {mu}")
    if not 0 <= slack_target < math.inf:
        raise ValueError(f"slack_target must be finite and >= 0, got {slack_target}")
    with np.errstate(over="ignore"):
        demand = (rates + np.where(rates > 0, slack_target, 0.0)) / mu
        return rates, demand, float(demand.sum())


def _fill(demand: np.ndarray) -> np.ndarray:
    """The greedy fill, one row per UAV it opens. A UAV opens only once the ones
    before it are full, so ceil(total) + 1 rows always hold it."""
    entries = np.zeros((math.ceil(demand.sum()) + 1, demand.size))
    u = 0
    budget = 1.0
    for g, remaining in enumerate(demand):
        # each pass either zeroes `remaining` (CH done) or zeroes `budget`
        # (next UAV); min/subtract pairs are exact, so no dust accumulates
        while remaining > 0:
            if budget <= 0:
                u += 1
                budget = 1.0
            pour = min(remaining, budget)
            entries[u, g] += pour
            remaining -= pour
            budget -= pour
    return entries[:u + 1]


def _plan(entries: np.ndarray, rates: np.ndarray, mu: float) -> StabilityPlan:
    # subtraction dust at UAV boundaries can leave ~1e-17 slivers that a later
    # stage would read as real (and unservable) visits; drop them
    entries[entries < _DUST] = 0.0
    served = mu * entries.sum(axis=0)
    short = np.flatnonzero(served < rates - _FEAS_EPS)
    if short.size:
        # only a service rate so large that a CH's whole demand is dust gets here
        g = int(short[0])
        raise UnplannableRateError(
            f"mu={mu:g} leaves CH {g} (arrival rate {rates[g]:g}) a dwell below "
            f"{_DUST:g} of a slot, which the plan cannot hold")
    return StabilityPlan(dwell=DwellMatrix(entries=entries), uav_count=len(entries),
                         slack=served - rates)


def find_dwell(
    arrival_rates: Sequence[float],
    uav_count: int,
    mu: float = 1.0,
    slack_target: float = 0.0,
) -> StabilityPlan | None:
    """Build a dwell matrix serving every CH at >= its arrival rate, or None
    if the fill needs more than `uav_count` UAVs.

    With slack_target > 0 every CH is served at rate >= arrival + slack_target
    (useful to demonstrate strictly stable queues in simulation). Raises
    UnplannableRateError, naming mu and the CH, when a CH's whole demand
    rate / mu is below the 1e-12-slot dust cut.
    """
    rates, demand, total = _demand(arrival_rates, mu, slack_target)
    if uav_count < 1:
        raise ValueError(f"uav_count must be >= 1, got {uav_count}")
    # the sum check bounds the fill's rows before it runs
    if total > uav_count + _FEAS_EPS or len(filled := _fill(demand)) > uav_count:
        return None
    return _plan(np.pad(filled, ((0, uav_count - len(filled)), (0, 0))), rates, mu)


def plan_min_fleet(
    arrival_rates: Sequence[float],
    mu: float = 1.0,
    slack_target: float = 0.0,
) -> StabilityPlan:
    """The dwell plan on the fewest UAVs that serve every CH with positive
    rate at >= its arrival rate + slack_target: the fill's plan on the UAVs it
    opens, 1 for all-zero rates (a collector is still deployed). Raises
    UnplannableRateError when the total demand is infinite or too large to
    index the fill's ceil(total) + 1 rows."""
    rates, demand, total = _demand(arrival_rates, mu, slack_target)
    if not (math.isfinite(total) and math.ceil(total) + 1 <= np.iinfo(np.intp).max):
        raise UnplannableRateError(f"arrival_rates / mu (mu={mu!r}) give a total demand of "
                                   f"{total!r} slots, more UAVs than a plan can index")
    return _plan(_fill(demand), rates, mu)


def min_uavs(arrival_rates: Sequence[float], mu: float = 1.0) -> int:
    """Smallest UAV count whose feasibility set is nonempty."""
    return plan_min_fleet(arrival_rates, mu).uav_count


def verify_plan(plan: StabilityPlan, arrival_rates: Sequence[float], mu: float = 1.0) -> bool:
    """Check all feasibility constraints within 1e-9: nonnegative entries,
    per-UAV budgets <= 1, and mu * total dwell >= arrival rate per CH."""
    rates = _demand(arrival_rates, mu, 0.0)[0]
    d = plan.dwell.entries
    if d.shape != (plan.uav_count, rates.size):
        return False
    if np.any(d < -_FEAS_EPS):
        return False
    if np.any(d.sum(axis=1) > 1 + _FEAS_EPS):
        return False
    return bool(np.all(mu * d.sum(axis=0) >= rates - _FEAS_EPS))


def write_plan_csv(plan: StabilityPlan, out: IO[str]) -> None:
    """Emit `uav_id,ch_id,dwell_fraction` rows (zeros omitted)."""
    out.write("uav_id,ch_id,dwell_fraction\n")
    d = plan.dwell.entries
    for u in range(d.shape[0]):
        for g in range(d.shape[1]):
            if d[u, g] > 0:
                out.write(f"{u},{g},{d[u, g]:.9g}\n")
