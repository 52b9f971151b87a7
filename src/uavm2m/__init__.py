"""UAV fleet planning and uplink resource allocation for clustered M2M traffic."""

from .channel import (
    InfeasibleLinkError,
    achievable_bits,
    path_gain,
    required_power,
    snr_gap,
)
from .harness import (
    BaselineResult,
    BaselineSpec,
    PipelineResult,
    SweepSpec,
    run_baseline_comparison,
    run_pipeline,
    run_sweep,
)
from .lma import LmaResult
from .model import (
    C_LIGHT,
    Cluster,
    ClusterScenario,
    DwellMatrix,
    RadioParams,
    ScenarioFormatError,
    UavFleet,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .queueing import (
    QueueTrace,
    arrival_pmf,
    arrival_rates,
    is_rate_stable,
    mean_arrival,
    simulate,
    step_queue,
)
from .raopt import (
    InfeasibleInstanceError,
    KktPoint,
    RaInstance,
    RaSolution,
    SolverConvergenceError,
    brute_force,
    kkt_residuals,
    round_rbs,
    solve_kkt,
    solve_reduced,
)
from .scheduler import StabilityPlan, find_dwell, min_uavs, plan_min_fleet, verify_plan

__version__ = "0.1.0"
