"""Workloads, operations and output checks of the uavm2m benchmark.

A workload turns a seed into inputs and hands out operations in rounds; the
runner times each operation alone and checks its output afterwards, outside
the timed region. Every operation is one call a user of the package makes:

* sweep       `harness.run_sweep` for one (num_clusters, Z) cell of the
              paper's figure grid: num_clusters 5, 10, 15, 20 at Z = 6 and 24.
* crosscheck  `harness.run_pipeline(solver="both")` on an instance drawn from a
              stored pool of generated scenarios (5-10 clusters, Z in 6/12/24).
* trace       `cli.main(["simulate", ...])` writing a 1e5-slot backlog trace of
              20 CHs to a file (export), or `queueing.simulate` plus
              `is_rate_stable` on a 0.05-slack plan with no file (verify).

Output checks hold for any seed. Operations whose key is in `refs.json` are
also compared with the stored reference values.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from uavm2m import cli, harness, queueing, raopt, scheduler
from uavm2m.model import C_LIGHT, RadioParams, generate_scenario, save_scenario

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFS_PATH = Path(__file__).resolve().parent / "refs.json"

WORKLOADS = ("sweep", "crosscheck", "trace")

SWEEP_RBS = (6, 24)
SWEEP_CLUSTERS = (5, 10, 15, 20)
CROSSCHECK_STRATA = 12      # strata of the crosscheck pool, by recorded work
CROSSCHECK_LIGHT_STRATA = 8  # the lightest strata give two instances per round
# per-instance work not counted by calls into channel.required_power (the
# reduced route, plan and set-up), in such calls; fitted on measured times
# of pool instances
CROSSCHECK_FIXED_WORK = 6600
TRACE_CLUSTERS = 20
TRACE_HORIZON = 100_000
TRACE_SLACK = 0.05
TRACE_VERIFIES_PER_EXPORT = 8
STABLE_EPSILON = 0.01

BITS_RTOL = 1e-9            # delivered bits at the reported power vs the packet
OBJECTIVE_RTOL = 1e-9       # reported vs recomputed or stored objective
MARGINAL_RTOL = 1e-6        # spread of per-UAV marginal costs at the optimum
KKT_RESIDUAL_TOL = 1e-8
KKT_FEASIBILITY_TOL = 1e-9
AGREE_RTOL = 1e-6           # reduced vs KKT objective: the routes agree
EXPORT_SAMPLED_LINES = 2000


@dataclasses.dataclass
class Op:
    kind: str   # cell, crosscheck, export or verify
    key: str    # identity of the inputs, used for stored references
    args: tuple
    # work of this operation over the mean work of the workload's population
    # of operations (1 where all are alike); see run.end_to_end
    weight: float = 1.0


@dataclasses.dataclass
class Outcome:
    problems: list[str]
    digest: str                   # sha256 of the canonical output bytes
    objective: float | None = None
    extra: dict = dataclasses.field(default_factory=dict)


def derived_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1, dtype=np.uint32)[0])


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# checks on one planned scenario
# ---------------------------------------------------------------------------

def _link_model(scenario, fleet):
    """Per-UAV gains and the SNR gap, recomputed from the scenario."""
    wavelength = C_LIGHT / scenario.carrier_hz
    alts = np.asarray(fleet.altitudes, dtype=float)
    gain_u = (4.0 * math.pi * alts / wavelength) ** -scenario.pathloss_exp
    beta = -1.5 / math.log(5.0 * scenario.ber_target)
    return gain_u, beta


def check_allocation(name, z, power, objective, dwell, scenario, gain_u, beta, problems,
                     integral=False, bits=True):
    """Feasibility of one RB/power allocation: sum z <= Z, P <= pmax, every
    served link delivers its packet at the reported power (if `bits`), and
    the objective equals the dwell-weighted power."""
    big_z = scenario.total_rbs
    serving = dwell.sum(axis=1) > 0
    if np.any(z[serving] <= 0):
        problems.append(f"{name}: serving UAV with z <= 0")
        return
    if float(np.sum(z)) > big_z + 1e-9:
        problems.append(f"{name}: sum z = {float(np.sum(z))!r} > Z = {big_z}")
    if integral and not np.array_equal(z, np.round(z)):
        problems.append(f"{name}: non-integer RB counts {z.tolist()}")
    if np.any(power > scenario.pmax_w * (1 + 1e-9)):
        problems.append(f"{name}: power above pmax")
    weighted = float(np.sum(dwell.T * power))
    if not _close(objective, weighted, OBJECTIVE_RTOL):
        problems.append(f"{name}: objective {objective!r} != sum d*P {weighted!r}")
    if not bits:
        return
    u_idx, g_idx = np.nonzero(dwell > 0)
    zu = z[u_idx]
    d = dwell[u_idx, g_idx]
    p = power[g_idx, u_idx]
    snr = p * beta * gain_u[u_idx] / (zu * scenario.rb_bandwidth_hz * scenario.noise_psd)
    bits = zu * scenario.rb_bandwidth_hz * d * scenario.slot_seconds * np.log2(1.0 + snr)
    worst = float(np.max(np.abs(bits - scenario.packet_bits))) / scenario.packet_bits
    if not worst <= BITS_RTOL:
        problems.append(f"{name}: delivered bits off by {worst:.3e} relative")


def _marginals(z, dwell, scenario, gain_u, beta):
    """d/dz_u of the dwell-weighted power of UAV u's links, per serving UAV."""
    b = scenario.rb_bandwidth_hz
    out = {}
    for u in np.nonzero(dwell.sum(axis=1) > 0)[0]:
        d = dwell[u][dwell[u] > 0]
        c = scenario.packet_bits / (b * d * scenario.slot_seconds)
        coeff = b * scenario.noise_psd / (beta * gain_u[u])
        t = c / z[u] * math.log(2.0)
        out[int(u)] = float(np.sum(d * coeff * (np.expm1(t) - t * np.exp(t))))
    return out


def fleet_excess(result, scenario) -> int:
    """UAVs beyond ceil(total demand), the fleet size the scheduler promises.
    A known defect, not a failure: when the demand sums to a whole number,
    float dust in the greedy fill makes `min_uavs` add one UAV."""
    rates = queueing.arrival_rates(scenario)
    return result.u_min - max(1, math.ceil(float(np.sum(rates)) - 1e-9))


def check_pipeline(result, scenario, problems):
    """Checks on a `PipelineResult` that need no stored reference."""
    rates = queueing.arrival_rates(scenario)
    if fleet_excess(result, scenario) < 0:
        problems.append(f"u_min {result.u_min} cannot carry the total demand")
    if not scheduler.verify_plan(result.plan, rates):
        problems.append("verify_plan rejects the dwell plan")
    dwell = result.plan.dwell.entries
    gain_u, beta = _link_model(scenario, result.fleet)
    expected_gains = np.broadcast_to(gain_u, result.instance.gains.shape)
    if not np.allclose(result.instance.gains, expected_gains, rtol=1e-12, atol=0.0):
        problems.append("instance gains differ from the path-gain model")
    cont = result.continuous
    check_allocation("continuous", cont.z, cont.power, cont.objective, dwell, scenario,
                     gain_u, beta, problems)
    # optimality: power caps are slack here, so every serving UAV sits at
    # the same marginal cost
    if not np.any(cont.power > 0.5 * scenario.pmax_w):
        marg = list(_marginals(cont.z, dwell, scenario, gain_u, beta).values())
        if len(marg) > 1:
            spread = (max(marg) - min(marg)) / abs(float(np.mean(marg)))
            if not spread <= MARGINAL_RTOL:
                problems.append(f"continuous optimum: marginal costs spread {spread:.3e}")
    serving = int(np.count_nonzero(dwell.sum(axis=1) > 0))
    if result.rounded is None:
        if serving <= scenario.total_rbs:
            problems.append(f"rounding skipped with {serving} serving UAVs <= Z")
    else:
        rnd = result.rounded
        check_allocation("rounded", rnd.z, rnd.power, rnd.objective, dwell, scenario,
                         gain_u, beta, problems, integral=True)
        if rnd.objective < cont.objective * (1 - OBJECTIVE_RTOL):
            problems.append("rounded objective below the continuous optimum")
    served = int(np.count_nonzero(dwell.sum(axis=0) > 0))
    avg_power = float(np.sum(dwell.T * cont.power)) / served if served else 0.0
    if not _close(result.avg_power_w, avg_power, OBJECTIVE_RTOL):
        problems.append("avg_power_w is not the objective per served CH")
    reported = result.rounded if result.rounded is not None else cont
    if result.avg_rbs_per_uav != float(reported.z.sum() / result.fleet.count):
        problems.append("avg_rbs_per_uav inconsistent with the reported allocation")
    return dwell, gain_u, beta


def check_reference(ref, u_min, objective, rounded_objective, problems):
    if ref is None or "objective" not in ref:
        return
    if u_min != ref["u_min"]:
        problems.append(f"u_min {u_min} != stored {ref['u_min']}")
    if not _close(objective, ref["objective"], OBJECTIVE_RTOL):
        problems.append(f"objective {objective!r} != stored {ref['objective']!r}")
    stored = ref["rounded_objective"]
    if (stored is None) != (rounded_objective is None) or (
            stored is not None and not _close(rounded_objective, stored, OBJECTIVE_RTOL)):
        problems.append(f"rounded objective {rounded_objective!r} != stored {stored!r}")


def _result_digest(result) -> str:
    parts = [result.continuous.z.tobytes(), result.continuous.power.tobytes(),
             repr(result.continuous.objective).encode(), repr(result.u_min).encode()]
    if result.rounded is not None:
        parts += [result.rounded.z.tobytes(), repr(result.rounded.objective).encode()]
    if result.kkt_point is not None:
        parts += [result.kkt_point.z.tobytes(), repr(result.kkt_objective_w).encode()]
    return _sha256(*parts)


@contextlib.contextmanager
def captured_pipeline_results(sink: list):
    """Keep every `PipelineResult` that `run_sweep` computes, so a sweep
    cell can be checked beyond the numbers its CSV row carries."""
    original = harness.run_pipeline

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    harness.run_pipeline = capture
    try:
        yield
    finally:
        harness.run_pipeline = original


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class SweepWorkload:
    """Closed loop over the figure grid: one round is one cell per
    (Z, num_clusters), each with its own base seed."""

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs.get("sweep", {})
        self._captured: list = []
        self.context = captured_pipeline_results(self._captured)

    def rounds(self):
        r = 0
        while True:
            ops = []
            for big_z in SWEEP_RBS:
                for n in SWEEP_CLUSTERS:
                    base = derived_seed(self.seed, r, big_z, n)
                    spec = harness.SweepSpec(variable="num_clusters", values=(float(n),),
                                             base_seed=base,
                                             radio=RadioParams(total_rbs=big_z))
                    ops.append(Op("cell", f"{big_z}/{n}/{base}", (spec,)))
            yield ops
            r += 1

    def run(self, op):
        self._captured.clear()
        return harness.run_sweep(op.args[0])

    def close(self):
        pass

    def check(self, op, rows) -> Outcome:
        spec = op.args[0]
        problems: list[str] = []
        buf = io.StringIO()
        harness.sweep_to_csv(rows, buf)
        digest = _sha256(buf.getvalue().encode())
        cell = rows[0]
        if len(rows) != 2 or cell["error"] or rows[1]["error"]:
            return Outcome([f"sweep cell failed: {cell.get('error')!r}"], digest)
        if len(self._captured) != 1:
            return Outcome([f"expected one pipeline run, saw {len(self._captured)}"], digest)
        result = self._captured[0]
        seed = harness.derive_seed(spec.base_seed, 0, 0)
        scenario = generate_scenario(seed, int(spec.values[0]), spec.member_min,
                                     spec.member_max, spec.radio)
        if cell["seed"] != seed:
            problems.append("row seed is not the derived cell seed")
        check_pipeline(result, scenario, problems)
        expected = {"u_min": result.u_min, "avg_power_w": result.avg_power_w,
                    "avg_rbs_per_uav": result.avg_rbs_per_uav,
                    "total_energy_j": result.energy_per_slot_j * spec.horizon_slots}
        for key, value in expected.items():
            if cell[key] != value or rows[1][key] != value:
                problems.append(f"row {key} {cell[key]!r} != pipeline {value!r}")
        if result.energy_per_slot_j != result.continuous.objective * scenario.slot_seconds:
            problems.append("energy_per_slot_j is not objective * slot")
        rounded = result.rounded.objective if result.rounded is not None else None
        check_reference(self.refs.get(op.key), result.u_min, result.continuous.objective,
                        rounded, problems)
        return Outcome(problems, digest, result.continuous.objective,
                       {"u_min": result.u_min, "rounded_objective": rounded,
                        "rounding_skipped": result.rounded is None,
                        "fleet_excess": fleet_excess(result, scenario)})


class CrosscheckWorkload:
    """Both solver routes on instances from the stored pool.

    One run holds too few instances for the 1-in-4 multi-start tail to
    average out between seeds, and single instances vary by a quarter in
    time between runs on a shared machine. So each round is a stratified
    sample: the pool instances that solved when the pool was recorded are
    sorted by the work they took (calls into `channel.required_power`, a
    count that does not depend on the machine) and cut into
    CROSSCHECK_STRATA groups; the round takes one instance from each group
    and a second from each of the CROSSCHECK_LIGHT_STRATA lightest, which
    cost little and steady the median. Instances whose solve raised when
    recorded are drawn each with the pool's own rate, so a non-convergence
    shows at its natural frequency. Time per unit of work is about the same
    for light and heavy instances, so each instance weighs its work over the
    pool's mean, which turns ops_per_s and op_ms_p50 into ratio estimates
    over the whole pool rather than figures of one round's draw.
    """

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        pool = refs["crosscheck_pool"]
        self.pool = pool
        solved = sorted((i for i, e in enumerate(pool) if not e["raised"]),
                        key=lambda i: (pool[i]["work"], i))
        self.strata = np.array_split(np.array(solved), CROSSCHECK_STRATA)
        self.unsolved = [i for i, e in enumerate(pool) if e["raised"]]
        self.unsolved_rate = CROSSCHECK_STRATA / len(solved)
        work = np.array([pool[i]["work"] for i in solved], dtype=float) + CROSSCHECK_FIXED_WORK
        self.mean_work = float(np.mean(work))
        self.median_weight = float(np.median(work)) / self.mean_work
        self.scenarios = [generate_scenario(e["seed"], e["clusters"], 1, 10,
                                            RadioParams(total_rbs=e["rbs"])) for e in pool]
        self.context = contextlib.nullcontext()

    def round_indices(self, r: int) -> list[int]:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, r]))
        picks = []
        for k, stratum in enumerate(self.strata):
            size = 2 if k < CROSSCHECK_LIGHT_STRATA else 1
            picks += rng.choice(stratum, size=size, replace=False).tolist()
        picks += [i for i in self.unsolved if rng.random() < self.unsolved_rate]
        return [picks[k] for k in rng.permutation(len(picks))]

    def rounds(self):
        r = 0
        while True:
            yield [Op("crosscheck", f"pool/{i}", (i, self.scenarios[i]),
                      (self.pool[i]["work"] + CROSSCHECK_FIXED_WORK) / self.mean_work)
                   for i in self.round_indices(r)]
            r += 1

    def run(self, op):
        i, scenario = op.args
        return harness.run_pipeline(scenario, seed=self.pool[i]["seed"], solver="both")

    def close(self):
        pass

    def check(self, op, result) -> Outcome:
        i, scenario = op.args
        problems: list[str] = []
        dwell, gain_u, beta = check_pipeline(result, scenario, problems)
        point = result.kkt_point
        residual = float(np.linalg.norm(raopt.kkt_residuals(point, result.instance)))
        if not residual <= KKT_RESIDUAL_TOL:
            problems.append(f"KKT residual {residual:.3e} > {KKT_RESIDUAL_TOL}")
        violation = raopt.max_feasibility_violation(result.instance, point)
        if not violation <= KKT_FEASIBILITY_TOL:
            problems.append(f"KKT feasibility violation {violation:.3e}")
        # delivery at the KKT powers is part of the feasibility bound above
        check_allocation("kkt", point.z, point.power, result.kkt_objective_w, dwell,
                         scenario, gain_u, beta, problems, bits=False)
        rounded = result.rounded.objective if result.rounded is not None else None
        ref = self.pool[i]
        check_reference(ref, result.u_min, result.continuous.objective, rounded, problems)
        gap = abs(result.kkt_objective_w - result.continuous.objective) / result.continuous.objective
        return Outcome(problems, _result_digest(result), result.continuous.objective,
                       {"kkt_objective": result.kkt_objective_w, "kkt_rel_gap": gap,
                        "kkt_agree": gap <= AGREE_RTOL, "u_min": result.u_min,
                        "rounded_objective": rounded,
                        "fleet_excess": fleet_excess(result, scenario)})


class TraceWorkload:
    """Queue simulation of one 20-CH scenario: each round is one CSV export
    through the CLI and TRACE_VERIFIES_PER_EXPORT compute-only checks."""

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs.get("trace", {})
        OUT_DIR.mkdir(exist_ok=True)
        self.scenario = generate_scenario(derived_seed(seed, 0), TRACE_CLUSTERS, 1, 10,
                                          RadioParams())
        # per process, so that runs sharing a checkout never clash
        self.scenario_path = OUT_DIR / f"trace-scenario-{seed}-{os.getpid()}.txt"
        self.scenario_path.write_text(save_scenario(self.scenario), encoding="utf-8")
        self.export_path = OUT_DIR / f"trace-export-{seed}-{os.getpid()}.csv"
        self.rates = queueing.arrival_rates(self.scenario)
        u = scheduler.min_uavs(self.rates + TRACE_SLACK)
        self.slack_plan = scheduler.find_dwell(self.rates, u, slack_target=TRACE_SLACK)
        self.slack_plan_ok = scheduler.verify_plan(self.slack_plan, self.rates + TRACE_SLACK)
        # the plan `uavm2m simulate` builds: minimum fleet, no slack
        self.export_plan = scheduler.find_dwell(self.rates, scheduler.min_uavs(self.rates))
        self.context = contextlib.nullcontext()

    def rounds(self):
        r = 0
        while True:
            ops = [Op("export", f"export/{self.seed}/{r}", (derived_seed(self.seed, r, 0),))]
            for j in range(1, TRACE_VERIFIES_PER_EXPORT + 1):
                sim_seed = derived_seed(self.seed, r, j)
                ops.append(Op("verify", f"verify/{self.seed}/{r}/{j}", (sim_seed,)))
            yield ops
            r += 1

    def run(self, op):
        (sim_seed,) = op.args
        if op.kind == "export":
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["simulate", "--scenario", str(self.scenario_path),
                                 "--horizon", str(TRACE_HORIZON), "--seed", str(sim_seed),
                                 "--out", str(self.export_path)])
            return code, err.getvalue()
        trace = queueing.simulate(self.scenario, self.slack_plan.dwell,
                                  horizon=TRACE_HORIZON, seed=sim_seed)
        return trace, queueing.is_rate_stable(trace, STABLE_EPSILON)

    def check(self, op, output) -> Outcome:
        (sim_seed,) = op.args
        problems: list[str] = []
        if op.kind == "verify":
            trace, stable = output
            digest = hashlib.sha256(trace.backlog).hexdigest()
            if not self.slack_plan_ok:
                problems.append("verify_plan rejects the slack plan")
            if trace.backlog.shape != (TRACE_CLUSTERS, TRACE_HORIZON + 1):
                problems.append(f"backlog shape {trace.backlog.shape}")
            if stable is not True:
                problems.append("slack plan is not rate stable")
            rate = float(trace.final_rates().max())
            ref = self.refs.get(op.key)
            if ref is not None and ref != digest:
                problems.append("backlog differs from the stored digest")
            return Outcome(problems, digest, rate)
        code, stderr = output
        if code != 0:
            problems.append(f"cli exit code {code}")
        # the file must be the trace that simulate produces for these inputs;
        # read in chunks so the check does not raise the peak memory
        expected = queueing.simulate(self.scenario, self.export_plan.dwell,
                                     horizon=TRACE_HORIZON, seed=sim_seed)
        rows = TRACE_CLUSTERS * (TRACE_HORIZON + 1)
        rng = np.random.default_rng(np.random.SeedSequence([sim_seed, 1]))
        picks = sorted({0, rows - 1, *rng.integers(0, rows, EXPORT_SAMPLED_LINES).tolist()})
        wanted = {0: b"slot,ch_id,backlog"}  # file line number -> expected bytes
        for k in picks:
            t, g = divmod(k, TRACE_CLUSTERS)
            wanted[k + 1] = f"{t},{g},{expected.backlog[g, t]:.9g}".encode()
        h = hashlib.sha256()
        size = lines = 0
        tail = b""
        with open(self.export_path, "rb") as fh:
            while chunk := fh.read(1 << 22):
                h.update(chunk)
                size += len(chunk)
                parts = (tail + chunk).split(b"\n")
                tail = parts.pop()
                for n in range(bisect.bisect_left(picks, lines - 1), len(picks)):
                    line_no = picks[n] + 1
                    if line_no >= lines + len(parts):
                        break
                    if parts[line_no - lines] != wanted[line_no] and len(problems) < 3:
                        problems.append(f"export line {line_no} is "
                                        f"{parts[line_no - lines]!r}, expected {wanted[line_no]!r}")
                if lines == 0 and parts and parts[0] != wanted[0]:
                    problems.append(f"export header is {parts[0]!r}")
                lines += len(parts)
        if tail or lines != rows + 1:
            problems.append(f"export has {lines} full lines and {len(tail)} trailing bytes, "
                            f"expected {rows + 1} lines")
        digest = h.hexdigest()
        ref = self.refs.get(op.key)
        if ref is not None and ref != digest:
            problems.append("export bytes differ from the stored digest")
        rate = float(expected.final_rates().max())
        if f"max_backlog_rate={rate:.9g} " not in stderr:
            problems.append(f"cli summary {stderr.strip()!r} disagrees with the trace")
        return Outcome(problems, digest, rate, {"bytes": size})

    def close(self):
        for path in (self.export_path, self.scenario_path):
            path.unlink(missing_ok=True)


def make_workload(name: str, seed: int, refs: dict | None = None):
    refs = load_refs() if refs is None else refs
    cls = {"sweep": SweepWorkload, "crosscheck": CrosscheckWorkload,
           "trace": TraceWorkload}[name]
    return cls(seed, refs)
