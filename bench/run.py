"""uavm2m benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload {sweep,crosscheck,trace} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory. Operations run in whole rounds until S seconds of operation
time have been measured. Every output is checked after its operation, outside
the timed region (see bench_ops.py).

--trace 0 measures the end-to-end metrics with nothing wrapped but the sweep's
result capture. --trace 1 runs each operation twice, once plain and once with
bench_trace.Tracer installed (alternating which goes first), checks that both
give byte-identical output, and reports the per-layer metrics of the traced
runs and the tracing overhead. The spans go to .bench_out/ when the run ends.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The lines above it report the same run under the names of each
workload's own metrics, and the full record (environment, every operation's
objective and latency) is written to .bench_out/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5  # set-ups per run, including the run's own; the median is reported

# Generic metric names shared by every workload, with unit and direction.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "raopt.solve_reduced.ms": "ms/op",
    "channel.required_power.calls": "calls/op",
    "raopt.round_rbs.ms": "ms/op",
    "raopt.round_rbs.skipped_frac": "frac",
    "model.generate_scenario.ms": "ms/op",
    "scheduler.min_uavs.ms": "ms/op",
    "scheduler.find_dwell.calls": "calls/op",
    "scheduler.min_uavs.excess_frac": "frac",
    "harness.build_instance.ms": "ms/op",
    "harness.run_pipeline.self_ms": "ms/op",
    "raopt.solve_kkt.ms": "ms/op",
    "raopt.solve_kkt.failed": "calls/op",
    "raopt.kkt_agree_frac": "frac",
    "lma.solve.calls": "calls/op",
    "lma.solve.iterations": "calls/op",
    "lma.residual_evals": "calls/op",
    "lma.jacobian_evals": "calls/op",
    "lma.useful_frac": "frac",
    "queueing.simulate.ms": "ms/op",
    "queueing.write_trace_csv.ms": "ms/op",
    "queueing.trace_bytes": "bytes/op",
    "model.load_scenario.ms": "ms/op",
    "cli.main.self_ms": "ms/op",
    "trace.overhead_ms": "ms/op",
    "trace.overhead_pct": "%",
}


def _import_package():
    """Import uavm2m from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    try:
        import uavm2m
    except ImportError as exc:
        sys.exit(f"bench: cannot import uavm2m from {src}: {exc}")
    if src.resolve() not in Path(uavm2m.__file__).resolve().parents:
        sys.exit(f"bench: uavm2m was imported from {uavm2m.__file__}, not from {src}")


def _setup_in_subprocess(workload: str, seed: int) -> float:
    code = (
        "import time; t0 = time.perf_counter()\n"
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import bench_ops\n"
        "w = bench_ops.make_workload(sys.argv[3], int(sys.argv[4]))\n"
        "print(repr(time.perf_counter() - t0))\n"
        "w.close()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(BENCH_DIR), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import numpy as np

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "machine": platform.machine(), "commit": None}
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            env["commit"] = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Run:
    """Times, checks and records the operations of one workload run."""

    def __init__(self, workload):
        self.workload = workload
        self.records: list[dict] = []
        self.correct = True

    def execute(self, op) -> tuple[float, str | None, object]:
        """Run one operation, timed; returns (seconds, error, output)."""
        start = time.perf_counter()
        try:
            output = self.workload.run(op)
        except Exception as exc:  # a raised operation is a failure, not a crash
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}", None
        return time.perf_counter() - start, None, output

    def check(self, op, error, output):
        return None if error is not None else self.workload.check(op, output)

    def record(self, op, seconds, error, outcome, **extra) -> None:
        rec = {"kind": op.kind, "key": op.key, "weight": op.weight, "seconds": seconds,
               "ok": False, "error": error, **extra}
        if outcome is not None:
            rec.update(ok=not outcome.problems, problems=outcome.problems,
                       objective=outcome.objective, digest=outcome.digest, **outcome.extra)
            if outcome.problems:
                self.correct = False
        self.records.append(rec)


def measure(workload, seconds: float) -> Run:
    """Closed loop: whole rounds until the operations that returned have
    taken `seconds`; time spent in raised operations does not count, so a
    rare failure does not shrink the sample."""
    run = Run(workload)
    busy = 0.0
    for ops in workload.rounds():
        for op in ops:
            elapsed, error, output = run.execute(op)
            run.record(op, elapsed, error, run.check(op, error, output))
            busy += elapsed if error is None else 0.0
        if busy >= seconds:
            return run


def measure_traced(workload, seconds: float, tracer) -> Run:
    """Each operation plain and traced, in alternating order, until the two
    together have taken `seconds`. Checks run with the tracer removed."""
    run = Run(workload)
    busy = 0.0
    n = 0
    for ops in workload.rounds():
        for op in ops:
            results = {}
            for traced in ((False, True) if n % 2 == 0 else (True, False)):
                if traced:
                    tracer.op_id = n
                    tracer.install()
                try:
                    elapsed, error, output = run.execute(op)
                finally:
                    tracer.restore()
                results[traced] = (elapsed, error, run.check(op, error, output))
            plain, traced = results[False], results[True]
            identical = (plain[1] is None) == (traced[1] is None) and (
                plain[2] is None or plain[2].digest == traced[2].digest)
            if not identical:
                run.correct = False
            run.record(op, traced[0], traced[1], traced[2], plain_seconds=plain[0],
                       traced_identical=identical)
            busy += plain[0] + traced[0]
            n += 1
            if busy >= seconds:
                return run


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    """ops_per_s is the weight of the operations that passed their checks
    over the time of those that returned; op_ms_p50 the median of each
    operation's time over its weight, scaled back by the population's median
    weight. With all weights 1 (sweep, trace) these are plain operations per
    second and the plain median; for crosscheck they are ratio estimates
    over the pool. A failed operation counts as slower than every other."""
    recs = run.records
    returned = [r for r in recs if r["error"] is None]
    per_weight = [r["seconds"] / r["weight"] if r["ok"] else math.inf for r in recs]
    p50 = statistics.median(per_weight) * getattr(run.workload, "median_weight", 1.0)
    if not math.isfinite(p50):  # most operations failed
        p50 = sum(r["seconds"] for r in recs)
    return {
        "setup_s": setup_s,
        "ops_per_s": sum(r["weight"] for r in recs if r["ok"])
        / max(sum(r["seconds"] for r in returned), 1e-9),
        "op_ms_p50": p50 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, tracer) -> dict[str, float]:
    n = len(run.records)
    total, own = tracer.totals_ms()
    c = tracer.counts
    kkt = [r for r in run.records if "kkt_agree" in r]
    planned = [r for r in run.records if "fleet_excess" in r]
    kkt_ok = c["raopt.solve_kkt.calls"] - c["raopt.solve_kkt.raised"]
    plain = sum(r["plain_seconds"] for r in run.records)
    traced = sum(r["seconds"] for r in run.records)

    def frac(num, den):
        return num / den if den else 0.0

    return {
        "raopt.solve_reduced.ms": total["raopt.solve_reduced"] / n,
        "channel.required_power.calls": c["channel.required_power.calls"] / n,
        "raopt.round_rbs.ms": total["raopt.round_rbs"] / n,
        "raopt.round_rbs.skipped_frac": frac(c["raopt.round_rbs.raised"],
                                             c["raopt.round_rbs.calls"]),
        "model.generate_scenario.ms": total["model.generate_scenario"] / n,
        "scheduler.min_uavs.ms": total["scheduler.min_uavs"] / n,
        "scheduler.find_dwell.calls": c["scheduler.find_dwell.calls"] / n,
        "scheduler.min_uavs.excess_frac": frac(sum(r["fleet_excess"] > 0 for r in planned),
                                               len(planned)),
        "harness.build_instance.ms": total["harness.build_instance"] / n,
        "harness.run_pipeline.self_ms": own["harness.run_pipeline"] / n,
        "raopt.solve_kkt.ms": total["raopt.solve_kkt"] / n,
        "raopt.solve_kkt.failed": c["raopt.solve_kkt.raised"] / n,
        "raopt.kkt_agree_frac": frac(sum(r["kkt_agree"] for r in kkt), len(kkt)),
        "lma.solve.calls": c["lma.solve.calls"] / n,
        "lma.solve.iterations": c["lma.solve.iterations"] / n,
        "lma.residual_evals": c["lma.residual_evals"] / n,
        "lma.jacobian_evals": c["lma.jacobian_evals"] / n,
        "lma.useful_frac": frac(kkt_ok, c["lma.solve.calls"]),
        "queueing.simulate.ms": total["queueing.simulate"] / n,
        "queueing.write_trace_csv.ms": total["queueing.write_trace_csv"] / n,
        "queueing.trace_bytes": c["queueing.trace_bytes"] / n,
        "model.load_scenario.ms": total["model.load_scenario"] / n,
        "cli.main.self_ms": own["cli.main"] / n,
        "trace.overhead_ms": (traced - plain) * 1e3 / n,
        "trace.overhead_pct": 100.0 * (traced - plain) / plain,
    }


def report(workload: str, run: Run, metrics: dict, setups: list[float]) -> list[str]:
    """The run under the workload's own metric names, with units and
    sample counts."""
    recs = run.records
    failed = sum(not r["ok"] for r in recs)
    lines = [f"  setup_s            {metrics['setup_s']:.4f} s   (median of {len(setups)} set-ups)",
             f"  failed_frac        {failed / len(recs):.4f}     ({failed}/{len(recs)} operations)",
             f"  peak_rss_mb        {metrics['peak_rss_mb']:.1f} MB"]

    def ms(kind):
        return [r["seconds"] * 1e3 for r in recs if r["kind"] == kind and r["ok"]]

    def tail(name, values, q, unit):
        if len(values) * (100 - q) / 100 >= 10:
            lines.append(f"  {name:<18} {_percentile(values, q):.4f} {unit} (n={len(values)})")
        else:
            lines.append(f"  {name:<18} not reported: fewer than 10 samples beyond p{q} "
                         f"(n={len(values)})")

    planned = [r["fleet_excess"] for r in recs if "fleet_excess" in r]
    if planned:
        lines.append(f"  fleet above ceil(demand) {sum(x > 0 for x in planned)}/{len(planned)} "
                     f"plans (known min_uavs defect)")
    if workload == "sweep":
        cells = ms("cell")
        lines.append(f"  cells_per_s        {metrics['ops_per_s']:.4f} 1/s")
        lines.append(f"  plan_ms_p50        {statistics.median(cells):.4f} ms (n={len(cells)})")
        tail("plan_ms_p90", cells, 90, "ms")
        skipped = sum(r.get("rounding_skipped", False) for r in recs)
        lines.append(f"  rounding skipped   {skipped}/{len(recs)} cells")
    elif workload == "crosscheck":
        raised = [r for r in recs if r["error"]]
        agree = [r["kkt_agree"] for r in recs if "kkt_agree" in r]
        lines.append(f"  crosscheck_total_s {sum(r['seconds'] for r in recs):.4f} s "
                     f"({len(recs)} instances, {len(raised)} raised in "
                     f"{sum(r['seconds'] for r in raised):.1f} s)")
        raw = statistics.median(r["seconds"] if r["ok"] else math.inf for r in recs)
        lines.append(f"  crosscheck_s_p50   {raw:.4f} s (n={len(recs)}; failed count as slowest)")
        if agree:
            lines.append(f"  kkt_agree_frac     {sum(agree) / len(agree):.4f}     "
                         f"({sum(agree)}/{len(agree)} within {1e-6:g} relative; higher is better)")
    else:
        exports, verifies = ms("export"), ms("verify")
        if exports:
            lines.append(f"  export_s_p50       {statistics.median(exports) / 1e3:.4f} s "
                         f"(n={len(exports)})")
        if verifies:
            lines.append(f"  verify_ms_p50      {statistics.median(verifies):.4f} ms "
                         f"(n={len(verifies)})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "crosscheck", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_package()
    import bench_ops
    from bench_trace import Tracer

    workload = bench_ops.make_workload(args.workload, args.seed)
    setups = [time.perf_counter() - _T0]
    setups += [_setup_in_subprocess(args.workload, args.seed)
               for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(setups)

    tracer = Tracer() if args.trace else None
    with workload.context:
        try:
            if tracer is None:
                run = measure(workload, args.seconds)
            else:
                run = measure_traced(workload, args.seconds, tracer)
        finally:
            workload.close()

    e2e = end_to_end(run, setup_s)
    chosen = e2e if tracer is None else per_layer(run, tracer)
    units = END_TO_END if tracer is None else PER_LAYER
    failed = sum(not r["ok"] for r in run.records)

    bench_ops.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(), "setup_runs_s": setups,
              "end_to_end": e2e, "per_layer": chosen if tracer else None,
              "correct": run.correct, "operations": run.records}
    (bench_ops.OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(bench_ops.OUT_DIR / f"spans-{stem}.jsonl")

    env = record["environment"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"commit={env['commit']} src_sha256={env['src_sha256'][:16]}")
    for line in report(args.workload, run, e2e, setups):
        print(line)
    for name, value in chosen.items():
        print(f"  {name:<30} {value:.6g} {units[name]}")
    print(f"  record: {bench_ops.OUT_DIR.relative_to(ROOT) / ('result-' + stem + '.json')}")
    print(json.dumps({
        "correct": run.correct, "attempted": len(run.records), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
