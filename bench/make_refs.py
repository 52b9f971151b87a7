"""Regenerate bench/refs.json, the stored references of the benchmark.

    python3 bench/make_refs.py pool --start 0 --stop 160 --out part.jsonl
    python3 bench/make_refs.py merge part*.jsonl
    python3 bench/make_refs.py outputs --seeds 10 --rounds 2

`pool` solves crosscheck candidates [start, stop) with both routes, traced,
and writes one JSON line per candidate: the stored values that later runs
are checked against, whether the solve raised, the work it took (calls into
`channel.required_power`) and its wall time. Parts can run in parallel.
`merge` collects part files into the `crosscheck_pool` of refs.json.
`outputs` records the sweep cells and trace operations of seeds 0..N-1 for
the first rounds. Run from the root of a source checkout; every value comes
from the package in its src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import bench_ops  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from uavm2m import harness  # noqa: E402
from uavm2m.model import RadioParams, generate_scenario  # noqa: E402

POOL_MASTER_SEED = 20261017
POOL_CANDIDATES = 400


def pool_candidates() -> list[tuple[int, int, int]]:
    """(num_clusters, Z, scenario seed): 5-10 clusters, Z drawn from 6/12/24."""
    rng = np.random.default_rng(np.random.SeedSequence([POOL_MASTER_SEED]))
    return [(int(rng.integers(5, 11)), int(rng.choice((6, 12, 24))), int(rng.integers(0, 2**31)))
            for _ in range(POOL_CANDIDATES)]


def record_pool(start: int, stop: int, out) -> None:
    for i, (n, big_z, seed) in enumerate(pool_candidates()[start:stop], start):
        scenario = generate_scenario(seed, n, 1, 10, RadioParams(total_rbs=big_z))
        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            result = harness.run_pipeline(scenario, seed=seed, solver="both")
        except RuntimeError as exc:
            result, error = None, str(exc)
        finally:
            seconds = time.perf_counter() - t0
            tracer.restore()
        entry = {"index": i, "clusters": n, "rbs": big_z, "seed": seed,
                 "raised": result is None, "work": tracer.counts["channel.required_power.calls"],
                 "seconds": round(seconds, 4)}
        if result is None:
            entry["error"] = error
        else:
            entry.update(u_min=result.u_min, objective=result.continuous.objective,
                         rounded_objective=None if result.rounded is None
                         else result.rounded.objective,
                         kkt_objective=result.kkt_objective_w)
        out.write(json.dumps(entry) + "\n")
        out.flush()


def _load() -> dict:
    return bench_ops.load_refs() if bench_ops.REFS_PATH.exists() else {}


def _save(refs: dict) -> None:
    """One pool entry or stored operation per line, so diffs stay readable."""
    parts = []
    for key in sorted(refs):
        value = refs[key]
        if isinstance(value, list):
            body = ",\n".join(json.dumps(v, sort_keys=True) for v in value)
            parts.append(f'"{key}": [\n{body}\n]')
        else:
            body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                              for k, v in sorted(value.items()))
            parts.append(f'"{key}": {{\n{body}\n}}')
    bench_ops.REFS_PATH.write_text("{\n" + ",\n".join(parts) + "\n}\n")


def merge(paths: list[str]) -> None:
    entries = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                entry = json.loads(line)
                entries[entry.pop("index")] = entry
    refs = _load()
    refs["crosscheck_pool"] = [entries[i] for i in sorted(entries)]
    _save(refs)


def record_outputs(seeds: int, rounds: int) -> None:
    sweep, trace = {}, {}
    for seed in range(seeds):
        for name, store in (("sweep", sweep), ("trace", trace)):
            workload = bench_ops.make_workload(name, seed, refs={})
            with workload.context:
                for r, ops in zip(range(rounds), workload.rounds()):
                    for op in ops:
                        outcome = workload.check(op, workload.run(op))
                        if outcome.problems:
                            sys.exit(f"{op.key}: {outcome.problems}")
                        if op.kind == "cell":
                            store[op.key] = {"u_min": outcome.extra["u_min"],
                                             "objective": outcome.objective,
                                             "rounded_objective":
                                                 outcome.extra["rounded_objective"]}
                        else:
                            store[op.key] = outcome.digest
            workload.close()
    refs = _load()
    refs.update(sweep=sweep, trace=trace)
    _save(refs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pool")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--stop", type=int, required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("merge")
    p.add_argument("parts", nargs="+")
    p = sub.add_parser("outputs")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    if args.command == "pool":
        with open(args.out, "w", encoding="utf-8") as out:
            record_pool(args.start, args.stop, out)
    elif args.command == "merge":
        merge(args.parts)
    else:
        record_outputs(args.seeds, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
