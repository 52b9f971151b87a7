"""Tests of the benchmark itself: its checks catch wrong outputs, its inputs
follow the seed, and tracing leaves outputs unchanged.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import bench_ops  # noqa: E402
import run as bench_run  # noqa: E402
import bench_trace  # noqa: E402
from bench_trace import Tracer  # noqa: E402

SHORT_HORIZON = 20_000


@pytest.fixture(autouse=True)
def out_dir(monkeypatch, tmp_path):
    """Files the workloads write go under tmp_path."""
    monkeypatch.setattr(bench_ops, "OUT_DIR", tmp_path)


@pytest.fixture
def short_trace(monkeypatch):
    """Trace workload with a short horizon; the stored digests are for the
    full horizon, so none are loaded."""
    monkeypatch.setattr(bench_ops, "TRACE_HORIZON", SHORT_HORIZON)
    workload = bench_ops.make_workload("trace", 3, refs={})
    yield workload
    workload.close()


def _first_round(name, seed, **kwargs):
    return next(bench_ops.make_workload(name, seed, **kwargs).rounds())


def _light_crosscheck_op(workload):
    """A pool instance that solves on the first LMA start (quick)."""
    i = int(workload.strata[0][0])
    return bench_ops.Op("crosscheck", f"pool/{i}", (i, workload.scenarios[i]))


def _run_and_check(workload, op):
    with workload.context:
        output = workload.run(op)
        return output, workload.check(op, output)


@pytest.mark.parametrize("name", ["sweep", "crosscheck"])
def test_perturbed_objective_is_a_failure(name):
    workload = bench_ops.make_workload(name, 0)
    op = next(workload.rounds())[0] if name == "sweep" else _light_crosscheck_op(workload)
    with workload.context:
        output = workload.run(op)
        assert workload.check(op, output).problems == []
        if name == "sweep":
            result = workload._captured[0]
        else:
            result = output
        worse = dataclasses.replace(result.continuous,
                                    objective=result.continuous.objective * (1 + 1e-6))
        perturbed = dataclasses.replace(result, continuous=worse)
        if name == "sweep":
            workload._captured[0] = perturbed
        else:
            output = perturbed
        outcome = workload.check(op, output)
    assert any("objective" in p for p in outcome.problems)
    run = bench_run.Run(workload)
    run.record(op, 0.1, None, outcome)
    assert run.correct is False and run.records[0]["ok"] is False


def test_stored_reference_mismatch_is_a_failure():
    workload = bench_ops.make_workload("crosscheck", 0)
    op = _light_crosscheck_op(workload)
    i = op.args[0]
    workload.pool = list(workload.pool)
    workload.pool[i] = dict(workload.pool[i], objective=workload.pool[i]["objective"] * 1.01)
    _, outcome = _run_and_check(workload, op)
    assert any("stored" in p for p in outcome.problems)


def test_suboptimal_allocation_is_a_failure():
    workload = bench_ops.make_workload("crosscheck", 0)
    op = _light_crosscheck_op(workload)
    result, _ = _run_and_check(workload, op)
    inst = result.instance
    serving = result.continuous.z > 0
    even = result.continuous.z.copy()
    even[serving] = inst.total_rbs / serving.sum()
    power = result.continuous.power.copy()
    for g, u in inst.active_pairs():
        power[g, u] = inst.pair_power(g, u, even[u])
    objective = float((inst.dwell.entries.T * power).sum())
    wrong = dataclasses.replace(result.continuous, z=even, power=power, objective=objective)
    outcome = workload.check(op, dataclasses.replace(result, continuous=wrong))
    assert any("marginal" in p for p in outcome.problems)


def test_corrupted_export_is_a_failure(short_trace):
    op = next(short_trace.rounds())[0]
    assert op.kind == "export"
    output = short_trace.run(op)
    assert short_trace.check(op, output).problems == []
    data = bytearray(short_trace.export_path.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    short_trace.export_path.write_bytes(bytes(data))
    assert short_trace.check(op, output).problems


@pytest.mark.parametrize("name", bench_ops.WORKLOADS)
def test_same_seed_same_inputs(name):
    first, second = _first_round(name, 7), _first_round(name, 7)
    assert [op.key for op in first] == [op.key for op in second]
    assert [repr(op.args) for op in first] == [repr(op.args) for op in second]


@pytest.mark.parametrize("name", bench_ops.WORKLOADS)
def test_other_seed_other_inputs(name):
    assert [op.key for op in _first_round(name, 7)] != [op.key for op in _first_round(name, 8)]


def test_trace_scenario_follows_seed():
    a, b, c = (bench_ops.make_workload("trace", s) for s in (1, 1, 2))
    assert a.scenario == b.scenario and a.scenario != c.scenario


def test_tracing_leaves_outputs_identical(short_trace):
    cases = [(short_trace, op) for op in next(short_trace.rounds())[:2]]
    crosscheck = bench_ops.make_workload("crosscheck", 0)
    cases.append((crosscheck, _light_crosscheck_op(crosscheck)))
    sweep = bench_ops.make_workload("sweep", 0)
    cases.append((sweep, next(sweep.rounds())[0]))
    originals = {(m.__name__, a): getattr(m, a) for m, a, _ in _patched_targets()}
    for workload, op in cases:
        tracer = Tracer()
        digests = []
        with workload.context:
            for traced in (False, True):
                if traced:
                    tracer.install()
                try:
                    output = workload.run(op)
                finally:
                    tracer.restore()
                outcome = workload.check(op, output)
                assert outcome.problems == []
                digests.append(outcome.digest)
        assert digests[0] == digests[1], op.key
        assert tracer.spans, op.key
    assert originals == {(m.__name__, a): getattr(m, a) for m, a, _ in _patched_targets()}


def _patched_targets():
    return bench_trace.SPANNED + bench_trace.COUNTED


def test_measure_traced_counts_layers():
    workload = bench_ops.make_workload("sweep", 0)
    tracer = Tracer()
    with workload.context:
        run = bench_run.measure_traced(workload, 0.01, tracer)
    assert run.correct and run.records[0]["traced_identical"]
    layers = bench_run.per_layer(run, tracer)
    assert set(layers) == set(bench_run.PER_LAYER)
    assert layers["raopt.solve_reduced.ms"] > 0 and layers["lma.solve.calls"] == 0


def test_metrics_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench_ops.WORKLOADS)


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
