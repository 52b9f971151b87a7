"""Spans and counters around calls into uavm2m, recorded from outside.

`Tracer.install()` replaces module attributes of the package with thin
wrappers; `restore()` puts the originals back. Each wrapper sits at the name
the caller looks up at call time (for example `harness.generate_scenario`,
which `run_sweep` reaches through the name `harness` imported from `model`),
so no file of the package is edited. Spans stay in memory until `dump()`.

Hot inner calls (`channel.required_power`, the LMA residual and Jacobian
callbacks) are counted, never spanned: a span costs two clock reads and a
list append, which would dominate a call that takes microseconds.
"""

from __future__ import annotations

import collections
import functools
import json
import time

from uavm2m import channel, cli, harness, lma, queueing, raopt, scheduler

# (module, attribute, label) of every spanned public function
SPANNED = (
    (harness, "run_sweep", "harness.run_sweep"),
    (harness, "run_pipeline", "harness.run_pipeline"),
    (harness, "generate_scenario", "model.generate_scenario"),
    (harness, "build_instance", "harness.build_instance"),
    (scheduler, "min_uavs", "scheduler.min_uavs"),
    (scheduler, "find_dwell", "scheduler.find_dwell"),
    (raopt, "solve_reduced", "raopt.solve_reduced"),
    (raopt, "solve_kkt", "raopt.solve_kkt"),
    (raopt, "round_rbs", "raopt.round_rbs"),
    (lma, "solve", "lma.solve"),
    (queueing, "simulate", "queueing.simulate"),
    (queueing, "write_trace_csv", "queueing.write_trace_csv"),
    (queueing, "is_rate_stable", "queueing.is_rate_stable"),
    (cli, "load_scenario", "model.load_scenario"),
    (cli, "main", "cli.main"),
)

# (module, attribute, counter) of hot functions that are only counted
COUNTED = (
    (channel, "required_power", "channel.required_power.calls"),
    (lma, "numeric_jacobian", "lma.jacobian_evals"),
)

Span = collections.namedtuple("Span", "span_id parent op_id name start end")


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: collections.Counter = collections.Counter()
        self.op_id: int | None = None  # shared by every span of one operation
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, label in SPANNED:
            self._replace(module, attr, self._spanned(label, getattr(module, attr)))
        for module, attr, counter in COUNTED:
            self._replace(module, attr, self._counted(counter, getattr(module, attr)))
        # the LMA wrapper goes over the spanned lma.solve so that it sees the
        # residual callback before the solver does
        self._replace(lma, "solve", self._lma_solve(lma.solve))
        self._replace(queueing, "write_trace_csv", self._csv_writer(queueing.write_trace_csv))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _replace(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, label, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(span_id)
            counts[label + ".calls"] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[label + ".raised"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = Span(span_id, parent, self.op_id, label, start, end)

        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lma_solve(self, solve):
        counts = self.counts

        @functools.wraps(solve)
        def wrapper(residual_fn, *args, **kwargs):
            def residual(x):
                counts["lma.residual_evals"] += 1
                return residual_fn(x)

            args = list(args)
            jac = kwargs.get("jacobian", args[2] if len(args) > 2 else None)
            if jac is not None:
                def jacobian(x):
                    counts["lma.jacobian_evals"] += 1
                    return jac(x)
                if "jacobian" in kwargs:
                    kwargs["jacobian"] = jacobian
                else:
                    args[2] = jacobian
            result = solve(residual, *args, **kwargs)
            counts["lma.solve.iterations"] += result.iterations
            return result

        return wrapper

    def _csv_writer(self, write):
        counts = self.counts

        @functools.wraps(write)
        def wrapper(trace, out):
            before = out.tell()
            write(trace, out)
            counts["queueing.trace_bytes"] += out.tell() - before

        return wrapper

    # -- reading -----------------------------------------------------------

    def totals_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name, in ms. Self time is a span's
        duration minus the durations of its direct children."""
        total: dict[str, float] = collections.defaultdict(float)
        child: dict[int, float] = collections.defaultdict(float)
        for span in self.spans:
            duration = span.end - span.start
            total[span.name] += duration * 1e3
            if span.parent is not None:
                child[span.parent] += duration * 1e3
        own: dict[str, float] = collections.defaultdict(float)
        for span in self.spans:
            own[span.name] += (span.end - span.start) * 1e3 - child[span.span_id]
        return total, own

    def dump(self, path) -> None:
        """Write every span as one JSON line, times in seconds from the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span.span_id, "parent": span.parent, "op": span.op_id,
                    "name": span.name, "start_s": round(span.start - t0, 9),
                    "end_s": round(span.end - t0, 9),
                }) + "\n")
