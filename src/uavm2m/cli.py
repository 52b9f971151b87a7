"""Command-line front end: scenario generation, planning, simulation,
RB/power solving, parameter sweeps, and the terrestrial baseline comparison.

All outputs are CSV-style text; floats are printed with 9 significant
digits so identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
from collections.abc import Iterator
from typing import IO

from . import harness, queueing, raopt, scheduler
from .model import (RadioParams, ScenarioFormatError, generate_scenario, load_scenario,
                    save_scenario)


_MAX_RANGE_VALUES = 10**6


def _parse_values(text: str) -> tuple[float, ...]:
    """Finite sweep values: a list 'a,b,c' or an inclusive range 'a:b:step'."""
    numbers = tuple(float(p) for p in text.split(":" if ":" in text else ","))
    if not all(map(math.isfinite, numbers)):
        raise argparse.ArgumentTypeError(f"values must be finite, got {text!r}")
    if ":" not in text:
        return numbers
    if len(numbers) != 3:
        raise argparse.ArgumentTypeError(f"range must be a:b:step, got {text!r}")
    a, b, step = numbers
    if step <= 0:
        raise argparse.ArgumentTypeError("range step must be positive")
    stop = b + 1e-9 * max(1.0, abs(b))
    if a + step == a:
        raise argparse.ArgumentTypeError(f"range {text!r}: step {step!r} cannot move {a!r}")
    if (stop - a) / step >= _MAX_RANGE_VALUES:
        raise argparse.ArgumentTypeError(
            f"range {text!r} has more than {_MAX_RANGE_VALUES} values")
    values = []
    v = a
    while v <= stop:
        values.append(round(v, 12))
        # a step that moves a can still stall where the spacing of doubles
        # doubles past a power of two
        if v + step == v:
            raise argparse.ArgumentTypeError(f"range {text!r}: step {step!r} cannot move {v!r}")
        v += step
    return tuple(values)


def _checked(convert, accept, rule: str):
    """argparse `type=` for a number that must satisfy `accept`, so that a bad
    value is a usage error rather than a traceback from deep in the run."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


_at_least_one = _checked(int, lambda v: v >= 1, ">= 1")
_positive = _checked(float, lambda v: 0 < v < math.inf, "finite and > 0")
_nonnegative = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_unit_interval = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_at_least_two = _checked(float, lambda v: 2 <= v < math.inf, "finite and >= 2")


@contextlib.contextmanager
def _open_out(out_path: str | None) -> Iterator[IO[str]]:
    """The `--out` file, or stdout when no path is given. A reader that closes
    stdout early (`| head`) ends the output, not the command."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; give that flush a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load(path: str):
    """The scenario at `--scenario`; a file that cannot be read or parsed is
    a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_scenario(fh.read())
    except (OSError, UnicodeDecodeError, ScenarioFormatError) as err:
        reason = getattr(err, "strerror", None) or err
        raise argparse.ArgumentTypeError(f"argument --scenario: {path}: {reason}") from None


# gen/sweep scenario flag (its argparse dest) -> the RadioParams field it sets
_RADIO_FLAGS = {"area": "area_side", "p_tx": "p_tx", "rbs": "total_rbs",
                "packet_bits": "packet_bits"}


def _radio_from_args(args) -> RadioParams:
    return RadioParams(**{field: getattr(args, dest) for dest, field in _RADIO_FLAGS.items()
                          if getattr(args, dest) is not None})


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    """The flags that draw a scenario, shared by gen and sweep."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clusters", type=_at_least_one, default=20)
    p.add_argument("--member-min", type=_at_least_one, default=1)
    p.add_argument("--member-max", type=_at_least_one, default=10)
    p.add_argument("--area", type=_positive, default=None)
    p.add_argument("--p-tx", type=_unit_interval, default=None)
    p.add_argument("--rbs", type=_at_least_one, default=None)
    p.add_argument("--packet-bits", type=_positive, default=None)


def _add_common(p: argparse.ArgumentParser, scenario: bool = True) -> None:
    if scenario:
        p.add_argument("--scenario", required=True, help="scenario file to read")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--mu", type=_positive, default=1.0,
                   help="packets served per full slot of dwelling")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="uavm2m",
        description="UAV fleet planning and uplink resource allocation "
                    "for clustered M2M traffic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random scenario file")
    _add_scenario_flags(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("plan", help="dwell plan and minimum UAV count")
    _add_common(p)
    p.add_argument("--slack-target", type=_nonnegative, default=0.0)

    p = sub.add_parser("simulate", help="Monte Carlo queue backlog simulation")
    _add_common(p)
    p.add_argument("--horizon", type=_at_least_one, default=10_000)
    p.add_argument("--epsilon", type=_positive, default=0.01)
    p.add_argument("--integer-service", action="store_true")
    p.add_argument("--slack-target", type=_nonnegative, default=0.0)

    p = sub.add_parser("solve-ra", help="solve the RB/power allocation")
    _add_common(p)
    p.add_argument("--rbs", type=_at_least_one, default=None,
                   help="override the scenario RB budget")
    p.add_argument("--solver", choices=("kkt", "reduced", "both"), default="reduced")

    p = sub.add_parser("sweep", help="parameter sweep over full pipeline runs")
    p.add_argument("--variable", choices=harness.SWEEP_VARIABLES, required=True)
    p.add_argument("--values", type=_parse_values, required=True,
                   help="comma list a,b,c or inclusive range a:b:step")
    p.add_argument("--replications", type=_at_least_one, default=1)
    _add_scenario_flags(p)
    p.add_argument("--mu", type=_positive, default=1.0)
    p.add_argument("--solver", choices=("kkt", "reduced", "both"), default="reduced")
    p.add_argument("--horizon-slots", type=_at_least_one, default=1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("baseline", help="UAV vs terrestrial power comparison")
    _add_common(p)
    p.add_argument("--bs-height", type=_positive, default=25.0)
    p.add_argument("--bs-exponent", type=_at_least_two, default=3.5)
    p.add_argument("--placement", choices=("grid", "at_cluster_heads"), default="grid")

    args = parser.parse_args(argv)
    if args.command in ("gen", "sweep") and args.member_min > args.member_max:
        parser.error(f"--member-min {args.member_min} exceeds --member-max {args.member_max}")
    try:
        return _run(args)
    except (scheduler.UnplannableRateError, argparse.ArgumentTypeError) as err:
        parser.error(str(err))


def _run(args: argparse.Namespace) -> int:
    if args.command == "gen":
        scenario = generate_scenario(args.seed, args.clusters, args.member_min,
                                     args.member_max, _radio_from_args(args))
        with _open_out(args.out) as out:
            out.write(save_scenario(scenario))
        return 0

    if args.command == "plan":
        scenario = _load(args.scenario)
        plan = scheduler.plan_min_fleet(queueing.arrival_rates(scenario), args.mu,
                                        args.slack_target)
        with _open_out(args.out) as out:
            scheduler.write_plan_csv(plan, out)
        print(f"u_min={plan.uav_count}", file=sys.stderr)
        return 0

    if args.command == "simulate":
        scenario = _load(args.scenario)
        plan = scheduler.plan_min_fleet(queueing.arrival_rates(scenario), args.mu,
                                        args.slack_target)
        trace = queueing.simulate(scenario, plan.dwell, service_rate=args.mu,
                                  horizon=args.horizon, seed=args.seed,
                                  integer_service=args.integer_service)
        with _open_out(args.out) as out:
            queueing.write_trace_csv(trace, out)
        stable = queueing.is_rate_stable(trace, args.epsilon) if args.horizon >= 1000 else None
        print(f"max_backlog_rate={float(trace.final_rates().max()):.9g} "
              f"stable={stable}", file=sys.stderr)
        return 0

    if args.command == "solve-ra":
        scenario = _load(args.scenario)
        if args.rbs is not None:
            scenario = dataclasses.replace(scenario, total_rbs=args.rbs)
        result = harness.run_pipeline(scenario, mu=args.mu, seed=args.seed,
                                      solver=args.solver)
        with _open_out(args.out) as out:
            raopt.write_solution_csv(result.best, result.instance, out)
        line = (f"u_min={result.u_min} avg_power_w={result.avg_power_w:.9g} "
                f"continuous_objective_w={result.continuous.objective:.9g}")
        if result.kkt_objective_w is not None:
            line += f" kkt_objective_w={result.kkt_objective_w:.9g}"
        print(line, file=sys.stderr)
        return 0

    if args.command == "sweep":
        radio = _radio_from_args(args)
        try:
            spec = harness.SweepSpec(
                variable=args.variable, values=args.values,
                replications=args.replications, base_seed=args.seed,
                num_clusters=args.clusters, member_min=args.member_min,
                member_max=args.member_max, radio=radio,
                mu=args.mu, solver=args.solver, horizon_slots=args.horizon_slots,
            )
        except ValueError as err:  # a value the swept variable cannot take
            raise argparse.ArgumentTypeError(f"argument --values: {err}") from None
        rows = harness.run_sweep(spec)
        with _open_out(args.out) as out:
            harness.sweep_to_csv(rows, out)
        return 0

    if args.command == "baseline":
        scenario = _load(args.scenario)
        spec = harness.BaselineSpec(bs_height_m=args.bs_height,
                                    pathloss_exp_terrestrial=args.bs_exponent,
                                    placement=args.placement)
        result = harness.run_baseline_comparison(scenario, spec, mu=args.mu,
                                                 seed=args.seed)
        with _open_out(args.out) as out:
            out.write("u_min,uav_avg_power_w,terrestrial_avg_power_w,reduction\n"
                      f"{result.u_min},{result.uav_avg_power_w:.9g},"
                      f"{result.terrestrial_avg_power_w:.9g},{result.reduction:.9g}\n")
        return 0

    return 2  # unreachable


if __name__ == "__main__":
    sys.exit(main())
