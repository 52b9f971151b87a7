import dataclasses
import os
import pathlib
import subprocess
import sys
import time

import pytest

from uavm2m import cli, harness, queueing, scheduler
from uavm2m.model import RadioParams, generate_scenario, load_scenario, save_scenario


def _gen(tmp_path, name="scn.txt", extra=()):
    path = tmp_path / name
    rc = cli.main(["gen", "--seed", "7", "--clusters", "5", "--rbs", "12",
                   "--out", str(path), *extra])
    assert rc == 0
    return path


def test_gen_writes_loadable_scenario(tmp_path):
    path = _gen(tmp_path)
    scenario = load_scenario(path.read_text())
    assert scenario.num_clusters == 5
    assert scenario.total_rbs == 12


def test_gen_deterministic(tmp_path):
    a = _gen(tmp_path, "a.txt").read_text()
    b = _gen(tmp_path, "b.txt").read_text()
    assert a == b


def test_plan_outputs_csv(tmp_path, capsys):
    scn = _gen(tmp_path)
    out = tmp_path / "plan.csv"
    assert cli.main(["plan", "--scenario", str(scn), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "uav_id,ch_id,dwell_fraction"
    assert len(lines) > 1
    assert "u_min=" in capsys.readouterr().err


def test_simulate_writes_trace(tmp_path, capsys):
    scn = _gen(tmp_path)
    out = tmp_path / "trace.csv"
    assert cli.main(["simulate", "--scenario", str(scn), "--horizon", "1500",
                     "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "slot,ch_id,backlog"
    assert len(lines) == 1 + 1501 * 5
    assert "max_backlog_rate=" in capsys.readouterr().err


def test_simulate_streams_same_bytes_to_stdout_and_file(tmp_path, capsys):
    scn = _gen(tmp_path)
    args = ["simulate", "--scenario", str(scn), "--horizon", "1500", "--seed", "3"]
    out = tmp_path / "trace.csv"
    assert cli.main([*args, "--out", str(out)]) == 0
    to_file = capsys.readouterr()
    assert to_file.out == ""
    assert cli.main(args) == 0
    to_stdout = capsys.readouterr()
    assert to_stdout.out.encode("utf-8") == out.read_bytes()
    scenario = load_scenario(scn.read_text())
    plan = scheduler.plan_min_fleet(queueing.arrival_rates(scenario), 1.0, 0.0)
    trace = queueing.simulate(scenario, plan.dwell, horizon=1500, seed=3)
    summary = (f"max_backlog_rate={float(trace.final_rates().max()):.9g} "
               f"stable={queueing.is_rate_stable(trace, 0.01)}\n")
    assert to_file.err == to_stdout.err == summary


def test_simulate_to_closed_pipe_ends_quietly(tmp_path):
    # a reader that stops early (`uavm2m simulate ... | head`) ends the
    # stream; the command still prints its summary and exits 0
    scn = _gen(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    with subprocess.Popen(
            [sys.executable, "-m", "uavm2m.cli", "simulate", "--scenario", str(scn),
             "--horizon", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(19) == b"slot,ch_id,backlog\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("max_backlog_rate=")


def test_solve_ra_file_format(tmp_path, capsys):
    scn = _gen(tmp_path)
    out = tmp_path / "ra.csv"
    assert cli.main(["solve-ra", "--scenario", str(scn), "--seed", "7",
                     "--solver", "both", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("uav_id,rbs\n")
    assert "ch_id,uav_id,power_w\n" in text
    assert "objective_w=" in text
    err = capsys.readouterr().err
    assert "kkt_objective_w=" in err and "u_min=" in err


def test_solve_ra_reaches_a_binding_power_cap(tmp_path, capsys):
    # a crosscheck-pool scenario saved with pmax_w just below its uncapped
    # optimum's peak link power: both routes reach the capped optimum
    seed = 582525683
    scenario = generate_scenario(seed, 7, 1, 10, RadioParams(total_rbs=6))
    peak = float(harness.run_pipeline(scenario, seed=seed).continuous.power.max())
    scn = tmp_path / "capped.txt"
    scn.write_text(save_scenario(dataclasses.replace(scenario, pmax_w=0.999 * peak)))
    assert cli.main(["solve-ra", "--scenario", str(scn), "--seed", str(seed),
                     "--solver", "both", "--out", str(tmp_path / "ra.csv")]) == 0
    fields = dict(item.split("=") for item in capsys.readouterr().err.split())
    assert fields["kkt_objective_w"] == fields["continuous_objective_w"]


def test_sweep_byte_identical_reruns(tmp_path):
    args = ["sweep", "--variable", "p_tx", "--values", "0.1,0.2",
            "--replications", "2", "--clusters", "4", "--rbs", "12",
            "--seed", "11"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "value,replication,seed,u_min,avg_power_w,avg_rbs_per_uav,total_energy_j,error"


def test_sweep_range_values(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--variable", "num_clusters", "--values", "2:6:2",
                     "--clusters", "4", "--rbs", "12", "--out", str(out)]) == 0
    body = out.read_text()
    for v in ("\n2,", "\n4,", "\n6,"):
        assert v in body


def test_baseline_csv(tmp_path):
    scn = _gen(tmp_path)
    out = tmp_path / "base.csv"
    assert cli.main(["baseline", "--scenario", str(scn), "--seed", "7",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u_min,uav_avg_power_w,terrestrial_avg_power_w,reduction"
    fields = lines[1].split(",")
    assert float(fields[1]) < float(fields[2])


def test_bad_values_argument_rejected():
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--variable", "p_tx", "--values", "0.1:0.2"])


@pytest.mark.parametrize("values", ["0.1:0.5:nan", "0.1:inf:0.1", "-inf:0.5:0.1", "0.1,nan"])
def test_non_finite_sweep_value_is_a_usage_error(tmp_path, capsys, values):
    # a NaN step would sweep the first value alone, an infinite bound would
    # append values until memory runs out, and a NaN in a list would reach the cells
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--variable", "p_tx", f"--values={values}", "--clusters", "3",
                  "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --values: values must be finite, got {values!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("values,why", [
    ("0.1:0.2:1e-300", ": step 1e-300 cannot move 0.1"),
    # the step moves the start but not 2**53, where the spacing of doubles is 2
    ("9007199254740990:9007199245740992:1", ": step 1.0 cannot move 9007199254740992.0"),
    ("0:1e300:1", " has more than 1000000 values"),
    ("0:1000000:1", " has more than 1000000 values"),  # one value too many
])
def test_endless_or_huge_sweep_range_is_a_usage_error(tmp_path, capsys, values, why):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--variable", "p_tx", f"--values={values}", "--clusters", "3",
                  "--out", str(tmp_path / "s.csv")])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --values: range {values!r}{why}" in err
    assert "Traceback" not in err


def test_slack_target_sizes_the_fleet(tmp_path, capsys):
    # the fleet must carry the demand plus the slack: the minimum fleet for
    # the bare demand cannot serve it
    scn = tmp_path / "scn.txt"
    assert cli.main(["gen", "--seed", "3", "--clusters", "20", "--out", str(scn)]) == 0
    out = tmp_path / "plan.csv"
    assert cli.main(["plan", "--scenario", str(scn), "--slack-target", "0.05",
                     "--out", str(out)]) == 0
    assert "u_min=14" in capsys.readouterr().err
    rates = queueing.arrival_rates(load_scenario(scn.read_text()))
    assert scheduler.plan_min_fleet(rates, slack_target=0.05).uav_count == 14
    assert out.read_text().splitlines()[0] == "uav_id,ch_id,dwell_fraction"
    assert cli.main(["simulate", "--scenario", str(scn), "--slack-target", "0.05",
                     "--horizon", "10", "--out", str(tmp_path / "trace.csv")]) == 0


@pytest.mark.parametrize("command,flag,value", [
    ("simulate", "--horizon", "0"),
    ("simulate", "--mu", "0"),
    ("simulate", "--mu", "nan"),
    ("sweep", "--mu", "inf"),
    ("simulate", "--epsilon", "-1"),
    ("plan", "--slack-target", "-0.1"),
    ("simulate", "--horizon", "ten"),
    ("gen", "--clusters", "0"),
    ("gen", "--member-min", "0"),
    ("gen", "--member-max", "-1"),
    ("gen", "--rbs", "0"),
    ("solve-ra", "--rbs", "0"),
    ("sweep", "--replications", "0"),
    ("sweep", "--horizon-slots", "0"),
    ("sweep", "--clusters", "0"),
    ("sweep", "--rbs", "2.5"),
    ("gen", "--p-tx", "1.5"),
    ("sweep", "--p-tx", "1.5"),
    ("gen", "--area", "-5"),
    ("gen", "--area", "inf"),
    ("gen", "--packet-bits", "0"),
    ("sweep", "--packet-bits", "nan"),
    ("baseline", "--bs-height", "0"),
    ("baseline", "--bs-exponent", "1"),
    ("baseline", "--bs-exponent", "inf"),
])
def test_bad_numeric_flag_is_a_usage_error(tmp_path, capsys, command, flag, value):
    if command == "sweep":
        args = ["sweep", "--variable", "p_tx", "--values", "0.1"]
    elif command == "gen":
        args = ["gen", "--out", str(tmp_path / "scn.txt")]
    else:
        args = [command, "--scenario", str(_gen(tmp_path))]
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err


@pytest.mark.parametrize("variable", ["num_clusters", "total_rbs"])
def test_fractional_count_sweep_value_is_a_usage_error(capsys, variable):
    # a count is never truncated: the value column would name a run that never ran
    with pytest.raises(ValueError, match=f"{variable} values must be whole numbers, got 2.5"):
        harness.SweepSpec(variable=variable, values=(3.0, 2.5))
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--variable", variable, "--values", "3,2.5", "--clusters", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --values: " in err and "whole numbers" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["gen", "sweep"])
def test_member_min_above_max_is_a_usage_error(tmp_path, capsys, command):
    args = {"gen": ["gen", "--out", str(tmp_path / "scn.txt")],
            "sweep": ["sweep", "--variable", "p_tx", "--values", "0.1"]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--member-min", "5", "--member-max", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--member-min 5 exceeds --member-max 2" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["plan", "simulate", "solve-ra", "baseline"])
def test_unplannable_mu_is_a_usage_error(tmp_path, capsys, command):
    # a finite mu so large that every CH's demand is below the dwell dust cut
    scn = _gen(tmp_path)
    args = [command, "--scenario", str(scn), "--mu", "1e308", "--out", str(tmp_path / "o.csv")]
    if command == "simulate":
        args += ["--horizon", "10"]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "uavm2m: error: mu=1e+308 leaves CH 0" in err and "Traceback" not in err


@pytest.mark.parametrize("row,message", [
    ("p_tx = 1.5", "line 9: p_tx must be in [0, 1], got 1.5"),
    ("pathloss_exponent = nan", "line 6: pathloss_exp must be finite and >= 2, got nan"),
])
def test_bad_scenario_file_is_a_usage_error(tmp_path, capsys, row, message):
    scn = _gen(tmp_path)
    key = row.split(" = ")[0]
    text = scn.read_text()
    old = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
    scn.write_text(text.replace(old, row))
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve-ra", "--scenario", str(scn)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --scenario: {scn}: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("kind,reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("binary", "'utf-8' codec can't decode byte 0xff"),
])
def test_unreadable_scenario_path_is_a_usage_error(tmp_path, capsys, kind, reason):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\xff\xfe scenario")
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve-ra", "--scenario", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --scenario: {path}: {reason}" in err and "Traceback" not in err
