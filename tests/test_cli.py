"""The four subcommands, exercised in-process through main()."""
import json

import numpy as np
import pytest

from dlsq import cli
from dlsq.cli import _config_from_args, build_parser, main
from dlsq.datasets import compute_spectrum, load_dataset
from dlsq.runner import RunConfig, parse_trace, run

SPEC = "synth:60,10,4.0,3"


def test_run_writes_trace_files(tmp_path, capsys):
    rc = main(["run", "--dataset", SPEC, "--method", "ipg", "--noise", "observation",
               "--noise-level", "0.05", "--m", "5", "--seed", "11",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final_err=" in out and "stopped=stoprule" in out
    csvs = list(tmp_path.glob("*.csv"))
    jsons = list(tmp_path.glob("*.json"))
    assert len(csvs) == 1 and len(jsons) == 1
    assert csvs[0].read_text().startswith("t,err,step_delta,")
    meta = json.loads(jsons[0].read_text())
    assert meta["config"]["seed"] == 11
    assert meta["summary"]["final_err"] == meta["rows"][-1][1]


def test_run_reports_monte_carlo_stats(tmp_path, capsys):
    rc = main(["run", "--dataset", SPEC, "--method", "gd", "--noise", "observation",
               "--noise-level", "0.05", "--m", "5", "--reps", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "mc_mean=" in capsys.readouterr().out


def test_run_label_controls_basenames(tmp_path):
    main(["run", "--dataset", SPEC, "--method", "gd", "--m", "5",
          "--label", "mylabel", "--out", str(tmp_path)])
    assert (tmp_path / "mylabel.csv").exists()
    assert (tmp_path / "mylabel.json").exists()


def test_run_missing_dataset_is_reported(tmp_path, capsys):
    rc = main(["run", "--dataset", "no_such_thing", "--method", "gd",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_invalid_config_field_exits_2(tmp_path, capsys):
    rc = main(["run", "--dataset", SPEC, "--method", "gd", "--stop-window", "0",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "stop_window" in capsys.readouterr().err


def test_run_negative_seed_exits_2(tmp_path, capsys):
    rc = main(["run", "--dataset", SPEC, "--method", "gd", "--noise", "observation",
               "--noise-level", "0.05", "--seed", "-1", "--out", str(tmp_path)])
    assert rc == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--method", "gd"], ["bounds"]])
@pytest.mark.parametrize("label", ["../escaped", "sub/name", "", ".", ".."])
def test_label_that_is_not_a_bare_file_name_exits_2(tmp_path, capsys, command, label):
    out = tmp_path / "out"
    rc = main([command[0], "--dataset", SPEC, *command[1:], "--label", label, "--out", str(out)])
    assert rc == 2
    assert "label must be a bare file name" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_grid_with_a_path_label_exits_2_before_any_cell_runs(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "defaults": {"dataset": SPEC, "m": 5, "max_iters": 50},
        "runs": [{"method": "gd"}, {"method": "gd", "label": "../escaped"}],
    }))
    rc = main(["grid", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "runs[1]: label must be a bare file name" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["grid.json"]


def test_grid_whose_cells_share_trace_files_exits_2_before_any_cell_runs(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "defaults": {"dataset": SPEC, "method": "gd", "m": 5, "max_iters": 50},
        "runs": [{"alpha": 0.1}, {"alpha": 0.2, "label": "a"}, {"alpha": 0.3}],
    }))
    rc = main(["grid", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "runs[0] and runs[2] would write the same trace files" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["grid.json"]


def test_grid_names_each_failed_cell(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "defaults": {"dataset": "nosuch.mtx", "m": 5},
        "runs": [{"method": "gd"}, {"method": "ipg"}],
    }))
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "nosuch-gd-none-s0: ERROR FileNotFoundError" in out
    assert "nosuch-ipg-none-s0: ERROR FileNotFoundError" in out


def test_run_flag_defaults_are_run_config_defaults():
    args = build_parser().parse_args(["run", "--dataset", "X", "--method", "gd"])
    assert _config_from_args(args) == RunConfig("X", "gd")


def test_run_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["run", "--dataset", SPEC, "--method", "adam", "--out", str(tmp_path)])
    assert ei.value.code == 2


def test_grid_subcommand(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "defaults": {"dataset": SPEC, "m": 5, "max_iters": 300},
        "runs": [{"method": "ipg"}, {"method": "gd"}],
    }))
    rc = main(["grid", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "grid_summary.csv").exists()
    assert len(list((tmp_path / "out").glob("*-s0.csv"))) == 2
    assert "2 runs, 0 failed" in capsys.readouterr().out


def test_grid_reports_a_failing_cell_and_exits_zero(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "defaults": {"dataset": SPEC, "m": 5, "max_iters": 50},
        "runs": [{"method": "gd"}, {"method": "gd", "dataset": "no_such_thing", "label": "bad"}],
    }))
    rc = main(["grid", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bad: ERROR FileNotFoundError" in out and "2 runs, 1 failed" in out
    header, good, bad = (tmp_path / "out" / "grid_summary.csv").read_text().splitlines()
    error = header.split(",").index("error")
    assert good.split(",")[error] == ""
    assert bad.split(",")[error].startswith("FileNotFoundError")


def test_grid_data_dir_reaches_every_cell(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "defaults": {"dataset": "ash608", "data_dir": str(tmp_path / "elsewhere")},
        "runs": [{"method": "gd"}, {"method": "ipg", "data_dir": str(tmp_path / "other")}],
    }))
    data_dir = tmp_path / "flag_dir"
    rc = main(["grid", "--config", str(config), "--out", str(tmp_path / "out"),
               "--data-dir", str(data_dir)])
    assert rc == 1  # every cell failed
    errors = [line for line in capsys.readouterr().out.splitlines() if "ERROR" in line]
    assert len(errors) == 2
    assert all(str(data_dir / "ash608.mtx") in line for line in errors)


def test_grid_empty_exits_zero(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"runs": []}))
    rc = main(["grid", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "grid_summary.csv").read_text().startswith("label,")


@pytest.mark.parametrize("command", [["run", "--method", "gd"], ["spectrum"], ["bounds"]])
@pytest.mark.parametrize("dataset", ["synth:4,0,1", "synth:0,0,1", "empty.mtx"])
def test_problem_with_no_columns_exits_2(tmp_path, capsys, command, dataset):
    if dataset.endswith(".mtx"):
        path = tmp_path / dataset
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 0 0\n")
        dataset = str(path)
    rc = main([command[0], "--dataset", dataset, *command[1:], "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "no columns" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--method", "gd"], ["spectrum"]])
def test_problem_with_a_non_finite_gram_exits_2(tmp_path, capsys, command):
    path = tmp_path / "inf.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 2 3\n"
                    "1 1 1\n2 2 1\n3 2 inf\n")
    rc = main([command[0], "--dataset", str(path), *command[1:], "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "A^T A is not finite" in capsys.readouterr().err


def test_a_row_holding_inf_and_minus_inf_is_the_not_finite_error(tmp_path, capsys):
    # its b = A x_star is inf - inf = nan; warnings are errors in this suite,
    # so forming b must not warn, and the run's error is the not-finite A^T A
    path = tmp_path / "infs.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 2 3\n"
                    "1 1 inf\n1 2 -inf\n2 2 1\n")
    assert np.isnan(load_dataset(str(path)).b[0])
    with pytest.raises(ValueError, match="A\\^T A is not finite"):
        run(RunConfig(dataset=str(path), method="gd", max_iters=5))
    rc = main(["run", "--dataset", str(path), "--method", "gd", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "A^T A is not finite" in capsys.readouterr().err


def test_spectrum_subcommand(tmp_path, capsys):
    out_file = tmp_path / "spec.json"
    rc = main(["spectrum", "--dataset", SPEC, "--out", str(out_file)])
    assert rc == 0
    report = json.loads(out_file.read_text())
    assert report["lambda_1"] == pytest.approx(4.0, rel=1e-9)
    assert report["lambda_d"] == pytest.approx(1.0, rel=1e-9)
    assert report["cond"] == pytest.approx(4.0, rel=1e-9)
    assert report["varrho"] == pytest.approx(0.6, rel=1e-9)
    assert "k_star_frobenius_norm" in report
    printed = json.loads(capsys.readouterr().out.split("wrote")[1].split("\n", 1)[1])
    assert printed == report


def test_bounds_observation(tmp_path, capsys):
    rc = main(["bounds", "--dataset", SPEC, "--method", "ipg",
               "--noise", "observation", "--noise-level", "0.05", "--m", "5",
               "--horizon", "9", "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / f"bounds-synth-60x10-c4-s3-observation.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("t,err,")
    assert len(lines) == 11  # header + t = 0..9
    report = json.loads((tmp_path / "bounds-synth-60x10-c4-s3-observation.json").read_text())
    # eta = max shard rows (12) * half-width / 2
    assert report["eta"] == pytest.approx(12 * 0.025)
    assert report["asymptote"] == pytest.approx(1.0 * report["eta"] * 5 * 1.0, rel=1e-6)
    assert report["gd_asymptote"] > 0


def test_bounds_process_gates(tmp_path):
    rc = main(["bounds", "--dataset", SPEC, "--method", "ipg", "--noise", "process",
               "--m", "5", "--horizon", "5", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "bounds-synth-60x10-c4-s3-process.json").read_text())
    assert report["omega"] == pytest.approx(10 * 0.5e-4)
    assert {"rho_bound", "omega_bound", "gates_satisfied",
            "factor_limit", "asymptote"} <= set(report)
    rows = (tmp_path / "bounds-synth-60x10-c4-s3-process.csv").read_text().strip().split("\n")
    assert len(rows) == 7
    # u_t column filled from t = 1 on
    assert rows[1].split(",")[4] == ""
    assert float(rows[2].split(",")[4]) > 0


@pytest.mark.parametrize("flags, key", [
    # 60 rows over 7 agents: shards of 9 and 8 rows, eta at the larger one
    ({"noise": "observation", "noise_level": 0.05}, "eta"),
    ({"noise": "process", "process_kind": "uniform", "noise_level": 2e-4,
      "process_low": -1e-4}, "omega"),
])
def test_bounds_and_run_report_the_same_noise_level(tmp_path, flags, key):
    trace = run(RunConfig(dataset=SPEC, method="ipg", m=7, max_iters=1, **flags))
    argv = ["bounds", "--dataset", SPEC, "--m", "7", "--horizon", "1",
            "--out", str(tmp_path), "--label", "b"]
    for name, value in flags.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    assert main(argv) == 0
    report = json.loads((tmp_path / "b.json").read_text())
    assert report[key] == trace.summary["noise"][key]


@pytest.mark.parametrize("flags", [
    ["--noise", "observation"],
    ["--noise", "process", "--process-kind", "uniform"],
])
def test_bounds_missing_noise_level_is_reported(tmp_path, capsys, flags):
    rc = main(["bounds", "--dataset", SPEC, "--out", str(tmp_path)] + flags)
    assert rc == 2
    assert "noise_level" in capsys.readouterr().err


def test_bounds_rejects_other_methods(tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["bounds", "--dataset", SPEC, "--method", "gd",
              "--noise", "process", "--out", str(tmp_path)])
    assert ei.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--noise", "observation", "--noise-level", "0.05"],
    ["--noise", "process"],
])
def test_bounds_rejects_negative_horizon(tmp_path, capsys, flags):
    rc = main(["bounds", "--dataset", SPEC, "--horizon", "-1", "--out", str(tmp_path)] + flags)
    assert rc == 2
    assert "horizon" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["-0.5", "inf", "nan"])
@pytest.mark.parametrize("flag, noise", [
    ("--eta", "observation"),
    ("--omega", "process"),
    ("--z0", "observation"),
])
def test_bounds_rejects_bad_override(tmp_path, capsys, flag, noise, value):
    rc = main(["bounds", "--dataset", SPEC, "--noise", noise, "--noise-level", "0.05",
               flag, value, "--out", str(tmp_path)])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, noise", [
    ("--eta", "process"),
    ("--omega", "observation"),
    ("--eta", "none"),
    ("--omega", "none"),
])
def test_bounds_rejects_the_other_modes_override(tmp_path, capsys, flag, noise):
    # --eta sets the observation level and --omega the process level
    rc = main(["bounds", "--dataset", SPEC, "--noise", noise, "--noise-level", "0.05",
               flag, "0.3", "--out", str(tmp_path)])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bounds_rows_equal_run_bound_columns(tmp_path):
    trace = run(RunConfig(dataset=SPEC, method="ipg", m=5, noise="process",
                          process_kind="uniform", noise_level=0.02, process_low=-0.01,
                          max_iters=300, stop_tol=0.0))
    assert not trace.summary["diverged"]
    assert main(["bounds", "--dataset", SPEC, "--m", "5", "--noise", "process",
                 "--omega", repr(trace.summary["noise"]["omega"]),
                 "--z0", repr(trace.rows[0].err), "--horizon", str(len(trace.rows) - 1),
                 "--out", str(tmp_path), "--label", "b"]) == 0
    rows = parse_trace(tmp_path / "b.csv").rows
    assert [r.bound_t2 for r in rows] == [r.bound_t2 for r in trace.rows]
    assert [r.u_t for r in rows] == [r.u_t for r in trace.rows]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert "dlsq" in capsys.readouterr().out


def test_negative_scientific_values_parse(tmp_path):
    # argparse must not mistake -1e-4 for an option name
    rc = main(["run", "--dataset", SPEC, "--method", "ipg", "--noise", "process",
               "--process-kind", "uniform", "--noise-level", "1e-4",
               "--process-low", "-1e-4", "--m", "5", "--max-iters", "40",
               "--stop-tol", "0", "--out", str(tmp_path)])
    assert rc == 0


def test_bounds_and_spectrum_form_no_k_star(tmp_path, monkeypatch):
    made = []

    def recorded(A):
        made.append(compute_spectrum(A))
        return made[-1]

    monkeypatch.setattr(cli, "compute_spectrum", recorded)
    assert main(["spectrum", "--dataset", SPEC]) == 0
    for noise in ("none", "observation", "process"):
        assert main(["bounds", "--dataset", SPEC, "--noise", noise, "--noise-level", "0.05",
                     "--horizon", "3", "--out", str(tmp_path / noise)]) == 0
    assert len(made) == 4
    assert all("K_star" not in vars(s) for s in made)
