"""Run orchestration: parameter defaults, stop rule, traces, grids."""
import json
from dataclasses import replace

import numpy as np
import pytest

from dlsq.analysis import estimation_error
from dlsq.datasets import compute_spectrum, load_dataset, make_shards, synthesize_problem
from dlsq.runner import (
    DEFAULT_PARAMS,
    RunConfig,
    emit,
    load_grid_config,
    parse_trace,
    rep_seed,
    resolve_noise,
    resolve_params,
    run,
    run_grid,
    run_monte_carlo,
    trace_csv_text,
)
from dlsq.solvers import METHODS, make_solver, run_rounds

SPEC = "synth:60,10,4.0,3"


def cfg(**kw):
    base = dict(dataset=SPEC, method="ipg", m=5, max_iters=500)
    base.update(kw)
    return RunConfig(**base)


# -- parameter resolution -----------------------------------------------------


def test_reference_parameter_table_verbatim():
    # frozen copies of the built-in tuning for the two named datasets
    expect = {
        ("ash608", "ipg"): {"alpha": 0.1163, "delta": 1.0},
        ("ash608", "gd"): {"alpha": 0.1163},
        ("ash608", "nag"): {"alpha": 0.08, "beta": 0.5},
        ("ash608", "hbm"): {"alpha": 0.15, "beta": 0.29},
        ("ash608", "apc"): {"gamma": 1.02, "eta_apc": 5.27},
        ("ash608", "bfgs"): {},
        ("gr_30_30", "ipg"): {"alpha": 0.014, "delta": 1.0},
        ("gr_30_30", "gd"): {"alpha": 0.014},
        ("gr_30_30", "nag"): {"alpha": 0.009, "beta": 0.99},
        ("gr_30_30", "hbm"): {"alpha": 0.03, "beta": 0.98},
        ("gr_30_30", "apc"): {"gamma": 1.09, "eta_apc": 12.8},
        ("gr_30_30", "bfgs"): {},
    }
    assert DEFAULT_PARAMS == expect


def test_named_dataset_defaults_win_over_formulas():
    ds = synthesize_problem(40, 6, cond=4.0, seed=0)
    sp = compute_spectrum(ds.A)
    p = resolve_params(RunConfig(dataset="ash608", method="nag"), "ash608", sp)
    assert p == {"alpha": 0.08, "beta": 0.5}


def test_synthetic_datasets_get_spectral_formulas():
    ds = load_dataset(SPEC)
    sp = compute_spectrum(ds.A)
    p = resolve_params(RunConfig(dataset=SPEC, method="gd"), ds.name, sp)
    assert p["alpha"] == pytest.approx(2.0 / (sp.lambda_1 + sp.lambda_d))
    p = resolve_params(RunConfig(dataset=SPEC, method="ipg"), ds.name, sp)
    assert p["delta"] == 1.0
    p = resolve_params(RunConfig(dataset=SPEC, method="hbm"), ds.name, sp)
    assert 0 < p["beta"] < 1


def test_explicit_values_override_everything():
    ds = load_dataset(SPEC)
    sp = compute_spectrum(ds.A)
    p = resolve_params(RunConfig(dataset="ash608", method="ipg", alpha=0.5, delta=0.7),
                       "ash608", sp)
    assert p == {"alpha": 0.5, "delta": 0.7}


def test_resolve_noise_defaults_and_errors():
    c = cfg(noise="observation")
    with pytest.raises(ValueError):
        resolve_noise(c, "synth-60x10-c4-s3", 10)  # non-registry needs a level
    obs, pn, meta = resolve_noise(cfg(noise="observation", noise_level=0.25),
                                  "whatever", 10)
    assert obs.half_width == 0.25 and meta["half_width"] == 0.25

    obs, pn, meta = resolve_noise(cfg(noise="observation"), "ash608", 188)
    assert obs.half_width == 0.25
    obs, pn, meta = resolve_noise(cfg(noise="observation"), "gr_30_30", 900)
    assert obs.half_width == 0.15

    _, pn, meta = resolve_noise(cfg(noise="process"), "ash608", 188)
    assert meta["kind"] == "roundoff" and meta["omega"] == pytest.approx(188 * 0.5e-4)
    _, pn, meta = resolve_noise(cfg(noise="process", method="apc"), "gr_30_30", 900)
    assert meta["kind"] == "uniform" and meta["high"] == pytest.approx(5e-5)
    _, pn, meta = resolve_noise(cfg(noise="process", method="bfgs"), "ash608", 188)
    assert meta["high"] == pytest.approx(9e-5)
    _, pn, meta = resolve_noise(cfg(noise="process", method="bfgs"), "gr_30_30", 900)
    assert meta["high"] == pytest.approx(2e-6)

    with pytest.raises(ValueError):
        resolve_noise(cfg(noise="process", process_kind="uniform"), "x", 10)
    with pytest.raises(ValueError):
        resolve_noise(cfg(noise="banana"), "x", 10)


def test_run_validates_method_and_noise():
    with pytest.raises(ValueError):
        run(cfg(method="rmsprop"))
    with pytest.raises(ValueError):
        run(cfg(noise="adversarial"))


@pytest.mark.parametrize("field,value", [
    ("noise_level", -0.5),
    ("noise_level", float("nan")),
    ("roundoff_decimals", 400),
    ("roundoff_decimals", -400),
    ("stop_window", 0),
    ("stop_tol", -1e-6),
    ("method", "adam"),
    ("noise", "adversarial"),
    ("process_kind", "gaussian"),
    ("m", 0),
    ("reps", 0),
    ("max_iters", -1),
    ("alpha", float("inf")),
    ("alpha", "0.1"),
    ("delta", float("-inf")),
    ("beta", True),
    ("gamma", float("nan")),
    ("eta_apc", float("inf")),
    ("process_low", float("nan")),
    ("process_low", None),
])
def test_run_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        cfg(**{field: value})


def test_grid_config_error_names_the_cell(tmp_path):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({
        "defaults": {"dataset": SPEC},
        "runs": [{"method": "gd"}, {"method": "gd", "reps": 0}],
    }))
    with pytest.raises(ValueError, match=r"^runs\[1\]: reps must be >= 1"):
        load_grid_config(grid_file)


def test_run_config_accepts_disabled_stop_rule_and_zero_rounds():
    trace = run(cfg(stop_tol=0.0, max_iters=0))
    assert trace.summary["iterations"] == 0


# -- stop rule and divergence --------------------------------------------------


def stop_rule_oracle(deltas, tol, window):
    """First row index (1-based) at which the rule fires, else None."""
    run_len = 0
    for i, d in enumerate(deltas, start=1):
        run_len = run_len + 1 if d < tol else 0
        if run_len >= window:
            return i
    return None


@pytest.mark.parametrize("method", ["ipg", "gd", "nag", "hbm", "apc", "bfgs"])
def test_stop_matches_trace_oracle(method):
    trace = run(cfg(method=method, max_iters=3000))
    deltas = [r.step_delta for r in trace.rows[1:]]
    expected = stop_rule_oracle(deltas, 1e-4, 20)
    assert trace.summary["stopped"] == "stoprule"
    assert trace.rows[-1].t == expected
    assert trace.summary["iterations"] == expected


def test_stop_window_must_be_consecutive():
    # every sub-threshold streak shorter than the window is interrupted
    trace = run(cfg(max_iters=3000, stop_window=5, stop_tol=1e-6))
    deltas = [r.step_delta for r in trace.rows[1:]]
    assert trace.rows[-1].t == stop_rule_oracle(deltas, 1e-6, 5)


def test_max_iters_cap():
    trace = run(cfg(stop_tol=0.0, max_iters=37))
    assert trace.summary["stopped"] == "maxiter"
    assert trace.rows[-1].t == 37


def test_divergence_flag_on_unstable_step():
    trace = run(cfg(method="gd", alpha=10.0, max_iters=5000))
    assert trace.summary["diverged"]
    assert trace.summary["stopped"] == "diverged"
    assert trace.rows[-1].diverged
    assert trace.summary["diverged_at"] == trace.rows[-1].t
    # all earlier rows are clean
    assert not any(r.diverged for r in trace.rows[:-1])


def test_summary_final_error_equals_last_row():
    trace = run(cfg(method="hbm"))
    assert trace.summary["final_err"] == trace.rows[-1].err
    ts = [r.t for r in trace.rows]
    assert ts == list(range(len(ts)))


# -- determinism and serialization ---------------------------------------------


def test_identical_configs_give_identical_bytes():
    c = cfg(method="ipg", noise="observation", noise_level=0.1, seed=77)
    a = trace_csv_text(run(c))
    b = trace_csv_text(run(c))
    assert a == b


@pytest.mark.parametrize("noise", [
    dict(noise="none"),
    dict(noise="observation", noise_level=0.05),
    dict(noise="process", process_kind="roundoff"),
    dict(noise="process", process_kind="uniform", process_low=-1e-4, noise_level=2e-4),
])
@pytest.mark.parametrize("method", METHODS)
def test_trace_emit_parse_roundtrip_json(tmp_path, method, noise):
    trace = run(cfg(method=method, seed=5, **noise))
    _, json_path = emit(trace, tmp_path, basename="t")
    back = parse_trace(json_path)
    assert back.config == trace.config
    assert back.params == trace.params
    assert back.rows == trace.rows
    assert back.summary == trace.summary


def test_trace_json_is_strict_for_non_finite_rows(tmp_path):
    # the first gd step with alpha = 1e308 overflows: err and step_delta are inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        trace = run(cfg(method="gd", alpha=1e308))
    assert trace.summary["stopped"] == "diverged"
    assert trace.rows[1].err == np.inf and trace.rows[1].step_delta == np.inf
    csv_path, json_path = emit(trace, tmp_path, basename="t")

    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    obj = json.loads(json_path.read_text(), parse_constant=reject)
    assert obj["rows"][1][1] == "inf" and obj["summary"]["final_err"] == "inf"
    assert parse_trace(json_path).rows == parse_trace(csv_path).rows == trace.rows


def test_parse_trace_restores_non_finite_summary_and_params(tmp_path):
    with pytest.warns(RuntimeWarning, match="overflow"):
        trace = run(cfg(method="gd", alpha=1e308, seed=3))
    _, json_path = emit(trace, tmp_path, basename="t")
    back = parse_trace(json_path)
    assert back.summary["final_err"] == np.inf
    assert back.summary == json.loads(json.dumps(trace.summary))
    assert back.params == trace.params == {"alpha": 1e308}
    s = back.summary
    assert (s["dataset"], s["method"], s["stopped"], s["noise"]["noise"]) == (
        "synth-60x10-c4-s3", "gd", "diverged", "none")


def test_trace_emit_parse_roundtrip_csv(tmp_path):
    trace = run(cfg(method="nag", seed=2))
    csv_path, _ = emit(trace, tmp_path, basename="t")
    back = parse_trace(csv_path)
    assert back.rows == trace.rows


def test_csv_has_header_plus_row_per_iteration(tmp_path):
    trace = run(cfg(max_iters=3, stop_tol=0.0))
    text = trace_csv_text(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "t,err,step_delta,bound_t1,u_t,bound_t2,diverged"
    assert len(lines) == 1 + 4  # t = 0 plus 3 iterations


def test_bound_columns_only_for_preconditioned_noisy_runs():
    tr = run(cfg(method="gd", noise="process"))
    assert all(r.bound_t1 is None and r.bound_t2 is None for r in tr.rows)
    tr = run(cfg(method="ipg", noise="none"))
    assert all(r.bound_t1 is None and r.bound_t2 is None for r in tr.rows)
    tr = run(cfg(method="ipg", noise="observation", noise_level=0.05))
    assert all(r.bound_t1 is not None for r in tr.rows[1:])
    tr = run(cfg(method="ipg", noise="process"))
    assert all(r.u_t is not None and r.bound_t2 is not None for r in tr.rows[1:])
    assert tr.rows[0].bound_t2 is not None


# -- repetitions and grids ------------------------------------------------------


def test_rep_seed_layout():
    assert rep_seed(123, 0) == 123
    assert rep_seed(123, 1) == rep_seed(123, 1)
    seeds = {rep_seed(123, r) for r in range(50)}
    assert len(seeds) == 50


def test_monte_carlo_aggregates():
    c = cfg(noise="observation", noise_level=0.1, seed=9, reps=6)
    mc = run_monte_carlo(c)
    assert len(mc.final_errs) == 6
    assert mc.first_trace.summary["seed"] == 9
    assert mc.mean == pytest.approx(float(np.mean(mc.final_errs)))
    assert mc.std > 0  # independent draws


def test_grid_runs_and_isolates_failures(tmp_path):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({
        "defaults": {"dataset": SPEC, "m": 5, "seed": 4, "max_iters": 400},
        "runs": [
            {"method": "ipg"},
            {"method": "gd", "alpha": 10.0},            # diverges
            {"method": "gd", "dataset": "missing_ds"},  # fails to load
        ],
    }))
    configs = load_grid_config(grid_file)
    assert len(configs) == 3 and configs[0].m == 5
    results, rows = run_grid(configs, out_dir=tmp_path / "out")
    assert rows[0]["stopped"] == "stoprule" and rows[0]["error"] == ""
    assert rows[1]["stopped"] == "diverged"
    assert "FileNotFoundError" in rows[2]["error"]
    assert results[2] is None
    summary = (tmp_path / "out" / "grid_summary.csv").read_text()
    assert summary.count("\n") == 4  # header + 3 cells
    # per-run trace files written for the cells that ran
    assert (tmp_path / "out" / "synth-60x10-c4-s3-ipg-none-s4.csv").exists()


def test_empty_grid_is_fine(tmp_path):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"runs": []}))
    configs = load_grid_config(grid_file)
    results, rows = run_grid(configs, out_dir=tmp_path / "out")
    assert results == [] and rows == []
    assert (tmp_path / "out" / "grid_summary.csv").read_text().startswith("label,")


def test_grid_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"runs": [{"method": "gd"}]}))
    with pytest.raises(ValueError):
        load_grid_config(bad)
    bad.write_text(json.dumps({"runs": [{"dataset": SPEC, "method": "gd",
                                         "bogus_key": 1}]}))
    with pytest.raises(ValueError):
        load_grid_config(bad)


def test_config_roundtrip_dict():
    c = cfg(noise="process", seed=3, label="x")
    assert RunConfig.from_dict(c.to_dict()) == c


def test_observation_summary_records_noise_levels():
    tr = run(cfg(noise="observation", noise_level=0.2, seed=1))
    noise = tr.summary["noise"]
    assert noise["half_width"] == 0.2
    # 60 rows over 5 agents: every shard has 12 rows
    assert noise["eta"] == pytest.approx(12 * 0.1)
    assert noise["eta_realized_max"] > 0


def test_bfgs_summary_reports_skip_rounds():
    tr = run(cfg(method="bfgs"))
    assert "bfgs_update_skips" in tr.summary
    assert tr.summary["bfgs_update_skips"] == len(tr.summary["bfgs_skip_rounds"])


def test_process_summary_records_realized_level():
    tr = run(cfg(method="gd", noise="process", process_kind="uniform",
                 noise_level=1e-3, max_iters=100, stop_tol=0.0))
    noise = tr.summary["noise"]
    # fresh uniform(0, 1e-3) draws: per-variable l1 concentrates at d * high / 2
    assert noise["omega_realized_mean"] == pytest.approx(10 * 0.5e-3, rel=0.1)
    tr = run(cfg(method="ipg", noise="process"))
    assert 0.0 <= tr.summary["noise"]["omega_realized_mean"] <= tr.summary["noise"]["omega"]


# -- one round loop -----------------------------------------------------------


@pytest.mark.parametrize("noise", [
    {},
    {"noise": "process", "process_kind": "uniform", "noise_level": 2e-4, "process_low": -1e-4},
])
@pytest.mark.parametrize("method", METHODS)
def test_run_rounds_sees_the_errors_run_records(method, noise):
    # run() and run_rounds() drive the solver through the same generator, so
    # the same solver, shards and noise give the same errors bit for bit
    config = cfg(method=method, max_iters=40, stop_tol=0.0, seed=5, **noise)
    ds = load_dataset(SPEC)
    params = resolve_params(config, ds.name, compute_spectrum(ds.A))
    _, pnoise, _ = resolve_noise(config, ds.name, ds.n_cols)
    solver = make_solver(method, params)
    errs = []
    run_rounds(solver, make_shards(ds, config.m), ds.n_cols, config.max_iters,
               pnoise=pnoise, seed=config.seed,
               collect=lambda state, t: errs.append(estimation_error(solver.iterate(state),
                                                                     ds.x_star)))
    rows = run(config).rows
    assert len(rows) == config.max_iters + 1
    assert [r.err for r in rows] == errs
