"""Run orchestration: parameter defaults, stop rule, traces, grids."""
import json
import re
import threading
import warnings
import weakref
from dataclasses import asdict, replace
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlsq import runner, solvers
from dlsq.analysis import estimation_error
from dlsq.datasets import (Dataset, Shard, compute_spectrum, load_dataset, make_shards,
                           synthesize_problem)
from dlsq.noise import (
    STREAM_AGENT_BASE,
    STREAM_K,
    STREAM_M,
    STREAM_X,
    STREAM_XBAR,
    ObservationNoise,
    UniformProcessNoise,
)
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
        resolve_noise(c, "synth-60x10-c4-s3", 60, 10)  # non-registry needs a level
    obs, pn, meta = resolve_noise(cfg(noise="observation", noise_level=0.25),
                                  "whatever", 60, 10)
    assert obs.half_width == 0.25 and meta["half_width"] == 0.25

    obs, pn, meta = resolve_noise(cfg(noise="observation"), "ash608", 608, 188)
    assert obs.half_width == 0.25
    obs, pn, meta = resolve_noise(cfg(noise="observation"), "gr_30_30", 900, 900)
    assert obs.half_width == 0.15

    _, pn, meta = resolve_noise(cfg(noise="process"), "ash608", 608, 188)
    assert meta["kind"] == "roundoff" and meta["omega"] == pytest.approx(188 * 0.5e-4)
    _, pn, meta = resolve_noise(cfg(noise="process", method="apc"), "gr_30_30", 900, 900)
    assert meta["kind"] == "uniform" and meta["high"] == pytest.approx(5e-5)
    _, pn, meta = resolve_noise(cfg(noise="process", method="bfgs"), "ash608", 608, 188)
    assert meta["high"] == pytest.approx(9e-5)
    _, pn, meta = resolve_noise(cfg(noise="process", method="bfgs"), "gr_30_30", 900, 900)
    assert meta["high"] == pytest.approx(2e-6)

    with pytest.raises(ValueError):
        resolve_noise(cfg(noise="process", process_kind="uniform"), "x", 60, 10)
    with pytest.raises(ValueError):
        resolve_noise(cfg(noise="banana"), "x", 60, 10)


def test_observation_eta_is_expected_l1_at_largest_shard():
    def eta(a, n_rows, m):
        return resolve_noise(cfg(noise="observation", noise_level=a, m=m), "x", n_rows, 4)[2]["eta"]

    assert eta(0.0, 20, 2) == 0.0
    # 122 rows over 2 agents: 61 rows each, 61 * 0.25 / 2
    assert eta(0.25, 122, 2) == pytest.approx(7.625)
    # 60 rows over 7 agents: shards of 9 and 8 rows, the level is the 9-row one
    model = ObservationNoise(0.05)
    shards = make_shards(synthesize_problem(60, 4, cond=2.0, seed=1), 7)
    assert eta(0.05, 60, 7) == max(model.expected_l1(sh.n_rows) for sh in shards)
    assert eta(0.05, 60, 7) == model.expected_l1(9)


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
    ("seed", -1),
    ("seed", 1.5),
    ("seed", 2**64),
    ("noise_level", float("inf")),
    ("m", 2.5),
    ("m", True),
    ("reps", 2.0),
    ("max_iters", 1.5),
    ("max_iters", 10**20),
    ("stop_window", 2.5),
    ("roundoff_decimals", 4.0),
    ("roundoff_decimals", 309),
    ("roundoff_decimals", -309),
    ("label", "../escaped"),
    ("label", "a/b"),
    ("label", ""),
    ("label", "."),
    ("label", ".."),
])
def test_run_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        cfg(**{field: value})


@pytest.mark.parametrize("kw", [
    dict(seed=2**64 - 1),
    dict(roundoff_decimals=308),
    dict(roundoff_decimals=-308),
    dict(seed=np.int64(3), m=np.int64(4), reps=np.int32(2), alpha=np.float64(0.1),
         noise_level=np.float32(0.5), stop_tol=np.float64(0.0)),
])
def test_run_config_accepts_range_ends_and_numpy_numbers(kw):
    c = cfg(**kw)
    assert all(getattr(c, k) == v for k, v in kw.items())


def test_uniform_noise_rejects_empty_range_naming_both_fields():
    c = cfg(noise="process", process_kind="uniform", process_low=0.5, noise_level=0.1)
    with pytest.raises(ValueError, match=r"noise_level.*process_low=0\.5, got 0\.1"):
        resolve_noise(c, "x", 60, 10)
    # the high end may come from the dataset's convention (apc on ash608: 5e-5)
    with pytest.raises(ValueError, match="process_low"):
        resolve_noise(cfg(noise="process", method="apc", process_low=1e-4), "ash608", 608, 188)


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


class _Fault:
    """Process noise that writes value into entry 0 of one stream at one round."""

    def __init__(self, stream, value, at):
        self.stream, self.value, self.at = stream, value, at

    def corrupt(self, v, stream, iteration):
        if (stream, iteration) == (self.stream, self.at):
            v.flat[0] = self.value
        return 0.0


# process-noise streams, written at round 7, and agent replies, at round 5
FAULT_STREAMS = {"x": STREAM_X, "K": STREAM_K, "M": STREAM_M, "xbar": STREAM_XBAR,
                 "apc-agent": STREAM_AGENT_BASE + 2}
FAULT_REPLIES = {"gradient": "agent_gradient", "R": "agent_r_matrix"}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("method, where", [
    ("ipg", "x"), ("ipg", "K"), ("ipg", "gradient"), ("ipg", "R"),
    ("gd", "x"), ("gd", "gradient"), ("nag", "x"), ("nag", "gradient"),
    ("hbm", "x"), ("hbm", "gradient"), ("bfgs", "x"), ("bfgs", "M"), ("bfgs", "gradient"),
    ("apc", "xbar"), ("apc", "apc-agent"),
])
def test_divergence_guard_trips_in_the_round_of_any_fault(monkeypatch, method, where, value):
    # the guard reads the iterate alone: a non-finite value in any reply,
    # internal array or agent iterate must show in that round's iterate
    m = 5
    if where in FAULT_STREAMS:
        at = 7
        monkeypatch.setattr(runner, "NoProcessNoise",
                            lambda: _Fault(FAULT_STREAMS[where], value, at))
    else:
        at = 5
        real, calls = getattr(solvers, FAULT_REPLIES[where]), count()

        def faulty(shard, *args):
            out = real(shard, *args)
            if next(calls) == m * (at - 1) + 1:  # agent 1's reply in round `at`
                out = out.copy()
                out.flat[0] = value
            return out

        monkeypatch.setattr(solvers, FAULT_REPLIES[where], faulty)
    with np.errstate(all="ignore"):
        trace = run(cfg(method=method, m=m, stop_tol=0.0, max_iters=20))
    assert trace.summary["diverged_at"] == at == trace.rows[-1].t
    assert trace.rows[-1].diverged
    assert not any(r.diverged for r in trace.rows[:-1])
    assert all(np.isfinite(r.err) for r in trace.rows[:-1])


def test_overflowing_iterate_returns_the_diverged_trace():
    # x(1) ~ 1e200 squares past the float range inside the norms
    config = RunConfig("synth:60,10,4,3", "nag", alpha=1e200, beta=0.5, m=5, max_iters=20,
                       stop_tol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(config)
    assert trace.summary["stopped"] == "diverged"
    assert trace.summary["diverged_at"] == 1
    # the golden gate's nag-a1e200 trace (tools/golden.py), seeds 0 and 5
    assert trace_csv_text(trace) == ("t,err,step_delta,bound_t1,u_t,bound_t2,diverged\n"
                                     "0,3.1622776601683795,,,,,0\n1,inf,inf,,,,1\n")


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


def without_wall_time(summary):
    return {k: v for k, v in summary.items() if k != "wall_time_s"}


@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rep=st.integers(0, 2),
       method=st.sampled_from(["ipg", "gd"]),
       noise=st.sampled_from([dict(noise="observation", noise_level=0.05),
                              dict(noise="process", process_kind="uniform", noise_level=1e-3)]))
def test_monte_carlo_rep_is_a_single_run_at_its_seed(seed, rep, method, noise):
    c = cfg(method=method, seed=seed, reps=3, max_iters=30, stop_tol=0.0, **noise)
    mc = run_monte_carlo(c)
    single = run(replace(c, seed=rep_seed(c.seed, rep), reps=1))
    assert mc.final_errs[rep] == single.final_err
    assert without_wall_time(mc.summaries[rep]) == without_wall_time(single.summary)
    again = run_monte_carlo(c)
    assert np.array_equal(again.final_errs, mc.final_errs)
    assert again.first_trace.rows == mc.first_trace.rows
    assert [without_wall_time(s) for s in again.summaries] == [
        without_wall_time(s) for s in mc.summaries]


@pytest.mark.parametrize("noise", [
    dict(noise="none"),
    dict(noise="observation", noise_level=0.05),
    dict(noise="process", process_kind="roundoff"),
    dict(noise="process", process_kind="uniform", process_low=-1e-4, noise_level=2e-4),
])
@pytest.mark.parametrize("method", METHODS)
def test_trace_emit_parse_roundtrip_json(tmp_path, method, noise):
    config = cfg(method=method, seed=5, label="t", **noise)
    # numpy scalars pass RunConfig and are kept as built-in int and float
    numeric = {f: v for f, v in asdict(config).items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)}
    as_numpy = RunConfig(**{**asdict(config), **{
        f: np.int64(v) if isinstance(v, int) else np.float32(v) for f, v in numeric.items()}})
    assert all(type(getattr(as_numpy, f)) is type(v) for f, v in numeric.items())
    for c in (config, as_numpy):
        trace = run(c)
        csv_path, json_path = emit(trace, tmp_path)
        back = parse_trace(json_path)
        assert back.config == trace.config
        assert back.params == trace.params
        assert back.rows == trace.rows
        assert back.summary == trace.summary
        # the config read back re-runs the trace, byte for byte (compared
        # as lists of lines: pytest's diff of two long texts is quadratic)
        assert (trace_csv_text(run(back.config)).splitlines(keepends=True)
                == csv_path.read_text().splitlines(keepends=True))


def test_trace_json_is_strict_for_non_finite_rows(tmp_path):
    # the first gd step with alpha = 1e308 overflows: err and step_delta are inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        trace = run(cfg(method="gd", alpha=1e308, label="t"))
    assert trace.summary["stopped"] == "diverged"
    assert trace.rows[1].err == np.inf and trace.rows[1].step_delta == np.inf
    csv_path, json_path = emit(trace, tmp_path)

    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    obj = json.loads(json_path.read_text(), parse_constant=reject)
    assert obj["rows"][1][1] == "inf" and obj["summary"]["final_err"] == "inf"
    assert parse_trace(json_path).rows == parse_trace(csv_path).rows == trace.rows


def test_parse_trace_restores_non_finite_summary_and_params(tmp_path):
    with pytest.warns(RuntimeWarning, match="overflow"):
        trace = run(cfg(method="gd", alpha=1e308, seed=3, label="t"))
    _, json_path = emit(trace, tmp_path)
    back = parse_trace(json_path)
    assert back.summary["final_err"] == np.inf
    assert back.summary == json.loads(json.dumps(trace.summary))
    assert back.params == trace.params == {"alpha": 1e308}
    s = back.summary
    assert (s["dataset"], s["method"], s["stopped"], s["noise"]["noise"]) == (
        "synth-60x10-c4-s3", "gd", "diverged", "none")


def test_trace_emit_parse_roundtrip_csv(tmp_path):
    trace = run(cfg(method="nag", seed=2, label="t"))
    csv_path, _ = emit(trace, tmp_path)
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


def test_grid_keeps_one_result_per_cell_when_a_trace_write_fails(tmp_path, monkeypatch):
    real = runner.emit

    def emit_or_fail(trace, out_dir):
        if trace.config.label == "unwritable":
            raise OSError("disk full")
        return real(trace, out_dir)

    monkeypatch.setattr(runner, "emit", emit_or_fail)
    configs = [cfg(method="gd", label=label, max_iters=20) for label in ("a", "unwritable", "c")]
    results, rows = run_grid(configs, out_dir=tmp_path)
    assert len(results) == len(rows) == 3
    assert [r is None for r in results] == [False, True, False]
    assert [row["error"] for row in rows] == ["", "OSError: disk full", ""]
    assert results[2].first_trace.config.label == "c"


def test_grid_rejects_cells_that_would_write_the_same_traces(tmp_path):
    # an alpha sweep with no labels names every trace synth-...-gd-none-s0
    sweep = [cfg(method="gd", alpha=a, max_iters=20) for a in (0.1, 0.2, 0.3)]
    labelled = [replace(c, label=f"gd-{c.alpha}") for c in sweep]
    relabelled = labelled + [replace(sweep[0], label="gd-0.2")]
    for configs, clash in ((sweep, "runs[0] and runs[1]"), (relabelled, "runs[1] and runs[3]")):
        with pytest.raises(ValueError, match=re.escape(clash) + " would write the same trace"):
            run_grid(configs, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()  # before any cell runs
    # distinct labels, or no trace files, are fine
    assert len(run_grid(labelled, out_dir=tmp_path / "out")[0]) == 3
    assert len(list((tmp_path / "out").glob("gd-*.json"))) == 3
    assert all(run_grid(sweep)[0])
    assert all(run_grid(sweep, out_dir=tmp_path / "summary", emit_traces=False)[0])


def test_grid_rejects_datasets_that_load_under_one_name(tmp_path):
    # trace files take the loaded dataset's name: two spellings of one synth
    # problem, or two .mtx files with one stem, would overwrite each other
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        (tmp_path / d / "x.mtx").write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0\n")
    for k, datasets in enumerate((("synth:60,10,4,3", "synth:60,10,4.0,3"),
                                  (str(tmp_path / "a" / "x.mtx"), str(tmp_path / "b" / "x.mtx")))):
        out = tmp_path / f"out{k}"
        configs = [cfg(dataset=ds, method="gd", m=2, max_iters=5) for ds in datasets]
        with pytest.raises(ValueError, match=re.escape("runs[0] and runs[1] would write")):
            run_grid(configs, out_dir=out)
        assert not out.exists()
        labelled = [replace(c, label=f"cell{i}") for i, c in enumerate(configs)]
        assert all(run_grid(labelled, out_dir=out)[0])
    # a malformed spec fails in its own cell, beside a cell that runs
    _, rows = run_grid([cfg(dataset="synth:60", method="gd", max_iters=5),
                        cfg(method="gd", max_iters=5)], out_dir=tmp_path / "bad")
    assert rows[0]["error"].startswith("ValueError") and rows[1]["error"] == ""


def test_runs_never_form_k_star(tmp_path, monkeypatch):
    # a run reads K_star only through its norms, which the eigenvalues give
    ds = load_dataset(SPEC)
    noises = ({}, {"noise": "observation", "noise_level": 0.05},
              {"noise": "process", "process_kind": "roundoff"},
              {"noise": "process", "process_kind": "uniform", "noise_level": 1e-4})
    for method in ("ipg", "gd"):
        for noise in noises:
            run(cfg(method=method, max_iters=5, **noise), dataset=ds)
    run_monte_carlo(cfg(reps=2, max_iters=5, **noises[1]), dataset=ds)
    made = []

    def recorded(A):
        made.append(compute_spectrum(A))
        return made[-1]

    monkeypatch.setattr(runner, "compute_spectrum", recorded)
    run_grid([cfg(max_iters=5, **noise) for noise in noises[1:3]], out_dir=tmp_path)
    run(cfg(max_iters=5, **noises[2]))
    assert len(made) == 2
    assert all("K_star" not in vars(s) for s in (ds.prep["spectrum"], *made))


def _count_spectra(monkeypatch):
    """The A of every spectrum the runner computes from here on."""
    computed = []
    real = runner.compute_spectrum
    monkeypatch.setattr(runner, "compute_spectrum", lambda A: computed.append(A) or real(A))
    return computed


def test_a_dataset_computes_its_spectrum_once(monkeypatch):
    computed = _count_spectra(monkeypatch)
    c = cfg(max_iters=30, stop_tol=0.0)
    mc_config = replace(c, noise="observation", noise_level=0.05, reps=3)

    def runs(ds):
        return (run(c, dataset=ds), run(replace(c, method="gd"), dataset=ds),
                run_monte_carlo(mc_config, dataset=ds))

    ds = load_dataset(SPEC)
    *traces, mc = runs(ds)
    assert len(computed) == 1 and computed[0] is ds.A
    *fresh_traces, fresh_mc = runs(load_dataset(SPEC))
    assert len(computed) == 2
    for got, want in zip([*traces, mc.first_trace], [*fresh_traces, fresh_mc.first_trace]):
        assert trace_csv_text(got) == trace_csv_text(want)
    assert mc.final_errs.tolist() == fresh_mc.final_errs.tolist()


def test_a_dataset_is_cut_once_for_each_m(monkeypatch):
    cuts = []  # (dataset, m) of every cut the runner makes
    real = runner.make_shards
    monkeypatch.setattr(runner, "make_shards", lambda ds, m: cuts.append((ds, m)) or real(ds, m))
    c = cfg(max_iters=30, stop_tol=0.0)
    mc_config = replace(c, noise="observation", noise_level=0.05, reps=3)

    def runs(ds):
        return (run(c, dataset=ds), run(replace(c, method="gd"), dataset=ds),
                run_monte_carlo(mc_config, dataset=ds))

    ds = load_dataset(SPEC)
    *traces, mc = runs(ds)
    run(replace(c, m=3), dataset=ds)
    assert [(d is ds, m) for d, m in cuts] == [(True, c.m), (True, 3)]
    *fresh_traces, fresh_mc = runs(load_dataset(SPEC))
    assert len(cuts) == 3
    for got, want in zip([*traces, mc.first_trace], [*fresh_traces, fresh_mc.first_trace]):
        assert trace_csv_text(got) == trace_csv_text(want)
    assert mc.final_errs.tolist() == fresh_mc.final_errs.tolist()
    assert replace(ds, A=2.0 * ds.A).prep == {}
    # the Dataset holds its cuts, and clearing its prep frees them
    shards = [weakref.ref(sh) for sh in ds.prep["cut", c.m]]
    ds.prep.clear()
    assert _alive(shards) == 0


def test_noisy_runs_leave_the_held_cut_clean():
    # observation noise is bound to each run's own shards: the cut the
    # Dataset keeps still holds views of its clean A and b, so a clean run
    # after noisy ones reads what it reads on a fresh Dataset
    c = cfg(method="gd", max_iters=30, stop_tol=0.0)
    noisy = replace(c, noise="observation", noise_level=0.05)
    ds = load_dataset(SPEC)
    clean_b = ds.b.copy()
    run(noisy, dataset=ds)
    run_monte_carlo(replace(noisy, reps=3), dataset=ds)
    held = ds.prep["cut", c.m]
    assert [sh.b.tobytes() for sh in held] == [
        sh.b.tobytes() for sh in make_shards(load_dataset(SPEC), c.m)]
    for sh in held:
        assert np.shares_memory(sh.A, ds.A) and np.shares_memory(sh.b, ds.b)
    assert ds.b.tobytes() == clean_b.tobytes()
    assert trace_csv_text(run(c, dataset=ds)) == trace_csv_text(run(c))
    assert ds.prep["cut", c.m] is held


def test_a_run_is_handed_the_held_cut_as_it_is(monkeypatch):
    # the cut's shards already hold views of the clean b: a run hands them
    # to the round loop as they are, and observation noise binds copies
    handed = []
    real = runner.rounds
    monkeypatch.setattr(runner, "rounds",
                        lambda solver, shards, *args: handed.append(shards)
                        or real(solver, shards, *args))
    ds = load_dataset(SPEC)
    for noise, kept in (({}, True), ({"noise": "process", "process_kind": "roundoff"}, True),
                        ({"noise": "observation", "noise_level": 0.05}, False)):
        c = cfg(max_iters=30, stop_tol=0.0, **noise)
        handed.clear()
        text = trace_csv_text(run(c, dataset=ds))
        (shards,) = handed
        held = ds.prep["cut", c.m]
        if kept:
            assert len(shards) == len(held) and all(a is b for a, b in zip(shards, held))
        else:
            assert not {id(sh) for sh in shards} & {id(sh) for sh in held}
        assert text == trace_csv_text(run(c))


def test_grid_rows_are_labelled_by_the_stem_of_their_trace_files(tmp_path, monkeypatch):
    written = []
    real = runner.emit

    def noted(trace, out_dir):
        written.append(real(trace, out_dir))
        return written[-1]

    monkeypatch.setattr(runner, "emit", noted)
    mtx = tmp_path / "x.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0\n")
    out = tmp_path / "out"
    # a malformed spec fails in its cell under its spec as written, or its
    # own label, and is left out of the check for clashing trace files
    configs = [cfg(method="gd", max_iters=5), cfg(dataset=str(mtx), method="gd", m=2, max_iters=5),
               cfg(method="gd", max_iters=5, label="mine"), cfg(dataset="stencil:3", method="gd"),
               cfg(dataset="stencil:3", method="gd", label="mine")]
    _, rows = run_grid(configs, out_dir=out)
    ok = [row["label"] for row in rows if not row["error"]]
    assert ok == ["synth-60x10-c4-s3-gd-none-s0", "x-gd-none-s0", "mine"]
    assert ok == [csv.stem for csv, _ in written] == [js.stem for _, js in written]
    assert [(row["label"], row["error"][:10]) for row in rows if row["error"]] == [
        ("stencil:3-gd-none-s0", "ValueError"), ("mine", "ValueError")]
    assert sorted(path.name for path in out.iterdir()) == sorted(
        ["grid_summary.csv"] + [f"{label}.{ext}" for label in ok for ext in ("csv", "json")])


def test_dataset_a_is_read_only_and_a_replaced_a_has_its_own_spectrum(monkeypatch):
    ds = load_dataset(SPEC)
    with pytest.raises(ValueError, match="read-only"):
        ds.A[0, 0] = 1.0
    computed = _count_spectra(monkeypatch)
    run(cfg(max_iters=5), dataset=ds)
    scaled = replace(ds, A=2.0 * ds.A)
    assert scaled.prep == {}
    trace = run(cfg(max_iters=5), dataset=scaled)
    assert len(computed) == 2 and computed[0] is ds.A and computed[1] is scaled.A
    assert trace.summary["spectrum"]["lambda_1"] == pytest.approx(
        4.0 * ds.prep["spectrum"].lambda_1)


def test_dataset_holds_one_layout_whatever_layout_it_is_given(rng):
    A = rng.integers(-5, 6, size=(40, 6))
    A64 = np.ascontiguousarray(A, dtype=np.float64)
    wide = np.zeros((40, 12))
    wide[:, ::2] = A64
    b = A64 @ np.ones(6)
    given = {"int64": (A, b), "fortran": (np.asfortranarray(A64), b),
             "column-strided": (wide[:, ::2], b), "strided b": (A64, np.stack([b, b], 1)[:, 0])}
    configs = [RunConfig(dataset="layout", method="ipg", noise="observation", noise_level=0.05,
                         m=4, max_iters=60),
               RunConfig(dataset="layout", method="gd", noise="process", m=4, max_iters=60)]

    def traces(A, b):
        ds = Dataset(name="layout", A=A, x_star=np.ones(6), b=b)
        for held in (ds.A, ds.b):
            assert held.dtype == np.float64 and held.flags.c_contiguous
        assert not ds.A.flags.writeable
        out = []
        for c in configs:
            mc = run_monte_carlo(replace(c, reps=2), dataset=ds)
            out += [trace_csv_text(run(c, dataset=ds)), trace_csv_text(mc.first_trace),
                    mc.final_errs.tobytes()]
        return out

    want = traces(A64, b)
    for name, (A_given, b_given) in given.items():
        assert traces(A_given, b_given) == want, name

    ds = Dataset(name="layout", A=A64, x_star=np.ones(6), b=b)
    assert np.shares_memory(ds.A, A64) and ds.b is b
    for sh in make_shards(ds, 4):
        rows = slice(sh.row_start, sh.row_stop)
        assert sh.A.base is ds.A.base and np.shares_memory(sh.A, ds.A[rows])
        assert np.shares_memory(sh.b, ds.b[rows])


def test_grid_rows_count_the_reps_that_diverge(tmp_path):
    # bfgs under heavy uniform process noise on SPEC diverges at round 122,
    # 147 and 132 in reps 0, 1 and 2: 140 rounds see two of them diverge
    c = cfg(method="bfgs", noise="process", process_kind="uniform", process_low=-0.1,
            noise_level=0.2, reps=3, max_iters=140, stop_tol=0.0)
    results, rows = run_grid([c, replace(c, max_iters=100, label="short")], out_dir=tmp_path)
    assert [s["diverged_at"] for s in results[0].summaries] == [122, None, 132]
    assert [(r["stopped"], r["diverged_at"], r["diverged_reps"]) for r in rows] == [
        ("diverged", 122, 2), ("maxiter", None, 0)]
    header, *lines = (tmp_path / "grid_summary.csv").read_text().splitlines()
    column = header.split(",").index("diverged_reps")
    assert [line.split(",")[column] for line in lines] == ["2", "0"]


GRID_NOISES = (dict(noise="none"), dict(noise="observation", noise_level=0.05, reps=3),
               dict(noise="process", process_kind="roundoff"))


def test_grid_cells_equal_fresh_monte_carlo_calls(tmp_path):
    # cells share each (dataset, m) cut and apc's and ipg's set-up on it;
    # every cell must still read exactly as if it ran alone
    configs = [cfg(dataset=ds, m=m, method=method, max_iters=25, stop_tol=0.0, seed=3, **noise)
               for ds in (SPEC, "stencil:4,4") for m in (3, 5)
               for method in ("apc", "ipg", "gd") for noise in GRID_NOISES]
    configs += [cfg(method="bfgs", max_iters=25), cfg(method="apc", max_iters=25, reps=2)]
    configs = [replace(c, label=f"cell{j}") for j, c in enumerate(configs)]
    results, rows = run_grid(configs, out_dir=tmp_path)
    assert all(results)
    for c, mc, row in zip(configs, results, rows):
        alone = run_monte_carlo(c)
        assert mc.final_errs.tobytes() == alone.final_errs.tobytes()
        assert [without_wall_time(s) for s in mc.summaries] == [
            without_wall_time(s) for s in alone.summaries]
        first = alone.first_trace
        assert (row["final_err"], row["final_err_mean"], row["final_err_std"]) == (
            first.final_err, alone.mean, alone.std)
        assert (row["iterations"], row["stopped"]) == (first.summary["iterations"],
                                                       first.summary["stopped"])
        assert (tmp_path / f"{c.label}.csv").read_text() == trace_csv_text(first)


def _tracked(made):
    """A wrapper of a function that records weak references to the arrays
    or shards it returns."""
    def wrap(fn):
        def noted(*args):
            out = fn(*args)
            for x in out if isinstance(out, (list, tuple)) else (out,):
                made.append(weakref.ref(x))
            return out
        return noted
    return wrap


def _alive(refs):
    return sum(r() is not None for r in refs)


def test_shared_setup_is_dropped_after_its_last_cell(monkeypatch):
    cuts, projections = [], []
    monkeypatch.setattr(runner, "make_shards", _tracked(cuts)(make_shards))
    monkeypatch.setattr(solvers, "apc_projection", _tracked(projections)(solvers.apc_projection))
    # per cell: (method, projections alive, shards alive) as it starts; a
    # cell's first run makes the cut its dataset does not yet hold
    seen = []
    real = runner.run_monte_carlo

    def noted(config, *args, **kw):
        seen.append((config.method, _alive(projections), _alive(cuts)))
        return real(config, *args, **kw)

    monkeypatch.setattr(runner, "run_monte_carlo", noted)
    observed = dict(noise="observation", noise_level=0.05)
    configs = [cfg(method="apc", max_iters=5), cfg(method="bfgs", max_iters=5),
               cfg(method="apc", max_iters=5, reps=3, **observed),
               cfg(method="gd", max_iters=5), cfg(method="gd", m=3, max_iters=5),
               cfg(method="gd", max_iters=5)]
    assert all(run_grid(configs)[0])
    m = configs[0].m
    # one pseudo-inverse and projector per agent, shared by both apc cells
    # (four runs) and gone once the second has run; the m=3 cut lives for
    # its one cell
    assert len(projections) == 2 * m and len(cuts) == m + 3
    assert seen == [("apc", 0, 0), ("bfgs", 2 * m, m), ("apc", 2 * m, m), ("gd", 0, m),
                    ("gd", 0, m), ("gd", 0, m)]
    assert _alive(cuts) == _alive(projections) == 0
    run_monte_carlo(replace(configs[2], reps=2))
    assert len(projections) == 4 * m and _alive(cuts) == _alive(projections) == 0


def test_run_rejects_a_dataset_or_spectrum_its_config_does_not_name():
    # gd on synth:60,10,4,3 handed the dataset of synth:60,10,40,5 would
    # write a trace that its config does not re-run
    c = RunConfig(dataset="synth:60,10,4,3", method="gd", max_iters=50)
    ds = load_dataset(c.dataset)
    other = load_dataset("synth:60,10,40,5")
    for entry in (run, run_monte_carlo):
        with pytest.raises(ValueError, match="^dataset is 'synth-60x10-c40-s5'"):
            entry(c, dataset=other)
    assert run(c, dataset=ds).rows == run(c).rows
    # an integer A passes with its dataset
    st4 = load_dataset("stencil:4,4")
    ints = replace(st4, A=st4.A.astype(np.int64))
    trace = run(replace(c, dataset="stencil:4,4"), dataset=ints)
    assert trace.summary["dataset"] == "stencil-4x4"


def test_emitted_grid_cell_reruns_to_the_same_csv(tmp_path):
    c = RunConfig(dataset="synth:60,10,4,3", method="ipg", noise="observation",
                  noise_level=0.05, seed=5, reps=3, max_iters=50, stop_tol=0.0, label="cell")
    assert all(run_grid([c], out_dir=tmp_path)[0])
    back = parse_trace(tmp_path / "cell.json")
    assert (trace_csv_text(run(back.config)).splitlines(keepends=True)
            == (tmp_path / "cell.csv").read_text().splitlines(keepends=True))


def test_failed_grid_cells_are_labelled_by_method_noise_and_seed(tmp_path):
    configs = [cfg(dataset="nosuch.mtx", method="gd"), cfg(dataset="nosuch.mtx", seed=2),
               cfg(dataset="nosuch.mtx", label="mine")]
    results, rows = run_grid(configs, out_dir=tmp_path)
    assert results == [None] * 3
    assert [row["label"] for row in rows] == ["nosuch-gd-none-s0", "nosuch-ipg-none-s2", "mine"]
    summary = (tmp_path / "grid_summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in summary[1:]] == [row["label"] for row in rows]


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
    for top in ([1, 2], "x"):
        bad.write_text(json.dumps(top))
        with pytest.raises(ValueError, match="grid config must be a JSON object"):
            load_grid_config(bad)
    bad.write_text(json.dumps({"defaults": [1], "runs": [{"dataset": SPEC, "method": "gd"}]}))
    with pytest.raises(ValueError, match="grid 'defaults' must be a JSON object"):
        load_grid_config(bad)


def test_config_roundtrip_dict():
    c = cfg(noise="process", seed=3, label="x")
    assert RunConfig.from_dict(asdict(c)) == c


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


def test_apc_realized_noise_does_not_depend_on_thread_timing(use_helpers):
    # apc agents corrupt their own iterates, from helper threads when the
    # round is concurrent: 4 agents of 10000 x 100 estimate 2 MFLOP each
    ds = load_dataset("synth:40000,100,10,3")
    config = RunConfig(ds.name, "apc", m=4, noise="process", process_kind="uniform",
                       process_low=-1e-4, noise_level=2e-4, max_iters=30, stop_tol=0.0)
    traces = [run(config, dataset=ds) for _ in range(2)]
    use_helpers(False)
    traces.append(run(config, dataset=ds))
    first = without_wall_time(traces[0].summary)
    assert first["noise"]["omega_realized_mean"] > 0
    for trace in traces[1:]:
        assert without_wall_time(trace.summary) == first
        assert trace_csv_text(trace) == trace_csv_text(traces[0])


def test_realized_noise_mean_does_not_depend_on_stream_interleaving(rng):
    # within a round, agents on helper threads may corrupt their streams in
    # any order; each stream's own calls still come in round order
    streams = [STREAM_XBAR] + [STREAM_AGENT_BASE + i for i in range(6)]
    inner = UniformProcessNoise(seed=9, low=-1e-4, high=2e-4)
    means = []
    for shuffle in (False, True):
        recorder = runner._RecordingProcessNoise(inner, 10)
        for t in range(40):
            agents = list(streams[1:])
            if shuffle:
                rng.shuffle(agents)
            for stream in agents + streams[:1]:
                recorder.corrupt(np.full(1 + stream % 7, 0.5), stream, t)
        means.append(recorder.realized_mean)
    assert means[0] == means[1]


class _WaitingModel:
    """Waits on barrier, then returns a distinct l1 for each (stream, iteration)."""

    def __init__(self, barrier):
        self.barrier = barrier

    def corrupt(self, v, stream, iteration):
        self.barrier.wait()
        return float(stream * 10 + iteration)


def test_concurrent_calls_on_two_streams_keep_their_own_sums():
    # two threads corrupt two streams of one shape at once: both model calls
    # are under way before either returns its l1
    streams = (STREAM_AGENT_BASE, STREAM_AGENT_BASE + 1)

    def corrupt_all(recorder, stream_list):
        for stream in stream_list:
            for t in range(3):
                recorder.corrupt(np.zeros((3, 4)), stream, t)

    recorder = runner._RecordingProcessNoise(_WaitingModel(threading.Barrier(2, timeout=30)), 4)
    threads = [threading.Thread(target=corrupt_all, args=(recorder, [s])) for s in streams]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    sequential = runner._RecordingProcessNoise(_WaitingModel(threading.Barrier(1)), 4)
    corrupt_all(sequential, streams)
    # each l1 scaled from 12 entries to a length-4 variable, in round order
    assert recorder._sums == sequential._sums == {
        s: [sum((s * 10.0 + t) * (4 / 12) for t in range(3)), 3] for s in streams}


class _FreshRecorder(runner._RecordingProcessNoise):
    """The fresh realized-noise formula: l1(before, after) of each
    corruption against a copy of the variable taken before it, l1 being
    the sum of the whole |after - before|."""

    @staticmethod
    def l1(before, after):
        return float(np.abs(after - before).sum())

    def corrupt(self, v, stream, iteration):
        before = v.copy()
        self._inner.corrupt(v, stream, iteration)
        l1 = self.l1(before, v)
        acc = self._sums.setdefault(stream, [0.0, 0])
        acc[0] += l1 * (self._d / np.size(v))
        acc[1] += 1
        return l1


class _ByRowsRecorder(_FreshRecorder):
    """The same with |after - before| summed along each row, then over the rows."""

    @staticmethod
    def l1(before, after):
        diff = np.abs(after - before)
        return float(diff.sum(axis=1).sum() if diff.ndim == 2 else diff.sum())


@pytest.mark.parametrize("dataset, method", [("stencil:30,30", "ipg"), (SPEC, "ipg"),
                                             (SPEC, "bfgs"), (SPEC, "apc"), (SPEC, "gd"),
                                             (SPEC, "nag"), (SPEC, "hbm")])
@pytest.mark.parametrize("kind", ["roundoff", "uniform"])
def test_realized_noise_mean_equals_the_fresh_corruption_formula(use_helpers, monkeypatch,
                                                                  dataset, method, kind):
    # on stencil:30,30 the model sums |after - before| of K by rows on helpers
    config = RunConfig(dataset, method, m=10, max_iters=4, stop_tol=0.0, noise="process",
                       process_kind=kind, process_low=-1e-4, noise_level=2e-4,
                       **({"alpha": 0.007} if dataset.startswith("stencil") else {}))
    ds = load_dataset(dataset)
    got = run(config, dataset=ds)
    refs = {}
    for recorder in (_FreshRecorder, _ByRowsRecorder):
        monkeypatch.setattr(runner, "_RecordingProcessNoise", recorder)
        refs[recorder] = run(config, dataset=ds)
    fresh, by_rows = refs.values()
    mean = got.summary["noise"]["omega_realized_mean"]
    assert mean > 0
    assert without_wall_time(got.summary) == without_wall_time(by_rows.summary)
    if method in ("ipg", "bfgs"):
        # K and M are d x d, whose |after - before| the model sums by rows.
        # numpy's pairwise sum of N nonnegative terms lies within
        # (log2 N + 11) u of the exact sum, relative (u = 2^-53; 128-term
        # leaves summed in 8 lanes of 16, then halved pairwise). The fresh
        # formula sums d^2 terms once, (2 log2 d + 11) u; by rows sums d
        # terms twice, (2 log2 d + 22) u. For d = 900: 3.4e-15 and 4.6e-15,
        # so the two differ by < 8e-15; the recorder's few additions of
        # nonnegative terms per stream keep that under 1e-14
        assert mean == pytest.approx(fresh.summary["noise"]["omega_realized_mean"],
                                     rel=1e-14, abs=0)
    else:
        # every stream is 1-D, whose rows are its entries: the same sums
        assert without_wall_time(got.summary) == without_wall_time(fresh.summary)
    assert trace_csv_text(got) == trace_csv_text(fresh) == trace_csv_text(by_rows)


def _arrays_in(obj):
    """How many ndarrays obj holds, in dicts, lists and tuples at any depth."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(map(_arrays_in, obj))
    return isinstance(obj, np.ndarray)


@pytest.mark.parametrize("method", ["ipg", "bfgs", "apc"])
def test_the_recorder_keeps_no_array_of_the_run(monkeypatch, method):
    made = []

    class Noted(runner._RecordingProcessNoise):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(runner, "_RecordingProcessNoise", Noted)
    run(cfg(method=method, noise="process", max_iters=5, stop_tol=0.0))
    (recorder,) = made
    assert recorder.realized_mean > 0
    assert _arrays_in(vars(recorder)) == 0


def test_an_observation_run_builds_each_agents_shard_once(monkeypatch):
    # the noise goes onto b before the shards are cut, so no shard (and no
    # copy of its span transpose AT) is built a second time
    built = []
    real = Shard.__post_init__

    def noted(shard):
        built.append(shard.agent_id)
        real(shard)

    monkeypatch.setattr(Shard, "__post_init__", noted)
    trace = run(cfg(method="gd", noise="observation", noise_level=0.05, max_iters=3))
    assert trace.summary["noise"]["eta_realized_max"] > 0
    assert built == list(range(5))


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
    _, pnoise, _ = resolve_noise(config, ds.name, ds.n_rows, ds.n_cols)
    solver = make_solver(method, params)
    errs = []
    run_rounds(solver, make_shards(ds, config.m), ds.n_cols, config.max_iters,
               pnoise=pnoise, seed=config.seed,
               collect=lambda state, t: errs.append(estimation_error(solver.iterate(state),
                                                                     ds.x_star)))
    rows = run(config).rows
    assert len(rows) == config.max_iters + 1
    assert [r.err for r in rows] == errs
