"""Self-test of the benchmark at tiny sizes; runs in seconds:

    python3 -m pytest perfbench

Checks the traced counters against closed forms, that tracing changes no
output, that the reference check catches a wrong answer, and that the
harness prints exactly the metrics BENCHMARK.json declares, and that it
fails without printing a result when the program is absent.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dlsq.solvers  # noqa: E402
from harness import measure  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import GridBaselines, MonteCarloIPG, StencilProcessIPG  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(kind, tmp_path, **kw):
    if kind is MonteCarloIPG:
        return MonteCarloIPG(0, tmp_path, rows=30, cols=6, m=3, reps=2, rounds=5, **kw)
    if kind is GridBaselines:
        return GridBaselines(0, tmp_path, rows=40, cols=8, m=4, rounds=6, **kw)
    return StencilProcessIPG(0, tmp_path, nx=4, ny=3, m=2, rounds=5, **kw)


def traced_layers(wl):
    """Per-layer values of one traced call, after checking that it gives
    the same output as an untraced call."""
    plain = wl.op()
    tracer = Tracer()
    with tracer:
        traced = wl.op()
    assert json.dumps(traced) == json.dumps(plain)
    metrics, unmeasured = layer_metrics(tracer, 1, traced[0])
    return {k: v for k, (v, _) in metrics.items()}, unmeasured


def test_ipg_counters_match_closed_forms(tmp_path):
    m, R, T, d, n = 3, 2, 5, 6, 30
    layers, unmeasured = traced_layers(tiny(MonteCarloIPG, tmp_path))
    assert unmeasured == []
    assert layers["network.floats_down_per_round"] == d + d * d
    assert layers["network.floats_up_per_round"] == m * (d + d * d)
    assert layers["network.rounds"] == R * T
    assert layers["solvers.agent_r_matrix_calls"] == m * R * T
    assert layers["solvers.agent_r_matrix_calls_per_rep_round"] == m
    assert layers["solvers.agent_gradient_calls"] == m * R * T
    assert layers["solvers.agent_r_matrix_gflop_per_round"] == pytest.approx(4 * n * d * d / 1e9)
    assert layers["noise.corrupt_calls"] == 0


def test_gd_counters_match_closed_forms(tmp_path):
    m, T, d = 4, 6, 8
    layers, _ = traced_layers(tiny(GridBaselines, tmp_path, methods=("gd",)))
    assert layers["network.floats_down_per_round"] == d
    assert layers["network.floats_up_per_round"] == m * d
    assert layers["network.rounds"] == 3 * T
    assert layers["solvers.agent_r_matrix_calls"] == 0
    # process noise corrupts x once at init and once per round, in one cell of three
    assert layers["noise.corrupt_calls"] == T + 1


def test_process_noise_counters(tmp_path):
    T, d = 5, 12
    layers, _ = traced_layers(tiny(StencilProcessIPG, tmp_path))
    # x and K, at init and after every round
    assert layers["noise.corrupt_calls"] == 2 * (T + 1)
    assert layers["noise.corrupted_floats_per_round"] == pytest.approx((d + d * d) * (T + 1) / T)
    # run() is entered through the package namespace here
    assert layers["runner.loop_self_ms_per_round"] > 0


def test_missing_name_is_unmeasured(tmp_path, monkeypatch):
    monkeypatch.delattr(dlsq.solvers, "agent_r_matrix")
    _, unmeasured = traced_layers(tiny(GridBaselines, tmp_path, methods=("gd",)))
    assert "solvers.agent_r_matrix_calls" in unmeasured
    assert not hasattr(dlsq.solvers, "agent_r_matrix")


def test_changed_arguments_are_unmeasured():
    tracer = Tracer()
    # noise-model corrupt is counted from its second argument; a call without one
    # still returns its result and leaves the span unmeasured
    traced = tracer.wrap(lambda v: v, "noise.corrupt", tracer._count_corrupt)
    assert traced(3) == 3
    assert "noise.corrupt" in tracer.unmeasured


@pytest.mark.parametrize("kind", [MonteCarloIPG, GridBaselines, StencilProcessIPG])
@pytest.mark.parametrize("trace", [False, True])
def test_measure_prints_declared_metrics(kind, trace, tmp_path):
    wl = tiny(kind, tmp_path)
    _, reference = wl.record()
    result, lines = measure(wl, reference, seconds=0.05, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_reference_check_catches_a_wrong_answer(tmp_path):
    wl = tiny(MonteCarloIPG, tmp_path)
    _, (want,) = wl.record()
    want["final_errs"][0] *= 1.0 + 1e-4
    result, _ = measure(wl, [want], seconds=0.01, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_workload_names_match_spec():
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    args = ["--workload", SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
            "--trace", "0"]
    out = subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
