"""Measure one workload in a closed loop and print its result.

Load model: one process, one client, closed loop: the next operation
starts when the previous one finishes, until ``--seconds`` have passed
(the last operation started runs to its end).

With ``--trace 0`` it reports the end-to-end metrics:

* ``rounds_per_s``: median over operations of rep-rounds completed per
  wall second of the entry call (set-up included);
* ``setup_s``: median over entry calls with zero rounds (data load or
  parse, spectrum, shards, observation noise, solver init), made
  ``setup_per_op`` at a time after each operation;
* ``peak_rss_mb``: peak resident memory of this process (the interpreter
  and numpy included).

With ``--trace 1`` it alternates untraced and traced operations, checks
that their outputs are identical, and reports the per-layer metrics of
the traced ones plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same numbers by name, the failures and the machine facts.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

import numpy as np

from spans import Tracer, layer_metrics
from workloads import ATOL, RTOL, VARIANTS, WORKLOADS, load_reference

GEMM_SECONDS = 0.5


def machine_facts(thread_env, seed, variant):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "blas": blas, "numpy": np.__version__,
            "python": platform.python_version(), "thread_env": thread_env,
            "seed": seed, "variant": variant}


def dgemm_gflops(n_i, d, seconds=GEMM_SECONDS):
    """Achieved rate of the agent r-matrix product A_i^T (A_i K) on random
    operands of the same shape, median over repeats."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n_i, d))
    AT = np.ascontiguousarray(A.T)
    K = rng.standard_normal((d, d))
    times = []
    end = time.perf_counter() + seconds
    while len(times) < 5 or time.perf_counter() < end:
        t0 = time.perf_counter()
        np.dot(AT, np.dot(A, K))
        times.append(time.perf_counter() - t0)
    return 4.0 * n_i * d * d / statistics.median(times) / 1e9


def five_numbers(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3
    return [min(values), q[0], statistics.median(values), q[2], max(values)]


def timed(fn, *args):
    # Start every timed call from the same heap: collect, then move every
    # live object (inputs, earlier results) out of the collector's view, so
    # the program's own collections do not scan the benchmark's objects.
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def measure(wl, reference, seconds, trace):
    """Run the closed loop; returns (result dict, report lines)."""
    wl.call(0)  # warm-up: first-call costs (BLAS start-up, page faults) are not set-up work

    plain, traced, setup = [], [], []  # (seconds, rounds, units); set-up seconds
    tracer = Tracer()
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        secs, (rounds, units) = timed(wl.op)
        plain.append((secs, rounds, units))
        if trace:
            with tracer:
                secs, (rounds, units) = timed(wl.op)
            traced.append((secs, rounds, units))
        else:
            # set-up samples interleaved with operations see the same machine
            setup += [timed(wl.call, 0)[0] for _ in range(wl.setup_per_op)]

    units = [u for _, _, us in plain + traced for u in us]
    checks = [wl.check(u, want) for _, _, us in plain + traced for u, want in zip(us, reference)]
    checks += [False] * (len(units) - len(checks))  # more units than the reference has
    failed = sum(1 for u, ok in zip(units, checks) if u["error"] or not ok)
    correct = all(checks)
    lines = [f"reference check: {sum(checks)}/{len(checks)} units match "
             f"(floats within {RTOL:g} relative + {ATOL:g} absolute; the rest exact)",
             f"fail_ratio {failed}/{len(units)} = {failed / len(units):.4f} failed/attempted"]
    errors = sorted({u["error"] for u in units if u["error"]})
    lines += [f"  failure: {e} ({sum(u['error'] == e for u in units)}x)" for e in errors]

    metrics = {}
    if not trace:
        metrics["rounds_per_s"] = (statistics.median(r / s for s, r, _ in plain), "rounds/s")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MiB")
        lines.append(f"operations: {len(plain)} entry calls, {sum(r for _, r, _ in plain)} "
                     f"rep-rounds in {sum(s for s, _, _ in plain):.3f} s; "
                     f"set-up: {len(setup)} zero-round calls")
        lines.append("rounds_per_s per operation, min/q1/median/q3/max: "
                     + " ".join(f"{v:.6g}" for v in five_numbers([r / s for s, r, _ in plain])))
        lines.append("setup_s per call, min/q1/median/q3/max: "
                     + " ".join(f"{v:.6g}" for v in five_numbers(setup)))
    else:
        same = all(json.dumps(p[2]) == json.dumps(t[2]) for p, t in zip(plain, traced))
        correct = correct and same
        lines.append(f"traced outputs identical to untraced: {same}")
        layers, unmeasured = layer_metrics(tracer, len(traced), sum(r for _, r, _ in traced))
        metrics.update(layers)
        metrics["machine.dgemm_gflops"] = (dgemm_gflops(*wl.r_matrix_shape), "GFLOP/s")
        t_plain = statistics.median(s for s, _, _ in plain)
        t_traced = statistics.median(s for s, _, _ in traced)
        metrics["trace.overhead_pct"] = (100.0 * (t_traced - t_plain) / t_plain, "%")
        lines.append(f"operations: {len(plain)} untraced + {len(traced)} traced entry calls")
        if unmeasured:
            lines.append(f"unmeasured (wrapped name missing): {', '.join(unmeasured)}")
        # every per-round time is a self time: none of those spans calls another
        self_times = {k: v for k, (v, _) in layers.items() if k.endswith("_ms_per_round")}
        if self_times:
            lines.append(f"largest per-round self time: {max(self_times, key=self_times.get)}")

    result = {"correct": bool(correct), "attempted": len(units), "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    return result, lines


def main(argv, root, thread_env):
    ap = argparse.ArgumentParser(description="dlsq benchmark: one workload, one result line")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if opts.seconds <= 0:
        ap.error("--seconds must be positive")

    variant = opts.seed % VARIANTS
    cls = WORKLOADS[opts.workload]
    reference = load_reference(cls.name, variant)
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as workdir:
        wl = cls(variant, workdir)
        result, lines = measure(wl, reference, opts.seconds, bool(opts.trace))

    print(f"workload {cls.name} seed {opts.seed} trace {opts.trace}")
    print("machine " + json.dumps(machine_facts(thread_env, opts.seed, variant), sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0
