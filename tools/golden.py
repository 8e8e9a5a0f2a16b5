"""The golden gate: 108 fixed runs whose traces a change should keep.

    python tools/golden.py record <file> [--src DIR]
    python tools/golden.py check <file> [--src DIR] [--one-cpu]

The set is synth:60,10,4,3 and synth:120,16,30,7 x the six methods x
none / observation 0.05 / round-off / uniform (-1e-4, 2e-4) process
noise x seeds 0 and 5, 300 rounds, m=10, stop_tol=0, plus five runs
that diverge (DIVERGING) on synth:60,10,4,3 with m=5, seeds 0 and 5,
300 rounds, stop_tol=0, so the round the divergence guard trips at is
pinned too, plus two ipg runs whose agents are computed concurrently
(CONCURRENT: synth:608,188,10,3 under observation noise 0.05 and
stencil:30,30 under round-off, seed 0, 30 rounds, m=10). ``record``
writes, for every run, the SHA-256 of ``trace_csv_text``, the text
itself and the stop reason. ``check`` reruns the set and, for every
trace whose hash differs, prints the largest absolute err gap, the
largest relative gap in the bound columns, and whether the stop reason,
round count and diverged flags match; then it reruns the set in a child
pinned to one CPU (``--one-cpu``), where every round is sequential. It
exits 0 when every hash matches in both, 1 otherwise.

dlsq is imported from ``--src`` (default: this checkout's ``src/``), so
a file recorded from one checkout can be checked against another. BLAS
is pinned to one thread; the hashes still depend on the BLAS build, so
compare files recorded on the same machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

DATASETS = ("synth:60,10,4,3", "synth:120,16,30,7")
NOISES = {
    "none": {},
    "observation": {"noise": "observation", "noise_level": 0.05},
    "roundoff": {"noise": "process", "process_kind": "roundoff"},
    "uniform": {"noise": "process", "process_kind": "uniform", "process_low": -1e-4,
                "noise_level": 2e-4},
}
SEEDS = (0, 5)
# unstable steps and heavy process noise; the first four trip the norm
# limit or overflow within 31 rounds, bfgs under the noise near 120
DIVERGING = {
    "gd-a0.9": {"method": "gd", "alpha": 0.9},
    "ipg-a3": {"method": "ipg", "alpha": 3.0},
    "nag-a1e200": {"method": "nag", "alpha": 1e200, "beta": 0.5},
    "apc-g50": {"method": "apc", "gamma": 50.0, "eta_apc": 50.0},
    "bfgs-uniform": {"method": "bfgs", "noise": "process", "process_kind": "uniform",
                     "process_low": -0.1, "noise_level": 0.2},
}
# agents with enough work (network.CONCURRENT_FLOPS) to run on helper threads
CONCURRENT = {
    "synth:608,188,10,3/ipg/observation/s0": {"dataset": "synth:608,188,10,3",
                                             "noise": "observation", "noise_level": 0.05},
    "stencil:30,30/ipg/roundoff/s0": {"dataset": "stencil:30,30", "noise": "process",
                                      "process_kind": "roundoff"},
}
BOUND_COLUMNS = ("bound_t1", "u_t", "bound_t2")


def golden_runs():
    """Yield (key, trace csv text, stop reason) for every run of the set."""
    from dlsq.runner import RunConfig, run, trace_csv_text
    from dlsq.solvers import METHODS

    for dataset in DATASETS:
        for method in METHODS:
            for noise, extra in NOISES.items():
                for seed in SEEDS:
                    trace = run(RunConfig(dataset=dataset, method=method, seed=seed, m=10,
                                          max_iters=300, stop_tol=0.0, **extra))
                    yield (f"{dataset}/{method}/{noise}/s{seed}", trace_csv_text(trace),
                           trace.summary["stopped"])
    for name, extra in DIVERGING.items():
        for seed in SEEDS:
            trace = run(RunConfig(dataset=DATASETS[0], seed=seed, m=5, max_iters=300,
                                  stop_tol=0.0, **extra))
            yield (f"{DATASETS[0]}/m5/{name}/s{seed}", trace_csv_text(trace),
                   trace.summary["stopped"])
    for key, extra in CONCURRENT.items():
        trace = run(RunConfig(method="ipg", seed=0, m=10, max_iters=30, stop_tol=0.0, **extra))
        yield key, trace_csv_text(trace), trace.summary["stopped"]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def record():
    return {key: {"sha256": _sha256(text), "csv": text, "stopped": stopped}
            for key, text, stopped in golden_runs()}


def _rows(text):
    """The CSV's data rows as {column: float or None}."""
    header, *lines = text.strip().split("\n")
    cols = header.split(",")
    return [{c: (float(v) if v else None) for c, v in zip(cols, line.split(","))}
            for line in lines]


def _rel_gap(a, b):
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    if a == b:
        return 0.0  # also equal infinities
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(want, got_text, got_stopped):
    """Gaps between one recorded trace and a rerun of it."""
    old, new = _rows(want["csv"]), _rows(got_text)
    same_length = len(old) == len(new)
    err_gap = max((abs(a["err"] - b["err"]) for a, b in zip(old, new)), default=0.0)
    bound_gap = max((_rel_gap(a[c], b[c]) for a, b in zip(old, new) for c in BOUND_COLUMNS),
                    default=0.0)
    return {
        "max_abs_err_gap": err_gap,
        "max_rel_bound_gap": bound_gap,
        "same_stop": want["stopped"] == got_stopped,
        "same_rounds": same_length,
        "same_diverged": same_length and all(
            a["diverged"] == b["diverged"] for a, b in zip(old, new)),
    }


def check(recorded):
    differing = 0
    for key, text, stopped in golden_runs():
        want = recorded.get(key)
        if want is None:
            print(f"{key}: not in the recorded file")
            differing += 1
            continue
        if _sha256(text) == want["sha256"]:
            continue
        differing += 1
        gaps = compare(want, text, stopped)
        print(f"{key}: err gap {gaps['max_abs_err_gap']:.3g}, "
              f"bound gap {gaps['max_rel_bound_gap']:.3g} rel, "
              f"stop {'same' if gaps['same_stop'] else 'DIFFERS'}, "
              f"rounds {'same' if gaps['same_rounds'] else 'DIFFER'}, "
              f"diverged {'same' if gaps['same_diverged'] else 'DIFFERS'}")
    total = len(recorded)
    print(f"{total - differing} of {total} traces identical "
          f"({len(os.sched_getaffinity(0))} CPUs)")
    return 0 if differing == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=("record", "check"))
    parser.add_argument("file", type=Path)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the dlsq package to run")
    parser.add_argument("--one-cpu", action="store_true",
                        help="pin this process to one CPU first, so every round is sequential")
    args = parser.parse_args(argv)

    os.environ.update(THREAD_ENV)  # before numpy loads
    if args.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(args.src.resolve()))
    if args.action == "record":
        args.file.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
        return 0
    status = check(json.loads(args.file.read_text()))
    if not args.one_cpu:
        sys.stdout.flush()
        child = subprocess.run([sys.executable, __file__, "check", str(args.file),
                                "--src", str(args.src), "--one-cpu"], check=False)
        status = max(status, child.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
