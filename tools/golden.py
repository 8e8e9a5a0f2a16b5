"""The golden gate: 122 fixed runs whose traces a change should keep.

    python tools/golden.py record <file> [--src DIR]
    python tools/golden.py check <file> [--src DIR] [--one-cpu]

The set is synth:60,10,4,3 and synth:120,16,30,7 x the six methods x
none / observation 0.05 / round-off / uniform (-1e-4, 2e-4) process
noise x seeds 0 and 5, 300 rounds, m=10, stop_tol=0, plus five runs
that diverge (DIVERGING) on synth:60,10,4,3 with m=5, seeds 0 and 5,
300 rounds, stop_tol=0, so the round the divergence guard trips at is
pinned too, plus three ipg runs whose agents are computed concurrently
(CONCURRENT: synth:608,188,10,3 under observation noise 0.05, and
stencil:30,30 under round-off and under uniform (-1e-4, 2e-4) process
noise, whose d x d K is also updated, corrupted and recorded by rows on
every CPU; seed 0, 30 rounds, m=10), plus gd and ipg on stencil:30,30
with m=5 and no noise (NARROW_SPANS; seed 0, 30 rounds), whose agents
reply over column spans narrow enough that a change to the span products
shows in the err column, plus ipg on stencil:12,12's matrix read back
from a Matrix Market file, once per form in MTX_FORMS (m=5, seed 0, 30
rounds, no noise), so a change to the parser shows, plus the nine cells
of one ``run_grid`` call (GRID: apc, gd and bfgs x none / observation
0.05 / round-off on synth:60,10,4,3, seed 0, 300 rounds, m=10, 3 reps on
the observation cells), whose cells share one cut of A and apc's set-up,
so a change to what a grid shares shows. ``record`` writes, for every
run, the SHA-256 of ``trace_csv_text``, the text itself, the stop reason
and, for a process-noise run, the repr of its ``omega_realized_mean``,
which the CSV does not hold; for a grid cell, also the repr of its
``final_errs``, one per rep. ``check`` reruns
the set and, for every trace whose hash differs, prints the largest
absolute err gap, the largest relative gap in the bound columns, and
whether the stop reason, round count and diverged flags match; a
realized mean or a grid cell's final errors whose repr differs is
printed too. ``check`` also emits every trace to a temporary directory,
reads its config back from the JSON with ``parse_trace`` and runs that
config again; a re-run whose CSV text differs from the trace's is
printed. It ends with one line: how many traces differ, the largest
err and bound gaps among them, how many realized means differ and the
largest relative gap among them, how many grid cells' final errors
differ, how many re-runs from the JSON config differ, and any stop,
round or diverged mismatch.
Then it reruns the set in a child pinned to one CPU (``--one-cpu``),
where every round is sequential, which prints the same. It exits 0 when
every hash, realized mean and re-run matches in both, 1 otherwise.

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
import tempfile
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
# agents with enough work (network.CONCURRENT_FLOPS) to run on helper threads;
# on stencil:30,30 the server's entrywise work on K is split by rows too
CONCURRENT = {
    "synth:608,188,10,3/ipg/observation/s0": {"dataset": "synth:608,188,10,3",
                                             "noise": "observation", "noise_level": 0.05},
    "stencil:30,30/ipg/roundoff/s0": {"dataset": "stencil:30,30", **NOISES["roundoff"]},
    "stencil:30,30/ipg/uniform/s0": {"dataset": "stencil:30,30", **NOISES["uniform"]},
}
# at m=5 the stencil:30,30 shards span 210-240 of its 900 columns; the m=10
# runs above cannot show a span change, as their span gradient happens to
# match the full-width one bit for bit
NARROW_SPANS = {f"stencil:30,30/m5/{method}/none/s0": {"method": method}
                for method in ("gd", "ipg")}
# the files are written to a temporary directory and named by form alone,
# so neither the keys nor the traces hold its path
MTX_FORMS = ("coordinate real symmetric", "array real general")
GRID = [(method, noise) for method in ("apc", "gd", "bfgs")
        for noise in ("none", "observation", "roundoff")]
BOUND_COLUMNS = ("bound_t1", "u_t", "bound_t2")


def _reruns(trace):
    """Whether the config read back from trace's emitted JSON runs to the
    same CSV text."""
    from dlsq.runner import emit, parse_trace, run, trace_csv_text

    with tempfile.TemporaryDirectory() as tmp:
        _, json_path = emit(trace, tmp)
        return trace_csv_text(run(parse_trace(json_path).config)) == trace_csv_text(trace)


def _outputs(trace, final_errs=None):
    """(trace csv text, stop reason, repr of omega_realized_mean or None,
    repr of the final errors as a list or None, whether it _reruns)."""
    from dlsq.runner import trace_csv_text

    realized = trace.summary["noise"].get("omega_realized_mean")
    return (trace_csv_text(trace), trace.summary["stopped"],
            None if realized is None else repr(realized),
            None if final_errs is None else repr([float(e) for e in final_errs]),
            _reruns(trace))


def _run(config):
    from dlsq.runner import run

    return _outputs(run(config))


def _write_mtx(path, A, form):
    """A as a Matrix Market file of one of MTX_FORMS: a symmetric
    coordinate file lists the lower triangle's nonzeros, an array file
    every value column by column."""
    n, k = len(A), len(A[0])
    if form.startswith("coordinate"):
        cells = [(i, j) for j in range(k) for i in range(j, n) if A[i][j]]
        body = [f"{n} {k} {len(cells)}"] + [f"{i + 1} {j + 1} {A[i][j]!r}" for i, j in cells]
    else:
        body = [f"{n} {k}"] + [repr(A[i][j]) for j in range(k) for i in range(n)]
    path.write_text("\n".join([f"%%MatrixMarket matrix {form}", *body]) + "\n")


def golden_runs():
    """Yield (key, trace csv text, stop reason, repr of omega_realized_mean
    or None, repr of a grid cell's final errors or None, whether the trace
    _reruns) for every run of the set."""
    from dlsq.datasets import load_dataset
    from dlsq.runner import RunConfig, run_grid
    from dlsq.solvers import METHODS

    for dataset in DATASETS:
        for method in METHODS:
            for noise, extra in NOISES.items():
                for seed in SEEDS:
                    yield (f"{dataset}/{method}/{noise}/s{seed}",
                           *_run(RunConfig(dataset=dataset, method=method, seed=seed, m=10,
                                           max_iters=300, stop_tol=0.0, **extra)))
    for name, extra in DIVERGING.items():
        for seed in SEEDS:
            yield (f"{DATASETS[0]}/m5/{name}/s{seed}",
                   *_run(RunConfig(dataset=DATASETS[0], seed=seed, m=5, max_iters=300,
                                   stop_tol=0.0, **extra)))
    for key, extra in CONCURRENT.items():
        yield key, *_run(RunConfig(method="ipg", seed=0, m=10, max_iters=30, stop_tol=0.0,
                                   **extra))
    for key, extra in NARROW_SPANS.items():
        yield key, *_run(RunConfig(dataset="stencil:30,30", seed=0, m=5, max_iters=30,
                                   stop_tol=0.0, **extra))
    A = load_dataset("stencil:12,12").A.tolist()
    with tempfile.TemporaryDirectory() as tmp:
        for form in MTX_FORMS:
            path = Path(tmp) / f"stencil12-{form.replace(' ', '-')}.mtx"
            _write_mtx(path, A, form)
            yield (f"mtx:{form.replace(' ', '-')}/stencil:12,12/m5/ipg/none/s0",
                   *_run(RunConfig(dataset=str(path), method="ipg", seed=0, m=5, max_iters=30,
                                   stop_tol=0.0)))
    results, rows = run_grid([
        RunConfig(dataset=DATASETS[0], method=method, seed=0, m=10, max_iters=300, stop_tol=0.0,
                  reps=3 if noise == "observation" else 1, **NOISES[noise])
        for method, noise in GRID])
    for (method, noise), mc, row in zip(GRID, results, rows):
        if mc is None:
            raise RuntimeError(f"grid cell {method}/{noise} failed: {row['error']}")
        yield (f"grid:{DATASETS[0]}/{method}/{noise}/s0",
               *_outputs(mc.first_trace, mc.final_errs))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def record():
    return {key: {"sha256": _sha256(text), "csv": text, "stopped": stopped,
                  "omega_realized_mean": realized,
                  **({} if finals is None else {"final_errs": finals})}
            for key, text, stopped, realized, finals, _ in golden_runs()}


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
    gaps, realized_gaps, finals_differ, missing, runs, reruns_differ = [], [], 0, 0, 0, 0
    for key, text, stopped, realized, finals, reruns in golden_runs():
        runs += 1
        if not reruns:
            reruns_differ += 1
            print(f"{key}: its config, read back from its JSON, re-runs to other CSV bytes")
        want = recorded.get(key)
        if want is None:
            print(f"{key}: not in the recorded file")
            missing += 1
            continue
        if finals != want.get("final_errs"):
            finals_differ += 1
            print(f"{key}: final_errs {finals} against {want.get('final_errs')} recorded")
        recorded_mean = want.get("omega_realized_mean")
        if realized != recorded_mean:
            realized_gaps.append(_rel_gap(*(None if r is None else float(r)
                                            for r in (realized, recorded_mean))))
            print(f"{key}: omega_realized_mean {realized} against {recorded_mean} recorded")
        if _sha256(text) == want["sha256"]:
            continue
        g = compare(want, text, stopped)
        gaps.append(g)
        print(f"{key}: err gap {g['max_abs_err_gap']:.3g}, "
              f"bound gap {g['max_rel_bound_gap']:.3g} rel, "
              f"stop {'same' if g['same_stop'] else 'DIFFERS'}, "
              f"rounds {'same' if g['same_rounds'] else 'DIFFER'}, "
              f"diverged {'same' if g['same_diverged'] else 'DIFFERS'}")
    # the one line a tolerance claim can quote
    line = (f"{len(gaps)} of {len(recorded)} traces differ "
            f"({len(os.sched_getaffinity(0))} CPUs)")
    if gaps:
        line += (f", largest err gap {max(g['max_abs_err_gap'] for g in gaps):.3g}, "
                 f"largest bound gap {max(g['max_rel_bound_gap'] for g in gaps):.3g} rel")
    if missing:
        line += f", {missing} runs not recorded"
    means = sum(want.get("omega_realized_mean") is not None for want in recorded.values())
    line += f"; {len(realized_gaps)} of {means} realized means differ"
    if realized_gaps:
        line += f", largest gap {max(realized_gaps):.3g} rel"
    cells = sum("final_errs" in want for want in recorded.values())
    line += f"; {finals_differ} of {cells} grid cells' final errors differ"
    line += f"; {reruns_differ} of {runs} re-runs from the JSON config differ; "
    mismatches = [f"{what} {n}" for what in ("stop", "rounds", "diverged")
                  if (n := sum(not g[f"same_{what}"] for g in gaps))]
    print(line + ("mismatches: " + ", ".join(mismatches) if mismatches
                  else "every stop reason, round count and diverged flag matches"))
    return 0 if not (gaps or realized_gaps or finals_differ or missing or reruns_differ) else 1


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
