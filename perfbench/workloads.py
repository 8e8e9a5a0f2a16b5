"""The three benchmark workloads.

Each workload builds its inputs from the seed, runs one public entry
point of dlsq (``run_monte_carlo``, ``run_grid`` or ``run``) per call, and
turns the result into *units*: the operations that are counted as
attempted or failed. A unit is one Monte Carlo call, one grid cell or one
run. A unit fails when it raises, reports an error, or disagrees with the
value recorded from the seed commit (``reference.json``, written by
``record.py``); ``check`` compares whatever output the unit produced.

The seed selects one of ``VARIANTS`` recorded input variants
(``seed % VARIANTS``), so every seed has a reference to check against.
All runs disable the stop rule (``stop_tol=0``): the round count is fixed
by the config.
"""
from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import dlsq
from dlsq import RunConfig

VARIANTS = 16
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Reference tolerance for floats: |got - want| <= RTOL |want| + ATOL.
# Batched or compressed paths reorder sums. Reassociating the agent
# products as (A_i^T A_i) K and A_i^T A_i x - A_i^T b moved every output
# of variants 0-2 by at most 1.3e-13 relative, or 5e-16 absolute on
# errors already near zero, and changed no stop reason or round count.
RTOL = 1e-9
ATOL = 1e-12


def _close(got, want):
    if isinstance(want, float) and isinstance(got, float):
        if math.isinf(want) or math.isnan(want):
            return repr(got) == repr(want)
        return abs(got - want) <= RTOL * abs(want) + ATOL
    return got == want


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


class MonteCarloIPG:
    """run_monte_carlo, ipg, observation noise, dense ash608-shaped problem."""

    name = "mc-ipg-obs-608x188"
    setup_per_op = 7

    def __init__(self, variant, workdir, rows=608, cols=188, m=10, reps=10, rounds=100):
        self.r_matrix_shape = (-(-rows // m), cols)
        self.config = RunConfig(
            dataset=f"synth:{rows},{cols},10,{variant}", method="ipg", noise="observation",
            noise_level=0.25, seed=variant, m=m, reps=reps, max_iters=rounds, stop_tol=0.0)

    def call(self, max_iters):
        return dlsq.run_monte_carlo(replace(self.config, max_iters=max_iters))

    def op(self):
        """One Monte Carlo call: (rounds completed, [unit])."""
        try:
            mc = self.call(self.config.max_iters)
        except Exception as exc:  # noqa: BLE001 - a raise is a failed unit
            return 0, [{"error": _error(exc)}]
        rounds = sum(s["iterations"] for s in mc.summaries)
        return rounds, [{"final_errs": [float(e) for e in mc.final_errs], "error": ""}]

    record = op

    @staticmethod
    def check(unit, want):
        errs = unit.get("final_errs")
        return errs is None or (len(errs) == len(want["final_errs"])
                                and all(map(_close, errs, want["final_errs"])))


def ash608_like_mtx(path, variant, rows=608, cols=188):
    """Write a rows x cols Matrix Market file with two unit entries per row,
    the nonzero pattern of ash608, at random columns. Patterns whose Gram
    matrix is singular are redrawn, so every variant is a full-rank problem."""
    rng = np.random.default_rng(variant)
    while True:
        pairs = np.sort(np.array([rng.choice(cols, 2, replace=False) for _ in range(rows)]), axis=1)
        A = np.zeros((rows, cols))
        A[np.arange(rows)[:, None], pairs] = 1.0
        ev = np.linalg.eigvalsh(A.T @ A)
        if ev[0] > 1e-6 * ev[-1]:
            break
    lines = ["%%MatrixMarket matrix coordinate real general", f"{rows} {cols} {2 * rows}"]
    lines += [f"{i + 1} {j + 1} 1" for i, pair in enumerate(pairs) for j in pair]
    Path(path).write_text("\n".join(lines) + "\n")


class GridBaselines:
    """run_grid, reps=1, gd/hbm/nag/apc/bfgs x none/observation/process,
    on an ash608-like sparse pattern loaded from a Matrix Market file."""

    name = "grid-baselines-608x188"
    setup_per_op = 4
    methods = ("gd", "hbm", "nag", "apc", "bfgs")

    def __init__(self, variant, workdir, rows=608, cols=188, m=10, rounds=400, methods=None):
        self.r_matrix_shape = (-(-rows // m), cols)
        workdir = Path(workdir)
        mtx = workdir / "ash608like.mtx"
        ash608_like_mtx(mtx, variant, rows, cols)
        self.out_dir = workdir / "grid"
        self.configs = [
            RunConfig(dataset=str(mtx), method=method, noise=noise, seed=variant, m=m,
                      noise_level=0.25 if noise == "observation" else None,
                      process_kind="roundoff" if noise == "process" else None,
                      roundoff_decimals=4, max_iters=rounds, stop_tol=0.0,
                      label=f"{method}-{noise}")
            for method in (methods or self.methods)
            for noise in ("none", "observation", "process")
        ]

    def call(self, max_iters):
        return dlsq.run_grid([replace(c, max_iters=max_iters) for c in self.configs],
                             out_dir=self.out_dir, emit_traces=True)

    def op(self):
        """One grid call: (rounds completed, one unit per cell)."""
        try:
            _, rows = self.call(self.configs[0].max_iters)
        except Exception as exc:  # noqa: BLE001 - a raise fails every cell
            return 0, [{"error": _error(exc)} for _ in self.configs]
        units = [{"label": r["label"], "stopped": r["stopped"], "iterations": r["iterations"],
                  "final_err": r["final_err"], "error": r["error"]} for r in rows]
        return sum(u["iterations"] or 0 for u in units), units

    record = op

    @staticmethod
    def check(unit, want):
        # cells that trip the divergence guard are a checked outcome, not a failure
        return unit["error"] != "" or all(
            _close(unit[k], want[k]) for k in ("label", "stopped", "iterations", "final_err"))


def stencil_matrix(nx, ny):
    """9-point operator on an nx x ny grid: 8 on the diagonal, -1 on each
    neighbour, the structure of gr_30_30."""
    d = nx * ny
    A = np.zeros((d, d))
    idx = np.arange(d).reshape(nx, ny)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            src = idx[max(0, -di):nx - max(0, di), max(0, -dj):ny - max(0, dj)]
            dst = idx[max(0, di):nx + min(0, di), max(0, dj):ny + min(0, dj)]
            A[src.ravel(), dst.ravel()] = 8.0 if di == dj == 0 else -1.0
    return A


class StencilProcessIPG:
    """run with on_iteration, ipg, 4-decimal roundoff process noise, 30x30 stencil."""

    name = "ipg-process-stencil-30x30"
    setup_per_op = 4

    def __init__(self, variant, workdir, nx=30, ny=30, m=10, rounds=100):
        A = stencil_matrix(nx, ny)
        self.r_matrix_shape = (-(-nx * ny // m), nx * ny)
        x_star = np.random.default_rng(variant).uniform(0.5, 1.5, nx * ny)
        self.dataset = dlsq.Dataset(name=f"stencil-{nx}x{ny}", A=A, x_star=x_star, b=A @ x_star)
        self.config = RunConfig(
            dataset=self.dataset.name, method="ipg", noise="process", process_kind="roundoff",
            roundoff_decimals=4, seed=variant, m=m, max_iters=rounds, stop_tol=0.0)

    def call(self, max_iters, on_iteration=None):
        return dlsq.run(replace(self.config, max_iters=max_iters), dataset=self.dataset,
                        on_iteration=on_iteration)

    def op(self):
        """One run: (rounds that on_iteration saw complete, [unit])."""
        errs = []
        error = ""
        try:
            self.call(self.config.max_iters, lambda state, row: errs.append(row.err))
        except Exception as exc:  # noqa: BLE001 - a raise is a failed unit
            error = _error(exc)
        return max(len(errs) - 1, 0), [{"errs": errs, "error": error}]

    def record(self):
        """Reference errors for every configured round.

        run() stops at the first raise, so the full trajectory comes from
        the same solver, shards and noise driven by run_rounds; its prefix
        must match run() bit for bit.
        """
        ds, cfg = self.dataset, self.config
        spectrum = dlsq.compute_spectrum(ds.A)
        solver = dlsq.make_solver(cfg.method, dlsq.resolve_params(cfg, ds.name, spectrum))
        errs = []
        dlsq.run_rounds(solver, dlsq.make_shards(ds, cfg.m), ds.n_cols, cfg.max_iters,
                        pnoise=dlsq.RoundoffProcessNoise(decimals=cfg.roundoff_decimals),
                        seed=cfg.seed,
                        collect=lambda state, t: errs.append(
                            dlsq.estimation_error(solver.iterate(state), ds.x_star)))
        _, (unit,) = self.op()
        if unit["errs"] != errs[:len(unit["errs"])]:
            raise RuntimeError("run_rounds and run disagree on the error trajectory")
        return cfg.max_iters, [{"errs": errs, "error": ""}]

    @staticmethod
    def check(unit, want):
        # a raise is a failure but not a wrong answer: check the rounds that completed
        errs = unit["errs"]
        return len(errs) <= len(want["errs"]) and all(map(_close, errs, want["errs"]))


WORKLOADS = {w.name: w for w in (MonteCarloIPG, GridBaselines, StencilProcessIPG)}


def load_reference(name, variant):
    return json.loads(REFERENCE_PATH.read_text())[name][str(variant)]
