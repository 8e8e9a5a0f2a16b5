"""Command-line harness.

Subcommands:

* run       - one experiment (optionally Monte Carlo repeated), trace to disk
* grid      - a JSON grid of runs, per-run traces plus one summary CSV
* spectrum  - eigen-structure report for a dataset
* bounds    - theoretical error-bound curves and asymptotes, no simulation
"""
from __future__ import annotations

import argparse
import re
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    bound_inputs_from,
    gd_observation_asymptote,
    gd_process_asymptote,
    observation_asymptote,
    process_asymptote,
    process_factor_limit,
    process_gates,
)
from .datasets import compute_spectrum, load_dataset, partition_rows
from .runner import (
    CHOICES,
    FIELD_TYPES,
    RunConfig,
    RunTrace,
    TraceRow,
    bound_columns,
    emit,
    load_grid_config,
    resolve_noise,
    resolve_params,
    run_grid,
    run_monte_carlo,
    strict_json_text,
    write_pair,
)

FLAG_HELP = {
    "dataset": "registry name, path to a .mtx file, or synth:rows,cols,cond[,seed]",
    "data_dir": "directory holding the named dataset files (default ./data or $DLSQ_DATA_DIR)",
    "m": "number of agents",
    "noise_level": "observation half-width, or uniform process high end",
    "label": "basename for the output files",
}

# the RunConfig fields a bound curve does not depend on
_SIMULATION_ONLY = ("seed", "beta", "gamma", "eta_apc", "reps", "max_iters",
                    "stop_tol", "stop_window")


def _add_config_flags(p, skip=(), **overrides):
    """A --<field> flag for every RunConfig field not in skip, with the
    field's type, default and CHOICES; overrides maps a field to
    add_argument keywords that replace those."""
    for f in fields(RunConfig):
        if f.name in skip:
            continue
        # None, where a field allows it, is its default and has no spelling
        choices = tuple(c for c in CHOICES.get(f.name, ()) if c is not None)
        kw = {"type": FIELD_TYPES[f.name], "default": f.default, "choices": choices or None,
              "help": FLAG_HELP.get(f.name)}
        kw.update(overrides.get(f.name, {}))
        if kw["default"] is MISSING:
            kw.update(default=None, required=True)
        p.add_argument("--" + f.name.replace("_", "-"), **kw)


def _config_from_args(args):
    """RunConfig from every parsed flag that names one of its fields."""
    return RunConfig(**{f: getattr(args, f) for f in RunConfig.__dataclass_fields__
                        if hasattr(args, f)})


def cmd_run(args):
    config = _config_from_args(args)
    mc = run_monte_carlo(config)
    trace = mc.first_trace
    csv_path, json_path = emit(trace, args.out)
    s = trace.summary
    print(f"dataset={s['dataset']} method={s['method']} noise={config.noise} "
          f"seed={config.seed} reps={config.reps}")
    print(f"iterations={s['iterations']} stopped={s['stopped']} "
          f"final_err={s['final_err']:.6g}")
    if config.reps > 1:
        print(f"mc_mean={mc.mean:.6g} mc_std={mc.std:.6g}")
    if s["diverged"]:
        print(f"diverged_at={s['diverged_at']}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_grid(args):
    configs = load_grid_config(args.config)
    if args.data_dir is not None:
        configs = [replace(c, data_dir=args.data_dir) for c in configs]
    results, rows = run_grid(configs, out_dir=args.out)
    failures = 0
    for row in rows:
        if row["error"]:
            failures += 1
            print(f"{row['label']}: ERROR {row['error']}")
        else:
            err = row["final_err_mean"] if row["reps"] > 1 else row["final_err"]
            tag = "diverged" if row["stopped"] == "diverged" else f"err={err:.6g}"
            print(f"{row['label']}: {tag} iters={row['iterations']}")
    print(f"wrote {Path(args.out) / 'grid_summary.csv'} ({len(rows)} runs, {failures} failed)")
    return 1 if failures == len(rows) and rows else 0


def cmd_spectrum(args):
    ds = load_dataset(args.dataset, args.data_dir)
    sp = compute_spectrum(ds.A)
    report = {
        "dataset": ds.name,
        "n_rows": ds.n_rows,
        "n_cols": ds.n_cols,
        "lambda_1": sp.lambda_1,
        "lambda_d": sp.lambda_d,
        "cond": sp.cond,
        "varrho": sp.varrho,
        "k_star_spectral_norm": sp.k_star_spec,
        "k_star_frobenius_norm": sp.k_star_fro,
    }
    text = strict_json_text(report)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    print(text)
    return 0


def cmd_bounds(args):
    if args.horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {args.horizon}")
    for flag in ("eta", "omega", "z0"):
        v = getattr(args, flag)
        if v is not None and not 0.0 <= v < float("inf"):
            raise ValueError(f"--{flag} must be finite and >= 0, got {v}")
    config = _config_from_args(args)
    # --eta is the observation level and --omega the process level
    key = {"observation": "eta", "process": "omega"}.get(config.noise)
    for flag in ("eta", "omega"):
        if flag != key and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} does not apply to --noise {config.noise}")
    ds = load_dataset(config.dataset, config.data_dir)
    d = ds.n_cols
    sp = compute_spectrum(ds.A)
    partition_rows(ds.n_rows, config.m)  # every agent holds a row, as in `dlsq run`

    params = resolve_params(config, ds.name, sp)
    alpha, delta = params["alpha"], params["delta"]
    # counterpart floors quote plain gradient descent at its own stepsize
    gd_step = resolve_params(replace(config, method="gd", alpha=None), ds.name, sp)["alpha"]
    z0 = args.z0 if args.z0 is not None else float(np.linalg.norm(ds.x_star))

    # an explicit --eta / --omega wins; otherwise the level `dlsq run`
    # records from the same flags
    level = getattr(args, key) if key else None
    if key and level is None:
        level = resolve_noise(config, ds.name, ds.n_rows, d)[2][key]
    eta = float(level) if key == "eta" else 0.0
    omega = float(level) if key == "omega" else 0.0
    bi = bound_inputs_from(sp, m=config.m, d=d, alpha=alpha, delta=delta,
                           eta=eta, omega=omega, z0=z0)

    report = {
        "dataset": ds.name,
        "noise": config.noise,
        "alpha": alpha,
        "delta": delta,
        "m": config.m,
        "d": d,
        "rho": bi.rho,
        "eta": eta,
        "omega": omega,
        "z0": z0,
        "horizon": args.horizon,
        "gd_step": gd_step,
        "version": __version__,
    }
    if config.noise == "process":
        rho_bd, omega_bd, ok = process_gates(bi)
        report["rho_bound"] = rho_bd
        report["omega_bound"] = omega_bd
        report["gates_satisfied"] = ok
        report["factor_limit"] = process_factor_limit(bi)
        report["asymptote"] = process_asymptote(bi)
        report["gd_asymptote"] = gd_process_asymptote(gd_step, sp.lambda_1,
                                                      sp.lambda_d, omega)
    else:
        # "none" is the zero-noise limit of the measurement-noise curve
        report["asymptote"] = observation_asymptote(bi)
        report["gd_asymptote"] = gd_observation_asymptote(gd_step, eta, config.m,
                                                          sp.lambda_1)

    # the bound columns `dlsq run` writes, along the worst case: each
    # observation bound is the next round's error (the step bound is
    # affine with nonnegative slope in the error)
    columns = bound_columns(config.noise, bi)
    rows, err = [], z0
    for t in range(args.horizon + 1):
        row = TraceRow(t, None, None, *columns(t, err))
        rows.append(row)
        if row.bound_t1 is not None:
            err = row.bound_t1

    csv_path, json_path = write_pair(args.out, args.label or f"bounds-{ds.name}-{config.noise}",
                                     RunTrace(config, params, rows, report), report)
    print(strict_json_text(report))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dlsq",
        description="distributed least-squares solver bench with noise models and error bounds")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write its trace")
    _add_config_flags(p_run)
    p_run.add_argument("--out", default="runs", help="output directory for trace files")
    p_run.set_defaults(fn=cmd_run)

    p_grid = sub.add_parser("grid", help="run a JSON-configured grid of experiments")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--out", default="runs")
    p_grid.add_argument("--data-dir", default=None)
    p_grid.set_defaults(fn=cmd_grid)

    p_spec = sub.add_parser("spectrum", help="report a dataset's eigen-structure")
    p_spec.add_argument("--dataset", required=True, help=FLAG_HELP["dataset"])
    p_spec.add_argument("--data-dir", default=None, help=FLAG_HELP["data_dir"])
    p_spec.add_argument("--out", default=None, help="optional JSON report path")
    p_spec.set_defaults(fn=cmd_spectrum)

    p_bounds = sub.add_parser("bounds", help="emit theoretical bound curves, no simulation")
    _add_config_flags(p_bounds, skip=_SIMULATION_ONLY,
                      method={"default": "ipg", "choices": ("ipg",)},
                      noise={"default": "observation"})
    p_bounds.add_argument("--horizon", type=int, default=200)
    p_bounds.add_argument("--eta", type=float, default=None,
                          help="override the derived per-agent l1 measurement level")
    p_bounds.add_argument("--omega", type=float, default=None,
                          help="override the derived per-variable l1 process level")
    p_bounds.add_argument("--z0", type=float, default=None,
                          help="initial error norm for the curves (default ||x*||)")
    p_bounds.add_argument("--out", default="runs")
    p_bounds.set_defaults(fn=cmd_bounds)

    # stock argparse only treats plain decimals as negative numbers, so
    # values like --process-low -1e-4 would be read as an option; widen
    # the matcher to scientific notation on every subparser
    signed = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    for p in (parser, p_run, p_grid, p_spec, p_bounds):
        if hasattr(p, "_negative_number_matcher"):
            p._negative_number_matcher = signed
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
