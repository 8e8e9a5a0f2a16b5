"""Command-line harness.

Subcommands:

* run       - one experiment (optionally Monte Carlo repeated), trace to disk
* grid      - a JSON grid of runs, per-run traces plus one summary CSV
* spectrum  - eigen-structure report for a dataset
* bounds    - theoretical error-bound curves and asymptotes, no simulation
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    bound_inputs_from,
    gd_observation_asymptote,
    gd_process_asymptote,
    observation_asymptote,
    observation_bound_curve,
    process_asymptote,
    process_error_bound,
    process_factor_limit,
    process_gates,
    process_step_factor,
    richardson_rate,
)
from .datasets import compute_spectrum, load_dataset, partition_rows
from .runner import (
    CSV_COLUMNS,
    RunConfig,
    emit,
    load_grid_config,
    resolve_noise,
    resolve_params,
    run_grid,
    run_monte_carlo,
)
from .solvers import METHODS


def _report_json(report):
    # strict JSON: non-finite floats become strings ("inf", "nan")
    safe = {k: (repr(v) if isinstance(v, float) and not math.isfinite(v) else v)
            for k, v in report.items()}
    return json.dumps(safe, indent=1, sort_keys=True)


def _add_common(p):
    p.add_argument("--dataset", required=True,
                   help="registry name, path to a .mtx file, or synth:rows,cols,cond[,seed]")
    p.add_argument("--data-dir", default=None,
                   help="directory holding the named dataset files (default ./data or $DLSQ_DATA_DIR)")


def _add_run_args(p):
    _add_common(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--noise", default="none", choices=("none", "observation", "process"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs", help="output directory for trace files")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--eta-apc", type=float, default=None)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--m", type=int, default=10, help="number of agents")
    p.add_argument("--noise-level", type=float, default=None,
                   help="observation half-width, or uniform process high end")
    p.add_argument("--process-kind", default=None, choices=("roundoff", "uniform"))
    p.add_argument("--process-low", type=float, default=0.0)
    p.add_argument("--roundoff-decimals", type=int, default=4)
    p.add_argument("--stop-tol", type=float, default=1e-4)
    p.add_argument("--stop-window", type=int, default=20)
    p.add_argument("--label", default=None, help="basename for the output files")


def _config_from_args(args):
    return RunConfig(
        dataset=args.dataset, method=args.method, noise=args.noise,
        seed=args.seed, m=args.m, alpha=args.alpha, delta=args.delta,
        beta=args.beta, gamma=args.gamma, eta_apc=args.eta_apc,
        noise_level=args.noise_level, process_kind=args.process_kind,
        process_low=args.process_low, roundoff_decimals=args.roundoff_decimals,
        reps=args.reps, max_iters=args.max_iters, stop_tol=args.stop_tol,
        stop_window=args.stop_window, data_dir=args.data_dir, label=args.label,
    )


def cmd_run(args):
    config = _config_from_args(args)
    mc = run_monte_carlo(config)
    trace = mc.first_trace
    csv_path, json_path = emit(trace, args.out, basename=config.label)
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
        from dataclasses import replace
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
    text = _report_json(report)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    print(text)
    return 0


def cmd_bounds(args):
    if args.method != "ipg":
        raise SystemExit("bound curves are defined for --method ipg only")
    ds = load_dataset(args.dataset, args.data_dir)
    d = ds.n_cols
    sp = compute_spectrum(ds.A)

    alpha = args.alpha
    if alpha is None:
        alpha = resolve_params(RunConfig(dataset=args.dataset, method="ipg"),
                               ds.name, sp)["alpha"]
    delta = args.delta if args.delta is not None else 1.0
    # counterpart floors quote plain gradient descent at its own stepsize
    gd_step = resolve_params(RunConfig(dataset=args.dataset, method="gd"),
                             ds.name, sp)["alpha"]
    z0 = args.z0 if args.z0 is not None else float(np.linalg.norm(ds.x_star))

    # an explicit --eta / --omega wins; otherwise the level `dlsq run`
    # derives from the same flags
    level = {"observation": args.eta, "process": args.omega}.get(args.noise)
    if level is None and args.noise != "none":
        config = RunConfig(dataset=args.dataset, method="ipg", noise=args.noise, m=args.m,
                           noise_level=args.noise_level, process_kind=args.process_kind,
                           process_low=args.process_low,
                           roundoff_decimals=args.roundoff_decimals)
        obs_model, _, meta = resolve_noise(config, ds.name, d)
        if obs_model is None:
            level = meta["omega"]
        else:
            # per-agent expected l1 at the largest shard, as in run()
            level = obs_model.expected_l1(
                max(stop - start for start, stop in partition_rows(ds.n_rows, args.m)))
    eta = float(level) if args.noise == "observation" else 0.0
    omega = float(level) if args.noise == "process" else 0.0
    bi = bound_inputs_from(sp, m=args.m, d=d, alpha=alpha, delta=delta,
                           eta=eta, omega=omega, z0=z0)

    report = {
        "dataset": ds.name,
        "noise": args.noise,
        "alpha": alpha,
        "delta": delta,
        "m": args.m,
        "d": d,
        "rho": richardson_rate(alpha, sp.lambda_1, sp.lambda_d),
        "eta": eta,
        "omega": omega,
        "z0": z0,
        "horizon": args.horizon,
        "version": __version__,
    }
    rows = []
    if args.noise == "process":
        rho_bd, omega_bd, ok = process_gates(bi)
        report["rho_bound"] = rho_bd
        report["omega_bound"] = omega_bd
        report["gates_satisfied"] = ok
        report["factor_limit"] = process_factor_limit(bi)
        report["asymptote"] = process_asymptote(bi)
        report["gd_step"] = gd_step
        report["gd_asymptote"] = gd_process_asymptote(gd_step, sp.lambda_1,
                                                      sp.lambda_d, omega)
        for t in range(args.horizon + 1):
            u = process_step_factor(bi, t) if t >= 1 else None
            rows.append((t, None, None, None, u, process_error_bound(bi, t), False))
    else:
        # "none" is the zero-noise limit of the measurement-noise curve
        report["asymptote"] = observation_asymptote(bi)
        report["gd_step"] = gd_step
        report["gd_asymptote"] = gd_observation_asymptote(gd_step, eta, args.m,
                                                          sp.lambda_1)
        curve = observation_bound_curve(bi, args.horizon)
        for t, v in enumerate(curve):
            rows.append((t, None, None, v if t >= 1 else None, None, None, False))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = args.label or f"bounds-{ds.name}-{args.noise}"
    csv_path = out_dir / f"{base}.csv"
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("")
            elif isinstance(v, bool):
                cells.append("1" if v else "0")
            elif isinstance(v, int):
                cells.append(str(v))
            else:
                cells.append(repr(float(v)))
        lines.append(",".join(cells))
    csv_path.write_text("\n".join(lines) + "\n")
    json_path = out_dir / f"{base}.json"
    text = _report_json(report)
    json_path.write_text(text + "\n")
    print(text)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dlsq",
        description="distributed least-squares solver bench with noise models and error bounds")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write its trace")
    _add_run_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_grid = sub.add_parser("grid", help="run a JSON-configured grid of experiments")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--out", default="runs")
    p_grid.add_argument("--data-dir", default=None)
    p_grid.set_defaults(fn=cmd_grid)

    p_spec = sub.add_parser("spectrum", help="report a dataset's eigen-structure")
    _add_common(p_spec)
    p_spec.add_argument("--out", default=None, help="optional JSON report path")
    p_spec.set_defaults(fn=cmd_spectrum)

    p_bounds = sub.add_parser("bounds", help="emit theoretical bound curves, no simulation")
    _add_common(p_bounds)
    p_bounds.add_argument("--method", default="ipg", choices=METHODS)
    p_bounds.add_argument("--noise", default="observation",
                          choices=("none", "observation", "process"))
    p_bounds.add_argument("--alpha", type=float, default=None)
    p_bounds.add_argument("--delta", type=float, default=None)
    p_bounds.add_argument("--m", type=int, default=10)
    p_bounds.add_argument("--horizon", type=int, default=200)
    p_bounds.add_argument("--eta", type=float, default=None,
                          help="override the derived per-agent l1 measurement level")
    p_bounds.add_argument("--omega", type=float, default=None,
                          help="override the derived per-variable l1 process level")
    p_bounds.add_argument("--noise-level", type=float, default=None)
    p_bounds.add_argument("--process-kind", default=None, choices=("roundoff", "uniform"))
    p_bounds.add_argument("--process-low", type=float, default=0.0)
    p_bounds.add_argument("--roundoff-decimals", type=int, default=4)
    p_bounds.add_argument("--z0", type=float, default=None,
                          help="initial error norm for the curves (default ||x*||)")
    p_bounds.add_argument("--out", default="runs")
    p_bounds.add_argument("--label", default=None)
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
