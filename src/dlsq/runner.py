"""Run orchestration: configuration, the iteration loop, traces, grids.

A run is fully determined by its RunConfig (seed included): two runs
with equal configs emit byte-identical CSV traces. The JSON mirror adds
metadata that may legitimately vary (wall time, version).
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    ProcessBoundAccumulator,
    bound_inputs_from,
    estimation_error,
    observation_step_bound,
)
from .datasets import compute_spectrum, load_dataset, make_shards
from .noise import (
    NoProcessNoise,
    ObservationNoise,
    RoundoffProcessNoise,
    UniformProcessNoise,
    apply_observation_noise,
    realized_l1,
)
from .solvers import METHODS, make_solver


class _RecordingProcessNoise:
    """Transparent wrapper that tracks realized corruption magnitudes.

    Magnitudes are normalized to a length-d variable (K counts per
    column) so the running mean is directly comparable to the declared
    per-variable l1 level.
    """

    def __init__(self, inner, d):
        self._inner = inner
        self._d = d
        self._sum = 0.0
        self._count = 0

    def corrupt(self, v, stream, iteration):
        out = self._inner.corrupt(v, stream, iteration)
        n = np.asarray(v).size
        if n:
            self._sum += realized_l1(v, out) * (self._d / n)
            self._count += 1
        return out

    def l1_bound(self, length):
        return self._inner.l1_bound(length)

    @property
    def realized_mean(self):
        return self._sum / self._count if self._count else 0.0


DIVERGENCE_NORM = 1e12

NOISE_MODES = ("none", "observation", "process")

# Reference step/momentum parameters for the two named datasets.
DEFAULT_PARAMS = {
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

# Per-dataset process-noise conventions: round-off for the gradient-family
# methods, one-sided uniform ranges for apc/bfgs (round-off would be a
# no-op relative to their much smaller step granularity).
DEFAULT_PROCESS = {
    "ash608": {"default": ("roundoff", 4), "apc": ("uniform", 5e-5), "bfgs": ("uniform", 9e-5)},
    "gr_30_30": {"default": ("roundoff", 4), "apc": ("uniform", 5e-5), "bfgs": ("uniform", 2e-6)},
}


@dataclass(frozen=True)
class RunConfig:
    dataset: str
    method: str
    noise: str = "none"
    seed: int = 0
    m: int = 10
    alpha: float = None
    delta: float = None
    beta: float = None
    gamma: float = None
    eta_apc: float = None
    noise_level: float = None      # observation half-width / uniform high
    process_kind: str = None       # "roundoff" | "uniform"
    process_low: float = 0.0
    roundoff_decimals: int = 4
    reps: int = 1
    max_iters: int = 100_000
    stop_tol: float = 1e-4
    stop_window: int = 20
    data_dir: str = None
    label: str = None

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class TraceRow:
    t: int
    err: float
    step_delta: float = None
    bound_t1: float = None
    u_t: float = None
    bound_t2: float = None
    diverged: bool = False


@dataclass
class RunTrace:
    config: RunConfig
    params: dict
    rows: list
    summary: dict

    @property
    def final_err(self):
        return self.rows[-1].err

    def errors(self):
        return np.array([r.err for r in self.rows])


def resolve_params(config, dataset_name, spectrum):
    """Fill method parameters: explicit config values win, then the named
    dataset defaults, then spectral formulas for synthetic problems."""
    method = config.method
    out = dict(DEFAULT_PARAMS.get((dataset_name, method), {}))

    lam1, lamd = spectrum.lambda_1, spectrum.lambda_d
    kappa = lam1 / lamd
    if method in ("ipg", "gd") and "alpha" not in out:
        out["alpha"] = 2.0 / (lam1 + lamd)
    if method == "ipg":
        out.setdefault("delta", 1.0)
    if method == "nag" and "alpha" not in out:
        out["alpha"] = 1.0 / lam1
        out["beta"] = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
    if method == "hbm" and "alpha" not in out:
        out["alpha"] = 4.0 / (np.sqrt(lam1) + np.sqrt(lamd)) ** 2
        out["beta"] = ((np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)) ** 2
    if method == "apc":
        out.setdefault("gamma", 1.0)
        out.setdefault("eta_apc", 1.0)

    for key in ("alpha", "delta", "beta", "gamma", "eta_apc"):
        v = getattr(config, key)
        if v is not None:
            out[key] = float(v)
    return out


def resolve_noise(config, dataset_name, d):
    """Build the noise models for a run.

    Returns (observation_model_or_None, process_model, meta) where meta
    records kind and the per-variable l1 level the bound formulas use.
    """
    from .datasets import REGISTRY

    meta = {"noise": config.noise}
    if config.noise == "none":
        return None, NoProcessNoise(), meta

    if config.noise == "observation":
        a = config.noise_level
        if a is None:
            info = REGISTRY.get(dataset_name)
            if info is None:
                raise ValueError(
                    "observation noise on a non-registry dataset needs an explicit noise_level"
                )
            a = info.observation_half_width
        meta["half_width"] = float(a)
        return ObservationNoise(half_width=float(a)), NoProcessNoise(), meta

    if config.noise == "process":
        kind = config.process_kind
        level = config.noise_level
        if kind is None:
            per_ds = DEFAULT_PROCESS.get(dataset_name)
            if per_ds is None:
                kind = "roundoff"
            else:
                entry = per_ds.get(config.method, per_ds["default"])
                kind = entry[0]
                if level is None and kind == "uniform":
                    level = entry[1]
        if kind == "roundoff":
            model = RoundoffProcessNoise(decimals=config.roundoff_decimals)
            meta.update(kind="roundoff", decimals=config.roundoff_decimals)
        elif kind == "uniform":
            if level is None:
                raise ValueError("uniform process noise needs a noise_level (high end)")
            model = UniformProcessNoise(seed=config.seed, low=config.process_low,
                                        high=float(level))
            meta.update(kind="uniform", low=config.process_low, high=float(level))
        else:
            raise ValueError(f"unknown process kind {kind!r}")
        meta["omega"] = model.l1_bound(d)
        return None, model, meta

    raise ValueError(f"unknown noise mode {config.noise!r}; choose from {NOISE_MODES}")


def _bound_machinery(config, spectrum, params, d, eta, omega, z0):
    """Per-row bound evaluation for preconditioned runs under noise."""
    if config.method != "ipg" or config.noise == "none":
        return None
    bi = bound_inputs_from(spectrum, m=config.m, d=d,
                           alpha=params["alpha"], delta=params["delta"],
                           eta=eta, omega=omega, z0=z0)
    if config.noise == "observation":
        return {"mode": "observation", "bi": bi}
    return {"mode": "process", "bi": bi, "acc": ProcessBoundAccumulator(bi)}


def run(config, dataset=None, spectrum=None, on_iteration=None):
    """Execute one run (config.seed) and return its RunTrace.

    dataset and spectrum may be passed directly to skip recomputing them
    across repetitions; on_iteration, when given, is called with
    (state, row) after every round.
    """
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}; choose from {METHODS}")
    if config.noise not in NOISE_MODES:
        raise ValueError(f"unknown noise mode {config.noise!r}; choose from {NOISE_MODES}")

    t_start = time.perf_counter()
    ds = dataset if dataset is not None else load_dataset(config.dataset, config.data_dir)
    d = ds.n_cols
    if spectrum is None:
        spectrum = compute_spectrum(ds.A)
    params = resolve_params(config, ds.name, spectrum)
    obs_model, pnoise, noise_meta = resolve_noise(config, ds.name, d)

    shards = make_shards(ds, config.m)
    eta = 0.0
    if obs_model is not None:
        shards, eta_expected, eta_realized = apply_observation_noise(
            shards, config.seed, obs_model)
        eta = max(eta_expected)
        noise_meta["eta"] = eta
        noise_meta["eta_realized_max"] = max(eta_realized)
    omega = noise_meta.get("omega", 0.0)
    if config.noise == "process":
        pnoise = _RecordingProcessNoise(pnoise, d)

    solver = make_solver(config.method, params)
    state = solver.init_state(shards, d, pnoise, config.seed)
    agent_states = solver.init_agent_states(shards)

    x = solver.iterate(state)
    err0 = estimation_error(x, ds.x_star)
    bounds = _bound_machinery(config, spectrum, params, d, eta, omega, z0=err0)

    row0 = TraceRow(t=0, err=err0,
                    bound_t2=(err0 + omega) if bounds and bounds["mode"] == "process" else None)
    rows = [row0]
    if on_iteration:
        on_iteration(state, row0)

    omega_realized_max = 0.0
    stopped = "maxiter"
    diverged_at = None
    consecutive = 0
    x_prev = x.copy()

    for t in range(config.max_iters):
        state, agent_states, reply_finite = solver.step(
            state, shards, agent_states, pnoise, t)
        x = solver.iterate(state)
        err = estimation_error(x, ds.x_star)
        delta_step = float(np.linalg.norm(x - x_prev))

        finite = (reply_finite and np.all(np.isfinite(x))
                  and all(np.all(np.isfinite(a)) for a in solver.internal_arrays(state, agent_states)))
        diverged = (not finite) or float(np.linalg.norm(x)) > DIVERGENCE_NORM

        bound_t1 = u_t = bound_t2 = None
        if bounds is not None and not diverged:
            if bounds["mode"] == "observation":
                bound_t1 = observation_step_bound(bounds["bi"], rows[-1].err, t)
            else:
                u_t, bound_t2 = bounds["acc"].update(t + 1)

        row = TraceRow(t=t + 1, err=err, step_delta=delta_step,
                       bound_t1=bound_t1, u_t=u_t, bound_t2=bound_t2,
                       diverged=diverged)
        rows.append(row)
        if on_iteration:
            on_iteration(state, row)

        if diverged:
            stopped = "diverged"
            diverged_at = t + 1
            break

        if delta_step < config.stop_tol:
            consecutive += 1
            if consecutive >= config.stop_window:
                stopped = "stoprule"
                break
        else:
            consecutive = 0
        x_prev = x.copy()

    if config.noise == "process":
        noise_meta["omega_realized_mean"] = pnoise.realized_mean
    summary = {
        "dataset": ds.name,
        "method": config.method,
        "noise": noise_meta,
        "seed": config.seed,
        "m": config.m,
        "params": {k: float(v) for k, v in params.items() if isinstance(v, (int, float))},
        "iterations": rows[-1].t,
        "final_err": rows[-1].err,
        "stopped": stopped,
        "diverged": stopped == "diverged",
        "diverged_at": diverged_at,
        "spectrum": {
            "lambda_1": spectrum.lambda_1,
            "lambda_d": spectrum.lambda_d,
            "varrho": spectrum.varrho,
            "cond": spectrum.cond,
        },
        "version": __version__,
        "wall_time_s": time.perf_counter() - t_start,
    }
    if config.method == "bfgs":
        skipped = state.skipped
        summary["bfgs_update_skips"] = len(skipped)
        summary["bfgs_skip_rounds"] = list(skipped[:50])
    return RunTrace(config=config, params=params, rows=rows, summary=summary)


@dataclass
class MonteCarloResult:
    config: RunConfig
    first_trace: RunTrace
    final_errs: np.ndarray
    summaries: list

    @property
    def mean(self):
        return float(self.final_errs.mean())

    @property
    def std(self):
        return float(self.final_errs.std(ddof=1)) if len(self.final_errs) > 1 else 0.0


def rep_seed(base_seed, rep):
    """Derived per-repetition seed; rep 0 keeps the configured seed."""
    if rep == 0:
        return int(base_seed)
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(rep),))
    return int(ss.generate_state(1, np.uint64)[0])


def run_monte_carlo(config, dataset=None, spectrum=None):
    """config.reps independent runs over derived seeds."""
    if dataset is None:
        dataset = load_dataset(config.dataset, config.data_dir)
    if spectrum is None:
        spectrum = compute_spectrum(dataset.A)
    traces_first = None
    finals = []
    summaries = []
    for r in range(max(1, config.reps)):
        cfg_r = replace(config, seed=rep_seed(config.seed, r), reps=1)
        trace = run(cfg_r, dataset=dataset, spectrum=spectrum)
        if r == 0:
            traces_first = trace
        finals.append(trace.final_err)
        summaries.append(trace.summary)
    return MonteCarloResult(config=config, first_trace=traces_first,
                            final_errs=np.array(finals), summaries=summaries)


# -- serialization ----------------------------------------------------------

CSV_COLUMNS = ("t", "err", "step_delta", "bound_t1", "u_t", "bound_t2", "diverged")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def trace_csv_text(trace):
    lines = [",".join(CSV_COLUMNS)]
    for r in trace.rows:
        lines.append(",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def trace_json_obj(trace):
    return {
        "config": trace.config.to_dict(),
        "params": {k: (float(v) if isinstance(v, (int, float)) else v)
                   for k, v in trace.params.items()},
        "summary": trace.summary,
        "columns": list(CSV_COLUMNS),
        "rows": [[getattr(r, c) for c in CSV_COLUMNS] for r in trace.rows],
    }


def emit(trace, out_dir, basename=None):
    """Write <basename>.csv and <basename>.json under out_dir; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if basename is None:
        c = trace.config
        basename = c.label or f"{trace.summary['dataset']}-{c.method}-{c.noise}-s{c.seed}"
    csv_path = out_dir / f"{basename}.csv"
    json_path = out_dir / f"{basename}.json"
    csv_path.write_text(trace_csv_text(trace))
    json_path.write_text(json.dumps(trace_json_obj(trace), indent=1, sort_keys=True))
    return csv_path, json_path


def _parse_cell(col, s):
    if s == "":
        return None
    if col == "t":
        return int(s)
    if col == "diverged":
        return s == "1"
    return float(s)


def parse_trace(path):
    """Read back an emitted trace. JSON restores config/params/summary;
    CSV restores the rows alone."""
    path = Path(path)
    if path.suffix == ".json":
        obj = json.loads(path.read_text())
        rows = [TraceRow(**{c: (bool(v) if c == "diverged" else v)
                            for c, v in zip(obj["columns"], vals)})
                for vals in obj["rows"]]
        cfg = RunConfig.from_dict(obj["config"])
        return RunTrace(config=cfg, params=obj["params"], rows=rows,
                        summary=obj["summary"])
    text = path.read_text().splitlines()
    header = text[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected columns {header}")
    rows = []
    for line in text[1:]:
        cells = line.split(",")
        kw = {c: _parse_cell(c, s) for c, s in zip(CSV_COLUMNS, cells)}
        kw["diverged"] = bool(kw["diverged"])
        rows.append(TraceRow(**kw))
    return RunTrace(config=None, params=None, rows=rows, summary=None)


# -- grids ------------------------------------------------------------------


def load_grid_config(path):
    obj = json.loads(Path(path).read_text())
    defaults = obj.get("defaults", {})
    runs = obj.get("runs")
    if not isinstance(runs, list):
        raise ValueError("grid config needs a 'runs' list")
    configs = []
    for i, entry in enumerate(runs):
        merged = {**defaults, **entry}
        if "dataset" not in merged or "method" not in merged:
            raise ValueError(f"runs[{i}] needs at least dataset and method")
        configs.append(RunConfig.from_dict(merged))
    return configs


GRID_COLUMNS = ("label", "dataset", "method", "noise", "seed", "reps",
                "final_err", "final_err_mean", "final_err_std",
                "iterations", "stopped", "diverged_at", "error")


def run_grid(configs, out_dir=None, emit_traces=True):
    """Run every config, isolating per-cell failures. Returns (results,
    summary_rows); optionally writes traces and a grid summary CSV."""
    results = []
    summary_rows = []
    cache = {}
    for cfg in configs:
        row = {c: "" for c in GRID_COLUMNS}
        row.update(label=cfg.label or cfg.dataset, dataset=cfg.dataset,
                   method=cfg.method, noise=cfg.noise, seed=cfg.seed, reps=cfg.reps)
        try:
            key = (cfg.dataset, cfg.data_dir)
            if key not in cache:
                ds = load_dataset(cfg.dataset, cfg.data_dir)
                cache[key] = (ds, compute_spectrum(ds.A))
            ds, sp = cache[key]
            mc = run_monte_carlo(cfg, dataset=ds, spectrum=sp)
            first = mc.first_trace
            label = cfg.label or (f"{first.summary['dataset']}-{cfg.method}"
                                  f"-{cfg.noise}-s{cfg.seed}")
            row.update(
                label=label,
                final_err=first.final_err,
                final_err_mean=mc.mean,
                final_err_std=mc.std,
                iterations=first.summary["iterations"],
                stopped=first.summary["stopped"],
                diverged_at=first.summary["diverged_at"],
            )
            results.append(mc)
            if out_dir is not None and emit_traces:
                emit(first, out_dir, basename=label)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            row["error"] = f"{type(exc).__name__}: {exc}"
            results.append(None)
        summary_rows.append(row)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = [",".join(GRID_COLUMNS)]
        for row in summary_rows:
            cells = []
            for c in GRID_COLUMNS:
                v = row[c]
                if isinstance(v, float):
                    cells.append(repr(v))
                elif v is None:
                    cells.append("")
                else:
                    cells.append(str(v).replace(",", ";"))
            lines.append(",".join(cells))
        (out_dir / "grid_summary.csv").write_text("\n".join(lines) + "\n")
    return results, summary_rows
