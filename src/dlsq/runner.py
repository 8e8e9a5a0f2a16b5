"""Run orchestration: configuration, the iteration loop, traces, grids.

A run is fully determined by its RunConfig (seed included) and its BLAS:
two runs with equal configs emit byte-identical CSV traces only on one
BLAS kernel at one BLAS thread count. dlsq pins neither (perfbench and
tools/golden.py pin one thread). The JSON mirror adds metadata that may
legitimately vary (wall time, version).
"""
from __future__ import annotations

import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from itertools import islice
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .analysis import (
    ProcessBoundAccumulator,
    bound_inputs_from,
    estimation_error,
    observation_step_bound,
)
from .datasets import (REGISTRY, compute_spectrum, dataset_name, load_dataset, make_shards,
                       partition_rows)
from .noise import (
    NoProcessNoise,
    ObservationNoise,
    RoundoffProcessNoise,
    UniformProcessNoise,
    apply_observation_noise,
    observation_eta,
)
from .solvers import METHODS, make_solver, rounds


class _RecordingProcessNoise:
    """Transparent wrapper that tracks realized corruption magnitudes.

    Magnitudes are normalized to a length-d variable (K counts per
    column) so the running mean is directly comparable to the declared
    per-variable l1 level. Agents that run concurrently (apc) corrupt
    their own streams, so each stream keeps its own sum and count, which
    grow in round order whatever the thread timing; the mean adds the
    streams up in stream order.
    """

    def __init__(self, inner, d):
        self._inner = inner
        self._d = d
        self._sums = {}  # stream -> [sum, count]

    def corrupt(self, v, stream, iteration):
        l1 = self._inner.corrupt(v, stream, iteration)
        acc = self._sums.setdefault(stream, [0.0, 0])
        acc[0] += l1 * (self._d / np.size(v))
        acc[1] += 1
        return l1

    @property
    def realized_mean(self):
        count = sum(c for _, c in self._sums.values())
        return sum(self._sums[s][0] for s in sorted(self._sums)) / count if count else 0.0


DIVERGENCE_NORM = 1e12

# the values a RunConfig field may take, for the fields limited to a set;
# a process_kind of None takes the dataset's convention
CHOICES = {
    "method": METHODS,
    "noise": ("none", "observation", "process"),
    "process_kind": (None, "roundoff", "uniform"),
}

# closed (low, high) ranges of the numeric RunConfig fields, None unbounded:
# a seed keys a uint64 Philox stream, islice stops at sys.maxsize, and
# round-off at d decimals needs 10.0**d and 10.0**-d finite and positive
RANGES = {"seed": (0, 2**64 - 1), "m": (1, None), "reps": (1, None), "stop_window": (1, None),
          "max_iters": (0, sys.maxsize), "noise_level": (0, None), "stop_tol": (0, None),
          "roundoff_decimals": (-308, 308)}

# what a field of each annotated type admits (never a bool), as an error names it
_ADMITS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number"),
           str: (str, "a string")}

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

    def __post_init__(self):
        # reject values that would otherwise fail deep inside numpy or run
        # silently wrong; each field's rule comes from its annotation
        for f in fields(self):
            name, v = f.name, getattr(self, f.name)
            if name in CHOICES:
                if v not in CHOICES[name]:
                    raise ValueError(f"{name} must be one of {CHOICES[name]}, got {v!r}")
            elif v is not None or f.default is not None:  # a None default: chosen per run
                admits, what = _ADMITS[FIELD_TYPES[name]]
                if (isinstance(v, bool) or not isinstance(v, admits)
                        or admits is numbers.Real and not math.isfinite(v)):
                    raise ValueError(f"{name} must be {what}, got {v!r}")
                low, high = RANGES.get(name, (None, None))
                if low is not None and v < low:
                    raise ValueError(f"{name} must be >= {low}, got {v!r}")
                if high is not None and v > high:
                    raise ValueError(f"{name} must be <= {high}, got {v!r}")
                # a numpy scalar is kept as the built-in type, which JSON writes
                object.__setattr__(self, name, FIELD_TYPES[name](v))
        # the label names the trace files in an output directory
        if self.label is not None and (self.label in ("", ".", "..") or "/" in self.label
                                       or os.sep in self.label):
            raise ValueError(f"label must be a bare file name, got {self.label!r}")

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


FIELD_TYPES = get_type_hints(RunConfig)  # each field's type, for checking and CLI parsing


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


def resolve_noise(config, dataset_name, n_rows, d):
    """Build the noise models for a run on an n_rows x d problem.

    Returns (observation_model_or_None, process_model, meta) where meta
    records kind and the l1 level the bound formulas use, eta or omega.
    """
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
        model = ObservationNoise(half_width=float(a))
        meta.update(half_width=float(a), eta=observation_eta(model, n_rows, config.m))
        return model, NoProcessNoise(), meta

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
    else:
        if level is None or config.process_low > level:
            raise ValueError("uniform process noise needs a noise_level (high end) >= "
                             f"process_low={config.process_low!r}, got {level!r}")
        model = UniformProcessNoise(seed=config.seed, low=config.process_low,
                                    high=float(level))
        meta.update(kind="uniform", low=config.process_low, high=float(level))
    meta["omega"] = model.l1_bound(d)
    return None, model, meta


NO_BOUNDS = (None, None, None)


def bound_columns(noise, bi):
    """The bound columns (bound_t1, u_t, bound_t2) of row t as a function
    of (t, previous row's error) for a run of ipg from bi.z0 under the
    given noise mode; "none" is the observation bound at eta = 0."""
    if noise == "process":
        acc = ProcessBoundAccumulator(bi)

        def columns(t, prev_err):
            return (None, *acc.update(t)) if t else (None, None, bi.z0 + bi.omega)
    else:
        def columns(t, prev_err):
            return (observation_step_bound(bi, prev_err, t - 1), None, None) if t else NO_BOUNDS
    return columns


def _problem(config, dataset=None, spectrum=None):
    """(Dataset, Spectrum) of a config's dataset, each as given or else
    built; a given one that the config does not describe is a ValueError."""
    if dataset is None:
        dataset = load_dataset(config.dataset, config.data_dir)
    elif dataset.name != dataset_name(config.dataset):
        raise ValueError(f"dataset is {dataset.name!r}, but the config names "
                         f"{dataset_name(config.dataset)!r}")
    if spectrum is None:
        spectrum = compute_spectrum(dataset.A)
    elif spectrum.A is not dataset.A:
        raise ValueError("spectrum must be compute_spectrum of the dataset's A")
    return dataset, spectrum


def _where(a):
    """Where a's elements lie: data pointer, shape, strides and dtype."""
    return a.ctypes.data, a.shape, a.strides, a.dtype


def _is_cut(shards, A, m):
    """Whether shards are make_shards' cut of A's rows for m agents: each
    shard's A the very view make_shards takes of its rows, or else equal
    to those rows."""
    if [(sh.row_start, sh.row_stop) for sh in shards] != partition_rows(len(A), m):
        return False
    for sh in shards:
        rows = A[sh.row_start:sh.row_stop]
        if _where(sh.A) != _where(rows) and not np.array_equal(sh.A, rows):
            return False
    return True


def run(config, dataset=None, spectrum=None, on_iteration=None, shards=None):
    """Execute one run (config.seed) and return its RunTrace.

    dataset, spectrum and shards (make_shards of the dataset at config.m)
    may be passed directly to skip recomputing them across repetitions:
    the run binds its own b to the shards, so one cut serves every run on
    the same A and m. Each must be what the config alone would build: a
    dataset that dataset_name(config.dataset) does not name, a spectrum
    whose A is not the dataset's A, or shards cut from other rows are a
    ValueError, so that the trace's config re-runs it.
    on_iteration, when given, is called with (state, row) after every round.
    """
    t_start = time.perf_counter()
    ds, spectrum = _problem(config, dataset, spectrum)
    d = ds.n_cols
    params = resolve_params(config, ds.name, spectrum)
    obs_model, pnoise, noise_meta = resolve_noise(config, ds.name, ds.n_rows, d)

    if obs_model is not None:
        ds, eta_realized = apply_observation_noise(ds, config.m, config.seed, obs_model)
        noise_meta["eta_realized_max"] = max(eta_realized)
    if shards is None:
        shards = make_shards(ds, config.m)
    elif not _is_cut(shards, ds.A, config.m):
        raise ValueError(f"shards must be make_shards of this dataset at m={config.m}")
    shards = [sh.bind(ds.b[sh.row_start:sh.row_stop]) for sh in shards]
    if config.noise == "process":
        pnoise = _RecordingProcessNoise(pnoise, d)

    solver = make_solver(config.method, params)
    steps = rounds(solver, shards, d, pnoise)
    _, state = next(steps)
    x_prev = solver.iterate(state).copy()
    err0 = estimation_error(x_prev, ds.x_star)
    bounds = None
    if config.method == "ipg" and config.noise != "none":
        bounds = bound_columns(config.noise, bound_inputs_from(
            spectrum, m=config.m, d=d, alpha=params["alpha"], delta=params["delta"],
            eta=noise_meta.get("eta", 0.0), omega=noise_meta.get("omega", 0.0), z0=err0))
    row = TraceRow(0, err0, None, *(bounds(0, None) if bounds else NO_BOUNDS))
    rows = [row]
    if on_iteration:
        on_iteration(state, row)

    stopped = "maxiter"
    consecutive = 0
    for t, state in islice(steps, config.max_iters):
        x = solver.iterate(state)
        # a norm past the float range is inf, which the guard reads as it is
        with np.errstate(over="ignore"):
            err = estimation_error(x, ds.x_star)
            delta_step = float(np.linalg.norm(x - x_prev))
            # x alone decides: every reply and internal array feeds it this
            # round and inf/nan survive that arithmetic (see solvers.rounds);
            # a nan norm fails the comparison and an inf norm exceeds it
            diverged = not float(np.linalg.norm(x)) <= DIVERGENCE_NORM

        cols = bounds(t, row.err) if bounds and not diverged else NO_BOUNDS
        row = TraceRow(t, err, delta_step, *cols, diverged)
        rows.append(row)
        if on_iteration:
            on_iteration(state, row)

        if diverged:
            stopped = "diverged"
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
        "diverged_at": rows[-1].t if stopped == "diverged" else None,
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


def run_monte_carlo(config, dataset=None, spectrum=None, shards=None):
    """config.reps independent runs over derived seeds, all on one cut of
    the dataset (shards, as run takes them; made here when not given)."""
    dataset, spectrum = _problem(config, dataset, spectrum)
    if shards is None:
        shards = make_shards(dataset, config.m)
    traces_first = None
    finals = []
    summaries = []
    for r in range(config.reps):
        cfg_r = replace(config, seed=rep_seed(config.seed, r), reps=1)
        trace = run(cfg_r, dataset=dataset, spectrum=spectrum, shards=shards)
        if r == 0:
            traces_first = trace
        finals.append(trace.final_err)
        summaries.append(trace.summary)
    return MonteCarloResult(config=config, first_trace=traces_first,
                            final_errs=np.array(finals), summaries=summaries)


# -- serialization ----------------------------------------------------------

CSV_COLUMNS = ("t", "err", "step_delta", "bound_t1", "u_t", "bound_t2", "diverged")


def _fmt(v):
    """One CSV cell; text has its commas written as ';'."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v.replace(",", ";")
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
        "config": asdict(trace.config),
        "params": {k: (float(v) if isinstance(v, (int, float)) else v)
                   for k, v in trace.params.items()},
        "summary": trace.summary,
        "columns": list(CSV_COLUMNS),
        "rows": [[getattr(r, c) for c in CSV_COLUMNS] for r in trace.rows],
    }


def _map_leaves(obj, leaf):
    """obj with leaf(v) in place of every value v, at any depth, that is
    not a dict, list or tuple."""
    if isinstance(obj, dict):
        return {k: _map_leaves(v, leaf) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_map_leaves(v, leaf) for v in obj]
    return leaf(obj)


def _non_finite_as_text(v):
    # strict JSON has no inf/nan: such floats are written as their repr
    return repr(float(v)) if isinstance(v, float) and not math.isfinite(v) else v


def _text_as_non_finite(v):
    return float(v) if isinstance(v, str) and v in ("inf", "-inf", "nan") else v


def strict_json_text(obj):
    """Indented, key-sorted JSON text of obj, non-finite floats as strings."""
    return json.dumps(_map_leaves(obj, _non_finite_as_text), indent=1, sort_keys=True,
                      allow_nan=False)


def trace_label(trace):
    """The config's label, else <dataset>-<method>-<noise>-s<seed>."""
    return _cell_label(trace.config, trace.summary["dataset"])


def emit(trace, out_dir, basename=None):
    """Write <basename>.csv and <basename>.json under out_dir (basename
    defaults to trace_label); returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    basename = basename or trace_label(trace)
    csv_path = out_dir / f"{basename}.csv"
    json_path = out_dir / f"{basename}.json"
    csv_path.write_text(trace_csv_text(trace))
    json_path.write_text(strict_json_text(trace_json_obj(trace)))
    return csv_path, json_path


def _parse_cell(col, s):
    if col == "diverged":
        return s == "1"
    if s == "":
        return None
    return int(s) if col == "t" else float(s)


def parse_trace(path):
    """Read back an emitted trace. JSON restores config/params/summary,
    non-finite floats included; CSV restores the rows alone."""
    path = Path(path)
    if path.suffix == ".json":
        obj = json.loads(path.read_text())
        rows = [TraceRow(**dict(zip(obj["columns"], vals)))
                for vals in _map_leaves(obj["rows"], _text_as_non_finite)]
        # the dataset name stays text even when its file is called inf.mtx
        summary = {k: v if k == "dataset" else _map_leaves(v, _text_as_non_finite)
                   for k, v in obj["summary"].items()}
        return RunTrace(config=RunConfig.from_dict(obj["config"]),
                        params=_map_leaves(obj["params"], _text_as_non_finite),
                        rows=rows, summary=summary)
    text = path.read_text().splitlines()
    header = text[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected columns {header}")
    rows = [TraceRow(**{c: _parse_cell(c, s) for c, s in zip(CSV_COLUMNS, line.split(","))})
            for line in text[1:]]
    return RunTrace(config=None, params=None, rows=rows, summary=None)


# -- grids ------------------------------------------------------------------


def load_grid_config(path):
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"grid config must be a JSON object, got {type(obj).__name__}")
    defaults = obj.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ValueError(f"grid 'defaults' must be a JSON object, got {type(defaults).__name__}")
    runs = obj.get("runs")
    if not isinstance(runs, list):
        raise ValueError("grid config needs a 'runs' list")
    configs = []
    for i, entry in enumerate(runs):
        try:
            configs.append(RunConfig.from_dict({**defaults, **entry}))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"runs[{i}]: {exc}") from None
    return configs


GRID_COLUMNS = ("label", "dataset", "method", "noise", "seed", "reps",
                "final_err", "final_err_mean", "final_err_std",
                "iterations", "stopped", "diverged_at", "error")


def _cell_label(cfg, dataset=None):
    """A grid cell's label before it runs: its own, else
    <dataset>-<method>-<noise>-s<seed> with the dataset as configured
    unless another name is given."""
    return cfg.label or f"{dataset or cfg.dataset}-{cfg.method}-{cfg.noise}-s{cfg.seed}"


def _trace_basename(cfg):
    """The name a cell's trace files would take (trace_label of its run),
    from its config alone; None when its dataset spec is malformed, so
    that the cell fails and writes none."""
    try:
        return _cell_label(cfg, dataset_name(cfg.dataset))
    except ValueError:
        return None


def _drop_setup(shards, method):
    """Drop method's set-up from every shard of a cut."""
    for sh in shards:
        sh.prep.pop(method, None)


def run_grid(configs, out_dir=None, emit_traces=True):
    """Run every config, isolating per-cell failures. Returns (results,
    summary_rows), one of each per config, the result None for a cell that
    failed (its run or writing its trace); optionally writes traces and a
    grid summary CSV. Raises ValueError, before any cell runs, when two
    cells would write the same trace files.

    A dataset is loaded, and cut for each m, once: its cells share the
    cut and each method's set-up on it (Shard.prep). Each is dropped right
    after the last cell that uses it."""
    if out_dir is not None and emit_traces:
        seen = {}
        for j, label in enumerate(map(_trace_basename, configs)):
            if label is not None and seen.setdefault(label, j) != j:
                raise ValueError(f"runs[{seen[label]}] and runs[{j}] would write the same "
                                 f"trace files ({label!r}); give them distinct labels")
    last = {}  # dataset, (dataset, m), (dataset, m, method) -> its last cell
    for j, cfg in enumerate(configs):
        key = (cfg.dataset, cfg.data_dir)
        last[key] = last[key, cfg.m] = last[key, cfg.m, cfg.method] = j
    results = []
    summary_rows = []
    problems = {}  # dataset -> (Dataset, Spectrum)
    cuts = {}  # (dataset, m) -> shards
    for j, cfg in enumerate(configs):
        row = {c: "" for c in GRID_COLUMNS}
        row.update(label=_cell_label(cfg), dataset=cfg.dataset,
                   method=cfg.method, noise=cfg.noise, seed=cfg.seed, reps=cfg.reps)
        key = (cfg.dataset, cfg.data_dir)
        try:
            if key not in problems:
                problems[key] = _problem(cfg)
            if (key, cfg.m) not in cuts:
                cuts[key, cfg.m] = make_shards(problems[key][0], cfg.m)
            mc = run_monte_carlo(cfg, *problems[key], shards=cuts[key, cfg.m])
            first = mc.first_trace
            row.update(
                label=trace_label(first),
                final_err=first.final_err,
                final_err_mean=mc.mean,
                final_err_std=mc.std,
                iterations=first.summary["iterations"],
                stopped=first.summary["stopped"],
                diverged_at=first.summary["diverged_at"],
            )
            if out_dir is not None and emit_traces:
                emit(first, out_dir)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            row["error"] = f"{type(exc).__name__}: {exc}"
            mc = None
        # one result per cell, None where its row reports an error
        results.append(mc)
        summary_rows.append(row)
        if last[key, cfg.m, cfg.method] == j:
            _drop_setup(cuts.get((key, cfg.m), ()), cfg.method)
        if last[key, cfg.m] == j:
            cuts.pop((key, cfg.m), None)
        if last[key] == j:
            problems.pop(key, None)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = [",".join(GRID_COLUMNS)]
        lines += [",".join(_fmt(row[c]) for c in GRID_COLUMNS) for row in summary_rows]
        (out_dir / "grid_summary.csv").write_text("\n".join(lines) + "\n")
    return results, summary_rows
