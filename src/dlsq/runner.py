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

# Per-dataset process-noise conventions: the high end of a one-sided
# uniform range for apc/bfgs (round-off would be a no-op relative to their
# much smaller step granularity); every other pair is round-off.
DEFAULT_PROCESS = {
    ("ash608", "apc"): 5e-5,
    ("ash608", "bfgs"): 9e-5,
    ("gr_30_30", "apc"): 5e-5,
    ("gr_30_30", "bfgs"): 2e-6,
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
        # eta: the expected per-agent l1 noise magnitude at the largest shard
        largest = max(stop - start for start, stop in partition_rows(n_rows, config.m))
        meta.update(half_width=float(a), eta=model.expected_l1(largest))
        return model, NoProcessNoise(), meta

    kind = config.process_kind
    level = config.noise_level
    if kind is None:
        high = DEFAULT_PROCESS.get((dataset_name, config.method))
        kind = "roundoff" if high is None else "uniform"
        level = high if level is None else level
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


def _problem(config, dataset=None):
    """(Dataset, Spectrum) of a config's dataset: the one given, which the
    config must name, else loaded; its spectrum is kept in its prep."""
    if dataset is None:
        dataset = load_dataset(config.dataset, config.data_dir)
    elif dataset.name != dataset_name(config.dataset):
        raise ValueError(f"dataset is {dataset.name!r}, but the config names "
                         f"{dataset_name(config.dataset)!r}")
    if "spectrum" not in dataset.prep:
        dataset.prep["spectrum"] = compute_spectrum(dataset.A)
    return dataset, dataset.prep["spectrum"]


def _cut(dataset, m):
    """make_shards(dataset, m), kept in the dataset's prep from its first use."""
    if ("cut", m) not in dataset.prep:
        dataset.prep["cut", m] = make_shards(dataset, m)
    return dataset.prep["cut", m]


def run(config, dataset=None, on_iteration=None):
    """Execute one run (config.seed) and return its RunTrace.

    dataset may be passed to skip rebuilding it across runs: a Dataset's
    spectrum and its cut for config.m are made on its first run and kept
    in its prep, and every run on it is handed that cut as it is (views of
    the clean b; observation noise binds copies), so one cut, and each
    method's set-up on it, serves every run on the same Dataset and m. A
    dataset that dataset_name(config.dataset) does not name is a
    ValueError, so that the trace's config re-runs it.
    on_iteration, when given, is called with (state, row) after every round.
    """
    t_start = time.perf_counter()
    ds, spectrum = _problem(config, dataset)
    d = ds.n_cols
    params = resolve_params(config, ds.name, spectrum)
    obs_model, pnoise, noise_meta = resolve_noise(config, ds.name, ds.n_rows, d)

    shards = _cut(ds, config.m)
    if obs_model is not None:
        shards, eta_realized = apply_observation_noise(shards, config.seed, obs_model)
        noise_meta["eta_realized_max"] = max(eta_realized)
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


def run_monte_carlo(config, dataset=None):
    """config.reps independent runs over derived seeds, all on one dataset
    (as run takes it; loaded here when not given) and so on its one cut."""
    dataset, _ = _problem(config, dataset)
    traces_first = None
    finals = []
    summaries = []
    for r in range(config.reps):
        cfg_r = replace(config, seed=rep_seed(config.seed, r), reps=1)
        trace = run(cfg_r, dataset=dataset)
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


def trace_label(config):
    """The stem of a config's trace files: its label, else
    <dataset_name(dataset)>-<method>-<noise>-s<seed>, the dataset named as
    its run's Dataset is. A spec dataset_name rejects is a ValueError."""
    name = dataset_name(config.dataset)
    return config.label or f"{name}-{config.method}-{config.noise}-s{config.seed}"


def emit(trace, out_dir):
    """Write <label>.csv and <label>.json under out_dir, the label
    trace_label of the trace's config; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    label = trace_label(trace.config)
    csv_path = out_dir / f"{label}.csv"
    json_path = out_dir / f"{label}.json"
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
                "iterations", "stopped", "diverged_at", "diverged_reps", "error")


def _drop_setup(shards, method):
    """Drop method's set-up from every shard of a cut."""
    for sh in shards:
        sh.prep.pop(method, None)


def run_grid(configs, out_dir=None, emit_traces=True):
    """Run every config, isolating per-cell failures. Returns (results,
    summary_rows), one of each per config, the result None for a cell that
    failed (its run or writing its trace); optionally writes traces and a
    grid summary CSV. Raises ValueError, before any cell runs, when two
    cells would write the same trace files. A row is labelled before its
    cell runs, by trace_label; a spec dataset_name rejects is left out of
    that check, and its row, whose cell fails, keeps the spec as written.

    A dataset is loaded, and cut for each m, once: its cells share its
    spectrum and its cuts (Dataset.prep) and each method's set-up on a cut
    (Shard.prep). Each is dropped right after the last cell that uses it.
    A row's stopped and diverged_at are rep 0's; diverged_reps counts the
    reps that diverged."""
    labels = []  # trace_label of each cell, None where its spec is malformed
    last = {}  # dataset, (dataset, m), (dataset, m, method) -> its last cell
    for j, cfg in enumerate(configs):
        key = (cfg.dataset, cfg.data_dir)
        last[key] = last[key, cfg.m] = last[key, cfg.m, cfg.method] = j
        try:
            labels.append(trace_label(cfg))
        except ValueError:
            labels.append(None)
    if out_dir is not None and emit_traces:
        seen = {}
        for j, label in enumerate(labels):
            if label is not None and seen.setdefault(label, j) != j:
                raise ValueError(f"runs[{seen[label]}] and runs[{j}] would write the same "
                                 f"trace files ({label!r}); give them distinct labels")
    results = []
    summary_rows = []
    problems = {}  # dataset -> Dataset
    for j, cfg in enumerate(configs):
        row = {c: "" for c in GRID_COLUMNS}
        row.update(label=labels[j] or cfg.label
                   or f"{cfg.dataset}-{cfg.method}-{cfg.noise}-s{cfg.seed}",
                   dataset=cfg.dataset, method=cfg.method, noise=cfg.noise, seed=cfg.seed,
                   reps=cfg.reps)
        key = (cfg.dataset, cfg.data_dir)
        try:
            if key not in problems:
                problems[key], _ = _problem(cfg)
            mc = run_monte_carlo(cfg, problems[key])
            first = mc.first_trace
            row.update(
                final_err=first.final_err,
                final_err_mean=mc.mean,
                final_err_std=mc.std,
                iterations=first.summary["iterations"],
                stopped=first.summary["stopped"],
                diverged_at=first.summary["diverged_at"],
                diverged_reps=sum(s["diverged"] for s in mc.summaries),
            )
            if out_dir is not None and emit_traces:
                emit(first, out_dir)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            row["error"] = f"{type(exc).__name__}: {exc}"
            mc = None
        # one result per cell, None where its row reports an error
        results.append(mc)
        summary_rows.append(row)
        prep = problems[key].prep if key in problems else {}
        if last[key, cfg.m, cfg.method] == j:
            _drop_setup(prep.get(("cut", cfg.m), ()), cfg.method)
        if last[key, cfg.m] == j:
            prep.pop(("cut", cfg.m), None)
        if last[key] == j:
            problems.pop(key, None)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = [",".join(GRID_COLUMNS)]
        lines += [",".join(_fmt(row[c]) for c in GRID_COLUMNS) for row in summary_rows]
        (out_dir / "grid_summary.csv").write_text("\n".join(lines) + "\n")
    return results, summary_rows
