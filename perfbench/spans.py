"""Per-layer tracing of dlsq from outside the package.

The tracer replaces module attributes (functions, and methods on classes)
with wrappers that open a span around each call, then puts the originals
back. Layers are the package's modules: a span is named
``<module>.<what>`` and its self time is its duration minus the time of
the spans it called. Nothing under ``src/`` knows it is being traced.

A name that no longer exists (after a refactor) is not wrapped; every
metric that needs it is reported as unmeasured instead of failing.
"""
from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

import dlsq
import dlsq.noise
import dlsq.runner
import dlsq.solvers

# (owner, attribute path, span name). The runner imports its helpers by
# name, so they are wrapped where the runner looks them up; run() is
# called both from the package namespace and from run_monte_carlo.
PLAIN_SPANS = (
    (dlsq, "run", "runner.run"),
    (dlsq.runner, "run", "runner.run"),
    (dlsq.runner, "emit", "runner.emit"),
    (dlsq.runner, "_RecordingProcessNoise.corrupt", "runner.record_noise"),
    (dlsq.runner, "load_dataset", "datasets.load"),
    (dlsq.runner, "compute_spectrum", "datasets.spectrum"),
    (dlsq.runner, "make_shards", "datasets.shards"),
    (dlsq.runner, "apply_observation_noise", "noise.observation"),
    (dlsq.runner, "estimation_error", "analysis.estimation_error"),
    (dlsq.runner, "observation_step_bound", "analysis.bound"),
    (dlsq.runner, "ProcessBoundAccumulator.update", "analysis.bound"),
    (dlsq.solvers, "agent_gradient", "solvers.agent_gradient"),
)
NOISE_MODELS = ("RoundoffProcessNoise", "UniformProcessNoise")
SOLVER_METHODS = (("init_state", "solvers.init"), ("init_agent_states", "solvers.init"),
                  ("step", "solvers.step"))
EXECUTE_ROUND_PARAMS = ["broadcast", "shards", "agent_fn", "server_fn", "agent_states"]


class Tracer:
    """Accumulates inclusive time, self time and call counts per span name,
    plus named counters (floats moved, flops)."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        # self time of runner.run before its first solver step (set-up)
        self.run_setup_self = 0.0
        self.unmeasured = set()
        self._stack = []
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        now = time.perf_counter()
        if name == "solvers.step" and self._stack:
            parent = self._stack[-1]
            if parent[0] == "runner.run" and parent[3] is None:
                parent[3] = (now - parent[1]) - parent[2]
        self._stack.append([name, now, 0.0, None])

    def exit(self):
        name, start, child, setup_self = self._stack.pop()
        dur = time.perf_counter() - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if name == "runner.run":
            self.run_setup_self += dur - child if setup_self is None else setup_self
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, fn, name, count=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                try:
                    count(args, out)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.unmeasured.add(name)  # the arguments no longer have the counted shape
            return out

        return traced

    # -- installing ------------------------------------------------------------

    def _patch(self, owner, path, make):
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p, None)
        if owner is None or not hasattr(owner, attr):
            return False
        had_own = attr in vars(owner)
        raw = inspect.getattr_static(owner, attr)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._restore.append((owner, attr, had_own, raw))
        return True

    def install(self):
        for owner, path, name in PLAIN_SPANS:
            if not self._patch(owner, path, lambda fn, n=name: self.wrap(fn, n)):
                self.unmeasured.add(name)

        if not self._patch(dlsq.solvers, "agent_r_matrix",
                           lambda fn: self.wrap(fn, "solvers.agent_r_matrix",
                                                self._count_r_matrix)):
            self.unmeasured.add("solvers.agent_r_matrix")

        if not any([self._patch(dlsq.noise, f"{cls}.corrupt",
                                lambda fn: self.wrap(fn, "noise.corrupt", self._count_corrupt))
                    for cls in NOISE_MODELS]):
            self.unmeasured.add("noise.corrupt")

        solver_classes = [obj for n, obj in vars(dlsq.solvers).items()
                          if n.endswith("Solver") and inspect.isclass(obj)]
        for method, name in SOLVER_METHODS:
            if not any([self._patch(cls, method, lambda fn, n=name: self.wrap(fn, n))
                        for cls in solver_classes]):
                self.unmeasured.add(name)

        orig = getattr(dlsq.solvers, "execute_round", None)
        if orig is not None and list(inspect.signature(orig).parameters) == EXECUTE_ROUND_PARAMS:
            self._patch(dlsq.solvers, "execute_round", self._traced_execute_round)
        else:
            self.unmeasured.update(("network.execute_round", "solvers.agent", "solvers.server"))

    def uninstall(self):
        while self._restore:
            owner, attr, had_own, raw = self._restore.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- counters --------------------------------------------------------------

    def _count_r_matrix(self, args, out):
        shard, K = args[0], args[1]
        n_i, d = shard.A.shape
        # A_i K then A_i^T (A_i K): two GEMMs of 2 n_i d k flops each
        self.counts["r_matrix_flops"] += 4.0 * n_i * d * np.shape(K)[1]

    def _count_corrupt(self, args, out):
        self.counts["corrupted_floats"] += np.size(args[1])

    def _traced_execute_round(self, orig):
        def execute_round(broadcast, shards, agent_fn, server_fn, agent_states=None):
            self.counts["floats_down"] += sum(np.size(p) for p in broadcast)
            agent = self.wrap(agent_fn, "solvers.agent", self._count_reply)
            server = self.wrap(server_fn, "solvers.server")
            return self.wrap(orig, "network.execute_round")(
                broadcast, shards, agent, server, agent_states)

        return execute_round

    def _count_reply(self, args, out):
        reply, _ = out
        self.counts["floats_up"] += sum(np.size(p) for p in reply)


def layer_metrics(tr, entry_calls, rep_rounds):
    """Per-layer metrics of traced entry calls as {name: (value, unit)},
    plus the names left unmeasured because a span they need was not wrapped.

    ``_s`` and ``_calls`` values are per entry call; ``_per_round`` values
    are per completed rep-round (rounds summed over reps and cells).
    """
    rounds = max(rep_rounds, 1)
    net_rounds = max(tr.calls["network.execute_round"], 1)
    per_call = lambda x: x / entry_calls  # noqa: E731
    ms_round = lambda secs: 1e3 * secs / rounds  # noqa: E731
    t, st, calls, c = tr.total, tr.self_time, tr.calls, tr.counts
    r_matrix_s = t["solvers.agent_r_matrix"]
    table = (
        ("datasets.load_s", "s", ("datasets.load",), lambda: per_call(t["datasets.load"])),
        ("datasets.spectrum_s", "s", ("datasets.spectrum",),
         lambda: per_call(t["datasets.spectrum"])),
        ("datasets.shards_s", "s", ("datasets.shards",), lambda: per_call(t["datasets.shards"])),
        ("noise.observation_s", "s", ("noise.observation",),
         lambda: per_call(t["noise.observation"])),
        ("noise.corrupt_ms_per_round", "ms", ("noise.corrupt",),
         lambda: ms_round(t["noise.corrupt"])),
        ("noise.corrupt_calls", "count", ("noise.corrupt",),
         lambda: per_call(calls["noise.corrupt"])),
        ("noise.corrupted_floats_per_round", "floats", ("noise.corrupt",),
         lambda: c["corrupted_floats"] / rounds),
        ("solvers.init_s", "s", ("solvers.init",), lambda: per_call(t["solvers.init"])),
        ("solvers.agent_r_matrix_ms_per_round", "ms", ("solvers.agent_r_matrix",),
         lambda: ms_round(r_matrix_s)),
        ("solvers.agent_r_matrix_calls", "count", ("solvers.agent_r_matrix",),
         lambda: per_call(calls["solvers.agent_r_matrix"])),
        ("solvers.agent_r_matrix_calls_per_rep_round", "count", ("solvers.agent_r_matrix",),
         lambda: calls["solvers.agent_r_matrix"] / rounds),
        ("solvers.agent_r_matrix_gflop_per_round", "GFLOP", ("solvers.agent_r_matrix",),
         lambda: c["r_matrix_flops"] / 1e9 / rounds),
        ("solvers.agent_r_matrix_gflops", "GFLOP/s", ("solvers.agent_r_matrix",),
         lambda: c["r_matrix_flops"] / 1e9 / r_matrix_s if r_matrix_s else 0.0),
        ("solvers.agent_gradient_ms_per_round", "ms", ("solvers.agent_gradient",),
         lambda: ms_round(t["solvers.agent_gradient"])),
        ("solvers.agent_gradient_calls", "count", ("solvers.agent_gradient",),
         lambda: per_call(calls["solvers.agent_gradient"])),
        ("solvers.agent_self_ms_per_round", "ms", ("solvers.agent",),
         lambda: ms_round(st["solvers.agent"])),
        # the server closure plus the rest of step() outside execute_round
        ("solvers.server_self_ms_per_round", "ms", ("solvers.server", "solvers.step"),
         lambda: ms_round(st["solvers.server"] + st["solvers.step"])),
        ("network.execute_round_self_ms_per_round", "ms", ("network.execute_round",),
         lambda: ms_round(st["network.execute_round"])),
        ("network.rounds", "count", ("network.execute_round",),
         lambda: per_call(calls["network.execute_round"])),
        ("network.floats_down_per_round", "floats", ("network.execute_round",),
         lambda: c["floats_down"] / net_rounds),
        ("network.floats_up_per_round", "floats", ("network.execute_round",),
         lambda: c["floats_up"] / net_rounds),
        ("analysis.bound_ms_per_round", "ms", ("analysis.bound",),
         lambda: ms_round(t["analysis.bound"])),
        ("analysis.estimation_error_ms_per_round", "ms", ("analysis.estimation_error",),
         lambda: ms_round(t["analysis.estimation_error"])),
        # run() self time after its first step: norms, finiteness scans, rows
        ("runner.loop_self_ms_per_round", "ms", ("runner.run", "solvers.step"),
         lambda: ms_round(st["runner.run"] - tr.run_setup_self)),
        ("runner.record_noise_ms_per_round", "ms", ("runner.record_noise",),
         lambda: ms_round(st["runner.record_noise"])),
        ("runner.emit_ms_per_cell", "ms", ("runner.emit",),
         lambda: 1e3 * t["runner.emit"] / max(calls["runner.emit"], 1)),
    )
    metrics, unmeasured = {}, []
    for name, unit, needs, value in table:
        if tr.unmeasured.intersection(needs):
            unmeasured.append(name)
        else:
            metrics[name] = (value(), unit)
    return metrics, unmeasured
