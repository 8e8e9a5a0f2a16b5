"""The six solvers for the server/agent least-squares protocol.

Each solver advances one synchronization round at a time through
``network.execute_round``: the server broadcasts, agents reply from
their shards, the server folds the aggregated reply into its state.
Process noise (when configured) corrupts every newly computed iterated
variable, and the freshly corrupted value is what the next computation
and the next broadcast see.

Method summary:

* ipg  - keeps a preconditioner estimate K alongside x; agents return
         both the local gradient and local preconditioner residuals, the
         server refines K by a Richardson step toward (A^T A)^-1 and
         takes the preconditioned gradient step with the refined K.
* gd   - plain aggregated gradient descent.
* nag  - gradient evaluated at the extrapolated point, which is also
         what gets broadcast.
* hbm  - gradient step plus a momentum term on the last displacement.
         gd, nag and hbm are one momentum recursion (MomentumSolver).
* apc  - agents hold local solutions of their own underdetermined
         systems and project toward consensus; the server mixes the
         average with its previous estimate.
* bfgs - server-side quasi-Newton on the aggregated gradient with unit
         step; curvature violations skip the update and are recorded.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .network import execute_round
from .noise import (
    NoProcessNoise,
    STREAM_AGENT_BASE,
    STREAM_K,
    STREAM_M,
    STREAM_X,
    STREAM_XBAR,
)

METHODS = ("ipg", "gd", "nag", "hbm", "apc", "bfgs")


def agent_gradient(shard, x):
    """g_i = A_i^T (A_i x - b_i) from the shard's own rows only."""
    return np.dot(shard.AT, np.dot(shard.A, x) - shard.b)


def agent_r_matrix(shard, K, m):
    """Rows shard.cols of the agent's preconditioner residuals, one column
    per basis vector: R_i = A_i^T A_i K - (1/m) I.

    A_i is zero outside its column span, so the other rows of R_i are just
    -e_j^T / m; the server puts those back (left_out_diagonal). For a full
    span every operand is the same buffer with the same strides as the
    unsliced arrays, so the products round exactly as before.
    """
    c = shard.cols
    R = np.dot(shard.AT[c], np.dot(shard.A[:, c], K[c]))
    # subtract I/m on the block's diagonal without allocating an identity
    R.ravel()[c.start :: R.shape[1] + 1] -= 1.0 / m
    return R


def left_out_diagonal(shards, d):
    """Per row j, (number of shards whose column span misses j) / m: the
    -1/m diagonal entries the agent_r_matrix blocks leave out of their sum.
    All zeros when every span is full."""
    covered = np.zeros(d)
    for sh in shards:
        covered[sh.cols] += 1.0
    return (len(shards) - covered) / len(shards)


def bfgs_update(M, s, y, sy):
    """(I - r s y^T) M (I - r y s^T) + r s s^T with r = 1/sy, expanded
    for a general (not necessarily symmetric) M."""
    r = 1.0 / sy
    My = np.dot(M, y)
    yM = np.dot(y, M)
    yMy = np.dot(yM, y)
    ss = s.reshape(-1, 1) * s.reshape(1, -1)
    sYM = s.reshape(-1, 1) * yM.reshape(1, -1)
    Mys = My.reshape(-1, 1) * s.reshape(1, -1)
    return M - r * (sYM + Mys) + (r * r * yMy + r) * ss


# ---------------------------------------------------------------------------


@dataclass
class IPGState:
    x: np.ndarray
    K: np.ndarray


class IPGSolver:
    """Preconditioned gradient descent with the iteratively refined K.

    freeze_k pins K to its initial value and skips the refinement round;
    with K = I and delta = alpha this reproduces gd exactly, which the
    tests rely on.
    """

    name = "ipg"

    def __init__(self, alpha, delta, freeze_k=False, K0=None):
        self.alpha = float(alpha)
        self.delta = float(delta)
        self.freeze_k = bool(freeze_k)
        self.K0 = K0

    def init_state(self, shards, d, pnoise):
        x = np.zeros(d)
        K = np.zeros((d, d)) if self.K0 is None else np.array(self.K0, dtype=np.float64)
        x = pnoise.corrupt(x, STREAM_X, 0)
        if not self.freeze_k:
            K = pnoise.corrupt(K, STREAM_K, 0)
        return IPGState(x=x, K=K)

    def init_agent_states(self, shards):
        return None

    def step(self, state, shards, agent_states, pnoise, t):
        m = len(shards)
        d = state.x.shape[0]
        alpha, delta, freeze = self.alpha, self.delta, self.freeze_k

        def agent(bc, shard, ast):
            x, K = bc
            g = agent_gradient(shard, x)
            if freeze:
                return (g,), ast
            return (g, agent_r_matrix(shard, K, m)), ast

        def server(agg):
            if freeze:
                (G,) = agg
                K_next = state.K
            else:
                G, R_sum = agg
                # subtracting 0.0 on full spans leaves every bit unchanged
                R_sum.ravel()[:: d + 1] -= left_out_diagonal(shards, d)
                K_next = state.K - alpha * R_sum
                K_next = pnoise.corrupt(K_next, STREAM_K, t + 1)
            x_next = state.x - delta * (K_next @ G)
            x_next = pnoise.corrupt(x_next, STREAM_X, t + 1)
            return IPGState(x=x_next, K=K_next)

        return execute_round((state.x, state.K), shards, agent, server, agent_states)

    def iterate(self, state):
        return state.x

    def internal_arrays(self, state, agent_states):
        return (state.K,)


# ---------------------------------------------------------------------------


@dataclass
class MomentumState:
    x: np.ndarray
    x_prev: np.ndarray


class MomentumSolver:
    """One recursion for gd, hbm and nag:

        x+ = x + beta (x - x_prev) - alpha G(x + beta_n (x - x_prev))

    gd has beta = beta_n = 0, heavy-ball beta_n = 0, Nesterov beta_n =
    beta. The gradient point y = x + beta_n (x - x_prev) is what goes out
    on the wire. step evaluates (y - alpha G) + (beta - beta_n) disp with
    disp = x - x_prev, which is exactly (x - alpha G) + beta disp for hbm
    and y - alpha G for nag; any other grouping moves the last bits of
    every trace.
    """

    def __init__(self, name, alpha, beta=0.0, beta_n=0.0):
        self.name = name
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.beta_n = float(beta_n)

    def init_state(self, shards, d, pnoise):
        x = pnoise.corrupt(np.zeros(d), STREAM_X, 0)
        return MomentumState(x=x, x_prev=x.copy())

    def init_agent_states(self, shards):
        return None

    def step(self, state, shards, agent_states, pnoise, t):
        disp = state.x - state.x_prev
        y = state.x + self.beta_n * disp

        def agent(bc, shard, ast):
            return (agent_gradient(shard, bc[0]),), ast

        def server(agg):
            x_next = y - self.alpha * agg[0] + (self.beta - self.beta_n) * disp
            x_next = pnoise.corrupt(x_next, STREAM_X, t + 1)
            return MomentumState(x=x_next, x_prev=state.x)

        return execute_round((y,), shards, agent, server, agent_states)

    def iterate(self, state):
        return state.x

    def internal_arrays(self, state, agent_states):
        return ()


# ---------------------------------------------------------------------------


@dataclass
class BFGSState:
    x: np.ndarray
    M: np.ndarray
    x_prev: np.ndarray = None
    g_prev: np.ndarray = None
    skipped: list = field(default_factory=list)


class BFGSSolver:
    """Server-side quasi-Newton on the aggregated gradient, unit step.

    The secant pair is the realized displacement of the (possibly
    corrupted) iterate sequence; when s.y <= 0 the update is skipped and
    the round index recorded.
    """

    name = "bfgs"

    def init_state(self, shards, d, pnoise):
        x = pnoise.corrupt(np.zeros(d), STREAM_X, 0)
        M = pnoise.corrupt(np.eye(d), STREAM_M, 0)
        return BFGSState(x=x, M=M)

    def init_agent_states(self, shards):
        return None

    def step(self, state, shards, agent_states, pnoise, t):
        def agent(bc, shard, ast):
            return (agent_gradient(shard, bc[0]),), ast

        def server(agg):
            G = agg[0]
            M = state.M
            skipped = state.skipped
            if state.g_prev is not None:
                s = state.x - state.x_prev
                y = G - state.g_prev
                sy = float(s @ y)
                if sy > 0.0 and np.isfinite(sy):
                    M = bfgs_update(M, s, y, sy)
                else:
                    skipped = skipped + [t]
            M = pnoise.corrupt(M, STREAM_M, t + 1)
            x_next = state.x - M @ G
            x_next = pnoise.corrupt(x_next, STREAM_X, t + 1)
            return BFGSState(x=x_next, M=M, x_prev=state.x, g_prev=G, skipped=skipped)

        return execute_round((state.x,), shards, agent, server, agent_states)

    def iterate(self, state):
        return state.x

    def internal_arrays(self, state, agent_states):
        return (state.M,)


# ---------------------------------------------------------------------------


@dataclass
class APCState:
    xbar: np.ndarray


class APCSolver:
    """Projection-based consensus with an over-relaxed server average.

    Pre-phase: each agent takes the least-norm solution of its own local
    system. Rounds keep every local iterate inside its agent's solution
    set (movement happens in the null space of A_i) while the server
    mixes the fresh average with its previous estimate.
    """

    name = "apc"

    def __init__(self, gamma, eta):
        self.gamma = float(gamma)
        self.eta = float(eta)

    def init_state(self, shards, d, pnoise):
        total = np.zeros(d)
        self._init_agent = []
        for sh in shards:
            pinv = np.linalg.pinv(sh.A)
            P = np.eye(d) - pinv @ sh.A
            x_i = pinv @ sh.b
            x_i = pnoise.corrupt(x_i, STREAM_AGENT_BASE + sh.agent_id, 0)
            self._init_agent.append((x_i, P))
            total += x_i
        xbar = total / len(shards)
        xbar = pnoise.corrupt(xbar, STREAM_XBAR, 0)
        return APCState(xbar=xbar)

    def init_agent_states(self, shards):
        # built during init_state so the pinv work happens once; agents
        # replace their state each round and never mutate it, so handing
        # out the same list again is safe
        return self._init_agent

    def step(self, state, shards, agent_states, pnoise, t):
        m = len(shards)
        gamma, eta = self.gamma, self.eta

        def agent(bc, shard, ast):
            x_i, P = ast
            x_new = x_i + gamma * np.dot(P, bc[0] - x_i)
            x_new = pnoise.corrupt(x_new, STREAM_AGENT_BASE + shard.agent_id, t + 1)
            return (x_new,), (x_new, P)

        def server(agg):
            xhat = agg[0] / m
            xbar_next = eta * xhat + (1.0 - eta) * state.xbar
            return APCState(xbar=pnoise.corrupt(xbar_next, STREAM_XBAR, t + 1))

        return execute_round((state.xbar,), shards, agent, server, agent_states)

    def iterate(self, state):
        return state.xbar

    def internal_arrays(self, state, agent_states):
        return tuple(ast[0] for ast in agent_states)


# ---------------------------------------------------------------------------


def make_solver(method, params):
    """Build a solver from its resolved parameter dict."""
    if method == "ipg":
        return IPGSolver(alpha=params["alpha"], delta=params["delta"])
    if method == "gd":
        return MomentumSolver("gd", params["alpha"])
    if method == "nag":
        return MomentumSolver("nag", params["alpha"], beta=params["beta"],
                              beta_n=params["beta"])
    if method == "hbm":
        return MomentumSolver("hbm", params["alpha"], beta=params["beta"])
    if method == "apc":
        return APCSolver(gamma=params["gamma"], eta=params["eta_apc"])
    if method == "bfgs":
        return BFGSSolver()
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def rounds(solver, shards, d, pnoise):
    """The one round loop: yields (t, state, agent_states, reply_finite)
    for t = 0, 1, 2, ... and computes round t only when item t is asked
    for. t = 0 is the initial state (reply_finite True); the consumer
    decides when to stop.
    """
    state = solver.init_state(shards, d, pnoise)
    agent_states = solver.init_agent_states(shards)
    yield 0, state, agent_states, True
    for t in count():
        state, agent_states, finite = solver.step(state, shards, agent_states, pnoise, t)
        yield t + 1, state, agent_states, finite


def run_rounds(solver, shards, d, n_rounds, pnoise=None, seed=0, collect=None):
    """Drive a solver for a fixed number of rounds; test helper.

    collect(state, t) may record whatever it wants; returns final state.
    seed is accepted and not read: every draw is keyed by the noise
    model's own seed, and callers that replay a run (perfbench's stencil
    workload) still pass that run's seed here.
    """
    for t, state, _, _ in rounds(solver, shards, d, pnoise or NoProcessNoise()):
        if collect:
            collect(state, t)
        if t >= n_rounds:
            return state
