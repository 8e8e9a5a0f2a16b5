"""The six solvers for the server/agent least-squares protocol.

Each solver advances one synchronization round at a time through
``network.execute_round``: the server broadcasts, agents reply from
their shards, the server folds the aggregated reply into its state.
Process noise (when configured) corrupts every newly computed iterated
variable, and the freshly corrupted value is what the next computation
and the next broadcast see. The runner's divergence guard reads the
iterate alone; ``rounds`` says why no other array needs a check.

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

from .network import execute_round, in_row_blocks
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
    """Rows shard.cols of g_i = A_i^T (A_i x - b_i), from the shard's own
    rows only. A_i is zero outside its column span, so the other rows of
    g_i are zero; execute_round adds the reply at rows cols."""
    return np.dot(shard.AT, np.dot(shard.A, x) - shard.b)


def agent_r_matrix(shard, K, m, gram=None):
    """Rows shard.cols of the agent's preconditioner residuals, one column
    per basis vector: R_i = A_i^T A_i K - (1/m) I.

    A_i is zero outside its column span, so the other rows of R_i are just
    -e_j^T / m; the server puts those back (left_out_diagonal). Without
    gram the block is A_i^T (A_i K) from the span's transpose shard.AT; for
    a full span every operand then has the same shape and strides as the
    unsliced arrays, so the products round exactly as before. With the
    agent's local Gram block (local_gram) it is gram K[cols], the same sum
    in another order.

    Either product is taken over K[cols]'s column window (nonzero_columns)
    alone, written into the window of a fresh block whose other columns are
    +0. A dense K's window is every column, and its products keep their
    bits. A narrower window changes how BLAS splits the product, so the
    window's columns may move by last-bit round-off: within 1e-12 max|R|,
    which tests/test_solvers.py checks on both routes.
    """
    c = shard.cols
    Kc = K[c]
    lo, hi = nonzero_columns(Kc)
    R = np.zeros(Kc.shape)
    W = Kc[:, lo:hi]
    if gram is None:
        np.matmul(shard.AT, np.matmul(shard.A[:, c], W), out=R[:, lo:hi])
    else:
        np.matmul(gram, W, out=R[:, lo:hi])
    # subtract I/m on the block's diagonal without allocating an identity
    R.ravel()[c.start :: R.shape[1] + 1] -= 1.0 / m
    return R


def nonzero_columns(B):
    """(lo, hi): the narrowest column window of B that holds every entry
    != 0 (nan included), (0, 0) when there is none. When both corner
    entries are nonzero the window is every column, read without a scan."""
    width = B.shape[1]
    if len(B) and B[0, 0] != 0 and B[-1, -1] != 0:
        return 0, width
    nz = (B != 0).any(axis=0)
    lo = int(nz.argmax())
    if not nz[lo]:
        return 0, 0
    return lo, width - int(nz[::-1].argmax())


def gradient_agent(bc, shard, ast):
    """The gd/nag/hbm and bfgs agent: its gradient at the broadcast point."""
    return (agent_gradient(shard, bc[0]),), ast


def local_gram(shard):
    """(A_i^T A_i)[cols, cols] where multiplying K by it is cheaper, else None.

    For a span of s columns and n_i rows, A_i^T (A_i K[cols]) costs
    4 n_i s d flops a round and gram K[cols] costs 2 s^2 d, so the block
    is formed, once, exactly when s < 2 n_i.
    """
    c = shard.cols
    if c.stop - c.start >= 2 * shard.n_rows:
        return None
    return np.dot(shard.AT, shard.A[:, c])


def apc_projection(shard):
    """(pinv(A_i), P_i = I - pinv(A_i) A_i): apc's map from b_i to the
    agent's least-norm solution and its projector onto the null space of
    A_i. P is built in its own buffer; 0.0 - v, then + 1.0 on the diagonal,
    gives the bits of np.eye(d) - v."""
    pinv = np.linalg.pinv(shard.A)
    P = pinv @ shard.A
    np.subtract(0.0, P, out=P)
    P.ravel()[:: P.shape[1] + 1] += 1.0
    return pinv, P


def prepared(shard, method, build):
    """shard.prep[method], made by build(shard) on the first call: set-up
    that depends on the shard's A and cols alone is built once per cut."""
    if method not in shard.prep:
        shard.prep[method] = build(shard)
    return shard.prep[method]


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
    for a general (not necessarily symmetric) M, in a fresh array.

    Evaluated as M - r (s yM^T + My s^T) + (r^2 yMy + r) s s^T with every
    elementwise operation in that order, in two d x d buffers: the same
    bits as forming each outer product in an array of its own."""
    r = 1.0 / sy
    My = np.dot(M, y)
    yM = np.dot(y, M)
    yMy = np.dot(yM, y)
    col_s = s.reshape(-1, 1)
    out = np.multiply(col_s, yM.reshape(1, -1))
    work = np.multiply(My.reshape(-1, 1), s.reshape(1, -1))
    out += work
    out *= r
    np.subtract(M, out, out=out)
    np.multiply(col_s, s.reshape(1, -1), out=work)
    work *= r * r * yMy + r
    out += work
    return out


# ---------------------------------------------------------------------------


@dataclass
class IPGState:
    x: np.ndarray
    K: np.ndarray
    # the -1/m diagonal entries the agents' replies leave out
    # (left_out_diagonal); the spans are fixed for the run, so this is too
    left_out: np.ndarray


class IPGSolver:
    """Preconditioned gradient descent with the iteratively refined K,
    started from x = 0 and K = 0 before round 0's process noise."""

    def __init__(self, alpha, delta):
        self.alpha = float(alpha)
        self.delta = float(delta)

    def init_state(self, shards, d, pnoise):
        x = np.zeros(d)
        K = np.zeros((d, d))
        pnoise.corrupt(x, STREAM_X, 0)
        pnoise.corrupt(K, STREAM_K, 0)
        return IPGState(x=x, K=K, left_out=left_out_diagonal(shards, d))

    def init_agent_states(self, shards):
        # each agent's local Gram block, or None where its two products
        # are cheaper; agents hand it back unchanged every round
        return [prepared(sh, "ipg", local_gram) for sh in shards]

    def step(self, state, shards, agent_states, pnoise, t):
        m = len(shards)
        d = state.x.shape[0]
        alpha, delta = self.alpha, self.delta

        def agent(bc, shard, gram):
            x, K = bc
            return (agent_gradient(shard, x), agent_r_matrix(shard, K, m, gram)), gram

        def server(agg):
            G, R_sum = agg
            # subtracting 0.0 on full spans leaves every bit unchanged
            R_sum.ravel()[:: d + 1] -= state.left_out

            # K - alpha R_sum in the aggregate's own fresh buffer, which the
            # round owns and corrupts: negation is exact, so
            # K + (-(alpha R_sum)) has the same bits
            def refine(lo, hi):
                R = R_sum[lo:hi]
                R *= -alpha
                R += state.K[lo:hi]

            in_row_blocks(refine, R_sum.shape)
            pnoise.corrupt(R_sum, STREAM_K, t + 1)
            x_next = state.x - delta * (R_sum @ G)
            pnoise.corrupt(x_next, STREAM_X, t + 1)
            return IPGState(x=x_next, K=R_sum, left_out=state.left_out)

        return execute_round((state.x, state.K), shards, agent, server, agent_states)

    def iterate(self, state):
        return state.x


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

    def __init__(self, alpha, beta=0.0, beta_n=0.0):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.beta_n = float(beta_n)

    def init_state(self, shards, d, pnoise):
        x = np.zeros(d)
        pnoise.corrupt(x, STREAM_X, 0)
        return MomentumState(x=x, x_prev=x.copy())

    def init_agent_states(self, shards):
        return None

    def step(self, state, shards, agent_states, pnoise, t):
        disp = state.x - state.x_prev
        y = state.x + self.beta_n * disp

        def server(agg):
            x_next = y - self.alpha * agg[0] + (self.beta - self.beta_n) * disp
            pnoise.corrupt(x_next, STREAM_X, t + 1)
            return MomentumState(x=x_next, x_prev=state.x)

        return execute_round((y,), shards, gradient_agent, server, agent_states)

    def iterate(self, state):
        return state.x


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

    def init_state(self, shards, d, pnoise):
        x, M = np.zeros(d), np.eye(d)
        pnoise.corrupt(x, STREAM_X, 0)
        pnoise.corrupt(M, STREAM_M, 0)
        return BFGSState(x=x, M=M)

    def init_agent_states(self, shards):
        return None

    def step(self, state, shards, agent_states, pnoise, t):
        def server(agg):
            G = agg[0]
            M = None
            skipped = state.skipped
            if state.g_prev is not None:
                s = state.x - state.x_prev
                y = G - state.g_prev
                sy = float(s @ y)
                if sy > 0.0 and np.isfinite(sy):
                    M = bfgs_update(state.M, s, y, sy)
                else:
                    skipped = skipped + [t]
            # corrupt overwrites M, and the last state still holds state.M
            M = state.M.copy() if M is None else M
            pnoise.corrupt(M, STREAM_M, t + 1)
            x_next = state.x - M @ G
            pnoise.corrupt(x_next, STREAM_X, t + 1)
            return BFGSState(x=x_next, M=M, x_prev=state.x, g_prev=G, skipped=skipped)

        return execute_round((state.x,), shards, gradient_agent, server, agent_states)

    def iterate(self, state):
        return state.x


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

    def __init__(self, gamma, eta):
        self.gamma = float(gamma)
        self.eta = float(eta)

    def init_state(self, shards, d, pnoise):
        total = np.zeros(d)
        self._init_agent = []
        for sh in shards:
            pinv, P = prepared(sh, "apc", apc_projection)
            x_i = pinv @ sh.b
            pnoise.corrupt(x_i, STREAM_AGENT_BASE + sh.agent_id, 0)
            self._init_agent.append((x_i, P))
            total += x_i
        xbar = total / len(shards)
        pnoise.corrupt(xbar, STREAM_XBAR, 0)
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
            pnoise.corrupt(x_new, STREAM_AGENT_BASE + shard.agent_id, t + 1)
            return (x_new,), (x_new, P)

        def server(agg):
            xhat = agg[0] / m
            xbar_next = eta * xhat + (1.0 - eta) * state.xbar
            pnoise.corrupt(xbar_next, STREAM_XBAR, t + 1)
            return APCState(xbar=xbar_next)

        return execute_round((state.xbar,), shards, agent, server, agent_states)

    def iterate(self, state):
        return state.xbar


# ---------------------------------------------------------------------------


def make_solver(method, params):
    """Build a solver from its resolved parameter dict."""
    if method == "ipg":
        return IPGSolver(alpha=params["alpha"], delta=params["delta"])
    if method == "gd":
        return MomentumSolver(params["alpha"])
    if method == "nag":
        return MomentumSolver(params["alpha"], beta=params["beta"], beta_n=params["beta"])
    if method == "hbm":
        return MomentumSolver(params["alpha"], beta=params["beta"])
    if method == "apc":
        return APCSolver(gamma=params["gamma"], eta=params["eta_apc"])
    if method == "bfgs":
        return BFGSSolver()
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def rounds(solver, shards, d, pnoise):
    """The one round loop: yields (t, state) for t = 0, 1, 2, ... and
    computes round t only when item t is asked for. t = 0 is the initial
    state; the consumer decides when to stop.

    The iterate alone shows divergence: every reply and internal array
    reaches it in the round it is formed (ipg x+ = x - delta K+ G with
    K+ = K - alpha R; gd/nag/hbm x+ from G; bfgs x+ = x - M+ G; apc x-bar+
    from the agents' iterates), and inf/nan survive +, * and matmul
    (0 * inf = nan), round-off and uniform corruption.
    """
    state = solver.init_state(shards, d, pnoise)
    agent_states = solver.init_agent_states(shards)
    yield 0, state
    for t in count():
        state, agent_states = solver.step(state, shards, agent_states, pnoise, t)
        yield t + 1, state


def run_rounds(solver, shards, d, n_rounds, pnoise=None, seed=0, collect=None):
    """Drive a solver for a fixed number of rounds; test helper.

    collect(state, t) may record whatever it wants; returns final state.
    seed is accepted and not read: every draw is keyed by the noise
    model's own seed, and callers that replay a run (perfbench's stencil
    workload) still pass that run's seed here.
    """
    for t, state in rounds(solver, shards, d, pnoise or NoProcessNoise()):
        if collect:
            collect(state, t)
        if t >= n_rounds:
            return state
