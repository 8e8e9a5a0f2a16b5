"""Solver update rules against hand and brute-force oracles."""
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlsq.analysis import estimation_error
from dlsq.datasets import (Dataset, Shard, compute_spectrum, load_dataset, make_shards,
                           synthesize_problem)
from dlsq.network import execute_round
from dlsq.noise import (
    NoProcessNoise,
    ObservationNoise,
    RoundoffProcessNoise,
    STREAM_K,
    UniformProcessNoise,
    apply_observation_noise,
)
from dlsq.runner import RunConfig, resolve_params, run
from dlsq.solvers import (
    BFGSSolver,
    BFGSState,
    IPGSolver,
    METHODS,
    agent_gradient,
    agent_r_matrix,
    bfgs_update,
    left_out_diagonal,
    local_gram,
    make_solver,
    nonzero_columns,
    rounds,
    run_rounds,
)
from oracles import IPGFrom, k_star


def diag_problem():
    A = np.diag([2.0, 1.0])
    x_star = np.ones(2)
    return Dataset(name="diag21", A=A, x_star=x_star, b=A @ x_star)


def trajectory(method_params, ds, m, n_rounds, pnoise=None, seed=0):
    method, params = method_params
    solver = make_solver(method, params)
    shards = make_shards(ds, m)
    xs = []
    run_rounds(solver, shards, ds.n_cols, n_rounds, pnoise=pnoise, seed=seed,
               collect=lambda state, t: xs.append(solver.iterate(state).copy()))
    return np.array(xs)


# -- agent computations -------------------------------------------------------


def test_gradient_vanishes_at_solution(small_problem):
    for sh in make_shards(small_problem, 5):
        g = agent_gradient(sh, small_problem.x_star)
        np.testing.assert_allclose(g, 0.0, atol=1e-10)


def test_gradient_hand_example():
    # the reply holds rows cols of A_i^T (A_i x - b_i): column 1 is all zero
    sh = make_shards(Dataset(name="t", A=np.array([[1.0, 0.0]]),
                             x_star=np.array([2.0, 0.0]),
                             b=np.array([2.0])), 1)[0]
    assert sh.cols == slice(0, 1)
    np.testing.assert_array_equal(agent_gradient(sh, np.zeros(2)), [-2.0])


def test_gradient_matches_finite_differences(rng):
    A = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    ds = Dataset(name="fd", A=A, x_star=np.zeros(3), b=b)
    sh = make_shards(ds, 1)[0]
    x = rng.standard_normal(3)
    g = agent_gradient(sh, x)

    def f(v):
        r = A @ v - b
        return 0.5 * float(r @ r)

    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (f(x + e) - f(x - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_r_matrix_at_zero_preconditioner(small_problem):
    m = 5
    shards = make_shards(small_problem, m)
    d = small_problem.n_cols
    R = agent_r_matrix(shards[0], np.zeros((d, d)), m)
    np.testing.assert_allclose(R, -np.eye(d) / m, atol=1e-15)


def test_r_matrix_sums_vanish_at_k_star(small_problem):
    m = 5
    shards = make_shards(small_problem, m)
    K_star = k_star(small_problem.A)
    total = sum(agent_r_matrix(sh, K_star, m) for sh in shards)
    assert np.abs(total).max() <= 1e-10


def test_r_matrix_sums_match_dense_product(small_problem, rng):
    m = 4
    d = small_problem.n_cols
    K = rng.standard_normal((d, d))
    shards = make_shards(small_problem, m)
    total = sum(agent_r_matrix(sh, K, m) for sh in shards)
    direct = small_problem.A.T @ (small_problem.A @ K) - np.eye(d)
    assert np.linalg.norm(total - direct) <= 1e-10 * max(1.0, np.linalg.norm(direct))


# -- column-span compression --------------------------------------------------


def dense_r_matrix(shard, K, m):
    return shard.A.T @ (shard.A @ K) - np.eye(K.shape[0]) / m


def test_r_matrix_block_is_the_span_rows_of_the_dense_residual(rng):
    ds = load_dataset("stencil:10,10")
    d, m = ds.n_cols, 10
    K = rng.standard_normal((d, d))
    for sh in make_shards(ds, m):
        dense = dense_r_matrix(sh, K, m)
        block = agent_r_matrix(sh, K, m)
        assert sh.cols.stop - sh.cols.start < d
        assert block.shape == (sh.cols.stop - sh.cols.start, d)
        np.testing.assert_allclose(block, dense[sh.cols], rtol=0,
                                   atol=1e-12 * np.abs(dense).max())
        # rows the shard cannot touch are exactly -e_j^T / m
        off = np.ones(d, dtype=bool)
        off[sh.cols] = False
        assert np.array_equal(dense[off], -np.eye(d)[off] / m)


def gram_block(shard):
    """(A_i^T A_i)[cols, cols], from the shard's dense rows."""
    A_s = shard.A[:, shard.cols]
    return A_s.T @ A_s


def summed_residuals(shards, K, d, grams=None):
    """Server view of one ipg round: placed blocks plus the left-out diagonal.
    grams aligns with shards (None: every agent takes the two products)."""
    m = len(shards)
    R, _ = execute_round((K,), shards,
                            lambda bc, sh, gram: ((agent_r_matrix(sh, bc[0], m, gram),), gram),
                            lambda agg: agg[0], grams)
    R.ravel()[:: d + 1] -= left_out_diagonal(shards, d)
    return R


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(2, 24), rows_per_col=st.integers(1, 3), band=st.integers(0, 23),
       m_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_compressed_residual_sum_equals_dense_sum(d, rows_per_col, band, m_frac, seed):
    rng = np.random.default_rng(seed)
    n = rows_per_col * d
    # row i is nonzero on the columns within `band` of its scaled diagonal
    rows, cols = np.indices((n, d))
    A = np.where(np.abs(rows // rows_per_col - cols) <= band, rng.standard_normal((n, d)), 0.0)
    ds = Dataset(name="banded", A=A, x_star=np.ones(d), b=A @ np.ones(d))
    m = 1 + int(m_frac * (n - 1))
    shards = make_shards(ds, m)
    K = rng.standard_normal((d, d))
    dense = sum(dense_r_matrix(sh, K, m) for sh in shards)
    shuffled = list(shards)
    rng.shuffle(shuffled)
    # the two-product route and the Gram route for every agent
    for grams in (None, [gram_block(sh) for sh in shards]):
        R = summed_residuals(shards, K, d, grams)
        np.testing.assert_allclose(R, dense, rtol=0, atol=1e-12 * max(1.0, np.abs(dense).max()))
        shuffled_grams = None if grams is None else [gram_block(sh) for sh in shuffled]
        assert np.array_equal(summed_residuals(shuffled, K, d, shuffled_grams), R)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(2, 24), rows_per_col=st.integers(1, 3), band=st.integers(0, 23),
       density=st.floats(0.1, 1.0), m_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_gram_route_on_random_sparse_bands(d, rows_per_col, band, density, m_frac, seed):
    rng = np.random.default_rng(seed)
    n = rows_per_col * d
    # a random subset of the band around each row's scaled diagonal
    rows, cols = np.indices((n, d))
    keep = (np.abs(rows // rows_per_col - cols) <= band) & (rng.random((n, d)) < density)
    A = np.where(keep, rng.standard_normal((n, d)), 0.0)
    ds = Dataset(name="sparse-band", A=A, x_star=np.ones(d), b=A @ np.ones(d))
    m = 1 + int(m_frac * (n - 1))
    K = rng.standard_normal((d, d))
    for sh in make_shards(ds, m):
        gram = local_gram(sh)
        assert (gram is None) == (sh.cols.stop - sh.cols.start >= 2 * sh.n_rows)
        if gram is not None:
            two = agent_r_matrix(sh, K, m)
            np.testing.assert_allclose(agent_r_matrix(sh, K, m, gram), two, rtol=0,
                                       atol=1e-12 * np.abs(two).max(initial=0.0))


# -- column window of K ---------------------------------------------------------


def parent_r_matrix(shard, K, m, gram=None):
    """R_i from the full-width products np.dot(gram, K[cols]) or
    np.dot(AT, np.dot(A[:, cols], K[cols])), with no window."""
    c = shard.cols
    if gram is None:
        R = np.dot(shard.AT, np.dot(shard.A[:, c], K[c]))
    else:
        R = np.dot(gram, K[c])
    R.ravel()[c.start :: R.shape[1] + 1] -= 1.0 / m
    return R


def only_diagonal(shard, d, m):
    """The block of zeros with -1/m on the span's diagonal."""
    c = shard.cols
    E = np.zeros((c.stop - c.start, d))
    E.ravel()[c.start :: d + 1] -= 1.0 / m
    return E


def span_shard(d, n, lo, hi, rng):
    """One agent's n rows, random on columns lo:hi and zero elsewhere."""
    A = np.zeros((n, d))
    A[:, lo:hi] = rng.standard_normal((n, hi - lo))
    return Shard(agent_id=0, row_start=0, row_stop=n, A=A, b=np.zeros(n), cols=slice(lo, hi))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(d=st.integers(1, 60), n=st.integers(1, 40),
       span=st.sampled_from(["empty", "narrow", "full"]), blocks=st.integers(0, 4),
       m=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_windowed_residual_matches_the_full_product(d, n, span, blocks, m, seed):
    rng = np.random.default_rng(seed)
    lo, hi = {"empty": (0, 0), "full": (0, d)}.get(span, sorted(rng.integers(0, d + 1, 2)))
    sh = span_shard(d, n, lo, hi, rng)
    # K with random column blocks zeroed, the edges included at random
    K = rng.standard_normal((d, d))
    for _ in range(blocks):
        a, b = sorted(rng.integers(0, d + 1, 2))
        K[:, a:b] = 0.0
    nz = np.flatnonzero((K[sh.cols] != 0).any(axis=0))
    w_lo, w_hi = (nz[0], nz[-1] + 1) if len(nz) else (0, 0)
    outside = np.ones(d, dtype=bool)
    outside[w_lo:w_hi] = False
    for gram in (None, gram_block(sh)):
        R = agent_r_matrix(sh, K, m, gram)
        want = parent_r_matrix(sh, K, m, gram)
        np.testing.assert_allclose(R, want, rtol=0, atol=1e-12 * np.abs(want).max(initial=0.0))
        # outside the window: +0, not -0, except the -1/m diagonal
        assert R[:, outside].tobytes() == only_diagonal(sh, d, m)[:, outside].tobytes()


@pytest.mark.parametrize("nonzero, window", [
    ([], (0, 0)),
    ([(0, 0), (3, 6)], (0, 7)),  # both corners: every column, no scan
    ([(0, 0), (3, 5)], (0, 6)),
    ([(3, 6), (1, 2)], (2, 7)),
    ([(2, 4)], (4, 5)),
])
@pytest.mark.parametrize("value", [1.0, -0.5, np.nan, np.inf])
def test_nonzero_columns_is_the_first_through_the_last_nonzero_column(nonzero, window, value):
    B = np.zeros((4, 7))
    for i, j in nonzero:
        B[i, j] = value
    assert nonzero_columns(B) == window
    assert nonzero_columns(np.zeros((0, 7))) == (0, 0)


@pytest.mark.parametrize("name, m", [("stencil:8,8", 4), ("stencil:30,30", 20),
                                     ("synth:60,10,4,3", 5)])
def test_zero_preconditioner_gives_only_the_diagonal(name, m):
    ds = load_dataset(name)
    d = ds.n_cols
    K = np.zeros((d, d))
    for sh in make_shards(ds, m):
        for gram in (None, gram_block(sh)):
            assert agent_r_matrix(sh, K, m, gram).tobytes() == only_diagonal(sh, d, m).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_far_outside_the_band_reaches_the_residual(bad):
    ds = load_dataset("stencil:30,30")
    d, m = ds.n_cols, 20
    sh = make_shards(ds, m)[0]
    c = sh.cols
    # K nonzero only on the span's own columns, and one entry far beyond them
    K = np.zeros((d, d))
    K[c, c] = np.random.default_rng(1).standard_normal((c.stop - c.start,) * 2)
    far = d - 3
    assert far >= 2 * c.stop
    K[c.start + 1, far] = bad
    assert nonzero_columns(K[c]) == (c.start, far + 1)
    for gram in (None, gram_block(sh)):
        # inf times A's zeros is nan, which numpy reports whenever BLAS
        # computes that entry on this thread
        with np.errstate(invalid="ignore"):
            R = agent_r_matrix(sh, K, m, gram)
            want = parent_r_matrix(sh, K, m, gram)
        assert np.array_equal(np.isnan(R), np.isnan(want))
        assert np.array_equal(np.isinf(R), np.isinf(want))
        assert not np.isfinite(R[:, far]).all()
        finite = np.isfinite(want)
        np.testing.assert_allclose(R[finite], want[finite], rtol=0,
                                   atol=1e-12 * np.abs(want[finite]).max())


@pytest.mark.parametrize("name", ["stencil:30,30", "stencil:12,12", "synth:608,188,10,3",
                                  "ash-like"])
@pytest.mark.parametrize("m", [1, 5, 20])
def test_dense_preconditioner_keeps_the_full_products_bits(name, m):
    ds = _ash_like() if name == "ash-like" else load_dataset(name)
    d = ds.n_cols
    K = np.random.default_rng(m).standard_normal((d, d))
    for sh in make_shards(ds, m):
        for gram in (None, gram_block(sh)):
            want = parent_r_matrix(sh, K, m, gram)
            assert agent_r_matrix(sh, K, m, gram).tobytes() == want.tobytes()


def test_local_gram_only_where_it_saves_flops():
    # |span| = 188 >= 2 n_i = 122: the two products; |span| <= 150 < 180: the Gram block
    solver = IPGSolver(alpha=0.1, delta=1.0)
    dense = make_shards(load_dataset("synth:608,188,10,3"), 10)
    assert solver.init_agent_states(dense) == [None] * 10
    stencil = make_shards(load_dataset("stencil:30,30"), 10)
    for sh, gram in zip(stencil, solver.init_agent_states(stencil)):
        c = sh.cols
        assert np.array_equal(gram, np.dot(np.ascontiguousarray(sh.A.T)[c], sh.A[:, c]))


def _ash_like(rows=608, cols=188, seed=3):
    """Two unit entries per row at random columns, the pattern of ash608."""
    rng = np.random.default_rng(seed)
    A = np.zeros((rows, cols))
    for i in range(rows):
        A[i, rng.choice(cols, 2, replace=False)] = 1.0
    return Dataset(name="ash-like", A=A, x_star=np.ones(cols), b=A @ np.ones(cols))


@pytest.mark.parametrize("name", ["stencil:30,30", "stencil:12,12", "synth:608,188,10,3",
                                  "ash-like"])
@pytest.mark.parametrize("m", [2, 5, 10, 20])
def test_span_transposes_match_full_width_products(name, m):
    ds = _ash_like() if name == "ash-like" else load_dataset(name)
    d = ds.n_cols
    rng = np.random.default_rng(m)
    K = rng.standard_normal((d, d))
    x = rng.standard_normal(d)
    for sh in make_shards(ds, m):
        c = sh.cols
        # the full-width transpose shards kept before; its other rows are 0
        full_T = np.ascontiguousarray(sh.A.T)
        assert np.array_equal(sh.AT, full_T[c])
        # R_i and the Gram block are the same products, bit for bit
        want = np.dot(full_T[c], np.dot(sh.A[:, c], K[c]))
        want.ravel()[c.start :: d + 1] -= 1.0 / m
        assert np.array_equal(agent_r_matrix(sh, K, m), want)
        gram = local_gram(sh)
        assert (gram is None) == (c.stop - c.start >= 2 * sh.n_rows)
        if gram is not None:
            assert np.array_equal(gram, np.dot(full_T[c], sh.A[:, c]))
        # the gradient: rows outside the span are exactly 0; inside it a
        # narrower matrix-vector product may group the rows differently in
        # BLAS, so each row is within two dot-product round-off bounds
        r = np.dot(sh.A, x) - sh.b
        full = np.dot(full_T, r)
        assert not full[: c.start].any() and not full[c.stop :].any()
        g = agent_gradient(sh, x)
        assert g.shape == (c.stop - c.start,)
        bound = 2 * sh.n_rows * np.finfo(float).eps * np.dot(np.abs(sh.AT), np.abs(r))
        assert np.all(np.abs(g - full[c]) <= bound)


@pytest.mark.parametrize("observation", [False, True])
def test_ipg_compressed_matches_forced_dense(observation):
    ds = load_dataset("stencil:8,8")
    d = ds.n_cols
    params = resolve_params(RunConfig(dataset=ds.name, method="ipg"), ds.name,
                            compute_spectrum(ds.A))
    # m = 10: narrowed two products against full-span two products;
    # m = 2: spans of 40 < 2 n_i = 64 columns take the Gram route, and the
    # full span of 64 columns keeps the two products
    for m in (10, 2):
        shards = make_shards(ds, m)
        if observation:
            shards = apply_observation_noise(shards, 3, ObservationNoise(0.05))[0]
        assert any(sh.cols != slice(0, d) for sh in shards)
        assert [g is None for g in make_solver("ipg", params).init_agent_states(shards)] == (
            [m == 10] * m)
        curves = []
        for variant in (shards, [replace(sh, cols=slice(0, d)) for sh in shards]):
            solver = make_solver("ipg", params)
            errs = []
            # 40 rounds keep the error far above the 1e-15 absolute roundoff
            # gap that the reordered sums leave between the two paths
            run_rounds(solver, variant, d, 40, collect=lambda state, t: errs.append(
                estimation_error(solver.iterate(state), ds.x_star)))
            curves.append(np.array(errs))
        compressed, dense = curves
        assert np.all(np.abs(compressed - dense) <= 1e-12 * dense)
        assert np.all(np.abs(compressed - dense) <= 1e-14 * dense[0])


def test_ipg_keeps_every_yielded_state():
    # the server refines K in the round's aggregate buffer: a state handed
    # to collect / on_iteration must not change when later rounds run
    ds = load_dataset("stencil:8,8")
    solver = make_solver("ipg", {"alpha": 0.05, "delta": 1.0})
    kept = []
    run_rounds(solver, make_shards(ds, 2), ds.n_cols, 6,
               collect=lambda state, t: kept.append((state, state.K.copy(), state.x.copy())))
    assert len(kept) == 7
    for state, K, x in kept:
        assert np.array_equal(state.K, K) and np.array_equal(state.x, x)


def test_ipg_run_completes_with_an_all_zero_shard():
    # stencil rows followed by zero rows: the last agent sees no data at all
    A = np.vstack([load_dataset("stencil:4,4").A, np.zeros((4, 16))])
    ds = Dataset(name="stencil-zero-tail", A=A, x_star=np.ones(16), b=A @ np.ones(16))
    assert make_shards(ds, 5)[-1].cols == slice(0, 0)
    trace = run(RunConfig(dataset=ds.name, method="ipg", m=5, max_iters=60, stop_tol=0.0),
                dataset=ds)
    assert trace.summary["iterations"] == 60
    assert trace.final_err < 1e-6 * trace.rows[0].err


# -- preconditioned method ----------------------------------------------------


def test_ipg_two_rounds_hand_oracle():
    # diag(2,1), alpha=0.1, delta=1, single agent, worked by hand
    ds = diag_problem()
    xs = trajectory(("ipg", {"alpha": 0.1, "delta": 1.0}), ds, m=1, n_rounds=2)
    np.testing.assert_allclose(xs[1], [0.4, 0.1], rtol=1e-15)
    np.testing.assert_allclose(xs[2], [0.784, 0.271], rtol=1e-14)


def test_ipg_matches_centralized_recursion(small_problem, rng):
    # independent dense oracle for the full update over 30 rounds
    ds = small_problem
    d = ds.n_cols
    H = ds.A.T @ ds.A
    c = ds.A.T @ ds.b
    alpha, delta, m = 0.3, 0.9, 5

    x = np.zeros(d)
    K = np.zeros((d, d))
    oracle = [x.copy()]
    for _ in range(30):
        K = K - alpha * (H @ K - np.eye(d))
        x = x - delta * (K @ (H @ x - c))
        oracle.append(x.copy())

    xs = trajectory(("ipg", {"alpha": alpha, "delta": delta}), ds, m=m, n_rounds=30)
    np.testing.assert_allclose(xs, np.array(oracle), rtol=1e-9, atol=1e-11)


def test_ipg_fixed_point_is_stationary(small_problem):
    ds = small_problem
    K_star = k_star(ds.A)
    solver = IPGFrom(alpha=0.2, delta=1.0, K0=K_star)
    shards = make_shards(ds, 5)
    pn = NoProcessNoise()
    state = solver.init_state(shards, ds.n_cols, pn)
    state = replace(state, x=ds.x_star.copy())
    agent_states = solver.init_agent_states(shards)
    for t in range(3):
        state, agent_states = solver.step(state, shards, agent_states, pn, t)
    np.testing.assert_allclose(state.x, ds.x_star, atol=1e-9)
    np.testing.assert_allclose(state.K, K_star, atol=1e-9)


def test_one_ipg_solver_drives_interleaved_runs():
    # the left-out diagonal belongs to the run: two runs over different
    # column spans that share one solver each keep a fresh solver's bits
    ds = load_dataset("stencil:12,12")
    sp = compute_spectrum(ds.A)
    d = ds.n_cols

    def solver():
        return IPGSolver(alpha=1.0 / sp.lambda_1, delta=1.0)

    shared = solver()
    runs = {m: rounds(shared, make_shards(ds, m), d, NoProcessNoise()) for m in (5, 12)}
    assert all(left_out_diagonal(make_shards(ds, m), d).any() for m in runs)
    got = {m: [] for m in runs}
    for _ in range(21):
        for m, it in runs.items():
            state = next(it)[1]
            got[m].append((state.x.copy(), state.K.copy()))
    for m in runs:
        fresh = rounds(solver(), make_shards(ds, m), d, NoProcessNoise())
        for (x, K), (_, want) in zip(got[m], fresh):
            np.testing.assert_array_equal(x, want.x)
            np.testing.assert_array_equal(K, want.K)


def test_preconditioner_columns_contract_at_richardson_rate(small_problem):
    ds = small_problem
    sp = compute_spectrum(ds.A)
    alpha = 1.9 / sp.lambda_1
    rho = max(abs(1 - alpha * sp.lambda_1), abs(1 - alpha * sp.lambda_d))
    solver = IPGSolver(alpha=alpha, delta=1.0)
    shards = make_shards(ds, 5)
    pn = NoProcessNoise()
    state = solver.init_state(shards, ds.n_cols, pn)
    agent_states = solver.init_agent_states(shards)
    K_star = k_star(ds.A)
    prev = np.linalg.norm(state.K - K_star, axis=0)
    for t in range(40):
        state, agent_states = solver.step(state, shards, agent_states, pn, t)
        cur = np.linalg.norm(state.K - K_star, axis=0)
        assert np.all(cur <= (rho + 1e-9) * prev)
        prev = cur


def test_gd_equals_frozen_identity_preconditioner(small_problem):
    ds = small_problem
    alpha = 0.25
    xs_gd = trajectory(("gd", {"alpha": alpha}), ds, m=5, n_rounds=60)
    solver = IPGFrom(alpha=0.0, delta=alpha, K0=np.eye(ds.n_cols))
    shards = make_shards(ds, 5)
    xs_ipg = []
    run_rounds(solver, shards, ds.n_cols, 60,
               collect=lambda st, t: xs_ipg.append(st.x.copy()))
    assert np.array_equal(np.array(xs_ipg), xs_gd)


# -- first-order baselines ----------------------------------------------------


def test_gd_one_step_newton_in_1d():
    ds = Dataset(name="one", A=np.array([[1.0]]), x_star=np.array([1.0]),
                 b=np.array([1.0]))
    xs = trajectory(("gd", {"alpha": 1.0}), ds, m=1, n_rounds=1)
    np.testing.assert_array_equal(xs[1], [1.0])


def test_gd_recursion_oracle(small_problem):
    ds = small_problem
    H, c = ds.A.T @ ds.A, ds.A.T @ ds.b
    x = np.zeros(ds.n_cols)
    alpha = 0.2
    oracle = [x.copy()]
    for _ in range(20):
        x = x - alpha * (H @ x - c)
        oracle.append(x.copy())
    xs = trajectory(("gd", {"alpha": alpha}), ds, m=7, n_rounds=20)
    np.testing.assert_allclose(xs, oracle, rtol=1e-10, atol=1e-12)


def test_hbm_recursion_oracle(small_problem):
    ds = small_problem
    H, c = ds.A.T @ ds.A, ds.A.T @ ds.b
    alpha, beta = 0.15, 0.4
    x = xp = np.zeros(ds.n_cols)
    oracle = [x.copy()]
    for _ in range(25):
        x, xp = x - alpha * (H @ x - c) + beta * (x - xp), x
        oracle.append(x.copy())
    xs = trajectory(("hbm", {"alpha": alpha, "beta": beta}), ds, m=3, n_rounds=25)
    np.testing.assert_allclose(xs, oracle, rtol=1e-10, atol=1e-12)


def test_nag_recursion_oracle(small_problem):
    ds = small_problem
    H, c = ds.A.T @ ds.A, ds.A.T @ ds.b
    alpha, beta = 0.15, 0.4
    x = xp = np.zeros(ds.n_cols)
    oracle = [x.copy()]
    for _ in range(25):
        y = x + beta * (x - xp)
        x, xp = y - alpha * (H @ y - c), x
        oracle.append(x.copy())
    xs = trajectory(("nag", {"alpha": alpha, "beta": beta}), ds, m=3, n_rounds=25)
    np.testing.assert_allclose(xs, oracle, rtol=1e-10, atol=1e-12)


def test_zero_momentum_reduces_to_gd(small_problem):
    ds = small_problem
    xs_gd = trajectory(("gd", {"alpha": 0.2}), ds, m=5, n_rounds=40)
    xs_hbm = trajectory(("hbm", {"alpha": 0.2, "beta": 0.0}), ds, m=5, n_rounds=40)
    xs_nag = trajectory(("nag", {"alpha": 0.2, "beta": 0.0}), ds, m=5, n_rounds=40)
    assert np.array_equal(xs_hbm, xs_gd)
    assert np.array_equal(xs_nag, xs_gd)


def test_tuned_momentum_beats_gd_on_spread_spectrum():
    ds = diag_problem()
    lam1, lamd = 4.0, 1.0
    kappa = lam1 / lamd
    a_gd = 2.0 / (lam1 + lamd)
    a_hb = 4.0 / (np.sqrt(lam1) + np.sqrt(lamd)) ** 2
    b_hb = ((np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)) ** 2
    e_gd = np.linalg.norm(trajectory(("gd", {"alpha": a_gd}), ds, 1, 50)[-1] - ds.x_star)
    e_hb = np.linalg.norm(
        trajectory(("hbm", {"alpha": a_hb, "beta": b_hb}), ds, 1, 50)[-1] - ds.x_star)
    assert e_hb < e_gd


# -- quasi-Newton -------------------------------------------------------------


@pytest.mark.parametrize("d", [4, 6])
def test_bfgs_converges_fast_on_quadratic(d):
    ds = synthesize_problem(4 * d, d, cond=20.0, seed=d)
    xs = trajectory(("bfgs", {}), ds, m=2, n_rounds=2 * d + 2)
    assert np.linalg.norm(xs[-1] - ds.x_star) <= 1e-8


def test_bfgs_update_matches_textbook_formula(rng):
    d = 7
    M = np.eye(d) + 0.1 * rng.standard_normal((d, d))
    M = (M + M.T) / 2
    s = rng.standard_normal(d)
    y = rng.standard_normal(d)
    sy = float(s @ y)
    if sy <= 0:
        s, y = -s, y
        sy = -sy
    out = bfgs_update(np.ascontiguousarray(M), s, y, sy)
    r = 1.0 / sy
    V = np.eye(d) - r * np.outer(s, y)
    expect = V @ M @ V.T + r * np.outer(s, s)
    np.testing.assert_allclose(out, expect, rtol=1e-12, atol=1e-12)


def test_bfgs_skips_on_curvature_violation(small_problem):
    ds = small_problem
    d = ds.n_cols
    shards = make_shards(ds, 2)
    solver = BFGSSolver()
    pn = NoProcessNoise()
    x0 = np.zeros(d)
    G0 = ds.A.T @ (ds.A @ x0 - ds.b)
    # fabricate history making y = G(x0) - g_prev oppose s = x0 - x_prev
    x_prev = x0 - np.ones(d)
    g_prev = G0 + np.ones(d)
    state = BFGSState(x=x0, M=np.eye(d), x_prev=x_prev, g_prev=g_prev)
    new_state, _ = solver.step(state, shards, solver.init_agent_states(shards), pn, 5)
    assert new_state.skipped == [5]
    np.testing.assert_array_equal(new_state.M, np.eye(d))


def test_bfgs_skips_only_after_exact_convergence(small_problem):
    # sy = 0 events on a clean quadratic come from zero steps at the
    # solution, never from a genuine curvature violation mid-run
    solver = make_solver("bfgs", {})
    shards = make_shards(small_problem, 2)
    xs = []
    state = run_rounds(solver, shards, small_problem.n_cols, 30,
                       collect=lambda st, t: xs.append(st.x.copy()))
    assert np.linalg.norm(state.x - small_problem.x_star) <= 1e-10
    for t in state.skipped:
        # the secant pair at round t is (x(t) - x(t-1), ...)
        assert np.linalg.norm(xs[t] - xs[t - 1]) == 0.0


# -- consensus baseline -------------------------------------------------------


def test_apc_single_agent_exact():
    # square nonsingular local system: the pre-phase already solves it
    ds = diag_problem()
    xs = trajectory(("apc", {"gamma": 1.0, "eta_apc": 1.0}), ds, m=1, n_rounds=1)
    np.testing.assert_allclose(xs[0], ds.x_star, atol=1e-12)
    np.testing.assert_allclose(xs[1], ds.x_star, atol=1e-12)


def test_apc_iterates_stay_in_local_solution_sets(small_problem):
    # each agent's iterate keeps solving its own underdetermined system
    ds = small_problem
    m = 5
    solver = make_solver("apc", {"gamma": 1.05, "eta_apc": 2.0})
    shards = make_shards(ds, m)
    pn = NoProcessNoise()
    state = solver.init_state(shards, ds.n_cols, pn)
    agent_states = solver.init_agent_states(shards)
    for t in range(15):
        state, agent_states = solver.step(state, shards, agent_states, pn, t)
        for sh, (x_i, _) in zip(shards, agent_states):
            np.testing.assert_allclose(sh.A @ x_i, sh.b, atol=1e-8)


def test_apc_init_agent_states_can_be_fetched_twice(small_problem):
    ds = small_problem
    solver = make_solver("apc", {"gamma": 1.02, "eta_apc": 1.5})
    shards = make_shards(ds, 3)
    pn = NoProcessNoise()
    state = solver.init_state(shards, ds.n_cols, pn)
    first = solver.init_agent_states(shards)
    second = solver.init_agent_states(shards)
    assert second is not None and len(second) == len(shards)
    for (x_a, P_a), (x_b, P_b) in zip(first, second):
        assert np.array_equal(x_a, x_b) and np.array_equal(P_a, P_b)
    # a step from either hand-off gives the same next state
    a, _ = solver.step(state, shards, first, pn, 0)
    b, _ = solver.step(state, shards, second, pn, 0)
    assert np.array_equal(a.xbar, b.xbar)


def test_apc_recursion_oracle(small_problem):
    ds = small_problem
    m, gamma, eta = 3, 1.02, 1.5
    shards = make_shards(ds, m)
    pinvs = [np.linalg.pinv(sh.A) for sh in shards]
    projs = [np.eye(ds.n_cols) - p @ sh.A for p, sh in zip(pinvs, shards)]
    x_is = [p @ sh.b for p, sh in zip(pinvs, shards)]
    xbar = sum(x_is) / m
    oracle = [xbar.copy()]
    for _ in range(20):
        x_is = [x + gamma * P @ (xbar - x) for x, P in zip(x_is, projs)]
        xbar = eta * (sum(x_is) / m) + (1 - eta) * xbar
        oracle.append(xbar.copy())
    xs = trajectory(("apc", {"gamma": gamma, "eta_apc": eta}), ds, m=m, n_rounds=20)
    np.testing.assert_allclose(xs, oracle, rtol=1e-9, atol=1e-11)


def test_apc_converges_plain_consensus(small_problem):
    xs = trajectory(("apc", {"gamma": 1.0, "eta_apc": 1.0}), small_problem,
                    m=5, n_rounds=200)
    assert np.linalg.norm(xs[-1] - small_problem.x_star) <= 1e-6


# -- process corruption ordering ----------------------------------------------


def test_process_noise_corrupts_initial_state():
    ds = diag_problem()
    pn = UniformProcessNoise(seed=3, low=0.0, high=0.5)
    solver = make_solver("ipg", {"alpha": 0.1, "delta": 1.0})
    shards = make_shards(ds, 1)
    state = solver.init_state(shards, 2, pn)
    assert np.all(state.x > 0.0) and np.all(state.x < 0.5)
    assert np.all(state.K > 0.0) and np.all(state.K < 0.5)


def test_ipg_process_sequencing_oracle():
    # corrupted-K drives the x-update, then x is corrupted, single agent
    ds = diag_problem()
    H = ds.A.T @ ds.A
    c = ds.A.T @ ds.b
    alpha, delta, seed = 0.1, 1.0, 12
    pn = UniformProcessNoise(seed=seed, low=0.0, high=1e-3)

    from dlsq.noise import STREAM_K, STREAM_X
    x, K = np.zeros(2), np.zeros((2, 2))
    pn.corrupt(x, STREAM_X, 0)
    pn.corrupt(K, STREAM_K, 0)
    oracle = [x.copy()]
    for t in range(6):
        K = K - alpha * (H @ K - np.eye(2))
        pn.corrupt(K, STREAM_K, t + 1)
        x = x - delta * (K @ (H @ x - c))
        pn.corrupt(x, STREAM_X, t + 1)
        oracle.append(x.copy())

    xs = trajectory(("ipg", {"alpha": alpha, "delta": delta}), ds, m=1,
                    n_rounds=6, pnoise=pn, seed=seed)
    np.testing.assert_allclose(xs, oracle, rtol=1e-12, atol=1e-14)


class _AliasSpy:
    """Corrupts through model, noting each call whose variable shares memory
    with an array of a state yielded before it."""

    def __init__(self, model):
        self.model = model
        self.held = []
        self.shared = []

    def corrupt(self, v, stream, iteration):
        if any(np.may_share_memory(v, a) for a in self.held):
            self.shared.append((stream, iteration))
        return self.model.corrupt(v, stream, iteration)


def _arrays(state):
    """The arrays a state holds in its fields."""
    return [v for v in vars(state).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("model", [RoundoffProcessNoise(decimals=4),
                                   UniformProcessNoise(seed=3, low=-1e-4, high=2e-4)])
@pytest.mark.parametrize("method", METHODS)
def test_no_corrupted_variable_is_held_by_an_earlier_state(small_problem, method, model):
    # corrupt overwrites its variable, so no solver may hand it one that a
    # yielded state still holds (bfgs copies state.M where it hands it back)
    spy = _AliasSpy(model)
    params = resolve_params(RunConfig(dataset=small_problem.name, method=method),
                            small_problem.name, compute_spectrum(small_problem.A))
    steps = rounds(make_solver(method, params), make_shards(small_problem, 3),
                   small_problem.n_cols, spy)
    for _, state in islice(steps, 5):
        spy.held += _arrays(state)
    assert len(spy.held) >= 5
    assert spy.shared == []


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        make_solver("sgd", {})
