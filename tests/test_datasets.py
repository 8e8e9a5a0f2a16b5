"""Dataset layer: file parsing, partitioning, synthesis, eigen-structure."""
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlsq.datasets import (
    MatrixMarketError,
    Dataset,
    RankDeficiencyError,
    compute_spectrum,
    dataset_name,
    load_dataset,
    make_shards,
    parse_matrix_market,
    partition_rows,
    synthesize_problem,
)
from oracles import reassemble


def mm(text):
    return parse_matrix_market(io.StringIO(text))


# -- Matrix Market parsing --------------------------------------------------


def test_coordinate_general():
    A = mm("""%%MatrixMarket matrix coordinate real general
% comment line

3 2 2
1 1 2.0
3 2 -1.0
""")
    assert A.shape == (3, 2)
    np.testing.assert_array_equal(A, [[2.0, 0.0], [0.0, 0.0], [0.0, -1.0]])


def test_coordinate_symmetric_mirrors_off_diagonal():
    A = mm("""%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 4.0
2 1 -1.5
3 3 2.0
""")
    assert A[0, 1] == A[1, 0] == -1.5
    np.testing.assert_array_equal(A, A.T)
    assert A[0, 0] == 4.0 and A[2, 2] == 2.0


def test_coordinate_pattern_entries_are_ones():
    A = mm("""%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
""")
    np.testing.assert_array_equal(A, [[0.0, 1.0], [1.0, 0.0]])


def test_coordinate_integer_field():
    A = mm("""%%MatrixMarket matrix coordinate integer general
2 2 1
2 2 7
""")
    assert A[1, 1] == 7.0


def test_coordinate_duplicate_entries_sum():
    A = mm("""%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.5
1 1 2.5
""")
    assert A[0, 0] == 4.0


def test_coordinate_duplicates_sum_in_file_order():
    # ((0 + 1e16) + 1) + -1e16 is 0.0; any other grouping of the three gives 1.0
    A = mm("%%MatrixMarket matrix coordinate real general\n2 2 4\n1 2 1e16\n2 2 5\n1 2 1\n"
           "1 2 -1e16\n")
    assert A.tolist() == [[0.0, 0.0], [0.0, 5.0]]
    # a symmetric entry is mirrored where it is listed, so both cells sum
    # 1e16, 1, -1e16 in that order whichever side each line names
    A = mm("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n2 1 1e16\n1 2 1\n"
           "2 1 -1e16\n")
    assert A.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_array_general_is_column_major():
    A = mm("""%%MatrixMarket matrix array real general
2 3
1
2
3
4
5
6
""")
    np.testing.assert_array_equal(A, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def test_array_symmetric_lower_triangle():
    # array symmetric stores the lower triangle column by column
    A = mm("""%%MatrixMarket matrix array real symmetric
3 3
1
2
3
4
5
6
""")
    expect = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    np.testing.assert_array_equal(A, expect)


def test_scientific_notation_values():
    A = mm("""%%MatrixMarket matrix coordinate real general
1 1 1
1 1 -2.5e-3
""")
    assert A[0, 0] == -2.5e-3


@pytest.mark.parametrize("text,line", [
    ("%%NotMatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n", 1),
    ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n", 1),
    ("%%MatrixMarket tensor coordinate real general\n1 1 1\n1 1 1.0\n", 1),
    ("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n", 1),
    ("%%MatrixMarket matrix coordinate real general\n1 1\n1 1 1.0\n", 2),
    ("%%MatrixMarket matrix coordinate real general\nx 1 1\n1 1 1.0\n", 2),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n", 3),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", 3),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", 3),
    ("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n", 5),
    # a bad token before the first surplus value wins over the surplus
    ("%%MatrixMarket matrix array real general\n2 1\n1\nabc\n3\n", 4),
    # surplus values are reported at the first extra one's line
    ("%%MatrixMarket matrix array real general\n2 1\n1 2\n% c\n3\nabc\n", 5),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n\n1 2 abc\n", 5),
    # duplicates whose sum overflows are reported at the entry that overflows
    ("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 2 1.7976931348623157e308\n"
     "2 2 1e308\n% c\n1 2 1.7976931348623157e308\n", 6),
    ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 -1.7976931348623157e308\n"
     "1 2 -1e308\n", 4),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(MatrixMarketError) as ei:
        mm(text)
    assert ei.value.line == line


@pytest.mark.parametrize("values,message", [
    ("1 abc 3", "bad value 'abc'"),
    ("1 2 abc", "more entries than the header implies"),
])
def test_array_values_are_checked_in_file_order(values, message):
    # on one line, whichever of a bad value and the first surplus value
    # comes first is reported
    with pytest.raises(MatrixMarketError, match=message) as ei:
        mm(f"%%MatrixMarket matrix array real general\n2 1\n{values}\n")
    assert ei.value.line == 3


def test_coordinate_too_few_entries():
    with pytest.raises(MatrixMarketError):
        mm("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n")


def test_empty_input_rejected():
    with pytest.raises(MatrixMarketError):
        mm("")


MM_VALUES = {
    "real": st.floats(-1e300, 1e300).map(repr),
    "integer": st.integers(-999, 999).map(str),
}


def _mm_file(draw, header, lines):
    """The header, then lines, with comment and blank lines drawn between them."""
    out = [header]
    for line in lines:
        out += draw(st.lists(st.sampled_from(["% note", "%", "", "   "]), max_size=2))
        out.append(line)
    return "\n".join(out) + "\n"


@st.composite
def coordinate_files(draw, symmetry):
    """(file text, the matrix it holds). Entries repeat cells at random and,
    in a symmetric file, may name either triangle; the matrix sums them in
    file order."""
    fieldname = draw(st.sampled_from(["real", "integer", "pattern"]))
    n = draw(st.integers(0, 6))
    k = n if symmetry == "symmetric" else draw(st.integers(0, 6))
    cells = st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(k, 1)))
    value = st.just("") if fieldname == "pattern" else MM_VALUES[fieldname]
    entries = draw(st.lists(st.tuples(cells, value), max_size=12)) if n and k else []
    M = [[0.0] * k for _ in range(n)]
    for (i, j), v in entries:
        x = float(v) if v else 1.0
        M[i - 1][j - 1] += x
        if symmetry == "symmetric" and i != j:
            M[j - 1][i - 1] += x
    lines = [f"{n} {k} {len(entries)}"] + [f"{i} {j} {v}".rstrip() for (i, j), v in entries]
    text = _mm_file(draw, f"%%MatrixMarket matrix coordinate {fieldname} {symmetry}", lines)
    return text, np.array(M, dtype=np.float64).reshape(n, k)


@st.composite
def array_files(draw, symmetry):
    """(file text, the matrix it holds): values column by column, the lower
    triangle only when symmetric, split across lines at random."""
    fieldname = draw(st.sampled_from(["real", "integer"]))
    n = draw(st.integers(0, 6))
    k = n if symmetry == "symmetric" else draw(st.integers(0, 6))
    cells = [(i, j) for j in range(k) for i in range(j if symmetry == "symmetric" else 0, n)]
    values = draw(st.lists(MM_VALUES[fieldname], min_size=len(cells), max_size=len(cells)))
    M = [[0.0] * k for _ in range(n)]
    for (i, j), v in zip(cells, values):
        M[i][j] = float(v)
        if symmetry == "symmetric":
            M[j][i] = float(v)
    breaks = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    lines, line = [f"{n} {k}"], []
    for v, brk in zip(values, breaks):
        line.append(v)
        if brk:
            lines.append(" ".join(line))
            line = []
    if line:
        lines.append(" ".join(line))
    text = _mm_file(draw, f"%%MatrixMarket matrix array {fieldname} {symmetry}", lines)
    return text, np.array(M, dtype=np.float64).reshape(n, k)


@pytest.mark.parametrize("files", [coordinate_files, array_files], ids=["coordinate", "array"])
@pytest.mark.parametrize("symmetry", ["general", "symmetric"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_market_round_trip(files, symmetry, data):
    text, M = data.draw(files(symmetry))
    A = mm(text)
    assert A.shape == M.shape and A.dtype == np.float64
    assert A.tobytes() == M.tobytes()  # bit for bit: -0.0 is kept


def test_non_finite_values_sum_without_an_error():
    # an inf in the file is a value, not an overflow: it sums as numpy adds it
    A = mm("%%MatrixMarket matrix coordinate real general\n1 2 3\n1 1 inf\n1 1 1e308\n"
           "1 2 -inf\n")
    assert A.tolist() == [[np.inf, -np.inf]]


def test_rejecting_a_short_coordinate_file_builds_no_matrix():
    tracemalloc.start()
    try:
        with pytest.raises(MatrixMarketError, match="declared 5 entries, found 1"):
            mm("%%MatrixMarket matrix coordinate real general\n2000 2000 5\n1 1 1.5\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_rejecting_a_short_array_file_builds_no_matrix():
    # the header promises 2000 x 2000 values; the file holds one
    tracemalloc.start()
    try:
        with pytest.raises(MatrixMarketError, match="expected 4000000 entries, found 1"):
            mm("%%MatrixMarket matrix array real general\n2000 2000\n1.5\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


# -- partitioning and shards ------------------------------------------------


def test_partition_608_rows_10_agents():
    blocks = partition_rows(608, 10)
    sizes = [stop - start for start, stop in blocks]
    assert sizes == [61] * 8 + [60] * 2
    assert blocks[0][0] == 0 and blocks[-1][1] == 608
    for (a, b0), (c, _) in zip(blocks, blocks[1:]):
        assert b0 == c


def test_partition_uniform_and_single():
    assert [s - a for a, s in partition_rows(10, 10)] == [1] * 10
    assert partition_rows(7, 1) == [(0, 7)]


def test_partition_rejects_bad_agent_counts():
    with pytest.raises(ValueError):
        partition_rows(5, 0)
    with pytest.raises(ValueError):
        partition_rows(5, 6)


@pytest.mark.parametrize("m", [1, 3, 7, 10])
def test_shard_roundtrip_is_bit_exact(small_problem, m):
    shards = make_shards(small_problem, m)
    A, b = reassemble(shards, small_problem.n_rows, small_problem.n_cols)
    assert np.array_equal(A, small_problem.A)
    assert np.array_equal(b, small_problem.b)
    assert sum(s.A.shape[0] for s in shards) == small_problem.n_rows


def test_shards_expose_contiguous_transpose(small_problem):
    for sh in make_shards(small_problem, 4) + make_shards(load_dataset("stencil:8,8"), 10):
        assert sh.AT.flags["C_CONTIGUOUS"]
        assert np.array_equal(sh.AT, sh.A[:, sh.cols].T)


def test_replaced_shards_keep_their_transpose_consistent():
    # AT follows A and cols through dataclasses.replace: a forced full span
    # gets the full transpose back, and a new b keeps the span's
    for sh in make_shards(load_dataset("stencil:8,8"), 10):
        assert sh.cols != slice(0, 64)
        wide = replace(sh, cols=slice(0, 64))
        assert wide.AT.flags["C_CONTIGUOUS"] and np.array_equal(wide.AT, sh.A.T)
        assert np.array_equal(replace(wide, cols=sh.cols).AT, sh.AT)
        assert np.array_equal(replace(sh, b=sh.b + 1.0).AT, sh.AT)


def test_shard_column_spans():
    # contiguous rows of a 30x30 grid stencil touch their grid rows plus one
    # grid row (30 columns) on each side
    stencil = make_shards(load_dataset("stencil:30,30"), 10)
    assert max(sh.cols.stop - sh.cols.start for sh in stencil) <= 152
    for sh in stencil:
        nz = np.flatnonzero(sh.A.any(axis=0))
        assert (sh.cols.start, sh.cols.stop) == (nz[0], nz[-1] + 1)
    for sh in make_shards(load_dataset("synth:40,6,5.0,1"), 4):
        assert sh.cols == slice(0, 6)
    A = np.vstack([np.eye(3), np.zeros((2, 3))])
    zero_tail = Dataset(name="eye-zero", A=A, x_star=np.ones(3), b=A @ np.ones(3))
    assert make_shards(zero_tail, 2)[1].cols == slice(0, 0)


# -- synthesis ---------------------------------------------------------------


def test_synthesize_shapes_and_exact_rhs():
    ds = synthesize_problem(40, 6, cond=25.0, seed=9)
    assert ds.A.shape == (40, 6)
    np.testing.assert_array_equal(ds.x_star, np.ones(6))
    # b is constructed as A @ x_star, so the residual is exactly zero
    assert np.array_equal(ds.b, ds.A @ ds.x_star)


def test_synthesize_hits_requested_condition_number():
    ds = synthesize_problem(80, 12, cond=50.0, seed=1)
    sp = compute_spectrum(ds.A)
    assert sp.cond == pytest.approx(50.0, rel=1e-9)
    assert sp.lambda_d == pytest.approx(1.0, rel=1e-9)


def test_synthesize_validates_arguments():
    with pytest.raises(ValueError):
        synthesize_problem(5, 6)
    with pytest.raises(ValueError):
        synthesize_problem(6, 5, cond=0.5)


def test_load_dataset_synth_spec_roundtrip():
    ds = load_dataset("synth:30,5,9.0,2")
    assert ds.A.shape == (30, 5)
    with pytest.raises(ValueError):
        load_dataset("synth:30,5")


@pytest.mark.parametrize("nx,ny", [(30, 30), (4, 7), (1, 5)])
def test_load_dataset_stencil_spec(nx, ny):
    ds = load_dataset(f"stencil:{nx},{ny}")
    d = nx * ny
    assert ds.A.shape == (d, d)
    assert np.array_equal(ds.A, ds.A.T)
    assert np.all(np.diag(ds.A) == 8.0)
    # each node couples to itself and its up to 8 grid neighbours
    assert np.count_nonzero(ds.A) == (3 * nx - 2) * (3 * ny - 2)
    assert set(np.unique(ds.A)) <= {-1.0, 0.0, 8.0}
    np.testing.assert_array_equal(ds.x_star, np.ones(d))
    assert np.array_equal(ds.b, ds.A @ ds.x_star)
    with pytest.raises(ValueError):
        load_dataset("stencil:30")


def test_load_dataset_missing_registry_file_names_source(tmp_path, monkeypatch):
    monkeypatch.setenv("DLSQ_DATA_DIR", str(tmp_path))
    with pytest.raises(FileNotFoundError) as ei:
        load_dataset("ash608")
    assert "sparse.tamu.edu" in str(ei.value)


def test_parse_matrix_market_missing_path_names_it(tmp_path):
    # a string is a path, never file text
    missing = tmp_path / "missing.mtx"
    for source in (missing, str(missing)):
        with pytest.raises(FileNotFoundError, match="missing.mtx"):
            parse_matrix_market(source)
    p = tmp_path / "tiny.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 1\n1.5\n-2\n")
    np.testing.assert_array_equal(parse_matrix_market(str(p)), [[1.5], [-2.0]])


@pytest.mark.parametrize("spec", ["synth:30,5,9.0,2", "synth:30,5,9,2", "synth:30,5,9",
                                  "stencil:4,7", "stencil:1,5"])
def test_dataset_name_is_the_loaded_name(spec):
    assert dataset_name(spec) == load_dataset(spec).name


def test_dataset_name_reads_no_file(tmp_path):
    # two spellings of one problem, and two files of one stem, share a name
    assert dataset_name("synth:60,10,4,3") == dataset_name("synth:60,10,4.0,3")
    assert dataset_name("synth:60,10,4") == dataset_name("synth:60,10,4,0")
    assert dataset_name(tmp_path / "a" / "x.mtx") == dataset_name("b/x.mtx") == "x"
    assert dataset_name("ash608") == "ash608"
    with pytest.raises(ValueError):
        dataset_name("synth:30,5")


def test_load_dataset_from_mtx_path(tmp_path):
    p = tmp_path / "tiny.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n"
                 "3 2 3\n1 1 1.0\n2 2 2.0\n3 1 3.0\n")
    ds = load_dataset(p)
    assert ds.name == "tiny"
    assert ds.A.shape == (3, 2)
    np.testing.assert_array_equal(ds.b, ds.A @ np.ones(2))


# -- spectrum ----------------------------------------------------------------


def power_iteration(H, iters=50_000, tol=1e-14):
    """Independent route to the top eigenvalue of symmetric psd H."""
    rng = np.random.default_rng(5)
    v = rng.standard_normal(H.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = H @ v
        lam_new = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new, v
        lam = lam_new
    return lam, v


def inverse_power_iteration(H, iters=50_000, tol=1e-14):
    """Bottom eigenvalue via power iteration on H^-1 (LU solves)."""
    rng = np.random.default_rng(6)
    v = rng.standard_normal(H.shape[0])
    v /= np.linalg.norm(v)
    mu = 0.0
    for _ in range(iters):
        w = np.linalg.solve(H, v)
        mu_new = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(mu_new - mu) <= tol * max(1.0, abs(mu_new)):
            return 1.0 / mu_new, v
        mu = mu_new
    return 1.0 / mu, v


def test_spectrum_diagonal_case():
    sp = compute_spectrum(np.diag([2.0, 1.0]))
    assert sp.lambda_1 == pytest.approx(4.0)
    assert sp.lambda_d == pytest.approx(1.0)
    assert sp.varrho == pytest.approx(3.0 / 5.0)
    np.testing.assert_allclose(sp.K_star, np.diag([0.25, 1.0]), atol=1e-14)


def test_spectrum_orthogonal_matrix_is_flat():
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    sp = compute_spectrum(Q)
    assert sp.lambda_1 == pytest.approx(1.0, rel=1e-12)
    assert sp.lambda_d == pytest.approx(1.0, rel=1e-12)
    assert sp.varrho == pytest.approx(0.0, abs=1e-12)


def test_spectrum_matches_power_iteration_oracle():
    ds = synthesize_problem(70, 9, cond=37.0, seed=4)
    H = ds.A.T @ ds.A
    sp = compute_spectrum(ds.A)
    lam_top, _ = power_iteration(H)
    lam_bot, _ = inverse_power_iteration(H)
    assert sp.lambda_1 == pytest.approx(lam_top, rel=1e-7)
    assert sp.lambda_d == pytest.approx(lam_bot, rel=1e-7)


def test_spectrum_eigenpair_residuals():
    ds = synthesize_problem(50, 8, cond=12.0, seed=7)
    H = ds.A.T @ ds.A
    sp = compute_spectrum(ds.A)
    _, vectors = np.linalg.eigh(H)  # ascending: the extreme pairs sit at the ends
    v_1, v_d = vectors[:, -1], vectors[:, 0]
    r1 = np.linalg.norm(H @ v_1 - sp.lambda_1 * v_1)
    rd = np.linalg.norm(H @ v_d - sp.lambda_d * v_d)
    assert r1 <= 1e-6 * np.linalg.norm(v_1)
    assert rd <= 1e-6 * np.linalg.norm(v_d)


def test_k_star_identities():
    ds = synthesize_problem(60, 11, cond=30.0, seed=8)
    H = ds.A.T @ ds.A
    sp = compute_spectrum(ds.A)
    d = H.shape[0]
    assert np.linalg.norm(sp.K_star @ H - np.eye(d), "fro") <= 1e-8 * d
    assert np.linalg.norm(sp.K_star - sp.K_star.T, "fro") <= 1e-8 * np.linalg.norm(sp.K_star, "fro")
    # ||K* A^T||_2 = 1 / sqrt(lambda_d)
    s = np.linalg.svd(sp.K_star @ ds.A.T, compute_uv=False)[0]
    assert s == pytest.approx(1.0 / np.sqrt(sp.lambda_d), rel=1e-6)


def test_rank_deficiency_raises():
    A = np.ones((5, 3))  # rank 1
    with pytest.raises(RankDeficiencyError):
        compute_spectrum(A)
    for shape in ((4, 0), (0, 0)):  # no columns: an empty Gram matrix
        with pytest.raises(RankDeficiencyError, match="no columns"):
            compute_spectrum(np.zeros(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
def test_non_finite_gram_raises_without_a_warning(value):
    # nan and inf reach A^T A as they are; 1e200 is finite, but its square
    # overflows. Warnings are errors in this suite, so none may escape.
    A = np.eye(3, 2)
    A[2, 1] = value
    with pytest.raises(ValueError, match="A\\^T A is not finite"):
        compute_spectrum(A)


def test_spectrum_eigenvalues_ascend(small_problem):
    sp = compute_spectrum(small_problem.A)
    H = small_problem.A.T @ small_problem.A
    values = np.linalg.eigvalsh(H)
    assert np.all(np.diff(values) >= 0)
    assert np.array_equal(sp.eigenvalues, values)
    assert (sp.lambda_d, sp.lambda_1) == (values[0], values[-1])
    assert sp.k_star_spec == 1.0 / sp.lambda_d
    assert sp.k_star_fro == pytest.approx(np.linalg.norm(sp.K_star, "fro"))


@pytest.mark.parametrize("name", ["synth:60,10,4,3", "synth:608,188,10,3", "stencil:12,12",
                                  "stencil:30,30"])
def test_spectrum_within_tolerance_of_eigh_and_solve(name):
    # eigvalsh and eigh take different LAPACK routes, each accurate to a few
    # eps * lambda_1 absolute; K_star's norm from either route carries a
    # relative error of order eps * cond (cond = 37859 on stencil:30,30)
    A = load_dataset(name).A
    H = A.T @ A
    sp = compute_spectrum(A)
    values = np.linalg.eigh(H)[0]
    assert abs(sp.lambda_1 - values[-1]) <= 1e-13 * sp.lambda_1
    assert abs(sp.lambda_d - values[0]) <= 1e-13 * sp.lambda_1
    fro = np.linalg.norm(np.linalg.solve(H, np.eye(H.shape[0])), "fro")
    assert abs(sp.k_star_fro - fro) <= 1e-14 * sp.cond * fro


def test_k_star_is_solved_on_first_read():
    A = synthesize_problem(40, 7, cond=9.0, seed=2).A
    sp = compute_spectrum(A)
    assert "K_star" not in vars(sp)
    K = sp.K_star
    assert np.array_equal(K, np.linalg.solve(A.T @ A, np.eye(7)))
    assert sp.K_star is K
