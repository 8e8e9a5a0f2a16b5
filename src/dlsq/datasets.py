"""Problem construction.

Covers Matrix Market parsing, synthetic regression problems, contiguous
row sharding across agents, and the spectral quantities every run needs
(the eigenvalues of A^T A; its inverse only when a caller reads it).

Named datasets are read from a local directory; they are never fetched
over the network. Directory resolution order: explicit argument, the
``DLSQ_DATA_DIR`` environment variable, ``./data``.
"""
from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

DATA_DIR_ENV = "DLSQ_DATA_DIR"

# Rank gate: the Gram matrix must be invertible well clear of float noise.
RANK_RTOL = 1e-12


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input. ``line`` is the 1-based offending line."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RankDeficiencyError(ValueError):
    """A^T A is singular (or numerically so); the problem has no unique solution."""


@dataclass(frozen=True)
class Dataset:
    """A regression problem: observations A (n_rows x n_cols), target b = A x_star."""

    name: str
    A: np.ndarray
    x_star: np.ndarray
    b: np.ndarray

    @property
    def n_rows(self):
        return self.A.shape[0]

    @property
    def n_cols(self):
        return self.A.shape[1]


@dataclass(frozen=True)
class Shard:
    """One agent's private slice of the problem (contiguous original rows)."""

    agent_id: int
    row_start: int
    row_stop: int
    A: np.ndarray
    b: np.ndarray
    # column span of the nonzeros: first through last nonzero column of A,
    # empty for an all-zero shard. A stays full width; agents use the span
    # to compute and send only the rows their shard can touch.
    cols: slice
    # rows cols of A^T, a contiguous copy made from A and cols whenever a
    # shard is constructed (dataclasses.replace included, bind excluded) for
    # the agents' second products; multiplying by the strided A.T view
    # instead rounds differently and changes traces
    AT: np.ndarray = field(init=False, repr=False)
    # the agents' set-up that depends on A and cols alone, by method (apc's
    # pseudo-inverse and projector, ipg's local Gram block): a solver fills
    # its entry on first use, every binding of the shard shares it, and
    # run_grid drops it after the method's last cell on this cut
    prep: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "AT", np.ascontiguousarray(self.A[:, self.cols].T))

    @property
    def n_rows(self):
        return self.A.shape[0]

    def bind(self, b):
        """This shard holding b in its place; A, cols, AT and prep are
        shared, not copied."""
        shard = copy.copy(self)
        object.__setattr__(shard, "b", b)
        return shard


@dataclass(frozen=True)
class Spectrum:
    """The eigenvalues of A^T A, ascending, and the A they were computed
    from, as given. Its inverse K_star is solved from A when it is first
    read; a run reads only its norms, which the eigenvalues give."""

    eigenvalues: np.ndarray
    A: np.ndarray = field(repr=False)

    @property
    def lambda_1(self):
        return float(self.eigenvalues[-1])

    @property
    def lambda_d(self):
        return float(self.eigenvalues[0])

    @property
    def cond(self):
        return self.lambda_1 / self.lambda_d

    @property
    def varrho(self):
        # relative spectral spread in (0, 1); 0 for a perfectly conditioned Gram
        return (self.lambda_1 - self.lambda_d) / (self.lambda_1 + self.lambda_d)

    @property
    def k_star_spec(self):
        return 1.0 / self.lambda_d

    @property
    def k_star_fro(self):
        # K_star's eigenvalues are 1 / lambda_i
        return float(np.linalg.norm(1.0 / self.eigenvalues))

    @cached_property
    def K_star(self):
        A = np.asarray(self.A, dtype=np.float64)
        H = A.T @ A
        return np.linalg.solve(H, np.eye(H.shape[0]))


@dataclass(frozen=True)
class DatasetInfo:
    shape: tuple
    observation_half_width: float
    url: str


# Known problem files, with the observation-noise half-width conventionally
# used with each and a fetch URL for the README / error messages.
REGISTRY = {
    "ash608": DatasetInfo(
        shape=(608, 188),
        observation_half_width=0.25,
        url="https://sparse.tamu.edu/MM/HB/ash608.tar.gz",
    ),
    "gr_30_30": DatasetInfo(
        shape=(900, 900),
        observation_half_width=0.15,
        url="https://sparse.tamu.edu/MM/HB/gr_30_30.tar.gz",
    ),
}


def _mm_body(lines):
    """Yield (1-based line number, tokens) for each line after the header
    that is neither blank nor a comment."""
    for ln in range(1, len(lines)):
        toks = lines[ln].split()
        if toks and not toks[0].startswith("%"):
            yield ln + 1, toks


def _number(tok, kind, line):
    """kind(tok): float for a value, int for an index; a token kind cannot
    read is a MatrixMarketError naming the line."""
    try:
        return kind(tok)
    except ValueError:
        raise MatrixMarketError(
            f"bad value {tok!r}" if kind is float else "indices must be integers", line
        ) from None


def _sum_entries(entries, shape):
    """The shape matrix of coordinate entries, a flat list of (line, i, j,
    value) with 1-based i and j: each cell is 0.0 + v1 + v2 + ..., its
    values added in list order as Python floats. Finite values whose sum
    overflows are a MatrixMarketError naming the line that overflowed."""
    sums = {}
    for ln, i, j, v in zip(*(entries[k::4] for k in range(4))):
        s = sums.get((i, j), 0.0)
        sums[i, j] = t = s + v
        if math.isinf(t) and math.isfinite(s) and math.isfinite(v):
            raise MatrixMarketError(f"entries at ({i}, {j}) sum past the float range", ln)
    M = np.zeros(shape)
    for (i, j), s in sums.items():
        M[i - 1, j - 1] = s
    return M


def parse_matrix_market(source):
    """Parse a Matrix Market file into a dense float64 array.

    Supports coordinate and array formats, real/integer/pattern fields,
    general and symmetric qualifiers. Pattern entries take the value 1.0.
    Duplicate coordinate entries are summed. source is a path or a file
    object; a missing path raises FileNotFoundError. Raises
    MatrixMarketError naming the offending 1-based line number.
    """
    text = source.read() if hasattr(source, "read") else Path(source).read_text()
    lines = text.splitlines()
    if not lines:
        raise MatrixMarketError("empty input", 1)

    header = lines[0].strip().split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise MatrixMarketError("expected '%%MatrixMarket matrix <format> <field> <symmetry>'", 1)
    fmt, fieldname, symmetry = (h.lower() for h in header[2:5])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"unsupported format {fmt!r}", 1)
    if fieldname not in ("real", "integer", "pattern"):
        raise MatrixMarketError(f"unsupported field {fieldname!r} (real-valued data only)", 1)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}", 1)
    if fmt == "array" and fieldname == "pattern":
        raise MatrixMarketError("pattern field is only meaningful in coordinate format", 1)

    body = _mm_body(lines)
    size_ln, parts = next(body, (len(lines), None))
    if parts is None:
        raise MatrixMarketError("missing size line", size_ln)
    want = 3 if fmt == "coordinate" else 2
    if len(parts) != want:
        raise MatrixMarketError(f"size line needs {want} integers", size_ln)
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise MatrixMarketError("size line entries must be integers", size_ln) from None
    if any(v < 0 for v in dims):
        raise MatrixMarketError("negative dimension", size_ln)
    n_rows, n_cols = dims[0], dims[1]
    symmetric = symmetry == "symmetric"
    if symmetric and n_rows != n_cols:
        raise MatrixMarketError("symmetric matrix must be square", size_ln)

    last_ln = size_ln
    if fmt == "coordinate":
        # every entry is read before the matrix is built, so a short file
        # costs what it holds; a symmetric entry off the diagonal is listed
        # again, mirrored, right after itself
        nnz = dims[2]
        width = 2 if fieldname == "pattern" else 3
        seen = 0
        entries = []  # line, i, j, value, line, i, j, value, ...
        for last_ln, toks in body:
            seen += 1
            if seen > nnz:
                raise MatrixMarketError(f"more than the declared {nnz} entries", last_ln)
            if len(toks) != width:
                raise MatrixMarketError(
                    "pattern entry needs 'i j'" if width == 2 else "entry needs 'i j value'",
                    last_ln)
            v = 1.0 if width == 2 else _number(toks[2], float, last_ln)
            i, j = _number(toks[0], int, last_ln), _number(toks[1], int, last_ln)
            if not (1 <= i <= n_rows and 1 <= j <= n_cols):
                raise MatrixMarketError(
                    f"index ({i}, {j}) outside {n_rows} x {n_cols}", last_ln
                )
            entries += (last_ln, i, j, v)
            if symmetric and i != j:
                entries += (last_ln, j, i, v)
        if seen != nnz:
            raise MatrixMarketError(f"declared {nnz} entries, found {seen}", last_ln)
        return _sum_entries(entries, (n_rows, n_cols))

    # array format: a dense column-major listing; symmetric lists the lower
    # triangle column by column, from the diagonal down. Every value is read
    # before the matrix is built, so a short file costs what it holds.
    total = n_rows * (n_rows + 1) // 2 if symmetric else n_rows * n_cols
    vals = []
    for last_ln, toks in body:
        room = total - len(vals)
        for tok in toks[:room]:
            vals.append(_number(tok, float, last_ln))
        if len(toks) > room:
            raise MatrixMarketError("more entries than the header implies", last_ln)
    if len(vals) != total:
        raise MatrixMarketError(f"expected {total} entries, found {len(vals)}", last_ln)
    M = np.zeros((n_rows, n_cols), dtype=np.float64)
    if symmetric:
        # the lower triangle column by column is the upper triangle of M^T
        # row by row
        r, c = np.triu_indices(n_rows)
        M[c, r] = vals
        M[r, c] = vals
    else:
        M.T.flat = vals
    return M


def synthesize_problem(n_rows, n_cols, cond=10.0, seed=0):
    """Random dense problem with the Gram spectrum pinned to [1, cond].

    Eigenvalues of A^T A are geometrically spaced, so cond(A^T A) == cond
    exactly up to factorization roundoff.
    """
    if n_rows < n_cols:
        raise ValueError("need n_rows >= n_cols for a full-rank regression problem")
    if cond < 1.0:
        raise ValueError("cond must be >= 1")
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n_rows, n_cols)))
    V, _ = np.linalg.qr(rng.standard_normal((n_cols, n_cols)))
    lam = np.geomspace(1.0, cond, n_cols)
    A = (U * np.sqrt(lam)) @ V.T
    A = np.ascontiguousarray(A)
    x_star = np.ones(n_cols)
    return Dataset(name=_synth_name(n_rows, n_cols, cond, seed),
                   A=A, x_star=x_star, b=A @ x_star)


def _synth_name(n_rows, n_cols, cond, seed):
    return f"synth-{n_rows}x{n_cols}-c{cond:g}-s{seed}"


def stencil_problem(nx, ny):
    """9-point operator on an nx x ny grid: 8 on the diagonal, -1 on each
    of the up to 8 neighbours. It has the structure of gr_30_30 (a 30x30
    grid has the same 900 x 900 shape and 7744 nonzeros) but is an
    analogue, not the SuiteSparse matrix."""
    if nx < 1 or ny < 1:
        raise ValueError("stencil grid needs nx, ny >= 1")
    d = nx * ny
    A = np.zeros((d, d))
    idx = np.arange(d).reshape(nx, ny)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            src = idx[max(0, -di):nx - max(0, di), max(0, -dj):ny - max(0, dj)]
            dst = idx[max(0, di):nx + min(0, di), max(0, dj):ny + min(0, dj)]
            A[src.ravel(), dst.ravel()] = 8.0 if di == dj == 0 else -1.0
    x_star = np.ones(d)
    return Dataset(name=_stencil_name(nx, ny), A=A, x_star=x_star, b=A @ x_star)


def _stencil_name(nx, ny):
    return f"stencil-{nx}x{ny}"


def dataset_path(name, data_dir=None):
    if data_dir is None:
        data_dir = os.environ.get(DATA_DIR_ENV) or "data"
    return Path(data_dir) / f"{name}.mtx"


def _stencil_args(s):
    parts = s[len("stencil:"):].split(",")
    if len(parts) != 2:
        raise ValueError("stencil spec is stencil:<nx>,<ny>")
    return int(parts[0]), int(parts[1])


def _synth_args(s):
    parts = s[len("synth:"):].split(",")
    if len(parts) not in (3, 4):
        raise ValueError("synthetic spec is synth:<rows>,<cols>,<cond>[,<seed>]")
    seed = int(parts[3]) if len(parts) == 4 else 0
    return int(parts[0]), int(parts[1]), float(parts[2]), seed


def dataset_name(name_or_path):
    """The name load_dataset gives the problem, from the spec alone: nothing
    is built or read. Raises ValueError for a malformed stencil or synth spec."""
    s = str(name_or_path)
    if s.startswith("stencil:"):
        return _stencil_name(*_stencil_args(s))
    if s.startswith("synth:"):
        return _synth_name(*_synth_args(s))
    return s if s in REGISTRY else Path(s).stem


def load_dataset(name_or_path, data_dir=None):
    """Load a problem by registry name, .mtx path, synth:<rows>,<cols>,<cond>[,<seed>]
    or stencil:<nx>,<ny> spec; it is named by dataset_name."""
    s = str(name_or_path)
    if s.startswith("stencil:"):
        return stencil_problem(*_stencil_args(s))
    if s.startswith("synth:"):
        rows, cols, cond, seed = _synth_args(s)
        return synthesize_problem(rows, cols, cond=cond, seed=seed)

    if s in REGISTRY:
        info = REGISTRY[s]
        path = dataset_path(s, data_dir)
        if not path.exists():
            raise FileNotFoundError(
                f"{path} not found; place the Matrix Market file there "
                f"(source: {info.url})"
            )
        A = parse_matrix_market(path)
        if A.shape != info.shape:
            raise ValueError(f"{s}: expected shape {info.shape}, file has {A.shape}")
    else:
        path = Path(s)
        if not path.exists():
            raise FileNotFoundError(f"no such dataset or file: {s}")
        A = parse_matrix_market(path)

    A = np.ascontiguousarray(A, dtype=np.float64)
    x_star = np.ones(A.shape[1])
    return Dataset(name=dataset_name(s), A=A, x_star=x_star, b=A @ x_star)


def partition_rows(n_rows, m):
    """Contiguous row spans for m agents; the first (n_rows mod m) get one extra."""
    if not 1 <= m <= n_rows:
        raise ValueError(f"need 1 <= m <= n_rows, got m={m}, n_rows={n_rows}")
    base, rem = divmod(n_rows, m)
    spans = []
    start = 0
    for i in range(m):
        stop = start + base + (1 if i < rem else 0)
        spans.append((start, stop))
        start = stop
    return spans


def _column_span(A):
    """slice(lo, hi) from the first through the last nonzero column of A;
    slice(0, 0) when A is all zero."""
    nz = np.flatnonzero(A.any(axis=0))
    return slice(int(nz[0]), int(nz[-1]) + 1) if nz.size else slice(0, 0)


def make_shards(dataset, m):
    shards = []
    for i, (start, stop) in enumerate(partition_rows(dataset.n_rows, m)):
        A_i = np.ascontiguousarray(dataset.A[start:stop])
        shards.append(
            Shard(
                agent_id=i,
                row_start=start,
                row_stop=stop,
                A=A_i,
                b=np.ascontiguousarray(dataset.b[start:stop]),
                cols=_column_span(A_i),
            )
        )
    return shards


def reassemble(shards, n_rows, n_cols):
    """Inverse of make_shards; used to check the partition loses nothing."""
    A = np.zeros((n_rows, n_cols))
    b = np.zeros(n_rows)
    for sh in shards:
        A[sh.row_start:sh.row_stop] = sh.A
        b[sh.row_start:sh.row_stop] = sh.b
    return A, b


def compute_spectrum(A):
    """The eigenvalues of A^T A, without eigenvectors or an inverse.

    Raises RankDeficiencyError when A has no columns or A^T A is singular
    (lambda_d <= RANK_RTOL * lambda_1): A does not determine the parameters.
    """
    A64 = np.asarray(A, dtype=np.float64)
    H = A64.T @ A64
    if H.size == 0:
        raise RankDeficiencyError(f"A has no columns (shape {A64.shape}): nothing to solve for")
    eigenvalues = np.linalg.eigvalsh(H)
    lambda_d = float(eigenvalues[0])
    lambda_1 = float(eigenvalues[-1])
    if not (lambda_d > RANK_RTOL * lambda_1 and lambda_d > 0.0):
        raise RankDeficiencyError(
            f"A^T A numerically singular: lambda_d={lambda_d:.3e}, "
            f"lambda_1={lambda_1:.3e}"
        )
    return Spectrum(eigenvalues=eigenvalues, A=A)
