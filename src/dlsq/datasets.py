"""Problem construction.

Covers Matrix Market parsing, synthetic regression problems, contiguous
row sharding across agents, and the spectral quantities every run needs
(extreme eigenvalues of A^T A and its inverse).

Named datasets are read from a local directory; they are never fetched
over the network. Directory resolution order: explicit argument, the
``DLSQ_DATA_DIR`` environment variable, ``./data``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
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
    # contiguous transpose copy for the agent products; multiplying by the
    # strided A.T view instead rounds differently and changes traces
    AT: np.ndarray = field(repr=False, default=None)

    @property
    def n_rows(self):
        return self.A.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigenstructure of A^T A plus its exact inverse K_star.

    eigenvalues ascend; eigenvectors[:, j] pairs with eigenvalues[j], so
    the extreme eigenpairs are (lambda_d, eigenvectors[:, 0]) and
    (lambda_1, eigenvectors[:, -1]).
    """

    lambda_1: float
    lambda_d: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    K_star: np.ndarray

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
        return float(np.linalg.norm(self.K_star, "fro"))


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


def _mm_tokens(text):
    """Yield (line_number, stripped_line) skipping comments and blanks."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("%"):
            continue
        yield ln, s


def parse_matrix_market(source):
    """Parse a Matrix Market file into a dense float64 array.

    Supports coordinate and array formats, real/integer/pattern fields,
    general and symmetric qualifiers. Pattern entries take the value 1.0.
    Duplicate coordinate entries are summed. Raises MatrixMarketError
    naming the offending 1-based line number.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        p = Path(source)
        if p.exists():
            text = p.read_text()
        else:
            text = str(source)
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

    body = _mm_tokens("\n".join(lines[1:]))
    # re-number: _mm_tokens counted from the line after the header
    body = ((ln + 1, s) for ln, s in body)

    try:
        size_ln, size_line = next(body)
    except StopIteration:
        raise MatrixMarketError("missing size line", len(lines)) from None

    parts = size_line.split()
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
    if symmetry == "symmetric" and n_rows != n_cols:
        raise MatrixMarketError("symmetric matrix must be square", size_ln)

    M = np.zeros((n_rows, n_cols), dtype=np.float64)

    if fmt == "coordinate":
        nnz = dims[2]
        seen = 0
        last_ln = size_ln
        for ln, s in body:
            last_ln = ln
            seen += 1
            if seen > nnz:
                raise MatrixMarketError(f"more than the declared {nnz} entries", ln)
            toks = s.split()
            if fieldname == "pattern":
                if len(toks) != 2:
                    raise MatrixMarketError("pattern entry needs 'i j'", ln)
                v = 1.0
            else:
                if len(toks) != 3:
                    raise MatrixMarketError("entry needs 'i j value'", ln)
                try:
                    v = float(toks[2])
                except ValueError:
                    raise MatrixMarketError(f"bad value {toks[2]!r}", ln) from None
            try:
                i, j = int(toks[0]), int(toks[1])
            except ValueError:
                raise MatrixMarketError("indices must be integers", ln) from None
            if not (1 <= i <= n_rows and 1 <= j <= n_cols):
                raise MatrixMarketError(
                    f"index ({i}, {j}) outside {n_rows} x {n_cols}", ln
                )
            M[i - 1, j - 1] += v
            if symmetry == "symmetric" and i != j:
                M[j - 1, i - 1] += v
        if seen != nnz:
            raise MatrixMarketError(f"declared {nnz} entries, found {seen}", last_ln)
    else:
        # array format: dense column-major listing; symmetric stores the
        # lower triangle (column by column, from the diagonal down)
        if symmetry == "general":
            coords = [(i, j) for j in range(n_cols) for i in range(n_rows)]
        else:
            coords = [(i, j) for j in range(n_cols) for i in range(j, n_rows)]
        k = 0
        last_ln = size_ln
        for ln, s in body:
            last_ln = ln
            for tok in s.split():
                if k >= len(coords):
                    raise MatrixMarketError("more entries than the header implies", ln)
                try:
                    v = float(tok)
                except ValueError:
                    raise MatrixMarketError(f"bad value {tok!r}", ln) from None
                i, j = coords[k]
                M[i, j] = v
                if symmetry == "symmetric" and i != j:
                    M[j, i] = v
                k += 1
        if k != len(coords):
            raise MatrixMarketError(
                f"expected {len(coords)} entries, found {k}", last_ln
            )

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
    return Dataset(name=f"synth-{n_rows}x{n_cols}-c{cond:g}-s{seed}",
                   A=A, x_star=x_star, b=A @ x_star)


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
    return Dataset(name=f"stencil-{nx}x{ny}", A=A, x_star=x_star, b=A @ x_star)


def dataset_path(name, data_dir=None):
    if data_dir is None:
        data_dir = os.environ.get(DATA_DIR_ENV) or "data"
    return Path(data_dir) / f"{name}.mtx"


def load_dataset(name_or_path, data_dir=None):
    """Load a problem by registry name, .mtx path, synth:<rows>,<cols>,<cond>[,<seed>]
    or stencil:<nx>,<ny> spec."""
    s = str(name_or_path)
    if s.startswith("stencil:"):
        parts = s[len("stencil:"):].split(",")
        if len(parts) != 2:
            raise ValueError("stencil spec is stencil:<nx>,<ny>")
        return stencil_problem(int(parts[0]), int(parts[1]))
    if s.startswith("synth:"):
        parts = s[len("synth:"):].split(",")
        if len(parts) not in (3, 4):
            raise ValueError("synthetic spec is synth:<rows>,<cols>,<cond>[,<seed>]")
        rows, cols = int(parts[0]), int(parts[1])
        cond = float(parts[2])
        seed = int(parts[3]) if len(parts) == 4 else 0
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
        name = s
    else:
        path = Path(s)
        if not path.exists():
            raise FileNotFoundError(f"no such dataset or file: {s}")
        A = parse_matrix_market(path)
        name = path.stem

    A = np.ascontiguousarray(A, dtype=np.float64)
    x_star = np.ones(A.shape[1])
    return Dataset(name=name, A=A, x_star=x_star, b=A @ x_star)


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
                AT=np.ascontiguousarray(A_i.T),
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
    """Extreme eigenvalues of A^T A and its inverse.

    Raises RankDeficiencyError when lambda_d <= RANK_RTOL * lambda_1, i.e.
    the observation matrix does not determine the parameters.
    """
    A = np.asarray(A, dtype=np.float64)
    H = A.T @ A
    eigenvalues, eigenvectors = np.linalg.eigh(H)
    lambda_d = float(eigenvalues[0])
    lambda_1 = float(eigenvalues[-1])
    if not (lambda_d > RANK_RTOL * lambda_1 and lambda_d > 0.0):
        raise RankDeficiencyError(
            f"A^T A numerically singular: lambda_d={lambda_d:.3e}, "
            f"lambda_1={lambda_1:.3e}"
        )
    K_star = np.linalg.solve(H, np.eye(H.shape[0]))
    return Spectrum(lambda_1=lambda_1, lambda_d=lambda_d,
                    eigenvalues=eigenvalues, eigenvectors=eigenvectors,
                    K_star=K_star)
