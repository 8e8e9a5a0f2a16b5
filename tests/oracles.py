"""Reference code the tests check dlsq against; dlsq itself never calls it."""
from dataclasses import replace

import numpy as np

from dlsq.solvers import IPGSolver


def reassemble(shards, n_rows, n_cols):
    """Inverse of make_shards; used to check the partition loses nothing."""
    A = np.zeros((n_rows, n_cols))
    b = np.zeros(n_rows)
    for sh in shards:
        A[sh.row_start:sh.row_stop] = sh.A
        b[sh.row_start:sh.row_stop] = sh.b
    return A, b


def k_star(A):
    """K* = (A^T A)^-1, solved in float64."""
    A = np.asarray(A, dtype=np.float64)
    H = A.T @ A
    return np.linalg.solve(H, np.eye(H.shape[0]))


class IPGFrom(IPGSolver):
    """IPGSolver started at K(0) = K0 in place of zero, for noise-free runs.

    alpha = 0 keeps K at K0 bit for bit (K - 0 R = K); with K0 = I and
    delta equal to gd's step this reproduces gd exactly."""

    def __init__(self, alpha, delta, K0):
        super().__init__(alpha, delta)
        self.K0 = np.array(K0, dtype=np.float64)

    def init_state(self, shards, d, pnoise):
        return replace(super().init_state(shards, d, pnoise), K=self.K0.copy())
