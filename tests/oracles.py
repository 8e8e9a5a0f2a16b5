"""Reference code the tests check dlsq against; dlsq itself never calls it."""
import numpy as np


def reassemble(shards, n_rows, n_cols):
    """Inverse of make_shards; used to check the partition loses nothing."""
    A = np.zeros((n_rows, n_cols))
    b = np.zeros(n_rows)
    for sh in shards:
        A[sh.row_start:sh.row_stop] = sh.A
        b[sh.row_start:sh.row_stop] = sh.b
    return A, b
