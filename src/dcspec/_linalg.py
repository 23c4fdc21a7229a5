"""Small shared linear-algebra helpers."""

import numpy as np


def sym(matrix):
    """Symmetrize (transpose without conjugation)."""
    return 0.5 * (matrix + matrix.T)


def frob(matrix):
    return float(np.linalg.norm(matrix))


def block_matrix(A, B, C, D):
    """[[A, B], [C, D]], joined by np.concatenate, which checks less than np.block."""
    return np.concatenate((np.concatenate((A, B), axis=1), np.concatenate((C, D), axis=1)))


def symplectic_defect(matrix, J):
    """Frobenius norm of kappa^T J kappa - J (transpose, no conjugation)."""
    return frob(matrix.T @ J @ matrix - J)


def components(n, a, b):
    """For each node 0..n-1 of the graph with edges (a[i], b[i]), the
    smallest node of its connected component: min-label propagation over
    the edges, with pointer jumping."""
    root = np.arange(n)
    while True:
        low = np.minimum(root[a], root[b])
        new = root.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, root):
            return root
        root = new
