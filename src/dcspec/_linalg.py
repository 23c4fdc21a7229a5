"""Small shared linear-algebra helpers."""

import numpy as np


def sym(matrix):
    """Symmetrize (transpose without conjugation)."""
    return 0.5 * (matrix + matrix.T)


def frob(matrix):
    return float(np.linalg.norm(matrix))


def symplectic_defect(matrix, J):
    """Frobenius norm of kappa^T J kappa - J (transpose, no conjugation)."""
    return frob(matrix.T @ J @ matrix - J)
