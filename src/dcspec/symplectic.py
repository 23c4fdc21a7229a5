"""Quadratic forms on complexified phase space and their Hamilton maps.

Phase-space coordinates are ordered ``(x_1..x_d, xi_1..xi_d)`` throughout
the package, so a single standard symplectic matrix J serves everywhere.
Inner products are symmetric (no complex conjugation): ``<u, v> = sum u_j v_j``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SymbolSchemaError
from ._linalg import block_matrix, sym

__all__ = [
    "standard_j",
    "phase_point",
    "QuadraticForm",
    "HamiltonMap",
    "build_quadratic_form",
    "evaluate",
    "hamilton_map",
    "symplectic_product",
]


def standard_j(dim):
    """Standard symplectic matrix J = [[0, -I], [I, 0]] of size 2*dim."""
    Z, I = np.zeros((dim, dim)), np.eye(dim)
    return block_matrix(Z, -I, I, Z)


def phase_point(coords):
    """Normalize a phase-space point to a complex vector of even length."""
    X = np.asarray(coords, dtype=complex).ravel()
    if X.size == 0 or X.size % 2 != 0:
        raise ValueError(f"phase point must have even positive length, got {X.size}")
    return X


@dataclass(frozen=True)
class QuadraticForm:
    """q(X) = <X, A X> with A complex symmetric of size 2*dim.

    The matrix is symmetrized on construction, so ``matrix`` is exactly
    symmetric regardless of how the coefficients were supplied.  A
    non-finite entry, given or from an overflow while symmetrizing, raises
    DomainError.
    """

    dim: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        A = np.asarray(self.matrix, dtype=complex)
        n = 2 * self.dim
        if A.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}, got {A.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            A = sym(A)
        if not np.isfinite(A).all():
            raise DomainError("the form's matrix has a non-finite entry")
        object.__setattr__(self, "matrix", A)

    def real_part(self):
        """The quadratic form Re q."""
        return QuadraticForm(self.dim, self.matrix.real.astype(complex))

    def imag_part(self):
        """The quadratic form Im q."""
        return QuadraticForm(self.dim, self.matrix.imag.astype(complex))


@dataclass(frozen=True)
class HamiltonMap:
    """The unique F with sigma(X, FY) = -sigma(FX, Y) and q(X) = sigma(X, FX).

    Equivalently JF = A; the flow generator of q is twice this matrix.
    """

    dim: int
    matrix: np.ndarray = field(repr=False)

    @property
    def real(self):
        return self.matrix.real

    @property
    def imag(self):
        return self.matrix.imag


def build_quadratic_form(dim, coefficients):
    """Assemble a :class:`QuadraticForm` from degree-2 monomial coefficients.

    Parameters
    ----------
    dim : int
        Number of position variables d; phase space has dimension 2d.
    coefficients : mapping
        Maps pairs ``(alpha, beta)`` of length-d multi-indices with
        ``|alpha| + |beta| = 2`` to complex coefficients.  Cross terms are
        split evenly between the two symmetric matrix entries.

    Raises
    ------
    SymbolSchemaError
        On a multi-index of wrong length or total degree != 2.
    """
    if dim < 1:
        raise SymbolSchemaError(f"dimension must be >= 1, got {dim}")
    n = 2 * dim
    A = np.zeros((n, n), dtype=complex)
    for (alpha, beta), c in coefficients.items():
        alpha = tuple(int(a) for a in alpha)
        beta = tuple(int(b) for b in beta)
        if len(alpha) != dim or len(beta) != dim:
            raise SymbolSchemaError(
                f"multi-index pair {(alpha, beta)} has wrong length for d={dim}"
            )
        if any(a < 0 for a in alpha + beta):
            raise SymbolSchemaError(f"negative exponent in {(alpha, beta)}")
        if sum(alpha) + sum(beta) != 2:
            raise SymbolSchemaError(
                f"term {(alpha, beta)} has total degree {sum(alpha) + sum(beta)}, need 2"
            )
        # the two slot indices of x^alpha xi^beta; xi_j is slot dim + j
        i, j = [k for k, e in enumerate(alpha + beta) for _ in range(e)]
        c = complex(c)
        if i == j:
            A[i, i] += c
        else:
            A[i, j] += 0.5 * c
            A[j, i] += 0.5 * c
    return QuadraticForm(dim, A)


def evaluate(q, X):
    """Evaluate q(X) = <X, A X> (symmetric inner product, no conjugation)."""
    X = phase_point(X)
    if X.size != 2 * q.dim:
        raise ValueError(f"point has length {X.size}, form expects {2 * q.dim}")
    return complex(X @ q.matrix @ X)


def _minus_j(M):
    """-J M for the standard J: M's row blocks swapped, the new lower block negated."""
    d = len(M) // 2
    return np.concatenate((M[d:], -M[:d]))


def hamilton_map(q):
    """Hamilton map F = -J A of a quadratic form (J F = A)."""
    return HamiltonMap(q.dim, _minus_j(q.matrix))


def symplectic_product(X, Y):
    """sigma((x, xi), (y, eta)) = <xi, y> - <x, eta>."""
    X = phase_point(X)
    Y = phase_point(Y)
    if X.size != Y.size:
        raise ValueError("phase points must have equal length")
    d = X.size // 2
    return complex(X[d:] @ Y[:d] - X[:d] @ Y[d:])
