"""Singular space of a quadratic form and flow-averaged positivity.

The singular space collects the real phase-space directions on which the
real part of the form stays degenerate along the entire flow of the
imaginary part; it is computed from the stacked iterated products
Re F (Im F)^k, k = 0..2d-1, which suffice by Cayley-Hamilton.

Flow averages of the real part are computed in closed form from one
matrix exponential (Van Loan, IEEE TAC 23, 1978), with no quadrature.
It is taken once per (form, T) and shared with ``weight_gq`` and
``averaging_identity_defect`` in :mod:`dcspec.weights` through a one-entry
cache keyed by the form's coefficient bytes, never by the object.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import sym, frob
from .errors import DomainError, NumericalFailureError, PreconditionError
from .symplectic import _minus_j, hamilton_map, phase_point

__all__ = [
    "RealSubspace",
    "AveragedForm",
    "PositivityReport",
    "VanishingOrder",
    "singular_space",
    "averaged_real_part",
    "positivity_equivalence_check",
    "flow_vanishing_order",
]

DEFAULT_KERNEL_TOL = 1e-10
POSITIVITY_TOL = 1e-9


@dataclass(frozen=True)
class RealSubspace:
    """A subspace of real phase space with an orthonormal basis.

    ``basis`` has shape (2d, k) with orthonormal columns; k = 0 encodes the
    trivial subspace.  ``tolerance`` records the relative singular-value
    threshold used for the rank decision, since the input data carries no
    intrinsic scale for that choice.
    """

    dim_ambient: int
    basis: np.ndarray = field(repr=False)
    tolerance: float

    @property
    def dim(self):
        return self.basis.shape[1]


@dataclass(frozen=True)
class AveragedForm:
    """Real symmetric matrix of the time-averaged real part over [0, T]."""

    T: float
    matrix: np.ndarray = field(repr=False)

    @property
    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.matrix).min())


@dataclass(frozen=True)
class PositivityReport:
    s_dim: int
    min_eigenvalue: float
    threshold: float
    consistent: bool


@dataclass(frozen=True)
class VanishingOrder:
    k: int
    coefficient: float


def singular_space(fmap, tolerance=DEFAULT_KERNEL_TOL):
    """Real kernel of the stacked matrix [Re F; Re F Im F; ...].

    Rank is decided by thresholding singular values relative to the largest
    one; an empty basis encodes the trivial space.  The caller is expected
    to pass the Hamilton map of a form with Re q >= 0 (not enforced).
    """
    if not 0 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance}")
    n = 2 * fmap.dim
    ReF, ImF = fmap.real, fmap.imag
    blocks = []
    P = np.eye(n)
    for _ in range(n):
        blocks.append(ReF @ P)
        P = P @ ImF
    K = np.vstack(blocks)
    _, s, Vt = np.linalg.svd(K, full_matrices=False)
    if s[0] == 0.0:
        basis = np.eye(n)
    else:
        # singular values are sorted, so the trailing rows of Vt span the kernel
        k = int(np.sum(s <= tolerance * s[0]))
        basis = Vt[n - k:].T.copy() if k else np.zeros((n, 0))
    return RealSubspace(n, basis, tolerance)


def _kronecker_sum(A):
    """kron(A, I) + kron(I, A) in one broadcast, with the same products."""
    n = A.shape[0]
    I = np.eye(n)
    K = A[:, None, :, None] * I[None, :, None, :] + I[:, None, :, None] * A[None, :, None, :]
    return K.reshape(n * n, n * n)


@functools.lru_cache(maxsize=1)  # its callers run back to back on one form
def _flow_exponential(dim, coefficients, T):
    """int_0^T Phi dt and int_0^T (1 - t/T) Phi dt, Phi(t) = M(t)^T Re A M(t),
    for the form given by its dimension and coefficient bytes.

    M(t) = exp(t H) with H = 2 Im F, so Phi solves the linear flow
    Phi' = H^T Phi + Phi H with generator K = H^T (+) H^T (Kronecker sum)
    on vec Phi.  Appending two integrator states to K gives the block
    matrix C = [[K, vec Re A, 0], [0, 0, 1], [0, 0, 0]]; columns m and
    m + 1 of exp(T C), m = (2d)^2, hold int_0^T Phi and
    int_0^T (T - t) Phi exactly, up to the rounding of one expm.  A flow
    that overflows raises :class:`NumericalFailureError`, which is not cached.
    """
    from scipy.linalg import expm

    A = np.frombuffer(coefficients, dtype=complex).reshape(2 * dim, 2 * dim)
    H = _minus_j(2.0 * A.imag)
    n = H.shape[0]
    m = n * n
    C = np.zeros((m + 2, m + 2))
    C[:m, :m] = _kronecker_sum(H.T)
    C[:m, m] = A.real.ravel()
    C[m, m + 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        E = expm(T * C)
        total = sym(E[:m, m].reshape(n, n))
        ramp = sym(E[:m, m + 1].reshape(n, n) / T)
    if not (np.isfinite(total).all() and np.isfinite(ramp).all()):
        raise NumericalFailureError(
            f"the flow exponential overflows at averaging time T = {T}"
        )
    return total, ramp


def _flow_integrals(q, T):
    """Fresh copies of :func:`_flow_exponential` of q, keyed by content, at a valid T."""
    if not 0 < T < math.inf:
        raise DomainError(f"averaging time T must be positive and finite, got {T}")
    total, ramp = _flow_exponential(q.dim, q.matrix.tobytes(), T)
    return total.copy(), ramp.copy()


def averaged_real_part(q, T=1.0):
    """(1/T) int_0^T M(t)^T Re A M(t) dt with M(t) = exp(2t Im F).

    The factor 2 is the ratio between the flow generator of the imaginary
    part and its Hamilton matrix.  The integral is exact up to the rounding
    of one matrix exponential (see :func:`_flow_integrals`).
    """
    total, _ = _flow_integrals(q, T)
    return AveragedForm(T, total / T)


def positivity_equivalence_check(q, T=1.0, tolerance=DEFAULT_KERNEL_TOL):
    """Check S = {0}  <=>  averaged form positive definite, on one input.

    Raises :class:`PreconditionError` when Re q is not positive
    semidefinite, since the equivalence is only stated for such forms.
    """
    ReA = q.matrix.real
    min_re = float(np.linalg.eigvalsh(ReA).min())
    if min_re < -POSITIVITY_TOL * max(frob(q.matrix), 1e-300):
        raise PreconditionError(
            f"Re q is not positive semidefinite (min eigenvalue {min_re:.3e})"
        )
    space = singular_space(hamilton_map(q), tolerance=tolerance)
    avg = averaged_real_part(q, T)
    threshold = POSITIVITY_TOL * frob(avg.matrix)
    min_avg = avg.min_eigenvalue
    positive = min_avg > threshold
    return PositivityReport(
        s_dim=space.dim,
        min_eigenvalue=min_avg,
        threshold=threshold,
        consistent=(space.dim == 0) == positive,
    )


def flow_vanishing_order(q, X, tolerance=DEFAULT_KERNEL_TOL):
    """Leading order of t -> Re q(exp(t Im F) X) at t = 0.

    Returns the smallest k with Re F (Im F)^k X != 0 together with the
    Taylor coefficient Re q((Im F)^k X) / (k!)^2, so that the function
    behaves as coeff * t^(2k) to leading order.  A point surviving all
    2d-1 products lies in the singular space, contradicting the S = {0}
    precondition, and raises :class:`PreconditionError`.
    """
    X = phase_point(X).real
    if not np.any(X):
        raise ValueError("X must be nonzero")
    fmap = hamilton_map(q)
    ReF, ImF = fmap.real, fmap.imag
    ReA = q.matrix.real
    scale = max(frob(fmap.matrix), 1e-300)
    v = X.copy()
    for k in range(2 * fmap.dim):
        if frob(ReF @ v) > tolerance * scale ** (k + 1) * frob(X):
            coeff = float(v @ ReA @ v) / float(math.factorial(k)) ** 2
            return VanishingOrder(k, coeff)
        v = ImF @ v
    raise PreconditionError("X lies in the singular space (S != {0} along X)")
