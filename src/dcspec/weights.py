"""Quadratic averaging weight, deformed symbols and canonical normalizers.

The weight G_q integrates the real part of the form along the flow of the
imaginary part against a triangular profile; a first-order deformation of
real phase space along i * H_G then trades the degenerate real part for a
strictly elliptic one.  The plain shift X + i delta H_G X is not canonical,
but multiplying by the inverse square root of 1 + delta^2 H_G^2 repairs it
exactly, which keeps the Hamilton spectrum invariant.

The weight reuses the flow exponential of :mod:`dcspec.singular`; likewise
``canonical_normalizer`` reuses ``delta_max`` through a one-entry cache
keyed by the bytes of H_G, since weights may be written in place.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._linalg import sym, frob, symplectic_defect
from .errors import DeltaTooLargeError, DomainError, NumericalFailureError
from .singular import _flow_integrals
from .symplectic import _minus_j, standard_j

__all__ = [
    "j_profile",
    "QuadraticWeight",
    "DeformedSymbol",
    "CanonicalMap",
    "weight_gq",
    "averaging_identity_defect",
    "deformed_symbol",
    "ellipticity_margin",
    "delta_max",
    "canonical_normalizer",
]

_EPS = float(np.finfo(float).eps)


def j_profile(t):
    """Triangular profile with distributional derivative delta_0 - 1_[-1,0].

    Integrating that derivative gives -(t+1) on [-1, 0) and 0 elsewhere;
    the Dirac mass only produces the jump back to 0 at t = 0.  On (0, T]
    the ramp of :func:`weight_gq` is 1 - t/T = -j_profile(-t/T); the
    closed form carries it as a second integrator state.
    """
    t = np.asarray(t, dtype=float)
    out = np.where((t >= -1.0) & (t < 0.0), -(t + 1.0), 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class QuadraticWeight:
    """Real quadratic weight G(X) = <X, G X> with averaging time T."""

    T: float
    matrix: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.matrix.shape[0] // 2

    @property
    def hamilton_matrix(self):
        """Flow generator of the weight, H_G = -2 J G."""
        return _minus_j(2.0 * self.matrix)


@dataclass(frozen=True)
class DeformedSymbol:
    """Coefficient matrix of the symbol restricted to the deformed contour."""

    delta: float
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CanonicalMap:
    """Linear canonical map onto the deformed contour at deformation delta.

    ``normalizer`` is the real matrix S = (1 + delta^2 H_G^2)^(-1/2) with
    matrix = (1 + i delta H_G) S; it is kept so that callers can verify the
    image containment kappa X = (1 + i delta H_G)(S X) with S X real.
    """

    matrix: np.ndarray = field(repr=False)
    delta: float
    normalizer: np.ndarray = field(repr=False, default=None)

    @property
    def dim(self):
        return self.matrix.shape[0] // 2

    @property
    def symplectic_defect(self):
        return symplectic_defect(self.matrix, standard_j(self.dim))


def weight_gq(q, T=1.0):
    """The averaging weight: G = int_0^T (1 - t/T) M(t)^T Re A M(t) dt.

    M(t) = exp(2 t Im F) is the flow of the imaginary part.  When Im q = 0
    the flow is the identity and G reduces to (T/2) Re A.  The integral is
    exact up to the rounding of one matrix exponential (Van Loan's block
    form), taken once per (form, T) and shared with
    :func:`averaged_real_part` and :func:`averaging_identity_defect`.
    """
    _, ramp = _flow_integrals(q, T)
    return QuadraticWeight(T, ramp)


def averaging_identity_defect(q, T=1.0):
    """Norm of (d/ds G_q(e^{s H_Im q} X))|_0 - (<Re q>_T - Re q) as forms.

    The derivative of the weight along the flow has form matrix
    sym(H^T G + G H) with H = 2 Im F; by integration by parts it equals
    the averaged matrix minus Re A exactly.  Both integrals come from the
    same matrix exponential, so this measures its rounding error; right
    after :func:`weight_gq` on the same form and T it takes no new one.

    The returned defect is absolute.  G and the average grow with the flow,
    like exp(2 ||Im F|| T), and so does the rounding error: compare it with
    2 ||H|| ||G|| + ||<Re q>_T||, against which it stays near machine
    precision at every T, rather than with ||A|| alone.  A defect whose
    norm overflows raises :class:`NumericalFailureError`.
    """
    total, G = _flow_integrals(q, T)
    H = _minus_j(2.0 * q.matrix.imag)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = frob(sym(H.T @ G + G @ H) - (total / T - q.matrix.real))
    if not np.isfinite(defect):
        raise NumericalFailureError(f"the averaging identity defect overflows at T = {T}")
    return defect


def _check_delta(delta):
    if not 0 <= delta < np.inf:
        raise DomainError(f"delta must be finite and >= 0, got {delta}")


def deformed_symbol(q, weight, delta):
    """Symbol coefficients after the contour shift X -> X + i delta H_G X."""
    _check_delta(delta)
    n = 2 * q.dim
    K = np.eye(n) + 1j * delta * weight.hamilton_matrix
    return DeformedSymbol(delta, sym(K.T @ q.matrix @ K))


def ellipticity_margin(deformed):
    """Minimum of the deformed real part on the unit sphere."""
    return float(np.linalg.eigvalsh(deformed.matrix.real).min())


def delta_max(weight):
    """Largest deformation with spectral radius of delta^2 H_G^2 below 1.

    A nilpotent H_G has spectrum {0} and no bound, but its computed
    eigenvalues are rounding of size up to u^(1/k) ||H_G|| for a Jordan
    block of size k (3e-9 i for d = 1).  So H_G is read as nilpotent, and
    the bound as inf, when its n-th power (n = 2d), scaled by its largest
    entry, is zero to rounding: no entry above n^2 times the machine epsilon.
    :func:`canonical_normalizer` right after it on the same weight reuses it.
    """
    H = weight.hamilton_matrix
    return _spectral_bound(len(H), H.dtype.str, H.tobytes())


@functools.lru_cache(maxsize=1)  # delta_max and canonical_normalizer run back to back
def _spectral_bound(n, dtype, data):
    """:func:`delta_max` of the n x n Hamilton matrix H_G given by its bytes."""
    H = np.frombuffer(data, dtype=dtype).reshape(n, n)
    scale = float(np.max(np.abs(H)))
    if scale == 0.0 or np.max(np.abs(np.linalg.matrix_power(H / scale, n))) <= n * n * _EPS:
        return np.inf
    return 1.0 / float(np.max(np.abs(np.linalg.eigvals(H))))


def canonical_normalizer(weight, delta):
    """The canonical map (1 + i delta H_G) (1 + delta^2 H_G^2)^(-1/2).

    The inverse square root is taken as the principal matrix function
    (Schur based), which is valid for any delta below the spectral-radius
    bound, not merely inside the power-series radius; it commutes with
    H_G and stays symmetric with respect to the symplectic form, so the
    product is exactly canonical.  For a nilpotent H_G (``delta_max`` inf)
    the entries of H_G^2 within its rounding error of 0 are taken as 0, so
    H_G^2 = 0 gives the normalizer 1 at every delta.
    """
    _check_delta(delta)
    H = weight.hamilton_matrix
    n = H.shape[0]
    bound = delta_max(weight)
    if delta > 0 and delta >= bound:
        raise DeltaTooLargeError(f"delta = {delta} >= delta_max = {bound:.6g}")
    H2 = H @ H
    if bound == np.inf:
        scale = float(np.max(np.abs(H)))
        H2[np.abs(H2) <= n * _EPS * scale * scale] = 0.0
    try:
        T_op = np.eye(n) + float(delta) ** 2 * H2
    except OverflowError:
        raise NumericalFailureError(f"delta**2 overflows at delta = {delta}") from None
    root = np.asarray(sla.sqrtm(T_op))
    if np.iscomplexobj(root):
        # principal root of a real matrix with spectrum off (-inf, 0] is real
        root = root.real
    S = np.linalg.inv(root)
    kappa = (np.eye(n) + 1j * delta * H) @ S
    return CanonicalMap(kappa, delta, S)
