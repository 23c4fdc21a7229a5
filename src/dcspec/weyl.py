"""Finite Hermite-basis truncations of quadratic Weyl operators.

Quadratic symbols act on the harmonic-oscillator eigenbasis with total-degree
bandwidth at most 2, so the Galerkin matrix is computed exactly (up to
rounding) from ladder operators assembled on a once-extended index set.
Eigenvalues of the truncation inside the numerical range of a strongly
non-normal symbol can be spurious; spectra and resolvent norms should
always be compared across two truncation levels.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import NumericalFailureError

__all__ = [
    "HermiteTruncation",
    "TruncatedWeylOperator",
    "multi_indices",
    "quantize_quadratic",
    "spectrum_truncated",
    "resolvent_norm",
    "pseudospectrum_grid",
    "scaling_check",
    "suggested_degree",
]

DENSE_SVD_CUTOFF = 2000
INFINITY_SIGMA_RTOL = 1e-14


def multi_indices(dim, degree):
    """Multi-indices with |k| <= degree in graded lexicographic order."""
    out = []
    for total in range(degree + 1):
        block = [
            k
            for k in itertools.product(range(total + 1), repeat=dim)
            if sum(k) == total
        ]
        out.extend(sorted(block))
    return out


@dataclass(frozen=True)
class HermiteTruncation:
    """Basis of oscillator eigenfunctions with total degree <= degree."""

    dim: int
    degree: int
    h: float

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    @property
    def size(self):
        return math.comb(self.degree + self.dim, self.dim)

    @property
    def energy_cutoff(self):
        """Trust-region heuristic: oscillator energy reached at the cutoff."""
        return self.h * (self.degree + self.dim)

    def indices(self):
        return multi_indices(self.dim, self.degree)


@dataclass(frozen=True)
class TruncatedWeylOperator:
    trunc: HermiteTruncation
    matrix: np.ndarray = field(repr=False)


def _ladder_ops(dim, degree, h):
    """Position and scaled-derivative matrices on the degree-<=degree basis."""
    idx = multi_indices(dim, degree)
    pos = {k: i for i, k in enumerate(idx)}
    n = len(idx)
    xs, ps = [], []
    c = math.sqrt(h / 2.0)
    for j in range(dim):
        a = sp.lil_matrix((n, n))
        for k in idx:
            if k[j] >= 1:
                lower = list(k)
                lower[j] -= 1
                a[pos[tuple(lower)], pos[k]] = math.sqrt(k[j])
        a = a.tocsr()
        ad = a.T
        xs.append(c * (a + ad))
        ps.append(-1j * c * (a - ad))
    return idx, pos, xs + ps


def quantize_quadratic(q, trunc):
    """Galerkin matrix of the Weyl operator of a quadratic symbol.

    Each monomial X_i X_j quantizes to the symmetrized product of the
    corresponding position/derivative operators.  Products are formed on
    the basis extended by two degrees so that every kept entry is the
    exact operator matrix element.
    """
    if q.dim != trunc.dim:
        raise ValueError("symbol and truncation dimensions differ")
    d, N, h = trunc.dim, trunc.degree, trunc.h
    idx_ext, pos_ext, ops = _ladder_ops(d, N + 2, h)
    n_ext = len(idx_ext)
    A = q.matrix
    M = sp.csr_matrix((n_ext, n_ext), dtype=complex)
    for i in range(2 * d):
        for j in range(i, 2 * d):
            coeff = A[i, j] if i == j else 2.0 * A[i, j]
            if coeff == 0:
                continue
            M = M + coeff * (ops[i] @ ops[j] + ops[j] @ ops[i]) * 0.5
    keep = np.array([pos_ext[k] for k in multi_indices(d, N)])
    dense = M.toarray()[np.ix_(keep, keep)]
    return TruncatedWeylOperator(trunc, dense)


def spectrum_truncated(op, count):
    """The ``count`` eigenvalues of the truncation of smallest modulus."""
    if count > op.trunc.size:
        raise ValueError(f"count {count} exceeds basis size {op.trunc.size}")
    try:
        evals = np.linalg.eigvals(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"dense eigensolver failed: {exc}") from exc
    order = np.lexsort((evals.imag, evals.real, np.abs(evals)))
    return evals[order][:count]


def _sigma_min_dense(B):
    return float(np.linalg.svd(B, compute_uv=False)[-1])


def _sigma_min_inverse_iteration(B, rtol=1e-10, maxiter=500):
    """Smallest singular value by power iteration on (B^H B)^{-1} via one LU."""
    n = B.shape[0]
    try:
        lu = sla.lu_factor(B)
    except np.linalg.LinAlgError:
        return 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sigma = None
    for _ in range(maxiter):
        w = sla.lu_solve(lu, v, trans=2)
        u = sla.lu_solve(lu, w, trans=0)
        growth = np.linalg.norm(u)
        if not np.isfinite(growth) or growth == 0.0:
            return 0.0
        new_sigma = 1.0 / math.sqrt(growth)
        v = u / growth
        if sigma is not None and abs(new_sigma - sigma) <= rtol * sigma:
            return new_sigma
        sigma = new_sigma
    raise NumericalFailureError("inverse iteration for sigma_min did not converge")


def resolvent_norm(op, z, dense_cutoff=DENSE_SVD_CUTOFF):
    """Operator norm of the truncated resolvent, 1/sigma_min(M - z).

    Returns ``inf`` (the infinity signal) when sigma_min falls below
    1e-14 * ||M||, i.e. when z is numerically an eigenvalue.  Uses a full
    SVD up to ``dense_cutoff`` basis size and LU-based inverse iteration
    beyond it.
    """
    M = op.matrix
    B = M - complex(z) * np.eye(M.shape[0])
    if M.shape[0] <= dense_cutoff:
        smin = _sigma_min_dense(B)
    else:
        smin = _sigma_min_inverse_iteration(B)
    scale = float(np.linalg.norm(M))
    if smin < INFINITY_SIGMA_RTOL * max(scale, 1e-300):
        return math.inf
    return 1.0 / smin


def pseudospectrum_grid(op, window, resolution, dense_cutoff=DENSE_SVD_CUTOFF):
    """log10 resolvent norms over a rectangular grid.

    ``window`` is (re0, re1, im0, im1) and ``resolution`` (n_re, n_im).
    Returns (re_axis, im_axis, L) with L[i_im, i_re]; infinity signals
    propagate as +inf entries.
    """
    re0, re1, im0, im1 = window
    n_re, n_im = resolution
    re_axis = np.linspace(re0, re1, n_re)
    im_axis = np.linspace(im0, im1, n_im)

    def row(im):
        out = []
        for re in re_axis:
            nrm = resolvent_norm(op, complex(re, im), dense_cutoff)
            out.append(math.log10(nrm) if math.isfinite(nrm) else math.inf)
        return out

    return re_axis, im_axis, np.array([row(im) for im in im_axis])


def scaling_check(q, h, h2, degree, fraction=0.25):
    """Deviation of the truncated spectrum from exact h-scaling.

    Every eigenvalue in the ``fraction`` of smallest-modulus ones at
    parameter h must be matched by (h/h2) times an eigenvalue at h2; the
    comparison set carries a few extra values so that a modulus tie at the
    cut boundary cannot orphan a legitimate match.  Returns the maximal
    relative deviation over the trusted set.
    """
    if h <= 0 or h2 <= 0:
        raise ValueError("h and h2 must be positive")
    op1 = quantize_quadratic(q, HermiteTruncation(q.dim, degree, h))
    op2 = quantize_quadratic(q, HermiteTruncation(q.dim, degree, h2))
    count = max(1, int(op1.trunc.size * fraction))
    slack = min(op1.trunc.size, count + 2 * q.dim + 4)
    e1 = spectrum_truncated(op1, count)
    e2 = (h / h2) * spectrum_truncated(op2, slack)
    worst = 0.0
    for a in e1:
        dev = np.min(np.abs(e2 - a)) / max(abs(a), 1e-300)
        worst = max(worst, float(dev))
    return worst


def suggested_degree(radius, h, dim, safety=2.0, floor=24):
    """Truncation degree whose half energy cutoff covers ``radius * safety``."""
    need = math.ceil(2.0 * radius * safety / h - dim)
    return max(floor, need)
