"""Finite Hermite-basis truncations of quadratic Weyl operators.

Quadratic symbols act on the harmonic-oscillator eigenbasis with total-degree
bandwidth at most 2, so the Galerkin matrix is computed exactly (up to
rounding) from ladder operators assembled on a once-extended index set.
Eigenvalues of the truncation inside the numerical range of a strongly
non-normal symbol can be spurious; spectra and resolvent norms should
always be compared across two truncation levels.

``TruncatedWeylOperator.matrix`` is a scipy sparse CSC matrix (0.4% of its
entries are nonzero for kfp at N = 36, basis size 703).  ``resolvent_norm``
computes 1/sigma_min(M - z) by one of two methods, chosen by the basis
size n:

- n <= ``DENSE_SVD_CUTOFF`` (140): a full dense SVD of M - z; the dense
  form of M is built once per operator and reused for every shift.
- larger n: one SuperLU factorization of the sparse B = M - z, then ARPACK
  on v -> B^{-1} B^{-H} v, whose largest eigenvalue is 1/sigma_min^2
  (Wright & Trefethen, SIAM J. Sci. Comput. 23, 2001).  The start vector
  is fixed, so the result is reproducible at a fixed BLAS thread count.

The cutoff is the measured crossover of the two methods' single-threaded
run times (about 105 for d = 1, 140 to 145 for d = 2 and 3).  Either way,
sigma_min below 1e-14 ||M||_F (or an exactly singular LU factor) is
reported as an infinite norm, the infinity signal.  Spectra
(``spectrum_truncated``) use a dense eigensolver.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
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

DENSE_SVD_CUTOFF = 140
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
    """Galerkin matrix of a Weyl operator as a scipy sparse CSC matrix."""

    trunc: HermiteTruncation
    matrix: sp.csc_matrix = field(repr=False)

    @cached_property
    def dense(self):
        """The matrix as a dense array, built on first use and kept."""
        return self.matrix.toarray()


def _ladder_ops(dim, degree, h):
    """Basis size and position/scaled-derivative matrices on |k| <= degree."""
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
    return n, xs + ps


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
    n_ext, ops = _ladder_ops(d, N + 2, h)
    A = q.matrix
    M = sp.csr_matrix((n_ext, n_ext), dtype=complex)
    for i in range(2 * d):
        for j in range(i, 2 * d):
            coeff = A[i, j] if i == j else 2.0 * A[i, j]
            if coeff == 0:
                continue
            M = M + coeff * (ops[i] @ ops[j] + ops[j] @ ops[i]) * 0.5
    # graded order makes the degree-N basis a prefix of the extended one
    n = trunc.size
    return TruncatedWeylOperator(trunc, M[:n, :n].tocsc())


def spectrum_truncated(op, count):
    """The ``count`` eigenvalues of the truncation of smallest modulus."""
    if count > op.trunc.size:
        raise ValueError(f"count {count} exceeds basis size {op.trunc.size}")
    try:
        evals = np.linalg.eigvals(op.dense)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"dense eigensolver failed: {exc}") from exc
    order = np.lexsort((evals.imag, evals.real, np.abs(evals)))
    return evals[order][:count]


def _sigma_min_sparse(B):
    """Smallest singular value of a sparse square B from one SuperLU factor.

    ARPACK finds the largest eigenvalue 1/sigma_min^2 of the Hermitian
    operator (B^H B)^{-1} = B^{-1} B^{-H}; ``tol=0`` asks for machine
    precision and the seeded start vector makes the result reproducible.
    An exactly singular factor gives 0.
    """
    import scipy.sparse.linalg as spla

    n = B.shape[0]
    try:
        lu = spla.splu(B)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        if "singular" not in str(exc):
            raise
        return 0.0
    inv_gram = spla.LinearOperator(
        (n, n), matvec=lambda v: lu.solve(lu.solve(v, trans="H")), dtype=complex
    )
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    try:
        lam = spla.eigsh(inv_gram, k=1, which="LM", tol=0, v0=v0, return_eigenvectors=False)
    except spla.ArpackError as exc:  # ArpackNoConvergence is a subclass
        raise NumericalFailureError(f"ARPACK for sigma_min failed: {exc}") from exc
    lam = float(lam[0])
    if not math.isfinite(lam):  # B^{-1} overflowed: numerically singular
        return 0.0
    return 1.0 / math.sqrt(lam)


def resolvent_norm(op, z):
    """Operator norm of the truncated resolvent, 1/sigma_min(M - z).

    Returns ``inf`` (the infinity signal) when sigma_min falls below
    1e-14 * ||M||_F, i.e. when z is numerically an eigenvalue.  Uses a
    dense SVD up to ``DENSE_SVD_CUTOFF`` basis size and sparse LU with
    ARPACK beyond it.
    """
    M = op.matrix
    n = M.shape[0]
    if n <= DENSE_SVD_CUTOFF:
        B = op.dense - complex(z) * np.eye(n)
        smin = float(np.linalg.svd(B, compute_uv=False)[-1])
    else:
        smin = _sigma_min_sparse(M - complex(z) * sp.identity(n, dtype=complex, format="csc"))
    scale = float(np.linalg.norm(M.data))
    if smin < INFINITY_SIGMA_RTOL * max(scale, 1e-300):
        return math.inf
    return 1.0 / smin


def pseudospectrum_grid(op, window, resolution):
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
            nrm = resolvent_norm(op, complex(re, im))
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
