"""Finite Hermite-basis truncations of quadratic Weyl operators.

Quadratic symbols act on the harmonic-oscillator eigenbasis with total-degree
bandwidth at most 2; ``quantize_quadratic`` assembles the Galerkin matrix in
closed form from the normal-ordered ladder terms of the symbol, each of which
sends a basis vector to one basis vector with a factor sqrt(integer).
Eigenvalues of the truncation inside the numerical range of a strongly
non-normal symbol can be spurious; spectra and resolvent norms should
always be compared across two truncation levels.

``TruncatedWeylOperator.matrix`` is a scipy sparse CSC matrix (0.4% of its
entries are nonzero for kfp at N = 36, basis size 703).  A quadratic symbol
moves the total degree |k| by -2, 0 or +2, so the matrix never couples the
two parities of |k|, and a symbol without a_m a_l or a_m^+ a_l^+ terms
(kfp) keeps |k| fixed: its matrix splits into the N + 1 degree shells.
``TruncatedWeylOperator.blocks`` holds the connected components of the
stored pattern, which finds every such split with no tolerance (2 blocks
for a generic symbol, 4 for ``wedge_model``, N + 1 for kfp, n for the
harmonic oscillator).  sigma_min of a direct sum is the smallest of its
summands' values, and the spectrum is the union of theirs.
``resolvent_norm`` computes 1/sigma_min(M - z) for a scalar or an array of
shifts, with one finiteness check and one ||M||_F per call, as the smallest
value over ``TruncatedWeylOperator._sigma_parts``: the dense blocks stacked
by size, then the sparse ones.  ``_engine``, the one rule, picks per part
and call from the block size m and the number of shifts k:

- "sparse", a block larger than ``DENSE_SVD_CUTOFF`` (110): B - z is
  factored with SuperLU, and ARPACK runs Lanczos on the real symmetric 2m
  embedding of v -> (B - z)^{-1} (B - z)^{-H} v, whose largest eigenvalue is
  1/sigma_min^2 (Wright & Trefethen, SIAM J. Sci. Comput. 23, 2001), to a
  residual tolerance of 1e-10; the Ritz value's error is quadratic in it.
- "schur", blocks of size m >= ``SCHUR_MIN_SIZE`` (40) when k m^2 >=
  ``SCHUR_MIN_WORK`` (5e5): one complex Schur form B = Q T Q^H per block,
  kept with the operator, so sigma_min(B - z) = sigma_min(T - z); then
  Lanczos on (T - z)^{-1} (T - z)^{-H}, two O(m^2) triangular solves per
  step, batched over the shifts (``_sigma_min_schur``; Lui, SIAM J. Sci.
  Comput. 18, 1997; Trefethen, Acta Numerica 8, 1999).
- "dense", any other block: one SVD per shift, stacked over the blocks of
  one size.

Both Lanczos engines start from a fixed vector, so results are reproducible
at a fixed BLAS thread count.  In a "dense" or "sparse" part each shift
takes the same arithmetic as a scalar call.  In a "schur" part it runs
alongside the call's other shifts, so an array call matches scalar calls to
rounding (a few u ||B - z|| ||(B - z)^{-1}||, as any backward-stable
sigma_min does), not bit for bit.  Either way, sigma_min below
1e-14 ||M||_F (an exactly singular LU factor or a zero pivot of T - z
included) is reported as an infinite norm, the infinity signal.  Spectra
(``spectrum_truncated``) use a dense eigensolver on each block.

The constants rest on single-threaded per-shift times on one block (a
2-core Xeon VM, OpenBLAS).  Dense SVD and SuperLU + ARPACK cross at m of
about 111 to 121 for d = 1 and 105 to 120 for d = 2; at the cutoff of 110,
davies at h = 0.1, N = 260 (blocks 131 and 130) takes 4.2-4.3 ms per shift,
against 7.8-8.2 ms on dense SVDs under the former cutoff of 140.  The Schur
engine overtakes per-shift SVDs on davies blocks (h = 0.05, shifts over the
window 0..3 x -0.5..2) between 144 and 192 shifts for m = 51 (0.16 against
0.22 ms per shift at 480), by 96 for m = 61 and by 480 for m = 41 (0.22
against 0.25 ms); on wedge (h = 0.1, m = 66) by 64 shifts.  k m^2 = 5e5
(192 shifts at m = 51, 298 at m = 41, 115 at m = 66) sits at or above
these.  Below m = 40 it does not pay at 1200 shifts (m = 31: 0.13 against
0.11 ms).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, NumericalFailureError
from .lattice import RegionSpec, _simplex_indices, sample_admissible, stable_eigenvalues
from .symplectic import hamilton_map

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
    "probe_theorem",
]

DENSE_SVD_CUTOFF = 110  # largest block kept dense
SCHUR_MIN_SIZE = 40  # smallest block the Schur engine takes
SCHUR_MIN_WORK = 5e5  # shifts x m^2 from which the Schur engine takes a block
INFINITY_SIGMA_RTOL = 1e-14
# Lanczos residual tolerance; a Hermitian Ritz value's error is quadratic in it
_LANCZOS_TOL = 1e-10
_LANCZOS_CHUNK = 64  # Schur engine: shifts per chunk; the basis holds steps x 64 x m complex
_LANCZOS_CHECK = 4  # Schur engine: steps between convergence checks
MIN_DEGREE = 24  # smallest truncation degree suggested_degree returns
PROBE_CONVERGE_RTOL = 0.05  # probe_theorem: relative norm change between levels
PROBE_MAX_ROUNDS = 3  # probe_theorem: degree increases before giving up


def multi_indices(dim, degree):
    """(n, dim) int array of the multi-indices with |k| <= degree, graded-lex.

    The simplex sum_j (1 + 2 k_j) / 2 <= degree + dim / 2 is enumerated in
    lexicographic order, which a stable sort by |k| keeps within each degree.
    """
    k = _simplex_indices(np.full(dim, 0.5), degree + dim / 2)
    return k[np.argsort(k.sum(1), kind="stable")]


@dataclass(frozen=True)
class HermiteTruncation:
    """Basis of oscillator eigenfunctions with total degree <= degree."""

    dim: int
    degree: int
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise DomainError(f"h must be positive and finite, got {self.h}")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    @property
    def size(self):
        return math.comb(self.degree + self.dim, self.dim)

    @property
    def energy_cutoff(self):
        """Trust-region heuristic: oscillator energy reached at the cutoff."""
        return self.h * (self.degree + self.dim)


@dataclass(frozen=True)
class TruncatedWeylOperator:
    """Galerkin matrix of a Weyl operator as a scipy sparse CSC matrix."""

    trunc: HermiteTruncation
    matrix: sp.csc_matrix = field(repr=False)

    @cached_property
    def blocks(self):
        """Diagonal blocks of the matrix, as (basis indices, block) pairs.

        The blocks are the connected components of the stored pattern, so
        no stored entry joins two of them and together they hold all of M;
        ``quantize_quadratic`` stores no exact zeros, so the split needs no
        tolerance.  Blocks are ordered by their smallest index, and indices
        are increasing within a block.  A block of size <= ``DENSE_SVD_CUTOFF``
        is a dense array, a larger one CSC.  Built on first use and kept.
        """
        M = self.matrix
        n = M.shape[0]
        rows, cols = M.indices, np.repeat(np.arange(n), np.diff(M.indptr))
        # min-label propagation with pointer jumping: at the fixed point every
        # index carries the smallest index of its component
        root = np.arange(n)
        while True:
            low = np.minimum(root[rows], root[cols])
            new = root.copy()
            np.minimum.at(new, rows, low)
            np.minimum.at(new, cols, low)
            while not np.array_equal(new[new], new):
                new = new[new]
            if np.array_equal(new, root):
                break
            root = new
        _, labels = np.unique(root, return_inverse=True)
        perm = np.argsort(labels, kind="stable")
        P = M[perm][:, perm]
        sizes = np.bincount(labels)
        ends = np.cumsum(sizes)
        # P is block-diagonal; the place of each stored entry in its block
        per_col = np.diff(P.indptr)
        offset = np.repeat(np.repeat(ends - sizes, sizes), per_col)
        rows = P.indices - offset
        cols = np.repeat(np.arange(n), per_col) - offset
        out = []
        for stop, size in zip(ends, sizes):
            sel = slice(P.indptr[stop - size], P.indptr[stop])
            if size <= DENSE_SVD_CUTOFF:
                b = np.zeros((size, size), dtype=P.dtype)
                b[rows[sel], cols[sel]] = P.data[sel]
            else:
                b = sp.csc_matrix((P.data[sel], (rows[sel], cols[sel])), shape=(size, size))
            out.append((perm[stop - size:stop], b))
        return tuple(out)

    @cached_property
    def _sigma_parts(self):
        """The parts ``resolvent_norm`` takes sigma_min over: the dense
        ``blocks`` of each size stacked into one (count, m, m) array, then the
        sparse ones."""
        stacks, sparse = {}, []
        for _, b in self.blocks:
            if sp.issparse(b):
                sparse.append(b)
            else:
                stacks.setdefault(len(b), []).append(b)
        return [np.stack(g) for g in stacks.values()] + sparse

    @cached_property
    def _schur_forms(self):
        """The filled entries of ``_schur``, by stack."""
        return {}

    def _schur(self, i):
        """Complex Schur factors T of the blocks of dense stack i of
        ``_sigma_parts``, so that sigma_min(B - z) = sigma_min(T - z);
        computed on first use and kept."""
        import scipy.linalg as sla

        if i not in self._schur_forms:
            self._schur_forms[i] = [sla.schur(b, output="complex")[0] for b in self._sigma_parts[i]]
        return self._schur_forms[i]


def quantize_quadratic(q, trunc):
    """Galerkin matrix of the Weyl operator of a quadratic symbol.

    x_j = c(a_j + a_j^+) and hD_j = -ic(a_j - a_j^+) with c^2 = h/2.  From
    the blocks xx, xp, px, pp of (h/2) A, entrywise so that cancelling
    coefficients are exactly 0, P = xx - pp - i(xp + px),
    Q = xx - pp + i(xp + px) and R = xx + pp + i(px - xp).  a_m a_l sends
    |k> to sqrt(k_l (k_m - d_ml)) |k - e_m - e_l>, a_m^+ a_l (m != l) to
    sqrt(k_l (k_m + 1)) |k + e_m - e_l>, and a_m^+ a_l^+ fills the
    transposed positions of a_m a_l: no extended basis is needed.
    """
    if q.dim != trunc.dim:
        raise ValueError("symbol and truncation dimensions differ")
    d, N = trunc.dim, trunc.degree
    k = multi_indices(d, N)
    At = (0.5 * trunc.h) * q.matrix
    xx, xp, px, pp = At[:d, :d], At[:d, d:], At[d:, :d], At[d:, d:]
    P = xx - pp - 1j * (xp + px)
    Q = xx - pp + 1j * (xp + px)
    R = xx + pp + 1j * (px - xp)
    # the code (|k|, k_1, ..., k_d) in base N + 1 increases along graded order
    w = (N + 1) ** np.arange(d, -1, -1)
    code = np.column_stack((k.sum(1), k)) @ w

    diag = sum(R[m, m] * (2 * k[:, m] + 1) for m in range(d))
    entries = [(np.arange(len(k)), np.arange(len(k)), diag)]
    for m in range(d):
        for l in range(d):
            if l >= m:  # a_m a_l, and a_m^+ a_l^+ on the transposed positions
                f = k[:, l] * (k[:, m] - (m == l))
                src = np.flatnonzero(f > 0)
                tgt = np.searchsorted(code, code[src] - 2 * w[0] - w[1 + m] - w[1 + l])
                s = (1.0 if m == l else 2.0) * np.sqrt(f[src])
                entries += [(tgt, src, P[m, l] * s), (src, tgt, Q[m, l] * s)]
            if l != m:  # a_m^+ a_l; the m == l terms and tr R make up diag
                src = np.flatnonzero(k[:, l] > 0)
                f = k[src, l] * (k[src, m] + 1)
                tgt = np.searchsorted(code, code[src] + w[1 + m] - w[1 + l])
                entries.append((tgt, src, 2.0 * R[m, l] * np.sqrt(f)))
    rows, cols, vals = (np.concatenate(a) for a in zip(*entries))
    keep = vals != 0
    M = sp.csc_matrix((vals[keep], (rows[keep], cols[keep])), shape=(len(k),) * 2, dtype=complex)
    return TruncatedWeylOperator(trunc, M)


def spectrum_truncated(op, count):
    """The ``count`` eigenvalues of the truncation of smallest modulus,
    from a dense eigensolver on each of ``op.blocks``."""
    if count > op.trunc.size:
        raise ValueError(f"count {count} exceeds basis size {op.trunc.size}")
    try:
        evals = np.concatenate([
            np.linalg.eigvals(b.toarray() if sp.issparse(b) else b)
            for _, b in op.blocks
        ])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"dense eigensolver failed: {exc}") from exc
    order = np.lexsort((evals.imag, evals.real, np.abs(evals)))
    return evals[order][:count]


def _sigma_min_sparse(B):
    """Smallest singular value of a sparse square B from one SuperLU factor.

    The largest eigenvalue of the Hermitian operator
    (B^H B)^{-1} = B^{-1} B^{-H} is 1/sigma_min^2.  ARPACK runs Lanczos on
    its real symmetric 2n embedding [[Re, -Im], [Im, Re]], which has the
    same eigenvalues, each doubled, from a seeded real start vector, so the
    result is reproducible.  An exactly singular factor gives 0.
    """
    import scipy.sparse.linalg as spla

    n = B.shape[0]
    try:
        lu = spla.splu(B)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        if "singular" not in str(exc):
            raise NumericalFailureError(f"SuperLU for sigma_min failed: {exc}") from exc
        return 0.0

    def inv_gram(u):
        w = lu.solve(lu.solve(u[:n] + 1j * u[n:], trans="H"))
        return np.concatenate((w.real, w.imag))

    op = spla.LinearOperator((2 * n, 2 * n), matvec=inv_gram, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(2 * n)
    try:
        lam = spla.eigsh(op, k=1, which="LA", tol=_LANCZOS_TOL, v0=v0,
                         return_eigenvectors=False)
    except spla.ArpackError as exc:  # ArpackNoConvergence is a subclass
        raise NumericalFailureError(f"ARPACK for sigma_min failed: {exc}") from exc
    lam = float(lam[0])
    if not math.isfinite(lam):  # B^{-1} overflowed: numerically singular
        return 0.0
    return 1.0 / math.sqrt(lam)


def _sigma_min_schur(T, zs):
    """sigma_min(T - z) of an upper triangular T for a 1-D array of shifts.

    Lanczos on (T - z)^{-1} (T - z)^{-H}, whose largest eigenvalue is
    1/sigma_min^2, over ``_LANCZOS_CHUNK`` shifts at a time, each from one
    seeded vector.  A step is two triangular solves, each a loop over the
    rows of T vectorised across the shifts, then full reorthogonalisation
    (twice) against each shift's basis.  Every ``_LANCZOS_CHECK`` steps (and
    when w vanishes or overflows) the tridiagonal matrices are solved, and a
    shift whose largest Ritz value has a residual below ``_LANCZOS_TOL``
    times itself is finished and dropped from the chunk.  A shift on a
    diagonal entry of T (an exact zero pivot), or whose solves overflow,
    gives 0.
    """
    m = len(T)
    lower = [T[:i, i].conj() for i in range(m)]  # row i of T^H left of the diagonal
    upper = [T[i, i + 1:] for i in range(m)]
    diag = np.diag(T)[:, None]
    q0 = np.random.default_rng(0).standard_normal(m)
    q0 /= np.linalg.norm(q0)
    out = np.zeros(len(zs))
    todo = np.flatnonzero((diag != zs).all(0))
    # the conjugated basis of each shift of the chunk in its first rows, one
    # row per step; np.zeros maps it lazily, so only rows written take memory
    Vh = np.zeros((min(_LANCZOS_CHUNK, len(todo)), m, m), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(todo), _LANCZOS_CHUNK):
            run = todo[start:start + _LANCZOS_CHUNK]  # the chunk's unfinished shifts
            d = diag - zs[run]
            q = np.repeat(q0[:, None], len(run), 1).astype(complex)
            Vh[:, 0] = q0
            ab = np.zeros((len(run), m, 2))  # alpha, beta per step
            for n in range(1, m + 1):  # n steps taken at the end of the body
                dh = d.conj()
                y = np.empty_like(q)
                for i in range(m):
                    y[i] = (q[i] - lower[i] @ y[:i]) / dh[i]
                w = np.empty_like(q)
                for i in range(m - 1, -1, -1):
                    w[i] = (y[i] - upper[i] @ w[i + 1:]) / d[i]
                ab[:, n - 1, 0] = np.einsum("ms,ms->s", q.conj(), w).real
                basis = Vh[:len(run), :n]
                for _ in range(2):
                    c = (basis @ w.T[:, :, None]).conj()
                    w -= (basis.transpose(0, 2, 1) @ c)[:, :, 0].T.conj()
                b = ab[:, n - 1, 1] = np.linalg.norm(w, axis=0)
                ok = np.isfinite(b)
                if not (n % _LANCZOS_CHECK and n < m and (ok & (b > 0)).all()):
                    k = np.arange(n)
                    tri = np.zeros((ok.sum(), n, n))
                    tri[:, k, k] = ab[ok, :n, 0]
                    tri[:, k[1:], k[:-1]] = tri[:, k[:-1], k[1:]] = ab[ok, :n - 1, 1]
                    ev, vec = np.linalg.eigh(tri)
                    top = ev[:, -1]
                    conv = (b[ok] * np.abs(vec[:, -1, -1]) <= _LANCZOS_TOL * top) | (n == m)
                    out[run[ok][conv]] = 1.0 / np.sqrt(top[conv])
                    keep = ok.copy()
                    keep[ok] = ~conv
                    if not keep.any():
                        break
                    run, d, w, b, ab = run[keep], d[:, keep], w[:, keep], b[keep], ab[keep]
                    Vh[:len(run), :n] = Vh[np.flatnonzero(keep), :n]
                q = w / b
                Vh[:len(run), n] = q.T.conj()
    return out


def _engine(part, shifts):
    """The sigma_min engine of one of ``_sigma_parts`` in a call with
    ``shifts`` shifts, the one rule (module docstring): "sparse" for a CSC
    block, "schur" for a stack of m x m blocks with m >= ``SCHUR_MIN_SIZE``
    and shifts * m^2 >= ``SCHUR_MIN_WORK``, else "dense"."""
    if sp.issparse(part):
        return "sparse"
    m = part.shape[-1]
    return "schur" if m >= SCHUR_MIN_SIZE and shifts * m * m >= SCHUR_MIN_WORK else "dense"


def _sigma_min(B, z):
    """sigma_min(B - z) of a sparse matrix (SuperLU + ARPACK), or the
    smallest over a (count, m, m) stack of dense ones, by one SVD call."""
    m = B.shape[-1]
    if isinstance(B, np.ndarray):
        return float(np.linalg.svd(B - z * np.eye(m), compute_uv=False)[..., -1].min())
    return _sigma_min_sparse(B - z * sp.identity(m, dtype=complex, format="csc"))


def resolvent_norm(op, z):
    """Operator norm of the truncated resolvent, 1/sigma_min(M - z).

    ``z`` is a complex scalar or array: a 0-d input gives a float, an array
    an array of its shape.  Each shift takes the smallest sigma_min over
    ``op._sigma_parts``, each part by the engine ``_engine`` picks for it
    and the number of shifts.  Returns ``inf`` (the infinity signal) where
    sigma_min falls below 1e-14 * ||M||_F, i.e. where z is numerically an
    eigenvalue.  A non-finite z raises DomainError.
    """
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise DomainError(f"z must be finite, got {z[~np.isfinite(z)].flat[0]}")
    zs = z.ravel()
    floor = INFINITY_SIGMA_RTOL * max(float(np.linalg.norm(op.matrix.data)), 1e-300)
    smin = np.full(zs.shape, np.inf)
    for i, part in enumerate(op._sigma_parts):
        if _engine(part, zs.size) == "schur":
            s = np.min([_sigma_min_schur(T, zs) for T in op._schur(i)], axis=0)
        else:
            s = [_sigma_min(part, zi) for zi in zs.tolist()]
        smin = np.minimum(smin, s)
    out = np.array([math.inf if s < floor else 1.0 / s for s in smin.tolist()]).reshape(z.shape)
    return float(out) if out.ndim == 0 else out


def pseudospectrum_grid(op, window, resolution):
    """log10 resolvent norms over a rectangular grid.

    ``window`` is (re0, re1, im0, im1) and ``resolution`` (n_re, n_im).
    Returns (re_axis, im_axis, L) with L[i_im, i_re]; infinity signals
    propagate as +inf entries.  A non-finite window value raises DomainError.
    """
    if not all(math.isfinite(v) for v in window):
        raise DomainError(f"window must be finite, got {list(window)}")
    re0, re1, im0, im1 = window
    n_re, n_im = resolution
    re_axis = np.linspace(re0, re1, n_re)
    im_axis = np.linspace(im0, im1, n_im)
    zs = np.empty((n_im, n_re), dtype=complex)
    zs.real, zs.imag = re_axis, im_axis[:, None]
    norms = resolvent_norm(op, zs).ravel().tolist()
    L = [math.log10(v) if math.isfinite(v) else math.inf for v in norms]
    return re_axis, im_axis, np.array(L).reshape(zs.shape)


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


def suggested_degree(radius, h, dim, safety=2.0):
    """Truncation degree whose half energy cutoff covers ``radius * safety``,
    at least MIN_DEGREE."""
    if not 0 < safety < math.inf:
        raise DomainError(f"safety must be positive and finite, got {safety}")
    need = math.ceil(2.0 * radius * safety / h - dim)
    return max(MIN_DEGREE, need)


def probe_theorem(q, h_values, C0, C1, inner_mult=3.0, samples=20, seed=0, safety=2.0):
    """Resolvent norms at admissible points across an h-ladder, with fit.

    For each h the truncation degree starts at the energy-cutoff suggestion
    and grows by 10 until the sampled norms agree with the next level to
    PROBE_CONVERGE_RTOL, for at most PROBE_MAX_ROUNDS increases; the
    returned rows use the finer level.  The fit is the least-squares slope
    of log norm against log(1/h).
    """
    if samples < 1 or seed < 0:
        raise DomainError(f"need samples >= 1 and seed >= 0, got {samples} and {seed}")
    spec = stable_eigenvalues(hamilton_map(q))
    rng = np.random.default_rng(seed)
    rows = []
    max_rel = 0.0
    degrees = {}
    for h in h_values:
        region = RegionSpec(h=h, C0=C0, C1=C1, dim=q.dim, inner_radius=inner_mult * h)
        zs = sample_admissible(region, spec, samples, rng)
        degree = suggested_degree(region.outer_radius, h, q.dim, safety=safety)
        op = quantize_quadratic(q, HermiteTruncation(q.dim, degree, h))
        norms = resolvent_norm(op, zs)
        for _ in range(PROBE_MAX_ROUNDS):
            finer = degree + 10
            op_f = quantize_quadratic(q, HermiteTruncation(q.dim, finer, h))
            norms_f = resolvent_norm(op_f, zs)
            ok = np.isfinite(norms) & np.isfinite(norms_f)
            rel = (
                float(np.max(np.abs(norms_f[ok] - norms[ok]) / norms_f[ok]))
                if ok.any()
                else math.inf
            )
            degree, norms = finer, norms_f
            if rel <= PROBE_CONVERGE_RTOL:
                break
        else:
            raise NumericalFailureError(
                f"resolvent norms did not stabilize in N at h={h}"
            )
        max_rel = max(max_rel, rel)
        degrees[h] = degree
        rows.extend((h, z, float(nv)) for z, nv in zip(zs, norms))
    finite = [r for r in rows if math.isfinite(r[2])]
    if len(finite) >= 2 and len({r[0] for r in finite}) >= 2:
        xs = np.log([1.0 / r[0] for r in finite])
        ys = np.log([r[2] for r in finite])
        exponent = float(np.polyfit(xs, ys, 1)[0])
    else:
        # a growth exponent needs at least two distinct h values
        exponent = math.nan
    return rows, exponent, max_rel, degrees
