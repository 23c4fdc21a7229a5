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

- "sparse", a block larger than ``DENSE_SVD_CUTOFF`` (110): each shift's
  B - z (B's stored diagonal moved) is factored with SuperLU, and groups of
  shifts whose factors hold about ``_BATCH_ENTRIES`` entries (at least one
  factor) run ``_lanczos`` on (B - z)^{-1} (B - z)^{-H}, top eigenvalue
  1/sigma_min^2 (Wright & Trefethen, SIAM J. Sci. Comput. 23, 2001).
- "schur", blocks of size m >= ``SCHUR_MIN_SIZE`` (20) when k m^2 >=
  ``SCHUR_MIN_WORK`` (5e5): one complex Schur form B = Q T Q^H per block,
  so sigma_min(B - z) = sigma_min(T - z); then the same ``_lanczos`` on
  (T - z)^{-1} (T - z)^{-H}, two O(m^2) triangular solves per step,
  batched over the shifts (``_sigma_min_schur``; Lui, SIAM J. Sci.
  Comput. 18, 1997; Trefethen, Acta Numerica 8, 1999).
- "dense", any other block: the blocks of one size stacked, one SVD call
  per stack and chunk of shifts (``_sigma_min_dense``).

``_lanczos``, one three-term recurrence with no stored basis, runs
max(1, 2^15 // m) shifts at a time, so a vector block holds at most
``_BATCH_ENTRIES`` complex entries and a call a few such blocks.
It accepts a shift when a Ritz value next to the top one, the top value or
a ghost copy of it, has a small residual, and raises NumericalFailureError
(exit code 3) after 4 m steps.  The check (``_ritz_check``) takes only the
Ritz values, and the residual of the top one from a pivot recurrence; a
shift with a ghost pair or a pivot that is not positive and finite takes
the Ritz vectors instead, as does a lone shift, for which one ``eigh``
costs less than the pivots' calls.  It starts every shift from one fixed
vector, so results are reproducible at a fixed BLAS thread count.  Each
engine takes a part and all of the call's shifts.  The "dense" one gives
each matrix the LAPACK call of a scalar call, so an array call matches
scalar calls bit for bit; in the two Lanczos engines a shift runs
alongside the call's other shifts, so an array call matches them to
rounding (a few u ||B - z|| ||(B - z)^{-1}||, as any backward-stable
sigma_min does).  Either way, sigma_min below 1e-14 ||M||_F (an exactly
singular LU factor or a zero pivot of T - z included) is reported as an
infinite norm, the infinity signal.  Spectra use a dense eigensolver on
each block.

The constants rest on single-threaded per-shift times on one block (a
2-core Xeon VM, OpenBLAS, medians of 7 interleaved runs), Schur forms
included.  The Schur engine beats per-shift SVDs on davies blocks
(h = 0.05, shifts over 0..3 x -0.5..2) from 96 to 128 shifts at m = 20,
from 48 to 64 at m = 41, 51 and 61 (at m = 51 and 64 shifts, 0.16 against
0.20 ms) and from about 32 at m = 110, and on wedge (h = 0.1, m = 66) from
32 to 48.  Against the dense engine's batched SVDs it wins from 128 to 192 shifts
at m = 20, from 48 to 64 at m = 51 and from 40 at m = 110 (same blocks,
medians of 7 to 9 interleaved runs).  k m^2 = 5e5 (1250 shifts at m = 20,
193 at 51, 42 at 110) sits at or above all of these.  At 1200 shifts it pays
from m = 8 (0.010 against 0.023 ms per-shift, 0.014 against 0.017 ms
batched), below ``SCHUR_MIN_SIZE``; a block smaller than that meets the
work bound only from 1385 shifts.  Dense SVD and SuperLU + Lanczos cross
at m = 81 to 91 (d = 1) and near 90 (d = 2); at 240 shifts the Schur
engine on a densified block beats batched SuperLU up to m = 151 (0.68
against 0.76 ms per shift; family_beta m = 144: 0.69 against 1.84 ms).
"""

import functools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ._linalg import components
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
SCHUR_MIN_SIZE = 20  # smallest block the Schur engine takes
SCHUR_MIN_WORK = 5e5  # shifts x m^2 from which the Schur engine takes a block
INFINITY_SIGMA_RTOL = 1e-14
# Lanczos residual tolerance; a Hermitian Ritz value's error is quadratic in it
_LANCZOS_TOL = 1e-10
# complex entries per Lanczos vector block or stack of shifted SVD copies,
# and stored entries per group of SuperLU factors, which set the shifts a chunk
_BATCH_ENTRIES = 2**15
_LANCZOS_CHECK = 4  # Lanczos steps between convergence checks
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
    """Galerkin matrix of a Weyl operator as a scipy sparse CSC matrix.

    ``_sigma_memo``, when not None, is a dict shared by truncations of one
    symbol at one h (``probe_theorem``): ``resolvent_norm`` keeps each
    block's sigma_min array there under (basis indices, shifts) and does not
    recompute a block it finds."""

    trunc: HermiteTruncation
    matrix: sp.csc_matrix = field(repr=False)
    _sigma_memo: dict | None = field(default=None, repr=False, compare=False)

    @cached_property
    def blocks(self):
        """Diagonal blocks of the matrix, as (basis indices, block) pairs.

        The blocks are the connected components of the stored pattern, so
        no stored entry joins two of them and together they hold all of M;
        ``quantize_quadratic`` stores no exact zeros, so the split needs no
        tolerance.  Blocks are ordered by their smallest index, and indices
        are increasing within a block.  A block of size <= ``DENSE_SVD_CUTOFF``
        is a dense array, a larger one CSC with its whole diagonal stored.  Built
        on first use and kept.
        """
        M = self.matrix
        n = M.shape[0]
        root = components(n, M.indices, np.repeat(np.arange(n), np.diff(M.indptr)))
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
            else:  # every diagonal entry stored, zeros too, so a shift moves only data
                i = np.arange(size)
                ij = (np.r_[rows[sel], i], np.r_[cols[sel], i])
                b = sp.csc_matrix((np.r_[P.data[sel], np.zeros(size)], ij), shape=(size, size))
            out.append((perm[stop - size:stop], b))
        return tuple(out)

    @cached_property
    def _sigma_parts(self):
        """The parts ``resolvent_norm`` takes sigma_min over, as (keys, part)
        pairs: the dense ``blocks`` of each size stacked into one (count, m, m)
        array, then the sparse ones, each with its blocks' basis indices as
        bytes, which with the shifts key ``_sigma_memo``."""
        stacks, sparse = {}, []
        for idx, b in self.blocks:
            if sp.issparse(b):
                sparse.append(([idx.tobytes()], b))
            else:
                stacks.setdefault(len(b), []).append((idx.tobytes(), b))
        return [([k for k, _ in g], np.stack([b for _, b in g])) for g in stacks.values()] + sparse


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


@functools.lru_cache(maxsize=16)
def _start(m):
    """The unit start vector of ``_lanczos`` in dimension m, read-only as it is shared."""
    q0 = np.random.default_rng(0).standard_normal(m)
    q0 /= np.linalg.norm(q0)
    q0.flags.writeable = False
    return q0


def _ritz_check(a, b):
    """The top Ritz value theta of each shift's Lanczos tridiagonal, and
    whether the shift is done.

    ``a`` and ``b`` are (n, shifts) arrays of the alphas and betas, b[-1]
    being the residual norm beta_n.  A shift is done when a Ritz value within
    ``_LANCZOS_TOL`` theta of theta has a residual beta_n |s_n| below that,
    s_n being the last component of its unit Ritz vector (Parlett, The
    Symmetric Eigenvalue Problem, 1998).  The Ritz values come from
    ``eigvalsh``, and |s_n| of theta from the bottom-up pivots of
    theta I - T: delta_n = theta - alpha_n and delta_k = theta - alpha_k -
    beta_k^2 / delta_{k+1}, with x_n = 1, x_k = x_{k+1} delta_{k+1} / beta_k
    and |s_n| = 1 / ||x||.  For k >= 2 the pivots are positive, as
    theta I - T_{k:n} is positive definite (Cauchy interlacing).  A shift
    whose second Ritz value lies within the tolerance of theta (a ghost
    pair), or whose pivots are not all positive and finite, takes the Ritz
    vectors of ``eigh`` instead (``_ritz_check_eigh``), and so does a lone
    shift, for which one ``eigh`` costs less."""
    n, s = a.shape
    tri = np.zeros((s, n * n))  # flattened; stride n + 1 is a diagonal
    tri[:, ::n + 1] = a.T
    tri[:, 1::n + 1] = tri[:, n::n + 1] = b[:-1].T
    tri = tri.reshape(s, n, n)
    if s == 1:  # a lone shift cannot spread the pivots' per-row calls
        return _ritz_check_eigh(tri, b[-1])
    ev = np.linalg.eigvalsh(tri)
    top = ev[:, -1]
    tol = _LANCZOS_TOL * top
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = top - a  # row k becomes delta_{k+1}; rows n - 1 down to 1 are needed
        b2 = b[:-1] ** 2
        for k in range(n - 2, 0, -1):
            np.subtract(d[k], np.divide(b2[k], d[k + 1]), out=d[k])
        # x_{n-1} down to x_1 (x_n = 1); an overflow means |s_n| < 1e-154, read as 0
        x = np.cumprod(d[:0:-1] / b[-2::-1], axis=0)
        conv = b[-1] / np.sqrt(1.0 + (x * x).sum(0)) <= tol
        redo = ~(d[1:] > 0).all(0)  # positive pivots are finite too
    if n > 1:
        redo |= top - ev[:, -2] <= tol
    if redo.any():
        top[redo], conv[redo] = _ritz_check_eigh(tri[redo], b[-1, redo])
    return top, conv


def _ritz_check_eigh(tri, beta):
    """``_ritz_check`` from the Ritz vectors: the top Ritz values of the
    tridiagonals ``tri`` and whether a Ritz value within the tolerance of the
    top one has a residual ``beta`` |s_n| below it."""
    ev, vec = np.linalg.eigh(tri)
    top = ev[:, -1:]
    tol = _LANCZOS_TOL * top
    return top[:, 0], ((top - ev <= tol) & (beta[:, None] * np.abs(vec[:, -1]) <= tol)).any(1)


def _lanczos(m, count, solve):
    """sigma_min of ``count`` shifted m x m matrices B - z from their solves.

    ``solve(q, run)`` returns (B - z)^{-1} (B - z)^{-H} q[:, j] in column j,
    z being shift run[j], in a new array.  Lanczos on that operator (top
    eigenvalue 1/sigma_min^2) runs max(1, ``_BATCH_ENTRIES`` // m) shifts
    at a time as the plain three-term recurrence in Paige's order, updated
    in place: no basis is stored or reorthogonalised against, so lost
    orthogonality only adds ghost copies of converged Ritz values (Paige,
    Linear Algebra Appl. 34, 1980).  Every ``_LANCZOS_CHECK`` steps, at step
    m and when w vanishes or overflows, ``_ritz_check`` drops the shifts that
    are done, which report the top Ritz value; overflowing solves give 0.
    A shift still running after 4 m steps raises NumericalFailureError."""
    q0 = _start(m)
    chunk = max(1, _BATCH_ENTRIES // m)
    out = np.zeros(count)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, count, chunk):
            run = np.arange(start, min(start + chunk, count))  # unfinished shifts
            q = np.repeat(q0[:, None], len(run), 1).astype(complex)
            q_prev, b = np.zeros_like(q), 0.0
            alpha, beta = [], []  # per step, over the shifts in run
            for n in range(1, 4 * m + 1):  # n steps taken at the end of the body
                w = solve(q, run)
                q_prev *= b
                w -= q_prev  # q_prev is scratch from here on
                a = np.einsum("ms,ms->s", np.conjugate(q, out=q_prev), w).real
                w -= np.multiply(q, a, out=q_prev)
                np.multiply(np.conjugate(w, out=q_prev), w, out=q_prev)
                b = np.sqrt(q_prev.real.sum(0))  # the 2-norms
                alpha.append(a)
                beta.append(b)
                ok = np.isfinite(b)
                if not (n % _LANCZOS_CHECK and n != m and (ok & (b > 0)).all()):
                    del q_prev  # scratch, freed for the check and the compression
                    alpha, beta = np.array(alpha), np.array(beta)
                    top, conv = _ritz_check(alpha[:, ok], beta[:, ok])
                    out[run[ok][conv]] = 1.0 / np.sqrt(top[conv])
                    keep = ok.copy()
                    keep[ok] = ~conv
                    if not keep.any():
                        break
                    alpha, beta = list(alpha[:, keep]), list(beta[:, keep])
                    run, q, w, b = run[keep], q[:, keep], w[:, keep], b[keep]
                q_prev, q = q, np.divide(w, b, out=w)
            else:  # 4 m is a multiple of _LANCZOS_CHECK, so the last step was checked
                raise NumericalFailureError(f"Lanczos for sigma_min left {len(run)} of {count} "
                                            f"shifts unconverged after {4 * m} steps (m = {m})")
    return out


def _sigma_min_sparse(B, zs):
    """sigma_min(B - z) of a CSC block B that stores its whole diagonal, for
    a 1-D array of shifts: the "sparse" engine of the module docstring, a
    group's fill being SuperLU's ``nnz``.  An exactly singular factor gives 0."""
    import scipy.sparse.linalg as spla

    m = B.shape[0]
    data, rows, ptr = B.data, B.indices, B.indptr
    diag = rows == np.repeat(np.arange(m), np.diff(ptr))
    out = np.zeros(len(zs))
    idx, lus, fill = [], [], 0  # a group not yet run: its shifts, their factors and entries

    def solve(q, run):
        w = [lus[r].solve(lus[r].solve(q[:, j:j + 1], trans="H")) for j, r in enumerate(run.tolist())]
        return w[0] if len(w) == 1 else np.concatenate(w, axis=1)  # a scalar call skips the copy

    for i, z in enumerate(zs.tolist()):
        try:  # only lus holds a factor, so the factors are freed with their group
            lus.append(spla.splu(sp.csc_matrix((np.where(diag, data - z, data), rows, ptr), shape=B.shape)))
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            if "singular" not in str(exc):
                raise NumericalFailureError(f"SuperLU for sigma_min failed: {exc}") from exc
        else:
            idx.append(i)
            fill += lus[-1].nnz
        if idx and (fill >= _BATCH_ENTRIES or i == len(zs) - 1):
            out[idx] = _lanczos(m, len(idx), solve)
            idx, lus, fill = [], [], 0
    return out


def _sigma_min_schur(B, zs):
    """sigma_min(B - z) of a dense block B for a 1-D array of shifts:
    ``_lanczos`` on (T - z)^{-1} (T - z)^{-H}, T being B's complex Schur
    factor, each solve two loops over the rows of T vectorised across the
    shifts.  A shift on a diagonal entry of T (an exact zero pivot) gives 0."""
    import scipy.linalg as sla

    T = sla.schur(B, output="complex")[0]
    m = len(T)
    lower = [T[:i, i].copy() for i in range(m)]  # row i of T^T left of the diagonal
    upper = [T[i, i + 1:] for i in range(m)]
    diag = np.diag(T)[:, None]
    out = np.zeros(len(zs))
    todo = np.flatnonzero((diag != zs).all(0))
    shifted = [None, None]  # run, and diag - z over it: built again only for a new run

    def solve(q, run):
        if shifted[0] is not run:
            shifted[1] = None  # free the old block before making the new one
            shifted[:] = run, diag - zs[todo[run]]
        d = shifted[1]
        y = q.conj()  # y = (T - z)^{-H} q from (T - z)^T conj(y) = conj(q)
        for i in range(m):
            y[i] = (y[i] - lower[i] @ y[:i]) / d[i]
        np.conjugate(y, out=y)
        for i in range(m - 1, -1, -1):  # then (T - z)^{-1} y, in place
            y[i] = (y[i] - upper[i] @ y[i + 1:]) / d[i]
        return y

    out[todo] = _lanczos(m, len(todo), solve)
    return out


def _sigma_min_dense(stack, zs, per_block):
    """sigma_min(B - z) of the blocks B of a (count, m, m) stack for a 1-D
    array of shifts: one SVD call over the stack per chunk of
    max(1, ``_BATCH_ENTRIES`` // (count m^2)) shifts, so a chunk's shifted
    copies hold at most ``_BATCH_ENTRIES`` entries.  Each matrix takes the
    LAPACK call a lone shift would.  Returns the smallest value over the
    stack per shift, or with ``per_block`` each block's values as a
    (count, shifts) array."""
    count, m, _ = stack.shape
    chunk = max(1, _BATCH_ENTRIES // (count * m * m))
    eye = np.eye(m)
    out = np.empty((count, len(zs)) if per_block else len(zs))
    for start in range(0, len(zs), chunk):
        zc = zs[start:start + chunk, None, None, None]
        s = np.linalg.svd(stack - zc * eye, compute_uv=False)[..., -1]
        out[..., start:start + chunk] = s.T if per_block else s.min(1)
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


def resolvent_norm(op, z):
    """Operator norm of the truncated resolvent, 1/sigma_min(M - z).

    ``z`` is a complex scalar or array: a 0-d input gives a float, an array
    an array of its shape.  Each shift takes the smallest sigma_min over
    ``op._sigma_parts``, each part by the engine ``_engine`` picks for it
    and the number of shifts; a block already in the operator's
    ``_sigma_memo`` (``probe_theorem``) is taken from there.  Returns ``inf``
    (the infinity signal) where sigma_min falls below 1e-14 * ||M||_F, i.e.
    where z is numerically an eigenvalue.  A non-finite z raises DomainError.
    """
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise DomainError(f"z must be finite, got {z[~np.isfinite(z)].flat[0]}")
    floor = INFINITY_SIGMA_RTOL * max(float(np.linalg.norm(op.matrix.data)), 1e-300)
    smin = _sigma_min(op, z.ravel())
    out = np.array([math.inf if s < floor else 1.0 / s for s in smin.tolist()]).reshape(z.shape)
    return float(out) if out.ndim == 0 else out


def _sigma_min(op, zs):
    """The smallest sigma_min(B - z) over ``op.blocks`` for a 1-D array of
    shifts.  A block whose key is in ``op._sigma_memo`` takes the stored
    array; the other blocks of its part are computed, by the engine
    ``_engine`` picks for them, and stored when the operator has a memo."""
    keep = op._sigma_memo is not None
    memo = op._sigma_memo if keep else {}
    tag = zs.tobytes()
    smin = np.full(zs.shape, np.inf)
    for keys, part in op._sigma_parts:
        keys = [(k, tag) for k in keys]
        for k in keys:
            if k in memo:
                np.minimum(smin, memo[k], out=smin)
        new = [r for r, k in enumerate(keys) if k not in memo]
        if not new:
            continue
        if len(new) < len(keys):  # a dense stack; a sparse part is one block
            part = part[new]
        engine = _engine(part, zs.size)
        if engine == "schur":
            s = np.array([_sigma_min_schur(b, zs) for b in part])
        elif engine == "sparse":
            s = _sigma_min_sparse(part, zs)[None]
        else:
            s = _sigma_min_dense(part, zs, per_block=keep)
        if keep:
            memo.update(zip([keys[r] for r in new], s))
        np.minimum(smin, s if s.ndim == 1 else s.min(0), out=smin)
    return smin


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

    The levels at one h are Galerkin matrices of one symbol on nested graded
    bases, so the coarser matrix is the leading submatrix of the finer one,
    and a block of the finer operator whose basis indices all lie in the
    coarser basis is a block of the coarser one with the same entries (all
    N + 1 degree shells of kfp at degree N reappear at N + 10).  The levels
    share a ``_sigma_memo``, so such a block's sigma_min is computed once,
    with the bits a fresh call gives; each level applies its own infinity
    floor.  A symbol whose blocks straddle the coarser basis (davies,
    wedge_model) shares none.
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
        memo = {}

        def level(n):
            return replace(quantize_quadratic(q, HermiteTruncation(q.dim, n, h)), _sigma_memo=memo)

        norms = resolvent_norm(level(degree), zs)
        for _ in range(PROBE_MAX_ROUNDS):
            finer = degree + 10
            norms_f = resolvent_norm(level(finer), zs)
            ok = np.isfinite(norms) & np.isfinite(norms_f)
            rel = math.inf if not ok.any() else float(
                np.max(np.abs(norms_f[ok] - norms[ok]) / norms_f[ok]))
            degree, norms = finer, norms_f
            if rel <= PROBE_CONVERGE_RTOL:
                break
        else:
            raise NumericalFailureError(f"resolvent norms did not stabilize in N at h={h}")
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
