"""Finite Hermite-basis truncations of quadratic Weyl operators.

Quadratic symbols act on the harmonic-oscillator eigenbasis with total-degree
bandwidth at most 2; ``quantize_quadratic`` assembles the Galerkin matrix in
closed form from the normal-ordered ladder terms of the symbol, each of which
sends a basis vector to one basis vector with a factor sqrt(integer).
Eigenvalues of the truncation inside the numerical range of a strongly
non-normal symbol can be spurious; spectra and resolvent norms should
always be compared across two truncation levels (``level_pair``).

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
shifts, with finiteness checks of z and M and one ||M||_F per call, as the
smallest value over ``TruncatedWeylOperator.blocks``, one block at a time.
Every engine takes one block and the call's 1-D shifts and returns one value
per shift.  ``_engine``, the one rule, picks per block and call from the
block size m and the number of shifts k:

- "sparse", a block larger than ``DENSE_SVD_CUTOFF`` (110): each shift's
  B - z (B's stored diagonal moved) is factored with SuperLU, and groups of
  shifts whose factors hold about ``_BATCH_ENTRIES`` entries (at least one
  factor) run ``_lanczos`` on (B - z)^{-1} (B - z)^{-H}, top eigenvalue
  1/sigma_min^2 (Wright & Trefethen, SIAM J. Sci. Comput. 23, 2001).
- "schur", blocks of size m >= ``SCHUR_MIN_SIZE`` (20) when k m^2 >=
  ``SCHUR_MIN_WORK`` (5e5): one complex Schur form B = Q T Q^H per block,
  so sigma_min(B - z) = sigma_min(T - z); then the same ``_lanczos`` on
  (T - z)^{-1} (T - z)^{-H}, two O(m^2) triangular solves per step,
  batched over the shifts, whose rows are updated in place and multiplied
  by reciprocal pivots 1/(t_ii - z) formed once per set of running shifts
  (``_sigma_min_schur``; Lui, SIAM J. Sci. Comput. 18, 1997; Trefethen,
  Acta Numerica 8, 1999).
- "dense", any other block: one SVD call per chunk of max(1, 2^15 // m^2)
  shifts, or |b - z| for a 1 x 1 block (``_sigma_min_dense``).

A block of m >= 2 bound for the "dense" engine, when the running minimum
tau(z) of the blocks before it is finite at every shift, is first tested by
``_exceeds``: one band Cholesky factorization of the Gram matrices
(B - z)^H (B - z) - c I of a chunk of shifts, stacked along one diagonal.
If it completes, the SVD would give a value >= tau at every shift, so the
block's SVDs are skipped and the output bytes stay those of the engines.
Every block is banded (kfp shells and davies blocks tridiagonal): at m = 20,
30 and 37 and 10 shifts the test costs 0.06, 0.08 and 0.08 ms against 0.31,
0.61 and 0.91 ms of SVDs, and it skips 73% of the multi-row kfp shells of a
probe-theorem ladder (all of m >= 17).  The "schur" and "sparse" engines
never try it: at m = 51 and 1200 shifts it costs 0.002 ms a shift where it
holds (the Schur engine 0.03 ms), but it fails on a grid across the spectrum.

``_lanczos``, one three-term recurrence with no stored basis, runs
max(1, 2^15 // m) shifts at a time, so a vector block holds at most
``_BATCH_ENTRIES`` complex entries and a call a few such blocks.  Its
blocks are C-ordered, so each step's alpha = Re q^H w and ||w||^2 are
real products over their float views, and w is scaled by the real 1/beta.
It accepts a shift when a Ritz value next to the top one, the top value or
a ghost copy of it, has a small residual, and raises NumericalFailureError
(exit code 3) after 4 m steps.  The check (``_ritz_check``) takes only the
Ritz values, and the residual of the top one from a pivot recurrence; a
shift with a ghost pair or a pivot that is not positive and finite takes
the Ritz vectors instead, as does a lone shift, for which one ``eigh``
costs less than the pivots' calls.  It starts every shift from one fixed
vector, so results are reproducible at a fixed BLAS thread count.  The
"dense" engine gives each matrix the LAPACK call of a scalar call, so an
array call matches scalar calls bit for bit; in the two Lanczos engines a
shift runs alongside the call's other shifts, so an array call matches
them to rounding (a few u ||B - z|| ||(B - z)^{-1}||, as any
backward-stable sigma_min does).  Either way, sigma_min below
1e-14 ||M||_F (an exactly singular LU factor or a zero pivot of T - z
included) is reported as an infinite norm, the infinity signal.  Spectra
use a dense eigensolver on each block.

The constants rest on single-threaded per-shift times on one block (a
2-core Xeon VM, OpenBLAS, medians of 7 interleaved runs), Schur forms
included.  The Schur engine beats per-shift SVDs on davies blocks
(h = 0.05, shifts over 0..3 x -0.5..2) from 64 to 128 shifts at m = 20,
from 40 to 64 at m = 41, 51 and 61 (at m = 51 and 64 shifts, 0.13 to 0.21
against 0.19 to 0.26 ms) and from 24 to 32 at m = 110, and on wedge
(h = 0.1, m = 66) from 24 to 32.  Against the dense engine's batched SVDs
it wins from 96 to 128 shifts at m = 20, from 40 to 48 at m = 51 and from
24 to 32 at m = 110 (same blocks; two sets of runs where one was not
clear).  k m^2 = 5e5 (1250 shifts at m = 20, 193 at 51, 42 at 110) sits
above all of these.  At 1200 shifts it pays from m = 8 (0.0076 against
0.024 ms per-shift, 0.009 ms batched), below ``SCHUR_MIN_SIZE``; a block
smaller than that meets the work bound only from 1385 shifts.  Dense SVD
and SuperLU + Lanczos cross at m = 81 to 91 (d = 1) and near 90 (d = 2);
at 240 shifts the Schur engine on a densified block ties batched SuperLU
at m = 151 (0.32 against 0.33 ms per shift) and beats it on family_beta
at m = 144 (0.39 against 1.04 ms).
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
    "coarse_degree",
    "level_pair",
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
# complex entries per Lanczos vector block or chunk of shifted matrices, and
# stored entries per group of SuperLU factors, which set the shifts a chunk
_BATCH_ENTRIES = 2**15
_LANCZOS_CHECK = 4  # Lanczos steps between convergence checks
MIN_DEGREE = 24  # smallest truncation degree suggested_degree returns
PROBE_CONVERGE_RTOL = 0.05  # probe_theorem: relative norm change between levels
PROBE_MAX_ROUNDS = 3  # probe_theorem: degree increases before giving up
LEVEL_GAP = 10  # degrees between the truncation levels a convergence check compares


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
    symbol at one h (``level_pair``): ``_sigma_min`` keeps each block's
    sigma_min array there under (basis indices, shifts), and the lower bound
    of a block the Cholesky certificate skipped under (basis indices,
    shifts, "lower bound"), as its docstring says."""

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


def _re_inner(x, y):
    """Re x[:, j]^H y[:, j] for each column j of two C-ordered complex blocks,
    as one real product over their float views, whose adjacent entries are
    the real and imaginary parts."""
    p = np.einsum("ms,ms->s", x.view(float), y.view(float))
    return p[0::2] + p[1::2]


def _lanczos(m, count, solver):
    """sigma_min of ``count`` shifted m x m matrices B - z from their solves.

    ``solver(run)`` returns the solve for the shifts in ``run``: a function
    that maps a block q to a new array, in any memory order, holding
    (B - z)^{-1} (B - z)^{-H} q[:, j] in column j, z being shift run[j].
    Lanczos on that operator (top eigenvalue 1/sigma_min^2) runs max(1,
    ``_BATCH_ENTRIES`` // m) shifts at a time as the plain three-term
    recurrence in Paige's order, updated in place: no basis is stored or
    reorthogonalised against, so lost orthogonality only adds ghost copies
    of converged Ritz values (Paige, Linear Algebra Appl. 34, 1980).  The
    blocks are kept C-ordered, so that alpha = Re q^H w and ||w||^2 are each
    one real product over their float views (``_re_inner``), and w is scaled
    by the real 1/beta.  Every ``_LANCZOS_CHECK`` steps, at step m and when
    w vanishes or overflows, ``_ritz_check`` drops the shifts that are done,
    which report the top Ritz value; overflowing solves give 0.  Only a
    check that drops a shift compresses the blocks and asks ``solver`` for
    the remaining run.  A shift still running after 4 m steps raises
    NumericalFailureError."""
    q0 = _start(m)
    chunk = max(1, _BATCH_ENTRIES // m)
    out = np.zeros(count)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, count, chunk):
            run = np.arange(start, min(start + chunk, count))  # unfinished shifts
            solve = solver(run)
            q = np.repeat(q0[:, None], len(run), 1).astype(complex)
            q_prev, b = np.zeros_like(q), 0.0
            alpha, beta = [], []  # per step, over the shifts in run
            for n in range(1, 4 * m + 1):  # n steps taken at the end of the body
                w = np.ascontiguousarray(solve(q))
                q_prev *= b
                w -= q_prev  # q_prev is scratch from here on
                a = _re_inner(q, w)
                w -= np.multiply(q, a, out=q_prev)
                b = np.sqrt(_re_inner(w, w))  # the 2-norms
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
                    if not keep.all():  # compress() keeps the blocks C-ordered
                        alpha, beta = alpha[:, keep], beta[:, keep]
                        run, q, w, b = run[keep], q.compress(keep, 1), w.compress(keep, 1), b[keep]
                        del solve  # the old run's solve, freed before the new one is made
                        solve = solver(run)
                    alpha, beta = list(alpha), list(beta)
                q_prev, q = q, np.multiply(w, 1.0 / b, out=w)
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

    def solver(run):
        factors = [lus[r] for r in run.tolist()]

        def solve(q):
            return np.concatenate([lu.solve(lu.solve(q[:, j:j + 1], trans="H"))
                                   for j, lu in enumerate(factors)], axis=1)
        return solve

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
            out[idx] = _lanczos(m, len(idx), solver)
            idx, lus, fill = [], [], 0
    return out


def _sigma_min_schur(B, zs):
    """sigma_min(B - z) of a dense block B for a 1-D array of shifts:
    ``_lanczos`` on (T - z)^{-1} (T - z)^{-H}, T being B's complex Schur
    factor, each solve two loops over the rows of T vectorised across the
    shifts.  Each run of shifts ``_lanczos`` asks for gets its reciprocal
    pivots 1/(t_ii - z) once, and each row is updated in place,
    y_i -= T_row . y, then y_i *= 1/(t_ii - z): a step divides no row.
    A shift on a diagonal entry of T (an exact zero pivot) gives 0.  T comes
    from LAPACK's zgees without Schur vectors, which are not needed; a
    non-finite B raises ValueError and a nonzero ``info``
    NumericalFailureError."""
    from scipy.linalg.lapack import zgees

    T, *_, info = zgees(lambda t: None, np.asarray_chkfinite(B), compute_v=0)
    if info:
        raise NumericalFailureError(f"zgees for the Schur form failed: info = {info}")
    m = len(T)
    lower = [T[:i, i].copy() for i in range(m)]  # row i of T^T left of the diagonal
    upper = [T[i, i + 1:] for i in range(m)]
    diag = np.diag(T)[:, None]
    out = np.zeros(len(zs))
    todo = np.flatnonzero((diag != zs).all(0))

    def solver(run):
        r = 1.0 / (diag - zs[todo[run]])  # the reciprocal pivots, once per run

        def solve(q):
            y = q.conj()  # y = (T - z)^{-H} q from (T - z)^T conj(y) = conj(q)
            for i in range(m):
                yi = y[i]
                yi -= lower[i] @ y[:i]
                yi *= r[i]
            np.conjugate(y, out=y)
            for i in range(m - 1, -1, -1):  # then (T - z)^{-1} y, in place
                yi = y[i]
                yi -= upper[i] @ y[i + 1:]
                yi *= r[i]
            return y
        return solve

    out[todo] = _lanczos(m, len(todo), solver)
    return out


def _sigma_min_dense(B, zs):
    """sigma_min(B - z) of a dense m x m block B for a 1-D array of shifts:
    one SVD call per chunk of max(1, ``_BATCH_ENTRIES`` // m^2) shifts, so a
    chunk's shifted copies hold at most ``_BATCH_ENTRIES`` entries.  Each
    matrix takes the LAPACK call a lone shift would.  A 1 x 1 block gives
    |b - z| in closed form."""
    m = len(B)
    if m == 1:  # sigma_min(b - z) = |b - z|
        return np.abs(B[0, 0] - zs)
    chunk = max(1, _BATCH_ENTRIES // (m * m))
    eye = np.eye(m)
    out = np.empty(len(zs))
    for start in range(0, len(zs), chunk):
        zc = zs[start:start + chunk, None, None]
        out[start:start + chunk] = np.linalg.svd(B - zc * eye, compute_uv=False)[:, -1]
    return out


def _exceeds(B, zs, tau):
    """Whether the "dense" engine's value sigma_min(B - z) of an m x m block
    B (m >= 2) is >= tau(z) at every shift of the 1-D array ``zs``, proved
    without an SVD in LAPACK lower band storage.  With b the largest |i - j|
    of B's nonzero entries, A = B - z has the Gram matrix A^H A = B^H B -
    z B^H - conj(z) B + |z|^2 I of kd = min(2 b, m - 1) lower diagonals,
    those of B^H B formed once from B's band.  Per chunk of shifts (at most
    ``_BATCH_ENTRIES`` band entries) one ``zpbtrf`` factors A^H A - c I,
    c = (tau + delta)^2 + kappa, stacked along one diagonal with zero
    couplings; True only if each completes with a finite factor (zpbtrf
    returns info = 0 on NaN and inf entries).

    With F = ||B||_F + sqrt(m) |z| >= ||A||_F and u = 2^-53, delta = m u F
    bounds the engine's own error, |sigma_hat - sigma_min(A)| <= p(m) u ||A||_2
    for a backward-stable SVD with p(m) <= m (p = 1 in the LAPACK Users'
    Guide, 3rd ed., 1999, section 4.9), and kappa = 8 m^2 u F^2 the rounding
    of the test in the 2-norm: sqrt(2) gamma_{m+2} F^2 for fl(B^H B) (at most
    m nonzero terms per inner product; gamma_k = k u / (1 - k u)),
    sqrt(2) gamma_5 F^2 for the sums with B^H and B, 8.5 u F^2 for c and for
    |z|^2 - c on the diagonal (a completed factorization has c <= F^2
    (1 + O(u))), and sqrt(2) gamma_{m+1} F^2 (1 + O(m u)) for the band
    Cholesky factorization (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, section 10.3; at most kd + 1 <= m terms per
    inner product, and zero couplings leave each shift's factor as a lone
    factorization computes it).  These sum to (2 sqrt(2) (m + 4) + 9) u F^2
    (1 + O(m u)) < kappa for m >= 2, so a completed factorization gives
    sigma_min(A) >= tau + delta."""
    from scipy.linalg.lapack import zpbtrf

    m, u = len(B), np.finfo(float).eps / 2
    i, j = np.nonzero(B)
    v, o = B[i, j], i - j
    b = int(np.abs(o).max(initial=0))
    kd = min(2 * b, m - 1)
    C = np.zeros((m + kd, kd + 2 * b + 1), complex)  # C[j, kd + r] = conj(B[j - b + r, j])
    C[j, kd + b + o] = v.conj()
    s0, s1 = C.strides  # V[j, d, r] = conj(B[j - b + r, j + d]), 0 outside B
    V = np.lib.stride_tricks.as_strided(C[:, kd:], (m, kd + 1, 2 * b + 1), (s0, s0 - s1, s1))
    S = np.zeros((3, m, kd + 1), complex)  # [j, d]: entry (j + d, j) of B^H B, B^H and B
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the finite test
        S[0] = (V @ C[:m, kd:, None].conj())[:, :, 0]
        S[1] = V[:, :, b]
        S[2, j[o >= 0], o[o >= 0]] = v[o >= 0]
        chunk = max(1, _BATCH_ENTRIES // (m * (kd + 1)))
        for start in range(0, len(zs), chunk):
            z = zs[start:start + chunk]
            f = math.sqrt(S[0, :, 0].real.sum()) + math.sqrt(m) * np.abs(z)  # ||B||_F from B^H B
            c = (tau[start:start + chunk] + m * u * f) ** 2 + 8 * m * m * u * f * f
            G = np.stack([np.ones(len(z)), -z, -z.conj()], 1) @ S.reshape(3, -1)
            G[:, ::kd + 1] += (z.real ** 2 + z.imag ** 2 - c)[:, None]
            L, info = zpbtrf(G.reshape(-1, kd + 1).T, lower=1, overwrite_ab=1)
            if info or not np.isfinite(L).all():
                return False
    return True


def _engine(block, shifts):
    """The sigma_min engine of a block in a call with ``shifts`` shifts, by
    the one rule of the module docstring."""
    if sp.issparse(block):
        return "sparse"
    m = len(block)
    return "schur" if m >= SCHUR_MIN_SIZE and shifts * m * m >= SCHUR_MIN_WORK else "dense"


_ENGINES = {"sparse": _sigma_min_sparse, "schur": _sigma_min_schur, "dense": _sigma_min_dense}


def resolvent_norm(op, z):
    """Operator norm of the truncated resolvent, 1/sigma_min(M - z).

    ``z`` is a complex scalar or array: a 0-d input gives a float, an array
    an array of its shape.  Each shift takes the smallest sigma_min over
    ``op.blocks``, each block by the engine ``_engine`` picks for it and
    the number of shifts; a block already in the operator's
    ``_sigma_memo`` (``level_pair``) is taken from there, and a
    "dense" block that a band Cholesky certificate proves cannot lower the
    minimum at any shift is skipped (``_sigma_min``), which leaves every
    output bit as the engines alone give it.  Returns ``inf`` (the infinity
    signal) where sigma_min falls below 1e-14 * ||M||_F, i.e. where z is
    numerically an eigenvalue.  A non-finite z or M raises DomainError.
    """
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise DomainError(f"z must be finite, got {z[~np.isfinite(z)].flat[0]}")
    if not np.isfinite(op.matrix.data).all():
        raise DomainError("the operator's matrix has a non-finite entry")
    floor = INFINITY_SIGMA_RTOL * max(float(np.linalg.norm(op.matrix.data)), 1e-300)
    smin = _sigma_min(op, z.ravel())
    out = np.array([math.inf if s < floor else 1.0 / s for s in smin.tolist()]).reshape(z.shape)
    return float(out) if out.ndim == 0 else out


def _sigma_min(op, zs):
    """The smallest sigma_min(B - z) over ``op.blocks`` for a 1-D array of
    shifts, one block at a time, folded into a running minimum tau.

    A block's values come from ``op._sigma_memo`` if there, else from the
    engine ``_engine`` picks (then stored, if there is a memo).  A block
    that would go to the "dense" engine with m >= 2, when tau is finite at
    every shift, is first tested by ``_exceeds``: if that proves the
    engine's value >= tau at every shift, the block cannot lower the
    minimum (np.minimum would return tau's bits), so its SVDs are skipped.
    The memo then keeps tau, a lower bound on the block's values, under its
    own key; a later call skips the block on it only where its own tau is
    <= that bound at every shift, and otherwise treats the block as
    unknown.  A bound never enters the minimum: it can lie below a later
    call's tau when that call's earlier blocks differ."""
    memo = op._sigma_memo
    tag = zs.tobytes()
    smin = np.full(zs.shape, np.inf)
    for idx, b in op.blocks:
        key = (idx.tobytes(), tag)
        s = None if memo is None else memo.get(key)
        if s is None:
            bound = None if memo is None else memo.get((*key, "lower bound"))
            if bound is not None and (smin <= bound).all():
                continue
            engine = _engine(b, zs.size)
            if engine == "dense" and len(b) > 1 and np.isfinite(smin).all() and _exceeds(b, zs, smin):
                if memo is not None:
                    memo[(*key, "lower bound")] = smin.copy()
                continue
            s = _ENGINES[engine](b, zs)
            if memo is not None:
                memo[key] = s
        np.minimum(smin, s, out=smin)
    return smin


def coarse_degree(N):
    """Truncation degree of the two-level convergence check: ``LEVEL_GAP``
    below N, but not under 4 unless N itself is at most 4, so always below N."""
    if N < 1:
        raise DomainError(f"--N must be >= 1 to have a coarser level, got {N}")
    return max(min(4, N - 1), N - LEVEL_GAP)


def level_pair(q, h, N, z, memo=None):
    """``resolvent_norm`` at z of q's truncations at degree N and at
    ``coarse_degree(N)``, as (norms, coarse_norms, rel_change), rel_change
    being the largest |norm - coarse| / norm over the shifts finite at both
    levels, or inf if there is none.

    The levels sit on nested graded bases, so the coarser matrix is the
    leading submatrix of the finer one, and a block of the finer operator
    inside the coarser basis is a block of the coarser one with the same
    entries: all N + 1 degree shells of kfp at degree N reappear at
    N + ``LEVEL_GAP``, while davies and wedge_model blocks straddle the
    coarser basis.  Both levels take ``memo`` (a new dict if None) as their
    ``_sigma_memo``, the coarser first, so a shared block is computed, or
    certified not to lower the minimum, once, with the bits a fresh call
    gives; each level applies its own infinity floor.
    """
    memo = {} if memo is None else memo

    def norms_at(n):
        op = quantize_quadratic(q, HermiteTruncation(q.dim, n, h))
        return resolvent_norm(replace(op, _sigma_memo=memo), z)

    coarse = norms_at(coarse_degree(N))
    norms = norms_at(N)
    n, c = np.asarray(norms), np.asarray(coarse)  # 0-d for a scalar z
    ok = np.isfinite(n) & np.isfinite(c)
    rel = float(np.max(np.abs(n[ok] - c[ok]) / n[ok])) if ok.any() else math.inf
    return norms, coarse, rel


def pseudospectrum_grid(q, h, N, window, resolution):
    """log10 resolvent norms of q's truncation at degree N over a grid, and
    their largest change from the coarser level of ``level_pair``.

    ``window`` is (re0, re1, im0, im1) and ``resolution`` (n_re, n_im).
    Returns (re_axis, im_axis, L, max_log10_change) with L[i_im, i_re];
    infinity signals propagate as +inf entries, which the change skips (inf
    if no point is finite at both levels).  A non-finite window value raises
    DomainError.
    """
    if not all(math.isfinite(v) for v in window):
        raise DomainError(f"window must be finite, got {list(window)}")
    re0, re1, im0, im1 = window
    n_re, n_im = resolution
    re_axis = np.linspace(re0, re1, n_re)
    im_axis = np.linspace(im0, im1, n_im)
    zs = np.empty((n_im, n_re), dtype=complex)
    zs.real, zs.imag = re_axis, im_axis[:, None]
    norms, coarse, _ = level_pair(q, h, N, zs)
    L, L_coarse = (
        np.array([math.log10(v) if math.isfinite(v) else math.inf for v in a.ravel().tolist()]).reshape(zs.shape)
        for a in (norms, coarse)
    )
    both = np.isfinite(L) & np.isfinite(L_coarse)
    change = float(np.max(np.abs(L[both] - L_coarse[both]))) if both.any() else math.inf
    return re_axis, im_axis, L, change


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
    and grows by ``LEVEL_GAP`` until ``level_pair``, with one memo per h,
    finds the sampled norms within PROBE_CONVERGE_RTOL of the level below,
    for at most PROBE_MAX_ROUNDS increases; the returned rows use the finer
    level.  The fit is the least-squares slope of log norm against log(1/h).
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
        for _ in range(PROBE_MAX_ROUNDS):
            degree += LEVEL_GAP
            norms, _, rel = level_pair(q, h, degree, zs, memo)
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
