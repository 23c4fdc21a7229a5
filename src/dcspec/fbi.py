"""Quadratic transform phases, their weights and block canonical maps.

A holomorphic quadratic phase phi(x, y) with Im phi''_yy > 0 and
invertible phi''_xy generates a complex canonical map sending
(y, -phi'_y) to (x, phi'_x); conversely a block map [[A, B], [C, D]]
comes from such a phase exactly when B is invertible and the map is
canonical.  The weight Phi(x) is the critical value of -Im phi(x, .)
over real y and is strictly plurisubharmonic.
"""

from dataclasses import dataclass, field

import numpy as np

from ._linalg import block_matrix, sym, frob, symplectic_defect
from .errors import InvalidPhaseError, NotCanonicalError, NotFbiPhaseError, SingularBlockError
from .symplectic import standard_j

__all__ = [
    "FbiPhase",
    "PhiWeight",
    "BlockCanonicalMap",
    "CanonicityDefects",
    "standard_phase",
    "phase_value",
    "y_critical",
    "phi_weight",
    "kappa_of_phase",
    "phase_of_kappa",
    "canonicity_conditions",
]

CONDITION_TOL = 1e-9
SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class FbiPhase:
    """Second-derivative blocks (xx, xy, yy) of a quadratic transform phase.

    The phases are homogeneous quadratic, so the three blocks determine
    everything.  Validity requires Im yy positive definite and xy
    invertible; both are checked at construction.
    """

    dim: int
    xx: np.ndarray = field(repr=False)
    xy: np.ndarray = field(repr=False)
    yy: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.dim
        for name in ("xx", "xy", "yy"):
            M = np.asarray(getattr(self, name), dtype=complex)
            if M.shape != (d, d):
                raise InvalidPhaseError(f"block {name} must be {d}x{d}, got {M.shape}")
            object.__setattr__(self, name, M if name == "xy" else sym(M))
        if np.linalg.eigvalsh(self.yy.imag).min() <= 0:
            raise InvalidPhaseError("Im yy must be positive definite")
        s = np.linalg.svd(self.xy, compute_uv=False)
        if s[-1] <= SINGULAR_TOL * max(s[0], 1e-300):
            raise InvalidPhaseError("xy block is numerically singular")


def standard_phase(dim):
    """The Gaussian phase (i/2)(x - y)^2: blocks (iI, -iI, iI)."""
    I = np.eye(dim)
    return FbiPhase(dim, 1j * I, -1j * I, 1j * I)


def phase_value(phase, x, y):
    """phi(x, y) = <x, xx x>/2 + <x, xy y> + <y, yy y>/2."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return complex(0.5 * x @ phase.xx @ x + x @ phase.xy @ y + 0.5 * y @ phase.yy @ y)


def y_critical(phase, x):
    """The unique real critical point of y -> -Im phi(x, y)."""
    x = np.asarray(x, dtype=complex)
    W = np.linalg.inv(phase.yy.imag)
    return W @ (-(phase.xy.T @ x).imag)


@dataclass(frozen=True)
class PhiWeight:
    """The weight Phi as a real form over (Re x, Im x), plus its Levi form.

    ``matrix`` is real symmetric of size 2d so that
    Phi(x) = <(Re x, Im x), matrix (Re x, Im x)>; ``levi`` is the constant
    complex Hessian d/dxbar d/dx Phi, positive definite for valid phases.
    """

    dim: int
    matrix: np.ndarray = field(repr=False)
    levi: np.ndarray = field(repr=False)

    def value(self, x):
        x = np.asarray(x, dtype=complex)
        v = np.concatenate([x.real, x.imag])
        return float(v @ self.matrix @ v)

    def xi_on_contour(self, x):
        """Momentum (2/i) d_x Phi paired with x on the weight's contour.

        The holomorphic gradient is half (d/d Re x - i d/d Im x), so the
        momentum equals -i grad_Re Phi - grad_Im Phi.
        """
        x = np.asarray(x, dtype=complex)
        d = self.dim
        v = np.concatenate([x.real, x.imag])
        g = 2.0 * (self.matrix @ v)
        return -1j * g[:d] - g[d:]


def phi_weight(phase):
    """Assemble Phi(x) = -Im<x, xx x>/2 + <Im(xy^T x), (Im yy)^-1 Im(xy^T x)>/2.

    The Levi form comes out as
    (Im xy W Im xy^T + Re xy W Re xy^T) / 4 with W = (Im yy)^-1.
    """
    W = np.linalg.inv(phase.yy.imag)
    ReA, ImA = phase.xx.real, phase.xx.imag
    ReB, ImB = phase.xy.real, phase.xy.imag
    IWI, RWR = ImB @ W @ ImB.T, ReB @ W @ ReB.T
    # over (u, v) = (Re x, Im x): -Im<x, xx x> from the xx parts, plus
    # <Im(B^T x), W Im(B^T x)> with Im(B^T x) = ImB^T u + ReB^T v
    P = 0.5 * block_matrix(IWI - ImA, ImB @ W @ ReB.T - ReA, ReB @ W @ ImB.T - ReA.T, RWR + ImA)
    return PhiWeight(phase.dim, sym(P), sym(0.25 * (IWI + RWR)))


@dataclass(frozen=True)
class BlockCanonicalMap:
    """A linear map on doubled space in d x d blocks [[A, B], [C, D]]."""

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.A.shape[0]

    @property
    def matrix(self):
        return block_matrix(self.A, self.B, self.C, self.D)

    @classmethod
    def from_matrix(cls, M):
        M = np.asarray(M, dtype=complex)
        d = M.shape[0] // 2
        return cls(M[:d, :d], M[:d, d:], M[d:, :d], M[d:, d:])

    @property
    def symplectic_defect(self):
        return symplectic_defect(self.matrix, standard_j(self.dim))


@dataclass(frozen=True)
class CanonicityDefects:
    c1: float
    c2: float
    c3: float

    def max(self):
        return max(self.c1, self.c2, self.c3)


def kappa_of_phase(phase):
    """Block map of the graph transform generated by a phase.

    Inverts the relations xy = -(B^-1)^T, yy = B^-1 A, xx = D B^-1 and
    xy = C - D B^-1 A, which pin all four blocks uniquely.
    """
    B = -np.linalg.inv(phase.xy.T)
    A = B @ phase.yy
    D = phase.xx @ B
    C = phase.xy - D @ phase.xy.T @ A  # B^-1 = -xy^T
    return BlockCanonicalMap(A, B, C, D)


def _canonicity_parts(bmap):
    """The block defects, with B^-1, D B^-1 and B^-1 A from one inversion."""
    s = np.linalg.svd(bmap.B, compute_uv=False)
    if s[-1] <= SINGULAR_TOL * max(s[0], 1e-300):
        raise SingularBlockError("block B is numerically singular; no generating phase")
    Binv = np.linalg.inv(bmap.B)
    DB = bmap.D @ Binv
    BA = Binv @ bmap.A
    c1 = frob(DB.T - DB)
    c2 = frob(BA.T - BA)
    c3 = frob(-Binv.T - (bmap.C - DB @ bmap.A))
    return CanonicityDefects(c1, c2, c3), Binv, DB, BA


def canonicity_conditions(bmap):
    """Residual norms of the three block conditions equivalent to canonicity:

    (i)  D B^-1 symmetric, (ii) B^-1 A symmetric,
    (iii) -(B^-1)^T = C - D B^-1 A.
    """
    return _canonicity_parts(bmap)[0]


def phase_of_kappa(bmap, tol=CONDITION_TOL):
    """Recover the unique generating phase of a canonical block map.

    Raises :class:`SingularBlockError` when B is singular,
    :class:`NotCanonicalError` when the block conditions fail beyond
    ``tol`` (relative to the map's size), and :class:`NotFbiPhaseError`
    when the phase exists but Im yy fails to be positive definite, which
    canonicity does not guarantee.
    """
    defects, Binv, DB, BA = _canonicity_parts(bmap)
    scale = max(1.0, frob(bmap.matrix) ** 2)
    if defects.max() > tol * scale:
        raise NotCanonicalError(
            f"block conditions violated: defects {defects} exceed {tol:g} * {scale:g}"
        )
    try:
        return FbiPhase(bmap.dim, DB, -Binv.T, BA)
    except InvalidPhaseError as exc:
        raise NotFbiPhaseError(f"map is canonical but its phase is not admissible: {exc}") from exc
