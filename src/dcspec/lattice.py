"""Spectral lattice of a quadratic Weyl operator and admissible regions.

When the singular space is trivial, the spectrum is the lattice
``(h/i) sum_j (1 + 2 k_j) lambda_j`` over nonnegative multi-indices k,
where the lambda_j are the d Hamilton-matrix eigenvalues with positive
imaginary part.  Writing mu_j = lambda_j / i, every lattice value is
``h * mu(k)`` with Re mu(k) > 0, which makes enumeration, strip counting
and simplex-volume asymptotics elementary.

Every lattice query goes through one numpy enumeration of the simplex
sum_j (1 + 2 k_j) Re mu_j <= radius / h: point listing, strip counts,
exclusion discs, and distances and admissibility verdicts for a whole
array of spectral parameters at once.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import components, frob
from .errors import DegenerateSpectrumError, DomainError, NumericalFailureError

__all__ = [
    "LatticeSpectrum",
    "RegionSpec",
    "Admissibility",
    "Schedules",
    "stable_eigenvalues",
    "lattice_points",
    "dist_to_spectrum",
    "strip_count",
    "simplex_volume",
    "admissible",
    "exclusion_discs",
    "excluded_area_fraction",
    "sample_admissible",
    "schedules",
]

REAL_EIGENVALUE_TOL = 1e-10
DEDUP_RTOL = 1e-9
MC_SAMPLES = 10**6
SAMPLE_MAX_TRIES = 100000  # draws before sample_admissible gives up
MAX_LATTICE_POINTS = 10**7  # largest simplex enumeration allocated (~1.6 GB at d = 4)
_DIST_BLOCK = 64  # z values per |z - lattice| temporary in dist_to_spectrum


@dataclass(frozen=True)
class LatticeSpectrum:
    """The d stable eigenvalues lambda_j (Im > 0) and mu_j = lambda_j / i."""

    dim: int
    lambdas: np.ndarray = field(repr=False)
    mus: np.ndarray = field(repr=False)


def stable_eigenvalues(fmap):
    """Eigenvalues of the Hamilton matrix with positive imaginary part.

    Raises :class:`DegenerateSpectrumError` when some eigenvalue is within
    ``1e-10 * ||F||`` of the real axis or the positive-imaginary count is
    not exactly d; no algorithmic tie-break exists in that regime, so the
    caller must decide.
    """
    evals = np.linalg.eigvals(fmap.matrix)
    scale = max(frob(fmap.matrix), 1e-300)
    if np.min(np.abs(evals.imag)) <= REAL_EIGENVALUE_TOL * scale:
        raise DegenerateSpectrumError(
            "Hamilton matrix has a (near-)real eigenvalue; spectral lattice undefined"
        )
    lam = np.array(sorted(evals[evals.imag > 0], key=lambda z: (z.real, z.imag)))
    if lam.size != fmap.dim:
        raise DegenerateSpectrumError(
            f"expected {fmap.dim} stable eigenvalues, found {lam.size}"
        )
    return LatticeSpectrum(fmap.dim, lam, lam / 1j)


def _modulus(z):
    """|z| through libm hypot, bit-identical to Python's abs(complex).

    numpy's complex absolute value has its own kernel that differs in the
    last bit for about a third of inputs, which would reorder ties in
    modulus and move distances by an ulp against scalar arithmetic.
    """
    return np.hypot(z.real, z.imag)


def _simplex_indices(remu, bound):
    """Every k >= 0 with sum_j (1 + 2 k_j) remu_j <= bound, one row per k.

    Rows are built one coordinate at a time from the slack the earlier
    coordinates leave, in lexicographic order of k, so memory stays
    proportional to the number of rows rather than to the enclosing k-box.
    Each k owns the cube [k, k + 1), which lies in the simplex enlarged by
    2 sum remu, so that simplex's volume bounds the row count; it also
    bounds every per-coordinate count, and an enumeration it puts above
    MAX_LATTICE_POINTS raises DomainError before anything is allocated.
    """
    if not math.isfinite(bound):
        raise DomainError(f"enumeration bound must be finite, got {bound}")
    slack = bound - float(np.sum(remu))
    reach = slack + 2.0 * float(np.sum(remu))
    estimate = math.prod(reach / (2.0 * float(r)) for r in remu) / math.factorial(len(remu))
    if slack >= 0 and not estimate <= MAX_LATTICE_POINTS:
        raise DomainError(
            f"lattice enumeration of about {estimate:.3g} points exceeds "
            f"MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS}: raise h or lower the radius"
        )
    slack = np.array([slack])
    slack = slack[slack >= 0]
    ks = np.zeros((slack.size, 0), dtype=np.int64)
    for r in remu:
        # rounding can leave a slack of -1 ulp where the exact one is 0
        counts = np.floor(np.maximum(slack, 0.0) / (2.0 * r)).astype(np.int64) + 1
        rows = np.repeat(np.arange(ks.shape[0]), counts)
        kj = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        ks = np.column_stack([ks[rows], kj])
        slack = slack[rows] - 2.0 * r * kj
    return ks


def _weighted_sum(ks, coeffs):
    """sum_j (1 + 2 k_j) coeffs_j for every row k of ks.

    The sum over j runs in index order, as ``np.sum`` does for d < 8, so
    every value is bit-identical to the one a scalar loop over k computes.
    """
    out = np.zeros(ks.shape[0], dtype=np.result_type(coeffs, float))
    for j, c in enumerate(coeffs):
        out += (1.0 + 2.0 * ks[:, j]) * c
    return out


def _lattice_values(spec, h, radius):
    """Every lattice value h*mu(k) with modulus <= radius, one per k, and its modulus.

    Since |h mu(k)| >= h Re mu(k), the simplex Re mu(k) <= radius/h holds
    every such k; a relative margin of 1e-9 on it covers rounding and the
    modulus test then applies the exact cut.
    """
    if not 0 < h < math.inf:
        raise DomainError(f"h must be positive and finite, got {h}")
    if not 0 <= radius < math.inf:
        raise DomainError(f"radius must be finite and >= 0, got {radius}")
    ks = _simplex_indices(spec.mus.real, radius / h * (1 + 1e-9))
    vals = h * _weighted_sum(ks, spec.mus)
    modulus = _modulus(vals)
    keep = modulus <= radius * (1 + 1e-12)
    return vals[keep], modulus[keep]


def _near_offsets(vals, modulus, rtol=0.0, atol=0.0):
    """Per offset s, the positions i with |vals_{i+s} - vals_i| <= tol_{i+s}.

    Here tol_j = atol + rtol |vals_j|, and ``vals`` must be sorted by
    ``modulus = |vals|``.  The modulus gap |vals_{i+s}| - |vals_i| bounds
    the distance from below and grows with s, so the sweep over offsets
    stops at the first offset that leaves no candidate.  Yields (s, i).
    """
    for s in range(1, vals.size):
        tol = atol + rtol * modulus[s:]
        cand = np.flatnonzero(modulus[s:] - modulus[:-s] <= tol)
        if cand.size == 0:
            return
        yield s, cand[_modulus(vals[cand + s] - vals[cand]) <= tol[cand]]


def _distinct_values(spec, h, radius):
    """Distinct lattice values with modulus <= radius and their multiplicities.

    Values are sorted by (|z|, Re, Im) and first collapsed into grid cells:
    a value of modulus in [2^(e-1), 2^e) falls in a square of side
    DEDUP_RTOL 2^(e-2) of its octave's grid, so the members of one cell lie
    within DEDUP_RTOL |z| of each other.  Exact and rounding-level copies
    share a cell or sit in adjacent ones, so the number of cells does not
    grow with multiplicity.  Cells are then chained into clusters (single
    linkage) when their first members are within relative distance
    DEDUP_RTOL, so a conjugate value of equal modulus cannot split
    near-equal copies.  Each cluster is represented by its first member.
    """
    vals, modulus = _lattice_values(spec, h, radius)
    order = np.lexsort((vals.imag, vals.real, modulus))
    vals, modulus = vals[order], modulus[order]
    _, octave = np.frexp(modulus)
    side = np.ldexp(DEDUP_RTOL, octave - 2)
    cells = np.stack(
        [octave, np.floor(vals.real / side), np.floor(vals.imag / side)], axis=1
    ).astype(np.int64)
    _, first, cell = np.unique(cells, axis=0, return_index=True, return_inverse=True)
    reps = np.sort(first)
    near = [(i, i + s) for s, i in _near_offsets(vals[reps], modulus[reps], rtol=DEDUP_RTOL)]
    edges = np.concatenate([np.zeros((2, 0), dtype=np.int64), *map(np.stack, near)], axis=1)
    heads = reps[components(reps.size, *edges)]
    owner = heads[np.searchsorted(reps, first)][cell.ravel()]
    head, counts = np.unique(owner, return_counts=True)
    return vals[head], counts


def lattice_points(spec, h, radius):
    """All lattice values h*mu(k) with modulus <= radius, with multiplicity.

    Returns (value, multiplicity) pairs ordered by (|z|, Re, Im).  The
    values come from one enumeration of the simplex Re mu(k) <= radius/h,
    and are deduplicated at relative tolerance 1e-9 because rationally
    dependent mu_j collide exactly in exact arithmetic but only nearly in
    floats.
    """
    vals, counts = _distinct_values(spec, h, radius)
    return list(zip(vals.tolist(), counts.tolist()))


def dist_to_spectrum(spec, h, z):
    """Distance from z (a scalar or an array) to the full spectral lattice.

    The ground value h*mu(0) is a candidate, so no lattice value farther
    from the origin than the reach |z| + |z - h mu(0)| can be nearest to z.
    One enumeration up to the largest reach over all z serves every z.  The
    z are visited in order of reach, _DIST_BLOCK at a time, and each block
    is compared only with the values within its largest reach (plus a
    relative 1e-12 for rounding); the dropped values cannot be nearest, so
    every distance is the same float a comparison with all of them gives.
    Returns a float for a scalar z and an array of z's shape otherwise.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    dist = np.empty(flat.size)
    if flat.size:
        ground = h * complex(np.sum(spec.mus))
        reach = _modulus(flat) + _modulus(flat - ground)
        pts, pts_modulus = _lattice_values(spec, h, float(np.max(reach)))
        order = np.argsort(reach, kind="stable")
        for b in range(0, flat.size, _DIST_BLOCK):
            idx = order[b:b + _DIST_BLOCK]
            near = pts[pts_modulus <= reach[idx[-1]] * (1 + 1e-12)]
            dist[idx] = np.min(_modulus(flat[idx, None] - near), axis=1)
    return float(dist[0]) if z.ndim == 0 else dist.reshape(z.shape)


def strip_count(spec, rho, r):
    """#{k : |rho - Re mu(k)| <= r}, by exact enumeration of the simplex
    Re mu(k) <= rho + r."""
    if not (math.isfinite(r) and r >= 0):
        raise DomainError(f"strip half-width r must be finite and >= 0, got {r}")
    remu = spec.mus.real
    if rho + r < float(np.sum(remu)):
        return 0
    vals = _weighted_sum(_simplex_indices(remu, (rho + r) * (1 + 1e-9)), remu)
    return int(np.count_nonzero(np.abs(rho - vals) <= r))


def simplex_volume(spec, radius):
    """vol{x in R^d_+ : sum 2 x_j Re mu_j <= R} = R^d / (2^d d! prod Re mu_j)."""
    if not (math.isfinite(radius) and radius >= 0):
        raise DomainError(f"radius must be finite and >= 0, got {radius}")
    d = spec.dim
    c = 1.0 / (2**d * math.factorial(d) * float(np.prod(spec.mus.real)))
    return c * radius**d


@dataclass(frozen=True)
class RegionSpec:
    """Admissible spectral-parameter region at semiclassical scale h.

    The outer radius is ``h * F(h)`` with the double-logarithmic growth
    factor ``F(h) = (loglog(1/h))^(1/dim) / C0``; points closer than
    ``h * exp(-F(h)/C1)`` to the spectral lattice are excluded, and an
    optional inner radius carves out the core already handled at scale h.
    """

    h: float
    C0: float
    C1: float
    dim: int
    inner_radius: float | None = None

    def __post_init__(self):
        if not 0 < self.h <= 1:
            raise DomainError(f"h must lie in (0, 1], got {self.h}")
        if self.h >= 1 / math.e:
            raise DomainError(
                f"h = {self.h} too large: loglog(1/h) must be positive (h < 1/e)"
            )
        if not (0 < self.C0 < math.inf and 0 < self.C1 < math.inf):
            raise DomainError(f"C0, C1 must be positive and finite, got {self.C0}, {self.C1}")
        if self.inner_radius is not None and not 0 <= self.inner_radius < math.inf:
            raise DomainError(f"inner_radius must be finite and >= 0, got {self.inner_radius}")

    @classmethod
    def with_f_value(cls, h, f_value, C1, dim, inner_radius=None):
        """Build a region with a prescribed growth-factor value F(h).

        Desk-scale h cannot reach large F(h) through the iterated logarithm,
        so geometry studies fix F directly and derive the matching C0.
        """
        C0 = math.log(math.log(1.0 / h)) ** (1.0 / dim) / f_value
        return cls(h=h, C0=C0, C1=C1, dim=dim, inner_radius=inner_radius)

    @property
    def f_value(self):
        return math.log(math.log(1.0 / self.h)) ** (1.0 / self.dim) / self.C0

    @property
    def outer_radius(self):
        return self.h * self.f_value

    @property
    def exclusion_radius(self):
        return self.h * math.exp(-self.f_value / self.C1)


@dataclass(frozen=True)
class Admissibility:
    """Verdict, first violated constraint ("" if none) and lattice distance.

    Fields are a bool, a str and a float for one spectral parameter, and
    arrays of the parameters' shape for an array of them.  Array-valued
    verdicts are neither comparable with ``==`` nor hashable.
    """

    admissible: bool | np.ndarray
    reason: str | np.ndarray
    dist: float | np.ndarray


def admissible(region, spec, z):
    """Test spectral parameters (a scalar or an array) against the region.

    The reason names the first violated constraint, checked outer bound,
    inner bound, then exclusion disc; admissible points carry reason "".
    All distances come from one :func:`dist_to_spectrum` call.
    """
    z = np.asarray(z, dtype=complex)
    dist = dist_to_spectrum(spec, region.h, z)
    modulus = _modulus(z)
    inner = region.inner_radius
    reason = np.select(
        [
            modulus > region.outer_radius,
            modulus < inner if inner is not None else False,
            dist < region.exclusion_radius,
        ],
        ["outer bound", "inner bound", "exclusion disc"],
        default="",
    )
    if z.ndim == 0:
        return Admissibility(bool(reason == ""), str(reason), float(dist))
    return Admissibility(reason == "", reason, dist)


def sample_admissible(region, spec, count, rng):
    """Seeded rejection sampler for ``count`` admissible points in the annulus,
    uniform in area, for at most SAMPLE_MAX_TRIES draws.

    Each round draws the (u, theta) pairs of the points still missing, in
    the order one-at-a-time draws would take them, and tests them in one
    :func:`admissible` call; a round draws no more than it can accept, so
    the points and the generator's state match drawing one at a time.  An
    inner radius above the outer one leaves no annulus: DomainError.
    """
    inner = region.inner_radius or 0.0
    outer = region.outer_radius
    if inner > outer:
        raise DomainError(f"empty annulus: inner radius {inner} exceeds outer radius {outer}")
    out = []
    tries = 0
    while len(out) < count:
        k = min(count - len(out), SAMPLE_MAX_TRIES - tries)
        if k == 0:
            raise NumericalFailureError(
                f"could not sample {count} admissible points in {SAMPLE_MAX_TRIES} tries"
            )
        tries += k
        zs = []
        for u, t in rng.random((k, 2)).tolist():
            theta = t * 2.0 * math.pi
            r = math.sqrt(inner**2 + u * (outer**2 - inner**2))
            zs.append(r * complex(math.cos(theta), math.sin(theta)))
        ok = admissible(region, spec, np.array(zs)).admissible
        out += [z for z, a in zip(zs, ok.tolist()) if a]
    return out


def exclusion_discs(region, spec):
    """Lattice points whose exclusion disc meets the region annulus,
    ordered by (|z|, Re, Im)."""
    r = region.exclusion_radius
    inner = region.inner_radius or 0.0
    pts, _ = _distinct_values(spec, region.h, region.outer_radius + r)
    modulus = _modulus(pts)
    return pts[(inner - r < modulus) & (modulus < region.outer_radius + r)].tolist()


def _lens_area(dist, r, R):
    """Area of disc(center at distance dist, radius r) ∩ disc(0, R)."""
    if R <= 0 or dist >= R + r:
        return 0.0
    if dist <= abs(R - r):
        return math.pi * min(r, R) ** 2
    a1 = r**2 * math.acos((dist**2 + r**2 - R**2) / (2 * dist * r))
    a2 = R**2 * math.acos((dist**2 + R**2 - r**2) / (2 * dist * R))
    a3 = 0.5 * math.sqrt(
        (-dist + r + R) * (dist + r - R) * (dist - r + R) * (dist + r + R)
    )
    return a1 + a2 - a3


def excluded_area_fraction(region, spec, samples=MC_SAMPLES, seed=0):
    """Fraction of the annulus covered by the exclusion discs.

    Uses exact clipped lens areas while the discs are pairwise disjoint
    (guaranteed when twice the exclusion radius is below the minimal
    lattice gap) and falls back to seeded Monte Carlo otherwise.
    """
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if not (isinstance(samples, (int, np.integer)) and samples >= 1):
        raise DomainError(f"samples must be an integer >= 1, got {samples}")
    r = region.exclusion_radius
    inner = region.inner_radius or 0.0
    outer = region.outer_radius
    annulus = math.pi * (outer**2 - inner**2)
    if annulus <= 0:
        return 0.0
    centers = exclusion_discs(region, spec)
    if not centers:
        return 0.0
    pts = np.array(centers)
    modulus = _modulus(pts)
    order = np.argsort(modulus, kind="stable")
    near = _near_offsets(pts[order], modulus[order], atol=2 * r)
    if not any(i.size for _, i in near):
        total = sum(
            _lens_area(abs(c), r, outer) - _lens_area(abs(c), r, inner)
            for c in centers
        )
        return min(1.0, total / annulus)
    # overlapping discs: seeded Monte Carlo over the annulus
    rng = np.random.default_rng(seed)
    rr = np.sqrt(inner**2 + rng.random(samples) * (outer**2 - inner**2))
    zz = rr * np.exp(2j * math.pi * rng.random(samples))
    covered = np.zeros(samples, dtype=bool)
    for c in centers:
        covered |= np.abs(zz - c) < r
    return float(covered.mean())


@dataclass(frozen=True)
class Schedules:
    """The five scalar schedules tying the deformation scales to h."""

    epsilon: float
    h_tilde: float
    F_of_h: float
    f_of_h: float
    r_of_h: float


def schedules(h, C, C0, M, dim):
    """Evaluate all parameter schedules at a given h.

    epsilon = h log(1/h) / C, h_tilde = h / epsilon,
    F(h) = (loglog(1/h))^(1/d) / C0, f(h) = (log(1/h))^(1/d) / M and
    r(h) = exp(-f(h)/C0).  Values are reported raw for any h where the
    logarithms are positive; no smallness of h is enforced beyond that.
    """
    if min(C, C0, M) <= 0:
        raise DomainError("C, C0 and M must be positive")
    if not 0 < h < 1 / math.e:
        raise DomainError(f"need 0 < h < 1/e for positive iterated logs, got {h}")
    log_inv = math.log(1.0 / h)
    epsilon = h * log_inv / C
    f_of_h = log_inv ** (1.0 / dim) / M
    return Schedules(
        epsilon=epsilon,
        h_tilde=h / epsilon,
        F_of_h=math.log(log_inv) ** (1.0 / dim) / C0,
        f_of_h=f_of_h,
        r_of_h=math.exp(-f_of_h / C0),
    )
