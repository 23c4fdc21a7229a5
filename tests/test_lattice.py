import itertools
import math
import re
import time
from collections import Counter

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import dcspec as dc
from dcspec import lattice
from dcspec.errors import DegenerateSpectrumError, DomainError
from dcspec.symplectic import QuadraticForm
from conftest import davies_form, harmonic_form, kfp_form, wedge_form


def two_mode_spectrum(mu1=1.0, mu2=1.0):
    mus = np.array([mu1, mu2], dtype=complex)
    return dc.LatticeSpectrum(2, 1j * mus, mus)


def brute_force_points(spec, h, radius, kmax):
    pts = []
    for k in itertools.product(range(kmax + 1), repeat=spec.dim):
        z = h * complex(np.sum((1 + 2 * np.array(k)) * spec.mus))
        if abs(z) <= radius:
            pts.append(z)
    return pts


def test_stable_eigenvalues_harmonic(harmonic):
    spec = dc.stable_eigenvalues(dc.hamilton_map(harmonic))
    assert np.allclose(spec.lambdas, [1j])
    assert np.allclose(spec.mus, [1.0])


def test_stable_eigenvalues_wedge(wedge):
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    expected_lam = sorted(
        [np.exp(1j * np.pi / 3), np.exp(2j * np.pi / 3)], key=lambda z: z.real
    )
    assert np.allclose(spec.lambdas, expected_lam, atol=1e-12)
    expected_mu = sorted(
        [np.exp(-1j * np.pi / 6), np.exp(1j * np.pi / 6)], key=lambda z: z.real
    )
    assert np.allclose(sorted(spec.mus, key=lambda z: (z.real, z.imag)), expected_mu)
    assert np.all(spec.mus.real > 0)


def test_stable_eigenvalues_kfp(kfp):
    spec = dc.stable_eigenvalues(dc.hamilton_map(kfp))
    assert spec.lambdas.size == 2
    assert np.all(spec.lambdas.imag > 0)
    # closed form: mu = 1/4 ± i sqrt(3)/4 at a = 1
    mus = sorted(spec.mus, key=lambda z: z.imag)
    assert np.allclose(mus, [0.25 - 1j * math.sqrt(3) / 4, 0.25 + 1j * math.sqrt(3) / 4])


def test_degenerate_spectrum_signal():
    q = dc.build_quadratic_form(1, {((2,), (0,)): 1.0, ((0,), (2,)): -1.0})
    with pytest.raises(DegenerateSpectrumError):
        dc.stable_eigenvalues(dc.hamilton_map(q))


def test_lattice_points_harmonic(harmonic):
    spec = dc.stable_eigenvalues(dc.hamilton_map(harmonic))
    pts = dc.lattice_points(spec, 0.1, 1.0)
    assert len(pts) == 5
    assert np.allclose([z for z, _ in pts], [0.1, 0.3, 0.5, 0.7, 0.9])
    assert all(m == 1 for _, m in pts)


def test_huge_enumeration_is_domain_error(harmonic):
    # mu = 1: the simplex holds one k per odd integer up to radius / h, and
    # the size bound is checked before any array is allocated
    from dcspec.lattice import MAX_LATTICE_POINTS

    spec = dc.stable_eigenvalues(dc.hamilton_map(harmonic))
    assert len(dc.lattice_points(spec, 1e-4, 1.0)) == 5000
    with pytest.raises(DomainError, match="lattice enumeration"):
        dc.lattice_points(spec, 0.1, 0.1 * (2 * MAX_LATTICE_POINTS + 3))
    for h in (1e-300, 5e-324):  # counts past int64, then an infinite bound
        with pytest.raises(DomainError):
            dc.lattice_points(spec, h, 1.0)
        with pytest.raises(DomainError):
            dc.dist_to_spectrum(spec, h, 1.0)


def test_lattice_points_wedge_in_cone(wedge):
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    for z, _ in dc.lattice_points(spec, 0.1, 3.0):
        assert abs(np.angle(z)) <= np.pi / 6 + 1e-12


def test_lattice_points_multiplicities():
    # with eps > 0 the copies of 4 fall on both sides of 4, in two octaves
    for eps in (0.0, 2.0**-50):
        spec = two_mode_spectrum(1 + eps, 1 - eps)
        pts = dc.lattice_points(spec, 1.0, 6.0)
        assert [(round(z.real), m) for z, m in pts] == [(2, 1), (4, 2), (6, 3)]


def test_lattice_points_match_brute_force(wedge):
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    pts = dc.lattice_points(spec, 0.3, 5.0)
    brute = brute_force_points(spec, 0.3, 5.0, kmax=12)
    assert sum(m for _, m in pts) == len(brute)


def conjugate_pair_spectrum(ns, theta, rng):
    """mu_j = n_j e^(-+i theta), alternating, each perturbed at rounding level.

    Lattice values are A e^(-i theta) + B e^(i theta) with A, B the integer
    sums over the two halves, so (A, B) and its conjugate (B, A) share a
    modulus and many k give the same (A, B).
    """
    w = np.exp(1j * theta)
    exact = np.array([n * (w.conjugate() if j % 2 == 0 else w) for j, n in enumerate(ns)])
    mus = exact * (1 + 4e-16 * rng.standard_normal(len(ns)))
    return dc.LatticeSpectrum(len(ns), 1j * mus, mus)


def exact_multiplicities(ns, theta, radius, kmax):
    counts = Counter()
    for k in itertools.product(range(kmax + 1), repeat=len(ns)):
        odd = [(1 + 2 * kj) * n for kj, n in zip(k, ns)]
        A, B = sum(odd[0::2]), sum(odd[1::2])
        if abs(A * np.exp(-1j * theta) + B * np.exp(1j * theta)) <= radius:
            counts[(A, B)] += 1
    return counts


@pytest.mark.parametrize("ns", [(1, 1, 1, 1), (1, 2, 2, 1), (1, 1, 1)])
def test_lattice_points_rationally_dependent_exact_count(ns, rng):
    theta, radius = np.pi / 5, 17.3
    exact = exact_multiplicities(ns, theta, radius, kmax=9)
    # no exact modulus lies within rounding of the cut
    moduli = [abs(A * np.exp(-1j * theta) + B * np.exp(1j * theta)) for A, B in exact]
    assert min(abs(m - radius) for m in moduli) > 1e-6
    for _ in range(5):
        pts = dc.lattice_points(conjugate_pair_spectrum(ns, theta, rng), 1.0, radius)
        assert sorted(m for _, m in pts) == sorted(exact.values())


def test_lattice_points_permutation_invariant(rng):
    # conjugate values tie in modulus, so compare by rounded position
    def keyed(pts):
        return sorted(((round(z.real, 6), round(z.imag, 6)), m) for z, m in pts)

    spec = conjugate_pair_spectrum((1, 2, 2, 1), np.pi / 5, rng)
    base = keyed(dc.lattice_points(spec, 0.5, 8.0))
    assert max(m for _, m in base) > 1
    for perm in itertools.permutations(range(4)):
        mus = spec.mus[list(perm)]
        assert keyed(dc.lattice_points(dc.LatticeSpectrum(4, 1j * mus, mus), 0.5, 8.0)) == base


@pytest.mark.parametrize("mu", [1.0, 1.3 * np.exp(1j * np.pi / 7)])
def test_lattice_points_isotropic_d3_large_radius(mu, rng):
    # mu(k) = (2n + 3) mu with n = |k| has multiplicity C(n+2, 2), up to
    # 4950 copies per value at radius / h = 200; merging must not pair them all
    mus = mu * (1 + 4e-16 * rng.standard_normal(3))
    spec = dc.LatticeSpectrum(3, 1j * mus, mus)
    h = 0.05
    start = time.perf_counter()
    pts = dc.lattice_points(spec, h, 200 * h)
    assert time.perf_counter() - start < 10.0
    n_max = math.floor((200 / abs(mu) - 3) / 2)
    assert len(pts) == n_max + 1
    for n, (z, m) in enumerate(pts):
        assert m == math.comb(n + 2, 2)
        assert abs(z - h * (2 * n + 3) * mu) <= 1e-12 * abs(z)


def test_lattice_scaling_relation(wedge):
    # values at scale h equal h times the values at scale 1
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    h = 0.05
    a = dc.lattice_points(spec, h, 20 * h)
    b = dc.lattice_points(spec, 1.0, 20.0)
    assert len(a) == len(b)
    for (za, ma), (zb, mb) in zip(a, b):
        assert ma == mb and abs(za - h * zb) < 1e-12 * max(1.0, abs(za))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    mus=st.lists(st.complex_numbers(min_magnitude=0.5, max_magnitude=1.5).filter(
        lambda mu: mu.real >= 0.5), min_size=1, max_size=3),
    h=st.floats(1e-3, 10.0),
    reach=st.floats(1.1, 3.0),
)
def test_lattice_scales_with_h_property(mus, h, reach):
    # the values at scale h within h * radius are h times the values at
    # scale 1 within radius, with the same multiplicities; values within
    # 1e-9 of the radius may fall on either side and are left out
    mus = np.array(mus, dtype=complex)
    spec = dc.LatticeSpectrum(len(mus), 1j * mus, mus)
    radius = reach * abs(np.sum(mus))  # mu(0) is inside

    def inside(h, r):
        pts = [(z, m) for z, m in dc.lattice_points(spec, h, r) if abs(z) <= (1 - 1e-9) * r]
        return np.array([z for z, _ in pts], dtype=complex), [m for _, m in pts]

    za, ma = inside(h, h * radius)
    zb, mb = inside(1.0, radius)
    assert len(za) == len(zb) > 0
    nearest = np.argmin(np.abs(za[:, None] - h * zb[None, :]), axis=1)
    assert np.all(np.abs(za - h * zb[nearest]) <= 1e-12 * h * radius)
    assert ma == [mb[j] for j in nearest]


def test_dist_to_spectrum_harmonic(harmonic):
    spec = dc.stable_eigenvalues(dc.hamilton_map(harmonic))
    assert dc.dist_to_spectrum(spec, 0.1, 0.3) < 1e-15
    assert abs(dc.dist_to_spectrum(spec, 0.1, 0.4) - 0.1) < 1e-14


def test_dist_to_spectrum_brute_force(wedge, rng):
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    for _ in range(10):
        z = rng.standard_normal() * 2 + 1j * rng.standard_normal()
        got = dc.dist_to_spectrum(spec, 0.25, z)
        brute = min(
            abs(z - p) for p in brute_force_points(spec, 0.25, 2 * abs(z) + 10, 40)
        )
        assert abs(got - brute) < 1e-12


def test_strip_count_examples():
    assert dc.strip_count(two_mode_spectrum(), 10.0, 0.5) == 5
    one = dc.LatticeSpectrum(1, np.array([1j]), np.array([1.0 + 0j]))
    assert dc.strip_count(one, 0.0, 0.5) == 0


def test_strip_count_brute_force(wedge):
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    count = dc.strip_count(spec, 8.0, 1.0)
    brute = 0
    for k in itertools.product(range(30), repeat=2):
        val = float(np.sum((1 + 2 * np.array(k)) * spec.mus.real))
        brute += abs(8.0 - val) <= 1.0
    assert count == brute and count > 0


def test_simplex_volume():
    spec = two_mode_spectrum()
    assert dc.simplex_volume(spec, 4.0) == pytest.approx(2.0, rel=1e-14)
    assert dc.simplex_volume(spec, 0.0) == 0.0


def test_simplex_volume_monte_carlo_oracle():
    # frozen oracle: 10^6 uniform samples over [0,2]^2 hitting {2x1+2x2 <= 4}
    rng = np.random.default_rng(123)
    pts = rng.random((10**6, 2)) * 2.0
    inside = (2 * pts[:, 0] + 2 * pts[:, 1]) <= 4.0
    mc = inside.mean() * 4.0
    assert abs(mc - dc.simplex_volume(two_mode_spectrum(), 4.0)) < 0.05


def test_volume_sandwich(wedge):
    # lattice counts in shells match simplex volume up to a surface term
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    C = 4.0
    for r1, r2 in [(0.0, 10.0), (5.0, 20.0), (10.0, 40.0)]:
        count = sum(
            1
            for k in itertools.product(range(60), repeat=2)
            if r1 < float(np.sum((1 + 2 * np.array(k)) * spec.mus.real)) <= r2
        )
        vol = dc.simplex_volume(spec, r2) - dc.simplex_volume(spec, r1)
        surface = C * (r2 + 1.0)
        assert vol - surface <= count <= vol + surface


def test_region_spec_validation():
    with pytest.raises(DomainError):
        dc.RegionSpec(h=0.5, C0=1.0, C1=10.0, dim=2)  # loglog(1/h) < 0
    for C0, C1, inner in [(-1.0, 10.0, None), (math.nan, 10.0, None), (1.0, math.inf, None),
                          (1.0, 10.0, math.nan), (1.0, 10.0, math.inf)]:
        with pytest.raises(DomainError):
            dc.RegionSpec(h=0.05, C0=C0, C1=C1, dim=2, inner_radius=inner)
    region = dc.RegionSpec.with_f_value(0.05, 10.0, 10.0, 2, inner_radius=0.15)
    assert region.f_value == pytest.approx(10.0, rel=1e-12)
    assert region.outer_radius == pytest.approx(0.5, rel=1e-12)
    assert region.exclusion_radius < region.h


def test_admissible_reasons(wedge):
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    region = dc.RegionSpec.with_f_value(0.05, 10.0, 10.0, 2, inner_radius=0.15)
    # a lattice point inside the annulus is rejected by its exclusion disc
    z0 = next(
        z
        for z, _ in dc.lattice_points(spec, 0.05, region.outer_radius)
        if abs(z) > region.inner_radius * 1.2
    )
    verdict = dc.admissible(region, spec, z0)
    assert not verdict.admissible and verdict.reason == "exclusion disc"
    verdict = dc.admissible(region, spec, 2 * region.outer_radius)
    assert not verdict.admissible and verdict.reason == "outer bound"
    verdict = dc.admissible(region, spec, 0.5 * region.inner_radius)
    assert not verdict.admissible and verdict.reason == "inner bound"
    # midpoint between two lattice values on the real axis is admissible
    zmid = 0.05 * math.sqrt(3) * 2.0  # between real parts sqrt(3) and 3 sqrt(3)
    verdict = dc.admissible(region, spec, zmid)
    assert verdict.admissible and verdict.reason == ""


@pytest.mark.parametrize("inner", [0.15, None])
@pytest.mark.parametrize("shape", [(), (9,), (5, 6), (0,), (2, 0)])
def test_array_queries_match_scalar_and_brute_force(wedge, inner, shape):
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    h = 0.05
    region = dc.RegionSpec.with_f_value(h, 10.0, 10.0, 2, inner_radius=inner)
    n = math.prod(shape)
    rng = np.random.default_rng(11)
    z = rng.uniform(-0.6, 0.6, n) + 1j * rng.uniform(-0.6, 0.6, n)
    # a lattice point in the annulus, a point near 0, one beyond the outer
    # radius and the admissible midpoint of test_admissible_reasons
    z[:4] = [h * 3 * math.sqrt(3), 0.01, 0.7j, h * math.sqrt(3) * 2.0][:n]
    z = z.reshape(shape)
    dist = dc.dist_to_spectrum(spec, h, z)
    verdict = dc.admissible(region, spec, z)
    if shape == ():
        assert type(dist) is float and type(verdict.dist) is float
        assert type(verdict.admissible) is bool and type(verdict.reason) is str
    else:
        for out in (dist, verdict.dist, verdict.admissible, verdict.reason):
            assert isinstance(out, np.ndarray) and out.shape == shape
    reasons = set()
    for idx in np.ndindex(shape):
        zi = complex(np.asarray(z)[idx])
        one = dc.admissible(region, spec, zi)
        assert np.asarray(dist)[idx] == dc.dist_to_spectrum(spec, h, zi) == one.dist
        assert np.asarray(verdict.admissible)[idx] == one.admissible
        assert np.asarray(verdict.reason)[idx] == one.reason
        brute = min(abs(zi - p) for p in brute_force_points(spec, h, 2 * abs(zi) + 1.0, 40))
        assert abs(one.dist - brute) < 1e-12
        if abs(zi) > region.outer_radius:
            want = "outer bound"
        elif inner is not None and abs(zi) < inner:
            want = "inner bound"
        elif brute < region.exclusion_radius:
            want = "exclusion disc"
        else:
            want = ""
        assert (one.admissible, one.reason) == (want == "", want)
        reasons.add(want)
    if n >= 4:
        every = {"", "outer bound", "inner bound", "exclusion disc"}
        assert reasons == (every if inner is not None else every - {"inner bound"})


_WEDGE_SPEC = dc.stable_eigenvalues(dc.hamilton_map(wedge_form()))
_WEDGE_VALUES = [v for v, _ in dc.lattice_points(_WEDGE_SPEC, 0.05, 0.6)]


@pytest.mark.parametrize("inner", [0.15, None])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_array_queries_equal_scalar_calls_property(inner, data):
    # arrays of any shape give exactly the per-z scalar answers; z on a
    # lattice value is at distance 0 and never admissible
    h = 0.05
    region = dc.RegionSpec.with_f_value(h, 10.0, 10.0, 2, inner_radius=inner)
    shift = st.sampled_from(_WEDGE_VALUES) | st.complex_numbers(
        max_magnitude=0.8, allow_nan=False, allow_infinity=False
    )
    shape = data.draw(st.sampled_from([(), (0,), (1,), (5,), (3, 4), (2, 0)]))
    z = data.draw(hnp.arrays(complex, shape, elements=shift))
    dist = dc.dist_to_spectrum(_WEDGE_SPEC, h, z)
    verdict = dc.admissible(region, _WEDGE_SPEC, z)
    if z.ndim == 0:
        assert type(dist) is float and type(verdict.admissible) is bool
    for i, zi in enumerate(z.ravel().tolist()):
        one = dc.admissible(region, _WEDGE_SPEC, zi)
        assert np.ravel(dist)[i] == dc.dist_to_spectrum(_WEDGE_SPEC, h, zi) == one.dist
        assert np.ravel(verdict.dist)[i] == one.dist
        assert np.ravel(verdict.admissible)[i] == one.admissible
        assert np.ravel(verdict.reason)[i] == one.reason
        if zi in _WEDGE_VALUES:
            assert one.dist == 0.0 and not one.admissible


def full_scan_dist(spec, h, z):
    """Distances from one enumeration to the largest reach over all z, each
    taken over every value in it: the scan dist_to_spectrum restricts per block."""
    flat = np.asarray(z, dtype=complex).ravel()
    if flat.size == 0:
        return np.zeros(0)
    ground = h * complex(np.sum(spec.mus))
    reach = float(np.max(np.hypot(flat.real, flat.imag)
                         + np.hypot((flat - ground).real, (flat - ground).imag)))
    pts, _ = lattice._lattice_values(spec, h, reach + 2.0 * h * float(np.sum(spec.mus.real)))
    return np.array([np.min(np.hypot((zi - pts).real, (zi - pts).imag)) for zi in flat])


def seeded_d3_form():
    """Elliptic d = 3 form: identity real part, seeded symmetric imaginary part."""
    S = np.random.default_rng(3).standard_normal((6, 6))
    return QuadraticForm(3, np.eye(6) + 0.5j * (S + S.T))


@pytest.mark.parametrize(
    "form", [harmonic_form, davies_form, wedge_form, kfp_form, seeded_d3_form],
    ids=["harmonic", "davies", "wedge", "kfp", "d3"],
)
def test_dist_to_spectrum_bit_identical_to_full_scan(form):
    spec = dc.stable_eigenvalues(dc.hamilton_map(form()))
    h = 0.05
    rng = np.random.default_rng(7)
    axis = np.linspace(-0.6, 0.6, 41)
    on_lattice, _ = lattice._lattice_values(spec, h, 0.5)
    blocks = lattice._DIST_BLOCK
    inputs = [
        sum(np.meshgrid(axis, 1j * axis)),  # a 41 x 41 grid
        *(rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.8, 0.8, n)
          for n in (1, blocks - 1, blocks + 1, 3 * blocks + 17)),
        on_lattice,
        np.array([2.5 + 1.5j, -2.0 - 2.0j, 0.01, 2.5 + 1.5j]),  # far outside, and near 0
        np.concatenate([on_lattice[:5], [1.9 - 1.1j], rng.uniform(-0.6, 0.6, 70)]),
    ]
    for z in inputs:
        got = dc.dist_to_spectrum(spec, h, z)
        assert got.shape == z.shape
        assert np.array_equal(got.ravel(), full_scan_dist(spec, h, z))
    assert np.all(dc.dist_to_spectrum(spec, h, on_lattice) == 0.0)
    # on the segment from 0 to the ground value the reach equals |h mu(0)| up to
    # rounding, so a block of one such z must still keep the ground value
    ground = h * complex(np.sum(spec.mus))
    for z in (0.2 + 0.1j, -0.3, on_lattice[-1], 2.5 + 1.5j, *np.linspace(0, 1, 101) * ground):
        got = dc.dist_to_spectrum(spec, h, z)
        assert type(got) is float and got == full_scan_dist(spec, h, z)[0]
    for shape in ((0,), (2, 0)):
        got = dc.dist_to_spectrum(spec, h, np.zeros(shape, dtype=complex))
        assert got.shape == shape


def test_three_panel_grid_geometry(wedge):
    # every constraint type is realized on each panel's membership grid
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    h = 0.05
    for F in (6.5, 10.0, 16.0):
        region = dc.RegionSpec.with_f_value(h, F, 10.0, 2, inner_radius=3 * h)
        lim = region.outer_radius * 1.05
        reasons = set()
        n_adm = 0
        for re in np.linspace(-lim, lim, 31):
            for im in np.linspace(-lim, lim, 31):
                verdict = dc.admissible(region, spec, complex(re, im))
                reasons.add(verdict.reason)
                n_adm += verdict.admissible
        assert n_adm > 0
        assert {"", "outer bound", "inner bound", "exclusion disc"} <= reasons


def test_admissibility_scaling_invariance(wedge):
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    rng = np.random.default_rng(5)
    s = 0.4
    r1 = dc.RegionSpec.with_f_value(0.05, 10.0, 10.0, 2, inner_radius=0.15)
    r2 = dc.RegionSpec.with_f_value(0.05 * s, 10.0, 10.0, 2, inner_radius=0.15 * s)
    for _ in range(50):
        z = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.3
        a = dc.admissible(r1, spec, z)
        b = dc.admissible(r2, spec, s * z)
        assert a.admissible == b.admissible and a.reason == b.reason


def monte_carlo_fraction(region, spec, n=200000, seed=42):
    """Independent Monte Carlo estimate of the excluded share of the annulus."""
    rng = np.random.default_rng(seed)
    rr = np.sqrt(
        region.inner_radius**2
        + rng.random(n) * (region.outer_radius**2 - region.inner_radius**2)
    )
    zz = rr * np.exp(2j * np.pi * rng.random(n))
    covered = np.zeros(n, dtype=bool)
    for c in dc.exclusion_discs(region, spec):
        covered |= np.abs(zz - c) < region.exclusion_radius
    return covered.mean()


def test_excluded_area_fraction_empty():
    spec = two_mode_spectrum()
    # outer radius far below the first lattice value
    region = dc.RegionSpec.with_f_value(0.05, 1e-3, 10.0, 2)
    assert dc.excluded_area_fraction(region, spec) == 0.0


def test_excluded_area_fraction_exact_vs_monte_carlo(wedge):
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    region = dc.RegionSpec.with_f_value(0.05, 10.0, 10.0, 2, inner_radius=0.15)
    exact = dc.excluded_area_fraction(region, spec)
    assert abs(exact - monte_carlo_fraction(region, spec)) < 5e-3


def test_excluded_area_fraction_overlapping_discs():
    # lattice gap 2 h (1.05 - 1) = 0.005 is far below twice the exclusion
    # radius, so the disjoint-lens sum (0.0145 here) would count the
    # overlaps twice; the union covers about 0.0067
    spec = two_mode_spectrum(1.0, 1.05)
    region = dc.RegionSpec.with_f_value(0.05, 10.0, 10.0, 2, inner_radius=0.15)
    frac = dc.excluded_area_fraction(region, spec, samples=200000, seed=1)
    assert abs(frac - monte_carlo_fraction(region, spec)) < 1e-3


def test_excluded_area_fraction_monotone_in_c1(wedge):
    # larger C1 inflates the exclusion radius, so the fraction grows
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge))
    fracs = [
        dc.excluded_area_fraction(
            dc.RegionSpec.with_f_value(0.05, 10.0, C1, 2, inner_radius=0.15), spec
        )
        for C1 in (5.0, 10.0, 20.0)
    ]
    assert fracs[0] < fracs[1] < fracs[2]


def test_schedules_values():
    s = dc.schedules(h=math.exp(-10), C=5.0, C0=2.0, M=2.0, dim=2)
    assert s.epsilon == pytest.approx(2 * math.exp(-10), rel=1e-12)
    assert s.h_tilde == pytest.approx(0.5, rel=1e-12)
    # loglog(1/h) = 16 needs h below the float64 range; use loglog(1/h) = 4
    s = dc.schedules(h=math.exp(-math.exp(4)), C=1.0, C0=2.0, M=2.0, dim=2)
    assert s.F_of_h == pytest.approx(1.0, rel=1e-12)
    s = dc.schedules(h=math.exp(-16), C=1.0, C0=3.0, M=2.0, dim=2)
    assert s.f_of_h == pytest.approx(2.0, rel=1e-12)
    assert s.r_of_h == pytest.approx(math.exp(-2.0 / 3.0), rel=1e-12)


def test_schedules_domain_signal():
    with pytest.raises(DomainError):
        dc.schedules(h=0.9, C=1.0, C0=1.0, M=1.0, dim=1)


@pytest.mark.parametrize("seed", [0, 3])
def test_sample_admissible_matches_one_draw_at_a_time(kfp, seed):
    # the batched rounds take the same draws as a one-at-a-time sampler:
    # the same points, bit for bit, and the generator left in the same state
    spec = dc.stable_eigenvalues(dc.hamilton_map(kfp))
    region = dc.RegionSpec(h=0.1, C0=0.15, C1=10.0, dim=2, inner_radius=0.3)
    ref_rng = np.random.default_rng(seed)
    want = []
    while len(want) < 12:
        u, t = ref_rng.random(), ref_rng.random()
        theta = t * 2.0 * math.pi
        r = math.sqrt(0.3**2 + u * (region.outer_radius**2 - 0.3**2))
        z = r * complex(math.cos(theta), math.sin(theta))
        if dc.admissible(region, spec, z).admissible:
            want.append(z)
    rng = np.random.default_rng(seed)
    assert lattice.sample_admissible(region, spec, 12, rng) == want
    assert rng.random() == ref_rng.random()


def test_sample_admissible_rejects_an_empty_annulus(kfp):
    # an inner radius of 100 h lies above the outer one, h F(h) (about 7 h
    # here): no point can be drawn, so the sampler fails at once, before any
    # draw, with both radii named
    spec = dc.stable_eigenvalues(dc.hamilton_map(kfp))
    region = dc.RegionSpec(h=0.1, C0=0.15, C1=10.0, dim=2, inner_radius=10.0)
    assert region.outer_radius < region.inner_radius
    rng = np.random.default_rng(0)
    radii = f"inner radius 10.0 exceeds outer radius {region.outer_radius}"
    with pytest.raises(DomainError, match=re.escape(radii)):
        lattice.sample_admissible(region, spec, 5, rng)
    assert rng.random() == np.random.default_rng(0).random()
