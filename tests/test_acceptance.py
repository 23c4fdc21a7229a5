"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import functools
import itertools
import math
import time

import numpy as np

import dcspec as dc
from dcspec._linalg import sym
from dcspec import probe_theorem
from conftest import (
    davies_form,
    family_form,
    harmonic_form,
    kfp_form,
    multiset_defect,
    wedge_form,
)

NOISE_FLOOR = 1e-12  # machine-converged ladders cannot decrease further


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {desc}")
                raise
            print(f"[criterion {num:2d}] PASS  {desc}")

        return wrapper

    return deco


@criterion(1, "singular-space classification of the worked examples")
def test_criterion_1_singular_space_classification():
    t0 = time.monotonic()
    for a in (0.5, 1.0, 2.0):
        assert dc.singular_space(dc.hamilton_map(kfp_form(a))).dim == 0
    for alpha, beta, gamma in [(1, 1, 1), (0, 2, -1), (1, 0, 0.5)]:
        assert dc.singular_space(dc.hamilton_map(family_form(alpha, beta, gamma))).dim == 0
    for alpha, beta in [(1, 1), (0, 2)]:
        assert dc.singular_space(dc.hamilton_map(family_form(alpha, beta, 0.0))).dim == 0
    space = dc.singular_space(dc.hamilton_map(family_form(1.0, 0.0, 0.0)))
    assert space.dim == 1
    v = space.basis[:, 0]
    target = np.array([0.0, 1.0, 0.0, 0.0])
    assert min(np.linalg.norm(v - target), np.linalg.norm(v + target)) <= 1e-9
    assert time.monotonic() - t0 < 1.0


@criterion(2, "averaged-positivity equivalence on 200 seeded random forms")
def test_criterion_2_equivalence_random_family():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    disagreements = 0
    s_dims = []
    for trial in range(200):
        d = int(rng.integers(1, 4))
        mode = trial % 3
        if mode < 2:
            # full rank and corank-1 draws keep the positivity margin resolvable
            rank = 2 * d if mode == 0 else 2 * d - 1
            R = rng.standard_normal((rank, 2 * d))
            ReA = R.T @ R
            ImA = sym(rng.standard_normal((2 * d, 2 * d)))
        else:
            # exactly decoupled block: the inactive symplectic plane lies in S
            ReA = np.zeros((2 * d, 2 * d))
            ImA = np.zeros((2 * d, 2 * d))
            if d == 1:
                ImA = sym(rng.standard_normal((2, 2)))
            else:
                m = int(rng.integers(1, d))
                act = list(range(m)) + list(range(d, d + m))
                rest = [i for i in range(2 * d) if i not in act]
                R = rng.standard_normal((2 * m, 2 * m))
                ReA[np.ix_(act, act)] = R.T @ R
                ImA[np.ix_(act, act)] = sym(rng.standard_normal((2 * m, 2 * m)))
                ImA[np.ix_(rest, rest)] = sym(
                    rng.standard_normal((2 * (d - m), 2 * (d - m)))
                )
        q = dc.QuadraticForm(d, ReA + 1j * ImA)
        report = dc.positivity_equivalence_check(q, T=1.0)
        s_dims.append(report.s_dim)
        disagreements += not report.consistent
    assert disagreements == 0
    assert any(s > 0 for s in s_dims) and any(s == 0 for s in s_dims)
    assert time.monotonic() - t0 < 30.0


@criterion(3, "flow-derivative identity for the averaging weight")
def test_criterion_3_averaging_identity():
    bundled = [
        harmonic_form(),
        kfp_form(0.5),
        kfp_form(1.0),
        kfp_form(2.0),
        family_form(1, 1, 1),
        family_form(1, 1, 0),
        family_form(1, 0, 0),
        davies_form(1.0),
        wedge_form(),
    ]
    for q in bundled:
        assert dc.averaging_identity_defect(q, T=1.0) <= 1e-8 * np.linalg.norm(q.matrix)
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        R = rng.standard_normal((2 * d, 2 * d))
        q = dc.QuadraticForm(d, R.T @ R + 1j * sym(rng.standard_normal((2 * d, 2 * d))))
        assert dc.averaging_identity_defect(q, T=1.0) <= 1e-8 * np.linalg.norm(q.matrix)


@criterion(4, "canonical normalizer: symplectic, spectrum-preserving, elliptic")
def test_criterion_4_canonical_normalizer():
    for q in (kfp_form(1.0), family_form(1, 1, 1), family_form(1, 1, 0)):
        w = dc.weight_gq(q, T=1.0)
        dmax = dc.delta_max(w)
        deltas = np.geomspace(0.01, dmax / 2, 6)
        lam_f = np.linalg.eigvals(dc.hamilton_map(q).matrix)
        margins = []
        for dl in deltas:
            kappa = dc.canonical_normalizer(w, dl)
            assert kappa.symplectic_defect <= 1e-10 * max(
                1.0, np.linalg.norm(kappa.matrix) ** 2
            )
            qk = dc.QuadraticForm(q.dim, sym(kappa.matrix.T @ q.matrix @ kappa.matrix))
            lam_k = np.linalg.eigvals(dc.hamilton_map(qk).matrix)
            assert multiset_defect(lam_f, lam_k) <= 1e-8
            margins.append(dc.ellipticity_margin(dc.deformed_symbol(q, w, dl)))
        assert all(m > 0 for m in margins[:3])


@criterion(5, "block-map canonicity equivalence and Gaussian-phase fixtures")
def test_criterion_5_block_map_equivalence():
    from conftest import random_canonical_matrix

    rng = np.random.default_rng(11)
    total = agree = 0
    for trial in range(200):
        dim = int(rng.integers(1, 4))
        M = random_canonical_matrix(rng, dim)
        if trial % 2:
            M = M + 1e-3 * (
                rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape)
            )
        bmap = dc.BlockCanonicalMap.from_matrix(M)
        try:
            defects = dc.canonicity_conditions(bmap)
        except dc.SingularBlockError:
            continue
        scale = max(1.0, np.linalg.norm(M) ** 2)
        total += 1
        agree += (defects.max() <= 1e-9 * scale) == (
            bmap.symplectic_defect <= 1e-8 * scale
        )
    assert total >= 190 and agree == total

    # Gaussian phase fixtures, exact to 1e-12
    phase0 = dc.standard_phase(2)
    bmap0 = dc.kappa_of_phase(phase0)
    I = np.eye(2)
    assert np.allclose(bmap0.A, I, atol=1e-12)
    assert np.allclose(bmap0.B, -1j * I, atol=1e-12)
    assert np.allclose(bmap0.C, 0 * I, atol=1e-12)
    assert np.allclose(bmap0.D, I, atol=1e-12)
    y = np.array([0.4, -1.1])
    eta = np.array([2.0, 0.3])
    image = bmap0.matrix @ np.concatenate([y, eta])
    assert np.allclose(image[:2], y - 1j * eta, atol=1e-12)
    assert np.allclose(image[2:], eta, atol=1e-12)
    back = dc.phase_of_kappa(bmap0)
    assert np.allclose(back.xx, phase0.xx, atol=1e-12)
    assert np.allclose(back.xy, phase0.xy, atol=1e-12)
    assert np.allclose(back.yy, phase0.yy, atol=1e-12)
    w = dc.phi_weight(phase0)
    rng2 = np.random.default_rng(3)
    for _ in range(20):
        x = rng2.standard_normal(2) + 1j * rng2.standard_normal(2)
        assert abs(w.value(x) - 0.5 * np.sum(x.imag**2)) <= 1e-12


@criterion(6, "spectral lattice vs Hermite truncation on the three models")
def test_criterion_6_lattice_vs_truncation():
    t0 = time.monotonic()
    # harmonic oscillator: exact
    h = 0.1
    op = dc.quantize_quadratic(harmonic_form(), dc.HermiteTruncation(1, 20, h))
    ev = dc.spectrum_truncated(op, 5)
    assert multiset_defect(ev, h * (1 + 2 * np.arange(5))) <= 1e-12

    # rotated oscillator at N = 60
    op = dc.quantize_quadratic(davies_form(1.0), dc.HermiteTruncation(1, 60, 1.0))
    ev = dc.spectrum_truncated(op, 5)
    target = np.sqrt(1 + 1j) * (1 + 2 * np.arange(5))
    assert multiset_defect(ev, target) <= 1e-6

    # kinetic model vs numerically computed lattice, with N-ladder
    q = kfp_form(1.0)
    spec = dc.stable_eigenvalues(dc.hamilton_map(q))
    lattice = []
    for z, mult in dc.lattice_points(spec, 1.0, 2.2):
        lattice.extend([z] * mult)
    lattice = sorted(lattice, key=lambda z: (abs(z), z.real, z.imag))[:4]
    errs = {}
    for N in (20, 30, 40):
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(2, N, 1.0))
        errs[N] = multiset_defect(dc.spectrum_truncated(op, 4), lattice)
    assert errs[30] <= 1e-4
    assert errs[30] <= max(errs[20], NOISE_FLOOR)
    assert errs[40] <= max(errs[30], NOISE_FLOOR)
    assert time.monotonic() - t0 < 120.0


@criterion(7, "strip counting bounded by f^(d-1), exact vs brute force")
def test_criterion_7_strip_counting():
    flat = dc.LatticeSpectrum(2, np.array([1j, 1j]), np.array([1.0 + 0j, 1.0 + 0j]))
    wedge_spec = dc.stable_eigenvalues(dc.hamilton_map(wedge_form()))
    for spec in (flat, wedge_spec):
        ratios = []
        for f in (10.0, 20.0, 40.0):
            # independent oracle: enumerate Re mu(k) once on a generous k-box
            kmax = int((3 * f + 1) / (2 * min(spec.mus.real))) + 2
            ks = np.array(list(itertools.product(range(kmax + 1), repeat=2)))
            re_values = (1 + 2 * ks) @ spec.mus.real
            worst = 0
            for rho in np.arange(-3 * f, 3 * f + 0.25, 0.5):
                count = dc.strip_count(spec, float(rho), 0.5)
                assert count == int(np.sum(np.abs(rho - re_values) <= 0.5))
                worst = max(worst, count)
            ratios.append(worst / f ** (spec.dim - 1))
        assert max(ratios) <= 2.0


@criterion(8, "excluded discs: exponentially small fraction, O(F^d) count")
def test_criterion_8_region_geometry():
    spec = dc.stable_eigenvalues(dc.hamilton_map(wedge_form()))
    h = 0.05
    ratios = []
    for F in (6.5, 10.0, 16.0):
        region = dc.RegionSpec.with_f_value(h, F, 10.0, 2, inner_radius=3 * h)
        frac = dc.excluded_area_fraction(region, spec)
        assert frac <= math.exp(-F / region.C1)
        count = len(dc.exclusion_discs(region, spec))
        ratios.append(count / F**2)
    c_fit = max(ratios)
    assert c_fit <= 0.25
    assert max(ratios) / min(ratios) <= 1.8


@criterion(9, "desk-scale resolvent growth fit across the h ladder")
def test_criterion_9_theorem_probe():
    t0 = time.monotonic()
    rows, exponent, max_rel, _ = probe_theorem(
        kfp_form(1.0),
        h_values=[0.2, 0.1, 0.05, 0.025],
        C0=0.15,
        C1=10.0,
        inner_mult=3.0,
        samples=20,
        seed=0,
    )
    assert len(rows) == 80
    assert all(math.isfinite(r[2]) for r in rows)
    rho = 0.5
    assert exponent <= 1.0 + rho + 0.15
    assert time.monotonic() - t0 < 600.0


@criterion(10, "non-normal resolvent growth far from the spectrum")
def test_criterion_10_pseudospectral_contrast():
    q = davies_form(1.0)
    h = 0.05
    op = dc.quantize_quadratic(q, dc.HermiteTruncation(1, 100, h))
    spec = dc.stable_eigenvalues(dc.hamilton_map(q))
    z = 3.0 * np.exp(1j * np.pi / 16)  # inside the range cone, off the spectral ray
    dist = dc.dist_to_spectrum(spec, h, z)
    norm = dc.resolvent_norm(op, z)
    assert math.isfinite(norm)
    assert norm > 10.0 / dist
    # the value is truncation-converged
    op2 = dc.quantize_quadratic(q, dc.HermiteTruncation(1, 120, h))
    assert abs(dc.resolvent_norm(op2, z) - norm) <= 1e-6 * norm
