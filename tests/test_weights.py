import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from scipy.integrate import quad_vec

import dcspec as dc
from dcspec._linalg import sym
from dcspec.errors import DeltaTooLargeError, NumericalFailureError
from conftest import family_form, kfp_form, multiset_defect, random_psd_real_form, seeded_form


def test_weight_trivial_flow(harmonic):
    for T in (0.5, 1.0, 3.0):
        w = dc.weight_gq(harmonic, T=T)
        assert np.allclose(w.matrix, 0.5 * T * harmonic.matrix.real, atol=1e-12)


def test_weight_hamilton_matrix_is_sigma_skew(kfp):
    w = dc.weight_gq(kfp, T=1.0)
    H = w.hamilton_matrix
    J = dc.standard_j(2)
    # sigma(H X, Y) = -sigma(X, H Y) means J H symmetric
    assert np.allclose(J @ H, (J @ H).T, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_weight_hamilton_matrix_is_the_j_product(d):
    # the block swap [2 G_xi; -2 G_x] equals -2 J G exactly, for a weight
    # of the flow and for a plain positive semidefinite one
    rng = np.random.default_rng(d)
    for G in (dc.weight_gq(seeded_form(d, d), T=1.0).matrix, random_psd_real_form(rng, d, d)):
        w = dc.QuadraticWeight(T=1.0, matrix=G)
        assert np.array_equal(w.hamilton_matrix, -2 * dc.standard_j(d) @ G)


@pytest.fixture
def eigvals_calls(monkeypatch):
    """Count numpy eigvals calls, starting from an empty delta_max cache."""
    from dcspec import weights

    calls = []
    real_eigvals = np.linalg.eigvals

    def counting(A):
        calls.append(A.shape)
        return real_eigvals(A)

    monkeypatch.setattr(weights.np.linalg, "eigvals", counting)
    weights._spectral_bound.cache_clear()
    return calls


def test_delta_max_shared_and_never_stale(eigvals_calls):
    w = dc.weight_gq(kfp_form(1.0), T=1.0)
    dmax = dc.delta_max(w)
    dc.canonical_normalizer(w, 0.5 * dmax)
    # equal content in a new object: served from the cache
    dc.canonical_normalizer(dc.QuadraticWeight(w.T, w.matrix.copy()), 0.5 * dmax)
    assert len(eigvals_calls) == 1
    # written in place by a caller: both functions see the new content,
    # whose H_G is twice the old one
    w.matrix[:] *= 2.0
    with pytest.raises(DeltaTooLargeError):
        dc.canonical_normalizer(w, 0.75 * dmax)
    assert dc.delta_max(w) == pytest.approx(0.5 * dmax, rel=1e-12)
    assert len(eigvals_calls) == 2


def test_averaging_identity_kfp(kfp):
    defect = dc.averaging_identity_defect(kfp, T=1.0)
    assert defect <= 1e-8 * np.linalg.norm(kfp.matrix)


def test_averaging_identity_random(rng):
    for _ in range(50):
        d = int(rng.integers(1, 4))
        n = 2 * d
        R = rng.standard_normal((n, n))
        ReA = R.T @ R
        ImA = sym(rng.standard_normal((n, n)))
        q = dc.QuadraticForm(d, ReA + 1j * ImA)
        assert dc.averaging_identity_defect(q, T=1.0) <= 1e-8 * np.linalg.norm(q.matrix)


def flow_test_forms(d, corank, T, count=3):
    """Seeded (Re A, q) pairs with Re A of rank 2d - corank."""
    rng = np.random.default_rng(100 * d + 10 * corank + int(2 * T))
    for _ in range(count):
        ReA = random_psd_real_form(rng, d, 2 * d - corank)
        yield ReA, dc.QuadraticForm(d, ReA + 1j * sym(rng.standard_normal((2 * d, 2 * d))))


@pytest.mark.parametrize("T", [0.5, 2.5])
@pytest.mark.parametrize("corank", [0, 1])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_flow_averages_match_quad_vec(d, corank, T):
    # independent oracle: adaptive quadrature of the flow, expm at each node
    for ReA, q in flow_test_forms(d, corank, T):
        ImF = dc.hamilton_map(q).imag

        def phi(t):
            M = sla.expm(2.0 * t * ImF)
            return M.T @ ReA @ M

        total, _ = quad_vec(phi, 0.0, T, epsabs=1e-14, epsrel=1e-13)
        ramp, _ = quad_vec(lambda t: (1.0 - t / T) * phi(t), 0.0, T,
                           epsabs=1e-14, epsrel=1e-13)
        avg = dc.averaged_real_part(q, T=T).matrix
        G = dc.weight_gq(q, T=T).matrix
        assert np.linalg.norm(avg - sym(total) / T) <= 1e-10 * np.linalg.norm(total / T)
        assert np.linalg.norm(G - sym(ramp)) <= 1e-10 * np.linalg.norm(ramp)


@pytest.mark.parametrize("corank", [0, 1])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_averaging_identity_defect_relative_to_flow(d, corank):
    # The defect is absolute and grows with the flow: at T = 2.5 it reaches
    # 1.6e-4 (d = 3, corank 1), far above 1e-8 ||A||, while relative to the
    # terms the identity compares it stays at rounding level.
    T = 2.5
    for _, q in flow_test_forms(d, corank, T):
        H = 2.0 * dc.hamilton_map(q).imag
        G = dc.weight_gq(q, T=T).matrix
        avg = dc.averaged_real_part(q, T=T).matrix
        scale = 2.0 * np.linalg.norm(H) * np.linalg.norm(G) + np.linalg.norm(avg)
        assert dc.averaging_identity_defect(q, T=T) <= 1e-12 * scale


def test_deformed_symbol_at_zero(kfp):
    w = dc.weight_gq(kfp, T=1.0)
    ds = dc.deformed_symbol(kfp, w, 0.0)
    assert np.array_equal(ds.matrix, kfp.matrix)


def test_deformed_symbol_first_order(kfp):
    # Re part = (1 - delta) Re A + delta * average + O(delta^2)
    w = dc.weight_gq(kfp, T=1.0)
    avg = dc.averaged_real_part(kfp, T=1.0).matrix
    deltas = np.array([1e-2, 1e-3, 1e-4])
    errs = []
    for dl in deltas:
        B = dc.deformed_symbol(kfp, w, dl).matrix
        errs.append(np.linalg.norm(B.real - ((1 - dl) * kfp.matrix.real + dl * avg)))
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.15


def test_ellipticity_margin_examples(harmonic, kfp):
    w = dc.weight_gq(harmonic, T=1.0)
    assert dc.ellipticity_margin(dc.deformed_symbol(harmonic, w, 0.0)) == pytest.approx(1.0)
    wk = dc.weight_gq(kfp, T=1.0)
    assert abs(dc.ellipticity_margin(dc.deformed_symbol(kfp, wk, 0.0))) < 1e-12
    margin = dc.ellipticity_margin(dc.deformed_symbol(kfp, wk, 0.05))
    assert margin > 0


def test_ellipticity_margin_linear_in_delta(kfp):
    w = dc.weight_gq(kfp, T=1.0)
    min_avg = dc.averaged_real_part(kfp, T=1.0).min_eigenvalue
    deltas = np.linspace(0.01, 0.2, 8)
    margins = [dc.ellipticity_margin(dc.deformed_symbol(kfp, w, dl)) for dl in deltas]
    assert all(m > 0 for m in margins)
    # margin >= delta * min_avg * (1 - c delta) for a moderate fitted c
    c = 5.0
    for dl, m in zip(deltas, margins):
        assert m >= dl * min_avg * (1 - c * dl)


def test_canonical_normalizer_identity_at_zero(kfp):
    w = dc.weight_gq(kfp, T=1.0)
    kappa = dc.canonical_normalizer(w, 0.0)
    assert np.allclose(kappa.matrix, np.eye(4), atol=1e-14)


def test_canonical_normalizer_closed_form():
    # weight x^2 + xi^2 in d = 1: H = -2J, kappa = (1-4 delta^2)^(-1/2) (I - 2 i delta J)
    w = dc.QuadraticWeight(T=1.0, matrix=np.eye(2))
    J = dc.standard_j(1)
    assert np.allclose(w.hamilton_matrix, -2 * J)
    for dl in (0.05, 0.2, 0.4):
        kappa = dc.canonical_normalizer(w, dl)
        expected = (np.eye(2) - 2j * dl * J) / np.sqrt(1 - 4 * dl**2)
        assert np.allclose(kappa.matrix, expected, atol=1e-13)
        assert kappa.symplectic_defect <= 1e-12
    assert dc.delta_max(w) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DeltaTooLargeError):
        dc.canonical_normalizer(w, 0.5)


@pytest.mark.parametrize("q", [kfp_form(1.0), family_form(1, 1, 1), family_form(1, 1, 0)])
def test_canonical_normalizer_properties(q, rng):
    w = dc.weight_gq(q, T=1.0)
    J = dc.standard_j(q.dim)
    lam_f = np.linalg.eigvals(dc.hamilton_map(q).matrix)
    dmax = dc.delta_max(w)
    for dl in (0.01, 0.1, 0.45 * dmax):
        kappa = dc.canonical_normalizer(w, dl)
        scale = max(1.0, np.linalg.norm(kappa.matrix) ** 2)
        assert kappa.symplectic_defect <= 1e-10 * scale
        # image containment: kappa = (1 + i delta H) S with S real
        H = w.hamilton_matrix
        assert np.allclose(
            kappa.matrix, (np.eye(2 * q.dim) + 1j * dl * H) @ kappa.normalizer, atol=1e-13
        )
        assert np.isrealobj(kappa.normalizer)
        for _ in range(10):
            X = rng.standard_normal(2 * q.dim)
            SX = kappa.normalizer @ X
            assert np.linalg.norm(np.imag(SX)) < 1e-12
        # spectral invariance of the composed symbol's Hamilton matrix
        qk = dc.QuadraticForm(q.dim, sym(kappa.matrix.T @ q.matrix @ kappa.matrix))
        lam_k = np.linalg.eigvals(dc.hamilton_map(qk).matrix)
        assert multiset_defect(lam_f, lam_k) <= 1e-8


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    corank=st.integers(0, 1),
    frac=st.floats(0, 0.9),
)
def test_canonical_normalizer_keeps_hamilton_spectrum_property(seed, d, corank, frac):
    # Gaussian forms with Re A >= 0 of corank 0 or 1, at delta up to
    # 0.9 delta_max; q o kappa has Hamilton map kappa^-1 F kappa, so the
    # spectra agree up to rounding amplified by cond(kappa).  The forms are
    # drawn by seed, so they are generic; a nilpotent H_G, which forms drawn
    # entry by entry reach, has its own test below.
    rng = np.random.default_rng(seed)
    n = 2 * d
    q = dc.QuadraticForm(
        d, random_psd_real_form(rng, d, n - corank) + 1j * sym(rng.standard_normal((n, n)))
    )
    w = dc.weight_gq(q, T=1.0)
    kappa = dc.canonical_normalizer(w, frac * dc.delta_max(w))
    F = dc.hamilton_map(q).matrix
    qk = dc.QuadraticForm(d, sym(kappa.matrix.T @ q.matrix @ kappa.matrix))
    defect = multiset_defect(np.linalg.eigvals(F), np.linalg.eigvals(dc.hamilton_map(qk).matrix))
    assert defect <= 1e-12 * np.linalg.norm(F) * np.linalg.cond(kappa.matrix)


def test_nilpotent_weight_has_no_delta_bound():
    # Re A = 0.25 [[1, 1], [1, 1]], Im A = 0.3125 [[1, 1], [1, 1]]: H_G is
    # nilpotent, and its computed eigenvalues are +-3.1e-9 i; read as the
    # spectrum they gave delta_max = 3.2e8, and canonical_normalizer failed
    # (LinAlgError) at 0.75 of that
    q = dc.QuadraticForm(1, (0.25 + 0.3125j) * np.ones((2, 2)))
    w = dc.weight_gq(q, T=1.0)
    assert 0 < np.max(np.abs(np.linalg.eigvals(w.hamilton_matrix))) < 1e-8
    assert dc.delta_max(w) == math.inf
    for delta in (0.75 * 3.2e8, 1e12):
        kappa = dc.canonical_normalizer(w, delta)
        assert np.array_equal(kappa.normalizer, np.eye(2))
        assert kappa.symplectic_defect <= 1e-10 * np.linalg.norm(kappa.matrix) ** 2


def test_delta_too_large_signal(kfp):
    w = dc.weight_gq(kfp, T=1.0)
    with pytest.raises(DeltaTooLargeError):
        dc.canonical_normalizer(w, dc.delta_max(w) * 1.01)


def test_canonical_normalizer_overflowing_delta_squared_is_numerical_failure():
    # 1e-240 (x + xi)^2: H_G is nilpotent, so delta_max is inf, and delta**2
    # overflows a float
    q = dc.build_quadratic_form(1, {((2,), (0,)): 1e-240, ((1,), (1,)): 2e-240,
                                    ((0,), (2,)): 1e-240})
    w = dc.weight_gq(q)
    assert dc.delta_max(w) == math.inf
    delta = 1e200
    with pytest.raises(NumericalFailureError, match=re.escape(f"delta = {delta!r}")):
        dc.canonical_normalizer(w, delta)


@pytest.mark.parametrize("T", [200.0, 300.0])
def test_averaging_defect_overflow_is_numerical_failure(T):
    # x^2 + i x xi: the flow exponential is finite below T = 355, but the
    # norm of the identity's terms, which grow like exp(2T), overflows
    q = dc.build_quadratic_form(1, {((2,), (0,)): 1.0, ((1,), (1,)): 1j})
    assert np.isfinite(dc.weight_gq(q, T=T).matrix).all()
    with pytest.raises(NumericalFailureError, match=f"T = {T}"):
        dc.averaging_identity_defect(q, T=T)
