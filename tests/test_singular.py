import time

import numpy as np
import pytest
import scipy.linalg as sla

import dcspec as dc
from dcspec._linalg import sym
from dcspec.errors import PreconditionError
from conftest import (
    family_form,
    harmonic_form,
    kfp_form,
    random_psd_real_form,
)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_kfp_singular_space_trivial(a):
    space = dc.singular_space(dc.hamilton_map(kfp_form(a)))
    assert space.dim == 0


def test_family_degenerate_singular_space_line():
    space = dc.singular_space(dc.hamilton_map(family_form(1.0, 0.0, 0.0)))
    assert space.dim == 1
    v = space.basis[:, 0]
    target = np.zeros(4)
    target[1] = 1.0
    assert min(np.linalg.norm(v - target), np.linalg.norm(v + target)) < 1e-9


def test_singular_space_basis_invariants():
    # orthonormal columns, each annihilated by every iterated product
    for q in (family_form(1.0, 0.0, 0.0), dc.QuadraticForm(1, np.zeros((2, 2)))):
        fmap = dc.hamilton_map(q)
        space = dc.singular_space(fmap)
        B = space.basis
        assert np.allclose(B.T @ B, np.eye(space.dim), atol=1e-12)
        scale = max(np.linalg.norm(fmap.matrix), 1e-300)
        P = np.eye(2 * fmap.dim)
        for k in range(2 * fmap.dim):
            for j in range(space.dim):
                v = B[:, j]
                assert np.linalg.norm(fmap.real @ P @ v) <= space.tolerance * scale ** (k + 1)
            P = P @ fmap.imag


@pytest.mark.parametrize(
    "beta,gamma", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, -0.7)]
)
def test_family_nondegenerate_singular_space_trivial(beta, gamma):
    space = dc.singular_space(dc.hamilton_map(family_form(1.0, beta, gamma)))
    assert space.dim == 0


def test_harmonic_singular_space_trivial(harmonic):
    assert dc.singular_space(dc.hamilton_map(harmonic)).dim == 0


@pytest.mark.parametrize(
    "q", [kfp_form(1.0), family_form(1, 1, 1), family_form(1, 1, 0), family_form(1, 0, 0)]
)
def test_rank_decision_stable_in_tolerance(q):
    dims = {
        dc.singular_space(dc.hamilton_map(q), tolerance=t).dim
        for t in (1e-12, 1e-10, 1e-8)
    }
    assert len(dims) == 1


def test_averaged_form_identity_flow(harmonic):
    avg = dc.averaged_real_part(harmonic, T=1.0)
    assert np.allclose(avg.matrix, harmonic.matrix.real, atol=1e-12)


def test_averaged_form_kfp_positive(kfp):
    avg = dc.averaged_real_part(kfp, T=1.0)
    assert avg.min_eigenvalue > 0


def test_averaged_form_degenerate_annihilates_line():
    q = family_form(1.0, 0.0, 0.0)
    avg = dc.averaged_real_part(q, T=1.0)
    v = np.zeros(4)
    v[1] = 1.0
    assert np.linalg.norm(avg.matrix @ v) < 1e-8 * np.linalg.norm(avg.matrix)


def test_averaged_positive_for_both_times():
    # positivity holds for any T when the singular space is trivial
    for q in (kfp_form(1.0), family_form(1, 1, 1), family_form(1, 1, 0)):
        for T in (1.0, 2.0):
            assert dc.averaged_real_part(q, T=T).min_eigenvalue > 0


def test_positivity_equivalence_reports():
    rep = dc.positivity_equivalence_check(kfp_form(1.0))
    assert rep.s_dim == 0 and rep.min_eigenvalue > rep.threshold and rep.consistent

    rep = dc.positivity_equivalence_check(family_form(1.0, 0.0, 0.0))
    assert rep.s_dim == 1 and rep.min_eigenvalue <= rep.threshold and rep.consistent

    rep = dc.positivity_equivalence_check(family_form(1.0, 1.0, 1.0))
    assert rep.s_dim == 0 and rep.min_eigenvalue > rep.threshold and rep.consistent


def test_positivity_check_rejects_indefinite_real_part():
    q = dc.build_quadratic_form(1, {((2,), (0,)): -1.0, ((0,), (2,)): 1.0})
    with pytest.raises(PreconditionError):
        dc.positivity_equivalence_check(q)


def test_flow_vanishing_order_harmonic(harmonic):
    order = dc.flow_vanishing_order(harmonic, [1, 0])
    assert order.k == 0 and order.coefficient == 1.0


def test_flow_vanishing_order_kfp(kfp):
    # Re F kills (1,0,0,0); one application of Im F moves it to y with weight 1/2
    order = dc.flow_vanishing_order(kfp, [1, 0, 0, 0])
    assert order.k == 1
    assert abs(order.coefficient - 0.125) < 1e-14


def test_flow_vanishing_order_rejects_singular_direction():
    q = family_form(1.0, 0.0, 0.0)
    with pytest.raises(PreconditionError):
        dc.flow_vanishing_order(q, [0, 1, 0, 0])


@pytest.mark.parametrize(
    "q,X,expected_k",
    [
        (harmonic_form(), [1.0, 0.0], 0),
        (kfp_form(1.0), [1.0, 0.0, 0.0, 0.0], 1),
        (kfp_form(2.0), [0.3, 0.0, -0.8, 0.0], 1),
    ],
)
def test_flow_vanishing_order_loglog_slope(q, X, expected_k):
    order = dc.flow_vanishing_order(q, X)
    assert order.k == expected_k
    ImF = dc.hamilton_map(q).imag
    ReA = q.matrix.real
    ts = np.array([1e-3, 5e-4, 2.5e-4])
    vals = []
    for t in ts:
        y = sla.expm(t * ImF) @ np.asarray(X, dtype=float)
        vals.append(y @ ReA @ y)
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert abs(slope - 2 * order.k) < 0.05
    # leading Taylor coefficient matches
    assert np.allclose(vals, order.coefficient * ts ** (2 * order.k), rtol=1e-2)


def test_characterization_via_iterated_brackets():
    # S = {X : (d/dt)^k along the imaginary flow of Re q vanishes at X, all k}
    for q in (kfp_form(1.0), family_form(1, 1, 0), family_form(1, 0, 0)):
        F = dc.hamilton_map(q)
        H = 2.0 * F.imag
        space = dc.singular_space(F)
        d2 = 2 * q.dim
        forms = []
        P = q.matrix.real
        for _ in range(2 * (d2 - 1) + 1):
            forms.append(P)
            P = H.T @ P + P @ H
        scale = max(np.linalg.norm(Pk) for Pk in forms)
        for j in range(space.dim):
            v = space.basis[:, j]
            assert all(abs(v @ Pk @ v) <= 1e-10 * scale for Pk in forms)
        # vectors outside S fail some bracket condition
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = rng.standard_normal(d2)
            v -= space.basis @ (space.basis.T @ v)
            if np.linalg.norm(v) < 0.1:
                continue
            v /= np.linalg.norm(v)
            assert any(abs(v @ Pk @ v) > 1e-8 * scale for Pk in forms)


def test_equivalence_randomized_family(rng):
    t0 = time.monotonic()
    disagreements = 0
    for trial in range(60):
        d = int(rng.integers(1, 4))
        mode = trial % 3
        if mode < 2:
            rank = 2 * d if mode == 0 else 2 * d - 1
            ReA = random_psd_real_form(rng, d, rank)
            ImA = sym(rng.standard_normal((2 * d, 2 * d)))
        else:
            ReA = np.zeros((2 * d, 2 * d))
            ImA = sym(rng.standard_normal((2 * d, 2 * d)))
            if d > 1:
                m = int(rng.integers(1, d))
                act = list(range(m)) + list(range(d, d + m))
                R = rng.standard_normal((2 * m, 2 * m))
                ReA[np.ix_(act, act)] = R.T @ R
        q = dc.QuadraticForm(d, ReA + 1j * ImA)
        rep = dc.positivity_equivalence_check(q)
        disagreements += not rep.consistent
    assert disagreements == 0
    assert time.monotonic() - t0 < 30


@pytest.fixture
def expm_calls(monkeypatch):
    """Count scipy.linalg.expm calls, starting from an empty flow cache."""
    from dcspec import singular

    calls = []
    real_expm = singular.sla.expm

    def counting(A):
        calls.append(A.shape)
        return real_expm(A)

    monkeypatch.setattr(singular.sla, "expm", counting)
    singular._flow_exponential.cache_clear()
    return calls


def test_flow_exponential_shared_by_its_three_callers(expm_calls):
    from dcspec import singular

    q = family_form(1, 1, 0)
    dc.positivity_equivalence_check(q, T=1.0)
    dc.weight_gq(q, T=1.0)
    dc.averaging_identity_defect(q, T=1.0)
    dc.averaged_real_part(q, T=1.0)
    assert len(expm_calls) == 1
    dc.weight_gq(q, T=2.0)  # a new T
    assert len(expm_calls) == 2
    dc.weight_gq(kfp_form(2.0), T=2.0)  # a new form
    assert len(expm_calls) == 3
    # equal coefficients in a new object: served from the cache
    dc.weight_gq(dc.QuadraticForm(2, kfp_form(2.0).matrix.copy()), T=2.0)
    assert len(expm_calls) == 3
    assert singular._flow_exponential.cache_info().currsize == 1  # one entry, not one per form


def test_flow_memo_returns_fresh_copies(expm_calls):
    from dcspec import singular

    q = kfp_form(1.0)
    cold_w = dc.weight_gq(q, T=1.5).matrix.copy()
    cold_avg = dc.averaged_real_part(q, T=1.5).matrix.copy()
    cold_defect = dc.averaging_identity_defect(q, T=1.5)
    dc.weight_gq(q, T=1.5).matrix[:] = np.nan  # written in place by a caller
    total, ramp = singular._flow_integrals(q, 1.5)
    total[:] = ramp[:] = np.nan
    assert np.array_equal(dc.weight_gq(q, T=1.5).matrix, cold_w)
    assert np.array_equal(dc.averaged_real_part(q, T=1.5).matrix, cold_avg)
    assert dc.averaging_identity_defect(q, T=1.5) == cold_defect
    assert len(expm_calls) == 1
    # warm results equal the cold ones of a fresh computation
    singular._flow_exponential.cache_clear()
    assert np.array_equal(dc.weight_gq(q, T=1.5).matrix, cold_w)
    assert len(expm_calls) == 2


def test_overflowing_flow_is_numerical_failure(expm_calls):
    # x^2 + i x xi: the flow stretches like exp(2T), which overflows the
    # Van Loan exponential near T = 355; nothing is cached
    from dcspec import singular
    from dcspec.errors import NumericalFailureError

    q = dc.build_quadratic_form(1, {((2,), (0,)): 1.0, ((1,), (1,)): 1j})
    for call in (dc.averaged_real_part, dc.weight_gq, dc.averaging_identity_defect):
        with pytest.raises(NumericalFailureError, match="T = 400"):
            call(q, T=400.0)
        assert singular._flow_exponential.cache_info().currsize == 0
    assert np.isfinite(dc.weight_gq(q, T=300.0).matrix).all()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kronecker_sum_equals_two_krons(d, rng):
    from dcspec.singular import _kronecker_sum

    A = rng.standard_normal((2 * d, 2 * d))
    A[0, -1] = -0.0  # signed zeros take the same products too
    I = np.eye(2 * d)
    want = np.kron(A, I) + np.kron(I, A)
    assert _kronecker_sum(A).tobytes() == want.tobytes()
