import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings

import dcspec as dc
from dcspec._linalg import sym
from dcspec.errors import (
    InvalidPhaseError,
    NotCanonicalError,
    NotFbiPhaseError,
    SingularBlockError,
)
from conftest import random_canonical_matrix


def random_phase(rng, dim):
    xx = sym(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    xy = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    R = rng.standard_normal((dim, dim))
    yy = sym(rng.standard_normal((dim, dim))) + 1j * (R @ R.T + np.eye(dim))
    return dc.FbiPhase(dim, xx, xy, yy)


def test_standard_phase_blocks():
    phase = dc.standard_phase(2)
    assert np.array_equal(phase.xx, 1j * np.eye(2))
    assert np.array_equal(phase.xy, -1j * np.eye(2))
    assert np.array_equal(phase.yy, 1j * np.eye(2))


def test_phase_validation():
    with pytest.raises(InvalidPhaseError):
        dc.FbiPhase(1, [[1j]], [[1.0]], [[-1j]])  # Im yy < 0
    with pytest.raises(InvalidPhaseError):
        dc.FbiPhase(1, [[1j]], [[0.0]], [[1j]])  # singular xy


def test_standard_weight_is_half_im_x_squared(rng):
    w = dc.phi_weight(dc.standard_phase(2))
    for _ in range(20):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert w.value(x) == pytest.approx(0.5 * np.sum(x.imag**2), abs=1e-14)
    assert np.allclose(w.levi, 0.25 * np.eye(2), atol=1e-15)


def test_standard_critical_point_is_real_part(rng):
    phase = dc.standard_phase(3)
    for _ in range(10):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(dc.y_critical(phase, x), x.real, atol=1e-14)


def test_kappa_of_standard_phase():
    bmap = dc.kappa_of_phase(dc.standard_phase(2))
    assert np.allclose(bmap.A, np.eye(2), atol=1e-15)
    assert np.allclose(bmap.B, -1j * np.eye(2), atol=1e-15)
    assert np.allclose(bmap.C, np.zeros((2, 2)), atol=1e-15)
    assert np.allclose(bmap.D, np.eye(2), atol=1e-15)
    # kappa(y, eta) = (y - i eta, eta)
    y = np.array([1.0, -2.0])
    eta = np.array([0.5, 3.0])
    out = bmap.matrix @ np.concatenate([y, eta])
    assert np.allclose(out[:2], y - 1j * eta)
    assert np.allclose(out[2:], eta)


def test_phase_of_standard_kappa_roundtrip():
    I = np.eye(2)
    bmap = dc.BlockCanonicalMap(I, -1j * I, 0 * I, I)
    phase = dc.phase_of_kappa(bmap)
    assert np.allclose(phase.xx, 1j * I, atol=1e-15)
    assert np.allclose(phase.yy, 1j * I, atol=1e-15)
    assert np.allclose(phase.xy, -1j * I, atol=1e-15)


def test_singular_block_signal():
    I = np.eye(2)
    with pytest.raises(SingularBlockError):
        dc.phase_of_kappa(dc.BlockCanonicalMap(I, 0 * I, 0 * I, I))


def test_not_canonical_signal(rng):
    M = random_canonical_matrix(rng, 2)
    M = M + 1e-3 * (rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape))
    with pytest.raises(NotCanonicalError):
        dc.phase_of_kappa(dc.BlockCanonicalMap.from_matrix(M))


def test_not_fbi_phase_signal():
    # conjugate-type map: canonical, B invertible, but Im yy = -I
    I = np.eye(2)
    bmap = dc.BlockCanonicalMap(I, 1j * I, 0 * I, I)
    assert dc.canonicity_conditions(bmap).max() < 1e-14
    with pytest.raises(NotFbiPhaseError, match="not admissible: Im yy"):
        dc.phase_of_kappa(bmap)


def test_canonicity_defects_scaling_example():
    # diag(2, 1) after the Gaussian map: B invertible but not canonical
    scale = np.diag([2.0, 1.0]).astype(complex)
    gauss = dc.kappa_of_phase(dc.standard_phase(1)).matrix
    bmap = dc.BlockCanonicalMap.from_matrix(scale @ gauss)
    defects = dc.canonicity_conditions(bmap)
    assert defects.max() > 0.1
    assert bmap.symplectic_defect > 0.1


def test_composition_with_normalizer_is_canonical(kfp):
    w = dc.weight_gq(kfp, T=1.0)
    kq = dc.canonical_normalizer(w, 0.05)
    gauss = dc.kappa_of_phase(dc.standard_phase(2)).matrix
    bmap = dc.BlockCanonicalMap.from_matrix(gauss @ kq.matrix)
    assert dc.canonicity_conditions(bmap).max() <= 1e-9


def test_equivalence_conditions_vs_symplectic_defect(rng):
    agree = 0
    total = 0
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
        except SingularBlockError:
            continue
        scale = max(1.0, np.linalg.norm(M) ** 2)
        total += 1
        agree += (defects.max() <= 1e-9 * scale) == (
            bmap.symplectic_defect <= 1e-8 * scale
        )
    assert total > 150
    assert agree == total


def test_levi_positivity_random_phases(rng):
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        phase = random_phase(rng, dim)
        w = dc.phi_weight(phase)
        assert np.linalg.eigvalsh(w.levi).min() > 0


def test_critical_value_consistency(rng):
    for _ in range(15):
        dim = int(rng.integers(1, 4))
        phase = random_phase(rng, dim)
        w = dc.phi_weight(phase)
        for _ in range(5):
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            y0 = dc.y_critical(phase, x)
            val = -np.imag(dc.phase_value(phase, x, y0))
            assert w.value(x) == pytest.approx(val, abs=1e-12 * max(1, abs(val)))
            # strict maximum over real y away from the critical point
            y = y0 + rng.standard_normal(dim)
            assert -np.imag(dc.phase_value(phase, x, y)) < w.value(x)


def test_contour_relation(rng):
    # kappa_phi maps real points onto the graph of (2/i) d_x Phi
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        phase = random_phase(rng, dim)
        w = dc.phi_weight(phase)
        bmap = dc.kappa_of_phase(phase)
        Y = rng.standard_normal(2 * dim)
        out = bmap.matrix @ Y
        x, xi = out[:dim], out[dim:]
        assert np.allclose(xi, w.xi_on_contour(x), atol=1e-10 * max(1, np.linalg.norm(xi)))


def test_roundtrip_phase_kappa_phase(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        phase = random_phase(rng, dim)
        bmap = dc.kappa_of_phase(phase)
        assert bmap.symplectic_defect <= 1e-10 * max(1.0, np.linalg.norm(bmap.matrix) ** 2)
        back = dc.phase_of_kappa(bmap)
        assert np.allclose(back.xx, phase.xx, atol=1e-10)
        assert np.allclose(back.xy, phase.xy, atol=1e-10)
        assert np.allclose(back.yy, phase.yy, atol=1e-10)


def test_roundtrip_kappa_phase_kappa(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        M = random_canonical_matrix(rng, dim)
        bmap = dc.BlockCanonicalMap.from_matrix(M)
        try:
            phase = dc.phase_of_kappa(bmap)
        except (SingularBlockError, NotFbiPhaseError):
            continue
        again = dc.kappa_of_phase(phase)
        assert np.allclose(again.matrix, bmap.matrix, atol=1e-9 * max(1, np.linalg.norm(M)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_kappa_phase_kappa_roundtrip_property(data):
    # canonical maps K0 exp(-0.3 J S) near the standard Gaussian map K0,
    # S complex symmetric: the phase is either refused with a typed error
    # or regenerates the map
    dim = data.draw(st.integers(1, 3))
    entries = hnp.arrays(float, (2 * dim, 2 * dim), elements=st.floats(-1, 1))
    S = sym(data.draw(entries) + 1j * data.draw(entries))
    M = dc.kappa_of_phase(dc.standard_phase(dim)).matrix @ sla.expm(
        -0.3 * dc.standard_j(dim) @ S
    )
    bmap = dc.BlockCanonicalMap.from_matrix(M)
    try:
        phase = dc.phase_of_kappa(bmap)
    except (SingularBlockError, NotFbiPhaseError):
        return
    again = dc.kappa_of_phase(phase)
    assert np.allclose(again.matrix, M, rtol=0, atol=1e-9 * max(1, np.linalg.norm(M)))

