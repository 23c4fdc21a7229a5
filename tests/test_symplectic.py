import numpy as np
import pytest

import dcspec as dc
from dcspec.errors import SymbolSchemaError
from conftest import davies_form, family_form, harmonic_form, kfp_form, seeded_form


def test_harmonic_matrix_is_identity(harmonic):
    assert np.allclose(harmonic.matrix, np.eye(2))


def test_kfp_coefficient_split(kfp):
    A = kfp.matrix
    assert A[1, 1] == 0.5 and A[3, 3] == 0.5
    assert A[1, 2] == 0.5j and A[2, 1] == 0.5j
    assert A[0, 3] == -0.5j and A[3, 0] == -0.5j
    # everything else vanishes
    mask = np.ones((4, 4), dtype=bool)
    for i, j in [(1, 1), (3, 3), (1, 2), (2, 1), (0, 3), (3, 0)]:
        mask[i, j] = False
    assert np.all(A[mask] == 0)


def test_family_offdiagonal_beta():
    q = family_form(alpha=0.0, beta=2.0, gamma=0.0)
    assert q.matrix[0, 1] == 2j and q.matrix[1, 0] == 2j


def test_build_rejects_bad_degree():
    with pytest.raises(SymbolSchemaError):
        dc.build_quadratic_form(1, {((1,), (0,)): 1.0})
    with pytest.raises(SymbolSchemaError):
        dc.build_quadratic_form(1, {((3,), (0,)): 1.0})


def test_build_rejects_dimension_mismatch():
    with pytest.raises(SymbolSchemaError):
        dc.build_quadratic_form(2, {((2,), (0,)): 1.0})


def test_evaluate_harmonic(harmonic):
    assert dc.evaluate(harmonic, [1, 0]) == 1
    assert dc.evaluate(harmonic, [0, 0]) == 0


def test_kfp_vanishes_on_double_characteristic_plane(kfp, rng):
    # q(x, 0, xi, 0) = 0
    for _ in range(20):
        x, xi = rng.standard_normal(2)
        assert abs(dc.evaluate(kfp, [x, 0, xi, 0])) < 1e-14


def test_hamilton_map_harmonic(harmonic):
    F = dc.hamilton_map(harmonic)
    assert np.allclose(F.matrix, [[0, 1], [-1, 0]])


def test_hamilton_map_kfp_matrix():
    # 2F X = (dq/dxi, -dq/dx) evaluated by hand for the a-family
    for a in (0.5, 1.0, 2.0):
        F = dc.hamilton_map(kfp_form(a)).matrix
        expected = np.array(
            [
                [0, 0.5j, 0, 0],
                [-0.5j * a, 0, 0, 0.5],
                [0, 0, 0, 0.5j * a],
                [0, -0.5, -0.5j, 0],
            ]
        )
        assert np.allclose(F, expected, atol=1e-14)


def test_kfp_iterated_kernels(kfp):
    # ker Re F = {(x, 0, xi, 0)} and ker(Re F Im F) = {(0, y, 0, eta)}
    F = dc.hamilton_map(kfp)
    e = np.eye(4)
    for v in (e[0], e[2]):
        assert np.linalg.norm(F.real @ v) < 1e-14
    for v in (e[1], e[3]):
        assert np.linalg.norm(F.real @ v) > 0.1
        assert np.linalg.norm(F.real @ F.imag @ v) < 1e-14
    for v in (e[0], e[2]):
        assert np.linalg.norm(F.real @ F.imag @ v) > 0.1


def test_hamilton_map_davies():
    F = dc.hamilton_map(davies_form(alpha=1.0))
    assert np.allclose(F.matrix, [[0, 1], [-(1 + 1j), 0]])


def test_symplectic_product_basics():
    assert dc.symplectic_product([1, 0], [0, 1]) == -1
    X = [0.3, -1.2]
    assert dc.symplectic_product(X, X) == 0


def test_symplectic_product_matches_j(rng):
    J = dc.standard_j(2)
    for _ in range(20):
        X = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        Y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(dc.symplectic_product(X, Y) - X @ J @ Y) < 1e-12


def test_j_squared_is_minus_identity():
    for d in (1, 2, 3):
        J = dc.standard_j(d)
        assert np.array_equal(J @ J, -np.eye(2 * d))


@pytest.mark.parametrize(
    "q",
    [harmonic_form(), kfp_form(1.0), family_form(1, 1, 1), davies_form(1.0)]
    + [seeded_form(d, seed) for d in (1, 2, 3) for seed in (0, 1)],
)
def test_hamilton_map_invariants(q, rng):
    F = dc.hamilton_map(q)
    J = dc.standard_j(q.dim)
    scale = np.linalg.norm(F.matrix)
    # the block swap equals the J product -J A exactly (np.array_equal
    # takes -0.0 == 0.0; the product's signs of zero follow BLAS summation)
    assert np.array_equal(F.matrix, -J @ q.matrix)
    # skew-symmetry with respect to the symplectic product on basis pairs
    e = np.eye(2 * q.dim)
    worst = max(
        abs(
            dc.symplectic_product(e[i], F.matrix @ e[j])
            + dc.symplectic_product(F.matrix @ e[i], e[j])
        )
        for i in range(2 * q.dim)
        for j in range(2 * q.dim)
    )
    assert worst <= 1e-12 * scale
    # q(X) = sigma(X, F X) on random points
    for _ in range(100):
        X = rng.standard_normal(2 * q.dim) + 1j * rng.standard_normal(2 * q.dim)
        lhs = dc.evaluate(q, X)
        rhs = dc.symplectic_product(X, F.matrix @ X)
        bound = 1e-12 * np.linalg.norm(q.matrix) * np.linalg.norm(X) ** 2
        assert abs(lhs - rhs) <= bound


@pytest.mark.parametrize("q", [kfp_form(1.0), family_form(1, 2, 3)])
def test_real_imag_split_commutes(q):
    F = dc.hamilton_map(q)
    F_re = dc.hamilton_map(q.real_part())
    F_im = dc.hamilton_map(q.imag_part())
    assert np.allclose(F_re.matrix, F.real, atol=1e-15)
    assert np.allclose(F_im.matrix, F.imag, atol=1e-15)


def test_phase_point_validation():
    with pytest.raises(ValueError):
        dc.phase_point([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        dc.evaluate(harmonic_form(), [1, 0, 0, 0])
