import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from dcspec import QuadraticForm, build_quadratic_form, standard_j
from dcspec._linalg import sym


def kfp_form(a=1.0):
    """Kinetic-diffusion model (1/2)(y^2 + eta^2) + i(y xi - a x eta), d = 2."""
    return build_quadratic_form(
        2,
        {
            ((0, 2), (0, 0)): 0.5,
            ((0, 0), (0, 2)): 0.5,
            ((0, 1), (1, 0)): 1j,
            ((1, 0), (0, 1)): -1j * a,
        },
    )


def family_form(alpha=1.0, beta=1.0, gamma=1.0):
    """xi1^2 + xi2^2 + x1^2 + i(alpha x1^2 + 2 beta x1 x2 + gamma x2^2)."""
    return build_quadratic_form(
        2,
        {
            ((0, 0), (2, 0)): 1.0,
            ((0, 0), (0, 2)): 1.0,
            ((2, 0), (0, 0)): 1.0 + 1j * alpha,
            ((1, 1), (0, 0)): 2j * beta,
            ((0, 2), (0, 0)): 1j * gamma,
        },
    )


def harmonic_form(dim=1):
    coeffs = {}
    for j in range(dim):
        x2 = tuple(2 if i == j else 0 for i in range(dim))
        zero = (0,) * dim
        coeffs[(x2, zero)] = 1.0
        coeffs[(zero, x2)] = 1.0
    return build_quadratic_form(dim, coeffs)


def davies_form(alpha=1.0):
    """(hD)^2 + (1 + i alpha) x^2."""
    return build_quadratic_form(1, {((2,), (0,)): 1.0 + 1j * alpha, ((0,), (2,)): 1.0})


def wedge_form():
    """Hamilton spectrum {±e^{i pi/3}, ±e^{2i pi/3}}; mu = e^{∓i pi/6}."""
    return build_quadratic_form(
        2,
        {
            ((0, 0), (2, 0)): 1.0,
            ((0, 0), (0, 2)): 1.0,
            ((2, 0), (0, 0)): np.exp(-1j * np.pi / 3),
            ((0, 2), (0, 0)): np.exp(1j * np.pi / 3),
        },
    )


def random_canonical_matrix(rng, dim, scale=0.4):
    """exp of a Hamiltonian matrix: -J S with S complex symmetric."""
    S = sym(
        rng.standard_normal((2 * dim, 2 * dim))
        + 1j * rng.standard_normal((2 * dim, 2 * dim))
    )
    return sla.expm(-scale * standard_j(dim) @ S)


def random_complex_form(rng, dim):
    """Quadratic form with a random complex symmetric 2d x 2d matrix."""
    return QuadraticForm(
        dim,
        sym(
            rng.standard_normal((2 * dim, 2 * dim))
            + 1j * rng.standard_normal((2 * dim, 2 * dim))
        ),
    )


def multiset_defect(a, b):
    """Max pairing distance between two equal-length eigenvalue multisets.

    Sorting complex arrays mispairs eigenvalues whose real parts agree to
    rounding, so pair by minimum-cost assignment instead.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ValueError("multisets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if len(a) else 0.0


def random_psd_real_form(rng, dim, rank=None):
    n = 2 * dim
    if rank is None:
        rank = n
    if rank == 0:
        return np.zeros((n, n))
    R = rng.standard_normal((rank, n))
    return R.T @ R


def seeded_form(dim, seed=0):
    """A seeded complex form: Re A positive definite, Im A symmetric."""
    rng = np.random.default_rng(seed)
    n = 2 * dim
    return QuadraticForm(dim, random_psd_real_form(rng, dim) + 1j * sym(rng.standard_normal((n, n))))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def kfp():
    return kfp_form(1.0)


@pytest.fixture
def harmonic():
    return harmonic_form(1)


@pytest.fixture
def davies():
    return davies_form(1.0)


@pytest.fixture
def wedge():
    return wedge_form()
