import itertools
import math
from importlib import resources

import numpy as np
import pytest
import scipy.sparse as sp

import dcspec as dc
from dcspec.cli import parse_symbol_spec
from conftest import davies_form, harmonic_form, kfp_form, multiset_defect


def ladder_matrices_1d(size, h):
    """Textbook oscillator matrices, built independently of the package."""
    a = np.zeros((size, size))
    for n in range(1, size):
        a[n - 1, n] = math.sqrt(n)
    x = math.sqrt(h / 2) * (a + a.T)
    p = -1j * math.sqrt(h / 2) * (a - a.T)
    return x, p


def graded_lex(dim, degree):
    """Reference multi-indices with |k| <= degree, by degree, then lexicographic."""
    box = itertools.product(range(degree + 1), repeat=dim)
    return sorted((k for k in box if sum(k) <= degree), key=lambda k: (sum(k), k))


def test_multi_index_count():
    from dcspec.weyl import multi_indices

    for d in (1, 2, 3):
        for N in (0, 3, 7):
            idx = multi_indices(d, N)
            assert idx.shape == (math.comb(N + d, d), d)
            assert [tuple(k) for k in idx.tolist()] == graded_lex(d, N)


def kron_galerkin(q, N, h):
    """Symmetrized <X, A X> from Kronecker products of 1-d ladder matrices.

    Products are formed on the (N + 3)^d box, so every entry between
    indices with |k| <= N is exact; those are kept, in graded-lex order.
    """
    d, size = q.dim, N + 3
    eye = sp.identity(size, format="csr")

    def in_slot(m, j):
        out = sp.identity(1, format="csr")
        for i in range(d):
            out = sp.kron(out, sp.csr_matrix(m) if i == j else eye, format="csr")
        return out

    x1, p1 = ladder_matrices_1d(size, h)
    ops = [in_slot(x1, j) for j in range(d)] + [in_slot(p1, j) for j in range(d)]
    A = q.matrix
    M = sum(A[i, j] * (ops[i] @ ops[j] + ops[j] @ ops[i]) / 2
            for i in range(2 * d) for j in range(2 * d))
    keep = [np.ravel_multi_index(k, (size,) * d) for k in graded_lex(d, N)]
    return M[keep][:, keep].toarray()


@pytest.mark.parametrize("dim, degree", [(1, 0), (1, 6), (2, 1), (2, 6), (3, 4), (3, 6)])
def test_quantize_random_forms_against_kron_oracle(dim, degree):
    from conftest import random_complex_form

    rng = np.random.default_rng(100 * dim + degree)
    for h in (0.3, 1.7):
        q = random_complex_form(rng, dim)
        M = dc.quantize_quadratic(q, dc.HermiteTruncation(dim, degree, h)).matrix.toarray()
        want = kron_galerkin(q, degree, h)
        assert np.max(np.abs(M - want)) <= 1e-13 * np.max(np.abs(want))


def test_harmonic_oscillator_is_diagonal(harmonic):
    for N, h in ((7, 0.3), (20, 0.1)):
        op = dc.quantize_quadratic(harmonic, dc.HermiteTruncation(1, N, h))
        expected = np.diag([h * (1 + 2 * k) for k in range(N + 1)])
        assert np.allclose(op.matrix.toarray(), expected, atol=1e-13)


def test_cross_term_against_ladder_oracle():
    # symbol x*xi quantizes to (x hD + hD x)/2
    h = 0.7
    N = 6
    q = dc.build_quadratic_form(1, {((1,), (1,)): 1.0})
    op = dc.quantize_quadratic(q, dc.HermiteTruncation(1, N, h))
    x, p = ladder_matrices_1d(N + 3, h)
    oracle = 0.5 * (x @ p + p @ x)
    assert np.allclose(op.matrix.toarray(), oracle[: N + 1, : N + 1], atol=1e-13)


def test_two_dimensional_product_against_oracle():
    # symbol x1 * xi2 on d=2: operators in different slots commute
    h = 0.5
    N = 5
    q = dc.build_quadratic_form(2, {((1, 0), (0, 1)): 1.0})
    op = dc.quantize_quadratic(q, dc.HermiteTruncation(2, N, h))
    from dcspec.weyl import multi_indices

    idx = multi_indices(2, N)
    x1d, p1d = ladder_matrices_1d(N + 3, h)
    M = np.zeros((len(idx), len(idx)), dtype=complex)
    for i, (m1, m2) in enumerate(idx):
        for j, (n1, n2) in enumerate(idx):
            M[i, j] = x1d[m1, n1] * p1d[m2, n2]
    assert np.allclose(op.matrix.toarray(), M, atol=1e-13)


def test_hermitian_for_real_symbols(rng):
    for _ in range(5):
        d = int(rng.integers(1, 3))
        A = rng.standard_normal((2 * d, 2 * d))
        q = dc.QuadraticForm(d, (A + A.T) / 2 + 0j)
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(d, 8, 0.4))
        M = op.matrix.toarray()
        assert np.linalg.norm(M - M.conj().T) <= 1e-12 * max(1, np.linalg.norm(M))


def test_quantization_linearity(rng):
    d = 2
    tr = dc.HermiteTruncation(d, 6, 0.3)
    A1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    A2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q1 = dc.QuadraticForm(d, A1)
    q2 = dc.QuadraticForm(d, A2)
    a, b = 0.7 - 0.2j, 1.3 + 0.5j
    q12 = dc.QuadraticForm(d, a * q1.matrix + b * q2.matrix)
    M = dc.quantize_quadratic(q12, tr).matrix.toarray()
    M1 = dc.quantize_quadratic(q1, tr).matrix.toarray()
    M2 = dc.quantize_quadratic(q2, tr).matrix.toarray()
    M12 = a * M1 + b * M2
    assert np.allclose(M, M12, atol=1e-13 * max(1, np.linalg.norm(M)))


def test_spectrum_truncated_harmonic(harmonic):
    op = dc.quantize_quadratic(harmonic, dc.HermiteTruncation(1, 20, 0.1))
    ev = dc.spectrum_truncated(op, 3)
    assert np.allclose(ev, [0.1, 0.3, 0.5], atol=1e-13)
    with pytest.raises(ValueError):
        dc.spectrum_truncated(op, 22)


def test_spectrum_truncated_davies(davies):
    op = dc.quantize_quadratic(davies, dc.HermiteTruncation(1, 60, 1.0))
    ev = dc.spectrum_truncated(op, 5)
    target = np.sqrt(1 + 1j) * (1 + 2 * np.arange(5))
    assert multiset_defect(ev, target) < 1e-6


def test_spectrum_truncated_kfp_matches_lattice(kfp):
    spec = dc.stable_eigenvalues(dc.hamilton_map(kfp))
    lattice = []
    for z, mult in dc.lattice_points(spec, 1.0, 2.1):
        lattice.extend([z] * mult)
    lattice = sorted(lattice, key=abs)[:4]
    op = dc.quantize_quadratic(kfp, dc.HermiteTruncation(2, 20, 1.0))
    ev = dc.spectrum_truncated(op, 4)
    assert multiset_defect(ev, lattice) < 1e-6


@pytest.mark.parametrize(
    "q", [davies_form(1.0), kfp_form(1.0)], ids=["davies", "kfp"]
)
def test_lattice_convergence_ladder(q):
    # truncation error for trusted eigenvalues decreases (up to noise floor)
    spec = dc.stable_eigenvalues(dc.hamilton_map(q))
    h = 1.0
    target = []
    for z, mult in dc.lattice_points(spec, h, 12.0):
        target.extend([z] * mult)
    target = sorted(target, key=abs)[:4]
    errs = []
    for N in (12, 20, 28):
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, h))
        ev = dc.spectrum_truncated(op, 4)
        errs.append(multiset_defect(ev, target))
    floor = 1e-12
    assert errs[1] <= max(errs[0], floor) and errs[2] <= max(errs[1], floor)


def test_lattice_convergence_wedge_model():
    from conftest import wedge_form

    q = wedge_form()
    spec = dc.stable_eigenvalues(dc.hamilton_map(q))
    target = []
    for z, mult in dc.lattice_points(spec, 1.0, 12.0):
        target.extend([z] * mult)
    target = sorted(target, key=abs)[:4]
    errs = []
    for N in (12, 20, 28):
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(2, N, 1.0))
        errs.append(multiset_defect(dc.spectrum_truncated(op, 4), target))
    floor = 1e-12
    assert errs[1] <= max(errs[0], floor) and errs[2] <= max(errs[1], floor)


def test_spectral_scaling():
    assert dc.scaling_check(harmonic_form(), 0.1, 1.0, degree=16) <= 1e-12
    assert dc.scaling_check(davies_form(1.0), 0.5, 1.0, degree=24) <= 1e-8
    assert dc.scaling_check(kfp_form(1.0), 0.5, 1.0, degree=24, fraction=0.1) <= 1e-6


def test_resolvent_norm_normal_case(harmonic):
    op = dc.quantize_quadratic(harmonic, dc.HermiteTruncation(1, 20, 0.1))
    assert dc.resolvent_norm(op, 0.2) == pytest.approx(10.0, rel=1e-10)
    assert math.isinf(dc.resolvent_norm(op, 0.3))
    # normal truncation: norm equals reciprocal distance to the spectrum
    eigs = np.diag(op.matrix.toarray().real)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = complex(rng.uniform(0, 2), rng.uniform(-1, 1))
        expected = 1.0 / np.min(np.abs(eigs - z))
        assert dc.resolvent_norm(op, z) == pytest.approx(expected, rel=1e-10)


def test_davies_ray_growth_until_saturation(davies):
    # once the truncation energy reaches |z| the norm jumps, then saturates;
    # the saturated value far exceeds the normal-operator prediction
    z = 60.0 * np.exp(1j * np.pi / 16)
    norms = {}
    for N in (20, 80, 120):
        op = dc.quantize_quadratic(davies, dc.HermiteTruncation(1, N, 1.0))
        norms[N] = dc.resolvent_norm(op, z)
    assert norms[20] < 0.1 * norms[80]
    assert abs(norms[120] - norms[80]) <= 1e-6 * norms[80]
    spec = dc.stable_eigenvalues(dc.hamilton_map(davies))
    assert norms[120] * dc.dist_to_spectrum(spec, 1.0, z) > 10


@pytest.mark.parametrize(
    "q, N, h, sparse",
    [
        (davies_form(1.0), 120, 1.0, False),
        (davies_form(1.0), 300, 1.0, True),
        (kfp_form(1.0), 12, 0.1, False),
        (kfp_form(1.0), 36, 0.1, True),
    ],
    ids=["davies-121", "davies-301", "kfp-91", "kfp-703"],
)
def test_resolvent_norm_matches_dense_svd(q, N, h, sparse):
    # both sides of the cutoff against a full SVD of the densified matrix,
    # at random shifts and at shifts 1% of |lambda| from the lowest eigenvalues
    from dcspec.weyl import DENSE_SVD_CUTOFF

    op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, h))
    n = op.trunc.size
    assert (n > DENSE_SVD_CUTOFF) == sparse
    M = op.matrix.toarray()
    lowest = sorted(np.linalg.eigvals(M), key=abs)[:3]
    rng = np.random.default_rng(17)
    scale = abs(lowest[-1])
    zs = [scale * complex(rng.uniform(0, 2), rng.uniform(-1, 1)) for _ in range(6)]
    zs += [lam * (1 + 0.01 * np.exp(1j * t)) for lam in lowest for t in (0.7, 2.5)]
    for z in zs:
        want = 1.0 / np.linalg.svd(M - z * np.eye(n), compute_uv=False)[-1]
        assert dc.resolvent_norm(op, z) == pytest.approx(want, rel=1e-10)


def test_resolvent_norm_matches_dense_svd_at_probe_shifts(kfp):
    # admissible points drawn as probe-theorem draws them, where the
    # shift sits inside the numerical range and Lanczos restarts most
    from dcspec import sample_admissible
    from dcspec.weyl import DENSE_SVD_CUTOFF

    h = 0.1
    spec = dc.stable_eigenvalues(dc.hamilton_map(kfp))
    region = dc.RegionSpec(h=h, C0=0.15, C1=10.0, dim=2, inner_radius=3 * h)
    zs = sample_admissible(region, spec, 6, np.random.default_rng(0))
    N = dc.suggested_degree(region.outer_radius, h, 2)
    op = dc.quantize_quadratic(kfp, dc.HermiteTruncation(2, N, h))
    n = op.trunc.size
    assert n > DENSE_SVD_CUTOFF
    M = op.matrix.toarray()
    for z in zs:
        want = 1.0 / np.linalg.svd(M - z * np.eye(n), compute_uv=False)[-1]
        assert dc.resolvent_norm(op, z) == pytest.approx(want, rel=1e-10)


_BUNDLED = sorted(p.name for p in resources.files("dcspec").joinpath("symbols").iterdir())


@pytest.mark.parametrize("source", _BUNDLED + ["random-d1", "random-d2", "random-d3"])
def test_galerkin_matrix_is_parity_block_diagonal(source):
    from conftest import random_complex_form
    from dcspec.weyl import multi_indices

    if source.startswith("random"):
        d = int(source[-1])
        rng = np.random.default_rng(10 + d)
        forms = [random_complex_form(rng, d) for _ in range(3)]
    else:
        forms = [parse_symbol_spec(source)]
    for q, N in itertools.product(forms, (7, 10)):
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, 0.3))
        M = op.matrix
        parity = np.array([sum(k) % 2 for k in multi_indices(q.dim, N)])
        even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
        assert M[even][:, odd].nnz == 0 and M[odd][:, even].nnz == 0
        # the blocks, put back through the parity permutation, are M exactly
        perm = np.concatenate((even, odd))
        rebuilt = np.zeros(M.shape, dtype=complex)
        rebuilt[np.ix_(perm, perm)] = sp.block_diag(op.parity_blocks).toarray()
        assert np.array_equal(rebuilt, M.toarray())


def test_resolvent_norm_infinity_signal_sparse(harmonic):
    from dcspec.weyl import DENSE_SVD_CUTOFF

    op = dc.quantize_quadratic(harmonic, dc.HermiteTruncation(1, 200, 0.1))
    assert op.trunc.size > DENSE_SVD_CUTOFF
    eigs = op.matrix.diagonal().real
    # an exact diagonal entry makes the LU factor exactly singular; 0.3 is
    # an eigenvalue up to rounding
    assert math.isinf(dc.resolvent_norm(op, eigs[5]))
    assert math.isinf(dc.resolvent_norm(op, 0.3))
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = complex(rng.uniform(0, 2), rng.uniform(-1, 1))
        expected = 1.0 / np.min(np.abs(eigs - z))
        assert dc.resolvent_norm(op, z) == pytest.approx(expected, rel=1e-10)


def test_pseudospectrum_grid_harmonic(harmonic):
    op = dc.quantize_quadratic(harmonic, dc.HermiteTruncation(1, 20, 0.1))
    re_axis, im_axis, grid = dc.pseudospectrum_grid(op, (0.05, 0.45, -0.1, 0.1), (5, 3))
    assert grid.shape == (3, 5)
    eigs = np.diag(op.matrix.toarray().real)
    for j, im in enumerate(im_axis):
        for i, re in enumerate(re_axis):
            z = complex(re, im)
            expected = -math.log10(np.min(np.abs(eigs - z)))
            assert grid[j, i] == pytest.approx(expected, rel=1e-9)


def test_pseudospectrum_grid_infinity_sentinel(harmonic):
    op = dc.quantize_quadratic(harmonic, dc.HermiteTruncation(1, 20, 0.1))
    # grid point exactly on an eigenvalue propagates +inf
    _, _, grid = dc.pseudospectrum_grid(op, (0.1, 0.3, 0.0, 0.0), (2, 1))
    assert np.isinf(grid).all()


def test_energy_cutoff_and_degree_suggestion():
    tr = dc.HermiteTruncation(2, 30, 0.5)
    assert tr.energy_cutoff == pytest.approx(0.5 * 32)
    assert tr.size == math.comb(32, 2)
    assert dc.suggested_degree(0.5, 0.05, 2) == max(24, math.ceil(2 * 0.5 * 2.0 / 0.05 - 2))


def mp_galerkin_blocks(q, N, h):
    """The Galerkin matrix at 30 digits from exact ladder elements, per parity.

    a_j |k> = sqrt(k_j) |k - e_j> and a_j^+ |k> = sqrt(k_j + 1) |k + e_j>,
    x_j = c (a_j + a_j^+), hD_j = -i c (a_j - a_j^+) with c = sqrt(h/2), and
    <X, A X> acts as sum_ij A_ij O_i O_j on each basis vector.  Returns the
    even and odd blocks, rows and columns in graded-lex order.
    """
    import mpmath as mp

    d = q.dim
    c = mp.sqrt(mp.mpf(h) / 2)

    def apply(i, state):
        j = i % d
        lower, upper = (c, c) if i < d else (-1j * c, 1j * c)
        out = {}
        for k, v in state.items():
            if k[j] >= 1:
                down = k[:j] + (k[j] - 1,) + k[j + 1:]
                out[down] = out.get(down, 0) + lower * mp.sqrt(k[j]) * v
            up = k[:j] + (k[j] + 1,) + k[j + 1:]
            out[up] = out.get(up, 0) + upper * mp.sqrt(k[j] + 1) * v
        return out

    basis = graded_lex(d, N)
    A = [[mp.mpc(v.real, v.imag) for v in row] for row in q.matrix]
    blocks = []
    for parity in (0, 1):
        keys = [k for k in basis if sum(k) % 2 == parity]
        pos = {k: r for r, k in enumerate(keys)}
        B = mp.zeros(len(keys))
        for col, k in enumerate(keys):
            for i in range(2 * d):
                for j in range(2 * d):
                    if A[i][j] != 0:
                        for t, v in apply(i, apply(j, {k: 1})).items():
                            if t in pos:
                                B[pos[t], col] += A[i][j] * v
        blocks.append(B)
    return blocks


@pytest.mark.parametrize(
    "q, N, h", [(davies_form(1.0), 30, 1.0), (kfp_form(1.0), 6, 1.0)], ids=["davies-31", "kfp-28"]
)
def test_sigma_min_against_mpmath_svd(q, N, h):
    # shifts 2% from the lowest eigenvalues, where sigma_min is smallest
    # relative to ||M||; both engines against a 30-digit SVD per parity block
    import mpmath as mp
    from dcspec.weyl import _sigma_min_sparse

    op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, h))
    lowest = sorted(np.linalg.eigvals(op.dense), key=abs)[:3]
    with mp.workdps(30):
        exact = mp_galerkin_blocks(q, N, h)
        for lam, t in zip(lowest, (0.4, 2.0, 4.1)):
            z = lam * (1 + 0.02 * np.exp(1j * t))
            want = []
            for B, b in zip(exact, op.parity_blocks):
                shifted = B - mp.mpc(z.real, z.imag) * mp.eye(B.rows)
                want.append(float(min(mp.svd_c(shifted, compute_uv=False))))
                got = _sigma_min_sparse(b - z * sp.identity(b.shape[0], format="csc"))
                assert got == pytest.approx(want[-1], rel=1e-9)
            assert 1.0 / dc.resolvent_norm(op, z) == pytest.approx(min(want), rel=1e-9)


def test_non_finite_h_and_z_rejected(harmonic):
    from dcspec.errors import DomainError

    for h in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError):
            dc.HermiteTruncation(1, 5, h)
    for N in (20, 200):  # dense and sparse path
        op = dc.quantize_quadratic(harmonic, dc.HermiteTruncation(1, N, 0.1))
        for z in (complex(math.nan, 0), complex(0.2, math.inf), math.nan):
            with pytest.raises(DomainError):
                dc.resolvent_norm(op, z)
