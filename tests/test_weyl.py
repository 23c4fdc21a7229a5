import functools
import itertools
import math
from importlib import resources

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

import dcspec as dc
from dcspec.cli import parse_symbol_spec
from dcspec._linalg import sym
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


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    re_part=st.floats(0.0, 0.3),
    im_part=st.floats(0.0, 1.0),
)
def test_truncation_eigenvalues_match_lattice_property(seed, d, re_part, im_part):
    # elliptic forms A = I + re_part S1 + i im_part S2 (unit-norm symmetric
    # S1, S2, so Re A >= 0.7 I): the k truncation eigenvalues of least
    # modulus are the k least lattice values, with k cut at the widest gap
    # among the least six moduli, so that rounding cannot swap the last pair
    rng = np.random.default_rng(seed)
    n = 2 * d
    S1, S2 = (sym(rng.standard_normal((n, n))) for _ in range(2))
    A = np.eye(n) + re_part * S1 / np.linalg.norm(S1, 2) + 1j * im_part * S2 / np.linalg.norm(S2, 2)
    q = dc.QuadraticForm(d, A)
    spec = dc.stable_eigenvalues(dc.hamilton_map(q))
    reach = abs(np.sum(spec.mus)) + 10 * np.max(np.abs(spec.mus))  # holds mu(0) + 2 j mu_1, j <= 5
    lattice = [z for z, m in dc.lattice_points(spec, 1.0, reach) for _ in range(m)][:6]
    moduli = np.abs(lattice)
    k = 2 + int(np.argmax(np.diff(moduli)[1:]))
    op = dc.quantize_quadratic(q, dc.HermiteTruncation(d, 40 if d == 1 else 16, 1.0))
    assert multiset_defect(dc.spectrum_truncated(op, k), lattice[:k]) <= 1e-5 * moduli[k - 1]


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


def _largest_block_engine(op, shifts=1):
    """Which sigma_min engine resolvent_norm runs on the operator's largest
    block in a call with ``shifts`` shifts."""
    from dcspec.weyl import DENSE_SVD_CUTOFF, _engine

    size, block = max(((len(idx), b) for idx, b in op.blocks), key=lambda t: t[0])
    assert sp.issparse(block) == (size > DENSE_SVD_CUTOFF)
    return _engine(block, shifts)


@pytest.mark.parametrize(
    "q, N, h, engine",
    [
        (davies_form(1.0), 120, 1.0, "dense"),  # parity blocks 61 and 60
        (davies_form(1.0), 300, 1.0, "sparse"),  # parity blocks 151 and 150
        (kfp_form(1.0), 12, 0.1, "dense"),  # degree shells of sizes 1 to 13
        (kfp_form(1.0), 36, 0.1, "dense"),  # degree shells of sizes 1 to 37
        (parse_symbol_spec("wedge_model.json"), 20, 0.1, "dense"),  # 66, 55, 55, 55
    ],
    ids=["davies-121", "davies-301", "kfp-91", "kfp-703", "wedge-231"],
)
def test_resolvent_norm_matches_dense_svd(q, N, h, engine):
    # every engine against a full SVD of the densified matrix, at random
    # shifts and at shifts 1% of |lambda| from the lowest eigenvalues
    op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, h))
    n = op.trunc.size
    assert _largest_block_engine(op) == engine
    M = op.matrix.toarray()
    lowest = sorted(np.linalg.eigvals(M), key=abs)[:3]
    rng = np.random.default_rng(17)
    scale = abs(lowest[-1])
    zs = [scale * complex(rng.uniform(0, 2), rng.uniform(-1, 1)) for _ in range(6)]
    zs += [lam * (1 + 0.01 * np.exp(1j * t)) for lam in lowest for t in (0.7, 2.5)]
    for z in zs:
        want = 1.0 / np.linalg.svd(M - z * np.eye(n), compute_uv=False)[-1]
        assert dc.resolvent_norm(op, z) == pytest.approx(want, rel=1e-10)


# one operator per engine a few shifts reach: dense blocks, sparse blocks
_ENGINE_OPS = {
    "dense": (parse_symbol_spec("wedge_model.json"), 20, 0.1),  # blocks 66, 55, 55, 55
    "sparse": (davies_form(1.0), 300, 1.0),  # blocks 151, 150
}


@functools.cache
def _engine_op(engine):
    """The operator of ``engine`` and its three lowest eigenvalues."""
    q, N, h = _ENGINE_OPS[engine]
    op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, h))
    assert _largest_block_engine(op) == engine
    return op, [complex(v) for v in dc.spectrum_truncated(op, 3)]


_SHAPES = st.sampled_from([(), (0,), (1,), (4,), (2, 3), (3, 0)])


@pytest.mark.parametrize("engine", list(_ENGINE_OPS))
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_resolvent_norm_array_equals_scalar_calls(engine, data):
    # an array of shifts gives the per-shift scalar values, in z's shape:
    # exactly on the dense engine, within m u ||B - z|| ||(B - z)^{-1}|| on
    # the sparse one, whose Lanczos runs the call's shifts together; a
    # shift on an eigenvalue gives the infinity signal
    op, eigs = _engine_op(engine)
    shift = st.sampled_from(eigs) | st.complex_numbers(
        max_magnitude=6, allow_nan=False, allow_infinity=False
    )
    zs = data.draw(hnp.arrays(complex, data.draw(_SHAPES), elements=shift))
    got = dc.resolvent_norm(op, zs)
    if zs.ndim == 0:
        assert type(got) is float
    else:
        assert isinstance(got, np.ndarray) and got.shape == zs.shape
    want = [dc.resolvent_norm(op, z) for z in zs.ravel().tolist()]
    if engine == "dense":
        assert np.ravel(got).tolist() == want
    else:
        got, want = np.ravel(got), np.array(want)
        fin = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), fin)
        _, cond = _block_svd_norms(op, zs.ravel()[fin])
        m = max(len(idx) for idx, _ in op.blocks)
        assert np.all(np.abs(got[fin] - want[fin]) <= m * _U * cond * want[fin])
    assert np.isinf(np.ravel(got)[np.isin(zs.ravel(), eigs)]).all()


_U = np.finfo(float).eps / 2  # unit roundoff


def _block_svd_norms(op, zs):
    """Per shift: 1/sigma_min over per-block dense SVDs, and the condition
    number ||B - z|| ||(B - z)^{-1}|| of the block that attains it."""
    norms, conds = [], []
    for z in zs:
        s = [np.linalg.svd((b.toarray() if sp.issparse(b) else b) - z * np.eye(len(idx)),
                           compute_uv=False) for idx, b in op.blocks]
        top, low = min(((v[0], v[-1]) for v in s), key=lambda t: t[1])
        norms.append(1.0 / low)
        conds.append(top / low)
    return np.array(norms), np.array(conds)


def _window(op, count):
    """A grid of ``count`` shifts spanning the lowest eigenvalues."""
    r = 1.5 * max(abs(dc.spectrum_truncated(op, 4)))
    re, im = np.meshgrid(np.linspace(-r, r, count // 10), np.linspace(-r, r, 10))
    return (re + 1j * im).ravel()


@pytest.mark.parametrize(
    "q, N, h, shifts, engine",
    [
        (davies_form(1.0), 100, 0.05, 300, "schur"),  # parity blocks 51 and 50
        (parse_symbol_spec("wedge_model.json"), 20, 0.1, 300, "schur"),  # blocks 66, 55, 55, 55
        ("random-d2", 12, 0.3, 300, "schur"),  # parity blocks 49 and 42
        (davies_form(1.0), 300, 0.05, 240, "sparse"),  # parity blocks 151 and 150
    ],
    ids=["davies", "wedge", "random-d2", "davies-sparse"],
)
def test_schur_engine_matches_block_svds(q, N, h, shifts, engine):
    # sigma_min from the Schur engine, and from batched SuperLU + Lanczos
    # above the dense cutoff, against dense SVDs of the blocks, within
    # m u ||B - z|| ||(B - z)^{-1}||: all are backward stable, so none
    # resolves a norm more finely than that
    from conftest import random_complex_form

    if q == "random-d2":
        q = random_complex_form(np.random.default_rng(12), 2)
    op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, h))
    if q.dim == 1:
        re, im = np.meshgrid(np.linspace(0, 3, 20), np.linspace(-0.5, 2, shifts // 20))
        zs = (re + 1j * im).ravel()
    else:
        zs = _window(op, shifts)
    assert _largest_block_engine(op, len(zs)) == engine
    got = dc.resolvent_norm(op, zs)
    want, cond = _block_svd_norms(op, zs)
    m = max(len(idx) for idx, _ in op.blocks)
    assert np.all(np.abs(got - want) <= m * _U * cond * want)


def test_schur_engine_worst_pseudospectrum_point_against_mpmath():
    # The benchmark's davies grid (h = 0.05, N = 100, 40 x 30 over
    # [0, 3] x [-0.5, 2]) moves most from whole-matrix SVDs at z = 3 + 1.22i,
    # norm 2.2e5.  A 30-digit SVD of the block that attains it puts the Schur
    # engine and a dense SVD both within m u ||B - z|| ||(B - z)^{-1}||.
    import mpmath as mp

    q = davies_form(1.0)
    op = dc.quantize_quadratic(q, dc.HermiteTruncation(1, 100, 0.05))
    assert _largest_block_engine(op, 1200) == "schur"
    _, im_axis, L, _ = dc.pseudospectrum_grid(q, 0.05, 100, (0.0, 3.0, -0.5, 2.0), (40, 30))
    z = complex(3.0, im_axis[20])
    got = 10.0 ** L[20, 39]
    dense, cond = _block_svd_norms(op, [z])
    low = [np.linalg.svd(b - z * np.eye(len(b)), compute_uv=False)[-1] for _, b in op.blocks]
    B = mp_galerkin_blocks(q, 100, 0.05)[int(np.argmin(low))]  # even, then odd, as op.blocks
    with mp.workdps(30):
        shifted = B - mp.mpc(z.real, z.imag) * mp.eye(B.rows)
        want = 1.0 / float(min(mp.svd_c(shifted, compute_uv=False)))
    assert want == pytest.approx(2.167e5, rel=1e-3)
    bound = len(B) * _U * cond[0] * want
    assert abs(got - want) <= bound and abs(dense[0] - want) <= bound


def test_resolvent_norm_array_at_schur_threshold_matches_scalar_calls():
    # 200 shifts reach the Schur engine on davies N = 100 (200 * 50^2 = 5e5);
    # scalar calls take per-block SVDs.  They agree to rounding, and both
    # give the infinity signal on the eigenvalues.
    from dcspec.weyl import SCHUR_MIN_WORK, _engine

    op = dc.quantize_quadratic(davies_form(1.0), dc.HermiteTruncation(1, 100, 0.05))
    eigs = dc.spectrum_truncated(op, 3)
    rng = np.random.default_rng(4)
    zs = np.concatenate((eigs, rng.uniform(0, 3, 197) + 1j * rng.uniform(-0.5, 2, 197)))
    assert len(zs) * 50**2 >= SCHUR_MIN_WORK > (len(zs) - 1) * 50**2
    assert all(_engine(b, len(zs)) == "schur" for _, b in op.blocks)
    got = dc.resolvent_norm(op, zs)
    want = np.array([dc.resolvent_norm(op, z) for z in zs.tolist()])
    assert np.isinf(got[:3]).all() and np.isinf(want[:3]).all()
    _, cond = _block_svd_norms(op, zs[3:])
    assert np.all(np.abs(got[3:] - want[3:]) <= 51 * _U * cond * want[3:])


def test_engine_rule():
    # probe-theorem calls (10 or 20 shifts, kfp shells of size <= 37) stay on
    # batched SVDs; the benchmark's pseudospectrum (1200 shifts, blocks 45
    # to 51) takes the Schur engine; blocks above the cutoff stay sparse
    from dcspec.weyl import DENSE_SVD_CUTOFF, SCHUR_MIN_SIZE, _engine

    def block(m):
        return np.zeros((m, m))

    assert _engine(block(37), 20) == _engine(block(SCHUR_MIN_SIZE - 1), 10**6) == "dense"
    assert _engine(block(45), 1200) == _engine(block(DENSE_SVD_CUTOFF), 42) == "schur"
    assert _engine(block(51), 192) == "dense" and _engine(block(51), 193) == "schur"
    assert _engine(block(19), 10**6) == "dense" and _engine(block(20), 1250) == "schur"
    assert _engine(sp.identity(DENSE_SVD_CUTOFF + 1, format="csc"), 10**6) == "sparse"


def test_sigma_min_schur_small_and_degenerate_inputs():
    # the engine alone: a diagonal T (sigma_min = min |t_ii - z|, the Krylov
    # space exhausted after m = 3 steps), an exact zero pivot and a pivot whose
    # solves overflow (both 0), more shifts than one chunk, and no warning
    import warnings

    from dcspec.weyl import _BATCH_ENTRIES, _sigma_min_schur

    T = np.diag([1.0, 2.0, 3.0 + 1.0j]).astype(complex)
    rng = np.random.default_rng(2)
    k = 3 * (_BATCH_ENTRIES // 3)  # three chunks at m = 3
    zs = rng.uniform(0, 4, k) + 1j * rng.uniform(-1, 2, k)
    zs[[5, 70]] = 2.0, 3.0 + 1.0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigma_min_schur(T, zs)
        tiny = _sigma_min_schur(np.diag([1e-300, 2.0]).astype(complex), np.array([0.0, 0.5j]))
    want = np.min(np.abs(np.diag(T)[:, None] - zs), axis=0)
    assert got[5] == got[70] == 0.0
    assert got == pytest.approx(want, rel=1e-12)
    assert tiny[0] == 0.0 and tiny[1] == pytest.approx(abs(1e-300 - 0.5j), rel=1e-12)


def test_sigma_min_sparse_stores_no_basis():
    # the Lanczos recurrence stores no basis, only a few vectors per shift:
    # on an m = 3001 block the whole call, the shift included, stays below
    # 64 complex m-vectors
    import tracemalloc

    from dcspec.weyl import _sigma_min_sparse

    op = dc.quantize_quadratic(davies_form(1.0), dc.HermiteTruncation(1, 6000, 0.005))
    _, b = op.blocks[0]
    m = b.shape[0]
    assert m == 3001
    tracemalloc.start()
    try:
        _sigma_min_sparse(b, np.array([complex(-1, 0.5)]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * m * 16


def test_lanczos_step_bound_is_a_typed_failure(monkeypatch):
    # with a residual tolerance of 0 no shift converges, and after 4 m
    # Lanczos steps the engine raises instead of returning a value
    from dcspec import weyl
    from dcspec.errors import NumericalFailureError

    monkeypatch.setattr(weyl, "_LANCZOS_TOL", 0.0)
    rng = np.random.default_rng(0)
    T = np.triu(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    with pytest.raises(NumericalFailureError, match="after 20 steps"):
        weyl._sigma_min_schur(T, np.array([0.3 + 0.2j, -1.0]))


def test_schur_form_failure_is_typed_and_form_matches_scipy(monkeypatch):
    # the Schur engine takes T from LAPACK zgees without Schur vectors,
    # the T of scipy.linalg.schur bit for bit; a zgees that reports
    # info != 0 raises NumericalFailureError (exit code 3)
    import scipy.linalg as sla
    from scipy.linalg import lapack

    from dcspec import weyl
    from dcspec.errors import NumericalFailureError

    op, _ = _engine_op("dense")
    B = op.blocks[0][1]
    T = lapack.zgees(lambda t: None, B, compute_v=0)[0]
    assert np.array_equal(T, sla.schur(B, output="complex")[0])
    zgees = lapack.zgees
    monkeypatch.setattr(lapack, "zgees", lambda *a, **k: (*zgees(*a, **k)[:-1], 2))
    with pytest.raises(NumericalFailureError, match="info = 2"):
        weyl._sigma_min_schur(B, np.array([0.3 + 0.2j]))


def test_lanczos_does_not_depend_on_the_solve_layout(monkeypatch):
    # _lanczos reads its blocks through float views, which need C order:
    # solves that return Fortran-ordered blocks give the same bits, on the
    # Schur engine (with compressions, davies m = 51) and on SuperLU (m = 151)
    from dcspec import weyl

    re, im = np.meshgrid(np.linspace(0, 3, 20), np.linspace(-0.5, 2, 15))
    zs = (re + 1j * im).ravel()
    dense, sparse = (dc.quantize_quadratic(davies_form(1.0), dc.HermiteTruncation(1, N, 0.05))
                     for N in (100, 300))
    runs = [(weyl._sigma_min_schur, dense.blocks[0][1], zs),
            (weyl._sigma_min_sparse, sparse.blocks[0][1], zs[::75])]
    want = [engine(b, z) for engine, b, z in runs]
    lanczos = weyl._lanczos

    def fortran(solver):
        def make(run):
            solve = solver(run)
            return lambda q: np.asfortranarray(solve(q))
        return make

    monkeypatch.setattr(weyl, "_lanczos", lambda m, count, solver: lanczos(m, count, fortran(solver)))
    for (engine, b, z), w in zip(runs, want):
        assert engine(b, z).tolist() == w.tolist()


def _hard_triangles(rng, m):
    """Upper triangular test matrices of size m: random, Jordan, column-graded
    and nearly normal."""
    G = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    yield np.triu(G)
    yield np.diag(d) + np.diag(np.ones(m - 1), 1)
    yield np.triu(G) * np.logspace(0, -6, m)
    yield np.diag(d) + 1e-8 * np.triu(G, 1)


@pytest.mark.parametrize("m", [2, 5, 12, 41, 64, 110])
def test_sigma_min_schur_hard_triangles_against_svd(m):
    # the Schur engine's Lanczos on non-normal, defective, graded and nearly
    # normal triangles is within c m u ||T - z|| ||(T - z)^{-1}|| of a dense
    # SVD per shift, c = 3; only m = 2, where the SVD's own rounding
    # dominates, comes near it
    from dcspec.weyl import _sigma_min_schur

    rng = np.random.default_rng(m)
    for T in _hard_triangles(rng, m):
        ev = np.diag(T)
        r = np.abs(ev - ev.mean()).max() + 1
        zs = ev.mean() + r * (rng.uniform(-1.5, 1.5, 100) + 1j * rng.uniform(-1.5, 1.5, 100))
        s = np.array([np.linalg.svd(T - z * np.eye(m), compute_uv=False) for z in zs])
        want, cond = s[:, -1], s[:, 0] / s[:, -1]
        got = _sigma_min_schur(T, zs)
        assert np.all(np.abs(got - want) <= 3 * m * _U * cond * want)


def _eigh_rule(a, b):
    """The Lanczos check by the full Ritz decomposition, the oracle of
    ``_ritz_check``: the top Ritz value, and whether a Ritz value within
    tol = ``_LANCZOS_TOL`` of it has a residual b[-1] |s_n| <= tol."""
    from dcspec.weyl import _LANCZOS_TOL

    n, s = a.shape
    i = np.arange(n)
    tri = np.zeros((s, n, n))
    tri[:, i, i] = a.T
    tri[:, i[:-1], i[1:]] = tri[:, i[1:], i[:-1]] = b[:-1].T
    ev, vec = np.linalg.eigh(tri)
    top = ev[:, -1:]
    tol = _LANCZOS_TOL * top
    return top[:, 0], ((top - ev <= tol) & (b[-1, :, None] * np.abs(vec[:, -1]) <= tol)).any(1)


def test_ritz_check_decides_as_the_eigh_rule(monkeypatch):
    # on every check of the Schur engine, over the hard triangles and the
    # davies and wedge_model blocks, the pivot recurrence for |s_n| (with its
    # eigh fallback) accepts exactly the shifts the full Ritz decomposition
    # accepts, and the top Ritz values agree to 32 u (at most 10 eps seen)
    from dcspec import weyl

    check, checks = weyl._ritz_check, []

    def spy(a, b):
        top, conv = check(a, b)
        want_top, want_conv = _eigh_rule(a, b)
        np.testing.assert_array_equal(conv, want_conv)
        assert np.all(np.abs(top - want_top) <= 32 * _U * want_top)
        checks.append(a.shape[1])
        return top, conv

    monkeypatch.setattr(weyl, "_ritz_check", spy)
    rng = np.random.default_rng(3)
    for m in (2, 5, 12, 41, 64, 110):
        for T in _hard_triangles(rng, m):
            ev = np.diag(T)
            r = np.abs(ev - ev.mean()).max() + 1
            weyl._sigma_min_schur(T, ev.mean() + r * (rng.uniform(-1.5, 1.5, 100)
                                                      + 1j * rng.uniform(-1.5, 1.5, 100)))
    re, im = np.meshgrid(np.linspace(0, 3, 40), np.linspace(-0.5, 2, 30))
    for q, N, h, zs in [(davies_form(1.0), 100, 0.05, (re + 1j * im).ravel()),
                        (parse_symbol_spec("wedge_model.json"), 20, 0.1, None)]:
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, h))
        zs = _window(op, 300) if zs is None else zs
        for _, b in op.blocks:
            weyl._sigma_min_schur(b, zs)
    assert len(checks) > 100 and sum(checks) > 10**4


def test_ritz_check_falls_back_on_ghost_pairs_and_bad_pivots(monkeypatch):
    # hand-built tridiagonals the pivot recurrence cannot settle, each next
    # to one it can: a ghost pair (top Ritz values 1 + 1e-12 and 1, the
    # lower one nearly converged and the top one not) and a nearly decoupled
    # one whose top pivot rounds to 0; only they go to eigh, and every shift
    # is decided as the full decomposition decides it
    from dcspec.weyl import _ritz_check

    ghost = ([1.0, 0.0, 1.0 + 1e-12], [1e-9, 1e-9, 1e-5])
    zero_pivot = ([0.0, 1.0], [1e-20, 1e-12])
    eigh = np.linalg.eigh
    for a, b in (ghost, zero_pivot):
        n = len(a)
        a = np.column_stack((a, np.arange(1.0, n + 1)))
        b = np.column_stack((b, np.r_[np.full(n - 1, 0.5), 1e-3]))
        want_top, want_conv = _eigh_rule(a, b)
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda t: calls.append(len(t)) or eigh(t))
        top, conv = _ritz_check(a, b)
        monkeypatch.undo()
        assert calls == [1] and conv[0] and conv.tolist() == want_conv.tolist()
        assert top[0] == want_top[0] and top[1] == pytest.approx(want_top[1], rel=1e-15)


def test_sigma_min_schur_memory_is_a_few_vector_blocks():
    # davies h 0.05, N 100, block 0 (m = 51) over 4800 shifts: the Lanczos
    # chunks hold _BATCH_ENTRIES complex entries per vector block, and the
    # whole call peaks below eight such blocks
    import tracemalloc

    from dcspec.weyl import _BATCH_ENTRIES, _sigma_min_schur

    op = dc.quantize_quadratic(davies_form(1.0), dc.HermiteTruncation(1, 100, 0.05))
    _, B = op.blocks[0]
    assert len(B) == 51
    re, im = np.meshgrid(np.linspace(0, 3, 80), np.linspace(-0.5, 2, 60))
    zs = (re + 1j * im).ravel()
    tracemalloc.start()
    try:
        _sigma_min_schur(B, zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * _BATCH_ENTRIES * 16


def test_dense_engine_array_equals_scalar_calls_across_chunks():
    # wedge_model N = 20 (blocks 66, 55, 55, 55): 40 shifts stay on the
    # dense engine and span 4 chunks of each 55-block (10 shifts each) and
    # 6 of the 66-block (7 each); every value equals the per-block SVD of
    # one shifted matrix and the scalar calls, bit for bit, sigma_min is
    # the smallest of the blocks' values, and eigenvalue shifts give the
    # infinity signal
    from dcspec.weyl import _BATCH_ENTRIES, _engine, _sigma_min, _sigma_min_dense

    op, eigs = _engine_op("dense")
    rng = np.random.default_rng(8)
    zs = np.array(eigs + list(rng.uniform(-1, 6, 37) + 1j * rng.uniform(-3, 3, 37)))
    blocks = [b for _, b in op.blocks]
    assert sorted(len(b) for b in blocks) == [55, 55, 55, 66]
    assert all(_engine(b, len(zs)) == "dense" for b in blocks)
    assert _BATCH_ENTRIES // 55**2 == 10 and _BATCH_ENTRIES // 66**2 == 7
    each = [_sigma_min_dense(b, zs) for b in blocks]
    for b, s in zip(blocks, each):
        assert s.tolist() == [np.linalg.svd(b - z * np.eye(len(b)), compute_uv=False)[-1]
                              for z in zs.tolist()]
    assert _sigma_min(op, zs).tolist() == np.min(each, axis=0).tolist()
    got = dc.resolvent_norm(op, zs)
    assert got.tolist() == [dc.resolvent_norm(op, z) for z in zs.tolist()]
    assert np.isinf(got[:3]).all() and np.isfinite(got[3:]).all()
    for shape in [(0,), (3, 0)]:
        empty = dc.resolvent_norm(op, np.zeros(shape, complex))
        assert isinstance(empty, np.ndarray) and empty.shape == shape


def _engine_runs(monkeypatch):
    """Wrap every sigma_min engine so that it records the blocks it runs on;
    returns that list."""
    from dcspec import weyl

    ran = []
    for name, run in list(weyl._ENGINES.items()):
        def spy(b, zs, run=run):
            ran.append(b)
            return run(b, zs)
        monkeypatch.setitem(weyl._ENGINES, name, spy)
    return ran


def _stand_in_op(blocks, memo=None, indices=None):
    """A TruncatedWeylOperator whose ``blocks`` are the given dense blocks, in
    their order, on consecutive basis indices unless ``indices`` gives each
    block's, with ``_sigma_memo`` memo.  Each block's pattern must be
    connected, so that the operator finds it as one block; that is checked."""
    sizes = [len(b) for b in blocks]
    if indices is None:
        indices = np.split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1])
    M = np.zeros((sum(sizes),) * 2, complex)
    for idx, b in zip(indices, blocks):
        M[np.ix_(idx, idx)] = b
    op = dc.TruncatedWeylOperator(dc.HermiteTruncation(1, len(M) - 1, 1.0), sp.csc_matrix(M), memo)
    assert [list(idx) for idx, _ in op.blocks] == [list(idx) for idx in indices]
    assert all(np.array_equal(b, c) for (_, b), c in zip(op.blocks, blocks))
    return op


def _engine_min(blocks, zs):
    """The smallest of the blocks' engine arrays: ``_sigma_min`` with no
    block skipped."""
    from dcspec.weyl import _ENGINES, _engine

    return np.min([_ENGINES[_engine(b, zs.size)](b, zs) for b in blocks], axis=0)


def test_sigma_min_runs_a_block_that_ties_the_minimum(monkeypatch):
    # X^T - z has the singular values of X - z.  After a 1 x 1 block far
    # from z0 and X, the running minimum at z0 is X's value, which X^T ties
    # to the rounding of its SVD; at the other shifts, 100 away and within
    # 8 of the 1 x 1 block, X^T lies far above the minimum.  z0 comes last,
    # in the certificate's second chunk of shifts.  A tie is within the
    # certificate's margins delta and kappa, so X^T takes its SVDs, and
    # sigma_min is the smallest of the engines' arrays bit for bit (without
    # the margins, about a quarter of these X^T would be skipped, and some
    # of those change its bits)
    from dcspec.weyl import _BATCH_ENTRIES, _sigma_min

    ran = _engine_runs(monkeypatch)
    rng = np.random.default_rng(12)
    for m in [2, 3, 5, 8, 13, 19] * 4:
        X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        z0 = complex(*rng.uniform(-1, 1, 2))
        far = z0 + 100 + 1e-3j * np.arange(max(1, _BATCH_ENTRIES // (m * m)))
        zs = np.r_[far, z0]
        op = _stand_in_op([np.array([[z0 + 100 - 1e-6]]), X, X.T.copy()])
        blocks = [b for _, b in op.blocks]
        ran.clear()
        got = _sigma_min(op, zs)
        assert any(b is blocks[2] for b in ran)
        assert got.tolist() == _engine_min(blocks, zs).tolist()


def test_sigma_min_uses_a_stored_bound_only_below_the_minimum(monkeypatch):
    # a call that skips a block keeps the running minimum there as a lower
    # bound.  A later call with the same earlier blocks skips the block on
    # that bound, with no certificate.  One whose earlier block (on other
    # basis indices, as a straddling block of a finer level) leaves a
    # minimum above the bound runs the block, whose values lie between the
    # two: the bound neither skips it nor enters the minimum
    from dcspec import weyl

    ran = _engine_runs(monkeypatch)
    tested = []
    exceeds = weyl._exceeds
    monkeypatch.setattr(weyl, "_exceeds", lambda op, i, *a: tested.append(op.blocks[i][1]) or exceeds(op, i, *a))
    B = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
    low, high = np.array([[0.1]], dtype=complex), np.array([[5.0, 0.1], [0.0, 5.0]], dtype=complex)
    zs = np.array([0.0, 0.2 + 0.1j])
    memo = {}
    for runs, tests in [([0], [1]), ([], [])]:  # then low comes from the memo
        op = _stand_in_op([low, B], memo)
        blocks = [b for _, b in op.blocks]
        ran.clear()
        tested.clear()
        got = weyl._sigma_min(op, zs)
        assert [id(b) for b in ran] == [id(blocks[k]) for k in runs]
        assert [id(b) for b in tested] == [id(blocks[k]) for k in tests]
        assert got.tolist() == np.abs(0.1 - zs).tolist() == _engine_min([low, B], zs).tolist()
    op = _stand_in_op([high, B], memo, [[0, 3], [1, 2]])
    (_, high), (_, B) = op.blocks
    ran.clear()
    tested.clear()
    got = weyl._sigma_min(op, zs)
    assert [id(b) for b in ran] == [id(high), id(B)] and [id(b) for b in tested] == [id(B)]
    assert got.tolist() == weyl._sigma_min_dense(B, zs).tolist() == _engine_min([high, B], zs).tolist()
    assert (np.abs(0.1 - zs) < got).all() and (got < weyl._sigma_min_dense(high, zs)).all()


def test_sigma_min_equals_the_engines_on_dense_operators(monkeypatch):
    # every bundled symbol with blocks the dense engine takes at few shifts,
    # and seeded random forms: sigma_min equals the smallest of the blocks'
    # engine arrays bit for bit, at 1, 3 and 12 shifts on and near the low
    # eigenvalues and across the low spectrum, while the certificate skips
    # some blocks (the large kfp shells)
    from conftest import seeded_form
    from dcspec.weyl import _sigma_min

    cases = [(parse_symbol_spec(name), N, h) for name, N, h in [
        ("kfp.json", 36, 0.1), ("wedge_model.json", 20, 0.1), ("family_beta.json", 12, 0.1),
        ("family_elliptic.json", 12, 0.1), ("family_degenerate.json", 12, 0.1),
        ("davies.json", 100, 0.05)]]
    cases += [(seeded_form(1, seed), 60, 0.2) for seed in range(3)]
    cases += [(seeded_form(2, seed), 14, 0.2) for seed in range(3)]
    ran = _engine_runs(monkeypatch)
    rng = np.random.default_rng(13)
    skipped = []
    for q, N, h in cases:
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, h))
        blocks = [b for _, b in op.blocks]
        ev = dc.spectrum_truncated(op, 8)
        near = ev + 0.1 * np.abs(ev).max() * (rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8))
        box = [(ev.real.min(), ev.real.max()), (ev.imag.min() - 1, ev.imag.max() + 1)]
        across = rng.uniform(*box[0], 8) + 1j * rng.uniform(*box[1], 8)
        skipped.append(0)
        for zs in [ev[:1], near[:1], across[:1], np.r_[ev[:1], near[1:3]], across[1:4],
                   np.r_[ev[1:3], near[3:8], across[3:8]]]:
            assert _largest_block_engine(op, len(zs)) == "dense"
            ran.clear()
            got = _sigma_min(op, zs)
            skipped[-1] += len(blocks) - len(ran)
            assert got.tolist() == _engine_min(blocks, zs).tolist()
    assert all(skipped)


def test_dense_engine_memory_is_a_few_batches():
    # the harmonic oscillator, d = 1, N = 255: 256 blocks of size 1, each one
    # engine call; 5000 shifts in one call (10 MB if every block's values
    # were kept, 20 MB of shifted copies for all blocks at once) peak at a
    # few _BATCH_ENTRIES complex entries, as no block's array outlives the
    # running minimum
    import tracemalloc

    from dcspec.weyl import _BATCH_ENTRIES

    op = dc.quantize_quadratic(harmonic_form(1), dc.HermiteTruncation(1, 255, 0.1))
    assert len(op.blocks) == 256 and all(b.shape == (1, 1) for _, b in op.blocks)
    zs = np.random.default_rng(9).uniform(0, 60, 5000) + 0.5j
    want = dc.resolvent_norm(op, zs[:300])
    tracemalloc.start()
    try:
        got = dc.resolvent_norm(op, zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got[:300].tolist() == want.tolist()
    assert peak <= 4 * _BATCH_ENTRIES * 16


def _largest_block(q, N, h):
    """q's truncation at degree N and the position of its largest block."""
    op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, h))
    return op, max(range(len(op.blocks)), key=lambda i: len(op.blocks[i][0]))


def _random_block(m):
    """A seeded complex m x m block with every entry nonzero."""
    rng = np.random.default_rng(m)
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


# (block, bandwidth kind): 1, between 1 and m - 1, or m - 1
_CERTIFICATE_BLOCKS = {
    "kfp shell": (lambda: _largest_block(kfp_form(), 24, 0.1), "1"),  # m = 25
    "davies": (lambda: _largest_block(davies_form(), 100, 0.05), "1"),  # m = 51
    "wedge_model": (lambda: _largest_block(parse_symbol_spec("wedge_model.json"), 20, 0.1), "mid"),  # 66, b 11
    "family_beta": (lambda: _largest_block(parse_symbol_spec("family_beta.json"), 12, 0.1), "mid"),  # 49, b 13
    "random 2": (lambda: (_stand_in_op([_random_block(2)]), 0), "m - 1"),
    "random 7": (lambda: (_stand_in_op([_random_block(7)]), 0), "m - 1"),
    "random 20": (lambda: (_stand_in_op([_random_block(20)]), 0), "m - 1"),
}


@pytest.mark.parametrize("name", list(_CERTIFICATE_BLOCKS))
def test_exceeds_decides_as_the_svd_at_every_bandwidth(name):
    # the band certificate on blocks of bandwidth 1, between 1 and m - 1,
    # and m - 1, at 10 shifts (one chunk) where sigma_min >= 1e-3 ||B - z||_F,
    # so that the margins delta and kappa cannot decide: tau = 0.999 x the
    # SVD value at every shift is certified, and tau = 1.000001 x it at only
    # the first or only the last shift, above the engine's value there, is
    # not: the stacked factorization leaks nothing across shifts.  The
    # symbols' blocks sit among their operator's other blocks
    from dcspec.weyl import _BATCH_ENTRIES, _exceeds, _sigma_min_dense

    make, kind = _CERTIFICATE_BLOCKS[name]
    op, k = make()
    B = op.blocks[k][1]
    m = len(B)
    i, j = np.nonzero(B)
    b = np.abs(i - j).max()
    assert {"1": b == 1, "mid": 1 < b < m - 1, "m - 1": b == m - 1}[kind]
    assert _BATCH_ENTRIES // (m * (min(2 * b, m - 1) + 1)) >= 10
    ev = np.linalg.eigvals(B)
    rng = np.random.default_rng(m)
    near = rng.choice(ev, 200) + np.abs(ev).max() * (rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200))
    far = [np.linalg.norm(B - z * np.eye(m)) for z in near.tolist()]
    zs = near[_sigma_min_dense(B, near) >= 1e-3 * np.array(far)][:10]
    assert len(zs) == 10
    sigma = _sigma_min_dense(B, zs)
    tau = 0.999 * sigma
    assert _exceeds(op, k, zs, tau)
    for at in (0, -1):
        above = tau.copy()
        above[at] = 1.000001 * sigma[at]
        assert not _exceeds(op, k, zs, above)


def test_exceeds_never_certifies_an_overflowing_gram(monkeypatch):
    # a kfp shell scaled by 1e200: its Gram matrix overflows, and zpbtrf
    # returns info = 0 on the inf and NaN entries that leaves, so only the
    # finite test on the factor fails the certificate.  The block then runs
    # its SVDs, and sigma_min is the smallest of the engines' arrays bit for
    # bit
    from dcspec.weyl import _exceeds, _sigma_min, _sigma_min_dense

    ran = _engine_runs(monkeypatch)
    op, k = _largest_block(kfp_form(), 24, 0.1)
    op = _stand_in_op([np.array([[1.0 + 0j]]), 1e200 * op.blocks[k][1]])
    blocks = [b for _, b in op.blocks]
    zs = np.array([0.3 + 0.1j, 1.0, 2.0 - 0.5j])
    sigma = _sigma_min_dense(blocks[1], zs)
    assert np.isfinite(sigma).all() and (sigma > 1e199).all()
    assert not _exceeds(op, 1, zs, np.ones(3))
    ran.clear()
    got = _sigma_min(op, zs)
    assert [id(b) for b in ran] == [id(b) for b in blocks]
    assert got.tolist() == _engine_min(blocks, zs).tolist()


def test_exceeds_memory_is_linear_in_rows_and_shifts():
    # the even parity block of davies N = 218 (h = 0.05) is tridiagonal,
    # m = 110.  With 10 shifts the certificate holds the 3 lower diagonals of
    # the 10 stacked pentadiagonal Gram matrices, a few complex entries per
    # row and shift, and no m x m array: the bound, 16 entries per row and
    # shift, is 16 m a shift against the m^2 = 110 m of a dense Gram matrix
    import tracemalloc

    from dcspec.weyl import _exceeds, _sigma_min_dense

    op, k = _largest_block(davies_form(), 218, 0.05)
    B = op.blocks[k][1]
    m = len(B)
    i, j = np.nonzero(B)
    assert m == 110 and not sp.issparse(B) and np.abs(i - j).max() == 1
    zs = np.linspace(0.5, 3, 10) + 0.5j
    tau = 0.5 * _sigma_min_dense(B, zs)
    assert _exceeds(op, k, zs, tau)  # forms the operator's band form
    tracemalloc.start()
    try:
        ok = _exceeds(op, k, zs, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and peak <= 16 * len(zs) * m * 16
    # the operator's band form, formed once (n = 219 rows, blocks 110 and
    # 109), holds a few dozen entries per row, against n^2 = 219 n for a
    # dense Gram matrix of the whole operator
    fresh = dc.TruncatedWeylOperator(op.trunc, op.matrix)
    fresh.blocks
    tracemalloc.start()
    try:
        fresh._bands
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * op.trunc.size * 16


def _probe_levels(q, monkeypatch):
    """probe_theorem's rows, and each resolvent_norm call it makes as
    [h, degree, shifts, norms, sizes of the blocks ``_engine`` was asked
    about, sizes of the blocks an engine ran on, sizes of the matrices
    each SVD call took, number of blocks]."""
    from dcspec import weyl

    levels = []
    norm, engine, svd = weyl.resolvent_norm, weyl._engine, np.linalg.svd
    ran = _engine_runs(monkeypatch)

    def spy_norm(op, z):
        levels.append([op.trunc.h, op.trunc.degree, np.array(z), None, [], [], [], len(op.blocks)])
        ran.clear()
        levels[-1][3] = norm(op, z)
        levels[-1][5] = [len(b) for b in ran]
        return levels[-1][3]

    def spy_engine(block, shifts):
        levels[-1][4].append(block.shape[0])
        return engine(block, shifts)

    def spy_svd(a, *args, **kwargs):
        levels[-1][6].append(a.shape[-1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(weyl, "resolvent_norm", spy_norm)
    monkeypatch.setattr(weyl, "_engine", spy_engine)
    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    rows, *_ = dc.probe_theorem(q, [0.2, 0.1], 0.15, 10.0, samples=5, seed=0)
    monkeypatch.undo()
    return rows, levels


def _assert_levels_match_fresh_calls(q, rows, levels):
    # every level equals a fresh call on an operator with no memo, and the
    # rows carry each h's last level
    for h, degree, zs, norms, *_ in levels:
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, degree, h))
        assert norms.tolist() == dc.resolvent_norm(op, zs).tolist()
    for h in {lv[0] for lv in levels}:
        last = [lv for lv in levels if lv[0] == h][-1]
        assert [r[2] for r in rows if r[0] == h] == last[3].tolist()


def test_probe_theorem_reuses_kfp_shells(kfp, monkeypatch):
    # kfp splits into degree shells, and shell j is the same matrix at every
    # degree >= j: a finer level visits only its 10 new shells (sizes
    # N + 2 to N + 11 after degree N), and its norms keep their bits; a
    # visited shell that the Cholesky certificate skips takes no SVD, and
    # the large shells are skipped so
    rows, levels = _probe_levels(kfp, monkeypatch)
    assert len(levels) >= 4
    prev = {}
    for h, degree, _, _, visited, ran, svd, nblocks in levels:
        assert nblocks == degree + 1
        start = prev.get(h, -1) + 1  # the first level at an h visits every shell
        assert sorted(visited) == list(range(start + 1, degree + 2))
        certified = set(visited) - set(ran)
        assert certified and not certified & set(svd)
        prev[h] = degree
    _assert_levels_match_fresh_calls(kfp, rows, levels)


def test_probe_theorem_recomputes_straddling_blocks(davies, monkeypatch):
    # davies's parity blocks at degree N + 10 reach past the degree-N basis,
    # so no block is shared: every level visits all of its blocks
    rows, levels = _probe_levels(davies, monkeypatch)
    assert len(levels) >= 4
    for _, _, _, _, visited, _, _, nblocks in levels:
        assert len(visited) == nblocks == 2
    _assert_levels_match_fresh_calls(davies, rows, levels)


@pytest.mark.parametrize("N, coarse", [(0, None), (1, 0), (2, 1), (5, 4), (14, 4), (15, 5), (40, 30)])
def test_coarse_degree(N, coarse):
    # LEVEL_GAP = 10 below N, not under 4 unless N <= 4, and always below N
    if coarse is None:  # a library error, naming no CLI flag
        for call in (lambda: dc.coarse_degree(N), lambda: dc.level_pair(harmonic_form(), 0.1, N, 0.3)):
            with pytest.raises(dc.DomainError, match=r"^N must be >= 1 to have a coarser level, got 0$"):
                call()
    else:
        assert dc.coarse_degree(N) == coarse


def _grid(window, n_re, n_im):
    re0, re1, im0, im1 = window
    return np.linspace(re0, re1, n_re) + 1j * np.linspace(im0, im1, n_im)[:, None]


def test_level_pair_runs_each_kfp_shell_once(kfp, monkeypatch):
    # kfp shell j (size j + 1) is the same matrix at degrees 30 and 40, so
    # across both levels each of the 41 shells is run by an engine at most
    # once and tested by the Cholesky certificate at most once, and every
    # shell is visited
    from dcspec import weyl

    ran = _engine_runs(monkeypatch)
    tested = []
    exceeds = weyl._exceeds

    def spy_exceeds(op, i, zs, tau):
        tested.append(op.blocks[i][1])
        return exceeds(op, i, zs, tau)

    monkeypatch.setattr(weyl, "_exceeds", spy_exceeds)
    dc.level_pair(kfp, 0.05, 40, _grid((0.0, 3.0, -1.5, 1.5), 6, 5))
    monkeypatch.undo()
    ran, tested = [len(b) for b in ran], [len(b) for b in tested]
    assert ran and tested  # both spies saw calls
    assert len(set(ran)) == len(ran) and len(set(tested)) == len(tested)
    assert set(ran) | set(tested) == set(range(1, 42))


@pytest.mark.parametrize("name, h, N, n_re, n_im", [
    ("kfp", 0.05, 40, 6, 5),
    ("davies", 0.05, 100, 40, 30),  # the Schur engine on blocks 51 and 50
    ("wedge", 0.1, 20, 6, 5),
])
def test_level_pair_equals_fresh_calls(request, name, h, N, n_re, n_im):
    # both levels keep the bits of fresh resolvent_norm calls on fresh
    # operators, at a grid and at a scalar shift, and rel_change is the
    # largest |norm - coarse| / norm over the shifts finite at both
    q = request.getfixturevalue(name)
    zs = _grid((0.0, 3.0, -0.5, 2.0), n_re, n_im)
    for z in (zs, zs[1, 2]):
        norms, coarse, rel = dc.level_pair(q, h, N, z)
        fresh_coarse, fresh = (
            dc.resolvent_norm(dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, n, h)), z)
            for n in (dc.coarse_degree(N), N))
        assert np.asarray(norms).tobytes() == np.asarray(fresh).tobytes()
        assert np.asarray(coarse).tobytes() == np.asarray(fresh_coarse).tobytes()
        assert type(norms) is type(fresh) and type(coarse) is type(fresh_coarse)
        pairs = zip(np.ravel(fresh).tolist(), np.ravel(fresh_coarse).tolist())
        assert rel == max(abs(f - c) / f for f, c in pairs if math.isfinite(f) and math.isfinite(c))


def test_sparse_shift_through_stored_diagonal_matches_identity_subtraction():
    # the sparse engine shifts a block by moving its stored diagonal; the
    # former B - z I (the oracle here, shifted by 0) gives the same sigma_min
    # bit for bit, also on blocks that lack diagonal entries: with
    # R_00 = -R_11 exactly, the diagonal of this random d = 2 form vanishes
    # where k_1 = k_2
    from dcspec.weyl import _sigma_min_sparse

    rng = np.random.default_rng(6)
    A = (rng.integers(-8, 9, (4, 4)) + 1j * rng.integers(-8, 9, (4, 4))) / 8
    A = A + A.T
    A[3, 3] = -A[0, 0] - A[2, 2] - A[1, 1]
    op = dc.quantize_quadratic(dc.QuadraticForm(2, A), dc.HermiteTruncation(2, 22, 0.5))
    M = op.matrix
    assert np.count_nonzero(M.diagonal() == 0) > 0
    parts = [b for _, b in op.blocks]
    assert [b.shape[0] for b in parts] == [144, 132] and all(sp.issparse(b) for b in parts)
    floor = 1e-14 * np.linalg.norm(M.data)
    for z in (rng.uniform(-4, 4, 12) + 1j * rng.uniform(-4, 4, 12)).tolist():
        smin = min(_sigma_min_sparse(b - z * sp.identity(b.shape[0], dtype=complex, format="csc"),
                                     np.zeros(1))[0] for b in parts)
        assert smin >= floor and dc.resolvent_norm(op, z) == 1.0 / smin


def _lanczos_counts(monkeypatch):
    """The shift count of each ``weyl._lanczos`` call from here on."""
    from dcspec import weyl

    counts, lanczos = [], weyl._lanczos
    monkeypatch.setattr(weyl, "_lanczos", lambda m, count, solve: counts.append(count) or lanczos(m, count, solve))
    return counts


def test_sparse_engine_groups_shifts_by_factor_fill(monkeypatch):
    # a group of shifts holds SuperLU factors of about _BATCH_ENTRIES stored
    # entries, each shift in one group: family_beta h 0.1, N 40 (blocks 441
    # and 420, about 1.4e4 entries a factor) runs at most 3 shifts a group,
    # davies h 0.05, N 300 (blocks 151 and 150, about 700) more than one
    from dcspec.weyl import _engine

    counts = _lanczos_counts(monkeypatch)
    rng = np.random.default_rng(9)
    zs = rng.uniform(0, 3, 12) + 1j * rng.uniform(-0.5, 2, 12)
    for q, N, h in [(parse_symbol_spec("family_beta.json"), 40, 0.1), (davies_form(1.0), 300, 0.05)]:
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, h))
        assert [_engine(b, len(zs)) for _, b in op.blocks] == ["sparse", "sparse"]
        counts.clear()
        dc.resolvent_norm(op, zs)
        assert sum(counts) == 2 * len(zs)
        assert (max(counts) <= 3) if q.dim == 2 else (min(counts) > 1)


def test_sample_admissible_counts_its_last_draw(kfp, monkeypatch):
    # kfp at h = 0.1: the fifth admissible point comes on draw 10, so a cap of
    # 10 draws returns the same five points as the default cap
    from dcspec import lattice
    from dcspec.errors import NumericalFailureError

    spec = dc.stable_eigenvalues(dc.hamilton_map(kfp))
    region = dc.RegionSpec(h=0.1, C0=0.15, C1=10.0, dim=2, inner_radius=0.3)
    want = lattice.sample_admissible(region, spec, 5, np.random.default_rng(0))
    monkeypatch.setattr(lattice, "SAMPLE_MAX_TRIES", 10)
    assert lattice.sample_admissible(region, spec, 5, np.random.default_rng(0)) == want
    monkeypatch.setattr(lattice, "SAMPLE_MAX_TRIES", 9)
    with pytest.raises(NumericalFailureError, match="in 9 tries"):
        lattice.sample_admissible(region, spec, 5, np.random.default_rng(0))


def test_resolvent_norm_matches_dense_svd_at_probe_shifts(kfp):
    # admissible points drawn as probe-theorem draws them, where the
    # shift sits inside the numerical range; kfp's degree shells are all
    # small enough for the dense engine
    from dcspec import sample_admissible

    h = 0.1
    spec = dc.stable_eigenvalues(dc.hamilton_map(kfp))
    region = dc.RegionSpec(h=h, C0=0.15, C1=10.0, dim=2, inner_radius=3 * h)
    zs = sample_admissible(region, spec, 6, np.random.default_rng(0))
    N = dc.suggested_degree(region.outer_radius, h, 2)
    op = dc.quantize_quadratic(kfp, dc.HermiteTruncation(2, N, h))
    n = op.trunc.size
    assert _largest_block_engine(op) == "dense"
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
        label = np.empty(M.shape[0], dtype=int)
        for b, (idx, _) in enumerate(op.blocks):
            label[idx] = b
        # no stored entry joins two blocks
        rows, cols = M.nonzero()
        assert np.array_equal(label[rows], label[cols])
        # the blocks, put back through the permutation, are M exactly
        perm = np.concatenate([idx for idx, _ in op.blocks])
        assert np.array_equal(np.sort(perm), np.arange(M.shape[0]))
        rebuilt = np.zeros(M.shape, dtype=complex)
        rebuilt[np.ix_(perm, perm)] = sp.block_diag([b for _, b in op.blocks]).toarray()
        assert np.array_equal(rebuilt, M.toarray())
        # every block lies in one parity of |k|, the generic split
        degree = multi_indices(q.dim, N).sum(1)
        assert all(np.ptp(degree[idx] % 2) == 0 for idx, _ in op.blocks)
        if source == "kfp.json":  # one block per degree shell
            shells = sorted(tuple(np.unique(degree[idx])) for idx, _ in op.blocks)
            assert shells == [(j,) for j in range(N + 1)]
            assert sorted(len(idx) for idx, _ in op.blocks) == list(range(1, N + 2))
        if source.startswith("random"):  # exactly the two parity blocks
            parts = sorted(tuple(idx) for idx, _ in op.blocks)
            parity = [tuple(np.flatnonzero(degree % 2 == p)) for p in (0, 1)]
            assert parts == sorted(parity)


@pytest.mark.parametrize("source", _BUNDLED + ["random-d2"])
def test_blocks_are_the_connected_components(source):
    # the label propagation against scipy's graph search: the same
    # components, numbered by their smallest index
    from conftest import random_complex_form
    from scipy.sparse.csgraph import connected_components

    if source == "random-d2":
        q = random_complex_form(np.random.default_rng(7), 2)
    else:
        q = parse_symbol_spec(source)
    for N in (0, 1, 9, 16):
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, 0.3))
        M = op.matrix
        pattern = sp.csc_matrix((np.ones(M.nnz), M.indices, M.indptr), shape=M.shape)
        _, labels = connected_components(pattern, directed=False)
        assert [idx.tolist() for idx, _ in op.blocks] == [
            np.flatnonzero(labels == b).tolist() for b in range(labels.max() + 1)
        ]


@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    source=st.sampled_from(["random-d1", "random-d2", "kfp", "wedge"]),
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(0, 12),
)
def test_blocks_reassemble_the_matrix(source, seed, N):
    # the blocks scattered back by their indices are M exactly, and no stored
    # entry joins two blocks
    from conftest import random_complex_form

    if source.startswith("random"):
        q = random_complex_form(np.random.default_rng(seed), int(source[-1]))
    else:
        q = parse_symbol_spec("kfp.json" if source == "kfp" else "wedge_model.json")
    op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, 0.3))
    M = op.matrix
    rebuilt = np.zeros(M.shape, dtype=complex)
    label = np.full(M.shape[0], -1)
    for j, (idx, b) in enumerate(op.blocks):
        rebuilt[np.ix_(idx, idx)] = b.toarray() if sp.issparse(b) else b
        label[idx] = j
    assert np.array_equal(rebuilt, M.toarray())
    rows, cols = M.nonzero()
    assert (label >= 0).all() and np.array_equal(label[rows], label[cols])


def _zero_diagonal_form():
    """A d = 2 form whose Galerkin matrix lacks diagonal entries: with
    R_00 = -R_11 exactly, its diagonal vanishes where k_1 = k_2."""
    rng = np.random.default_rng(6)
    A = (rng.integers(-8, 9, (4, 4)) + 1j * rng.integers(-8, 9, (4, 4))) / 8
    A = A + A.T
    A[3, 3] = -A[0, 0] - A[2, 2] - A[1, 1]
    return dc.QuadraticForm(2, A)


@pytest.mark.parametrize("source", _BUNDLED + ["zero diagonal"])
def test_blocks_equal_scipy_fancy_indexing(source):
    # blocks sorts the stored entries by an inverse permutation; scipy fancy
    # indexing, M[idx][:, idx] per block, is the reference: the same dense
    # arrays, and for a sparse block (m > DENSE_SVD_CUTOFF, at degree 220
    # for d = 1 and 22 for d = 2) the same CSC arrays with the whole
    # diagonal stored, bit for bit
    from dcspec.weyl import DENSE_SVD_CUTOFF

    q = _zero_diagonal_form() if source == "zero diagonal" else parse_symbol_spec(source)
    sparse = 0
    for N in (0, 9, 16, 220 if q.dim == 1 else 22):
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, 0.3))
        for idx, b in op.blocks:
            P = op.matrix[idx][:, idx]
            if len(idx) <= DENSE_SVD_CUTOFF:
                assert type(b) is np.ndarray and b.tobytes() == P.toarray().tobytes()
                continue
            sparse += 1
            d, P = np.arange(len(idx)), P.tocoo()
            want = sp.csc_matrix((np.r_[P.data, np.zeros(len(d))], (np.r_[P.row, d], np.r_[P.col, d])), shape=P.shape)
            assert sp.isspmatrix_csc(b) and all(
                getattr(b, k).tobytes() == getattr(want, k).tobytes() for k in ("data", "indices", "indptr"))
    assert sparse >= (1 if source in ("davies.json", "zero diagonal") else 0)


@pytest.mark.parametrize("source", _BUNDLED)
def test_spectrum_truncated_blocks_match_unsplit(source):
    # eigenvalues taken block by block against one eigensolve of the whole matrix
    q = parse_symbol_spec(source)
    op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, 10, 0.3))
    whole = np.linalg.eigvals(op.matrix.toarray())
    blocked = dc.spectrum_truncated(op, op.trunc.size)
    assert multiset_defect(blocked, whole) <= 1e-11 * np.max(np.abs(whole))


@pytest.mark.parametrize("source", _BUNDLED + ["random-d1", "random-d2", "random-d3", "mixed"])
def test_band_form_equals_the_dense_diagonals(source):
    # in each dense block's rows the operator's band form holds the lower
    # diagonals 0..kd of B^H B (to rounding), B^H and B (exactly), formed
    # densely per block, kd = min(2 b, m - 1), and zeros past kd; the rows of
    # a sparse block are zero.  Degree 0 is one 1 x 1 block, and d = 1 at
    # degree 220 has a sparse parity block (111) next to a dense one (110);
    # "mixed" puts b = m - 1 blocks (7 and 2) and a 1 x 1 block next to a
    # kfp shell
    from conftest import seeded_form
    from dcspec.weyl import DENSE_SVD_CUTOFF

    if source == "mixed":
        op, k = _largest_block(kfp_form(), 24, 0.1)
        ops = [_stand_in_op([_random_block(7), np.array([[2.0 + 1j]]), op.blocks[k][1], _random_block(2)])]
    else:
        forms = ([seeded_form(int(source[-1]), seed) for seed in range(2)] if source.startswith("random")
                 else [parse_symbol_spec(source)])
        ops = [dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, 0.2))
               for q in forms for N in ([0, 6, 12] + [220] * (q.dim == 1))]
    kinds = set()
    for op in ops:
        S, first, kd = op._bands
        assert S.shape[:2] == (3, op.trunc.size)
        for t, (idx, B) in enumerate(op.blocks):
            m = len(idx)
            rows = S[:, first[t]:first[t] + m]
            assert first[t] == sum(len(i) for i, _ in op.blocks[:t])
            if m > DENSE_SVD_CUTOFF:
                assert not rows.any()
                kinds.add("sparse")
                continue
            i, j = np.nonzero(B)
            b = int(np.abs(i - j).max())
            assert kd[t] == min(2 * b, m - 1)
            kinds.add("1 x 1" if m == 1 else "b = m - 1" if b == m - 1 else "banded")
            assert not rows[:, :, kd[t] + 1:].any()
            gram = B.conj().T @ B
            for got, want in zip(rows[:, :, :kd[t] + 1], (gram, B.conj().T, B)):
                ref = np.zeros_like(got)
                for d in range(kd[t] + 1):
                    ref[:m - d, d] = np.diagonal(want, -d)
                if want is gram:
                    assert np.abs(got - ref).max() <= 1e-14 * np.linalg.norm(B) ** 2
                else:
                    assert got.tolist() == ref.tolist()
    assert kinds >= ({"1 x 1", "b = m - 1", "banded"} if source == "mixed" else {"1 x 1"})
    if source in ("davies.json", "random-d1"):
        assert "sparse" in kinds


@pytest.mark.parametrize("source", _BUNDLED)
def test_level_pair_takes_the_coarse_level_from_the_fine_matrix(source, monkeypatch):
    # level_pair quantizes once, at N, and its coarser operator, the leading
    # submatrix, equals quantize_quadratic's at coarse_degree(N) bit for bit,
    # with the same blocks
    from dcspec import weyl

    q = parse_symbol_spec(source)
    seen, degrees = [], []
    norm, quantize = weyl.resolvent_norm, weyl.quantize_quadratic
    monkeypatch.setattr(weyl, "resolvent_norm", lambda op, z: seen.append(op) or norm(op, z))
    monkeypatch.setattr(weyl, "quantize_quadratic", lambda q, t: degrees.append(t.degree) or quantize(q, t))
    for N in (1, 5, 30):
        seen.clear()
        degrees.clear()
        weyl.level_pair(q, 0.1, N, 0.3 + 0.2j)
        assert degrees == [N]
        coarse, fine = seen
        assert coarse.trunc == dc.HermiteTruncation(q.dim, dc.coarse_degree(N), 0.1)
        assert fine.trunc == dc.HermiteTruncation(q.dim, N, 0.1)
        want = quantize(q, coarse.trunc)
        assert coarse.matrix.shape == want.matrix.shape == (coarse.trunc.size,) * 2
        for name in ("data", "indices", "indptr"):
            got_a, want_a = getattr(coarse.matrix, name), getattr(want.matrix, name)
            assert got_a.dtype == want_a.dtype and got_a.tobytes() == want_a.tobytes()
        assert [(i.tolist(), (b.toarray() if sp.issparse(b) else b).tolist()) for i, b in coarse.blocks] == [
            (i.tolist(), (b.toarray() if sp.issparse(b) else b).tolist()) for i, b in want.blocks]


def test_band_form_is_formed_at_most_once_per_operator(kfp, davies, monkeypatch):
    # a kfp probe-theorem ladder forms the band form of some of its
    # operators, each at most once; a davies grid of 1200 shifts, all on the
    # Schur engine, forms none
    from dcspec import weyl

    formed, ops = [], []
    form, norm = weyl.TruncatedWeylOperator._bands.func, weyl.resolvent_norm
    monkeypatch.setattr(weyl.TruncatedWeylOperator._bands, "func", lambda op: formed.append(op) or form(op))
    monkeypatch.setattr(weyl, "resolvent_norm", lambda op, z: ops.append(op) or norm(op, z))
    dc.probe_theorem(kfp, [0.2, 0.1, 0.05], 0.15, 10.0, samples=10, seed=7)
    assert formed and len({id(op) for op in formed}) == len(formed)
    assert {id(op) for op in formed} <= {id(op) for op in ops}
    formed.clear()
    dc.pseudospectrum_grid(davies, 0.05, 100, (0.0, 3.0, -0.5, 2.0), (40, 30))
    assert formed == []


def test_resolvent_norm_infinity_signal_dense_blocks(harmonic):
    # n = 201 is above the cutoff, and the diagonal matrix splits into 1 x 1 blocks
    op = dc.quantize_quadratic(harmonic, dc.HermiteTruncation(1, 200, 0.1))
    assert _largest_block_engine(op) == "dense"
    assert len(op.blocks) == op.trunc.size
    eigs = op.matrix.diagonal().real
    # an exact diagonal entry gives sigma_min = 0; 0.3 is an eigenvalue up to rounding
    assert math.isinf(dc.resolvent_norm(op, eigs[5]))
    assert math.isinf(dc.resolvent_norm(op, 0.3))
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = complex(rng.uniform(0, 2), rng.uniform(-1, 1))
        expected = 1.0 / np.min(np.abs(eigs - z))
        assert dc.resolvent_norm(op, z) == pytest.approx(expected, rel=1e-10)


def test_resolvent_norm_infinity_signal_sparse(harmonic, monkeypatch):
    # the sparse engine on the unsplit diagonal harmonic matrix, n = 201,
    # which stores its whole diagonal
    from dcspec.weyl import DENSE_SVD_CUTOFF, INFINITY_SIGMA_RTOL, _sigma_min_sparse

    op = dc.quantize_quadratic(harmonic, dc.HermiteTruncation(1, 200, 0.1))
    M = op.matrix
    assert M.shape[0] > DENSE_SVD_CUTOFF
    eigs = M.diagonal().real
    assert (eigs != 0).all()

    def smin(z):
        return _sigma_min_sparse(M, np.array([z]))[0]

    # an exact diagonal entry makes the LU factor exactly singular; 0.3 is
    # an eigenvalue up to rounding
    assert smin(eigs[5]) == 0.0
    assert smin(0.3) < INFINITY_SIGMA_RTOL * np.linalg.norm(M.data)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = complex(rng.uniform(0, 2), rng.uniform(-1, 1))
        assert smin(z) == pytest.approx(np.min(np.abs(eigs - z)), rel=1e-10)
    # one array call whose factors all fit one group: the singular ones,
    # first and last among them, give 0 and the others run through a
    # single _lanczos call
    counts = _lanczos_counts(monkeypatch)
    zs = np.array([eigs[5], 0.7 + 0.2j, eigs[9], 1.3 - 0.4j, 0.05 + 0.01j, eigs[12]])
    got = _sigma_min_sparse(M, zs)
    assert counts == [3]
    assert got[0] == got[2] == got[5] == 0.0
    want = np.min(np.abs(eigs[:, None] - zs[[1, 3, 4]]), axis=0)
    assert got[[1, 3, 4]] == pytest.approx(want, rel=1e-10)


def test_pseudospectrum_grid_harmonic(harmonic):
    op = dc.quantize_quadratic(harmonic, dc.HermiteTruncation(1, 20, 0.1))
    re_axis, im_axis, grid, _ = dc.pseudospectrum_grid(harmonic, 0.1, 20, (0.05, 0.45, -0.1, 0.1), (5, 3))
    assert grid.shape == (3, 5)
    eigs = np.diag(op.matrix.toarray().real)
    for j, im in enumerate(im_axis):
        for i, re in enumerate(re_axis):
            z = complex(re, im)
            expected = -math.log10(np.min(np.abs(eigs - z)))
            assert grid[j, i] == pytest.approx(expected, rel=1e-9)


def test_pseudospectrum_grid_infinity_sentinel(harmonic):
    # grid point exactly on an eigenvalue propagates +inf, at both levels
    _, _, grid, change = dc.pseudospectrum_grid(harmonic, 0.1, 20, (0.1, 0.3, 0.0, 0.0), (2, 1))
    assert np.isinf(grid).all()
    assert change == math.inf
    # so has a lone shift there, which leaves level_pair no finite change
    assert dc.level_pair(harmonic, 0.1, 20, 0.1) == (math.inf, math.inf, math.inf)


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

    from dcspec.weyl import multi_indices

    op = dc.quantize_quadratic(q, dc.HermiteTruncation(q.dim, N, h))
    lowest = sorted(np.linalg.eigvals(op.matrix.toarray()), key=abs)[:3]
    parity = multi_indices(q.dim, N).sum(1) % 2
    parity_blocks = [op.matrix[parity == p][:, parity == p] for p in (0, 1)]
    assert (op.matrix.diagonal() != 0).all()  # so each block stores its whole diagonal
    with mp.workdps(30):
        exact = mp_galerkin_blocks(q, N, h)
        for lam, t in zip(lowest, (0.4, 2.0, 4.1)):
            z = lam * (1 + 0.02 * np.exp(1j * t))
            want = []
            for B, b in zip(exact, parity_blocks):
                shifted = B - mp.mpc(z.real, z.imag) * mp.eye(B.rows)
                want.append(float(min(mp.svd_c(shifted, compute_uv=False))))
                got = _sigma_min_sparse(b, np.array([z]))[0]
                assert got == pytest.approx(want[-1], rel=1e-9)
            assert 1.0 / dc.resolvent_norm(op, z) == pytest.approx(min(want), rel=1e-9)


def test_non_finite_h_and_z_rejected(harmonic, davies):
    from dcspec.errors import DomainError

    for h in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError):
            dc.HermiteTruncation(1, 5, h)
    for q, N, engine in [(harmonic, 20, "dense"), (harmonic, 200, "dense"), (davies, 300, "sparse")]:
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(1, N, 0.1))
        assert _largest_block_engine(op) == engine
        for z in (complex(math.nan, 0), complex(0.2, math.inf), math.nan):
            with pytest.raises(DomainError):
                dc.resolvent_norm(op, z)
        # one non-finite entry among finite ones rejects the whole array
        zs = np.array([[0.2, 0.25 + 0.1j], [complex(0.3, math.inf), 0.15]])
        with pytest.raises(DomainError):
            dc.resolvent_norm(op, zs)


def test_non_finite_operator_rejected_before_any_engine(monkeypatch):
    # a matrix with one infinite entry (a QuadraticForm cannot give one, as
    # the next test shows); each engine would fail its own way on it (an SVD
    # that does not converge, zgees's ValueError, a division by zero in
    # SuperLU + Lanczos), so resolvent_norm raises DomainError before any of
    # them runs
    from dcspec.errors import DomainError

    ran = _engine_runs(monkeypatch)
    q = dc.QuadraticForm(1, np.array([[2.0, 0], [0, 1]]))
    for N, shifts, engine in [(20, 3, "dense"), (60, 1300, "schur"), (300, 1, "sparse")]:
        op = dc.quantize_quadratic(q, dc.HermiteTruncation(1, N, 0.1))
        op.matrix.data[0] = math.inf
        assert _largest_block_engine(op, shifts) == engine
        with pytest.raises(DomainError):
            dc.resolvent_norm(op, np.linspace(0.1, 2, shifts) + 0.3j)
    assert ran == []


@pytest.mark.parametrize("use", ["probe_theorem", "stable_eigenvalues", "spectrum_truncated", "scaling_check"])
@pytest.mark.parametrize("matrix", [
    [[math.inf, 0], [0, 1]], [[1, 0], [0, -math.inf]], [[math.nan, 0], [0, 1]],
    [[1, 1e308], [1e308, 1]],  # finite, but symmetrizing it overflows
])
def test_non_finite_form_is_a_domain_error(use, matrix):
    # every consumer of a form meets one DomainError, raised where the form
    # is made, instead of a LinAlgError or NumericalFailureError of its own
    from dcspec.errors import DomainError

    run = {
        "probe_theorem": lambda q: dc.probe_theorem(q, [0.2, 0.1], 0.15, 10.0, samples=2),
        "stable_eigenvalues": lambda q: dc.stable_eigenvalues(dc.hamilton_map(q)),
        "spectrum_truncated": lambda q: dc.spectrum_truncated(
            dc.quantize_quadratic(q, dc.HermiteTruncation(1, 10, 0.1)), 3),
        "scaling_check": lambda q: dc.scaling_check(q, 0.1, 0.2, degree=10),
    }[use]
    with pytest.raises(DomainError, match="non-finite"):
        run(dc.QuadraticForm(1, np.array(matrix)))
