"""Independent correctness oracles for the four workloads.

Nothing here calls the dcspec function whose answer it checks.  Symbols
are read with this module's own JSON reader, Galerkin matrices are built
from closed-form ladder-operator matrix elements, lattices are enumerated
by brute force over a k-box, and flow averages use scipy's adaptive
``quad_vec``.  Each ``check_*`` returns a :class:`Verdict` whose ``failed``
counts the operations of one pass that missed their oracle.
"""

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

NORM_RTOL = 1e-6          # resolvent norms vs dense SVD
DIST_RTOL = 1e-12         # lattice distances vs k-box enumeration
FIT_EXPONENT_MAX = 1.65   # criterion 9: 1 + rho + 0.15 with rho = 1/2
FIT_RTOL = 1e-9           # reported fit exponent vs least squares on the rows
AVG_DEFECT_RTOL = 1e-8    # criterion 3, relative to ||A||
SYMPLECTIC_RTOL = 1e-10   # criterion 4, relative to max(1, ||kappa||^2)
QUAD_VEC_TOL = 1e-9       # averaged_real_part vs quad_vec, relative
ROUNDTRIP_RTOL = 1e-8     # kappa -> phase -> kappa
CANONICITY_RTOL = 1e-9    # block conditions, relative to max(1, ||kappa||^2)


@dataclass
class Verdict:
    failed: int = 0
    max_rel_err: float = 0.0
    notes: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def rel(self, err):
        if math.isfinite(err):
            self.max_rel_err = max(self.max_rel_err, err)
        else:
            self.max_rel_err = math.inf

    def fail(self, count, note):
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)


# ---------------------------------------------------------------- symbols


def _j(d):
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = -np.eye(d)
    J[d:, :d] = np.eye(d)
    return J


def read_symbol(path):
    """(d, A) with q(X) = <X, A X>, A complex symmetric, X = (x, xi)."""
    with open(path) as f:
        doc = json.load(f)
    d = doc["dim"]
    A = np.zeros((2 * d, 2 * d), dtype=complex)
    for term in doc["terms"]:
        slots = [j for j, a in enumerate(term["alpha"]) for _ in range(a)]
        slots += [d + j for j, b in enumerate(term["beta"]) for _ in range(b)]
        i, j = slots
        c = complex(term.get("re", 0.0), term.get("im", 0.0))
        A[i, j] += c / 2
        A[j, i] += c / 2
    return d, A


def stable_mus(d, A):
    """mu_j = lambda_j / i for the Hamilton eigenvalues lambda_j with Im > 0."""
    lam = np.linalg.eigvals(-_j(d) @ A)
    return lam[lam.imag > 0] / 1j


# ---------------------------------------------------------------- Galerkin


def _apply(slot, d, h, state):
    """Apply the position (slot < d) or momentum operator to {k: amplitude}.

    x = c (a + a^+) and hD = -i c (a - a^+) with c = sqrt(h / 2), on the
    oscillator eigenbasis of infinite extent, so products are exact.
    """
    c = math.sqrt(h / 2.0)
    mode = slot % d
    momentum = slot >= d
    out = {}
    for k, amp in state.items():
        n = k[mode]
        if n > 0:
            lower = k[:mode] + (n - 1,) + k[mode + 1:]
            v = c * math.sqrt(n) * (-1j if momentum else 1.0)
            out[lower] = out.get(lower, 0.0) + amp * v
        upper = k[:mode] + (n + 1,) + k[mode + 1:]
        v = c * math.sqrt(n + 1) * (1j if momentum else 1.0)
        out[upper] = out.get(upper, 0.0) + amp * v
    return out


def galerkin_matrix(d, A, h, degree):
    """Dense Galerkin matrix of the Weyl quantization of q on |k| <= degree.

    Each monomial X_i X_j quantizes to (X_i X_j + X_j X_i) / 2; the basis
    order is this module's own (row-major k-box), which leaves singular
    values unchanged.
    """
    basis = [k for k in itertools.product(range(degree + 1), repeat=d) if sum(k) <= degree]
    pos = {k: i for i, k in enumerate(basis)}
    n = len(basis)
    M = np.zeros((n, n), dtype=complex)
    pairs = [(i, j, A[i, i] if i == j else 2.0 * A[i, j])
             for i in range(2 * d) for j in range(i, 2 * d) if A[i, j] != 0]
    for col, k in enumerate(basis):
        e = {k: 1.0}
        for i, j, coeff in pairs:
            ij = _apply(i, d, h, _apply(j, d, h, e))
            ji = _apply(j, d, h, _apply(i, d, h, e))
            for target in set(ij) | set(ji):
                row = pos.get(target)
                if row is not None:
                    M[row, col] += 0.5 * coeff * (ij.get(target, 0.0) + ji.get(target, 0.0))
    return M


def resolvent_norm_svd(M, z):
    s = np.linalg.svd(M - z * np.eye(M.shape[0]), compute_uv=False)
    return 1.0 / s[-1]


# ---------------------------------------------------------------- lattice


def lattice_values(mus, h, reach):
    """All h * sum_j (1 + 2 k_j) mu_j over the k-box that covers |value| <= reach."""
    bounds = [int(reach / (2 * h * m.real)) + 1 for m in mus]
    grids = np.meshgrid(*[np.arange(b + 1) for b in bounds], indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    return h * ((1.0 + 2.0 * ks) @ mus)


def distances(mus, h, zs):
    """Distance from each z to the lattice, by brute force over a k-box."""
    zs = np.asarray(zs, dtype=complex)
    ground = h * np.sum(mus)
    reach = float(np.max(np.abs(zs)) + np.max(np.abs(zs - ground))) + 1e-9
    vals = lattice_values(mus, h, reach)
    return np.min(np.abs(zs[:, None] - vals[None, :]), axis=1)


def region_radii(h, C0, C1, d):
    F = math.log(math.log(1.0 / h)) ** (1.0 / d) / C0
    return h * F, h * math.exp(-F / C1)


def verdicts(zs, dist, outer, inner, excl):
    """(admissible, reason) per point, constraints checked in the CLI's order."""
    out = []
    for z, dd in zip(zs, dist):
        if abs(z) > outer:
            out.append((False, "outer bound"))
        elif inner is not None and abs(z) < inner:
            out.append((False, "inner bound"))
        elif dd < excl:
            out.append((False, "exclusion disc"))
        else:
            out.append((True, ""))
    return out


# ---------------------------------------------------------------- CLI checks


def _rows(csv_bytes):
    return list(csv.DictReader(io.StringIO(csv_bytes.decode())))


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def check_pseudo(argv, outputs, symbol_path, seed, spot_checks=12):
    """Every grid norm finite; dense-SVD spot checks at both truncation levels.

    An op is one (grid point, level) norm.  The coarse level is visible only
    through max_log10_change, so a spot check's coarse op passes when the
    reported change bounds the oracle's change at that point.
    """
    v = Verdict()
    summary = json.loads(outputs["stdout"])
    rows = _rows(outputs["csv"])
    n_re, n_im = (int(p) for p in _arg(argv, "--res").split(","))
    points = n_re * n_im
    if len(rows) != points:
        v.fail(2 * points, f"{len(rows)} rows, expected {points}")
        return v
    logs = np.array([float(r["log10norm"]) for r in rows])
    bad = int(np.sum(~np.isfinite(logs)))
    if bad:
        v.fail(bad, f"{bad} non-finite norms")
    change = float(summary["max_log10_change"])
    if not math.isfinite(change):
        v.fail(points, "max_log10_change not finite")
    d, A = read_symbol(symbol_path)
    h = float(_arg(argv, "--h"))
    N, N_coarse = int(_arg(argv, "--N")), int(summary["N_coarse"])
    fine, coarse = galerkin_matrix(d, A, h, N), galerkin_matrix(d, A, h, N_coarse)
    rng = np.random.default_rng(seed)
    for i in sorted(rng.choice(points, size=min(spot_checks, points), replace=False)):
        z = complex(float(rows[i]["re"]), float(rows[i]["im"]))
        want = resolvent_norm_svd(fine, z)
        err = abs(10.0 ** logs[i] - want) / want
        v.rel(err)
        if not err <= NORM_RTOL:
            v.fail(1, f"fine norm at {z}: rel err {err:.3e}")
        level_gap = abs(math.log10(want) - math.log10(resolvent_norm_svd(coarse, z)))
        if not level_gap <= change * (1 + 1e-6) + 1e-12:
            v.fail(1, f"coarse change at {z}: {level_gap:.3e} > reported {change:.3e}")
    return v


def check_probe(argv, outputs, symbol_path, seed, spot_checks_per_h=1):
    """Finite norms, the reported fit exponent against least squares on the
    rows, sampled points admissible by a brute-force lattice, and dense-SVD
    spot checks.  Whether the exponent meets criterion 9 is recorded."""
    v = Verdict()
    summary = json.loads(outputs["stdout"])
    rows = _rows(outputs["csv"])
    hs = [float(p) for p in _arg(argv, "--h-list").split(",")]
    samples = int(_arg(argv, "--samples"))
    if len(rows) != len(hs) * samples:
        v.fail(len(hs) * samples, f"{len(rows)} rows, expected {len(hs) * samples}")
        return v
    exponent = float(summary["fit_exponent"])
    fin = [r for r in rows if math.isfinite(float(r["norm"]))]
    xs = np.log([1.0 / float(r["h"]) for r in fin])
    ys = np.log([float(r["norm"]) for r in fin])
    slope = float(np.sum((xs - xs.mean()) * (ys - ys.mean())) / np.sum((xs - xs.mean()) ** 2))
    err = abs(exponent - slope) / max(1.0, abs(slope))
    v.rel(err)
    if not err <= FIT_RTOL:
        v.fail(len(rows), f"fit exponent {exponent} vs least squares {slope}")
    # The criterion-9 bound is a statement about the growth rate, not about
    # this output: one converged sample near a Jordan-block lattice point can
    # lift a 3-point fit past it, so it is recorded rather than gated.
    v.info["fit_exponent"] = exponent
    v.info["fit_within_criterion9"] = exponent <= FIT_EXPONENT_MAX
    d, A = read_symbol(symbol_path)
    mus = stable_mus(d, A)
    C0, C1 = float(_arg(argv, "--C0")), float(_arg(argv, "--C1"))
    degrees = {float(k): n for k, n in summary["degrees"].items()}
    rng = np.random.default_rng(seed)
    for h in hs:
        mine = [r for r in rows if float(r["h"]) == h]
        zs = [complex(float(r["z_re"]), float(r["z_im"])) for r in mine]
        norms = [float(r["norm"]) for r in mine]
        outer, excl = region_radii(h, C0, C1, d)
        inner = 3.0 * h  # probe-theorem's default --inner-mult
        for (ok, reason), nv in zip(verdicts(zs, distances(mus, h, zs), outer, inner, excl), norms):
            if not ok or not math.isfinite(nv):
                v.fail(1, f"h={h}: sample {'not admissible: ' + reason if not ok else 'norm not finite'}")
        M = galerkin_matrix(d, A, h, degrees[h])
        for i in rng.choice(len(zs), size=min(spot_checks_per_h, len(zs)), replace=False):
            want = resolvent_norm_svd(M, zs[i])
            err = abs(norms[i] - want) / want
            v.rel(err)
            if not err <= NORM_RTOL:
                v.fail(1, f"h={h}, z={zs[i]}: rel err {err:.3e}")
    return v


def check_region(argv, outputs, symbol_path):
    """Each grid point's distance vs k-box enumeration, and its verdict."""
    v = Verdict()
    rows = _rows(outputs["csv"])
    res = int(_arg(argv, "--res"))
    if len(rows) != res * res:
        v.fail(res * res, f"{len(rows)} rows, expected {res * res}")
        return v
    d, A = read_symbol(symbol_path)
    mus = stable_mus(d, A)
    h = float(_arg(argv, "--h"))
    outer, excl = region_radii(h, float(_arg(argv, "--C0")), float(_arg(argv, "--C1")), d)
    zs = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    want = distances(mus, h, zs)
    expected = verdicts(zs, want, outer, float(_arg(argv, "--inner")), excl)
    for r, wd, (ok, reason) in zip(rows, want, expected):
        err = abs(float(r["dist"]) - wd) / max(wd, 1e-300)
        v.rel(err)
        if not err <= DIST_RTOL:
            v.fail(1, f"dist at {r['re']},{r['im']}: rel err {err:.3e}")
        elif (r["admissible"] == "1", r["reason"]) != (ok, reason):
            v.fail(1, f"verdict at {r['re']},{r['im']}: {r['reason']!r} vs {reason!r}")
    return v


# ---------------------------------------------------------------- phase space


def averaged_quad_vec(d, A, T=1.0):
    """(1/T) int_0^T M^T Re A M dt, M = expm(2 t Im F), by adaptive quad_vec."""
    from scipy.integrate import quad_vec

    ReA = A.real
    ImF = (-_j(d) @ A).imag

    def f(t):
        M = sla.expm(2.0 * t * ImF)
        return M.T @ ReA @ M

    val, _ = quad_vec(f, 0.0, T, epsabs=1e-14, epsrel=1e-13)
    return 0.5 * (val + val.T) / T


def check_phase_space(raw, results, averaged_real_part, every=10):
    """Per form: averaging identity, positivity report, canonical normalizer,
    FBI round trip; every ``every``-th form also checks the averaged form
    (recomputed by the program's ``averaged_real_part``) against quad_vec."""
    v = Verdict()
    for i, ((d, A, M), res) in enumerate(zip(raw, results)):
        if isinstance(res, str):
            v.fail(1, f"form {i}: raised {res}")
            continue
        problems = []
        normA = float(np.linalg.norm(A))
        if not res["averaging_defect"] <= AVG_DEFECT_RTOL * normA:
            problems.append(f"averaging defect {res['averaging_defect']:.3e}")
        if not res["consistent"]:
            problems.append("positivity report inconsistent")
        kappa = res["kappa"]
        J = _j(d)
        sdef = float(np.linalg.norm(kappa.T @ J @ kappa - J))
        if not sdef <= SYMPLECTIC_RTOL * max(1.0, float(np.linalg.norm(kappa)) ** 2):
            problems.append(f"symplectic defect {sdef:.3e}")
        if not math.isfinite(res["margin"]):
            problems.append("ellipticity margin not finite")
        scale = max(1.0, float(np.linalg.norm(M)))
        rt = float(np.linalg.norm(res["kappa_roundtrip"] - M)) / scale
        v.rel(rt)
        if not rt <= ROUNDTRIP_RTOL:
            problems.append(f"kappa round trip {rt:.3e}")
        if not res["canonicity_max"] <= CANONICITY_RTOL * scale**2:
            problems.append(f"canonicity defect {res['canonicity_max']:.3e}")
        if not np.linalg.eigvalsh(res["levi"]).min() > 0:
            problems.append("Levi form not positive definite")
        if i % every == 0:
            want = averaged_quad_vec(d, A)
            got = averaged_real_part(res["form"]).matrix
            err = float(np.linalg.norm(got - want)) / max(1.0, float(np.linalg.norm(want)))
            v.rel(err)
            if not err <= QUAD_VEC_TOL:
                problems.append(f"averaged form vs quad_vec {err:.3e}")
            positive = np.linalg.eigvalsh(want).min() > 1e-9 * float(np.linalg.norm(want))
            if positive != (res["s_dim"] == 0):
                problems.append(f"s_dim {res['s_dim']} vs averaged positivity {positive}")
        if problems:
            v.fail(1, f"form {i}: " + "; ".join(problems))
    return v
