"""Seeded workload inputs: CLI argument vectors and the phase-space forms.

Everything here depends only on the workload name, the seed and the size
("full" or "smoke"), so the same seed always gives the same inputs.  The
module imports nothing but numpy and scipy.linalg at top level, because
the set-up measurement imports it inside its timed region.
"""

import os

import numpy as np
import scipy.linalg as sla

# Per-workload CLI arguments (without output paths); "smoke" is a few-second
# version of the same command used by the self-checks.
_CLI = {
    "pseudo_small": {
        "symbol": "davies.json",
        "full": ["pseudospectrum", "--symbol", "davies.json", "--h", "0.05",
                 "--N", "100", "--window", "0,3,-0.5,2", "--res", "40,30"],
        "smoke": ["pseudospectrum", "--symbol", "davies.json", "--h", "0.05",
                  "--N", "40", "--window", "0,3,-0.5,2", "--res", "8,6"],
    },
    "probe_kfp": {
        "symbol": "kfp.json",
        "full": ["probe-theorem", "--symbol", "kfp.json", "--C0", "0.15",
                 "--C1", "10", "--h-list", "0.2,0.1,0.05", "--samples", "10"],
        "smoke": ["probe-theorem", "--symbol", "kfp.json", "--C0", "0.15",
                  "--C1", "10", "--h-list", "0.2,0.1", "--samples", "3"],
    },
    "region_wedge": {
        "symbol": "wedge_model.json",
        "full": ["region", "--symbol", "wedge_model.json", "--h", "0.05",
                 "--C0", "0.1047", "--C1", "10", "--inner", "0.15", "--res", "41"],
        "smoke": ["region", "--symbol", "wedge_model.json", "--h", "0.05",
                  "--C0", "0.1047", "--C1", "10", "--inner", "0.15", "--res", "9"],
    },
}

PHASE_FORMS = {"full": 100, "smoke": 10}

# Workloads whose CLI command takes the seed; pseudospectrum has no random
# input, so its seed only picks the oracle's spot-check points.
_SEEDED = ("probe_kfp", "region_wedge")


def cli_argv(workload, seed, outdir, size="full"):
    """Argument vector for dcspec.cli.run and the output files it writes."""
    argv = list(_CLI[workload][size])
    if workload in _SEEDED:
        argv += ["--seed", str(seed)]
    files = {"csv": os.path.join(outdir, "out.csv")}
    argv += ["--out", files["csv"]]
    if workload in ("pseudo_small", "region_wedge"):
        files["svg"] = os.path.join(outdir, "out.svg")
        argv += ["--svg", files["svg"]]
    return argv, files


def symbol_name(workload):
    return _CLI[workload]["symbol"]


# Fixed canonical map of the Gaussian phase (i/2)(x - y)^2; random maps are
# small canonical perturbations of it, so their phases stay admissible.
def _standard_kappa(d):
    eye = np.eye(d)
    zero = np.zeros((d, d))
    return np.block([[eye, -1j * eye], [zero, eye]])


def _j(d):
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = -np.eye(d)
    J[d:, :d] = np.eye(d)
    return J


def _random_canonical(rng, d, scale=0.3, min_im_yy=0.05, max_cond_b=1e3):
    """Canonical map K0 exp(-s J S), S complex symmetric, with a valid phase.

    Draws again until the generating phase has Im yy >= min_im_yy and the B
    block is well conditioned, so phase_of_kappa never has to refuse it.
    """
    for _ in range(100):
        X = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
        S = 0.5 * (X + X.T)
        M = _standard_kappa(d) @ sla.expm(-scale * _j(d) @ S)
        A, B = M[:d, :d], M[:d, d:]
        if np.linalg.cond(B) > max_cond_b:
            continue
        yy = np.linalg.solve(B, A)
        im_yy = 0.5 * (yy + yy.T).imag
        if np.linalg.eigvalsh(im_yy).min() >= min_im_yy:
            return M
    raise RuntimeError("could not draw an admissible canonical map")


# Conditions a drawn form must meet, both read off the averaged Re part
# <Re A> = int_0^1 M^T Re A M dt, M = expm(2 t Im F).  A form that misses
# either is drawn again with the same d and rank, like the canonical maps
# above; about 1 in 100 random forms is.
#
# - lambda_min(<Re A>) >= POSITIVITY_MARGIN ||<Re A>||_F.  dcspec decides
#   positivity at 1e-9 of the norm, and near that threshold the decision is
#   not resolvable in floating point: singular_space sees the flow turn
#   ker Re A linearly (tolerance 1e-10), the averaged eigenvalue grows with
#   the square of that turn, and the two tests can disagree.
# - ||<Re A>||_F <= GROWTH_MAX ||A||_F.  The averaging identity is checked
#   to 1e-8 ||A|| (criterion 3), but its two sides carry rounding relative
#   to ||<Re A>||; over 15000 random forms the defect stayed below
#   4e-13 ||<Re A>||, so a flow that stretches by more than about 1e4 puts
#   the bound below the rounding of the integrand.
POSITIVITY_MARGIN = 1e-6
GROWTH_MAX = 1e3
_SIMPSON_STEPS = 16
_SIMPSON_W = np.array([1.0] + [4.0 if k % 2 else 2.0 for k in range(1, _SIMPSON_STEPS)] + [1.0])
_SIMPSON_W /= 3 * _SIMPSON_STEPS


def averaged_conditioning(d, A):
    """(lambda_min / ||.||_F, ||.||_F / ||A||_F) of the averaged Re part,
    by Simpson's rule (positive weights, so the sum stays semidefinite)."""
    ReA = A.real
    step = sla.expm((2.0 / _SIMPSON_STEPS) * (-_j(d) @ A).imag)
    M = np.eye(2 * d)
    avg = _SIMPSON_W[0] * ReA
    for w in _SIMPSON_W[1:]:
        M = step @ M
        avg = avg + w * (M.T @ ReA @ M)
    avg = 0.5 * (avg + avg.T)
    norm = float(np.linalg.norm(avg))
    return float(np.linalg.eigvalsh(avg)[0]) / norm, norm / float(np.linalg.norm(A))


def phase_space_draw(seed, size="full"):
    """Seeded (d, A, M) triples and the number of forms drawn again.

    d in {1, 2, 3}, alternating full-rank and corank-1 positive
    semidefinite Re A, symmetric Im A, canonical map M.  A form outside
    POSITIVITY_MARGIN or GROWTH_MAX is drawn again with the same d and
    rank."""
    rng = np.random.default_rng(seed)
    out, redrawn = [], 0
    for i in range(PHASE_FORMS[size]):
        d = int(rng.integers(1, 4))
        rank = 2 * d if i % 2 == 0 else 2 * d - 1
        for _ in range(100):
            R = rng.standard_normal((rank, 2 * d))
            X = rng.standard_normal((2 * d, 2 * d))
            A = R.T @ R + 0.5j * (X + X.T)
            margin, growth = averaged_conditioning(d, A)
            if margin >= POSITIVITY_MARGIN and growth <= GROWTH_MAX:
                break
            redrawn += 1
        else:
            raise RuntimeError("could not draw a well-conditioned form")
        out.append((d, A, _random_canonical(rng, d)))
    return out, redrawn


def phase_space_inputs(raw):
    """Program inputs for phase_space, (QuadraticForm, BlockCanonicalMap)
    pairs, from the triples of phase_space_draw."""
    from dcspec import BlockCanonicalMap, QuadraticForm

    return [(QuadraticForm(d, A), BlockCanonicalMap.from_matrix(M)) for d, A, M in raw]


def setup(workload, seed):
    """The set-up step timed by setup_s, after ``import dcspec.cli``:
    parse the workload's symbol, or build its forms."""
    import dcspec.cli

    if workload == "phase_space":
        return phase_space_inputs(phase_space_draw(seed)[0])
    return dcspec.cli.parse_symbol_spec(symbol_name(workload))
