"""Command-line front end: argument parsing, symbol files, CSV/SVG/JSON output.

Exit codes come from one table, ``EXIT_CODES``: 0 success, 2 schema,
domain and precondition problems, 3 numerical failures (including LAPACK
errors), 4 degenerate Hamilton spectra.  Any other exception is an
internal error and propagates.  Errors are emitted on stderr as
single-line JSON objects so harnesses can assert on reasons rather than
message text.  All outputs are byte-deterministic for a fixed command
line, seed and BLAS thread count; CSV floats carry 17 significant digits.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bundled_symbol_path
from .errors import (
    DcspecError,
    DegenerateSpectrumError,
    DomainError,
    NumericalFailureError,
    SymbolSchemaError,
)
from .symplectic import build_quadratic_form, hamilton_map
from .singular import averaged_real_part, singular_space
from .lattice import (
    RegionSpec,
    admissible,
    excluded_area_fraction,
    exclusion_discs,
    lattice_points,
    stable_eigenvalues,
)
from .weights import (
    averaging_identity_defect,
    canonical_normalizer,
    deformed_symbol,
    delta_max,
    ellipticity_margin,
    weight_gq,
)
from .fbi import (
    BlockCanonicalMap,
    FbiPhase,
    canonicity_conditions,
    kappa_of_phase,
    phase_of_kappa,
    phi_weight,
)
from .weyl import coarse_degree, level_pair, probe_theorem, pseudospectrum_grid

QUADRATIC_PROBE_NOTE = (
    "probe uses purely quadratic symbols at desk scale; "
    "resolvent bounds for general bounded symbols are out of scope"
)
SVG_SIZE = 640  # width and height of the SVG documents, in pixels

# exception class -> exit code, most specific first.  LinAlgError (a ValueError) is
# a LAPACK failure; any other exception, ValueError included, is an internal error
EXIT_CODES = {
    NumericalFailureError: 3,
    np.linalg.LinAlgError: 3,
    DegenerateSpectrumError: 4,
    DcspecError: 2,
}


def _fmt(x):
    """17-significant-digit float formatting; round-trips exactly."""
    return format(float(x), ".17g")


def _json_safe(obj):
    """``obj`` with every non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return str(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit_json(obj, stream=None):
    """One line of strict JSON (RFC 8259 has no Infinity or NaN)."""
    text = json.dumps(_json_safe(obj), sort_keys=True, allow_nan=False)
    (stream or sys.stdout).write(text + "\n")


def _error_line(exc):
    _emit_json({"error": type(exc).__name__, "message": str(exc)}, stream=sys.stderr)


def _write_csv(path, header, columns):
    """Write a CSV table given by ``columns``, one array or sequence per header field.

    Each column is rendered in one go: bools as 1/0, floats through ``_fmt``
    once per distinct bit pattern (so -0.0 and 0.0 keep their own text),
    anything else through ``str``.
    """
    cells = []
    for col in map(np.asarray, columns):
        if col.dtype == bool:
            cells.append(np.where(col, "1", "0").tolist())
        elif col.dtype == float:
            _, first, inverse = np.unique(
                col.view(np.int64), return_index=True, return_inverse=True
            )
            cells.append(np.array([_fmt(v) for v in col[first].tolist()])[inverse].tolist())
        else:
            cells.append([str(v) for v in col.tolist()])
    text = "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


# ---------------------------------------------------------------- symbols


def _read_json_object(path):
    """The JSON object in a file with a positive integer 'dim'; other
    content, unreadable files and malformed JSON raise SymbolSchemaError."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError) as exc:
        raise SymbolSchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SymbolSchemaError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise SymbolSchemaError(f"{path}: need a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise SymbolSchemaError(f"{path}: 'dim' must be a positive integer")
    return doc


def parse_symbol_spec(path):
    """Load a quadratic symbol from JSON.

    Schema: {"dim": d, "terms": [{"alpha": [...], "beta": [...],
    "re": r, "im": i}, ...]} with length-d multi-indices of total degree 2.
    A bare name like ``kfp.json`` resolves to the packaged file of that name,
    if there is one; a path with a directory part, like ``./kfp.json``, is a file.
    """
    if os.path.basename(path) == path:
        try:
            path = bundled_symbol_path(path)
        except FileNotFoundError:
            pass
    doc = _read_json_object(path)
    if not isinstance(doc.get("terms"), list):
        raise SymbolSchemaError(f"{path}: 'terms' must be a list")
    coeffs = {}
    for i, term in enumerate(doc["terms"]):
        if not isinstance(term, dict):
            raise SymbolSchemaError(f"{path}: term {i} is not an object")
        try:
            alpha = tuple(int(a) for a in term["alpha"])
            beta = tuple(int(b) for b in term["beta"])
            value = complex(float(term.get("re", 0.0)), float(term.get("im", 0.0)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SymbolSchemaError(f"{path}: term {i} malformed: {exc}") from exc
        if not np.isfinite(value):
            raise SymbolSchemaError(f"{path}: term {i} coefficient {value} is not finite")
        key = (alpha, beta)
        coeffs[key] = coeffs.get(key, 0.0) + value
    try:
        return build_quadratic_form(doc["dim"], coeffs)
    except SymbolSchemaError as exc:
        raise SymbolSchemaError(f"{path}: {exc}") from exc


def _matrix_to_json(M):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(M, dtype=complex)]


def _matrix_from_json(doc, key, dim, path):
    try:
        M = np.array(
            [[complex(e[0], e[1]) for e in row] for row in doc[key]], dtype=complex
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SymbolSchemaError(f"{path}: block {key!r} malformed: {exc}") from exc
    if M.shape != (dim, dim):
        raise SymbolSchemaError(f"{path}: block {key!r} must be {dim}x{dim}")
    if not np.isfinite(M).all():
        raise SymbolSchemaError(f"{path}: block {key!r} has a non-finite entry")
    return M


def _load_block_doc(path, keys):
    doc = _read_json_object(path)
    return doc["dim"], {k: _matrix_from_json(doc, k, doc["dim"], path) for k in keys}


# ---------------------------------------------------------------- SVG


def _svg_document(elements):
    """A square SVG_SIZE document around ``elements``, in their fixed order."""
    n = SVG_SIZE
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{n}" '
        f'height="{n}" viewBox="0 0 {n} {n}">'
    )
    return "\n".join([head, *elements, "</svg>"]) + "\n"


def region_svg(outer, inner, rexc, lattice):
    """Admissibility geometry as a deterministic SVG document.

    A grey annulus between the ``inner`` and ``outer`` radii with dashed
    boundaries, a white exclusion disc of radius ``rexc`` around every
    point of ``lattice`` and a black marker on each.
    """
    scale = (SVG_SIZE * 0.45) / outer
    cx = cy = SVG_SIZE / 2.0

    def px(z):
        return cx + z.real * scale, cy - z.imag * scale

    # annulus with hole via even-odd fill
    parts = [
        f'<path fill="#cccccc" fill-rule="evenodd" stroke="none" d="'
        f"M {cx + outer * scale:.6g} {cy:.6g} "
        f"A {outer * scale:.6g} {outer * scale:.6g} 0 1 0 {cx - outer * scale:.6g} {cy:.6g} "
        f"A {outer * scale:.6g} {outer * scale:.6g} 0 1 0 {cx + outer * scale:.6g} {cy:.6g} Z "
        f"M {cx + inner * scale:.6g} {cy:.6g} "
        f"A {inner * scale:.6g} {inner * scale:.6g} 0 1 0 {cx - inner * scale:.6g} {cy:.6g} "
        f"A {inner * scale:.6g} {inner * scale:.6g} 0 1 0 {cx + inner * scale:.6g} {cy:.6g} Z"
        f'"/>',
        f'<circle cx="{cx:.6g}" cy="{cy:.6g}" r="{outer * scale:.6g}" '
        f'fill="none" stroke="#444444" stroke-dasharray="6,4"/>',
    ]
    if inner > 0:
        parts.append(
            f'<circle cx="{cx:.6g}" cy="{cy:.6g}" r="{inner * scale:.6g}" '
            f'fill="none" stroke="#444444" stroke-dasharray="6,4"/>'
        )
    for z in lattice:
        x, y = px(z)
        parts.append(
            f'<circle class="exclusion" cx="{x:.6g}" cy="{y:.6g}" '
            f'r="{rexc * scale:.6g}" fill="#ffffff" stroke="#888888"/>'
        )
    for z in lattice:
        x, y = px(z)
        parts.append(
            f'<circle class="lattice" cx="{x:.6g}" cy="{y:.6g}" r="2.5" fill="#000000"/>'
        )
    return _svg_document(parts)


def heat_svg(re_axis, im_axis, L):
    """The grid of ``pseudospectrum_grid``, L[i, j] at re_axis[j] + i im_axis[i],
    as a deterministic SVG document; darker is larger, infinite is black.  A cell
    sits at the rank of its coordinates among the distinct axis values.  Each
    distinct x, y and shade is formatted once."""
    res, col = np.unique(re_axis, return_inverse=True)
    ims, row = np.unique(im_axis, return_inverse=True)
    ok = np.isfinite(L)
    finite = L[ok]
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    span = hi - lo if hi > lo else 1.0
    w = SVG_SIZE / max(len(res), 1)
    hh = SVG_SIZE / max(len(ims), 1)
    # rint rounds halves to even, as round() does
    shade = np.rint(255 * (1.0 - np.where(ok, (L - lo) / span, 1.0))).astype(int)
    shades, which = np.unique(shade, return_inverse=True)
    fills = [f"#{s:02x}{s:02x}{s:02x}" for s in shades.tolist()]
    xs = [f"{c * w:.6g}" for c in range(len(res))]
    ys = [f"{(len(ims) - 1 - r) * hh:.6g}" for r in range(len(ims))]
    size = f'width="{w:.6g}" height="{hh:.6g}"'
    parts = [f'<rect x="{xs[c]}" y="{ys[r]}" {size} fill="{fills[k]}"/>'
             for r, ks in zip(row.tolist(), which.reshape(L.shape).tolist())
             for c, k in zip(col.tolist(), ks)]
    return _svg_document(parts)


# ---------------------------------------------------------------- commands


def _cmd_singular_space(args):
    q = parse_symbol_spec(args.symbol)
    space = singular_space(hamilton_map(q), tolerance=args.tol)
    avg = averaged_real_part(q, T=args.T)
    _emit_json(
        {
            "s_dim": space.dim,
            "basis": [[float(v) for v in space.basis[:, j]] for j in range(space.dim)],
            "min_avg_eigenvalue": avg.min_eigenvalue,
            "tolerance": space.tolerance,
            "T": args.T,
        }
    )
    return 0


def _cmd_spectrum(args):
    q = parse_symbol_spec(args.symbol)
    spec = stable_eigenvalues(hamilton_map(q))
    pts = lattice_points(spec, args.h, args.radius)
    vals = np.array([v for v, _ in pts], dtype=complex)
    _write_csv(args.out, ["re", "im", "multiplicity"], [vals.real, vals.imag, [m for _, m in pts]])
    return 0


def _cmd_region(args):
    q = parse_symbol_spec(args.symbol)
    spec = stable_eigenvalues(hamilton_map(q))
    region = RegionSpec(
        h=args.h, C0=args.C0, C1=args.C1, dim=q.dim, inner_radius=args.inner
    )
    (res,) = _grid_counts([args.res], "--res")
    lim = region.outer_radius * 1.1
    axis = np.linspace(-lim, lim, res)
    re, im = (g.ravel() for g in np.meshgrid(axis, axis))
    verdict = admissible(region, spec, re + 1j * im)
    discs = exclusion_discs(region, spec)
    # every result before the first write, so a failure leaves no partial output
    summary = {
        "F_of_h": region.f_value,
        "exclusion_radius": region.exclusion_radius,
        "outer_radius": region.outer_radius,
        "inner_radius": region.inner_radius,
        "excluded_area_fraction": excluded_area_fraction(region, spec, seed=args.seed),
        "disc_count": len(discs),
    }
    _write_csv(
        args.out,
        ["re", "im", "admissible", "dist", "reason"],
        [re, im, verdict.admissible, verdict.dist, verdict.reason],
    )
    if args.svg:
        with open(args.svg, "w") as f:
            f.write(region_svg(region.outer_radius, region.inner_radius or 0.0,
                               region.exclusion_radius, discs))
    _emit_json(summary)
    return 0


def _cmd_deform(args):
    q = parse_symbol_spec(args.symbol)
    w = weight_gq(q, T=args.T)
    kappa = canonical_normalizer(w, args.delta)
    margin = ellipticity_margin(deformed_symbol(q, w, args.delta))
    _emit_json(
        {
            "ellipticity_margin": margin,
            "symplectic_defect": kappa.symplectic_defect,
            "averaging_defect": averaging_identity_defect(q, T=args.T),
            "delta_max": delta_max(w),
            "delta": args.delta,
            "T": args.T,
        }
    )
    return 0


def _cmd_phase(args):
    if (args.kappa is None) == (args.phi is None):
        raise SymbolSchemaError("provide exactly one of --kappa or --phi")
    if args.kappa is not None:
        dim, b = _load_block_doc(args.kappa, ("A", "B", "C", "D"))
        bmap = BlockCanonicalMap(b["A"], b["B"], b["C"], b["D"])
        phase = phase_of_kappa(bmap)
        key, blocks = "phase", {"xx": phase.xx, "xy": phase.xy, "yy": phase.yy}
    else:
        dim, b = _load_block_doc(args.phi, ("xx", "xy", "yy"))
        phase = FbiPhase(dim, b["xx"], b["xy"], b["yy"])
        bmap = kappa_of_phase(phase)
        key, blocks = "kappa", {"A": bmap.A, "B": bmap.B, "C": bmap.C, "D": bmap.D}
    defects = canonicity_conditions(bmap)
    weight = phi_weight(phase)
    _emit_json(
        {
            "dim": dim,
            key: {name: _matrix_to_json(M) for name, M in blocks.items()},
            "canonicity_defects": [defects.c1, defects.c2, defects.c3],
            "symplectic_defect": bmap.symplectic_defect,
            "levi_eigenvalues": [float(v) for v in np.linalg.eigvalsh(weight.levi)],
        }
    )
    return 0


def _parse_floats(text, count, flag):
    """Comma-separated floats; exactly ``count`` of them unless it is None."""
    parts = text.split(",")
    if count is not None and len(parts) != count:
        raise SymbolSchemaError(f"{flag} needs {count} comma-separated numbers")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise SymbolSchemaError(f"{flag}: {exc}") from exc


def _grid_counts(values, flag):
    """Grid point counts of a CLI flag as ints; each must be an integer >= 1."""
    if not all(float(v).is_integer() and v >= 1 for v in values):
        raise DomainError(f"{flag} counts must be integers >= 1, got {values}")
    return [int(v) for v in values]


def _coarse_n(N):
    """``coarse_degree`` of the --N flag, with an error that names the flag."""
    if N < 1:
        raise DomainError(f"--N must be >= 1 to have a coarser level, got {N}")
    return coarse_degree(N)


def _cmd_pseudospectrum(args):
    q = parse_symbol_spec(args.symbol)
    coarse_n = _coarse_n(args.N)
    window = _parse_floats(args.window, 4, "--window")
    n_re, n_im = _grid_counts(_parse_floats(args.res, 2, "--res"), "--res")
    # both levels before the first write, so a failure leaves no partial output
    re_axis, im_axis, grid, max_change = pseudospectrum_grid(q, args.h, args.N, window, (n_re, n_im))
    columns = [np.tile(re_axis, n_im), np.repeat(im_axis, n_re), grid.ravel()]
    _write_csv(args.out, ["re", "im", "log10norm"], columns)
    if args.svg:
        with open(args.svg, "w") as f:
            f.write(heat_svg(re_axis, im_axis, grid))
    _emit_json(
        {
            "N": args.N,
            "N_coarse": coarse_n,
            "max_log10_change": max_change,
            "note": QUADRATIC_PROBE_NOTE,
        }
    )
    return 0


def _cmd_resolvent(args):
    q = parse_symbol_spec(args.symbol)
    zre, zim = _parse_floats(args.z, 2, "--z")
    coarse_n = _coarse_n(args.N)
    norm, _, rel = level_pair(q, args.h, args.N, complex(zre, zim))
    _emit_json(
        {
            "z": [zre, zim],
            "norm": norm,
            "log10norm": math.log10(norm),
            "finite": math.isfinite(norm),
            "N": args.N,
            "N_coarse": coarse_n,
            "rel_change": rel,
            "note": QUADRATIC_PROBE_NOTE,
        }
    )
    return 0


def _cmd_probe_theorem(args):
    q = parse_symbol_spec(args.symbol)
    rows, exponent, max_rel, degrees = probe_theorem(
        q, _parse_floats(args.h_list, None, "--h-list"), C0=args.C0, C1=args.C1,
        inner_mult=args.inner_mult, samples=args.samples, seed=args.seed, safety=args.safety,
    )
    h, z, norm = map(np.array, zip(*rows))
    _write_csv(
        args.out,
        ["h", "z_re", "z_im", "norm", "admissible", "fit_exponent"],
        [h, z.real, z.imag, norm, [True] * len(rows), [exponent] * len(rows)],
    )
    _emit_json(
        {
            "fit_exponent": exponent,
            "max_rel_norm_change": max_rel,
            "degrees": {_fmt(h): n for h, n in sorted(degrees.items())},
            "all_finite": all(math.isfinite(r[2]) for r in rows),
            "note": QUADRATIC_PROBE_NOTE,
        }
    )
    return 0


# ---------------------------------------------------------------- driver


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser():
    p = argparse.ArgumentParser(
        prog="dcspec",
        description="Spectra and pseudospectra of quadratic Weyl operators.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("singular-space", help="singular space and averaged positivity")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=_cmd_singular_space)

    sp = sub.add_parser("spectrum", help="spectral lattice points in a disc")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("region", help="admissible-region grid and geometry summary")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--C0", type=float, required=True)
    sp.add_argument("--C1", type=float, required=True)
    sp.add_argument("--inner", type=float, default=None)
    sp.add_argument("--res", type=int, default=101)
    sp.add_argument("--out", default=None)
    sp.add_argument("--svg", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_region)

    sp = sub.add_parser("deform", help="averaging weight, deformed symbol, normalizer")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--delta", type=float, required=True)
    sp.set_defaults(func=_cmd_deform)

    sp = sub.add_parser("phase", help="convert between phases and block maps")
    sp.add_argument("--kappa", default=None)
    sp.add_argument("--phi", default=None)
    sp.set_defaults(func=_cmd_phase)

    sp = sub.add_parser("pseudospectrum", help="log10 resolvent norm grid")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--window", required=True, help="re0,re1,im0,im1")
    sp.add_argument("--res", required=True, help="n_re,n_im")
    sp.add_argument("--out", default=None)
    sp.add_argument("--svg", default=None)
    sp.set_defaults(func=_cmd_pseudospectrum)

    sp = sub.add_parser("resolvent", help="resolvent norm at one point")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--z", required=True, help="re,im")
    sp.set_defaults(func=_cmd_resolvent)

    sp = sub.add_parser("probe-theorem", help="resolvent growth fit over an h ladder")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--C0", type=float, required=True)
    sp.add_argument("--C1", type=float, required=True)
    sp.add_argument("--h-list", required=True, dest="h_list")
    sp.add_argument("--inner-mult", type=float, default=3.0, dest="inner_mult")
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--safety", type=float, default=2.0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_probe_theorem)

    return p


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        _error_line(exc)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
