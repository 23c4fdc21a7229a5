import json
import math
import re

import numpy as np
import pytest

import dcspec as dc
from dcspec.cli import _write_csv, heat_svg, parse_symbol_spec, run
from dcspec.errors import SymbolSchemaError
from conftest import kfp_form


def test_parse_bundled_kfp():
    q = parse_symbol_spec("kfp.json")
    assert np.allclose(q.matrix, kfp_form(1.0).matrix)


def test_parse_bundled_harmonic():
    q = parse_symbol_spec("harmonic.json")
    assert np.allclose(q.matrix, np.eye(2))


def test_package_exports_each_module_all():
    import types

    from dcspec import errors, fbi, lattice, singular, symplectic, weights, weyl

    want = {"bundled_symbol_path"}
    for mod in (errors, symplectic, singular, lattice, weights, fbi, weyl):
        # errors has no __all__: its public names are its exception classes
        want.update(getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")]))
    public = {n: v for n, v in vars(dc).items() if not n.startswith("_")}
    modules = {n for n, v in public.items() if isinstance(v, types.ModuleType)}
    assert all(public[n].__name__ == f"dcspec.{n}" for n in modules)
    assert set(public) - modules == want
    assert dc.multi_indices is weyl.multi_indices


def test_parse_path_with_directory_is_a_file(tmp_path, monkeypatch):
    # a local kfp.json of another dimension: "./kfp.json" is that file, the
    # bare name "kfp.json" the bundled one
    (tmp_path / "kfp.json").write_text(
        '{"dim": 1, "terms": [{"alpha": [2], "beta": [0], "re": 1.0},'
        ' {"alpha": [0], "beta": [2], "re": 2.0}]}'
    )
    monkeypatch.chdir(tmp_path)
    local = parse_symbol_spec("./kfp.json")
    assert local.dim == 1 and np.array_equal(local.matrix, np.diag([1.0, 2.0]))
    assert np.array_equal(parse_symbol_spec("kfp.json").matrix, kfp_form(1.0).matrix)


def test_parse_rejects_wrong_length(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "terms": [{"alpha": [1], "beta": [], "re": 1.0}]}')
    with pytest.raises(SymbolSchemaError):
        parse_symbol_spec(str(bad))


def test_parse_rejects_bad_degree(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "terms": [{"alpha": [1], "beta": [0], "re": 1.0}]}')
    with pytest.raises(SymbolSchemaError):
        parse_symbol_spec(str(bad))


def test_parse_reports_json_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1,\n  "terms": [}')
    with pytest.raises(SymbolSchemaError, match=r"line 2"):
        parse_symbol_spec(str(bad))


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_parse_rejects_non_finite_coefficient(tmp_path, value):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"dim": 1, "terms": [{"alpha": [2], "beta": [0], "re": 1.0, "im": %s},'
        ' {"alpha": [0], "beta": [2], "re": 1.0}]}' % value
    )
    with pytest.raises(SymbolSchemaError, match="not finite"):
        parse_symbol_spec(str(bad))


def test_parse_rejects_overflowing_exponent(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "terms": [{"alpha": [1e400], "beta": [0], "re": 1.0}]}')
    with pytest.raises(SymbolSchemaError, match="malformed"):
        parse_symbol_spec(str(bad))


@pytest.mark.parametrize("term, error", [
    ('{"alpha": [2], "beta": [0], "re": Infinity}', "SymbolSchemaError"),
    # two finite coefficients of one monomial whose sum overflows to inf
    ('{"alpha": [2], "beta": [0], "re": 1e308}, {"alpha": [2], "beta": [0], "re": 1e308}', "DomainError"),
])
def test_cli_non_finite_symbol_exits_2(tmp_path, capsys, term, error):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "terms": [%s, {"alpha": [0], "beta": [2], "re": 1.0}]}' % term)
    out = tmp_path / "out.csv"
    for cmd in (["probe-theorem", "--C0", "0.15", "--C1", "10", "--h-list", "0.1", "--out", str(out)],
                ["spectrum", "--h", "0.1", "--radius", "1"],
                ["resolvent", "--h", "0.1", "--N", "10", "--z", "0.3,0.2"]):
        assert run(cmd + ["--symbol", str(bad)]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == error
    assert not out.exists()


def test_cli_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "terms": [{"alpha": [1], "beta": [], "re": 1.0}]}')
    rc = run(["singular-space", "--symbol", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "SymbolSchemaError"


def test_cli_degenerate_spectrum_exit_code(tmp_path, capsys):
    sym_file = tmp_path / "indefinite.json"
    sym_file.write_text(
        json.dumps(
            {
                "dim": 1,
                "terms": [
                    {"alpha": [2], "beta": [0], "re": 1.0},
                    {"alpha": [0], "beta": [2], "re": -1.0},
                ],
            }
        )
    )
    rc = run(["spectrum", "--symbol", str(sym_file), "--h", "0.1", "--radius", "1"])
    assert rc == 4
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "DegenerateSpectrumError"


def test_cli_numerical_failure_exit_code(capsys, monkeypatch):
    import dcspec.cli as cli
    from dcspec.errors import NumericalFailureError

    def boom(*args, **kwargs):
        raise NumericalFailureError("solver did not converge")

    monkeypatch.setattr(cli, "averaged_real_part", boom)
    assert run(["singular-space", "--symbol", "kfp.json"]) == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "NumericalFailureError"


@pytest.mark.parametrize("command", [["singular-space"], ["deform", "--delta", "0"]])
def test_cli_overflowing_flow_exit_code(tmp_path, capsys, command):
    # x^2 + i x xi at T = 400: the flow exponential overflows.  Exit 3 with
    # one JSON line, nothing on stdout, and no numpy warning (pytest turns
    # a RuntimeWarning into an error)
    sym_file = tmp_path / "hyperbolic.json"
    sym_file.write_text(json.dumps({"dim": 1, "terms": [
        {"alpha": [2], "beta": [0], "re": 1.0},
        {"alpha": [1], "beta": [1], "im": 1.0},
    ]}))
    argv = [command[0], "--symbol", str(sym_file), "--T", "400"] + command[1:]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "NumericalFailureError"
    assert "T = 400" in payload["message"]


def _assert_typed_exit_3(argv, capsys, words):
    """Exit 3 with one JSON line naming ``words`` on stderr and nothing on stdout."""
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "NumericalFailureError"
    assert words in payload["message"]


@pytest.mark.parametrize("T", ["200", "300"])
def test_cli_overflowing_averaging_defect_exit_code(tmp_path, capsys, T):
    # x^2 + i x xi: the flow exponential is finite below T = 355, but the
    # norm of the averaging identity's terms overflows; no Infinity is printed
    sym_file = tmp_path / "hyperbolic.json"
    sym_file.write_text(json.dumps({"dim": 1, "terms": [
        {"alpha": [2], "beta": [0], "re": 1.0},
        {"alpha": [1], "beta": [1], "im": 1.0},
    ]}))
    argv = ["deform", "--symbol", str(sym_file), "--T", T, "--delta", "0"]
    _assert_typed_exit_3(argv, capsys, f"T = {float(T)}")


def test_cli_overflowing_delta_squared_exit_code(tmp_path, capsys):
    # 1e-240 (x + xi)^2: H_G is nilpotent, so delta_max is inf, and 1e200
    # squares past the float range
    sym_file = tmp_path / "tiny.json"
    sym_file.write_text(json.dumps({"dim": 1, "terms": [
        {"alpha": [2], "beta": [0], "re": 1e-240},
        {"alpha": [1], "beta": [1], "re": 2e-240},
        {"alpha": [0], "beta": [2], "re": 1e-240},
    ]}))
    assert dc.delta_max(dc.weight_gq(parse_symbol_spec(str(sym_file)))) == math.inf
    delta = 1e200
    argv = ["deform", "--symbol", str(sym_file), "--delta", repr(delta)]
    _assert_typed_exit_3(argv, capsys, f"delta = {delta!r}")


def test_cli_lapack_failure_exit_code(capsys, monkeypatch):
    import dcspec.cli as cli

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("Internal error in sqrtm")

    monkeypatch.setattr(cli, "canonical_normalizer", boom)
    assert run(["deform", "--symbol", "kfp.json", "--delta", "0.05"]) == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "LinAlgError"


def test_cli_untyped_error_propagates(capsys, monkeypatch):
    # a plain ValueError is an internal error: no exit code, no JSON line
    import dcspec.cli as cli

    def boom(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "averaged_real_part", boom)
    with pytest.raises(ValueError, match="internal"):
        run(["singular-space", "--symbol", "kfp.json"])
    assert capsys.readouterr().err == ""


_ALL_BAD = ("nan", "inf", "0", "-1")
_NONNEG_BAD = ("nan", "inf", "-1")  # 0 is a valid value of these flags
_BASE_ARGV = {
    "singular-space": ["--symbol", "kfp.json"],
    "spectrum": ["--symbol", "harmonic.json", "--h", "0.1", "--radius", "1"],
    "region": ["--symbol", "wedge_model.json", "--h", "0.05", "--C0", "0.1047", "--C1", "10",
               "--inner", "0.15", "--res", "9"],
    "deform": ["--symbol", "kfp.json", "--delta", "0.05"],
    "pseudospectrum": ["--symbol", "harmonic.json", "--h", "0.1", "--N", "8",
                       "--window", "0,1,0,1", "--res", "3,3"],
    "resolvent": ["--symbol", "harmonic.json", "--h", "0.1", "--N", "8", "--z", "0.2,0"],
    "probe-theorem": ["--symbol", "kfp.json", "--C0", "0.15", "--C1", "10", "--h-list", "0.2",
                      "--samples", "2"],
}
_BAD_VALUES = {
    "singular-space": {"--T": _ALL_BAD, "--tol": _NONNEG_BAD},
    "spectrum": {"--h": _ALL_BAD, "--radius": _NONNEG_BAD},
    "region": {"--h": _ALL_BAD, "--C0": _ALL_BAD, "--C1": _ALL_BAD, "--inner": _NONNEG_BAD,
               "--res": ("0", "-1"), "--seed": ("-1",)},
    "deform": {"--T": _ALL_BAD, "--delta": _NONNEG_BAD},
    "pseudospectrum": {"--h": _ALL_BAD, "--N": ("0", "-1"),
                       "--window": ("nan,1,0,1", "0,inf,0,1"), "--res": ("nan,3", "0,3")},
    "resolvent": {"--h": _ALL_BAD, "--N": ("0", "-1"), "--z": ("nan,0", "0,inf")},
    "probe-theorem": {"--C0": _ALL_BAD, "--C1": _ALL_BAD, "--h-list": _ALL_BAD,
                      "--inner-mult": _NONNEG_BAD, "--samples": ("0", "-1"),
                      "--seed": ("-1",), "--safety": _ALL_BAD},
}


@pytest.mark.parametrize(
    "command, flag, value",
    [(c, f, v) for c, flags in _BAD_VALUES.items() for f, vals in flags.items() for v in vals],
)
def test_cli_bad_numeric_flag_is_domain_error(capsys, command, flag, value):
    argv = [command] + _BASE_ARGV[command]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no partial CSV or summary before the error
    payload = json.loads(captured.err.strip().splitlines()[-1])
    assert payload["error"] == "DomainError"
    if flag == "--window":  # rejected before the grid is built: no warning, only the JSON line
        assert len(captured.err.strip().splitlines()) == 1
        assert "window" in payload["message"]


@pytest.mark.parametrize("command, flag", [("spectrum", "--h"), ("region", "--C0")])
def test_cli_huge_lattice_enumeration_is_domain_error(capsys, command, flag):
    # radius / h near 1e300 overflows every per-coordinate count
    argv = [command] + _BASE_ARGV[command]
    argv[argv.index(flag) + 1] = "1e-300"
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err.strip().splitlines()[-1])
    assert payload["error"] == "DomainError"
    assert "lattice enumeration" in payload["message"]


def test_cli_bad_numeric_flag_base_argv_runs(capsys):
    # the sweep above changes one flag of argument vectors that succeed
    for command, argv in _BASE_ARGV.items():
        assert run([command] + argv) == 0


def test_cli_run_builds_its_parser_once(capsys, monkeypatch):
    # two in-process commands parse with one parser object
    import argparse

    parsers = []
    real = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for command in ("spectrum", "resolvent"):
        assert run([command] + _BASE_ARGV[command]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


@pytest.mark.parametrize("flag", ["--phi", "--kappa"])
@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"dim": 1, "xx": [[[1e400, 0]]], "xy": [[[0, -1]]], "yy": [[[0, 1]]],'
    ' "A": [[[1e400, 0]]], "B": [[[0, -1]]], "C": [[[0, 0]]], "D": [[[1, 0]]]}',
])
def test_cli_phase_rejects_malformed_block_file(tmp_path, capsys, flag, text):
    f = tmp_path / "blocks.json"
    f.write_text(text)
    assert run(["phase", flag, str(f)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "SymbolSchemaError"


def test_cli_probe_theorem_rejects_malformed_h_list(capsys):
    argv = ["probe-theorem", "--symbol", "kfp.json", "--C0", "0.15", "--C1", "10"]
    for h_list in ("0.2,abc", "0.2,"):
        assert run(argv + ["--h-list", h_list]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "SymbolSchemaError"


def test_cli_probe_theorem_empty_annulus_fails_at_once(capsys):
    # --inner-mult 100 puts the inner radius (100 h) above the outer one
    # (h F(h), about 7 h): exit 2 with DomainError before any draw, where
    # the sampler used to spin through all of its draws
    import time

    argv = ["probe-theorem", "--symbol", "kfp.json", "--C0", "0.15", "--C1", "10",
            "--h-list", "0.1", "--samples", "5", "--inner-mult", "100"]
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 5
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "DomainError"
    assert "inner radius" in payload["message"] and "outer radius" in payload["message"]


def test_cli_singular_space_kfp(capsys):
    assert run(["singular-space", "--symbol", "kfp.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["s_dim"] == 0
    assert out["min_avg_eigenvalue"] > 0


def test_cli_singular_space_degenerate(capsys):
    assert run(["singular-space", "--symbol", "family_degenerate.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["s_dim"] == 1
    v = np.array(out["basis"][0])
    assert np.allclose(np.abs(v), [0, 1, 0, 0], atol=1e-9)


def test_cli_spectrum_harmonic(capsys):
    assert run(["spectrum", "--symbol", "harmonic.json", "--h", "0.1", "--radius", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "re,im,multiplicity"
    assert len(lines) == 6
    values = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert np.allclose(values, [0.1, 0.3, 0.5, 0.7, 0.9])
    # a disc holding no lattice value gives the header alone
    assert run(["spectrum", "--symbol", "harmonic.json", "--h", "0.1", "--radius", "0.05"]) == 0
    assert capsys.readouterr().out == "re,im,multiplicity\n"


def test_cli_spectrum_deterministic(capsys):
    args = ["spectrum", "--symbol", "wedge_model.json", "--h", "0.05", "--radius", "0.8"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    # floats round-trip through 17 significant digits
    for token in first.strip().splitlines()[1].split(",")[:2]:
        assert float(format(float(token), ".17g")) == float(token)


def region_args(tmp_path, svg=False):
    grid = tmp_path / "grid.csv"
    args = [
        "region",
        "--symbol",
        "wedge_model.json",
        "--h",
        "0.05",
        "--C0",
        str(math.log(math.log(1 / 0.05)) ** 0.5 / 10.0),
        "--C1",
        "10",
        "--inner",
        "0.15",
        "--res",
        "41",
        "--out",
        str(grid),
    ]
    if svg:
        args += ["--svg", str(tmp_path / "region.svg")]
    return args, grid


def test_cli_region_grid_and_summary(tmp_path, capsys):
    args, grid = region_args(tmp_path)
    assert run(args) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["F_of_h"] == pytest.approx(10.0, rel=1e-12)
    assert 0 <= summary["excluded_area_fraction"] < 1
    assert summary["disc_count"] > 0
    lines = grid.read_text().strip().splitlines()
    assert lines[0] == "re,im,admissible,dist,reason"
    assert len(lines) == 1 + 41 * 41
    # spot-check a row against the library
    q = parse_symbol_spec("wedge_model.json")
    spec = dc.stable_eigenvalues(dc.hamilton_map(q))
    region = dc.RegionSpec.with_f_value(0.05, 10.0, 10.0, 2, inner_radius=0.15)
    for ln in lines[1:50]:
        re_s, im_s, adm_s, dist_s, reason = ln.split(",")
        verdict = dc.admissible(region, spec, complex(float(re_s), float(im_s)))
        assert verdict.admissible == (adm_s == "1")
        assert verdict.reason == reason


def test_cli_region_svg_disc_count(tmp_path, capsys):
    args, _ = region_args(tmp_path, svg=True)
    assert run(args) == 0
    summary = json.loads(capsys.readouterr().out)
    svg = (tmp_path / "region.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count('class="exclusion"') == summary["disc_count"]
    assert svg.count('class="lattice"') == summary["disc_count"]


def _src_env(**extra):
    """Environment of a fresh interpreter that imports dcspec from this tree."""
    import os
    from pathlib import Path

    src = str(Path(dc.__file__).resolve().parents[1])
    return dict(
        os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **extra
    )


def cli_outputs_in_fresh_interpreters(tmp_path, make_args):
    """Bytes written by ``python -m dcspec.cli`` in two separate processes.

    ``make_args(out_dir)`` returns (argv, output paths) for one run; each
    run gets its own directory and one BLAS thread.  Returns, per run, the
    bytes of every output file followed by stdout.
    """
    import subprocess
    import sys

    env = _src_env(OPENBLAS_NUM_THREADS="1")
    outputs = []
    for run_idx in range(2):
        out_dir = tmp_path / f"run{run_idx}"
        out_dir.mkdir()
        args, paths = make_args(out_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "dcspec.cli", *args],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(tuple(p.read_bytes() for p in paths) + (proc.stdout,))
    return outputs


def test_cli_region_byte_identical_across_processes(tmp_path):
    # byte-determinism at a fixed BLAS thread count, in fresh interpreters
    def make_args(out_dir):
        args, grid = region_args(out_dir, svg=True)
        return args, [grid, out_dir / "region.svg"]

    outputs = cli_outputs_in_fresh_interpreters(tmp_path, make_args)
    assert outputs[0] == outputs[1]


def test_cli_pseudospectrum_byte_identical_across_processes(tmp_path):
    # davies h 0.05 over the benchmark's window, 240 shifts: both blocks of
    # N = 100 (51 and 50) and the 46-block of N = 90 take the Schur engine,
    # the 45-block batched SVDs; CSV, SVG and stdout are byte-identical
    from dcspec.weyl import _engine

    shifts = 20 * 12
    engines = []
    for N in (100, 90):
        op = dc.quantize_quadratic(parse_symbol_spec("davies.json"), dc.HermiteTruncation(1, N, 0.05))
        engines += [_engine(b, shifts) for _, b in op.blocks]
    assert engines == ["schur", "schur", "schur", "dense"]

    def make_args(out_dir):
        csv_path, svg_path = out_dir / "grid.csv", out_dir / "heat.svg"
        args = ["pseudospectrum", "--symbol", "davies.json", "--h", "0.05", "--N", "100",
                "--window", "0,3,-0.5,2", "--res", "20,12", "--out", str(csv_path),
                "--svg", str(svg_path)]
        return args, [csv_path, svg_path]

    outputs = cli_outputs_in_fresh_interpreters(tmp_path, make_args)
    assert outputs[0] == outputs[1]


def test_cli_deform_kfp(capsys):
    assert run(["deform", "--symbol", "kfp.json", "--T", "1", "--delta", "0.05"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ellipticity_margin"] > 0
    assert out["symplectic_defect"] < 1e-10
    assert out["averaging_defect"] < 1e-8
    assert out["delta_max"] > 0.1


def test_cli_phase_roundtrip(tmp_path, capsys):
    I = [[[0.0, 1.0]]]  # 1x1 matrix [i]
    phi = {"dim": 1, "xx": I, "xy": [[[0.0, -1.0]]], "yy": I}
    f = tmp_path / "phi.json"
    f.write_text(json.dumps(phi))
    assert run(["phase", "--phi", str(f)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"dim", "kappa", "canonicity_defects", "symplectic_defect",
                        "levi_eigenvalues"}
    assert out["kappa"]["B"] == [[[0.0, -1.0]]]
    assert out["kappa"]["A"] == [[[1.0, 0.0]]]
    assert max(out["canonicity_defects"]) < 1e-12
    assert out["symplectic_defect"] < 1e-12
    assert out["levi_eigenvalues"] == [0.25]

    kap = {"dim": 1, "A": [[[1.0, 0.0]]], "B": [[[0.0, -1.0]]],
           "C": [[[0.0, 0.0]]], "D": [[[1.0, 0.0]]]}
    f2 = tmp_path / "kappa.json"
    f2.write_text(json.dumps(kap))
    assert run(["phase", "--kappa", str(f2)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"dim", "phase", "canonicity_defects", "symplectic_defect",
                        "levi_eigenvalues"}
    assert out["phase"] == {"xx": I, "xy": [[[0.0, -1.0]]], "yy": I}
    assert len(out["canonicity_defects"]) == 3
    assert max(out["canonicity_defects"]) < 1e-12
    assert out["symplectic_defect"] < 1e-12
    assert out["levi_eigenvalues"] == [0.25]


def test_cli_phase_singular_block(tmp_path, capsys):
    kap = {"dim": 1, "A": [[[1.0, 0.0]]], "B": [[[0.0, 0.0]]],
           "C": [[[0.0, 0.0]]], "D": [[[1.0, 0.0]]]}
    f = tmp_path / "kappa.json"
    f.write_text(json.dumps(kap))
    assert run(["phase", "--kappa", str(f)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "SingularBlockError"


def test_cli_phase_requires_exactly_one_input(capsys):
    assert run(["phase"]) == 2


def test_cli_resolvent(capsys):
    rc = run(
        ["resolvent", "--symbol", "harmonic.json", "--h", "0.1", "--N", "20", "--z", "0.2,0"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm"] == pytest.approx(10.0, rel=1e-9)
    assert out["finite"] is True
    assert out["rel_change"] < 1e-9


@pytest.mark.parametrize("h, z", [("inf", "1,0"), ("nan", "1,0"), ("0.1", "nan,0"), ("0.1", "1,inf")])
@pytest.mark.parametrize("symbol", ["davies.json", "kfp.json"])  # n = 31 dense, 496 sparse
def test_cli_resolvent_rejects_non_finite_h_and_z(capsys, symbol, h, z):
    argv = ["resolvent", "--symbol", symbol, "--h", h, "--N", "30", "--z", z]
    assert run(argv) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "DomainError"
    assert ("h must" if h != "0.1" else "z must") in payload["message"]


def _smallest_block(N):
    """Size of the smallest block of the davies operator at degree N, h = 1."""
    op = dc.quantize_quadratic(parse_symbol_spec("davies.json"), dc.HermiteTruncation(1, N, 1.0))
    return min(len(idx) for idx, _ in op.blocks)


def test_cli_sparse_blocks_run_without_arpack(capsys, monkeypatch):
    # blocks above the cutoff run the shared Lanczos recurrence on SuperLU solves,
    # so a broken ARPACK changes nothing
    import scipy.sparse.linalg as spla
    from dcspec.weyl import DENSE_SVD_CUTOFF

    def fail(*args, **kwargs):
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(spla, "eigsh", fail)
    assert _smallest_block(300) > DENSE_SVD_CUTOFF  # blocks 151 and 150 reach the sparse engine
    argv = ["resolvent", "--symbol", "davies.json", "--h", "1", "--N", "300", "--z", "2,0.5"]
    assert run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    op = dc.quantize_quadratic(parse_symbol_spec("davies.json"), dc.HermiteTruncation(1, 300, 1.0))
    M = op.matrix.toarray() - complex(2, 0.5) * np.eye(op.trunc.size)
    want = 1.0 / np.linalg.svd(M, compute_uv=False)[-1]
    assert out["norm"] == pytest.approx(want, rel=1e-10)


def test_cli_superlu_failure_exit_code(capsys, monkeypatch):
    # a SuperLU error other than an exactly singular factor is a numerical
    # failure (exit 3), not a traceback
    import scipy.sparse.linalg as spla
    from dcspec.weyl import DENSE_SVD_CUTOFF

    def fail(*args, **kwargs):
        raise RuntimeError("Not enough memory to perform factorization.")

    monkeypatch.setattr(spla, "splu", fail)
    assert _smallest_block(300) > DENSE_SVD_CUTOFF
    argv = ["resolvent", "--symbol", "davies.json", "--h", "1", "--N", "300", "--z", "2,0.5"]
    assert run(argv) == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "NumericalFailureError"
    assert "SuperLU" in payload["message"]


def test_cli_coarse_level_below_small_n(capsys):
    argv = ["resolvent", "--symbol", "harmonic.json", "--h", "0.1", "--z", "0.3,0.2"]
    assert run(argv + ["--N", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["N"], out["N_coarse"]) == (2, 1)
    assert out["finite"] is True

    for cmd in (argv, ["pseudospectrum", "--symbol", "harmonic.json", "--h", "0.1",
                       "--window", "0,1,0,0", "--res", "2,1"]):
        assert run(cmd + ["--N", "0"]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {"error": "DomainError", "message": "--N must be >= 1 to have a coarser level, got 0"}


def test_cli_import_skips_scipy_optimize():
    # neither scipy.optimize nor the sparse solvers nor the block split's
    # graph routines load with the CLI
    import subprocess
    import sys

    code = (
        "import sys, dcspec.cli; print([m in sys.modules for m in "
        "('scipy.optimize', 'scipy.sparse.linalg', 'scipy.sparse.csgraph')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False]"


def test_cli_pseudospectrum_grid_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    svg_path = tmp_path / "heat.svg"
    rc = run(
        [
            "pseudospectrum",
            "--symbol",
            "harmonic.json",
            "--h",
            "0.1",
            "--N",
            "20",
            "--window",
            "0.12,0.18,0,0",
            "--res",
            "7,1",
            "--out",
            str(csv_path),
            "--svg",
            str(svg_path),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_log10_change"] < 1e-9
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "re,im,log10norm"
    assert len(lines) == 8
    # shading grows monotonically darker toward the eigenvalue at 0.1
    svg = svg_path.read_text()
    shades = [int(m, 16) for m in re.findall(r'fill="#([0-9a-f]{2})[0-9a-f]{4}"', svg)]
    assert shades == sorted(shades)  # darkest (smallest) near 0.11, brightening away


@pytest.mark.parametrize("command, flag, value", [
    (["pseudospectrum", "--symbol", "harmonic.json", "--h", "0.1", "--N", "8", "--res", "3,2"],
     "--window", "-1,1,-1,1"),
    (["resolvent", "--symbol", "harmonic.json", "--h", "0.1", "--N", "8"], "--z", "-0.5,0.1"),
])
def test_cli_negative_comma_list_takes_equals_form(capsys, command, flag, value):
    # argparse reads a value starting with "-" as a flag unless "=" joins it on
    assert run(command + [f"{flag}={value}"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["N"] == 8
    with pytest.raises(SystemExit) as exc:
        run(command + [flag, value])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("res", ["0,3", "3,0", "0.5,3", "2.7,3", "3,-1", "inf,3", "nan,3"])
def test_cli_pseudospectrum_rejects_empty_or_unbounded_grid(tmp_path, capsys, res):
    csv_path = tmp_path / "grid.csv"
    argv = ["pseudospectrum", "--symbol", "harmonic.json", "--h", "0.1", "--N", "8",
            "--window", "0,1,0,1", "--res", res, "--out", str(csv_path)]
    assert run(argv) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "DomainError"
    assert not csv_path.exists()


def test_cli_pseudospectrum_coarse_failure_leaves_no_output(tmp_path, capsys, monkeypatch):
    # weyl.level_pair computes the coarse level first, so the second
    # resolvent_norm call fails after one level has succeeded
    from dcspec import weyl
    from dcspec.errors import NumericalFailureError

    calls = []
    real = weyl.resolvent_norm

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericalFailureError("second level failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(weyl, "resolvent_norm", fail_second)
    csv_path, svg_path = tmp_path / "grid.csv", tmp_path / "heat.svg"
    argv = ["pseudospectrum", "--symbol", "harmonic.json", "--h", "0.1", "--N", "8",
            "--window", "0,1,0,1", "--res", "3,2", "--out", str(csv_path), "--svg", str(svg_path)]
    assert run(argv) == 3
    assert len(calls) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "NumericalFailureError"
    assert not csv_path.exists() and not svg_path.exists()


def test_cli_pseudospectrum_lanczos_step_bound_exit_code(tmp_path, capsys, monkeypatch):
    # the Schur engine's Lanczos (blocks 51 and 50, 210 shifts, so both
    # blocks meet shifts * m^2 >= SCHUR_MIN_WORK) with a residual tolerance
    # of 0 reaches its step bound: exit 3, one JSON line on stderr, and no
    # CSV or SVG
    from dcspec import weyl

    monkeypatch.setattr(weyl, "_LANCZOS_TOL", 0.0)
    csv_path, svg_path = tmp_path / "grid.csv", tmp_path / "heat.svg"
    argv = ["pseudospectrum", "--symbol", "davies.json", "--h", "0.05", "--N", "100",
            "--window", "0,3,-0.5,2", "--res", "15,14", "--out", str(csv_path),
            "--svg", str(svg_path)]
    _assert_typed_exit_3(argv, capsys, "unconverged after")
    assert not csv_path.exists() and not svg_path.exists()


def per_cell_csv(header, columns):
    """The CSV text of a per-cell renderer over rows of Python values: the
    oracle for the column-wise _write_csv."""
    def render(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return format(float(v), ".17g")
        return str(v)

    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    lines = [",".join(header)]
    lines.extend(",".join(render(v) for v in row) for row in zip(*cols))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_cell_renderer(tmp_path, capsys):
    floats = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
              0.1, 0.1, -0.0, 1 / 3, 0.0, -2.5e-300, 5e-324]
    n = len(floats)
    rng = np.random.default_rng(5)
    columns = [
        np.array(floats),
        floats,  # a list of Python floats
        np.tile(rng.standard_normal(3), 5)[:n],  # repeated values
        [int(v) for v in rng.integers(1, 10**12, n)],  # Python ints, like multiplicities
        rng.random(n) < 0.5,  # a numpy bool array
        [True, False] * (n // 2),  # Python bools
        np.array(["", "outer bound", "exclusion disc", "inner bound"] * 4)[:n],  # <U strings
    ]
    header = [f"c{j}" for j in range(len(columns))]
    path = tmp_path / "t.csv"
    _write_csv(str(path), header, columns)
    assert path.read_bytes() == per_cell_csv(header, columns).encode()
    _write_csv(None, header, columns)
    assert capsys.readouterr().out == per_cell_csv(header, columns)
    empty = [np.zeros(0), [], np.zeros(0, dtype=bool), np.array([], dtype="<U3")]
    _write_csv(str(path), header[:4], empty)
    assert path.read_bytes() == per_cell_csv(header[:4], empty).encode() == b"c0,c1,c2,c3\n"


def test_cli_probe_theorem_small(tmp_path, capsys):
    csv_path = tmp_path / "probe.csv"
    rc = run(
        [
            "probe-theorem",
            "--symbol",
            "kfp.json",
            "--C0",
            "0.15",
            "--C1",
            "10",
            "--h-list",
            "0.2,0.1",
            "--samples",
            "3",
            "--seed",
            "0",
            "--out",
            str(csv_path),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["all_finite"] is True
    assert "note" in summary
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "h,z_re,z_im,norm,admissible,fit_exponent"
    assert len(lines) == 1 + 2 * 3
    exps = {ln.split(",")[-1] for ln in lines[1:]}
    assert len(exps) == 1


def test_cli_probe_theorem_deterministic(tmp_path, capsys):
    outs = []
    for run_idx in range(2):
        csv_path = tmp_path / f"probe{run_idx}.csv"
        rc = run(
            [
                "probe-theorem",
                "--symbol",
                "kfp.json",
                "--C0",
                "0.15",
                "--C1",
                "10",
                "--h-list",
                "0.2",
                "--samples",
                "2",
                "--seed",
                "7",
                "--out",
                str(csv_path),
            ]
        )
        assert rc == 0
        outs.append((csv_path.read_bytes(), capsys.readouterr().out))
    assert outs[0] == outs[1]


def test_cli_probe_theorem_byte_identical_across_processes(tmp_path):
    # the batched SVDs of kfp's degree shells (n >= 325 here) are
    # reproducible across processes
    def make_args(out_dir):
        csv_path = out_dir / "probe.csv"
        args = ["probe-theorem", "--symbol", "kfp.json", "--C0", "0.15", "--C1", "10",
                "--h-list", "0.2,0.1", "--samples", "3", "--seed", "0", "--out", str(csv_path)]
        return args, [csv_path]

    outputs = cli_outputs_in_fresh_interpreters(tmp_path, make_args)
    assert outputs[0] == outputs[1]


def test_cli_readme_probe_theorem_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # the README's probe-theorem runs batched SVDs, band Cholesky and
    # eigvalsh, never the Schur engine, whose threaded zgemv row products
    # are what a BLAS thread count changes: its CSV and summary keep their bytes
    import subprocess
    import sys

    args = ["probe-theorem", "--symbol", "kfp.json", "--C0", "0.15", "--C1", "10",
            "--h-list", "0.2,0.1,0.05,0.025", "--samples", "20"]
    outputs = []
    for threads in ("1", "2"):
        csv_path = tmp_path / f"probe{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "dcspec.cli", *args, "--out", str(csv_path)],
            capture_output=True,
            env=_src_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((csv_path.read_bytes(), proc.stdout))
    assert outputs[0] == outputs[1]


def test_export_svg_empty():
    svg = heat_svg(np.zeros(0), np.zeros(0), np.zeros((0, 0)))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def per_row_heat_svg(rows):
    """The SVG of a renderer over (re, im, log10norm) rows that rebuilds the
    axes from the rows: the oracle for the grid-based heat_svg."""
    from dcspec.cli import SVG_SIZE, _svg_document

    res = sorted({float(r[0]) for r in rows})
    ims = sorted({float(r[1]) for r in rows})
    finite = [float(r[2]) for r in rows if math.isfinite(float(r[2]))]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 1.0
    span = hi - lo if hi > lo else 1.0
    w = SVG_SIZE / max(len(res), 1)
    hh = SVG_SIZE / max(len(ims), 1)
    col = {v: i for i, v in enumerate(res)}
    rowi = {v: i for i, v in enumerate(ims)}
    parts = []
    for re_, im, val in rows:
        v = float(val)
        t = 1.0 if not math.isfinite(v) else (v - lo) / span
        shade = int(round(255 * (1.0 - t)))
        x = col[float(re_)] * w
        y = (len(ims) - 1 - rowi[float(im)]) * hh
        parts.append(
            f'<rect x="{x:.6g}" y="{y:.6g}" width="{w:.6g}" height="{hh:.6g}" '
            f'fill="#{shade:02x}{shade:02x}{shade:02x}"/>'
        )
    return _svg_document(parts)


_HEAT_AXES = {
    "ascending": (np.linspace(0, 3, 5), np.linspace(-0.5, 2, 4)),
    "descending": (np.linspace(3, 0, 5), np.linspace(2, -0.5, 4)),
    "zero-width": (np.linspace(1, 1, 4), np.linspace(-1, 1, 3)),
    "signed-zero": (np.linspace(-0.0, 1, 3), np.linspace(0.0, -0.0, 2)),
    "1x1": (np.linspace(0.5, 0.5, 1), np.linspace(0.2, 0.2, 1)),
    "empty": (np.zeros(0), np.zeros(0)),
}


@pytest.mark.parametrize("values", ["finite", "all-inf", "mixed-inf"])
@pytest.mark.parametrize("axes", list(_HEAT_AXES))
def test_heat_svg_matches_per_row_renderer(axes, values):
    re_axis, im_axis = _HEAT_AXES[axes]
    L = np.random.default_rng(3).uniform(-2, 5, (im_axis.size, re_axis.size))
    if values == "all-inf":
        L[:] = math.inf
    elif values == "mixed-inf":
        L.ravel()[::2] = math.inf
    rows = zip(np.tile(re_axis, im_axis.size), np.repeat(im_axis, re_axis.size), L.ravel())
    assert heat_svg(re_axis, im_axis, L) == per_row_heat_svg(list(rows))


def test_console_script_installed():
    import subprocess

    proc = subprocess.run(
        ["dcspec", "singular-space", "--symbol", "kfp.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["s_dim"] == 0


def _strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no Infinity or NaN."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_cli_summary_json_is_strict_for_infinite_delta_max(capsys, tmp_path):
    # x^2 has a nilpotent H_G, so every delta is admissible: delta_max = inf
    sym = tmp_path / "x2.json"
    sym.write_text('{"dim":1,"terms":[{"alpha":[2],"beta":[0],"re":1.0,"im":0.0}]}')
    assert run(["deform", "--symbol", str(sym), "--delta", "0.1"]) == 0
    assert _strict_json(capsys.readouterr().out)["delta_max"] == "inf"


def test_cli_summary_json_is_strict_for_no_finite_change(capsys):
    # a one-point grid on an eigenvalue: no point is finite at both levels
    argv = ["pseudospectrum", "--symbol", "harmonic.json", "--h", "0.1", "--N", "20",
            "--window=0.1,0.1,0,0", "--res", "1,1"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert _strict_json(out.splitlines()[-1])["max_log10_change"] == "inf"


def test_cli_summary_json_is_strict_for_undefined_fit(capsys):
    # one h gives no growth exponent: fit_exponent = nan
    argv = ["probe-theorem", "--symbol", "kfp.json", "--C0", "0.15", "--C1", "10",
            "--h-list", "0.2", "--samples", "1"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert _strict_json(out.splitlines()[-1])["fit_exponent"] == "nan"
