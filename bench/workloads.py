"""The four workloads: one timed pass, its outputs, and its oracle check.

A pass is one closed-loop client request.  For the CLI workloads it is
one ``dcspec.cli.run(argv)`` call writing into a temporary directory; for
``phase_space`` it is the library loop over the seeded forms.  The module
attribute ``dcspec.cli.run`` is looked up at call time so that the
tracer's wrapper is the one called in the traced run.
"""

import contextlib
import hashlib
import io

import numpy as np

import inputs
import oracles

# ops per pass, per size
OPS = {
    "pseudo_small": {"full": 2 * 40 * 30, "smoke": 2 * 8 * 6},
    "probe_kfp": {"full": 3 * 10, "smoke": 2 * 3},
    "region_wedge": {"full": 41 * 41, "smoke": 9 * 9},
    "phase_space": {"full": inputs.PHASE_FORMS["full"], "smoke": inputs.PHASE_FORMS["smoke"]},
}


class CliWorkload:
    def __init__(self, name, seed, workdir, size):
        import dcspec

        self.name, self.seed, self.size = name, seed, size
        self.argv, self.files = inputs.cli_argv(name, seed, workdir, size)
        self.symbol_path = dcspec.bundled_symbol_path(inputs.symbol_name(name))
        self.ops = OPS[name][size]
        self.reference = "dense" if name == "probe_kfp" else "mixed"  # speed.py kernel

    def run_pass(self):
        from dcspec import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(self.argv)
        if code != 0:
            raise RuntimeError(f"dcspec {self.argv[0]} exited with {code}")
        return buf.getvalue()

    def collect(self, stdout):
        """Output bytes by name; the stdout summary counts as one output."""
        out = {"stdout": stdout.encode()}
        for key, path in self.files.items():
            with open(path, "rb") as f:
                out[key] = f.read()
        return out

    def output_bytes(self, outputs):
        return sum(len(v) for v in outputs.values())

    def check(self, result, outputs):
        outputs = dict(outputs, stdout=outputs["stdout"].decode())
        if self.name == "pseudo_small":
            return oracles.check_pseudo(self.argv, outputs, self.symbol_path, self.seed)
        if self.name == "probe_kfp":
            return oracles.check_probe(self.argv, outputs, self.symbol_path, self.seed)
        return oracles.check_region(self.argv, outputs, self.symbol_path)


class PhaseSpaceWorkload:
    name = "phase_space"
    reference = "mixed"  # speed.py kernel

    def __init__(self, seed, size):
        self.seed, self.size = seed, size
        self.raw, self.redrawn = inputs.phase_space_draw(seed, size)
        self.items = inputs.phase_space_inputs(self.raw)
        self.ops = OPS["phase_space"][size]

    def run_pass(self):
        import dcspec as dc

        results = []
        for q, bmap in self.items:
            try:
                report = dc.positivity_equivalence_check(q, T=1.0)
                w = dc.weight_gq(q, T=1.0)
                defect = dc.averaging_identity_defect(q, T=1.0)
                delta = dc.delta_max(w) / 2
                kappa = dc.canonical_normalizer(w, delta)
                margin = dc.ellipticity_margin(dc.deformed_symbol(q, w, delta))
                phase = dc.phase_of_kappa(bmap)
                back = dc.kappa_of_phase(phase)
                levi = dc.phi_weight(phase).levi
                canon = dc.canonicity_conditions(back).max()
            except Exception as exc:  # one form failing must not stop the loop
                results.append(f"{type(exc).__name__}: {exc}")
                continue
            results.append({
                "form": q,
                "consistent": report.consistent,
                "s_dim": report.s_dim,
                "min_eigenvalue": report.min_eigenvalue,
                "weight": w.matrix,
                "averaging_defect": defect,
                "delta": delta,
                "kappa": kappa.matrix,
                "margin": margin,
                "kappa_roundtrip": back.matrix,
                "levi": levi,
                "canonicity_max": canon,
            })
        return results

    def collect(self, results):
        """All numeric results serialised at 17 significant digits."""
        parts = []
        for res in results:
            if isinstance(res, str):
                parts.append(res)
                continue
            for key in sorted(res):
                val = res[key]
                if key == "form":
                    continue
                arr = np.atleast_1d(np.asarray(val, dtype=complex)).ravel()
                parts.append(key + ":" + ",".join(
                    f"{v.real:.17g}/{v.imag:.17g}" for v in arr))
        return {"results": "\n".join(parts).encode()}

    def output_bytes(self, outputs):
        return 0  # a library loop: nothing goes through the CLI

    def check(self, result, outputs):
        from dcspec import averaged_real_part

        v = oracles.check_phase_space(self.raw, result, averaged_real_part)
        v.info["forms_redrawn"] = self.redrawn
        return v


def make(name, seed, workdir, size="full"):
    if name == "phase_space":
        return PhaseSpaceWorkload(seed, size)
    return CliWorkload(name, seed, workdir, size)


def digest(outputs):
    """SHA-256 per output, and one over all of them."""
    per = {k: hashlib.sha256(v).hexdigest() for k, v in sorted(outputs.items())}
    whole = hashlib.sha256("".join(per.values()).encode()).hexdigest()
    return per, whole
