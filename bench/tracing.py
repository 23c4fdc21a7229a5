"""Spans and counters for the traced benchmark run, recorded from outside.

The tracer wraps dcspec's public functions and a few numpy/scipy kernel
entry points, and rebinds every name each one is bound under in the dcspec
modules (for example ``dcspec.cli.resolvent_norm`` as well as
``dcspec.weyl.resolvent_norm``).  Functions are found by name in whichever
dcspec module defines them, so a function keeps its metric name when it
moves module.  Spans are kept in memory as (name, parent, start, end, info)
and reduced to per-layer metrics after each pass; a span's self time is its
duration minus the durations of its direct children.  The tracer assumes
the traced code runs on one thread, which the benchmark pins.
"""

import functools
import importlib
import statistics
import sys
import time
from collections import Counter

# metric name -> public function name
SPANS = {
    "weyl.resolvent_norm": "resolvent_norm",
    "weyl.quantize_quadratic": "quantize_quadratic",
    "weyl.pseudospectrum_grid": "pseudospectrum_grid",
    "lattice.lattice_points": "lattice_points",
    "lattice.dist_to_spectrum": "dist_to_spectrum",
    "lattice.admissible": "admissible",
    "lattice.exclusion_discs": "exclusion_discs",
    "lattice.excluded_area_fraction": "excluded_area_fraction",
    "singular.singular_space": "singular_space",
    "singular.averaged_real_part": "averaged_real_part",
    "singular.positivity_equivalence_check": "positivity_equivalence_check",
    "weights.weight_gq": "weight_gq",
    "weights.averaging_identity_defect": "averaging_identity_defect",
    "weights.canonical_normalizer": "canonical_normalizer",
    "cli.run": "run",
    "cli.parse_symbol_spec": "parse_symbol_spec",
    "cli.sample_admissible": "sample_admissible",
}

# layers traced as a whole: every plain function in the module's __all__
WHOLE_LAYERS = ("fbi", "symplectic")

# kernel counter -> (module, attribute) entry points
KERNELS = {
    "svd": [("numpy.linalg", "svd"), ("scipy.linalg", "svd"), ("scipy.linalg", "svdvals")],
    "eig": [("numpy.linalg", n) for n in ("eig", "eigvals", "eigh", "eigvalsh")]
    + [("scipy.linalg", n) for n in ("eig", "eigvals", "eigh", "eigvalsh")],
    "lu": [("scipy.linalg", "lu_factor"), ("scipy.linalg", "lu"), ("scipy.sparse.linalg", "splu")],
    "arpack": [("scipy.sparse.linalg", n) for n in ("eigs", "eigsh", "svds")],
    "expm": [("scipy.linalg", "expm"), ("scipy.sparse.linalg", "expm")],
    "sqrtm": [("scipy.linalg", "sqrtm")],
}


def _storage_bytes(matrix):
    """Bytes held by a dense array or the index/data arrays of a sparse one."""
    if not hasattr(matrix, "nnz"):
        return int(getattr(matrix, "nbytes", 0))
    return sum(
        int(getattr(matrix, a).nbytes)
        for a in ("data", "indices", "indptr", "offsets", "row", "col")
        if hasattr(getattr(matrix, a, None), "nbytes")
    )


def _operator_info(op):
    matrix = getattr(op, "matrix", op)
    return (int(matrix.shape[0]), _storage_bytes(matrix))


# metric name -> function of the wrapped call's result, stored as span info
_INFO = {
    "weyl.quantize_quadratic": _operator_info,
    "lattice.lattice_points": len,
    "cli.sample_admissible": len,
}


def _dcspec_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "dcspec" or n.startswith("dcspec."))]


def _find(func_name):
    """The dcspec function called ``func_name``, wherever it is defined."""
    for mod in _dcspec_modules():
        f = vars(mod).get(func_name)
        if callable(f) and getattr(f, "__module__", "").startswith("dcspec"):
            return f
    return None


class Tracer:
    """Installs span and counter wrappers; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans = []
        self.kernel_calls = Counter()
        self.missing = []
        self._stack = []
        self._undo = []

    def reset(self):
        self.spans.clear()
        self.kernel_calls.clear()

    def _rebind(self, original, wrapper, extra_modules=()):
        for mod in _dcspec_modules() + list(extra_modules):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _span(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = time.perf_counter()
            if info is not None:
                rec[4] = info(out)
            return out

        return wrapper

    def _counter(self, key, fn):
        calls = self.kernel_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for metric, func_name in SPANS.items():
            fn = _find(func_name)
            if fn is None:
                self.missing.append(metric)
                continue
            self._rebind(fn, self._span(metric, fn))
        for layer in WHOLE_LAYERS:
            mod = importlib.import_module(f"dcspec.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type):
                    self._rebind(fn, self._span(layer, fn))
        for key, entries in KERNELS.items():
            for mod_name, attr in entries:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is not None:
                    self._rebind(fn, self._counter(key, fn), extra_modules=(mod,))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def pass_metrics(spans, kernel_calls, wall_s):
    """Per-layer metrics of one traced pass of duration ``wall_s``."""
    n = len(spans)
    child = [0.0] * n
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_s = Counter(), Counter()
    for i, (name, _, t0, t1, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[i]
    root_s = sum(t1 - t0 for _, parent, t0, t1, _ in spans if parent < 0)

    def info(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    resolvent_ms = sorted(1e3 * (s[3] - s[2]) for s in spans if s[0] == "weyl.resolvent_norm")
    ops = info("weyl.quantize_quadratic")
    under_sampler = 0
    for name, parent, *_ in spans:
        if name != "lattice.admissible":
            continue
        while parent >= 0 and spans[parent][0] != "cli.sample_admissible":
            parent = spans[parent][1]
        under_sampler += parent >= 0
    accepted = sum(info("cli.sample_admissible"))

    m = {
        "weyl.resolvent_norm.p50_ms": _quantile(resolvent_ms, 0.5),
        "weyl.resolvent_norm.p90_ms": _quantile(resolvent_ms, 0.9),
        "weyl.operator_n_max": max((o[0] for o in ops), default=0),
        "weyl.operator_bytes_max": max((o[1] for o in ops), default=0),
        "lattice.lattice_points.points_returned": sum(info("lattice.lattice_points")),
        "cli.sample_admissible.accept_ratio": accepted / under_sampler if under_sampler else 0.0,
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - root_s,
    }
    for name in list(SPANS) + list(WHOLE_LAYERS):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for key in KERNELS:
        m[f"kernel.{key}.calls"] = kernel_calls[key]
    return m


def layer_self_total(metrics):
    """Sum of the self times of every traced function and layer."""
    return sum(metrics[f"{name}.self_s"] for name in list(SPANS) + list(WHOLE_LAYERS))
