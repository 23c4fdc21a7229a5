"""One workload in one process: timed passes, traced passes, oracle checks.

Started by run.py with the BLAS thread counts pinned and ``src`` first on
the import path.  Prints one JSON object on its last stdout line.  Usage:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --workdir DIR [--size full|smoke] [--perturb]

--perturb scales the answers the oracles check by 1 + 1e-3 (self-check).
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import speed
import workloads
from run import PINNED_THREADS
from tracing import Tracer, layer_self_total, pass_metrics

# wall_s is a median over at least this many passes, even when the last one
# overruns --seconds (probe_kfp passes take about a third of a 24 s run)
MIN_PASSES = 3
REF_EVERY_S = 2.0


def _timed_passes(wl, budget_s, record, tracer=None, min_passes=1):
    """Run at least ``min_passes`` passes, then stop before the first one
    that would end past ``budget_s``.

    Returns (raw, normalised) pass times; each pass is normalised by the
    mean of the times of the workload's reference kernel just before and
    just after it.
    """
    start = time.perf_counter()
    raw, normalised = [], []
    speed.reference_s(1, wl.reference)  # the first run pays one-time costs; discard it
    ref_before = speed.reference_s(1, wl.reference)
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        try:
            result, error = wl.run_pass(), None
        except Exception:  # a failed pass counts all its ops as failed
            result, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        record(result, error, wall, tracer)
        # about one kernel run per REF_EVERY_S of pass, so that long passes
        # are not scaled by a single short sample
        ref_after = speed.reference_s(max(1, round(wall / REF_EVERY_S)), wl.reference)
        raw.append(wall)
        normalised.append(wall * speed.NOMINAL_S / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
        elapsed = time.perf_counter() - start
        if len(raw) >= min_passes and elapsed + statistics.median(raw) > budget_s:
            return raw, normalised


def perturb_answers(factor=1 + 1e-3):
    """Scale every answer the oracles compare by ``factor``, to prove the gate."""
    targets = ("resolvent_norm", "dist_to_spectrum", "averaged_real_part")
    for name, mod in list(sys.modules.items()):
        if name != "dcspec" and not name.startswith("dcspec."):
            continue
        for attr in targets:
            fn = vars(mod).get(attr)
            if fn is None:
                continue
            if attr == "averaged_real_part":
                def wrapped(*a, _fn=fn, **k):
                    avg = _fn(*a, **k)
                    return type(avg)(avg.T, avg.matrix * factor)
            else:
                def wrapped(*a, _fn=fn, **k):
                    return _fn(*a, **k) * factor
            setattr(mod, attr, wrapped)


def environment():
    """Machine and library facts recorded with every result."""
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--perturb", action="store_true")
    args = p.parse_args(argv)
    return run_workload(args)


def run_workload(args):
    import dcspec
    import dcspec.cli  # noqa: F401  (every workload's tracer binds the cli names)

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(dcspec.__file__).startswith(src + os.sep):
        raise SystemExit(f"dcspec imported from {dcspec.__file__}, not from {src}")
    if args.perturb:
        perturb_answers()
    wl = workloads.make(args.workload, args.seed, args.workdir, args.size)
    # oracle checks run after the timed loops, once per distinct output
    distinct, pass_digests, files = {}, [], {}
    seen = {"untraced": set(), "traced": set()}
    state = {"attempted": 0, "failed": 0, "errors": [], "output_bytes": 0}

    def record(result, error, wall, tracer, phase):
        state["attempted"] += wl.ops
        if error is not None:
            state["failed"] += wl.ops
            state["errors"].append(error)
            return
        outputs = wl.collect(result)
        per, whole = workloads.digest(outputs)
        seen[phase].add(whole)
        files.update(per)
        state["output_bytes"] = wl.output_bytes(outputs)
        distinct.setdefault(whole, (result, outputs))
        pass_digests.append(whole)

    t_start = time.perf_counter()
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    raw, walls = _timed_passes(wl, untraced_budget,
                               lambda r, e, w, t: record(r, e, w, t, "untraced"),
                               min_passes=1 if args.trace else MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "passes": len(walls),
        "pass_raw_s": raw,
        "pass_wall_s": walls,
        "raw_wall_s": statistics.median(raw),
        "wall_s": statistics.median(walls),
        "ops_per_pass": wl.ops,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        tracer = Tracer().install()
        per_pass = []

        def traced_record(result, error, wall, t):
            per_pass.append(pass_metrics(t.spans, t.kernel_calls, wall))
            record(result, error, wall, t, "traced")

        try:
            remaining = args.seconds - (time.perf_counter() - t_start)
            _, traced_walls = _timed_passes(wl, remaining, traced_record, tracer)
        finally:
            tracer.uninstall()
        layers = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace.overhead_frac"] = statistics.median(traced_walls) / out["wall_s"] - 1.0
        layers["cli.output_bytes"] = state["output_bytes"]
        out["layers"] = layers
        out["traced_passes"] = len(traced_walls)
        out["trace_sum_residual_s"] = max(
            abs(layer_self_total(m) + m["trace.unattributed_s"] - m["trace.wall_s"]) for m in per_pass
        )
        out["trace_missing"] = tracer.missing
    verdicts = {d: wl.check(*distinct[d]) for d in distinct}
    state["failed"] += sum(min(verdicts[d].failed, wl.ops) for d in pass_digests)
    max_rel = max((v.max_rel_err for v in verdicts.values()), default=0.0)
    out.update(
        attempted=state["attempted"],
        failed=state["failed"],
        deterministic=len(seen["untraced"] | seen["traced"]) <= 1,
        outputs_sha256=files,
        oracle_max_rel_err=max_rel,
        oracle_notes=[n for v in verdicts.values() for n in v.notes][:20],
        oracle_info={k: val for v in verdicts.values() for k, val in v.info.items()},
        errors=[e.splitlines()[-1] for e in state["errors"]][:5],
        env=environment(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
