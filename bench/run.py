"""dcspec benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout and builds nothing: the program is
imported from ``src``.  Each workload runs in a fresh worker process with
every BLAS/OpenMP thread count pinned to 1; ``setup_s`` is the median of
several fresh interpreters importing ``dcspec.cli`` and parsing the
workload's input.  Times are normalised to a nominal machine speed by
``speed.py``; the raw times are in the record.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of the traced
run; the line before it records the environment, output hashes and
per-pass times.  ``all`` runs every workload and prints each metric by
name with its unit.  See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DCSPEC_THREADS")
WORKLOADS = ("pseudo_small", "probe_kfp", "region_wedge", "phase_space")
SETUP_REPEATS = 7
DEADLINE_S = 170  # the whole run, set-up included, ends within this

SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
n0 = len(sys.modules)
import dcspec.cli
n1 = len(sys.modules)
opt = int("scipy.optimize" in sys.modules)
import inputs
inputs.setup(sys.argv[1], int(sys.argv[2]))
t1 = time.perf_counter()
import speed
ref = speed.reference_s()
print(json.dumps({"raw_s": t1 - t0, "setup_s": (t1 - t0) * speed.NOMINAL_S / ref,
                  "modules_loaded": n1 - n0, "scipy_optimize_loaded": opt}))
"""


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), BENCH])
    return env


def _last_json_line(proc, what):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{what} failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _run_child(argv, what, timeout):
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"{what} timed out after {exc.timeout:.0f} s") from exc
    return _last_json_line(proc, what)


def measure_setup(workload, seed, deadline):
    runs = [
        _run_child([sys.executable, "-c", SETUP_SNIPPET, workload, str(seed)], "set-up",
                   deadline - time.monotonic())
        for _ in range(SETUP_REPEATS)
    ]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "setup_samples_s": [r["setup_s"] for r in runs],
        "setup_raw_samples_s": [r["raw_s"] for r in runs],
        "import.modules_loaded": runs[0]["modules_loaded"],
        "import.scipy_optimize_loaded": runs[0]["scipy_optimize_loaded"],
    }


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_one(workload, seed, seconds, trace):
    """(result line, record) for one workload run."""
    deadline = time.monotonic() + DEADLINE_S
    end_to_end, per_layer = declared_metrics()
    setup = measure_setup(workload, seed, deadline)
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    try:
        worker = _run_child(
            [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", workdir],
            f"worker {workload}", deadline - time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    if trace:
        values = dict(worker["layers"])
        values.update({k: setup[k] for k in ("import.modules_loaded", "import.scipy_optimize_loaded")})
        values["oracle.max_rel_err"] = worker["oracle_max_rel_err"]
        values["oracle.ops_failed_frac"] = worker["failed"] / worker["attempted"]
        declared = per_layer
    else:
        values = {
            "wall_s": worker["wall_s"],
            "ops_per_s": worker["ops_per_pass"] / worker["wall_s"],
            "setup_s": setup["setup_s"],
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        declared = end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": worker["failed"] == 0 and worker["deterministic"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    record = {k: v for k, v in worker.items() if k != "layers"}
    record.update(commit=git_commit(), setup_samples_s=setup["setup_samples_s"],
                  setup_raw_samples_s=setup["setup_raw_samples_s"], trace=trace,
                  ops_failed_frac=worker["failed"] / worker["attempted"])
    return result, record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for need in (os.path.join("src", "dcspec", "__init__.py"), "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"bench: {need} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 2
    try:
        if args.workload != "all":
            result, record = run_one(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"record": record}))
            print(json.dumps(result))
            return 0
        results = {}
        for name in WORKLOADS:
            result, record = run_one(name, args.seed, args.seconds, args.trace)
            results[name] = result
            for metric, mv in result["metrics"].items():
                print(f"{name:14s} {metric:44s} {mv['value']:.6g} {mv['unit']}")
            print(f"{name:14s} {'ops_failed_frac':44s} {record['ops_failed_frac']:.6g} ratio")
            print(f"{name:14s} {'correct':44s} {result['correct']}", flush=True)
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
