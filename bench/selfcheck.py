"""Self-checks for the benchmark itself.  Run from the repository root:

    python3 bench/selfcheck.py

1. Every metric name, declared in BENCHMARK.json or emitted by a traced
   run, matches ``[A-Za-z0-9_.-]+``, and every declared per-layer metric
   is produced.
2. A smoke-sized pass of each workload runs in seconds and meets its
   oracle with no failed operation.
3. The same pass with every checked answer scaled by 1 + 1e-3 through a
   stub is counted as failed, which proves the oracle gate works.
4. In the traced run, the layer self times plus ``trace.unattributed_s``
   sum to the traced wall time within SUM_TOL_S, and the unattributed
   share is at most 10%.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import re
import shutil
import sys
import tempfile
import time

import run

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SUM_TOL_S = 1e-6
SMOKE_LIMIT_S = 60.0
UNATTRIBUTED_MAX = 0.10
# per-layer metrics filled in by run.py rather than the traced worker
RUN_LEVEL = {"import.modules_loaded", "import.scipy_optimize_loaded",
             "oracle.max_rel_err", "oracle.ops_failed_frac"}


def smoke(workload, workdir, trace, perturb=False):
    argv = [sys.executable, os.path.join(run.BENCH, "worker.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", str(trace), "--workdir", workdir,
            "--size", "smoke"]
    if perturb:
        argv.append("--perturb")
    t0 = time.monotonic()
    out = run._run_child(argv, f"smoke {workload}", SMOKE_LIMIT_S * 2)
    return out, time.monotonic() - t0


def main():
    problems = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    end_to_end, per_layer = run.declared_metrics()
    declared = [m["name"] for m in end_to_end + per_layer]
    check(all(NAME.match(n) for n in declared), "declared metric names match [A-Za-z0-9_.-]+")
    tmp_root = os.path.join(run.ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=tmp_root)
    try:
        for wl in run.WORKLOADS:
            out, took = smoke(wl, workdir, trace=1)
            layers = out["layers"]
            check(took < SMOKE_LIMIT_S, f"{wl}: smoke run took {took:.1f} s")
            check(out["failed"] == 0 and out["attempted"] > 0,
                  f"{wl}: {out['failed']} of {out['attempted']} ops failed {out['oracle_notes'][:2]}")
            check(out["deterministic"], f"{wl}: identical output bytes in every pass")
            check(all(NAME.match(k) for k in layers), f"{wl}: emitted metric names match")
            missing = [m["name"] for m in per_layer
                       if m["name"] not in layers and m["name"] not in RUN_LEVEL]
            check(not missing and not out["trace_missing"],
                  f"{wl}: every per-layer metric produced (missing {missing + out['trace_missing']})")
            check(out["trace_sum_residual_s"] <= SUM_TOL_S,
                  f"{wl}: layer self times + unattributed = wall within {SUM_TOL_S:g} s "
                  f"(residual {out['trace_sum_residual_s']:.2e} s)")
            share = layers["trace.unattributed_s"] / layers["trace.wall_s"]
            check(share <= UNATTRIBUTED_MAX, f"{wl}: unattributed share {share:.4f} <= {UNATTRIBUTED_MAX}")
            bad, _ = smoke(wl, workdir, trace=0, perturb=True)
            check(bad["failed"] > 0,
                  f"{wl}: answers perturbed by 1e-3 fail the oracle ({bad['failed']} of {bad['attempted']})")
    except run.BenchError as exc:
        check(False, str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    print(json.dumps({"selfcheck": "pass" if not problems else "fail", "problems": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
