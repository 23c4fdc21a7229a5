"""Machine-speed reference for drift-normalised timings.

On a shared machine the CPU speed available to one process drifts: on the
2-core VM this benchmark was built on, the same pass took 1.7 s for one
minute and 3.5 s for the next, because of contention that this process
cannot see.  Pass times are therefore rescaled by a fixed reference kernel
timed right before and after each pass:

    normalised = raw * NOMINAL_S / reference time

The result reads in seconds at the speed where the kernel takes NOMINAL_S.
The kernels do not touch dcspec, so a change to the program moves raw and
normalised times alike.  Each workload is scaled by the kernel that is
made of its own kind of work:

- "mixed": interpreted Python, numpy calls on tiny arrays, and a 100x100
  complex SVD that stays in the L2 cache, as in pseudo_small,
  region_wedge and phase_space;
- "dense": one 500x500 complex SVD, which does not fit in L2, as in
  probe_kfp's SVDs at n = 325 to 703.  The mixed kernel does not track
  the speed of such SVDs: over the same six seeds, probe_kfp's spread was
  14% scaled by the mixed kernel, 7% scaled by this one and 5% raw.

The raw times are recorded next to the normalised ones.
"""

import functools
import time

import numpy as np

# the mixed kernel's time when that VM was not contended; the dense kernel
# is sized to take about the same (0.081 s at a quiet moment)
NOMINAL_S = 0.08

# bound at import, before the tracer wraps numpy.linalg, so the kernel is
# never counted as program work
_svd = np.linalg.svd
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((100, 100)) + 1j * _rng.standard_normal((100, 100))
_v = _rng.standard_normal(8)


def reference_s(repeats=1, kernel="mixed"):
    """Mean wall time of ``repeats`` runs of a fixed reference kernel."""
    run = _KERNELS[kernel]
    t0 = time.perf_counter()
    for _ in range(repeats):
        run()
    return (time.perf_counter() - t0) / repeats


def _mixed():
    s = 0
    for i in range(500_000):
        s += i * i
    for _ in range(9_000):
        np.sum(_v * _v)
    for _ in range(25):
        _svd(_A, compute_uv=False)


@functools.cache
def _dense_matrix():
    # made on first use, so that workloads on the mixed kernel do not carry
    # its 4 MB in peak_rss_mb
    rng = np.random.default_rng(1)
    return rng.standard_normal((500, 500)) + 1j * rng.standard_normal((500, 500))


def _dense():
    _svd(_dense_matrix(), compute_uv=False)


_KERNELS = {"mixed": _mixed, "dense": _dense}
