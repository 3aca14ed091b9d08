"""Host-speed calibration sampled while a command runs.

On a shared host the speed of a vCPU drifts: the same `leukemia-l1inf`
solve took 0.57 s to 1.33 s per 250 iterations within one process, and
whole passes took 8 s for minutes and then 12 to 13 s for about 100 s,
with nothing else running in the container. A kernel timed between
passes does not follow this, because the speed changes within a second.

So the launcher samples the host's speed inside the command's own
process, interleaved with the command: every `INTERVAL_S` a SIGALRM
handler runs a small fixed kernel and records when it ran and how long it
took. The kernel is the benchmark's own numpy code, independent of the
package, on arrays that fit in the L2 cache, so its time follows the
core's speed and not the cache state the command leaves behind. The
benchmark takes the kernel's time out of the command's time and
multiplies it by the pass's mean speed, `REFERENCE_S` over each sample's
kernel time, which gives times at a fixed reference speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# about the kernel's time on the baseline host (see README.md); only
# scales the reported times, so it never changes between two commits
REFERENCE_S = 0.0011

_K, _M, _L = 3, 256, 38   # the leukemia shape's K and L, on 256 features
_REPS = 12
_GROUP, _N_GROUPS = 5, 400


def kernel(a, x0, w, groups):
    """Dense numpy work on small arrays, then a per-group gather, sort and
    scatter built from a list of small index arrays. Alone, the first part
    slows less than a leukemia solve when the host slows and the second
    more; with about equal time in each, the kernel's time follows the
    solve's (see README.md)."""
    x = x0
    for _ in range(_REPS):
        y = x @ a.T                                  # T: (K, L)
        g = y @ a                                    # T^T: (K, M)
        z = x - 1e-3 * g
        s = np.sort(np.abs(z), axis=0)               # per-feature sort over classes
        x = np.sign(z) * np.maximum(np.abs(z) - 1e-3 * s[-1], 0.0)
    idx = np.vstack(groups)                          # (groups, group size)
    rows = w[:, idx].reshape(-1, _GROUP)
    top = np.sort(np.abs(rows), axis=1)[:, -1:]
    out = w.copy()
    out[:, idx] = (rows - 1e-3 * top).reshape(_K, -1, _GROUP)
    return x, out


class Sampler:
    """Runs `kernel` every `interval` seconds from a SIGALRM handler between
    `start()` and `stop()`; `samples` holds [start, seconds] of each run."""

    def __init__(self, interval=INTERVAL_S):
        rng = np.random.default_rng(12345)
        self.a = rng.standard_normal((_L, _M))
        self.x0 = rng.standard_normal((_K, _M))
        self.w = rng.standard_normal((_K, _GROUP * _N_GROUPS))
        self.groups = [np.arange(i, i + _GROUP) for i in range(0, _GROUP * _N_GROUPS, _GROUP)]
        self.interval = interval
        self.samples = []
        self.run()  # warm up: allocate, load the code paths

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.run()
        self.samples.append([t0, time.perf_counter() - t0])
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def run(self):
        kernel(self.a, self.x0, self.w, self.groups)

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
