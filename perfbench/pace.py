"""The host's speed, read off a fixed reference kernel timed next to every
call.

The benchmark runs on a shared host. For stretches of many seconds every
call can run at half its usual speed, and then even the fastest call of a
run is slow. The kernel below never changes and does what crgx mostly does
(interpreted Python around numpy calls on small arrays, plus a few
image-sized ones), so it slows down with the host. Each timed call is
paired with one kernel run right after it, and the benchmark reports the
median of call time over kernel time, times KERNEL_MS: the call's time on
this host at the speed where the kernel takes KERNEL_MS. Only a change in
crgx moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's median time on a quiet 2-vCPU Intel Xeon host (Python
# 3.11, numpy 2.4). A constant: changing it rescales every timing.
KERNEL_MS = 2.0

_SMALL = np.linspace(-1.0, 1.0, 64).reshape(4, 16)
_WEIGHTS = np.cos(np.arange(256.0)).reshape(16, 16) / 4.0
_IMAGE = np.sin(np.arange(3 * 64 * 64.0)).reshape(3, 64, 64)
_PATCHES = np.cos(np.arange(27 * 3844.0)).reshape(27, 3844)
_FILTERS = np.sin(np.arange(8 * 27.0)).reshape(8, 27)


def kernel() -> float:
    """About half small-array graph steps, half image-sized array work."""
    x = _SMALL
    acc = 0.0
    for i in range(150):
        y = np.tanh(x @ _WEIGHTS) * 0.5
        x = x + 0.01 * (y - x)
        acc += float(y[i % 4, i % 16])
    for _ in range(6):
        acc += float(np.exp(-np.abs(_IMAGE * acc)).mean())
        acc += float(np.tanh(_FILTERS @ _PATCHES).mean())
    return acc


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def at_reference(pairs) -> float:
    """Median of measured seconds over kernel seconds, in reference seconds,
    over (seconds, kernel seconds) pairs."""
    return statistics.median(t / k for t, k in pairs) * KERNEL_MS / 1e3


def to_reference(kernel_runs) -> float:
    """Factor that takes a time measured among these kernel run times to
    the reference speed."""
    return KERNEL_MS / 1e3 / statistics.median(kernel_runs)
