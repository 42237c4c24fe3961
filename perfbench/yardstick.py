"""A fixed task that measures how fast the machine runs right now.

The speed of a small shared machine drifts with its neighbours' load: on a
2-vCPU Xeon virtual machine a fixed loop of 6x6 SVDs took 19 to 32 ms in
5-second windows within two minutes, and raw round times of one workload
spread by 18-36 % (first to third quartile over the median) from run to
run.  The benchmark therefore reads the yardstick between segments of about
half a second of operations and reports each segment's time at the
yardstick's nominal speed: raw seconds x nominal / measured.  The task uses
numpy alone, never qpquant, so a change to the program cannot move it.

Two kinds match the two regimes of the workloads: ``small`` is Python-level
calls on arrays of a few dozen entries (per-point geometry); ``large`` is
whole-array arithmetic on 65,536-row batches (the Monte Carlo oracles).
``cores`` reads both kinds on every core the process may use, pinning the
calling thread to each in turn, for work that runs on two threads at once
(``verify --workers 2``).
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

# Median seconds of one call of each kind on the machine named in the README;
# they only set the scale of the reported figures.
NOMINAL = {"small": 0.0135, "large": 0.045}
NOMINAL["cores"] = 2 * (NOMINAL["small"] + NOMINAL["large"])

_RNG = np.random.default_rng(20261017)
_SMALL = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_VEC = _RNG.standard_normal((3, 4))
_LARGE = _RNG.standard_normal((65_536, 4))
_TABLE = _RNG.standard_normal((4, 4, 4))


def _small():
    acc = 0.0
    for _ in range(150):
        acc += float(np.linalg.svd(_SMALL, compute_uv=False)[0])
        acc += abs(complex(np.linalg.det(_SMALL[:4, :4])))
        v = np.einsum("ia,ib,abc->ic", _VEC, _VEC, _TABLE)
        acc += float(np.sqrt(np.sum(v * v)))
        acc += float(np.kron(np.eye(3), _SMALL[:2, :2]).real.sum())
    return acc


def _large():
    prod = np.einsum("...a,...b,abc->...c", _LARGE, _LARGE, _TABLE)
    z = prod.astype(complex) * np.exp(1j * _LARGE[..., :1])
    return float(np.abs(z).sum())


TASKS = {"small": _small, "large": _large}
_WARM = set()


def measure(kind):
    """Seconds the ``kind`` task takes now (see the module docstring for ``cores``)."""
    if kind != "cores":
        return _measure(kind)
    cpus = sorted(os.sched_getaffinity(0))
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            total += _measure("small") + _measure("large")
    finally:
        os.sched_setaffinity(0, cpus)
    # scaled to two cores, so the nominal value holds on a one-core mask too
    return total * 2 / len(cpus)


def _measure(kind):
    """Seconds one call of the ``kind`` task takes now: the faster of two calls.

    The garbage collector is off while the task runs, so a collection of the
    benchmark's own objects is not read as a slow machine, and the faster
    of two back-to-back calls drops a one-off stall.
    """
    task = TASKS[kind]
    if kind not in _WARM:
        task()
        _WARM.add(kind)
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            task()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return min(times)
