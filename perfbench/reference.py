"""A fixed reference kernel that measures how fast the machine runs right now.

A shared machine changes speed by itself, for seconds to minutes at a time,
when other tenants load the host. Steal time stays near zero then, so CPU
time slows just as much as wall time. The benchmark therefore times this
kernel again and again between entry-point calls, and scales the run's
median times by ``NOMINAL_S / (median kernel time)``: a run made during a
slow spell is scaled back to the machine's nominal speed.

The kernel does the three kinds of work greentx spends its time on, in
about equal parts: interpreted Python (a small tabular learner over lists,
like the per-slot env/learner/metrics code), numpy calls on small arrays
with the shapes of the stock model (like a value-iteration sweep), and
numpy passes over arrays larger than a core's private cache, whose speed
depends on what other tenants do to the shared cache and memory. It
depends on nothing in greentx, so a change to the program never changes it.
"""
from __future__ import annotations

import functools
import time

import numpy as np

# Typical kernel time on the machine the benchmark was tuned on (2-vCPU Intel
# Xeon VM, Python 3.11, numpy 2.4, OpenBLAS pinned to one thread). It only
# sets the scale of the reported times; the ratios do not depend on it.
NOMINAL_S = 0.025
PARTS = ("python", "numpy", "memory")


@functools.cache
def _arrays() -> dict:
    """The kernel's inputs, made on first use so that they do not count in
    the peak memory the benchmark reads after its first call."""
    rng = np.random.default_rng(20100930)
    return {
        "P": rng.random((52, 26, 26)) / 26.0,  # (a, b, b') like pb_stack
        "X": rng.random((52, 2, 2)) / 2.0,  # (a, x, x') like px_stack
        "H": rng.random((8, 8)) / 8.0,  # channel matrix
        "C": rng.random((52, 26, 8, 2)),  # per-slot cost cube (a, b, h, x)
        "M": rng.random(1 << 20),  # 8 MiB: more than a core's private cache
    }


def _python_part(n: int = 2700) -> float:
    """An epsilon-greedy tabular learner on a fixed pseudo-random chain."""
    n_s, n_a = 64, 8
    q = [0.0] * (n_s * n_a)
    visits = {}
    s, x, total = 0, 12345, 0.0
    for _ in range(n):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        row = q[s * n_a:(s + 1) * n_a]
        a = x % n_a if x % 10 == 0 else row.index(min(row))
        cost = ((s * 31 + a * 17) % 23) / 23.0
        s2 = (s + a + (x >> 8) % 3) % n_s
        key = (s, a)
        visits[key] = visits.get(key, 0) + 1
        step = 1.0 / visits[key]
        i = s * n_a + a
        q[i] += step * (cost + 0.9 * min(q[s2 * n_a:(s2 + 1) * n_a]) - q[i])
        total += cost
        s = s2
    return total


def _numpy_part(sweeps: int = 12) -> float:
    """Value-iteration-like sweeps over arrays of the stock model's shapes."""
    k = _arrays()
    v = np.zeros((26, 8, 2))
    for _ in range(sweeps):
        v1 = np.einsum("hH,BHX->BhX", k["H"], v)
        q = k["C"] + 0.9 * np.einsum("abB,axX,BhX->abhx", k["P"], k["X"], v1, optimize=True)
        v = q.min(axis=0)
    return float(v.sum())


def _memory_part(passes: int = 1) -> float:
    """Elementwise passes over an array larger than the private cache."""
    m, total = _arrays()["M"], 0.0
    for _ in range(passes):
        total += float(np.sqrt(m * 1.0001 + 0.5).sum())
    return total


def measure() -> tuple:
    """Seconds each part of the kernel takes now, in the order of PARTS."""
    times = []
    for part in (_python_part, _numpy_part, _memory_part):
        t0 = time.perf_counter()
        part()
        times.append(time.perf_counter() - t0)
    return tuple(times)
