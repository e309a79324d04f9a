"""The calibration kernel: a fixed piece of work timed next to every round.

On a shared host the CPU's speed changes from second to second with the
neighbours' load, and a round's time changes with it. Dividing a round's
time by the kernel's time measured right before and after it cancels most
of that, leaving the round's cost in kernel units ("cal").

The kernel imitates what the package spends its time on: Python loops that
write numpy int64 cells, and mod-p row reduction of small matrices with one
numpy call per step. It does not import the package, so no change to the
package moves it. Changing the kernel changes the unit; compare figures
only between runs of the same kernel.
"""

from __future__ import annotations

import time

import numpy as np

P = 101
MATRICES = [
    (np.arange(n * m, dtype=np.int64).reshape(n, m) * 7919 + 13 + n) % P
    for n, m in ((15, 5), (40, 30), (12, 5), (28, 21))
]


def _rank_mod_p(a: np.ndarray) -> int:
    a = a.copy()
    n, m = a.shape
    r = 0
    for c in range(m):
        if r == n:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), P - 2, P)) % P
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % P
        r += 1
    return r


def kernel() -> int:
    cells = np.zeros((28, 21), dtype=np.int64)
    for i in range(28):
        for j in range(0, 21, 3):
            cells[i, j] = (i * j + 1) % P
    total = _rank_mod_p(cells)
    for _ in range(4):
        for a in MATRICES:
            total += _rank_mod_p(a)
    return total


EXPECTED = kernel()


def timed_kernel() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    result = kernel()
    elapsed = time.perf_counter() - t0
    if result != EXPECTED:
        raise RuntimeError("calibration kernel returned a different result")
    return elapsed
