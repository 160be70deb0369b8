"""Bare-numpy SGD step: the machine-speed probe and the library's floor.

One cross-entropy SGD step of a 2-32-32-10 ReLU network on a batch of 32,
the shape of every local step in the acceptance recipe, written directly in
numpy with no checks and no allocation of parameter objects.
"""

from __future__ import annotations

import time

import numpy as np


def numpy_step_us(steps: int = 1500) -> float:
    """Median microseconds of one bare-numpy SGD step."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 2))
    y = rng.integers(0, 10, 32)
    rows = np.arange(32)
    w1, w2, w3 = (rng.standard_normal(s) * 0.3 for s in ((2, 32), (32, 32), (32, 10)))
    b1, b2, b3 = np.zeros(32), np.zeros(32), np.zeros(10)
    lr = 0.01
    times = np.empty(steps)
    clock = time.perf_counter
    for i in range(steps):
        t0 = clock()
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ w2 + b2
        a2 = np.maximum(z2, 0.0)
        z3 = a2 @ w3 + b3
        p = np.exp(z3 - z3.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        d3 = p / 32
        d2 = (d3 @ w3.T) * (z2 > 0.0)
        d1 = (d2 @ w2.T) * (z1 > 0.0)
        w3 -= lr * (a2.T @ d3)
        b3 -= lr * d3.sum(axis=0)
        w2 -= lr * (a1.T @ d2)
        b2 -= lr * d2.sum(axis=0)
        w1 -= lr * (x.T @ d1)
        b1 -= lr * d1.sum(axis=0)
        times[i] = clock() - t0
    return float(np.median(times) * 1e6)
