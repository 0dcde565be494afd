"""Scalar certification: the oracle for the lane-batched refinement.

The library polishes all local minima of the one-sided gap in one
golden-section search over lanes, evaluating the polynomial with one dot
product per point.  This module keeps the original one-search-at-a-time
form, every gap value from the scalar ``poly(float(x))``; the batched
path must reproduce it float for float.
"""

import math

import numpy as np

from hyperell.onesided import (
    _CERT_CLUSTER_DEPTH,
    LOG_SINE_FLOOR,
    _cluster_points,
    _constraint_values,
)


def golden_min(f, lo, hi, iters=60):
    """Golden-section minimum of f on [lo, hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
        if b - a < 1e-14:
            break
    xs = [(fc, c), (fd, d), (f(lo), lo), (f(hi), hi)]
    return min(xs)


def certify(poly, spec, side, base_grid):
    """(margin, worst, minima) as the library's _certify, one point at a time."""
    fine = np.arange(10 * base_grid) / float(10 * base_grid)
    pts = np.unique(np.concatenate([fine, _cluster_points(_CERT_CLUSTER_DEPTH)]))
    pts, tvals = _constraint_values(spec, side, pts)
    h = side * (poly(pts) - tvals)

    def gap(x):
        tv = spec.value(float(x))
        if not np.isfinite(tv) or (spec.name == "log2sin" and side < 0 and tv <= LOG_SINE_FLOOR):
            return math.inf
        return side * (poly(float(x)) - tv)

    order = np.argsort(h)
    margin = float(h[order[0]])
    worst = float(pts[order[0]])
    minima = []
    local = np.flatnonzero((h <= np.roll(h, 1)) & (h <= np.roll(h, -1)))
    ranked = local[np.argsort(h[local])][:24]
    for i in ranked:
        lo = pts[i - 1] if i > 0 else pts[i] - 1.0 / (10 * base_grid)
        hi = pts[i + 1] if i + 1 < len(pts) else pts[i] + 1.0 / (10 * base_grid)
        val, x = golden_min(gap, lo, hi)
        minima.append((float(x), float(val)))
        if val < margin:
            margin, worst = float(val), float(x)
    return margin, worst, minima
