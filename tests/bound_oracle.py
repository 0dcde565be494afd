"""Degree selection and interval certification as first written: the
oracles for the bound layer.

The library selects the exhaustive degree from one table of tail weights,
building a report only for the chosen degree, and certifies the interval
polynomials on the uniform grid by one inverse FFT plus a table at the
cluster points.  This module keeps the original forms: one full bound
evaluation per candidate degree, every weight and coefficient recomputed,
and certification on the sorted union of all points.  The library must
pick the same degrees and reports, and pass or raise on the same inputs.
"""

import math

import numpy as np

from hyperell.bounds import BoundReport, degree_choice
from hyperell.errors import CertificationError
from hyperell.lfunc import power_sum
from hyperell.onesided import (
    _CERT_CLUSTER_DEPTH,
    _cluster_points,
    _indicator,
    construct_one_sided,
    trig_table,
)


def one_sided_fourier(target, n, side, N):
    """(W-hat(0), |W-hat(k)| for k=1..N) of a one-sided polynomial of G."""
    if target == "logmod":
        if side != "upper":
            raise ValueError("the log-modulus has no finite lower envelope")
        res = construct_one_sided("log2sin", "majorant", N)
        return res.poly.mean, res.poly.abs_fourier()
    fact = math.factorial(n + 1)
    which = "minorant" if side == "upper" else "majorant"
    res = construct_one_sided(f"bernoulli:{n + 1}", which, N)
    return -res.poly.mean / fact, res.poly.abs_fourier() / fact


def rigorous_bound(zeros, q, target, n, side, N, mode="weil"):
    """The bound 2g W-hat(0) +/- sum |W-hat(k)| w_k at degree N, from scratch."""
    g = zeros.count // 2
    w0, absw = one_sided_fourier(target, n, side, N)
    ks = np.arange(1, N + 1, dtype=float)
    if mode == "weil":
        weights = np.asarray(q) ** (ks / 2.0)
    else:
        weights = np.array([abs(power_sum(zeros, k)) for k in range(1, N + 1)])
    main = 2.0 * g * w0
    tail = 2.0 * float(absw @ weights) if N > 0 else 0.0
    bound = main + tail if side == "upper" else main - tail
    return BoundReport(target, n, side, mode, q, 2 * g + 1, g, N, main, tail, bound)


def choose_degree(policy, q, d, target, n, side, mode, zeros, n_cap=8):
    """The policy's degree; exhaustive evaluates the full bound at every N."""
    if policy == "formula":
        return degree_choice(q, d, n or 0)
    if policy.startswith("fixed:"):
        return int(policy.split(":", 1)[1])
    cap = max(n_cap, degree_choice(q, d, n or 0))
    best_N, best_val = 0, math.inf
    for N in range(cap + 1):
        rep = rigorous_bound(zeros, q, target, n, side, N, mode)
        val = rep.bound if side == "upper" else -rep.bound
        if val < best_val - 1e-15:
            best_N, best_val = N, val
    return best_N


def interval_margins(minor, major, alpha, beta):
    """(min of 1_I - minor, max of 1_I - major) over the sorted union of
    the uniform 4,096-point grid and the cluster points at both ends."""
    pts = np.unique(
        np.concatenate(
            [
                np.arange(4096) / 4096.0,
                (alpha + _cluster_points(_CERT_CLUSTER_DEPTH)) % 1.0,
                (beta + _cluster_points(_CERT_CLUSTER_DEPTH)) % 1.0,
            ]
        )
    )
    ind = _indicator(alpha, beta, pts)
    table = trig_table(pts, minor.degree)
    return (
        float(np.min(ind - minor.from_table(*table))),
        float(np.max(ind - major.from_table(*table))),
    )


def certify_interval(minor, major, alpha, beta):
    """Raise CertificationError unless both margins are within 1e-11."""
    worst_minor, worst_major = interval_margins(minor, major, alpha, beta)
    if worst_minor < -1e-11 or worst_major > 1e-11:
        raise CertificationError(
            f"interval [{alpha}, {beta}]: minorant {worst_minor:.3e}, majorant {worst_major:.3e}"
        )
