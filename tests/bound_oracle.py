"""Degree selection, interval composition and interval certification as
first written: the oracles for the bound layer.

The library selects the degrees of a whole block of moduli from one
table of Fourier coefficients and one matrix of tail weights, composes
and certifies the interval polynomials of a block together, and
certifies on the uniform grid by inverse FFT plus a table at the cluster
points.  This module keeps the original forms: one modulus and one full
bound evaluation per candidate degree, every weight and coefficient
recomputed, each interval composed by scalar complex arithmetic, and
certification on the sorted union of all points.  The library must pick
the same degrees and reports, compose the same coefficients, and pass or
raise on the same inputs.
"""

import math

import numpy as np

from hyperell.bounds import BoundReport, degree_choice
from hyperell.errors import CertificationError
from hyperell.lfunc import power_sum
from hyperell.onesided import (
    _CERT_CLUSTER_DEPTH,
    TrigPoly,
    _cluster_points,
    _indicator,
    construct_one_sided,
    trig_table,
)

TWO_PI = 2.0 * math.pi


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


def tail_weights(zeros, q, N, mode):
    """w_1..w_N: q^(k/2) in weil mode, |power sum| from the zeros in exact mode."""
    if mode == "weil":
        return np.asarray(q) ** (np.arange(1, N + 1, dtype=float) / 2.0)
    return np.array([abs(power_sum(zeros, k)) for k in range(1, N + 1)])


def rigorous_bound(zeros, q, target, n, side, N, mode="weil"):
    """The bound 2g W-hat(0) +/- sum |W-hat(k)| w_k at degree N, from scratch."""
    g = zeros.count // 2
    w0, absw = one_sided_fourier(target, n, side, N)
    weights = tail_weights(zeros, q, N, mode)
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


def compose_interval(saw, alpha, beta):
    """(beta-alpha) + P(alpha-theta) + P(theta-beta) in coefficient form."""
    cos = [beta - alpha + 2.0 * saw.mean]
    sin = []
    for k in range(1, saw.degree + 1):
        forward = saw.fourier(k)
        ck = np.conj(forward) * np.exp(-1j * TWO_PI * k * alpha) + forward * np.exp(
            -1j * TWO_PI * k * beta
        )
        cos.append(2.0 * ck.real)
        sin.append(-2.0 * ck.imag)
    return TrigPoly(tuple(cos), tuple(sin))


def interval_polys(alpha, beta, N):
    """(minorant, majorant) of the indicator of [alpha, beta], certified."""
    lo = construct_one_sided("sawtooth", "minorant", N).poly
    hi = construct_one_sided("sawtooth", "majorant", N).poly
    minor, major = compose_interval(lo, alpha, beta), compose_interval(hi, alpha, beta)
    certify_interval(minor, major, alpha, beta)
    return minor, major


def s0_bound_interval_method(zeros, q, theta, N, mode="weil"):
    """(upper, lower) bounds on S_0(theta) through the symmetric interval."""
    g = zeros.count // 2
    t = theta - math.floor(theta)
    if t > 0.5:
        up, lo = s0_bound_interval_method(zeros, q, 1.0 - t, N, mode)
        return -lo, -up
    minor, major = interval_polys(-t, t, N)
    weights = tail_weights(zeros, q, N, mode)
    tail_plus = 2.0 * float(major.abs_fourier() @ weights) if N > 0 else 0.0
    tail_minus = 2.0 * float(minor.abs_fourier() @ weights) if N > 0 else 0.0
    upper = 0.5 * (2.0 * g * (major.mean - 2.0 * t) + tail_plus)
    lower = 0.5 * (2.0 * g * (minor.mean - 2.0 * t) - tail_minus)
    return upper, lower
