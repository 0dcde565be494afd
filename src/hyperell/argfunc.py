"""Argument sums on the critical circle and the zero counter.

Everything here is a sum over the zero angles of translated periodic
functions: log|L| is a sum of log 2|sin pi(.)| terms, and the n-th
normalized antiderivative of the argument function is

    S_n(theta) = -(1/(n+1)!) * sum_j PB_(n+1)(theta - theta_j),

with PB the periodic Bernoulli functions.  The n = 0 sawtooth convention
(zero at integers) realizes the half-limit value at jump points
automatically, and S_0 rises by the multiplicity when theta crosses a
zero, consistent with the counting identity

    N([a, b]) = 2g (b - a) + S(b) - S(a).
"""

from __future__ import annotations

import math

import numpy as np

from .bernoulli import TABLE
from .errors import ConsistencyError
from .lfunc import ZeroAngles


def fractional_parts(theta, angles) -> np.ndarray:
    """frac[j, i] = (theta[i] - angles[j]) mod 1 for a 1-D theta, zero-major:
    one contiguous row per zero angle.  angles is one row of zero angles
    shared by every theta, or a (zeros, len(theta)) array holding one
    column of zeros per theta (lanes with their own zeros)."""
    angles = np.asarray(angles, dtype=float)
    shared = angles[:, None] if angles.ndim == 1 else angles
    diff = np.subtract(np.asarray(theta, dtype=float), shared)
    diff -= np.floor(diff)
    return diff


def _pairwise(a: np.ndarray, out: np.ndarray) -> None:
    """numpy's pairwise summation of each column of a, into out."""
    n = len(a)
    if n < 8:
        np.add(a[0], 0.0, out=out)
        for row in a[1:]:
            out += row
    elif n <= 128:
        acc = a[:8].copy()
        stop = n - n % 8
        for i in range(8, stop, 8):
            acc += a[i : i + 8]
        pairs = acc[0::2] + acc[1::2]
        np.add(pairs[0] + pairs[1], pairs[2] + pairs[3], out=out)
        for row in a[stop:]:
            out += row
    else:
        half = n // 2 - (n // 2) % 8
        _pairwise(a[:half], out)
        rest = np.empty_like(out)
        _pairwise(a[half:], rest)
        out += rest


def column_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums down the columns of a, each rounded as np.sum(a.T, axis=-1)
    rounds the matching row, one vector add per step.

    np.sum starts from 0.0 and adds numpy's pairwise sum of the row: below
    8 terms 0.0 + a_0 and then the rest in order; from 8 up to 128 terms 8
    accumulators strided by 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the leftover terms in order; beyond 128 the two halves (the first
    a multiple of 8 long) recursively.  Which of two NaN operands a sum
    returns is left open by IEEE 754, so NaN payloads may differ.
    """
    if out is None:
        out = np.empty(a.shape[1:])
    if not len(a):
        out[...] = 0.0
        return out
    _pairwise(a, out)
    if len(a) >= 8:
        out += 0.0  # the 0.0 start: turns a sum of -0.0 into 0.0
    return out


def zero_sums(frac: np.ndarray, n: int | None, out: np.ndarray | None = None) -> np.ndarray:
    """Sums over the zero angles from zero-major fractional parts
    (fractional_parts), one per column: log|L| for n None (-inf within
    1e-12 of a zero angle), else S_n.

    The shared kernel of log_modulus, argument_sum and the extrema scans:
    elementwise steps in place, then column_sums, whose rounding is that
    of np.sum along each row of the transposed matrix; a column's value
    does not depend on the columns evaluated with it.
    """
    work = np.empty_like(frac)
    if n is None:
        np.subtract(1.0, frac, out=work)
        np.minimum(frac, work, out=work)
        near = work <= 1e-12
        np.multiply(frac, math.pi, out=work)
        np.sin(work, out=work)
        np.abs(work, out=work)
        work *= 2.0
        with np.errstate(divide="ignore"):
            np.log(work, out=work)
        vals = column_sums(work, out=out)
        if near.any():  # rare: points are seldom this close to a zero angle
            vals[near.any(axis=0)] = -np.inf
        return vals
    TABLE.on_unit(n + 1, frac, out=work)
    vals = column_sums(work, out=out)
    np.negative(vals, out=vals)
    vals /= math.factorial(n + 1)
    return vals


def log_modulus(zeros: ZeroAngles, theta):
    """sum_j log 2|sin pi(theta - theta_j)|; -inf within 1e-12 of a zero angle.

    Equals log|L| on the critical circle (the direct-evaluation
    cross-check lives in the tests).
    """
    th = np.asarray(theta, dtype=float)
    frac = fractional_parts(th.reshape(-1), zeros.theta)
    vals = zero_sums(frac, None).reshape(th.shape)
    return float(vals) if vals.ndim == 0 else vals


def argument_sum(zeros: ZeroAngles, n: int, theta):
    """S_n(theta): the n-th normalized antiderivative of the argument sum."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    th = np.asarray(theta, dtype=float)
    frac = fractional_parts(th.reshape(-1), zeros.theta)
    vals = zero_sums(frac, n).reshape(th.shape)
    return float(vals) if vals.ndim == 0 else vals


def antiderivative_constant(zeros: ZeroAngles, n: int) -> float:
    """The integration constant c_n that gives S_n mean zero: equals
    S_n(0).  Conjugate symmetry forces c_n = 0 for even n (checked)."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    value = argument_sum(zeros, n, 0.0)
    if n % 2 == 0 and abs(value) > 1e-10:
        raise ConsistencyError(
            f"c_{n} should vanish by symmetry but came out {value:.3e}"
        )
    return value


def zero_multiplicities(zeros: ZeroAngles, tol: float = 1e-12) -> list[tuple[float, int]]:
    """Distinct angles with multiplicities (angles within tol are merged)."""
    out: list[tuple[float, int]] = []
    for t in zeros.theta:
        if out and abs(t - out[-1][0]) <= tol:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((t, 1))
    return out


def jump_limits(zeros: ZeroAngles):
    """One-sided limits of S_0 at each distinct zero angle.

    Returns (angles, left, right): S_0 jumps up by the multiplicity when
    theta crosses a zero, and the value at the angle itself is the
    half-limit, so left = S_0 - m/2 and right = S_0 + m/2.  The zeros of
    one merged cluster (zero_multiplicities) are taken as coincident at
    its angle, so S_0 there is the half-limit of the whole cluster, not of
    its first zero with the others' terms still before their jumps.
    """
    distinct = zero_multiplicities(zeros)
    angles = np.array([t for t, _ in distinct], dtype=float)
    mults = np.array([m for _, m in distinct], dtype=int)
    coincident = np.repeat(angles, mults)
    centers = zero_sums(fractional_parts(angles, coincident), 0)
    return angles, centers - mults / 2.0, centers + mults / 2.0


def count_zeros(zeros: ZeroAngles, alpha: float, beta: float) -> float:
    """Normalized count of zero angles in the arc [alpha, beta] on R/Z.

    Angles within 1e-12 of an endpoint weigh 1/2; a degenerate interval
    counts half the multiplicity sitting at the point; the full circle
    counts 2g.
    """
    tol = 1e-12
    length = beta - alpha
    if not (-tol <= length <= 1.0 + tol):
        raise ValueError(f"interval length must lie in [0, 1], got {length}")
    th = np.asarray(zeros.theta)
    rel = (th - alpha) - np.floor(th - alpha)
    at_alpha = (rel <= tol) | (rel >= 1.0 - tol)
    if length <= tol:
        return 0.5 * float(np.count_nonzero(at_alpha))
    dist_beta = np.abs(rel - length)
    at_beta = np.minimum(dist_beta, 1.0 - dist_beta) <= tol
    inside = (~at_alpha) & (~at_beta) & (rel > tol) & (rel < length - tol)
    return float(
        np.count_nonzero(inside) + 0.5 * np.count_nonzero(at_alpha) + 0.5 * np.count_nonzero(at_beta)
    )


def mean_value(zeros: ZeroAngles, n: int) -> float:
    """Quadrature mean of S_n over [0, 1): composite Simpson per segment
    between zero angles, panels doubling until the change drops below 1e-9.

    Segments are split at the zero angles so the jumps of S_0 and the
    kinks of higher orders sit at panel boundaries; endpoints are nudged
    inward so one-sided values are integrated across jumps.
    """
    bounds = sorted({t for t, _ in zero_multiplicities(zeros)})
    if not bounds:
        bounds = [0.0]
    segs = []
    for i, lo in enumerate(bounds):
        hi = bounds[i + 1] if i + 1 < len(bounds) else bounds[0] + 1.0
        if hi - lo > 1e-12:
            segs.append((lo, hi))
    total = 0.0
    nudge = 1e-12
    for lo, hi in segs:
        a, b = lo + nudge, hi - nudge
        panels = 8
        prev = None
        while True:
            xs = np.linspace(a, b, panels + 1)
            ys = argument_sum(zeros, n, xs)
            est = (b - a) / (3.0 * panels) * (
                ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()
            )
            if prev is not None and abs(est - prev) < 1e-9 / max(len(segs), 1):
                break
            if panels >= 2**14:
                break
            prev = est
            panels *= 2
        total += est
    return total

