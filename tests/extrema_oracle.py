"""Per-modulus empirical extrema and scan flow: the oracles for the block path.

The library evaluates log|L| and S_n through one kernel on shared
fractional-part matrices, and refines the extrema of a whole block of
moduli in one golden-section search over lanes.  This module keeps the
original forms: direct grid evaluation per function, one modulus and one
target at a time, S_0 over the whole grid, and the scan that ran the
full pipeline modulus by modulus on the scalar zero finder and bound
layer (zeros_oracle, bound_oracle).  The block path must reproduce them
float for float.
"""

import math
from dataclasses import replace

import numpy as np

import bound_oracle
import zeros_oracle

from hyperell.argfunc import zero_multiplicities
from hyperell.bernoulli import TABLE, BernoulliTable
from hyperell.bounds import EmpiricalExtrema, envelope, parse_target
from hyperell.charsum import Character
from hyperell.lfunc import compute_lpolynomial


def log_modulus(zeros, theta, singular_tol=1e-12):
    """sum_j log 2|sin pi(theta - theta_j)|; -inf within tol of a zero angle."""
    th = np.asarray(theta, dtype=float)
    diff = np.multiply.outer(th, np.ones(len(zeros.theta))) - np.asarray(zeros.theta)
    frac = diff - np.floor(diff)
    dist = np.minimum(frac, 1.0 - frac)
    hit = (dist <= singular_tol).any(axis=-1)
    with np.errstate(divide="ignore"):
        vals = np.log(2.0 * np.abs(np.sin(math.pi * frac))).sum(axis=-1)
    vals = np.where(hit, -np.inf, vals)
    return float(vals) if vals.ndim == 0 else vals


def periodic(table: BernoulliTable, n, x):
    """B_n at the fractional part by np.polyval; the n = 1 sawtooth is 0 at integers."""
    arr = np.asarray(x, dtype=float)
    frac = arr - np.floor(arr)
    vals = np.polyval(table._horner[n], frac)
    if n == 1:
        vals = np.where(frac == 0.0, 0.0, vals)
    return float(vals) if vals.ndim == 0 else vals


def argument_sum(zeros, n, theta):
    """S_n(theta): the n-th normalized antiderivative of the argument sum."""
    th = np.asarray(theta, dtype=float)
    diff = np.multiply.outer(th, np.ones(len(zeros.theta))) - np.asarray(zeros.theta)
    vals = -periodic(TABLE, n + 1, diff).sum(axis=-1) / math.factorial(n + 1)
    return float(vals) if vals.ndim == 0 else vals


def jump_limits(zeros):
    """(angles, left, right): one-sided limits of S_0 at the distinct zero
    angles, each merged cluster of zeros taken as coincident at its angle."""
    distinct = zero_multiplicities(zeros)
    angles = np.array([t for t, _ in distinct])
    mults = np.array([m for _, m in distinct], dtype=float)
    coincident = replace(zeros, theta=tuple(t for t, m in distinct for _ in range(m)))
    centers = np.atleast_1d(argument_sum(coincident, 0, angles))
    return angles, centers - mults / 2.0, centers + mults / 2.0


def _vector_golden_max(f, centers, half_width, iters=30):
    """Golden-section maxima around several centers at once."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a = centers - half_width
    b = centers + half_width
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        take = fc >= fd
        b = np.where(take, d, b)
        a = np.where(take, a, c)
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc, fd = f(c), f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def _top_cells(vals, count=8, spacing=4):
    order = np.argsort(vals)[::-1]
    picked = []
    for idx in order:
        if all(abs(int(idx) - p) >= spacing for p in picked):
            picked.append(int(idx))
        if len(picked) >= count:
            break
    return np.asarray(picked, dtype=int)


def empirical_extrema(zeros, target, n, grid_size=2**14):
    """Grid extrema refined by golden section around the best cells.

    The order-0 argument sum decreases between its upward jumps, so its
    supremum and infimum live at one-sided limits of the jumps; those are
    evaluated exactly and merged with the grid.
    """
    if grid_size < 2**10:
        raise ValueError(f"grid_size must be >= 1024, got {grid_size}")
    grid = np.arange(grid_size) / float(grid_size)
    step = 1.0 / grid_size
    if target == "logmod":
        vals = log_modulus(zeros, grid)
        finite = np.isfinite(vals)
        safe = np.where(finite, vals, -np.inf)
        cells = _top_cells(safe)

        def f(x):
            return np.asarray(log_modulus(zeros, x))

        xs, fx = _vector_golden_max(f, grid[cells], step)
        best = int(np.argmax(fx))
        if fx[best] >= safe.max():
            return EmpiricalExtrema(float(fx[best]), float(xs[best] % 1.0), None, None)
        top = int(np.argmax(safe))
        return EmpiricalExtrema(float(safe[top]), float(grid[top]), None, None)
    if target != "s":
        raise ValueError(f"unknown target {target!r}")
    vals = argument_sum(zeros, n, grid)
    if n == 0:
        angles, left, right = jump_limits(zeros)
        cand_vals = np.concatenate([vals, left, right])
        cand_args = np.concatenate([grid, angles, angles])
        hi = int(np.argmax(cand_vals))
        lo = int(np.argmin(cand_vals))
        return EmpiricalExtrema(
            float(cand_vals[hi]), float(cand_args[hi]), float(cand_vals[lo]), float(cand_args[lo])
        )

    def f(x):
        return np.asarray(argument_sum(zeros, n, x))

    cells_hi = _top_cells(vals)
    xs_hi, fx_hi = _vector_golden_max(f, grid[cells_hi], step)
    cells_lo = _top_cells(-vals)
    xs_lo, fx_lo = _vector_golden_max(lambda x: -f(x), grid[cells_lo], step)
    hi = int(np.argmax(fx_hi))
    lo = int(np.argmax(fx_lo))
    max_value = max(float(fx_hi[hi]), float(vals.max()))
    argmax = float(xs_hi[hi] % 1.0) if fx_hi[hi] >= vals.max() else float(grid[np.argmax(vals)])
    min_value = min(float(-fx_lo[lo]), float(vals.min()))
    argmin = float(xs_lo[lo] % 1.0) if -fx_lo[lo] <= vals.min() else float(grid[np.argmin(vals)])
    return EmpiricalExtrema(max_value, argmax, min_value, argmin)


def selected_bound(config, zeros, target, n, side, mode):
    """The bound at the degree the config's policy picks, from scratch."""
    N = bound_oracle.choose_degree(config.policy, config.q, config.d, target, n, side, mode, zeros)
    return bound_oracle.rigorous_bound(zeros, config.q, target, n, side, N, mode)


def scan_one(D, config):
    """Full pipeline and soundness checks for one modulus, extrema included."""
    char = Character(D)
    L = compute_lpolynomial(char)
    zeros = zeros_oracle.find_zero_angles(L)
    q, d = L.q, L.d
    slack = config.soundness_slack
    rows = []
    violations = []
    for tag in config.targets:
        target, n = parse_target(tag)
        ext = empirical_extrema(zeros, target, n, config.grid_size)
        reported = None
        for mode in ("weil", "exact"):
            rep_up = selected_bound(config, zeros, target, n, "upper", mode)
            N_up = rep_up.N_used
            if ext.max_value > rep_up.bound + slack:
                violations.append(
                    f"D={D} target={tag} mode={mode}: empirical max {ext.max_value!r} "
                    f"exceeds bound {rep_up.bound!r} at N={N_up}"
                )
            if target == "s":
                rep_lo = selected_bound(config, zeros, target, n, "lower", mode)
                if ext.min_value < rep_lo.bound - slack:
                    violations.append(
                        f"D={D} target={tag} mode={mode}: empirical min {ext.min_value!r} "
                        f"below bound {rep_lo.bound!r} at N={rep_lo.N_used}"
                    )
                if n == 0:
                    for point, value in ((ext.argmax, ext.max_value), (ext.argmin, ext.min_value)):
                        up, lo = bound_oracle.s0_bound_interval_method(zeros, q, point, N_up, mode)
                        if value > up + slack or value < lo - slack:
                            violations.append(
                                f"D={D} target={tag} mode={mode}: interval-method bound "
                                f"({lo!r}, {up!r}) misses S_0({point!r}) = {value!r}"
                            )
            if mode == config.mode:
                reported = rep_up
        row = {
            "q": q,
            "d": d,
            "D": str(D),
            "c": list(L.c),
            "target": target,
            "n": n,
            "N_used": reported.N_used,
            "mode": reported.mode,
            "main_term": reported.main_term,
            "tail_term": reported.tail_term,
            "rigorous_bound": reported.bound,
            "empirical_max": ext.max_value,
            "argmax": ext.argmax,
            "ratio": ext.max_value / envelope(q, d, target, n, "upper"),
        }
        rows.append(row)
    return rows, violations


def scan(moduli, config):
    """(rows, violations) of the per-modulus scan over moduli, in order."""
    rows, violations = [], []
    for D in moduli:
        r, v = scan_one(D, config)
        rows.extend(r)
        violations.extend(v)
    return rows, violations
