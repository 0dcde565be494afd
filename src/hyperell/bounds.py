"""Executable bounds: one-sided polynomial sums over zeros vs empirical extrema.

For a target written as F(theta) = sum_j G(theta - theta_j) over the zero
angles, a certified one-sided polynomial W of G of degree N gives

    F(theta) <= 2g W-hat(0) + sum_{k != 0} |W-hat(k)| w_k,

where w_k is either the a-priori power-sum estimate q^(|k|/2) ("weil"
mode, the proof as stated) or the computed |sum_j e(k theta_j)| ("exact"
mode, sharper and still valid).  Lower bounds flip the construction side.
The symmetric-interval route bounds the order-0 argument sum through the
zero counter of [-theta, theta] and interval indicator polynomials.

Ensemble scans run the full pipeline per squarefree modulus, compare every
empirical extremum against its rigorous bound in both modes, and report
ratios to the asymptotic envelopes without ever asserting them: the o(1)
corrections are unknowable at desk scale.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from itertools import permutations, repeat
from typing import NamedTuple

import numpy as np

from .argfunc import column_sums, fractional_parts, jump_limits, zero_sums
from .bernoulli import TABLE, bernoulli_envelope_constants
from .charsum import Character
from .errors import ConsistencyError, ResourceLimitError
from .fqpoly import ENUMERATION_BUDGET, FieldSpec, Poly, enumerate_Hd
from .lfunc import ZeroAngles, block_lpolynomials, block_zero_angles
from .onesided import _interval_coefficients, block_one_sided

TWO_PI = 2.0 * math.pi

SOUNDNESS_SLACK = 1e-9
DEFAULT_GRID = 2**14
DEFAULT_N_CAP = 8
SCAN_TARGETS = ("logmod", "s:0", "s:1", "s:2")
SCAN_BLOCK = 16  # moduli whose extrema a scan computes together
_GRID_SLICE = 2048  # grid rows per fractional-part matrix
_CELLS = 8  # grid cells _top_cells picks per (modulus, target, side)
_COARSE = 16  # grid step of the coarse pass of block_extrema
_CELL_EPS = 1e-12  # rounding allowance of a cell bound, per zero angle
_NEAR_ZERO = 1e-6  # log|L| cells this close to a zero angle are always evaluated
_MAX_TIED = 6  # unblocked equal values one level may order, past which a triple runs slow
_MAX_STATES = 64  # reachable pick sets per triple, past which it runs slow


def parse_target(tag: str) -> tuple[str, int | None]:
    if tag == "logmod":
        return "logmod", None
    if tag.startswith("s:"):
        n = _spec_int(tag, "scan target", "logmod or s:n")
        if n < 0:
            raise ValueError(f"argument-sum order must be >= 0, got {n}")
        return "s", n
    raise ValueError(f"unknown scan target {tag!r} (expected logmod or s:n)")


def _spec_int(spec: str, what: str, form: str) -> int:
    """The integer after the first colon of spec; a ValueError that names
    spec and its accepted form if there is none."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"{what} must be {form}, got {spec!r}") from None


def degree_choice(q: int, d: int, n: int) -> int:
    """Polynomial degree from the asymptotic recipe, clamped at zero:
    N = floor(2 log_q d - (2n+6) log_q log_q d)."""
    if d <= 1:
        return 0
    logq_d = math.log(d) / math.log(q)
    if logq_d <= 0.0:
        return 0
    loglog = math.log(logq_d) / math.log(q)
    return max(0, math.floor(2.0 * logq_d - (2 * n + 6) * loglog))


def envelope(q: int, d: int, target: str, n: int | None, side: str) -> float:
    """Asymptotic envelope the ratios are reported against (never asserted)."""
    logq_d = math.log(d) / math.log(q)
    if target == "logmod":
        return (math.log(2.0) / 2.0) * d / logq_d
    a_minus, a_plus = bernoulli_envelope_constants(n)
    const = (a_plus if side == "upper" else a_minus) / TWO_PI**n
    return const * d / logq_d ** (n + 1)


@dataclass(frozen=True)
class BoundReport:
    """One rigorous bound evaluation."""

    target: str
    n: int | None
    side: str  # upper | lower
    mode: str  # weil | exact
    q: int
    d: int
    g: int
    N_used: int
    main_term: float
    tail_term: float
    bound: float


def _one_sided_fourier(degrees: dict) -> dict:
    """{key: {N: (W-hat(0), |W-hat(k)| for k = 1..N)}} of a one-sided
    polynomial of G for every key (target, n, side) of degrees and each of
    its degrees N, all constructed in one block (block_one_sided).

    logmod takes the log-sine majorant.  The argument sums have
    G = -PB_(n+1)/(n+1)!, so S_n takes the Bernoulli polynomial of the
    other side, scaled by -1/(n+1)!."""
    wanted = [(key, N) for key, Ns in degrees.items() for N in Ns]
    if any(target == "logmod" and side != "upper" for target, _, side in degrees):
        raise ValueError("the log-modulus has no finite lower envelope: it is -inf at zeros")
    results = block_one_sided(
        [
            ("log2sin", "majorant", N)
            if target == "logmod"
            else (f"bernoulli:{n + 1}", "minorant" if side == "upper" else "majorant", N)
            for (target, n, side), N in wanted
        ]
    )
    out = {key: {} for key in degrees}
    for ((target, n, side), N), res in zip(wanted, results):
        scale = 1 if target == "logmod" else -math.factorial(n + 1)
        out[target, n, side][N] = res.poly.mean / scale, res.poly.abs_fourier() / abs(scale)
    return out


def _tail_weights(q: int, N: int, mode: str, zero_sets: list[ZeroAngles] | None = None) -> np.ndarray:
    """w_1..w_N as rows: one row shared by every modulus in weil mode, one
    row per zero set in exact mode.  w_k does not depend on N, so a prefix
    serves every lower degree.

    Exact mode takes all power sums sum_j e(k theta_j) of the zero sets
    from one zero-major matrix of the angles (2 pi k) theta_j, whose
    cosines and sines column_sums adds as np.sum adds a zero set's 2g
    terms; conjugate symmetry makes every imaginary part vanish, so one
    above 1e-9 raises.
    """
    ks = np.arange(1, N + 1, dtype=float)
    if mode == "weil":
        return (np.asarray(q) ** (ks / 2.0))[None, :]
    if mode != "exact":
        raise ValueError(f"unknown bound mode {mode!r} (expected weil or exact)")
    if zero_sets is None:
        raise ValueError("exact mode needs the computed zero angles")
    theta = np.array([zeros.theta for zeros in zero_sets], dtype=float)
    count = theta.shape[1]
    ang = (theta.T[:, :, None] * (TWO_PI * np.arange(1, N + 1))).reshape(count, len(theta) * N)
    im = column_sums(np.sin(ang))
    bad = np.flatnonzero(np.abs(im) > 1e-9)
    if len(bad):
        k = int(bad[0]) % N + 1
        raise ConsistencyError(f"power sum k={k} has imaginary part {im[bad[0]]:.3e}")
    return np.abs(column_sums(np.cos(ang))).reshape(len(zero_sets), N)


def _select_bounds(
    g: int, q: int, key: tuple, mode: str, degrees, fourier: dict, weights: np.ndarray
) -> list[BoundReport]:
    """The bound 2g W-hat(0) +/- sum |W-hat(k)| w_k for key = (target, n,
    side), one report per row of weights (w_1.. up to the largest degree),
    each at the first degree in degrees that minimizes the bound's
    magnitude (a later degree must win by more than 1e-15).

    fourier maps every degree N in degrees to (W-hat(0), |W-hat(k)| for
    k = 1..N).  The degrees run as a loop with arrays over the rows: one
    np.vecdot per degree sums each row in the order of absw @ w[:N].
    """
    target, n, side = key
    best = np.full(len(weights), math.inf)
    picked = np.zeros(len(weights), dtype=int)
    terms = []
    for i, N in enumerate(degrees):
        w0, absw = fourier[N]
        main = 2.0 * g * w0
        tail = 2.0 * np.vecdot(weights[:, :N], absw) if N > 0 else np.zeros(len(weights))
        bound = main + tail if side == "upper" else main - tail
        val = bound if side == "upper" else -bound
        better = val < best - 1e-15
        best = np.where(better, val, best)
        picked[better] = i
        terms.append((N, main, tail.tolist(), bound.tolist()))
    reports = []
    for row, i in enumerate(picked.tolist()):
        N, main, tail, bound = terms[i]
        reports.append(
            BoundReport(target, n, side, mode, q, 2 * g + 1, g, N, main, tail[row], bound[row])
        )
    return reports


def rigorous_bound(
    zeros: ZeroAngles, q: int, target: str, n: int | None, side: str, N: int, mode: str = "weil"
) -> BoundReport:
    """Evaluate the bound 2g W-hat(0) +/- sum |W-hat(k)| w_k at degree N.

    Moduli have odd degree throughout (scans and lpoly reject even d), so
    the modulus degree is d = 2g + 1."""
    weights = _tail_weights(q, N, mode, [zeros])
    key = (target, n, side)
    fourier = _one_sided_fourier({key: [N]})[key]
    return _select_bounds(zeros.count // 2, q, key, mode, [N], fourier, weights)[0]


def _candidate_degrees(policy: str, q: int, d: int, n: int | None):
    """The degrees a policy chooses among: formula and fixed:N name one,
    exhaustive tries 0 up to DEFAULT_N_CAP or the formula's degree,
    whichever is larger."""
    if policy == "formula":
        return [degree_choice(q, d, n or 0)]
    if policy.startswith("fixed:"):
        N = _spec_int(policy, "degree policy", "formula, exhaustive or fixed:N")
        if N < 0:
            raise ValueError(f"a fixed degree must be >= 0, got {N}")
        return [N]
    if policy != "exhaustive":
        raise ValueError(f"unknown degree policy {policy!r}")
    return range(max(DEFAULT_N_CAP, degree_choice(q, d, n or 0)) + 1)


def choose_degree(
    policy: str,
    q: int,
    d: int,
    target: str,
    n: int | None,
    side: str,
    mode: str,
    zeros: ZeroAngles,
) -> int:
    """Resolve the degree policy: formula, fixed:N, or exhaustive.

    Exhaustive minimizes the rigorous bound magnitude over its candidate
    degrees (they always cover the formula degree, so exhaustive is never
    worse), each bound summed as rigorous_bound sums it, from one table of
    weights w_k: a block of one (_select_bounds)."""
    degrees = _candidate_degrees(policy, q, d, n)
    if policy != "exhaustive":
        return degrees[0]
    weights = _tail_weights(q, degrees[-1], mode, [zeros])
    key = (target, n, side)
    fourier = _one_sided_fourier({key: degrees})[key]
    return _select_bounds(zeros.count // 2, q, key, mode, degrees, fourier, weights)[0].N_used


# ---------------------------------------------------------------------------
# Empirical extrema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalExtrema:
    max_value: float
    argmax: float
    min_value: float | None
    argmin: float | None


def _vector_golden_max(f, centers: np.ndarray, half_width: float):
    """Golden-section maxima around several centers at once, 30 steps each."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a = centers - half_width
    b = centers + half_width
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(30):
        take = fc >= fd
        b = np.where(take, d, b)
        a = np.where(take, a, c)
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc, fd = f(c), f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def _top_cells(vals: np.ndarray) -> np.ndarray:
    """The indices of the _CELLS largest values, at least 4 apart, greedily
    from the largest, in the order of np.argsort: the picks the pruned grid
    of block_extrema reproduces, taken from a full grid on its slow path."""
    order = np.argsort(vals)[::-1]
    picked: list[int] = []
    for idx in order:
        if all(abs(int(idx) - p) >= 4 for p in picked):
            picked.append(int(idx))
        if len(picked) >= _CELLS:
            break
    return np.asarray(picked, dtype=int)


def _s0_extrema(zeros: ZeroAngles, grid: np.ndarray) -> EmpiricalExtrema:
    """Extrema of S_0 over the grid and the one-sided limits at its jumps,
    as the first maximum and minimum of the grid values in index order
    followed by the left and then the right limits.

    Only the ends of the arcs between zeros are evaluated.  Off the zero
    angles S_0(theta) = g - sum_j frac(theta - theta_j) is affine with
    slope -2g, so along a run of grid indices with no zero angle between
    them it falls by 2g/grid_size per step, orders of magnitude more than
    its rounding error (about 2g(g+1) 2^-52 for any grid below 2^40
    points): the computed values fall strictly.  Each run starts at index
    0 or just past a zero angle and ends at the last index or just before
    one, so every other index is beaten by its run's first point and
    beats its run's last.  The kept indices, ascending, are 0, the last
    index, and k-1, k, k+1 for the last grid point k at or below each zero
    angle (k itself when a zero sits on the grid); the first extremum among
    them is the first extremum of the whole grid.
    """
    angles, left, right = jump_limits(zeros)
    keep = np.zeros(len(grid), dtype=bool)
    keep[[0, -1]] = True
    below = np.searchsorted(grid, np.asarray(zeros.theta, dtype=float), side="right") - 1
    for shift in (-1, 0, 1):
        k = below + shift
        keep[k[(k >= 0) & (k < len(grid))]] = True
    points = grid[keep]
    cand_vals = np.concatenate([zero_sums(fractional_parts(points, zeros.theta), 0), left, right])
    cand_args = np.concatenate([points, angles, angles])
    hi = int(np.argmax(cand_vals))
    lo = int(np.argmin(cand_vals))
    return EmpiricalExtrema(
        float(cand_vals[hi]), float(cand_args[hi]), float(cand_vals[lo]), float(cand_args[lo])
    )


def _pick_sets(idx: list[int], vals: list[float]) -> list[tuple[int, ...]] | None:
    """Every set of picks _top_cells can return, whatever order np.argsort
    gives equal values, as sorted tuples; None past _MAX_TIED or
    _MAX_STATES.

    idx and vals list every grid point whose value is at least the last
    pick's, by value descending and index ascending among equals.  The
    greedy takes the levels of equal value in turn, so only the order within
    a level is open, and within it only among the members no earlier pick
    blocks: each reachable set grows by every order of those members.  When
    they are at least 4 apart and all fit, every order takes them all.
    """
    picks, blocked = [], set()  # the one reachable set and the indices within 3 of it
    states = None  # every reachable (picks, blocked), once a level has branched
    start, size = 0, len(idx)
    while start < size:
        stop = start + 1
        while stop < size and vals[stop] == vals[start]:
            stop += 1
        if states is None and stop == start + 1:  # one member: the common case
            i = idx[start]
            start = stop
            if i not in blocked:
                picks.append(i)
                if len(picks) == _CELLS:
                    return [tuple(sorted(picks))]
                blocked.update(range(i - 3, i + 4))
            continue
        level = idx[start:stop]
        start = stop
        if states is None:
            free = [i for i in level if i not in blocked]
            if len(picks) + len(free) <= _CELLS and all(b - a >= 4 for a, b in zip(free, free[1:])):
                for i in free:
                    picks.append(i)
                    blocked.update(range(i - 3, i + 4))
                if len(picks) == _CELLS:
                    return [tuple(sorted(picks))]
                continue
            states = [(picks, blocked)]
        grown = {}
        for picks, blocked in states:
            free = [i for i in level if i not in blocked]
            if len(free) > _MAX_TIED and len(picks) < _CELLS:
                return None
            for order in permutations(free) if len(picks) < _CELLS else [()]:
                new, near = list(picks), set(blocked)
                for i in order:
                    if len(new) < _CELLS and i not in near:
                        new.append(i)
                        near.update(range(i - 3, i + 4))
                grown.setdefault(tuple(sorted(new)), (new, near))
        if len(grown) > _MAX_STATES:
            return None
        states = list(grown.values())
        if all(len(picks) == _CELLS for picks, _ in states):
            return list(grown)
    return None


def _cell_bounds(
    coarse: np.ndarray, theta: np.ndarray, n: int | None, sign: int, grid_size: int, floor
) -> np.ndarray:
    """bound[b, c] >= sign * f at every grid point between coarse points c
    and c + 1 (the last cell ends at index 0, one period on), f = log|L|
    (n None, sign 1) or S_n (n >= 1) of the zero angles theta[b], given
    coarse[b, c] = sign * f at coarse point c as zero_sums computes it.

    A cell [a, b] is at most w = _COARSE / grid_size wide.  If f'' >= -K on
    it, f + K (x - a)(x - b)/2 is convex, so f <= max(f(a), f(b)) + K w^2/8.
    S_n' = S_(n-1), and S_0 falls with slope -2g and jumps up by one at each
    zero angle, so:

    - S_1, upper: S_1'' = -2g between zeros and each zero adds a convex
      kink, so K = 2g and the pad is g w^2/4;
    - S_1, lower: -S_1 is convex between zeros and each zero inside the
      cell adds a concave kink, a delta of mass -1 in -S_1''.  Green's
      function of [a, b] is at most w/4, so the pad is w/4 per zero in
      [a, b);
    - S_n, n >= 2, both sides: |S_n''| = |S_(n-2)| <= 2g max|B_(n-1)|/(n-1)!,
      so K is that and the pad K w^2/8;
    - log|L| = sum_j log 2|sin pi(theta - theta_j)|: its second derivative
      is -pi^2 sum_j csc^2 pi(theta - theta_j), so K = pi^2 sum_j
      csc^2(pi d_j), d_j the nearest circular distance from theta_j to the
      cell, and sin x >= x - x^3/6 bounds each term.  First every d_j is
      taken as the nearest zero's, d; the cells whose bound still reaches
      floor[b] then take the sum itself, or, if smaller, sum_j
      log 2 sin(pi D_j) with D_j the farthest distance: each term is at
      most that, and cos y <= 1 - y^2/2 + y^4/24 at y = pi (1/2 - D_j)
      bounds the sine.  A cell within _NEAR_ZERO of a zero angle gets +inf:
      it is always evaluated.

    Every bound adds _CELL_EPS per zero angle for the rounding of the
    three values it compares (and each distance is pushed 1e-15 the safe
    way); log|L| also adds 2^-50 / d_j per zero, the error of a term whose
    computed fractional part is off by an ulp.
    """
    blocks, count = theta.shape
    g = count // 2
    step = _COARSE / grid_size
    top = np.maximum(coarse, np.roll(coarse, -1, axis=1)) + _CELL_EPS * count
    if n is not None and n >= 2:
        curvature = 2.0 * g * max(map(abs, TABLE.extrema(n - 1))) / math.factorial(n - 1)
        return top + curvature * step**2 / 8.0
    if n == 1 and sign > 0:
        return top + g * step**2 / 4.0
    left = np.arange(0, grid_size, _COARSE) / float(grid_size)
    if n == 1:
        kinks = np.zeros(coarse.shape)
        cell = np.searchsorted(left, theta.reshape(-1), side="right") - 1
        np.add.at(kinks, (np.repeat(np.arange(blocks), count), cell), 1.0)
        return top + kinks * (step / 4.0)
    if not count:
        return top
    right = np.append(left[1:], 1.0)
    nearest = np.empty(coarse.shape)  # d: from the cell to the nearest zero angle
    for b, zeros in enumerate(np.sort(theta, axis=1)):
        before = np.searchsorted(zeros, left, side="right") - 1  # the last zero <= a
        after = np.searchsorted(zeros, right, side="left")  # the first zero >= b
        back = left - zeros[before] + (before < 0)
        ahead = np.where(after < count, zeros[after % count], zeros[0] + 1.0) - right
        nearest[b] = np.where(after > before + 1, 0.0, np.minimum(back, ahead))
    nearest -= 1e-15
    near = nearest < _NEAR_ZERO
    x = math.pi * nearest
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = top + count * (math.pi * step) ** 2 / 8.0 / (x * (1.0 - x * x / 6.0)) ** 2
        bound += count * 2.0**-50 / nearest
    bound[near] = np.inf
    rows, cols = np.nonzero((bound >= np.broadcast_to(floor, (blocks,))[:, None]) & ~near)
    zeros = theta[rows].T  # (zeros, cells), no zero angle inside its cell
    width = right[cols] - left[cols]
    ahead = zeros - left[cols]  # theta_j - a, mod 1
    ahead -= np.floor(ahead)
    past = ahead - width  # theta_j - b, mod 1
    past -= np.floor(past)
    antipode = ahead + 0.5
    antipode -= np.floor(antipode)
    apart = np.minimum(past, 1.0 - ahead) - 1e-15
    farthest = np.maximum(np.minimum(ahead, 1.0 - ahead), np.minimum(past, 1.0 - past))
    farthest[antipode <= width] = 0.5
    x = math.pi * apart
    y = np.maximum(0.5 - 1e-15 - farthest, 0.0) * math.pi
    y *= y
    curvature = (1.0 / (x * (1.0 - x * x / 6.0)) ** 2).sum(axis=0) * (math.pi * step) ** 2 / 8.0
    summit = np.log(2.0 - y + y * y / 12.0).sum(axis=0) + _CELL_EPS * count
    sharp = np.minimum(top[rows, cols] + curvature, summit) + 2.0**-50 * (1.0 / apart).sum(axis=0)
    bound[rows, cols] = np.minimum(bound[rows, cols], sharp)
    return bound


def _full_grid(theta: np.ndarray, n: int | None, grid: np.ndarray) -> np.ndarray:
    """log|L| (n None; -inf off the finite values) or S_n on the whole grid,
    in slices of _GRID_SLICE points."""
    vals = np.empty(len(grid))
    for start in range(0, len(grid), _GRID_SLICE):
        stop = start + _GRID_SLICE
        zero_sums(fractional_parts(grid[start:stop], theta), n, out=vals[start:stop])
    return np.where(np.isfinite(vals), vals, -np.inf) if n is None else vals


def _coarse_plans(theta: np.ndarray, orders: list[int | None], grid: np.ndarray) -> dict:
    """Steps 1-4 of block_extrema for the zero angles theta[b]: (b, k,
    sign) -> (pick sets or None past the caps, candidates (indices, values),
    max, first argmax) of sign * f, f the target of orders[k]."""
    size, blocks = len(grid), len(theta)
    coarse = np.arange(0, size, _COARSE)
    cells = len(coarse)
    frac = fractional_parts(np.tile(grid[coarse], blocks), np.repeat(theta.T, cells, axis=1))
    plans = {}
    for k, n in enumerate(orders):
        vals = zero_sums(frac, n).reshape(blocks, cells)
        if n is None:
            vals = np.where(np.isfinite(vals), vals, -np.inf)
        sides, need = [], np.zeros((blocks, cells), dtype=bool)
        for sign in (1,) if n is None else (1, -1):
            signed = vals if sign > 0 else -vals
            floor = np.partition(signed, cells - _CELLS, axis=1)[:, cells - _CELLS]
            need |= _cell_bounds(signed, theta, n, sign, size, floor) >= floor[:, None]
            sides.append((sign, signed, floor))
        rows, cols = np.nonzero(need)
        points = (coarse[cols][:, None] + np.arange(1, _COARSE)).reshape(-1)
        owner = np.repeat(rows, _COARSE - 1)
        points, owner = points[points < size], owner[points < size]
        fine = zero_sums(fractional_parts(grid[points], np.ascontiguousarray(theta[owner].T)), n)
        if n is None:
            fine = np.where(np.isfinite(fine), fine, -np.inf)
        for sign, signed, floor in sides:
            fine_signed = fine if sign > 0 else -fine
            hit, fine_hit = signed >= floor[:, None], fine_signed >= floor[owner]
            hit_rows, hit_cols = np.nonzero(hit)
            b_all = np.concatenate([hit_rows, owner[fine_hit]])
            i_all = np.concatenate([coarse[hit_cols], points[fine_hit]])
            v_all = np.concatenate([signed[hit], fine_signed[fine_hit]])
            order = np.lexsort((i_all, -v_all, b_all))
            cuts = np.searchsorted(b_all[order], np.arange(blocks + 1)).tolist()
            i_all, v_all = i_all[order].tolist(), v_all[order].tolist()
            for b in range(blocks):
                idx, val = i_all[cuts[b] : cuts[b + 1]], v_all[cuts[b] : cuts[b + 1]]
                # an extremum of 0.0 takes the slow path: whether it reads
                # 0.0 or -0.0 is up to numpy's max
                sets = _pick_sets(idx, val) if val[0] != 0.0 else None
                plans[b, k, sign] = (sets, (idx, val), val[0], idx[0])
    return plans


def _grid_extrema(zero_sets: list[ZeroAngles], orders: list[int | None], grid: np.ndarray):
    """(sides, slow): sides[b, k, sign] is (value, argument) of the maximum
    of sign * f for f = log|L| (orders[k] None, sign 1 only) or S_n (orders[k]
    = n >= 1, signs 1 and -1) of zero_sets[b]; slow lists the triples
    (b, k, sign) that took the slow path.  See block_extrema."""
    size, blocks, count = len(grid), len(zero_sets), zero_sets[0].count
    theta = np.array([zeros.theta for zeros in zero_sets], dtype=float).reshape(blocks, count)
    # coarse passes of at most DEFAULT_GRID points, or of one zero set, so
    # memory grows with grid_size and not with grid_size times the block
    per = max(1, DEFAULT_GRID * _COARSE // size)
    plans = {}
    for lo in range(0, blocks, per):
        for (b, k, sign), plan in _coarse_plans(theta[lo : lo + per], orders, grid).items():
            plans[lo + b, k, sign] = plan

    def slow_picks(b, k, sign):
        """The full grid's picks of _top_cells, maximum and first argmax."""
        vals = _full_grid(theta[b], orders[k], grid)
        if sign > 0:
            return tuple(_top_cells(vals).tolist()), vals.max(), int(np.argmax(vals))
        return tuple(_top_cells(-vals).tolist()), -vals.min(), int(np.argmin(vals))

    slow = {}  # (b, k, sign) -> its picks, on the slow path
    for key, (sets, _, _, _) in plans.items():
        if sets is None:  # past the caps
            slow[key], top, first = slow_picks(*key)
            plans[key] = (None, None, top, first)

    # lanes: per order, every pick of its upper sides, then of its lower sides
    lane_b, lane_i, spans, where = [], [], [], {}
    for k, n in enumerate(orders):
        lo = len(lane_b)
        for sign in (1, -1):
            if sign < 0:
                mid = len(lane_b)
            for b in range(blocks):
                if (b, k, sign) in plans:
                    sets = plans[b, k, sign][0]
                    picks = slow[b, k, sign] if sets is None else sorted(set().union(*sets))
                    where[b, k, sign] = dict(zip(picks, range(len(lane_b), len(lane_b) + len(picks))))
                    lane_b.extend([b] * len(picks))
                    lane_i.extend(picks)
        spans.append((lo, mid, len(lane_b), n))
    cols = np.ascontiguousarray(theta[lane_b].T)

    def f(x):
        frac = fractional_parts(x, cols)
        fx = np.empty(len(x))
        for lo, mid, hi, n in spans:
            zero_sums(frac[:, lo:hi], n, out=fx[lo:hi])
            np.negative(fx[mid:hi], out=fx[mid:hi])
        return fx

    xs, fx = _vector_golden_max(f, grid[lane_i], 1.0 / size)
    refined = fx.tolist()

    def outcome(picks, known, top, lanes):
        """The lane a pick set refines to, "grid" when the grid maximum
        wins, None when the tie order among equal grid values decides."""
        best = max(refined[lanes[i]] for i in picks)
        if not best >= top:
            return "grid"
        tied = [i for i in picks if refined[lanes[i]] == best]
        if len(tied) > 1:
            value = dict(zip(*known))
            highest = max(value[i] for i in tied)
            tied = [i for i in tied if value[i] == highest]
        return tied[0] if len(tied) == 1 else None

    sides = {}
    for key, (sets, known, top, first) in plans.items():
        lanes = where[key]
        results = {None} if sets is None else {outcome(picks, known, top, lanes) for picks in sets}
        if len(results) > 1 or None in results:  # the tie order decides: the slow path
            if key not in slow:
                slow[key], top, first = slow_picks(*key)
                if not lanes.keys() >= set(slow[key]):
                    raise ConsistencyError(f"grid picks {slow[key]} fell outside the certified cells")
            won = slow[key][int(np.argmax([refined[lanes[i]] for i in slow[key]]))]
            results = {won if refined[lanes[won]] >= top else "grid"}
        (won,) = results
        if won == "grid":
            sides[key] = (float(top), float(grid[first]))
        else:
            sides[key] = (float(fx[lanes[won]]), float(xs[lanes[won]] % 1.0))
    return sides, list(slow)


def block_extrema(
    zero_sets: list[ZeroAngles], targets: list[tuple[str, int | None]], grid_size: int = DEFAULT_GRID
) -> list[list[EmpiricalExtrema]]:
    """Grid extrema refined by golden section around the best cells, for
    a block of zero sets of one count and (target, n) pairs as parse_target
    gives them; one list per zero set, aligned with targets.

    The values are those of the full grid i/grid_size: the maximum of
    sign * f and its first index, then golden-section maxima (30 steps,
    half-width one grid step) around the _CELLS picks of _top_cells, the
    largest grid values at least 4 apart in np.argsort order; the first
    best lane wins when it is not below the grid maximum.  Lower sides are
    the maxima of -f.  A (modulus, target, side), a triple, reaches them
    without the full grid:

    1. Coarse pass: every _COARSE-th grid point, for the whole block in
       fractional-part matrices of at most DEFAULT_GRID columns (or one
       zero set's).  A column's value does not depend on the others', so
       these are the full grid's own values.  Let T0 be the
       _CELLS-th largest.  Each pick blocks 7 indices, which hold at most
       one coarse point, so every pick is at least T0 in every tie order.
    2. Cell bounds (_cell_bounds): a proven upper bound on every grid value
       between two coarse points.
    3. Fine pass: the cells whose bound reaches T0, all of the block's at
       once.  Every grid point valued T0 or more is then known.
    4. Tie-order closure (_pick_sets): np.argsort's order among equal values
       depends on the whole array and numpy's SIMD sort kernel, and ties are
       the rule (mirror twins of the even targets), so every pick set the
       greedy can reach is enumerated.  The union of their picks is refined,
       as lanes of one search for the block with its own column of zeros each.
    5. Decision: if every reachable set refines to the same lane (exactly
       tied refined values go to the larger grid value, the earlier pick),
       or every set loses to the grid maximum, that is the result.
       Otherwise, or past the closure's caps, the triple takes the slow
       path: its full grid (_full_grid) and the _top_cells picks.  The
       slow path is the only user of _top_cells and of the full grid; a
       canonical tie order among equal values (ROADMAP Direction 13) would
       remove it.

    Every step is elementwise or a sum down one column, so a modulus's
    extrema do not depend on its block.

    The order-0 argument sum decreases between its upward jumps, so its
    supremum and infimum live at one-sided limits of the jumps; those are
    evaluated exactly and merged with its extrema on the grid, which are
    read off the ends of the arcs between zeros (_s0_extrema).
    """
    if grid_size < 2**10:
        raise ValueError(f"grid_size must be >= 1024, got {grid_size}")
    for target, n in targets:
        if target not in ("logmod", "s") or (target == "s" and (n is None or n < 0)):
            raise ValueError(f"unknown target {target!r} of order {n!r}")
    if len({zeros.count for zeros in zero_sets}) > 1:
        raise ValueError("a block takes zero sets of one count")
    grid = np.arange(grid_size) / float(grid_size)
    orders = [None if target == "logmod" else n for target, n in targets]
    on_grid = [t for t, n in enumerate(orders) if n != 0]
    out = [[None] * len(targets) for _ in zero_sets]
    if on_grid and zero_sets:
        sides, _ = _grid_extrema(zero_sets, [orders[t] for t in on_grid], grid)
        for b in range(len(zero_sets)):
            for k, t in enumerate(on_grid):
                hi, x_hi = sides[b, k, 1]
                lo, x_lo = sides.get((b, k, -1), (None, None))
                out[b][t] = EmpiricalExtrema(hi, x_hi, None if lo is None else -lo, x_lo)
    for t, n in enumerate(orders):
        if n == 0:
            for b, zeros in enumerate(zero_sets):
                out[b][t] = _s0_extrema(zeros, grid)
    return out


def empirical_extrema(
    zeros: ZeroAngles, target: str, n: int | None, grid_size: int = DEFAULT_GRID
) -> EmpiricalExtrema:
    """Extrema of one target for one modulus: a block of one (block_extrema)."""
    return block_extrema([zeros], [(target, n)], grid_size)[0][0]


# ---------------------------------------------------------------------------
# Symmetric-interval route for the order-0 argument sum
# ---------------------------------------------------------------------------


def _sawtooth_pairs(degrees) -> dict:
    """{N: (minorant, majorant)} of the sawtooth B1 at each distinct degree,
    all constructed in one block (block_one_sided)."""
    Ns = sorted(set(degrees))
    keys = [("sawtooth", side, N) for N in Ns for side in ("minorant", "majorant")]
    polys = [res.poly for res in block_one_sided(keys)]
    return {N: (polys[2 * i], polys[2 * i + 1]) for i, N in enumerate(Ns)}


def _s0_interval_bounds(g: int, points, degrees, weights, sawtooth=None) -> list[tuple[float, float]]:
    """(upper, lower) of s0_bound_interval_method at each point, with its
    degree and its row of weights w_1.. (at least that many).

    sawtooth maps each degree to the sawtooth pair (P-, P+) of that degree
    (_sawtooth_pairs, which is also the default); a scan passes its bound
    layer's.  A point t in [0, 1/2] (odd symmetry folds the others) takes
    the mean and the |V-hat(k)| of the composed pair
    V-+ = 2t + P-+(-t - theta) + P-+(theta - t) straight from their
    coefficients, for all points of one degree at once: the arithmetic of
    interval_poly_block's composition and of TrigPoly.abs_fourier, with no
    polynomial built.  Each tail is one 1-D product against w_1..w_N.

    Why the pair needs no check of its own: with B1 the sawtooth (0 at the
    integers) and 0 <= b - a <= 1, the identity

        1_[a, b](theta) = (b - a) + B1(a - theta) + B1(theta - b)

    holds at every theta, the ends included (1/2 on both sides).  So

        V+(theta) - 1_[a, b](theta) = (P+ - B1)(a - theta) + (P+ - B1)(theta - b)

    is at least twice the majorant's certified margin, and 1_[a, b] - V- at
    least twice the minorant's.  block_one_sided raises on a margin below
    -_CERT_TOL (1e-12), so the exact composition is one-sided within
    2e-12.  The computed coefficients are each a few roundings of numbers
    below 1 in size, and V-+ moves by at most the sum of their errors: a
    few ulps per harmonic, under 1e-14 at N = 100 against 40-digit
    arithmetic.  That is well inside the 1e-11 of
    onesided._certify_intervals, which still checks extremal --target
    interval:a:b on a grid.  An error e in V-+ moves a bound by at most
    g e, far below the scan's soundness slack.
    """
    folded = []
    for theta in points:
        t = theta - math.floor(theta)
        folded.append((1.0 - t, True) if t > 0.5 else (t, False))
    if sawtooth is None:
        sawtooth = _sawtooth_pairs(degrees)
    out = [None] * len(folded)
    for N in sorted(set(degrees)):
        rows = [i for i, M in enumerate(degrees) if M == N]
        ts = np.array([folded[i][0] for i in rows], dtype=float)
        sides = []
        for saw in sawtooth[N]:
            mean, cos, sin = _interval_coefficients(saw, -ts, ts)
            sides.append((mean.tolist(), np.hypot(cos, sin) / 2.0))
        (minor_mean, minor_abs), (major_mean, major_abs) = sides
        for j, i in enumerate(rows):
            t, flip = folded[i]
            w = weights[i][:N]
            tail_plus = 2.0 * float(major_abs[j] @ w) if N > 0 else 0.0
            tail_minus = 2.0 * float(minor_abs[j] @ w) if N > 0 else 0.0
            upper = 0.5 * (2.0 * g * (major_mean[j] - 2.0 * t) + tail_plus)
            lower = 0.5 * (2.0 * g * (minor_mean[j] - 2.0 * t) - tail_minus)
            out[i] = (-lower, -upper) if flip else (upper, lower)
    return out


def s0_bound_interval_method(
    zeros: ZeroAngles, q: int, theta: float, N: int, mode: str = "weil"
) -> tuple[float, float]:
    """(upper, lower) bounds on S_0(theta) through the zero counter of the
    symmetric interval [-theta, theta]:

        2 S(theta) = -4g theta + N([-theta, theta])

    then the interval indicator is replaced by its one-sided polynomials,
    whose mean gap 1/(N+1) does not depend on theta.  Odd symmetry reduces
    any angle to [0, 1/2].  A block of one (_s0_interval_bounds)."""
    weights = _tail_weights(q, N, mode, [zeros])
    return _s0_interval_bounds(zeros.count // 2, [theta], [N], weights)[0]


# ---------------------------------------------------------------------------
# Ensemble scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    q: int
    d: int
    targets: tuple[str, ...] = SCAN_TARGETS
    sample: str = "all"  # all | random:m
    seed: int = 0
    policy: str = "exhaustive"  # formula | exhaustive | fixed:N
    mode: str = "weil"  # mode written to rows; both modes always checked
    grid_size: int = DEFAULT_GRID
    soundness_slack: float = SOUNDNESS_SLACK
    threads: int | None = None

    def __post_init__(self):
        FieldSpec(self.q)  # validates q odd prime
        if self.d % 2 == 0 or self.d < 3:
            raise ValueError(f"scans need odd degree d >= 3, got {self.d}")
        for tag in self.targets:
            parse_target(tag)
        _candidate_degrees(self.policy, self.q, self.d, None)  # raises on a bad policy
        if self.mode not in ("weil", "exact"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.grid_size < 2**10:
            raise ValueError("grid_size must be >= 1024")
        if self.grid_size > ENUMERATION_BUDGET:
            raise ResourceLimitError(
                f"grid_size {self.grid_size} exceeds the budget of {ENUMERATION_BUDGET} grid points"
            )
        if not (math.isfinite(self.soundness_slack) and self.soundness_slack >= 0):
            raise ValueError(f"soundness slack must be finite and >= 0, got {self.soundness_slack!r}")
        _sample_count(self.sample)  # raises on a bad sample spec


def _sample_count(sample: str) -> int | None:
    """The m of a random:m sample spec, None for all; raises ValueError
    naming any other spec."""
    if sample == "all":
        return None
    if not sample.startswith("random:"):
        raise ValueError(f"sample must be all or random:m, got {sample!r}")
    count = _spec_int(sample, "sample", "all or random:m")
    if count < 0:
        raise ValueError(f"sample size must be >= 0, got {sample!r}")
    return count


ROW_FIELDS = (
    "q",
    "d",
    "D",
    "c",
    "target",
    "n",
    "N_used",
    "mode",
    "main_term",
    "tail_term",
    "rigorous_bound",
    "empirical_max",
    "argmax",
    "ratio",
)


@dataclass
class ScanResult:
    config: ScanConfig
    table: list[tuple]  # one tuple per row, in ROW_FIELDS order
    violations: list[str]
    aggregates: dict

    @property
    def rows(self) -> list[dict]:
        """The rows as dicts keyed by ROW_FIELDS, c as a list, built on each
        access.  A scan holds its rows as tuples, which take a third of the
        memory of dicts and which the garbage collector stops tracking."""
        return [dict(zip(ROW_FIELDS, row), c=list(row[3])) for row in self.table]


def sample_moduli(config: ScanConfig) -> list[Poly]:
    """The scan's modulus list, ascending encoding order, deterministic."""
    field = FieldSpec(config.q)
    count = _sample_count(config.sample)
    if count is None:
        return list(enumerate_Hd(field, config.d))
    import random as _random

    total = config.q**config.d - config.q ** (config.d - 1)
    if count > total:
        raise ValueError(f"requested {count} moduli but the ensemble has {total}")
    rng = _random.Random(config.seed)
    from .fqpoly import _squarefree_tuple

    picked: set[int] = set()
    while len(picked) < count:
        enc = rng.randrange(config.q**config.d)
        if enc in picked:
            continue
        f = Poly.decode_monic(field, config.d, enc)
        if _squarefree_tuple(f.coeffs, config.q):
            picked.add(enc)
    return [Poly.decode_monic(field, config.d, e) for e in sorted(picked)]


class _BoundLayer(NamedTuple):
    """What a scan's bound layer shares across its chunks and blocks, and
    with later scans of the same (q, d, targets, policy)."""

    degrees: dict  # (target, n, side) -> the candidate degrees of the policy
    fourier: dict  # key -> {N: (W-hat(0), |W-hat(k)| for k = 1..N)}
    weil_weights: np.ndarray  # w_1..w_top for the largest candidate degree top
    weil: dict  # key -> weil-mode report: it depends on the zeros only via 2g
    sawtooth: dict  # N -> the sawtooth pair, at each degree of S_0's checks


def _bound_layer(config: ScanConfig) -> _BoundLayer:
    """The scan's bound layer for moduli of degree config.d = 2g + 1: built
    before the pool forks, once per (q, d, targets, policy) in a process
    (_shared_layer), and shared by every later scan of the same four."""
    return _shared_layer(config.q, config.d, tuple(config.targets), config.policy)


@functools.cache
def _shared_layer(q: int, d: int, targets: tuple[str, ...], policy: str) -> _BoundLayer:
    """The bound layer of _bound_layer, its arrays read-only.

    It constructs every one-sided polynomial of its keys at their candidate
    degrees in one block.  These include the S_0 interval checks' sawtooth
    pair (bernoulli:1 on both sides at S_0's degrees), so the workers
    inherit every construction certified."""
    keys = list(
        dict.fromkeys(
            (target, n, side)
            for target, n in map(parse_target, targets)
            for side in (("upper",) if target == "logmod" else ("upper", "lower"))
        )
    )
    degrees = {key: _candidate_degrees(policy, q, d, key[1]) for key in keys}
    fourier = _one_sided_fourier(degrees)
    for by_degree in fourier.values():
        for _, absw in by_degree.values():
            absw.setflags(write=False)
    top = max((max(degrees[key]) for key in keys), default=0)
    weil_weights = _tail_weights(q, top, "weil")
    weil_weights.setflags(write=False)
    weil = {
        key: _select_bounds((d - 1) // 2, q, key, "weil", degrees[key], fourier[key], weil_weights)[0]
        for key in keys
    }
    sawtooth = _sawtooth_pairs(degrees.get(("s", 0, "upper"), ()))
    return _BoundLayer(degrees, fourier, weil_weights, weil, sawtooth)


def _block_reports(zero_sets: list[ZeroAngles], config: ScanConfig, layer: _BoundLayer):
    """(weights, reports) for a block of zero sets of one count: the tail
    weights w_1..w_top per mode, one row per zero set, and the report at
    the policy's degree per (mode, key), one per zero set.  Exact mode
    selects each key's degree for the whole block at once."""
    g = zero_sets[0].count // 2
    top = layer.weil_weights.shape[1]
    weights = {
        "weil": np.broadcast_to(layer.weil_weights, (len(zero_sets), top)),
        "exact": _tail_weights(config.q, top, "exact", zero_sets),
    }
    reports = {("weil", key): [layer.weil[key]] * len(zero_sets) for key in layer.degrees}
    for key in layer.degrees:
        reports["exact", key] = _select_bounds(
            g, config.q, key, "exact", layer.degrees[key], layer.fourier[key], weights["exact"]
        )
    return weights, reports


def _scan_block(moduli, Ls, zero_sets, extrema, config: ScanConfig, layer: _BoundLayer):
    """Rows and soundness checks for a block of moduli of one degree, given
    their L-polynomials, zero angles and extrema (one list per modulus,
    aligned with config.targets) and the scan's bound layer
    (_bound_layer); the S_0 interval checks of the whole block take their
    bounds together, from the layer's sawtooth pair."""
    q, d = config.q, config.d
    targets = [parse_target(tag) for tag in config.targets]
    weights, reports = _block_reports(zero_sets, config, layer)
    checks = [
        (point, reports[mode, ("s", 0, "upper")][b].N_used, weights[mode][b])
        for b, exts in enumerate(extrema)
        for (target, n), ext in zip(targets, exts)
        if (target, n) == ("s", 0)
        for mode in ("weil", "exact")
        for point in (ext.argmax, ext.argmin)
    ]
    g = zero_sets[0].count // 2
    interval = iter(_s0_interval_bounds(g, *zip(*checks), layer.sawtooth) if checks else ())
    slack = config.soundness_slack
    rows, violations = [], []
    for b, (D, L, exts) in enumerate(zip(moduli, Ls, extrema)):
        name = str(D)
        for tag, (target, n), ext in zip(config.targets, targets, exts):
            for mode in ("weil", "exact"):
                rep_up = reports[mode, (target, n, "upper")][b]
                N_up = rep_up.N_used
                if ext.max_value > rep_up.bound + slack:
                    violations.append(
                        f"D={D} target={tag} mode={mode}: empirical max {ext.max_value!r} "
                        f"exceeds bound {rep_up.bound!r} at N={N_up}"
                    )
                if target == "s":
                    rep_lo = reports[mode, (target, n, "lower")][b]
                    if ext.min_value < rep_lo.bound - slack:
                        violations.append(
                            f"D={D} target={tag} mode={mode}: empirical min {ext.min_value!r} "
                            f"below bound {rep_lo.bound!r} at N={rep_lo.N_used}"
                        )
                    if n == 0:
                        for point, value in ((ext.argmax, ext.max_value), (ext.argmin, ext.min_value)):
                            up, lo = next(interval)
                            if value > up + slack or value < lo - slack:
                                violations.append(
                                    f"D={D} target={tag} mode={mode}: interval-method bound "
                                    f"({lo!r}, {up!r}) misses S_0({point!r}) = {value!r}"
                                )
            reported = reports[config.mode, (target, n, "upper")][b]
            rows.append(
                (
                    q,
                    d,
                    name,
                    L.c,
                    target,
                    n,
                    reported.N_used,
                    reported.mode,
                    reported.main_term,
                    reported.tail_term,
                    reported.bound,
                    ext.max_value,
                    ext.argmax,
                    ext.max_value / envelope(q, d, target, n, "upper"),
                )
            )
    return rows, violations


def _scan_chunk(encodings: list[int], config: ScanConfig, layer: _BoundLayer):
    """(rows, violations) of the moduli with these encodings, block by block."""
    field = FieldSpec(config.q)
    targets = [parse_target(tag) for tag in config.targets]
    rows, violations = [], []
    for start in range(0, len(encodings), SCAN_BLOCK):
        moduli = [Poly.decode_monic(field, config.d, enc) for enc in encodings[start : start + SCAN_BLOCK]]
        Ls = block_lpolynomials([Character(D) for D in moduli])
        zero_sets = block_zero_angles(Ls)
        extrema = block_extrema(zero_sets, targets, config.grid_size)
        r, v = _scan_block(moduli, Ls, zero_sets, extrema, config, layer)
        rows.extend(r)
        violations.extend(v)
    return rows, violations


def resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, threads)
    env = os.environ.get("HYPERELL_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def _chunk_spans(count: int, workers: int) -> list[tuple[int, int]]:
    """(start, stop) of the chunks a scan of count moduli is dealt out in:
    in order, at most workers*4 of them (one for a single worker), each a
    union of whole SCAN_BLOCK blocks, so every modulus shares its block
    with the same moduli whatever the worker count."""
    if not count:
        return []
    blocks = -(-count // SCAN_BLOCK)
    chunks = min(blocks, workers * 4 if workers > 1 else 1)
    cuts = [min(count, SCAN_BLOCK * (blocks * i // chunks)) for i in range(chunks + 1)]
    return list(zip(cuts, cuts[1:]))


def ensemble_scan(config: ScanConfig) -> ScanResult:
    """Scan the ensemble: per-modulus rows, soundness checks, aggregates.

    Rows are ordered by modulus encoding then target order, independent of
    the worker count: the modulus list is dealt out in order as chunks of
    whole blocks (_chunk_spans), and chunk results are concatenated in
    order, so reruns are byte-identical."""
    encodings = [D.monic_index() for D in sample_moduli(config)]
    layer = _bound_layer(config)
    workers = resolve_threads(config.threads)
    spans = _chunk_spans(len(encodings), workers)
    fork = None
    if len(spans) > 1:
        import multiprocessing as mp

        try:
            fork = mp.get_context("fork")
        except ValueError:  # no fork start method on this platform: scan serially
            pass
    if fork is None:
        rows, violations = _scan_chunk(encodings, config, layer)
    else:
        from concurrent.futures import ProcessPoolExecutor

        # an exception in a worker, or a failed fork, propagates; the chunks
        # no worker has taken yet are cancelled, and none is rerun here
        rows, violations = [], []
        chunks = [encodings[a:b] for a, b in spans]
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
            for r, v in pool.map(_scan_chunk, chunks, repeat(config), repeat(layer)):
                rows.extend(r)
                violations.extend(v)
    aggregates = _aggregate(rows, config)
    return ScanResult(config, rows, violations, aggregates)


def _aggregate(table: list[tuple], config: ScanConfig) -> dict:
    out: dict = {}
    for tag in config.targets:
        target, n = parse_target(tag)
        picked = [row for row in table if row[4] == target and row[5] == n]  # ROW_FIELDS order
        vals = np.array([row[11] for row in picked])
        if not len(vals):
            continue
        try:
            counts, edges = np.histogram(vals, bins=20)
        except ValueError:
            # maxima a few ulps apart leave no room for 20 finite bins; take
            # the range numpy itself takes for equal values
            counts, edges = np.histogram(vals, bins=20, range=(vals.min() - 0.5, vals.max() + 0.5))
        ratios = [row[13] for row in picked]
        out[tag] = {
            "count": int(len(vals)),
            "max": float(vals.max()),
            "mean": float(vals.mean()),
            "max_ratio_to_envelope": float(max(ratios)),
            "histogram": {
                "counts": [int(c) for c in counts],
                "edges": [float(e) for e in edges],
            },
        }
    return out
