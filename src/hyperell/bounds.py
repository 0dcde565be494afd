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

import math
import os
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .argfunc import column_sums, fractional_parts, jump_limits, zero_sums
from .bernoulli import bernoulli_envelope_constants
from .charsum import Character
from .errors import ConsistencyError
from .fqpoly import FieldSpec, Poly, enumerate_Hd
from .lfunc import ZeroAngles, block_lpolynomials, block_zero_angles
from .onesided import block_one_sided, interval_poly_block

TWO_PI = 2.0 * math.pi

SOUNDNESS_SLACK = 1e-9
DEFAULT_GRID = 2**14
DEFAULT_N_CAP = 8
SCAN_TARGETS = ("logmod", "s:0", "s:1", "s:2")
SCAN_BLOCK = 16  # moduli whose extrema a scan computes together
_GRID_SLICE = 2048  # grid rows per fractional-part matrix
_CELLS = 8  # golden-section lanes per (modulus, target, side)


def parse_target(tag: str) -> tuple[str, int | None]:
    if tag == "logmod":
        return "logmod", None
    if tag.startswith("s:"):
        n = int(tag.split(":", 1)[1])
        if n < 0:
            raise ValueError(f"argument-sum order must be >= 0, got {n}")
        return "s", n
    raise ValueError(f"unknown scan target {tag!r} (expected logmod or s:n)")


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
        N = int(policy.split(":", 1)[1])
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
    from the largest."""
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


def block_extrema(
    zero_sets: list[ZeroAngles], targets: list[tuple[str, int | None]], grid_size: int = DEFAULT_GRID
) -> list[list[EmpiricalExtrema]]:
    """Grid extrema refined by golden section around the best cells, for
    a block of zero sets of one count and (target, n) pairs as parse_target
    gives them; one list per zero set, aligned with targets.

    Each modulus's grid is evaluated in slices of one fractional-part
    matrix shared by all targets and summarized at once.  The refinements
    of the whole block then run as lanes of one search: _CELLS lanes per
    (modulus, target, side), each with its own column of zeros, lower
    sides on the negated function.  Every step is elementwise or a sum
    down one column, so a modulus's extrema do not depend on its block.

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
    # lane groups, target by target: logmod refines its maximum, S_n (n >= 1)
    # its maximum then its minimum, both in one span of lanes; S_0 is exact
    # at its jumps
    group, spans, groups = {}, [], 0
    for t, n in enumerate(orders):
        if n != 0:
            group[t] = groups
            groups += 1 if n is None else 2
            spans.append((group[t], groups, n))
    blocks = len(zero_sets)
    centers = np.empty((groups, blocks, _CELLS))
    grid_extremes = {}
    out = [[None] * len(targets) for _ in zero_sets]
    vals = np.empty((len(targets), grid_size))
    on_grid = [(t, n) for t, n in enumerate(orders) if n != 0]
    for b, zeros in enumerate(zero_sets):
        for start in range(0, grid_size if on_grid else 0, _GRID_SLICE):
            frac = fractional_parts(grid[start : start + _GRID_SLICE], zeros.theta)
            for t, n in on_grid:
                zero_sums(frac, n, out=vals[t, start : start + _GRID_SLICE])
        for t, n in enumerate(orders):
            v = vals[t]
            if n == 0:
                out[b][t] = _s0_extrema(zeros, grid)
                continue
            if n is None:
                v = np.where(np.isfinite(v), v, -np.inf)
            grid_extremes[b, t] = (v.max(), int(np.argmax(v)), v.min(), int(np.argmin(v)))
            centers[group[t], b] = grid[_top_cells(v)]
            if n is not None:
                centers[group[t] + 1, b] = grid[_top_cells(-v)]
    if not groups or not zero_sets:
        return out

    lanes = blocks * _CELLS
    angles = np.array([zeros.theta for zeros in zero_sets]).reshape(blocks, -1)
    cols = np.tile(np.repeat(angles.T, _CELLS, axis=1), (1, groups))

    def f(x):
        frac = fractional_parts(x, cols)
        fx = np.empty(len(x))
        for lo, hi, n in spans:
            zero_sums(frac[:, lo * lanes : hi * lanes], n, out=fx[lo * lanes : hi * lanes])
            if n is not None:
                np.negative(fx[(hi - 1) * lanes : hi * lanes], out=fx[(hi - 1) * lanes : hi * lanes])
        return fx

    xs, fx = _vector_golden_max(f, centers.reshape(-1), 1.0 / grid_size)
    xs, fx = xs.reshape(centers.shape), fx.reshape(centers.shape)
    best = np.argmax(fx, axis=2)
    for (b, t), (vmax, imax, vmin, imin) in grid_extremes.items():
        g = group[t]
        x_hi, f_hi = xs[g, b, best[g, b]], fx[g, b, best[g, b]]
        if orders[t] is None:
            if f_hi >= vmax:
                out[b][t] = EmpiricalExtrema(float(f_hi), float(x_hi % 1.0), None, None)
            else:
                out[b][t] = EmpiricalExtrema(float(vmax), float(grid[imax]), None, None)
            continue
        x_lo, f_lo = xs[g + 1, b, best[g + 1, b]], fx[g + 1, b, best[g + 1, b]]
        out[b][t] = EmpiricalExtrema(
            max(float(f_hi), float(vmax)),
            float(x_hi % 1.0) if f_hi >= vmax else float(grid[imax]),
            min(float(-f_lo), float(vmin)),
            float(x_lo % 1.0) if -f_lo <= vmin else float(grid[imin]),
        )
    return out


def empirical_extrema(
    zeros: ZeroAngles, target: str, n: int | None, grid_size: int = DEFAULT_GRID
) -> EmpiricalExtrema:
    """Extrema of one target for one modulus: a block of one (block_extrema)."""
    return block_extrema([zeros], [(target, n)], grid_size)[0][0]


# ---------------------------------------------------------------------------
# Symmetric-interval route for the order-0 argument sum
# ---------------------------------------------------------------------------


def _s0_interval_bounds(g: int, points, degrees, weights) -> list[tuple[float, float]]:
    """(upper, lower) of s0_bound_interval_method at each point, with its
    degree and its row of weights w_1.. (at least that many).

    The interval polynomials of every distinct (t, N) are composed and
    certified once, together per degree (interval_poly_block); the bounds
    are then summed point by point.
    """
    folded = []
    for theta in points:
        t = theta - math.floor(theta)
        folded.append((1.0 - t, True) if t > 0.5 else (t, False))
    polys = {}
    for N in sorted(set(degrees)):
        ts = list(dict.fromkeys(t for (t, _), M in zip(folded, degrees) if M == N))
        polys.update(zip([(t, N) for t in ts], interval_poly_block([(-t, t) for t in ts], N)))
    out = []
    for (t, flip), N, w in zip(folded, degrees, weights):
        minor, major = polys[t, N]
        tail_plus = 2.0 * float(major.abs_fourier() @ w[:N]) if N > 0 else 0.0
        tail_minus = 2.0 * float(minor.abs_fourier() @ w[:N]) if N > 0 else 0.0
        upper = 0.5 * (2.0 * g * (major.mean - 2.0 * t) + tail_plus)
        lower = 0.5 * (2.0 * g * (minor.mean - 2.0 * t) - tail_minus)
        out.append((-lower, -upper) if flip else (upper, lower))
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
        if self.sample.startswith("random:") and int(self.sample.split(":", 1)[1]) < 0:
            raise ValueError(f"sample size must be >= 0, got {self.sample!r}")


@dataclass
class ScanResult:
    config: ScanConfig
    rows: list[dict]
    violations: list[str]
    aggregates: dict


def sample_moduli(config: ScanConfig) -> list[Poly]:
    """The scan's modulus list, ascending encoding order, deterministic."""
    field = FieldSpec(config.q)
    if config.sample == "all":
        return list(enumerate_Hd(field, config.d))
    if config.sample.startswith("random:"):
        import random as _random

        count = int(config.sample.split(":", 1)[1])
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
    raise ValueError(f"unknown sample spec {config.sample!r}")


class _BoundLayer(NamedTuple):
    """What a scan's bound layer shares across its chunks and blocks."""

    degrees: dict  # (target, n, side) -> the candidate degrees of the policy
    fourier: dict  # key -> {N: (W-hat(0), |W-hat(k)| for k = 1..N)}
    weil_weights: np.ndarray  # w_1..w_top for the largest candidate degree top
    weil: dict  # key -> weil-mode report: it depends on the zeros only via 2g


def _bound_layer(config: ScanConfig) -> _BoundLayer:
    """The scan's bound layer for moduli of degree config.d = 2g + 1, built
    once per scan before the pool forks.

    It constructs every one-sided polynomial of its keys at their candidate
    degrees in one block.  These include the S_0 interval checks' sawtooth
    pair (bernoulli:1 on both sides at S_0's degrees), so the workers
    inherit every construction certified."""
    q, d = config.q, config.d
    keys = list(
        dict.fromkeys(
            (target, n, side)
            for target, n in map(parse_target, config.targets)
            for side in (("upper",) if target == "logmod" else ("upper", "lower"))
        )
    )
    degrees = {key: _candidate_degrees(config.policy, q, d, key[1]) for key in keys}
    fourier = _one_sided_fourier(degrees)
    top = max((max(degrees[key]) for key in keys), default=0)
    weil_weights = _tail_weights(q, top, "weil")
    weil = {
        key: _select_bounds((d - 1) // 2, q, key, "weil", degrees[key], fourier[key], weil_weights)[0]
        for key in keys
    }
    return _BoundLayer(degrees, fourier, weil_weights, weil)


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
    (_bound_layer); the S_0 interval checks of the whole block are
    composed and certified together."""
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
    interval = iter(_s0_interval_bounds(zero_sets[0].count // 2, *zip(*checks)) if checks else ())
    slack = config.soundness_slack
    rows, violations = [], []
    for b, (D, L, exts) in enumerate(zip(moduli, Ls, extrema)):
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
                {
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


def _aggregate(rows: list[dict], config: ScanConfig) -> dict:
    out: dict = {}
    for tag in config.targets:
        target, n = parse_target(tag)
        vals = np.array(
            [r["empirical_max"] for r in rows if r["target"] == target and r["n"] == n]
        )
        if not len(vals):
            continue
        try:
            counts, edges = np.histogram(vals, bins=20)
        except ValueError:
            # maxima a few ulps apart leave no room for 20 finite bins; take
            # the range numpy itself takes for equal values
            counts, edges = np.histogram(vals, bins=20, range=(vals.min() - 0.5, vals.max() + 0.5))
        ratios = [r["ratio"] for r in rows if r["target"] == target and r["n"] == n]
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
