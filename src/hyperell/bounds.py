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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .argfunc import fractional_parts, jump_limits, zero_sums
from .bernoulli import bernoulli_envelope_constants
from .charsum import Character
from .fqpoly import FieldSpec, Poly, enumerate_Hd
from .lfunc import ZeroAngles, compute_lpolynomial, find_zero_angles, power_sum
from .onesided import construct_one_sided, interval_polys

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
    """One rigorous bound evaluation, optionally paired with an empirical value."""

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
    empirical: float | None = None
    empirical_arg: float | None = None
    ratio_to_envelope: float | None = None


def _one_sided_fourier(target: str, n: int | None, side: str, N: int):
    """(W-hat(0), |W-hat(k)| for k=1..N) of a one-sided polynomial of G."""
    if target == "logmod":
        if side != "upper":
            raise ValueError(
                "the log-modulus has no finite lower envelope: it is -inf at zeros"
            )
        res = construct_one_sided("log2sin", "majorant", N)
        return res.poly.mean, res.poly.abs_fourier()
    # argument sums: G = -PB_(n+1)/(n+1)!, so sides swap against the target
    fact = math.factorial(n + 1)
    which = "minorant" if side == "upper" else "majorant"
    res = construct_one_sided(f"bernoulli:{n + 1}", which, N)
    return -res.poly.mean / fact, res.poly.abs_fourier() / fact


def _tail_weights(q: int, N: int, mode: str, zeros: ZeroAngles | None) -> np.ndarray:
    """w_1..w_N; w_k does not depend on N, so a prefix serves every lower degree."""
    ks = np.arange(1, N + 1, dtype=float)
    if mode == "weil":
        return np.asarray(q) ** (ks / 2.0)
    if mode == "exact":
        if zeros is None:
            raise ValueError("exact mode needs the computed zero angles")
        return np.array([abs(power_sum(zeros, k)) for k in range(1, N + 1)])
    raise ValueError(f"unknown bound mode {mode!r} (expected weil or exact)")


def _bound_terms(g: int, target: str, n: int | None, side: str, N: int, weights: np.ndarray):
    """(main, tail, bound) at degree N from w_1.. (at least N of them)."""
    w0, absw = _one_sided_fourier(target, n, side, N)
    main = 2.0 * g * w0
    tail = 2.0 * float(absw @ weights[:N]) if N > 0 else 0.0
    return main, tail, main + tail if side == "upper" else main - tail


def rigorous_bound(
    zeros: ZeroAngles,
    q: int,
    target: str,
    n: int | None,
    side: str,
    N: int,
    mode: str = "weil",
    weights: np.ndarray | None = None,
) -> BoundReport:
    """Evaluate the bound 2g W-hat(0) +/- sum |W-hat(k)| w_k at degree N;
    weights holds w_1.. (at least N of them) if the caller has them.

    Moduli have odd degree throughout (scans and lpoly reject even d), so
    the modulus degree is d = 2g + 1."""
    g = zeros.count // 2
    if weights is None:
        weights = _tail_weights(q, N, mode, zeros)
    main, tail, bound = _bound_terms(g, target, n, side, N, weights)
    return BoundReport(target, n, side, mode, q, 2 * g + 1, g, N, main, tail, bound)


def _degree_cap(q: int, d: int, n: int | None, n_cap: int) -> int:
    """The largest degree exhaustive selection tries (covers the formula's)."""
    return max(n_cap, degree_choice(q, d, n or 0))


def choose_degree(
    policy: str,
    q: int,
    d: int,
    target: str,
    n: int | None,
    side: str,
    mode: str,
    zeros: ZeroAngles,
    n_cap: int = DEFAULT_N_CAP,
    weights: np.ndarray | None = None,
) -> int:
    """Resolve the degree policy: formula, fixed:N, or exhaustive.

    Exhaustive minimizes the rigorous bound magnitude over 0..cap (the cap
    always covers the formula degree, so exhaustive is never worse), each
    bound summed as rigorous_bound sums it, from one table of weights w_k
    (weights, if given, holds at least cap of them)."""
    if policy == "formula":
        return degree_choice(q, d, n or 0)
    if policy.startswith("fixed:"):
        return int(policy.split(":", 1)[1])
    if policy != "exhaustive":
        raise ValueError(f"unknown degree policy {policy!r}")
    cap = _degree_cap(q, d, n, n_cap)
    if weights is None:
        weights = _tail_weights(q, cap, mode, zeros)
    g = zeros.count // 2
    best_N, best_val = 0, math.inf
    for N in range(cap + 1):
        bound = _bound_terms(g, target, n, side, N, weights)[2]
        val = bound if side == "upper" else -bound
        if val < best_val - 1e-15:
            best_N, best_val = N, val
    return best_N


# ---------------------------------------------------------------------------
# Empirical extrema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalExtrema:
    max_value: float
    argmax: float
    min_value: float | None
    argmin: float | None


def _vector_golden_max(f, centers: np.ndarray, half_width: float, iters: int = 30):
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


def _top_cells(vals: np.ndarray, count: int = _CELLS, spacing: int = 4) -> np.ndarray:
    order = np.argsort(vals)[::-1]
    picked: list[int] = []
    for idx in order:
        if all(abs(int(idx) - p) >= spacing for p in picked):
            picked.append(int(idx))
        if len(picked) >= count:
            break
    return np.asarray(picked, dtype=int)


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
    evaluated exactly and merged with the grid.
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
    for b, zeros in enumerate(zero_sets):
        for start in range(0, grid_size, _GRID_SLICE):
            frac = fractional_parts(grid[start : start + _GRID_SLICE], zeros.theta)
            for t, n in enumerate(orders):
                zero_sums(frac, n, out=vals[t, start : start + _GRID_SLICE])
        for t, n in enumerate(orders):
            v = vals[t]
            if n == 0:
                angles, left, right = jump_limits(zeros)
                cand_vals = np.concatenate([v, left, right])
                cand_args = np.concatenate([grid, angles, angles])
                hi = int(np.argmax(cand_vals))
                lo = int(np.argmin(cand_vals))
                out[b][t] = EmpiricalExtrema(
                    float(cand_vals[hi]), float(cand_args[hi]),
                    float(cand_vals[lo]), float(cand_args[lo]),
                )
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


@lru_cache(maxsize=8)
def _symmetric_interval_polys(t: float, N: int):
    """interval_polys(-t, t, N); a scan checks each point in both modes,
    which mostly pick the same N, so the second check reuses the first."""
    return interval_polys(-t, t, N)


def s0_bound_interval_method(
    zeros: ZeroAngles,
    q: int,
    theta: float,
    N: int,
    mode: str = "weil",
    weights: np.ndarray | None = None,
) -> tuple[float, float]:
    """(upper, lower) bounds on S_0(theta) through the zero counter of the
    symmetric interval [-theta, theta]:

        2 S(theta) = -4g theta + N([-theta, theta])

    then the interval indicator is replaced by its one-sided polynomials,
    whose mean gap 1/(N+1) does not depend on theta.  Odd symmetry reduces
    any angle to [0, 1/2].  weights holds w_1.. (at least N of them) if
    the caller has them."""
    g = zeros.count // 2
    t = theta - math.floor(theta)
    if t > 0.5:
        up, lo = s0_bound_interval_method(zeros, q, 1.0 - t, N, mode, weights)
        return -lo, -up
    minor, major = _symmetric_interval_polys(t, N)
    if weights is None:
        weights = _tail_weights(q, N, mode, zeros if mode == "exact" else None)
    tail_plus = 2.0 * float(major.abs_fourier() @ weights[:N]) if N > 0 else 0.0
    tail_minus = 2.0 * float(minor.abs_fourier() @ weights[:N]) if N > 0 else 0.0
    upper = 0.5 * (2.0 * g * (major.mean - 2.0 * t) + tail_plus)
    lower = 0.5 * (2.0 * g * (minor.mean - 2.0 * t) - tail_minus)
    return upper, lower


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
    n_cap: int = DEFAULT_N_CAP
    soundness_slack: float = SOUNDNESS_SLACK
    threads: int | None = None

    def __post_init__(self):
        FieldSpec(self.q)  # validates q odd prime
        if self.d % 2 == 0 or self.d < 3:
            raise ValueError(f"scans need odd degree d >= 3, got {self.d}")
        for tag in self.targets:
            parse_target(tag)
        if self.mode not in ("weil", "exact"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.grid_size < 2**10:
            raise ValueError("grid_size must be >= 1024")


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


def _max_degree(config: ScanConfig) -> int:
    """The largest degree the config's policy picks for any of its targets."""
    if config.policy.startswith("fixed:"):
        return int(config.policy.split(":", 1)[1])
    return max(
        _degree_cap(config.q, config.d, parse_target(tag)[1], config.n_cap)
        for tag in config.targets
    )


def _selected_bound(
    config, zeros, target, n, side, mode, weil: dict, weights: np.ndarray | None = None
) -> BoundReport:
    """The bound at the degree the policy picks, from weights w_1..w_top
    (_max_degree) if given.  In weil mode neither the degree nor the bound
    depends on the zeros beyond their count, so weil holds them for the
    rest of the scan."""
    key = (zeros.count, target, n, side)
    if mode == "weil" and key in weil:
        return weil[key]
    N = choose_degree(
        config.policy, config.q, config.d, target, n, side, mode, zeros, config.n_cap, weights
    )
    rep = rigorous_bound(zeros, config.q, target, n, side, N, mode, weights)
    if mode == "weil":
        weil[key] = rep
    return rep


def _scan_one(
    D: Poly,
    L,
    zeros: ZeroAngles,
    extrema: list[EmpiricalExtrema],
    config: ScanConfig,
    weil: dict,
    weights: dict,
):
    """Bounds and soundness checks for one modulus, given its L-polynomial,
    zero angles and extrema (one per config target); weil is the scan's
    memo of weil-mode bounds (see _selected_bound), weights the tail
    weights w_1..w_top per mode."""
    q, d = L.q, L.d
    slack = config.soundness_slack
    rows = []
    violations = []
    for tag, ext in zip(config.targets, extrema):
        target, n = parse_target(tag)
        reported = None
        for mode in ("weil", "exact"):
            rep_up = _selected_bound(config, zeros, target, n, "upper", mode, weil, weights[mode])
            N_up = rep_up.N_used
            if ext.max_value > rep_up.bound + slack:
                violations.append(
                    f"D={D} target={tag} mode={mode}: empirical max {ext.max_value!r} "
                    f"exceeds bound {rep_up.bound!r} at N={N_up}"
                )
            if target == "s":
                rep_lo = _selected_bound(config, zeros, target, n, "lower", mode, weil, weights[mode])
                if ext.min_value < rep_lo.bound - slack:
                    violations.append(
                        f"D={D} target={tag} mode={mode}: empirical min {ext.min_value!r} "
                        f"below bound {rep_lo.bound!r} at N={rep_lo.N_used}"
                    )
                if n == 0:
                    for point, value in ((ext.argmax, ext.max_value), (ext.argmin, ext.min_value)):
                        up, lo = s0_bound_interval_method(zeros, q, point, N_up, mode, weights[mode])
                        if value > up + slack or value < lo - slack:
                            violations.append(
                                f"D={D} target={tag} mode={mode}: interval-method bound "
                                f"({lo!r}, {up!r}) misses S_0({point!r}) = {value!r}"
                            )
            if mode == config.mode:
                env = envelope(q, d, target, n, "upper")
                reported = replace(
                    rep_up,
                    empirical=ext.max_value,
                    empirical_arg=ext.argmax,
                    ratio_to_envelope=ext.max_value / env,
                )
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
            "empirical_max": reported.empirical,
            "argmax": reported.empirical_arg,
            "ratio": reported.ratio_to_envelope,
        }
        rows.append(row)
    return rows, violations


def _scan_chunk(args):
    q, d, encodings, config_kwargs = args
    config = ScanConfig(**config_kwargs)
    field = FieldSpec(q)
    targets = [parse_target(tag) for tag in config.targets]
    rows, violations = [], []
    weil: dict = {}
    top = _max_degree(config)
    weil_weights = _tail_weights(q, top, "weil", None)
    for start in range(0, len(encodings), SCAN_BLOCK):
        moduli = [Poly.decode_monic(field, d, enc) for enc in encodings[start : start + SCAN_BLOCK]]
        Ls = [compute_lpolynomial(Character(D)) for D in moduli]
        zero_sets = [find_zero_angles(L) for L in Ls]
        extrema = block_extrema(zero_sets, targets, config.grid_size)
        for D, L, zeros, ext in zip(moduli, Ls, zero_sets, extrema):
            weights = {"weil": weil_weights, "exact": _tail_weights(q, top, "exact", zeros)}
            r, v = _scan_one(D, L, zeros, ext, config, weil, weights)
            rows.extend(r)
            violations.extend(v)
    return rows, violations


def _warm_construction_cache(config: ScanConfig):
    """Build every one-sided polynomial a scan can ask for (forked workers
    then inherit the cache instead of re-solving the LPs)."""
    cap = max(config.n_cap, degree_choice(config.q, config.d, 0))
    orders = sorted({parse_target(t)[1] for t in config.targets if t.startswith("s")})
    for N in range(cap + 1):
        if "logmod" in config.targets:
            construct_one_sided("log2sin", "majorant", N)
        for n in orders:
            construct_one_sided(f"bernoulli:{n + 1}", "minorant", N)
            construct_one_sided(f"bernoulli:{n + 1}", "majorant", N)
        if 0 in orders:
            construct_one_sided("sawtooth", "majorant", N)
            construct_one_sided("sawtooth", "minorant", N)


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
    _warm_construction_cache(config)
    workers = resolve_threads(config.threads)
    kwargs = {
        k: getattr(config, k)
        for k in (
            "q",
            "d",
            "targets",
            "sample",
            "seed",
            "policy",
            "mode",
            "grid_size",
            "n_cap",
            "soundness_slack",
        )
    }
    rows: list[dict] = []
    violations: list[str] = []
    spans = _chunk_spans(len(encodings), workers)
    if len(spans) <= 1:
        rows, violations = _scan_chunk((config.q, config.d, encodings, kwargs))
    else:
        chunks = [(config.q, config.d, encodings[a:b], kwargs) for a, b in spans]
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                for r, v in pool.map(_scan_chunk, chunks):
                    rows.extend(r)
                    violations.extend(v)
        except (ImportError, OSError, ValueError):
            rows, violations = _scan_chunk((config.q, config.d, encodings, kwargs))
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
