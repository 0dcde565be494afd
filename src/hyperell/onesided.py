"""One-sided trigonometric approximations with certified margins.

For a periodic target (the log-sine function, a periodic Bernoulli
function, or an interval indicator through composition) this module
builds a degree-N trigonometric polynomial lying entirely above or below
the target while extremizing its mean.  No closed-form construction is
assumed anywhere: the polynomial comes from a discretized linear program
whose constraint grid is a uniform mesh augmented with points
geometrically approaching any discontinuity or singularity, resolved a
few times by cutting planes (new constraints at certified violation
minima), then certified on a much finer grid with local minimization of
the one-sided gap, and finally repaired by a constant shift.  The known
optimal means act purely as external oracles for the achieved mean.

The grid LP is a relaxation, so its optimum brackets the true extremal
mean from one side and the repaired polynomial brackets it from the
other; both values are kept on the result so tests can assert the
sandwich.

The default scan's constructions are solved once, ahead of time, and
stored beside this module (onesided_constructions.json); a process takes
them from there and re-certifies them instead of re-running the LP.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bernoulli import TABLE
from .errors import CertificationError, SolverError
from .simplex import solve_inequality_lp

TWO_PI = 2.0 * math.pi

# log-sine minorant constraints are only meaningful where the target is not
# arbitrarily negative; below this floor the polynomial cannot cross it
LOG_SINE_FLOOR = -50.0

_CLUSTER_DEPTH = 40
_CERT_CLUSTER_DEPTH = 46
_MAX_ROUNDS = 25
_STOP_VIOLATION = 2e-12
_CERT_TOL = 1e-12


def trig_table(theta, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos 2 pi k theta, sin 2 pi k theta) for k = 1..N, one row per theta."""
    ang = TWO_PI * np.multiply.outer(np.asarray(theta, dtype=float), np.arange(1, N + 1))
    return np.cos(ang), np.sin(ang)


@dataclass(frozen=True)
class TrigPoly:
    """Real trigonometric polynomial a_0 + sum a_k cos + b_k sin."""

    cos: tuple[float, ...]  # a_0 .. a_N
    sin: tuple[float, ...]  # b_1 .. b_N

    def __post_init__(self):
        if len(self.sin) != max(len(self.cos) - 1, 0):
            raise ValueError("sin coefficients must be b_1..b_N")

    @property
    def degree(self) -> int:
        return len(self.cos) - 1

    @property
    def mean(self) -> float:
        return self.cos[0]

    def __call__(self, theta):
        vals = self.from_table(*trig_table(theta, self.degree))
        return float(vals) if vals.ndim == 0 else vals

    def from_table(self, cos: np.ndarray, sin: np.ndarray):
        """Values from trig_table(theta, self.degree), as __call__ gives
        them; polynomials of one degree share the table."""
        return (
            self.cos[0]
            + cos @ np.asarray(self.cos[1:])
            + (sin @ np.asarray(self.sin) if self.sin else 0.0)
        )

    def fourier(self, k: int) -> complex:
        """V-hat(k) with the conjugate symmetry V-hat(-k) = conj V-hat(k)."""
        if abs(k) > self.degree:
            return 0.0
        if k == 0:
            return complex(self.cos[0])
        a = self.cos[abs(k)]
        b = self.sin[abs(k) - 1] if self.sin else 0.0
        return complex(a, -b) / 2.0 if k > 0 else complex(a, b) / 2.0

    def abs_fourier(self) -> np.ndarray:
        """|V-hat(k)| for k = 1..N."""
        a = np.asarray(self.cos[1:])
        b = np.asarray(self.sin) if self.sin else np.zeros_like(a)
        return np.hypot(a, b) / 2.0

    def shifted(self, delta: float) -> "TrigPoly":
        return TrigPoly((self.cos[0] + delta,) + self.cos[1:], self.sin)

    def to_json_dict(self) -> dict:
        return {"N": self.degree, "cos": list(self.cos), "sin": list(self.sin)}


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------


class _Target:
    def __init__(self, name, even, singular, value):
        self.name = name
        self.even = even
        self.singular = singular  # jump or log-singularity at theta = 0
        self.value = value


def target_spec(name: str) -> _Target:
    """Parse a target tag: log2sin, sawtooth (read as bernoulli:1), or
    bernoulli:m."""
    if name == "log2sin":

        def value(x):
            x = np.asarray(x, dtype=float)
            frac = x - np.floor(x)
            with np.errstate(divide="ignore"):
                v = np.log(2.0 * np.abs(np.sin(math.pi * frac)))
            v = np.where(frac == 0.0, -np.inf, v)
            return float(v) if v.ndim == 0 else v

        return _Target("log2sin", True, True, value)
    if name == "sawtooth":
        name = "bernoulli:1"
    if name.startswith("bernoulli:"):
        m = int(name.split(":", 1)[1])
        if m < 1:
            raise ValueError(f"Bernoulli index must be >= 1, got {m}")

        def value(x):
            return TABLE.periodic(m, x)

        return _Target(f"bernoulli:{m}", m % 2 == 0, m == 1, value)
    raise ValueError(f"unknown one-sided target {name!r}")


def oracle_mean(target: str, side: str, N: int):
    """The known extremal mean, or None where no finite one exists.

    log2sin majorant: log2/(N+1); Bernoulli index m: extrema of B_m over
    (N+1)^m; the log-sine target has no global minorant (it is unbounded
    below), so that side carries no oracle.
    """
    spec = target_spec(target)
    if spec.name == "log2sin":
        return math.log(2.0) / (N + 1) if side == "majorant" else None
    m = int(spec.name.split(":")[1])
    hi, lo = TABLE.extrema(m)
    return (hi if side == "majorant" else lo) / float(N + 1) ** m


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneSidedResult:
    poly: TrigPoly
    target: str
    side: str  # majorant | minorant
    achieved_mean: float
    oracle_mean: float | None
    lp_mean: float  # grid-relaxed optimum, before repair
    certified_margin: float
    repair_epsilon: float
    rounds: int
    constraints: int

    @property
    def sign(self) -> int:
        return 1 if self.side == "majorant" else -1

    def to_json_dict(self) -> dict:
        gap = None
        if self.oracle_mean not in (None, 0.0):
            gap = abs(self.achieved_mean - self.oracle_mean) / abs(self.oracle_mean)
        return {
            "target": self.target,
            "side": self.side,
            "N": self.poly.degree,
            "achieved_mean": self.achieved_mean,
            "oracle_mean": self.oracle_mean,
            "relative_gap": gap,
            "lp_mean": self.lp_mean,
            "certified_margin": self.certified_margin,
            "repair_epsilon": self.repair_epsilon,
            "rounds": self.rounds,
            "constraints": self.constraints,
            "poly": self.poly.to_json_dict(),
        }


def _design(thetas: np.ndarray, N: int, even: bool) -> np.ndarray:
    k = np.arange(1, N + 1)
    ang = TWO_PI * np.multiply.outer(thetas, k)
    cols = [np.ones(len(thetas))]
    cols.append(np.cos(ang))
    if not even:
        cols.append(np.sin(ang))
    return np.column_stack(cols)


def _coeffs_from_solution(x: np.ndarray, N: int, even: bool) -> TrigPoly:
    cos = tuple(float(v) for v in x[: N + 1])
    sin = tuple(float(v) for v in x[N + 1 :]) if not even else (0.0,) * N
    return TrigPoly(cos, sin[:N])


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending: np.unique's sort and mask,
    without its masked-array check (which imports numpy.ma)."""
    a = np.sort(a)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _cluster_points(depth: int) -> np.ndarray:
    j = np.arange(1, depth + 1, dtype=float)
    return np.concatenate([2.0**-j, 1.0 - 2.0**-j])


def _void(spec: _Target, side, tvals: np.ndarray) -> np.ndarray:
    """Where the one-sided constraint is void: the target is infinite, or
    a log-sine minorant's target is at or below LOG_SINE_FLOOR.  side may
    be one sign or an array of them, one per value."""
    void = ~np.isfinite(tvals)
    if spec.name == "log2sin":
        void |= (tvals <= LOG_SINE_FLOOR) & (np.asarray(side) < 0)
    return void


def _constraint_values(spec: _Target, side: int, thetas: np.ndarray):
    """Keep only points where the one-sided constraint is meaningful."""
    vals = spec.value(thetas)
    keep = ~_void(spec, side, vals)
    return thetas[keep], vals[keep]


def _poly_rows(a0: np.ndarray, coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Polynomials of one degree N, one per point: a0[i] + coeffs[i, 0] .
    (cos 2 pi k x) + coeffs[i, 1] . (sin 2 pi k x) at x = xs[i], each value
    equal to that polynomial's poly(float(xs[i])).

    One dot product per point (np.vecdot) of the point's own N
    coefficients sums in the same order as the scalar evaluation's
    1-D @ 1-D; a matrix-vector product, or coefficients padded to a
    higher degree, would not.
    """
    cos, sin = trig_table(xs, coeffs.shape[-1])
    return a0 + np.vecdot(cos, coeffs[:, 0]) + np.vecdot(sin, coeffs[:, 1])


def _golden_min(f, lo: np.ndarray, hi: np.ndarray):
    """Golden-section minima of f on every lane [lo[i], hi[i]] at once.

    f(lanes, x) maps the points x of the given lane ids to their values.
    Each lane takes exactly the steps of a scalar search and stops after
    the step that brings its bracket below 1e-14 (60 steps at most); the
    result is the least (value, point) pair of the two inner points and
    the two ends, in tuple order.
    """
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    every = np.arange(len(lo))
    live = every
    fc, fd = f(every, c), f(every, d)
    for _ in range(60):
        if not len(live):
            break
        left = fc[live] <= fd[live]
        lt, rt = live[left], live[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - phi * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + phi * (b[rt] - a[rt])
        fresh = f(live, np.where(left, c[live], d[live]))
        fc[lt], fd[rt] = fresh[left], fresh[~left]
        live = live[~(b[live] - a[live] < 1e-14)]
    best, at = fc, c
    for val, x in ((fd, d), (f(every, lo), lo), (f(every, hi), hi)):
        take = (val < best) | ((val == best) & (x < at))
        best, at = np.where(take, val, best), np.where(take, x, at)
    return best, at


def _certify_block(items: list[tuple[TrigPoly, _Target, int, int]]):
    """(margin, worst, minima) for each (poly, spec, side, base_grid) item:
    the minimum of side*(poly - target) over the circle, with refinement.

    Scans a grid ten times finer than the construction grid plus deeper
    cluster points, then polishes the 24 lowest local minima of the gap
    (plenty: at most ~N+1 touch regions) by golden-section between their
    grid neighbors.  Near the singular point the cluster points approach
    geometrically and the target is monotone past the deepest one, so the
    scan is conclusive there.

    Items of one base grid share its points, and items of one degree on
    it their trig table too, taken degree by degree.  The polishes of
    every item then run as lanes of one search: each lane's polynomial
    takes one dot product of its own degree per point, as its scalar
    evaluation does (padding to a common degree could round otherwise),
    so every result is that of the item certified alone.
    """
    if not items:
        return []
    by_grid: dict[int, dict[int, list[int]]] = {}
    for i, (poly, _, _, base_grid) in enumerate(items):
        by_grid.setdefault(base_grid, {}).setdefault(poly.degree, []).append(i)
    heads = [None] * len(items)  # (grid margin, its point, polish brackets lo, hi)
    for base_grid, by_degree in by_grid.items():
        fine = np.arange(10 * base_grid) / float(10 * base_grid)
        grid = _sorted_unique(np.concatenate([fine, _cluster_points(_CERT_CLUSTER_DEPTH)]))
        step = 1.0 / (10 * base_grid)
        for N, members in by_degree.items():
            table = trig_table(grid, N)
            for i in members:
                poly, spec, side, _ = items[i]
                tvals = spec.value(grid)
                keep = ~_void(spec, side, tvals)
                cos, sin = table if keep.all() else (table[0][keep], table[1][keep])
                pts = grid[keep]
                h = side * (poly.from_table(cos, sin) - tvals[keep])
                order = np.argsort(h)
                local = np.flatnonzero((h <= np.roll(h, 1)) & (h <= np.roll(h, -1)))
                ranked = local[np.argsort(h[local])][:24]
                last = len(pts) - 1
                lo = np.where(ranked > 0, pts[np.maximum(ranked - 1, 0)], pts[ranked] - step)
                hi = np.where(ranked < last, pts[np.minimum(ranked + 1, last)], pts[ranked] + step)
                heads[i] = (float(h[order[0]]), float(pts[order[0]]), lo, hi)
            del table, cos, sin

    counts = [len(head[2]) for head in heads]
    owner = np.repeat(np.arange(len(items)), counts)
    lane_degree = np.array([poly.degree for poly, *_ in items])[owner]
    lane_a0 = np.array([poly.cos[0] for poly, *_ in items])[owner]
    coeffs = np.zeros((len(items), 2, max(lane_degree, default=0)))
    for row, (poly, *_) in zip(coeffs, items):
        row[0, : poly.degree] = poly.cos[1:]
        row[1, : poly.degree] = poly.sin
    lane_coeffs = coeffs[owner]
    specs: dict[_Target, int] = {}
    lane_spec = np.array([specs.setdefault(spec, len(specs)) for _, spec, _, _ in items])[owner]
    lane_side = np.array([float(side) for _, _, side, _ in items])[owner]
    degrees = sorted({poly.degree for poly, *_ in items})

    def gap(lanes, x):
        """side*(poly - target) of each lane's item at x; +inf where void."""
        side = lane_side[lanes]
        tvals = np.empty(len(lanes))
        void = np.empty(len(lanes), dtype=bool)
        for spec, k in specs.items():
            sel = lane_spec[lanes] == k
            tvals[sel] = spec.value(x[sel])
            void[sel] = _void(spec, side[sel], tvals[sel])
        vals = np.empty(len(lanes))
        for N in degrees:
            sel = lane_degree[lanes] == N
            if sel.any():
                at = lanes[sel]
                vals[sel] = _poly_rows(lane_a0[at], lane_coeffs[at, :, :N], x[sel])
        return np.where(void, math.inf, side * (vals - tvals))

    lo, hi = (np.concatenate([head[j] for head in heads]) for j in (2, 3))
    cuts = np.cumsum(counts)[:-1]
    polished = (np.split(v, cuts) for v in _golden_min(gap, lo, hi))
    out = []
    for (margin, worst, _, _), vals, xs in zip(heads, *polished):
        minima = [(float(x), float(val)) for x, val in zip(xs, vals)]
        for x, val in minima:
            if val < margin:
                margin, worst = val, x
        out.append((margin, worst, minima))
    return out


def _solve_round(spec: _Target, side: int, N: int, thetas: np.ndarray):
    pts, tvals = _constraint_values(spec, side, thetas)
    A = _design(pts, N, spec.even)
    ncols = A.shape[1]
    c = np.zeros(ncols)
    c[0] = 1.0 if side > 0 else -1.0
    if side > 0:
        x, value = solve_inequality_lp(A, tvals, c)
    else:
        x, value = solve_inequality_lp(-A, -tvals, c)
    return _coeffs_from_solution(x, N, spec.even), len(pts)


def _repair(poly: TrigPoly, spec: _Target, sgn: int, grid_points: int, margin, worst):
    """Shift the constant term until certification clears, recording the
    total shift; (margin, worst) is poly's own certification.
    Re-certification may expose a marginally deeper minimum, so the shift
    iterates (it converges immediately in practice)."""
    repair = 0.0
    for _ in range(3):
        if margin >= 0.0:
            break
        step = -margin * (1.0 + 1e-9) + 1e-15
        poly = poly.shifted(sgn * step)
        repair += step
        margin, worst, _ = _certify_block([(poly, spec, sgn, grid_points)])[0]
    return poly, margin, worst, repair


_CACHE_LOCK = threading.Lock()
_CACHE: dict[tuple, OneSidedResult] = {}
# the default scan's constructions as solved by _solve (written by
# scripts/make_onesided_constructions.py), read on the first cache miss
_STORE_FILE = Path(__file__).with_name("onesided_constructions.json")
_STORE: dict[tuple, dict] | None = None


def _read_store() -> dict[tuple, dict]:
    """The stored file's entries by (target, side, N, grid_points)."""
    entries = json.loads(_STORE_FILE.read_text(encoding="utf-8"))
    return {(e["target"], e["side"], e["N"], e["grid_points"]): e for e in entries}


def _stored_entry(key: tuple) -> dict | None:
    global _STORE
    with _CACHE_LOCK:
        if _STORE is None:
            _STORE = _read_store()
        return _STORE.get(key)


def _cache_key(target: str, side: str, N: int) -> tuple:
    """(target, side, N, grid_points): the target by its target_spec name
    and the construction grid of 40(N+1) points; raises ValueError on a
    bad request."""
    if side not in ("majorant", "minorant"):
        raise ValueError(f"side must be majorant or minorant, got {side!r}")
    if N < 0:
        raise ValueError(f"degree must be >= 0, got {N}")
    return (target_spec(target).name, side, N, 40 * (N + 1))


def _finish(key, spec, poly, certified, lp_mean, rounds, constraints, repair=0.0) -> OneSidedResult:
    """Repair and cache poly, whose certification gave certified = (margin,
    worst), or raise CertificationError."""
    target, side, N, grid_points = key
    sgn = 1 if side == "majorant" else -1
    poly, margin, worst, shift = _repair(poly, spec, sgn, grid_points, *certified)
    if margin < -_CERT_TOL:
        raise CertificationError(
            f"{target} {side} N={N}: margin {margin:.3e} at theta={worst:.12f} after repair"
        )
    result = OneSidedResult(
        poly=poly,
        target=spec.name,
        side=side,
        achieved_mean=poly.mean,
        oracle_mean=oracle_mean(target, side, N),
        lp_mean=lp_mean,
        certified_margin=margin,
        repair_epsilon=repair + shift,
        rounds=rounds,
        constraints=constraints,
    )
    with _CACHE_LOCK:
        _CACHE.setdefault(key, result)
    return result


def _solve(key, spec) -> OneSidedResult:
    """Construct and finish key's polynomial by the cutting-plane loop."""
    target, side, N, grid_points = key
    sgn = 1 if side == "majorant" else -1
    # an odd target flips under reflection, so its extremal minorant is the
    # reflected majorant -P(-theta); certification below stays independent
    odd_bernoulli = spec.name.startswith("bernoulli:") and int(spec.name.split(":")[1]) % 2
    if side == "minorant" and odd_bernoulli:
        maj = construct_one_sided(target, "majorant", N)
        flipped = TrigPoly(tuple(-a for a in maj.poly.cos), tuple(b for b in maj.poly.sin))
        certified = _certify_block([(flipped, spec, sgn, grid_points)])[0][:2]
        return _finish(key, spec, flipped, certified, -maj.lp_mean, maj.rounds, maj.constraints)

    grid = np.arange(grid_points) / float(grid_points)
    if spec.singular:
        grid = _sorted_unique(np.concatenate([grid, _cluster_points(_CLUSTER_DEPTH)]))

    poly = None
    used = 0
    rounds = 0
    prev_violation = math.inf
    stall = 0
    bracket = 1.0 / (10.0 * grid_points)
    for rounds in range(1, _MAX_ROUNDS + 1):
        try:
            poly, used = _solve_round(spec, sgn, N, grid)
        except SolverError as exc:
            raise SolverError(f"{target} {side} N={N}: {exc}") from exc
        margin, worst, minima = _certify_block([(poly, spec, sgn, grid_points)])[0]
        if margin >= -_STOP_VIOLATION:
            break
        violation = -margin
        stall = stall + 1 if violation > 0.9 * prev_violation else 0
        if stall >= 2:
            break  # no further progress: the solver's noise floor
        prev_violation = violation
        cuts = []
        for x, val in minima:
            if val < -_STOP_VIOLATION:
                cuts.extend([x, (x - bracket) % 1.0, (x + bracket) % 1.0])
        if not cuts:
            break
        grid = _sorted_unique(np.concatenate([grid, np.asarray(cuts)]))
    # the loop's last certification was of this very polynomial
    return _finish(key, spec, poly, (margin, worst), poly.mean, rounds, used)


def block_one_sided(keys: list[tuple]) -> list[OneSidedResult]:
    """The one-sided polynomial of each key (target, side, N), as
    construct_one_sided builds it, in key order.

    Cached keys are served from the cache.  The stored file's keys are
    certified together (_certify_block), then repaired and cached key by
    key; the remaining keys are solved one at a time.
    """
    keys = [_cache_key(*key) for key in keys]
    with _CACHE_LOCK:
        done = {key: _CACHE[key] for key in keys if key in _CACHE}
    missing = [key for key in dict.fromkeys(keys) if key not in done]
    specs = {target: target_spec(target) for target, *_ in missing}
    stored = [(key, entry) for key in missing if (entry := _stored_entry(key)) is not None]
    items = [
        (
            TrigPoly(tuple(entry["cos"]), tuple(entry["sin"])),
            specs[key[0]],
            1 if key[1] == "majorant" else -1,
            key[3],
        )
        for key, entry in stored
    ]
    for (key, entry), item, (margin, worst, _) in zip(stored, items, _certify_block(items)):
        done[key] = _finish(
            key, item[1], item[0], (margin, worst),
            entry["lp_mean"], entry["rounds"], entry["constraints"], entry["repair_epsilon"],
        )
    for key in missing:
        if key not in done:
            done[key] = _solve(key, specs[key[0]])
    return [done[key] for key in keys]


def construct_one_sided(target: str, side: str, N: int) -> OneSidedResult:
    """Extremal-mean one-sided trigonometric polynomial of degree N: a
    block of one (block_one_sided).

    side is "majorant" (minimal mean above the target) or "minorant"
    (maximal mean below it).  Results are cached per (target, side, N);
    construction is pure, so concurrent callers share the cache.
    Keys in the stored file take its polynomial instead of solving; it is
    certified and repaired like a solved one.
    """
    return block_one_sided([(target, side, N)])[0]


# ---------------------------------------------------------------------------
# Interval indicators by composition
# ---------------------------------------------------------------------------


def _interval_coefficients(saw: TrigPoly, alphas: np.ndarray, betas: np.ndarray):
    """(a_0, a, b) of (beta-alpha) + P(alpha-theta) + P(theta-beta), one
    row per interval [alpha, beta]: a_0 a vector, a = a_1..a_N and b =
    b_1..b_N (intervals x N) arrays.

    Harmonic k takes c_k = conj(P-hat(k)) e(-k alpha) + P-hat(k) e(-k beta),
    with the rounding of complex scalar arithmetic: the exponent is
    -1j * 2 pi k times the endpoint as a Python complex times a float, and
    each complex product is (ac - bd) + (ad + bc)i with every product
    rounded on its own.  numpy's array complex product fuses them, so it
    is spelled out here on real arrays.
    """
    N = saw.degree
    k = range(1, N + 1)
    forward = np.array([saw.fourier(j) for j in k], dtype=complex)
    unit = np.array([-1j * TWO_PI * j for j in k], dtype=complex)

    def rotation(x):
        z = np.empty((len(x), N), dtype=complex)
        z.real = unit.real * x[:, None] - unit.imag * 0.0
        z.imag = unit.real * 0.0 + unit.imag * x[:, None]
        return np.exp(z)

    def times(cr, ci, e):
        return cr * e.real - ci * e.imag, cr * e.imag + ci * e.real

    fr, fi = forward.real, forward.imag
    a_re, a_im = times(fr, -fi, rotation(alphas))
    b_re, b_im = times(fr, fi, rotation(betas))
    re, im = a_re + b_re, a_im + b_im
    return (betas - alphas) + 2.0 * saw.mean, 2.0 * re, -2.0 * im


def _compose_intervals(saw: TrigPoly, alphas: np.ndarray, betas: np.ndarray) -> list[TrigPoly]:
    """(beta-alpha) + P(alpha-theta) + P(theta-beta) as a polynomial, one
    per interval [alpha, beta] (_interval_coefficients)."""
    const, cos, sin = _interval_coefficients(saw, alphas, betas)
    return [
        TrigPoly((c0, *a), tuple(b)) for c0, a, b in zip(const.tolist(), cos.tolist(), sin.tolist())
    ]


def _indicator(alpha, beta, thetas: np.ndarray) -> np.ndarray:
    """Normalized indicator of [alpha, beta] on R/Z (1/2 at the endpoints);
    alpha and beta may be columns, one interval per row."""
    th = np.asarray(thetas, dtype=float)
    rel = (th - alpha) - np.floor(th - alpha)
    length = beta - alpha
    tol = 1e-13
    at_edge = (rel <= tol) | (rel >= 1.0 - tol) | (np.abs(rel - length) <= tol)
    inside = (rel > tol) & (rel < length - tol)
    return np.where(at_edge, 0.5, np.where(inside, 1.0, 0.0))


def interval_poly_block(intervals: list[tuple[float, float]], N: int) -> list[tuple[TrigPoly, TrigPoly]]:
    """Minorant and majorant of the indicator of each interval (alpha,
    beta), all of degree N, certified together.

    Built exactly by composing the sawtooth one-sided polynomials: the
    identity 1_I(theta) = (beta-alpha) + B1(alpha-theta) + B1(theta-beta)
    transfers their one-sidedness pointwise, so both integral gaps equal
    1/(N+1) up to the sawtooth construction gap.
    """
    for alpha, beta in intervals:
        if not (0.0 <= beta - alpha <= 1.0):
            raise ValueError(f"interval length must be in [0, 1], got {beta - alpha}")
    if not intervals:
        return []
    lo = construct_one_sided("sawtooth", "minorant", N)
    hi = construct_one_sided("sawtooth", "majorant", N)
    alphas = np.array([alpha for alpha, _ in intervals], dtype=float)
    betas = np.array([beta for _, beta in intervals], dtype=float)
    minors = _compose_intervals(lo.poly, alphas, betas)
    majors = _compose_intervals(hi.poly, alphas, betas)
    _certify_intervals(minors, majors, alphas, betas)
    return list(zip(minors, majors))


def interval_polys(alpha: float, beta: float, N: int):
    """(minorant, majorant) of the indicator of [alpha, beta]: a block of
    one (interval_poly_block)."""
    return interval_poly_block([(alpha, beta)], N)[0]


_INTERVAL_GRID = np.arange(4096) / 4096.0
_INTERVAL_CLUSTER = _cluster_points(_CERT_CLUSTER_DEPTH)
_INTERVAL_ROWS = 4


def _uniform_values(ps: list[TrigPoly], rs: list[TrigPoly], M: int) -> tuple[np.ndarray, np.ndarray]:
    """Each p and r (all of one degree) at m/M for m = 0..M-1, one row per
    pair, from one inverse FFT per row: harmonic k puts (a_k - i b_k)/2 in
    bin k mod M and its conjugate in bin -k mod M, so each transform is
    real; r rides in the imaginary part."""
    k = np.arange(1, ps[0].degree + 1)

    def half(polys):
        return (np.array([p.cos[1:] for p in polys]) - 1j * np.array([p.sin for p in polys])) / 2.0

    hp, hr = half(ps), half(rs)
    spec = np.zeros((len(ps), M), dtype=complex)
    spec[:, 0] = np.array([p.mean for p in ps]) + 1j * np.array([r.mean for r in rs])
    np.add.at(spec, (slice(None), k % M), hp + 1j * hr)
    np.add.at(spec, (slice(None), -k % M), np.conj(hp) + 1j * np.conj(hr))
    values = M * np.fft.ifft(spec, axis=-1)
    return values.real, values.imag


def _certify_intervals(
    minors: list[TrigPoly], majors: list[TrigPoly], alphas: np.ndarray, betas: np.ndarray
):
    """Raise CertificationError, for the first interval that fails, unless
    minor <= 1_[alpha, beta] <= major within 1e-11 on the uniform
    4,096-point grid and at the cluster points approaching both ends, for
    every interval (all polynomials of one degree)."""
    N = minors[0].degree
    a, b = alphas[:, None], betas[:, None]
    cluster = np.concatenate([(a + _INTERVAL_CLUSTER) % 1.0, (b + _INTERVAL_CLUSTER) % 1.0], axis=1)
    cos, sin = trig_table(cluster, N)

    def at_cluster(polys):
        c = np.array([p.cos for p in polys])[:, :, None]
        s = np.array([p.sin for p in polys]).reshape(len(polys), N, 1)
        return (c[:, :1] + cos @ c[:, 1:] + sin @ s)[:, :, 0]

    ind_cluster = _indicator(a, b, cluster)
    worst_minor = np.min(ind_cluster - at_cluster(minors), axis=1)
    worst_major = np.max(ind_cluster - at_cluster(majors), axis=1)
    # the grid in passes of a few intervals: timed on F_3 H_7 scan blocks
    # (9 intervals per degree on average, up to 30), passes of 4 or 8 beat
    # one pass by about a quarter, and passes of 1 are slower than either
    for i in range(0, len(minors), _INTERVAL_ROWS):
        rows = slice(i, i + _INTERVAL_ROWS)
        ind = _indicator(a[rows], b[rows], _INTERVAL_GRID)
        lower, upper = _uniform_values(minors[rows], majors[rows], len(_INTERVAL_GRID))
        np.minimum(worst_minor[rows], np.min(ind - lower, axis=1), out=worst_minor[rows])
        np.maximum(worst_major[rows], np.max(ind - upper, axis=1), out=worst_major[rows])
    bad = np.flatnonzero((worst_minor < -1e-11) | (worst_major > 1e-11))
    if len(bad):
        i = bad[0]
        raise CertificationError(
            f"interval [{alphas[i]}, {betas[i]}] N={N}: composition violates one-sidedness "
            f"(minorant {worst_minor[i]:.3e}, majorant {worst_major[i]:.3e})"
        )


# ---------------------------------------------------------------------------
# Coefficient diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientReport:
    target: str
    side: str
    N: int
    classical_bounds_ok: bool | None  # log-sine majorant: -1/(2k) <= U-hat(k) <= 0
    worst_excess: float
    fitted_constant: float | None  # Bernoulli targets: max |P-hat(k)| k^m

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "side": self.side,
            "N": self.N,
            "classical_bounds_ok": self.classical_bounds_ok,
            "worst_excess": self.worst_excess,
            "fitted_constant": self.fitted_constant,
        }


def verify_coefficient_bounds(result: OneSidedResult) -> CoefficientReport:
    """Check the classical coefficient bounds on a constructed polynomial.

    For the log-sine majorant every nonzero frequency must satisfy
    -1/(2|k|) - 1e-6 <= U-hat(k) <= 1e-6; a violation is a hard failure
    since it means the LP or the repair went wrong.  For Bernoulli
    targets the decay constant max_k |P-hat(k)| k^m is fitted and
    reported; no hard threshold exists for it.  The log-sine minorant has
    neither, so its report leaves both null.
    """
    poly = result.poly
    N = poly.degree
    if result.target == "log2sin" and result.side == "majorant":
        worst = 0.0
        ok = True
        for k in range(1, N + 1):
            uk = poly.fourier(k)
            excess = max(uk.real - 0.0, (-1.0 / (2.0 * k)) - uk.real, abs(uk.imag))
            worst = max(worst, excess)
            if excess > 1e-6:
                ok = False
        if not ok:
            raise CertificationError(
                f"log2sin majorant N={N} violates the classical coefficient "
                f"bounds by {worst:.3e}"
            )
        return CoefficientReport("log2sin", result.side, N, True, worst, None)
    if result.target == "log2sin":
        return CoefficientReport("log2sin", result.side, N, None, 0.0, None)
    m = int(result.target.split(":")[1])
    fitted = 0.0
    for k in range(1, N + 1):
        fitted = max(fitted, abs(poly.fourier(k)) * k**m)
    return CoefficientReport(result.target, result.side, N, None, 0.0, fitted)
