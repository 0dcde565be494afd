"""L-polynomials of quadratic characters and their critical-circle zeros.

The polynomial L(u) = sum over monic f of chi(f) u^(deg f) attached to a
character has exact integer coefficients c_0..c_2g, and the functional
equation forces c_(2g-k) = q^(g-k) c_k.  L(u) is the numerator of the
zeta function of the curve y^2 = D(x), so log L(u) = sum_k s_k u^k / k
with the point sums s_k = sum over x in F_(q^k) of chi_k(D(x))
(charsum.point_sums).  The Newton identities give c_1..c_g from s_1..s_g,
and the symmetry gives the rest, so only the fields F_(q^k) with k <= g
are ever counted.

All zeros lie on |u| = q^(-1/2), so with u = q^(-1/2) e(theta) the real
trigonometric polynomial

    Xi(theta) = c_g q^(-g/2) + 2 sum_{k<g} c_k q^(-k/2) cos(2 pi (g-k) theta)

has modulus |L| on the circle and its roots in [0,1) are exactly the zero
angles.  Working on Xi makes the root finder numerically robust (sign
changes of a real function) and makes the on-circle location of the zeros
structural rather than incidental; a generic complex companion-matrix
solver is kept in the tests as a cross-check oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charsum import Character, point_sums
from .errors import ConsistencyError, RootIsolationError
from .fqpoly import Poly

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LPolynomial:
    """Exact integer coefficients c_0..c_2g, symmetry and Weil bound verified."""

    D: Poly
    c: tuple[int, ...]

    def __post_init__(self):
        c, q, g = self.c, self.q, self.g
        if len(c) % 2 == 0:
            raise ConsistencyError("coefficient vector must have odd length 2g+1")
        if c[0] != 1:
            raise ConsistencyError(f"c_0 must be 1, got {c[0]}")
        for k in range(g + 1):
            if c[2 * g - k] != q ** (g - k) * c[k]:
                raise ConsistencyError(
                    f"functional-equation symmetry fails at k={k}: "
                    f"c_{2*g-k} = {c[2*g-k]} but q^(g-k) c_{k} = {q**(g-k)*c[k]} "
                    f"(D = {self.D})"
                )
        for k in range(1, g + 1):
            # Weil bound: c_k is a k-th elementary symmetric function of 2g
            # numbers of absolute value sqrt(q)
            if c[k] ** 2 > math.comb(2 * g, k) ** 2 * q**k:
                raise ConsistencyError(
                    f"c_{k} = {c[k]} exceeds the Weil bound C(2g,k) q^(k/2) (D = {self.D})"
                )

    @property
    def q(self) -> int:
        return self.D.q

    @property
    def g(self) -> int:
        return (len(self.c) - 1) // 2

    @property
    def d(self) -> int:
        return self.D.degree

    def to_json_dict(self) -> dict:
        return {"q": self.q, "d": self.d, "D": str(self.D), "c": list(self.c)}

    def complex_value(self, theta):
        """L(q^(-1/2) e(theta)) as a complex number (direct evaluation)."""
        u = np.exp(2j * math.pi * np.asarray(theta, dtype=float)) / math.sqrt(self.q)
        acc = np.zeros_like(u)
        for ck in reversed(self.c):
            acc = acc * u + ck
        return acc


def block_lpolynomials(chars: list[Character]) -> list[LPolynomial]:
    """L(u) of every character of a block of one field and degree, from
    the point sums and the functional equation.

    The point sums s_1..s_g of the whole block (charsum.point_sums) give
    c_1..c_g by the exact integer Newton identities
    k c_k = sum_{i=1..k} s_i c_(k-i); the upper half is filled by
    c_(2g-k) = q^(g-k) c_k.  The LPolynomial constructor then checks the
    Weil bound on every c_k, which the symmetry fill does not make true by
    construction.  Every c_k is an exact integer, whatever the block.
    """
    out = []
    for char, sums in zip(chars, point_sums(chars).tolist()):
        g, q = char.g, char.q
        s = [0] + sums
        c = [1]
        for k in range(1, g + 1):
            ck, rem = divmod(sum(s[i] * c[k - i] for i in range(1, k + 1)), k)
            if rem:
                raise ConsistencyError(
                    f"Newton identity leaves remainder {rem} at k={k} (D = {char.D})"
                )
            c.append(ck)
        c += [q ** (g - k) * c[k] for k in range(g - 1, -1, -1)]
        out.append(LPolynomial(char.D, tuple(c)))
    return out


def compute_lpolynomial(char: Character) -> LPolynomial:
    """L(u) of one character by point counting: a block of one
    (block_lpolynomials)."""
    return block_lpolynomials([char])[0]


class CosineSeries:
    """Real series sum_j a_j cos(2 pi j theta), vector-evaluated."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.scale = float(np.sum(np.abs(self.a))) or 1.0
        self._j = np.arange(len(self.a))

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        vals = np.cos(TWO_PI * np.multiply.outer(theta, self._j)) @ self.a
        return float(vals) if vals.ndim == 0 else vals

    def derivative_at(self, theta):
        theta = np.asarray(theta, dtype=float)
        vals = -TWO_PI * (
            np.sin(TWO_PI * np.multiply.outer(theta, self._j)) @ (self._j * self.a)
        )
        return float(vals) if vals.ndim == 0 else vals

    def second_derivative_at(self, theta):
        theta = np.asarray(theta, dtype=float)
        vals = -(TWO_PI**2) * (
            np.cos(TWO_PI * np.multiply.outer(theta, self._j)) @ (self._j**2 * self.a)
        )
        return float(vals) if vals.ndim == 0 else vals


def unitarize(L: LPolynomial) -> CosineSeries:
    """The real trigonometric polynomial with |Xi| = |L| on the circle.

    Obtained by pairing coefficients k and 2g-k through the functional
    equation; index j of the cosine term corresponds to k = g - j.
    """
    g, q = L.g, L.q
    a = np.zeros(g + 1)
    a[0] = L.c[g] * q ** (-g / 2.0)
    for j in range(1, g + 1):
        a[j] = 2.0 * L.c[g - j] * q ** (-(g - j) / 2.0)
    return CosineSeries(a)


@dataclass(frozen=True)
class ZeroAngles:
    """Sorted zero angles in [0,1), conjugate-symmetric, with multiplicity."""

    theta: tuple[float, ...]
    residual: float

    @property
    def count(self) -> int:
        return len(self.theta)

    def to_json_dict(self) -> dict:
        return {"theta": list(self.theta), "residual": self.residual}


def power_sum(zeros: ZeroAngles, k: int) -> float:
    """sum_j e(k theta_j); real by conjugate symmetry (imaginary part checked)."""
    if k == 0:
        raise ValueError("power sums are defined for nonzero k")
    ang = TWO_PI * k * np.asarray(zeros.theta)
    re = float(np.sum(np.cos(ang)))
    im = float(np.sum(np.sin(ang)))
    if abs(im) > 1e-9:
        raise ConsistencyError(f"power sum k={k} has imaginary part {im:.3e}")
    return re


def reconstruct_coefficients(zeros: ZeroAngles, q: int) -> np.ndarray:
    """Expand prod_j (1 - u sqrt(q) e(-theta_j)) into complex coefficients."""
    coeffs = np.array([1.0 + 0.0j])
    root_factors = -math.sqrt(q) * np.exp(-2j * math.pi * np.asarray(zeros.theta))
    for r in root_factors:
        new = np.zeros(len(coeffs) + 1, dtype=complex)
        new[: len(coeffs)] = coeffs
        new[1:] += coeffs * r
        coeffs = new
    return coeffs


def _rational_poly_gcd(a, b):
    from fractions import Fraction

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a = trim([Fraction(x) for x in a])
    b = trim([Fraction(x) for x in b])
    while b:
        r = a[:]
        for shift in range(len(r) - len(b), -1, -1):
            f = r[shift + len(b) - 1] / b[-1]
            if f:
                for i, bi in enumerate(b):
                    r[shift + i] -= f * bi
        a, b = b, trim(r[: len(b) - 1])
    return [x / a[-1] for x in a] if a else a


def squarefree_part(coeffs) -> list[float]:
    """Coefficients of the squarefree part, by exact rational gcd.

    Repeated factors are exact integer phenomena here (they do occur in
    the ensemble), and no floating root finder can place a double root
    better than the square root of machine epsilon, so radius checks
    deflate them exactly first.
    """
    from fractions import Fraction

    c = [Fraction(x) for x in coeffs]
    dc = [k * c[k] for k in range(1, len(c))]
    g = _rational_poly_gcd(c, dc)
    if len(g) <= 1:
        return [float(x) for x in c]
    quot = [Fraction(0)] * (len(c) - len(g) + 1)
    rem = c[:]
    for shift in range(len(c) - len(g), -1, -1):
        f = rem[shift + len(g) - 1] / g[-1]
        quot[shift] = f
        if f:
            for i, gi in enumerate(g):
                rem[shift + i] -= f * gi
    return [float(x) for x in quot]


def rh_radius_error(L: LPolynomial) -> float:
    """Worst deviation of |u| sqrt(q) from 1 over the roots of L, computed
    by a generic complex root finder on the exactly-deflated squarefree
    part (independent of the cosine-polynomial zero pipeline)."""
    if L.g == 0:
        return 0.0
    sf = squarefree_part(L.c)
    roots = np.roots(list(reversed(sf)))
    return float(np.max(np.abs(np.abs(roots) * math.sqrt(L.q) - 1.0)))


def _verify_reconstruction(zeros: ZeroAngles, L: LPolynomial):
    """Raise unless the zeros reconstruct every c_k within 1e-6 relative."""
    recon = reconstruct_coefficients(zeros, L.q)
    for k, ck in enumerate(L.c):
        err = abs(recon[k] - ck) / max(1.0, abs(ck))
        if err > 1e-6:
            raise ConsistencyError(
                f"zero angles do not reconstruct c_{k} of {L.D}: "
                f"{recon[k]:.9g} vs {ck} (rel err {err:.2e})"
            )


def _refine_brackets(a: np.ndarray, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray) -> np.ndarray:
    """Roots in the sign-change brackets [lo, hi] of the cosine series with
    coefficient rows a (one row per bracket), all brackets at once.

    Every lane takes the steps of a scalar search: 30 bisections (a lane
    whose midpoint value is exactly 0 stops there and returns the
    midpoint), then up to 40 Newton steps from the bracket's center, each
    lane leaving on its own df == 0, on a step that lands outside the
    bracket widened by its width, or after a step below 1e-16; the result
    is clamped to [0, 1/2].  Xi and Xi' are evaluated at a lane's point by
    one np.vecdot row, which sums in the order of the scalar 1-D @ 1-D.
    """
    j = np.arange(a.shape[1])
    ja = j * a
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    out = np.empty(len(lo))

    def xi(rows, t):
        return np.vecdot(np.cos(TWO_PI * np.multiply.outer(t, j)), a[rows])

    live = np.arange(len(lo))
    for _ in range(30):
        mid = 0.5 * (lo[live] + hi[live])
        fm = xi(live, mid)
        hit = fm == 0.0
        out[live[hit]] = mid[hit]
        live, mid, fm = live[~hit], mid[~hit], fm[~hit]
        same = (fm < 0.0) == (flo[live] < 0.0)
        lo[live[same]], flo[live[same]] = mid[same], fm[same]
        hi[live[~same]] = mid[~same]
    t = 0.5 * (lo + hi)
    width = hi - lo
    polish = live
    for _ in range(40):
        if not len(live):
            break
        df = -TWO_PI * np.vecdot(np.sin(TWO_PI * np.multiply.outer(t[live], j)), ja[live])
        live, df = live[df != 0.0], df[df != 0.0]
        step = xi(live, t[live]) / df
        t2 = t[live] - step
        inside = (lo[live] - width[live] <= t2) & (t2 <= hi[live] + width[live])
        live, step = live[inside], step[inside]
        t[live] = t2[inside]
        live = live[~(np.abs(step) < 1e-16)]
    t = t[polish]
    out[polish] = np.where(0.5 < t, 0.5, np.where(0.0 > t, 0.0, t))
    return out


def _newton_on_derivative(xi, t0, lo, hi):
    """Locate a critical point of Xi near t0 (for tangency detection)."""
    t = t0
    for _ in range(60):
        d2 = xi.second_derivative_at(t)
        if d2 == 0.0:
            break
        step = xi.derivative_at(t) / d2
        t2 = t - step
        if not (lo <= t2 <= hi):
            break
        t = t2
        if abs(step) < 1e-16:
            break
    return t


def _isolate_block(series: list[CosineSeries], g: int, points: int) -> list[list | None]:
    """Roots on [0, 1/2] of every Xi in series (all of genus g) as lists of
    (theta, multiplicity), or None for an Xi whose multiplicities do not
    account for all 2g angles (its caller escalates the grid).

    Each Xi is evaluated on the same uniform grid by one matrix-vector
    product; the brackets of every sign change of the block are then
    refined together (_refine_brackets).  Tangency sweeps, needed only
    when sign changes fall short, run per Xi.
    """
    xs = np.linspace(0.0, 0.5, points + 1)
    table = np.cos(TWO_PI * np.multiply.outer(xs, np.arange(g + 1)))
    spacing = 0.5 / points
    grids, founds, lanes = [], [], []
    rows, los, his, flos = [], [], [], []

    def bracket(m, i, k, fi):
        lanes[m].append(len(los))
        rows.append(m)
        los.append(xs[i])
        his.append(xs[k])
        flos.append(fi)

    for m, xi in enumerate(series):
        vs = table @ xi.a
        small = np.abs(vs) <= 1e-12 * xi.scale
        found: list[tuple[float, int]] = []
        lanes.append([])
        blocked = np.zeros(len(xs), dtype=bool)
        # near-zero grid values: endpoints carry even theta-multiplicity
        for i in np.flatnonzero(small):
            if blocked[i]:
                continue
            j = i
            while j + 1 < len(xs) and small[j + 1]:
                j += 1
            blocked[i : j + 2] = True
            if i == 0:
                found.append((0.0, 2))
            elif j == len(xs) - 1:
                found.append((0.5, 2))
            elif vs[i - 1] * vs[j + 1] < 0:
                bracket(m, i - 1, j + 1, vs[i - 1])
            else:
                found.append((float(xs[(i + j) // 2]), 2))
        # clean sign changes
        free = ~(blocked[:-1] | blocked[1:])
        for i in np.flatnonzero(free & (vs[:-1] * vs[1:] < 0.0)):
            bracket(m, i, i + 1, vs[i])
        grids.append((vs, blocked))
        founds.append(found)
    roots: list[float] = []
    if los:
        a = np.array([xi.a for xi in series])[rows]
        roots = _refine_brackets(a, np.array(los), np.array(his), np.array(flos)).tolist()

    def total(entries):
        return sum(m if t < 1e-15 or abs(t - 0.5) < 1e-15 else 2 * m for t, m in entries)

    out: list[list | None] = []
    for xi, (vs, blocked), found, ids in zip(series, grids, founds, lanes):
        found += [(roots[k], 1) for k in ids]
        if total(found) == 2 * g:
            out.append(found)
            continue
        if total(found) > 2 * g:
            out.append(None)
            continue
        # tangency sweep: local minima of |Xi| without sign change
        scale = xi.scale
        tangency_cap = 8.0 * scale * (math.pi * max(g, 1) * spacing) ** 2
        absv = np.abs(vs)
        for i in range(1, len(xs) - 1):
            if blocked[i - 1 : i + 2].any():
                continue
            if absv[i] <= absv[i - 1] and absv[i] <= absv[i + 1] and absv[i] <= tangency_cap:
                if vs[i - 1] * vs[i + 1] <= 0.0:
                    continue  # sign change handled above
                t = _newton_on_derivative(xi, float(xs[i]), xs[i] - 2 * spacing, xs[i] + 2 * spacing)
                t = min(max(t, 0.0), 0.5)
                if abs(xi(t)) <= 1e-10 * scale:
                    if all(abs(t - u) > spacing / 4 for u, _ in found):
                        found.append((t, 2))
        out.append(found if total(found) == 2 * g else None)
    return out


def block_zero_angles(Ls: list[LPolynomial]) -> list[ZeroAngles]:
    """All 2g zero angles of each L in a block of one genus, with
    multiplicity, by sign scanning Xi.

    Scans a uniform grid of 64(2g+2) intervals over [0, 1/2] (the half
    circle suffices by the theta <-> 1-theta symmetry), refines the sign
    changes of the whole block at once by bisection plus Newton, detects
    tangencies as near-zero critical points, and mirrors interior roots.
    The grid of an L whose angles are not all found escalates by doubling
    up to 1024(2g+2) intervals before a root-isolation failure is reported
    with the suspect data.
    Every lane is independent, so an L's angles do not depend on its block.
    """
    if len({L.g for L in Ls}) > 1:
        raise ValueError("a block takes L-polynomials of one genus")
    if not Ls or Ls[0].g == 0:
        return [ZeroAngles((), 0.0) for _ in Ls]
    g = Ls[0].g
    series = [unitarize(L) for L in Ls]
    found: list[list | None] = [None] * len(Ls)
    pending = list(range(len(Ls)))
    gf = 64
    while True:
        for m, f in zip(pending, _isolate_block([series[m] for m in pending], g, gf * (2 * g + 2))):
            found[m] = f
        pending = [m for m in pending if found[m] is None]
        if not pending:
            break
        if gf >= 1024:
            raise RootIsolationError(
                f"could not isolate {2*g} zero angles for D = {Ls[pending[0]].D} "
                f"(grid factor escalated to {gf})",
                intervals=[(0.0, 0.5)],
            )
        gf *= 2
    out = []
    for L, xi, roots in zip(Ls, series, found):
        thetas: list[float] = []
        for t, mult in sorted(roots):
            if t < 1e-15:
                thetas.extend([0.0] * mult)
            elif abs(t - 0.5) < 1e-15:
                thetas.extend([0.5] * mult)
            else:
                thetas.extend([t] * mult)
                thetas.extend([1.0 - t] * mult)
        thetas.sort()
        residual = float(np.max(np.abs(xi(np.array(thetas)))))
        zeros = ZeroAngles(tuple(thetas), residual)
        _verify_reconstruction(zeros, L)
        out.append(zeros)
    return out


def find_zero_angles(L: LPolynomial) -> ZeroAngles:
    """All 2g zero angles of one L: a block of one (block_zero_angles)."""
    return block_zero_angles([L])[0]
