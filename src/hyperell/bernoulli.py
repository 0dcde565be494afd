"""Bernoulli polynomials held as exact rationals, with extrema and zeta.

Coefficients are Fractions up to index NMAX = 13 so that the closed-form
comparisons of the envelope constants hold to 1e-10 and better; floating
evaluation converts once to a numpy coefficient row and uses Horner.

Extrema of B_n on [0, 1] are located through the critical points, i.e.
the roots of B_(n-1): a sign scan on a rational grid feeds a bisection
that only ever asks for exact rational signs, and B_n is then evaluated
at the bracketed points (flatness at critical points makes the float
evaluation there accurate far beyond the bracket width).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

import numpy as np

from .errors import UnsupportedDegreeError

NMAX = 13


def _bernoulli_numbers(nmax: int) -> list[Fraction]:
    B = [Fraction(1)]
    for m in range(1, nmax + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * B[j]
        B.append(-acc / (m + 1))
    return B


class BernoulliTable:
    """Polynomials B_0..B_NMAX with extrema on [0, 1]."""

    def __init__(self):
        numbers = _bernoulli_numbers(NMAX)
        # ascending coefficient rows: B_n(x) = sum_k C(n,k) B_{n-k} x^k
        self._coeffs: list[tuple[Fraction, ...]] = []
        self._horner: list[np.ndarray] = []  # descending, for np.polyval
        for n in range(NMAX + 1):
            row = tuple(Fraction(math.comb(n, k)) * numbers[n - k] for k in range(n + 1))
            self._coeffs.append(row)
            self._horner.append(np.array([float(c) for c in reversed(row)]))
        self._extrema: dict[int, tuple[float, float]] = {}
        self._lock = threading.Lock()

    def _guard(self, n: int):
        if not (0 <= n <= NMAX):
            raise UnsupportedDegreeError(f"Bernoulli table covers indices 0..{NMAX}, got {n}")

    def coefficients(self, n: int) -> tuple[Fraction, ...]:
        """Exact ascending coefficients of B_n."""
        self._guard(n)
        return self._coeffs[n]

    def eval_exact(self, n: int, x: Fraction) -> Fraction:
        self._guard(n)
        acc = Fraction(0)
        for c in reversed(self._coeffs[n]):
            acc = acc * x + c
        return acc

    def periodic(self, n: int, x):
        """B_n at the fractional part; the n = 1 sawtooth is 0 at integers.

        x is taken as the float given: periodicity holds for exact shifts,
        and a shift that rounds onto an integer (1e-300 + 1.0 == 1.0) lands
        on the n = 1 jump.
        """
        arr = np.asarray(x, dtype=float)
        vals = self.on_unit(n, arr - np.floor(arr))
        return float(vals) if vals.ndim == 0 else vals

    def on_unit(self, n: int, frac: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """B_n at points already reduced to [0, 1), into out (not frac) if given.

        Horner's rule with the steps of np.polyval (from zero, a product
        then a sum per coefficient), in place; the n = 1 sawtooth is 0 at 0.
        """
        self._guard(n)
        if out is None:
            out = np.zeros_like(frac)
        else:
            out[...] = 0.0
        for c in self._horner[n]:
            out *= frac
            out += c
        if n == 1:
            out[frac == 0.0] = 0.0
        return out

    def _critical_points(self, n: int) -> list[float]:
        """Roots of B_(n-1) in [0, 1] by exact-sign bisection."""
        if n == 1:
            return []
        m = n - 1
        samples = 256
        grid = [Fraction(i, samples) for i in range(samples + 1)]
        signs = []
        for x in grid:
            v = self.eval_exact(m, x)
            signs.append(0 if v == 0 else (1 if v > 0 else -1))
        roots: list[float] = []
        for i, s in enumerate(signs):
            if s == 0:
                roots.append(float(grid[i]))
        for i in range(samples):
            if signs[i] * signs[i + 1] < 0:
                lo, hi = grid[i], grid[i + 1]
                slo = signs[i]
                for _ in range(46):
                    mid = (lo + hi) / 2
                    v = self.eval_exact(m, mid)
                    if v == 0:
                        lo = hi = mid
                        break
                    if (1 if v > 0 else -1) == slo:
                        lo = mid
                    else:
                        hi = mid
                roots.append(float((lo + hi) / 2))
        return roots

    def extrema(self, n: int) -> tuple[float, float]:
        """(max, min) of B_n on [0, 1], over the ends and the critical points."""
        self._guard(n)
        if n == 0:
            return (1.0, 1.0)
        with self._lock:
            cached = self._extrema.get(n)
            if cached is None:
                candidates = [0.0, 1.0] + self._critical_points(n)
                values = [float(np.polyval(self._horner[n], x)) for x in candidates]
                cached = (max(values), min(values))
                self._extrema[n] = cached
            return cached


# the one table every caller shares
TABLE = BernoulliTable()


def periodic_bernoulli(n: int, x):
    """Periodic Bernoulli value(s) at x; scalar in, scalar out.

    x is taken as the float given: periodicity holds for exact shifts, and
    a shift that rounds onto an integer lands on the n = 1 jump.
    """
    return TABLE.periodic(n, x)


def bernoulli_extrema(n: int) -> tuple[float, float]:
    """(M_n, m_n): the extrema of B_n on [0, 1]."""
    return TABLE.extrema(n)


def zeta(s: int) -> float:
    """zeta(s) for integer s >= 2, by direct summation with an
    Euler-Maclaurin tail; absolute error well below 1e-14 here."""
    if not isinstance(s, int) or s < 2:
        raise ValueError(f"zeta is implemented for integer s >= 2, got {s!r}")
    J = 64
    head = 0.0
    for j in range(J - 1, 0, -1):
        head += float(j) ** (-s)
    tail = (
        J ** (1.0 - s) / (s - 1.0)
        + 0.5 * J ** (-float(s))
        + s * J ** (-s - 1.0) / 12.0
        - s * (s + 1) * (s + 2) * J ** (-s - 3.0) / 720.0
        + s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * J ** (-s - 5.0) / 30240.0
    )
    return head + tail


def bernoulli_envelope_constants(n: int) -> tuple[float, float]:
    """(A_n^-, A_n^+): the one-sided envelope constants from the extrema
    of B_(n+1), namely (pi^n / 2) * M_(n+1) / (n+1)! and its min twin."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    hi, lo = TABLE.extrema(n + 1)
    f = math.factorial(n + 1)
    half = math.pi**n / 2.0
    return half * hi / f, -half * lo / f


def zeta_envelope_constants(n: int) -> tuple[float, float]:
    """(C_n^-, C_n^+): the zeta-value envelope constants.

    For odd n the pair is zeta(n+1)/(pi 2^(n+1)) and its (1 - 2^-n)
    damping, the roles of minus and plus swapping with n mod 4; for even
    n >= 2 the two sides coincide at the closed-form geometric mean.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n % 2 == 1:
        base = zeta(n + 1) / (math.pi * 2.0 ** (n + 1))
        damped = (1.0 - 2.0 ** (-n)) * base
        if n % 4 == 1:
            return base, damped
        return damped, base
    val = (
        math.sqrt(2.0)
        / (math.pi * 2.0 ** (n + 1))
        * math.sqrt(
            (1.0 - 2.0 ** (-n - 2))
            * (1.0 - 2.0 ** (-n + 1))
            * zeta(n)
            * zeta(n + 2)
            / (1.0 - 2.0 ** (-n))
        )
    )
    return val, val
