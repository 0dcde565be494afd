"""Arithmetic in F_q and F_q[x] for an odd prime q.

Polynomials are dense coefficient tuples, lowest degree first, entries
reduced to [0, q); the zero polynomial is the empty tuple.  Degrees never
exceed a few dozen here, so every algorithm favors simplicity: schoolbook
products, trial division, explicit sieves.

Monic polynomials of degree m are also handled as integer encodings: the
m non-leading coefficients read as base-q digits, constant term least
significant.  Ascending encoding order is the enumeration order used
everywhere (constant term varies fastest), which keeps streams, CSV rows
and parallel partitions deterministic.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import (
    ConsistencyError,
    FieldMismatchError,
    ResourceLimitError,
    UnsupportedDegreeError,
)

# Largest q**degree block any table build may enumerate.
ENUMERATION_BUDGET = 30_000_000


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=None)
def _legendre_table(q: int) -> tuple[int, ...]:
    half = (q - 1) // 2
    t = [0] * q
    for a in range(1, q):
        t[a] = 1 if pow(a, half, q) == 1 else -1
    return tuple(t)


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_q for an odd prime q below 2**31."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or not (3 <= self.q < 2**31):
            raise ValueError(f"field size must be an integer in [3, 2^31), got {self.q!r}")
        if not _is_odd_prime(self.q):
            raise ValueError(f"field size must be an odd prime, got {self.q}")

    def legendre(self, a: int) -> int:
        """Quadratic character of F_q: 0 on 0, else a^((q-1)/2) as +-1."""
        a %= self.q
        if self.q <= 65536:
            return _legendre_table(self.q)[a]
        if a == 0:
            return 0
        return 1 if pow(a, (self.q - 1) // 2, self.q) == 1 else -1


# ---------------------------------------------------------------------------
# Tuple-level helpers (hot paths avoid object churn)
# ---------------------------------------------------------------------------


def _trim(cs: list[int]) -> tuple[int, ...]:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _add(a, b, q):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % q
    return _trim(out)


def _neg(a, q):
    return tuple((-c) % q for c in a)


def _mul(a, b, q):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _trim(out)


def _divmod(a, b, q):
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(a) < len(b):
        return (), tuple(a)
    db = len(b) - 1
    inv = pow(b[-1], q - 2, q)
    rem = list(a)
    quot = [0] * (len(a) - db)
    for shift in range(len(a) - db - 1, -1, -1):
        c = rem[shift + db]
        if c:
            f = (c * inv) % q
            quot[shift] = f
            for i in range(db):
                bi = b[i]
                if bi:
                    rem[shift + i] = (rem[shift + i] - f * bi) % q
            rem[shift + db] = 0
    return _trim(quot), _trim(rem[:db])


def _mod(a, b, q):
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(a) < len(b):
        return tuple(a)
    db = len(b) - 1
    if db == 0:
        return ()
    inv = pow(b[-1], q - 2, q)
    rem = list(a)
    for shift in range(len(a) - db - 1, -1, -1):
        c = rem[shift + db]
        if c:
            f = (c * inv) % q
            for i in range(db):
                bi = b[i]
                if bi:
                    rem[shift + i] = (rem[shift + i] - f * bi) % q
    return _trim(rem[:db])


def _gcd(a, b, q):
    while b:
        a, b = b, _mod(a, b, q)
    if a and a[-1] != 1:
        inv = pow(a[-1], q - 2, q)
        a = tuple((c * inv) % q for c in a)
    return a


def _derivative(a, q):
    return _trim([(i * c) % q for i, c in enumerate(a)][1:])


def _squarefree_tuple(a, q) -> bool:
    d = _derivative(a, q)
    return len(_gcd(a, d, q)) == 1


# ---------------------------------------------------------------------------
# Public polynomial type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Immutable dense polynomial over F_q (coefficients low degree first)."""

    field: FieldSpec
    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, field: FieldSpec, coeffs) -> "Poly":
        q = field.q
        return cls(field, _trim([int(c) % q for c in coeffs]))

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldSpec) -> "Poly":
        return cls(field, (0, 1))

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other: "Poly"):
        if self.field.q != other.field.q:
            raise FieldMismatchError(
                f"mixed moduli: F_{self.field.q} vs F_{other.field.q}"
            )

    def __add__(self, other):
        self._check(other)
        return Poly(self.field, _add(self.coeffs, other.coeffs, self.q))

    def __sub__(self, other):
        self._check(other)
        return Poly(self.field, _add(self.coeffs, _neg(other.coeffs, self.q), self.q))

    def __mul__(self, other):
        self._check(other)
        return Poly(self.field, _mul(self.coeffs, other.coeffs, self.q))

    def __divmod__(self, other):
        self._check(other)
        quot, rem = _divmod(self.coeffs, other.coeffs, self.q)
        return Poly(self.field, quot), Poly(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        self._check(other)
        return Poly(self.field, _mod(self.coeffs, other.coeffs, self.q))

    def gcd(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.field, _gcd(self.coeffs, other.coeffs, self.q))

    def pow_mod(self, exponent: int, modulus: "Poly") -> "Poly":
        """self**exponent reduced mod modulus, by square and multiply."""
        self._check(modulus)
        if modulus.is_zero:
            raise ZeroDivisionError("zero modulus")
        q = self.q
        base = _mod(self.coeffs, modulus.coeffs, q)
        acc = (1,)
        e = exponent
        while e:
            if e & 1:
                acc = _mod(_mul(acc, base, q), modulus.coeffs, q)
            base = _mod(_mul(base, base, q), modulus.coeffs, q)
            e >>= 1
        return Poly(self.field, acc)

    def __call__(self, a: int) -> int:
        """Evaluate at a field element."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % self.q
        return acc

    def monic_index(self) -> int:
        """Encoding of the non-leading coefficients (requires monic)."""
        if not self.is_monic:
            raise ValueError("monic_index requires a monic polynomial")
        acc = 0
        for c in reversed(self.coeffs[:-1]):
            acc = acc * self.q + c
        return acc

    @classmethod
    def decode_monic(cls, field: FieldSpec, degree: int, index: int) -> "Poly":
        q = field.q
        cs = []
        t = index
        for _ in range(degree):
            cs.append(t % q)
            t //= q
        if t:
            raise ValueError(f"index {index} too large for degree {degree}")
        cs.append(1)
        return cls(field, tuple(cs))

    def __str__(self) -> str:
        return format_poly(self)


def is_squarefree(f: Poly) -> bool:
    """True iff gcd(f, f') = 1.  Requires f nonzero."""
    if f.is_zero:
        raise ValueError("squarefree test requires a nonzero polynomial")
    return _squarefree_tuple(f.coeffs, f.q)


# ---------------------------------------------------------------------------
# String form: lowercase monomial basis, e.g. "x^3+2x+1"
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+)(x(?:\^(\d+))?)?|(x(?:\^(\d+))?))$")


def format_poly(f: Poly) -> str:
    if f.is_zero:
        return "0"
    terms = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(head + ("x" if i == 1 else f"x^{i}"))
    return "+".join(terms)


def parse_poly(text: str, field: FieldSpec) -> Poly:
    """Parse the serialization format back into a Poly."""
    s = text.replace(" ", "").lower()
    if not s:
        raise ValueError("empty polynomial string")
    pairs = []
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse polynomial term {term!r}")
        if m.group(4) is not None:
            coef = 1
            exp = int(m.group(5)) if m.group(5) is not None else 1
        else:
            coef = int(m.group(1))
            if m.group(2) is None:
                exp = 0
            else:
                exp = int(m.group(3)) if m.group(3) is not None else 1
        pairs.append((exp, coef))
    out = [0] * (max(e for e, _ in pairs) + 1)
    for e, c in pairs:
        out[e] += c
    return Poly.make(field, out)


# ---------------------------------------------------------------------------
# Squarefree ensemble enumeration
# ---------------------------------------------------------------------------


def enumerate_Hd(field: FieldSpec, d: int) -> Iterator[Poly]:
    """Monic squarefree polynomials of degree d, ascending encoding order.

    Exactly q^d - q^(d-1) polynomials are produced.
    """
    if d < 2:
        raise UnsupportedDegreeError(f"squarefree ensemble needs degree >= 2, got {d}")
    q = field.q
    if q**d > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"enumerating q^d = {q}^{d} monic polynomials exceeds the budget", degree=d
        )
    for idx in range(q**d):
        cs = []
        t = idx
        for _ in range(d):
            cs.append(t % q)
            t //= q
        cs.append(1)
        if _squarefree_tuple(tuple(cs), q):
            yield Poly(field, tuple(cs))


# ---------------------------------------------------------------------------
# Prime tables
# ---------------------------------------------------------------------------


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    if n > 1:
        mu = -mu
    return mu


def necklace_count(q: int, m: int) -> int:
    """Number of monic irreducibles of degree m over F_q."""
    total = sum(_mobius(e) * q ** (m // e) for e in divisors(m))
    if total % m:
        raise ConsistencyError(f"necklace sum not divisible by {m}")
    return total // m


class PrimeTable:
    """Monic irreducible polynomials over F_q, listed per degree up to a cap.

    Each degree block is a sorted int64 array of monic encodings; Poly
    objects are decoded lazily.  Block counts are verified against the
    necklace formula at construction.
    """

    def __init__(self, field: FieldSpec, cap: int, blocks: list[np.ndarray]):
        self.field = field
        self.cap = cap
        self._blocks = blocks

    @property
    def q(self) -> int:
        return self.field.q

    def _block(self, m: int) -> np.ndarray:
        if m < 1:
            raise ValueError(f"prime degree must be >= 1, got {m}")
        if m > self.cap:
            raise ResourceLimitError(
                f"prime table capped at degree {self.cap}, need {m}", degree=m
            )
        return self._blocks[m]

    def count(self, m: int) -> int:
        return int(self._block(m).size)

    def primes(self, m: int) -> Iterator[Poly]:
        for idx in self._block(m):
            yield Poly.decode_monic(self.field, m, int(idx))

    def is_irreducible(self, f: Poly) -> bool:
        if not f.is_monic:
            return False
        m = f.degree
        if m < 1:
            return False
        block = self._block(m)
        idx = f.monic_index()
        pos = int(np.searchsorted(block, idx))
        return pos < block.size and int(block[pos]) == idx


def _digit_matrix(q: int, n: int) -> np.ndarray:
    size = q**n
    out = np.empty((size, n), dtype=np.int16)
    r = np.arange(size, dtype=np.int64)
    for t in range(n):
        out[:, t] = (r % q).astype(np.int16)
        r = r // q
    return out


def _mark_products(p: tuple[int, ...], digits: np.ndarray, q: int, m: int, a: int) -> np.ndarray:
    """Encodings of p*h for a fixed prime p of degree a and all monic h of degree m-a."""
    k = digits.shape[0]
    idx = np.zeros(k, dtype=np.int64)
    qpow = 1
    for i in range(m):
        acc = np.zeros(k, dtype=np.int64)
        for j in range(max(0, i - (m - a)), min(a, i) + 1):
            pj = p[j]
            if not pj:
                continue
            t = i - j
            if t < m - a:
                acc += pj * digits[:, t].astype(np.int64)
            else:
                acc += pj  # h is monic: coefficient of x^(m-a) is 1
        idx += (acc % q) * qpow
        qpow *= q
    return idx


def build_prime_table(field: FieldSpec, max_degree: int) -> PrimeTable:
    """Sieve all monic irreducibles of degree <= max_degree over F_q.

    A degree-m composite always has a prime factor of degree <= m//2, so
    marking every product prime*monic covers all composites; the survivors
    are the primes.  Counts are checked against the necklace formula.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    q = field.q
    if q**max_degree > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"prime sieve at degree {max_degree} over F_{q} exceeds the budget",
            degree=max_degree,
        )
    blocks: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    for m in range(1, max_degree + 1):
        composite = np.zeros(q**m, dtype=bool)
        for a in range(1, m // 2 + 1):
            digits = _digit_matrix(q, m - a)
            for enc in blocks[a]:
                p = _decode_tuple(q, a, int(enc))
                composite[_mark_products(p, digits, q, m, a)] = True
        enc = np.flatnonzero(~composite).astype(np.int64)
        expected = necklace_count(q, m)
        if enc.size != expected:
            raise ConsistencyError(
                f"prime sieve found {enc.size} degree-{m} irreducibles over F_{q}, "
                f"necklace formula gives {expected}"
            )
        blocks.append(enc)
    return PrimeTable(field, max_degree, blocks)


def _decode_tuple(q: int, degree: int, index: int) -> tuple[int, ...]:
    cs = []
    t = index
    for _ in range(degree):
        cs.append(t % q)
        t //= q
    cs.append(1)
    return tuple(cs)


_TABLE_LOCK = threading.Lock()
_TABLES: dict[int, PrimeTable] = {}


def get_prime_table(field: FieldSpec, min_cap: int) -> PrimeTable:
    """Shared per-field prime table, grown on demand (populate once)."""
    with _TABLE_LOCK:
        table = _TABLES.get(field.q)
        if table is None or table.cap < min_cap:
            table = build_prime_table(field, min_cap)
            _TABLES[field.q] = table
        return table
