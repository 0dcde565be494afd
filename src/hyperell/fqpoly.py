"""Arithmetic in F_q and F_q[x] for an odd prime q.

Polynomials are dense coefficient tuples, lowest degree first, entries
reduced to [0, q); the zero polynomial is the empty tuple.  Degrees never
exceed a few dozen here, so every algorithm favors simplicity: schoolbook
products and remainders, square and multiply.

Monic polynomials of degree m are also handled as integer encodings: the
m non-leading coefficients read as base-q digits, constant term least
significant.  Ascending encoding order is the enumeration order used
everywhere (constant term varies fastest), which keeps streams, CSV rows
and parallel partitions deterministic.  Elements of F_(q^k) = F_q[t]/(P)
are encoded the same way, by their remainders mod P, and multiply through
exp/log tables (extension_field).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Iterator

import numpy as np

from .errors import (
    FieldMismatchError,
    ResourceLimitError,
    UnsupportedDegreeError,
)

# Largest q**degree block any table build may enumerate.
ENUMERATION_BUDGET = 30_000_000


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_q for an odd prime q below 2**31."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or not (3 <= self.q < 2**31):
            raise ValueError(f"field size must be an integer in [3, 2^31), got {self.q!r}")
        if _prime_factors(self.q) != [self.q]:
            raise ValueError(f"field size must be an odd prime, got {self.q}")

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
# Extension fields F_{q^k} as exp/log tables
# ---------------------------------------------------------------------------

_SLICE = 1 << 18  # table entries per array operation of a build


def _first_primitive(field: FieldSpec, k: int) -> Poly:
    """The first monic P of degree k, in encoding order, modulo which t has
    order q^k - 1.  Then F_q[t]/(P) has q^k - 1 units, the powers of t, so
    it is a field and P is irreducible."""
    n = field.q**k - 1
    t = Poly.x(field)
    cofactors = [n // r for r in _prime_factors(n)]
    for index in count():  # one always exists; decode_monic stops a runaway
        P = Poly.decode_monic(field, k, index)
        if t.pow_mod(n, P).coeffs == (1,) and all(t.pow_mod(e, P).coeffs != (1,) for e in cofactors):
            return P


def _times(a: np.ndarray, h: tuple, P: tuple, q: int) -> np.ndarray:
    """Encodings of a*h in F_q[t]/(P): a is an array of encodings, h one
    element as a coefficient tuple."""
    k = len(P) - 1
    M = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        row = _mod(_mul(h, (0,) * i + (1,), q), P, q)  # h t^i mod P
        M[i, : len(row)] = row
    weights = q ** np.arange(k, dtype=np.int64)
    return (a[:, None].astype(np.int64) // weights % q) @ M % q @ weights


@lru_cache(maxsize=None)
def extension_field(q: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The exp and log tables of F_{q^k} = F_q[t]/(P), as read-only int32
    arrays; the caller bounds q^k by ENUMERATION_BUDGET.

    P is the first primitive monic of degree k in encoding order, so t
    generates the multiplicative group, of order n = q^k - 1.  An element
    is encoded like a monic index: the coefficients of its remainder mod P
    as base-q digits, constant term least significant.  F_q is the
    encodings 0..q-1, and adding c in F_q changes the lowest digit only.
    exp[i] = t^(i mod n) for i < 2n and exp[2n] = 0; log[a] is the
    exponent of a != 0 and log[0] = 2n.  So a*b = exp[min(log a + log b, 2n)]
    for all a, b, and the quadratic character of a != 0 is (-1)^(log a).
    """
    field = FieldSpec(q)
    P = _first_primitive(field, k)
    n = q**k - 1
    exp = np.empty(2 * n + 1, dtype=np.int32)
    exp[0] = 1
    size = 1
    while size < n:  # exp[size : 2 size] = exp[:size] * t^size
        h = Poly.x(field).pow_mod(size, P).coeffs
        grow = min(size, n - size)
        for lo in range(0, grow, _SLICE):
            hi = min(lo + _SLICE, grow)
            exp[size + lo : size + hi] = _times(exp[lo:hi], h, P.coeffs, q)
        size += grow
    exp[n : 2 * n] = exp[:n]
    exp[2 * n] = 0
    log = np.empty(n + 1, dtype=np.int32)
    log[exp[:n]] = np.arange(n, dtype=np.int32)
    log[0] = 2 * n
    exp.flags.writeable = False
    log.flags.writeable = False
    return exp, log
