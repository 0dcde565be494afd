"""Character-sum oracles for the point-counting L-polynomial.

The library gets s_1..s_g of L(u, chi_D) by counting points on y^2 = D(x)
over F_(q^k) (charsum.point_sums).  Two independent routes live here:

- the Euler product, as the library once computed it: the quadratic
  residue symbol by Euclidean reciprocity descent, chi_D on the monic
  irreducibles of a prime sieve, the twisted von Mangoldt sums
  s_k = sum over deg f = k of chi_D(f) Lambda(f), and the Newton
  identities (euler_coefficients);
- direct sums of chi_D over every monic polynomial of each degree
  (direct_coefficients), which compute every coefficient, the upper half
  included, without the functional equation.  A factorization sieve
  stores one prime-cofactor link per composite monic polynomial; chi is
  evaluated on primes only and complete multiplicativity extends it.
"""

from functools import lru_cache
from typing import Iterator

import numpy as np

from hyperell.errors import ConsistencyError, ResourceLimitError
from hyperell.fqpoly import ENUMERATION_BUDGET, FieldSpec, Poly, _mod

# ---------------------------------------------------------------------------
# Residue symbols by reciprocity descent
# ---------------------------------------------------------------------------


def legendre(q: int, a: int) -> int:
    """Quadratic character of F_q: 0 on 0, else a^((q-1)/2) as +-1."""
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def _symbol(num: tuple, mod: tuple, q: int) -> int:
    """(num/mod) for a monic modulus, by the polynomial reciprocity law

        (A/B) = (B/A) * (-1)^((q-1)/2 * deg A * deg B)      A, B monic coprime.

    Each non-monic remainder r is normalized by its leading coefficient
    lam; the factor split off is the F_q character of lam raised to the
    degree of the current modulus, because lam is a square mod a prime P
    iff lam^((|P|-1)/2) = 1 and (|P|-1)/(q-1) has the parity of deg P.
    """
    sign = 1
    reciprocity_flips = (q - 1) // 2 & 1  # only q = 3 mod 4 can flip signs
    while True:
        dm = len(mod) - 1
        if dm == 0:
            return sign
        num = _mod(num, mod, q)
        if not num:
            return 0
        lc = num[-1]
        if lc != 1:
            if (dm & 1) and legendre(q, lc) == -1:
                sign = -sign
            inv = pow(lc, q - 2, q)
            num = tuple((c * inv) % q for c in num)
        dn = len(num) - 1
        if dn == 0:
            return sign
        if reciprocity_flips and (dn & 1) and (dm & 1):
            sign = -sign
        num, mod = mod, num


def residue_symbol(f: Poly, modulus: Poly) -> int:
    """The quadratic residue symbol (f/modulus) in {-1, 0, +1}.

    The modulus must be monic and nonzero; the symbol is 0 exactly when a
    prime divides both arguments, and is multiplicative over the prime
    factorization of the modulus.
    """
    f._check(modulus)
    if modulus.is_zero:
        raise ZeroDivisionError("residue symbol needs a nonzero modulus")
    if not modulus.is_monic:
        raise ValueError("residue symbol needs a monic modulus")
    return _symbol(f.coeffs, modulus.coeffs, f.q)


def chi(char, f: Poly) -> int:
    """chi_D(f) = (D/f) for a monic nonzero f."""
    char.D._check(f)
    if f.is_zero:
        raise ValueError("chi is defined on monic nonzero polynomials")
    if not f.is_monic:
        raise ValueError("chi is defined on monic polynomials")
    return _symbol(char.D.coeffs, f.coeffs, char.q)


def euler_symbol_prime(f, p):
    """Legendre symbol mod a prime polynomial via the Euler criterion."""
    r = f % p
    if r.is_zero:
        return 0
    val = r.pow_mod((p.q**p.degree - 1) // 2, p)
    assert val.degree == 0, "Euler criterion must land on a constant"
    return 1 if val.coeffs == (1,) else -1


# ---------------------------------------------------------------------------
# Prime tables
# ---------------------------------------------------------------------------


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


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
    objects are decoded lazily.
    """

    def __init__(self, field: FieldSpec, cap: int, blocks: list[np.ndarray]):
        self.field = field
        self.cap = cap
        self._blocks = blocks

    def _block(self, m: int) -> np.ndarray:
        if m < 1:
            raise ValueError(f"prime degree must be >= 1, got {m}")
        if m > self.cap:
            raise ResourceLimitError(f"prime table capped at degree {self.cap}, need {m}", degree=m)
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
                p = Poly.decode_monic(field, a, int(enc)).coeffs
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


_TABLES: dict[int, PrimeTable] = {}


def get_prime_table(field: FieldSpec, min_cap: int) -> PrimeTable:
    """Shared per-field prime table, grown on demand."""
    table = _TABLES.get(field.q)
    if table is None or table.cap < min_cap:
        table = _TABLES[field.q] = build_prime_table(field, min_cap)
    return table


# ---------------------------------------------------------------------------
# The Euler product
# ---------------------------------------------------------------------------


def lambda_sum(field: FieldSpec, k: int, table=None) -> int:
    """Sum of the von Mangoldt weight over all monic f of degree k.

    Equals sum over m | k of m * #(primes of degree m); the prime
    polynomial theorem says this is exactly q^k.
    """
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    if table is None:
        table = get_prime_table(field, k)
    return sum(m * table.count(m) for m in divisors(k))


@lru_cache(maxsize=None)
def _chi_prime(D: tuple, p: tuple, q: int) -> int:
    return _symbol(D, p, q)


def twisted_lambda_sum(char, k: int, table=None) -> int:
    """Sum of chi(f) * Lambda(f) over monic f of degree k (exact integer).

    Iterates prime powers P^e with e * deg P = k; chi(P^e) is chi(P)^e.
    """
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    if table is None:
        table = get_prime_table(char.field, k)
    total = 0
    for m in divisors(k):
        e = k // m
        for p in table.primes(m):
            val = _chi_prime(char.D.coeffs, p.coeffs, char.q)
            if val:
                total += m * (val if e & 1 else 1)
    return total


def euler_coefficients(char) -> tuple[int, ...]:
    """c_0..c_2g from the twisted sums over primes of degree <= g, the
    Newton identities and the functional equation."""
    g, q = char.g, char.q
    if g == 0:
        return (1,)
    table = get_prime_table(char.field, g)
    s = [0] + [twisted_lambda_sum(char, k, table) for k in range(1, g + 1)]
    c = [1]
    for k in range(1, g + 1):
        ck, rem = divmod(sum(s[i] * c[k - i] for i in range(1, k + 1)), k)
        assert not rem, f"Newton identity leaves remainder {rem} at k={k} (D = {char.D})"
        c.append(ck)
    c += [q ** (g - k) * c[k] for k in range(g - 1, -1, -1)]
    return tuple(c)


# ---------------------------------------------------------------------------
# Direct character sums
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sieve(q, cap):
    """(polys, links) per degree m <= cap, monic enumeration order.

    links[m][i] is None when the i-th monic degree-m polynomial is prime,
    else (a, ia, b, ib): it is block entry ia of degree a times block entry
    ib of degree b, with the first factor prime.
    """
    field = FieldSpec(q)
    polys = [[Poly.one(field)]]
    links = [[None]]
    primes = [[]]
    for m in range(1, cap + 1):
        link = [None] * q**m
        for a in range(1, m // 2 + 1):
            for ia in primes[a]:
                for ib, h in enumerate(polys[m - a]):
                    idx = (polys[a][ia] * h).monic_index()
                    if link[idx] is None:
                        link[idx] = (a, ia, m - a, ib)
        polys.append([Poly.decode_monic(field, m, i) for i in range(q**m)])
        links.append(link)
        primes.append([i for i, x in enumerate(link) if x is None])
    return polys, links


def chi_blocks(char, cap):
    """chi on every monic polynomial of degree 0..cap, in enumeration order."""
    polys, links = _sieve(char.q, cap)
    blocks = [[1]]
    for m in range(1, cap + 1):
        out = []
        for f, link in zip(polys[m], links[m]):
            if link is None:
                out.append(chi(char, f))
            else:
                a, ia, b, ib = link
                out.append(blocks[a][ia] * blocks[b][ib])
        blocks.append(out)
    return blocks


def chi_block(char, k):
    """chi on every monic polynomial of degree k, in enumeration order."""
    return chi_blocks(char, k)[k]


def coefficient_sum(char, k):
    """Sum of chi over all monic polynomials of degree k (exact integer)."""
    return sum(chi_block(char, k))


def direct_coefficients(char):
    """c_0..c_2g of L(u, chi), each summed directly over its degree."""
    return tuple(sum(block) for block in chi_blocks(char, 2 * char.g))
