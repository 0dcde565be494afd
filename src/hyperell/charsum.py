"""Quadratic residue symbols over F_q[x] and character sums.

The symbol (f/m) is computed by a Jacobi-style Euclidean descent through
the polynomial quadratic reciprocity law

    (A/B) = (B/A) * (-1)^((q-1)/2 * deg A * deg B)      A, B monic coprime.

Reciprocity is stated for monic pairs only, so each non-monic remainder r
is normalized by its leading coefficient lam; the factor split off is the
F_q quadratic character of lam raised to the degree of the current
modulus, because lam is a square mod a prime P iff lam^((|P|-1)/2) = 1 and
(|P|-1)/(q-1) has the parity of deg P.  The brute-force Euler-criterion
oracle that validates this rule lives in the test suite, never here.

The only character sums computed here are twisted von Mangoldt sums,
which need chi on primes only: each prime's symbol is evaluated once per
character and cached.  Sums of chi over all monic polynomials of a degree
are never enumerated; the L-polynomial gets them from the Euler product
(see lfunc.compute_lpolynomial).
"""

from __future__ import annotations

from .errors import UnsupportedDegreeError
from .fqpoly import (
    FieldSpec,
    Poly,
    _mod,
    _squarefree_tuple,
    divisors,
    get_prime_table,
)


def _symbol(num: tuple, mod: tuple, field: FieldSpec) -> int:
    """(num/mod) for a monic modulus, by reciprocity descent."""
    q = field.q
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
            if (dm & 1) and field.legendre(lc) == -1:
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
    return _symbol(f.coeffs, modulus.coeffs, f.field)


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


# ---------------------------------------------------------------------------
# The quadratic character chi_D
# ---------------------------------------------------------------------------


class Character:
    """chi(f) = (D/f) for a monic squarefree D of odd degree d = 2g+1.

    Immutable after construction apart from the per-prime symbol cache,
    whose entries are pure functions of the prime.
    """

    def __init__(self, D: Poly):
        if not D.is_monic:
            raise ValueError(f"character modulus must be monic, got {D}")
        if not _squarefree_tuple(D.coeffs, D.q):
            raise ValueError(f"character modulus must be squarefree, got {D}")
        if D.degree % 2 == 0:
            raise UnsupportedDegreeError(
                f"deg D = {D.degree} is even; only odd degrees d = 2g+1 are supported "
                "(the even-degree ensemble is out of scope)"
            )
        self.D = D
        self.field = D.field
        self.d = D.degree
        self.g = (D.degree - 1) // 2
        self._prime_chi: dict[tuple, int] = {}

    @property
    def q(self) -> int:
        return self.field.q

    def __repr__(self):
        return f"Character(D={self.D}, q={self.q})"

    def chi(self, f: Poly) -> int:
        """chi(f) for a monic nonzero f."""
        self.D._check(f)
        if f.is_zero:
            raise ValueError("chi is defined on monic nonzero polynomials")
        if not f.is_monic:
            raise ValueError("chi is defined on monic polynomials")
        return _symbol(self.D.coeffs, f.coeffs, self.field)

    def _chi_prime(self, coeffs: tuple) -> int:
        val = self._prime_chi.get(coeffs)
        if val is None:
            val = _symbol(self.D.coeffs, coeffs, self.field)
            self._prime_chi[coeffs] = val
        return val

    def twisted_lambda_sum(self, k: int, table=None) -> int:
        """Sum of chi(f) * Lambda(f) over monic f of degree k (exact integer).

        Iterates prime powers P^e with e * deg P = k; chi(P^e) is chi(P)^e.
        """
        if k < 1:
            raise ValueError(f"degree must be >= 1, got {k}")
        if table is None:
            table = get_prime_table(self.field, k)
        total = 0
        for m in divisors(k):
            e = k // m
            for p in table.primes(m):
                val = self._chi_prime(p.coeffs)
                if val == 0:
                    continue
                total += m * (val if e & 1 else 1)
        return total
