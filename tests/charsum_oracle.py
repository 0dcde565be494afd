"""Direct character sums: the oracle for the Euler-product L-polynomial.

The library gets c_1..c_g of L(u, chi_D) from twisted prime sums and the
Newton identities, and c_(g+1)..c_2g from the functional equation.  This
module instead sums chi_D over every monic polynomial of each degree, so
every coefficient, the upper half included, is computed independently.

A factorization sieve stores one prime-cofactor link per composite monic
polynomial; chi is evaluated on primes only (through Character.chi) and
complete multiplicativity extends it to every monic polynomial.
"""

from functools import lru_cache

from hyperell.fqpoly import FieldSpec, Poly


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


def euler_symbol_prime(f, p):
    """Legendre symbol mod a prime polynomial via the Euler criterion."""
    r = f % p
    if r.is_zero:
        return 0
    val = r.pow_mod((p.q**p.degree - 1) // 2, p)
    assert val.degree == 0, "Euler criterion must land on a constant"
    return 1 if val.coeffs == (1,) else -1


def chi_blocks(char, cap):
    """chi on every monic polynomial of degree 0..cap, in enumeration order."""
    polys, links = _sieve(char.q, cap)
    blocks = [[1]]
    for m in range(1, cap + 1):
        out = []
        for f, link in zip(polys[m], links[m]):
            if link is None:
                out.append(char.chi(f))
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
