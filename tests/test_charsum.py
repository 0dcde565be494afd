import itertools
import random

import numpy as np
import pytest
from charsum_oracle import (
    build_prime_table,
    chi,
    chi_block,
    coefficient_sum,
    euler_symbol_prime,
    get_prime_table,
    lambda_sum,
    legendre,
    residue_symbol,
    twisted_lambda_sum,
)
from hypothesis import given, settings, strategies as st

from hyperell import charsum
from hyperell.charsum import Character, point_sums
from hyperell.errors import ResourceLimitError, UnsupportedDegreeError
from hyperell.fqpoly import FieldSpec, Poly, _first_primitive, enumerate_Hd, extension_field

F3 = FieldSpec(3)
F5 = FieldSpec(5)


# --- independent oracles (never touch the descent path) ---------------------


def factorize(f, table):
    """Full factorization by trial division (tests only)."""
    factors = []
    rest = f
    while rest.degree > 0:
        hit = None
        for m in range(1, rest.degree // 2 + 1):
            for p in table.primes(m):
                if (rest % p).is_zero:
                    hit = p
                    break
            if hit:
                break
        if hit is None:
            hit = rest  # rest itself is prime
        factors.append(hit)
        rest = rest // hit
    return factors


def brute_symbol(f, modulus, table):
    """(f/modulus) through the prime factorization of the modulus."""
    out = 1
    for p in factorize(modulus, table):
        out *= euler_symbol_prime(f, p)
        if out == 0:
            return 0
    return out


@pytest.fixture(scope="module")
def table3():
    return build_prime_table(F3, 6)


@pytest.fixture(scope="module")
def table5():
    return build_prime_table(F5, 4)


# --- residue symbol ---------------------------------------------------------


def test_symbol_zero_when_shared_prime():
    x = Poly.x(F3)
    assert residue_symbol(x, x) == 0
    assert residue_symbol(x * x, x) == 0


def test_symbol_x_mod_x2_plus_1():
    # x = (1+2x)^2 in F_3[x]/(x^2+1), so the symbol is +1
    assert residue_symbol(Poly.x(F3), Poly.make(F3, (1, 0, 1))) == 1
    sq = Poly.make(F3, (1, 2)) * Poly.make(F3, (1, 2)) % Poly.make(F3, (1, 0, 1))
    assert sq == Poly.x(F3)


def test_symbol_constant_modulus_is_one():
    assert residue_symbol(Poly.x(F3), Poly.one(F3)) == 1


def test_symbol_rejects_bad_modulus():
    with pytest.raises(ZeroDivisionError):
        residue_symbol(Poly.x(F3), Poly.zero(F3))
    with pytest.raises(ValueError):
        residue_symbol(Poly.x(F3), Poly.make(F3, (0, 2)))


def test_symbol_against_euler_criterion_all_small_primes(table3):
    # every prime of degree <= 4 over F_3, numerators of degree <= 3
    for m in range(1, 5):
        for p in table3.primes(m):
            for d in range(4):
                for idx in range(3**d):
                    f = Poly.decode_monic(F3, d, idx)
                    assert residue_symbol(f, p) == euler_symbol_prime(f, p), (
                        f"({f})/({p})"
                    )


@pytest.mark.parametrize("q", [65537, 65539])  # 1 and 3 mod 4
def test_symbol_against_euler_criterion_above_the_table_threshold(q):
    # large fields, on either side of 65,536 elements; moduli of degree 1
    # to 3, non-monic numerators
    field = FieldSpec(q)
    rng = random.Random(q)
    x = Poly.x(field)
    primes = []
    while len(primes) < 6:
        cand = Poly.make(field, [rng.randrange(q) for _ in range(3)] + [1])
        if (x.pow_mod(q, cand) - x).gcd(cand).degree == 0:  # a cubic without roots
            primes.append(cand)
    nonresidue = next(a for a in range(2, q) if legendre(q, a) == -1)
    primes += [x - Poly.make(field, [a]) for a in (0, 1, 12345, q - 1)]
    primes.append(x * x - Poly.make(field, [nonresidue]))
    for p in primes:
        for d in range(6):
            f = Poly.make(field, [rng.randrange(q) for _ in range(d + 1)])
            assert residue_symbol(f, p) == euler_symbol_prime(f, p), f"({f})/({p})"


def test_symbol_against_brute_composite_moduli(table3):
    # composite moduli of degree <= 4 over F_3
    for d in (2, 3, 4):
        for idx in range(3**d):
            mod = Poly.decode_monic(F3, d, idx)
            for fi in range(27):
                f = Poly.decode_monic(F3, 3, fi)
                assert residue_symbol(f, mod) == brute_symbol(f, mod, table3)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5**3 - 1), st.integers(0, 5**3 - 1), st.integers(0, 5**2 - 1))
def test_symbol_multiplicative_in_numerator(fi, hi, mi):
    f = Poly.decode_monic(F5, 3, fi)
    h = Poly.decode_monic(F5, 3, hi)
    mod = Poly.decode_monic(F5, 2, mi)
    assert residue_symbol(f * h, mod) == residue_symbol(f, mod) * residue_symbol(h, mod)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 5**3 - 1),
    st.integers(0, 5**3 - 1),
)
def test_reciprocity_law(q, da, db, ia, ib):
    field = FieldSpec(q)
    a = Poly.decode_monic(field, da, ia % q**da)
    b = Poly.decode_monic(field, db, ib % q**db)
    if a.gcd(b).degree != 0:
        return  # reciprocity needs coprime pairs
    expect = (-1) ** (((q - 1) // 2) * da * db)
    assert residue_symbol(a, b) * residue_symbol(b, a) == expect


# --- prime polynomial theorem ----------------------------------------------


def test_lambda_sum_small():
    assert lambda_sum(F3, 1) == 3
    assert lambda_sum(F3, 2) == 9
    assert lambda_sum(F5, 3) == 125


def test_lambda_sum_is_qk():
    for q in (3, 5, 7):
        field = FieldSpec(q)
        table = get_prime_table(field, 6)
        for k in range(1, 7):
            assert lambda_sum(field, k, table) == q**k


# --- the character chi_D ----------------------------------------------------


def first_squarefree(field, d):
    return next(enumerate_Hd(field, d))


def test_character_validation():
    with pytest.raises(ValueError):
        Character(Poly.make(F3, (0, 0, 0, 1)))  # x^3 is not squarefree
    with pytest.raises(UnsupportedDegreeError):
        Character(Poly.make(F3, (1, 0, 1)))  # even degree rejected
    with pytest.raises(ValueError):
        Character(Poly.make(F3, (1, 1, 0, 2)))  # not monic
    char = Character(Poly.make(F3, (1, 2, 0, 1)))  # x^3+2x+1
    assert char.g == 1 and char.d == 3


def test_chi_basics():
    char = Character(Poly.make(F3, (1, 2, 0, 1)))
    assert chi(char, Poly.one(F3)) == 1
    # chi(P) = 0 iff P divides D: D = x^3+2x+1 is prime, linears never divide
    for a in range(3):
        assert chi(char, Poly.make(F3, (a, 1))) != 0
    charD = Character(first_squarefree(F3, 3))  # x^3+x = x(x^2+1)
    assert chi(charD, Poly.x(F3)) == 0
    assert chi(charD, Poly.make(F3, (1, 0, 1))) == 0


def test_chi_matches_euler_criterion(table3):
    char = Character(Poly.make(F3, (1, 2, 0, 1)))
    for m in range(1, 4):
        for p in table3.primes(m):
            assert chi(char, p) == euler_symbol_prime(char.D, p)


def test_chi_block_matches_pointwise(table3):
    char = Character(first_squarefree(F3, 5))
    for k in range(0, 5):
        block = chi_block(char, k)
        for idx in range(3**k):
            f = Poly.decode_monic(F3, k, idx)
            assert block[idx] == brute_symbol(char.D, f, table3)


def test_coefficient_sum_examples(table3):
    char = Character(first_squarefree(F3, 3))  # D = x^3+x, g = 1
    assert coefficient_sum(char, 0) == 1
    # hand computation: chi(x+a) = legendre(D(-a)) gives 0, +1, -1
    assert coefficient_sum(char, 1) == 0
    # degree-2g polynomial: sums vanish beyond k = 2g
    for k in range(3, 7):
        assert coefficient_sum(char, k) == 0
    for k in range(0, 6):
        assert abs(coefficient_sum(char, k)) <= 3**k


def test_coefficient_sum_vanishes_beyond_2g_randomized():
    # the generating polynomial has degree exactly 2g: every higher sum is 0
    import random

    rng = random.Random(20240817)
    pool = list(enumerate_Hd(F3, 5))
    for D in rng.sample(pool, 50):
        char = Character(D)
        for k in range(2 * char.g + 1, 2 * char.g + 5):
            assert coefficient_sum(char, k) == 0, str(D)


def brute_twisted_lambda_sum(char, k, table):
    """Direct sum over all monic f of degree k with a factorization oracle."""
    total = 0
    for idx in range(char.q**k):
        f = Poly.decode_monic(char.field, k, idx)
        factors = factorize(f, table)
        if len({p.coeffs for p in factors}) != 1:
            continue  # Lambda vanishes unless f is a prime power
        p = factors[0]
        total += p.degree * brute_symbol(char.D, f, table)
    return total


def test_twisted_lambda_sum_brute_force(table3):
    char = Character(Poly.make(F3, (1, 2, 0, 1)))
    values = [twisted_lambda_sum(char, k) for k in (1, 2, 3)]
    assert values == [brute_twisted_lambda_sum(char, k, table3) for k in (1, 2, 3)]
    # hand-checked anchors for D = x^3+2x+1: all three chi(x+a) equal +1
    assert values[0] == 3


def test_twisted_lambda_sum_triangle(table5):
    char = Character(first_squarefree(F5, 3))
    for k in (1, 2, 3, 4):
        assert abs(twisted_lambda_sum(char, k)) <= 5**k


def test_twisted_k1_is_linear_character_sum():
    char = Character(first_squarefree(F5, 5))
    direct = sum(chi(char, Poly.make(F5, (a, 1))) for a in range(5))
    assert twisted_lambda_sum(char, 1) == direct


# --- point counting over F_(q^k) ----------------------------------------------


def _encode(r, q):
    return sum(c * q**j for j, c in enumerate(r.coeffs))


def _order_of_t(P):
    """Multiplicative order of t mod P, or 0 when no power of t is 1."""
    t, power = Poly.x(P.field), Poly.one(P.field) % P
    for i in range(1, P.q**P.degree):
        power = power * t % P
        if power == Poly.one(P.field):
            return i
    return 0


@pytest.mark.parametrize("q,k", [(3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (7, 2), (11, 1)])
def test_extension_field_tables(q, k):
    field = FieldSpec(q)
    exp, log = extension_field(q, k)
    n = q**k - 1
    P = _first_primitive(field, k)
    assert P.is_monic and P.degree == k and _order_of_t(P) == n
    # the first such P in encoding order
    assert all(_order_of_t(Poly.decode_monic(field, k, i)) != n for i in range(P.monic_index()))
    # exp against the powers of t by polynomial arithmetic mod P
    power = Poly.one(field)
    for i in range(n):
        assert exp[i] == exp[n + i] == _encode(power, q)
        power = power * Poly.x(field) % P
    assert exp[2 * n] == 0 and log[0] == 2 * n and len(log) == n + 1
    assert (log[exp[:n]] == np.arange(n)).all()
    # a product through the tables, a zero factor included, and F_q inside
    rng = random.Random(q * k)
    for _ in range(50):
        a, b = rng.randrange(n + 1), rng.randrange(n + 1)
        fa = Poly.make(field, [a // q**j % q for j in range(k)])
        fb = Poly.make(field, [b // q**j % q for j in range(k)])
        assert exp[min(log[a] + log[b], 2 * n)] == _encode(fa * fb % P, q)
    for a in range(q):
        assert exp[min(log[a] + log[a], 2 * n)] == a * a % q
    assert not exp.flags.writeable and not log.flags.writeable


@pytest.mark.parametrize("q,d", [(3, 5), (3, 7), (5, 5), (7, 3)])
def test_point_sums_match_twisted_sums(q, d):
    # s_k over F_(q^k) equals the twisted prime-power sum of the Euler
    # product, for every k <= g, a block at a time
    moduli = random.Random(q + d).sample(list(enumerate_Hd(FieldSpec(q), d)), 20)
    chars = [Character(D) for D in moduli]
    s = point_sums(chars)
    assert s.shape == (20, (d - 1) // 2) and s.dtype == np.int64
    for char, row in zip(chars, s.tolist()):
        assert row == [twisted_lambda_sum(char, k) for k in range(1, char.g + 1)], str(char.D)


def test_point_sums_do_not_depend_on_the_chunking(monkeypatch):
    chars = [Character(D) for D in list(enumerate_Hd(F3, 7))[:20]]
    want = point_sums(chars)
    monkeypatch.setattr(charsum, "_WORK", 50)  # chunks of 2 points, the last of a field 1
    assert (point_sums(chars) == want).all()
    monkeypatch.setattr(charsum, "_WORK", 1)
    assert (point_sums(chars[:3]) == want[:3]).all()


def test_point_sums_budget_is_checked_before_any_table():
    # F_(7^9) has over 3*10^7 elements; nothing may be built for it
    char = Character(Poly.make(FieldSpec(7), [1, 1] + [0] * 17 + [1]))
    before = extension_field.cache_info().currsize
    with pytest.raises(ResourceLimitError):
        point_sums([char])
    assert extension_field.cache_info().currsize == before


def test_point_sums_validation():
    cubic = Character(Poly.make(F3, (1, 2, 0, 1)))
    assert point_sums([]).shape == (0, 0)
    assert point_sums([Character(Poly.make(F5, (2, 1)))]).shape == (1, 0)  # genus 0
    with pytest.raises(ValueError):
        point_sums([cubic, Character(Poly.make(F5, (1, 2, 0, 1)))])
