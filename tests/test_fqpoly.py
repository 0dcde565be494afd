import pytest
from charsum_oracle import build_prime_table, legendre, necklace_count
from hypothesis import given, settings, strategies as st

from hyperell.errors import (
    FieldMismatchError,
    ResourceLimitError,
    UnsupportedDegreeError,
)
from hyperell.fqpoly import (
    FieldSpec,
    Poly,
    enumerate_Hd,
    format_poly,
    is_squarefree,
    parse_poly,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)


def P(field, *coeffs):
    """Poly from low-degree-first coefficients."""
    return Poly.make(field, coeffs)


# --- field validation ------------------------------------------------------


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 21, 2**31 + 11])
def test_field_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        FieldSpec(bad)


def test_field_accepts_odd_primes():
    for q in (3, 5, 7, 11, 104729):
        assert FieldSpec(q).q == q


def test_legendre_character():
    # squares mod 7: 1, 2, 4
    assert [legendre(7, a) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]


# --- ring operations -------------------------------------------------------


def test_poly_mul_reduces_mod_q():
    # (x+1)(x+2) over F_3: 3x vanishes, constant 2 stays
    assert (P(F3, 1, 1) * P(F3, 2, 1)).coeffs == (2, 0, 1)


def test_poly_mul_identity():
    a = P(F3, 2, 0, 1, 1)
    assert a * Poly.one(F3) == a


def test_poly_mul_monomials():
    assert (Poly.x(F5) * Poly.x(F5)).coeffs == (0, 0, 1)


def test_poly_mul_field_mismatch():
    with pytest.raises(FieldMismatchError):
        Poly.x(F3) * Poly.x(F5)


def test_divmod_examples():
    q, r = divmod(P(F3, 1, 0, 1), Poly.x(F3))  # x^2+1 by x
    assert q.coeffs == (0, 1) and r.coeffs == (1,)
    a = P(F3, 1, 2, 0, 1)
    q, r = divmod(a, a)
    assert q == Poly.one(F3) and r.is_zero
    # long division by hand: x^3+x+1 = x*(x^2+1) + 1 over F_3
    q, r = divmod(P(F3, 1, 1, 0, 1), P(F3, 1, 0, 1))
    assert q.coeffs == (0, 1) and r.coeffs == (1,)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.x(F3), Poly.zero(F3))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3**6 - 1),
    st.integers(0, 3**4 - 1),
    st.integers(1, 4),
    st.integers(1, 6),
)
def test_divmod_roundtrip(ai, bi, db, da):
    a = Poly.decode_monic(F3, da, ai % 3**da)
    b = Poly.decode_monic(F3, db, bi % 3**db)
    quot, rem = divmod(a, b)
    assert quot * b + rem == a
    assert rem.degree < b.degree


# --- squarefree ------------------------------------------------------------


def test_squarefree_examples():
    assert not is_squarefree(P(F3, 0, 0, 1))  # x^2
    assert is_squarefree(P(F3, 1, 0, 1))  # gcd(x^2+1, 2x) = 1
    for a in range(3):
        assert is_squarefree(P(F3, a, 1))


def test_squarefree_rejects_zero():
    with pytest.raises(ValueError):
        is_squarefree(Poly.zero(F3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3**3 - 1), st.integers(0, 3**2 - 1))
def test_square_times_anything_not_squarefree(fi, gi):
    f = Poly.decode_monic(F3, 3, fi)
    g = Poly.decode_monic(F3, 2, gi)
    assert not is_squarefree(f * f * g)


def _squarefree_by_prime_squares(f, table):
    """Independent oracle: no P^2 divides f, over primes of degree <= deg f / 2."""
    for m in range(1, f.degree // 2 + 1):
        for p in table.primes(m):
            if (f % (p * p)).is_zero:
                return False
    return True


def test_squarefree_matches_factorization_oracle():
    table = build_prime_table(F3, 3)
    for d in (2, 3, 4, 5):
        for idx in range(3**d):
            f = Poly.decode_monic(F3, d, idx)
            assert is_squarefree(f) == _squarefree_by_prime_squares(f, table), str(f)


# --- ensemble enumeration --------------------------------------------------


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_Hd(F3, 3)) == 18  # 27 monic cubics minus 9
    assert sum(1 for _ in enumerate_Hd(F5, 2)) == 20  # 25 quadratics minus 5 squares


def test_enumerate_order_and_degree_guard():
    stream = list(enumerate_Hd(F3, 3))
    encs = [f.monic_index() for f in stream]
    assert encs == sorted(encs)
    assert all(f.is_monic and f.degree == 3 for f in stream)
    with pytest.raises(UnsupportedDegreeError):
        next(enumerate_Hd(F3, 1))


def test_enumerate_first_squarefree_cubic_is_x3_plus_x():
    first = next(enumerate_Hd(F3, 3))
    assert str(first) == "x^3+x"


# --- prime tables ----------------------------------------------------------


def test_prime_table_small_degrees():
    table = build_prime_table(F3, 2)
    assert sorted(str(p) for p in table.primes(1)) == ["x", "x+1", "x+2"]
    assert sorted(str(p) for p in table.primes(2)) == sorted(
        ["x^2+1", "x^2+x+2", "x^2+2x+2"]
    )


def test_prime_table_counts_match_necklace():
    assert necklace_count(3, 2) == 3
    assert necklace_count(5, 3) == 40
    table = build_prime_table(F5, 3)
    assert table.count(3) == 40
    t7 = build_prime_table(FieldSpec(7), 4)
    for m in range(1, 5):
        assert t7.count(m) == necklace_count(7, m)


def test_prime_table_membership_is_real_irreducibility():
    # brute force: degree <= 4 over F_3, no monic factor of smaller positive degree
    table = build_prime_table(F3, 4)
    for d in (2, 3, 4):
        for idx in range(3**d):
            f = Poly.decode_monic(F3, d, idx)
            has_factor = any(
                (f % Poly.decode_monic(F3, a, i)).is_zero
                for a in range(1, d)
                for i in range(3**a)
            )
            assert table.is_irreducible(f) == (not has_factor), str(f)


def test_prime_table_cap_errors():
    table = build_prime_table(F3, 2)
    with pytest.raises(ResourceLimitError):
        table.count(3)
    with pytest.raises(ResourceLimitError):
        build_prime_table(FieldSpec(104729), 3)


# --- serialization ---------------------------------------------------------


@pytest.mark.parametrize(
    "coeffs,text",
    [
        ((1, 2, 0, 1), "x^3+2x+1"),
        ((0, 1), "x"),
        ((2,), "2"),
        ((), "0"),
        ((0, 0, 2), "2x^2"),
    ],
)
def test_format_poly(coeffs, text):
    assert format_poly(Poly.make(F3, coeffs)) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5**5 - 1), st.integers(1, 5))
def test_parse_format_roundtrip(idx, d):
    f = Poly.decode_monic(F5, d, idx % 5**d)
    assert parse_poly(format_poly(f), F5) == f


def test_parse_rejects_garbage():
    for bad in ["", "x^-1", "y+1", "x**2", "3*x"]:
        with pytest.raises(ValueError):
            parse_poly(bad, F3)
