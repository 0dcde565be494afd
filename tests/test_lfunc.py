import math
import random

import numpy as np
import pytest
import zeros_oracle
from charsum_oracle import direct_coefficients, euler_coefficients, twisted_lambda_sum

from hyperell.charsum import Character
from hyperell.errors import ConsistencyError
from hyperell.bounds import SCAN_BLOCK
from hyperell.fqpoly import FieldSpec, Poly, enumerate_Hd, is_squarefree
from hyperell.lfunc import (
    LPolynomial,
    ZeroAngles,
    block_lpolynomials,
    block_zero_angles,
    compute_lpolynomial,
    find_zero_angles,
    power_sum,
    reconstruct_coefficients,
    unitarize,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)


@pytest.fixture(scope="module")
def sample_d5():
    rng = random.Random(11)
    pool = list(enumerate_Hd(F3, 5))
    return rng.sample(pool, 40)


def pipeline(D):
    L = compute_lpolynomial(Character(D))
    return L, find_zero_angles(L)


# --- L-polynomial assembly ---------------------------------------------------


def test_known_genus_one_cases():
    # first squarefree cubic in enumeration order: x^3+x, all linear sums vanish
    L = compute_lpolynomial(Character(Poly.make(F3, (0, 1, 0, 1))))
    assert L.c == (1, 0, 3)
    # x^3+2x+1: every linear value of D is a square, so c_1 = 3
    L2 = compute_lpolynomial(Character(Poly.make(F3, (1, 2, 0, 1))))
    assert L2.c == (1, 3, 3)


def test_endpoints_and_symmetry(sample_d5):
    for D in sample_d5[:15]:
        L = compute_lpolynomial(Character(D))
        g, q = L.g, L.q
        assert L.c[0] == 1 and L.c[2 * g] == q**g
        for k in range(g + 1):
            assert L.c[2 * g - k] == q ** (g - k) * L.c[k]


def test_genus_one_weil_bound():
    # RH on the quadratic forces |c_1| <= 2 sqrt(3)
    for D in enumerate_Hd(F3, 3):
        L = compute_lpolynomial(Character(D))
        assert abs(L.c[1]) <= 2 * math.sqrt(3) + 1e-12


def _seeded_moduli(q, d, count, seed):
    """count distinct monic squarefree moduli of degree d, drawn by index."""
    field, rng, out = FieldSpec(q), random.Random(seed), {}
    while len(out) < count:
        D = Poly.decode_monic(field, d, rng.randrange(q**d))
        if is_squarefree(D):
            out[D.monic_index()] = D
    return list(out.values())


# (q, d, sample size or None for all of H_d, oracle): direct character sums
# where they take well under a second per modulus, else the Euler product
ORACLE_CASES = {
    "F3 H3": (3, 3, None, direct_coefficients),
    "F3 H5": (3, 5, None, direct_coefficients),
    "F3 H7": (3, 7, None, direct_coefficients),
    "F5 H3": (5, 3, None, direct_coefficients),
    "F5 H5": (5, 5, None, direct_coefficients),
    "F7 H3": (7, 3, None, direct_coefficients),
    "F11 H3": (11, 3, None, direct_coefficients),
    "F13 H3": (13, 3, None, direct_coefficients),
    "F3 H9": (3, 9, 24, direct_coefficients),
    "F3 H11": (3, 11, 40, euler_coefficients),
    "F3 H13": (3, 13, 40, euler_coefficients),
    "F5 H7": (5, 7, 24, direct_coefficients),
    "F7 H5": (7, 5, 40, direct_coefficients),
    "F10007 H3": (10007, 3, 20, euler_coefficients),
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_lpolynomials_match_the_oracle(name):
    # every c_k, the symmetry-filled upper half included, equals its oracle
    # value, in blocks of SCAN_BLOCK (a partial last one included) and in
    # blocks of one
    q, d, count, oracle = ORACLE_CASES[name]
    if count is None:
        moduli = list(enumerate_Hd(FieldSpec(q), d))
    else:
        moduli = _seeded_moduli(q, d, count, seed=q * 100 + d)
    assert len(moduli) % SCAN_BLOCK
    chars = [Character(D) for D in moduli]
    blocked = []
    for start in range(0, len(chars), SCAN_BLOCK):
        blocked.extend(block_lpolynomials(chars[start : start + SCAN_BLOCK]))
    for char, L in zip(chars, blocked):
        assert L.D == char.D
        assert L.c == oracle(char) == compute_lpolynomial(char).c, str(char.D)


def test_block_lpolynomials_validation():
    cubic = Character(Poly.make(F3, (1, 2, 0, 1)))
    assert block_lpolynomials([]) == []
    with pytest.raises(ValueError):
        block_lpolynomials([cubic, Character(Poly.make(F3, (1, 2, 0, 0, 0, 1)))])
    with pytest.raises(ValueError):
        block_lpolynomials([cubic, Character(Poly.make(F5, (1, 2, 0, 1)))])


def test_genus_zero_is_constant():
    L = compute_lpolynomial(Character(Poly.make(F5, (2, 1))))
    assert L.c == (1,) and L.g == 0


def test_constructor_rejects_broken_symmetry():
    with pytest.raises(ConsistencyError):
        LPolynomial(Poly.make(F3, (1, 2, 0, 1)), (1, 2, 4))  # c_2 must be 3 c_0
    with pytest.raises(ConsistencyError):
        LPolynomial(Poly.make(F3, (1, 2, 0, 1)), (2, 0, 6))  # c_0 must be 1


def test_constructor_rejects_weil_violation():
    # symmetric, but |c_1| = 4 > C(2,1) sqrt(3)
    with pytest.raises(ConsistencyError, match="Weil"):
        LPolynomial(Poly.make(F3, (1, 2, 0, 1)), (1, 4, 3))
    # |c_1| = 3 is within the bound: this is L(u) for x^3+2x+1
    LPolynomial(Poly.make(F3, (1, 2, 0, 1)), (1, 3, 3))


# --- unitarization -----------------------------------------------------------


def test_unitarize_genus_one_formula():
    L = compute_lpolynomial(Character(Poly.make(F3, (1, 2, 0, 1))))
    xi = unitarize(L)
    for theta in np.linspace(0, 1, 13):
        expect = L.c[1] / math.sqrt(3) + 2 * math.cos(2 * math.pi * theta)
        assert xi(theta) == pytest.approx(expect, abs=1e-12)


def test_unitarize_symmetry_and_mean(sample_d5):
    for D in sample_d5[:8]:
        L = compute_lpolynomial(Character(D))
        xi = unitarize(L)
        ts = np.linspace(0.01, 0.99, 31)
        assert np.allclose(xi(ts), xi(1.0 - ts), atol=1e-12)
        # mean over [0,1) is the constant cosine coefficient
        grid = np.arange(4096) / 4096.0
        assert np.mean(xi(grid)) == pytest.approx(
            L.c[L.g] * L.q ** (-L.g / 2.0), abs=1e-9
        )


def test_unitarize_modulus_matches_direct_evaluation(sample_d5):
    for D in sample_d5[:8]:
        L = compute_lpolynomial(Character(D))
        xi = unitarize(L)
        ts = np.linspace(0.0, 1.0, 57)
        assert np.allclose(np.abs(xi(ts)), np.abs(L.complex_value(ts)), atol=1e-10)


# --- zero angles -------------------------------------------------------------


def test_explicit_cosine_zeros():
    # c_1 = 0 gives Xi = 2 cos(2 pi theta): zeros at 1/4 and 3/4
    L = compute_lpolynomial(Character(Poly.make(F3, (0, 1, 0, 1))))
    zeros = find_zero_angles(L)
    assert zeros.theta == pytest.approx((0.25, 0.75), abs=1e-12)


def test_hand_solved_quadratic_angles():
    L = compute_lpolynomial(Character(Poly.make(F3, (1, 2, 0, 1))))
    zeros = find_zero_angles(L)
    assert zeros.theta == pytest.approx((5 / 12, 7 / 12), abs=1e-12)


def test_zero_count_and_symmetry(sample_d5):
    for D in sample_d5:
        L, zeros = pipeline(D)
        assert zeros.count == 2 * L.g
        mirrored = sorted((1.0 - t) % 1.0 for t in zeros.theta)
        assert np.allclose(mirrored, zeros.theta, atol=1e-9)
        assert zeros.residual <= 1e-10 * unitarize(L).scale


def test_reconstruction_invariant(sample_d5):
    for D in sample_d5:
        L, zeros = pipeline(D)
        recon = reconstruct_coefficients(zeros, L.q)
        for k, ck in enumerate(L.c):
            assert abs(recon[k] - ck) <= 1e-6 * max(1, abs(ck))


def test_rh_radius_against_companion_matrix(sample_d5):
    # independent generic root finder: numpy companion-matrix eigenvalues,
    # with exact deflation of any repeated factor (they do occur)
    from hyperell.lfunc import rh_radius_error

    checked = 0
    for D in sample_d5[:25]:
        L, zeros = pipeline(D)
        assert rh_radius_error(L) < 1e-9
        roots = np.roots(list(reversed(L.c)))
        ours = np.sort(np.angle(roots) / (2 * math.pi) % 1.0)
        assert np.allclose(ours, zeros.theta, atol=1e-7)
        checked += 1
    assert checked >= 20


def test_exact_double_zero_is_detected():
    # x^7+x^3+x^2+2x+1 over F_3 has a repeated quadratic factor in L:
    # the finder must still deliver all 2g angles with multiplicity
    from hyperell.lfunc import rh_radius_error, squarefree_part

    D = Poly.make(F3, (1, 2, 1, 1, 0, 0, 0, 1))
    L = compute_lpolynomial(Character(D))
    zeros = find_zero_angles(L)
    assert zeros.count == 6
    sf = squarefree_part(L.c)
    assert len(sf) == 5  # squarefree part has degree 4: one factor was doubled
    assert rh_radius_error(L) < 1e-9
    mults = sorted(
        (round(t, 9) for t in zeros.theta),
    )
    assert len(set(mults)) == 4  # two doubled angles, two simple ones
    for k in range(1, 7):
        chi = Character(D)
        lhs = 3 ** (k / 2.0) * (-power_sum(zeros, -k))
        assert lhs == pytest.approx(twisted_lambda_sum(chi, k), abs=1e-8)


def test_power_sum_matches_twisted_lambda(sample_d5):
    for D in sample_d5[:12]:
        chi = Character(D)
        L, zeros = pipeline(D)
        for k in range(1, 7):
            lhs = L.q ** (k / 2.0) * (-power_sum(zeros, -k))
            assert lhs == pytest.approx(twisted_lambda_sum(chi, k), abs=1e-8)


def test_power_sum_bounds_and_symmetry(sample_d5):
    for D in sample_d5[:12]:
        L, zeros = pipeline(D)
        for k in range(1, 9):
            pk = power_sum(zeros, k)
            assert abs(pk) <= min(2 * L.g, L.q ** (k / 2.0) + 1e-9)
            assert power_sum(zeros, -k) == pytest.approx(pk, abs=1e-9)
    with pytest.raises(ValueError):
        power_sum(ZeroAngles((0.25,), 0.0), 0)


def test_q5_pipeline_smoke():
    rng = random.Random(5)
    pool = list(enumerate_Hd(F5, 5))
    for D in rng.sample(pool, 8):
        L, zeros = pipeline(D)
        assert zeros.count == 4


# --- block zero finder against the scalar oracle ---------------------------------

# the moduli of F_3 H_7 whose L-polynomial has a repeated factor
REPEATED_H7 = (
    (1, 2, 1, 1, 0, 0, 0, 1),
    (2, 2, 2, 1, 0, 0, 0, 1),
    (0, 2, 1, 0, 2, 0, 1, 1),
    (2, 1, 2, 0, 2, 0, 1, 1),
    (1, 1, 1, 0, 1, 0, 2, 1),
    (0, 2, 2, 0, 1, 0, 2, 1),
)


def _zero_ensembles():
    h7 = random.Random(707).sample(list(enumerate_Hd(F3, 7)), 200)
    h9 = random.Random(909).sample(list(enumerate_Hd(F3, 9)), 40)
    repeated = [Poly.make(F3, c) for c in REPEATED_H7]
    return {
        "F3 H5": list(enumerate_Hd(F3, 5)),
        "F5 H5": list(enumerate_Hd(F5, 5)),
        "F3 H7 repeated": repeated,
        "F3 H7": h7,
        "F3 H9": h9,
    }


@pytest.mark.parametrize("name", ["F3 H5", "F5 H5", "F3 H7 repeated", "F3 H7", "F3 H9"])
def test_block_zero_finder_matches_scalar_oracle(name):
    # angles and residuals equal the one-bracket-at-a-time finder exactly,
    # in blocks of SCAN_BLOCK (a partial last one included) and alone
    from hyperell.lfunc import squarefree_part

    Ls = [compute_lpolynomial(Character(D)) for D in _zero_ensembles()[name]]
    repeated = sum(len(squarefree_part(L.c)) < len(L.c) for L in Ls)
    assert repeated == {"F5 H5": 16, "F3 H7 repeated": 6, "F3 H9": 1}.get(name, 0)
    got = []
    for start in range(0, len(Ls), SCAN_BLOCK):
        got.extend(block_zero_angles(Ls[start : start + SCAN_BLOCK]))
    for L, zeros in zip(Ls, got):
        want = zeros_oracle.find_zero_angles(L)
        assert (zeros.theta, zeros.residual) == (want.theta, want.residual)
    for L, zeros in zip(Ls[:: max(1, len(Ls) // 20)], got[:: max(1, len(Ls) // 20)]):
        assert find_zero_angles(L) == zeros


def test_block_zero_finder_validation():
    L5 = compute_lpolynomial(Character(Poly.make(F3, (1, 2, 0, 0, 0, 1))))
    L3 = compute_lpolynomial(Character(Poly.make(F3, (1, 2, 0, 1))))
    assert block_zero_angles([]) == []
    with pytest.raises(ValueError):
        block_zero_angles([L5, L3])
