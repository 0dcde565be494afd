import math
import random
from fractions import Fraction

import extrema_oracle
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hyperell.argfunc import (
    antiderivative_constant,
    argument_sum,
    column_sums,
    count_zeros,
    jump_limits,
    log_modulus,
    mean_value,
    zero_multiplicities,
)
from hyperell.bernoulli import (
    NMAX,
    BernoulliTable,
    bernoulli_envelope_constants,
    bernoulli_extrema,
    periodic_bernoulli,
    zeta,
    zeta_envelope_constants,
)
from hyperell.charsum import Character
from hyperell.errors import UnsupportedDegreeError
from hyperell.fqpoly import FieldSpec, Poly, enumerate_Hd
from hyperell.lfunc import ZeroAngles, compute_lpolynomial, find_zero_angles

F3 = FieldSpec(3)
TABLE = BernoulliTable()


@pytest.fixture(scope="module")
def zeros_d5():
    rng = random.Random(23)
    pool = list(enumerate_Hd(F3, 5))
    out = []
    for D in rng.sample(pool, 10):
        L = compute_lpolynomial(Character(D))
        out.append((L, find_zero_angles(L)))
    return out


# --- Bernoulli table ---------------------------------------------------------


def test_first_bernoulli_polynomials_exact():
    assert TABLE.coefficients(0) == (Fraction(1),)
    assert TABLE.coefficients(1) == (Fraction(-1, 2), Fraction(1))
    assert TABLE.coefficients(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))
    assert TABLE.coefficients(3) == (
        Fraction(0),
        Fraction(1, 2),
        Fraction(-3, 2),
        Fraction(1),
    )


def test_derivative_recurrence_exact():
    # B'_(n+1) = (n+1) B_n as exact rational identities
    for n in range(0, NMAX):
        up = TABLE.coefficients(n + 1)
        deriv = tuple(k * up[k] for k in range(1, len(up)))
        expect = tuple((n + 1) * c for c in TABLE.coefficients(n))
        assert deriv == expect


def test_telescoping_value_identity():
    for n in range(2, NMAX + 1):
        assert TABLE.eval_exact(n, Fraction(1)) == TABLE.eval_exact(n, Fraction(0))


def test_periodic_values():
    assert periodic_bernoulli(1, 0.0) == 0.0
    assert periodic_bernoulli(1, 5.0) == 0.0
    assert periodic_bernoulli(2, 0.0) == pytest.approx(1 / 6, abs=1e-15)
    assert periodic_bernoulli(3, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert periodic_bernoulli(1, 0.25) == pytest.approx(-0.25, abs=1e-15)
    eps = 2.0**-52  # either side of the n = 1 jump
    assert periodic_bernoulli(1, eps) == periodic_bernoulli(1, 1.0 + eps) == -0.5 + eps
    assert periodic_bernoulli(1, -eps) == periodic_bernoulli(1, 1.0 - eps) == 0.5 - eps


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 13), st.floats(-3, 3, allow_nan=False))
@example(1, 0.0)
@example(1, -1.0)
@example(1, 2.0**-52)
@example(1, -(2.0**-52))
def test_periodic_is_periodic(n, x):
    # Periodicity is a property of exact shifts. When x + 1.0 rounds (a tiny
    # x lands on 1.0, the n = 1 jump), the two calls see different reals.
    # For an exact shift both fractional parts round the same real number,
    # so the values agree bit for bit.
    assume(Fraction(x) + 1 == Fraction(x + 1.0))
    assert periodic_bernoulli(n, x) == periodic_bernoulli(n, x + 1.0)


def test_table_range_guard():
    with pytest.raises(UnsupportedDegreeError):
        periodic_bernoulli(14, 0.5)


def test_periodic_matches_polyval_bit_for_bit():
    # in-place Horner takes np.polyval's steps, so every bit agrees,
    # at the n = 1 jump and for non-finite input too
    xs = np.concatenate(
        [
            np.random.default_rng(3).uniform(-3.0, 3.0, 4000),
            [0.0, -0.0, 1.0, -1.0, 2.0**-52, -(2.0**-52), 1e-300, 0.5, np.inf, np.nan],
        ]
    )
    with np.errstate(invalid="ignore"):
        for n in range(NMAX + 1):
            got = TABLE.periodic(n, xs)
            want = extrema_oracle.periodic(TABLE, n, xs)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), n
            for x in (0.3, 0.0, -0.7, 5.0):
                assert TABLE.periodic(n, x) == extrema_oracle.periodic(TABLE, n, x)


def test_extrema_small_cases():
    assert bernoulli_extrema(1) == (0.5, -0.5)
    M2, m2 = bernoulli_extrema(2)
    assert M2 == pytest.approx(1 / 6, abs=1e-15)
    assert m2 == pytest.approx(-1 / 12, abs=1e-15)
    M3, m3 = bernoulli_extrema(3)
    assert M3 == pytest.approx(math.sqrt(3) / 36, abs=1e-13)
    assert m3 == pytest.approx(-math.sqrt(3) / 36, abs=1e-13)


def test_extrema_closed_forms_even_index():
    # extrema of even-index polynomials sit at 0 and 1/2 with zeta closed forms
    for n in (1, 5):  # index n+1 = 2, 6: maximum at 0
        M, m = bernoulli_extrema(n + 1)
        f = math.factorial(n + 1)
        assert M == pytest.approx(2 * f * zeta(n + 1) / (2 * math.pi) ** (n + 1), rel=1e-12)
        assert m == pytest.approx(
            -2 * f * (1 - 2.0**-n) * zeta(n + 1) / (2 * math.pi) ** (n + 1), rel=1e-12
        )
    for n in (3, 7):  # index n+1 = 4, 8: maximum at 1/2
        M, m = bernoulli_extrema(n + 1)
        f = math.factorial(n + 1)
        assert M == pytest.approx(
            2 * f * (1 - 2.0**-n) * zeta(n + 1) / (2 * math.pi) ** (n + 1), rel=1e-12
        )
        assert m == pytest.approx(-2 * f * zeta(n + 1) / (2 * math.pi) ** (n + 1), rel=1e-12)


def test_extrema_bracketing_odd_index():
    # odd index n: symmetric extrema inside the classical bracket
    for n in (3, 5, 7, 9):
        M, m = bernoulli_extrema(n)
        assert M == pytest.approx(-m, rel=1e-12)
        lower = 2 * math.factorial(n) * (1 - 3.0 ** -(n - 1)) / (2 * math.pi) ** n
        upper = 2 * math.factorial(n) / (2 * math.pi) ** n
        assert lower < M < upper


def test_extrema_against_dense_grid():
    # extrema are of the polynomial on the closed interval [0, 1]
    grid = np.linspace(0.0, 1.0, 20001)
    for n in range(1, 14):
        M, m = bernoulli_extrema(n)
        coeffs = np.array([float(c) for c in reversed(TABLE.coefficients(n))])
        vals = np.polyval(coeffs, grid)
        assert M >= vals.max() - 1e-12
        assert m <= vals.min() + 1e-12
        assert M <= vals.max() + 1e-6
        assert m >= vals.min() - 1e-6


# --- zeta and envelope constants ---------------------------------------------


def test_zeta_known_values():
    assert zeta(2) == pytest.approx(math.pi**2 / 6, abs=1e-14)
    assert zeta(4) == pytest.approx(math.pi**4 / 90, abs=1e-14)
    assert zeta(6) == pytest.approx(math.pi**6 / 945, abs=1e-14)
    with pytest.raises(ValueError):
        zeta(1)


def test_envelope_constants_exact_match_odd():
    # A_1 = C_1 = (pi/24, pi/48); odd orders match to 1e-10 and better
    A_minus, A_plus = bernoulli_envelope_constants(1)
    assert A_minus == pytest.approx(math.pi / 24, abs=1e-12)
    assert A_plus == pytest.approx(math.pi / 48, abs=1e-12)
    for n in (1, 3, 5):
        A = bernoulli_envelope_constants(n)
        C = zeta_envelope_constants(n)
        assert A[0] == pytest.approx(C[0], abs=1e-10)
        assert A[1] == pytest.approx(C[1], abs=1e-10)


def test_envelope_constants_strict_inequality_even():
    for n in (2, 4):
        A = bernoulli_envelope_constants(n)
        C = zeta_envelope_constants(n)
        assert A[0] == pytest.approx(A[1], rel=1e-12)
        assert C[0] == C[1]
        assert A[0] < C[0]
        # classical bracket for the even orders
        lower = (1 - 3.0**-n) / (math.pi * 2 ** (n + 1))
        upper = 1.0 / (math.pi * 2 ** (n + 1))
        assert lower < A[0] < upper


def test_order_zero_envelope_is_one_quarter():
    A_minus, A_plus = bernoulli_envelope_constants(0)
    assert A_minus == pytest.approx(0.25, abs=1e-15)
    assert A_plus == pytest.approx(0.25, abs=1e-15)


# --- log modulus -------------------------------------------------------------


def test_log_modulus_closed_form():
    zeros = ZeroAngles((0.25, 0.75), 0.0)
    assert log_modulus(zeros, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_log_modulus_singularity_marker():
    zeros = ZeroAngles((0.25, 0.75), 0.0)
    assert log_modulus(zeros, 0.25) == -math.inf
    assert log_modulus(zeros, 0.75 + 1e-13) == -math.inf


@pytest.mark.parametrize("count", [*range(1, 41), 64, 100, 128, 129, 300])
def test_column_sums_match_numpy_row_sums(count):
    # every column sum rounds as np.sum rounds the matching row, also for
    # rows of signed zeros, infinities and NaNs (only NaN payloads may differ)
    rng = np.random.default_rng(count)
    rows = rng.standard_normal((400, count)) * 10.0 ** rng.integers(-12, 13, (400, count))
    special = rng.random((400, count)) < 0.2
    rows[special] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], special.sum())
    rows[:50] = rng.choice([0.0, -0.0], (50, count))
    rows[50] = -0.0
    rows[51] = math.inf
    with np.errstate(invalid="ignore"):
        want = np.sum(rows, axis=-1)
        got = column_sums(np.ascontiguousarray(rows.T))
        out = np.full(400, 7.0)
        column_sums(np.ascontiguousarray(rows.T), out=out)
    nan = np.isnan(want)
    for vals in (got, out):
        assert np.array_equal(np.isnan(vals), nan)
        assert np.array_equal(vals[~nan].view(np.int64), want[~nan].view(np.int64))
    assert np.array_equal(column_sums(np.empty((0, 3))), np.zeros(3))


def test_kernel_matches_direct_grid_evaluation(zeros_d5):
    # log_modulus and argument_sum run on the shared fractional-part kernel;
    # the direct per-function evaluation must agree exactly, for
    # scalars, vectors, matrices and at the zero angles themselves
    rng = np.random.default_rng(11)
    for _, zeros in zeros_d5:
        points = [
            0.37,
            np.concatenate([rng.uniform(-2.0, 2.0, 300), zeros.theta, [0.0, 0.5]]),
            rng.uniform(0.0, 1.0, (7, 5)),
        ]
        for theta in points:
            got = log_modulus(zeros, theta)
            want = extrema_oracle.log_modulus(zeros, theta)
            assert np.array_equal(got, want) and type(got) is type(want)
            for n in range(5):
                got = argument_sum(zeros, n, theta)
                want = extrema_oracle.argument_sum(zeros, n, theta)
                assert np.array_equal(got, want) and type(got) is type(want)


def test_log_modulus_matches_direct_evaluation(zeros_d5):
    rng = random.Random(7)
    for L, zeros in zeros_d5:
        for _ in range(64):
            theta = rng.random()
            direct = abs(L.complex_value(theta))
            if direct < 1e-8:
                continue
            assert log_modulus(zeros, theta) == pytest.approx(
                math.log(direct), abs=1e-8
            )


def test_log_modulus_mean_zero(zeros_d5):
    L, zeros = zeros_d5[0]
    grid = (np.arange(2**13) + 0.5) / 2**13
    vals = log_modulus(zeros, grid)
    finite = vals[np.isfinite(vals)]
    assert abs(finite.mean()) < 1e-3  # midpoint rule, integrable singularities


# --- argument sums -----------------------------------------------------------


def test_s0_vanishes_at_symmetry_points(zeros_d5):
    for _, zeros in zeros_d5:
        assert argument_sum(zeros, 0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert argument_sum(zeros, 0, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_s0_jump_is_plus_multiplicity(zeros_d5):
    # crossing a zero upward raises S_0 by the multiplicity: the counting
    # identity N = 2g(b-a) + S(b) - S(a) leaves no other sign choice
    for _, zeros in zeros_d5:
        for t, mult in zero_multiplicities(zeros):
            eps = 1e-9
            jump = argument_sum(zeros, 0, t + eps) - argument_sum(zeros, 0, t - eps)
            assert jump == pytest.approx(mult, abs=1e-5)


def test_jump_limits_match_one_sided_values(zeros_d5):
    for _, zeros in zeros_d5:
        angles, left, right = jump_limits(zeros)
        eps = 1e-10
        for t, lo, hi in zip(angles, left, right):
            assert argument_sum(zeros, 0, t - eps) == pytest.approx(lo, abs=1e-6)
            assert argument_sum(zeros, 0, t + eps) == pytest.approx(hi, abs=1e-6)


@pytest.mark.parametrize(
    "theta",
    [
        (0.1, np.nextafter(0.1, 1.0), 0.899, 0.9),
        (0.1, np.nextafter(0.1, 1.0), np.nextafter(np.nextafter(0.1, 1.0), 1.0), 0.3, 0.7, 0.9),
        (0.2, 0.2 + 5e-13, 0.25, 0.25, 0.75, 0.75, 0.8 - 5e-13, 0.8),
        (0.0, 2.0**-60, 0.5 - 1e-13, 0.5),
    ],
)
def test_jump_limits_of_near_coincident_zeros(theta):
    # distinct zeros within 1e-12 merge into one jump of their multiplicity:
    # the limits are S_0 just before the cluster's first zero and just past
    # its last, up to 2g eps (S_0 has slope -2g) and 2g 1e-12 (each zero
    # taken as sitting at its cluster's angle moves by at most 1e-12)
    zeros = ZeroAngles(tuple(float(t) for t in theta), 0.0)
    eps, g = 1e-9, len(theta) / 2
    angles, left, right = jump_limits(zeros)
    members = [[t for t in zeros.theta if 0.0 <= t - a <= 1e-12] for a in angles]
    for lo, hi, cluster in zip(left, right, members):
        assert abs(argument_sum(zeros, 0, cluster[0] - eps) - lo) <= 2 * g * (eps + 1e-12)
        assert abs(argument_sum(zeros, 0, cluster[-1] + eps) - hi) <= 2 * g * (eps + 1e-12)
    oracle = extrema_oracle.jump_limits(zeros)
    for got, want in zip((angles, left, right), oracle):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_mean_zero_all_orders(zeros_d5):
    for _, zeros in zeros_d5[:5]:
        for n in range(5):
            assert abs(mean_value(zeros, n)) <= 1e-7


def test_derivative_chain(zeros_d5):
    rng = random.Random(99)
    h = 1e-6
    for _, zeros in zeros_d5[:4]:
        for n in range(1, 5):
            count = 0
            while count < 32:
                theta = rng.random()
                if min(abs(theta - t) for t in zeros.theta) < 1e-3:
                    continue
                count += 1
                fd = (
                    argument_sum(zeros, n, theta + h) - argument_sum(zeros, n, theta - h)
                ) / (2 * h)
                assert fd == pytest.approx(argument_sum(zeros, n - 1, theta), abs=1e-6)


def test_antiderivative_constant(zeros_d5):
    for _, zeros in zeros_d5[:5]:
        for n in range(1, 5):
            cn = antiderivative_constant(zeros, n)
            assert cn == pytest.approx(argument_sum(zeros, n, 0.0), abs=1e-15)
            if n % 2 == 0:
                assert abs(cn) <= 1e-10
    # quadrature: int_0^theta S_(n-1) + c_n = S_n(theta), Simpson split at jumps
    _, zeros = zeros_d5[0]
    rng = random.Random(3)

    def simpson_integral(n, theta):
        cuts = [0.0] + [t for t in zeros.theta if 0.0 < t < theta] + [theta]
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo < 1e-12:
                continue
            xs = np.linspace(lo + 1e-12, hi - 1e-12, 513)
            ys = argument_sum(zeros, n, xs)
            h = (xs[-1] - xs[0]) / 512
            total += h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())
        return total

    for n in (1, 2, 3):
        cn = antiderivative_constant(zeros, n)
        for _ in range(4):
            theta = rng.random()
            assert simpson_integral(n - 1, theta) + cn == pytest.approx(
                argument_sum(zeros, n, theta), abs=1e-7
            )


def test_continuity_of_higher_orders(zeros_d5):
    rng = random.Random(41)
    h = 1e-6
    for _, zeros in zeros_d5[:3]:
        for n in (1, 2):
            sup = np.abs(argument_sum(zeros, n - 1, np.linspace(0, 1, 2048))).max()
            for _ in range(64):
                theta = rng.random()
                delta = abs(
                    argument_sum(zeros, n, theta + h) - argument_sum(zeros, n, theta)
                )
                assert delta <= (sup + 1.0) * h


def test_sn_evaluator(zeros_d5):
    _, zeros = zeros_d5[0]
    assert argument_sum(zeros, 1, 0.3) == argument_sum(zeros, 1, np.array([0.3]))[0]
    assert abs(mean_value(zeros, 1)) <= 1e-7


# --- zero counting -----------------------------------------------------------


def test_count_zeros_full_circle(zeros_d5):
    for L, zeros in zeros_d5:
        assert count_zeros(zeros, 0.1, 1.1) == 2 * L.g


def test_count_zeros_degenerate_interval(zeros_d5):
    _, zeros = zeros_d5[0]
    t = zeros.theta[0]
    assert count_zeros(zeros, t, t) == 0.5
    assert count_zeros(zeros, 0.123456, 0.123456) == 0.0


def test_count_zeros_endpoint_weight(zeros_d5):
    _, zeros = zeros_d5[0]
    t = zeros.theta[0]
    inside = count_zeros(zeros, t - 1e-6, t + 1e-6)
    at_edge = count_zeros(zeros, t, t + 1e-6)
    assert inside - at_edge == pytest.approx(0.5)


def test_counting_identity_on_random_intervals(zeros_d5):
    rng = random.Random(2718)
    for L, zeros in zeros_d5:
        for _ in range(100):
            alpha = rng.random()
            beta = alpha + rng.random()
            if beta > 1.0 + alpha:
                beta = alpha + 1.0
            lhs = count_zeros(zeros, alpha, beta)
            rhs = (
                2 * L.g * (beta - alpha)
                + argument_sum(zeros, 0, beta)
                - argument_sum(zeros, 0, alpha)
            )
            assert lhs == pytest.approx(rhs, abs=1e-8)
