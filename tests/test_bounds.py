import math
import os
import random
import re

import bound_oracle
import extrema_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hyperell import bounds, onesided
from hyperell.argfunc import argument_sum, log_modulus
from hyperell.bounds import (
    DEFAULT_GRID,
    SCAN_BLOCK,
    SCAN_TARGETS,
    ScanConfig,
    _block_reports,
    _bound_layer,
    _chunk_spans,
    _tail_weights,
    block_extrema,
    choose_degree,
    degree_choice,
    empirical_extrema,
    ensemble_scan,
    envelope,
    parse_target,
    rigorous_bound,
    s0_bound_interval_method,
    sample_moduli,
)
from hyperell.charsum import Character
from hyperell.cli import rows_to_csv
from hyperell.errors import CertificationError
from hyperell.fqpoly import FieldSpec, enumerate_Hd, parse_poly
from hyperell.lfunc import ZeroAngles, compute_lpolynomial, find_zero_angles
from hyperell.onesided import (
    TrigPoly,
    _certify_intervals,
    _uniform_values,
    construct_one_sided,
    interval_poly_block,
    interval_polys,
)

F3 = FieldSpec(3)


@pytest.fixture(scope="module")
def pipe_d5():
    rng = random.Random(31)
    pool = list(enumerate_Hd(F3, 5))
    out = []
    for D in rng.sample(pool, 20):
        L = compute_lpolynomial(Character(D))
        out.append((L, find_zero_angles(L)))
    return out


# --- degree policy -----------------------------------------------------------


def test_degree_choice_clamps_small_d():
    assert degree_choice(3, 5, 0) == 0
    assert degree_choice(3, 7, 1) == 0
    assert degree_choice(3, 1, 0) == 0


def test_degree_choice_direct_formula_oracle():
    # floor(2 log_q d - (2n+6) log_q log_q d) computed independently
    for q, d, n in [(3, 2187, 0), (3, 2187, 1), (5, 3125, 0), (3, 729, 2)]:
        lg = math.log(d) / math.log(q)
        expect = max(0, math.floor(2 * lg - (2 * n + 6) * (math.log(lg) / math.log(q))))
        assert degree_choice(q, d, n) == expect
    assert degree_choice(3, 2187, 0) == 3


def test_exhaustive_never_worse_than_formula(pipe_d5):
    for L, zeros in pipe_d5[:6]:
        for tag in ("logmod", "s:0", "s:1"):
            target, n = parse_target(tag)
            N_f = degree_choice(3, 5, n or 0)
            N_e = choose_degree("exhaustive", 3, 5, target, n, "upper", "weil", zeros)
            b_f = rigorous_bound(zeros, 3, target, n, "upper", N_f, "weil").bound
            b_e = rigorous_bound(zeros, 3, target, n, "upper", N_e, "weil").bound
            assert b_e <= b_f + 1e-12


def test_fixed_policy():
    zeros = None
    assert choose_degree("fixed:5", 3, 5, "logmod", None, "upper", "weil", zeros) == 5
    with pytest.raises(ValueError):
        choose_degree("sideways", 3, 5, "logmod", None, "upper", "weil", zeros)


# --- rigorous bounds ---------------------------------------------------------


def test_degree_zero_logmod_bound_is_2g_log2(pipe_d5):
    L, zeros = pipe_d5[0]
    rep = rigorous_bound(zeros, 3, "logmod", None, "upper", 0, "weil")
    assert rep.tail_term == 0.0
    assert rep.bound == pytest.approx(2 * L.g * math.log(2.0), rel=1e-6)


def test_main_term_matches_extremal_means(pipe_d5):
    from hyperell.bernoulli import bernoulli_extrema

    L, zeros = pipe_d5[0]
    g = L.g
    for n in (0, 1, 2):
        for N in (2, 5):
            rep = rigorous_bound(zeros, 3, "s", n, "upper", N, "weil")
            hi, lo = bernoulli_extrema(n + 1)
            expect = 2 * g * (-lo / (N + 1) ** (n + 1)) / math.factorial(n + 1)
            assert rep.main_term == pytest.approx(expect, rel=1e-6)


def test_exact_mode_never_exceeds_weil(pipe_d5):
    for L, zeros in pipe_d5:
        for tag in ("logmod", "s:0", "s:1", "s:2"):
            target, n = parse_target(tag)
            for N in (0, 2, 4):
                w = rigorous_bound(zeros, 3, target, n, "upper", N, "weil").bound
                e = rigorous_bound(zeros, 3, target, n, "upper", N, "exact").bound
                assert e <= w + 1e-9


def test_soundness_upper_and_lower(pipe_d5):
    for L, zeros in pipe_d5:
        for tag in ("logmod", "s:0", "s:1", "s:2"):
            target, n = parse_target(tag)
            ext = empirical_extrema(zeros, target, n, 2**12)
            for mode in ("weil", "exact"):
                N = choose_degree("exhaustive", 3, 5, target, n, "upper", mode, zeros)
                up = rigorous_bound(zeros, 3, target, n, "upper", N, mode).bound
                assert ext.max_value <= up + 1e-9
                if target == "s":
                    N2 = choose_degree("exhaustive", 3, 5, target, n, "lower", mode, zeros)
                    lo = rigorous_bound(zeros, 3, target, n, "lower", N2, mode).bound
                    assert ext.min_value >= lo - 1e-9


def test_report_carries_modulus_degree():
    D = next(iter(enumerate_Hd(F3, 7)))
    zeros = find_zero_angles(compute_lpolynomial(Character(D)))
    for mode in ("weil", "exact"):
        rep = rigorous_bound(zeros, 3, "s", 1, "lower", 3, mode)
        assert (rep.d, rep.g) == (7, 3)


@pytest.mark.parametrize("mode", ["weil", "exact"])
def test_scan_rows_match_per_modulus_bounds(mode):
    # the scan keeps weil-mode bounds for the whole scan and exact-mode
    # power sums per modulus; both must equal a fresh per-modulus evaluation
    config = ScanConfig(q=3, d=5, sample="random:6", seed=5, mode=mode)
    result = ensemble_scan(config)
    assert not result.violations
    for row in result.rows:
        D = next(P for P in sample_moduli(config) if str(P) == row["D"])
        zeros = find_zero_angles(compute_lpolynomial(Character(D)))
        N = choose_degree("exhaustive", 3, 5, row["target"], row["n"], "upper", mode, zeros)
        rep = rigorous_bound(zeros, 3, row["target"], row["n"], "upper", N, mode)
        assert (row["N_used"], row["tail_term"], row["rigorous_bound"]) == (N, rep.tail_term, rep.bound)


def test_logmod_has_no_lower_bound(pipe_d5):
    _, zeros = pipe_d5[0]
    with pytest.raises(ValueError):
        rigorous_bound(zeros, 3, "logmod", None, "lower", 4, "weil")


# --- symmetric-interval route --------------------------------------------------


def test_interval_gap_term_independent_of_theta():
    # the main term of the symmetric-interval route is 2g/(N+1) scaled,
    # independent of theta: the indicator polynomial mean always exceeds
    # the interval length by the same construction gap
    for N in (2, 4):
        gaps = []
        for theta in (0.05, 0.2, 0.35, 0.49):
            minor, major = interval_polys(-theta, theta, N)
            gaps.append(major.mean - 2 * theta)
        assert np.allclose(gaps, gaps[0], rtol=1e-9)
        assert gaps[0] == pytest.approx(1.0 / (N + 1), rel=0.005)


def test_interval_bound_holds_pointwise(pipe_d5):
    rng = random.Random(8)
    for L, zeros in pipe_d5[:8]:
        for _ in range(32):
            theta = rng.random()
            val = argument_sum(zeros, 0, theta)
            for N in (1, 3):
                up, lo = s0_bound_interval_method(zeros, 3, theta, N, "weil")
                assert lo - 1e-9 <= val <= up + 1e-9


def test_interval_vs_majorant_route_same_ballpark(pipe_d5):
    # diagnostic in spirit: both upper bounds, comparable magnitude
    ratios = []
    for L, zeros in pipe_d5[:8]:
        ext = empirical_extrema(zeros, "s", 0, 2**12)
        N = choose_degree("exhaustive", 3, 5, "s", 0, "upper", "weil", zeros)
        direct = rigorous_bound(zeros, 3, "s", 0, "upper", N, "weil").bound
        up, _ = s0_bound_interval_method(zeros, 3, ext.argmax, N, "weil")
        assert ext.max_value <= direct + 1e-9
        assert ext.max_value <= up + 1e-9
        ratios.append(direct / up)
    assert all(1 / 2.5 <= r <= 2.5 for r in ratios)


# --- bound layer against its oracle ---------------------------------------------


@pytest.fixture(scope="module")
def bound_ensembles():
    """(d, zero sets): all of F_3 H_5 and a seeded 100-modulus sample of H_7."""
    h7 = random.Random(77).sample(list(enumerate_Hd(F3, 7)), 100)
    return [
        (d, [find_zero_angles(compute_lpolynomial(Character(D))) for D in Ds])
        for d, Ds in ((5, list(enumerate_Hd(F3, 5))), (7, h7))
    ]


@pytest.mark.parametrize("policy", ["formula", "exhaustive", "fixed:0", "fixed:3"])
def test_degree_selection_matches_oracle(bound_ensembles, policy):
    # N_used and every report field equal the oracle that evaluates the
    # full bound once per candidate degree, for the public functions and
    # for the scan's block layer (one table per chunk, blocks of SCAN_BLOCK
    # and a partial last block, weil reports shared across blocks)
    for d, zero_sets in bound_ensembles:
        config = ScanConfig(q=3, d=d, policy=policy)
        layer = _bound_layer(config)
        for start in range(0, len(zero_sets), SCAN_BLOCK):
            block = zero_sets[start : start + SCAN_BLOCK]
            _, reports = _block_reports(block, config, layer)
            for b, zeros in enumerate(block):
                for mode in ("weil", "exact"):
                    for tag in SCAN_TARGETS:
                        target, n = parse_target(tag)
                        for side in ("upper",) if target == "logmod" else ("upper", "lower"):
                            N = bound_oracle.choose_degree(policy, 3, d, target, n, side, mode, zeros)
                            want = bound_oracle.rigorous_bound(zeros, 3, target, n, side, N, mode)
                            assert reports[mode, (target, n, side)][b] == want
                            assert choose_degree(policy, 3, d, target, n, side, mode, zeros) == N
                            assert rigorous_bound(zeros, 3, target, n, side, N, mode) == want


def test_exact_weights_match_power_sums(bound_ensembles):
    # the block's power sums, one zero-major matrix summed by column_sums,
    # equal the per-modulus np.sum over each zero set bit for bit
    for _, zero_sets in bound_ensembles:
        for start in range(0, len(zero_sets), SCAN_BLOCK):
            block = zero_sets[start : start + SCAN_BLOCK]
            got = _tail_weights(3, 12, "exact", block)
            for zeros, row in zip(block, got):
                want = bound_oracle.tail_weights(zeros, 3, 12, "exact")
                assert row.tolist() == want.tolist()


def test_s0_interval_bounds_match_oracle(bound_ensembles):
    # the public block of one and the scan's block path, which composes and
    # certifies every distinct (t, N) of a block together, against the
    # scalar route point by point; points past 1/2 use odd symmetry
    rng = random.Random(3)
    for d, zero_sets in bound_ensembles:
        for zeros in zero_sets[:12]:
            for theta in (0.0, 0.5, 0.25, 0.75, rng.random(), rng.random()):
                for N, mode in ((0, "weil"), (3, "exact"), (8, "weil")):
                    want = bound_oracle.s0_bound_interval_method(zeros, 3, theta, N, mode)
                    assert s0_bound_interval_method(zeros, 3, theta, N, mode) == want


def test_s0_interval_block_matches_oracle(bound_ensembles):
    # many points at once, as the scan asks: mixed degrees interleaved,
    # repeated t (within a zero set, across zero sets, and t against 1 - t),
    # points on both sides of 1/2, weil (broadcast) and exact weight rows
    rng = random.Random(5)
    weil = _tail_weights(3, 12, "weil")
    for d, zero_sets in bound_ensembles:
        g = (d - 1) // 2
        for start in (0, SCAN_BLOCK):
            block = zero_sets[start : start + SCAN_BLOCK]
            exact = _tail_weights(3, 12, "exact", block)
            shared = rng.random()
            cases = []
            for b, zeros in enumerate(block):
                x = rng.random()
                for theta in (0.0, 0.5, 0.25, 0.75, x, 1.0 - x, x, shared, zeros.theta[1]):
                    N = rng.choice([0, 1, 3, 3, 8, 12])
                    mode = rng.choice(["weil", "exact"])
                    cases.append((zeros, theta, N, mode, weil[0] if mode == "weil" else exact[b]))
            rng.shuffle(cases)
            got = bounds._s0_interval_bounds(
                g, [c[1] for c in cases], [c[2] for c in cases], np.stack([c[4] for c in cases])
            )
            assert len(got) == len(cases)
            for (zeros, theta, N, mode, _), bound in zip(cases, got):
                assert bound == bound_oracle.s0_bound_interval_method(zeros, 3, theta, N, mode)


_INTERVAL_MISS = re.compile(
    r"D=(.*) target=s:0 mode=(\w+): interval-method bound \((.*), (.*)\) misses S_0\((.*)\) = (.*)"
)


def _float(text):
    return float(text.removeprefix("np.float64(").removesuffix(")"))


@pytest.mark.parametrize("policy", ["exhaustive", "fixed:3"])
def test_scan_interval_bounds_match_oracle(policy):
    # every interval bound the scan checks, in the order it checks them:
    # a slack of -inf turns each check into a violation that carries the
    # bound, which must equal the oracle's at the oracle's degree, at the
    # argmax then the argmin of S_0, weil then exact, for every modulus
    # (F_3 H_5: ten full blocks and a partial one); ScanConfig refuses such
    # a slack, so it is set past the check
    config = ScanConfig(q=3, d=5, targets=("s:0", "s:1"), policy=policy)
    object.__setattr__(config, "soundness_slack", -math.inf)
    found = [_INTERVAL_MISS.fullmatch(v) for v in ensemble_scan(config).violations]
    found = [m.groups() for m in found if m]
    moduli = sample_moduli(config)
    assert len(found) == 4 * len(moduli)
    checks = iter(found)
    for D in moduli:
        zeros = find_zero_angles(compute_lpolynomial(Character(D)))
        ext = empirical_extrema(zeros, "s", 0)
        for mode in ("weil", "exact"):
            N = bound_oracle.choose_degree(policy, 3, 5, "s", 0, "upper", mode, zeros)
            for point, value in ((ext.argmax, ext.max_value), (ext.argmin, ext.min_value)):
                got_D, got_mode, lo, up, got_point, got_value = next(checks)
                assert (got_D, got_mode) == (str(D), mode)
                assert (_float(got_point), _float(got_value)) == (point, value)
                want = bound_oracle.s0_bound_interval_method(zeros, 3, point, N, mode)
                assert (_float(up), _float(lo)) == want


@pytest.mark.parametrize("d, sample", [(5, "all"), (7, "random:64")])
def test_scan_interval_pairs_are_one_sided_and_match_oracle(monkeypatch, d, sample):
    # the scan takes its interval bounds from the sawtooth pair without
    # composing a polynomial; its docstring proves each composed pair
    # one-sided, and here every pair behind a check of the scan is composed
    # and grid-certified (interval_poly_block raises otherwise), and each
    # bound equals the scalar oracle's, weil and exact, bit for bit
    real = bounds._s0_interval_bounds
    calls = []

    def record(g, points, degrees, weights, *rest):
        got = real(g, points, degrees, weights, *rest)
        calls.append(list(zip(points, degrees, weights, got)))
        return got

    monkeypatch.setattr(bounds, "_s0_interval_bounds", record)
    config = ScanConfig(q=3, d=d, sample=sample, seed=12)
    assert not ensemble_scan(config).violations
    moduli = sample_moduli(config)
    assert len(calls) == -(-len(moduli) // SCAN_BLOCK)
    pairs = {}
    for c, checks in enumerate(calls):
        block = moduli[c * SCAN_BLOCK : (c + 1) * SCAN_BLOCK]
        assert len(checks) == 4 * len(block)  # argmax, argmin per mode per modulus
        for i, (theta, N, w, bound) in enumerate(checks):
            zeros = find_zero_angles(compute_lpolynomial(Character(block[i // 4])))
            mode = ("weil", "exact")[i // 2 % 2]
            assert w[:N].tolist() == bound_oracle.tail_weights(zeros, 3, N, mode).tolist()
            assert bound == bound_oracle.s0_bound_interval_method(zeros, 3, theta, N, mode)
            t = theta - math.floor(theta)
            pairs.setdefault(N, set()).add(min(t, 1.0 - t))
    for N, ts in pairs.items():
        assert len(interval_poly_block([(-t, t) for t in sorted(ts)], N)) == len(ts)


def test_scan_path_never_grid_certifies(monkeypatch):
    # neither the grid certification of composed pairs nor the composition
    # itself runs on a scan, at one worker or two
    def refuse(*args):
        raise AssertionError("the scan composed or grid-certified an interval pair")

    expected = ensemble_scan(ScanConfig(q=3, d=5, threads=1))
    for name in ("_certify_intervals", "_uniform_values", "interval_poly_block", "_compose_intervals"):
        monkeypatch.setattr(onesided, name, refuse)
    for threads in (1, 2):
        result = ensemble_scan(ScanConfig(q=3, d=5, threads=threads))
        assert result.table == expected.table and not result.violations


def test_bound_layer_is_built_once_per_key():
    # scans that share (q, d, targets, policy) share one read-only layer,
    # and a warm scan gives the rows of one whose layer was built afresh
    configs = [
        ScanConfig(q=3, d=5, sample="random:24", seed=1),
        ScanConfig(q=3, d=5, sample="random:24", seed=2, mode="exact"),
        ScanConfig(q=3, d=5, sample="random:24", seed=2, soundness_slack=1e-8),
    ]
    warm = [ensemble_scan(config).table for config in configs]
    info = bounds._shared_layer.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    layer = _bound_layer(configs[0])
    assert all(_bound_layer(config) is layer for config in configs)
    assert _bound_layer(ScanConfig(q=3, d=5, policy="formula")) is not layer
    assert not layer.weil_weights.flags.writeable
    for by_degree in layer.fourier.values():
        assert not any(absw.flags.writeable for _, absw in by_degree.values())
    for config, table in zip(configs, warm):
        bounds._shared_layer.cache_clear()
        assert ensemble_scan(config).table == table


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("soundness_slack", math.nan, "soundness slack must be finite and >= 0, got nan"),
        ("soundness_slack", math.inf, "soundness slack must be finite and >= 0, got inf"),
        ("soundness_slack", -1e-300, "soundness slack must be finite and >= 0, got -1e-300"),
        ("sample", "bogus", "sample must be all or random:m, got 'bogus'"),
        ("sample", "random:abc", "sample must be all or random:m, got 'random:abc'"),
        ("sample", "random:", "sample must be all or random:m, got 'random:'"),
        ("sample", "random:-3", "sample size must be >= 0, got 'random:-3'"),
        ("policy", "fixed:x", "degree policy must be formula, exhaustive or fixed:N, got 'fixed:x'"),
        ("targets", ("logmod", "s:x"), "scan target must be logmod or s:n, got 's:x'"),
    ],
)
def test_scan_config_names_a_bad_spec(field, value, message):
    with pytest.raises(ValueError) as info:
        ScanConfig(q=3, d=5, **{field: value})
    assert str(info.value) == message


def _outcome(certify, *args):
    try:
        certify(*args)
    except CertificationError:
        return "raises"
    return "passes"


@pytest.mark.parametrize("N", [*range(9), 12])
def test_interval_certification_matches_oracle(N):
    # the FFT-grid certification passes and raises exactly where the
    # certification on the sorted union of points does: on the composed
    # polynomials, shifted by 1e-10 across the indicator, and shifted just
    # past and just short of the oracle's own worst margin
    saw_lo = construct_one_sided("sawtooth", "minorant", N).poly
    saw_hi = construct_one_sided("sawtooth", "majorant", N).poly
    rng = random.Random(N)
    seen = set()
    for t in [0.0, 0.25, 0.5, 1 / 4096, 1 / 3, 0.1, 0.49999, *(rng.uniform(0, 0.5) for _ in range(5))]:
        alpha, beta = -t, t
        minor = bound_oracle.compose_interval(saw_lo, alpha, beta)
        major = bound_oracle.compose_interval(saw_hi, alpha, beta)
        assert interval_polys(alpha, beta, N) == (minor, major)
        worst_minor, worst_major = bound_oracle.interval_margins(minor, major, alpha, beta)
        cases = [(minor, major)]
        for shift in (1e-10, worst_minor + 2e-11, worst_minor - 2e-11):
            cases.append((minor.shifted(shift), major))
        for shift in (1e-10, -worst_major + 2e-11, -worst_major - 2e-11):
            cases.append((minor, major.shifted(-shift)))
        outcomes = []
        for lower, upper in cases:
            want = _outcome(bound_oracle.certify_interval, lower, upper, alpha, beta)
            assert _outcome(_certify_one, lower, upper, alpha, beta) == want
            outcomes.append(want)
        # certified together, the cases raise exactly when one of them does
        lowers, uppers = zip(*cases)
        ends = np.full(len(cases), alpha), np.full(len(cases), beta)
        together = _outcome(_certify_intervals, list(lowers), list(uppers), *ends)
        assert together == ("raises" if "raises" in outcomes else "passes")
        seen.update(outcomes)
    assert seen == {"passes", "raises"}


def _certify_one(minor, major, alpha, beta):
    _certify_intervals([minor], [major], np.array([alpha]), np.array([beta]))


def _bits(poly):
    return [float.hex(float(x)) for x in poly.cos + poly.sin]


@pytest.mark.parametrize("N", [*range(9), 12])
def test_interval_block_composes_as_scalar_arithmetic(N):
    # every coefficient of every interval composed in one block has the bits
    # of the scalar complex arithmetic, signed zeros included
    saw_lo = construct_one_sided("sawtooth", "minorant", N).poly
    saw_hi = construct_one_sided("sawtooth", "majorant", N).poly
    rng = random.Random(100 + N)
    ts = [0.0, -0.0, 0.5, 0.25, 1 / 3, 1 / 4096, *(rng.uniform(0, 0.5) for _ in range(40))]
    intervals = [(-t, t) for t in ts] + [(0.3, 0.55), (0.1, 0.9), (0.0, 1.0), (0.7, 1.2), (0.2, 0.2)]
    for (alpha, beta), (minor, major) in zip(intervals, interval_poly_block(intervals, N)):
        assert _bits(minor) == _bits(bound_oracle.compose_interval(saw_lo, alpha, beta))
        assert _bits(major) == _bits(bound_oracle.compose_interval(saw_hi, alpha, beta))


@pytest.mark.parametrize("N", [0, 1, 5, 31, 32, 33, 100])
def test_uniform_values_match_direct_evaluation(N):
    # one inverse FFT gives both polynomials on the uniform grid, also when
    # the degree wraps past the grid (harmonics fold onto bin k mod M); the
    # reference sums cos and sin of the angles reduced exactly mod 1
    rng = np.random.default_rng(N)
    polys = [
        TrigPoly(tuple(rng.uniform(-1, 1, N + 1)), tuple(rng.uniform(-1, 1, N)))
        for _ in range(2)
    ]
    ang = 2 * np.pi * (np.outer(np.arange(64), np.arange(1, N + 1)) % 64) / 64
    for got, poly in zip(_uniform_values(polys[:1], polys[1:], 64), polys):
        got = got[0]
        want = poly.mean + np.cos(ang) @ np.array(poly.cos[1:]) + np.sin(ang) @ np.array(poly.sin)
        assert np.max(np.abs(got - want)) < 1e-13


# --- empirical extrema ---------------------------------------------------------


def test_s0_supremum_is_a_jump_limit(pipe_d5):
    from hyperell.argfunc import jump_limits

    for L, zeros in pipe_d5[:8]:
        ext = empirical_extrema(zeros, "s", 0, 2**12)
        angles, left, right = jump_limits(zeros)
        assert ext.max_value == pytest.approx(right.max(), abs=1e-12)
        assert ext.min_value == pytest.approx(left.min(), abs=1e-12)


def test_s0_extrema_mirror_by_oddness(pipe_d5):
    for L, zeros in pipe_d5[:8]:
        ext = empirical_extrema(zeros, "s", 0, 2**12)
        assert ext.max_value == pytest.approx(-ext.min_value, abs=1e-9)


def test_logmod_argmax_away_from_zeros(pipe_d5):
    for L, zeros in pipe_d5[:8]:
        ext = empirical_extrema(zeros, "logmod", None, 2**12)
        value, arg = ext.max_value, ext.argmax
        assert math.isfinite(value)
        dist = min(abs(arg - t) % 1.0 for t in zeros.theta)
        assert min(dist, 1.0 - dist) > 1e-4
        assert value == pytest.approx(log_modulus(zeros, arg), abs=1e-12)


def test_grid_size_validation(pipe_d5):
    _, zeros = pipe_d5[0]
    with pytest.raises(ValueError):
        empirical_extrema(zeros, "s", 0, 512)


@pytest.fixture(scope="module")
def ensembles():
    """Zero sets of all of F_3 H_5, of a seeded 200-modulus sample of H_7,
    of a seeded 100-modulus sample of F_5 H_5 and of all of F_7 H_3."""
    h7 = random.Random(2024).sample(list(enumerate_Hd(F3, 7)), 200)
    f5h5 = random.Random(55).sample(list(enumerate_Hd(FieldSpec(5), 5)), 100)
    return {
        name: [find_zero_angles(compute_lpolynomial(Character(D))) for D in Ds]
        for name, Ds in (
            ("h5", list(enumerate_Hd(F3, 5))),
            ("h7", h7),
            ("f5h5", f5h5),
            ("f7h3", list(enumerate_Hd(FieldSpec(7), 3))),
        )
    }


@pytest.mark.parametrize("grid_size", [2**10, 2**12, 2**14])
@pytest.mark.parametrize("name", ["h5", "h7", "f5h5", "f7h3"])
def test_block_extrema_match_per_modulus_oracle(ensembles, name, grid_size):
    # a block of one, then full blocks, then a partial last block: every
    # extremum equals the per-modulus oracle's
    zero_sets = ensembles[name]
    targets = [parse_target(tag) for tag in SCAN_TARGETS]
    cuts = [0, 1, *range(1 + SCAN_BLOCK, len(zero_sets), SCAN_BLOCK), len(zero_sets)]
    sizes = np.diff(cuts)
    assert sizes[0] == 1 and sizes[1] == SCAN_BLOCK and sizes[-1] < SCAN_BLOCK
    got = []
    for i, j in zip(cuts, cuts[1:]):
        got.extend(block_extrema(zero_sets[i:j], targets, grid_size))
    for zeros, row in zip(zero_sets, got):
        assert row == [
            extrema_oracle.empirical_extrema(zeros, target, n, grid_size) for target, n in targets
        ]


@pytest.fixture(scope="module")
def slice_ensembles():
    """Zero sets of all of F_3 H_5 and of a seeded 50-modulus sample of H_9,
    whose 2g = 8 zeros take the pairwise branch of column_sums."""
    h9 = random.Random(909).sample(list(enumerate_Hd(F3, 9)), 50)
    return [
        [find_zero_angles(compute_lpolynomial(Character(D))) for D in Ds]
        for Ds in (list(enumerate_Hd(F3, 5)), h9)
    ]


def _scan_blocks(zero_sets, targets):
    out = []
    for start in range(0, len(zero_sets), SCAN_BLOCK):
        out.extend(block_extrema(zero_sets[start : start + SCAN_BLOCK], targets))
    return out


def test_grid_slice_does_not_change_extrema(slice_ensembles, monkeypatch):
    targets = [parse_target(tag) for tag in SCAN_TARGETS]
    for zero_sets in slice_ensembles:
        results = []
        for rows in (1024, 2048, 16384):
            monkeypatch.setattr(bounds, "_GRID_SLICE", rows)
            results.append(_scan_blocks(zero_sets, targets))
        assert results[0] == results[1] == results[2]


def test_block_extrema_match_oracle_with_eight_zeros(slice_ensembles):
    h9 = slice_ensembles[1]
    assert {zeros.count for zeros in h9} == {8}
    targets = [parse_target(tag) for tag in SCAN_TARGETS]
    for zeros, row in zip(h9, _scan_blocks(h9, targets)):
        assert row == [extrema_oracle.empirical_extrema(zeros, target, n) for target, n in targets]


def test_single_target_extrema_match_oracle(ensembles):
    for zeros in ensembles["h7"][:4]:
        for tag in ("logmod", "s:0", "s:1", "s:2", "s:3"):
            target, n = parse_target(tag)
            assert empirical_extrema(zeros, target, n, 2**12) == (
                extrema_oracle.empirical_extrema(zeros, target, n, 2**12)
            )


def _s0_zero_sets(grid_size):
    """Zero sets for the arc-end S_0 extrema: zeros at 0 and 1/2, zeros on
    grid points and one ulp off them, repeated and near-repeated zeros,
    and conjugate-symmetric random sets, 2g = 6 each."""
    rng = random.Random(grid_size)
    on = [k / grid_size for k in (1, 7, grid_size // 3, grid_size // 2 - 1)]
    sets = [
        (0.0, 0.0, 0.25, 0.5, 0.5, 0.75),
        (0.0, 0.0, 0.0, 0.0, 0.5, 0.5),
        (0.0, 0.5, on[0], on[1], 1.0 - on[1], 1.0 - on[0]),
        (0.0, on[2], on[3], 0.5, 1.0 - on[3], 1.0 - on[2]),
        (np.nextafter(on[1], 1.0), np.nextafter(on[1], 0.0), on[1], 0.5, 0.5, 0.9),
        (0.1, 0.1, np.nextafter(0.1, 1.0), 0.9, 0.9, np.nextafter(0.9, 0.0)),
        (1.0 - 2.0**-52, 2.0**-52, 0.5, 0.5, 0.5, 0.5),
    ]
    for _ in range(40):
        half = sorted(rng.uniform(0.0, 0.5) for _ in range(3))
        sets.append(tuple(sorted(half + [1.0 - t for t in half])))
    return [ZeroAngles(tuple(sorted(map(float, z))), 0.0) for z in sets]


@pytest.mark.parametrize("grid_size", [2**10, 3000, 2**14])
def test_s0_arc_end_extrema_match_full_grid(grid_size):
    # S_0 evaluated only at the arc ends, ascending, then the jump limits:
    # the same values and arguments as the full grid, one set at a time and
    # as one block with the other targets
    zero_sets = _s0_zero_sets(grid_size)
    want = [extrema_oracle.empirical_extrema(zeros, "s", 0, grid_size) for zeros in zero_sets]
    assert [block_extrema([z], [("s", 0)], grid_size)[0][0] for z in zero_sets] == want
    both = block_extrema(zero_sets, [("s", 1), ("s", 0)], grid_size)
    assert [row[1] for row in both] == want
    # no zeros: S_0 vanishes everywhere and the first grid point is both extrema
    empty = ZeroAngles((), 0.0)
    assert block_extrema([empty], [("s", 0)], grid_size)[0][0] == (
        extrema_oracle.empirical_extrema(empty, "s", 0, grid_size)
    )


@pytest.fixture(scope="module")
def cell_ensembles():
    """Zero sets of all of F_3 H_5, seeded samples of H_7, of H_9 (2g = 8
    zeros) and of F_5 H_5."""
    picks = {
        "h5": list(enumerate_Hd(F3, 5)),
        "h7": random.Random(77).sample(list(enumerate_Hd(F3, 7)), 48),
        "h9": random.Random(99).sample(list(enumerate_Hd(F3, 9)), 24),
        "f5h5": random.Random(5).sample(list(enumerate_Hd(FieldSpec(5), 5)), 48),
    }
    return {
        name: [find_zero_angles(compute_lpolynomial(Character(D))) for D in Ds]
        for name, Ds in picks.items()
    }


@pytest.mark.parametrize("grid_size", [2**10, 3000, 2**14])
def test_cell_bounds_hold_on_the_full_grid(cell_ensembles, grid_size):
    # every grid value between two coarse points is at most its cell's
    # bound, for every target and side, with log|L| sharpened in every cell
    # (floor -inf) and in none (floor +inf); a short last cell wraps to 0
    grid = np.arange(grid_size) / float(grid_size)
    cells = -(-grid_size // bounds._COARSE)
    sides = [(None, 1), (1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1)]
    for zero_sets in cell_ensembles.values():
        for start in range(0, len(zero_sets), SCAN_BLOCK):
            theta = np.array([zeros.theta for zeros in zero_sets[start : start + SCAN_BLOCK]])
            for n, sign in sides:
                full = sign * np.array([bounds._full_grid(row, n, grid) for row in theta])
                inner = np.full((len(theta), cells * bounds._COARSE), -np.inf)
                inner[:, :grid_size] = full
                inner = inner.reshape(len(theta), cells, bounds._COARSE)[:, :, 1:].max(axis=2)
                for floor in (-np.inf, np.inf):
                    bound = bounds._cell_bounds(full[:, :: bounds._COARSE], theta, n, sign, grid_size, floor)
                    assert (inner <= bound).all(), (n, sign, floor, float((inner - bound).max()))


def _greedy(vals, order):
    """The picks of _top_cells when np.argsort would give this order."""
    picked = []
    for idx in order:
        if all(abs(int(idx) - p) >= 4 for p in picked):
            picked.append(int(idx))
        if len(picked) == bounds._CELLS:
            break
    return tuple(sorted(picked))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pick_sets_contain_every_tie_order(data):
    # values with planted ties: mirror pairs i <-> size - i, equal
    # neighbours up to 3 apart, and a rival for the 8th pick's value; every
    # order of the equal values, np.argsort's included, picks one of the sets
    size = data.draw(st.integers(64, 160), label="size")
    top = data.draw(st.sampled_from([30, 10**6]), label="value range")
    vals = np.array(data.draw(st.lists(st.integers(0, top), min_size=size, max_size=size)), dtype=float)
    for i in data.draw(st.lists(st.integers(1, size - 1), max_size=16), label="mirrors"):
        vals[size - i] = vals[i]
    for i, gap in data.draw(st.lists(st.tuples(st.integers(0, size - 4), st.integers(1, 3)), max_size=8)):
        vals[i + gap] = vals[i]
    stable = _greedy(vals, np.lexsort((np.arange(size), -vals)))
    rivals = [i for i in range(size) if all(abs(i - p) >= 4 for p in stable)]
    if rivals:
        eighth = min(stable, key=lambda p: vals[p])
        vals[data.draw(st.sampled_from(rivals), label="rival")] = vals[eighth]
    order = np.lexsort((np.arange(size), -vals))
    sets = bounds._pick_sets(order.tolist(), vals[order].tolist())
    assume(sets is not None)
    assert bounds._top_cells(vals).size == bounds._CELLS
    assert tuple(sorted(bounds._top_cells(vals).tolist())) in sets
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="orders"))
    for _ in range(24):
        assert _greedy(vals, np.lexsort((rng.permutation(size), -vals))) in sets


def _slow_moduli(zero_sets, grid_size=DEFAULT_GRID):
    """The indices of the zero sets with a (target, side) on the slow path
    of the pruned grid, evaluated in scan blocks."""
    grid = np.arange(grid_size) / float(grid_size)
    slow = set()
    for start in range(0, len(zero_sets), SCAN_BLOCK):
        _, triples = bounds._grid_extrema(zero_sets[start : start + SCAN_BLOCK], [None, 1, 2], grid)
        slow.update(start + b for b, _, _ in triples)
    return slow


def test_most_moduli_take_the_fast_path():
    # 28 of these 400 moduli (7%) take the full grid for a (target, side);
    # a regression that sent every triple there would keep every float and
    # only lose the speed
    Ds = random.Random(400).sample(list(enumerate_Hd(F3, 7)), 400)
    zero_sets = [find_zero_angles(compute_lpolynomial(Character(D))) for D in Ds]
    assert len(_slow_moduli(zero_sets)) <= 40


@pytest.mark.parametrize("text", ["x^7+x+1", "x^7+x^5+2x^4+x+2", "x^7+x^5+x^4+x+1"])
def test_slow_path_moduli_match_oracle(text):
    # moduli whose S_1 minimum, log|L| maximum and S_1 maximum depend on the
    # tie order of np.argsort: they go to the full grid, alone and in a block
    zeros = find_zero_angles(compute_lpolynomial(Character(parse_poly(text, F3))))
    assert _slow_moduli([zeros]) == {0}
    targets = [parse_target(tag) for tag in SCAN_TARGETS]
    want = [extrema_oracle.empirical_extrema(zeros, target, n) for target, n in targets]
    assert block_extrema([zeros], targets)[0] == want
    others = [find_zero_angles(compute_lpolynomial(Character(D))) for D in list(enumerate_Hd(F3, 7))[:15]]
    assert block_extrema(others + [zeros], targets)[-1] == want


def test_block_extrema_validation(ensembles):
    h5, h7 = ensembles["h5"][0], ensembles["h7"][0]
    assert block_extrema([], [("logmod", None)], 2**10) == []
    with pytest.raises(ValueError):
        block_extrema([h5, h7], [("logmod", None)], 2**10)
    with pytest.raises(ValueError):
        block_extrema([h5], [("s", None)], 2**10)
    with pytest.raises(ValueError):
        block_extrema([h5], [("t", 1)], 2**10)


# --- ensemble scan --------------------------------------------------------------


def test_sample_moduli_all_and_random():
    cfg = ScanConfig(q=3, d=5, sample="all")
    assert len(sample_moduli(cfg)) == 3**5 - 3**4
    cfg = ScanConfig(q=3, d=5, sample="random:25", seed=3)
    picked = sample_moduli(cfg)
    assert len(picked) == 25
    assert len({str(D) for D in picked}) == 25
    again = sample_moduli(ScanConfig(q=3, d=5, sample="random:25", seed=3))
    assert [str(a) for a in picked] == [str(b) for b in again]


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(q=4, d=5)
    with pytest.raises(ValueError):
        ScanConfig(q=3, d=6)
    with pytest.raises(ValueError):
        ScanConfig(q=3, d=5, targets=("t:1",))
    with pytest.raises(ValueError):
        ScanConfig(q=3, d=5, mode="sharp")
    with pytest.raises(ValueError):
        ScanConfig(q=3, d=5, sample="random:-3")
    for policy in ("bogus", "fixed:x", "fixed:-1"):
        with pytest.raises(ValueError):
            ScanConfig(q=3, d=11, policy=policy)


def test_scan_rows_and_soundness():
    cfg = ScanConfig(q=3, d=5, sample="random:12", seed=11, grid_size=2**10)
    res = ensemble_scan(cfg)
    assert not res.violations
    assert len(res.rows) == 12 * len(cfg.targets)
    for row in res.rows:
        assert row["empirical_max"] <= row["rigorous_bound"] + 1e-9
        assert row["ratio"] == pytest.approx(
            row["empirical_max"] / envelope(3, 5, row["target"], row["n"], "upper")
        )
    for tag, agg in res.aggregates.items():
        assert agg["count"] == 12
        assert sum(agg["histogram"]["counts"]) == 12


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("mode", ["weil", "exact"])
def test_block_scan_matches_per_modulus_scan(mode, threads):
    config = ScanConfig(q=3, d=5, sample="random:6", seed=5, mode=mode, threads=threads)
    result = ensemble_scan(config)
    rows, violations = extrema_oracle.scan(sample_moduli(config), config)
    assert result.rows == rows
    assert result.violations == violations


def test_chunks_are_unions_of_whole_blocks():
    for count in range(0, 120):
        for workers in range(1, 5):
            spans = _chunk_spans(count, workers)
            assert [a for a, _ in spans] + [count] == [0] + [b for _, b in spans]
            assert len(spans) <= (workers * 4 if workers > 1 else 1)
            assert all(a % SCAN_BLOCK == 0 for a, _ in spans)
            assert all((b - a) % SCAN_BLOCK == 0 for a, b in spans[:-1])
    assert _chunk_spans(10, 2) == [(0, 10)]
    assert _chunk_spans(40, 2) == [(0, 16), (16, 32), (32, 40)]


@pytest.mark.parametrize("mode", ["weil", "exact"])
def test_scan_rows_identical_at_one_two_three_workers(mode):
    # 40 moduli: two full blocks and a partial one, dealt out whole
    results = [
        ensemble_scan(ScanConfig(q=3, d=5, sample="random:40", seed=17, mode=mode, threads=t))
        for t in (1, 2, 3)
    ]
    csvs = {rows_to_csv(r.rows, 5) for r in results}
    assert len(csvs) == 1
    rows, violations = extrema_oracle.scan(sample_moduli(results[0].config), results[0].config)
    assert results[0].rows == rows
    assert all(r.violations == violations for r in results)


def test_scan_workers_construct_nothing(monkeypatch):
    # the bound layer is built once, before the pool forks: a degree that no
    # stored construction covers is solved in the scanning process only,
    # and the workers inherit it with the interval checks' sawtooth pair
    scanner = os.getpid()
    solve = onesided.solve_inequality_lp

    def scanner_only(*args):
        if os.getpid() != scanner:
            raise AssertionError("a scan worker solved an LP")
        return solve(*args)

    monkeypatch.setattr(onesided, "solve_inequality_lp", scanner_only)
    monkeypatch.setattr(onesided, "_CACHE", {})
    config = ScanConfig(q=3, d=5, sample="random:40", seed=17, policy="fixed:11", threads=2)
    assert len(_chunk_spans(40, 2)) > 1
    result = ensemble_scan(config)
    assert {row["N_used"] for row in result.rows} == {11}
    assert len(result.rows) == 40 * len(SCAN_TARGETS) and not result.violations


# the chunks _failing_chunk ran in this process: a forked worker appends to
# its own copy of the list
_CHUNKS_RUN_HERE = []


def _failing_chunk(encodings, config, layer):
    _CHUNKS_RUN_HERE.append(len(encodings))
    raise ValueError("a scan worker failed")


def test_worker_failure_propagates_without_a_rerun(monkeypatch):
    # a worker's exception reaches the caller once: the scanning process
    # does not scan the moduli again itself
    monkeypatch.setattr(bounds, "_scan_chunk", _failing_chunk)
    _CHUNKS_RUN_HERE.clear()
    assert len(_chunk_spans(40, 2)) > 1
    with pytest.raises(ValueError, match="a scan worker failed"):
        ensemble_scan(ScanConfig(q=3, d=5, sample="random:40", seed=17, threads=2))
    assert _CHUNKS_RUN_HERE == []


def test_scan_constructs_only_the_layer_keys(monkeypatch):
    # the formula picks one degree per order (N = 2 for every order at q = 5,
    # d = 5) and the scan certifies those constructions, no others
    assert {degree_choice(5, 5, n) for n in (0, 1, 2)} == {2}
    monkeypatch.setattr(onesided, "_CACHE", {})
    ensemble_scan(ScanConfig(q=5, d=5, sample="random:3", seed=1, policy="formula"))
    want = {("log2sin", "majorant", 2, 120)}
    want |= {(f"bernoulli:{m}", side, 2, 120) for m in (1, 2, 3) for side in ("majorant", "minorant")}
    assert set(onesided._CACHE) == want

    monkeypatch.setattr(onesided, "_CACHE", {})
    ensemble_scan(ScanConfig(q=3, d=5, targets=("s:1",), sample="random:3", policy="fixed:3"))
    assert set(onesided._CACHE) == {("bernoulli:2", side, 3, 160) for side in ("majorant", "minorant")}


def test_scan_deterministic_across_runs_and_threads():
    cfg1 = ScanConfig(q=3, d=5, sample="random:10", seed=5, grid_size=2**10, threads=1)
    cfg2 = ScanConfig(q=3, d=5, sample="random:10", seed=5, grid_size=2**10, threads=4)
    r1 = ensemble_scan(cfg1)
    r2 = ensemble_scan(cfg2)
    assert r1.rows == r2.rows
    assert r1.aggregates == r2.aggregates
