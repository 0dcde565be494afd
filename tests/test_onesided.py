import math
import random

import numpy as np
import pytest
from certify_oracle import certify as scalar_certify

from hyperell import bounds, onesided
from hyperell.bernoulli import bernoulli_extrema
from hyperell.bounds import ScanConfig, _bound_layer, ensemble_scan
from hyperell.errors import CertificationError
from hyperell.onesided import (
    LOG_SINE_FLOOR,
    OneSidedResult,
    TrigPoly,
    construct_one_sided,
    interval_polys,
    oracle_mean,
    target_spec,
    verify_coefficient_bounds,
)

ALL_N = (4, 8, 16)
TARGETS = ("log2sin", "bernoulli:1", "bernoulli:2", "bernoulli:3", "bernoulli:4")
SIDES = ("majorant", "minorant")


def dense_check_grid():
    base = np.arange(20000) / 20000.0
    clusters = np.concatenate([2.0 ** -np.arange(1, 45), 1.0 - 2.0 ** -np.arange(1, 45)])
    return np.unique(np.concatenate([base, clusters]))


# --- TrigPoly ----------------------------------------------------------------


def test_trigpoly_eval_and_fourier_roundtrip():
    poly = TrigPoly((0.5, 0.25, -0.125), (0.75, 0.0625))
    thetas = np.linspace(0, 1, 97)
    direct = sum(
        (poly.fourier(k) * np.exp(2j * math.pi * k * thetas) for k in range(-2, 3)),
        np.zeros_like(thetas, dtype=complex),
    )
    assert np.allclose(direct.imag, 0.0, atol=1e-12)
    assert np.allclose(direct.real, poly(thetas), atol=1e-12)


def test_trigpoly_serialization():
    poly = TrigPoly((1.0, 2.0), (3.0,))
    d = poly.to_json_dict()
    assert d == {"N": 1, "cos": [1.0, 2.0], "sin": [3.0]}


# --- batched certification against the scalar oracle --------------------------


@pytest.mark.parametrize("even", [True, False])
def test_poly_rows_match_scalar_evaluation(even):
    # one polynomial per point, each of the same degree, as the lanes of
    # the certification's polish evaluate them
    rng = np.random.default_rng(808)
    for N in range(41):
        xs = np.concatenate([rng.random(29), [0.0, 0.5, 1.0 - 2.0**-46]])
        polys = [
            TrigPoly(
                tuple(float(v) for v in rng.standard_normal(N + 1)),
                (0.0,) * N if even else tuple(float(v) for v in rng.standard_normal(N)),
            )
            for _ in xs
        ]
        a0 = np.array([p.cos[0] for p in polys])
        coeffs = np.array([[p.cos[1:], p.sin] for p in polys]).reshape(len(xs), 2, N)
        rows = onesided._poly_rows(a0, coeffs, xs)
        assert list(rows) == [p(float(x)) for p, x in zip(polys, xs)]


def certify_each(items):
    return [scalar_certify(*item) for item in items]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("side", SIDES)
def test_certify_matches_scalar_oracle(target, side):
    spec = target_spec(target)
    sgn = 1 if side == "majorant" else -1
    items = []
    for N in range(5):
        poly = construct_one_sided(target, side, N).poly
        grid = 40 * (N + 1)
        # the certified polynomial, and one pushed across its target
        for p in (poly, poly.shifted(-sgn * 1e-3)):
            items.append((p, spec, sgn, grid))
            assert onesided._certify_block([items[-1]]) == certify_each([items[-1]])
    assert onesided._certify_block(items) == certify_each(items)


def stored_items():
    specs = {}
    return [
        (
            TrigPoly(tuple(entry["cos"]), tuple(entry["sin"])),
            specs.setdefault(target, target_spec(target)),
            1 if side == "majorant" else -1,
            grid,
        )
        for (target, side, N, grid), entry in sorted(onesided._read_store().items())
    ]


def test_certify_block_matches_oracle_on_stored_entries():
    items = stored_items()
    assert len(items) == 63
    assert onesided._certify_block(items) == certify_each(items)


def test_certify_block_matches_oracle_on_mixed_blocks():
    items = []
    for target, side, N, grid in (
        ("log2sin", "minorant", 4, None),  # the LOG_SINE_FLOOR branch
        ("bernoulli:4", "majorant", 4, None),
        ("bernoulli:4", "minorant", 2, 440),  # certified on the grid of degree 10
        ("log2sin", "majorant", 10, None),
        ("bernoulli:2", "minorant", 10, None),
        ("bernoulli:1", "majorant", 0, None),
    ):
        r = construct_one_sided(target, side, N)
        spec, sgn = target_spec(target), r.sign
        grid = grid or 40 * (N + 1)
        # certified, and shifted across the target (negative margins)
        items.append((r.poly, spec, sgn, grid))
        items.append((r.poly.shifted(-sgn * 1e-6), spec, sgn, grid))
    # a degree-16 lane: padding the others to its degree would send their
    # dot products down ddot's blocked path, which rounds otherwise
    rng = np.random.default_rng(16)
    wide = TrigPoly(tuple(rng.uniform(-0.1, 0.1, 17)), tuple(rng.uniform(-0.1, 0.1, 16)))
    items.append((wide, target_spec("bernoulli:2"), 1, 40 * 17))
    items = stored_items()[::9] + items
    items.append(items[3])  # a duplicate
    expected = certify_each(items)
    assert any(margin < 0 for margin, _, _ in expected)
    assert onesided._certify_block(items) == expected
    assert onesided._certify_block(items[::-1]) == expected[::-1]


@pytest.fixture
def solver_only(monkeypatch):
    """Hide the stored constructions (and start from an empty cache), so
    every key runs the cutting-plane loop."""
    monkeypatch.setattr(onesided, "_STORE", {})
    monkeypatch.setattr(onesided, "_CACHE", {})


def test_constructions_match_scalar_certification(monkeypatch, solver_only):
    def build_all():
        monkeypatch.setattr(onesided, "_CACHE", {})
        return [
            construct_one_sided(target, side, N)
            for target in TARGETS
            for side in SIDES
            for N in range(4)
        ]

    batched = build_all()
    monkeypatch.setattr(onesided, "_certify_block", certify_each)
    assert build_all() == batched


def test_sorted_unique_matches_numpy(monkeypatch, solver_only):
    # the certification grids and the cutting-plane grids of cold
    # constructions deduplicate as np.unique does, bit for bit
    original = onesided._sorted_unique
    sizes = []

    def checked(a):
        got = original(a)
        assert got.tobytes() == np.unique(a).tobytes()
        sizes.append(len(a))
        return got

    monkeypatch.setattr(onesided, "_sorted_unique", checked)
    for target, side, N in (("log2sin", "majorant", 4), ("bernoulli:1", "majorant", 3)):
        construct_one_sided(target, side, N)
    assert len(sizes) >= 6
    rng = np.random.default_rng(5)
    for a in (np.array([]), np.array([0.5]), np.full(7, 0.25), rng.integers(0, 9, 50) / 8.0):
        assert checked(a).tobytes() == np.unique(a).tobytes()


# --- stored constructions -------------------------------------------------------


def test_stored_constructions_match_solver(monkeypatch, solver_only):
    _bound_layer(ScanConfig(q=3, d=7))
    solved = dict(onesided._CACHE)
    store = onesided._read_store()
    assert len(solved) == 63
    assert set(store) == set(solved)

    monkeypatch.setattr(onesided, "_STORE", store)
    for key, fresh in solved.items():
        monkeypatch.setattr(onesided, "_CACHE", {})
        assert construct_one_sided(*key[:3]) == fresh

    # an entry pushed across its target is repaired or refused, never served
    for key, entry in store.items():
        sgn = 1 if key[1] == "majorant" else -1
        pushed = dict(entry, cos=[entry["cos"][0] - sgn * 1e-6] + entry["cos"][1:])
        monkeypatch.setattr(onesided, "_STORE", {key: pushed})
        monkeypatch.setattr(onesided, "_CACHE", {})
        try:
            r = construct_one_sided(*key[:3])
        except CertificationError:
            continue
        assert r.certified_margin >= 0.0
        assert r.repair_epsilon > entry["repair_epsilon"]
        assert r.achieved_mean != pushed["cos"][0]


def test_block_matches_one_at_a_time(monkeypatch):
    stored = [key[:3] for key in sorted(onesided._read_store())]
    keys = stored + [
        ("sawtooth", "majorant", 3),  # bernoulli:1 under its other name
        ("log2sin", "minorant", 3),  # not stored: solved
        ("bernoulli:5", "minorant", 2),  # not stored: the reflected majorant
        stored[5],  # a duplicate
    ]
    monkeypatch.setattr(onesided, "_CACHE", {})
    block = onesided.block_one_sided(keys[::-1])[::-1]
    for key, got in zip(keys, block):
        monkeypatch.setattr(onesided, "_CACHE", {})
        assert construct_one_sided(*key) == got
    assert block[-1] is block[5]


def test_default_scan_warm_up_solves_no_lp(monkeypatch):
    # every key a default scan asks for is in the stored file; a key that
    # missed it would bring back the LP warm-up of several seconds
    def no_lp(*args):
        raise AssertionError("a default scan solved an LP")

    monkeypatch.setattr(onesided, "solve_inequality_lp", no_lp)
    for q, d in ((3, 5), (3, 7), (3, 9), (5, 5)):
        monkeypatch.setattr(onesided, "_CACHE", {})
        _bound_layer(ScanConfig(q=q, d=d))
        assert set(onesided._CACHE) == set(onesided._read_store())
    monkeypatch.setattr(onesided, "_CACHE", {})
    bounds._shared_layer.cache_clear()  # the layer of (3, 7) was built above
    result = ensemble_scan(ScanConfig(q=3, d=7, sample="random:3", seed=1))
    assert len({row["D"] for row in result.rows}) == 3 and not result.violations


# --- degree-zero closed forms --------------------------------------------------


def test_log2sin_majorant_degree_zero_is_log2():
    r = construct_one_sided("log2sin", "majorant", 0)
    assert r.achieved_mean == pytest.approx(math.log(2.0), abs=1e-9)
    assert all(abs(c) < 1e-12 for c in r.poly.cos[1:])


def test_sawtooth_majorant_degree_zero_is_half():
    r = construct_one_sided("sawtooth", "majorant", 0)
    assert r.achieved_mean == pytest.approx(0.5, abs=1e-9)


# --- certified one-sidedness and extremal means -------------------------------


@pytest.mark.parametrize("N", ALL_N)
def test_log2sin_majorant_means(N):
    r = construct_one_sided("log2sin", "majorant", N)
    oracle = math.log(2.0) / (N + 1)
    assert abs(r.achieved_mean - oracle) / oracle <= 0.005
    assert r.repair_epsilon <= 1e-4 * oracle
    assert r.certified_margin >= -1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("N", ALL_N)
@pytest.mark.parametrize("side", ["majorant", "minorant"])
def test_bernoulli_one_sided_means(n, N, side):
    m = n + 1
    r = construct_one_sided(f"bernoulli:{m}", side, N)
    hi, lo = bernoulli_extrema(m)
    oracle = (hi if side == "majorant" else lo) / float(N + 1) ** m
    assert r.oracle_mean == pytest.approx(oracle, rel=1e-12)
    assert abs(r.achieved_mean - oracle) / abs(oracle) <= 0.005
    assert r.repair_epsilon <= 1e-4 * abs(oracle)
    assert r.certified_margin >= -1e-12


@pytest.mark.parametrize(
    "target,side", [("log2sin", "majorant"), ("bernoulli:2", "majorant"), ("bernoulli:1", "minorant")]
)
def test_one_sidedness_on_dense_grid(target, side):
    r = construct_one_sided(target, side, 8)
    spec = target_spec(target)
    pts = dense_check_grid()
    tvals = spec.value(pts)
    keep = np.isfinite(tvals)
    gap = (r.poly(pts[keep]) - tvals[keep]) * r.sign
    assert gap.min() >= -1e-11


def test_lp_relaxation_sandwich():
    # the grid LP is a relaxation: its optimum brackets the oracle from
    # below for majorants and above for minorants; repair restores the side
    for target, side in [
        ("log2sin", "majorant"),
        ("bernoulli:1", "majorant"),
        ("bernoulli:2", "majorant"),
        ("bernoulli:2", "minorant"),
        ("bernoulli:4", "majorant"),
    ]:
        for N in (4, 8):
            r = construct_one_sided(target, side, N)
            oracle = r.oracle_mean
            if side == "majorant":
                assert r.lp_mean <= oracle * (1 + 1e-9) + 1e-12
                assert r.achieved_mean >= oracle - 1e-9 * abs(oracle) - 1e-12
            else:
                assert r.lp_mean >= oracle * (1 + 1e-9) - 1e-12
                assert r.achieved_mean <= oracle + 1e-9 * abs(oracle) + 1e-12


def test_even_targets_are_pure_cosine():
    for target in ("log2sin", "bernoulli:2", "bernoulli:4"):
        r = construct_one_sided(target, "majorant", 8)
        assert all(abs(b) <= 1e-9 for b in r.poly.sin)


def test_odd_minorant_is_reflected_majorant():
    maj = construct_one_sided("bernoulli:3", "majorant", 8)
    mino = construct_one_sided("bernoulli:3", "minorant", 8)
    thetas = np.linspace(0, 1, 211)
    assert np.allclose(mino.poly(thetas), -maj.poly(-thetas), atol=1e-11)


def test_log2sin_minorant_truncated_domain():
    # the log-sine function is unbounded below: no global minorant exists,
    # so the minorant is certified only where the target exceeds the floor
    r = construct_one_sided("log2sin", "minorant", 8)
    assert r.oracle_mean is None
    spec = target_spec("log2sin")
    pts = dense_check_grid()
    tvals = spec.value(pts)
    keep = np.isfinite(tvals) & (tvals > LOG_SINE_FLOOR)
    assert ((tvals[keep] - r.poly(pts[keep]))).min() >= -1e-11


def test_grid_validation():
    with pytest.raises(ValueError):
        construct_one_sided("log2sin", "sideways", 4)
    with pytest.raises(ValueError):
        construct_one_sided("chirp", "majorant", 4)


# --- interval indicators -------------------------------------------------------


def test_interval_degree_zero():
    minor, major = interval_polys(0.3, 0.55, 0)
    assert major.mean == pytest.approx(0.25 + 1.0, abs=1e-9)
    assert minor.mean == pytest.approx(0.25 - 1.0, abs=1e-9)


@pytest.mark.parametrize("N", ALL_N)
def test_interval_gap_independent_of_length(N):
    for alpha, beta in [(0.2, 0.7), (0.05, 0.1), (0.4, 1.3)]:
        length = beta - alpha
        if length > 1.0:
            continue
        minor, major = interval_polys(alpha, beta, N)
        gap_plus = major.mean - length
        gap_minus = length - minor.mean
        assert gap_plus == pytest.approx(1.0 / (N + 1), rel=0.005)
        assert gap_minus == pytest.approx(1.0 / (N + 1), rel=0.005)


def test_interval_one_sidedness_certified():
    rng = random.Random(404)
    for _ in range(5):
        alpha = rng.random()
        beta = alpha + rng.random()
        minor, major = interval_polys(alpha, beta % (alpha + 1.0), 8)  # raises on failure


def test_interval_coefficients_uniformly_bounded():
    rng = random.Random(77)
    worst = 0.0
    for _ in range(20):
        alpha = rng.random()
        length = rng.random()
        minor, major = interval_polys(alpha, alpha + length, 16)
        worst = max(worst, major.abs_fourier().max(), minor.abs_fourier().max())
    assert worst <= 1.0  # uniform in the interval, comfortably O(1)


def test_interval_validation():
    with pytest.raises(ValueError):
        interval_polys(0.3, 1.5, 4)


# --- coefficient diagnostics ----------------------------------------------------


@pytest.mark.parametrize("N", ALL_N)
def test_classical_coefficient_bounds_log2sin(N):
    r = construct_one_sided("log2sin", "majorant", N)
    report = verify_coefficient_bounds(r)
    assert report.classical_bounds_ok
    assert report.worst_excess <= 1e-6
    for k in range(1, N + 1):
        uk = r.poly.fourier(k)
        assert -1.0 / (2 * k) - 1e-6 <= uk.real <= 1e-6
        assert abs(uk.imag) <= 1e-9


def test_bernoulli_fitted_constants_stable_in_N():
    fits = []
    for N in ALL_N:
        r = construct_one_sided("bernoulli:2", "majorant", N)
        fits.append(verify_coefficient_bounds(r).fitted_constant)
    assert max(fits) <= 2.0 * min(fits)  # no blow-up across degrees


def test_result_serialization_roundtrip():
    r = construct_one_sided("bernoulli:1", "majorant", 4)
    d = r.to_json_dict()
    assert d["N"] == 4
    assert d["relative_gap"] <= 0.005
    assert d["poly"]["cos"][0] == r.achieved_mean
