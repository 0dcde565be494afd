"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy shared pipeline (all of H_5 and H_7 over F_3 plus 100 random
degree-5 moduli over F_5) is built once in module fixtures with per-stage
timings, so the per-criterion wall-clock assertions charge each stage to
the criterion that mandates it.  Run with -s to watch the lines live.
"""

import math
import random
import time

import numpy as np
import pytest
from charsum_oracle import build_prime_table, direct_coefficients, lambda_sum, twisted_lambda_sum

from hyperell.argfunc import argument_sum, count_zeros, log_modulus, mean_value
from hyperell.bernoulli import (
    bernoulli_envelope_constants,
    bernoulli_extrema,
    zeta_envelope_constants,
)
from hyperell.bounds import (
    ScanConfig,
    block_extrema,
    choose_degree,
    degree_choice,
    envelope,
    parse_target,
    rigorous_bound,
    s0_bound_interval_method,
    sample_moduli,
)
from hyperell.charsum import Character
from hyperell.fqpoly import FieldSpec, Poly, enumerate_Hd
from hyperell.lfunc import (
    compute_lpolynomial,
    find_zero_angles,
    power_sum,
    rh_radius_error,
)
from hyperell.onesided import (
    construct_one_sided,
    interval_polys,
    verify_coefficient_bounds,
)

F3, F5, F7 = FieldSpec(3), FieldSpec(5), FieldSpec(7)
SCAN_TARGETS = ("logmod", "s:0", "s:1", "s:2")


def report(number, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {name}: {status}{suffix}")
    assert not failures, f"criterion {number} {name}: " + "; ".join(failures[:10])


@pytest.fixture(scope="module")
def pipeline():
    """Characters, L-polynomials and zero angles for the acceptance set."""
    data = {"sets": {}, "timings": {}}
    t0 = time.perf_counter()
    moduli = {
        (3, 5): list(enumerate_Hd(F3, 5)),
        (3, 7): list(enumerate_Hd(F3, 7)),
        (5, 5): sample_moduli(ScanConfig(q=5, d=5, sample="random:100", seed=1859)),
    }
    data["timings"]["enumerate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for key, Ds in moduli.items():
        entries = []
        for D in Ds:
            char = Character(D)
            entries.append({"char": char, "L": compute_lpolynomial(char)})
        data["sets"][key] = entries
    data["timings"]["lpoly"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for entries in data["sets"].values():
        for entry in entries:
            entry["zeros"] = find_zero_angles(entry["L"])
    data["timings"]["zeros"] = time.perf_counter() - t0
    return data


def test_c01_ensemble_cardinality():
    failures = []
    t0 = time.perf_counter()
    pairs = [(q, d) for q in (3, 5, 7) for d in (3, 5, 7) if not (q == 7 and d == 7)]
    for q, d in pairs:
        count = sum(1 for _ in enumerate_Hd(FieldSpec(q), d))
        if count != q**d - q ** (d - 1):
            failures.append(f"|H_{d}| over F_{q} was {count}")
    # independent oracle on the small pairs: no prime square divides
    for q, d in [(3, 3), (5, 3), (7, 3), (3, 5)]:
        field = FieldSpec(q)
        table = build_prime_table(field, d // 2)
        squares = [p * p for m in range(1, d // 2 + 1) for p in table.primes(m)]
        oracle = set()
        for idx in range(q**d):
            f = Poly.decode_monic(field, d, idx)
            if not any((f % s).is_zero for s in squares):
                oracle.add(idx)
        ours = {f.monic_index() for f in enumerate_Hd(field, d)}
        if ours != oracle:
            failures.append(f"squarefree filter disagrees with the P^2 oracle at q={q} d={d}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s (cap 10s)")
    report(1, "ensemble cardinality", failures, f"{elapsed:.1f}s")


def test_c02_prime_polynomial_theorem():
    failures = []
    t0 = time.perf_counter()
    for q in (3, 5, 7):
        field = FieldSpec(q)
        table = build_prime_table(field, 8)
        for k in range(1, 9):
            value = lambda_sum(field, k, table)
            if value != q**k:
                failures.append(f"lambda sum at q={q} k={k} was {value}, want {q**k}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.1f}s (cap 5s)")
    report(2, "prime polynomial theorem", failures, f"{elapsed:.1f}s")


def test_c03_functional_equation(pipeline):
    # compute_lpolynomial fills the upper half by the symmetry, so every
    # c_k is compared with a direct sum of chi over the monic polynomials
    # of degree k, which knows nothing of the functional equation
    failures = []
    t0 = time.perf_counter()
    counts = {key: len(entries) for key, entries in pipeline["sets"].items()}
    if counts[(3, 5)] != 162:
        failures.append(f"H_5 over F_3 has {counts[(3, 5)]} entries, want 162")
    if counts[(3, 7)] != 1458:
        failures.append(f"H_7 over F_3 has {counts[(3, 7)]} entries, want 1458")
    if counts[(5, 5)] != 100:
        failures.append(f"F_5 sample has {counts[(5, 5)]} entries, want 100")
    for entries in pipeline["sets"].values():
        for entry in entries:
            L = entry["L"]
            g, q = L.g, L.q
            for k in range(g + 1):
                if L.c[2 * g - k] != q ** (g - k) * L.c[k]:
                    failures.append(f"symmetry broken for {L.D}")
            if L.c != direct_coefficients(entry["char"]):
                failures.append(f"c differs from the direct sums for {L.D}")
    oracle = time.perf_counter() - t0
    elapsed = pipeline["timings"]["lpoly"]
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s (cap 60s)")
    report(
        3, "functional equation", failures,
        f"{elapsed:.1f}s for 1720 moduli, direct-sum oracle {oracle:.1f}s",
    )


def test_c04_rh_and_explicit_formula(pipeline):
    failures = []
    t0 = time.perf_counter()
    worst_radius = 0.0
    worst_formula = 0.0
    for entries in pipeline["sets"].values():
        for entry in entries:
            L, zeros, char = entry["L"], entry["zeros"], entry["char"]
            if zeros.count != 2 * L.g:
                failures.append(f"{L.D}: found {zeros.count} zeros, want {2 * L.g}")
                continue
            radius_err = rh_radius_error(L)
            worst_radius = max(worst_radius, radius_err)
            if radius_err > 1e-9:
                failures.append(f"{L.D}: unit-circle deviation {radius_err:.2e}")
            for k in range(1, 7):
                lhs = L.q ** (k / 2.0) * (-power_sum(zeros, -k))
                err = abs(lhs - twisted_lambda_sum(char, k))
                worst_formula = max(worst_formula, err)
                if err > 1e-6:
                    failures.append(f"{L.D}: explicit formula off by {err:.2e} at k={k}")
    elapsed = pipeline["timings"]["lpoly"] + pipeline["timings"]["zeros"] + (
        time.perf_counter() - t0
    )
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s (cap 120s)")
    report(
        4,
        "RH and explicit formula",
        failures,
        f"{elapsed:.1f}s, worst radius {worst_radius:.1e}, worst formula {worst_formula:.1e}",
    )


def test_c05_weil_power_sum_bound(pipeline):
    failures = []
    worst = 0.0
    for entries in pipeline["sets"].values():
        for entry in entries:
            zeros, q = entry["zeros"], entry["L"].q
            for k in range(1, 9):
                excess = abs(power_sum(zeros, k)) - q ** (k / 2.0)
                worst = max(worst, excess)
                if excess > 1e-9:
                    failures.append(f"{entry['L'].D}: power sum k={k} exceeds by {excess:.2e}")
    report(5, "power-sum bound", failures, f"worst excess {worst:.1e}")


def test_c06_representation_formulas(pipeline):
    failures = []
    rng = random.Random(20260808)
    sample = rng.sample(pipeline["sets"][(3, 5)], 12) + rng.sample(
        pipeline["sets"][(5, 5)], 6
    )
    # log-modulus vs direct evaluation
    for entry in sample:
        L, zeros = entry["L"], entry["zeros"]
        for _ in range(64):
            theta = rng.random()
            direct = abs(L.complex_value(theta))
            if direct < 1e-8:
                continue
            err = abs(log_modulus(zeros, theta) - math.log(direct))
            if err > 1e-8:
                failures.append(f"{L.D}: log-modulus off by {err:.2e} at {theta:.6f}")
    # mean zero and the derivative chain
    h = 1e-6
    for entry in sample[:6]:
        zeros = entry["zeros"]
        for n in range(5):
            mean = mean_value(zeros, n)
            if abs(mean) > 1e-7:
                failures.append(f"{entry['L'].D}: S_{n} mean {mean:.2e}")
        for n in range(1, 5):
            checked = 0
            while checked < 16:
                theta = rng.random()
                if min(abs(theta - t) for t in zeros.theta) < 1e-3:
                    continue
                checked += 1
                fd = (
                    argument_sum(zeros, n, theta + h) - argument_sum(zeros, n, theta - h)
                ) / (2 * h)
                err = abs(fd - argument_sum(zeros, n - 1, theta))
                if err > 1e-6:
                    failures.append(f"{entry['L'].D}: chain S_{n} off by {err:.2e}")
    # counting identity on 100 random intervals
    entry = pipeline["sets"][(3, 5)][17]
    L, zeros = entry["L"], entry["zeros"]
    for _ in range(100):
        alpha = rng.random()
        beta = alpha + rng.random()
        lhs = count_zeros(zeros, alpha, beta)
        rhs = (
            2 * L.g * (beta - alpha)
            + argument_sum(zeros, 0, beta)
            - argument_sum(zeros, 0, alpha)
        )
        if abs(lhs - rhs) > 1e-8:
            failures.append(f"counting identity off by {abs(lhs - rhs):.2e}")
    report(6, "representation formulas", failures)


def test_c07_extremal_means():
    failures = []
    t0 = time.perf_counter()
    for N in (4, 8, 16):
        res = construct_one_sided("log2sin", "majorant", N)
        oracle = math.log(2.0) / (N + 1)
        if abs(res.achieved_mean - oracle) / oracle > 0.005:
            failures.append(f"log2sin majorant N={N} mean {res.achieved_mean!r}")
        check = verify_coefficient_bounds(res)  # raises on a hard violation
        if check.worst_excess > 1e-6:
            failures.append(f"log2sin coefficients N={N} excess {check.worst_excess:.2e}")
        for n in range(4):
            m = n + 1
            hi, lo = bernoulli_extrema(m)
            for side, target_mean in (("majorant", hi), ("minorant", lo)):
                res = construct_one_sided(f"bernoulli:{m}", side, N)
                oracle = target_mean / float(N + 1) ** m
                if abs(res.achieved_mean - oracle) / abs(oracle) > 0.005:
                    failures.append(
                        f"bernoulli {m} {side} N={N}: mean {res.achieved_mean!r} "
                        f"vs {oracle!r}"
                    )
        for alpha, beta in ((0.2, 0.7), (0.41, 0.52)):
            minor, major = interval_polys(alpha, beta, N)
            length = beta - alpha
            for gap in (major.mean - length, length - minor.mean):
                if abs(gap - 1.0 / (N + 1)) / (1.0 / (N + 1)) > 0.005:
                    failures.append(f"interval gap N={N}: {gap!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.1f}s (cap 600s)")
    report(7, "extremal means", failures, f"{elapsed:.1f}s")


def test_c08_executed_theorems(pipeline):
    failures = []
    t0 = time.perf_counter()
    slack = 1e-9
    worst_margin = math.inf
    max_ratios = {tag: 0.0 for tag in SCAN_TARGETS}
    targets = [parse_target(tag) for tag in SCAN_TARGETS]
    for key in ((3, 5), (3, 7)):
        q, d = key
        entries = pipeline["sets"][key]
        extrema = block_extrema([entry["zeros"] for entry in entries], targets, 2**14)
        for entry, exts in zip(entries, extrema):
            zeros = entry["zeros"]
            for tag, (target, n), ext in zip(SCAN_TARGETS, targets, exts):
                env = envelope(q, d, target, n, "upper")
                max_ratios[tag] = max(max_ratios[tag], ext.max_value / env)
                for mode in ("weil", "exact"):
                    for policy in ("formula", "exhaustive"):
                        N_up = choose_degree(policy, q, d, target, n, "upper", mode, zeros)
                        up = rigorous_bound(zeros, q, target, n, "upper", N_up, mode).bound
                        worst_margin = min(worst_margin, up - ext.max_value)
                        if ext.max_value > up + slack:
                            failures.append(
                                f"{entry['L'].D} {tag} {mode}/{policy}: max "
                                f"{ext.max_value!r} > bound {up!r}"
                            )
                        if target != "s":
                            continue
                        N_lo = choose_degree(policy, q, d, target, n, "lower", mode, zeros)
                        lo = rigorous_bound(zeros, q, target, n, "lower", N_lo, mode).bound
                        worst_margin = min(worst_margin, ext.min_value - lo)
                        if ext.min_value < lo - slack:
                            failures.append(
                                f"{entry['L'].D} {tag} {mode}/{policy}: min "
                                f"{ext.min_value!r} < bound {lo!r}"
                            )
                        if n == 0:
                            for point, value in (
                                (ext.argmax, ext.max_value),
                                (ext.argmin, ext.min_value),
                            ):
                                up4, lo4 = s0_bound_interval_method(zeros, q, point, N_up, mode)
                                if value > up4 + slack or value < lo4 - slack:
                                    failures.append(
                                        f"{entry['L'].D} interval route misses "
                                        f"S_0({point!r}) = {value!r}"
                                    )
    elapsed = time.perf_counter() - t0
    ratio_note = ", ".join(f"{tag} ratio<={max_ratios[tag]:.3f}" for tag in SCAN_TARGETS)
    report(
        8,
        "executed theorem bounds",
        failures,
        f"{elapsed:.1f}s, slack min {worst_margin:.3e}; envelope ratios reported only: {ratio_note}",
    )


def test_c09_envelope_constants():
    failures = []
    for n in (1, 3, 5):
        A = bernoulli_envelope_constants(n)
        C = zeta_envelope_constants(n)
        for a, c in zip(A, C):
            if abs(a - c) > 1e-10:
                failures.append(f"n={n}: |A - C| = {abs(a - c):.2e}")
    for n in (2, 4):
        A = bernoulli_envelope_constants(n)
        C = zeta_envelope_constants(n)
        if not (A[0] < C[0] and A[1] < C[1]):
            failures.append(f"n={n}: A {A} not below C {C}")
    A2 = bernoulli_envelope_constants(2)
    lower = (1 - 3.0**-2) / (math.pi * 2**3)
    upper = 1.0 / (math.pi * 2**3)
    if not (lower < A2[0] < upper and lower < A2[1] < upper):
        failures.append(f"A_2 {A2} outside the bracket ({lower}, {upper})")
    report(9, "envelope constants", failures)


def test_c10_scan_determinism(tmp_path):
    from conftest import run_cli

    failures = []
    outputs = []
    for name, threads in (("one.csv", "1"), ("eight.csv", "8"), ("again.csv", "1")):
        out = tmp_path / name
        proc = run_cli(
            "scan",
            "--q", "3", "--d", "5",
            "--target", "s:0", "--target", "logmod",
            "--sample", "random:24",
            "--seed", "20260808",
            "--grid", "1024",
            "--out", str(out),
            env_extra={"HYPERELL_THREADS": threads},
        )
        if proc.returncode != 0:
            failures.append(f"scan with {threads} workers exited {proc.returncode}: {proc.stderr}")
            break
        outputs.append(out.read_bytes())
    if len(outputs) == 3 and not (outputs[0] == outputs[1] == outputs[2]):
        failures.append("CSV bytes differ across runs or worker counts")
    report(10, "scan determinism", failures)
