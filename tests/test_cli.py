import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import SRC, run_cli

from hyperell import cli, onesided
from hyperell.cli import rows_to_csv
from hyperell.errors import SolverError


# --- lpoly -------------------------------------------------------------------


def test_lpoly_known_modulus():
    proc = run_cli("lpoly", "--q", "3", "--D", "x^3+2x+1")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["c"] == [1, 3, 3]
    assert payload["fe_symmetry"] == "exact"
    assert len(payload["theta"]) == 2
    assert payload["theta"][0] == pytest.approx(5 / 12, abs=1e-9)
    assert payload["rh_radius_err"] < 1e-9


def test_lpoly_rejects_even_degree():
    proc = run_cli("lpoly", "--q", "3", "--D", "x^2")
    assert proc.returncode == 2
    assert "odd" in proc.stderr or "squarefree" in proc.stderr


def test_lpoly_large_degree():
    # d = 17 counts points over F_(3^k) for k <= 8 only
    proc = run_cli("lpoly", "--q", "3", "--D", "x^17+2x+1")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    c = payload["c"]
    assert len(c) == 17 and c[0] == 1
    for k in range(9):
        assert c[16 - k] == 3 ** (8 - k) * c[k]
    assert len(payload["theta"]) == 16
    assert payload["rh_radius_err"] <= 1e-6


def test_lpoly_over_budget_exits_2():
    # F_(7^9), the field of the point sum s_9, is over the enumeration budget
    proc = run_cli("lpoly", "--q", "7", "--D", "x^19+x+1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def _env():
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))


# Runs `python -m hyperell ARGS` in a fork of a bare interpreter and prints
# the child's peak RSS (KB on Linux) as the last line of stderr.  Linux
# carries a process's peak from before its exec into the program it
# execs, so a child forked from the test runner would report the runner's.
_PEAK_RSS = (
    "import os, sys\n"
    "pid = os.fork()\n"
    "if not pid:\n"
    "    os.execv(sys.executable, [sys.executable, '-m', 'hyperell', *sys.argv[1:]])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(usage.ru_maxrss, file=sys.stderr)\n"
    "sys.exit(os.waitstatus_to_exitcode(status))\n"
)


def test_lpoly_large_field_is_fast_and_small():
    # d = 3 over F_1000003 counts the points of one field of q elements;
    # a degree-1 prime sieve with one symbol descent per prime took about
    # 10 s and 180 MB on a 2-vCPU Xeon
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PEAK_RSS, "lpoly", "--q", "1000003", "--D", "x^3+x+1"],
        capture_output=True, text=True, env=_env(), timeout=300,
    )
    elapsed = time.perf_counter() - start
    *errors, peak = proc.stderr.splitlines()
    assert proc.returncode == 0 and not errors, proc.stderr
    assert json.loads(proc.stdout)["c"] == [1, 723, 1000003]
    assert elapsed < 5.0
    assert int(peak) / (2**20 if sys.platform == "darwin" else 2**10) < 150  # MB


def test_lpoly_huge_field_exits_2():
    # F_q itself is over the budget of 3*10^7 field elements
    proc = run_cli("lpoly", "--q", "2147483647", "--D", "x^3+x+1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_1_quietly():
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the child writes
    proc = subprocess.Popen([sys.executable, "-m", "hyperell", "lpoly", "--q", "3", "--D", "x^3+2x+1"],
                            stdout=write, stderr=subprocess.PIPE, env=_env())
    os.close(write)
    err = proc.communicate(timeout=300)[1]
    assert proc.returncode == 1
    assert err == b""


def test_lpoly_rejects_bad_inputs():
    assert run_cli("lpoly", "--q", "4", "--D", "x^3+x").returncode == 2
    assert run_cli("lpoly", "--q", "3", "--D", "x^3").returncode == 2  # not squarefree
    assert run_cli("lpoly", "--q", "3", "--D", "2x^3+1").returncode == 2  # not monic
    assert run_cli("lpoly", "--q", "3", "--D", "zebra").returncode == 2


# --- scan ---------------------------------------------------------------------


def test_scan_row_count_and_exit_zero(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_cli(
        "scan",
        "--q", "3", "--d", "5",
        "--target", "s:0",
        "--sample", "random:10",
        "--seed", "9",
        "--grid", "1024",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 10
    for row in rows:
        assert float(row["empirical_max"]) <= float(row["rigorous_bound"]) + 1e-9
    manifest = json.loads((tmp_path / "scan.manifest.json").read_text())
    assert manifest["seed"] == 9 and manifest["rows"] == 10
    assert manifest["violations"] == []
    assert "git_describe" in manifest and "tolerances" in manifest


def test_scan_deterministic_bytes(tmp_path):
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "8"), ("c.csv", "1")):
        out = tmp_path / name
        proc = run_cli(
            "scan",
            "--q", "3", "--d", "5",
            "--target", "s:0", "--target", "logmod",
            "--sample", "random:12",
            "--seed", "4",
            "--grid", "1024",
            "--out", str(out),
            env_extra={"HYPERELL_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_scan_rows_sorted_by_modulus(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_cli(
        "scan",
        "--q", "3", "--d", "5",
        "--target", "s:0",
        "--sample", "random:8",
        "--seed", "2",
        "--grid", "1024",
        "--out", str(out),
    )
    assert proc.returncode == 0
    rows = list(csv.DictReader(out.open()))
    from hyperell.fqpoly import FieldSpec, parse_poly

    encs = [parse_poly(r["D"], FieldSpec(3)).monic_index() for r in rows]
    assert encs == sorted(encs)


def test_scan_histogram_of_maxima_ulps_apart(tmp_path):
    # the two S_0 maxima of this sample differ in the last bits, a range
    # too narrow for 20 finite bins
    out = tmp_path / "scan.csv"
    proc = run_cli(
        "scan", "--q", "3", "--d", "7", "--sample", "random:2", "--seed", "9008",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 8
    lo, hi = sorted(float(r["empirical_max"]) for r in rows if r["target"] == "s" and r["n"] == "0")
    assert 0.0 < hi - lo < 1e-14
    manifest = json.loads((tmp_path / "scan.manifest.json").read_text())
    assert sum(manifest["aggregates"]["s:0"]["histogram"]["counts"]) == 2


# every scan flag as a config-file line, and as the flag itself
SCAN_SETTINGS = (
    ("q", "--q", "3"),
    ("d", "--d", "5"),
    ("sample", "--sample", "random:6"),
    ("seed", "--seed", "13"),
    ("degree_policy", "--degree-policy", "fixed:3"),
    ("mode", "--mode", "exact"),
    ("grid", "--grid", "2048"),
    ("slack", "--slack", "2e-09"),
)


def scan_bytes(tmp_path, name, *args):
    """(CSV, manifest) bytes of an in-process scan writing tmp_path/name.csv."""
    assert cli.main(["scan", *args, "--out", str(tmp_path / f"{name}.csv")]) == 0
    return (tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}.manifest.json").read_bytes()


def test_scan_config_file(tmp_path):
    # a config file with every key gives the bytes of the same flags; an
    # explicit flag wins over its key, and --target replaces the file's list
    lines = [f"{key} = {value}" for key, _, value in SCAN_SETTINGS]
    lines += ["# targets as one comma-separated list", "targets=logmod,s:1", ""]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines + [f"out={tmp_path / 'from_config.csv'}", ""]))
    assert cli.main(["scan", "--config", str(cfg)]) == 0
    from_file = (
        (tmp_path / "from_config.csv").read_bytes(),
        (tmp_path / "from_config.manifest.json").read_bytes(),
    )
    flags = [arg for _, flag, value in SCAN_SETTINGS for arg in (flag, value)]
    assert from_file == scan_bytes(tmp_path, "flags", *flags, "--target", "logmod", "--target", "s:1")
    assert len(from_file[0].decode().splitlines()) == 1 + 6 * 2

    picked = ["--seed", "14", "--target", "s:0"]
    overridden = scan_bytes(tmp_path, "overridden", "--config", str(cfg), *picked)
    assert overridden == scan_bytes(tmp_path, "picked", *flags, *picked)
    assert json.loads(overridden[1])["seed"] == 14
    assert json.loads(overridden[1])["targets"] == ["s:0"]


@pytest.mark.parametrize(
    "text",
    ["unknown_key=1\n", "q 3\n", "command=scan\n", "seed=thirteen\n"],
    ids=["unknown-key", "no-equals", "dropped-command-key", "bad-int"],
)
def test_scan_config_file_errors_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q=3\n" + text)
    assert cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "s.csv").exists()


def test_scan_manifest_path_replaces_the_suffix(tmp_path):
    # only the file name's suffix gives way: a dot in a directory name stays
    (tmp_path / "run.v2").mkdir()
    args = ["--q", "3", "--d", "3", "--target", "s:0", "--sample", "random:1", "--grid", "1024"]
    for out, manifest in (
        ("run.v2/scan", "run.v2/scan.manifest.json"),
        ("run.v2/scan.csv", "run.v2/scan.manifest.json"),
        ("a.b.csv", "a.b.manifest.json"),
    ):
        (tmp_path / "run.v2" / "scan.manifest.json").unlink(missing_ok=True)
        assert cli.main(["scan", *args, "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / manifest).exists()
    assert not (tmp_path / "run.manifest.json").exists()


def test_scan_rejects_negative_sample_size(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert cli.main(["scan", "--q", "3", "--d", "5", "--sample", "random:-3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("slack", ["nan", "inf", "-1"])
def test_scan_rejects_a_slack_that_is_not_finite_and_nonnegative(tmp_path, capsys, slack):
    # nan and inf would turn every soundness check off, and a negative slack
    # would report violations that are not there; flag and config file alike
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"q=3\nd=5\nslack={slack}\n")
    out = tmp_path / "s.csv"
    for args in (["--q", "3", "--d", "5", "--slack", slack], ["--config", str(cfg)]):
        assert cli.main(["scan", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: soundness slack must be finite and >= 0")
        assert len(err.splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--sample", "random:abc", "sample must be all or random:m, got 'random:abc'"),
        ("--degree-policy", "fixed:x", "degree policy must be formula, exhaustive or fixed:N, got 'fixed:x'"),
        ("--target", "s:x", "scan target must be logmod or s:n, got 's:x'"),
    ],
)
def test_scan_names_a_bad_spec(tmp_path, capsys, flag, value, message):
    out = tmp_path / "s.csv"
    assert cli.main(["scan", "--q", "3", "--d", "5", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_scan_over_budget_exits_2(tmp_path):
    proc = run_cli("scan", "--q", "3", "--d", "17", "--out", str(tmp_path / "s.csv"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_scan_grid_over_budget_exits_2(tmp_path):
    # a grid of more points than the enumeration budget is refused before
    # anything is enumerated, from the flag and from a config file alike
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q=3\nd=3\ngrid=100000000000\n")
    for args in (
        ["--q", "3", "--d", "3", "--sample", "random:2", "--grid", "100000000000"],
        ["--config", str(cfg)],
    ):
        proc = run_cli("scan", *args, "--out", str(tmp_path / "s.csv"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
        assert "budget" in proc.stderr
        assert not (tmp_path / "s.csv").exists()


def test_solver_failure_exits_5(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SolverError("dual unbounded: the primal program is infeasible")

    monkeypatch.setattr(onesided, "construct_one_sided", fail)
    code = cli.main(["extremal", "--target", "log2sin", "--side", "majorant", "--N", "4"])
    assert code == 5
    assert "LP solver failure" in capsys.readouterr().err


def test_scan_records_package_describe(tmp_path):
    # a scan started inside another git repository still describes the
    # checkout the package comes from
    other = tmp_path / "other"
    other.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.org"]
    subprocess.run(git + ["init", "-q"], cwd=other, check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], cwd=other, check=True)
    other_describe = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=other, capture_output=True, text=True
    ).stdout.strip()
    package = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=Path(SRC) / "hyperell", capture_output=True, text=True,
    )
    expected = package.stdout.strip() if package.returncode == 0 else "unknown"
    proc = run_cli(
        "scan", "--q", "3", "--d", "3", "--target", "s:0", "--sample", "random:2",
        "--grid", "1024", "--out", "scan.csv", cwd=other,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((other / "scan.manifest.json").read_text())
    assert manifest["git_describe"] == expected
    assert manifest["git_describe"] != other_describe


def test_scan_rejects_even_degree():
    proc = run_cli("scan", "--q", "3", "--d", "4", "--sample", "random:2")
    assert proc.returncode == 2


# --- extremal -----------------------------------------------------------------


def test_extremal_log2sin(tmp_path):
    out = tmp_path / "coef.csv"
    proc = run_cli(
        "extremal", "--target", "log2sin", "--side", "majorant", "--N", "8",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    cert = json.loads(proc.stdout)
    assert cert["relative_gap"] <= 0.005
    assert cert["coefficient_check"]["classical_bounds_ok"] is True
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 9
    assert float(rows[0]["cos"]) == pytest.approx(cert["achieved_mean"])


def test_extremal_log2sin_minorant():
    # the minorant lives on a truncated domain: no classical bounds and no
    # Bernoulli decay constant apply, and the report says so with nulls
    proc = run_cli("extremal", "--target", "log2sin", "--side", "minorant", "--N", "4")
    assert proc.returncode == 0, proc.stderr
    cert = json.loads(proc.stdout)
    check = cert["coefficient_check"]
    assert check["classical_bounds_ok"] is None and check["fitted_constant"] is None
    assert (check["target"], check["side"], check["N"]) == ("log2sin", "minorant", 4)


def test_extremal_bernoulli_minorant():
    # order 1 bounds the index-2 Bernoulli function: oracle m_2/(N+1)^2
    proc = run_cli("extremal", "--target", "bernoulli:1", "--side", "minorant", "--N", "8")
    assert proc.returncode == 0, proc.stderr
    cert = json.loads(proc.stdout)
    assert cert["oracle_mean"] == pytest.approx(-1.0 / (12 * 81), rel=1e-9)
    assert cert["relative_gap"] <= 0.005
    assert cert["target"] == "bernoulli:1"


def test_extremal_interval():
    proc = run_cli("extremal", "--target", "interval:0.2:0.7", "--side", "majorant", "--N", "4")
    assert proc.returncode == 0, proc.stderr
    cert = json.loads(proc.stdout)
    assert cert["gap"] == pytest.approx(0.2, rel=0.005)


def test_extremal_rejects_garbage_target():
    assert run_cli("extremal", "--target", "wiggle", "--side", "majorant", "--N", "4").returncode == 2


# --- constants ------------------------------------------------------------------


def test_constants_table():
    proc = run_cli("constants", "--nmax", "5")
    assert proc.returncode == 0
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    assert len(rows) == 5
    byn = {int(r["n"]): r for r in rows}
    assert byn[1]["flag"] == "exact match"
    assert byn[2]["flag"] == "A < C"
    assert byn[3]["flag"] == "exact match"
    # Lehmer bracket for the even orders
    import math

    for n in (2, 4):
        a = float(byn[n]["A_minus"])
        assert (1 - 3.0**-n) / (math.pi * 2 ** (n + 1)) < a < 1 / (math.pi * 2 ** (n + 1))
    assert run_cli("constants", "--nmax", "13").returncode == 2


@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_constants_rejects_nmax_below_one(nmax):
    proc = run_cli("constants", "--nmax", nmax)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


# --- csv formatting ---------------------------------------------------------------


def test_rows_to_csv_header_matches_degree():
    rows = [
        {
            "q": 3, "d": 5, "D": "x^5+x", "c": [1, 0, 0, 0, 9],
            "target": "logmod", "n": None, "N_used": 1, "mode": "weil",
            "main_term": 1.0, "tail_term": 0.5, "rigorous_bound": 1.5,
            "empirical_max": 1.2, "argmax": 0.125, "ratio": 0.8,
        }
    ]
    text = rows_to_csv(rows, 5)
    header = text.splitlines()[0].split(",")
    assert header[3:8] == ["c_0", "c_1", "c_2", "c_3", "c_4"]
    assert header[9] == "n"
