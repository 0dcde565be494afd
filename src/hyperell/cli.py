"""Command-line surface for batch experiments and plot-data emission.

Four subcommands: lpoly (one modulus to JSON), scan (ensemble sweep to CSV
plus a JSON manifest), extremal (one-sided polynomial coefficients plus
certification), constants (the envelope-constant table).  Outcomes map to
exit codes: 0 success, 1 the reader closed standard output, 2 bad input
or a request over the enumeration budget, 3 internal consistency failure,
4 soundness violation (an empirical value above its rigorous bound), 5
certification or LP solver failure.  Every failure but the closed pipe
prints one line to stderr, never a traceback; the closed pipe prints
nothing.

Every command is deterministic given its flags (seeds included): reruns
are byte-identical, and the scan's worker count (HYPERELL_THREADS) never
changes its output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from .charsum import Character
from .errors import CertificationError, ConsistencyError, ResourceLimitError, SolverError
from .fqpoly import FieldSpec, is_squarefree, parse_poly
from .lfunc import compute_lpolynomial, find_zero_angles, rh_radius_error

# The scan, extremal and constants commands import the bound layer
# (bounds, onesided, bernoulli) inside their functions: an lpoly request
# loads only the L-function layer.

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_INPUT = 2
EXIT_CONSISTENCY = 3
EXIT_SOUNDNESS = 4
EXIT_CERTIFICATION = 5


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def git_describe() -> str:
    """git describe of the checkout the package is imported from, not of
    the caller's working directory; "unknown" outside a git checkout."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# lpoly
# ---------------------------------------------------------------------------


def cmd_lpoly(args) -> int:
    field = FieldSpec(args.q)
    D = parse_poly(args.D, field)
    if not D.is_monic:
        raise ValueError(f"modulus must be monic, got {D}")
    if D.degree % 2 == 0:
        raise ValueError(f"modulus degree must be odd, got {D.degree}")
    if not is_squarefree(D):
        raise ValueError(f"modulus must be squarefree, got {D}")
    L = compute_lpolynomial(Character(D))
    zeros = find_zero_angles(L)
    rh_err = rh_radius_error(L)
    payload = {
        "q": L.q,
        "d": L.d,
        "D": str(D),
        "c": list(L.c),
        "theta": list(zeros.theta),
        "residual": zeros.residual,
        "fe_symmetry": "exact",
        "rh_radius_err": rh_err,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def rows_to_csv(rows: list[dict], d: int) -> str:
    g = (d - 1) // 2
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = (
        ["q", "d", "D"]
        + [f"c_{k}" for k in range(2 * g + 1)]
        + [
            "target",
            "n",
            "N_used",
            "mode",
            "main_term",
            "tail_term",
            "rigorous_bound",
            "empirical_max",
            "argmax",
            "ratio",
        ]
    )
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [row["q"], row["d"], row["D"]]
            + [str(c) for c in row["c"]]
            + [
                row["target"],
                "" if row["n"] is None else row["n"],
                row["N_used"],
                row["mode"],
                _fmt(row["main_term"]),
                _fmt(row["tail_term"]),
                _fmt(row["rigorous_bound"]),
                _fmt(row["empirical_max"]),
                _fmt(row["argmax"]),
                _fmt(row["ratio"]),
            ]
        )
    return buf.getvalue()


def cmd_scan(args) -> int:
    from .bounds import ensemble_scan
    from .onesided import _CERT_TOL

    cfg, out = scan_request(args)
    result = ensemble_scan(cfg)
    text = rows_to_csv(result.rows, cfg.d)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    manifest = {
        "q": cfg.q,
        "d": cfg.d,
        "sample": cfg.sample,
        "seed": cfg.seed,
        "grid_size": cfg.grid_size,
        "targets": list(cfg.targets),
        "degree_policy": cfg.policy,
        "mode": cfg.mode,
        "tolerances": {
            "soundness_slack": cfg.soundness_slack,
            "certification_margin": _CERT_TOL,
        },
        "git_describe": git_describe(),
        "rows": len(result.table),
        "aggregates": result.aggregates,
        "violations": result.violations,
    }
    manifest_path = str(Path(out).with_suffix(".manifest.json"))
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.violations:
        for line in result.violations:
            print(f"SOUNDNESS VIOLATION: {line}", file=sys.stderr)
        return EXIT_SOUNDNESS
    print(f"wrote {len(result.table)} rows to {out} (manifest {manifest_path})")
    return EXIT_OK


# scan flag (argparse dest, and config-file key) -> (ScanConfig field, value
# of the file's text); out is the command's own
_SCAN_KEYS = {
    "q": ("q", int),
    "d": ("d", int),
    "targets": ("targets", lambda text: tuple(t for t in text.split(",") if t)),
    "sample": ("sample", str),
    "seed": ("seed", int),
    "degree_policy": ("policy", str),
    "mode": ("mode", str),
    "grid": ("grid_size", int),
    "slack": ("soundness_slack", float),
    "out": (None, str),
}


def _read_config(path: str) -> dict:
    """The flags a flat key=value config file sets ('#' starts a comment)."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCAN_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _SCAN_KEYS[key][1](value)
    return values


def scan_request(args) -> tuple[ScanConfig, str]:
    """The scan's config and CSV path: each flag given wins over its
    --config file key, and the rest take ScanConfig's defaults (with q = 3
    and d = 5) and scan.csv."""
    from .bounds import ScanConfig

    values = {"q": 3, "d": 5}
    if args.config:
        values.update(_read_config(args.config))
    for key in _SCAN_KEYS:
        if getattr(args, key) is not None:
            values[key] = tuple(args.targets) if key == "targets" else getattr(args, key)
    out = values.pop("out", None) or "scan.csv"
    return ScanConfig(**{_SCAN_KEYS[key][0]: value for key, value in values.items()}), out


# ---------------------------------------------------------------------------
# extremal
# ---------------------------------------------------------------------------


def _coefficients_csv(poly) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "cos", "sin"])
    writer.writerow([0, _fmt(poly.cos[0]), _fmt(0.0)])
    for k in range(1, poly.degree + 1):
        writer.writerow([k, _fmt(poly.cos[k]), _fmt(poly.sin[k - 1])])
    return buf.getvalue()


def cmd_extremal(args) -> int:
    from .onesided import construct_one_sided, interval_polys, verify_coefficient_bounds

    if args.target.startswith("interval:"):
        parts = args.target.split(":")
        if len(parts) != 3:
            raise ValueError("interval target must be interval:alpha:beta")
        alpha, beta = float(parts[1]), float(parts[2])
        minor, major = interval_polys(alpha, beta, args.N)
        poly = major if args.side == "majorant" else minor
        length = beta - alpha
        sign = 1 if args.side == "majorant" else -1
        cert = {
            "target": args.target,
            "side": args.side,
            "N": args.N,
            "achieved_mean": poly.mean,
            "oracle_mean": length + sign / (args.N + 1),
            "gap": sign * (poly.mean - length),
            "oracle_gap": 1.0 / (args.N + 1),
            "poly": poly.to_json_dict(),
        }
    else:
        # the flag speaks in argument-sum orders: bernoulli:n bounds S_n,
        # whose representation uses the Bernoulli function of index n+1
        tag = args.target
        if tag.startswith("bernoulli:"):
            order = int(tag.split(":", 1)[1])
            tag = f"bernoulli:{order + 1}"
        res = construct_one_sided(tag, args.side, args.N)
        report = verify_coefficient_bounds(res)
        poly = res.poly
        cert = res.to_json_dict()
        cert["target"] = args.target  # echo the requested tag, not the library one
        cert["coefficient_check"] = report.to_json_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(_coefficients_csv(poly))
    print(json.dumps(cert, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    from .bernoulli import (
        bernoulli_envelope_constants,
        bernoulli_extrema,
        zeta_envelope_constants,
    )

    if args.nmax < 1:
        raise ValueError(f"nmax must be at least 1, got {args.nmax}")
    if args.nmax > 12:
        raise ValueError(f"nmax is capped at 12, got {args.nmax}")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "M", "m", "A_minus", "A_plus", "C_minus", "C_plus", "flag"])
    for n in range(1, args.nmax + 1):
        hi, lo = bernoulli_extrema(n + 1)
        a_minus, a_plus = bernoulli_envelope_constants(n)
        c_minus, c_plus = zeta_envelope_constants(n)
        if n % 2 == 1:
            match = abs(a_minus - c_minus) <= 1e-10 and abs(a_plus - c_plus) <= 1e-10
            flag = "exact match" if match else "MISMATCH"
        else:
            flag = "A < C" if (a_minus < c_minus and a_plus < c_plus) else "VIOLATION"
        writer.writerow(
            [n, _fmt(hi), _fmt(lo), _fmt(a_minus), _fmt(a_plus), _fmt(c_minus), _fmt(c_plus), flag]
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperell",
        description="Quadratic character L-polynomials over F_q[x] and certified "
        "one-sided bounds on the critical circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lpoly", help="L-polynomial, zero angles and checks for one modulus")
    p.add_argument("--q", type=int, required=True, help="odd prime field size")
    p.add_argument("--D", type=str, required=True, help='modulus, e.g. "x^3+2x+1"')
    p.set_defaults(func=cmd_lpoly)

    p = sub.add_parser("scan", help="ensemble sweep: CSV rows plus a JSON manifest")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument(
        "--target",
        action="append",
        dest="targets",
        default=None,
        help="repeatable: logmod or s:n (default logmod, s:0, s:1, s:2)",
    )
    p.add_argument("--sample", type=str, default=None, help="all or random:m")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--degree-policy",
        type=str,
        default=None,
        help="formula, exhaustive, or fixed:N",
    )
    p.add_argument("--mode", type=str, default=None, help="reported bound mode: weil or exact")
    p.add_argument("--grid", type=int, default=None, help="empirical grid size (>= 1024)")
    p.add_argument("--slack", type=float, default=None, help="soundness comparison slack")
    p.add_argument("--out", type=str, default=None, help="output CSV path")
    p.add_argument("--config", type=str, default=None, help="key=value config file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("extremal", help="one-sided polynomial coefficients and certification")
    p.add_argument(
        "--target",
        type=str,
        required=True,
        help="log2sin, bernoulli:n, sawtooth, or interval:alpha:beta",
    )
    p.add_argument("--side", type=str, required=True, choices=["majorant", "minorant"])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", type=str, default=None, help="coefficient CSV path")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("constants", help="envelope-constant table as CSV")
    p.add_argument("--nmax", type=int, default=8)
    p.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed standard output: silence the interpreter's
        # final flush (Python's documented SIGPIPE recipe) and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except SolverError as exc:
        print(f"LP solver failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
