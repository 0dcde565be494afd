"""Regenerate the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Writes perfbench/reference/{scan-q3d7.csv.gz, scan-q3d11.csv.gz,
lpoly-q3d11.jsonl.gz}.  Scan references are ``hyperell.cli.rows_to_csv``
output (one header, rows sorted by modulus encoding); the lpoly reference
holds one ``hyperell lpoly`` output line per modulus.  Regenerate only when
a change is meant to alter exact outputs, and say so where the change is
described.  Scans run at nproc workers; their output does not depend on
the worker count.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hyperell.cli as cli  # noqa: E402
from hyperell import FieldSpec, ensemble_scan, parse_poly  # noqa: E402

from workloads import LPOLY_POOL, POOL_SEEDS, nproc, workloads  # noqa: E402

REF = HERE / "reference"


def write_gz(path: Path, text: str) -> None:
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))


def scan_rows(wl, jobs: int) -> list[dict]:
    if not wl.pooled:
        configs = [replace(wl.config(0, threads=jobs), sample="all")]
    else:
        configs = [wl.config(s, threads=jobs) for s in range(POOL_SEEDS)]
    by_modulus: dict[str, list[dict]] = {}
    for cfg in configs:
        result = ensemble_scan(cfg)
        if result.violations:
            raise SystemExit(f"violations in reference scan {cfg}: {result.violations}")
        batch: dict[str, list[dict]] = {}
        for row in result.rows:
            batch.setdefault(row["D"], []).append(row)
        for D, rows in batch.items():
            by_modulus.setdefault(D, rows)
    field = FieldSpec(wl.q)
    order = sorted(by_modulus, key=lambda D: parse_poly(D, field).monic_index())
    return [row for D in order for row in by_modulus[D]]


def lpoly_lines(wl, moduli: list[str]) -> list[str]:
    lines = []
    for D in moduli:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["lpoly", "--q", str(wl.q), "--D", D])
        if code != 0:
            raise SystemExit(f"hyperell lpoly failed on {D} with exit code {code}")
        lines.append(buf.getvalue().strip())
    return lines


def main() -> int:
    REF.mkdir(exist_ok=True)
    wls = workloads()
    d11_moduli: list[str] = []
    for name in ("scan-q3d7", "scan-q3d11"):
        t0 = time.perf_counter()
        rows = scan_rows(wls[name], nproc())
        write_gz(REF / f"{name}.csv.gz", cli.rows_to_csv(rows, wls[name].d))
        moduli = list(dict.fromkeys(r["D"] for r in rows))
        print(f"{name}: {len(moduli)} moduli in {time.perf_counter() - t0:.1f} s", flush=True)
        if name == "scan-q3d11":
            d11_moduli = moduli
    t0 = time.perf_counter()
    lp = wls["lpoly-q3d11"]
    lines = lpoly_lines(lp, d11_moduli[:LPOLY_POOL])
    write_gz(REF / f"{lp.name}.jsonl.gz", "\n".join(lines) + "\n")
    print(f"{lp.name}: {len(lines)} moduli in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
