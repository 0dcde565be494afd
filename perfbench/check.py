"""Correctness check of scan CSV text and ``hyperell lpoly`` output against the
stored reference.

Exact columns (q, d, D, the c_k, target, n, N_used, mode) and lpoly's D and c
must match byte for byte.  Floating columns must agree within TOLERANCES.
Independently of the reference, every scan row must satisfy
empirical_max <= rigorous_bound + SOUNDNESS_SLACK.  A modulus fails when any
of its rows or fields misses, or when the reference does not hold it.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

SOUNDNESS_SLACK = 1e-9
# column -> (relative tolerance, absolute tolerance); argmax and theta are
# angles in [0, 1) and compare by circular distance.
TOLERANCES = {
    "main_term": (1e-9, 1e-12),
    "tail_term": (1e-9, 1e-12),
    "rigorous_bound": (1e-9, 1e-12),
    "empirical_max": (1e-9, 1e-9),
    "ratio": (1e-9, 1e-12),
    "argmax": (0.0, 1e-6),
    "theta": (0.0, 1e-9),
}
CIRCULAR = ("argmax", "theta")
LPOLY_SELF_CHECKS = {"residual": 1e-6, "rh_radius_err": 1e-6}


def _read(name: str) -> str:
    with gzip.open(REFERENCE / name, "rt", encoding="utf-8") as fh:
        return fh.read()


def _close(column: str, got: float, want: float) -> bool:
    rel, absolute = TOLERANCES[column]
    diff = abs(got - want)
    if column in CIRCULAR:
        diff = min(diff, 1.0 - diff)
    return diff <= absolute + rel * abs(want)


class ScanReference:
    """Reference rows of one scan workload, keyed by (D, target, n)."""

    def __init__(self, workload: str):
        reader = csv.reader(io.StringIO(_read(f"{workload}.csv.gz")))
        self.header = next(reader)
        target, n = self.header.index("target"), self.header.index("n")
        self.rows = {(r[2], r[target], r[n]): r for r in reader}

    def check(self, csv_text: str) -> tuple[set[str], set[str], list[str]]:
        """(moduli seen, moduli failed, messages) for one rows_to_csv output."""
        reader = csv.reader(io.StringIO(csv_text))
        header = next(reader, None)
        if header != self.header:
            return set(), {"<header>"}, [f"CSV header {header} differs from the reference"]
        col = {name: i for i, name in enumerate(header)}
        seen: set[str] = set()
        failed: set[str] = set()
        messages: list[str] = []

        def miss(D: str, text: str):
            failed.add(D)
            messages.append(f"D={D}: {text}")

        for row in reader:
            D = row[col["D"]]
            seen.add(D)
            ref = self.rows.get((D, row[col["target"]], row[col["n"]]))
            if ref is None:
                miss(D, f"target {row[col['target']]}{row[col['n']]} is not in the reference")
                continue
            for name, i in col.items():
                if name in TOLERANCES:
                    got, want = float(row[i]), float(ref[i])
                    if not _close(name, got, want):
                        miss(D, f"{name} {got!r} differs from reference {want!r}")
                elif row[i] != ref[i]:
                    miss(D, f"{name} {row[i]!r} differs from reference {ref[i]!r}")
            bound, emp = float(row[col["rigorous_bound"]]), float(row[col["empirical_max"]])
            if not emp <= bound + SOUNDNESS_SLACK:
                miss(D, f"empirical_max {emp!r} exceeds rigorous_bound {bound!r}")
        return seen, failed, messages


class LpolyReference:
    """Reference ``hyperell lpoly`` outputs keyed by D, in file order."""

    def __init__(self, workload: str):
        self.outputs = {}
        for line in _read(f"{workload}.jsonl.gz").splitlines():
            payload = json.loads(line)
            self.outputs[payload["D"]] = payload

    @property
    def moduli(self) -> list[str]:
        return list(self.outputs)

    def check(self, D: str, stdout: str) -> list[str]:
        """Mismatches of one request's output; empty when it is correct."""
        want = self.outputs.get(D)
        if want is None:
            return [f"D={D} is not in the reference"]
        try:
            got = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return [f"D={D}: output is not a JSON line: {stdout[-200:]!r}"]
        out = []
        if set(got) != set(want):
            out.append(f"D={D}: keys {sorted(got)} differ from reference {sorted(want)}")
        for key in ("q", "d", "D", "c", "fe_symmetry"):
            if got.get(key) != want[key]:
                out.append(f"D={D}: {key} {got.get(key)!r} differs from reference {want[key]!r}")
        theta = got.get("theta", [])
        if len(theta) != len(want["theta"]) or not all(
            _close("theta", float(a), float(b)) for a, b in zip(theta, want["theta"])
        ):
            out.append(f"D={D}: theta {theta} differs from reference {want['theta']}")
        for key, limit in LPOLY_SELF_CHECKS.items():
            value = got.get(key)
            if not isinstance(value, (int, float)) or not math.fabs(value) <= limit:
                out.append(f"D={D}: {key} {value!r} exceeds {limit}")
        return out
