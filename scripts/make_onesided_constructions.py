#!/usr/bin/env python3
"""Rewrite src/hyperell/onesided_constructions.json from the LP solver.

The file holds every one-sided polynomial the bound layer of a default F_3
H_7 scan builds (SCAN_TARGETS under the exhaustive policy up to
DEFAULT_N_CAP: the log2sin majorant and bernoulli:1..3 on both sides,
N = 0..8), with its
LP provenance.  block_one_sided (and so construct_one_sided) serves these
keys from the file, re-certifying them, instead of re-solving them in
every process.  The stored file is hidden while the solver runs, so every
entry is a fresh solve.  Rerun this after any change to the construction
(grids, LP, certification or repair); the tier-1 test
test_stored_constructions_match_solver fails until the file matches.

Example:
    python scripts/make_onesided_constructions.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hyperell import onesided
from hyperell.bounds import ScanConfig, _bound_layer


def main():
    onesided._STORE = {}
    onesided._CACHE.clear()
    _bound_layer(ScanConfig(q=3, d=7))
    entries = [
        {
            "target": target,
            "side": side,
            "N": N,
            "grid_points": grid_points,
            "cos": list(r.poly.cos),
            "sin": list(r.poly.sin),
            "lp_mean": r.lp_mean,
            "repair_epsilon": r.repair_epsilon,
            "rounds": r.rounds,
            "constraints": r.constraints,
        }
        for (target, side, N, grid_points), r in sorted(onesided._CACHE.items())
    ]
    text = "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"
    onesided._STORE_FILE.write_text(text, encoding="utf-8")
    print(f"wrote {len(entries)} constructions to {onesided._STORE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
