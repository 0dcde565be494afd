"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, (Q3 - Q1) / median.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds 40]

Each run is a separate ``run.py`` process, one after another; the result
lines go to .bench_out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import ROOT

OUT = ROOT / ".bench_out"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    with open(OUT / f"spread-{args.workload}.jsonl", "a", encoding="utf-8") as log:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                print(f"seed {seed}: exit {proc.returncode}")
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"seed": seed, **result}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.4g}"
                                               for n, m in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:45s} median {median:.6g}  spread {(q3 - q1) / median:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
