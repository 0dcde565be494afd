"""The hyperell benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from its
``src`` tree.  ``--trace 0`` prints every end-to-end metric; ``--trace 1``
runs the traced variant and prints every per-layer metric.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 only when every output matched the
reference (see check.py); 2 means the source tree is missing.  Full results
and the recorded spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import ROOT, SRC, Scan, child_env, nproc, workloads

HERE = ROOT / "perfbench"
OUT = ROOT / ".bench_out"
BUDGET_S = 170.0  # every process of one run ends within this
# A run is PARTS fresh processes, each a cold set-up then 1/PARTS of the timed
# calls: setup_s is the median of PARTS set-ups, and the timed calls are
# spread over the whole run instead of one stretch of the machine's speed.
PARTS = 3
TAIL_BEYOND = 10  # the printed tail percentile leaves this many calls above it

END_TO_END = {
    "moduli_per_s": "1/s",
    "setup_s": "s",
    "latency_max_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "lfunc.compute_lpolynomial.first_s": "s",
    "lfunc.compute_lpolynomial.per_modulus_ms": "ms",
    "lfunc.compute_lpolynomial.calls": "count",
    "charsum.Character.self_s": "s",
    "lfunc.find_zero_angles.self_s": "s",
    "lfunc.tangential_zeros": "count",
    "lfunc.rh_radius_error.self_s": "s",
    "lfunc.power_sum.calls": "count",
    "cli.import_s": "s",
    "bounds.empirical_extrema.self_s": "s",
    "argfunc.log_modulus.calls": "count",
    "argfunc.log_modulus.self_s": "s",
    "argfunc.argument_sum.calls": "count",
    "argfunc.argument_sum.self_s": "s",
    "proc.minor_faults_per_modulus": "faults/modulus",
    "bounds.choose_degree.self_s": "s",
    "bounds.rigorous_bound.calls": "count",
    "bounds.rigorous_bound.self_s": "s",
    "bounds.s0_bound_interval_method.calls": "count",
    "bounds.s0_bound_interval_method.self_s": "s",
    "onesided.interval_polys.self_s": "s",
    "onesided.construct_one_sided.cold_calls": "count",
    "onesided.construct_one_sided.self_s": "s",
    "simplex.solve_inequality_lp.calls": "count",
    "simplex.solve_inequality_lp.self_s": "s",
    "onesided.lp_rounds": "count",
    "onesided.constraints": "count",
    "onesided.repair_epsilon_max": "1",
    "onesided.certified_margin_min": "1",
    "bounds.min_soundness_margin.logmod": "1",
    "bounds.min_soundness_margin.s0": "1",
    "bounds.min_soundness_margin.s1": "1",
    "bounds.min_soundness_margin.s2": "1",
    "bounds.ensemble_scan.parallel_speedup": "ratio",
    "bounds.ensemble_scan.self_s": "s",
    "fqpoly.sample_moduli.self_s": "s",
    "cli.rows_to_csv.self_s": "s",
    "cli.git_describe.self_s": "s",
    "trace.overhead_fraction": "ratio",
    "trace.uncovered_s": "s",
    "trace.moduli": "count",
}


class ProbeError(RuntimeError):
    pass


def run_probe(args: list[str], deadline: float) -> dict:
    """Run one benchmark process to completion and return its JSON result.
    The process gets a session of its own, so a timeout kills its children."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, env=child_env(), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ProbeError(f"probe {args} did not finish within the run budget") from None
    if proc.returncode != 0:
        raise ProbeError(f"probe {args} exited with {proc.returncode}:\n{err[-3000:]}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ProbeError(f"probe {args} printed no result:\n{err[-3000:]}") from None


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    above it, or the median when there are too few samples for that."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]
    return 50.0, statistics.median(ordered)


def provenance() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line for line in fh if line.startswith("model name"))
        cpu = model.split(":", 1)[1].strip()
    except (OSError, StopIteration):
        pass
    describe = "not a git checkout"
    if (ROOT / ".git").exists():  # never describe a repository that encloses the checkout
        try:
            described = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True, text=True, cwd=ROOT, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            described = None
        if described is not None and described.returncode == 0:
            describe = described.stdout.strip()
    return {
        "cpu": cpu,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_describe": describe,
    }


def untraced(wl, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list[str]]:
    parts = []
    for part in range(PARTS):
        first = sum(len(p["walls"]) for p in parts)
        args = ["work", wl.name, str(seed), str(seconds / PARTS), str(part), str(first)]
        parts.append(run_probe(args, deadline))
    samples = [p["setup_s"] for p in parts]
    walls = [w for p in parts for w in p["walls"]]
    moduli = sum(p["moduli"] for p in parts)
    per_call = moduli / len(walls)
    # The rate and the latency in the result come from the slowest call.  The
    # host's core speed drifts over tens of seconds to minutes, up to 2x, with
    # the load on the cores it shares; the slowest call of a run meets the
    # fully loaded speed, which varies far less from run to run, while the
    # median, the mean and the lower percentiles follow how much of the run
    # the load covered (see README.md).  They are printed below.
    slowest = max(walls)
    metrics = {
        "moduli_per_s": per_call / slowest,
        "setup_s": statistics.median(samples),
        "latency_max_s": slowest,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    unit = f"ensemble_scan call on {wl.batch} moduli" if isinstance(wl, Scan) else "lpoly request"
    pct, tail_value = tail(walls)
    notes = [
        f"latency: one {unit}; {len(walls)} samples; median {statistics.median(walls):.6g} s, "
        f"tail p{pct:.1f} {tail_value:.6g} s, max {slowest:.6g} s",
        f"moduli_per_s: {per_call:g} moduli per call at the slowest call; mean rate "
        f"{moduli / sum(walls):.6g} 1/s ({moduli} moduli in {sum(walls):.3f} s of timed calls)",
        f"setup_s: median of {len(samples)} set-ups {[round(s, 3) for s in samples]}",
    ]
    detail = {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "messages": [m for p in parts for m in p["messages"]],
        "walls": walls,
        "setup_samples": samples,
    }
    return metrics, detail, notes


def traced(wl, seed: int, deadline: float) -> tuple[dict, dict, list[str]]:
    spans = OUT / f"{wl.name}-seed{seed}-spans.json.gz"
    trace = run_probe(["trace", wl.name, str(seed), str(spans)], deadline)
    metrics = {name: trace["metrics"].get(name, 0.0) for name in PER_LAYER}
    notes = [
        f"tracing overhead {100 * metrics['trace.overhead_fraction']:.1f}% against the "
        f"untraced pass; {metrics['trace.uncovered_s']:.3f} s of the traced pass in no span",
        f"spans written to {spans.relative_to(ROOT)}",
    ]
    if trace["missing_bindings"]:
        notes.append(f"bindings not found (their layers read 0): {trace['missing_bindings']}")
    return metrics, trace, notes


def main() -> int:
    names = list(workloads())
    parser = argparse.ArgumentParser(description="hyperell benchmark")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hyperell" / "__init__.py").is_file():
        print(f"error: no hyperell source tree at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    wl = workloads()[args.workload]
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, detail, notes = traced(wl, args.seed, deadline)
        else:
            metrics, detail, notes = untraced(wl, args.seed, args.seconds, deadline)
    except ProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed = detail["attempted"], detail["failed"]
    info = provenance()
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    print(f"  {'failed_fraction':45s} {failed / max(1, attempted):.6g} ({failed} of {attempted})")
    for line in notes + [f"failure: {m}" for m in detail["messages"]]:
        print(f"  {line}")
    print(f"  provenance {json.dumps(info, sort_keys=True)}")
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "provenance": info, "detail": detail}
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
