"""Benchmark processes started by run.py.  Each prints one JSON object as its
last line of standard output.

    probe.py work <workload> <seed> <seconds> <part> <first>
                                                 cold set-up, then timed calls from
                                                 call index <first> for <seconds>
    probe.py trace <workload> <seed> <spans.gz>  the traced run
    probe.py lpoly-traced --q <q> --D <D>        one traced ``hyperell lpoly`` request

Scan processes import the library and call ``ensemble_scan``; lpoly clients
start one ``python -m hyperell lpoly`` process per request, one at a time.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import resource
import statistics
import subprocess
import sys
import time

from check import LpolyReference, ScanReference
from workloads import ROOT, Lpoly, Scan, child_env, nproc, workloads

clock = time.perf_counter
REQUEST_TIMEOUT_S = 120


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


class Tally:
    """Attempted and failed operations with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.check_s = 0.0  # time spent checking, kept out of pass walls

    def add(self, attempted: int, failed: int, messages: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages[: max(0, 20 - len(self.messages))])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "messages": self.messages}


def peak_rss_mb(include_self: bool) -> float:
    """Peak RSS of this process (when it does the work) plus its largest child."""
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def scan_batch(wl: Scan, ref: ScanReference, tally: Tally, cfg, count: int):
    """One timed ensemble_scan call, then its CSV and its check (untimed).
    Returns (wall seconds, the ScanResult or None)."""
    import hyperell.bounds as bounds
    import hyperell.cli as cli

    start = clock()
    try:
        result = bounds.ensemble_scan(cfg)
    except Exception as exc:  # a failed batch is counted and the run goes on
        wall = clock() - start
        tally.add(count, count, [f"ensemble_scan({cfg}) raised {exc!r}"])
        return wall, None
    wall = clock() - start
    text = cli.rows_to_csv(result.rows, wl.d)
    checked = clock()
    seen, failed, messages = ref.check(text)
    if result.violations:
        tally.add(count, count, result.violations)
    else:
        tally.add(count, len(failed) + max(0, count - len(seen)), messages)
    tally.check_s += clock() - checked
    return wall, result


def scan_setup(wl: Scan, seed: int, part: int, ref: ScanReference, tally: Tally) -> float:
    """Import plus a one-modulus scan of the workload's config, from a cold process."""
    start = clock()
    import hyperell.bounds  # noqa: F401
    import hyperell.cli  # noqa: F401

    scan_batch(wl, ref, tally, wl.config(wl.batch_seed(seed, part), count=1), 1)
    return clock() - start


def scan_pass(wl: Scan, seed: int, ref: ScanReference, tally: Tally, *, threads=None,
              batches=None, seconds=None, first=0):
    """Consecutive batches from batch index `first` until `batches` ran or
    `seconds` passed.  Returns (ensemble_scan walls, results)."""
    walls, results = [], []
    start = clock()
    i = 0
    while True:
        cfg = wl.config(wl.batch_seed(seed, first + i), threads=threads)
        wall, result = scan_batch(wl, ref, tally, cfg, wl.batch)
        walls.append(wall)
        results.append(result)
        i += 1
        if batches is not None and i >= batches:
            break
        if seconds is not None and clock() - start >= seconds:
            break
    return walls, results


def scan_work(wl: Scan, seed: int, seconds: float, part: int, first: int) -> dict:
    ref = ScanReference(wl.name)
    tally = Tally()
    setup_s = scan_setup(wl, seed, part, ref, tally)
    walls, _ = scan_pass(wl, seed, ref, tally, seconds=seconds, first=first)
    return {
        "setup_s": setup_s,
        "walls": walls,
        "moduli": wl.batch * len(walls),
        "peak_rss_mb": peak_rss_mb(include_self=True),
        **tally.as_dict(),
    }


def min_margins(results) -> dict:
    """rigorous_bound - empirical_max, minimized per target over the rows."""
    out: dict[str, float] = {}
    for result in results:
        for row in result.rows if result else ():
            tag = "logmod" if row["n"] is None else f"s{row['n']}"
            margin = row["rigorous_bound"] - row["empirical_max"]
            out[tag] = min(out.get(tag, margin), margin)
    return out


def scan_trace(wl: Scan, seed: int, spans_path: str) -> dict:
    """Traced cold set-up, then three passes over the same batches: untraced
    at one worker, traced at one worker, untraced at nproc workers."""
    from tracer import Tracer, covered_s, summarize

    ref = ScanReference(wl.name)
    tally = Tally()
    start = clock()
    import hyperell.bounds as bounds  # noqa: F401
    import hyperell.cli as cli

    import_s = clock() - start
    tracer = Tracer()
    tracer.install()
    scan_batch(wl, ref, tally, wl.config(wl.batch_seed(seed, 0), count=1), 1)
    tracer.uninstall()

    def one_pass(threads: int):
        begin, checking = clock(), tally.check_s
        walls, results = scan_pass(wl, seed, ref, tally, threads=threads,
                                   batches=wl.trace_batches)
        cli.git_describe()
        return clock() - begin - (tally.check_s - checking), sum(walls), results

    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    wall_a, scan_a, _ = one_pass(1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracer.install()
    mark = len(tracer.spans)
    wall_b, _, results_b = one_pass(1)
    tracer.uninstall()
    _, scan_c, _ = one_pass(nproc())
    moduli = wl.batch * wl.trace_batches

    write_spans(spans_path, [tracer.spans])
    margins = min_margins(results_b)
    metrics = layer_metrics(
        [summarize(tracer.spans)],
        tangential=count_tangential(tracer.results["lfunc.find_zero_angles"]),
        constructions=tracer.results["onesided.construct_one_sided"],
        extra={
            "cli.import_s": import_s,
            "proc.minor_faults_per_modulus": faults / moduli,
            "bounds.ensemble_scan.parallel_speedup": scan_a / scan_c,
            "trace.overhead_fraction": wall_b / wall_a - 1.0,
            "trace.uncovered_s": wall_b - covered_s(tracer.spans[mark:]),
            "trace.moduli": 1 + moduli,
            **{f"bounds.min_soundness_margin.{t}": v for t, v in margins.items()},
        },
    )
    return {"metrics": metrics, "missing_bindings": tracer.missing, **tally.as_dict()}


# ---------------------------------------------------------------------------
# lpoly
# ---------------------------------------------------------------------------


def lpoly_request(wl: Lpoly, D: str, argv_prefix: list[str]):
    start = clock()
    proc = subprocess.run(
        argv_prefix + ["--q", str(wl.q), "--D", D],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=REQUEST_TIMEOUT_S,
    )
    return clock() - start, proc


PLAIN = [sys.executable, "-m", "hyperell", "lpoly"]
TRACED = [sys.executable, str(ROOT / "perfbench" / "probe.py"), "lpoly-traced"]


def check_request(ref: LpolyReference, tally: Tally, D: str, proc, stdout: str) -> None:
    if proc.returncode != 0:
        tally.add(1, 1, [f"D={D}: exit code {proc.returncode}: {proc.stderr[-300:]}"])
        return
    messages = ref.check(D, stdout)
    tally.add(1, 1 if messages else 0, messages)


def lpoly_setup() -> float:
    """A cold import of the package and its command line."""
    start = clock()
    import hyperell.cli  # noqa: F401

    return clock() - start


def lpoly_work(wl: Lpoly, seed: int, seconds: float, part: int, first: int) -> dict:
    ref = LpolyReference(wl.name)
    moduli = wl.moduli(ref.moduli, seed)
    tally = Tally()
    setup_s = lpoly_setup()
    latencies = []
    start = clock()
    while True:
        D = moduli[(first + len(latencies)) % len(moduli)]
        wall, proc = lpoly_request(wl, D, PLAIN)
        latencies.append(wall)
        check_request(ref, tally, D, proc, proc.stdout)
        if clock() - start >= seconds:
            break
    return {
        "setup_s": setup_s,
        "walls": latencies,
        "moduli": len(latencies),
        "peak_rss_mb": peak_rss_mb(include_self=False),
        **tally.as_dict(),
    }


def lpoly_traced(args: list[str]) -> dict:
    """Inside one request process: import, wrap, run ``hyperell lpoly``."""
    start = clock()
    import hyperell.cli as cli

    import_s = clock() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["lpoly", *args])
    tracer.uninstall()
    return {
        "code": code,
        "stdout": buf.getvalue(),
        "import_s": import_s,
        "spans": tracer.spans,
        "tangential": count_tangential(tracer.results["lfunc.find_zero_angles"]),
        "missing_bindings": tracer.missing,
    }


def lpoly_trace(wl: Lpoly, seed: int, spans_path: str) -> dict:
    """Each request untraced, then traced in a request process of its own."""
    from tracer import covered_s, summarize

    ref = LpolyReference(wl.name)
    tally = Tally()
    plain_s = traced_s = uncovered = 0.0
    imports, span_lists, summaries = [], [], []
    tangential = 0
    missing: list[str] = []
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    moduli = wl.moduli(ref.moduli, seed)[: wl.trace_requests]
    for D in moduli:
        wall, proc = lpoly_request(wl, D, PLAIN)
        plain_s += wall
        check_request(ref, tally, D, proc, proc.stdout)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    for D in moduli:
        wall, proc = lpoly_request(wl, D, TRACED)
        traced_s += wall
        try:
            payload = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tally.add(1, 1, [f"D={D}: traced request printed no result: {proc.stderr[-300:]}"])
            continue
        check_request(ref, tally, D, proc, payload["stdout"] if payload["code"] == 0 else "")
        imports.append(payload["import_s"])
        span_lists.append(payload["spans"])
        summaries.append(summarize(payload["spans"]))
        tangential += payload["tangential"]
        missing = payload["missing_bindings"]
        uncovered += wall - payload["import_s"] - covered_s(payload["spans"])
    write_spans(spans_path, span_lists)
    metrics = layer_metrics(
        summaries,
        tangential=tangential,
        constructions=[],
        extra={
            "cli.import_s": statistics.median(imports) if imports else 0.0,
            "proc.minor_faults_per_modulus": faults / len(moduli),
            "trace.overhead_fraction": traced_s / plain_s - 1.0,
            "trace.uncovered_s": uncovered,
            "trace.moduli": len(moduli),
        },
    )
    return {"metrics": metrics, "missing_bindings": missing, **tally.as_dict()}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_S = (
    "charsum.Character",
    "lfunc.find_zero_angles",
    "lfunc.rh_radius_error",
    "bounds.empirical_extrema",
    "argfunc.log_modulus",
    "argfunc.argument_sum",
    "bounds.choose_degree",
    "bounds.rigorous_bound",
    "bounds.s0_bound_interval_method",
    "onesided.interval_polys",
    "onesided.construct_one_sided",
    "simplex.solve_inequality_lp",
    "fqpoly.sample_moduli",
    "cli.rows_to_csv",
    "cli.git_describe",
    "bounds.ensemble_scan",
)
CALLS = (
    "lfunc.compute_lpolynomial",
    "argfunc.log_modulus",
    "argfunc.argument_sum",
    "bounds.rigorous_bound",
    "lfunc.power_sum",
    "bounds.s0_bound_interval_method",
    "simplex.solve_inequality_lp",
)
TARGET_TAGS = ("logmod", "s0", "s1", "s2")


def count_tangential(zero_sets) -> int:
    """Moduli whose zero angles include a repeated angle."""
    from hyperell import zero_multiplicities

    return sum(any(m > 1 for _, m in zero_multiplicities(z, tol=1e-9)) for z in zero_sets)


def layer_metrics(summaries: list[dict], tangential: int, constructions: list,
                  extra: dict) -> dict:
    """Per-layer metrics from span summaries (one per traced process).  A
    layer that ran no call reads 0."""
    def total(name: str, key: str) -> float:
        return sum(s[name][key] for s in summaries if name in s)

    lpoly = [s["lfunc.compute_lpolynomial"]["durations"] for s in summaries
             if "lfunc.compute_lpolynomial" in s]
    warm = [d for durations in lpoly for d in durations[1:]]
    cold = {id(r): r for r in constructions}.values()
    first = statistics.median(d[0] for d in lpoly) if lpoly else 0.0
    metrics = {
        "lfunc.compute_lpolynomial.first_s": first,
        "lfunc.compute_lpolynomial.per_modulus_ms": 1e3 * statistics.fmean(warm) if warm else 0.0,
        "lfunc.tangential_zeros": tangential,
        "onesided.construct_one_sided.cold_calls": len(cold),
        "onesided.lp_rounds": sum(r.rounds for r in cold),
        "onesided.constraints": sum(r.constraints for r in cold),
        "onesided.repair_epsilon_max": max((r.repair_epsilon for r in cold), default=0.0),
        "onesided.certified_margin_min": min((r.certified_margin for r in cold), default=0.0),
        "bounds.ensemble_scan.parallel_speedup": 0.0,
        **{f"bounds.min_soundness_margin.{t}": 0.0 for t in TARGET_TAGS},
    }
    metrics.update({f"{name}.self_s": total(name, "self_s") for name in SELF_S})
    metrics.update({f"{name}.calls": int(total(name, "calls")) for name in CALLS})
    metrics.update(extra)
    return metrics


def write_spans(path: str, span_lists: list[list]) -> None:
    """All spans, one list per traced process: [name, start, end, parent]."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(span_lists, fh)


def main(argv: list[str]) -> int:
    role = argv[0]
    if role == "lpoly-traced":
        emit(lpoly_traced(argv[1:]))
        return 0
    wl = workloads()[argv[1]]
    seed = int(argv[2])
    scan = isinstance(wl, Scan)
    if role == "work":
        part, first = int(argv[4]), int(argv[5])
        emit((scan_work if scan else lpoly_work)(wl, seed, float(argv[3]), part, first))
    elif role == "trace":
        emit((scan_trace if scan else lpoly_trace)(wl, seed, argv[3]))
    else:
        raise SystemExit(f"unknown role {role!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
