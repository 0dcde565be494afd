"""In-memory span recorder that wraps public functions at the bindings their
callers use.

``hyperell.bounds`` imports names directly (``from .lfunc import
compute_lpolynomial``), so a function is wrapped in every module that calls
it by its imported name.  Each span is ``[name, start, end, parent]`` with
``parent`` the index of the enclosing span, or -1.  The untraced runs never
import this module.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name); "module:Class" patches a method on the class.
BINDINGS = (
    ("hyperell.bounds", "ensemble_scan", "bounds.ensemble_scan"),
    ("hyperell.bounds", "sample_moduli", "fqpoly.sample_moduli"),
    ("hyperell.charsum:Character", "__init__", "charsum.Character"),
    ("hyperell.charsum:Character", "coefficient_sum", "charsum.Character"),
    ("hyperell.bounds", "compute_lpolynomial", "lfunc.compute_lpolynomial"),
    ("hyperell.cli", "compute_lpolynomial", "lfunc.compute_lpolynomial"),
    ("hyperell.bounds", "find_zero_angles", "lfunc.find_zero_angles"),
    ("hyperell.cli", "find_zero_angles", "lfunc.find_zero_angles"),
    ("hyperell.cli", "rh_radius_error", "lfunc.rh_radius_error"),
    ("hyperell.bounds", "power_sum", "lfunc.power_sum"),
    ("hyperell.bounds", "empirical_extrema", "bounds.empirical_extrema"),
    ("hyperell.bounds", "log_modulus", "argfunc.log_modulus"),
    ("hyperell.bounds", "argument_sum", "argfunc.argument_sum"),
    ("hyperell.bounds", "jump_limits", "argfunc.jump_limits"),
    ("hyperell.bounds", "choose_degree", "bounds.choose_degree"),
    ("hyperell.bounds", "rigorous_bound", "bounds.rigorous_bound"),
    ("hyperell.bounds", "s0_bound_interval_method", "bounds.s0_bound_interval_method"),
    ("hyperell.bounds", "interval_polys", "onesided.interval_polys"),
    ("hyperell.bounds", "construct_one_sided", "onesided.construct_one_sided"),
    ("hyperell.onesided", "construct_one_sided", "onesided.construct_one_sided"),
    ("hyperell.onesided", "solve_inequality_lp", "simplex.solve_inequality_lp"),
    ("hyperell.cli", "rows_to_csv", "cli.rows_to_csv"),
    ("hyperell.cli", "git_describe", "cli.git_describe"),
    ("hyperell.cli", "main", "cli.main"),
)
# spans whose return values are kept for the counts read from them
KEEP_RESULTS = ("lfunc.find_zero_angles", "onesided.construct_one_sided")


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.results: dict[str, list] = {name: [] for name in KEEP_RESULTS}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        self.missing = []
        originals = []
        for path, attr, name in BINDINGS:
            owner = _owner(path)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            originals.append((owner, attr, name, original))
        for owner, attr, name, original in originals:
            setattr(owner, attr, self._wrap(original, name))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, original, name: str):
        spans, stack = self.spans, self._stack
        kept = self.results.get(name)
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return traced


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, self seconds (duration minus direct children)
    and the durations of every call in order."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _), inner in zip(spans, child):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += end - start - inner
        entry["durations"].append(end - start)
    return out


def covered_s(spans: list[list]) -> float:
    """Wall time inside root spans (spans without a parent)."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
