"""Workload definitions shared by the runner, the probes and the reference
generator.  Everything a run scans or requests is derived from its seed.

scan-q3d7    batches of ``random:B`` samples of F_3 H_7 at one worker.  The
             whole of H_7 (1,458 moduli) is in the reference, so any seed
             works: batch i uses ``ScanConfig.seed = seed * 1000 + i``.
scan-q3d11   batches of ``random:B`` samples of F_3 H_11 at ``nproc``
             workers.  H_11 is too large for a complete reference, so the
             batch seeds come from a fixed pool 0..POOL_SEEDS-1 whose samples
             the reference holds; the run seed picks their order.
lpoly-q3d11  one ``hyperell lpoly`` process per request, one at a time (a
             closed loop with a single client).  The moduli come from the
             first LPOLY_POOL moduli of the scan-q3d11 pool, in an order the
             seed picks.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TARGETS = ("logmod", "s:0", "s:1", "s:2")
GRID = 2**14
POLICY = "exhaustive"
POOL_SEEDS = 64  # scan-q3d11 batch seeds held by the reference
LPOLY_POOL = 128  # moduli held by the lpoly reference


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every process the benchmark starts: the library comes
    from this checkout's source tree, and the worker count only from the
    explicit ``threads`` of each scan."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("HYPERELL_THREADS", None)
    return env


@dataclass(frozen=True)
class Scan:
    name: str
    q: int
    d: int
    batch: int  # moduli per ensemble_scan call
    threads: int
    trace_batches: int  # batches in each pass of the traced run
    pooled: bool  # batch seeds drawn from the reference pool

    def batch_seed(self, seed: int, i: int) -> int:
        if self.pooled:
            order = random.Random(seed).sample(range(POOL_SEEDS), POOL_SEEDS)
            return order[i % POOL_SEEDS]
        return seed * 1000 + i

    def config(self, batch_seed: int, threads: int | None = None, count: int | None = None):
        from hyperell import ScanConfig

        return ScanConfig(
            q=self.q,
            d=self.d,
            targets=TARGETS,
            sample=f"random:{self.batch if count is None else count}",
            seed=batch_seed,
            policy=POLICY,
            grid_size=GRID,
            threads=self.threads if threads is None else threads,
        )


@dataclass(frozen=True)
class Lpoly:
    name: str
    q: int
    d: int
    trace_requests: int

    def moduli(self, pool: list[str], seed: int) -> list[str]:
        """The request sequence: the pool in a seeded order."""
        return random.Random(seed).sample(pool, len(pool))


def workloads() -> dict:
    return {
        w.name: w
        for w in (
            Scan("scan-q3d7", 3, 7, batch=10, threads=1, trace_batches=8, pooled=False),
            Scan("scan-q3d11", 3, 11, batch=6, threads=nproc(), trace_batches=4, pooled=True),
            Lpoly("lpoly-q3d11", 3, 11, trace_requests=5),
        )
    }
