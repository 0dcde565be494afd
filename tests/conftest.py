import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None, cwd=None):
    """Invoke the CLI in a fresh interpreter with src/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hyperell", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=600,
    )


@pytest.fixture(autouse=True)
def fresh_bound_layers():
    """Each test builds the scan bound layers it asks for: a process keeps
    every layer it built (bounds._shared_layer), and the tests that empty
    the one-sided constructions' cache expect a scan to refill it."""
    from hyperell import bounds

    bounds._shared_layer.cache_clear()
