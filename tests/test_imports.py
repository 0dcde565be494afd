"""Every name a library module imports is referenced in that module, every
script imports, and importing the package stays light."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "hyperell").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_flags_an_unused_import():
    source = "import math\nimport os\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    assert unused_imports(source) == ["math (line 1)", "dumps (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    # a script reaching for a library name that was renamed or removed
    # fails here, not only when someone next runs it
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_scan_loads_neither_process_pools_nor_masked_arrays():
    # the fork pool's executor and numpy.ma cost tens of ms of every cold
    # start; a one-modulus scan (which certifies constructions) needs neither
    src = str(ROOT / "src")
    code = (
        "import sys, hyperell\n"
        "hyperell.ensemble_scan(hyperell.ScanConfig(q=3, d=5, sample='random:1'))\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'numpy.ma') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lpoly_loads_only_the_lfunction_layer():
    # an lpoly request never touches the bound layer, so compiling and
    # importing it would only delay the answer
    src = str(ROOT / "src")
    code = (
        "import contextlib, io, sys\n"
        "from hyperell import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['lpoly', '--q', '3', '--D', 'x^11+2x+1']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hyperell'))\n"
    )
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(sorted([
        "hyperell", "hyperell.cli", "hyperell.errors", "hyperell.fqpoly",
        "hyperell.charsum", "hyperell.lfunc",
    ]))


def test_package_namespace():
    import hyperell

    for module, names in hyperell._EXPORTS.items():
        defining = importlib.import_module(f"hyperell.{module}")
        for name in names:
            assert getattr(hyperell, name) is getattr(defining, name), name
    namespace = {}
    exec("from hyperell import *", namespace)
    assert set(hyperell.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        hyperell.nope
    namespace = {}
    exec("from hyperell import onesided", namespace)
    assert namespace["onesided"] is importlib.import_module("hyperell.onesided")


def test_benchmark_calls_resolve(monkeypatch):
    # the benchmark builds scan configs and counts repeated zeros through
    # the library's public names and keywords; one that is removed or
    # renamed fails here, not only in the next benchmark run
    from hyperell import Character, FieldSpec, Poly, compute_lpolynomial, find_zero_angles

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import probe
    import workloads

    scans = [wl for wl in workloads.workloads().values() if isinstance(wl, workloads.Scan)]
    assert scans
    for wl in scans:
        config = wl.config(0)
        assert (config.q, config.d, config.threads) == (wl.q, wl.d, wl.threads)
    # an F_3 H_7 modulus whose L-polynomial has a double zero
    D = Poly.make(FieldSpec(3), (1, 2, 1, 1, 0, 0, 0, 1))
    zeros = find_zero_angles(compute_lpolynomial(Character(D)))
    assert probe.count_tangential([zeros]) == 1
