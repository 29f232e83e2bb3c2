"""The package names that the benchmark's layer probes pin: a deleted
or renamed one fails here, not only in the benchmark's smoke run."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from normality_lab import sysfile

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _layers(monkeypatch):
    # the layer probes' calibration kernel runs scipy's solve_ivp
    pytest.importorskip("scipy.integrate")
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    return layers


def test_every_traced_name_is_a_callable(monkeypatch):
    layers = _layers(monkeypatch)
    for module, names in layers.TRACED.items():
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)


def test_the_benchmark_reads_the_shift_options_the_cli_reads(monkeypatch):
    assert set(_layers(monkeypatch).SHIFT_OPTIONS) == set(sysfile.SHIFT_OPTIONS)


def test_the_benchmark_probes_the_shift_run_the_cli_integrates(monkeypatch,
                                                               tmp_path):
    # the per-layer shift probe builds its run as the CLI's does, from
    # every [surface] fixture and every seed-7 shift-fronts file, and a
    # document whose components the traced runs replace builds its run
    # from the new ones
    layers = _layers(monkeypatch)
    import workloads
    specs, _ = workloads.write_workload("shift-fronts", 7, str(tmp_path))
    docs = [sysfile.read_system_file(str(tmp_path / f"{spec.name}.system"))
            for spec in specs]
    assert all(doc.surface is not None for doc in docs)
    docs += [doc for doc in map(sysfile.read_system_file, sorted(
        (BENCH.parent / "tests" / "fixtures").glob("*.system")))
        if doc.surface is not None]
    for doc in docs:
        assert layers._shift_run(doc) == doc.shift
        counted = layers.counting_reader([0])(lambda path: doc)(doc.path)
        assert counted.shift.surface == counted.surface != doc.surface
        assert layers._shift_run(counted) == counted.shift


def _package_reads(tree):
    """(binding, attribute) of every `<name>.<attr>` and `self.<name>.<attr>`
    where name is bound by an import from the package, and the objects
    the imports bind. Code held in string constants (a probe that a
    fresh interpreter runs) is searched for imports too."""
    bound = {}
    snippets = [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.search(r"^(from|import) normality_lab", node.value, re.M):
            snippets.append(ast.parse(node.value))
    for snippet in snippets:
        for node in ast.walk(snippet):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name, importlib.import_module(a.name))
                             for a in node.names
                             if a.name.startswith("normality_lab"))
            elif isinstance(node, ast.ImportFrom) and \
                    (node.module or "").startswith("normality_lab"):
                module = importlib.import_module(node.module)
                for a in node.names:
                    assert hasattr(module, a.name), (node.module, a.name)
                    bound[a.asname or a.name] = getattr(module, a.name)
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            name = getattr(base, "id", None) or getattr(base, "attr", None)
            if name in bound:
                reads.append((name, node.attr))
    return bound, reads


@pytest.mark.parametrize("script", ["layers.py", "run.py"])
def test_every_package_name_the_benchmark_reads_resolves(script):
    bound, reads = _package_reads(ast.parse((BENCH / script).read_text()))
    assert "cli" in bound and reads
    for name, attr in reads:
        assert hasattr(bound[name], attr), (script, f"{name}.{attr}")
