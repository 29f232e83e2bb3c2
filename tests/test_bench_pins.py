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
