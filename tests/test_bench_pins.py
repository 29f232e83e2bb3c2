"""The package names that the benchmark's layer probes pin: a deleted
or renamed one fails here, not only in the benchmark's smoke run."""

from pathlib import Path

from normality_lab import sysfile

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _layers(monkeypatch):
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
