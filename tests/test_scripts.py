"""The experiment scripts run end to end, and the benchmark's traced run
still finds every function it wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from karma.evaluation import read_tracks

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path):
    """Import a file outside the package under a name no other module uses."""
    name = f"_loaded_{path.parent.name}_{path.stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def run_main(monkeypatch, script: str, *args: str) -> None:
    module = load(ROOT / "scripts" / script)
    monkeypatch.setattr(sys, "argv", [script, *args])
    module.main()


def test_nasal_demo(monkeypatch, capsys, tmp_path):
    csv = tmp_path / "nasal.csv"
    run_main(monkeypatch, "run_nasal_demo.py", "--csv-out", str(csv))
    out = capsys.readouterr().out
    assert "antiformant frequency RMSE" in out and f"wrote {csv}" in out
    tracks = read_tracks(csv)
    assert tracks.n_formants == 2 and tracks.n_antiformants == 1


def test_corpus_eval(monkeypatch, capsys):
    run_main(monkeypatch, "run_corpus_eval.py", "--utterances", "1", "--duration", "1")
    out = capsys.readouterr().out
    assert out.count("mean overall") == 3 and out.count("seed 100:") == 3


@pytest.mark.parametrize("probe", load(ROOT / "bench" / "tracing.py").PROBES, ids=lambda p: p.name)
def test_bench_probe_resolves(probe):
    module = importlib.import_module(probe.module)
    assert callable(getattr(module, probe.attr, None))
