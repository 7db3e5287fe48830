"""The benchmark's golden gate passes, so a changed byte of a golden command
fails the test suite and not only a benchmark run."""

import importlib.util
import sys
from pathlib import Path

from operon import cli

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "bench" / "run.py"


def test_golden_gate_passes(monkeypatch):
    # bench/run.py puts bench/ on sys.path and imports its siblings from
    # there; keep both changes, and any bytecode, out of the rest of the run
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    siblings = ("checks", "timing", "tracer", "workloads")
    for name in siblings:
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("bench_run", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(runner)
    finally:
        for name in siblings:
            sys.modules.pop(name, None)
    # the golden commands name the bundled models relative to the repo root
    monkeypatch.chdir(ROOT)
    assert runner.golden_gate(cli) == []
