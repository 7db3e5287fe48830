"""The benchmark's golden gate passes, so a changed byte of a golden command
fails the test suite and not only a benchmark run."""

from operon import cli


def test_golden_gate_passes(bench_runner):
    assert bench_runner.golden_gate(cli) == []
