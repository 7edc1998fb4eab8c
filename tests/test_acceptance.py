"""Acceptance gate: every criterion runs at its stated trial budget and
tolerance, printing one PASS/FAIL line.

These are the binding checks; run with `pytest -v -s tests/test_acceptance.py`
to watch the lines as they complete, or `secgraph selftest` for the same
battery outside pytest.  Measured on a 2-vCPU VM at 2 threads, the full set
takes about 38 s: `neutralization` 25 s, `thread_determinism` 3-4 s,
`fading_invariance` 3 s, `isolation_ordering` and `voronoi_moments` 1-2 s
each, and every other criterion under 1 s.  The shared host can move any of
these by 20% or more.
"""

import os
from pathlib import Path

import pytest

from secgraph import acceptance, montecarlo

THREADS = min(os.cpu_count() or 1, 4)


@pytest.mark.parametrize("name", list(acceptance.CRITERIA))
def test_criterion(name, capsys):
    (result,) = acceptance.run_all(THREADS, [name])
    line = f"{'PASS' if result.passed else 'FAIL'}  {name:<26s} [{result.seconds:7.2f}s]  {result.detail}"
    with capsys.disabled():
        print(line)
    assert result.passed, result.detail


def test_thread_determinism_forces_the_pool(monkeypatch):
    # every CLI run of the criterion sees the hook set, and it is restored
    # afterwards, also when a run raises
    seen = []

    def fake_main(argv):
        seen.append(montecarlo.FORCE_POOL)
        Path(argv[argv.index("--out") + 1]).write_text("same")
        return 0

    monkeypatch.setattr(acceptance.cli, "main", fake_main)
    passed, _ = acceptance.thread_determinism(1)
    assert passed and len(seen) == 40 and all(seen)
    assert montecarlo.FORCE_POOL is False

    def failing_main(argv):
        raise RuntimeError("run failed")

    monkeypatch.setattr(acceptance.cli, "main", failing_main)
    with pytest.raises(RuntimeError):
        acceptance.thread_determinism(1)
    assert montecarlo.FORCE_POOL is False
