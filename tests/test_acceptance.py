"""Acceptance gate: every criterion runs at its stated trial budget and
tolerance, printing one PASS/FAIL line.

These are the binding checks; run with `pytest -v -s tests/test_acceptance.py`
to watch the lines as they complete, or `secgraph selftest` for the same
battery outside pytest.  Measured on a 2-vCPU VM at 2 threads, the full set
takes 70-90 s: `neutralization` 25-45 s, `isolation_ordering` and
`thread_determinism` about 14 s each, `voronoi_moments` 7-9 s, and every
other criterion under 4 s.
"""

import os

import pytest

from secgraph import acceptance

THREADS = min(os.cpu_count() or 1, 4)


@pytest.mark.parametrize("name", list(acceptance.CRITERIA))
def test_criterion(name, capsys):
    (result,) = acceptance.run_all(THREADS, [name])
    line = f"{'PASS' if result.passed else 'FAIL'}  {name:<26s} [{result.seconds:7.2f}s]  {result.detail}"
    with capsys.disabled():
        print(line)
    assert result.passed, result.detail
