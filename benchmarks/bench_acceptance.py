"""Acceptance-rate calibration against Section V-B's reported rates."""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.acceptance import COLUMNS, run
from repro.util.tables import format_series


def test_acceptance_calibration(benchmark, bench_scale):
    rows = run_once(benchmark, lambda: run(bench_scale))
    print()
    print(format_series("pair", COLUMNS, rows, title="Acceptance calibration"))
    for key, (paper, measured, _) in rows.items():
        assert measured == pytest.approx(paper, abs=0.09), key
    # Ordering between pairs is preserved.
    assert rows["goliath+xwin7b"][1] < rows["dolphin+tinyllama"][1]
