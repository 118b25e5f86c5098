"""Benchmark-suite configuration.

Each ``bench_<id>`` module checks one paper artifact: it calls that
figure's ``repro.experiments`` ``run()`` at benchmark scale, asserts the
paper's qualitative shape, prints the series (captured with ``-s``), and
registers the simulation wall-time with pytest-benchmark.  The series
come from one definition, and ``run_cell`` computes each cell once per
process, so Figs. 5, 6, 7a, 8 and the acceptance check reuse Fig. 4's
grid.  ``bench_series_golden.py`` pins every series' value in
``series_golden.json``.

Scale: benchmarks default to short generations so the whole suite stays
in CI budgets; set ``REPRO_TOKENS=512 REPRO_REPS=10`` to reproduce the
paper's full scale (the golden then reports itself not applicable).
"""

import os

import pytest

from repro.experiments.common import ExperimentScale


def bench_scale_from_env() -> ExperimentScale:
    """The suite's scale: ``REPRO_TOKENS``/``REPRO_REPS``/``REPRO_PROMPT``,
    defaulting to 96 tokens, one repetition and a 128-token prompt."""
    return ExperimentScale(
        n_generate=int(os.environ.get("REPRO_TOKENS", "96")),
        reps=int(os.environ.get("REPRO_REPS", "1")),
        prompt_len=int(os.environ.get("REPRO_PROMPT", "128")),
    )


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    return bench_scale_from_env()


def run_once(benchmark, fn):
    """Register ``fn``'s single execution with pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
