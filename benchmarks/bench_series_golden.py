"""Golden pin of every paper-figure series.

``series_golden.json`` holds every series the figure suite asserts on,
that is each ``repro.experiments`` figure ``run()``, together with the
scale it was recorded at.  The per-figure files assert the paper's
shapes; this file pins the numbers they read, so a change that moves a
series without flipping a verdict still shows.  Fig. 10, whose shape
assert fails today, is pinned too.

Floats compare exactly (JSON round-trips a Python float bit for bit).
At any other ``REPRO_*`` scale the check does not apply and skips,
naming both scales.  To re-record after a deliberate change, at the
suite's default scale::

    PYTHONPATH=src python -m benchmarks.bench_series_golden --record
"""

import dataclasses
import functools
import json
import sys
from pathlib import Path

import pytest

from benchmarks.conftest import bench_scale_from_env
from repro.experiments import acceptance, fig4, fig7, fig8, fig9, fig10
from repro.experiments.common import ExperimentScale

GOLDEN = Path(__file__).with_name("series_golden.json")

#: Golden key -> the figure function computing it from a scale.
SERIES = {
    **{f"fig4/{metric}": functools.partial(fig4.run, metric)
       for metric, _ in fig4.METRICS.values()},
    "fig7a": fig7.run_7a,
    "fig7b": fig7.run_7b,
    "fig7c": fig7.run_7c,
    "fig8": fig8.run,
    "fig8/sweeps": fig8.run_sweeps,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "acceptance": acceptance.run,
}


@pytest.fixture(scope="module")
def golden(bench_scale):
    recorded = json.loads(GOLDEN.read_text())
    scale = ExperimentScale(**recorded["scale"])
    if scale != bench_scale:
        pytest.skip(f"not applicable: golden recorded at {scale}, suite runs at {bench_scale}")
    return recorded["series"]


@pytest.mark.parametrize("name", list(SERIES))
def test_series_match_golden(name, golden, bench_scale):
    assert SERIES[name](bench_scale) == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m benchmarks.bench_series_golden --record")
    scale = bench_scale_from_env()
    GOLDEN.write_text(json.dumps({
        "scale": dataclasses.asdict(scale),
        "series": {name: run(scale) for name, run in SERIES.items()},
    }, indent=1) + "\n")
