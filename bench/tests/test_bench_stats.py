"""Percentile rule, SLO ladder and compare verdicts of the benchmark."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pytest  # noqa: E402

from bench.stats import capacity, met_share, quartiles, tail, tail_level, verdict  # noqa: E402


@pytest.mark.parametrize(
    "n, level",
    [(5, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (100000, 99.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, level):
    assert tail_level(n) == level


def test_tail_value_interpolates_at_its_level():
    values = [float(i) for i in range(100)]
    assert tail(values) == (90.0, pytest.approx(89.1))
    assert tail(values[:50]) == (50.0, pytest.approx(24.5))


def test_capacity_is_highest_rung_where_ninety_percent_meet_slo():
    ok, slow = (1.0, 0.5), (20.0, 0.5)
    rungs = {
        0.01: [ok] * 10,
        0.02: [ok] * 9 + [slow],
        0.03: [ok] * 8 + [slow] * 2,
    }
    assert capacity(rungs, ttft_slo=15.0, itl_slo=1.0) == 0.02


def test_failed_requests_count_as_missing_the_slo():
    # Nine fast requests and one whose output was wrong (None): 90% met.
    assert met_share([(1.0, 0.5)] * 9 + [None], 15.0, 1.0) == 0.9
    # A second failure drops the rung below the 90% share.
    rungs = {0.01: [(1.0, 0.5)] * 8 + [None, None]}
    assert capacity(rungs, 15.0, 1.0) == 0.0


def test_itl_slo_is_judged_on_the_mean_gap():
    assert met_share([(1.0, 1.5)], ttft_slo=15.0, itl_slo=1.0) == 0.0


def test_quartiles_match_statistics_quantiles_and_single_samples():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5]
    assert verdict(base, [100.2, 99.8, 100.4, 100.1], "higher", 0.05) == "within bound"
    assert verdict(base, [80.0, 81.0, 79.0, 80.5], "higher", 0.05) == "worse"
    assert verdict(base, [120.0, 121.0, 119.0, 120.5], "higher", 0.05) == "improved"
    assert verdict(base, [120.0, 121.0, 119.0, 120.5], "lower", 0.05) == "worse"
    assert verdict(base, [60.0, 140.0, 90.0, 110.0], "higher", 0.05) == "unresolved"
