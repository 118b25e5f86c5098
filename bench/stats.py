"""Summary statistics the benchmark reports and compares."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

from repro.metrics.percentiles import percentile

#: Candidate tail percentiles, highest first.  p99.9 is left out: on the
#: oracle workloads it lands on a handful of prefill stalls whose length
#: is the same for every seed.
TAIL_LEVELS = (99.0, 90.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail_level(n: int) -> float:
    """The highest of :data:`TAIL_LEVELS` with at least ten of ``n`` samples
    beyond it.

    Fewer than a hundred samples support no tail at all; the median is
    reported in its place.
    """
    for level in TAIL_LEVELS:
        if n * (100.0 - level) >= 100.0 * MIN_BEYOND:
            return level
    return 50.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(level, value)`` of the highest percentile ``values`` support."""
    level = tail_level(len(values))
    return level, percentile(values, level)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def met_share(
    reqs: Sequence[Optional[Tuple[float, float]]], ttft_slo: float, itl_slo: float
) -> float:
    """Share of attempted requests that met both SLOs.

    One entry per attempted request: ``(ttft, mean_itl)``, or None for a
    request that failed, which misses.
    """
    met = sum(1 for r in reqs if r is not None and r[0] <= ttft_slo and r[1] <= itl_slo)
    return met / len(reqs) if reqs else 0.0


def capacity(
    rungs: Dict[float, Sequence[Optional[Tuple[float, float]]]],
    ttft_slo: float,
    itl_slo: float,
    share: float = 0.9,
) -> float:
    """Highest offered rate at which ``share`` of attempted requests meet SLO.

    ``rungs`` maps an offered rate to its requests as :func:`met_share`
    takes them.  Returns 0.0 when no rung meets the share.
    """
    rates = [rate for rate, reqs in rungs.items() if met_share(reqs, ttft_slo, itl_slo) >= share]
    return max(rates, default=0.0)


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> str:
    """Compare two sample sets of one metric.

    ``improved`` when the change's median beats the parent's by more than
    the parent's quartile spread; ``worse`` when it is worse by more than
    ``bound`` (a share of the parent median); ``unresolved`` when either
    side's quartile spread is wider than the bound and the samples do not
    separate; ``within bound`` otherwise.
    """
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (cmed - bmed) / abs(bmed)
    separated = (
        min(change) > max(base) if better == "higher" else max(change) < min(base)
    )
    if separated and gain * abs(bmed) > bq3 - bq1:
        return "improved"
    spread = max((bq3 - bq1) / abs(bmed), (cq3 - cq1) / abs(cmed))
    if spread > bound:
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "within bound"
