"""Figure 6: inter-token latencies across node counts (Fig. 4's grid)."""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.common import PAPER_NODE_COUNTS as NODES
from repro.experiments.fig4 import SUBFIGURES, run
from repro.util.tables import format_series

#: The Dolphin and Goliath subfigures.
TITLES = ("4a: Dolphin-70B", "4b: Goliath-120B")


def test_fig6_itl(benchmark, bench_scale):
    itl, speed = run_once(
        benchmark, lambda: (run("itl", bench_scale), run("generation_speed", bench_scale))
    )
    print()
    for title in TITLES:
        print(format_series("nodes", list(NODES), itl[title],
                            title=f"Figure 6 ({title}) — ITL", unit="seconds"))

    for title in TITLES:
        label = SUBFIGURES[title][0][1]
        names = ("Iter.", f"Spec. ({label})", f"Pipe. ({label})")
        # The paper's check: ITL trends mirror generation speed.
        for name in names:
            for gap, tps in zip(itl[title][name], speed[title][name]):
                assert gap == pytest.approx(1.0 / tps, rel=0.15)
        # PipeInfer has the lowest ITL at depth for both pairs.
        it, spec, pipe = (itl[title][name] for name in names)
        assert pipe[1] < spec[1]
        assert pipe[1] < it[1]
    # Well-aligned speculation beats iterative; at Goliath's 52% acceptance
    # the baseline's ITL sits at or above iterative (paper Fig. 4b shows
    # the same collapse).
    dolphin = itl["4a: Dolphin-70B"]
    assert dolphin["Spec. (TinyLlama)"][1] < dolphin["Iter."][1]
