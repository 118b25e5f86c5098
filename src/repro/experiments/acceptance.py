"""Acceptance-rate calibration check (paper Section V-B).

Runs each CPU pair through the speculative and PipeInfer engines on 8
nodes of cluster C and compares the measured per-token acceptance against
the rate the paper reports — the oracle pairs are calibrated so these
coincide.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import ExperimentScale, run_cell
from repro.models.zoo import CPU_PAIRS
from repro.util.tables import format_series

#: The columns of each pair's row in :func:`run`.
COLUMNS = ["paper", "measured (spec)", "measured (pipeinfer)"]


def run(scale: Optional[ExperimentScale] = None) -> Dict[str, List[float]]:
    """pair key -> [paper rate, speculative's measured, PipeInfer's measured]."""
    return {
        key: [pair.acceptance]
        + [run_cell(key, s, "C", 8, scale).acceptance_rate for s in ("spec", "pipe")]
        for key, pair in CPU_PAIRS.items()
    }


def main() -> None:
    print(format_series("pair", COLUMNS, run(),
                        title="Acceptance-rate calibration"))


if __name__ == "__main__":
    main()
