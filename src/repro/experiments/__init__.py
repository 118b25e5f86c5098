"""Experiment harnesses: one definition per paper figure/table.

Each module's ``run()`` returns its figure's series, which the figure
suite (``benchmarks/``) asserts on and pins in one golden; ``main()``
prints them::

    python -m repro.experiments.fig4        # Figs. 4-6: one grid; speed, TTFT, ITL
    python -m repro.experiments.fig7        # Fig. 7a-c: memory, TTFT on A, clusters A/B
    python -m repro.experiments.fig8        # Fig. 8 ablations (run_sweeps: extensions)
    python -m repro.experiments.fig9        # also fig10, acceptance, tables

``run_cell`` computes each cell once per process, so Figs. 5, 6, 7a, 8
and the acceptance check read Fig. 4's grid.  Scale knobs (environment):
``REPRO_TOKENS`` (generated tokens per run, default 160), ``REPRO_REPS``
(repetitions averaged, default 3; the paper used 512 tokens x 10 reps).
"""

from repro.experiments.common import ExperimentScale, run_cell, scale_from_env

__all__ = ["ExperimentScale", "run_cell", "scale_from_env"]
