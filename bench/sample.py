"""One benchmark sample: set up, run one workload instance, report as JSON.

``bench/run.py`` starts this script in a fresh process per sample so that
set-up time and peak memory are the sample's own.  It prints one JSON
object: the generated tokens, raw simulated observations, host seconds in
entry-point calls, set-up seconds (from ``--spawned-at``, the parent's
``time.monotonic()`` just before it started this process) and peak RSS.
With ``--trace`` the layers are probed and the per-layer metrics added.

    python bench/sample.py --workload chat_open --seed 7 --spawned-at 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--chrome", default=None, help="Chrome trace-event JSON path")
    args = parser.parse_args(argv)

    from bench import workloads

    inputs = workloads.PREPARE[args.workload](args.seed)
    tracer = None
    if args.trace:
        from bench import layers
        from bench.tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    clock = workloads.Clock(tracer)
    result = workloads.RUN[args.workload](inputs, clock)
    payload = {
        "outputs": result.outputs,
        "host_s": result.host_s,
        "setup_s": clock.first_call - args.spawned_at,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speeds": result.speeds,
        "ttfts": result.ttfts,
        "gaps": result.gaps,
        "speedups": result.speedups,
        "slo": result.slo,
        "faults": result.faults,
    }
    if tracer is not None:
        tracer.restore()
        payload["layer"] = layers.per_layer(tracer, result.layer)
        payload["unused_probes"] = layers.unused_probes(tracer, args.workload)
        if args.chrome:
            Path(args.chrome).parent.mkdir(parents=True, exist_ok=True)
            Path(args.chrome).write_text(json.dumps(tracer.chrome()))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
