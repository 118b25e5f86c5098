"""Run the benchmark and print every metric by name, with its unit.

    python3 bench/run.py                                    # all four workloads
    python3 bench/run.py --workload chat_open --seed 3 --seconds 20
    python3 bench/run.py --workload chat_open --trace 1     # per-layer metrics
    python3 bench/run.py --compare PARENT.json CHANGE.json

An untraced run takes ``round(seconds / 5)`` samples of a workload.  Each
sample is a fresh process (``bench/sample.py``) with one BLAS/OpenMP
thread, running one instance whose seed derives from ``--seed`` and the
sample index, so a run's work depends only on ``--seed`` and ``--seconds``.
Host metrics are medians over samples; simulated metrics pool every
sample's observations.  Every generated token is then checked against
the greedy reference, outside every timed region.

A traced run (``--trace 1``) takes one untraced and one traced sample of
the same instance, requires both to produce identical tokens and
simulated observations, and reports the per-layer metrics and the
tracer's overhead.  It writes the kept spans as Chrome trace-event JSON
to ``bench/out/trace-<workload>.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
any output is wrong or any sample failed.  The full result, with every
sample, goes to ``--out`` (default ``bench/out/<workload>[-trace].json``),
which ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import stats, workloads  # noqa: E402
from bench.layers import PER_LAYER  # noqa: E402

BENCH = ROOT / "bench"
OUT = BENCH / "out"

#: Nominal seconds one sample takes; a run of ``--seconds`` takes
#: ``round(seconds / SAMPLE_SECONDS)`` samples.
SAMPLE_SECONDS = 5.0

#: A sample that runs longer than this is killed and counts as failed.
SAMPLE_TIMEOUT = 150.0

#: Samples run single-threaded: the load is one process on one core.
THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: What a traced sample must reproduce of its untraced twin, exactly.
SIM_FIELDS = ("outputs", "speeds", "ttfts", "gaps", "speedups", "slo", "faults")

#: The end-to-end metrics, in report order (units and bounds live in
#: BENCHMARK.json).
END_TO_END = (
    "host_tokens_per_s", "setup_s", "host_peak_rss_mb", "sim_tokens_per_s",
    "sim_ttft_mean_s", "sim_ttft_tail_s", "sim_itl_mean_s", "sim_itl_tail_s",
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def sub_seed(seed: int, index: int) -> int:
    """The instance seed of sample ``index`` of a run seeded ``seed``."""
    return seed * 1000 + index


def spawn(workload: str, seed: int, trace: bool) -> Tuple[Optional[dict], str]:
    """Run one sample in a fresh process: ``(payload, "")``, or ``(None, error)``."""
    cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "--chrome", str(OUT / f"trace-{workload}.json")]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **THREADS_ENV},
            capture_output=True, text=True, timeout=SAMPLE_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, f"sample seed={seed} ran past {SAMPLE_TIMEOUT:.0f} s"
    if proc.returncode != 0:
        return None, f"sample seed={seed} exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def check(workload: str, inputs: list, samples: List[Optional[dict]]):
    """Check every sample's tokens against the greedy reference.

    A request fails when its tokens differ from the reference or fall
    short of its budget; every request of a crashed sample (None) fails.
    Returns ``(phases, failed)``: phase -> [attempted, failed], and the
    ``(sample index, request key)`` pairs that failed.
    """
    phases: Dict[str, List[int]] = {}
    failed: Set[Tuple[int, str]] = set()
    for i, (given, sample) in enumerate(zip(inputs, samples)):
        ref = workloads.reference(workload, given)
        outputs = sample["outputs"] if sample else {}
        for key, (ref_key, phase) in workloads.expected(workload, given).items():
            bad = outputs.get(key) != ref[ref_key]
            row = phases.setdefault(phase, [0, 0])
            row[0] += 1
            row[1] += bad
            if bad:
                failed.add((i, key))
    return phases, failed


def summarize(values: List[float]) -> dict:
    q1, med, q3 = stats.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def end_to_end(samples: List[dict]) -> Dict[str, dict]:
    """Every end-to-end metric of a run, with its samples and quartiles.

    Simulated latencies are reported as a mean and a tail, not a median:
    the oracle's simulated timings are quantized, so on the open-loop
    workloads most requests share one exact TTFT and the median does not
    move with the seed or with most changes.
    """
    ttfts = [t for s in samples for t in s["ttfts"]]
    gaps = [g for s in samples for g in s["gaps"]]
    ttft_level, ttft_tail = stats.tail(ttfts)
    itl_level, itl_tail = stats.tail(gaps)
    values = {
        "host_tokens_per_s": [
            sum(len(t) for t in s["outputs"].values()) / s["host_s"] for s in samples
        ],
        "setup_s": [s["setup_s"] for s in samples],
        "host_peak_rss_mb": [s["rss_mb"] for s in samples],
        "sim_tokens_per_s": [stats.geomean([v for s in samples for v in s["speeds"]])],
        "sim_ttft_mean_s": [statistics.fmean(ttfts)],
        "sim_ttft_tail_s": [ttft_tail],
        "sim_itl_mean_s": [statistics.fmean(gaps)],
        "sim_itl_tail_s": [itl_tail],
    }
    out = {name: summarize(vals) for name, vals in values.items()}
    out["sim_ttft_tail_s"]["note"] = f"p{ttft_level:g} of {len(ttfts)}"
    out["sim_itl_tail_s"]["note"] = f"p{itl_level:g} of {len(gaps)}"
    return out


def extras(workload: str, inputs, samples, failed) -> Dict[str, float]:
    """Informational quantities that exist on one workload only."""
    if workload == "single_paper":
        ups = [u for s in samples for u in s["speedups"]]
        return {"sim_speedup_vs_spec": stats.geomean(ups), "sim_speedup_vs_spec_max": max(ups)}
    if workload == "faulty_edge":
        return {key: sum(s["faults"][key] for s in samples) for key in samples[0]["faults"]}
    if workload != "chat_open":
        return {}
    # The rate ladder: a request with wrong tokens counts as missing its SLO.
    rungs: Dict[float, list] = {}
    for i, (given, sample) in enumerate(zip(inputs, samples)):
        for key in workloads.expected(workload, given):
            lat = sample["slo"][key] if (i, key) not in failed else None
            rate = float(key.split("/")[0]) * workloads.CHAT_TURNS
            rungs.setdefault(rate, []).append(lat)
    slo = (workloads.TTFT_SLO, workloads.ITL_SLO)
    out = {"sim_capacity_rps": stats.capacity(rungs, *slo)}
    out.update(
        (f"slo_met_share@{rate:g}rps", stats.met_share(reqs, *slo))
        for rate, reqs in sorted(rungs.items())
    )
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Samples, correctness checks and metrics of one workload."""
    if trace:
        seeds = [sub_seed(seed, 0)] * 2
        flags: Tuple[bool, ...] = (False, True)
    else:
        seeds = [sub_seed(seed, k) for k in range(max(1, round(seconds / SAMPLE_SECONDS)))]
        flags = (False,) * len(seeds)
    outcomes = [spawn(workload, s, traced) for s, traced in zip(seeds, flags)]
    samples = [payload for payload, _ in outcomes]
    problems = [error for _, error in outcomes if error]
    inputs = [workloads.PREPARE[workload](seed) for seed in seeds]
    phases, failed = check(workload, inputs, samples)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": sum(row[0] for row in phases.values()), "failed": len(failed),
        "phases": phases, "problems": problems,
    }
    if None in samples:
        return result
    if workload == "faulty_edge" and not all(
        s["faults"]["retransmits"] > 0 and s["faults"]["reprefilled_tokens"] > 0 for s in samples
    ):
        problems.append("faulty_edge: a sample saw no retransmit or no re-prefill")
    if trace:
        plain, traced = samples
        diverged = [f for f in SIM_FIELDS if plain[f] != traced[f]]
        if diverged:
            problems.append(f"traced sample diverged from the untraced one in {diverged}")
        if traced["unused_probes"]:
            problems.append(f"probes recorded no call: {traced['unused_probes']}")
        layer = dict(traced["layer"])
        layer["trace.overhead_frac"] = traced["host_s"] / plain["host_s"] - 1.0
        result["per_layer"] = layer
        return result
    result["metrics"] = end_to_end(samples)
    result["extras"] = extras(workload, inputs, samples, failed)
    return result


def print_result(result: dict, units: Dict[str, str]) -> None:
    print(
        f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"attempted {result['attempted']}  failed {result['failed']}"
    )
    phases = result["phases"]
    for phase, (attempted, failed) in sorted(phases.items()):
        if failed or len(phases) <= 8:
            print(f"   phase {phase:<28} attempted {attempted:>4}  failed {failed}")
    for name, row in result.get("metrics", {}).items():
        print(
            f"   {name:<22} {units[name]:<10} median {row['median']:>12.6g}  "
            f"q1 {row['q1']:>12.6g}  q3 {row['q3']:>12.6g}  n {row['n']}"
            + (f"  ({row['note']})" if "note" in row else "")
        )
    for name, value in result.get("extras", {}).items():
        print(f"   {name:<30} {value:.6g}  (informational)")
    for name, value in result.get("per_layer", {}).items():
        print(f"   {name:<48} {units[name]:<6} {value:.6g}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")


def final_line(results: List[dict], units: Dict[str, str]) -> dict:
    """The one-line JSON summary; metric names gain a workload prefix
    when several workloads ran."""
    prefix = len(results) > 1
    metrics = {}
    for r in results:
        rows = {name: row["median"] for name, row in r.get("metrics", {}).items()}
        rows.update(r.get("per_layer", {}))
        for name, value in rows.items():
            key = f"{r['workload']}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    return {
        "correct": all(r["failed"] == 0 and not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def compare(parent_path: str, change_path: str, spec: dict) -> int:
    """One row per workload and end-to-end metric; non-zero when any is worse."""
    parent = {r["workload"]: r for r in json.loads(Path(parent_path).read_text())["results"]}
    change = {r["workload"]: r for r in json.loads(Path(change_path).read_text())["results"]}
    worse = 0
    print(f"{'workload':<18} {'metric':<22} {'parent median [q1, q3] n':<40} "
          f"{'change median [q1, q3] n':<40} verdict")
    for workload in [w for w in parent if w in change]:
        p, c = parent[workload], change[workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in p.get("metrics", {}) or name not in c.get("metrics", {}):
                print(f"{workload:<18} {name:<22} missing on one side")
                worse += 1
                continue
            pr, cr = p["metrics"][name], c["metrics"][name]
            verdict = stats.verdict(pr["samples"], cr["samples"], m["better"], m["bound"])
            worse += verdict == "worse"
            print(f"{workload:<18} {name:<22} {_cell(pr):<40} {_cell(cr):<40} {verdict}")
        verdict = "worse" if c["failed"] > p["failed"] else "within bound"
        worse += verdict == "worse"
        print(f"{workload:<18} {'failed':<22} {p['failed']:<40} {c['failed']:<40} {verdict}")
    return 1 if worse else 0


def _cell(row: dict) -> str:
    return f"{row['median']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}] {row['n']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                        help="one workload (default: all four, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="result JSON path")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), default=None)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    computed = set(END_TO_END) | set(PER_LAYER)
    if set(units) != computed:
        raise SystemExit(f"BENCHMARK.json and bench/ disagree on metrics: {set(units) ^ computed}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace))
        print_result(result, units)
        results.append(result)
    out = Path(args.out) if args.out else OUT / (
        f"{args.workload or 'all'}{'-trace' if args.trace else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"results": results}, indent=1) + "\n")
    summary = final_line(results, units)
    if all("metrics" in r or "per_layer" in r for r in results):
        print(json.dumps(summary))
    else:
        print(f"FAILED: a sample did not finish; see {out}")
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
