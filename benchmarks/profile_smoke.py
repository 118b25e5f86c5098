#!/usr/bin/env python
"""Profile the serving smoke workload; emit a cumulative-time report.

CI runs this as the ``profile-smoke`` job and uploads the report as an
artifact, so perf PRs can cite before/after profiles of the actual serving
hot path instead of guessing where time goes.  Locally:

    python benchmarks/profile_smoke.py                # top-30 to stdout
    python benchmarks/profile_smoke.py --sort tottime --top 50

Alongside the text report, a machine-readable ``profile_smoke.json`` is
written (top-N functions by cumulative time, with their percentage of
the total): ``bench_hotpath.py --check-against`` diffs a fresh profile
against the committed copy when a tracked metric regresses, turning the
artifact into a function-level triage tool.

The serving scenario is the same one the bench gate runs
(``bench_hotpath.bench_serving``): closed-loop requests through a 4-node
pipeline with cross-request draft batching and fused windows — the
workload every hot-path layer (kernel, links, transactions, scratch
arenas) sits under.  One un-profiled warm-up run precedes the measured
one so allocator and import costs don't pollute the report.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_hotpath import bench_serving  # noqa: E402


def _func_label(filename: str, lineno: int, name: str) -> str:
    """Host-portable ``file:line(func)`` label for one pstats entry.

    Repo files are rendered relative to the repo root so committed and
    freshly-generated profiles match across machines; stdlib paths and
    built-ins keep pstats' native spelling.
    """
    try:
        filename = str(Path(filename).resolve().relative_to(REPO_ROOT))
    except ValueError:
        pass
    return f"{filename}:{lineno}({name})"


def _profile_once(smoke: bool):
    """One warm-up run, then one profiled run; returns (profiler, outcome)."""
    bench_serving(smoke)  # warm-up: imports, allocator, BLAS thread pools
    profiler = cProfile.Profile()
    profiler.enable()
    outcome = bench_serving(smoke)
    profiler.disable()
    return profiler, outcome


def _entries(profiler, top: int = 0):
    """Profile rows sorted by cumulative time, as plain dicts.

    ``pct`` is the entry's cumulative time over the run's total time, the
    number the regression triage in ``bench_hotpath.check_against``
    compares.  ``top=0`` returns every entry.
    """
    stats = pstats.Stats(profiler)
    total = stats.total_tt
    rows = [
        {
            "func": _func_label(filename, lineno, name),
            "ncalls": nc,
            "tottime": round(tt, 6),
            "cumtime": round(ct, 6),
            "pct": round(100.0 * ct / total, 2) if total else 0.0,
        }
        for (filename, lineno, name), (_cc, nc, tt, ct, _callers)
        in stats.stats.items()
    ]
    rows.sort(key=lambda r: r["cumtime"], reverse=True)
    return rows[:top] if top else rows


def profile_entries(smoke: bool = True, top: int = 0):
    """Profile one serving run and return its entry rows (triage API)."""
    profiler, _ = _profile_once(smoke)
    return _entries(profiler, top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--top", type=int, default=30, metavar="N",
                        help="number of entries in the report (default 30)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--out", default=None, metavar="TXT",
                        help="also write the report to this file")
    parser.add_argument("--json", default=str(REPO_ROOT / "profile_smoke.json"),
                        metavar="JSON",
                        help="machine-readable output path (top-N cumulative "
                             "functions with pct; default profile_smoke.json "
                             "at the repo root)")
    parser.add_argument("--dump", default=None, metavar="PROF",
                        help="also dump raw pstats data (for snakeviz etc.)")
    parser.add_argument("--full", action="store_true",
                        help="profile the full-size serving run instead of "
                             "the CI smoke size")
    args = parser.parse_args(argv)

    smoke = not args.full
    profiler, outcome = _profile_once(smoke)
    tokens_per_sec, max_fusion, max_draft, resumes_per_msg = outcome

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats(args.sort).print_stats(args.top)
    header = (
        f"serving {'smoke' if smoke else 'full'} under cProfile: "
        f"{tokens_per_sec:.1f} tokens/s (profiled), "
        f"fusion width {max_fusion}, draft batch width {max_draft}, "
        f"{resumes_per_msg:.3f} resumes/message\n"
        f"top {args.top} by {args.sort}\n\n"
    )
    report = header + buf.getvalue()
    print(report)
    if args.out:
        Path(args.out).write_text(report)
        print(f"wrote {args.out}")
    if args.json:
        doc = {
            "workload": "smoke" if smoke else "full",
            "tokens_per_sec_profiled": round(tokens_per_sec, 2),
            "resumes_per_message": round(resumes_per_msg, 4),
            "entries": _entries(profiler, args.top),
        }
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"wrote {args.dump}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
