"""The outside-in tracer: self-time arithmetic, probe checks, patch scope."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pytest  # noqa: E402

from bench import tracer as tracer_mod  # noqa: E402
from bench.tracer import Tracer  # noqa: E402


def fake_clock(monkeypatch, *ticks):
    it = iter(ticks)
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: next(it))


def test_self_time_subtracts_only_direct_children(monkeypatch):
    # t0, outer [0, 10], mid [1, 7], inner [2, 5], sibling [8, 9].
    fake_clock(monkeypatch, 0.0, 0.0, 1.0, 2.0, 5.0, 7.0, 8.0, 9.0, 10.0)
    t = Tracer()
    with t.span("outer"):
        with t.span("mid"):
            with t.span("inner"):
                pass
        with t.span("inner"):
            pass
    assert t.totals["outer"] == [1, 10.0, 10.0 - 6.0 - 1.0]
    assert t.totals["mid"] == [1, 6.0, 3.0]
    assert t.totals["inner"] == [2, 4.0, 4.0]
    assert [(n, p) for n, _, _, p in t.spans] == [
        ("outer", -1), ("mid", 0), ("inner", 1), ("inner", 0)
    ]


def test_spans_past_the_keep_limit_still_count():
    t = Tracer(keep=1)
    for _ in range(3):
        with t.span("x"):
            pass
    assert t.calls("x") == 3 and t.n_spans == 3 and len(t.spans) == 1
    assert t.chrome()["otherData"] == {"spans_recorded": 3, "spans_kept": 1}


def test_generator_functions_are_refused():
    with pytest.raises(TypeError, match="generator"):
        Tracer().wrap("repro.engines.worker:pipeline_worker", "worker")


def test_a_renamed_target_is_an_error():
    with pytest.raises(LookupError, match="renamed"):
        Tracer().wrap("repro.cluster.kernel:SimKernel.no_such_method", "x")


def test_functions_are_patched_where_repro_imported_them():
    import repro.engines.backend as backend
    import repro.serve.head as head
    from repro.comm.payloads import CacheOp, CacheOpKind
    from repro.models.range_cache import RangeKVCache

    original = backend.apply_cache_op
    t = Tracer()
    t.wrap("repro.engines.backend:apply_cache_op", "apply")
    try:
        assert head.apply_cache_op is backend.apply_cache_op is not original
        head.apply_cache_op(RangeKVCache(), CacheOp(CacheOpKind.SEQ_RM, 0, 0, 0, 8))
    finally:
        t.restore()
    assert head.apply_cache_op is backend.apply_cache_op is original
    assert t.calls("apply") == 1


def test_counts_and_registries():
    from repro.cluster.kernel import SimKernel

    call_at = SimKernel.call_at
    t = Tracer()
    t.count("repro.cluster.kernel:SimKernel.call_at", "timers")
    t.register("repro.cluster.kernel:SimKernel", "kernel")
    try:
        kernel = SimKernel()
        kernel.call_after(1.0, lambda: None)
        kernel.run()
    finally:
        t.restore()
    assert t.calls("timers") == 1
    assert t.instances["kernel"] == [kernel] and kernel.n_events == 1
    assert SimKernel.call_at is call_at
