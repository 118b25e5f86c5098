"""Which calls the traced sample probes, and the per-layer metrics it reports.

Every probe names the workloads that must exercise it; a traced sample
fails when a probe records no call on a workload that should reach it,
which is how a renamed or bypassed function shows up.  Metric names are
``<layer>.<metric>``, the layer being the ``repro`` module the probes sit
in.  Self times come from the tracer (inflated by its own overhead, which
``trace.overhead_frac`` reports); counts and ratios come from probes and
from the counters the program's reports already carry.
"""

from __future__ import annotations

import importlib
import pkgutil
from typing import Dict, Tuple

from bench.stats import median, tail

ALL = frozenset({"single_paper", "functional_closed", "chat_open", "faulty_edge"})
ORACLE = ALL - {"functional_closed"}
SERVING = ALL - {"single_paper"}
FUNCTIONAL = frozenset({"functional_closed"})
CHAT = frozenset({"chat_open"})
FAULTY = frozenset({"faulty_edge"})

#: (span name, target, workloads that must call it).  A span name shared
#: by several targets (an override and its base) sums over them.
SPANS: Tuple[Tuple[str, str, frozenset], ...] = (
    ("cluster.kernel.run", "repro.cluster.kernel:SimKernel.run", ALL),
    ("cluster.interconnect.transmit", "repro.cluster.interconnect:Link.transmit", ALL),
    ("cluster.interconnect.transmit", "repro.faults.inject:FaultyLink.transmit", FAULTY),
    ("cluster.interconnect.drain", "repro.cluster.interconnect:Link._drain", ALL),
    ("comm.mpi_sim.send", "repro.comm.mpi_sim:Endpoint.send", ALL),
    ("comm.reliable.on_send", "repro.comm.reliable:ReliableTransport.on_send", FAULTY),
    ("engines.worker.window", "repro.engines.worker:_schedule_window", ALL),
    ("engines.backend.compute_stage_multi",
     "repro.engines.backend:OracleBackend.compute_stage_multi", ORACLE),
    ("engines.backend.compute_stage_multi",
     "repro.engines.backend:FunctionalBackend.compute_stage_multi", FUNCTIONAL),
    ("engines.backend.propose_multi", "repro.engines.backend:Backend.propose_multi", ORACLE),
    ("engines.backend.propose_multi",
     "repro.engines.backend:FunctionalBackend.propose_multi", FUNCTIONAL),
    ("engines.backend.apply_cache_op", "repro.engines.backend:apply_cache_op", ALL),
    ("models.transformer.forward_stage",
     "repro.models.transformer:TinyTransformer.forward_stage", FUNCTIONAL),
    ("models.transformer.decode", "repro.models.transformer:TinyTransformer.decode", FUNCTIONAL),
    ("models.kv_cache.allocate", "repro.models.kv_cache:KVCache.allocate", FUNCTIONAL),
    ("models.kv_cache.seq_cp", "repro.models.kv_cache:KVCache.seq_cp", FUNCTIONAL),
    ("models.kv_cache.seq_rm", "repro.models.kv_cache:KVCache.seq_rm", FUNCTIONAL),
    ("models.kv_cache.visible_matrix", "repro.models.kv_cache:KVCache.visible_matrix", FUNCTIONAL),
    ("models.range_cache.add_tokens", "repro.models.range_cache:RangeKVCache.add_tokens", ORACLE),
    ("models.range_cache.seq_cp", "repro.models.range_cache:RangeKVCache.seq_cp", ORACLE),
    ("models.range_cache.seq_rm", "repro.models.range_cache:RangeKVCache.seq_rm", ORACLE),
    ("core.head.verify", "repro.core.head:verify_run_logits", ALL),
    ("serve.scheduler.pop_ready", "repro.serve.scheduler:RequestScheduler.pop_ready", SERVING),
    ("cache.prefix.match", "repro.cache.prefix:PrefixCacheManager.match", CHAT),
    ("serve.cluster.route", "repro.serve.cluster:Router.route", CHAT),
    ("serve.cluster.advance_to", "repro.serve.cluster:Replica.advance_to", CHAT),
    ("api.stream.push", "repro.api.stream:TokenStream.push", CHAT),
    ("api.session.submit", "repro.api.session:ServingSession.submit", CHAT),
)

#: Hot calls that are counted, not spanned.  ``call_after`` arms its
#: timer through ``call_at``, so counting ``call_at`` counts every timer.
COUNTS: Tuple[Tuple[str, str, frozenset], ...] = (
    ("cluster.kernel.timers", "repro.cluster.kernel:SimKernel.call_at", ALL),
    ("faults.health_checks", "repro.faults.health:HealthMonitor.degraded", FAULTY),
)

#: Classes whose instances carry counters the trace reads afterwards.
REGISTRIES = (
    ("repro.cluster.kernel:SimKernel", "kernel"),
    ("repro.comm.mpi_sim:Network", "network"),
    ("repro.cluster.interconnect:Link", "link"),
)

#: Per-layer metric -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "cluster.kernel.self_s": "s",
    "cluster.kernel.events": "count",
    "cluster.kernel.resumes_per_msg": "ratio",
    "cluster.kernel.timers": "count",
    "cluster.interconnect.transmits": "count",
    "cluster.interconnect.msgs_per_delivery_event": "ratio",
    "cluster.interconnect.self_s": "s",
    "comm.mpi_sim.sends": "count",
    "comm.mpi_sim.send.self_s": "s",
    "comm.mpi_sim.delivered": "count",
    "comm.reliable.sends": "count",
    "comm.reliable.retransmit_frac": "frac",
    "comm.reliable.timeouts": "count",
    "faults.health_checks": "count",
    "faults.degraded_windows": "count",
    "engines.worker.windows": "count",
    "engines.worker.fusion_width_mean": "runs",
    "engines.worker.layer_evals_skipped": "count",
    "engines.worker.utilization": "frac",
    "engines.backend.compute_stage_multi.calls": "count",
    "engines.backend.compute_stage_multi.self_s": "s",
    "engines.backend.propose_multi.calls": "count",
    "engines.backend.propose_multi.self_s": "s",
    "engines.backend.draft_batch_width_mean": "chains",
    "engines.backend.apply_cache_op.calls": "count",
    "engines.backend.apply_cache_op.self_s": "s",
    "models.transformer.forward_stage.calls": "count",
    "models.transformer.forward_stage.self_s": "s",
    "models.transformer.forward_stage.rows_per_call": "rows",
    "models.transformer.decode.calls": "count",
    "models.transformer.decode.self_s": "s",
    "models.kv_cache.ops": "count",
    "models.kv_cache.self_s": "s",
    "models.range_cache.ops": "count",
    "models.range_cache.self_s": "s",
    "core.head.spec_runs": "count",
    "core.head.invalidated_frac": "frac",
    "core.head.dispatch_efficiency": "frac",
    "core.head.acceptance_rate": "frac",
    "core.head.cancel_signals": "count",
    "core.head.verify.self_s": "s",
    "serve.scheduler.queue_wait_p50_s": "s",
    "serve.scheduler.queue_wait_tail_s": "s",
    "serve.scheduler.pop_ready.calls": "count",
    "cache.prefix.hit_rate": "frac",
    "cache.prefix.evictions": "count",
    "cache.prefix.donated_tokens": "count",
    "cache.prefix.match.calls": "count",
    "cache.prefix.match.self_s": "s",
    "serve.cluster.route.calls": "count",
    "serve.cluster.route.self_s": "s",
    "serve.cluster.session_affinity_hits": "count",
    "serve.cluster.advance_to.calls": "count",
    "serve.cluster.advance_to.self_s": "s",
    "api.stream.push.calls": "count",
    "api.stream.push.self_s": "s",
    "api.session.submit.self_s": "s",
    "entry.self_s": "s",
    "trace.overhead_frac": "frac",
}


def install(tracer) -> None:
    """Import every ``repro`` module, then put all probes in place.

    Importing first means modules that import a probed function lazily
    (inside a function, to avoid import cycles) are patched too.
    """
    import repro

    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(mod.name)
    for name, target, _ in SPANS:
        measure = _rows if name == "models.transformer.forward_stage" else None
        tracer.wrap(target, name, measure)
    for name, target, _ in COUNTS:
        tracer.count(target, name)
    for target, key in REGISTRIES:
        tracer.register(target, key)


def _rows(model, hidden, *args, **kwargs) -> int:
    return hidden.shape[0]


def unused_probes(tracer, workload: str) -> list:
    """Probes ``workload`` should reach that recorded no call."""
    return sorted(
        {name for name, _, on in SPANS + COUNTS if workload in on and tracer.calls(name) == 0}
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, layer: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a traced sample.

    ``layer`` holds the report-side quantities of :class:`bench.workloads.Result`
    (run statistics, histograms, queue waits, prefix-cache counters).
    """
    t = tracer
    kernels = t.instances["kernel"]
    links = t.instances["link"]
    delivered = sum(net.n_delivered for net in t.instances["network"])
    waits = layer.get("queue_waits") or [0.0]
    sends = t.calls("comm.reliable.on_send")
    kv_ops = ("allocate", "seq_cp", "seq_rm", "visible_matrix")
    range_ops = ("add_tokens", "seq_cp", "seq_rm")
    spans = {name for name, _, _ in SPANS}
    out = {
        "cluster.kernel.self_s": t.self_s("cluster.kernel.run"),
        "cluster.kernel.events": sum(k.n_events for k in kernels),
        "cluster.kernel.resumes_per_msg": _ratio(sum(k.n_resumes for k in kernels), delivered),
        "cluster.kernel.timers": t.calls("cluster.kernel.timers"),
        "cluster.interconnect.transmits": t.calls("cluster.interconnect.transmit"),
        "cluster.interconnect.msgs_per_delivery_event": _ratio(
            sum(lk.n_messages for lk in links), sum(lk.n_delivery_events for lk in links)
        ),
        "cluster.interconnect.self_s": t.self_s("cluster.interconnect.transmit")
        + t.self_s("cluster.interconnect.drain"),
        "comm.mpi_sim.sends": t.calls("comm.mpi_sim.send"),
        "comm.mpi_sim.send.self_s": t.self_s("comm.mpi_sim.send"),
        "comm.mpi_sim.delivered": delivered,
        "comm.reliable.sends": sends,
        "comm.reliable.retransmit_frac": _ratio(layer["retransmits"], sends),
        "comm.reliable.timeouts": layer["timeouts"],
        "faults.health_checks": t.calls("faults.health_checks"),
        "faults.degraded_windows": layer["degraded_windows"],
        "engines.worker.windows": t.calls("engines.worker.window"),
        "engines.worker.fusion_width_mean": _ratio(
            layer["fused_width_sum"], layer["fused_windows"]
        ),
        "engines.worker.layer_evals_skipped": layer["layer_evals_skipped"],
        "engines.worker.utilization": _ratio(layer["utilization_sum"], layer["utilization_n"]),
        "engines.backend.draft_batch_width_mean": _ratio(
            layer["draft_width_sum"], layer["draft_passes"]
        ),
        "models.transformer.forward_stage.rows_per_call": _ratio(
            t.measures.get("models.transformer.forward_stage", 0),
            t.calls("models.transformer.forward_stage"),
        ),
        "models.kv_cache.ops": sum(t.calls(f"models.kv_cache.{op}") for op in kv_ops),
        "models.kv_cache.self_s": sum(t.self_s(f"models.kv_cache.{op}") for op in kv_ops),
        "models.range_cache.ops": sum(t.calls(f"models.range_cache.{op}") for op in range_ops),
        "models.range_cache.self_s": sum(
            t.self_s(f"models.range_cache.{op}") for op in range_ops
        ),
        "core.head.spec_runs": layer["spec_runs"],
        "core.head.invalidated_frac": _ratio(layer["cancelled_invalid"], layer["spec_runs"]),
        "core.head.dispatch_efficiency": _ratio(layer["draft_accepted"], layer["draft_proposed"]),
        "core.head.acceptance_rate": _ratio(layer["draft_accepted"], layer["draft_checked"]),
        "core.head.cancel_signals": layer["cancel_signals"],
        "core.head.verify.self_s": t.self_s("core.head.verify"),
        "serve.scheduler.queue_wait_p50_s": median(waits),
        "serve.scheduler.queue_wait_tail_s": tail(waits)[1],
        "cache.prefix.hit_rate": _ratio(layer.get("prefix_hit_tokens", 0),
                                        layer.get("prompt_tokens", 0)),
        "cache.prefix.evictions": layer.get("evictions", 0),
        "cache.prefix.donated_tokens": layer.get("donated_tokens", 0),
        "serve.cluster.session_affinity_hits": layer.get("session_affinity_hits", 0),
        "api.session.submit.self_s": t.self_s("api.session.submit"),
        "entry.self_s": t.self_s("entry"),
    }
    for metric in PER_LAYER:
        stem, _, kind = metric.rpartition(".")
        if metric not in out and stem in spans:
            out[metric] = t.calls(stem) if kind == "calls" else t.self_s(stem)
    return {metric: out[metric] for metric in PER_LAYER if metric in out}
