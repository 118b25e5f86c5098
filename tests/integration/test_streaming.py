"""Streaming front-end: byte-identity, sessions, async clients, SLOs.

The acceptance bar for the streaming layer:

- a one-replica :class:`ServingSession` fed a whole workload reports
  *field-identically* to ``run_serving`` — streams are pure observers,
  never simulation inputs — and every request's streamed token sequence
  equals its report tokens;
- stream events carry the sim instants verification accepted the tokens
  (first event at prefill end, timestamps monotone, close never before
  the last delivery);
- a :class:`ServingSession` that submits the whole workload and drains
  without cancelling reproduces the batch outputs token for token;
- :class:`AsyncFrontend` clients stream exactly their single-job tokens,
  and an early disconnect cancels the request mid-flight;
- every engine streams and cancels through the one head: the synchronous
  baselines' streams fill and close, a cancel closes them, and
  ``AsyncFrontend.complete`` returns;
- SLO tags flow arrival -> scheduler -> report: goodput equals
  throughput without SLOs and drops below it under impossible ones.
"""

import asyncio
import dataclasses
import math

import pytest

from repro import (
    ClusterConfig,
    GenerationJob,
    IterativeEngine,
    OracleBackend,
    PipeInferEngine,
    SpeculativeEngine,
    cluster_c,
    get_pair,
    run_engine,
    run_serving,
)
from repro.api import AsyncFrontend, ServingSession
from repro.serve import EngineCluster, make_workload
from repro.serve.cluster import Router
from repro.serve.scheduler import Request
from repro.workloads import make_prompt, poisson_arrivals

N_REQUESTS = 6


@pytest.fixture(scope="module")
def pair():
    return get_pair("dolphin+tinyllama")


def _jobs(pair, n=N_REQUESTS, n_generate=12):
    vocab = pair.target_arch.vocab
    return [
        GenerationJob(
            prompt=make_prompt("wikitext", length=24 + 4 * i, vocab=vocab),
            n_generate=n_generate,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def slo_workload(pair):
    """Mixed traffic: priorities and (loose) SLO tags on some requests."""
    jobs = _jobs(pair)
    return make_workload(
        jobs,
        arrivals=poisson_arrivals(0.5, len(jobs), seed=3),
        priorities=[0, 2, 0, 1, 0, 0],
        ttft_slos=[None, 50.0, None, 80.0, None, None],
        itl_slos=[None, 5.0, None, None, 2.0, None],
    )


def _parts(pair, n_nodes=4):
    cluster = cluster_c(n_nodes)
    return OracleBackend(pair, head_node=cluster.nodes[0]), cluster


@pytest.fixture(scope="module")
def batch_report(pair, slo_workload):
    backend, cluster = _parts(pair)
    return run_serving(PipeInferEngine, backend, cluster, slo_workload)


@pytest.fixture(scope="module")
def streamed(pair, slo_workload):
    """The batch workload served through a session: (report, hub)."""
    backend, cluster = _parts(pair)
    sess = ServingSession(
        EngineCluster(
            PipeInferEngine, [backend], [cluster],
            cluster_config=ClusterConfig(n_replicas=1),
        )
    )
    for req in slo_workload.requests():
        sess.submit(
            req.job,
            arrival=req.arrival,
            priority=req.priority,
            ttft_slo=req.ttft_slo,
            itl_slo=req.itl_slo,
        )
    return sess.report().per_replica[0], sess.hub


class TestStreamServingIdentity:
    def test_report_field_identical(self, batch_report, streamed):
        report, _hub = streamed
        for f in dataclasses.fields(type(batch_report)):
            assert getattr(report, f.name) == getattr(batch_report, f.name), (
                f"field {f.name} diverged under streaming"
            )

    def test_streamed_tokens_equal_report(self, batch_report, streamed):
        _report, hub = streamed
        assert hub.outputs() == batch_report.outputs()

    def test_all_streams_finished(self, streamed):
        _report, hub = streamed
        assert len(hub.streams) == N_REQUESTS
        for stream in hub.streams.values():
            assert stream.finished and not stream.cancelled
            assert stream.closed_at is not None

    def test_event_times_monotone_and_bounded(self, streamed):
        report, hub = streamed
        for req in report.requests:
            stream = hub.streams[req.req_id]
            times = [t for t, _ in stream.events]
            assert all(a <= b for a, b in zip(times, times[1:]))
            # First token streams at the prefill-end instant the report
            # records; the stream never closes before its last delivery.
            assert times[0] == req.prefill_end
            assert stream.closed_at >= times[-1]
            assert stream.closed_at <= report.makespan + req.arrival + 1e-9

    def test_slo_tags_surface_on_report(self, streamed, slo_workload):
        report, _hub = streamed
        by_id = {r.req_id: r for r in report.requests}
        for i in range(N_REQUESTS):
            assert by_id[i].priority == slo_workload.priorities[i]
            assert by_id[i].ttft_slo == slo_workload.ttft_slos[i]
            assert by_id[i].itl_slo == slo_workload.itl_slos[i]


def _engine_cluster(pair, k=1, config=None, engine=PipeInferEngine, **cluster_kw):
    clusters = [cluster_c(4) for _ in range(k)]
    backends = [OracleBackend(pair, head_node=c.nodes[0]) for c in clusters]
    return EngineCluster(
        engine,
        backends,
        clusters,
        cluster_config=ClusterConfig(n_replicas=k, **cluster_kw),
        config=config,
    )


def _session(pair, k=1, max_active=None, config=None, **cluster_kw):
    return ServingSession(
        _engine_cluster(pair, k=k, config=config, **cluster_kw),
        max_active=max_active,
    )


class TestServingSession:
    def test_no_disconnect_session_matches_batch(self, pair, slo_workload):
        sess = _session(pair)
        for req in slo_workload.requests():
            sess.submit(
                req.job,
                arrival=req.arrival,
                priority=req.priority,
                ttft_slo=req.ttft_slo,
                itl_slo=req.itl_slo,
            )
        report = sess.report()
        backend, cluster = _parts(pair)
        ref = run_serving(PipeInferEngine, backend, cluster, slo_workload)
        assert sess.outputs() == ref.outputs()
        assert report.outputs() == ref.outputs()
        assert report.merged.throughput == pytest.approx(ref.throughput)
        assert report.merged.goodput == pytest.approx(ref.goodput)

    def test_incremental_step_streams_tokens(self, pair):
        sess = _session(pair)
        job = _jobs(pair, n=1)[0]
        stream = sess.submit(job)
        # Drive purely by stream events: each wait yields at least one
        # fresh token until the budget closes the stream.
        seen = []
        while not stream.closed:
            got = sess.advance_until(stream)
            assert got, "simulation drained with the stream still open"
            seen = stream.tokens
        assert len(seen) == job.n_generate
        report = sess.report()
        assert report.outputs()[0] == seen

    def test_advance_until_time(self, pair):
        sess = _session(pair)
        sess.submit(_jobs(pair, n=1)[0], arrival=0.0)
        assert sess.advance_until(5.0)
        assert sess.now() >= 5.0
        sess.drain()

    def test_advance_until_an_earlier_time_moves_no_clock(self, pair):
        sess = _session(pair, k=2)
        for i, job in enumerate(_jobs(pair, n=2)):
            sess.submit(job, arrival=0.1 * i)
        assert sess.advance_until(2.0)
        before = [rep.kernel.now for rep in sess._replicas]
        now = sess.now()
        assert sess.advance_until(0.5)
        assert [rep.kernel.now for rep in sess._replicas] == before
        assert sess.now() == now
        sess.drain()

    def test_submit_clamps_past_arrivals(self, pair):
        sess = _session(pair)
        jobs = _jobs(pair, n=2)
        sess.submit(jobs[0], arrival=4.0)
        late = sess.submit(jobs[1], arrival=1.0)  # already in the past
        assert sess.now() >= 4.0
        sess.drain()
        assert late.finished

    def test_submit_after_drain_rejected(self, pair):
        sess = _session(pair)
        sess.submit(_jobs(pair, n=1)[0])
        sess.drain()
        with pytest.raises(RuntimeError):
            sess.submit(_jobs(pair, n=1)[0])


class TestAsyncFrontend:
    def test_concurrent_clients_stream_exact_tokens(self, pair):
        jobs = _jobs(pair, n=3, n_generate=12)

        async def scenario():
            fe = AsyncFrontend(_engine_cluster(pair))

            async def client(job):
                return [tok async for tok in fe.stream(job)]

            outs = await asyncio.gather(*(client(j) for j in jobs))
            return fe, outs

        fe, outs = asyncio.run(scenario())
        report = fe.report()
        assert [len(o) for o in outs] == [12, 12, 12]
        assert report.merged.n_cancelled == 0
        # Each client's stream equals its solo run: the frontend
        # multiplexes timing, never output.
        for job, out in zip(jobs, outs):
            backend, cluster = _parts(pair)
            solo = run_engine(PipeInferEngine, backend, cluster, job)
            assert out == solo.tokens

    def test_disconnect_cancels_mid_flight(self, pair):
        jobs = _jobs(pair, n=2, n_generate=16)

        async def scenario():
            fe = AsyncFrontend(_engine_cluster(pair))

            async def patient(job):
                return [tok async for tok in fe.stream(job)]

            async def dropper(job):
                got = []
                async for tok in fe.stream(job):
                    got.append(tok)
                    if len(got) == 3:
                        break  # client disconnect
                return got

            outs = await asyncio.gather(patient(jobs[0]), dropper(jobs[1]))
            return fe, outs

        fe, (full, dropped) = asyncio.run(scenario())
        report = fe.report()
        assert len(full) == 16
        assert len(dropped) == 3
        assert report.merged.n_cancelled == 1
        by_id = {r.req_id: r for r in report.merged.requests}
        assert by_id[1].cancelled
        # The survivor still matches its solo tokens.
        backend, cluster = _parts(pair)
        solo = run_engine(PipeInferEngine, backend, cluster, jobs[0])
        assert full == solo.tokens


@pytest.mark.parametrize(
    "engine", [PipeInferEngine, IterativeEngine, SpeculativeEngine],
    ids=lambda e: e.name,
)
class TestEveryEngineStreams:
    """The baselines stream, cancel and complete like PipeInfer."""

    @staticmethod
    def _solo(pair, engine, job):
        backend, cluster = _parts(pair)
        return run_engine(engine, backend, cluster, job).tokens

    def test_session_stream_fills_and_closes(self, pair, engine):
        sess = ServingSession(_engine_cluster(pair, engine=engine))
        job = _jobs(pair, n=1)[0]
        stream = sess.submit(job)
        for _ in range(job.n_generate + 1):
            if stream.closed:
                break
            assert sess.advance_until(stream), "drained with the stream open"
        assert stream.closed and stream.finished
        assert stream.tokens == self._solo(pair, engine, job)
        assert sess.report().outputs()[0] == stream.tokens

    def test_cancel_closes_stream(self, pair, engine):
        sess = ServingSession(_engine_cluster(pair, engine=engine))
        jobs = _jobs(pair, n=2, n_generate=16)
        dropped, kept = sess.submit(jobs[0]), sess.submit(jobs[1])
        assert sess.advance_until(lambda: dropped.n_tokens >= 3)
        sess.cancel(dropped)
        report = sess.report()
        assert dropped.closed and dropped.cancelled
        assert 3 <= dropped.n_tokens < 16
        by_id = {r.req_id: r for r in report.merged.requests}
        assert by_id[0].cancelled and not by_id[1].cancelled
        assert kept.tokens == self._solo(pair, engine, jobs[1])

    def test_async_complete_returns(self, pair, engine):
        job = _jobs(pair, n=1)[0]

        async def scenario():
            fe = AsyncFrontend(_engine_cluster(pair, engine=engine))
            # Bounded, so a head that never closes the stream fails the
            # test instead of hanging it.
            return await asyncio.wait_for(fe.complete(job), timeout=10.0)

        assert asyncio.run(scenario()) == self._solo(pair, engine, job)


class TestGoodput:
    def test_no_slo_goodput_equals_throughput(self, pair):
        jobs = _jobs(pair, n=3)
        wl = make_workload(jobs, arrivals=[0.0, 0.5, 1.0])
        backend, cluster = _parts(pair)
        report = run_serving(PipeInferEngine, backend, cluster, wl)
        assert report.slo_attainment == 1.0
        assert report.slo_attainment_p99 == 1.0
        assert report.goodput == pytest.approx(report.throughput)

    def test_impossible_slo_drops_goodput(self, pair):
        jobs = _jobs(pair, n=3)
        wl = make_workload(
            jobs,
            arrivals=[0.0, 0.5, 1.0],
            ttft_slos=[1e-9] * 3,
            itl_slos=[1e-9] * 3,
        )
        backend, cluster = _parts(pair)
        report = run_serving(PipeInferEngine, backend, cluster, wl)
        assert report.slo_attainment < 1.0
        assert report.goodput < report.throughput
        assert report.slo_attainment_p50 < 1.0
        assert report.slo_attainment_p99 <= report.slo_attainment_p50
        # SLO tags only annotate: tokens are unchanged.
        ref = run_serving(
            PipeInferEngine, *_parts(pair), make_workload(jobs, [0.0, 0.5, 1.0])
        )
        assert report.outputs() == ref.outputs()

    def test_streamed_slo_attainment_holds(self, pair):
        """Four streamed requests with SLOs a healthy pipeline meets: more
        than 80% of tokens meet their SLO (measured 0.875)."""
        vocab = pair.target_arch.vocab
        sess = _session(pair)
        for i, arrival in enumerate(poisson_arrivals(0.4, 4, seed=7)):
            sess.submit(
                GenerationJob(
                    prompt=make_prompt("wikitext", length=32 + 8 * i, vocab=vocab),
                    n_generate=8,
                ),
                arrival=arrival, ttft_slo=60.0, itl_slo=2.5,
            )
        attainment = sess.report().slo_attainment
        assert attainment > 0.8, attainment

    def test_priority_admission_order(self, pair):
        jobs = _jobs(pair, n=3)
        wl = make_workload(
            jobs,
            arrivals=[0.0, 0.0, 0.0],
            max_active=1,
            priorities=[0, 0, 5],
        )
        backend, cluster = _parts(pair)
        report = run_serving(PipeInferEngine, backend, cluster, wl)
        by_id = {r.req_id: r for r in report.requests}
        # The priority-5 request is admitted first; the tied pair keeps
        # FCFS submission order.
        assert by_id[2].admitted_at < by_id[0].admitted_at
        assert by_id[0].admitted_at < by_id[1].admitted_at
        # Priority reorders *admission*, never output.
        flat = make_workload(jobs, arrivals=[0.0, 0.0, 0.0], max_active=1)
        ref = run_serving(PipeInferEngine, *_parts(pair), flat)
        assert report.outputs() == ref.outputs()


class _StubReplica:
    def __init__(self, depth):
        self.depth = depth


class TestDeadlineAwareSpill:
    def _req(self, ttft_slo):
        return Request(
            req_id=0,
            job=GenerationJob(prompt=(1, 2, 3, 4), n_generate=4),
            arrival=0.0,
            ttft_slo=ttft_slo,
        )

    def test_spill_prefers_replica_meeting_deadline(self):
        cfg = ClusterConfig(
            n_replicas=3, queue_cap=2, deadline_service_est=10.0
        )
        router = Router(cfg)
        # Choice 0 is at the cap; replica 1 is lighter but still too deep
        # for the 25 s deadline at 10 s/request; replica 2 fits.
        replicas = [_StubReplica(2), _StubReplica(4), _StubReplica(2)]
        # Deadline-blind spill goes least-loaded (0 or 2 -> lowest id).
        assert router._backpressure(self._req(None), 0, replicas) == 0
        # With a deadline, only replicas whose backlog fits qualify.
        got = router._backpressure(self._req(25.0), 0, replicas)
        assert got in (0, 2)
        assert replicas[got].depth * 10.0 <= 25.0

    def test_spill_falls_back_when_no_replica_fits(self):
        cfg = ClusterConfig(
            n_replicas=2, queue_cap=1, deadline_service_est=10.0
        )
        router = Router(cfg)
        replicas = [_StubReplica(5), _StubReplica(3)]
        # No replica can make a 1 s deadline: plain least-loaded, no drop.
        assert router._backpressure(self._req(1.0), 0, replicas) == 1

    def test_under_cap_keeps_choice(self):
        cfg = ClusterConfig(
            n_replicas=2, queue_cap=8, deadline_service_est=10.0
        )
        router = Router(cfg)
        replicas = [_StubReplica(2), _StubReplica(0)]
        assert router._backpressure(self._req(5.0), 0, replicas) == 0

    def test_deadline_service_est_validated(self):
        with pytest.raises(ValueError):
            ClusterConfig(deadline_service_est=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(deadline_service_est=-1.0)


class TestWorkloadSLOValidation:
    def test_length_mismatch_rejected(self, pair):
        jobs = _jobs(pair, n=2)
        with pytest.raises(ValueError):
            make_workload(jobs, arrivals=[0.0, 1.0], priorities=[1])
        with pytest.raises(ValueError):
            make_workload(jobs, arrivals=[0.0, 1.0], ttft_slos=[1.0])

    def test_nonpositive_slo_rejected(self, pair):
        jobs = _jobs(pair, n=1)
        with pytest.raises(ValueError):
            make_workload(jobs, arrivals=[0.0], ttft_slos=[0.0])
        with pytest.raises(ValueError):
            make_workload(jobs, arrivals=[0.0], itl_slos=[-1.0])

    def test_goodput_is_finite(self, batch_report):
        assert math.isfinite(batch_report.goodput)
        assert 0.0 <= batch_report.slo_attainment <= 1.0
