"""Event kernel vs the reference heap kernel: ordering and edges.

The kernel's determinism contract is that execution order is exactly
ascending ``(time, seq)`` — byte-identical to the one-heap kernel kept as
the test oracle :class:`ReferenceSimKernel`, which has no at-now FIFO.
The differential property test here replays random event storms (delays,
futures resolved by timers, plain callbacks and the at-now re-entries they
defer, mid-run spawns) on both kernels and asserts the full execution
traces match.  The message storm
runs the engines' dominant traffic shape on both stacks — the kernel with
the coalescing :class:`Link`, the reference kernel with one event per
message — and pins the same simulated outcome plus the coalescing ratio.
The edge tests pin the horizon-resume fix, past-scheduling errors, and
cumulative ``max_events`` accounting.
"""

import random

import pytest

from repro.cluster.interconnect import Link, LinkSpec
from repro.cluster.kernel import (
    Delay,
    SimError,
    SimKernel,
)
from repro.util.units import Gbps, KiB
from oracles.sim_kernel import ReferenceSimKernel

KERNELS = [SimKernel, ReferenceSimKernel]


# ---------------------------------------------------------------------------
# Differential ordering property test
# ---------------------------------------------------------------------------


#: Candidate delays: heavy on zero and near-ties so same-instant ordering
#: (the FIFO/heap split) is exercised hard, plus spread-out values so
#: events interleave across many distinct instants.
_DELAYS = (0.0, 0.0, 1e-9, 1e-6, 1e-6, 3e-6, 1e-4, 7e-4, 0.05, 2.0)


def _storm_trace(kernel_cls, seed: int, n_procs: int = 6, n_steps: int = 40):
    """Run one seeded random program; return its full execution trace."""
    kernel = kernel_cls()
    trace = []

    def proc(pid: int):
        r = random.Random(seed * 1009 + pid)
        for step in range(n_steps):
            trace.append(("step", pid, step, kernel.now))
            roll = r.random()
            if roll < 0.40:
                yield Delay(r.choice(_DELAYS))
            elif roll < 0.70:
                # Park on a future a timer resolves (possibly at-now).
                fut = kernel.future(f"f{pid}.{step}")
                kernel.call_after(
                    r.choice(_DELAYS),
                    lambda f=fut, p=pid, s=step: (
                        trace.append(("resolve", p, s, kernel.now)),
                        f.resolve((p, s)),
                    ),
                )
                value = yield fut
                assert value == (pid, step)
            elif roll < 0.90:
                # Fire-and-forget callback that defers a follow-up to the
                # end of its instant, then a short delay.
                kernel.call_at(
                    kernel.now + r.choice(_DELAYS),
                    lambda p=pid, s=step: (
                        trace.append(("cb", p, s, kernel.now)),
                        kernel.defer(
                            lambda: trace.append(("deferred", p, s, kernel.now))
                        ),
                    ),
                )
                yield Delay(r.choice(_DELAYS))
            else:
                # Spawn a short-lived child mid-run.
                def child(p=pid, s=step):
                    trace.append(("child", p, s, kernel.now))
                    yield Delay(r.choice(_DELAYS))
                    trace.append(("child-done", p, s, kernel.now))

                kernel.spawn(child(), f"child{pid}.{step}")
                yield Delay(r.choice(_DELAYS))
        trace.append(("done", pid, n_steps, kernel.now))

    procs = [kernel.spawn(proc(i), f"p{i}") for i in range(n_procs)]
    kernel.run()
    assert not any(p.alive for p in procs)
    return trace


@pytest.mark.parametrize("seed", range(8))
def test_random_storms_replay_identically_on_both_kernels(seed):
    new = _storm_trace(SimKernel, seed)
    ref = _storm_trace(ReferenceSimKernel, seed)
    assert new == ref


def test_large_same_time_burst_keeps_seq_order():
    """1,300 timed entries at one instant run in the order they were armed."""
    kernel = SimKernel()
    fired = []
    t = 1.0
    for i in range(1300):
        kernel.call_at(t, lambda i=i: fired.append(i))
    kernel.run()
    assert fired == list(range(1300))
    assert kernel.now == t


# ---------------------------------------------------------------------------
# Message storm: coalescing link on the kernel vs per-message delivery on
# the reference kernel
# ---------------------------------------------------------------------------


class _PerMessageLink:
    """``Link`` without coalescing: one ``call_at`` kernel event per message."""

    def __init__(self, kernel, spec: LinkSpec) -> None:
        self._kernel = kernel
        self.spec = spec
        self._bulk_free_at = 0.0

    def transmit(self, nbytes: float, on_delivered) -> float:
        now = self._kernel.now
        spec = self.spec
        if nbytes <= spec.eager_threshold:
            arrival = now + spec.latency + nbytes / spec.bandwidth
        else:
            start = max(now, self._bulk_free_at)
            self._bulk_free_at = start + nbytes / spec.bandwidth
            arrival = self._bulk_free_at + spec.latency
        self._kernel.call_at(arrival, on_delivered)
        return arrival


_STORM_SENDERS, _STORM_ROUNDS, _STORM_BURST = 2, 150, 12


def _message_storm(kernel, links, batched: bool):
    """Senders burst mixed traffic over ``links``; receivers park on futures.

    Every 8th message of a burst is a 64 KiB bulk tensor that serializes,
    the rest are 1 KiB eager messages, so one burst lands at a handful of
    distinct instants.  A batched receiver drains its whole inbox per wake
    (the ``Endpoint.recv_ready`` hand-off); otherwise each message costs
    one at-now resume, like a per-message ``recv``.  Returns
    ``(delivered, final clock, sorted delivery instants)``.
    """
    delivered = [0]
    instants = []
    inboxes = [[] for _ in links]
    signals = [[None] for _ in links]

    def on_delivered(idx):
        def deliver():
            instants.append(kernel.now)
            inboxes[idx].append(None)
            sig = signals[idx][0]
            if sig is not None:
                signals[idx][0] = None
                sig.resolve(None)

        return deliver

    def receiver(idx):
        inbox = inboxes[idx]
        got = 0
        while got < _STORM_ROUNDS * _STORM_BURST:
            if not inbox:
                signals[idx][0] = kernel.future(f"rx{idx}")
                yield signals[idx][0]
            if batched:
                got += len(inbox)
                delivered[0] += len(inbox)
                inbox.clear()
                continue
            ready = kernel.future()
            ready.resolve(None)
            yield ready
            inbox.pop()
            got += 1
            delivered[0] += 1

    def sender(idx):
        deliver = on_delivered(idx)
        for _ in range(_STORM_ROUNDS):
            for i in range(_STORM_BURST):
                links[idx].transmit(64 * KiB if i % 8 == 7 else 1 * KiB, deliver)
            yield Delay(1e-4)

    procs = [kernel.spawn(receiver(i), f"rx{i}") for i in range(len(links))]
    procs += [kernel.spawn(sender(i), f"tx{i}") for i in range(len(links))]
    kernel.run()
    assert not any(p.alive for p in procs), "message storm deadlocked"
    return delivered[0], kernel.now, sorted(instants)


def test_message_storm_same_outcome_and_coalesced_delivery():
    spec = LinkSpec("storm", latency=5e-6, bandwidth=Gbps(1))
    kernel = SimKernel()
    links = [Link(kernel, spec) for _ in range(_STORM_SENDERS)]
    delivered, now, instants = _message_storm(kernel, links, batched=True)

    ref_kernel = ReferenceSimKernel()
    ref_links = [_PerMessageLink(ref_kernel, spec) for _ in range(_STORM_SENDERS)]
    ref_delivered, ref_now, ref_instants = _message_storm(
        ref_kernel, ref_links, batched=False
    )

    assert delivered == ref_delivered == _STORM_SENDERS * _STORM_ROUNDS * _STORM_BURST
    assert now == ref_now
    assert instants == ref_instants
    # Same-instant arrivals share one delivery event: 6.0 messages per
    # event on this traffic, more than 4 required.
    coalescing = delivered / sum(link.n_delivery_events for link in links)
    assert coalescing > 4, coalescing


# ---------------------------------------------------------------------------
# Horizon semantics (the run(until=...) fix)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_event_past_horizon_survives_into_the_next_run(kernel_cls):
    """The pre-fix kernel popped-and-dropped the first event past ``until``."""
    kernel = kernel_cls()
    fired = []
    kernel.call_at(1.0, lambda: fired.append(1.0))
    kernel.call_at(2.0, lambda: fired.append(2.0))
    kernel.run(until=1.5)
    assert fired == [1.0]
    assert kernel.now == 1.5
    kernel.run()
    assert fired == [1.0, 2.0]
    assert kernel.now == 2.0


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_event_exactly_at_horizon_fires(kernel_cls):
    kernel = kernel_cls()
    fired = []
    kernel.call_at(1.5, lambda: fired.append("at"))
    kernel.run(until=1.5)
    assert fired == ["at"]


def test_resuming_across_many_horizons_matches_a_single_run():
    """Chopping one storm into horizon windows must not change the trace."""
    def build(kernel):
        trace = []

        def ticker():
            for i in range(20):
                trace.append((kernel.now, i))
                yield Delay(0.3)

        kernel.spawn(ticker(), "t")
        return trace

    whole = SimKernel()
    trace_whole = build(whole)
    whole.run()

    chopped = SimKernel()
    trace_chopped = build(chopped)
    horizon = 0.0
    while True:
        horizon += 0.7
        chopped.run(until=horizon)
        if not chopped.alive_processes():
            chopped.run()
            break
    assert trace_chopped == trace_whole


# ---------------------------------------------------------------------------
# call_at in the past / max_events accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_call_at_in_the_past_raises(kernel_cls):
    kernel = kernel_cls()
    kernel.call_at(1.0, lambda: kernel.call_at(0.5, lambda: None))
    with pytest.raises(SimError, match="cannot schedule in the past"):
        kernel.run()


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_max_events_counts_cumulatively_across_runs(kernel_cls):
    kernel = kernel_cls()
    fired = []
    for i in range(4):
        kernel.call_at(float(i + 1), lambda i=i: fired.append(i))
    kernel.run(until=2.5, max_events=10)
    assert fired == [0, 1]
    assert kernel.n_events == 2
    # The budget is cumulative: two events are already on the meter, so a
    # limit of 3 admits exactly one more.  The meter also counts the
    # over-budget event it rejects (both kernels agree on this).
    with pytest.raises(SimError, match="max_events"):
        kernel.run(max_events=3)
    assert fired == [0, 1, 2]
    assert kernel.n_events == 4


def test_max_events_exact_budget_completes():
    kernel = SimKernel()
    fired = []
    for i in range(5):
        kernel.call_at(1e-3 * (i + 1), lambda i=i: fired.append(i))
    kernel.run(max_events=5)
    assert fired == list(range(5))
    assert kernel.n_events == 5
