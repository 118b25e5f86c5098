"""Discrete-event kernel semantics."""

import pytest

from repro.cluster.kernel import Delay, SimError, SimKernel, run_to_completion


def test_delay_advances_time():
    k = SimKernel()
    seen = []

    def proc():
        yield Delay(1.5)
        seen.append(k.now)
        yield Delay(0.5)
        seen.append(k.now)

    k.spawn(proc())
    k.run()
    assert seen == [1.5, 2.0]


def test_zero_delay_allowed():
    k = SimKernel()

    def proc():
        yield Delay(0.0)
        return "done"

    p = k.spawn(proc())
    k.run()
    assert p.result == "done" and not p.alive


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_future_parks_and_resumes_with_value():
    k = SimKernel()
    fut = k.future("x")
    got = []

    def waiter():
        value = yield fut
        got.append((k.now, value))

    def resolver():
        yield Delay(3.0)
        fut.resolve("hello")

    k.spawn(waiter())
    k.spawn(resolver())
    k.run()
    assert got == [(3.0, "hello")]


def test_pre_resolved_future_resumes_immediately():
    k = SimKernel()
    fut = k.future()
    fut.resolve(99)

    def waiter():
        v = yield fut
        return v

    p = k.spawn(waiter())
    k.run()
    assert p.result == 99


def test_future_double_resolve_raises():
    k = SimKernel()
    fut = k.future()
    fut.resolve(1)
    with pytest.raises(SimError):
        fut.resolve(2)


def test_two_waiters_on_one_future_rejected():
    k = SimKernel()
    fut = k.future()

    def waiter():
        yield fut

    k.spawn(waiter())
    k.spawn(waiter())
    with pytest.raises(SimError):
        k.run()


def test_bad_yield_type_raises():
    k = SimKernel()

    def proc():
        yield "nonsense"

    k.spawn(proc())
    with pytest.raises(SimError):
        k.run()


def test_events_at_same_time_run_in_schedule_order():
    k = SimKernel()
    order = []
    k.call_at(1.0, lambda: order.append("a"))
    k.call_at(1.0, lambda: order.append("b"))
    k.call_at(0.5, lambda: order.append("c"))
    k.run()
    assert order == ["c", "a", "b"]


def test_cannot_schedule_in_past():
    k = SimKernel()
    k.call_at(1.0, lambda: k.call_at(0.5, lambda: None))
    with pytest.raises(SimError):
        k.run()


def test_run_until_horizon():
    k = SimKernel()
    fired = []
    k.call_at(1.0, lambda: fired.append(1))
    k.call_at(5.0, lambda: fired.append(5))
    k.run(until=2.0)
    assert fired == [1]
    assert k.now == 2.0


def test_run_until_behind_now_keeps_the_clock():
    """A horizon earlier than ``now`` must not move time backwards."""
    k = SimKernel()
    fired = []
    for t in (10.0, 15.0, 20.0):
        k.call_at(t, lambda t=t: fired.append(t))
    k.run(until=15.0)
    k.run(until=5.0)
    assert k.now == 15.0
    k.call_at(17.0, lambda: fired.append(17.0))
    with pytest.raises(SimError):
        k.call_at(7.0, lambda: None)  # 7.0 is in the past, not the future
    k.run()
    assert fired == [10.0, 15.0, 17.0, 20.0]


def test_max_events_guard():
    k = SimKernel()

    def spinner():
        while True:
            yield Delay(0.1)

    k.spawn(spinner())
    with pytest.raises(SimError):
        k.run(max_events=100)


def test_run_to_completion_detects_deadlock():
    k = SimKernel()
    fut = k.future("never")

    def stuck():
        yield fut

    p = k.spawn(stuck(), name="stuck-proc")
    with pytest.raises(SimError, match="stuck-proc"):
        run_to_completion(k, [p])


def test_process_exception_propagates():
    k = SimKernel()

    def boom():
        yield Delay(0.1)
        raise RuntimeError("bang")

    p = k.spawn(boom())
    with pytest.raises(RuntimeError, match="bang"):
        k.run()
    assert not p.alive and isinstance(p.exception, RuntimeError)


def test_determinism_across_identical_runs():
    def build():
        k = SimKernel()
        trace = []

        def a():
            for _ in range(5):
                yield Delay(0.3)
                trace.append(("a", k.now))

        def b():
            for _ in range(5):
                yield Delay(0.2)
                trace.append(("b", k.now))

        k.spawn(a())
        k.spawn(b())
        k.run()
        return trace

    assert build() == build()


class TestNextEventTime:
    """``next_event_time`` feeds the streaming session's lockstep step."""

    @pytest.fixture(params=["kernel", "reference"])
    def any_kernel(self, request):
        from oracles.sim_kernel import ReferenceSimKernel

        return SimKernel() if request.param == "kernel" else ReferenceSimKernel()

    def test_empty_kernel_has_none(self, any_kernel):
        assert any_kernel.next_event_time() is None

    def test_future_event_time(self, any_kernel):
        any_kernel.call_at(3.5, lambda: None)
        any_kernel.call_at(7.0, lambda: None)
        assert any_kernel.next_event_time() == 3.5
        any_kernel.run(until=3.5)
        assert any_kernel.next_event_time() == 7.0
        any_kernel.run()
        assert any_kernel.next_event_time() is None

    def test_at_now_fifo_reports_now(self):
        # An at-now callback sits in the FIFO, not the heap, and must
        # still surface as "there is work at the current instant".
        k = SimKernel()
        k.call_at(0.0, lambda: None)
        k.call_at(9.0, lambda: None)
        assert k.next_event_time() == 0.0
        k.run(until=0.0)
        assert k.next_event_time() == 9.0
