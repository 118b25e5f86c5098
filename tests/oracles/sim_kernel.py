"""A one-heap kernel, kept as the event-ordering reference.

One binary heap keyed by ``(time, seq)`` for every event, at-now ones
included, and one closure per scheduled resume: the plainest
implementation of the order :class:`repro.cluster.kernel.SimKernel`
promises with its at-now FIFO plus timed-event heap.  The differential
property test replays random event storms on both kernels and asserts
identical traces, and the kernel storm test runs the same sender and
receiver program on both and asserts the same delivered count and final
clock.  It shares :class:`~repro.cluster.kernel.Process` and
:class:`~repro.cluster.kernel.Future` with the kernel, so
deadlock diagnosis reads the same ``waiting_on`` field on either.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.cluster.kernel import Delay, Future, Process, ProcessGen, SimError


class ReferenceSimKernel:
    """Heap-ordered event loop with :class:`SimKernel`'s public surface."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0.0
        self._processes: list[Process] = []
        self._n_events = 0

    def spawn(self, gen: ProcessGen, name: str = "proc") -> Process:
        proc = Process(gen, name)
        self._processes.append(proc)
        self._schedule_resume(proc, None)
        return proc

    def future(self, label: str = "") -> Future:
        return Future(self, label)  # type: ignore[arg-type]

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        if time < self.now:
            raise SimError(f"cannot schedule in the past ({time} < {self.now})")
        self._push(time, fn)

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        self.call_at(self.now + delay, fn)

    def defer(self, fn: Callable[[], None]) -> None:
        self._push(self.now, fn)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self.now = max(self.now, until)
                return
            time, _, fn = heapq.heappop(self._heap)
            self.now = time
            self._n_events += 1
            if max_events is not None and self._n_events > max_events:
                raise SimError(f"exceeded max_events={max_events}")
            fn()

    @property
    def n_events(self) -> int:
        return self._n_events

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event, or None when drained."""
        return self._heap[0][0] if self._heap else None

    def alive_processes(self) -> list[Process]:
        return [p for p in self._processes if p.alive]

    def _push(self, time: float, fn: Callable[[], None]) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn))

    def _schedule_resume(self, proc: Process, value: Any) -> None:
        self._push(self.now, lambda: self._step(proc, value))

    def _step(self, proc: Process, value: Any) -> None:
        if not proc.alive:
            return
        try:
            yielded = proc.gen.send(value)
        except StopIteration as stop:
            proc.alive = False
            proc.result = stop.value
            return
        except BaseException as exc:
            proc.alive = False
            proc.exception = exc
            raise
        self._dispatch_yield(proc, yielded)

    def _dispatch_yield(self, proc: Process, yielded: Any) -> None:
        if isinstance(yielded, Delay):
            self._push(self.now + yielded.duration, lambda: self._step(proc, None))
        elif isinstance(yielded, Future):
            if yielded._park(proc):
                self._schedule_resume(proc, yielded.value)
            else:
                proc.waiting_on = yielded
        else:
            proc.alive = False
            raise SimError(
                f"process {proc.name!r} yielded {yielded!r}; expected Delay or Future"
            )
