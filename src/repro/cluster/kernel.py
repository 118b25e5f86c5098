"""Discrete-event simulation kernel.

Events are zero-argument callbacks scheduled at absolute simulated times
(:meth:`SimKernel.call_at`), or at the current instant after everything
already queued for it (:meth:`SimKernel.defer`).  The engines run as
event-driven state machines on top: the serving head and every pipeline
worker react to message deliveries, timers and future callbacks, and each
re-enters through an at-now event when something wakes it mid-event.

Processes remain, as the one place a state machine waits: a
:class:`Process` is a generator coroutine that advances by yielding

- :class:`Delay` — resume after a fixed simulated duration;
- :class:`Future` — park until someone resolves the future.

The head and each worker are processes that park exactly once, on a done
future, so a run costs two resumes per process however much traffic it
carries; :func:`run_to_completion` reports any process still parked when
the queues drain.  Hand-written test processes use ``Delay`` and
``Future`` freely.

Events are totally ordered by ``(time, tiebreak)``.  Time is float seconds.
Determinism: ties are broken by a monotonically increasing sequence number,
so identical programs replay identically — a property the output-equivalence
tests rely on (see ``docs/engine-internals.md``).

Two structures implement that order:

- an **at-now FIFO** (a deque) for the dominant "run at the current
  instant" events — deferred re-entries, future resolutions, zero-delays,
  spawns.  These are appended and popped in O(1) with no key comparison at
  all: every at-now event is by construction newer (larger sequence
  number) than anything already queued for the current instant.
- a **binary heap** (``heapq``) for timed events, keyed by
  ``(time, seq)``.

Events are plain tuples — ``(seq, target, value)`` in the FIFO,
``(time, seq, target, value)`` in the heap — where ``target`` is either a
:class:`Process` to resume with ``value`` or a zero-arg callable, so no
event allocates a closure.  Sequence numbers are unique, so the heap never
compares past ``seq``.

The test oracle ``tests/oracles/sim_kernel.py::ReferenceSimKernel`` keeps
every event, at-now ones included, in one heap of closures: the
differential ordering property test replays random event storms on both
kernels and asserts identical execution traces.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional, Tuple, Union

#: Type of the generator coroutines driven by the kernel.  Processes yield
#: Delay or Future instances and receive the future's value at resume.
ProcessGen = Generator[Any, Any, Any]


class SimError(RuntimeError):
    """Raised for kernel misuse (bad yields, double resolution, deadlock)."""


class StuckSimulationError(SimError):
    """Raised when the event queues drain while processes are still parked.

    Subclasses :class:`SimError` so existing ``except SimError`` handlers and
    tests keep working; the message names each blocked process and what it
    is waiting on (the parked future's label, plus the receive's source/tag
    when the communication layer attached that detail).
    """

    def __init__(self, stuck: list) -> None:
        self.stuck = stuck
        lines = []
        for proc in stuck:
            fut = getattr(proc, "waiting_on", None)
            if fut is None:
                what = "unknown (never parked on a future)"
            elif isinstance(fut.detail, tuple):
                kind, source, tag, rank = fut.detail
                what = f"{kind}(source={source}, tag={tag}) at rank {rank}"
            else:
                what = fut.detail or f"future {fut.label!r}"
            lines.append(f"{proc.name!r} waiting on {what}")
        super().__init__(
            "deadlock: processes never completed: "
            + "; ".join(lines)
        )


class Delay:
    """Yielded by a process to advance its local time by ``duration`` seconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative delay: {duration}")
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay({self.duration!r})"


class Future:
    """A one-shot value container a process can park on.

    A process yields a Future to suspend; another process (or a kernel
    timer) calls :meth:`resolve` to schedule the waiter's resumption at the
    current simulated time.  Resolving before anyone waits is fine — the
    value is stored and a subsequent yield returns immediately.
    """

    __slots__ = (
        "_kernel", "resolved", "value", "_waiter", "_callback", "label", "detail"
    )

    def __init__(self, kernel: "SimKernel", label: str = "") -> None:
        self._kernel = kernel
        self.resolved = False
        self.value: Any = None
        self._waiter: Optional["Process"] = None
        #: Event-context waiter: invoked with the value at resolve time,
        #: in place of (or in addition to) waking a parked process.  Set
        #: via :meth:`set_callback` by state machines that wait on kernel
        #: events without suspending a generator.
        self._callback = None
        self.label = label
        #: Optional description of what resolving this future means —
        #: text, or a receive's ``(kind, source, tag, rank)`` that
        #: :class:`StuckSimulationError` formats only when a deadlock is
        #: diagnosed (parking a receive then builds no string).
        self.detail: Union[str, Tuple[str, Any, Any, int], None] = None

    def resolve(self, value: Any = None) -> None:
        """Resolve with ``value``; wakes the waiter (if any) at sim-now."""
        if self.resolved:
            raise SimError(f"future {self.label!r} resolved twice")
        self.resolved = True
        self.value = value
        if self._waiter is not None:
            self._kernel._schedule_resume(self._waiter, value)
            self._waiter = None
        if self._callback is not None:
            cb, self._callback = self._callback, None
            cb(value)

    def set_callback(self, fn) -> None:
        """Register ``fn(value)`` to run when this future resolves.

        The callback fires synchronously inside ``resolve()`` — callers
        that may be resolved mid-event (e.g. arrival watchers firing
        during a delivery batch) should defer their real work with
        :meth:`SimKernel.defer` so it runs after the current event
        completes.  If the future is already resolved, ``fn`` runs
        immediately.
        """
        if self.resolved:
            fn(self.value)
        else:
            self._callback = fn

    def _park(self, process: "Process") -> bool:
        """Attach ``process`` as the waiter.  Returns True if already resolved."""
        if self.resolved:
            return True
        if self._waiter is not None:
            raise SimError(f"future {self.label!r} already has a waiter")
        self._waiter = process
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "resolved" if self.resolved else "pending"
        return f"Future({self.label!r}, {state})"


class Process:
    """A running generator coroutine inside the kernel."""

    __slots__ = (
        "gen", "send", "name", "alive", "result", "exception", "waiting_on",
    )

    def __init__(self, gen: ProcessGen, name: str) -> None:
        self.gen = gen
        #: The generator's bound ``send`` — the single hottest call in the
        #: simulation.  Cached once at spawn so every resume skips the
        #: ``proc.gen.send`` double attribute walk (a generator's method
        #: lookup is not cached by the interpreter the way a plain
        #: function's would be).
        self.send = gen.send
        self.name = name
        self.alive = True
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        #: The last unresolved Future this process parked on.  Only written
        #: on the park path (never per-Delay), so the hot loop is untouched;
        #: at deadlock-diagnosis time an alive process with drained queues
        #: is necessarily parked on its most recent future.
        self.waiting_on: Optional[Future] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, alive={self.alive})"


class SimKernel:
    """The event loop: an at-now FIFO, a timed-event heap, process bookkeeping.

    Execution order is exactly ascending ``(time, seq)`` — byte-identical to
    the single-heap reference kernel the ordering tests compare against.
    The split into FIFO and heap relies on two invariants the scheduling
    paths maintain:

    - events scheduled *at* the current instant always enter the FIFO (never
      the heap), so they carry larger sequence numbers than any heap entry
      stamped with the current time;
    - simulated time only advances when the FIFO is empty, so every FIFO
      entry was scheduled at (and runs at) the current ``now``.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._fifo: deque = deque()
        self._heap: list = []
        self._processes: list[Process] = []
        self._n_events = 0
        #: Process resumes executed (``gen.send`` calls).  The batched-inbox
        #: work drives resumes-per-delivered-message toward the
        #: one-per-delivery-event floor; the serving benchmark reads this
        #: counter (against ``Network.n_delivered``) for its gate.
        self.n_resumes = 0

    # -- process management -------------------------------------------------

    def spawn(self, gen: ProcessGen, name: str = "proc") -> Process:
        """Register a generator as a process and schedule its first step now."""
        proc = Process(gen, name)
        self._processes.append(proc)
        self._seq += 1
        self._fifo.append((self._seq, proc, None))
        return proc

    def future(self, label: str = "") -> Future:
        """Create a fresh future bound to this kernel."""
        return Future(self, label)

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule a plain callback at an absolute simulated time."""
        now = self.now
        if time < now:
            raise SimError(f"cannot schedule in the past ({time} < {now})")
        self._seq += 1
        if time == now:
            self._fifo.append((self._seq, fn, None))
        else:
            heappush(self._heap, (time, self._seq, fn, None))

    def defer(self, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at the current instant, after every event already
        queued for it.

        The event-context form of a process resume: a state machine woken
        inside an event (by a delivery listener or a future callback)
        re-enters through here, in the FIFO slot a resumed process would
        have taken, so it acts only once the current event is complete.
        """
        self._seq += 1
        self._fifo.append((self._seq, fn, None))

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule a plain callback ``delay`` seconds from now."""
        self.call_at(self.now + delay, fn)

    # -- event loop ----------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queues.

        Args:
            until: stop once simulated time would exceed this value.  The
                first event past the horizon stays queued, so a later
                ``run()`` resumes exactly where this one stopped.  A
                horizon behind ``now`` leaves the clock unchanged.
            max_events: safety valve against runaway simulations; counts
                cumulatively across ``run`` calls on this kernel.

        The loop ends when no events remain; parked processes that were
        never woken are simply abandoned (engines use a completion future to
        detect success, and tests assert on process liveness).
        """
        fifo = self._fifo
        heap = self._heap
        step = self._step
        popleft = fifo.popleft
        limit = float("inf") if max_events is None else max_events
        n = self._n_events
        now = self.now
        try:
            while True:
                # 1. Same-instant heap entries run before anything in the
                #    FIFO: they were scheduled before `now` was reached, so
                #    they carry strictly smaller sequence numbers.  Running
                #    them cannot add same-instant heap entries (those go to
                #    the FIFO), but it can resolve futures into FIFO slots —
                #    which run after these, in seq order.
                while heap and heap[0][0] == now:
                    _, _, target, value = heappop(heap)
                    n += 1
                    if n > limit:
                        raise SimError(f"exceeded max_events={max_events}")
                    if target.__class__ is Process:
                        step(target, value)
                    else:
                        target()
                # 2. Drain the at-now FIFO.  Events it spawns at the current
                #    instant land in the FIFO (never the heap), so no heap
                #    re-peek is needed per pop.
                while fifo:
                    n += 1
                    if n > limit:
                        raise SimError(f"exceeded max_events={max_events}")
                    _, target, value = popleft()
                    if target.__class__ is Process:
                        step(target, value)
                    else:
                        target()
                # 3. Advance time to the next heap event.
                if not heap:
                    return
                time = heap[0][0]
                if until is not None and time > until:
                    # Horizon reached: leave the event queued for the next
                    # run() call.  Time never runs backwards.
                    if until > now:
                        self.now = until
                    return
                self.now = now = time
        finally:
            self._n_events = n

    @property
    def n_events(self) -> int:
        """Number of events executed so far (profiling / regression aid)."""
        return self._n_events

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event, or None when drained.

        At-now FIFO entries report the current instant.  Pure peek — used
        by incremental drivers (:class:`repro.api.session.ServingSession`)
        to advance a simulation one timestamp batch at a time.
        """
        if self._fifo:
            return self.now
        return self._heap[0][0] if self._heap else None

    def alive_processes(self) -> list[Process]:
        """Processes that have not finished (parked or runnable)."""
        return [p for p in self._processes if p.alive]

    # -- internals -----------------------------------------------------------

    def _schedule_resume(self, proc: Process, value: Any) -> None:
        """Queue ``proc`` to resume with ``value`` at the current instant."""
        self._seq += 1
        self._fifo.append((self._seq, proc, value))

    def _step(self, proc: Process, value: Any) -> None:
        """Advance ``proc`` one yield, interpreting what it yielded.

        Yields dispatch on exact type: processes must yield :class:`Delay`
        or :class:`Future` instances themselves, not subclasses.  The
        dominant yield — a positive :class:`Delay` — is fast-pathed before
        the dispatch chain: one cached bound-method call, one class check,
        one tuple push.
        """
        if not proc.alive:
            return
        self.n_resumes += 1
        try:
            yielded = proc.send(value)
        except StopIteration as stop:
            proc.alive = False
            proc.result = stop.value
            return
        except BaseException as exc:
            proc.alive = False
            proc.exception = exc
            raise
        if yielded.__class__ is Delay:
            time = self.now + yielded.duration
            self._seq += 1
            if time > self.now:
                heappush(self._heap, (time, self._seq, proc, None))
            else:
                # Zero (or underflowing) delay: at-now events take the FIFO
                # so they stay ordered after every queued same-time event.
                self._fifo.append((self._seq, proc, None))
        elif yielded.__class__ is Future:
            if yielded._park(proc):
                # Already resolved: resume immediately with the stored value.
                self._seq += 1
                self._fifo.append((self._seq, proc, yielded.value))
            else:
                proc.waiting_on = yielded
        else:
            proc.alive = False
            raise SimError(
                f"process {proc.name!r} yielded {yielded!r}; expected Delay or Future"
            )


def run_to_completion(kernel: SimKernel, procs: Iterable[Process], max_events: int = 50_000_000) -> None:
    """Run the kernel and assert the given processes all finished.

    Raises:
        StuckSimulationError: if any of ``procs`` is still alive when the
            queues drain — the signature of a deadlock (e.g. a receive no
            send matches).  The message names each blocked process and what
            it is waiting on (parked-future label, receive source/tag).
    """
    kernel.run(max_events=max_events)
    stuck = [p for p in procs if p.alive]
    if stuck:
        raise StuckSimulationError(stuck)
