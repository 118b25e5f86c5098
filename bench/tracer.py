"""Outside-in tracer: spans and counters around each layer's public calls.

The tracer patches functions of the ``repro`` package from outside, so the
program under test is unchanged.  Three kinds of probe exist:

- a **span** wraps a call and records its name, start, end and parent
  span.  Self time (a span's duration minus its child spans' durations)
  is aggregated on the fly per name, so a long run needs no span list;
  the first ``keep`` spans are also kept for a Chrome trace-event file.
- a **count** wraps a very hot call (a kernel timer, a health predicate)
  and only counts it: spanning it would cost more than the call itself.
- a **registry** wraps a class's ``__init__`` and keeps every instance
  created, so the counters those objects already maintain can be read
  after the run.

Generator functions are refused: wrapping one would time only the
creation of the generator, not the work it does when the kernel resumes
it.  A probe naming an attribute that does not exist is an error, so a
rename in the program cannot silently drop a layer from the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def resolve(target: str) -> Tuple[object, str, object]:
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:func"`` -> (owner, attr, value)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    try:
        value = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
    except (KeyError, AttributeError):
        raise LookupError(f"trace probe {target!r} names nothing: was it renamed?") from None
    return owner, attr, value


class Tracer:
    """Spans, counters and instance registries over patched functions."""

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: name -> call count of counted (not spanned) probes.
        self.counts: Dict[str, int] = {}
        #: name -> accumulated value of a span's ``measure`` callback.
        self.measures: Dict[str, float] = {}
        #: registry key -> instances created while tracing.
        self.instances: Dict[str, List[object]] = {}
        #: Kept spans: (name, start, end, parent index or -1).
        self.spans: List[Tuple[str, float, float, int]] = []
        self.n_spans = 0
        self.t0 = perf_counter()
        #: Open spans: [name, start, child seconds, kept index].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> list:
        stack = self._stack
        index = -1
        if self.n_spans < self.keep:
            index = len(self.spans)
            parent = stack[-1][3] if stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
        self.n_spans += 1
        frame = [name, perf_counter(), 0.0, index]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child, index = frame
        dur = end - start
        if stack:
            stack[-1][2] += dur
        row = self.totals.get(name)
        if row is None:
            row = self.totals[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        if index >= 0:
            self.spans[index] = (name, start, end, self.spans[index][3])

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named ``name``."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- patching ----------------------------------------------------------------

    def _install(self, owner, attr: str, original, replacement) -> None:
        """Replace ``original`` on ``owner`` and wherever ``repro`` imported it."""
        targets = [(owner, attr)]
        if not inspect.isclass(owner):
            targets += [
                (mod, attr)
                for name, mod in list(sys.modules.items())
                if mod is not owner
                and (name == "repro" or name.startswith("repro."))
                and getattr(mod, attr, None) is original
            ]
        for obj, name in targets:
            self._patches.append((obj, name, getattr(obj, name)))
            setattr(obj, name, replacement)

    def wrap(self, target: str, name: str, measure: Optional[Callable] = None) -> None:
        """Span every call of ``target`` as ``name``.

        ``measure(*args, **kwargs)`` (optional) returns a number summed into
        :attr:`measures` under ``name`` per call, such as rows per batch.
        """
        owner, attr, func = resolve(target)
        if inspect.isgeneratorfunction(func):
            raise TypeError(
                f"trace probe {target!r} is a generator function: a span would "
                "time only its creation"
            )
        enter, leave, measures = self._enter, self._exit, self.measures

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            if measure is not None:
                measures[name] = measures.get(name, 0) + measure(*args, **kwargs)
            frame = enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                leave(frame)

        self._install(owner, attr, func, spanned)

    def count(self, target: str, name: str) -> None:
        """Count the calls of ``target`` as ``name`` without spanning them."""
        owner, attr, original = resolve(target)
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, counted)

    def register(self, target: str, key: str) -> None:
        """Keep every instance ``target`` (a class) creates under ``key``."""
        cls = resolve(target)[2]
        original = cls.__init__
        bucket = self.instances.setdefault(key, [])

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            bucket.append(obj)

        self._install(cls, "__init__", original, init)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for obj, name, value in reversed(self._patches):
            setattr(obj, name, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------------

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name]
        return int(self.totals.get(name, (0,))[0])

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def chrome(self) -> dict:
        """The kept spans as Chrome trace-event JSON (opens in Perfetto)."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - self.t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": i, "parent": parent},
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        return {
            "traceEvents": events,
            "otherData": {"spans_recorded": self.n_spans, "spans_kept": len(events)},
        }
