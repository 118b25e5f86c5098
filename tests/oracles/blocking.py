"""Blocking receive and probe for scripted test processes.

The program never blocks on a receive: its receivers are state machines
that take what is available and otherwise arm a delivery listener
(``repro.comm.mpi_sim.Endpoint.listen``).  Tests that script a neighbour
as a generator process still want ``msg = yield from recv(ep, src, tag)``.
These are those calls, built on the listener API with the semantics of a
parked MPI receive: a match that is already available returns at once;
otherwise the process parks on a future that a one-shot listener resolves
at the delivery — consuming the message there for :func:`recv`, leaving
it available for :func:`probe`.  The future's ``detail`` names the wait,
so a deadlock reports the rank, source and tag.
"""

from __future__ import annotations


def _park(ep, kind: str, source: int, tag, consume: bool):
    fut = ep._net.kernel.future(f"{kind}@{ep.rank}")
    fut.detail = (kind, source, tag, ep.rank)
    ep.listen(tag, fut.resolve, source=source, consume=consume)
    return (yield fut)


def recv(ep, source: int, tag):
    """Blocking receive of the next message from ``source`` on ``tag``
    (one tag or a tuple): ``msg = yield from recv(ep, source, tag)``."""
    msg = ep.try_recv(source, tag)
    if msg is not None:
        return msg
    return (yield from _park(ep, "recv", source, tag, consume=True))


def probe(ep, source: int, tag):
    """Blocking probe: wait for a match and return it without consuming."""
    msg = ep.peek(source, tag)
    if msg is not None:
        return msg
    return (yield from _park(ep, "probe", source, tag, consume=False))
