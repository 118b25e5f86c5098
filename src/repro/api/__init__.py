"""Streaming serving front-end: token streams, cancellation, SLOs.

The :mod:`repro.api` package layers an OpenAI-style streaming surface on
the discrete-event serving core:

- :class:`TokenStream` / :class:`StreamHub` — per-request streams fed by
  the serving head at the sim instant verification accepts each token;
- :class:`ServingSession` — incremental submit/step/cancel driving of a
  serving cluster (submitting a whole workload and draining reproduces
  the batch ``run_serving`` report, streams recorded);
- :class:`AsyncFrontend` — an in-process async client multiplexing
  concurrent connections over one cluster, with disconnect-cancel.
"""

from repro.api.frontend import AsyncFrontend
from repro.api.session import ServingSession
from repro.api.stream import StreamHub, TokenStream

__all__ = [
    "AsyncFrontend",
    "ServingSession",
    "StreamHub",
    "TokenStream",
]
