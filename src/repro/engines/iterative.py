"""Pipeline-parallel iterative inference: the paper's distributed baseline.

Every node holds a contiguous slice of the target model and runs it in a
:func:`~repro.engines.worker.pipeline_worker`, rank 0 included.  The head
holds no layers and drafts nothing: it serves one request at a time
through the one head loop (:func:`repro.serve.head.serving_head`), hands
the tip token to the first stage as a canonical run (over the zero-cost
loopback link, since it shares rank 0), and samples the logits the last
rank returns.  One token per full pipeline traversal — the design whose
bubbles PipeInfer fills.
"""

from __future__ import annotations

from repro.engines.base import BaseEngine


class IterativeEngine(BaseEngine):
    """Naive pipeline-parallel decoding, one token per traversal."""

    name = "iterative"
