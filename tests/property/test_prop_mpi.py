"""MPI ordering properties under randomized traffic.

The receiver is a standing consuming listener on every tag the plan uses,
the way the pipeline worker takes its cancels: it sees each message at the
delivery that non-overtaking releases it at.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.kernel import SimKernel
from repro.cluster.testbed import cluster_a
from repro.comm.mpi_sim import Network

# Random message plans: (tag, nbytes).  Mixed sizes force both link lanes.
messages = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from([8.0, 100.0, 2e5, 5e6])),
    min_size=1,
    max_size=20,
)


def deliver(plan):
    """Send ``plan`` from rank 0 to rank 1 at t=0; return the messages
    rank 1's listener took, in the order it took them."""
    k = SimKernel()
    net = Network(k, cluster_a(2))
    received = []
    net.endpoint(1).listen((1, 2, 3), received.append, consume=True, standing=True)
    ep = net.endpoint(0)
    for i, (tag, nbytes) in enumerate(plan):
        ep.send(i, 1, tag, nbytes=nbytes)
    k.run()
    assert not net.endpoint(1)._available  # every message was taken
    return received, net


@settings(max_examples=60, deadline=None)
@given(messages)
def test_per_tag_fifo_order(plan):
    """For every (src, dst, tag) stream, receive order equals send order,
    regardless of lane races between streams."""
    received, _ = deliver(plan)
    assert len(received) == len(plan)
    for tag in {t for t, _ in plan}:
        sent_ids = [i for i, (t, _) in enumerate(plan) if t == tag]
        recv_ids = [msg.payload for msg in received if msg.tag == tag]
        assert recv_ids == sent_ids


@settings(max_examples=40, deadline=None)
@given(messages)
def test_no_message_lost_or_duplicated(plan):
    received, _ = deliver(plan)
    assert sorted(msg.payload for msg in received) == list(range(len(plan)))


@settings(max_examples=40, deadline=None)
@given(messages)
def test_delivery_times_not_before_latency(plan):
    received, net = deliver(plan)
    latency = net.cluster.link_spec.latency
    assert all(msg.delivered_at - msg.sent_at >= latency for msg in received)
