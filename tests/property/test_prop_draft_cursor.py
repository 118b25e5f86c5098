"""Cursor tree drafting equals prefix tree drafting on the oracle backend.

The oracle backend drafts Speculative's trees from rolling-state cursors,
one ``advance`` per tree edge.  The reference drafts the same trees from
token lists and re-hashes every node's full prefix (``init_state``), as
tree drafting did before cursors.  Tokens, confidences, shapes and the
verification slot states must all agree.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro import OracleBackend, cluster_c, get_pair
from repro.spec.draft import DraftParams, draft_tree

from oracles.tree import path_tokens

PAIR = "dolphin+tinyllama"


@lru_cache(maxsize=None)
def backend(seed: int) -> OracleBackend:
    return OracleBackend(get_pair(PAIR), head_node=cluster_c(2).nodes[0], seed=seed)


class PrefixDrafter:
    """Tree drafting over token lists: every proposal hashes its prefix."""

    def __init__(self, be: OracleBackend) -> None:
        self.be = be

    def propose_alternatives(self, prefix, n):
        return self.be.propose_alternatives(self.be.oracle.init_state(prefix), n)

    def advance_cursor(self, prefix, token):
        return prefix + [token]


def shape(tree):
    return [(n.token, n.confidence, n.parent, n.pos) for n in tree.nodes]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2),
    prompt=st.lists(st.integers(0, 31999), min_size=1, max_size=48),
    width=st.integers(2, 3),
    max_tokens=st.integers(1, 10),
    cutoff=st.floats(0.0, 0.6),
    margin=st.floats(0.0, 1.0),
)
def test_cursor_tree_matches_prefix_tree(seed, prompt, width, max_tokens, cutoff, margin):
    be = backend(seed)
    params = DraftParams(
        max_tokens=max_tokens, cutoff=cutoff, branch_width=width, branch_margin=margin
    )
    chain = be.new_chain(prompt)
    tip_pos = len(prompt) - 1
    tree = draft_tree(be, be.draft_cursor(chain), tip_pos, params)
    ref = draft_tree(PrefixDrafter(be), list(prompt), tip_pos, params)
    assert shape(tree) == shape(ref)
    # Speculative's verification slot states: the tip's from the chain,
    # then each node's cursor.
    states = be.slot_states(chain, tip_pos, 1) + [n.cursor for n in tree.nodes]
    full_prefixes = [list(prompt)] + [n.cursor for n in ref.nodes]
    assert states == [be.oracle.init_state(p) for p in full_prefixes]
    for i, node in enumerate(ref.nodes):
        assert node.cursor == list(prompt) + path_tokens(ref, i)
