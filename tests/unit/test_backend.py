"""Backend plumbing: chain state, oracle backend, functional backend."""

import pytest

from repro.cluster.testbed import cluster_c
from repro.engines.backend import (
    UNBUDGETED_MEMORY_CELLS,
    ChainState,
    FunctionalBackend,
    OracleBackend,
)
from repro.models.oracle import OracleLM
from repro.models.zoo import get_pair


class TestChainState:
    def test_append_tracks_states(self):
        o = OracleLM(seed=1)
        chain = ChainState([1, 2], oracle=o)
        chain.append(3)
        assert chain.state_after(3) == o.init_state([1, 2, 3])
        assert chain.state_after(0) == o.init_state(())

    def test_reconcile_pure_extension(self):
        o = OracleLM(seed=1)
        chain = ChainState([1, 2], oracle=o)
        chain.reconcile([1, 2, 3, 4], 2)
        assert chain.tokens == [1, 2, 3, 4]
        assert chain.state_after(4) == o.init_state([1, 2, 3, 4])

    def test_reconcile_divergence_truncates(self):
        o = OracleLM(seed=1)
        chain = ChainState([1, 2, 5, 6], oracle=o)
        chain.reconcile([1, 2, 9], 2)
        assert chain.tokens == [1, 2, 9]
        assert chain.state_after(3) == o.init_state([1, 2, 9])

    # Verification's reconcile step: the chain starts with accepted[:old_len]
    # on entry, so the scan starts at old_len.  Each case checks the O(new)
    # scan and the in-place reconcile against a full scan from position 0
    # and a chain rebuilt from scratch.

    @staticmethod
    def full_scan(tokens, truth):
        common = 0
        while common < min(len(tokens), len(truth)) and tokens[common] == truth[common]:
            common += 1
        return common

    def check_reconcile(self, chain_tokens, accepted, old_len):
        o = OracleLM(seed=3)
        chain = ChainState(chain_tokens, oracle=o)
        common = chain.common_prefix(accepted, old_len)
        assert common == self.full_scan(chain_tokens, accepted)
        chain.reconcile(accepted, common)
        ref = ChainState(accepted, oracle=o)
        assert chain.tokens == ref.tokens
        assert [chain.state_after(i) for i in range(len(chain) + 1)] == [
            ref.state_after(i) for i in range(len(ref) + 1)
        ]
        return common

    def test_divergence_at_old_len(self):
        # Drafted 7, 8 past accepted [1, 2]; verification accepted 9 instead.
        assert self.check_reconcile([1, 2, 7, 8], [1, 2, 9], old_len=2) == 2

    def test_divergence_after_new_matches(self):
        assert self.check_reconcile([1, 2, 7, 8, 6], [1, 2, 7, 9], old_len=2) == 3

    def test_pure_extension_within_chain(self):
        # Every newly accepted token was the drafted one: no divergence.
        assert self.check_reconcile([1, 2, 7, 8, 6], [1, 2, 7, 8], old_len=2) == 4

    def test_chain_shorter_than_accepted(self):
        # Verification ran past the drafted chain: the chain is a prefix.
        assert self.check_reconcile([1, 2, 7], [1, 2, 7, 8, 5], old_len=2) == 3

    def test_functional_chain_has_no_states(self):
        chain = ChainState([1, 2], oracle=None)
        with pytest.raises(RuntimeError):
            chain.state_after(1)


class TestOracleBackend:
    @pytest.fixture()
    def backend(self):
        cluster = cluster_c(4)
        return OracleBackend(get_pair("dolphin+tinyllama"), head_node=cluster.nodes[0])

    def test_propose_deterministic(self, backend):
        a = backend.propose(backend.new_chain([1, 2, 3]))
        b = backend.propose(backend.new_chain([1, 2, 3]))
        assert a == b

    def test_slot_states_align_with_chain(self, backend):
        chain = backend.new_chain([1, 2, 3, 4])
        states = backend.slot_states(chain, 1, 2)
        assert states == [chain.state_after(2), chain.state_after(3)]

    def test_draft_cheaper_than_target_stage(self, backend):
        cluster = cluster_c(4)
        node = cluster.nodes[0]
        target_stage = sum(backend.stage_chunks(node, (0, 20), 1))
        assert backend.draft_token_time() < target_stage

    def test_pipeline_draft_costlier_than_local(self, backend):
        cluster = cluster_c(8)
        local = backend.draft_token_time()
        piped = backend.draft_pipeline_token_time(cluster.nodes, cluster.link_spec.latency)
        assert piped > local

    def test_stage_chunks_cover_layers(self, backend):
        node = cluster_c(1).nodes[0]
        chunks = backend.stage_chunks(node, (0, 10), 1)
        # probe granularity of 4 layers -> 3 chunks for 10 layers.
        assert len(chunks) == 3
        assert all(c > 0 for c in chunks)

    def test_message_sizes(self, backend):
        arch = get_pair("dolphin+tinyllama").target_arch
        assert backend.activation_nbytes(2) == 2 * arch.d_model * 4.0
        assert backend.logits_nbytes(3) == 3 * arch.vocab * 4.0

    def test_memory_roles(self, backend):
        draft_only = backend.node_memory(None, hosts_draft=True)
        shard = backend.node_memory((0, 40), hosts_draft=False)
        both = backend.node_memory((0, 40), hosts_draft=True)
        assert both > shard > draft_only

    def test_memory_counts_the_cell_budget(self, backend):
        """An unbudgeted shard is charged for UNBUDGETED_MEMORY_CELLS cells;
        a budgeted one for its budget."""
        budgeted = OracleBackend(
            backend.pair, head_node=backend.head_node, n_cells=UNBUDGETED_MEMORY_CELLS // 2
        )
        full = backend.node_memory((0, 40), hosts_draft=False)
        half = budgeted.node_memory((0, 40), hosts_draft=False)
        kv = backend.target_cost.kv_bytes(40, UNBUDGETED_MEMORY_CELLS)
        assert full - half == pytest.approx(kv / 2)

    def test_acceptance_override(self):
        cluster = cluster_c(2)
        be = OracleBackend(
            get_pair("dolphin+tinyllama"), head_node=cluster.nodes[0],
            acceptance_override=1.0,
        )
        chain = be.new_chain([5, 6, 7])
        tok, _ = be.propose(chain)
        assert tok == be.oracle.next_token([5, 6, 7])


class TestFunctionalBackend:
    def test_vocab_mismatch_rejected(self, tiny_target):
        from repro.models.transformer import TinyTransformer, TransformerConfig

        other = TinyTransformer(TransformerConfig(vocab=64, d_model=32, n_layers=2,
                                                  n_heads=4, n_kv_heads=2, d_ff=48))
        with pytest.raises(ValueError):
            FunctionalBackend(tiny_target, other)

    def test_memory_counts_the_cells_a_shard_holds(self, tiny_target, tiny_draft):
        small = FunctionalBackend(tiny_target, tiny_draft, n_cells=256)
        large = FunctionalBackend(tiny_target, tiny_draft, n_cells=512)
        ws = small.make_worker_state(1, (0, 2), True, True)
        assert ws.cache.n_cells == 256
        extra = large.node_memory((0, 2), False) - small.node_memory((0, 2), False)
        assert extra == 256 * tiny_target.cfg.kv_dim * 8.0

    def test_propose_returns_probability(self, functional_backend):
        tok, conf = functional_backend.propose(functional_backend.new_chain([1, 2]))
        assert 0 <= tok < functional_backend.vocab
        assert 0.0 < conf < 1.0

    def test_alternatives_sorted(self, functional_backend):
        alts = functional_backend.propose_alternatives([1, 2], 3)
        confs = [c for _, c in alts]
        assert confs == sorted(confs, reverse=True)
