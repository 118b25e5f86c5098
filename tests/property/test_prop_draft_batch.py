"""Differential property test: batched draft proposals == sequential.

The draft scheduler's contract mirrors the fusion window's: evaluating
several chains' one-token draft decodes as one cross-chain batch
(:meth:`~repro.engines.backend.Backend.propose_multi`) must be
observationally identical to proposing for each chain alone, in order:

- identical proposed tokens per chain, confidences within float
  re-association noise (<= 1e-10: the only divergence is the shared cell
  compaction of the draft plane's attention kernel);
- identical per-chain draft-plane KV metadata afterwards (cached token
  lists, per-sequence positions);
- correct incremental behaviour across interleaved appends,
  reconciliation trims, and mid-batch chain release (a request cancelled
  between rounds), with the remaining chains unaffected.

Chains are driven both by hand-built scenarios and a seeded random walk
mimicking the serving head's draft rounds.
"""

import numpy as np
import pytest

from repro.engines.backend import FunctionalBackend
from repro.models.transformer import TinyTransformer, perturbed_copy
from tests.conftest import TINY_CFG

CONF_ATOL = 1e-10


def make_backend():
    target = TinyTransformer(TINY_CFG)
    draft = perturbed_copy(target, noise=0.15, seed=9)
    return FunctionalBackend(target, draft, n_cells=64)


def plane_snapshot(backend):
    """Per-sequence metadata of the shared draft plane."""
    plane = backend._plane()
    return {
        seq: (list(toks), plane.cache.seq_positions(seq))
        for seq, toks in sorted(plane.tokens.items())
    }


def assert_proposals_match(batched, sequential):
    assert [t for t, _ in batched] == [t for t, _ in sequential]
    np.testing.assert_allclose(
        [c for _, c in batched], [c for _, c in sequential],
        atol=CONF_ATOL, rtol=0,
    )


class TestBatchedEqualsSequential:
    def test_fresh_chains(self):
        prefixes = [[3, 1, 4], [1, 5, 9, 2], [6, 5], [3, 1, 4]]
        be_batch, be_seq = make_backend(), make_backend()
        chains_b = [be_batch.new_chain(p) for p in prefixes]
        chains_s = [be_seq.new_chain(p) for p in prefixes]
        batched = be_batch.propose_multi(chains_b)
        sequential = [be_seq.propose(c) for c in chains_s]
        assert_proposals_match(batched, sequential)
        assert plane_snapshot(be_batch) == plane_snapshot(be_seq)

    def test_full_recompute_reference(self):
        """The plane's incremental decode matches an uncached forward."""
        be = make_backend()
        prefixes = [[3, 1, 4], [1, 5, 9, 2, 6], [7, 7, 7]]
        chains = [be.new_chain(p) for p in prefixes]
        batched = be.propose_multi(chains)
        for prefix, (token, conf) in zip(prefixes, batched):
            logits = be._draft_logits(prefix)
            from repro.models.sampler import softmax_probs

            probs = softmax_probs(logits)
            assert token == int(np.argmax(probs))
            assert conf == pytest.approx(float(probs[token]), abs=1e-9)

    def test_incremental_rounds_with_appends(self):
        """Lockstep rounds: every chain appends its proposal and re-proposes."""
        prefixes = [[2, 4, 6], [1, 3, 5, 7], [8, 8]]
        be_batch, be_seq = make_backend(), make_backend()
        chains_b = [be_batch.new_chain(p) for p in prefixes]
        chains_s = [be_seq.new_chain(p) for p in prefixes]
        for _ in range(4):
            batched = be_batch.propose_multi(chains_b)
            sequential = [be_seq.propose(c) for c in chains_s]
            assert_proposals_match(batched, sequential)
            for chain, (tok, _) in zip(chains_b, batched):
                chain.append(tok)
            for chain, (tok, _) in zip(chains_s, sequential):
                chain.append(tok)
        assert plane_snapshot(be_batch) == plane_snapshot(be_seq)

    def test_reconcile_trims_stale_suffix(self):
        """A diverged chain re-decodes only past the common prefix."""
        be_batch, be_seq = make_backend(), make_backend()
        chains_b = [be_batch.new_chain([5, 6, 7]), be_batch.new_chain([9, 9])]
        chains_s = [be_seq.new_chain([5, 6, 7]), be_seq.new_chain([9, 9])]
        be_batch.propose_multi(chains_b)
        for c in chains_s:
            be_seq.propose(c)
        # Simulate verification rejecting drafted suffixes: reconcile the
        # first chain onto a different continuation.
        for cs in (chains_b, chains_s):
            cs[0].append(11)
            cs[0].append(12)
            cs[0].reconcile([5, 6, 7, 20], 3)
        batched = be_batch.propose_multi(chains_b)
        sequential = [be_seq.propose(c) for c in chains_s]
        assert_proposals_match(batched, sequential)
        assert plane_snapshot(be_batch) == plane_snapshot(be_seq)

    def test_mid_batch_release_leaves_others_intact(self):
        """Releasing one chain (request cancelled/finished between rounds)
        frees its plane state and never perturbs the survivors."""
        prefixes = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        be_batch, be_seq = make_backend(), make_backend()
        chains_b = [be_batch.new_chain(p) for p in prefixes]
        chains_s = [be_seq.new_chain(p) for p in prefixes]
        assert_proposals_match(
            be_batch.propose_multi(chains_b),
            [be_seq.propose(c) for c in chains_s],
        )
        released = chains_b.pop(1)
        be_batch.release_chain(released)
        be_seq.release_chain(chains_s.pop(1))
        assert released.draft_seq is None
        batched = be_batch.propose_multi(chains_b)
        sequential = [be_seq.propose(c) for c in chains_s]
        assert_proposals_match(batched, sequential)
        assert plane_snapshot(be_batch) == plane_snapshot(be_seq)

    def test_released_seq_id_is_reused(self):
        be = make_backend()
        a, b = be.new_chain([1, 2]), be.new_chain([3, 4])
        be.propose_multi([a, b])
        freed = a.draft_seq
        be.release_chain(a)
        c = be.new_chain([5, 6])
        be.propose_multi([b, c])
        assert c.draft_seq == freed

    @pytest.mark.parametrize("seed", range(8))
    def test_random_round_walk(self, seed):
        """Serving-shaped random walk: rounds of propose_multi over a
        changing population — appends, reconciles, releases, arrivals."""
        rng = np.random.default_rng(seed)
        be_batch, be_seq = make_backend(), make_backend()
        chains_b, chains_s = [], []
        next_tok = 0

        def new_prefix():
            n = int(rng.integers(2, 6))
            return [int(t) for t in rng.integers(0, TINY_CFG.vocab, n)]

        for _ in range(3):
            p = new_prefix()
            chains_b.append(be_batch.new_chain(list(p)))
            chains_s.append(be_seq.new_chain(list(p)))
        for _ in range(10):
            action = rng.random()
            if action < 0.15 and len(chains_b) > 1:
                i = int(rng.integers(0, len(chains_b)))
                be_batch.release_chain(chains_b.pop(i))
                be_seq.release_chain(chains_s.pop(i))
            elif action < 0.3:
                p = new_prefix()
                chains_b.append(be_batch.new_chain(list(p)))
                chains_s.append(be_seq.new_chain(list(p)))
            elif action < 0.45:
                i = int(rng.integers(0, len(chains_b)))
                keep = max(1, len(chains_b[i].tokens) - int(rng.integers(1, 3)))
                truth = chains_b[i].tokens[:keep] + [int(rng.integers(0, TINY_CFG.vocab))]
                common = chains_b[i].common_prefix(truth, 0)
                chains_b[i].reconcile(list(truth), common)
                chains_s[i].reconcile(list(truth), common)
            batched = be_batch.propose_multi(chains_b)
            sequential = [be_seq.propose(c) for c in chains_s]
            assert_proposals_match(batched, sequential)
            for cb, cs, (tok, _) in zip(chains_b, chains_s, batched):
                if rng.random() < 0.7:
                    cb.append(tok)
                    cs.append(tok)
            next_tok += 1
        assert plane_snapshot(be_batch) == plane_snapshot(be_seq)

    def test_batched_top1_kernel_matches_per_row_softmax(self):
        """The fused top-1+confidence kernel == a full softmax per row.

        ``propose_multi`` replaced its per-chain ``softmax_probs`` loop
        with one :func:`repro.models.sampler.batched_top1` pass over the
        round's logits; tokens must be identical and confidences within
        1e-10 of the per-row reference for arbitrary logit matrices.
        """
        from repro.models.sampler import batched_top1, softmax_probs

        rng = np.random.default_rng(3)
        for shape in [(1, 7), (5, 128), (16, 33), (8, 1)]:
            logits = rng.normal(scale=6.0, size=shape)
            # Mix in extreme rows: near-ties and large dynamic range.
            logits[0] = np.round(logits[0], 1)
            tokens, confs = batched_top1(logits)
            for row, tok, conf in zip(logits, tokens, confs):
                probs = softmax_probs(row)
                assert int(tok) == int(np.argmax(probs))
                assert abs(float(conf) - float(probs[int(tok)])) <= CONF_ATOL

    def test_propose_single_routes_through_batched_kernel(self):
        """propose() and propose_multi([chain]) are the same code path —
        identical results bit for bit."""
        be_a, be_b = make_backend(), make_backend()
        ca, cb = be_a.new_chain([4, 2, 9]), be_b.new_chain([4, 2, 9])
        assert be_a.propose(ca) == be_b.propose_multi([cb])[0]

    def test_plane_grows_past_initial_capacity(self):
        """Long chains force the shared cache to grow in place; proposals
        stay identical to a sequential backend with an ample plane."""
        from repro.engines.backend import _DraftPlane

        be_batch, be_seq = make_backend(), make_backend()
        be_batch._draft_plane = _DraftPlane(be_batch.draft, n_cells=16)
        long_prefix = [int(x) % TINY_CFG.vocab for x in range(90)]
        chains_b = [be_batch.new_chain(list(long_prefix)),
                    be_batch.new_chain(list(reversed(long_prefix)))]
        chains_s = [be_seq.new_chain(list(long_prefix)),
                    be_seq.new_chain(list(reversed(long_prefix)))]
        batched = be_batch.propose_multi(chains_b)
        sequential = [be_seq.propose(c) for c in chains_s]
        assert_proposals_match(batched, sequential)
        assert be_batch._draft_plane.cache.n_cells >= 180
        assert be_batch._draft_plane.cache.grow(8) >= 180  # never shrinks
