"""Drafting policies: cutoff halting, budgets, branching."""

import pytest

from repro.spec.draft import DraftParams, draft_tree

from oracles.tree import is_chain


class ScriptedDrafter:
    """Drafter returning scripted (token, confidence) per call; its tree
    cursor is the token list."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def propose_alternatives(self, prefix, n):
        tok, conf = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        return [(tok + i, conf * (0.5**i)) for i in range(n)]

    def advance_cursor(self, prefix, token):
        return prefix + [token]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DraftParams(max_tokens=0)
        with pytest.raises(ValueError):
            DraftParams(cutoff=1.5)
        with pytest.raises(ValueError):
            DraftParams(branch_width=0)


class TestTreeDrafting:
    def test_chain_when_width_one(self):
        d = ScriptedDrafter([(1, 0.9), (2, 0.9), (3, 0.9), (4, 0.9)])
        tree = draft_tree(d, [0], 5, DraftParams(max_tokens=3, cutoff=0.1, branch_width=1))
        assert is_chain(tree)
        assert len(tree) == 3
        assert tree.base_pos == 5

    def test_branches_when_competitive(self):
        d = ScriptedDrafter([(10, 0.5)])
        params = DraftParams(max_tokens=4, cutoff=0.1, branch_width=2, branch_margin=0.5)
        tree = draft_tree(d, [0], 0, params)
        assert len(tree.roots()) == 2  # 0.5 and 0.25 within margin 0.5

    def test_no_branch_when_margin_tight(self):
        d = ScriptedDrafter([(10, 0.9)])
        params = DraftParams(max_tokens=4, cutoff=0.1, branch_width=2, branch_margin=0.05)
        tree = draft_tree(d, [0], 0, params)
        assert len(tree.roots()) == 1  # second candidate (0.45) outside margin

    def test_empty_tree_below_cutoff(self):
        d = ScriptedDrafter([(10, 0.05)])
        tree = draft_tree(d, [0], 0, DraftParams(cutoff=0.5))
        assert len(tree) == 0

    def test_budget_cap(self):
        d = ScriptedDrafter([(10, 0.9)])
        params = DraftParams(max_tokens=5, cutoff=0.1, branch_width=2, branch_margin=0.9)
        tree = draft_tree(d, [0], 0, params)
        assert len(tree) == 5
