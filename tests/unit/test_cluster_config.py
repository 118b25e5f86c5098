"""ClusterConfig validation, Router policy units, and replica-queue mechanics.

Router tests drive the policies against duck-typed fake replicas (a
``depth`` and a ``prefix_match_tokens``), so placement logic is pinned
without simulating a pipeline.
"""

import pytest

from repro.engines.base import EngineConfig, GenerationJob
from repro.serve import ClusterConfig, RequestScheduler, RoutingPolicy
from repro.serve.cluster import EngineCluster, Router, _materialize
from repro.serve.scheduler import Request


def req(req_id, prompt=(5, 6, 7), arrival=0.0, session=None):
    return Request(
        req_id=req_id,
        job=GenerationJob(prompt=tuple(prompt), n_generate=4),
        arrival=arrival,
        session=session,
    )


class FakeReplica:
    def __init__(self, replica_id, depth=0, matches=None):
        self.replica_id = replica_id
        self.depth = depth
        self._matches = matches or {}

    def prefix_match_tokens(self, prompt):
        return self._matches.get(tuple(prompt), 0)


class TestClusterConfig:
    def test_defaults_valid(self):
        cfg = ClusterConfig()
        assert cfg.n_replicas == 1
        assert cfg.routing is RoutingPolicy.LEAST_LOADED

    def test_routing_accepts_string(self):
        assert ClusterConfig(routing="random").routing is RoutingPolicy.RANDOM

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            ClusterConfig(routing="coin_flip")

    def test_nonpositive_replicas_rejected(self):
        with pytest.raises(ValueError, match="n_replicas"):
            ClusterConfig(n_replicas=0)

    def test_bad_affinity_rejected(self):
        with pytest.raises(ValueError, match="affinity"):
            ClusterConfig(affinity="sticky")

    def test_nonpositive_queue_cap_rejected(self):
        with pytest.raises(ValueError, match="queue_cap"):
            ClusterConfig(queue_cap=0)

    def test_migration_requires_queue_cap(self):
        with pytest.raises(ValueError, match="migration needs queue_cap"):
            ClusterConfig(migration=True)

    def test_prefix_affinity_requires_prefix_cache(self):
        with pytest.raises(ValueError, match="prefix_cache"):
            EngineCluster(
                object,
                [object()],
                [object()],
                cluster_config=ClusterConfig(routing="prefix_affinity"),
                config=EngineConfig(prefix_cache=False),
            )


class TestMaterialize:
    def test_factory_called_per_replica(self):
        items = _materialize(lambda: object(), 3, "backends")
        assert len(items) == 3
        assert len({id(i) for i in items}) == 3

    def test_sequence_length_checked(self):
        with pytest.raises(ValueError, match="need 3 backends"):
            _materialize([object()], 3, "backends")

    def test_shared_instance_rejected(self):
        shared = object()
        with pytest.raises(ValueError, match="must not share"):
            _materialize([shared, shared], 2, "backends")


class TestRouterPolicies:
    def test_random_deterministic_for_seed(self):
        cfg = ClusterConfig(n_replicas=4, routing="random", affinity="none")
        reps = [FakeReplica(i) for i in range(4)]
        a = [Router(cfg).route(req(i), reps) for i in range(16)]
        b = [Router(cfg).route(req(i), reps) for i in range(16)]
        assert a == b
        assert len(set(a)) > 1  # spreads across replicas

    def test_random_seed_changes_placement(self):
        reps = [FakeReplica(i) for i in range(4)]
        a = [
            Router(
                ClusterConfig(n_replicas=4, routing="random", affinity="none", seed=0)
            ).route(req(i), reps)
            for i in range(16)
        ]
        b = [
            Router(
                ClusterConfig(n_replicas=4, routing="random", affinity="none", seed=1)
            ).route(req(i), reps)
            for i in range(16)
        ]
        assert a != b

    def test_round_robin_cycles(self):
        cfg = ClusterConfig(n_replicas=3, routing="round_robin", affinity="none")
        router = Router(cfg)
        reps = [FakeReplica(i) for i in range(3)]
        got = [router.route(req(i), reps) for i in range(6)]
        assert got == [0, 1, 2, 0, 1, 2]

    def test_prompt_hash_groups_identical_prompts(self):
        cfg = ClusterConfig(n_replicas=4, routing="prompt_hash", affinity="none")
        router = Router(cfg)
        reps = [FakeReplica(i) for i in range(4)]
        same = [router.route(req(i, prompt=(9, 9, 9)), reps) for i in range(4)]
        assert len(set(same)) == 1

    def test_least_loaded_picks_min_depth_tie_lowest_id(self):
        cfg = ClusterConfig(n_replicas=3, routing="least_loaded", affinity="none")
        router = Router(cfg)
        reps = [FakeReplica(0, depth=2), FakeReplica(1, depth=1), FakeReplica(2, depth=1)]
        assert router.route(req(0), reps) == 1

    def test_prefix_affinity_deepest_match_wins(self):
        cfg = ClusterConfig(n_replicas=3, routing="prefix_affinity", affinity="none")
        router = Router(cfg)
        prompt = (1, 2, 3, 4)
        reps = [
            FakeReplica(0, depth=0, matches={prompt: 2}),
            FakeReplica(1, depth=9, matches={prompt: 3}),
            FakeReplica(2, depth=0),
        ]
        # The warm replica wins even though it is the most loaded.
        assert router.route(req(0, prompt=prompt), reps) == 1

    def test_prefix_affinity_tie_breaks_to_session_home(self):
        cfg = ClusterConfig(n_replicas=3, routing="prefix_affinity")
        router = Router(cfg)
        router.session_home[7] = 2
        reps = [FakeReplica(i) for i in range(3)]  # all matches 0: tied
        # session 7 is new to the router's pin map per request, but the
        # home already exists — the tie resolves to it.
        assert router.route(req(0, session=7), reps) == 2

    def test_prefix_affinity_cold_tie_least_loaded(self):
        cfg = ClusterConfig(n_replicas=3, routing="prefix_affinity", affinity="none")
        router = Router(cfg)
        reps = [FakeReplica(0, depth=4), FakeReplica(1, depth=1), FakeReplica(2, depth=4)]
        assert router.route(req(0), reps) == 1


class TestRouterAffinityAndBackpressure:
    def test_session_pins_to_first_landing(self):
        cfg = ClusterConfig(n_replicas=4, routing="round_robin", affinity="session")
        router = Router(cfg)
        reps = [FakeReplica(i) for i in range(4)]
        first = router.route(req(0, session=5), reps)
        later = [router.route(req(i, session=5), reps) for i in range(1, 4)]
        assert set(later) == {first}
        assert router.session_affinity_hits == 3

    def test_untagged_requests_not_pinned(self):
        cfg = ClusterConfig(n_replicas=3, routing="round_robin", affinity="session")
        router = Router(cfg)
        reps = [FakeReplica(i) for i in range(3)]
        got = [router.route(req(i), reps) for i in range(3)]
        assert got == [0, 1, 2]
        assert router.session_affinity_hits == 0

    def test_backpressure_spills_to_least_loaded(self):
        cfg = ClusterConfig(
            n_replicas=3, routing="round_robin", affinity="none", queue_cap=2
        )
        router = Router(cfg)
        reps = [FakeReplica(0, depth=2), FakeReplica(1, depth=0), FakeReplica(2, depth=1)]
        # Round-robin picks 0, but 0 is at the cap: spill to 1.
        assert router.route(req(0), reps) == 1
        assert router.spills == 1

    def test_backpressure_never_drops_when_all_full(self):
        cfg = ClusterConfig(
            n_replicas=2, routing="round_robin", affinity="none", queue_cap=1
        )
        router = Router(cfg)
        reps = [FakeReplica(0, depth=3), FakeReplica(1, depth=5)]
        # Everyone over cap: the least-loaded still takes it.
        assert router.route(req(0), reps) == 0

    def test_session_pin_follows_spill(self):
        cfg = ClusterConfig(
            n_replicas=2, routing="round_robin", affinity="session", queue_cap=1
        )
        router = Router(cfg)
        reps = [FakeReplica(0, depth=4), FakeReplica(1, depth=0)]
        # First turn spills 0 -> 1; the session must pin to where it landed.
        assert router.route(req(0, session=3), reps) == 1
        assert router.session_home[3] == 1


class TestRouterRebalance:
    class FeedReplica:
        """Fake with a real queue so steal/push mechanics are live."""

        def __init__(self, replica_id):
            self.replica_id = replica_id
            self.scheduler = RequestScheduler()

        @property
        def depth(self):
            return self.scheduler.depth

        @property
        def n_waiting(self):
            return self.scheduler.n_waiting

        def admit(self, request, migrated=False):
            self.scheduler.push(request, migrated=migrated)

    def test_steals_from_deep_queue(self):
        cfg = ClusterConfig(
            n_replicas=2, routing="least_loaded", affinity="none",
            queue_cap=1, migration=True,
        )
        router = Router(cfg)
        deep, cool = self.FeedReplica(0), self.FeedReplica(1)
        for i in range(3):
            deep.admit(req(i, arrival=float(i)))
        router.rebalance([deep, cool])
        assert router.migrations > 0
        assert deep.n_waiting + cool.n_waiting == 3  # nothing dropped
        assert deep.n_waiting <= 2

    def test_no_migration_when_balanced(self):
        cfg = ClusterConfig(
            n_replicas=2, routing="least_loaded", affinity="none",
            queue_cap=2, migration=True,
        )
        router = Router(cfg)
        a, b = self.FeedReplica(0), self.FeedReplica(1)
        a.admit(req(0))
        b.admit(req(1))
        router.rebalance([a, b])
        assert router.migrations == 0


class TestReplicaFeed:
    """The push-mode RequestScheduler that feeds each replica's head."""

    def test_push_then_admit_cycle(self):
        feed = RequestScheduler()
        feed.push(req(0, arrival=1.0))
        feed.push(req(1, arrival=2.0))
        assert feed.depth == 2 and feed.n_waiting == 2
        assert feed.next_arrival() == 1.0
        assert feed.pop_ready(1.5).req_id == 0
        assert feed.n_waiting == 1 and feed.depth == 2
        feed.on_completed(0, 3.0)
        assert feed.depth == 1

    def test_stream_open_until_closed(self):
        feed = RequestScheduler()
        assert feed.stream_open()
        feed.close()
        assert not feed.stream_open()
        with pytest.raises(ValueError, match="closed queue"):
            feed.push(req(0))

    def test_out_of_order_push_rejected(self):
        feed = RequestScheduler()
        feed.push(req(0, arrival=5.0))
        with pytest.raises(ValueError, match="arrival order"):
            feed.push(req(1, arrival=4.0))

    def test_migrated_push_skips_order_guard(self):
        feed = RequestScheduler()
        feed.push(req(0, arrival=5.0))
        feed.push(req(1, arrival=4.0), migrated=True)
        assert feed.depth == 2

    def test_steal_tail_only_unadmitted(self):
        feed = RequestScheduler()
        feed.push(req(0, arrival=0.0))
        feed.push(req(1, arrival=1.0))
        assert feed.pop_ready(0.0).req_id == 0
        stolen = feed.steal_tail()
        assert stolen.req_id == 1
        assert feed.steal_tail() is None  # head already admitted

    def test_max_active_cap(self):
        feed = RequestScheduler(max_active=2)
        assert feed.may_admit(1)
        assert not feed.may_admit(2)
