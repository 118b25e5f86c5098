"""RequestScheduler admission discipline and Workload validation."""

import pytest

from repro import GenerationJob, Workload
from repro.serve import RequestScheduler


def make_jobs(n):
    return tuple(GenerationJob(prompt=(1, 2, 3), n_generate=4) for _ in range(n))


def fed(workload):
    """A queue holding ``workload``'s requests, pushed in arrival order."""
    sched = RequestScheduler(max_active=workload.max_active)
    for req in workload.requests():
        sched.push(req)
    return sched


class TestWorkload:
    def test_requires_jobs(self):
        with pytest.raises(ValueError):
            Workload(jobs=())

    def test_arrival_length_must_match(self):
        with pytest.raises(ValueError):
            Workload(jobs=make_jobs(3), arrivals=(0.0, 1.0))

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            Workload(jobs=make_jobs(2), arrivals=(0.0, -1.0))

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            Workload(jobs=make_jobs(2), max_active=0)

    def test_default_arrivals_are_zero(self):
        reqs = Workload(jobs=make_jobs(3)).requests()
        assert [r.arrival for r in reqs] == [0.0, 0.0, 0.0]
        assert [r.req_id for r in reqs] == [0, 1, 2]

    def test_requests_sorted_by_arrival_then_id(self):
        reqs = Workload(jobs=make_jobs(3), arrivals=(2.0, 0.5, 0.5)).requests()
        assert [r.req_id for r in reqs] == [1, 2, 0]


class TestScheduler:
    def test_fcfs_pop_order(self):
        sched = fed(Workload(jobs=make_jobs(3), arrivals=(1.0, 0.0, 2.0)))
        assert sched.next_arrival() == 0.0
        assert sched.pop_ready(0.0).req_id == 1
        # Request 0 has not arrived yet at t=0.5.
        assert sched.pop_ready(0.5) is None
        assert sched.pop_ready(1.5).req_id == 0
        assert sched.pop_ready(5.0).req_id == 2
        assert not sched.has_pending()
        assert sched.next_arrival() is None

    def test_completion_bookkeeping(self):
        sched = fed(Workload(jobs=make_jobs(2)))
        sched.pop_ready(0.0)
        sched.pop_ready(0.0)
        assert not sched.all_done()
        sched.on_completed(0, 3.0)
        sched.on_completed(1, 4.0)
        assert sched.all_done()
        assert sched.completed_at == {0: 3.0, 1: 4.0}
        with pytest.raises(ValueError):
            sched.on_completed(0, 5.0)

    def test_concurrency_cap(self):
        sched = fed(Workload(jobs=make_jobs(4), max_active=2))
        assert sched.may_admit(0)
        assert sched.may_admit(1)
        assert not sched.may_admit(2)

    def test_uncapped(self):
        sched = fed(Workload(jobs=make_jobs(2)))
        assert sched.may_admit(10_000)


class TestWorstCaseCellDemand:
    def test_demand_formula(self):
        from repro import EngineConfig, GenerationJob
        from repro.serve.scheduler import worst_case_cell_demand

        cfg = EngineConfig(lookahead_cap=16, microbatch_size=4)
        job = GenerationJob(prompt=tuple(range(1, 9)), n_generate=24)
        assert worst_case_cell_demand(job, cfg) == 8 + 24 + 16 + 4


class TestPriorityAdmission:
    def _sched(self, arrivals, priorities):
        return fed(
            Workload(
                jobs=make_jobs(len(arrivals)),
                arrivals=arrivals,
                priorities=priorities,
            )
        )

    def test_highest_priority_pops_first(self):
        sched = self._sched((0.0, 0.0, 0.0), (0, 3, 1))
        assert sched.pop_ready(0.0).req_id == 1
        assert sched.pop_ready(0.0).req_id == 2
        assert sched.pop_ready(0.0).req_id == 0

    def test_ties_keep_fcfs_order(self):
        sched = self._sched((0.0, 0.0, 0.0), (2, 2, 2))
        assert [sched.pop_ready(0.0).req_id for _ in range(3)] == [0, 1, 2]

    def test_unarrived_priority_cannot_jump(self):
        # The priority-9 request lands at t=5; before then the low
        # priorities are served, after then it preempts the queue.
        sched = self._sched((0.0, 0.0, 5.0), (0, 1, 9))
        assert sched.pop_ready(0.0).req_id == 1
        assert sched.pop_ready(6.0).req_id == 2
        assert sched.pop_ready(6.0).req_id == 0

    def test_peek_matches_pop(self):
        sched = self._sched((0.0, 0.0), (1, 4))
        peeked = sched.peek_ready(0.0)
        assert peeked is sched.pop_ready(0.0)
        assert peeked.req_id == 1


class TestCancelQueued:
    def test_cancel_removes_and_counts_toward_done(self):
        sched = fed(Workload(jobs=make_jobs(2)))
        gone = sched.cancel_queued(1)
        assert gone is not None and gone.req_id == 1
        assert sched.pop_ready(0.0).req_id == 0
        assert sched.pop_ready(0.0) is None
        assert not sched.all_done()
        sched.on_completed(0, 1.0)
        assert sched.all_done()

    def test_cancel_unknown_or_admitted_returns_none(self):
        sched = fed(Workload(jobs=make_jobs(1)))
        assert sched.cancel_queued(7) is None
        sched.pop_ready(0.0)
        # Already admitted: no longer queued, the head owns it now.
        assert sched.cancel_queued(0) is None
