"""Bounded queues: admission, ordering, expiry, workload-filtered take."""

import pytest

from repro.serve.queueing import DeadlineQueue, FifoQueue, make_queue
from repro.serve.requests import Request


def _req(i, t, workload="net", deadline=None):
    return Request(req_id=i, workload=workload, arrival_s=t, deadline_s=deadline)


def test_fifo_orders_by_arrival_then_id():
    q = FifoQueue(capacity=10)
    q.push(_req(2, 1.0))
    q.push(_req(1, 0.5))
    q.push(_req(3, 1.0))
    assert [r.req_id for r in q.peek_all()] == [1, 2, 3]
    assert q.oldest().req_id == 1


def test_bounded_admission_rejects_at_capacity():
    q = FifoQueue(capacity=2)
    assert q.push(_req(0, 0.0))
    assert q.push(_req(1, 0.1))
    assert not q.push(_req(2, 0.2))
    assert q.depth == 2
    assert q.admitted == 2
    assert q.rejected == 1


def test_deadline_queue_serves_most_urgent_first():
    q = DeadlineQueue(capacity=10)
    q.push(_req(0, 0.0, deadline=5.0))
    q.push(_req(1, 0.1, deadline=1.0))
    q.push(_req(2, 0.2))  # no deadline: last
    assert [r.req_id for r in q.peek_all()] == [1, 0, 2]


def test_expire_removes_only_past_deadlines():
    q = FifoQueue(capacity=10)
    q.push(_req(0, 0.0, deadline=1.0))
    q.push(_req(1, 0.0, deadline=3.0))
    q.push(_req(2, 0.0))
    gone = q.expire(2.0)
    assert [r.req_id for r in gone] == [0]
    assert q.depth == 2
    assert q.expire(2.0) == []


def test_take_filters_by_workload_preserving_positions():
    q = FifoQueue(capacity=10)
    q.push(_req(0, 0.0, workload="a"))
    q.push(_req(1, 0.1, workload="b"))
    q.push(_req(2, 0.2, workload="a"))
    q.push(_req(3, 0.3, workload="a"))
    taken = q.take(2, workload="a")
    assert [r.req_id for r in taken] == [0, 2]
    assert [r.req_id for r in q.peek_all()] == [1, 3]


def test_make_queue_and_validation():
    assert isinstance(make_queue("fifo", 4), FifoQueue)
    assert isinstance(make_queue("deadline", 4), DeadlineQueue)
    with pytest.raises(ValueError):
        make_queue("lifo", 4)
    with pytest.raises(ValueError):
        FifoQueue(capacity=0)
    with pytest.raises(ValueError):
        FifoQueue(capacity=4).take(0)


def test_expire_fast_path_without_deadlines():
    q = DeadlineQueue(capacity=8)
    for i in range(4):
        q.push(_req(i, 0.1 * i))
    # No queued request carries a deadline: expire must be a no-op.
    assert q.next_deadline_s is None
    assert q.expire(100.0) == []
    assert q.depth == 4
    assert [r.req_id for r in q.peek_all()] == [0, 1, 2, 3]


def test_deadline_count_tracks_push_expire_take():
    q = DeadlineQueue(capacity=8)
    q.push(_req(0, 0.0, deadline=1.0))
    q.push(_req(1, 0.0))
    q.push(_req(2, 0.0, deadline=5.0))
    assert q.next_deadline_s == 1.0
    expired = q.expire(2.0)
    assert [r.req_id for r in expired] == [0]
    assert q.next_deadline_s == 5.0
    assert q.depth == 2
    taken = q.take(q.depth)
    assert {r.req_id for r in taken} == {1, 2}
    assert q.next_deadline_s is None
    # Nothing that left through take can come back through expire.
    assert q.expire(100.0) == []
    assert q.depth == 0


def test_insort_keeps_equal_urgency_in_id_order():
    q = DeadlineQueue(capacity=8)
    q.push(_req(5, 0.0, deadline=1.0))
    q.push(_req(1, 0.0, deadline=1.0))
    q.push(_req(3, 0.0, deadline=1.0))
    assert [r.req_id for r in q.peek_all()] == [1, 3, 5]


def test_expire_returns_service_order():
    q = DeadlineQueue(capacity=8)
    q.push(_req(4, 0.3, deadline=1.5))
    q.push(_req(2, 0.1, deadline=1.0))
    q.push(_req(7, 0.2, deadline=1.0))
    q.push(_req(1, 0.0, deadline=9.0))
    expired = q.expire(2.0)
    assert [r.req_id for r in expired] == [2, 7, 4]
    assert [r.req_id for r in q.peek_all()] == [1]
    f = FifoQueue(capacity=8)
    f.push(_req(3, 0.2, deadline=0.5))
    f.push(_req(0, 0.1, deadline=0.9))
    f.push(_req(9, 0.0, deadline=0.7))
    assert [r.req_id for r in f.expire(1.0)] == [9, 0, 3]


def test_expire_is_strict_at_the_deadline():
    q = FifoQueue(capacity=4)
    q.push(_req(0, 0.0, deadline=1.0))
    assert q.expire(1.0) == []
    assert q.next_deadline_s == 1.0
    assert [r.req_id for r in q.expire(1.0000001)] == [0]


def test_taken_requests_never_expire():
    q = FifoQueue(capacity=8)
    for i in range(4):
        q.push(_req(i, 0.1 * i, deadline=1.0 + i))
    taken = q.take(2)
    assert [r.req_id for r in taken] == [0, 1]
    # Their heap entries linger until they surface, then vanish.
    assert q.next_deadline_s == 3.0
    assert [r.req_id for r in q.expire(10.0)] == [2, 3]
    assert q.depth == 0
    assert q.next_deadline_s is None


def test_workload_filtered_take_keeps_other_deadlines():
    q = FifoQueue(capacity=8)
    q.push(_req(0, 0.0, workload="a", deadline=1.0))
    q.push(_req(1, 0.1, workload="b", deadline=2.0))
    q.push(_req(2, 0.2, workload="a", deadline=3.0))
    assert [r.req_id for r in q.take(8, workload="a")] == [0, 2]
    assert q.next_deadline_s == 2.0
    assert [r.req_id for r in q.expire(2.5)] == [1]


def test_expire_removes_exactly_the_expired_objects():
    # Two queued requests share an id; only the one past its deadline goes.
    q = FifoQueue(capacity=4)
    early = _req(7, 0.0, deadline=1.0)
    late = _req(7, 0.1, deadline=5.0)
    q.push(early)
    q.push(late)
    expired = q.expire(2.0)
    assert len(expired) == 1 and expired[0] is early
    assert q.depth == 1 and q.oldest() is late
    assert q.next_deadline_s == 5.0


def test_deadline_heap_stays_bounded_by_depth():
    q = FifoQueue(capacity=1024)
    req_id = 0
    for cycle in range(2000):
        now = cycle * 1e-3
        for _ in range(3):
            # Long deadlines: every entry leaves through take, as garbage.
            q.push(_req(req_id, now, deadline=now + 100.0))
            req_id += 1
        q.expire(now)
        q.take(3 if cycle % 7 else 2)
        assert len(q._deadlines) <= 2 * q.depth + 8
    assert q.admitted == req_id
