"""Admission control and bounded request queues.

Two disciplines behind one interface:

- :class:`FifoQueue` — arrival order, the baseline serving discipline;
- :class:`DeadlineQueue` — earliest-deadline-first, which trades mean
  latency for SLO attainment under mixed deadlines.

Both are *bounded*: a request arriving at a full queue is **rejected** at
admission (load shedding), and a queued request whose deadline passes can
be **expired** (dropped) before it wastes array time.  Ties order by
``req_id`` everywhere, so the queue state is a pure function of the event
history — the determinism the byte-identical-ledger tests pin.

The queues only hold and order requests; completion bookkeeping lives in
the executor, and the conservation invariant (admitted = completed +
dropped + in flight) is asserted by the metrics collector at every event.
"""

from __future__ import annotations

import bisect
import heapq

from .requests import Request

__all__ = ["BoundedQueue", "FifoQueue", "DeadlineQueue", "make_queue"]


class BoundedQueue:
    """A bounded request queue with admission/expiry accounting.

    Subclasses define the service order via :meth:`_sort_key`; everything
    else — capacity, counters, expiry — is shared.

    Queued deadlines sit in a ``(deadline_s, id(request), request)``
    min-heap beside the service-ordered list.  A request leaving through
    :meth:`take` only leaves the live count; its heap entry is deleted
    lazily, when it reaches the top or when dead entries outnumber live
    ones.  So :meth:`expire` is O(1) when nothing is due, and it removes
    exactly the request objects whose deadlines passed, whatever their
    ids.  (An entry holds its request, so no other object can take over
    that identity while the entry is in the heap.)
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list[Request] = []
        self._deadlines: list[tuple[float, int, Request]] = []
        #: id(request) -> queued copies of it that carry a deadline.
        self._live: dict[int, int] = {}
        self.admitted = 0
        self.rejected = 0

    @staticmethod
    def _sort_key(request: Request) -> tuple:
        raise NotImplementedError

    @property
    def depth(self) -> int:
        """Requests currently waiting."""
        return len(self._items)

    def push(self, request: Request) -> bool:
        """Admit ``request``; ``False`` means rejected (queue full)."""
        if len(self._items) >= self.capacity:
            self.rejected += 1
            return False
        # Sort keys end in the req_id, so the sorted order is unique and
        # a binary insertion lands exactly where a full re-sort would.
        bisect.insort(self._items, request, key=self._sort_key)
        self.admitted += 1
        if request.deadline_s is not None:
            key = id(request)
            heapq.heappush(self._deadlines, (request.deadline_s, key, request))
            self._live[key] = self._live.get(key, 0) + 1
        return True

    def _release(self, key: int) -> None:
        count = self._live.pop(key)
        if count > 1:
            self._live[key] = count - 1

    def _shrink(self) -> None:
        """Rebuild the deadline heap once dead entries outnumber live ones.

        This keeps the heap O(depth) however long the run.
        """
        heap = self._deadlines
        if len(heap) > 2 * len(self._live) + 8:
            heap[:] = [entry for entry in heap if entry[1] in self._live]
            heapq.heapify(heap)

    def oldest(self) -> Request | None:
        """The request that would be served next, or ``None`` if empty."""
        return self._items[0] if self._items else None

    def peek_all(self) -> tuple[Request, ...]:
        """The waiting requests in service order (no removal)."""
        return tuple(self._items)

    @property
    def next_deadline_s(self) -> float | None:
        """Earliest deadline among the waiting requests, else ``None``."""
        heap = self._deadlines
        while heap and heap[0][1] not in self._live:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def expire(self, now_s: float) -> list[Request]:
        """Remove and return every request whose deadline has passed.

        The expired requests come back in service order.
        """
        heap = self._deadlines
        gone: set[int] = set()
        while heap and heap[0][0] < now_s:
            key = heapq.heappop(heap)[1]
            if key in self._live:
                self._release(key)
                gone.add(key)
        if not gone:
            return []
        expired = [r for r in self._items if id(r) in gone]
        self._items = [r for r in self._items if id(r) not in gone]
        self._shrink()
        return expired

    def take(self, max_count: int, workload: str | None = None) -> list[Request]:
        """Remove up to ``max_count`` requests (optionally one workload only).

        Requests leave in service order; with a ``workload`` filter,
        non-matching requests keep their positions — the batch folds one
        network's requests into the GEMM ``N`` dimension, it cannot mix
        networks in one weight preload.
        """
        if max_count < 1:
            raise ValueError(f"max_count must be >= 1, got {max_count}")
        taken: list[Request] = []
        rest: list[Request] = []
        for request in self._items:
            if len(taken) < max_count and (
                workload is None or request.workload == workload
            ):
                taken.append(request)
                if request.deadline_s is not None:
                    self._release(id(request))
            else:
                rest.append(request)
        self._items = rest
        self._shrink()
        return taken


class FifoQueue(BoundedQueue):
    """Serve in arrival order (ties by request id)."""

    @staticmethod
    def _sort_key(request: Request) -> tuple:
        return (request.arrival_s, request.req_id)


class DeadlineQueue(BoundedQueue):
    """Serve the most urgent deadline first (deadline-less requests last)."""

    @staticmethod
    def _sort_key(request: Request) -> tuple:
        deadline = (
            request.deadline_s if request.deadline_s is not None else float("inf")
        )
        return (deadline, request.arrival_s, request.req_id)


def make_queue(discipline: str, capacity: int) -> BoundedQueue:
    """Build a queue by name (``fifo`` | ``deadline``), for CLI wiring."""
    queues = {"fifo": FifoQueue, "deadline": DeadlineQueue}
    if discipline not in queues:
        raise ValueError(
            f"unknown queue discipline {discipline!r}; pick from "
            f"{sorted(queues)}"
        )
    return queues[discipline](capacity)
