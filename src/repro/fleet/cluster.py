"""The fleet simulator: one deterministic event loop over many executors.

:class:`FleetSimulator` composes pool-built
:class:`~repro.fleet.instance.Instance` objects under a single global
clock.  Each iteration finds the earliest pending event among

1. per-instance internal events (batch completions, batching-window
   expiries) — processed first, in canonical ``(pool, instance_id)``
   order, so routers observe post-completion queue depths;
2. the next request arrival — routed by the configured load balancer
   and offered to exactly one instance;
3. the next autoscaler control tick — processed last, so scaling reacts
   to the state the tick's arrivals produced.

Equal-time events resolve in that fixed order and arrivals tie-break by
``req_id`` (the same discipline as
:class:`~repro.serve.executor.ServeExecutor.run`), making the whole run
a pure function of ``(config, arrival stream)``: two same-seed runs
produce byte-identical :class:`~repro.fleet.ledger.FleetLedger`
documents.

The loop is event-driven: at an event it advances only the instances
that can change then, not the whole fleet.  :meth:`Instance.advance
<repro.fleet.instance.Instance.advance>` is a no-op for an instance with
nothing due, so advancing any superset of the due instances yields the
same bytes as advancing all of them.  The due set at ``now`` is the
union of

- the instances whose next internal event (completion or batch wake)
  is at ``now`` — a min-heap keyed by ``next_event_s`` with lazy
  deletion, whose valid top is also the loop's next instance event.  It
  looks one ulp past ``now``: the dynamic batcher's window check
  ``now - arrival >= max_wait`` can pass one ulp before its wake time
  ``arrival + max_wait``;
- the instances holding a queued deadline earlier than ``now`` — a
  second heap — so every expiry is stamped at the first event after its
  deadline, as a full sweep would stamp it;
- the idle instances with queued work and no wake event.  The same
  float disagreement can leave the window check failing *at* the wake
  time, after which no event of the instance's own is pending; such an
  instance, and a static batch waiting to fill, is advanced at every
  event until it dispatches;
- the instances this step's arrivals were routed to (advanced after
  routing, as the arrivals may complete a batch).

The whole live fleet is still swept where a sweep is the semantics:
when the arrival stream runs out (``draining`` flips, and partial
batches everywhere may flush), in the end-of-stream branch, and — for
re-indexing only — after an autoscale tick.

Once the arrival stream is exhausted the fleet drains: every advance
passes ``draining=True`` so partial batches flush, and the loop ends
when no instance holds work.  Instances draining for the *autoscaler*
stop themselves the moment their backlog empties; everything still
running at the end is finalized at the global end time.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math

from ..analysis.contracts import require
from ..jobs.store import ResultStore
from ..serve.requests import Request, require_unique_ids
from .autoscale import AutoscaleConfig, plan_scaling
from .instance import Instance, InstanceState
from .ledger import FleetLedger, InstanceLedger
from .pools import PoolConfig, build_cost_model, build_executor
from .routing import make_router

__all__ = ["FleetConfig", "FleetSimulator", "simulate_fleet"]


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """One fleet: its pools, router, SLO and (optional) autoscaler."""

    pools: tuple[PoolConfig, ...]
    router: str = "jsq"
    seed: int = 0
    slo_s: float | None = None
    autoscale: AutoscaleConfig | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "FleetConfig":
        """Contract check: raise ``ValueError`` on any impossible field."""
        require(
            len(self.pools) >= 1,
            "FleetConfig",
            "pools",
            "needs at least one pool",
        )
        names = [pool.name for pool in self.pools]
        require(
            len(set(names)) == len(names),
            "FleetConfig",
            "pools",
            f"pool names must be unique, got {names}",
        )
        require(
            self.slo_s is None or self.slo_s > 0,
            "FleetConfig",
            "slo_s",
            f"must be positive, got {self.slo_s}",
        )
        return self

    @property
    def total_instances(self) -> int:
        """Initial fleet size across pools."""
        return sum(pool.instances for pool in self.pools)


class FleetSimulator:
    """Deterministic discrete-event simulation of one fleet."""

    def __init__(
        self,
        config: FleetConfig,
        shard: int = 0,
        store: ResultStore | None = None,
    ) -> None:
        self.config = config
        self.shard = shard
        self.router = make_router(config.router, seed=config.seed + shard)
        #: pool name -> shared cost model (read-only memo, one per pool).
        self.models = {
            pool.name: build_cost_model(pool, store=store)
            for pool in config.pools
        }
        self._pool_configs = {pool.name: pool for pool in config.pools}
        self._next_id = {pool.name: 0 for pool in config.pools}
        #: every instance ever spawned, including stopped ones.
        self.instances: list[Instance] = []
        self._live_list: list[Instance] | None = None
        self._routable_list: list[Instance] | None = None
        # Event index: (time, seq, instance) heaps whose valid entry per
        # instance is the one recorded in the matching ``(time, seq)``
        # map; superseded entries are skipped when they surface.
        self._seq = itertools.count()
        self._wakes: list[tuple[float, int, Instance]] = []
        self._wake_at: dict[Instance, tuple[float, int]] = {}
        self._deadlines: list[tuple[float, int, Instance]] = []
        self._deadline_at: dict[Instance, tuple[float, int]] = {}
        self._idle: set[Instance] = set()
        for pool in config.pools:
            for _ in range(pool.instances):
                self._spawn(pool.name, 0.0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, pool_name: str, now_s: float) -> Instance:
        pool = self._pool_configs[pool_name]
        instance = Instance(
            pool=pool_name,
            instance_id=self._next_id[pool_name],
            executor=build_executor(
                pool, self.models[pool_name], slo_s=self.config.slo_s
            ),
            model=self.models[pool_name],
            spawned_s=now_s,
        )
        self._next_id[pool_name] += 1
        self.instances.append(instance)
        self.instances.sort(key=lambda inst: inst.key)
        self._invalidate()
        return instance

    def _invalidate(self) -> None:
        self._live_list = None
        self._routable_list = None

    def _live(self) -> list[Instance]:
        if self._live_list is None:
            self._live_list = [
                inst
                for inst in self.instances
                if inst.state is not InstanceState.STOPPED
            ]
        return self._live_list

    def _routable(self) -> list[Instance]:
        if self._routable_list is None:
            self._routable_list = [
                inst for inst in self.instances if inst.routable
            ]
        return self._routable_list

    def _apply_scaling(self, now_s: float) -> None:
        pools: dict[str, list[Instance]] = {
            name: [] for name in self._pool_configs
        }
        for inst in self.instances:
            pools[inst.pool].append(inst)
        limits = {
            name: (pool.min_instances, pool.max_instances)
            for name, pool in self._pool_configs.items()
        }
        for action in plan_scaling(
            self.config.autoscale, pools, limits, now_s
        ):
            if action.verb == "spawn":
                self._spawn(action.pool, now_s)
            else:
                for inst in pools[action.pool]:
                    if inst.instance_id == action.instance_id:
                        inst.begin_drain(now_s)
                        self._invalidate()

    # ------------------------------------------------------------------
    # the event index
    # ------------------------------------------------------------------
    def _rekey(
        self,
        heap: list[tuple[float, int, Instance]],
        entries: dict[Instance, tuple[float, int]],
        inst: Instance,
        at_s: float,
    ) -> None:
        current = entries.get(inst)
        if current is not None and current[0] == at_s:
            return  # the valid entry already says so
        if at_s == math.inf:
            entries.pop(inst, None)
            return
        seq = next(self._seq)
        entries[inst] = (at_s, seq)
        heapq.heappush(heap, (at_s, seq, inst))

    def _index(self, inst: Instance, now_s: float) -> None:
        """Re-key ``inst`` after anything may have changed its state."""
        wake_s = inst.next_event_s(now_s)
        self._rekey(self._wakes, self._wake_at, inst, wake_s)
        deadline_s = inst.executor.queue.next_deadline_s
        self._rekey(
            self._deadlines,
            self._deadline_at,
            inst,
            math.inf if deadline_s is None else deadline_s,
        )
        if (
            wake_s == math.inf
            and inst.state is not InstanceState.STOPPED
            and inst.executor.queue.depth
            and not inst.executor.in_service_count
        ):
            self._idle.add(inst)
        else:
            self._idle.discard(inst)
        if inst.state is InstanceState.STOPPED:
            self._invalidate()

    @staticmethod
    def _pop_due(
        heap: list[tuple[float, int, Instance]],
        entries: dict[Instance, tuple[float, int]],
        limit_s: float,
        due: set[Instance],
    ) -> None:
        """Move every valid entry at or before ``limit_s`` into ``due``."""
        while heap and heap[0][0] <= limit_s:
            at_s, seq, inst = heapq.heappop(heap)
            if entries.get(inst) == (at_s, seq):
                del entries[inst]
                due.add(inst)

    def _next_wake_s(self) -> float:
        """Earliest internal event of any instance (the valid heap top)."""
        heap = self._wakes
        while heap:
            at_s, seq, inst = heap[0]
            if self._wake_at.get(inst) == (at_s, seq):
                return at_s
            heapq.heappop(heap)
        return math.inf

    def _due(self, now_s: float) -> list[Instance]:
        """The instances that may change at ``now_s``, canonically ordered."""
        due = set(self._idle)
        self._pop_due(
            self._wakes, self._wake_at, math.nextafter(now_s, math.inf), due
        )
        self._pop_due(
            self._deadlines,
            self._deadline_at,
            math.nextafter(now_s, -math.inf),
            due,
        )
        return sorted(due, key=lambda inst: inst.key)

    def _advance(self, inst: Instance, now_s: float, draining: bool) -> None:
        inst.advance(now_s, draining=draining)
        self._index(inst, now_s)

    def _sweep(self, now_s: float, draining: bool) -> None:
        for inst in self._live():
            self._advance(inst, now_s, draining)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, arrivals: list[Request]) -> FleetLedger:
        """Serve ``arrivals`` to exhaustion; return the merged ledger."""
        require_unique_ids(arrivals)
        pending = sorted(arrivals, key=lambda r: (r.arrival_s, r.req_id))
        now_s = 0.0
        i = 0
        autoscale = self.config.autoscale
        next_tick_s = autoscale.interval_s if autoscale is not None else math.inf

        while True:
            draining = i >= len(pending)
            next_arrival_s = (
                pending[i].arrival_s if i < len(pending) else math.inf
            )
            event_s = min(next_arrival_s, self._next_wake_s())
            if not draining or any(inst.backlog for inst in self._live()):
                event_s = min(event_s, next_tick_s)

            if event_s == math.inf:
                backlog = sum(inst.backlog for inst in self._live())
                if backlog:
                    self._sweep(now_s, draining=True)
                    live = self._live()
                    if sum(inst.backlog for inst in live) < backlog or any(
                        inst.executor.in_service_count for inst in live
                    ):
                        continue
                break

            now_s = max(now_s, event_s)
            # 1. internal events: completions, window expiries, dispatch.
            for inst in self._due(now_s):
                self._advance(inst, now_s, draining)
            # 2. arrivals: route each request at its own timestamp.
            routed: set[Instance] = set()
            while i < len(pending) and pending[i].arrival_s <= now_s:
                request = pending[i]
                i += 1
                targets = self._routable()
                if not targets:
                    raise RuntimeError(
                        f"no routable instance for request {request.req_id}; "
                        "pools must keep min_instances >= 1 active"
                    )
                target = self.router.route(request, targets, now_s)
                target.offer(request, now_s)
                routed.add(target)
            if not draining and i >= len(pending):
                # The stream just ran out: partial batches may flush.
                self._sweep(now_s, draining=True)
            else:
                for inst in sorted(routed, key=lambda inst: inst.key):
                    self._advance(inst, now_s, draining)
            # 3. control tick.
            if autoscale is not None and now_s >= next_tick_s:
                self._apply_scaling(now_s)
                for inst in self._live():
                    self._index(inst, now_s)
                while next_tick_s <= now_s:
                    next_tick_s += autoscale.interval_s

        return self._close(now_s)

    def _close(self, now_s: float) -> FleetLedger:
        """Account stranded queues, close every window, build the ledger."""
        # A policy that refuses to drain strands its queue; account for it
        # (mirrors ServeExecutor.run's stranded-queue accounting).
        for inst in self._live():
            depth = inst.executor.queue.depth
            if depth:
                for request in inst.executor.queue.take(depth):
                    inst.metrics.observe_drop(request, now_s)
        # Close every window; stopped instances keep their earlier close.
        for inst in self.instances:
            if inst.state is not InstanceState.STOPPED:
                inst.metrics.finalize(now_s)
            inst.metrics.assert_conserved(
                inst.executor.queue.depth, inst.executor.in_service_count
            )
        return FleetLedger(
            instances=[
                InstanceLedger(
                    shard=self.shard,
                    pool=inst.pool,
                    instance_id=inst.instance_id,
                    spawned_s=inst.spawned_s,
                    stopped_s=inst.stopped_s,
                    metrics=inst.metrics,
                )
                for inst in self.instances
            ],
            makespan_s=now_s,
            slo_s=self.config.slo_s,
        )


def simulate_fleet(
    config: FleetConfig,
    arrivals: list[Request],
    shard: int = 0,
    store: ResultStore | None = None,
) -> FleetLedger:
    """Build and run one fleet over one arrival stream."""
    return FleetSimulator(config, shard=shard, store=store).run(arrivals)
