"""The event-driven fleet loop against the advance-everything algorithm.

:func:`reference_run` is the fleet loop as it was before the simulator
indexed its events: at every global event it advances every live
instance, routes the due arrivals, then advances every live instance
again.  It is a test-side differential oracle only; the production
loop is :meth:`FleetSimulator.run`, which advances just the instances
that can change.  Both must emit the same ledger bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math

import pytest

from repro.fleet.autoscale import AutoscaleConfig
from repro.fleet.cluster import FleetConfig, FleetSimulator
from repro.fleet.instance import InstanceState
from repro.fleet.pools import pool_presets
from repro.fleet.traces import flash_crowd_arrivals
from repro.serve.requests import Request, RequestStatus


def reference_run(sim: FleetSimulator, arrivals: list[Request]):
    """Advance every live instance twice per global event (the oracle)."""

    def live():
        return [
            inst
            for inst in sim.instances
            if inst.state is not InstanceState.STOPPED
        ]

    pending = sorted(arrivals, key=lambda r: (r.arrival_s, r.req_id))
    now_s = 0.0
    i = 0
    autoscale = sim.config.autoscale
    next_tick_s = autoscale.interval_s if autoscale is not None else math.inf
    while True:
        current = live()
        draining = i >= len(pending)
        next_arrival_s = pending[i].arrival_s if not draining else math.inf
        next_instance_s = min(
            (inst.next_event_s(now_s) for inst in current), default=math.inf
        )
        candidates = [next_arrival_s, next_instance_s]
        if not draining or any(inst.backlog for inst in current):
            candidates.append(next_tick_s)
        event_s = min(candidates)
        if event_s == math.inf:
            backlog = sum(inst.backlog for inst in current)
            if backlog:
                for inst in current:
                    inst.advance(now_s, draining=True)
                if sum(inst.backlog for inst in live()) < backlog or any(
                    inst.executor.in_service_count for inst in live()
                ):
                    continue
            break
        now_s = max(now_s, event_s)
        for inst in current:
            inst.advance(now_s, draining=draining)
        while i < len(pending) and pending[i].arrival_s <= now_s:
            request = pending[i]
            i += 1
            targets = [inst for inst in sim.instances if inst.routable]
            sim.router.route(request, targets, now_s).offer(request, now_s)
        draining = i >= len(pending)
        for inst in live():
            inst.advance(now_s, draining=draining)
        if autoscale is not None and now_s >= next_tick_s:
            sim._apply_scaling(now_s)
            while next_tick_s <= now_s:
                next_tick_s += autoscale.interval_s
    return sim._close(now_s)


def _config(router, policy, queue, autoscale, seed=7):
    presets = pool_presets()
    pools = tuple(
        dataclasses.replace(
            presets[name].sized(2),
            policy=policy,
            queue_discipline=queue,
            queue_capacity=12,
            max_batch=4,
            max_wait_s=2e-3,
        )
        for name in ("binary-cloud", "hub-rate-cloud")
    )
    return FleetConfig(
        pools=pools,
        router=router,
        seed=seed,
        slo_s=0.03,
        autoscale=(
            AutoscaleConfig(interval_s=0.01, high_watermark=4.0, low_watermark=1.0)
            if autoscale
            else None
        ),
    )


def _trace(seed=3, horizon_s=0.2):
    return flash_crowd_arrivals(
        "alexnet",
        base_rate_per_s=600.0,
        spike_rate_per_s=5000.0,
        spike_start_s=0.25 * horizon_s,
        spike_duration_s=0.25 * horizon_s,
        horizon_s=horizon_s,
        seed=seed,
        slo_s=0.03,
    )


def _digest(ledger) -> str:
    return hashlib.sha256(ledger.ledger_text().encode()).hexdigest()


GRID = list(
    itertools.product(
        ("rr", "jsq", "po2", "slo-energy"),
        ("static", "dynamic", "continuous"),
        ("fifo", "deadline"),
        (False, True),
    )
)


@pytest.mark.parametrize("router,policy,queue,autoscale", GRID)
def test_event_loop_matches_advance_everything(router, policy, queue, autoscale):
    arrivals = _trace(seed=len(router) + len(policy))
    config = _config(router, policy, queue, autoscale)
    expected = reference_run(FleetSimulator(config), arrivals)
    got = FleetSimulator(config).run(arrivals)
    assert got.ledger_text() == expected.ledger_text()


#: sha256 of ``ledger_text()`` for four small replays, recorded with the
#: advance-everything loop before the loop was made event-driven.
GOLDEN = {
    ("slo-energy", "dynamic", "deadline", True): (
        "425c4d1ba8b361f59084c87162bac940881b2bead707bede4b9938e61f5d6712"
    ),
    ("jsq", "static", "fifo", False): (
        "dcbcf7d45ac60c1da8ccbe5803adb44c3571fc4593ec0f95d4a3a4d287131834"
    ),
    ("po2", "continuous", "deadline", True): (
        "8fe2b72e5b38665a593875c512e0d330da39d86dba886497a254c702b975e1fc"
    ),
    ("rr", "dynamic", "fifo", False): (
        "e52da210e5e45d393b359ff2931c2454f283b281cac6ab00adec0a5374b3430a"
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_replays_keep_their_bytes(case):
    ledger = FleetSimulator(_config(*case)).run(_trace())
    assert _digest(ledger) == GOLDEN[case]


def _window_edge_arrivals(max_wait_s: float) -> tuple[float, float]:
    """Two arrival times: the first hits the batch-window float edge.

    At the first, ``(a + w) - a < w``: the wake event fires at ``a + w``
    but the window check still fails then, leaving the instance idle
    with queued work and no wake of its own.  The second is an ordinary
    arrival whose own window closes a little later.
    """
    edge = [
        a
        for a in (0.01 + k * 1e-5 for k in range(1000))
        if (a + max_wait_s) - a < max_wait_s
    ]
    first = edge[0]
    second = next(
        a
        for a in (first + 1e-4 + k * 1e-6 for k in range(1000))
        if (a + max_wait_s) - a >= max_wait_s
    )
    return first, second


def test_idle_instance_past_its_window_dispatches_at_the_next_event():
    max_wait_s = 2e-3
    first, second = _window_edge_arrivals(max_wait_s)
    pool = dataclasses.replace(
        pool_presets()["binary-cloud"].sized(3), max_wait_s=max_wait_s
    )
    config = FleetConfig(pools=(pool,), router="rr", seed=0)
    arrivals = [
        Request(req_id=0, workload="alexnet", arrival_s=first),
        Request(req_id=1, workload="alexnet", arrival_s=second),
        # Keeps the stream open, so nothing flushes before it arrives.
        Request(req_id=2, workload="alexnet", arrival_s=first + 0.05),
    ]
    expected = reference_run(FleetSimulator(config), arrivals)
    ledger = FleetSimulator(config).run(arrivals)
    assert ledger.ledger_text() == expected.ledger_text()
    records = {r.req_id: r for r in ledger.merged_records()}
    assert all(r.status is RequestStatus.COMPLETED for r in records.values())
    # Request 0's instance got no event of its own after its wake; it
    # dispatches at request 1's window close, in the same cold batch of
    # one, so both finish together — long before the stream drains.
    assert records[0].batch_size == records[1].batch_size == 1
    assert records[0].finish_s == records[1].finish_s
    assert records[0].finish_s < first + 0.05


def test_duplicate_req_id_is_a_named_error():
    config = _config("jsq", "dynamic", "fifo", False)
    arrivals = [
        Request(req_id=5, workload="alexnet", arrival_s=0.0),
        Request(req_id=5, workload="alexnet", arrival_s=0.001),
    ]
    with pytest.raises(ValueError, match="duplicate req_id 5"):
        FleetSimulator(config).run(arrivals)
