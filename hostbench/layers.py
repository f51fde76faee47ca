"""Where the traced run probes the program, and the per-layer metrics.

:data:`PROBES` names each layer's public entry points at the binding the
callers use; :func:`install` wraps them with a :class:`~tracer.Recorder`.
:data:`PER_LAYER` lists every per-layer metric with its unit, its better
direction, and the end-to-end metric (on the named workload) it should
move, written down before any optimisation is measured against it.
:func:`derive` turns one traced run into those metrics.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from tracer import Patcher, Recorder

__all__ = ["Probe", "PROBES", "PER_LAYER", "LAYERS", "install", "derive"]


@dataclasses.dataclass(frozen=True)
class Probe:
    """One wrapped entry point: a timed span or a bare call counter."""

    module: str
    qualname: str
    name: str | Callable[[tuple], str]
    count_only: bool = False
    before: Callable[[Recorder, tuple], None] | None = None
    after: Callable[[Recorder, Any, tuple], None] | None = None


def _folds(rec: Recorder, tiling: Any, args: tuple) -> None:
    rec.count("gemm.folds", tiling.k_folds * tiling.c_folds)


def _cycles(rec: Recorder, result: Any, args: tuple) -> None:
    rec.count("sim.compute_cycles", result.compute_cycles)


def _queue_depth(rec: Recorder, args: tuple) -> None:
    rec.count("serve.queue.depth_sum", args[0].depth)


def _expired(rec: Recorder, expired: Any, args: tuple) -> None:
    rec.count("serve.queue.expired", len(expired))


def _pe_busy(rec: Recorder, result: Any, args: tuple) -> None:
    rec.count("sim.arraysim.pe_busy_cycles", result.pe_busy_cycles)


def _checks(rec: Recorder, report: Any, args: tuple) -> None:
    rec.count("verify.checks", report.checks)


def _case_span(args: tuple) -> str:
    return f"verify.case.{args[0].kind}"


PROBES: tuple[Probe, ...] = (
    Probe("repro.gemm.tiling", "tile_gemm", "gemm.tile_gemm", after=_folds),
    Probe("repro.gemm.tiling", "Tiling.utilization", "gemm.utilization"),
    Probe("repro.sim.engine", "simulate_layer", "sim.simulate_layer", after=_cycles),
    Probe(
        "repro.sim.engine",
        "simulate_layer_batched",
        "sim.simulate_layer_batched",
        after=_cycles,
    ),
    Probe("repro.sim.dataflow", "schedule_layer", "sim.schedule_layer"),
    Probe("repro.sim.dataflow", "schedule_tile", "sim.schedule_tile", count_only=True),
    Probe("repro.sim.batch", "batched_schedule", "sim.batched_schedule"),
    Probe("repro.sim.traffic", "profile_traffic", "sim.profile_traffic"),
    Probe("repro.sim.traffic", "profile_traffic_batched", "sim.profile_traffic"),
    Probe("repro.serve.costs", "NetworkCostModel.layer_result", "serve.cost.layer_result"),
    Probe("repro.serve.costs", "NetworkCostModel.batch_cost", "serve.cost.batch_cost"),
    Probe("repro.serve.executor", "ServeExecutor.run", "serve.executor.run"),
    Probe("repro.serve.executor", "ServeExecutor.advance", "serve.executor.advance"),
    Probe(
        "repro.serve.queueing",
        "BoundedQueue.expire",
        "serve.queue.expire",
        before=_queue_depth,
        after=_expired,
    ),
    Probe("repro.serve.queueing", "BoundedQueue.push", "serve.queue.push"),
    Probe("repro.serve.queueing", "BoundedQueue.take", "serve.queue.take"),
    Probe("repro.fleet.pools", "build_cost_model", "fleet.build_cost_model"),
    Probe("repro.fleet.routing", "SloEnergyRouter.route", "fleet.route"),
    Probe("repro.fleet.instance", "Instance.advance", "fleet.instance.advance"),
    Probe("repro.fleet.autoscale", "plan_scaling", "fleet.plan_scaling"),
    Probe("repro.fleet.cluster", "FleetSimulator.run", "fleet.run"),
    Probe("repro.fleet.ledger", "FleetLedger.merge", "fleet.ledger.merge"),
    Probe("repro.unary.vectorized", "hub_mac_row", "unary.hub_mac_row"),
    Probe("repro.unary.vectorized", "hub_mac_tile", "unary.hub_mac_tile"),
    Probe("repro.core.array", "UsystolicArray.execute", "core.array.execute"),
    Probe(
        "repro.sim.arraysim",
        "simulate_array",
        "sim.arraysim.simulate_array",
        after=_pe_busy,
    ),
    Probe("repro.sim.tracegen", "generate_trace", "sim.tracegen.generate_trace"),
    Probe("repro.verify.fuzz", "execute_case", _case_span, after=_checks),
)

#: Top-level layers whose self times, with ``other.self_s``, add up to
#: the traced wall time (every span name starts with one of them).
LAYERS = ("gemm", "sim", "serve", "fleet", "unary", "core", "verify")

_SW, _SE, _FC, _FZ = "sweep", "serve-edge", "fleet-cloud", "fuzz"
_E2E_SPEED = "ops_per_s"

#: (name, unit, better, what it should move).  "moves" names end-to-end
#: metrics as ``metric@workload``; an empty tuple marks a metric kept for
#: observability or accounting only.
PER_LAYER: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    # gemm: folding a GEMM onto the array
    ("gemm.tile_gemm.calls", "count", "lower", (f"{_E2E_SPEED}@{_SW}", f"{_E2E_SPEED}@{_SE}")),
    ("gemm.tile_gemm.s", "s", "lower", (f"op_p50_ms@{_SW}", f"{_E2E_SPEED}@{_SW}", f"peak_rss_mb@{_SW}", f"{_E2E_SPEED}@{_SE}")),
    ("gemm.utilization.s", "s", "lower", (f"{_E2E_SPEED}@{_SW}", f"{_E2E_SPEED}@{_SE}")),
    ("gemm.folds", "count", "lower", ()),
    ("gemm.self_s", "s", "lower", (f"{_E2E_SPEED}@{_SW}", f"{_E2E_SPEED}@{_SE}")),
    # sim: schedule, traffic and finalize of one layer
    ("sim.simulate_layer.calls", "count", "lower", ()),
    ("sim.simulate_layer.s", "s", "lower", (f"{_E2E_SPEED}@{_SW}", f"op_p50_ms@{_SW}")),
    ("sim.simulate_layer.self_s", "s", "lower", (f"op_p50_ms@{_SW}",)),
    ("sim.schedule_layer.s", "s", "lower", (f"{_E2E_SPEED}@{_SW}",)),
    ("sim.schedule_tile.calls", "count", "lower", (f"{_E2E_SPEED}@{_SW}",)),
    ("sim.simulate_layer_batched.s", "s", "lower", (f"{_E2E_SPEED}@{_SE}",)),
    ("sim.batched_schedule.s", "s", "lower", (f"{_E2E_SPEED}@{_SE}",)),
    ("sim.profile_traffic.s", "s", "lower", (f"{_E2E_SPEED}@{_SW}", f"{_E2E_SPEED}@{_SE}")),
    ("sim.compute_cycles", "cycles", "higher", ()),
    ("sim.cycles_per_host_s", "cycles/s", "higher", (f"{_E2E_SPEED}@{_SW}", f"{_E2E_SPEED}@{_SE}")),
    ("sim.arraysim.simulate_array.s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}", f"op_p50_ms@{_FZ}")),
    ("sim.arraysim.pe_busy_cycles", "cycles", "higher", ()),
    ("sim.tracegen.generate_trace.s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}",)),
    ("sim.self_s", "s", "lower", (f"{_E2E_SPEED}@{_SW}",)),
    # serve: cost model, executor event loop, queue, batching
    ("serve.cost.layer_result.calls", "count", "lower", (f"{_E2E_SPEED}@{_SE}",)),
    ("serve.cost.misses", "count", "lower", (f"{_E2E_SPEED}@{_SE}",)),
    ("serve.cost.hit_ratio", "fraction", "higher", (f"{_E2E_SPEED}@{_SE}",)),
    ("serve.cost.batch_cost.s", "s", "lower", (f"{_E2E_SPEED}@{_SE}",)),
    ("serve.executor.run.s", "s", "lower", (f"{_E2E_SPEED}@{_SE}",)),
    ("serve.executor.self_s", "s", "lower", (f"{_E2E_SPEED}@{_FC}", f"{_E2E_SPEED}@{_SE}")),
    ("serve.executor.advance.s", "s", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("serve.queue.expire.calls", "count", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("serve.queue.expire.s", "s", "lower", (f"{_E2E_SPEED}@{_FC}", f"{_E2E_SPEED}@{_SE}")),
    ("serve.queue.push.s", "s", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("serve.queue.take.s", "s", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("serve.queue.expired", "count", "lower", ()),
    ("serve.queue.depth_mean", "requests", "lower", ()),
    ("serve.batches", "count", "lower", ()),
    ("serve.batch_size_mean", "requests", "higher", ()),
    ("serve.self_s", "s", "lower", (f"{_E2E_SPEED}@{_FC}", f"{_E2E_SPEED}@{_SE}")),
    # fleet: routing, instances, autoscaling, ledger merge
    ("fleet.build_cost_model.s", "s", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("fleet.route.calls", "count", "lower", ()),
    ("fleet.route.s", "s", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("fleet.instance.advance.calls", "count", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("fleet.instance.advance.s", "s", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("fleet.advance_per_request", "calls/request", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("fleet.plan_scaling.calls", "count", "lower", ()),
    ("fleet.plan_scaling.s", "s", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("fleet.run.self_s", "s", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("fleet.ledger.merge.s", "s", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    ("fleet.instances_spawned", "count", "lower", ()),
    ("fleet.self_s", "s", "lower", (f"{_E2E_SPEED}@{_FC}",)),
    # unary kernels, functional array, differential verification
    ("unary.hub_mac_row.s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}",)),
    ("unary.hub_mac_tile.s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}", f"op_p50_ms@{_FZ}")),
    ("unary.self_s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}",)),
    ("core.array.execute.s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}",)),
    ("core.self_s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}",)),
    ("verify.case.kernel.s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}", f"op_p50_ms@{_FZ}")),
    ("verify.case.engine.s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}",)),
    ("verify.case.functional.s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}",)),
    ("verify.case.array.s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}",)),
    ("verify.checks", "count", "higher", ()),
    ("verify.self_s", "s", "lower", (f"{_E2E_SPEED}@{_FZ}",)),
    # modelled hardware, in simulated time: a speed-up leaves these identical
    ("serve.simulated_p99_ms", "ms", "lower", ()),
    ("serve.simulated_mj_per_request", "mJ", "lower", ()),
    ("fleet.simulated_p99_ms", "ms", "lower", ()),
    ("fleet.simulated_req_per_s_per_w", "1/s/W", "higher", ()),
    # the tracer itself
    ("traced_wall_s", "s", "lower", ()),
    ("untraced_wall_s", "s", "lower", ()),
    ("tracing_overhead_s", "s", "lower", ()),
    ("other.self_s", "s", "lower", ()),
    ("tracer.spans", "count", "lower", ()),
    ("tracer.absent_entry_points", "count", "lower", ()),
)


def install(recorder: Recorder) -> Patcher:
    """Wrap every probe's entry point; absent ones land in ``patcher.absent``."""
    patcher = Patcher()
    for probe in PROBES:

        def make(fn: Callable[..., Any], p: Probe = probe) -> Callable[..., Any]:
            if p.count_only:
                return recorder.wrap_count(fn, str(p.name))
            return recorder.wrap_span(fn, p.name, before=p.before, after=p.after)

        patcher.patch(probe.module, probe.qualname, make)
    return patcher


def derive(
    recorder: Recorder,
    outputs: dict[str, float],
    traced_wall_s: float,
    untraced_wall_s: float,
    absent: list[str],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced unit of work.

    ``outputs`` carries what the workload read off the program's own
    results (batches, requests, modelled latency and energy).  A metric
    of a layer the workload does not exercise is 0.
    """
    spans = recorder.aggregate()
    counters = recorder.counters

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for name, *_ in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and head in spans:
            values[name] = spans[head][field]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, stats in spans.items():
        layer_self[name.split(".", 1)[0]] += stats["self_s"]
    for layer, seconds in layer_self.items():
        values[f"{layer}.self_s"] = seconds

    sim_s = span("sim.simulate_layer", "s") + span("sim.simulate_layer_batched", "s")
    calls = span("serve.cost.layer_result", "calls")
    misses = recorder.children_of("serve.cost.layer_result", "sim.simulate_layer_batched")
    expires = span("serve.queue.expire", "calls")
    values.update(
        {
            "gemm.folds": counters.get("gemm.folds", 0),
            "sim.schedule_tile.calls": counters.get("sim.schedule_tile", 0),
            "sim.compute_cycles": counters.get("sim.compute_cycles", 0),
            "sim.cycles_per_host_s": ratio(counters.get("sim.compute_cycles", 0), sim_s),
            "sim.arraysim.pe_busy_cycles": counters.get("sim.arraysim.pe_busy_cycles", 0),
            "serve.cost.misses": misses,
            "serve.cost.hit_ratio": 1.0 - ratio(misses, calls) if calls else 0.0,
            "serve.executor.self_s": span("serve.executor.run", "self_s")
            + span("serve.executor.advance", "self_s"),
            "serve.queue.expired": counters.get("serve.queue.expired", 0),
            "serve.queue.depth_mean": ratio(counters.get("serve.queue.depth_sum", 0), expires),
            "serve.batches": outputs.get("batches", 0),
            "serve.batch_size_mean": ratio(
                outputs.get("batched_requests", 0), outputs.get("batches", 0)
            ),
            "fleet.advance_per_request": ratio(
                span("fleet.instance.advance", "calls"), outputs.get("fleet_requests", 0)
            ),
            "fleet.instances_spawned": outputs.get("fleet_instances", 0),
            "verify.checks": counters.get("verify.checks", 0),
            "serve.simulated_p99_ms": outputs.get("serve_p99_ms", 0.0),
            "serve.simulated_mj_per_request": outputs.get("serve_mj_per_request", 0.0),
            "fleet.simulated_p99_ms": outputs.get("fleet_p99_ms", 0.0),
            "fleet.simulated_req_per_s_per_w": outputs.get("fleet_req_per_s_per_w", 0.0),
            "traced_wall_s": traced_wall_s,
            "untraced_wall_s": untraced_wall_s,
            "tracing_overhead_s": traced_wall_s - untraced_wall_s,
            "other.self_s": traced_wall_s - sum(layer_self.values()),
            "tracer.spans": recorder.span_count,
            "tracer.absent_entry_points": len(absent),
        }
    )
    return {name: float(values.get(name, 0.0)) for name, *_ in PER_LAYER}
