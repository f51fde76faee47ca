"""The four seeded workloads of the host-time benchmark.

Each workload draws its inputs from the benchmark's ``--seed`` only and
runs in *rounds*: :meth:`Workload.inputs` builds round ``r``'s inputs
(outside any timed region), :meth:`Workload.execute` runs them through the
program's public entry points and times every operation, and
:meth:`Workload.check` judges the outputs afterwards.  Every round of a
workload has the same composition, so a run may stop after any whole
round without biasing the mix it measured.

The program's functions are always called through their module
(``engine.simulate_layer``), so wrappers the traced run installs at the
module bindings see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.fleet import cli as fleet_cli
from repro.fleet import sharding
from repro.gemm.params import GemmParams
from repro.schemes import ComputeScheme
from repro.serve import arrivals as serve_arrivals
from repro.serve import cli as serve_cli
from repro.serve.requests import RequestStatus
from repro.sim import engine
from repro.verify import fuzz, oracles
from repro.verify.diff import VerifyCase
from repro.workloads import CLOUD, EDGE, mlperf_suite, scheme_sweep

__all__ = [
    "Op",
    "Workload",
    "Sweep",
    "ServeEdge",
    "FleetCloud",
    "Fuzz",
    "WORKLOADS",
    "PINS_PATH",
    "ledger_digest",
    "nearest_rank",
]

#: Canonical-ledger digests of the serving and fleet inputs, pinned from
#: the program as it was when the benchmark was defined (see ``pin.py``).
#: Its keys are the catalogs of arrival-stream and trace seeds.
PINS_PATH = Path(__file__).resolve().parent / "pins.json"


@dataclasses.dataclass
class Op:
    """One timed operation and what it returned (or raised)."""

    seconds: float
    items: int
    result: Any = None
    error: str | None = None


def ledger_digest(text: str) -> str:
    """SHA-256 of a canonical ledger text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of pre-sorted values (0 for none)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


#: One operation: the entry point, the work items it counts for, its arguments.
Call = tuple[Callable[..., Any], int, tuple, dict]


def _timed(call: Call) -> Op:
    fn, items, args, kwargs = call
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a raising operation is a named failure
        return Op(time.perf_counter() - start, items, error=f"{type(exc).__name__}: {exc}")
    return Op(time.perf_counter() - start, items, result=result)


class Workload:
    """Base of the four workloads; see the module docstring."""

    name = ""
    why = ""
    item = ""
    op = ""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self._inputs: dict[int, Any] = {}
        self._drawn = 0

    def inputs(self, r: int) -> Any:
        """Round ``r``'s inputs; rounds are drawn strictly in order and kept
        until :meth:`release`."""
        while self._drawn <= r:
            self._inputs[self._drawn] = self._draw(self._drawn)
            self._drawn += 1
        return self._inputs[r]

    def release(self, r: int) -> None:
        """Forget round ``r``'s inputs once it has been run and checked."""
        self._inputs.pop(r, None)

    def _draw(self, r: int) -> Any:
        raise NotImplementedError

    def calls(self, inputs: Any) -> list[Call]:
        """The operations of one round, in order."""
        raise NotImplementedError

    def execute(self, inputs: Any, after: Callable[[float], None] | None = None) -> list[Op]:
        """Run one round's operations, timing each; ``after`` sees each op's time."""
        ops = []
        for call in self.calls(inputs):
            ops.append(_timed(call))
            if after is not None:
                after(ops[-1].seconds)
        return ops

    def check(self, inputs: Any, ops: list[Op]) -> list[str]:
        """Names of the failed checks, one entry per failed operation."""
        failures = []
        for index, op in enumerate(ops):
            if op.error is not None:
                failures.append(f"{self.name}[{index}]: raised {op.error}")
                continue
            problem = self._check_one(inputs, index, op.result)
            if problem:
                failures.append(f"{self.name}[{index}]: {problem}")
        return failures

    def _check_one(self, inputs: Any, index: int, result: Any) -> str:
        raise NotImplementedError

    def outputs(self, inputs: Any, ops: list[Op]) -> dict[str, float]:
        """Counts and modelled-hardware numbers read off the results."""
        return {}

    def epilogue(self) -> tuple[Any, list[Op]]:
        """Inputs and operations run once after the timed rounds (none by default)."""
        return None, []


# ----------------------------------------------------------------------
# sweep: simulate_layer over networks, synthetic GEMMs, schemes, presets
# ----------------------------------------------------------------------
class Sweep(Workload):
    """Layer simulations for every scheme candidate on both presets."""

    name = "sweep"
    why = (
        "simulate_layer over AlexNet+MLPerf and seeded GEMMs, all scheme "
        "candidates, edge and cloud: stresses gemm tiling, sim schedule/traffic"
    )
    item = "layer simulations"
    op = "simulate_layer call"
    SYNTHETIC = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        networks = mlperf_suite()  # AlexNet is one of its entries
        layers = [layer for net in networks.values() for layer in net]
        layers += [self._synthetic(i) for i in range(self.SYNTHETIC)]
        self.layers = layers
        candidates = scheme_sweep()
        self.configs = {
            platform.name: [
                (platform.array(scheme, ebt=ebt).validate(), platform.memory_for(scheme))
                for _label, scheme, ebt in candidates
            ]
            for platform in (EDGE, CLOUD)
        }
        self.offset = int(self.rng.integers(len(candidates)))

    def _synthetic(self, index: int) -> GemmParams:
        def log_uniform(lo: int, hi: int) -> int:
            return int(round(math.exp(self.rng.uniform(math.log(lo), math.log(hi)))))

        return GemmParams.matmul(
            f"synthetic-{index}",
            rows=log_uniform(1, 256),
            inner=log_uniform(16, 2048),
            cols=log_uniform(16, 512),
        )

    def _draw(self, r: int) -> list[tuple[GemmParams, Any, Any]]:
        # Cloud calls are cheap: every candidate each round.  Edge calls
        # carry the fold explosion: one candidate per layer, rotated so
        # that six consecutive rounds cover every (layer, candidate).
        edge, cloud = self.configs["edge"], self.configs["cloud"]
        picks = itertools.islice(itertools.cycle(edge), r + self.offset, None)
        calls = []
        for layer, (array, memory) in zip(self.layers, picks):
            calls.append((layer, array, memory))
            calls.extend((layer, array_c, memory_c) for array_c, memory_c in cloud)
        return calls

    def calls(self, inputs: list[tuple[GemmParams, Any, Any]]) -> list[Call]:
        return [(engine.simulate_layer, 1, call, {}) for call in inputs]

    def _check_one(self, inputs: Any, index: int, result: Any) -> str:
        params, array, memory = inputs[index]
        latency = oracles.mac_latency_oracle(array.scheme, array.bits, array.ebt)
        cycles = oracles.compute_cycles_oracle(
            params, array.rows, array.cols, latency, skewed=array.scheme.has_skew
        )
        where = f"{params.name} on {array.label}"
        if result.compute_cycles != cycles:
            return f"{where}: compute_cycles {result.compute_cycles} != oracle {cycles}"
        expected = oracles.traffic_oracle(params, array.rows, array.cols, array.bits, memory)
        for key, value in sorted(expected.items()):
            variable, field = key.split(".", 1)
            got = getattr(result.traffic.variable(variable), field)
            if got != value:
                return f"{where}: traffic {key} {got} != oracle {value}"
        return ""

# ----------------------------------------------------------------------
# serve-edge: the serve CLI's BP/UR/UT comparison on the edge array
# ----------------------------------------------------------------------
def _pins(workload: str) -> dict[str, Any]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))[workload]


def _seeded_order(rng: np.random.Generator, workload: str) -> list[int]:
    """The workload's pinned catalog of input seeds, in an order drawn by ``rng``."""
    catalog = sorted(int(key) for key in _pins(workload))
    return [catalog[int(i)] for i in rng.permutation(len(catalog))]


def _cyclic(order: list[int], r: int) -> int:
    """Element ``r`` of ``order`` repeated end to end."""
    return next(itertools.islice(itertools.cycle(order), r, None))


def _sojourn_gap(depth_integral: float, records: list[Any]) -> float:
    """Relative gap of the sample-path Little's law (0 when it holds)."""
    sojourn = sum(
        r.finish_s - r.arrival_s for r in records if r.status is not RequestStatus.REJECTED
    )
    return abs(depth_integral - sojourn) / max(abs(sojourn), 1e-12)


class ServeEdge(Workload):
    """One cold ``ServeExecutor.run`` per scheme over a seeded stream.

    The cold cost model simulates every layer once per distinct batch
    size a run dispatches, so a stream's host cost is set by how many
    distinct sizes its BP run batches.  The catalog (``pin.py``) holds
    arrival seeds whose BP ledger has the most common such count;
    otherwise a run's cost would depend on which streams its seed drew.
    """

    name = "serve-edge"
    why = (
        "serve CLI on edge AlexNet, BP/UR/UT, Poisson 200/s, dynamic batching, "
        "50 ms SLO, cold cost model: stresses serve cost model and the gemm/sim it calls"
    )
    item = "simulated requests"
    op = "one scheme's serve run"
    SCHEMES = (
        ComputeScheme.BINARY_PARALLEL,
        ComputeScheme.USYSTOLIC_RATE,
        ComputeScheme.USYSTOLIC_TEMPORAL,
    )
    ARGV = (
        "--workload", "alexnet", "--platform", "edge", "--rate", "200",
        "--policy", "dynamic", "--slo-ms", "50", "--queue", "deadline",
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.order = _seeded_order(self.rng, self.name)

    @classmethod
    def stream_args(cls, stream: int) -> Any:
        """The serve CLI's parsed arguments for arrival seed ``stream``."""
        return serve_cli.build_parser().parse_args([*cls.ARGV, "--seed", str(stream)])

    @staticmethod
    def arrivals(args: Any) -> list[Any]:
        """The CLI's seeded Poisson stream for ``args``."""
        return serve_arrivals.poisson_arrivals(
            args.workload,
            rate_per_s=args.rate,
            horizon_s=args.horizon_s,
            seed=args.seed,
            slo_s=args.slo_ms * 1e-3,
        )

    def _draw(self, r: int) -> tuple[int, Any, list[Any]]:
        stream = _cyclic(self.order, r)
        args = self.stream_args(stream)
        return stream, args, self.arrivals(args)

    def calls(self, inputs: tuple[int, Any, list[Any]]) -> list[Call]:
        _stream, args, arrivals = inputs
        return [
            (serve_cli.serve_one, len(arrivals), (scheme, args, arrivals, None), {})
            for scheme in self.SCHEMES
        ]

    def _check_one(self, inputs: Any, index: int, metrics: Any) -> str:
        stream, _args, arrivals = inputs
        scheme = self.SCHEMES[index].value
        try:
            metrics.assert_conserved(0, 0)
        except RuntimeError as exc:
            return f"stream {stream} {scheme}: {exc}"
        if metrics.arrivals != len(arrivals):
            return f"stream {stream} {scheme}: {metrics.arrivals} of {len(arrivals)} arrivals"
        gap = _sojourn_gap(metrics.depth_integral, metrics.records)
        if gap > 1e-9:
            return f"stream {stream} {scheme}: Little's law gap {gap:.3g}"
        pinned = _pins(self.name).get(str(stream), {}).get(scheme)
        digest = ledger_digest(metrics.ledger_text())
        if digest != pinned:
            return f"stream {stream} {scheme}: ledger digest {digest[:12]} != pinned {str(pinned)[:12]}"
        return ""

    def outputs(self, inputs: Any, ops: list[Op]) -> dict[str, float]:
        runs = [op.result for op in ops if op.result is not None]
        completed = [
            r for m in runs for r in m.records if r.status is RequestStatus.COMPLETED
        ]
        latencies = sorted(r.latency_s for r in completed)
        energy_j = sum(r.energy_j for r in completed)
        return {
            "batches": sum(m.batches for m in runs),
            "batched_requests": sum(m.batched_requests for m in runs),
            "serve_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
            "serve_mj_per_request": energy_j / len(completed) * 1e3 if completed else 0.0,
        }


# ----------------------------------------------------------------------
# fleet-cloud: autoscaled heterogeneous cloud fleet under a flash crowd
# ----------------------------------------------------------------------
class FleetCloud(Workload):
    """One sharded flash-crowd fleet replay per round, merge included."""

    name = "fleet-cloud"
    why = (
        "fleet CLI replay: binary/hub-rate/hub-temporal cloud pools, slo-energy "
        "router, autoscaling, flash crowd, 2 shards: stresses fleet and serve event loops"
    )
    item = "simulated requests"
    op = "one fleet replay"
    ARGV = (
        "--pools", "binary-cloud,hub-rate-cloud,hub-temporal-cloud", "--size", "2",
        "--router", "slo-energy", "--slo-ms", "100", "--trace", "flash",
        "--rate", "3000", "--peak-rate", "30000", "--horizon-s", "1",
        "--autoscale", "--autoscale-interval-s", "0.02", "--shards", "2", "--jobs", "1",
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.order = _seeded_order(self.rng, self.name)

    @classmethod
    def trace_inputs(cls, trace: int) -> tuple[Any, Any, list[Any]]:
        """The fleet CLI's config and arrival trace for trace seed ``trace``."""
        args = fleet_cli.build_parser().parse_args([*cls.ARGV, "--seed", str(trace)])
        config = fleet_cli.build_fleet(args)
        return args, config, fleet_cli.build_trace(args, config.pools[0].workload)

    def _draw(self, r: int) -> tuple[int, Any, Any, list[Any]]:
        trace = _cyclic(self.order, r)
        return (trace, *self.trace_inputs(trace))

    def calls(self, inputs: tuple[int, Any, Any, list[Any]]) -> list[Call]:
        _trace, args, config, arrivals = inputs
        options = {"shards": args.shards, "workers": args.jobs}
        return [(sharding.run_fleet, len(arrivals), (config, arrivals), options)]

    def _check_one(self, inputs: Any, index: int, ledger: Any) -> str:
        trace, _args, _config, arrivals = inputs
        for entry in ledger.instances:
            try:
                entry.metrics.assert_conserved(0, 0)
            except RuntimeError as exc:
                return f"trace {trace} {entry.pool}#{entry.instance_id}: {exc}"
        records = ledger.merged_records()
        if len(records) != len(arrivals):
            return f"trace {trace}: {len(records)} of {len(arrivals)} arrivals"
        gap = _sojourn_gap(ledger.total_depth_integral(), records)
        if gap > 1e-9:
            return f"trace {trace}: Little's law gap {gap:.3g}"
        pinned = _pins(self.name).get(str(trace))
        digest = ledger_digest(ledger.ledger_text())
        if digest != pinned:
            return f"trace {trace}: ledger digest {digest[:12]} != pinned {str(pinned)[:12]}"
        return ""

    def outputs(self, inputs: Any, ops: list[Op]) -> dict[str, float]:
        ledgers = [op.result for op in ops if op.result is not None]
        if not ledgers:
            return {}
        summary = ledgers[0].summary()
        metrics = [entry.metrics for ledger in ledgers for entry in ledger.instances]
        return {
            "batches": sum(m.batches for m in metrics),
            "batched_requests": sum(m.batched_requests for m in metrics),
            "fleet_requests": sum(op.items for op in ops),
            "fleet_instances": sum(len(ledger.instances) for ledger in ledgers),
            "fleet_p99_ms": summary["p99_latency_s"] * 1e3,
            "fleet_req_per_s_per_w": summary["goodput_per_s_per_w"],
        }


# ----------------------------------------------------------------------
# fuzz: differential cases over all four verification surfaces
# ----------------------------------------------------------------------
class Fuzz(Workload):
    """Seeded differential cases, each run through ``execute_case``."""

    name = "fuzz"
    why = (
        "verify fuzz cases over kernel, engine, functional and array surfaces, no "
        "store: stresses unary kernels, core array, arraysim and verify oracles"
    )
    item = "differential cases"
    op = "one differential case"
    #: Kinds of one 20-case block, in the fuzzer's own draw proportions
    #: (0.40/0.30/0.15/0.15), so that every round has the same mix.
    BLOCK = ("kernel",) * 8 + ("engine",) * 6 + ("functional",) * 3 + ("array",) * 3
    BLOCKS_PER_ROUND = 25

    def _draw(self, r: int) -> list[Any]:
        kinds = [kind for _ in range(self.BLOCKS_PER_ROUND) for kind in self.BLOCK]
        return [fuzz.generate_case(self.rng, kind=kind) for kind in kinds]

    def calls(self, inputs: list[Any]) -> list[Call]:
        return [(fuzz.execute_case, 1, (case,), {}) for case in inputs]

    def _check_one(self, inputs: Any, index: int, report: Any) -> str:
        if report.ok:
            return ""
        first = report.mismatches[0]
        return f"{report.case.kind} case mismatches at {first.check}"

    #: The largest engine case of the fuzzer's draw space (every GEMM
    #: dimension at its maximum, a 1x1 array).  Its event trace sets the
    #: fuzz process's peak memory, which would otherwise depend on which
    #: rare large case a seed happens to draw within the time limit.
    LARGEST = {
        "kind": "engine", "bits": 8, "scheme": "BP", "ih": 12, "iw": 12, "ic": 8,
        "wh": 4, "ww": 4, "oc": 24, "rows": 1, "cols": 1,
    }

    def epilogue(self) -> tuple[Any, list[Op]]:
        cases = [VerifyCase.from_json(self.LARGEST)]
        return cases, self.execute(cases)

WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Sweep, ServeEdge, FleetCloud, Fuzz)
}
