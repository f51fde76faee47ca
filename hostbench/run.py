"""Host-time benchmark of the uSystolic reproduction: four seeded workloads.

Run from the repository root::

    python3 hostbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --workload all --seed 1     # every workload in turn
    python3 hostbench/run.py --workload fuzz --trace 1   # per-layer numbers
    python3 hostbench/run.py --write-spec                # regenerate BENCHMARK.json

Everything measured is *host* time: how long the simulator takes.  The
simulated cycles, latencies and energies it computes are checked, never
timed.  Each workload runs in child processes of this one, so peak memory
is per workload, a hang is cut off at the wall-clock budget and recorded
as a named failure, and set-up time can be measured in fresh processes:

- ``--trace 0``: two set-up-only children, then one child that sets up,
  runs whole rounds for about ``--seconds`` and checks every output;
  prints the end-to-end metrics.  Host times are scaled to a reference
  host speed measured around every operation (``reference.py``); the
  unscaled figures are printed beside them.
- ``--trace 1``: one child that runs round 0 untraced, traced and untraced
  again (``--seconds`` does not apply), with every layer's entry points
  wrapped (``layers.py``); prints the per-layer metrics, each with the
  end-to-end metrics it should move, and writes the spans under
  ``.hostbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output passed its check.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".hostbench"

WORKLOAD_NAMES = ("sweep", "serve-edge", "fleet-cloud", "fuzz")

#: End-to-end metrics, each reported on every workload:
#: (name, unit, better, bound as a share of the parent's median).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
)

#: Workload-specific names of the generic metrics, printed
#: beside them in the human-readable report.
ALIASES = {
    "sweep": {
        "ops_per_s": "sim_layers_per_s",
        "op_p50_ms": "sim_layer_p50_ms",
        "op_p99_ms": "sim_layer_p99_ms",
    },
    "serve-edge": {"ops_per_s": "serve_requests_per_s"},
    "fleet-cloud": {"ops_per_s": "fleet_requests_per_s"},
    "fuzz": {
        "ops_per_s": "fuzz_cases_per_s",
        "op_p50_ms": "fuzz_case_p50_ms",
        "op_p99_ms": "fuzz_case_p99_ms",
    },
}

RUN_SECONDS = 25
#: Wall-clock budget of one workload, set-up probes and checks included.
BUDGET_S = 170.0
SETUP_PROBES = 2
#: A p99 is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


# ----------------------------------------------------------------------
# child processes: set-up, measurement, traced run
# ----------------------------------------------------------------------
def _import_program() -> None:
    sys.path.insert(0, str(SRC))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(name: str, seed: int) -> tuple[Any, float]:
    """The workload with round 0 drawn, and the set-up time at reference speed.

    The host speed is sampled just before and just after the set-up; the
    first sample's own time is not counted as set-up.
    """
    import reference

    before = time.perf_counter()
    kernel_before = reference.measure_kernel()
    sampling_s = time.perf_counter() - before
    _import_program()
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    workload.inputs(0)
    setup_s = time.perf_counter() - _STARTED - sampling_s
    kernel_s = (kernel_before + reference.measure_kernel()) / 2
    return workload, setup_s * reference.NOMINAL_S / kernel_s


def child_setup(name: str, seed: int, seconds: float) -> dict[str, Any]:
    """Set up only; the parent takes the median over several processes."""
    _workload, setup_s = _setup(name, seed)
    return {"setup_s": setup_s}


def child_measure(name: str, seed: int, seconds: float) -> dict[str, Any]:
    """Whole rounds for about ``seconds``; every output checked after its round.

    Each operation's host time is scaled to the reference host speed
    measured around it (``reference.py``); the raw figures are kept too.
    ``ops_per_s`` is the median over rounds of each round's items per
    scaled second, so one round that drew unusually costly inputs or met
    a burst of host noise does not move it.
    """
    workload, setup_s = _setup(name, seed)
    from reference import Reference

    speed = Reference()
    raw: list[float] = []
    items: list[int] = []
    per_round: list[int] = []
    attempted = 0
    failures: list[str] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        inputs = workload.inputs(rounds)
        ops = workload.execute(inputs, after=speed.after)
        raw.extend(op.seconds for op in ops)
        items.extend(op.items for op in ops)
        per_round.append(len(ops))
        attempted += len(ops)
        failures.extend(workload.check(inputs, ops))
        workload.release(rounds)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 > seconds:
            break  # one more round would end farther from ``seconds``
    scaled = [s * f for s, f in zip(raw, speed.scale())]
    throughputs = []
    first = 0
    for count in per_round:
        last = first + count
        throughputs.append(sum(items[first:last]) / sum(scaled[first:last]))
        first = last
    inputs, ops = workload.epilogue()
    attempted += len(ops)
    failures.extend(workload.check(inputs, ops))
    return {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "ops_per_s": statistics.median(throughputs),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "samples": sorted(scaled),
        "raw_ops_per_s": sum(items) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "speed_samples": len(speed.samples),
        "item": workload.item,
        "op": workload.op,
        "items": sum(items),
        "rounds": rounds,
        "elapsed_s": time.perf_counter() - start,
        "attempted": attempted,
        "failures": failures,
    }


def child_trace(name: str, seed: int, seconds: float) -> dict[str, Any]:
    """Round 0 untraced, traced, untraced; per-layer metrics of the traced one."""
    workload, _setup_s = _setup(name, seed)
    import layers
    from tracer import Recorder

    inputs = workload.inputs(0)
    failures: list[str] = []

    def unit() -> tuple[list[Any], float]:
        start = time.perf_counter()
        ops = workload.execute(inputs)
        wall_s = time.perf_counter() - start
        failures.extend(workload.check(inputs, ops))
        return ops, wall_s

    _ops, before_s = unit()
    recorder = Recorder()
    patcher = layers.install(recorder)
    try:
        ops, traced_s = unit()
    finally:
        patcher.undo()
    _ops, after_s = unit()
    metrics = layers.derive(
        recorder,
        workload.outputs(inputs, ops),
        traced_wall_s=traced_s,
        untraced_wall_s=(before_s + after_s) / 2,
        absent=patcher.absent,
    )
    index = recorder.write(
        TRACE_DIR,
        f"trace-{name}",
        {"workload": name, "seed": seed, "absent": patcher.absent, "metrics": metrics},
    )
    return {
        "metrics": metrics,
        "absent": patcher.absent,
        "spans_index": str(index.relative_to(ROOT)),
        "attempted": 3 * len(ops),
        "failures": failures,
    }


CHILDREN = {"setup": child_setup, "measure": child_measure, "trace": child_trace}


# ----------------------------------------------------------------------
# parent: orchestration and report
# ----------------------------------------------------------------------
def _spawn(mode: str, name: str, seed: int, seconds: float, deadline: float) -> dict[str, Any]:
    """Run one child with the time left; a hang or crash is a named failure."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
    ]
    timeout = deadline - time.perf_counter()
    failure = {"attempted": 1, "failures": []}
    if timeout <= 0:
        failure["failures"] = [f"timeout: {name} had no time left for its {mode} run"]
        return failure
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        failure["failures"] = [
            f"timeout: {name} {mode} run exceeded the {BUDGET_S:.0f} s budget and was killed"
        ]
        return failure
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        failure["failures"] = [f"crash: {name} {mode} run exited with code {done.returncode}"]
        return failure
    try:
        return json.loads(lines[-1])
    except ValueError:
        failure["failures"] = [f"crash: {name} {mode} run printed no result line"]
        return failure


def _tail(samples: list[float]) -> tuple[float | None, int]:
    """The nearest-rank p99 in ms and how many samples lie beyond it."""
    if not samples:
        return None, 0
    rank = max(1, math.ceil(0.99 * len(samples)))
    beyond = len(samples) - rank
    return (samples[rank - 1] * 1e3 if beyond >= TAIL_SAMPLES else None), beyond


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One workload's metrics, failures and report lines."""
    deadline = time.perf_counter() + BUDGET_S
    lines = [f"== {name} (seed {seed}, {'traced run' if trace else f'about {seconds:g} s'}) =="]
    if trace:
        result = _spawn("trace", name, seed, seconds, deadline)
        metrics = result.get("metrics", {})
        import layers

        units = {entry[0]: entry[1] for entry in layers.PER_LAYER}
        moves = {entry[0]: entry[3] for entry in layers.PER_LAYER}
        for metric, value in metrics.items():
            should = f"  -> {', '.join(moves[metric])}" if moves[metric] else ""
            lines.append(f"  {metric:34s} {value:16.6g} {units[metric]:13s}{should}")
        if result.get("absent"):
            lines.append(f"  absent entry points: {', '.join(result['absent'])}")
        if result.get("spans_index"):
            lines.append(f"  spans written to {result['spans_index']}")
        report = {metric: (value, units[metric]) for metric, value in metrics.items()}
    else:
        probes = [_spawn("setup", name, seed, seconds, deadline) for _ in range(SETUP_PROBES)]
        result = _spawn("measure", name, seed, seconds, deadline)
        for probe in probes:
            result.setdefault("failures", []).extend(probe.get("failures", []))
        setups = [probe.get("setup_s") for probe in (*probes, result)]
        report = {}
        if "ops_per_s" in result and None not in setups:
            result["setup_s"] = statistics.median(setups)
            report = {m: (result[m], unit) for m, unit, _b, _bound in END_TO_END}
            p99, beyond = _tail(result["samples"])
            n = len(result["samples"])
            alias = ALIASES[name]
            counts = {"op_p50_ms": f"n={n}"}
            for metric, (value, unit) in report.items():
                notes = [note for note in (alias.get(metric), counts.get(metric)) if note]
                lines.append(f"  {metric:14s} {value:14.6g} {unit}" + (f"  [{'; '.join(notes)}]" if notes else ""))
            lines.append(
                f"  {'op_p99_ms':14s} "
                + (f"{p99:14.6g} ms" if p99 is not None else f"{'-':>14s}   ")
                + f"  [{alias.get('op_p99_ms', 'p99')}; n={n}, {beyond} beyond; "
                f"reported with >= {TAIL_SAMPLES} beyond]"
            )
            lines.append(
                f"  an op is {result['op']}; {result['rounds']} rounds, {result['items']} "
                f"{result['item']} in {result['elapsed_s']:.3f} s"
            )
            lines.append(
                f"  at measured host speed: ops_per_s {result['raw_ops_per_s']:.6g}, "
                f"op_p50_ms {result['raw_op_p50_ms']:.6g} ({result['speed_samples']} speed samples); "
                f"set-ups at reference speed {', '.join(f'{s:.4f}' for s in setups)} s"
            )
    failures = list(result.get("failures", []))
    if "failures" not in result or (not report and not failures):
        failures.append(f"crash: {name} produced no metrics")
    attempted = max(1, len(failures), int(result.get("attempted", 1)))
    lines.append(
        f"  failed_frac    {len(failures) / attempted:.4g} ({len(failures)} of {attempted} operations)"
    )
    lines.extend(f"  FAILED {failure}" for failure in failures[:20])
    return {"report": report, "attempted": attempted, "failures": failures, "lines": lines}


def write_spec(path: Path) -> None:
    """Write ``BENCHMARK.json`` from the tables of this benchmark."""
    _import_program()
    import layers
    import workloads

    if tuple(workloads.WORKLOADS) != WORKLOAD_NAMES:
        raise SystemExit(f"hostbench: workloads {tuple(workloads.WORKLOADS)} != {WORKLOAD_NAMES}")
    spec = {
        "command": ["python3", "hostbench/run.py"],
        "paths": ["hostbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": workloads.WORKLOADS[name].why} for name in WORKLOAD_NAMES
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in layers.PER_LAYER
        ],
    }
    path.write_text(json.dumps(spec, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the workload(s), print the report and result line."""
    parser = argparse.ArgumentParser(prog="hostbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    parser.add_argument("--child", choices=sorted(CHILDREN), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        parser.error(f"--seconds must be positive and finite, got {args.seconds}")
    if args.write_spec:
        write_spec(ROOT / "BENCHMARK.json")
        return 0
    if args.child:
        if args.workload == "all":
            parser.error("--child needs one workload")
        result = CHILDREN[args.child](args.workload, args.seed, args.seconds)
        print(json.dumps(result))
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for outcome in results.values():
        print("\n".join(outcome["lines"]))
    attempted = sum(outcome["attempted"] for outcome in results.values())
    failed = sum(len(outcome["failures"]) for outcome in results.values())
    metrics = {
        (metric if len(names) == 1 else f"{name}.{metric}"): {"value": value, "unit": unit}
        for name, outcome in results.items()
        for metric, (value, unit) in outcome["report"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
