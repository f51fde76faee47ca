"""Self-test of the benchmark: spec in sync, counters repeat, slowdowns land.

Run from the repository root (about four minutes)::

    python3 hostbench/selftest.py

1. ``BENCHMARK.json`` matches the tables in ``run.py``, ``workloads.py``
   and ``layers.py`` it is generated from, and an entry point that no
   longer exists is reported absent by the patcher instead of raising.
2. A 2x slowdown planted around ``tile_gemm`` -- by this test, at every
   binding of the entry point, never in the program's sources -- is
   attributed by the traced ``sweep`` run to ``gemm.tile_gemm.s``; the
   deterministic counters of every workload repeat exactly across traced
   runs, and the layer self times add up to the traced wall time.
3. With the slowdown planted, ``sweep`` gets slower by more than its
   bound, and ``fuzz`` and ``fleet-cloud`` stay within theirs.

Exits 0 when every check passes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Patcher  # noqa: E402

SEED = 7
#: Counters that depend only on the inputs, never on the clock, by the
#: workload that exercises them.
DETERMINISTIC = {
    "sweep": ("gemm.tile_gemm.calls", "gemm.folds", "sim.simulate_layer.calls",
              "sim.schedule_tile.calls", "sim.compute_cycles"),
    "serve-edge": ("serve.cost.layer_result.calls", "serve.cost.misses",
                   "serve.queue.expired", "serve.batches"),
    "fleet-cloud": ("fleet.route.calls", "fleet.instance.advance.calls",
                    "serve.queue.expire.calls", "fleet.instances_spawned"),
    "fuzz": ("verify.checks", "gemm.folds", "sim.arraysim.pe_busy_cycles"),
}


def slow_twice(fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` followed by a busy wait as long as the call itself took."""

    @functools.wraps(fn)
    def slowed(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        until = 2 * time.perf_counter() - start
        while time.perf_counter() < until:
            pass
        return result

    return slowed


def planted(action: Callable[[], Any]) -> Any:
    """Run ``action`` with every ``tile_gemm`` binding slowed down twofold."""
    patcher = Patcher()
    if not patcher.patch("repro.gemm.tiling", "tile_gemm", slow_twice):
        raise SystemExit("selftest: repro.gemm.tiling.tile_gemm is gone")
    try:
        return action()
    finally:
        patcher.undo()


def main() -> int:
    """Run the checks; print one line per check."""
    results: list[tuple[bool, str]] = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    fresh = run.TRACE_DIR / "BENCHMARK.expected.json"
    run.TRACE_DIR.mkdir(exist_ok=True)
    run.write_spec(fresh)
    results.append(
        (json.loads(fresh.read_text()) == spec, "BENCHMARK.json matches the benchmark's tables")
    )
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}

    gone = Patcher()
    missing = [
        ("repro.no_such_layer", "entry"),
        ("repro.gemm.tiling", "no_such_function"),
        ("repro.gemm.tiling", "Tiling.no_such_member"),
    ]
    patched = [gone.patch(module, name, slow_twice) for module, name in missing]
    gone.undo()
    results.append(
        (
            not any(patched) and len(gone.absent) == len(missing),
            f"missing entry points are reported absent, not raised: {', '.join(gone.absent)}",
        )
    )

    base = run.child_trace("sweep", SEED, 1)
    slow = planted(lambda: run.child_trace("sweep", SEED, 1))
    for workload, counters in DETERMINISTIC.items():
        first, second = (
            (base, slow) if workload == "sweep"
            else (run.child_trace(workload, SEED, 1), run.child_trace(workload, SEED, 1))
        )
        for name in counters:
            value = first["metrics"][name]
            results.append(
                (
                    value > 0 and value == second["metrics"][name],
                    f"{workload}: {name} repeats exactly across traced runs ({value:.0f})",
                )
            )
    for trace in (base, slow):
        m = trace["metrics"]
        total = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS) + m["other.self_s"]
        results.append(
            (
                abs(total - m["traced_wall_s"]) < 1e-6,
                f"layer self times + other.self_s = traced wall ({total:.4f} s)",
            )
        )
    gemm = slow["metrics"]["gemm.tile_gemm.s"] - base["metrics"]["gemm.tile_gemm.s"]
    others = {
        name: abs(slow["metrics"][name] - base["metrics"][name])
        for name in (f"{layer}.self_s" for layer in layers.LAYERS if layer != "gemm")
    }
    worst = max(others, key=others.__getitem__)
    results.append(
        (
            gemm > 0.5 * base["metrics"]["gemm.tile_gemm.s"] and gemm > 2 * others[worst],
            f"traced sweep puts the slowdown in gemm.tile_gemm.s: +{gemm:.3f} s "
            f"(was {base['metrics']['gemm.tile_gemm.s']:.3f} s; largest other layer change "
            f"{worst} {others[worst]:.3f} s)",
        )
    )

    # Best of two alternating runs per side: the host's noise only ever
    # slows a run down, so the faster run is the steadier estimate.
    for name, seconds, must_worsen in (("sweep", 6, True), ("fuzz", 4, False), ("fleet-cloud", 8, False)):
        before, after = [], []
        for _ in range(2):
            before.append(run.child_measure(name, SEED, seconds)["ops_per_s"])
            after.append(planted(lambda: run.child_measure(name, SEED, seconds))["ops_per_s"])
        loss = 1 - max(after) / max(before)
        bound = bounds["ops_per_s"]
        ok = loss > bound if must_worsen else loss <= bound
        verdict = "worsens beyond" if must_worsen else "stays within"
        results.append(
            (
                ok,
                f"{name} ops_per_s {max(before):.1f} -> {max(after):.1f}/s ({loss:+.1%}) "
                f"{verdict} its bound {bound:.0%}",
            )
        )

    for ok, line in results:
        print(("PASS " if ok else "FAIL ") + line)
    return 0 if all(ok for ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
