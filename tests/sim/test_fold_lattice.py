"""Differential tests: the closed-form fold lattice vs per-fold enumeration.

``Tiling`` stores fold counts only, and ``schedule_layer`` sums at most
four fold classes.  Both must equal the explicit nested-loop enumeration
of every fold kept here as the oracle — totals, utilization (exact float
equality), fold-class multiplicities, the lazily built folds and the
per-fold schedule sum.  A work counter pins that no simulated layer builds
more than four ``Tile`` objects, however many folds it has.
"""

import collections
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.gemm.tiling as tiling_module
from repro.gemm.params import GemmParams
from repro.gemm.tiling import Tile, tile_gemm
from repro.schemes import DIAGONAL_INPUT, WEIGHT_STATIONARY_SKEWED
from repro.schemes import ComputeScheme as CS
from repro.sim.batch import batched_schedule
from repro.sim.dataflow import schedule_layer, schedule_tile
from repro.sim.engine import simulate_layer, simulate_layer_batched
from repro.workloads import CLOUD, EDGE, mlperf_suite

GEOMETRIES = [WEIGHT_STATIONARY_SKEWED, DIAGONAL_INPUT]


def enumerate_tiles(params, rows, cols, vectors=None):
    """Every fold in schedule order: reduction fold outer, column fold inner."""
    k, oc = params.window, params.oc
    if vectors is None:
        vectors = params.oh * params.ow
    tiles = []
    for kf in range(math.ceil(k / rows)):
        k_start = kf * rows
        for cf in range(math.ceil(oc / cols)):
            c_start = cf * cols
            tiles.append(
                Tile(
                    k_start=k_start,
                    rows=min(rows, k - k_start),
                    c_start=c_start,
                    cols=min(cols, oc - c_start),
                    vectors=vectors,
                )
            )
    return tiles


def enumerated_utilization(tiles, rows, cols):
    total_slots = sum(t.vectors for t in tiles) * rows * cols
    if total_slots == 0:
        return 0.0
    return sum(t.macs for t in tiles) / total_slots


def enumerated_schedule(tiles, mac, geometry):
    """Per-fold sum: preload + stream for every fold, the last fold's drain."""
    schedules = [schedule_tile(t, mac, geometry) for t in tiles]
    return (
        sum(s.preload_cycles + s.stream_cycles for s in schedules)
        + schedules[-1].drain_cycles,
        sum(s.active_pe_mac_cycles for s in schedules),
    )


def _extent(length):
    """Array extents against a GEMM extent: 1, free, exact divisors, wider."""
    return st.one_of(
        st.just(1),
        st.integers(1, length + 8),
        st.sampled_from([d for d in range(1, length + 1) if length % d == 0]),
        st.integers(length + 1, 2 * length + 16),
    )


@st.composite
def lattices(draw):
    """A small conv/matmul GEMM and an array shape folded against it."""
    ih = draw(st.integers(1, 10))
    iw = draw(st.integers(1, 10))
    params = GemmParams(
        name="lattice",
        ih=ih,
        iw=iw,
        ic=draw(st.integers(1, 6)),
        wh=draw(st.integers(1, min(ih, 4))),
        ww=draw(st.integers(1, min(iw, 4))),
        oc=draw(st.integers(1, 48)),
        stride=draw(st.integers(1, 3)),
    )
    return params, draw(_extent(params.window)), draw(_extent(params.oc))


CORNERS = [
    (GemmParams.matmul("one", rows=1, inner=1, cols=1), 1, 1),
    (GemmParams.matmul("unit-array", rows=3, inner=7, cols=5), 1, 1),
    (GemmParams.matmul("exact", rows=2, inner=24, cols=28), 12, 14),
    (GemmParams.matmul("wider", rows=2, inner=5, cols=3), 12, 14),
    (GemmParams.matmul("edges", rows=2, inner=13, cols=15), 12, 14),
    (GemmParams("conv", ih=9, iw=9, ic=3, wh=3, ww=3, oc=10, stride=2), 12, 14),
]


def _check_tiling(params, rows, cols):
    t = tile_gemm(params, rows, cols)
    tiles = enumerate_tiles(params, rows, cols)
    assert t.num_tiles == len(tiles)
    assert t.k_folds * t.c_folds == len(tiles)
    assert t.total_vectors == sum(tile.vectors for tile in tiles)
    assert t.utilization == enumerated_utilization(tiles, rows, cols)
    assert list(t) == tiles
    assert [t.tile(i) for i in range(len(tiles))] == tiles
    assert t.last_tile == tiles[-1]
    for bad in (-1, len(tiles)):
        with pytest.raises(IndexError):
            t.tile(bad)

    classes = t.fold_classes()
    assert 1 <= len(classes) <= 4
    shapes = collections.Counter((tile.rows, tile.cols) for tile in tiles)
    assert {(c.rows, c.cols): n for c, n in classes} == dict(shapes)
    first_of = {}
    for tile in tiles:
        first_of.setdefault((tile.rows, tile.cols), tile)
    # Each class is represented by its first fold, in fold order, and the
    # last class holds the last fold.
    assert [c for c, _ in classes] == list(first_of.values())
    assert (classes[-1][0].rows, classes[-1][0].cols) == (
        tiles[-1].rows,
        tiles[-1].cols,
    )


@pytest.mark.parametrize(
    "params,rows,cols", CORNERS, ids=lambda v: getattr(v, "name", v)
)
def test_tiling_corners_match_enumeration(params, rows, cols):
    _check_tiling(params, rows, cols)


@given(lattices())
@settings(max_examples=200, deadline=None)
def test_tiling_matches_enumeration(case):
    _check_tiling(*case)


@given(
    lattices(),
    st.sampled_from(GEOMETRIES),
    st.integers(1, 4),
    st.integers(1, 40),
)
@example(CORNERS[0], WEIGHT_STATIONARY_SKEWED, 1, 1)
@example(CORNERS[1], DIAGONAL_INPUT, 4, 33)
@example(CORNERS[4], WEIGHT_STATIONARY_SKEWED, 3, 7)
@settings(max_examples=200, deadline=None)
def test_schedule_layer_matches_per_fold_sum(case, geometry, batch, mac):
    params, rows, cols = case
    vectors = batch * params.oh * params.ow
    tiles = enumerate_tiles(params, rows, cols, vectors=vectors)
    compute, active = enumerated_schedule(tiles, mac, geometry)
    sched = schedule_layer(tile_gemm(params, rows, cols), mac, geometry, batch=batch)
    assert sched.compute_cycles == compute
    assert sched.active_pe_mac_cycles == active
    assert sched.num_tiles == len(tiles)
    assert sched.mac_cycles == mac
    assert batched_schedule(params, rows, cols, mac, batch, geometry) == sched


def test_schedule_layer_rejects_bad_batch():
    t = tile_gemm(GemmParams.matmul("m", rows=1, inner=4, cols=4), 2, 2)
    with pytest.raises(ValueError, match="batch"):
        schedule_layer(t, 1, batch=0)


def test_simulated_layers_build_at_most_four_tiles(monkeypatch):
    """Zero-tolerance work counter: at most four ``Tile`` per simulated layer."""
    built = [0]

    class CountingTile(Tile):
        def __init__(self, *args, **kwargs):
            built[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(tiling_module, "Tile", CountingTile)
    most_folds = 0
    layers = [layer for net in mlperf_suite().values() for layer in net]
    for platform in (EDGE, CLOUD):
        for scheme, ebt in ((CS.BINARY_PARALLEL, None), (CS.USYSTOLIC_RATE, 6)):
            array = platform.array(scheme, ebt=ebt)
            memory = platform.memory_for(scheme)
            for layer in layers:
                for run in (
                    lambda: simulate_layer(layer, array, memory),
                    lambda: simulate_layer_batched(layer, array, memory, batch=3),
                ):
                    built[0] = 0
                    run()
                    assert 1 <= built[0] <= 4, (layer.name, platform.name, built[0])
                folds = tile_gemm(layer, array.rows, array.cols).num_tiles
                most_folds = max(most_folds, folds)
    # The suite does have layers with far more folds than tiles built.
    assert most_folds > 100_000
