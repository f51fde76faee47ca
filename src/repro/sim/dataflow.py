"""Weight-stationary schedule timing (contention-free compute cycles).

Closed-form cycle counts for one fold on the array, following the TPU/
SCALE-Sim schedule the paper inherits (Section II-A, III-D):

1. weight preload — weights enter from the top, one row per cycle,
   pipelined down ``rows`` rows (``rows + cols - 1`` cycles to fill);
2. streaming — input vectors enter skewed from the left; with a MAC taking
   ``mac_cycles``, a new vector is admitted every ``mac_cycles`` cycles
   ("the interval between consecutive data scheduling is deterministically
   prolonged", Section III-D);
3. drain — the last partial sums ripple up and out over the array diagonal.

uSystolic keeps the *order* identical to the binary array; only the
per-vector interval stretches by the MAC cycle count.

The skew terms come from a :class:`~repro.schemes.DataflowGeometry`: the
default (``row_lag = col_lag = 1``) reproduces the paper's skewed
weight-stationary numbers above, while DiP's diagonal-input geometry
(both lags zero) drops the ``cols - 1`` preload stagger and the whole
drain.

A layer's schedule sums its folds; :func:`schedule_layer` evaluates
:func:`schedule_tile` once per fold class (:mod:`repro.gemm.tiling`) times
its multiplicity, so its cost does not grow with the fold count.
"""

from __future__ import annotations

import dataclasses

from ..gemm.tiling import Tile, Tiling
from ..schemes import WEIGHT_STATIONARY_SKEWED, DataflowGeometry

__all__ = ["TileSchedule", "LayerSchedule", "schedule_tile", "schedule_layer"]


@dataclasses.dataclass(frozen=True)
class TileSchedule:
    """Cycle budget of one weight-stationary fold."""

    preload_cycles: int
    stream_cycles: int
    drain_cycles: int
    active_pe_mac_cycles: int
    """PE-cycles of actual MAC work (drives dynamic energy)."""

    @property
    def total_cycles(self) -> int:
        return self.preload_cycles + self.stream_cycles + self.drain_cycles


@dataclasses.dataclass(frozen=True)
class LayerSchedule:
    """Aggregate compute-only schedule of one GEMM across all folds."""

    compute_cycles: int
    active_pe_mac_cycles: int
    num_tiles: int
    mac_cycles: int


def schedule_tile(
    tile: Tile,
    mac_cycles: int,
    geometry: DataflowGeometry = WEIGHT_STATIONARY_SKEWED,
) -> TileSchedule:
    """Contention-free cycle count of one fold with ``mac_cycles`` MACs.

    The drain of a fold overlaps the next fold's weight preload (new
    weights push the last partial sums out as they pipeline down), so the
    per-fold cost is preload + streaming; ``drain_cycles`` is only paid by
    the last fold of a layer.  ``geometry`` supplies the skew lags.
    """
    if mac_cycles < 1:
        raise ValueError(f"mac_cycles must be >= 1, got {mac_cycles}")
    preload = geometry.preload_cycles(tile.rows, tile.cols)
    stream = tile.vectors * mac_cycles
    drain = geometry.drain_cycles(tile.rows, tile.cols)
    active = tile.rows * tile.cols * tile.vectors * mac_cycles
    return TileSchedule(
        preload_cycles=preload,
        stream_cycles=stream,
        drain_cycles=drain,
        active_pe_mac_cycles=active,
    )


def schedule_layer(
    tiling: Tiling,
    mac_cycles: int,
    geometry: DataflowGeometry = WEIGHT_STATIONARY_SKEWED,
    batch: int = 1,
) -> LayerSchedule:
    """Sum the fold schedules of a whole GEMM (drains overlap preloads).

    Every fold pays preload + streaming; only the last fold's drain is
    exposed.  ``batch`` requests share each fold's preloaded weights.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    compute = 0
    active = 0
    for tile, count in tiling.fold_classes(batch):
        ts = schedule_tile(tile, mac_cycles, geometry)
        compute += count * (ts.preload_cycles + ts.stream_cycles)
        active += count * ts.active_pe_mac_cycles
    return LayerSchedule(
        compute_cycles=compute + ts.drain_cycles,
        active_pe_mac_cycles=active,
        num_tiles=tiling.num_tiles,
        mac_cycles=mac_cycles,
    )
