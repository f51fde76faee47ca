"""Mapping a GEMM onto an R-by-C weight-stationary systolic array.

The weight matrix of a lowered GEMM has shape (K, OC) with K = WH*WW*IC the
reduction length.  A weight-stationary array holds an R x C tile of it:
rows span the reduction dimension, columns span output channels.  GEMMs
larger than the array are *folded*: ``ceil(K/R)`` reduction folds times
``ceil(OC/C)`` column folds, each fold re-streaming the OH*OW input vectors
(SCALE-Sim's scheduling, which uSystolic inherits unchanged — its
generalizability claim).

Only the last fold in K and the last in OC can be partial, so the folds
fall into at most four *fold classes* (full/edge in K x full/edge in OC).
A :class:`Tiling` is just the fold counts; single folds are built on
demand for the consumers that step the array fold by fold.

Partial sums across reduction folds are accumulated through the OFM buffer,
which is why folded convolutions re-touch OFM memory and why Figure 13's
total energy is DRAM-dominated for convolution layers.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator

from .params import GemmParams

__all__ = ["Tile", "Tiling", "tile_gemm"]


@dataclasses.dataclass(frozen=True)
class Tile:
    """One weight-stationary fold: an (rows x cols) slab of the weight matrix."""

    k_start: int
    rows: int
    c_start: int
    cols: int
    vectors: int
    """Number of input vectors streamed through this tile (OH*OW)."""

    @property
    def macs(self) -> int:
        return self.rows * self.cols * self.vectors


def _spans(length: int, size: int) -> tuple[tuple[int, int, int], ...]:
    """``(first fold index, fold extent, fold count)`` of each fold class.

    ``length`` split into ``size``-wide folds: the full folds, then the
    partial edge fold when ``size`` does not divide ``length``.
    """
    full, edge = divmod(length, size)
    spans = ((0, size, full),) if full else ()
    if edge:
        spans += ((full, edge, 1),)
    return spans


@dataclasses.dataclass(frozen=True)
class Tiling:
    """Fold schedule of one GEMM on an R x C array, as fold counts."""

    params: GemmParams
    array_rows: int
    array_cols: int
    k_folds: int
    c_folds: int

    @property
    def num_tiles(self) -> int:
        return self.k_folds * self.c_folds

    @property
    def vectors(self) -> int:
        """Input vectors streamed through every fold (OH*OW)."""
        return self.params.oh * self.params.ow

    @property
    def total_vectors(self) -> int:
        return self.num_tiles * self.vectors

    @property
    def utilization(self) -> float:
        """MAC-weighted fraction of the array kept busy across all folds.

        The quantity whose drop from AlexNet (~97% edge) to MLPerf's diverse
        shapes (~70% edge) drives the Figure 14c/d efficiency dilution:
        the GEMM's K*OC*V MACs over the folds' array slots.
        """
        total_slots = self.total_vectors * self.array_rows * self.array_cols
        if total_slots == 0:
            return 0.0
        return self.params.window * self.params.oc * self.vectors / total_slots

    def fold_classes(self, batch: int = 1) -> tuple[tuple[Tile, int], ...]:
        """The distinct fold shapes with their multiplicities, in fold order.

        Each class is represented by its first fold, streaming ``batch``
        times the per-request vectors; the last class holds the last fold.
        At most four tiles are built, whatever the fold counts.
        """
        vectors = batch * self.vectors
        return tuple(
            (Tile(kf * self.array_rows, rows, cf * self.array_cols, cols, vectors),
             k_count * c_count)
            for kf, rows, k_count in _spans(self.params.window, self.array_rows)
            for cf, cols, c_count in _spans(self.params.oc, self.array_cols)
        )

    def tile(self, index: int) -> Tile:
        """Fold ``index`` in schedule order (reduction fold outer)."""
        if not 0 <= index < self.num_tiles:
            raise IndexError(f"tile index {index} outside 0..{self.num_tiles - 1}")
        kf, cf = divmod(index, self.c_folds)
        k_start, c_start = kf * self.array_rows, cf * self.array_cols
        rows = min(self.array_rows, self.params.window - k_start)
        cols = min(self.array_cols, self.params.oc - c_start)
        return Tile(k_start, rows, c_start, cols, self.vectors)

    @property
    def last_tile(self) -> Tile:
        return self.tile(self.num_tiles - 1)

    def __iter__(self) -> Iterator[Tile]:
        return (self.tile(index) for index in range(self.num_tiles))


def tile_gemm(params: GemmParams, array_rows: int, array_cols: int) -> Tiling:
    """Fold ``params`` onto an ``array_rows x array_cols`` array."""
    if array_rows < 1 or array_cols < 1:
        raise ValueError("array dimensions must be positive")
    return Tiling(
        params=params,
        array_rows=array_rows,
        array_cols=array_cols,
        k_folds=math.ceil(params.window / array_rows),
        c_folds=math.ceil(params.oc / array_cols),
    )
