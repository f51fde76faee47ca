"""Host speed, measured with a fixed reference kernel between operations.

Host speed on a shared virtual machine is not constant: on a 2-vCPU
x86_64 guest the same pure-Python loop ran up to a third slower for
seconds at a time, and its average drifted by tens of percent over
minutes, per virtual CPU.  A time measured on the
program alone therefore moves with the host.  :class:`Reference` runs a
fixed kernel -- frozen dataclass allocation, attribute reads and dict
updates, the interpreter work the simulator itself does -- after every
``EVERY_S`` seconds of measured operations, and :meth:`Reference.scale`
gives each operation the factor that converts its time to a host on
which the kernel takes :data:`NOMINAL_S`.  The kernel is benchmark code:
no change to the program can make it faster or slower.
"""

from __future__ import annotations

import dataclasses
import gc
import time

__all__ = ["Reference", "NOMINAL_S", "REPS", "kernel", "measure_kernel"]

#: Time of one :func:`kernel` call on the reference host (typical on the
#: 2-vCPU x86_64 guest, Python 3.11, the benchmark was defined on).
NOMINAL_S = 0.005
#: Kernel calls per speed sample, and seconds of operations between samples.
REPS = 4
EVERY_S = 0.2


@dataclasses.dataclass(frozen=True)
class _Cell:
    a: int
    b: int
    c: int

    @property
    def volume(self) -> int:
        return self.a * self.b * self.c


def kernel(n: int = 4000) -> int:
    """The fixed reference work (about 5 ms on the reference host)."""
    cells = [_Cell(i % 11 + 1, i % 7 + 1, i % 5 + 1) for i in range(n)]
    table: dict[int, int] = {}
    for cell in cells:
        table[cell.a] = table.get(cell.a, 0) + cell.volume
    return sum(cell.volume for cell in cells) + len(table)


def measure_kernel() -> float:
    """Mean seconds per kernel call over ``REPS`` calls, collector paused.

    The cyclic collector is paused so that the program's own heap, which
    a collection would have to walk, cannot change the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REPS):
            kernel()
        return (time.perf_counter() - start) / REPS
    finally:
        if enabled:
            gc.enable()


class Reference:
    """Speed samples bracketing every measured operation."""

    def __init__(self) -> None:
        #: (operations completed before the sample, seconds per kernel call)
        self.samples: list[tuple[int, float]] = [(0, measure_kernel())]
        self._ops = 0
        self._since_s = 0.0

    def after(self, seconds: float) -> None:
        """Note one finished operation; sample the speed when one is due."""
        self._ops += 1
        self._since_s += seconds
        if self._since_s >= EVERY_S:
            self.sample()

    def sample(self) -> None:
        """Take a speed sample now."""
        self.samples.append((self._ops, measure_kernel()))
        self._since_s = 0.0

    def scale(self) -> list[float]:
        """Per operation so far: ``NOMINAL_S`` over the kernel time around it.

        The kernel time of operation ``i`` is the mean of the last sample
        taken before it and the first taken after it.
        """
        if self.samples[-1][0] < self._ops:
            self.sample()
        factors = []
        j = 0
        for i in range(self._ops):
            while self.samples[j + 1][0] <= i:
                j += 1
            around = (self.samples[j][1] + self.samples[j + 1][1]) / 2
            factors.append(NOMINAL_S / around)
        return factors
