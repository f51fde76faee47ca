"""Seeded workload generators: request streams over simulated time.

Three arrival processes cover the serving-evaluation space:

- :func:`poisson_arrivals` — memoryless traffic (exponential gaps from a
  seeded ``np.random.Generator``), the open-loop load model queueing
  results are quoted against;
- :func:`uniform_arrivals` — a deterministic, perfectly paced stream at
  the same mean rate, isolating burstiness effects from rate effects;
- :func:`replay_arrivals` — an explicit timestamp trace, for replaying
  recorded traffic or adversarial hand-written bursts.

Every generator is a pure function of its arguments (the Poisson process
of its seed), so a request stream is reproducible across runs, machines
and worker processes.  :func:`merge_streams` interleaves streams of
different workloads into one globally time-ordered stream with
deterministic tie-breaking.
"""

from __future__ import annotations

import numpy as np

from ..analysis.contracts import require_finite, require_positive
from .requests import Request, require_unique_ids

__all__ = [
    "poisson_arrivals",
    "uniform_arrivals",
    "replay_arrivals",
    "merge_streams",
]


def _require_rate_and_horizon(
    owner: str, rate_per_s: float, horizon_s: float
) -> None:
    require_finite(owner, rate_per_s=rate_per_s, horizon_s=horizon_s)
    require_positive(owner, rate_per_s=rate_per_s, horizon_s=horizon_s)


def _with_deadlines(
    workload: str,
    times_s: list[float],
    slo_s: float | None,
    start_id: int,
) -> list[Request]:
    return [
        Request(
            req_id=start_id + i,
            workload=workload,
            arrival_s=t,
            deadline_s=None if slo_s is None else t + slo_s,
        )
        for i, t in enumerate(times_s)
    ]


def poisson_arrivals(
    workload: str,
    rate_per_s: float,
    horizon_s: float,
    seed: int,
    slo_s: float | None = None,
    start_id: int = 0,
) -> list[Request]:
    """A seeded Poisson request stream over ``[0, horizon_s)``.

    Inter-arrival gaps are exponential with mean ``1 / rate_per_s``; the
    stream stops at the first arrival past the horizon, so the expected
    request count is ``rate_per_s * horizon_s``.
    """
    _require_rate_and_horizon("poisson_arrivals", rate_per_s, horizon_s)
    rng = np.random.default_rng(seed)
    times: list[float] = []
    now_s = 0.0
    while True:
        now_s += float(rng.exponential(1.0 / rate_per_s))
        if now_s >= horizon_s:
            break
        times.append(now_s)
    return _with_deadlines(workload, times, slo_s, start_id)


def uniform_arrivals(
    workload: str,
    rate_per_s: float,
    horizon_s: float,
    slo_s: float | None = None,
    start_id: int = 0,
) -> list[Request]:
    """A perfectly paced stream: one request every ``1 / rate_per_s``."""
    _require_rate_and_horizon("uniform_arrivals", rate_per_s, horizon_s)
    gap_s = 1.0 / rate_per_s
    count = int(horizon_s * rate_per_s)
    times = [i * gap_s for i in range(count) if i * gap_s < horizon_s]
    return _with_deadlines(workload, times, slo_s, start_id)


def replay_arrivals(
    workload: str,
    times_s: list[float],
    slo_s: float | None = None,
    start_id: int = 0,
) -> list[Request]:
    """Replay an explicit arrival-time trace (must be sorted ascending)."""
    if any(b < a for a, b in zip(times_s, times_s[1:])):
        raise ValueError("replay arrival times must be sorted ascending")
    if any(t < 0 for t in times_s):
        raise ValueError("replay arrival times must be non-negative")
    return _with_deadlines(workload, list(times_s), slo_s, start_id)


def merge_streams(*streams: list[Request]) -> list[Request]:
    """Interleave several request streams into one time-ordered stream.

    Requests keep their identities; ties on arrival time break by
    ``req_id`` so the merge is deterministic.  Callers give each stream a
    disjoint ``start_id`` range to keep ids unique.
    """
    merged = [request for stream in streams for request in stream]
    merged.sort(key=lambda r: (r.arrival_s, r.req_id))
    require_unique_ids(merged)
    return merged
