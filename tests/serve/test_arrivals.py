"""Arrival generators: seeded determinism, rates, deadlines, merging."""

import pytest

from repro.serve.arrivals import (
    merge_streams,
    poisson_arrivals,
    replay_arrivals,
    uniform_arrivals,
)


def test_poisson_is_a_pure_function_of_the_seed():
    a = poisson_arrivals("net", rate_per_s=100, horizon_s=2.0, seed=7)
    b = poisson_arrivals("net", rate_per_s=100, horizon_s=2.0, seed=7)
    assert a == b
    c = poisson_arrivals("net", rate_per_s=100, horizon_s=2.0, seed=8)
    assert a != c


def test_poisson_rate_and_window():
    stream = poisson_arrivals("net", rate_per_s=500, horizon_s=4.0, seed=0)
    assert all(0 <= r.arrival_s < 4.0 for r in stream)
    times = [r.arrival_s for r in stream]
    assert times == sorted(times)
    # Mean count is rate * horizon = 2000; allow a generous 5-sigma band.
    assert 1700 < len(stream) < 2300


def test_deadlines_follow_arrivals():
    stream = poisson_arrivals(
        "net", rate_per_s=50, horizon_s=1.0, seed=1, slo_s=0.05
    )
    assert all(r.deadline_s == pytest.approx(r.arrival_s + 0.05) for r in stream)
    bare = poisson_arrivals("net", rate_per_s=50, horizon_s=1.0, seed=1)
    assert all(r.deadline_s is None for r in bare)


def test_uniform_spacing():
    stream = uniform_arrivals("net", rate_per_s=10, horizon_s=1.0)
    assert len(stream) == 10
    gaps = {
        round(b.arrival_s - a.arrival_s, 12)
        for a, b in zip(stream, stream[1:])
    }
    assert gaps == {0.1}


def test_replay_validates_ordering():
    stream = replay_arrivals("net", [0.0, 0.5, 0.5, 2.0], slo_s=1.0)
    assert [r.arrival_s for r in stream] == [0.0, 0.5, 0.5, 2.0]
    with pytest.raises(ValueError):
        replay_arrivals("net", [1.0, 0.5])
    with pytest.raises(ValueError):
        replay_arrivals("net", [-0.1, 0.5])


def test_merge_streams_orders_and_rejects_duplicates():
    a = uniform_arrivals("a", rate_per_s=10, horizon_s=0.5, start_id=0)
    b = uniform_arrivals("b", rate_per_s=7, horizon_s=0.5, start_id=100)
    merged = merge_streams(a, b)
    assert len(merged) == len(a) + len(b)
    keys = [(r.arrival_s, r.req_id) for r in merged]
    assert keys == sorted(keys)
    with pytest.raises(ValueError):
        merge_streams(a, a)


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        poisson_arrivals("net", rate_per_s=0, horizon_s=1.0, seed=0)
    with pytest.raises(ValueError):
        uniform_arrivals("net", rate_per_s=5, horizon_s=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_generators_reject_non_finite_rate_and_horizon(bad):
    with pytest.raises(ValueError, match="rate_per_s: must be finite"):
        poisson_arrivals("net", rate_per_s=bad, horizon_s=1.0, seed=0)
    with pytest.raises(ValueError, match="horizon_s: must be finite"):
        poisson_arrivals("net", rate_per_s=5, horizon_s=bad, seed=0)
    with pytest.raises(ValueError, match="rate_per_s: must be finite"):
        uniform_arrivals("net", rate_per_s=bad, horizon_s=1.0)
    with pytest.raises(ValueError, match="horizon_s: must be finite"):
        uniform_arrivals("net", rate_per_s=5, horizon_s=bad)
