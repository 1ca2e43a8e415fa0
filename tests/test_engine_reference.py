"""The delivery-cursor engine against the frozen one-entry-per-delivery engine.

``sim.run`` must reproduce ``reference_run`` exactly: fire times bit for
bit, fire order, the event count, and the pop at which the event budget
overflows, though it skips the deliveries already known to be
refractory where the reference pops each one.
"""
import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcone import EventQueueOverflowError, SampledGraph, SimConfig, run
from sim_reference import reference_run

# Coordinates whose pairwise distances collide, or miss by one ulp.
NEAR_TIES = [0.0, 0.1, math.nextafter(0.1, 1.0), -0.1,
             -math.nextafter(0.1, 1.0), 0.2, 0.3, 0.7]


def assert_same_run(got, expected):
    assert got.times.tobytes() == expected.times.tobytes()
    assert got.nodes.tobytes() == expected.nodes.tobytes()
    assert got.n_events == expected.n_events


@pytest.mark.parametrize("diameter_over_vt, periods", [
    (0.1, 10), (1.0, 40), (4.0, 10),
])
def test_baseline_pools_match_reference(diameter_over_vt, periods):
    rng = np.random.default_rng(1)
    config = SimConfig(positions=rng.uniform(0, 1, (64, 2)) * diameter_over_vt,
                       signal_velocity=1.0, natural_period=1.0,
                       duration=float(periods),
                       initial_phases=rng.uniform(0, 1, 64))
    assert_same_run(run(config), reference_run(config))


def test_rounding_tie_keeps_sequence_order():
    # Node 0's delays to nodes 2 and 1 are 0.1 < nextafter(0.1): sorted by
    # delay, node 2 comes first, but 0.5 + both delays round to one
    # arrival time, where the sequence number (neighbour position) puts
    # node 1 first.
    a, b = 0.1, math.nextafter(0.1, 1.0)
    assert 0.5 + a == 0.5 + b
    config = SimConfig(positions=[[0.0], [b], [-a]], signal_velocity=1.0,
                       natural_period=1.0, duration=1.0,
                       coupling_strength=0.3, refractory_fraction=0.35,
                       initial_phases=np.array([0.5, 0.2, 0.25]))
    trace = run(config)
    assert trace.nodes.tolist() == [0, 1, 2]
    assert trace.times[1] == trace.times[2] == 0.5 + a
    assert_same_run(trace, reference_run(config))


def test_delivery_on_its_sources_next_fire_follows_that_fire():
    # Node 0 fires at 0.5; its delivery to node 1 (delay 0.3 / 0.3 = 1)
    # lands at 1.5, exactly on node 0's next natural fire. Both carry the
    # sequence number of the fire at 0.5, and the fire entry sorts first.
    # Node 1, at phase 0.7 then, cap-fires on the delivery, so the trace
    # shows the order.
    config = SimConfig(positions=[[0.0], [0.3], [0.6]], signal_velocity=0.3,
                       natural_period=1.0, duration=6.0,
                       coupling_strength=0.3, refractory_fraction=0.0,
                       initial_phases=np.array([0.5, 0.2, 0.0]))
    trace = run(config)
    fires = list(zip(trace.times.tolist(), trace.nodes.tolist()))
    assert [f for f in fires if f[0] == 1.5] == [(1.5, 0), (1.5, 1)]
    assert_same_run(trace, reference_run(config))


def test_arrival_on_the_duration_counts_and_later_ones_do_not():
    # Node 0 fires at 0.5 and its delivery lands at 1.0, exactly on the
    # duration: it counts as an event. Node 1 fires at 0.8; its delivery
    # lands at 1.3, and every later fire falls past the end.
    config = SimConfig(positions=[[0.0], [0.5]], signal_velocity=1.0,
                       natural_period=1.0, duration=1.0,
                       coupling_strength=0.1, refractory_fraction=0.0,
                       initial_phases=np.array([0.5, 0.2]))
    trace = run(config)
    assert trace.times.tolist() == [0.5, 0.8]
    # Two initial fires and the delivery at 1.0.
    assert trace.n_events == 3
    assert_same_run(trace, reference_run(config))
    exact = dataclasses.replace(config, max_events=3)
    assert_same_run(run(exact), reference_run(exact))
    with pytest.raises(EventQueueOverflowError):
        run(dataclasses.replace(config, max_events=2))


@st.composite
def positions(draw, n):
    kind = draw(st.sampled_from(["uniform", "lattice", "near_tie"]))
    if kind == "near_tie":
        return np.array([[draw(st.sampled_from(NEAR_TIES))] for _ in range(n)])
    dim = draw(st.integers(1, 3))
    if kind == "lattice":
        # Integer grid points: many source-target pairs share a delay.
        spacing = draw(st.sampled_from([0.1, 0.25, 0.3]))
        cells = draw(st.lists(st.integers(0, 3), min_size=n * dim,
                              max_size=n * dim))
        return np.array(cells, dtype=float).reshape(n, dim) * spacing
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(0.0, draw(st.sampled_from([0.05, 0.5, 1.0, 3.0])),
                       (n, dim))


@st.composite
def topologies(draw, n):
    if draw(st.booleans()):
        return "all_to_all"
    upper = np.triu(np.array(draw(st.lists(
        st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n), 1)
    dense = (upper | upper.T).astype(float)
    adjacency = sp.csr_matrix(dense)
    if draw(st.booleans()):
        # Neighbour lists out of index order: positions, not ids, rank
        # the deliveries of one fire.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        indices = adjacency.indices.copy()
        for i in range(n):
            row = slice(adjacency.indptr[i], adjacency.indptr[i + 1])
            indices[row] = rng.permutation(indices[row])
        adjacency = sp.csr_matrix(
            (adjacency.data, indices, adjacency.indptr), shape=(n, n))
    return SampledGraph(n_nodes=n, indptr=adjacency.indptr,
                        indices=adjacency.indices)


@st.composite
def sim_configs(draw):
    n = draw(st.integers(1, 10))
    period = draw(st.sampled_from([1.0, 0.7]))
    phases = draw(st.lists(
        st.floats(0.0, period, exclude_max=True, allow_subnormal=False),
        min_size=n, max_size=n))
    return SimConfig(
        positions=draw(positions(n)),
        signal_velocity=draw(st.sampled_from([1.0, 0.3, 2.0])),
        natural_period=period,
        duration=period * draw(st.integers(1, 6)),
        coupling_strength=draw(st.sampled_from([0.0, 0.1, 0.3, 0.5])),
        refractory_fraction=draw(st.floats(0.0, 0.45)),
        initial_phases=np.array(phases),
        topology=draw(topologies(n)),
        max_events=20_000,
    )


def outcome(engine, config):
    try:
        return engine(config)
    except EventQueueOverflowError:
        return None


@settings(max_examples=300, deadline=None)
@given(config=sim_configs())
def test_engine_matches_reference(config):
    expected = outcome(reference_run, config)
    got = outcome(run, config)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert_same_run(got, expected)


@settings(max_examples=100, deadline=None)
@given(config=sim_configs())
def test_event_budget_overflows_at_the_same_pop(config):
    events = outcome(reference_run, config)
    if events is None or events.n_events < 2:
        return
    exact = dataclasses.replace(config, max_events=events.n_events)
    assert_same_run(run(exact), reference_run(exact))
    short = dataclasses.replace(config, max_events=events.n_events - 1)
    for engine in (run, reference_run):
        with pytest.raises(EventQueueOverflowError):
            engine(short)
