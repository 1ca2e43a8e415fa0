"""The engine's invariants as properties, on ``run`` and the frozen reference.

Each property holds for the model itself, so both engines must satisfy
it on every drawn config: a failure on ``run`` alone is an engine bug,
a failure on both is a fact about the model.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lightcone import EventQueueOverflowError, SampledGraph, SimConfig, run
from lightcone.sim import _refractory_end, pairwise_delays
from sim_reference import reference_run
from test_engine_reference import assert_same_run, positions, topologies
from test_sim import fire_times

ENGINES = pytest.mark.parametrize("engine", [run, reference_run],
                                  ids=["run", "reference"])
EXAMPLES = settings(max_examples=50, deadline=None)


@st.composite
def small_configs(draw, couplings=st.sampled_from([0.0, 0.1, 0.3, 0.5])):
    n = draw(st.integers(1, 8))
    period = draw(st.sampled_from([1.0, 0.7]))
    phases = draw(st.lists(
        st.floats(0.0, period, exclude_max=True, allow_subnormal=False),
        min_size=n, max_size=n))
    return SimConfig(
        positions=draw(positions(n)),
        signal_velocity=draw(st.sampled_from([1.0, 0.3, 2.0])),
        natural_period=period,
        duration=period * draw(st.integers(1, 4)),
        coupling_strength=draw(couplings),
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


def neighbours(config: SimConfig) -> np.ndarray:
    """Dense (n, n) mask of the pairs that carry spikes."""
    n = config.n_nodes
    if isinstance(config.topology, SampledGraph):
        graph = config.topology
        mask = np.zeros((n, n), dtype=bool)
        mask[np.repeat(np.arange(n), np.diff(graph.indptr)),
             graph.indices] = True
        return mask
    return ~np.eye(n, dtype=bool)


@ENGINES
@EXAMPLES
@given(config=small_configs(), extra_periods=st.integers(1, 3))
def test_shorter_run_is_a_prefix(engine, config, extra_periods):
    # Nothing after the duration can move an earlier event, so a shorter
    # run is the longer run's fires up to its duration, bit for bit.
    longer = dataclasses.replace(
        config,
        duration=config.duration + extra_periods * config.natural_period)
    long_trace = outcome(engine, longer)
    assume(long_trace is not None)
    trace = outcome(engine, config)
    # The shorter run schedules a subset of the longer run's events.
    assert trace is not None
    early = long_trace.times <= config.duration
    assert trace.times.tobytes() == long_trace.times[early].tobytes()
    assert trace.nodes.tobytes() == long_trace.nodes[early].tobytes()


@ENGINES
@EXAMPLES
@given(config=small_configs())
def test_no_node_fires_twice_within_the_refractory_window(engine, config):
    trace = outcome(engine, config)
    assume(trace is not None)
    refractory = config.refractory_fraction * config.natural_period
    for node in range(config.n_nodes):
        assert (np.diff(fire_times(trace, node)) >= refractory).all()


@ENGINES
@EXAMPLES
@given(config=small_configs(couplings=st.sampled_from([0.1, 0.3, 0.5])))
def test_cap_fires_replay_from_earlier_fires(engine, config):
    # Every fire the reference's audit log calls cap-induced must land
    # exactly on the emit time of some fire of a neighbour plus that
    # pair's delay, among the fires of the engine's own trace.
    trace = outcome(engine, config)
    assume(trace is not None)
    audited = reference_run(config, record_audit=True)
    assert_same_run(trace, audited)
    delays = pairwise_delays(config.positions, config.signal_velocity)
    linked = neighbours(config)
    fires = list(zip(trace.times.tolist(), trace.nodes.tolist()))
    for record in audited.audit:
        if record.outcome != "cap_fire":
            continue
        assert (record.time, record.target) in fires
        arrivals = {(emit + delays[src, record.target], src, emit)
                    for emit, src in fires if linked[src, record.target]}
        assert (record.time, record.source, record.emit_time) in arrivals


@ENGINES
@EXAMPLES
@given(config=small_configs(couplings=st.just(0.0)),
       scale=st.floats(0.01, 100.0))
def test_null_control_ignores_the_geometry(engine, config, scale):
    scaled = dataclasses.replace(config, positions=config.positions * scale)
    trace, scaled_trace = engine(config), engine(scaled)
    assert scaled_trace.times.tobytes() == trace.times.tobytes()
    assert scaled_trace.nodes.tobytes() == trace.nodes.tobytes()
    assert scaled_trace.n_events == trace.n_events


def natural_fires(config: SimConfig) -> list[float]:
    """The fire times of a node left alone from phase 0: T, T + T, ..."""
    fires, t = [], config.natural_period
    while t <= config.duration:
        fires.append(t)
        t += config.natural_period
    return fires


def volley_survives(config: SimConfig) -> bool:
    """Whether every arrival of a synchronous volley lands refractory.

    The exact rounded predicate: a spike sent at t over delay d is
    refractory when t + d < _refractory_end(t, refractory), checked for
    every fire period whose arrivals fall within the duration.
    """
    refractory = config.refractory_fraction * config.natural_period
    delays = pairwise_delays(config.positions,
                             config.signal_velocity)[neighbours(config)]
    for t in natural_fires(config):
        arrivals = t + delays
        arrivals = arrivals[arrivals <= config.duration]
        if (arrivals >= _refractory_end(t, refractory)).any():
            return False
    return True


@st.composite
def synchronous_starts(draw):
    """All phases 0, the longest edge delay drawn about the window's edge.

    Either the positions are scaled so the longest edge delay is a drawn
    multiple of the refractory window, or (1-D, v = 1) one edge's delay
    is set to the exact gap between some fire and its refractory end, so
    that edge's arrival lands on that end. Delays stay below 0.7 T.
    """
    n = draw(st.integers(2, 6))
    period = draw(st.sampled_from([1.0, 0.7]))
    n_periods = draw(st.integers(2, 4))
    rho = draw(st.floats(0.05, 0.45))
    topology = draw(topologies(n))
    config = SimConfig(
        positions=np.zeros((n, 1)),
        signal_velocity=draw(st.sampled_from([1.0, 0.3, 2.0])),
        natural_period=period,
        duration=period * n_periods,
        coupling_strength=draw(st.floats(0.05, 0.5)),
        refractory_fraction=rho,
        initial_phases=np.zeros(n),
        topology=topology,
        max_events=20_000,
    )
    linked = neighbours(config)
    if not linked.any():
        return config
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # The last period's spikes land past the duration, so the gap is
        # taken at an earlier fire. Every node lies within [0, gap], so
        # no delay exceeds it.
        fires = natural_fires(config)[:n_periods - 1]
        t = fires[draw(st.integers(0, len(fires) - 1))]
        gap = _refractory_end(t, rho * period) - t
        source, target = np.argwhere(linked)[0]
        unit = rng.uniform(0.0, 1.0, n)
        unit[source], unit[target] = 0.0, 1.0
        return dataclasses.replace(config, signal_velocity=1.0,
                                   positions=(unit * gap)[:, None])
    unit = rng.uniform(0.0, 1.0, (n, draw(st.integers(1, 3))))
    longest = pairwise_delays(unit, config.signal_velocity)[linked].max()
    assume(longest > 0.0)
    multiple = draw(st.just(1.0) | st.floats(0.5, 1.5))
    return dataclasses.replace(
        config, positions=unit * (multiple * rho * period / longest))


@ENGINES
@settings(max_examples=150, deadline=None)
@given(config=synchronous_starts())
def test_synchronous_volley_holds_exactly_inside_the_refractory_window(
        engine, config):
    # Started together, every node fires at each whole period while all
    # of a volley's arrivals land refractory, whatever the coupling.
    # Once one lands outside, its target fires off the grid of periods.
    trace = engine(config)
    fires = natural_fires(config)
    if volley_survives(config):
        n = config.n_nodes
        assert trace.times.tolist() == np.repeat(fires, n).tolist()
        assert trace.nodes.tolist() == list(range(n)) * len(fires)
    else:
        assert not np.isin(trace.times, fires).all()
