import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcone import (
    EventQueueOverflowError,
    PowerLaw,
    SampledGraph,
    SimConfig,
    SpikeTrace,
    pairwise_delays,
    run,
    sample_graph,
    synchrony_metrics,
)
from lightcone.sim import (
    _delays,
    _lanes,
    _neighbour_lists,
    _order_parameter,
    _refractory_end,
)
from pathlen_reference import as_csr_matrix
from sim_reference import reference_run
from test_engine_reference import assert_same_run


def two_node_oracle(distance, velocity, period, coupling, refractory,
                    phases, duration):
    """Independent two-oscillator reference: explicit state stepping.

    Tracks both phases directly and scans candidate events with min()
    instead of a priority queue; shares only the model definition with
    the engine. Returns the two fire-time lists.
    """
    tau = distance / velocity
    eps = coupling * period
    rho = refractory * period
    phase = [float(phases[0]), float(phases[1])]
    last_fire = [-math.inf, -math.inf]
    pending: list[list[float]] = [[], []]  # arrival times per target
    fires: list[list[float]] = [[], []]
    now = 0.0

    def advance_clock(t):
        nonlocal now
        phase[0] += t - now
        phase[1] += t - now
        now = t

    def fire(node, t):
        fires[node].append(t)
        last_fire[node] = t
        phase[node] = 0.0
        pending[1 - node].append(t + tau)

    while True:
        candidates = []
        for node in (0, 1):
            candidates.append((now + (period - phase[node]), node, 0, node))
        for node in (0, 1):
            if pending[node]:
                candidates.append((min(pending[node]), 1 - node, 1, node))
        t, source, kind, node = min(candidates)
        if t > duration:
            return fires
        advance_clock(t)
        if kind == 0:
            fire(node, t)
            continue
        pending[node].remove(t)
        if t - last_fire[node] < rho:
            continue
        advanced = phase[node] + eps
        if advanced >= period:
            fire(node, t)
        else:
            phase[node] = advanced


def two_node_config(distance, coupling=0.3, refractory=0.35,
                    phases=(0.5, 0.0), duration=25.0, **kwargs):
    return SimConfig(
        positions=[[0.0, 0.0], [distance, 0.0]],
        signal_velocity=1.0,
        natural_period=1.0,
        duration=duration,
        coupling_strength=coupling,
        refractory_fraction=refractory,
        initial_phases=np.asarray(phases),
        **kwargs,
    )


def fire_times(trace, node):
    """The fire times of one node, in order."""
    return trace.times[trace.nodes == node]


class TestConfigValidation:
    def test_duration_shorter_than_period_rejected(self):
        with pytest.raises(ValueError):
            two_node_config(0.1, duration=0.5)

    def test_coupling_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            two_node_config(0.1, coupling=0.6)
        with pytest.raises(ValueError):
            two_node_config(0.1, coupling=-0.1)

    def test_refractory_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            two_node_config(0.1, refractory=0.5)

    def test_phases_must_lie_in_period(self):
        with pytest.raises(ValueError):
            two_node_config(0.1, phases=(1.0, 0.0))

    def test_nonfinite_positions_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(positions=[[0.0, np.inf]], signal_velocity=1.0,
                      natural_period=1.0, duration=2.0)

    @pytest.mark.parametrize("field, value", [
        ("signal_velocity", math.nan),
        ("natural_period", math.nan),
        ("duration", math.inf),
        ("max_events", 2.5),
        ("max_events", True),
        ("seed", True),
        ("seed", 1.5),
        ("seed", -1),
    ])
    def test_bad_scalar_rejected_by_name(self, field, value):
        fields = dict(positions=[[0.0, 0.0]], signal_velocity=1.0,
                      natural_period=1.0, duration=2.0)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            SimConfig(**fields)


class TestUncoupledDynamics:
    def test_single_node_fires_at_exact_periods(self):
        config = SimConfig(positions=[[0.0, 0.0]], signal_velocity=1.0,
                           natural_period=1.0, duration=10.0,
                           initial_phases=np.array([0.0]))
        trace = run(config)
        assert trace.times.tolist() == [float(k) for k in range(1, 11)]

    def test_zero_coupling_keeps_natural_periods(self):
        phases = np.array([0.3, 0.7, 0.0, 0.55])
        config = SimConfig(positions=np.random.default_rng(0).uniform(0, 1, (4, 2)),
                           signal_velocity=1.0, natural_period=1.0,
                           duration=20.0, coupling_strength=0.0,
                           initial_phases=phases)
        trace = run(config)
        for node in range(4):
            expected = []
            t = -phases[node] + 1.0
            while t <= 20.0:
                expected.append(t)
                t = t + 1.0
            assert fire_times(trace, node).tolist() == expected

    def test_time_translation_invariance(self):
        phases = np.array([0.2, 0.6])
        delta = 0.15
        base = run(two_node_config(0.3, coupling=0.0, phases=phases))
        shifted = run(two_node_config(0.3, coupling=0.0,
                                      phases=phases + delta))
        for node in (0, 1):
            a = fire_times(base, node)
            b = fire_times(shifted, node)
            m = min(len(a), len(b))
            assert np.allclose(a[:m] - delta, b[:m], rtol=0, atol=1e-12)


def graph_config(graph, coupling=0.3):
    rng = np.random.default_rng(11)
    return SimConfig(positions=rng.uniform(0, 0.5, (16, 2)),
                     signal_velocity=1.0, natural_period=1.0, duration=15.0,
                     coupling_strength=coupling,
                     initial_phases=rng.uniform(0, 1, 16), topology=graph)


def graph_of(dense: np.ndarray) -> SampledGraph:
    adjacency = sp.csr_matrix(dense)
    return SampledGraph(n_nodes=len(dense), indptr=adjacency.indptr,
                        indices=adjacency.indices, seed=0)


def same_trace(a, b) -> bool:
    return (np.array_equal(a.times, b.times)
            and np.array_equal(a.nodes, b.nodes) and a.n_events == b.n_events)


class TestSampledTopology:
    def test_complete_graph_matches_all_to_all(self):
        complete = graph_of(np.ones((16, 16)) - np.eye(16))
        assert same_trace(run(graph_config(complete)),
                          run(graph_config("all_to_all")))

    def test_edgeless_graph_matches_zero_coupling(self):
        edgeless = graph_of(np.zeros((16, 16)))
        assert same_trace(run(graph_config(edgeless)),
                          run(graph_config(edgeless, coupling=0.0)))

    def test_sparse_run_builds_no_dense_delay_matrix(self):
        # Delays live on the edges: a coupled 2000-node ring must peak far
        # below one dense N x N delay matrix of 8 N^2 bytes.
        n = 2000
        ids = np.arange(n)
        ring = sp.csr_matrix(
            (np.ones(2 * n), (np.r_[ids, ids],
                              np.r_[(ids + 1) % n, (ids - 1) % n])),
            shape=(n, n))
        config = SimConfig(
            positions=np.random.default_rng(0).uniform(0, 1, (n, 2)),
            signal_velocity=1.0, natural_period=1.0, duration=1.0,
            topology=SampledGraph(n_nodes=n, indptr=ring.indptr,
                                  indices=ring.indices, seed=0))
        tracemalloc.start()
        try:
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n


class TestLanes:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_delays_keep_the_bits_of_the_summed_squares(self, dim):
        pos = np.random.default_rng(dim).uniform(-3.0, 3.0, (40, dim))
        diff = pos[:, None, :] - pos[None, :, :]
        expected = np.sqrt((diff ** 2).sum(axis=-1)) / 0.7
        delays = pairwise_delays(pos, 0.7)
        assert delays.tobytes() == expected.tobytes()
        config = SimConfig(positions=pos, signal_velocity=0.7,
                           natural_period=1.0, duration=1.0)
        lanes, _ = _lanes(config)
        for i, (lane_delays, targets, fan) in enumerate(lanes):
            assert lane_delays[:fan] == delays[i, targets[:fan]].tolist()
            # Every lane ends in one sentinel delivery: delay inf, slot n.
            assert (lane_delays[fan:], targets[fan:]) == ([math.inf], [40])

    def test_lane_setup_peaks_near_what_the_lanes_hold(self):
        # The edge-sized temporaries must be freed before the per-source
        # lists are built, or the peak reaches about twice what is held.
        n = 512
        config = SimConfig(
            positions=np.random.default_rng(0).uniform(0, 1, (n, 2)),
            signal_velocity=1.0, natural_period=1.0, duration=1.0)
        tracemalloc.start()
        try:
            lanes, _ = _lanes(config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lanes) == n
        assert peak < 1.6 * held


class TestDeterminism:
    def test_identical_configs_give_identical_traces(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 0.5, (12, 2))
        phases = rng.uniform(0, 1, 12)
        def make():
            return run(SimConfig(positions=pos, signal_velocity=1.0,
                                 natural_period=1.0, duration=15.0,
                                 initial_phases=phases))
        a, b = make(), make()
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.nodes, b.nodes)
        assert a.n_events == b.n_events

    def test_seed_fills_in_phases_deterministically(self):
        config = SimConfig(positions=[[0.0, 0.0], [0.2, 0.0]],
                           signal_velocity=1.0, natural_period=1.0,
                           duration=5.0, seed=77)
        a, b = run(config), run(config)
        assert np.array_equal(a.times, b.times)


class TestOracleEquivalence:
    @pytest.mark.parametrize("params", [
        dict(distance=0.1, coupling=0.3, refractory=0.35, phases=(0.5, 0.0)),
        dict(distance=0.37, coupling=0.23, refractory=0.31, phases=(0.2, 0.55)),
        dict(distance=1.7, coupling=0.45, refractory=0.2, phases=(0.9, 0.35)),
    ])
    def test_engine_matches_independent_oracle_100_periods(self, params):
        duration = 100.0
        config = two_node_config(params["distance"],
                                 coupling=params["coupling"],
                                 refractory=params["refractory"],
                                 phases=params["phases"],
                                 duration=duration)
        trace = run(config)
        oracle = two_node_oracle(params["distance"], 1.0, 1.0,
                                 params["coupling"], params["refractory"],
                                 params["phases"], duration)
        for node in (0, 1):
            engine_times = fire_times(trace, node)
            oracle_times = np.asarray(oracle[node])
            assert len(engine_times) == len(oracle_times)
            assert np.max(np.abs(engine_times - oracle_times)) < 1e-9


class TestTwoNodeScenarios:
    def test_close_pair_locks_from_antiphase(self):
        trace = run(two_node_config(0.1, duration=20.0))
        report = synchrony_metrics(trace, window=10.0)
        assert report.order_parameter > 0.95
        assert report.locked
        assert report.convergence_time is not None
        assert report.convergence_time <= 20.0

    def test_distant_pair_cannot_interact_within_period(self):
        config = two_node_config(3.0, duration=12.0)
        trace = reference_run(config, record_audit=True)
        assert_same_run(run(config), trace)
        deliveries = [r for r in trace.audit if r.kind == "delivery"]
        assert deliveries
        for record in deliveries:
            assert record.time - record.emit_time >= 3.0 - 1e-12
        induced = [r for r in deliveries if r.outcome == "cap_fire"]
        for record in induced:
            assert record.time - record.emit_time >= 3.0 - 1e-12
        # No lock within the early periods: anti-phase start cancels.
        early, _ = trace.in_window(0.0, 3.0)
        angles = 2 * np.pi * (early % 1.0)
        assert abs(np.exp(1j * angles).mean()) < 0.5


class TestAuditLog:
    def make_trace(self):
        # The reference engine's log, of a trace that run reproduces.
        rng = np.random.default_rng(3)
        config = SimConfig(positions=rng.uniform(0, 0.6, (5, 2)),
                           signal_velocity=1.0, natural_period=1.0,
                           duration=15.0, coupling_strength=0.25,
                           refractory_fraction=0.2,
                           initial_phases=rng.uniform(0, 1, 5))
        trace = reference_run(config, record_audit=True)
        assert_same_run(run(config), trace)
        return config, trace

    def test_log_is_chronological(self):
        _, trace = self.make_trace()
        times = [r.time for r in trace.audit]
        assert times == sorted(times)

    def test_delay_correctness(self):
        config, trace = self.make_trace()
        delays = pairwise_delays(config.positions, config.signal_velocity)
        checked = 0
        for record in trace.audit:
            if record.kind != "delivery":
                continue
            delay = delays[record.source][record.target]
            assert record.time == record.emit_time + delay
            assert abs((record.time - record.emit_time) - delay) <= (
                1e-12 * max(delay, record.emit_time, 1.0)
            )
            checked += 1
        assert checked > 10

    def test_causality_replay_reconstructs_every_fire(self):
        # Re-derive each node's trajectory from its logged deliveries: every
        # fire must be explained by events at or before its own time.
        config, trace = self.make_trace()
        T = config.natural_period
        eps = config.coupling_strength * T
        rho = config.refractory_fraction * T
        phases = config.initial_phases
        origin = {i: -float(phases[i]) for i in range(config.n_nodes)}
        last = {i: -math.inf for i in range(config.n_nodes)}
        for record in trace.audit:
            node = record.target
            if record.kind == "fire" and record.outcome == "fire":
                assert record.time == pytest.approx(origin[node] + T,
                                                    abs=1e-12)
                origin[node] = record.time
                last[node] = record.time
            elif record.outcome == "cap_fire":
                assert record.time - origin[node] + eps >= T - 1e-12
                origin[node] = record.time
                last[node] = record.time
            elif record.outcome == "advance":
                assert record.time - last[node] >= rho
                origin[node] -= eps
            elif record.outcome == "refractory":
                assert record.time - last[node] < rho
        # Each logged fire also appears in the trace, in the same order.
        logged = [(r.time, r.target) for r in trace.audit
                  if r.outcome in ("fire", "cap_fire")]
        assert logged == list(zip(trace.times.tolist(), trace.nodes.tolist()))

    def test_minimum_interspike_interval(self):
        config, trace = self.make_trace()
        floor = config.refractory_fraction * config.natural_period
        for node in range(config.n_nodes):
            gaps = np.diff(fire_times(trace, node))
            if len(gaps):
                assert gaps.min() >= floor - 1e-12


class TestEventBudget:
    def test_overflow_raises_with_parameters(self):
        config = two_node_config(0.1, duration=25.0, max_events=10)
        with pytest.raises(EventQueueOverflowError) as info:
            run(config)
        assert info.value.max_events == 10
        assert info.value.coupling_strength == 0.3


class TestSynchronyMetrics:
    def test_perfect_alignment_gives_one(self):
        config = SimConfig(positions=np.zeros((4, 2)), signal_velocity=1.0,
                           natural_period=1.0, duration=10.0,
                           coupling_strength=0.0,
                           initial_phases=np.full(4, 0.25))
        report = synchrony_metrics(run(config))
        assert report.order_parameter == pytest.approx(1.0)
        assert report.locked

    def test_symmetric_phases_cancel(self):
        config = SimConfig(positions=np.zeros((4, 2)), signal_velocity=1.0,
                           natural_period=1.0, duration=10.0,
                           coupling_strength=0.0,
                           initial_phases=np.array([0.0, 0.25, 0.5, 0.75]))
        report = synchrony_metrics(run(config))
        assert report.order_parameter == pytest.approx(0.0, abs=1e-12)
        assert not report.locked
        assert report.convergence_time is None

    def test_per_node_phase_reported(self):
        config = SimConfig(positions=np.zeros((2, 2)), signal_velocity=1.0,
                           natural_period=1.0, duration=10.0,
                           coupling_strength=0.0,
                           initial_phases=np.array([0.0, 0.5]))
        report = synchrony_metrics(run(config))
        assert report.per_node_phase.shape == (2,)
        gap = abs(report.per_node_phase[0] - report.per_node_phase[1])
        assert min(gap, 1.0 - gap) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("side", [0.1, 1.0, 4.0])
    def test_per_node_phase_matches_per_node_loop(self, side):
        # A 64-node, 3-period cell; node 5's spikes are removed, so it
        # must come out NaN.
        rng = np.random.default_rng(11)
        trace = run(SimConfig(positions=rng.uniform(0, side, (64, 2)),
                              signal_velocity=1.0, natural_period=1.0,
                              duration=3.0,
                              initial_phases=rng.uniform(0, 1.0, 64)))
        keep = trace.nodes != 5
        trace = type(trace)(times=trace.times[keep], nodes=trace.nodes[keep],
                            n_nodes=64, natural_period=1.0, duration=3.0,
                            n_events=trace.n_events)
        report = synchrony_metrics(trace)
        times, nodes = trace.in_window(0.0, 3.0)
        period = trace.natural_period
        looped = np.full(64, np.nan)
        for i in range(64):
            own = times[nodes == i]
            if len(own):
                angles = 2.0 * np.pi * ((own % period) / period)
                mean_angle = np.angle(np.exp(1j * angles).mean())
                looped[i] = (mean_angle / (2.0 * np.pi)) % 1.0 * period
        assert np.array_equal(np.isnan(report.per_node_phase),
                              np.isnan(looped))
        assert np.isnan(looped[5]) and np.isnan(looped).sum() == 1
        spiked = ~np.isnan(looped)
        gap = np.abs(report.per_node_phase[spiked] - looped[spiked]) % period
        # Distance around the circle: 0 and period are the same phase.
        assert np.minimum(gap, period - gap).max() <= 1e-12

    def test_default_window_is_whole_trace_when_shorter(self):
        trace = run(two_node_config(0.1, duration=3.0))
        default = synchrony_metrics(trace)
        explicit = synchrony_metrics(trace, window=3.0)
        assert default.order_parameter == explicit.order_parameter
        assert default.n_spikes == explicit.n_spikes
        assert default.convergence_time == explicit.convergence_time
        assert np.array_equal(default.per_node_phase, explicit.per_node_phase)

    @pytest.mark.parametrize("threshold", [0.0, 1.5, math.nan])
    def test_lock_threshold_out_of_range_rejected(self, threshold):
        trace = run(two_node_config(0.1, duration=5.0))
        with pytest.raises(ValueError, match="^lock_threshold"):
            synchrony_metrics(trace, lock_threshold=threshold)

    def test_window_larger_than_duration_rejected(self):
        trace = run(two_node_config(0.1, duration=5.0))
        with pytest.raises(ValueError):
            synchrony_metrics(trace, window=6.0)

    def test_empty_window_rejected(self):
        # A window placed after every spike has nothing to analyse.
        config = SimConfig(positions=[[0.0, 0.0]], signal_velocity=1.0,
                           natural_period=1.0, duration=10.0,
                           coupling_strength=0.0,
                           initial_phases=np.array([0.999999]),
                           max_events=100)
        trace = run(config)
        pruned = type(trace)(times=trace.times[trace.times < 2.0],
                             nodes=trace.nodes[trace.times < 2.0],
                             n_nodes=1, natural_period=1.0, duration=10.0,
                             n_events=trace.n_events)
        with pytest.raises(ValueError, match="no spikes"):
            synchrony_metrics(pruned, window=1.0)


class TestClusterRegression:
    def test_hundred_node_cluster_baseline(self):
        # Frozen after the first verified run: deterministic regression
        # anchor for a tight 100-node cluster after 50 periods.
        rng = np.random.default_rng(7)
        config = SimConfig(positions=rng.uniform(0, 0.05, (100, 2)),
                           signal_velocity=1.0, natural_period=1.0,
                           duration=50.0,
                           initial_phases=rng.uniform(0, 1.0, 100))
        report = synchrony_metrics(run(config))
        assert report.order_parameter == pytest.approx(0.997867486384038,
                                                       rel=1e-9)
        assert report.locked


def _has_rounding_tie(delays: list[float], ranks: list[int],
                      tol: float) -> bool:
    """Whether two distinct sorted delays within ``tol`` are out of rank order."""
    for a in range(len(delays)):
        b = a + 1
        while b < len(delays) and delays[b] - delays[a] <= tol:
            if delays[b] != delays[a] and ranks[b] < ranks[a]:
                return True
            b += 1
    return False


def lexsort_lanes(config):
    """Lanes and tied ranks from one ``np.lexsort((delays, rows))``.

    A source is tied by the pairwise rule: ``_has_rounding_tie`` checks
    every pair of its sorted delays within one ulp, not only neighbours.
    Each lane ends in the engine's sentinel delivery (delay inf, slot n).
    """
    indptr, indices = _neighbour_lists(config)
    rows = np.repeat(np.arange(config.n_nodes), np.diff(indptr))
    delays = _delays(config.positions, rows, indices,
                     config.signal_velocity)
    order = np.lexsort((delays, rows))
    delays, targets = delays[order], indices[order]
    tol = math.ulp(config.duration + float(delays.max(initial=0.0)))
    lanes, tied = [], {}
    for i, (a, b) in enumerate(zip(indptr[:-1].tolist(),
                                   indptr[1:].tolist())):
        lanes.append((delays[a:b].tolist() + [math.inf],
                      targets[a:b].tolist() + [config.n_nodes], b - a))
        if _has_rounding_tie(delays[a:b].tolist(), order[a:b].tolist(), tol):
            tied[i] = order[a:b].tolist()
    return lanes, tied


# Coordinates whose distances collide or miss by an ulp or two.
NEAR_TIE = [0.0, 0.1, math.nextafter(0.1, 1.0), -0.1,
            -math.nextafter(0.1, 1.0), 0.2, math.nextafter(0.2, 0.0), 0.3]


@st.composite
def near_tie_configs(draw):
    """Small coupled pools placed on scaled near-tie coordinates."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 10))
    coords = draw(st.lists(st.sampled_from(NEAR_TIE), min_size=n * dim,
                           max_size=n * dim))
    scale = draw(st.sampled_from([1.0, 0.5, 3.0, 0.01]))
    phases = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                           min_size=n, max_size=n))
    return SimConfig(positions=np.array(coords).reshape(n, dim) * scale,
                     signal_velocity=draw(st.sampled_from([0.3, 1.0, 7.0])),
                     natural_period=1.0,
                     duration=draw(st.sampled_from([1.0, 2.5, 6.0])),
                     initial_phases=np.array(phases))


def powerlaw_with_isolated_nodes():
    graph = sample_graph(PowerLaw(2.2), 120, 3)
    keep = np.ones(120)
    keep[::7] = 0.0
    cut = sp.diags(keep)
    adjacency = (cut @ as_csr_matrix(graph) @ cut).tocsr()
    adjacency.eliminate_zeros()
    return SampledGraph(n_nodes=120, indptr=adjacency.indptr,
                        indices=adjacency.indices, seed=3)


class TestLaneOrder:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_all_to_all_matches_lexsort(self, dim):
        pos = np.random.default_rng(dim).uniform(-1.0, 1.0, (50, dim))
        config = SimConfig(positions=pos, signal_velocity=0.7,
                           natural_period=1.0, duration=3.0)
        assert _lanes(config) == lexsort_lanes(config)

    def test_sampled_graph_with_isolated_nodes_matches_lexsort(self):
        graph = powerlaw_with_isolated_nodes()
        fans = np.diff(graph.indptr)
        assert (fans == 0).any() and len(np.unique(fans)) > 3
        config = SimConfig(
            positions=np.random.default_rng(4).uniform(0, 1, (120, 2)),
            signal_velocity=1.0, natural_period=1.0, duration=3.0,
            topology=graph)
        assert _lanes(config) == lexsort_lanes(config)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_near_ties_match_lexsort(self, dim):
        # Coordinates whose distances collide or miss by one ulp; equal
        # delays must keep neighbour order, and tied sources their ranks.
        near = [0.0, 0.1, math.nextafter(0.1, 1.0), -0.1,
                -math.nextafter(0.1, 1.0), 0.2, 0.3]
        pos = np.random.default_rng(dim).choice(near, (24, dim))
        config = SimConfig(positions=pos, signal_velocity=0.3,
                           natural_period=1.0, duration=2.0)
        assert _lanes(config) == lexsort_lanes(config)

    def test_rounding_tie_keeps_its_ranks(self):
        a, b = 0.1, math.nextafter(0.1, 1.0)
        config = SimConfig(positions=[[0.0], [b], [-a]], signal_velocity=1.0,
                           natural_period=1.0, duration=1.0)
        lanes, tied = _lanes(config)
        assert tied == {0: [1, 0]}
        assert (lanes, tied) == lexsort_lanes(config)

    @settings(max_examples=300, deadline=None)
    @given(near_tie_configs())
    def test_drawn_near_ties_match_the_pairwise_rule(self, config):
        assert _lanes(config) == lexsort_lanes(config)

    @settings(max_examples=40, deadline=None)
    @given(near_tie_configs())
    def test_drawn_near_ties_run_as_the_reference(self, config):
        assert_same_run(run(config), reference_run(config))


class TestCursorEnd:
    def test_arrival_on_the_duration_past_duration_minus_t(self):
        # Node 0 fires at t = 1 - 0.1556 and reaches node 1 after d, where
        # t + d rounds to the duration but d > duration - t: bisecting on
        # duration - t would drop that delivery. Node 2's arrival falls
        # past the duration, so the lane's end must be searched for.
        t = -0.1556 + 1.0
        d = math.nextafter(1.0 - t, 1.0)
        assert t + d <= 1.0 and d > 1.0 - t
        config = SimConfig(positions=[[0.0], [d], [-0.5]],
                           signal_velocity=1.0, natural_period=1.0,
                           duration=1.0,
                           initial_phases=np.array([0.1556, 0.0, 0.0]))
        trace = run(config)
        assert_same_run(trace, reference_run(config))
        # Three first fires and node 0's one delivery within the duration.
        assert trace.n_events == 4


def mask_loop_convergence(trace, lock_threshold):
    """Convergence time with each period's spikes picked by a mask."""
    period = trace.natural_period
    converged_from = None
    for k in range(int(trace.duration / period)):
        w0, w1 = k * period, (k + 1) * period
        wt = trace.times[(trace.times >= w0) & (trace.times < w1)]
        ok = len(wt) > 0 and _order_parameter(wt, period) >= lock_threshold
        if ok and converged_from is None:
            converged_from = w0
        elif not ok:
            converged_from = None
    return converged_from


class TestConvergenceWindows:
    def test_spike_on_a_period_edge_opens_the_next_window(self):
        # One mid-period spike per period, plus spikes exactly on the
        # edges 0.7 and 2 * 0.7. Each edge spike belongs to the period it
        # opens, which it unlocks, so convergence starts at 3 * 0.7.
        period = 0.7
        mids = [k * period + 0.35 for k in range(6)]
        times = np.array(sorted(mids + [1 * period, 2 * period]))
        trace = SpikeTrace(times=times, nodes=np.zeros(len(times), np.int64),
                           n_nodes=1, natural_period=period,
                           duration=6 * period, n_events=len(times))
        report = synchrony_metrics(trace, lock_threshold=0.9)
        assert report.convergence_time == 3 * period
        assert report.convergence_time == mask_loop_convergence(trace, 0.9)

    @pytest.mark.parametrize("side", [0.1, 0.2, 1.0])
    @pytest.mark.parametrize("threshold", [0.5, 0.9, 0.99])
    def test_matches_mask_loop(self, side, threshold):
        rng = np.random.default_rng(9)
        trace = run(SimConfig(positions=rng.uniform(0, side, (32, 2)),
                              signal_velocity=1.0, natural_period=1.0,
                              duration=12.0,
                              initial_phases=rng.uniform(0, 1.0, 32)))
        # Move a few spikes onto period edges, keeping time order.
        times = trace.times.copy()
        times[::40] = np.floor(times[::40])
        times = np.maximum.accumulate(times)
        edged = SpikeTrace(times=times, nodes=trace.nodes, n_nodes=32,
                           natural_period=1.0, duration=12.0,
                           n_events=trace.n_events)
        assert (edged.times == np.floor(edged.times)).any()
        report = synchrony_metrics(edged, lock_threshold=threshold)
        assert report.convergence_time == mask_loop_convergence(edged,
                                                                threshold)


@st.composite
def fire_and_window(draw):
    """A fire time t and refractory window r, with t + r finite."""
    kind = draw(st.sampled_from(["any", "zero", "huge_t", "sub_half_ulp"]))
    t = draw(st.floats(-1e300, 1e300) if kind == "any" else
             st.floats(1e15, 1e300) if kind == "huge_t" else
             st.floats(-1e6, 1e6))
    if kind == "zero":
        return t, 0.0
    if kind == "sub_half_ulp":
        # So small that t + r rounds back to t.
        return t, draw(st.floats(0.0, 0.5, exclude_max=True)) * math.ulp(t)
    return t, draw(st.floats(0.0, 1e6))


class TestRefractoryEnd:
    """``_refractory_end(t, r)`` is the least float a with a - t >= r."""

    @staticmethod
    def assert_exact(t, r):
        end = _refractory_end(t, r)
        for x in (math.nextafter(end, -math.inf), end,
                  math.nextafter(end, math.inf)):
            assert (x < end) == (x - t < r), (t, r, x)

    def test_sum_that_rounds_short_moves_up_one_step(self):
        # 0.5 + 0.1 rounds down, so an arrival at exactly t + r is still
        # inside the window: the end is the next float up.
        t, r = 0.5, 0.1
        assert (t + r) - t < r
        assert _refractory_end(t, r) == math.nextafter(t + r, math.inf)
        self.assert_exact(t, r)

    def test_zero_window_ends_at_the_fire(self):
        assert _refractory_end(0.7, 0.0) == 0.7

    @settings(max_examples=500, deadline=None)
    @given(fire_and_window())
    def test_matches_rounded_subtraction(self, case):
        self.assert_exact(*case)
