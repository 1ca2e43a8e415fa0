import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from lightcone import (
    DisconnectedGraphError,
    PowerLaw,
    RandomGaussian,
    SampledGraph,
    avg_degree_random,
    measure_avg_path_length,
    path_length_random,
    powerlaw_cutoff,
    powerlaw_max_degree,
    powerlaw_mean_degree,
    sample_graph,
    sample_powerlaw_degrees,
)
from lightcone import graphs as graphs_module
from lightcone.graphs import (
    _bfs_distance_sums,
    _components,
    _configuration_edges,
    _er_edge_list,
    _push_edges,
    _symmetric_csr,
)
from pathlen_reference import (
    as_csr_matrix,
    reference_adjacency,
    reference_configuration_edges,
    reference_distance_sums,
    reference_edge_array,
    reference_er_edge_list,
    reference_measure_avg_path_length,
    reference_push_edges,
)


def graph_from_edges(n, edges):
    """Hand-built SampledGraph for the tiny deterministic cases."""
    rows = [i for i, _ in edges] + [j for _, j in edges]
    cols = [j for _, j in edges] + [i for i, _ in edges]
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return SampledGraph(n_nodes=n, indptr=adj.indptr, indices=adj.indices)


def expand_edges(sampled, n):
    """A sampler's (counts, cols), checked to be int64 per-row counts of
    length n and int32 columns, as the int64 (rows, cols) that the frozen
    oracles take."""
    counts, cols = sampled
    assert counts.dtype == np.int64 and counts.shape == (n,)
    assert cols.dtype == np.int32 and len(cols) == counts.sum()
    return (np.repeat(np.arange(n, dtype=np.int64), counts),
            cols.astype(np.int64))


def assert_same_csr(graph, reference):
    """The graph's own CSR arrays equal the reference matrix's, dtypes
    included."""
    for name in ("indptr", "indices"):
        x, y = getattr(graph, name), getattr(reference, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


def assert_same_partition(labels, adjacency):
    """``labels`` split the nodes as scipy's ``connected_components`` does,
    numbered 0..c-1 in the order of each component's lowest node."""
    count, reference = connected_components(adjacency, directed=False)
    assert labels.dtype == np.intp and labels.shape == reference.shape
    first = np.unique(labels, return_index=True)[1]
    assert np.array_equal(labels[np.sort(first)], np.arange(count))
    # One label per reference component and back: a bijection.
    assert len(set(zip(labels.tolist(), reference.tolist()))) == count


def assert_sums_match_oracles(graph, edges, sources, nx_sources=None):
    """BFS sums equal dijkstra's for every source and networkx's for
    ``nx_sources`` (default: all of them)."""
    sources = np.asarray(sources)
    sums = _bfs_distance_sums(graph, sources, _components(graph))
    assert sums.dtype == np.int64
    np.testing.assert_array_equal(
        sums, reference_distance_sums(as_csr_matrix(graph), sources))
    nx_graph = nx.Graph(edges)
    nx_graph.add_nodes_from(range(graph.n_nodes))
    for k in (range(len(sources)) if nx_sources is None else nx_sources):
        lengths = nx.single_source_shortest_path_length(nx_graph,
                                                        int(sources[k]))
        assert sums[k] == sum(lengths.values())


# Source counts around the 64-bit word and the 256-source chunk.
SOURCE_COUNTS = (1, 63, 64, 65, 256, 257)


@st.composite
def graphs_with_isolated_nodes(draw):
    """Small random graphs; some nodes, often the last one, have no edges."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    isolated = set(draw(st.lists(st.integers(0, n - 1), max_size=n)))
    if draw(st.booleans()):
        isolated.add(n - 1)
    density = draw(st.floats(0.0, 1.0))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if i not in isolated and j not in isolated
             and rng.random() < density]
    return graph_from_edges(n, edges), edges, rng


@st.composite
def mostly_connected_graphs(draw):
    """A random connected core plus at most a ninth as many isolated nodes."""
    core = draw(st.integers(2, 300))
    n = core + draw(st.integers(0, core // 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    label = rng.permutation(n)
    if draw(st.booleans()):  # make the last node one of the isolated ones
        label = np.append(label[label != n - 1], n - 1)
    tree = [(int(rng.integers(i)), i) for i in range(1, core)]
    extra = rng.integers(0, core, size=(draw(st.integers(0, 3 * core)), 2))
    edges = {(int(min(label[a], label[b])), int(max(label[a], label[b])))
             for a, b in tree + [tuple(e) for e in extra] if a != b}
    return graph_from_edges(n, sorted(edges))


def quadrature_mean_degree(dist, n_total, points=200_001):
    """Independent oracle: numerically integrate k*p(k).

    Geometric grid, since the integrand spans many decades for heavy
    tails; trapezoid on that grid resolves the density near k_min.
    """
    lo = dist.k_min
    hi = powerlaw_cutoff(dist, n_total)
    grid = np.geomspace(lo, hi, points)
    weight = grid ** (-dist.alpha)
    return np.trapezoid(grid * weight, grid) / np.trapezoid(weight, grid)


class TestAvgDegreeRandom:
    def test_hundred_thousand_nodes_path_length_two(self):
        k = avg_degree_random(1e5, 2.0)
        assert k == pytest.approx(390.6667520532305, rel=1e-12)
        assert 370 <= k <= 410

    def test_million_nodes_need_over_a_thousand(self):
        assert avg_degree_random(1e6, 2.0) > 1000

    def test_returns_more_than_one(self):
        assert avg_degree_random(2, 1.0) > 1

    def test_monotone_in_size_and_path_length(self):
        sizes = [1e3, 1e4, 1e5, 1e6]
        ks = [avg_degree_random(n, 2.0) for n in sizes]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        lengths = [1.5, 2.0, 2.5, 3.0]
        ks = [avg_degree_random(1e5, length) for length in lengths]
        assert all(a > b for a, b in zip(ks, ks[1:]))

    @pytest.mark.parametrize("n,path", [(1, 2.0), (0, 2.0), (1e4, 0.5)])
    def test_domain_errors(self, n, path):
        with pytest.raises(ValueError):
            avg_degree_random(n, path)


class TestPathLengthRandom:
    def test_inverts_degree_formula(self):
        k = avg_degree_random(1e5, 2.0)
        assert path_length_random(1e5, k) == pytest.approx(2.0, rel=1e-12)

    def test_round_trip_exact_inverse(self):
        assert avg_degree_random(
            1e4, path_length_random(1e4, 50.0)
        ) == pytest.approx(50.0, rel=1e-9)

    def test_inverse_across_grid(self):
        for n in [1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8]:
            for length in [1.5, 2.0, 3.0, 4.0, 5.0]:
                k = avg_degree_random(n, length)
                assert path_length_random(n, k) == pytest.approx(
                    length, rel=1e-9
                )

    def test_dense_graph_has_short_paths(self):
        assert path_length_random(100, 99) < 2.0

    def test_formula_point_frozen(self):
        assert path_length_random(1e4, 100.0) == pytest.approx(
            2.1029882601561956, rel=1e-12
        )

    def test_degree_below_exp_half_rejected(self):
        with pytest.raises(ValueError):
            path_length_random(1e4, 1.6)
        with pytest.raises(ValueError):
            path_length_random(1e4, math.exp(0.5))


class TestPowerLawValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            PowerLaw(alpha=1.0)
        with pytest.raises(ValueError):
            PowerLaw(alpha=4.5)
        PowerLaw(alpha=4.0)

    def test_cutoff_ordering(self):
        with pytest.raises(ValueError):
            PowerLaw(alpha=2.0, k_min=10, k_max=5)

    def test_random_gaussian_bounds(self):
        with pytest.raises(ValueError):
            RandomGaussian(n_total=1, avg_path_length=2.0)
        with pytest.raises(ValueError):
            RandomGaussian(n_total=100, avg_path_length=0.9)


class TestPowerLawMeanDegree:
    def test_alpha_two_log_branch_frozen(self):
        value = powerlaw_mean_degree(PowerLaw(alpha=2.0, k_min=1.0), 1e4)
        assert value == pytest.approx(9.211261498125996, rel=1e-12)
        assert value == pytest.approx(
            quadrature_mean_degree(PowerLaw(alpha=2.0), 1e4), rel=1e-6
        )

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("n", [1e3, 1e4, 1e6])
    def test_matches_quadrature_oracle(self, alpha, n):
        dist = PowerLaw(alpha=alpha, k_min=1.0)
        closed = powerlaw_mean_degree(dist, n)
        oracle = quadrature_mean_degree(dist, n)
        assert closed == pytest.approx(oracle, rel=0.02)

    def test_smaller_alpha_means_larger_mean(self):
        values = [
            powerlaw_mean_degree(PowerLaw(alpha=a), 1e6)
            for a in (1.5, 2.0, 2.5)
        ]
        assert values[0] > values[1] > values[2]

    def test_tight_exponent_collapses_toward_k_min(self):
        # Continuous-law limit for a steep exponent: (alpha-1)/(alpha-2)*k_min.
        value = powerlaw_mean_degree(PowerLaw(alpha=4.0, k_min=1.0), 1e6)
        assert value == pytest.approx(1.5, rel=0.01)
        steeper = [
            powerlaw_mean_degree(PowerLaw(alpha=a), 1e6)
            for a in (3.0, 3.5, 4.0)
        ]
        assert steeper[0] > steeper[1] > steeper[2]

    def test_grows_with_n_below_alpha_three(self):
        for alpha in (1.5, 2.0, 2.5):
            dist = PowerLaw(alpha=alpha)
            assert powerlaw_mean_degree(dist, 1e6) > powerlaw_mean_degree(
                dist, 1e4
            )

    def test_saturates_above_alpha_three(self):
        dist = PowerLaw(alpha=3.5)
        small, big = powerlaw_mean_degree(dist, 1e4), powerlaw_mean_degree(dist, 1e8)
        assert big / small < 1.05

    def test_mean_at_least_k_min(self):
        assert powerlaw_mean_degree(PowerLaw(alpha=2.5, k_min=3.0), 1e4) >= 3.0

    def test_explicit_cutoff_is_n_independent(self):
        dist = PowerLaw(alpha=2.5, k_min=2.0, k_max=500.0)
        assert powerlaw_mean_degree(dist, 1e4) == powerlaw_mean_degree(dist, 1e7)


class TestPowerLawMaxDegree:
    def test_exponent_two_natural_cutoff(self):
        assert powerlaw_max_degree(PowerLaw(alpha=2.0), 1e6) == pytest.approx(1e6)

    def test_exponent_three_square_root(self):
        assert powerlaw_max_degree(PowerLaw(alpha=3.0), 1e6) == pytest.approx(1e3)

    def test_heavy_tail(self):
        assert powerlaw_max_degree(PowerLaw(alpha=1.5), 1e4) == pytest.approx(1e8)

    def test_monotonicity(self):
        assert powerlaw_max_degree(PowerLaw(alpha=2.5), 1e6) > powerlaw_max_degree(
            PowerLaw(alpha=2.5), 1e4
        )
        assert powerlaw_max_degree(PowerLaw(alpha=2.0), 1e6) > powerlaw_max_degree(
            PowerLaw(alpha=2.5), 1e6
        )

    def test_explicit_cutoff_caps_the_estimate(self):
        assert powerlaw_max_degree(PowerLaw(alpha=2.0, k_max=100.0), 1e6) == 100.0

    def test_sampling_oracle_same_order_of_magnitude(self):
        dist = PowerLaw(alpha=1.5, k_min=1.0)
        analytic = powerlaw_max_degree(dist, 1e4)
        maxima = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            maxima.append(sample_powerlaw_degrees(dist, 10**4, rng).max())
        median = float(np.median(maxima))
        assert abs(math.log10(median) - math.log10(analytic)) <= 1.0


class TestSampleGraph:
    def test_er_mean_degree_hits_target(self):
        dist = RandomGaussian(
            n_total=10**4, avg_path_length=path_length_random(1e4, 50.0)
        )
        graph = sample_graph(dist, 10**4, seed=1)
        assert abs(graph.degrees.mean() - 50.0) <= 2.5

    def test_powerlaw_degrees_respect_k_min_before_cleanup(self):
        # The sampler's first draws, the degrees before parity and cleanup.
        degrees = sample_powerlaw_degrees(PowerLaw(alpha=2.5, k_min=2.0),
                                          1000, np.random.default_rng(3))
        assert degrees.min() >= 2

    @pytest.mark.parametrize("dist", [
        RandomGaussian(n_total=2000, avg_path_length=2.0),
        PowerLaw(alpha=2.5, k_min=2.0),
    ])
    def test_same_seed_same_edges(self, dist):
        a = sample_graph(dist, 2000, seed=9)
        b = sample_graph(dist, 2000, seed=9)
        assert np.array_equal(a.edge_array(), b.edge_array())

    def test_different_seed_different_edges(self):
        dist = PowerLaw(alpha=2.5, k_min=2.0)
        a = sample_graph(dist, 2000, seed=1)
        b = sample_graph(dist, 2000, seed=2)
        assert a.edge_array().shape != b.edge_array().shape or not np.array_equal(
            a.edge_array(), b.edge_array()
        )

    def test_no_self_loops_or_parallel_edges(self):
        graph = sample_graph(PowerLaw(alpha=2.5, k_min=2.0), 3000, seed=5)
        adj = as_csr_matrix(graph)
        assert adj.diagonal().sum() == 0
        assert np.all(adj.data == 1.0)
        assert (adj != adj.T).nnz == 0

    @pytest.mark.parametrize("dist,n_total,seeds", [
        (RandomGaussian(n_total=2000, avg_path_length=3.0), 2000, (0, 1, 2)),
        (RandomGaussian(n_total=10**4, avg_path_length=2.5), 10**4, (123,)),
        (PowerLaw(alpha=2.5, k_min=4.0), 2000, (0, 1, 2)),
        (PowerLaw(alpha=2.1), 3000, (5, 6)),
        (PowerLaw(alpha=4.0), 2, (1, 2)),  # two nodes, one edge
    ])
    def test_adjacency_matches_frozen_coo_route(self, monkeypatch, dist,
                                                n_total, seeds):
        drawn = []
        for name in ("_er_edge_list", "_configuration_edges"):
            def recording(*args, _sampler=getattr(graphs_module, name)):
                drawn.append(_sampler(*args))
                return drawn[-1]
            monkeypatch.setattr(graphs_module, name, recording)
        for seed in seeds:
            graph = sample_graph(dist, n_total, seed)
            rows, cols = expand_edges(drawn.pop(), n_total)
            assert graph.n_edges == len(rows)
            assert_same_csr(graph, reference_adjacency(rows, cols, n_total))

    def test_edgeless_adjacency_matches_frozen_coo_route(self, monkeypatch):
        monkeypatch.setattr(graphs_module, "_er_edge_list",
                            lambda n, p, rng: (np.zeros(n, dtype=np.int64),
                                               np.empty(0, dtype=np.int32)))
        graph = sample_graph(RandomGaussian(n_total=50, avg_path_length=3.0),
                             50, seed=0)
        assert graph.n_edges == 0
        empty = np.empty(0, dtype=np.int64)
        assert_same_csr(graph, reference_adjacency(empty, empty, 50))

    @pytest.mark.parametrize("dist,n_total", [
        (RandomGaussian(n_total=10**4, avg_path_length=2.5), 10**4),
        (PowerLaw(alpha=2.5, k_min=2.0), 2000),
    ])
    def test_edge_array_matches_frozen_triu_route(self, dist, n_total):
        graph = sample_graph(dist, n_total, seed=4)
        edges = graph.edge_array()
        reference = reference_edge_array(as_csr_matrix(graph))
        assert edges.dtype == reference.dtype == np.int32
        assert edges.tobytes() == reference.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_isolated_nodes())
    def test_edge_array_matches_frozen_route_on_drawn_graphs(self, drawn):
        graph, edges, rng = drawn
        result = graph.edge_array()
        reference = reference_edge_array(as_csr_matrix(graph))
        assert result.dtype == reference.dtype
        assert result.tobytes() == reference.tobytes()
        assert result.tolist() == sorted(map(list, edges))
        # The same graph with each row's columns stored out of order.
        indices = graph.indices.copy()
        for row in range(graph.n_nodes):
            start, end = graph.indptr[row:row + 2]
            indices[start:end] = rng.permutation(indices[start:end])
        shuffled = SampledGraph(graph.n_nodes, graph.indptr, indices)
        assert shuffled.edge_array().tobytes() == reference.tobytes()

    def test_sampling_peaks_near_what_the_adjacency_holds(self):
        """Sampling the criterion-5 shape peaks at 0.771x the bytes of its
        scipy adjacency (0.7710-0.7715x over seeds 0-5) since the samplers
        hand the CSR build per-row counts and int32 columns, and below
        2**16 nodes the CSR build sorts uint32 keys; 0.85 is ~10% slack
        over 0.771x. It read 0.937x with int64 keys, 1.43x while the
        samplers handed it int64 edge lists, 2.01x by scipy's ``upper +
        upper.T`` and 2.68x while the int64 edge lists lived to the end."""
        dist = RandomGaussian(n_total=10**4, avg_path_length=2.5)
        sample_graph(dist, 100, seed=0)  # warm up before tracing
        tracemalloc.start()
        try:
            graph = sample_graph(dist, 10**4, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        adjacency = as_csr_matrix(graph)
        held = sum(getattr(adjacency, name).nbytes
                   for name in ("data", "indices", "indptr"))
        assert peak < 0.85 * held

    def test_configuration_sampling_peaks_near_what_the_adjacency_holds(self):
        """The stub-sized temporaries are freed after their last use and
        the stubs are int32, so sampling PowerLaw(2.5, k_min=20) on 10^4
        nodes peaks at 0.960-0.962x the bytes of its scipy adjacency
        (seeds 0-5), the unit the G(n, p) test above uses; 1.44-1.51x
        with int64 stubs, and 2.49-2.56x while the temporaries all lived
        to the end. 1.05 is ~10% slack."""
        dist = PowerLaw(alpha=2.5, k_min=20.0)
        sample_graph(PowerLaw(alpha=2.5, k_min=2.0), 100, seed=0)  # warm up
        tracemalloc.start()
        try:
            graph = sample_graph(dist, 10**4, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        adjacency = as_csr_matrix(graph)
        held = sum(getattr(adjacency, name).nbytes
                   for name in ("data", "indices", "indptr"))
        assert peak < 1.05 * held

    @settings(max_examples=200, deadline=None)
    @given(graphs_with_isolated_nodes())
    @example((graph_from_edges(1, []), [], None))
    @example((graph_from_edges(6, []), [], None))
    @example((graph_from_edges(6, [(1, 4)]), [(1, 4)], None))
    def test_numpy_csr_matches_frozen_coo_route(self, drawn):
        graph, edges, _ = drawn
        n = graph.n_nodes
        rows, cols = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        indptr, indices = _symmetric_csr(np.bincount(rows, minlength=n),
                                         cols.astype(np.int32), n)
        assert_same_csr(SampledGraph(n, indptr, indices),
                        reference_adjacency(rows, cols, n))

    def test_infeasible_degree_sequence_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            sample_graph(PowerLaw(alpha=2.5, k_min=2000.0), 1000, seed=0)

    def test_mean_degree_above_n_minus_one_rejected(self):
        # kbar = 1.67 on two nodes would need p = 1.67.
        with pytest.raises(ValueError,
                           match=r"mean degree 1\.668 > n_total - 1 = 1"):
            sample_graph(RandomGaussian(2, 10.0), 2, seed=0)

    def test_mean_degree_n_minus_one_gives_complete_graph(self):
        # Find, near the closed-form inverse, a path length whose mean
        # degree on 7 nodes is exactly 6.0, so p = 1.
        length = path_length_random(7, 6.0)
        # The degree falls as the path length grows.
        toward = 0.0 if avg_degree_random(7, length) < 6.0 else math.inf
        for _ in range(64):
            if avg_degree_random(7, length) == 6.0:
                break
            length = np.nextafter(length, toward)
        assert avg_degree_random(7, length) == 6.0
        graph = sample_graph(RandomGaussian(7, length), 7, seed=0)
        assert graph.n_edges == 21
        assert np.array_equal(graph.edge_array(),
                              np.stack(np.triu_indices(7, 1), axis=1))

    def test_memory_budget_rejected(self):
        with pytest.raises(ValueError, match="memory budget"):
            sample_graph(RandomGaussian(10**6, 1.2), 10**6, seed=0)
        with pytest.raises(ValueError, match="memory budget"):
            sample_graph(PowerLaw(alpha=1.5, k_min=300.0, k_max=999.0),
                         10**6, seed=0)

    def test_degree_distribution_fits_power_law_in_interior(self):
        # Empirical CCDF of the drawn sequence vs the integerized
        # continuous law over [k_min, k_max/10].
        dist = PowerLaw(alpha=2.5, k_min=2.0)
        n = 10**4
        hi = powerlaw_cutoff(dist, n)
        ks = np.arange(3, int(hi / 10) + 1)
        grid = np.linspace(dist.k_min, hi, 400_001)
        weight = grid ** (-dist.alpha)
        norm = np.trapezoid(weight, grid)
        model = []
        for k in ks:
            tail = np.trapezoid(weight[grid >= k], grid[grid >= k]) / norm
            in_bin = (grid >= k - 1) & (grid <= k)
            round_up = np.trapezoid(
                (grid[in_bin] - (k - 1)) * weight[in_bin], grid[in_bin]
            ) / norm
            model.append(tail + round_up)
        model = np.asarray(model)
        for seed in (0, 1, 2, 3):
            degrees = sample_powerlaw_degrees(dist, n,
                                              np.random.default_rng(seed))
            empirical = np.asarray([(degrees >= k).mean() for k in ks])
            assert np.abs(empirical - model).max() <= 0.02


class NearOneDraws:
    """Generator stub: ``random(m)`` maps default_rng draws into [0.999, 1).

    Geometric skips from such draws are mostly 1 or 2 pairs at p =
    0.0005, so a 1024-draw chunk covers far fewer pairs than a 400-node
    graph has and the chunk loop runs many times. Past ``max_calls`` it fails, so a
    loop that stops advancing ends the test instead of hanging it.
    """

    def __init__(self, seed, max_calls=200):
        self._rng = np.random.default_rng(seed)
        self.calls = 0
        self.max_calls = max_calls

    def random(self, m):
        self.calls += 1
        assert self.calls <= self.max_calls, "chunk loop does not advance"
        return 0.999 + 0.001 * self._rng.random(m)


def assert_same_edges(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestEdgeSamplersMatchFrozen:
    # sample_graph's p is above 1e-8 (mean degree at least e**0.5, at
    # most 2e8 nodes); far smaller p overflows int64 skips in both.
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 400),
           st.floats(1e-9, 1.0, exclude_max=True),
           st.integers(0, 2**63))
    def test_er_edge_list(self, n, p, seed):
        assert_same_edges(expand_edges(
                              _er_edge_list(n, p, np.random.default_rng(seed)),
                              n),
                          reference_er_edge_list(
                              n, p, np.random.default_rng(seed)))

    def test_er_edge_list_carries_the_pair_index_across_chunks(self):
        library, frozen = NearOneDraws(3), NearOneDraws(3)
        edges = expand_edges(_er_edge_list(400, 0.0005, library), 400)
        assert library.calls > 10
        assert_same_edges(edges,
                          reference_er_edge_list(400, 0.0005, frozen))
        assert library.calls == frozen.calls

    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_p_one_takes_every_pair(self, n):
        # The frozen sampler fails here in math.log1p(-1).
        edges = expand_edges(_er_edge_list(n, 1.0, np.random.default_rng(0)),
                             n)
        assert_same_edges(edges,
                          tuple(a.astype(np.int64)
                                for a in np.triu_indices(n, 1)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda n: st.lists(
               st.integers(0, n - 1), min_size=n, max_size=n)),
           st.integers(0, 2**63))
    def test_configuration_edges(self, degrees, seed):
        degrees = np.asarray(degrees, dtype=np.int64)
        if degrees.sum() % 2:
            degrees[np.argmax(degrees)] -= 1
        assert_same_edges(
            expand_edges(_configuration_edges(degrees,
                                              np.random.default_rng(seed)),
                         len(degrees)),
            reference_configuration_edges(degrees,
                                          np.random.default_rng(seed)))

    @pytest.mark.parametrize("n,p", [(2000, 0.05), (700, 0.9)])
    def test_er_edge_list_past_the_chunk_cap(self, n, p):
        # Over 2**16 edges: several capped chunks of draws, each counted and
        # shifted on its own.
        rows, cols = expand_edges(_er_edge_list(n, p, np.random.default_rng(5)),
                                  n)
        assert len(rows) > 2**16
        assert_same_edges((rows, cols), reference_er_edge_list(
            n, p, np.random.default_rng(5)))


class TestRowsSpanChunks:
    """``_DRAWS`` cut to a few pairs, so that one row's pairs span three
    or more chunks of draws (and of the CSR build's key blocks), and some
    chunks end exactly at a row's end. The sampler's counts and columns
    and the CSR built from them still equal the frozen routes'."""

    @staticmethod
    def assert_matches_frozen(n, p, seed, draws):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs_module, "_DRAWS", draws)
            sampled = _er_edge_list(n, p, np.random.default_rng(seed))
            indptr, indices = _symmetric_csr(*sampled, n)
        if p == 1.0:  # the frozen sampler fails in math.log1p(-1)
            want = tuple(a.astype(np.int64) for a in np.triu_indices(n, 1))
        else:
            want = reference_er_edge_list(n, p, np.random.default_rng(seed))
        assert_same_edges(expand_edges(sampled, n), want)
        assert_same_csr(SampledGraph(n, indptr, indices),
                        reference_adjacency(*want, n))

    @pytest.mark.parametrize("n,draws", [
        (17, 16),   # row 0's 16 pairs fill chunk 0 exactly
        (60, 16),   # row 0's 59 pairs span four chunks
        (129, 64),  # row 0's 128 pairs fill two chunks exactly
        (2, 16),    # one pair
    ])
    def test_every_pair_at_p_one(self, n, draws):
        self.assert_matches_frozen(n, 1.0, 0, draws)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 300), st.floats(1e-3, 1.0), st.integers(0, 2**63),
           st.sampled_from([16, 64, 1000]))
    @example(300, 0.9, 0, 16)
    def test_drawn_graphs(self, n, p, seed, draws):
        self.assert_matches_frozen(n, p, seed, draws)


class TestKeyWidths:
    """The CSR build and the configuration model pack a pair of node ids
    into one sort key: uint32 up to 2**16 nodes, int64 above. Every
    sampled test graph is far smaller, so these rows, with edges on the
    first and last nodes, hold both widths to the frozen routes."""

    @staticmethod
    def upper_edges(n):
        edges = [(0, 1), (0, n // 2), (0, n - 1), (1, n - 1), (n // 2, n - 2),
                 (n // 2, n - 1), (n - 2, n - 1)]
        return tuple(np.array(side, dtype=np.int64) for side in zip(*edges))

    @pytest.mark.parametrize("n", [2**16, 2**16 + 1])
    def test_csr_matches_frozen_coo_route(self, n):
        rows, cols = self.upper_edges(n)
        indptr, indices = _symmetric_csr(np.bincount(rows, minlength=n),
                                         cols.astype(np.int32), n)
        assert_same_csr(SampledGraph(n, indptr, indices),
                        reference_adjacency(rows, cols, n))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [2**16, 2**16 + 1])
    def test_configuration_edges_match_frozen_route(self, n, seed):
        degrees = np.zeros(n, dtype=np.int64)
        degrees[[0, 1, n // 2, n - 2, n - 1]] = [3, 2, 4, 4, 5]
        assert_same_edges(
            expand_edges(_configuration_edges(degrees,
                                              np.random.default_rng(seed)),
                         n),
            reference_configuration_edges(degrees,
                                          np.random.default_rng(seed)))


def renumbered_path(n):
    """A path through the nodes in random order: of these shapes, the one
    that takes ``_components`` the most rounds (10 at 10^4 nodes)."""
    order = np.random.default_rng(0).permutation(n).tolist()
    return list(zip(order, order[1:]))


class TestComponents:
    @settings(max_examples=200, deadline=None)
    @given(graphs_with_isolated_nodes())
    def test_partition_matches_scipy_on_drawn_graphs(self, drawn):
        graph = drawn[0]
        assert_same_partition(_components(graph),
                              as_csr_matrix(graph))

    @pytest.mark.parametrize("n,edges", [
        (10**4, [(i, i + 1) for i in range(10**4 - 1)]),  # a long path
        (10**4, renumbered_path(10**4)),
        (1000, [(i, i + 1) for i in range(0, 1000, 2)]),  # perfect matching
        (1000, [(0, i) for i in range(1, 1000)]),  # a star on node 0
        (1000, [(i, 999) for i in range(999)]),  # a star on the last node
        (50, []),  # edgeless
        (1, []),  # a single node
    ], ids=["path", "renumbered-path", "matching", "star", "star-last",
            "edgeless", "single-node"])
    def test_partition_matches_scipy_on_extreme_shapes(self, n, edges):
        graph = graph_from_edges(n, edges)
        assert_same_partition(_components(graph),
                              as_csr_matrix(graph))

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_isolated_nodes())
    def test_disconnected_error_carries_the_same_sizes(self, drawn):
        # Connected draws are test_matches_frozen_dijkstra_routine's.
        graph = drawn[0]
        try:
            reference_measure_avg_path_length(graph)
        except DisconnectedGraphError as expected:
            with pytest.raises(DisconnectedGraphError) as info:
                measure_avg_path_length(graph)
            assert info.value.coverage == expected.coverage
            assert info.value.component_sizes == expected.component_sizes
            assert str(info.value) == str(expected)


def star_beside_empty_rows(leaves):
    """A star whose hub, node 3, has ``leaves`` neighbours, a three-node
    path and empty rows before, between and after them."""
    first_leaf = 10
    edges = [(3, leaf) for leaf in range(first_leaf, first_leaf + leaves)]
    edges += [(5, 6), (6, 7)]
    return graph_from_edges(first_leaf + leaves + 3, edges), edges


class TestBlockEdges:
    """The edge-sized passes on blocks of a few rows, so that drawn graphs
    cross block edges, as graphs of more than ``_BLOCK`` rows do."""

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_isolated_nodes(), st.integers(1, 5))
    def test_partition_matches_scipy_with_small_blocks(self, drawn, block):
        graph = drawn[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs_module, "_BLOCK", block)
            labels = _components(graph)
        assert_same_partition(labels, as_csr_matrix(graph))

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_isolated_nodes(),
           st.sampled_from(SOURCE_COUNTS + ("all",)), st.integers(1, 5))
    def test_bfs_sums_match_oracles_with_small_blocks(self, drawn, count,
                                                      block):
        graph, edges, rng = drawn
        n = graph.n_nodes
        sources = (np.arange(n) if count == "all"
                   else rng.integers(0, n, size=count))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs_module, "_BLOCK", block)
            assert_sums_match_oracles(graph, edges, sources)

    @pytest.mark.parametrize("block", [3, None],
                             ids=["block-3", "module-block"])
    def test_hub_row_longer_than_a_block(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(graphs_module, "_BLOCK", block)
        graph, edges = star_beside_empty_rows(graphs_module._BLOCK + 5)
        n = graph.n_nodes
        assert_same_partition(_components(graph),
                              as_csr_matrix(graph))
        assert_sums_match_oracles(graph, edges, [3, 10, n - 4, 6, 0, n - 1])


class TestMeasureAvgPathLength:
    def test_path_graph(self):
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        result = measure_avg_path_length(graph)
        assert result.mean == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert result.exact
        assert result.stderr is None
        assert result.coverage == 1.0

    def test_complete_graph(self):
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        result = measure_avg_path_length(graph_from_edges(5, edges))
        assert result.mean == pytest.approx(1.0)

    def test_disconnected_graph_reports_components(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        with pytest.raises(DisconnectedGraphError) as info:
            measure_avg_path_length(graph_from_edges(6, edges))
        assert info.value.coverage == pytest.approx(0.5)
        assert sorted(info.value.component_sizes, reverse=True)[0] == 3

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_isolated_nodes(),
           st.sampled_from(SOURCE_COUNTS + ("all",)))
    def test_bfs_sums_match_dijkstra_and_networkx(self, drawn, count):
        graph, edges, rng = drawn
        n = graph.n_nodes
        sources = (np.arange(n) if count == "all"
                   else rng.integers(0, n, size=count))
        sums = _bfs_distance_sums(graph, sources, _components(graph))
        assert sums.dtype == np.int64
        np.testing.assert_array_equal(
            sums, reference_distance_sums(as_csr_matrix(graph), sources))
        nx_graph = nx.Graph(edges)
        nx_graph.add_nodes_from(range(n))
        nx_sums = {s: sum(nx.single_source_shortest_path_length(nx_graph, s)
                          .values()) for s in set(sources.tolist())}
        assert sums.tolist() == [nx_sums[s] for s in sources.tolist()]

    @settings(max_examples=60, deadline=None)
    @given(mostly_connected_graphs(),
           st.sampled_from((2,) + SOURCE_COUNTS[1:] + ("all", None)))
    def test_matches_frozen_dijkstra_routine(self, graph, source_sample):
        assert measure_avg_path_length(graph, source_sample) == (
            reference_measure_avg_path_length(graph, source_sample))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_criterion_graphs_match_frozen_routine_bit_for_bit(self, seed):
        n = 10**4
        graph = sample_graph(RandomGaussian(n_total=n, avg_path_length=2.5),
                             n, seed=seed)
        result = measure_avg_path_length(graph, source_sample=256)
        reference = reference_measure_avg_path_length(graph, source_sample=256)
        assert result.mean == reference.mean
        assert result == reference

    @pytest.mark.parametrize("n,sources,cycle", [
        (1000, [0], False),               # from one end of a long path
        (1000, [0, 999, 500], False),
        (301, list(range(0, 301, 50)), True),
    ])
    def test_bfs_sums_on_paths_and_cycles(self, n, sources, cycle):
        # A frontier of a node or two: every level but the last few pushes.
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)] * cycle
        assert_sums_match_oracles(graph_from_edges(n, edges), edges, sources)

    def test_bfs_sums_on_criterion_law_graph(self):
        # 256 sources on the criterion's G(n, p) law: the frontier's edges
        # are most of the graph, so the levels pull into every node.
        n = 2000
        graph = sample_graph(RandomGaussian(n_total=n, avg_path_length=2.5),
                             n, seed=3)
        edges = [tuple(e) for e in graph.edge_array().tolist()]
        sources = np.linspace(0, n - 1, 256).astype(np.int64)
        assert_sums_match_oracles(graph, edges, sources,
                                  nx_sources=(0, 1, 127, 255))

    def test_bfs_sums_with_sources_in_a_small_component(self):
        # A 300-node random component the sources never reach, a 12-node
        # path holding every source, and an isolated source: only the
        # path's nodes lack bits, so the pulls read its edges alone.
        rng = np.random.default_rng(11)
        big = [(i, j) for i in range(300) for j in range(i + 1, 300)
               if rng.random() < 0.05]
        path = [(300 + i, 301 + i) for i in range(11)]
        edges = big + path
        graph = graph_from_edges(313, edges)
        assert_sums_match_oracles(graph, edges, list(range(300, 313)))

    def test_bfs_sums_on_a_star_with_over_255_leaves(self):
        # Each level reaches more than 255 nodes with the same source bit,
        # past what one byte lane of the bit counter holds.
        edges = [(0, leaf) for leaf in range(1, 301)]
        assert_sums_match_oracles(graph_from_edges(301, edges), edges,
                                  [0, 1, 2, 300])

    def test_bfs_sums_with_a_source_listed_twice(self):
        edges = [(i, i + 1) for i in range(99)] + [(0, 50), (20, 80)]
        graph = graph_from_edges(100, edges)
        # Twice in one word, and the same node again in the next word.
        sources = [7, 7, 42] + list(range(61)) + [7, 99]
        assert_sums_match_oracles(graph, edges, sources)

    @pytest.mark.parametrize("shape", ["path", "gnp"])
    def test_push_level_matches_frozen_tocsc_route(self, monkeypatch, shape):
        # Each push level's grouping gives the same neighbours, and the
        # same OR of any frontier words over each, as the tocsc route. On
        # the G(n, p) graph the frontier's first levels share neighbours.
        if shape == "path":
            graph = graph_from_edges(1000, [(i, i + 1) for i in range(999)])
        else:
            graph = sample_graph(RandomGaussian(2000, 3.0), 2000, seed=3)
        n = graph.n_nodes
        edges = [tuple(e) for e in graph.edge_array().tolist()]
        calls = []

        def recording(csr, front_nodes, lengths):
            calls.append((front_nodes, _push_edges(csr, front_nodes,
                                                   lengths)))
            return calls[-1][1]

        monkeypatch.setattr(graphs_module, "_push_edges", recording)
        assert_sums_match_oracles(graph, edges, [0, n // 2, n - 1],
                                  nx_sources=())
        assert calls  # the direction rule chose a push
        rng = np.random.default_rng(0)
        adjacency = as_csr_matrix(graph)
        for front_nodes, (new_nodes, pushed, segments) in calls:
            want_nodes, want_edges, want_segments = reference_push_edges(
                adjacency, front_nodes)
            np.testing.assert_array_equal(new_nodes, want_nodes)
            words = rng.integers(0, 2**64, size=(4, len(front_nodes)),
                                 dtype=np.uint64)
            for w in words:
                np.testing.assert_array_equal(
                    np.bitwise_or.reduceat(w.take(pushed), segments),
                    np.bitwise_or.reduceat(w.take(want_edges), want_segments))

    @pytest.mark.parametrize("source_sample",
                             [True, False, 2.7, 64.0, "al", math.nan, 1, 0, -5])
    def test_rejects_bad_source_sample(self, source_sample):
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="source_sample"):
            measure_avg_path_length(graph, source_sample=source_sample)

    def test_accepts_numpy_integer_source_sample(self):
        graph = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert measure_avg_path_length(graph, np.int64(3)) == (
            measure_avg_path_length(graph, 3))

    def test_measuring_peaks_near_what_the_graph_holds(self):
        """Measuring the criterion-5 graph from 256 sources allocates at
        most 1.795-1.800x the bytes of its ``indptr`` and ``indices``
        (seeds 0-5), since the edge-sized passes run in blocks of 2**9
        rows and gather each node's words as one item; 2.129-2.132x with
        word-major words in blocks of 2**11 rows, and 5.14x while the
        search held an intp copy of the indices and gathered a fresh
        edge-sized array per word. 1.98 is ~10% slack."""
        dist = RandomGaussian(n_total=10**4, avg_path_length=2.5)
        measure_avg_path_length(sample_graph(dist, 1000, seed=0), 256)
        graph = sample_graph(dist, 10**4, seed=1)
        tracemalloc.start()
        try:
            measure_avg_path_length(graph, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.98 * (graph.indptr.nbytes + graph.indices.nbytes)

    def test_sampled_estimate_reports_stderr(self):
        dist = RandomGaussian(n_total=4000, avg_path_length=2.0)
        graph = sample_graph(dist, 4000, seed=2)
        result = measure_avg_path_length(graph, source_sample=64)
        assert not result.exact
        assert result.stderr is not None and result.stderr > 0
        assert result.n_sources == 64

    @pytest.mark.parametrize("target_length,seeds", [(2.0, (0, 1)), (3.0, (0, 1))])
    def test_er_measurement_matches_formula(self, target_length, seeds):
        # The formula deviates most mid-way between integer distance
        # plateaus; at these anchors it stays within 10% of the
        # measured value.
        n = 10**4
        dist = RandomGaussian(n_total=n, avg_path_length=target_length)
        for seed in seeds:
            graph = sample_graph(dist, n, seed=seed)
            measured = measure_avg_path_length(graph, source_sample=256).mean
            assert abs(target_length - measured) / measured <= 0.10

    def test_formula_point_cross_checked_against_bfs(self):
        # k = 100 at n = 1e4 sits between distance plateaus, where the
        # closed form is weakest; the measured value brackets it within 15%.
        n = 10**4
        formula = path_length_random(n, 100.0)
        dist = RandomGaussian(n_total=n, avg_path_length=formula)
        graph = sample_graph(dist, n, seed=4)
        measured = measure_avg_path_length(graph, source_sample=256).mean
        assert abs(formula - measured) / measured <= 0.15


def with_detached_triangle(graph):
    """``graph`` plus a triangle on three new nodes: disconnected, yet
    with no empty row."""
    n = graph.n_nodes
    tail = np.array([2, 4, 6], dtype=graph.indptr.dtype)
    triangle = np.array([n + 1, n + 2, n, n + 2, n, n + 1],
                        dtype=graph.indices.dtype)
    return SampledGraph(n + 3,
                        np.concatenate([graph.indptr,
                                        graph.indptr[-1] + tail]),
                        np.concatenate([graph.indices, triangle]))


@st.composite
def unions_without_empty_rows(draw):
    """Disjoint random connected graphs of at least two nodes each, their
    nodes numbered in random order: no row is empty, and the graph is
    disconnected whenever there are two parts. Half the draws make the
    first part hold 90% of the nodes, so the measurement runs."""
    sizes = draw(st.lists(st.integers(2, 12), min_size=1, max_size=4))
    if draw(st.booleans()):
        sizes[0] = 9 * sum(sizes[1:]) + draw(st.integers(2, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    label = rng.permutation(sum(sizes))
    edges = set()
    start = 0
    for size in sizes:
        tree = [(int(rng.integers(i)), i) for i in range(1, size)]
        extra = rng.integers(0, size, size=(int(rng.integers(2 * size)), 2))
        for a, b in tree + [tuple(e) for e in extra.tolist()]:
            if a != b:
                a, b = label[start + a], label[start + b]
                edges.add((int(min(a, b)), int(max(a, b))))
        start += size
    return graph_from_edges(len(label), sorted(edges))


class TestGuessedComponent:
    """A graph with no empty row is first measured as one component; its
    components are labelled only once the BFS proves it is not one."""

    @staticmethod
    def count_calls(monkeypatch, name):
        """Wrap the module function ``name``: returns the list of its
        calls' (labels, result), as they happen."""
        calls = []
        wrapped = getattr(graphs_module, name)

        def recording(*args):
            calls.append((args[-1], wrapped(*args)))
            return calls[-1][1]

        monkeypatch.setattr(graphs_module, name, recording)
        return calls

    def test_criterion_graph_never_labels_components(self, monkeypatch):
        n = 10**4
        graph = sample_graph(RandomGaussian(n_total=n, avg_path_length=2.5),
                             n, seed=0)
        reference = reference_measure_avg_path_length(graph, source_sample=256)

        def refuse(graph):
            raise AssertionError("labelled the components of a connected "
                                 "graph")

        monkeypatch.setattr(graphs_module, "_components", refuse)
        assert measure_avg_path_length(graph, source_sample=256) == reference

    @pytest.mark.parametrize("source_sample", [256, "all", None])
    def test_detached_triangle_matches_frozen_routine(self, monkeypatch,
                                                      source_sample):
        graph = with_detached_triangle(sample_graph(
            RandomGaussian(n_total=2000, avg_path_length=2.5), 2000, seed=5))
        assert np.diff(graph.indptr).all()
        reference = reference_measure_avg_path_length(graph, source_sample)
        assert reference.coverage == 2000 / 2003
        labelled = self.count_calls(monkeypatch, "_components")
        searched = self.count_calls(monkeypatch, "_bfs_distance_sums")
        result = measure_avg_path_length(graph, source_sample)
        assert result == reference
        assert result.mean == reference.mean
        # One guessed search, proven wrong, then one on the true labels.
        assert len(labelled) == 1
        assert [result is None for _, result in searched] == [True, False]
        assert not searched[0][0].any()

    def test_empty_row_labels_components_first(self, monkeypatch):
        edges = [(i, i + 1) for i in range(19)]
        graph = graph_from_edges(21, edges)  # node 20 is isolated
        searched = self.count_calls(monkeypatch, "_bfs_distance_sums")
        assert measure_avg_path_length(graph) == (
            reference_measure_avg_path_length(graph))
        assert len(searched) == 1 and searched[0][1] is not None

    def test_bfs_sums_return_none_for_a_guess_that_spans_components(self):
        graph = with_detached_triangle(sample_graph(
            RandomGaussian(n_total=2000, avg_path_length=2.5), 2000, seed=5))
        n = graph.n_nodes
        guess = np.zeros(n, dtype=np.intp)
        labels = _components(graph)
        # Sources in the large part only, and across both parts.
        for sources in (np.arange(0, 2000, 7),
                        np.linspace(0, n - 1, 256).astype(np.int64)):
            assert _bfs_distance_sums(graph, sources, guess) is None
            sums = _bfs_distance_sums(graph, sources, labels)
            np.testing.assert_array_equal(
                sums, reference_distance_sums(as_csr_matrix(graph), sources))

    @settings(max_examples=60, deadline=None)
    @given(unions_without_empty_rows(),
           st.sampled_from((2, 63, 256, "all", None)))
    def test_unions_match_frozen_routine(self, graph, source_sample):
        assert np.diff(graph.indptr).all()
        try:
            reference = reference_measure_avg_path_length(graph,
                                                          source_sample)
        except DisconnectedGraphError as expected:
            with pytest.raises(DisconnectedGraphError) as info:
                measure_avg_path_length(graph, source_sample)
            assert str(info.value) == str(expected)
            assert info.value.component_sizes == expected.component_sizes
        else:
            assert measure_avg_path_length(graph, source_sample) == reference
