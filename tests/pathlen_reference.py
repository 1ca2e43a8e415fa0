"""Frozen path-length routines, kept as the oracles for the fast ones.

``reference_measure_avg_path_length`` is the batched
``dijkstra(unweighted=True)`` measurement that ``measure_avg_path_length``
used before the bit-parallel BFS replaced it. ``reference_adjacency`` is
the COO-to-CSR route by which ``sample_graph`` built its symmetric
adjacency before the one-pass ``upper + upper.T`` replaced it.
``reference_er_edge_list`` and ``reference_configuration_edges`` are the
G(n, p) and configuration-model edge samplers as they were before the
per-row-count rows and the one-key unique replaced their searches.
``reference_edge_array`` is ``SampledGraph.edge_array`` as it was before
it read the upper triangle straight from the CSR rows.
``reference_push_edges`` is the BFS push level's grouping of the
frontier's edges by neighbour as it was, a scipy ``tocsc`` transpose,
before the numpy gather and argsort replaced it. Do not change them: the
tests require the library to match them bit for bit. ``as_csr_matrix``
hands a sampled graph to the oracles that read a scipy matrix.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from lightcone.errors import DisconnectedGraphError
from lightcone.graphs import (
    DEFAULT_SOURCE_SAMPLE,
    EXACT_SOURCE_LIMIT,
    MIN_COVERAGE,
    PathLengthResult,
)


def as_csr_matrix(graph) -> sp.csr_matrix:
    """The graph as a scipy CSR matrix with unit float64 weights.

    Wraps the graph's own ``indptr`` and ``indices`` (not copies) with a
    fresh all-ones ``data`` array.
    """
    n = graph.n_nodes
    return sp.csr_matrix((np.ones(len(graph.indices)), graph.indices,
                          graph.indptr), shape=(n, n))


def reference_er_edge_list(n, p, rng):
    """G(n, p) edges by geometric skipping over the upper-triangle pairs."""
    n_pairs = n * (n - 1) // 2
    if p <= 0.0 or n_pairs == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    logq = math.log1p(-p)
    picks = []
    cur = -1
    while True:
        # Chunk size with slack so one pass usually suffices.
        m = max(1024, int(1.2 * p * (n_pairs - cur)) + 16)
        u = rng.random(m)
        skips = np.floor(np.log(u) / logq).astype(np.int64) + 1
        idx = cur + np.cumsum(skips)
        take = idx[idx < n_pairs]
        picks.append(take)
        if len(take) < len(idx):
            break
        cur = int(idx[-1])
    lin = np.concatenate(picks)
    row_counts = np.arange(n - 1, 0, -1, dtype=np.int64)
    row_ends = np.cumsum(row_counts)
    i = np.searchsorted(row_ends, lin, side="right")
    row_start = row_ends[i] - row_counts[i]
    j = i + 1 + (lin - row_start)
    return i.astype(np.int64), j.astype(np.int64)


def reference_configuration_edges(degrees, rng):
    """Stub matching followed by self-loop and multi-edge cleanup."""
    stubs = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    rng.shuffle(stubs)
    a, b = stubs[0::2], stubs[1::2]
    keep = a != b
    a, b = a[keep], b[keep]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]


def reference_adjacency(rows, cols, n_total):
    """Symmetric CSR adjacency of the edges (rows[k], cols[k]), COO route."""
    data = np.ones(2 * len(rows))
    adjacency = sp.csr_matrix(
        (data, (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n_total, n_total),
    )
    adjacency.data[:] = 1.0  # collapse any duplicate accumulation
    return adjacency


def reference_edge_array(adjacency) -> np.ndarray:
    """(m, 2) edges with i < j by ``sp.triu``, ``tocoo`` and a lexsort."""
    coo = sp.triu(adjacency, k=1).tocoo()
    edges = np.stack([coo.row, coo.col], axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


def reference_push_edges(adjacency, front_nodes):
    """Neighbours of the frontier, each edge's frontier position grouped
    by neighbour, and where each group starts, by ``tocsc``."""
    into = adjacency[front_nodes].tocsc()
    new_nodes = np.flatnonzero(np.diff(into.indptr))
    return new_nodes, into.indices, into.indptr[new_nodes]


def reference_distance_sums(adjacency, sources) -> np.ndarray:
    """Per-source sum of the finite dijkstra hop distances, as float64."""
    dist = dijkstra(adjacency, unweighted=True, indices=np.asarray(sources))
    return np.where(np.isfinite(dist), dist, 0.0).sum(axis=1)


def reference_measure_avg_path_length(graph, source_sample=None):
    n = graph.n_nodes
    if n < 2:
        raise DisconnectedGraphError(0.0, [n] if n else [])
    adjacency = as_csr_matrix(graph)
    ncomp, labels = connected_components(adjacency, directed=False)
    counts = np.bincount(labels)
    giant = int(np.argmax(counts))
    size = int(counts[giant])
    coverage = size / n
    if coverage < MIN_COVERAGE or size < 2:
        raise DisconnectedGraphError(
            coverage, sorted((int(c) for c in counts), reverse=True)
        )
    nodes = np.where(labels == giant)[0]

    if source_sample is None:
        source_sample = "all" if size <= EXACT_SOURCE_LIMIT else DEFAULT_SOURCE_SAMPLE
    if source_sample == "all":
        sources = nodes
        exact = True
    else:
        k = min(int(source_sample), size)
        if k < 1:
            raise ValueError("source_sample must be >= 1")
        sources = nodes[np.linspace(0, size - 1, k).astype(np.int64)]
        sources = np.unique(sources)
        exact = len(sources) == size

    per_source = np.empty(len(sources))
    chunk = 256
    for start in range(0, len(sources), chunk):
        batch = sources[start:start + chunk]
        dist = dijkstra(adjacency, unweighted=True, indices=batch)
        dist = dist[:, nodes]
        # Every target in the component is reachable; drop the source itself.
        per_source[start:start + len(batch)] = (
            dist.sum(axis=1) / (size - 1)
        )
    mean = float(per_source.mean())
    stderr = None
    if not exact:
        stderr = float(per_source.std(ddof=1) / math.sqrt(len(per_source)))
    return PathLengthResult(mean=mean, stderr=stderr, coverage=coverage,
                            component_size=size, n_sources=len(sources),
                            exact=exact)
