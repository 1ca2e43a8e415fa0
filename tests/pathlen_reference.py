"""Frozen path-length routines, kept as the oracles for the fast ones.

``reference_measure_avg_path_length`` is the batched
``dijkstra(unweighted=True)`` measurement that ``measure_avg_path_length``
used before the bit-parallel BFS replaced it. ``reference_adjacency`` is
the COO-to-CSR route by which ``sample_graph`` built its symmetric
adjacency before the one-pass ``upper + upper.T`` replaced it. Do not
change them: the tests require the library to match them bit for bit.
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


def reference_adjacency(rows, cols, n_total):
    """Symmetric CSR adjacency of the edges (rows[k], cols[k]), COO route."""
    data = np.ones(2 * len(rows))
    adjacency = sp.csr_matrix(
        (data, (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n_total, n_total),
    )
    adjacency.data[:] = 1.0  # collapse any duplicate accumulation
    return adjacency


def reference_distance_sums(adjacency, sources) -> np.ndarray:
    """Per-source sum of the finite dijkstra hop distances, as float64."""
    dist = dijkstra(adjacency, unweighted=True, indices=np.asarray(sources))
    return np.where(np.isfinite(dist), dist, 0.0).sum(axis=1)


def reference_measure_avg_path_length(graph, source_sample=None):
    n = graph.n_nodes
    if n < 2:
        raise DisconnectedGraphError(0.0, [n] if n else [])
    ncomp, labels = connected_components(graph.adjacency, directed=False)
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
        dist = dijkstra(graph.adjacency, unweighted=True, indices=batch)
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
