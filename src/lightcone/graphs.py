"""Degree statistics and path lengths for random and scale-free networks.

Analytic operations treat degrees as real-valued. Sampling operations
produce integer degree sequences (floor plus stochastic remainder) and
cleaned-up undirected graphs (no self-loops, no parallel edges), which
serve as the empirical counterpart of the closed-form relations.

A sampled graph holds its adjacency as two numpy arrays, CSR ``indptr``
and ``indices``, and everything here, from sampling to components and
distances, reads those arrays with numpy alone. scipy is not a
dependency: its ``connected_components`` and dijkstra are test oracles
only.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import EULER_GAMMA
from .errors import (DisconnectedGraphError, check_integer, check_number,
                     finite_result)

__all__ = [
    "RandomGaussian",
    "PowerLaw",
    "DegreeDistribution",
    "SampledGraph",
    "PathLengthResult",
    "avg_degree_random",
    "path_length_random",
    "powerlaw_cutoff",
    "powerlaw_mean_degree",
    "powerlaw_max_degree",
    "sample_powerlaw_degrees",
    "sample_graph",
    "measure_avg_path_length",
]

# BFS from every node below this size; sampled sources above.
EXACT_SOURCE_LIMIT = 20_000
DEFAULT_SOURCE_SAMPLE = 256
# The largest component must hold at least this fraction of all nodes.
MIN_COVERAGE = 0.90
# Memory guard for samplers: total expected stub/edge count.
MAX_STUBS = 200_000_000
# BFS direction rule. Costs per edge read, relative to a pull into every
# node: a pull into only the nodes that lack a bit builds their edge list
# first, and a push gathers the frontier's edges and sorts them by
# neighbour.
_RESTRICTED_PULL_COST = 2
_PUSH_COST = 8
# Edge-sized passes run over blocks of this many rows (or nodes), so
# their temporaries stay a constant size whatever the graph's. A block's
# gathered node-major BFS words stay in cache at 2**9 rows: a full pull of
# the criterion-5 graph took 2.5 ms at 2**9 rows and 4.2 ms at 2**11 (best
# of 20, 2 shared cores).
_BLOCK = 2**9
# The G(n, p) sampler's largest chunk of uniform draws, and the CSR
# build's block of sort keys.
_DRAWS = 2**16


@dataclass(frozen=True)
class RandomGaussian:
    """Random-network degree law, parameterized by size and path length.

    The implied average degree is ``avg_degree_random(n_total,
    avg_path_length)``; sampling realizes it as a G(n, p) graph.
    """

    n_total: int
    avg_path_length: float

    def __post_init__(self):
        check_number("n_total", self.n_total, ge=2)
        check_number("avg_path_length", self.avg_path_length, ge=1.0)


@dataclass(frozen=True)
class PowerLaw:
    """Power-law degree distribution p(k) proportional to k**(-alpha).

    ``k_max=None`` selects the natural cutoff ``k_min * n**(1/(alpha-1))``,
    the largest degree expected once in an n-node sample; an explicit
    ``k_max`` truncates the law there instead.
    """

    alpha: float
    k_min: float = 1.0
    k_max: float | None = None

    def __post_init__(self):
        check_number("alpha", self.alpha, gt=1.0, le=4.0)
        check_number("k_min", self.k_min, ge=1.0)
        if self.k_max is not None:
            check_number("k_max", self.k_max, ge=self.k_min)


DegreeDistribution = Union[RandomGaussian, PowerLaw]


@dataclass
class SampledGraph:
    """Undirected graph realized from a degree distribution.

    The adjacency is stored as CSR arrays: row i's neighbours are
    ``indices[indptr[i]:indptr[i + 1]]``. Every edge appears in both of
    its rows, with no self-loops, and node ids are dense in [0, n_nodes).
    Sampled graphs store each row's neighbours in increasing order, in
    int32.
    """

    n_nodes: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        n = check_integer("n_nodes", self.n_nodes, ge=0)
        for name in ("indptr", "indices"):
            array = getattr(self, name)
            if not (isinstance(array, np.ndarray) and array.ndim == 1
                    and array.dtype.kind in "iu"):
                raise ValueError(
                    f"{name} must be a 1-D numpy integer array, got {array!r}")
        indptr, indices = self.indptr, self.indices
        if len(indptr) != n + 1:
            raise ValueError(f"indptr must hold n_nodes + 1 = {n + 1} "
                             f"entries, got {len(indptr)}")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError(f"indptr must run from 0 to len(indices) = "
                             f"{len(indices)}, got {indptr[0]}..{indptr[-1]}")
        if (np.diff(indptr) < 0).any():
            raise ValueError("indptr must be non-decreasing")
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError(f"indices must lie in [0, n_nodes) = [0, {n}), "
                             f"got {indices.min()}..{indices.max()}")

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr).astype(np.int64)

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    def edge_array(self) -> np.ndarray:
        """(m, 2) array of edges with i < j, sorted; stable across runs.

        Read from the CSR rows: each row's entries above the diagonal.
        The rows come out in order, so only a graph that stores some row's
        columns out of order needs a sort.
        """
        cols = self.indices
        rows = np.repeat(np.arange(self.n_nodes, dtype=cols.dtype),
                         np.diff(self.indptr))
        upper = cols > rows
        rows, cols = rows[upper], cols[upper]
        if ((cols[1:] <= cols[:-1]) & (rows[1:] == rows[:-1])).any():
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
        return np.stack([rows, cols], axis=1)


@dataclass(frozen=True)
class PathLengthResult:
    """Average shortest-path length of the largest component.

    ``stderr`` is None for the exact (all-sources) measurement and the
    standard error of the per-source means otherwise.
    """

    mean: float
    stderr: float | None
    coverage: float
    component_size: int
    n_sources: int
    exact: bool


def avg_degree_random(n_total: float, avg_path_length: float) -> float:
    """Average degree a random network needs for a given path length.

    Evaluates k = exp[(ln(n) - gamma)/L + 1/2], with gamma the
    Euler-Mascheroni constant: the mean degree at which a random
    (Gaussian-degree) network of ``n_total`` nodes attains average
    shortest-path length ``avg_path_length``.
    """
    check_number("n_total", n_total, ge=2)
    check_number("avg_path_length", avg_path_length, ge=1.0)
    return math.exp((math.log(n_total) - EULER_GAMMA) / avg_path_length + 0.5)


def path_length_random(n_total: float, avg_degree: float) -> float:
    """Path length of a random network at a given average degree.

    Exact algebraic inverse of :func:`avg_degree_random`:
    L = (ln(n) - gamma) / (ln(k) - 1/2). Requires ln(k) > 1/2.
    """
    check_number("n_total", n_total, ge=2)
    check_number("avg_degree", avg_degree, gt=math.exp(0.5))
    return (math.log(n_total) - EULER_GAMMA) / (math.log(avg_degree) - 0.5)


def _natural_cutoff(dist: PowerLaw, n_total: float) -> float:
    """k_min * n**(1/(alpha-1)), the degree expected once among n nodes;
    inf past the float range, which an explicit k_max still lies below."""
    try:
        return dist.k_min * float(n_total) ** (1.0 / (dist.alpha - 1.0))
    except OverflowError:
        return math.inf


@finite_result
def powerlaw_cutoff(dist: PowerLaw, n_total: float) -> float:
    """Upper degree cutoff: explicit if set, else the natural cutoff.

    Every ``powerlaw_*`` function reads ``n_total`` through here, so this
    one check (a finite number >= 2) serves them all.
    """
    check_number("n_total", n_total, ge=2)
    if dist.k_max is not None:
        return float(dist.k_max)
    return _natural_cutoff(dist, n_total)


@finite_result
def powerlaw_mean_degree(dist: PowerLaw, n_total: float) -> float:
    """Mean degree of the continuous truncated power law.

    Integrates k * p(k) over [k_min, k_max] with p(k) = C k**(-alpha)
    normalized on the same interval. alpha = 2 makes the first-moment
    integral logarithmic and is handled by its exact closed form rather
    than a numerical limit.
    """
    a = dist.alpha
    lo = float(dist.k_min)
    hi = powerlaw_cutoff(dist, n_total)
    if hi <= lo:
        return lo
    if abs(a - 2.0) < 1e-12:
        return math.log(hi / lo) / (1.0 / lo - 1.0 / hi)
    first = (hi ** (2.0 - a) - lo ** (2.0 - a)) / (2.0 - a)
    norm = (hi ** (1.0 - a) - lo ** (1.0 - a)) / (1.0 - a)
    return first / norm


def powerlaw_max_degree(dist: PowerLaw, n_total: float) -> float:
    """Expected maximum degree among n_total nodes.

    The natural cutoff leaves one node expected beyond it; an explicit
    truncation can only lower the maximum.
    """
    return min(powerlaw_cutoff(dist, n_total), _natural_cutoff(dist, n_total))


def sample_powerlaw_degrees(dist: PowerLaw, n_total: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Integer-valued degree sequence drawn from the truncated power law.

    Inverse-CDF samples of the continuous law, rounded by floor plus a
    stochastic remainder so the expectation is preserved. Returned as
    float64 holding integer values; heavy tails can exceed the int64
    range, so callers convert only after checking feasibility.
    """
    a = dist.alpha
    lo = float(dist.k_min)
    hi = powerlaw_cutoff(dist, n_total)
    e = 1.0 - a
    u = rng.random(n_total)
    raw = (lo ** e + u * (hi ** e - lo ** e)) ** (1.0 / e)
    floor = np.floor(raw)
    return floor + (rng.random(n_total) < (raw - floor))


def _er_edge_list(n: int, p: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """G(n, p) edges by geometric skipping over the upper-triangle pairs.

    Returns each row's count of upper neighbours (int64, length n) and
    their columns (int32), row by row and increasing within a row: the
    upper triangle in CSR order, with no row array. Pairs are numbered
    row by row: row i holds the n - 1 - i pairs (i, j), j > i, and ends
    before ``row_ends[i]``. Each chunk of at most ``_DRAWS`` uniform draws
    turns into skips and their running sum in its own buffers; the draws
    follow one stream, so the chunking does not change the edges. A
    chunk's per-row counts come from one search of its pair numbers for
    the row ends it spans, and are added into ``counts``, since a row may
    span chunks. Pair ``lin`` of row i is column ``lin + n - row_ends[i]``,
    shifted in place and kept as int32. At p = 1 every skip is 1, so every
    pair is taken.
    """
    n_pairs = n * (n - 1) // 2
    counts = np.zeros(n, dtype=np.int64)
    if p <= 0.0 or n_pairs == 0:
        return counts, np.empty(0, dtype=np.int32)
    logq = math.log1p(-p) if p < 1.0 else -math.inf
    row_ends = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    shift = n - row_ends
    picks = []
    cur = -1
    while True:
        # Chunk size with slack so one pass usually suffices below the cap.
        m = min(_DRAWS, max(1024, int(1.2 * p * (n_pairs - cur)) + 16))
        u = rng.random(m)
        np.log(u, out=u)
        u /= logq
        np.floor(u, out=u)
        idx = u.astype(np.int64)
        del u
        idx += 1
        np.cumsum(idx, out=idx)
        idx += cur
        # Skips are >= 1, so idx increases and the pairs in range lead it.
        take = idx[:np.searchsorted(idx, n_pairs)]
        # ``take`` is a view of ``idx``: read both before the shift.
        done = len(take) < len(idx)
        cur = int(idx[-1])
        if len(take):
            row, last = np.searchsorted(row_ends, take[[0, -1]], side="right")
            chunk = np.diff(np.searchsorted(take, row_ends[row:last + 1]),
                            prepend=0)
            counts[row:last + 1] += chunk
            take += np.repeat(shift[row:last + 1], chunk)
        picks.append(take.astype(np.int32))
        if done:
            break
    return counts, np.concatenate(picks)


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of an array already in order: each run of equal
    values kept once. np.unique itself loads numpy.ma."""
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _pair_keys(n: int) -> tuple[type, int]:
    """The dtype and id width of sort keys that pack two node ids below n.

    Up to 2**16 nodes an id fits in 16 bits, so a pair fits in one
    uint32, whose sort takes under half the time of an int64 one; above,
    the keys are int64 and an id takes 32 bits.
    """
    return (np.uint32, 16) if n <= 2**16 else (np.int64, 32)


def _configuration_edges(degrees: np.ndarray,
                         rng: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Stub matching followed by self-loop and multi-edge cleanup.

    Returns the edges as ``_er_edge_list`` does: per-row counts of upper
    neighbours (int64, length n) and their columns (int32) in CSR order.
    Each pair (lo, hi) is keyed as ``lo * n + hi``; since hi < n, the
    keys sort in (lo, hi) order, and repeats are dropped after the sort.
    The keys lie below n * n, so they take ``_pair_keys``' dtype: uint32
    up to 2**16 nodes, int64 above. Row r's keys lie below ``(r + 1) *
    n``, so one search of the sorted keys for r = 0..n-2, in the key
    dtype, gives the counts; the last row's run ends with the keys. Each
    stub-sized temporary is freed after its last use. The stubs are
    int32, since MAX_STUBS keeps node ids below 2**31, and
    ``Generator.shuffle`` permutes them as it would int64 ids; node ids
    are non-negative, so casting them to uint32 keeps them.
    """
    n = len(degrees)
    dtype, _ = _pair_keys(n)
    stubs = np.repeat(np.arange(n, dtype=np.int32), degrees)
    rng.shuffle(stubs)
    keep = stubs[0::2] != stubs[1::2]
    a, b = stubs[0::2][keep], stubs[1::2][keep]
    del stubs, keep
    keys = np.minimum(a, b, dtype=dtype, casting="unsafe")
    np.maximum(a, b, out=a)
    del b
    keys *= n
    np.add(keys, a, out=keys, casting="unsafe")
    del a
    keys.sort()
    keys = unique_sorted(keys)
    counts = np.diff(np.searchsorted(keys, np.arange(1, n, dtype=dtype) * n),
                     prepend=0, append=len(keys))
    np.remainder(keys, n, out=keys)
    return counts, keys.astype(np.int32)


def _symmetric_csr(counts: np.ndarray, cols: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``indptr`` and ``indices`` of the undirected graph on n nodes.

    Takes each edge once, as the samplers return it: row i's count of
    upper neighbours ``counts[i]`` and the int32 ``cols`` of all rows'
    upper neighbours, row by row and increasing within a row (the upper
    triangle in CSR order). Row i lists its lower neighbours (the rows of
    the edges whose column is i) and then its upper ones, so its indices
    increase, as in the tests' oracle, scipy's CSR of the symmetric
    matrix, entry for entry and in int32.
    Read in order, the lower blocks are the rows sorted by column: one
    sort of the keys ``cols << width | rows``, in ``_pair_keys``' dtype
    and width (uint32 and 16 bits up to 2**16 nodes, int64 and 32
    above), whose low ``width`` bits are the row. The keys start as the
    rows, from the counts, and take their columns one ``_DRAWS`` block at
    a time; after the sort they are masked to the rows in place. The
    upper blocks are ``cols`` as given, so a mask of the lower slots
    places both without an index array. MAX_STUBS keeps node ids and
    entry counts far below 2**31.
    """
    dtype, width = _pair_keys(n)
    lower_counts = np.bincount(cols, minlength=n)
    keys = np.repeat(np.arange(n, dtype=dtype), counts)
    for first in range(0, len(cols), _DRAWS):
        keys[first:first + _DRAWS] |= (
            cols[first:first + _DRAWS].astype(dtype) << width)
    keys.sort()
    keys &= 2**width - 1
    lower = np.repeat(np.tile([True, False], n),
                      np.stack([lower_counts, counts], axis=1).ravel())
    indices = np.empty(2 * len(cols), dtype=np.int32)
    indices[lower] = keys
    del keys
    np.logical_not(lower, out=lower)
    indices[lower] = cols
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts + lower_counts, out=indptr[1:])
    return indptr, indices


def sample_graph(dist: DegreeDistribution, n_total: int, seed: int) -> SampledGraph:
    """Realize a graph from a degree distribution, reproducibly.

    RandomGaussian becomes a G(n, p) graph with p = k/(n-1) for the degree
    implied by the distribution's own (n_total, avg_path_length) pair.
    PowerLaw becomes a configuration-model graph from a sampled degree
    sequence (total degree adjusted to even parity), with self-loops and
    parallel edges removed afterwards.

    Both samplers return the upper triangle in CSR order, each edge (i, j)
    with i < j once: the count of each row's upper neighbours and their
    int32 columns, with no row array. ``_symmetric_csr`` builds the
    graph's CSR arrays from them in numpy.
    They equal the ``indptr`` and ``indices`` of scipy's COO route, a
    test oracle, dtypes included.

    Raises ValueError for an infeasible degree (a G(n, p) mean degree
    above n_total - 1, so p > 1, or a power-law degree >= n_total) and for
    samples beyond the memory budget (~2e8 expected stubs).
    """
    check_integer("n_total", n_total, ge=2)
    rng = np.random.default_rng(seed)
    if isinstance(dist, RandomGaussian):
        kbar = avg_degree_random(dist.n_total, dist.avg_path_length)
        if kbar > n_total - 1:
            raise ValueError(
                f"infeasible degree: target mean degree {kbar:.4g} > "
                f"n_total - 1 = {n_total - 1}"
            )
        if kbar * n_total > MAX_STUBS:
            raise ValueError(
                f"sample exceeds memory budget: n*k = {kbar * n_total:.3g} "
                f"> {MAX_STUBS}"
            )
        p = kbar / (n_total - 1)
        counts, cols = _er_edge_list(n_total, p, rng)
    elif isinstance(dist, PowerLaw):
        raw = sample_powerlaw_degrees(dist, n_total, rng)
        if float(raw.max()) >= n_total:
            raise ValueError(
                f"infeasible degree sequence: max degree {raw.max():.0f} "
                f">= n_total {n_total}"
            )
        if float(raw.sum()) > MAX_STUBS:
            raise ValueError(
                f"sample exceeds memory budget: sum of degrees "
                f"{raw.sum():.3g} > {MAX_STUBS}"
            )
        degrees = raw.astype(np.int64)
        if degrees.sum() % 2 == 1:
            bump = int(rng.integers(n_total))
            degrees[bump] += 1
            if degrees[bump] >= n_total:
                degrees[bump] -= 2
        counts, cols = _configuration_edges(degrees, rng)
    else:
        raise TypeError(f"unsupported distribution type: {type(dist)!r}")

    indptr, indices = _symmetric_csr(counts, cols, n_total)
    return SampledGraph(n_nodes=n_total, indptr=indptr, indices=indices)


def _reduce_segments(ufunc: np.ufunc, values: np.ndarray, edges: np.ndarray,
                     segments: np.ndarray) -> np.ndarray:
    """``ufunc`` over the rows ``values.take(edges, axis=0)`` from each
    segment start to the next.

    ``values`` is node-major and C-contiguous: one row per node, one
    column per word. Each row is gathered as one ``np.void`` item, a
    single copy instead of one gather per word, and the gathered rows
    are reduced along axis 0. ``edges`` are intp, since ``take()``
    indexes 9x slower with int32.
    """
    items = values.view(np.dtype((np.void, values.shape[1] * values.itemsize)))
    gathered = items.take(edges, axis=0).view(values.dtype)
    return ufunc.reduceat(gathered, segments, axis=0)


def _reduce_rows(ufunc: np.ufunc, values: np.ndarray,
                 graph: SampledGraph) -> tuple[np.ndarray, np.ndarray]:
    """``_reduce_segments`` over every non-empty row's neighbours.

    ``values`` is node-major, one row per node. Returns the non-empty
    rows and one result row for each, since ``reduceat`` gives an empty
    row a stray element. The entries are read ``_BLOCK`` rows at a time,
    each block's indices converted to intp, so no temporary grows with
    the edge count.
    """
    indptr = graph.indptr
    rows = np.flatnonzero(np.diff(indptr))
    out = np.empty((len(rows), values.shape[1]), dtype=values.dtype)
    for first in range(0, len(rows), _BLOCK):
        segments = indptr[rows[first:first + _BLOCK]]
        last = first + len(segments)
        edges = graph.indices[segments[0]:indptr[rows[last - 1] + 1]]
        out[first:last] = _reduce_segments(ufunc, values,
                                           edges.astype(np.intp),
                                           segments - segments[0])
    return rows, out


def _components(graph: SampledGraph) -> np.ndarray:
    """Component label of each node of an undirected graph.

    Hook and shortcut (Shiloach & Vishkin 1982, in the simplified form of
    FastSV, Zhang, Azad & Hu 2020), over whole arrays. Every node points
    at a node of its own component no larger than itself, so the pointers
    form trees rooted at nodes that point at themselves. A round hooks
    each node's root, and the node itself, onto the lowest pointer among
    the node's neighbours, then jumps every pointer to its root. A round
    that changes no pointer leaves each edge's ends with equal pointers,
    so every component points at its lowest node. The criterion-5 G(n, p)
    graph takes 3 rounds, the last one changing nothing; a randomly
    numbered path takes fewer than log2 of its length (10 at 10^4 nodes,
    15 at 10^6). Roots are then numbered in node order: labels run
    0..c-1, one per component, so the partition is the one scipy's
    ``connected_components`` finds (a tests-only oracle here).
    ``measure_avg_path_length`` calls it only for a graph with an empty
    row or one its BFS has proven disconnected.
    """
    n = graph.n_nodes
    # int32 pointers halve the gathers.
    parent = np.arange(n, dtype=np.int32 if n <= 2**31 else np.intp)
    while True:
        rows, low = _reduce_rows(np.minimum, parent[:, None], graph)
        low = low[:, 0]
        new = parent.copy()
        np.minimum.at(new, parent.take(rows), low)
        new[rows] = np.minimum(new.take(rows), low)
        while True:
            jumped = new.take(new)
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, parent):
            break
        parent = new
    return np.cumsum(parent == np.arange(n)).take(parent) - 1


def _bfs_distance_sums(graph: SampledGraph, sources: np.ndarray,
                       labels: np.ndarray) -> np.ndarray | None:
    """Sum of hop distances from each source to every node it reaches.

    Bit-parallel multi-source BFS (Then et al., VLDB 2014): each chunk of
    up to 256 sources gets one bit per source in 4 uint64 words per node,
    held node-major (one row of words per node), and one level expands
    every source at once. ``labels`` must give all the nodes of a
    component one label; other components may share it, as they do
    under the all-zero guess of one component. A node *lacks*
    the bits of the sources of its label that have not reached it yet,
    and each source counts the nodes of its label it has not reached. The
    chunk stops when every count is 0, or when a level reaches nothing
    new; a count still above 0 then proves that a label holds a node the
    source cannot reach, and the function returns None. With the
    components' own labels (``_components``) it returns the int64 sums.

    Each level adds every source's count to its sum, since an unreached
    node is one level further away, and recounts from the smaller side:
    it subtracts the bits of the level's new front, or counts the bits
    still lacking when fewer nodes lack any.

    Each level picks its direction from edge counts (Beamer, Asanovic &
    Patterson, SC 2012). A push ORs each frontier node's words into its
    neighbours; it runs while the frontier's edges are few. A pull ORs,
    into each node that still lacks a bit, the frontier words of its
    neighbours; when such nodes hold most edges it pulls into every node.
    Either way a node receives the OR of its frontier neighbours' words
    and keeps only the bits it lacks, so each level reaches the same
    (source, node) pairs whichever direction runs, and the int64 sums are
    exact. The graph must be undirected (each edge in both rows), and a
    node that lacks a bit must have a neighbour: under a guessed label,
    no row may be empty.
    """
    indices = graph.indices
    n = graph.n_nodes
    degree = np.diff(graph.indptr)
    sizes = np.bincount(labels)
    sums = np.zeros(len(sources), dtype=np.int64)
    chunk = 256
    for first in range(0, len(sources), chunk):
        batch = sources[first:first + chunk]
        bits = np.arange(len(batch))
        word, bit = bits // 64, np.uint64(1) << (bits % 64).astype(np.uint64)
        # Each source's bit at its own node: one row per node, one column
        # per word. .at, not |=: a source listed twice in one word sets
        # two bits.
        own = np.zeros((n, word[-1] + 1), dtype="<u8")
        np.bitwise_or.at(own, (batch, word), bit)
        wanted = np.zeros((len(sizes), own.shape[1]), dtype="<u8")
        np.bitwise_or.at(wanted, (labels[batch], word), bit)
        lacking = wanted.take(labels, axis=0)
        lacking &= ~own
        unreached = sizes.take(labels[batch]) - 1
        needy = np.flatnonzero(_any_bit(lacking))
        front_nodes = np.flatnonzero(_any_bit(own))
        front = own.take(front_nodes, axis=0)
        while unreached.any():
            if not len(front_nodes):
                return None
            sums[first:first + len(batch)] += unreached
            lengths = degree.take(needy)
            restricted_cost = _RESTRICTED_PULL_COST * int(lengths.sum())
            pull_cost = min(restricted_cost, len(indices))
            front_lengths = degree.take(front_nodes)
            if _PUSH_COST * int(front_lengths.sum()) < pull_cost:
                new_nodes, edges, segments = _push_edges(graph, front_nodes,
                                                         front_lengths)
                new = _reduce_segments(np.bitwise_or, front, edges, segments)
            else:
                words = np.zeros_like(own)
                words[front_nodes] = front
                if restricted_cost >= len(indices):
                    new_nodes, new = _reduce_rows(np.bitwise_or, words,
                                                  graph)
                else:
                    new_nodes = needy
                    edges, segments = _row_entries(graph, needy, lengths)
                    new = _reduce_segments(np.bitwise_or, words, edges,
                                           segments)
            new &= lacking.take(new_nodes, axis=0)
            keep = _any_bit(new) != 0
            front_nodes, front = new_nodes[keep], new.compress(keep, axis=0)
            lacking[front_nodes] &= ~front
            needy = np.flatnonzero(_any_bit(lacking))
            if len(needy) < len(front_nodes):
                unreached = _bit_counts(lacking.take(needy, axis=0))
                unreached = unreached[:len(batch)]
            else:
                unreached -= _bit_counts(front)[:len(batch)]
    return sums


def _row_entries(graph: SampledGraph, nodes: np.ndarray,
                 lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR entries of ``nodes``, whose degrees are ``lengths``, one
    node after another, in intp, and where each node's run starts."""
    ends = np.cumsum(lengths)
    segments = ends - lengths
    entries = np.repeat(graph.indptr[nodes] - segments, lengths)
    entries += np.arange(ends[-1])
    entries[:] = graph.indices.take(entries)  # entry ids become neighbours
    return entries, segments


def _push_edges(graph: SampledGraph, front_nodes: np.ndarray,
                lengths: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frontier's edges grouped by their far end, for a push level.

    ``lengths`` are the frontier nodes' degrees. Returns the nodes next
    to the frontier, in increasing order; for each edge, grouped by those
    nodes, the position in ``front_nodes`` of its frontier end; and where
    each node's group starts. One argsort groups the edges; the order
    within a group is arbitrary, and the OR over it does not depend on it.
    """
    targets, _ = _row_entries(graph, front_nodes, lengths)
    order = np.argsort(targets)
    targets = targets.take(order)
    segments = np.flatnonzero(np.diff(targets, prepend=-1))
    edges = np.repeat(np.arange(len(front_nodes)), lengths).take(order)
    return targets.take(segments), edges, segments


def _any_bit(words: np.ndarray) -> np.ndarray:
    """OR over the word columns: nonzero for each node with any bit set."""
    return functools.reduce(np.bitwise_or, words.T)


def _bit_counts(words: np.ndarray) -> np.ndarray:
    """Number of nodes with each bit set; bit i of word j counts at 64j + i.

    ``words`` is node-major and C-contiguous, so each block of
    ``_BLOCK`` nodes is already one row of bytes per node and unpacks
    with no copy. The bits are summed 255 nodes at a time as uint64
    words, whose eight byte lanes then each hold a count below 256: an
    eighth of the additions of a bytewise sum.
    """
    counts = np.zeros(64 * words.shape[1], dtype=np.int64)
    for first in range(0, len(words), _BLOCK):
        block = words[first:first + _BLOCK]
        unpacked = np.unpackbits(block.view(np.uint8), axis=1,
                                 bitorder="little").view("<u8")
        for part in range(0, len(unpacked), 255):
            counts += unpacked[part:part + 255].sum(axis=0).view(np.uint8)
    return counts


def measure_avg_path_length(graph: SampledGraph,
                            source_sample: int | str | None = None
                            ) -> PathLengthResult:
    """Measure the average shortest-path length via per-source BFS.

    Runs on the largest connected component only; raises
    DisconnectedGraphError when that component covers less than 90% of the
    nodes. ``source_sample`` may be "all" (exact mean over all ordered
    pairs), an integer source count of at least 2 (estimate with standard
    error), or None for the size-based default (exact up to 20k nodes, 256
    sources above). Sources are taken at fixed evenly spaced positions in
    the component so repeated measurements agree.

    Distances come from a bit-parallel multi-source BFS that advances 64
    sources per machine word. Each level pushes from a small frontier or
    pulls into the nodes that still lack a source, whichever reads fewer
    edges; both reach the same nodes, so the result does not depend on
    the choice. scipy's dijkstra and networkx remain its test oracles.

    A graph with no empty row is first taken to be one component, as the
    graphs this measures are: the sources are picked among all n nodes,
    and the BFS returns None once a chunk leaves a source short of the
    n - 1 others, which its first chunk does on a disconnected graph.
    Only then, or when some row is empty, are the components labelled
    (``_components``) and the sources picked again from the largest. So
    a disconnected graph with no empty row pays one extra chunk of up to
    256 sources, and a connected one no labelling pass.
    """
    if source_sample is not None and source_sample != "all" and (
            isinstance(source_sample, bool)
            or not isinstance(source_sample, (int, np.integer))
            or source_sample < 2):
        raise ValueError(
            "source_sample must be 'all', None or an integer >= 2, "
            f"got {source_sample!r}"
        )
    n = graph.n_nodes
    if n < 2:
        raise DisconnectedGraphError(0.0, [n] if n else [])
    result = None
    if np.diff(graph.indptr).all():
        result = _largest_component_path_length(
            graph, np.zeros(n, dtype=np.intp), source_sample)
    if result is None:
        result = _largest_component_path_length(graph, _components(graph),
                                                source_sample)
    return result


def _largest_component_path_length(graph: SampledGraph, labels: np.ndarray,
                                   source_sample: int | str | None
                                   ) -> PathLengthResult | None:
    """``measure_avg_path_length`` on the largest of the labelled
    components; None when the BFS proves that label to be more than one
    component."""
    n = graph.n_nodes
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
        sources = nodes[np.linspace(0, size - 1, k).astype(np.int64)]
        # The indices never decrease, so a repeat follows its original.
        sources = unique_sorted(sources)
        exact = len(sources) == size

    sums = _bfs_distance_sums(graph, sources, labels)
    if sums is None:
        return None
    # Every target in the component is reachable; the source adds 0.
    per_source = sums / (size - 1)
    mean = float(per_source.mean())
    stderr = None
    if not exact:
        stderr = float(per_source.std(ddof=1) / math.sqrt(len(per_source)))
    return PathLengthResult(mean=mean, stderr=stderr, coverage=coverage,
                            component_size=size, n_sources=len(sources),
                            exact=exact)
