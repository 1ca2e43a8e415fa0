"""Degree statistics and path lengths for random and scale-free networks.

Analytic operations treat degrees as real-valued. Sampling operations
produce integer degree sequences (floor plus stochastic remainder) and
cleaned-up undirected graphs (no self-loops, no parallel edges), which
serve as the empirical counterpart of the closed-form relations.

``scipy.sparse`` loads on the first sample or path-length measurement,
inside the functions that build or search a sparse graph; it holds the
adjacency matrices and nothing else. The closed forms, the pool and
hardware budgets and the simulator need only numpy, and scipy is about
two thirds of a cold ``import lightcone``, so every CLI command that
samples no graph starts without it. scipy's sparse graph algorithms
never load: components are labelled and distances summed in numpy, since
importing those routines also brings in ``scipy.linalg`` and costs more
memory than any array the criterion-5 measurement allocates.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from .constants import EULER_GAMMA
from .errors import DisconnectedGraphError, check_integer, check_number

if TYPE_CHECKING:
    import scipy.sparse as sp

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
# first, and a push transposes the frontier's CSR rows.
_RESTRICTED_PULL_COST = 2
_PUSH_COST = 8


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

    ``adjacency`` is a symmetric CSR matrix with unit weights, no
    self-loops, node ids dense in [0, n_nodes). ``target_degrees`` keeps
    the drawn (pre-cleanup) degree sequence for power-law samples.
    """

    n_nodes: int
    adjacency: sp.csr_matrix
    seed: int
    target_degrees: np.ndarray | None = None

    @property
    def degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel().astype(np.int64)

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.nnz // 2)

    def edge_array(self) -> np.ndarray:
        """(m, 2) array of edges with i < j, sorted; stable across runs.

        Read from the CSR rows: each row's entries above the diagonal, in
        column order, so the rows come out in order with no sort.
        """
        adjacency = self.adjacency
        if not adjacency.has_sorted_indices:
            adjacency = adjacency.sorted_indices()
        cols = adjacency.indices
        rows = np.repeat(np.arange(adjacency.shape[0], dtype=cols.dtype),
                         np.diff(adjacency.indptr))
        upper = cols > rows
        return np.stack([rows[upper], cols[upper]], axis=1)


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
    """k_min * n**(1/(alpha-1)), the degree expected once among n nodes."""
    return dist.k_min * float(n_total) ** (1.0 / (dist.alpha - 1.0))


def powerlaw_cutoff(dist: PowerLaw, n_total: float) -> float:
    """Upper degree cutoff: explicit if set, else the natural cutoff.

    Every ``powerlaw_*`` function reads ``n_total`` through here, so this
    one check (a finite number >= 2) serves them all.
    """
    check_number("n_total", n_total, ge=2)
    if dist.k_max is not None:
        return float(dist.k_max)
    return _natural_cutoff(dist, n_total)


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

    Pairs are numbered row by row: row i holds the n - 1 - i pairs (i, j),
    j > i, and ends before ``row_ends[i]``. Each chunk turns uniform
    draws into skips and their running sum in its own buffers. The rows
    come from per-row counts: one search of the sorted pair numbers for
    the n - 1 row ends, then ``np.repeat``. Pair ``lin`` of row i is
    column ``lin + n - row_ends[i]``. At p = 1 every skip is 1, so every
    pair is taken.
    """
    n_pairs = n * (n - 1) // 2
    if p <= 0.0 or n_pairs == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    logq = math.log1p(-p) if p < 1.0 else -math.inf
    picks = []
    cur = -1
    while True:
        # Chunk size with slack so one pass usually suffices.
        m = max(1024, int(1.2 * p * (n_pairs - cur)) + 16)
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
        picks.append(take)
        if len(take) < len(idx):
            break
        cur = int(idx[-1])
    lin = np.concatenate(picks)
    row_ends = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    counts = np.diff(np.searchsorted(lin, row_ends), prepend=0)
    rows = np.repeat(np.arange(n - 1, dtype=np.int64), counts)
    lin += np.repeat(n - row_ends, counts)
    return rows, lin


def _configuration_edges(degrees: np.ndarray,
                         rng: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Stub matching followed by self-loop and multi-edge cleanup.

    Each pair (lo, hi) is keyed as ``lo * n + hi``; since hi < n, the
    unique keys sort in (lo, hi) order.
    """
    n = len(degrees)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    a, b = stubs[0::2], stubs[1::2]
    keep = a != b
    a, b = a[keep], b[keep]
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    return keys // n, keys % n


def sample_graph(dist: DegreeDistribution, n_total: int, seed: int) -> SampledGraph:
    """Realize a graph from a degree distribution, reproducibly.

    RandomGaussian becomes a G(n, p) graph with p = k/(n-1) for the degree
    implied by the distribution's own (n_total, avg_path_length) pair.
    PowerLaw becomes a configuration-model graph from a sampled degree
    sequence (total degree adjusted to even parity), with self-loops and
    parallel edges removed afterwards.

    Both samplers return each edge once as (i, j) with i < j, sorted by
    row and then column, which is the upper triangle in CSR order. The
    symmetric adjacency is built from it in one pass as ``upper +
    upper.T``, with no COO sort and no duplicate sum; its ``indptr``,
    ``indices``, ``data`` and dtypes equal those of the COO route.

    Raises ValueError for an infeasible degree (a G(n, p) mean degree
    above n_total - 1, so p > 1, or a power-law degree >= n_total) and for
    samples beyond the memory budget (~2e8 expected stubs).
    """
    check_integer("n_total", n_total, ge=2)
    rng = np.random.default_rng(seed)
    target: np.ndarray | None = None
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
        rows, cols = _er_edge_list(n_total, p, rng)
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
        target = degrees
        rows, cols = _configuration_edges(degrees, rng)
    else:
        raise TypeError(f"unsupported distribution type: {type(dist)!r}")

    import scipy.sparse as sp

    # Each edge once as (i, j), i < j, sorted: the upper triangle in CSR order.
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows,
                                                        minlength=n_total))))
    del rows
    upper = sp.csr_matrix((np.ones(len(cols)), cols, indptr),
                          shape=(n_total, n_total))
    del cols, indptr  # upper holds its own int32 copies
    adjacency = upper + upper.T
    return SampledGraph(n_nodes=n_total, adjacency=adjacency, seed=seed,
                        target_degrees=target)


def _components(adjacency: sp.csr_matrix) -> np.ndarray:
    """Component label of each node of a symmetric adjacency matrix.

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
    ``connected_components`` finds (a tests-only oracle here). This
    replaces that call, whose module's import also loads
    ``scipy.linalg``: 11 MB of memory, more than any array the
    measurement of the criterion graph allocates.

    ``adjacency`` must be symmetric; only its sparsity structure is read.
    """
    n = adjacency.shape[0]
    indptr = adjacency.indptr
    # Pointers keep the CSR's index dtype, which halves the edge-sized
    # gather; the edge list itself is intp, as take() indexes 8x slower
    # with int32.
    parent = np.arange(n, dtype=adjacency.indices.dtype)
    indices = adjacency.indices.astype(np.intp)
    rows = np.flatnonzero(np.diff(indptr))
    starts = indptr[rows]
    while len(rows):
        low = np.minimum.reduceat(parent.take(indices), starts)
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


def _bfs_distance_sums(adjacency: sp.csr_matrix, sources: np.ndarray,
                       labels: np.ndarray) -> np.ndarray:
    """Sum of hop distances from each source to every node it reaches.

    Bit-parallel multi-source BFS (Then et al., VLDB 2014): each chunk of
    up to 256 sources gets one bit per source in 4 uint64 words per node,
    and one level expands every source at once. A node *lacks* the bits
    of the sources in its own component (the ``_components`` labels) that
    have not reached it yet; a chunk stops once no node lacks a bit (or,
    were the labels wrong, once a level reaches nothing new).

    Each level picks its direction from edge counts (Beamer, Asanovic &
    Patterson, SC 2012). A push ORs each frontier node's words into its
    neighbours; it runs while the frontier's edges are few. A pull ORs,
    into each node that still lacks a bit, the frontier words of its
    neighbours; when such nodes hold most edges it pulls into every node.
    Either way a node receives the OR of its frontier neighbours' words
    and keeps only the bits it lacks, so each level reaches the same
    (source, node) pairs whichever direction runs, and the int64 sums are
    exact. ``adjacency`` must be symmetric; only its sparsity structure
    is read.
    """
    n = adjacency.shape[0]
    indptr = adjacency.indptr
    indices = adjacency.indices.astype(np.intp)  # take() wants intp
    degree = np.diff(indptr)
    # reduceat gives an empty segment a stray element, and rejects a
    # trailing one that starts at nnz: a full pull reduces non-empty rows.
    rows = np.flatnonzero(degree)
    starts = indptr[rows]
    sums = np.zeros(len(sources), dtype=np.int64)
    chunk = 256
    for first in range(0, len(sources), chunk):
        batch = sources[first:first + chunk]
        bits = np.arange(len(batch))
        word, bit = bits // 64, np.uint64(1) << (bits % 64).astype(np.uint64)
        # Each source's bit at its own node: one row per word, one column
        # per node. .at, not |=: a source listed twice in one word sets
        # two bits.
        own = np.zeros((word[-1] + 1, n), dtype="<u8")
        np.bitwise_or.at(own, (word, batch), bit)
        wanted = np.zeros((len(own), labels.max() + 1), dtype="<u8")
        np.bitwise_or.at(wanted, (word, labels[batch]), bit)
        lacking = wanted.take(labels, axis=1) & ~own
        front_nodes = np.flatnonzero(_any_bit(own))
        front = own.take(front_nodes, axis=1)
        level = 0
        while len(front_nodes):  # ends even if wrong labels strand a bit
            needy = np.flatnonzero(_any_bit(lacking))
            if not len(needy):
                break
            level += 1
            lengths = degree.take(needy)
            restricted_cost = _RESTRICTED_PULL_COST * int(lengths.sum())
            pull_cost = min(restricted_cost, len(indices))
            if _PUSH_COST * int(degree.take(front_nodes).sum()) < pull_cost:
                # The frontier's CSR rows transposed: for each neighbour,
                # the frontier nodes next to it, as columns of ``front``.
                into = adjacency[front_nodes].tocsc()
                new_nodes = np.flatnonzero(np.diff(into.indptr))
                words, edges = front, into.indices
                segments = into.indptr[new_nodes]
            else:
                words = np.zeros_like(own)
                for row, f in zip(words, front):
                    row[front_nodes] = f
                if restricted_cost >= len(indices):
                    new_nodes, edges, segments = rows, indices, starts
                else:
                    # Nodes that lack a bit have a neighbour: their
                    # component holds a source other than themselves.
                    ends = np.cumsum(lengths)
                    segments = ends - lengths
                    edge_ids = (np.repeat(indptr[needy] - segments, lengths)
                                + np.arange(ends[-1]))
                    new_nodes, edges = needy, indices.take(edge_ids)
            new = np.stack([np.bitwise_or.reduceat(w.take(edges), segments)
                            for w in words])
            new &= lacking.take(new_nodes, axis=1)
            keep = _any_bit(new) != 0
            front_nodes, front = new_nodes[keep], new.compress(keep, axis=1)
            for row, f in zip(lacking, front):
                row[front_nodes] &= ~f
            sums[first:first + len(batch)] += (
                level * _bit_counts(front)[:len(batch)])
    return sums


def _any_bit(words: np.ndarray) -> np.ndarray:
    """OR over the word rows: nonzero for each node with any bit set."""
    return functools.reduce(np.bitwise_or, words)


def _bit_counts(words: np.ndarray) -> np.ndarray:
    """Number of nodes with each bit set; bit i of word j counts at 64j + i.

    The bits are unpacked one row per node and summed 255 nodes at a time
    as uint64 words, whose eight byte lanes then each hold a count below
    256: an eighth of the additions of a bytewise sum.
    """
    unpacked = np.unpackbits(np.ascontiguousarray(words.T).view(np.uint8),
                             axis=1, bitorder="little").view("<u8")
    counts = np.zeros(8 * unpacked.shape[1], dtype=np.int64)
    for block in range(0, len(unpacked), 255):
        counts += unpacked[block:block + 255].sum(axis=0).view(np.uint8)
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
    labels = _components(graph.adjacency)
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
        sources = np.unique(sources)
        exact = len(sources) == size

    # Every target in the component is reachable; the source adds 0.
    per_source = _bfs_distance_sums(graph.adjacency, sources,
                                    labels) / (size - 1)
    mean = float(per_source.mean())
    stderr = None
    if not exact:
        stderr = float(per_source.std(ddof=1) / math.sqrt(len(per_source)))
    return PathLengthResult(mean=mean, stderr=stderr, coverage=coverage,
                            component_size=size, n_sources=len(sources),
                            exact=exact)
