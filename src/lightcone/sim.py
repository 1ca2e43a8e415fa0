"""Event-driven simulation of spatially embedded pulse-coupled oscillators.

Model
-----
Each node is a phase oscillator with natural period T. Phase advances
linearly in time; on reaching T the node fires, resets to zero, and
emits a spike to every neighbour. A spike emitted by node i at time t
arrives at node j at t + dist(i, j)/v. An arrival landing within the
refractory window (less than refractory_fraction * T after the target's
last fire) is discarded; otherwise it advances the target's phase by
coupling_strength * T, capped at the firing threshold, so an advance
that reaches T fires the target immediately at the arrival time.

Determinism
-----------
Simultaneous events are ordered by (time, source id, sequence number),
and pending natural fires that a phase advance invalidates are skipped
through per-node version counters, so a run is a pure function of its
configuration. The refractory window bounds each node's firing rate by
1/(refractory_fraction * T), which keeps the event count finite.

Event queue
-----------
A fire puts two entries on the heap: its next natural fire and one
delivery cursor, not one entry per neighbour. At setup each source's
neighbours are sorted by (delay, position in the neighbour list); each
delay comes from the edge's two endpoints, so memory follows the edge
count. A fire at t takes one sequence number for both entries, keyed
(t + T, source, seq, _FIRE) and (t + delay, source, seq, k) for the
cursor's head, its k-th delivery. _FIRE = -1 puts a fire's own entry
first; seq grows in push order and k follows neighbour position among
equal arrivals, so pops come in exactly the order of one entry per
delivery. Each pop advances the cursor in place. One case needs care:
distinct delays a < b of one source may round to one arrival time,
t + a == t + b, where position, not delay, decides. A source whose
sorted lane holds such a pair (closer than one ulp of duration + the
longest delay) in reverse position order has a neighbouring pair that
does too, so one mask over neighbouring delays flags it at setup; it
keeps its ranks, and its fires order their deliveries by (t + delay,
rank). Uncoupled runs schedule no deliveries and build no delays.

Events are counted when they are scheduled, not when they pop. Only an
entry whose time is within the duration is pushed, and each counts as
one event. A fire's cursor ends before its first arrival past the
duration: the rounded t + delay, the heap key's own expression, is
monotone in the delay, so bisecting the lane on it finds that arrival
exactly. The fire counts every delivery before that end. Every entry
within the duration would pop, so n_events is the number of pops of one
entry per delivery, and the budget raises in the same runs.

Most deliveries land in the target's refractory window and change
nothing. When node j fires at t it stores ready[j] =
_refractory_end(t, refractory), the least float a with a - t >=
refractory as rounded; rounded subtraction is monotone, so an arrival a
is refractory exactly when a < ready[j]. A cursor steps past every
delivery with emit + delay < ready[target] before its first push and
each time it pops, so it is re-keyed once per delivery that can still
matter. The skip is exact: ready only grows, so such a delivery would
still be refractory when it popped, and skipping it changes no state or
the trace. Each lane ends in a sentinel delivery (delay inf, target
slot n, ready[n] = -inf) that stops every scan, so a skip step is one
float comparison.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import (
    EventQueueOverflowError,
    check_each,
    check_integer,
    check_number,
)
from .graphs import SampledGraph, unique_sorted

__all__ = [
    "SimConfig",
    "SpikeTrace",
    "SynchronyReport",
    "SweepRow",
    "pairwise_delays",
    "run",
    "synchrony_metrics",
    "pool_sweep",
]

DEFAULT_COUPLING = 0.3
DEFAULT_REFRACTORY = 0.35
DEFAULT_LOCK_THRESHOLD = 0.9
DEFAULT_ANALYSIS_PERIODS = 10
DEFAULT_MAX_EVENTS = 100_000_000

# The cursor slot of a fire entry; cursors hold k >= 0, so a fire's
# natural-fire entry sorts ahead of its own cursor at one time.
_FIRE = -1


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run.

    ``positions`` is an (n, dim) array in metres; ``initial_phases`` are
    per-node phases in seconds within [0, natural_period), drawn from
    ``seed`` when omitted. ``topology`` is "all_to_all" or a SampledGraph
    whose edges carry spikes (delays still follow Euclidean distance).
    coupling_strength = 0 is the uncoupled null control.
    """

    positions: np.ndarray
    signal_velocity: float
    natural_period: float
    duration: float
    coupling_strength: float = DEFAULT_COUPLING
    refractory_fraction: float = DEFAULT_REFRACTORY
    initial_phases: np.ndarray | None = None
    seed: int = 0
    topology: Union[str, SampledGraph] = "all_to_all"
    lock_threshold: float = DEFAULT_LOCK_THRESHOLD
    max_events: int = DEFAULT_MAX_EVENTS

    def __post_init__(self):
        check_each("positions", self.positions)
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[0] < 1 or pos.shape[1] not in (1, 2, 3):
            raise ValueError(
                f"positions must be an (n, dim) array with dim in 1..3, "
                f"got shape {pos.shape}"
            )
        object.__setattr__(self, "positions", pos)
        check_number("signal_velocity", self.signal_velocity, gt=0.0)
        check_number("natural_period", self.natural_period, gt=0.0)
        check_number("duration", self.duration, ge=self.natural_period)
        check_number("coupling_strength", self.coupling_strength,
                     ge=0.0, le=0.5)
        check_number("refractory_fraction", self.refractory_fraction,
                     ge=0.0, lt=0.5)
        check_number("lock_threshold", self.lock_threshold, gt=0.0, le=1.0)
        check_integer("max_events", self.max_events, ge=1)
        check_integer("seed", self.seed, ge=0)
        n = pos.shape[0]
        if self.initial_phases is not None:
            check_each("initial_phases", self.initial_phases,
                        ge=0.0, lt=self.natural_period)
            phases = np.asarray(self.initial_phases, dtype=float)
            if phases.shape != (n,):
                raise ValueError(
                    f"initial_phases must have shape ({n},), "
                    f"got {phases.shape}"
                )
            object.__setattr__(self, "initial_phases", phases)
        if isinstance(self.topology, SampledGraph):
            if self.topology.n_nodes != n:
                raise ValueError(
                    f"topology has {self.topology.n_nodes} nodes, "
                    f"positions have {n}"
                )
        elif self.topology != "all_to_all":
            raise ValueError(
                f'topology must be "all_to_all" or a SampledGraph, '
                f"got {self.topology!r}"
            )

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    def resolved_phases(self) -> np.ndarray:
        """Initial phases, drawing from the seed when not given."""
        if self.initial_phases is not None:
            return self.initial_phases
        rng = np.random.default_rng(self.seed)
        return rng.uniform(0.0, self.natural_period, size=self.n_nodes)


@dataclass(frozen=True)
class SpikeTrace:
    """All fires of one run, in event order."""

    times: np.ndarray
    nodes: np.ndarray
    natural_period: float
    duration: float
    n_events: int


@dataclass(frozen=True)
class SynchronyReport:
    """Phase coherence of a trace over a trailing analysis window."""

    order_parameter: float
    locked: bool
    convergence_time: float | None
    n_spikes: int


@dataclass(frozen=True)
class SweepRow:
    """Aggregated order parameter for one pool diameter."""

    diameter_over_vt: float
    mean_order_parameter: float
    stderr: float
    order_parameters: tuple[float, ...]


def _delays(pos: np.ndarray, sources: np.ndarray, targets: np.ndarray,
            signal_velocity: float) -> np.ndarray:
    """Delays |pos[sources] - pos[targets]| / v, index arrays broadcast.

    Squared differences are summed one axis at a time, in the order
    ``(diff ** 2).sum(axis=-1)`` sums them, so no (..., dim) temporary
    is built and every delay has that sum's bits.
    """
    total = np.zeros(np.broadcast_shapes(sources.shape, targets.shape))
    for x in pos.T:
        diff = x[sources] - x[targets]
        diff *= diff
        total += diff
    np.sqrt(total, out=total)
    total /= signal_velocity
    return total


def pairwise_delays(positions: np.ndarray, signal_velocity: float) -> np.ndarray:
    """Propagation delay matrix dist(i, j) / v.

    ``run`` computes only the delays along its edges. This full matrix
    is for the frozen reference engine and the tests, and
    ``bench/layers.py`` wraps it as the ``sim.pairwise_delays`` layer.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    ids = np.arange(pos.shape[0])
    return _delays(pos, ids[:, None], ids[None, :], signal_velocity)


def _neighbour_lists(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every source's neighbours as CSR ``(indptr, indices)``."""
    if isinstance(config.topology, SampledGraph):
        return config.topology.indptr, config.topology.indices
    n = config.n_nodes
    # Row i lists 0..n-2, each id from i up shifted past i itself.
    indices = np.tile(np.arange(n - 1), (n, 1))
    indices += indices >= np.arange(n)[:, None]
    return np.arange(n + 1) * (n - 1), indices.ravel()


def _lanes(config: SimConfig) -> tuple[list[tuple], dict[int, list[int]]]:
    """Each source's deliveries in (delay, neighbour position) order.

    A lane is ``(delays, targets, fan)``: two lists of fan deliveries and
    a sentinel (delay inf, target n), each delay computed from the edge's
    two endpoints, so no N x N matrix is built. A source is *tied* when
    two of its distinct delays could round to one arrival time out of
    neighbour-position order, which one mask over the neighbouring pairs
    of all sorted lanes finds. Only tied sources keep ranks (their CSR
    edge indices, which order like the positions), and their fires
    re-sort the lane by arrival time. The edge-sized arrays are freed
    before the lists are built, so the peak stays close to what the
    lanes hold.
    """
    indptr, indices = _neighbour_lists(config)
    bounds = list(zip(indptr[:-1].tolist(), indptr[1:].tolist()))
    fans = np.diff(indptr)
    rows = np.repeat(np.arange(config.n_nodes), fans)
    edge_delays = _delays(config.positions, rows, indices,
                          config.signal_velocity)
    del rows
    # Rows that share a fan sort as one (rows, fan) matrix of edge
    # indices. The sort is stable: equal delays keep neighbour-list order.
    order = np.empty(len(indices), dtype=np.int64)
    for fan in unique_sorted(np.sort(fans)).tolist():
        if fan == 0:
            continue
        edges = indptr[:-1][fans == fan, None] + np.arange(fan)
        by_delay = np.argsort(edge_delays[edges], axis=1, kind="stable")
        order[edges] = np.take_along_axis(edges, by_delay, axis=1)
        del edges, by_delay
    sorted_delays = edge_delays[order]
    del edge_delays
    targets = indices[order]
    del indices
    # Every popped arrival is at most duration + the longest delay, so two
    # delays farther apart than one ulp there never round to one time.
    tol = math.ulp(config.duration + float(sorted_delays.max(initial=0.0)))
    # A source is tied when two distinct delays within tol in its lane lie
    # out of rank order. Then a neighbouring pair between them does: the
    # stable sort keeps equal delays in rank order, so the ranks fall at a
    # nonzero gap, and rounded subtraction is monotone, so that gap is at
    # most the pair's. Across a lane's end the ranks (CSR edge indices)
    # rise, so a flagged pair lies inside one lane.
    gaps = np.diff(sorted_delays)
    swapped = np.flatnonzero((gaps > 0.0) & (gaps <= tol)
                             & (order[1:] < order[:-1]))
    del gaps
    owners = np.searchsorted(indptr, swapped, side="right") - 1
    tied = {i: order[bounds[i][0]:bounds[i][1]].tolist()
            for i in unique_sorted(owners).tolist()}
    del order
    # Each lane ends in a sentinel delivery, delay inf to slot n, past
    # which no scan steps: lane i spans [a + i, b + i] here.
    sorted_delays = np.insert(sorted_delays, indptr[1:], math.inf)
    targets = np.insert(targets, indptr[1:], config.n_nodes)
    lanes = [(sorted_delays[a + i:b + i + 1].tolist(),
              targets[a + i:b + i + 1].tolist(), b - a)
             for i, (a, b) in enumerate(bounds)]
    return lanes, tied


def _arrival_order(lane: tuple, ranks: list[int], t: float) -> tuple:
    """A tied source's lane for a fire at ``t``: by (t + delay, rank)."""
    delays, targets, fan = lane
    order = sorted(range(fan), key=lambda k: (t + delays[k], ranks[k]))
    return ([delays[k] for k in order] + delays[fan:],
            [targets[k] for k in order] + targets[fan:], fan)


def _refractory_end(t: float, refractory: float) -> float:
    """The least float ``a`` with ``a - t >= refractory``, as rounded.

    Rounded subtraction is monotone in ``a``, so after a fire at ``t`` an
    arrival ``a`` is refractory exactly when ``a < _refractory_end(t,
    refractory)``. ``t + refractory`` is within a few steps of it.
    """
    end = t + refractory
    while end - t < refractory:
        end = math.nextafter(end, math.inf)
    below = math.nextafter(end, -math.inf)
    while below - t >= refractory:
        end = below
        below = math.nextafter(end, -math.inf)
    return end


def run(config: SimConfig) -> SpikeTrace:
    """Run one simulation and return its spike trace.

    Deterministic given the configuration (including the seed that fills
    in unspecified initial phases). Raises EventQueueOverflowError when
    the event budget is exhausted.
    """
    n = config.n_nodes
    T = config.natural_period
    eps_dt = config.coupling_strength * T
    refractory = config.refractory_fraction * T
    duration = config.duration
    # With zero coupling a delivery can never change any state, so the
    # (identical) trace is produced without scheduling deliveries at all.
    couple = eps_dt > 0.0
    if couple:
        lanes, tied = _lanes(config)
    phases = config.resolved_phases()

    # phi_i(t) = t - origin[i]; the pending natural fire sits at origin + T.
    origin = [-float(p) for p in phases]
    # An arrival at node j is refractory exactly when it is < ready[j].
    # Slot n, the sentinel deliveries' target, is never refractory.
    ready = [-math.inf] * (n + 1)
    version = [0] * n

    # A fire entry is (time, node, seq, _FIRE, version, None, None, 0); a
    # delivery cursor is (time, source, seq, k, emit time, delays,
    # targets, end), whose head is the lane's k-th delivery of the fire
    # that took seq. It delivers up to end, the count of arrivals within
    # the duration. A fire's entry and cursor share seq and differ in k,
    # so (seq, k) is unique and tuple comparison never passes k.
    heap: list[tuple] = [(origin[i] + T, i, i, _FIRE, 0, None, None, 0)
                         for i in range(n)]
    heapq.heapify(heap)
    seq = n

    fire_times: list[float] = []
    fire_nodes: list[int] = []
    # Every first fire, at T - phase <= T <= duration, is an event.
    events = n
    max_events = config.max_events
    heappush, heappop, heapreplace = (heapq.heappush, heapq.heappop,
                                      heapq.heapreplace)

    def overflow() -> EventQueueOverflowError:
        return EventQueueOverflowError(
            max_events, config.coupling_strength, config.refractory_fraction,
        )

    if events > max_events:
        raise overflow()

    while heap:
        t, i, fire_seq, k, emit, delays, targets, end = heap[0]
        if k == _FIRE:
            heappop(heap)
            if emit != version[i]:
                continue  # superseded by a phase advance or induced fire
        else:
            target = targets[k]
            # Step past the deliveries that would pop refractory: ready
            # only grows, so they would. The lane's sentinel stops the scan.
            k += 1
            while emit + delays[k] < ready[targets[k]]:
                k += 1
            if k < end:
                heapreplace(heap, (emit + delays[k], i, fire_seq, k, emit,
                                   delays, targets, end))
            else:
                heappop(heap)
            if t < ready[target]:
                continue
            advanced = t - origin[target] + eps_dt
            if advanced < T:
                start = t - advanced
                origin[target] = start
                version[target] += 1
                if start + T <= duration:
                    heappush(heap, (start + T, target, seq, _FIRE,
                                    version[target], None, None, 0))
                    events += 1
                    if events > max_events:
                        raise overflow()
                seq += 1
                continue
            # The advance reaches threshold: the target fires now.
            i = target

        # Node i fires at t.
        fire_times.append(t)
        fire_nodes.append(i)
        origin[i] = t
        version[i] += 1
        if t + T <= duration:
            heappush(heap, (t + T, i, seq, _FIRE, version[i], None, None, 0))
            events += 1
        if couple:
            ready[i] = _refractory_end(t, refractory)
            delays, targets, fan = (_arrival_order(lanes[i], tied[i], t)
                                    if i in tied else lanes[i])
            # The cursor stops at the first arrival after the duration.
            # The rounded t + delay is monotone in the delay, so bisecting
            # on it finds that arrival exactly.
            end = fan
            if t + delays[fan - 1] > duration:
                end = bisect_right(delays, duration, 0, fan, key=t.__add__)
            if end:
                events += end
                k = 0
                while t + delays[k] < ready[targets[k]]:
                    k += 1
                if k < end:
                    heappush(heap, (t + delays[k], i, seq, k, t, delays,
                                    targets, end))
        seq += 1
        if events > max_events:
            raise overflow()

    return SpikeTrace(
        times=np.asarray(fire_times, dtype=float),
        nodes=np.asarray(fire_nodes, dtype=np.int64),
        natural_period=T,
        duration=duration,
        n_events=events,
    )


def _order_parameter(times: np.ndarray, period: float) -> float:
    """Magnitude of the circular mean of fire times modulo ``period``."""
    angles = 2.0 * np.pi * ((times % period) / period)
    return float(abs(np.exp(1j * angles).mean()))


def _trailing_window(trace: SpikeTrace,
                     window: float | None = None) -> np.ndarray:
    """Fire times in [duration - window, duration] (see synchrony_metrics)."""
    if window is None:
        window = min(DEFAULT_ANALYSIS_PERIODS * trace.natural_period,
                     trace.duration)
    check_number("window", window, gt=0.0, le=trace.duration)
    t0 = trace.duration - window
    # Times never decrease, so the window is one slice.
    times = trace.times[np.searchsorted(trace.times, t0, side="left"):
                        np.searchsorted(trace.times, trace.duration,
                                        side="right")]
    if len(times) == 0:
        raise ValueError(
            f"no spikes in the analysis window [{t0}, {trace.duration}]"
        )
    return times


def synchrony_metrics(trace: SpikeTrace, window: float | None = None,
                      lock_threshold: float = DEFAULT_LOCK_THRESHOLD
                      ) -> SynchronyReport:
    """Phase coherence of the trailing ``window`` of a trace.

    The order parameter is the magnitude of the circular mean of fire
    times modulo the trace's natural period (default window: ten
    periods, or the whole trace when it is shorter).
    ``convergence_time`` is the start of the earliest period from which
    every subsequent one-period window stays at or above the lock
    threshold, or None if none does.

    Raises ValueError when ``lock_threshold`` is outside (0, 1], or the
    window is outside (0, duration] or contains no spikes.
    """
    check_number("lock_threshold", lock_threshold, gt=0.0, le=1.0)
    period = trace.natural_period
    times = _trailing_window(trace, window)
    order = _order_parameter(times, period)

    # Trace times never decrease, so period k's spikes, [k T, (k+1) T),
    # are the slice between the first indices at or past its two edges.
    n_periods = int(trace.duration / period)
    edges = np.searchsorted(trace.times,
                            [k * period for k in range(n_periods + 1)])
    converged_from: float | None = None
    for k in range(n_periods):
        w0 = k * period
        wt = trace.times[edges[k]:edges[k + 1]]
        ok = len(wt) > 0 and _order_parameter(wt, period) >= lock_threshold
        if ok and converged_from is None:
            converged_from = w0
        elif not ok:
            converged_from = None

    return SynchronyReport(
        order_parameter=order,
        locked=order >= lock_threshold,
        convergence_time=converged_from,
        n_spikes=len(times),
    )


def check_sweep_cells(diameters: list[float], seeds: list[int],
                      diameters_name="diameters", seeds_name="seeds") -> None:
    """``pool_sweep``'s input rule: non-empty lists of diameters > 0 and of
    seeds >= 0, no seed repeated (it would count one cell twice). A
    ValueError names an empty list as ``diameters_name`` or
    ``seeds_name``, and an item as ``diameters_name[i]`` or
    ``seeds_name[i]``."""
    if len(diameters) < 1:
        raise ValueError(f"{diameters_name} must hold at least one diameter")
    check_each(diameters_name, diameters, gt=0.0)
    if len(seeds) < 1:
        raise ValueError(f"{seeds_name} must hold at least one seed")
    for i, seed in enumerate(seeds):
        check_integer(f"{seeds_name}[{i}]", seed, ge=0)
        if seed in seeds[:i]:
            raise ValueError(f"{seeds_name}[{i}] repeats "
                             f"{seeds_name}[{seeds.index(seed)}]")


def pool_sweep(base: SimConfig, diameters: list[float],
               seeds: list[int]) -> tuple[SweepRow, ...]:
    """Order parameter versus pool diameter, averaged over seeds.

    ``diameters`` are in units of v*T of ``base``: each (diameter, seed)
    cell places the nodes uniformly at random in a square of side
    ``diameter * v * T`` and runs the base configuration's dynamics. Per
    seed, the unit-square placement and the initial phases are drawn once
    and shared by every diameter, so the zero-coupling null control is
    exactly diameter-independent. Cells are independent and aggregated
    by cell key, so the table does not depend on evaluation order.
    Returns one row per diameter, in the order given, with its per-seed
    order parameters, as ``synchrony_metrics`` gives them.
    """
    check_sweep_cells(diameters, seeds)
    n = base.n_nodes
    T = base.natural_period
    vt = base.signal_velocity * T

    placements = {}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        unit = rng.uniform(0.0, 1.0, size=(n, 2))
        phases = rng.uniform(0.0, T, size=n)
        placements[seed] = (unit, phases)

    rows = []
    for diameter in diameters:
        values = []
        for seed in seeds:
            unit, phases = placements[seed]
            config = replace(base, positions=unit * (diameter * vt),
                             initial_phases=phases)
            values.append(_order_parameter(_trailing_window(run(config)), T))
        arr = np.asarray(values)
        stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        rows.append(SweepRow(
            diameter_over_vt=diameter,
            mean_order_parameter=float(arr.mean()),
            stderr=stderr,
            order_parameters=tuple(float(v) for v in arr),
        ))
    return tuple(rows)
