"""Frozen event engine, kept as the reference for ``lightcone.sim.run``.

``reference_run`` is the engine that pushed one heap tuple per delivery
(N-1 per fire in an all-to-all pool) before the delivery-cursor engine
replaced it. Do not change its event logic: the tests require the
library to match its trace, event count and event-budget overflow
exactly. Two changes have been made since it was frozen. The library
engine no longer keeps a per-event audit log, so the switch for this
engine's log is ``reference_run``'s ``record_audit`` keyword, not a
``SimConfig`` field, and the log's record and trace types live here. The
log is the oracle the tests read to explain the fires of a trace. And a
sampled graph's neighbours are read from its ``indptr`` and ``indices``,
the same arrays its former scipy view wrapped.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from lightcone.errors import EventQueueOverflowError
from lightcone.graphs import SampledGraph
from lightcone.sim import SimConfig, SpikeTrace, pairwise_delays

_FIRE = 0
_DELIVER = 1


class AuditRecord(NamedTuple):
    """One event-log entry: a fire, or a delivery with its outcome."""

    kind: str            # "fire" | "delivery"
    time: float
    source: int
    target: int
    emit_time: float     # for deliveries; equals time for fires
    outcome: str         # "fire" | "advance" | "cap_fire" | "refractory"


@dataclass(frozen=True)
class ReferenceTrace(SpikeTrace):
    """A spike trace with the event log, when one was recorded."""

    audit: tuple[AuditRecord, ...] | None = None


def _neighbours(config: SimConfig) -> list[np.ndarray]:
    n = config.n_nodes
    if isinstance(config.topology, SampledGraph):
        graph = config.topology
        return [graph.indices[graph.indptr[i]:graph.indptr[i + 1]]
                .astype(np.int64) for i in range(n)]
    everyone = np.arange(n, dtype=np.int64)
    return [np.delete(everyone, i) for i in range(n)]


def reference_run(config: SimConfig, record_audit: bool = False
                  ) -> ReferenceTrace:
    """Run one simulation with one heap entry per scheduled delivery.

    With ``record_audit`` the trace also logs every fire and every
    delivery popped within the duration, refractory ones included.
    """
    n = config.n_nodes
    T = config.natural_period
    eps_dt = config.coupling_strength * T
    refractory = config.refractory_fraction * T
    duration = config.duration
    delays = pairwise_delays(config.positions, config.signal_velocity)
    neighbours = _neighbours(config)
    phases = config.resolved_phases()

    # phi_i(t) = t - origin[i]; the pending natural fire sits at origin + T.
    origin = [-float(p) for p in phases]
    last_fire = [-math.inf] * n
    version = [0] * n
    audit: list[AuditRecord] | None = [] if record_audit else None

    heap: list[tuple[float, int, int, int, int, int]] = []
    seq = 0
    for i in range(n):
        heap.append((origin[i] + T, i, seq, _FIRE, i, 0))
        seq += 1
    heapq.heapify(heap)

    fire_times: list[float] = []
    fire_nodes: list[int] = []
    pops = 0
    max_events = config.max_events
    # With zero coupling a delivery can never change any state, so the
    # (identical) trace is produced without scheduling deliveries at all.
    couple = eps_dt > 0.0

    def fire(i: int, t: float, natural: bool = True) -> None:
        nonlocal seq
        fire_times.append(t)
        fire_nodes.append(i)
        if audit is not None and natural:
            # Cap-induced fires are already logged by their delivery record.
            audit.append(AuditRecord("fire", t, i, i, t, "fire"))
        last_fire[i] = t
        origin[i] = t
        version[i] += 1
        heapq.heappush(heap, (t + T, i, seq, _FIRE, i, version[i]))
        seq += 1
        if couple:
            row = delays[i]
            for j in neighbours[i]:
                heapq.heappush(heap, (t + row[j], i, seq, _DELIVER, int(j), t))
                seq += 1

    while heap:
        # The last slot holds the fire version for _FIRE events and the
        # exact emit time for _DELIVER events; seq uniqueness keeps tuple
        # comparison from ever reaching it.
        t, src, _, kind, target, extra = heapq.heappop(heap)
        if t > duration:
            break
        pops += 1
        if pops > max_events:
            raise EventQueueOverflowError(
                max_events, config.coupling_strength,
                config.refractory_fraction,
            )
        if kind == _FIRE:
            if extra != version[target]:
                continue  # superseded by a phase advance or induced fire
            fire(target, t)
            continue
        emit = extra
        if t - last_fire[target] < refractory:
            if audit is not None:
                audit.append(
                    AuditRecord("delivery", t, src, target, emit, "refractory")
                )
            continue
        phi = t - origin[target]
        advanced = phi + eps_dt
        if advanced >= T:
            if audit is not None:
                audit.append(
                    AuditRecord("delivery", t, src, target, emit, "cap_fire")
                )
            fire(target, t, natural=False)
        else:
            origin[target] = t - advanced
            version[target] += 1
            heapq.heappush(
                heap, (origin[target] + T, target, seq, _FIRE, target,
                       version[target])
            )
            seq += 1
            if audit is not None:
                audit.append(
                    AuditRecord("delivery", t, src, target, emit, "advance")
                )

    return ReferenceTrace(
        times=np.asarray(fire_times, dtype=float),
        nodes=np.asarray(fire_nodes, dtype=np.int64),
        natural_period=T,
        duration=duration,
        n_events=pops,
        audit=tuple(audit) if audit is not None else None,
    )
