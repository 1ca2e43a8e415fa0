"""Which program attributes the traced run wraps, and the per-layer metrics.

A target is wrapped where its caller looks it up: ``lightcone.cli.run``
is what ``cmd_simulate`` calls, ``lightcone.sim.run`` is what
``pool_sweep`` and the benchmark call. Counters are computed from the
call's arguments and result, outside every span.
"""
from __future__ import annotations

from collections import defaultdict

from lightcone import cli, graphs, sim

from spans import ROOT, Tracer, self_times


def _count_run(args, kwargs, trace) -> dict:
    config = args[0] if args else kwargs["config"]
    spikes = len(trace.times)
    if config.coupling_strength == 0.0:
        deliveries = 0
    elif isinstance(config.topology, graphs.SampledGraph):
        out_degree = config.topology.degrees
        deliveries = int(out_degree[trace.nodes].sum())
    else:
        deliveries = spikes * (config.n_nodes - 1)
    return {"events": trace.n_events, "spikes": spikes,
            "deliveries_scheduled": deliveries}


def _count_delays(args, kwargs, delays) -> dict:
    positions = args[0] if args else kwargs["positions"]
    n, dim = positions.shape
    # The n x n result plus the n x n x dim difference temporary.
    return {"bytes_computed": 8 * n * n * (1 + dim)}


def _count_sync(args, kwargs, report) -> dict:
    trace = args[0] if args else kwargs["trace"]
    return {"spikes": len(trace.times)}


def _count_sweep(args, kwargs, result) -> dict:
    diameters, seeds = args[1], args[2]
    return {"cells": len(diameters) * len(seeds)}


def _count_sample(args, kwargs, graph) -> dict:
    return {"edges": graph.n_edges}


def _count_measure(args, kwargs, result) -> dict:
    graph = args[0] if args else kwargs["graph"]
    return {"sources": result.n_sources,
            "component_size": result.component_size,
            "edges_traversed": result.n_sources * 2 * graph.n_edges}


TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "load_experiment_config", "config.load_experiment_config", None),
    (cli, "build_sim_config", "config.build_sim_config", None),
    (cli, "run", "sim.run", _count_run),
    (cli, "synchrony_metrics", "sim.synchrony_metrics", _count_sync),
    (cli, "pool_sweep", "sim.pool_sweep", _count_sweep),
    (sim, "run", "sim.run", _count_run),
    (sim, "pairwise_delays", "sim.pairwise_delays", _count_delays),
    (sim, "synchrony_metrics", "sim.synchrony_metrics", _count_sync),
    (graphs, "sample_graph", "graphs.sample_graph", _count_sample),
    (graphs, "measure_avg_path_length", "graphs.measure_avg_path_length",
     _count_measure),
)

# (metric, unit): every workload reports all of them; a layer the
# workload never calls reads 0.
METRICS = (
    ("sim.run.s", "s"),
    ("sim.run.self_s", "s"),
    ("sim.run.us_per_event", "us"),
    ("sim.run.events", "count"),
    ("sim.run.spikes", "count"),
    ("sim.run.spikes_per_event", "ratio"),
    ("sim.run.deliveries_scheduled", "count"),
    ("sim.pairwise_delays.s", "s"),
    ("sim.pairwise_delays.bytes_computed", "B"),
    ("sim.synchrony_metrics.s", "s"),
    ("sim.synchrony_metrics.spikes", "count"),
    ("sim.pool_sweep.s", "s"),
    ("sim.pool_sweep.self_s", "s"),
    ("sim.pool_sweep.cells", "count"),
    ("graphs.measure_avg_path_length.s", "s"),
    ("graphs.measure_avg_path_length.sources", "count"),
    ("graphs.measure_avg_path_length.component_size", "count"),
    ("graphs.measure_avg_path_length.edges_traversed", "count"),
    ("graphs.measure_avg_path_length.teps", "1/s"),
    ("graphs.sample_graph.s", "s"),
    ("graphs.sample_graph.edges", "count"),
    ("config.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("bench.item.self_s", "s"),
    ("trace.item_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def item_counts(tracer: Tracer, index: int) -> dict[str, float]:
    """Counters of one item, summed per ``layer.counter``."""
    out: dict[str, float] = defaultdict(float)
    for span in tracer.item_spans(index):
        for key, value in span.counts.items():
            out[f"{span.name}.{key}"] += value
    return dict(out)


def layer_metrics(tracer: Tracer, items: list[int]) -> dict[str, float]:
    """Per-item means of span times and counters over the traced items.

    ``trace.overhead_frac`` needs the unwrapped runs, so the caller sets it.
    """
    wanted = set(items)
    selfs = self_times(tracer.spans)
    total: dict[str, float] = defaultdict(float)
    for span, self_s in zip(tracer.spans, selfs):
        if span.item not in wanted:
            continue
        total[f"{span.name}.s"] += span.end - span.start
        total[f"{span.name}.self_s"] += self_s
        for key, value in span.counts.items():
            total[f"{span.name}.{key}"] += value

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        return scale * total[num] / total[den] if total[den] else 0.0

    n = len(items)
    out = {name: total[name] / n for name, _ in METRICS}
    out["sim.run.us_per_event"] = ratio("sim.run.self_s", "sim.run.events", 1e6)
    out["sim.run.spikes_per_event"] = ratio("sim.run.spikes", "sim.run.events")
    out["graphs.measure_avg_path_length.teps"] = ratio(
        "graphs.measure_avg_path_length.edges_traversed",
        "graphs.measure_avg_path_length.s")
    out["config.s"] = (total["config.load_experiment_config.s"]
                       + total["config.build_sim_config.s"]) / n
    out["trace.item_s"] = total[f"{ROOT}.s"] / n
    return out
