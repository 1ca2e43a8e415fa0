"""The benchmark's four workloads: inputs from a seed, the timed call, the check.

Each workload turns a seed into a short cycle of items. The timed loop
repeats the cycle, so every item's output must match the digest of its
first run (and the stored reference digest, where the seed has one).
An item's ``call`` is the only part that is timed; ``check`` reads the
outputs afterwards and returns a digest and a list of problems.

The program is reached only through module attributes looked up at call
time (``cli.main``, ``graphs.sample_graph``, ``sim.run``, ...), so the
traced run can wrap those attributes and the untraced run calls the
program unwrapped.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from lightcone import cli, graphs, sim

V = 1.0            # signal velocity, m/s: with T = 1 s a side in m is d/vT
T = 1.0            # natural period, s
COUPLING = 0.3
REFRACTORY = 0.35

DENSE_NODES = 128
DENSE_PERIODS = 10
DENSE_RATIOS = (0.1, 1.0, 4.0)   # d/vT; one item each per cycle

SWEEP_NODES = 64
SWEEP_PERIODS = 3
SWEEP_RATIOS = (0.1, 0.5, 1.0, 2.0, 4.0)
SWEEP_COUPLED_ITEMS = 6           # one sweep seed each; the null item runs all

GNP_NODES = 10**4
GNP_PATH_LENGTH = 2.5
GNP_SOURCES = 256
GNP_GRAPHS = 3
GNP_TOLERANCE = 0.10

SPARSE_NODES = 2000
SPARSE_ALPHA = 2.5
SPARSE_K_MIN = 4.0
SPARSE_PERIODS = 5
SPARSE_GRAPHS = 2


@dataclass(frozen=True)
class Item:
    """One unit of work: ``call`` is timed, ``check`` digests its output."""

    key: str
    spec: bytes                        # the generated inputs, for determinism tests
    call: Callable[[], object]
    check: Callable[[object], tuple[str, list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list[Item]]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def _float(x: float) -> str:
    """Reductions are digested at 12 significant digits, so a change in
    summation order alone does not read as a different answer."""
    return f"{x:.11e}"


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def trace_problems(times: np.ndarray, nodes: np.ndarray, n_nodes: int,
                   refractory: float, tol: float) -> list[str]:
    """Invariants every spike trace keeps: event order, node ids and the
    refractory spacing between two fires of one node."""
    problems = []
    if len(times) != len(nodes):
        return [f"{len(times)} fire times but {len(nodes)} node ids"]
    if len(times) == 0:
        return ["no spikes"]
    if np.any(np.diff(times) < 0):
        problems.append("fire times are not in event order")
    if nodes.min() < 0 or nodes.max() >= n_nodes:
        problems.append("node id out of range")
    order = np.lexsort((times, nodes))
    same = nodes[order][1:] == nodes[order][:-1]
    gaps = np.diff(times[order])[same]
    if len(gaps) and gaps.min() < refractory - tol:
        problems.append(f"refractory spacing broken: gap {gaps.min():.6g}")
    return problems


def _write_config(path: Path, simulation: dict, sweep: dict | None = None) -> bytes:
    doc = {"schema_version": 1, "simulation": simulation}
    if sweep is not None:
        doc["sweep"] = sweep
    text = json.dumps(doc, indent=1, sort_keys=True).encode()
    path.write_bytes(text)
    return text


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _summary(stdout: str) -> tuple[str, dict]:
    """stdout without the run-specific "wrote <path>" lines, and its fields."""
    kept = [ln for ln in stdout.splitlines() if not ln.startswith("wrote ")]
    fields = dict(ln.split(": ", 1) for ln in kept if ": " in ln)
    return "\n".join(kept), fields


# --- sim_dense ---------------------------------------------------------------

def _check_simulate(out: Path, output) -> tuple[str, list[str]]:
    code, stdout = output
    text, fields = _summary(stdout)
    csv = (out / "spike_trace.csv").read_bytes()
    problems = [] if code == 0 else [f"exit code {code}"]
    table = np.loadtxt(io.BytesIO(csv), delimiter=",", skiprows=1, ndmin=2)
    nodes, times = table[:, 0].astype(np.int64), table[:, 1]
    # The CSV holds six significant digits, so allow for rounding.
    problems += trace_problems(times, nodes, DENSE_NODES, REFRACTORY * T, 1e-4)
    if fields.get("spikes") != str(len(times)):
        problems.append("spike count in the summary differs from the CSV")
    if int(fields.get("events", 0)) < len(times):
        problems.append("fewer events than spikes")
    return digest(text, csv), problems


def build_sim_dense(seed: int, workdir: Path) -> list[Item]:
    order = np.random.default_rng([seed, 1]).permutation(len(DENSE_RATIOS))
    config_seeds = _seeds(seed, 11, len(DENSE_RATIOS))
    items = []
    for k, (idx, config_seed) in enumerate(zip(order, config_seeds)):
        ratio = DENSE_RATIOS[idx]
        path = workdir / f"sim_dense_{k}.json"
        out = workdir / f"sim_dense_{k}"
        spec = _write_config(path, {
            "n_nodes": DENSE_NODES, "side_m": ratio * V * T,
            "signal_velocity_m_per_s": V, "natural_period_s": T,
            "duration_s": DENSE_PERIODS * T, "coupling_strength": COUPLING,
            "refractory_fraction": REFRACTORY, "seed": config_seed,
        })
        argv = ["simulate", "--config", str(path), "--out", str(out)]
        items.append(Item(key=f"{k}:d{ratio:g}:s{config_seed}", spec=spec,
                          call=partial(_run_cli, argv),
                          check=partial(_check_simulate, out)))
    return items


# --- sweep_lightcone ---------------------------------------------------------

def _check_sweep(out: Path, null: bool, output) -> tuple[str, list[str]]:
    code, _ = output
    csv = (out / "sweep.csv").read_bytes()
    problems = [] if code == 0 else [f"exit code {code}"]
    lines = csv.decode().splitlines()
    if lines[0] != "diameter_over_vT,mean_order_parameter,stderr":
        problems.append(f"unexpected header {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    ratios = [float(r[0]) for r in rows]
    if not np.allclose(ratios, SWEEP_RATIOS, rtol=1e-5):
        problems.append(f"diameters {ratios} differ from the grid")
    order_params = [float(r[1]) for r in rows]
    if min(order_params) < 0.0 or max(order_params) > 1.0:
        problems.append("order parameter outside [0, 1]")
    # Without coupling the trace cannot depend on geometry, so every
    # diameter must report the same order parameter, digit for digit.
    if null and len({r[1] for r in rows}) != 1:
        problems.append("null control depends on the diameter")
    return digest(csv), problems


def build_sweep_lightcone(seed: int, workdir: Path) -> list[Item]:
    sweep_seeds = _seeds(seed, 2, SWEEP_COUPLED_ITEMS)
    cells = [(COUPLING, [s]) for s in sweep_seeds] + [(0.0, sweep_seeds)]
    items = []
    for k, (coupling, seeds) in enumerate(cells):
        path = workdir / f"sweep_{k}.json"
        out = workdir / f"sweep_{k}"
        spec = _write_config(path, {
            "n_nodes": SWEEP_NODES, "side_m": V * T,
            "signal_velocity_m_per_s": V, "natural_period_s": T,
            "duration_s": SWEEP_PERIODS * T, "coupling_strength": coupling,
            "refractory_fraction": REFRACTORY, "seed": seeds[0],
        }, {"diameters_over_vt": list(SWEEP_RATIOS), "seeds": seeds})
        argv = ["sweep", "--config", str(path), "--out", str(out)]
        items.append(Item(
            key=f"{k}:c{coupling:g}:s{'-'.join(map(str, seeds))}", spec=spec,
            call=partial(_run_cli, argv),
            check=partial(_check_sweep, out, coupling == 0.0)))
    return items


# --- pathlen_gnp -------------------------------------------------------------

def _pathlen_gnp(graph_seed: int):
    dist = graphs.RandomGaussian(n_total=GNP_NODES,
                                 avg_path_length=GNP_PATH_LENGTH)
    graph = graphs.sample_graph(dist, GNP_NODES, graph_seed)
    return graph, graphs.measure_avg_path_length(graph,
                                                 source_sample=GNP_SOURCES)


def _path_problems(result, exact: bool) -> list[str]:
    problems = []
    if result.coverage < graphs.MIN_COVERAGE:
        problems.append(f"largest component covers {result.coverage:.3f}")
    if result.exact != exact:
        problems.append(f"measurement exact={result.exact}, want {exact}")
    if not np.isfinite(result.mean) or result.mean < 1.0:
        problems.append(f"path length {result.mean} is not a path length")
    return problems


def _check_pathlen(output) -> tuple[str, list[str]]:
    graph, result = output
    problems = _path_problems(result, exact=False)
    if result.n_sources != GNP_SOURCES:
        problems.append(f"{result.n_sources} sources, want {GNP_SOURCES}")
    # Criterion 5: the formula's 2.5 within 10% of the measured mean.
    deviation = abs(GNP_PATH_LENGTH - result.mean) / result.mean
    if deviation > GNP_TOLERANCE:
        problems.append(f"path length {result.mean:.4f} is {deviation:.1%} "
                        f"from {GNP_PATH_LENGTH}")
    return digest(graph.edge_array().tobytes(), _float(result.mean),
                  result.n_sources, result.component_size), problems


def build_pathlen_gnp(seed: int, workdir: Path) -> list[Item]:
    return [Item(key=f"{k}:g{graph_seed}", spec=str(graph_seed).encode(),
                 call=partial(_pathlen_gnp, graph_seed), check=_check_pathlen)
            for k, graph_seed in enumerate(_seeds(seed, 3, GNP_GRAPHS))]


# --- sim_sparse --------------------------------------------------------------

def _sim_sparse(graph_seed: int, positions: np.ndarray, sim_seed: int):
    dist = graphs.PowerLaw(alpha=SPARSE_ALPHA, k_min=SPARSE_K_MIN)
    graph = graphs.sample_graph(dist, SPARSE_NODES, graph_seed)
    path = graphs.measure_avg_path_length(graph, source_sample="all")
    config = sim.SimConfig(
        positions=positions, signal_velocity=V, natural_period=T,
        duration=SPARSE_PERIODS * T, coupling_strength=COUPLING,
        refractory_fraction=REFRACTORY, seed=sim_seed, topology=graph)
    trace = sim.run(config)
    return graph, path, trace, sim.synchrony_metrics(trace,
                                                     window=trace.duration)


def _check_sparse(output) -> tuple[str, list[str]]:
    graph, path, trace, report = output
    problems = _path_problems(path, exact=True)
    if path.n_sources != path.component_size:
        problems.append("exact measurement skipped sources")
    problems += trace_problems(trace.times, trace.nodes, SPARSE_NODES,
                               REFRACTORY * T, 1e-9)
    if trace.n_events < len(trace.times):
        problems.append("fewer events than spikes")
    if not 0.0 <= report.order_parameter <= 1.0:
        problems.append("order parameter outside [0, 1]")
    return digest(graph.edge_array().tobytes(), _float(path.mean),
                  path.n_sources, path.component_size,
                  trace.times.tobytes(), trace.nodes.tobytes(), trace.n_events,
                  _float(report.order_parameter), report.n_spikes), problems


def build_sim_sparse(seed: int, workdir: Path) -> list[Item]:
    rng = np.random.default_rng([seed, 4])
    items = []
    for k in range(SPARSE_GRAPHS):
        graph_seed, sim_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        positions = rng.uniform(0.0, V * T, size=(SPARSE_NODES, 2))
        spec = b"".join([str((graph_seed, sim_seed)).encode(),
                         positions.tobytes()])
        items.append(Item(key=f"{k}:g{graph_seed}:s{sim_seed}", spec=spec,
                          call=partial(_sim_sparse, graph_seed, positions,
                                       sim_seed),
                          check=_check_sparse))
    return items


WORKLOADS = {w.name: w for w in (
    Workload("sim_dense",
             "all-to-all simulate via the CLI: the N-1 heappush fan-out per "
             "fire dominates; d/vT 0.1/1/4 varies heap depth and cascades",
             build_sim_dense),
    Workload("sweep_lightcone",
             "criterion-10 sweep via the CLI: many short cells, coupled and "
             "zero-coupling null items; pool_sweep and synchrony_metrics show",
             build_sweep_lightcone),
    Workload("pathlen_gnp",
             "criterion-5 shape: G(n,p) at 10^4 nodes, 256-source BFS does "
             "nearly all the work and the simulator none",
             build_pathlen_gnp),
    Workload("sim_sparse",
             "power-law graph as run() topology: exact all-source BFS, small "
             "fan-out, and the dense N x N delay matrix sets memory",
             build_sim_sparse),
)}
