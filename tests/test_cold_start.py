"""Every command and a criterion-5 sample run the same without scipy.

numpy is the package's only runtime dependency; scipy is a test oracle.
A child interpreter with scipy made unimportable runs every CLI command,
or samples and measures a criterion-5 graph, writes its edges, and
measures it again beside a detached triangle, the route that labels
components. Its
stdout and every file it writes must equal, byte for byte, those of the
same script run with scipy importable, which must not load it either.
The suite itself imports scipy, so both runs are fresh interpreters.
"""
import json
import subprocess
import sys
from pathlib import Path

import lightcone

SRC = str(Path(lightcone.__file__).resolve().parents[1])

SCRIPT = """
import dataclasses
import json
import sys

src, block, part = sys.argv[1:]
if block == "block":
    sys.modules["scipy"] = None  # every scipy import now raises ImportError
    try:
        import scipy.sparse
    except ImportError:
        pass
    else:
        sys.exit("scipy still imports")
sys.path.insert(0, src)
import numpy as np

import lightcone
import lightcone.cli as cli

report = {}
if part == "graph":
    from lightcone import graphs
    labelled = report["labelled"] = []
    components = graphs._components
    graphs._components = lambda g: labelled.append(g.n_nodes) or components(g)
    graph = lightcone.sample_graph(
        lightcone.RandomGaussian(10**4, 2.5), 10**4, 0)
    result = lightcone.measure_avg_path_length(graph, source_sample=256)
    np.save("edges.npy", graph.edge_array())
    report["result"] = dataclasses.asdict(result)
    # Plus a detached triangle: no row is empty, so only the BFS can tell
    # that the graph is disconnected, and then the components are labelled.
    n = graph.n_nodes
    split = lightcone.SampledGraph(
        n + 3,
        np.append(graph.indptr,
                  graph.indptr[-1] + np.array([2, 4, 6], dtype=np.int32)),
        np.append(graph.indices,
                  np.array([n + 1, n + 2, n, n + 2, n, n + 1],
                           dtype=np.int32)))
    report["split"] = dataclasses.asdict(
        lightcone.measure_avg_path_length(split, source_sample=256))
else:
    report["codes"] = [cli.main(args) for args in (
        ["degree", "--random", "--powerlaw", "--out", "degree"],
        ["pool", "--f", "6", "--out", "pool"],
        ["area", "--mode", "network", "--out", "area"],
        ["power", "--n-total", "1e9", "--out", "power"],
        ["simulate", "--config", "sim.json", "--out", "simulate"],
        ["sweep", "--config", "sim.json", "--out", "sweep"],
        ["paper-check", "--out", "paper_check"],
    )]
report["masked"] = "numpy.ma" in sys.modules
report["loaded"] = sorted(
    name for name, module in sys.modules.items()
    if (name == "scipy" or name.startswith("scipy.")) and module is not None)
print(json.dumps(report))
"""

CONFIG = {
    "schema_version": 1,
    "simulation": {
        "n_nodes": 8,
        "side_m": 0.1,
        "signal_velocity_m_per_s": 1.0,
        "natural_period_s": 1.0,
        "duration_s": 4.0,
        "seed": 1,
    },
    "sweep": {"diameters_over_vt": [0.1, 2.0], "seeds": [0, 1]},
}


def run_script(cwd: Path, block: str, part: str) -> tuple[str, dict[str, bytes]]:
    """The script's stdout and the files it leaves in ``cwd``."""
    cwd.mkdir()
    (cwd / "sim.json").write_text(json.dumps(CONFIG))
    result = subprocess.run([sys.executable, "-c", SCRIPT, SRC, block, part],
                            cwd=cwd, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    files = {path.relative_to(cwd).as_posix(): path.read_bytes()
             for path in sorted(cwd.rglob("*")) if path.is_file()}
    return result.stdout, files


def run_blocked_and_importable(tmp_path: Path, part: str
                               ) -> tuple[dict, dict[str, bytes]]:
    """The blocked run's report and files, after checking that the run with
    scipy importable printed and wrote the same bytes."""
    stdout, files = run_script(tmp_path / "blocked", "block", part)
    assert (stdout, files) == run_script(tmp_path / "importable", "allow", part)
    return json.loads(stdout.splitlines()[-1]), files


def test_commands_without_a_graph_never_load_scipy(tmp_path: Path):
    report, files = run_blocked_and_importable(tmp_path, "commands")
    assert report["codes"] == [0] * 7
    # Nor numpy.ma: the commands drop repeats from sorted arrays
    # themselves, where np.unique would load it.
    assert report["masked"] is False
    assert report["loaded"] == []
    for name in ("degree/degree.csv", "pool/pool.csv",
                 "area/network_area.csv", "power/power.csv",
                 "simulate/spike_trace.csv", "sweep/sweep.csv",
                 "paper_check/paper_check.json"):
        assert files.get(name), name


def test_sampling_and_measuring_never_load_csgraph(tmp_path: Path):
    report, files = run_blocked_and_importable(tmp_path, "graph")
    # Criterion 5's rule: the formula's 2.5 within 10% of the mean.
    mean = report["result"]["mean"]
    assert abs(mean - 2.5) <= 0.1 * mean
    # Only the graph with the triangle had its components labelled.
    assert report["labelled"] == [10**4 + 3]
    assert report["split"]["component_size"] == 10**4
    # Dropping repeated sources does not go through np.unique, which
    # loads numpy.ma.
    assert report["masked"] is False
    assert report["loaded"] == []
    assert files.get("edges.npy")
