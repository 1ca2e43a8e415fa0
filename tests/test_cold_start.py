"""scipy loads only when a graph's scipy view is read.

A sampled graph holds its CSR arrays in numpy, and sampling, components,
distances and ``edge_array`` read them with numpy alone, so importing the
package, running any command and sampling and measuring a graph never
load scipy. ``SampledGraph.adjacency``, the view the test oracles read,
imports ``scipy.sparse`` on first use. The suite itself imports scipy,
so the checks run in fresh interpreters.
"""
import json
import subprocess
import sys
from pathlib import Path

import lightcone

SRC = str(Path(lightcone.__file__).resolve().parents[1])

SCRIPT = """
import json
import sys

src, tmp, config = sys.argv[1:]
sys.path.insert(0, src)
import lightcone
import lightcone.cli as cli

codes = [
    cli.main(["paper-check", "--out", tmp + "/paper_check"]),
    cli.main(["degree", "--random", "--out", tmp + "/degree"]),
    cli.main(["pool", "--f", "6", "--out", tmp + "/pool"]),
    cli.main(["simulate", "--config", config, "--out", tmp + "/simulate"]),
    cli.main(["sweep", "--config", config, "--out", tmp + "/sweep"]),
]
before = "scipy" in sys.modules
lightcone.sample_graph(lightcone.RandomGaussian(50, 2.0), 50, 0)
print(json.dumps({"codes": codes, "before": before,
                  "sampled": "scipy" in sys.modules}))
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


def test_commands_without_a_graph_never_load_scipy(tmp_path: Path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(CONFIG))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, SRC, str(tmp_path), str(config)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["before"] is False
    assert report["sampled"] is False
    assert (tmp_path / "paper_check" / "paper_check.json").exists()
    assert (tmp_path / "simulate" / "spike_trace.csv").exists()


GRAPH_SCRIPT = """
import json
import sys

import numpy as np

src, tests = sys.argv[1:]
sys.path.insert(0, src)
import lightcone


def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))


graph = lightcone.sample_graph(lightcone.RandomGaussian(10**4, 2.5), 10**4, 0)
result = lightcone.measure_avg_path_length(graph, source_sample=256)
masked = "numpy.ma" in sys.modules
edges = graph.edge_array()
loaded = scipy_modules()
adjacency = graph.adjacency
viewed = scipy_modules()

sys.path.insert(0, tests)
from pathlen_reference import reference_adjacency

rows, cols = edges.astype(np.int64).T
reference = reference_adjacency(rows, cols, graph.n_nodes)
same = [getattr(adjacency, name).dtype == getattr(reference, name).dtype
        and np.array_equal(getattr(adjacency, name), getattr(reference, name))
        for name in ("indptr", "indices", "data")]
same.append(adjacency.has_canonical_format
            == reference.has_canonical_format)
print(json.dumps({"mean": result.mean, "edges": len(edges), "loaded": loaded,
                  "masked": masked, "viewed": viewed, "same": same}))
"""


def test_sampling_and_measuring_never_load_csgraph():
    result = subprocess.run(
        [sys.executable, "-c", GRAPH_SCRIPT, SRC, str(Path(__file__).parent)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    # Criterion 5's rule: the formula's 2.5 within 10% of the mean.
    assert abs(report["mean"] - 2.5) <= 0.1 * report["mean"]
    assert report["edges"] > 0
    assert report["loaded"] == []
    # Dropping repeated sources does not go through np.unique, which
    # loads numpy.ma.
    assert report["masked"] is False
    # Reading the oracles' view loads scipy.sparse but not its graph
    # routines, and the view equals the frozen COO route's matrix.
    assert "scipy.sparse" in report["viewed"]
    for module in ("scipy.sparse.csgraph", "scipy.linalg",
                   "scipy.sparse.linalg"):
        assert module not in report["viewed"]
    assert report["same"] == [True] * 4
