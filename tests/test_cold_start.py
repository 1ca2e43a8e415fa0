"""Commands that sample no graph start without scipy, and graphs never
load ``scipy.sparse.csgraph``.

``lightcone.graphs`` imports scipy inside the functions that build or
search a sparse graph, so importing the package and running any command
that samples no graph never loads it. Sampling loads ``scipy.sparse``
alone: components and distances are computed in numpy, so neither
``scipy.sparse.csgraph`` nor the ``scipy.linalg`` it would bring in
loads. The suite itself imports scipy, so the checks run in fresh
interpreters.
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
                  "after": "scipy" in sys.modules}))
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
    assert report["after"] is True
    assert (tmp_path / "paper_check" / "paper_check.json").exists()
    assert (tmp_path / "simulate" / "spike_trace.csv").exists()


GRAPH_SCRIPT = """
import json
import sys

sys.path.insert(0, sys.argv[1])
import lightcone

graph = lightcone.sample_graph(lightcone.RandomGaussian(10**4, 2.5), 10**4, 0)
result = lightcone.measure_avg_path_length(graph, source_sample=256)
edges = graph.edge_array()
print(json.dumps({"mean": result.mean, "edges": len(edges),
                  "loaded": sorted(m for m in sys.modules
                                   if m.startswith("scipy."))}))
"""


def test_sampling_and_measuring_never_load_csgraph():
    result = subprocess.run([sys.executable, "-c", GRAPH_SCRIPT, SRC],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    # Criterion 5's rule: the formula's 2.5 within 10% of the mean.
    assert abs(report["mean"] - 2.5) <= 0.1 * report["mean"]
    assert report["edges"] > 0
    assert "scipy.sparse" in report["loaded"]
    for module in ("scipy.sparse.csgraph", "scipy.linalg",
                   "scipy.sparse.linalg"):
        assert module not in report["loaded"]
