"""Commands that sample no graph start without scipy.

``lightcone.graphs`` imports scipy inside the functions that build or
search a sparse graph, so importing the package and running any command
that samples no graph never loads it. The suite itself imports scipy,
so the check runs in a fresh interpreter.
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
