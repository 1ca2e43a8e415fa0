import contextlib
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcone import cli


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "lightcone", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def parse_csv(text: str):
    lines = [line for line in text.strip().splitlines() if "," in line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


SIM_CONFIG = {
    "schema_version": 1,
    "simulation": {
        "n_nodes": 8,
        "side_m": 0.1,
        "signal_velocity_m_per_s": 1.0,
        "natural_period_s": 1.0,
        "duration_s": 8.0,
        "seed": 1,
    },
    "sweep": {"diameters_over_vt": [0.1, 2.0], "seeds": [0, 1]},
}


def test_help_exits_zero():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "paper-check" in result.stdout


def test_degree_random_includes_the_390_row():
    result = run_cli("degree", "--random", "--path-length", "2",
                     "--format", "csv")
    assert result.returncode == 0
    header, rows = parse_csv(result.stdout)
    assert header == ["n_total", "param", "avg_degree", "max_degree"]
    match = [r for r in rows if r[0] == "100000"]
    assert match, "grid must include n_total = 1e5"
    assert 370 <= float(match[0][2]) <= 410
    assert match[0][3] == ""


def test_degree_powerlaw_blocks_are_ordered():
    result = run_cli("degree", "--powerlaw", "--alpha", "2,2.5,3",
                     "--n-min", "1e4", "--n-max", "1e6", "--format", "csv")
    assert result.returncode == 0
    _, rows = parse_csv(result.stdout)
    by_alpha = {}
    for row in rows:
        by_alpha.setdefault(float(row[1]), {})[int(row[0])] = float(row[2])
    assert sorted(by_alpha) == [2.0, 2.5, 3.0]
    at_million = [by_alpha[a][1000000] for a in (2.0, 2.5, 3.0)]
    assert at_million[0] > at_million[1] > at_million[2]


@pytest.mark.parametrize("command", [["degree", "--random"],
                                     ["area", "--mode", "network"]])
def test_grid_beyond_the_int64_range_prints_exact_sizes(command):
    # Earth-scale element counts pass 1e20, above int64's 9.2e18.
    result = run_cli(*command, "--n-min", "1e18", "--n-max", "1e20",
                     "--format", "csv")
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    _, rows = parse_csv(result.stdout)
    assert rows[0][0] == "1000000000000000000"
    assert rows[-1][0] == "100000000000000000000"


def test_degree_without_mode_is_usage_error():
    result = run_cli("degree")
    assert result.returncode == 2
    assert "error" in result.stderr.lower()


def test_degree_empty_grid_is_usage_error():
    result = run_cli("degree", "--random", "--path-length", "", )
    assert result.returncode == 2


def test_pool_reports_cortex_population():
    result = run_cli("pool", "--v", "2", "--w", "2.4e-6", "--f", "6",
                     "--n", "2")
    assert result.returncode == 0
    assert "1.92901e+10" in result.stdout


def test_pool_sweep_csv_round_trips(tmp_path: Path):
    result = run_cli("pool", "--f-min", "1", "--f-max", "1e6",
                     "--points", "13", "--format", "csv",
                     "--out", str(tmp_path))
    assert result.returncode == 0
    text = (tmp_path / "pool.csv").read_text()
    header, rows = parse_csv(text)
    assert header == ["frequency", "diameter_m", "area_m2", "population"]
    # Re-parsing and re-formatting reproduces the emitted bytes exactly.
    reformatted = [",".join(f"{float(v):.5e}" for v in row) for row in rows]
    original = [line for line in text.strip().splitlines()[1:]]
    assert reformatted == original


# Exact bytes of the pool command's table (with the earth footer) and
# CSV: an area only for a planar pool, a blank area column otherwise.
POOL_BYTES = {
    "planar-table": (
        ("pool", "--f", "6"),
        "frequency    diameter_m   area_m2      population\n"
        "6.00000e+00  4.99654e+07  2.49654e+15  6.91563e+24\n"
        "\n"
        "earth-surface square side (m): 2.25832e+07\n"
        "max integrable frequency at that extent (Hz): 1.32750e+01\n"
        "theta band [4, 8] Hz integrable at earth scale: yes\n"),
    "n3-csv": (
        ("pool", "--f", "1e3", "--n", "3", "--format", "csv"),
        "frequency,diameter_m,area_m2,population\n"
        "1.00000e+03,2.99792e+05,,3.92827e+30\n"),
    "cortex-table": (
        ("pool", "--v", "2", "--w", "2.4e-6", "--f", "6"),
        "frequency    diameter_m   area_m2      population\n"
        "6.00000e+00  3.33333e-01  1.11111e-01  1.92901e+10\n"
        "\n"
        "earth-surface square side (m): 2.25832e+07\n"
        "max integrable frequency at that extent (Hz): 8.85615e-08\n"
        "theta band [4, 8] Hz integrable at earth scale: no\n"),
}


@pytest.mark.parametrize("args, expected", POOL_BYTES.values(),
                         ids=POOL_BYTES.keys())
def test_pool_output_bytes_are_pinned(args, expected):
    result = run_cli(*args)
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout == expected


@pytest.mark.parametrize("args", [
    ("--f", "6", "--f-min", "1", "--f-max", "10"),
    ("--f", "6", "--f-min", "1"),
    ("--f", "6", "--f-max", "10"),
    ("--f-min", "1"),
    (),
])
def test_pool_frequency_flag_mix_is_usage_error(args):
    result = run_cli("pool", *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: give --f, or both --f-min and --f-max\n"


def test_area_node_mode():
    result = run_cli("area", "--mode", "node", "--degrees", "0,10,100",
                     "--format", "csv")
    assert result.returncode == 0
    header, rows = parse_csv(result.stdout)
    assert header == ["degree", "node_area_m2"]
    areas = [float(r[1]) for r in rows]
    assert areas == sorted(areas)


def test_area_network_mode_with_mean_degree():
    result = run_cli("area", "--mode", "network", "--mean-degree", "200",
                     "--n-min", "1e4", "--n-max", "1e6", "--format", "csv")
    assert result.returncode == 0
    header, rows = parse_csv(result.stdout)
    assert header == ["n_total", "network_area_m2"]
    million = [r for r in rows if r[0] == "1000000"]
    assert million and float(million[0][1]) <= 0.0707


def test_power_report_block():
    result = run_cli("power", "--degree", "1e6", "--frequency", "1e6")
    assert result.returncode == 0
    assert "device_power_w" in result.stdout
    assert "1.32430e-03" in result.stdout
    assert "wall_power_w" in result.stdout


def test_simulate_missing_config_is_clean_error(tmp_path: Path):
    out_dir = tmp_path / "results"
    result = run_cli("simulate", "--config", str(tmp_path / "missing.json"),
                     "--out", str(out_dir))
    assert result.returncode == 2
    assert "not found" in result.stderr
    assert not out_dir.exists()  # no partial output


def test_simulate_without_config_flag_is_usage_error():
    result = run_cli("simulate")
    assert result.returncode == 2


def test_simulate_writes_trace_and_summary(tmp_path: Path):
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(SIM_CONFIG))
    out_dir = tmp_path / "results"
    result = run_cli("simulate", "--config", str(config_path),
                     "--out", str(out_dir))
    assert result.returncode == 0
    assert "order_parameter:" in result.stdout
    assert "locked:" in result.stdout
    header, rows = parse_csv((out_dir / "spike_trace.csv").read_text())
    assert header == ["node_id", "fire_time_s"]
    assert len(rows) >= 8
    assert all(float(r[1]) <= 8.0 for r in rows)
    # Deterministic given the config: a second run emits identical bytes.
    again = tmp_path / "again"
    rerun = run_cli("simulate", "--config", str(config_path),
                    "--out", str(again))
    assert rerun.returncode == 0
    assert (again / "spike_trace.csv").read_text() == (
        out_dir / "spike_trace.csv"
    ).read_text()


def test_sweep_emits_expected_columns(tmp_path: Path):
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(SIM_CONFIG))
    result = run_cli("sweep", "--config", str(config_path), "--format", "csv")
    assert result.returncode == 0
    header, rows = parse_csv(result.stdout)
    assert header == ["diameter_over_vT", "mean_order_parameter", "stderr"]
    assert len(rows) == 2
    assert float(rows[0][1]) > float(rows[1][1])


def test_paper_check_passes_and_writes_results(tmp_path: Path):
    result = run_cli("paper-check", "--out", str(tmp_path))
    assert result.returncode == 0
    lines = [l for l in result.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 6
    assert all(l.startswith("PASS") for l in lines)
    payload = json.loads((tmp_path / "paper_check.json").read_text())
    assert payload["all_passed"] is True
    assert len(payload["results"]) == 6
    names = {r["name"] for r in payload["results"]}
    assert "cortex_pool_population" in names
    assert all("tolerance" in r for r in payload["results"])


# Exact bytes of paper-check's report, up to the line naming the file it
# wrote, and of that file.
PAPER_CHECK_STDOUT = (
    "PASS  cortex_pool_population   value=1.92901e+10  expected=1.90000e+10  tol=rel 5%\n"
    "PASS  platform_pool_ratio      value=3.59003e+10  expected=3.60000e+10  tol=rel 5%\n"
    "PASS  picojoule_pulse          value=1.32430e-12  expected=1.00000e-12  tol=factor 4\n"
    "PASS  milliwatt_neuron         value=1.32430e-03  expected=1.00000e-03  tol=factor 4\n"
    "PASS  datacenter_pool_area     value=8.98755e+04  expected=1.00000e+05  tol=factor 4\n"
    "PASS  wafer_synapse_width      value=1.87997e-05  expected=1.90000e-05  tol=rel 5%\n"
    "all checks passed (6/6)\n"
)
PAPER_CHECK_JSON = (
    '{\n'
    '  "schema_version": 1,\n'
    '  "all_passed": true,\n'
    '  "results": [\n'
    '    {\n'
    '      "name": "cortex_pool_population",\n'
    '      "description": "planar pool of 2 m/s, 2.4 um elements at 6 Hz",\n'
    '      "value": 19290123456.79012,\n'
    '      "expected": 19000000000.0,\n'
    '      "tolerance_mode": "relative",\n'
    '      "tolerance": 0.05,\n'
    '      "passed": true\n'
    '    },\n'
    '    {\n'
    '      "name": "platform_pool_ratio",\n'
    '      "description": "photonic vs biological synapse pool ratio, n=2",\n'
    '      "value": 35900277008.31025,\n'
    '      "expected": 36000000000.0,\n'
    '      "tolerance_mode": "relative",\n'
    '      "tolerance": 0.05,\n'
    '      "passed": true\n'
    '    },\n'
    '    {\n'
    '      "name": "picojoule_pulse",\n'
    '      "description": "energy of a 1e7-photon pulse at 1.5 um",\n'
    '      "value": 1.3242972380992858e-12,\n'
    '      "expected": 1e-12,\n'
    '      "tolerance_mode": "factor",\n'
    '      "tolerance": 4.0,\n'
    '      "passed": true\n'
    '    },\n'
    '    {\n'
    '      "name": "milliwatt_neuron",\n'
    '      "description": "device power of a 1e6-synapse node at 1 MHz",\n'
    '      "value": 0.0013242972380992858,\n'
    '      "expected": 0.001,\n'
    '      "tolerance_mode": "factor",\n'
    '      "tolerance": 4.0,\n'
    '      "passed": true\n'
    '    },\n'
    '    {\n'
    '      "name": "datacenter_pool_area",\n'
    '      "description": "light-speed pool area at 1 MHz",\n'
    '      "value": 89875.51787368178,\n'
    '      "expected": 100000.0,\n'
    '      "tolerance_mode": "factor",\n'
    '      "tolerance": 4.0,\n'
    '      "passed": true\n'
    '    },\n'
    '    {\n'
    '      "name": "wafer_synapse_width",\n'
    '      "description": "synapse width from 2e8 synapses on a 300 mm wafer",\n'
    '      "value": 1.8799712059732504e-05,\n'
    '      "expected": 1.9e-05,\n'
    '      "tolerance_mode": "relative",\n'
    '      "tolerance": 0.05,\n'
    '      "passed": true\n'
    '    }\n'
    '  ]\n'
    '}\n'
)


def test_paper_check_output_bytes_are_pinned(tmp_path: Path):
    result = run_cli("paper-check", "--out", str(tmp_path))
    assert result.returncode == 0
    out_file = tmp_path / "paper_check.json"
    assert result.stdout == PAPER_CHECK_STDOUT + f"wrote {out_file}\n"
    assert out_file.read_text() == PAPER_CHECK_JSON


def test_paper_check_without_out_writes_to_the_working_directory(
        tmp_path: Path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["paper-check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == PAPER_CHECK_STDOUT + "wrote paper_check.json\n"
    assert captured.err == ""
    assert (tmp_path / "paper_check.json").read_text() == PAPER_CHECK_JSON


def test_pool_out_writes_the_csv_and_no_footer(tmp_path: Path):
    result = run_cli("pool", "--f", "6", "--out", str(tmp_path))
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout == f"wrote {tmp_path / 'pool.csv'}\n"
    assert (tmp_path / "pool.csv").read_text() == (
        "frequency,diameter_m,area_m2,population\n"
        "6.00000e+00,4.99654e+07,2.49654e+15,6.91563e+24\n")


# Exact bytes of simulate's summary and spike trace for three nodes with
# given positions and phases.
SMALL_SIM_CONFIG = {
    "schema_version": 1,
    "simulation": {
        "positions_m": [[0.0, 0.0], [0.5, 0.0], [0.0, 0.25]],
        "initial_phases_s": [0.0, 0.3, 0.6],
        "signal_velocity_m_per_s": 1.0,
        "natural_period_s": 1.0,
        "duration_s": 3.0,
    },
}
SIMULATE_SUMMARY = (
    "nodes: 3\n"
    "duration_s: 3.00000e+00\n"
    "spikes: 12\n"
    "events: 40\n"
    "order_parameter: 1.23260e-01\n"
    "lock_threshold: 9.00000e-01\n"
    "locked: no\n"
    "convergence_time_s: none\n"
)
SIMULATE_TRACE = (
    "node_id,fire_time_s\n"
    "2,4.00000e-01\n"
    "1,7.00000e-01\n"
    "0,7.00000e-01\n"
    "2,1.10000e+00\n"
    "0,1.35000e+00\n"
    "1,1.40000e+00\n"
    "2,1.80000e+00\n"
    "0,2.05000e+00\n"
    "1,2.10000e+00\n"
    "2,2.50000e+00\n"
    "0,2.75000e+00\n"
    "1,2.80000e+00\n"
)


@pytest.mark.parametrize("mode", ["table", "csv", "out"])
def test_simulate_output_bytes_are_pinned(tmp_path: Path, mode):
    # A table prints the summary alone; CSV follows it with the trace;
    # --out writes the trace to a file and names it, in either format.
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(SMALL_SIM_CONFIG))
    out_dir = tmp_path / "results"
    flags = {"table": (), "csv": ("--format", "csv"),
             "out": ("--out", str(out_dir))}[mode]
    result = run_cli("simulate", "--config", str(config_path), *flags)
    assert result.returncode == 0
    assert result.stderr == ""
    expected = {
        "table": SIMULATE_SUMMARY,
        "csv": SIMULATE_SUMMARY + SIMULATE_TRACE,
        "out": SIMULATE_SUMMARY + f"wrote {out_dir / 'spike_trace.csv'}\n",
    }[mode]
    assert result.stdout == expected
    if mode == "out":
        assert (out_dir / "spike_trace.csv").read_text() == SIMULATE_TRACE
    else:
        assert not out_dir.exists()


def test_degree_csv_round_trip_via_out_dir(tmp_path: Path):
    result = run_cli("degree", "--random", "--path-length", "2,3",
                     "--n-min", "1e3", "--n-max", "1e5",
                     "--out", str(tmp_path))
    assert result.returncode == 0
    text = (tmp_path / "degree.csv").read_text()
    header, rows = parse_csv(text)
    for row in rows:
        assert row[0] == str(int(row[0]))
        reformatted = f"{float(row[2]):.5e}"
        assert reformatted == row[2]


def run_with_simulation(tmp_path: Path, command: str, **simulation):
    payload = json.loads(json.dumps(SIM_CONFIG))
    payload["simulation"].update(simulation)
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(payload))
    return run_cli(command, "--config", str(config_path), "--format", "csv")


def test_fractional_seed_is_clean_input_error(tmp_path: Path):
    result = run_with_simulation(tmp_path, "simulate", seed=1.5)
    assert result.returncode == 2
    assert "simulation.seed" in result.stderr
    assert "Traceback" not in result.stderr


def test_event_budget_overflow_is_clean_input_error(tmp_path: Path):
    result = run_with_simulation(tmp_path, "simulate", max_events=5)
    assert result.returncode == 2
    assert result.stderr.startswith("error: event queue exceeded 5 events")
    assert "Traceback" not in result.stderr


def test_repeated_sweep_seed_is_clean_input_error(tmp_path: Path):
    payload = json.loads(json.dumps(SIM_CONFIG))
    payload["sweep"]["seeds"] = [0, 0, 1]
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(payload))
    result = run_cli("sweep", "--config", str(config_path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: sweep.seeds[1] repeats sweep.seeds[0]\n"


def test_empty_sweep_seeds_is_clean_input_error(tmp_path: Path):
    payload = json.loads(json.dumps(SIM_CONFIG))
    payload["sweep"]["seeds"] = []
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(payload))
    result = run_cli("sweep", "--config", str(config_path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: sweep.seeds must hold at least one seed\n"


@pytest.mark.parametrize("args", [
    ("area", "--degrees", "inf"),
    ("area", "--degrees", "2.7"),
    ("degree", "--random", "--path-length", "nan"),
    ("power", "--degree", "nan"),
    ("power", "--frequency", "inf"),
])
def test_non_finite_or_fractional_number_is_usage_error(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert "error" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("args", [
    ("degree", "--powerlaw", "--alpha", "1.01", "--n-max", "1e8"),
    ("power", "--n-total", "1e8", "--alpha", "1.01"),
    ("pool", "--w", "1e-200", "--f", "1", "--n", "3"),
    ("pool", "--w", "1e-200", "--f-min", "1", "--f-max", "2", "--n", "3"),
    ("power", "--n-total", "10", "--config", "{config}"),
    ("power", "--degree", "1e300", "--frequency", "1e300"),
    ("power", "--n-total", "1e20", "--mean-degree", "1e10", "--rate",
     "1e300"),
    ("area", "--mode", "network", "--n-min", "1e300", "--n-max", "1e300",
     "--mean-degree", "1e300"),
    # The area d**2 overflows while the population (d/w)**2 does not.
    ("pool", "--w", "1e100", "--f", "1e-160"),
    # The power-law normaliser's two terms both underflow to 0.
    ("degree", "--powerlaw", "--k-min", "1e200"),
    ("area", "--mode", "network", "--alpha", "3.99", "--k-min", "1e150"),
    # 10**log10(x) rounds past the largest float.
    ("degree", "--random", "--n-max", "1.7976931348623157e308"),
    ("pool", "--f-min", "1", "--f-max", "1.7976931348623157e308"),
])
def test_result_past_the_float_range_is_usage_error(tmp_path: Path, args):
    config_path = tmp_path / "wafer.json"
    config_path.write_text(json.dumps(
        {"schema_version": 1, "hardware": {"wafer_diameter_m": 1e200}}))
    result = run_cli(*[a.format(config=config_path) for a in args])
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    # One error line and nothing else, such as a numpy overflow warning.
    errors = result.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert "exceeds the float range" in errors[0]


@pytest.mark.parametrize("args", [
    ("degree", "--random", "--seed", "1"),
    ("pool", "--f", "6", "--config", "x.json"),
    ("sweep", "--seed", "1"),
    ("paper-check", "--format", "csv"),
    ("pool", "--f", "6", "--kind", "neuron"),
])
def test_flag_the_subcommand_does_not_read_is_usage_error(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert "unrecognized arguments" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("law", [
    ("--alpha", "2.5", "--k-min", "14.5"),
    ("--mean-degree", "200"),
])
def test_area_and_power_share_the_degree_law(law):
    area = run_cli("area", "--mode", "network", "--n-min", "1e6",
                   "--n-max", "1e6", "--format", "csv", *law)
    power = run_cli("power", "--n-total", "1e6", "--format", "csv", *law)
    assert area.returncode == 0 and power.returncode == 0
    _, area_rows = parse_csv(area.stdout)
    _, power_rows = parse_csv(power.stdout)
    assert area_rows == [["1000000", dict(power_rows)["network_area_m2"]]]


@pytest.mark.parametrize("flag, value, args", [
    ("--points", "0", ("pool", "--f-min", "1", "--f-max", "10")),
    ("--points", "-2", ("pool", "--f-min", "1", "--f-max", "10")),
    ("--per-decade", "0", ("degree", "--random")),
    ("--per-decade", "-5", ("degree", "--random")),
    ("--n", "4", ("pool", "--f", "6")),
    ("--n-seeds", "0", ("sweep", "--config", "{config}")),
    ("--seed", "-1", ("simulate", "--config", "{config}")),
])
def test_bad_whole_number_flag_is_usage_error(tmp_path: Path, flag, value,
                                               args):
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(SIM_CONFIG))
    args = [a.format(config=config_path) for a in args]
    result = run_cli(*args, flag, value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    errors = [l for l in result.stderr.splitlines() if "error:" in l]
    assert len(errors) == 1 and f"argument {flag}:" in errors[0]


def test_one_parser_serves_many_calls_like_fresh_processes(tmp_path: Path,
                                                            capsys,
                                                            monkeypatch):
    # build_parser is cached, so these calls share one parser. A failed
    # parse must leave nothing behind: each call prints and exits exactly
    # as it does in a fresh process.
    monkeypatch.setenv("COLUMNS", "80")
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(SIM_CONFIG))
    calls = [
        ["sweep", "--config", str(config_path), "--seed", "1"],
        ["sweep", "--config", str(config_path), "--format", "csv"],
        ["--help"],
    ]
    cli.build_parser.cache_clear()
    shared = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        shared.append((code, captured.out, captured.err))
    assert cli.build_parser() is cli.build_parser()
    fresh = [run_cli(*argv) for argv in calls]
    assert shared == [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert [code for code, _, _ in shared] == [2, 0, 0]


# Each float flag of the four closed-form commands, drawn from every
# finite float (subnormals included) and, as often, from [0, 10], where
# the exponents and small sizes that the laws accept lie.
FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.floats(min_value=0.0, max_value=10.0))
FLOAT_FLAGS = {
    "degree": ("--n-min", "--n-max", "--k-min", "--k-max", "--alpha",
               "--path-length"),
    "pool": ("--v", "--w"),
    "area": ("--n-min", "--n-max", "--alpha", "--k-min", "--k-max",
             "--mean-degree", "--degrees"),
    "power": ("--degree", "--frequency", "--n-total", "--rate", "--alpha",
              "--k-min", "--mean-degree"),
}
# The float flags a command needs, one group drawn per call: pool takes
# --f alone or the --f-min/--f-max pair. A mix exits 2 before any
# formula runs, which test_pool_frequency_flag_mix_is_usage_error covers.
REQUIRED_FLOATS = {"pool": [("--f",), ("--f-min", "--f-max")]}
# One choice from each group of the other flags. The grids stay small:
# 2 points per decade already span 600 rows from 2 to the largest float.
OTHER_FLAGS = {
    "degree": [("--random", "--powerlaw", "--random --powerlaw"),
               ("--per-decade=1", "--per-decade=2")],
    "pool": [("--n=1", "--n=2", "--n=3"), ("--points=1", "--points=3")],
    "area": [("--mode=node", "--mode=network"),
             ("--per-decade=1", "--per-decade=2")],
    "power": [],
}


@st.composite
def closed_form_argv(draw):
    command = draw(st.sampled_from(sorted(FLOAT_FLAGS)))
    other = [draw(st.sampled_from(group)) for group in OTHER_FLAGS[command]]
    required = draw(st.sampled_from(REQUIRED_FLOATS.get(command, [()])))
    floats = draw(st.fixed_dictionaries(
        dict.fromkeys(required, FINITE),
        optional={flag: FINITE for flag in FLOAT_FLAGS[command]}))
    return [command, *" ".join(other).split(),
            draw(st.sampled_from(("--format=csv", "--format=table"))),
            *(f"{flag}={value!r}" for flag, value in floats.items())]


def printed_numbers(text: str):
    for token in re.split(r"[\s,]+", text):
        try:
            yield float(token)
        except ValueError:
            pass


@settings(max_examples=500, deadline=None)
@given(argv=closed_form_argv())
def test_closed_form_commands_keep_their_exit_codes(argv):
    # In process, so pytest turns a numpy overflow warning into an error.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        assert all(map(math.isfinite, printed_numbers(out.getvalue())))
    else:
        assert code == 2
        errors = err.getvalue().splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), errors
