import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    result = run_cli("pool", "--v", "2", "--w", "2.4e-6", "--kind", "neuron",
                     "--f", "6", "--n", "2")
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
