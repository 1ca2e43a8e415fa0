import json

import numpy as np
import pytest

from lightcone import ConfigError
from lightcone.config import (
    SCHEMA_VERSION,
    build_hardware_profile,
    build_sim_config,
    build_sweep,
    load_experiment_config,
)


def write_config(tmp_path, payload):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(payload))
    return path


VALID = {
    "schema_version": SCHEMA_VERSION,
    "hardware": {"wavelength_m": 1.3e-6, "cooling_overhead": 1.0},
    "simulation": {
        "n_nodes": 8,
        "side_m": 0.1,
        "signal_velocity_m_per_s": 1.0,
        "natural_period_s": 1.0,
        "duration_s": 5.0,
        "seed": 3,
    },
    "sweep": {"diameters_over_vt": [0.1, 1.0], "seeds": [0, 1]},
}


class TestLoading:
    def test_valid_config_loads(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path, VALID))
        assert config["simulation"]["n_nodes"] == 8
        assert config["sweep"] == VALID["sweep"]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_experiment_config(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_experiment_config(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        payload = dict(VALID, schema_version=99)
        with pytest.raises(ConfigError, match="schema_version"):
            load_experiment_config(write_config(tmp_path, payload))

    def test_missing_schema_version_rejected(self, tmp_path):
        payload = {k: v for k, v in VALID.items() if k != "schema_version"}
        with pytest.raises(ConfigError, match="schema_version"):
            load_experiment_config(write_config(tmp_path, payload))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        payload = dict(VALID, extra_section={})
        with pytest.raises(ConfigError, match="unknown top-level"):
            load_experiment_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("section", ["pool", "graph"])
    def test_removed_sections_rejected_as_unknown(self, tmp_path, section):
        payload = dict(VALID, **{section: {}})
        with pytest.raises(ConfigError, match="unknown top-level"):
            load_experiment_config(write_config(tmp_path, payload))

    def test_boolean_schema_version_rejected(self, tmp_path):
        payload = dict(VALID, schema_version=True)
        with pytest.raises(ConfigError, match="schema_version"):
            load_experiment_config(write_config(tmp_path, payload))

    def test_unknown_nested_key_rejected(self, tmp_path):
        payload = json.loads(json.dumps(VALID))
        payload["simulation"]["typo_key"] = 1
        with pytest.raises(ConfigError, match="unknown keys in section"):
            load_experiment_config(write_config(tmp_path, payload))


class TestBuilders:
    def test_hardware_profile_overrides_defaults(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path, VALID))
        profile = build_hardware_profile(config)
        assert profile.wavelength == 1.3e-6
        assert profile.cooling_overhead == 1.0
        assert profile.wafer_diameter == 0.3  # untouched default

    def test_sim_config_from_side_and_seed(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path, VALID))
        sim = build_sim_config(config)
        assert sim.n_nodes == 8
        assert sim.positions.max() <= 0.1
        again = build_sim_config(config)
        assert np.array_equal(sim.positions, again.positions)

    def test_seed_override_changes_placement(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path, VALID))
        a = build_sim_config(config, seed_override=1)
        b = build_sim_config(config, seed_override=2)
        assert not np.array_equal(a.positions, b.positions)

    def test_negative_seed_override_rejected(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path, VALID))
        with pytest.raises(ConfigError, match="seed"):
            build_sim_config(config, seed_override=-1)

    def test_explicit_positions(self, tmp_path):
        payload = json.loads(json.dumps(VALID))
        payload["simulation"].pop("n_nodes")
        payload["simulation"].pop("side_m")
        payload["simulation"]["positions_m"] = [[0.0, 0.0], [0.25, 0.0]]
        config = load_experiment_config(write_config(tmp_path, payload))
        sim = build_sim_config(config)
        assert sim.n_nodes == 2
        assert sim.positions[1][0] == 0.25

    def test_missing_simulation_section_rejected(self, tmp_path):
        payload = {"schema_version": SCHEMA_VERSION}
        config = load_experiment_config(write_config(tmp_path, payload))
        with pytest.raises(ConfigError, match="simulation"):
            build_sim_config(config)

    def test_missing_required_key_rejected(self, tmp_path):
        payload = json.loads(json.dumps(VALID))
        payload["simulation"].pop("duration_s")
        config = load_experiment_config(write_config(tmp_path, payload))
        with pytest.raises(ConfigError, match="duration_s"):
            build_sim_config(config)

    def test_invalid_parameter_surfaces_as_config_error(self, tmp_path):
        payload = json.loads(json.dumps(VALID))
        payload["simulation"]["coupling_strength"] = 0.9
        config = load_experiment_config(write_config(tmp_path, payload))
        with pytest.raises(ConfigError, match="invalid simulation"):
            build_sim_config(config)

    def test_invalid_hardware_value_names_the_section(self, tmp_path):
        config = load_with(tmp_path, "hardware", "synapse_area_m2", -1)
        with pytest.raises(ConfigError, match=r"^invalid hardware parameters: "
                                              r"synapse_area must be"):
            build_hardware_profile(config)

    def test_ragged_positions_name_the_key(self, tmp_path):
        config = load_with(tmp_path, "simulation", "positions_m",
                           [[0, 0], [1]])
        with pytest.raises(ConfigError,
                           match=r"^simulation\.positions_m rows differ"):
            build_sim_config(config)


def load_with(tmp_path, section, key, value):
    payload = json.loads(json.dumps(VALID))
    payload[section][key] = value
    return load_experiment_config(write_config(tmp_path, payload))


class TestTypes:
    """Wrongly typed values fail with a ConfigError naming section.key."""

    def test_boolean_is_not_a_number(self, tmp_path):
        config = load_with(tmp_path, "simulation", "signal_velocity_m_per_s",
                           True)
        with pytest.raises(ConfigError,
                           match="simulation.signal_velocity_m_per_s"):
            build_sim_config(config)

    def test_string_is_not_a_number(self, tmp_path):
        config = load_with(tmp_path, "simulation", "n_nodes", "4")
        with pytest.raises(ConfigError, match="simulation.n_nodes"):
            build_sim_config(config)

    def test_fractional_node_count_rejected(self, tmp_path):
        config = load_with(tmp_path, "simulation", "n_nodes", 2.7)
        with pytest.raises(ConfigError, match="simulation.n_nodes"):
            build_sim_config(config)

    def test_fractional_seed_rejected(self, tmp_path):
        config = load_with(tmp_path, "simulation", "seed", 1.5)
        with pytest.raises(ConfigError, match="simulation.seed"):
            build_sim_config(config)

    @pytest.mark.parametrize("side", [0.0, -0.1])
    def test_nonpositive_side_rejected(self, tmp_path, side):
        config = load_with(tmp_path, "simulation", "side_m", side)
        with pytest.raises(ConfigError, match="simulation.side_m"):
            build_sim_config(config)

    def test_string_coordinate_rejected(self, tmp_path):
        config = load_with(tmp_path, "simulation", "positions_m",
                           [[0.0, 0.0], [0.25, "0"]])
        with pytest.raises(ConfigError, match=r"simulation.positions_m\[1\]\[1\]"):
            build_sim_config(config)

    def test_boolean_hardware_value_rejected(self, tmp_path):
        config = load_with(tmp_path, "hardware", "wavelength_m", True)
        with pytest.raises(ConfigError, match="hardware.wavelength_m"):
            build_hardware_profile(config)

    def test_fractional_sweep_seeds_rejected(self, tmp_path):
        config = load_with(tmp_path, "sweep", "seeds", [0.5, 1.7])
        with pytest.raises(ConfigError, match="sweep.seeds"):
            build_sweep(config, None, 10)

    def test_boolean_sweep_diameter_rejected(self, tmp_path):
        config = load_with(tmp_path, "sweep", "diameters_over_vt", [True])
        with pytest.raises(ConfigError, match="sweep.diameters_over_vt"):
            build_sweep(config, None, 10)

    def test_string_sweep_diameters_rejected(self, tmp_path):
        config = load_with(tmp_path, "sweep", "diameters_over_vt", "0.1")
        with pytest.raises(ConfigError, match="sweep.diameters_over_vt"):
            build_sweep(config, None, 10)


class TestSweep:
    def test_section_gives_diameters_in_metres_and_seeds(self, tmp_path):
        config = load_with(tmp_path, "simulation",
                           "signal_velocity_m_per_s", 2.0)
        diameters, seeds = build_sweep(config, None, 10)
        # Units of v*T: the section's values as given, not times v = 2.
        assert diameters == [0.1, 1.0]
        assert seeds == [0, 1]

    def test_override_replaces_section_and_seeds_default(self, tmp_path):
        payload = json.loads(json.dumps(VALID))
        payload["sweep"].pop("seeds")
        config = load_experiment_config(write_config(tmp_path, payload))
        diameters, seeds = build_sweep(config, [0.5], 3)
        assert diameters == [0.5]
        assert seeds == [0, 1, 2]

    def test_nonpositive_section_diameter_names_its_key(self, tmp_path):
        config = load_with(tmp_path, "sweep", "diameters_over_vt", [0.1, -1.0])
        with pytest.raises(ConfigError,
                           match=r"^sweep\.diameters_over_vt\[1\] must be"):
            build_sweep(config, None, 10)

    def test_repeated_section_seed_names_its_key(self, tmp_path):
        config = load_with(tmp_path, "sweep", "seeds", [0, 0])
        with pytest.raises(ConfigError,
                           match=r"^sweep\.seeds\[1\] repeats sweep\.seeds\[0\]$"):
            build_sweep(config, None, 10)

    def test_override_diameter_keeps_its_plain_name(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path, VALID))
        with pytest.raises(ConfigError, match=r"^diameters\[1\] must be"):
            build_sweep(config, [0.1, -1.0], 10)

    def test_no_diameters_anywhere_rejected(self, tmp_path):
        payload = {k: v for k, v in VALID.items() if k != "sweep"}
        config = load_experiment_config(write_config(tmp_path, payload))
        with pytest.raises(ConfigError, match="diameters_over_vt"):
            build_sweep(config, None, 10)
