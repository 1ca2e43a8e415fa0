"""Experiment configuration files: a schema-versioned JSON document.

All quantities are SI. Unknown top-level sections and unknown keys inside
a section are rejected rather than ignored, so typos fail loudly. Every
number is read through ``_number`` or ``_integer``, which apply the
package's one numeric input rule (``errors.check_number`` and
``check_integer``) and report a breach as a ConfigError naming
``section.key``; a value a library constructor rejects is reported with
its section and the library field.
"""
from __future__ import annotations

import json
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_integer, check_number
from .hardware import HardwareProfile
from .sim import SimConfig, check_sweep_cells

SCHEMA_VERSION = 1

# JSON key -> HardwareProfile field; each key overrides the wafer profile.
_HARDWARE_FIELDS = {
    "synapse_area_m2": "synapse_area",
    "neuron_base_area_m2": "neuron_base_area",
    "routing_overhead_fraction": "routing_overhead_fraction",
    "wafer_diameter_m": "wafer_diameter",
    "wavelength_m": "wavelength",
    "photons_per_synapse_event": "photons_per_synapse_event",
    "source_efficiency": "source_efficiency",
    "cooling_overhead": "cooling_overhead",
}

# JSON key -> SimConfig field for the simulation section's plain numbers;
# an absent optional key takes SimConfig's default.
_SIM_NUMBERS = {
    "signal_velocity_m_per_s": "signal_velocity",
    "natural_period_s": "natural_period",
    "duration_s": "duration",
    "coupling_strength": "coupling_strength",
    "refractory_fraction": "refractory_fraction",
    "lock_threshold": "lock_threshold",
}
_SIM_REQUIRED = ("signal_velocity_m_per_s", "natural_period_s", "duration_s")

_SECTION_KEYS = {
    "hardware": set(_HARDWARE_FIELDS),
    "simulation": set(_SIM_NUMBERS) | {
        "n_nodes", "side_m", "positions_m", "initial_phases_s", "seed",
        "max_events",
    },
    "sweep": {"diameters_over_vt", "seeds"},
}
_TOP_KEYS = {"schema_version"} | set(_SECTION_KEYS)


def _checked(context: str, check, *args, **kwargs):
    """Run a checker or library constructor, raising its ValueError as a
    ConfigError led by ``context``."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}{exc}") from None


def _number(value, name: str, **bounds) -> float:
    """A JSON number as a finite float; ``name`` is its ``section.key``."""
    return float(_checked("", check_number, name, value, **bounds))


def _integer(value, name: str, minimum: int = 0) -> int:
    """A JSON integer no smaller than ``minimum``; ``name`` as above."""
    return _checked("", check_integer, name, value, ge=minimum)


def _each(read, value, name: str) -> list:
    """Apply a reader to every item of a JSON list."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON list, got {value!r}")
    return [read(item, f"{name}[{i}]") for i, item in enumerate(value)]


def load_experiment_config(path: str | Path) -> dict[str, dict]:
    """The file's three sections as dicts, an absent one as ``{}``, after
    validation; raise ConfigError on any defect."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(
            f"unknown top-level keys: {sorted(unknown)}; "
            f"allowed: {sorted(_TOP_KEYS)}"
        )
    version = raw.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    sections = {}
    for name, allowed in _SECTION_KEYS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be a JSON object")
        bad = set(section) - allowed
        if bad:
            raise ConfigError(
                f"unknown keys in section {name!r}: {sorted(bad)}; "
                f"allowed: {sorted(allowed)}"
            )
        sections[name] = section
    return sections


def build_hardware_profile(config: dict[str, dict]) -> HardwareProfile:
    """Hardware profile from the config, defaulting to the wafer profile."""
    section = config["hardware"]
    overrides = {name: _number(section[key], f"hardware.{key}")
                 for key, name in _HARDWARE_FIELDS.items() if key in section}
    return _checked("invalid hardware parameters: ", replace,
                    HardwareProfile.wafer_300mm(), **overrides)


def build_sim_config(config: dict[str, dict],
                     seed_override: int | None = None) -> SimConfig:
    """Simulation setup from the config's ``simulation`` section.

    Positions come either from ``positions_m`` directly or from
    ``n_nodes`` plus ``side_m`` (uniform placement in a square, drawn
    from the seed).
    """
    section = config["simulation"]
    if not section:
        raise ConfigError('config has no "simulation" section')
    for key in _SIM_REQUIRED:
        if key not in section:
            raise ConfigError(f'simulation section is missing "{key}"')
    numbers = {name: _number(section[key], f"simulation.{key}")
               for key, name in _SIM_NUMBERS.items() if key in section}
    if "max_events" in section:
        numbers["max_events"] = _integer(section["max_events"],
                                         "simulation.max_events", minimum=1)
    if seed_override is None:
        seed = _integer(section.get("seed", 0), "simulation.seed")
    else:
        seed = _integer(seed_override, "seed")
    if "positions_m" in section:
        positions = _each(partial(_each, _number), section["positions_m"],
                          "simulation.positions_m")
        if len(set(map(len, positions))) > 1:
            raise ConfigError("simulation.positions_m rows differ in length")
    elif "n_nodes" in section and "side_m" in section:
        n_nodes = _integer(section["n_nodes"], "simulation.n_nodes", minimum=1)
        side = _number(section["side_m"], "simulation.side_m", gt=0.0)
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, side, size=(n_nodes, 2))
    else:
        raise ConfigError(
            'simulation section needs "positions_m" or both '
            '"n_nodes" and "side_m"'
        )
    phases = section.get("initial_phases_s")
    if phases is not None:
        phases = _each(_number, phases, "simulation.initial_phases_s")
    return _checked("invalid simulation parameters: ", SimConfig,
                    positions=positions, initial_phases=phases, seed=seed,
                    **numbers)


def build_sweep(config: dict[str, dict],
                diameters_over_vt: list[float] | None,
                n_seeds: int) -> tuple[list[float], list[int]]:
    """Pool diameters in units of v*T and integer seeds for ``pool_sweep``.

    ``diameters_over_vt``, when given, replaces the ``sweep`` section's
    list of the same name. Seeds default to ``range(n_seeds)`` when the
    section has none.
    """
    section = config["sweep"]
    diameters_name = "diameters"
    if diameters_over_vt is None:
        diameters_name = "sweep.diameters_over_vt"
        diameters_over_vt = _each(_number, section.get("diameters_over_vt", []),
                                  diameters_name)
    if not diameters_over_vt:
        raise ConfigError(
            'give --diameters or a "sweep" section with diameters_over_vt'
        )
    if "seeds" in section:
        seeds = _each(_integer, section["seeds"], "sweep.seeds")
    else:
        seeds = list(range(n_seeds))
    _checked("", check_sweep_cells, diameters_over_vt, seeds, diameters_name,
             "sweep.seeds")
    return diameters_over_vt, seeds
