"""Golden-number suite: the calibration scenarios behind the model.

Each check recomputes one headline quantity (human-cortex pool size,
cross-platform pool ratio, photon-budget energetics, wafer synapse
pitch, data-center pool area) and compares it against its reference
value. Tolerances live here, in one manifest: "relative" checks allow a
fractional error, "factor" checks allow a multiplicative band, used
where the reference value itself is an order-of-magnitude figure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .constants import SPEED_OF_LIGHT
from .hardware import HardwareProfile, neuron_power, photon_energy, synapse_width_from_wafer
from .pool import Platform, pool_area, pool_population, pool_ratio

__all__ = ["GoldenCheck", "GoldenResult", "GOLDEN_CHECKS",
           "run_golden_checks"]


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    description: str
    expected: float
    mode: str          # "relative" | "factor"
    tolerance: float
    compute: Callable[[], float]


@dataclass(frozen=True)
class GoldenResult:
    check: GoldenCheck
    value: float
    passed: bool


def _cortex_pool() -> float:
    cortex = Platform(signal_velocity=2.0, element_width=2.4e-6,
                      element_kind="neuron")
    return pool_population(cortex, frequency=6.0, dimension=2)


def _platform_ratio() -> float:
    photonic = Platform(signal_velocity=3.0e8, element_width=1.9e-5,
                        element_kind="synapse")
    biological = Platform(signal_velocity=2.0, element_width=2.4e-8,
                          element_kind="synapse")
    return pool_ratio(photonic, biological, dimension=2)


def _picojoule_pulse() -> float:
    return 1e7 * photon_energy(1.5e-6)


def _megasynapse_neuron_power() -> float:
    profile = HardwareProfile.wafer_300mm()
    return neuron_power(degree=1e6, frequency=1e6, profile=profile).device_power


def _datacenter_pool_area() -> float:
    light = Platform(signal_velocity=SPEED_OF_LIGHT, element_width=1.9e-5,
                     element_kind="synapse")
    return pool_area(light, 1e6)


def _wafer_synapse_width() -> float:
    return synapse_width_from_wafer(0.3, 2.0e8)


GOLDEN_CHECKS: tuple[GoldenCheck, ...] = (
    GoldenCheck(
        name="cortex_pool_population",
        description="planar pool of 2 m/s, 2.4 um elements at 6 Hz",
        expected=1.9e10,
        mode="relative",
        tolerance=0.05,
        compute=_cortex_pool,
    ),
    GoldenCheck(
        name="platform_pool_ratio",
        description="photonic vs biological synapse pool ratio, n=2",
        expected=3.6e10,
        mode="relative",
        tolerance=0.05,
        compute=_platform_ratio,
    ),
    GoldenCheck(
        name="picojoule_pulse",
        description="energy of a 1e7-photon pulse at 1.5 um",
        expected=1e-12,
        mode="factor",
        tolerance=4.0,
        compute=_picojoule_pulse,
    ),
    GoldenCheck(
        name="milliwatt_neuron",
        description="device power of a 1e6-synapse node at 1 MHz",
        expected=1e-3,
        mode="factor",
        tolerance=4.0,
        compute=_megasynapse_neuron_power,
    ),
    GoldenCheck(
        name="datacenter_pool_area",
        description="light-speed pool area at 1 MHz",
        expected=1e5,
        mode="factor",
        tolerance=4.0,
        compute=_datacenter_pool_area,
    ),
    GoldenCheck(
        name="wafer_synapse_width",
        description="synapse width from 2e8 synapses on a 300 mm wafer",
        expected=1.9e-5,
        mode="relative",
        tolerance=0.05,
        compute=_wafer_synapse_width,
    ),
)


def _passes(value: float, check: GoldenCheck) -> bool:
    if check.mode == "relative":
        return abs(value - check.expected) <= check.tolerance * check.expected
    if check.mode == "factor":
        ratio = value / check.expected
        return 1.0 / check.tolerance <= ratio <= check.tolerance
    raise ValueError(f"unknown tolerance mode {check.mode!r}")


def run_golden_checks() -> tuple[GoldenResult, ...]:
    """Evaluate the whole manifest."""
    results = []
    for check in GOLDEN_CHECKS:
        value = check.compute()
        results.append(GoldenResult(check, value, _passes(value, check)))
    return tuple(results)
