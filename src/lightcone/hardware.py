"""Optoelectronic hardware budgets: element sizes, areas, photon power.

The node-area model is affine in degree with a multiplicative routing
overhead, A(k) = (neuron_base_area + k * synapse_area) * (1 + overhead).
It is a calibrated surrogate for a detailed layout: the default profile
is pinned so that a million-node network with two hundred million
synapses packs onto a 300 mm wafer with a few percent of slack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import PLANCK, SPEED_OF_LIGHT
from .errors import check_number, finite_result
from .graphs import PowerLaw, RandomGaussian, avg_degree_random, powerlaw_mean_degree

__all__ = [
    "HardwareProfile",
    "PowerReport",
    "photon_energy",
    "wafer_area",
    "element_width_from_area",
    "synapse_width_from_wafer",
    "node_area",
    "mean_degree",
    "network_area",
    "neuron_power",
    "system_power_density",
]


@dataclass(frozen=True)
class HardwareProfile:
    """Areas, wafer geometry and photon budget of one hardware platform.

    ``cooling_overhead`` is wall watts per device watt (1 for ambient
    operation, ~1000 at liquid-helium temperature).
    """

    synapse_area: float
    neuron_base_area: float
    routing_overhead_fraction: float
    wafer_diameter: float
    wavelength: float
    photons_per_synapse_event: float
    source_efficiency: float
    cooling_overhead: float

    def __post_init__(self):
        check_number("synapse_area", self.synapse_area, gt=0.0)
        check_number("neuron_base_area", self.neuron_base_area, ge=0.0)
        check_number("routing_overhead_fraction",
                     self.routing_overhead_fraction, ge=0.0)
        check_number("wafer_diameter", self.wafer_diameter, gt=0.0)
        check_number("wavelength", self.wavelength, gt=0.0)
        check_number("photons_per_synapse_event",
                     self.photons_per_synapse_event, gt=0.0)
        check_number("source_efficiency", self.source_efficiency,
                     gt=0.0, le=1.0)
        check_number("cooling_overhead", self.cooling_overhead, ge=1.0)

    @classmethod
    def wafer_300mm(cls) -> "HardwareProfile":
        """Calibrated superconducting-photonic profile for a 300 mm wafer.

        Anchors: 2e8 synapses per wafer (effective synapse pitch ~1.9e-5 m
        including routing) and 1e6 neurons + 2e8 synapses filling one
        wafer with ~1.4% slack. Near-infrared signalling at 10 photons
        per synapse event, 1e-3 source efficiency, cryogenic cooling.
        """
        return cls(
            synapse_area=3.15e-10,
            neuron_base_area=3.4e-9,
            routing_overhead_fraction=0.05,
            wafer_diameter=0.3,
            wavelength=1.5e-6,
            photons_per_synapse_event=10,
            source_efficiency=1e-3,
            cooling_overhead=1000.0,
        )


@dataclass(frozen=True)
class PowerReport:
    """Energy and power of one node: per-pulse, device, wall, areal."""

    pulse_energy: float
    device_power: float
    wall_power: float
    power_density: float


def photon_energy(wavelength: float) -> float:
    """Photon energy E = h*c/wavelength, in joules."""
    check_number("wavelength", wavelength, gt=0.0)
    return PLANCK * SPEED_OF_LIGHT / wavelength


@finite_result
def wafer_area(diameter: float) -> float:
    """Usable area of a circular wafer, pi*(D/2)**2."""
    check_number("diameter", diameter, gt=0.0)
    return math.pi * (0.5 * diameter) ** 2


def element_width_from_area(area: float, n_elements: float) -> float:
    """Width of one element when n of them tile ``area``: sqrt(area/n)."""
    check_number("area", area, gt=0.0)
    check_number("n_elements", n_elements, ge=1)
    return math.sqrt(area / n_elements)


def synapse_width_from_wafer(wafer_diameter: float, n_synapses: float) -> float:
    """Effective synapse width when n synapses tile a circular wafer."""
    return element_width_from_area(wafer_area(wafer_diameter), n_synapses)


@finite_result
def node_area(degree: float, profile: HardwareProfile) -> float:
    """Area of one node with ``degree`` synapses (affine plus routing)."""
    check_number("degree", degree, ge=0)
    return ((profile.neuron_base_area + degree * profile.synapse_area)
            * (1.0 + profile.routing_overhead_fraction))


def mean_degree(dist, n_total: float) -> float:
    """Mean degree of a distribution, or a bare number for a fixed degree.

    ``n_total`` must be at least 1 whether or not the law reads it.
    """
    check_number("n_total", n_total, ge=1)
    if isinstance(dist, PowerLaw):
        return powerlaw_mean_degree(dist, n_total)
    if isinstance(dist, RandomGaussian):
        return avg_degree_random(dist.n_total, dist.avg_path_length)
    return float(check_number("degree", dist, ge=0))


@finite_result
def network_area(n_total: float, dist, profile: HardwareProfile) -> float:
    """Total area of n_total nodes: n * E[A(k)] over the degree law.

    A(k) is affine in k, so the expectation is A(mean degree) exactly;
    a bare number for ``dist`` gives the degenerate single-degree case.
    """
    return n_total * node_area(mean_degree(dist, n_total), profile)


@finite_result
def _pulse_energy(degree: float, profile: HardwareProfile) -> float:
    """Drawn energy of one firing that reaches ``degree`` synapses."""
    return (degree * profile.photons_per_synapse_event
            * photon_energy(profile.wavelength) / profile.source_efficiency)


@finite_result
def neuron_power(degree: float, frequency: float,
                 profile: HardwareProfile) -> PowerReport:
    """Communication power of one node firing at ``frequency``.

    Each firing sends ``photons_per_synapse_event`` photons to each of
    ``degree`` synapses; the source efficiency divides the optical pulse
    energy into drawn energy. Power density is referred to the node's
    own footprint.
    """
    check_number("degree", degree, ge=1)
    check_number("frequency", frequency, gt=0.0)
    pulse = _pulse_energy(degree, profile)
    device = pulse * frequency
    return PowerReport(pulse_energy=pulse, device_power=device,
                       wall_power=device * profile.cooling_overhead,
                       power_density=device / node_area(degree, profile))


@finite_result
def system_power_density(n_total: float, dist, mean_rate: float,
                         profile: HardwareProfile) -> float:
    """Device power per unit network area at a mean firing rate, W/m^2.

    The mean firing rate is an explicit duty-cycled parameter, distinct
    from the maximum oscillation frequency the hardware supports. Both
    total power and area scale linearly in n_total, so at a fixed mean
    degree the density does not depend on network size; natural-cutoff
    power laws drift only through their slowly growing mean degree.
    """
    check_number("mean_rate", mean_rate, gt=0.0)
    k = check_number("mean degree", mean_degree(dist, n_total), gt=0.0)
    pulse = _pulse_energy(k, profile)
    area = check_number("network area", network_area(n_total, dist, profile),
                        gt=0.0)
    return n_total * (pulse * mean_rate) / area
