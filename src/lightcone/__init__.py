"""Scaling limits of velocity-constrained oscillator networks.

Analytic relations between network size, degree and path length; the
velocity-limited synchronization pool; optoelectronic area and power
budgets; and a discrete-event simulator of spatially embedded
pulse-coupled oscillators that tests the pool-diameter claim
empirically.
"""
from .constants import (
    EARTH_SURFACE_AREA,
    EULER_GAMMA,
    PLANCK,
    SPEED_OF_LIGHT,
    THETA_BAND_HZ,
)
from .errors import ConfigError, DisconnectedGraphError, EventQueueOverflowError
from .graphs import (
    DegreeDistribution,
    PathLengthResult,
    PowerLaw,
    RandomGaussian,
    SampledGraph,
    avg_degree_random,
    measure_avg_path_length,
    path_length_random,
    powerlaw_cutoff,
    powerlaw_max_degree,
    powerlaw_mean_degree,
    sample_graph,
    sample_powerlaw_degrees,
)
from .hardware import (
    HardwareProfile,
    PowerReport,
    element_width_from_area,
    network_area,
    neuron_power,
    node_area,
    photon_energy,
    synapse_width_from_wafer,
    system_power_density,
    wafer_area,
)
from .pool import (
    Platform,
    is_integrable,
    max_frequency,
    pool_area,
    pool_diameter,
    pool_population,
    pool_ratio,
)
from .sim import (
    SimConfig,
    SpikeTrace,
    SweepRow,
    SynchronyReport,
    pairwise_delays,
    pool_sweep,
    run,
    synchrony_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "EARTH_SURFACE_AREA", "EULER_GAMMA", "PLANCK", "SPEED_OF_LIGHT",
    "THETA_BAND_HZ",
    "ConfigError", "DisconnectedGraphError", "EventQueueOverflowError",
    "DegreeDistribution", "PathLengthResult", "PowerLaw", "RandomGaussian",
    "SampledGraph", "avg_degree_random", "measure_avg_path_length",
    "path_length_random", "powerlaw_cutoff", "powerlaw_max_degree",
    "powerlaw_mean_degree", "sample_graph", "sample_powerlaw_degrees",
    "HardwareProfile", "PowerReport", "element_width_from_area",
    "network_area", "neuron_power", "node_area", "photon_energy",
    "synapse_width_from_wafer", "system_power_density", "wafer_area",
    "Platform", "is_integrable", "max_frequency", "pool_area",
    "pool_diameter", "pool_population", "pool_ratio",
    "SimConfig", "SpikeTrace", "SweepRow", "SynchronyReport",
    "pairwise_delays", "pool_sweep", "run", "synchrony_metrics",
]
