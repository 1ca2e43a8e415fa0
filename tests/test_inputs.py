"""One table over the public numeric surface of graphs, hardware, pool and sim.

Every numeric parameter, given NaN, an infinity, a bool or a string,
must raise a ValueError whose message starts with that parameter's name
(an element of a list is named like ``positions[0, 1]``).
"""
import dataclasses
import math

import numpy as np
import pytest

from lightcone import (
    HardwareProfile,
    Platform,
    PoolQuery,
    PowerLaw,
    RandomGaussian,
    SampledGraph,
    SimConfig,
    avg_degree_random,
    element_width_from_area,
    is_integrable,
    max_frequency,
    network_area,
    neuron_power,
    node_area,
    path_length_random,
    photon_energy,
    pool_area,
    pool_diameter,
    pool_population,
    pool_ratio,
    pool_sweep,
    powerlaw_cutoff,
    powerlaw_max_degree,
    powerlaw_mean_degree,
    run,
    sample_graph,
    synchrony_metrics,
    system_power_density,
    wafer_area,
)
from lightcone.errors import check_each
from lightcone.hardware import mean_degree

BAD = [math.nan, math.inf, -math.inf, True, "1"]

WAFER = HardwareProfile.wafer_300mm()
LIGHT = Platform(signal_velocity=3.0e8, element_width=1.9e-5,
                 element_kind="synapse")
CORTEX = Platform(signal_velocity=2.0, element_width=2.4e-8,
                  element_kind="synapse")
LAW = PowerLaw(alpha=2.5)
SIM = dict(positions=[[0.0, 0.0], [0.5, 0.0]], signal_velocity=1.0,
           natural_period=1.0, duration=2.0)
SIM_BASE = SimConfig(**SIM)
TRACE = run(SIM_BASE)
# One edge on two nodes, as CSR arrays.
INDPTR, INDICES = np.array([0, 1, 2]), np.array([1, 0])


def sim_with(**fields):
    return SimConfig(**{**SIM, **fields})


# (parameter name as the message gives it, call with the bad value x)
SURFACE = [
    ("n_total", lambda x: RandomGaussian(x, 2.0)),
    ("avg_path_length", lambda x: RandomGaussian(100, x)),
    ("alpha", lambda x: PowerLaw(x)),
    ("k_min", lambda x: PowerLaw(2.0, k_min=x)),
    ("k_max", lambda x: PowerLaw(2.0, k_max=x)),
    ("n_total", lambda x: avg_degree_random(x, 2.0)),
    ("avg_path_length", lambda x: avg_degree_random(1e4, x)),
    ("n_total", lambda x: path_length_random(x, 10.0)),
    ("avg_degree", lambda x: path_length_random(1e4, x)),
    ("n_total", lambda x: powerlaw_cutoff(LAW, x)),
    ("n_total", lambda x: powerlaw_mean_degree(LAW, x)),
    ("n_total", lambda x: powerlaw_max_degree(LAW, x)),
    ("n_total", lambda x: sample_graph(RandomGaussian(100, 2.0), x, 0)),
    ("wavelength", lambda x: photon_energy(x)),
    ("diameter", lambda x: wafer_area(x)),
    ("area", lambda x: element_width_from_area(x, 10)),
    ("n_elements", lambda x: element_width_from_area(1.0, x)),
    ("degree", lambda x: node_area(x, WAFER)),
    # A bare number in the distribution slot is a fixed degree.
    ("degree", lambda x: mean_degree(x, 1e6)),
    ("n_total", lambda x: mean_degree(200.0, x)),
    ("n_total", lambda x: network_area(x, 200.0, WAFER)),
    ("degree", lambda x: network_area(1e6, x, WAFER)),
    ("degree", lambda x: neuron_power(x, 1e6, WAFER)),
    ("frequency", lambda x: neuron_power(10, x, WAFER)),
    ("n_total", lambda x: system_power_density(x, 200.0, 1e6, WAFER)),
    ("degree", lambda x: system_power_density(1e6, x, 1e6, WAFER)),
    ("mean_rate", lambda x: system_power_density(1e6, 200.0, x, WAFER)),
    *[(f.name, lambda x, f=f: dataclasses.replace(WAFER, **{f.name: x}))
      for f in dataclasses.fields(HardwareProfile)],
    ("signal_velocity", lambda x: Platform(x, 1e-5)),
    ("element_width", lambda x: Platform(3e8, x)),
    ("frequency", lambda x: PoolQuery(x)),
    ("dimension", lambda x: PoolQuery(1.0, x)),
    ("frequency", lambda x: pool_diameter(LIGHT, x)),
    ("frequency", lambda x: pool_area(LIGHT, x)),
    ("dimension", lambda x: pool_ratio(LIGHT, CORTEX, x)),
    ("extent", lambda x: max_frequency(LIGHT, x)),
    ("separation", lambda x: is_integrable(LIGHT, x, 1.0)),
    ("frequency", lambda x: is_integrable(LIGHT, 1.0, x)),
    *[(name, lambda x, name=name: sim_with(**{name: x}))
      for name in ("signal_velocity", "natural_period", "duration",
                   "coupling_strength", "refractory_fraction",
                   "lock_threshold", "max_events", "seed")],
    ("positions", lambda x: sim_with(positions=[[0.0, 0.0], [0.5, x]])),
    ("initial_phases", lambda x: sim_with(initial_phases=[0.0, x])),
    ("diameters", lambda x: pool_sweep(SIM_BASE, [1.0, x], [0])),
    ("seeds", lambda x: pool_sweep(SIM_BASE, [1.0], [0, x])),
    ("lock_threshold", lambda x: synchrony_metrics(TRACE, lock_threshold=x)),
    ("window", lambda x: synchrony_metrics(TRACE, window=x)),
    ("n_nodes", lambda x: SampledGraph(x, INDPTR, INDICES, seed=0)),
    ("indptr", lambda x: SampledGraph(2, x, INDICES, seed=0)),
    ("indices", lambda x: SampledGraph(2, INDPTR, x, seed=0)),
]


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("name, call", SURFACE,
                         ids=[f"{i}-{name}" for i, (name, _) in
                              enumerate(SURFACE)])
def test_bad_number_rejected_by_name(name, call, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value).split(" ")[0].split("[")[0] == name


@pytest.mark.parametrize("dtype", ["float16", "float32", "float64"])
@pytest.mark.parametrize("bad, bounds", [
    (math.nan, {}), (-math.inf, {}), (1.5, {"le": 1.0}), (0.0, {"gt": 0.0}),
])
def test_float_array_error_names_a_python_float(dtype, bad, bounds):
    # The screened array route boxes only the flagged element, and its
    # message must match the element-by-element route's byte for byte.
    values = np.array([[0.5, 0.25], [bad, 0.75]], dtype=dtype)
    messages = []
    for given in (values, values.tolist()):
        with pytest.raises(ValueError) as info:
            check_each("positions", given, **bounds)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("positions[1, 0] must be a finite number")
    assert "np." not in messages[0]


def test_valid_csr_accepted():
    graph = SampledGraph(2, INDPTR, INDICES, seed=0)
    assert graph.n_edges == 1
    assert SampledGraph(0, np.array([0]), np.array([], dtype=int),
                        seed=0).n_edges == 0


# (field the message names, n_nodes, indptr, indices): not a CSR of
# n_nodes rows.
BAD_CSR = [
    ("n_nodes", -1, np.array([0]), np.array([], dtype=int)),
    ("indptr", 2, [0, 1, 2], INDICES),  # a list, not an array
    ("indptr", 2, np.array([0.0, 1.0, 2.0]), INDICES),
    ("indptr", 2, np.array([[0, 1, 2]]), INDICES),
    ("indptr", 2, np.array([0, 2]), INDICES),  # n_nodes entries
    ("indptr", 2, np.array([0, 1, 2, 2]), INDICES),  # n_nodes + 2
    ("indptr", 2, np.array([1, 1, 2]), INDICES),  # starts past 0
    ("indptr", 2, np.array([0, 1, 1]), INDICES),  # ends before len(indices)
    ("indptr", 2, np.array([0, 1, 3]), INDICES),  # ends past it
    ("indptr", 2, np.array([0, 3, 2]), INDICES),  # decreases
    ("indices", 2, INDPTR, np.array([1.0, 0.0])),
    ("indices", 2, INDPTR, np.array([1, 2])),  # = n_nodes
    ("indices", 2, INDPTR, np.array([-1, 0])),
]


@pytest.mark.parametrize("name, n_nodes, indptr, indices", BAD_CSR,
                         ids=[f"{i}-{row[0]}" for i, row in
                              enumerate(BAD_CSR)])
def test_bad_csr_rejected_by_name(name, n_nodes, indptr, indices):
    with pytest.raises(ValueError) as info:
        SampledGraph(n_nodes, indptr, indices, seed=0)
    assert str(info.value).split(" ")[0] == name


CUTOFF_INPUTS = ("alpha", "k_min", "n_total")
POOL_INPUTS = ("signal_velocity", "element_width", "frequency", "dimension")
RATIO_INPUTS = ("photonic", "biological", "signal_velocity", "element_width",
                "dimension")
TINY_WIDTH = Platform(3.0e8, 1e-200, element_kind="synapse")

# (call, the inputs its message names): finite inputs that carry a
# formula past the float range.
OVERFLOW = [
    (lambda: powerlaw_cutoff(PowerLaw(1.01), 1e8), CUTOFF_INPUTS),
    (lambda: powerlaw_mean_degree(PowerLaw(1.01), 1e8), CUTOFF_INPUTS),
    (lambda: powerlaw_max_degree(PowerLaw(1.01), 1e8), CUTOFF_INPUTS),
    (lambda: network_area(1e8, PowerLaw(1.01), WAFER), CUTOFF_INPUTS),
    (lambda: wafer_area(1e200), ("diameter",)),
    (lambda: pool_population(Platform(3.0e8, 1e-200), PoolQuery(1.0, 3)),
     POOL_INPUTS),
    (lambda: pool_ratio(TINY_WIDTH, CORTEX), RATIO_INPUTS),
    # The divisor w_a * v_b underflows to 0.
    (lambda: pool_ratio(TINY_WIDTH, Platform(1e-200, 1.0, "synapse")),
     RATIO_INPUTS),
]


@pytest.mark.parametrize("call, names", OVERFLOW,
                         ids=[f"{i}-{names[0]}" for i, (_, names) in
                              enumerate(OVERFLOW)])
def test_result_past_the_float_range_rejected_naming_inputs(call, names):
    with pytest.raises(ValueError, match="exceeds the float range") as info:
        call()
    for name in names:
        assert f"{name}=" in str(info.value)


def test_explicit_k_max_caps_a_natural_cutoff_past_the_float_range():
    assert powerlaw_max_degree(PowerLaw(1.01, k_max=100.0), 1e8) == 100.0
