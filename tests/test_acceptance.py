"""Acceptance criteria, one test per numbered criterion.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output of a failure) and then asserts. Tolerances are pinned
here and do not drift with implementation details.
"""
import math

import numpy as np
import pytest

from lightcone import (
    EARTH_SURFACE_AREA,
    SPEED_OF_LIGHT,
    Platform,
    PowerLaw,
    RandomGaussian,
    SimConfig,
    avg_degree_random,
    is_integrable,
    max_frequency,
    measure_avg_path_length,
    neuron_power,
    network_area,
    photon_energy,
    pool_area,
    pool_population,
    pool_ratio,
    pool_sweep,
    powerlaw_cutoff,
    powerlaw_max_degree,
    powerlaw_mean_degree,
    run,
    sample_graph,
    sample_powerlaw_degrees,
    synapse_width_from_wafer,
    wafer_area,
)
from lightcone.hardware import HardwareProfile

from test_sim import fire_times, two_node_config, two_node_oracle


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_cortex_pool_calibration():
    cortex = Platform(signal_velocity=2.0, element_width=2.4e-6,
                      element_kind="neuron")
    value = pool_population(cortex, frequency=6.0, dimension=2)
    expected = 1.9e10
    deviation = abs(value - expected) / expected
    report(1, deviation <= 0.05,
           f"pool_population = {value:.4e}, expected {expected:.1e} "
           f"(deviation {deviation:.2%}, tol 5%)")


def test_criterion_02_platform_ratio():
    photonic = Platform(signal_velocity=SPEED_OF_LIGHT, element_width=1.9e-5,
                        element_kind="synapse")
    biological = Platform(signal_velocity=2.0, element_width=2.4e-8,
                          element_kind="synapse")
    value = pool_ratio(photonic, biological, dimension=2)
    exact = (
        (photonic.signal_velocity * biological.element_width)
        / (photonic.element_width * biological.signal_velocity)
    ) ** 2
    near_formula = abs(value - 3.6e10) / 3.6e10 <= 0.02
    near_exact = abs(value - exact) / exact <= 1e-12
    within_factor_4 = 0.25 <= value / 1e10 <= 4.0
    report(2, near_formula and near_exact and within_factor_4,
           f"pool_ratio = {value:.4e} (vs 3.6e10: "
           f"{abs(value - 3.6e10) / 3.6e10:.2%}; vs 1e10: x{value / 1e10:.2f})")


def test_criterion_03_datacenter_and_earth_scales():
    light = Platform(signal_velocity=SPEED_OF_LIGHT, element_width=1.9e-5,
                     element_kind="synapse")
    area = pool_area(light, 1e6)
    area_ok = 7e4 <= area <= 1.3e5
    side = math.sqrt(EARTH_SURFACE_AREA)
    f_max = max_frequency(light, side)
    theta_lo, theta_hi = 4.0, 8.0
    theta_ok = (f_max >= theta_hi
                and is_integrable(light, side, theta_lo)
                and is_integrable(light, side, theta_hi))
    report(3, area_ok and theta_ok,
           f"pool_area(c, 1 MHz) = {area:.4e} m^2; earth-side max frequency "
           f"= {f_max:.2f} Hz, theta band [{theta_lo:g}, {theta_hi:g}] Hz "
           f"integrable: {theta_ok}")


def test_criterion_04_degree_formula():
    k5 = avg_degree_random(1e5, 2.0)
    k6 = avg_degree_random(1e6, 2.0)
    report(4, 370 <= k5 <= 410 and k6 > 1000,
           f"avg_degree_random(1e5, 2) = {k5:.1f} (need [370, 410]); "
           f"avg_degree_random(1e6, 2) = {k6:.1f} (need > 1000)")


def test_criterion_05_empirical_path_length_oracle():
    n = 10**4
    target = 2.5
    kbar = avg_degree_random(n, target)
    dist = RandomGaussian(n_total=n, avg_path_length=target)
    measured = []
    for seed in range(20):
        graph = sample_graph(dist, n, seed=seed)
        measured.append(measure_avg_path_length(graph, source_sample=256).mean)
    mean_measured = float(np.mean(measured))
    # The BFS measurement is the oracle; the formula is judged against it.
    deviation = abs(target - mean_measured) / mean_measured
    report(5, deviation <= 0.10,
           f"k = {kbar:.1f}: measured path length {mean_measured:.4f} over "
           f"20 seeds vs formula {target} (deviation {deviation:.2%}, tol 10%)")


def test_criterion_06_powerlaw_oracles():
    worst_mean = 0.0
    worst_max = 0.0
    for alpha in (1.5, 2.0, 2.5, 3.0):
        dist = PowerLaw(alpha=alpha, k_min=1.0)
        for n in (10**3, 10**4, 10**6):
            closed = powerlaw_mean_degree(dist, n)
            lo, hi = dist.k_min, powerlaw_cutoff(dist, n)
            grid = np.geomspace(lo, hi, 200_001)  # resolves the peak at k_min
            weight = grid ** (-alpha)
            quad = float(np.trapezoid(grid * weight, grid)
                         / np.trapezoid(weight, grid))
            worst_mean = max(worst_mean, abs(closed - quad) / quad)

            analytic_max = powerlaw_max_degree(dist, n)
            maxima = [
                sample_powerlaw_degrees(dist, n, np.random.default_rng(s)).max()
                for s in range(10)
            ]
            gap = abs(math.log10(float(np.median(maxima)))
                      - math.log10(analytic_max))
            worst_max = max(worst_max, gap)
    report(6, worst_mean <= 0.02 and worst_max <= 1.0,
           f"mean-degree vs quadrature worst dev {worst_mean:.2%} (tol 2%); "
           f"max-degree vs sampling worst log10 gap {worst_max:.2f} (tol 1)")


def test_criterion_07_power_golden_numbers():
    pulse = 1e7 * photon_energy(1.5e-6)
    profile = HardwareProfile.wafer_300mm()
    device = neuron_power(1e6, 1e6, profile).device_power
    report(7, 1.2e-12 <= pulse <= 1.4e-12 and 1e-3 <= device <= 2e-3,
           f"1e7-photon pulse = {pulse:.3e} J (need [1.2e-12, 1.4e-12]); "
           f"device power = {device:.3e} W (need [1e-3, 2e-3])")


def test_criterion_08_wafer_calibration():
    width = synapse_width_from_wafer(0.3, 2.0e8)
    profile = HardwareProfile.wafer_300mm()
    area = network_area(1e6, 200.0, profile)
    budget = wafer_area(0.3)
    report(8, 1.8e-5 <= width <= 2.0e-5 and area <= budget,
           f"synapse width = {width:.3e} m (need [1.8e-5, 2e-5]); "
           f"network area = {area:.4e} m^2 <= wafer {budget:.4e} m^2")


def test_criterion_09_simulator_oracle_equivalence():
    worst = 0.0
    for params in (
        dict(distance=0.1, coupling=0.3, refractory=0.35, phases=(0.5, 0.0)),
        dict(distance=0.37, coupling=0.23, refractory=0.31, phases=(0.2, 0.55)),
    ):
        config = two_node_config(params["distance"],
                                 coupling=params["coupling"],
                                 refractory=params["refractory"],
                                 phases=params["phases"], duration=100.0)
        trace = run(config)
        oracle = two_node_oracle(params["distance"], 1.0, 1.0,
                                 params["coupling"], params["refractory"],
                                 params["phases"], 100.0)
        for node in (0, 1):
            engine = fire_times(trace, node)
            reference = np.asarray(oracle[node])
            assert len(engine) == len(reference)
            worst = max(worst, float(np.max(np.abs(engine - reference))))
    report(9, worst < 1e-9,
           f"max |engine - oracle| fire-time gap over 100 periods = "
           f"{worst:.2e} s (tol 1e-9)")


def test_criterion_10_light_cone_property():
    n_nodes, n_seeds = 64, 10
    diameters = [0.1, 0.5, 1.0, 2.0, 4.0]
    seeds = list(range(n_seeds))

    def sweep(coupling):
        base = SimConfig(positions=np.zeros((n_nodes, 2)),
                         signal_velocity=1.0, natural_period=1.0,
                         duration=40.0, coupling_strength=coupling,
                         refractory_fraction=0.35)
        return pool_sweep(base, diameters, seeds)

    coupled = sweep(0.3)
    means = {row.diameter_over_vt: row.mean_order_parameter
             for row in coupled}
    contrast = means[0.1] - means[4.0]

    null = sweep(0.0)
    null_means = [row.mean_order_parameter for row in null]
    null_spread = max(null_means) - min(null_means)

    curve = ", ".join(f"{row.diameter_over_vt:g}: "
                      f"{row.mean_order_parameter:.3f}"
                      for row in coupled)
    report(10, contrast >= 0.3 and null_spread <= 0.05,
           f"order parameter by d/vT {{{curve}}}; contrast "
           f"R(0.1) - R(4) = {contrast:.3f} (need >= 0.3); null-control "
           f"spread = {null_spread:.3f} (need <= 0.05)")
