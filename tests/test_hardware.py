import dataclasses
import math

import numpy as np
import pytest

from lightcone import (
    HardwareProfile,
    PowerLaw,
    RandomGaussian,
    avg_degree_random,
    element_width_from_area,
    network_area,
    neuron_power,
    node_area,
    photon_energy,
    powerlaw_mean_degree,
    sample_powerlaw_degrees,
    synapse_width_from_wafer,
    system_power_density,
    wafer_area,
)

WAFER = HardwareProfile.wafer_300mm()


class TestPhotonEnergy:
    def test_near_infrared_value(self):
        assert photon_energy(1.5e-6) == pytest.approx(1.3242972380992857e-19,
                                                      rel=1e-12)

    def test_halving_wavelength_doubles_energy(self):
        assert photon_energy(0.75e-6) == pytest.approx(2 * photon_energy(1.5e-6))

    def test_ten_million_photons_is_about_a_picojoule(self):
        pulse = 1e7 * photon_energy(1.5e-6)
        assert 1.2e-12 <= pulse <= 1.4e-12

    def test_nonpositive_wavelength_rejected(self):
        with pytest.raises(ValueError):
            photon_energy(0.0)


class TestElementWidths:
    def test_wafer_synapse_width(self):
        width = synapse_width_from_wafer(0.3, 2.0e8)
        assert width == pytest.approx(1.8799712059732504e-05, rel=1e-12)
        assert 1.8e-5 <= width <= 2.0e-5

    def test_cortex_synapse_width_from_area(self):
        width = element_width_from_area(0.095, 1.6e10 * 1e4)
        assert width == pytest.approx(2.4e-8, rel=0.02)

    def test_single_element_takes_whole_wafer(self):
        assert synapse_width_from_wafer(0.3, 1) == pytest.approx(
            np.sqrt(np.pi) * 0.15
        )


class TestNodeArea:
    def test_zero_degree_node_is_base_area(self):
        profile = HardwareProfile(
            synapse_area=1e-10, neuron_base_area=1e-8,
            routing_overhead_fraction=0.0, wafer_diameter=0.3,
            wavelength=1.5e-6, photons_per_synapse_event=10,
            source_efficiency=1e-3, cooling_overhead=1000.0,
        )
        assert node_area(0, profile) == 1e-8

    def test_affine_increment(self):
        k = 1024
        increment = node_area(2 * k, WAFER) - node_area(k, WAFER)
        expected = k * WAFER.synapse_area * (1 + WAFER.routing_overhead_fraction)
        assert increment == pytest.approx(expected, rel=1e-12)

    def test_non_decreasing_in_degree(self):
        areas = [node_area(k, WAFER) for k in (0, 1, 10, 100, 1000)]
        assert all(a <= b for a, b in zip(areas, areas[1:]))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            node_area(-1, WAFER)


class TestNetworkArea:
    def test_calibrated_network_fits_wafer(self):
        assert network_area(1e6, 200.0, WAFER) <= wafer_area(0.3)

    def test_powerlaw_with_mean_200_fits_wafer(self):
        k_min = 200.0 * (1 - 1e-6) / np.log(1e6)
        dist = PowerLaw(alpha=2.0, k_min=k_min)
        assert powerlaw_mean_degree(dist, 1e6) == pytest.approx(200.0, rel=1e-9)
        assert network_area(1e6, dist, WAFER) <= wafer_area(0.3)

    def test_degenerate_distribution_matches_node_area(self):
        assert network_area(1e4, 123.0, WAFER) == pytest.approx(
            1e4 * node_area(123.0, WAFER), rel=1e-12
        )

    def test_random_gaussian_distribution_accepted(self):
        dist = RandomGaussian(n_total=10**5, avg_path_length=2.0)
        k = avg_degree_random(1e5, 2.0)
        assert network_area(1e5, dist, WAFER) == pytest.approx(
            1e5 * node_area(k, WAFER), rel=1e-12
        )

    def test_monotone_in_size(self):
        dist = PowerLaw(alpha=2.5, k_min=2.0)
        assert network_area(1e6, dist, WAFER) > network_area(1e5, dist, WAFER)

    def test_monte_carlo_oracle_within_two_percent(self):
        dist = PowerLaw(alpha=2.5, k_min=1.0)
        rng = np.random.default_rng(42)
        draws = sample_powerlaw_degrees(dist, 10**5, rng)
        mc_mean_area = float(np.mean(
            (WAFER.neuron_base_area + draws * WAFER.synapse_area)
            * (1 + WAFER.routing_overhead_fraction)
        ))
        analytic = network_area(10**4, dist, WAFER) / 10**4
        assert mc_mean_area == pytest.approx(analytic, rel=0.02)


class TestNeuronPower:
    def test_massive_node_at_megahertz_is_about_a_milliwatt(self):
        report = neuron_power(1e6, 1e6, WAFER)
        assert report.device_power == pytest.approx(1.3242972380992858e-3,
                                                    rel=1e-12)
        assert 1e-3 <= report.device_power <= 2e-3

    def test_cryogenic_wall_power(self):
        report = neuron_power(1e6, 1e6, WAFER)
        assert report.wall_power == pytest.approx(1.324, rel=1e-3)
        assert report.wall_power / report.device_power == WAFER.cooling_overhead

    def test_single_photon_floor(self):
        profile = HardwareProfile(
            synapse_area=1e-10, neuron_base_area=0.0,
            routing_overhead_fraction=0.0, wafer_diameter=0.3,
            wavelength=1.5e-6, photons_per_synapse_event=1,
            source_efficiency=1.0, cooling_overhead=1.0,
        )
        report = neuron_power(1, 1.0, profile)
        assert report.device_power == photon_energy(1.5e-6)

    def test_linear_in_fanout(self):
        one = neuron_power(1, 1e6, WAFER).device_power
        k = 2 ** 20
        assert neuron_power(k, 1e6, WAFER).device_power == k * one
        assert neuron_power(777, 1e6, WAFER).device_power == pytest.approx(
            777 * one, rel=1e-12
        )

    def test_invariants(self):
        report = neuron_power(100, 2e7, WAFER)
        assert report.wall_power >= report.device_power
        assert report.pulse_energy > 0 and report.power_density > 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            neuron_power(0, 1e6, WAFER)
        with pytest.raises(ValueError):
            neuron_power(10, 0.0, WAFER)

    @pytest.mark.parametrize("name, degree, frequency", [
        ("degree", math.nan, 1e6),
        ("degree", math.inf, 1e6),
        ("frequency", 10, math.nan),
        ("frequency", 10, math.inf),
    ])
    def test_nonfinite_input_rejected_by_name(self, name, degree, frequency):
        with pytest.raises(ValueError, match=name):
            neuron_power(degree, frequency, WAFER)


class TestSystemPowerDensity:
    def test_watt_scale_network_density(self):
        # Mean rate chosen so the million-node, 2e8-synapse network draws
        # about one watt of device power; the density lands near 10 W/m^2.
        rate = 1.0 / (
            1e6 * 200 * WAFER.photons_per_synapse_event
            * photon_energy(WAFER.wavelength) / WAFER.source_efficiency
        )
        density = system_power_density(1e6, 200.0, rate, WAFER)
        assert 10.0 / 4 <= density <= 10.0 * 4

    def test_exactly_invariant_under_size_scaling(self):
        rate = 1e6
        d1 = system_power_density(1e6, 200.0, rate, WAFER)
        d4 = system_power_density(4e6, 200.0, rate, WAFER)
        assert d1 == d4

    def test_natural_cutoff_nearly_invariant(self):
        dist = PowerLaw(alpha=2.5, k_min=1.0)
        d1 = system_power_density(1e6, dist, 1e6, WAFER)
        d4 = system_power_density(4e6, dist, 1e6, WAFER)
        assert abs(d4 - d1) / d1 < 0.01

    def test_monte_carlo_oracle_within_five_percent(self):
        dist = PowerLaw(alpha=2.5, k_min=1.0)
        rate = 1e6
        rng = np.random.default_rng(42)
        draws = sample_powerlaw_degrees(dist, 10**5, rng)
        per_node_power = (
            draws * WAFER.photons_per_synapse_event
            * photon_energy(WAFER.wavelength) / WAFER.source_efficiency * rate
        )
        per_node_area = (
            (WAFER.neuron_base_area + draws * WAFER.synapse_area)
            * (1 + WAFER.routing_overhead_fraction)
        )
        mc = float(per_node_power.mean() / per_node_area.mean())
        analytic = system_power_density(10**4, dist, rate, WAFER)
        assert mc == pytest.approx(analytic, rel=0.05)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            system_power_density(1e6, 200.0, 0.0, WAFER)


class TestProfileValidation:
    def test_efficiency_above_one_rejected(self):
        with pytest.raises(ValueError):
            HardwareProfile(
                synapse_area=1e-10, neuron_base_area=0.0,
                routing_overhead_fraction=0.0, wafer_diameter=0.3,
                wavelength=1.5e-6, photons_per_synapse_event=10,
                source_efficiency=1.5, cooling_overhead=1000.0,
            )

    @pytest.mark.parametrize("cooling", [math.nan, math.inf])
    def test_nonfinite_cooling_rejected(self, cooling):
        with pytest.raises(ValueError, match="cooling_overhead"):
            dataclasses.replace(WAFER, cooling_overhead=cooling)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [
        "synapse_area", "neuron_base_area", "routing_overhead_fraction",
        "wafer_diameter", "wavelength", "photons_per_synapse_event",
        "source_efficiency",
    ])
    def test_nonfinite_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(WAFER, **{field: value})

    def test_cooling_below_one_rejected(self):
        with pytest.raises(ValueError):
            HardwareProfile(
                synapse_area=1e-10, neuron_base_area=0.0,
                routing_overhead_fraction=0.0, wafer_diameter=0.3,
                wavelength=1.5e-6, photons_per_synapse_event=10,
                source_efficiency=1e-3, cooling_overhead=0.5,
            )
