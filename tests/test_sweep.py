import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from lightcone import (SampledGraph, SimConfig, pool_sweep, run,
                       synchrony_metrics)


def base_config(n_nodes=16, coupling=0.3, duration=25.0, velocity=1.0,
                period=1.0):
    return SimConfig(
        positions=np.zeros((n_nodes, 2)),
        signal_velocity=velocity,
        natural_period=period,
        duration=duration,
        coupling_strength=coupling,
        refractory_fraction=0.35,
    )


class TestPoolSweep:
    def test_single_cell_gives_one_row(self):
        rows = pool_sweep(base_config(), [0.2], [0])
        assert len(rows) == 1
        row = rows[0]
        assert row.diameter_over_vt == pytest.approx(0.2)
        assert row.stderr == 0.0
        assert len(row.order_parameters) == 1

    def test_rows_follow_requested_diameters(self):
        rows = pool_sweep(base_config(), [0.1, 1.0, 4.0], [0, 1, 2])
        assert [row.diameter_over_vt for row in rows] == pytest.approx(
            [0.1, 1.0, 4.0]
        )
        assert all(len(row.order_parameters) == 3 for row in rows)

    def test_deterministic(self):
        a = pool_sweep(base_config(), [0.1, 2.0], [0, 1])
        b = pool_sweep(base_config(), [0.1, 2.0], [0, 1])
        assert a == b

    def test_tight_pool_beats_distended_pool(self):
        tight, wide = pool_sweep(base_config(), [0.1, 4.0], [0, 1, 2, 3])
        assert tight.mean_order_parameter > wide.mean_order_parameter + 0.3

    def test_non_increasing_beyond_transition(self):
        rows = pool_sweep(base_config(), [0.5, 1.0, 2.0, 4.0],
                          list(range(6)))
        for earlier, later in zip(rows, rows[1:]):
            slack = 2.0 * (earlier.stderr + later.stderr)
            assert later.mean_order_parameter <= (
                earlier.mean_order_parameter + slack
            )

    def test_zero_coupling_null_control_is_diameter_independent(self):
        rows = pool_sweep(base_config(coupling=0.0), [0.1, 1.0, 4.0],
                          [0, 1, 2])
        means = [row.mean_order_parameter for row in rows]
        assert means[0] == means[1] == means[2]
        assert rows[0].order_parameters == rows[2].order_parameters

    @pytest.mark.parametrize("coupling, velocity, period", [
        pytest.param(0.3, 1.0, 1.0, id="0.3"),
        pytest.param(0.0, 1.0, 1.0, id="0.0"),
        pytest.param(0.3, 3.0, 0.7, id="0.3-v3-T0.7"),
        pytest.param(0.0, 3.0, 0.7, id="0.0-v3-T0.7"),
    ])
    def test_order_parameters_match_synchrony_metrics(self, coupling,
                                                      velocity, period):
        # 25 periods against the 10-period default window, so each cell's
        # window is a strict suffix of its trace. Diameters are in v*T;
        # at v = 3, T = 0.7, (3.9 * vT) / vT is not 3.9, so the row check
        # fails if the diameter makes a round trip through metres.
        base = base_config(coupling=coupling, duration=25.0 * period,
                           velocity=velocity, period=period)
        vt = velocity * period
        diameters, seeds = [0.1, 1.0, 3.9], [0, 1, 2]
        rows = pool_sweep(base, diameters, seeds)
        for diameter, row in zip(diameters, rows):
            assert row.diameter_over_vt == diameter
            for seed, value in zip(seeds, row.order_parameters):
                # Each cell's placement and phases, drawn as pool_sweep does.
                rng = np.random.default_rng(seed)
                unit = rng.uniform(0.0, 1.0, size=(16, 2))
                phases = rng.uniform(0.0, period, size=16)
                trace = run(dataclasses.replace(
                    base, positions=unit * (diameter * vt),
                    initial_phases=phases, seed=seed))
                assert trace.times[0] < trace.duration - 10.0 * period
                report = synchrony_metrics(trace)
                assert value == report.order_parameter

    def test_complete_graph_base_matches_all_to_all(self):
        base = base_config()
        adjacency = sp.csr_matrix(np.ones((16, 16)) - np.eye(16))
        complete = SampledGraph(n_nodes=16, indptr=adjacency.indptr,
                                indices=adjacency.indices)
        graph_base = dataclasses.replace(base, topology=complete)
        assert (pool_sweep(graph_base, [0.1, 2.0], [0, 1])
                == pool_sweep(base, [0.1, 2.0], [0, 1]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pool_sweep(base_config(), [], [0])
        with pytest.raises(ValueError):
            pool_sweep(base_config(), [0.1], [])
        with pytest.raises(ValueError):
            pool_sweep(base_config(), [-1.0], [0])

    @pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0)])
    def test_bad_seed_rejected_by_name(self, seed):
        with pytest.raises(ValueError, match=r"^seeds\[1\]"):
            pool_sweep(base_config(), [0.1], [0, seed])

    def test_repeated_seed_rejected_by_name(self):
        # A repeat would run one cell twice and count it twice in the
        # mean and the stderr.
        with pytest.raises(ValueError,
                           match=r"^seeds\[2\] repeats seeds\[0\]$"):
            pool_sweep(base_config(), [0.1], [0, 1, 0])
