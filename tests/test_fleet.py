"""Fleet tests: device validation, array views, budget scaling, rate-matrix
invariants, and the per-round stochastic samplers."""

from __future__ import annotations

import numpy as np
import pytest

from resplan.fleet import (
    DeviceSpec,
    EnergyParams,
    Fleet,
    RateMatrix,
    RequestBatch,
    sample_rates,
    sample_requests,
    two_tier_fleet,
)


def small_fleet():
    return Fleet((
        DeviceSpec(1, 1e6, 1e9, 100.0, 1.4e9),
        DeviceSpec(2, 2e6, 2e9, 200.0, 2.8e9),
        DeviceSpec(3, 3e6, 3e9, 300.0, 2.1e9),
    ))


class TestDeviceAndFleet:
    def test_rejects_nonpositive_budgets(self):
        for field in ("memory_cap", "compute_cap", "energy_cap", "mult_rate"):
            kwargs = dict(device_id=1, memory_cap=1.0, compute_cap=1.0,
                          energy_cap=1.0, mult_rate=1.0)
            kwargs[field] = 0.0
            with pytest.raises(ValueError, match=field):
                DeviceSpec(**kwargs)
        with pytest.raises(ValueError, match="device_id"):
            DeviceSpec(0, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_budgets_and_powers_by_name(self, bad):
        for field in ("memory_cap", "compute_cap", "energy_cap", "mult_rate"):
            kwargs = dict(device_id=1, memory_cap=1.0, compute_cap=1.0,
                          energy_cap=1.0, mult_rate=1.0)
            kwargs[field] = bad
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                DeviceSpec(**kwargs)
        for field in ("p_compute", "p_transmit"):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                EnergyParams(**{field: bad})

    def test_ids_must_be_contiguous_from_one(self):
        d1 = DeviceSpec(1, 1.0, 1.0, 1.0, 1.0)
        d3 = DeviceSpec(3, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="contiguous"):
            Fleet((d1, d3))

    def test_array_views_match_devices_and_are_frozen(self):
        fleet = small_fleet()
        assert fleet.n_devices == 3
        np.testing.assert_array_equal(fleet.memory_caps, [1e6, 2e6, 3e6])
        np.testing.assert_array_equal(fleet.compute_caps, [1e9, 2e9, 3e9])
        np.testing.assert_array_equal(fleet.energy_caps, [100.0, 200.0, 300.0])
        np.testing.assert_array_equal(fleet.mult_rates, [1.4e9, 2.8e9, 2.1e9])
        with pytest.raises(ValueError):
            fleet.memory_caps[0] = 5.0

    def test_scaled_touches_only_the_named_budget(self):
        fleet = small_fleet()
        e2 = fleet.scaled(energy=0.5)
        np.testing.assert_array_equal(e2.energy_caps, [50.0, 100.0, 150.0])
        np.testing.assert_array_equal(e2.memory_caps, fleet.memory_caps)
        np.testing.assert_array_equal(e2.compute_caps, fleet.compute_caps)
        np.testing.assert_array_equal(e2.mult_rates, fleet.mult_rates)
        c2 = fleet.scaled(compute=2.0, rate=3.0)
        np.testing.assert_array_equal(c2.compute_caps, [2e9, 4e9, 6e9])
        np.testing.assert_array_equal(c2.mult_rates, [4.2e9, 8.4e9, 6.3e9])
        np.testing.assert_array_equal(c2.memory_caps, fleet.memory_caps)
        np.testing.assert_array_equal(c2.energy_caps, fleet.energy_caps)

    def test_two_tier_fleet_cycles_tier_values(self):
        fleet = two_tier_fleet(5, [10.0, 20.0], [1.0, 2.0], [5.0], [7.0, 8.0])
        np.testing.assert_array_equal(fleet.memory_caps, [10, 20, 10, 20, 10])
        np.testing.assert_array_equal(fleet.compute_caps, [1, 2, 1, 2, 1])
        np.testing.assert_array_equal(fleet.energy_caps, [5, 5, 5, 5, 5])
        np.testing.assert_array_equal(fleet.mult_rates, [7, 8, 7, 8, 7])
        with pytest.raises(ValueError):
            two_tier_fleet(0, [1.0], [1.0], [1.0], [1.0])


class TestRateMatrix:
    def test_rejects_non_square_and_nonpositive_offdiagonal(self):
        with pytest.raises(ValueError, match="square"):
            RateMatrix(np.ones((2, 3)))
        bad = np.ones((3, 3))
        bad[0, 1] = 0.0
        with pytest.raises(ValueError, match="off-diagonal"):
            RateMatrix(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_offdiagonal(self, bad):
        rho = np.ones((3, 3))
        rho[2, 0] = bad
        with pytest.raises(ValueError, match="off-diagonal rates must be finite"):
            RateMatrix(rho)

    def test_diagonal_is_ignored_and_matrix_frozen(self):
        rho = np.full((2, 2), 5.0)
        np.fill_diagonal(rho, 0.0)
        rm = RateMatrix(rho)
        assert rm.rho.shape == (2, 2)
        with pytest.raises(ValueError):
            rm.rho[0, 1] = 1.0


class TestSamplers:
    def test_rates_stay_in_bounds_and_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            rm = sample_rates(n, 10.0, 20.0, rng)
            off = ~np.eye(n, dtype=bool)
            assert (rm.rho[off] >= 10.0).all() and (rm.rho[off] <= 20.0).all()
            np.testing.assert_array_equal(rm.rho, rm.rho.T)
            assert (np.diag(rm.rho) == 0.0).all()

    def test_rates_deterministic_under_seeded_rng(self):
        a = sample_rates(4, 1.0, 2.0, np.random.default_rng(9))
        b = sample_rates(4, 1.0, 2.0, np.random.default_rng(9))
        np.testing.assert_array_equal(a.rho, b.rho)

    def test_single_device_matrix_is_all_zero(self):
        rm = sample_rates(1, 1.0, 2.0, np.random.default_rng(0))
        assert rm.rho.shape == (1, 1) and rm.rho[0, 0] == 0.0

    def test_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            sample_rates(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            sample_rates(2, 2.0, 1.0)
        with pytest.raises(ValueError, match="rate_hi=inf"):
            sample_rates(2, 1.0, np.inf)
        with pytest.raises(ValueError, match="rate_lo=nan"):
            sample_rates(2, np.nan, 1.0)

    def test_requests_follow_the_configured_mean(self):
        rng = np.random.default_rng(12)
        draws = [sample_requests(3.0, rng).count for _ in range(4000)]
        assert abs(np.mean(draws) - 3.0) < 0.1
        assert min(draws) >= 0

    def test_request_edge_cases(self):
        assert sample_requests(0.0, np.random.default_rng(0)).count == 0
        with pytest.raises(ValueError):
            sample_requests(-1.0)
        with pytest.raises(ValueError):
            RequestBatch(0, -2)

    def test_energy_params_positive(self):
        assert EnergyParams().p_compute == 8.0
        assert EnergyParams().p_transmit == 10.0
        with pytest.raises(ValueError):
            EnergyParams(p_compute=0.0)
