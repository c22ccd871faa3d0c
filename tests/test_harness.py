"""Simulation-harness tests: hierarchical round seeding, round execution,
error-round handling, scenario summaries, sweep pairing, and the CSV cell
formats the CLI writes."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from resplan.config import build_scenario, load_config, sweep_variants
from resplan.errors import InfeasibleInstance
from resplan.fleet import sample_rates, sample_requests
from resplan.harness import (
    CSV_COLUMNS,
    MetricsRecord,
    SweepAxis,
    apply_axis_value,
    format_value,
    round_seeds,
    run_round,
    run_scenario,
    summarize,
    sweep,
)
from resplan.solvers import solve_ga

FAST_SOLVER = {"population_size": 10, "generations": 4}


def scenario(**over):
    doc = {
        # Ample compute so no round is provably unsolvable by accident; the
        # error-path tests override budgets downward explicitly.
        "fleet": {"devices": 4, "compute_gmults": [10.0, 10.0]},
        "scenario": {"lam": 1.5, "rounds": 3, "seed": 0},
        "solver": dict(FAST_SOLVER),
    }
    for key, value in over.items():
        doc.setdefault(key, {}).update(value)
    return build_scenario(load_config(doc))


class TestRoundSeeds:
    def test_reproducible_and_round_dependent(self):
        req_a, rate_a, seed_a = round_seeds(7, 2)
        req_b, rate_b, seed_b = round_seeds(7, 2)
        assert seed_a == seed_b
        assert req_a.random() == req_b.random()
        assert rate_a.random() == rate_b.random()
        _, _, seed_c = round_seeds(7, 3)
        _, _, seed_d = round_seeds(8, 2)
        assert len({seed_a, seed_c, seed_d}) == 3

    def test_request_and_rate_streams_are_independent(self):
        req, rate, _ = round_seeds(0, 0)
        assert req.random() != rate.random()


class TestRunRound:
    def test_matches_a_manual_reconstruction(self):
        config = scenario()
        record, result = run_round(config, 1)
        req_rng, rate_rng, solver_seed = round_seeds(config.seed, 1)
        batch = sample_requests(config.lam, req_rng, 1)
        rates = sample_rates(config.fleet.n_devices, config.rate_lo,
                             config.rate_hi, rate_rng, round_index=1)
        redo = solve_ga(config.graph, config.fleet, rates, config.profile,
                        config.weights, config.energy, batch.count,
                        config=replace(config.ga, seed=solver_seed))
        assert record.n_requests == batch.count
        assert record.objective == redo.objective
        assert record.total_latency_s == redo.breakdown.total_latency
        assert record.feasible == redo.feasible
        assert result is not None

    def test_unsolvable_round_becomes_an_error_record(self):
        config = scenario(fleet={"memory_mb": [0.001, 0.001]},
                          scenario={"lam": 6.0})
        record, result = run_round(config, 0)
        assert result is None
        assert record.error is not None and "InfeasibleInstance" in record.error
        assert not record.feasible
        for field in ("avg_accuracy", "total_latency_s", "shared_data_bits",
                      "total_computation_mults", "total_energy_j", "objective"):
            assert math.isnan(getattr(record, field))

    def test_zero_request_rounds_are_trivially_feasible(self):
        config = scenario(scenario={"lam": 0.0})
        record, result = run_round(config, 0)
        assert record.n_requests == 0
        assert record.feasible
        assert record.total_latency_s == 0.0
        assert record.avg_accuracy == config.profile.baseline


class TestRunScenario:
    def test_runs_every_round_in_order(self):
        config = scenario()
        seen = []
        result = run_scenario(config, on_record=lambda label, r:
                              seen.append((label, r.round_index)))
        assert [r.round_index for r in result.records] == [0, 1, 2]
        assert seen == [(config.label, 0), (config.label, 1), (config.label, 2)]
        assert result.summary["rounds"] == 3

    def test_strict_mode_raises_on_the_first_bad_round(self):
        config = scenario(fleet={"memory_mb": [0.001, 0.001]},
                          scenario={"lam": 6.0})
        with pytest.raises(InfeasibleInstance, match="round"):
            run_scenario(config, strict=True)


class TestSummarize:
    def test_aggregates_over_solved_rounds_only(self):
        nan = float("nan")
        records = [
            MetricsRecord(0, 2, 0.9, 4.0, 10.0, 100.0, 5.0, 0.3, True),
            MetricsRecord(1, 3, 0.8, 6.0, 20.0, 200.0, 7.0, 0.5, False),
            MetricsRecord(2, 1, nan, nan, nan, nan, nan, nan, False,
                          error="InfeasibleInstance: no fit"),
        ]
        s = summarize(records)
        assert s["rounds"] == 3
        assert s["solved_rounds"] == 2
        assert s["feasible_rounds"] == 1
        assert s["total_requests"] == 6
        assert s["mean_accuracy"] == pytest.approx(0.85)
        assert s["mean_latency_s"] == pytest.approx(5.0)
        assert s["mean_energy_j"] == pytest.approx(6.0)

    def test_no_solved_rounds_yield_nan_means(self):
        s = summarize([])
        assert s["rounds"] == 0
        assert math.isnan(s["mean_accuracy"])


class TestSweep:
    def test_variants_share_arrivals_and_get_axis_labels(self):
        config = scenario()
        axis = SweepAxis(kind="energy", values=(0.5, 1.0))
        results = sweep(sweep_variants(config, axis))
        assert [r.label for r in results] == ["energy_x0.5", "energy_x1"]
        for rec_a, rec_b in zip(results[0].records, results[1].records):
            assert rec_a.n_requests == rec_b.n_requests
            assert rec_a.round_index == rec_b.round_index

    def test_axis_application_touches_one_parameter(self):
        config = scenario()
        w = apply_axis_value(config, "weights", (0.2, 0.8), "w")
        assert w.weights.alpha == 0.2 and w.weights.beta == 0.8
        assert w.weights.latency_ref == config.weights.latency_ref
        assert w.weights.accuracy_threshold == config.weights.accuracy_threshold
        assert w.seed == config.seed

        lam = apply_axis_value(config, "lam", 4.5, "l")
        assert lam.lam == 4.5 and lam.fleet is config.fleet

        en = apply_axis_value(config, "energy", 0.25, "e")
        np.testing.assert_allclose(en.fleet.energy_caps,
                                   config.fleet.energy_caps * 0.25)
        np.testing.assert_array_equal(en.fleet.compute_caps,
                                      config.fleet.compute_caps)

        comp = apply_axis_value(config, "compute", 2.0, "c")
        np.testing.assert_allclose(comp.fleet.compute_caps,
                                   config.fleet.compute_caps * 2.0)

        rate = apply_axis_value(config, "rate", 3.0, "r")
        np.testing.assert_allclose(rate.fleet.mult_rates,
                                   config.fleet.mult_rates * 3.0)
        with pytest.raises(ValueError, match="unknown sweep kind"):
            apply_axis_value(config, "latency", 1.0, "x")

    def test_axis_validation_and_labels(self):
        with pytest.raises(ValueError, match="sweep kind"):
            SweepAxis(kind="latency", values=(1.0,))
        with pytest.raises(ValueError, match="at least one"):
            SweepAxis(kind="energy", values=())
        with pytest.raises(ValueError, match="pairs"):
            SweepAxis(kind="weights", values=((0.5, 0.4, 0.1),))
        with pytest.raises(ValueError, match="pairs, got 0.5"):
            SweepAxis(kind="weights", values=(0.5,))
        with pytest.raises(ValueError, match="> 0"):
            SweepAxis(kind="energy", values=(0.0,))
        axis = SweepAxis(kind="weights", values=((1.0, 0.0), (0.5, 0.5)))
        assert axis.labels() == ("alpha1_beta0", "alpha0.5_beta0.5")
        assert SweepAxis(kind="lam", values=(0.0, 2.0)).labels() == (
            "lambda0", "lambda2")
        # The rate axis scales compute speed, not link rates.
        assert SweepAxis(kind="rate", values=(0.5, 2.0)).labels() == (
            "speed_x0.5", "speed_x2")

    @pytest.mark.parametrize("kind,value", [
        ("energy", math.nan), ("rate", math.inf), ("compute", -math.inf),
        ("lam", math.inf), ("lam", math.nan), ("weights", (math.nan, 0.5)),
        ("weights", (0.5, math.inf)),
    ])
    def test_axis_rejects_non_finite_values_by_kind(self, kind, value):
        with pytest.raises(ValueError, match=f"{kind} sweep values must be finite"):
            SweepAxis(kind=kind, values=(1.0, value) if kind != "weights" else (value,))

    @pytest.mark.parametrize("pair", [(-1.0, 0.5), (0.5, -0.1), (0.3, 0.3)])
    def test_axis_rejects_negative_or_unnormalized_weights(self, pair):
        with pytest.raises(ValueError, match="weights sweep values must be >= 0 and sum to 1"):
            SweepAxis(kind="weights", values=((0.5, 0.5), pair))

    def test_arrival_rates_stop_at_the_poisson_ceiling(self):
        # numpy's Poisson sampler draws from 9.2e18 and refuses 9.3e18.
        np.random.default_rng(0).poisson(9.2e18)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(9.3e18)
        config = scenario()
        assert replace(config, lam=9.2e18).lam == 9.2e18
        assert SweepAxis(kind="lam", values=(9.2e18,)).values == (9.2e18,)
        for lam in (9.3e18, 1e300):
            with pytest.raises(ValueError, match="lam must be <= 9.22337e"):
                replace(config, lam=lam)
            with pytest.raises(ValueError, match="lam sweep values must be <= 9.22337e"):
                SweepAxis(kind="lam", values=(1.0, lam))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_scenario_rejects_a_non_finite_or_negative_rate(self, lam):
        config = scenario()
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            replace(config, lam=lam)


class TestCsvCells:
    def test_record_rows_follow_the_column_schema(self):
        rec = MetricsRecord(4, 2, 0.9473, 1.25, 3e7, 7.7e9, 42.5, 0.125, True)
        row = rec.csv_row()
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == 4
        assert row[-1] == 1
        assert CSV_COLUMNS[0] == "round" and CSV_COLUMNS[-1] == "feasible"

    def test_format_value_is_deterministic(self):
        assert format_value(True) == "1"
        assert format_value(False) == "0"
        assert format_value(7) == "7"
        assert format_value(np.int64(9)) == "9"
        assert format_value(0.1234567891234) == "0.123456789"
        assert format_value(3e7) == "30000000"
        assert format_value(float("nan")) == "nan"
