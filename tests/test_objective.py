"""Objective and feasibility tests: weight validation, the latency
normalizer, accuracy aggregation, the weighted score against the reference
evaluator, and constraint reports with per-device margins."""

from __future__ import annotations

import math

import numpy as np
import pytest

import helpers
import oracles
from resplan.costs import Assignment, evaluate_assignment
from resplan.errors import UnprofiledDropSet
from resplan.fleet import DeviceSpec, EnergyParams, Fleet, sample_rates
from resplan.objective import (
    ObjectiveWeights,
    accuracy_term,
    check_constraints,
    default_latency_ref,
    latency_budget,
    objective_value,
)

REL_TOL = 1e-9


def close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class TestObjectiveWeights:
    def test_weights_must_sum_to_one(self):
        ObjectiveWeights(0.7, 0.3, 1.0)
        with pytest.raises(ValueError, match="must equal 1"):
            ObjectiveWeights(0.7, 0.4, 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            ObjectiveWeights(1.2, -0.2, 1.0)

    def test_reference_and_threshold_ranges(self):
        with pytest.raises(ValueError, match="latency_ref"):
            ObjectiveWeights(0.5, 0.5, 0.0)
        with pytest.raises(ValueError, match="threshold"):
            ObjectiveWeights(0.5, 0.5, 1.0, accuracy_threshold=1.1)

    @pytest.mark.parametrize("field", ["alpha", "beta", "latency_ref",
                                       "accuracy_threshold"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected_by_name(self, field, bad):
        kwargs = dict(alpha=0.5, beta=0.5, latency_ref=1.0, accuracy_threshold=0.5)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ObjectiveWeights(**kwargs)


class TestLatencyReference:
    def test_formula_matches_hand_computation(self, resnet50):
        fleet = Fleet((
            DeviceSpec(1, 1e9, 1e12, 1e6, 1.4e9),
            DeviceSpec(2, 1e9, 1e12, 1e6, 2.8e9),
        ))
        ref = default_latency_ref(resnet50, fleet, rate_lo=7.2e6)
        comp = sum(oracles.block_compute(b) for b in resnet50.blocks) / 1.4e9
        tx = sum(oracles.block_bits(b, 4) for b in resnet50.blocks[:-1]) / 7.2e6
        assert close(ref, comp + tx)

    def test_bounds_single_request_latency(self, resnet50, shipped_profile):
        rng = np.random.default_rng(42)
        fleet = Fleet(tuple(
            DeviceSpec(i + 1, 1e9, 1e12, 1e6, [1.4e9, 2.8e9][i % 2])
            for i in range(6)
        ))
        lo, hi = 7.2e6, 72.2e6
        ref = default_latency_ref(resnet50, fleet, rate_lo=lo)
        drop_sets = [(), (3,), (10, 11)]
        for _ in range(20):
            rates = sample_rates(6, lo, hi, rng)
            x, y = helpers.random_assignment(rng, resnet50, 6, 1,
                                             drop_sets=drop_sets)
            assign = Assignment(np.array(x, dtype=np.uint8),
                                np.array(y, dtype=np.uint8))
            bd = evaluate_assignment(assign, resnet50, fleet, rates, EnergyParams())
            assert bd.total_latency <= ref * (1 + 1e-12)


class TestAccuracyTerm:
    def test_mean_over_requests(self, resnet50, shipped_profile):
        y = np.ones((3, 17), dtype=np.uint8)
        y[1, 2] = 0          # drop block 3: 0.90
        y[2, [9, 10]] = 0    # drop blocks 10, 11: 0.82
        x = np.zeros((3, 1, 17), dtype=np.uint8)
        x[:, 0, :] = y
        acc = accuracy_term(Assignment(x, y), shipped_profile)
        assert close(acc, (0.9473 + 0.90 + 0.82) / 3)

    def test_no_requests_reports_baseline(self, shipped_profile):
        assign = Assignment(np.zeros((0, 1, 17)), np.zeros((0, 17)))
        assert accuracy_term(assign, shipped_profile) == 0.9473

    def test_unprofiled_set_raises_with_request_and_blocks(self, shipped_profile):
        y = np.ones((2, 17), dtype=np.uint8)
        y[1, [2, 9]] = 0  # blocks 3 and 10 are not adjacent: never profiled
        x = np.zeros((2, 1, 17), dtype=np.uint8)
        x[:, 0, :] = y
        with pytest.raises(UnprofiledDropSet) as exc_info:
            accuracy_term(Assignment(x, y), shipped_profile)
        assert exc_info.value.request == 1
        assert exc_info.value.drop_set == frozenset({3, 10})


class TestObjectiveValue:
    def test_combines_normalized_latency_and_accuracy_loss(self):
        w = ObjectiveWeights(0.7, 0.3, latency_ref=2.0)
        assert close(objective_value(4.0, 0.9, 2, w),
                     0.7 * 4.0 / (2 * 2.0) + 0.3 * 0.1)

    def test_zero_requests_drop_the_latency_term(self):
        w = ObjectiveWeights(0.7, 0.3, latency_ref=2.0)
        assert close(objective_value(123.0, 0.9, 0, w), 0.3 * 0.1)

    def test_latency_budget_inverts_the_objective_in_latency(self):
        w = ObjectiveWeights(0.7, 0.3, latency_ref=2.0)
        for latency, accuracy, r in ((4.0, 0.9, 2), (0.5, 0.95, 1), (30.0, 0.6, 5)):
            value = objective_value(latency, accuracy, r, w)
            assert close(latency_budget(value, accuracy, r, w), latency)
        # With no weight on latency, or no requests, only the accuracy term
        # decides: every latency is within budget, or none is.
        for w, r in ((ObjectiveWeights(0.0, 1.0, latency_ref=2.0), 3), (w, 0)):
            value = objective_value(1.0, 0.9, r, w)
            assert latency_budget(value, 0.9, r, w) == math.inf
            assert latency_budget(value, 0.8, r, w) == -math.inf

    def test_full_objective_matches_reference(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            graph = helpers.random_graph(rng, n_blocks=int(rng.integers(3, 6)))
            n_dev = int(rng.integers(1, 4))
            n_req = int(rng.integers(1, 4))
            fleet = helpers.random_fleet(rng, n_dev)
            rates = helpers.random_rates(rng, n_dev)
            drop_sets = helpers.bridgeable_drop_sets(graph)
            profile = helpers.profile_for(graph, drop_sets)
            x, y = helpers.random_assignment(rng, graph, n_dev, n_req, drop_sets)
            assign = Assignment(
                np.array(x, dtype=np.uint8).reshape(n_req, n_dev, graph.n_blocks),
                np.array(y, dtype=np.uint8).reshape(n_req, graph.n_blocks),
            )
            alpha = float(rng.uniform(0.0, 1.0))
            w = ObjectiveWeights(alpha, 1.0 - alpha, latency_ref=3.7)
            bd = evaluate_assignment(assign, graph, fleet, rates, EnergyParams())
            got = objective_value(bd.total_latency, accuracy_term(assign, profile), n_req, w)
            want = oracles.objective(graph, fleet, rates.rho, x, y,
                                     graph.weight_bytes, profile, alpha,
                                     1.0 - alpha, 3.7)
            assert close(got, want)


def tight_instance(rng):
    """A resolved instance plus caps set to 1.1 times its actual use."""
    graph = helpers.random_graph(rng, n_blocks=4)
    n_dev = 2
    fleet0 = helpers.random_fleet(rng, n_dev)
    rates = helpers.random_rates(rng, n_dev)
    drop_sets = helpers.bridgeable_drop_sets(graph)
    profile = helpers.profile_for(graph, drop_sets)
    x, y = helpers.random_assignment(rng, graph, n_dev, 2, drop_sets)
    assign = Assignment(np.array(x, dtype=np.uint8), np.array(y, dtype=np.uint8))
    bd = evaluate_assignment(assign, graph, fleet0, rates, EnergyParams())
    fleet = Fleet(tuple(
        DeviceSpec(
            i + 1,
            memory_cap=max(float(bd.memory_use[i]) * 1.1, 1.0),
            compute_cap=max(float(bd.compute_use[i]) * 1.1, 1.0),
            energy_cap=max(float(bd.energy[i]) * 1.1, 1e-9),
            mult_rate=fleet0.devices[i].mult_rate,
        )
        for i in range(n_dev)
    ))
    w = ObjectiveWeights(0.5, 0.5, latency_ref=10.0, accuracy_threshold=0.0)
    return graph, fleet, rates, profile, assign, w


class TestCheckConstraints:
    def test_feasible_when_budgets_cover_use(self):
        rng = np.random.default_rng(5)
        graph, fleet, rates, profile, assign, w = tight_instance(rng)
        report = check_constraints(assign, graph, fleet, rates, EnergyParams(),
                                   w, profile)
        assert report.feasible
        assert report.violations == ()
        assert (report.memory_margin >= 0).all()
        assert (report.compute_margin >= 0).all()
        assert (report.energy_margin >= 0).all()
        assert report.accuracy is not None
        assert close(report.accuracy_margin, report.accuracy)

    def test_each_budget_violation_names_device_and_resource(self):
        rng = np.random.default_rng(6)
        graph, fleet, rates, profile, assign, w = tight_instance(rng)
        cap_arrays = {"memory_cap": fleet.memory_caps,
                      "compute_cap": fleet.compute_caps,
                      "energy_cap": fleet.energy_caps}
        for resource, field in (("memory", "memory_cap"),
                                ("compute", "compute_cap"),
                                ("energy", "energy_cap")):
            devices = list(fleet.devices)
            # The larger cap marks the device that actually uses the resource
            # (unused devices only got a tiny floor cap).
            use_heavy = int(np.argmax(cap_arrays[field]))
            d = devices[use_heavy]
            kwargs = {
                "device_id": d.device_id,
                "memory_cap": d.memory_cap,
                "compute_cap": d.compute_cap,
                "energy_cap": d.energy_cap,
                "mult_rate": d.mult_rate,
            }
            kwargs[field] = getattr(d, field) / 10.0
            devices[use_heavy] = DeviceSpec(**kwargs)
            report = check_constraints(assign, graph, Fleet(tuple(devices)),
                                       rates, EnergyParams(), w, profile)
            assert not report.feasible
            assert any(f"device {use_heavy + 1} {resource}" in v
                       for v in report.violations)

    def test_accuracy_floor_violation(self):
        rng = np.random.default_rng(7)
        graph, fleet, rates, profile, assign, w = tight_instance(rng)
        strict_w = ObjectiveWeights(0.5, 0.5, latency_ref=10.0,
                                    accuracy_threshold=0.99)
        report = check_constraints(assign, graph, fleet, rates, EnergyParams(),
                                   strict_w, profile)
        assert not report.feasible
        assert any("below threshold" in v for v in report.violations)
        assert report.accuracy_margin < 0

    def test_unprofiled_set_margin_is_minus_threshold(self):
        rng = np.random.default_rng(8)
        graph, drops = None, []
        while not drops:
            graph = helpers.random_graph(rng, n_blocks=5)
            drops = [d for d in helpers.bridgeable_drop_sets(graph) if d]
        fleet = helpers.random_fleet(rng, 2, cap_scale=1e6)
        rates = helpers.random_rates(rng, 2)
        x, y = helpers.random_assignment(rng, graph, 2, 1, drop_sets=[drops[0]])
        assign = Assignment(np.array(x, dtype=np.uint8),
                            np.array(y, dtype=np.uint8))
        bare = helpers.profile_for(graph, [()])
        w2 = ObjectiveWeights(0.5, 0.5, latency_ref=10.0, accuracy_threshold=0.6)
        report = check_constraints(assign, graph, fleet, rates, EnergyParams(),
                                   w2, bare)
        assert report.accuracy is None
        assert report.accuracy_margin == -0.6
        assert not report.feasible

    @pytest.mark.parametrize("hosts,count", [(1, 2), (0, 0)])
    def test_unresolved_plan_raises_naming_request_and_block(self, hosts, count):
        rng = np.random.default_rng(9)
        graph, fleet, rates, profile, assign, w = tight_instance(rng)
        x = np.array(assign.x)
        kept = np.flatnonzero(assign.y[1])[-1]
        x[1, :, kept] = hosts  # every device, or none, hosts one kept block
        with pytest.raises(ValueError, match=(
                f"request 1 keeps block {kept + 1} on {count} hosts, not one "
                r"\(see solvers.repair_allocation\)")):
            check_constraints(Assignment(x, assign.y), graph, fleet, rates,
                              EnergyParams(), w, profile)

    def test_as_dict_is_json_ready(self):
        import json

        rng = np.random.default_rng(11)
        graph, fleet, rates, profile, assign, w = tight_instance(rng)
        report = check_constraints(assign, graph, fleet, rates, EnergyParams(),
                                   w, profile)
        doc = json.loads(json.dumps(report.as_dict()))
        assert set(doc) == {
            "feasible", "violations", "accuracy",
            "accuracy_margin", "memory_margin", "compute_margin", "energy_margin",
        }
        assert len(doc["memory_margin"]) == fleet.n_devices
