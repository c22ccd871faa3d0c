"""Cost-engine tests against the reference evaluators in oracles.py.

Every metric the engine reports (latency, per-device energy, shared bits,
executed multiplications, per-device budget use) is recomputed by the naive
nested-loop oracles on randomized small instances, with symmetric and
asymmetric link matrices, and compared at tight relative tolerance.
Separate cases pin the transfer conventions: same-device transfers are
free, and coincident direct and skip edges are one physical transfer.
"""

from __future__ import annotations

import numpy as np
import pytest

import helpers
import oracles
from resplan.costs import Assignment, evaluate_assignment
from resplan.errors import UnbridgeableDrop
from resplan.fleet import EnergyParams, RateMatrix
from resplan.graph import (
    MEMORY_MODES,
    BlockSpec,
    LayerSpec,
    ResNetGraph,
    SkipTopology,
    output_bits,
)

REL_TOL = 1e-9


def close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def random_instance(rng):
    graph = helpers.random_graph(rng, n_blocks=int(rng.integers(3, 7)))
    n_dev = int(rng.integers(1, 5))
    n_req = int(rng.integers(0, 4))
    fleet = helpers.random_fleet(rng, n_dev)
    rates = helpers.random_rates(rng, n_dev)
    x, y = helpers.random_assignment(rng, graph, n_dev, n_req)
    assign = Assignment(np.array(x, dtype=np.uint8).reshape(n_req, n_dev, len(graph.blocks)),
                        np.array(y, dtype=np.uint8).reshape(n_req, len(graph.blocks)))
    return graph, fleet, rates, assign, x, y


class TestAssignment:
    def test_shape_and_binary_validation(self):
        with pytest.raises(ValueError, match="binary"):
            Assignment(np.full((1, 2, 3), 2), np.ones((1, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            Assignment(np.ones((1, 2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="x must be"):
            Assignment(np.ones((2, 3)), np.ones((1, 3)))

    def test_stem_keep_bit_enforced(self):
        y = np.ones((1, 3), dtype=np.uint8)
        y[0, 0] = 0
        with pytest.raises(ValueError, match="stem"):
            Assignment(np.ones((1, 2, 3), dtype=np.uint8), y)

    def test_arrays_are_frozen_copies(self):
        x = np.ones((1, 2, 3), dtype=np.uint8)
        a = Assignment(x, np.ones((1, 3), dtype=np.uint8))
        x[0, 0, 0] = 0
        assert a.x[0, 0, 0] == 1
        with pytest.raises(ValueError):
            a.x[0, 0, 0] = 0

    def test_resolution_and_hosts(self):
        x = np.zeros((1, 2, 3), dtype=np.uint8)
        x[0, 1, :] = 1
        a = Assignment(x, np.ones((1, 3), dtype=np.uint8))
        assert a.is_resolved()
        np.testing.assert_array_equal(a.hosts(0), [1, 1, 1])
        x2 = x.copy()
        x2[0, 0, 1] = 1  # second host for block 2
        b = Assignment(x2, np.ones((1, 3), dtype=np.uint8))
        assert not b.is_resolved()
        y = np.ones((1, 3), dtype=np.uint8)
        y[0, 1] = 0  # dropped blocks need no host
        c = Assignment(np.where(np.arange(3) == 1, 0, x), y)
        assert c.is_resolved()


def assert_matches_oracles(graph, fleet, rates, assign, x, y, mode="inputs"):
    """Every metric of evaluate_assignment against the nested-loop oracles."""
    b = graph.weight_bytes
    params = EnergyParams()
    bd = evaluate_assignment(assign, graph, fleet, rates, params, memory_mode=mode)

    assert close(bd.total_latency,
                 oracles.total_latency(graph, fleet, rates.rho, x, y, b))
    assert close(bd.shared_bits,
                 oracles.shared_data(graph, x, y, b, fleet.n_devices))
    assert close(bd.total_mults, oracles.total_computation(graph, x, y))

    budgets = oracles.device_budgets(graph, fleet, rates.rho, x, y, b, mode,
                                     params.p_compute, params.p_transmit)
    for i, (mem, mults, joules) in enumerate(budgets):
        assert close(bd.memory_use[i], mem)
        assert close(bd.compute_use[i], mults)
        assert close(bd.energy[i], joules)
        assert close(bd.comp_time[i], mults / fleet.devices[i].mult_rate)
    return bd


class TestEngineMatchesOracles:
    def test_all_metrics_on_randomized_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            graph, fleet, rates, assign, x, y = random_instance(rng)
            assert_matches_oracles(graph, fleet, rates, assign, x, y)

    def test_all_metrics_on_asymmetric_links(self):
        # helpers.random_rates symmetrizes, which hides a cost that reads
        # rho[receiver, sender] for rho[sender, receiver]; these do not.
        rng = np.random.default_rng(2025)
        moved = 0
        for _ in range(40):
            graph, fleet, _, assign, x, y = random_instance(rng)
            n = fleet.n_devices
            rates = RateMatrix(rng.uniform(100.0, 10000.0, size=(n, n)))
            bd = assert_matches_oracles(graph, fleet, rates, assign, x, y)
            moved += bd.shared_bits > 0
        assert moved >= 10

    def test_memory_modes_flow_through(self):
        # evaluate_assignment reports resident memory in the memory_mode it
        # is given; the budget oracle counts it in the same mode.
        rng = np.random.default_rng(7)
        for mode in MEMORY_MODES:
            for _ in range(10):
                graph, fleet, rates, assign, x, y = random_instance(rng)
                assert_matches_oracles(graph, fleet, rates, assign, x, y, mode)


def chain_graph():
    """1 -> 2 -> 3 with a span-1 skip edge joining 1 -> 2."""
    blocks = (
        BlockSpec(1, 1, "stem", (LayerSpec("conv", 1, 2, 2, 2, 8),), False, 8),
        BlockSpec(2, 2, "conv_block", (LayerSpec("conv", 1, 2, 2, 2, 8),), False, 8),
        BlockSpec(3, 2, "conv_block", (LayerSpec("conv", 1, 2, 2, 2, 8),), False, 8),
    )
    return ResNetGraph(blocks=blocks, skip=SkipTopology(frozenset({(2, 1)})))


class TestTransferConventions:
    def test_coincident_direct_and_skip_edges_are_one_transfer(self):
        graph = chain_graph()
        fleet = helpers.random_fleet(np.random.default_rng(0), 2)
        rho = np.array([[0.0, 100.0], [100.0, 0.0]])
        rates = RateMatrix(rho)
        x = np.zeros((1, 2, 3), dtype=np.uint8)
        x[0, 0, 0] = 1  # block 1 on device 1
        x[0, 1, 1] = 1  # block 2 on device 2
        x[0, 1, 2] = 1  # block 3 on device 2
        assign = Assignment(x, np.ones((1, 3), dtype=np.uint8))
        bd = evaluate_assignment(assign, graph, fleet, rates, EnergyParams())
        bits1 = output_bits(graph.block(1))
        # One physical 1 -> 2 transfer despite two graph edges; 2 -> 3 is
        # co-located and free.
        assert close(bd.shared_bits, bits1)
        expected_tx = bits1 / 100.0
        assert close(bd.total_latency - bd.comp_time.sum(), expected_tx)
        assert close(bd.tx_time[0], expected_tx)
        assert bd.tx_time[1] == 0.0

    def test_same_device_transfers_cost_nothing(self):
        graph = chain_graph()
        fleet = helpers.random_fleet(np.random.default_rng(1), 2)
        rates = helpers.random_rates(np.random.default_rng(2), 2)
        x = np.zeros((1, 2, 3), dtype=np.uint8)
        x[0, 0, :] = 1
        assign = Assignment(x, np.ones((1, 3), dtype=np.uint8))
        bd = evaluate_assignment(assign, graph, fleet, rates, EnergyParams())
        assert bd.shared_bits == 0.0
        assert (bd.tx_time == 0.0).all()
        assert close(bd.total_latency, bd.comp_time.sum())

    def test_requires_resolved_assignment(self):
        graph = chain_graph()
        fleet = helpers.random_fleet(np.random.default_rng(3), 2)
        rates = helpers.random_rates(np.random.default_rng(4), 2)
        x = np.zeros((1, 2, 3), dtype=np.uint8)
        x[0, :, :] = 1  # every block double-hosted
        assign = Assignment(x, np.ones((1, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="resolved"):
            evaluate_assignment(assign, graph, fleet, rates, EnergyParams())

    def test_unbridgeable_drop_surfaces(self, resnet50):
        n = 17
        x = np.zeros((1, 1, n), dtype=np.uint8)
        y = np.ones((1, n), dtype=np.uint8)
        y[0, [5, 6, 7]] = 0  # blocks 6..8: a run no skip edge spans
        x[0, 0, :] = y[0]
        fleet = helpers.random_fleet(np.random.default_rng(5), 1)
        rates = RateMatrix(np.zeros((1, 1)))
        with pytest.raises(UnbridgeableDrop):
            evaluate_assignment(Assignment(x, y), resnet50, fleet, rates,
                                EnergyParams())

    def test_zero_requests_yield_zero_costs(self):
        graph = chain_graph()
        fleet = helpers.random_fleet(np.random.default_rng(6), 2)
        rates = helpers.random_rates(np.random.default_rng(7), 2)
        assign = Assignment(np.zeros((0, 2, 3), dtype=np.uint8),
                            np.zeros((0, 3), dtype=np.uint8))
        bd = evaluate_assignment(assign, graph, fleet, rates, EnergyParams())
        assert bd.total_latency == 0.0
        assert bd.shared_bits == 0.0
        assert bd.total_mults == 0.0
        assert (bd.energy == 0.0).all()
