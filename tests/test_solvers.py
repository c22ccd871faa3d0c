"""Solver tests: the repair pass, the batched evaluator
(batch invariance and agreement with the oracles), exhaustive search against
the brute-force oracle, and the genetic solver's contracts (determinism,
resolved output, profiled drop sets only, infeasibility certificates, edge
settings)."""

from __future__ import annotations

import gc
import itertools
import os
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

import helpers
import oracles
from resplan import solvers
from resplan.config import build_scenario, load_config
from resplan.costs import Assignment, chain_sums
from resplan.errors import InfeasibleInstance, InstanceTooLarge, UncoveredBlock
from resplan.fleet import DeviceSpec, EnergyParams, Fleet, RateMatrix, sample_rates
from resplan.graph import BlockSpec, LayerSpec, ResNetGraph, SkipTopology, block_arrays
from resplan.harness import round_seeds, run_round, run_scenario
from resplan.objective import ObjectiveWeights
from resplan.profile import AccuracyProfile, ProfileEntry
from resplan.solvers import (
    ExactLimits,
    GaConfig,
    _Evaluator,
    _greedy_seed,
    _polish,
    chromosome_length,
    repair_allocation,
    solve_exact,
    solve_ga,
)

REL_TOL = 1e-9


def close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def chain3():
    """Stem plus two fixed blocks; no droppables, no skip edges."""
    blocks = (
        BlockSpec(1, 1, "stem", (LayerSpec("conv", 1, 2, 2, 2, 8),), False, 8),
        BlockSpec(2, 2, "conv_block", (LayerSpec("conv", 1, 2, 2, 2, 8),), False, 8),
        BlockSpec(3, 2, "conv_block", (LayerSpec("conv", 1, 2, 2, 2, 8),), False, 8),
    )
    return ResNetGraph(blocks=blocks, skip=SkipTopology(frozenset()))


def late_split_chain(sides):
    """A chain of one-layer blocks, the output side of each given; only
    blocks 5 and 6 are droppable, bridged by skip edges, so every drop set
    keeps blocks 1-4.  A block's compute grows with its side squared."""
    blocks = tuple(
        BlockSpec(j, 1 if j == 1 else 2,
                  "stem" if j == 1 else "identity_block" if j in (5, 6) else "conv_block",
                  (LayerSpec("conv", 1, 2, 2, side, 8),), j in (5, 6), 8)
        for j, side in enumerate(sides, start=1))
    return ResNetGraph(blocks=blocks, skip=SkipTopology(frozenset({(6, 4), (7, 5), (7, 4)})))


def fleet_with_rates(mult_rates):
    return Fleet(tuple(
        DeviceSpec(i + 1, 1e9, 1e12, 1e6, rate)
        for i, rate in enumerate(mult_rates)
    ))


def small_problem(rng, n_blocks=5, n_devices=3, n_requests=2, cap_scale=1e3):
    graph = helpers.random_graph(rng, n_blocks=n_blocks)
    fleet = helpers.random_fleet(rng, n_devices, cap_scale=cap_scale)
    rates = helpers.random_rates(rng, n_devices)
    drop_sets = helpers.bridgeable_drop_sets(graph)
    profile = helpers.profile_for(graph, drop_sets)
    weights = ObjectiveWeights(0.5, 0.5, latency_ref=100.0, accuracy_threshold=0.0)
    return graph, fleet, rates, profile, weights


class TestRepairAllocation:
    def base(self):
        graph = chain3()
        fleet = fleet_with_rates([5e5, 9e5, 1e5])
        rho = np.array([
            [0.0, 50.0, 10.0],
            [50.0, 0.0, 20.0],
            [10.0, 20.0, 0.0],
        ])
        return graph, fleet, RateMatrix(rho)

    def test_previous_device_wins_when_available(self):
        graph, fleet, rates = self.base()
        x = np.zeros((1, 3, 3), dtype=np.uint8)
        x[0, 0, 0] = 1        # block 1 on device 1 only
        x[0, [0, 1], 1] = 1   # block 2 offered on devices 1 and 2
        x[0, 0, 2] = 1
        out = repair_allocation(Assignment(x, np.ones((1, 3), dtype=np.uint8)),
                                graph, fleet, rates)
        np.testing.assert_array_equal(out.hosts(0), [0, 0, 0])

    def test_best_link_from_previous_wins_otherwise(self):
        graph, fleet, rates = self.base()
        x = np.zeros((1, 3, 3), dtype=np.uint8)
        x[0, 2, 0] = 1        # block 1 on device 3
        x[0, [0, 1], 1] = 1   # block 2 offered on devices 1 and 2
        x[0, 1, 2] = 1
        out = repair_allocation(Assignment(x, np.ones((1, 3), dtype=np.uint8)),
                                graph, fleet, rates)
        # rho[3,1] = 10 < rho[3,2] = 20, so device 2 wins block 2.
        np.testing.assert_array_equal(out.hosts(0), [2, 1, 1])

    def test_fastest_device_wins_the_first_block(self):
        graph, fleet, rates = self.base()
        x = np.zeros((1, 3, 3), dtype=np.uint8)
        x[0, :, 0] = 1        # block 1 offered everywhere
        x[0, 1, 1] = 1
        x[0, 1, 2] = 1
        out = repair_allocation(Assignment(x, np.ones((1, 3), dtype=np.uint8)),
                                graph, fleet, rates)
        # mult rates are (5e5, 9e5, 1e5): device 2 is fastest.
        np.testing.assert_array_equal(out.hosts(0), [1, 1, 1])

    def test_link_ties_go_to_the_lowest_device_id(self):
        graph, fleet, _ = self.base()
        rho = np.full((3, 3), 30.0)
        np.fill_diagonal(rho, 0.0)
        rates = RateMatrix(rho)
        x = np.zeros((1, 3, 3), dtype=np.uint8)
        x[0, 2, 0] = 1
        x[0, [0, 1], 1] = 1
        x[0, 2, 2] = 1
        out = repair_allocation(Assignment(x, np.ones((1, 3), dtype=np.uint8)),
                                graph, fleet, rates)
        assert out.hosts(0)[1] == 0

    def test_random_inputs_resolve_and_repair_is_idempotent(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            graph = helpers.random_graph(rng, n_blocks=int(rng.integers(3, 7)))
            n_dev = int(rng.integers(2, 5))
            n_req = int(rng.integers(1, 4))
            fleet = helpers.random_fleet(rng, n_dev)
            rates = helpers.random_rates(rng, n_dev)
            x, y = helpers.random_assignment(rng, graph, n_dev, n_req)
            x = np.array(x, dtype=np.uint8)
            y = np.array(y, dtype=np.uint8)
            extra = (rng.random(x.shape) < 0.35).astype(np.uint8)
            x = np.maximum(x, extra * y[:, None, :])  # extra hosts, kept blocks only
            relaxed = Assignment(x, y)
            fixed = repair_allocation(relaxed, graph, fleet, rates)
            assert fixed.is_resolved()
            np.testing.assert_array_equal(fixed.y, relaxed.y)
            # Chosen hosts come from the offered host sets.
            assert (fixed.x <= relaxed.x).all()
            again = repair_allocation(fixed, graph, fleet, rates)
            np.testing.assert_array_equal(again.x, fixed.x)

    def test_uncovered_kept_block_raises(self):
        graph, fleet, rates = self.base()
        x = np.zeros((1, 3, 3), dtype=np.uint8)
        x[0, 0, 0] = 1
        x[0, 0, 2] = 1
        with pytest.raises(UncoveredBlock) as exc_info:
            repair_allocation(Assignment(x, np.ones((1, 3), dtype=np.uint8)),
                              graph, fleet, rates)
        assert exc_info.value.request == 0
        assert exc_info.value.block == 2


class TestRepairTable:
    # Up to 10 devices the table is one chunk of row offsets; 11 is the
    # smallest fleet of several chunks, which compare key|device codes.
    @pytest.mark.parametrize("n_dev", [1, 2, 7, 8, 9, 10, 11, 16, 17, 70, 130])
    def test_matches_the_reference_loop(self, n_dev):
        # Rates and speeds come from a few round values, so link and speed
        # ties are common; offer densities run from mostly empty to full.
        rng = np.random.default_rng(n_dev)
        m = 17
        for _ in range(4):
            rho = rng.integers(1, 4, size=(n_dev, n_dev)).astype(float)
            np.fill_diagonal(rho, 0.0)
            e = rng.integers(1, 3, size=n_dev).astype(float)
            fix = int(rng.integers(n_dev))
            table = solvers._RepairTable(rho, e, fix)
            x = (rng.random((3, 8, n_dev, m)) < rng.uniform(0.0, 0.6)).astype(np.uint8)
            x[0, 0] = 0                                   # nothing offered at all
            x[0, 1] = 1                                   # everything offered
            x[1, :, :, 5] = 0                             # one block never offered
            kept = rng.random((24, m)) < 0.7
            kept[:, 0] = True
            got = table.hosts(x, kept)
            rows = x.reshape(-1, n_dev, m).tolist()
            for row in range(24):
                want = oracles.forward_repair(rows[row], kept[row].tolist(),
                                              rho.tolist(), e.tolist(), fix)
                assert got[row].tolist() == want, row

    def test_large_fleet_table_stays_small(self):
        rng = np.random.default_rng(0)
        rho = rng.uniform(1.0, 2.0, size=(70, 70))
        table = solvers._RepairTable(rho, rng.uniform(1.0, 2.0, size=70), 0)
        assert table.table.nbytes < 0.4e6

    def test_default_fleet_table_stays_small(self):
        rng = np.random.default_rng(0)
        rho = rng.uniform(1.0, 2.0, size=(10, 10))
        table = solvers._RepairTable(rho, rng.uniform(1.0, 2.0, size=10), 0)
        assert table.table.shape[1] == 1
        assert table.table.nbytes < 0.1e6


def oracle_penalized(ev, assign):
    """(objective, latency, penalized score, feasible) of one resolved
    candidate from the oracles: the penalty adds the relative overrun of
    every per-device budget."""
    g, fleet, rho = ev.graph, ev.fleet, ev.rho.tolist()
    x = assign.x.tolist()
    y = assign.y.tolist()
    wo = oracles.objective(g, fleet, rho, x, y, g.weight_bytes, ev.profile,
                           ev.weights.alpha, ev.weights.beta,
                           ev.weights.latency_ref)
    latency = oracles.total_latency(g, fleet, rho, x, y, g.weight_bytes)
    budgets = oracles.device_budgets(g, fleet, rho, x, y, g.weight_bytes,
                                     ev.memory_mode, ev.energy.p_compute,
                                     ev.energy.p_transmit)
    rel = 0.0
    for (mem, mults, joules), d in zip(budgets, fleet.devices):
        for use, cap in ((mults, d.compute_cap), (mem, d.memory_cap),
                         (joules, d.energy_cap)):
            rel += max(use / cap - 1.0, 0.0)
    return wo, latency, wo + solvers.PENALTY_WEIGHT * rel, rel == 0.0


class TestEvaluator:
    def evaluator(self, rng, n_requests=2, **kw):
        graph, fleet, rates, profile, weights = small_problem(rng, **kw)
        return _Evaluator(graph, fleet, rates, profile, weights, EnergyParams(),
                          n_requests=n_requests, repair=True)

    def test_drop_sets_that_drop_a_fixed_block_or_cannot_be_bridged_are_left_out(self):
        # Block 2 is fixed but the skip edge (3, 1) spans it; the topology
        # bypasses 3 and 4 one at a time, never together.  Both bad drop sets
        # keep the baseline accuracy while dropping work, so a solver that
        # saw them would pick them.
        layer = LayerSpec("conv", 1, 2, 2, 2, 8)
        blocks = (BlockSpec(1, 1, "stem", (layer,), False, 8),
                  BlockSpec(2, 2, "conv_block", (layer,), False, 8)) + tuple(
            BlockSpec(j, 2, "identity_block", (layer,), True, 8) for j in (3, 4, 5))
        graph = ResNetGraph(blocks, SkipTopology(frozenset({(3, 1), (4, 2), (5, 3)})))
        accuracy = {(): 0.95, (2,): 0.95, (3, 4): 0.95, (3,): 0.9, (4,): 0.9, (5,): 0.9}
        profile = AccuracyProfile(0.95, {frozenset(d): ProfileEntry(frozenset(d), a)
                                         for d, a in accuracy.items()}, "t", n_blocks=5)
        fleet = fleet_with_rates([5e5, 9e5])
        rates = helpers.random_rates(np.random.default_rng(37), 2)
        weights = ObjectiveWeights(0.9, 0.1, latency_ref=1e-3)
        ev = _Evaluator(graph, fleet, rates, profile, weights, EnergyParams(), n_requests=2)
        assert ev.drops == ((3,), (4,), (5,), ())
        results = [solve_exact(graph, fleet, rates, profile, weights, EnergyParams(), 2),
                   solve_ga(graph, fleet, rates, profile, weights, EnergyParams(), 2,
                            GaConfig(population_size=20, generations=10))]
        for res in results:
            assert res.feasible
            assert all(d in ([3], [4], [5], []) for d in res.as_dict()["drops"])

    def test_a_resolved_chromosome_reads_back_as_its_assignment(self):
        # The GA's layout: placement bits (request, device, block), then keep
        # bits (request, block).  An allowed drop set projects onto itself
        # and a single host per kept block survives the repair.
        rng = np.random.default_rng(41)
        for _ in range(20):
            ev = self.evaluator(rng, n_requests=int(rng.integers(1, 4)))
            r, n = ev.n_requests, ev.n_devices
            drops = [set(d) for d in ev.drops]
            x, y = helpers.random_assignment(rng, ev.graph, n, r, drops)
            bits = np.concatenate([np.ravel(x), np.ravel(y)]).astype(np.uint8)
            assert bits.size == chromosome_length(r, n, ev.n_blocks)
            hosts, ent = ev.evaluate(np.packbits(bits[None], axis=1))[4:]
            back = ev.to_assignment(hosts, ent)
            np.testing.assert_array_equal(back.x, x)
            np.testing.assert_array_equal(back.y, y)

    @staticmethod
    def projected(ev, y, rng):
        """The drop-set index the GA gives each keep-bit row of ``y``, one
        request an individual, under random placement bits."""
        x = rng.integers(0, 2, size=(y.shape[0], ev.n_devices * ev.n_blocks), dtype=np.uint8)
        return ev.evaluate(np.packbits(np.concatenate([x, y], axis=1), axis=1))[5]

    def test_keep_bits_project_onto_the_first_drop_set_they_drop_whole(self):
        # Random keep bits, the stem's included, mostly proposing drops that
        # are no allowed set: each row gets the first entry of ``drops``
        # whose blocks it all drops.  The empty set qualifies for any row.
        rng = np.random.default_rng(43)
        for _ in range(20):
            ev = self.evaluator(rng, n_requests=1, n_blocks=int(rng.integers(3, 9)))
            y = rng.integers(0, 2, size=(50, ev.n_blocks), dtype=np.uint8)
            want = [next(k for k, d in enumerate(ev.drops)
                         if not y_r[[j - 1 for j in d]].any()) for y_r in y]
            np.testing.assert_array_equal(self.projected(ev, y, rng), want)

    @pytest.mark.parametrize("acc56", [0.86, 0.85])
    def test_a_pair_beats_its_singles_then_accuracy_then_ids_break_ties(self, acc56):
        # Identity blocks 3-6, each bridged alone, and the pairs (3, 4) and
        # (5, 6) bridged too; the singles are more accurate than either pair.
        layer = LayerSpec("conv", 1, 2, 2, 2, 8)
        blocks = (BlockSpec(1, 1, "stem", (layer,), False, 8),
                  BlockSpec(2, 2, "conv_block", (layer,), False, 8)) + tuple(
            BlockSpec(j, 2, "identity_block", (layer,), True, 8) for j in (3, 4, 5, 6)) + (
            BlockSpec(7, 2, "conv_block", (layer,), False, 8),)
        edges = {(j + 1, j - 1) for j in (3, 4, 5, 6)} | {(5, 2), (7, 4)}
        graph = ResNetGraph(blocks, SkipTopology(frozenset(edges)))
        accuracy = {(): 0.95, (3,): 0.9, (4,): 0.9, (5,): 0.9, (6,): 0.9, (3, 4): 0.85,
                    (5, 6): acc56}
        profile = AccuracyProfile(0.95, {frozenset(d): ProfileEntry(frozenset(d), a)
                                         for d, a in accuracy.items()}, "t", n_blocks=7)
        rng = np.random.default_rng(44)
        ev = _Evaluator(graph, fleet_with_rates([5e5, 9e5]), helpers.random_rates(rng, 2),
                        profile, ObjectiveWeights(0.5, 0.5, latency_ref=1.0), EnergyParams(),
                        n_requests=1, repair=True)
        pairs = [(5, 6), (3, 4)] if acc56 > 0.85 else [(3, 4), (5, 6)]
        assert ev.drops == (*pairs, (3,), (4,), (5,), (6,), ())
        proposals = {(3, 4): (3, 4), (3, 4, 5): (3, 4), (3, 4, 5, 6): pairs[0],
                     (4, 5): (4,), (5, 6, 7): (5, 6), (1, 2, 7): ()}
        y = np.ones((len(proposals), 7), dtype=np.uint8)
        for row, drop in zip(y, proposals):
            row[[j - 1 for j in drop]] = 0
        got = self.projected(ev, y, rng)
        assert [ev.drops[k] for k in got] == list(proposals.values())

    def test_the_stem_is_kept_and_hosted_whatever_the_bits_say(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            ev = self.evaluator(rng)
            length = chromosome_length(2, ev.n_devices, ev.n_blocks)
            zeros = np.zeros((1, length), dtype=np.uint8)
            noise = rng.integers(0, 2, size=(20, length), dtype=np.uint8)
            noise[:, 2 * ev.n_devices * ev.n_blocks::ev.n_blocks] = 0  # stem bits
            for pop in (zeros, noise):
                hosts, ent = ev.evaluate(np.packbits(pop, axis=1))[4:]
                assign = ev.to_assignment(hosts, ent)
                assert (assign.y[:, 0] == 1).all()
                assert assign.is_resolved()

    def test_rows_score_the_same_alone_and_in_any_batch_or_chunk(self, monkeypatch):
        rng = np.random.default_rng(31)
        for _ in range(10):
            r = int(rng.integers(1, 4))
            ev = self.evaluator(rng, n_requests=r, cap_scale=1.0)
            length = chromosome_length(r, ev.n_devices, ev.n_blocks)
            pop = np.packbits(rng.integers(0, 2, size=(40, length), dtype=np.uint8),
                              axis=1)
            whole = ev.evaluate(pop)
            alone = [ev.evaluate(pop[i:i + 1]) for i in range(40)]
            for got, want in zip(zip(*alone), whole):
                np.testing.assert_array_equal(np.concatenate(got), want)
            # Shuffled, in chunks of three individuals.
            perm = rng.permutation(40)
            rows = (perm[:, None] * r + np.arange(r)).ravel()
            monkeypatch.setattr(solvers, "_CHUNK_CELLS",
                                3 * r * ev.n_devices * ev.n_blocks)
            chunked = ev.evaluate(pop[perm])
            monkeypatch.undo()
            for k, (got, want) in enumerate(zip(chunked, whole)):
                np.testing.assert_array_equal(got, want[perm] if k < 4 else want[rows])

    @pytest.mark.parametrize("width", [1, 3, 18])
    def test_distinct_keys_match_numpy_unique(self, width):
        rng = np.random.default_rng(width)
        for size in (1, 2, 7, 99):
            rows = rng.integers(0, 3, size=(size, width), dtype=np.uint8)
            keys = rows.view(np.dtype((np.void, width))).ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            got_first, got_inverse = solvers._distinct(keys)
            np.testing.assert_array_equal(got_first, first)
            np.testing.assert_array_equal(got_inverse, inverse.ravel())

    @pytest.mark.parametrize("chunk", [None, 2])
    def test_each_distinct_placement_is_scored_once(self, monkeypatch, chunk):
        rng = np.random.default_rng(34)
        r = 2
        ev = self.evaluator(rng, n_requests=r, n_blocks=7, cap_scale=1.0)
        n, m = ev.n_devices, ev.n_blocks
        length = chromosome_length(r, n, m)
        base = rng.integers(0, 2, size=(12, length), dtype=np.uint8)
        ent = ev.evaluate(np.packbits(base, axis=1))[5]
        dropped = ~ev.keep[ent].reshape(12, r, m)
        some = np.flatnonzero(dropped.any(axis=(1, 2)))
        assert some.size >= 3
        # Variants differ from their original only in dropped blocks' x bits.
        variants = base[some].copy()
        x = variants[:, :r * n * m].reshape(-1, r, n, m)
        x ^= dropped[some][:, :, None, :]
        assert (variants != base[some]).any(axis=1).all()
        pop = np.concatenate([base, base[[0, 0, 5]], variants])
        alone = [ev.evaluate(np.packbits(pop[i:i + 1], axis=1))[4:]
                 for i in range(pop.shape[0])]

        score, seen = ev.score, []

        def counted(hosts, ent):
            seen.extend(zip(map(bytes, hosts.reshape(-1, r * m)),
                            map(bytes, ent.reshape(-1, r))))
            return score(hosts, ent)

        monkeypatch.setattr(ev, "score", counted)
        if chunk:  # originals and their copies fall in different chunks
            monkeypatch.setattr(solvers, "_CHUNK_CELLS", chunk * r * n * m)
        got = ev.evaluate(np.packbits(pop, axis=1))
        distinct = {(bytes(h), bytes(e)) for h, e in alone}
        assert len(distinct) <= 12
        assert len(seen) == len(set(seen)) == len(distinct)
        assert set(seen) == distinct
        want = [score(h, e) + (h, e) for h, e in alone]
        for g, w in zip(got, zip(*want)):
            np.testing.assert_array_equal(g, np.concatenate(w))

    @pytest.mark.parametrize("devices,requests", [(10, 7), (70, 3)])
    def test_a_generation_is_one_repair_block_pass(self, monkeypatch, devices, requests):
        # Otherwise a round's cost jumps where a generation starts to split,
        # and a pass costs more for seeds that draw more such rounds.  On 70
        # devices the table columns are built in several chunks, but the
        # block pass still runs once over every row.
        sc = build_scenario(load_config({"fleet": {"devices": devices}}))
        rates = sample_rates(devices, rng=np.random.default_rng(0))
        ev = _Evaluator(sc.graph, sc.fleet, rates, sc.profile, sc.weights, sc.energy,
                        n_requests=requests, repair=True)
        passes = []
        block_pass = ev.repair._block_pass
        monkeypatch.setattr(ev.repair, "_block_pass", lambda offers, out: passes.append(
            offers.shape[2]) or block_pass(offers, out))
        length = chromosome_length(requests, devices, ev.n_blocks)
        size = sc.ga.population_size
        ev.evaluate(np.zeros((size, -(-length // 8)), dtype=np.uint8))
        assert passes == [size * requests]

    def test_several_offer_chunks_score_as_each_individual_alone(self, monkeypatch):
        rng = np.random.default_rng(35)
        r = 3
        graph = helpers.random_graph(rng, n_blocks=7)
        fleet = helpers.random_fleet(rng, 70, cap_scale=1e-2)
        rates = helpers.random_rates(rng, 70)
        profile = helpers.profile_for(graph, helpers.bridgeable_drop_sets(graph))
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=100.0)
        ev = _Evaluator(graph, fleet, rates, profile, weights, EnergyParams(),
                        n_requests=r, repair=True)
        length = chromosome_length(r, 70, ev.n_blocks)
        size = 2 * solvers._CHUNK_CELLS // (r * 70 * ev.n_blocks) + 1  # three chunks
        pop = np.packbits(rng.integers(0, 2, size=(size, length), dtype=np.uint8), axis=1)
        walks = []
        walk = ev.repair.walk
        monkeypatch.setattr(ev.repair, "walk", lambda offers: walks.append(offers.dtype)
                            or walk(offers))
        whole = ev.evaluate(pop)
        assert walks == [np.uint16]
        alone = [ev.evaluate(pop[i:i + 1]) for i in range(size)]
        for got, want in zip(zip(*alone), whole):
            np.testing.assert_array_equal(np.concatenate(got), want)

    def test_ordered_sum_adds_each_column_left_to_right(self):
        # Magnitudes spread over 16 decades, so pairwise and left-to-right
        # sums differ in the last bit; a single column takes its own path.
        rng = np.random.default_rng(36)
        for b in (1, 2, 3):
            for k in range(1, 52):
                terms = rng.standard_normal((k, b)) * 10.0 ** rng.integers(-8, 9, (k, b))
                want = []
                for c in range(b):
                    total = float(terms[0, c])
                    for t in terms[1:, c].tolist():
                        total += t
                    want.append(total)
                np.testing.assert_array_equal(solvers._ordered_sum(terms), want)

    def test_exact_enumeration_does_not_depend_on_the_chunk_size(self, monkeypatch):
        def outcome(instance, r):
            try:
                return solve_exact(*instance, EnergyParams(), r).as_dict()
            except InfeasibleInstance as exc:
                return str(exc)

        solved = {1: 0, 2: 0}
        for seed in range(4):
            instance = tiny_exact_instance(seed)[:5]
            for r in (1, 2):
                want = outcome(instance, r)
                monkeypatch.setattr(solvers, "_CHUNK_CELLS", 1)
                assert outcome(instance, r) == want
                monkeypatch.undo()
                solved[r] += isinstance(want, dict)
        assert min(solved.values()) >= 1

    def test_score_agrees_with_reference_costs(self):
        rng = np.random.default_rng(32)
        for i in range(15):
            ev = self.evaluator(rng, cap_scale=[1.0, 1e9][i % 2])
            length = chromosome_length(2, ev.n_devices, ev.n_blocks)
            bits = rng.integers(0, 2, size=(1, length), dtype=np.uint8)
            hosts, ent = ev.evaluate(np.packbits(bits, axis=1))[4:]
            penalized, wo, latency, feasible = (v[0] for v in ev.score(hosts, ent))
            want = oracle_penalized(ev, ev.to_assignment(hosts, ent))
            assert close(wo, want[0])
            assert close(latency, want[1])
            assert close(penalized, want[2])
            assert feasible == want[3]

    def test_large_fleet_scores_match_the_oracles(self):
        rng = np.random.default_rng(33)
        graph = helpers.random_graph(rng, n_blocks=5)
        fleet = helpers.random_fleet(rng, 70, cap_scale=1e-2)
        rates = helpers.random_rates(rng, 70)
        profile = helpers.profile_for(graph, helpers.bridgeable_drop_sets(graph))
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=100.0)
        ev = _Evaluator(graph, fleet, rates, profile, weights, EnergyParams(),
                        n_requests=3, repair=True)
        length = chromosome_length(3, 70, ev.n_blocks)
        pop = rng.integers(0, 2, size=(20, length), dtype=np.uint8)
        pen, wo, latency, feasible, hosts, ent = ev.evaluate(np.packbits(pop, axis=1))
        for i in range(20):
            assign = ev.to_assignment(hosts[3 * i:3 * i + 3], ent[3 * i:3 * i + 3])
            assert assign.is_resolved()
            want = oracle_penalized(ev, assign)
            assert close(wo[i], want[0])
            assert close(latency[i], want[1])
            assert close(pen[i], want[2])
            assert feasible[i] == want[3]
        assert 0 < feasible.sum() < 20  # both branches of the penalty ran


def enumerated_candidates(ev):
    """Every exact-solver candidate as resolved rows (hosts, drop-set index)
    in candidate-number order: per request a drop set, then a host per kept
    block, the last kept block varying fastest; the last request varies
    fastest of all."""
    options = []
    for k, keep in enumerate(ev.keep):
        for digits in itertools.product(range(ev.n_devices), repeat=int(keep.sum())):
            row = np.zeros(ev.n_blocks, dtype=np.intp)
            row[keep] = digits
            options.append((row, k))
    picks = [o for pick in itertools.product(options, repeat=ev.n_requests) for o in pick]
    return np.array([row for row, _ in picks]), np.array([k for _, k in picks])


def tiny_exact_instance(seed):
    """Two devices, four blocks, one request, at most three allowed drop sets."""
    rng = np.random.default_rng(seed)
    graph, drop_sets = None, []
    while len(drop_sets) < 3:
        graph = helpers.random_graph(rng, n_blocks=4)
        drop_sets = helpers.bridgeable_drop_sets(graph)[:3]
    fleet = helpers.random_fleet(rng, 2, cap_scale=2.0)
    rates = helpers.random_rates(rng, 2)
    profile = helpers.profile_for(graph, drop_sets)
    weights = ObjectiveWeights(0.6, 0.4, latency_ref=50.0,
                               accuracy_threshold=profile.baseline - 0.2)
    return graph, fleet, rates, profile, weights, drop_sets


class TestExactSolver:
    def test_matches_brute_force_oracle_or_both_infeasible(self):
        both_feasible = 0
        for seed in range(12):
            graph, fleet, rates, profile, weights, drop_sets = (
                tiny_exact_instance(seed))
            caps = [(d.memory_cap, d.compute_cap, d.energy_cap)
                    for d in fleet.devices]
            want = oracles.brute_force_best(
                graph, fleet, rates.rho, graph.weight_bytes, profile,
                weights.alpha, weights.beta, weights.latency_ref,
                weights.accuracy_threshold, caps, (8.0, 10.0), 1, drop_sets)
            try:
                got = solve_exact(graph, fleet, rates, profile, weights,
                                  EnergyParams(), 1)
            except InfeasibleInstance:
                assert want is None
                continue
            assert want is not None
            assert got.feasible
            assert close(got.objective, want[0])
            both_feasible += 1
        assert both_feasible >= 4  # the caps are tight but not hopeless

    def test_small_chunks_keep_the_earliest_optimum(self, monkeypatch):
        # Three identical devices and abundant budgets: a plan on one device
        # ties exactly with its mirrors on the others, and batches of three
        # leaves put them in different batches.
        rng = np.random.default_rng(37)
        graph = helpers.random_graph(rng, n_blocks=7)
        profile = helpers.profile_for(graph, helpers.bridgeable_drop_sets(graph))
        fleet = Fleet(tuple(DeviceSpec(i + 1, 1e12, 1e12, 1e12, 1e5) for i in range(3)))
        rates = RateMatrix(np.full((3, 3), 1e3))
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=100.0)
        args = (graph, fleet, rates, profile, weights, EnergyParams(), 1)
        want = solve_exact(*args)
        seen, finish = [], _Evaluator._finish

        def recorded(ev, *sums):
            out = finish(ev, *sums)
            seen.append(out)
            return out

        monkeypatch.setattr(_Evaluator, "_finish", recorded)
        monkeypatch.setattr(solvers, "_CHUNK_CELLS", 3 * 3 * graph.n_blocks)
        got = solve_exact(*args)
        monkeypatch.undo()
        assert got.as_dict() == want.as_dict()
        assert max(len(c[1]) for c in seen) == 3
        batch = np.concatenate([np.full(len(c[1]), i) for i, c in enumerate(seen)])
        _pen, wo, lat, feas = (np.concatenate([c[k] for c in seen]) for k in range(4))
        best = min(zip(wo[feas], lat[feas]))
        ties = feas & (wo == best[0]) & (lat == best[1])
        assert np.unique(batch[ties]).size >= 2
        # The earliest tie in candidate order, from a test-side enumeration.
        ev = _Evaluator(*args)
        hosts, ent = enumerated_candidates(ev)
        _pen, wo, lat, feas = ev.score(hosts, ent)
        first = np.flatnonzero(feas & (wo == best[0]) & (lat == best[1]))[0]
        earliest = ev.to_assignment(hosts[first:first + 1], ent[first:first + 1])
        np.testing.assert_array_equal(got.assignment.x, earliest.x)
        np.testing.assert_array_equal(got.assignment.y, earliest.y)
        assert (got.assignment.hosts(0)[got.assignment.y[0] == 1] == 0).all()

    def test_ties_within_a_batch_go_to_the_earliest_candidate(self):
        # Three equal blocks; device 1 is faster but holds one block, and the
        # links are so fast that transfers vanish from the latency, so the
        # three plans with one block on device 1 tie exactly.  A batch holds
        # its leaves with the last block's host outermost, where the earliest
        # of them, [0, 1, 1], comes last.
        graph = chain3()
        mem = block_arrays(graph)[1]
        fleet = Fleet((DeviceSpec(1, 1.5 * mem[0], 1e12, 1e12, 2e5),
                       DeviceSpec(2, 1e12, 1e12, 1e12, 1e5)))
        rates = RateMatrix(np.full((2, 2), 1e300))
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=100.0)
        got = solve_exact(graph, fleet, rates, helpers.profile_for(graph, []), weights,
                          EnergyParams(), 1)
        assert got.feasible
        np.testing.assert_array_equal(got.assignment.hosts(0), [0, 1, 1])

    @pytest.mark.parametrize("caps", ["both", "first", "memory"])
    @pytest.mark.parametrize("r,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_tree_leaves_score_as_score_bit_for_bit(self, monkeypatch, r, n, caps):
        # The leaves the prefix tree scores, at the default batch and at
        # batches of seven leaves (frontier slices, also across request
        # boundaries), are candidates within every compute and memory cap of
        # a test-side enumeration, each scored once and as ``score`` scores
        # it.  Every candidate left out is infeasible or scores above the
        # optimum, the winner is the earliest optimum, and the scored and
        # skipped candidates add up to ``evaluations``.
        rng = np.random.default_rng(100 * r + 10 * n + 1)
        graph = helpers.random_graph(rng, n_blocks=5 - r)
        c, mem, _bits = block_arrays(graph)
        # Caps at 0.6 of every request's full load (energy: its compute
        # alone), so some placements overrun and the penalty reads each sum.
        # "first": only device 1 has tight caps, half the stem's compute (a
        # stem without multiplications is cut by memory alone) and memory,
        # so they cut at the first kept block; it can host little, so the
        # energy caps are 0.8 there, which leaves some plans feasible.
        # "memory": compute is abundant and the memory caps cut alone.
        speed = rng.uniform(1e5, 1e6, size=n)
        comp_caps = np.full(n, 0.6 * r * c.sum() if caps == "both" else 1e12)
        mem_caps = np.full(n, 1e12 if caps == "first" else 0.6 * r * mem.sum())
        share = 0.6
        if caps == "first":
            comp_caps[0], mem_caps[0], share = 0.5 * c[0] or 1.0, 0.5 * mem[0], 0.8
        fleet = Fleet(tuple(DeviceSpec(i + 1, mem_caps[i], comp_caps[i],
                                       share * EnergyParams().p_compute * r * c.sum() / speed[i],
                                       float(speed[i])) for i in range(n)))
        rates = RateMatrix(rng.uniform(1e2, 1e4, size=(n, n)))  # asymmetric links
        profile = helpers.profile_for(graph, helpers.bridgeable_drop_sets(graph))
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=100.0)
        args = (graph, fleet, rates, profile, weights, EnergyParams(), r)
        ev = _Evaluator(*args)
        hosts, ent = enumerated_candidates(ev)
        b = len(ent) // r
        want = ev.score(hosts, ent)
        _terms, load, used, _tx = chain_sums(
            hosts, ev.src.take(ent, axis=0), ev.kept_c.take(ent, axis=0),
            ev.kept_m.take(ent, axis=0), ev.src_bits.take(ent, axis=0), b, ev.rho_off)
        fits = ((load / ev.comp_caps <= 1.0) & (used / ev.mem_caps <= 1.0)).all(axis=1)
        assert (~fits).any()
        assert (fits & ~want[3]).any()  # some leaves in the caps overrun energy alone
        assert not want[3][~fits].any()
        feasible = np.flatnonzero(want[3])
        earliest = feasible[np.lexsort((want[2][feasible], want[1][feasible]))[0]]
        best = ev.to_assignment(hosts[earliest * r:(earliest + 1) * r],
                                ent[earliest * r:(earliest + 1) * r])
        seen, tree, joined, join = [], solvers._tree_scores, [], solvers._joined

        def recorded(ev, batch):
            for out in tree(ev, batch):
                seen.append(out)
                yield out

        def counted(states, nums):  # the groups that gave a host children
            joined[-1].append(len(nums))
            return join(states, nums)

        for cells in (None, 7 * r * n * graph.n_blocks):
            seen.clear()
            joined.append([])
            monkeypatch.setattr(solvers, "_tree_scores", recorded)
            monkeypatch.setattr(solvers, "_joined", counted)
            if cells:
                monkeypatch.setattr(solvers, "_CHUNK_CELLS", cells)
            got = solve_exact(*args, limits=ExactLimits(max_candidates=b))
            monkeypatch.undo()
            leaves = [np.concatenate(col) for col in zip(*seen)]
            order = np.argsort(leaves[4])
            scored = leaves[4][order]
            assert (np.diff(scored) > 0).all() and fits[scored].all()
            for g, w in zip(leaves[:4], want):
                np.testing.assert_array_equal(g[order], w[scored])
            skipped = np.setdiff1d(np.arange(b), scored)
            assert not (want[3][skipped] & (want[1][skipped] <= want[1][earliest])).any()
            assert scored.size + skipped.size == got.evaluations
            if cells:
                assert max(len(batch[4]) for batch in seen) <= 7
            assert got.objective == want[1][earliest]
            np.testing.assert_array_equal(got.assignment.x, best.x)
            np.testing.assert_array_equal(got.assignment.y, best.y)
        # At the default batch the tree takes both of ``place``'s returns: a
        # host's part from one frontier group as it is, and parts joined from
        # several.  A join needs two hosts in use, which the "first" caps
        # leave no 2-device fleet.
        assert 1 in joined[0]
        assert max(joined[0]) >= 2 or (caps == "first" and n == 2)

    def test_bound_keeps_the_benchmark_optimum_and_cuts_most_leaves(self, monkeypatch):
        # The benchmark-shaped instance: ResNet-50 on two devices at the
        # default caps, one request, two rate draws.  The cap cuts alone
        # leave 211,924 of 1,179,648 candidates, whatever the rates; the
        # bound scores a small part of those and finds the same plan.
        sc = build_scenario(load_config(overrides=("fleet.devices=2",)))
        for k in (0, 1):
            rates = sample_rates(2, sc.rate_lo, sc.rate_hi, round_seeds(sc.seed, k)[1], k)
            args = (sc.graph, sc.fleet, rates, sc.profile, sc.weights, sc.energy, 1)
            scored, tree = {}, solvers._tree_scores

            def counted(ev, batch, key):
                scored[key] = 0
                for out in tree(ev, batch):
                    scored[key] += out[4].size
                    yield out

            outcome = {}
            for key in ("bound", "caps only"):
                monkeypatch.setattr(solvers, "_tree_scores",
                                    lambda ev, batch, key=key: counted(ev, batch, key))
                if key == "caps only":
                    monkeypatch.setattr(solvers, "latency_budget", lambda *a: np.inf)
                outcome[key] = solve_exact(*args, limits=ExactLimits(max_candidates=1_179_648))
                monkeypatch.undo()
            assert scored["caps only"] == 211_924
            assert scored["bound"] < 211_924 // 4
            assert outcome["bound"].as_dict() == outcome["caps only"].as_dict()
            assert outcome["bound"].evaluations == 1_179_648

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("split", ["accuracy", "compute"])
    def test_drop_sets_that_share_a_long_prefix_keep_the_optimum(self, monkeypatch, split, r):
        # Every drop set keeps blocks 1-4, which the trie grows once for all
        # of them.  Batches of two nodes slice the frontier there, so shared
        # levels are still grown after the first leaves set an incumbent:
        # the bound of a shared node must hold for every drop set below it.
        # "accuracy": the optimum keeps every block, below the node that
        # keeps block 5, whose first drop set, [6], is far less accurate.
        # "compute": the optimum drops block 6, 36 times block 5's compute,
        # below shared nodes whose first drop set, [5], keeps it.
        if split == "accuracy":
            sides, alpha = [2] * 7, 0.5
            accuracy = {(): 0.95, (5,): 0.6, (6,): 0.3, (5, 6): 0.2}
        else:
            sides, alpha = [2, 2, 2, 2, 2, 12, 2], 0.9
            accuracy = {(): 0.95, (5,): 0.9, (6,): 0.85}
        graph = late_split_chain(sides)
        profile = AccuracyProfile(0.95, {frozenset(d): ProfileEntry(frozenset(d), a)
                                         for d, a in accuracy.items()}, "test", n_blocks=7)
        fleet = Fleet(tuple(DeviceSpec(i + 1, 1e12, 1e12, 1e12, s)
                            for i, s in enumerate([1e3, 2e3])))
        args = (graph, fleet, RateMatrix(np.full((2, 2), 1e3)), profile,
                ObjectiveWeights(alpha, 1 - alpha, latency_ref=1.0, accuracy_threshold=0.0),
                EnergyParams(), r)
        ev = _Evaluator(*args)
        assert ev.keep[:, :4].all() and len(ev.drops) == len(accuracy)
        hosts, ent = enumerated_candidates(ev)
        _pen, wo, lat, feas = ev.score(hosts, ent)
        first = np.flatnonzero(feas)[np.lexsort((lat[feas], wo[feas]))[0]]
        want = ev.to_assignment(hosts[first * r:(first + 1) * r], ent[first * r:(first + 1) * r])
        assert {ev.drops[k] for k in ent[first * r:(first + 1) * r]} == (
            {()} if split == "accuracy" else {(6,)})
        monkeypatch.setattr(solvers, "_CHUNK_CELLS", 1)
        got = solve_exact(*args, limits=ExactLimits(max_candidates=len(ent) // r))
        monkeypatch.undo()
        assert got.objective == wo[first]
        np.testing.assert_array_equal(got.assignment.x, want.x)
        np.testing.assert_array_equal(got.assignment.y, want.y)

    @pytest.mark.parametrize("speed", [1.5e5, 1.7e5, 2e5, 2.5e5, 3e5, 7e5])
    def test_ties_across_batches_keep_the_earliest_optimum(self, monkeypatch, speed):
        # The three plans with one block on the faster device 1 tie exactly
        # (three equal blocks, links so fast that transfers vanish from the
        # latency).  Batches of four nodes grow two levels, then slice the
        # frontier by the second block's host, so [1, 0, 1] is scored in a
        # batch before the earliest of the three, [0, 1, 1].  Each tie's
        # bound is its own objective summed in another order, and the bound
        # must not cut it.
        graph = chain3()
        mem = block_arrays(graph)[1]
        fleet = Fleet((DeviceSpec(1, 1.5 * mem[0], 1e12, 1e12, speed),
                       DeviceSpec(2, 1e12, 1e12, 1e12, 1e5)))
        rates = RateMatrix(np.full((2, 2), 1e300))
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=100.0)
        args = (graph, fleet, rates, helpers.profile_for(graph, []), weights,
                EnergyParams(), 1)
        seen, tree = [], solvers._tree_scores

        def recorded(ev, batch):
            for out in tree(ev, batch):
                seen.append(out[4])
                yield out

        monkeypatch.setattr(solvers, "_tree_scores", recorded)
        monkeypatch.setattr(solvers, "_CHUNK_CELLS", 4 * 2 * graph.n_blocks)
        got = solve_exact(*args)
        monkeypatch.undo()
        assert [5] in map(list, seen[:-1])  # [1, 0, 1] in a batch of its own
        np.testing.assert_array_equal(got.assignment.hosts(0), [0, 1, 1])

    def test_the_bound_charges_each_transfer_for_the_block_that_sends_it(self, monkeypatch):
        # Three equal blocks whose outputs are 512, 128 and 131,072 bits.
        # Device 1 holds one block and device 2 two, so one block goes to
        # device 1; transfers dominate, and [1, 1, 0], which sends block 2's
        # output once, is the optimum.  Batches of two leaves score [0, 1, 1]
        # first, and the bound then cuts [1, 0, 1], which sends blocks 1 and
        # 2's outputs.  The bound on [1, 1, 0] must charge block 2's bits,
        # not block 3's, or it is cut too.
        layer = LayerSpec("conv", 1, 2, 2, 2, 8)
        graph = ResNetGraph(blocks=(
            BlockSpec(1, 1, "stem", (layer,), False, 16),
            BlockSpec(2, 2, "conv_block", (layer,), False, 4),
            BlockSpec(3, 2, "conv_block", (layer,), False, 4096),
        ), skip=SkipTopology(frozenset()))
        mem = block_arrays(graph)[1]
        fleet = Fleet((DeviceSpec(1, 1.5 * mem[0], 1e12, 1e12, 1e5),
                       DeviceSpec(2, 2.5 * mem[0], 1e12, 1e12, 1e5)))
        args = (graph, fleet, RateMatrix(np.full((2, 2), 1e3)), helpers.profile_for(graph, []),
                ObjectiveWeights(0.5, 0.5, latency_ref=100.0), EnergyParams(), 1)
        seen, tree = [], solvers._tree_scores

        def recorded(ev, batch):
            for out in tree(ev, batch):
                seen.append(out[4].tolist())
                yield out

        monkeypatch.setattr(solvers, "_tree_scores", recorded)
        monkeypatch.setattr(solvers, "_CHUNK_CELLS", 1)
        got = solve_exact(*args)
        monkeypatch.undo()
        assert seen == [[3], [6]]
        np.testing.assert_array_equal(got.assignment.hosts(0), [1, 1, 0])

    def test_ties_at_a_zero_objective_keep_the_fastest_plan(self, monkeypatch):
        # No weight on latency and every drop set at accuracy 1.0: every
        # plan scores exactly 0.0, so the bound of every node ties the
        # incumbent from the first batch on, and the latency alone picks the
        # plan from all of them.  The last device is the fastest, so the
        # fastest plan is not in the first batches.
        rng = np.random.default_rng(41)
        graph = helpers.random_graph(rng, n_blocks=4)
        drops = helpers.bridgeable_drop_sets(graph)
        profile = helpers.profile_for(graph, drops, baseline=1.0, floor=1.0)
        fleet = fleet_with_rates([1e5, 2e5, 4e5])
        rates = helpers.random_rates(rng, 3)
        weights = ObjectiveWeights(0.0, 1.0, latency_ref=100.0)
        for r in (1, 2):
            args = (graph, fleet, rates, profile, weights, EnergyParams(), r)
            ev = _Evaluator(*args)
            hosts, ent = enumerated_candidates(ev)
            _pen, wo, lat, feas = ev.score(hosts, ent)
            assert feas.all() and (wo == 0.0).all()
            first = np.lexsort((lat,))[0]
            assert first > 3
            monkeypatch.setattr(solvers, "_CHUNK_CELLS", 1)
            got = solve_exact(*args, limits=ExactLimits(max_candidates=len(ent) // r))
            monkeypatch.undo()
            want = ev.to_assignment(hosts[first * r:(first + 1) * r],
                                    ent[first * r:(first + 1) * r])
            np.testing.assert_array_equal(got.assignment.x, want.x)
            np.testing.assert_array_equal(got.assignment.y, want.y)

    @pytest.mark.parametrize("order", ["as made", "reversed", "split"])
    def test_winner_is_the_lowest_objective_then_latency_then_number(self, monkeypatch,
                                                                     order):
        # Leaves made up here for a three-block chain on two devices (eight
        # candidates).  The lowest objective, 0.1, is infeasible; four
        # feasible leaves tie at 0.2, two of those on the lowest latency,
        # 2.0, and the lower number of the two, 5, wins: hosts [2, 1, 2].
        num = np.array([7, 6, 5, 1, 0, 4])
        wo = np.array([0.2, 0.2, 0.2, 0.1, 0.3, 0.2])
        lat = np.array([3.0, 2.0, 2.0, 0.0, 1.0, 2.5])
        feas = np.array([True, True, True, False, True, True])
        cols = (wo, wo, lat, feas, num)
        if order == "reversed":
            cols = tuple(col[::-1] for col in cols)
        parts = [slice(0, 2), slice(2, None)] if order == "split" else [slice(None)]
        monkeypatch.setattr(solvers, "_tree_scores",
                            lambda ev, batch: (tuple(col[p] for col in cols) for p in parts))
        graph = chain3()
        got = solve_exact(graph, fleet_with_rates([1e5, 1e5]), RateMatrix(np.full((2, 2), 1e3)),
                          helpers.profile_for(graph, []),
                          ObjectiveWeights(0.5, 0.5, latency_ref=100.0), EnergyParams(), 1)
        np.testing.assert_array_equal(got.assignment.hosts(0), [1, 0, 1])

    @pytest.mark.parametrize("spare", [1e12, 0.5])
    def test_a_plan_exactly_at_a_cap_is_scored_and_one_ulp_over_is_not(
            self, monkeypatch, spare):
        # Two devices, three blocks, no drops.  Device 1 is fast and its
        # compute cap equals the load of the plan that keeps all three
        # blocks on it, so that plan reads use / cap == 1.0.  Device 2's
        # cap is ``spare`` times the lightest block: abundant, or too small
        # for any block, which leaves that plan the only feasible one.
        graph = chain3()
        c = block_arrays(graph)[0]
        rates = RateMatrix(np.full((2, 2), 10.0))  # transfers dominate
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=100.0)
        profile = helpers.profile_for(graph, [])

        def solve(cap):
            fleet = Fleet((DeviceSpec(1, 1e12, cap, 1e12, 2e5),
                           DeviceSpec(2, 1e12, spare * c.min(), 1e12, 1e5)))
            args = (graph, fleet, rates, profile, weights, EnergyParams(), 1)
            ev = _Evaluator(*args)
            hosts, ent = enumerated_candidates(ev)
            want = ev.score(hosts, ent)
            seen, tree = [], solvers._tree_scores

            def recorded(ev, batch):
                for out in tree(ev, batch):
                    seen.append(out[4])
                    yield out

            monkeypatch.setattr(solvers, "_tree_scores", recorded)
            try:
                got = solve_exact(*args)
            except InfeasibleInstance as exc:
                got = exc
            finally:
                monkeypatch.undo()
            return got, np.concatenate(seen or [np.zeros(0, dtype=int)]), want, hosts

        load = float(c.sum())  # whole mults: exact in any order
        got, scored, want, hosts = solve(load)
        assert 0 in scored and want[3][0]  # all on device 1: candidate 0
        assert got.feasible
        np.testing.assert_array_equal(got.assignment.hosts(0), [0, 0, 0])
        assert got.evaluations == 8

        got, scored, want, hosts = solve(np.nextafter(load, 0))
        assert 0 not in scored and not want[3][0]
        if spare < 1:
            assert isinstance(got, InfeasibleInstance)
            assert "exhausted 8 candidates" in str(got)
        else:
            # The earliest optimum of ``score`` over the whole enumeration.
            feasible = np.flatnonzero(want[3])
            first = feasible[np.lexsort((want[2][feasible], want[1][feasible]))[0]]
            assert first != 0
            np.testing.assert_array_equal(got.assignment.hosts(0), hosts[first])

    def test_certificate_rejects_before_scoring(self, monkeypatch, resnet50,
                                                shipped_profile):
        fleet = Fleet((
            DeviceSpec(1, 1e12, 1e12, 0.01, 1.4e9),
            DeviceSpec(2, 1e12, 1e12, 0.01, 2.8e9),
        ))
        rates = helpers.random_rates(np.random.default_rng(2), 2)
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=10.0, accuracy_threshold=0.8)
        calls = []
        monkeypatch.setattr(_Evaluator, "_finish", lambda *a: calls.append(a))
        with pytest.raises(InfeasibleInstance, match="block 1 fits no device"):
            solve_exact(resnet50, fleet, rates, shipped_profile, weights, EnergyParams(),
                        1, limits=ExactLimits(max_candidates=1_179_648))
        assert calls == []

    def test_instance_too_large_names_the_size(self):
        rng = np.random.default_rng(3)
        graph, fleet, rates, profile, weights = small_problem(rng)
        with pytest.raises(InstanceTooLarge) as exc_info:
            solve_exact(graph, fleet, rates, profile, weights, EnergyParams(),
                        2, limits=ExactLimits(max_candidates=10))
        assert exc_info.value.limit == 10
        assert exc_info.value.size > 10

    def test_candidate_numbers_past_int64_are_too_large_whatever_the_limit(self):
        # Candidate numbers are int64 and would wrap past 2**63 - 1, so a
        # larger enumeration is refused even under a larger limit.
        rng = np.random.default_rng(3)
        graph, fleet, rates, profile, weights = small_problem(rng)
        ev = _Evaluator(graph, fleet, rates, profile, weights, EnergyParams(), 1)
        per_request = sum(3 ** int(k) for k in ev.keep.sum(axis=1))
        r = next(r for r in itertools.count(1) if per_request ** r >= 2 ** 63)
        with pytest.raises(InstanceTooLarge, match=str(per_request ** r)) as exc_info:
            solve_exact(graph, fleet, rates, profile, weights, EnergyParams(), r,
                        limits=ExactLimits(max_candidates=10 ** 40))
        assert exc_info.value.size == per_request ** r
        assert exc_info.value.limit == 2 ** 63 - 1

    def test_zero_requests_short_circuit(self):
        rng = np.random.default_rng(4)
        graph, fleet, rates, profile, weights = small_problem(rng)
        res = solve_exact(graph, fleet, rates, profile, weights, EnergyParams(), 0)
        assert res.assignment.n_requests == 0
        assert res.feasible
        assert close(res.objective, weights.beta * (1 - profile.baseline))


class TestGaConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"population_size": 30_000_000},  # its tournament picks pass MEMORY_BOUND
            {"generations": -1},
            {"elite": 200},  # equal to the default population_size
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        assert GaConfig().population_size == 200
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            GaConfig(**kwargs)


class TestGaSolver:
    def ga(self, **kw):
        defaults = dict(population_size=20, generations=10, seed=0)
        defaults.update(kw)
        return GaConfig(**defaults)

    def test_deterministic_for_a_fixed_seed(self):
        rng = np.random.default_rng(21)
        graph, fleet, rates, profile, weights = small_problem(rng)
        a = solve_ga(graph, fleet, rates, profile, weights, EnergyParams(), 2,
                     config=self.ga(seed=5))
        b = solve_ga(graph, fleet, rates, profile, weights, EnergyParams(), 2,
                     config=self.ga(seed=5))
        assert a.as_dict() == b.as_dict()

    def test_results_are_resolved_and_profiled(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            graph, fleet, rates, profile, weights = small_problem(
                rng, n_blocks=int(rng.integers(3, 6)))
            n_req = int(rng.integers(1, 4))
            res = solve_ga(graph, fleet, rates, profile, weights,
                           EnergyParams(), n_req, config=self.ga())
            assert res.assignment.is_resolved()
            assert res.feasible == res.report.feasible
            for r in range(n_req):
                dropped = frozenset(
                    int(j) + 1 for j in np.flatnonzero(res.assignment.y[r] == 0))
                assert dropped in profile.entries
            assert res.evaluations == 20 + 10 * (20 - 1)
            assert len(res.history) == 11

    def test_never_beats_the_exact_optimum(self):
        wins = 0
        for seed in range(6):
            graph, fleet, rates, profile, weights, _ = tiny_exact_instance(seed)
            try:
                best = solve_exact(graph, fleet, rates, profile, weights,
                                   EnergyParams(), 1)
            except InfeasibleInstance:
                continue
            res = solve_ga(graph, fleet, rates, profile, weights,
                           EnergyParams(), 1,
                           config=self.ga(population_size=30, generations=20))
            if res.feasible:
                assert res.objective >= best.objective - 1e-12
                wins += 1
        assert wins >= 2

    def test_default_budget_never_beats_the_full_network_optimum(self):
        # The problem at its real size: ResNet-50 on two devices, one
        # request, 1,179,648 candidates a round, over four rounds' links.
        sc = build_scenario(load_config(overrides=("fleet.devices=2",)))
        w = sc.weights
        for k in range(4):
            _, rate_rng, solver_seed = round_seeds(sc.seed, k)
            rates = sample_rates(2, sc.rate_lo, sc.rate_hi, rate_rng, round_index=k)
            args = (sc.graph, sc.fleet, rates, sc.profile, w, sc.energy, 1)
            exact = solve_exact(*args, limits=ExactLimits(max_candidates=1_179_648),
                                memory_mode=sc.memory_mode)
            assert exact.feasible and exact.evaluations == 1_179_648
            x, y = exact.assignment.x.tolist(), exact.assignment.y.tolist()
            assert close(exact.objective, oracles.objective(
                sc.graph, sc.fleet, rates.rho.tolist(), x, y, sc.graph.weight_bytes,
                sc.profile, w.alpha, w.beta, w.latency_ref))
            ga = solve_ga(*args, config=replace(sc.ga, seed=solver_seed),
                          memory_mode=sc.memory_mode)
            assert ga.objective >= exact.objective - 1e-12

    def test_default_budget_never_beats_the_shipped_fleet_optimum(self):
        # The shipped 10-device fleet, one request: 2.28e17 candidates a
        # round, which the exact solver's bound makes practical.
        sc = build_scenario(load_config())
        w = sc.weights
        for k in range(4):
            _, rate_rng, solver_seed = round_seeds(sc.seed, k)
            rates = sample_rates(sc.fleet.n_devices, sc.rate_lo, sc.rate_hi, rate_rng,
                                 round_index=k)
            args = (sc.graph, sc.fleet, rates, sc.profile, w, sc.energy, 1)
            exact = solve_exact(*args, limits=ExactLimits(max_candidates=10 ** 18),
                                memory_mode=sc.memory_mode)
            assert exact.feasible
            x, y = exact.assignment.x.tolist(), exact.assignment.y.tolist()
            assert close(exact.objective, oracles.objective(
                sc.graph, sc.fleet, rates.rho.tolist(), x, y, sc.graph.weight_bytes,
                sc.profile, w.alpha, w.beta, w.latency_ref))
            ga = solve_ga(*args, config=replace(sc.ga, seed=solver_seed),
                          memory_mode=sc.memory_mode)
            assert ga.objective >= exact.objective - 1e-12

    def test_reported_objective_is_the_ranked_score_bit_for_bit(self):
        # The GA and its polish rank by _Evaluator.score; the result reports
        # evaluate_assignment's latency.  Both run the one cost model in
        # costs.py, so a feasible round's objective is its plan's score.
        feasible = 0
        for seed in range(4):
            sc = build_scenario(load_config(seed=seed))
            for k in range(sc.rounds):
                _, res = run_round(sc, k)
                if res is None or not res.feasible or not res.history:
                    continue  # unsolved, infeasible, or no requests
                feasible += 1
                r, a = res.assignment.n_requests, res.assignment
                rates = sample_rates(sc.fleet.n_devices, sc.rate_lo, sc.rate_hi,
                                     round_seeds(sc.seed, k)[1], round_index=k)
                ev = _Evaluator(sc.graph, sc.fleet, rates, sc.profile, sc.weights, sc.energy,
                                r, memory_mode=sc.memory_mode)
                hosts = np.array([a.hosts(q) for q in range(r)])
                ent = np.array([ev.drops.index(tuple(int(j) + 1 for j in np.flatnonzero(y == 0)))
                                for y in a.y])
                _pen, wo, _lat, feas = ev.score(hosts, ent)
                assert feas[0] and res.objective == wo[0], (seed, k)
        assert feasible >= 30

    def test_ga_counts_its_own_search_and_reports_the_polished_plan(self):
        # The polish scores moves after the last generation: they are not
        # evaluations and add no history entry, and its plan can only be
        # better than the GA's best.  Seed 0, round 7 is one it improves.
        sc = build_scenario(load_config(seed=0))
        p, g, elite = sc.ga.population_size, sc.ga.generations, sc.ga.elite
        below = set()
        for k in range(sc.rounds):
            _, res = run_round(sc, k)
            if res is None or not res.history:
                continue
            assert res.evaluations == p + g * (p - elite) == 8_160
            assert len(res.history) == g + 1 == 41
            if res.feasible:
                assert res.objective <= res.history[-1], k
                if res.objective < res.history[-1]:
                    below.add(k)
        assert 7 in below

    def test_abundant_budgets_recover_the_full_network(self, resnet50,
                                                        shipped_profile):
        fleet = Fleet(tuple(
            DeviceSpec(i + 1, 1e12, 1e13, 1e9, [1.4e9, 2.8e9][i % 2])
            for i in range(4)
        ))
        rates = helpers.random_rates(np.random.default_rng(1), 4,
                                     lo=7.2e6, hi=72.2e6)
        weights = ObjectiveWeights(0.0, 1.0, latency_ref=10.0,
                                   accuracy_threshold=0.8)
        res = solve_ga(resnet50, fleet, rates, shipped_profile, weights,
                       EnergyParams(), 2, config=self.ga())
        assert res.feasible
        assert res.accuracy == shipped_profile.baseline
        assert (res.assignment.y == 1).all()

    def test_infeasible_certificate_raised_before_search(self, resnet50,
                                                         shipped_profile):
        fleet = Fleet((
            DeviceSpec(1, 1e3, 1e12, 1e6, 1.4e9),
            DeviceSpec(2, 1e3, 1e12, 1e6, 2.8e9),
        ))
        rates = helpers.random_rates(np.random.default_rng(2), 2)
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=10.0,
                                   accuracy_threshold=0.8)
        with pytest.raises(InfeasibleInstance, match="memory"):
            solve_ga(resnet50, fleet, rates, shipped_profile, weights,
                     EnergyParams(), 1, config=self.ga())

    def test_population_over_the_memory_bound_is_too_large(self, monkeypatch):
        rng = np.random.default_rng(26)
        problem = small_problem(rng) + (EnergyParams(), 2)
        cfg = self.ga(generations=0)
        size = cfg.population_size * chromosome_length(2, problem[1].n_devices,
                                                       problem[0].n_blocks)
        monkeypatch.setattr(solvers, "MEMORY_BOUND", size - 1)
        with pytest.raises(InstanceTooLarge, match="GA population bytes") as exc_info:
            solve_ga(*problem, config=cfg)
        assert (exc_info.value.size, exc_info.value.limit) == (size, size - 1)
        monkeypatch.setattr(solvers, "MEMORY_BOUND", size)
        assert solve_ga(*problem, config=cfg).evaluations == cfg.population_size

    def test_zero_requests_short_circuit(self):
        rng = np.random.default_rng(23)
        graph, fleet, rates, profile, weights = small_problem(rng)
        res = solve_ga(graph, fleet, rates, profile, weights, EnergyParams(), 0,
                       config=self.ga())
        assert res.assignment.n_requests == 0
        assert res.evaluations == 0
        assert res.feasible

    def test_large_fleet_solves_to_a_resolved_plan(self):
        rng = np.random.default_rng(24)
        graph = helpers.random_graph(rng, n_blocks=3)
        fleet = helpers.random_fleet(rng, 70, cap_scale=1e-2)
        rates = helpers.random_rates(rng, 70)
        drop_sets = helpers.bridgeable_drop_sets(graph)
        profile = helpers.profile_for(graph, drop_sets)
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=100.0)
        res = solve_ga(graph, fleet, rates, profile, weights, EnergyParams(), 1,
                       config=self.ga(population_size=8, generations=2))
        assert res.assignment.is_resolved()
        assert np.isfinite(res.objective)


    @pytest.mark.parametrize("kwargs", [
        {"elite": 0},
        {"elite": 5},
        {"population_size": 2},
    ])
    def test_edge_settings_complete(self, kwargs):
        rng = np.random.default_rng(25)
        graph, fleet, rates, profile, weights = small_problem(rng, cap_scale=1.0)
        cfg = self.ga(**kwargs)
        res = solve_ga(graph, fleet, rates, profile, weights, EnergyParams(), 2,
                       config=cfg)
        p, g, elite = cfg.population_size, cfg.generations, cfg.elite
        assert res.evaluations == p + g * (p - elite)
        assert len(res.history) == g + 1
        assert res.assignment.is_resolved()
        if elite >= 1:
            assert all(b <= a for a, b in zip(res.history, res.history[1:]))


class TestPolish:
    """The descent on the GA's best plan: a move puts a kept block onto any
    device the plan uses, or a request onto another drop set."""

    @staticmethod
    def key(ev, hosts, ent):
        """The GA's ranking key of one plan."""
        pen, _wo, lat, feas = ev.score(hosts, ent)
        return pen[0], not feas[0], lat[0]

    @staticmethod
    def random_plans(devices, compute, seed, transmit=1.0):
        """An evaluator on the shipped model and random canonical plans, 1-3
        requests each: a random drop set per request, a random host per kept
        block, and each dropped block on the previous block's host.  The
        compute and energy budgets are scaled by ``compute``, the transmit
        power by ``transmit``."""
        rng = np.random.default_rng(seed)
        sc = build_scenario(load_config(overrides=(f"fleet.devices={devices}",)))
        fleet = sc.fleet.scaled(compute=compute, energy=compute)
        energy = EnergyParams(sc.energy.p_compute, sc.energy.p_transmit * transmit)
        rates = sample_rates(devices, sc.rate_lo, sc.rate_hi, rng)
        for r in (1, 2, 3):
            ev = _Evaluator(sc.graph, fleet, rates, sc.profile, sc.weights, energy, r,
                            memory_mode=sc.memory_mode)
            for _ in range(3):
                ent = rng.integers(0, len(ev.drops), size=r)
                hosts = rng.integers(0, devices, size=(r, ev.n_blocks))
                for j in range(1, ev.n_blocks):
                    hosts[:, j] = np.where(ev.keep[ent, j], hosts[:, j], hosts[:, j - 1])
                yield ev, hosts, ent

    # Compute and energy at 0.05 of the shipped budgets leave no plan
    # feasible; at 1.0 the polish reaches feasible plans.
    @pytest.mark.parametrize("devices", [10, 70])
    @pytest.mark.parametrize("compute", [1.0, 0.05])
    def test_the_key_never_rises(self, devices, compute):
        feasible = 0
        for ev, hosts, ent in self.random_plans(devices, compute, seed=devices):
            before = self.key(ev, hosts, ent)
            new_hosts, new_ent = _polish(ev, hosts.copy(), ent.copy())
            after = self.key(ev, new_hosts, new_ent)
            assert after <= before
            assert ev.to_assignment(new_hosts, new_ent).is_resolved()
            feasible += not after[1]
        assert (feasible > 0) == (compute == 1.0)

    @pytest.mark.parametrize("devices", [10, 70])
    def test_a_polished_plan_is_a_fixed_point(self, devices):
        for ev, hosts, ent in self.random_plans(devices, 1.0, seed=3):
            once = _polish(ev, hosts, ent)
            twice = _polish(ev, *once)
            np.testing.assert_array_equal(twice[0], once[0])
            np.testing.assert_array_equal(twice[1], once[1])

    def test_a_lone_block_on_a_slow_device_moves_back(self):
        # Blocks 1 and 3 on the fast device, block 2 alone on the slow one:
        # moving it back saves two transfers and the slow compute.
        graph = chain3()
        profile = AccuracyProfile(0.95, {frozenset(): ProfileEntry(frozenset(), 0.95)}, "t",
                                  n_blocks=3)
        rates = helpers.random_rates(np.random.default_rng(5), 2)
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=1e-3)
        ev = _Evaluator(graph, fleet_with_rates([9e5, 1e5]), rates, profile, weights,
                        EnergyParams(), 1)
        hosts, ent = np.array([[0, 1, 0]]), np.array([0])
        new_hosts, new_ent = _polish(ev, hosts.copy(), ent)
        np.testing.assert_array_equal(new_hosts, [[0, 0, 0]])
        assert self.key(ev, new_hosts, new_ent)[2] < self.key(ev, hosts, ent)[2]

    def test_a_request_alone_on_a_slow_device_joins_a_used_fast_one(self):
        # Request 2 sits whole on the slow device 1, so no chain neighbour
        # offers another host and only the empty drop set is allowed: a
        # search over chain-neighbour and drop-set moves stops here.  The
        # descent puts its blocks on device 0, which request 1 uses;
        # device 2, the fastest but unused, is never offered.
        graph = chain3()
        profile = AccuracyProfile(0.95, {frozenset(): ProfileEntry(frozenset(), 0.95)}, "t",
                                  n_blocks=3)
        rates = helpers.random_rates(np.random.default_rng(5), 3, lo=1e9, hi=2e9)
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=1e-3)
        ev = _Evaluator(graph, fleet_with_rates([9e5, 1e5, 2e6]), rates, profile, weights,
                        EnergyParams(), 2)
        hosts, ent = np.array([[0, 0, 0], [1, 1, 1]]), np.array([0, 0])
        new_hosts, new_ent = _polish(ev, hosts.copy(), ent.copy())
        np.testing.assert_array_equal(new_hosts, [[0, 0, 0], [0, 0, 0]])
        assert self.key(ev, new_hosts, new_ent)[2] < self.key(ev, hosts, ent)[2]

    def test_only_a_run_move_improves_a_request_on_a_slow_device(self):
        # Request 2 sits whole on the slow device 1, its two blocks one run;
        # request 1 uses the fast device 0.  Either block alone on device 0
        # adds a transfer that costs more than its compute saves, and any of
        # request 1's blocks on device 1 adds compute and a transfer; the
        # run on device 0 saves both blocks' compute and sends nothing.
        graph = ResNetGraph(blocks=chain3().blocks[:2], skip=SkipTopology(frozenset()))
        profile = AccuracyProfile(0.95, {frozenset(): ProfileEntry(frozenset(), 0.95)}, "t",
                                  n_blocks=2)
        rates = RateMatrix(np.array([[0.0, 1e6], [1e6, 0.0]]))
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=1e-3)
        ev = _Evaluator(graph, fleet_with_rates([9e5, 1e5]), rates, profile, weights,
                        EnergyParams(), 2)
        hosts, ent = np.array([[0, 0], [1, 1]]), np.array([0, 0])
        for q, j in itertools.product(range(2), range(2)):
            single = hosts.copy()
            single[q, j] = 1 - q
            assert self.key(ev, single, ent) > self.key(ev, hosts, ent)
        new_hosts, new_ent = _polish(ev, hosts.copy(), ent.copy())
        np.testing.assert_array_equal(new_hosts, [[0, 0], [0, 0]])
        assert self.key(ev, new_hosts, new_ent) < self.key(ev, hosts, ent)

    # At 0.3 of the shipped compute and energy budgets, with 100 times the
    # transmit power, the caps bind and transfers weigh on energy, so every
    # overrun term ranks the moves too.
    @pytest.mark.parametrize("devices", [10, 70])
    @pytest.mark.parametrize("compute,transmit", [(1.0, 1.0), (0.3, 100.0)])
    def test_each_step_takes_a_best_move_scored_as_a_whole_plan(self, devices, compute,
                                                                  transmit, monkeypatch):
        # Each move scored plainly, as a whole plan through ``score``: every
        # step of the polish takes a move whose key is the least, and the
        # plan it stops at has no better move.  A move is scored in the
        # polish as one row added to the other rows' sums, which can move a
        # key in its last bits, so keys within 1e-12 count as equal (moves
        # of two alike requests can tie exactly).
        def near_or_below(a, b):
            return a <= b or (a[1] == b[1] and np.isclose(a[0], b[0], rtol=1e-12, atol=0)
                              and np.isclose(a[2], b[2], rtol=1e-12, atol=0))

        def moves_of(ev, plan):
            """Each move's plan and its key.  A move sets a kept block's
            host to another used device, a request's drop set to another,
            or the hosts of a run (two or more consecutive kept blocks on
            one host) and the dropped blocks between them to another used
            device."""
            m = plan.shape[1] - 1
            kept = [ev.tables.kept[e] for e in plan[:, m]]
            used = sorted({int(d) for q, k in enumerate(kept) for d in plan[q, k]})
            cells = []
            for q, k in enumerate(kept):
                cells += [(q, j, j, d) for j in k for d in used if d != plan[q, j]]
                cells += [(q, m, m, e) for e in range(len(ev.drops)) if e != plan[q, m]]
                for host, run in itertools.groupby(k, key=lambda j: plan[q, j]):
                    run = list(run)
                    if len(run) > 1:
                        cells += [(q, run[0], run[-1], d) for d in used if d != host]
            tried = np.repeat(plan[None], len(cells), axis=0)
            for i, (q, first, last, val) in enumerate(cells):
                tried[i, q, first:last + 1] = val
            # A plan scores the same alone or in a batch.
            pen, _wo, lat, feas = score(ev, tried[:, :, :m].reshape(-1, m), tried[:, :, m].ravel())
            return tried, list(zip(pen, ~feas, lat))

        score, plans = _Evaluator.score, []

        def whole(ev, hosts, ent):
            # The polish scores only whole plans through ``score``.
            plans.append(np.concatenate([hosts, ent[:, None]], axis=1))
            return score(ev, hosts, ent)

        monkeypatch.setattr(_Evaluator, "score", whole)
        steps = runs = 0
        for ev, hosts, ent in self.random_plans(devices, compute, seed=7, transmit=transmit):
            plans.clear()
            got = _polish(ev, hosts.copy(), ent.copy())
            m = hosts.shape[1]
            keys = [(k[0][0], not k[3][0], k[2][0])
                    for k in (score(ev, p[:, :m], p[:, m]) for p in plans)]
            # The last plan scored can be a move whose key, as a whole plan,
            # is no lower; the polish then keeps the plan before it.
            final = np.concatenate([got[0], got[1][:, None]], axis=1)
            if not np.array_equal(plans[-1], final):
                assert near_or_below(keys[-1], keys[-2]) and not keys[-1] < keys[-2]
                del plans[-1], keys[-1]
            np.testing.assert_array_equal(plans[-1], final)
            for i, (plan, nxt) in enumerate(zip(plans, plans[1:])):
                tried, tried_keys = moves_of(ev, plan)
                assert any(np.array_equal(nxt, t) for t in tried)
                assert keys[i + 1] < keys[i]
                assert near_or_below(keys[i + 1], min(tried_keys))
                steps += 1
                runs += np.count_nonzero(plan[:, :m] != nxt[:, :m]) > 1
            assert all(near_or_below(keys[-1], k) for k in moves_of(ev, plans[-1])[1])
        assert steps > 9 and runs > 0

    @pytest.mark.parametrize("devices", [10, 70])
    def test_rows_score_the_same_on_the_devices_they_use(self, devices):
        for ev, hosts, ent in self.random_plans(devices, 1.0, seed=11):
            used = np.flatnonzero(np.bincount(hosts.ravel()))
            whole = ev.score(hosts, ent)
            cut = ev.on_devices(used).score(used.searchsorted(hosts), ent)
            for a, b in zip(cut, whole):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("r", [8, 9, 20])
    def test_other_rows_add_in_request_then_block_order_whatever_the_layout(self, r):
        # numpy sums a contiguous axis pairwise from 8 terms, so a sum that
        # followed the layout would differ between these copies in the last
        # bits.
        rng = np.random.default_rng(r)
        x = rng.random((r, 17)) * 10.0 ** rng.integers(-6, 3, size=(r, 17))
        want_rows = np.zeros((r, 17))
        want_total = np.zeros(r)
        for q in range(r):
            for j in range(17):
                for p in range(r):
                    if p != q:
                        want_rows[q, j] += x[p, j]
                want_total[q] += want_rows[q, j]
        for copy in (np.ascontiguousarray(x), np.asfortranarray(x)):
            rows = solvers._other_rows(copy)
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(solvers._in_order(rows), want_total)
            np.testing.assert_array_equal(solvers._in_order(np.asfortranarray(rows)),
                                          want_total)

    def test_solves_leave_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call, which adds over a
        # megabyte of resident memory; no solve path may call it.
        code = "\n".join((
            "import sys",
            "from resplan.config import build_scenario, load_config",
            "from resplan.fleet import sample_rates",
            "from resplan.harness import round_seeds, run_round",
            "from resplan.solvers import ExactLimits, solve_exact",
            "assert run_round(build_scenario(load_config()), 0)[1].evaluations",
            "sc = build_scenario(load_config(overrides=('fleet.devices=2',)))",
            "rates = sample_rates(2, sc.rate_lo, sc.rate_hi, round_seeds(0, 0)[1], round_index=0)",
            "assert solve_exact(sc.graph, sc.fleet, rates, sc.profile, sc.weights, sc.energy, 1,",
            "                   limits=ExactLimits(1_179_648), memory_mode=sc.memory_mode).feasible",
            "sys.exit('numpy.ma' in sys.modules)",
        ))
        src = os.path.dirname(os.path.dirname(solvers.__file__))
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestPolishStarts:
    """The GA polishes the search's best plan and the best distinct plans of
    its last generation, and returns the polished plan with the least key."""

    @staticmethod
    def recorded(monkeypatch):
        """Each ``_polish`` call of the next solves, as (start, polished)."""
        calls, polish = [], solvers._polish

        def record(ev, hosts, ent):
            got = polish(ev, hosts, ent)
            calls.append(((hosts.copy(), ent.copy()), got))
            return got

        monkeypatch.setattr(solvers, "_polish", record)
        return calls

    @staticmethod
    def same(a, b):
        return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("devices", [10, 70])
    def test_two_starts_never_lose_to_the_best_plan_alone(self, devices, monkeypatch):
        # Random rounds: the shipped model and fleet size, random link
        # rates, 1-3 requests, the default budget.
        rng = np.random.default_rng(devices)
        sc = build_scenario(load_config(overrides=(f"fleet.devices={devices}",)))
        calls = self.recorded(monkeypatch)
        second_starts = 0
        for r in (1, 2, 3):
            for _ in range(2):
                rates = sample_rates(devices, sc.rate_lo, sc.rate_hi, rng)
                calls.clear()
                res = solve_ga(sc.graph, sc.fleet, rates, sc.profile, sc.weights, sc.energy, r,
                               config=replace(sc.ga, seed=int(rng.integers(1 << 32))),
                               memory_mode=sc.memory_mode)
                ev = _Evaluator(sc.graph, sc.fleet, rates, sc.profile, sc.weights, sc.energy,
                                r, memory_mode=sc.memory_mode)
                assert 1 <= len(calls) <= 2
                (first, alone), *rest = calls
                # The first start is the search's best plan.
                assert TestPolish.key(ev, *first)[0] == min(res.history)
                got = (np.array([res.assignment.hosts(q) for q in range(r)]),
                       np.array([ev.drops.index(tuple(int(j) + 1 for j in np.flatnonzero(y == 0)))
                                 for y in res.assignment.y]))
                assert TestPolish.key(ev, *got) <= TestPolish.key(ev, *alone)
                for start, _polished in rest:
                    assert not self.same(start, first)
                    assert TestPolish.key(ev, *first) <= TestPolish.key(ev, *start)
                    second_starts += 1
        assert second_starts > 0

    def test_a_generation_of_one_plan_gives_one_start(self):
        hosts, ent = np.array([[0, 1, 1], [2, 2, 0]]), np.array([3, 0])
        b = 4
        gen_hosts, gen_ent = np.tile(hosts, (b, 1)), np.tile(ent, b)
        pen, lat, feas = np.arange(b, dtype=float), np.zeros(b), np.ones(b, dtype=bool)
        starts = solvers._polish_starts(hosts, ent, pen, lat, feas, gen_hosts, gen_ent)
        assert len(starts) == 1 and self.same(starts[0], (hosts, ent))
        # Individuals 1 and 3 hold another drop set, individual 2 another
        # host, all three scoring alike: the earliest of them is the second
        # start.
        gen_ent[1 * 2 + 1] = gen_ent[3 * 2 + 1] = 1
        gen_hosts[2 * 2, 0] = 1
        pen[1:] = 0.5
        starts = solvers._polish_starts(hosts, ent, pen, lat, feas, gen_hosts, gen_ent)
        assert len(starts) == 2
        assert self.same(starts[0], (hosts, ent))
        assert self.same(starts[1], (hosts, np.array([3, 1])))

    def test_the_second_start_wins_seed_1_round_8(self, monkeypatch):
        # A default-config round where the last generation's best other plan
        # polishes to a plan the best plan's descent does not reach.
        calls = self.recorded(monkeypatch)
        sc = build_scenario(load_config(seed=1))
        _, res = run_round(sc, 8)
        assert res.feasible and len(calls) == 2
        rates = sample_rates(sc.fleet.n_devices, sc.rate_lo, sc.rate_hi,
                             round_seeds(sc.seed, 8)[1], round_index=8)
        ev = _Evaluator(sc.graph, sc.fleet, rates, sc.profile, sc.weights, sc.energy,
                        res.assignment.n_requests, memory_mode=sc.memory_mode)
        (_, first), (_, second) = calls
        assert TestPolish.key(ev, *second) < TestPolish.key(ev, *first)
        assert res.objective == ev.score(*second)[1][0] < ev.score(*first)[1][0]


class TestMemoryMode:
    @pytest.mark.parametrize("mode,device2_mb", [
        ("inputs", 38.3), ("weights", 25.1), ("both", 63.5)])
    def test_breakdown_memory_uses_the_configured_mode(self, mode, device2_mb):
        scenario = build_scenario(load_config(
            overrides=[f"model.memory_mode={mode}"]))
        _record, res = run_round(scenario, 0)
        np.testing.assert_allclose(
            res.breakdown.memory_use,
            scenario.fleet.memory_caps - res.report.memory_margin,
            rtol=1e-12)
        assert res.breakdown.memory_use[1] / 1e6 == pytest.approx(device2_mb, abs=0.05)


def seed_assignment(bits, r, n, m):
    """The assignment a flat chromosome (x bits, then y bits) spells."""
    split = r * n * m
    return Assignment(bits[:split].reshape(r, n, m), bits[split:].reshape(r, m))


class TestGreedySeed:
    def evaluator_for(self, fleet, graph, profile, rng):
        rates = helpers.random_rates(rng, fleet.n_devices)
        weights = ObjectiveWeights(0.5, 0.5, latency_ref=100.0)
        return _Evaluator(graph, fleet, rates, profile, weights, EnergyParams(),
                          n_requests=2)

    def test_abundance_packs_each_request_on_the_fastest_device(self):
        rng = np.random.default_rng(41)
        graph = chain3()
        profile = helpers.profile_for(graph, [()])
        fleet = fleet_with_rates([5e5, 9e5, 1e5])
        ev = self.evaluator_for(fleet, graph, profile, rng)
        assign = seed_assignment(_greedy_seed(ev, chromosome_length(2, 3, 3)), 2, 3, 3)
        for r in range(2):
            np.testing.assert_array_equal(assign.hosts(r), [1, 1, 1])
            assert (assign.y[r] == 1).all()

    def test_tight_compute_budgets_spill_to_other_devices(self):
        rng = np.random.default_rng(42)
        graph = chain3()
        profile = helpers.profile_for(graph, [()])
        per_block = oracles.block_compute(graph.blocks[0])
        # Each device can compute exactly three blocks over both requests.
        fleet = Fleet(tuple(
            DeviceSpec(i + 1, 1e9, per_block * 3.0, 1e6, rate)
            for i, rate in enumerate([5e5, 9e5])
        ))
        ev = self.evaluator_for(fleet, graph, profile, rng)
        assign = seed_assignment(_greedy_seed(ev, chromosome_length(2, 2, 3)), 2, 2, 3)
        loads = np.zeros(2)
        for r in range(2):
            for j, host in enumerate(assign.hosts(r)):
                loads[host] += oracles.block_compute(graph.blocks[j])
        assert (loads <= fleet.compute_caps + 1e-9).all()


class TestSharedTables:
    """The tables of a graph, profile, accuracy threshold and memory mode,
    kept after a solve and reused by the next solve of the same four."""

    @staticmethod
    def solves(mode, threshold):
        """One round's exact and GA solves on two devices whose memory binds
        in the ``weights`` mode, as dicts."""
        sc = build_scenario(load_config(overrides=(
            "fleet.devices=2", "fleet.memory_mb=[45.0, 60.0]", f"model.memory_mode={mode}",
            f"weights.accuracy_threshold={threshold}")))
        rates = sample_rates(2, sc.rate_lo, sc.rate_hi, round_seeds(sc.seed, 0)[1], 0)
        args = (sc.graph, sc.fleet, rates, sc.profile, sc.weights, sc.energy, 1)
        return (sc.graph, sc.profile), [
            solve_exact(*args, limits=ExactLimits(max_candidates=1_179_648),
                        memory_mode=mode).as_dict(),
            solve_ga(*args, config=GaConfig(16, 4), memory_mode=mode).as_dict()]

    def test_each_threshold_and_memory_mode_solves_as_on_an_empty_cache(self, monkeypatch):
        # The shipped graph and profile are one object each, so only the
        # threshold and the memory mode in the key tell these tables apart.
        # Each case differs from the one before in one of them, and each
        # change moves the plans, so a key that left one out would hand a
        # solve the last solve's tables.
        monkeypatch.setattr(solvers, "_LAST_TABLES", (None, None))
        cases = [("inputs", 0.8), ("weights", 0.8), ("weights", 0.9), ("inputs", 0.9)]
        shared = [self.solves(*case) for case in cases]
        assert len({tuple(map(id, objects)) for objects, _ in shared}) == 1
        alone = []
        for case in cases:
            solvers._LAST_TABLES = (None, None)
            alone.append(self.solves(*case)[1])
        assert [dicts for _, dicts in shared] == alone
        assert alone[0] != alone[1] != alone[2] != alone[3]

    def test_a_scenario_builds_its_tables_once(self, monkeypatch):
        monkeypatch.setattr(solvers, "_LAST_TABLES", (None, None))
        built, tables = [], solvers._Tables
        monkeypatch.setattr(solvers, "_Tables", lambda *a: built.append(a) or tables(*a))
        sc = build_scenario(load_config(overrides=(
            "solver.population_size=8", "solver.generations=2")))
        assert sc.rounds == 10
        result = run_scenario(sc)
        assert result.summary["solved_rounds"] >= 5
        assert built == [(sc.graph, sc.profile, sc.weights.accuracy_threshold,
                          sc.memory_mode)]

    def test_shared_arrays_are_read_only(self):
        sc = build_scenario(load_config(overrides=("fleet.devices=2",)))
        ev = _Evaluator(sc.graph, sc.fleet, helpers.random_rates(np.random.default_rng(5), 2),
                        sc.profile, sc.weights, sc.energy, 1)
        t = ev.tables
        arrays = [v for v in vars(t).values() if isinstance(v, np.ndarray)] + [*t.kept, *t.after]
        assert len(arrays) == 10 + 2 * len(t.drops)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[:1] = 0
        for name in ("c", "m", "bits", "keep", "src", "acc", "dropped", "kept_c", "kept_m",
                     "src_bits"):
            assert getattr(ev, name) is getattr(t, name)
        assert ev.drops is t.drops

    def test_only_the_ga_builds_a_repair_table(self, monkeypatch):
        sc = build_scenario(load_config(overrides=("fleet.devices=2",)))
        rates = sample_rates(2, sc.rate_lo, sc.rate_hi, round_seeds(sc.seed, 0)[1], 0)
        args = (sc.graph, sc.fleet, rates, sc.profile, sc.weights, sc.energy, 1)
        built, table = [], solvers._RepairTable
        monkeypatch.setattr(solvers, "_RepairTable", lambda *a: built.append(a) or table(*a))
        solve_exact(*args, limits=ExactLimits(max_candidates=1_179_648))
        assert built == []
        solve_ga(*args, config=GaConfig(8, 2))
        assert len(built) == 1

    def test_only_the_last_tables_are_kept(self, monkeypatch):
        monkeypatch.setattr(solvers, "_LAST_TABLES", (None, None))
        sc = build_scenario(load_config(overrides=("fleet.devices=2",)))
        rates = helpers.random_rates(np.random.default_rng(6), 2)

        def tables(threshold):
            weights = replace(sc.weights, accuracy_threshold=threshold)
            return _Evaluator(sc.graph, sc.fleet, rates, sc.profile, weights,
                              sc.energy, 1).tables

        first = tables(0.8)
        assert tables(0.8) is first
        gone = weakref.ref(first)
        del first
        second = tables(0.9)
        gc.collect()
        assert gone() is None
        assert solvers._LAST_TABLES[1] is second and tables(0.9) is second
