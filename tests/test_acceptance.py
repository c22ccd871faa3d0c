"""End-to-end acceptance gate.

Each test checks one release criterion and registers a PASS/FAIL line that
the conftest hook prints in the terminal summary, so a plain ``pytest -q``
run ends with the full verdict list.  The trend tests pool rounds from the
shipped sweep presets over ten seeds at a reduced search budget (population
60, generations 60); the reduced budget keeps the whole gate around ten
minutes and the shipped presets were sized so every trend margin survives it.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import helpers
import oracles
from conftest import record_verdict
from resplan import cli
from resplan.config import (
    PRESET_NAMES,
    build_scenario,
    build_sweep_axis,
    load_config,
    preset_text,
    sweep_variants,
)
from resplan.costs import Assignment, evaluate_assignment
from resplan.errors import InfeasibleInstance
from resplan.fleet import DeviceSpec, EnergyParams, Fleet, RateMatrix, sample_rates
from resplan.graph import BlockSpec, LayerSpec, ResNetGraph, SkipTopology
from resplan.harness import run_scenario, sweep
from resplan.objective import ObjectiveWeights
from resplan.solvers import GaConfig, repair_allocation, solve_exact, solve_ga

BUDGET = ("solver.population_size=60", "solver.generations=60")
SEEDS = tuple(range(10))
EPS = 1e-12


def verdict(ok: bool, label: str, detail: str) -> None:
    record_verdict(ok, label, detail)
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="session")
def preset_runs():
    """Lazy cache: preset name -> one sweep result tuple per seed."""
    cache: dict[str, list] = {}

    def get(name: str):
        if name not in cache:
            runs = []
            for seed in SEEDS:
                cfg = load_config(preset_text(name), overrides=BUDGET,
                                  seed=seed)
                variants = sweep_variants(build_scenario(cfg), build_sweep_axis(cfg))
                runs.append(sweep(variants))
            cache[name] = runs
        return cache[name]

    return get


def feasible_records(runs, label):
    recs = []
    for variants in runs:
        for variant in variants:
            if variant.label == label:
                recs.extend(r for r in variant.records if r.feasible)
    return recs


def mean_metric(recs, field):
    return float(np.mean([getattr(r, field) for r in recs]))


def latency_per_request(recs):
    vals = [r.total_latency_s / r.n_requests for r in recs if r.n_requests]
    return float(np.mean(vals))


def relative_error(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_cost_engine_matches_reference_evaluators():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    n_instances = 120
    max_err = 0.0
    params = EnergyParams()
    for _ in range(n_instances):
        graph = helpers.random_graph(rng, n_blocks=int(rng.integers(3, 7)))
        n_dev = int(rng.integers(1, 5))
        n_req = int(rng.integers(0, 4))
        fleet = helpers.random_fleet(rng, n_dev)
        rates = helpers.random_rates(rng, n_dev)
        x, y = helpers.random_assignment(rng, graph, n_dev, n_req)
        m = len(graph.blocks)
        assign = Assignment(
            np.array(x, dtype=np.uint8).reshape(n_req, n_dev, m),
            np.array(y, dtype=np.uint8).reshape(n_req, m))
        bd = evaluate_assignment(assign, graph, fleet, rates, params)
        b = graph.weight_bytes
        max_err = max(
            max_err,
            relative_error(bd.total_latency,
                           oracles.total_latency(graph, fleet, rates.rho,
                                                 x, y, b)),
            relative_error(bd.shared_bits,
                           oracles.shared_data(graph, x, y, b, n_dev)),
            relative_error(bd.total_mults,
                           oracles.total_computation(graph, x, y)),
        )
        budgets = oracles.device_budgets(graph, fleet, rates.rho, x, y, b,
                                         "inputs", params.p_compute,
                                         params.p_transmit)
        for i, (mem, mults, joules) in enumerate(budgets):
            max_err = max(max_err,
                          relative_error(bd.memory_use[i], mem),
                          relative_error(bd.compute_use[i], mults),
                          relative_error(bd.energy[i], joules))
    wall = time.perf_counter() - t0
    ok = max_err <= 1e-9 and wall < 10.0
    verdict(ok, "1 cost engine vs reference evaluators",
            f"{n_instances} random instances, max relative error "
            f"{max_err:.2e} (limit 1e-9), {wall:.1f}s (limit 10s)")


def test_repair_yields_unique_hosts_and_is_idempotent():
    chain = ResNetGraph(blocks=(
        BlockSpec(1, 1, "stem", (LayerSpec("conv", 1, 2, 2, 2, 8),), False, 8),
        BlockSpec(2, 2, "conv_block", (LayerSpec("conv", 1, 2, 2, 2, 8),),
                  False, 8),
        BlockSpec(3, 2, "conv_block", (LayerSpec("conv", 1, 2, 2, 2, 8),),
                  False, 8),
    ), skip=SkipTopology(frozenset()))
    fleet = Fleet(tuple(DeviceSpec(i + 1, 1e9, 1e12, 1e6, rate)
                        for i, rate in enumerate([5e5, 9e5, 1e5])))
    rates = RateMatrix(np.array([[0.0, 50.0, 10.0],
                                 [50.0, 0.0, 20.0],
                                 [10.0, 20.0, 0.0]]))

    def run_branch(block1_hosts, block3_host):
        x = np.zeros((1, 3, 3), dtype=np.uint8)
        x[0, block1_hosts, 0] = 1
        x[0, [0, 1], 1] = 1
        x[0, block3_host, 2] = 1
        out = repair_allocation(Assignment(x, np.ones((1, 3), dtype=np.uint8)),
                                chain, fleet, rates)
        return list(out.hosts(0))

    branches_ok = (
        run_branch([0], 0) == [0, 0, 0]        # previous device still offered
        and run_branch([2], 1) == [2, 1, 1]    # best link from the previous host
        and run_branch([0, 1, 2], 1) == [1, 1, 1]  # fastest device opens the chain
    )

    rng = np.random.default_rng(77)
    n_cases = 1000
    resolved = idempotent = 0
    for _ in range(n_cases):
        graph = helpers.random_graph(rng, n_blocks=int(rng.integers(3, 7)))
        n_dev = int(rng.integers(2, 5))
        n_req = int(rng.integers(1, 4))
        flt = helpers.random_fleet(rng, n_dev)
        rho = helpers.random_rates(rng, n_dev)
        x, y = helpers.random_assignment(rng, graph, n_dev, n_req)
        x = np.array(x, dtype=np.uint8)
        y = np.array(y, dtype=np.uint8)
        extra = (rng.random(x.shape) < 0.35).astype(np.uint8)
        x = np.maximum(x, extra * y[:, None, :])
        fixed = repair_allocation(Assignment(x, y), graph, flt, rho)
        if fixed.is_resolved() and (fixed.x <= x).all():
            resolved += 1
        again = repair_allocation(fixed, graph, flt, rho)
        if (again.x == fixed.x).all():
            idempotent += 1
    ok = branches_ok and resolved == n_cases and idempotent == n_cases
    verdict(ok, "2 repair pass correctness",
            f"{resolved}/{n_cases} resolved, {idempotent}/{n_cases} "
            f"idempotent, branch winners {'3/3' if branches_ok else 'WRONG'}")


def tiny_instance(seed):
    """Two devices, four blocks, one request, three allowed drop sets."""
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
    return graph, fleet, rates, profile, weights


def test_tiny_instances_exact_dominates_and_ga_is_near_optimal():
    t0 = time.perf_counter()
    ga_cfg = GaConfig(population_size=40, generations=40, seed=0)
    dominated = within_5pct = solved = 0
    seed = 0
    while solved < 20:
        graph, fleet, rates, profile, weights = tiny_instance(seed)
        seed += 1
        try:
            exact = solve_exact(graph, fleet, rates, profile, weights,
                                EnergyParams(), 1)
        except InfeasibleInstance:
            continue
        solved += 1
        ga = solve_ga(graph, fleet, rates, profile, weights, EnergyParams(),
                      1, config=ga_cfg)
        if ga.feasible and exact.objective <= ga.objective + 1e-9:
            dominated += 1
        if ga.feasible and ga.objective <= exact.objective * 1.05 + EPS:
            within_5pct += 1
    wall = time.perf_counter() - t0
    ok = dominated == 20 and within_5pct >= 18 and wall < 60.0
    verdict(ok, "3 exhaustive-search dominance and GA gap",
            f"exact <= GA on {dominated}/20, GA within 5% on "
            f"{within_5pct}/20 (need 18), {wall:.1f}s (limit 60s)")


def test_feasible_rounds_never_break_the_accuracy_floor(preset_runs):
    total = violations = 0
    for name in PRESET_NAMES:
        threshold = load_config(preset_text(name))["weights"][
            "accuracy_threshold"]
        for variants in preset_runs(name):
            for variant in variants:
                for rec in variant.records:
                    if not rec.feasible:
                        continue
                    total += 1
                    if rec.avg_accuracy < threshold - EPS:
                        violations += 1
    ok = violations == 0 and total > 0
    verdict(ok, "4 accuracy threshold invariant",
            f"{violations} violations across {total} feasible rounds "
            f"({len(PRESET_NAMES)} presets x {len(SEEDS)} seeds)")


def test_pure_latency_weights_trade_accuracy_for_speed(preset_runs):
    runs = preset_runs("sweep_weights")
    fast = feasible_records(runs, "alpha1_beta0")
    accurate = feasible_records(runs, "alpha0_beta1")
    acc_fast, acc_full = mean_metric(fast, "avg_accuracy"), mean_metric(
        accurate, "avg_accuracy")
    lat_fast, lat_full = latency_per_request(fast), latency_per_request(
        accurate)
    ok = acc_fast <= acc_full + EPS and lat_fast <= lat_full + EPS
    verdict(ok, "5 weight-split trend (latency vs accuracy)",
            f"accuracy {acc_fast:.4f} <= {acc_full:.4f}, latency/request "
            f"{lat_fast:.3f}s <= {lat_full:.3f}s under the pure-latency split")


def test_energy_budget_growth_raises_accuracy_and_lowers_latency(preset_runs):
    runs = preset_runs("sweep_energy")
    labels = ("energy_x0.0085", "energy_x0.022", "energy_x1")
    accs, lats = [], []
    for label in labels:
        recs = feasible_records(runs, label)
        accs.append(mean_metric(recs, "avg_accuracy"))
        lats.append(latency_per_request(recs))
    ok = (accs[0] <= accs[1] + EPS and accs[1] <= accs[2] + EPS
          and lats[0] >= lats[1] - EPS and lats[1] >= lats[2] - EPS)
    verdict(ok, "6 energy-budget trend",
            "accuracy " + " -> ".join(f"{a:.4f}" for a in accs)
            + " non-decreasing, latency/request "
            + " -> ".join(f"{l:.3f}s" for l in lats) + " non-increasing")


def test_request_rate_growth_raises_shared_data_energy_and_compute(
        preset_runs):
    runs = preset_runs("sweep_request_rate")
    labels = ("lambda1", "lambda3", "lambda5")
    shared, energy, mults = [], [], []
    for label in labels:
        recs = feasible_records(runs, label)
        shared.append(mean_metric(recs, "shared_data_bits"))
        energy.append(mean_metric(recs, "total_energy_j"))
        mults.append(mean_metric(recs, "total_computation_mults"))
    rising = all(seq[0] <= seq[1] + EPS and seq[1] <= seq[2] + EPS
                 for seq in (shared, energy, mults))
    verdict(rising, "7 request-rate trend",
            f"shared bits {shared[0]:.3g} -> {shared[1]:.3g} -> "
            f"{shared[2]:.3g}, energy {energy[0]:.3g} -> {energy[1]:.3g} -> "
            f"{energy[2]:.3g} J, mults {mults[0]:.3g} -> {mults[1]:.3g} -> "
            f"{mults[2]:.3g}, all non-decreasing")


def test_abundant_budgets_keep_the_whole_network(resnet50, shipped_profile):
    fleet = Fleet(tuple(DeviceSpec(i + 1, 1e15, 1e15, 1e12, 5e9)
                        for i in range(4)))
    weights = ObjectiveWeights(0.0, 1.0, latency_ref=100.0,
                               accuracy_threshold=0.8)
    clean = 0
    worst = 0.0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        rates = sample_rates(4, 7.2e6, 72.2e6, rng=rng)
        result = solve_ga(resnet50, fleet, rates, shipped_profile, weights,
                          EnergyParams(), 3,
                          config=GaConfig(population_size=60, generations=60,
                                          seed=seed))
        gap = abs(result.accuracy - shipped_profile.baseline)
        worst = max(worst, gap)
        # Averaging three identical per-request accuracies costs one ulp,
        # so the mean is compared at 1e-12 while the structure is exact.
        if result.feasible and (result.assignment.y == 1).all() and gap <= EPS:
            clean += 1
    verdict(clean == len(SEEDS), "8 abundance sanity",
            f"{clean}/{len(SEEDS)} seeds kept all blocks, accuracy matches "
            f"the {shipped_profile.baseline} baseline (worst gap {worst:.1e})")


def test_cli_reruns_are_byte_identical(tmp_path):
    fast = ["--set", "solver.population_size=16",
            "--set", "solver.generations=4",
            "--set", "fleet.devices=4",
            "--set", "fleet.compute_gmults=[10.0, 10.0]",
            "--set", "scenario.lam=1.5",
            "--set", "scenario.rounds=3"]
    sweep_args = ["--set", "sweep.axis=energy",
                  "--set", "sweep.values=[0.5, 1.0]"]
    identical = []

    for tag, argv, names in (
        ("model", ["model"], None),
        ("solve", ["solve", "--requests", "2"] + fast, None),
        ("simulate", ["simulate"] + fast,
         ("rounds.csv", "summary.json", "effective_config.yaml")),
        ("sweep", ["sweep"] + fast + sweep_args,
         ("sweep.csv", "summary.csv", "effective_config.yaml")),
    ):
        if names is None:
            paths = [tmp_path / f"{tag}_{i}.out" for i in (0, 1)]
            for path in paths:
                assert cli.main(argv + ["--output", str(path)]) == 0
            identical.append((tag, paths[0].read_bytes()
                              == paths[1].read_bytes()))
        else:
            dirs = [tmp_path / f"{tag}_{i}" for i in (0, 1)]
            for d in dirs:
                assert cli.main(argv + ["--output-dir", str(d)]) == 0
            identical.append((tag, all(
                (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
                for n in names)))
    ok = all(same for _, same in identical)
    verdict(ok, "9 byte-identical determinism",
            ", ".join(f"{tag} {'ok' if same else 'DIFFERS'}"
                      for tag, same in identical))


def test_reference_scenario_completes_within_budget():
    scenario = build_scenario(load_config())
    t0 = time.perf_counter()
    result = run_scenario(scenario)
    wall = time.perf_counter() - t0
    ok = wall < 300.0 and len(result.records) == scenario.rounds
    verdict(ok, "10 desk-scale runtime budget",
            f"10 devices, 17 blocks, lam 3, 10 rounds, default search "
            f"budget: {wall:.1f}s (limit 300s)")
