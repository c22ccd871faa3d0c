"""Tests of the benchmark's own output checks.

Each workload runs at a tiny size and must pass every check; then an error
planted in one plan must make the matching check fail.

    python3 -m pytest benchmark/test_checks.py -q
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import run

run.add_repo_paths()

from checks import check_plan  # noqa: E402
from layers import ENTRY_LAYERS  # noqa: E402
from resplan.costs import Assignment  # noqa: E402

TINY_GA = ("solver.population_size=8", "solver.generations=4")

TINY = {
    "simulate-default": run.Workload(
        "simulate-default", "simulate", ("fleet.devices=6", "scenario.rounds=2") + TINY_GA,
        counts_ok=lambda c: min(c) >= 1 and max(c) <= 2),
    "simulate-large-fleet": run.Workload(
        "simulate-large-fleet", "simulate", ("fleet.devices=70", "scenario.rounds=1") + TINY_GA,
        counts_ok=lambda c: c == [2]),
    # A floor above every single drop leaves only keep-all: 2^17 candidates.
    "solve-exact-2dev": run.Workload(
        "solve-exact-2dev", "solve",
        ("solver.kind=exact", "fleet.devices=2", "weights.accuracy_threshold=0.93")
        + TINY_GA, rounds=(0,), requests=1),
}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    out = {}
    for name, wl in TINY.items():
        inputs = run.make_inputs(wl, seed=1)
        p = run.run_pass(wl, inputs, ENTRY_LAYERS, tmp_path_factory.mktemp(name))
        ga_cache = {}
        run.check_pass(wl, inputs, p, ga_cache)
        out[name] = (p, ga_cache.get(0))
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_every_check(passes, name):
    p, _ga = passes[name]
    assert p.plans and all(plan is not None for plan in p.plans)
    assert p.problems == [[]] * len(p.plans)


def _has(problems, check):
    return any(line.startswith(check + ":") for line in problems)


@pytest.mark.parametrize("name", sorted(TINY))
def test_perturbed_latency_fails_the_latency_check(passes, name):
    p, ga = passes[name]
    plan = p.plans[0]
    bd = plan.result.breakdown
    bad = replace(plan, result=replace(
        plan.result, breakdown=replace(bd, total_latency=bd.total_latency * (1 + 1e-6))))
    assert _has(check_plan(bad, ga), "latency")


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrong_evaluation_count_fails_the_count_check(passes, name):
    p, ga = passes[name]
    plan = p.plans[0]
    bad = replace(plan, result=replace(plan.result, evaluations=plan.result.evaluations + 1))
    assert _has(check_plan(bad, ga), "evaluations")


def test_drop_set_below_the_floor_fails_the_floor_check(passes):
    p, ga = passes["solve-exact-2dev"]
    plan = p.plans[0]
    graph = plan.call["graph"]
    j = next(b.block_id - 1 for b in graph.blocks if b.droppable)
    x = np.array(plan.result.assignment.x)
    y = np.array(plan.result.assignment.y)
    x[0, :, j] = 0
    y[0, j] = 0   # a single drop: 0.90 accuracy against a 0.93 floor
    bad = replace(plan, result=replace(plan.result, assignment=Assignment(x, y)))
    assert _has(check_plan(bad, ga), "floor")


def test_exact_objective_above_the_ga_fails_the_optimality_check(passes):
    p, ga = passes["solve-exact-2dev"]
    plan = p.plans[0]
    assert ga is not None and ga.feasible
    worse = replace(ga, objective=plan.result.objective * 0.5)
    assert _has(check_plan(plan, worse), "optimality")
