"""Output checks for the benchmark, made apart from the program.

Every number is recomputed with ``tests/oracles.py``, the project's
deliberate second implementation of the cost model, or checked against a
property the solver promises.  Each check returns a list of problems; an
empty list means the plan passed.  A problem string starts with the name of
the check that failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import oracles

REL_TOL = 1e-9


@dataclass
class Plan:
    """One solved round: the solver's inputs and what came out of it."""

    call: dict                 # solve_ga/solve_exact arguments, bound by name
    result: object             # SolveResult
    record: object = None      # MetricsRecord, when the round ran in the harness
    doc: dict | None = None    # JSON written by ``resplan solve``


def _close(a: float, b: float) -> bool:
    return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0)


def _lists(plan: Plan):
    a = plan.result.assignment
    return a.x.tolist(), a.y.tolist()


def allowed_drop_sets(graph, profile, threshold):
    """Profiled drop sets at or above the floor that the graph can execute."""
    m = len(graph.blocks)
    out = []
    for ds, entry in profile.entries.items():
        if entry.accuracy < threshold:
            continue
        if any(not graph.blocks[j - 1].droppable for j in ds):
            continue
        keep = [0 if (j + 1) in ds else 1 for j in range(m)]
        if oracles.edge_set(graph, keep) is not None:
            out.append(ds)
    return out


def exact_candidate_count(graph, profile, threshold, n_devices, n_requests) -> int:
    """(sum over allowed drop sets of N^|kept|)^R."""
    m = len(graph.blocks)
    per_request = sum(n_devices ** (m - len(ds))
                      for ds in allowed_drop_sets(graph, profile, threshold))
    return per_request ** n_requests


def plan_costs(call: dict, x, y) -> dict:
    """Every reported quantity of one assignment, from the oracles alone."""
    g, fleet, profile, w, en = (call["graph"], call["fleet"], call["profile"],
                                call["weights"], call["energy"])
    rho = call["rates"].rho.tolist()
    b = g.weight_bytes
    budgets = oracles.device_budgets(g, fleet, rho, x, y, b, call["memory_mode"],
                                     en.p_compute, en.p_transmit)
    accuracy = oracles.mean_accuracy(profile, y)
    fits = all(
        mem <= d.memory_cap and mults <= d.compute_cap and joules <= d.energy_cap
        for (mem, mults, joules), d in zip(budgets, fleet.devices)
    )
    return {
        "latency": oracles.total_latency(g, fleet, rho, x, y, b),
        "shared_bits": oracles.shared_data(g, x, y, b, len(fleet.devices)),
        "mults": oracles.total_computation(g, x, y),
        "accuracy": accuracy,
        "budgets": budgets,
        "objective": oracles.objective(g, fleet, rho, x, y, b, profile,
                                       w.alpha, w.beta, w.latency_ref),
        "feasible": fits and accuracy >= w.accuracy_threshold,
    }


def check_structure(plan: Plan) -> list[str]:
    """One host per kept block, none per dropped block; every drop set
    profiled, droppable, bridgeable and at or above the accuracy floor."""
    g, profile, w = plan.call["graph"], plan.call["profile"], plan.call["weights"]
    x, y = _lists(plan)
    problems = []
    for r, (x_r, y_r) in enumerate(zip(x, y)):
        for j, kept in enumerate(y_r):
            hosts = sum(row[j] for row in x_r)
            if hosts != (1 if kept else 0):
                problems.append(f"hosts: request {r} block {j + 1} "
                                f"{'kept' if kept else 'dropped'} with {hosts} hosts")
        drop = frozenset(j + 1 for j, kept in enumerate(y_r) if not kept)
        entry = profile.entries.get(drop)
        if entry is None:
            problems.append(f"profiled: request {r} drop set {sorted(drop)} is not profiled")
        elif entry.accuracy < w.accuracy_threshold:
            problems.append(f"floor: request {r} drop set {sorted(drop)} accuracy "
                            f"{entry.accuracy} below the accuracy floor "
                            f"{w.accuracy_threshold}")
        if any(not g.blocks[j - 1].droppable for j in drop):
            problems.append(f"droppable: request {r} drops a fixed block {sorted(drop)}")
        elif oracles.edge_set(g, y_r) is None:
            problems.append(f"bridgeable: request {r} drop set {sorted(drop)} "
                            "leaves a kept block without input")
    return problems


def check_costs(plan: Plan) -> list[str]:
    """Reported latency, data, multiplications, per-device use, accuracy,
    objective and feasibility against the oracles."""
    x, y = _lists(plan)
    want = plan_costs(plan.call, x, y)
    res, bd = plan.result, plan.result.breakdown
    pairs = [
        ("latency", bd.total_latency, want["latency"]),
        ("shared_bits", bd.shared_bits, want["shared_bits"]),
        ("mults", bd.total_mults, want["mults"]),
        ("accuracy", res.accuracy, want["accuracy"]),
        ("objective", res.objective, want["objective"]),
    ]
    for i, (mem, mults, joules) in enumerate(want["budgets"]):
        pairs += [
            (f"memory device {i + 1}", bd.memory_use[i], mem),
            (f"compute device {i + 1}", bd.compute_use[i], mults),
            (f"energy device {i + 1}", bd.energy[i], joules),
        ]
    energy = sum(j for _m, _c, j in want["budgets"])
    if plan.record is not None:
        rec = plan.record
        pairs += [
            ("record latency", rec.total_latency_s, want["latency"]),
            ("record shared_bits", rec.shared_data_bits, want["shared_bits"]),
            ("record mults", rec.total_computation_mults, want["mults"]),
            ("record energy", rec.total_energy_j, energy),
            ("record accuracy", rec.avg_accuracy, want["accuracy"]),
            ("record objective", rec.objective, want["objective"]),
        ]
    if plan.doc is not None:
        doc = plan.doc
        pairs += [
            ("output latency", doc["total_latency_s"], want["latency"]),
            ("output shared_bits", doc["shared_data_bits"], want["shared_bits"]),
            ("output mults", doc["total_computation_mults"], want["mults"]),
            ("output energy", doc["total_energy_j"], energy),
            ("output accuracy", doc["accuracy"], want["accuracy"]),
            ("output objective", doc["objective"], want["objective"]),
        ]
    problems = [f"{name}: reported {got!r}, oracle {exp!r}"
                for name, got, exp in pairs if not _close(got, exp)]
    flags = [("feasible", res.feasible)]
    if plan.record is not None:
        flags.append(("record feasible", plan.record.feasible))
    if plan.doc is not None:
        flags.append(("output feasible", plan.doc["feasible"]))
    problems += [f"{name}: reported {got}, budget check says {want['feasible']}"
                 for name, got in flags if bool(got) != want["feasible"]]
    return problems


def check_ga(plan: Plan) -> list[str]:
    """Evaluation count and a history that never rises under elitism."""
    cfg, res = plan.call["config"], plan.result
    if plan.call["n_requests"] == 0:
        return []
    problems = []
    p, g, elite = cfg.population_size, cfg.generations, cfg.elite
    want = p + g * (p - elite)
    if res.evaluations != want:
        problems.append(f"evaluations: {res.evaluations}, P + G*(P - elite) = {want}")
    if res.generations != g or len(res.history) != g + 1:
        problems.append(f"history: {len(res.history)} entries for {g} generations")
    if elite >= 1 and any(b > a for a, b in zip(res.history, res.history[1:])):
        problems.append("history: the best score rose between generations")
    return problems


def keep_all_on_fastest(call: dict) -> dict:
    """Oracle costs of every block of every request on the fastest device."""
    fleet, g, r = call["fleet"], call["graph"], call["n_requests"]
    rates = [d.mult_rate for d in fleet.devices]
    fastest = rates.index(max(rates))
    m = len(g.blocks)
    x = [[[1 if i == fastest else 0 for _ in range(m)] for i in range(len(rates))]
         for _ in range(r)]
    y = [[1] * m for _ in range(r)]
    return plan_costs(call, x, y)


def check_exact(plan: Plan, ga_result=None) -> list[str]:
    """Candidate count from the profile, and an objective no worse than the
    GA's or keep-all-on-the-fastest-device's when those are feasible."""
    call, res = plan.call, plan.result
    problems = []
    want = exact_candidate_count(call["graph"], call["profile"],
                                 call["weights"].accuracy_threshold,
                                 call["fleet"].n_devices, call["n_requests"])
    if res.evaluations != want:
        problems.append(f"evaluations: {res.evaluations}, enumeration size {want}")
    if not res.feasible:
        problems.append("feasible: the exhaustive optimum is flagged infeasible")
    rivals = [("keep-all on the fastest device", keep_all_on_fastest(call))]
    if ga_result is not None:
        rivals.append(("GA", {"objective": ga_result.objective,
                              "feasible": ga_result.feasible}))
    for name, rival in rivals:
        bound = rival["objective"] * (1 + REL_TOL)
        if rival["feasible"] and res.objective > bound:
            problems.append(f"optimality: objective {res.objective!r} above the "
                            f"{name} objective {rival['objective']!r}")
    return problems


def check_plan(plan: Plan, ga_result=None) -> list[str]:
    """All checks that apply to one solved round."""
    problems = check_structure(plan)
    if problems:
        return problems  # the cost oracles assume a well-formed assignment
    problems += check_costs(plan)
    if plan.result.solver == "ga":
        problems += check_ga(plan)
    else:
        problems += check_exact(plan, ga_result)
    return problems
