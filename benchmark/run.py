"""resplan benchmark: planning time, search throughput and plan quality.

    python3 benchmark/run.py --workload simulate-default --seed 0 --seconds 20 --trace 0

Runs one workload through the ``resplan simulate``/``solve`` entry points
in this process, in as many whole passes as fit in ``--seconds`` (at least
one).  Times are paced to a reference machine speed (``pace.py``).  Every
solved round is checked against ``tests/oracles.py`` and the solver's
own guarantees (see ``checks.py``); a round that errors or fails a check
counts as failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
traced run also writes its spans to ``benchmark/runs/``.  README.md gives
the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
RUNS = HERE / "runs"

SETUP_REPS = 5
SEED_STRIDE = 100_000

# Set-up as a user pays it, in a fresh interpreter: import, load, build.
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from pace import Pace
with Pace(0.01) as pace:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    from resplan.config import build_scenario, load_config
    build_scenario(load_config(overrides=json.loads(sys.argv[3]), seed=int(sys.argv[4])))
    t1 = time.perf_counter()
print(json.dumps([t0, t1, pace.starts, pace.durations]))
"""


def add_repo_paths() -> None:
    """Import resplan and the oracles from this checkout, never elsewhere."""
    if not (SRC / "resplan" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        raise SystemExit(f"benchmark: {SRC}/resplan or {TESTS}/oracles.py is missing; "
                         "run from a checkout of the repository")
    for path in (str(HERE), str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                                   # "simulate" or "solve"
    overrides: tuple[str, ...] = ()
    # simulate: the rounds' request counts a scenario seed must draw
    counts_ok: Callable[[list[int]], bool] | None = None
    # solve: round indices per pass, and the fixed request count
    rounds: tuple[int, ...] = ()
    requests: int = 1


# The seed picks link rates and GA draws.  Request counts are held fixed, so
# that every seed plans the same amount of work: GA time grows with the
# request count and a Poisson total varies by about 18% between seeds.
WORKLOADS = {w.name: w for w in (
    # Default config: 10 devices, lambda=3, 10 rounds, P=100, G=200.  The
    # 10 rounds draw 30 requests (lambda x rounds), 1 to 5 each: an empty
    # round plans nothing, and from 7 requests on the fleet's compute is
    # provably too small, so the round ends as an error.
    Workload("simulate-default", "simulate",
             counts_ok=lambda c: min(c) >= 1 and max(c) <= 5 and sum(c) == 30),
    # More than 63 devices takes the generic canonicalize path; 3 rounds of
    # exactly lambda=3 requests each.
    Workload("simulate-large-fleet", "simulate",
             ("fleet.devices=70", "scenario.rounds=3"),
             counts_ok=lambda c: c == [3, 3, 3]),
    # Exhaustive search, score only: 1,179,648 candidates per solve.
    Workload("solve-exact-2dev", "solve",
             ("solver.kind=exact", "fleet.devices=2", "solver.max_candidates=1179648"),
             rounds=(0, 1), requests=1),
)}


@dataclass
class Inputs:
    scenario: object            # ScenarioConfig built from the workload's config
    seed: int                   # the value passed to the program as --seed
    counts: list[int] = field(default_factory=list)


def make_inputs(wl: Workload, seed: int) -> Inputs:
    from resplan.config import build_scenario, load_config
    from resplan.fleet import sample_requests
    from resplan.harness import round_seeds

    scenario = build_scenario(load_config(overrides=wl.overrides, seed=seed))
    if wl.counts_ok is None:
        return Inputs(scenario, seed)
    for s in range(seed * SEED_STRIDE, (seed + 1) * SEED_STRIDE):
        counts = [sample_requests(scenario.lam, round_seeds(s, k)[0], k).count
                  for k in range(scenario.rounds)]
        if wl.counts_ok(counts):
            return Inputs(replace(scenario, seed=s), s, counts)
    raise RuntimeError(f"no scenario seed in block {seed} draws the request counts "
                       f"{wl.name} needs")


@dataclass
class Pass:
    tracer: object
    start: float
    end: float
    rounds: list                # round spans, in order
    plans: list                 # Plan or None per attempted operation
    problems: list              # list of problem strings per attempted operation


def run_pass(wl: Workload, inputs: Inputs, layers, out_dir: Path) -> Pass:
    from resplan import cli
    from checks import Plan
    from layers import Tracer

    sets = [a for o in wl.overrides for a in ("--set", o)]
    tracer = Tracer()
    codes = []
    with tracer.installed(layers), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        if wl.command == "simulate":
            with tracer.span("cli.simulate"):
                codes.append(cli.main(["simulate", *sets, "--seed", str(inputs.seed),
                                       "--output-dir", str(out_dir)]))
        else:
            for k in wl.rounds:
                with tracer.span("cli.solve", round_index=k):
                    codes.append(cli.main([
                        "solve", *sets, "--seed", str(inputs.seed),
                        "--requests", str(wl.requests), "--round", str(k),
                        "--output", str(out_dir / f"solve-round{k}.json")]))
        t1 = time.perf_counter()

    def solve_under(span):
        kids = [s for s in tracer.spans if s.parent == span.id and s.name == "solvers.solve"]
        return kids[0] if kids and kids[0].returned is not None else None

    plans = []
    if wl.command == "simulate":
        rounds = tracer.named("harness.run_round")
        for rr in rounds:
            record, result = rr.returned if rr.returned is not None else (None, None)
            solve = solve_under(rr)
            ok = result is not None and solve is not None
            plans.append(Plan(solve.call, result, record=record) if ok else None)
        plans += [None] * (inputs.scenario.rounds - len(rounds))
    else:
        rounds = tracer.named("cli.solve")
        for k, rr, code in zip(wl.rounds, rounds, codes):
            solve = solve_under(rr)
            if code != 0 or solve is None:
                plans.append(None)
                continue
            doc = json.loads((out_dir / f"solve-round{k}.json").read_text(encoding="utf-8"))
            plans.append(Plan(solve.call, solve.returned, doc=doc))
    return Pass(tracer, t0, t1, rounds, plans, [])


def check_pass(wl: Workload, inputs: Inputs, p: Pass, ga_cache: dict) -> None:
    """Fill p.problems; the GA reference for an exact round is solved once."""
    from checks import check_plan
    from resplan.harness import round_seeds
    from resplan.solvers import solve_ga

    for i, plan in enumerate(p.plans):
        if plan is None:
            p.problems.append(["error: the round produced no plan"])
            continue
        problems = []
        if plan.record is not None and plan.record.n_requests != inputs.counts[i]:
            problems.append(f"requests: round {i} planned {plan.record.n_requests} "
                            f"requests, the seed draws {inputs.counts[i]}")
        ga = None
        if plan.result.solver == "exact":
            k = wl.rounds[i]
            if k not in ga_cache:
                call = {name: plan.call[name] for name in (
                    "graph", "fleet", "rates", "profile", "weights", "energy",
                    "n_requests", "memory_mode")}
                cfg = replace(inputs.scenario.ga, seed=round_seeds(inputs.seed, k)[2])
                ga_cache[k] = solve_ga(config=cfg, **call)
            ga = ga_cache[k]
        p.problems.append(problems + check_plan(plan, ga))


def last_improvement(history) -> int:
    """Generation of the last drop of the best score; 0 when it never drops."""
    gen = 0
    for g in range(1, len(history)):
        if history[g] < history[g - 1]:
            gen = g
    return gen


def solved(p: Pass) -> list:
    return [plan for plan in p.plans if plan is not None]


def end_to_end(passes: list[Pass], pace, setup: list) -> dict:
    """Times are at the reference machine speed (see pace.py)."""
    solves = [sp for p in passes for sp in p.tracer.named("solvers.solve")
              if sp.returned is not None]
    evaluations = sum(sp.returned.evaluations for sp in solves)
    objectives = [plan.result.objective for p in passes for plan in solved(p)]
    return {
        "setup_s": (statistics.median(child.scaled(t0, t1) for child, t0, t1 in setup),
                    "s"),
        "wall_s": (statistics.median(pace.scaled(p.start, p.end) for p in passes), "s"),
        "round_s_p50": (statistics.median(pace.scaled(sp.start, sp.end)
                                          for p in passes for sp in p.rounds), "s"),
        "evals_per_s": (evaluations / sum(pace.scaled(sp.start, sp.end)
                                          for sp in solves), "1/s"),
        "mean_objective": (statistics.fmean(objectives), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(p: Pass, pace) -> dict:
    """Per-layer figures of one traced pass: seconds and counts per pass,
    except config.*, which are per call.  Seconds are scaled by the run's
    mean pace factor."""
    t = p.tracer
    f = pace.factor()
    solves = [sp for sp in t.named("solvers.solve") if sp.returned is not None]
    evaluations = sum(sp.returned.evaluations for sp in solves)
    solve_s = f * sum(sp.duration for sp in solves)
    ga = [sp.returned.history for sp in solves if sp.returned.solver == "ga"]
    edge_calls, edge_s = t.calls("graph.effective_edges")
    value_calls, value_s = t.calls("objective.value")
    plans = solved(p)
    n = max(len(plans), 1)

    def plan_mean(get):
        return sum(get(plan) for plan in plans) / n

    def median_duration(name):
        spans = t.named(name)
        return f * statistics.median(sp.duration for sp in spans) if spans else 0.0

    return {
        "config.load_s": (median_duration("config.load"), "s"),
        "config.build_s": (median_duration("config.build"), "s"),
        "fleet.sample_s": (f * t.total("fleet.sample"), "s"),
        "profile.drop_sets_s": (f * t.total("profile.drop_sets"), "s"),
        "graph.effective_edges_calls": (edge_calls, "count"),
        "graph.effective_edges_s": (f * edge_s, "s"),
        "solvers.solve_s": (solve_s, "s"),
        "solvers.self_s": (f * sum(sp.self_s for sp in solves), "s"),
        "solvers.us_per_eval": (1e6 * solve_s / max(evaluations, 1), "us"),
        "solvers.evaluations": (evaluations, "count"),
        "solvers.score_calls": (value_calls, "count"),
        "solvers.last_improvement_gen": (
            statistics.median(last_improvement(h) for h in ga) if ga else 0, "count"),
        "costs.evaluate_calls": (len(t.named("costs.evaluate")), "count"),
        "costs.evaluate_s": (f * t.total("costs.evaluate"), "s"),
        "objective.check_s": (f * t.total("objective.check"), "s"),
        "objective.value_s": (f * value_s, "s"),
        "harness.round_self_s": (f * sum(sp.self_s for sp in p.rounds), "s"),
        "harness.plan_latency_s": (plan_mean(lambda q: q.result.breakdown.total_latency), "s"),
        "harness.plan_energy_j": (
            plan_mean(lambda q: float(q.result.breakdown.energy.sum())), "J"),
        "harness.plan_shared_bits": (plan_mean(lambda q: q.result.breakdown.shared_bits), "bit"),
        "harness.plan_accuracy": (plan_mean(lambda q: q.result.accuracy), "1"),
        "trace.wall_s": (pace.scaled(p.start, p.end), "s"),
    }


def median_metrics(per_pass: list[dict]) -> dict:
    return {name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_v, unit) in per_pass[0].items()}


def measure_setup(wl: Workload, seed: int) -> list:
    """(pace samples, start, end) of each set-up in a fresh interpreter."""
    from pace import Pace

    runs = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC),
             json.dumps(list(wl.overrides)), str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        t0, t1, starts, durations = json.loads(out.stdout.splitlines()[-1])
        child = Pace()
        child.starts, child.durations = starts, durations
        runs.append((child, t0, t1))
    return runs


def write_trace(path: Path, passes: list[Pass], origin: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, p in enumerate(passes):
            for sp in p.tracer.spans:
                fh.write(json.dumps({"pass": i, **sp.as_dict(origin)}) + "\n")
            for name, (calls, seconds) in p.tracer.counts.items():
                fh.write(json.dumps({"pass": i, "counter": name, "calls": calls,
                                     "total_s": seconds}) + "\n")


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    from layers import ALL_LAYERS, ENTRY_LAYERS
    from pace import Pace

    setup = [] if trace else measure_setup(wl, seed)
    inputs = make_inputs(wl, seed)
    out_dir = RUNS / f"{wl.name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    layers = ALL_LAYERS if trace else ENTRY_LAYERS

    passes: list[Pass] = []
    ga_cache: dict = {}
    origin = time.perf_counter()
    with Pace() as pace:
        while True:  # whole passes, as many as fit in ``seconds``; at least one
            p = run_pass(wl, inputs, layers, out_dir)
            check_pass(wl, inputs, p, ga_cache)
            passes.append(p)
            elapsed = time.perf_counter() - origin
            if elapsed + elapsed / len(passes) > seconds:
                break
    print(f"{wl.name}: {len(passes)} pass(es), raw pass seconds "
          f"{[round(p.end - p.start, 3) for p in passes]}, pace factor "
          f"{pace.factor():.3f}, fastest sample {min(pace.durations) * 1e3:.4f} ms",
          file=sys.stderr)

    problems = [probs for p in passes for probs in p.problems]
    for i, probs in enumerate(problems):
        for line in probs[:5]:
            print(f"operation {i}: {line}", file=sys.stderr)
    if trace:
        write_trace(RUNS / f"trace-{wl.name}-seed{seed}.jsonl", passes, origin)
        metrics = median_metrics([per_layer(p, pace) for p in passes])
    else:
        metrics = end_to_end(passes, pace, setup)
    return {
        "correct": not any(line for probs in problems for line in probs
                           if not line.startswith("error:")),
        "attempted": len(problems),
        "failed": sum(1 for probs in problems if probs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    add_repo_paths()
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
