"""Round-based simulation: each round draws fresh link rates and a Poisson
batch of requests, solves the placement problem, and records fleet metrics.

Seeding is hierarchical and reproducible: round k of a scenario with seed s
derives everything from SeedSequence((s, k)), so any round can be recomputed
in isolation and sweep variants sharing a seed see identical arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InfeasibleInstance, InstanceTooLarge
from .fleet import (
    POISSON_LAM_MAX,
    EnergyParams,
    Fleet,
    check_rate_bounds,
    sample_rates,
    sample_requests,
)
from .graph import ResNetGraph
from .objective import WEIGHT_SUM_TOL, ObjectiveWeights
from .profile import AccuracyProfile
from .solvers import ExactLimits, GaConfig, SolveResult, solve_exact, solve_ga

SOLVER_KINDS = ("ga", "exact")

SWEEP_KINDS = ("weights", "energy", "lam", "compute", "rate")

# The fixed per-round CSV schema; sweeps prepend a variant column.
CSV_COLUMNS = (
    "round",
    "avg_accuracy",
    "total_latency_s",
    "shared_data_bits",
    "total_computation_mults",
    "total_energy_j",
    "objective",
    "feasible",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run needs, ready-built and validated."""

    graph: ResNetGraph
    fleet: Fleet
    profile: AccuracyProfile
    weights: ObjectiveWeights
    energy: EnergyParams
    rate_lo: float
    rate_hi: float
    lam: float
    rounds: int
    seed: int
    solver: str = "ga"
    ga: GaConfig = GaConfig()
    exact_limits: ExactLimits = ExactLimits()
    memory_mode: str = "inputs"
    label: str = "scenario"

    def __post_init__(self):
        if self.solver not in SOLVER_KINDS:
            raise ValueError(f"solver must be one of {SOLVER_KINDS}, got {self.solver!r}")
        check_rate_bounds(self.rate_lo, self.rate_hi)
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        if self.lam > POISSON_LAM_MAX:
            raise ValueError(f"lam must be <= {POISSON_LAM_MAX:.6g}, the largest rate "
                             f"the Poisson sampler draws from, got {self.lam!r}")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class MetricsRecord:
    """One round's outcome; error rounds carry NaN metrics and a reason."""

    round_index: int
    n_requests: int
    avg_accuracy: float
    total_latency_s: float
    shared_data_bits: float
    total_computation_mults: float
    total_energy_j: float
    objective: float
    feasible: bool
    error: Optional[str] = None

    def csv_row(self) -> tuple:
        return (
            self.round_index,
            self.avg_accuracy,
            self.total_latency_s,
            self.shared_data_bits,
            self.total_computation_mults,
            self.total_energy_j,
            self.objective,
            int(self.feasible),
        )


@dataclass(frozen=True)
class ScenarioResult:
    label: str
    records: tuple[MetricsRecord, ...]
    summary: dict


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: weight pairs, an absolute request rate, or a
    multiplier on the fleet's energy budgets, compute budgets or compute
    speed (``rate`` scales each device's ``mult_rate``)."""

    kind: str
    values: tuple

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"sweep kind must be one of {SWEEP_KINDS}, got {self.kind!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        vals = []
        for v in self.values:
            if self.kind == "weights":
                pair = tuple(float(w) for w in v) if isinstance(v, (list, tuple)) else ()
                if len(pair) != 2:
                    raise ValueError(f"weights sweep values are (alpha, beta) pairs, got {v!r}")
                if not np.isfinite(pair).all():
                    raise ValueError(f"weights sweep values must be finite, got {v!r}")
                if min(pair) < 0 or abs(sum(pair) - 1.0) > WEIGHT_SUM_TOL:
                    raise ValueError("weights sweep values must be >= 0 and sum to 1, "
                                     f"got {v!r}")
                vals.append(pair)
            else:
                f = float(v)
                if not (0 < f < np.inf or self.kind == "lam" and f == 0):
                    bound = ">= 0" if self.kind == "lam" else "> 0"
                    raise ValueError(f"{self.kind} sweep values must be finite and {bound}, "
                                     f"got {v!r}")
                if self.kind == "lam" and f > POISSON_LAM_MAX:
                    raise ValueError(f"lam sweep values must be <= {POISSON_LAM_MAX:.6g}, "
                                     f"the largest rate the Poisson sampler draws from, got {v!r}")
                vals.append(f)
        object.__setattr__(self, "values", tuple(vals))

    def labels(self) -> tuple[str, ...]:
        if self.kind == "weights":
            return tuple(f"alpha{a:g}_beta{b:g}" for a, b in self.values)
        prefix = {"energy": "energy_x", "compute": "compute_x",
                  "rate": "speed_x", "lam": "lambda"}[self.kind]
        return tuple(f"{prefix}{v:g}" for v in self.values)


def format_value(v) -> str:
    """Deterministic CSV cell: ints verbatim, floats at 9 significant digits."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.9g}"


def round_seeds(seed: int, round_index: int):
    """(requests rng, rates rng, solver seed) for one round, independent of
    execution order."""
    root = np.random.SeedSequence((seed, round_index))
    req_ss, rate_ss, solver_ss = root.spawn(3)
    solver_seed = int(solver_ss.generate_state(1, np.uint64)[0])
    return np.random.default_rng(req_ss), np.random.default_rng(rate_ss), solver_seed


def run_round(config: ScenarioConfig, round_index: int
              ) -> tuple[MetricsRecord, Optional[SolveResult]]:
    """Sample one round's environment, solve it, and summarize.

    Instances the solver proves unsatisfiable become error records instead of
    exceptions, so one bad round cannot sink a long simulation.
    """
    req_rng, rate_rng, solver_seed = round_seeds(config.seed, round_index)
    batch = sample_requests(config.lam, req_rng, round_index)
    rates = sample_rates(config.fleet.n_devices, config.rate_lo, config.rate_hi,
                         rate_rng, round_index=round_index)
    try:
        if config.solver == "exact":
            result = solve_exact(config.graph, config.fleet, rates, config.profile,
                                 config.weights, config.energy, batch.count,
                                 limits=config.exact_limits,
                                 memory_mode=config.memory_mode)
        else:
            result = solve_ga(config.graph, config.fleet, rates, config.profile,
                              config.weights, config.energy, batch.count,
                              config=replace(config.ga, seed=solver_seed),
                              memory_mode=config.memory_mode)
    except (InfeasibleInstance, InstanceTooLarge) as exc:
        nan = float("nan")
        return MetricsRecord(
            round_index=round_index,
            n_requests=batch.count,
            avg_accuracy=nan,
            total_latency_s=nan,
            shared_data_bits=nan,
            total_computation_mults=nan,
            total_energy_j=nan,
            objective=nan,
            feasible=False,
            error=f"{type(exc).__name__}: {exc}",
        ), None

    record = MetricsRecord(
        round_index=round_index,
        n_requests=batch.count,
        avg_accuracy=result.accuracy,
        total_latency_s=result.breakdown.total_latency,
        shared_data_bits=result.breakdown.shared_bits,
        total_computation_mults=result.breakdown.total_mults,
        total_energy_j=float(result.breakdown.energy.sum()),
        objective=result.objective,
        feasible=result.feasible,
    )
    return record, result


def summarize(records: Sequence[MetricsRecord]) -> dict:
    """Scenario-level aggregates over the rounds that produced a solution."""
    solved = [r for r in records if r.error is None]
    feasible = [r for r in solved if r.feasible]

    def mean(field):
        if not solved:
            return float("nan")
        return float(np.mean([getattr(r, field) for r in solved]))

    return {
        "rounds": len(records),
        "solved_rounds": len(solved),
        "feasible_rounds": len(feasible),
        "total_requests": int(sum(r.n_requests for r in records)),
        "mean_accuracy": mean("avg_accuracy"),
        "mean_latency_s": mean("total_latency_s"),
        "mean_shared_data_bits": mean("shared_data_bits"),
        "mean_computation_mults": mean("total_computation_mults"),
        "mean_energy_j": mean("total_energy_j"),
        "mean_objective": mean("objective"),
    }


def run_scenario(config: ScenarioConfig, strict: bool = False,
                 on_record: Optional[Callable] = None) -> ScenarioResult:
    """Run every round in order; strict mode raises on the first round whose
    best answer is infeasible (or unsolvable)."""
    records = []
    for k in range(config.rounds):
        record, _result = run_round(config, k)
        records.append(record)
        if on_record is not None:
            on_record(config.label, record)
        if strict and not record.feasible:
            reason = record.error or "constraint violations in the best assignment"
            raise InfeasibleInstance(f"round {k} of {config.label!r}: {reason}")
    return ScenarioResult(config.label, tuple(records), summarize(records))


def apply_axis_value(base: ScenarioConfig, kind: str, value, label: str
                     ) -> ScenarioConfig:
    """One sweep variant: the base scenario with a single parameter changed.

    The seed and latency_ref are left alone on purpose: shared seeds pair the
    rounds across variants, and a shared latency_ref keeps objectives
    comparable between them.
    """
    if kind == "weights":
        alpha, beta = value
        w = base.weights
        return replace(base, label=label, weights=ObjectiveWeights(
            alpha=alpha, beta=beta, latency_ref=w.latency_ref,
            accuracy_threshold=w.accuracy_threshold))
    if kind == "lam":
        return replace(base, label=label, lam=value)
    if kind == "energy":
        return replace(base, label=label, fleet=base.fleet.scaled(energy=value))
    if kind == "compute":
        return replace(base, label=label, fleet=base.fleet.scaled(compute=value))
    if kind == "rate":
        return replace(base, label=label, fleet=base.fleet.scaled(rate=value))
    raise ValueError(f"unknown sweep kind {kind!r}")


def sweep(variants: Sequence[ScenarioConfig], strict: bool = False,
          on_record: Optional[Callable] = None) -> tuple[ScenarioResult, ...]:
    """Run each sweep variant (``config.sweep_variants`` builds them) in
    order; the variants share the base scenario's seed."""
    return tuple(run_scenario(v, strict=strict, on_record=on_record) for v in variants)
