"""Weighted latency/accuracy objective and per-device feasibility checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import Assignment, CostBreakdown, evaluate_assignment
from .errors import UnprofiledDropSet
from .fleet import DEFAULT_RATE_LO, EnergyParams, Fleet, RateMatrix
from .graph import ResNetGraph, compute_load, output_bits
from .profile import AccuracyProfile, g_lookup

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class ObjectiveWeights:
    """Objective weights plus the two scalars the objective needs as context.

    alpha scales normalized latency, beta scales accuracy loss; they must sum
    to one.  latency_ref converts seconds into a unitless [0, 1] score and
    accuracy_threshold is the feasibility floor on mean accuracy.
    """

    alpha: float
    beta: float
    latency_ref: float
    accuracy_threshold: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "latency_ref", "accuracy_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if abs(self.alpha + self.beta - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"alpha + beta must equal 1, got {self.alpha + self.beta!r}")
        if not self.latency_ref > 0:
            raise ValueError("latency_ref must be > 0")
        if not 0.0 <= self.accuracy_threshold <= 1.0:
            raise ValueError("accuracy_threshold must lie in [0, 1]")


def default_latency_ref(graph: ResNetGraph, fleet: Fleet,
                        rate_lo: float = DEFAULT_RATE_LO) -> float:
    """Worst-case single-request latency: the whole network on the slowest
    device with every inter-block tensor crossing the slowest link.

    Each block feeds at most one downstream transfer per request, so this
    bounds any reachable per-request latency and keeps the normalized
    latency term inside [0, 1].
    """
    e_min = float(fleet.mult_rates.min())
    comp = sum(compute_load(b) for b in graph.blocks) / e_min
    tx = sum(output_bits(b, graph.weight_bytes) for b in graph.blocks[:-1]) / rate_lo
    return comp + tx


def accuracy_term(assign: Assignment, profile: AccuracyProfile) -> float:
    """Mean profiled accuracy over requests; baseline when there are none."""
    if assign.n_requests == 0:
        return profile.baseline
    total = 0.0
    for r in range(assign.n_requests):
        acc = g_lookup(profile, assign.y[r])
        if acc is None:
            drop = tuple(int(j) for j in np.flatnonzero(assign.y[r] == 0) + 1)
            raise UnprofiledDropSet(r, drop)
        total += acc
    return total / assign.n_requests


def objective_value(latency: float, accuracy: float, n_requests: int,
                    weights: ObjectiveWeights) -> float:
    """Combine precomputed latency and accuracy into the weighted score."""
    if n_requests == 0:
        lat_term = 0.0
    else:
        lat_term = latency / (n_requests * weights.latency_ref)
    return weights.alpha * lat_term + weights.beta * (1.0 - accuracy)


def latency_budget(value: float, accuracy: float, n_requests: int,
                   weights: ObjectiveWeights) -> float:
    """``objective_value`` inverted in latency: the latency at which this
    mean accuracy scores ``value``, so any latency above it scores above
    ``value``.  Where latency has no weight the objective is the accuracy
    term alone, and the budget is inf when that is at most ``value``, else
    -inf."""
    rest = value - weights.beta * (1.0 - accuracy)
    if n_requests == 0 or weights.alpha == 0.0:
        return math.inf if rest >= 0.0 else -math.inf
    return rest * n_requests * weights.latency_ref / weights.alpha


@dataclass(frozen=True, slots=True)
class FeasibilityReport:
    """Constraint-by-constraint verdict with per-device margins.

    Margins are cap minus use, so negative means violated.  accuracy is None
    when some request keeps an unprofiled drop set; the accuracy margin is
    then reported as minus the threshold.  Per-device margins are rows of
    one read-only array, read by name.
    """

    feasible: bool
    violations: tuple[str, ...]
    accuracy: Optional[float]
    accuracy_margin: float
    margins: np.ndarray  # (3, N): the rows read below

    memory_margin = property(lambda self: self.margins[0])
    compute_margin = property(lambda self: self.margins[1])
    energy_margin = property(lambda self: self.margins[2])

    def as_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "violations": list(self.violations),
            "accuracy": self.accuracy,
            "accuracy_margin": self.accuracy_margin,
            "memory_margin": [float(v) for v in self.memory_margin],
            "compute_margin": [float(v) for v in self.compute_margin],
            "energy_margin": [float(v) for v in self.energy_margin],
        }


def check_constraints(assign: Assignment, graph: ResNetGraph, fleet: Fleet,
                      rates: RateMatrix, energy: EnergyParams,
                      weights: ObjectiveWeights, profile: AccuracyProfile,
                      memory_mode: str = "inputs") -> FeasibilityReport:
    """Check the per-device budgets and the accuracy floor of a resolved plan.

    The plan is priced by ``evaluate_assignment``, so it must give every kept
    block exactly one host (``solvers.repair_allocation`` resolves one that
    lists several); an unresolved plan raises ValueError naming its first
    such request and block.  Entries of x under dropped blocks are ignored.
    Drop sets must be bridgeable; callers screen candidate drop sets against
    the skip topology beforehand.
    """
    bd = evaluate_assignment(assign, graph, fleet, rates, energy, memory_mode)
    return _report(assign, bd, fleet, weights, profile)


def _report(assign: Assignment, bd: CostBreakdown, fleet: Fleet,
            weights: ObjectiveWeights, profile: AccuracyProfile) -> FeasibilityReport:
    """``check_constraints``'s verdict on a plan already priced as ``bd``."""
    violations: list[str] = []
    caps = np.stack([fleet.memory_caps, fleet.compute_caps, fleet.energy_caps])
    uses = np.stack([bd.memory_use, bd.compute_use, bd.energy])
    margins = caps - uses
    margins.flags.writeable = False
    for name, margin, use, cap, unit in zip(("memory", "compute", "energy"), margins, uses,
                                            caps, ("B", "mults", "J")):
        for i in np.flatnonzero(margin < 0):
            violations.append(
                f"device {i + 1} {name}: {use[i]:.6g} {unit} exceeds cap {cap[i]:.6g} {unit}"
            )

    try:
        acc: Optional[float] = accuracy_term(assign, profile)
    except UnprofiledDropSet as exc:
        acc = None
        acc_margin = -weights.accuracy_threshold
        violations.append(f"{exc} (accuracy undefined, margin set to -threshold)")
    else:
        acc_margin = acc - weights.accuracy_threshold
        if acc_margin < 0:
            violations.append(
                f"mean accuracy {acc:.6g} below threshold {weights.accuracy_threshold:.6g}"
            )

    return FeasibilityReport(
        feasible=not violations,
        violations=tuple(violations),
        accuracy=acc,
        accuracy_margin=acc_margin,
        margins=margins,
    )
