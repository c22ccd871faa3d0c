"""Layer timing for the benchmark, taken from outside the program.

A layer is timed by replacing one of its public functions, in the namespace
of the module that calls it, with a wrapper.  Most wrappers record a span:
name, start, end, parent span and round.  ``objective_value`` and
``effective_edges`` run hundreds of thousands of times per round, so their
wrappers only add to a call count and a time total.  A span's self time is
its duration minus the part covered by its child spans and counted calls.

Spans and counts are kept in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

perf_counter = time.perf_counter

SPAN = "span"
COUNT = "count"

# (calling module, attribute, layer name, kind).  ``cli`` and ``harness``
# import the functions they call by name, so each caller's binding is wrapped.
ENTRY_LAYERS = (
    ("resplan.harness", "run_round", "harness.run_round", SPAN),
    ("resplan.harness", "solve_ga", "solvers.solve", SPAN),
    ("resplan.harness", "solve_exact", "solvers.solve", SPAN),
    ("resplan.cli", "solve_ga", "solvers.solve", SPAN),
    ("resplan.cli", "solve_exact", "solvers.solve", SPAN),
)

ALL_LAYERS = ENTRY_LAYERS + (
    ("resplan.config", "load_config", "config.load", SPAN),
    ("resplan.config", "build_scenario", "config.build", SPAN),
    ("resplan.cli", "run_scenario", "harness.run_scenario", SPAN),
    ("resplan.harness", "sample_requests", "fleet.sample", SPAN),
    ("resplan.harness", "sample_rates", "fleet.sample", SPAN),
    ("resplan.cli", "sample_requests", "fleet.sample", SPAN),
    ("resplan.cli", "sample_rates", "fleet.sample", SPAN),
    ("resplan.solvers", "allowed_drop_sets", "profile.drop_sets", SPAN),
    ("resplan.solvers", "evaluate_assignment", "costs.evaluate", SPAN),
    ("resplan.solvers", "check_constraints", "objective.check", SPAN),
    ("resplan.solvers", "objective_value", "objective.value", COUNT),
    ("resplan.solvers", "effective_edges", "graph.effective_edges", COUNT),
    ("resplan.costs", "effective_edges", "graph.effective_edges", COUNT),
)

# Spans whose bound arguments and return value are kept for the output checks.
KEEP_CALLS = {"harness.run_round", "solvers.solve"}


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    round: int | None
    end: float = 0.0
    child_s: float = 0.0
    call: dict | None = None       # bound arguments, for KEEP_CALLS spans
    returned: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start - origin,
            "end": self.end - origin,
            "parent": self.parent,
            "round": self.round,
            "self_s": self.self_s,
        }


@dataclass
class Tracer:
    """Spans and call counts for one measured pass of a workload."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, list] = field(default_factory=dict)  # name -> [calls, seconds]
    _stack: list[Span] = field(default_factory=list)

    def open(self, name: str, round_index: int | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if round_index is None and parent is not None:
            round_index = parent.round
        sp = Span(len(self.spans), name, perf_counter(),
                  None if parent is None else parent.id, round_index)
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += sp.duration

    @contextmanager
    def span(self, name: str, round_index: int | None = None):
        sp = self.open(name, round_index)
        try:
            yield sp
        finally:
            self.close(sp)

    def _span_wrapper(self, name: str, fn):
        signature = inspect.signature(fn)
        keep = name in KEEP_CALLS

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            sp = self.open(name, bound.arguments.get("round_index"))
            if keep:
                sp.call = dict(bound.arguments)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sp)
            if keep:
                sp.returned = out
            return out

        return wrapper

    def _count_wrapper(self, name: str, fn):
        cell = self.counts.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                cell[0] += 1
                cell[1] += dt
                if stack:
                    stack[-1].child_s += dt

        return wrapper

    @contextmanager
    def installed(self, layers):
        """Wrap every listed layer function; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, kind in layers:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                make = self._span_wrapper if kind == SPAN else self._count_wrapper
                setattr(module, attr, make(name, original))
                saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def total(self, name: str) -> float:
        return sum(sp.duration for sp in self.named(name))

    def calls(self, name: str) -> tuple[int, float]:
        calls, seconds = self.counts.get(name, (0, 0.0))
        return calls, seconds
