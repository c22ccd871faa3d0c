"""Placement solvers over the joint drop/placement space.

``solve_ga`` is the workhorse: a genetic algorithm on a flat bit chromosome
(x placement bits, then y keep bits).  Raw chromosomes are rarely valid, so
every evaluation runs a canonicalization pipeline:

1. project each request's keep vector onto the profiled drop sets (the
   largest allowed subset of the proposed drops wins, so accuracy floors can
   never be violated by construction),
2. give any kept-but-unhosted block to the fastest device,
3. resolve blocks with several hosts by a forward pass that prefers the
   previous block's device and otherwise the best link from it.  Its choice
   depends only on the previous device and the offered set, so it is read
   from a table built once per round's rates, chunk by chunk of devices.

The GA works one generation at a time: it draws every tournament
(``TOURNAMENT_SIZE`` picks), crossover (at ``CROSSOVER_RATE``) and mutation
(at one over the chromosome length, about one bit a child) of a generation
at once, then canonicalizes all the children in array passes over their
(individual, request) rows.  The projection is one matmul of the keep bits
against the drop sets' dropped blocks and an argmax, the repair one table
lookup per block (an add and a gather on fleets of up to 10 devices).  Only
the repair's table columns (each row's offered bitmask per block, read from the
row's N x M placement bits) grow with the fleet, so only they are built in
bounded chunks; the 17-step block pass then runs once over the whole
generation, on a large fleet too.  Each distinct placement (hosts plus
drop sets) of a generation is scored once and its scores are shared.
After the last generation a best-improvement descent (``_polish``) runs
from two plans: the best plan of the search, then the best plan of the
last generation that differs from it, when there is one.  A move puts one kept
block, or a run of consecutive kept blocks on one host, onto another device
that hosts a kept block of the plan, or gives one request another allowed
drop set, and the best move is taken while it strictly lowers the GA's
ranking key.  A move is scored as its request's one new row, added to the
sums of the plan's other rows, over the devices the plan names; so a step
costs one row a move, not one plan.  The polished plan with the least key
is returned, the best plan's on a tie, so a second start can only help.
The default budget is 40 generations (``GaConfig``).  The polish's scored
moves are not counted as evaluations.

The score gathers each row's drop-set arrays and runs the cost model of
``costs.py`` (``chain_sums``, then ``chain_costs``), the one that
``evaluate_assignment`` runs on the reported plan, so the reported latency
is the one the search ranked.  Its ordered sums (latency, overruns,
accuracy) lay their terms out block-major, (terms, candidates), and reduce
over the outer axis, so each candidate's terms are added left to right as a
per-candidate loop adds them; a lone candidate is accumulated, since numpy
would sum its one column pairwise.  A candidate thus scores the same alone
or in any batch, and sharing changes no result.  A generation on the default
fleet has only a few hundred rows, so its cost is mostly a fixed price per
numpy call: the hot paths keep their call count low (``take`` over fancy
indexing, preallocated outputs, no joins of a single chunk).

Budget overruns are handled softly, as relative-violation penalties on the
objective (times ``PENALTY_WEIGHT``).  ``solve_exact`` enumerates the same
candidate space exhaustively for small instances, the reference the GA is
compared against.  It grows the candidates as a prefix tree along each
request's chain, extending the partial sums one kept block at a time, the
blocks that drop sets keep in common grown once for all of them.  Load
and memory only grow along a branch, so it is cut where it first goes over
a compute or memory cap: what it would grow into is infeasible and could
not win.  It is also cut by branch and bound: once a feasible leaf is
scored, a branch whose lower bound on the objective is above the best one
so far cannot hold the optimum.  The leaves left are scored in bounded
batches through ``_Evaluator._finish``, the last step of ``score``;
``evaluations`` counts every candidate, cut ones too.  With the bound, a
one-request round on the shipped 10-device fleet (2.28e17 candidates)
solves in well under a second once ``max_candidates`` allows it.  Both
solvers first run a necessary-condition feasibility certificate.

What no fleet or link rate changes is built once per graph, profile,
accuracy threshold and memory mode (``_Tables``): each block's loads and
output bits; the allowed drop sets with their keep flags, feeding blocks,
accuracies, dropped blocks and kept loads; and the exact
solver's bound constants per drop set.  The last solve's tables are kept,
read-only, and reused by the next solve of the same four, as a scenario's
rounds and a sweep's variants are.  Each solve builds its fleet and rate
arrays, and the GA its repair table as well.
"""
from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from .costs import (Assignment, CostBreakdown, _ordered_sum, chain_costs, chain_sums,
                    evaluate_assignment, transfer_rates)
from .errors import InfeasibleInstance, InstanceTooLarge, UnbridgeableDrop, UncoveredBlock
from .fleet import EnergyParams, Fleet, RateMatrix
from .graph import ResNetGraph, block_arrays, effective_edges
from .objective import (FeasibilityReport, ObjectiveWeights, check_constraints, latency_budget,
                        objective_value)
from .profile import AccuracyProfile, allowed_drop_sets


@dataclass(frozen=True, slots=True)
class GaConfig:
    """The GA's budget and seed.  The default budget, 200 + 40 x 199 =
    8,160 evaluations a round, is spent as few large generations: on the
    default fleet a generation's cost is mostly a fixed price per numpy call,
    so 200 individuals a generation plan faster than 100 at the same plan
    quality.  Why 40: after the search both the best plan and the best other
    plan of the last generation are polished (``_polish_starts``), and with
    the polish's run moves 40 generations plan better than 48 did without
    them.  A deeper cut would speed the benchmark's large-fleet workload by
    a sixth or more, which reads as a peak-memory regression while the
    benchmark keeps every pass (ROADMAP item 2): at 36 generations a
    prototype read 3% to 6% more peak memory there, against a 5% bound.  Its
    heuristics are fixed, as the module constants ``TOURNAMENT_SIZE``,
    ``CROSSOVER_RATE`` and ``PENALTY_WEIGHT``."""

    population_size: int = 200
    generations: int = 40
    elite: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        # A generation draws two tournaments of intp picks per individual.
        if (need := 16 * self.population_size * TOURNAMENT_SIZE) > MEMORY_BOUND:
            raise ValueError(f"population_size={self.population_size} draws {need} bytes "
                             f"of tournament picks a generation, over the "
                             f"{MEMORY_BOUND}-byte bound")
        if not 0 <= self.elite < self.population_size:
            raise ValueError("elite must be >= 0 and below population_size")


@dataclass(frozen=True, slots=True)
class ExactLimits:
    """Guard rails for the exhaustive solver."""

    max_candidates: int = 200_000

    def __post_init__(self):
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Best assignment found plus the audit trail around it.

    For the GA, ``history`` holds the best penalized score of each
    generation before the polish, so ``objective`` can be lower than
    ``history[-1]``, and ``evaluations`` counts the GA's candidates only,
    not the polish's moves.  ``wall_time_s`` is informational and
    deliberately left out of ``as_dict`` so serialized results stay
    byte-identical across reruns.
    """

    assignment: Assignment
    objective: float
    accuracy: float
    feasible: bool
    report: FeasibilityReport
    breakdown: CostBreakdown
    solver: str
    generations: int
    evaluations: int
    history: tuple[float, ...]
    wall_time_s: float

    def as_dict(self) -> dict:
        hosts = []
        drops = []
        for r in range(self.assignment.n_requests):
            h = self.assignment.hosts(r)
            y_r = self.assignment.y[r]
            hosts.append([int(h[j]) + 1 if y_r[j] else None for j in range(len(y_r))])
            drops.append([int(j) + 1 for j in np.flatnonzero(y_r == 0)])
        return {
            "solver": self.solver,
            "objective": self.objective,
            "accuracy": self.accuracy,
            "feasible": self.feasible,
            "n_requests": self.assignment.n_requests,
            "drops": drops,
            "hosts": hosts,
            "total_latency_s": self.breakdown.total_latency,
            "shared_data_bits": self.breakdown.shared_bits,
            "total_computation_mults": self.breakdown.total_mults,
            "total_energy_j": float(self.breakdown.energy.sum()),
            "generations": self.generations,
            "evaluations": self.evaluations,
            "history": list(self.history),
            "report": self.report.as_dict(),
        }


def chromosome_length(n_requests: int, n_devices: int, n_blocks: int) -> int:
    """Flat bit count: placement bits first, then keep bits."""
    return n_requests * n_devices * n_blocks + n_requests * n_blocks


# Cells per array pass, bounding its temporaries whatever the fleet size.
# Unpacking chromosomes, building the repair's table columns and scoring
# (about 16 arrays of N floats per individual) count individuals x requests
# x devices x blocks cells; the exact solver's tree keeps up to R x M
# frontiers of a batch of nodes (1 + 3N floats each); the polish counts
# 3N + M cells a move, N the devices its plan names.  A 200-individual
# generation on a 10-device fleet fits one such chunk up to 3 requests and
# two up to 7.  The repair's block pass counts rows x blocks x device
# chunks, far fewer: one pass covers a 200-individual generation up to 38
# requests on 10 devices and up to 4 on 70.
_CHUNK_CELLS = 1 << 17

# The exact solver numbers its candidates in int64.
_MAX_NUMBER = np.iinfo(np.int64).max

# The exact solver cuts a branch whose bound on the objective is above the
# best one found raised by this share of it: far above the rounding by which
# two float sums of the same latency terms, in another order, can differ.
_BOUND_SLACK = 1e-9

# The most bytes a round's per-fleet arrays, or a GA population, may take.
MEMORY_BOUND = 1 << 30

TOURNAMENT_SIZE = 3    # picks per tournament when the GA selects a parent
CROSSOVER_RATE = 0.9   # chance a child crosses over rather than copies a parent
PENALTY_WEIGHT = 10.0  # score per unit of summed relative budget overrun


def round_bytes(n_devices: int) -> int:
    """At most the bytes of a round's largest arrays on N devices, eight an
    entry: the N x N link rates and the repair table, which holds 2**10 + 1
    entries per previous device on one chunk, else 2**8 + 1 per chunk of 8."""
    n = max(n_devices, 0)
    return 8 * (n * n + (n + 1) * (1025 + 257 * -(-n // 8)))


class _RepairTable:
    """The forward repair pass for one round's rates, as a lookup table.

    A kept block stays on the previous kept block's device when that device
    is offered, otherwise it takes the offered device with the best link from
    it (the fastest device when there is no previous block); ties go to the
    lowest device id.  A kept block with no offer goes to ``fix_device``; a
    dropped block repeats the previous kept block's host.

    Devices fall into chunks of ``width`` (one chunk up to 10 devices, else
    at most 8), and ``table[p, c, s]`` answers a block after one on p (N:
    none) from chunk c's offered bitmask s.  With several chunks it is
    ``key << shift | d``: the device d the rule takes from that chunk,
    ranked by ``key`` from N (favourite) down to 1, so a block step is a
    gather, a max over chunks and a mask.  One chunk compares no keys, so
    there it holds d's row offset ``d * span`` (intp) and a block step is an
    add and a gather.  Key 0 and ``fix_device`` answer an empty offer; s =
    2**width, a dropped block, answers p.

    ``hosts`` runs in two steps.  ``columns`` turns offers and keep flags
    into table indices, M x chunks per row; its temporaries grow with
    rows x N x M, so a caller with many rows builds them chunk by chunk
    into one buffer.  ``walk`` then runs the block pass over every row at
    once, bounded by ``_CHUNK_CELLS`` of its own cells: its fixed cost of
    about 90 numpy calls is paid once, not once per chunk.
    """

    def __init__(self, rho: np.ndarray, e: np.ndarray, fix_device: int):
        n = e.size
        chunks = 1 if n <= 10 else -(-n // 8)
        self.width = w = -(-n // chunks)
        self.shift = n.bit_length()
        # offer_bits @ x: each chunk's offered bitmask (exact in float32).
        self.offer_bits = np.zeros((chunks, n), dtype=np.float32)
        self.offer_bits[np.arange(n) // w, np.arange(n)] = np.exp2(np.arange(n) % w)
        pref = np.vstack([rho, e])
        pref[np.arange(n), np.arange(n)] = np.inf  # staying ranks first
        key = np.empty((n + 1, n), dtype=np.intp)
        np.put_along_axis(key, np.argsort(-pref, axis=1, kind="stable"),
                          np.arange(n, 0, -1)[None], axis=1)
        dtype = np.min_scalar_type(n << self.shift | n)
        code = np.zeros((n + 1, chunks * w), dtype=dtype)
        code[:, :n] = key << self.shift | np.arange(n)
        code = code.reshape(n + 1, chunks, w)
        self.table = np.empty((n + 1, chunks, (1 << w) + 1), dtype=dtype)
        self.table[:, :, 0] = fix_device
        for k in range(w):  # masks with top bit k: best of the rest or device k
            np.maximum(self.table[:, :, :1 << k], code[:, :, k, None],
                       out=self.table[:, :, 1 << k:2 << k])
        self.table[:, :, 1 << w] = np.arange(n + 1)[:, None]
        if chunks == 1:
            device = self.table & ((1 << self.shift) - 1)
            self.table = device.astype(np.intp) * self.table.shape[2]

    def hosts(self, x: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """Hosts (rows, M) for offers ``x`` shaped (..., N, M), one request
        per leading index, and keep flags ``kept`` shaped (rows, M)."""
        return self.walk(self.columns(x, kept))

    def columns(self, x: np.ndarray, kept: np.ndarray, out: np.ndarray | None = None):
        """Table indices (M, chunks, rows) for ``hosts``' arguments, each
        block step's contiguous; written to ``out`` when given."""
        m = x.shape[-1]
        rows, chunks, span = kept.shape[0], self.table.shape[1], self.table.shape[2]
        # Each chunk's offered bitmask, or 2**width for a dropped block, plus
        # the chunk's offset; all exact in float32.
        cols = (self.offer_bits @ x).reshape(rows, chunks, m)
        np.copyto(cols, 1 << self.width, where=~kept[:, None])
        cols += np.arange(0, chunks * span, span, dtype=np.float32)[:, None]
        if out is None:
            out = np.empty((m, chunks, rows), dtype=np.intp)
        out[:] = cols.transpose(2, 1, 0)
        return out

    def walk(self, offers: np.ndarray) -> np.ndarray:
        """Hosts (rows, M) from table indices shaped (M, chunks, rows), in
        block passes over at most ``_CHUNK_CELLS`` of those cells."""
        m, chunks, rows = offers.shape
        out = np.empty((rows, m), dtype=np.intp)
        step = max(1, _CHUNK_CELLS // (m * chunks))
        for lo in range(0, rows, step):
            self._block_pass(offers[:, :, lo:lo + step], out[lo:lo + step])
        return out

    def _block_pass(self, offers: np.ndarray, out: np.ndarray) -> None:
        """The forward pass, one block step at a time, over all given rows."""
        m, chunks, rows = offers.shape
        flat = self.table.reshape(-1)
        stride = chunks * self.table.shape[2]
        # at[j] is the row offset (host * stride) of block j - 1; the last
        # row answers the first block, which has no previous one.
        at = np.empty((m + 1, rows), dtype=np.intp)
        at[0] = (self.table.shape[0] - 1) * stride
        idx = np.empty((chunks, rows), dtype=np.intp)
        if chunks == 1:
            for j in range(m):
                np.add(offers[j, 0], at[j], out=idx[0])
                flat.take(idx[0], out=at[j + 1], mode="clip")
        else:
            codes = np.empty((chunks, rows), dtype=flat.dtype)
            mask = (1 << self.shift) - 1
            for j in range(m):
                np.add(offers[j], at[j], out=idx)
                flat.take(idx, out=codes, mode="clip")
                np.bitwise_and(codes.max(axis=0), mask, out=at[j + 1])
                at[j + 1] *= stride
        np.floor_divide(at[1:].T, stride, out=out)


def _stacked(parts: list) -> tuple:
    """Per-chunk result tuples joined column by column; one chunk as is."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)[1:]``: the
    first index of each distinct key, in key order, and each key's rank
    among them, without ``np.unique``'s per-call overhead.  It also keeps
    ``numpy.ma`` out of the process: ``np.unique`` imports it on first use,
    over a megabyte of resident memory that no solve otherwise needs."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    new[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(keys.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _placement(hosts: np.ndarray, kept: np.ndarray, n_devices: int) -> np.ndarray:
    """x bits for resolved hosts: one host per kept block, none per dropped."""
    x = np.zeros((kept.shape[0], n_devices, kept.shape[1]), dtype=np.uint8)
    r, j = np.nonzero(kept)
    x[r, hosts[r, j], j] = 1
    return x


class _Tables:
    """A solve's arrays that no fleet or link rate changes: those of one
    graph, profile, accuracy threshold and memory mode, read-only, and
    reused by the next solve of the same four (``_tables``).

    Per block: its multiplications ``c``, resident bytes ``m`` and output
    ``bits``.  Per drop set, indexed by its rank in ``drops`` (largest first,
    then best accuracy, then lowest block ids): keep flags ``keep``, the
    block ``src[k, j]`` feeding block j, the accuracy ``acc``, the loads its
    kept blocks place (``kept_c``, ``kept_m``) and the bits each block
    receives (``src_bits``), and its dropped blocks as float32 ones
    (``dropped``), against which the GA projects keep bits.  For the exact
    solver's bound: each drop set's kept blocks (``kept``) and the compute
    after each of them on the chain (``after``); the least compute any drop
    set keeps (``least_c``) and the best accuracy (``best_acc``).

    The graph and profile are held: ``_tables`` keys on their ids, which
    stay theirs while the tables live.  Both are frozen, the profile's
    entries included, so the tables cannot go stale.
    """

    def __init__(self, graph: ResNetGraph, profile: AccuracyProfile, threshold: float,
                 memory_mode: str):
        self.graph, self.profile = graph, profile
        self.c, self.m, self.bits = block_arrays(graph, memory_mode)
        m = graph.n_blocks
        rows = []
        for ds in allowed_drop_sets(profile, threshold):
            drop = tuple(sorted(ds))
            if any(not graph.blocks[j - 1].droppable for j in drop):
                continue  # profiled but not droppable in this graph
            y = np.ones(m, dtype=np.uint8)
            y[[j - 1 for j in drop]] = 0
            # The chain form: each kept block but the first is fed by the
            # previous kept block alone; others name themselves (zero cost).
            src = np.arange(m)
            try:
                for s, d in effective_edges(graph, y):
                    src[d - 1] = s - 1
            except UnbridgeableDrop:
                continue  # profiled but not executable under this topology
            rows.append((drop, y, src, profile.accuracy_for(ds)))
        # Largest subset first, then best accuracy, then lowest block ids, so
        # the first entry inside a proposed drop set is its projection.
        rows.sort(key=lambda t: (-len(t[0]), -t[3], t[0]))
        self.drops = tuple(t[0] for t in rows)
        self.keep = np.array([t[1] for t in rows], dtype=bool)
        self.src = np.array([t[2] for t in rows])
        self.acc = np.array([t[3] for t in rows], dtype=float)
        self.dropped = (~self.keep).astype(np.float32)
        self.kept_c = self.keep * self.c
        self.kept_m = self.keep * self.m
        self.src_bits = self.bits[self.src]
        self.kept = tuple(np.flatnonzero(k) for k in self.keep)
        self.after = tuple(np.append(np.cumsum(self.c[k][::-1])[::-1][1:], 0.0)
                           for k in self.kept)
        self.least_c, self.best_acc = self.kept_c.sum(axis=1).min(), self.acc.max()
        for arr in (self.c, self.m, self.bits, self.keep, self.src, self.acc, self.dropped,
                    self.kept_c, self.kept_m, self.src_bits, *self.kept, *self.after):
            arr.flags.writeable = False


# The last solve's key (graph id, profile id, accuracy threshold, memory
# mode) and its tables.  A scenario's rounds share all four, and so do a
# sweep's variants; the tables hold the graph and profile, so their ids
# cannot be reused while the key stands.
_LAST_TABLES: tuple = (None, None)


def _tables(graph: ResNetGraph, profile: AccuracyProfile, threshold: float,
            memory_mode: str) -> _Tables:
    """The shared tables of a graph, profile, threshold and memory mode:
    the last solve's when it had the same four, otherwise built anew."""
    global _LAST_TABLES
    key = (id(graph), id(profile), threshold, memory_mode)
    if _LAST_TABLES[0] != key:
        _LAST_TABLES = (key, _Tables(graph, profile, threshold, memory_mode))
    return _LAST_TABLES[1]


class _Evaluator:
    """Canonicalize raw chromosomes and score candidates, a batch at a time.

    The rate-independent arrays come from the ``_Tables`` of the graph,
    profile, accuracy threshold and memory mode (``tables``, built once per
    four and reused by consecutive solves of them; the evaluator names the
    ones its steps read); only the fleet and rate arrays are built per
    solve, and the GA's ``_RepairTable`` only when ``repair`` asks for it.
    Drop sets are indexed by their rank in ``drops``.  Rows are
    (individual, request) pairs in order.  Scores come from
    ``costs.chain_sums`` and ``chain_costs``, as ``evaluate_assignment``'s
    do, and agree with them bit for bit.
    """

    def __init__(self, graph: ResNetGraph, fleet: Fleet, rates: RateMatrix,
                 profile: AccuracyProfile, weights: ObjectiveWeights,
                 energy: EnergyParams, n_requests: int, memory_mode: str = "inputs",
                 repair: bool = False):
        self.graph = graph
        self.fleet = fleet
        self.rates = rates
        self.profile = profile
        self.n_requests = n_requests
        self.n_devices = fleet.n_devices
        self.n_blocks = graph.n_blocks
        self.weights = weights
        self.energy = energy
        self.memory_mode = memory_mode

        self.tables = t = _tables(graph, profile, weights.accuracy_threshold, memory_mode)
        self.c, self.m, self.bits = t.c, t.m, t.bits
        self.drops, self.keep, self.src, self.acc = t.drops, t.keep, t.src, t.acc
        self.dropped = t.dropped
        self.kept_c, self.kept_m, self.src_bits = t.kept_c, t.kept_m, t.src_bits

        self.e = fleet.mult_rates
        self.rho = rates.rho
        self.rho_off = transfer_rates(rates.rho)
        self.mem_caps = fleet.memory_caps
        self.comp_caps = fleet.compute_caps
        self.energy_caps = fleet.energy_caps
        # Per device: the compute, memory and energy caps, in penalty order.
        self.caps = np.stack([self.comp_caps, self.mem_caps, self.energy_caps], 1)[:, :, None]
        self.fix_device = int(np.argmax(self.e))
        if repair:
            self.repair = _RepairTable(self.rho, self.e, self.fix_device)

    def _columns(self, pop: np.ndarray, ent: np.ndarray, out: np.ndarray | None = None):
        """Project raw chromosomes (B, L) onto drop sets, into ``ent``, and
        return their repair table columns (written to ``out`` when given).
        A row's drop set is the first in ``drops`` order that drops no block
        the row keeps; the empty set drops none."""
        r, n, m = self.n_requests, self.n_devices, self.n_blocks
        split = r * n * m
        np.argmax(pop[:, split:].reshape(-1, m) @ self.dropped.T == 0, axis=1, out=ent)
        return self.repair.columns(pop[:, :split].reshape(-1, r, n, m),
                                   self.keep.take(ent, axis=0), out)

    def score(self, hosts: np.ndarray, ent: np.ndarray):
        """Penalized score per candidate from its resolved rows.

        Returns arrays (penalized, objective, latency, feasible).
        """
        b = hosts.shape[0] // self.n_requests
        terms, load, mem, tx_time = self.sums(hosts, ent, b)
        acc = _ordered_sum(self.acc.take(ent.reshape(b, -1).T))
        return self._finish(terms, load, mem, tx_time, acc)

    def sums(self, hosts: np.ndarray, ent: np.ndarray, b: int):
        """``costs.chain_sums`` of b candidates' rows: hosts (rows, M) under
        drop sets ``ent`` (rows,), their arrays taken by drop set."""
        return chain_sums(hosts, self.src.take(ent, axis=0), self.kept_c.take(ent, axis=0),
                          self.kept_m.take(ent, axis=0), self.src_bits.take(ent, axis=0), b,
                          self.rho_off)

    def _finish(self, terms, load, mem, tx_time, acc):
        """Scores of b candidates from their sums; ``score`` and the exact
        solver's prefix tree both end here.  ``terms`` (k + N, b) holds k
        transfer terms (or their partial sum) in (request, block) order and
        N free rows, as ``chain_costs`` takes them.  ``load``, ``mem``,
        ``tx_time``: (b, N); ``acc``: (b,).
        """
        latency, _ct, joules = chain_costs(terms, load, tx_time, self.e, self.energy)
        # Relative overruns (N, 3, b), clipped at 0.  Caps are finite and > 0
        # and uses finite, so no entry is NaN or -0.0 for the clip to treat
        # apart from ``over > 0``.
        over = np.empty((self.n_devices, 3, latency.size))
        for kind, use in enumerate((load.T, mem.T, joules)):
            np.divide(use, self.caps[:, kind], out=over[:, kind])
        over -= 1.0
        np.maximum(over, 0.0, out=over)
        rel = _ordered_sum(over.reshape(3 * self.n_devices, -1))
        wo = objective_value(latency, acc / self.n_requests, self.n_requests, self.weights)
        return wo + PENALTY_WEIGHT * rel, wo, latency, rel == 0.0

    def evaluate(self, packed: np.ndarray):
        """Canonicalize and score a population of bit-packed chromosomes
        (``np.packbits`` rows), unpacking one bounded chunk at a time.

        Individuals that canonicalize to the same placement (hosts and drop
        sets) are scored once and share the result; scores do not depend on
        the batch, so this changes no output.

        Returns (penalized, objective, latency, feasible, hosts, ent).
        """
        r, n, m = self.n_requests, self.n_devices, self.n_blocks
        length = chromosome_length(r, n, m)
        step = max(1, _CHUNK_CELLS // (r * n * m))
        b = packed.shape[0]
        # Only the table columns grow with N: unpack and build them chunk by
        # chunk into one buffer, then walk every row at once.  Several chunks
        # store the smallest dtype that holds a table index; one keeps intp,
        # which the block steps add to the row offsets fastest.
        table = self.repair.table
        ent = np.empty(b * r, dtype=np.intp)
        offers = np.empty((m, table.shape[1], b * r), dtype=np.intp if b <= step else
                          np.min_scalar_type(table.shape[1] * table.shape[2]))
        for i in range(0, b, step):
            rows = slice(i * r, (i + step) * r)
            self._columns(np.unpackbits(packed[i:i + step], axis=1, count=length),
                          ent[rows], offers[:, :, rows])
        hosts = self.repair.walk(offers)
        del offers  # not held while scoring
        # One key row per individual, compared as a single opaque value.
        key = np.empty((b, r * (m + 1)),
                       dtype=np.min_scalar_type(max(n - 1, len(self.drops) - 1)))
        key[:, :r * m] = hosts.reshape(b, r * m)
        key[:, r * m:] = ent.reshape(b, r)
        first, inverse = _distinct(key.view(np.dtype((np.void, key.strides[0]))).ravel())
        per_hosts, per_ent = hosts.reshape(b, r * m), ent.reshape(b, r)
        scores = _stacked([
            self.score(per_hosts.take(some, axis=0).reshape(-1, m),
                       per_ent.take(some, axis=0).reshape(-1))
            for some in (first[i:i + step] for i in range(0, first.size, step))])
        return tuple(col.take(inverse) for col in scores) + (hosts, ent)

    def on_devices(self, devices: np.ndarray) -> _Evaluator:
        """This evaluator with its fleet cut to ``devices`` (ascending ids),
        for rows whose hosts are all among them, numbered by their place in
        ``devices``.  A device that hosts nothing adds only zeros to
        ``_finish``'s sums, so such rows score the same, bit for bit, as on
        the whole fleet."""
        sub = copy.copy(self)
        sub.n_devices = devices.size
        sub.e = self.e.take(devices)
        sub.caps = self.caps.take(devices, axis=0)
        sub.rho_off = transfer_rates(self.rho[np.ix_(devices, devices)])
        return sub

    def to_assignment(self, hosts: np.ndarray, ent: np.ndarray) -> Assignment:
        kept = self.keep.take(ent, axis=0)
        return Assignment(_placement(hosts, kept, self.n_devices),
                          kept.astype(np.uint8).reshape(-1, self.n_blocks))


def repair_allocation(assign: Assignment, graph: ResNetGraph, fleet: Fleet,
                      rates: RateMatrix) -> Assignment:
    """Resolve multi-host blocks to a single host per block.

    A forward pass per request: a block keeps the previous kept block's
    device when that device is among its hosts, otherwise it takes the host
    with the best link from that device (the fastest device when there is no
    previous block).  Ties go to the lowest device id.  Kept blocks with no
    host at all raise UncoveredBlock; already-resolved assignments come back
    unchanged, so the repair is idempotent.
    """
    kept = assign.y == 1
    gaps = kept & ~assign.x.any(axis=1)
    if gaps.any():
        r, j = np.argwhere(gaps)[0]
        raise UncoveredBlock(int(r), int(j) + 1)
    table = _RepairTable(rates.rho, fleet.mult_rates, 0)  # 0: never used
    return Assignment(_placement(table.hosts(assign.x, kept), kept, assign.n_devices),
                      assign.y)


def _feasibility_certificate(evaluator: _Evaluator) -> None:
    """Raise InfeasibleInstance, with a reason per drop set, when no
    candidate can satisfy the budgets.

    Checks necessary conditions only: some allowed drop set must fit the
    fleet in aggregate, and every block it keeps must fit on at least one
    device by itself.
    """
    ev = evaluator
    # Per block: whether some device holds it by itself.
    alone = ((ev.m[:, None] <= ev.mem_caps) & (ev.c[:, None] <= ev.comp_caps)
             & (ev.energy.p_compute * ev.c[:, None] / ev.e <= ev.energy_caps)).any(axis=1)
    reasons = []
    for drop, keep in zip(ev.drops, ev.keep):
        total_m = ev.m[keep].sum() * ev.n_requests
        total_c = ev.c[keep].sum() * ev.n_requests
        bad = np.flatnonzero(keep & ~alone)
        if total_m > ev.mem_caps.sum():
            reasons.append(f"drop {list(drop)}: memory {total_m:.6g} B over fleet total")
        elif total_c > ev.comp_caps.sum():
            reasons.append(f"drop {list(drop)}: compute {total_c:.6g} mults over fleet total")
        elif bad.size:
            reasons.append(f"drop {list(drop)}: block {bad[0] + 1} fits no device")
        else:
            return
    raise InfeasibleInstance("; ".join(reasons))


def _greedy_seed(ev: _Evaluator, length: int) -> np.ndarray:
    """Keep-all individual packed greedily under compute and energy headroom.

    Walks each request's chain, staying on the current device while the block
    fits, otherwise hopping to the fastest device with room and charging the
    boundary transfer to the sender.  Memory is left to the penalty terms.
    """
    r, n, m = ev.n_requests, ev.n_devices, ev.n_blocks
    bits = np.zeros(length, dtype=np.uint8)
    x = bits[: r * n * m].reshape(r, n, m)
    bits[r * n * m:] = 1
    comp_left = ev.comp_caps.tolist()
    en_left = ev.energy_caps.tolist()
    e, c_list, bits_list = ev.e.tolist(), ev.c.tolist(), ev.bits.tolist()
    rho = ev.rho.tolist()
    by_rate = sorted(range(n), key=lambda d: (-e[d], d))
    pc, pt = ev.energy.p_compute, ev.energy.p_transmit

    def fits(d, c):
        return comp_left[d] >= c and en_left[d] >= pc * c / e[d]

    for req in range(r):
        dvc = -1
        for j in range(m):
            c = c_list[j]
            if dvc >= 0 and fits(dvc, c):
                chosen = dvc
            else:
                chosen = next((d for d in by_rate if fits(d, c)), None)
                if chosen is None:
                    chosen = max(range(n), key=lambda d: comp_left[d])
                if dvc >= 0 and chosen != dvc:
                    en_left[dvc] -= pt * bits_list[j - 1] / rho[dvc][chosen]
            comp_left[chosen] -= c
            en_left[chosen] -= pc * c / e[chosen]
            x[req, chosen, j] = 1
            dvc = chosen
    return bits


def _result_from_resolved(ev: _Evaluator, hosts: np.ndarray, ent: np.ndarray,
                          solver: str, generations: int, evaluations: int,
                          history: tuple[float, ...], t0: float) -> SolveResult:
    assign = ev.to_assignment(hosts, ent)
    bd = evaluate_assignment(assign, ev.graph, ev.fleet, ev.rates, ev.energy,
                             memory_mode=ev.memory_mode)
    report = check_constraints(
        assign, ev.graph, ev.fleet, ev.rates, ev.energy, ev.weights, ev.profile,
        memory_mode=ev.memory_mode,
    )
    acc = report.accuracy if report.accuracy is not None else 0.0
    return SolveResult(
        assignment=assign,
        objective=objective_value(bd.total_latency, acc, assign.n_requests,
                                  ev.weights),
        accuracy=acc,
        feasible=report.feasible,
        report=report,
        breakdown=bd,
        solver=solver,
        generations=generations,
        evaluations=evaluations,
        history=history,
        wall_time_s=time.perf_counter() - t0,
    )


def _no_requests(ev: _Evaluator, solver: str, t0: float) -> SolveResult:
    empty = np.zeros((0, ev.n_blocks), dtype=np.intp)
    return _result_from_resolved(ev, empty, empty[:, 0], solver, 0, 0, (), t0)


def _in_order(x: np.ndarray) -> np.ndarray:
    """Sums of ``x`` over its axis 1, added one index after another whatever
    its layout: ``sum`` adds a contiguous axis pairwise from 8 terms."""
    return np.add.accumulate(x, axis=1)[:, -1]


def _other_rows(x: np.ndarray) -> np.ndarray:
    """Per request q, the sums (R, K) of the other requests' rows of ``x``
    (R, K), added in request order; q's own row adds an exact zero."""
    return _in_order(np.where(~np.eye(x.shape[0], dtype=bool)[:, :, None], x[None], 0.0))


def _best(pen: np.ndarray, lat: np.ndarray, feas: np.ndarray) -> tuple:
    """The GA's ranking key (penalized score, then infeasible, then latency)
    of the best candidate, and its index; the earliest wins a tie."""
    i = np.lexsort((lat, ~feas, pen))[0]
    return (pen[i], not feas[i], lat[i]), i


def _polish(ev: _Evaluator, hosts: np.ndarray, ent: np.ndarray):
    """Best-improvement descent from a resolved plan: hosts (R, M) and
    drop-set indices (R,) in, the plan it stops at out.  ``solve_ga`` runs it
    from each of ``_polish_starts``' one or two plans and keeps the best.

    A move changes one request.  Its moves, in this order: one kept block
    onto another device that hosts a kept block of any request in the plan;
    another allowed drop set; and a run (two or more consecutive kept blocks
    on one host, as many as there are) onto another such device, with the
    dropped blocks between them.  Every other host is left as the plan holds
    it.  A step scores every move as one row, the request's new row, whose
    sums are added to those of the plan's other rows (``_other_rows``, in
    request order, then the transfer terms in block order) before
    ``_finish``; the fleet is cut to the devices the plan names
    (``_Evaluator.on_devices``).  So a move costs one row over those
    devices, not R rows over the fleet.
    Moves are scored in batches of at most ``_CHUNK_CELLS`` cells and ranked
    by the GA's key (penalized score, then infeasible, then latency; the
    earliest move wins a tie).  Added in another order than ``score`` adds
    a plan, a move's key can differ from its plan's in the last bits, so
    the best move is scored again as a plan and taken only when that key is
    strictly below the plan's: the key falls at every step, and the descent
    stops when no move strictly improves.
    """
    r, m = hosts.shape
    # One row per request: its hosts, then its drop set in column m.
    plan = np.concatenate([hosts, ent[:, None]], axis=1)
    every, col = np.arange(len(ev.drops)), np.arange(m + 1)

    def ranked(plan):
        pen, _wo, lat, feas = ev.score(plan[:, :m], plan[:, m])
        return _best(pen, lat, feas)[0]

    def moves(local, kept, used):
        """Every request's moves as arrays (request, first column, last
        column, value), request by request and in each request's order: each
        move sets those columns of its row to the value.  Hosts are numbered
        as in ``local``, whose kept blocks are ``kept`` (R, M); ``used`` is
        every device they use."""
        h = local[:, :m]
        bq, bj, bu = np.nonzero(kept[:, :, None] & (h[:, :, None] != used))
        dq, de = np.nonzero(every != local[:, m:])
        # A kept block on the host of the kept block before it (the one it
        # is fed by) extends that block's run; the stem starts one.
        flat = h.ravel()
        fed = ev.src.take(local[:, m], axis=0) + np.arange(0, flat.size, m)[:, None]
        joined = flat.take(fed) == h
        joined[:, 0] = False
        at = np.flatnonzero(kept)  # kept cells, request by request
        heads = np.flatnonzero(~joined.ravel().take(at))
        tails = np.append(heads[1:], at.size) - 1
        runs = tails > heads
        first, last = at.take(heads[runs]), at.take(tails[runs])
        rg, ru = np.nonzero(used != flat.take(first)[:, None])
        first, last = first.take(rg), last.take(rg)
        out = (np.concatenate([bq, dq, first // m]),
               np.concatenate([bj, np.full(dq.size, m), first % m]),
               np.concatenate([bj, np.full(dq.size, m), last % m]),
               np.concatenate([used.take(bu), de, used.take(ru)]))
        order = out[0].argsort(kind="stable")
        return tuple(x.take(order) for x in out)

    best = ranked(plan)
    while True:
        # Every device the plan names, dropped blocks' hosts too; the step
        # numbers them by place.  Not np.unique: see _distinct.
        devices = np.flatnonzero(np.bincount(plan[:, :m].ravel()))
        sub = ev.on_devices(devices)
        local = plan.copy()
        local[:, :m] = devices.searchsorted(plan[:, :m])
        kept = ev.keep.take(local[:, m], axis=0)
        used = np.flatnonzero(np.bincount(local[:, :m][kept]))
        reqs, firsts, lasts, vals = moves(local, kept, used)
        # Per request q: the sums of the other rows.
        terms, load, mem, tx = sub.sums(local[:, :m], local[:, m], r)
        o_terms, o_load, o_mem, o_tx, o_acc = map(
            _other_rows, (terms[:m].T, load, mem, tx, ev.acc.take(local[:, m:])))
        o_terms, o_acc = _in_order(o_terms), o_acc[:, 0]
        step = max(1, _CHUNK_CELLS // (3 * devices.size + m))
        move = None
        for lo in range(0, reqs.size, step):
            hi = min(lo + step, reqs.size)
            q = reqs[lo:hi]
            rows = local.take(q, axis=0)
            np.copyto(rows, vals[lo:hi, None],
                      where=(col >= firsts[lo:hi, None]) & (col <= lasts[lo:hi, None]))
            t, load, mem, tx = sub.sums(rows[:, :m], rows[:, m], hi - lo)
            full = np.empty((1 + m + devices.size, hi - lo))
            full[0] = o_terms.take(q)
            full[1:1 + m] = t[:m]
            pen, _wo, lat, feas = sub._finish(
                full, load + o_load.take(q, axis=0), mem + o_mem.take(q, axis=0),
                tx + o_tx.take(q, axis=0), ev.acc.take(rows[:, m]) + o_acc.take(q))
            key, i = _best(pen, lat, feas)
            if key < best and (move is None or key < move[0]):
                move = key, lo + i
        if move is None:
            return plan[:, :m], plan[:, m]
        i = move[1]
        q, a, b = reqs[i], firsts[i], lasts[i] + 1
        old = plan[q, a:b].copy()
        plan[q, a:b] = devices[vals[i]] if a < m else vals[i]
        key = ranked(plan)
        if not key < best:
            plan[q, a:b] = old
            return plan[:, :m], plan[:, m]
        best = key


def _polish_starts(hosts: np.ndarray, ent: np.ndarray, pen: np.ndarray, lat: np.ndarray,
                   feas: np.ndarray, gen_hosts: np.ndarray, gen_ent: np.ndarray) -> list:
    """The plans ``_polish`` starts from: the search's best plan, hosts (R, M)
    and drop-set indices (R,), then the best plan of the last generation's
    children (the first population's, with no generations) that differs
    from it, when one does.  The children come as ``evaluate`` returns
    them: per individual its scores ``pen``, ``lat``, ``feas`` and R rows of
    ``gen_hosts`` and ``gen_ent``.  Plans are ranked by ``_best``'s key, the
    earliest first among equals."""
    r, m = hosts.shape
    plans = np.concatenate([gen_hosts.reshape(-1, r * m), gen_ent.reshape(-1, r)], axis=1)
    starts = [np.append(hosts.ravel(), ent)]
    some = np.flatnonzero((plans != starts[0]).any(axis=1))
    if some.size:
        starts.append(plans[some[_best(pen.take(some), lat.take(some), feas.take(some))[1]]])
    return [(s[:r * m].reshape(r, m), s[r * m:]) for s in starts]


def _flip_positions(rng: np.random.Generator, rate: float, size: int) -> np.ndarray:
    """Indices where a Bernoulli(rate > 0) draw over ``size`` bits comes up 1.

    Drawn as geometric gaps between flips: about ``rate * size`` numbers
    rather than one per bit.
    """
    expect = rate * size
    parts, last = [], -1
    while last < size:  # one draw almost always reaches past the end
        gaps = rng.geometric(rate, size=int(expect + 4.0 * expect ** 0.5) + 8)
        pos = last + np.cumsum(gaps)
        parts.append(pos)
        last = int(pos[-1])
    if len(parts) > 1:
        pos = np.concatenate(parts)
    return pos[pos < size]


def solve_ga(graph: ResNetGraph, fleet: Fleet, rates: RateMatrix,
             profile: AccuracyProfile, weights: ObjectiveWeights,
             energy: EnergyParams, n_requests: int,
             config: GaConfig = GaConfig(),
             memory_mode: str = "inputs") -> SolveResult:
    """Genetic search for the lowest-objective feasible assignment.

    Deterministic for a fixed config seed.  Raises InfeasibleInstance when a
    necessary-condition check proves no candidate can fit the budgets, and
    InstanceTooLarge when the population (one byte a gene) would exceed
    ``MEMORY_BOUND``; otherwise always returns its best candidate, flagged
    feasible or not.
    """
    t0 = time.perf_counter()
    ev = _Evaluator(graph, fleet, rates, profile, weights, energy, n_requests,
                    memory_mode=memory_mode, repair=True)
    if n_requests == 0:
        return _no_requests(ev, "ga", t0)
    _feasibility_certificate(ev)

    rng = np.random.default_rng(config.seed)
    n, m, r = ev.n_devices, ev.n_blocks, n_requests
    length = chromosome_length(r, n, m)
    if (need := config.population_size * length) > MEMORY_BOUND:
        raise InstanceTooLarge(need, MEMORY_BOUND, "GA population bytes")
    size, elite = config.population_size, config.elite

    # Chromosomes are kept bit-packed (np.packbits rows, eight genes a byte);
    # bits past ``length`` in the last byte are never read.
    pop = rng.integers(0, 256, size=(size, -(-length // 8)), dtype=np.uint8)
    # Seed two sane individuals: keep everything on the fastest device, and a
    # greedy packing that respects per-device budgets.  The rest is random.
    seeded = np.zeros(length, dtype=np.uint8)
    x_view = seeded[: r * n * m].reshape(r, n, m)
    x_view[:, ev.fix_device, :] = 1
    seeded[r * n * m:] = 1
    pop[0] = np.packbits(seeded)
    pop[1] = np.packbits(_greedy_seed(ev, length))

    # Selection compares (penalized score, latency): latency only breaks
    # exact score ties.  That leaves weighted runs untouched but still pulls
    # pure-accuracy runs toward co-located, low-transfer placements.  The
    # best candidate so far keys on ``_best``'s key; the earliest evaluated
    # wins a tie.  ``last`` holds the last scored batch: the last
    # generation's children, or the first population.
    best = last = None

    def evaluate(batch):
        nonlocal best, last
        last = None  # the previous generation's plans are not held while scoring
        pen, _wo, lat, feas, hosts, ent = last = ev.evaluate(batch)
        key, i = _best(pen, lat, feas)
        if best is None or key < best[0]:
            best = (key, hosts[i * r:(i + 1) * r].copy(), ent[i * r:(i + 1) * r].copy())
        return pen, lat

    scores, lats = evaluate(pop)
    history = [float(scores.min())]

    spare = np.empty_like(pop)
    n_kids, tour = size - elite, TOURNAMENT_SIZE
    rank = np.empty(size, dtype=np.intp)
    # Flat index of the first pick of each (child, parent) tournament.
    slot = np.arange(0, n_kids * 2 * tour, tour).reshape(n_kids, 2)
    for _gen in range(config.generations):
        # Dense rank of (score, latency): equal pairs share a rank, so argmin
        # over a tournament's picks returns the first pick among equals.
        order = np.lexsort((lats, scores))
        s, lt = scores.take(order), lats.take(order)
        rank[order[0]] = 0
        rank[order[1:]] = np.cumsum((s[1:] != s[:-1]) | (lt[1:] != lt[:-1]))
        picks = rng.integers(0, size, size=(n_kids, 2, tour))
        parents = picks.reshape(-1).take(slot + rank.take(picks).argmin(axis=2))
        # Children are exchangeable, so the first n_cross cross over and the
        # rest copy their first parent; uniform crossover takes each bit of
        # a crossing child from either parent, a random byte choosing eight.
        top = order[:elite]
        spare[:elite] = pop.take(top, axis=0)
        kids = spare[elite:]
        kids[:] = pop.take(parents[:, 0], axis=0)
        n_cross = rng.binomial(n_kids, CROSSOVER_RATE)
        swap = pop.take(parents[:n_cross, 1], axis=0)
        swap ^= kids[:n_cross]
        swap &= rng.integers(0, 256, size=swap.shape, dtype=np.uint8)
        kids[:n_cross] ^= swap
        kid, gene = np.divmod(_flip_positions(rng, 1.0 / length, n_kids * length), length)
        np.bitwise_xor.at(kids, (kid, gene >> 3), (128 >> (gene & 7)).astype(np.uint8))
        pen, lat = evaluate(kids)
        scores = np.concatenate([scores.take(top), pen])
        lats = np.concatenate([lats.take(top), lat])
        pop, spare = spare, pop
        # A stalled search repeats its best score; sharing the float object
        # keeps a kept result's history small.
        low = float(scores.min())
        history.append(history[-1] if low == history[-1] else low)

    evaluations = size + config.generations * (size - elite)
    pen, _wo, lat, feas, hosts, ent = last
    polished = [_polish(ev, h, e) for h, e in
                _polish_starts(best[1], best[2], pen, lat, feas, hosts, ent)]
    # The polished plan with the least key; the first start wins a tie.
    pen, _wo, lat, feas = ev.score(np.concatenate([h for h, _e in polished]),
                                   np.concatenate([e for _h, e in polished]))
    hosts, ent = polished[_best(pen, lat, feas)[1]]
    return _result_from_resolved(ev, hosts, ent, "ga", config.generations, evaluations,
                                 tuple(history), t0)


def _joined(states: list, nums: list) -> tuple:
    """A host's frontier part from the children each group gave it: the
    states side by side and the numbers in turn; one group's as they are."""
    if len(nums) == 1:
        return states[0], nums[0]
    return np.concatenate(states, axis=1), np.concatenate(nums)


def _tree_scores(ev: _Evaluator, batch: int):
    """Score the exact-solver candidates that could still win, grown as a
    prefix tree along each request's chain of kept blocks; yields
    (penalized, objective, latency, feasible, candidate number) per batch of
    leaves.  A cut candidate is one that ``_finish`` would flag infeasible,
    or one whose objective is above that of a feasible leaf already yielded.

    A node is a partial candidate.  Its state column holds the transfer
    latency and each device's load, memory and transmit time, all summed so
    far.  Each request's drop sets share one trie of their kept blocks, so
    the levels they share are grown once and each child of a branch takes
    the same frontier.  A kept block copies every node once per host h, adds
    its load and memory on h and, from a different sender, its transfer to
    the latency and the sender's transmit time.  Where a drop set's chain
    ends, its accuracy joins the accuracy sum, a scalar.  Each sum grows in
    (request, block) order from 0.0, as in ``score``, whose extra terms are
    zeros, so each leaf scores bit for bit as ``score`` would.  A node's
    number is the earlier requests' number then its hosts, base N, turned
    into the candidate number where the chain ends.

    Two cuts apply to each child.  Load and memory only grow along a
    branch, so a child is cut where its host first goes over a compute or
    memory cap, by the test ``_finish`` makes (use / cap > 1.0).  And once
    a feasible leaf has been yielded, the lowest such objective is the
    incumbent, and a child is cut when every leaf below it must score above
    the incumbent (branch and bound).  A leaf's accuracy sum is at most the
    sum so far plus the best accuracy among the drop sets below the child
    and then the best drop set's for each later request, added in order as
    the leaf adds them, so this bound holds in floats too.  Its latency is
    at least the transfers so far, each device's compute time so far, and
    the compute still to place at the fastest device's rate: the least that
    any drop set below the child keeps after it on this chain and, per later
    request, the least any drop set keeps.  The child is cut when that
    latency is above ``latency_budget``'s for that accuracy and the
    incumbent raised by ``_BOUND_SLACK`` of itself.  The latency bound adds
    its terms in another order than the leaf does, and the slack is far
    above the rounding that can cost.  So a leaf that ties the incumbent is
    never cut, and the earliest optimum is always scored.

    The frontier is one group of nodes per host of the last kept block,
    (host, state, numbers).  Its children are grown from it whole while N
    times its size fits ``batch`` nodes (at least N), otherwise group by
    group in slices of ``batch // N`` nodes, so no batch exceeds ``batch``.
    """
    r, n, t = ev.n_requests, ev.n_devices, ev.tables
    kept, after = t.kept, t.after
    sizes = [n ** k.size for k in kept]
    per_request, offsets = sum(sizes), np.cumsum([0] + sizes)
    width = 1 + 3 * n  # rows 1 + 3h to 3 + 3h: device h's load, memory, transmit
    seconds = ev.bits[:, None, None] / ev.rho_off.reshape(n, n)  # [block, sender, receiver]
    # For the bound, per later request: the least compute and best accuracy.
    least_c, best_acc, fastest = t.least_c, t.best_acc, ev.e.max()
    cutoff = np.inf

    def place(groups, q, acc, ds, i):
        """Kept block i of the drop sets ``ds`` on each host: the groups."""
        j, sent = kept[ds[0]][i], kept[ds[0]][i - 1]
        top = acc + max(ev.acc[d] for d in ds)  # as leaves add, each later request at the best
        for _q in range(q + 1, r):
            top += best_acc
        budget = latency_budget(cutoff, top / r, r, ev.weights)
        own = ev.c[j] / ev.e + (min(after[d][i] for d in ds) + (r - 1 - q) * least_c) / fastest
        parts = [([], []) for _h in range(n)]
        for g, state, num in groups:
            load, mem = state[1::3] + ev.c[j], state[2::3] + ev.m[j]
            fit = (load / ev.caps[:, 0] <= 1.0) & (mem / ev.caps[:, 1] <= 1.0)
            if budget < np.inf:  # the latency bound of each child, (host, node)
                fit &= (state[0] + (state[1::3] / ev.e[:, None]).sum(axis=0)
                        + (own + (seconds[sent, g] if i else 0.0))[:, None]) <= budget
            num = num * n
            for h, row in enumerate(fit):
                idx = row.nonzero()[0]
                if idx.size:
                    child = state.take(idx, axis=1)
                    child[1 + 3 * h], child[2 + 3 * h] = load[h].take(idx), mem[h].take(idx)
                    if i and g != h:  # the sender pays; a same-device transfer adds 0.0
                        sec = seconds[sent, g, h]
                        child[0] += sec
                        child[3 + 3 * g] += sec
                    parts[h][0].append(child)
                    parts[h][1].append(num.take(idx) + h)
        return [(h, *_joined(s, u)) for h, (s, u) in enumerate(parts) if u]

    def numbered(num, d):
        """The candidate numbers of nodes where drop set d's chain ends."""
        return num + num // sizes[d] * (per_request - sizes[d]) + offsets[d]

    def walk(groups, q, acc, ds, i):
        """The trie below the frontier ``groups`` of the drop sets ``ds``
        after i kept blocks; only a branching node keeps its frontier."""
        nonlocal cutoff
        while groups:
            below = {}
            for d in ds:
                if i < kept[d].size:
                    below.setdefault(kept[d][i], []).append(d)
                elif q + 1 < r:
                    yield from walk([(h, state, numbered(num, d)) for h, state, num in groups],
                                    q + 1, acc + ev.acc[d], range(len(kept)), 0)
                else:
                    leaves = np.concatenate([state for _h, state, _num in groups], axis=1)
                    terms = np.empty((1 + n, leaves.shape[1]))
                    terms[0] = leaves[0]
                    out = ev._finish(terms, leaves[1::3].T, leaves[2::3].T, leaves[3::3].T,
                                     np.full(leaves.shape[1], acc + ev.acc[d]))
                    wo = out[1][out[3]]
                    if wo.size:
                        cutoff = min(cutoff, (1.0 + _BOUND_SLACK) * wo.min())
                    yield out + (numbered(np.concatenate([num for *_, num in groups]), d),)
            if not below:
                return
            if sum(num.size for *_, num in groups) * n > batch:
                step = batch // n
                parts = [[(h, state[:, lo:lo + step], num[lo:lo + step])]
                         for h, state, num in groups for lo in range(0, num.size, step)]
            elif len(below) == 1:
                (ds,) = below.values()
                groups, i = place(groups, q, acc, ds, i), i + 1
                continue
            else:
                parts = [groups]
            for part in parts:
                for sub in below.values():
                    yield from walk(place(part, q, acc, sub, i), q, acc, sub, i + 1)
            return

    try:
        yield from walk([(0, np.zeros((width, 1)), np.zeros(1, dtype=np.int64))], 0, 0.0,
                        range(len(kept)), 0)
    finally:
        del walk  # it refers to itself: unbound, its arrays go now, not at a gc


def solve_exact(graph: ResNetGraph, fleet: Fleet, rates: RateMatrix,
                profile: AccuracyProfile, weights: ObjectiveWeights,
                energy: EnergyParams, n_requests: int,
                limits: ExactLimits = ExactLimits(),
                memory_mode: str = "inputs") -> SolveResult:
    """Exhaustive search over per-request drop sets and placements.

    InstanceTooLarge names the candidate count when the space exceeds the
    limit, or the 2**63 - 1 that int64 candidate numbers can reach, whatever
    the limit.  Candidates are numbered in enumeration order (drop sets in
    projection order, then hosts with the last kept block varying fastest,
    the last request fastest of all).  They are grown as a prefix tree
    (``_tree_scores``), shared by the drop sets, that cuts a branch where it
    first goes over a compute or memory cap, or where its bound is above the best
    feasible leaf scored so far, so only candidates that cannot win are cut;
    the leaves left share the GA's last scoring step, batch by batch.  One
    request on the shipped 10-device fleet is practical with
    ``max_candidates`` raised to 1e18; several requests on it are not.
    ``evaluations`` counts every candidate, cut ones too.  Only the winner's
    number is decoded into hosts.  Returns the true optimum, the earliest
    candidate among equals, or raises InfeasibleInstance when the
    certificate rules every candidate out or none in the space is feasible.
    """
    t0 = time.perf_counter()
    ev = _Evaluator(graph, fleet, rates, profile, weights, energy, n_requests,
                    memory_mode=memory_mode)
    if n_requests == 0:
        return _no_requests(ev, "exact", t0)

    n, m, r = ev.n_devices, ev.n_blocks, n_requests
    sizes = [n ** int(k) for k in ev.keep.sum(axis=1)]
    per_request = sum(sizes)
    total = per_request ** r
    if total > limits.max_candidates:
        raise InstanceTooLarge(total, limits.max_candidates)
    if total > _MAX_NUMBER:
        raise InstanceTooLarge(total, _MAX_NUMBER, "enumeration size (int64 candidate numbers)")
    _feasibility_certificate(ev)

    best = None
    batch = max(n, _CHUNK_CELLS // ((1 + 3 * n) * r * m))
    for _pen, wo, lat, feas, num in _tree_scores(ev, batch):
        ok = np.flatnonzero(feas)
        if ok.size == 0:
            continue
        for col in (wo, lat, num):  # the lowest objective, then latency, then number
            low = col.take(ok)
            ok = ok[low == low.min()]
        i = ok[0]
        if best is None or (wo[i], lat[i], num[i]) < best:
            best = (wo[i], lat[i], num[i])
    if best is None:
        raise InfeasibleInstance(
            f"exhausted {total} candidates without finding a feasible assignment"
        )
    # Decode the winner: its option per request (the last request fastest),
    # then the hosts of its drop set's kept blocks (the last one fastest).
    opt = np.array([int(best[2]) // per_request ** (r - 1 - q) % per_request
                    for q in range(r)])
    offsets = np.cumsum([0] + sizes)
    ent = np.searchsorted(offsets, opt, side="right") - 1
    rest, hosts = opt - offsets[ent], np.zeros((r, m), dtype=np.intp)
    for j in reversed(range(m)):
        rest, hosts[:, j] = np.divmod(rest, np.where(ev.keep[ent, j], n, 1))
    return _result_from_resolved(ev, hosts, ent, "exact", 0, total, (), t0)
