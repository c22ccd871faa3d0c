"""Latency, energy, and reporting metrics for a candidate assignment.

Conventions, fixed here and relied on everywhere:

* Latency: for each request, every kept block but the first pays for the
  one transfer into it, from the previous kept block (the chain form: a skip
  edge carries data only across dropped blocks).  Same-device transfers cost
  zero.  Device compute times are added on top; there is no queueing or
  compute/transfer overlap model.
* Energy and shared data: each kept block but the first receives one
  transfer, counted once even where a span-1 skip edge runs beside the direct
  edge.  Transmission energy is charged to the sending device.
* Latency is summed over requests with no pipelining.

The model is written once: ``chain_sums`` lays out b candidates' transfer
terms and per-device sums, and ``chain_costs`` turns them into latency and
joules, writing compute times into the free rows of its ``terms`` (nothing
else here changes its inputs).  ``evaluate_assignment`` runs them on one
candidate, the solvers' scorer on a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fleet import EnergyParams, Fleet, RateMatrix
from .graph import ResNetGraph, block_arrays, effective_edges


@dataclass(frozen=True, slots=True)
class Assignment:
    """Decision variables for one round: x[r,i,j] hosts, y[r,j] keep/drop.

    A *resolved* assignment gives every kept block exactly one host.  The
    solvers only build resolved ones; ``repair_allocation`` resolves one that
    lists several hosts for a block.
    """

    x: np.ndarray  # (R, N, M) binary
    y: np.ndarray  # (R, M) binary

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.uint8)
        y = np.asarray(self.y, dtype=np.uint8)
        if x.ndim != 3 or y.ndim != 2:
            raise ValueError("x must be (R,N,M), y must be (R,M)")
        if x.shape[0] != y.shape[0] or x.shape[2] != y.shape[1]:
            raise ValueError(f"dimension mismatch: x {x.shape} vs y {y.shape}")
        if x.size and not np.isin(x, (0, 1)).all():
            raise ValueError("x entries must be binary")
        if y.size and not np.isin(y, (0, 1)).all():
            raise ValueError("y entries must be binary")
        if y.size and not (y[:, 0] == 1).all():
            raise ValueError("the stem keep-bit must be 1 for every request")
        x = x.copy()
        y = y.copy()
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_requests(self) -> int:
        return self.x.shape[0]

    @property
    def n_devices(self) -> int:
        return self.x.shape[1]

    def is_resolved(self) -> bool:
        """True when every kept block has exactly one host."""
        cover = self.x.sum(axis=1)  # (R, M)
        return bool(((cover == 1) | (self.y == 0)).all())

    def hosts(self, r: int) -> np.ndarray:
        """Host device index (0-based) per block for request r; only kept
        blocks are meaningful."""
        return np.argmax(self.x[r], axis=0)


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Everything the reporting layer wants from one assignment evaluation;
    the per-device figures are rows of one read-only array, read by name."""

    total_latency: float
    per_device: np.ndarray     # (5, N): the rows read below
    shared_bits: float
    total_mults: float

    comp_time = property(lambda self: self.per_device[0])    # seconds computing
    tx_time = property(lambda self: self.per_device[1])      # seconds transmitting
    energy = property(lambda self: self.per_device[2])       # joules
    memory_use = property(lambda self: self.per_device[3])   # bytes resident
    compute_use = property(lambda self: self.per_device[4])  # multiplications


def transfer_rates(rho: np.ndarray) -> np.ndarray:
    """Link rates flat, indexed by sender * N + receiver, with an infinite
    diagonal: a same-device transfer divides by it and costs exactly zero."""
    rho_off = np.array(rho, dtype=float)
    np.fill_diagonal(rho_off, np.inf)
    return rho_off.ravel()


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Column sums of block-major ``terms`` (terms, candidates), each added
    top to bottom as a per-candidate loop adds it: a reduce over the outer
    axis adds row after row.  numpy sums a lone column pairwise, which can
    differ in the last bit, so one candidate is accumulated instead."""
    if terms.shape[1] == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


def chain_sums(hosts: np.ndarray, src: np.ndarray, load_in: np.ndarray,
               mem_in: np.ndarray, bits_in: np.ndarray, b: int,
               rho_off: np.ndarray):
    """Transfer terms and per-device sums of b candidates, R requests each.

    Rows are (candidate, request) pairs, (b*R, M) each: every block's host,
    the block feeding it (itself when nothing is sent), the load and memory
    it places and the bits it receives.  Returns ``terms`` (R*M + N, b), the
    transfer seconds in (request, block) order above N free rows, and the
    load, memory and transmit seconds per (candidate, device), (b, N) each,
    added in (request, block) order; the sender pays for a transfer.
    """
    rows, m = hosts.shape
    n = math.isqrt(rho_off.size)
    base = np.arange(0, b * n, n)[:, None]
    bins = (hosts.reshape(b, -1) + base).ravel()
    load = np.bincount(bins, load_in.ravel(), b * n).reshape(b, n)
    mem = np.bincount(bins, mem_in.ravel(), b * n).reshape(b, n)
    src_hosts = hosts.reshape(-1).take(src + np.arange(0, rows * m, m)[:, None])
    cost = bits_in / rho_off.take(src_hosts * n + hosts)
    tx_time = np.bincount((src_hosts.reshape(b, -1) + base).ravel(), cost.ravel(),
                          b * n).reshape(b, n)
    k = rows // b * m
    terms = np.empty((k + n, b))
    terms[:k] = cost.reshape(b, k).T
    return terms, load, mem, tx_time


def chain_costs(terms: np.ndarray, load: np.ndarray, tx_time: np.ndarray,
                e: np.ndarray, energy: EnergyParams):
    """Latency (b,) and per-device compute seconds and joules (N, b) from
    ``chain_sums``' arrays; ``terms`` may hold any transfer terms above its
    N free rows.  Each device's compute seconds are written into those rows,
    and latency adds every row in order: the transfers, then the compute."""
    ct = np.divide(load.T, e[:, None], out=terms[-e.size:])
    joules = energy.p_compute * ct + energy.p_transmit * tx_time.T
    return _ordered_sum(terms), ct, joules


def evaluate_assignment(assign: Assignment, graph: ResNetGraph, fleet: Fleet,
                        rates: RateMatrix, energy: EnergyParams,
                        memory_mode: str = "inputs") -> CostBreakdown:
    """Every cost and reporting metric of one resolved assignment whose drop
    vectors are bridgeable, from the passes the solvers score with, so its
    latency is the one they ranked, to the bit.  ``memory_mode`` picks what
    counts as resident memory (see ``graph.memory_load``).  An unresolved
    one raises ValueError naming its first kept block without exactly one host.
    """
    if not assign.is_resolved():
        cover = assign.x.sum(axis=1)
        r, j = np.argwhere((cover != 1) & (assign.y == 1))[0]
        raise ValueError(f"assignment is not resolved: request {r} keeps block {j + 1} on "
                         f"{cover[r, j]} hosts, not one (see solvers.repair_allocation)")
    c, mem_vec, bits = block_arrays(graph, memory_mode)
    r, m = assign.y.shape
    # Each kept block but the first is fed by the previous kept block; the
    # others name themselves, which costs nothing.
    src = np.tile(np.arange(m), (r, 1))
    for q in range(r):
        for s, d in effective_edges(graph, assign.y[q]):
            src[q, d - 1] = s - 1
    src_bits = bits[src]
    terms, load, mem, tx_time = chain_sums(
        assign.x.argmax(axis=1), src, assign.y * c, assign.y * mem_vec, src_bits, 1,
        transfer_rates(rates.rho))
    latency, ct, joules = chain_costs(terms, load, tx_time, fleet.mult_rates, energy)
    sent = terms[:r * m, 0] > 0.0  # whole bit counts: exact in any order
    per_device = np.stack([ct[:, 0], tx_time[0], joules[:, 0], mem[0], load[0]])
    per_device.flags.writeable = False
    return CostBreakdown(
        total_latency=float(latency[0]),
        per_device=per_device,
        shared_bits=float(src_bits.ravel()[sent].sum()),
        total_mults=float(load.sum()),
    )
