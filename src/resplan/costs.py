"""Latency, energy, and reporting metrics for a candidate assignment.

Conventions, fixed here and relied on everywhere:

* Latency: for each request, every kept block but the first pays for the
  one transfer into it, from the previous kept block (the chain form: a skip
  edge carries data only across dropped blocks).  Same-device transfers cost
  zero.  Device compute times are added on top; there is no queueing or
  compute/transfer overlap model.
* Energy and shared data: each physical transfer is counted exactly once; a
  span-1 skip edge that coincides with a direct edge is the same bytes on the
  same wire.  Transmission energy is charged to the sending device.
* Latency is summed over requests with no pipelining.

All functions are pure; assignments and inputs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fleet import EnergyParams, Fleet, RateMatrix
from .graph import Edge, ResNetGraph, block_arrays, effective_edges


@dataclass(frozen=True)
class Assignment:
    """Decision variables for one round: x[r,i,j] hosts, y[r,j] keep/drop.

    A *resolved* assignment gives every kept block exactly one host; the
    relaxed form (>= 1 host) only exists between the solver's relaxation and
    its repair pass.
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

    @property
    def n_blocks(self) -> int:
        return self.x.shape[2]

    def is_resolved(self) -> bool:
        """True when every kept block has exactly one host."""
        cover = self.x.sum(axis=1)  # (R, M)
        return bool(((cover == 1) | (self.y == 0)).all())

    def hosts(self, r: int) -> np.ndarray:
        """Host device index (0-based) per block for request r; only kept
        blocks are meaningful."""
        return np.argmax(self.x[r], axis=0)


def _request_transfer_costs(edges: Sequence[Edge], hosts: np.ndarray,
                            bits: np.ndarray, rho: np.ndarray):
    """One request's physical transfers [(src, dst, seconds, bits)] in block
    order, one into each kept block but the first; co-located endpoints
    cost zero seconds."""
    transfers: dict[tuple[int, int], tuple[int, int, float, float]] = {}
    for e in edges:
        hs = int(hosts[e.src - 1])
        hd = int(hosts[e.dst - 1])
        cost = 0.0 if hs == hd else float(bits[e.src - 1]) / rho[hs, hd]
        transfers[e.src, e.dst] = (e.src, e.dst, cost, float(bits[e.src - 1]))
    return list(transfers.values())


@dataclass(frozen=True)
class CostBreakdown:
    """Everything the reporting layer wants from one assignment evaluation."""

    total_latency: float
    comp_time: np.ndarray      # (N,) seconds computing, per device
    tx_time: np.ndarray        # (N,) seconds transmitting, per device
    energy: np.ndarray         # (N,) joules, per device
    memory_use: np.ndarray     # (N,) bytes resident, per device
    compute_use: np.ndarray    # (N,) multiplications, per device
    shared_bits: float
    total_mults: float


def evaluate_assignment(assign: Assignment, graph: ResNetGraph, fleet: Fleet,
                        rates: RateMatrix, energy: EnergyParams,
                        memory_mode: str = "inputs") -> CostBreakdown:
    """One-pass evaluation of every cost and reporting metric.

    Requires a resolved assignment whose drop vectors are bridgeable.
    ``memory_mode`` picks what counts as resident memory (see
    ``graph.memory_load``).
    """
    if not assign.is_resolved():
        raise ValueError("assignment is not resolved (some kept block lacks a unique host)")
    return _evaluate_arrays(assign, graph, fleet, rates, energy,
                            *block_arrays(graph, memory_mode))


def _evaluate_arrays(assign: Assignment, graph: ResNetGraph, fleet: Fleet,
                     rates: RateMatrix, energy: EnergyParams,
                     c: np.ndarray, mem_vec: np.ndarray, bits: np.ndarray) -> CostBreakdown:
    n = fleet.n_devices
    e_rates = fleet.mult_rates

    gated = assign.x * assign.y[:, None, :]          # (R, N, M)
    load = np.einsum("rim,m->i", gated, c)           # mults per device
    mem_use = np.einsum("rim,m->i", gated, mem_vec)  # bytes per device
    comp_time = load / e_rates

    tx_time = np.zeros(n)
    latency_tx = 0.0
    shared = 0.0
    for r in range(assign.n_requests):
        edges = effective_edges(graph, assign.y[r])
        hosts = assign.hosts(r)
        transfers = _request_transfer_costs(edges, hosts, bits, rates.rho)
        latency_tx += sum(t[2] for t in transfers)
        for src, _dst, secs, k_bits in transfers:
            if secs > 0.0:
                tx_time[hosts[src - 1]] += secs
                shared += k_bits

    joules = energy.p_compute * comp_time + energy.p_transmit * tx_time
    return CostBreakdown(
        total_latency=float(latency_tx + comp_time.sum()),
        comp_time=comp_time,
        tx_time=tx_time,
        energy=joules,
        memory_use=mem_use,
        compute_use=load,
        shared_bits=float(shared),
        total_mults=float(np.einsum("rim,m->", gated, c)),
    )
