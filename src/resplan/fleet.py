"""Device fleet, inter-device data rates, and stochastic request arrivals.

Device mobility is represented only through re-sampling the rate matrix each
round; there is no channel or mobility model beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

DEFAULT_RATE_LO = 7.2e6   # bits/s
DEFAULT_RATE_HI = 72.2e6  # bits/s
DEFAULT_P_COMPUTE = 8.0   # watts
DEFAULT_P_TRANSMIT = 10.0 # watts


def _check_positive(owner, names) -> None:
    """Raise ValueError naming the first field that is not finite and > 0."""
    for name in names:
        if not 0 < getattr(owner, name) < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {getattr(owner, name)!r}")


def check_rate_bounds(lo: float, hi: float) -> None:
    """Raise ValueError, naming both bounds, unless 0 < lo <= hi < inf."""
    if not 0 < lo <= hi < np.inf:
        raise ValueError(f"need 0 < rate_lo <= rate_hi < inf, got rate_lo={lo!r}, "
                         f"rate_hi={hi!r}")


@dataclass(frozen=True, slots=True)
class DeviceSpec:
    """One device's budgets: memory and compute/energy per round, plus speed."""

    device_id: int
    memory_cap: float      # bytes
    compute_cap: float     # multiplications per round
    energy_cap: float      # joules per round
    mult_rate: float       # multiplications per second

    def __post_init__(self):
        if self.device_id < 1:
            raise ValueError("device_id must be >= 1")
        _check_positive(self, ("memory_cap", "compute_cap", "energy_cap", "mult_rate"))


@dataclass(frozen=True, slots=True)
class Fleet:
    """Ordered device list with array views the cost engine can vectorize over."""

    devices: tuple[DeviceSpec, ...]

    def __post_init__(self):
        ids = [d.device_id for d in self.devices]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError("device ids must form a contiguous 1..N sequence")

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def _array(self, attr: str) -> np.ndarray:
        a = np.array([getattr(d, attr) for d in self.devices], dtype=float)
        a.flags.writeable = False
        return a

    @property
    def memory_caps(self) -> np.ndarray:
        return self._array("memory_cap")

    @property
    def compute_caps(self) -> np.ndarray:
        return self._array("compute_cap")

    @property
    def energy_caps(self) -> np.ndarray:
        return self._array("energy_cap")

    @property
    def mult_rates(self) -> np.ndarray:
        return self._array("mult_rate")

    def scaled(self, compute: float = 1.0, energy: float = 1.0,
               rate: float = 1.0) -> "Fleet":
        """Same fleet with compute budgets, energy budgets and multiplication
        rates multiplied by the given factors."""
        return Fleet(tuple(
            replace(d, compute_cap=d.compute_cap * compute, energy_cap=d.energy_cap * energy,
                    mult_rate=d.mult_rate * rate)
            for d in self.devices
        ))


def two_tier_fleet(n_devices: int,
                   memory_caps: Sequence[float],
                   compute_caps: Sequence[float],
                   energy_caps: Sequence[float],
                   mult_rates: Sequence[float]) -> Fleet:
    """Mixed fleet cycling through the given tier values (low, high, low, ...)."""
    if n_devices < 1:
        raise ValueError("n_devices must be >= 1")
    return Fleet(tuple(
        DeviceSpec(
            device_id=i + 1,
            memory_cap=memory_caps[i % len(memory_caps)],
            compute_cap=compute_caps[i % len(compute_caps)],
            energy_cap=energy_caps[i % len(energy_caps)],
            mult_rate=mult_rates[i % len(mult_rates)],
        )
        for i in range(n_devices)
    ))


@dataclass(frozen=True, slots=True)
class RateMatrix:
    """Bits-per-second between device pairs for one round.

    The diagonal is never read: a transfer between blocks on the same device
    costs nothing by contract.
    """

    rho: np.ndarray
    round_index: int = 0

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("rho must be a square matrix")
        off = ~np.eye(rho.shape[0], dtype=bool)
        if not np.all((rho[off] > 0) & (rho[off] < np.inf)):
            raise ValueError("off-diagonal rates must be finite and > 0")
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True, slots=True)
class RequestBatch:
    """How many inference requests arrived this round."""

    round_index: int
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")


@dataclass(frozen=True, slots=True)
class EnergyParams:
    """Power draw while computing and while transmitting."""

    p_compute: float = DEFAULT_P_COMPUTE
    p_transmit: float = DEFAULT_P_TRANSMIT

    def __post_init__(self):
        _check_positive(self, ("p_compute", "p_transmit"))


def sample_rates(n_devices: int, lo: float = DEFAULT_RATE_LO, hi: float = DEFAULT_RATE_HI,
                 rng: np.random.Generator | None = None,
                 round_index: int = 0) -> RateMatrix:
    """Draw each pairwise rate uniformly from [lo, hi], the same both ways."""
    check_rate_bounds(lo, hi)
    rng = np.random.default_rng() if rng is None else rng
    rho = rng.uniform(lo, hi, size=(n_devices, n_devices))
    iu = np.triu_indices(n_devices, k=1)
    rho[(iu[1], iu[0])] = rho[iu]
    np.fill_diagonal(rho, 0.0)
    return RateMatrix(rho=rho, round_index=round_index)


# The largest arrival rate numpy's Poisson sampler draws from; above it
# ``Generator.poisson`` refuses the value ("lam value too large").
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def sample_requests(lam: float, rng: np.random.Generator | None = None,
                    round_index: int = 0) -> RequestBatch:
    """Poisson-distributed request count for one round."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    rng = np.random.default_rng() if rng is None else rng
    return RequestBatch(round_index=round_index, count=int(rng.poisson(lam)))
