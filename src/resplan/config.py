"""YAML scenario configuration: defaults, validation, overrides, builders.

Every key carries its unit in its name (memory_mb, energy_j, rate_lo_mbps),
values convert to SI at build time (MB and Mb are decimal, 1e6).  Unknown
keys are errors: a typo silently falling back to a default would invalidate
an experiment.
"""

from __future__ import annotations

import copy
import functools
import operator
from dataclasses import replace
from importlib import resources
from pathlib import Path

import yaml

from .errors import ConfigError
from .fleet import EnergyParams, check_rate_bounds, two_tier_fleet
from .graph import build_resnet50
from .harness import SWEEP_KINDS, ScenarioConfig, SweepAxis, apply_axis_value
from .objective import ObjectiveWeights, default_latency_ref
from .profile import SAFE_LOADER, AccuracyProfile, load_profile, read_source, with_exponent_floats
from . import solvers
from .solvers import ExactLimits, GaConfig

MB = 1e6          # bytes per (decimal) megabyte
MBPS = 1e6        # bits/s per Mb/s
GMULTS = 1e9      # multiplications per G

# The solver section's defaults are the library's: one source for both.
_GA, _EXACT = GaConfig(), ExactLimits()

DEFAULTS: dict = {
    "label": "scenario",
    "model": {
        "input_side": 224,
        "weight_bytes": 4,
        "memory_mode": "inputs",
    },
    "fleet": {
        "devices": 10,
        "memory_mb": [100.0, 200.0],
        "compute_gmults": [1.4, 2.8],
        "energy_j": [800.0, 1000.0],
        "rate_gmults_per_s": [1.4, 2.8],
    },
    "network": {
        "rate_lo_mbps": 7.2,
        "rate_hi_mbps": 72.2,
    },
    "energy": {
        "p_compute_w": 8.0,
        "p_transmit_w": 10.0,
    },
    "profile": {
        "path": None,
    },
    "weights": {
        "alpha": 0.7,
        "beta": 0.3,
        "accuracy_threshold": 0.8,
        "latency_ref_s": None,
    },
    "solver": {
        "kind": "ga",
        "population_size": _GA.population_size,
        "generations": _GA.generations,
        "elite": _GA.elite,
        "max_candidates": _EXACT.max_candidates,
    },
    "scenario": {
        "lam": 3.0,
        "rounds": 10,
        "seed": 0,
    },
    "sweep": None,
}

_SWEEP_KEYS = {"axis", "values"}

PRESET_NAMES = ("sweep_weights", "sweep_energy", "sweep_request_rate", "sweep_compute")


def _merge(base: dict, user: dict, path: str) -> dict:
    out = copy.deepcopy(base)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key == "sweep" and not path:
            out["sweep"] = _check_sweep(base["sweep"], copy.deepcopy(value))
            continue
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict):
            if value is None:
                continue
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be a mapping")
            out[key] = _merge(base[key], value, here)
        else:  # a copy: a list held under two keys is not dumped as an alias
            out[key] = copy.deepcopy(value)
    return out


def _check_sweep(loaded, value):
    """``value``, a sweep section, merged over the one already ``loaded``."""
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ConfigError("sweep must be a mapping with 'axis' and 'values'")
    unknown = set(value) - _SWEEP_KEYS
    if unknown:
        raise ConfigError(f"unknown sweep keys: {sorted(unknown)}")
    value = {**(loaded or {}), **value}
    if "axis" not in value or "values" not in value:
        raise ConfigError("sweep needs both 'axis' and 'values'")
    return {"axis": value["axis"], "values": value["values"]}


def load_config(source=None, overrides=(), seed=None) -> dict:
    """Normalized config dict: defaults, then the document, then overrides.

    ``source`` is a path-like (the ``--config`` file), a dict, None for pure
    defaults, or a string: a path when it is one line that ends in ``.yaml``
    or ``.yml`` or holds a ``/``, else YAML text.  ``overrides`` are dotted
    assignments like ``solver.generations=50`` whose value side is parsed as
    YAML; they are gathered into one document, the last assignment to a key
    winning, and merged like the source, so an override of an unknown key is
    an error as in a document.  ``seed`` overrides scenario.seed last.
    """
    if source is None:
        doc: dict = {}
    elif isinstance(source, dict):
        doc = source
    else:
        try:
            text = read_source(source)
        except (OSError, UnicodeError) as exc:
            raise ConfigError(f"cannot read --config {str(source)!r}: {exc}") from exc
        try:
            doc = yaml.load(text, Loader=SAFE_LOADER) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a mapping")

    cfg = _merge(DEFAULTS, doc, "")
    sets: dict = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        try:
            value = yaml.load(raw, Loader=SAFE_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r}: bad value: {exc}") from exc
        *parents, leaf = key.strip().split(".")
        node = sets
        for part in parents:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[leaf] = value
    cfg = _merge(cfg, sets, "")
    if seed is not None:
        cfg["scenario"]["seed"] = int(seed)
    return cfg


@with_exponent_floats
class _NoAliasDumper(yaml.SafeDumper):
    """Writes every value in full, with no anchor or alias; quotes numeric text."""

    def ignore_aliases(self, data):
        return True


def effective_yaml(cfg: dict) -> str:
    """Deterministic dump of the fully resolved config (round-trips)."""
    return yaml.dump(cfg, Dumper=_NoAliasDumper, sort_keys=True, default_flow_style=False)


def _as_list(value, name: str) -> list[float]:
    if isinstance(value, (int, float)):
        value = [value]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a number or a non-empty list")
    out = []
    for v in value:
        f = _as_real(v, name)
        if f <= 0:
            raise ConfigError(f"{name} entries must be > 0, got {v!r}")
        out.append(f)
    return out


def _as_int(value, name: str) -> int:
    """An integer key's value.  A float counts only when it is integral; a
    boolean, a string or a fraction is an error that names the key."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _as_real(value, name: str) -> float:
    """A real-valued key's value.  Anything ``float()`` takes counts, numeric
    strings too (PyYAML reads ``1e300`` as one); a boolean or anything else is
    an error that names the key."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


@functools.cache
def default_profile() -> AccuracyProfile:
    """The packaged synthetic profile, read once and shared: its entries are
    read-only."""
    path = resources.files("resplan").joinpath("data/synthetic_default.yaml")
    return load_profile(path.read_text(encoding="utf-8"))


def preset_text(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return resources.files("resplan").joinpath(f"presets/{name}.yaml").read_text(
        encoding="utf-8"
    )


def build_scenario(cfg: dict) -> ScenarioConfig:
    """Turn a normalized config dict into runnable scenario objects."""
    try:
        model = cfg["model"]
        graph = build_resnet50(_as_int(model["input_side"], "model.input_side"))
        weight_bytes = _as_int(model["weight_bytes"], "model.weight_bytes")
        if weight_bytes != graph.weight_bytes:
            graph = replace(graph, weight_bytes=weight_bytes)
        if model["memory_mode"] not in ("inputs", "weights", "both"):
            raise ConfigError(f"model.memory_mode {model['memory_mode']!r} unknown")

        f = cfg["fleet"]
        n_devices = _as_int(f["devices"], "fleet.devices")
        if (size := solvers.round_bytes(n_devices)) > solvers.MEMORY_BOUND:
            raise ConfigError(f"fleet.devices={n_devices} needs {size} bytes of arrays "
                              f"a round, over the {solvers.MEMORY_BOUND}-byte bound")
        fleet = two_tier_fleet(
            n_devices,
            [v * MB for v in _as_list(f["memory_mb"], "fleet.memory_mb")],
            [v * GMULTS for v in _as_list(f["compute_gmults"], "fleet.compute_gmults")],
            _as_list(f["energy_j"], "fleet.energy_j"),
            [v * GMULTS for v in _as_list(f["rate_gmults_per_s"],
                                          "fleet.rate_gmults_per_s")],
        )

        net = cfg["network"]
        rate_lo = _as_real(net["rate_lo_mbps"], "network.rate_lo_mbps") * MBPS
        rate_hi = _as_real(net["rate_hi_mbps"], "network.rate_hi_mbps") * MBPS
        check_rate_bounds(rate_lo, rate_hi)  # before the latency default reads rate_lo

        en = cfg["energy"]
        energy = EnergyParams(p_compute=_as_real(en["p_compute_w"], "energy.p_compute_w"),
                              p_transmit=_as_real(en["p_transmit_w"], "energy.p_transmit_w"))

        prof_path = cfg["profile"]["path"]
        if prof_path is None:
            profile = default_profile()
        else:
            try:
                profile = load_profile(Path(str(prof_path)))
            except (OSError, UnicodeError) as exc:
                raise ConfigError(f"cannot read profile.path {prof_path!r}: {exc}") from exc
        if profile.n_blocks != graph.n_blocks:
            raise ConfigError(
                f"profile covers {profile.n_blocks} blocks, model has {graph.n_blocks}"
            )

        w = cfg["weights"]
        ref = w["latency_ref_s"]
        ref = (default_latency_ref(graph, fleet, rate_lo) if ref is None
               else _as_real(ref, "weights.latency_ref_s"))
        weights = ObjectiveWeights(
            alpha=_as_real(w["alpha"], "weights.alpha"),
            beta=_as_real(w["beta"], "weights.beta"),
            latency_ref=ref,
            accuracy_threshold=_as_real(w["accuracy_threshold"],
                                        "weights.accuracy_threshold"),
        )

        if isinstance(cfg["label"], (dict, list)):
            raise ConfigError(f"label must be text, got {cfg['label']!r}")
        s, sc = cfg["solver"], cfg["scenario"]
        if s["kind"] not in ("ga", "exact"):
            raise ConfigError(f"solver.kind {s['kind']!r} unknown")
        seed = _as_int(sc["seed"], "scenario.seed")
        ga = GaConfig(
            population_size=_as_int(s["population_size"], "solver.population_size"),
            generations=_as_int(s["generations"], "solver.generations"),
            elite=_as_int(s["elite"], "solver.elite"),
            seed=seed,
        )

        return ScenarioConfig(
            graph=graph,
            fleet=fleet,
            profile=profile,
            weights=weights,
            energy=energy,
            rate_lo=rate_lo,
            rate_hi=rate_hi,
            lam=_as_real(sc["lam"], "scenario.lam"),
            rounds=_as_int(sc["rounds"], "scenario.rounds"),
            seed=seed,
            solver=str(s["kind"]),
            ga=ga,
            exact_limits=ExactLimits(
                max_candidates=_as_int(s["max_candidates"], "solver.max_candidates")),
            memory_mode=str(model["memory_mode"]),
            label=str(cfg["label"]),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def build_sweep_axis(cfg: dict) -> SweepAxis | None:
    sw = cfg.get("sweep")
    if sw is None:
        return None
    try:
        values = sw["values"]
        if not isinstance(values, list):
            raise ConfigError("sweep.values must be a list")
        axis = sw["axis"]
        if axis not in SWEEP_KINDS:
            raise ConfigError(
                f"sweep.axis must be one of {', '.join(SWEEP_KINDS)}; got {axis!r}"
            )
        return SweepAxis(kind=str(axis), values=tuple(
            tuple(v) if isinstance(v, list) else v for v in values
        ))
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid sweep section: {exc}") from exc


def sweep_variants(base: ScenarioConfig, axis: SweepAxis) -> tuple[ScenarioConfig, ...]:
    """One scenario per axis value, every one built before any of them runs,
    so a value that no fleet can take (a multiplier that overflows a budget)
    is a ConfigError naming ``sweep.values`` before any output is written."""
    variants = []
    for value, label in zip(axis.values, axis.labels()):
        try:
            variants.append(apply_axis_value(base, axis.kind, value, label))
        except ValueError as exc:
            raise ConfigError(f"sweep.values entry {value!r}: {exc}") from exc
    return tuple(variants)
