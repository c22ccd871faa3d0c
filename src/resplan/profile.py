"""Measured accuracy of the network under block drops, as a loadable lookup.

The profile is an input artifact: it maps each measured dropped-block set to
the accuracy the downsized network achieves.  Unmeasured sets are simply
absent, and absent means infeasible for the solver; nothing is interpolated.
The package ships a clearly labeled synthetic default because the original
measurements are not redistributable as data.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import yaml

from .errors import EmptyFeasibleSet, ParseError, ValidationError

DropSet = frozenset[int]

# YAML 1.2's exponent floats (``1e3``, ``1.0e3``, ``1E-3``), which YAML 1.1
# reads as text: it wants a dot and a signed exponent.
EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$")


def with_exponent_floats(cls):
    """``cls``, a YAML loader or dumper class, resolving ``EXPONENT_FLOAT``."""
    cls.add_implicit_resolver("tag:yaml.org,2002:float", EXPONENT_FLOAT, list("-+.0123456789"))
    return cls


# The YAML loader for every input document: libyaml's parser when PyYAML was
# built with it, else the pure-Python one.  Both have ``safe_load``'s
# constructor and resolver, so they build equal documents.
SAFE_LOADER = with_exponent_floats(
    type("SafeLoader", (getattr(yaml, "CSafeLoader", yaml.SafeLoader),), {}))


DEFAULT_MAX_DROP = 2


@dataclass(frozen=True)
class ProfileEntry:
    """One measured scenario: which blocks were dropped and what accuracy remained."""

    drop_set: DropSet
    accuracy: float
    memory_gain_bytes: int | None = None
    compute_gain_mults: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "drop_set", frozenset(self.drop_set))
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValidationError(
                f"entry {sorted(self.drop_set)}: accuracy {self.accuracy} outside [0,1]"
            )
        if 1 in self.drop_set:
            raise ValidationError(
                f"entry {sorted(self.drop_set)}: the stem (block 1) cannot be dropped"
            )


@dataclass(frozen=True)
class AccuracyProfile:
    """Lookup from dropped-block set to measured accuracy.

    Always contains the empty set at the baseline accuracy; every other entry
    is capped by the baseline (dropping blocks never helps).  The entries
    are a read-only copy of the mapping given, so a profile never changes.
    """

    baseline: float
    entries: Mapping[DropSet, ProfileEntry]
    source_label: str
    n_blocks: int = 17
    max_drop: int = DEFAULT_MAX_DROP

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        if not 0.0 <= self.baseline <= 1.0:
            raise ValidationError(f"baseline {self.baseline} outside [0,1]")
        if frozenset() not in self.entries:
            raise ValidationError("profile must contain the empty drop set")
        if self.entries[frozenset()].accuracy != self.baseline:
            raise ValidationError("empty drop set accuracy must equal the baseline")
        for ds, entry in self.entries.items():
            if ds and entry.accuracy > self.baseline:
                raise ValidationError(
                    f"entry {sorted(ds)}: accuracy {entry.accuracy} exceeds "
                    f"baseline {self.baseline}"
                )
            if len(ds) > self.max_drop:
                raise ValidationError(
                    f"entry {sorted(ds)}: {len(ds)} blocks dropped, limit is {self.max_drop}"
                )
            if any(not 2 <= j <= self.n_blocks for j in ds):
                raise ValidationError(
                    f"entry {sorted(ds)}: block index outside 2..{self.n_blocks}"
                )

    def accuracy_for(self, drop_set: Sequence[int] | DropSet) -> float | None:
        entry = self.entries.get(frozenset(drop_set))
        return None if entry is None else entry.accuracy


def _as_mapping(doc) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"profile document must be a mapping, got {type(doc).__name__}")
    return doc


def read_source(source) -> str:
    """The text of a document given as a file object, a path-like, or a
    string.  A path-like is always read as a file; a string is read as one
    only when it is a single line that ends in ``.yaml`` or ``.yml`` or
    holds a ``/``, and is otherwise the document's text itself."""
    if hasattr(source, "read"):
        return source.read()
    text = str(source)
    if isinstance(source, os.PathLike) or (
            "\n" not in text and (text.endswith((".yaml", ".yml")) or "/" in text)):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def load_profile(source) -> AccuracyProfile:
    """Parse and validate a profile document.

    ``source`` is anything ``read_source`` takes.  Rejects duplicate drop
    sets and anything violating the profile invariants; errors name the
    offending entry.  The entries come back read-only.
    """
    text = read_source(source)
    try:
        doc = yaml.load(text, Loader=SAFE_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"profile is not valid YAML: {exc}") from exc

    doc = _as_mapping(doc)
    known = {"source_label", "baseline", "n_blocks", "max_drop", "entries"}
    unknown = set(doc) - known
    if unknown:
        raise ParseError(f"unknown profile keys: {sorted(unknown)}")
    if "source_label" not in doc:
        raise ParseError("profile is missing the required source_label header")
    if "baseline" not in doc:
        raise ParseError("profile is missing the baseline accuracy")

    baseline = float(doc["baseline"])
    n_blocks = int(doc.get("n_blocks", 17))
    max_drop = int(doc.get("max_drop", DEFAULT_MAX_DROP))
    raw_entries = doc.get("entries", []) or []
    if not isinstance(raw_entries, list):
        raise ParseError("entries must be a list")

    entries: dict[DropSet, ProfileEntry] = {}
    for i, raw in enumerate(raw_entries):
        if not isinstance(raw, dict) or "drop" not in raw or "accuracy" not in raw:
            raise ParseError(f"entry #{i}: each entry needs 'drop' and 'accuracy'")
        bad = set(raw) - {"drop", "accuracy", "memory_gain_bytes", "compute_gain_mults"}
        if bad:
            raise ParseError(f"entry #{i}: unknown keys {sorted(bad)}")
        drop = raw["drop"]
        if drop is None:
            drop = []
        if not isinstance(drop, list):
            raise ParseError(f"entry #{i}: 'drop' must be a list of block ids")
        ds = frozenset(int(j) for j in drop)
        if len(ds) != len(drop):
            raise ValidationError(f"entry {sorted(drop)}: repeated block index")
        if ds in entries:
            raise ValidationError(f"entry {sorted(ds)}: duplicate drop set")
        entries[ds] = ProfileEntry(
            drop_set=ds,
            accuracy=float(raw["accuracy"]),
            memory_gain_bytes=(
                None if raw.get("memory_gain_bytes") is None
                else int(raw["memory_gain_bytes"])
            ),
            compute_gain_mults=(
                None if raw.get("compute_gain_mults") is None
                else int(raw["compute_gain_mults"])
            ),
        )

    if frozenset() not in entries:
        entries[frozenset()] = ProfileEntry(drop_set=frozenset(), accuracy=baseline)

    return AccuracyProfile(
        baseline=baseline,
        entries=entries,
        source_label=str(doc["source_label"]),
        n_blocks=n_blocks,
        max_drop=max_drop,
    )


def save_profile(profile: AccuracyProfile, path) -> None:
    """Write a profile back out in the documented schema (round-trips exactly)."""
    lines = [
        "# Accuracy profile: measured accuracy per dropped-block set.",
        f"source_label: {profile.source_label}",
        f"baseline: {profile.baseline!r}",
        f"n_blocks: {profile.n_blocks}",
        f"max_drop: {profile.max_drop}",
        "entries:",
    ]
    for ds in sorted(profile.entries, key=lambda s: (len(s), sorted(s))):
        entry = profile.entries[ds]
        lines.append(f"  - drop: {sorted(ds)}")
        lines.append(f"    accuracy: {entry.accuracy!r}")
        if entry.memory_gain_bytes is not None:
            lines.append(f"    memory_gain_bytes: {entry.memory_gain_bytes}")
        if entry.compute_gain_mults is not None:
            lines.append(f"    compute_gain_mults: {entry.compute_gain_mults}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def g_lookup(profile: AccuracyProfile, y: Sequence[int]) -> float | None:
    """Accuracy for a keep/drop vector, or None when the set was never measured.

    ``y[j-1] = 0`` drops block j; the stem must be kept.  None is a value, not
    an error: the caller decides that an unmeasured set is infeasible.
    """
    if len(y) != profile.n_blocks:
        raise ValueError(f"y has length {len(y)}, profile covers {profile.n_blocks} blocks")
    if not y[0]:
        raise ValueError("the stem (block 1) must be kept")
    dropped = frozenset(j + 1 for j, kept in enumerate(y) if not kept)
    return profile.accuracy_for(dropped)


def allowed_drop_sets(profile: AccuracyProfile, threshold: float) -> list[DropSet]:
    """Every measured drop set meeting the threshold, best accuracy first.

    Sorted by descending accuracy, then ascending size, then block ids, so the
    order is stable.  This is the solver's whole search space for y.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0,1]")
    if profile.baseline < threshold:
        raise EmptyFeasibleSet(
            f"baseline accuracy {profile.baseline} is below threshold {threshold}"
        )
    keep = [
        (entry.accuracy, len(ds), sorted(ds), ds)
        for ds, entry in profile.entries.items()
        if entry.accuracy >= threshold
    ]
    keep.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [t[3] for t in keep]
