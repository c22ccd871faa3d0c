"""Random small-instance builders shared by the test modules, and the
builder of the shipped synthetic profile with its gain cross-check.

Generation leans on the oracle edge rules (not the library's) so that the
library is only ever on one side of each comparison.
"""

from __future__ import annotations

import numpy as np

from resplan.errors import ValidationError
from resplan.fleet import DeviceSpec, Fleet, RateMatrix
from resplan.graph import (BlockSpec, LayerSpec, ResNetGraph, SkipTopology, compute_load,
                           memory_load)
from resplan.profile import AccuracyProfile, DropSet, ProfileEntry

import oracles


def random_layer(rng, in_channels=None, out_spatial=None, in_elements=None):
    in_ch = in_channels if in_channels is not None else int(rng.integers(1, 8))
    out_ch = int(rng.integers(1, 8))
    sp = out_spatial if out_spatial is not None else int(rng.integers(2, 6))
    elements = in_elements if in_elements is not None else int(rng.integers(4, 200))
    kind = "conv" if rng.random() < 0.9 else "pool"
    if kind == "pool":
        out_ch = in_ch  # pooling keeps the channel count
    return LayerSpec(kind, int(rng.integers(1, 4)), in_ch, out_ch, sp, elements)


def random_graph(rng, n_blocks=5, sigma1_edges=True) -> ResNetGraph:
    """A small chain with random droppable identity blocks and a topology
    that bridges every droppable block, plus optional span-1 edges."""
    blocks = [
        BlockSpec(
            block_id=1,
            stage=1,
            kind="stem",
            layers=(random_layer(rng),),
            droppable=False,
            out_elements=int(rng.integers(8, 200)),
        )
    ]
    for j in range(2, n_blocks + 1):
        droppable = bool(rng.random() < 0.6)
        if droppable:
            out_sp = int(rng.integers(2, 6))
            out_ch = int(rng.integers(1, 8))
            out_elements = out_sp * out_sp * out_ch
            first = LayerSpec("conv", int(rng.integers(1, 4)), out_ch, out_ch, out_sp,
                              out_elements)
            second = LayerSpec("conv", int(rng.integers(1, 4)), out_ch,
                               int(rng.integers(1, 8)), out_sp, int(rng.integers(4, 200)))
            blocks.append(
                BlockSpec(j, 2, "identity_block", (first, second), True, out_elements)
            )
        else:
            first = random_layer(rng)
            second = random_layer(rng, in_channels=first.out_channels)
            shortcut = random_layer(rng) if rng.random() < 0.5 else None
            blocks.append(
                BlockSpec(j, 2, "conv_block", (first, second), False,
                          int(rng.integers(8, 200)), shortcut=shortcut)
            )

    edges = set()
    for b in blocks:
        if b.droppable and b.block_id < n_blocks:
            j = b.block_id
            edges.add((j + 1, j - 1))
            if rng.random() < 0.5 and j + 2 <= n_blocks:
                edges.add((j + 2, j - 1))
    if sigma1_edges:
        for dst in range(2, n_blocks + 1):
            if rng.random() < 0.4:
                edges.add((dst, dst - 1))
    return ResNetGraph(blocks=tuple(blocks), skip=SkipTopology(frozenset(edges)))


def random_fleet(rng, n_devices, cap_scale=1.0) -> Fleet:
    devices = []
    for i in range(n_devices):
        devices.append(
            DeviceSpec(
                device_id=i + 1,
                memory_cap=cap_scale * float(rng.uniform(1e4, 1e7)),
                compute_cap=cap_scale * float(rng.uniform(1e5, 1e9)),
                energy_cap=cap_scale * float(rng.uniform(10.0, 1e4)),
                mult_rate=float(rng.uniform(1e4, 1e6)),
            )
        )
    return Fleet(tuple(devices))


def random_rates(rng, n_devices, lo=100.0, hi=10000.0) -> RateMatrix:
    rho = rng.uniform(lo, hi, size=(n_devices, n_devices))
    rho = (rho + rho.T) / 2.0
    np.fill_diagonal(rho, 0.0)
    return RateMatrix(rho)


def bridgeable_drop_sets(graph, max_size=2, include_empty=True):
    """All drop sets of droppable blocks up to max_size that the oracle's
    edge rules accept."""
    import itertools

    droppable = [b.block_id for b in graph.blocks if b.droppable]
    out = [()] if include_empty else []
    m = len(graph.blocks)
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(droppable, size):
            keep = [0 if (j + 1) in combo else 1 for j in range(m)]
            if oracles.edge_set(graph, keep) is not None:
                out.append(combo)
    return out


def random_assignment(rng, graph, n_devices, n_requests, drop_sets=None):
    """Random resolved assignment as plain nested lists (x, y)."""
    m = len(graph.blocks)
    if drop_sets is None:
        drop_sets = bridgeable_drop_sets(graph)
    x = []
    y = []
    for _r in range(n_requests):
        drop = drop_sets[int(rng.integers(0, len(drop_sets)))]
        y_r = [0 if (j + 1) in drop else 1 for j in range(m)]
        x_r = [[0] * m for _ in range(n_devices)]
        for j in range(m):
            if y_r[j]:
                x_r[int(rng.integers(0, n_devices))][j] = 1
        x.append(x_r)
        y.append(y_r)
    return x, y


def profile_for(graph, drop_sets, baseline=0.95, floor=0.5) -> AccuracyProfile:
    """A profile covering the given drop sets with decreasing accuracies."""
    entries = {frozenset(): ProfileEntry(drop_set=frozenset(), accuracy=baseline)}
    step = (baseline - floor) / max(len(drop_sets), 1)
    acc = baseline
    for drop in sorted(drop_sets, key=lambda d: (len(d), d)):
        if not drop:
            continue
        acc -= step
        entries[frozenset(drop)] = ProfileEntry(drop_set=frozenset(drop), accuracy=acc)
    return AccuracyProfile(
        baseline=baseline,
        entries=entries,
        source_label="test-fixture",
        n_blocks=len(graph.blocks),
    )


def cross_check_gains(profile: AccuracyProfile, graph: ResNetGraph,
                      memory_mode: str = "inputs", rel_tol: float = 0.01) -> None:
    """Verify any stated memory/compute gains against the block model.

    Gains are redundant with the graph, so stated values must agree with the
    derived ones to within ``rel_tol`` (profiles copied from reports are often
    rounded).  Raises ValidationError naming the first mismatching entry.
    """
    if graph.n_blocks != profile.n_blocks:
        raise ValidationError(
            f"profile covers {profile.n_blocks} blocks, graph has {graph.n_blocks}"
        )
    for ds in sorted(profile.entries, key=lambda s: (len(s), sorted(s))):
        entry = profile.entries[ds]
        checks = (
            ("memory_gain_bytes", entry.memory_gain_bytes,
             sum(memory_load(graph.block(j), memory_mode, graph.weight_bytes) for j in ds)),
            ("compute_gain_mults", entry.compute_gain_mults,
             sum(compute_load(graph.block(j)) for j in ds)),
        )
        for name, stated, derived in checks:
            if stated is None:
                continue
            if abs(stated - derived) > rel_tol * max(derived, 1):
                raise ValidationError(
                    f"entry {sorted(ds)}: {name} {stated} disagrees with derived {derived}"
                )


def build_synthetic_profile(graph: ResNetGraph, baseline: float = 0.9473,
                            single_accuracy: float = 0.90,
                            pair_accuracy: float = 0.82,
                            memory_mode: str = "inputs") -> AccuracyProfile:
    """The shipped placeholder profile: NOT measured anywhere.

    Every droppable block gets a single-drop entry, every adjacent droppable
    pair gets a pair entry, with flat placeholder accuracies chosen to clear
    the usual 80% gate.  Gains are derived from the block model.
    """
    droppable = [b.block_id for b in graph.blocks if b.droppable]
    sets: list[DropSet] = [frozenset()]
    sets += [frozenset({j}) for j in droppable]
    sets += [frozenset({j, j + 1}) for j in droppable if j + 1 in droppable]

    entries: dict[DropSet, ProfileEntry] = {}
    for ds in sets:
        if not ds:
            acc = baseline
        elif len(ds) == 1:
            acc = single_accuracy
        else:
            acc = pair_accuracy
        entries[ds] = ProfileEntry(
            drop_set=ds,
            accuracy=acc,
            memory_gain_bytes=(
                sum(memory_load(graph.block(j), memory_mode, graph.weight_bytes) for j in ds)
                or None
            ),
            compute_gain_mults=sum(compute_load(graph.block(j)) for j in ds) or None,
        )
    return AccuracyProfile(
        baseline=baseline,
        entries=entries,
        source_label="synthetic-default",
        n_blocks=graph.n_blocks,
    )
