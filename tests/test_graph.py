"""Block-model tests: layer/block arithmetic, the ResNet-50 table, skip
topology validation, and effective-edge rewiring under drops.

The numeric assertions pin the derived per-block costs (multiplications,
bytes, output bits) to hand-computed values so any change to the block model
shows up as a hard failure, not a drifting benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resplan.errors import UnbridgeableDrop
from resplan.graph import (
    BlockSpec,
    LayerSpec,
    ResNetGraph,
    SkipTopology,
    build_resnet50,
    compute_load,
    default_skip_topology,
    effective_edges,
    memory_load,
    output_bits,
)

import oracles

DROPPABLE_IDS = [3, 4, 6, 7, 8, 10, 11, 12, 13, 14, 16, 17]
STEM_MULTS = 118_013_952
IDENTITY_MULTS = 218_365_952
TOTAL_MULTS = 3_855_925_248


def keep_vector(graph, drop):
    return [0 if (j + 1) in drop else 1 for j in range(graph.n_blocks)]


class TestLayerSpec:
    def test_conv_weight_and_mult_counts(self):
        layer = LayerSpec("conv", 3, 8, 16, 10, 800)
        assert layer.weight_count == 9 * 8 * 16
        assert layer.mult_count == 8 * 9 * 16 * 100

    def test_pool_has_no_weights_or_mults(self):
        layer = LayerSpec("pool", 3, 8, 8, 10, 800)
        assert layer.weight_count == 0
        assert layer.mult_count == 0

    def test_rejects_unknown_kind_and_bad_dims(self):
        with pytest.raises(ValueError):
            LayerSpec("dense", 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            LayerSpec("conv", 0, 1, 1, 1, 1)
        for field in range(4):
            args = [1, 1, 1, 1]
            args[field] = 0
            with pytest.raises(ValueError):
                LayerSpec("conv", 1, *args)


class TestBlockSpec:
    def layers(self):
        return (
            LayerSpec("conv", 1, 4, 2, 3, 36),
            LayerSpec("conv", 3, 2, 4, 3, 18),
        )

    def test_all_layers_appends_shortcut(self):
        shortcut = LayerSpec("conv", 1, 4, 4, 3, 36)
        block = BlockSpec(2, 2, "conv_block", self.layers(), False, 36,
                          shortcut=shortcut)
        assert block.all_layers() == self.layers() + (shortcut,)
        plain = BlockSpec(2, 2, "conv_block", self.layers(), False, 36)
        assert plain.all_layers() == self.layers()

    def test_rejects_broken_channel_chain(self):
        bad = (
            LayerSpec("conv", 1, 4, 2, 3, 36),
            LayerSpec("conv", 3, 3, 4, 3, 18),
        )
        with pytest.raises(ValueError, match="channel chain"):
            BlockSpec(2, 2, "conv_block", bad, False, 36)

    def test_rejects_droppable_stem(self):
        with pytest.raises(ValueError, match="stem"):
            BlockSpec(1, 1, "stem", (LayerSpec("conv", 1, 1, 1, 1, 1),), True, 1)

    def test_identity_block_must_preserve_size(self):
        layers = (LayerSpec("conv", 1, 4, 4, 3, 36),)
        with pytest.raises(ValueError, match="input size"):
            BlockSpec(3, 2, "identity_block", layers, True, 37)
        with pytest.raises(ValueError, match="shortcut"):
            BlockSpec(3, 2, "identity_block", layers, True, 36,
                      shortcut=LayerSpec("conv", 1, 4, 4, 3, 36))


class TestSkipTopology:
    def test_rejects_spans_outside_window(self):
        with pytest.raises(ValueError, match="span"):
            SkipTopology(frozenset({(5, 5)}))
        with pytest.raises(ValueError, match="span"):
            SkipTopology(frozenset({(6, 2)}))
        with pytest.raises(ValueError, match="out of range"):
            SkipTopology(frozenset({(1, 0)}))


class TestGraphValidation:
    def test_rejects_non_contiguous_block_ids(self):
        block = BlockSpec(2, 1, "stem", (LayerSpec("conv", 1, 1, 1, 1, 1),), False, 1)
        with pytest.raises(ValueError, match="contiguous"):
            ResNetGraph(blocks=(block,), skip=SkipTopology(frozenset()))

    def test_rejects_unbypassed_droppable_block(self):
        stem = BlockSpec(1, 1, "stem", (LayerSpec("conv", 1, 1, 1, 1, 1),), False, 4)
        mid = BlockSpec(2, 2, "identity_block",
                        (LayerSpec("conv", 1, 1, 1, 2, 4),), True, 4)
        last = BlockSpec(3, 2, "conv_block",
                         (LayerSpec("conv", 1, 1, 1, 1, 1),), False, 1)
        with pytest.raises(ValueError, match="no skip edge"):
            ResNetGraph(blocks=(stem, mid, last), skip=SkipTopology(frozenset()))
        # The same block in terminal position needs no bypass.
        last_droppable = BlockSpec(3, 2, "identity_block",
                                   (LayerSpec("conv", 1, 1, 1, 2, 4),), True, 4)
        g = ResNetGraph(blocks=(stem, BlockSpec(2, 2, "conv_block",
                                                (LayerSpec("conv", 1, 1, 1, 2, 4),),
                                                False, 4), last_droppable),
                        skip=SkipTopology(frozenset()))
        assert g.n_blocks == 3

    def test_rejects_edge_into_missing_block(self):
        stem = BlockSpec(1, 1, "stem", (LayerSpec("conv", 1, 1, 1, 1, 1),), False, 1)
        with pytest.raises(ValueError, match="nonexistent"):
            ResNetGraph(blocks=(stem,), skip=SkipTopology(frozenset({(3, 1)})))


class TestResNet50Table:
    def test_block_count_stages_and_droppables(self, resnet50):
        assert resnet50.n_blocks == 17
        stages = [b.stage for b in resnet50.blocks]
        assert stages == [1] + [2] * 3 + [3] * 4 + [4] * 6 + [5] * 3
        assert [b.block_id for b in resnet50.blocks if b.droppable] == DROPPABLE_IDS
        kinds = [b.kind for b in resnet50.blocks]
        assert kinds.count("stem") == 1
        assert kinds.count("conv_block") == 4
        assert kinds.count("identity_block") == 12

    def test_pinned_compute_costs(self, resnet50):
        assert compute_load(resnet50.block(1)) == STEM_MULTS
        for b in resnet50.blocks:
            if b.kind == "identity_block":
                assert compute_load(b) == IDENTITY_MULTS
        assert sum(compute_load(b) for b in resnet50.blocks) == TOTAL_MULTS

    def test_pinned_output_bits(self, resnet50):
        assert resnet50.block(1).out_elements == 56 * 56 * 64
        assert output_bits(resnet50.block(1)) == 56 * 56 * 64 * 4 * 8
        for b in resnet50.blocks[1:4]:
            assert output_bits(b) == 56 * 56 * 256 * 4 * 8
        assert output_bits(resnet50.block(17)) == 7 * 7 * 2048 * 4 * 8

    def test_memory_modes_agree_with_reference(self, resnet50):
        for b in resnet50.blocks:
            for mode in ("inputs", "weights", "both"):
                assert memory_load(b, mode) == oracles.block_memory(b, mode, 4)
            assert memory_load(b, "both") == (
                memory_load(b, "inputs") + memory_load(b, "weights")
            )

    def test_weight_bytes_scales_linearly(self, resnet50):
        b = resnet50.block(5)
        assert memory_load(b, "inputs", 8) == 2 * memory_load(b, "inputs", 4)
        assert output_bits(b, 1) * 4 == output_bits(b, 4)

    def test_input_side_validation(self):
        with pytest.raises(ValueError):
            build_resnet50(225)
        with pytest.raises(ValueError):
            build_resnet50(16)
        small = build_resnet50(32)
        assert small.block(17).out_elements == 1 * 1 * 2048

    def test_mode_and_bits_argument_validation(self, resnet50):
        with pytest.raises(ValueError, match="memory mode"):
            memory_load(resnet50.block(2), "cache")
        with pytest.raises(ValueError):
            output_bits(resnet50.block(2), 0)


class TestDefaultSkipTopology:
    def test_spans_each_droppable_and_each_adjacent_pair(self, resnet50):
        topo = resnet50.skip
        for j in DROPPABLE_IDS:
            if j + 1 <= 17:
                assert (j + 1, j - 1) in topo.edges, f"block {j} not bypassed"
        for j in DROPPABLE_IDS:
            if j + 1 in DROPPABLE_IDS and j + 2 <= 17:
                assert (j + 2, j - 1) in topo.edges, f"pair {j},{j + 1} not bypassed"
        # Count: 11 single bypasses (block 17 has no downstream block) plus
        # 7 pair bypasses (16,17 likewise runs off the end).
        assert len(topo.edges) == 18

    def test_terminal_block_has_no_bypass_and_needs_none(self, resnet50):
        assert not any(src < 17 < dst for dst, src in resnet50.skip.edges)
        edges = effective_edges(resnet50, keep_vector(resnet50, {17}))
        assert edges == [(j, j + 1) for j in range(1, 16)]

    def test_builder_matches_manual_edges(self):
        topo = default_skip_topology([3, 4], n_blocks=6)
        assert topo.edges == frozenset({(4, 2), (5, 3), (5, 2)})


def chain(*kept):
    """The (src, dst) pairs along consecutive kept blocks."""
    return list(zip(kept, kept[1:]))


def oracle_pairs(expected):
    """The oracle's (src, dst, kind) transfers as (src, dst) pairs by dst."""
    return sorted({(src, dst) for src, dst, _kind in expected}, key=lambda e: e[::-1])


class TestEffectiveEdges:
    def test_keep_all_is_the_plain_chain(self, resnet50):
        assert effective_edges(resnet50, [1] * 17) == chain(*range(1, 18))

    def test_single_drop_reroutes_around_the_block(self, resnet50):
        edges = effective_edges(resnet50, keep_vector(resnet50, {3}))
        assert edges == chain(1, 2, *range(4, 18))

    def test_adjacent_pair_uses_the_long_skip(self, resnet50):
        edges = effective_edges(resnet50, keep_vector(resnet50, {3, 4}))
        assert [(s, d) for s, d in edges if d - s > 1] == [(2, 5)]

    def test_two_separate_drops_need_two_skips(self, resnet50):
        edges = effective_edges(resnet50, keep_vector(resnet50, {3, 6}))
        assert [(s, d) for s, d in edges if d - s > 1] == [(2, 4), (5, 7)]

    def test_span_one_skip_edge_is_listed_once(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            graph = None
            while graph is None:
                g = helpers_random_graph(rng)
                if any(dst - src == 1 for dst, src in g.skip.edges):
                    graph = g
            m = graph.n_blocks
            assert effective_edges(graph, [1] * m) == chain(*range(1, m + 1))

    def test_unbridgeable_run_raises_with_the_run_named(self, resnet50):
        with pytest.raises(UnbridgeableDrop, match="6..8"):
            effective_edges(resnet50, keep_vector(resnet50, {6, 7, 8}))

    def test_the_first_unfed_kept_block_is_named(self, resnet50):
        keep = keep_vector(resnet50, {6, 7, 8, 10, 11, 12})
        with pytest.raises(UnbridgeableDrop) as exc_info:
            effective_edges(resnet50, keep)
        assert str(exc_info.value) == (
            "kept block 9 has no input: dropped run 6..8 exceeds the skip topology")

    def test_stem_drop_and_length_mismatch_rejected(self, resnet50):
        with pytest.raises(ValueError, match="stem"):
            effective_edges(resnet50, [0] + [1] * 16)
        with pytest.raises(ValueError, match="length"):
            effective_edges(resnet50, [1] * 16)

    def test_matches_reference_edge_rules_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            graph = helpers_random_graph(rng)
            m = graph.n_blocks
            for drop in helpers_drop_sets(graph):
                keep = [0 if (j + 1) in drop else 1 for j in range(m)]
                expected = oracles.edge_set(graph, keep)
                if expected is None:
                    with pytest.raises(UnbridgeableDrop):
                        effective_edges(graph, keep)
                else:
                    assert effective_edges(graph, keep) == oracle_pairs(expected)


@st.composite
def chain_and_keep(draw):
    """A skip topology over 2-12 blocks and a keep vector with the stem kept.

    A block is droppable when some skip edge spans it or it is the last one.
    Half the draws keep any blocks at all, bridgeable or not.  The others
    walk from the stem, so the topology can bridge them: each next kept
    block is the next block or the far end of a skip edge, and the walk may
    stop once every block left is droppable.
    """
    m = draw(st.integers(2, 12))
    max_skip = draw(st.integers(1, 4))
    spans = [(dst, src) for dst in range(2, m + 1)
             for src in range(max(1, dst - max_skip), dst)]
    edges = draw(st.sets(st.sampled_from(spans)))
    droppable = [1 < j and (j == m or any(src < j < dst for dst, src in edges))
                 for j in range(1, m + 1)]
    layer = LayerSpec("conv", 1, 2, 2, 2, 8)
    blocks = (BlockSpec(1, 1, "stem", (layer,), False, 8),) + tuple(
        BlockSpec(j, 2, "identity_block", (layer,), droppable[j - 1], 8)
        for j in range(2, m + 1))
    graph = ResNetGraph(blocks, SkipTopology(frozenset(edges), max_skip=max_skip))
    if draw(st.booleans()):
        return graph, [1] + draw(st.lists(st.sampled_from([0, 1]), min_size=m - 1,
                                          max_size=m - 1))
    keep = [1] + [0] * (m - 1)
    j = 1
    while j < m:
        steps = sorted({j + 1} | {dst for dst, src in edges if src == j})
        if all(droppable[j:]):
            steps.append(None)
        j = draw(st.sampled_from(steps))
        if j is None:
            break
        keep[j - 1] = 1
    return graph, keep


class TestChainForm:
    @given(chain_and_keep())
    def test_each_kept_block_is_fed_by_the_previous_kept_block_alone(self, case):
        graph, keep = case
        expected = oracles.edge_set(graph, keep)
        if expected is None:
            with pytest.raises(UnbridgeableDrop):
                effective_edges(graph, keep)
            return
        edges = effective_edges(graph, keep)
        assert edges == oracle_pairs(expected)
        assert edges == chain(*(j + 1 for j, k in enumerate(keep) if k))


def helpers_random_graph(rng):
    import helpers

    return helpers.random_graph(rng, n_blocks=int(rng.integers(4, 8)))


def helpers_drop_sets(graph):
    import itertools

    droppable = [b.block_id for b in graph.blocks if b.droppable]
    out = [()]
    for size in (1, 2):
        out.extend(itertools.combinations(droppable, size))
    return out
