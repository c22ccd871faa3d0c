"""Block-level model of ResNet-50: per-block memory, compute, and output-size
metadata plus the skip topology that makes blocks droppable.

No tensors and no weights live here; blocks carry only the cost metadata the
placement optimizer needs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import UnbridgeableDrop

LAYER_KINDS = ("conv", "pool", "fc")
BLOCK_KINDS = ("stem", "conv_block", "identity_block")
MEMORY_MODES = ("inputs", "weights", "both")

DEFAULT_WEIGHT_BYTES = 4
DEFAULT_MAX_SKIP = 3


@dataclass(frozen=True)
class LayerSpec:
    """One layer's dimensions, enough to derive its memory and multiply counts.

    in_elements is the element count of the layer's input tensor; out_spatial
    is the per-side output size (output elements = out_spatial**2 *
    out_channels for spatial layers).
    """

    kind: str
    kernel_side: int
    in_channels: int
    out_channels: int
    out_spatial: int
    in_elements: int

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kernel_side < 1:
            raise ValueError("kernel_side must be >= 1")
        for name in ("in_channels", "out_channels", "out_spatial", "in_elements"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def weight_count(self) -> int:
        """Parameter count; pooling has none."""
        if self.kind == "pool":
            return 0
        return self.kernel_side ** 2 * self.in_channels * self.out_channels

    @property
    def mult_count(self) -> int:
        """Multiplications to evaluate the layer once (pooling counts zero)."""
        if self.kind == "pool":
            return 0
        return (
            self.in_channels
            * self.kernel_side ** 2
            * self.out_channels
            * self.out_spatial ** 2
        )


@dataclass(frozen=True)
class BlockSpec:
    """One placement unit: the stem or a single bottleneck block.

    ``layers`` is the main (direct-connection) path and must chain channel
    counts layer to layer.  Convolutional blocks additionally carry the
    projection ``shortcut`` layer, kept separate because its input is the
    block input, not the previous layer's output.
    """

    block_id: int
    stage: int
    kind: str
    layers: tuple[LayerSpec, ...]
    droppable: bool
    out_elements: int
    shortcut: LayerSpec | None = None

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.block_id < 1:
            raise ValueError("block_id must be >= 1")
        if self.out_elements < 1:
            raise ValueError("out_elements must be >= 1")
        if self.kind == "stem" and self.droppable:
            raise ValueError("the stem is the input unit and cannot be droppable")
        if self.kind == "identity_block":
            if self.shortcut is not None:
                raise ValueError("identity blocks have no projection shortcut")
            if self.layers and self.layers[0].in_elements != self.out_elements:
                raise ValueError(
                    f"block {self.block_id}: identity block input size "
                    f"{self.layers[0].in_elements} != output size {self.out_elements}"
                )
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.in_channels != prev.out_channels:
                raise ValueError(
                    f"block {self.block_id}: layer channel chain broken "
                    f"({prev.out_channels} -> {cur.in_channels})"
                )

    def all_layers(self) -> tuple[LayerSpec, ...]:
        """Main-path layers plus the projection shortcut when present."""
        if self.shortcut is None:
            return self.layers
        return self.layers + (self.shortcut,)


@dataclass(frozen=True)
class SkipTopology:
    """Which (block, earlier block) pairs are joined by a skip connection.

    ``edges`` holds (dst, src) pairs; an edge (j, j - sigma) lets block j take
    its input from block j - sigma when everything in between is dropped.
    """

    edges: frozenset[tuple[int, int]]
    max_skip: int = DEFAULT_MAX_SKIP

    def __post_init__(self):
        if self.max_skip < 1:
            raise ValueError("max_skip must be >= 1")
        for dst, src in self.edges:
            sigma = dst - src
            if src < 1:
                raise ValueError(f"skip edge ({dst},{src}): source out of range")
            if not 1 <= sigma <= self.max_skip:
                raise ValueError(
                    f"skip edge ({dst},{src}): span {sigma} outside 1..{self.max_skip}"
                )


@dataclass(frozen=True)
class ResNetGraph:
    """Ordered block sequence plus skip topology and the bytes-per-element scale."""

    blocks: tuple[BlockSpec, ...]
    skip: SkipTopology
    weight_bytes: int = DEFAULT_WEIGHT_BYTES

    def __post_init__(self):
        ids = [b.block_id for b in self.blocks]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError("block ids must form a contiguous 1..M sequence")
        if self.weight_bytes < 1:
            raise ValueError("weight_bytes must be >= 1")
        m = len(self.blocks)
        for dst, _src in self.skip.edges:
            if dst > m:
                raise ValueError(f"skip edge into nonexistent block {dst}")
        # A droppable block must be bypassable, or dropping it would cut the
        # chain.  The terminal block is exempt: dropping it just shortens the
        # network and nothing downstream needs rewiring.
        for b in self.blocks:
            if b.droppable and b.block_id < m:
                spanned = any(
                    src < b.block_id < dst for dst, src in self.skip.edges
                )
                if not spanned:
                    raise ValueError(
                        f"droppable block {b.block_id} has no skip edge bypassing it"
                    )

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block(self, block_id: int) -> BlockSpec:
        return self.blocks[block_id - 1]


def memory_load(block: BlockSpec, mode: str = "inputs", b: int = DEFAULT_WEIGHT_BYTES) -> int:
    """Bytes block ``block`` occupies on its host device.

    ``inputs`` sums the input-tensor sizes of every layer (the literal
    activation reading), ``weights`` sums parameter counts, ``both`` adds the
    two.  Pooling layers carry no parameters and so contribute nothing in
    ``weights`` mode.
    """
    if mode not in MEMORY_MODES:
        raise ValueError(f"unknown memory mode {mode!r}")
    if b < 0:
        raise ValueError("b must be >= 0")
    layers = block.all_layers()
    total = 0
    if mode in ("inputs", "both"):
        total += sum(l.in_elements for l in layers)
    if mode in ("weights", "both"):
        total += sum(l.weight_count for l in layers)
    return b * total


def compute_load(block: BlockSpec) -> int:
    """Multiplications to execute the block once (projection shortcut included)."""
    return sum(l.mult_count for l in block.all_layers())


def output_bits(block: BlockSpec, b: int = DEFAULT_WEIGHT_BYTES) -> int:
    """Size of the block's output feature map in bits."""
    if b <= 0:
        raise ValueError("b must be > 0")
    return block.out_elements * b * 8


def block_arrays(graph: ResNetGraph, memory_mode: str = "inputs"):
    """Per block, as float arrays: multiplications, resident bytes in
    ``memory_mode`` and output bits."""
    b, blocks = graph.weight_bytes, graph.blocks
    return (np.array([compute_load(k) for k in blocks], dtype=float),
            np.array([memory_load(k, memory_mode, b) for k in blocks], dtype=float),
            np.array([output_bits(k, b) for k in blocks], dtype=float))


def effective_edges(graph: ResNetGraph, keep: Sequence[int]) -> list[tuple[int, int]]:
    """The data transfers one request needs under the given keep/drop vector.

    ``keep[j-1] = 1`` keeps block j (the y convention); the stem must be kept.
    Returns one (src, dst) pair per kept block dst after the stem, where src
    is the previous kept block (the chain form).  When blocks between them
    are dropped, the pair needs a skip edge (dst, src); raises
    UnbridgeableDrop when the topology has none.
    """
    m = graph.n_blocks
    if len(keep) != m:
        raise ValueError(f"keep vector length {len(keep)} != {m} blocks")
    if not keep[0]:
        raise ValueError("the stem cannot be dropped")

    pairs: list[tuple[int, int]] = []
    src = 1
    for dst in range(2, m + 1):
        if not keep[dst - 1]:
            continue
        if dst - src > 1 and (dst, src) not in graph.skip.edges:
            raise UnbridgeableDrop(
                f"kept block {dst} has no input: dropped run "
                f"{src + 1}..{dst - 1} exceeds the skip topology"
            )
        pairs.append((src, dst))
        src = dst
    return pairs


def _bottleneck_main(in_ch: int, width: int, out_ch: int, in_sp: int, out_sp: int):
    """1x1 / 3x3 / 1x1 bottleneck path; a stride lives in the first 1x1."""
    return (
        LayerSpec("conv", 1, in_ch, width, out_sp, in_sp * in_sp * in_ch),
        LayerSpec("conv", 3, width, width, out_sp, out_sp * out_sp * width),
        LayerSpec("conv", 1, width, out_ch, out_sp, out_sp * out_sp * width),
    )


@functools.cache
def build_resnet50(input_side: int = 224) -> ResNetGraph:
    """Standard ResNet-50 as 17 placement units: stem + 16 bottleneck blocks
    in stages of 3/4/6/3, with per-stage halving and width doubling.

    The default skip topology bypasses every droppable block and every
    adjacent droppable pair (spans 2 and 3, max span 3), the minimum needed
    for the single- and two-block drops the accuracy study covers.  Only
    identity blocks are droppable: a convolutional block's projection changes
    the tensor shape, so skipping it would feed mismatched data downstream.
    Built once per input size and shared; the graph is immutable.
    """
    if not 32 <= input_side <= 1024:
        raise ValueError("input_side must be within 32..1024")
    if input_side % 32 != 0:
        raise ValueError("input_side must be divisible by 32 (spatial dims would be fractional)")

    s = input_side
    blocks: list[BlockSpec] = []

    stem_conv = LayerSpec("conv", 7, 3, 64, s // 2, s * s * 3)
    stem_pool = LayerSpec("pool", 3, 64, 64, s // 4, (s // 2) ** 2 * 64)
    blocks.append(
        BlockSpec(
            block_id=1,
            stage=1,
            kind="stem",
            layers=(stem_conv, stem_pool),
            droppable=False,
            out_elements=(s // 4) ** 2 * 64,
        )
    )

    stage_sizes = (3, 4, 6, 3)
    widths = (64, 128, 256, 512)
    spatials = (s // 4, s // 8, s // 16, s // 32)

    block_id = 2
    in_ch = 64
    in_sp = s // 4
    for stage_idx, (count, width, out_sp) in enumerate(zip(stage_sizes, widths, spatials)):
        out_ch = width * 4
        for k in range(count):
            if k == 0:
                main = _bottleneck_main(in_ch, width, out_ch, in_sp, out_sp)
                shortcut = LayerSpec("conv", 1, in_ch, out_ch, out_sp, in_sp * in_sp * in_ch)
                blocks.append(
                    BlockSpec(
                        block_id=block_id,
                        stage=stage_idx + 2,
                        kind="conv_block",
                        layers=main,
                        droppable=False,
                        out_elements=out_sp * out_sp * out_ch,
                        shortcut=shortcut,
                    )
                )
            else:
                main = _bottleneck_main(out_ch, width, out_ch, out_sp, out_sp)
                blocks.append(
                    BlockSpec(
                        block_id=block_id,
                        stage=stage_idx + 2,
                        kind="identity_block",
                        layers=main,
                        droppable=True,
                        out_elements=out_sp * out_sp * out_ch,
                    )
                )
            block_id += 1
            in_ch = out_ch
            in_sp = out_sp

    skip = default_skip_topology(
        [b.block_id for b in blocks if b.droppable], n_blocks=len(blocks)
    )
    return ResNetGraph(blocks=tuple(blocks), skip=skip)


def default_skip_topology(droppable_ids: Iterable[int], n_blocks: int,
                          max_skip: int = DEFAULT_MAX_SKIP) -> SkipTopology:
    """Span-2 edges around each droppable block plus span-3 edges around each
    adjacent droppable pair; just enough for the profiled drop patterns."""
    droppable = set(droppable_ids)
    edges = set()
    for j in droppable:
        if j + 1 <= n_blocks and j - 1 >= 1:
            edges.add((j + 1, j - 1))
        if j + 1 in droppable and j + 2 <= n_blocks and j - 1 >= 1:
            edges.add((j + 2, j - 1))
    return SkipTopology(edges=frozenset(edges), max_skip=max_skip)
