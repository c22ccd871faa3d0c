"""Walk the ResNet-50 placement model: 17 computation units, their loads,
and how skip edges reroute data when blocks are dropped.

Run:  python3 demos/01_model_anatomy.py
"""

from resplan.graph import (
    build_resnet50,
    compute_load,
    effective_edges,
    memory_load,
    output_bits,
)

MB = 1e6


def main() -> None:
    graph = build_resnet50()
    b = graph.weight_bytes

    print("ResNet-50 as a placement problem")
    print("=" * 64)
    print(f"{len(graph.blocks)} units: 1 stem + 16 bottleneck blocks, "
          f"{b} bytes per element.\n")

    header = f"{'id':>3} {'stage':>5} {'kind':<15} {'drop?':>5} " \
             f"{'mults':>13} {'mem (MB)':>9} {'out bits':>11}"
    print(header)
    print("-" * len(header))
    total = 0
    for blk in graph.blocks:
        mults = compute_load(blk)
        total += mults
        print(f"{blk.block_id:>3} {blk.stage:>5} {blk.kind:<15} "
              f"{'yes' if blk.droppable else '':>5} {mults:>13,} "
              f"{memory_load(blk, 'inputs', b) / MB:>9.2f} "
              f"{output_bits(blk, b):>11,}")
    print("-" * len(header))
    print(f"keep-all cost per request: {total:,} multiplications\n")

    droppable = [blk.block_id for blk in graph.blocks if blk.droppable]
    print(f"droppable units: {droppable}")
    print(f"skip edges shipped: {len(graph.skip.edges)} "
          f"(one per droppable unit, one per adjacent droppable pair)\n")

    def keep_vector(drops):
        return [0 if blk.block_id in drops else 1 for blk in graph.blocks]

    print("Dropping a unit reroutes its input along a skip edge:")
    for drops in ((), (3,), (3, 4), (10, 13)):
        edges = effective_edges(graph, keep_vector(drops))
        skips = sorted((s, d) for s, d in edges if d - s > 1)
        label = "{" + ", ".join(map(str, drops)) + "}"
        print(f"  drop {label:<10} -> {len(edges)} hops, "
              f"skip hops {skips if skips else 'none'}")

    print("\nA run of drops with no spanning edge cannot be bridged:")
    from resplan.errors import UnbridgeableDrop
    try:
        effective_edges(graph, keep_vector({6, 7, 8}))
    except UnbridgeableDrop as exc:
        print(f"  drop {{6, 7, 8}} -> {exc}")


if __name__ == "__main__":
    main()
