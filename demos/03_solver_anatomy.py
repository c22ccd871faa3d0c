"""Watch the solver pipeline on a toy problem small enough to enumerate:
the repair pass that gives every kept block one host, exhaustive search,
and the genetic solver converging to the same optimum.

Run:  python3 demos/03_solver_anatomy.py
"""

import numpy as np

from resplan.costs import Assignment
from resplan.fleet import DeviceSpec, EnergyParams, Fleet, RateMatrix
from resplan.graph import BlockSpec, LayerSpec, ResNetGraph, SkipTopology
from resplan.objective import ObjectiveWeights
from resplan.profile import AccuracyProfile, ProfileEntry
from resplan.solvers import GaConfig, repair_allocation, solve_exact, solve_ga


def toy_problem():
    """Four blocks (one droppable), two devices, one request."""
    light = LayerSpec("conv", 3, 8, 8, 16, 2048)
    heavy = LayerSpec("conv", 3, 32, 32, 64, 4096)  # ~38 Mmult
    blocks = (
        BlockSpec(1, 1, "stem", (light,), False, 4096),
        BlockSpec(2, 2, "conv_block", (light,), False, 4096),
        BlockSpec(3, 2, "identity_block", (heavy,), True, 4096),
        BlockSpec(4, 2, "conv_block", (light,), False, 4096),
    )
    graph = ResNetGraph(blocks=blocks,
                        skip=SkipTopology(frozenset({(4, 2)})))
    fleet = Fleet((
        DeviceSpec(1, 1e9, 5e7, 50.0, 4e6),
        DeviceSpec(2, 1e9, 5e7, 50.0, 9e6),
    ))
    rates = RateMatrix(np.array([[0.0, 2e6], [2e6, 0.0]]))
    profile = AccuracyProfile(
        baseline=0.95, source_label="toy", n_blocks=4,
        entries={
            frozenset(): ProfileEntry(frozenset(), 0.95),
            frozenset({3}): ProfileEntry(frozenset({3}), 0.90),
        })
    weights = ObjectiveWeights(0.5, 0.5, latency_ref=30.0,
                               accuracy_threshold=0.85)
    return graph, fleet, rates, profile, weights


def main() -> None:
    graph, fleet, rates, profile, weights = toy_problem()
    energy = EnergyParams()

    print("Repair: every kept block must end on exactly one device")
    print("=" * 64)
    x = np.zeros((1, 2, 4), dtype=np.uint8)
    x[0, 0, 0] = 1          # block 1 on device 1
    x[0, :, 1] = 1          # block 2 offered on both devices
    x[0, :, 2] = 1          # block 3 offered on both devices
    x[0, 1, 3] = 1          # block 4 on device 2
    relaxed = Assignment(x, np.ones((1, 4), dtype=np.uint8))
    fixed = repair_allocation(relaxed, graph, fleet, rates)
    offered = [sorted(int(i) + 1 for i in np.flatnonzero(x[0, :, j]))
               for j in range(4)]
    chosen = [int(h) + 1 for h in fixed.hosts(0)]
    for j in range(4):
        print(f"  block {j + 1}: offered on devices {offered[j]} "
              f"-> device {chosen[j]}")
    print("  (the previous block's host wins while it stays offered,")
    print("   so the chain sticks to device 1 until block 4 forces a hop)\n")

    print("Exhaustive search vs the genetic solver")
    print("=" * 64)
    exact = solve_exact(graph, fleet, rates, profile, weights, energy, 1)
    ga = solve_ga(graph, fleet, rates, profile, weights, energy, 1,
                  config=GaConfig(population_size=30, generations=40, seed=7))
    for name, res in (("exact", exact), ("ga", ga)):
        y0 = res.assignment.y[0]
        drops = sorted(int(j) + 1 for j in np.flatnonzero(y0 == 0))
        hosts = [int(h) + 1 if y0[j] else "-"
                 for j, h in enumerate(res.assignment.hosts(0))]
        print(f"  {name:<5} objective {res.objective:.6f}  "
              f"accuracy {res.accuracy:.3f}  drops {drops or 'none'}  "
              f"hosts {hosts}  ({res.evaluations} evaluations)")
    gap = ga.objective / exact.objective - 1.0
    print(f"  gap: {gap:.2%}")

    hist = ga.history
    steps = sum(b < a for a, b in zip(hist, hist[1:]))
    print(f"\n  ga best-so-far: gen 0 {hist[0]:.6f} -> "
          f"gen {len(hist) - 1} {hist[-1]:.6f}"
          + (f" (improved in {steps} generations)" if steps
             else " (the seeded initial population already held the optimum)"))
    print("  polish of the best plan and of the last generation's best other plan")
    print("  (block, run-of-blocks and drop-set moves onto the devices a plan uses),")
    print(f"  the better one kept: {hist[-1]:.6f} -> objective {ga.objective:.6f}")

    print("\nWhy block 3 gets dropped: it holds ~38 of the 39 Mmult in the")
    print("network, so skipping it saves seconds of compute while costing")
    print("only 0.05 accuracy, and the even weight split prices that trade.")


if __name__ == "__main__":
    main()
