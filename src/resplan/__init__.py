"""Placement optimizer and round simulator for distributed residual-network
inference over resource-constrained device fleets.

The pieces compose bottom-up: ``graph`` models the network's blocks and skip
topology, ``profile`` supplies measured accuracy under block drops, ``fleet``
describes devices and links, ``costs``/``objective`` price an assignment,
``solvers`` search for one, and ``harness`` simulates rounds and sweeps.
"""

from .costs import Assignment, CostBreakdown, evaluate_assignment
from .errors import (
    ConfigError,
    EmptyFeasibleSet,
    InfeasibleInstance,
    InstanceTooLarge,
    ParseError,
    ResplanError,
    UnbridgeableDrop,
    UncoveredBlock,
    UnprofiledDropSet,
    ValidationError,
)
from .fleet import (
    DeviceSpec,
    EnergyParams,
    Fleet,
    RateMatrix,
    RequestBatch,
    sample_rates,
    sample_requests,
    two_tier_fleet,
)
from .graph import (
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
from .harness import (
    MetricsRecord,
    ScenarioConfig,
    ScenarioResult,
    SweepAxis,
    run_round,
    run_scenario,
    sweep,
)
from .objective import (
    FeasibilityReport,
    ObjectiveWeights,
    accuracy_term,
    check_constraints,
    default_latency_ref,
)
from .profile import (
    AccuracyProfile,
    ProfileEntry,
    allowed_drop_sets,
    g_lookup,
    load_profile,
    save_profile,
)
from .solvers import (
    ExactLimits,
    GaConfig,
    SolveResult,
    repair_allocation,
    solve_exact,
    solve_ga,
)

__version__ = "0.1.0"
