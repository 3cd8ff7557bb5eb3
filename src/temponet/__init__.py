"""temponet: temporal networks with ground-truth community structure.

The package validates user-specified community-size and intra/total degree
sequences for graphability, wires each snapshot with a repair-capable
modified configuration model with tunable degree assortativity, and evolves
node membership across timesteps by minimizing the variation-of-information
distance between consecutive clusterings.
"""

__version__ = "0.1.0"

from .assembler import (
    Node,
    ShapeParams,
    Snapshot,
    assemble_snapshot,
    assign_nodes,
    check_connectivity,
    wire_inter,
    wire_intra,
)
from .errors import (
    ConfigurationError,
    GraphabilityError,
    LatticeOverflowError,
    TemponetError,
    WiringError,
)
from .graphability import (
    FailedCondition,
    GraphabilityReport,
    assignment_feasible,
    check_graphable,
    erdos_gallai,
    inter_graphable,
)
from .lifecycle import EventRecord, LifecycleThresholds, classify_events, jaccard
from .metrics import modularity
from .output import (
    BoundaryReport,
    RunReport,
    SnapshotMetrics,
    export_temporal_csv,
    read_temporal_csv,
    write_report,
)
from .pipeline import RunConfig, RunResult, TransitionPlan, load_run_config, plan_transition, run
from .sequences import (
    CommunitySpec,
    DegreeSpec,
    SamplerConfig,
    dump_sequences,
    fix_parity,
    load_sequences,
    sample_degrees,
    sample_sizes,
    split_degrees,
)
from .transition import (
    FlowSystem,
    SearchConfig,
    build_flow_system,
    count_lattice,
    kernel_basis,
    materialize_flow,
    mi_greedy,
    seed_pool,
    taboo_search,
    variation_of_information,
)

__all__ = [
    "__version__",
    "BoundaryReport",
    "CommunitySpec",
    "ConfigurationError",
    "DegreeSpec",
    "EventRecord",
    "FailedCondition",
    "FlowSystem",
    "GraphabilityError",
    "GraphabilityReport",
    "LatticeOverflowError",
    "LifecycleThresholds",
    "Node",
    "RunConfig",
    "RunReport",
    "RunResult",
    "SamplerConfig",
    "SearchConfig",
    "ShapeParams",
    "Snapshot",
    "SnapshotMetrics",
    "TemponetError",
    "TransitionPlan",
    "WiringError",
    "assemble_snapshot",
    "assign_nodes",
    "assignment_feasible",
    "build_flow_system",
    "check_connectivity",
    "check_graphable",
    "classify_events",
    "count_lattice",
    "dump_sequences",
    "erdos_gallai",
    "export_temporal_csv",
    "fix_parity",
    "inter_graphable",
    "jaccard",
    "kernel_basis",
    "load_run_config",
    "load_sequences",
    "materialize_flow",
    "mi_greedy",
    "modularity",
    "plan_transition",
    "read_temporal_csv",
    "run",
    "sample_degrees",
    "sample_sizes",
    "seed_pool",
    "split_degrees",
    "taboo_search",
    "variation_of_information",
    "wire_inter",
    "wire_intra",
    "write_report",
]
