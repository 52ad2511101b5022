"""Concurrent multicopy search structures with a checking toolchain.

Structures that keep multiple timestamped copies of a key (log-structured
stores, differential files) and return the first copy a traversal finds.
This package provides the two classic shapes over pluggable node backends,
plus the machinery to argue they are correct at desk scale: an instrumented
upsert history, snapshot invariant checking built on flows over the node
graph, and a linearizability checker for concurrent traces.
"""

from .checker import (
    CheckResult,
    InvariantReport,
    LinearizationResult,
    check_inv2_monotone,
    check_invariants,
    linearize,
)
from .core import (
    INITIAL,
    TOMBSTONE,
    EdgesetDisjointnessError,
    HistoryCorruptionError,
    MulticopyError,
    StructuralError,
    TimedValue,
    val_projection,
)
from .df import DfStructure
from .graph import (
    MulticopyGraph,
    compute_flow,
    contents_in_reach,
    derive_succ_reach,
    flow_residuals,
    inset_map,
    load_graph,
    local_reach,
    reach_maps,
    save_graph,
)
from .harness import WorkloadConfig, check_files, run_stress
from .history import Trace, UpsertHistory
from .lsm import LockOrderLog, LsmStructure, MulticopyStructure, SearchProbe
from .nodes import NodeHandle, alloc_node, insert_node, merge_contents

__all__ = [
    "CheckResult",
    "DfStructure",
    "EdgesetDisjointnessError",
    "HistoryCorruptionError",
    "INITIAL",
    "InvariantReport",
    "LinearizationResult",
    "LockOrderLog",
    "LsmStructure",
    "MulticopyError",
    "MulticopyGraph",
    "MulticopyStructure",
    "NodeHandle",
    "SearchProbe",
    "StructuralError",
    "TOMBSTONE",
    "TimedValue",
    "Trace",
    "UpsertHistory",
    "WorkloadConfig",
    "alloc_node",
    "check_files",
    "check_inv2_monotone",
    "check_invariants",
    "compute_flow",
    "contents_in_reach",
    "derive_succ_reach",
    "flow_residuals",
    "inset_map",
    "insert_node",
    "linearize",
    "load_graph",
    "local_reach",
    "merge_contents",
    "reach_maps",
    "run_stress",
    "save_graph",
    "val_projection",
]
