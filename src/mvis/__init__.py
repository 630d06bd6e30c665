"""Exact computation of the four mutual-visibility invariants of graphs:
mutual, total, outer, and dual, with family generators, closed-form oracles,
and a verification harness."""

from .graphs import (
    DisconnectedGraph,
    EmptySet,
    Graph,
    GraphError,
    GraphStats,
    InvalidVertexId,
    UNREACHABLE,
    VertexSet,
    all_pairs_distances,
    build_graph,
    cartesian_product,
    graph_stats,
    induced_subgraph,
    interval,
    is_convex,
    read_edge_list,
    write_edge_list,
)
from .visibility import (
    PairVisibility,
    VARIANTS,
    VisibilityReport,
    classify_set,
    constrained_distance,
    is_bypass_candidate,
    is_pair_visible,
)
from .solve import (
    Incomplete,
    IncompleteCover,
    SearchStats,
    SolveOptions,
    SolveResult,
    TooSmall,
    dual_zero_by_cover,
    dual_zero_sufficient,
    solve,
    solve_independence,
    total_is_zero,
)
from .families import (
    BadParams,
    FamilySpec,
    NoWitnessKnown,
    NotIndependent,
    OutOfRange,
    ReductionRecord,
    generate,
    gn_witnesses,
    grid_dual_witness,
    grid_outer_witness,
    parse_family_spec,
    reduction_gprime,
    reduction_witness,
    torus_witnesses,
)
from .oracles import (
    ComparisonTable,
    OracleValue,
    comparison_table,
    oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
