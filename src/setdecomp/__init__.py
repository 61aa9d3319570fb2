"""Exact-rational analysis and decomposition of finite set functions.

The library tests submodularity and the alternating hierarchy, writes
functions in the coverage basis, computes charge envelopes and duals,
solves for optimal monotonic sum/diff-decompositions by exact linear
programming, and evaluates cut-function bounds on weighted graphs.
"""

__version__ = "0.1.0"

from .core import (
    GroundSet,
    GroundSetError,
    Partition,
    PartitionError,
    PreconditionError,
    SetFunction,
    format_rational,
    is_decreasing,
    is_increasing,
    is_modular,
    is_submodular,
    linear_combine,
    norm_inf,
    popcount,
    quotient,
    symmetrize,
    to_rational,
    MAX_GROUND,
)
from .alternating import (
    AlternatingWitness,
    EnumerationLimitError,
    NotNormalizedError,
    alt_sum,
    is_infinite_alternating,
    is_k_alternating,
    is_weakly_infinite_alternating,
    is_weakly_k_alternating,
    make_ell_not_ell_plus_one,
    make_partition_matroid_rank,
    max_disjoint_alt_sum,
    weak_violations,
)
from .coverage import (
    CoverageCoefficients,
    diff_decompose_canonical,
    diff_decompose_uniform,
    extremal,
    from_coefficients,
    support_size_bound_check,
    to_coefficients,
)
from .charges import (
    Charge,
    canonical_dual,
    double_dual,
    dual_wrt,
    lower_charge,
    upper_charge,
    verify_lower_charge_maximality,
)
from .simplex import ExactnessError, solve_min_nonneg
from .decompose import (
    Decomposition,
    DecompositionError,
    SevenBoundReport,
    c_bounded_feasible,
    optimal_diff_decomposition,
    optimal_sum_decomposition,
    verify_seven_bound,
    weakly_alt_canonical_decomposition,
)
from .graphs import (
    CliqueWeights,
    GraphError,
    ProbeReport,
    TriangleLPResult,
    WeightedGraph,
    WeightedHypergraph,
    check_vertex_inequality,
    clique_bound,
    complete,
    complete_bipartite,
    complete_graph_decomposition,
    complete_minus_edge,
    conjecture_probe,
    counterexample_diff,
    counterexample_sum,
    cut_function,
    cycle,
    enumerate_cliques,
    greedy_local_search_cut,
    hyperedge,
    incident_function,
    induced_function,
    max_cut,
    nu_star_bound,
    path,
    recover_clique_weights,
    triangle_lps,
    triangles_of,
    verify_cut_identities,
    wheel,
)
