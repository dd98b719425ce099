"""Leaf powers, tree representations, and the hard family R_n.

The package provides immutable graphs and trees, two kinds of subtree
intersection models (explicit node sets and center/radius balls), the R_n
graph family with its rooted-path and exponential-radius ball models,
k-leaf-root verification and conversion, a brute-force leaf-rank search and
its census over the small chordal graphs, an exact-rational LP certificate
for leaf powers, and the machine audit of the exponential lower bound.

``__all__`` is every name imported below; the submodules themselves are left
out.
"""

from types import ModuleType as _ModuleType

from .audit import (
    AuditReport,
    BranchPoints,
    branch_points,
    check_increasing,
    check_median_cover,
    check_order,
    lower_bound_certificate,
    report_to_json_obj,
    report_to_text,
)
from .census import chordal_graphs, leaf_rank_census
from .certify import (
    FeasibilityResult,
    FeasibilitySystem,
    build_feasibility_system,
    certify_leaf_power,
    scale_to_integer_leafroot,
    solve_feasibility,
    system_to_lp_text,
    weighted_leafroot_from_json_obj,
    weighted_leafroot_to_json_obj,
    witness_margin,
)
from .enumtrees import (
    leaf_orbit_representatives,
    leaf_orbits,
    nonisomorphic_trees,
    topology_trees,
    trees_with_leaf_count,
)
from .graphs import (
    Graph,
    components,
    graph_from_json_obj,
    graph_to_dot,
    graph_to_json_obj,
    induced_subgraph,
    is_chordal,
    is_cluster_graph,
    is_separator,
    maximal_cliques,
    normalize_edge,
)
from .jsonio import dumps
from .models import (
    RSModel,
    SubtreeModel,
    check_path_cover,
    clique_subtree,
    clique_tree_model,
    cover,
    expand_rs,
    rs_model_from_json_obj,
    rs_model_to_dot,
    rs_model_to_json_obj,
    rs_model_violations,
    subtree_model_to_dot,
    subtree_model_to_json_obj,
    subtree_model_violations,
)
from .rn import (
    MAX_EXPONENTIAL_N,
    RDP_ROOT,
    RnGraph,
    build_exponential_rs_model,
    build_rdp_model,
    build_rn,
    is_rooted_directed_path_model,
)
from .roots import (
    LeafRoot,
    brute_force_leaf_rank,
    leaf_power_graph,
    leafroot_from_json_obj,
    leafroot_to_dot,
    leafroot_to_json_obj,
    leafroot_to_rs,
    rs_to_leafroot,
    verify_leaf_root,
)
from .trees import (
    Tree,
    ball,
    connecting_path,
    distance,
    distances_from,
    pairwise_distances,
    tree_from_json_obj,
    tree_path,
    tree_to_json_obj,
)

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
