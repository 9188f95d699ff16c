"""Weakly distance-regular digraph toolkit.

Construction, analysis and exhaustive classification of commutative weakly
distance-regular digraphs over prescribed underlying graphs, with Johnson
and folded Johnson generators, association-scheme validation and a
desk-scale orientation search.
"""

__version__ = "0.1.0"

from .digraph import Digraph, INFINITY, format_dgf, parse_dgf
from .generators import (
    IntersectionArray,
    LabeledGraph,
    NotDistanceRegular,
    cayley_cyclic,
    complete_graph,
    folded_johnson,
    intersection_array,
    johnson,
    predicted_array,
)
from .scheme import (
    AssociationScheme,
    AxiomViolation,
    IntersectionMatrix,
    RelationPartition,
    attached_partition,
    check_intersection_identities,
    distance_partition,
    intersection_matrix,
    is_commutative,
    is_primitive,
    is_symmetric_scheme,
    matrices_commute,
    verify_association_scheme,
)
from .analysis import (
    MuCase,
    PathClass,
    Purity,
    WdrdReport,
    arc_purity,
    classify_common_neighbour,
    mu_case,
    type_set,
    verify_local_counts,
    wdrd_report,
)
from .structure import (
    MuPropertyReport,
    NeighbourhoodReport,
    SubsetVertex,
    mu_graph_property,
    subset_swap,
    verify_neighbourhood_structure,
    y_sets,
)
from .canon import are_isomorphic, canonical_digraph, canonical_form
from .search import (
    FoundClass,
    SearchReport,
    enumerate_orientations,
    report_to_dict,
    search_commutative_wdrd,
    word_to_digraph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
