"""Exact path-algebra toolkit for finite directed graphs.

The package decides whether the commutator algebra of the skew-symmetric
part of a graph's path algebra is simple, by classifying the graph into a
simple core with balloons and detached two-vertex units, and it backs the
verdict with executable algebra: normal forms, brackets, ideal slices and
Laurent matrix models.
"""

from .graph import (
    Edge,
    Graph,
    GraphError,
    MalformedLine,
    Path,
    parse_graph,
)
from .classify import (
    Classification,
    classify,
    enumerate_hs_subsets,
    hs_closure,
    is_simple,
    is_vanishing_family,
    validate_classification,
)
from .algebra import (
    Element,
    Monomial,
    basis_monomials,
    dimension,
    edge_element,
    ideal_span,
    make_path,
    normal_form,
    vertex_element,
)
from .skew import (
    EvidenceBundle,
    bracket,
    bracket_in_ideal,
    bracket_space,
    fiber_m2_iso,
    first_nonzero_bracket,
    lie_simplicity_evidence,
    skew_basis,
    skew_part,
)
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    skew_commutator_diag,
    vanish_order_at_1,
    verify_cycle_iso,
)

__all__ = [
    "Graph",
    "Edge",
    "Path",
    "GraphError",
    "MalformedLine",
    "parse_graph",
    "Classification",
    "classify",
    "hs_closure",
    "is_simple",
    "enumerate_hs_subsets",
    "is_vanishing_family",
    "validate_classification",
    "Element",
    "Monomial",
    "basis_monomials",
    "dimension",
    "edge_element",
    "ideal_span",
    "make_path",
    "normal_form",
    "vertex_element",
    "EvidenceBundle",
    "bracket",
    "bracket_in_ideal",
    "bracket_space",
    "fiber_m2_iso",
    "first_nonzero_bracket",
    "lie_simplicity_evidence",
    "skew_basis",
    "skew_part",
    "LaurentMatrix",
    "LaurentPoly",
    "skew_commutator_diag",
    "vanish_order_at_1",
    "verify_cycle_iso",
]
