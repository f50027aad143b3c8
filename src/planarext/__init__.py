"""Edge-extremal planar graphs under degree and matching-number constraints.

The package answers three questions about the class of planar graphs
with maximum degree strictly below d and matching number strictly below
nu: how many edges are possible (closed-form bounds), which graphs
attain the maximum (certified constructions), and does independent
exhaustive search agree (the enumeration oracle). Supporting machinery
(matching, planarity with certificates, canonical forms, edge coloring,
serialization, degree-sequence realization) is exported alongside.
"""

from __future__ import annotations

from .bounds import max_edges_general, max_edges_outerplanar, max_edges_planar
from .canon import canonical_form
from .coloring import (
    EdgeColoring,
    InstanceTooLargeError,
    PartitionBound,
    chromatic_index_exact,
    partition_bound_check,
    vizing_color,
)
from .constructions import (
    AtlasName,
    atlas,
    complete,
    extremal_general,
    k_prime,
    pivotal_planar,
    star,
)
from .enumeration import BudgetExceededError, enumerate_connected
from .graphs import (
    Graph,
    build_graph,
    complement,
    connected_components,
    disjoint_union,
    induced_subgraph,
    is_connected,
    max_degree,
)
from .matching import (
    Matching,
    has_perfect_matching,
    is_factor_critical,
    matching_number,
    maximum_matching,
)
from .oracle import (
    ComponentRecord,
    FalsificationError,
    Verdict,
    combine,
    component_table,
    verify_theorem,
)
from .planarity import (
    PlanarityResult,
    classify_kuratowski,
    face_count,
    is_outerplanar,
    is_planar,
)
from .realize import RealizeResult, realize_degree_sequence_planar
from .serialize import (
    CertificateReport,
    certificate,
    dot_export,
    graph6_decode,
    graph6_encode,
)

__version__ = "0.1.0"

__all__ = [
    "AtlasName",
    "BudgetExceededError",
    "CertificateReport",
    "ComponentRecord",
    "EdgeColoring",
    "FalsificationError",
    "Graph",
    "InstanceTooLargeError",
    "Matching",
    "PartitionBound",
    "PlanarityResult",
    "RealizeResult",
    "Verdict",
    "atlas",
    "build_graph",
    "canonical_form",
    "certificate",
    "chromatic_index_exact",
    "classify_kuratowski",
    "combine",
    "complement",
    "complete",
    "component_table",
    "connected_components",
    "disjoint_union",
    "dot_export",
    "enumerate_connected",
    "extremal_general",
    "face_count",
    "graph6_decode",
    "graph6_encode",
    "has_perfect_matching",
    "induced_subgraph",
    "is_connected",
    "is_factor_critical",
    "is_outerplanar",
    "is_planar",
    "k_prime",
    "matching_number",
    "max_degree",
    "max_edges_general",
    "max_edges_outerplanar",
    "max_edges_planar",
    "maximum_matching",
    "partition_bound_check",
    "pivotal_planar",
    "realize_degree_sequence_planar",
    "star",
    "verify_theorem",
    "vizing_color",
]
