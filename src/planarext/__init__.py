"""Edge-extremal planar graphs under degree and matching-number constraints.

The package answers three questions about the class of planar graphs
with maximum degree strictly below d and matching number strictly below
nu: how many edges are possible (closed-form bounds), which graphs
attain the maximum (certified constructions), and does independent
exhaustive search agree (the enumeration oracle). Supporting machinery
(matching, planarity with certificates, canonical forms, edge coloring,
serialization, degree-sequence realization) is exported alongside.

Each public name loads on first use (PEP 562): `import planarext`
imports no submodule, and `planarext.max_edges_planar` imports only
`planarext.bounds`, so a route never compiles the modules it does not run.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it holds
_NAMES = {
    "bounds": ("max_edges_general", "max_edges_outerplanar", "max_edges_planar"),
    "canon": ("canonical_form",),
    "coloring": (
        "EdgeColoring",
        "InstanceTooLargeError",
        "PartitionBound",
        "chromatic_index_exact",
        "partition_bound_check",
        "vizing_color",
    ),
    "constructions": (
        "AtlasName",
        "atlas",
        "complete",
        "extremal_general",
        "k_prime",
        "pivotal_planar",
        "star",
    ),
    "enumeration": ("BudgetExceededError", "enumerate_connected"),
    "graphs": (
        "Graph",
        "build_graph",
        "complement",
        "connected_components",
        "disjoint_union",
        "induced_subgraph",
        "is_connected",
        "max_degree",
    ),
    "matching": (
        "Matching",
        "has_perfect_matching",
        "is_factor_critical",
        "matching_number",
        "maximum_matching",
    ),
    "oracle": (
        "ComponentRecord",
        "FalsificationError",
        "Verdict",
        "combine",
        "component_table",
        "verify_theorem",
    ),
    "planarity": (
        "PlanarityResult",
        "classify_kuratowski",
        "face_count",
        "is_outerplanar",
        "is_planar",
    ),
    "realize": ("RealizeResult", "realize_degree_sequence_planar"),
    "serialize": (
        "CertificateReport",
        "certificate",
        "dot_export",
        "graph6_decode",
        "graph6_encode",
    ),
}
_HOME = {name: home for home, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return [*globals(), *__all__]
