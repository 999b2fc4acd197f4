"""Exact combinatorics of metric ribbon graph cell complexes.

The package computes, in exact rational arithmetic: stable ribbon graphs
and their contractions, isomorphism classes and automorphisms, the cell
polytopes over fixed face perimeters, a differential-forms calculus on
polytopal complexes, and intersection numbers of the tautological classes
obtained by integrating curvature 2-forms over the top cells.

Records on the path of an intersection query (``permgraph``, ``stable``,
``enumeration``, ``linalg``, ``cells``, ``intersect``, ``cli``) are
``typing.NamedTuple`` classes, or plain classes with an explicit ``__init__``
where a value is cached; importing ``dataclasses`` would cost a cold query
more than its arithmetic.  ``polyform``, ``model0`` and ``suites`` keep
their dataclasses and load only when a command uses them.
"""

from .permgraph import (FaceWord, InvalidGraphError, StableRibbonGraph,
                        Vertex, Violation, faces, genus, ordinary_graph,
                        perimeters, relabel, validate, with_face_labels)
from .stable import (ContractionError, contract_edge, contract_set,
                     contractible_edges, induced_component_graph)
from .enumeration import (AutomorphismGroup, GraphClass, SizeGuardError,
                          automorphisms, canonical_key, enumerate_cells,
                          enumerate_trivalent, isomorphic)

__all__ = [
    "FaceWord", "InvalidGraphError", "StableRibbonGraph", "Vertex",
    "Violation", "faces", "genus", "ordinary_graph", "perimeters", "relabel",
    "validate", "with_face_labels",
    "ContractionError", "contract_edge", "contract_set", "contractible_edges",
    "induced_component_graph",
    "AutomorphismGroup", "GraphClass", "SizeGuardError", "automorphisms",
    "canonical_key", "enumerate_cells", "enumerate_trivalent", "isomorphic",
]
