"""JSON formats the ``cells`` and ``intersect --ledger`` outputs write:
rationals as "num/den" strings, polytopes as H-descriptions, and cells."""

from __future__ import annotations

from fractions import Fraction

from .cells import CellPolytope
from .polyform import Polytope
from . import permgraph


def rat(x: Fraction) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def polytope_to_json(p: Polytope) -> dict:
    return {
        "dim": p.dim,
        "halfspaces": [
            {"coeffs": [rat(c) for c in h.coeffs], "const": rat(h.const),
             "strict": h.strict}
            for h in p.halfspaces],
    }


def cell_to_json(cell: CellPolytope) -> dict:
    return {
        "graph": permgraph.to_json_dict(cell.graph),
        "perimeters": [rat(p) for p in cell.perimeters],
        "incidence": [list(r) for r in cell.incidence],
        "free_edges": list(cell.free_edges),
        "edge_charts": [{"coeffs": [rat(c) for c in coeffs], "const": rat(k)}
                        for coeffs, k in cell.edge_charts],
        "dim": cell.dim,
        "rank": cell.rank,
        "empty": cell.is_empty,
        "polytope": None if cell.polytope is None
        else polytope_to_json(cell.polytope),
    }
