"""JSON formats the ``cells`` and ``intersect --ledger`` outputs write:
rationals as "num/den" strings, cells with the H-description of each read
off its chart (so writing a cell never builds a ``polyform.Polytope``),
and the per-cell ledger of an intersection number."""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from . import permgraph

if TYPE_CHECKING:
    from .cells import CellPolytope
    from .intersect import IntersectionResult


def rat(x: Fraction) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def cell_to_json(cell: CellPolytope) -> dict:
    charts = [{"coeffs": [rat(c) for c in coeffs], "const": rat(k)}
              for coeffs, k in cell.edge_charts]
    return {
        "graph": permgraph.to_json_dict(cell.graph),
        "perimeters": [rat(p) for p in cell.perimeters],
        "incidence": [list(r) for r in cell.incidence],
        "free_edges": list(cell.free_edges),
        "edge_charts": charts,
        "dim": cell.dim,
        "rank": cell.rank,
        "empty": cell.is_empty,
        # ``cell.polytope``: each chart row as the halfspace l_e > 0
        "polytope": None if cell.is_empty else {
            "dim": cell.dim,
            "halfspaces": [dict(h, strict=True) for h in charts]},
    }


def ledger_to_json(result: IntersectionResult) -> dict:
    q = result.query
    return {
        "genus": q.genus,
        "exponents": list(q.exponents),
        "perimeters": [rat(x) for x in q.perimeters],
        "value": rat(result.value),
        "cells": [{
            "key": c.key.hex()[:16], "aut_order": c.aut_order,
            "empty": c.empty, "orientation": c.orientation,
            "coefficient": rat(c.coefficient),
            "chart_volume": rat(c.chart_volume),
            "contribution": rat(c.contribution),
        } for c in result.cells],
    }
