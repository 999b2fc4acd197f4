import json
from fractions import Fraction

import pytest

from ribboncells import serialize
from ribboncells.cells import cell_polytope
from ribboncells.enumeration import enumerate_trivalent


class TestRoundTrips:
    def test_rationals(self):
        assert serialize.rat(Fraction(-3, 7)) == "-3/7"
        assert serialize.rat(5) == "5/1"

    def test_cell(self):
        cls = enumerate_trivalent(1, 1)[0]
        cell = cell_polytope(cls.graph, [Fraction(12)])
        d = serialize.cell_to_json(cell)
        assert d["dim"] == 2 and not d["empty"]
        assert d["incidence"] == [[2, 2, 2]]
        # one strict halfspace per edge: the edge's length in the chart
        assert d["polytope"] == {"dim": 2, "halfspaces": [
            {"coeffs": [serialize.rat(c) for c in coeffs],
             "const": serialize.rat(k), "strict": True}
            for coeffs, k in cell.edge_charts]}
        assert len(d["polytope"]["halfspaces"]) == cls.graph.num_edges

    @pytest.mark.parametrize("genus, n, p", [
        (0, 3, (3, 22, 19)), (0, 4, (5, 5, 7, 11)), (1, 2, (3, 7))])
    def test_cell_polytope_matches_its_objects(self, genus, n, p):
        # the H-description read off the chart, byte for byte against
        # the one read back from ``cell.polytope``'s halfspaces
        from ribboncells.enumeration import enumerate_cells

        empty = 0
        for cls in enumerate_cells(genus, n).classes.values():
            cell = cell_polytope(cls.graph, p)
            poly = cell.polytope
            expected = None if poly is None else {
                "dim": poly.dim,
                "halfspaces": [
                    {"coeffs": [serialize.rat(c) for c in h.coeffs],
                     "const": serialize.rat(h.const), "strict": h.strict}
                    for h in poly.halfspaces]}
            got = serialize.cell_to_json(cell)["polytope"]
            assert json.dumps(got) == json.dumps(expected)
            empty += poly is None
        assert empty > 0
