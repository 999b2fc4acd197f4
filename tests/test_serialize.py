from fractions import Fraction

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
