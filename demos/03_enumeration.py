"""Exhaustive enumeration of graph classes and the cell closure.

Top cells of the complex correspond to trivalent classes, grown from the
classes with three fewer edges by edge insertions and tadpoles;
contracting edges walks down to the boundary cells.  Canonical keys make
isomorphism testing (fixing the numbered faces) a string comparison, and
automorphism orders give the orbifold weights.
"""

from fractions import Fraction

from ribboncells import automorphisms, enumerate_cells, enumerate_trivalent

for (g, n) in [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (1, 3), (0, 5)]:
    classes = enumerate_trivalent(g, n)
    print(f"(g, n) = ({g}, {n}): {len(classes)} trivalent classes, "
          f"E = {classes[0].graph.num_edges}")
    if len(classes) <= 4:
        for c in classes:
            print("   ", c.graph, "|Aut| =", automorphisms(c.graph).order)

print("\nclosure of the (1, 1) top cells under contraction:")
summary = enumerate_cells(1, 1)
for key, cls in sorted(summary.classes.items()):
    tag = "top" if key in summary.top_keys else "boundary"
    print(f"  dim {cls.dim} ({tag}): {cls.graph} "
          f"|Aut| = {automorphisms(cls.graph).order}")

# a classical checksum: summing (-1)^dim / |Aut| over the cells with all
# vertex degrees >= 3 and no defects recovers the orbifold Euler
# characteristic of the underlying moduli of curves (times chi_c of the
# perimeter orthant)
for (g, n) in [(0, 3), (1, 1), (0, 4), (1, 2)]:
    total = Fraction(0)
    for cls in enumerate_cells(g, n).classes.values():
        if cls.graph.is_ordinary():
            total += Fraction((-1) ** cls.dim, automorphisms(cls.graph).order)
    print(f"chi_c checksum for ({g}, {n}):", total)
