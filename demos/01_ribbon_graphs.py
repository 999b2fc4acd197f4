"""Ribbon graphs as permutation data: faces, genus, perimeters.

A ribbon graph lives on half-edges 0..2E-1: edge k is always the pair
(2k, 2k+1), and each vertex carries a cyclic order of its half-edges.
Composing the vertex permutation's inverse with the edge involution walks
the face boundaries.
"""

from ribboncells import (Vertex, faces, genus, ordinary_graph, perimeters,
                         validate)
from ribboncells.permgraph import StableRibbonGraph

# Two trivalent vertices joined by three parallel edges.  With the cyclic
# orders below the three edges weave into a single face, so the graph
# lives on a torus.
theta = ordinary_graph([(0, 2, 4), (1, 3, 5)])
print("theta graph:", theta)
print("  valid:", validate(theta) is None)
for w in faces(theta):
    print(f"  face {w.label}: half-edges {w.half_edges}, edges {w.edges}")
print("  genus:", genus(theta))

# each edge borders the single face on both sides, so lengths (1, 2, 3)
# give perimeter 2*(1+2+3) = 12
print("  perimeters for lengths (1,2,3):", perimeters(theta, [1, 2, 3]))

# The same underlying graph embedded in the plane has three faces.
planar = ordinary_graph([(0, 2, 4), (1, 5, 3)])
print("\nplanar theta:", planar)
print("  faces:", [w.degree for w in faces(planar)])
print("  genus:", genus(planar))
print("  perimeters for lengths (1,2,3):", perimeters(planar, [1, 2, 3]))

# A stable ribbon graph: vertices may carry several cycles (branches of a
# singular surface point) and a genus defect.  A single edge joining two
# defect-1 endpoints already has genus 2.
needle = StableRibbonGraph(
    2,
    (Vertex(cycles=((0,),), defect=1), Vertex(cycles=((1,),), defect=1)),
    {0: 1})
print("\nsingle edge with two defect-1 endpoints:", needle)
print("  valid:", validate(needle) is None)
print("  genus:", genus(needle))

# A loop whose halves sit on two branches of one vertex: the surface of
# embedding acquires a node, and the arithmetic genus is already 1.
node = StableRibbonGraph(
    2, (Vertex(cycles=((0,), (1,)), defect=0),), {0: 1})
print("\nloop on two branches:", node, "-> genus", genus(node))
