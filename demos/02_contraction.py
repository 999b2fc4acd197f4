"""Edge contraction: the loop trichotomy, commutativity, bulk contraction.

Contracting an edge deletes it from every face word; the vertex structure
is recovered from the new face permutation, and the genus defect of the
collapsed vertex follows three cases depending on how the edge sits at its
endpoints.  Genus and face labels are always conserved.
"""

from ribboncells import (contract_edge, contract_set, contractible_edges,
                         faces, genus, isomorphic, ordinary_graph)
from ribboncells.permgraph import StableRibbonGraph, Vertex
from ribboncells.stable import induced_component_graph

theta = ordinary_graph([(0, 2, 4), (1, 3, 5)])
print("theta:", theta, "genus", genus(theta))
print("contractible edges:", contractible_edges(theta))

h = contract_edge(theta, 0)
print("after contracting edge 0:", h)
print("  genus still", genus(h), "- faces still",
      sorted(w.label for w in faces(h)))

# commutativity: contracting {0, 1} in either order gives the same class
a = contract_edge(contract_edge(theta, 0), 0)   # edge 1 shifts down to 0
b = contract_edge(contract_edge(theta, 1), 0)
bulk = contract_set(theta, {0, 1})
print("\norder (0,1) == order (1,0) == bulk:",
      isomorphic(a, b) and isomorphic(a, bulk))
print("bulk result:", bulk, "genus", genus(bulk))

# the collapsed component determines the new defect: its first-return
# structure is itself a (possibly unstable) ribbon graph whose genus is
# the defect
sub = induced_component_graph(theta, {0, 1})
print("component {0,1} first-return structure:", sub, "genus", genus(sub))

# a loop whose halves lie on two different branches of one vertex: its
# contraction merges the branches and raises the defect by one
two_branch_loop = StableRibbonGraph(
    4, (Vertex(cycles=((0, 2), (1, 3)), defect=0),),
    {0: 1, 1: 2})
print("\ntwo-branch loop vertex:", two_branch_loop,
      "genus", genus(two_branch_loop))
after = contract_edge(two_branch_loop, 0)
print("after contracting the loop:", after,
      "defect", after.vertices[0].defect, "genus", genus(after))
