"""Cells over fixed perimeters and the polygon-bundle connection form.

Fixing the face perimeters p cuts each graph cell down to the polytope
{l > 0 : M l = p}.  Every face's boundary polygon carries a distinguished
point; the resulting circle bundle has a connection 1-form whose fiber
integral is exactly -1 and whose curvature lives downstairs on the cell.
"""

from fractions import Fraction

from ribboncells.cells import (PolygonFiber, cell_polytope,
                               fiber_integral_alpha, polygon_bundle)
from ribboncells.enumeration import enumerate_trivalent
from ribboncells.intersect import omega
from ribboncells.suites import omega_on_chart
from ribboncells.permgraph import faces
from ribboncells.polyform import validate_form, volume
from ribboncells.polyform.bundles import basic_descent, fiber_chain
from ribboncells.polyform.chains import integrate

(theta_class,) = enumerate_trivalent(1, 1)
g = theta_class.graph
print("the one-faced torus class:", g)

cell = cell_polytope(g, [12])
print("cell over p = 12: dim", cell.dim, "- edge lengths in the chart:")
for e, (coeffs, const) in enumerate(cell.edge_charts):
    print(f"  l_{e} =", const, "+", coeffs, ". x")
print("chart volume:", volume(cell.polytope))

# a concrete fiber: any positive side lengths integrate to -1
w = faces(g)[0]
fib = PolygonFiber.create(w, [1, 2, 3, 1, 2, 3], Fraction(5, 2))
print("\nfiber integral at lengths (1,2,3,1,2,3):", fiber_integral_alpha(fib))
print("sorted distances (phi, following side):", fib.vertex_distances())

# the symbolic bundle: k arcs glued along copies of the cell
pb = polygon_bundle(cell, 1)
print("\nbundle complex pieces:", sorted(pb.complex.polytopes))
print("connection form compatible:", validate_form(pb.complex, pb.alpha) is None)

fc = fiber_chain(pb.projection, "cell", cell.interior_point(),
                 pb.fiber_directions)
print("chain integral over one full fiber:", integrate(pb.alpha, fc))

# the curvature: d(alpha) uses no fiber direction and equals the constant
# 2-form computed combinatorially from the face word
da = pb.alpha.d()
print("d(alpha) on arc1:", da.forms["arc1"])
down = basic_descent(pb.projection, da)
print("descended to the cell:", down.forms["cell"])
print("combinatorial curvature, restricted to the chart:",
      omega_on_chart(omega(cell, 1)))
