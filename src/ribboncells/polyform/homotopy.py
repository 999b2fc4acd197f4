"""The cone homotopy operator behind the local exactness of closed forms.

For a convex polytope P with a chosen interior point x0, the value of the
candidate primitive on given tangent vectors is the integral of the form
over the cone with vertex x0 and base a parallelepiped shrinking onto the
vectors.  For polynomial coefficients the limit is computable in closed
form and satisfies ``d(h w) + h(d w) = w`` for every k-form with k >= 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .forms import Form
from .geometry import Polytope
from .poly import Polynomial


def _radial_average(poly: Polynomial, center: Sequence[Fraction], k: int) -> Polynomial:
    """int_0^1 t^{k-1} f(x0 + t (x - x0)) dt as a polynomial in x."""
    n = poly.nvars
    # substitute x_i -> x0_i + t (x_i - x0_i) with t as variable index n
    images = []
    for i in range(n):
        terms = {}
        e_t = tuple(1 if j == n else 0 for j in range(n + 1))
        e_xt = tuple(1 if j in (i, n) else 0 for j in range(n + 1))
        e_0 = (0,) * (n + 1)
        c0 = Fraction(center[i])
        terms[e_0] = c0
        terms[e_xt] = Fraction(1)
        terms[e_t] = -c0
        images.append(Polynomial(n + 1, terms))
    lifted = poly.subst(images)
    out_terms = {}
    for e, c in lifted.terms.items():
        m = e[n]
        key = e[:n]
        out_terms[key] = out_terms.get(key, Fraction(0)) + c / (m + k)
    return Polynomial(n, out_terms)


def cone_homotopy(polytope: Polytope, center: Sequence, form: Form) -> Form:
    """h(form): the degree-lowering homotopy with d(h w) + h(d w) = w.

    ``center`` must lie in the polytope (star-shapedness is automatic for
    convex polytopes).
    """
    x0 = [Fraction(c) for c in center]
    if len(x0) != polytope.dim or form.nvars != polytope.dim:
        raise ValueError("center or form does not match the polytope dimension")
    if not polytope.contains(x0):
        raise ValueError("center is not a point of the polytope")
    k = form.degree
    if k == 0:
        return Form.zero(form.nvars, 0)
    n = form.nvars
    out = Form.zero(n, k - 1)
    for idx, coeff in form.comps.items():
        avg = _radial_average(coeff, x0, k)
        for j, i_j in enumerate(idx):
            rest = idx[:j] + idx[j + 1:]
            radial = Polynomial.affine(
                [1 if m == i_j else 0 for m in range(n)], -x0[i_j])
            term = avg * radial * ((-1) ** j)
            out = out + Form(n, k - 1, {rest: term})
    return out
