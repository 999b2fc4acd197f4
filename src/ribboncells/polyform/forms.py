"""Exterior forms with polynomial coefficients on a rational vector space.

A ``Form`` of degree k stores, per strictly increasing index tuple
``(i_1 < ... < i_k)``, the polynomial coefficient of ``dx_{i_1} ^ ... ^
dx_{i_k}``.  Wedge, exterior derivative, and pullback along affine maps
are exact, so identities like ``d(d w) = 0`` hold as literal equalities.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .geometry import AffineMap
from .poly import Polynomial
from ..linalg import det


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two increasing index tuples; return (sign, merged) or None on
    a repeated index."""
    out = []
    i = j = 0
    sign = 1
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


class Form:
    """Exterior form of fixed degree with Polynomial coefficients."""

    __slots__ = ("nvars", "degree", "comps")

    def __init__(self, nvars: int, degree: int,
                 comps: Mapping[tuple[int, ...], Polynomial] | None = None):
        if degree < 0:
            raise ValueError("negative degree")
        self.nvars = nvars
        self.degree = degree
        clean: dict[tuple[int, ...], Polynomial] = {}
        for idx, poly in (comps or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx} for degree {degree}")
            if any(not (0 <= i < nvars) for i in idx):
                raise ValueError(f"index out of range in {idx}")
            if poly.nvars != nvars:
                raise ValueError("coefficient arity mismatch")
            if poly:
                clean[idx] = poly
        self.comps = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int, degree: int) -> "Form":
        return Form(nvars, degree)

    @staticmethod
    def function(poly: Polynomial) -> "Form":
        return Form(poly.nvars, 0, {(): poly})

    @staticmethod
    def dx(i: int, nvars: int) -> "Form":
        return Form(nvars, 1, {(i,): Polynomial.constant(nvars, 1)})

    # -- algebra ---------------------------------------------------------

    def _check(self, other: "Form"):
        if self.nvars != other.nvars:
            raise ValueError("forms live on different spaces")

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = dict(self.comps)
        for idx, p in other.comps.items():
            out[idx] = out[idx] + p if idx in out else p
        return Form(self.nvars, self.degree, out)

    def __neg__(self) -> "Form":
        return Form(self.nvars, self.degree, {i: -p for i, p in self.comps.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, scalar) -> "Form":
        if isinstance(scalar, Polynomial):
            return Form(self.nvars, self.degree,
                        {i: p * scalar for i, p in self.comps.items()})
        c = Fraction(scalar)
        return Form(self.nvars, self.degree,
                    {i: p * c for i, p in self.comps.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Form) and self.nvars == other.nvars \
            and self.degree == other.degree and self.comps == other.comps

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.comps.items())))

    def __bool__(self):
        return bool(self.comps)

    def __repr__(self):
        if not self.comps:
            return f"0 (degree {self.degree})"
        bits = []
        for idx, p in sorted(self.comps.items()):
            dxs = "^".join(f"dx{i}" for i in idx)
            bits.append(f"({p}) {dxs}".strip())
        return " + ".join(bits)

    def wedge(self, other: "Form") -> "Form":
        # degree overflow beyond the ambient dimension collapses to the
        # zero form of that degree, not an error
        self._check(other)
        deg = self.degree + other.degree
        out: dict[tuple[int, ...], Polynomial] = {}
        for i1, p1 in self.comps.items():
            for i2, p2 in other.comps.items():
                merged = _merge_sign(i1, i2)
                if merged is None:
                    continue
                sign, idx = merged
                term = p1 * p2 * sign
                out[idx] = out[idx] + term if idx in out else term
        return Form(self.nvars, deg, out)

    def d(self) -> "Form":
        out: dict[tuple[int, ...], Polynomial] = {}
        for idx, p in self.comps.items():
            for i in range(self.nvars):
                dp = p.diff(i)
                if not dp:
                    continue
                merged = _merge_sign((i,), idx)
                if merged is None:
                    continue
                sign, nidx = merged
                term = dp * sign
                out[nidx] = out[nidx] + term if nidx in out else term
        return Form(self.nvars, self.degree + 1, out)

    def pullback(self, phi: AffineMap) -> "Form":
        """phi^* self, for phi : R^m -> R^nvars affine with matrix A, by
        the Cauchy-Binet formula

            (phi^* w)_J = (sum_I det(A[I, J]) * w_I) o phi

        over the index tuples I of w and the increasing k-tuples J of
        range(m), k the degree.  Composition with phi is linear, so the
        minor-weighted sum is formed first and substituted once per J."""
        if phi.target_dim != self.nvars:
            raise ValueError("map target does not match the form's space")
        m = phi.source_dim
        coords = phi.coordinates
        out: dict[tuple[int, ...], Polynomial] = {}
        for cols in combinations(range(m), self.degree):
            total = None
            for idx, p in self.comps.items():
                minor = det([[phi.matrix[i][j] for j in cols] for i in idx])
                if minor:
                    term = p * minor
                    total = term if total is None else total + term
            if total:
                # on a point there is nothing to substitute: total is its
                # constant
                out[cols] = total.subst(coords) if coords else \
                    Polynomial.constant(m, total.eval(()))
        return Form(m, self.degree, out)

    def uses_variable(self, i: int) -> bool:
        """Whether dx_i occurs or any coefficient depends on x_i."""
        for idx, p in self.comps.items():
            if i in idx:
                return True
            if any(e[i] for e in p.terms):
                return True
        return False
