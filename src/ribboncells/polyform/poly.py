"""Sparse multivariate polynomials with exact rational coefficients.

Coefficient arithmetic for the differential forms lives here.  Monomials
are exponent tuples; everything stays a Fraction, so equality of
polynomials is literal equality of canonical term dictionaries.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c != 0:
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong arity")
                clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        v = Fraction(value)
        return Polynomial(nvars, {(0,) * nvars: v} if v else {})

    @staticmethod
    def variable(i: int, nvars: int) -> "Polynomial":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return Polynomial(nvars, {exps: Fraction(1)})

    @staticmethod
    def affine(coeffs: Sequence, const) -> "Polynomial":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = Fraction(c)
            if c:
                terms[tuple(1 if j == i else 0 for j in range(n))] = c
        c0 = Fraction(const)
        if c0:
            terms[(0,) * n] = c0
        return Polynomial(n, terms)

    # -- ring operations -----------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable sets")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Polynomial(self.nvars, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        return Polynomial(self.nvars, _times(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Polynomial.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        return isinstance(other, Polynomial) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        if not any(map(any, self.terms)):
            # a constant equals its value (``__eq__``), so it hashes as one
            return hash(self.terms.get((0,) * self.nvars, 0))
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{p}" if p > 1 else f"x{i}"
                            for i, p in enumerate(e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- calculus ------------------------------------------------------

    def diff(self, i: int) -> "Polynomial":
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return Polynomial(self.nvars, out)

    def eval(self, point: Sequence) -> Fraction:
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, p in zip(pt, e):
                for _ in range(p):
                    v *= x
            total += v
        return total

    def subst(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute variable ``i`` by ``images[i]``; the images fix the
        arity of the result.  Each power of an image is built once, and
        the terms accumulate in one dictionary."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        n_out = images[0].nvars if images else 0
        one = {(0,) * n_out: Fraction(1)}
        # powers[i][p] holds the terms of images[i] ** p
        powers = [[one] for _ in images]
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            term = one
            for i, p in enumerate(e):
                if p:
                    pw = powers[i]
                    while len(pw) <= p:
                        pw.append(_times(pw[-1], images[i].terms))
                    term = _times(term, pw[p])
            for x, v in term.items():
                out[x] = out[x] + c * v if x in out else c * v
        return Polynomial(n_out, out)


def _times(a: Mapping[tuple[int, ...], Fraction],
           b: Mapping[tuple[int, ...], Fraction]) -> dict[tuple[int, ...], Fraction]:
    """The product of two term dictionaries; zero sums are kept."""
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


def simplex_integral(poly: Polynomial) -> Fraction:
    """Exact integral of a polynomial over the standard simplex
    ``{t_i >= 0, sum t_i <= 1}`` in its ``nvars`` variables, via
    ``int prod t^a = prod(a_i!) / (|a| + k)!``."""
    k = poly.nvars
    total = Fraction(0)
    for e, c in poly.terms.items():
        num = 1
        for a in e:
            num *= factorial(a)
        total += c * Fraction(num, factorial(sum(e) + k))
    return total
