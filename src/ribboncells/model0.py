r"""The genus-zero algebraic model: degree-1 rational maps separating
marked-point configurations.

For n distinct marked points on the projective line, the i-th map sends a
configuration to the value vector of the unique (up to scale) degree-1
rational function with a simple pole at the i-th point whose values at the
other points sum to zero.  The collection of all n maps is invariant under
fractional-linear changes of coordinate, so it descends to the moduli of
configurations; for n = 4 it separates exactly the cross-ratio classes.

All arithmetic happens in Q(i).  A number ``(a + b i) / d`` is stored as
the Gaussian integer ``a + b i`` over one positive denominator ``d``, in
lowest terms: ``gcd(a, b, d) = 1``.  Every number has exactly one such
form, so equality and hashing compare the three stored integers, with no
subtraction or division, and each operation costs one ``gcd`` where a
pair of ``Fraction`` parts would normalise each part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

_new = object.__new__
_put = object.__setattr__


def _raw(a: int, b: int, d: int) -> "QQi":
    """``(a + b i) / d`` for ``d > 0`` and ``gcd(a, b, d) = 1``."""
    z = _new(QQi)
    _put(z, "a", a)
    _put(z, "b", b)
    _put(z, "d", d)
    return z


def _lowest(a: int, b: int, d: int) -> "QQi":
    """``(a + b i) / d`` for ``d != 0``, brought to lowest terms."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    return _raw(a // g, b // g, d // g)


class QQi:
    """Exact rational complex number ``(a + b i) / d`` with ``d > 0`` and
    ``gcd(a, b, d) = 1``; immutable.  ``QQi(re, im)`` takes anything
    ``Fraction`` does."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re, im=0):
        re, im = Fraction(re), Fraction(im)
        # parts in lowest terms over the lcm of their denominators share
        # no factor with it
        d = lcm(re.denominator, im.denominator)
        _put(self, "a", re.numerator * (d // re.denominator))
        _put(self, "b", im.numerator * (d // im.denominator))
        _put(self, "d", d)

    @staticmethod
    def of(re, im=0) -> "QQi":
        return QQi(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __setattr__(self, name, value):
        raise AttributeError(f"QQi is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QQi is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return _raw, (self.a, self.b, self.d)

    def __eq__(self, o):
        if not isinstance(o, QQi):
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __add__(self, o):
        return _lowest(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d,
                       self.d * o.d)

    def __sub__(self, o):
        return self + -o

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, o):
        if isinstance(o, QQi):
            return _lowest(self.a * o.a - self.b * o.b,
                           self.a * o.b + self.b * o.a, self.d * o.d)
        if isinstance(o, (int, Fraction)):
            return _lowest(self.a * o.numerator, self.b * o.numerator,
                           self.d * o.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, QQi):
            # (a + b i) / (c + e i) = (a + b i)(c - e i) / (c^2 + e^2)
            norm = o.a * o.a + o.b * o.b
            if norm == 0:
                raise ZeroDivisionError("division by zero in Q(i)")
            return _lowest((self.a * o.a + self.b * o.b) * o.d,
                           (self.b * o.a - self.a * o.b) * o.d, self.d * norm)
        if isinstance(o, (int, Fraction)):
            if o == 0:
                raise ZeroDivisionError("division by zero in Q(i)")
            return _lowest(self.a * o.denominator, self.b * o.denominator,
                           self.d * o.numerator)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self):
        re, im = self.re, self.im
        return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"

    def __repr__(self):
        return f"QQi(re={self.re!r}, im={self.im!r})"


ZERO = QQi.of(0)
ONE = QQi.of(1)

#: marker for the point at infinity in a configuration
INFINITY = "inf"


@dataclass(frozen=True)
class PointConfig:
    """n >= 3 pairwise distinct marked points on the projective line; at
    most one may be the point at infinity."""

    points: tuple

    @staticmethod
    def create(points: Sequence) -> "PointConfig":
        pts = tuple(points)
        if len(pts) < 3:
            raise ValueError("need at least three marked points")
        inf_count = sum(1 for p in pts if p == INFINITY)
        if inf_count > 1:
            raise ValueError("at most one point at infinity")
        finite = [p for p in pts if p != INFINITY]
        if len(set(finite)) != len(finite):
            raise ValueError("marked points must be pairwise distinct")
        return PointConfig(pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def has_infinity(self) -> bool:
        return INFINITY in self.points


@dataclass(frozen=True)
class ProjectivePoint:
    """Nonzero coordinate vector up to complex scale; coordinates sum to
    zero exactly."""

    coords: tuple[QQi, ...]

    @staticmethod
    def create(coords: Sequence[QQi]) -> "ProjectivePoint":
        cs = tuple(coords)
        if all(c.is_zero() for c in cs):
            raise ValueError("projective point needs a nonzero coordinate")
        s = ZERO
        for c in cs:
            s = s + c
        if not s.is_zero():
            raise ValueError("coordinates must sum to zero")
        return ProjectivePoint(cs)

    def same_point(self, other: "ProjectivePoint") -> bool:
        if len(self.coords) != len(other.coords):
            return False
        for a, b in zip(self.coords, other.coords):
            if a.is_zero() != b.is_zero():
                return False
        ia = next(i for i, c in enumerate(self.coords) if not c.is_zero())
        a0, b0 = self.coords[ia], other.coords[ia]
        return all(a * b0 == b * a0 for a, b in zip(self.coords, other.coords))


def mobius_apply(coeffs: tuple[QQi, QQi, QQi, QQi], config: PointConfig) -> PointConfig:
    """Apply z -> (a z + b) / (c z + d) with ad - bc nonzero."""
    a, b, c, d = coeffs
    if (a * d - b * c).is_zero():
        raise ValueError("singular fractional-linear map")
    out = []
    for p in config.points:
        if p == INFINITY:
            out.append(INFINITY if c.is_zero() else a / c)
        else:
            denom = c * p + d
            out.append(INFINITY if denom.is_zero() else (a * p + b) / denom)
    return PointConfig.create(out)


def _normalize_finite(config: PointConfig) -> PointConfig:
    """A fractional-linear change of coordinate making every point finite
    (legal because the full map is invariant under such changes)."""
    if not config.has_infinity():
        return config
    finite = [p for p in config.points if p != INFINITY]
    k = 0
    while True:
        cand = QQi.of(k)
        if all(not (p - cand).is_zero() for p in finite):
            break
        k += 1
    # z -> 1/(z - cand) sends infinity to 0 and nothing to infinity
    return mobius_apply((ZERO, ONE, ONE, -cand), config)


def f_map(config: PointConfig, i: int) -> ProjectivePoint:
    """Values at the other marked points of the degree-1 function with a
    pole at point ``i`` (1-based) and zero value sum; the result is a
    projective point independent of coordinate choices."""
    if not (1 <= i <= config.n):
        raise ValueError(f"index {i} out of range")
    return _f_map(_normalize_finite(config), i)


def _f_map(cfg: PointConfig, i: int) -> ProjectivePoint:
    """:func:`f_map` of a configuration with every point finite."""
    n = cfg.n
    xi = cfg.points[i - 1]
    others = [p for j, p in enumerate(cfg.points) if j != i - 1]
    inv = [ONE / (p - xi) for p in others]
    s = ZERO
    for v in inv:
        s = s + v
    b = -(s / (n - 1))
    return ProjectivePoint.create(tuple(v + b for v in inv))


def full_map(config: PointConfig) -> tuple[ProjectivePoint, ...]:
    """All n projective value vectors of the configuration, in one
    coordinate in which every point is finite."""
    cfg = _normalize_finite(config)
    return tuple(_f_map(cfg, i) for i in range(1, cfg.n + 1))


def full_maps_agree(a: Sequence[ProjectivePoint], b: Sequence[ProjectivePoint]) -> bool:
    return len(a) == len(b) and all(x.same_point(y) for x, y in zip(a, b))
