import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from ribboncells.model0 import (INFINITY, PointConfig, QQi, f_map, full_map,
                                full_maps_agree, mobius_apply)

F = Fraction


def q(re, im=0):
    return QQi.of(re, im)


def rand_q(rng, spread=9):
    return q(F(rng.randint(-spread, spread), rng.randint(1, 4)),
             F(rng.randint(-spread, spread), rng.randint(1, 4)))


def rand_config(rng, n, allow_inf=False):
    pts = []
    while len(pts) < n:
        if allow_inf and not pts and rng.random() < 0.3:
            pts.append(INFINITY)
            continue
        z = rand_q(rng)
        if all(p == INFINITY or not (p - z).is_zero() for p in pts):
            pts.append(z)
    rng.shuffle(pts)
    return PointConfig.create(pts)


def rand_mobius(rng):
    while True:
        a, b, c, d = (rand_q(rng, 5) for _ in range(4))
        if not (a * d - b * c).is_zero():
            return (a, b, c, d)


def cross_ratio(z1, z2, z3, z4):
    """Independent oracle; infinity handled by dropping its factors."""

    def diff(a, b):
        if a == INFINITY or b == INFINITY:
            return None
        return a - b

    num = [diff(z1, z3), diff(z2, z4)]
    den = [diff(z1, z4), diff(z2, z3)]
    top, bottom = QQi.of(1), QQi.of(1)
    for x in num:
        if x is not None:
            top = top * x
    for x in den:
        if x is not None:
            bottom = bottom * x
    return top / bottom


class TestConstruction:
    def test_distinctness_enforced(self):
        with pytest.raises(ValueError):
            PointConfig.create([q(0), q(0), q(1)])

    def test_at_most_one_infinity(self):
        with pytest.raises(ValueError):
            PointConfig.create([INFINITY, INFINITY, q(1)])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            PointConfig.create([q(0), q(1)])


class TestFMap:
    def test_coordinates_sum_to_zero(self):
        rng = random.Random(61)
        for _ in range(30):
            cfg = rand_config(rng, rng.randint(3, 6), allow_inf=True)
            for i in range(1, cfg.n + 1):
                pt = f_map(cfg, i)
                s = QQi.of(0)
                for c in pt.coords:
                    s = s + c
                assert s.is_zero()

    def test_n3_single_point(self):
        rng = random.Random(62)
        ref = full_map(rand_config(rng, 3))
        for _ in range(20):
            cfg = rand_config(rng, 3, allow_inf=True)
            assert full_maps_agree(full_map(cfg), ref)

    def test_n4_matches_cross_ratio(self):
        rng = random.Random(63)
        for _ in range(100):
            a = rand_config(rng, 4, allow_inf=True)
            b = rand_config(rng, 4, allow_inf=True)
            same_cr = (cross_ratio(*a.points) - cross_ratio(*b.points)).is_zero()
            agree = full_maps_agree(full_map(a), full_map(b))
            assert agree == same_cr


class TestMobiusInvariance:
    def test_random_transformations(self):
        rng = random.Random(64)
        for _ in range(100):
            cfg = rand_config(rng, rng.randint(3, 5), allow_inf=True)
            m = rand_mobius(rng)
            moved = mobius_apply(m, cfg)
            assert full_maps_agree(full_map(cfg), full_map(moved))

    def test_specific_map(self):
        cfg = PointConfig.create([q(0), q(1), q(3), q(7)])
        # z -> (2z + 1) / (z + 3)
        m = (q(2), q(1), q(1), q(3))
        assert full_maps_agree(full_map(cfg), full_map(mobius_apply(m, cfg)))

    def test_relabelling_permutes_outputs(self):
        # with finite points the value vectors are literally equal as
        # multisets after relabelling (same function, same points)
        rng = random.Random(65)
        cfg = rand_config(rng, 5)
        perm = list(range(5))
        rng.shuffle(perm)
        permuted = PointConfig.create([cfg.points[i] for i in perm])
        base = full_map(cfg)
        moved = full_map(permuted)
        for new_i, old_i in enumerate(perm):
            got = sorted(str(c) for c in moved[new_i].coords)
            expected = sorted(str(c) for c in base[old_i].coords)
            assert got == expected

    def test_separation_failure_and_success(self):
        a = PointConfig.create([q(0), q(1), q(2), INFINITY])
        b = PointConfig.create([q(0), q(1), q(3), INFINITY])
        assert not full_maps_agree(full_map(a), full_map(b))
        move = mobius_apply((q(3), q(0), q(0), q(1)), a)  # z -> 3z
        assert full_maps_agree(full_map(a), full_map(move))


class PairQ:
    """Q(i) as a pair of ``Fraction`` parts: the representation ``QQi``
    replaced, kept as a reference for its arithmetic."""

    def __init__(self, re, im=0):
        self.re, self.im = F(re), F(im)

    def __add__(self, o):
        return PairQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return PairQ(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return PairQ(-self.re, -self.im)

    def __mul__(self, o):
        if isinstance(o, (int, F)):
            return PairQ(self.re * o, self.im * o)
        return PairQ(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, (int, F)):
            return PairQ(self.re / o, self.im / o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return PairQ((self.re * o.re + self.im * o.im) / d,
                     (self.im * o.re - self.re * o.im) / d)

    def __eq__(self, o):
        return (self.re, self.im) == (o.re, o.im)

    def __str__(self):
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


def small_q(rng):
    # few values, so that equal results from different routes are common
    return (F(rng.randint(-2, 2), rng.choice([1, 2, 3])),
            F(rng.randint(-2, 2), rng.choice([1, 2, 3])))


def small_scalar(rng):
    return rng.choice([rng.randint(-3, 3), F(rng.randint(-3, 3), rng.randint(1, 4))])


BINARY = {"+": lambda u, v: u + v, "-": lambda u, v: u - v,
          "*": lambda u, v: u * v, "/": lambda u, v: u / v}
SCALAR = {"z*s": lambda u, s: u * s, "s*z": lambda u, s: s * u,
          "z/s": lambda u, s: u / s}


class TestAgainstFractionPairs:
    def same(self, z, ref):
        assert (z.re, z.im) == (ref.re, ref.im)
        assert str(z) == str(ref)
        # lowest terms over a positive denominator
        assert z.d > 0 and gcd(z.a, z.b, z.d) == 1

    def run(self, op, u, v, ref_u, ref_v):
        try:
            ref = op(ref_u, ref_v)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(u, v)
            return False
        self.same(op(u, v), ref)
        return True

    def test_every_operation(self):
        rng = random.Random(66)
        zero_divisions = 0
        for _ in range(400):
            (a, b), (c, d) = small_q(rng), small_q(rng)
            u, v = QQi.of(a, b), QQi.of(c, d)
            self.same(u, PairQ(a, b))
            self.same(-u, -PairQ(a, b))
            for op in BINARY.values():
                zero_divisions += not self.run(op, u, v, PairQ(a, b), PairQ(c, d))
            s = small_scalar(rng)
            for op in SCALAR.values():
                zero_divisions += not self.run(op, u, s, PairQ(a, b), s)
            assert u.is_zero() == (a == b == 0)
        assert zero_divisions >= 20

    def test_equality_and_hash(self):
        rng = random.Random(67)
        equal = 0
        for _ in range(600):
            # 25 values, so that about one pair in 25 is equal
            a, b, c, d = (F(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(4))
            u, v = QQi.of(a, b), QQi.of(c, d)
            assert (u == v) == (PairQ(a, b) == PairQ(c, d))
            if u == v:
                equal += 1
                assert hash(u) == hash(v) and len({u, v}) == 1
            if not v.is_zero():
                # the same value by another route
                back = (u * v) / v
                assert back == u and hash(back) == hash(u)
        assert equal >= 10

    def test_representation(self):
        z = QQi.of(F(2, 4), F(-3, 6))
        assert (z.a, z.b, z.d) == (1, -1, 2)
        assert z == QQi.of(F(1, 2), F(-1, 2)) and str(z) == "1/2-1/2i"
        assert (q(0).a, q(0).b, q(0).d) == (0, 0, 1) and str(q(0)) == "0+0i"
        assert (q(6) / 4).d == 2 and str(q(F(-3, 2), 3)) == "-3/2+3i"
        assert q(2) != 2 and q(2) != INFINITY
        with pytest.raises(AttributeError):
            z.a = 3
        assert pickle.loads(pickle.dumps(z)) == z

    @pytest.mark.parametrize("divisor", [q(0), 0, F(0)])
    def test_division_by_zero(self, divisor):
        with pytest.raises(ZeroDivisionError):
            q(1, 1) / divisor
