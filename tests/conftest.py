import random
import sys
from functools import cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ribboncells.enumeration import enumerate_trivalent
from ribboncells.permgraph import StableRibbonGraph, Vertex, with_face_labels
from ribboncells.sampling import random_stable_graph


@cache
def trivalent_classes(g, n):
    """``enumerate_trivalent(g, n)``, computed once per test session."""
    return enumerate_trivalent(g, n)


@cache
def seeded_draws():
    """2,000 seeded ``random_stable_graph(max_edges=9)`` draws, made once
    per test session."""
    rng = random.Random(25)
    return tuple(random_stable_graph(rng, max_edges=9) for _ in range(2000))


def connected_subset(rng, g):
    """A random connected edge subset grown from one random edge."""
    vert = g.vertex_of
    e = rng.randrange(g.num_edges)
    comp, touched = {e}, {vert[2 * e], vert[2 * e + 1]}
    for _ in range(rng.randint(0, g.num_edges - 1)):
        frontier = [f for f in range(g.num_edges) if f not in comp
                    and (vert[2 * f] in touched or vert[2 * f + 1] in touched)]
        if not frontier:
            break
        f = rng.choice(frontier)
        comp.add(f)
        touched |= {vert[2 * f], vert[2 * f + 1]}
    return comp


def make_graph(vertex_data, face_labels=None):
    """vertex_data: list of (cycles, defect); labels by minimal half-edge
    when omitted."""
    vertices = tuple(Vertex(cycles=tuple(tuple(c) for c in cycles), defect=defect)
                     for cycles, defect in vertex_data)
    nh = sum(v.degree for v in vertices)
    g = StableRibbonGraph(nh, vertices, face_labels or {})
    if face_labels is None:
        g = with_face_labels(
            g, {cyc[0]: i + 1 for i, cyc in enumerate(g.sigma2_cycles)})
    return g


@pytest.fixture
def theta():
    """Two trivalent vertices joined by three edges, a single face."""
    return make_graph([([(0, 2, 4)], 0), ([(1, 3, 5)], 0)])


@pytest.fixture
def planar_theta():
    """Same underlying graph embedded with three faces (genus 0)."""
    return make_graph([([(0, 2, 4)], 0), ([(1, 5, 3)], 0)])


@pytest.fixture
def single_edge_defects():
    """One edge joining two defect-1 vertices of degree 1."""
    return make_graph([([(0,)], 1), ([(1,)], 1)])


@pytest.fixture
def dumbbell():
    """Two loops joined by a bridge; genus 0 with three faces."""
    return make_graph([([(0, 1, 4)], 0), ([(2, 3, 5)], 0)])
