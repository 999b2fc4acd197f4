"""Seeded random generation of stable ribbon graphs for property suites."""

from __future__ import annotations

import random

from .permgraph import (StableRibbonGraph, Vertex, cycles, validate,
                        with_face_labels)


def random_stable_graph(rng: random.Random, max_edges: int = 8) -> StableRibbonGraph:
    """Draw a valid stable ribbon graph with between 1 and ``max_edges``
    edges and genus defects of at most 2.  Defects are bumped where
    stability demands one; the draw is retried until the underlying graph
    is connected."""
    while True:
        E = rng.randint(1, max_edges)
        nh = 2 * E
        perm = list(range(nh))
        rng.shuffle(perm)
        # cycles of a uniform random permutation
        perm_cycles = list(cycles(perm))
        rng.shuffle(perm_cycles)
        num_vertices = rng.randint(1, len(perm_cycles))
        buckets: list[list[tuple[int, ...]]] = [[] for _ in range(num_vertices)]
        for i, cyc in enumerate(perm_cycles):
            if i < num_vertices:
                buckets[i].append(cyc)
            else:
                buckets[rng.randrange(num_vertices)].append(cyc)
        vertices = []
        for cycs in buckets:
            v = Vertex(cycles=tuple(cycs), defect=rng.randint(0, 2))
            if v.defect == 0 and (v.degree == 1
                                  or (v.degree == 2 and len(v.cycles) == 1)):
                v = Vertex(cycles=v.cycles, defect=rng.randint(1, 2))
            vertices.append(v)
        g = StableRibbonGraph(nh, tuple(vertices), {})
        g = with_face_labels(
            g, {cyc[0]: i + 1 for i, cyc in enumerate(g.sigma2_cycles)})
        if validate(g) is None:
            return g


def random_edge_relabelling(rng: random.Random, num_edges: int) -> list[int]:
    """A random half-edge bijection respecting the edge pairing: permute
    the edges and flip each at random."""
    edge_perm = list(range(num_edges))
    rng.shuffle(edge_perm)
    out = [0] * (2 * num_edges)
    for e in range(num_edges):
        flip = rng.randint(0, 1)
        out[2 * e] = 2 * edge_perm[e] + flip
        out[2 * e + 1] = 2 * edge_perm[e] + (1 - flip)
    return out
