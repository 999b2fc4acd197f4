r"""Canonical keys, automorphisms, and exhaustive enumeration of ribbon
graph isomorphism classes.

Isomorphisms here are bijections of half-edges that respect the edge
pairing, map vertex cycles to vertex cycles and vertex blocks to vertex
blocks, preserve genus defects, and fix every face label.  The canonical
key of a graph is the minimum, over all rooted deterministic traversals,
of a serialization of the relabelled structure; two graphs have equal keys
iff they are isomorphic in this sense.

The traversals are not serialized one by one.  They advance in lockstep,
one half-edge per step, and after each step only those whose relabelled
vertex permutation has the least prefix so far go on (the partial
certificates of McKay and Piperno, *Practical graph isomorphism II*,
2014).  That permutation leads the serialization and has the same length
in every traversal, so a traversal dropped early serializes strictly above
a survivor: the minimum and all its ties are exactly those of the full
search, in the same order.

Face labels come last in the serialization, and no traversal depends on
them.  So one search, which ignores the labels, serves both keys: the
labelled minimum is the unlabelled one with the least label word among
its least traversals in place of the empty word, and the labelled least
traversals are those that attain that word.

The same search gives the automorphism group.  An automorphism carries a
traversal onto a traversal with the same serialization, and two traversals
with equal serializations differ by exactly one automorphism; so the
traversals that attain the least serialization are the images of the first
of them under the group, one per element.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .permgraph import (StableRibbonGraph, cycles, ordinary_graph,
                        with_face_labels)
from .stable import contract_edge, contractible_edges


class SizeGuardError(ValueError):
    """Enumeration request beyond the size guard."""


#: Largest edge count accepted by :func:`enumerate_trivalent`.  Past it, on
#: a 2-vCPU host with Python 3.11, (2,2) gives its 713 classes in 1.3 s, and
#: (0,6) holds 122,880 classes at a peak of 292 MB after 4.8 s, 4.2 s of it
#: labelling.
MAX_EDGES = 9


# ---------------------------------------------------------------------------
# canonical key


def _relabelled(s0: tuple[int, ...],
                order: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``sigma0`` and the edge pairing relabelled by discovery order."""
    pos = [0] * len(s0)
    for new, old in enumerate(order):
        pos[old] = new
    return (tuple(pos[s0[old]] for old in order),
            tuple(pos[old ^ 1] for old in order))


def _serialize(g: StableRibbonGraph, order: list[int]) -> tuple:
    """Serialize the unlabelled structure relabelled by discovery order."""
    sig0, sig1 = _relabelled(g.sigma0, order)
    vert = g.vertex_of
    block_order: dict[int, int] = {}
    vid = []
    for old in order:
        v = vert[old]
        if v not in block_order:
            block_order[v] = len(block_order)
        vid.append(block_order[v])
    defects = tuple(g.vertices[v].defect
                    for v in sorted(block_order, key=block_order.get))
    return (sig0, sig1, tuple(vid), defects)


def _forks(g: StableRibbonGraph, order: list[int], pos: list[int]):
    """The traversals that continue ``order`` once its discovery walk is
    exhausted with half-edges left: the split structure is disconnected,
    so they enter every unvisited cycle of the earliest discovered vertex
    that has one, at each of its half-edges in cycle order."""
    vert = g.vertex_of
    for h in order:
        cycs = [c for c in g.vertices[vert[h]].cycles if pos[c[0]] < 0]
        if cycs:
            break
    else:
        raise AssertionError("stable graph traversal stuck (disconnected?)")
    i = len(order)
    for cyc in cycs:
        for start in cyc:
            fork = pos.copy()
            fork[start] = i
            yield order + [start], fork


def _least_traversals(g: StableRibbonGraph) -> tuple[tuple, list[list[int]]]:
    """The least unlabelled serialization and every traversal order that
    attains it, in search order.

    A traversal starts at a root half-edge; from each discovered half-edge
    it discovers first its vertex-cycle successor ``s0[h]``, then its edge
    partner ``h ^ 1``, and when that walk is exhausted with half-edges left
    it forks (:func:`_forks`).  Search order is root order, then fork
    order.  All traversals advance in lockstep: step ``i`` processes
    ``order[i]``, which fixes ``sig0[i]``, the position of ``s0[order[i]]``,
    and only those with the least ``sig0`` prefix survive it.  The
    survivors are serialized in full.
    """
    n = g.num_half_edges
    s0 = g.sigma0
    live = []
    for root in range(n):
        pos = [-1] * n
        pos[root] = 0
        live.append(([root], pos))
    for i in range(n):
        least, survivors = n, []
        for parent in live:
            # a walk exhausted with half-edges left forks before step i
            children = _forks(g, *parent) if i == len(parent[0]) else (parent,)
            for order, pos in children:
                h = order[i]
                for nb in (s0[h], h ^ 1):
                    if pos[nb] < 0:
                        pos[nb] = len(order)
                        order.append(nb)
                step = pos[s0[h]]
                if step < least:
                    least, survivors = step, [(order, pos)]
                elif step == least:
                    survivors.append((order, pos))
        live = survivors
    sers = [_serialize(g, order) for order, _ in live]
    best = min(sers)
    return best, [order for (order, _), ser in zip(live, sers) if ser == best]


def _least_serialization(g: StableRibbonGraph,
                         labelled: bool) -> tuple[tuple, list[list[int]]]:
    """The minimum serialization over every root and traversal, with every
    traversal order that attains it, in search order.  The result is
    remembered per instance and per ``labelled`` flag.  The unlabelled one
    comes from the lockstep search :func:`_least_traversals`, whose pruning
    by ``sigma0`` prefixes is exact because ``sigma0`` leads the
    serialization with length 2E in every traversal; the labelled one is
    read off it (see the module docstring)."""
    g.require_valid(require_stability=False)
    memo = g.__dict__.setdefault("_least", {})
    if False not in memo:
        best, orders = _least_traversals(g)
        memo[False] = best + ((),), orders
    if labelled and True not in memo:
        best, orders = memo[False]
        words = [tuple(g.face_label_of[h] for h in o) for o in orders]
        word = min(words)
        memo[True] = (best[:-1] + (word,),
                      [o for o, w in zip(orders, words) if w == word])
    return memo[labelled]


def canonical_key(g: StableRibbonGraph, labelled: bool = True) -> bytes:
    """Total-order key constant on isomorphism classes.

    With ``labelled=False`` face labels are ignored (isomorphism may then
    permute faces).
    """
    return repr(_least_serialization(g, labelled)[0]).encode()


# ---------------------------------------------------------------------------
# automorphisms


class AutomorphismGroup(NamedTuple):
    order: int
    elements: tuple[tuple[int, ...], ...]


def isomorphic(g1: StableRibbonGraph, g2: StableRibbonGraph) -> bool:
    """Isomorphism fixing every face label."""
    return canonical_key(g1) == canonical_key(g2)


def _group(orders: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The automorphisms read off the least traversal orders of one
    search, sorted: the element that carries the first order ``o_min``
    onto the order ``o`` maps ``o_min[i]`` to ``o[i]``."""
    # where each half-edge stands in o_min
    at = sorted(range(len(orders[0])), key=orders[0].__getitem__)
    return tuple(sorted(tuple(o[i] for i in at) for o in orders))


def automorphisms(g: StableRibbonGraph) -> AutomorphismGroup:
    """The full group of face-label-fixing automorphisms, read off the
    labelled least traversals."""
    elements = _group(_least_serialization(g, True)[1])
    return AutomorphismGroup(order=len(elements), elements=elements)


# ---------------------------------------------------------------------------
# exhaustive enumeration


class GraphClass(NamedTuple):
    key: bytes
    graph: StableRibbonGraph

    @property
    def dim(self) -> int:
        """Cell dimension: the number of edges."""
        return self.graph.num_edges


#: Vertex permutations of the unlabelled trivalent classes with E = 3.
_SEEDS = {(0, 3): ((1, 2, 0, 4, 5, 3), (2, 5, 4, 1, 0, 3)),
          (1, 1): ((2, 3, 4, 5, 0, 1),)}


def _subdivide(s0: list[int], h: int, c: int, z: int) -> None:
    """Put a new vertex ``(h^1, c, z)`` on the edge of ``h``: ``h^1`` moves
    there, and ``c^1`` takes its place at its old vertex.  The stub ``z``
    points into the face on one side of the edge; the side is fixed by
    ``h``, so over all half-edges ``h`` this one cyclic order reaches every
    side of every edge once (``(h^1, z, c)`` at ``h`` is ``(h, c, z)`` at
    ``h^1`` up to relabelling)."""
    k = h ^ 1
    nxt = s0[k]
    s0[s0[nxt]] = c ^ 1  # the predecessor of k in its 3-cycle
    s0[c ^ 1] = nxt
    s0[k], s0[c], s0[z] = c, z, k


def _children(parent: StableRibbonGraph):
    """The edge insertions and tadpoles on the trivalent ``parent`` with E
    edges, as vertex permutations with E + 3 edges, one per orbit of the
    parent's unlabelled automorphism group.

    An insertion ``(h, h2)`` is two subdivisions, the second at ``h2`` on
    the first's result (its new edge ``m, m+1`` included, m = 2E), whose
    stubs form edge E + 2.  A tadpole at ``h`` is one subdivision whose
    stub ends at a new vertex carrying the loop E + 1.  Every child is
    connected and trivalent.

    The orbit rule.  Let α be an automorphism of the parent, which
    commutes with ``sigma0`` and with ``h -> h ^ 1``, and α′ the map that
    is α on the old half-edges and fixes the new ones.  α′ carries the
    subdivision at ``h`` onto the one at α(h): it maps the three entries
    that the subdivision rewires onto theirs and commutes with the rest.
    So the tadpole at ``h`` is isomorphic to the tadpole at α(h), and the
    insertion ``(h, h2)`` to the insertion ``(α(h), α′(h2))``.  A child is
    skipped when some α gives it a lexicographically smaller index.  An
    automorphism of a connected map that fixes one half-edge is the
    identity, so that happens exactly when α(h) < h for some α: only the
    least half-edge of each orbit is subdivided first.  Children are met in
    index order, so every skipped child is isomorphic to a child of the
    same parent met before it, and the first child met in each isomorphism
    class is never skipped.  The group is read off the least traversals of
    the search that deduplicated the parent, so it costs no search."""
    s0 = parent.sigma0
    m = len(s0)
    group = _group(_least_serialization(parent, False)[1])
    base = list(s0) + [-1] * 6
    # min(a[h] for a in group) is the least half-edge of h's orbit
    for h in sorted(set(map(min, zip(*group)))):
        one = base.copy()
        _subdivide(one, h, m, m + 4)
        tadpole = one.copy()
        tadpole[m + 5], tadpole[m + 2], tadpole[m + 3] = m + 2, m + 3, m + 5
        yield tadpole
        for h2 in range(m + 2):
            two = one.copy()
            _subdivide(two, h2, m + 2, m + 5)
            yield two


def _face_count(s0: list[int]) -> int:
    """The number of faces of the ordinary graph with vertex permutation
    ``s0``: the cycles of ``h -> s0[h ^ 1]``, that is sigma0 sigma1, which
    is sigma0 sigma2^-1 sigma0^-1 and so has as many cycles as sigma2."""
    return len(cycles([s0[h ^ 1] for h in range(len(s0))]))


def _unlabelled_classes(g: int, n: int, grown=None) -> list[StableRibbonGraph]:
    """One trivalent graph per unlabelled class at ``(g, n)``, the first
    met.  Above E = 3 the classes grow from those with E - 3 edges: an
    insertion inside one face of a ``(g, n-1)`` graph or a tadpole adds a
    face, and an insertion across two faces of a ``(g-1, n+1)`` graph
    joins them and adds a handle; no other child has ``n`` faces.

    Each parent yields one child per orbit of its automorphism group
    (:func:`_children`).  The children it skips are isomorphic to children
    of the same parent met before them, so the first child met in every
    class is the one the unpruned growth keeps, in the same order.  Faces
    are counted on the raw permutation, and a graph is built and searched
    only for a child with ``n`` faces."""
    if (g, n) in _SEEDS:
        candidates = _SEEDS[g, n]
    else:
        grown = {} if grown is None else grown  # each source grows once a call
        sources = ([(g, n - 1)] if n > 1 else []) + ([(g - 1, n + 1)] if g > 0 else [])
        for source in sources:
            if source not in grown:
                grown[source] = _unlabelled_classes(*source, grown)
        candidates = (s0 for source in sources for parent in grown[source]
                      for s0 in _children(parent))
    found: dict[bytes, StableRibbonGraph] = {}
    for s0 in candidates:
        if _face_count(s0) != n:
            continue
        child = ordinary_graph(cycles(s0))
        if child.num_faces != n:
            raise AssertionError("face count of a child disagrees with its graph")
        found.setdefault(canonical_key(child, labelled=False), child)
    return list(found.values())


def trivalent_edge_count(g: int, n: int) -> int:
    return 3 * (2 * g - 2 + n)


def require_stable(g: int, n: int) -> None:
    """Raise ``ValueError`` unless g >= 0, n >= 1 and 2g - 2 + n > 0."""
    if g < 0 or n < 1 or 2 - 2 * g - n >= 0:
        raise ValueError(f"(g, n) = ({g}, {n}) is not stable")


def require_enumerable(g: int, n: int) -> None:
    """Raise ``ValueError`` for an unstable (g, n) and ``SizeGuardError``
    when its trivalent graphs have more than ``MAX_EDGES`` edges; both
    checks cost O(1), so a caller can make them before any other work."""
    require_stable(g, n)
    E = trivalent_edge_count(g, n)
    if E > MAX_EDGES:
        raise SizeGuardError(
            f"E = {E} exceeds the enumeration size guard ({MAX_EDGES} edges)")


def enumerate_trivalent(g: int, n: int) -> list[GraphClass]:
    """All isomorphism classes of connected trivalent ribbon graphs of
    genus ``g`` with ``n`` labelled faces, complete and duplicate-free.

    The unlabelled classes grow from the three with E = 3 edges by edge
    insertions and tadpoles, E - 3 edges at a time, one per orbit of the
    parent's automorphism group (a skipped child is isomorphic to one met
    before it, so the pruning keeps the same first child per class; see
    :func:`_children`), and are deduplicated by
    ``canonical_key(labelled=False)`` (a canonical construction path after
    McKay, *Isomorph-free exhaustive generation*, 1998); each is then
    expanded over the ``n!`` face labellings, whose keys and automorphism
    groups are read off that class's unlabelled search without another
    one.  Completeness at E <= 9 is tested against Kontsevich's identity.

    The representative of a class is the first candidate met, in parent
    order and then in ``permutations`` order of its labelling; class files,
    ledgers and boundary edge indices refer to these representatives, so a
    labelling by orbits must keep this rule.
    """
    require_enumerable(g, n)
    classes: dict[bytes, StableRibbonGraph] = {}
    for graph in _unlabelled_classes(g, n):
        face_reps = [cyc[0] for cyc in graph.sigma2_cycles]
        search = _least_serialization(graph, False)
        for labelling in permutations(range(1, n + 1)):
            labels = dict(zip(face_reps, labelling))
            cand = with_face_labels(graph, labels)
            # the structure of ``graph``, so its unlabelled search
            cand.__dict__["_least"] = {False: search}
            key = canonical_key(cand)
            if key not in classes:
                classes[key] = cand
    return [GraphClass(key=k, graph=classes[k]) for k in sorted(classes)]


class CellComplexSummary(NamedTuple):
    """Closure of the top cells under single-edge contraction."""

    classes: dict[bytes, GraphClass]
    #: (parent key, contracted edge, child key)
    boundary: list[tuple[bytes, int, bytes]]
    top_keys: list[bytes]


def boundary_cells(g: StableRibbonGraph) -> list[tuple[int, StableRibbonGraph, bytes]]:
    """All admissible single-edge contractions with the face-label
    preserving identification, as (edge, contracted graph, class key)."""
    out = []
    for e in contractible_edges(g):
        child = contract_edge(g, e)
        out.append((e, child, canonical_key(child)))
    return out


def enumerate_cells(g: int, n: int) -> CellComplexSummary:
    """All stable ribbon graph classes reachable from the trivalent top
    cells by admissible contractions, with the boundary relation."""
    tops = enumerate_trivalent(g, n)
    classes = {c.key: c for c in tops}
    boundary = []
    frontier = sorted(classes)
    while frontier:
        next_frontier = []
        for key in frontier:
            for e, child, ck in boundary_cells(classes[key].graph):
                boundary.append((key, e, ck))
                if ck not in classes:
                    classes[ck] = GraphClass(key=ck, graph=child)
                    next_frontier.append(ck)
        frontier = sorted(next_frontier)
    return CellComplexSummary(classes=classes, boundary=sorted(set(boundary)),
                              top_keys=[c.key for c in tops])
