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

from dataclasses import dataclass
from itertools import permutations

from .permgraph import (StableRibbonGraph, cycles, ordinary_graph,
                        with_face_labels)
from .stable import contract_edge, contractible_edges


class SizeGuardError(ValueError):
    """Enumeration request beyond the size guard."""


#: Largest edge count accepted by :func:`enumerate_trivalent`.  Past it, on
#: a 2-CPU Xeon with Python 3.11, (2,2) grows its 713 classes in 5 s, and
#: (0,6) holds 122,880 classes in 465 MB after 19 s, 17 s of it labelling.
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


@dataclass(frozen=True)
class AutomorphismGroup:
    order: int
    elements: tuple[tuple[int, ...], ...]


def isomorphic(g1: StableRibbonGraph, g2: StableRibbonGraph) -> bool:
    """Isomorphism fixing every face label."""
    return canonical_key(g1) == canonical_key(g2)


def automorphisms(g: StableRibbonGraph) -> AutomorphismGroup:
    """The full group of face-label-fixing automorphisms, read off the
    labelled least traversals: the element that carries the first least
    traversal ``o_min`` onto the least traversal ``o`` maps ``o_min[i]``
    to ``o[i]``."""
    _, orders = _least_serialization(g, True)
    # where each half-edge stands in o_min
    at = sorted(range(len(orders[0])), key=orders[0].__getitem__)
    elements = tuple(sorted(tuple(o[i] for i in at) for o in orders))
    return AutomorphismGroup(order=len(elements), elements=elements)


# ---------------------------------------------------------------------------
# exhaustive enumeration


@dataclass(frozen=True)
class GraphClass:
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


def _children(s0: tuple[int, ...]):
    """Every edge insertion and tadpole on the trivalent structure ``s0``
    with E edges, as vertex permutations with E + 3 edges.

    An insertion is two subdivisions, the second anywhere on the first's
    result (its new edge included), whose stubs form edge E + 2.  A tadpole
    is one subdivision whose stub ends at a new vertex carrying the loop
    E + 1.  Every child is connected and trivalent."""
    m = len(s0)
    base = list(s0) + [-1] * 6
    for h in range(m):
        one = base.copy()
        _subdivide(one, h, m, m + 4)
        tadpole = one.copy()
        tadpole[m + 5], tadpole[m + 2], tadpole[m + 3] = m + 2, m + 3, m + 5
        yield tadpole
        for h2 in range(m + 2):
            two = one.copy()
            _subdivide(two, h2, m + 2, m + 5)
            yield two


def _unlabelled_classes(g: int, n: int) -> list[StableRibbonGraph]:
    """One trivalent graph per unlabelled class at ``(g, n)``, the first
    met.  Above E = 3 the classes grow from those with E - 3 edges: an
    insertion inside one face of a ``(g, n-1)`` graph or a tadpole adds a
    face, and an insertion across two faces of a ``(g-1, n+1)`` graph
    joins them and adds a handle; no other child has ``n`` faces."""
    if (g, n) in _SEEDS:
        candidates = _SEEDS[g, n]
    else:
        sources = ([(g, n - 1)] if n > 1 else []) + ([(g - 1, n + 1)] if g > 0 else [])
        candidates = (s0 for source in sources
                      for parent in _unlabelled_classes(*source)
                      for s0 in _children(parent.sigma0))
    found: dict[bytes, StableRibbonGraph] = {}
    for s0 in candidates:
        child = ordinary_graph(cycles(s0))
        if child.num_faces == n:
            found.setdefault(canonical_key(child, labelled=False), child)
    return list(found.values())


def trivalent_edge_count(g: int, n: int) -> int:
    return 3 * (2 * g - 2 + n)


def require_enumerable(g: int, n: int) -> None:
    """Raise ``ValueError`` for an unstable (g, n) and ``SizeGuardError``
    when its trivalent graphs have more than ``MAX_EDGES`` edges; both
    checks cost O(1), so a caller can make them before any other work."""
    if g < 0 or n < 1 or 2 - 2 * g - n >= 0:
        raise ValueError(f"(g, n) = ({g}, {n}) is not stable")
    E = trivalent_edge_count(g, n)
    if E > MAX_EDGES:
        raise SizeGuardError(
            f"E = {E} exceeds the enumeration size guard ({MAX_EDGES} edges)")


def enumerate_trivalent(g: int, n: int) -> list[GraphClass]:
    """All isomorphism classes of connected trivalent ribbon graphs of
    genus ``g`` with ``n`` labelled faces, complete and duplicate-free.

    The unlabelled classes grow from the three with E = 3 edges by edge
    insertions and tadpoles, E - 3 edges at a time, and are deduplicated
    by ``canonical_key(labelled=False)`` (a canonical construction path
    after McKay, *Isomorph-free exhaustive generation*, 1998); each is then
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


@dataclass(frozen=True)
class CellComplexSummary:
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
