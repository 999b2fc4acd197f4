r"""Edge contraction for stable ribbon graphs.

Contracting an edge ``e`` shortens every face word through it: the new face
permutation sends ``h`` to the first of ``sigma2(h), sigma2^2(h), ...`` that
is not a half-edge of ``e``.  The new vertex permutation is recovered as
``sigma0' = sigma1' sigma2'^{-1}`` rather than by cycle surgery, and the
genus defect of the collapsed vertex follows the loop trichotomy: a
non-loop adds the defects of its endpoints, a loop with both halves in one
vertex cycle leaves the defect alone, and a loop joining two different
cycles of one vertex raises it by one.

Contracting a whole subset of edges at once collapses each connected
component of the subset to a vertex whose defect is the genus of the
first-return structure induced on that component.
"""

from __future__ import annotations

from .permgraph import (StableRibbonGraph, Vertex, cycles, euler_genus,
                        union_find, with_face_labels)


class ContractionError(ValueError):
    """Raised when a requested contraction is not admissible."""


def _forbidden_faces(g: StableRibbonGraph, contract: set[int]) -> list[tuple[int, ...]]:
    """Faces whose entire edge set lies in ``contract`` (they would lose all
    their edges, which is never admissible: a face must keep positive
    perimeter)."""
    bad = []
    for cyc in g.sigma2_cycles:
        if all((h >> 1) in contract for h in cyc):
            bad.append(cyc)
    return bad


def contractible_edges(g: StableRibbonGraph) -> list[int]:
    """Edges admissible for single-edge contraction: all but those that
    form a face on their own."""
    g.require_valid(require_stability=False)
    alone = {cyc[0] >> 1 for cyc in g.sigma2_cycles
             if len(cyc) <= 2 and cyc[0] >> 1 == cyc[-1] >> 1}
    return [e for e in range(g.num_edges) if e not in alone]


def _compact(kept: list[int]) -> dict[int, int]:
    """Old half-edge -> new half-edge for the edges ``kept``, listed in
    increasing order and renumbered ``0, 1, ...`` (so pairing is
    preserved)."""
    return {2 * old_e + side: 2 * new_e + side
            for new_e, old_e in enumerate(kept) for side in (0, 1)}


def _first_return(perm, remap: dict[int, int]) -> list[int]:
    """First return of ``perm`` to the half-edges ``remap`` keeps: each is
    sent to the first of its forward images that is kept, in new labels."""
    out = [0] * len(remap)
    for h, new_h in remap.items():
        x = perm[h]
        while x not in remap:
            x = perm[x]
        out[new_h] = remap[x]
    return out


def _rebuild(g: StableRibbonGraph, contract: set[int],
             merged_blocks: list[tuple[tuple[int, ...], int]]) -> StableRibbonGraph:
    """Assemble the contracted graph.

    ``merged_blocks`` lists ``(old half-edges, defect)`` for the new
    vertices; the blocks (minus contracted half-edges) must partition the
    surviving half-edges.  New vertex cycles come from
    ``sigma0' = sigma1' sigma2'^{-1}`` and are grouped by the given blocks.
    """
    remap = _compact([e for e in range(g.num_edges) if e not in contract])

    # sigma2' on the new labels, then sigma0'(h) = sigma1'(sigma2'^{-1}(h))
    s2_new = _first_return(g.sigma2, remap)
    n_new = len(s2_new)
    s2_inv = [0] * n_new
    for h, img in enumerate(s2_new):
        s2_inv[img] = h
    s0_new = [s2_inv[h] ^ 1 for h in range(n_new)]

    vertices = []
    assigned = [False] * n_new
    for old_block, defect in merged_blocks:
        new_block = sorted(remap[h] for h in old_block if h in remap)
        if not new_block:
            raise AssertionError("contraction produced an empty vertex")
        block_cycles = cycles(s0_new, new_block)
        if sorted(h for cyc in block_cycles for h in cyc) != new_block:
            raise AssertionError("sigma0' does not respect the merged blocks")
        for h in new_block:
            assigned[h] = True
        vertices.append(Vertex(cycles=block_cycles, defect=defect))
    if not all(assigned):
        raise AssertionError("merged blocks do not cover the surviving half-edges")

    # carry face labels over: each old face keeps at least one half-edge
    new_labels = {}
    for cyc in g.sigma2_cycles:
        lab = g.face_label_of[cyc[0]]
        new_labels[min(remap[h] for h in cyc if h in remap)] = lab

    return StableRibbonGraph(n_new, tuple(vertices), new_labels)


def contract_edge(g: StableRibbonGraph, e: int) -> StableRibbonGraph:
    """Contract a single edge; raise :class:`ContractionError` if ``e`` is
    the only edge bounding some face."""
    g.require_valid(require_stability=False)
    if not (0 <= e < g.num_edges):
        raise ContractionError(f"edge {e} out of range (E={g.num_edges})")
    bad = _forbidden_faces(g, {e})
    if bad:
        raise ContractionError(
            f"edge {e} constitutes face {bad[0]} on its own and cannot be contracted")

    h0, h1 = 2 * e, 2 * e + 1
    v0, v1 = g.vertex_of[h0], g.vertex_of[h1]
    vs = g.vertices

    if v0 != v1:
        # non-loop: endpoints merge, defects add
        block = vs[v0].block + vs[v1].block
        defect = vs[v0].defect + vs[v1].defect
    else:
        # loop: the defect rises by one iff its halves lie in two cycles
        same_cycle = any(h0 in c and h1 in c for c in vs[v0].cycles)
        block = vs[v0].block
        defect = vs[v0].defect + (0 if same_cycle else 1)
    # the merged vertex takes v0's place; a non-loop's v1 is dropped
    merged = [(block, defect) if vi == v0 else (v.block, v.defect)
              for vi, v in enumerate(vs) if vi == v0 or vi != v1]
    return _rebuild(g, {e}, merged)


def _components(g: StableRibbonGraph, edges: set[int]) -> list[set[int]]:
    """Connected components of the subgraph spanned by ``edges`` (edges are
    adjacent when they share a vertex)."""
    vert = g.vertex_of
    root = union_find(len(g.vertices), ((vert[2 * e], vert[2 * e + 1]) for e in edges))
    comps: dict[int, set[int]] = {}
    for e in edges:
        comps.setdefault(root[vert[2 * e]], set()).add(e)
    return sorted(comps.values(), key=min)


def induced_component_graph(g: StableRibbonGraph, component: set[int] | list[int]) -> StableRibbonGraph:
    """First-return structure on a connected edge subset.

    ``sigma0`` restricted to the component sends a half-edge to the first
    of its forward vertex-cycle images lying in the component; defects
    restrict.  Faces of the result are labelled ``1..k``: first the faces
    of ``g`` whose half-edges all lie in the component (each is also a
    face of the result), in the order of ``g``'s labels, then the others by
    least half-edge.  So if the component is all of ``g``'s edges the
    original labels are reproduced.  The result can fail the stability
    clause, which is fine: its genus is the defect of the collapsed vertex,
    and :func:`contract_set` counts that genus without building it.
    """
    g.require_valid(require_stability=False)
    comp = set(component)
    if not comp:
        raise ContractionError("empty component")
    if any(not (0 <= e < g.num_edges) for e in comp):
        raise ContractionError("component contains an out-of-range edge")
    pieces = _components(g, comp)
    if len(pieces) != 1:
        raise ContractionError(f"edge set {sorted(comp)} is not connected")

    remap = _compact(sorted(comp))
    s0_new = _first_return(g.sigma0, remap)
    vertices = []
    for v in g.vertices:
        block_new = sorted(remap[h] for h in v.block if h in remap)
        if block_new:
            vertices.append(Vertex(cycles=cycles(s0_new, block_new), defect=v.defect))
    vertices = tuple(vertices)

    # a face of g inside the component is a face of the result: on its
    # half-edges the first-return sigma2' agrees with sigma2
    whole = {remap[h]: g.face_label_of[h] for cyc in g.sigma2_cycles
             if all(h in remap for h in cyc) for h in cyc}
    unlabelled = StableRibbonGraph(len(s0_new), vertices, {})
    ordered = sorted(unlabelled.sigma2_cycles, key=lambda cyc:
                     (0, whole[cyc[0]]) if cyc[0] in whole else (1, min(cyc)))
    labels = {cyc[0]: i + 1 for i, cyc in enumerate(ordered)}
    return with_face_labels(unlabelled, labels)


def _component_genus(g: StableRibbonGraph, comp: set[int],
                     touched: set[int]) -> int:
    """``genus(induced_component_graph(g, comp))`` for a connected edge set
    ``comp`` touching the vertices ``touched``, counted without building
    the structure.  Its vertices are ``touched``, with their defects; its
    cycles are theirs that meet ``comp``, since the first return of
    ``sigma0`` stays in a cycle; its faces are the cycles of
    ``sigma0'^{-1} sigma1``, where ``sigma0'^{-1}`` is the first return of
    ``sigma0^{-1}``."""
    remap = _compact(sorted(comp))
    inv = _first_return(g.sigma0_inv, remap)
    faces = len(cycles([inv[h ^ 1] for h in range(len(inv))]))
    vs = [g.vertices[vi] for vi in touched]
    meeting = sum(1 for v in vs for c in v.cycles if not remap.keys().isdisjoint(c))
    return euler_genus(len(vs), meeting, len(comp), faces,
                       sum(v.defect for v in vs))


def contract_set(g: StableRibbonGraph, edges: set[int] | list[int]) -> StableRibbonGraph:
    """Contract a whole edge subset at once.

    Equal (up to isomorphism fixing face labels) to folding
    :func:`contract_edge` over the subset in any admissible order.  The
    defect of a vertex collapsed from a connected component is the genus of
    the component's first-return structure.
    """
    g.require_valid(require_stability=False)
    contract = set(edges)
    if not contract:
        return g
    if any(not (0 <= e < g.num_edges) for e in contract):
        raise ContractionError("contraction set contains an out-of-range edge")
    bad = _forbidden_faces(g, contract)
    if bad:
        raise ContractionError(
            f"face {bad[0]} would lose all of its edges under {sorted(contract)}")

    comps = _components(g, contract)
    merged: list[tuple[tuple[int, ...], int]] = []
    consumed_vertices: set[int] = set()
    for comp in comps:
        touched = {g.vertex_of[h] for e in comp for h in (2 * e, 2 * e + 1)}
        if touched & consumed_vertices:
            raise AssertionError("components are not vertex-disjoint")
        consumed_vertices |= touched
        block = tuple(h for vi in touched for h in g.vertices[vi].block)
        merged.append((block, _component_genus(g, comp, touched)))
    for vi, v in enumerate(g.vertices):
        if vi not in consumed_vertices:
            merged.append((v.block, v.defect))

    return _rebuild(g, contract, merged)
