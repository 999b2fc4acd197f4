r"""Stable ribbon graphs as permutation data on half-edges.

A ribbon graph is stored as a pair of permutations on the set
``{0, ..., 2E-1}`` of half-edges: the edge involution ``sigma1`` is fixed
once and for all to pair ``2k`` with ``2k+1`` (so edge ``k`` always consists
of these two half-edges), and the vertex permutation ``sigma0`` is the
product of the cyclic orders at the vertices.  The faces are the cycles of
``sigma2 = sigma0^{-1} sigma1`` and carry labels ``1..n``.

A *stable* ribbon graph generalizes this: a vertex may carry a permutation
with several cycles (one per local branch at a singular point of the
surface of embedding) together with a non-negative integer *genus defect*
recording the genus of a collapsed unmarked piece.  Ordinary ribbon graphs
are the special case of one cycle per vertex and all defects zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Iterable, Mapping, NamedTuple, Sequence


class InvalidGraphError(ValueError):
    """Raised by operations whose input graph fails validation."""


class Violation(NamedTuple):
    """First violated invariant found by :func:`validate`."""

    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


class Vertex(NamedTuple):
    """A vertex: a permutation (given by its cycles) of the incident
    half-edges, plus a genus defect."""

    cycles: tuple[tuple[int, ...], ...]
    defect: int = 0

    @property
    def block(self) -> tuple[int, ...]:
        """All half-edges incident to the vertex."""
        return tuple(h for c in self.cycles for h in c)

    @property
    def degree(self) -> int:
        return sum(len(c) for c in self.cycles)


class FaceWord(NamedTuple):
    """A face: one cycle of ``sigma2`` with its label.

    ``half_edges`` is the cyclic sequence of half-edges along the face and
    ``edges`` the induced sequence of edge indices; an edge bordering the
    face on both sides appears twice.
    """

    label: int
    half_edges: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.half_edges)


class StableRibbonGraph:
    """Stable ribbon graph with numbered faces.

    ``num_half_edges`` is the even count ``2E`` of half-edges
    ``0..2E-1``; half-edges ``2k`` and ``2k+1`` always form edge ``k``, so
    the edge involution is never stored.  ``vertices`` gives each vertex's
    cycles and genus defect.  ``face_labels`` maps one representative
    half-edge of each ``sigma2`` cycle to its label; labels form a
    bijection onto ``{1..n}``.  Instances
    are immutable: nothing mutates ``vertices`` or ``face_labels`` after
    construction, so all derived structure, and the outcome of
    :meth:`require_valid`, is cached.  Construction does not validate --
    call :func:`validate` (or :meth:`require_valid`) to check the
    invariants.  Assigning to an attribute raises ``AttributeError``.
    """

    def __init__(self, num_half_edges: int, vertices: tuple[Vertex, ...],
                 face_labels: Mapping[int, int] | None = None):
        # __setattr__ refuses; the fields go into __dict__ directly, as
        # every cached value does
        self.__dict__.update(num_half_edges=num_half_edges, vertices=vertices,
                             face_labels={} if face_labels is None else face_labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"StableRibbonGraph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"StableRibbonGraph is immutable; cannot delete {name!r}")

    # -- basic counts ------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self.num_half_edges // 2

    @property
    def num_faces(self) -> int:
        return len(self.sigma2_cycles)

    @property
    def defects(self) -> tuple[int, ...]:
        return tuple(v.defect for v in self.vertices)

    # -- permutations ------------------------------------------------

    @cached_property
    def sigma0(self) -> tuple[int, ...]:
        """Vertex permutation as an array, or raise if cycles overlap."""
        n = self.num_half_edges
        out = [-1] * n
        for v in self.vertices:
            for cyc in v.cycles:
                for i, h in enumerate(cyc):
                    if not (0 <= h < n) or out[h] != -1:
                        raise InvalidGraphError(
                            f"half-edge {h} repeated or out of range in vertex cycles")
                    out[h] = cyc[(i + 1) % len(cyc)]
        if -1 in out:
            raise InvalidGraphError("vertex cycles do not cover all half-edges")
        return tuple(out)

    @cached_property
    def sigma0_inv(self) -> tuple[int, ...]:
        s = self.sigma0
        out = [0] * len(s)
        for h, s_h in enumerate(s):
            out[s_h] = h
        return tuple(out)

    @cached_property
    def sigma2(self) -> tuple[int, ...]:
        """Face permutation ``sigma0^{-1} sigma1``."""
        inv = self.sigma0_inv
        return tuple(inv[h ^ 1] for h in range(self.num_half_edges))

    @cached_property
    def sigma2_cycles(self) -> tuple[tuple[int, ...], ...]:
        return cycles(self.sigma2)

    @cached_property
    def vertex_of(self) -> tuple[int, ...]:
        """Index of the vertex containing each half-edge."""
        out = [-1] * self.num_half_edges
        for vi, v in enumerate(self.vertices):
            for h in v.block:
                out[h] = vi
        return tuple(out)

    @cached_property
    def face_label_of(self) -> tuple[int, ...]:
        """Face label of each half-edge.  This is the label check of
        :func:`validate`: it raises :class:`InvalidGraphError` carrying the
        :class:`Violation` unless the labels map the faces onto ``1..n``."""
        face_cycles, labels = self.sigma2_cycles, self.face_labels
        if not face_cycles:
            raise InvalidGraphError(Violation(
                "faces", "graph has no faces; at least one numbered face required"))
        out = [0] * self.num_half_edges
        for cyc in face_cycles:
            reps = [h for h in cyc if h in labels]
            if len(reps) != 1:
                raise InvalidGraphError(Violation(
                    "face-labels", f"face {cyc} carries {len(reps)} "
                                   f"representatives, expected exactly 1"))
            lab = labels[reps[0]]
            for h in cyc:
                out[h] = lab
        if len(labels) != len(face_cycles):
            raise InvalidGraphError(Violation(
                "face-labels", "spurious face label keys present"))
        if sorted(labels.values()) != list(range(1, len(face_cycles) + 1)):
            raise InvalidGraphError(Violation(
                "face-labels", f"labels {sorted(labels.values())} are not a "
                               f"bijection onto 1..{len(face_cycles)}"))
        return tuple(out)

    # -- validation ---------------------------------------------------

    def require_valid(self, require_stability: bool = True) -> "StableRibbonGraph":
        """Raise :class:`InvalidGraphError` unless the graph is valid.

        :func:`validate` caches every verdict it reaches, so each check
        runs once per instance and a repeated call only reads them; an
        invalid graph raises on every call."""
        v = validate(self, require_stability)
        if v is not None:
            raise InvalidGraphError(str(v))
        return self

    def is_ordinary(self) -> bool:
        """One cycle per vertex, all defects zero, all degrees >= 3."""
        return all(
            len(v.cycles) == 1 and v.defect == 0 and v.degree >= 3
            for v in self.vertices)

    def is_trivalent(self) -> bool:
        return self.is_ordinary() and all(v.degree == 3 for v in self.vertices)

    # -- hashing / equality on raw data -------------------------------

    def _key(self):
        return (self.num_half_edges,
                tuple((v.cycles, v.defect) for v in self.vertices),
                tuple(sorted(self.face_labels.items())))

    def __eq__(self, other):
        if not isinstance(other, StableRibbonGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        vs = ",".join(
            "".join("(" + " ".join(map(str, c)) + ")" for c in v.cycles)
            + (f"[{v.defect}]" if v.defect else "")
            for v in self.vertices)
        return f"StableRibbonGraph(E={self.num_edges}, vertices={vs})"


def cycles(perm: Sequence[int],
           domain: Iterable[int] | None = None) -> tuple[tuple[int, ...], ...]:
    """Cycles of a permutation of ``range(len(perm))`` through the points
    of ``domain`` (default: all of them), each starting at its first point
    in ``domain`` order and listed in that order."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)) if domain is None else domain:
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        h = perm[start]
        while h != start:
            cyc.append(h)
            seen[h] = True
            h = perm[h]
        out.append(tuple(cyc))
    return tuple(out)


def union_find(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Connected components of ``range(n)`` under the given pairs: the
    least point of each point's component, by union-find with path
    halving."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # every link points downwards, so one increasing pass finds the roots
    for x in range(n):
        parent[x] = parent[parent[x]]
    return parent


def ordinary_graph(vertex_cycles: Iterable[Iterable[int]],
                   face_labels: Mapping[int, int] | None = None) -> StableRibbonGraph:
    """Convenience constructor for an ordinary ribbon graph (one cycle per
    vertex, defects zero).  If ``face_labels`` is omitted, faces are
    labelled ``1..n`` in order of their minimal half-edge."""
    vertices = tuple(Vertex(cycles=(tuple(c),)) for c in vertex_cycles)
    nh = sum(v.degree for v in vertices)
    g = StableRibbonGraph(nh, vertices, face_labels or {})
    if face_labels is None:
        g = with_face_labels(
            g, {cyc[0]: i + 1 for i, cyc in enumerate(g.sigma2_cycles)})
    return g


#: Cached values of a graph that do not read its face labels.
_STRUCTURE_CACHES = ("sigma0", "sigma0_inv", "sigma2", "sigma2_cycles",
                     "vertex_of", "_structure")


def with_face_labels(g: StableRibbonGraph,
                     face_labels: Mapping[int, int]) -> StableRibbonGraph:
    """The structure of ``g`` carrying ``face_labels``.  The copy shares
    what ``g`` has already derived from its vertices (the permutations, the
    face cycles and the label-free verdicts of :func:`validate`), so
    validating it checks only the label map."""
    out = StableRibbonGraph(g.num_half_edges, g.vertices, face_labels)
    for name in _STRUCTURE_CACHES:
        if name in g.__dict__:
            out.__dict__[name] = g.__dict__[name]
    return out


def validate(g: StableRibbonGraph, require_stability: bool = True) -> Violation | None:
    """Check all structural invariants; return the first violation or None.

    The checks run in this order: half-edge count and partition, face
    labels, connectivity, stability, each at most once per instance: the
    label check builds ``face_label_of``, and the other verdicts read only
    the vertices, so they are kept in one record, which every
    :func:`with_face_labels` copy made once it exists shares.  Stability is
    checked only when asked for.

    With ``require_stability=False`` the genus-defect stability clause is
    skipped (the induced first-return structures of contraction components
    may legitimately fail it).
    """
    structure = g.__dict__.get("_structure")
    if structure is None:
        v = _partition_violation(g)
        structure = g.__dict__["_structure"] = {
            "partition": v,
            "connectivity": None if v is not None else _connectivity_violation(g)}
    if structure["partition"] is not None:
        return structure["partition"]
    try:
        g.face_label_of
    except InvalidGraphError as exc:
        return exc.args[0]
    if structure["connectivity"] is not None or not require_stability:
        return structure["connectivity"]
    if "stability" not in structure:
        structure["stability"] = _stability_violation(g)
    return structure["stability"]


#: Violations of the first pass over the vertices: with one of them, the
#: vertex cycles need not partition the claimed half-edges.
PARTITION_KINDS = frozenset({"half-edges", "defect", "vertex-cycle", "partition"})


def _partition_violation(g: StableRibbonGraph) -> Violation | None:
    n = g.num_half_edges
    if n <= 0 or n % 2 != 0:
        return Violation("half-edges", f"count must be a positive even integer, got {n}")

    seen = {}
    for vi, v in enumerate(g.vertices):
        if v.defect < 0:
            return Violation("defect", f"vertex {vi} has negative defect {v.defect}")
        for cyc in v.cycles:
            if len(cyc) == 0:
                return Violation("vertex-cycle", f"vertex {vi} has an empty cycle")
            for h in cyc:
                if not (0 <= h < n):
                    return Violation("vertex-cycle",
                                     f"half-edge {h} out of range at vertex {vi}")
                if h in seen:
                    return Violation("partition",
                                     f"half-edge {h} appears at vertices {seen[h]} and {vi}")
                seen[h] = vi
    if len(seen) != n:
        # the claimed count may be far beyond the vertex data: name a few
        missing = list(islice((h for h in range(n) if h not in seen), 3))
        return Violation("partition", f"{n - len(seen)} half-edges belong to no "
                                      f"vertex, first {missing}")
    return None


def _connectivity_violation(g: StableRibbonGraph) -> Violation | None:
    """Connectivity of the underlying graph (vertex blocks joined by
    edges)."""
    vert = g.vertex_of
    roots = set(union_find(len(g.vertices), zip(vert[0::2], vert[1::2])))
    if len(roots) > 1:
        return Violation("connectivity", f"graph has {len(roots)} components")
    return None


def _stability_violation(g: StableRibbonGraph) -> Violation | None:
    for vi, v in enumerate(g.vertices):
        if v.degree == 1 and v.defect == 0:
            return Violation(
                "stability", f"vertex {vi} has degree 1 and genus defect 0")
        if (v.degree == 2 and len(v.cycles) == 1 and v.defect == 0):
            return Violation(
                "stability",
                f"vertex {vi} is a degree-2 transposition with genus defect 0")
    return None


def faces(g: StableRibbonGraph) -> list[FaceWord]:
    """The labelled face words: the cycles of ``sigma2`` with their edge
    sequences.  Every half-edge appears in exactly one word."""
    g.require_valid(require_stability=False)
    out = []
    for cyc in g.sigma2_cycles:
        lab = g.face_label_of[cyc[0]]
        out.append(FaceWord(label=lab, half_edges=cyc,
                            edges=tuple(h >> 1 for h in cyc)))
    out.sort(key=lambda f: f.label)
    return out


def genus(g: StableRibbonGraph) -> int:
    """Genus: arithmetic genus of the surface of embedding plus the sum of
    genus defects, by :func:`euler_genus` on the graph's counts."""
    g.require_valid(require_stability=False)
    return euler_genus(len(g.vertices), sum(len(v.cycles) for v in g.vertices),
                       g.num_edges, g.num_faces, sum(g.defects))


def euler_genus(vertices: int, vertex_cycles: int, edges: int, faces: int,
                defect: int) -> int:
    """Genus of a connected stable ribbon structure from its counts: ``V``
    vertices with ``C`` cycles in all, ``E`` edges, ``F`` faces and total
    genus defect ``defect``.

    The surface of embedding is a nodal curve.  Splitting each of the ``V``
    vertices into one vertex per cycle of its permutation gives ``C``
    vertices, ``E`` edges and ``F`` faces of an ordinary ribbon structure
    whose ``k`` components are closed surfaces, so
    ``C - E + F = sum(2 - 2 g_c)``.  Gluing the cycles of each vertex back
    into one point, the arithmetic genus is
    ``sum(g_c) + (C - V) - k + 1``; substituting ``sum(g_c)``, ``k``
    cancels and it is ``1 - V + (C + E - F) / 2``.  The genus adds the
    defect to it.
    """
    twice = vertex_cycles + edges - faces
    if twice % 2 != 0:
        raise AssertionError("odd Euler characteristic of the split surface")
    arithmetic = 1 - vertices + twice // 2
    if arithmetic < 0:
        raise AssertionError("negative arithmetic genus")
    return arithmetic + defect


def perimeters(g: StableRibbonGraph, lengths: Sequence) -> tuple[Fraction, ...]:
    """Face perimeters for the given positive edge lengths, ordered by face
    label.  An edge bordering a face on both sides counts twice."""
    g.require_valid(require_stability=False)
    if len(lengths) != g.num_edges:
        raise ValueError(f"expected {g.num_edges} edge lengths, got {len(lengths)}")
    ls = [Fraction(x) for x in lengths]
    if any(x <= 0 for x in ls):
        raise ValueError("edge lengths must be strictly positive")
    out = [Fraction(0)] * (g.num_faces + 1)
    for w in faces(g):
        out[w.label] = sum((ls[e] for e in w.edges), Fraction(0))
    return tuple(out[1:])


def relabel(g: StableRibbonGraph, perm: Sequence[int]) -> StableRibbonGraph:
    """Transport the structure along a half-edge bijection ``h -> perm[h]``.

    ``perm`` must respect the canonical pairing: it must map the pair
    ``{2k, 2k+1}`` onto some pair ``{2m, 2m+1}``.
    """
    n = g.num_half_edges
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the half-edges")
    for e in range(g.num_edges):
        if perm[2 * e] ^ 1 != perm[2 * e + 1]:
            raise ValueError("permutation does not respect the edge pairing")
    vertices = tuple(
        Vertex(cycles=tuple(tuple(perm[h] for h in cyc) for cyc in v.cycles),
               defect=v.defect)
        for v in g.vertices)
    labels = {perm[h]: lab for h, lab in g.face_labels.items()}
    return StableRibbonGraph(n, vertices, labels)


# -- JSON graph format ---------------------------------------------------
#
# {"half_edges": 2E,
#  "vertices": [{"cycles": [[h, ...], ...], "defect": d}, ...],
#  "face_labels": {"<representative half-edge>": label, ...}}


def to_json_dict(g: StableRibbonGraph) -> dict:
    return {
        "half_edges": g.num_half_edges,
        "vertices": [{"cycles": [list(c) for c in v.cycles], "defect": v.defect}
                     for v in g.vertices],
        "face_labels": {str(h): lab for h, lab in sorted(g.face_labels.items())},
    }


def _json_int(x, what: str) -> int:
    # bool is a subclass of int, but ``true`` is not a JSON integer
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, not {type(x).__name__}")
    return x


def from_json_dict(d: Mapping) -> StableRibbonGraph:
    """The graph of a decoded JSON object; raise ``ValueError`` unless
    every count, half-edge, defect and label is an integer and
    ``face_labels`` is an object keyed by decimal half-edges."""
    try:
        nh = _json_int(d["half_edges"], "half_edges")
        vertices = tuple(
            Vertex(cycles=tuple(tuple(_json_int(h, "half-edge") for h in c)
                                for c in v["cycles"]),
                   defect=_json_int(v.get("defect", 0), "defect"))
            for v in d["vertices"])
        labels = d["face_labels"]
        if not (isinstance(labels, dict)
                and all(h.isascii() and h.isdigit() for h in labels)):
            raise ValueError("face_labels must map decimal half-edges to labels")
        labels = {int(h): _json_int(lab, "face label") for h, lab in labels.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph object: {exc}") from exc
    return StableRibbonGraph(nh, vertices, labels)


def dumps(g: StableRibbonGraph, **kw) -> str:
    import json

    return json.dumps(to_json_dict(g), **kw)


def loads(text: str) -> StableRibbonGraph:
    import json

    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON at offset {exc.pos}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc
    return from_json_dict(d)
