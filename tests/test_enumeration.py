import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from conftest import make_graph, trivalent_classes
from oracles import brute_force_isomorphic, brute_force_isomorphisms, tau

from ribboncells import enumeration
from ribboncells.enumeration import (SizeGuardError, automorphisms,
                                     canonical_key, enumerate_cells,
                                     enumerate_trivalent, isomorphic,
                                     trivalent_edge_count)
from ribboncells.permgraph import (StableRibbonGraph, cycles, genus,
                                   ordinary_graph, relabel, validate)
from ribboncells.sampling import random_edge_relabelling, random_stable_graph


class TestCanonicalKey:
    def test_invariant_under_relabelling(self):
        rng = random.Random(21)
        for _ in range(60):
            g = random_stable_graph(rng, max_edges=6)
            psi = random_edge_relabelling(rng, g.num_edges)
            assert canonical_key(relabel(g, psi)) == canonical_key(g)

    def test_different_face_counts_differ(self, theta, planar_theta):
        assert canonical_key(theta) != canonical_key(planar_theta)

    def test_face_degree_multisets_separate(self, planar_theta, dumbbell):
        # both genus 0 with three faces, different face degree multisets
        assert not brute_force_isomorphic(planar_theta, dumbbell)
        assert canonical_key(planar_theta) != canonical_key(dumbbell)

    def test_agrees_with_brute_force(self):
        rng = random.Random(22)
        graphs = [random_stable_graph(rng, max_edges=3) for _ in range(24)]
        for a in graphs:
            for b in graphs:
                assert (canonical_key(a) == canonical_key(b)) == brute_force_isomorphic(a, b)

    def test_labels_matter(self, planar_theta):
        relabelled = StableRibbonGraph(
            planar_theta.num_half_edges, planar_theta.vertices,
            dict(zip(planar_theta.face_labels,
                     [2, 3, 1])))
        # may or may not be isomorphic, but the brute-force oracle decides
        assert (canonical_key(relabelled) == canonical_key(planar_theta)) \
            == brute_force_isomorphic(relabelled, planar_theta)


class TestAutomorphisms:
    def test_theta_order_six(self, theta):
        assert automorphisms(theta).order == 6
        assert len(brute_force_isomorphisms(theta, theta)) == 6

    def test_planar_theta_label_fixing_is_trivial(self, planar_theta):
        assert automorphisms(planar_theta).order == 1

    def test_dumbbell_label_fixing_is_trivial(self, dumbbell):
        assert automorphisms(dumbbell).order == 1

    def test_single_edge_equal_defects_swap(self):
        g = make_graph([([(0,)], 1), ([(1,)], 1)])
        assert automorphisms(g).order == 2
        h = make_graph([([(0,)], 1), ([(1,)], 2)])
        assert automorphisms(h).order == 1

    def test_agrees_with_brute_force(self):
        rng = random.Random(24)
        for _ in range(25):
            g = random_stable_graph(rng, max_edges=4)
            aut = automorphisms(g)
            brute = {tuple(psi) for psi in brute_force_isomorphisms(g, g)}
            assert aut.order == len(brute)
            assert set(aut.elements) == brute

    def test_generators_fix_structure(self, theta, planar_theta):
        for psi in automorphisms(theta).elements:
            assert fixes_structure(theta, psi)
        # negative control: swapping two edges respects the pairing and
        # gives an isomorphic graph, but moves sigma0
        psi = [2, 3, 0, 1, 4, 5]
        assert isomorphic(relabel(planar_theta, psi), planar_theta)
        assert not fixes_structure(planar_theta, psi)

    @pytest.mark.parametrize("g, n", [(0, 3), (1, 1), (1, 2)])
    def test_enumerated_classes_agree_with_brute_force(self, g, n):
        # their groups come from searches reused across the labellings
        for c in trivalent_classes(g, n):
            brute = {tuple(psi) for psi in brute_force_isomorphisms(c.graph, c.graph)}
            assert automorphisms(c.graph).elements == tuple(sorted(brute))


def fixes_structure(g, psi):
    h = relabel(g, psi)
    return h.sigma0 == g.sigma0 and h.face_label_of == g.face_label_of


def brute_trivalent_classes(g, n):
    """Independent tiny enumerator: sweep all vertex permutations made of
    3-cycles, filter, and deduplicate with the brute-force iso oracle."""
    from itertools import permutations as perms

    E = trivalent_edge_count(g, n)
    nh = 2 * E

    def all_3cycle_perms(points):
        if not points:
            yield []
            return
        a = points[0]
        rest = points[1:]
        for i in range(len(rest)):
            for j in range(len(rest)):
                if i == j:
                    continue
                b, c = rest[i], rest[j]
                remaining = [x for x in rest if x not in (b, c)]
                for tail in all_3cycle_perms(remaining):
                    yield [(a, b, c)] + tail

    found = []
    for cycles in all_3cycle_perms(list(range(nh))):
        gph = make_graph([([cyc], 0) for cyc in cycles])
        if validate(gph) is not None:
            continue
        if gph.num_faces != n or genus(gph) != g:
            continue
        reps = [cyc[0] for cyc in gph.sigma2_cycles]
        for lab in perms(range(1, n + 1)):
            cand = StableRibbonGraph(gph.num_half_edges, gph.vertices,
                                     dict(zip(reps, lab)))
            if not any(brute_force_isomorphic(cand, x) for x in found):
                found.append(cand)
    return found


class TestEnumerateTrivalent:
    def test_03_complete(self):
        classes = enumerate_trivalent(0, 3)
        brute = brute_trivalent_classes(0, 3)
        assert len(classes) == len(brute) == 4
        for c in classes:
            assert c.graph.is_trivalent()
            assert genus(c.graph) == 0 and c.graph.num_faces == 3

    def test_11_single_class(self):
        classes = enumerate_trivalent(1, 1)
        brute = brute_trivalent_classes(1, 1)
        assert len(classes) == len(brute) == 1
        assert automorphisms(classes[0].graph).order == 6

    def test_02_rejected(self):
        with pytest.raises(ValueError):
            enumerate_trivalent(0, 2)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="not stable"):
            enumerate_trivalent(-1, 5)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            enumerate_trivalent(0, 6)

    def test_deterministic(self):
        a = [c.key for c in enumerate_trivalent(0, 3)]
        b = [c.key for c in enumerate_trivalent(0, 3)]
        assert a == b

    def test_edge_counts(self):
        for (g, n) in [(0, 3), (1, 1), (0, 4), (1, 2)]:
            for c in enumerate_trivalent(g, n):
                assert c.graph.num_edges == 6 * g - 6 + 3 * n
                assert c.dim == c.graph.num_edges

    def test_euler_relation(self):
        for (g, n) in [(0, 4), (1, 2)]:
            for c in enumerate_trivalent(g, n):
                gr = c.graph
                V = len(gr.vertices)
                assert V - gr.num_edges + gr.num_faces == 2 - 2 * g


#: (g, n) with E <= 9, the number of unlabelled trivalent classes and the
#: number of classes with labelled faces
CLASS_COUNTS = [(0, 3, 2, 4), (1, 1, 1, 1), (0, 4, 6, 64), (1, 2, 5, 9),
                (2, 1, 9, 9), (1, 3, 46, 236), (0, 5, 26, 2240)]


class TestGrowth:
    @pytest.mark.parametrize("g, n, unlabelled, labelled", CLASS_COUNTS)
    def test_class_counts(self, g, n, unlabelled, labelled):
        assert len(enumeration._unlabelled_classes(g, n)) == unlabelled
        assert len(trivalent_classes(g, n)) == labelled

    @pytest.mark.parametrize("g, n", [(0, 3), (1, 1), (0, 4), (1, 2)])
    def test_no_search_after_the_unlabelled_classes(self, monkeypatch, g, n):
        """The labelled keys and the automorphism groups of the classes
        reuse the searches that deduplicated the unlabelled classes."""
        state = {"grown": False, "early": 0, "late": 0}
        search = enumeration._least_traversals
        unlabelled = enumeration._unlabelled_classes

        def counting(*args):
            state["late" if state["grown"] else "early"] += 1
            return search(*args)

        def marking(*args):
            out = unlabelled(*args)
            state["grown"] |= args == (g, n)
            return out

        monkeypatch.setattr(enumeration, "_least_traversals", counting)
        monkeypatch.setattr(enumeration, "_unlabelled_classes", marking)
        for c in enumerate_trivalent(g, n):
            automorphisms(c.graph)
        # the growth searched, so the count can see a late search
        assert state["grown"] and state["early"] > 0
        assert state["late"] == 0

    @pytest.mark.parametrize("g, n, bound", [(1, 2, 28), (0, 4, 22)])
    def test_search_count(self, monkeypatch, g, n, bound):
        """Canonical searches made by the whole enumeration, growth
        included; growing every child of every parent took 109 and 58."""
        calls = []
        search = enumeration._least_traversals

        def counting(graph):
            calls.append(graph)
            return search(graph)

        monkeypatch.setattr(enumeration, "_least_traversals", counting)
        enumerate_trivalent(g, n)
        assert len(calls) <= bound

    @pytest.mark.parametrize("g, n", [(g, n) for g, n, _, _ in CLASS_COUNTS])
    def test_growth_matches_the_unpruned_reference(self, g, n):
        assert [c.sigma0 for c in enumeration._unlabelled_classes(g, n)] \
            == [c.sigma0 for c in reference_classes(g, n)]

    @pytest.mark.parametrize("g, n", [(g, n) for g, n, _, _ in CLASS_COUNTS
                                      if trivalent_edge_count(g, n) > 3])
    def test_skipped_children_were_met_earlier(self, g, n):
        """The pruned children of each parent are a subsequence of all its
        children, and each skipped one is isomorphic to a kept one before
        it."""
        sources = ([(g, n - 1)] if n > 1 else []) + ([(g - 1, n + 1)] if g > 0 else [])
        for source in sources:
            for parent in enumeration._unlabelled_classes(*source):
                kept = iter(enumeration._children(parent))
                nxt = next(kept, None)
                seen = set()
                for s0 in reference_children(parent.sigma0):
                    key = unlabelled_key(s0)
                    if s0 == nxt:
                        seen.add(key)
                        nxt = next(kept, None)
                    else:
                        assert key in seen
                assert nxt is None

    def test_pruning_by_a_non_automorphism_is_caught(self, monkeypatch):
        """Negative control: with the edge reversal ``(0 1)``, which is not
        an automorphism, among each parent's automorphisms the growth keeps
        other representatives at E = 9."""
        group = enumeration._group

        def with_swap(orders):
            return group(orders) + ((1, 0, *range(2, len(orders[0]))),)

        monkeypatch.setattr(enumeration, "_group", with_swap)
        for g, n in [(2, 1), (1, 3), (0, 5)]:
            assert [c.sigma0 for c in enumeration._unlabelled_classes(g, n)] \
                != [c.sigma0 for c in reference_classes(g, n)]

    @pytest.mark.parametrize("g, n", [(2, 1), (1, 3), (0, 5)])
    def test_nine_edge_classes_are_trivalent(self, g, n):
        for c in trivalent_classes(g, n):
            assert c.graph.num_edges == 9
            assert c.graph.is_trivalent()
            assert genus(c.graph) == g and c.graph.num_faces == n


# ---------------------------------------------------------------------------
# the exhaustive canonical search, kept as the reference for the lockstep one


def _discover(s0: tuple[int, ...], order: list[int], seen: set[int]) -> None:
    """Extend ``order`` from its last half-edge to its closure under the
    discovery walk: from each discovered half-edge, first its vertex-cycle
    successor ``s0[h]``, then its edge partner ``h ^ 1``."""
    i = len(order) - 1
    while i < len(order):
        h = order[i]
        for nb in (s0[h], h ^ 1):
            if nb not in seen:
                seen.add(nb)
                order.append(nb)
        i += 1


def _traversals(g: StableRibbonGraph, root: int):
    """Yield ``(discovery order, serialization)`` for every branch-decision
    path from ``root``.

    The traversal discovers half-edges in a deterministic order given the
    root: from each discovered half-edge, first its vertex-cycle successor,
    then its edge partner.  When that closure is exhausted but cycles
    remain at an already-seen vertex (the split structure is disconnected),
    the traversal branches over the possible entry points at the earliest
    discovered such vertex.
    """
    n = g.num_half_edges
    s0 = g.sigma0
    vert = g.vertex_of

    def run(order: list[int], seen: set[int]):
        _discover(s0, order, seen)
        if len(order) == n:
            yield order, enumeration._serialize(g, order)
            return
        # earliest-discovered vertex that still has unvisited cycles
        target = None
        for h in order:
            v = vert[h]
            if any(c[0] not in seen for c in g.vertices[v].cycles):
                target = v
                break
        if target is None:
            raise AssertionError("stable graph traversal stuck (disconnected?)")
        for cyc in g.vertices[target].cycles:
            if cyc[0] in seen:
                continue
            for start in cyc:
                yield from run(order + [start], seen | {start})

    yield from run([root], {root})


def reference_children(s0):
    """Every edge insertion and tadpole on ``s0``, unpruned, in the order
    of the growth."""
    m = len(s0)
    base = list(s0) + [-1] * 6
    for h in range(m):
        one = base.copy()
        enumeration._subdivide(one, h, m, m + 4)
        tadpole = one.copy()
        tadpole[m + 5], tadpole[m + 2], tadpole[m + 3] = m + 2, m + 3, m + 5
        yield tadpole
        for h2 in range(m + 2):
            two = one.copy()
            enumeration._subdivide(two, h2, m + 2, m + 5)
            yield two


def unlabelled_key(s0):
    return canonical_key(ordinary_graph(cycles(s0)), labelled=False)


def reference_classes(g, n):
    """The growth of ``enumeration._unlabelled_classes`` over every child
    of every parent: the first graph met per unlabelled key."""
    if (g, n) in enumeration._SEEDS:
        candidates = enumeration._SEEDS[g, n]
    else:
        sources = ([(g, n - 1)] if n > 1 else []) + ([(g - 1, n + 1)] if g > 0 else [])
        candidates = (s0 for source in sources
                      for parent in reference_classes(*source)
                      for s0 in reference_children(parent.sigma0))
    found = {}
    for s0 in candidates:
        child = ordinary_graph(cycles(s0))
        if child.num_faces == n:
            found.setdefault(canonical_key(child, labelled=False), child)
    return list(found.values())


def reference_least_traversals(g):
    """Every traversal in full, then the minimum and its ties in search
    order."""
    best, orders = None, []
    for root in range(g.num_half_edges):
        for order, ser in _traversals(g, root):
            if best is None or ser < best:
                best, orders = ser, [order]
            elif ser == best:
                orders.append(order)
    return best, orders


def first_least_only(g):
    """Negative control: the lockstep search keeping only its first least
    traversal."""
    best, orders = enumeration._least_traversals(g)
    return best, orders[:1]


def search_outcome(g, search):
    """Both keys, both lists of least orders and the automorphism elements
    of a copy of ``g`` whose unlabelled search is ``search``."""
    copy = StableRibbonGraph(g.num_half_edges, g.vertices, g.face_labels)
    best, orders = search(copy)
    copy.__dict__["_least"] = {False: (best + ((),), orders)}
    return (canonical_key(copy, labelled=False), canonical_key(copy),
            enumeration._least_serialization(copy, False)[1],
            enumeration._least_serialization(copy, True)[1],
            automorphisms(copy).elements)


class TestLockstepSearch:
    """The lockstep search drops only traversals that serialize strictly
    above the least, so it agrees with the exhaustive one in every
    output, ties and their order included."""

    def test_random_stable_graphs(self):
        rng = random.Random(31)
        graphs = [random_stable_graph(rng, max_edges=9) for _ in range(1000)]
        # the forks at multi-cycle vertices are exercised
        assert sum(any(len(v.cycles) > 1 for v in g.vertices)
                   for g in graphs) > 300
        for g in graphs:
            assert search_outcome(g, enumeration._least_traversals) \
                == search_outcome(g, reference_least_traversals)

    @pytest.mark.parametrize("g, n", [(g, n) for g, n, _, _ in CLASS_COUNTS])
    def test_trivalent_classes(self, g, n):
        for c in trivalent_classes(g, n):
            assert search_outcome(c.graph, enumeration._least_traversals) \
                == search_outcome(c.graph, reference_least_traversals)

    def test_first_least_only_is_caught(self, theta):
        assert automorphisms(theta).order > 1
        assert search_outcome(theta, first_least_only) \
            != search_outcome(theta, reference_least_traversals)


def kontsevich_sides(classes, g, n, lam):
    """Both sides of Kontsevich's identity at face variables ``lam``:
    the sum over classes of 2^-V / |Aut| prod_e 2 / (lam_f(e) + lam_f'(e)),
    and the sum over d of <tau_d> prod_i (2 d_i - 1)!! / lam_i^(2 d_i + 1)."""
    E = trivalent_edge_count(g, n)
    lhs = Fraction(0)
    for c in classes:
        face = c.graph.face_label_of
        term = Fraction(1, 2 ** (2 * E // 3) * automorphisms(c.graph).order)
        for e in range(E):
            term *= Fraction(2) / (lam[face[2 * e] - 1] + lam[face[2 * e + 1] - 1])
        lhs += term
    rhs = Fraction(0)
    D = 3 * g - 3 + n
    for d in product(range(D + 1), repeat=n):
        if sum(d) == D:
            rhs += tau(*d) * prod(Fraction(prod(range(2 * di - 1, 0, -2)),
                                            li ** (2 * di + 1))
                                  for di, li in zip(d, lam))
    return lhs, rhs


def seeded_lambdas(seed, n):
    rng = random.Random(seed)
    return [Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(n)]


class TestKontsevichIdentity:
    """The class lists are complete and duplicate-free: the identity weighs
    every class with a positive term, so a missing or repeated class breaks
    it."""

    @pytest.mark.parametrize("g, n", [row[:2] for row in CLASS_COUNTS])
    def test_identity_holds(self, g, n):
        for seed in (1, 2):
            lhs, rhs = kontsevich_sides(trivalent_classes(g, n), g, n,
                                        seeded_lambdas(seed, n))
            assert lhs == rhs

    @pytest.mark.parametrize("g, n", [row[:2] for row in CLASS_COUNTS])
    def test_missing_or_repeated_class_breaks_it(self, g, n):
        classes = trivalent_classes(g, n)
        lam = seeded_lambdas(1, n)
        _, rhs = kontsevich_sides(classes, g, n, lam)
        assert kontsevich_sides(classes[:-1], g, n, lam)[0] != rhs
        assert kontsevich_sides(classes + classes[:1], g, n, lam)[0] != rhs


class TestEnumerateCells:
    def test_03_closure(self):
        summary = enumerate_cells(0, 3)
        dims = sorted({c.dim for c in summary.classes.values()})
        assert dims[-1] == 3
        assert dims[0] < 3
        # every class records dim = edge count
        for c in summary.classes.values():
            assert c.dim == c.graph.num_edges
            assert validate(c.graph) is None
            assert genus(c.graph) == 0 and c.graph.num_faces == 3

    def test_every_non_top_cell_has_a_parent(self):
        summary = enumerate_cells(1, 1)
        children_with_parents = {ck for _, _, ck in summary.boundary}
        for key, c in summary.classes.items():
            if key not in summary.top_keys:
                assert key in children_with_parents

    def test_boundary_graded_by_dimension(self):
        summary = enumerate_cells(0, 3)
        for pk, _, ck in summary.boundary:
            assert summary.classes[pk].dim == summary.classes[ck].dim + 1

    def test_boundary_of_boundary_stays_inside(self):
        summary = enumerate_cells(1, 1)
        keys = set(summary.classes)
        for _, _, ck in summary.boundary:
            assert ck in keys

    @pytest.mark.parametrize("g,n,expected", [
        (0, 3, Fraction(-1)),
        (1, 1, Fraction(1, 12)),
        (0, 4, Fraction(-1)),
        (1, 2, Fraction(1, 12)),
        # Harer-Zagier: -zeta(1 - 2g) = B_2g / 2g, here B_4 / 4
        (2, 1, Fraction(-1, 120)),
    ])
    def test_orbifold_euler_characteristic(self, g, n, expected):
        # compactly supported Euler characteristic of the open cell
        # decomposition: sum of (-1)^dim / |Aut| over the cells with all
        # vertex degrees >= 3 and no defects; the expected values are the
        # classical orbifold Euler characteristics of the corresponding
        # moduli spaces times chi_c of the perimeter orthant
        cells = [c for c in enumerate_cells(g, n).classes.values()
                 if c.graph.is_ordinary()]
        orders = [automorphisms(c.graph).order for c in cells]
        assert sum(Fraction((-1) ** c.dim, k)
                   for c, k in zip(cells, orders)) == expected
        # negative controls, each of which could leave the sum unchanged:
        # losing every class of one dimension (no dimension's signed total
        # is 0 here), and, where some graph has automorphisms (g >= 1),
        # counting each class with weight 1
        for d in {c.dim for c in cells}:
            assert sum(Fraction((-1) ** c.dim, k) for c, k in zip(cells, orders)
                       if c.dim != d) != expected
        if g:
            assert sum((-1) ** c.dim for c in cells) != expected
