import random

import pytest

from conftest import connected_subset, make_graph, seeded_draws
from oracles import brute_force_isomorphic

from ribboncells.enumeration import canonical_key, isomorphic
from ribboncells.permgraph import faces, genus, validate
from ribboncells.sampling import random_stable_graph
from ribboncells.stable import (ContractionError, _component_genus,
                                _forbidden_faces, contract_edge, contract_set,
                                contractible_edges, induced_component_graph)


class TestContractEdge:
    def test_theta_contract(self, theta):
        h = contract_edge(theta, 0)
        assert len(h.vertices) == 1
        assert h.vertices[0].defect == 0
        # the two 3-cycles splice into a single degree-4 cycle
        assert [len(c) for c in h.vertices[0].cycles] == [4]
        assert h.num_faces == 1
        assert genus(h) == 1
        # frozen from a hand computation of sigma1'.sigma2'^{-1}
        assert h.vertices[0].cycles == ((0, 2, 1, 3),)

    def test_loop_on_two_branches_gains_defect(self):
        # vertex (0 2)(1 3): edge 0 is a loop whose halves lie in the two
        # different cycles; contracting it must raise the defect by one
        g = make_graph([([(0, 2), (1, 3)], 0)])
        assert g.num_faces == 2
        h = contract_edge(g, 0)
        assert len(h.vertices) == 1
        assert h.vertices[0].defect == 1
        assert h.num_faces == 2
        assert genus(h) == genus(g) == 1

    def test_loop_same_cycle_keeps_defect(self):
        # degree-4 vertex (0 2 1 3) with loop 0 interleaved: contraction
        # splits the cycle, defect unchanged
        g = make_graph([([(0, 2, 1, 3)], 0), ([(4,)], 1), ([(5,)], 1)],
                       face_labels=None)
        # edges: 0 = loop {0,1}; 1 = {2,3} to... build instead a clean case
        g = make_graph([([(0, 2, 1, 4)], 0), ([(3,)], 1), ([(5,)], 1)])
        assert validate(g) is None
        e = 0
        assert e in contractible_edges(g)
        h = contract_edge(g, e)
        merged = h.vertices[0] if h.vertices[0].degree == 2 else h.vertices[1]
        assert merged.defect == 0
        assert genus(h) == genus(g)

    def test_face_alone_edge_rejected(self, single_edge_defects):
        with pytest.raises(ContractionError):
            contract_edge(single_edge_defects, 0)

    def test_out_of_range(self, theta):
        with pytest.raises(ContractionError):
            contract_edge(theta, 3)

    def test_nonloop_defects_add(self):
        g = make_graph([([(0,)], 1), ([(1, 2)], 1), ([(3,)], 2)])
        h = contract_edge(g, 0)
        assert sorted(v.defect for v in h.vertices) == [2, 2]
        assert genus(h) == genus(g)

    def test_face_words_are_subwords(self, planar_theta):
        for e in contractible_edges(planar_theta):
            h = contract_edge(planar_theta, e)
            old = {w.label: [x for x in w.half_edges if x >> 1 != e]
                   for w in faces(planar_theta)}
            # surviving half-edges, relabelled by the compacting map
            remap = {}
            kept = [k for k in range(planar_theta.num_edges) if k != e]
            for new_e, old_e in enumerate(kept):
                remap[2 * old_e] = 2 * new_e
                remap[2 * old_e + 1] = 2 * new_e + 1
            new = {w.label: list(w.half_edges) for w in faces(h)}
            for lab, word in old.items():
                expect = [remap[x] for x in word]
                got = new[lab]
                # equal as cyclic words
                assert len(expect) == len(got)
                i = got.index(expect[0])
                assert got[i:] + got[:i] == expect


def admissible_pairs(g):
    ok = []
    for e in contractible_edges(g):
        for f in contractible_edges(g):
            if e < f:
                try:
                    contract_set(g, {e, f})
                except ContractionError:
                    continue
                ok.append((e, f))
    return ok


def test_contractible_edges_match_per_edge_rule():
    # the one-pass rule against the per-edge rule it replaced: an edge is
    # contractible unless contracting it alone empties some face
    for g in seeded_draws():
        assert contractible_edges(g) == [
            e for e in range(g.num_edges) if not _forbidden_faces(g, {e})]


class TestCommutativity:
    def test_on_fixtures(self, theta, planar_theta, dumbbell):
        for g in (theta, planar_theta, dumbbell):
            for e, f in admissible_pairs(g):
                a = contract_edge(contract_edge(g, e), f - (1 if f > e else 0))
                b = contract_edge(contract_edge(g, f), e - (1 if e > f else 0))
                assert isomorphic(a, b)
                assert isomorphic(a, contract_set(g, {e, f}))

    def test_random_graphs(self):
        rng = random.Random(12)
        for _ in range(60):
            g = random_stable_graph(rng, max_edges=6)
            for e, f in admissible_pairs(g):
                a = contract_edge(contract_edge(g, e), f - (1 if f > e else 0))
                b = contract_edge(contract_edge(g, f), e - (1 if e > f else 0))
                assert canonical_key(a) == canonical_key(b)
                assert canonical_key(a) == canonical_key(contract_set(g, {e, f}))


class TestConservation:
    def test_single_contractions(self):
        rng = random.Random(13)
        for _ in range(80):
            g = random_stable_graph(rng, max_edges=7)
            for e in contractible_edges(g):
                h = contract_edge(g, e)
                assert validate(h) is None, validate(h)
                assert genus(h) == genus(g)
                assert h.num_edges == g.num_edges - 1
                assert sorted(w.label for w in faces(h)) == sorted(
                    w.label for w in faces(g))


class TestContractSet:
    def test_empty_is_identity(self, theta):
        assert contract_set(theta, set()) is theta

    def test_theta_pair(self, theta):
        h = contract_set(theta, {0, 1})
        assert len(h.vertices) == 1
        assert h.num_edges == 1
        assert h.vertices[0].defect == 0
        assert genus(h) == 1
        for order in ((0, 1), (1, 0)):
            step = contract_edge(theta, order[0])
            step = contract_edge(step, 0)  # remaining low edge index shifts
            assert isomorphic(step, h)

    def test_two_components_independent_defects(self):
        # two loops far apart, each on two branches of its vertex: each
        # component contributes defect 1 when contracted
        g = make_graph([([(0, 4), (1, 6)], 0), ([(2, 5), (3, 7)], 0)])
        assert validate(g) is None
        h = contract_set(g, {0, 1})
        assert sorted(v.defect for v in h.vertices) == [1, 1]
        assert genus(h) == genus(g)

    def test_forbidden_subset(self, theta):
        with pytest.raises(ContractionError):
            contract_set(theta, {0, 1, 2})

    def test_matches_sequential_folding(self):
        rng = random.Random(14)
        checked = 0
        for _ in range(200):
            g = random_stable_graph(rng, max_edges=6)
            edges = [e for e in range(g.num_edges) if rng.random() < 0.4]
            try:
                bulk = contract_set(g, set(edges))
            except ContractionError:
                continue
            seq = g
            remaining = sorted(edges)
            while remaining:
                e = remaining.pop(rng.randrange(len(remaining)))
                # edges smaller than e already contracted shift e down
                done = [x for x in edges if x not in remaining and x != e]
                shift = sum(1 for x in done if x < e)
                seq = contract_edge(seq, e - shift)
            if edges:
                assert canonical_key(seq) == canonical_key(bulk)
                checked += 1
        assert checked > 30


class TestInduced:
    def test_full_edge_set_is_identity(self, theta, dumbbell):
        for g in (theta, dumbbell):
            sub = induced_component_graph(g, set(range(g.num_edges)))
            assert sub == g

    def test_single_nonloop_edge_of_theta(self, theta):
        sub = induced_component_graph(theta, {0})
        assert sub.num_edges == 1
        assert [v.degree for v in sub.vertices] == [1, 1]
        assert sub.num_faces == 1
        assert genus(sub) == 0

    def test_loop_single_cycle(self):
        g = make_graph([([(0, 2, 1, 4)], 0), ([(3,)], 1), ([(5,)], 1)])
        sub = induced_component_graph(g, {0})
        assert sub.num_edges == 1
        assert len(sub.vertices) == 1
        assert genus(sub) == 0

    def test_disconnected_rejected(self, planar_theta):
        g = make_graph([([(0, 4), (1, 6)], 0), ([(2, 5), (3, 7)], 0)])
        with pytest.raises(ContractionError):
            induced_component_graph(g, {0, 1})

    def test_defect_equals_component_genus(self):
        rng = random.Random(15)
        for _ in range(120):
            g = random_stable_graph(rng, max_edges=6)
            edges = {e for e in range(g.num_edges) if rng.random() < 0.5}
            if not edges:
                continue
            try:
                h = contract_set(g, edges)
            except ContractionError:
                continue
            assert genus(h) == genus(g)
            assert validate(h) is None

    def test_counted_genus_matches_induced_structure(self):
        # contract_set counts the genus of each component; the reference
        # builds the labelled first-return structure and validates it
        rng = random.Random(17)
        defects = 0
        for g in seeded_draws()[:400]:
            comp = connected_subset(rng, g)
            touched = {g.vertex_of[h] for e in comp for h in (2 * e, 2 * e + 1)}
            expected = genus(induced_component_graph(g, comp))
            assert _component_genus(g, comp, touched) == expected
            defects += expected > sum(g.vertices[v].defect for v in touched)
        assert defects >= 50


class TestAgainstBruteForce:
    def test_commutativity_iso_agrees_with_brute_force(self):
        rng = random.Random(16)
        for _ in range(25):
            g = random_stable_graph(rng, max_edges=4)
            for e, f in admissible_pairs(g):
                a = contract_edge(contract_edge(g, e), f - (1 if f > e else 0))
                b = contract_edge(contract_edge(g, f), e - (1 if e > f else 0))
                assert brute_force_isomorphic(a, b)
