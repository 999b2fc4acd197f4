import random
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest

from conftest import make_graph, seeded_draws
from oracles import compose, cycles_of, invert

from ribboncells import permgraph, sampling
from ribboncells.enumeration import enumerate_cells
from ribboncells.permgraph import (InvalidGraphError, StableRibbonGraph,
                                   Vertex, faces, from_json_dict, genus, loads,
                                   ordinary_graph, perimeters, relabel,
                                   to_json_dict, union_find, validate,
                                   with_face_labels)
from ribboncells.sampling import random_edge_relabelling, random_stable_graph


def sigma2_by_hand(g):
    """Independent composition sigma0^{-1} . sigma1 on arrays."""
    n = g.num_half_edges
    s0 = [0] * n
    for v in g.vertices:
        for cyc in v.cycles:
            for i, h in enumerate(cyc):
                s0[h] = cyc[(i + 1) % len(cyc)]
    s1 = [h ^ 1 for h in range(n)]
    return compose(invert(s0), s1)


class TestValidate:
    def test_theta_ok(self, theta):
        assert validate(theta) is None
        # hand-composed face permutation: one 6-cycle
        assert cycles_of(sigma2_by_hand(theta)) == [(0, 5, 2, 1, 4, 3)]

    def test_degree_one_defect_zero_rejected(self):
        g = make_graph([([(0,)], 0), ([(1, 2, 3)], 0)])
        v = validate(g)
        assert v is not None and v.kind == "stability"

    def test_degree_two_transposition_defect_zero_rejected(self):
        g = make_graph([([(0, 2)], 0), ([(1,)], 1), ([(3,)], 1)])
        v = validate(g)
        assert v is not None and v.kind == "stability"

    def test_degree_two_two_fixed_points_allowed(self):
        # a loop at a vertex carrying two one-element cycles is stable
        g = make_graph([([(0,), (1,)], 0)])
        assert validate(g) is None

    def test_no_faces_rejected(self):
        g = StableRibbonGraph(0, (Vertex(cycles=(), defect=2),), {})
        assert validate(g) is not None

    def test_disconnected_rejected(self):
        g = make_graph([([(0,), (1,)], 0), ([(2,), (3,)], 0)])
        v = validate(g)
        assert v is not None and v.kind == "connectivity"

    def test_overlapping_blocks_rejected(self):
        vertices = (Vertex(cycles=((0, 1),), defect=1),
                    Vertex(cycles=((0,), (1,)), defect=0))
        g = StableRibbonGraph(2, vertices, {0: 1})
        v = validate(g)
        assert v is not None and v.kind == "partition"

    def test_bad_labels_rejected(self, theta):
        g = StableRibbonGraph(theta.num_half_edges, theta.vertices, {0: 2})
        v = validate(g)
        assert v is not None and v.kind == "face-labels"


CHECKS = ("_partition_violation", "_connectivity_violation",
          "_stability_violation")


@pytest.fixture
def check_calls(monkeypatch):
    """The name of every validation check run, in order: the three
    label-free ones by function, and the label scan that builds
    ``face_label_of`` as ``labels``."""
    calls = []

    def counting(name, real):
        def check(g):
            calls.append(name)
            return real(g)
        return check

    for name in CHECKS:
        monkeypatch.setattr(permgraph, name,
                            counting(name, getattr(permgraph, name)))
    scan = StableRibbonGraph.face_label_of
    monkeypatch.setattr(scan, "func", counting("labels", scan.func))
    return calls


class TestWithFaceLabels:
    """Labels put on a built structure: the copy keeps the structure's
    derived data and checks only the label map."""

    @pytest.mark.parametrize("labels", [{0: 2}, {}, {0: 1, 3: 1}, {0: 1, 9: 2}])
    def test_bad_label_map_still_raises(self, theta, labels):
        theta.require_valid()
        g = with_face_labels(theta, labels)
        assert validate(g).kind == "face-labels"
        with pytest.raises(InvalidGraphError, match="face-labels"):
            g.require_valid()

    def test_copy_checks_only_the_labels(self, theta, monkeypatch):
        theta.require_valid()
        g = with_face_labels(theta, {3: 1})
        assert g.sigma2_cycles is theta.sigma2_cycles

        def forbidden(graph):
            raise AssertionError("structure checked again")

        monkeypatch.setattr(permgraph, "_partition_violation", forbidden)
        monkeypatch.setattr(permgraph, "_connectivity_violation", forbidden)
        assert g.require_valid() is g and g.face_label_of[0] == 1

    def test_copy_does_not_rerun_label_free_checks(self, theta, check_calls):
        theta.require_valid(require_stability=False)
        assert check_calls == ["_partition_violation",
                               "_connectivity_violation", "labels"]
        a, b = (with_face_labels(theta, {h: 1}) for h in (3, 4))
        check_calls.clear()
        a.require_valid()
        a.require_valid(require_stability=False)
        # the stability verdict a computed is its structure's, so neither
        # its sibling nor theta computes it again
        b.require_valid()
        theta.require_valid()
        assert check_calls == ["labels", "_stability_violation", "labels"]

    def test_labels_are_reported_before_connectivity(self):
        # two disjoint thetas with one label map broken: the label
        # violation comes first, as it did before labels were split off
        g = ordinary_graph([(0, 2, 4), (1, 3, 5), (6, 8, 10), (7, 9, 11)])
        assert validate(g).kind == "connectivity"
        assert validate(with_face_labels(g, {0: 1})).kind == "face-labels"

    def test_draws_compute_face_cycles_once(self, monkeypatch):
        # each attempt of a draw builds one structure, reads its face
        # cycles for the labels and validates the labelled copy, once
        computed, attempts = [], []
        real = StableRibbonGraph.__dict__["sigma2_cycles"].func

        def counting(self):
            computed.append(self)
            return real(self)

        def validating(g):
            attempts.append(g)
            return validate(g)

        prop = cached_property(counting)
        prop.__set_name__(StableRibbonGraph, "sigma2_cycles")
        monkeypatch.setattr(StableRibbonGraph, "sigma2_cycles", prop)
        monkeypatch.setattr(sampling, "validate", validating)
        rng = random.Random(25)
        draws = [random_stable_graph(rng, max_edges=9) for _ in range(2000)]
        assert all(g.sigma2_cycles for g in draws)
        assert len(computed) == len(attempts) >= len(draws)
        computed.clear()
        ordinary_graph([(0, 2, 4), (1, 3, 5)]).require_valid()
        assert len(computed) == 1


class TestImmutable:
    def test_graph_attributes_cannot_be_set(self, theta):
        # the derived structure and the validation outcome are cached per
        # instance, so nothing may change the data they were read from
        theta.require_valid()
        for name, value in [("num_half_edges", 8), ("vertices", ()),
                            ("face_labels", {}), ("sigma0", ()), ("new", 1)]:
            with pytest.raises(AttributeError):
                setattr(theta, name, value)
            with pytest.raises(AttributeError):
                delattr(theta, name)
        assert theta.num_half_edges == 6 and validate(theta) is None
        with pytest.raises(AttributeError):
            theta.vertices[0].defect = 1
        with pytest.raises(AttributeError):
            faces(theta)[0].label = 2


class TestFaces:
    def test_theta_single_face(self, theta):
        ws = faces(theta)
        assert len(ws) == 1
        assert ws[0].half_edges == (0, 5, 2, 1, 4, 3)
        assert ws[0].edges == (0, 2, 1, 0, 2, 1)

    def test_identity_vertex_perm_gives_sigma1_faces(self, single_edge_defects):
        ws = faces(single_edge_defects)
        assert len(ws) == 1
        assert ws[0].half_edges == (0, 1)

    def test_planar_theta_three_faces(self, planar_theta):
        ws = faces(planar_theta)
        assert len(ws) == 3
        # independent brute-force composition
        assert sorted(len(c) for c in cycles_of(sigma2_by_hand(planar_theta))) == [2, 2, 2]

    def test_every_half_edge_once(self, theta, planar_theta, dumbbell):
        for g in (theta, planar_theta, dumbbell):
            seen = [h for w in faces(g) for h in w.half_edges]
            assert sorted(seen) == list(range(g.num_half_edges))


class TestGenus:
    def test_theta(self, theta):
        assert genus(theta) == 1

    def test_planar_theta(self, planar_theta):
        assert genus(planar_theta) == 0

    def test_single_edge_two_defects(self, single_edge_defects):
        assert genus(single_edge_defects) == 2

    def test_loop_on_two_branches(self):
        # two one-element cycles at one vertex joined by a loop: a node of
        # the embedding surface, arithmetic genus 1
        g = make_graph([([(0,), (1,)], 0)])
        assert genus(g) == 1

    def test_relabel_invariance(self, theta, dumbbell):
        rng = random.Random(7)
        for g in (theta, dumbbell):
            for _ in range(20):
                psi = random_edge_relabelling(rng, g.num_edges)
                assert genus(relabel(g, psi)) == genus(g)

    def test_random_graphs_relabel_invariance(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_stable_graph(rng, max_edges=6)
            psi = random_edge_relabelling(rng, g.num_edges)
            assert genus(relabel(g, psi)) == genus(g)


def reference_genus(g):
    """The split-component genus that the Euler-count ``genus`` replaced,
    kept verbatim as a second route: a union-find over the vertex cycles
    finds the closed surfaces, whose genera are summed with the nodes."""
    g.require_valid(require_stability=False)

    # split components: union-find over vertex-permutation cycles via edges
    vertex_cycles = [cyc for v in g.vertices for cyc in v.cycles]
    cycle_of = [-1] * g.num_half_edges
    for ci, cyc in enumerate(vertex_cycles):
        for h in cyc:
            cycle_of[h] = ci
    root = union_find(len(vertex_cycles), zip(cycle_of[0::2], cycle_of[1::2]))
    chi = Counter(root)  # Euler characteristic of each split component
    for e in range(g.num_edges):
        chi[root[cycle_of[2 * e]]] -= 1
    for cyc in g.sigma2_cycles:
        chi[root[cycle_of[cyc[0]]]] += 1

    genus_sum = 0
    for c in chi.values():
        if c % 2 != 0:
            raise AssertionError("odd Euler characteristic in split component")
        genus_sum += (2 - c) // 2

    num_components = len(chi)
    delta = sum(len(v.cycles) - 1 for v in g.vertices)
    arithmetic = genus_sum + delta - num_components + 1
    if arithmetic < 0:
        raise AssertionError("negative arithmetic genus")
    return arithmetic + sum(v.defect for v in g.vertices)


def closure_graphs():
    return [c.graph for gn in ((0, 4), (1, 2), (2, 1))
            for c in enumerate_cells(*gn).classes.values()]


class TestGenusAgainstReference:
    def test_seeded_draws(self):
        for g in seeded_draws():
            assert genus(g) == reference_genus(g)

    def test_closure_classes(self):
        graphs = closure_graphs()
        assert len(graphs) == 354 + 62 + 252
        for g in graphs:
            assert genus(g) == reference_genus(g)

    def test_comparison_catches_a_mutant(self):
        # counting vertices where the formula counts vertex cycles must
        # show up on some draw, or the comparison above proves nothing
        def mutant(g):
            twice = len(g.vertices) + g.num_edges - g.num_faces
            return 1 - len(g.vertices) + Fraction(twice, 2) + sum(g.defects)

        assert any(mutant(g) != reference_genus(g) for g in seeded_draws())


class TestPerimeters:
    def test_theta_counts_each_edge_twice(self, theta):
        assert perimeters(theta, [1, 2, 3]) == (Fraction(12),)

    def test_planar_theta(self, planar_theta):
        p = perimeters(planar_theta, [1, 2, 3])
        assert sorted(p) == [3, 4, 5]

    def test_positivity_required(self, theta):
        with pytest.raises(ValueError):
            perimeters(theta, [0, 0, 0])
        with pytest.raises(ValueError):
            perimeters(theta, [1, -1, 2])

    def test_sum_rule(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_stable_graph(rng, max_edges=7)
            ls = [Fraction(rng.randint(1, 20), rng.randint(1, 9)) for _ in range(g.num_edges)]
            assert sum(perimeters(g, ls)) == 2 * sum(ls)


class TestPermutationIdentity:
    def test_sigma0_sigma2_equals_sigma1(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_stable_graph(rng, max_edges=7)
            s0, s2 = g.sigma0, g.sigma2
            for h in range(g.num_half_edges):
                assert s0[s2[h]] == h ^ 1


class TestJson:
    def test_round_trip(self, theta, dumbbell, single_edge_defects):
        for g in (theta, dumbbell, single_edge_defects):
            assert from_json_dict(to_json_dict(g)) == g

    def test_malformed_json_reports_position(self):
        with pytest.raises(ValueError, match="offset"):
            loads('{"half_edges": 6,,}')

    def test_ordinary_graph_constructor(self):
        g = ordinary_graph([(0, 2, 4), (1, 3, 5)])
        assert validate(g) is None
        assert g.is_trivalent()


class TestOpsRequireValidity:
    def test_faces_raises_on_invalid(self):
        g = make_graph([([(0,), (1,)], 0), ([(2,), (3,)], 0)])
        with pytest.raises(InvalidGraphError):
            faces(g)

    @pytest.mark.parametrize("labels, detail", [
        ({0: 2}, r"labels \[2\] are not a bijection onto 1..1"),
        ({}, "carries 0 representatives"),
        ({0: 1, 3: 1}, "carries 2 representatives"),
        ({0: 1, 9: 2}, "spurious face label keys"),
    ])
    def test_face_label_of_raises_for_each_label_violation(self, theta, labels,
                                                           detail):
        g = StableRibbonGraph(theta.num_half_edges, theta.vertices, labels)
        with pytest.raises(InvalidGraphError, match=detail) as exc:
            g.face_label_of
        assert exc.value.args[0] == validate(g)
        assert validate(g).kind == "face-labels"

    def test_face_label_of_raises_without_faces(self):
        # validate reports the half-edge count first; the scan still
        # refuses a graph with no face to label
        g = StableRibbonGraph(0, (), {})
        assert validate(g).kind == "half-edges"
        with pytest.raises(InvalidGraphError, match="faces: graph has no faces"):
            g.face_label_of

    @pytest.fixture
    def validate_calls(self, monkeypatch):
        """The ``require_stability`` flag of every ``validate`` call."""
        calls = []
        real = permgraph.validate

        def counting(g, require_stability=True):
            calls.append(require_stability)
            return real(g, require_stability)

        monkeypatch.setattr(permgraph, "validate", counting)
        return calls

    def test_validation_runs_once_per_instance_and_flag(self, check_calls):
        # each check runs once; repeated calls only read the verdicts
        g = make_graph([([(0, 2, 4)], 0), ([(1, 5, 3)], 0)])
        for _ in range(3):
            g.require_valid()
            g.require_valid(require_stability=False)
            genus(g)
        assert check_calls == ["_partition_violation",
                               "_connectivity_violation", "labels",
                               "_stability_violation"]

    @pytest.mark.parametrize("first", range(5))
    def test_each_check_runs_at_most_once_per_graph(self, check_calls, first):
        ops = [lambda g: g.require_valid(), lambda g: g.face_label_of,
               lambda g: g.require_valid(require_stability=False),
               faces, genus]
        g = make_graph([([(0, 2, 4)], 0), ([(1, 5, 3)], 0)])
        for op in (ops[first:] + ops[:first]) * 2:
            op(g)
        assert sorted(check_calls) == sorted(CHECKS + ("labels",))

    def test_stability_is_checked_only_when_asked_for(self, check_calls):
        g = make_graph([([(0, 2, 4)], 0), ([(1, 5, 3)], 0)])
        faces(g)
        genus(g)
        g.require_valid(require_stability=False)
        assert "_stability_violation" not in check_calls

    def test_invalid_graph_raises_every_time(self, validate_calls):
        g = make_graph([([(0,), (1,)], 0), ([(2,), (3,)], 0)])
        for _ in range(2):
            with pytest.raises(InvalidGraphError):
                g.require_valid(require_stability=False)
        assert validate_calls == [False, False]
