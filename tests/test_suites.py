import pytest

from ribboncells import enumeration, intersect, suites
from ribboncells.permgraph import StableRibbonGraph, with_face_labels
from ribboncells.suites import run_suite


def test_contraction_contracts_each_edge_once(monkeypatch):
    """The pairs start from the single contractions of the conservation
    loop instead of contracting the same edge of the same graph again."""
    calls = []  # holds every graph, so no id is reused
    contract = suites.contract_edge

    def counting(g, e):
        calls.append((g, e))
        return contract(g, e)

    monkeypatch.setattr(suites, "contract_edge", counting)
    (report,) = run_suite("contraction", seed=4, cases=30)
    assert report.ok and report.cases == 30
    assert calls
    assert len({(id(g), e) for g, e in calls}) == len(calls)


def _watch_contractions(monkeypatch, change_bulk=None):
    """Record, per draw, the graphs the pair routes of the contraction
    suite build; ``change_bulk`` may replace each ``contract_set`` result."""
    draws, built = [], []
    draw, edge, bulk = (suites.random_stable_graph, suites.contract_edge,
                        suites.contract_set)

    def drawing(rng, **kw):
        draws.append(draw(rng, **kw))
        return draws[-1]

    def edge_route(g, e):
        h = edge(g, e)
        if g is not draws[-1]:  # a second step, not a single contraction
            built.append((len(draws), h))
        return h

    def bulk_route(g, edges):
        h = bulk(g, edges)
        if change_bulk is not None:
            h = change_bulk(h)
        built.append((len(draws), h))
        return h

    monkeypatch.setattr(suites, "random_stable_graph", drawing)
    monkeypatch.setattr(suites, "contract_edge", edge_route)
    monkeypatch.setattr(suites, "contract_set", bulk_route)
    return built


def test_contraction_searches_each_distinct_graph_once(monkeypatch):
    built = _watch_contractions(monkeypatch)
    searched = []
    search = enumeration._least_traversals

    def counting(g):
        searched.append(g)
        return search(g)

    monkeypatch.setattr(enumeration, "_least_traversals", counting)
    (report,) = run_suite("contraction", seed=3)
    assert report.ok and report.cases == 200
    # three graphs per admissible pair; one search per distinct one per draw
    assert len(searched) == len(set(built)) < len(built) // 2


def _bump_defect(g):
    v = g.vertices[0]
    return StableRibbonGraph(g.num_half_edges,
                             (v._replace(defect=v.defect + 1),) + g.vertices[1:],
                             g.face_labels)


def _swap_labels(g):
    if g.num_faces < 2:
        return g
    return with_face_labels(g, {h: {1: 2, 2: 1}.get(lab, lab)
                                for h, lab in g.face_labels.items()})


@pytest.mark.parametrize("change", [_bump_defect, _swap_labels])
def test_contraction_memo_keeps_failures(monkeypatch, change):
    # negative control: a changed bulk route fails commutativity exactly
    # where the changed graph leaves the class of the unchanged one, which
    # a fresh search decides; no graph of another route may answer for it
    moved = []

    def changing(h):
        changed = change(h)
        moved.append(enumeration.canonical_key(changed)
                     != enumeration.canonical_key(h))
        return changed

    _watch_contractions(monkeypatch, changing)
    (report,) = run_suite("contraction", seed=3, cases=60)
    assert {f["law"] for f in report.failures} <= {"commutativity"}
    assert len(report.failures) == sum(moved) > 0
    if change is _bump_defect:
        assert all(moved)


def test_stokes_triangulates_each_polytope_once(monkeypatch):
    calls = []
    chain = suites.polytope_chain

    def counting(name, poly):
        calls.append(name)
        return chain(name, poly)

    monkeypatch.setattr(suites, "polytope_chain", counting)
    (report,) = run_suite("stokes", seed=4, cases=40)
    assert report.ok and report.cases == 40
    assert sorted(calls) == ["cube", "left", "right", "sq", "tri"]


@pytest.mark.parametrize("name", ["alpha", "all"])
@pytest.mark.parametrize("cases", [0, -1])
def test_cases_below_one_rejected(name, cases):
    with pytest.raises(ValueError, match="cases"):
        run_suite(name, seed=0, cases=cases)


@pytest.mark.parametrize("seed", range(10))
def test_omega_counts_non_empty_cells(seed):
    # empty draws do not use up the count, so one case is one checked cell
    (report,) = run_suite("omega", seed=seed, cases=1)
    assert report.ok and report.cases == 1


def test_p_independence_catches_dependence(monkeypatch):
    # negative control: a value that moves with the perimeters fails each
    # of the three queries, and every evaluation still counts as a case
    real = intersect.intersection_number

    def skewed(genus, exponents, perimeters=None):
        r = real(genus, exponents, perimeters)
        return r._replace(value=r.value + sum(r.query.perimeters))

    monkeypatch.setattr(intersect, "intersection_number", skewed)
    (report,) = run_suite("p-independence", seed=0)
    assert report.cases == 9 and len(report.failures) == 3
    assert all("depends on perimeters" in f["error"] for f in report.failures)
