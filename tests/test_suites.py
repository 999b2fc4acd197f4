import pytest

from ribboncells import intersect, suites
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
