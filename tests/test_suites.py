import pytest

from ribboncells import suites
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
