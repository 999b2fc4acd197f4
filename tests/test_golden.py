"""Pinned digests of values that other artefacts are keyed by.

Class files, ledgers and boundary lists name graphs by their canonical
keys, and the property suites replay seeded draws.  A change to either
must be deliberate, so the bytes are pinned here: the keys and
representative graphs of the trivalent classes, the sorted canonical
keys and boundary triples of two cell closures, the JSON of the first
draws of the stable-graph sampler for one seed, the JSON of the
contractions of seeded draws, the report of a whole ``check --suite all``
pass for three seeds and the values its suites compare, and the
``model0 --points`` output of five configurations.  The per-cell ledgers of
the E <= 6 correlators and the automorphism groups of the closure classes
are pinned too, so a rewrite of the form algebra or of the automorphism
search must reproduce them exactly; so are the ledgers at perimeters on
walls, where the cell that counts a point is picked by the perturbation
``p + (eps, eps^2, ...)``.

Those digests name the representative graph of each class, so they depend
on which graph a generator meets first.  The ``*_invariants`` tests pin
what no choice of representative can change: the sorted class keys, the
key, ``|Aut|``, emptiness and contribution of every ledger row, and per
closure the number of edges that contract each parent onto each child
together with every class's ``|Aut|``.
"""

import hashlib
import json
import random
from collections import Counter
from functools import cache

import pytest

from conftest import connected_subset, trivalent_classes
from ribboncells.cli import main
from ribboncells.enumeration import automorphisms, enumerate_cells, enumerate_trivalent
from ribboncells.intersect import intersection_number
from ribboncells.permgraph import dumps, to_json_dict
from ribboncells.sampling import random_stable_graph
from ribboncells.stable import (ContractionError, contract_edge, contract_set,
                                contractible_edges, induced_component_graph)


@pytest.mark.parametrize("g, n, digest", [
    (0, 3, "a46f397a2204f8c377a7b2bbc0fc8e63adebbb62153d7f7605db906afce78144"),
    (1, 1, "af7e939d4a29e0a93909edfdfafc2b0b9c6abb83830df5b86d32df6fa697718a"),
    (0, 4, "61b84b524ff4f4ab65e81ec250a7bcdc82f279a459a258ed18d14b649a3516e0"),
    (1, 2, "f3480d24a71619daa8bad96580a489d15c8640e5cdbfb61e58f3152f55afc986"),
])
def test_trivalent_keys_and_representatives(g, n, digest):
    # boundary edge indices are indices into these representatives
    text = json.dumps([[c.key.hex(), to_json_dict(c.graph)]
                       for c in enumerate_trivalent(g, n)], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("g, n, digest", [
    (0, 3, "2cd150c1827fca8c02c24ae2551c5b30e24bdbae56deacb55d90a50f821b9113"),
    (1, 1, "787e31d9e0e5789056ea9c7375f7ca74ad4d11a863d1b499446d6e6742a3e556"),
    (0, 4, "bcf258eef6d8f0d8ce629355f47708d6cc2b9ef5254b1099e3023ad2abe7257f"),
    (1, 2, "d393d7b9984817b2a92787110f58089f829db48dddb2f15536856eb7f950a180"),
    (2, 1, "d4f8bbae669a082a91b2c686e58c6e782327d5cc279752907d8de7e2a7f3cdeb"),
    (1, 3, "6bc6b36eebffcbef67bb93332af3ccd64141bef85d5cef8b007e54353a505a0f"),
    (0, 5, "9bf41a7cc8df0d6e522752fc934caa4da98acc22ddb630c4a448a4bd333b891c"),
])
def test_trivalent_key_invariants(g, n, digest):
    text = "\n".join(sorted(c.key.hex() for c in trivalent_classes(g, n)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _closure_digest(g, n):
    summary = enumerate_cells(g, n)
    h = hashlib.sha256()
    for key in sorted(summary.classes):
        h.update(key + b"\n")
    for parent, edge, child in summary.boundary:
        h.update(parent + b" %d " % edge + child + b"\n")
    return h.hexdigest(), len(summary.classes), len(summary.boundary)


@pytest.mark.parametrize("g, n, digest, classes, boundary", [
    (0, 4, "4aa78ce846470b43f382f16c4adcb31a9c6583f41c6d85c59001b63e9de42fcd", 354, 1020),
    (1, 2, "e6a2b23a20fc738bf69520b779a62daea8e62f28623bd1c72d3540a825ad5cfa", 62, 225),
])
def test_closure_keys_and_boundary(g, n, digest, classes, boundary):
    assert _closure_digest(g, n) == (digest, classes, boundary)


@pytest.mark.parametrize("g, n, digest", [
    (0, 4, "1e93aa741e6b974c422a8953cc1756fd3dc98e789509c6525802d6904c26dda0"),
    (1, 2, "6b653eb26418f9bc1c4e250d9e8410e90ac0c807df2e7867364c60d252ea606e"),
])
def test_closure_invariants(g, n, digest):
    summary = enumerate_cells(g, n)
    h = hashlib.sha256()
    for key in sorted(summary.classes):
        h.update(key + b" %d\n" % automorphisms(summary.classes[key].graph).order)
    edges = Counter((parent, child) for parent, _, child in summary.boundary)
    for (parent, child), count in sorted(edges.items()):
        h.update(parent + b" " + child + b" %d\n" % count)
    assert h.hexdigest() == digest


def test_seeded_draws():
    rng = random.Random(2024)
    draws = [to_json_dict(random_stable_graph(rng)) for _ in range(50)]
    text = json.dumps(draws, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "1366bf032f52dd6e5cb2ccf0718e85d293c3af099980094d16470c9f4aa1fec0"


def test_contraction_outputs():
    # the raw vertex order, cycles and face labels of every contraction
    # result, which the enumerate and cells files write
    rng = random.Random(25)
    h = hashlib.sha256()
    for _ in range(300):
        g = random_stable_graph(rng, max_edges=8)
        for e in contractible_edges(g):
            h.update(dumps(contract_edge(g, e)).encode() + b"\n")
        subset = {e for e in range(g.num_edges) if rng.random() < 0.5}
        try:
            h.update(dumps(contract_set(g, subset)).encode() + b"\n")
        except ContractionError:
            h.update(b"rejected\n")
        comp = connected_subset(rng, g)
        h.update(dumps(induced_component_graph(g, comp)).encode() + b"\n")
    assert h.hexdigest() == \
        "fb90c96d874b2e1bec7c92e5456caea087ccb3ef54c145620d998fca35feae76"


@pytest.mark.parametrize("seed", [0, 1, 60221])
def test_check_all_reports(seed, tmp_path):
    # the suite names, case counts and failure lists of a whole pass; every
    # suite passes with its default count, so the three seeds agree
    report = tmp_path / "report.json"
    assert main(["check", "--suite", "all", "--seed", str(seed),
                 "--report", str(report)]) == 0
    rows = json.loads(report.read_text())
    for row in rows:
        del row["wall_time"]
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "82e6dbb44b5b4cfbb0494023dd7522dfac4bfa2c31f0e880d7c642eba68a73cf"


#: What each suite compares, as the suites' imported names return it.
SUITE_VALUES = {
    "canonical_key": bytes.hex,
    "stokes_check": lambda out: [str(out[0]), str(out[1])],
    "fiber_integral_alpha": str,
    "omega": lambda m: [[str(x) for x in row] for row in m],
    "check_p_independence": lambda results: [str(r.value) for r in results],
    "full_map": lambda pts: [[str(c) for c in p.coords] for p in pts],
}


@pytest.mark.parametrize("seed, digest", [
    (0, "b311b9564b692f92a0cc1ff111c5c732c1bbb0348660a4da3425633451d4c2e1"),
    (1, "c9ece61d10fee35143a675b36fd28332783051a97a808b676ce9afb60176fbfd"),
    (60221,
     "6d0a96d5e897fac5effc41d1f371350719de6295b686af2ea634d26e93ade2d7"),
])
def test_check_all_values(seed, digest, monkeypatch):
    # the report holds no computed value, so the values every suite
    # compares are digested in call order: the canonical keys of the three
    # contraction routes, Stokes lhs and rhs, fiber integrals, omega
    # matrices, p-independence values and full_map coordinates
    import ribboncells.suites as suites

    h, seen = hashlib.sha256(), set()

    def recording(name, real, show):
        def wrapper(*args, **kw):
            out = real(*args, **kw)
            h.update(json.dumps([name, show(out)]).encode() + b"\n")
            seen.add(name)
            return out
        return wrapper

    for name, show in SUITE_VALUES.items():
        monkeypatch.setattr(suites, name,
                            recording(name, getattr(suites, name), show))
    assert all(r.ok for r in suites.run_suite("all", seed))
    assert seen == set(SUITE_VALUES)
    assert h.hexdigest() == digest


@pytest.mark.parametrize("points, digest", [
    ("0,1,3,7", "3d36b2ca963058dd3da7d6bda89f2bbf51bd0a602bc40e2387f4e6ae98e66442"),
    ("inf,0,1,2+i", "a2dc7fa521a0a15e53dcd755535e6085f91f62d19ce2c0bd1050aa8c5dc24bf1"),
    ("1/2-3i,-2,5i,7/3+1/4i,-1-i",
     "235b94a0a2563e300c7935ed6bdf9bb5beb4e22b062f1ae4c813e9afafc439ea"),
    ("0,1,-1", "f7dfb8c17772d8dce83a9dbe41d513f67e5ac23e6f5579ecb2042070d6238191"),
    ("i,-i,2,inf,3/2", "7f535b97e314e372a30fc41c43bc35905071ef4c0a0da03044ddfd6eea63c30f"),
])
def test_model0_points(points, digest, capsys):
    # the printed value vectors: the str of every Q(i) coordinate
    assert main(["model0", "--points", points]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


LEDGER_DIGESTS = {
    ((0, 0, 0), None):
        "c3a0a0cbd9fe43aba0642ef47549cdff6d3f9c1b3f6c3de8322cef61f5cb1a50",
    ((0, 0, 0), "5/2,7,31/3"):
        "2a57b6749607c54b4ded817de5b3e7beb760c1239a9c3f41e4d1785d4885bad8",
    ((1,), None):
        "2fc2044b0cc08f66823cbcc8239dbbef2014bc9011c20ce9463934e05e1bd401",
    ((1,), "17/3"):
        "65163aa1ac47e470567b1262db019d9a13537c4a6f63ed01070a4e68cd131267",
    ((1, 0, 0, 0), None):
        "6d18042e6d3b94d8689718cc836fdc5482d2b66442c616b7a54f1ba1c57f65b7",
    ((1, 0, 0, 0), "13/2,9,41/3,8"):
        "4df47e595842a06791417519da3ee384ae5fdd52a3126313d065a74036898b93",
    ((1, 1), None):
        "c2014889b9c81fc909fe8b88d7da89c67dfeab05bd18c639258c8351af753e3b",
    ((1, 1), "19/2,23/3"):
        "24f3d970921db7901b106185ba97c728a8d75e0849b543ceaf467f81a69d3903",
    ((2, 0), None):
        "55fd18f275fa88e074cf117b41857cdb47a8ff0fd5302ef9d21f66a9fe3becba",
    ((2, 0), "31/4,11"):
        "8718041253543f4b1403fcf18dc698cdedbb2ad45598542ab10a3a568c80eefc",
}


@cache
def _ledger(exponents, perimeters):
    genus = (sum(exponents) - len(exponents) + 3) // 3
    return intersection_number(genus, exponents, perimeters).cells


def _ledger_digest(exponent_tuples, perimeters, invariant=False):
    """Digest of the ledgers of the exponent tuples in order; with
    ``invariant``, only the fields that do not depend on the edge numbering
    of the representatives."""
    h = hashlib.sha256()
    for exponents in exponent_tuples:
        for c in _ledger(exponents, perimeters):
            if invariant:
                row = (c.key.hex(), c.aut_order, c.empty, str(c.contribution))
            else:
                row = (c.key.hex(), c.aut_order, c.empty, c.orientation,
                       str(c.coefficient), str(c.chart_volume),
                       str(c.contribution))
            h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


def _perimeter_tuple(perimeters):
    return tuple(perimeters.split(",")) if perimeters else None


@pytest.mark.parametrize("exponents, perimeters", sorted(LEDGER_DIGESTS, key=repr))
def test_cell_ledgers(exponents, perimeters):
    assert _ledger_digest([exponents], _perimeter_tuple(perimeters)) == \
        LEDGER_DIGESTS[exponents, perimeters]


LEDGER_INVARIANT_DIGESTS = {
    ((0, 0, 0), None):
        "3851f315d1a9a0a87ce2982e6e702c3f5a18c70364a5c4c1c289cf64f71a25ee",
    ((0, 0, 0), "5/2,7,31/3"):
        "8f428a9f0b8fbc2179ee28155de8fdaf620591a977f81282cf666b0d60141306",
    ((1,), None):
        "6bce06f9c8c71f0d1bc7d94d80a64a2f98c40ddd78b5c17cb6dec1db45501b65",
    ((1,), "17/3"):
        "6bce06f9c8c71f0d1bc7d94d80a64a2f98c40ddd78b5c17cb6dec1db45501b65",
    ((1, 0, 0, 0), None):
        "13e693177fe0d1316ea8bfea12d6fca352fd881635f52e90a2846850fd6e9bf2",
    ((1, 0, 0, 0), "13/2,9,41/3,8"):
        "5bb19e969b915af4bbea46b075b645e65237d8383f6a33fa4fb461deaa28319d",
    ((1, 1), None):
        "d66e6bcdfc00968ef06cb9ec72e650921219af906c1b5998f7e75f35b47b1415",
    ((1, 1), "19/2,23/3"):
        "2fc0ea80f41bab8e2c9c3ccd6a1350b0a8a644152f3d852821784697cc22bc33",
    ((2, 0), None):
        "6c1d82ae5cbd08d9e49f2a16c7261dd3e4b1398bc05635b6eb5d9465e890c091",
    ((2, 0), "31/4,11"):
        "6c1d82ae5cbd08d9e49f2a16c7261dd3e4b1398bc05635b6eb5d9465e890c091",
}


@pytest.mark.parametrize("exponents, perimeters",
                         sorted(LEDGER_INVARIANT_DIGESTS, key=repr))
def test_cell_ledger_invariants(exponents, perimeters):
    assert _ledger_digest([exponents], _perimeter_tuple(perimeters),
                          invariant=True) == \
        LEDGER_INVARIANT_DIGESTS[exponents, perimeters]


@pytest.mark.parametrize("g, n, digest", [
    (0, 4, "4fc3567dd594f9f61139f468a5d46aeac5f5b17d2f37d436375c4b7a4f085871"),
    (1, 2, "e5b696c9fbfa0131ef60ab07773c075efd34ba75c0fabd9a611f2af25ddf381a"),
])
def test_closure_automorphisms(g, n, digest):
    summary = enumerate_cells(g, n)
    h = hashlib.sha256()
    for key in sorted(summary.classes):
        elements = automorphisms(summary.classes[key].graph).elements
        h.update(repr(elements).encode() + b"\n")
    assert h.hexdigest() == digest


#: Exponents whose ledgers are pinned at the wall vectors, by face count.
WALL_EXPONENTS = {3: [(0, 0, 0)], 4: [(1, 0, 0, 0), (0, 0, 0, 1)],
                  2: [(2, 0), (1, 1), (0, 2)]}

#: One digest per wall vector, over the ledgers of every exponent tuple of
#: ``WALL_EXPONENTS`` in order.  The vectors are those of
#: ``test_intersect.TestWallPerimeters``, plus two orders of the (0,3) sum
#: wall at which perturbing the faces in the reverse order would pick
#: another class.
WALL_LEDGER_DIGESTS = {
    (3, 22, 19):
        "c3a0a0cbd9fe43aba0642ef47549cdff6d3f9c1b3f6c3de8322cef61f5cb1a50",
    (3, 19, 22):
        "c3a0a0cbd9fe43aba0642ef47549cdff6d3f9c1b3f6c3de8322cef61f5cb1a50",
    (22, 3, 19):
        "e720de801fa55041a4e1672b04f92860ec127d8cd283694877079c7bafa71302",
    (5, 5, 7, 11):
        "2e945e905083cf1fa372d571e8c0c70e6290243681c015e8fa4e346419c31491",
    (3, 5, 8, 13):
        "cffca7465553537df20383c4adba5cba2afac3b770310b7e3b4662952ead99d4",
    (3, 11, 7, 7):
        "c2213672ea30459231eef42d0d626e56e8a70d9e0d3fa71cf75bd680d9729a0f",
    (2, 3, 4, 9):
        "c37ab7020fac51c1c5c82ef49ade96207d0c1e8ecde81206aa56bc2a898188db",
    (1, 1, 2, 2):
        "417cca2d4c1e23e36ed5bc15d6a080e978902bc0006d737f09352e982fcb116f",
    (1, 1, 1, 1):
        "393be5646d4f02aea450b8ddcfa08bd467bda0d9a723c670928c12f530709919",
    (5, 5):
        "125bea4e9dfdc378129d68dbbf801ac34ee9a4ca48cc044873d253254b45fa28",
    (3, 6):
        "527969a4af02a51618d8c311b61d317dfa59cb6b4045768d85020d6433f338d3",
    (6, 3):
        "13751af3bade3e2294962ec5823d6048bb8c5c81714c091d9193c1459ddd3231",
    (2, 6):
        "f46f8e59aa53d5af283e4529de418a036a06297ce54a326ae54f203c888ad776",
    (1, 1):
        "d1e285997e5e4596fa9bb67455861bcb5cbdfc218f2ffd87b0667a9c487afb9c",
}


@pytest.mark.parametrize("perimeters", sorted(WALL_LEDGER_DIGESTS))
def test_wall_ledgers(perimeters):
    assert _ledger_digest(WALL_EXPONENTS[len(perimeters)], perimeters) == \
        WALL_LEDGER_DIGESTS[perimeters]


WALL_LEDGER_INVARIANT_DIGESTS = {
    (3, 22, 19):
        "3851f315d1a9a0a87ce2982e6e702c3f5a18c70364a5c4c1c289cf64f71a25ee",
    (3, 19, 22):
        "3851f315d1a9a0a87ce2982e6e702c3f5a18c70364a5c4c1c289cf64f71a25ee",
    (22, 3, 19):
        "054e8226c15191bbff3be3c7e987012111ae04b9de9449f37d1e58c90e5248f4",
    (5, 5, 7, 11):
        "c26abf91911a01c6355bac9abd8001b01f3a03dbe23fe76be341043efaf488f4",
    (3, 5, 8, 13):
        "95798d51bed5b940611503a2d564ae78518893d92d241d4ede2067f75af57f38",
    (3, 11, 7, 7):
        "b14d581398bf116e5994ec0b23a031fd78b1608d5c8c1c0c4d06f58473866324",
    (2, 3, 4, 9):
        "f505535f51addefad96e4acaabaa18f0ae6c892d5ffad0d93d0f7c38e1b3b752",
    (1, 1, 2, 2):
        "9e8298d4714cbad86014a1c09aab8068bb703f0e50cebfe4f260a26e96231bac",
    (1, 1, 1, 1):
        "05a721a14af9b45cfa1348e37aadaa2eb3b7ce4272096f40b9c2ea7630b35da9",
    (5, 5):
        "ac91270eedbe64fe0d52cfc01a3d85cc07df8dea99539b12cb11a97201dc26c6",
    (3, 6):
        "7a983a096a68399760204643ef0f8e408165c97c19e29dc5b3d540d4eddd8317",
    (6, 3):
        "10aef81009f70359bcc1918c56b2fd69969e8195a1024d605f4b17ad538e00e9",
    (2, 6):
        "1b78efc242f824d8507c0bcd628f372eebdd2e601f6716cd70b6d4f3accc4a6c",
    (1, 1):
        "ac91270eedbe64fe0d52cfc01a3d85cc07df8dea99539b12cb11a97201dc26c6",
}


@pytest.mark.parametrize("perimeters", sorted(WALL_LEDGER_INVARIANT_DIGESTS))
def test_wall_ledger_invariants(perimeters):
    assert _ledger_digest(WALL_EXPONENTS[len(perimeters)], perimeters,
                          invariant=True) == WALL_LEDGER_INVARIANT_DIGESTS[perimeters]
