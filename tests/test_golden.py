"""Pinned digests of values that other artefacts are keyed by.

Class files, ledgers and boundary lists name graphs by their canonical
keys, and the property suites replay seeded draws.  A change to either
must be deliberate, so the bytes are pinned here: the keys and
representative graphs of the trivalent classes, the sorted canonical
keys and boundary triples of two cell closures, and the JSON of the first
draws of the stable-graph sampler for one seed.  The per-cell ledgers of
the E <= 6 correlators and the automorphism groups of the closure classes
are pinned too, so a rewrite of the form algebra or of the automorphism
search must reproduce them exactly; so are the ledgers at perimeters on
walls, where the cell that counts a point is picked by the perturbation
``p + (eps, eps^2, ...)``.
"""

import hashlib
import json
import random

import pytest

from ribboncells.enumeration import automorphisms, enumerate_cells, enumerate_trivalent
from ribboncells.intersect import intersection_number
from ribboncells.permgraph import to_json_dict
from ribboncells.sampling import random_stable_graph


@pytest.mark.parametrize("g, n, digest", [
    (0, 3, "a46f397a2204f8c377a7b2bbc0fc8e63adebbb62153d7f7605db906afce78144"),
    (1, 1, "af7e939d4a29e0a93909edfdfafc2b0b9c6abb83830df5b86d32df6fa697718a"),
    (0, 4, "a711505b2807208496df659f62a7399379986e68e3efcf38ff85b7ef139ad90c"),
    (1, 2, "c83ed61b7723200949681f3d917542f7c756a8e08e5752c7dce196b4a1db25c3"),
])
def test_trivalent_keys_and_representatives(g, n, digest):
    # boundary edge indices are indices into these representatives
    text = json.dumps([[c.key.hex(), to_json_dict(c.graph)]
                       for c in enumerate_trivalent(g, n)], sort_keys=True)
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
    (0, 4, "7fc16aab6cadd697d88a167582f00bc0e934b7ecfbc2de3f450781d8e5ebb42f", 354, 1020),
    (1, 2, "cba654e46a7802fbd3dbe6186c77163257f486d94569a2353394268600cb17d3", 62, 225),
])
def test_closure_keys_and_boundary(g, n, digest, classes, boundary):
    assert _closure_digest(g, n) == (digest, classes, boundary)


def test_seeded_draws():
    rng = random.Random(2024)
    draws = [to_json_dict(random_stable_graph(rng)) for _ in range(50)]
    text = json.dumps(draws, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "1366bf032f52dd6e5cb2ccf0718e85d293c3af099980094d16470c9f4aa1fec0"


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
        "ec27c08cb8b099400a80458faf2eb878fdb1466b22c6090accda2ae39ff18138",
    ((1, 1), "19/2,23/3"):
        "163cd2b339eb88dae8496820deab56dec2009d79c5c9cc0830d3c463564240ee",
    ((2, 0), None):
        "c62a59c5c68e0906ddc63553e39c47a70f6dcc1fa6f06c6cad429d43ef31990f",
    ((2, 0), "31/4,11"):
        "9e2551e29942f5ee5beb1131e03ab093373304e3886a182977a7ea2115c5d71e",
}


@pytest.mark.parametrize("exponents, perimeters", sorted(LEDGER_DIGESTS, key=repr))
def test_cell_ledgers(exponents, perimeters):
    genus = (sum(exponents) - len(exponents) + 3) // 3
    p = perimeters.split(",") if perimeters else None
    h = hashlib.sha256()
    for c in intersection_number(genus, exponents, p).cells:
        h.update(repr((c.key.hex(), c.aut_order, c.empty, c.orientation,
                       str(c.coefficient), str(c.chart_volume),
                       str(c.contribution))).encode() + b"\n")
    assert h.hexdigest() == LEDGER_DIGESTS[exponents, perimeters]


@pytest.mark.parametrize("g, n, digest", [
    (0, 4, "4fc3567dd594f9f61139f468a5d46aeac5f5b17d2f37d436375c4b7a4f085871"),
    (1, 2, "ecbc7d7e3705284121e3da1e4ef842a52000a078ac37ab14163657a90bae3745"),
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
        "c9c6ee2529c838853cc2138f5e1b20e1d790d4c3dad1f5db654b2c62bc05c2e3",
    (6, 3):
        "54326f0bbad6c8d7183a860706e3c1b6a9c74e4d2203bfc62fab1368de73fb86",
    (2, 6):
        "47340b99307aa9f766661b99f078b7059401dc9b5c91877ca45886ed271ad4b1",
    (1, 1):
        "d1e285997e5e4596fa9bb67455861bcb5cbdfc218f2ffd87b0667a9c487afb9c",
}


@pytest.mark.parametrize("perimeters", sorted(WALL_LEDGER_DIGESTS))
def test_wall_ledgers(perimeters):
    h = hashlib.sha256()
    for exponents in WALL_EXPONENTS[len(perimeters)]:
        genus = (sum(exponents) - len(exponents) + 3) // 3
        for c in intersection_number(genus, exponents, perimeters).cells:
            h.update(repr((c.key.hex(), c.aut_order, c.empty, c.orientation,
                           str(c.coefficient), str(c.chart_volume),
                           str(c.contribution))).encode() + b"\n")
    assert h.hexdigest() == WALL_LEDGER_DIGESTS[perimeters]
