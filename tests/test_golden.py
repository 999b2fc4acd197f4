"""Pinned digests of values that other artefacts are keyed by.

Class files, ledgers and boundary lists name graphs by their canonical
keys, and the property suites replay seeded draws.  A change to either
must be deliberate, so the bytes are pinned here: the keys and
representative graphs of the trivalent classes, the sorted canonical
keys and boundary triples of two cell closures, and the JSON of the first
draws of the stable-graph sampler for one seed.
"""

import hashlib
import json
import random

import pytest

from ribboncells.enumeration import enumerate_cells, enumerate_trivalent
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
