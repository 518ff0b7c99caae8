"""The maps of both searches and of brute force, pinned by one hash.

The dump holds, for each pair (g, h) below, the maps that
find_graph_isomorphism returns on the graphs, and that magma_iso_search
and, up to kei order 6, magma_iso_bruteforce return on their keis (null
for none), as one JSON list.  The pairs are every `reduce-test --n-max 3`
and `--n-max 4` pair as the CLI labels them, the same pairs again after
one seeded relabelling of each graph, and the seed-7
`reduce-test --mode sampled --n-max 5 --pairs 200` stream.  A change to
the search engine, the labels or the brute force must leave every map as
it is, so the hash stays fixed.

To regenerate the dump and its sha256:

    PYTHONPATH=src python tests/test_pinned_maps.py dump.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import product

from keikit import (
    encode_kei,
    enumerate_digraphs,
    find_graph_isomorphism,
    magma_iso_bruteforce,
    magma_iso_search,
)
from keikit.cli import _sampled_pairs
from keikit.digraph import Bijection

PINNED_SHA256 = "1b35b2a6784f2d01ddfb2592f0d18b9b442788b082ad1845b379c757ae799fc4"
RELABEL_SEED = 1
ORACLE_ORDER = 6


def _exhaustive_graphs(n: int, rng: random.Random | None = None) -> list:
    graphs = list(enumerate_digraphs(n, dedupe=n >= 4))
    if rng is None:
        return graphs
    relabelled = []
    for g in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled.append(g.relabel(Bijection(tuple(perm))))
    return relabelled


def pairs():
    """The pairs of the dump, in its order."""
    for rng in (None, random.Random(RELABEL_SEED)):
        for n in (3, 4):
            yield from product(_exhaustive_graphs(n, rng), repeat=2)
    for (_, g), (_, h) in _sampled_pairs(5, 200, random.Random(7)):
        yield g, h


def _map(found) -> list[int] | None:
    return None if found is None else list(found.map)


def dump() -> bytes:
    rows = []
    for g, h in pairs():
        kei_g, kei_h = encode_kei(g).magma, encode_kei(h).magma
        brute = magma_iso_bruteforce(kei_g, kei_h) if kei_g.n <= ORACLE_ORDER else None
        rows.append([_map(find_graph_isomorphism(g, h)), _map(magma_iso_search(kei_g, kei_h)), _map(brute)])
    return json.dumps(rows, separators=(",", ":")).encode()


def test_maps_match_the_pinned_dump():
    digest = hashlib.sha256(dump()).hexdigest()
    assert digest == PINNED_SHA256, (
        f"the search maps changed: dump sha256 {digest}, pinned {PINNED_SHA256}; "
        "write the dump with `PYTHONPATH=src python tests/test_pinned_maps.py dump.json` "
        "and compare it with one written at the parent commit"
    )


if __name__ == "__main__":
    data = dump()
    if len(sys.argv) > 1:
        with open(sys.argv[1], "wb") as out:
            out.write(data)
    print(hashlib.sha256(data).hexdigest())
