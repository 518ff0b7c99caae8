"""The maps of both searches and of brute force, pinned by two hashes.

A dump holds, for each pair (g, h) of its stream, the maps that
find_graph_isomorphism returns on the graphs, and that magma_iso_search
and, up to kei order 6, magma_iso_bruteforce return on their keis (null
for none), as one JSON list.  The pairs of PINNED_SHA256 are every
`reduce-test --n-max 3` and `--n-max 4` pair as the CLI labels them, the
same pairs again after one seeded relabelling of each graph, and the
seed-7 `reduce-test --mode sampled --n-max 5 --pairs 200` stream.  The
pairs of SAMPLED_SHA256 are the `reduce-test --mode sampled --n-max 6
--pairs 8000` streams of seeds 0 and 1, at kei order 12, so with no
brute-force map.  A change to the search engine, the labels or the brute
force must leave every map as it is, so both hashes stay fixed.

To regenerate a dump and its sha256 (--sampled for the second stream):

    PYTHONPATH=src python tests/test_pinned_maps.py [--sampled] dump.json
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
SAMPLED_SHA256 = "d9beeec362aa0b21601bec3909715b022964f185b871cbeb1649e87114efaa70"
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


def sampled_pairs():
    """The pairs of the second dump, in its order."""
    for seed in (0, 1):
        for (_, g), (_, h) in _sampled_pairs(6, 8000, random.Random(seed)):
            yield g, h


def _map(found) -> list[int] | None:
    return None if found is None else list(found.map)


def dump(stream=pairs) -> bytes:
    rows = []
    for g, h in stream():
        kei_g, kei_h = encode_kei(g).magma, encode_kei(h).magma
        brute = magma_iso_bruteforce(kei_g, kei_h) if kei_g.n <= ORACLE_ORDER else None
        rows.append([_map(find_graph_isomorphism(g, h)), _map(magma_iso_search(kei_g, kei_h)), _map(brute)])
    return json.dumps(rows, separators=(",", ":")).encode()


def _check(stream, pinned: str, flag: str) -> None:
    digest = hashlib.sha256(dump(stream)).hexdigest()
    assert digest == pinned, (
        f"the search maps changed: dump sha256 {digest}, pinned {pinned}; "
        f"write the dump with `PYTHONPATH=src python tests/test_pinned_maps.py {flag}dump.json` "
        "and compare it with one written at the parent commit"
    )


def test_maps_match_the_pinned_dump():
    _check(pairs, PINNED_SHA256, "")


def test_sampled_maps_match_the_pinned_dump():
    _check(sampled_pairs, SAMPLED_SHA256, "--sampled ")


if __name__ == "__main__":
    paths = [a for a in sys.argv[1:] if a != "--sampled"]
    data = dump(sampled_pairs if "--sampled" in sys.argv else pairs)
    if paths:
        with open(paths[0], "wb") as out:
            out.write(data)
    print(hashlib.sha256(data).hexdigest())
