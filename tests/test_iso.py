"""Magma isomorphism search, kei isomorphism transport, reduction checks."""

import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from keikit import (
    Bijection,
    Digraph,
    InvalidIso,
    Magma,
    NotAGraphIso,
    TooLarge,
    conjugation_quandle,
    encode_kei,
    extract_graph_iso,
    find_graph_isomorphism,
    format_verdict_line,
    induced_kei_iso,
    is_graph_isomorphism,
    is_magma_isomorphism,
    magma_iso_bruteforce,
    magma_iso_bruteforce_all,
    magma_iso_search,
    random_digraph,
    reduction_check,
    twin_involution,
)
from keikit.digraph import enumerate_digraphs
from keikit.groups import FiniteGroup, standard_groups
from keikit.magma import _column_scan, _interchangeable, _table_isomorphism

import oracles

EDGE = Digraph(2, [(0, 1)])
REDGE = Digraph(2, [(1, 0)])
Q_EDGE = encode_kei(EDGE).magma
Q_REDGE = encode_kei(REDGE).magma


def test_is_magma_isomorphism_basics():
    m = oracles.trivial_kei(3)
    assert is_magma_isomorphism(m, m, tuple(range(3)))
    assert not is_magma_isomorphism(m, oracles.trivial_kei(2), (0, 1, 2))
    rng = random.Random(11)
    for size in (2, 4, 6):
        m = oracles.trivial_kei(size)
        perm = list(range(size))
        rng.shuffle(perm)
        assert is_magma_isomorphism(m, m, tuple(perm))
    # entries are refused, not truncated: int() would make this the identity
    assert not is_magma_isomorphism(Q_EDGE, Q_EDGE, (0.1, 1.5, 2, 3))
    assert is_magma_isomorphism(Q_EDGE, Q_EDGE, np.arange(4, dtype=np.int32))


def test_twin_swap_is_automorphism_of_edge_kei():
    swap = (1, 0, 2, 3)
    assert is_magma_isomorphism(Q_EDGE, Q_EDGE, swap)
    rows = Q_EDGE.table.tolist()
    for x in range(4):
        for y in range(4):
            assert swap[rows[x][y]] == rows[swap[x]][swap[y]]
    assert not is_magma_isomorphism(Q_EDGE, Q_EDGE, (1, 2, 3, 0))


def test_bruteforce_examples():
    found = magma_iso_bruteforce(oracles.trivial_kei(2), oracles.trivial_kei(2))
    assert found is not None and found.map == (0, 1)
    assert magma_iso_bruteforce(oracles.trivial_kei(4), Q_EDGE) is None
    found = magma_iso_bruteforce(Q_EDGE, Q_REDGE)
    assert found is not None
    assert is_magma_isomorphism(Q_EDGE, Q_REDGE, found)
    with pytest.raises(TooLarge):
        magma_iso_bruteforce(oracles.trivial_kei(9), oracles.trivial_kei(9))


def test_bruteforce_all_edge_automorphisms():
    autos = [b.map for b in magma_iso_bruteforce_all(Q_EDGE, Q_EDGE)]
    expected = sorted(
        twin_involution(EDGE, keep).map for keep in oracles.all_subsets(2)
    )
    assert autos == expected
    assert autos == sorted(autos)


def test_bruteforce_all_at_unequal_and_extreme_orders():
    assert list(magma_iso_bruteforce_all(oracles.trivial_kei(3), oracles.trivial_kei(4))) == []
    for left, right in ((9, 9), (9, 3), (3, 9)):
        with pytest.raises(TooLarge):
            next(magma_iso_bruteforce_all(oracles.trivial_kei(left), oracles.trivial_kei(right)))
    # every permutation is an automorphism of the trivial kei, and survives every row
    for k in (7, 8):
        autos = magma_iso_bruteforce_all(oracles.trivial_kei(k), oracles.trivial_kei(k))
        assert [f.map for f in autos] == list(permutations(range(k)))


def test_bruteforce_uses_neither_labels_nor_the_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("brute force must stay independent of the search")

    monkeypatch.setattr(Magma, "invariant_labels", refuse)
    monkeypatch.setattr("keikit.iso._table_isomorphism", refuse)
    assert magma_iso_bruteforce(Q_EDGE, Q_REDGE) is not None
    assert len(list(magma_iso_bruteforce_all(Q_EDGE, Q_EDGE))) == 4


def test_search_matches_bruteforce_tiny():
    tables = []
    for n in (1, 2):
        for g in enumerate_digraphs(n):
            tables.append(encode_kei(g).magma)
    tables.append(oracles.trivial_kei(2))
    tables.append(oracles.dihedral_kei(4))
    for m in tables:
        for n_ in tables:
            brute = magma_iso_bruteforce(m, n_)
            found = magma_iso_search(m, n_)
            assert (found is None) == (brute is None)
            if found is not None:
                assert is_magma_isomorphism(m, n_, found)


def test_search_matches_bruteforce_seeded_order_six():
    keis = [encode_kei(g).magma for g in enumerate_digraphs(3)]
    rng = random.Random(23)
    for _ in range(300):
        m = rng.choice(keis)
        n_ = rng.choice(keis)
        found = magma_iso_search(m, n_)
        assert found == magma_iso_bruteforce(m, n_), (m.table.tolist(), n_.table.tolist())
        if found is not None:
            assert is_magma_isomorphism(m, n_, found)


def test_search_on_conjugation_quandles():
    groups = standard_groups()
    for g in groups:
        q = conjugation_quandle(g)
        assert magma_iso_search(q, q).map == tuple(range(q.n))
    by_order: dict[int, list] = {}
    for g in groups:
        by_order.setdefault(g.n, []).append(g)
    for order, members in by_order.items():
        if order > 8:
            continue
        for a in members:
            for b in members:
                qa, qb = conjugation_quandle(a), conjugation_quandle(b)
                found = magma_iso_search(qa, qb)
                assert found == magma_iso_bruteforce(qa, qb), (a.name, b.name)
                if found is not None:
                    assert is_magma_isomorphism(qa, qb, found)


def test_engine_checks_labels_and_equal_tables_itself():
    rows = [[0, 1], [0, 1]]
    # a source label absent from the target, and then orders that differ
    assert _table_isomorphism(rows, [[1, 1], [0, 0]], [3, 0], [0, 0]) is None
    assert _table_isomorphism(rows, [[0]], [0, 0], [0]) is None
    # equal tables give the identity, as arrays or as lists
    kei = encode_kei(Digraph(3, [(0, 1), (1, 2)])).magma
    labels = kei.invariant_labels()
    assert _table_isomorphism(kei.table, kei.table.tolist(), labels, labels) == tuple(range(6))
    assert magma_iso_search(kei, kei) == Bijection(tuple(range(6)))


@pytest.fixture
def class_calls(monkeypatch):
    """Counts the search's per-table scans (the order of each table) and
    its class computations (the members of each)."""
    calls = {"scans": [], "members": []}

    def scan(rows):
        calls["scans"].append(len(rows))
        return _column_scan(rows)

    def classes(rows, members, first, outside):
        calls["members"].append(list(members))
        return _interchangeable(rows, members, first, outside)

    monkeypatch.setattr("keikit.magma._column_scan", scan)
    monkeypatch.setattr("keikit.magma._interchangeable", classes)
    return calls


def test_interchangeable_classes_are_found_lazily_once_per_label(class_calls):
    # no candidate fails, so the search never pays for the classes
    path = Digraph(3, [(0, 1), (1, 2)])
    assert magma_iso_search(encode_kei(path).magma, encode_kei(path.relabel([2, 0, 1])).magma)
    assert class_calls == {"scans": [], "members": []}
    # C_6 vs 2C_3: many candidates fail, all in the one label that every
    # element of these keis has, so the table is scanned once and the
    # classes of that label are found once
    cycle = Digraph(6, [(i, (i + 1) % 6) for i in range(6)])
    two = Digraph(6, [(b + i, b + (i + 1) % 3) for b in (0, 3) for i in range(3)])
    assert magma_iso_search(encode_kei(cycle).magma, encode_kei(two).magma) is None
    assert class_calls == {"scans": [12], "members": [list(range(12))]}
    # a graph table has rows that are not permutations: scanned once, no classes
    assert find_graph_isomorphism(cycle, two) is None
    assert class_calls == {"scans": [12, 6], "members": [list(range(12))]}


def test_interchangeable_classes_are_found_for_each_failing_label(class_calls):
    # the search fails in two label classes of the target kei, and finds
    # the classes of exactly those two, each the whole class of its label
    g = Digraph(4, [(2, 1), (3, 0), (3, 2)])
    h = g.relabel([1, 0, 2, 3])
    kei_g, kei_h = encode_kei(g).magma, encode_kei(h).magma
    found = magma_iso_search(kei_g, kei_h)
    assert found == magma_iso_bruteforce(kei_g, kei_h) == Bijection((2, 3, 0, 1, 4, 5, 6, 7))
    assert class_calls == {"scans": [8], "members": [[4, 5], [0, 1, 2, 3]]}
    labels = kei_h.invariant_labels()
    chosen = [labels[members[0]] for members in class_calls["members"]]
    assert chosen[0] != chosen[1]
    for label, members in zip(chosen, class_calls["members"]):
        assert members == [y for y in range(8) if labels[y] == label]


def test_search_on_relabelled_conjugation_quandles_of_larger_groups():
    # a search that branches on every commuting rotation before any
    # reflection takes more than 20 s on each
    groups = [
        FiniteGroup.dihedral(16),
        FiniteGroup.dihedral(17),
        FiniteGroup.direct_product(FiniteGroup.symmetric(4), FiniteGroup.cyclic(4)),
    ]
    for g in groups:
        q = conjugation_quandle(g)
        perm = list(range(q.n))
        random.Random(0).shuffle(perm)
        relabelled = Magma(oracles.relabel_rows(q.table.tolist(), perm))
        found = magma_iso_search(q, relabelled)
        assert found is not None
        assert is_magma_isomorphism(q, relabelled, found)


def test_search_beyond_recursion_depth():
    # a permuted dihedral kei: more branching elements than the
    # interpreter's default recursion limit
    r = oracles.dihedral_kei(1101)
    perm = list(range(r.n))
    random.Random(1101).shuffle(perm)
    permuted = Magma(oracles.relabel_rows(r.table.tolist(), perm))
    found = magma_iso_search(r, permuted)
    assert found is not None
    assert is_magma_isomorphism(r, permuted, found)


def test_search_holds_no_queue_of_implied_pairs():
    # after two assignments every image is implied by products, so a search
    # that queues each implied pair before checking it holds O(n^2) of them
    # (1.9 MB above the rows here); binding each pair where it is found
    # holds O(n)
    r = oracles.dihedral_kei(301)
    perm = list(range(r.n))
    random.Random(301).shuffle(perm)
    permuted = Magma(oracles.relabel_rows(r.table.tolist(), perm))
    for m in (r, permuted):
        m.invariant_labels()  # cached before tracing, so the peak is the search's
    tracemalloc.start()
    try:
        copies = (r.table.tolist(), permuted.table.tolist())
        rows_size = tracemalloc.get_traced_memory()[0]
        del copies
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        found = magma_iso_search(r, permuted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is not None and is_magma_isomorphism(r, permuted, found)
    assert peak - held <= rows_size + 250_000


def test_search_separates_cycle_from_outstar():
    cycle3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    outstar = Digraph(3, [(0, 1), (0, 2)])
    q_cycle = encode_kei(cycle3).magma
    q_star = encode_kei(outstar).magma
    assert magma_iso_search(q_cycle, q_star) is None
    assert magma_iso_bruteforce(q_cycle, q_star) is None


def test_induced_iso_for_every_small_automorphism():
    graphs = [g for n in (1, 2, 3) for g in enumerate_digraphs(n)]
    graphs += list(enumerate_digraphs(4, dedupe=True))
    for g in graphs:
        perms = oracles.graph_automorphisms(g)
        assert perms, "identity is always an automorphism"
        for perm in perms:
            rho = induced_kei_iso(Bijection(perm), g, g)
            assert is_magma_isomorphism(encode_kei(g).magma, encode_kei(g).magma, rho)


def test_z4_and_klein_conjugation_quandles_agree():
    groups = {g.name: g for g in standard_groups()}
    q_z4 = conjugation_quandle(groups["Z4"])
    q_klein = conjugation_quandle(groups["Z2xZ2"])
    # conjugation in any abelian group is the trivial quandle
    assert q_z4 == oracles.trivial_kei(4)
    assert magma_iso_search(q_z4, q_klein) is not None


def test_induced_kei_iso():
    ident = induced_kei_iso(Bijection((0, 1)), EDGE, EDGE)
    assert ident == Bijection(tuple(range(4)))
    rho = induced_kei_iso(Bijection((1, 0)), EDGE, REDGE)
    assert rho.map == (2, 3, 0, 1)
    assert is_magma_isomorphism(Q_EDGE, Q_REDGE, rho)
    with pytest.raises(NotAGraphIso):
        induced_kei_iso(Bijection((0, 1)), EDGE, REDGE)


def test_extract_validates_the_kei_map():
    # elements 0,1 sit on vertex 0, which the graph map sends to vertex 1
    assert extract_graph_iso(Bijection((2, 3, 0, 1)), EDGE, REDGE) == Bijection((1, 0))
    with pytest.raises(InvalidIso) as exc:
        extract_graph_iso(Bijection((1, 2, 3, 0)), EDGE, REDGE)
    assert str(exc.value) == "map does not preserve the kei operation"
    with pytest.raises(InvalidIso) as exc:
        extract_graph_iso(Bijection((1, 0)), EDGE, REDGE)
    assert str(exc.value) == "map on 2 elements cannot link keis of 2 and 2 vertices"
    with pytest.raises(InvalidIso) as exc:
        extract_graph_iso(Bijection(tuple(range(4))), EDGE, Digraph(3))
    assert str(exc.value) == "map on 4 elements cannot link keis of 2 and 3 vertices"


def test_extract_identity():
    for g in [EDGE, Digraph(3, [(0, 1), (1, 2)])]:
        rho = induced_kei_iso(Bijection(tuple(range(g.n))), g, g)
        h = extract_graph_iso(rho, g, g)
        assert h.map == tuple(range(g.n))


def test_extract_on_all_small_kei_isos():
    graphs = [g for n in (1, 2) for g in enumerate_digraphs(n)]
    for g in graphs:
        for g2 in graphs:
            if g.n != g2.n:
                continue
            qg, qg2 = encode_kei(g).magma, encode_kei(g2).magma
            for rho in magma_iso_bruteforce_all(qg, qg2):
                h = extract_graph_iso(rho, g, g2)
                assert is_graph_isomorphism(g, g2, h)


def test_extract_all_automorphisms_of_complete_graph():
    # complete digraph on 3 vertices encodes to the trivial kei on 6
    # elements, whose automorphism group is all 720 permutations
    k3 = Digraph(3, [(a, b) for a in range(3) for b in range(3) if a != b])
    q = encode_kei(k3).magma
    count = 0
    for rho in magma_iso_bruteforce_all(q, q):
        h = extract_graph_iso(rho, k3, k3)
        assert is_graph_isomorphism(k3, k3, h)
        count += 1
    assert count == 720


def test_extract_seeded_composites():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        g = random_digraph(n, 0.4, seed=rng.randrange(1 << 30))
        relabel = list(range(n))
        rng.shuffle(relabel)
        g2 = g.relabel(relabel)
        base = induced_kei_iso(Bijection(relabel), g, g2)
        keep = [v for v in range(n) if rng.random() < 0.5]
        rho = base.then(twin_involution(g2, keep))
        h = extract_graph_iso(rho, g, g2)
        assert is_graph_isomorphism(g, g2, h)


def test_reduction_check_examples():
    verdict = reduction_check(EDGE, EDGE)
    assert (verdict.graph_iso, verdict.kei_iso, verdict.agree) == (True, True, True)
    cycle3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    outstar = Digraph(3, [(0, 1), (0, 2)])
    verdict = reduction_check(cycle3, outstar)
    assert (verdict.graph_iso, verdict.kei_iso, verdict.agree) == (False, False, True)
    verdict = reduction_check(EDGE, REDGE)
    assert (verdict.graph_iso, verdict.kei_iso, verdict.agree) == (True, True, True)


def test_reduction_check_matches_graph_oracle_seeded():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 4)
        g = random_digraph(n, 0.5, seed=rng.randrange(1 << 30))
        h = random_digraph(n, 0.5, seed=rng.randrange(1 << 30))
        verdict = reduction_check(g, h)
        assert verdict.agree
        assert verdict.graph_iso == (oracles.brute_graph_iso(g, h) is not None)
        assert verdict.graph_iso == (find_graph_isomorphism(g, h) is not None)


def test_verdict_line_round_trip():
    verdict = reduction_check(EDGE, REDGE)
    assert format_verdict_line("a", "b", verdict) == "a b 1 1 1"
