"""Acceptance battery for the graph-to-kei reduction and its tooling.

Each test covers one numbered criterion and prints a single
"[acceptance] criterion N (...): PASS/FAIL" line (visible under
pytest -s).  Everything here is exact: no tolerances, no skips.
"""

import random
from contextlib import contextmanager

import numpy as np

from keikit import (
    Bijection,
    Magma,
    check_axiom_ld,
    check_sigma,
    check_sigma_implies_ld,
    classify,
    conjugation_quandle,
    encode_kei,
    enumerate_digraphs,
    extract_graph_iso,
    find_graph_isomorphism,
    group_to_sigma,
    induced_kei_iso,
    is_graph_isomorphism,
    is_magma_isomorphism,
    magma_iso_bruteforce,
    magma_iso_bruteforce_all,
    magma_iso_search,
    random_digraph,
    reduction_check,
    twin_involution,
    apex_extension,
    decode_graph,
    detect_folded,
)
from keikit.groups import FiniteGroup, standard_groups

import oracles


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({desc}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({desc}): PASS")


def _all_graphs(order: int):
    return list(enumerate_digraphs(order))


def _sampled_pair(rng: random.Random, n: int):
    g = random_digraph(n, rng.uniform(0.1, 0.9), seed=rng.randrange(1 << 30))
    if rng.random() < 0.5:
        perm = list(range(n))
        rng.shuffle(perm)
        return g, g.relabel(perm)
    return g, random_digraph(n, rng.uniform(0.1, 0.9), seed=rng.randrange(1 << 30))


def test_exhaustive_reduction_small_orders():
    with criterion(1, "reduction agreement, exhaustive at small orders"):
        for n in (1, 2, 3):
            graphs = _all_graphs(n)
            for g in graphs:
                for h in graphs:
                    assert reduction_check(g, h).agree
        reps = list(enumerate_digraphs(4, dedupe=True))
        assert len(reps) == 218
        for g in reps:
            for h in reps:
                assert reduction_check(g, h).agree


def test_sampled_reduction_medium_orders():
    with criterion(2, "reduction agreement on sampled pairs at orders 5 and 6"):
        rng = random.Random(20260825)
        for _ in range(500):
            g, h = _sampled_pair(rng, 5)
            assert reduction_check(g, h).agree
        for _ in range(200):
            g, h = _sampled_pair(rng, 6)
            assert reduction_check(g, h).agree


def test_encoding_soundness():
    with criterion(3, "encoded tables are keis with the case-split product"):
        for n in (1, 2, 3, 4):
            for g in _all_graphs(n):
                m = encode_kei(g).magma
                assert classify(m).is_kei
                size = m.n
                t = m.table
                cols = np.arange(size)
                # twin coherence: x*y never leaves y's twin pair
                assert np.array_equal(t >> 1, np.broadcast_to(cols >> 1, t.shape))
                tau = cols ^ 1
                base = g.adj | np.eye(g.n, dtype=bool)
                phi = np.repeat(np.repeat(base, 2, axis=0), 2, axis=1)
                in_a = phi[:, None, :]
                in_b = phi[None, :, :]
                c_idx = np.broadcast_to(cols, (size, size, size))
                expected = np.where(
                    in_a & in_b, c_idx, np.where(in_a ^ in_b, tau[c_idx], tau[tau[c_idx]])
                )
                actual = t[cols[:, None, None], t[None, :, :]]
                assert np.array_equal(actual, expected)


def test_twin_involutions_and_apex():
    with criterion(4, "twin involutions are automorphisms realized by an apex row"):
        for n in (1, 2, 3, 4):
            for g in _all_graphs(n):
                m = encode_kei(g).magma
                for keep in oracles.all_subsets(n):
                    swap = twin_involution(g, keep)
                    assert all(swap.map[swap.map[x]] == x for x in range(2 * n))
                    assert is_magma_isomorphism(m, m, swap)
                    extended = apex_extension(g, keep)
                    big = encode_kei(extended).magma
                    realized = tuple(int(x) for x in big.table[2 * n, : 2 * n])
                    assert realized == swap.map


def test_fold_round_trip():
    with criterion(5, "every encoded kei is detected as folded and decodes back"):
        for n in (1, 2, 3, 4):
            for g in _all_graphs(n):
                m = encode_kei(g).magma
                witness = detect_folded(m)
                assert witness is not None
                assert witness.to_magma() == m
                decoded, mapping = decode_graph(m, witness)
                assert find_graph_isomorphism(decoded, g) is not None
                assert is_magma_isomorphism(encode_kei(decoded).magma, m, mapping)


def test_iso_extraction():
    with criterion(6, "kei isomorphisms project to graph isomorphisms"):
        graphs = [g for n in (1, 2, 3) for g in _all_graphs(n)]
        for g in graphs:
            for h in graphs:
                qg, qh = encode_kei(g).magma, encode_kei(h).magma
                if qg.n != qh.n:
                    continue
                for rho in magma_iso_bruteforce_all(qg, qh):
                    f = extract_graph_iso(rho, g, h)
                    assert is_graph_isomorphism(g, h, f)
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(1, 5)
            g = random_digraph(n, rng.random(), seed=rng.randrange(1 << 30))
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            base = induced_kei_iso(Bijection(tuple(perm)), g, h)
            keep = tuple(v for v in range(n) if rng.random() < 0.5)
            rho = base.then(twin_involution(h, keep))
            f = extract_graph_iso(rho, g, h)
            assert is_graph_isomorphism(g, h, f)


def test_search_oracle_agreement():
    with criterion(7, "search and brute force give the same verdicts"):
        keis = [encode_kei(g).magma for n in (1, 2, 3) for g in _all_graphs(n)]
        for m in keis:
            for other in keis:
                brute = magma_iso_bruteforce(m, other)
                found = magma_iso_search(m, other)
                assert (found is None) == (brute is None)
                if found is not None:
                    assert is_magma_isomorphism(m, other, found)
        rng = random.Random(8)
        for _ in range(50):
            g = random_digraph(4, rng.uniform(0.2, 0.8), seed=rng.randrange(1 << 30))
            m = encode_kei(g).magma
            if rng.random() < 0.5:
                p = list(range(8))
                rng.shuffle(p)
                pa = np.array(p, dtype=np.int64)
                inv = np.argsort(pa)
                other = Magma(pa[m.table[np.ix_(inv, inv)]])
            else:
                h = random_digraph(4, rng.uniform(0.2, 0.8), seed=rng.randrange(1 << 30))
                other = encode_kei(h).magma
            brute = magma_iso_bruteforce(m, other)
            found = magma_iso_search(m, other)
            assert (found is None) == (brute is None)
            if found is not None:
                assert is_magma_isomorphism(m, other, found)


def test_sigma_battery_and_uniqueness():
    with criterion(8, "two-operation identities hold for groups; star is forced"):
        for group in standard_groups():
            algebra = group_to_sigma(group)
            assert check_sigma(algebra).holds, group.name
            assert check_sigma_implies_ld(algebra).holds, group.name

        z3 = FiniteGroup.cyclic(3)
        comp = z3.comp
        count = 3 ** 9
        codes = np.arange(count)[:, None] // (3 ** np.arange(9)[None, :]) % 3
        stars = codes.reshape(count, 3, 3).astype(np.int64)
        k = np.arange(count)[:, None, None, None]
        a = np.arange(3)[None, :, None, None]
        b = np.arange(3)[None, None, :, None]
        c = np.arange(3)[None, None, None, :]
        s_bc = stars[k, b, c]
        ok = (stars[k, comp[a, b], c] == stars[k, a, s_bc]).all(axis=(1, 2, 3))
        ok &= (stars[k, a, comp[b, c]] == comp[stars[k, a, b], stars[k, a, c]]).all(
            axis=(1, 2, 3)
        )
        k2 = np.arange(count)[:, None, None]
        a2 = np.arange(3)[None, :, None]
        b2 = np.arange(3)[None, None, :]
        ok &= (comp[stars[k2, a2, b2], a2] == comp[a2, b2]).all(axis=(1, 2))
        survivors = np.flatnonzero(ok)
        assert survivors.size == 1
        forced = stars[survivors[0]]
        assert np.array_equal(forced, group_to_sigma(z3).star)
        assert np.array_equal(forced, conjugation_quandle(z3).table)


def test_ladder_spot_checks():
    with criterion(9, "ladder verdicts on the pinned example tables"):
        conj = conjugation_quandle(FiniteGroup.symmetric(3))
        ladder = classify(conj)
        assert ladder.is_quandle and not ladder.is_kei
        for size in range(1, 7):
            assert classify(oracles.trivial_kei(size)).is_kei
        report = check_axiom_ld(Magma([[1, 0], [0, 1]]))
        assert not report.holds
        assert report.witness == (0, 0, 0)
