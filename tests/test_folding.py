"""Dynamical quandles, the digraph kei, folding detection, decoding."""

import random
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keikit import (
    Bijection,
    Digraph,
    FoldedWitness,
    InvalidWitness,
    Magma,
    MalformedLine,
    NotAKei,
    NotBijective,
    NotReplete,
    OutOfRange,
    WitnessMismatch,
    apex_extension,
    classify,
    decode_graph,
    derive_dynamical_quandle,
    detect_folded,
    detect_folded_all,
    encode_kei,
    enumerate_digraphs,
    is_magma_isomorphism,
    twin_involution,
)
from keikit import folding

import oracles

EDGE = Digraph(2, [(0, 1)])

# involutory throughout, yet no fixed-point-free involution makes it a
# folded table: rows 0,1,3 are the identity but row 3's column pattern
# prevents pairing 3 with 2
NOT_FOLDED_KEI = Magma([[0, 1, 2, 3], [0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 2, 3]])


def test_derive_trivial():
    m = derive_dynamical_quandle(2, (1, 0), [[True, True], [True, True]])
    assert m == oracles.trivial_kei(2)


def test_derive_shift_pairing_kei():
    tau = tuple((a + 2) % 4 for a in range(4))
    phi = [[a in (b, (b + 2) % 4) for b in range(4)] for a in range(4)]
    m = derive_dynamical_quandle(4, tau, phi)
    assert classify(m).is_kei
    oracles.assert_core_invariants(m)


def test_derive_rejects_non_replete():
    phi = [[a == b for b in range(3)] for a in range(3)]
    with pytest.raises(NotReplete) as exc:
        derive_dynamical_quandle(3, (1, 2, 0), phi)
    assert exc.value.pair == (0, 0)
    with pytest.raises(NotReplete) as exc:
        derive_dynamical_quandle(2, (1, 0), [[False, True], [True, True]])
    assert exc.value.pair == (0, 0)


def test_derive_rejects_phi_of_the_wrong_shape():
    with pytest.raises(OutOfRange) as exc:
        derive_dynamical_quandle(2, (1, 0), [[True, True]])
    assert str(exc.value) == "phi must be 2 by 2, got (1, 2)"


def test_derive_rejects_non_permutation():
    with pytest.raises(NotBijective):
        derive_dynamical_quandle(2, (0, 0), [[True, True], [True, True]])


def test_derive_non_involution_gives_quandle_not_kei():
    # tau has a 3-cycle {0,1,2} and a swap {3,4}; phi(b) = orbit of b
    tau = (1, 2, 0, 4, 3)
    orbit = [{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {3, 4}, {3, 4}]
    phi = [[a in orbit[b] for b in range(5)] for a in range(5)]
    m = derive_dynamical_quandle(5, tau, phi)
    ladder = classify(m)
    assert ladder.is_quandle and not ladder.is_kei


def test_encode_examples():
    one = encode_kei(Digraph(1))
    assert one.magma == oracles.trivial_kei(2)
    complete2 = encode_kei(Digraph(2, [(0, 1), (1, 0)]))
    assert complete2.magma == oracles.trivial_kei(4)
    edge = encode_kei(EDGE)
    assert edge.magma.table.tolist() == [
        [0, 1, 2, 3],
        [0, 1, 2, 3],
        [1, 0, 2, 3],
        [1, 0, 2, 3],
    ]


def test_encode_matches_direct_definition():
    for n in (1, 2, 3):
        for g in enumerate_digraphs(n):
            expected = oracles.direct_encode_rows(g)
            assert encode_kei(g).magma.table.tolist() == expected


def test_encoded_keis_are_keis_with_coherent_twins():
    for n in (1, 2, 3):
        for g in enumerate_digraphs(n):
            m = encode_kei(g).magma
            assert classify(m).is_kei
            rows = m.table.tolist()
            for x in range(m.n):
                for y in range(m.n):
                    assert rows[x][y] in (y, y ^ 1)


def test_twin_involution_examples():
    g = Digraph(3, [(0, 1)])
    assert twin_involution(g, (0, 1, 2)) == Bijection(tuple(range(6)))
    single = Digraph(1)
    assert twin_involution(single, ()).map == (1, 0)
    swap_v0 = twin_involution(EDGE, (1,))
    assert swap_v0.map == (1, 0, 2, 3)
    rows = encode_kei(EDGE).magma.table.tolist()
    for x in range(4):
        for y in range(4):
            assert swap_v0.map[rows[x][y]] == rows[swap_v0.map[x]][swap_v0.map[y]]
    with pytest.raises(OutOfRange):
        twin_involution(EDGE, (5,))


def test_apex_examples():
    single = Digraph(1)
    assert apex_extension(single, ()).edges() == []
    assert apex_extension(single, ()).n == 2
    assert apex_extension(single, (0,)).edges() == [(1, 0)]
    extended = apex_extension(EDGE, (1,))
    assert extended.n == 3
    assert set(extended.edges()) == {(0, 1), (2, 1)}
    big = encode_kei(extended).magma
    restricted = tuple(int(big.table[4, x]) for x in range(4))
    assert restricted == (1, 0, 2, 3)
    with pytest.raises(OutOfRange):
        apex_extension(EDGE, (2,))


def test_detect_trivial_sizes():
    w = detect_folded(oracles.trivial_kei(2))
    assert w is not None
    assert w.tau == (1, 0)
    assert w.phi.tolist() == [[True, True], [True, True]]
    assert not w.phi.flags.writeable
    assert detect_folded(oracles.trivial_kei(3)) is None
    assert detect_folded(oracles.trivial_kei(4)) is not None


def test_kei_cached_on_its_graph():
    graph = Digraph(3, [(0, 1), (2, 1)])
    encoded = encode_kei(graph)
    assert encode_kei(graph).magma is encoded.magma
    assert encode_kei(graph) == encoded
    # no process-wide cache keeps the kei alive once its graph is gone
    kei = weakref.ref(encoded.magma)
    del graph, encoded
    assert kei() is None


def test_graph_and_kei_keep_their_labels_in_slots():
    graph = Digraph(3, [(0, 1), (2, 1)])
    kei = encode_kei(graph).magma
    degrees, labels = graph.degrees, kei.invariant_labels()
    assert not hasattr(graph, "__dict__") and not hasattr(kei, "__dict__")
    assert encode_kei(graph).magma is kei
    assert graph.degrees is degrees and kei.invariant_labels() is labels


def test_witness_equality_survives_text_round_trip():
    empty = detect_folded(encode_kei(Digraph(2)).magma)
    edge = detect_folded(encode_kei(EDGE).magma)
    assert empty.tau == edge.tau and empty != edge
    witnesses = [empty, edge, *detect_folded_all(oracles.trivial_kei(4))]
    for w in witnesses:
        back = FoldedWitness.from_text(w.to_text())
        assert back == w and hash(back) == hash(w)
        assert np.array_equal(back.phi, w.phi)
    assert len(set(witnesses)) == len(witnesses)


def test_detect_rejects_non_kei():
    with pytest.raises(NotAKei):
        detect_folded(Magma([[1, 0], [0, 1]]))
    addition_mod_4 = Magma([[(a + b) % 4 for b in range(4)] for a in range(4)])
    with pytest.raises(NotAKei):
        detect_folded(addition_mod_4)


def test_detect_against_involution_oracle():
    batteries = [encode_kei(g).magma for n in (1, 2, 3) for g in enumerate_digraphs(n)]
    batteries += [oracles.dihedral_kei(k) for k in (2, 4, 6, 8)]
    batteries += [oracles.trivial_kei(k) for k in range(1, 7)]
    batteries += [NOT_FOLDED_KEI]
    for m in batteries:
        if not classify(m).is_kei:
            continue
        expected = oracles.folded_witness_taus(m)
        got = [w.tau for w in detect_folded_all(m)]
        assert sorted(got) == sorted(expected), m.table.tolist()
        for w in detect_folded_all(m):
            assert w.to_magma() == m


def test_detect_dihedral():
    assert classify(oracles.dihedral_kei(6)).is_kei
    assert detect_folded(oracles.dihedral_kei(6)) is None
    w = detect_folded(oracles.dihedral_kei(4))
    assert w is not None and w.tau == (2, 3, 0, 1)
    assert detect_folded(NOT_FOLDED_KEI) is None
    assert classify(NOT_FOLDED_KEI).is_kei


def test_decode_trivial_and_dihedral():
    m = oracles.trivial_kei(2)
    graph, mapping = decode_graph(m, detect_folded(m))
    assert graph == Digraph(1)
    assert is_magma_isomorphism(encode_kei(graph).magma, m, mapping)

    d4 = oracles.dihedral_kei(4)
    graph, mapping = decode_graph(d4, detect_folded(d4))
    assert graph == Digraph(2)
    assert is_magma_isomorphism(encode_kei(graph).magma, d4, mapping)


def test_decode_round_trip_exhaustive_small():
    for n in (1, 2, 3):
        for g in enumerate_digraphs(n):
            m = encode_kei(g).magma
            witness = detect_folded(m)
            assert witness is not None
            decoded, mapping = decode_graph(m, witness)
            # the first witness pairs twins in encoding order, so the
            # round trip is the identity, not just an isomorphism
            assert decoded == g
            assert mapping.map == tuple(range(2 * n))
            assert is_magma_isomorphism(encode_kei(decoded).magma, m, mapping)


def test_decode_witness_mismatch():
    d4 = oracles.dihedral_kei(4)
    witness = detect_folded(d4)
    with pytest.raises(WitnessMismatch):
        decode_graph(oracles.trivial_kei(4), witness)


def test_witness_validation():
    with pytest.raises(NotBijective):
        FoldedWitness((0, 0), [[True, True], [True, True]])
    with pytest.raises(NotBijective):  # int() would truncate this to (1, 0, 3, 2)
        FoldedWitness([1.5, 0, 3, 2], [[True] * 4] * 4)
    assert FoldedWitness(np.array([1, 0], dtype=np.int32), [[True, True], [True, True]]).tau == (1, 0)
    with pytest.raises(InvalidWitness):
        FoldedWitness((0, 1), [[True, True], [True, True]])
    with pytest.raises(InvalidWitness):
        FoldedWitness((1, 2, 0, 3), [[True] * 4] * 4)
    with pytest.raises(NotReplete):
        FoldedWitness((1, 0), [[True, False], [True, True]])
    # a tau that is no sequence, or a ragged one, is refused with its own repr
    for tau in (None, 5, [[1], [0, 1]]):
        with pytest.raises(NotBijective, match=rf"^tau {re.escape(repr(tau))} is not a permutation of 0\.\.1$"):
            FoldedWitness(tau, [[True, True], [True, True]])
    with pytest.raises(NotBijective, match=r"^tau None is not a permutation of 0\.\.1$"):
        derive_dynamical_quandle(2, None, [[True, True], [True, True]])
    # phi takes bool or integer 0/1 entries, not truthiness
    for phi in ([[1, "x"], ["y", 2.5]], [[1, 2], [2, 1]], [[1, 1], [1]]):
        with pytest.raises(OutOfRange):
            FoldedWitness([1, 0], phi)
        with pytest.raises(OutOfRange):
            derive_dynamical_quandle(2, [1, 0], phi)
    assert FoldedWitness([1, 0], [[1, 1], [1, 1]]).phi.dtype == bool


def test_witness_text_round_trip():
    for m in [oracles.trivial_kei(2), oracles.dihedral_kei(4), encode_kei(EDGE).magma]:
        w = detect_folded(m)
        again = FoldedWitness.from_text(w.to_text())
        assert again == w
    spaced = "4\n2 3 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0\n0 1 0 1\n"
    packed = "4\n2 3 0 1\n1010\n0101\n1010\n0101\n"
    assert FoldedWitness.from_text(spaced) == FoldedWitness.from_text(packed)


@pytest.mark.parametrize(
    "text",
    [
        "4\n2 3 0 1\n1010\n0101\n1010\n",
        "4\n2 3 0 1\n1010\n0101\n1010\nxyzw\n",
        "4\n2 3 0 1\n101\n0101\n1010\n0101\n",
        "4\n2 3 0\n1010\n0101\n1010\n0101\n",
    ],
)
def test_witness_text_malformed(text):
    with pytest.raises(MalformedLine):
        FoldedWitness.from_text(text)


def test_encoded_kei_text_has_header_and_parses():
    enc = encode_kei(EDGE)
    text = enc.to_text()
    first = text.splitlines()[0]
    assert first.startswith("#") and "n_vertices=2" in first
    assert Magma.from_text(text) == enc.magma


def test_encoded_kei_is_written_line_by_line(tmp_path):
    # encode and enumerate --keis write to_lines(); its text is never whole
    enc = encode_kei(Digraph(512))
    text = enc.to_text()
    path = tmp_path / "k512.kei"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(enc.to_lines())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == text
    assert peak < len(text) / 8


def test_detect_order_matches_oracle():
    batteries = [encode_kei(g).magma for n in (1, 2, 3) for g in enumerate_digraphs(n)]
    batteries += [oracles.dihedral_kei(k) for k in (2, 4, 6, 8)]
    batteries += [oracles.trivial_kei(k) for k in range(1, 9)]
    batteries += [NOT_FOLDED_KEI]
    rng = random.Random(3)
    for g in enumerate_digraphs(3):
        perm = list(range(6))
        rng.shuffle(perm)
        batteries.append(Magma(oracles.relabel_rows(encode_kei(g).magma.table.tolist(), perm)))
    for m in batteries:
        if not classify(m).is_kei:
            continue
        assert [w.tau for w in detect_folded_all(m)] == oracles.folded_witness_taus(m), m.table.tolist()


def test_pairings_match_involution_oracle():
    # keys drawn from two values, so some positions cannot pair
    for k in range(7):
        for bits in range(1 << k):
            keys = [(bits >> i) & 1 for i in range(k)]
            got = []
            for pairing in folding._pairings(keys):
                tau = [0] * k
                for i, j in pairing:
                    tau[i], tau[j] = j, i
                got.append(tuple(tau))
            expected = [
                tau for tau in oracles.fpf_involutions(k)
                if all(keys[i] == keys[tau[i]] for i in range(k))
            ]
            assert got == expected, keys


def test_pairings_beyond_recursion_depth():
    first = next(folding._pairings([b""] * 2100))
    assert first == [(i, i + 1) for i in range(0, 2100, 2)]


@st.composite
def folded_tables(draw):
    """Folds of random valid witnesses of order <= 10 (tau a random
    fixed-point-free involution, phi constant on pairs of tau pairs and
    true on each pair itself, which is what replete means), and
    relabelled encodings of random digraphs on <= 6 vertices."""
    if draw(st.booleans()):
        n = 2 * draw(st.integers(1, 5))
        order = draw(st.permutations(range(n)))
        tau, pair = [0] * n, [0] * n
        for i in range(0, n, 2):
            a, b = order[i], order[i + 1]
            tau[a], tau[b] = b, a
            pair[a] = pair[b] = i // 2
        member = [[i == j or draw(st.booleans()) for j in range(n // 2)] for i in range(n // 2)]
        phi = [[member[pair[a]][pair[b]] for b in range(n)] for a in range(n)]
        return FoldedWitness(tau, phi).to_magma()
    n = draw(st.integers(1, 6))
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and draw(st.booleans())]
    rows = encode_kei(Digraph(n, edges)).magma.table.tolist()
    return Magma(oracles.relabel_rows(rows, draw(st.permutations(range(2 * n)))))


@settings(max_examples=100, deadline=None, database=None)
@given(folded_tables())
def test_folds_are_keis_and_detected(m):
    rows = m.table.tolist()
    assert oracles.first_ld_violation(rows) is None
    assert oracles.first_division_violation(rows) is None
    assert oracles.first_idempotence_violation(rows) is None
    assert oracles.first_involutory_violation(rows) is None
    assert [w.tau for w in detect_folded_all(m)] == oracles.folded_witness_taus(m)
    assert folding.is_folded(m)
