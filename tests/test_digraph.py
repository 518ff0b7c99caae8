"""Digraph type, formats, enumeration, and the isomorphism search."""

import io
import random
import tracemalloc
from itertools import combinations, permutations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from networkx.algorithms.isomorphism import DiGraphMatcher

from keikit import (
    Bijection,
    Digraph,
    Magma,
    MalformedLine,
    OutOfRange,
    SelfLoop,
    TooLarge,
    apex_extension,
    decode_graph,
    detect_folded,
    digraph_from_pattern,
    encode_kei,
    enumerate_digraphs,
    find_graph_isomorphism,
    is_graph_isomorphism,
    is_magma_isomorphism,
    magma_iso_search,
    parse_edge_list,
    pattern_of,
    random_digraph,
    twin_involution,
)
from keikit.digraph import MAX_VERTICES
from keikit.textio import file_lines

import oracles


def test_bijection_basics():
    f = Bijection((2, 0, 1))
    assert f(0) == 2 and f.domain_size == 3
    assert f.inverse().map == (1, 2, 0)
    assert f.then(f.inverse()).map == (0, 1, 2)
    with pytest.raises(OutOfRange):
        Bijection((0, 0, 1))
    with pytest.raises(OutOfRange):
        Bijection((0, 1)).then(Bijection((0, 1, 2)))


def test_maps_of_non_integers_are_refused_not_truncated():
    edge = Digraph(2, [(0, 1)])
    assert not is_graph_isomorphism(edge, edge, (0.5, 1))
    assert not is_graph_isomorphism(edge, edge, ("0", "1"))
    with pytest.raises(OutOfRange):
        Bijection((1.9, 0.2))
    # the refusal of something that is not a sequence builds its own message
    for junk in (None, 5):
        with pytest.raises(OutOfRange, match=f"^map {junk!r} is not a permutation"):
            Bijection(junk)
    # vertices are integers too: neither truncated nor parsed
    for keep in ([0.5], ["1"], 5, None):
        with pytest.raises(OutOfRange):
            twin_involution(Digraph(3), keep)
    with pytest.raises(OutOfRange, match=r"^vertex must be an integer, got 1\.5$"):
        apex_extension(Digraph(3), [1.5])
    assert apex_extension(Digraph(3), [np.int64(1)]).edges() == [(3, 1)]
    # numpy integers are integers
    f = Bijection(tuple(np.array([1, 0], dtype=np.int32)))
    assert f.map == (1, 0) and all(type(x) is int for x in f.map)
    assert is_graph_isomorphism(edge, edge, np.arange(2))


def test_owned_bool_matrix_is_kept_read_only_and_others_are_copied():
    owned = np.zeros((2, 2), dtype=bool)
    owned[0, 1] = True
    g = Digraph(2, adj=owned)
    assert g.adj is owned and not owned.flags.writeable
    base = np.zeros((3, 3), dtype=bool)
    view = Digraph(2, adj=base[:2, :2])
    base[0, 1] = True
    assert not view.adj[0, 1] and base.flags.writeable
    rows = [[False, True], [False, False]]
    from_list = Digraph(2, adj=rows)
    rows[1][0] = True
    assert from_list.edges() == [(0, 1)]
    ints = np.array([[0, 1], [0, 0]], dtype=np.int64)
    assert not np.shares_memory(Digraph(2, adj=ints).adj, ints)
    rejected = np.eye(2, dtype=bool)
    with pytest.raises(SelfLoop):
        Digraph(2, adj=rejected)
    assert rejected.flags.writeable


def test_parse_edge_list_examples():
    g = parse_edge_list("1\n")
    assert g.n == 1 and g.edges() == []
    g = parse_edge_list("2\n0 1\n")
    assert g.edges() == [(0, 1)]
    with pytest.raises(SelfLoop) as exc:
        parse_edge_list("2\n0 0\n")
    assert exc.value.vertex == 0


def test_parse_edge_list_errors():
    with pytest.raises(OutOfRange):
        parse_edge_list("2\n0 5\n")
    with pytest.raises(MalformedLine):
        parse_edge_list("2\n0\n")
    with pytest.raises(MalformedLine):
        parse_edge_list("2\n0 x\n")
    with pytest.raises(MalformedLine):
        parse_edge_list("")
    with pytest.raises(MalformedLine):
        parse_edge_list("not a number\n")


@pytest.mark.parametrize("prefix", ["4\n", "4\n0 1\n", "# c\n4\n\n0 1\n# c\n2 3\n\n"])
@pytest.mark.parametrize("bad, error, message", [
    ("1 4", OutOfRange, "line {k}: edge (1, 4) outside 0..3"),
    ("3 -1", OutOfRange, "line {k}: edge (3, -1) outside 0..3"),
    ("4611686018427387904 0", OutOfRange, "line {k}: edge (4611686018427387904, 0) outside 0..3"),
    ("2 2", SelfLoop, "self-loop at vertex 2"),
    ("1", MalformedLine, "line {k}: '1' (expected two integers per edge line)"),
    ("0 1 2", MalformedLine, "line {k}: '0 1 2' (expected two integers per edge line)"),
    ("1 x", MalformedLine, "line {k}: '1 x' (expected integer, got 'x')"),
])
def test_edge_list_error_after_valid_prefix(prefix, bad, error, message):
    # the bad line is line k; a valid edge follows it
    k = prefix.count("\n") + 1
    with pytest.raises(error) as exc:
        parse_edge_list(prefix + bad + "\n1 0\n")
    assert type(exc.value) is error
    assert str(exc.value) == message.format(k=k)
    if error is MalformedLine:
        assert exc.value.lineno == k


def test_constructor_rejects_bad_edges():
    with pytest.raises(SelfLoop, match="^self-loop at vertex 1$"):
        Digraph(3, [(0, 2), (1, 1)])
    with pytest.raises(OutOfRange, match=r"^edge \(0, 3\) outside 0\.\.2$"):
        Digraph(3, [(0, 2), (0, 3)])
    with pytest.raises(OutOfRange, match=r"^edge \(-1, 0\) outside 0\.\.2$"):
        Digraph(3, [(-1, 0)])
    with pytest.raises(OutOfRange):
        Digraph(0)
    # counts and ends are integers by operator.index, and an edge is a pair
    for bad in (2.5, "3", None):
        with pytest.raises(OutOfRange, match=f"^vertex count must be an integer, got {bad!r}$"):
            Digraph(bad)
    with pytest.raises(OutOfRange, match=r"^edge end must be an integer, got 0\.5$"):
        Digraph(3, [(0.5, 1)])
    for edge in ((0, 1, 2), 0, "0"):
        with pytest.raises(OutOfRange, match="is not a pair of vertices$"):
            Digraph(3, [edge])
    with pytest.raises(OutOfRange, match="^edges 5 are not a collection of pairs$"):
        Digraph(3, 5)
    assert Digraph(np.int64(3), [(np.int32(0), 2)]).edges() == [(0, 2)]
    # a bool matrix takes bool or integer 0/1 entries, not truthiness
    for adj in ([[0, 0.5], ["", 0]], [[0, 2], [0, 0]], [[0, 1], [0]], [[[0, 1], [0, 0]]], np.zeros((2, 2))):
        with pytest.raises(OutOfRange):
            Digraph(2, adj=adj)
    assert Digraph(2, adj=[[0, 1], [0, 0]]) == Digraph(2, adj=np.array([[0, 1], [0, 0]], dtype=np.uint8))


def test_adjacency_relabel_and_pattern_guards():
    with pytest.raises(OutOfRange, match=r"^adjacency must be 2 by 2, got \(3, 3\)$"):
        Digraph(2, adj=[[False] * 3] * 3)
    with pytest.raises(SelfLoop, match="^self-loop at vertex 1$"):
        Digraph(2, adj=[[False, True], [False, True]])
    with pytest.raises(OutOfRange, match="^relabeling must cover every vertex exactly once$"):
        Digraph(2, [(0, 1)]).relabel((1, 0, 2))
    with pytest.raises(OutOfRange, match=r"^pattern 4 outside 0\.\.3 for n=2$"):
        digraph_from_pattern(2, 4)


def test_edge_list_is_read_and_written_line_by_line(tmp_path):
    # no list of edges while parsing, and no whole text while writing; at
    # 300 vertices the 64 KB runs of decoded lines that file_lines holds
    # would alone exceed half of the text, so the graph has 600
    g = Digraph(600, adj=~np.eye(600, dtype=bool))
    text = oracles.edge_list_text(g)
    source = io.BytesIO(text.encode())
    path = tmp_path / "complete600.txt"
    tracemalloc.start()
    try:
        parsed = parse_edge_list(file_lines(source, "complete600"))
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(g.to_lines())
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert parsed == g
    assert path.read_text(encoding="utf-8") == text
    assert parse_peak < len(text) / 2
    assert write_peak < len(text) / 8


@st.composite
def edge_list_graphs(draw):
    """Digraphs on 1 to 12 vertices: empty, complete, random, and random
    ones relabelled."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["empty", "complete", "random", "relabelled"]))
    if kind == "empty":
        return Digraph(n)
    if kind == "complete":
        return Digraph(n, adj=~np.eye(n, dtype=bool))
    g = random_digraph(n, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2 ** 30)))
    return g.relabel(draw(st.permutations(range(n)))) if kind == "relabelled" else g


@settings(max_examples=200, deadline=None, database=None)
@given(edge_list_graphs())
@example(Digraph(1))
@example(Digraph(3, [(0, 1), (2, 1)]))
@example(random_digraph(5, 0.4, 9))
def test_serialization_round_trip(g):
    text = "".join(g.to_lines())
    assert text == oracles.edge_list_text(g)
    assert g.to_edge_list() == text
    assert parse_edge_list(text) == g


def test_pattern_round_trip():
    for g in enumerate_digraphs(3):
        assert digraph_from_pattern(3, pattern_of(g)) == g
    assert pattern_of(Digraph(2, [(0, 1)])) == 2


@pytest.mark.parametrize("n", [1, 2, 120, 300])
def test_pattern_matches_oracle_and_round_trips(n):
    # at n=300 a pattern has 89,700 bits, past the 4,300-digit int-to-str limit
    for p in (0.0, 0.3, 1.0):
        g = random_digraph(n, p, n)
        pattern = pattern_of(g)
        assert pattern == oracles.pattern_bits(g)
        assert digraph_from_pattern(n, pattern) == g
    assert digraph_from_pattern(n, (1 << n * (n - 1)) - 1) == random_digraph(n, 1.0, 0)


def test_relabel():
    g = Digraph(3, [(0, 1), (1, 2)])
    p = Bijection((2, 0, 1))
    h = g.relabel(p)
    assert set(h.edges()) == {(2, 0), (0, 1)}
    assert sorted(h.out_degrees()) == sorted(g.out_degrees())
    assert sorted(h.adj.sum(axis=0)) == sorted(g.adj.sum(axis=0))


def _graph_table(g: Digraph) -> Magma:
    """u*v = v if u -> v else u, the table find_graph_isomorphism searches."""
    return Magma([[v if v == u or g.adj[u, v] else u for v in range(g.n)] for u in range(g.n)])


def test_degrees_are_the_fixed_point_labels_of_the_graph_table():
    rng = random.Random(5)
    small = [g for n in (1, 2, 3) for g in enumerate_digraphs(n)]
    sampled = [random_digraph(n, rng.random(), rng.randrange(2 ** 30)) for n in (*range(1, 41), 40, 40)]
    for g in small + sampled:
        assert g.degrees == _graph_table(g).invariant_labels()
        assert g.degrees is g.degrees
        # one label per (out-degree, in-degree) pair
        pairs = list(zip(g.out_degrees(), g.adj.sum(axis=0).tolist()))
        assert len(set(g.degrees)) == len(set(pairs))
        assert len(set(zip(g.degrees, pairs))) == len(set(pairs))
    for g in sampled:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(Bijection(tuple(perm)))
        assert [h.degrees[perm[v]] for v in range(g.n)] == list(g.degrees)


def test_is_graph_isomorphism_examples():
    edge = Digraph(2, [(0, 1)])
    back = Digraph(2, [(1, 0)])
    assert is_graph_isomorphism(edge, edge, Bijection((0, 1)))
    assert is_graph_isomorphism(edge, back, Bijection((1, 0)))
    assert not is_graph_isomorphism(edge, edge, Bijection((1, 0)))
    assert not is_graph_isomorphism(edge, Digraph(3), Bijection((0, 1)))


def test_find_isomorphism_examples():
    cycle = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    rotated = Digraph(3, [(1, 0), (0, 2), (2, 1)])
    found = find_graph_isomorphism(cycle, rotated)
    assert found is not None
    assert is_graph_isomorphism(cycle, rotated, found)

    path = Digraph(3, [(0, 1), (1, 2)])
    star = Digraph(3, [(0, 1), (0, 2)])
    assert find_graph_isomorphism(path, star) is None
    assert oracles.brute_graph_iso(path, star) is None

    empty4 = Digraph(4)
    assert find_graph_isomorphism(empty4, empty4) == Bijection(tuple(range(4)))


def test_find_isomorphism_against_brute_small():
    graphs = list(enumerate_digraphs(2)) + list(enumerate_digraphs(3))
    for g in graphs:
        for h in graphs:
            found = find_graph_isomorphism(g, h)
            brute = oracles.brute_graph_iso(g, h)
            assert (found is None) == (brute is None), (g, h)
            if found is not None:
                assert is_graph_isomorphism(g, h, found)
                assert found.map == brute


def test_find_isomorphism_against_brute_representatives():
    reps = list(enumerate_digraphs(4, dedupe=True))
    for i, g in enumerate(reps):
        for j, h in enumerate(reps):
            found = find_graph_isomorphism(g, h)
            assert (found is not None) == (i == j), (i, j)
            brute = oracles.brute_graph_iso(g, h)
            assert (found is None) == (brute is None)


def test_find_isomorphism_against_brute_seeded():
    rng = random.Random(20260825)
    for n in (5, 6):
        for _ in range(100):
            g = random_digraph(n, rng.random(), rng.randrange(2 ** 30))
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                h = g.relabel(Bijection(tuple(perm)))
            else:
                h = random_digraph(n, rng.random(), rng.randrange(2 ** 30))
            found = find_graph_isomorphism(g, h)
            brute = oracles.brute_graph_iso(g, h)
            assert (found is None) == (brute is None)
            if found is not None:
                assert is_graph_isomorphism(g, h, found)
                assert found.map == brute


def test_relabel_always_isomorphic():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 7)
        g = random_digraph(n, rng.random(), rng.randrange(2 ** 30))
        perm = list(range(n))
        rng.shuffle(perm)
        assert find_graph_isomorphism(g, g.relabel(Bijection(tuple(perm)))) is not None


def test_find_isomorphism_beyond_recursion_depth():
    # one assigned vertex per level: deeper than the interpreter's
    # default recursion limit
    n = 1100
    g = random_digraph(n, 0.5, 1100)
    perm = list(range(n))
    random.Random(1100).shuffle(perm)
    h = g.relabel(Bijection(tuple(perm)))
    found = find_graph_isomorphism(g, h)
    assert found is not None
    assert is_graph_isomorphism(g, h, found)


def _vf2_isomorphic(g, h):
    left, right = nx.DiGraph(), nx.DiGraph()
    left.add_nodes_from(range(g.n))
    left.add_edges_from(g.edges())
    right.add_nodes_from(range(h.n))
    right.add_edges_from(h.edges())
    return DiGraphMatcher(left, right).is_isomorphic()


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(Bijection(tuple(perm)))


def test_find_isomorphism_agrees_with_vf2():
    # networkx's VF2 is a third opinion on graph verdicts at orders brute force cannot reach
    rng = random.Random(7040)
    pairs = []
    for _ in range(60):
        n, p = rng.randint(7, 40), rng.random()
        g = random_digraph(n, p, rng.randrange(2 ** 30))
        other = random_digraph(n, p, rng.randrange(2 ** 30))
        pairs.append((g, _shuffled(g if rng.random() < 0.5 else other, rng)))
    for n in range(4, 15, 2):
        ring = Digraph(n, [(v, (v + 1) % n) for v in range(n)])
        two_rings = Digraph(n, [(v, v - v % (n // 2) + (v + 1) % (n // 2)) for v in range(n)])
        pairs.append((_shuffled(ring, rng), _shuffled(two_rings, rng)))
    for g, h in pairs:
        found = find_graph_isomorphism(g, h)
        assert (found is not None) == _vf2_isomorphic(g, h)
        assert found is None or is_graph_isomorphism(g, h, found)


def test_cfi_verdicts_agree_with_vf2():
    # CFI(K_4), 40 vertices, 3-regular, unrelabelled: degrees split no
    # vertex, and against its twist both searches backtrack through most
    # of the tree (about 0.5 s on the graph side and 1 s on the kei side)
    k4 = list(combinations(range(4), 2))
    g = oracles.cfi(k4)
    assert g.n == 40 and g.degrees == (g.degrees[0],) * 40
    verdicts = []
    for h in (g, oracles.cfi(k4, twisted=True)):
        graph = find_graph_isomorphism(g, h)
        kei = magma_iso_search(encode_kei(g).magma, encode_kei(h).magma)
        verdicts.append(_vf2_isomorphic(g, h))
        assert (graph is not None) == (kei is not None) == verdicts[-1]
    assert verdicts == [True, False]


def _shuffled_kei(g, rng):
    perm = list(range(2 * g.n))
    rng.shuffle(perm)
    return Magma(oracles.relabel_rows(encode_kei(g).magma.table.tolist(), perm))


def _decoded(m):
    return decode_graph(m, detect_folded(m))[0]


def test_kei_search_agrees_with_vf2_on_decoded_graphs():
    # kei verdicts above brute force's order 8, checked against VF2 on the
    # graphs read back from the keis alone, with neither engine's map in it
    rng = random.Random(7041)
    pairs = []
    for n in range(4, 17, 2):
        ring = Digraph(n, [(v, (v + 1) % n) for v in range(n)])
        two_rings = Digraph(n, [(v, v - v % (n // 2) + (v + 1) % (n // 2)) for v in range(n)])
        pairs.append((_shuffled(ring, rng), _shuffled(two_rings, rng)))
    for n in range(5, 17):
        z12, z13 = (Digraph(n, [(v, (v + s) % n) for v in range(n) for s in (1, t)]) for t in (2, 3))
        pairs += [(z12, z13), (z12, _shuffled(z12, rng)), (z13, _shuffled(z13, rng))]
    for _ in range(40):
        n, p = rng.randint(5, 16), rng.random()
        g = random_digraph(n, p, rng.randrange(2 ** 30))
        other = random_digraph(n, p, rng.randrange(2 ** 30))
        pairs.append((g, _shuffled(g if rng.random() < 0.5 else other, rng)))
    verdicts = set()
    for g, h in pairs:
        m, k = _shuffled_kei(g, rng), _shuffled_kei(h, rng)
        found = magma_iso_search(m, k)
        assert (found is not None) == _vf2_isomorphic(_decoded(m), _decoded(k))
        assert found is None or is_magma_isomorphism(m, k, found)
        verdicts.add(found is not None)
    assert verdicts == {True, False}


def test_enumeration_counts():
    assert len(list(enumerate_digraphs(1))) == 1
    assert len(list(enumerate_digraphs(2))) == 4
    graphs3 = list(enumerate_digraphs(3))
    assert len(graphs3) == 64
    patterns = [pattern_of(g) for g in graphs3]
    assert patterns == sorted(patterns) == list(range(64))
    with pytest.raises(TooLarge):
        next(enumerate_digraphs(6))
    for bad in (2.5, "3"):
        with pytest.raises(OutOfRange, match=f"^vertex count must be an integer, got {bad!r}$"):
            next(enumerate_digraphs(bad))


def test_dedupe_matches_brute_classes():
    for n in (2, 3):
        everything = list(enumerate_digraphs(n))
        reps = list(enumerate_digraphs(n, dedupe=True))
        # group all labeled graphs into classes with the brute oracle
        classes: list[Digraph] = []
        for g in everything:
            if not any(oracles.brute_graph_iso(g, c) is not None for c in classes):
                classes.append(g)
        assert len(reps) == len(classes)
        for rep in reps:
            assert sum(
                1 for c in classes if oracles.brute_graph_iso(rep, c) is not None
            ) == 1
    assert len(list(enumerate_digraphs(3, dedupe=True))) == 16


def test_dedupe_representatives_are_least_patterns():
    reps = list(enumerate_digraphs(4, dedupe=True))
    assert len(reps) == 218
    rng = random.Random(11)
    for rep in rng.sample(reps, 20):
        base = pattern_of(rep)
        perm = list(range(4))
        rng.shuffle(perm)
        relabeled = rep.relabel(Bijection(tuple(perm)))
        assert pattern_of(relabeled) >= base


def test_dedupe_at_five_vertices_keeps_each_least_pattern():
    reps = list(enumerate_digraphs(5, dedupe=True))
    assert len(reps) == 9608  # digraphs on 5 unlabelled vertices, OEIS A000273
    patterns = [pattern_of(g) for g in reps]
    assert patterns == sorted(set(patterns))
    perms = [Bijection(p) for p in permutations(range(5))]
    for rep in random.Random(5).sample(reps, 40):
        assert min(pattern_of(rep.relabel(p)) for p in perms) == pattern_of(rep)


def test_random_digraph():
    assert random_digraph(3, 0.0, 1).edges() == []
    complete = random_digraph(3, 1.0, 1)
    assert len(complete.edges()) == 6
    a = random_digraph(5, 0.5, 42)
    b = random_digraph(5, 0.5, 42)
    assert a == b
    assert a.to_edge_list() == b.to_edge_list()
    with pytest.raises(OutOfRange):
        random_digraph(3, 1.5, 0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: random_digraph(3, "x", 0), "edge probability 'x' outside [0, 1]"),
        (lambda: random_digraph(3, 0.5, [1]), "seed must be an integer, got [1]"),
        (lambda: random_digraph(3, 0.5, 1.0), "seed must be an integer, got 1.0"),
        (lambda: digraph_from_pattern(2.5, 0), "vertex count must be an integer, got 2.5"),
        (lambda: digraph_from_pattern(2, 0.5), "pattern must be an integer, got 0.5"),
        (lambda: digraph_from_pattern(-1, 0), "a digraph needs at least one vertex"),
    ],
    ids=["p-str", "seed-list", "seed-float", "pattern-n-float", "pattern-float", "pattern-n-negative"],
)
def test_random_and_pattern_builders_refuse_junk(make, message):
    with pytest.raises(OutOfRange) as exc:
        make()
    assert str(exc.value) == message


def test_vertex_count_above_limit_refused():
    assert Digraph(MAX_VERTICES).n == MAX_VERTICES
    too_many = MAX_VERTICES + 1
    with pytest.raises(TooLarge):
        Digraph(too_many)
    with pytest.raises(TooLarge):
        random_digraph(too_many, 0.5, 0)
    with pytest.raises(TooLarge):
        parse_edge_list(f"{too_many}\n0 1\n")
