"""Property tests against the loop oracles and the brute-force search.

For the blocked identity checks the block size is shrunk to one value
of the first variable per block, so every check walks several blocks
and has to carry the block offset into its witnesses and keep
lexicographic order across blocks.
"""

from contextlib import contextmanager
from itertools import permutations
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from keikit import magma
from keikit.magma import (
    ASSOCIATIVITY,
    AXIOM_LD,
    MAX_ORDER,
    Magma,
    check_axiom_idempotent,
    check_axiom_involutory,
    check_axiom_ld,
    check_axiom_unique_left_division,
    _column_scan,
    _interchangeable,
    violations,
)
from keikit.digraph import (
    Bijection,
    Digraph,
    digraph_from_pattern,
    enumerate_digraphs,
    is_graph_isomorphism,
    random_digraph,
)
from keikit.errors import InvalidIso, KeikitError, NotAGroup
from keikit.folding import (
    FoldedWitness,
    apex_extension,
    derive_dynamical_quandle,
    encode_kei,
    twin_involution,
)
from keikit.groups import FiniteGroup, conjugation_quandle, standard_groups
from keikit.iso import (
    extract_graph_iso,
    induced_kei_iso,
    is_magma_isomorphism,
    magma_iso_bruteforce,
    magma_iso_bruteforce_all,
    magma_iso_search,
)
from keikit.sigma import SigmaAlgebra, check_sigma_identities, group_to_sigma

import oracles


def near(rows, draw):
    """rows with one cell changed, so the least violation can sit late."""
    n = len(rows)
    cell = st.integers(0, n - 1)
    rows = [list(row) for row in rows]
    rows[draw(cell)][draw(cell)] = draw(cell)
    return rows


def random_rows(n, draw):
    return [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]


@st.composite
def tables(draw):
    """Random tables, and near-keis."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return random_rows(n, draw)
    return near(oracles.dihedral_kei(n).table.tolist(), draw)


@st.composite
def ld_tables(draw):
    """Tables on which left distributivity holds, relabelled, and the
    same tables with one cell changed or two cells of a row swapped;
    returns whether the law holds by construction, and the rows.

    The families: dihedral keis R_n, conjugation quandles of groups,
    permutation racks a*b = s(b), Alexander quandles
    a*b = t*b + (1-t)*a mod n with t a unit, and trivial quandles
    a*b = b of odd order (every element a generator, all rows equal).
    A swap keeps every row a permutation, so only the generator
    certificate can catch it.  The last family, rows drawn from a pool
    of at most three permutations, is not LD in general; its many equal
    rows test that the scan keeps the least generator of each row.
    """
    family = draw(st.sampled_from(
        ["dihedral", "conjugation", "permutation", "alexander", "trivial", "pool"]
    ))
    if family == "dihedral":
        rows = oracles.dihedral_kei(draw(st.integers(1, 12))).table.tolist()
    elif family == "conjugation":
        group = draw(st.sampled_from([*standard_groups(), FiniteGroup.symmetric(4)]))
        rows = conjugation_quandle(group).table.tolist()
    elif family == "permutation":
        perm = draw(st.permutations(range(draw(st.integers(1, 10)))))
        rows = [list(perm) for _ in perm]
    elif family == "trivial":
        rows = oracles.trivial_kei(2 * draw(st.integers(0, 7)) + 1).table.tolist()
    elif family == "pool":
        n = draw(st.integers(3, 6))
        pool = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
        rows = [list(draw(st.sampled_from(pool))) for _ in range(n)]
    else:
        n = draw(st.integers(2, 12))
        t = draw(st.sampled_from([u for u in range(1, n) if gcd(u, n) == 1]))
        rows = [[(t * b + (1 - t) * a) % n for b in range(n)] for a in range(n)]
    n = len(rows)
    rows = oracles.relabel_rows(rows, draw(st.permutations(range(n))))
    change = draw(st.sampled_from(["none", "cell", "swap"]))
    if change == "cell":
        rows = near(rows, draw)
    elif change == "swap":
        a, b, c = (draw(st.integers(0, n - 1)) for _ in range(3))
        rows[a][b], rows[a][c] = rows[a][c], rows[a][b]
    return family != "pool" and change == "none", rows


# rows from a pool of two permutations, where the least witness (0, 0, 1)
# is at generator 0 and generator 1 shares its row
@example((False, [[5, 1, 0, 4, 3, 2], [5, 1, 0, 4, 3, 2], [0, 4, 5, 1, 3, 2],
                  [0, 4, 5, 1, 3, 2], [5, 1, 0, 4, 3, 2], [0, 4, 5, 1, 3, 2]]))
@settings(max_examples=300, deadline=None, database=None)
@given(ld_tables())
def test_ld_certificate_matches_oracle(case):
    holds, rows = case
    expected = oracles.first_ld_violation(rows)
    if holds:
        assert expected is None
    m = Magma(rows)
    assert check_axiom_ld(m).witness == expected
    with one_a_per_block():
        assert check_axiom_ld(m).witness == expected


@st.composite
def comp_star_pairs(draw):
    """Random table pairs, and group sigma algebras with one cell changed."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return random_rows(n, draw), random_rows(n, draw)
    group = draw(st.sampled_from([g for g in standard_groups() if g.n == n]))
    algebra = group_to_sigma(group)
    comp, star = algebra.comp.tolist(), algebra.star.tolist()
    if draw(st.booleans()):
        return near(comp, draw), star
    return comp, near(star, draw)


@contextmanager
def one_a_per_block():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(magma, "_BLOCK_CELLS", 1)
        yield


@settings(max_examples=150, deadline=None, database=None)
@given(tables())
def test_axiom_witnesses_match_oracles(rows):
    m = Magma(rows)
    with one_a_per_block():
        assert check_axiom_ld(m).witness == oracles.first_ld_violation(rows)
        assert check_axiom_unique_left_division(m).witness == oracles.first_division_violation(rows)
        assert check_axiom_idempotent(m).witness == oracles.first_idempotence_violation(rows)
        assert check_axiom_involutory(m).witness == oracles.first_involutory_violation(rows)
        assert list(violations(m, AXIOM_LD)) == oracles.all_ld_violations(rows)
        first_associativity = next(violations(m, ASSOCIATIVITY), None)
        assert first_associativity == oracles.direct_sigma_violations(rows, rows)["sigma-1"]


@settings(max_examples=150, deadline=None, database=None)
@given(comp_star_pairs())
def test_sigma_reports_match_oracle(pair):
    comp, star = pair
    with one_a_per_block():
        reports = check_sigma_identities(SigmaAlgebra(comp, star))
    assert {r.axiom: r.witness for r in reports} == oracles.direct_sigma_violations(comp, star)
    assert all(r.holds == (r.witness is None) for r in reports)


@st.composite
def group_like_tables(draw):
    """Relabelled group tables, some with one cell changed, and random
    tables with an identity planted in them."""
    if draw(st.booleans()):
        group = draw(st.sampled_from([*standard_groups(), FiniteGroup.symmetric(3)]))
        rows = oracles.relabel_rows(group.comp.tolist(), draw(st.permutations(range(group.n))))
        return near(rows, draw) if draw(st.booleans()) else rows
    n = draw(st.integers(1, 5))
    rows = random_rows(n, draw)
    e = draw(st.integers(0, n - 1))
    for x in range(n):
        rows[e][x] = rows[x][e] = x
    return rows


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(group_like_tables(), tables()))
def test_group_identity_and_inverses_match_oracle(rows):
    expected = oracles.group_identity_and_inverses(rows)
    try:
        group = FiniteGroup(rows)
    except NotAGroup as exc:
        if isinstance(expected, str):
            assert str(exc) == expected
        else:
            assert str(exc).startswith("composition is not associative")
        return
    assert (group.identity, group.inv.tolist()) == expected


@st.composite
def magma_with_relabelling_and_other(draw, max_order=5):
    """A random table of order <= max_order, a random relabelling of it,
    and an independent random table of the same order.  Entries of both
    tables come from one random prefix of the carrier, so repeated
    values, symmetric tables and isomorphic independent pairs are
    common."""
    n = draw(st.integers(1, max_order))
    entry = st.integers(0, draw(st.integers(0, n - 1)))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    other = [[draw(entry) for _ in range(n)] for _ in range(n)]
    perm = draw(st.permutations(range(n)))
    return rows, oracles.relabel_rows(rows, perm), other


@settings(max_examples=300, deadline=None, database=None)
@given(magma_with_relabelling_and_other(max_order=4))
def test_validation_accepts_exactly_the_isomorphisms_of_a_cell_by_cell_scan(tables):
    rows, relabelled, other = tables
    m, n = Magma(rows), len(rows)
    for target in (Magma(relabelled), Magma(other)):
        accepted = [f for f in permutations(range(n)) if is_magma_isomorphism(m, target, f)]
        assert accepted == oracles.magma_isomorphisms(rows, target.table.tolist())
        # a map that is not a bijection of the carrier is no isomorphism
        assert not is_magma_isomorphism(m, target, tuple(range(n + 1)))
        assert n == 1 or not is_magma_isomorphism(m, target, (0,) * n)
    # nor is any map between carriers of different sizes
    bigger = Magma([row + [n] for row in rows] + [[n] * (n + 1)])
    assert not is_magma_isomorphism(m, bigger, tuple(range(n)))
    assert not is_magma_isomorphism(bigger, m, tuple(range(n + 1)))


@st.composite
def symmetric_pairs(draw, max_order=8):
    """Two tables of one order at most max_order from one family rich in
    automorphisms, and a relabelling of the first: keis of two digraphs
    on the same vertices; dihedral and trivial keis and conjugation
    quandles; tables whose rows come from one pool of permutations."""
    family = draw(st.sampled_from(["encoded", "kei", "pool"]))
    if family == "encoded":
        n = draw(st.integers(1, max_order // 2))
        first, second = (encode_kei(draw(digraphs(n, n))).magma.table.tolist() for _ in range(2))
    elif family == "kei":
        n = draw(st.integers(1, max_order))
        same_order = [oracles.dihedral_kei(n).table.tolist(), oracles.trivial_kei(n).table.tolist()]
        same_order += [conjugation_quandle(g).table.tolist() for g in standard_groups() if g.n == n]
        first, second = draw(st.sampled_from(same_order)), draw(st.sampled_from(same_order))
    else:
        n = draw(st.integers(1, min(7, max_order)))
        pool = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
        first, second = ([draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(2))
    perm = draw(st.permutations(range(len(first))))
    return first, oracles.relabel_rows(first, perm), second


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(magma_with_relabelling_and_other(), symmetric_pairs(max_order=6)))
def test_bruteforce_lists_the_isomorphisms_of_a_cell_by_cell_scan(tables):
    # against itself and its relabelling some map exists; against the other table often none;
    # symmetric pairs keep many permutations through every row
    rows, relabelled, other = tables
    m = Magma(rows)
    for target in (rows, relabelled, other):
        found = [f.map for f in magma_iso_bruteforce_all(m, Magma(target))]
        assert found == oracles.magma_isomorphisms(rows, target)


@settings(max_examples=500, deadline=None, database=None)
@given(st.one_of(magma_with_relabelling_and_other(), symmetric_pairs()))
def test_search_agrees_with_bruteforce_on_any_magma(tables):
    # symmetric pairs are rich in interchangeable elements, which the search prunes
    rows, relabelled, other = tables
    m = Magma(rows)
    for target in (Magma(relabelled), Magma(other)):
        found = magma_iso_search(m, target)
        assert found == magma_iso_bruteforce(m, target)
        assert found is None or is_magma_isomorphism(m, target, found)


@st.composite
def digraphs(draw, max_n=8, min_n=1):
    """A random irreflexive digraph on min_n to max_n vertices."""
    n = draw(st.integers(min_n, max_n))
    adj = [[u != v and draw(st.booleans()) for v in range(n)] for u in range(n)]
    return Digraph(n, adj=adj)


@settings(max_examples=200, deadline=None, database=None)
@given(digraphs(max_n=4))
def test_graph_validation_accepts_exactly_the_automorphisms(g):
    accepted = [f for f in permutations(range(g.n)) if is_graph_isomorphism(g, g, f)]
    assert accepted == oracles.graph_automorphisms(g)


@st.composite
def keis(draw):
    """Keis of order at most 8: encoded digraphs, dihedral and trivial keis."""
    family = draw(st.sampled_from(["encoded", "dihedral", "trivial"]))
    if family == "encoded":
        return encode_kei(draw(digraphs(4))).magma.table.tolist()
    n = draw(st.integers(1, 8))
    return (oracles.dihedral_kei(n) if family == "dihedral" else oracles.trivial_kei(n)).table.tolist()


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(keis(), tables()), st.data())
def test_labels_of_a_relabelled_table_are_the_permuted_labels(rows, data):
    perm = data.draw(st.permutations(range(len(rows))))
    labels = Magma(rows).invariant_labels()
    relabelled = Magma(oracles.relabel_rows(rows, perm)).invariant_labels()
    assert [relabelled[perm[a]] for a in range(len(rows))] == list(labels)


@settings(max_examples=300, deadline=None, database=None)
@given(digraphs())
def test_kei_labels_split_elements_by_vertex_degrees(g):
    # two elements share a label exactly when their vertices share (out-degree, in-degree)
    degrees = list(zip(g.out_degrees(), g.adj.sum(axis=0).tolist()))
    labels = encode_kei(g).magma.invariant_labels()
    for x in range(2 * g.n):
        for y in range(2 * g.n):
            assert (labels[x] == labels[y]) == (degrees[x // 2] == degrees[y // 2])


@st.composite
def permutation_row_tables(draw):
    """Relabelled tables of order at most 8 whose rows are all
    permutations: keis of digraphs, dihedral keis, conjugation quandles,
    and random tables with rows from a pool of permutations (a small
    pool gives many automorphisms)."""
    family = draw(st.sampled_from(["encoded", "dihedral", "conjugation", "pool"]))
    if family == "encoded":
        rows = encode_kei(draw(digraphs(4))).magma.table.tolist()
    elif family == "dihedral":
        rows = oracles.dihedral_kei(draw(st.integers(1, 8))).table.tolist()
    elif family == "conjugation":
        rows = conjugation_quandle(draw(st.sampled_from(standard_groups()))).table.tolist()
    else:
        n = draw(st.integers(1, 7))
        pool = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=n))
        rows = [draw(st.sampled_from(pool)) for _ in range(n)]
    return oracles.relabel_rows(rows, draw(st.permutations(range(len(rows)))))


def engine_classes(rows) -> list[tuple[int, ...]]:
    """The union of the classes that magma._interchangeable finds in each
    label class of the table, listed as the oracle lists them."""
    scan = _column_scan(rows)
    assert scan  # every row is a permutation
    groups: dict[int, list[int]] = {}
    for y, label in enumerate(Magma(rows).invariant_labels()):
        groups.setdefault(label, []).append(y)
    members: dict[int, list[int]] = {}
    for group in groups.values():
        classes = _interchangeable(rows, group, *scan)
        assert not classes or sorted(classes) == group
        for y, least in classes.items():
            members.setdefault(least, []).append(y)
    return sorted(tuple(m) for m in members.values() if len(m) > 1)


@settings(max_examples=300, deadline=None, database=None)
@given(permutation_row_tables(), st.data())
def test_interchangeable_classes_match_oracle(rows, data):
    assert engine_classes(rows) == oracles.transposition_classes(rows)
    n = len(rows)
    if n > 1:
        # a row that repeats a value: such a table gets no classes
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1).filter(lambda c: c != b))
        rows[a][b] = rows[a][c]
        assert _column_scan(rows) == ()


@st.composite
def fixed_vertex_relabellings(draw, max_n=8):
    """A digraph g on at most max_n vertices with fixed vertices, those
    that every other vertex points at, a relabelling h, g relabelled by
    it, and a list of vertices to keep from a twin involution.  Fixed
    vertices often share one out-neighbourhood, so that their kei rows
    are equal."""
    n = draw(st.integers(1, max_n))
    adj = draw(digraphs(n, n)).adj.copy()
    fixed = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    if draw(st.booleans()):
        adj[fixed] = adj[fixed[0]]
    adj[:, fixed] = True
    np.fill_diagonal(adj, False)
    g = Digraph(n, adj=adj)
    perm = draw(st.permutations(range(n)))
    return g, Bijection(tuple(perm)), g.relabel(perm), draw(st.lists(st.integers(0, n - 1)))


@st.composite
def scattered_twin_isos(draw):
    """A digraph g on at most 8 vertices with fixed vertices, a
    relabelling h of it, and a kei isomorphism from g's kei to h's that
    may scatter twins of fixed vertices: the lifted relabelling, then a
    twin involution, then a permutation of the elements fixed by
    everything within classes of equal kei rows.  The last is an
    automorphism, since the columns of those elements are all identity
    and the other elements never change."""
    g, perm, h, keep = draw(fixed_vertex_relabellings())
    rho = induced_kei_iso(perm, g, h).then(twin_involution(h, keep))
    table = encode_kei(h).magma.table
    classes: dict[bytes, list[int]] = {}
    for x in range(2 * g.n):
        if (table[:, x] == x).all():
            classes.setdefault(table[x].tobytes(), []).append(x)
    shuffle = list(range(2 * g.n))
    for members in classes.values():
        for x, y in zip(members, draw(st.permutations(members))):
            shuffle[x] = y
    return g, h, rho.then(Bijection(tuple(shuffle)))


@settings(max_examples=300, deadline=None, database=None)
@given(fixed_vertex_relabellings(max_n=9))
def test_extraction_returns_the_lifted_relabelling(case):
    """A twin involution keeps each twin pair together, so the projection
    of a lifted relabelling h is h itself, exactly, on moving and fixed
    vertices alike."""
    g, h, g2, keep = case
    assert extract_graph_iso(induced_kei_iso(h, g, g2).then(twin_involution(g2, keep)), g, g2) == h


@settings(max_examples=300, deadline=None, database=None)
@given(scattered_twin_isos(), st.data())
def test_extraction_follows_twins_scattered_over_fixed_vertices(case, data):
    g, h, rho = case
    f = extract_graph_iso(rho, g, h)
    assert is_graph_isomorphism(g, h, f)
    # any other map is projected when it is a kei isomorphism and refused otherwise
    other = Bijection(tuple(data.draw(st.permutations(range(2 * g.n)))))
    if is_magma_isomorphism(encode_kei(g).magma, encode_kei(h).magma, other):
        assert is_graph_isomorphism(g, h, extract_graph_iso(other, g, h))
    else:
        with pytest.raises(InvalidIso):
            extract_graph_iso(other, g, h)


# more digits than the interpreter's default int-to-str limit of 4,300, so a
# message that prints it with str or repr raises ValueError
HUGE = 10**5000
# odd values for any argument: floats, strings, None, big ints, numpy
# scalars, and non-iterables
ODD = [-1, 0.5, 1.0, "", "1", None, 2**70, HUGE, -HUGE, np.int32(1), np.int64(0), np.float64(0.0), True]
SIZES = st.one_of(st.integers(-1, 4), st.sampled_from([2.5, "3", None, np.int64(3), True, [2], HUGE]))
# group orders above MAX_ORDER, which must be refused before a table is built
OVER = st.sampled_from([MAX_ORDER + 1, 2**70, HUGE, np.int64(2**40)])
# products of two of these are small, or (65 * 65 > MAX_ORDER) too large
FACTORS = st.sampled_from([1, 2, 3, 65]).map(FiniteGroup.cyclic)


@st.composite
def junk(draw, n, cells):
    """Mostly an n by n nested list of cells, sometimes with odd entries,
    a ragged row, a 1-D or 3-D shape, as a numpy array or a view of one,
    or an odd bare value; n <= 6, so nothing large is allocated."""
    odd = st.sampled_from(ODD)
    entry = st.one_of(cells, odd) if draw(st.booleans()) else cells
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    form = draw(st.sampled_from(["rows", "rows", "ragged", "flat", "deep", "array", "view", "odd"]))
    if form == "ragged" and n:
        rows[-1].append(draw(entry))
    elif form == "flat":
        return rows[0] if n else []
    elif form == "deep":
        return [rows]
    elif form in ("array", "view"):
        dtype = draw(st.sampled_from([np.int64, np.int32, bool, np.float64]))
        arr = np.array([[draw(cells) for _ in range(n)] for _ in range(n)], dtype=dtype)
        return arr if form == "array" else arr.T
    elif form == "odd":
        return draw(odd)
    return rows


def given_rows(matrix) -> list:
    return matrix.tolist() if isinstance(matrix, np.ndarray) else matrix


def assert_table(table, given=None) -> None:
    """A read-only, square, in-range uint16 table, equal to the one given."""
    n = len(table)
    assert table.dtype == np.uint16 and table.shape == (n, n) and n >= 1
    assert not table.flags.writeable and ((table >= 0) & (table < n)).all()
    if given is not None:
        assert table.tolist() == given_rows(given)


def assert_bits(given) -> None:
    """Every entry of a bool matrix handed to a builder that accepted it
    is a bool or an integer 0 or 1, the only entries it may take."""
    assert all(isinstance(x, (int, np.integer)) and x in (0, 1) for row in given_rows(given) for x in row)


def assert_graph(g, n=None, edges=(), adj=None) -> None:
    """A read-only bool adjacency with a false diagonal, equal to the one given."""
    assert type(g.n) is int and g.adj.dtype == bool and g.adj.shape == (g.n, g.n)
    assert not g.adj.flags.writeable and not np.diagonal(g.adj).any()
    if adj is not None:
        assert_bits(adj)
        assert g.adj.tolist() == given_rows(adj)


def assert_witness(w, tau, phi) -> None:
    """A fixed-point-free involution tau and a read-only bool phi replete
    for it, both as given."""
    t = np.array(w.tau)
    assert all(type(x) is int for x in w.tau) and list(w.tau) == list(given_rows(tau))
    assert (t != np.arange(w.n)).all() and (t[t] == np.arange(w.n)).all()
    assert w.phi.dtype == bool and w.phi.shape == (w.n, w.n) and not w.phi.flags.writeable
    assert_bits(phi)
    assert w.phi.tolist() == given_rows(phi)
    assert np.diagonal(w.phi).all() and (w.phi == w.phi[t]).all() and (w.phi == w.phi[:, t]).all()


def assert_derived(m, n, tau, phi) -> None:
    assert_table(m.table)
    assert_bits(phi)
    assert m.table.tolist() == np.where(np.array(given_rows(phi)) == 1, np.arange(n), tau).tolist()


def assert_bijection(f, *given) -> None:
    assert all(type(x) is int for x in f.map) and sorted(f.map) == list(range(f.domain_size))


def assert_twins_swapped(f, graph, keep) -> None:
    """An involution of the kei of graph, from vertices that are all integers."""
    assert all(isinstance(v, (int, np.integer)) for v in keep)
    assert_bijection(f)
    assert f.then(f).map == tuple(range(2 * graph.n))


def assert_apex(g, graph, subset) -> None:
    """One more vertex, aimed at exactly the vertices given, all integers."""
    assert all(isinstance(v, (int, np.integer)) for v in subset)
    assert_graph(g)
    assert g.n == graph.n + 1 and np.flatnonzero(g.adj[graph.n]).tolist() == sorted(set(subset))


@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_builders_refuse_junk_with_keikit_errors(data):
    """Every public builder either raises a KeikitError or builds an
    object that meets its class invariants from the entries it was given."""
    draw = data.draw
    n = draw(st.integers(0, 6))
    odd = st.sampled_from(ODD)
    elems, bits = st.integers(-1, n), st.one_of(st.integers(0, 1), st.booleans())
    count = st.one_of(st.just(n), SIZES)
    taus = st.one_of(st.just([x ^ 1 for x in range(n)]), st.permutations(range(n)), junk(n, elems))
    phis = st.one_of(st.just([[1] * n] * n), junk(n, bits))
    end = st.one_of(st.integers(-1, n), odd)
    edges = st.one_of(st.lists(st.one_of(st.tuples(end, end), st.lists(end, max_size=3), odd), max_size=6), odd)
    graph = st.just(Digraph(3, [(0, 1), (2, 1)]))
    vertices = st.one_of(st.lists(st.one_of(st.integers(-1, 3), odd), max_size=4), odd, junk(n, elems))
    builders = {
        "Magma": (Magma, [junk(n, elems)], lambda m, table: assert_table(m.table, table)),
        "Digraph": (Digraph, [count, edges], assert_graph),
        "Digraph adj": (Digraph, [count, edges, junk(n, bits)], assert_graph),
        "FoldedWitness": (FoldedWitness, [taus, phis], assert_witness),
        "derive_dynamical_quandle": (derive_dynamical_quandle, [count, taus, phis], assert_derived),
        "FiniteGroup": (FiniteGroup, [junk(n, elems)], lambda g, table: assert_table(g.comp, table)),
        "FiniteGroup families": (
            lambda family, k: getattr(FiniteGroup, family)(k),
            [st.sampled_from(["cyclic", "dihedral", "symmetric"]), st.one_of(SIZES, OVER)],
            lambda g, family, k: assert_table(g.comp),
        ),
        "FiniteGroup.direct_product": (
            FiniteGroup.direct_product, [FACTORS, FACTORS], lambda g, a, b: assert_table(g.comp),
        ),
        "random_digraph": (
            random_digraph,
            [count, st.one_of(st.floats(-0.5, 1.5), st.sampled_from([float("nan"), np.float32(0.5)]), odd),
             st.one_of(st.integers(-1, 2**70), odd)],
            lambda g, k, p, seed: assert_graph(g),
        ),
        "digraph_from_pattern": (
            # at n=121 the largest pattern has 4,371 digits
            digraph_from_pattern,
            [st.one_of(count, st.just(121)), st.one_of(st.integers(-1, 2**13), odd)],
            lambda g, k, pattern: assert_graph(g),
        ),
        "standard_groups": (standard_groups, [SIZES], lambda groups, k: [assert_table(g.comp) for g in groups]),
        "enumerate_digraphs": (lambda k: next(enumerate_digraphs(k)), [SIZES], lambda g, k: assert_graph(g)),
        "SigmaAlgebra": (
            SigmaAlgebra, [junk(n, elems), junk(n, elems)],
            lambda s, comp, star: [assert_table(s.comp, comp), assert_table(s.star, star)],
        ),
        "Bijection": (Bijection, [st.one_of(st.permutations(range(n)), junk(n, elems))], assert_bijection),
        "twin_involution": (twin_involution, [graph, vertices], assert_twins_swapped),
        "apex_extension": (apex_extension, [graph, vertices], assert_apex),
    }
    build, strategies, check = builders[draw(st.sampled_from(sorted(builders)))]
    args = [draw(strategy) for strategy in strategies]
    try:
        built = build(*args)
    except KeikitError:
        return
    check(built, *args)
