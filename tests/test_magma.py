"""Axiom checkers, classification, and the table format."""

import random
from itertools import permutations

import numpy as np
import pytest

from keikit import (
    Digraph,
    FoldedWitness,
    Magma,
    MalformedLine,
    OutOfRange,
    SigmaAlgebra,
    TooLarge,
    classify,
    encode_kei,
)
from keikit.groups import FiniteGroup, conjugation_quandle
from keikit.textio import Lines
from keikit.magma import (
    AXIOM_DIVISION,
    AXIOM_LD,
    MAX_ORDER,
    Ladder,
    check_axiom_idempotent,
    check_axiom_involutory,
    check_axiom_ld,
    check_axiom_unique_left_division,
    permutation_table,
    read_table_size,
    violations,
)

import oracles

# two-element table with 0*0=1, 0*1=0, 1*0=0, 1*1=1: rows are
# permutations, yet left distributivity breaks immediately
LD_VIOLATOR = Magma([[1, 0], [0, 1]])


def random_magma(n: int, seed: int) -> Magma:
    rng = random.Random(seed)
    return Magma([[rng.randrange(n) for _ in range(n)] for _ in range(n)])


def test_table_round_trip():
    m = oracles.dihedral_kei(6)
    again = Magma.from_text(m.to_text())
    assert again == m
    assert hash(again) == hash(m)


def test_parse_skips_comments_and_blank_edges():
    text = "# a kei\n\n3\n# rows follow\n0 1 2\n0 1 2\n0 1 2\n\n# done\n"
    m = Magma.from_text(text)
    assert m == oracles.trivial_kei(3)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n0 1\n",
        "2\n0 1\n1 0 1\n",
        "2\n0 1\n\n1 0\n",
        "2\nx y\n1 0\n",
        "2 2\n0 1\n1 0\n",
        "2\n0 1\n1 0\nextra\n",
        "0\n",
    ],
)
def test_parse_malformed(text):
    with pytest.raises(MalformedLine):
        Magma.from_text(text)


def test_header_above_max_order_refused_before_rows():
    # one valid row of the declared width, then nothing: the size is
    # refused before the missing rows are noticed
    n = MAX_ORDER + 1
    text = f"{n}\n" + " ".join(map(str, range(n))) + "\n"
    for parse in (Magma.from_text, SigmaAlgebra.from_text, FoldedWitness.from_text):
        with pytest.raises(TooLarge):
            parse(text)
    assert read_table_size(Lines(["4096"])) == 4096


def test_entry_out_of_range():
    with pytest.raises(OutOfRange):
        Magma([[0, 2], [1, 0]])
    with pytest.raises(OutOfRange):
        Magma.from_text("2\n0 1\n1 9\n")


def test_owned_table_is_kept_read_only_and_others_are_copied():
    owned = np.array([[0, 1], [0, 1]], dtype=np.uint16)
    m = Magma(owned)
    assert np.shares_memory(m.table, owned) and not owned.flags.writeable
    base = np.zeros((3, 3), dtype=np.uint16)
    view = Magma(base[:2, :2])
    base[0, 0] = 1
    assert view.table[0, 0] == 0 and base.flags.writeable
    for other in (np.zeros((2, 2), dtype=np.int32), np.zeros((2, 2), dtype=np.int64)):
        table = Magma(other).table
        assert table.dtype == np.uint16 and not np.shares_memory(table, other) and other.flags.writeable
    assert Magma(np.array([[False, True], [False, True]])).table.tolist() == [[0, 1], [0, 1]]
    rejected = np.array([[0, 2], [1, 0]], dtype=np.uint16)
    with pytest.raises(OutOfRange):
        Magma(rejected)
    assert rejected.flags.writeable


@pytest.mark.parametrize(
    "table",
    [[[0.9, 1.2], [0, 1]], [["0"]], [[2**70]], [[None]], [[0.0]], np.zeros((2, 2)), [[0, np.float64(1.0)], [0, 1]]],
)
def test_non_integer_entries_refused(table):
    with pytest.raises(OutOfRange) as exc:
        Magma(table)
    assert str(exc.value).startswith("operation table entries must be integers")


@pytest.mark.parametrize("build", [Magma, FiniteGroup, lambda table: SigmaAlgebra(table, table)])
@pytest.mark.parametrize(
    "table, message",
    [
        ([[2**63]], "entry 9223372036854775808 at (0, 0)"),
        (np.array([[0, 2**64 - 1], [1, 0]], dtype=np.uint64), "entry 18446744073709551615 at (0, 1)"),
    ],
)
def test_unsigned_entries_past_64_bits_are_named_as_given(build, table, message):
    # a cast to int64 would wrap them to negative entries that were never given
    with pytest.raises(OutOfRange) as exc:
        build(table)
    assert str(exc.value) == f"operation table {message} does not fit in 64 bits"
    assert Magma(np.array([[0, 1], [1, 0]], dtype=np.uint64)).table.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "value, dtype",
    [
        (value, dtype)
        for value in (-1, 65535, 65536, 70000)
        for dtype in (None, np.int64, np.uint64, np.uint16)
        if dtype is None or np.iinfo(dtype).min <= value <= np.iinfo(dtype).max
    ],
)
def test_out_of_range_entries_are_named_as_given(value, dtype):
    # a cast to uint16 before the range check would wrap 65536 to 0, in range
    rows = [[0, value], [1, 0]]
    with pytest.raises(OutOfRange) as exc:
        Magma(rows if dtype is None else np.array(rows, dtype=dtype))
    assert str(exc.value) == f"entry {value} at (0, 1) is outside 0..1"


def test_built_tables_are_uint16():
    graph = Digraph(3, [(0, 1), (1, 2)])
    kei = encode_kei(graph).magma
    tables = [kei.table, FoldedWitness([1, 0], [[1, 1], [1, 1]]).to_magma().table]
    tables += [conjugation_quandle(g).table for g in (FiniteGroup.dihedral(4), FiniteGroup.symmetric(3))]
    assert all(t.dtype == np.uint16 and not t.flags.writeable for t in tables)
    assert kei.table.tolist() == oracles.direct_encode_rows(graph)


def test_direct_product_at_the_largest_order_does_not_wrap():
    class Table(FiniteGroup):
        """Keeps the table direct_product builds, without the n^3 group checks."""

        def __init__(self, table, name=""):
            self.comp = table

    z64 = FiniteGroup.cyclic(64)
    wide = z64.comp.astype(np.int64)
    expected = (wide[:, None, :, None] * 64 + wide[None, :, None, :]).reshape(4096, 4096)
    built = Table.direct_product(z64, z64).comp
    assert np.array_equal(built, expected) and np.array_equal(Magma(built).table, expected)


def test_trivial_tables_are_keis():
    for n in range(1, 6):
        ladder = classify(oracles.trivial_kei(n))
        assert ladder.is_kei
        assert all(report.holds for report in ladder.reports)


def test_ld_violation_least_witness():
    report = check_axiom_ld(LD_VIOLATOR)
    assert not report.holds
    assert report.witness == oracles.first_ld_violation(LD_VIOLATOR.table.tolist())
    assert report.witness == (0, 0, 0)
    a, b, c = report.witness
    rows = LD_VIOLATOR.table.tolist()
    assert rows[a][rows[b][c]] != rows[rows[a][b]][rows[a][c]]


def test_ld_at_generators_needs_permutation_rows():
    # 0 and 1 generate (1*0 = 2) and the law holds at both, but 2*(1*0)
    # = 2 differs from (2*1)*(2*0) = 0; no row is a permutation, so the
    # closure argument does not apply and every triple must be scanned
    rows = [[0, 0, 0], [2, 1, 2], [0, 2, 2]]
    assert oracles.first_ld_violation(rows) == (2, 1, 0)
    assert check_axiom_ld(Magma(rows)).witness == (2, 1, 0)


def test_ld_holds_on_conjugation():
    cq = conjugation_quandle(FiniteGroup.symmetric(3))
    assert check_axiom_ld(cq).holds
    assert oracles.first_ld_violation(cq.table.tolist()) is None


def test_division_witness():
    m = Magma([[0, 0], [0, 1]])
    report = check_axiom_unique_left_division(m)
    assert not report.holds
    assert report.witness == (0, 1)
    assert report.witness == oracles.first_division_violation(m.table.tolist())
    assert list(violations(m, AXIOM_DIVISION)) == [(0, 1)]


def test_division_holds_on_encoded_keis():
    for g in (Digraph(2, [(0, 1)]), Digraph(3, [(0, 1), (1, 2), (2, 0)])):
        assert check_axiom_unique_left_division(encode_kei(g).magma).holds


def test_idempotence_witness_on_group_addition():
    z3 = Magma(FiniteGroup.cyclic(3).comp)
    report = check_axiom_idempotent(z3)
    assert not report.holds
    assert report.witness == (1,)
    assert report.witness == oracles.first_idempotence_violation(z3.table.tolist())


def test_involutory_witness_on_s3_conjugation():
    cq = conjugation_quandle(FiniteGroup.symmetric(3))
    report = check_axiom_involutory(cq)
    assert not report.holds
    assert report.witness == oracles.first_involutory_violation(cq.table.tolist())
    assert report.witness == (3, 1)


def test_classify_levels():
    ladder = classify(LD_VIOLATOR)
    # rows of LD_VIOLATOR are permutations, so division alone holds,
    # but every ladder level requires left distributivity
    assert check_axiom_unique_left_division(LD_VIOLATOR).holds
    assert not ladder.is_ld and not ladder.is_rack
    assert not ladder.is_quandle and not ladder.is_kei
    cq = conjugation_quandle(FiniteGroup.symmetric(3))
    ladder = classify(cq)
    assert ladder.is_quandle and not ladder.is_kei
    oracles.assert_core_invariants(cq)
    oracles.assert_core_invariants(LD_VIOLATOR)
    # check prints Ladder.kei() for a folded table instead of classifying it
    assert classify(oracles.trivial_kei(4)) == Ladder.kei()


def test_witnesses_are_least_on_random_tables():
    for seed in range(40):
        m = random_magma(4, seed)
        oracles.assert_core_invariants(m)
        rows = m.table.tolist()
        pairs = [
            (check_axiom_ld(m), oracles.first_ld_violation(rows)),
            (check_axiom_unique_left_division(m), oracles.first_division_violation(rows)),
            (check_axiom_idempotent(m), oracles.first_idempotence_violation(rows)),
            (check_axiom_involutory(m), oracles.first_involutory_violation(rows)),
        ]
        for report, expected in pairs:
            assert report.holds == (expected is None)
            assert report.witness == expected


def test_violation_iterators_match_checker():
    m = random_magma(3, 7)
    found = list(violations(m, AXIOM_LD))
    assert found == sorted(found)
    first = check_axiom_ld(m)
    if not first.holds:
        assert found[0] == first.witness


def test_permutation_table_is_one_read_only_lexicographic_array():
    for k in range(1, 9):
        table = permutation_table(k)
        assert table.dtype == np.int64 and not table.flags.writeable
        assert list(map(tuple, table.tolist())) == list(permutations(range(k)))
        assert permutation_table(k) is table
    with pytest.raises(ValueError):
        permutation_table(3)[0, 0] = 1
