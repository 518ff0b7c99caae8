"""Group construction, conjugation quandles, and the sigma identities."""

import numpy as np
import pytest

from keikit import (
    Magma,
    NotAGroup,
    OutOfRange,
    PreconditionViolated,
    SigmaAlgebra,
    check_sigma,
    check_sigma_identities,
    check_sigma_implies_ld,
    classify,
    conjugation_quandle,
    group_to_sigma,
    magma_iso_bruteforce,
    standard_groups,
)
from keikit import sigma
from keikit.groups import FiniteGroup
from keikit.errors import MalformedLine, TooLarge
from keikit.magma import MAX_ORDER

import oracles


def test_cyclic_and_validation():
    z4 = FiniteGroup.cyclic(4)
    assert z4.n == 4 and z4.identity == 0
    assert z4.inverse(1) == 3 and z4.inverse(2) == 2
    rebuilt = FiniteGroup(z4.comp)
    assert rebuilt.identity == 0


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FiniteGroup.cyclic(0), "cyclic group order must be at least 1"),
        (lambda: FiniteGroup.dihedral(0), "dihedral parameter must be at least 1"),
        (lambda: FiniteGroup.symmetric(6), "symmetric group supported for 1 <= k <= 5"),
        (lambda: standard_groups(9), "standard battery only covers orders up to 8"),
        (lambda: FiniteGroup.symmetric(2.5), "symmetric group parameter must be an integer, got 2.5"),
        (lambda: FiniteGroup.dihedral(2.5), "dihedral parameter must be an integer, got 2.5"),
        (lambda: FiniteGroup.cyclic("3"), "cyclic group order must be an integer, got '3'"),
        (lambda: standard_groups(2.5), "max_order must be an integer, got 2.5"),
    ],
    ids=["cyclic-0", "dihedral-0", "symmetric-6", "standard-9", "symmetric-2.5", "dihedral-2.5", "cyclic-str",
         "standard-2.5"],
)
def test_group_family_guards(make, message):
    with pytest.raises(OutOfRange) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "make, order",
    [
        (lambda: FiniteGroup.cyclic(MAX_ORDER + 1), MAX_ORDER + 1),
        (lambda: FiniteGroup.cyclic(2**70), 2**70),
        (lambda: FiniteGroup.dihedral(MAX_ORDER // 2 + 1), MAX_ORDER + 2),
        (lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(65), FiniteGroup.cyclic(65)), 65 * 65),
    ],
    ids=["cyclic", "cyclic-2**70", "dihedral", "direct-product"],
)
def test_group_families_refuse_orders_above_the_limit(make, order):
    with pytest.raises(TooLarge, match=f"^order {order} is above the limit of {MAX_ORDER}$"):
        make()


def test_not_a_group_cases():
    with pytest.raises(NotAGroup):
        FiniteGroup([[1, 0], [0, 0]])
    # break associativity while keeping 0 as identity: swap two entries
    # inside the non-identity block of Z5
    comp = FiniteGroup.cyclic(5).comp.copy()
    comp.setflags(write=True)
    comp[1, 1], comp[1, 2] = comp[1, 2], comp[1, 1]
    with pytest.raises(NotAGroup):
        FiniteGroup(comp)
    with pytest.raises(NotAGroup):
        FiniteGroup([[0, 1], [1, 1]])


@pytest.mark.parametrize("table, message", [
    ([[1, 1], [1, 1]], "no two-sided identity element"),
    ([[0, 1], [0, 1]], "no two-sided identity element"),  # both rows are the identity, neither column is
    ([[0, 1], [1, 1]], "element 1 has no unique two-sided inverse"),  # no right inverse
    ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "element 1 has no unique two-sided inverse"),  # two
    ([[0, 1, 2], [1, 1, 0], [2, 2, 1]], "element 1 has no unique two-sided inverse"),  # not a left one
    ([[0, 1, 2], [1, 0, 2], [2, 2, 2]], "element 2 has no unique two-sided inverse"),
    ([[1, 0, 0], [0, 1, 2], [0, 2, 2]], "element 2 has no unique two-sided inverse"),  # identity 1
])
def test_not_a_group_messages_name_the_least_failure(table, message):
    with pytest.raises(NotAGroup, match=f"^{message}$"):
        FiniteGroup(table)


def test_group_inverses_are_read_only_int64():
    for g in (*standard_groups(), FiniteGroup.symmetric(4)):
        assert g.inv.dtype == np.int64 and not g.inv.flags.writeable
        assert g.comp[np.arange(g.n), g.inv].tolist() == [g.identity] * g.n
        assert g.comp[g.inv, np.arange(g.n)].tolist() == [g.identity] * g.n


def test_symmetric_groups_compose_like_a_plain_loop():
    for k in range(1, 6):
        assert FiniteGroup.symmetric(k).comp.tolist() == oracles.symmetric_rows(k)


def test_group_table_shape_and_range_checked_as_magma():
    with pytest.raises(OutOfRange):
        FiniteGroup([[0, 1, 2]])
    with pytest.raises(OutOfRange):
        FiniteGroup([[0, 2], [2, 0]])
    with pytest.raises(OutOfRange, match="^operation table rows must all have one length$"):
        FiniteGroup([[0, 1], [1]])


def test_symmetric_composition():
    s3 = FiniteGroup.symmetric(3)
    assert s3.n == 6
    # elements in lexicographic one-line order:
    # 0=(0,1,2) 1=(0,2,1) 2=(1,0,2) 3=(1,2,0) 4=(2,0,1) 5=(2,1,0)
    # composing (1,2,0) after (0,2,1): x -> (0,2,1)[x] -> (1,2,0)[...]
    assert s3.op(3, 1) == 2
    assert s3.identity == 0
    assert s3.inverse(3) == 4


def test_quaternion_relations():
    q8 = FiniteGroup.quaternion()
    x, y = 2, 1
    x2 = q8.op(x, x)
    assert q8.op(y, y) == x2
    assert q8.op(q8.op(x, x), x2) == q8.identity
    # y x y^-1 = x^-1
    conj = q8.op(q8.op(y, x), q8.inverse(y))
    assert conj == q8.inverse(x)


def test_dihedral_relations():
    d4 = FiniteGroup.dihedral(4)
    r, s = 2, 1
    # s r s = r^-1
    assert d4.op(d4.op(s, r), s) == d4.inverse(r)
    assert d4.op(s, s) == d4.identity


def test_constructed_tables_match_direct_loops():
    z = FiniteGroup.cyclic
    factors = [(z(1), z(3)), (z(2), z(2)), (z(4), z(2)), (z(3), FiniteGroup.symmetric(3)),
               (FiniteGroup.dihedral(3), z(2))]
    for g, h in factors:
        assert FiniteGroup.direct_product(g, h).comp.tolist() == oracles.direct_product_rows(
            g.comp.tolist(), h.comp.tolist()
        )
    for k in range(1, 10):
        assert FiniteGroup.dihedral(k).comp.tolist() == oracles.dihedral_rows(k)
    assert FiniteGroup.quaternion().comp.tolist() == oracles.quaternion_rows()


def test_standard_battery_contents():
    groups = standard_groups()
    assert len(groups) == 14
    assert sorted(g.n for g in groups) == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 8]
    by_order: dict[int, list[FiniteGroup]] = {}
    for g in groups:
        by_order.setdefault(g.n, []).append(g)
    for same_order in by_order.values():
        for i in range(len(same_order)):
            for j in range(i + 1, len(same_order)):
                found = magma_iso_bruteforce(
                    Magma(same_order[i].comp), Magma(same_order[j].comp)
                )
                assert found is None, (same_order[i].name, same_order[j].name)


def test_conjugation_quandles():
    assert np.array_equal(
        conjugation_quandle(FiniteGroup.cyclic(2)).table,
        oracles.trivial_kei(2).table,
    )
    assert np.array_equal(
        conjugation_quandle(FiniteGroup.cyclic(3)).table,
        oracles.trivial_kei(3).table,
    )
    s3_conj = conjugation_quandle(FiniteGroup.symmetric(3))
    ladder = classify(s3_conj)
    assert ladder.is_quandle and not ladder.is_kei
    for group in standard_groups():
        cq = conjugation_quandle(group)
        assert classify(cq).is_quandle
        oracles.assert_core_invariants(cq)


def test_group_to_sigma_small():
    z1 = group_to_sigma(FiniteGroup.cyclic(1))
    assert z1.comp.tolist() == [[0]] and z1.star.tolist() == [[0]]
    z2 = group_to_sigma(FiniteGroup.cyclic(2))
    assert z2.comp.tolist() == [[0, 1], [1, 0]]
    assert z2.star.tolist() == [[0, 1], [0, 1]]
    assert check_sigma(z2).holds


def test_sigma_battery():
    for group in standard_groups():
        algebra = group_to_sigma(group)
        overall = check_sigma(algebra)
        assert overall.holds, group.name
        assert all(r.holds for r in check_sigma_identities(algebra))
        assert check_sigma_implies_ld(algebra).holds, group.name


def test_sigma_identities_checked_once(monkeypatch):
    calls = []
    original = sigma._violations

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sigma, "_violations", counted)
    s = group_to_sigma(FiniteGroup.symmetric(3))
    reports = check_sigma_identities(s)
    assert check_sigma_implies_ld(s).holds
    # four identities once, then the derivation chain; nothing rechecked
    assert len(calls) == 5
    assert check_sigma_identities(s) == reports


def test_left_projection_star_failure():
    comp = [[0, 1], [1, 0]]
    star = [[0, 0], [1, 1]]
    algebra = SigmaAlgebra(comp, star)
    reports = {r.axiom: r for r in check_sigma_identities(algebra)}
    expected = oracles.direct_sigma_violations(comp, star)
    for axiom, report in reports.items():
        assert report.holds == (expected[axiom] is None)
        assert report.witness == expected[axiom]
    assert reports["sigma-1"].holds
    assert reports["sigma-2"].witness == (0, 1, 0)
    assert reports["sigma-4"].witness == (0, 1)
    overall = check_sigma(algebra)
    assert overall.axiom == "sigma-2" and overall.witness == (0, 1, 0)
    with pytest.raises(PreconditionViolated):
        check_sigma_implies_ld(algebra)


def test_mutated_sigma_reports_violation():
    algebra = group_to_sigma(FiniteGroup.symmetric(3))
    star = algebra.star.copy()
    star.setflags(write=True)
    star[1, 2] = (star[1, 2] + 1) % 6
    mutated = SigmaAlgebra(algebra.comp, star)
    overall = check_sigma(mutated)
    assert not overall.holds
    expected = oracles.direct_sigma_violations(
        mutated.comp.tolist(), mutated.star.tolist()
    )
    assert overall.witness == expected[overall.axiom]


def test_sigma_tables_of_unequal_order_rejected():
    with pytest.raises(OutOfRange, match="differ in order: 2 vs 3"):
        SigmaAlgebra([[0, 1], [1, 0]], [[0, 1, 2]] * 3)
    # each table is validated on its own before the orders are compared
    with pytest.raises(OutOfRange, match="outside 0..1"):
        SigmaAlgebra([[0, 1], [1, 0]], [[0, 2], [1, 0]])


def test_sigma_text_round_trip():
    algebra = group_to_sigma(FiniteGroup.symmetric(3))
    again = SigmaAlgebra.from_text(algebra.to_text())
    assert np.array_equal(again.comp, algebra.comp)
    assert np.array_equal(again.star, algebra.star)


@pytest.mark.parametrize(
    "text",
    [
        "2\n0 1\n1 0\n",
        "2\n0 1\n1 0\n\n0 0\n",
        "2\n0 1\n1 0\n0 0\n1 1\nextra\n",
    ],
)
def test_sigma_text_malformed(text):
    with pytest.raises(MalformedLine):
        SigmaAlgebra.from_text(text)
