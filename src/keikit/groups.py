"""Finite groups as validated multiplication tables, plus conjugation.

Construction validates the table as a Magma (OutOfRange unless it is
square with entries in range), then checks the group axioms eagerly
(two-sided identity, two-sided inverses, associativity over all
triples; NotAGroup otherwise), so a FiniteGroup that exists is always a
genuine group.  Conjugation a*b = a.b.a^-1 turns any group into a
quandle, which is the main supply of quandles that are not keis used in
tests.
"""

from __future__ import annotations

import numpy as np

from .digraph import _as_index
from .errors import NotAGroup, OutOfRange
from .magma import ASSOCIATIVITY, Magma, check_order, permutation_table, violations


class FiniteGroup:
    """An immutable finite group on {0, ..., n-1}."""

    def __init__(self, table, name: str = "") -> None:
        m = Magma(table)
        arr = m.table
        n = len(arr)
        idx = np.arange(n)
        identities = np.flatnonzero((arr == idx).all(axis=1) & (arr == idx[:, None]).all(axis=0))
        if not identities.size:
            raise NotAGroup("no two-sided identity element")
        identity = int(identities[0])
        inv = (arr != identity).argmin(axis=1)  # the least right inverse, 0 where there is none
        # a*b is the identity at b = inv[a] alone, and inv[a]*a is the identity too
        unique = ((arr == identity) == (idx == inv[:, None])).all(axis=1) & (arr[inv, idx] == identity)
        if not unique.all():
            raise NotAGroup(f"element {int(np.argmin(unique))} has no unique two-sided inverse")
        bad = next(violations(m, ASSOCIATIVITY), None)
        if bad is not None:
            raise NotAGroup(f"composition is not associative, first failure at {bad}")
        inv.setflags(write=False)
        self.n = n
        self.comp = arr
        self.identity = identity
        self.inv = inv
        self.name = name or f"group{n}"

    def op(self, a: int, b: int) -> int:
        return int(self.comp[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, n={self.n})"

    @classmethod
    def cyclic(cls, k: int) -> "FiniteGroup":
        k = _as_index(k, "cyclic group order")
        if k < 1:
            raise OutOfRange("cyclic group order must be at least 1")
        idx = np.arange(check_order(k))
        return cls((idx[:, None] + idx[None, :]) % k, name=f"Z{k}")

    @classmethod
    def direct_product(cls, g: "FiniteGroup", h: "FiniteGroup") -> "FiniteGroup":
        """Pairs (a, b) numbered a*|h| + b, composed coordinatewise."""
        n = check_order(g.n * h.n)
        # uint16 arithmetic: every value is below n, which check_order holds to MAX_ORDER
        table = g.comp[:, None, :, None] * h.n + h.comp[None, :, None, :]
        return cls(table.reshape(n, n), name=f"{g.name}x{h.name}")

    @classmethod
    def dihedral(cls, k: int) -> "FiniteGroup":
        """Symmetries of a regular k-gon, order 2k; element 2r+f is
        rotation r followed by f flips."""
        k = _as_index(k, "dihedral parameter")
        if k < 1:
            raise OutOfRange("dihedral parameter must be at least 1")
        check_order(2 * k)
        return cls(_rotations_and_flips(k, 0), name=f"D{k}")

    @classmethod
    def quaternion(cls) -> "FiniteGroup":
        """The quaternion group of order 8; element 2a+b encodes x^a y^b
        with x of order 4, y^2 = x^2, y x y^-1 = x^-1."""
        return cls(_rotations_and_flips(4, 2), name="Q8")

    @classmethod
    def symmetric(cls, k: int) -> "FiniteGroup":
        """Permutations of k points under composition, elements numbered
        in lexicographic one-line order."""
        k = _as_index(k, "symmetric group parameter")
        if not 1 <= k <= 5:
            raise OutOfRange("symmetric group supported for 1 <= k <= 5")
        perms = permutation_table(k)
        # row i, column j composes p_i after p_j; base-k reading keeps lexicographic order
        weights = k ** np.arange(k - 1, -1, -1)
        return cls(np.searchsorted(perms @ weights, perms[:, perms] @ weights), name=f"S{k}")


def _rotations_and_flips(k: int, flip_square: int) -> np.ndarray:
    """Table of x^r y^f (element 2r+f) where x has order k, y x y^-1 =
    x^-1 and y^2 = x^flip_square: the dihedral group for 0, Q8 for k=4, 2."""
    a, b, c, d = np.ix_(range(k), range(2), range(k), range(2))
    exp = (a + c * (1 - 2 * b) + flip_square * b * d) % k
    return (2 * exp + (b + d) % 2).reshape(2 * k, 2 * k)


def standard_groups(max_order: int = 8) -> list[FiniteGroup]:
    """Every group of order up to max_order (up to isomorphism), for
    max_order <= 8.  That is 14 groups at the default."""
    max_order = _as_index(max_order, "max_order")
    if max_order > 8:
        raise OutOfRange("standard battery only covers orders up to 8")
    z = FiniteGroup.cyclic
    groups = [
        z(1), z(2), z(3),
        z(4), FiniteGroup.direct_product(z(2), z(2)),
        z(5),
        z(6), FiniteGroup.symmetric(3),
        z(7),
        z(8), FiniteGroup.direct_product(z(4), z(2)),
        FiniteGroup.direct_product(FiniteGroup.direct_product(z(2), z(2)), z(2)),
        FiniteGroup.dihedral(4), FiniteGroup.quaternion(),
    ]
    return [g for g in groups if g.n <= max_order]


def conjugation_quandle(g: FiniteGroup) -> Magma:
    """The quandle a*b = a.b.a^-1 on the elements of g."""
    table = g.comp[g.comp, g.inv[:, None]]
    return Magma(table)
