"""Finite magmas and the axiom ladder from left distributivity to kei.

A magma is a binary operation * on the carrier {0, ..., n-1}, stored as
an n by n table with table[a][b] = a*b.  The ladder of interest:

  left distributivity   a*(b*c) = (a*b)*(a*c)
  unique left division  for all a, c there is exactly one b with a*b = c
  idempotence           a*a = a
  involutivity          a*(a*b) = b

A rack satisfies the first two, a quandle the first three, a kei all
four.  Each law, and associativity a*(b*c) = (a*b)*c for groups, is
one kernel in LAWS, run by violations().  All checkers are exact and
report the lexicographically least counterexample, so results are
deterministic and replayable.  When every row is a permutation, left
distributivity is decided on the rows of a generating set (O(n^2)
cells per generator), which also hold its least witness; only other
tables are scanned over all n^3 triples.  Magma objects are immutable;
every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, permutations
from typing import Iterable, Iterator

import numpy as np

from .errors import MalformedLine, OutOfRange, TooLarge, shown
from .search import fixed_point_labels
from .textio import Lines, read_header_int, read_row_block, require_only_trailing_junk, row_lines

AXIOM_LD = "left-distributivity"
AXIOM_DIVISION = "unique-left-division"
AXIOM_IDEMPOTENCE = "idempotence"
AXIOM_INVOLUTORY = "involutivity"
ASSOCIATIVITY = "associativity"

# The largest order of any table file (the kei of a 2048-vertex digraph);
# larger headers are refused with TooLarge before any row is read.
MAX_ORDER = 4096


def read_table_size(lines: Lines) -> int:
    """The header order n of a table, sigma or witness file, read before
    any row.  Refuses n < 1 and n > MAX_ORDER."""
    n = read_header_int(lines)
    if n < 1:
        raise MalformedLine(lines.lineno, lines.line, "size must be at least 1")
    return check_order(n)


def check_order(n: int) -> int:
    """n, refused with TooLarge above MAX_ORDER before any table is built."""
    if n > MAX_ORDER:
        raise TooLarge(f"order {shown(n)} is above the limit of {MAX_ORDER}")
    return n


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one exhaustive axiom check.

    witness is None when the axiom holds, otherwise the least violating
    tuple in lexicographic order (shape depends on the axiom).
    """

    axiom: str
    holds: bool
    witness: tuple[int, ...] | None = None

    @classmethod
    def first(cls, axiom: str, violations: Iterator[tuple[int, ...]]) -> "AxiomReport":
        """Report on an axiom from its violations in lexicographic order."""
        witness = next(violations, None)
        return cls(axiom, witness is None, witness)

    def __str__(self) -> str:
        if self.holds:
            return f"{self.axiom}: holds"
        return f"{self.axiom}: fails at {self.witness}"


def square_array(values, dtype: type, what: str, n: int | None = None) -> np.ndarray:
    """values as a nonempty square ndarray, n by n when n is given.  An
    owned ndarray of dtype (np.uint16 for a table, or bool) is returned as
    it is, for the caller to check and make read-only.  Anything else is
    copied into a bool array, or for a table converted to int64, so that
    the caller range-checks the values as given before it narrows them
    into a copy.  Other shapes, entries that are not integers (0 or 1 for
    bool) and unsigned entries past 2**63 - 1 raise OutOfRange."""
    arr = values
    if not (type(values) is np.ndarray and values.dtype == dtype and values.flags.owndata):
        try:
            raw = np.asarray(values)
        except ValueError:  # ragged rows
            raise OutOfRange(f"{what} rows must all have one length") from None
        if raw.dtype.kind not in "biu":  # floats would truncate, strings parse, big ints overflow
            raise OutOfRange(f"{what} entries must be integers, got dtype {raw.dtype}")
        past = np.argwhere(raw > np.iinfo(np.int64).max) if raw.dtype.kind == "u" else ()
        if len(past) and dtype is not bool:  # the cast would wrap them to negative values
            at = tuple(past[0].tolist())
            raise OutOfRange(f"{what} entry {shown(raw[at].item())} at {at} does not fit in 64 bits")
        if dtype is bool:
            arr = np.array(raw, dtype=bool)
            if not np.array_equal(arr, raw):
                raise OutOfRange(f"{what} entries must be bool, 0 or 1")
        else:  # int64 input is not copied here, since the caller's narrowing copies it
            arr = np.asarray(raw, dtype=np.int64)
    if n is not None and arr.shape != (n, n):
        raise OutOfRange(f"{what} must be {n} by {n}, got {arr.shape}")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise OutOfRange(f"{what} must be square and nonempty, got shape {arr.shape}")
    return arr


class Magma:
    """An immutable finite magma given by its operation table (see
    square_array).  The table is a read-only uint16 array, the one table
    dtype: its entries lie below n, and keikit builds and reads no table
    above MAX_ORDER.  An owned uint16 array is kept as it is, checked by
    its maximum alone; any other table is range-checked as given, then
    narrowed once.  Code that does arithmetic on entries widens them
    first where a result could pass 65535."""

    __slots__ = ("n", "table", "_labels", "__weakref__")

    def __init__(self, table) -> None:
        arr = square_array(table, np.uint16, "operation table")
        n = len(arr)
        if (arr.dtype != np.uint16 and int(arr.min()) < 0) or int(arr.max()) >= n:
            a, b = (int(x) for x in np.argwhere((arr < 0) | (arr >= n))[0])
            raise OutOfRange(f"entry {int(arr[a, b])} at ({a}, {b}) is outside 0..{n - 1}")
        arr = arr.astype(np.uint16, copy=False)  # a copy, unless arr is the owned uint16 array given
        arr.setflags(write=False)
        self.n = n
        self.table = arr
        self._labels: tuple[int, ...] | None = None

    def invariant_labels(self) -> tuple[int, ...]:
        """The fixed_point_labels of the table's elements, cached."""
        if self._labels is None:
            fixes = self.table == np.arange(self.n)  # fixes[a, b]: a*b = b
            self._labels = fixed_point_labels(np.add.reduce(fixes, 1), np.add.reduce(fixes, 0), fixes.diagonal().tolist())
        return self._labels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Magma):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        return hash((self.n, self.table.tobytes()))

    def __repr__(self) -> str:
        return f"Magma(n={self.n})"

    def to_lines(self) -> Iterator[str]:
        """The text of to_text, one line at a time."""
        yield f"{self.n}\n"
        yield from row_lines(self.table)

    def to_text(self) -> str:
        return "".join(self.to_lines())

    @classmethod
    def from_text(cls, text: str | Iterable[str]) -> "Magma":
        """Parse a table from a str or from its lines (see textio)."""
        lines = Lines(text)
        n = read_table_size(lines)
        rows = read_row_block(lines, np.empty((n, n), dtype=np.int64))
        require_only_trailing_junk(lines)
        return cls(rows)


def check_axiom_ld(m: Magma) -> AxiomReport:
    """Check a*(b*c) = (a*b)*(a*c) over all triples.

    The law at a says that the left translation L_a is an endomorphism.
    When every row is a permutation, L_(a*b) = L_a L_b L_a^-1, so the
    elements at which the law holds are closed under *.  Every element
    outside the generating set of _generators is a product of generators
    below it, so the least violation, if any, lies at a generator.  The
    law at a depends only on the row L_a, so of the generators sharing a
    row only the least is scanned, n^2 cells each, and the scan stops at
    that least witness.  A table with a row that is not a permutation is
    scanned over all triples.
    """
    law = partial(LAWS[AXIOM_LD], m.table)
    if next(violations(m, AXIOM_DIVISION), None) is None:
        distinct: dict[bytes, int] = {}
        for g in _generators(m.table).tolist():
            distinct.setdefault(m.table[g].tobytes(), g)
        firsts = np.fromiter(distinct.values(), dtype=np.int64)
        return AxiomReport.first(AXIOM_LD, _violations(m.n, law, firsts))
    return AxiomReport.first(AXIOM_LD, _violations(m.n, law))


def _generators(t: np.ndarray) -> np.ndarray:
    """An ascending set of elements that generates the carrier under *,
    such that each other element is a product of generators below it.

    Greedy: take the least element outside the closure so far, then grow
    the closure breadth first, multiplying each new element with every
    element before it and itself on both sides (O(n^2) lookups in all).
    An element reached by the closure was unseen when each generator so
    far was taken as the least unseen one, so all of them lie below it.
    """
    n = len(t)
    seen = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)  # the closure, in the order reached
    size = 0
    gens: list[int] = []
    for i in range(n):
        if i == size:
            x = int(np.argmin(seen))
            gens.append(x)
            seen[x] = True
            order[size] = x
            size += 1
        y, done = order[i], order[:i + 1]
        products = np.concatenate((t[y, done], t[done, y]))
        new = np.unique(products[~seen[products]])
        seen[new] = True
        order[size:size + len(new)] = new
        size += len(new)
    return np.array(gens, dtype=np.int64)


def check_axiom_unique_left_division(m: Magma) -> AxiomReport:
    """Check that every row of the table is a permutation.

    The witness is the least (a, c) such that a*b = c has no solution;
    on a finite carrier a non-surjective row is also non-injective, so
    this captures failure of uniqueness as well.
    """
    return AxiomReport.first(AXIOM_DIVISION, violations(m, AXIOM_DIVISION))


def check_axiom_idempotent(m: Magma) -> AxiomReport:
    """Check a*a = a for every element."""
    return AxiomReport.first(AXIOM_IDEMPOTENCE, violations(m, AXIOM_IDEMPOTENCE))


def check_axiom_involutory(m: Magma) -> AxiomReport:
    """Check a*(a*b) = b for every pair."""
    return AxiomReport.first(AXIOM_INVOLUTORY, violations(m, AXIOM_INVOLUTORY))


@dataclass(frozen=True)
class Ladder:
    """Classification of a magma along the axiom ladder."""

    is_ld: bool
    is_rack: bool
    is_quandle: bool
    is_kei: bool
    reports: tuple[AxiomReport, AxiomReport, AxiomReport, AxiomReport]

    @classmethod
    def kei(cls) -> "Ladder":
        """The ladder of a table known to be a kei: every axiom holds."""
        axioms = (AXIOM_LD, AXIOM_DIVISION, AXIOM_IDEMPOTENCE, AXIOM_INVOLUTORY)
        return cls(True, True, True, True, tuple(AxiomReport(axiom, True) for axiom in axioms))


def classify(m: Magma) -> Ladder:
    """Run all four axiom checks and combine them into ladder levels."""
    ld = check_axiom_ld(m)
    division = check_axiom_unique_left_division(m)
    idem = check_axiom_idempotent(m)
    invol = check_axiom_involutory(m)
    is_rack = ld.holds and division.holds
    return Ladder(
        is_ld=ld.holds,
        is_rack=is_rack,
        is_quandle=is_rack and idem.holds,
        is_kei=is_rack and idem.holds and invol.holds,
        reports=(ld, division, idem, invol),
    )


# Cells evaluated per block of the first variable: identity checks
# then need O(n^2) memory per block, never an n x n x n array.
_BLOCK_CELLS = 1 << 21


def _violations(n: int, mismatch, firsts: np.ndarray | None = None) -> Iterator[tuple[int, ...]]:
    """Every tuple at which an identity fails, in lexicographic order,
    with its first variable among the ascending values firsts (all of
    0..n-1 when None).

    mismatch(a_block) gets an ascending array of values of the first
    variable and returns a boolean array of shape (len(a_block), ...),
    True where the identity fails.  Blocks hold at most _BLOCK_CELLS
    cells of an identity over n elements (n^2 when that is larger) and
    are evaluated lazily, so the first violation costs only the blocks
    up to it.
    """
    firsts = np.arange(n) if firsts is None else firsts
    step = max(1, _BLOCK_CELLS // (n * n))
    for start in range(0, len(firsts), step):
        block = firsts[start:start + step]
        for hit in np.argwhere(mismatch(block)):
            yield (int(block[hit[0]]), *(int(x) for x in hit[1:]))


@cache
def permutation_table(k: int) -> np.ndarray:
    """All permutations of 0..k-1 in lexicographic order, one per column:
    shape (k, k!), read-only int64 (a narrower index is converted on
    every use).  Row a holds every permutation's image of a, contiguous,
    so brute force tests one product for all permutations at once.  Kept
    per k, as rebuilding it would make brute force two to three times as
    slow at orders 6 and 8; digraph enumeration and FiniteGroup.symmetric
    share it, one permutation per row of its transpose."""
    cells = chain.from_iterable(permutations(range(k)))
    table = np.fromiter(cells, dtype=np.int64).reshape(-1, k).T.copy()
    table.setflags(write=False)
    return table


def _missing_quotients(t, a):
    """(a, c) is True where no b solves a*b = c."""
    absent = np.ones((len(a), len(t)), dtype=bool)
    absent[np.arange(len(a))[:, None], t[a]] = False
    return absent


# Each one-operation law as a kernel (t, a) -> mismatch block: t is the
# table, a an ascending block of values of the first variable, and the
# result is True at every tuple, (a, ...), where the law fails.
LAWS = {
    AXIOM_LD: lambda t, a: t[a[:, None, None], t] != t[t[a][:, :, None], t[a][:, None, :]],
    AXIOM_DIVISION: _missing_quotients,
    AXIOM_IDEMPOTENCE: lambda t, a: t[a, a] != a,
    AXIOM_INVOLUTORY: lambda t, a: t[a[:, None], t[a]] != np.arange(len(t)),
    ASSOCIATIVITY: lambda t, a: t[a[:, None, None], t] != t[t[a][:, :, None], np.arange(len(t))],
}


def violations(m: Magma, law: str) -> Iterator[tuple[int, ...]]:
    """Every tuple at which law (a key of LAWS) fails in m, in
    lexicographic order."""
    return _violations(m.n, partial(LAWS[law], m.table))
