"""Two-operation algebras linking a composition to a self-action.

A SigmaAlgebra carries two operations on the same carrier, written
"." (comp) and "*" (star), subject to four identities:

  sigma-1   a.(b.c) = (a.b).c
  sigma-2   (a.b)*c = a*(b*c)
  sigma-3   a*(b.c) = (a*b).(a*c)
  sigma-4   (a*b).a = a.b

Any group with star as conjugation satisfies all four, and sigma-4
alone already forces star to be conjugation when comp is a group.
The identities also imply left distributivity of star without any
appeal to inverses; check_sigma_implies_ld replays that derivation
step by step on a concrete algebra.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable

import numpy as np

from .errors import MalformedLine, OutOfRange, PreconditionViolated
from .groups import FiniteGroup, conjugation_quandle
from .magma import ASSOCIATIVITY, LAWS, AxiomReport, Magma, _violations, read_table_size
from .textio import Lines, read_row_block, require_only_trailing_junk, row_lines, significant

# Each identity as (equation, kernel (s, a) -> mismatch block), in the
# order they are checked; kernels follow magma.LAWS.
SIGMA_IDENTITIES = {
    "sigma-1": (
        "a.(b.c) = (a.b).c",
        lambda s, a: LAWS[ASSOCIATIVITY](s.comp, a),
    ),
    "sigma-2": (
        "(a.b)*c = a*(b*c)",
        lambda s, a: s.star[s.comp[a][:, :, None], np.arange(s.n)] != s.star[a[:, None, None], s.star],
    ),
    "sigma-3": (
        "a*(b.c) = (a*b).(a*c)",
        lambda s, a: s.star[a[:, None, None], s.comp] != s.comp[s.star[a][:, :, None], s.star[a][:, None, :]],
    ),
    "sigma-4": (
        "(a*b).a = a.b",
        lambda s, a: s.comp[s.star[a], a[:, None]] != s.comp[a],
    ),
}


class SigmaAlgebra:
    """An immutable carrier with a comp table and a star table."""

    def __init__(self, comp, star) -> None:
        comp_m = Magma(comp)
        star_m = Magma(star)
        if comp_m.n != star_m.n:
            raise OutOfRange(f"comp and star tables differ in order: {comp_m.n} vs {star_m.n}")
        self.n = comp_m.n
        self.comp = comp_m.table
        self.star = star_m.table
        self._reports: tuple[AxiomReport, ...] | None = None

    def to_text(self) -> str:
        return "".join([f"{self.n}\n", *row_lines(self.comp), "\n", *row_lines(self.star)])

    @classmethod
    def from_text(cls, text: str | Iterable[str]) -> "SigmaAlgebra":
        return cls(*read_sigma_input(text, "sigma"))


def read_sigma_input(text: str | Iterable[str], kind: str = "auto") -> tuple[np.ndarray, np.ndarray | None]:
    """The comp table of a group file and None (kind "group"), or the comp
    and star tables of a sigma file (kind "sigma"), read in one pass.

    Kind "auto" reads the header and the first block, then a star block
    only if a significant line follows it.  When that fails and the input
    has neither n nor 2n rows, it is refused as neither kind, at its
    header, as if its rows had been counted first.
    """
    lines = Lines(text)
    n = read_table_size(lines)
    header = lines.lineno, lines.line
    try:
        comp = read_row_block(lines, np.empty((n, n), dtype=np.int64))
        star = None
        more = kind != "group" and next(significant(lines), None) is not None
        if more:
            lines.again()
        if more or kind == "sigma":
            star = read_row_block(lines, np.empty((n, n), dtype=np.int64))
        require_only_trailing_junk(lines)
    except MalformedLine:
        if kind == "auto":
            rows = lines.counted - 1 + sum(1 for _ in significant(lines))
            if rows not in (n, 2 * n):
                raise MalformedLine(*header, f"cannot tell sigma from group input with {rows} rows for n={n}") from None
        raise
    return comp, star


def check_sigma_identities(s: SigmaAlgebra) -> tuple[AxiomReport, ...]:
    """One report per identity, each with its own least witness; kept on
    s, whose tables are read-only, after the first call."""
    if s._reports is None:
        s._reports = tuple(
            AxiomReport.first(name, _violations(s.n, partial(kernel, s)))
            for name, (_, kernel) in SIGMA_IDENTITIES.items()
        )
    return s._reports


def check_sigma(s: SigmaAlgebra) -> AxiomReport:
    """Overall verdict: the first failed identity in sigma-1..sigma-4
    order, with that identity's least witness; holds if all four do."""
    for report in check_sigma_identities(s):
        if not report.holds:
            return report
    return AxiomReport("sigma", True)


def check_sigma_implies_ld(s: SigmaAlgebra) -> AxiomReport:
    """Replay the derivation of left distributivity of star from the
    sigma identities, checking every link on every triple.

    The chain, for each (a, b, c):

      a*(b*c) = (a.b)*c          by sigma-2
              = ((a*b).a)*c      by sigma-4, rewriting a.b
              = (a*b)*(a*c)      by sigma-2 applied to (a*b, a, c)

    Requires check_sigma(s) to hold; raises PreconditionViolated
    otherwise.  The witness, if any link broke, would be the least
    (a, b, c), but on a valid sigma algebra this always holds.
    """
    overall = check_sigma(s)
    if not overall.holds:
        raise PreconditionViolated(
            f"sigma identities do not hold ({overall.axiom} fails at {overall.witness})"
        )
    comp = s.comp
    star = s.star
    idx = np.arange(s.n)

    def broken_link(a):
        # outer terms are compared as built: at most three of the four alive
        ab_star = star[a]
        t1 = star[comp[a][:, :, None], idx]
        t2 = star[comp[ab_star, a[:, None]][:, :, None], idx]
        broken = t1 != t2
        broken |= star[a[:, None, None], star] != t1
        broken |= t2 != star[ab_star[:, :, None], ab_star[:, None, :]]
        return broken

    return AxiomReport.first("ld-from-sigma", _violations(s.n, broken_link))


def group_to_sigma(g: FiniteGroup) -> SigmaAlgebra:
    """Pair a group's composition with conjugation as the star."""
    return SigmaAlgebra(g.comp, conjugation_quandle(g).table)
