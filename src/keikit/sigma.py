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

import numpy as np

from .errors import MalformedLine, OutOfRange, PreconditionViolated
from .groups import FiniteGroup, conjugation_quandle
from .magma import AxiomReport, Magma, _violations
from .textio import (
    is_blank,
    is_comment,
    read_header_int,
    read_row_block,
    require_only_trailing_junk,
)

SIGMA_AXIOMS = ("sigma-1", "sigma-2", "sigma-3", "sigma-4")
SIGMA_EQUATIONS = {
    "sigma-1": "a.(b.c) = (a.b).c",
    "sigma-2": "(a.b)*c = a*(b*c)",
    "sigma-3": "a*(b.c) = (a*b).(a*c)",
    "sigma-4": "(a*b).a = a.b",
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

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(" ".join(str(x) for x in row) for row in self.comp.tolist())
        lines.append("")
        lines.extend(" ".join(str(x) for x in row) for row in self.star.tolist())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SigmaAlgebra":
        lines = text.splitlines()
        n, i = read_header_int(lines, 0)
        if n < 1:
            raise MalformedLine(i, lines[i - 1] if lines else "", "size must be at least 1")
        comp, i = read_row_block(lines, i, n, n)
        while i < len(lines) and (is_blank(lines[i]) or is_comment(lines[i])):
            i += 1
        star, i = read_row_block(lines, i, n, n)
        require_only_trailing_junk(lines, i)
        return cls(comp, star)


def _check_identity(s: SigmaAlgebra, axiom: str) -> AxiomReport:
    comp = s.comp
    star = s.star
    idx = np.arange(s.n)
    mismatch = {
        "sigma-1": lambda a: comp[a[:, None, None], comp] != comp[comp[a][:, :, None], idx],
        "sigma-2": lambda a: star[comp[a][:, :, None], idx] != star[a[:, None, None], star],
        "sigma-3": lambda a: star[a[:, None, None], comp] != comp[star[a][:, :, None], star[a][:, None, :]],
        "sigma-4": lambda a: comp[star[a], a[:, None]] != comp[a],
    }.get(axiom)
    if mismatch is None:
        raise ValueError(f"unknown identity {axiom!r}")
    return AxiomReport.first(axiom, _violations(s.n, mismatch))


def check_sigma_identities(s: SigmaAlgebra) -> tuple[AxiomReport, ...]:
    """One report per identity, each with its own least witness."""
    return tuple(_check_identity(s, axiom) for axiom in SIGMA_AXIOMS)


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
        ab_star = star[a]
        t0 = star[a[:, None, None], star]
        t1 = star[comp[a][:, :, None], idx]
        t2 = star[comp[ab_star, a[:, None]][:, :, None], idx]
        t3 = star[ab_star[:, :, None], ab_star[:, None, :]]
        return (t0 != t1) | (t1 != t2) | (t2 != t3)

    return AxiomReport.first("ld-from-sigma", _violations(s.n, broken_link))


def group_to_sigma(g: FiniteGroup) -> SigmaAlgebra:
    """Pair a group's composition with conjugation as the star."""
    return SigmaAlgebra(g.comp, conjugation_quandle(g).table)
