"""Isomorphisms of magmas and the graph-to-kei reduction argument.

The central claim verified by this package: two irreflexive digraphs
are isomorphic exactly when their encoded keis are isomorphic as
magmas.  This module supplies both directions concretely: a graph
isomorphism induces a kei isomorphism by acting on twin pairs, and
extract_graph_iso(mapping, source, target) projects any kei
isomorphism, a plain Bijection on 2n elements, back onto the vertices
in one walk: a moving vertex goes where its twins go, and on the fixed
vertices, those every other vertex points at, whose twins a kei
isomorphism may scatter, the walk picks one element of each.

Magma isomorphisms are found by a vectorized brute force over all
permutations (small orders, used as the oracle) and by keikit.search,
which digraph isomorphism also uses (the workhorse); both return the
lexicographically least isomorphism.  Brute force filters the columns
of magma.permutation_table, one permutation per column in
lexicographic order, one table row at a time, keeping those that
respect every product of that row, so each permutation is tested up to
its first failing row; it uses neither labels nor the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import search
from .digraph import Bijection, Digraph, find_graph_isomorphism, is_graph_isomorphism, permutation_array
from .errors import (
    InternalContradiction,
    InvalidIso,
    NotAGraphIso,
    OutOfRange,
    TooLarge,
)
from .folding import encode_kei
from .magma import Magma, permutation_table

BRUTE_FORCE_LIMIT = 8


def is_magma_isomorphism(m: Magma, n_: Magma, f: Bijection | Sequence[int]) -> bool:
    """True iff f is a bijection with f(a*b) = f(a)*f(b) on the whole
    table.  Size mismatches and non-bijections simply yield False."""
    perm = permutation_array(f, m.n)
    return perm is not None and m.n == n_.n and bool(
        (perm.take(m.table) == n_.table.take(perm, 0).take(perm, 1)).all()
    )


def magma_iso_bruteforce_all(m: Magma, n_: Magma) -> Iterator[Bijection]:
    """Every isomorphism from m to n_, in lexicographic order.  Only for
    carriers up to BRUTE_FORCE_LIMIT.

    Every permutation f, a column of permutation_table, is tested: row
    a keeps the columns f with f(a*b) = f(a)*f(b) for every b, all
    columns in one step, so after the last row exactly the isomorphisms
    are left, still in order.  The scan stops at the first row that
    leaves none; a row that keeps them all copies nothing.  Both tables
    are converted to intp indices once per call.
    """
    if max(m.n, n_.n) > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"brute force only runs at order <= {BRUTE_FORCE_LIMIT}")
    n = m.n
    if n != n_.n:
        return
    cols = permutation_table(n)
    rows_m = m.table.astype(np.intp)
    cells_n = n_.table.astype(np.intp).ravel()
    for a in range(n):
        keep = (cols.take(rows_m[a], 0) == cells_n.take(cols[a] * n + cols)).all(axis=0)
        if not keep.all():
            cols = cols.compress(keep, 1)
            if not cols.shape[1]:
                return
    for f in cols.T:
        yield Bijection(tuple(f.tolist()))


def magma_iso_bruteforce(m: Magma, n_: Magma) -> Bijection | None:
    """Least isomorphism in one-line lexicographic order, or None."""
    for found in magma_iso_bruteforce_all(m, n_):
        return found
    return None


def magma_iso_search(m: Magma, n_: Magma) -> Bijection | None:
    """The lexicographically least isomorphism from m to n_, or None, the
    map magma_iso_bruteforce returns: search.table_isomorphism on the
    tables, labelled by Magma.invariant_labels."""
    found = search.table_isomorphism(m.table, n_.table, m.invariant_labels(), n_.invariant_labels())
    return None if found is None else Bijection(found)


def _check_kei_iso(mapping: Bijection, source: Digraph, target: Digraph) -> None:
    """Raise InvalidIso unless mapping is a magma isomorphism between
    the keis of source and target."""
    if mapping.domain_size != 2 * source.n or source.n != target.n:
        raise InvalidIso(
            f"map on {mapping.domain_size} elements cannot link keis of "
            f"{source.n} and {target.n} vertices"
        )
    if not is_magma_isomorphism(encode_kei(source).magma, encode_kei(target).magma, mapping):
        raise InvalidIso("map does not preserve the kei operation")


def induced_kei_iso(h: Bijection, source: Digraph, target: Digraph) -> Bijection:
    """Lift a graph isomorphism to the keis by 2v+i -> 2h(v)+i."""
    if not is_graph_isomorphism(source, target, h):
        raise NotAGraphIso("map is not an isomorphism of the given digraphs")
    mapping = Bijection(tuple(2 * h(x // 2) + x % 2 for x in range(2 * source.n)))
    _check_kei_iso(mapping, source, target)
    return mapping


def extract_graph_iso(mapping: Bijection, source: Digraph, target: Digraph) -> Bijection:
    """Convert a kei isomorphism from the kei of source to the kei of
    target back into a graph isomorphism, raising InvalidIso when
    mapping is not one.

    One walk projects every vertex: from each vertex not yet mapped, in
    ascending order and at level 0, it maps the current vertex to the
    vertex of its element's image, then hops to the element whose image
    is the twin of the image of the current vertex's other level, and
    stops at a vertex already mapped.  A moving vertex, whose twins go to
    one target vertex, closes its walk at once; walks from fixed
    vertices, whose elements every element fixes, stay on them, and the
    elements they choose hit each target twin pair once.  The result is
    validated on the graphs; failure there would mean the construction
    is broken and raises InternalContradiction.
    """
    _check_kei_iso(mapping, source, target)
    fwd = mapping.map
    inv = mapping.inverse().map
    f = [-1] * source.n
    for start in range(source.n):
        v, level = start, 0
        while f[v] < 0:
            f[v] = fwd[2 * v + level] // 2
            hop = inv[fwd[2 * v + 1 - level] ^ 1]
            v, level = hop // 2, hop % 2
    try:
        result = Bijection(tuple(f))
    except OutOfRange as exc:
        raise InternalContradiction(f"extracted vertex map is not a bijection: {f}") from exc
    if not is_graph_isomorphism(source, target, result):
        raise InternalContradiction("extracted vertex map fails the edge check")
    return result


@dataclass(frozen=True, slots=True)  # one per pair: reduce-test builds tens of thousands
class ReductionVerdict:
    """Outcome of testing one graph pair for both kinds of isomorphism."""

    graph_iso: bool
    kei_iso: bool
    agree: bool


def reduction_check(g: Digraph, h: Digraph, oracle_limit: int = 6) -> ReductionVerdict:
    """Decide graph isomorphism and kei isomorphism independently and
    record whether they agree.

    Any isomorphism the searches produce is re-validated, and the kei
    search's map must equal brute force's, the least isomorphism, when
    the kei order is at most oracle_limit.  Disagreement between the
    searches and their validation or oracle raises
    InternalContradiction; disagreement between the graph answer and
    the kei answer is what the verdict is for and is simply reported.
    """
    graph_found = find_graph_isomorphism(g, h)
    if graph_found is not None and not is_graph_isomorphism(g, h, graph_found):
        raise InternalContradiction("graph search returned a non-isomorphism")
    kei_g = encode_kei(g).magma
    kei_h = encode_kei(h).magma
    kei_found = magma_iso_search(kei_g, kei_h)
    if kei_found is not None and not is_magma_isomorphism(kei_g, kei_h, kei_found):
        raise InternalContradiction("kei search returned a non-isomorphism")
    if kei_g.n == kei_h.n and kei_g.n <= oracle_limit:
        brute = magma_iso_bruteforce(kei_g, kei_h)
        if brute != kei_found:
            raise InternalContradiction("kei search disagrees with brute force")
    graph_iso = graph_found is not None
    kei_iso = kei_found is not None
    return ReductionVerdict(graph_iso, kei_iso, graph_iso == kei_iso)


def format_verdict_line(id_left: str, id_right: str, verdict: ReductionVerdict) -> str:
    return (
        f"{id_left} {id_right} "
        f"{int(verdict.graph_iso)} {int(verdict.kei_iso)} {int(verdict.agree)}"
    )

