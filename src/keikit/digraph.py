"""Irreflexive directed graphs on {0, ..., n-1} and their isomorphisms.

Digraphs are immutable adjacency matrices with a forced-false diagonal,
which edge lists are read into and written from a row at a time.  A
graph's pattern, its compact id, is its adjacency read at the mask
~eye(n), row-major, as one base-2 integer (_off_diagonal).  The module
also provides enumeration at small orders in pattern order, of every
graph or of the least pattern of each relabeling orbit, seeded random
generation, and isomorphism search (keikit.search) on the table
u*v = v if u -> v else u.
"""

from __future__ import annotations

import numbers
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import search
from .errors import MalformedLine, OutOfRange, SelfLoop, TooLarge, shown
from .magma import MAX_ORDER, Magma, permutation_table, square_array
from .textio import Lines, _int_runs, parse_int_tokens, read_header_int

ENUMERATION_LIMIT = 5

# The most vertices a digraph may have (kei order MAX_ORDER); larger
# counts are refused with TooLarge before anything n by n is allocated.
MAX_VERTICES = MAX_ORDER // 2


def _as_index(value, what: str) -> int:
    """operator.index(value): a numpy integer is taken, a float or str refused (OutOfRange)."""
    try:
        return operator.index(value)
    except TypeError:
        raise OutOfRange(f"{what} must be an integer, got {shown(value)}") from None


def check_vertex_count(n: int) -> int:
    """n as an int (see _as_index), refused below 1 or above MAX_VERTICES."""
    n = _as_index(n, "vertex count")
    if n < 1:
        raise OutOfRange("a digraph needs at least one vertex")
    if n > MAX_VERTICES:
        raise TooLarge(f"{shown(n)} vertices is above the limit of {MAX_VERTICES}")
    return n


def _as_permutation(values: Iterable) -> tuple[int, ...] | None:
    """values as a tuple of ints when they are integers (operator.index,
    so a float is refused, not truncated) forming a permutation of
    0..len-1, else None."""
    try:
        as_tuple = tuple(map(operator.index, values))
    except TypeError:
        return None
    return as_tuple if sorted(as_tuple) == list(range(len(as_tuple))) else None


@dataclass(frozen=True)
class Bijection:
    """A permutation of {0, ..., n-1} stored in one-line notation."""

    map: tuple[int, ...]

    def __post_init__(self) -> None:
        as_tuple = _as_permutation(self.map)
        if as_tuple is None:
            raise OutOfRange(f"map {shown(self.map)} is not a permutation of 0..len-1")
        object.__setattr__(self, "map", as_tuple)

    @property
    def domain_size(self) -> int:
        return len(self.map)

    def __call__(self, x: int) -> int:
        return self.map[x]

    def inverse(self) -> "Bijection":
        inv = [0] * len(self.map)
        for x, y in enumerate(self.map):
            inv[y] = x
        return Bijection(tuple(inv))

    def then(self, other: "Bijection") -> "Bijection":
        """Apply self first, then other."""
        if other.domain_size != self.domain_size:
            raise OutOfRange("cannot compose bijections of different sizes")
        return Bijection(tuple(other.map[y] for y in self.map))


def permutation_array(f: "Bijection | Sequence[int]", n: int) -> np.ndarray | None:
    """f as an int64 array when it is a permutation of 0..n-1, else None."""
    fmap = f.map if isinstance(f, Bijection) else _as_permutation(f)
    if fmap is None or len(fmap) != n:
        return None
    return np.array(fmap, dtype=np.int64)


def _check_edge(n: int, edge, lineno: int | None = None) -> tuple[int, int]:
    """edge as a pair of ints (see _as_index) in 0..n-1 that differ, else OutOfRange or SelfLoop."""
    try:
        u, v = edge
    except (TypeError, ValueError):
        raise OutOfRange(f"edge {shown(edge)} is not a pair of vertices") from None
    u, v = _as_index(u, "edge end"), _as_index(v, "edge end")
    if not (0 <= u < n and 0 <= v < n):
        where = "" if lineno is None else f"line {lineno}: "
        raise OutOfRange(f"{where}edge ({shown(u)}, {shown(v)}) outside 0..{n - 1}")
    if u == v:
        raise SelfLoop(u)
    return u, v


class Digraph:
    """An immutable irreflexive digraph; adj[u][v] means an edge u -> v.
    adj is converted by magma.square_array."""

    __slots__ = ("n", "adj", "_kei", "_degrees")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]] = (), adj=None) -> None:
        n = check_vertex_count(n)
        if adj is None:
            adj = np.zeros((n, n), dtype=bool)
            try:
                for edge in edges:
                    adj[_check_edge(n, edge)] = True
            except TypeError:
                raise OutOfRange(f"edges {shown(edges)} are not a collection of pairs") from None
        matrix = square_array(adj, bool, "adjacency", n)
        diag = np.flatnonzero(np.diagonal(matrix))
        if diag.size:
            raise SelfLoop(int(diag[0]))
        matrix.setflags(write=False)
        self.n = n
        self.adj = matrix
        self._kei: Magma | None = None  # filled by folding.encode_kei
        self._degrees: tuple[int, ...] | None = None

    def edges(self) -> list[tuple[int, int]]:
        return [(int(u), int(v)) for u, v in np.argwhere(self.adj)]

    def out_degrees(self) -> tuple[int, ...]:
        return tuple(self.adj.sum(axis=1).tolist())

    @property
    def degrees(self) -> tuple[int, ...]:
        """The search.fixed_point_labels of the graph table that
        find_graph_isomorphism searches, read from the degrees without
        building it.  Computed on first use and kept on the graph, like
        its kei."""
        if self._degrees is None:  # initial=1 counts u itself, as u*u = u
            outs, ins = np.add.reduce(self.adj, 1, initial=1), np.add.reduce(self.adj, 0, initial=1)
            self._degrees = search.fixed_point_labels(outs, ins, [1] * self.n)
        return self._degrees

    def relabel(self, mapping: "Bijection | Sequence[int]") -> "Digraph":
        """The digraph with vertex u renamed to mapping(u)."""
        if not isinstance(mapping, Bijection):
            mapping = Bijection(mapping)
        if mapping.domain_size != self.n:
            raise OutOfRange("relabeling must cover every vertex exactly once")
        perm = np.array(mapping.map, dtype=np.int64)
        out = np.zeros_like(self.adj)
        out[np.ix_(perm, perm)] = self.adj
        return Digraph(self.n, adj=out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.adj, other.adj))

    def __hash__(self) -> int:
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, edges={self.edges()})"

    def to_lines(self) -> Iterator[str]:
        """The text of to_edge_list: the count line, then each vertex's edges."""
        yield f"{self.n}\n"
        for u, row in enumerate(self.adj):
            yield "".join([f"{u} {v}\n" for v in np.flatnonzero(row).tolist()])

    def to_edge_list(self) -> str:
        return "".join(self.to_lines())


def parse_edge_list(text: str | Iterable[str]) -> Digraph:
    """Parse the edge-list format from a str or from its lines (see
    textio): a vertex count line, then one 'u v' line per edge.  Comments
    and blank lines are skipped."""
    lines = Lines(text)
    n = read_header_int(lines)
    if n < 1:
        raise MalformedLine(lines.lineno, lines.line, "vertex count must be at least 1")
    check_vertex_count(n)
    adj = np.zeros((n, n), dtype=bool)

    def edge(line: str, lineno: int) -> tuple[int, int]:
        values = parse_int_tokens(line, lineno)
        if len(values) != 2:
            raise MalformedLine(lineno, line, "expected two integers per edge line")
        return _check_edge(n, values, lineno)

    pairs = ((line, lines.lineno) for line in lines if lines.is_significant)
    for run in _int_runs(pairs, 2, edge, lambda e: ((e >= 0) & (e < n)).all() and (e[:, 0] != e[:, 1]).all()):
        adj[run[:, 0], run[:, 1]] = True
    return Digraph(n, adj=adj)


def _off_diagonal(n: int) -> np.ndarray:
    """The pattern bit order: positions u != v, row-major, first most significant."""
    return ~np.eye(n, dtype=bool)


def pattern_of(graph: Digraph) -> int:
    """The adjacency bits at the _off_diagonal positions, read as one
    base-2 integer (0 at n=1, which has none).  Used as a compact graph id."""
    digits = graph.adj[_off_diagonal(graph.n)].astype(np.uint8) + ord("0")
    return int(b"0" + digits.tobytes(), 2)


def digraph_from_pattern(n: int, pattern: int) -> Digraph:
    """The digraph whose pattern_of is pattern."""
    n, pattern = check_vertex_count(n), _as_index(pattern, "pattern")
    k = n * (n - 1)
    if not 0 <= pattern < (1 << k):
        raise OutOfRange(f"pattern {shown(pattern)} outside 0..{shown((1 << k) - 1)} for n={n}")
    # the k binary digits after a leading marker 1, so none at n=1
    digits = np.frombuffer(f"{pattern | 1 << k:b}".encode()[1:], dtype=np.uint8)
    adj = np.zeros((n, n), dtype=bool)
    adj[_off_diagonal(n)] = digits == ord("1")
    return Digraph(n, adj=adj)


_SWEEP_BLOCK = 1 << 12  # patterns per block of _canonical_patterns' walk


def _canonical_patterns(n: int) -> list[int]:
    """The least pattern of each relabeling orbit, ascending, by an orbit
    sweep: walk the patterns upward, keep each one not yet seen, and mark
    its whole orbit seen (its bits at the _off_diagonal mask, gathered
    under all n! relabelings and weighted back in one matmul).  A smaller
    member of an orbit is reached, and the orbit marked, before any
    larger one, so each kept pattern is its orbit's least.  The walk
    visits only the patterns still unseen when their block of _SWEEP_BLOCK
    is reached, since most are marked by then."""
    mask = _off_diagonal(n)
    k = n * (n - 1)
    weights = np.int64(1) << np.arange(k - 1, -1, -1, dtype=np.int64)  # bit value per masked position
    perms = permutation_table(n).T  # one relabeling per row
    adj = np.zeros((n, n), dtype=bool)
    seen = np.zeros(1 << k, dtype=bool)
    out: list[int] = []
    for lo in range(0, 1 << k, _SWEEP_BLOCK):
        for pattern in (lo + np.flatnonzero(~seen[lo:lo + _SWEEP_BLOCK])).tolist():
            if not seen[pattern]:  # a pattern kept earlier in this block may have marked it
                out.append(pattern)
                adj[mask] = (pattern & weights) != 0
                seen[adj[perms[:, :, None], perms[:, None, :]][:, mask] @ weights] = True
    return out


def enumerate_digraphs(n: int, dedupe: bool = False) -> Iterator[Digraph]:
    """Yield every labeled digraph on n vertices in increasing pattern
    order, or one representative per isomorphism class when dedupe is
    set.  Limited to n <= 5."""
    n = _as_index(n, "vertex count")
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"enumeration supported only for n <= {ENUMERATION_LIMIT}")
    if n < 1:
        raise OutOfRange("enumeration needs at least one vertex")
    patterns = _canonical_patterns(n) if dedupe else range(1 << n * (n - 1))
    for pattern in patterns:
        yield digraph_from_pattern(n, pattern)


def random_digraph(n: int, p: float, seed: int) -> Digraph:
    """Each ordered non-diagonal pair independently gets an edge with
    probability p, driven by a seeded generator for reproducibility."""
    n = check_vertex_count(n)
    if not (isinstance(p, numbers.Real) and 0.0 <= p <= 1.0):
        raise OutOfRange(f"edge probability {shown(p)} outside [0, 1]")
    rng = random.Random(_as_index(seed, "seed"))
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                adj[u, v] = True
    return Digraph(n, adj=adj)


def is_graph_isomorphism(g: Digraph, h: Digraph, f: "Bijection | Sequence[int]") -> bool:
    """True iff f is a bijection mapping g onto h preserving edges in
    both directions.  Size mismatches and non-bijections yield False."""
    perm = permutation_array(f, g.n)
    return perm is not None and g.n == h.n and bool((h.adj.take(perm, 0).take(perm, 1) == g.adj).all())


def find_graph_isomorphism(g: Digraph, h: Digraph) -> Bijection | None:
    """The lexicographically least isomorphism from g to h, or None:
    search.table_isomorphism on the graph tables, labelled by
    Digraph.degrees.  Graphs whose labels differ are refused before
    either table is built."""
    deg_g, deg_h = g.degrees, h.degrees
    if sorted(deg_g) != sorted(deg_h):  # most pairs stop here, before the tables are built
        return None
    idx = np.arange(g.n)
    # u*v is v or u when u != v, so a bijection keeps these tables exactly when it keeps edges
    rows_g = np.where(g.adj, idx, idx[:, None])
    rows_h = np.where(h.adj, idx, idx[:, None])
    found = search.table_isomorphism(rows_g, rows_h, deg_g, deg_h)
    return None if found is None else Bijection(found)
