"""Keis from digraphs, and recovering the digraph from the kei.

The encoding doubles each vertex v into a twin pair (v, 0), (v, 1),
flattened to elements 2v and 2v+1.  The operation is

  (u, i) * (v, j) = (v, j)      if u = v or there is an edge u -> v,
  (u, i) * (v, j) = (v, 1-j)    otherwise,

which is a kei for every irreflexive digraph.  More generally, any
fixed-point-free involution tau together with a compatible membership
family phi (a "replete" family: a is in phi(a), and phi respects tau in
both coordinates) defines a kei by  a*b = b if phi[a][b] else tau(b);
the encoding above is the special case tau = twin swap,
phi = adjacency-or-equality.  Tables of that shape are called folded
here, and detect_folded inverts the construction up to the choice of
pairing on elements that everything fixes.

Why a fold is a kei: each left translation L_a fixes or swaps every
tau pair, so it is an involution, and any two of them commute; a*b is
b or tau(b), whose phi rows agree, so L_(a*b) = L_b, and then
a*(b*c) = L_a L_b c = L_b L_a c = (a*b)*(a*c).  A witness found by the
O(n^2) scan is therefore a certificate: detect, decode and check on a
folded table never run the n^3 axiom checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    InternalContradiction,
    InvalidWitness,
    NotAKei,
    NotBijective,
    NotReplete,
    OutOfRange,
    WitnessMismatch,
    shown,
)
from .digraph import Bijection, Digraph, _as_index, _as_permutation
from .magma import Magma, classify, read_table_size, square_array
from .textio import Lines, read_row_block, require_only_trailing_junk


def _validate_tau(n: int, tau: Sequence[int]) -> tuple[int, ...]:
    tau_t = _as_permutation(tau)
    if tau_t is None or len(tau_t) != n:
        raise NotBijective(f"tau {shown(tau)} is not a permutation of 0..{shown(n - 1)}")
    return tau_t


def _validate_replete(tau: tuple[int, ...], phi: np.ndarray) -> None:
    """Raise NotReplete at the least offending (a, b).

    Conditions, in scan order: every a lies in its own neighborhood;
    then row-major over (a, b), membership is invariant under tau on
    either coordinate.
    """
    diag_bad = np.flatnonzero(~np.diagonal(phi))
    if diag_bad.size:
        a = int(diag_bad[0])
        raise NotReplete(a, a, "element not in its own neighborhood")
    tau_arr = np.array(tau, dtype=np.int64)
    violations = (phi != phi[tau_arr, :]) | (phi != phi[:, tau_arr])
    bad = np.argwhere(violations)
    if bad.size:
        a, b = (int(x) for x in bad[0])
        raise NotReplete(a, b, "membership not invariant under tau")


def _fold(tau: Sequence[int], phi: np.ndarray) -> Magma:
    """The table a*b = b if phi[a][b] else tau[b], built as the uint16
    table Magma keeps; callers validate."""
    return Magma(np.where(phi, np.arange(len(tau), dtype=np.uint16), np.asarray(tau, dtype=np.uint16)))


def derive_dynamical_quandle(n: int, tau: Sequence[int], phi) -> Magma:
    """Build the table a*b = b if phi[a][b] else tau[b].

    tau must be a permutation (NotBijective otherwise) and phi must be
    replete for tau (NotReplete otherwise).  The result is always a
    quandle; it is a kei exactly when tau is an involution on the
    elements it moves.
    """
    n = _as_index(n, "order")
    tau_t = _validate_tau(n, tau)
    phi_arr = square_array(phi, bool, "phi", n)
    _validate_replete(tau_t, phi_arr)
    return _fold(tau_t, phi_arr)


class FoldedWitness:
    """A pairing tau and membership family phi exhibiting a table as
    folded.  Valid witnesses always have tau a fixed-point-free
    involution and phi, a read-only bool array (see magma.square_array),
    replete for it."""

    def __init__(self, tau: Sequence[int], phi) -> None:
        phi_arr = square_array(phi, bool, "phi")
        n = len(phi_arr)
        tau_t = _validate_tau(n, tau)
        for a in range(n):
            if tau_t[a] == a:
                raise InvalidWitness(f"tau fixes {a}, but every element must be paired")
            if tau_t[tau_t[a]] != a:
                raise InvalidWitness(f"tau is not an involution at {a}")
        _validate_replete(tau_t, phi_arr)
        phi_arr.setflags(write=False)
        self.n = n
        self.tau = tau_t
        self.phi = phi_arr

    def to_magma(self) -> Magma:
        return _fold(self.tau, self.phi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FoldedWitness):
            return NotImplemented
        return self.tau == other.tau and bool(np.array_equal(self.phi, other.phi))

    def __hash__(self) -> int:
        return hash((self.tau, self.phi.tobytes()))

    def __repr__(self) -> str:
        return f"FoldedWitness(n={self.n}, tau={self.tau})"

    def to_text(self) -> str:
        lines = [str(self.n), " ".join(str(x) for x in self.tau)]
        digits = self.phi.view(np.uint8) + ord("0")
        lines.extend(row.tobytes().decode("ascii") for row in digits)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str | Iterable[str]) -> "FoldedWitness":
        lines = Lines(text)
        n = read_table_size(lines)
        tau = tuple(read_row_block(lines, np.empty((1, n), dtype=np.int64))[0].tolist())
        phi = read_row_block(lines, np.empty((n, n), dtype=bool))
        require_only_trailing_junk(lines)
        return cls(tau, phi)


@dataclass(frozen=True)
class EncodedKei:
    """A digraph together with the kei built on its twin pairs."""

    graph: Digraph
    magma: Magma

    def to_lines(self) -> Iterator[str]:
        """The text of to_text, one line at a time."""
        yield (
            f"# kei of a digraph with n_vertices={self.graph.n}; "
            "element 2*v+i encodes vertex v at level i\n"
        )
        yield from self.magma.to_lines()

    def to_text(self) -> str:
        return "".join(self.to_lines())


def encode_kei(graph: Digraph) -> EncodedKei:
    """The kei of a digraph, on carrier {0, ..., 2n-1} with (v, i) stored
    at index 2v+i.  Built once and kept on the graph, so freed with it."""
    if graph._kei is None:
        # the twin swap and the repeated adjacency-or-equality are a valid
        # pairing and a replete family by construction, so fold directly
        base = graph.adj | np.eye(graph.n, dtype=bool)
        phi = np.repeat(np.repeat(base, 2, axis=0), 2, axis=1)
        graph._kei = _fold(np.arange(2 * graph.n, dtype=np.uint16) ^ 1, phi)
    return EncodedKei(graph=graph, magma=graph._kei)


def _vertex_set(graph: Digraph, vertices: Sequence[int]) -> set[int]:
    try:
        chosen = {_as_index(v, "vertex") for v in vertices}
    except TypeError:
        raise OutOfRange(f"vertices {shown(vertices)} are not a collection") from None
    for v in chosen:
        if not 0 <= v < graph.n:
            raise OutOfRange(f"vertex {shown(v)} outside 0..{graph.n - 1}")
    return chosen


def twin_involution(graph: Digraph, keep: Sequence[int]) -> Bijection:
    """The kei automorphism of encode_kei(graph) that swaps the two
    levels of every vertex outside keep and fixes the rest."""
    keep_set = _vertex_set(graph, keep)
    mapping = tuple(x if x // 2 in keep_set else x ^ 1 for x in range(2 * graph.n))
    return Bijection(mapping)


def apex_extension(graph: Digraph, subset: Sequence[int]) -> Digraph:
    """Add one new vertex (numbered n) with edges only from it into
    subset.  Left multiplication by element 2n in the extended kei,
    restricted to old elements, realizes twin_involution(graph, subset).
    """
    subset_set = _vertex_set(graph, subset)
    n = graph.n
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    adj[:n, :n] = graph.adj
    adj[n, sorted(subset_set)] = True
    return Digraph(n + 1, adj=adj)


def _pairings(keys: Sequence[object]) -> Iterator[list[tuple[int, int]]]:
    """Every split of positions 0..k-1 into pairs (i, j) with equal keys.

    The first unpaired position takes each later unpaired partner in
    increasing order, on an explicit stack of one frame per pair, so k
    is not limited by recursion depth.  Each pairing is yielded as that
    stack, which changes once iteration resumes.
    """
    k = len(keys)
    used = [False] * k
    stack: list[tuple[int, int]] = []
    i, j = 0, 1  # i is the first unpaired position, j its next candidate
    while True:
        if i == k:
            yield stack
            j = k
        while j < k and (used[j] or keys[j] != keys[i]):
            j += 1
        if j < k:
            stack.append((i, j))
            used[i] = used[j] = True
            while i < k and used[i]:
                i += 1
            j = i + 1
        elif stack:
            i, j = stack.pop()
            used[i] = used[j] = False
            j += 1
        else:
            return


def _scan_witnesses(m: Magma) -> Iterator[FoldedWitness]:
    """Every witness exhibiting m as folded, in a fixed order, from
    O(n^2) work per witness and without checking any axiom.

    phi is forced cell by cell (phi[a][b] iff a*b = b) and tau is forced
    on every element that something moves; only the pairing among
    elements fixed by everything is free, within classes of equal phi
    rows.  When every class has even size those pairings are enumerated
    by backtracking in increasing element order, and each next one costs
    O(k) for k free elements; otherwise there is none.  Yields
    nothing, and raises nothing, for a table of any other shape.
    """
    n = m.n
    if n % 2 == 1:
        return
    phi = m.table == np.arange(n)
    if not np.diagonal(phi).all():  # not idempotent, so not replete
        return
    fixed = phi.all(axis=0)
    moved = np.flatnonzero(~fixed)
    # tau[b] is the first a*b other than b; every other one must agree.  An
    # element that nothing moves is its own tau until it is paired, so a
    # moved element whose tau it is fails the involution check below
    tau = np.arange(n, dtype=np.uint16)
    tau[moved] = m.table[phi[:, moved].argmin(axis=0), moved]
    if _fold(tau, phi) != m:
        return
    partner = tau[moved]
    if (tau[partner] != moved).any():
        return
    if (phi[moved] != phi[partner]).any() or (phi[:, moved] != phi[:, partner]).any():
        return
    free = np.flatnonzero(fixed).tolist()
    # every column of a free element is all true, so only rows can differ
    keys = [phi[a].tobytes() for a in free]
    # a class of odd size admits no pairing; once every class is even,
    # each first pairing is found without backtracking
    if any(count % 2 for count in Counter(keys).values()):
        return
    tau_list = tau.tolist()
    for pairing in _pairings(keys):
        for i, j in pairing:
            tau_list[free[i]], tau_list[free[j]] = free[j], free[i]
        witness = FoldedWitness(tau_list, phi)
        if witness.to_magma() != m:
            raise InternalContradiction("detected witness does not reproduce the table")
        yield witness


def detect_folded_all(m: Magma) -> Iterator[FoldedWitness]:
    """Yield every witness exhibiting m as folded, in a fixed order.

    Raises NotAKei when m is not a kei.  The witnesses come from the
    O(n^2) scan, and a table with one is a kei, so classify runs only
    when the scan finds none, to tell a kei that is not folded (nothing
    is yielded) from a table that is not a kei.
    """
    witnesses = _scan_witnesses(m)
    first = next(witnesses, None)
    if first is None:
        if not classify(m).is_kei:
            raise NotAKei("only keis can be folded")
        return
    yield first
    yield from witnesses


def is_folded(m: Magma) -> bool:
    """Whether m is the fold of a valid witness, from the O(n^2) scan
    alone.  A folded table is a kei, so True certifies every axiom."""
    return next(_scan_witnesses(m), None) is not None


def detect_folded(m: Magma) -> FoldedWitness | None:
    """First witness from detect_folded_all, or None."""
    return next(detect_folded_all(m), None)


def decode_graph(m: Magma, witness: FoldedWitness) -> tuple[Digraph, Bijection]:
    """Recover a digraph from a folded kei and a witness for it.

    Vertices are the tau pairs, represented by their smaller element in
    increasing order; u -> v is an edge when the representative of u
    lies in phi of the representative of v and u != v.  Also returns
    the isomorphism from encode_kei(graph).magma onto m that sends
    2u to the representative of u and 2u+1 to its partner.

    Raises WitnessMismatch when the witness does not rebuild m exactly.
    """
    if witness.n != m.n or witness.to_magma() != m:
        raise WitnessMismatch("witness does not reproduce the given table")
    tau = np.array(witness.tau, dtype=np.int64)
    reps = np.flatnonzero(np.arange(m.n) < tau)
    adj = witness.phi[np.ix_(reps, reps)]
    np.fill_diagonal(adj, False)
    mapping = np.stack([reps, tau[reps]], axis=1).ravel()
    return Digraph(len(reps), adj=adj), Bijection(tuple(mapping.tolist()))
