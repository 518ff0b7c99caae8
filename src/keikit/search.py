"""The one backtracking isomorphism search, described at
table_isomorphism, and its one label rule, fixed_point_labels.  Magma
isomorphism (iso.magma_iso_search) and digraph isomorphism
(digraph.find_graph_isomorphism) both run it.  The module imports no
other keikit module.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def fixed_point_labels(rows: np.ndarray, cols: np.ndarray, idem: list[int]) -> tuple[int, ...]:
    """The one label rule both isomorphism searches start from: element
    a of an order-n table gets (rows[a]*(n+1) + cols[a])*2 + idem[a],
    where rows[a] counts the b with a*b = b, cols[a] the b with b*a = a,
    and idem[a] is 1 when a*a = a.  The packing is injective, so an
    isomorphism keeps labels, and labels of two tables of one order
    compare directly.  It packs Python ints, which is faster than array
    arithmetic at the orders searched most.

    On the graph table u*v = v if u -> v else u the counts are 1 +
    out-degree and 1 + in-degree of u; on the kei of a digraph, twice
    that on u's twins.  Colour refinement would split no class of a kei:
    a*b and b*a are b and a up to twin swaps, which keep labels.
    """
    m = len(rows) + 1
    return tuple([(r * m + c) * 2 + i for r, c, i in zip(rows.tolist(), cols.tolist(), idem)])


def table_isomorphism(rows_m, rows_n, labels_m, labels_n) -> tuple[int, ...] | None:
    """A label-respecting isomorphism between two square tables, or None.

    The tables are array-likes, and the labels their fixed_point_labels
    (any isomorphism invariant would do).  Label multisets that differ
    (orders included) give None and equal tables the identity, so callers
    check neither.  Otherwise a backtracking search in three parts decides it:
    - state and propagation, the only part that binds: assign(x, y) binds
      x -> y, and with z -> w assigned, a -> b implies a*z -> b*w and
      z*a -> w*b; bind checks and assigns each implied pair where found,
      failing when either side is taken or the labels differ.  The tail of
      assigned bound since the call is the only queue: O(n) memory.
    - the candidate stream, candidates(x), which only chooses: it yields the
      free elements with x's label in ascending order.  Resumed, it takes
      the one it gave last as failed and skips its class below.
    - the frame loop, which owns backtracking: a stack of (element, mark,
      stream), each element the least unassigned one.  It rolls the state
      back to the mark before each candidate, descends when assign succeeds
      and pops the frame when its stream ends: no recursion depth limit.

    Call y and y' interchangeable (one class) when the transposition
    s = (y y') is an automorphism of the target table.  If x -> b failed
    under some assignments, and b' is interchangeable with b, both
    unassigned, then s fixes every image assigned so far, so an isomorphism
    f extending them with x -> b' would give one, s f, with x -> b: x -> b'
    fails too.  At a frame's first failure, _interchangeable finds the
    classes among the target elements with its label (an automorphism keeps
    labels), kept for that label, after _column_scan, its per-table part,
    once per search: O(n^2) once and O(|S| n) per label class S that fails.
    A table with a non-permutation row has no classes.  Labels, propagation
    and this pruning only cut branches with no isomorphism, and candidates
    go in ascending order, so the result is the lexicographically least.
    """
    if sorted(labels_m) != sorted(labels_n):
        return None
    n = len(labels_m)
    if np.array_equal(rows_m, rows_n):
        return tuple(range(n))
    cands: dict = {}
    for y in range(n):
        cands.setdefault(labels_n[y], []).append(y)
    rows_m, rows_n = np.asarray(rows_m).tolist(), np.asarray(rows_n).tolist()
    fwd, bwd = [-1] * n, [-1] * n  # the images both ways
    assigned: list[int] = []  # in binding order, so a rollback pops its tail
    scan, classes = None, {}  # _column_scan(rows_n) once a candidate fails; per label, _interchangeable

    def bind(p: int, q: int) -> bool:
        if fwd[p] != -1 or bwd[q] != -1 or labels_m[p] != labels_n[q]:
            return False
        fwd[p] = q
        bwd[q] = p
        assigned.append(p)
        return True

    def assign(x: int, y: int) -> bool:
        i = len(assigned)
        bind(x, y)  # x is the least unassigned element, y a free one with its label
        while i < len(assigned):  # the elements bound since the call are the queue
            p = assigned[i]
            i += 1
            q = fwd[p]
            row_p, row_q = rows_m[p], rows_n[q]
            for z in assigned[:i]:
                w = fwd[z]
                r, s = row_p[z], row_q[w]
                if fwd[r] != s and not bind(r, s):
                    return False
                r, s = rows_m[z][p], rows_n[w][q]
                if fwd[r] != s and not bind(r, s):
                    return False
        return True

    def candidates(x: int) -> Iterator[int]:
        nonlocal scan
        label, cls, failed = labels_m[x], None, None  # cls: the label's classes; failed: the classes that failed here
        for b in cands[label]:
            if bwd[b] != -1 or (failed is not None and cls[b] in failed):
                continue
            yield b
            if cls is None and (cls := classes.get(label)) is None:
                scan = _column_scan(rows_n) if scan is None else scan
                cls = classes[label] = _interchangeable(rows_n, cands[label], *scan) if scan else {}
            if cls:
                failed = failed or set()
                failed.add(cls[b])

    frames: list[tuple[int, int, Iterator[int]]] = []
    x = 0
    while True:
        while x < n and fwd[x] != -1:
            x += 1
        if x == n:
            return tuple(fwd)
        mark, stream = len(assigned), candidates(x)
        frames.append((x, mark, stream))
        while True:
            while len(assigned) > mark:  # inline, as it runs once per candidate
                p = assigned.pop()
                bwd[fwd[p]] = -1
                fwd[p] = -1
            b = next(stream, -1)
            if b == -1:
                frames.pop()
                if not frames:
                    return None
                x, mark, stream = frames[-1]
            elif assign(x, b):
                break
        x += 1


def _column_scan(rows: list[list[int]]) -> tuple:
    """_interchangeable's per-table part, O(n^2): () if a row is not a permutation,
    else first[y], the least a != y with a*y != y or -1, and outside, the y with one."""
    n = len(rows)
    if any(len(set(row)) < n for row in rows):
        return ()
    first = [next((a for a in range(n) if rows[a][y] != y and a != y), -1) for y in range(n)]
    return first, [c for c in range(n) if first[c] != -1]


def _interchangeable(rows, members: list[int], first: list[int], outside: list[int]) -> dict[int, int]:
    """The classes of interchangeable elements among members, the ascending
    elements of one label, in a table of permutation rows and its
    _column_scan: for each member y, the least y' with y = y' or s = (y y')
    an automorphism, or {} when there is none.  s is one exactly when
    (1) {a*y, a*y'} = {y, y'} for every a other than y and y', and
    (2) L_y' = s L_y s.  By (1), a*y is y or y' off rows y and y', so the
    least a != y with a*y != y, if any, leaves y' in {a, a*y}: two
    candidates, each checked in O(n).  The others, the set F whose columns
    hold only themselves off their own rows, pair only with each other; on
    pairs in F, (1) always holds and (2) says that rows y and y' agree on
    the diagonal and on the columns outside F once the row's own element
    is blanked out.  So F splits by that key: O(n) a member.
    """
    classes = {y: y for y in members}
    keyed: dict[tuple[int, ...], int] = {}
    for y in members:
        a, row = first[y], rows[y]
        if a == -1:
            # from a list: the interpreter keeps freed tuples for reuse by size, and a
            # tuple grown from a generator is resized, so it would not reuse them
            key = tuple([-1 if row[c] == y else row[c] for c in [y, *outside]])
            classes[y] = keyed.setdefault(key, y)
        elif classes[y] == y:
            for z in (a, rows[a][y]):
                if z > y and classes.get(z) == z and _swap_is_automorphism(rows, y, z):
                    classes[z] = y
    return classes if any(c != y for y, c in classes.items()) else {}


def _swap_is_automorphism(rows, y: int, z: int) -> bool:
    """Whether (y z) is an automorphism of a table whose rows are all
    permutations: conditions (1) and (2) of _interchangeable."""
    pair = {y, z}
    if any({row[y], row[z]} != pair for a, row in enumerate(rows) if a != y and a != z):
        return False
    s = list(range(len(rows)))
    s[y], s[z] = z, y
    return [rows[z][c] for c in s] == [s[v] for v in rows[y]]
