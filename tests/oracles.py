"""Independent reference implementations used to validate the library.

Everything here is deliberately written as direct loops over the
definitions, so the optimized library code has something dumb and
trustworthy to be compared against.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations
from unicodedata import decimal

import numpy as np

from keikit import Digraph, Magma, MalformedLine, OutOfRange, SelfLoop, TooLarge
from keikit.digraph import MAX_VERTICES
from keikit.magma import MAX_ORDER, check_axiom_unique_left_division, classify


def first_ld_violation(rows) -> tuple[int, int, int] | None:
    n = len(rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[a][rows[b][c]] != rows[rows[a][b]][rows[a][c]]:
                    return (a, b, c)
    return None


def all_ld_violations(rows) -> list[tuple[int, int, int]]:
    n = len(rows)
    return [
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if rows[a][rows[b][c]] != rows[rows[a][b]][rows[a][c]]
    ]


def first_involutory_violation(rows) -> tuple[int, int] | None:
    n = len(rows)
    for a in range(n):
        for b in range(n):
            if rows[a][rows[a][b]] != b:
                return (a, b)
    return None


def first_division_violation(rows) -> tuple[int, int] | None:
    # least (a, c) that row a never attains; a duplicated value always
    # forces some other value to be missing, so this detects exactly
    # the non-permutation rows
    n = len(rows)
    for a in range(n):
        for c in range(n):
            if all(rows[a][b] != c for b in range(n)):
                return (a, c)
    return None


def first_idempotence_violation(rows) -> tuple[int] | None:
    for a in range(len(rows)):
        if rows[a][a] != a:
            return (a,)
    return None


def direct_encode_rows(graph: Digraph) -> list[list[int]]:
    """The kei of a digraph evaluated case by case from its definition."""
    n2 = 2 * graph.n
    rows = []
    for x in range(n2):
        u = x // 2
        row = []
        for y in range(n2):
            v, j = y // 2, y % 2
            if u == v or graph.adj[u, v]:
                row.append(2 * v + j)
            else:
                row.append(2 * v + (1 - j))
        rows.append(row)
    return rows


def edge_list_text(graph: Digraph) -> str:
    """The edge-list text of a digraph: the vertex count, then one 'u v'
    line per edge in row-major order, from the list of its edges."""
    lines = [str(graph.n)]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def _int_tokens(lineno: int, line: str) -> list[int]:
    """Each whitespace-separated token of line read by int() on its own,
    refused when it is not an integer or does not fit in 64 bits.  A
    token int() refuses is an integer when it is a sign and groups of
    decimal digits joined by single underscores, which int() refuses
    only for their length; its value fits only if at most 19 digits are
    left once leading zeros are dropped."""
    values = []
    for token in line.split():
        try:
            value = int(token)
        except ValueError:
            sign = token[0] if token[0] in "+-" else ""
            groups = token[len(sign):].split("_")
            if not all(group.isdecimal() for group in groups):
                raise MalformedLine(lineno, line, f"expected integer, got {token!r}") from None
            digits = "".join(str(decimal(c)) for group in groups for c in group).lstrip("0") or "0"
            value = int(sign + digits) if len(digits) <= 19 else 2 ** 63
        if not -(2 ** 63) <= value < 2 ** 63:
            raise MalformedLine(lineno, line, f"integer {token!r} does not fit in 64 bits")
        values.append(value)
    return values


def _significant(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and stripped[0] != "#"


def _header(lines: list[str]) -> tuple[int, int]:
    """The index of the first significant line and the one integer on it."""
    i = next((i for i, line in enumerate(lines) if _significant(line)), len(lines))
    if i == len(lines):
        raise MalformedLine(i + 1, "", "missing size line")
    values = _int_tokens(i + 1, lines[i])
    if len(values) != 1:
        raise MalformedLine(i + 1, lines[i], "expected a single integer")
    return i, values[0]


def table_blocks(text: str, blocks: int) -> list[list[list[int]]]:
    """The blocks of a table or sigma file, read line by line from its
    grammar: a header n, then blocks of n rows of n integers each.
    Comments may come anywhere and blank lines before the header, between
    blocks and after the last; nothing significant may follow."""
    lines = text.splitlines()
    i, n = _header(lines)
    if n < 1:
        raise MalformedLine(i + 1, lines[i], "size must be at least 1")
    if n > MAX_ORDER:
        raise TooLarge(f"order {n} is above the limit of {MAX_ORDER}")
    i += 1
    out = []
    for block in range(blocks):
        while block and i < len(lines) and not _significant(lines[i]):
            i += 1
        rows = []
        while len(rows) < n:
            if i == len(lines):
                raise MalformedLine(i + 1, "", f"expected {n} rows, got {len(rows)}")
            line, i = lines[i], i + 1
            if not line.strip():
                raise MalformedLine(i, line, "blank line inside a table block")
            if _significant(line):
                rows.append(_int_tokens(i, line))
                if len(rows[-1]) != n:
                    raise MalformedLine(i, line, f"expected {n} entries, got {len(rows[-1])}")
        out.append(rows)
    extra = next((j for j in range(i, len(lines)) if _significant(lines[j])), None)
    if extra is not None:
        raise MalformedLine(extra + 1, lines[extra], "unexpected extra content")
    return out


def edge_list_adjacency(text: str) -> np.ndarray:
    """The adjacency matrix of an edge list, read line by line: a vertex
    count, then one 'u v' line per edge, each checked as it is read."""
    lines = text.splitlines()
    i, n = _header(lines)
    if n < 1:
        raise MalformedLine(i + 1, lines[i], "vertex count must be at least 1")
    if n > MAX_VERTICES:
        raise TooLarge(f"{n} vertices is above the limit of {MAX_VERTICES}")
    adj = np.zeros((n, n), dtype=bool)
    for lineno, line in enumerate(lines[i + 1:], i + 2):
        if _significant(line):
            values = _int_tokens(lineno, line)
            if len(values) != 2:
                raise MalformedLine(lineno, line, "expected two integers per edge line")
            u, v = values
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRange(f"line {lineno}: edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoop(u)
            adj[u, v] = True
    return adj


def pattern_bits(graph: Digraph) -> int:
    """The adjacency bits at u != v, row-major, first most significant,
    accumulated one bit at a time into an int."""
    bits = 0
    for u in range(graph.n):
        for v in range(graph.n):
            if u != v:
                bits = 2 * bits + int(graph.adj[u, v])
    return bits


def catalog_records(text: str) -> list[str]:
    """The records of a catalog, as enumerate writes it: the texts
    between blank lines."""
    return [record for record in text.split("\n\n") if record.strip()]


def verdict_flags(line: str) -> tuple[bool, bool, bool]:
    """The (graph, kei, agree) flags of a verdict line, whose five
    fields are two ids and three 0/1 flags, agree saying whether the
    other two are equal."""
    fields = line.split()
    assert len(fields) == 5, line
    assert all(flag in ("0", "1") for flag in fields[2:]), line
    graph, kei, agree = (flag == "1" for flag in fields[2:])
    assert agree == (graph == kei), line
    return graph, kei, agree


def brute_graph_iso(g: Digraph, h: Digraph) -> tuple[int, ...] | None:
    """First isomorphism over all n! vertex maps, or None."""
    if g.n != h.n:
        return None
    n = g.n
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    relabeled = h.adj[perms[:, :, None], perms[:, None, :]]
    hits = np.flatnonzero((relabeled == g.adj[None, :, :]).all(axis=(1, 2)))
    if hits.size == 0:
        return None
    return tuple(int(x) for x in perms[int(hits[0])])


def magma_isomorphisms(rows_m, rows_n) -> list[tuple[int, ...]]:
    """Every isomorphism between two tables, ascending: each permutation
    tried on every cell."""
    n = len(rows_m)
    if len(rows_n) != n:
        return []
    return [
        f
        for f in permutations(range(n))
        if all(f[rows_m[a][b]] == rows_n[f[a]][f[b]] for a in range(n) for b in range(n))
    ]


def graph_automorphisms(g: Digraph) -> list[tuple[int, ...]]:
    """Every vertex permutation fixing the edge relation, ascending."""
    n = g.n
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    relabeled = g.adj[perms[:, :, None], perms[:, None, :]]
    hits = np.flatnonzero((relabeled == g.adj[None, :, :]).all(axis=(1, 2)))
    return [tuple(int(x) for x in perms[int(i)]) for i in hits]


def transposition_classes(rows) -> list[tuple[int, ...]]:
    """The classes of two or more elements under y ~ z when the
    transposition (y z) is an automorphism of the table, each ascending,
    in order of least element: every pair tried on every cell."""
    n = len(rows)
    partners = [[y] for y in range(n)]
    for y in range(n):
        for z in range(n):
            swap = list(range(n))
            swap[y], swap[z] = z, y
            if y != z and all(
                swap[rows[a][b]] == rows[swap[a]][swap[b]] for a in range(n) for b in range(n)
            ):
                partners[y].append(z)
    return sorted({tuple(sorted(p)) for p in partners if len(p) > 1})


def cfi(base_edges, twisted: bool = False) -> Digraph:
    """The Cai-Fürer-Immerman graph of a base graph, as a symmetric digraph.

    Each base vertex v, in ascending order, gets one vertex per subset S
    of its incident edges of even size and two, (v, e, 0) and (v, e, 1),
    per incident edge e; S is joined to (v, e, 1) for e in S and to
    (v, e, 0) otherwise.  Each base edge e = {u, v} joins (u, e, i) to
    (v, e, i), or to (v, e, 1 - i) for base edge 0 when twisted.  On a
    connected base graph the twisted and the untwisted graph are not
    isomorphic.  Vertices are numbered in order of first use.
    """
    incident: dict[int, list[int]] = {}
    for e, (u, v) in enumerate(base_edges):
        incident.setdefault(u, []).append(e)
        incident.setdefault(v, []).append(e)
    pairs = []
    for v, mine in sorted(incident.items()):
        for k in range(0, len(mine) + 1, 2):
            pairs += [((v, s), (v, e, int(e in s))) for s in combinations(mine, k) for e in mine]
    for e, (u, v) in enumerate(base_edges):
        pairs += [((u, e, i), (v, e, i ^ (twisted and e == 0))) for i in (0, 1)]
    ids = {key: i for i, key in enumerate(dict.fromkeys(chain.from_iterable(pairs)))}
    return Digraph(len(ids), [(ids[a], ids[b]) for x, y in pairs for a, b in ((x, y), (y, x))])


def fpf_involutions(n: int) -> list[tuple[int, ...]]:
    """All fixed-point-free involutions of {0..n-1}."""
    if n % 2 == 1:
        return []
    out: list[tuple[int, ...]] = []
    tau = [-1] * n

    def pair(elems: list[int]) -> None:
        if not elems:
            out.append(tuple(tau))
            return
        a = elems[0]
        for j in range(1, len(elems)):
            b = elems[j]
            tau[a], tau[b] = b, a
            pair(elems[1:j] + elems[j + 1:])
            tau[a] = tau[b] = -1

    pair(list(range(n)))
    return out


def folded_witness_taus(m: Magma) -> list[tuple[int, ...]]:
    """All tau under which m literally is a folded table, by trying
    every fixed-point-free involution against the definitions."""
    rows = m.table.tolist()
    n = m.n
    phi = [[rows[a][b] == b for b in range(n)] for a in range(n)]
    result = []
    for tau in fpf_involutions(n):
        ok = all(phi[a][a] for a in range(n))
        ok = ok and all(
            phi[a][b] == phi[tau[a]][b] and phi[a][b] == phi[a][tau[b]]
            for a in range(n)
            for b in range(n)
        )
        ok = ok and all(
            rows[a][b] == (b if phi[a][b] else tau[b])
            for a in range(n)
            for b in range(n)
        )
        if ok:
            result.append(tau)
    return result


def direct_sigma_violations(comp, star) -> dict[str, tuple[int, ...] | None]:
    """First violating tuple of each identity, by direct evaluation."""
    n = len(comp)
    found: dict[str, tuple[int, ...] | None] = {}
    witness = None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if comp[a][comp[b][c]] != comp[comp[a][b]][c] and witness is None:
                    witness = (a, b, c)
    found["sigma-1"] = witness
    witness = None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if star[comp[a][b]][c] != star[a][star[b][c]] and witness is None:
                    witness = (a, b, c)
    found["sigma-2"] = witness
    witness = None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if star[a][comp[b][c]] != comp[star[a][b]][star[a][c]] and witness is None:
                    witness = (a, b, c)
    found["sigma-3"] = witness
    witness = None
    for a in range(n):
        for b in range(n):
            if comp[star[a][b]][a] != comp[a][b] and witness is None:
                witness = (a, b)
    found["sigma-4"] = witness
    return found


def trivial_kei(n: int) -> Magma:
    return Magma([[b for b in range(n)] for _ in range(n)])


def dihedral_kei(n: int) -> Magma:
    """a*b = 2a-b mod n, the reflection kei on n points."""
    return Magma([[(2 * a - b) % n for b in range(n)] for a in range(n)])


def relabel_rows(rows, perm) -> list[list[int]]:
    """The table carried along perm: element a renamed to perm[a]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[rows[a][b]]
    return out


def assert_core_invariants(m: Magma) -> None:
    """Cross-cutting checks applied to every magma a test touches."""
    ladder = classify(m)
    assert ladder.is_kei <= ladder.is_quandle <= ladder.is_rack <= ladder.is_ld
    if check_axiom_unique_left_division(m).holds:
        for row in m.table.tolist():
            assert len(set(row)) == m.n


def all_subsets(n: int) -> list[tuple[int, ...]]:
    return [
        tuple(v for v in range(n) if (mask >> v) & 1) for mask in range(1 << n)
    ]


def direct_product_rows(g_rows, h_rows) -> list[list[int]]:
    """Composition of pairs (a, b) numbered a*|h| + b, cell by cell."""
    gn, hn = len(g_rows), len(h_rows)
    table = [[0] * (gn * hn) for _ in range(gn * hn)]
    for a in range(gn):
        for b in range(hn):
            for c in range(gn):
                for d in range(hn):
                    table[a * hn + b][c * hn + d] = g_rows[a][c] * hn + h_rows[b][d]
    return table


def group_identity_and_inverses(rows):
    """The least two-sided identity e and the two-sided inverse of each
    element, found element by element, or the message naming the first
    failure."""
    n = len(rows)
    e = next((e for e in range(n) if all(rows[e][x] == x == rows[x][e] for x in range(n))), None)
    if e is None:
        return "no two-sided identity element"
    inv = []
    for a in range(n):
        rights = [b for b in range(n) if rows[a][b] == e]
        if len(rights) != 1 or rows[rights[0]][a] != e:
            return f"element {a} has no unique two-sided inverse"
        inv.append(rights[0])
    return e, inv


def symmetric_rows(k: int) -> list[list[int]]:
    """S_k with its elements, the permutations of k points, numbered in
    lexicographic one-line order: cell (i, j) is the number of p_i after
    p_j, composed point by point and looked up in the list."""
    elems = sorted(permutations(range(k)))
    table = []
    for p in elems:
        row = []
        for q in elems:
            composed = tuple(p[q[x]] for x in range(k))
            row.append(elems.index(composed))
        table.append(row)
    return table


def dihedral_rows(k: int) -> list[list[int]]:
    """D_k with element 2r+f the rotation r followed by f flips."""
    table = [[0] * (2 * k) for _ in range(2 * k)]
    for a in range(k):
        for b in range(2):
            for c in range(k):
                for d in range(2):
                    rot = (a + (c if b == 0 else -c)) % k
                    table[2 * a + b][2 * c + d] = 2 * rot + (b + d) % 2
    return table


def quaternion_rows() -> list[list[int]]:
    """Q8 with element 2a+b encoding x^a y^b, x^4 = 1, y^2 = x^2."""
    table = [[0] * 8 for _ in range(8)]
    for a in range(4):
        for b in range(2):
            for c in range(4):
                for d in range(2):
                    exp = (a + (c if b == 0 else -c) + 2 * b * d) % 4
                    table[2 * a + b][2 * c + d] = 2 * exp + (b + d) % 2
    return table
