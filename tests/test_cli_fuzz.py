"""Random input files and arguments for the CLI, run in process
through main().

Whatever the files and arguments hold, every command must end in exit
0, 1 or 2 with at most one line on stderr; no exception may escape
main().  Vertex counts and table orders are mostly 8 or below, so that
valid inputs are common, plus counts far above digraph.MAX_VERTICES,
which must be refused.  The commands that enumerate every digraph of an
order draw orders of at most 3, or above their limit.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from keikit import Digraph, KeikitError, Magma, detect_folded_all, encode_kei, group_to_sigma
from keikit import digraph as dg
from keikit.cli import main
from keikit.groups import FiniteGroup

import oracles


@st.composite
def sizes(draw):
    """Mostly -1..8; one time in five a count above MAX_VERTICES, spread
    over its number of digits.  Those counts start at 2**20, so that if
    the limit were ever lost the n by n allocation would fail at once
    instead of succeeding slowly."""
    if draw(st.integers(0, 4)) == 0:
        return 2 ** draw(st.integers(20, 62)) + draw(st.integers(1, 999))
    return draw(st.integers(-1, 8))


def enumeration_orders(limit):
    """Orders of at most 3, which enumerate in well under a second, or
    above limit, which must be refused."""
    return st.one_of(st.integers(-1, 3), st.integers(limit + 1, 2 ** 62))


@st.composite
def lines(draw, size, width):
    """Lines of mostly in-range integers, sometimes of the wrong width
    or with a junk token."""
    out = []
    for _ in range(draw(st.integers(0, size + 2))):
        count = width + draw(st.sampled_from([0, 0, 0, -1, 1]))
        row = [str(draw(st.integers(-1, max(size, 0)))) for _ in range(count)]
        if row and draw(st.integers(0, 19)) == 0:
            junk_token = st.sampled_from(["x", "1.5", "#", "99999999999999999999"])
            row[draw(st.integers(0, len(row) - 1))] = draw(junk_token)
        out.append(" ".join(row))
    return out


def text(header, body):
    return "\n".join([str(header), *body]) + "\n"


@st.composite
def junk(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    return draw(st.text(max_size=40)).encode("utf-8", "surrogatepass")


@st.composite
def edge_lists(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(junk())
    n = draw(sizes())
    return text(n, draw(lines(min(n, 8), 2))).encode()


def row_lines(rows):
    return [" ".join(str(x) for x in row) for row in rows]


def table_text(rows):
    return text(len(rows), row_lines(rows))


@st.composite
def small_graphs(draw):
    """A digraph on at most 4 vertices."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])))
    return Digraph(n, sorted(edges))


@st.composite
def folded_keis(draw):
    """The kei of a random graph on at most 4 vertices, relabelled, and
    sometimes with one cell changed."""
    graph = draw(small_graphs())
    rows = encode_kei(graph).magma.table.tolist()
    rows = oracles.relabel_rows(rows, draw(st.permutations(range(2 * graph.n))))
    if draw(st.booleans()):
        element = st.integers(0, 2 * graph.n - 1)
        rows[draw(element)][draw(element)] = draw(element)
    return rows


@st.composite
def tables(draw):
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return draw(junk())
    if choice < 5:
        return table_text(draw(folded_keis())).encode()
    n = draw(sizes())
    return text(n, draw(lines(min(n, 8), min(n, 8)))).encode()


@st.composite
def witnesses(draw, table):
    """A witness for the table when it has one, possibly with one entry
    changed, or a random witness file."""
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return draw(junk())
    if choice < 6:
        try:
            found = next(detect_folded_all(Magma.from_text(table.decode())), None)
        except (UnicodeDecodeError, KeikitError):
            found = None
        if found is not None:
            body = found.to_text().splitlines()
            if draw(st.booleans()):
                k = draw(st.integers(1, len(body) - 1))
                body[k] = body[k].replace("1", "0", 1) if "1" in body[k] else body[k] + " 0"
            return ("\n".join(body) + "\n").encode()
    n = draw(sizes())
    k = min(n, 8)
    tau = " ".join(str(draw(st.integers(-1, max(k, 0)))) for _ in range(k))
    bits = ["".join(draw(st.sampled_from("01")) for _ in range(k)) for _ in range(k)]
    return text(n, [tau, *bits]).encode()


@st.composite
def magma_pairs(draw):
    """Two tables: a folded kei and a relabelling of it, one table twice,
    or two independent tables."""
    choice = draw(st.integers(0, 2))
    if choice == 0:
        rows = draw(folded_keis())
        perm = draw(st.permutations(range(len(rows))))
        return table_text(rows).encode(), table_text(oracles.relabel_rows(rows, perm)).encode()
    left = draw(tables())
    return left, left if choice == 1 else draw(tables())


@st.composite
def sigma_inputs(draw):
    """A group table or its sigma algebra, relabelled and sometimes with
    one cell changed, or random rows in either layout."""
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return draw(junk())
    if choice < 6:
        group = draw(st.sampled_from([FiniteGroup.cyclic(3), FiniteGroup.dihedral(2), FiniteGroup.symmetric(3)]))
        perm = draw(st.permutations(range(group.n)))
        group = FiniteGroup(oracles.relabel_rows(group.comp.tolist(), perm))
        comp = group.comp.tolist()
        star = group_to_sigma(group).star.tolist()
        if draw(st.booleans()):
            element = st.integers(0, group.n - 1)
            draw(st.sampled_from([comp, star]))[draw(element)][draw(element)] = draw(element)
        if draw(st.booleans()):
            return table_text(comp).encode()
        return text(group.n, [*row_lines(comp), "", *row_lines(star)]).encode()
    n = draw(sizes())
    k = min(n, 8)
    body = draw(lines(k, k))
    if draw(st.booleans()):
        body = [*body, "", *draw(lines(k, k))]
    return text(n, body).encode()


@st.composite
def subsets(draw):
    """The --subset value: vertices, some out of range, or junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["x", "1,,2", "1.5", " "]))
    return ",".join(str(v) for v in draw(st.lists(st.integers(-1, 4), max_size=4)))


@st.composite
def invocations(draw):
    """argv templates naming files by key, and the bytes of each file
    (None for a file a command writes)."""
    command = draw(st.sampled_from([
        "encode", "iso graph", "detect", "detect --all", "decode", "decode --witness", "check", "check -v",
        "iso magma", "iso magma --brute", "iso magma --all", "sigma-check", "apex", "reduce-test",
        "reduce-test exhaustive", "enumerate",
    ]))
    if command == "encode":
        return ["encode", "g"], {"g": draw(edge_lists())}
    if command == "iso graph":
        left = draw(edge_lists())
        right = left if draw(st.booleans()) else draw(edge_lists())
        return ["iso", "graph", "g", "h"], {"g": left, "h": right}
    if command == "apex":
        graph = draw(small_graphs()).to_edge_list().encode() if draw(st.booleans()) else draw(edge_lists())
        return ["apex", "g", f"--subset={draw(subsets())}"], {"g": graph}
    if command == "reduce-test":
        # small pair counts; the kei search stays fast up to 8 vertices
        argv = ["reduce-test", "--mode", "sampled", f"--n-max={draw(sizes())}",
                f"--pairs={draw(st.integers(-1, 3))}", f"--seed={draw(st.integers(0, 2 ** 32))}"]
        return argv, {}
    if command == "reduce-test exhaustive":
        # --oracle-limit stays below 6: brute force on all 4,096 order-6 kei pairs of n = 3 takes 2 s
        argv = ["reduce-test", f"--n-max={draw(enumeration_orders(4))}",
                f"--oracle-limit={draw(st.sampled_from([0, 4]))}"]
        return argv, {}
    if command == "enumerate":
        flags = draw(st.lists(st.sampled_from([("--dedupe",), ("-o", "c"), ("--keis", "k")]), unique=True))
        argv = ["enumerate", str(draw(enumeration_orders(dg.ENUMERATION_LIMIT))), *sum(flags, ())]
        return argv, {key: None for key in ("c", "k") if key in argv}
    if command == "sigma-check":
        kind = draw(st.sampled_from(["auto", "auto", "group", "sigma"]))
        return ["sigma-check", "s", f"--kind={kind}"], {"s": draw(sigma_inputs())}
    if command.startswith("iso magma"):
        left, right = draw(magma_pairs())
        return [*command.split(), "t", "u"], {"t": left, "u": right}
    table = draw(tables())
    if command.startswith(("detect", "check")) or command == "decode":
        return [*command.split(), "t"], {"t": table}
    return ["decode", "t", "--witness", "w"], {"t": table, "w": draw(witnesses(table))}


@settings(max_examples=600, deadline=None, database=None)
@given(invocations())
def test_cli_exits_0_1_or_2_on_any_input(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, data in files.items():
            paths[key] = str(Path(tmp) / key)
            if data is not None:
                Path(paths[key]).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
