"""Random input files for the CLI, run in process through main().

Whatever the files hold, every command must end in exit 0, 1 or 2 with
at most one line on stderr; no exception may escape main().  Vertex
counts and table orders are mostly 8 or below, so that valid inputs are
common, plus counts far above digraph.MAX_VERTICES, which must be
refused.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from keikit import Digraph, KeikitError, Magma, detect_folded_all, encode_kei
from keikit.cli import main

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


def table_text(rows):
    return text(len(rows), [" ".join(str(x) for x in row) for row in rows])


@st.composite
def folded_keis(draw):
    """The kei of a random graph on at most 4 vertices, relabelled, and
    sometimes with one cell changed."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])))
    rows = encode_kei(Digraph(n, sorted(edges))).magma.rows()
    rows = oracles.relabel_rows(rows, draw(st.permutations(range(2 * n))))
    if draw(st.booleans()):
        element = st.integers(0, 2 * n - 1)
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
def invocations(draw):
    """argv templates naming files by key, and the bytes of each file."""
    command = draw(st.sampled_from(["encode", "iso graph", "detect", "detect --all", "decode --witness"]))
    if command == "encode":
        return ["encode", "g"], {"g": draw(edge_lists())}
    if command == "iso graph":
        left = draw(edge_lists())
        right = left if draw(st.booleans()) else draw(edge_lists())
        return ["iso", "graph", "g", "h"], {"g": left, "h": right}
    table = draw(tables())
    if command.startswith("detect"):
        return [*command.split(), "t"], {"t": table}
    return ["decode", "t", "--witness", "w"], {"t": table, "w": draw(witnesses(table))}


@settings(max_examples=400, deadline=None, database=None)
@given(invocations())
def test_cli_exits_0_1_or_2_on_any_input(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, data in files.items():
            paths[key] = str(Path(tmp) / key)
            Path(paths[key]).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
