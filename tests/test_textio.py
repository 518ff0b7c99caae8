"""The line reader: header first, one pass, the same lines from a file
as from its text."""

import io
import re
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from keikit import (
    FoldedWitness,
    InputError,
    KeikitError,
    Magma,
    MalformedLine,
    SigmaAlgebra,
    TooLarge,
    parse_edge_list,
    textio,
)
from keikit.cli import main
from keikit.digraph import MAX_VERTICES
from keikit.magma import MAX_ORDER
from keikit.sigma import read_sigma_input
from keikit.textio import file_lines

import oracles

# line ends of str.splitlines, one, two and three bytes long in UTF-8
LINE_ENDS = ["\n", "\r", "\r\n", "\x0c", "\x85", "\u2028"]


def then_fail(*lines):
    """A line source that fails if a reader pulls a line after lines."""
    yield from lines
    raise AssertionError("read past the header")


@pytest.mark.parametrize(
    "read", [Magma.from_text, SigmaAlgebra.from_text, FoldedWitness.from_text, read_sigma_input]
)
def test_table_readers_refuse_the_order_from_the_header_alone(read):
    with pytest.raises(TooLarge):
        read(then_fail("# a comment", "", str(MAX_ORDER + 1)))


def test_edge_list_refuses_the_vertex_count_from_the_header_alone():
    with pytest.raises(TooLarge):
        parse_edge_list(then_fail(str(MAX_VERTICES + 1)))


def test_cli_refuses_the_order_before_reading_the_rows(tmp_path, capsys):
    path = tmp_path / "big.tbl"
    for end in ("\n", "\r", "\r\n"):
        # a bad byte past the rows that fill the first run of decoded lines is never read
        row = " ".join(["0"] * (MAX_ORDER + 1)) + end
        head = f"{MAX_ORDER + 1}{end}{row * 16}".encode()
        path.write_bytes(head + b"\xff\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: order {MAX_ORDER + 1} is above the limit of {MAX_ORDER}\n"
        # the same byte after as many comment lines, read on to find the header, is found at its offset
        comments = b"#" + head.replace(end.encode(), end.encode() + b"#")[:-1]
        path.write_bytes(comments + b"\xff\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not valid UTF-8 at byte {len(comments)}\n"


@st.composite
def noisy_tables(draw):
    """The rows of a table of order at most 4, and its text with comments
    (some not ASCII) and blank lines wherever the grammar allows them,
    each line ended by any of LINE_ENDS."""
    n = draw(st.integers(1, 4))
    rows = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    comment = st.sampled_from(["# note", "  # é ∀", "#"])
    outside = st.lists(st.one_of(comment, st.just(""), st.just("   ")), max_size=3)
    lines = [*draw(outside), str(n)]
    for row in rows:
        lines += [*draw(st.lists(comment, max_size=2)), " ".join(map(str, row))]
    lines += draw(outside)
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return rows, "".join(line + end for line, end in zip(lines, ends))


class Trickle(io.RawIOBase):
    """A binary file of data that hands out at most size bytes per read."""

    def __init__(self, data: bytes, size: int) -> None:
        self.data, self.size, self.pos = data, size, 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        chunk = self.data[self.pos:self.pos + min(self.size, len(buffer))]
        buffer[:len(chunk)] = chunk
        self.pos += len(chunk)
        return len(chunk)


# bytes per read: small pieces split \r\n and multi-byte characters, and may end in a \r
PIECE = st.sampled_from([1, 2, 3, 5, 8, 1 << 16])


@settings(max_examples=300, deadline=None, database=None)
@given(noisy_tables(), PIECE)
def test_a_file_reads_as_its_text(table, size):
    rows, text = table
    data = text.encode("utf-8")
    assert list(file_lines(Trickle(data, size), "t")) == text.splitlines()
    from_file = Magma.from_text(file_lines(Trickle(data, size), "t"))
    assert from_file == Magma.from_text(text) == Magma(rows)


@settings(max_examples=300, deadline=None, database=None)
@given(noisy_tables(), PIECE, st.data())
def test_a_bad_byte_is_reported_at_its_offset_in_the_file(table, size, data):
    encoded = table[1].encode("utf-8")
    at = data.draw(st.integers(0, len(encoded)))
    bad = data.draw(st.sampled_from([b"\x80", b"\xbf", b"\xc3", b"\xe2\x80", b"\xf0\x9f", b"\xff"]))
    corrupt = encoded[:at] + bad + encoded[at:]
    with pytest.raises(UnicodeDecodeError) as whole:
        corrupt.decode("utf-8")
    with pytest.raises(InputError) as streamed:
        list(file_lines(Trickle(corrupt, size), "t"))
    assert str(streamed.value) == f"t: not valid UTF-8 at byte {whole.value.start}"


GROUP = "2\n0 1\n1 0\n"
SIGMA = "2\n0 1\n1 0\n\n0 1\n0 1\n"


def test_sigma_auto_reads_one_block_or_two():
    comp, star = read_sigma_input(GROUP)
    assert comp.tolist() == [[0, 1], [1, 0]] and star is None
    comp, star = read_sigma_input(SIGMA)
    assert comp.tolist() == [[0, 1], [1, 0]] and star.tolist() == [[0, 1], [0, 1]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("2\n2\n0 1\n1 0\n", "line 1: '2' (cannot tell sigma from group input with 3 rows for n=2)"),
        ("# g\n2\n0 1\n", "line 2: '2' (cannot tell sigma from group input with 1 rows for n=2)"),
        (GROUP + "0 1\n", "line 1: '2' (cannot tell sigma from group input with 3 rows for n=2)"),
        (GROUP + "x\n", "line 1: '2' (cannot tell sigma from group input with 3 rows for n=2)"),
        ("2\n0 1\n\n1 0\n0 1\n", "line 1: '2' (cannot tell sigma from group input with 3 rows for n=2)"),
        (SIGMA + "# s\n0 1\n", "line 1: '2' (cannot tell sigma from group input with 5 rows for n=2)"),
        ("2\n0 1\n\n1 0\n", "line 3: '' (blank line inside a table block)"),
        ("2\n0 1\n1 0\n0 1\n0 x\n", "line 5: '0 x' (expected integer, got 'x')"),
    ],
    ids=["doubled-header", "short-group", "extra-row", "extra-junk", "blank-and-extra", "sigma-extra-row",
         "blank-in-group", "junk-in-star"],
)
def test_sigma_auto_refuses_as_if_rows_were_counted_first(text, message):
    # with neither n nor 2n rows the kind cannot be told, whatever fails first
    with pytest.raises(MalformedLine, match=re.escape(message)):
        read_sigma_input(text)


# tokens int() reads differently from a plain digit string, or refuses,
# or that sit at the edges of 64 bits; np.loadtxt reads U+01FE as a digit;
# int() refuses the last two for their length (more than 4,300 digits)
ODD_TOKENS = [
    "1_0", "+3", "-0", "\u0663", "\uff11", "1.5", "0x1", "1e3", "x", "\u01fe",
    str(2 ** 63 - 1), str(2 ** 63), str(-(2 ** 63)), str(-(2 ** 63) - 1),
    "9" * 4301, "-" + "0" * 4400 + "1",
]
SEPARATORS = [" ", "  ", "\t", "\xa0", "\x1f"]


@st.composite
def int_row_texts(draw):
    """A reader and the text of its input: a header, then rows of integer
    tokens, mostly in range, some odd, some rows one token short or long,
    with comments, blank and blank-looking lines before, between and after
    them, tokens split by any of SEPARATORS and lines ended by LINE_ENDS."""
    kind = draw(st.sampled_from(["magma", "group", "sigma", "edges"]))
    n = draw(st.integers(1, 4))
    width = 2 if kind == "edges" else n
    count = draw(st.integers(0, 12)) if kind == "edges" else n * (2 if kind == "sigma" else 1)
    count += draw(st.sampled_from([0, 0, 0, -1, 1]))
    token = st.one_of(st.integers(-1, n).map(str), st.sampled_from(ODD_TOKENS)) if draw(st.booleans()) else \
        st.integers(0, n - 1).map(str)
    separator = st.sampled_from(SEPARATORS) if draw(st.booleans()) else st.just(" ")
    noise = st.lists(st.sampled_from(["# note", " # é", "", "   ", "\x1f", "#1 2"]), max_size=2)
    lines = [*draw(noise), str(n)]
    for _ in range(max(count, 0)):
        if draw(st.integers(0, 9)) == 0:
            lines += draw(noise)
        tokens = [draw(token) for _ in range(width + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))]
        lines.append(draw(separator).join(tokens) or "0")
    lines += draw(noise)
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    return kind, "".join(line + end for line, end in zip(lines, ends))


def outcome(build):
    """What build() returns, or the type and message of the KeikitError it raises."""
    try:
        return build()
    except KeikitError as exc:
        return type(exc).__name__, str(exc)


def pair(comp, star):
    return [comp.tolist()] if star is None else [comp.tolist(), star.tolist()]


READERS = {
    "magma": (
        lambda text: Magma.from_text(text).table.tolist(),
        lambda text: Magma(oracles.table_blocks(text, 1)[0]).table.tolist(),
    ),
    "group": (lambda text: pair(*read_sigma_input(text, "group")), lambda text: oracles.table_blocks(text, 1)),
    "sigma": (lambda text: pair(*read_sigma_input(text, "sigma")), lambda text: oracles.table_blocks(text, 2)),
    "edges": (
        lambda text: parse_edge_list(text).adj.tolist(),
        lambda text: oracles.edge_list_adjacency(text).tolist(),
    ),
}


@settings(max_examples=500, deadline=None, database=None)
@given(int_row_texts(), st.sampled_from([1, 5, 20, textio.RUN_CHARS]))
@example(("magma", "2\n0 1\n1 \u01fe\n"), 1)
@example(("edges", "3\n0 1\n1 2 \n\n2\xa00\n2 2\n"), 5)
@example(("sigma", "1\n0\n\n"), 1)  # a blank line before the star block's missing rows
def test_rows_parse_as_a_plain_reader_reads_each_token(case, run_chars):
    """Whatever the run size, each reader gives the table or edges a
    token-by-token reader of the grammar gives, or fails with its message."""
    kind, text = case
    read, oracle = READERS[kind]
    with mock.patch.object(textio, "RUN_CHARS", run_chars):
        assert outcome(lambda: read(text)) == outcome(lambda: oracle(text))


@pytest.fixture(params=[None, 0], ids=["default-limit", "no-limit"])
def digit_limit(request):
    """The interpreter's digit limit for int() of a str as it is, and lifted."""
    saved = sys.get_int_max_str_digits()
    if request.param is not None:
        sys.set_int_max_str_digits(request.param)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("digits", [4301, 5000])
@pytest.mark.parametrize(
    "read, text, lineno",
    [(Magma.from_text, "{}\n", 1), (Magma.from_text, "2\n0 1\n1 {}\n", 3), (parse_edge_list, "2\n# e\n0 {}\n", 3)],
    ids=["header", "row", "edge"],
)
def test_an_integer_too_long_for_int_does_not_fit_at_any_digit_limit(digit_limit, digits, read, text, lineno):
    token = "9" * digits
    line = text.format(token).splitlines()[lineno - 1]
    with pytest.raises(MalformedLine) as exc:
        read(text.format(token))
    assert str(exc.value) == f"line {lineno}: {line!r} (integer {token!r} does not fit in 64 bits)"


@pytest.mark.parametrize("digits", [4301, 5000])
def test_a_long_token_of_leading_zeros_reads_as_its_value_at_any_digit_limit(digit_limit, digits):
    zeros = "0" * digits
    assert Magma.from_text(f"{zeros}2\n0 1\n1 -{zeros}\n").table.tolist() == [[0, 1], [1, 0]]
    assert parse_edge_list(f"{zeros}2\n0 +{zeros}1\n").edges() == [(0, 1)]


BAD_ROW = "line 3: 'x 0 1' (expected integer, got 'x')"


@pytest.mark.parametrize("after", ["", "\n", "\n0 1 2\n", "0 1\n"], ids=["end", "blank", "blank-row", "short-row"])
def test_a_bad_row_is_reported_before_what_follows_it(after):
    with pytest.raises(MalformedLine, match=re.escape(BAD_ROW)):
        Magma.from_text("3\n0 1 2\nx 0 1\n" + after)


@pytest.mark.parametrize("size", [1, 2, 7, 14])
def test_a_bad_row_is_reported_before_bad_utf8_in_a_later_piece(size):
    data = b"3\n0 1 2\nx 0 1\n\xff\n"
    with pytest.raises(MalformedLine, match=re.escape(BAD_ROW)):
        Magma.from_text(file_lines(Trickle(data, size), "t"))
    with pytest.raises(MalformedLine, match=re.escape(BAD_ROW)):
        read_sigma_input(file_lines(Trickle(data, size), "t"), "group")
    # counting the rows to tell sigma from group input reads on to the bad byte
    with pytest.raises(InputError, match=re.escape("t: not valid UTF-8 at byte 14")):
        read_sigma_input(file_lines(Trickle(data, size), "t"))


@pytest.mark.parametrize(
    "bad, message",
    [
        ("7 7", "self-loop at vertex 7"),
        ("0 60", "line {}: edge (0, 60) outside 0..59"),
        ("1 x", "line {}: '1 x' (expected integer, got 'x')"),
        ("1 2 3", "line {}: '1 2 3' (expected two integers per edge line)"),
        ("1 \u01fe", "line {}: '1 \u01fe' (expected integer, got '\u01fe')"),
    ],
)
def test_an_edge_list_reports_a_bad_line_in_its_second_run(bad, message):
    edges = [f"{u} {v}" for u in range(60) for v in range(60) if u != v]
    at = next(i for i in range(len(edges)) if sum(len(e) + 1 for e in edges[:i]) > 1.5 * textio.RUN_CHARS)
    text = "60\n" + "\n".join([*edges[:at], bad, *edges[at:]]) + "\n"
    assert len(text) > 2 * textio.RUN_CHARS
    with pytest.raises(InputError, match=f"^{re.escape(message.format(at + 2))}$"):
        parse_edge_list(text)
    with pytest.raises(InputError, match=f"^{re.escape(message.format(at + 2))}$"):
        parse_edge_list(file_lines(io.BytesIO(text.encode()), "t"))
    assert parse_edge_list("60\n" + "\n".join(edges)).adj.sum() == 60 * 59
