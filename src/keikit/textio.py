"""The one line grammar of every text format, decided here alone.

Readers take numbered lines from one source, read once and in order
(Lines): a str, or in the CLI a binary file decoded a run of lines at a
time as the reader pulls them (file_lines).  Each reader checks its
header before it reads any row, so an oversized header is refused
before the rest of the file is read.
Lines end where str.splitlines ends them: at \\n, \\r, \\r\\n, \\v, \\f,
\\x1c, \\x1d, \\x1e, \\x85, \\u2028 and \\u2029.

A line whose first non-space character is '#' is a comment and is
skipped everywhere.  A blank line may come before the header, after the
last row, between the two blocks of a sigma file, and anywhere in an
edge list.  Anywhere else it is an error: between a header and its
first row, and between two rows of a table, a sigma block or a witness.
Lines that are neither blank nor comments are significant.

Integer rows are parsed by np.loadtxt a run of lines at a time, and a run
it refuses is read again line by line, so each message, line number and
token int() takes (1_0, +3, Unicode digits) is as a line-by-line reader has it.
"""

from __future__ import annotations

import warnings
from contextlib import suppress
from functools import partial
from itertools import repeat
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .errors import InputError, MalformedLine

RUN_CHARS = 1 << 13  # in each np.loadtxt call, bounding what a run holds


class Lines(Iterator[str]):
    """Numbered lines of a str, split as by str.splitlines, or of any
    iterable of lines, read once and in order.  lineno, line, is_blank
    and is_significant describe the last line read; counted is how many
    of the lines read were significant; a source that fails to decode
    fails on every later pull."""

    def __init__(self, source: str | Iterable[str]) -> None:
        self._source = iter(source.splitlines() if isinstance(source, str) else source)
        self._again = False
        self.lineno = self.counted = 0
        self.line = ""
        self.is_blank = self.is_significant = False

    def __next__(self) -> str:
        if not self._again:
            try:
                self.line = next(self._source)
            except InputError as exc:
                self._source = map(_raise, repeat(exc))
                raise
            self.lineno += 1
            stripped = self.line.strip()
            self.is_blank = not stripped
            self.is_significant = not (self.is_blank or stripped[0] == "#")
            self.counted += self.is_significant
        self._again = False
        return self.line

    def again(self) -> None:
        """Read the last line once more."""
        self._again = True


def _raise(exc: Exception):
    raise exc


def file_lines(stream: BinaryIO, name: str) -> Iterator[str]:
    """The lines of a binary UTF-8 file, decoded as they are pulled.

    The file is read in pieces of about 64 KB, and decoded in runs that
    end after the last b"\\n" or b"\\r" of a piece, so a run holds whole
    lines whichever of the two ends them.  A b"\\r" that ends a piece is
    held back, since the next piece may begin with the b"\\n" of a
    b"\\r\\n".  No multi-byte character holds either byte, so a bad byte
    is reported at its offset in the whole file."""
    offset = 0
    held: list[bytes] = []  # the read bytes after the last run
    for piece in iter(partial(stream.read, 1 << 16), b""):
        end = max(piece.rfind(b"\n"), piece.rfind(b"\r", 0, -1)) + 1
        if not end:
            held.append(piece)
            continue
        data = b"".join((*held, piece[:end]))
        held = [piece[end:]]
        yield from _decoded_lines(data, offset, name)
        offset += len(data)
    yield from _decoded_lines(b"".join(held), offset, name)


def _decoded_lines(data: bytes, offset: int, name: str) -> list[str]:
    """The lines of data, the bytes of a file from offset on."""
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{name}: not valid UTF-8 at byte {offset + exc.start}") from None


def significant(lines: Lines) -> Iterator[str]:
    """The remaining lines that are neither blank nor comments."""
    return (line for line in lines if lines.is_significant)


def parse_int_tokens(line: str, lineno: int) -> list[int]:
    values = []
    for token in line.split():
        try:
            value = int(token)
        except ValueError:
            raise MalformedLine(lineno, line, f"expected integer, got {token!r}") from None
        if not -(2 ** 63) <= value < 2 ** 63:
            raise MalformedLine(lineno, line, f"integer {token!r} does not fit in 64 bits")
        values.append(value)
    return values


def parse_bits(line: str, lineno: int) -> list[bool]:
    """A row of 0/1 digits, packed ("0110") or space separated."""
    tokens = line.split()
    digits = tokens if len(tokens) > 1 else list(tokens[0])
    if any(d not in ("0", "1") for d in digits):
        raise MalformedLine(lineno, line, "expected binary digits")
    return [d == "1" for d in digits]


def read_header_int(lines: Lines) -> int:
    """Read the single-integer size line, the first significant line."""
    line = next(significant(lines), None)
    if line is None:
        raise MalformedLine(lines.lineno + 1, "", "missing size line")
    tokens = parse_int_tokens(line, lines.lineno)
    if len(tokens) != 1:
        raise MalformedLine(lines.lineno, line, "expected a single integer")
    return tokens[0]


def read_row_block(lines: Lines, rows: np.ndarray) -> np.ndarray:
    """Fill the array rows, one line per row: integers a run at a time
    (_int_runs), or 0/1 digits (parse_bits) a line at a time when rows is
    bool.  Comments are skipped; a blank line inside the block is an error.
    No line after the last row is read."""
    count, width = rows.shape
    parse = parse_bits if rows.dtype == bool else parse_int_tokens

    def entries(line: str, lineno: int) -> list:
        values = parse(line, lineno)
        if len(values) != width:
            raise MalformedLine(lineno, line, f"expected {width} entries, got {len(values)}")
        return values

    def block() -> Iterator[tuple[str, int]]:
        for done in range(count):
            line = next((line for line in lines if lines.is_significant or lines.is_blank), None)
            if line is None:
                raise MalformedLine(lines.lineno + 1, "", f"expected {count} rows, got {done}")
            if lines.is_blank:
                raise MalformedLine(lines.lineno, line, "blank line inside a table block")
            yield line, lines.lineno

    done = 0
    for run in ([entries(*row)] for row in block()) if parse is parse_bits else _int_runs(block(), width, entries):
        rows[done:done + len(run)] = run
        done += len(run)
    return rows


def _int_runs(
    rows: Iterator[tuple[str, int]], width: int, read: Callable, valid=lambda values: True
) -> Iterator[np.ndarray]:
    """The (line, lineno) pairs of rows as int64 arrays of width columns, a
    run of about RUN_CHARS characters each, by np.loadtxt if all ASCII (it
    reads U+01FE and other letters as digits).  A run it refuses, reads to
    another shape or to values that fail valid is read by read(line,
    lineno), which raises the first bad line's message or returns what
    int() reads.  An error pulling a line is raised after the run before
    it is parsed."""
    stop = None
    while stop is None:
        run, linenos, size, values = [], [], 0, None
        try:
            while size < RUN_CHARS:
                line, lineno = next(rows)
                run.append(line)
                linenos.append(lineno)
                size += len(line)
        except (StopIteration, InputError) as exc:  # the end of rows, a block's end or a bad byte
            stop = exc
        if run and all(map(str.isascii, run)):
            with warnings.catch_warnings(), suppress(ValueError, Warning):
                warnings.simplefilter("error")  # some numpy versions read "1.0" as 1, warning only
                values = np.loadtxt(run, dtype=np.int64, comments=None, ndmin=2)
        if values is not None and values.shape == (len(run), width) and valid(values):
            yield values
        elif run:
            yield np.array(list(map(read, run, linenos)), dtype=np.int64)
    if not isinstance(stop, StopIteration):
        raise stop


def require_only_trailing_junk(lines: Lines) -> None:
    """Fail if any significant line remains."""
    line = next(significant(lines), None)
    if line is not None:
        raise MalformedLine(lines.lineno, line, "unexpected extra content")


def row_lines(table) -> Iterator[str]:
    """The rows of a numpy table, one "\\n"-ended line of space separated
    entries each."""
    return (" ".join(map(str, row.tolist())) + "\n" for row in table)

