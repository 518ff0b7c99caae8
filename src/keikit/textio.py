"""The one line grammar of every text format, decided here alone.

A line whose first non-space character is '#' is a comment and is
skipped everywhere.  A blank line may come before the header, after the
last row, between the two blocks of a sigma file, and anywhere in an
edge list.  Anywhere else it is an error: between a header and its
first row, and between two rows of a table, a sigma block or a witness.
Lines that are neither blank nor comments are significant.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .errors import MalformedLine


def is_comment(line: str) -> bool:
    return line.strip().startswith("#")


def is_blank(line: str) -> bool:
    return not line.strip()


def significant(lines: list[str], start: int) -> Iterator[int]:
    """The index of every line at or after start that is neither blank
    nor a comment."""
    for i in range(start, len(lines)):
        if not (is_comment(lines[i]) or is_blank(lines[i])):
            yield i


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


def read_header_int(lines: list[str], start: int) -> tuple[int, int]:
    """Read the single-integer size line, the first significant line at
    or after index start.  Returns (value, next_index)."""
    i = next(significant(lines, start), None)
    if i is None:
        raise MalformedLine(len(lines) + 1, "", "missing size line")
    tokens = parse_int_tokens(lines[i], i + 1)
    if len(tokens) != 1:
        raise MalformedLine(i + 1, lines[i], "expected a single integer")
    return tokens[0], i + 1


def read_row_block(
    lines: list[str],
    start: int,
    count: int,
    width: int,
    parse: Callable[[str, int], list] = parse_int_tokens,
) -> tuple[list[list], int]:
    """Read count lines of width entries each, starting at index start;
    parse(line, lineno) turns one line into its entries.

    Comments are skipped; a blank line inside the block is an error.
    Returns (rows, next_index).
    """
    rows: list[list] = []
    i = start
    while len(rows) < count:
        if i >= len(lines):
            raise MalformedLine(i + 1, "", f"expected {count} rows, got {len(rows)}")
        line = lines[i]
        if is_comment(line):
            i += 1
            continue
        if is_blank(line):
            raise MalformedLine(i + 1, line, "blank line inside a table block")
        values = parse(line, i + 1)
        if len(values) != width:
            raise MalformedLine(i + 1, line, f"expected {width} entries, got {len(values)}")
        rows.append(values)
        i += 1
    return rows, i


def require_only_trailing_junk(lines: list[str], start: int) -> None:
    """Fail if any significant line remains at or after index start."""
    i = next(significant(lines, start), None)
    if i is not None:
        raise MalformedLine(i + 1, lines[i], "unexpected extra content")


def row_lines(table) -> Iterator[str]:
    """The rows of a numpy table, one line of space separated entries each."""
    return (" ".join(map(str, row.tolist())) for row in table)


def split_records(text: str) -> list[str]:
    """Split a catalog into records on runs of blank lines.

    Comment-only chunks are dropped so a file-level banner does not count
    as a record.
    """
    records: list[str] = []
    current: list[str] = []
    for line in text.splitlines():
        if is_blank(line):
            if current:
                records.append("\n".join(current))
                current = []
        else:
            current.append(line)
    if current:
        records.append("\n".join(current))
    return [r for r in records if not all(is_comment(line) for line in r.splitlines())]
