"""Low-level helpers shared by the text serializations.

All formats are line oriented.  Lines whose first non-space character is
'#' are comments and are skipped everywhere.  Blank lines are allowed
between records but never inside a block of table rows.
"""

from __future__ import annotations

from .errors import MalformedLine


def is_comment(line: str) -> bool:
    stripped = line.strip()
    return stripped.startswith("#")


def is_blank(line: str) -> bool:
    return not line.strip()


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


def read_header_int(lines: list[str], start: int) -> tuple[int, int]:
    """Read the single-integer size line at or after index start.

    Skips comments and blank lines.  Returns (value, next_index).
    """
    i = start
    while i < len(lines):
        if is_comment(lines[i]) or is_blank(lines[i]):
            i += 1
            continue
        tokens = parse_int_tokens(lines[i], i + 1)
        if len(tokens) != 1:
            raise MalformedLine(i + 1, lines[i], "expected a single integer")
        return tokens[0], i + 1
    raise MalformedLine(len(lines) + 1, "", "missing size line")


def read_row_block(lines: list[str], start: int, count: int, width: int) -> tuple[list[list[int]], int]:
    """Read count lines of width integers each, starting at index start.

    Comments are skipped; a blank line inside the block is an error.
    Returns (rows, next_index).
    """
    rows: list[list[int]] = []
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
        values = parse_int_tokens(line, i + 1)
        if len(values) != width:
            raise MalformedLine(i + 1, line, f"expected {width} entries, got {len(values)}")
        rows.append(values)
        i += 1
    return rows, i


def require_only_trailing_junk(lines: list[str], start: int) -> None:
    """Fail if any significant line remains at or after index start."""
    for i in range(start, len(lines)):
        if not (is_comment(lines[i]) or is_blank(lines[i])):
            raise MalformedLine(i + 1, lines[i], "unexpected extra content")


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
