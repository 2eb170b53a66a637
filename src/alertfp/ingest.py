"""Parse delimited alert-log files and schema config files.

Log format: one record per line, fields in schema order split by one
delimiter character that check_delimiter allows, optional ``#`` comment
lines and blank lines. A bad line is rejected and reported, never fatal;
nightly rebuilds must survive one corrupt record, such as a line that is
not valid UTF-8. The log is read a block of lines at a time, and each
block's records are coded by the model's coder one column at a time, so
the parsed dataset comes with its columns coded. No Alert is built: the
dataset keeps the codes and the raw strings of the columns that are not
itemized, and builds its `alerts` from them on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import not_
from typing import Iterable, Sequence

from .errors import AlertFpError, EmptyDatasetError, SchemaError
from .model import AlertDataset, AttributeSchema, FieldKind, SchemaField, _BlockCoder
from .textio import Source, Target, atomic_write, open_text

#: A log line starting with this is a comment, as in schema and attack-id files.
COMMENT_PREFIX = "#"


def check_delimiter(delimiter: str) -> str:
    """delimiter, if it can frame a log record, else ValueError: the one
    rule for every log reader and writer. There is no quoting, so it must
    never occur in a value; tab is the default as signature names may hold
    most other punctuation. One character, not "#", "\\n" or "\\r", and
    not a lone surrogate, which is what a byte that is not UTF-8 decodes to
    on a command line and which no UTF-8 file holds."""
    if len(delimiter) != 1:
        raise ValueError("delimiter must be a single character")
    if delimiter in (COMMENT_PREFIX, "\n", "\r"):
        raise ValueError(f"delimiter must not be {COMMENT_PREFIX!r}, '\\n' or '\\r'")
    if "\ud800" <= delimiter <= "\udfff":
        raise ValueError("delimiter must not be a lone surrogate, which UTF-8 cannot encode")
    return delimiter


@dataclass(frozen=True)
class RejectedLine:
    line_number: int
    reason: str


@dataclass(frozen=True)
class ParseResult:
    dataset: AlertDataset
    rejects: tuple[RejectedLine, ...]


#: Characters parse_log asks readlines() for at a time: it holds one block
#: of lines, and codes it column by column.
_BLOCK = 1 << 16


def parse_log(source: Source, schema: AttributeSchema, delimiter: str = "\t") -> ParseResult:
    """Parse a delimited log into an AlertDataset.

    Input record order is preserved and tids are assigned 0..n-1 over the
    accepted records. Malformed lines (wrong column count, unparseable
    numeric or timestamp values) are collected into the rejects report and
    parsing continues. Raises EmptyDatasetError when nothing parses. A
    line holding the delimiter is a record even when every field is
    empty, and its empty fields canonicalize to null like any other;
    only a line of whitespace alone is skipped as blank. A bad value's
    reject reason names its column.

    The log is read a block of lines at a time. A few whole-block passes
    find the lines that may not be records; only those go through the
    rules one at a time, in the order blank, comment, not UTF-8, field
    count. The block's records are then split into one list of fields and
    coded one column at a time, so a line's fate never depends on where
    a block ends.
    """
    check_delimiter(delimiter)
    if not schema.itemizable_indexes():
        raise SchemaError("schema has no itemizable fields; nothing to mine")
    coder = _BlockCoder(schema)
    rejects: list[RejectedLine] = []
    first = 1  # line number of the block's first line
    with open_text(source, error=None) as stream:
        while lines := stream.readlines(_BLOCK):
            lines = list(map(str.rstrip, lines, repeat("\r\n")))
            fields, offsets, fates = _split_block(lines, delimiter, schema.field_count)
            fates += ((offsets[row], str(error)) for row, error in coder.commit(fields))
            rejects += (RejectedLine(first + k, reason) for k, reason in sorted(fates))
            first += len(lines)
    if not coder.rows:
        raise EmptyDatasetError(
            f"no valid alert records in input ({len(rejects)} rejected)"
        )
    return ParseResult(coder.dataset(), tuple(rejects))


def _split_block(
    lines: list[str], delimiter: str, field_count: int
) -> tuple[list[str], Sequence[int], list[tuple[int, str]]]:
    """A block of lines, line ends stripped, as the fields of its records
    row after row, each record's offset in the block, and (offset, reason)
    for each line it rejects. A line is a record unless a whole-block pass
    flags it: a delimiter count that is not field_count - 1, the comment
    prefix, a block that is not UTF-8 and a line that is not ASCII, or a
    one-field line of whitespace alone. Only flagged lines go through the
    rules one at a time."""
    gaps = field_count - 1
    joined = delimiter.join(lines)
    offsets = range(len(lines))
    counts = list(map(str.count, lines, repeat(delimiter)))
    comments = list(map(str.startswith, lines, repeat(COMMENT_PREFIX)))
    flagged: set[int] = set()
    if counts.count(gaps) != len(lines):
        flagged.update(compress(offsets, map(gaps.__ne__, counts)))
    if True in comments:
        flagged.update(compress(offsets, comments))
    if not joined.isascii() and _undecodable(joined):
        flagged.update(compress(offsets, map(not_, map(str.isascii, lines))))
    if not gaps:
        flagged.update(compress(offsets, map(not_, map(str.strip, lines))))
    if not flagged:
        return joined.split(delimiter), offsets, []
    keep = [True] * len(lines)
    fates = []
    for k in sorted(flagged):
        line = lines[k]
        if (not line.strip() and delimiter not in line) or line.startswith(COMMENT_PREFIX):
            keep[k] = False  # blank, which _framed_line refuses to write, or a comment
            continue
        reason = None if line.isascii() else _undecodable(line)
        if reason is None and line.count(delimiter) != gaps:
            reason = f"expected {field_count} fields, got {line.count(delimiter) + 1}"
        if reason is not None:
            keep[k] = False
            fates.append((k, reason))
    records = list(compress(lines, keep))
    fields = delimiter.join(records).split(delimiter) if records else []
    return fields, list(compress(offsets, keep)), fates


def _undecodable(line: str) -> str | None:
    """Why a line read with errors="surrogateescape" is not valid UTF-8, or
    None: each byte that did not decode is a lone surrogate."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        char = ord(line[exc.start])
        cause = f"byte 0x{char - 0xDC00:02x}" if 0xDC80 <= char <= 0xDCFF else f"U+{char:04X}"
        return f"not valid UTF-8 ({cause})"
    return None


def write_log(target: Target, dataset: AlertDataset, delimiter: str = "\t") -> None:
    """Serialize a dataset back to its delimited form (debug writer; also
    used to emit synthetic logs). Round-trips value-identically with
    parse_log on canonical input.

    There is no quoting, so a value holding the delimiter, "\\n" or "\\r",
    a first one starting with the comment prefix, or the one value of a
    one-field schema that is blank would read back as another record or
    none: it raises AlertFpError naming it, and the target is left as it
    was.
    """
    check_delimiter(delimiter)
    names = tuple(f.name for f in dataset.schema.fields)
    with atomic_write(target) as out:
        for alert in dataset.alerts:
            out.write(_framed_line(alert.values, names, delimiter, alert.tid))


def _framed_line(values, names, delimiter: str, tid: int) -> str:
    """values as one log line. A line that would not read back as those
    values raises AlertFpError naming the tid and the value at fault."""
    line = delimiter.join(values)
    if (
        line.count(delimiter) == len(values) - 1
        and "\n" not in line
        and "\r" not in line
        and not line.startswith(COMMENT_PREFIX)
        and (delimiter in line or line.strip())  # parse_log skips the rest as blank
    ):
        return line + "\n"
    for position, (value, name) in enumerate(zip(values, names)):
        held = [char for char in (delimiter, "\n", "\r") if char in value]
        if held:
            fault = f"holds {held[0]!r}"
        elif position == 0 and value.startswith(COMMENT_PREFIX):
            fault = f"starts with the comment prefix {COMMENT_PREFIX!r}"
        else:
            continue
        raise AlertFpError(f"cannot write tid {tid} field {name!r}: value {value!r} {fault}")
    # what is left is a one-field line of whitespace alone
    raise AlertFpError(f"cannot write tid {tid} field {names[0]!r}: value {values[0]!r} is blank")


def write_rejects(target: Target, rejects: Iterable[RejectedLine]) -> None:
    """Rejects report: one `line_number<TAB>reason` row per rejected line."""
    with atomic_write(target) as out:
        for r in rejects:
            out.write(f"{r.line_number}\t{r.reason}\n")


_KINDS_BY_NAME = {k.value: k for k in FieldKind}


def load_schema(source: Source) -> AttributeSchema:
    """Read a schema config: one `name<TAB>kind` entry per line, order
    defining column order. Blank lines and `#` comments are skipped."""
    fields: list[SchemaField] = []
    with open_text(source, SchemaError) as lines:
        for line_number, raw_line in enumerate(lines, start=1):
            line = raw_line.strip()
            if not line or line.startswith(COMMENT_PREFIX):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SchemaError(
                    f"schema line {line_number}: expected 'name<TAB>kind', got {line!r}"
                )
            name, kind_text = parts[0].strip(), parts[1].strip().lower()
            kind = _KINDS_BY_NAME.get(kind_text)
            if kind is None:
                raise SchemaError(
                    f"schema line {line_number}: unknown field kind {kind_text!r}"
                )
            fields.append(SchemaField(name, kind))
    if not fields:
        raise SchemaError("schema config defines no fields")
    return AttributeSchema(tuple(fields))


def write_schema(target: Target, schema: AttributeSchema) -> None:
    with atomic_write(target) as out:
        for f in schema.fields:
            out.write(f"{f.name}\t{f.kind.value}\n")
