"""Core domain types: attribute schemas, alerts, items, and transactions.

An alert log is treated as a transaction database. Each alert becomes a
transaction whose items are (column, canonical value) pairs, so the same
string in two different columns is two different items. Identifier and
ignored columns contribute nothing; a timestamp column contributes two
items, the calendar-day part and the minute-resolution time part, which
lets the two halves recur independently across alerts.

One coder turns log values into canonical values, the plain-string keys
of their items and int codes, once per distinct raw value of a column. It
codes a block of rows at a time, one column at a time: parse_log hands it
each block of lines it reads, and a dataset built from Alerts hands it
all of them on its first `AlertDataset.columns()` call. The dataset
parse_log returns is what the coder keeps: the codes, one byte per alert
in a column of at most 256 distinct raw values and else an int, each
code's canonical value, and the raw strings of the identifier and ignore
columns. It builds no Alert; its `alerts` are built in one pass on first
read. The miner counts the codes and makes Items only for frequent keys,
and the scorer keys each alert off the codes. The per-alert transactions
are `itemize`, the reference itemizer, run over `alerts` on demand, for
callers that want item sets and for the tests that hold the codes to it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count, filterfalse, repeat
from operator import attrgetter
from typing import Iterable, NamedTuple

from .errors import SchemaError, ValueParseError

NULL_VALUE = "null"


class FieldKind(str, Enum):
    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    TIMESTAMP = "timestamp"
    IDENTIFIER = "identifier"
    IGNORE = "ignore"


#: Kinds that produce items. Identifier and ignore columns never do.
ITEMIZABLE_KINDS = frozenset(
    {FieldKind.CATEGORICAL, FieldKind.NUMERIC, FieldKind.TIMESTAMP}
)
_SINGLE_ITEM_KINDS = frozenset({FieldKind.CATEGORICAL, FieldKind.NUMERIC})


@dataclass(frozen=True)
class SchemaField:
    name: str
    kind: FieldKind


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered column layout of an alert log."""

    fields: tuple[SchemaField, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for f in self.fields:
            if not f.name:
                raise SchemaError("schema field names must be non-empty")
            if f.name in seen:
                raise SchemaError(f"duplicate schema field name {f.name!r}")
            seen.add(f.name)

    @property
    def field_count(self) -> int:
        return len(self.fields)

    def field_index(self, name: str) -> int:
        for i, f in enumerate(self.fields):
            if f.name == name:
                return i
        raise SchemaError(f"schema has no field named {name!r}")

    def itemizable_indexes(self) -> tuple[int, ...]:
        return tuple(
            i for i, f in enumerate(self.fields) if f.kind in ITEMIZABLE_KINDS
        )

    def single_item_indexes(self) -> tuple[int, ...]:
        """Columns that give every alert exactly one item: categorical and
        numeric ones, so no two of their items occur together. A timestamp
        column is left out: it gives a date and a time item under one
        index."""
        return tuple(
            i for i, f in enumerate(self.fields) if f.kind in _SINGLE_ITEM_KINDS
        )

    def canonical_text(self) -> str:
        """Stable rendering used for fingerprinting."""
        lines = ["version\t1"]
        lines.extend(f"{f.name}\t{f.kind.value}" for f in self.fields)
        return "\n".join(lines) + "\n"


_NUMERIC_RE = re.compile(r"[+-]?\d+")
# month 1-12, day 1-31, hour 0-12, minute and second 00-59; a one-digit
# month, day or hour may take a leading zero. Hour 0 is accepted: some
# clocks write the hour after midnight as 0:MM AM.
_TIMESTAMP_RE = re.compile(
    r"(0?[1-9]|1[0-2])/(0?[1-9]|[12]\d|3[01])/(\d{4})\s+(0?\d|1[0-2]):([0-5]\d)"
    r"(?::[0-5]\d)?\s*([AaPp][Mm])",
    re.ASCII,
)


# an Enum member read off its class costs a metaclass lookup; these run
# once per distinct value
_NUMERIC, _TIMESTAMP = FieldKind.NUMERIC, FieldKind.TIMESTAMP


def canonicalize_value(raw: str, kind: FieldKind) -> str:
    """Normalize one raw field value.

    Numeric values lose every comma, wherever it stands, and leading zeros
    ("46,865" becomes "46865", "1,,2" becomes "12", "007" becomes "7"); a
    value of commas alone is not a number. Other kinds are only trimmed.
    Empty or null-ish values canonicalize to the literal "null" for every
    kind; absence is itself a pattern-able feature.
    """
    text = raw.strip()
    if not text or text.lower() == NULL_VALUE:
        return NULL_VALUE
    if kind is _NUMERIC:
        digits = text.replace(",", "")
        if not _NUMERIC_RE.fullmatch(digits):
            raise ValueParseError(f"not a numeric value: {raw!r}")
        try:
            return str(int(digits, 10))
        except ValueError:  # int() refuses over sys.get_int_max_str_digits() digits
            raise ValueParseError(f"numeric value too long ({len(digits)} digits)") from None
    if kind is _TIMESTAMP:
        return " ".join(text.split())
    return text


def split_timestamp(raw: str) -> tuple[str, str]:
    """Split "M/D/YYYY H:MM AM" into its date and time parts, one of
    each for every spelling of a minute.

    The date part has no leading zeros ("06/02/2010" gives "6/2/2010").
    The time part is minute-resolution with the meridiem attached and no
    internal space ("08:57 am" gives "8:57AM"); hour 0 reads as 12, the
    hour it names ("0:30 AM" gives "12:30AM"), and seconds, if present,
    are dropped. A month outside 1-12, a day outside 1-31, an hour outside
    0-12, or a minute or second outside 00-59 is not a timestamp:
    "6/22/2010 99:99 PM" and "0/0/2010 8:57 AM" raise as "yesterday" does.
    """
    match = _TIMESTAMP_RE.fullmatch(raw.strip())
    if match is None:
        raise ValueParseError(f"not a recognized timestamp: {raw!r}")
    month, day, year, hour, minute, meridiem = match.groups()
    return f"{int(month)}/{int(day)}/{year}", f"{int(hour) or 12}:{minute}{meridiem.upper()}"


class Item(NamedTuple):
    """One (column, canonical value) pair.

    Equality, hashing and ordering are those of the (field_index, value)
    tuple, so equal strings in different columns never collide. An Item
    equals the plain tuple (field_index, value).
    """

    field_index: int
    value: str


# `%`-escapes of the characters that would break a model row's framing
_ESCAPES = [("%", "%25"), (",", "%2C"), ("=", "%3D"), ("\t", "%09"), ("\n", "%0A")]


def escape_value(value: str) -> str:
    for char, code in _ESCAPES:
        value = value.replace(char, code)
    return value


def unescape_value(value: str) -> str:
    for char, code in reversed(_ESCAPES):
        value = value.replace(code, char)
    return value


def render_itemset(itemset: Iterable[Item]) -> str:
    """An itemset as a model row writes it, `index=value,...` with each
    value escaped; every diagnostic names an itemset in this form."""
    return ",".join(f"{item.field_index}={escape_value(item.value)}" for item in itemset)


@dataclass(frozen=True, slots=True)
class Alert:
    """One parsed log record: its position in the dataset plus the raw
    field values aligned to the schema."""

    tid: int
    values: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Transaction:
    """An alert reduced to its set of items."""

    tid: int
    items: frozenset[Item]


def itemize(alert: Alert, schema: AttributeSchema) -> Transaction:
    """Convert an alert into its transaction. Pure and deterministic."""
    _check_width(alert, schema)
    items: list[Item] = []
    for index, f in enumerate(schema.fields):
        if f.kind in ITEMIZABLE_KINDS:
            try:
                _, key, time = _value_step(alert.values[index], f.kind)
            except ValueParseError as exc:
                raise ValueParseError(str(exc), field=f.name, tid=alert.tid) from None
            items.append(Item(index, key))
            if time is not None:
                items.append(Item(index, time))
    return Transaction(alert.tid, frozenset(items))


def _check_width(alert: Alert, schema: AttributeSchema) -> None:
    if len(alert.values) != schema.field_count:
        raise SchemaError(
            f"alert tid {alert.tid} has {len(alert.values)} values, "
            f"schema defines {schema.field_count} fields"
        )


def _value_step(raw: str, kind: FieldKind) -> tuple[str, str, str | None]:
    """A raw value's canonical value and the item values it yields: a
    timestamp's date and time parts, or else the canonical value and None
    (a null timestamp too). Every alert value is itemized through here."""
    value = canonicalize_value(raw, kind)
    if kind is _TIMESTAMP and value != NULL_VALUE:
        return (value, *split_timestamp(value))
    return value, value, None


# A numeric value that is its own canonical form: 0, or an integer in
# ASCII digits with no "+", leading zero or comma, of at most 18 digits:
# far below 640, the lowest limit sys.set_int_max_str_digits() accepts, so
# a value too long for int() keeps its per-value error. One line per value
# of a "\n"-joined list.
_PLAIN_NUMBER = r"(?:0|-?[1-9][0-9]{0,17})"
_PLAIN_NUMBERS = re.compile(f"{_PLAIN_NUMBER}(?:\n{_PLAIN_NUMBER})*")


def _as_read(raws: list[str], kind: FieldKind) -> bool:
    """True when _value_step gives each of `raws` the raw string itself as
    its canonical value and key, and None as its time. One test of the
    whole list: a false answer only means that each raw value must take the
    per-value step. A timestamp always does."""
    if kind is _TIMESTAMP:
        return False
    if kind is _NUMERIC:
        lines = "\n".join(raws)  # a value holding "\n" would read as two
        return lines.count("\n") == len(raws) - 1 and _PLAIN_NUMBERS.fullmatch(lines) is not None
    return (
        "" not in raws
        and list(map(str.strip, raws)) == raws
        and NULL_VALUE not in map(str.lower, raws)
    )


class ColumnCodes(NamedTuple):
    """One itemizable column of a dataset with its values coded.

    `codes[tid]` numbers alert tid's raw value among the column's distinct
    raw values, in order of first appearance. `codes` is bytes, one byte
    per alert, for a column of at most 256 distinct raw values, and else a
    tuple of ints; read either as a sequence of ints. A value seen only on
    rejected log lines may hold a code no alert has: a block of lines is
    coded in every column before any line of it is rejected for a bad
    value. The value with code c reads `values[c]` in canonical form and
    itemizes to Item(field_index, keys[c]) and, for a timestamp, also to
    Item(field_index, times[c]) unless that is None (a null). `times` is
    None for other kinds, whose `values` are their `keys`. The keys are
    plain strings: an Item is a tuple subclass, which the cyclic collector
    tracks for good, so Items are made only where needed.
    """

    field_index: int
    codes: bytes | tuple[int, ...]
    keys: tuple[str, ...]
    times: tuple[str | None, ...] | None
    values: tuple[str, ...]


class _ColumnCoder(dict):
    """An itemizable column's raw value -> code, and the codes committed so
    far. Each new raw value takes the next code c, whose canonical value is
    values[c] and item values keys[c] and times[c]. A block's new raw
    values are tested as a block: when every one is its own canonical value
    and key, they take their codes at once, and else each runs the
    per-value step in turn. A bad value codes to None, and its
    ValueParseError, naming the field, goes to errors[raw]: each later row
    holding it fails on a dict hit.

    The committed codes are a bytearray, one byte per row, while the
    column has at most 256 distinct raw values. The commit of the first
    block that brings code 256 turns them into a list of ints, once: this
    is the one place that decides a column's form."""

    def __init__(self, index: int, f: SchemaField) -> None:
        super().__init__()
        self.index, self.field = index, f
        self.values, self.keys, self.times = [], [], []
        self.errors: dict[str, ValueParseError] = {}
        self.codes: bytearray | list[int] = bytearray()

    def _add(self, raw: str) -> None:
        try:
            value, key, time = _value_step(raw, self.field.kind)
        except ValueParseError as exc:
            self.errors[raw] = ValueParseError(exc.reason, field=self.field.name)
            self[raw] = None
            return
        self[raw] = len(self.values)
        self.values.append(value)
        self.keys.append(key)
        self.times.append(time)

    def code(self, raws: list[str]) -> bytes | list[int | None]:
        """A block's codes, one per raw value: bytes while the column is
        bytes and every code of the block fits a byte, else a list, with
        None for each bad value. The block's new raw values, in order of
        first appearance, take their codes before it is mapped again."""
        try:
            return self._mapped(raws)
        except KeyError:  # a raw value not seen before
            pass
        # looked up before they are deduplicated: most raws of a block are not new
        new = list(dict.fromkeys(filterfalse(self.__contains__, raws)))
        if _as_read(new, self.field.kind):
            start = len(self.values)
            self.update(zip(new, range(start, start + len(new))))
            self.values += new
            self.keys += new
            self.times += repeat(None, len(new))
        else:
            for raw in new:
                self._add(raw)
        return self._mapped(raws)

    def _mapped(self, raws: list[str]) -> bytes | list[int | None]:
        if type(self.codes) is bytearray:
            try:
                return bytes(map(self.__getitem__, raws))
            except (TypeError, ValueError):  # a None, or a code past 255
                pass  # the values coded so far hit the dict on the second pass
        return list(map(self.__getitem__, raws))

    def commit(self, codes: Iterable[int]) -> None:
        """Append a block's committed codes, after switching the column to
        ints if it has passed 256 distinct raw values."""
        if len(self.values) > 256 and type(self.codes) is bytearray:
            self.codes = list(self.codes)
        self.codes.extend(codes)

    def column(self) -> ColumnCodes:
        """The column as committed. It takes the codes out, freeing their
        list or bytearray as their tuple or bytes is made, so it is called
        once, after the last commit."""
        codes, self.codes = self.codes, []
        codes = bytes(codes) if type(codes) is bytearray else tuple(codes)
        keys = tuple(self.keys)
        if self.field.kind is not _TIMESTAMP:
            return ColumnCodes(self.index, codes, keys, None, keys)
        return ColumnCodes(self.index, codes, keys, tuple(self.times), tuple(self.values))


class _BlockCoder:
    """Codes a dataset a block of rows at a time, one column at a time: the
    one place where log values become canonical values, item keys and int
    codes. Each itemizable column keeps its codes in its _ColumnCoder, as
    bytes or ints, and each other column its raw strings in `raws`.
    parse_log commits one block of lines at a time; a dataset built from
    Alerts commits all its alerts on its first columns()."""

    def __init__(self, schema: AttributeSchema) -> None:
        self.schema = schema
        itemizable = schema.itemizable_indexes()
        self.coders = [_ColumnCoder(i, schema.fields[i]) for i in itemizable]
        self.raws: dict[int, list[str]] = {
            i: [] for i in range(schema.field_count) if i not in itemizable
        }
        self.rows = 0

    def commit(self, fields: list[str]) -> list[tuple[int, ValueParseError]]:
        """Code a block of rows given as their fields, row after row, every
        row of schema width. Commit the rows whose values all code, and
        return (row, error) for each other row, in row order, with the
        error of its first bad value in schema order. A column whose block
        codes as bytes holds no bad value."""
        width = self.schema.field_count
        columns = [coder.code(fields[coder.index :: width]) for coder in self.coders]
        bad: dict[int, ValueParseError] = {}
        for coder, codes in zip(self.coders, columns):
            if type(codes) is list and None in codes:
                for row, code in enumerate(codes):
                    if code is None:
                        bad.setdefault(row, coder.errors[fields[row * width + coder.index]])
        rows = len(fields) // width
        keep = [row not in bad for row in range(rows)] if bad else None
        for coder, codes in zip(self.coders, columns):
            coder.commit(compress(codes, keep) if bad else codes)
        for index, raws in self.raws.items():
            column = fields[index::width]
            raws += compress(column, keep) if bad else column
        self.rows += rows - len(bad)
        return sorted(bad.items())

    def columns(self) -> tuple[ColumnCodes, ...]:
        return tuple(coder.column() for coder in self.coders)

    def dataset(self) -> AlertDataset:
        """The dataset of the committed rows, as parse_log returns it."""
        raws = {index: tuple(raws) for index, raws in self.raws.items()}
        return _ParsedDataset(self.schema, self.rows, self.columns(), raws)


@dataclass(frozen=True, eq=False)
class AlertDataset:
    """An ordered alert log under one schema. Immutable once built; a
    dataset compares and hashes by identity, so neither builds an Alert.

    Built from Alerts, it keeps them as given, and codes its columns on
    the first columns() call. parse_log returns one that holds its columns
    coded and builds no Alert until `alerts` is read (see _ParsedDataset).
    """

    schema: AttributeSchema
    alerts: tuple[Alert, ...]

    def __post_init__(self) -> None:
        for position, alert in enumerate(self.alerts):
            if alert.tid != position:
                raise ValueError(
                    f"alert at position {position} carries tid {alert.tid}; "
                    "tids must be 0..n-1 in order"
                )

    @property
    def n(self) -> int:
        return len(self.alerts)

    def columns(self) -> tuple[ColumnCodes, ...]:
        """Every itemizable column in code form, in schema order. A dataset
        not parsed codes all its alerts on the first call, and fails as
        itemize does at the lowest failing tid: a value error below the
        first alert of the wrong width is raised, else that width error.
        Cached unless the build fails."""
        return self._columns

    def transactions(self) -> tuple[Transaction, ...]:
        """Every alert's transaction, as `itemize` makes it. Computed once
        and cached unless an alert fails to itemize."""
        return self._transactions

    @cached_property
    def _columns(self) -> tuple[ColumnCodes, ...]:
        width = self.schema.field_count
        misfit = next((a for a in self.alerts if len(a.values) != width), None)
        rows = self.alerts if misfit is None else self.alerts[: misfit.tid]
        coder = _BlockCoder(self.schema)
        failed = coder.commit(list(chain.from_iterable(map(attrgetter("values"), rows))))
        if failed:
            tid, error = failed[0]
            raise ValueParseError(error.reason, field=error.field, tid=tid)
        if misfit is not None:
            _check_width(misfit, self.schema)
        return coder.columns()

    @cached_property
    def _transactions(self) -> tuple[Transaction, ...]:
        return tuple(itemize(alert, self.schema) for alert in self.alerts)


class _ParsedDataset(AlertDataset):
    """The dataset parse_log returns: what the coder kept of its n rows,
    the itemizable columns coded (`columns()`, with each column's canonical
    values by code) and the other columns' raw strings by column index
    (`_raws`), trimmed only when read. `alerts` is built on first read, in
    one pass over the columns, with the values parse_log canonicalized."""

    def __init__(
        self,
        schema: AttributeSchema,
        n: int,
        columns: tuple[ColumnCodes, ...],
        raws: dict[int, tuple[str, ...]],
    ) -> None:
        self.__dict__.update(schema=schema, _n=n, _columns=columns, _raws=raws)

    @property
    def n(self) -> int:
        return self._n

    @cached_property
    def alerts(self) -> tuple[Alert, ...]:
        per_column: list = [None] * self.schema.field_count
        for column in self._columns:
            per_column[column.field_index] = map(column.values.__getitem__, column.codes)
        for index, raws in self._raws.items():
            per_column[index] = map(str.strip, raws)
        return tuple(map(Alert, count(), zip(*per_column)))


def snort_schema() -> AttributeSchema:
    """Column layout of the classic Snort alert log this tool targets.

    cid is a per-alert counter and is excluded from itemization; the two
    columns after sig_name are unnamed classification codes and are kept
    as opaque categorical attributes.
    """
    kinds = [
        ("sid", FieldKind.CATEGORICAL),
        ("cid", FieldKind.IDENTIFIER),
        ("sig_id", FieldKind.CATEGORICAL),
        ("sig_name", FieldKind.CATEGORICAL),
        ("class_id", FieldKind.CATEGORICAL),
        ("priority", FieldKind.CATEGORICAL),
        ("timestamp", FieldKind.TIMESTAMP),
        ("ip_src", FieldKind.CATEGORICAL),
        ("ip_dst", FieldKind.CATEGORICAL),
        ("proto", FieldKind.CATEGORICAL),
        ("sport", FieldKind.NUMERIC),
        ("dport", FieldKind.NUMERIC),
    ]
    return AttributeSchema(tuple(SchemaField(n, k) for n, k in kinds))
