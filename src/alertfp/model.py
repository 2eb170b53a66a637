"""Core domain types: attribute schemas, alerts, items, and transactions.

An alert log is treated as a transaction database. Each alert becomes a
transaction whose items are (column, canonical value) pairs, so the same
string in two different columns is two different items. Identifier and
ignored columns contribute nothing; a timestamp column contributes two
items, the calendar-day part and the minute-resolution time part, which
lets the two halves recur independently across alerts.

One column coder turns log values into canonical values, the
plain-string keys of their items and int codes, once per distinct raw
value of a column. parse_log drives it as it reads; a dataset built from
Alerts drives it on its first `AlertDataset.columns()` call. The miner
counts the codes and makes Items only for frequent keys; the per-alert
transactions are a view over the codes, built on demand, in which alerts
with equal raw values in a column share one Item object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from operator import getitem
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
_TIMESTAMP_RE = re.compile(
    r"(\d{1,2}/\d{1,2}/\d{4})\s+(\d{1,2}):(\d{2})(?::\d{2})?\s*([AaPp][Mm])"
)


# an Enum member read off its class costs a metaclass lookup; these run
# once per distinct value
_NUMERIC, _TIMESTAMP = FieldKind.NUMERIC, FieldKind.TIMESTAMP


def canonicalize_value(raw: str, kind: FieldKind) -> str:
    """Normalize one raw field value.

    Numeric values lose thousands separators and leading zeros ("46,865"
    becomes "46865", "007" becomes "7"). Other kinds are only trimmed.
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
    """Split "M/D/YYYY H:MM AM" into its date and time parts.

    The time part is minute-resolution with the meridiem attached and no
    internal space ("8:57AM"); seconds, if present, are dropped.
    """
    match = _TIMESTAMP_RE.fullmatch(raw.strip())
    if match is None:
        raise ValueParseError(f"not a recognized timestamp: {raw!r}")
    date_part, hour, minute, meridiem = match.groups()
    return date_part, f"{int(hour)}:{minute}{meridiem.upper()}"


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


class ColumnCodes(NamedTuple):
    """One itemizable column of a dataset with its values coded.

    `codes[tid]` numbers alert tid's raw value among the column's distinct
    raw values, in order of first appearance (a value seen only on rejected
    log lines may hold a code no alert has). The value with code c itemizes
    to Item(field_index, keys[c]) and, for a timestamp, also to
    Item(field_index, times[c]) unless that is None (a null). `times` is
    None for other kinds. The keys are plain strings: an Item is a tuple
    subclass, which the cyclic collector tracks for good, so Items are made
    only where needed.
    """

    field_index: int
    codes: tuple[int, ...]
    keys: tuple[str, ...]
    times: tuple[str | None, ...] | None


class _ColumnCoder(dict):
    """A column's raw value -> (code, canonical value). A new raw value runs
    the per-value step once and takes the next code, whose item values are
    keys[code] and times[code]. A bad value raises ValueParseError naming
    the field and is not stored, so each row holding it raises. Identifier
    and ignore values seldom repeat: they are trimmed, never stored."""

    def __init__(self, f: SchemaField) -> None:
        super().__init__()
        self.field, self.keys, self.times = f, [], []

    def __missing__(self, raw: str) -> tuple[int | None, str]:
        if self.field.kind not in ITEMIZABLE_KINDS:
            return None, raw.strip()
        try:
            value, key, time = _value_step(raw, self.field.kind)
        except ValueParseError as exc:
            raise ValueParseError(str(exc), field=self.field.name) from None
        self.keys.append(key)
        self.times.append(time)
        entry = self[raw] = (len(self), value)
        return entry


class _RowCoder:
    """Codes a dataset row by row, the one place where log values become
    canonical values, item keys and int codes. parse_log drives it line by
    line; a dataset built from Alerts drives it on its first columns()."""

    def __init__(self, schema: AttributeSchema) -> None:
        self.schema = schema
        self.columns = [_ColumnCoder(f) for f in schema.fields]
        self.codes: list[int | None] = []  # row after row, one per column

    def row(self, fields: Iterable[str]) -> tuple[str, ...]:
        """The canonical values of a row of schema width, whose codes are
        committed; a bad value raises and commits nothing."""
        pairs = tuple(map(getitem, self.columns, fields))
        codes, values = zip(*pairs) if pairs else ((), ())
        self.codes.extend(codes)
        return values

    def dataset(self, alerts: tuple[Alert, ...]) -> AlertDataset:
        """The dataset of the committed rows, with its columns coded."""
        dataset = AlertDataset(self.schema, alerts)
        dataset.__dict__["_columns"] = self.column_codes()  # as the cached property stores it
        return dataset

    def column_codes(self) -> tuple[ColumnCodes, ...]:
        width = len(self.columns)
        return tuple(
            ColumnCodes(
                index,
                tuple(self.codes[index::width]),
                tuple(column.keys),
                tuple(column.times) if column.field.kind is _TIMESTAMP else None,
            )
            for index, column in enumerate(self.columns)
            if column.field.kind in ITEMIZABLE_KINDS
        )


def _item_tables(column: ColumnCodes) -> tuple[list[Item], ...]:
    """The column's Items by code: one table, or for a timestamp a date and
    a time table, where a null's lone item fills both (a frozenset keeps
    it once)."""
    index = column.field_index
    items = [Item(index, key) for key in column.keys]
    if column.times is None:
        return (items,)
    return items, [
        item if time is None else Item(index, time) for item, time in zip(items, column.times)
    ]


@dataclass(frozen=True)
class AlertDataset:
    """An ordered alert log under one schema. Immutable once built."""

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
        not parsed codes alert by alert on the first call, so it fails as
        itemize at the lowest failing tid. Cached unless the build fails."""
        return self._columns

    def transactions(self) -> tuple[Transaction, ...]:
        """Every alert's transaction, read off the column codes. Computed
        once and cached; alerts with equal raw values in a column share
        that value's Item objects."""
        return self._transactions

    @cached_property
    def _columns(self) -> tuple[ColumnCodes, ...]:
        coder = _RowCoder(self.schema)
        for alert in self.alerts:
            _check_width(alert, self.schema)
            try:
                coder.row(alert.values)
            except ValueParseError as exc:
                raise ValueParseError(exc.reason, field=exc.field, tid=alert.tid) from None
        return coder.column_codes()

    @cached_property
    def _transactions(self) -> tuple[Transaction, ...]:
        per_tid = [
            map(table.__getitem__, column.codes)
            for column in self.columns()
            for table in _item_tables(column)
        ]
        rows = zip(*per_tid) if per_tid else repeat((), self.n)
        return tuple(Transaction(tid, frozenset(row)) for tid, row in enumerate(rows))


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
