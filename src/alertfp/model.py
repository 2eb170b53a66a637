"""Core domain types: attribute schemas, alerts, items, and transactions.

An alert log is treated as a transaction database. Each alert becomes a
transaction whose items are (column, canonical value) pairs, so the same
string in two different columns is two different items. Identifier and
ignored columns contribute nothing; a timestamp column contributes two
items, the calendar-day part and the minute-resolution time part, which
lets the two halves recur independently across alerts. A dataset
itemizes each distinct value of a column once, so its transactions share
one Item object per distinct value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
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


@dataclass(frozen=True)
class SchemaField:
    name: str
    kind: FieldKind


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered column layout of an alert log."""

    fields: tuple[SchemaField, ...]
    version: str = "1"

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

    def items_per_alert(self) -> int:
        """Item count for a fully populated alert: one per categorical or
        numeric column, two per timestamp column."""
        total = 0
        for f in self.fields:
            if f.kind is FieldKind.TIMESTAMP:
                total += 2
            elif f.kind in ITEMIZABLE_KINDS:
                total += 1
        return total

    def canonical_text(self) -> str:
        """Stable rendering used for fingerprinting."""
        lines = [f"version\t{self.version}"]
        lines.extend(f"{f.name}\t{f.kind.value}" for f in self.fields)
        return "\n".join(lines) + "\n"


_NUMERIC_RE = re.compile(r"[+-]?\d+")
_TIMESTAMP_RE = re.compile(
    r"(\d{1,2}/\d{1,2}/\d{4})\s+(\d{1,2}):(\d{2})(?::\d{2})?\s*([AaPp][Mm])"
)


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
    if kind is FieldKind.NUMERIC:
        digits = text.replace(",", "")
        if not _NUMERIC_RE.fullmatch(digits):
            raise ValueParseError(f"not a numeric value: {raw!r}")
        return str(int(digits, 10))
    if kind is FieldKind.TIMESTAMP:
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


def _escape(value: str) -> str:
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
    return ",".join(f"{item.field_index}={_escape(item.value)}" for item in itemset)


@dataclass(frozen=True)
class Alert:
    """One parsed log record: its position in the dataset plus the raw
    field values aligned to the schema."""

    tid: int
    values: tuple[str, ...]


@dataclass(frozen=True)
class Transaction:
    """An alert reduced to its set of items."""

    tid: int
    items: frozenset[Item]


def itemize(alert: Alert, schema: AttributeSchema) -> Transaction:
    """Convert an alert into its transaction. Pure and deterministic."""
    return _itemize(alert, schema, _column_memos(schema))


_ColumnMemos = list[tuple[int, SchemaField, dict[str, tuple[Item, ...]]]]


def _column_memos(schema: AttributeSchema) -> _ColumnMemos:
    """One (index, field, memo) entry per itemizable column. A memo maps
    a raw value to its items, so each distinct value is itemized once."""
    return [(i, f, {}) for i, f in enumerate(schema.fields) if f.kind in ITEMIZABLE_KINDS]


def _itemize(alert: Alert, schema: AttributeSchema, columns: _ColumnMemos) -> Transaction:
    if len(alert.values) != schema.field_count:
        raise SchemaError(
            f"alert tid {alert.tid} has {len(alert.values)} values, "
            f"schema defines {schema.field_count} fields"
        )
    items: list[Item] = []
    for index, f, memo in columns:
        raw = alert.values[index]
        parts = memo.get(raw)
        if parts is None:
            try:
                value = canonicalize_value(raw, f.kind)
                if f.kind is FieldKind.TIMESTAMP and value != NULL_VALUE:
                    date_part, time_part = split_timestamp(value)
                    parts = (Item(index, date_part), Item(index, time_part))
                else:
                    parts = (Item(index, value),)
            except ValueParseError as exc:
                raise ValueParseError(str(exc), field=f.name, tid=alert.tid) from None
            memo[raw] = parts
        items.extend(parts)
    return Transaction(alert.tid, frozenset(items))


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

    def transactions(self) -> tuple[Transaction, ...]:
        """Itemize every alert. Computed once and cached."""
        cached = self.__dict__.get("_transactions")
        if cached is None:
            columns = _column_memos(self.schema)
            cached = tuple(_itemize(a, self.schema, columns) for a in self.alerts)
            object.__setattr__(self, "_transactions", cached)
        return cached


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
