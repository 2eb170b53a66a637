"""Exception taxonomy. The CLI maps these onto exit codes."""

from __future__ import annotations


class AlertFpError(Exception):
    """Base class for all alertfp failures."""


class SchemaError(AlertFpError):
    """Schema definition or schema/record mismatch problem."""


class ValueParseError(AlertFpError):
    """A single field value could not be canonicalized or split."""

    def __init__(self, message: str, *, field: str | None = None, tid: int | None = None):
        self.reason = message  # without the field and tid
        context = []
        if field is not None:
            context.append(f"field {field!r}")
        if tid is not None:
            context.append(f"tid {tid}")
        if context:
            message = f"{message} ({', '.join(context)})"
        super().__init__(message)
        self.field = field
        self.tid = tid


class EmptyDatasetError(AlertFpError):
    """No usable alert records were found in the input."""


class PatternExplosionError(AlertFpError):
    """Mining exceeded the configured pattern cap. `kept` holds the number
    of frequent itemsets of each length up to `level`, shortest first."""

    def __init__(self, cap: int, kept: tuple[int, ...]):
        self.cap = cap
        self.kept = kept
        self.count = sum(kept)
        self.level = len(kept)
        super().__init__(
            f"frequent-pattern count exceeded the cap of {cap} at itemset length {self.level} "
            f"({self.count} patterns so far); raise minisupport or the --max-patterns cap"
        )


class BruteForceGuardError(AlertFpError):
    """The exhaustive miner refused an input too wide to enumerate."""


class EmptyPatternSetError(AlertFpError):
    """An operation that needs at least one frequent pattern got none."""


class ModelFormatError(AlertFpError):
    """A classifier model file is unreadable, corrupted, or inconsistent."""

    def __init__(self, message: str, *, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SchemaMismatchError(AlertFpError):
    """Alerts being scored do not match the schema the model was built with."""
