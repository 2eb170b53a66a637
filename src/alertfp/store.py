"""Persist a mined pattern set as a classifier model and score new alerts
against it.

Model file, line-oriented text, each line ending in a newline: the magic
line, the header lines `n_train=`, `minisupport=`, `schema_fp=`,
`built_at=` and `patterns=` in that order, then one pattern per line as
`support_count<TAB>field_index=value,field_index=value[,...]` with the
patterns in canonical order. `%`-escaping (`model.render_itemset`) covers
the five characters that would break the framing: `,` `=` `%` tab
newline. An item token must be the one save_model writes for its item,
so a row's itemset text is one-to-one with its itemset. Tidlists can
optionally be appended as a third tab-separated column for audit.

A ClassifierModel is its header values and its rows, each row held as
the file holds it. A model comes from its rows (the constructor, which
load_model calls after reading them a block at a time) or from a mined
set (`from_pattern_set`, which renders each row from its own pattern,
tidlist included), and save_model writes it back line by line, so an
audited save or load holds one copy of its rows. Two models are equal
when their rows are. `patterns` is read off the rows on first use, so
saving, comparing and scoring a model do not build it.

A model's rules are checked in one place, `_checked_scorer`, for save,
load and scoring alike: the header's `n_train >= 1`, `minisupport` in
`[1, n_train]`, at least one row and no newline in `schema_fp` or
`built_at` (`_check_header`), each row's
support in `[minisupport, n_train]` and tidlist of exactly
`support_count` strictly ascending tids in `[0, n_train)` (`_check_row`),
and each itemset's shape in the scorer's insert (`PatternScorer._add`,
`_add_child`). So save refuses exactly the header numbers
and rows that load refuses, with the same message less the line number
that load adds, and a header string that load could not read back. The check
puts each row onto the scorer's trie as it comes and builds no itemset.
A row whose prefix, the text before its last `,`, is an earlier row's
text hangs one node under that row's node, and only its last token is
parsed; canonical order makes this every row of a mined model past
level 1. Any other row, a 1-itemset or a row of a hand-written or
non-closed model, is parsed token by token and walked from the trie's
root. The insert keeps a row's support as its ratio's exact integer (see
`scorer`), converted once per distinct support. The trie is the model's
`scorer`: load_model keeps the one its check built, and `score_new`
uses it.

Writes go through `textio.atomic_write`, so a reader racing a nightly
rebuild sees the old model or the new one, never a torn file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache, cached_property
from itertools import count, repeat
from operator import lt
from pathlib import Path
from typing import Sequence, Union

from .errors import EmptyPatternSetError, ModelFormatError, SchemaMismatchError
from .miner import Itemset, PatternSet
from .model import (
    AlertDataset,
    AttributeSchema,
    Item,
    escape_value,
    render_itemset,
    unescape_value,
)
from .scorer import (
    PatternScorer,
    ScoreConfig,
    ScoredAlert,
    _collector_paused,
    rank_with_scorer,
)
from .textio import atomic_write, int_of, ints_of, lines_of, open_text

MODEL_MAGIC = "# alertfp-model v1"
#: the keys of header lines 2-6, in the order save_model writes them
_HEADER = ("n_train", "minisupport", "schema_fp", "built_at", "patterns")


def schema_fingerprint(schema: AttributeSchema) -> str:
    """Digest of the schema's canonical form. Scoring with a mismatched
    column layout silently garbles items, so models carry this and the
    scorer fails closed on a mismatch."""
    return hashlib.sha256(schema.canonical_text().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ClassifierModel:
    """A persisted pattern set plus the provenance needed to score future
    alerts: training size (support ratios keep the training denominator),
    threshold, schema fingerprint, and build time. Immutable once built.

    `rows` holds each pattern line as the model file holds it, without
    its newline. Every token is the one save_model writes, so rows are
    one-to-one with (itemset, support_count, tidlist) and two models are
    equal when their five fields are."""

    schema_fingerprint: str
    built_at: str
    n_train: int
    minisupport_abs: int
    rows: tuple[str, ...]

    @property
    def pattern_count(self) -> int:
        return len(self.rows)

    @cached_property
    def scorer(self) -> PatternScorer:
        """The scorer the check of the rows builds, on first use, and
        kept; a loaded model comes with the one its load built."""
        return _checked_scorer(self)

    @cached_property
    def patterns(self) -> tuple[tuple[Itemset, int], ...]:
        """Each row's (itemset, support_count), read off the checked rows."""
        self.scorer  # the check, so every token parses
        item_of = _ItemMemo().__getitem__
        parts = (row.split("\t") for row in self.rows)
        return tuple((tuple(map(item_of, p[1].split(","))), int(p[0])) for p in parts)

    @classmethod
    def from_pattern_set(
        cls,
        fps: PatternSet,
        schema: AttributeSchema,
        built_at: str | None = None,
        include_tidlists: bool = False,
    ) -> "ClassifierModel":
        if fps.count == 0:
            raise EmptyPatternSetError(
                "refusing to persist an empty pattern set; lower minisupport "
                "or train on more data"
            )
        if built_at is None:
            built_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        columns = [map(str, fps.supports), map(render_itemset, fps.itemsets)]
        if include_tidlists:  # lazily: one pattern's tidlist is alive at a time
            columns.append(",".join(map(str, p.tidlist)) for p in fps)
        rows = tuple(map("\t".join, zip(*columns)))
        return cls(schema_fingerprint(schema), built_at, fps.n, fps.minisupport_abs, rows)


def _check_header(model: ClassifierModel) -> None:
    """The header's rules, checked before any row. A header string must
    hold no newline: the line it is written on would end there."""
    n_train, minisupport_abs = model.n_train, model.minisupport_abs
    for key, value in (("schema_fp", model.schema_fingerprint), ("built_at", model.built_at)):
        if "\n" in value:
            raise ModelFormatError(f"header {key} {value!r} holds a newline")
    if n_train < 1:
        raise ModelFormatError(f"n_train {n_train} is below 1")
    if not 1 <= minisupport_abs <= n_train:
        raise ModelFormatError(f"minisupport {minisupport_abs} outside [1, {n_train}]")
    if not model.rows:
        raise ModelFormatError("model contains no patterns")


def _check_row(
    itemset: str,
    support_count: int,
    tids: Sequence[int] | None,
    n_train: int,
    minisupport_abs: int,
) -> None:
    """Check that the row's support and tidlist fit the header; the
    scorer's insert checks the itemset, given as its row text."""
    if not minisupport_abs <= support_count <= n_train:
        raise ModelFormatError(
            f"support {support_count} outside [{minisupport_abs}, {n_train}] "
            f"for itemset {itemset}"
        )
    # support_count >= 1 here, so a tidlist of that length has ends
    if tids is not None and not (
        len(tids) == support_count
        and 0 <= tids[0]
        and tids[-1] < n_train
        and all(map(lt, tids, tids[1:]))
    ):
        raise ModelFormatError(
            f"tidlist of itemset {itemset} is not "
            f"{support_count} strictly ascending tids in [0, {n_train})"
        )


def _checked_scorer(model: ClassifierModel, first_line: int | None = None) -> PatternScorer:
    """Check a model's header values and rows, and return the scorer the
    rows build: the one check of a model. An error in a row names its line
    when first_line, the line of the first row, is given."""
    _check_header(model)
    n_train, minisupport_abs, rows = model.n_train, model.minisupport_abs, model.rows
    scorer = PatternScorer((), n_train)
    items = _ItemMemo()
    # 30 supports over the daytime model's 3,443 rows: unmemoized, int_of loaded slower than int()
    support_of = cache(int_of)
    columns = 3 if rows[0].count("\t") == 2 else 2  # the first row says if tidlists follow
    # row text -> its trie node and last item; a repeated row raises, so one key per row, in order
    placed: dict[str, tuple[list, Item]] = {}
    line_numbers = repeat(None) if first_line is None else count(first_line)
    with _collector_paused():
        for line_number, line in zip(line_numbers, rows):
            parts = line.split("\t")
            try:
                if len(parts) != columns:
                    raise ValueError
                support_count = support_of(parts[0])
                text = parts[1]
                # a value's own "," is escaped, so the prefix is the itemset less its last item
                prefix, _, last = text.rpartition(",")
                parent = placed.get(prefix)
                if parent is None:
                    itemset = tuple(map(items.__getitem__, text.split(",")))
                    item = itemset[-1]
                else:
                    item = items[last]
                tids = None if columns == 2 else _tidlist_of(parts[2])
                _check_row(text, support_count, tids, n_train, minisupport_abs)
                if parent is None:
                    node = scorer._add(itemset, support_count)
                else:
                    node = scorer._add_child(parent[0], parent[1], item, support_count, text)
                placed[text] = node, item
            except ValueError:
                raise ModelFormatError("malformed pattern row", line_number=line_number) from None
            except ModelFormatError as exc:
                raise ModelFormatError(str(exc), line_number=line_number) from None
    return scorer


def save_model(model: ClassifierModel, path: Union[str, Path]) -> None:
    """Check the model as load_model would, then write its header and rows
    line by line, atomically. Saving a loaded model reproduces the file
    byte for byte."""
    model.scorer  # the build is the check
    with atomic_write(path) as out:
        values = (model.n_train, model.minisupport_abs, model.schema_fingerprint, model.built_at,
                  model.pattern_count)  # in _HEADER's order
        out.write(f"{MODEL_MAGIC}\n")
        out.writelines(f"{key}={value}\n" for key, value in zip(_HEADER, values, strict=True))
        for row in model.rows:  # two writes: a new "row\n" string per row took longer
            out.write(row)
            out.write("\n")


def load_model(path: Union[str, Path]) -> ClassifierModel:
    """Read and fully validate a model file in the layout save_model
    writes: the magic line, the header lines in save's order, then row k
    on line 6 + k, each line ending in "\n". The file is read a block at
    a time (`lines_of`), so the load holds its lines and not the whole
    text beside them. The model comes with the scorer its check built."""
    with open_text(path, ModelFormatError) as stream:
        lines = list(lines_of(stream))
    if lines == [""]:
        raise ModelFormatError("empty model file")
    if lines[0] != MODEL_MAGIC:
        raise ModelFormatError(f"expected {MODEL_MAGIC!r}, found {lines[0]!r}", line_number=1)
    if lines.pop():
        raise ModelFormatError("no newline at end of file", line_number=len(lines) + 1)

    header = []
    for line_number, key in enumerate(_HEADER, start=2):
        line = lines[line_number - 1] if line_number <= len(lines) else ""
        if not line.startswith(f"{key}="):
            message = f"expected header line {key}=..., found {line!r}"
            raise ModelFormatError(message, line_number=line_number)
        value = line[len(key) + 1 :]
        try:
            header.append(value if key in ("schema_fp", "built_at") else int_of(value))
        except ValueError:
            message = f"header {line} is not an integer"
            raise ModelFormatError(message, line_number=line_number) from None
    n_train, minisupport_abs, fingerprint, built_at, declared = header
    rows = tuple(lines[6:])
    if len(rows) != declared:
        message = f"header declares {declared} patterns, file carries {len(rows)}"
        raise ModelFormatError(message, line_number=6)

    model = ClassifierModel(fingerprint, built_at, n_train, minisupport_abs, rows)
    # as the cached property stores it
    model.__dict__["scorer"] = _checked_scorer(model, first_line=7)
    return model


def _tidlist_of(text: str) -> tuple[int, ...]:
    try:
        return ints_of(text)
    except ValueError:
        raise ModelFormatError("malformed tidlist") from None


class _ItemMemo(dict):
    """Token text -> the Item it names. Tokens repeat across rows, so a new
    token is parsed once and stored; a malformed one raises and is not
    stored. Only the token save_model writes for an item is taken, so a
    row's text names one itemset and an itemset has one text. load_model's
    check adds the row's line number to the error."""

    def __missing__(self, token: str) -> Item:
        index_text, sep, value_text = token.partition("=")
        value = unescape_value(value_text)
        if not sep or not index_text or escape_value(value) != value_text:
            raise ModelFormatError(f"malformed item token {token!r}")
        item = self[token] = Item(int_of(index_text), value)
        return item


def score_new(
    alerts: AlertDataset,
    model: ClassifierModel,
    config: ScoreConfig | None = None,
    force_schema: bool = False,
) -> list[ScoredAlert]:
    """Rank fresh alerts against a stored model.

    Support ratios use the model's training size, so scores depend only on
    the stored knowledge, not on the new batch. The schema fingerprint
    must match unless force_schema is set.
    """
    config = config or ScoreConfig()
    actual = schema_fingerprint(alerts.schema)
    if actual != model.schema_fingerprint and not force_schema:
        raise SchemaMismatchError(
            "alert schema does not match the model's training schema "
            f"({actual[:12]}.. vs {model.schema_fingerprint[:12]}..); "
            "pass force_schema to override"
        )
    return rank_with_scorer(alerts, model.scorer, config)
