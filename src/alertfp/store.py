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

Rows are read in order, each onto the scorer's trie as it comes, and
no itemset is built. Every token is the one save_model writes, so a row's
text names its itemset. A row whose prefix, the text before its last `,`,
is an earlier row's text hangs one node under that row's node, and only
its last token is parsed; canonical order makes this every row of a mined
model past level 1. Any other row, a 1-itemset or a row of a hand-written
or non-closed model, is parsed token by token and walked from the trie's
root. The insert keeps a row's support as its ratio's exact integer (see
`scorer`), converted once per distinct support. A loaded model keeps its
rows' text and reads its `patterns` off them on first use, so scoring
against it never builds them.

A model's rules are checked in one place on save and on load: the
header's `n_train >= 1`, `minisupport` in `[1, n_train]` and at least one
row (`_check_header`), each row's support in `[minisupport, n_train]` and
tidlist of exactly `support_count` strictly ascending tids in
`[0, n_train)` (`_check_row`), and each itemset's shape in the scorer's
insert (`PatternScorer._add_child`, reached from the root by `_add` or
called directly for a row placed under its prefix row). So save refuses
any model that load would refuse, and load reports the line of the row
at fault. The scorer that the load builds is kept on the model, and
`score_new` uses it.

Writes go through `textio.atomic_write`, so a reader racing a nightly
rebuild sees the old model or the new one, never a torn file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache, cached_property
from itertools import repeat
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
    _text_of,
    rank_with_scorer,
)
from .textio import atomic_write, int_of, ints_of, open_text

MODEL_MAGIC = "# alertfp-model v1"
#: the keys of header lines 2-6, in the order save_model writes them
_HEADER = ("n_train", "minisupport", "schema_fp", "built_at", "patterns")


def schema_fingerprint(schema: AttributeSchema) -> str:
    """Digest of the schema's canonical form. Scoring with a mismatched
    column layout silently garbles items, so models carry this and the
    scorer fails closed on a mismatch."""
    return hashlib.sha256(schema.canonical_text().encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class ClassifierModel:
    """A persisted pattern set plus the provenance needed to score future
    alerts: training size (support ratios keep the training denominator),
    threshold, schema fingerprint, and build time. Immutable once built;
    two models are equal when their six fields are.

    load_model returns one that holds its rows' text and builds
    `patterns` on first read (see _LoadedModel)."""

    schema_fingerprint: str
    built_at: str
    n_train: int
    minisupport_abs: int
    patterns: tuple[tuple[Itemset, int], ...]
    tidlists: tuple[tuple[int, ...], ...] | None = None

    def _key(self) -> tuple:
        return (
            self.schema_fingerprint,
            self.built_at,
            self.n_train,
            self.minisupport_abs,
            self.patterns,
            self.tidlists,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassifierModel):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)

    @cached_property
    def scorer(self) -> PatternScorer:
        """The model's scorer, built on first use and kept; a loaded model
        comes with the one its load built. Its per-transaction cache lives
        as long as the model does."""
        return _build_scorer(self)

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
        return cls(
            schema_fingerprint=schema_fingerprint(schema),
            built_at=built_at,
            n_train=fps.n,
            minisupport_abs=fps.minisupport_abs,
            patterns=tuple((p.itemset, p.support_count) for p in fps),
            tidlists=tuple(p.tidlist for p in fps) if include_tidlists else None,
        )


def _build_scorer(model: ClassifierModel) -> PatternScorer:
    """Check a model's header and rows and build its scorer, as load_model
    does for a file, only without line numbers."""
    n_train, minisupport_abs = model.n_train, model.minisupport_abs
    _check_header(n_train, minisupport_abs, model.pattern_count)
    if model.tidlists is not None and len(model.tidlists) != model.pattern_count:
        raise ModelFormatError("tidlist count does not match pattern count")
    tidlists = repeat(None) if model.tidlists is None else model.tidlists
    scorer = PatternScorer((), n_train)
    for (itemset, support_count), tids in zip(model.patterns, tidlists):
        _check_row(itemset, support_count, tids, n_train, minisupport_abs)
        scorer._add(itemset, support_count)
    return scorer


def _check_header(n_train: int, minisupport_abs: int, pattern_count: int) -> None:
    """The header's rules, checked before any row."""
    if n_train < 1:
        raise ModelFormatError(f"n_train {n_train} is below 1")
    if not 1 <= minisupport_abs <= n_train:
        raise ModelFormatError(f"minisupport {minisupport_abs} outside [1, {n_train}]")
    if pattern_count == 0:
        raise ModelFormatError("model contains no patterns")


def _check_row(
    itemset: Itemset | str,
    support_count: int,
    tids: Sequence[int] | None,
    n_train: int,
    minisupport_abs: int,
) -> None:
    """Check that the row's support and tidlist fit the header; the
    scorer's insert checks the itemset, which may come as its row text."""
    if not minisupport_abs <= support_count <= n_train:
        raise ModelFormatError(
            f"support {support_count} outside [{minisupport_abs}, {n_train}] "
            f"for itemset {_text_of(itemset)}"
        )
    # support_count >= 1 here, so a tidlist of that length has ends
    if tids is not None and not (
        len(tids) == support_count
        and 0 <= tids[0]
        and tids[-1] < n_train
        and list(tids) == sorted(set(tids))
    ):
        raise ModelFormatError(
            f"tidlist of itemset {_text_of(itemset)} is not "
            f"{support_count} strictly ascending tids in [0, {n_train})"
        )


def save_model(model: ClassifierModel, path: Union[str, Path]) -> None:
    """Write the model atomically. Saving a loaded model reproduces the
    file byte for byte."""
    model.scorer  # the build is the check
    lines = [
        MODEL_MAGIC,
        f"n_train={model.n_train}",
        f"minisupport={model.minisupport_abs}",
        f"schema_fp={model.schema_fingerprint}",
        f"built_at={model.built_at}",
        f"patterns={model.pattern_count}",
    ]
    for position, (itemset, support_count) in enumerate(model.patterns):
        row = f"{support_count}\t{render_itemset(itemset)}"
        if model.tidlists is not None:
            row += "\t" + ",".join(str(tid) for tid in model.tidlists[position])
        lines.append(row)
    with atomic_write(path) as out:
        out.write("\n".join(lines) + "\n")


def load_model(path: Union[str, Path]) -> ClassifierModel:
    """Read and fully validate a model file in the layout save_model
    writes: the magic line, the header lines in save's order, then row k
    on line 6 + k, each line ending in "\n". The rows go onto the scorer's
    trie as they are read and build no itemset: the model comes with that
    scorer, and reads its `patterns` off the rows on first use."""
    with open_text(path, ModelFormatError) as stream:
        text = stream.read()
    if not text:
        raise ModelFormatError("empty model file")
    # split on "\n" alone: it is the only line break the escaping covers, and
    # a value may hold "\r", "\x0c", "\x85" or "\u2028", which splitlines()
    # would also break on
    lines = text.split("\n")
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
    rows = lines[6:]
    if len(rows) != declared:
        message = f"header declares {declared} patterns, file carries {len(rows)}"
        raise ModelFormatError(message, line_number=6)

    _check_header(n_train, minisupport_abs, declared)

    scorer = PatternScorer((), n_train)
    supports: list[int] = []
    tidlists: list[tuple[int, ...]] = []
    items = _ItemMemo()
    # 30 supports over the daytime model's 3,443 rows: unmemoized, int_of loaded slower than int()
    support_of = cache(int_of)
    columns = 3 if rows and rows[0].count("\t") == 2 else 2  # the first row says if tidlists follow
    # row text -> its trie node and last item; a repeated row raises, so one key per row, in order
    placed: dict[str, tuple[list, Item]] = {}
    with _collector_paused():
        for line_number, line in enumerate(rows, start=7):
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
            if tids is not None:
                tidlists.append(tids)
            supports.append(support_count)

    return _LoadedModel(
        fingerprint,
        built_at,
        n_train,
        minisupport_abs,
        tuple(tidlists) if tidlists else None,
        list(placed),
        supports,
        items,
        scorer,
    )


class _LoadedModel(ClassifierModel):
    """The model load_model returns: its header, its tidlists, the scorer
    its load built, and each row's itemset text and support with the memo
    of the Items its tokens name. `patterns` is built on first read, in
    one pass over the rows; `pattern_count` is the header's count, so
    scoring never builds it."""

    def __init__(
        self,
        schema_fingerprint: str,
        built_at: str,
        n_train: int,
        minisupport_abs: int,
        tidlists: tuple[tuple[int, ...], ...] | None,
        texts: list[str],
        supports: list[int],
        items: _ItemMemo,
        scorer: PatternScorer,
    ) -> None:
        self.__dict__.update(
            schema_fingerprint=schema_fingerprint,
            built_at=built_at,
            n_train=n_train,
            minisupport_abs=minisupport_abs,
            tidlists=tidlists,
            _texts=texts,
            _supports=supports,
            _items=items,
            scorer=scorer,  # as the cached property stores it
        )

    @property
    def pattern_count(self) -> int:
        return len(self._supports)

    @cached_property
    def patterns(self) -> tuple[tuple[Itemset, int], ...]:
        item_of = self._items.__getitem__  # holds every token of every row by now
        return tuple(
            (tuple(map(item_of, text.split(","))), support)
            for text, support in zip(self._texts, self._supports)
        )


def _tidlist_of(text: str) -> tuple[int, ...]:
    try:
        return ints_of(text)
    except ValueError:
        raise ModelFormatError("malformed tidlist") from None


class _ItemMemo(dict):
    """Token text -> the Item it names. Tokens repeat across rows, so a new
    token is parsed once and stored; a malformed one raises and is not
    stored. Only the token save_model writes for an item is taken, so a
    row's text names one itemset and an itemset has one text. load_model
    adds the row's line number to the error."""

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
    return rank_with_scorer(alerts.transactions(), model.scorer, config)
