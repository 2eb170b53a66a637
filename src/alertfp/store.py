"""Persist a mined pattern set as a classifier model and score new alerts
against it.

Model file, line-oriented text, each line ending in a newline: the magic
line, the header lines `n_train=`, `minisupport=`, `schema_fp=`,
`built_at=` and `patterns=` in that order, then one pattern per line as
`support_count<TAB>field_index=value,field_index=value[,...]` with the
patterns in canonical order. `%`-escaping (`model.render_itemset`) covers
the five characters that would break the framing: `,` `=` `%` tab
newline. Tidlists can optionally be appended as a third tab-separated
column for audit.

A model's rules are checked in one place, `_build_scorer`, which both
`save_model` (through `ClassifierModel.validate`) and `load_model` run:
the header's `n_train >= 1` and `minisupport` in `[1, n_train]`, each
row's support in `[minisupport, n_train]` and tidlist of exactly
`support_count` strictly ascending tids in `[0, n_train)`, and, in the
build of the scorer's trie, each itemset's shape. So save refuses any
model that load would refuse, and load reports the line of the row at
fault. The scorer that the load builds is kept on the model, and
`score_new` uses it.

Writes go through `textio.atomic_write`, so a reader racing a nightly
rebuild sees the old model or the new one, never a torn file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from .errors import EmptyPatternSetError, ModelFormatError, SchemaMismatchError
from .miner import Itemset, PatternSet
from .model import AlertDataset, AttributeSchema, Item, render_itemset, unescape_value
from .scorer import PatternScorer, ScoreConfig, ScoredAlert, cached_scorer, rank_with_scorer
from .textio import atomic_write, int_of, ints_of, open_text

MODEL_MAGIC = "# alertfp-model v1"
#: the keys of header lines 2-6, in the order save_model writes them
_HEADER = ("n_train", "minisupport", "schema_fp", "built_at", "patterns")

# (itemset, support_count, tidlist or None): one model row, as save and load see it
_Row = tuple[Itemset, int, Sequence[int] | None]


def schema_fingerprint(schema: AttributeSchema) -> str:
    """Digest of the schema's canonical form. Scoring with a mismatched
    column layout silently garbles items, so models carry this and the
    scorer fails closed on a mismatch."""
    return hashlib.sha256(schema.canonical_text().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ClassifierModel:
    """A persisted pattern set plus the provenance needed to score future
    alerts: training size (support ratios keep the training denominator),
    threshold, schema fingerprint, and build time."""

    schema_fingerprint: str
    built_at: str
    n_train: int
    minisupport_abs: int
    patterns: tuple[tuple[Itemset, int], ...]
    tidlists: tuple[tuple[int, ...], ...] | None = None

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)

    @property
    def scorer(self) -> PatternScorer:
        """The model's scorer, built on first use and kept; a loaded model
        comes with the one its load built. Its per-transaction cache lives
        as long as the model does."""
        return cached_scorer(
            self, lambda: _build_scorer(self._rows(), self.n_train, self.minisupport_abs)
        )

    def _rows(self) -> Iterator[_Row]:
        if self.tidlists is not None and len(self.tidlists) != len(self.patterns):
            raise ModelFormatError("tidlist count does not match pattern count")
        tidlists = repeat(None) if self.tidlists is None else self.tidlists
        for (itemset, support_count), tids in zip(self.patterns, tidlists):
            yield itemset, support_count, tids

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

    def validate(self) -> None:
        """Raise ModelFormatError for any model that load_model would
        refuse as a file, by building the model's scorer."""
        self.scorer  # the build is the check


def _build_scorer(rows: Iterable[_Row], n_train: int, minisupport_abs: int) -> PatternScorer:
    """Check a model's header and rows and build its scorer: the one check
    of a model, on save and on load. An error names no line; load_model
    adds the line of the row being read."""
    if n_train < 1:
        raise ModelFormatError(f"n_train {n_train} is below 1")
    if not 1 <= minisupport_abs <= n_train:
        raise ModelFormatError(f"minisupport {minisupport_abs} outside [1, {n_train}]")
    scorer = PatternScorer(_checked_rows(rows, n_train, minisupport_abs), n_train)
    if scorer.count == 0:
        raise ModelFormatError("model contains no patterns")
    return scorer


def _checked_rows(
    rows: Iterable[_Row], n_train: int, minisupport_abs: int
) -> Iterator[tuple[Itemset, int]]:
    """(itemset, support_count) of each row whose support and tidlist fit
    the header; the scorer's build checks the itemset."""
    for itemset, support_count, tids in rows:
        if not minisupport_abs <= support_count <= n_train:
            raise ModelFormatError(
                f"support {support_count} outside [{minisupport_abs}, {n_train}] "
                f"for itemset {render_itemset(itemset)}"
            )
        # support_count >= 1 here, so a tidlist of that length has ends
        if tids is not None and not (
            len(tids) == support_count
            and 0 <= tids[0]
            and tids[-1] < n_train
            and list(tids) == sorted(set(tids))
        ):
            raise ModelFormatError(
                f"tidlist of itemset {render_itemset(itemset)} is not "
                f"{support_count} strictly ascending tids in [0, {n_train})"
            )
        yield itemset, support_count


def save_model(model: ClassifierModel, path: Union[str, Path]) -> None:
    """Write the model atomically. Saving a loaded model reproduces the
    file byte for byte."""
    model.validate()
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
    on line 6 + k, each line ending in "\n". The model comes with the
    scorer built from its rows as they were read."""
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

    patterns: list[tuple[Itemset, int]] = []
    tidlists: list[tuple[int, ...]] = []
    items = _ItemMemo()
    # 30 supports over the daytime model's 3,443 rows: unmemoized, int_of loaded slower than int()
    support_of = cache(int_of)
    columns = 3 if rows and rows[0].count("\t") == 2 else 2  # the first row says if tidlists follow

    def parsed() -> Iterator[_Row]:
        for line_number, line in enumerate(rows, start=7):
            parts = line.split("\t")
            try:
                if len(parts) != columns:
                    raise ValueError
                support_count = support_of(parts[0])
                tokens = parts[1].split(",")
                itemset = tuple(map(items.__getitem__, tokens))
            except ValueError:
                raise ModelFormatError("malformed pattern row", line_number=line_number) from None
            except ModelFormatError as exc:  # a malformed item token
                raise ModelFormatError(str(exc), line_number=line_number) from None
            tids = None
            if columns == 3:
                try:
                    tids = ints_of(parts[2])
                except ValueError:
                    raise ModelFormatError("malformed tidlist", line_number=line_number) from None
                tidlists.append(tids)
            patterns.append((itemset, support_count))
            yield itemset, support_count, tids

    try:
        scorer = _build_scorer(parsed(), n_train, minisupport_abs)
    except ModelFormatError as exc:
        # a row fails its check while parsed() waits at it, the last row appended
        if exc.line_number is not None or not patterns:
            raise
        raise ModelFormatError(str(exc), line_number=6 + len(patterns)) from None
    model = ClassifierModel(
        schema_fingerprint=fingerprint,
        built_at=built_at,
        n_train=n_train,
        minisupport_abs=minisupport_abs,
        patterns=tuple(patterns),
        tidlists=tuple(tidlists) if tidlists else None,
    )
    cached_scorer(model, lambda: scorer)
    return model


class _ItemMemo(dict):
    """Token text -> the Item it names. Tokens repeat across rows, so a new
    token is parsed once and stored; a malformed one raises and is not
    stored. load_model adds the row's line number to the error."""

    def __missing__(self, token: str) -> Item:
        index_text, sep, value_text = token.partition("=")
        if not sep or not index_text:
            raise ModelFormatError(f"malformed item token {token!r}")
        item = self[token] = Item(int_of(index_text), unescape_value(value_text))
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
