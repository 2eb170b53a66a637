"""Persist a mined pattern set as a classifier model and score new alerts
against it.

Model file, line-oriented text: a magic/version line, `key=value` header
lines, then one pattern per line as
`support_count<TAB>field_index=value,field_index=value[,...]` with the
patterns in canonical order. `%`-escaping covers the five characters that
would break the framing: `,` `=` `%` tab newline. Tidlists can optionally
be appended as a third tab-separated column for audit.

Writes go through `textio.atomic_write`, so a reader racing a nightly
rebuild sees the old model or the new one, never a torn file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Union

from .errors import EmptyPatternSetError, ModelFormatError, SchemaMismatchError
from .miner import Itemset, PatternSet
from .model import AlertDataset, AttributeSchema, Item
from .scorer import PatternScorer, ScoreConfig, ScoredAlert, rank_with_scorer
from .textio import atomic_write, open_text

MODEL_MAGIC = "# alertfp-model v1"

_ESCAPES = [("%", "%25"), (",", "%2C"), ("=", "%3D"), ("\t", "%09"), ("\n", "%0A")]


def _escape(value: str) -> str:
    for char, code in _ESCAPES:
        value = value.replace(char, code)
    return value


def _unescape(value: str) -> str:
    for char, code in reversed(_ESCAPES):
        value = value.replace(code, char)
    return value


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
    format_version: int = 1

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)

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
        for itemset, support_count in self.patterns:
            if not itemset:
                raise ModelFormatError("model contains an empty itemset")
            if support_count < self.minisupport_abs or support_count > self.n_train:
                raise ModelFormatError(
                    f"support {support_count} outside "
                    f"[{self.minisupport_abs}, {self.n_train}] for itemset {itemset}"
                )
        if self.tidlists is not None and len(self.tidlists) != len(self.patterns):
            raise ModelFormatError("tidlist count does not match pattern count")


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
        rendered = ",".join(f"{it.field_index}={_escape(it.value)}" for it in itemset)
        row = f"{support_count}\t{rendered}"
        if model.tidlists is not None:
            row += "\t" + ",".join(str(tid) for tid in model.tidlists[position])
        lines.append(row)
    with atomic_write(path) as out:
        out.write("\n".join(lines) + "\n")


def load_model(path: Union[str, Path]) -> ClassifierModel:
    """Read and fully validate a model file."""
    with open_text(path) as stream:
        text = stream.read()
    if not text:
        raise ModelFormatError("empty model file")
    # split on "\n" alone: it is the only line break the escaping covers, and
    # a value may hold "\r", "\x0c", "\x85" or "\u2028", which splitlines()
    # would also break on
    lines = text.split("\n")
    if lines[0] != MODEL_MAGIC:
        if lines[0].startswith("# alertfp-model "):
            raise ModelFormatError(
                f"unsupported model version {lines[0].removeprefix('# alertfp-model ')!r}; "
                f"this build reads {MODEL_MAGIC.removeprefix('# alertfp-model ')!r}"
            )
        raise ModelFormatError(f"not a classifier model file: {lines[0]!r}")

    header: dict[str, str] = {}
    cursor = 1
    while cursor < len(lines) and "=" in lines[cursor] and "\t" not in lines[cursor]:
        key, value = lines[cursor].split("=", 1)
        header[key] = value
        cursor += 1
        if key == "patterns":
            break
    try:
        n_train = int(header["n_train"])
        minisupport_abs = int(header["minisupport"])
        fingerprint = header["schema_fp"]
        declared = int(header["patterns"])
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"incomplete or malformed model header: {exc}") from None
    built_at = header.get("built_at", "")

    patterns: list[tuple[Itemset, int]] = []
    seen: set[Itemset] = set()
    items: dict[str, Item] = {}  # token text -> Item; tokens repeat across rows
    tidlists: list[tuple[int, ...]] = []
    saw_tidlists = False
    for offset, line in enumerate(lines[cursor:], start=cursor + 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ModelFormatError("malformed pattern row", line_number=offset)
        try:
            support_count = int(parts[0])
            itemset = tuple(_parse_item(token, offset, items) for token in parts[1].split(","))
        except ValueError:
            raise ModelFormatError("malformed pattern row", line_number=offset) from None
        if not minisupport_abs <= support_count <= n_train:
            raise ModelFormatError(
                f"support {support_count} outside [{minisupport_abs}, {n_train}] "
                f"for itemset {parts[1]}",
                line_number=offset,
            )
        if any(left >= right for left, right in zip(itemset, itemset[1:])):
            raise ModelFormatError(
                f"items of itemset {parts[1]} are not strictly ascending", line_number=offset
            )
        if itemset in seen:
            raise ModelFormatError(
                f"itemset {parts[1]} repeats an earlier row", line_number=offset
            )
        seen.add(itemset)
        patterns.append((itemset, support_count))
        if len(parts) == 3:
            saw_tidlists = True
            try:
                tidlists.append(tuple(int(tid) for tid in parts[2].split(",") if tid))
            except ValueError:
                raise ModelFormatError("malformed tidlist", line_number=offset) from None
        else:
            tidlists.append(())
    if len(patterns) != declared:
        raise ModelFormatError(
            f"header declares {declared} patterns, file carries {len(patterns)}"
        )
    if not patterns:
        raise ModelFormatError("model contains no patterns")
    return ClassifierModel(
        schema_fingerprint=fingerprint,
        built_at=built_at,
        n_train=n_train,
        minisupport_abs=minisupport_abs,
        patterns=tuple(patterns),
        tidlists=tuple(tidlists) if saw_tidlists else None,
    )


def _parse_item(token: str, line_number: int, items: dict[str, Item]) -> Item:
    """The Item a token names, parsed once per distinct token of a load."""
    item = items.get(token)
    if item is None:
        index_text, sep, value_text = token.partition("=")
        if not sep or not index_text:
            raise ModelFormatError(f"malformed item token {token!r}", line_number=line_number)
        item = items[token] = Item(int(index_text), _unescape(value_text))
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
    scorer = PatternScorer(model.patterns, model.n_train)
    return rank_with_scorer(alerts.transactions(), scorer, config)
