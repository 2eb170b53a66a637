"""Per-alert outlier scores against a frequent-pattern set, and the
ascending ranking that puts rare alerts first.

Two scores per alert: the simple score is the count of frequent patterns
contained in the alert's transaction; the full score is the sum of the
contained patterns' support ratios divided by the pattern-set size, so it
always lands in [0, 1]. Alerts containing many common patterns score
high and sink; alerts matching nothing float to the top for review.

A ranking (rank_with_scorer) keys each alert by its frequent items. An
AlertDataset is keyed off its column codes, so no per-alert transaction is
built: each code of a column maps to a digit, the number of the frequent
item its value gives in that column or 0, a timestamp having a date and a
time digit, and an alert's key is the tuple of its digits. A sequence of
transactions is keyed by intersecting each one's items with the frequent
ones. Each distinct key is decoded to its items and scored once, and one
stable sort of the tids orders the alerts.

The patterns sit in a prefix trie (PatternScorer), the Apriori subset
function (Agrawal & Srikant, VLDB 1994) laid out as a prefix tree in the
manner of FP-growth (Han, Pei & Yin, SIGMOD 2000). Each node holds its
support ratio fl(s/n) as the exact integer ldexp(ratio, S), with
S = n.bit_length() + 53: a ratio with s >= 1 is at least 1/n >
2**-(S - 53), so it is a multiple of 2**-S. A score adds integers, which
is exact in any order, and divides by 2**S once; int / int is correctly
rounded. Counting takes one of two routes, with the same (count, raw sum)
bit for bit; each files a pattern past one shape check (_check_shape),
for mined sets and models saved or loaded alike:

- The trie walk: each distinct set of frequent items walks the trie along
  its own items in ascending order. A loaded model (`store.score_new`)
  and the per-alert `simple_fpof`/`fpof` calls score this way, since they
  see few distinct keys and deriving anything from the trie would cost
  more than it saves. A scorer meant to be reused is kept on what it
  scores for: in a PatternSet's `_scorer` slot for the per-alert calls,
  and as a ClassifierModel's `scorer` property for `store.score_new`.
- Conditional decomposition (ConditionalScorer), FP-growth's conditional
  pattern base: `rank`, and so `alertfp rank` and the sweep, files each
  pattern straight onto one conditional trie per item. Items are put in
  descending order of level-1 support, and each pattern is filed under
  its last item x in that order, on x's conditional trie, which holds the
  pattern less x. A key's score is then the score of its prefix without
  x plus x's own pattern and the patterns on x's conditional trie the
  prefix contains. Scores are memoized by prefix, so the keys that share
  a common profile pay for it once, and each pays only for its rare items.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ldexp
from operator import itemgetter, lt
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import AlertFpError, EmptyPatternSetError, ModelFormatError
from .ingest import check_delimiter
from .miner import Minable, PatternSet, _as_transactions
from .model import AlertDataset, Item, Transaction, render_itemset
from .textio import Source, Target, atomic_write, int_of, lines_of, open_text

RANKED_MAGIC = "# alertfp-ranked v1"
# the header and a full score ("%.6f" of a value in [0, 1]) as write_ranked writes them
_RANKED_HEADER = re.compile(re.escape(RANKED_MAGIC) + r" n=([1-9][0-9]*) metric=(simple|fpof)")
_SCORE = re.compile(r"0\.[0-9]{6}|1\.000000")


@dataclass(frozen=True)
class ScoreConfig:
    """metric picks the sort key ("simple" or "fpof")."""

    metric: str = "simple"

    def __post_init__(self) -> None:
        if self.metric not in ("simple", "fpof"):
            raise ValueError(f"unknown metric {self.metric!r}")


class ScoredAlert(NamedTuple):
    """One alert's scores and its place in a ranking. Equality, hashing,
    ordering and immutability are those of the tuple
    (tid, simple_fpof, fpof, rank)."""

    tid: int
    simple_fpof: int
    fpof: float
    rank: int


class PatternScorer:
    """Counts and weighs the frequent patterns contained in a transaction.

    Works from bare (itemset, support_count) pairs so a freshly mined
    pattern set and a loaded classifier model score identically. The
    patterns sit in a prefix trie keyed by item along each itemset's
    strictly ascending items; a node, the root included, is [scaled ratio
    or None, children dict or None]. A key is the transaction's frequent
    items. The walk probes only the key's items after the node's own, so
    its work grows with the patterns the key contains, not with the
    pattern count or the key's width.

    An empty itemset, one whose items are not strictly ascending, or one
    given twice raises ModelFormatError, naming the itemset as a model
    row writes it. A support ratio that is not a multiple of 2**-S, which
    s/n for an int s >= 1 always is, raises ValueError: its integer would
    not be exact.
    """

    def __init__(self, patterns: Iterable[tuple[Sequence[Item], int]], n: int):
        if n < 1:
            raise ValueError("dataset size must be >= 1")
        self.n = n
        shift = n.bit_length() + 53
        self._scale = 1 << shift
        self._scaled = _Scaled(n, shift)
        self._root: list = [None, {}]
        self._items: set[Item] = set()  # every item of a pattern
        self.count = 0
        self._build(patterns)

    def _build(self, patterns: Iterable[tuple[Sequence[Item], int]]) -> None:
        """Insert every pattern: the last step of __init__, so a subclass
        that overrides it builds inside the constructor."""
        add = self._add
        for itemset, support_count in patterns:
            add(itemset, support_count)

    def _add(self, itemset: Sequence[Item], support_count: int) -> list:
        """Insert one pattern and return its node, making the prefix nodes
        that are missing. Every insert comes before the first score."""
        _check_shape(itemset)
        *prefix, last = itemset
        self._items.update(prefix)
        return self._add_child(_node_at(self._root, prefix), None, last, support_count, itemset)

    def _add_child(
        self,
        parent: list,
        previous: Item | None,
        item: Item,
        support_count: int,
        itemset: Sequence[Item] | str,
    ) -> list:
        """Insert the pattern that extends parent's by item, and return its
        node. item must follow previous, parent's last item, unless that is
        None: at the root, or for an itemset checked whole. The pattern is
        named by itemset or its row text. The node may exist already."""
        children = parent[1]
        if children is None:
            children = parent[1] = {}
        node = children.get(item)
        if node is None:
            if previous is not None and not previous < item:
                raise _not_ascending(itemset)
            node = children[item] = [None, None]
            self._items.add(item)
        elif node[0] is not None:
            raise _repeated(itemset)
        node[0] = self._scaled[support_count]
        self.count += 1
        return node

    @cached_property
    def _frequent(self) -> frozenset[Item]:
        """Every item of a pattern, the only items a key can hold. Made on
        the first score."""
        return frozenset(self._items)

    @classmethod
    def from_pattern_set(cls, fps: PatternSet) -> "PatternScorer":
        return cls(zip(fps.itemsets, fps.supports), fps.n)

    def score(self, items: Iterable[Item]) -> tuple[int, float]:
        """Return (contained-pattern count, ratio sum) for one item set."""
        count, total = self._count(self._frequent.intersection(items))
        return count, total / self._scale

    def _count(self, key: frozenset[Item]) -> tuple[int, int]:
        """(count, scaled sum) of the patterns key contains."""
        return _contained(self._root[1], sorted(key), len(key))


class ConditionalScorer(PatternScorer):
    """PatternScorer's scores by conditional decomposition (see the module
    docstring).

    The build makes two passes over the patterns. The first makes each
    item its position in descending level-1 support, ties broken by Item;
    an item with no 1-itemset pattern (in a set that is not downward
    closed) comes last. Any total order gives the same scores; this one
    makes keys share long prefixes. The second files each pattern whose
    last item is x, less x, on x's conditional trie `_conditional[x]`,
    along ascending positions; the trie's own ratio is pattern {x}'s, and
    the root stays empty. `_memo` is a trie of the key prefixes counted
    so far, a node being [count, scaled sum, children dict].
    """

    def _build(self, patterns: Iterable[tuple[Sequence[Item], int]]) -> None:
        itemsets, supports, level_1 = [], [], {}  # walked twice, kept as columns
        for itemset, support_count in patterns:
            itemsets.append(itemset)
            supports.append(support_count)
            if len(itemset) == 1:
                level_1[itemset[0]] = support_count
        self._items.update(*itemsets)
        ordered = sorted(self._items, key=lambda i: (i not in level_1, -level_1.get(i, 0), i))
        self._position = position = {item: k for k, item in enumerate(ordered)}
        self._conditional = conditional = [[None, None] for _ in ordered]
        for itemset, support_count in zip(itemsets, supports):
            _check_shape(itemset)
            rest = sorted(map(position.__getitem__, itemset))
            node = _node_at(conditional[rest.pop()], rest)
            if node[0] is not None:
                raise _repeated(itemset)
            node[0] = self._scaled[support_count]
        self.count = len(itemsets)
        self._memo: list = [0, 0, {}]

    def _count(self, key: frozenset[Item]) -> tuple[int, int]:
        members = sorted(map(self._position.__getitem__, key))
        memo = self._memo
        done = 0
        for x in members:  # down the longest prefix counted before
            step = memo[2].get(x)
            if step is None:
                break
            memo = step
            done += 1
        count, total = memo[0], memo[1]
        conditional = self._conditional
        for end in range(done, len(members)):
            x = members[end]
            own, children = conditional[x]
            if own is not None:
                count += 1
                total += own
            if children:
                below, scaled = _contained(children, members, end)
                count += below
                total += scaled
            step = memo[2][x] = [count, total, {}]
            memo = step
        return count, total


def _node_at(node: list, path: Iterable) -> list:
    """The node that path leads to from node, made with what is missing."""
    for key in path:
        children = node[1]
        if children is None:
            children = node[1] = {}
        below = children.get(key)
        if below is None:
            below = children[key] = [None, None]
        node = below
    return node


def _contained(children: dict, members: Sequence, end: int) -> tuple[int, int]:
    """(count, scaled sum) of the patterns on the trie below children whose
    items are all among members[:end], which ascend: the one trie walk."""
    count = total = 0
    # (children, position): the node's children may extend its itemset by
    # any member at or after position
    stack = [(children, 0)]
    while stack:
        children, start = stack.pop()
        for position in range(start, end):
            node = children.get(members[position])
            if node is not None:
                if node[0] is not None:
                    count += 1
                    total += node[0]
                if node[1]:
                    stack.append((node[1], position + 1))
    return count, total


class _Scaled(dict):
    """Support count -> its ratio support / n as the exact integer
    ldexp(ratio, shift). Supports repeat across patterns, so each is
    converted once."""

    def __init__(self, n: int, shift: int):
        self.n, self.shift = n, shift

    def __missing__(self, support_count: int) -> int:
        ratio = support_count / self.n
        scaled = ldexp(ratio, self.shift)
        if not scaled.is_integer():
            raise ValueError(f"support ratio {ratio!r} is not a multiple of 2**-{self.shift}")
        value = self[support_count] = int(scaled)
        return value


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while a trie is built and, in
    `rank`, used. A build adds only containers and a ranking only acyclic
    ones (keys, the score dict, the rows), yet the collector's passes over
    the trie took about a sixth of a load of the seed-1 daytime model
    (3,443 rows, one load per fresh process), and a sixth to a quarter of
    `rank` at the sweep's threshold 30 (55,643 patterns). A collector that
    was off stays off, and one that was on is on again however it ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _text_of(itemset: Sequence[Item] | str) -> str:
    """An itemset as a model row writes it; a row's text is that already."""
    return itemset if isinstance(itemset, str) else render_itemset(itemset)


def _check_shape(itemset: Sequence[Item]) -> None:
    """Refuse an empty itemset, which every alert contains, or one not strictly ascending."""
    if not itemset:
        raise ModelFormatError("empty itemset")
    if not all(map(lt, itemset, itemset[1:])):
        raise _not_ascending(itemset)


def _not_ascending(itemset: Sequence[Item] | str) -> ModelFormatError:
    return ModelFormatError(f"items of itemset {_text_of(itemset)} are not strictly ascending")


def _repeated(itemset: Sequence[Item] | str) -> ModelFormatError:
    return ModelFormatError(f"itemset {_text_of(itemset)} repeats an earlier row")


def _shared_scorer(fps: PatternSet) -> PatternScorer:
    """One scorer per pattern set, built on first use and kept on it.

    For the per-alert `simple_fpof`/`fpof` calls only. `rank` builds its
    own scorer, which dies with the ranking: kept on the set, its memo
    would outlive it, and in a sweep the lowest threshold's set, which
    every later row filters, would hold it to the end.
    """
    attrs = fps.__dict__  # no field, so equality and repr ignore the slot
    if "_scorer" not in attrs:
        attrs["_scorer"] = PatternScorer.from_pattern_set(fps)
    return attrs["_scorer"]


def simple_fpof(t: Transaction, fps: PatternSet) -> int:
    """Number of frequent patterns contained in the transaction."""
    return _shared_scorer(fps).score(t.items)[0]


def fpof(t: Transaction, fps: PatternSet) -> float:
    """Sum of contained patterns' support ratios over the pattern count."""
    if fps.count == 0:
        raise EmptyPatternSetError("score is undefined over an empty pattern set")
    return _shared_scorer(fps).score(t.items)[1] / fps.count


def rank(
    data: Minable,
    fps: PatternSet,
    config: ScoreConfig | None = None,
) -> list[ScoredAlert]:
    """Score every alert and sort ascending by the configured metric.

    Both scores are always populated. Ties break by ascending tid, so the
    output is fully determined by the scores and the input order. Scores
    by conditional decomposition; the conditional tries and the memo die
    with the ranking. The build and the ranking run under
    `_collector_paused`; `rank_with_scorer`, which `store.score_new` calls
    too, does not pause the collector itself.
    """
    config = config or ScoreConfig()
    if fps.count == 0:
        raise EmptyPatternSetError("ranking is undefined over an empty pattern set")
    with _collector_paused():
        return rank_with_scorer(data, ConditionalScorer.from_pattern_set(fps), config)


def rank_with_scorer(
    data: Minable,
    scorer: PatternScorer,
    config: ScoreConfig,
) -> list[ScoredAlert]:
    """Score every alert with scorer and sort ascending by the configured
    metric, ties by ascending tid.

    An alert's key is its frequent items: for an AlertDataset the digits
    read off the column codes (_code_keys), so no transaction is built,
    and for transactions the intersection of each one's items with the
    scorer's. Each distinct key is decoded to its items and scored once.
    """
    frequent = scorer._frequent
    if isinstance(data, AlertDataset):
        keys, items_of = _code_keys(data, frequent)
    else:
        keys = [frequent.intersection(t.items) for t in _as_transactions(data)]
        items_of = frozenset  # a key is its items
    scores = {key: scorer.score(items_of(key)) for key in dict.fromkeys(keys)}
    rows = list(map(scores.__getitem__, keys))
    metric = list(map(itemgetter(0 if config.metric == "simple" else 1), rows))
    # tids are positions, so a stable sort of them breaks ties by tid
    order = sorted(range(len(rows)), key=metric.__getitem__)
    count = scorer.count
    return [
        ScoredAlert(tid, rows[tid][0], rows[tid][1] / count, position)
        for position, tid in enumerate(order, start=1)
    ]


def _code_keys(
    dataset: AlertDataset, frequent: frozenset[Item]
) -> tuple[list[tuple[int, ...]], Callable[[tuple[int, ...]], list[Item]]]:
    """Every alert's key as the tuple of its digits, and the function that
    decodes a key to its items. Each part of a column, its keys and a
    timestamp's times, that gives some alert a frequent item adds a digit:
    the number of that item among the column's frequent items, from 1, or
    0 for an item that is not frequent and for a null's time (None). With
    no such part every key is ()."""
    in_column: dict[int, list[Item]] = {}
    for item in sorted(frequent):
        in_column.setdefault(item.field_index, []).append(item)
    parts = []  # each part's digit per alert
    tables = []  # each part's items by digit
    for column in dataset.columns():
        items = in_column.get(column.field_index)
        if items is None:
            continue
        digit_of = {item.value: digit for digit, item in enumerate(items, start=1)}
        for values in (column.keys,) if column.times is None else (column.keys, column.times):
            digits = [digit_of.get(value, 0) for value in values]
            if any(digits):
                parts.append(map(digits.__getitem__, column.codes))
                tables.append((None, *items))
    keys = list(zip(*parts)) if parts else [()] * dataset.n

    def items_of(key: tuple[int, ...]) -> list[Item]:
        return [by_digit[digit] for by_digit, digit in zip(tables, key) if digit]

    return keys, items_of


def top_candidates(ranked: Sequence[ScoredAlert], top_p: float) -> list[int]:
    """tids of the first ceil(n * top_p / 100) alerts: the candidate true
    alerts an analyst reviews first."""
    if not ranked:
        raise AlertFpError("cannot take candidates from an empty ranking")
    if not 0 < top_p <= 100:
        raise ValueError("top_p must be in (0, 100]")
    share = Fraction(str(top_p))
    keep = -((-len(ranked) * share.numerator) // (share.denominator * 100))
    return [sa.tid for sa in ranked[:keep]]


# ---------------------------------------------------------------------------
# Ranked output file
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankedFile:
    n: int
    metric: str
    rows: tuple[ScoredAlert, ...]


def write_ranked(
    target: Target,
    ranked: Sequence[ScoredAlert],
    dataset: AlertDataset,
    metric: str,
    delimiter: str = "\t",
) -> None:
    """Write the ranked log: header, then one
    rank<TAB>tid<TAB>simple_fpof<TAB>fpof<TAB>original_record row per alert,
    its values joined by a delimiter check_delimiter allows. A value that
    holds "\\n" would end its row: it raises AlertFpError naming the tid
    and the field, and the target is left as it was."""
    check_delimiter(delimiter)
    fields = dataset.schema.fields
    with atomic_write(target) as out:
        out.write(f"{RANKED_MAGIC} n={dataset.n} metric={metric}\n")
        for sa in ranked:
            values = dataset.alerts[sa.tid].values
            original = delimiter.join(values)
            if "\n" in original:
                name, value = next((f.name, v) for f, v in zip(fields, values) if "\n" in v)
                fault = f"cannot write tid {sa.tid} field {name!r}: value {value!r} holds '\\n'"
                raise AlertFpError(fault)
            out.write(f"{sa.rank}\t{sa.tid}\t{sa.simple_fpof}\t{sa.fpof:.6f}\t{original}\n")


def read_ranked(source: Source) -> RankedFile:
    """Read a ranked file back as its scored alerts, only in the layout
    write_ranked writes; the original records are not kept. Row k ranks k,
    its tid is in [0, n) and not repeated, its simple score is a count,
    its full score is "%.6f" of a value in [0, 1], and the rows run in
    the header metric's order: (simple, tid) strictly ascending, or the
    full score never descending. Any other line, a blank one included, a
    last line without "\n", or a row count that differs from the header's
    n= raises AlertFpError."""
    with open_text(source) as stream:
        header, *lines = lines_of(stream)
    match = _RANKED_HEADER.fullmatch(header)
    try:
        if not match:
            raise ValueError
        n, metric = int(match[1]), match[2]  # int() refuses an n= of too many digits
    except ValueError:
        message = f"ranked file line 1: malformed ranked-file header: {header!r}"
        raise AlertFpError(message) from None
    if lines and lines.pop():
        raise AlertFpError(f"ranked file line {len(lines) + 2}: no newline at end of file")
    rows = []
    seen = set()
    previous = ()
    for k, line in enumerate(lines, start=1):
        try:
            rank_, tid, simple, score, _ = line.split("\t", 4)
            tid, simple = int_of(tid), int_of(simple)
            if (
                rank_ != str(k)
                or not 0 <= tid < n
                or tid in seen
                or simple < 0
                or not _SCORE.fullmatch(score)
            ):
                raise ValueError
            row = ScoredAlert(tid, simple, float(score), k)
            # rank_with_scorer sorts by (simple, tid) or by the raw full
            # score. The printed score, a monotone map of the raw one, never
            # descends, but may tie rows in any tid order: as k ascends,
            # (score, k) ascends strictly exactly when the score never descends
            order = (simple, tid) if metric == "simple" else (row.fpof, k)
            if not order > previous:
                raise ValueError
        except ValueError:
            raise AlertFpError(f"ranked file line {k + 1}: malformed row") from None
        rows.append(row)
        seen.add(tid)
        previous = order
    if len(rows) != n:
        raise AlertFpError(f"ranked file header declares n={n} but carries {len(rows)} rows")
    return RankedFile(n, metric, tuple(rows))
