"""Level-wise frequent-itemset mining over int-bitset tidlists.

A tidlist is an int bitset (bit t set means transaction t contains the
itemset): an intersection is a single `&` and support is the count of set
bits. This is the vertical layout of Eclat (Zaki, "Scalable Algorithms for
Association Mining", IEEE TKDE 2000). `bits_of` packs transaction ids
into a bitset, and `tids_of`, the one unpacker, serves
`FrequentPattern.tidlist`. Only level-1 bitsets are kept: a PatternSet
is its itemsets and supports, as columns, and its items' level-1 bitsets,
and a pattern's tidlist is their intersection, computed when read. Its
one constructor takes those columns. A set filters to the set of any
higher threshold (`PatternSet.at_least`).

The first level counts items before it builds any tidlist: an
AlertDataset is counted from its per-column value codes, without building
a transaction per alert, and only the items that reach the threshold get
a bitset. A dense item's bitset is read off a byte vector of its column's
codes as a base-2 int, in C-level passes; a column whose codes are bytes
becomes that vector in C too, and, with few codes, is counted in C. The
rarer items of a column share one pass that lists their transaction ids
for `bits_of`, which also packs a Transaction list's items. From there
the classic join of two k-itemsets sharing a (k-1)-prefix produces each
(k+1)-candidate, whose bitset is the intersection of its two generators',
so no further dataset scans are needed.

A level is joined one prefix group at a time, and only a new tidset is
counted, as it is made: a candidate whose intersection equals one of its
generators' bitsets takes that generator's int and count, and one whose
generators hold the same int skips the `&` too (the tidset property of
CHARM, Zaki & Hsiao, SDM 2002; MAFIA's parent-equivalence pruning, Burdick
et al., ICDE 2001). On logs that repeat a few alert profiles, a level
holds about one int per distinct tidset. Every level, the first included,
is a list of (itemset, bitset, count) triples, so prune reads each count
where the scan or the join left it. A candidate below the threshold keeps
no bitset, and a group's bitsets are dropped once it is joined: a level
holds its survivors' bitsets and one group's candidates, not every
candidate of the level beside all of the one before (Apriori joins a
whole level, then prunes it: Agrawal & Srikant, VLDB 1994). Once the
running count passes `max_patterns`, the rest of the level is counted,
not kept, so the guard bounds the patterns a level keeps; each still
holds a bitset of up to n/8 bytes.

A categorical or numeric column gives each alert exactly one item, so two
of its items never occur together (the one-value-per-attribute property
of relational tables, Srikant & Agrawal, SIGMOD 1996). When mining an
AlertDataset, the join skips every pair whose last items come from one
such column: the skipped candidates all have support 0. A plain
Transaction list carries no schema, and every pair is joined.

`brute_force_mine` is an independent oracle: it enumerates the powerset
of every transaction and counts occurrences, and packs its own bitsets,
sharing no code path with the level-wise miner.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations, groupby, repeat
from math import inf
from operator import and_, itemgetter
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    BruteForceGuardError,
    EmptyDatasetError,
    PatternExplosionError,
)
from .model import AlertDataset, ColumnCodes, Item, Transaction

Itemset = tuple[Item, ...]
Minable = Union[AlertDataset, Sequence[Transaction]]

DEFAULT_PATTERN_CAP = 5_000_000
#: brute_force_mine refuses a transaction wider than this many items.
BRUTE_FORCE_MAX_WIDTH = 20
#: a frequent key held by at least 1/_SPARSE of the alerts is dense
_SPARSE = 64
#: a column of bytes with at most this many codes is counted one code at a
#: time with bytes.count; past about 40 codes Counter is the faster count
_COUNTED = 32
#: slot -> the byte table that reads b"1" at that slot and b"0" elsewhere
_DIGITS = tuple(b"0" * slot + b"1" + b"0" * (255 - slot) for slot in range(_SPARSE + 1))


def bits_of(tids: Sequence[int]) -> int:
    """Pack transaction ids, in any order, into a bitset.

    The bits are set in a bytearray and converted once: or-ing each tid
    into an int copies the whole int every time, which is quadratic.
    """
    if not tids:
        return 0
    if min(tids) < 0:
        raise ValueError(f"negative transaction id {min(tids)}")
    buffer = bytearray((max(tids) >> 3) + 1)
    for tid in tids:
        buffer[tid >> 3] |= 1 << (tid & 7)
    return int.from_bytes(buffer, "little")


def tids_of(bits: int) -> tuple[int, ...]:
    """Unpack a bitset into the sorted transaction-id tuple.

    The bits are read from one binary rendering, least significant bit
    first: clearing the lowest bit of the int instead copies the whole
    int once per set bit, which is quadratic.
    """
    digits = bin(bits)[:1:-1]
    out = []
    tid = digits.find("1")
    while tid >= 0:
        out.append(tid)
        tid = digits.find("1", tid + 1)
    return tuple(out)


@dataclass(frozen=True)
class MiningConfig:
    """Mining parameters.

    minisupport is either an absolute count (int >= 1) or a ratio in
    (0, 1] that converts to ceil(ratio * n): half of 4 transactions means
    2, never 1. max_patterns guards against candidate explosion on low
    thresholds; it is an int >= 1 (not a bool), or None to disable it.
    Building a config with a bad value raises ValueError.
    """

    minisupport: int | float | Fraction = 2
    max_patterns: int | None = DEFAULT_PATTERN_CAP

    def __post_init__(self) -> None:
        s = self.minisupport
        if isinstance(s, bool):
            raise ValueError("minisupport must be a count or a ratio")
        if isinstance(s, int):
            if s < 1:
                raise ValueError("absolute minisupport must be >= 1")
        elif not 0 < Fraction(str(s)) <= 1:
            raise ValueError("minisupport ratio must be in (0, 1]")
        cap = self.max_patterns
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 1):
            raise ValueError(f"max_patterns must be >= 1 or None, as an int (got {cap!r})")

    def minisupport_abs(self, n: int) -> int:
        if isinstance(self.minisupport, int):
            return self.minisupport
        ratio = Fraction(str(self.minisupport))  # through str, 0.2 is exactly 1/5
        return -((-n * ratio.numerator) // ratio.denominator)


@dataclass(frozen=True)
class FrequentPattern:
    """An itemset with its support, a view built when a PatternSet is
    read. item_bits holds its items' level-1 bitsets, in itemset order;
    the tidlist is their intersection, computed on every read."""

    itemset: Itemset
    item_bits: tuple[int, ...] = field(repr=False)
    support_count: int

    @property
    def tidlist(self) -> tuple[int, ...]:
        return tids_of(reduce(and_, self.item_bits))

    def __len__(self) -> int:
        return len(self.itemset)


@dataclass(frozen=True)
class PatternSet:
    """All frequent patterns mined from one dataset, canonically ordered
    by (itemset length, itemset), as columns: `itemsets` and `supports`,
    one entry per pattern, and `item_bits`, the level-1 bitset of each
    item they hold and of no other item. The constructor keeps its columns
    as given; `mine`, `at_least` and `brute_force_mine` fill them.
    Iteration, `patterns` and `get` build a FrequentPattern view per
    pattern read."""

    itemsets: tuple[Itemset, ...]
    supports: tuple[int, ...]
    item_bits: dict[Item, int] = field(repr=False, hash=False)
    n: int
    minisupport_abs: int

    def at_least(self, s_abs: int) -> PatternSet:
        """The set `mine` gives at s_abs, sharing this set's itemset tuples and
        level-1 bitsets: the set itself at its own threshold. Below it, the
        patterns the set lacks are unknown, and it raises ValueError."""
        if s_abs < self.minisupport_abs:
            raise ValueError(f"minisupport {s_abs} is below the set's own {self.minisupport_abs}")
        if s_abs == self.minisupport_abs:
            return self
        keep = [k for k, support in enumerate(self.supports) if support >= s_abs]
        itemsets = tuple(map(self.itemsets.__getitem__, keep))
        supports = tuple(map(self.supports.__getitem__, keep))
        item_bits = {item: self.item_bits[item] for itemset in itemsets for item in itemset}
        return PatternSet(itemsets, supports, item_bits, self.n, s_abs)

    def __len__(self) -> int:
        return len(self.itemsets)

    count = property(__len__)

    def _view(self, k: int) -> FrequentPattern:
        itemset = self.itemsets[k]
        bits = tuple(map(self.item_bits.__getitem__, itemset))
        return FrequentPattern(itemset, bits, self.supports[k])

    def __iter__(self) -> Iterator[FrequentPattern]:
        return map(self._view, range(len(self.itemsets)))

    @property
    def patterns(self) -> tuple[FrequentPattern, ...]:
        return tuple(self)

    @cached_property
    def _by_itemset(self) -> dict[frozenset[Item], int]:
        return {frozenset(itemset): k for k, itemset in enumerate(self.itemsets)}

    def get(self, itemset: Iterable[Item]) -> FrequentPattern | None:
        k = self._by_itemset.get(frozenset(itemset))
        return None if k is None else self._view(k)

    def as_dict(self) -> dict[Itemset, tuple[int, ...]]:
        """itemset -> tidlist mapping, mostly for assertions and debugging."""
        return {p.itemset: p.tidlist for p in self}


def _as_transactions(data: Minable) -> Sequence[Transaction]:
    if isinstance(data, AlertDataset):
        return data.transactions()  # its tids are positions by construction
    txns = list(data)
    for position, t in enumerate(txns):
        if t.tid != position:
            raise ValueError(
                f"transaction at position {position} carries tid {t.tid}; "
                "tids must be 0..n-1 in order"
            )
    return txns


def build_candidates_1(data: Minable, minisupport_abs: int = 1) -> list[tuple[Itemset, int, int]]:
    """Every item occurring in at least minisupport_abs transactions, in
    item order, as ((item,), bitset, count) triples: the entry shape of
    every level of mine.

    Items are counted first and bitsets packed for the frequent ones only.
    An AlertDataset is counted from its column codes, so no per-alert
    transaction is built.
    """
    if minisupport_abs < 1:
        raise ValueError("minisupport must be >= 1")
    if isinstance(data, AlertDataset):
        return _candidates_from_codes(data.columns(), minisupport_abs)
    txns = _as_transactions(data)
    counts = Counter(chain.from_iterable(t.items for t in txns))
    frequent: dict[Item, list[int]] = {
        item: [] for item, count in counts.items() if count >= minisupport_abs
    }
    for t in txns:
        for item in t.items:
            tids = frequent.get(item)
            if tids is not None:
                tids.append(t.tid)
    return sorted(((item,), bits_of(tids), len(tids)) for item, tids in frequent.items())


def _candidates_from_codes(
    columns: Sequence[ColumnCodes], minisupport_abs: int
) -> list[tuple[Itemset, int, int]]:
    """build_candidates_1 over coded columns. A key's count sums the counts
    of the codes that yield it, and only the frequent keys become Items.
    A column of bytes with at most _COUNTED codes is counted with one
    C-level bytes.count pass per code, any other with one Counter pass.
    A key held by at least 1/_SPARSE of the alerts is dense: its bitset is
    read off a byte vector in C-level passes, so each dense key costs C
    passes over every alert. The rarer frequent keys of a column share one
    Python pass over its codes that fills their tid lists; that pass costs
    the same however many rare keys the column has."""
    out = []
    for column in columns:
        codes = column.codes
        n = len(codes)
        if type(codes) is bytes and len(column.values) <= _COUNTED:
            code_counts = dict(enumerate(map(codes.count, range(len(column.values)))))
        else:
            code_counts = Counter(codes)
        for keys in (column.keys, column.times):
            if keys is None:
                continue
            counts: dict[str, int] = {}
            for code, count in code_counts.items():
                key = keys[code]
                counts[key] = counts.get(key, 0) + count
            counts.pop(None, None)  # a null timestamp has no time item
            frequent = [key for key, count in counts.items() if count >= minisupport_abs]
            dense = {key: counts[key] for key in frequent if counts[key] * _SPARSE >= n}
            if dense:
                out += _dense_bits(column, keys, dense)
            if len(dense) < len(frequent):
                sparse = {key: [] for key in frequent if key not in dense}
                out += _sparse_bits(column, keys, sparse)
    out.sort()
    return out


def _dense_bits(
    column: ColumnCodes, keys: Sequence[str | None], dense: dict[str, int]
) -> list[tuple[Itemset, int, int]]:
    """Each dense key's level-1 triple, given the key's count. Every code
    maps to its key's byte slot, 1 up, or to 0, and the codes, last tid
    first, become one byte vector: a column of bytes is reversed and
    translated in C, a column of ints maps each code in Python. A key's
    bitset is the vector translated to b"1" at its slot and b"0"
    elsewhere, read as a base-2 int. Each dense key holds 1/_SPARSE of the
    alerts and an alert holds one key of `keys`, so there are at most
    _SPARSE slots."""
    slot_of = {key: slot for slot, key in enumerate(dense, 1)}
    slots = list(map(slot_of.get, keys, repeat(0)))
    if type(column.codes) is bytes:
        vector = column.codes[::-1].translate(bytes(slots).ljust(256, b"\0"))
    else:
        vector = bytes(map(slots.__getitem__, reversed(column.codes)))
    return [
        ((Item(column.field_index, key),), int(vector.translate(_DIGITS[slot]), 2), count)
        for slot, (key, count) in enumerate(dense.items(), 1)
    ]


def _sparse_bits(
    column: ColumnCodes, keys: Sequence[str | None], sparse: dict[str, list[int]]
) -> list[tuple[Itemset, int, int]]:
    """Each sparse key's level-1 triple, from tid lists that one pass over
    the codes fills."""
    feeds = {code: sparse[key] for code, key in enumerate(keys) if key in sparse}
    for tid, code in enumerate(column.codes):
        tids = feeds.get(code)
        if tids is not None:
            tids.append(tid)
    return [
        ((Item(column.field_index, key),), bits_of(tids), len(tids))
        for key, tids in sparse.items()
    ]


def prune(entries, minisupport_abs: int):
    """Keep the (itemset, bitset, count) entries whose count reaches the
    threshold, in the order given: the entries themselves, not copies. A
    candidate the join emptied for missing the threshold counts 0 and is
    dropped here."""
    if minisupport_abs < 1:
        raise ValueError("minisupport must be >= 1")
    return [entry for entry in entries if entry[2] >= minisupport_abs]


def candidate_gen(
    frequent_k: Sequence[tuple[Itemset, int, int]],
    exclusive: frozenset[int] = frozenset(),
    minisupport_abs: int = 1,
) -> list[tuple[Itemset, int, int]]:
    """Join frequent k-itemsets into (k+1)-candidates, in itemset order.

    frequent_k holds (itemset, bitset, count) entries in itemset order, as
    mine passes each level: prune keeps the order it is given. It is
    grouped as given, not sorted again. Two k-itemsets sharing their first
    k-1 items combine, unless their last items share a field index in
    `exclusive`: such columns give an alert one item each, so the pair's
    support is 0. Each candidate's bitset is the intersection of its
    generators'. When that equals a generator's bitset, the candidate
    holds that generator's int and count; two generators holding one int
    are not intersected at all. Any other intersection is counted as it is
    made. A candidate with fewer than minisupport_abs bits carries 0 and
    count 0, so a level never holds the bitset of a candidate prune drops.
    No other k-subset is looked up: support is anti-monotone, so prune
    drops a candidate with an infrequent one.
    """
    out: list[tuple[Itemset, int, int]] = []
    for _, group in groupby(frequent_k, key=_prefix):
        _join_group(list(group), exclusive, minisupport_abs, out)
    return out


def _prefix(entry) -> Itemset:
    return entry[0][:-1]


def _join_group(members, exclusive, minisupport_abs, out: list) -> None:
    # members are sorted by their last item, so the last items of one column
    # form a run; a member of an exclusive column joins from its run's end
    fields = [entry[0][-1][0] for entry in members]  # field indexes
    for i, (left_set, left_bits, left_count) in enumerate(members):
        start = i + 1
        if fields[i] in exclusive:
            start = bisect_right(fields, fields[i], start)
        for right_set, right_bits, right_count in members[start:]:
            # a tidset equal to a generator's takes that int and its count
            if right_bits is left_bits or (bits := left_bits & right_bits) == left_bits:
                bits, count = left_bits, left_count
            elif bits == right_bits:
                bits, count = right_bits, right_count
            else:
                count = bits.bit_count()
            if count < minisupport_abs:
                bits = count = 0
            out.append((left_set + (right_set[-1],), bits, count))


def mine(data: Minable, config: MiningConfig | None = None) -> PatternSet:
    """Mine every frequent itemset with its support.

    Levels proceed candidate-1 scan, prune, join, prune, ... until a level
    comes up empty, each level a list of (itemset, bitset, count) triples.
    Output is canonical.
    Each level is joined and pruned one prefix group at a time, and a
    group's bitsets are dropped once it is joined; a group of one itemset
    joins nothing and is skipped. A candidate whose tidset equals a
    generator's holds that generator's int, not a copy of it. Raises
    PatternExplosionError when the running pattern count exceeds the
    configured cap; from there to the end of that level the frequent
    candidates are only counted, not kept.
    """
    config = config or MiningConfig()
    exclusive: frozenset[int] = frozenset()
    if isinstance(data, AlertDataset):
        n = data.n
        exclusive = frozenset(data.schema.single_item_indexes())
    else:
        data = _as_transactions(data)
        n = len(data)
    if n == 0:
        raise EmptyDatasetError("cannot mine an empty dataset")
    s_abs = config.minisupport_abs(n)
    cap = config.max_patterns or inf  # None: no cap

    level = prune(build_candidates_1(data, s_abs), s_abs)
    singles = {itemset[0]: bits for itemset, bits, _ in level}
    found = len(level)  # the level's frequent count, which can outrun `level`
    kept: list[int] = []
    itemsets: list[Itemset] = []
    supports: list[int] = []
    while found:
        kept.append(found)
        if sum(kept) > cap:
            raise PatternExplosionError(cap, tuple(kept))
        # already canonical: level 1 comes sorted, and candidate_gen emits
        # each level in itemset order, which prune keeps
        itemsets += map(itemgetter(0), level)
        supports += map(itemgetter(2), level)
        groups = []
        for _, group in groupby(level, key=_prefix):
            group = list(group)
            if len(group) > 1:  # a group of one joins nothing
                groups.append(group)
        groups.reverse()  # popped in itemset order, each dropped once joined
        level, found = [], 0
        room = cap - sum(kept)
        while groups:
            survivors = prune(candidate_gen(groups.pop(), exclusive, s_abs), s_abs)
            found += len(survivors)
            if found <= room:  # past the cap, count only
                level += survivors
    return PatternSet(tuple(itemsets), tuple(supports), singles, n, s_abs)


def brute_force_mine(data: Minable, config: MiningConfig | None = None) -> PatternSet:
    """Exhaustive oracle: enumerate the powerset of each transaction and
    keep the itemsets occurring at least minisupport times, as the columns
    of a PatternSet.

    Exponential in transaction width, hence the guard; intended for tests
    and small spot checks only.
    """
    config = config or MiningConfig()
    txns = _as_transactions(data)
    n = len(txns)
    if n == 0:
        raise EmptyDatasetError("cannot mine an empty dataset")
    widest = max((len(t.items) for t in txns), default=0)
    if widest > BRUTE_FORCE_MAX_WIDTH:
        raise BruteForceGuardError(
            f"transaction width {widest} exceeds the brute-force guard "
            f"of {BRUTE_FORCE_MAX_WIDTH} items"
        )
    s_abs = config.minisupport_abs(n)
    # combinations of the sorted items give each itemset in canonical order
    occurrences: dict[Itemset, list[int]] = {}
    for t in txns:
        members = sorted(t.items)
        for size in range(1, len(members) + 1):
            for combo in combinations(members, size):
                occurrences.setdefault(combo, []).append(t.tid)
    frequent = [key for key, tids in occurrences.items() if len(tids) >= s_abs]
    frequent.sort(key=lambda key: (len(key), key))
    supports = tuple(len(occurrences[key]) for key in frequent)
    # a frequent itemset's items are frequent 1-itemsets, each tid listed once
    bits = {key[0]: sum(1 << tid for tid in occurrences[key]) for key in frequent if len(key) == 1}
    return PatternSet(tuple(frequent), supports, bits, n, s_abs)
