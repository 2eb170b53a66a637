import io
import random
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alertfp import miner
from alertfp.errors import (
    BruteForceGuardError,
    EmptyDatasetError,
    PatternExplosionError,
    SchemaError,
    ValueParseError,
)
from alertfp.evaluate import SyntheticSpec, gen_synthetic, sweep
from alertfp.ingest import parse_log
from alertfp.miner import (
    MiningConfig,
    PatternSet,
    bits_of,
    brute_force_mine,
    build_candidates_1,
    candidate_gen,
    mine,
    prune,
    tids_of,
)
from alertfp.model import (
    NULL_VALUE,
    Alert,
    AlertDataset,
    AttributeSchema,
    FieldKind,
    Item,
    SchemaField,
    Transaction,
)
from alertfp.scorer import PatternScorer, ScoreConfig, rank, rank_with_scorer, simple_fpof
from alertfp.store import ClassifierModel

from conftest import baskets, itemset, pattern_set, random_baskets, random_schema_dataset

HALF = MiningConfig(minisupport=0.5)


def level_from(pairs):
    """[(values, tids)] -> [(itemset, bitset, count)] for candidate_gen input."""
    return [(itemset(*values), bits_of(tids), len(tids)) for values, tids in pairs]


def traced_peak(fn, *args):
    """fn(*args), or the PatternExplosionError it raised, and the peak of
    the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        try:
            outcome = fn(*args)
        except PatternExplosionError as exc:
            outcome = exc
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def sample_times_ten(sample_dataset):
    """The three-alert sample repeated to 30 alerts: its bitsets are too
    wide for CPython's small-int cache, and its timestamp column gives a
    date item and a time item one field index."""
    alerts = enumerate(sample_dataset.alerts * 10)
    return AlertDataset(sample_dataset.schema, tuple(Alert(tid, a.values) for tid, a in alerts))


class TestBits:
    def test_round_trip(self):
        assert tids_of(bits_of([5, 1, 3])) == (1, 3, 5)

    def test_round_trip_wide_dense(self):
        tids = sorted(random.Random(11).sample(range(114_680), 60_000))
        assert tids_of(bits_of(tids)) == tuple(tids)
        assert tids_of(1 << 200_000 | 1) == (0, 200_000)

    def test_empty(self):
        assert bits_of([]) == 0
        assert tids_of(0) == ()

    def test_negative_tid_rejected(self):
        with pytest.raises(ValueError):
            bits_of([3, -1])


class TestMinisupport:
    def test_half_of_four_is_two(self):
        assert HALF.minisupport_abs(4) == 2

    def test_absolute_passthrough(self):
        assert MiningConfig(minisupport=3).minisupport_abs(10) == 3

    def test_ratio_ceiling_is_exact(self):
        # 20% of 55 is exactly 11; float rounding must not bump it to 12
        assert MiningConfig(minisupport=0.2).minisupport_abs(55) == 11

    def test_ratio_rounds_up(self):
        assert MiningConfig(minisupport=0.001).minisupport_abs(28670) == 29

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            MiningConfig(minisupport=0).minisupport_abs(4)
        with pytest.raises(ValueError):
            MiningConfig(minisupport=1.5).minisupport_abs(4)

    def test_bool_rejected(self):
        with pytest.raises(ValueError, match="^minisupport must be a count or a ratio$"):
            MiningConfig(minisupport=True)

    def test_only_the_threshold_and_the_cap_are_settable(self):
        with pytest.raises(TypeError):
            MiningConfig(max_pattern_len=2)

    @pytest.mark.parametrize("name", ["max_patterns"])
    @pytest.mark.parametrize("value", [2.5, 3.0, Fraction(3), True, False, "x", "3"])
    def test_cap_that_is_not_an_int_rejected(self, name, value):
        message = f"^{name} must be >= 1 or None, as an int \\(got {re.escape(repr(value))}\\)$"
        with pytest.raises(ValueError, match=message):
            MiningConfig(**{name: value})


class TestCandidates1(object):
    def test_distinct_items_with_full_tidlists(self, baskets4):
        c1 = {}
        for (item,), bits, count in build_candidates_1(baskets4):
            assert count == bits.bit_count()
            c1[item] = tids_of(bits)
        expected = {
            Item(0, "1"): (0, 2),
            Item(0, "2"): (1, 2, 3),
            Item(0, "3"): (0, 1, 2),
            Item(0, "4"): (0,),
            Item(0, "5"): (1, 2, 3),
        }
        assert c1 == expected

    def test_singleton_dataset(self):
        txns = [Transaction(0, frozenset({Item(0, "a")}))]
        assert build_candidates_1(txns) == [((Item(0, "a"),), bits_of([0]), 1)]

    def test_sample_support_two_and_totals(self, sample_dataset):
        c1 = build_candidates_1(sample_dataset)
        assert len(c1) == 21
        by_item = {item: tids_of(bits) for (item,), bits, _ in c1}
        all_three = (0, 1, 2)
        assert by_item[Item(0, "7")] == all_three
        assert by_item[Item(2, "508")] == all_three
        assert by_item[Item(4, "25")] == all_three
        assert by_item[Item(5, "2")] == all_three
        assert by_item[Item(9, "6")] == all_three
        assert by_item[Item(11, "80")] == all_three
        assert by_item[Item(3, "WEB-MISC/robots.txt/access")] == (1, 2)
        assert by_item[Item(6, "6/11/2010")] == (0, 1)
        assert by_item[Item(6, "8:57AM")] == (0, 1)
        assert sum(1 for _, _, count in c1 if count >= 2) == 9


class TestPrune:
    def test_drops_singleton_below_threshold(self, baskets4):
        f1 = prune(build_candidates_1(baskets4), 2)
        assert (Item(0, "4"),) not in {iset for iset, _, _ in f1}
        assert len(f1) == 4

    def test_minisupport_one_is_identity(self, baskets4):
        c1 = build_candidates_1(baskets4)
        assert prune(c1, 1) == c1

    def test_impossible_threshold_empties_level(self, baskets4):
        assert prune(build_candidates_1(baskets4), 5) == []

    def test_works_on_bitsets_too(self):
        level = level_from([(("a",), (0, 1)), (("b",), (2,))])
        assert prune(level, 2) == [level[0]]

    def test_keeps_the_entries_themselves(self):
        level = level_from([(("a",), (0, 1)), (("b",), (2,)), (("c",), (0, 1, 2))])
        kept = prune(level, 2)
        assert len(kept) == 2 and all(entry is original for entry, original in zip(kept, level[::2]))

    def test_threshold_below_one_rejected(self, baskets4):
        with pytest.raises(ValueError, match="^minisupport must be >= 1$"):
            prune(build_candidates_1(baskets4), 0)


class TestCandidateGen:
    def test_pairwise_join_intersects_tidlists(self, baskets4):
        f1 = prune(build_candidates_1(baskets4), 2)
        c2 = candidate_gen(f1)
        as_values = {
            tuple(i.value for i in iset): tids_of(bits) for iset, bits, _ in c2
        }
        assert as_values == {
            ("1", "2"): (2,),
            ("1", "3"): (0, 2),
            ("1", "5"): (2,),
            ("2", "3"): (1, 2),
            ("2", "5"): (1, 2, 3),
            ("3", "5"): (1, 2),
        }

    def test_empty_level_gives_empty_candidates(self):
        assert candidate_gen([]) == []

    def test_prefix_join_produces_single_triple(self):
        f2 = level_from(
            [
                (("1", "3"), (0, 2)),
                (("2", "3"), (1, 2)),
                (("2", "5"), (1, 2, 3)),
                (("3", "5"), (1, 2)),
            ]
        )
        c3 = candidate_gen(f2)
        assert len(c3) == 1
        iset, bits, count = c3[0]
        assert tuple(i.value for i in iset) == ("2", "3", "5")
        assert (tids_of(bits), count) == ((1, 2), 2)

    def test_a_candidate_below_the_threshold_carries_no_bitset(self, baskets4):
        f1 = prune(build_candidates_1(baskets4), 2)
        c2 = candidate_gen(f1, minisupport_abs=2)
        as_values = {tuple(i.value for i in iset): (tids_of(bits), n) for iset, bits, n in c2}
        assert as_values == {
            ("1", "2"): ((), 0),
            ("1", "3"): ((0, 2), 2),
            ("1", "5"): ((), 0),
            ("2", "3"): ((1, 2), 2),
            ("2", "5"): ((1, 2, 3), 3),
            ("3", "5"): ((1, 2), 2),
        }
        assert candidate_gen(f1, minisupport_abs=1) == candidate_gen(f1)

    @pytest.mark.parametrize("threshold", [1, 2, 3, 5, 10, 31])
    def test_the_threshold_empties_exactly_the_thin_candidates(
        self, threshold, baskets4, sample_times_ten
    ):
        single_item = frozenset(sample_times_ten.schema.single_item_indexes())
        for data, exclusive in [(baskets4, frozenset()), (sample_times_ten, single_item)]:
            level = build_candidates_1(data)
            while level:
                full = candidate_gen(level, exclusive)
                thin = candidate_gen(level, exclusive, threshold)
                assert thin == [
                    (iset, bits, n) if n >= threshold else (iset, 0, 0) for iset, bits, n in full
                ]
                assert all(n == bits.bit_count() for _, bits, n in full)
                level = prune(full, 1)


# three values of column 1, one of column 2, and a timestamp's date and time
# items under index 3
EXCLUSIVE_LEVEL = [
    ((Item(1, value),), bits_of(tids), len(tids))
    for value, tids in [("a", (0, 1)), ("b", (2,)), ("c", (3, 4))]
] + [
    ((Item(2, "x"),), bits_of((0, 2, 3)), 3),
    ((Item(3, "6/11/2010"),), bits_of((0, 1, 2)), 3),
    ((Item(3, "8:57AM"),), bits_of((0, 1)), 2),
]


class TestExclusiveJoin:
    def pairs(self, candidates):
        return [tuple(item.value for item in itemset) for itemset, _, _ in candidates]

    def test_joins_only_across_an_exclusive_column(self):
        c2 = candidate_gen(EXCLUSIVE_LEVEL[:4], frozenset({1, 2}))
        assert self.pairs(c2) == [("a", "x"), ("b", "x"), ("c", "x")]
        assert [(tids_of(bits), n) for _, bits, n in c2] == [((0,), 1), ((2,), 1), ((3,), 1)]

    def test_default_joins_every_pair(self):
        c2 = candidate_gen(EXCLUSIVE_LEVEL[:4])
        assert self.pairs(c2) == [
            ("a", "b"), ("a", "c"), ("a", "x"), ("b", "c"), ("b", "x"), ("c", "x")
        ]
        assert c2 == [
            (left + right, left_bits & right_bits, (left_bits & right_bits).bit_count())
            for (left, left_bits, _), (right, right_bits, _) in combinations(EXCLUSIVE_LEVEL[:4], 2)
        ]

    def test_timestamp_date_and_time_still_join(self):
        c2 = candidate_gen(EXCLUSIVE_LEVEL, frozenset({1, 2}))
        assert ("6/11/2010", "8:57AM") in self.pairs(c2)
        assert len(c2) == 15 - 3  # every pair but those within column 1

    def test_deeper_levels_lose_nothing_the_subset_prune_keeps(self):
        c2 = candidate_gen(EXCLUSIVE_LEVEL, frozenset({1, 2}))
        c3 = candidate_gen(c2, frozenset({1, 2}))
        assert c3 == candidate_gen(c2)
        assert ("a", "x", "6/11/2010") in self.pairs(c3)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.sets(st.tuples(st.integers(0, 3), st.sampled_from("abc")), max_size=6),
            min_size=1,
            max_size=16,
        ),
        exclusive=st.frozensets(st.integers(0, 3)),
        threshold=st.integers(min_value=1, max_value=6),
    )
    def test_the_threshold_in_the_join_changes_nothing_prune_keeps(
        self, rows, exclusive, threshold
    ):
        txns = [
            Transaction(tid, frozenset(Item(field, value) for field, value in row))
            for tid, row in enumerate(rows)
        ]
        level = build_candidates_1(txns)
        while level:
            joined = candidate_gen(level, exclusive)
            thin = candidate_gen(level, exclusive, threshold)
            assert prune(thin, threshold) == prune(joined, threshold) == [
                entry for entry in joined if entry[1].bit_count() >= threshold
            ]
            level = prune(joined, 1)


def generator_pairs(level, exclusive=frozenset()):
    """The (left, right) entries of each candidate candidate_gen makes from
    level, in its order, found by trying every pair of a prefix group."""
    groups = groupby(level, key=lambda entry: entry[0][:-1])
    return [
        (left, right)
        for _, group in groups
        for left, right in combinations(list(group), 2)
        if not (left[0][-1][0] == right[0][-1][0] and left[0][-1][0] in exclusive)
    ]


def shortcut_of(left_bits, right_bits):
    """The join's case for a pair of generator bitsets."""
    if right_bits is left_bits:
        return "same object"
    if left_bits & right_bits == left_bits:
        return "left equal"
    if left_bits & right_bits == right_bits:
        return "right equal"
    return "counted"


def checked_join(level, exclusive, threshold):
    """candidate_gen(level, exclusive, threshold), checked against each
    candidate's generators: its bitset is their intersection, or 0 below
    the threshold; a kept one whose tidset equals a generator's holds that
    generator's int; and every count is its bitset's. Returns the join and
    the count of each case."""
    joined = candidate_gen(level, exclusive, threshold)
    pairs = generator_pairs(level, exclusive)
    assert [iset for iset, _, _ in joined] == [left[0] + right[0][-1:] for left, right in pairs]
    assert all(count == bits.bit_count() for _, bits, count in joined)
    cases = Counter()
    for (_, bits, _), (left, right) in zip(joined, pairs):
        case = shortcut_of(left[1], right[1])
        cases[case] += 1
        tidset = left[1] & right[1]
        if tidset.bit_count() < threshold:
            assert bits == 0
        elif case == "right equal":
            assert bits is right[1]
        elif case != "counted":
            assert bits is left[1]
        assert bits in (0, tidset)
    return joined, cases


def level_one(data, threshold):
    """Level 1 of mine, as prune's (itemset, bitset, count) triples."""
    return prune(build_candidates_1(data, threshold), threshold)


class TestSharedTidsets:
    # ten times over, a {0,1,2}, b {0,1,2}, c {0,1,2,3}, d {2,3}, e {0}:
    # ab and ac take a's int (left equal), so abc joins that int with
    # itself (same object); ae takes e's (right equal); ad is new (counted).
    # Forty transactions keep the bitsets out of CPython's small-int cache
    ROWS = ["a b c e", "a b c", "a b c d", "c d"] * 10

    def test_each_case_occurs_and_shares_its_generators_int(self):
        txns = baskets(self.ROWS)
        level = level_one(txns, 1)
        a_bits = level[0][1]
        seen = Counter()
        while level:
            joined, cases = checked_join(level, frozenset(), 1)
            seen += cases
            level = prune(joined, 1)
            if level and len(level[0][0]) == 3:
                assert level[0][0] == itemset("a", "b", "c") and level[0][1] is a_bits
        assert seen == {"same object": 1, "left equal": 3, "right equal": 12, "counted": 10}
        config = MiningConfig(minisupport=1)
        assert mine(txns, config) == brute_force_mine(txns, config)

    @settings(max_examples=60, deadline=None)
    @given(
        profiles=st.lists(
            st.frozensets(st.integers(0, 9), min_size=1, max_size=6), min_size=1, max_size=3
        ),
        rows=st.lists(
            st.tuples(st.integers(0, 2), st.frozensets(st.integers(0, 9), max_size=2)),
            min_size=1,
            max_size=20,
        ),
        threshold=st.integers(min_value=1, max_value=6),
    )
    def test_repeated_profiles_with_noise(self, profiles, rows, threshold):
        txns = [
            Transaction(tid, frozenset(Item(0, str(v)) for v in profiles[k % len(profiles)] | noise))
            for tid, (k, noise) in enumerate(rows)
        ]
        config = MiningConfig(minisupport=threshold)
        assert mine(txns, config) == brute_force_mine(txns, config)
        level = level_one(txns, threshold)
        while level:
            joined, _ = checked_join(level, frozenset(), threshold)
            level = prune(joined, threshold)


class TestMine:
    def test_half_support_yields_nine_patterns(self, baskets4):
        fps = mine(baskets4, HALF)
        assert fps.count == 9
        assert fps.n == 4
        assert fps.minisupport_abs == 2
        expected = {
            itemset("1"): (0, 2),
            itemset("2"): (1, 2, 3),
            itemset("3"): (0, 1, 2),
            itemset("5"): (1, 2, 3),
            itemset("1", "3"): (0, 2),
            itemset("2", "3"): (1, 2),
            itemset("2", "5"): (1, 2, 3),
            itemset("3", "5"): (1, 2),
            itemset("2", "3", "5"): (1, 2),
        }
        assert fps.as_dict() == expected

    def test_matches_oracle(self, baskets4):
        assert mine(baskets4, HALF) == brute_force_mine(baskets4, HALF)

    def test_sample_full_pattern_count(self, sample_dataset):
        fps = mine(sample_dataset, MiningConfig(minisupport=2))
        assert fps.count == 319

    def test_ratio_one_with_no_universal_item_is_empty(self):
        txns = baskets(["a", "b"])
        fps = mine(txns, MiningConfig(minisupport=1.0))
        assert fps.count == 0

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDatasetError):
            mine([], HALF)

    def test_explosion_guard_trips_with_level(self, baskets4):
        with pytest.raises(PatternExplosionError) as info:
            mine(baskets4, MiningConfig(minisupport=2, max_patterns=3))
        assert (info.value.level, info.value.kept) == (1, (4,))
        assert str(info.value) == (
            "frequent-pattern count exceeded the cap of 3 at itemset length 1 "
            "(4 patterns so far); raise minisupport or the --max-patterns cap"
        )

    def test_explosion_guard_carries_per_level_counts(self, baskets4):
        # 4 frequent items, then 4 pairs, then one triple
        with pytest.raises(PatternExplosionError) as info:
            mine(baskets4, MiningConfig(minisupport=2, max_patterns=8))
        error = info.value
        assert (error.count, error.cap, error.level, error.kept) == (9, 8, 3, (4, 4, 1))
        assert str(error) == (
            "frequent-pattern count exceeded the cap of 8 at itemset length 3 "
            "(9 patterns so far); raise minisupport or the --max-patterns cap"
        )

    def test_a_total_equal_to_the_cap_does_not_trip(self, baskets4):
        capped = mine(baskets4, MiningConfig(minisupport=2, max_patterns=9))
        assert capped == mine(baskets4, MiningConfig(minisupport=2, max_patterns=None))
        assert capped.count == 9

    def test_every_cap_trips_at_the_level_its_running_total_passes(self):
        rng = random.Random(31)
        for _ in range(25):
            txns = random_baskets(rng)
            s_abs = rng.randint(1, 3)
            full = mine(txns, MiningConfig(minisupport=s_abs, max_patterns=None))
            lengths = Counter(map(len, full.itemsets))
            counts = [lengths[k] for k in range(1, len(lengths) + 1)]
            caps = {1, full.count - 1, full.count, rng.randint(1, full.count + 1)}
            for cap in (cap for cap in caps if cap >= 1):
                config = MiningConfig(minisupport=s_abs, max_patterns=cap)
                if full.count <= cap:
                    assert mine(txns, config) == full
                    continue
                with pytest.raises(PatternExplosionError) as info:
                    mine(txns, config)
                level = next(k for k in range(1, len(counts) + 1) if sum(counts[:k]) > cap)
                assert info.value.kept == tuple(counts[:level])

    def test_a_tripped_guard_keeps_no_more_than_the_cap(self):
        # on 6,000 generated alerts at 10, levels 1 and 2 hold 124 + 1,939
        # patterns, so a cap of 2,100 trips 37 patterns into level 3's 8,494.
        # Kept whole, level 3 takes about 6 MiB of 750-byte bitsets, and its
        # candidates before the support test about twice that
        dataset, _ = gen_synthetic(SyntheticSpec(6000, 3, 5, 1))
        dataset.columns()
        error, peak = traced_peak(mine, dataset, MiningConfig(minisupport=10, max_patterns=2100))
        assert isinstance(error, PatternExplosionError)
        assert error.kept == (124, 1939, 8494)
        assert str(error) == (
            "frequent-pattern count exceeded the cap of 2100 at itemset length 3 "
            "(10557 patterns so far); raise minisupport or the --max-patterns cap"
        )
        assert peak < 6 * 2**20

    def test_a_level_of_dead_candidates_holds_no_bitsets(self):
        # 120 items, 6 to a transaction: each item is held by about 400 of the
        # 8,000 transactions and each pair by about 8, so at 100 all 7,140
        # pairs die. With their 1 KB bitsets they would take 7 MiB
        rng = random.Random(5)
        alphabet = [Item(0, f"v{k}") for k in range(120)]
        txns = [Transaction(tid, frozenset(rng.sample(alphabet, 6))) for tid in range(8000)]
        fps, peak = traced_peak(mine, txns, MiningConfig(minisupport=100))
        assert fps.count == 120
        assert peak < 3 * 2**20

    def test_itemsets_of_one_tidset_share_one_bitset(self):
        # 6,000 generated alerts from 5 routine profiles at 30: 24,579
        # patterns, most of whose tidsets equal a generator's. On Pythons
        # 3.10 to 3.12, a bitset per candidate peaked at 7.0 MiB; sharing
        # the generator's int, 3.1 MiB
        dataset, _ = gen_synthetic(SyntheticSpec(6000, 3, 5, 1))
        dataset.columns()
        fps, peak = traced_peak(mine, dataset, MiningConfig(minisupport=30))
        assert fps.count == 24579
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("name, value", [("max_patterns", 0), ("max_patterns", -1)])
    def test_limits_below_one_rejected_before_coding(self, name, value, sample_dataset, baskets4):
        fresh = AlertDataset(sample_dataset.schema, sample_dataset.alerts)
        for data in (fresh, baskets4):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                mine(data, MiningConfig(minisupport=2, **{name: value}))
        assert "_columns" not in fresh.__dict__

    def test_guard_off(self, baskets4):
        fps = mine(baskets4, MiningConfig(minisupport=2, max_patterns=None))
        assert fps.count == 9

    def test_support_ratio(self, baskets4):
        fps = mine(baskets4, HALF)
        assert fps.get(itemset("2")).support_count / fps.n == 0.75
        assert fps.get(itemset("1", "3")).support_count / fps.n == 0.5

    def test_canonical_order(self, baskets4):
        fps = mine(baskets4, HALF)
        keys = [(len(p.itemset), p.itemset) for p in fps]
        assert keys == sorted(keys)

    def test_support_recheck_by_direct_scan(self, baskets4, sample_times_ten):
        for data in (baskets4, sample_times_ten):
            fps = mine(data, HALF)
            txns = data.transactions() if isinstance(data, AlertDataset) else data
            for p in fps:
                want = frozenset(p.itemset)
                direct = [t.tid for t in txns if want <= t.items]
                assert list(p.tidlist) == direct
                assert p.support_count == len(direct)

    def test_patterns_share_the_level_one_bitsets(self, sample_times_ten):
        fps = mine(sample_times_ten, HALF)
        assert fps.get((Item(6, "6/11/2010"), Item(6, "8:57AM"))) is not None
        singles = {p.itemset[0]: p.item_bits[0] for p in fps if len(p) == 1}
        for p in fps:
            assert len(p.item_bits) == len(p.itemset)
            assert all(bits is singles[i] for i, bits in zip(p.itemset, p.item_bits))

    def test_non_positional_tids_rejected(self):
        txns = [Transaction(1, frozenset({Item(0, "a")}))]
        with pytest.raises(ValueError):
            mine(txns, HALF)


class TestBruteForce:
    def test_single_transaction_powerset(self):
        txns = baskets(["a b c"])
        fps = brute_force_mine(txns, MiningConfig(minisupport=1))
        assert fps.count == 7  # 2^3 - 1

    def test_sample_at_three_is_universal_powerset(self, sample_dataset):
        fps = brute_force_mine(sample_dataset, MiningConfig(minisupport=3))
        assert fps.count == 63
        universal = {
            Item(0, "7"), Item(2, "508"), Item(4, "25"),
            Item(5, "2"), Item(9, "6"), Item(11, "80"),
        }
        for p in fps:
            assert set(p.itemset) <= universal
            assert p.tidlist == (0, 1, 2)

    def test_guard_refuses_wide_transactions(self):
        wide = Transaction(0, frozenset(Item(0, str(v)) for v in range(25)))
        with pytest.raises(BruteForceGuardError):
            brute_force_mine([wide], MiningConfig(minisupport=1))

    def test_empty_input_raises(self):
        with pytest.raises(EmptyDatasetError, match="^cannot mine an empty dataset$"):
            brute_force_mine([])

    @pytest.mark.parametrize("seed", range(3))
    def test_packs_its_own_bitsets(self, monkeypatch, seed):
        # an oracle that packed with the miner's bits_of would check it against itself
        def refuse(tids):
            raise AssertionError("the oracle called bits_of")

        config = MiningConfig(minisupport=2)
        for data in (random_baskets(random.Random(seed)), random_schema_dataset(random.Random(seed))):
            mined = mine(data, config)
            with monkeypatch.context() as patch:
                patch.setattr(miner, "bits_of", refuse)
                assert brute_force_mine(data, config) == mined


class TestMinerProperties:
    def test_oracle_equivalence_seeded_corpus(self):
        rng = random.Random(0xA1E47)
        for _ in range(40):
            txns = random_baskets(rng)
            config = MiningConfig(minisupport=rng.randint(1, len(txns)))
            assert mine(txns, config) == brute_force_mine(txns, config)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=6),
            min_size=1,
            max_size=12,
        ),
        threshold=st.integers(min_value=1, max_value=12),
    )
    def test_oracle_equivalence_hypothesis(self, rows, threshold):
        txns = [
            Transaction(tid, frozenset(Item(0, str(v)) for v in row))
            for tid, row in enumerate(rows)
        ]
        config = MiningConfig(minisupport=min(threshold, len(txns)))
        assert mine(txns, config) == brute_force_mine(txns, config)

    def test_tidlist_intersection_invariant(self):
        rng = random.Random(7)
        for _ in range(20):
            txns = random_baskets(rng)
            fps = mine(txns, MiningConfig(minisupport=rng.randint(1, len(txns))))
            singles = {p.itemset[0]: set(p.tidlist) for p in fps if len(p.itemset) == 1}
            for p in fps:
                expected = set(range(len(txns)))
                for item in p.itemset:
                    expected &= singles[item]
                assert set(p.tidlist) == expected

    def test_anti_monotonicity(self):
        rng = random.Random(21)
        for _ in range(20):
            txns = random_baskets(rng)
            fps = mine(txns, MiningConfig(minisupport=rng.randint(1, len(txns))))
            for p in fps:
                for drop in range(len(p.itemset)):
                    subset = p.itemset[:drop] + p.itemset[drop + 1 :]
                    if subset:
                        sub = fps.get(subset)
                        assert sub is not None, "downward closure violated"
                        assert sub.support_count >= p.support_count

    def test_monotone_in_minisupport(self, baskets4):
        previous = None
        for threshold in range(1, 6):
            fps = mine(baskets4, MiningConfig(minisupport=threshold))
            itemsets = set(fps.as_dict())
            if previous is not None:
                assert itemsets <= previous
            previous = itemsets

    def test_repeat_runs_identical(self):
        rng = random.Random(3)
        txns = random_baskets(rng, max_transactions=25)
        config = MiningConfig(minisupport=2)
        first = mine(txns, config)
        assert first == mine(txns, config)


class TestPatternSet:
    def test_lookup_and_support(self, baskets4):
        fps = mine(baskets4, HALF)
        assert fps.get(itemset("2", "5")).support_count == 3
        assert fps.get(itemset("1", "5")) is None
        assert fps.get(itemset("4")) is None

    def test_at_least_its_own_threshold_is_the_set_itself(self, baskets4):
        fps = mine(baskets4, HALF)
        assert fps.at_least(fps.minisupport_abs) is fps

    def test_at_least_a_lower_threshold_is_refused(self, baskets4):
        # the set mined at 2 lacks the patterns of support 1
        fps = mine(baskets4, MiningConfig(minisupport=2))
        assert mine(baskets4, MiningConfig(minisupport=1)).count > fps.count
        with pytest.raises(ValueError, match="^minisupport 1 is below the set's own 2$"):
            fps.at_least(1)


@pytest.fixture
def views_built(monkeypatch):
    """A list that grows by one itemset per FrequentPattern built."""
    built = []
    real = miner.FrequentPattern

    def counting(itemset, item_bits, support_count):
        built.append(itemset)
        return real(itemset, item_bits, support_count)

    monkeypatch.setattr(miner, "FrequentPattern", counting)
    return built


class TestPatternSetColumns:
    def test_pipeline_builds_no_pattern_view(self, views_built):
        dataset, attacks = gen_synthetic(SyntheticSpec(400, seed=3))
        txns = random_baskets(random.Random(5))
        for data, low in ((dataset, 4), (txns, 2)):
            fps = mine(data, MiningConfig(minisupport=low))
            for metric in ("simple", "fpof"):
                rank(data, fps, ScoreConfig(metric))
            sweep(data, [low, low + 3, 2 * low + 1], [0])
        rows = sweep(dataset, [4, 9, 20], attacks)
        fps = mine(dataset, MiningConfig(minisupport=4))
        model = ClassifierModel.from_pattern_set(fps, dataset.schema, built_at="t")
        assert all(row.error is None for row in rows) and model.pattern_count == fps.count
        two = MiningConfig(minisupport=2)
        for data in (txns, random_schema_dataset(random.Random(5))):
            assert brute_force_mine(data, two) == mine(data, two)
        assert views_built == []
        assert len(list(fps)) == len(views_built) == fps.count  # the wrapper does count

    def test_iteration_builds_one_view_per_pattern_read(self, views_built, sample_times_ten):
        fps = mine(sample_times_ten, HALF)
        first = next(iter(fps))
        assert views_built == [first.itemset] and first == fps.patterns[0]
        assert fps.get(first.itemset) == first

    @pytest.mark.parametrize("seed", range(8))
    def test_mined_set_equals_the_set_of_its_patterns(self, seed):
        for data in (random_baskets(random.Random(seed)), random_schema_dataset(random.Random(seed))):
            mined = mine(data, MiningConfig(minisupport=2))
            rebuilt = pattern_set(mined, mined.n, mined.minisupport_abs)
            assert rebuilt == mined and mined == rebuilt
            assert hash(rebuilt) == hash(mined) and repr(rebuilt) == repr(mined)
            assert (rebuilt.itemsets, rebuilt.supports) == (mined.itemsets, mined.supports)
            with pytest.raises(FrozenInstanceError):
                mined.supports = ()

    def test_one_changed_level_one_bitset_compares_unequal(self, sample_times_ten):
        mined = mine(sample_times_ten, HALF)
        item = mined.itemsets[0][0]
        changed_bits = mined.item_bits[item] ^ 1 << mined.n  # a bit past the last tid
        item_bits = {**mined.item_bits, item: changed_bits}
        changed = PatternSet(mined.itemsets, mined.supports, item_bits, mined.n, mined.minisupport_abs)
        assert changed.itemsets == mined.itemsets and changed.supports == mined.supports
        assert changed != mined and mined != changed
        assert changed.get((item,)).item_bits == (changed_bits,)

    def test_shared_scorer_slot_changes_neither_equality_nor_repr(self, baskets4):
        fps, twin = mine(baskets4, HALF), mine(baskets4, HALF)
        shown = repr(fps)
        assert simple_fpof(baskets4[2], fps) == 9  # "1 2 3 5" holds every pattern
        assert "_scorer" in vars(fps)
        assert fps == twin and hash(fps) == hash(twin) and repr(fps) == shown == repr(twin)


CODED_SCHEMA = AttributeSchema(
    (
        SchemaField("sig", FieldKind.CATEGORICAL),
        SchemaField("cid", FieldKind.IDENTIFIER),
        SchemaField("port", FieldKind.NUMERIC),
        SchemaField("ts", FieldKind.TIMESTAMP),
        SchemaField("note", FieldKind.IGNORE),
    )
)
# spellings that canonicalize alike, nulls, and timestamps sharing a date part
SIGS = ["web", " web", "ssh", "null", ""]
PORTS = ["80", "080", " 80 ", "8,0", "443", "null", ""]
STAMPS = [
    "6/11/2010 8:57 AM", "6/11/2010  8:57 am", "6/11/2010 9:02:33 PM", "7/1/2010 8:57AM",
    "null", " ",
]

coded_rows = st.tuples(
    st.sampled_from(SIGS),
    st.text(max_size=2),
    st.sampled_from(PORTS),
    st.sampled_from(STAMPS),
    st.text(max_size=2),
)
all_null_rows = st.builds(
    lambda cid, note: (NULL_VALUE, cid, "", NULL_VALUE, note),
    st.text(max_size=2),
    st.text(max_size=2),
)


class TestCodedMining:
    """Mining an AlertDataset counts its column codes, never builds the
    per-alert transactions and skips joins within a categorical or numeric
    column; it must agree with mining those transactions, which has no
    skip."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(coded_rows | all_null_rows, min_size=1, max_size=30), st.data())
    def test_three_routes_one_answer(self, rows, data):
        ds = AlertDataset(CODED_SCHEMA, tuple(Alert(i, row) for i, row in enumerate(rows)))
        s = data.draw(st.integers(1, len(rows)), label="minisupport")
        config = MiningConfig(minisupport=s)
        coded = mine(ds, config)
        c1 = build_candidates_1(ds, s)
        assert "_transactions" not in ds.__dict__
        txns = list(ds.transactions())
        assert coded == mine(txns, config) == brute_force_mine(ds, config)
        assert c1 == prune(build_candidates_1(txns), s)
        assert build_candidates_1(txns, s) == c1
        # a bytes column of at most 32 codes is counted by bytes.count
        assert type(ds.columns()[0].codes) is bytes
        assert all(count == bits.bit_count() for _, bits, count in c1)
        # level 1 equals an independent scan of the transactions
        holders = {}
        for t in txns:
            for item in t.items:
                holders.setdefault(item, []).append(t.tid)
        assert c1 == sorted(
            ((item,), bits_of(tids), len(tids)) for item, tids in holders.items() if len(tids) >= s
        )

        # the join skip fires whenever sig or port has two frequent values,
        # and everything it skips has support 0
        exclusive = frozenset(CODED_SCHEMA.single_item_indexes())
        assert exclusive == {0, 2}
        skipped = candidate_gen(c1, exclusive)
        joined = candidate_gen(c1)
        per_column = Counter(item.field_index for (item,), _, _ in c1)
        if any(per_column[index] >= 2 for index in exclusive):
            assert len(skipped) < len(joined)
        else:
            assert skipped == joined
        kept = set(skipped)
        assert kept <= set(joined)
        assert all(entry[1:] == (0, 0) for entry in joined if entry not in kept)

    # sig column shapes, [(count, how many keys have it)], with a minisupport
    SHAPES = {
        "one alert": ([(1, 1)], 1),
        "17 alerts, 5 codes": ([(5, 3), (1, 2)], 1),
        "64 dense keys, every slot": ([(3, 64)], 1),
        "255 sparse keys": ([(2, 255)], 2),
        "256 keys, one dense": ([(40, 1), (2, 255)], 2),
        "513 keys of 553 codes": ([(300, 2), (2, 511), (1, 40)], 2),
        "10 of 640 is dense, 9 is not": ([(10, 1), (9, 1), (1, 621)], 9),
    }

    @staticmethod
    def shaped_dataset(shape, seed=5):
        """A CODED_SCHEMA dataset whose sig column has the given key
        counts, in a seeded order. Its port column spells keys alike (80
        and 080) over about as many codes as alerts, and its timestamp
        column holds nulls."""
        rng = random.Random(seed)
        counts = [count for count, keys in shape for _ in range(keys)]
        sigs = [f"s{k}" for k, count in enumerate(counts) for _ in range(count)]
        rng.shuffle(sigs)
        wide = len(sigs) // 2 + 1
        rows = []
        for tid, sig in enumerate(sigs):
            port = "80" if rng.random() < 0.3 else str(rng.randrange(wide))
            if rng.random() < 0.5:
                port = "0" + port
            rows.append(Alert(tid, (sig, str(tid), port, rng.choice(STAMPS), "")))
        return AlertDataset(CODED_SCHEMA, tuple(rows))

    @staticmethod
    def scanned(ds, s):
        """Level 1 by an independent scan of the transactions' tids."""
        holders = {}
        for t in ds.transactions():
            for item in t.items:
                holders.setdefault(item, []).append(t.tid)
        return sorted(
            ((item,), sum(1 << tid for tid in tids), len(tids))
            for item, tids in holders.items()
            if len(tids) >= s
        )

    def assert_level_one(self, ds, s):
        c1 = build_candidates_1(ds, s)
        assert c1 == self.scanned(ds, s)
        txns = build_candidates_1(list(ds.transactions()), s)
        assert c1 == txns
        assert all(count == bits.bit_count() for _, bits, count in c1 + txns)
        return c1

    @pytest.mark.parametrize("name", SHAPES)
    def test_byte_vectors_match_a_tid_scan(self, name):
        shape, s = self.SHAPES[name]
        ds = self.shaped_dataset(shape)
        assert ds.n == sum(count * keys for count, keys in shape)
        c1 = self.assert_level_one(ds, s)
        frequent_sigs = sum(keys for count, keys in shape if count >= s)
        assert sum(1 for (item,), _, _ in c1 if item.field_index == 0) == frequent_sigs
        port = ds.columns()[1]
        if ds.n >= 640:  # a column of more than 256 codes, some spelled alike
            assert 256 < len(port.keys) > len(set(port.keys))

    def test_a_column_of_256_codes_all_frequent_keeps_bytes(self):
        # 4 dense sig keys and 252 sparse ones, every one frequent at 3;
        # a key's digit in a ranking key runs to 256, past a byte
        ds = self.shaped_dataset([(40, 4), (3, 252)])
        sig, port, ts = ds.columns()
        assert (type(sig.codes), type(port.codes), type(ts.codes)) == (bytes, tuple, bytes)
        assert len(sig.values) == 256 and len(port.values) > 256
        c1 = self.assert_level_one(ds, 3)
        counts = Counter(sig.codes)
        assert sum(1 for (item,), _, _ in c1 if item.field_index == 0) == 256
        assert sorted(Counter(counts.values()).items()) == [(3, 252), (40, 4)]
        assert 3 * 64 < ds.n <= 40 * 64  # so the 40s are dense and the 3s sparse
        config = MiningConfig(minisupport=3)
        fps = mine(ds, config)
        assert fps == brute_force_mine(ds, config)
        txns = list(ds.transactions())
        scorer = PatternScorer.from_pattern_set(fps)
        for metric in ("simple", "fpof"):
            assert rank(ds, fps, ScoreConfig(metric)) == rank_with_scorer(
                txns, scorer, ScoreConfig(metric)
            )

    @pytest.mark.parametrize("n", [1, 7, 9, 63, 64, 65, 130])
    def test_byte_vectors_at_odd_sizes(self, n):
        ds = self.shaped_dataset([(1, n)], seed=n)
        for s in (1, 2):
            self.assert_level_one(ds, s)

    def test_a_code_held_only_by_a_rejected_line(self):
        lines = ["web\t0\t80\t6/11/2010 8:57 AM\t", "ghost\t1\teighty\t6/11/2010 8:57 AM\t"]
        lines += [f"{sig}\t{tid}\t{port}\tnull\t" for tid, (sig, port) in enumerate(
            [("web", "080"), ("ssh", "22")] * 40, start=2
        )]
        result = parse_log(io.StringIO("\n".join(lines) + "\n"), CODED_SCHEMA)
        assert [r.line_number for r in result.rejects] == [2]
        ds = result.dataset
        sig = ds.columns()[0]
        assert "ghost" in sig.keys and sig.keys.index("ghost") not in sig.codes
        for s in (1, 2, 41):
            c1 = self.assert_level_one(ds, s)
            assert all(item != Item(0, "ghost") for (item,), _, _ in c1)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no digit limit"
    )
    def test_base_two_parse_is_exempt_from_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert int(b"1" * 200_000, 2) == int("1" * 200_000, 2) == (1 << 200_000) - 1
            shape, s = self.SHAPES["513 keys of 553 codes"]
            self.assert_level_one(self.shaped_dataset(shape), s)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_mine_never_itemizes_per_alert(self, sample_dataset, monkeypatch):
        expected = mine(list(sample_dataset.transactions()), HALF)
        fresh = AlertDataset(sample_dataset.schema, sample_dataset.alerts)

        def refuse(self):
            raise AssertionError("mine built per-alert transactions")

        monkeypatch.setattr(AlertDataset, "transactions", refuse)
        assert mine(fresh, HALF) == expected

    def test_threshold_below_one_rejected(self, sample_dataset, baskets4):
        for data in (sample_dataset, baskets4):
            with pytest.raises(ValueError):
                build_candidates_1(data, 0)

    def bad_dataset(self):
        schema = AttributeSchema(
            (
                SchemaField("sig", FieldKind.CATEGORICAL),
                SchemaField("ts", FieldKind.TIMESTAMP),
                SchemaField("port", FieldKind.NUMERIC),
            )
        )
        alerts = (
            Alert(0, ("web", "6/11/2010 8:57 AM", "80")),
            Alert(1, ("web", "6/11/2010 8:57 AM", "eighty")),
            Alert(2, ("ssh", "yesterday", "eighty")),
        )
        return AlertDataset(schema, alerts)

    def test_bad_value_raises_alike_on_every_route(self):
        ds = self.bad_dataset()
        routes = [lambda: mine(ds), lambda: build_candidates_1(ds, 1), ds.transactions]
        for _ in range(2):  # a failed build is not cached
            for route in routes:
                with pytest.raises(ValueParseError) as info:
                    route()
                assert (info.value.tid, info.value.field) == (1, "port")

    def test_wrong_width_raises_after_earlier_bad_values_only(self):
        ds = self.bad_dataset()
        short = Alert(2, ("ssh", "6/11/2010 8:57 AM"))
        with pytest.raises(ValueParseError) as info:
            mine(AlertDataset(ds.schema, ds.alerts[:2] + (short,)))
        assert info.value.tid == 1
        with pytest.raises(SchemaError, match="alert tid 1 has 2 values"):
            mine(AlertDataset(ds.schema, (ds.alerts[0], Alert(1, short.values))))
