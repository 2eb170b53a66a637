import gc
import io
import random
from math import fsum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alertfp import scorer as scorer_module
from alertfp import store as store_module
from alertfp import textio
from alertfp.errors import AlertFpError, EmptyPatternSetError, ModelFormatError
from alertfp.evaluate import SyntheticSpec, gen_synthetic, sweep
from alertfp.ingest import parse_log, write_log
from alertfp.miner import MiningConfig, PatternSet, mine
from alertfp.model import (
    Alert,
    AlertDataset,
    AttributeSchema,
    FieldKind,
    Item,
    SchemaField,
    Transaction,
)
from alertfp.scorer import (
    ConditionalScorer,
    PatternScorer,
    ScoreConfig,
    ScoredAlert,
    fpof,
    rank,
    rank_with_scorer,
    read_ranked,
    simple_fpof,
    top_candidates,
    write_ranked,
    _code_keys,
)
from alertfp.store import ClassifierModel, score_new

from conftest import basket, pattern_set, random_baskets, random_schema_dataset

HALF = MiningConfig(minisupport=0.5)

#: Items the property test draws its baskets from, and items no basket
#: holds, so no pattern contains them.
KNOWN_ITEMS = [Item(field, f"v{value}") for field in range(3) for value in range(3)]
UNSEEN_ITEMS = [Item(0, "unseen"), Item(5, "v0")]
#: A pool wide enough for keys of more than 20 frequent items.
WIDE_ITEMS = [Item(field, f"w{value}") for field in range(4) for value in range(8)]
#: Both scoring routes: the trie walk, and conditional decomposition.
ROUTES = (PatternScorer, ConditionalScorer)


@pytest.fixture
def basket_fps(baskets4):
    return mine(baskets4, HALF)


class TestSimpleFpof:
    def test_alert3_contains_every_pattern(self, baskets4, basket_fps):
        assert simple_fpof(baskets4[2], basket_fps) == 9

    def test_disjoint_transaction_scores_zero(self, basket_fps):
        stranger = basket(0, "x y z")
        assert simple_fpof(stranger, basket_fps) == 0

    def test_sample_counts_under_complete_mining(self, sample_dataset):
        fps = mine(sample_dataset, MiningConfig(minisupport=2))
        scores = [simple_fpof(t, fps) for t in sample_dataset.transactions()]
        assert scores == [255, 319, 127]

    def test_bounded_by_pattern_count(self, baskets4, basket_fps):
        for t in baskets4:
            assert 0 <= simple_fpof(t, basket_fps) <= basket_fps.count


class TestFpof:
    def test_alert1_value(self, baskets4, basket_fps):
        # contains {1}, {3}, {1,3}: (0.5 + 0.75 + 0.5) / 9
        assert fpof(baskets4[0], basket_fps) == pytest.approx(1.75 / 9)

    def test_alert4_value(self, baskets4, basket_fps):
        # contains {2}, {5}, {2,5}: three ratios of 0.75
        assert fpof(baskets4[3], basket_fps) == pytest.approx(0.25)

    def test_no_contained_pattern_scores_zero(self, basket_fps):
        assert fpof(basket(0, "q"), basket_fps) == 0.0

    def test_empty_pattern_set_is_an_error(self, baskets4):
        empty = mine(baskets4, MiningConfig(minisupport=4))
        assert empty.count == 0
        with pytest.raises(EmptyPatternSetError):
            fpof(baskets4[0], empty)


class TestRank:
    def test_sample_simple_order(self, sample_dataset):
        fps = mine(sample_dataset, MiningConfig(minisupport=2))
        ranked = rank(sample_dataset, fps, ScoreConfig(metric="simple"))
        assert [sa.tid for sa in ranked] == [2, 0, 1]
        assert [sa.rank for sa in ranked] == [1, 2, 3]

    def test_simple_order_with_tid_tiebreak(self, baskets4, basket_fps):
        ranked = rank(baskets4, basket_fps, ScoreConfig(metric="simple"))
        assert [sa.tid for sa in ranked] == [0, 3, 1, 2]
        assert [sa.simple_fpof for sa in ranked] == [3, 3, 7, 9]

    def test_fpof_order_breaks_the_tie(self, baskets4, basket_fps):
        ranked = rank(baskets4, basket_fps, ScoreConfig(metric="fpof"))
        assert [sa.tid for sa in ranked] == [0, 3, 1, 2]
        assert ranked[0].fpof == pytest.approx(1.75 / 9)
        assert ranked[1].fpof == pytest.approx(0.25)
        assert ranked[2].fpof == pytest.approx(0.5)
        assert ranked[3].fpof == pytest.approx(5.5 / 9)

    def test_both_scores_always_populated(self, baskets4, basket_fps):
        for sa in rank(baskets4, basket_fps, ScoreConfig(metric="simple")):
            assert sa.fpof > 0
            assert sa.simple_fpof > 0

    def test_ranks_are_a_permutation(self, baskets4, basket_fps):
        ranked = rank(baskets4, basket_fps)
        assert sorted(sa.rank for sa in ranked) == [1, 2, 3, 4]
        assert sorted(sa.tid for sa in ranked) == [0, 1, 2, 3]

    def test_empty_pattern_set_propagates(self, baskets4):
        empty = mine(baskets4, MiningConfig(minisupport=4))
        with pytest.raises(EmptyPatternSetError):
            rank(baskets4, empty)


@pytest.fixture
def collector_on():
    """The cyclic collector on, as each test here starts, and on again
    after it however the test ends."""
    assert gc.isenabled()
    yield
    gc.enable()


def record_collector(monkeypatch, module, name):
    """Wrap module.name so each call appends whether the collector is on."""
    seen = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return seen


@pytest.mark.usefixtures("collector_on")
class TestCollectorPause:
    def test_rank_builds_and_ranks_with_the_collector_paused(self, monkeypatch, sample_dataset):
        fps = mine(sample_dataset, MiningConfig(minisupport=2))
        built = record_collector(monkeypatch, ConditionalScorer, "_build")
        ranked_with = record_collector(monkeypatch, scorer_module, "rank_with_scorer")
        assert [sa.tid for sa in rank(sample_dataset, fps)] == [2, 0, 1]
        assert built == ranked_with == [False]
        assert gc.isenabled()

    def test_a_failed_rank_turns_the_collector_back_on(self):
        low, high = Item(0, "a"), Item(1, "b")
        txns = [Transaction(0, frozenset({low, high}))]
        fps = PatternSet(((high, low),), (1,), {high: 1, low: 1}, 1, 1)  # not ascending
        with pytest.raises(ModelFormatError, match="not strictly ascending"):
            rank(txns, fps)
        assert gc.isenabled()

    def test_a_collector_that_was_off_stays_off(self, baskets4, basket_fps):
        gc.disable()
        ranked = rank(baskets4, basket_fps)
        assert not gc.isenabled()
        gc.enable()
        assert ranked == rank(baskets4, basket_fps)

    def test_score_new_leaves_the_collector_as_the_caller_left_it(
        self, monkeypatch, sample_dataset
    ):
        fps = mine(sample_dataset, MiningConfig(minisupport=2))
        model = ClassifierModel.from_pattern_set(fps, sample_dataset.schema, built_at="t")
        seen = record_collector(monkeypatch, store_module, "rank_with_scorer")
        expected = score_new(sample_dataset, model)
        gc.disable()
        assert score_new(sample_dataset, model) == expected
        assert not gc.isenabled()
        assert seen == [True, False]


class TestTopCandidates:
    def test_fractional_percentage_rounds_up(self):
        ranked = rank_of_size(28670)
        assert len(top_candidates(ranked, 0.1)) == 29

    def test_hundred_percent_keeps_everything(self, baskets4, basket_fps):
        ranked = rank(baskets4, basket_fps)
        assert top_candidates(ranked, 100) == [sa.tid for sa in ranked]

    def test_quarter_of_four_is_one(self, baskets4, basket_fps):
        ranked = rank(baskets4, basket_fps)
        assert top_candidates(ranked, 25) == [0]

    def test_exact_integer_product_not_inflated(self):
        # 10% of 29000 is exactly 2900; float noise must not make it 2901
        ranked = rank_of_size(29000)
        assert len(top_candidates(ranked, 10)) == 2900

    def test_empty_ranking_rejected(self):
        with pytest.raises(AlertFpError):
            top_candidates([], 10)

    def test_bad_percentage_rejected(self, baskets4, basket_fps):
        ranked = rank(baskets4, basket_fps)
        with pytest.raises(ValueError):
            top_candidates(ranked, 0)


def rank_of_size(n):
    from alertfp.scorer import ScoredAlert

    return [ScoredAlert(tid, 1, 0.5, tid + 1) for tid in range(n)]


class TestScorerProperties:
    def test_bounds_and_zero_equivalence(self):
        rng = random.Random(2024)
        for _ in range(30):
            txns = random_baskets(rng)
            fps = mine(txns, MiningConfig(minisupport=rng.randint(1, len(txns))))
            if fps.count == 0:
                continue
            for t in txns:
                simple = simple_fpof(t, fps)
                full = fpof(t, fps)
                assert 0 <= simple <= fps.count
                assert 0.0 <= full <= 1.0
                assert (simple == 0) == (full == 0.0)

    def test_containment_monotonicity(self):
        rng = random.Random(31337)
        for _ in range(15):
            txns = random_baskets(rng, max_transactions=15, max_distinct_items=8)
            fps = mine(txns, MiningConfig(minisupport=1))
            if fps.count == 0:
                continue
            contained = []
            for t in txns:
                hits = frozenset(
                    i for i, p in enumerate(fps) if frozenset(p.itemset) <= t.items
                )
                contained.append((hits, simple_fpof(t, fps), fpof(t, fps)))
            for hits_a, simple_a, full_a in contained:
                for hits_b, simple_b, full_b in contained:
                    if hits_a <= hits_b:
                        assert simple_a <= simple_b
                        assert full_a <= full_b

    def test_adding_a_contained_pattern_never_lowers_fpof(self, baskets4, basket_fps):
        # grow a transaction item by item; every step can only add containments
        items = sorted(basket(0, "2 3 5").items)
        previous = 0.0
        for size in range(1, len(items) + 1):
            t = Transaction(0, frozenset(items[:size]))
            current = fpof(t, basket_fps)
            assert current >= previous
            previous = current

    def test_shuffling_input_changes_only_tie_order(self):
        rng = random.Random(5)
        txns = random_baskets(rng, max_transactions=20)
        fps = mine(txns, MiningConfig(minisupport=1))
        if fps.count == 0:
            return
        ranked = rank(txns, fps)
        order = list(range(len(txns)))
        rng.shuffle(order)
        shuffled = [Transaction(new, txns[old].items) for new, old in enumerate(order)]
        reranked = rank(shuffled, fps)
        assert sorted(sa.simple_fpof for sa in ranked) == sorted(
            sa.simple_fpof for sa in reranked
        )
        assert [sa.simple_fpof for sa in ranked] == [sa.simple_fpof for sa in reranked]

    def test_scorer_agrees_with_direct_scan(self):
        rng = random.Random(8)
        txns = random_baskets(rng, max_transactions=20, max_distinct_items=10)
        fps = mine(txns, MiningConfig(minisupport=1))
        for route in ROUTES:
            scorer = route.from_pattern_set(fps)
            for t in txns:
                assert scorer.score(t.items) == scan_score(fps, t)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.frozensets(st.sampled_from(KNOWN_ITEMS), min_size=1, max_size=6),
            min_size=1,
            max_size=10,
        ),
        keep_share=st.floats(min_value=0.0, max_value=1.0),
        queries=st.lists(st.sets(st.sampled_from(KNOWN_ITEMS + UNSEEN_ITEMS)), max_size=6),
        rng=st.randoms(use_true_random=False),
    )
    def test_score_equals_brute_containment_hypothesis(self, rows, keep_share, queries, rng):
        # a random subset of a mined set, so patterns need not be downward closed
        txns = [Transaction(tid, items) for tid, items in enumerate(rows)]
        mined = mine(txns, MiningConfig(minisupport=1))
        kept = tuple(p for p in mined if rng.random() < keep_share)
        fps = pattern_set(kept, mined.n, mined.minisupport_abs)
        everything = set(KNOWN_ITEMS + UNSEEN_ITEMS)  # holds every frequent item
        for route in ROUTES:
            scorer = route.from_pattern_set(fps)
            for items in [set(UNSEEN_ITEMS), everything, *queries, *rows]:
                expected = scan_score(fps, Transaction(0, frozenset(items)))
                assert scorer.score(set(items)) == expected
                assert scorer.score(frozenset(items)) == expected

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.frozensets(st.sampled_from(WIDE_ITEMS), min_size=1, max_size=7),
            min_size=1,
            max_size=8,
        ),
        keep_share=st.floats(min_value=0.0, max_value=1.0),
        queries=st.lists(st.sets(st.sampled_from(WIDE_ITEMS), min_size=20), max_size=4),
        rng=st.randoms(use_true_random=False),
    )
    @example(
        rows=[frozenset(WIDE_ITEMS[start : start + 6]) for start in range(0, 30, 6)],
        keep_share=1.0,
        queries=[],
        rng=random.Random(0),
    )
    def test_wide_keys_equal_brute_containment_hypothesis(self, rows, keep_share, queries, rng):
        # up to 32 frequent items in one key, over patterns that need not be
        # downward closed
        txns = [Transaction(tid, items) for tid, items in enumerate(rows)]
        mined = mine(txns, MiningConfig(minisupport=1))
        kept = tuple(p for p in mined if rng.random() < keep_share)
        fps = pattern_set(kept, mined.n, mined.minisupport_abs)
        for route in ROUTES:
            scorer = route.from_pattern_set(fps)
            for items in [set(WIDE_ITEMS), *queries, *rows]:
                assert scorer.score(items) == scan_score(fps, Transaction(0, frozenset(items)))

    def test_all_pairs_over_25_items(self):
        items = [Item(0, f"w{k:02d}") for k in range(25)]
        n = 100
        patterns = [((a,), 50 + k) for k, a in enumerate(items)]
        patterns += [
            ((a, b), 1 + (7 * i + 3 * j) % 49)
            for i, a in enumerate(items)
            for j, b in enumerate(items)
            if i < j
        ]
        assert len(patterns) == 325
        dropped = items[12]
        rest = [(itemset, count) for itemset, count in patterns if dropped not in itemset]
        for route in ROUTES:
            scorer = route(patterns, n)
            assert scorer.score(items) == (325, fsum(count / n for _, count in patterns))
            assert scorer.score(items[:12] + items[13:]) == (
                300,
                fsum(count / n for _, count in rest),
            )

    def test_dataset_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="^dataset size must be >= 1$"):
            PatternScorer((), 0)

    def test_repeated_itemset_rejected(self):
        # would count twice as a pattern of its own
        a, b = Item(0, "a"), Item(1, "b")
        for route in ROUTES:
            with pytest.raises(ModelFormatError, match="^itemset 0=a repeats an earlier row$"):
                route([((a,), 2), ((a,), 2), ((b, a), 2)], 5)

    def test_empty_itemset_rejected(self):
        # contained in every transaction, so it would count for every alert
        a = Item(0, "a")
        for route in ROUTES:
            with pytest.raises(ModelFormatError, match="^empty itemset$"):
                route([((a,), 2), ((), 5)], 5)

    @pytest.mark.parametrize(
        "itemsets,rendered",
        [
            ([("b", "a")], "1=b,0=a"),
            ([("a", "a")], "0=a,0=a"),
            ([("a",), ("a", "b"), ("a", "b", "a")], "0=a,1=b,0=a"),
            ([("b", "a", "c")], "1=b,0=a,2=c"),
            # each route names the first faulty pattern in the order given
            ([("a",), ("b", "a"), ("a",), ()], "1=b,0=a"),
        ],
        ids=[
            "descending",
            "repeated-item",
            "past-an-existing-path",
            "descending-before-the-last",
            "before-a-repeat-and-an-empty-itemset",
        ],
    )
    def test_unordered_itemset_rejected(self, itemsets, rendered):
        by_name = {"a": Item(0, "a"), "b": Item(1, "b"), "c": Item(2, "c")}
        patterns = [(tuple(by_name[name] for name in names), 2) for names in itemsets]
        message = f"^items of itemset {rendered} are not strictly ascending$"
        for route in ROUTES:
            with pytest.raises(ModelFormatError, match=message):
                route(patterns, 5)


#: Items the hand-made pattern sets below draw from, over three columns.
POOL = [Item(field, f"p{value}") for field in range(3) for value in range(4)]


@st.composite
def pattern_pairs(draw):
    """(itemset, support_count) pairs that need not be downward closed,
    over n a power of two or one below it, with supports drawn from few
    values so that level-1 ties are common."""
    power = 2 ** draw(st.integers(min_value=0, max_value=40))
    n = max(1, power - draw(st.integers(min_value=0, max_value=1)))
    supports = st.sampled_from(sorted({1, max(1, n // 3), max(1, n // 2), n})) | st.integers(1, n)
    itemsets = draw(
        st.lists(st.frozensets(st.sampled_from(POOL), min_size=1, max_size=5), unique=True)
    )
    return [(tuple(sorted(itemset)), draw(supports)) for itemset in itemsets], n


class TestConditionalScorer:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=pattern_pairs(),
        queries=st.lists(st.sets(st.sampled_from(POOL + UNSEEN_ITEMS)), max_size=12),
    )
    @example(
        # three 1-itemsets tied at 3/4, so the order falls to Item
        pairs=(
            [((POOL[0],), 3), ((POOL[4],), 3), ((POOL[8],), 3), ((POOL[0], POOL[4]), 2),
             ((POOL[0], POOL[4], POOL[8]), 1), ((POOL[1], POOL[8]), 1)],
            4,
        ),
        queries=[set(POOL[:9]), {POOL[0], POOL[8]}, {POOL[1], POOL[8]}],
    )
    @example(
        # no 1-itemset at all: every item sorts last
        pairs=([((POOL[0], POOL[5]), 3), ((POOL[0], POOL[5], POOL[9]), 1)], 3),
        queries=[set(POOL)],
    )
    def test_equals_trie_walk_and_brute_scan_hypothesis(self, pairs, queries):
        patterns, n = pairs
        trie = PatternScorer(patterns, n)
        conditional = ConditionalScorer(patterns, n)
        assert conditional.count == trie.count == len(patterns)
        for items in [*queries, set(POOL), *queries[::-1]]:
            hits = [count / n for itemset, count in patterns if set(itemset) <= items]
            expected = (len(hits), fsum(hits))
            assert conditional.score(items) == trie.score(items) == expected

    @pytest.mark.parametrize("metric", ["simple", "fpof"])
    def test_rank_equals_the_trie_walk(self, metric):
        rng = random.Random(0xC0D)
        config = ScoreConfig(metric)
        for trial in range(40):
            if trial % 2:
                data = random_schema_dataset(rng)
                txns = data.transactions()
            else:
                data = txns = random_baskets(rng)
            mined = mine(data, MiningConfig(minisupport=rng.randint(1, len(txns))))
            # every other trial drops patterns, so the set need not be downward closed
            kept = tuple(p for p in mined if trial % 4 < 2 or rng.random() < 0.6)
            fps = pattern_set(kept, mined.n, mined.minisupport_abs)
            if fps.count == 0:
                continue
            by_walk = rank_with_scorer(txns, PatternScorer.from_pattern_set(fps), config)
            assert rank(data, fps, config) == by_walk

    @pytest.mark.parametrize("metric", ["simple", "fpof"])
    def test_rank_of_a_generated_log_equals_the_trie_walk(self, metric):
        # routine profiles give keys that share long prefixes, so the memo is hit
        ds, _ = gen_synthetic(SyntheticSpec(2000, 5, 7, 2))
        fps = mine(ds, MiningConfig(minisupport=20))
        config = ScoreConfig(metric)
        by_walk = rank_with_scorer(ds.transactions(), PatternScorer.from_pattern_set(fps), config)
        assert rank(ds, fps, config) == by_walk

    def test_support_ratio_that_is_not_exact_rejected(self):
        a = Item(0, "a")
        message = r"^support ratio .* is not a multiple of 2\*\*-54$"
        for route in ROUTES:
            assert route([((a,), 0.5)], 1).score({a}) == (1, 0.5)
            with pytest.raises(ValueError, match=message):
                route([((a,), 2.0**-60)], 1)

    def test_rank_builds_inside_the_constructor(self, monkeypatch, sample_dataset):
        # a tracer that times PatternScorer.__init__ books the whole build
        inside, seen = [], []
        init, build = PatternScorer.__init__, ConditionalScorer._build

        def timed_init(self, *args):
            inside.append(True)
            try:
                init(self, *args)
            finally:
                inside.pop()

        def watched_build(self, patterns):
            seen.append(bool(inside))
            build(self, patterns)

        monkeypatch.setattr(PatternScorer, "__init__", timed_init)
        monkeypatch.setattr(ConditionalScorer, "_build", watched_build)
        rank(sample_dataset, mine(sample_dataset, MiningConfig(minisupport=2)))
        assert seen == [True]

    def test_rank_builds_no_trie_of_the_whole_set(self, monkeypatch, sample_dataset):
        # each pattern is filed straight onto its conditional trie
        def refused(*args):
            raise AssertionError("rank put a pattern on the trie of the whole set")

        expected = [sa.tid for sa in rank(sample_dataset, mine(sample_dataset, HALF))]
        monkeypatch.setattr(PatternScorer, "_add", refused)
        monkeypatch.setattr(PatternScorer, "_add_child", refused)
        assert [sa.tid for sa in rank(sample_dataset, mine(sample_dataset, HALF))] == expected

    def test_the_root_stays_empty(self):
        # the conditional tries are the only trie the patterns are put on
        patterns = [((POOL[0],), 3), ((POOL[0], POOL[4]), 2), ((POOL[4], POOL[8]), 1)]
        scorer = ConditionalScorer(iter(patterns), 4)
        assert scorer._root == [None, {}]
        assert scorer.count == 3
        assert scorer.score(set(POOL)) == (3, 6 / 4)
        # the memo keeps one node per prefix of the key scored
        memo, depth = scorer._memo, 0
        while memo[2]:
            (memo,) = memo[2].values()
            depth += 1
        assert (depth, memo[0], memo[1] / scorer._scale) == (3, 3, 6 / 4)


#: a log with nulls, values that canonicalize alike, an identifier, and
#: timestamps that share a date or a time part
MIXED = AttributeSchema(
    (
        SchemaField("sig", FieldKind.CATEGORICAL),
        SchemaField("cid", FieldKind.IDENTIFIER),
        SchemaField("port", FieldKind.NUMERIC),
        SchemaField("ts", FieldKind.TIMESTAMP),
    )
)
SIGS = ["web", " web", "ssh", "null", ""]
PORTS = ["80", "080", "443", "1,000", "null", ""]
STAMPS = ["6/11/2010 8:57 AM", "6/11/2010 9:02 PM", "7/1/2010 8:57 AM", "null", ""]


def parsed_and_built(schema, rows):
    """The same rows as parse_log reads them from text, and as a dataset
    built from Alerts."""
    text = "".join("\t".join(row) + "\n" for row in rows)
    parsed = parse_log(io.StringIO(text), schema).dataset
    built = AlertDataset(schema, tuple(Alert(tid, tuple(row)) for tid, row in enumerate(rows)))
    return parsed, built


def assert_keys_decode_to_frequent_items(ds, fps):
    """Each alert's key, decoded, must be the frequent items of its
    reference transaction, each once; returns the keys."""
    frequent = PatternScorer.from_pattern_set(fps)._frequent
    keys, items_of = _code_keys(ds, frequent)
    transactions = ds.transactions()
    assert len(keys) == len(transactions)
    for key, t in zip(keys, transactions):
        items = items_of(key)
        assert len(items) == len(set(items))
        assert set(items) == frequent & t.items
    return keys


def assert_ranks_as_its_transactions(ds, fps):
    """rank keys a dataset off its column codes; each key must decode to
    its transaction's frequent items, and for both metrics the dataset
    must rank as its transactions do."""
    assert_keys_decode_to_frequent_items(ds, fps)
    for metric in ("simple", "fpof"):
        config = ScoreConfig(metric)
        ranked = rank(ds, fps, config)
        scorer = PatternScorer.from_pattern_set(fps)
        assert ranked == rank_with_scorer(list(ds.transactions()), scorer, config)


class TestCodesRoute:
    def test_sample_log_parsed_and_built(self, sample_dataset):
        built = AlertDataset(sample_dataset.schema, sample_dataset.alerts)
        for ds in (sample_dataset, built):
            assert_ranks_as_its_transactions(ds, mine(ds, MiningConfig(minisupport=2)))

    def test_generated_log_parsed(self):
        ds, _ = gen_synthetic(SyntheticSpec(600, 3, 4, 5))
        text = io.StringIO()
        write_log(text, ds)
        text.seek(0)
        parsed = parse_log(text, ds.schema).dataset
        assert_ranks_as_its_transactions(parsed, mine(parsed, MiningConfig(minisupport=12)))

    def test_a_null_timestamp_counts_its_lone_item_once(self):
        rows = [("web", "1", "80", "null"), ("web", "2", "80", ""), ("ssh", "3", "443", "NULL")]
        for ds in parsed_and_built(MIXED, rows):
            fps = mine(ds, MiningConfig(minisupport=3))
            assert [p.itemset for p in fps] == [(Item(3, "null"),)]
            assert [sa.simple_fpof for sa in rank(ds, fps)] == [1, 1, 1]
            assert_ranks_as_its_transactions(ds, mine(ds, MiningConfig(minisupport=1)))

    def test_a_column_without_a_frequent_item(self):
        # every sig differs, so at 2 the sig column adds no digit to a key
        rows = [(f"s{tid}", str(tid), "80", STAMPS[tid % 3]) for tid in range(6)]
        for ds in parsed_and_built(MIXED, rows):
            fps = mine(ds, MiningConfig(minisupport=2))
            assert not any(item.field_index == 0 for p in fps for item in p.itemset)
            assert_ranks_as_its_transactions(ds, fps)

    def test_no_alert_holds_a_frequent_item(self):
        trained, _ = parsed_and_built(MIXED, [("web", "1", "80", STAMPS[0])] * 2)
        rows = [("ssh", str(tid), "22", "9/9/2011 1:01 PM") for tid in range(3)]
        fps = mine(trained, MiningConfig(minisupport=2))
        for ds in parsed_and_built(MIXED, rows):
            ranked = rank(ds, fps)
            assert [(sa.tid, sa.simple_fpof, sa.fpof) for sa in ranked] == [
                (0, 0, 0.0), (1, 0, 0.0), (2, 0, 0.0)
            ]
            assert assert_keys_decode_to_frequent_items(ds, fps) == [(), (), ()]
            assert_ranks_as_its_transactions(ds, fps)

    @pytest.mark.parametrize("built", [False, True], ids=["parsed", "built"])
    def test_ranking_builds_no_transaction(self, built, sample_dataset):
        # a sweep mines and ranks, and score_new ranks, all off the column codes
        ds = AlertDataset(sample_dataset.schema, sample_dataset.alerts) if built else sample_dataset
        fps = mine(ds, MiningConfig(minisupport=2))
        model = ClassifierModel.from_pattern_set(fps, ds.schema)
        for metric in ("simple", "fpof"):
            rank(ds, fps, ScoreConfig(metric))
            score_new(ds, model, ScoreConfig(metric))
        sweep(ds, [2, 3], [0])
        assert "_transactions" not in ds.__dict__

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(SIGS),
                st.sampled_from(["1", "2"]),
                st.sampled_from(PORTS),
                st.sampled_from(STAMPS),
            ),
            min_size=1,
            max_size=12,
        ),
        minisupport=st.integers(1, 12),
        dropped=st.sets(st.integers(0, 40), max_size=10),
    )
    def test_equals_the_transactions_hypothesis(self, rows, minisupport, dropped):
        for ds in parsed_and_built(MIXED, rows):
            mined = mine(ds, MiningConfig(minisupport=min(minisupport, ds.n)))
            # dropped patterns leave a set that need not be downward closed
            kept = tuple(p for k, p in enumerate(mined) if k not in dropped)
            fps = pattern_set(kept, mined.n, mined.minisupport_abs)
            if fps.count:
                assert_ranks_as_its_transactions(ds, fps)


def scan_score(fps, t):
    hits = [p.support_count / fps.n for p in fps if frozenset(p.itemset) <= t.items]
    return (len(hits), fsum(hits))


class TestRankedFile:
    def test_write_and_read_round_trip(self, sample_dataset, tmp_path):
        fps = mine(sample_dataset, MiningConfig(minisupport=2))
        ranked = rank(sample_dataset, fps)
        path = tmp_path / "ranked.tsv"
        write_ranked(path, ranked, sample_dataset, "simple")
        loaded = read_ranked(path)
        assert loaded.n == 3
        assert loaded.metric == "simple"
        assert [r.tid for r in loaded.rows] == [2, 0, 1]
        assert [r.simple_fpof for r in loaded.rows] == [127, 255, 319]

    @pytest.mark.parametrize("block_size", [1, 7])
    def test_rows_that_straddle_blocks_read_as_one_block_does(
        self, block_size, sample_dataset, monkeypatch, tmp_path
    ):
        ranked = rank(sample_dataset, mine(sample_dataset, MiningConfig(minisupport=2)))
        path = tmp_path / "ranked.tsv"
        write_ranked(path, ranked, sample_dataset, "simple")
        whole = read_ranked(path)
        monkeypatch.setattr(textio, "BLOCK_SIZE", block_size)
        assert read_ranked(path) == whole
        path.write_text(path.read_text(encoding="utf-8")[:-1], encoding="utf-8")
        with pytest.raises(AlertFpError, match="^ranked file line 4: no newline at end of file$"):
            read_ranked(path)

    def test_header_and_row_format(self, sample_dataset):
        fps = mine(sample_dataset, MiningConfig(minisupport=2))
        ranked = rank(sample_dataset, fps)
        buffer = io.StringIO()
        write_ranked(buffer, ranked, sample_dataset, "simple")
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "# alertfp-ranked v1 n=3 metric=simple"
        first = lines[1].split("\t", 4)
        assert first[0] == "1" and first[1] == "2"
        assert first[3] == f"{ranked[0].fpof:.6f}"
        # original record keeps the canonical field values
        assert first[4].startswith("7\t3\t508\tWEB-MISC/robots.txt/access")

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "junk.tsv"
        path.write_text("not a ranked file\n", encoding="utf-8")
        with pytest.raises(AlertFpError):
            read_ranked(path)

    def test_reject_non_numeric_field(self):
        text = "# alertfp-ranked v1 n=1 metric=simple\nx\t0\t1\t0.5\tweb\n"
        with pytest.raises(AlertFpError, match="line 2: malformed row"):
            read_ranked(io.StringIO(text))

    @pytest.mark.parametrize(
        "header, row, message",
        [
            ("n=0_1 metric=simple", "1\t0\t1\t0.5\tweb", "malformed ranked-file header"),
            ("n=+1 metric=simple", "1\t0\t1\t0.5\tweb", "malformed ranked-file header"),
            ("n=1", "1\t0\t1\t0.5\tweb", "malformed ranked-file header"),
            ("metric=simple", "1\t0\t1\t0.5\tweb", "malformed ranked-file header"),
            ("n=1 metric=simple", "1\t 1\t1\t0.5\tweb", "line 2: malformed row"),
            ("n=1 metric=simple", "1\t0\t+0\t0.5\tweb", "line 2: malformed row"),
            ("n=1 metric=simple", "\u0663\t0\t1\t0.5\tweb", "line 2: malformed row"),
            ("n=1 metric=simple", "1\t0\t1\t0.5", "line 2: malformed row"),
        ],
        ids=[
            "n-underscore",
            "n-plus-sign",
            "no-metric",
            "no-n",
            "tid-space",
            "simple-plus-sign",
            "rank-arabic-indic-digit",
            "no-original-column",
        ],
    )
    def test_reject_what_write_ranked_never_writes(self, header, row, message):
        text = f"# alertfp-ranked v1 {header}\n{row}\n"
        with pytest.raises(AlertFpError, match=message):
            read_ranked(io.StringIO(text))


    @pytest.mark.parametrize(
        "header, rows, line_number",
        [
            ("v10 n=1 metric=simple", ["1\t0\t1\t0.500000\tweb"], 1),
            ("v1 n=1 metric=weird", ["1\t0\t1\t0.500000\tweb"], 1),
            ("v1 n=0 metric=simple", [], 1),
            ("v1 n=" + "9" * 4400 + " metric=simple", [], 1),  # int() refuses over 4,300 digits
            ("v1 n=1 metric=fpof", ["1\t0\t1\tnan\tweb"], 2),
            ("v1 n=1 metric=fpof", ["1\t0\t1\tinf\tweb"], 2),
            ("v1 n=1 metric=fpof", ["1\t0\t1\t 0.5\tweb"], 2),
            ("v1 n=1 metric=fpof", ["1\t0\t1\t0.5_0\tweb"], 2),
            ("v1 n=1 metric=fpof", ["1\t0\t1\t0.5\tweb"], 2),
            ("v1 n=1 metric=fpof", ["1\t0\t1\t1.500000\tweb"], 2),
            ("v1 n=2 metric=simple", ["1\t0\t1\t0.500000\tweb", "7\t1\t1\t0.500000\tweb"], 3),
            ("v1 n=2 metric=simple", ["1\t0\t1\t0.500000\tweb", "2\t0\t1\t0.500000\tweb"], 3),
            ("v1 n=1 metric=simple", ["1\t1\t1\t0.500000\tweb"], 2),
            ("v1 n=2 metric=simple", ["1\t0\t1\t0.500000\tweb", "", "2\t1\t1\t0.500000\tweb"], 3),
            ("v1 n=1 metric=simple", ["1\t0\t-1\t0.500000\tweb"], 2),
            ("v1 n=1 metric=fpof", ["1\t0\t-1\t0.500000\tweb"], 2),
            ("v1 n=2 metric=simple", ["1\t0\t2\t0.500000\tweb", "2\t1\t1\t0.500000\tweb"], 3),
            ("v1 n=2 metric=simple", ["1\t1\t1\t0.500000\tweb", "2\t0\t1\t0.500000\tweb"], 3),
            ("v1 n=2 metric=fpof", ["1\t0\t1\t0.600000\tweb", "2\t1\t1\t0.500000\tweb"], 3),
        ],
        ids=[
            "magic-v10",
            "unknown-metric",
            "n-0",
            "n-4400-digits",
            "score-nan",
            "score-inf",
            "score-space",
            "score-underscore",
            "score-not-6-decimals",
            "score-above-1",
            "rank-not-position",
            "repeated-tid",
            "tid-past-n",
            "blank-line",
            "simple-negative",
            "simple-negative-under-fpof",
            "simple-descending",
            "simple-tie-tids-descending",
            "fpof-descending",
        ],
    )
    def test_reject_off_layout_ranked_file(self, header, rows, line_number):
        text = "".join(f"{line}\n" for line in [f"# alertfp-ranked {header}", *rows])
        with pytest.raises(AlertFpError, match=f"^ranked file line {line_number}: malformed"):
            read_ranked(io.StringIO(text))


    @pytest.mark.parametrize(
        "metric, rows",
        [
            ("simple", ["1\t0\t1\t0.500000\tweb", "2\t1\t1\t0.500000\tweb"]),
            # rounding to "%.6f" may tie rows whose raw scores differ, in any tid order
            ("fpof", ["1\t1\t3\t0.500000\tweb", "2\t0\t1\t0.500000\tweb"]),
        ],
        ids=["simple-tie-tids-ascending", "fpof-tie-tids-descending"],
    )
    def test_accept_ties_in_metric_order(self, metric, rows):
        text = "".join(f"{line}\n" for line in [f"# alertfp-ranked v1 n=2 metric={metric}", *rows])
        assert [r.rank for r in read_ranked(io.StringIO(text)).rows] == [1, 2]

    @pytest.mark.parametrize("metric", ["simple", "fpof"])
    def test_rank_output_reads_back(self, metric):
        rng = random.Random(0x5EED)
        for _ in range(20):
            ds = random_schema_dataset(rng)
            fps = mine(ds, MiningConfig(minisupport=rng.randint(1, ds.n)))
            ranked = rank(ds, fps, ScoreConfig(metric))
            buffer = io.StringIO()
            write_ranked(buffer, ranked, ds, metric)
            loaded = read_ranked(io.StringIO(buffer.getvalue()))
            assert (loaded.n, loaded.metric) == (ds.n, metric)
            assert loaded.rows == tuple(
                ScoredAlert(sa.tid, sa.simple_fpof, float(f"{sa.fpof:.6f}"), sa.rank)
                for sa in ranked
            )

    def test_reject_missing_final_newline(self):
        text = "# alertfp-ranked v1 n=1 metric=simple\n1\t0\t1\t0.500000\tweb"
        with pytest.raises(AlertFpError, match="^ranked file line 2: no newline at end of file$"):
            read_ranked(io.StringIO(text))

    @pytest.mark.parametrize("as_stream", [False, True], ids=["path", "text-stream"])
    def test_carriage_return_in_a_record_reads_back(self, as_stream, tmp_path):
        schema = AttributeSchema(
            (SchemaField("sig", FieldKind.CATEGORICAL), SchemaField("note", FieldKind.CATEGORICAL))
        )
        ds = AlertDataset(schema, (Alert(0, ("a\rb", "c")), Alert(1, ("a\rb", "d"))))
        ranked = rank(ds, mine(ds, MiningConfig(minisupport=1)))
        path = tmp_path / "ranked.tsv"
        write_ranked(path, ranked, ds, "simple")
        with open(path, encoding="utf-8", newline="") as stream:
            assert read_ranked(stream if as_stream else path).rows == tuple(ranked)

    @pytest.mark.parametrize("value", ["2\n3", "\n", "2\r\n"], ids=["inner", "alone", "crlf"])
    def test_newline_in_a_record_raises_and_keeps_target(self, value, tmp_path):
        schema = AttributeSchema(
            (SchemaField("sig", FieldKind.CATEGORICAL), SchemaField("note", FieldKind.CATEGORICAL))
        )
        ds = AlertDataset(schema, (Alert(0, ("a", "1")), Alert(1, ("b", value))))
        ranked = rank(ds, mine(ds, MiningConfig(minisupport=1)))
        path = tmp_path / "ranked.tsv"
        path.write_text("old\n", encoding="utf-8")
        message = f"cannot write tid 1 field 'note': value {value!r} holds '\\n'"
        with pytest.raises(AlertFpError) as info:
            write_ranked(path, ranked, ds, "simple")
        assert str(info.value) == message
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [entry.name for entry in tmp_path.iterdir()] == ["ranked.tsv"]

    @pytest.mark.parametrize(
        "delimiter", ["#", "\n", "\r", "\udcff"], ids=["hash", "newline", "return", "surrogate"]
    )
    def test_unframing_delimiter_raises_and_keeps_target(self, delimiter, sample_dataset, tmp_path):
        ranked = rank(sample_dataset, mine(sample_dataset, MiningConfig(minisupport=2)))
        path = tmp_path / "ranked.tsv"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^delimiter must not be "):
            write_ranked(path, ranked, sample_dataset, "simple", delimiter)
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [entry.name for entry in tmp_path.iterdir()] == ["ranked.tsv"]


class TestScoreConfig:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            ScoreConfig(metric="weird")

    def test_top_p_bounds(self, baskets4, basket_fps):
        ranked = rank(baskets4, basket_fps)
        for bad in (0, 101, float("nan")):
            with pytest.raises(ValueError):
                top_candidates(ranked, bad)
