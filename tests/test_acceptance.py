"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v`."""

import random
import time
from contextlib import contextmanager

import pytest

from alertfp.evaluate import SyntheticSpec, gen_synthetic, locate_attacks, reduction, sweep
from alertfp.miner import MiningConfig, brute_force_mine, mine
from alertfp.scorer import ScoreConfig, fpof, rank, simple_fpof
from alertfp.store import ClassifierModel, load_model, save_model, score_new

from conftest import baskets, itemset, random_baskets, random_schema_dataset, BASKET_ROWS

CORPUS_SEED = 0xF9A7
CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus():
    """The randomized dataset corpus shared by criteria 5 and 6:
    <=30 transactions, <=12 distinct items, minisupport anywhere in 1..n."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        txns = random_baskets(rng, max_transactions=30, max_distinct_items=12)
        out.append((txns, MiningConfig(minisupport=rng.randint(1, len(txns)))))
    return out


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _announce(number, title):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number}: FAIL  {title}")
            raise
        with capsys.disabled():
            print(f"criterion {number}: PASS  {title}")

    return _announce


def test_criterion_1_worked_example_reproduction(announce):
    with announce(1, "4-transaction example: 9 patterns, exact tidlists, oracle equality"):
        started = time.perf_counter()
        txns = baskets(BASKET_ROWS)
        config = MiningConfig(minisupport=0.5)
        fps = mine(txns, config)
        assert fps.count == 9
        by_itemset = fps.as_dict()
        # frequent 1-itemsets with their full alert lists
        assert by_itemset[itemset("1")] == (0, 2)
        assert by_itemset[itemset("2")] == (1, 2, 3)
        assert by_itemset[itemset("3")] == (0, 1, 2)
        assert by_itemset[itemset("5")] == (1, 2, 3)
        assert itemset("4") not in by_itemset
        oracle = brute_force_mine(txns, config)
        assert fps == oracle
        assert time.perf_counter() - started < 1.0


def test_criterion_2_case_study_ordering(announce, sample_dataset):
    with announce(2, "3-alert case study: ||FPS||=319, scores 127/255/319, order t3,t1,t2"):
        started = time.perf_counter()
        fps = mine(sample_dataset, MiningConfig(minisupport=2))
        assert fps.count == 319
        ranked = rank(sample_dataset, fps, ScoreConfig(metric="simple"))
        assert [sa.tid for sa in ranked] == [2, 0, 1]
        assert [sa.simple_fpof for sa in ranked] == [127, 255, 319]
        assert time.perf_counter() - started < 1.0


def test_criterion_3_reduction_arithmetic(announce):
    with announce(3, "reference reduction values reproduced within 0.001"):
        reference = {7: 99.975, 11: 99.962, 24: 99.916, 28: 99.902, 34: 99.882}
        for worst_rank, printed in reference.items():
            assert reduction(28670, worst_rank) == pytest.approx(printed, abs=1e-3)


def test_criterion_4_synthetic_end_to_end(announce):
    with announce(4, "28,670-record synthetic log: attacks in top 50, reduction >= 99.8"):
        started = time.perf_counter()
        spec = SyntheticSpec(n_records=28670, n_attack=5, routine_profiles=7, seed=2010)
        dataset, attack_tids = gen_synthetic(spec)
        config = MiningConfig(minisupport=150)
        fps = mine(dataset, config)
        assert config.max_patterns is None or fps.count <= config.max_patterns
        ranked = rank(dataset, fps, ScoreConfig(metric="simple"))
        ranks = locate_attacks(ranked, attack_tids)
        assert len(ranks) == 5
        assert max(ranks) <= 50
        assert reduction(dataset.n, max(ranks)) >= 99.8
        rows = sweep(dataset, [150, 1700, 2500, 6000], attack_tids, config)
        counts = [row.pattern_count for row in rows]
        assert all(count is not None for count in counts)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert time.perf_counter() - started < 60.0


def test_criterion_5_oracle_equivalence_suite(announce, corpus):
    with announce(5, f"{CORPUS_SIZE} random datasets: miner == oracle, invariants hold"):
        violations = 0
        for txns, config in corpus:
            fps = mine(txns, config)
            oracle = brute_force_mine(txns, config)
            if fps != oracle:
                violations += 1
                continue
            singles = {
                p.itemset[0]: set(p.tidlist) for p in fps if len(p.itemset) == 1
            }
            universe = set(range(len(txns)))
            for p in fps:
                meet = universe.copy()
                for item in p.itemset:
                    meet &= singles[item]
                if set(p.tidlist) != meet:
                    violations += 1
                for drop in range(len(p.itemset)):
                    subset = p.itemset[:drop] + p.itemset[drop + 1 :]
                    if not subset:
                        continue
                    sub = fps.get(subset)
                    if sub is None or sub.support_count < p.support_count:
                        violations += 1
        assert violations == 0


def test_criterion_6_scorer_property_suite(announce, corpus):
    with announce(6, "scorer bounds, monotonicity, zero-equivalence"):
        for txns, config in corpus:
            fps = mine(txns, config)
            if fps.count == 0:
                continue
            contained = []
            for t in txns:
                simple = simple_fpof(t, fps)
                full = fpof(t, fps)
                assert 0 <= simple <= fps.count
                assert 0.0 <= full <= 1.0
                assert (simple == 0) == (full == 0.0)
                hits = frozenset(
                    i for i, p in enumerate(fps) if frozenset(p.itemset) <= t.items
                )
                contained.append((hits, simple, full))
            for hits_a, simple_a, full_a in contained:
                for hits_b, simple_b, full_b in contained:
                    if hits_a <= hits_b:
                        assert simple_a <= simple_b
                        assert full_a <= full_b


def test_criterion_7_persistence_suite(announce, tmp_path):
    with announce(7, "20 random datasets: byte-identical round trip, score_new == rank"):
        rng = random.Random(CORPUS_SEED + 7)
        done = 0
        while done < 20:
            dataset = random_schema_dataset(rng)
            fps = mine(dataset, MiningConfig(minisupport=rng.randint(1, dataset.n)))
            if fps.count == 0:
                continue
            model = ClassifierModel.from_pattern_set(
                fps, dataset.schema, built_at="2010-06-22T00:00:00+00:00"
            )
            first = tmp_path / f"model_{done}_a.fps"
            second = tmp_path / f"model_{done}_b.fps"
            save_model(model, first)
            reloaded = load_model(first)
            save_model(reloaded, second)
            assert first.read_bytes() == second.read_bytes()
            assert score_new(dataset, model) == rank(dataset, fps)
            done += 1
