import io
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alertfp.errors import AlertFpError
from alertfp.evaluate import (
    SweepRow,
    SyntheticSpec,
    gen_synthetic,
    locate_attacks,
    reduction,
    resolve_attack_selectors,
    sweep,
    write_attack_ids,
    write_sweep_report,
)
from alertfp.ingest import parse_log
from alertfp.miner import MiningConfig, mine
from alertfp.model import (
    Alert,
    AlertDataset,
    AttributeSchema,
    FieldKind,
    Item,
    SchemaField,
    Transaction,
)
from alertfp.scorer import ScoredAlert, rank, simple_fpof

#: Items the sweep property test draws its baskets from.
SWEEP_ITEMS = [Item(field, f"v{value}") for field in range(2) for value in range(3)]


def ranking_with_attacks_at(ranks, n=10):
    """Synthesize a ranking where attack tid = 100+i sits at the given rank."""
    rows = []
    attack_tids = []
    attack_ranks = set(ranks)
    filler = 0
    for position in range(1, n + 1):
        if position in attack_ranks:
            tid = 100 + position
            attack_tids.append(tid)
        else:
            tid = filler
            filler += 1
        rows.append(ScoredAlert(tid, 1, 0.5, position))
    return rows, attack_tids


class TestLocateAttacks:
    def test_ranks_sorted_ascending(self):
        rows, attacks = ranking_with_attacks_at([3, 5, 7, 6, 2])
        assert locate_attacks(rows, attacks) == [2, 3, 5, 6, 7]

    def test_single_attack_first(self):
        rows, attacks = ranking_with_attacks_at([1])
        assert locate_attacks(rows, attacks) == [1]

    def test_unknown_tid_named_in_error(self):
        rows, attacks = ranking_with_attacks_at([1])
        with pytest.raises(AlertFpError) as info:
            locate_attacks(rows, attacks + [424242])
        assert "424242" in str(info.value)

    def test_no_attacks_rejected(self):
        rows, _ = ranking_with_attacks_at([1])
        with pytest.raises(AlertFpError):
            locate_attacks(rows, [])


class TestReduction:
    # reference pairs: worst attack rank -> expected printed reduction
    @pytest.mark.parametrize(
        "worst_rank,printed",
        [(7, 99.975), (11, 99.962), (24, 99.916), (28, 99.902), (34, 99.882)],
    )
    def test_matches_reference_values(self, worst_rank, printed):
        assert reduction(28670, worst_rank) == pytest.approx(printed, abs=1e-3)

    def test_attack_ranked_last_is_zero(self):
        assert reduction(5, 5) == 0.0

    def test_three_decimal_rendering(self):
        assert f"{reduction(28670, 7):.3f}" == "99.976"

    def test_out_of_range_rejected(self):
        with pytest.raises(AlertFpError):
            reduction(10, 0)
        with pytest.raises(AlertFpError):
            reduction(10, 11)

    def test_strictly_decreasing_in_rank(self):
        values = [reduction(100, k) for k in range(1, 101)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSweep:
    def test_pattern_counts_per_threshold(self, baskets4):
        # tid 0 is nominated as the "attack"; counts come from the oracle:
        # 9 patterns at threshold 2; {2},{3},{5},{2,5} survive at 3
        rows = sweep(baskets4, [2, 3], [0])
        assert [r.minisupport_abs for r in rows] == [2, 3]
        assert [r.pattern_count for r in rows] == [9, 4]
        assert all(r.error is None for r in rows)

    def test_impossible_threshold_carries_error(self, baskets4):
        rows = sweep(baskets4, [5], [0])
        assert rows[0].pattern_count is None
        assert "empty pattern set" in rows[0].error

    def test_failed_row_does_not_abort(self, baskets4):
        rows = sweep(baskets4, [5, 2], [0])
        assert rows[0].error is not None
        assert rows[1].error is None
        assert rows[1].pattern_count == 9

    @pytest.mark.parametrize("name, value", [("max_patterns", 0), ("max_patterns", -1)])
    def test_limits_below_one_rejected(self, name, value, baskets4):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            sweep(baskets4, [2, 3], [0], MiningConfig(**{name: value}))

    def test_empty_threshold_list_rejected(self, baskets4):
        with pytest.raises(AlertFpError):
            sweep(baskets4, [], [0])

    @pytest.mark.parametrize(
        "attacks, message",
        [([], "no attack tids given"), ([0, 4, -1], "unknown attack tid(s): [-1, 4]")],
        ids=["none", "outside"],
    )
    def test_bad_attack_tids_rejected_before_mining(self, attacks, message, baskets4, monkeypatch):
        def refuse(*args):
            raise AssertionError("mine reached")

        monkeypatch.setattr("alertfp.evaluate.mine", refuse)
        with pytest.raises(AlertFpError) as info:
            sweep(baskets4, [2, 3], attacks)
        assert str(info.value) == message

    def test_pattern_count_non_increasing(self):
        ds, attacks = gen_synthetic(
            SyntheticSpec(n_records=600, n_attack=3, routine_profiles=4, seed=11)
        )
        rows = sweep(ds, [10, 25, 60, 150], attacks)
        counts = [r.pattern_count for r in rows if r.pattern_count is not None]
        assert len(counts) == 4
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_report_format(self, baskets4, tmp_path):
        rows = sweep(baskets4, [2, 5], [0])
        path = tmp_path / "sweep.tsv"
        write_sweep_report(path, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[0].split("\t")
        assert fields[0] == "2" and fields[1] == "9"
        assert fields[3] == f"{rows[0].reduction_pct:.3f}"
        assert lines[1].startswith("5\t-\t-\t-\t#")

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.frozensets(st.sampled_from(SWEEP_ITEMS), min_size=1, max_size=5),
            min_size=1,
            max_size=12,
        ),
        values=st.lists(
            st.one_of(st.integers(1, 14), st.sampled_from([0.1, 0.25, 0.5, 1.0])),
            min_size=1,
            max_size=5,
        ),
        max_patterns=st.one_of(st.none(), st.integers(1, 40)),
        attack_picks=st.sets(st.integers(0, 11), min_size=1),
    )
    # 1 and 3 trip the cap, 4 is mined, 6 and 13 filter it; 13 exceeds n,
    # so its set is empty
    @example(
        rows=[frozenset(SWEEP_ITEMS[:4])] * 3
        + [frozenset(SWEEP_ITEMS[:2])] * 2
        + [frozenset(SWEEP_ITEMS[:1]), frozenset(SWEEP_ITEMS[4:])],
        values=[4, 1, 13, 6, 3, 4],
        max_patterns=8,
        attack_picks={6},
    )
    def test_filtering_equals_mining_each_threshold_hypothesis(
        self, rows, values, max_patterns, attack_picks
    ):
        txns = [Transaction(tid, items) for tid, items in enumerate(rows)]
        attacks = sorted({pick % len(txns) for pick in attack_picks})
        config = MiningConfig(max_patterns=max_patterns)
        expected = sweep_each_threshold(txns, values, attacks, config)
        assert sweep(txns, values, attacks, config) == expected


FILTER_SIGS = ["web", " web", "ssh", "null", ""]
FILTER_PORTS = ["80", "080", "443", "null", ""]
FILTER_STAMPS = ["6/22/2010 8:57 AM", "6/22/2010 9:01 PM", "6/23/2010 8:57 AM", "null", ""]


class TestSweepFilter:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(FILTER_SIGS),
                st.sampled_from(["1", "2"]),
                st.sampled_from(FILTER_PORTS),
                st.sampled_from(FILTER_STAMPS),
            ),
            min_size=1,
            max_size=14,
        ),
        low=st.integers(1, 4),
        steps=st.lists(st.integers(0, 8), min_size=1, max_size=4),
    )
    def test_filter_equals_mining_on_parsed_logs_hypothesis(self, rows, low, steps):
        text = "".join("\t".join(row) + "\n" for row in rows)
        dataset = parse_log(io.StringIO(text), SELECTOR_SCHEMA).dataset
        assert_filter_equals_mining(dataset, low, [low + step for step in steps])

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.frozensets(st.sampled_from(SWEEP_ITEMS), min_size=1, max_size=5),
            min_size=1,
            max_size=14,
        ),
        low=st.integers(1, 4),
        steps=st.lists(st.integers(0, 8), min_size=1, max_size=4),
    )
    def test_filter_equals_mining_on_transactions_hypothesis(self, rows, low, steps):
        txns = [Transaction(tid, items) for tid, items in enumerate(rows)]
        assert_filter_equals_mining(txns, low, [low + step for step in steps])


def assert_filter_equals_mining(data, low, highs):
    """The sweep's filter of the set mined at low equals the set mined at
    each of highs, tidlists included, and shares the lowest set's itemset
    tuples and level-1 bitsets."""
    lowest = mine(data, MiningConfig(minisupport=low))
    ids = set(map(id, lowest.itemsets))
    for high in highs:
        filtered, mined = lowest.at_least(high), mine(data, MiningConfig(minisupport=high))
        assert filtered.itemsets == mined.itemsets
        assert filtered.supports == mined.supports
        assert [p.tidlist for p in filtered] == [p.tidlist for p in mined]
        assert filtered == mined
        assert all(bits is lowest.item_bits[item] for item, bits in filtered.item_bits.items())
        assert all(id(itemset) in ids for itemset in filtered.itemsets)


def sweep_each_threshold(txns, values, attacks, config):
    """Reference sweep: mine, rank by the simple score and locate at each
    threshold on its own."""
    rows = []
    for value in values:
        row_config = replace(config, minisupport=value)
        s_abs = row_config.minisupport_abs(len(txns))
        try:
            fps = mine(txns, row_config)
            worst = max(locate_attacks(rank(txns, fps), attacks))
            rows.append(SweepRow(s_abs, fps.count, worst, reduction(len(txns), worst)))
        except AlertFpError as exc:
            rows.append(SweepRow(s_abs, None, None, None, error=str(exc)))
    return rows

SELECTOR_SCHEMA = AttributeSchema(
    (
        SchemaField("sig", FieldKind.CATEGORICAL),
        SchemaField("cid", FieldKind.IDENTIFIER),
        SchemaField("dport", FieldKind.NUMERIC),
        SchemaField("timestamp", FieldKind.TIMESTAMP),
    )
)
# raw values that canonicalize alike, a padded identifier and empty values
SELECTOR_LOG = (
    "web\t1\t080\t6/22/2010  8:57 AM\n"
    "ssh\t 2 \t22\t6/22/2010 9:01 AM\n"
    "web\t3\t80\t6/22/2010 8:57 AM\n"
    " ftp \t4\t\t\n"
)
# a selector is compared with the value as parse_log canonicalizes it
SELECTOR_CASES = [
    ("sig=web", {0, 2}),
    ("sig=ftp", {3}),
    (" sig = ssh ", {1}),
    ("cid=2", {1}),
    ("dport=80", {0, 2}),
    ("dport=080", None),
    ("dport=null", {3}),
    ("timestamp=6/22/2010 8:57 AM", {0, 2}),
    ("timestamp=6/22/2010  8:57 AM", None),
    ("timestamp=null", {3}),
]


class TestAttackSelectors:
    def test_plain_tids(self):
        assert resolve_attack_selectors(["3", "1", "007", "", "# note"]) == {1, 3, 7}

    def test_field_selector_needs_dataset(self):
        with pytest.raises(AlertFpError):
            resolve_attack_selectors(["cid=2"])

    def test_field_selector_resolves(self, sample_dataset):
        assert resolve_attack_selectors(["cid=2"], sample_dataset) == {1}

    @pytest.mark.parametrize("line, tids", SELECTOR_CASES)
    def test_field_selector_reads_canonical_values(self, line, tids):
        parsed = parse_log(io.StringIO(SELECTOR_LOG), SELECTOR_SCHEMA).dataset
        for dataset in (parsed, AlertDataset(SELECTOR_SCHEMA, parsed.alerts)):
            if tids is None:
                with pytest.raises(AlertFpError, match="matches no alert"):
                    resolve_attack_selectors([line], dataset)
            else:
                assert resolve_attack_selectors([line], dataset) == tids

    def test_field_selector_compares_alerts_as_given(self):
        rows = [line.split("\t") for line in SELECTOR_LOG.splitlines()]
        dataset = AlertDataset(
            SELECTOR_SCHEMA, tuple(Alert(tid, tuple(row)) for tid, row in enumerate(rows))
        )
        assert resolve_attack_selectors(["dport=80"], dataset) == {2}
        assert resolve_attack_selectors(["dport=080"], dataset) == {0}
        with pytest.raises(AlertFpError, match="matches no alert"):
            resolve_attack_selectors(["cid=2"], dataset)

    def test_unmatched_selector_rejected(self, sample_dataset):
        with pytest.raises(AlertFpError):
            resolve_attack_selectors(["cid=999"], sample_dataset)

    def test_garbage_selector_rejected(self):
        # "²".isdigit(), but int() refuses it; int() reads the Arabic-Indic and
        # fullwidth digits, but no other integer reader takes them
        for line in ("what is this", "\u00b2", "\u0661", "\uff13", "1\u0662"):
            with pytest.raises(AlertFpError, match="unknown attack selector"):
                resolve_attack_selectors([line])

    def test_tid_too_long_for_int_rejected(self):
        with pytest.raises(AlertFpError, match="^attack tid of 4400 digits is too long$"):
            resolve_attack_selectors(["2", "9" * 4400])

    def test_comments_only_select_nothing(self):
        with pytest.raises(AlertFpError, match="selects no alerts"):
            resolve_attack_selectors(["# attacks of 6/11", "", "# none found"])

    def test_write_attack_ids(self, tmp_path):
        path = tmp_path / "attacks.txt"
        write_attack_ids(path, [4, 9])
        assert path.read_text(encoding="utf-8") == "4\n9\n"


class TestSyntheticSpec:
    def test_attack_count_must_fit(self):
        with pytest.raises(AlertFpError):
            SyntheticSpec(n_records=5, n_attack=5)

    def test_positive_records(self):
        with pytest.raises(AlertFpError):
            SyntheticSpec(n_records=0, n_attack=0)

    def test_positive_profiles(self):
        with pytest.raises(AlertFpError, match="^routine_profiles must be >= 1$"):
            SyntheticSpec(n_records=10, n_attack=1, routine_profiles=0)

    def test_profiles_fit_the_signature_ids(self):
        SyntheticSpec(n_records=10, n_attack=1, routine_profiles=800)
        with pytest.raises(AlertFpError, match="^at most 800 routine profiles are supported$"):
            SyntheticSpec(n_records=10, n_attack=1, routine_profiles=801)


class TestGenSynthetic:
    SPEC = SyntheticSpec(n_records=100, n_attack=2, routine_profiles=3, seed=42)

    def test_deterministic_for_a_seed(self):
        first = gen_synthetic(self.SPEC)
        second = gen_synthetic(self.SPEC)
        assert (first[0].schema, first[0].alerts) == (second[0].schema, second[0].alerts)
        assert first[1] == second[1]

    def test_different_seed_differs(self):
        other = SyntheticSpec(n_records=100, n_attack=2, routine_profiles=3, seed=43)
        assert gen_synthetic(self.SPEC)[0].alerts != gen_synthetic(other)[0].alerts

    def test_names_beyond_the_lists_are_numbered_and_deterministic(self):
        spec = SyntheticSpec(n_records=600, n_attack=10, routine_profiles=15, seed=7)
        ds, attacks = gen_synthetic(spec)
        again, again_attacks = gen_synthetic(spec)
        assert (ds.schema, ds.alerts, attacks) == (again.schema, again.alerts, again_attacks)
        routine = {a.values[3] for a in ds.alerts if a.tid not in attacks}
        assert len(routine) == 15
        assert {name for name in routine if name.startswith("GENERIC/")} == {
            f"GENERIC/service/access-{k}" for k in (12, 13, 14)
        }
        planted = [ds.alerts[tid].values[3] for tid in attacks]
        assert len(set(planted)) == 10
        assert {name for name in planted if name.startswith("EXPLOIT/custom/")} == {
            f"EXPLOIT/custom/probe-{k}" for k in (7, 8, 9)
        }

    def test_shape(self):
        ds, attacks = gen_synthetic(self.SPEC)
        assert ds.n == 100
        assert len(attacks) == 2
        assert all(0 <= tid < 100 for tid in attacks)
        assert list(attacks) == sorted(attacks)

    def test_attacks_carry_unique_values(self):
        ds, attacks = gen_synthetic(self.SPEC)
        frequency = Counter()
        for alert in ds.alerts:
            for index, value in enumerate(alert.values):
                frequency[(index, value)] += 1
        for tid in attacks:
            unique = sum(
                1
                for index, value in enumerate(ds.alerts[tid].values)
                if frequency[(index, value)] == 1
            )
            assert unique >= 2

    def test_attacks_share_one_source(self):
        ds, attacks = gen_synthetic(self.SPEC)
        src_index = ds.schema.field_index("ip_src")
        sources = {ds.alerts[tid].values[src_index] for tid in attacks}
        assert len(sources) == 1
        routine_sources = {
            a.values[src_index] for a in ds.alerts if a.tid not in set(attacks)
        }
        assert not sources & routine_sources

    def test_routine_signatures_are_skewed(self):
        ds, attacks = gen_synthetic(
            SyntheticSpec(n_records=2000, n_attack=2, routine_profiles=7, seed=9)
        )
        sig_index = ds.schema.field_index("sig_name")
        counts = Counter(
            a.values[sig_index] for a in ds.alerts if a.tid not in set(attacks)
        )
        top = counts.most_common()
        assert top[0][1] > 3 * top[-1][1]

    def test_attacks_score_below_every_routine_alert(self):
        ds, attacks = gen_synthetic(
            SyntheticSpec(n_records=400, n_attack=4, routine_profiles=4, seed=7)
        )
        fps = mine(ds, MiningConfig(minisupport=12))
        scores = {
            t.tid: simple_fpof(t, fps) for t in ds.transactions()
        }
        attack_set = set(attacks)
        worst_attack = max(scores[tid] for tid in attack_set)
        best_routine = min(
            score for tid, score in scores.items() if tid not in attack_set
        )
        assert worst_attack < best_routine
        ranked = rank(ds, fps)
        leading = [sa.tid for sa in ranked[: len(attacks)]]
        assert set(leading) == attack_set

    def test_timestamps_cover_the_day_in_order(self):
        ds, _ = gen_synthetic(self.SPEC)
        ts_index = ds.schema.field_index("timestamp")
        stamps = [a.values[ts_index] for a in ds.alerts]
        assert stamps[0].endswith("12:00 AM")
        assert all(s.startswith("6/22/2010 ") for s in stamps)
