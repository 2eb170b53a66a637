import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alertfp.errors import SchemaError, ValueParseError
from alertfp.ingest import parse_log
from alertfp.miner import MiningConfig, build_candidates_1, mine
from alertfp.model import (
    Alert,
    AlertDataset,
    AttributeSchema,
    FieldKind,
    Item,
    SchemaField,
    canonicalize_value,
    itemize,
    snort_schema,
    split_timestamp,
)
from alertfp.scorer import ScoreConfig, rank


def cat_schema(*names):
    return AttributeSchema(tuple(SchemaField(n, FieldKind.CATEGORICAL) for n in names))


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            cat_schema("a", "a")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            cat_schema("a", "")

    def test_items_per_alert_counts_timestamp_twice(self):
        schema = AttributeSchema(
            (
                SchemaField("sig", FieldKind.CATEGORICAL),
                SchemaField("port", FieldKind.NUMERIC),
                SchemaField("ts", FieldKind.TIMESTAMP),
                SchemaField("cid", FieldKind.IDENTIFIER),
                SchemaField("junk", FieldKind.IGNORE),
            )
        )
        # a fully populated alert: one item per categorical or numeric
        # column, two (date and time) for the timestamp, none for the rest
        alert = Alert(0, ("WEB-MISC", "80", "8/11/2010 8:59 AM", "7", "x"))
        assert len(itemize(alert, schema).items) == 4
        assert schema.itemizable_indexes() == (0, 1, 2)

    def test_field_index_lookup(self):
        schema = snort_schema()
        assert schema.field_index("cid") == 1
        with pytest.raises(SchemaError):
            schema.field_index("nope")


class TestCanonicalize:
    def test_numeric_strips_thousands_separators(self):
        assert canonicalize_value("46,865", FieldKind.NUMERIC) == "46865"

    def test_numeric_drops_every_comma(self):
        # not only thousands separators: any comma anywhere goes, and a
        # value of commas alone is no number
        assert canonicalize_value("1,2,3", FieldKind.NUMERIC) == "123"
        assert canonicalize_value("1,,2", FieldKind.NUMERIC) == "12"
        with pytest.raises(ValueParseError, match="not a numeric value: ','"):
            canonicalize_value(",", FieldKind.NUMERIC)

    def test_categorical_identity_on_clean_input(self):
        value = "WEB-MISC/doc/access"
        assert canonicalize_value(value, FieldKind.CATEGORICAL) == value

    def test_numeric_strips_leading_zeros(self):
        assert canonicalize_value("007", FieldKind.NUMERIC) == "7"

    def test_categorical_trims_whitespace_only(self):
        assert canonicalize_value("  a b  ", FieldKind.CATEGORICAL) == "a b"

    def test_numeric_garbage_raises(self):
        with pytest.raises(ValueParseError):
            canonicalize_value("80x", FieldKind.NUMERIC)

    @pytest.mark.parametrize("raw", ["", "   ", "null", "NULL", "Null"])
    def test_null_and_empty_become_null(self, raw):
        assert canonicalize_value(raw, FieldKind.NUMERIC) == "null"
        assert canonicalize_value(raw, FieldKind.CATEGORICAL) == "null"

    def test_underscores_are_not_digits(self):
        with pytest.raises(ValueParseError):
            canonicalize_value("1_0", FieldKind.NUMERIC)


class TestSplitTimestamp:
    def test_morning(self):
        assert split_timestamp("6/11/2010 8:57 AM") == ("6/11/2010", "8:57AM")

    def test_other_day(self):
        assert split_timestamp("8/11/2010 8:59 AM") == ("8/11/2010", "8:59AM")

    def test_midnight_boundary(self):
        assert split_timestamp("1/1/2000 12:00 AM") == ("1/1/2000", "12:00AM")

    def test_no_space_before_meridiem(self):
        assert split_timestamp("6/11/2010 8:57AM") == ("6/11/2010", "8:57AM")

    def test_seconds_dropped(self):
        assert split_timestamp("6/11/2010 8:57:31 AM") == ("6/11/2010", "8:57AM")

    def test_garbage_raises(self):
        with pytest.raises(ValueParseError):
            split_timestamp("2010-06-11T08:57")

    # ARABIC-INDIC DIGITs: a Unicode `\d` takes them, and only the hour goes
    # through int(), so "8:\u0665\u0667AM" would be a second item for 8:57AM
    @pytest.mark.parametrize(
        "raw",
        ["\u0666/22/2010 8:57 AM", "6/22/2010 \u0668:57 AM", "6/22/2010 8:\u0665\u0667 AM"],
        ids=["date", "hour", "minute"],
    )
    def test_non_ascii_digits_raise(self, raw):
        with pytest.raises(ValueParseError, match="^not a recognized timestamp"):
            split_timestamp(raw)


def padded(low, high):
    """A number in [low, high] as a log may write it, with or without a
    leading zero when it has one digit."""
    return st.integers(low, high).flatmap(
        lambda k: st.sampled_from([str(k), f"{k:02d}"]) if k < 10 else st.just(str(k))
    )


# a timestamp's parts as (month, day, year, hour, minute, second or None,
# the space between date and time, the space before the meridiem, meridiem)
stamp_parts = st.tuples(
    padded(1, 12),
    padded(1, 31),
    st.integers(0, 9999).map("{:04d}".format),
    padded(0, 12),
    st.integers(0, 59).map("{:02d}".format),
    st.none() | st.integers(0, 59).map("{:02d}".format),
    st.sampled_from([" ", "  ", "\t"]),
    st.sampled_from(["", " "]),
    st.sampled_from(["AM", "PM", "am", "pm", "Am", "pM"]),
)


# one minute: (month, day, year, hour 1-12, minute, meridiem), unpadded
minutes = st.tuples(
    st.integers(1, 12),
    st.integers(1, 31),
    st.integers(0, 9999).map("{:04d}".format),
    st.integers(1, 12),
    st.integers(0, 59).map("{:02d}".format),
    st.sampled_from(["AM", "PM"]),
)


def spellings_of(month, day, year, hour, minute, meridiem):
    """The spellings of one minute: month, day and hour with or without a
    leading zero, hour 12 also as 0 or 00, any seconds, spacing and
    meridiem case."""

    def pad(k):
        return st.sampled_from([str(k), f"{k:02d}"])

    cases = {meridiem, meridiem.lower(), meridiem.capitalize(), meridiem[0].lower() + meridiem[1]}
    return st.builds(
        spell,
        pad(month),
        pad(day),
        st.just(year),
        st.sampled_from(["12", "0", "00"]) if hour == 12 else pad(hour),
        st.just(minute),
        st.none() | st.integers(0, 59).map("{:02d}".format),
        st.sampled_from([" ", "  ", "\t"]),
        st.sampled_from(["", " "]),
        st.sampled_from(sorted(cases)),
    )


def spell(month, day, year, hour, minute, second, gap, before, meridiem):
    seconds = "" if second is None else f":{second}"
    return f"{month}/{day}/{year}{gap}{hour}:{minute}{seconds}{before}{meridiem}"


# a part's spellings out of its range; each keeps the shape
# "\d{1,2}/\d{1,2}/\d{4} \d{1,2}:\d{2}(:\d{2})?", so only a range check rejects it
OUT_OF_RANGE = {
    0: st.sampled_from(["0", "00"]) | st.integers(13, 99).map(str),  # month
    1: st.sampled_from(["0", "00"]) | st.integers(32, 99).map(str),  # day
    3: st.integers(13, 99).map(str),  # hour
    4: st.integers(60, 99).map(str),  # minute
    5: st.integers(60, 99).map(str),  # second
}


class TestTimestampRanges:
    """A timestamp's month is 1-12, its day 1-31, its hour 0-12 and its
    minute and second 00-59; any other value is not a timestamp."""

    @settings(max_examples=200, deadline=None)
    @given(stamp_parts)
    def test_in_range_spellings_split_into_unpadded_date_and_time(self, parts):
        month, day, year, hour, minute = parts[:5]
        expected = (
            f"{int(month)}/{int(day)}/{year}",
            f"{int(hour) or 12}:{minute}{parts[-1].upper()}",
        )
        assert split_timestamp(spell(*parts)) == expected
        schema = AttributeSchema((SchemaField("ts", FieldKind.TIMESTAMP),))
        assert itemize(Alert(0, (spell(*parts),)), schema).items == {
            Item(0, expected[0]), Item(0, expected[1])
        }

    @settings(max_examples=200, deadline=None)
    @given(minutes, st.data())
    def test_every_spelling_of_a_minute_itemizes_to_one_date_and_one_time(self, minute, data):
        month, day, year, hour, mm, meridiem = minute
        expected = {Item(0, f"{month}/{day}/{year}"), Item(0, f"{hour}:{mm}{meridiem}")}
        schema = AttributeSchema((SchemaField("ts", FieldKind.TIMESTAMP),))
        raws = data.draw(st.lists(spellings_of(*minute), min_size=1, max_size=4), label="raws")
        dataset = AlertDataset(schema, tuple(Alert(tid, (raw,)) for tid, raw in enumerate(raws)))
        for raw, txn in zip(raws, dataset.transactions(), strict=True):
            assert itemize(Alert(0, (raw,)), schema).items == expected
            assert txn.items == expected

    @settings(max_examples=200, deadline=None)
    @given(stamp_parts, st.sampled_from(sorted(OUT_OF_RANGE)), st.data())
    def test_out_of_range_spellings_reject_their_line(self, parts, part, data):
        parts = list(parts)
        parts[part] = data.draw(OUT_OF_RANGE[part], label="out of range")
        raw = spell(*parts)
        with pytest.raises(ValueParseError, match="^not a recognized timestamp"):
            split_timestamp(raw)
        schema = AttributeSchema(
            (SchemaField("sig", FieldKind.CATEGORICAL), SchemaField("ts", FieldKind.TIMESTAMP))
        )
        log = f"web,6/22/2010 8:57 PM\nweb,{raw}\n"
        result = parse_log(io.StringIO(log), schema, ",")
        assert result.dataset.n == 1
        assert [(r.line_number, r.reason) for r in result.rejects] == [
            (2, f"not a recognized timestamp: {' '.join(raw.split())!r} (field 'ts')")
        ]

    @pytest.mark.parametrize(
        "raw", ["6/22/2010 99:99 PM", "13/45/2010 8:57 AM", "0/0/0000 0:00 AM", "6/22/2010 13:30 PM"]
    )
    def test_out_of_range_examples_raise(self, raw):
        with pytest.raises(ValueParseError, match="^not a recognized timestamp"):
            split_timestamp(raw)


class TestItem:
    def test_same_value_different_columns_distinct(self):
        assert Item(0, "6") != Item(9, "6")

    def test_equality_on_both_parts(self):
        assert Item(3, "80") == Item(3, "80")

    def test_ordering_is_index_then_value(self):
        assert Item(0, "b") < Item(1, "a")
        assert Item(1, "a") < Item(1, "b")


class TestItemize:
    def test_three_column_positional_items(self):
        schema = cat_schema("a", "b", "c")
        txn = itemize(Alert(0, ("1", "3", "4")), schema)
        assert txn.items == frozenset({Item(0, "1"), Item(1, "3"), Item(2, "4")})

    def test_all_ignore_schema_gives_empty_transaction(self):
        schema = AttributeSchema(
            (SchemaField("a", FieldKind.IGNORE), SchemaField("b", FieldKind.IGNORE))
        )
        txn = itemize(Alert(0, ("x", "y")), schema)
        assert txn.items == frozenset()

    def test_snort_row_yields_twelve_items_without_cid(self):
        row = (
            "7", "1", "508", "WEB-MISC/doc/access", "25", "2",
            "6/11/2010 8:57 AM", "1136881320", "2148203530", "6", "46,865", "80",
        )
        txn = itemize(Alert(0, row), snort_schema())
        expected = {
            Item(0, "7"),
            Item(2, "508"),
            Item(3, "WEB-MISC/doc/access"),
            Item(4, "25"),
            Item(5, "2"),
            Item(6, "6/11/2010"),
            Item(6, "8:57AM"),
            Item(7, "1136881320"),
            Item(8, "2148203530"),
            Item(9, "6"),
            Item(10, "46865"),
            Item(11, "80"),
        }
        assert txn.items == expected
        assert len(txn.items) == 12
        assert not any(item.field_index == 1 for item in txn.items)

    def test_field_count_mismatch_raises_schema_error(self):
        with pytest.raises(SchemaError):
            itemize(Alert(0, ("1", "2")), cat_schema("a", "b", "c"))

    def test_bad_timestamp_names_field_and_tid(self):
        schema = AttributeSchema((SchemaField("ts", FieldKind.TIMESTAMP),))
        with pytest.raises(ValueParseError) as info:
            itemize(Alert(7, ("yesterday",)), schema)
        assert "ts" in str(info.value)
        assert "7" in str(info.value)

    def test_null_timestamp_collapses_to_single_item(self):
        schema = AttributeSchema((SchemaField("ts", FieldKind.TIMESTAMP),))
        txn = itemize(Alert(0, ("null",)), schema)
        assert txn.items == frozenset({Item(0, "null")})

    def test_pure_function(self):
        schema = snort_schema()
        alert = Alert(
            2,
            ("7", "3", "508", "x", "25", "2", "8/11/2010 8:59 AM",
             "1", "2", "6", "34,075", "80"),
        )
        assert itemize(alert, schema) == itemize(alert, schema)

    def test_item_count_matches_schema_budget(self):
        schema = snort_schema()
        alert = Alert(
            0,
            ("7", "9", "508", "x", "25", "2", "8/11/2010 8:59 AM",
             "1", "2", "6", "34075", "80"),
        )
        # ten single-item columns, plus the timestamp's date and time
        assert len(itemize(alert, schema).items) == 12

    def test_repeated_bad_value_raises_with_each_alerts_tid(self):
        schema = AttributeSchema(
            (SchemaField("sig", FieldKind.CATEGORICAL), SchemaField("port", FieldKind.NUMERIC))
        )
        alerts = (
            Alert(0, ("web", "80")),
            Alert(1, ("web", "eighty")),
            Alert(2, ("ssh", "eighty")),
        )
        for alert in alerts[1:]:
            with pytest.raises(ValueParseError) as info:
                itemize(alert, schema)
            assert info.value.tid == alert.tid
        dataset = AlertDataset(schema, alerts)
        for _ in range(2):  # a failed itemization is not cached
            with pytest.raises(ValueParseError) as info:
                dataset.transactions()
            assert info.value.tid == 1

    def test_distinct_field_indexes_except_timestamp(self):
        schema = snort_schema()
        alert = Alert(
            0,
            ("7", "9", "508", "x", "25", "2", "8/11/2010 8:59 AM",
             "1", "2", "6", "34075", "80"),
        )
        indexes = [item.field_index for item in itemize(alert, schema).items]
        ts_index = schema.field_index("timestamp")
        assert indexes.count(ts_index) == 2
        non_ts = [i for i in indexes if i != ts_index]
        assert len(non_ts) == len(set(non_ts))


class TestAlertDataset:
    def test_tids_must_be_positional(self):
        schema = cat_schema("a")
        with pytest.raises(ValueError):
            AlertDataset(schema, (Alert(1, ("x",)),))

    def test_transactions_cached_and_ordered(self):
        schema = cat_schema("a")
        ds = AlertDataset(schema, (Alert(0, ("x",)), Alert(1, ("y",))))
        first = ds.transactions()
        assert first is ds.transactions()
        assert [t.tid for t in first] == [0, 1]


def mixed_schema():
    return AttributeSchema(
        (
            SchemaField("sig", FieldKind.CATEGORICAL),
            SchemaField("cid", FieldKind.IDENTIFIER),
            SchemaField("port", FieldKind.NUMERIC),
            SchemaField("ts", FieldKind.TIMESTAMP),
        )
    )


# values that canonicalize alike, nulls, and timestamps that share a date part
PORTS = ["80", "080", " 80 ", "8,0", "443", "-0", "null", "", "NULL"]
STAMPS = [
    "6/11/2010 8:57 AM", "6/11/2010  8:57 am", "6/11/2010 9:02:33 PM", "7/1/2010 8:57AM",
    "null", " ",
]


class TestSharedItemization:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["web", " web", "null", "", "x,y"]) | st.text(max_size=3),
                st.text(max_size=2),
                st.sampled_from(PORTS),
                st.sampled_from(STAMPS),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_codes_route_equals_the_reference_itemizer(self, rows):
        # level 1 and the ranking read the column codes; the transactions
        # are itemize's, so each must come out as it does over them
        dataset = AlertDataset(mixed_schema(), tuple(Alert(i, row) for i, row in enumerate(rows)))
        transactions = list(dataset.transactions())
        assert build_candidates_1(dataset, 1) == build_candidates_1(transactions, 1)
        fps = mine(dataset, MiningConfig(minisupport=1))
        for metric in ("simple", "fpof"):
            config = ScoreConfig(metric)
            assert rank(dataset, fps, config) == rank(transactions, fps, config)
