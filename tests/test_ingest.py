import gc
import io
import random
import re
import sys
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import accumulate, count, cycle
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alertfp.errors import AlertFpError, EmptyDatasetError, SchemaError, ValueParseError
from alertfp.evaluate import SyntheticSpec, gen_synthetic
from alertfp.ingest import (
    _BLOCK,
    check_delimiter,
    load_schema,
    parse_log,
    write_log,
    write_rejects,
    write_schema,
)
from alertfp.miner import MiningConfig, brute_force_mine, build_candidates_1, mine
from alertfp.model import (
    ITEMIZABLE_KINDS,
    NULL_VALUE,
    Alert,
    AlertDataset,
    AttributeSchema,
    FieldKind,
    SchemaField,
    _BlockCoder,
    _value_step,
    canonicalize_value,
    itemize,
    snort_schema,
    split_timestamp,
)
from alertfp.scorer import ScoredAlert, write_ranked

from conftest import SNORT_SAMPLE


def two_col_schema():
    return AttributeSchema(
        (SchemaField("sig", FieldKind.CATEGORICAL), SchemaField("port", FieldKind.NUMERIC))
    )


class TestParseLog:
    def test_sample_sample_three_records_in_order(self):
        result = parse_log(io.StringIO(SNORT_SAMPLE), snort_schema())
        ds = result.dataset
        assert ds.n == 3
        assert [a.tid for a in ds.alerts] == [0, 1, 2]
        assert ds.alerts[0].values[3] == "WEB-MISC/doc/access"
        assert result.rejects == ()

    def test_empty_input_raises(self):
        with pytest.raises(EmptyDatasetError):
            parse_log(io.StringIO(""), two_col_schema())

    def test_thousands_separator_canonicalized(self):
        result = parse_log(io.StringIO("web\t46,865\n"), two_col_schema())
        assert result.dataset.alerts[0].values == ("web", "46865")

    def test_wrong_column_count_rejected_with_line_number(self):
        text = "web\t80\nbroken-line\nssh\t22\n"
        result = parse_log(io.StringIO(text), two_col_schema())
        assert result.dataset.n == 2
        assert [a.values for a in result.dataset.alerts] == [("web", "80"), ("ssh", "22")]
        assert len(result.rejects) == 1
        assert result.rejects[0].line_number == 2

    def test_bad_numeric_rejected_parse_continues(self):
        text = "web\teighty\nssh\t22\n"
        result = parse_log(io.StringIO(text), two_col_schema())
        assert result.dataset.n == 1
        assert result.rejects[0].line_number == 1
        assert "numeric" in result.rejects[0].reason
        assert result.rejects[0].reason.endswith("(field 'port')")

    def test_numeric_too_long_for_int_rejected_parse_continues(self):
        text = "web\t" + "9" * 5000 + "\nssh\t22\n"  # int() refuses over 4,300 digits
        result = parse_log(io.StringIO(text), two_col_schema())
        assert [a.values for a in result.dataset.alerts] == [("ssh", "22")]
        assert [r.line_number for r in result.rejects] == [1]
        assert result.rejects[0].reason == "numeric value too long (5000 digits) (field 'port')"

    def test_numeric_too_long_for_int_names_tid_in_columns(self):
        alerts = (Alert(0, ("web", "80")), Alert(1, ("web", "9" * 5000)))
        with pytest.raises(ValueParseError) as info:
            AlertDataset(two_col_schema(), alerts).columns()
        assert (info.value.field, info.value.tid) == ("port", 1)

    def test_repeated_bad_value_rejected_on_every_line(self):
        text = "web\teighty\nweb\t80\nssh\teighty\nweb\t080\nssh\t 8,0 \n"
        result = parse_log(io.StringIO(text), two_col_schema())
        assert [r.line_number for r in result.rejects] == [1, 3]
        assert result.rejects[0].reason == result.rejects[1].reason
        assert [a.values for a in result.dataset.alerts] == [
            ("web", "80"), ("web", "80"), ("ssh", "80")
        ]

    def test_bad_timestamp_rejected(self):
        schema = AttributeSchema((SchemaField("ts", FieldKind.TIMESTAMP),))
        result = parse_log(io.StringIO("6/11/2010 8:57 AM\nnot-a-time\n"), schema)
        assert result.dataset.n == 1
        assert result.rejects[0].line_number == 2
        assert result.rejects[0].reason.endswith("(field 'ts')")

    def test_timestamp_with_non_ascii_digits_rejected(self):
        schema = AttributeSchema((SchemaField("ts", FieldKind.TIMESTAMP),))
        text = (
            "6/22/2010 8:57 AM\n\u0666/22/2010 8:57 AM\n"
            "6/22/2010 \u0668:57 AM\n6/22/2010 8:\u0665\u0667 AM\n"
        )
        result = parse_log(io.StringIO(text), schema)
        assert result.dataset.n == 1
        assert [r.line_number for r in result.rejects] == [2, 3, 4]
        assert all(r.reason.endswith("(field 'ts')") for r in result.rejects)
        assert mine(result.dataset, MiningConfig(minisupport=1)).itemsets == (
            ((0, "6/22/2010"),), ((0, "8:57AM"),), ((0, "6/22/2010"), (0, "8:57AM"))
        )

    def test_comments_and_blanks_skipped(self):
        text = "# generated\n\nweb\t80\n"
        result = parse_log(io.StringIO(text), two_col_schema())
        assert result.dataset.n == 1
        assert result.dataset.alerts[0].values == ("web", "80")

    @pytest.mark.parametrize("delimiter", ["\t", ","], ids=["tab", "comma"])
    def test_all_empty_record_is_kept_as_nulls(self, delimiter):
        d = delimiter
        text = f"web{d}80\n{d}\n   \nssh{d}22\n"
        result = parse_log(io.StringIO(text), two_col_schema(), delimiter=d)
        assert [a.values for a in result.dataset.alerts] == [
            ("web", "80"), ("null", "null"), ("ssh", "22")
        ]
        assert [a.tid for a in result.dataset.alerts] == [0, 1, 2]
        assert result.rejects == ()

    def test_custom_delimiter(self):
        result = parse_log(io.StringIO("web|80\n"), two_col_schema(), delimiter="|")
        assert result.dataset.alerts[0].values == ("web", "80")

    def test_all_lines_rejected_is_empty_dataset(self):
        with pytest.raises(EmptyDatasetError) as info:
            parse_log(io.StringIO("only-one-field\n"), two_col_schema())
        assert "1 rejected" in str(info.value)

    def test_no_itemizable_fields_refused(self):
        schema = AttributeSchema((SchemaField("cid", FieldKind.IDENTIFIER),))
        with pytest.raises(SchemaError):
            parse_log(io.StringIO("1\n"), schema)

    @pytest.mark.parametrize("as_path", [False, True])
    def test_line_not_utf8_rejected_parse_continues(self, as_path, tmp_path):
        data = b"web\t80\nw\xffb\t80\nssh\t\xe2\x82\n\xc3\xa9t\xc3\xa9\t22\n\xff\xfe"
        # a text stream that reads each undecodable byte as a lone surrogate
        source = io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape", newline="")
        if as_path:
            source = tmp_path / "log.tsv"
            source.write_bytes(data)
        result = parse_log(source, two_col_schema())
        assert [a.values for a in result.dataset.alerts] == [("web", "80"), ("\u00e9t\u00e9", "22")]
        assert [(r.line_number, r.reason) for r in result.rejects] == [
            (2, "not valid UTF-8 (byte 0xff)"),
            (3, "not valid UTF-8 (byte 0xe2)"),
            (5, "not valid UTF-8 (byte 0xff)"),
        ]

    def test_parse_from_path(self, sample_log_path):
        result = parse_log(sample_log_path, snort_schema())
        assert result.dataset.n == 3

    def test_tid_matches_record_position(self):
        text = "a\t1\nb\t2\nc\t3\n"
        ds = parse_log(io.StringIO(text), two_col_schema()).dataset
        assert [a.values[0] for a in ds.alerts] == ["a", "b", "c"]
        assert [a.tid for a in ds.alerts] == [0, 1, 2]


class TestRoundTrip:
    def test_parse_write_parse_is_identical(self):
        first = parse_log(io.StringIO(SNORT_SAMPLE), snort_schema()).dataset
        buffer = io.StringIO()
        write_log(buffer, first)
        second = parse_log(io.StringIO(buffer.getvalue()), snort_schema()).dataset
        assert first.alerts == second.alerts

    def test_write_log_to_path(self, tmp_path, sample_dataset):
        path = tmp_path / "out.tsv"
        write_log(path, sample_dataset)
        again = parse_log(path, snort_schema()).dataset
        assert again.alerts == sample_dataset.alerts


# text that the log's framing has to survive or refuse: the comment
# prefix, line breaks, delimiters and null spellings
FRAMING_PROBES = ["#", "#x", "p\rq", "\r", "a\nb", "\t", ",", "|", "NULL", "", " x "]
DELIMITERS = ["\t", ",", "|", " "]


def canonical_values(kind):
    """Values as parse_log leaves them: canonical for itemizable kinds,
    trimmed for the rest."""
    text = st.text(max_size=6) | st.sampled_from(FRAMING_PROBES)
    if kind is FieldKind.NUMERIC:
        return st.just(NULL_VALUE) | st.integers(-(10**6), 10**6).map(str)
    if kind is FieldKind.TIMESTAMP:
        stamps = st.builds(
            "{}/{}/{} {}:{:02d}{}{}{}".format,
            st.integers(1, 12), st.integers(1, 31), st.integers(1000, 9999),
            st.integers(0, 12), st.integers(0, 59),
            st.sampled_from(["", ":07"]), st.sampled_from(["", " "]),
            st.sampled_from(["AM", "PM", "am", "Pm"]),
        )
        return st.just(NULL_VALUE) | stamps
    if kind in ITEMIZABLE_KINDS:
        return text.map(lambda value: canonicalize_value(value, kind))
    return text.map(str.strip)


@st.composite
def canonical_datasets(draw):
    kinds = draw(
        st.lists(st.sampled_from(list(FieldKind)), min_size=1, max_size=5).filter(
            lambda kinds: any(kind in ITEMIZABLE_KINDS for kind in kinds)
        )
    )
    schema = AttributeSchema(tuple(SchemaField(f"f{i}", kind) for i, kind in enumerate(kinds)))
    empty = tuple(NULL_VALUE if kind in ITEMIZABLE_KINDS else "" for kind in kinds)
    records = draw(
        st.lists(
            st.just(empty) | st.tuples(*(canonical_values(kind) for kind in kinds)),
            min_size=1,
            max_size=6,
        )
    )
    return AlertDataset(schema, tuple(Alert(tid, values) for tid, values in enumerate(records)))


def first_unframable(dataset, delimiter):
    """(tid, field name) of the first value a line cannot carry, or None."""
    for alert in dataset.alerts:
        for position, (value, f) in enumerate(zip(alert.values, dataset.schema.fields)):
            if any(char in value for char in (delimiter, "\n", "\r")) or (
                position == 0 and value.startswith("#")
            ):
                return alert.tid, f.name
    return None


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(canonical_datasets(), st.sampled_from(DELIMITERS))
    @example(
        AlertDataset(
            two_col_schema(), (Alert(0, ("#x", "1")), Alert(1, ("y", "2")))
        ),
        "\t",
    )
    @example(AlertDataset(two_col_schema(), (Alert(0, ("p\rq", "1")),)), "\t")
    def test_parse_of_write_is_identity_or_write_refuses(self, dataset, delimiter):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch, "log.txt")
            fault = first_unframable(dataset, delimiter)
            if fault is not None:
                tid, name = fault
                with pytest.raises(AlertFpError, match=f"cannot write tid {tid} field '{name}'"):
                    write_log(path, dataset, delimiter=delimiter)
                assert not list(Path(scratch).iterdir())
                return
            write_log(path, dataset, delimiter=delimiter)
            result = parse_log(path, dataset.schema, delimiter=delimiter)
        assert result.rejects == ()
        assert (result.dataset.schema, result.dataset.alerts) == (dataset.schema, dataset.alerts)


def two_route_schema():
    return AttributeSchema(
        (
            SchemaField("sig", FieldKind.CATEGORICAL),
            SchemaField("cid", FieldKind.IDENTIFIER),
            SchemaField("port", FieldKind.NUMERIC),
            SchemaField("ts", FieldKind.TIMESTAMP),
        )
    )


# values that canonicalize alike, nulls and empties, and bad values; "only"
# becomes a sig value that occurs on its line alone
LOG_SIGS = ["web", " web", "ssh", "null", "", "only"]
LOG_PORTS = ["80", "080", " 80 ", "8,0", "443", "null", "", "eighty", "8x"]
LOG_STAMPS = [
    "6/11/2010 8:57 AM", " 6/11/2010  8:57 am ", "6/11/2010 8:57:31 AM", "7/1/2010 9:02PM",
    "null", "", "yesterday",
]
BAD_VALUES = {"eighty": "port", "8x": "port", "yesterday": "ts"}
log_lines = st.tuples(
    st.sampled_from(LOG_SIGS),
    st.text("0123456789 ", max_size=3),
    st.sampled_from(LOG_PORTS),
    st.sampled_from(LOG_STAMPS),
) | st.lists(st.sampled_from(["web", "80"]), min_size=1, max_size=6).filter(
    lambda fields: len(fields) != 4
)


class TestTwoRoutes:
    """A parsed dataset arrives with its columns coded block by block; coding
    its alerts afresh, itemizing them one by one and the oracle must all
    agree with it, and no value seen only on a rejected line may count."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(log_lines, min_size=1, max_size=20), st.integers(1, 20))
    @example(
        [
            ("only", "1", "eighty", "6/11/2010 8:57 AM"),
            ("only", "2", "80", "yesterday"),
            ("web", "3", "080", "null"),
            ("web", "4", " 8,0 ", " 6/11/2010  8:57 am "),
        ],
        1,
    )
    def test_parse_codes_as_coding_the_alerts_would(self, lines, minisupport):
        lines = [
            tuple(f"only{number}" if value == "only" else value for value in fields)
            for number, fields in enumerate(lines, start=1)
        ]
        text = "".join("\t".join(fields) + "\n" for fields in lines)
        schema = two_route_schema()
        try:
            result = parse_log(io.StringIO(text), schema)
        except EmptyDatasetError:
            return
        parsed = result.dataset
        assert "_columns" in parsed.__dict__
        faults = {
            number: next((BAD_VALUES[v] for v in fields if v in BAD_VALUES), None)
            for number, fields in enumerate(lines, start=1)
            if len(fields) != 4 or set(fields) & BAD_VALUES.keys()
        }
        assert [r.line_number for r in result.rejects] == list(faults)
        for r in result.rejects:
            field = faults[r.line_number]
            assert field is None or r.reason.endswith(f"(field '{field}')")
        config = MiningConfig(minisupport=min(minisupport, parsed.n))
        rebuilt = AlertDataset(schema, parsed.alerts)
        assert mine(parsed, config) == mine(rebuilt, config) == brute_force_mine(parsed, config)
        assert parsed.transactions() == tuple(itemize(a, schema) for a in parsed.alerts)


# raw values by kind: padded ones, ones that canonicalize alike, nulls,
# empties, a comment prefix and values each kind refuses
RAW_BY_KIND = {
    FieldKind.CATEGORICAL: ["web", " web ", "ssh", "null", "NULL", "", "#x"],
    FieldKind.NUMERIC: ["80", "080", " 8,0 ", "-0", "null", "", "eighty"],
    FieldKind.TIMESTAMP: [
        "6/11/2010 8:57 AM", " 6/11/2010  8:57 am ", "6/11/2010 8:57:31 AM", "null", "",
        "yesterday",
    ],
    FieldKind.IDENTIFIER: ["1", " 2 ", "2", "", "null", " #3"],
    FieldKind.IGNORE: ["x", " y ", ""],
}
# one itemizable column (itemgetter of one index), no identifier or ignore
# column, and both
SCHEMA_SHAPES = [
    (FieldKind.NUMERIC,),
    (FieldKind.IDENTIFIER, FieldKind.TIMESTAMP, FieldKind.IGNORE),
    (FieldKind.CATEGORICAL, FieldKind.TIMESTAMP),
]


@st.composite
def raw_logs(draw):
    kinds = draw(
        st.sampled_from(SCHEMA_SHAPES)
        | st.lists(st.sampled_from(list(FieldKind)), min_size=1, max_size=5).filter(
            lambda kinds: any(kind in ITEMIZABLE_KINDS for kind in kinds)
        )
    )
    schema = AttributeSchema(tuple(SchemaField(f"f{i}", kind) for i, kind in enumerate(kinds)))
    rows = st.tuples(*(st.sampled_from(RAW_BY_KIND[kind]) for kind in kinds))
    wrong_width = st.lists(st.sampled_from(["web", "80"]), max_size=6)
    return schema, draw(st.lists(rows | wrong_width, min_size=1, max_size=12))


def kept_record(fields, schema):
    """fields as parse_log keeps them, or None for a line it skips or
    rejects."""
    line = "\t".join(fields)
    if (not line.strip() and "\t" not in line) or line.startswith("#"):
        return None
    if len(fields) != schema.field_count:
        return None
    record = []
    for raw, f in zip(fields, schema.fields):
        if f.kind not in ITEMIZABLE_KINDS:
            record.append(raw.strip())
            continue
        try:
            value = canonicalize_value(raw, f.kind)
            if f.kind is FieldKind.TIMESTAMP and value != NULL_VALUE:
                split_timestamp(value)
        except ValueParseError:
            return None
        record.append(value)
    return tuple(record)


def decoded(columns):
    """Each column's values per tid, whatever codes stand for them."""
    return [
        (
            column.field_index,
            [
                (column.values[c], column.keys[c], column.times and column.times[c])
                for c in column.codes
            ],
        )
        for column in columns
    ]


def written(writer, *args):
    """What writer writes to a stream, or the message it refuses with."""
    out = io.StringIO()
    try:
        writer(out, *args)
    except AlertFpError as exc:
        return str(exc)
    return out.getvalue()


class TestParsedDatasetEqualsItsAlerts:
    """parse_log keeps column codes and raw strings, not Alerts. Every view
    of that dataset must equal the same view of a dataset built from its
    own alerts, and the alerts must hold what the log's kept lines
    canonicalize to."""

    @settings(max_examples=200, deadline=None)
    @given(raw_logs())
    @example(
        (
            AttributeSchema(
                (
                    SchemaField("sig", FieldKind.CATEGORICAL),
                    SchemaField("ts", FieldKind.TIMESTAMP),
                )
            ),
            [("only-rejected", "yesterday"), ("web", "6/11/2010 8:57 AM"), ("#x", "null")],
        )
    )
    def test_parsed_dataset_equals_one_built_from_its_alerts(self, log):
        schema, lines = log
        text = "".join("\t".join(fields) + "\n" for fields in lines)
        kept = [r for r in (kept_record(fields, schema) for fields in lines) if r is not None]
        try:
            result = parse_log(io.StringIO(text), schema)
        except EmptyDatasetError:
            assert not kept
            return
        parsed = result.dataset
        assert parsed.n == len(kept)
        assert "alerts" not in parsed.__dict__
        rebuilt = AlertDataset(schema, parsed.alerts)
        assert [a.values for a in parsed.alerts] == kept
        assert [a.tid for a in parsed.alerts] == list(range(parsed.n))
        assert rebuilt.n == parsed.n
        assert (parsed.schema, parsed.alerts) == (rebuilt.schema, rebuilt.alerts)
        assert decoded(parsed.columns()) == decoded(rebuilt.columns())
        assert parsed.transactions() == rebuilt.transactions()
        assert written(write_log, parsed) == written(write_log, rebuilt)
        ranked = [ScoredAlert(tid, 0, 0.0, parsed.n - tid) for tid in reversed(range(parsed.n))]
        assert written(write_ranked, ranked, parsed, "simple") == written(
            write_ranked, ranked, rebuilt, "simple"
        )

    def test_datasets_compare_and_hash_by_identity(self):
        parsed = parse_log(io.StringIO(SNORT_SAMPLE), snort_schema()).dataset
        twin = parse_log(io.StringIO(SNORT_SAMPLE), snort_schema()).dataset
        assert parsed != twin and len({parsed, twin, parsed}) == 2
        assert "alerts" not in parsed.__dict__  # neither built an Alert
        assert AlertDataset(parsed.schema, parsed.alerts) != parsed

    def test_parsed_and_built_datasets_refuse_assignment_and_deletion(self):
        parsed = parse_log(io.StringIO(SNORT_SAMPLE), snort_schema()).dataset
        for dataset in (parsed, AlertDataset(parsed.schema, parsed.alerts)):
            for name in ("schema", "alerts"):
                with pytest.raises(FrozenInstanceError):
                    setattr(dataset, name, getattr(dataset, name))
                with pytest.raises(FrozenInstanceError):
                    delattr(dataset, name)
            with pytest.raises(AttributeError):
                dataset.n = 0
            with pytest.raises(AttributeError):
                del dataset.n
            assert dataset.n == 3 and len(dataset.alerts) == 3


class TestWriteLogRefusals:
    @pytest.mark.parametrize(
        "values, field, message",
        [
            (("#x", "1"), "sig", "starts with the comment prefix '#'"),
            (("p\rq", "1"), "sig", "holds '\\r'"),
            (("p\nq", "1"), "sig", "holds '\\n'"),
            (("a\tb", "1"), "sig", "holds '\\t'"),
            (("a", "1\r"), "port", "holds '\\r'"),
            (("",), "sig", "is blank"),
            ((" ",), "sig", "is blank"),
        ],
        ids=[
            "comment-prefix", "carriage-return", "newline", "delimiter", "last-field",
            "one-field-empty", "one-field-space",
        ],
    )
    def test_unframable_value_raises_and_keeps_target(self, values, field, message, tmp_path):
        schema = AttributeSchema(two_col_schema().fields[: len(values)])
        dataset = AlertDataset(schema, (Alert(0, ("x", "2")[: len(values)]), Alert(1, values)))
        path = tmp_path / "log.tsv"
        path.write_text("old\t1\n", encoding="utf-8")
        with pytest.raises(AlertFpError) as info:
            write_log(path, dataset)
        assert str(info.value).startswith(f"cannot write tid 1 field '{field}': value ")
        assert str(info.value).endswith(message)
        assert path.read_text(encoding="utf-8") == "old\t1\n"
        assert [entry.name for entry in tmp_path.iterdir()] == ["log.tsv"]

    @pytest.mark.parametrize("delimiter", DELIMITERS, ids=["tab", "comma", "pipe", "space"])
    @pytest.mark.parametrize("value", ["", " ", "\t", "\x0b", "\x1c", "\u3000", " x ", "0"])
    def test_one_field_line_is_refused_or_reads_back(self, value, delimiter, tmp_path):
        schema = AttributeSchema(two_col_schema().fields[:1])
        dataset = AlertDataset(schema, (Alert(0, ("a",)), Alert(1, (value,)), Alert(2, ("b",))))
        path = tmp_path / "log.txt"
        try:
            write_log(path, dataset, delimiter=delimiter)
        except AlertFpError as exc:
            assert str(exc).startswith("cannot write tid 1 field 'sig': ")
            assert not path.exists()
        else:
            assert parse_log(path, schema, delimiter=delimiter).dataset.n == 3


#: Delimiters that could never frame a record, with check_delimiter's
#: message: a line starting with "#" is a comment, "\n" and "\r" end a
#: line, and no UTF-8 file holds a lone surrogate.
NOT_FRAMING = "delimiter must not be '#', '\\n' or '\\r'"
UNFRAMING = [
    ("#", NOT_FRAMING),
    ("\n", NOT_FRAMING),
    ("\r", NOT_FRAMING),
    ("\udcff", "delimiter must not be a lone surrogate, which UTF-8 cannot encode"),
]
UNFRAMING_IDS = ["hash", "newline", "return", "surrogate"]


class TestRejectsReport:
    def test_format(self, tmp_path):
        result = parse_log(io.StringIO("web\t80\nbad\n"), two_col_schema())
        path = tmp_path / "rejects.tsv"
        write_rejects(path, result.rejects)
        line = path.read_text(encoding="utf-8").rstrip("\n")
        number, reason = line.split("\t", 1)
        assert number == "2"
        assert "fields" in reason


class TestLogFormat:
    def test_delimiter_must_be_single_char(self):
        with pytest.raises(ValueError):
            check_delimiter("||")

    @pytest.mark.parametrize("delimiter, message", UNFRAMING, ids=UNFRAMING_IDS)
    def test_parse_log_refuses_unframing_delimiter(self, delimiter, message):
        with pytest.raises(ValueError) as info:
            parse_log(io.StringIO("x#y\n#z\n"), two_col_schema(), delimiter=delimiter)
        assert str(info.value) == message

    @pytest.mark.parametrize("delimiter, message", UNFRAMING, ids=UNFRAMING_IDS)
    def test_write_log_refuses_unframing_delimiter_and_keeps_target(
        self, delimiter, message, tmp_path
    ):
        dataset = AlertDataset(two_col_schema(), (Alert(0, ("x", "2")), Alert(1, ("", "3"))))
        path = tmp_path / "log.txt"
        path.write_text("old\t1\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            write_log(path, dataset, delimiter=delimiter)
        assert str(info.value) == message
        assert path.read_text(encoding="utf-8") == "old\t1\n"
        assert [entry.name for entry in tmp_path.iterdir()] == ["log.txt"]

    @pytest.mark.parametrize("delimiter", ["", "ab", "\t\t"], ids=["empty", "two", "two-tabs"])
    def test_every_reader_and_writer_refuses_a_long_delimiter(self, delimiter, tmp_path):
        dataset = AlertDataset(two_col_schema(), (Alert(0, ("x", "2")),))
        ranked = [ScoredAlert(0, 0, 0.0, 1)]
        calls = [
            lambda: parse_log(io.StringIO("x\t2\n"), two_col_schema(), delimiter=delimiter),
            lambda: write_log(tmp_path / "log.txt", dataset, delimiter=delimiter),
            lambda: write_ranked(tmp_path / "ranked.tsv", ranked, dataset, "simple", delimiter),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^delimiter must be a single character$"):
                call()
        assert not list(tmp_path.iterdir())


class TestSchemaConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.schema"
        write_schema(path, snort_schema())
        assert load_schema(path) == snort_schema()

    def test_comments_and_blanks_skipped(self):
        text = "# layout\n\nsig\tcategorical\nport\tnumeric\n"
        schema = load_schema(io.StringIO(text))
        assert schema.field_count == 2
        assert schema.fields[1].kind is FieldKind.NUMERIC

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError) as info:
            load_schema(io.StringIO("sig\tfancy\n"))
        assert "line 1" in str(info.value)

    def test_malformed_line_rejected(self):
        with pytest.raises(SchemaError):
            load_schema(io.StringIO("sig categorical\n"))

    def test_empty_config_rejected(self):
        with pytest.raises(SchemaError):
            load_schema(io.StringIO("# nothing\n"))


# --- parse_log against a per-line reference, over several blocks ----------

ODD_SCHEMAS = {
    "five-fields": AttributeSchema(
        (
            SchemaField("sig", FieldKind.CATEGORICAL),
            SchemaField("cid", FieldKind.IDENTIFIER),
            SchemaField("port", FieldKind.NUMERIC),
            SchemaField("ts", FieldKind.TIMESTAMP),
            SchemaField("note", FieldKind.IGNORE),
        )
    ),
    "one-field": AttributeSchema((SchemaField("port", FieldKind.NUMERIC),)),
}
ODD_POOLS = {
    FieldKind.CATEGORICAL: ["web", " web ", "ssh", "null", "", "WEB-MISC/doc/access"],
    FieldKind.NUMERIC: ["80", "080", " 8,0 ", "443", "null", "-0"],
    FieldKind.TIMESTAMP: [
        "6/11/2010 8:57 AM", " 6/11/2010  8:57 am ", "6/11/2010 8:57:31 AM", "7/1/2010 9:02PM",
        "null", "",
    ],
    FieldKind.IDENTIFIER: ["1", " 2 ", "", "null"],
    FieldKind.IGNORE: ["x", " y ", ""],
}
ODD_KINDS = [
    "blank", "spaces", "spaces-and-delimiter", "comment", "comment-with-delimiters", "crlf",
    "lone-cr", "not-utf8", "non-ascii", "too-many", "too-few", "late-bad-value", "bad-value",
    "two-bad-values",
]


def odd_log(seed: int, schema: AttributeSchema, delimiter: str) -> tuple[bytes, list]:
    """A log of several parse blocks (as bytes) and, per line, its odd kind
    or None. Around every block boundary it places a run of odd lines, so
    odd lines end one block and start the next; the kinds take turns."""
    rng = random.Random(seed)
    turns = cycle(rng.sample(ODD_KINDS, len(ODD_KINDS)))
    kinds = [f.kind for f in schema.fields]
    words = kinds[0] is not FieldKind.NUMERIC
    serial = count()

    def record(put=()):
        values = [rng.choice(ODD_POOLS[kind]) for kind in kinds]
        if words:
            values[0] = rng.choice([values[0], f"sig{rng.randrange(400)}"])
        for index, value in put:
            values[index] = value
        return delimiter.join(values)

    def odd(kind):
        if kind == "blank":
            return "", "\n"
        if kind == "spaces":
            return " " * rng.randint(1, 3), "\n"
        if kind == "spaces-and-delimiter":
            return f" {delimiter} ", "\n"
        if kind == "comment":
            return "# note", rng.choice(["\n", "\r\n"])
        if kind == "comment-with-delimiters":
            return "#" + record(), "\n"
        if kind == "crlf":
            return record(), "\r\n"
        if kind == "lone-cr":
            return record(), "\r"
        if kind == "not-utf8":  # each byte that is not UTF-8 reads as a lone surrogate
            return record([(0, "w" + rng.choice(["\udcff", "\udcc3", "\udce2\udc82"]))]), "\n"
        if kind == "non-ascii":
            return record([(0, "café" if words else "٨٠")]), "\n"
        if kind == "too-many":
            return record() + delimiter + "extra", "\n"
        if kind == "too-few":  # a one-field line is blank or holds too many
            return delimiter.join(["web"] * (len(kinds) - 1)) or "web" + delimiter, "\n"
        # a bad value in a later column of a line whose first value occurs
        # nowhere else, a bad value in every column that can hold one, or a
        # bad value seen on many lines
        bad = {FieldKind.NUMERIC: "eighty", FieldKind.TIMESTAMP: "yesterday"}
        late = [i for i, k in enumerate(kinds) if k in bad][-1]
        if kind == "late-bad-value" and late > 0:
            return record([(0, f"only{next(serial)}"), (late, bad[kinds[late]])]), "\n"
        if kind == "two-bad-values":
            return record([(i, bad[k]) for i, k in enumerate(kinds) if k in bad]), "\n"
        return record([(late, rng.choice(["8x", bad[kinds[late]]]))]), "\n"

    lines: list[str] = []
    odd_kinds: list[str | None] = []

    def add(near):
        kind = next(turns) if near else None
        text, end = odd(kind) if near else (record(), "\n")
        if lines and lines[-1].endswith("\r") and not text:
            text = " "  # "\r" then "\n" would read as one "\r\n" line end
        lines.append(text + end)
        odd_kinds.append(kind)
        return len(lines[-1])

    length = 0  # characters of the current block so far, as readlines counts them
    for _ in range(3):
        while True:
            size = add(near=_BLOCK - length < 300)
            if size > _BLOCK - length:  # readlines(_BLOCK) ends a block with this line
                break
            length += size
        length = sum(add(near=True) for _ in range(rng.randint(1, 6)))
    for _ in range(rng.randint(1, 40)):
        add(near=False)
    if seed % 2:  # the last line without a line end
        lines[-1] = lines[-1].rstrip("\n")
    return "".join(lines).encode("utf-8", "surrogateescape"), odd_kinds


def reference_parse(data: bytes, schema: AttributeSchema, delimiter: str):
    """The log rules of parse_log's docstring and the README, one line at a
    time: (rejects as (line number, reason), each record's values, each
    record's items)."""
    text = data.decode("utf-8", "surrogateescape")
    lines = re.split("\r\n|\r|\n", text)
    if lines[-1] == "":
        lines.pop()
    rejects, records, items = [], [], []
    for number, line in enumerate(lines, start=1):
        if not line.strip() and delimiter not in line:
            continue  # blank
        if line.startswith("#"):
            continue  # comment
        surrogates = [char for char in line if "\ud800" <= char <= "\udfff"]
        if surrogates:
            rejects.append((number, f"not valid UTF-8 (byte 0x{ord(surrogates[0]) - 0xDC00:02x})"))
            continue
        fields = line.split(delimiter)
        if len(fields) != schema.field_count:
            rejects.append((number, f"expected {schema.field_count} fields, got {len(fields)}"))
            continue
        values, record_items = [], set()
        for index, (raw, f) in enumerate(zip(fields, schema.fields)):
            if f.kind not in ITEMIZABLE_KINDS:
                values.append(raw.strip())
                continue
            try:
                value = canonicalize_value(raw, f.kind)
                parts = (value,)
                if f.kind is FieldKind.TIMESTAMP and value != NULL_VALUE:
                    parts = split_timestamp(value)
            except ValueParseError as exc:
                rejects.append((number, f"{exc} (field {f.name!r})"))
                break
            values.append(value)
            record_items.update((index, part) for part in parts)
        else:
            records.append(tuple(values))
            items.append(frozenset(record_items))
    return rejects, records, items


def items_from_codes(dataset):
    """Each alert's items as its column codes spell them."""
    items = [set() for _ in range(dataset.n)]
    for column in dataset.columns():
        for tid, code in enumerate(column.codes):
            items[tid].add((column.field_index, column.keys[code]))
            if column.times is not None and column.times[code] is not None:
                items[tid].add((column.field_index, column.times[code]))
    return [frozenset(i) for i in items]


class TestBlocksAgainstAPerLineReference:
    """parse_log reads a block of lines at a time and codes it column by
    column; a line's fate must not depend on its block."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "shape, delimiter",
        [("five-fields", "\t"), ("five-fields", "§"), ("one-field", ",")],
        ids=["five-tab", "five-non-ascii-delimiter", "one-comma"],
    )
    def test_parse_log_equals_the_reference(self, shape, delimiter, seed, tmp_path):
        schema = ODD_SCHEMAS[shape]
        data, odd_kinds = odd_log(seed, schema, delimiter)
        log = tmp_path / "log.tsv"
        log.write_bytes(data)
        blocks = io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape", newline="")
        sizes = list(iter(lambda: len(blocks.readlines(_BLOCK)), 0))
        assert len(sizes) >= 4 and len(odd_kinds) == sum(sizes)
        ends = list(accumulate(sizes))[:-1]
        assert all(odd_kinds[end - 1] and odd_kinds[end] for end in ends)  # odd on both sides
        assert set(odd_kinds) == {None, *ODD_KINDS}

        result = parse_log(log, schema, delimiter)
        rejects, records, items = reference_parse(data, schema, delimiter)
        assert [(r.line_number, r.reason) for r in result.rejects] == rejects
        assert [a.values for a in result.dataset.alerts] == records
        assert [itemize(a, schema).items for a in result.dataset.alerts] == items
        assert items_from_codes(result.dataset) == items


def wide_log(case: str) -> bytes:
    """A five-fields log in which port keeps to 256 distinct values, or
    reaches its 257th (99999), once, where `case` says: on line 257,
    inside the first block; on the first line of the second block; on a
    line rejected for a bad timestamp; or never. sig keeps to 5 values
    and ts to 3."""
    stamps = ["6/11/2010 8:57 AM", "6/11/2010 9:02 PM", "null"]

    def line(k, port, stamp=None):
        return f"sig{k % 5}\t{k}\t{port}\t{stamp or stamps[k % 3]}\tnote\n"

    lines = [line(k, 1000 + k % 256) for k in range(3000)]
    stream = io.TextIOWrapper(io.BytesIO("".join(lines).encode()), "utf-8", newline="")
    first = len(stream.readlines(_BLOCK))  # the lines of the first block parse_log reads
    assert 300 < first < 2900  # so the first block holds all 256 ports
    if case == "inside-a-block":
        lines[256] = line(256, 99999)
    elif case == "first-line-of-block-two":
        lines[first] = line(first, 99999)
    elif case == "on-a-rejected-line":
        lines[300] = line(300, 99999, "yesterday")
    return "".join(lines).encode()


class TestByteAndIntColumns:
    """A column keeps its codes as bytes while it has at most 256 distinct
    raw values, and as ints from the block that brings the 257th; either
    form codes, counts and mines as the per-line reference does."""

    FORMS = {  # sig, port, ts
        "inside-a-block": (bytes, tuple, bytes),
        "first-line-of-block-two": (bytes, tuple, bytes),
        "on-a-rejected-line": (bytes, tuple, bytes),
        "never": (bytes, bytes, bytes),
    }

    @pytest.mark.parametrize("case", FORMS)
    def test_either_form_equals_the_reference(self, case, tmp_path):
        schema = ODD_SCHEMAS["five-fields"]
        data = wide_log(case)
        log = tmp_path / "log.tsv"
        log.write_bytes(data)
        result = parse_log(log, schema)
        rejects, records, items = reference_parse(data, schema, "\t")
        assert [(r.line_number, r.reason) for r in result.rejects] == rejects
        assert [a.values for a in result.dataset.alerts] == records
        assert items_from_codes(result.dataset) == items
        ds = result.dataset
        columns = ds.columns()
        assert tuple(type(c.codes) for c in columns) == self.FORMS[case]
        port = columns[1]
        assert len(port.values) == (256 if case == "never" else 257)
        if case == "on-a-rejected-line":  # the 257th value's line is rejected
            assert rejects == [(301, "not a recognized timestamp: 'yesterday' (field 'ts')")]
            assert 256 not in port.codes
        for column in columns:
            if type(column.codes) is bytes:
                assert sys.getsizeof(column.codes) <= ds.n + 64
        for s in (1, 2, 40):
            assert build_candidates_1(ds, s) == build_candidates_1(list(ds.transactions()), s)
        config = MiningConfig(minisupport=2)
        assert mine(ds, config) == brute_force_mine(ds, config)

        # built from its Alerts, the dataset codes them as one block: port is
        # bytes exactly when its alerts hold at most 256 distinct values
        built = AlertDataset(schema, ds.alerts)
        held = len({a.values[2] for a in ds.alerts})
        assert tuple(type(c.codes) for c in built.columns()) == (
            bytes, bytes if held <= 256 else tuple, bytes
        )
        for s in (1, 2, 40):
            assert build_candidates_1(built, s) == build_candidates_1(ds, s)


CODER_SCHEMA = AttributeSchema(
    (
        SchemaField("sig", FieldKind.CATEGORICAL),
        SchemaField("cid", FieldKind.IDENTIFIER),
        SchemaField("port", FieldKind.NUMERIC),
        SchemaField("ts", FieldKind.TIMESTAMP),
    )
)
# Each column's spellings that are not their own canonical value, or not a
# value at all, and a few that are. "8\n0" only a dataset built from Alerts
# can hold; it must not read as two lines of a joined block.
CODER_SPELLINGS = {
    "sig": ["web", " web ", "web ", "\tssh", "NULL", "Null", "null", "", "  ", "٨٠", "a b"],
    "cid": ["1", " 2 ", "", "null"],
    "port": [
        "007", "+7", "-0", "0", "-5", "1,234", "1,,2", ",", " 80 ", "NULL", "Null", "null", "",
        "٨٠", "8٠", "9" * 5000, "1" * 18, "1" * 19, "eighty", "8\n0", "-",
    ],
    "ts": ["6/11/2010 8:57 AM", " 6/11/2010  8:57 am ", "6/11/2010 8:57:31 AM", "null", "NULL",
           "", "yesterday", "6/22/2010 99:99 PM", "06/11/2010 08:57 AM", "6/01/2010 1:00 PM",
           "6/11/2010 0:57 AM", "06/01/2010 00:30 PM"],
}
PLAIN = {
    "sig": st.integers(0, 40).map("sig{}".format),
    "cid": st.integers(1, 9).map(str),
    "port": st.integers(-60, 400).map(str),
    "ts": st.builds("6/{}/2010 {}:{:02d} PM".format, st.integers(1, 3), st.integers(1, 12),
                    st.integers(0, 59)),
}


def burst(start, odd):
    """A block of 300 rows whose ports are all new plain values but for
    `odd`, if given, on its 150th row."""
    rows = [(f"sig{k % 7}", "1", str(start + k), "6/1/2010 1:00 PM") for k in range(300)]
    if odd is not None:
        rows[150] = rows[150][:2] + (odd,) + rows[150][3:]
    return rows


@st.composite
def coder_blocks(draw):
    """Blocks of rows: each value plain or one of its column's spellings,
    and now and then a block that brings more than 256 new ports at once."""
    row = st.tuples(*(PLAIN[name] | st.sampled_from(CODER_SPELLINGS[name]) for name in PLAIN))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 4)) == 0:
            odd = st.none() | st.sampled_from(CODER_SPELLINGS["port"])
            blocks.append(burst(draw(st.integers(-300, 10**6)), draw(odd)))
        else:
            blocks.append(draw(st.lists(row, max_size=8)))
    return blocks


# one block per spelling, each spelling the only value of its block that
# is new and not plain, so a block test that took it as read would code it
# as read; then a burst with no odd value and one with a bad value
ONE_SPELLING_A_BLOCK = [
    [("sig0", "1", "1", "6/1/2010 1:00 PM"), (sig, cid, port, "6/1/2010 1:00 PM")]
    for sig, cid, port in zip(
        cycle(CODER_SPELLINGS["sig"]), cycle(CODER_SPELLINGS["cid"]), CODER_SPELLINGS["port"]
    )
] + [burst(1000, None), burst(5000, "eighty")]


class PerValueCoder:
    """A column coded one distinct raw value at a time through _value_step:
    the reference the block coder must equal."""

    def __init__(self, f):
        self.field = f
        self.codes, self.values, self.keys, self.times, self.errors = {}, [], [], [], {}
        self.committed = []

    def code(self, raw):
        if raw not in self.codes:
            try:
                value, key, time = _value_step(raw, self.field.kind)
            except ValueParseError as exc:
                self.errors[raw] = f"{exc} (field {self.field.name!r})"
                self.codes[raw] = None
            else:
                self.codes[raw] = len(self.values)
                self.values.append(value)
                self.keys.append(key)
                self.times.append(time)
        return self.codes[raw]


class TestCoderAgainstAPerValueReference:
    """A block's new raw values are tested as a block, and take their codes
    at once when each is its own canonical value: every code, value, key,
    time, error and rejected row is what the per-value step gives, and the
    column turns from bytes to ints at the block that brings its 257th
    value."""

    @settings(max_examples=200, deadline=None)
    @given(coder_blocks())
    @example(ONE_SPELLING_A_BLOCK)
    def test_block_coder_equals_a_per_value_coder(self, blocks):
        schema = CODER_SCHEMA
        coder = _BlockCoder(schema)
        reference = {i: PerValueCoder(schema.fields[i]) for i in schema.itemizable_indexes()}
        cids = []
        for rows in blocks:
            rejects = []
            for row, values in enumerate(rows):
                codes = {i: column.code(values[i]) for i, column in reference.items()}
                bad = [i for i, code in codes.items() if code is None]
                if bad:
                    rejects.append((row, reference[bad[0]].errors[values[bad[0]]]))
                    continue
                for i, code in codes.items():
                    reference[i].committed.append(code)
                cids.append(values[1])
            failed = coder.commit([value for values in rows for value in values])
            assert [(row, str(error)) for row, error in failed] == rejects
            for column in coder.coders:
                expected = reference[column.index]
                assert dict(column) == expected.codes
                assert column.values == expected.values
                assert column.keys == expected.keys
                assert column.times == expected.times
                assert {raw: str(e) for raw, e in column.errors.items()} == expected.errors
                assert list(column.codes) == expected.committed
                narrow = len(expected.values) <= 256
                assert type(column.codes) is (bytearray if narrow else list)
        assert coder.raws == {1: cids} and coder.rows == len(cids)
        for column in coder.columns():
            expected = reference[column.field_index]
            assert type(column.codes) is (bytes if len(expected.values) <= 256 else tuple)
            assert list(column.codes) == expected.committed
            assert column.keys == tuple(expected.keys)
            if expected.field.kind is FieldKind.TIMESTAMP:
                assert column.times == tuple(expected.times)
                assert column.values == tuple(expected.values)
            else:
                assert column.times is None and column.values == column.keys


@pytest.mark.parametrize(
    "rows, error, message",
    [
        (
            [("web", "80"), ("ssh", "eighty"), ("web",), ("dns", "8x")],
            ValueParseError,
            "not a numeric value: 'eighty' (field 'port', tid 1)",
        ),
        (
            [("web", "80"), ("ssh", "22", "x"), ("web", "eighty")],
            SchemaError,
            "alert tid 1 has 3 values, schema defines 2 fields",
        ),
    ],
    ids=["value-first", "width-first"],
)
def test_alert_built_dataset_fails_at_its_lowest_failing_tid(rows, error, message):
    dataset = AlertDataset(two_col_schema(), tuple(map(Alert, count(), rows)))
    with pytest.raises(error) as info:
        dataset.columns()
    assert str(info.value) == message
    assert "_columns" not in dataset.__dict__


def test_parse_log_holds_one_block_of_fields_at_a_time(tmp_path):
    """parse_log keeps what the dataset needs and one block of the log; a
    parse that read the whole file or split all its fields at once would
    hold several times more."""
    dataset, _ = gen_synthetic(SyntheticSpec(30_000, 5, 7, 3))
    path = tmp_path / "log.tsv"
    write_log(path, dataset)
    gc.collect()
    tracemalloc.start()
    try:
        parsed = parse_log(path, dataset.schema).dataset
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.n == 30_000
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_parse_log_keeps_a_byte_per_alert_in_a_column_of_at_most_256_values(tmp_path):
    """A column of at most 256 distinct values keeps one byte per alert,
    not an 8-byte pointer. On this log 8 of the 11 itemizable columns do,
    and what the parse keeps held about 5.05 MiB on Python 3.10 and 3.11
    (4.60 on 3.12), against about 6.66 (6.20) with every column of ints."""
    dataset, _ = gen_synthetic(SyntheticSpec(30_000, 5, 7, 3))
    path = tmp_path / "log.tsv"
    write_log(path, dataset)
    schema = dataset.schema
    del dataset
    gc.collect()
    tracemalloc.start()
    try:
        parsed = parse_log(path, schema).dataset
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    narrow = [column for column in parsed.columns() if len(column.values) <= 256]
    assert len(narrow) == 8
    assert all(sys.getsizeof(column.codes) <= parsed.n + 64 for column in narrow)
    assert held < 5.6 * 2**20, f"held {held / 2**20:.2f} MiB"
