import gc
import random
import re
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alertfp import textio
from alertfp.errors import (
    EmptyPatternSetError,
    ModelFormatError,
    SchemaMismatchError,
)
from alertfp.evaluate import SyntheticSpec, gen_synthetic
from alertfp.miner import MiningConfig, mine
from alertfp.model import (
    Alert,
    AlertDataset,
    AttributeSchema,
    FieldKind,
    Item,
    SchemaField,
    render_itemset,
    snort_schema,
)
from alertfp.scorer import PatternScorer, ScoreConfig, rank, rank_with_scorer
from alertfp.store import (
    ClassifierModel,
    load_model,
    save_model,
    schema_fingerprint,
    score_new,
)

from conftest import random_schema_dataset

FIXED_TIME = "2010-06-22T00:00:00+00:00"


def row_of(itemset, support_count, tids=None):
    """The row save_model writes for a pattern, with a tidlist column when tids is given."""
    tids_text = () if tids is None else (",".join(map(str, tids)),)
    return "\t".join((str(support_count), render_itemset(itemset), *tids_text))


@pytest.fixture
def sample_model(sample_dataset):
    fps = mine(sample_dataset, MiningConfig(minisupport=2))
    return ClassifierModel.from_pattern_set(
        fps, sample_dataset.schema, built_at=FIXED_TIME
    )


class TestFingerprint:
    def test_stable_for_equal_schemas(self):
        assert schema_fingerprint(snort_schema()) == schema_fingerprint(snort_schema())

    def test_snort_fingerprint_is_pinned(self):
        # every stored model carries it: a drift makes `score` refuse them all
        assert schema_fingerprint(snort_schema()) == (
            "fa98f7087ab93f288097b83d152a73f5f1fc44913cacb50447afee94547e78a7"
        )

    def test_sensitive_to_layout(self):
        a = AttributeSchema((SchemaField("x", FieldKind.CATEGORICAL),))
        b = AttributeSchema((SchemaField("x", FieldKind.NUMERIC),))
        assert schema_fingerprint(a) != schema_fingerprint(b)


class TestModelBuild:
    def test_basket_model_metadata(self, baskets4):
        fps = mine(baskets4, MiningConfig(minisupport=0.5))
        schema = AttributeSchema((SchemaField("basket", FieldKind.CATEGORICAL),))
        model = ClassifierModel.from_pattern_set(fps, schema)
        assert model.pattern_count == 9
        assert model.n_train == 4
        assert model.minisupport_abs == 2

    def test_sample_model_pattern_count(self, sample_model):
        assert sample_model.pattern_count == 319
        assert sample_model.n_train == 3

    def test_empty_pattern_set_refused_with_guidance(self, baskets4):
        empty = mine(baskets4, MiningConfig(minisupport=4))
        schema = AttributeSchema((SchemaField("basket", FieldKind.CATEGORICAL),))
        with pytest.raises(EmptyPatternSetError) as info:
            ClassifierModel.from_pattern_set(empty, schema)
        assert "minisupport" in str(info.value)


@pytest.fixture(scope="module")
def audited_600():
    """A 600-record one-profile log mined at 30: 511 patterns whose
    tidlists make a model file of about 1.2 MB."""
    dataset, _ = gen_synthetic(SyntheticSpec(600, 5, 1, 3))
    return dataset, mine(dataset, MiningConfig(minisupport=30))


@pytest.fixture
def tidlist_model(sample_dataset):
    fps = mine(sample_dataset, MiningConfig(minisupport=2))
    return ClassifierModel.from_pattern_set(
        fps, sample_dataset.schema, built_at=FIXED_TIME, include_tidlists=True
    )


#: Not downward closed, nor in canonical order: the first row walks from the
#: root and makes 0=a and 0=a,1=b as bare nodes, which the second row fills
#: from the root and the third fills as the child of its prefix row.
UNCLOSED_MODEL = ClassifierModel(
    "x", FIXED_TIME, 5, 2, ("2\t0=a,1=b,2=c", "4\t0=a", "3\t0=a,1=b", "2\t1=b,2=c")
)


#: files whose framing load_model refuses: name -> (text, line number, message)
OFF_LAYOUT = {
    "reordered-header": (
        "# alertfp-model v1\nminisupport=2\nn_train=5\nschema_fp=x\n"
        f"built_at={FIXED_TIME}\npatterns=1\n2\t0=a\n",
        2,
        "expected header line n_train=..., found 'minisupport=2'",
    ),
    "unknown-header-key": (
        "# alertfp-model v1\nn_train=5\nextra=1\nminisupport=2\nschema_fp=x\n"
        f"built_at={FIXED_TIME}\npatterns=1\n2\t0=a\n",
        3,
        "expected header line minisupport=..., found 'extra=1'",
    ),
    "missing-built-at": (
        "# alertfp-model v1\nn_train=5\nminisupport=2\nschema_fp=x\npatterns=1\n2\t0=a\n",
        5,
        "expected header line built_at=..., found 'patterns=1'",
    ),
    "blank-line-among-rows": (
        "# alertfp-model v1\nn_train=5\nminisupport=2\nschema_fp=x\n"
        f"built_at={FIXED_TIME}\npatterns=2\n2\t0=a\n\n2\t1=b\n",
        6,
        "header declares 2 patterns, file carries 3",
    ),
    "blank-line-counted-as-a-row": (
        "# alertfp-model v1\nn_train=5\nminisupport=2\nschema_fp=x\n"
        f"built_at={FIXED_TIME}\npatterns=3\n2\t0=a\n\n2\t1=b\n",
        8,
        "malformed pattern row",
    ),
    "no-final-newline": (
        "# alertfp-model v1\nn_train=5\nminisupport=2\nschema_fp=x\n"
        f"built_at={FIXED_TIME}\npatterns=1\n2\t0=a",
        7,
        "no newline at end of file",
    ),
    "header-cut-short": (
        "# alertfp-model v1\nn_train=5\nminisupport=2\n",
        4,
        "expected header line schema_fp=..., found ''",
    ),
    "other-version": (
        "# alertfp-model v2\nn_train=5\n",
        1,
        "expected '# alertfp-model v1', found '# alertfp-model v2'",
    ),
}


class TestSaveLoad:
    def test_round_trip_equality(self, sample_model, tmp_path):
        path = tmp_path / "model.fps"
        save_model(sample_model, path)
        loaded = load_model(path)
        assert loaded == sample_model
        assert sample_model == loaded
        assert hash(loaded) == hash(sample_model)

    def test_second_save_is_byte_identical(self, sample_model, tidlist_model, tmp_path):
        for model in (sample_model, tidlist_model, UNCLOSED_MODEL):
            first, second = tmp_path / "a.fps", tmp_path / "b.fps"
            save_model(model, first)
            save_model(load_model(first), second)
            assert first.read_bytes() == second.read_bytes()

    def test_unclosed_model_loads_the_trie_its_rows_build(self, tmp_path):
        path = tmp_path / "model.fps"
        save_model(UNCLOSED_MODEL, path)
        loaded = load_model(path)
        assert loaded.scorer._root == PatternScorer(UNCLOSED_MODEL.patterns, 5)._root
        assert loaded.scorer.count == 4
        assert loaded == UNCLOSED_MODEL

    def test_scoring_a_loaded_model_builds_no_patterns(
        self, sample_dataset, sample_model, tmp_path
    ):
        path = tmp_path / "model.fps"
        save_model(sample_model, path)
        loaded = load_model(path)
        ranked = score_new(sample_dataset, loaded)
        assert "patterns" not in loaded.__dict__
        assert f"patterns={loaded.pattern_count}" in path.read_text(encoding="utf-8").splitlines()
        assert ranked == score_new(sample_dataset, sample_model)
        assert loaded.patterns == sample_model.patterns
        assert "patterns" in loaded.__dict__

    # the derived views are not fields, but they are as read-only as the fields
    @pytest.mark.parametrize(
        "name", [f.name for f in fields(ClassifierModel)] + ["patterns", "scorer"]
    )
    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_model_is_frozen(self, name, loaded, tidlist_model, tmp_path):
        model = tidlist_model
        if loaded:
            save_model(model, tmp_path / "model.fps")
            model = load_model(tmp_path / "model.fps")
        with pytest.raises(FrozenInstanceError):
            setattr(model, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(model, name)
        assert model == tidlist_model

    def test_header_layout(self, sample_model, tmp_path):
        path = tmp_path / "model.fps"
        save_model(sample_model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# alertfp-model v1"
        assert lines[1] == "n_train=3"
        assert lines[2] == "minisupport=2"
        assert lines[3].startswith("schema_fp=")
        assert lines[4] == f"built_at={FIXED_TIME}"
        assert lines[5] == "patterns=319"
        support, items = lines[6].split("\t")
        assert support.isdigit()
        assert "=" in items

    def test_repeated_header_key_reports_line_number(self, sample_model, tmp_path):
        path = tmp_path / "model.fps"
        save_model(sample_model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(2, "n_train=9")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = re.escape("expected header line minisupport=..., found 'n_train=9'")
        with pytest.raises(ModelFormatError, match=message) as info:
            load_model(path)
        assert info.value.line_number == 3

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.fps"
        path.write_text("# alertfp-model v999\nn_train=4\n", encoding="utf-8")
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert "v999" in str(info.value)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "model.fps"
        path.write_text("hello\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "model.fps"
        path.write_bytes(b"")
        with pytest.raises(ModelFormatError, match="empty model file"):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value, line_number",
        [
            ("n_train", "abc", 2),
            ("n_train", "0_5", 2),
            ("minisupport", "+2", 3),
            ("minisupport", "02", 3),
            ("patterns", " 1", 6),
            ("patterns", "\u0661", 6),
        ],
        ids=["word", "underscore", "plus", "leading-zero", "space", "arabic-indic-digit"],
    )
    def test_header_integer_not_as_written_reports_line_number(
        self, key, value, line_number, tmp_path
    ):
        header = dict(n_train="5", minisupport="2", schema_fp="x", built_at=FIXED_TIME, patterns="1")
        header[key] = value
        path = tmp_path / "model.fps"
        path.write_text(
            "# alertfp-model v1\n" + "".join(f"{k}={v}\n" for k, v in header.items()) + "2\t0=a\n",
            encoding="utf-8",
        )
        message = re.escape(f"header {key}={value} is not an integer")
        with pytest.raises(ModelFormatError, match=message) as info:
            load_model(path)
        assert info.value.line_number == line_number

    @pytest.mark.parametrize("text, line_number, message", OFF_LAYOUT.values(), ids=list(OFF_LAYOUT))
    def test_off_layout_file_reports_line_number(self, text, line_number, message, tmp_path):
        path = tmp_path / "model.fps"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == f"line {line_number}: {message}"
        assert info.value.line_number == line_number

    @pytest.mark.parametrize("block_size", [1, 2, 5])
    def test_lines_that_straddle_blocks_load_as_one_block_does(
        self, block_size, tidlist_model, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(textio, "BLOCK_SIZE", block_size)
        path = tmp_path / "model.fps"
        save_model(tidlist_model, path)
        assert load_model(path) == tidlist_model
        cases = [("", None, "empty model file")] + [
            (text, line_number, f"line {line_number}: {message}")
            for text, line_number, message in OFF_LAYOUT.values()
        ]
        for text, line_number, message in cases:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ModelFormatError) as info:
                load_model(path)
            assert (str(info.value), info.value.line_number) == (message, line_number)

    def test_support_above_n_train_is_invariant_breach(self, sample_model, tmp_path):
        path = tmp_path / "model.fps"
        save_model(sample_model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        body = lines[6].split("\t")
        body[0] = "99"
        lines[6] = "\t".join(body)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert "99" in str(info.value)

    def test_corrupted_row_reports_line_number(self, sample_model, tmp_path):
        path = tmp_path / "model.fps"
        save_model(sample_model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[8] = "garbage without structure"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert info.value.line_number == 9

    @pytest.mark.parametrize(
        "rows, line_number, message",
        [
            (["2\t0=a,0=a"], 7, "not strictly ascending"),
            (["2\t1=b,0=a"], 7, "not strictly ascending"),
            (["2\t0=a", "2\t1=b", "2\t0=a"], 9, "repeats an earlier row"),
            (["2\t0=a,1=b", "2\t0=a,1=b"], 8, "repeats an earlier row"),
            (["11\t0=a,1=b"], 7, re.escape("support 11 outside [2, 5] for itemset 0=a,1=b")),
            (
                ["2\t0=a", "1\t1=b%2Cc"],
                8,
                re.escape("support 1 outside [2, 5] for itemset 1=b%2Cc"),
            ),
            (
                ["2\t0=a", "2\t1=b%2Cc,0=a"],
                8,
                re.escape("items of itemset 1=b%2Cc,0=a are not strictly ascending"),
            ),
            # integers that save_model never writes
            (["+3\t0=a"], 7, "malformed pattern row"),
            (["2\t0=a", " 3\t1=b"], 8, "malformed pattern row"),
            (["03\t0=a"], 7, "malformed pattern row"),
            (["1_0\t0=a"], 7, "malformed pattern row"),
            (["\u0663\t0=a"], 7, "malformed pattern row"),
            (["2\t\u0660=a"], 7, "malformed pattern row"),
            (["2\t0=a", "2\t0=a,01=b"], 8, "malformed pattern row"),
            # value text that save_model never writes
            (["2\t0=a%"], 7, re.escape("malformed item token '0=a%'")),
            (["2\t1=%41"], 7, re.escape("malformed item token '1=%41'")),
            (["2\t0=a", "2\t0=a,1=b%2c"], 8, re.escape("malformed item token '1=b%2c'")),
            (["2\t0=a=b"], 7, re.escape("malformed item token '0=a=b'")),
            # rows whose prefix is an earlier row
            (["2\t0=a", "2\t0=a,0=a"], 8, "not strictly ascending"),
            (["2\t1=b", "2\t1=b,0=a"], 8, "not strictly ascending"),
            (["2\t0=a", "2\t1=b", "2\t0=a,1=b", "2\t0=a,1=b"], 10, "repeats an earlier row"),
            (["2\t0=a", "2\t0=a,"], 8, re.escape("malformed item token ''")),
        ],
        ids=[
            "repeated-item",
            "descending-items",
            "repeated-1-itemset",
            "repeated-2-itemset",
            "support-above-n-train",
            "support-below-minisupport",
            "descending-escaped-value",
            "support-plus-sign",
            "support-space",
            "support-leading-zero",
            "support-underscore",
            "support-arabic-indic-digit",
            "field-arabic-indic-digit",
            "field-leading-zero",
            "value-lone-percent",
            "value-percent-41",
            "value-lowercase-escape",
            "value-raw-equals",
            "prefix-row-repeated-item",
            "prefix-row-descending-items",
            "prefix-row-repeated-2-itemset",
            "prefix-row-empty-last-token",
        ],
    )
    def test_non_canonical_row_reports_line_number(self, rows, line_number, message, tmp_path):
        path = tmp_path / "model.fps"
        path.write_text(
            f"# alertfp-model v1\nn_train=5\nminisupport=2\nschema_fp=x\n"
            f"built_at={FIXED_TIME}\npatterns={len(rows)}\n" + "\n".join(rows) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ModelFormatError, match=message) as info:
            load_model(path)
        assert info.value.line_number == line_number

    @pytest.mark.parametrize(
        "rows, line_number, message",
        [
            (["3\t0=a\t0,1,99,-4"], 7, "is not 3 strictly ascending tids in \\[0, 5\\)"),
            (["3\t0=a\t0,1"], 7, "tidlist of itemset 0=a is not 3"),
            (["3\t0=a\t0,2,1"], 7, "tidlist of itemset 0=a is not 3"),
            (["3\t0=a\t0,1,1"], 7, "tidlist of itemset 0=a is not 3"),
            (["2\t0=a\t0,5"], 7, "tidlist of itemset 0=a is not 2"),
            (["2\t0=a\t-1,0"], 7, "tidlist of itemset 0=a is not 2"),
            (["2\t0=a\t0,1", "2\t1=b%2Cc\t"], 8, re.escape("tidlist of itemset 1=b%2Cc is not 2")),
            (["2\t0=a\t0,1", "2\t1=b"], 8, "malformed pattern row"),
            (["2\t0=a", "2\t1=b\t0,1"], 8, "malformed pattern row"),
            # tidlists that save_model never writes
            (["2\t0=a\t0,,1"], 7, "malformed tidlist"),
            (["2\t0=a\t0,1,"], 7, "malformed tidlist"),
            (["2\t0=a\t0,+1"], 7, "malformed tidlist"),
            (["2\t0=a\t0,01"], 7, "malformed tidlist"),
            (["2\t0=a\t0,\u0661"], 7, "malformed tidlist"),
            (["2\t0=a\tx,1"], 7, "malformed tidlist"),
            (["2\t0=a\t00,1"], 7, "malformed tidlist"),
            (["2\t0=a\t-0,1"], 7, "malformed tidlist"),
            (["2\t0=a\t0, 1"], 7, "malformed tidlist"),
            (["2\t0=a\t0,1_0"], 7, "malformed tidlist"),
        ],
        ids=[
            "more-tids-than-support",
            "fewer-tids-than-support",
            "descending",
            "repeated-tid",
            "tid-past-n-train",
            "negative-tid",
            "empty-tidlist",
            "tidlist-column-dropped",
            "tidlist-column-added",
            "tid-empty-between-commas",
            "tid-trailing-comma",
            "tid-plus-sign",
            "tid-leading-zero",
            "tid-arabic-indic-digit",
            "tid-word",
            "first-tid-leading-zero",
            "tid-minus-zero",
            "tid-space",
            "tid-underscore",
        ],
    )
    def test_inconsistent_tidlist_reports_line_number(self, rows, line_number, message, tmp_path):
        path = tmp_path / "model.fps"
        path.write_text(
            f"# alertfp-model v1\nn_train=5\nminisupport=2\nschema_fp=x\n"
            f"built_at={FIXED_TIME}\npatterns={len(rows)}\n" + "\n".join(rows) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ModelFormatError, match=message) as info:
            load_model(path)
        assert info.value.line_number == line_number

    @pytest.mark.parametrize(
        "model, save_message, load_message",
        [
            (
                ClassifierModel("x", FIXED_TIME, 5, 2, ("2\t0=a", "2\t1=b,0=a")),
                "items of itemset 1=b,0=a are not strictly ascending",
                "line 8: items of itemset 1=b,0=a are not strictly ascending",
            ),
            (
                ClassifierModel("x", FIXED_TIME, 5, 2, ("2\t0=a", "3\t0=a")),
                "itemset 0=a repeats an earlier row",
                "line 8: itemset 0=a repeats an earlier row",
            ),
            (
                ClassifierModel("x", FIXED_TIME, 5, 2, ("2\t",)),
                "malformed item token ''",
                "line 7: malformed item token ''",
            ),
            (
                ClassifierModel("x", FIXED_TIME, 5, 2, ("9\t0=a",)),
                "support 9 outside [2, 5] for itemset 0=a",
                "line 7: support 9 outside [2, 5] for itemset 0=a",
            ),
            (
                ClassifierModel("x", FIXED_TIME, 0, 0, ("0\t7=a",)),
                "n_train 0 is below 1",
                "n_train 0 is below 1",
            ),
            (
                ClassifierModel("x", FIXED_TIME, 5, -3, ("-2\t9=6",)),
                "minisupport -3 outside [1, 5]",
                "minisupport -3 outside [1, 5]",
            ),
            (
                ClassifierModel("x", FIXED_TIME, 5, 0, ("1\t0=a",)),
                "minisupport 0 outside [1, 5]",
                "minisupport 0 outside [1, 5]",
            ),
            (
                ClassifierModel("x", FIXED_TIME, 5, 6, ("6\t0=a",)),
                "minisupport 6 outside [1, 5]",
                "minisupport 6 outside [1, 5]",
            ),
            (
                ClassifierModel("x", FIXED_TIME, 5, 2, ("3\t0=a\t0,1,99,-4",)),
                "tidlist of itemset 0=a is not 3 strictly ascending tids in [0, 5)",
                "line 7: tidlist of itemset 0=a is not 3 strictly ascending tids in [0, 5)",
            ),
            (
                # the first row carries a tidlist, so every row must
                ClassifierModel("x", FIXED_TIME, 5, 2, ("2\t0=a\t0,1", "2\t1=b")),
                "malformed pattern row",
                "line 8: malformed pattern row",
            ),
            (
                ClassifierModel("x", FIXED_TIME, 5, 2, ()),
                "model contains no patterns",
                "model contains no patterns",
            ),
        ],
        ids=[
            "descending-itemset",
            "repeated-itemset",
            "empty-itemset",
            "support-above-n-train",
            "n-train-0",
            "negative-minisupport",
            "minisupport-0",
            "minisupport-above-n-train",
            "inconsistent-tidlist",
            "tidlist-on-some-rows",
            "no-patterns",
        ],
    )
    def test_save_refuses_what_load_refuses(
        self, model, save_message, load_message, tmp_path, monkeypatch
    ):
        path = tmp_path / "model.fps"
        with pytest.raises(ModelFormatError) as info:
            save_model(model, path)
        assert str(info.value) == save_message
        assert not list(tmp_path.iterdir())
        # the bytes save would have written, had it not checked
        monkeypatch.setattr(ClassifierModel, "scorer", None)
        save_model(model, path)
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == load_message

    def test_save_refuses_support_out_of_bounds(self, tmp_path):
        model = ClassifierModel("x", FIXED_TIME, 5, 2, ("9\t0=a",))
        path = tmp_path / "model.fps"
        with pytest.raises(ModelFormatError, match="support 9 outside"):
            save_model(model, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "fingerprint, built_at, message",
        [
            ("x", "2010\nfoo", "header built_at '2010\\nfoo' holds a newline"),
            ("x\n", FIXED_TIME, "header schema_fp 'x\\n' holds a newline"),
        ],
        ids=["built-at", "schema-fp"],
    )
    def test_save_refuses_a_newline_in_a_header_string(
        self, fingerprint, built_at, message, tmp_path
    ):
        # the line would end at the newline, so load could not read the file back
        model = ClassifierModel(fingerprint, built_at, 5, 2, ("2\t0=a",))
        with pytest.raises(ModelFormatError) as info:
            save_model(model, tmp_path / "model.fps")
        assert str(info.value) == message
        assert not list(tmp_path.iterdir())

    def test_pattern_count_mismatch_detected(self, sample_model, tmp_path):
        path = tmp_path / "model.fps"
        save_model(sample_model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        del lines[6]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_values_with_delimiters_escape_cleanly(self, tmp_path):
        schema = AttributeSchema(
            (
                SchemaField("sig", FieldKind.CATEGORICAL),
                SchemaField("note", FieldKind.CATEGORICAL),
            )
        )
        nasty = "a=b,c%d\te"
        ds = AlertDataset(
            schema, (Alert(0, ("x", nasty)), Alert(1, ("x", nasty)))
        )
        fps = mine(ds, MiningConfig(minisupport=2))
        model = ClassifierModel.from_pattern_set(fps, schema, built_at=FIXED_TIME)
        path = tmp_path / "model.fps"
        save_model(model, path)
        assert load_model(path) == model

    def test_tidlists_persisted_when_asked(self, sample_dataset, tmp_path):
        fps = mine(sample_dataset, MiningConfig(minisupport=2))
        model = ClassifierModel.from_pattern_set(
            fps, sample_dataset.schema, built_at=FIXED_TIME, include_tidlists=True
        )
        path = tmp_path / "model.fps"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        tidlists = [row.split("\t")[2] for row in loaded.rows]
        assert tidlists[0] == ",".join(map(str, fps.patterns[0].tidlist))
        txns = sample_dataset.transactions()
        for (itemset, _), tids in zip(loaded.patterns, tidlists, strict=True):
            assert tids == ",".join(str(t.tid) for t in txns if t.items >= set(itemset))

    def test_audited_save_holds_about_one_copy_of_its_rows(self, audited_600, tmp_path):
        """An audited model renders each row from its own pattern and is
        written row by row. A build that held every tid tuple before the
        first row, or a save that joined the whole file into one string,
        peaked at about 7 times the file on this log."""
        dataset, fps = audited_600
        assert sum(fps.supports) > 300_000  # tids written
        path = tmp_path / "model.fps"
        gc.collect()
        tracemalloc.start()
        try:
            model = ClassifierModel.from_pattern_set(
                fps, dataset.schema, built_at=FIXED_TIME, include_tidlists=True
            )
            save_model(model, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < 3 * size, f"peak {peak / size:.2f} times the {size}-byte file"

    def test_audited_load_holds_about_one_copy_of_the_file(self, audited_600, tmp_path):
        """load_model reads the file a block at a time into its lines. A
        load that read the whole text before splitting it held both, and
        peaked at about 2.3 times the file on this log."""
        dataset, fps = audited_600
        path = tmp_path / "model.fps"
        model = ClassifierModel.from_pattern_set(
            fps, dataset.schema, built_at=FIXED_TIME, include_tidlists=True
        )
        save_model(model, path)
        del model
        gc.collect()
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < 1.5 * size, f"peak {peak / size:.2f} times the {size}-byte file"

    def test_atomic_write_replaces_not_appends(self, sample_model, tmp_path):
        path = tmp_path / "model.fps"
        save_model(sample_model, path)
        first = path.read_bytes()
        save_model(sample_model, path)
        assert path.read_bytes() == first
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("rows", [["2\t0=a", "2\t0=a,1=b"], ["2\t0=a", "2\t0=a,0=a"]])
    def test_load_leaves_the_collector_as_it_was(self, enabled, rows, tmp_path):
        path = tmp_path / "model.fps"
        path.write_text(
            f"# alertfp-model v1\nn_train=5\nminisupport=2\nschema_fp=x\n"
            f"built_at={FIXED_TIME}\npatterns={len(rows)}\n" + "\n".join(rows) + "\n",
            encoding="utf-8",
        )
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                load_model(path)
            except ModelFormatError:
                pass
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()


#: items whose tokens sort as the items do, one of them escaped
PROBE_ITEMS = [Item(0, "a"), Item(0, "b"), Item(1, ","), Item(2, "a")]


@st.composite
def hand_built_models(draw):
    """Models as a caller may build them: no patterns, empty, descending or
    repeated itemsets, supports just outside [minisupport, n_train], bad
    tidlists, rows that disagree on the tidlist column, and rows that are
    fine."""
    n_train = draw(st.integers(0, 5))
    low, high = (1, n_train) if n_train and draw(st.booleans()) else (-1, n_train + 1)
    minisupport = draw(st.integers(low, high))
    ascending = st.lists(st.sampled_from(PROBE_ITEMS), min_size=1, max_size=3, unique=True)
    anyhow = st.lists(st.sampled_from(PROBE_ITEMS), max_size=3)
    itemsets = st.one_of(ascending.map(sorted), ascending.map(sorted), anyhow)
    supports = st.integers(min(minisupport, n_train), n_train) | st.integers(minisupport - 1, n_train + 1)
    patterns = draw(st.lists(st.tuples(itemsets.map(tuple), supports), max_size=5))
    # a tidlist rides as a row's third column: on no row, on every row, or
    # on some rows, which the first row's column count refuses
    carries = draw(st.sampled_from([st.just(False), st.just(True), st.booleans()]))
    tidlists = st.lists(st.integers(-1, n_train))
    rows = tuple(
        row_of(
            itemset,
            support,
            draw(st.just(tuple(range(support))) | tidlists) if draw(carries) else None,
        )
        for itemset, support in patterns
    )
    return ClassifierModel("x", FIXED_TIME, n_train, minisupport, rows)


class TestSaveLoadAgreeProperty:
    """save_model refuses a model exactly when load_model refuses the bytes
    save would have written unchecked, and with load's message less its
    line number."""

    @settings(max_examples=300, deadline=None)
    @given(hand_built_models())
    @example(ClassifierModel("x", FIXED_TIME, 5, 2, ("2\t",)))
    def test_save_refuses_exactly_what_load_refuses(self, model):
        with tempfile.TemporaryDirectory() as scratch:
            checked, unchecked = Path(scratch, "a.fps"), Path(scratch, "b.fps")
            try:
                save_model(model, checked)
                save_error = None
            except ModelFormatError as exc:
                save_error = str(exc)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ClassifierModel, "scorer", None)
                save_model(model, unchecked)
            try:
                loaded = load_model(unchecked)
                load_error = None
            except ModelFormatError as exc:
                load_error = re.sub(r"^line [0-9]+: ", "", str(exc))
            assert save_error == load_error
            if save_error is None:
                assert loaded == model
                assert checked.read_bytes() == unchecked.read_bytes()


# framing characters, their escape codes as literal text, and line breaks
# other than "\n" that the escaping leaves alone
ESCAPE_PROBES = [
    "%", "%2C", "%252C", ",", "=", "%3D", "\t", "\n", "%0A", "\r", "\r\n",
    "\x0c", "\x85", "\u2028", "a=b,c%d\te", "",
]


class TestEscapingProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from(ESCAPE_PROBES) | st.text(), min_size=1, max_size=12, unique=True)
    )
    # tokens that differ only in escaping ("0=%2C" vs "0=%252C") stay two items
    @example([",", "%2C", "%252C", "%", "%25"])
    def test_arbitrary_values_round_trip(self, values):
        items = sorted(Item(index, value) for value in values for index in (0, 1))
        rows = tuple(row_of((item,), 2) for item in items) + (row_of(items, 3),)
        model = ClassifierModel("x", FIXED_TIME, 5, 2, rows)
        with tempfile.TemporaryDirectory() as scratch:
            first, second = Path(scratch, "a.fps"), Path(scratch, "b.fps")
            save_model(model, first)
            loaded = load_model(first)
            save_model(loaded, second)
            assert first.read_bytes() == second.read_bytes()
        assert loaded == model


class TestLoadedTrieProperty:
    """A loaded model's scorer is the scorer of its rows, whether each row
    hangs on its prefix row's node or, lacking one, is walked from the root."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        drop=st.sampled_from([0.0, 0.3, 0.7]),
        tidlists=st.booleans(),
    )
    def test_loaded_scorer_matches_built_scorer(self, seed, drop, tidlists):
        rng = random.Random(seed)
        ds = random_schema_dataset(rng)
        # the first column is constant, so every threshold keeps a pattern
        fps = mine(ds, MiningConfig(minisupport=rng.randint(1, ds.n)))
        kept = [p for p in fps if rng.random() >= drop] or [fps.patterns[-1]]
        rows = tuple(
            row_of(p.itemset, p.support_count, p.tidlist if tidlists else None) for p in kept
        )
        model = ClassifierModel("x", FIXED_TIME, fps.n, fps.minisupport_abs, rows)
        if len(kept) == fps.count:
            expected = PatternScorer.from_pattern_set(fps)
        else:  # rows whose prefix row was dropped take the walk from the root
            expected = PatternScorer(model.patterns, fps.n)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch, "m.fps")
            save_model(model, path)
            loaded = load_model(path)
        assert loaded == model
        assert model == loaded
        assert hash(loaded) == hash(model)
        assert loaded.scorer._root == expected._root
        assert loaded.scorer._frequent == expected._frequent
        assert loaded.scorer.count == expected.count


def novel_alert(tid):
    """An alert that shares no value with the sample log."""
    return Alert(
        tid,
        ("3", "99", "999", "EXPLOIT/brand-new", "77", "9",
         "9/9/2010 3:33 PM", "42", "43", "17", "1", "1"),
    )


class TestScoreNew:
    def test_training_set_scores_identically_to_rank(self, sample_dataset, sample_model):
        fps = mine(sample_dataset, MiningConfig(minisupport=2))
        direct = rank(sample_dataset, fps)
        via_model = score_new(sample_dataset, sample_model)
        assert direct == via_model

    def test_unseen_signature_ranks_first(self, sample_dataset, sample_model):
        novel = novel_alert(3)
        extended = AlertDataset(
            sample_dataset.schema, sample_dataset.alerts + (novel,)
        )
        ranked = score_new(extended, sample_model)
        assert ranked[0].tid == 3
        assert ranked[0].simple_fpof == 0
        assert ranked[0].fpof == 0.0

    def test_duplicating_pattern_relevant_items_reproduces_score(
        self, sample_dataset, sample_model
    ):
        # same items as t2 except the identifier and the unique-valued
        # columns; stored patterns never mention those, so the score matches
        t2 = sample_dataset.alerts[1].values
        clone = list(t2)
        clone[1] = "77"           # cid (identifier)
        clone[7] = "999999999"    # ip_src, unique in training
        clone[10] = "59,999"      # sport, unique in training
        extended = AlertDataset(
            sample_dataset.schema, sample_dataset.alerts + (Alert(3, tuple(clone)),)
        )
        ranked = score_new(extended, sample_model)
        by_tid = {sa.tid: sa for sa in ranked}
        assert by_tid[3].simple_fpof == by_tid[1].simple_fpof == 319
        assert by_tid[3].fpof == by_tid[1].fpof

    def test_identifier_change_never_moves_score(self, sample_dataset, sample_model):
        mutated = [list(a.values) for a in sample_dataset.alerts]
        for row in mutated:
            row[1] = str(int(row[1]) + 500)
        remade = AlertDataset(
            sample_dataset.schema,
            tuple(Alert(i, tuple(row)) for i, row in enumerate(mutated)),
        )
        assert score_new(remade, sample_model) == score_new(sample_dataset, sample_model)

    def test_model_builds_its_scorer_once(
        self, sample_dataset, sample_model, scorer_builds, tmp_path
    ):
        first = score_new(sample_dataset, sample_model)
        save_model(sample_model, tmp_path / "model.fps")
        assert score_new(sample_dataset, sample_model) == first
        assert len(scorer_builds) == 1

    def test_fingerprint_gate(self, sample_dataset, sample_model):
        other_schema = AttributeSchema(
            tuple(
                SchemaField(f.name, FieldKind.CATEGORICAL)
                for f in sample_dataset.schema.fields
            )
        )
        remade = AlertDataset(other_schema, sample_dataset.alerts)
        with pytest.raises(SchemaMismatchError):
            score_new(remade, sample_model)
        forced = score_new(remade, sample_model, force_schema=True)
        assert len(forced) == 3

    @pytest.mark.parametrize("metric", ["simple", "fpof"])
    def test_scores_as_the_transactions_do(self, metric, sample_dataset, sample_model):
        # score_new keys a dataset off its column codes; a parsed dataset,
        # one built from Alerts, and one forced past the fingerprint under
        # a schema whose columns differ must rank as their transactions do
        config = ScoreConfig(metric)
        # the timestamp gives one item, not a date and a time, and cid gives one too
        kinds = {"timestamp": FieldKind.CATEGORICAL, "cid": FieldKind.CATEGORICAL}
        fields = sample_dataset.schema.fields
        other_schema = AttributeSchema(
            tuple(SchemaField(f.name, kinds.get(f.name, f.kind)) for f in fields)
        )
        built = AlertDataset(sample_dataset.schema, sample_dataset.alerts)
        forced = AlertDataset(other_schema, sample_dataset.alerts)
        novel = AlertDataset(sample_dataset.schema, (novel_alert(0),))
        for ds in (sample_dataset, built, forced, novel):
            ranked = score_new(ds, sample_model, config, force_schema=True)
            scorer = PatternScorer(sample_model.patterns, sample_model.n_train)
            assert ranked == rank_with_scorer(list(ds.transactions()), scorer, config)
        # forced, the alerts keep their other columns' items, but not their dates and times
        forced_ranked = score_new(forced, sample_model, config, force_schema=True)
        simple = [sa.simple_fpof for sa in forced_ranked]
        assert 0 < min(simple) and max(simple) < 255

    def test_ratio_denominator_is_training_size(self, sample_dataset, sample_model):
        single = AlertDataset(sample_dataset.schema, sample_dataset.alerts[:1])
        scored = score_new(single, sample_model)[0]
        direct = rank(sample_dataset, mine(sample_dataset, MiningConfig(minisupport=2)))
        assert scored.fpof == next(sa for sa in direct if sa.tid == 0).fpof


class TestRandomizedPersistence:
    def test_round_trip_and_self_consistency_corpus(self, tmp_path):
        rng = random.Random(0xC0DE)
        done = 0
        while done < 20:
            ds = random_schema_dataset(rng)
            fps = mine(ds, MiningConfig(minisupport=rng.randint(1, ds.n)))
            if fps.count == 0:
                continue
            model = ClassifierModel.from_pattern_set(
                fps, ds.schema, built_at=FIXED_TIME
            )
            first = tmp_path / f"m{done}a.fps"
            second = tmp_path / f"m{done}b.fps"
            save_model(model, first)
            save_model(load_model(first), second)
            assert first.read_bytes() == second.read_bytes()
            assert score_new(ds, model) == rank(ds, fps)
            done += 1
