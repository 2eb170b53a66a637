import io
import os
import random
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import alertfp
import alertfp.cli
from alertfp.cli import build_parser, main
from alertfp.ingest import parse_log
from alertfp.model import Alert, snort_schema
from alertfp.scorer import read_ranked
from alertfp.store import load_model, schema_fingerprint
from alertfp.textio import atomic_write

from conftest import SNORT_SAMPLE


class TestMineCommand:
    def test_sample_mine_writes_model(self, sample_log_path, snort_schema_path, tmp_path, capsys):
        out = tmp_path / "model.fps"
        code = main(
            [
                "mine",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--minisupport", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        model = load_model(out)
        assert model.pattern_count == 319
        diag = capsys.readouterr().err
        assert "319 patterns" in diag

    def test_mine_builds_no_alert(self, sample_log_path, snort_schema_path, tmp_path, monkeypatch):
        built = []
        original = Alert.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Alert, "__init__", counting_init)
        argv = ["--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        assert main(["mine", *argv, "--minisupport", "2", "--out", str(tmp_path / "m.fps")]) == 0
        assert built == []
        result = parse_log(io.StringIO(SNORT_SAMPLE + "not a record\n"), snort_schema())
        assert (result.dataset.n, len(result.rejects)) == (3, 1)
        assert "alerts" not in result.dataset.__dict__ and built == []
        assert len(result.dataset.alerts) == len(built) == 3

    def test_percentage_minisupport(self, sample_log_path, snort_schema_path, tmp_path):
        out = tmp_path / "model.fps"
        code = main(
            [
                "mine",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--minisupport", "100%",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert load_model(out).pattern_count == 63

    def test_missing_input_is_usage_error(self, capsys):
        assert main(["mine", "--out", "x.fps"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unreadable_input_is_data_error(self, snort_schema_path, tmp_path):
        code = main(
            [
                "mine",
                "--input", str(tmp_path / "missing.tsv"),
                "--schema", str(snort_schema_path),
                "--out", str(tmp_path / "m.fps"),
            ]
        )
        assert code == 2

    def test_max_patterns_off_disables_the_guard(
        self, sample_log_path, snort_schema_path, tmp_path
    ):
        out = tmp_path / "model.fps"
        code = main(
            [
                "mine",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--minisupport", "2",
                "--max-patterns", "off",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert load_model(out).pattern_count == 319

    def test_guard_trip_is_exit_3(self, sample_log_path, snort_schema_path, tmp_path, capsys):
        code = main(
            [
                "mine",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--minisupport", "2",
                "--max-patterns", "10",
                "--out", str(tmp_path / "m.fps"),
            ]
        )
        assert code == 3
        assert "minisupport" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mine", "--minisupport", "0"],
        ["mine", "--minisupport", "150%"],
        ["rank", "--top-p", "0"],
        ["rank", "--top-p", "nan"],
        ["rank", "--top-p", "abc"],
        ["sweep", "--minisupport", "5,abc"],
        ["sweep", "--minisupport", ","],
        ["mine", "--max-pattern-len", "0"],
        ["rank", "--max-pattern-len", "2"],
        ["mine", "--max-patterns", "-5"],
        ["mine", "--delimiter", "ab"],
        ["mine", "--workers", "4"],
        ["rank", "--workers", "4"],
        ["sweep", "--workers", "4", "--minisupport", "5"],
    ],
    ids="_".join,
)
def test_bad_value_is_a_usage_error_before_any_output(
    argv, sample_log_path, snort_schema_path, tmp_path, capsys
):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    args = argv + [
        "--input", str(sample_log_path),
        "--schema", str(snort_schema_path),
        "--out", str(out_dir / "result"),
    ]
    if argv[0] == "sweep":
        args += ["--attacks", str(tmp_path / "attacks.txt")]
    assert main(args) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and argv[1] in errors[0]
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "delimiter, message",
    [
        ("#", "delimiter must not be '#'"),
        ("\n", "delimiter must not be '#'"),
        ("\r", "delimiter must not be '#'"),
        # what a byte that is not UTF-8 decodes to on a command line
        ("\udcff", "delimiter must not be a lone surrogate, which UTF-8 cannot encode"),
    ],
    ids=["hash", "newline", "return", "surrogate"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["mine"],
        ["rank"],
        ["score", "--model", "model.fps"],
        ["sweep", "--minisupport", "2", "--attacks", "attacks.txt"],
        ["eval", "--ranked", "ranked.tsv", "--attacks", "attacks.txt"],
    ],
    ids=lambda argv: argv[0],
)
def test_unframing_delimiter_is_a_usage_error_before_any_output(
    argv, delimiter, message, sample_log_path, snort_schema_path, tmp_path, capsys
):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    args = argv + [
        "--delimiter", delimiter,
        "--input", str(sample_log_path),
        "--schema", str(snort_schema_path),
    ]
    if argv[0] != "eval":
        args += ["--out", str(out_dir / "result")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"argument --delimiter: {message}" in errors[0]
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--records", "0"),
        ("--attacks", "0"),
        ("--profiles", "0"),
        ("--records", "-3"),
        ("--records", "abc"),
        ("--attacks", "50"),
    ],
    ids=str,
)
def test_gen_bad_count_is_a_usage_error_before_any_output(flag, value, tmp_path, capsys):
    counts = {"--records": "50", "--attacks": "2", "--profiles": "3", flag: value}
    assert_gen_usage_error(counts, flag, tmp_path, capsys)


@pytest.mark.parametrize(
    "counts",
    [
        {"--records": "3", "--attacks": "5"},
        {"--records": "1"},
        {"--records": "200", "--attacks": "150"},
    ],
    ids=["attacks-above-records", "default-attacks-above-records", "above-100-attacks"],
)
def test_gen_attack_limits_are_usage_errors_before_any_output(counts, tmp_path, capsys):
    assert_gen_usage_error(counts, "--attacks", tmp_path, capsys)


def assert_gen_usage_error(counts, flag, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    args = ["gen", "--seed", "1"] + [part for pair in counts.items() for part in pair] + [
        "--out", str(out_dir / "log.tsv"),
        "--attacks-out", str(out_dir / "attacks.txt"),
        "--schema-out", str(out_dir / "log.schema"),
    ]
    assert main(args) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]
    assert list(out_dir.iterdir()) == []


class TestRankCommand:
    def test_sample_order(self, sample_log_path, snort_schema_path, tmp_path):
        out = tmp_path / "ranked.tsv"
        code = main(
            [
                "rank",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--minisupport", "2",
                "--score", "simple",
                "--out", str(out),
            ]
        )
        assert code == 0
        ranked = read_ranked(out)
        assert [r.tid for r in ranked.rows] == [2, 0, 1]
        assert [r.simple_fpof for r in ranked.rows] == [127, 255, 319]

    def test_top_p_writes_candidates(self, sample_log_path, snort_schema_path, tmp_path):
        out = tmp_path / "ranked.tsv"
        candidates = tmp_path / "cands.txt"
        code = main(
            [
                "rank",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--minisupport", "2",
                "--top-p", "33",
                "--candidates-out", str(candidates),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert candidates.read_text(encoding="utf-8") == "2\n"

    def test_idempotent_given_same_inputs(self, sample_log_path, snort_schema_path, tmp_path):
        args = [
            "rank",
            "--input", str(sample_log_path),
            "--schema", str(snort_schema_path),
            "--minisupport", "2",
        ]
        out1, out2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestScoreCommand:
    def test_self_scoring_matches_rank(self, sample_log_path, snort_schema_path, tmp_path):
        model = tmp_path / "model.fps"
        ranked_a = tmp_path / "a.tsv"
        ranked_b = tmp_path / "b.tsv"
        base = [
            "--input", str(sample_log_path),
            "--schema", str(snort_schema_path),
        ]
        assert main(["mine", *base, "--minisupport", "2", "--out", str(model)]) == 0
        assert main(["rank", *base, "--minisupport", "2", "--out", str(ranked_a)]) == 0
        assert main(["score", *base, "--model", str(model), "--out", str(ranked_b)]) == 0
        assert ranked_a.read_bytes() == ranked_b.read_bytes()

    def test_schema_mismatch_is_exit_4(self, sample_log_path, snort_schema_path, tmp_path):
        model = tmp_path / "model.fps"
        assert (
            main(
                [
                    "mine",
                    "--input", str(sample_log_path),
                    "--schema", str(snort_schema_path),
                    "--minisupport", "2",
                    "--out", str(model),
                ]
            )
            == 0
        )
        other_schema = tmp_path / "other.schema"
        lines = snort_schema_path.read_text(encoding="utf-8").replace(
            "sport\tnumeric", "sport\tcategorical"
        )
        other_schema.write_text(lines, encoding="utf-8")
        args = [
            "score",
            "--input", str(sample_log_path),
            "--schema", str(other_schema),
            "--model", str(model),
            "--out", str(tmp_path / "r.tsv"),
        ]
        assert main(args) == 4
        assert main(args + ["--force-schema"]) == 0

    def test_unseen_alert_ranks_first(self, sample_log_path, snort_schema_path, tmp_path):
        model = tmp_path / "model.fps"
        assert (
            main(
                [
                    "mine",
                    "--input", str(sample_log_path),
                    "--schema", str(snort_schema_path),
                    "--minisupport", "2",
                    "--out", str(model),
                ]
            )
            == 0
        )
        extended = tmp_path / "extended.tsv"
        novel = "3\t9\t999\tEXPLOIT/new-probe\t0\t9\t9/9/2010 3:33 PM\t5\t6\t17\t2\t2\n"
        extended.write_text(SNORT_SAMPLE + novel, encoding="utf-8")
        out = tmp_path / "ranked.tsv"
        code = main(
            [
                "score",
                "--input", str(extended),
                "--schema", str(snort_schema_path),
                "--model", str(model),
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_ranked(out).rows
        assert rows[0].tid == 3
        assert rows[0].simple_fpof == 0

    def test_repeated_itemset_in_model_is_exit_2(
        self, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        model = tmp_path / "model.fps"
        model.write_text(
            "# alertfp-model v1\nn_train=5\nminisupport=2\n"
            f"schema_fp={schema_fingerprint(snort_schema())}\n"
            "built_at=2010-06-22T00:00:00+00:00\npatterns=3\n"
            "2\t0=a\n2\t0=a\n2\t1=b,0=a\n",
            encoding="utf-8",
        )
        out = tmp_path / "ranked.tsv"
        code = main(
            [
                "score",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--model", str(model),
                "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "alertfp: line 8: itemset 0=a repeats an earlier row"
        ]
        assert not out.exists()


    def test_model_header_out_of_range_is_exit_2(
        self, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        model = tmp_path / "model.fps"
        model.write_text(
            "# alertfp-model v1\nn_train=0\nminisupport=0\n"
            f"schema_fp={schema_fingerprint(snort_schema())}\n"
            "built_at=2010-06-22T00:00:00+00:00\npatterns=1\n0\t7=a\n",
            encoding="utf-8",
        )
        out = tmp_path / "ranked.tsv"
        code = main(
            [
                "score",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--model", str(model),
                "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["alertfp: n_train 0 is below 1"]
        assert not out.exists()

    def test_off_layout_model_is_exit_2(
        self, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        model = tmp_path / "model.fps"
        model.write_text(
            "# alertfp-model v1\nn_train=5\nminisupport=2\n"
            f"schema_fp={schema_fingerprint(snort_schema())}\npatterns=1\n2\t0=a\n",
            encoding="utf-8",
        )
        out = tmp_path / "ranked.tsv"
        code = main(
            [
                "score",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--model", str(model),
                "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "alertfp: line 5: expected header line built_at=..., found 'patterns=1'"
        ]
        assert not out.exists()

    def test_score_builds_one_scorer(
        self, sample_log_path, snort_schema_path, tmp_path, scorer_builds
    ):
        model = tmp_path / "model.fps"
        assert main(
            [
                "mine",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--minisupport", "2",
                "--out", str(model),
            ]
        ) == 0
        scorer_builds.clear()  # the one save_model built to check the model
        assert main(
            [
                "score",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--model", str(model),
                "--out", str(tmp_path / "ranked.tsv"),
            ]
        ) == 0
        assert len(scorer_builds) == 1


class TestEvalCommand:
    def test_prints_ranks_and_reduction(
        self, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        ranked = tmp_path / "ranked.tsv"
        assert (
            main(
                [
                    "rank",
                    "--input", str(sample_log_path),
                    "--schema", str(snort_schema_path),
                    "--minisupport", "2",
                    "--out", str(ranked),
                ]
            )
            == 0
        )
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("2\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["eval", "--ranked", str(ranked), "--attacks", str(attacks)])
        assert code == 0
        out = capsys.readouterr().out
        assert "attack_ranks=1" in out
        assert "reduction=66.667" in out

    def test_truncated_ranked_file_is_exit_2(
        self, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        ranked = tmp_path / "ranked.tsv"
        args = ["--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        assert main(["rank", *args, "--minisupport", "2", "--out", str(ranked)]) == 0
        lines = ranked.read_text(encoding="utf-8").splitlines(keepends=True)
        ranked.write_text("".join(lines[:-1]), encoding="utf-8")
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("2\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--ranked", str(ranked), "--attacks", str(attacks)]) == 2
        assert "n=3 but carries 2 rows" in capsys.readouterr().err

    def test_repeated_tid_in_ranked_file_is_exit_2(
        self, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        ranked = tmp_path / "ranked.tsv"
        args = ["--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        assert main(["rank", *args, "--minisupport", "2", "--out", str(ranked)]) == 0
        lines = ranked.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = "3" + lines[2][1:]  # row 3 carries row 2's tid
        ranked.write_text("".join(lines), encoding="utf-8")
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("2\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--ranked", str(ranked), "--attacks", str(attacks)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "alertfp: ranked file line 4: malformed row"
        ]

    def test_attack_tid_too_long_is_exit_2(
        self, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        ranked = tmp_path / "ranked.tsv"
        args = ["--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        assert main(["rank", *args, "--minisupport", "2", "--out", str(ranked)]) == 0
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("2\n" + "9" * 4400 + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--ranked", str(ranked), "--attacks", str(attacks)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "alertfp: attack tid of 4400 digits is too long"
        ]

    @pytest.mark.parametrize("given", ["--input", "--schema"])
    def test_log_without_its_schema_is_a_usage_error(
        self, given, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        ranked = tmp_path / "ranked.tsv"
        paths = {"--input": str(sample_log_path), "--schema": str(snort_schema_path)}
        args = [part for pair in paths.items() for part in pair]
        assert main(["rank", *args, "--minisupport", "2", "--out", str(ranked)]) == 0
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("2\n", encoding="utf-8")
        capsys.readouterr()
        eval_args = ["eval", "--ranked", str(ranked), "--attacks", str(attacks)]
        assert main([*eval_args, given, paths[given]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == ["alertfp eval: error: eval takes --input and --schema together, or neither"]

    def test_delimiter_without_input_is_a_usage_error(
        self, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        ranked = tmp_path / "ranked.tsv"
        args = ["--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        assert main(["rank", *args, "--minisupport", "2", "--out", str(ranked)]) == 0
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("2\n", encoding="utf-8")
        capsys.readouterr()
        eval_args = ["eval", "--ranked", str(ranked), "--attacks", str(attacks)]
        assert main([*eval_args, "--delimiter", ","]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == ["alertfp eval: error: eval takes --delimiter only with --input"]

    def test_input_rejects_are_reported(self, sample_log_path, snort_schema_path, tmp_path, capsys):
        ranked = tmp_path / "ranked.tsv"
        args = ["--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        assert main(["rank", *args, "--minisupport", "2", "--out", str(ranked)]) == 0
        log = tmp_path / "log.tsv"
        log.write_text(SNORT_SAMPLE + "short\tline\n", encoding="utf-8")
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("cid=3\n", encoding="utf-8")
        rejects = tmp_path / "rejects.tsv"
        eval_args = ["eval", "--ranked", str(ranked), "--attacks", str(attacks)]
        log_args = ["--input", str(log), "--schema", str(snort_schema_path)]
        capsys.readouterr()
        assert main([*eval_args, *log_args]) == 0
        assert capsys.readouterr().err == "alertfp: rejected 1 line(s)\n"
        assert main([*eval_args, *log_args, "--rejects-out", str(rejects)]) == 0
        captured = capsys.readouterr()
        assert "attack_ranks=1" in captured.out
        assert captured.err == "alertfp: rejected 1 line(s)\n"
        assert rejects.read_text(encoding="utf-8").startswith("4\t")

    def test_rejects_out_without_input_is_a_usage_error(
        self, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        ranked = tmp_path / "ranked.tsv"
        args = ["--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        assert main(["rank", *args, "--minisupport", "2", "--out", str(ranked)]) == 0
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("2\n", encoding="utf-8")
        rejects = tmp_path / "rejects.tsv"
        capsys.readouterr()
        eval_args = ["eval", "--ranked", str(ranked), "--attacks", str(attacks)]
        assert main([*eval_args, "--rejects-out", str(rejects)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == ["alertfp eval: error: eval takes --rejects-out only with --input"]
        assert not rejects.exists()

    def test_rejects_out_that_is_an_input_is_refused(
        self, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        ranked = tmp_path / "ranked.tsv"
        args = ["--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        assert main(["rank", *args, "--minisupport", "2", "--out", str(ranked)]) == 0
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("2\n", encoding="utf-8")
        before = ranked.read_bytes()
        capsys.readouterr()
        eval_args = ["eval", "--ranked", str(ranked), "--attacks", str(attacks), *args]
        assert main([*eval_args, "--rejects-out", str(ranked)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert re.search(" --rejects-out '.*' is the same file as --ranked '", errors[0])
        assert ranked.read_bytes() == before

    def test_delimiter_frames_the_input_log(
        self, sample_log_path, snort_schema_path, tmp_path, capsys
    ):
        ranked = tmp_path / "ranked.tsv"
        args = ["--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        assert main(["rank", *args, "--minisupport", "2", "--out", str(ranked)]) == 0
        piped = tmp_path / "piped.tsv"
        piped.write_text(sample_log_path.read_text(encoding="utf-8").replace("\t", "|"), "utf-8")
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("cid=3\n", encoding="utf-8")
        capsys.readouterr()
        eval_args = ["eval", "--ranked", str(ranked), "--attacks", str(attacks)]
        log_args = ["--input", str(piped), "--schema", str(snort_schema_path)]
        assert main([*eval_args, *log_args, "--delimiter", "|"]) == 0
        assert "attack_ranks=1" in capsys.readouterr().out

    def test_cid_selector_requires_log(self, sample_log_path, snort_schema_path, tmp_path, capsys):
        ranked = tmp_path / "ranked.tsv"
        main(
            [
                "rank",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--minisupport", "2",
                "--out", str(ranked),
            ]
        )
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("cid=3\n", encoding="utf-8")
        assert main(["eval", "--ranked", str(ranked), "--attacks", str(attacks)]) == 2
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--ranked", str(ranked),
                "--attacks", str(attacks),
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
            ]
        )
        assert code == 0
        assert "attack_ranks=1" in capsys.readouterr().out

    def test_unknown_selector_is_exit_2(self, sample_log_path, snort_schema_path, tmp_path):
        ranked = tmp_path / "ranked.tsv"
        main(
            [
                "rank",
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
                "--minisupport", "2",
                "--out", str(ranked),
            ]
        )
        attacks = tmp_path / "attacks.txt"
        attacks.write_text("cid=777\n", encoding="utf-8")
        code = main(
            [
                "eval",
                "--ranked", str(ranked),
                "--attacks", str(attacks),
                "--input", str(sample_log_path),
                "--schema", str(snort_schema_path),
            ]
        )
        assert code == 2


def module_env(**extra):
    """The environment for `python -m alertfp` to run this alertfp."""
    src = str(Path(alertfp.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def gen_log(tmp_path):
    """A seeded 400-record gen log: (log, attacks, schema) paths."""
    log = tmp_path / "syn.tsv"
    attacks = tmp_path / "attacks.txt"
    schema = tmp_path / "syn.schema"
    assert (
        main(
            [
                "gen",
                "--records", "400",
                "--attacks", "3",
                "--profiles", "4",
                "--seed", "3",
                "--out", str(log),
                "--attacks-out", str(attacks),
                "--schema-out", str(schema),
            ]
        )
        == 0
    )
    return log, attacks, schema


class TestSweepCommand:
    def test_report_rows_non_increasing(self, tmp_path):
        log, attacks, schema = gen_log(tmp_path)
        report = tmp_path / "sweep.tsv"
        code = main(
            [
                "sweep",
                "--input", str(log),
                "--schema", str(schema),
                "--minisupport", "8,20,45,120",
                "--attacks", str(attacks),
                "--out", str(report),
            ]
        )
        assert code == 0
        rows = [
            line.split("\t")
            for line in report.read_text(encoding="utf-8").splitlines()
        ]
        assert len(rows) == 4
        counts = [int(r[1]) for r in rows if r[1] != "-"]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_unknown_attack_tid_is_exit_2_without_a_report(self, tmp_path, capsys):
        log, _, schema = gen_log(tmp_path)
        attacks = tmp_path / "bad.txt"
        attacks.write_text("999999\n", encoding="utf-8")
        capsys.readouterr()
        report = tmp_path / "sweep.tsv"
        code = main(
            [
                "sweep",
                "--input", str(log),
                "--schema", str(schema),
                "--minisupport", "8,20",
                "--attacks", str(attacks),
                "--out", str(report),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "alertfp: unknown attack tid(s): [999999]"
        ]
        assert not report.exists()

    def test_non_ascii_digit_attack_tid_is_exit_2_without_a_report(self, tmp_path, capsys):
        # int() reads ARABIC-INDIC DIGIT ONE as 1; a tid takes ASCII digits only
        log, _, schema = gen_log(tmp_path)
        attacks = tmp_path / "arabic.txt"
        attacks.write_text("\u0661\n", encoding="utf-8")
        capsys.readouterr()
        report = tmp_path / "sweep.tsv"
        code = main(
            [
                "sweep",
                "--input", str(log),
                "--schema", str(schema),
                "--minisupport", "8,20",
                "--attacks", str(attacks),
                "--out", str(report),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "alertfp: unknown attack selector '\u0661'"
        ]
        assert not report.exists()


class TestGenCommand:
    def test_same_seed_byte_identical(self, tmp_path):
        first_log, second_log = tmp_path / "a.tsv", tmp_path / "b.tsv"
        first_attacks, second_attacks = tmp_path / "a.txt", tmp_path / "b.txt"
        for log, attacks in ((first_log, first_attacks), (second_log, second_attacks)):
            assert (
                main(
                    [
                        "gen",
                        "--records", "200",
                        "--attacks", "2",
                        "--profiles", "3",
                        "--seed", "77",
                        "--out", str(log),
                        "--attacks-out", str(attacks),
                    ]
                )
                == 0
            )
        assert first_log.read_bytes() == second_log.read_bytes()
        assert first_attacks.read_bytes() == second_attacks.read_bytes()

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        def gen_args(stem):
            return [
                "gen", "--records", "40", "--seed", "5",
                "--out", str(tmp_path / f"{stem}.tsv"),
                "--attacks-out", str(tmp_path / f"{stem}.txt"),
            ]

        completed = subprocess.run(
            [sys.executable, "-m", "alertfp", *gen_args("module")],
            env=module_env(), capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert main(gen_args("direct")) == 0
        for suffix in (".tsv", ".txt"):
            assert (tmp_path / f"module{suffix}").read_bytes() == (
                tmp_path / f"direct{suffix}"
            ).read_bytes()

    def test_generated_log_parses_under_generated_schema(self, tmp_path):
        log = tmp_path / "syn.tsv"
        attacks = tmp_path / "attacks.txt"
        schema = tmp_path / "syn.schema"
        main(
            [
                "gen",
                "--records", "50",
                "--attacks", "1",
                "--profiles", "2",
                "--seed", "1",
                "--out", str(log),
                "--attacks-out", str(attacks),
                "--schema-out", str(schema),
            ]
        )
        out = tmp_path / "ranked.tsv"
        code = main(
            [
                "rank",
                "--input", str(log),
                "--schema", str(schema),
                "--minisupport", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert read_ranked(out).n == 50


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """The miner and the scorer build sets and dicts of Items, whose order
    the hash seed decides; no output byte may follow it."""
    log, attacks, schema = (str(tmp_path / name) for name in ("log.tsv", "a.txt", "log.schema"))
    gen = ["gen", "--records", "1500", "--seed", "1", "--out", log, "--attacks-out", attacks]
    assert main([*gen, "--schema-out", schema]) == 0
    io_args = ["--input", log, "--schema", schema]
    outputs = []
    for seed in ("0", "12345"):
        out = tmp_path / f"hash-seed-{seed}"
        out.mkdir()
        commands = [
            ["mine", "--minisupport", "1%", "--emit-tidlists", "--out", str(out / "model.fps")],
            ["rank", "--minisupport", "1%", "--top-p", "1", "--out", str(out / "ranked.tsv")],
            ["sweep", "--minisupport", "10,30,1%", "--attacks", attacks,
             "--out", str(out / "sweep.tsv")],
        ]
        for argv in commands:
            completed = subprocess.run(
                [sys.executable, "-m", "alertfp", *argv, *io_args],
                env=module_env(PYTHONHASHSEED=seed),
                capture_output=True, text=True, timeout=60,
            )
            assert completed.returncode == 0, completed.stderr
        lines = (out / "model.fps").read_bytes().splitlines(keepends=True)
        model = [line for line in lines if not line.startswith(b"built_at=")]
        assert len(lines) - len(model) == 1
        names = ("ranked.tsv", "ranked.tsv.candidates", "sweep.tsv")
        outputs.append([model, *((out / name).read_bytes() for name in names)])
    assert outputs[0] == outputs[1]


def test_commands_write_nothing_to_stdout(tmp_path, capfd):
    log, attacks, schema = gen_log(tmp_path)
    io_args = ["--input", str(log), "--schema", str(schema)]
    model = tmp_path / "model.fps"
    commands = [
        ["mine", *io_args, "--minisupport", "2%", "--out", str(model)],
        ["rank", *io_args, "--minisupport", "2%", "--top-p", "1", "--out", str(tmp_path / "r.tsv")],
        ["score", *io_args, "--model", str(model), "--out", str(tmp_path / "s.tsv")],
        ["sweep", *io_args, "--minisupport", "8,20", "--attacks", str(attacks),
         "--out", str(tmp_path / "sweep.tsv")],
    ]
    assert capfd.readouterr().out == ""  # gen's
    for argv in commands:
        assert main(argv) == 0
        out, err = capfd.readouterr()
        assert out == "" and err.startswith("alertfp: "), argv[0]


class TestSameFileRefused:
    """An output that is the same file as an input or as another output is
    a usage error (exit 1), with nothing read or written."""

    BASE = {
        "mine": ["--input", "{log}", "--schema", "{schema}", "--minisupport", "2"],
        "rank": ["--input", "{log}", "--schema", "{schema}", "--minisupport", "2"],
        "score": ["--input", "{log}", "--schema", "{schema}", "--model", "{model}"],
        "sweep": [
            "--input", "{log}", "--schema", "{schema}", "--minisupport", "2",
            "--attacks", "{attacks}",
        ],
        "gen": ["--records", "100", "--seed", "1"],
    }

    @pytest.fixture
    def files(self, sample_log_path, snort_schema_path, tmp_path):
        model = tmp_path / "model.fps"
        mine_argv = ["mine", "--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        assert main([*mine_argv, "--minisupport", "2", "--out", str(model)]) == 0
        (tmp_path / "attacks.txt").write_text("0\n", encoding="utf-8")
        os.link(sample_log_path, tmp_path / "hard.tsv")
        (tmp_path / "link.tsv").symlink_to(sample_log_path)
        return {
            "log": sample_log_path,
            "schema": snort_schema_path,
            "model": model,
            "attacks": tmp_path / "attacks.txt",
            "d": tmp_path,
        }

    @staticmethod
    def snapshot(directory):
        return {
            path.name: (path.is_symlink(), path.read_bytes()) for path in directory.iterdir()
        }

    @pytest.mark.parametrize(
        "command, outputs, clash",
        [
            ("rank", ["--out", "{log}"], ("--out", "--input")),
            ("score", ["--out", "{model}"], ("--out", "--model")),
            (
                "rank",
                ["--top-p", "1", "--out", "{d}/r.tsv", "--candidates-out", "{d}/r.tsv"],
                ("--candidates-out", "--out"),
            ),
            (
                "score",
                ["--out", "{d}/r.tsv", "--rejects-out", "{d}/r.tsv"],
                ("--rejects-out", "--out"),
            ),
            (
                "rank",  # the default candidates path, <out>.candidates
                ["--top-p", "1", "--out", "{d}/r", "--rejects-out", "{d}/r.candidates"],
                ("--candidates-out", "--rejects-out"),
            ),
            (
                "gen",
                ["--out", "{d}/s", "--attacks-out", "{d}/s", "--schema-out", "{d}/s"],
                ("--attacks-out", "--out"),
            ),
            ("sweep", ["--out", "{attacks}"], ("--out", "--attacks")),
            ("mine", ["--out", "{schema}"], ("--out", "--schema")),
            ("rank", ["--out", "{d}/hard.tsv"], ("--out", "--input")),
            ("rank", ["--out", "{d}/link.tsv"], ("--out", "--input")),
            ("rank", ["--out", "{d}/../{d_name}/sample.tsv"], ("--out", "--input")),
        ],
        ids=[
            "rank-out-input",
            "score-out-model",
            "rank-candidates-out",
            "score-rejects-out",
            "rank-default-candidates",
            "gen-all-three",
            "sweep-out-attacks",
            "mine-out-schema",
            "hard-link",
            "symlink",
            "dot-dot",
        ],
    )
    def test_refused_before_anything_is_read_or_written(
        self, command, outputs, clash, files, capsys
    ):
        names = {**{key: str(value) for key, value in files.items()}, "d_name": files["d"].name}
        argv = [command] + [arg.format(**names) for arg in self.BASE[command] + outputs]
        before = self.snapshot(files["d"])
        capsys.readouterr()
        assert main(argv) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert re.search(f" {clash[0]} '.*' is the same file as {clash[1]} '", errors[0])
        assert self.snapshot(files["d"]) == before

    def test_device_outputs_may_share_a_file(self, files):
        argv = ["rank"] + [arg.format(**files) for arg in self.BASE["rank"]]
        assert main(argv + ["--top-p", "1", "--out", os.devnull, "--candidates-out", os.devnull]) == 0

    def test_missing_directory_names_the_target(self, files, capsys):
        argv = ["rank"] + [arg.format(**files) for arg in self.BASE["rank"]]
        target = files["d"] / "missing" / "c.txt"
        argv += ["--top-p", "1", "--out", str(files["d"] / "r.tsv"), "--candidates-out", str(target)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f": {str(target)!r}\n" in err
        assert ".tmp" not in err

    @pytest.mark.parametrize("command", ["rank", "score"])
    @pytest.mark.parametrize("target", ["{d}/c.txt", "{log}"], ids=["new-file", "the-input"])
    def test_candidates_out_without_top_p_is_a_usage_error(
        self, command, target, files, capsys
    ):
        argv = [command] + [arg.format(**files) for arg in self.BASE[command]]
        argv += ["--out", str(files["d"] / "r.tsv"), "--candidates-out", target.format(**files)]
        before = self.snapshot(files["d"])
        capsys.readouterr()
        assert main(argv) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"alertfp {command}: error: {command} takes --candidates-out only with --top-p"]
        assert self.snapshot(files["d"]) == before


def test_every_output_option_is_declared_as_written():
    """The same-file check compares what each command declares it reads
    and writes, so an output option declared any other way would skip it."""
    paths = ["--input", "i", "--schema", "s"]
    minimal = {
        "mine": [*paths, "--out", "o"],
        "rank": [*paths, "--out", "o"],
        "score": [*paths, "--model", "m", "--out", "o"],
        "eval": ["--ranked", "r", "--attacks", "a"],
        "sweep": [*paths, "--minisupport", "2", "--attacks", "a", "--out", "o"],
        "gen": ["--records", "10", "--seed", "1", "--out", "o", "--attacks-out", "a"],
    }
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert sorted(commands) == sorted(minimal)
    for command, argv in minimal.items():
        args = parser.parse_args([command, *argv])
        outputs = [dest for dest in vars(args) if dest == "out" or dest.endswith("_out")]
        assert set(outputs) <= set(args.writes), command
        assert not set(args.reads) & set(args.writes), command
        assert all(dest in args for dest in args.reads + args.writes), command


def _whole_parser():
    """build_parser with every command's options added up front."""
    parser = build_parser()
    for command in parser._subparsers._group_actions[0].choices.values():
        build, command.build = command.build, None
        build(command)
    return parser


def test_a_call_builds_only_the_dispatched_command():
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    parser.parse_args(["gen", "--records", "10", "--seed", "1", "--out", "o", "--attacks-out", "a"])
    options = {name: len(command._actions) for name, command in commands.items()}
    assert options == {"mine": 1, "rank": 1, "score": 1, "eval": 1, "sweep": 1, "gen": 8}
    assert options["gen"] == len(_whole_parser()._subparsers._group_actions[0].choices["gen"]._actions)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["sweep", "--input", "i", "--schema", "s", "--minisupport", "2",
             "--attacks", "{d}/a.txt", "--out", "{d}/a.txt"],
            "--out '{d}/a.txt' is the same file as --attacks '{d}/a.txt'",
        ),
        (
            ["rank", "--input", "i", "--schema", "s", "--out", "{d}/r.tsv",
             "--candidates-out", "{d}/c.txt"],
            "rank takes --candidates-out only with --top-p",
        ),
        (
            ["score", "--input", "i", "--schema", "s", "--model", "m", "--out", "{d}/r.tsv",
             "--candidates-out", "{d}/c.txt"],
            "score takes --candidates-out only with --top-p",
        ),
        (
            ["eval", "--ranked", "r", "--attacks", "a", "--schema", "s"],
            "eval takes --input and --schema together, or neither",
        ),
        (
            ["eval", "--ranked", "r", "--attacks", "a", "--delimiter", ","],
            "eval takes --delimiter only with --input",
        ),
        (
            ["eval", "--ranked", "r", "--attacks", "a", "--rejects-out", "{d}/j.txt"],
            "eval takes --rejects-out only with --input",
        ),
        (
            ["gen", "--records", "10", "--seed", "1", "--out", "{d}/g.tsv",
             "--attacks-out", "{d}/a.txt", "--attacks", "20"],
            "argument --attacks: need 0 < n_attack < n_records (got 20)",
        ),
        (
            ["gen", "--records", "1000", "--profiles", "801", "--seed", "1",
             "--out", "{d}/g.tsv", "--attacks-out", "{d}/a.txt"],
            "argument --profiles: at most 800 routine profiles are supported (got 801)",
        ),
        (
            ["mine", "--input", "i", "--schema", "s", "--out", "{d}/m.fps", "--workers", "4"],
            "unrecognized arguments: --workers 4",
        ),
    ],
    ids=["same-file", "rank-candidates", "score-candidates", "eval-pairing", "eval-delimiter",
         "eval-rejects-out", "gen-attacks", "gen-profiles", "unknown-option"],
)
def test_usage_error_after_parsing_prints_the_commands_usage(
    argv, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [arg.format(d=tmp_path) for arg in argv]
    command = argv[0]
    usage = _whole_parser()._subparsers._group_actions[0].choices[command].format_usage()
    assert usage.startswith(f"usage: alertfp {command} [-h] ")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == usage + f"alertfp {command}: error: {message.format(d=tmp_path)}\n"
    assert list(tmp_path.iterdir()) == []


MINE_USAGE = """\
usage: alertfp mine [-h] --out OUT --input INPUT --schema SCHEMA
                    [--delimiter DELIMITER] [--rejects-out REJECTS_OUT]
                    [--minisupport MINISUPPORT] [--max-patterns MAX_PATTERNS]
                    [--emit-tidlists]
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        [],
        ["bogus"],
        *([command, "--help"] for command in ("mine", "rank", "score", "eval", "sweep", "gen")),
        *([command] for command in ("mine", "rank", "score", "eval", "sweep", "gen")),
        ["mine", "--input", "a", "--schema", "b"],
        ["rank", "--input", "a", "--schema", "b", "--out", "o", "--minisupport", "0"],
        ["score", "--input", "a", "--schema", "b", "--out", "o", "--model", "m", "--top-p", "0"],
        ["gen", "--records", "10", "--seed", "1", "--out", "o", "--attacks-out", "a", "--attacks", "20"],
        ["eval", "--ranked", "r", "--attacks", "a", "--input", "i"],
        ["mine", "--input", "a", "--schema", "b", "--out", "o", "--bogus"],
    ],
    ids=lambda argv: "_".join(argv) or "no-args",
)
def test_help_and_usage_errors_match_a_parser_built_whole(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    lazy = (main(argv), *capsys.readouterr())
    monkeypatch.setattr(alertfp.cli, "build_parser", _whole_parser)
    assert lazy == (main(argv), *capsys.readouterr())
    if argv == ["mine"]:
        assert lazy == (1, "", MINE_USAGE + (
            "alertfp mine: error: the following arguments are required: --out, --input, --schema\n"
        ))


class TestOutputFiles:
    def test_model_and_ranked_files_take_the_umask(
        self, sample_log_path, snort_schema_path, tmp_path
    ):
        args = ["--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        model, ranked = tmp_path / "model.fps", tmp_path / "ranked.tsv"
        previous = os.umask(0o027)
        try:
            assert main(["mine", *args, "--minisupport", "2", "--out", str(model)]) == 0
            assert main(["score", *args, "--model", str(model), "--out", str(ranked)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(model.stat().st_mode) == 0o640
        assert stat.S_IMODE(ranked.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.fps", "ranked.tsv", "sample.tsv", "snort.schema"
        ]


class TestInterrupt:
    """Ctrl-C ends a command in one line and exit 130, with no output left.
    The interrupt comes from a patched step, not from a real signal."""

    @staticmethod
    def interrupted_main(argv):
        try:
            return main(argv)
        except KeyboardInterrupt:  # escaping, it would end the whole test run
            pytest.fail("KeyboardInterrupt escaped main")

    def test_an_interrupted_mine_writes_no_model(self, tmp_path, monkeypatch, capsys):
        log, _, schema = gen_log(tmp_path)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(alertfp.cli, "mine", interrupted)
        model = tmp_path / "model.fps"
        capsys.readouterr()
        argv = ["mine", "--input", str(log), "--schema", str(schema), "--out", str(model)]
        assert self.interrupted_main(argv) == 130
        assert capsys.readouterr().err == "alertfp: interrupted\n"
        assert not model.exists()

    def test_an_interrupted_write_leaves_no_target_and_no_temp_file(
        self, tmp_path, monkeypatch, capsys
    ):
        log, _, schema = gen_log(tmp_path)
        before = sorted(tmp_path.iterdir())
        temps = []

        def interrupted(target, *args):
            with atomic_write(target) as out:
                out.write("# alertfp-ranked v1\n")
                temps.extend(tmp_path.glob("*.tmp"))
                raise KeyboardInterrupt

        monkeypatch.setattr(alertfp.cli, "write_ranked", interrupted)
        ranked = tmp_path / "ranked.tsv"
        argv = ["rank", "--input", str(log), "--schema", str(schema), "--out", str(ranked)]
        capsys.readouterr()
        assert self.interrupted_main([*argv, "--minisupport", "2%"]) == 130
        assert capsys.readouterr().err == "alertfp: interrupted\n"
        assert len(temps) == 1  # the line went to a temp file beside the target
        assert sorted(tmp_path.iterdir()) == before


class TestRejects:
    def test_rejects_report_written(self, snort_schema_path, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        log.write_text(SNORT_SAMPLE + "short\tline\n", encoding="utf-8")
        rejects = tmp_path / "rejects.tsv"
        code = main(
            [
                "mine",
                "--input", str(log),
                "--schema", str(snort_schema_path),
                "--minisupport", "2",
                "--out", str(tmp_path / "m.fps"),
                "--rejects-out", str(rejects),
            ]
        )
        assert code == 0
        assert rejects.read_text(encoding="utf-8").startswith("4\t")
        assert "rejected 1 line" in capsys.readouterr().err

    def test_clean_run_leaves_an_empty_report(self, snort_schema_path, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        log.write_text(SNORT_SAMPLE + "short\tline\n", encoding="utf-8")
        rejects = tmp_path / "rejects.tsv"
        argv = [
            "mine",
            "--input", str(log),
            "--schema", str(snort_schema_path),
            "--minisupport", "2",
            "--out", str(tmp_path / "m.fps"),
            "--rejects-out", str(rejects),
        ]
        assert main(argv) == 0
        assert rejects.read_text(encoding="utf-8") != ""
        log.write_text(SNORT_SAMPLE, encoding="utf-8")
        capsys.readouterr()
        assert main(argv) == 0  # a cron rerun on a clean log replaces yesterday's report
        assert rejects.read_text(encoding="utf-8") == ""
        assert "rejected" not in capsys.readouterr().err


class TestNotUtf8:
    """A log line that is not UTF-8 is a reject; any other input file that
    is not UTF-8 is a data error naming the file, never a traceback."""

    def rank(self, log, schema, out):
        args = ["--input", str(log), "--schema", str(schema), "--minisupport", "2"]
        return main(["rank", *args, "--out", str(out)])

    def assert_data_error(self, code, path, capsys):
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"alertfp: {path} is not valid UTF-8 (invalid start byte: b'\\xff')"
        ]
        assert "Traceback" not in err

    def test_log_line_is_a_reject(self, snort_schema_path, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        log.write_bytes(SNORT_SAMPLE.encode("utf-8") + b"\xff\xfe")
        assert self.rank(log, snort_schema_path, tmp_path / "ranked.tsv") == 0
        assert "rejected 1 line" in capsys.readouterr().err
        assert read_ranked(tmp_path / "ranked.tsv").n == 3

    def test_schema_file(self, sample_log_path, snort_schema_path, tmp_path, capsys):
        snort_schema_path.write_bytes(snort_schema_path.read_bytes() + b"\xff\n")
        out = tmp_path / "ranked.tsv"
        self.assert_data_error(self.rank(sample_log_path, snort_schema_path, out),
                               snort_schema_path, capsys)
        assert not out.exists()

    def test_model_file(self, sample_log_path, snort_schema_path, tmp_path, capsys):
        model = tmp_path / "model.fps"
        args = ["--input", str(sample_log_path), "--schema", str(snort_schema_path)]
        assert main(["mine", *args, "--minisupport", "2", "--out", str(model)]) == 0
        model.write_bytes(model.read_bytes().replace(b"=", b"=\xff", 1))
        capsys.readouterr()
        out = tmp_path / "ranked.tsv"
        code = main(["score", *args, "--model", str(model), "--out", str(out)])
        self.assert_data_error(code, model, capsys)
        assert not out.exists()

    def eval_files(self, sample_log_path, snort_schema_path, tmp_path):
        ranked, attacks = tmp_path / "ranked.tsv", tmp_path / "attacks.txt"
        assert self.rank(sample_log_path, snort_schema_path, ranked) == 0
        attacks.write_bytes(b"2\n")
        return ranked, attacks

    def test_ranked_file(self, sample_log_path, snort_schema_path, tmp_path, capsys):
        ranked, attacks = self.eval_files(sample_log_path, snort_schema_path, tmp_path)
        ranked.write_bytes(ranked.read_bytes() + b"\xff")
        capsys.readouterr()
        code = main(["eval", "--ranked", str(ranked), "--attacks", str(attacks)])
        self.assert_data_error(code, ranked, capsys)

    def test_attack_file(self, sample_log_path, snort_schema_path, tmp_path, capsys):
        ranked, attacks = self.eval_files(sample_log_path, snort_schema_path, tmp_path)
        attacks.write_bytes(b"2\n\xff\n")
        capsys.readouterr()
        code = main(["eval", "--ranked", str(ranked), "--attacks", str(attacks)])
        self.assert_data_error(code, attacks, capsys)


HUGE = "9" * 4400  # more digits than int() converts
MUTATION_RUNS = (
    "\t", " ", "\n", "\r", ",", "=", "%", "#", "-1", "+3", "\u0663", "\u00b2", "\x00", "\x85", HUGE
)


def mutate(text: str, rng: random.Random) -> str:
    """text after one to three edits, each cutting 0-4 characters at a
    random place and putting nothing or one of MUTATION_RUNS there: an
    insert, a replace or a delete."""
    for _ in range(rng.randint(1, 3)):
        at, cut = rng.randrange(len(text) + 1), rng.randint(0, 4)
        text = text[:at] + rng.choice(MUTATION_RUNS + ("",)) + text[at + cut :]
    return text


def test_mutated_inputs_end_in_a_diagnostic(tmp_path, capsys):
    """Each input file a command reads, mutated, ends in exit 0, 2, 3 or 4
    with only `alertfp` lines on stderr, never a traceback. The fixed cases
    come first: a sport, a ranked file's n= and an attack tid too long for
    int()."""
    log, schema, attacks = tmp_path / "log.tsv", tmp_path / "log.schema", tmp_path / "attacks.txt"
    model, ranked, out = tmp_path / "model.fps", tmp_path / "ranked.tsv", tmp_path / "out"
    io_args = ["--input", str(log), "--schema", str(schema)]
    mine_ = ["mine", *io_args, "--minisupport", "40%"]
    eval_ = ["eval", "--ranked", str(ranked), "--attacks", str(attacks)]
    commands = {
        log: [[*mine_, "--out", str(out)]],
        schema: [[*mine_, "--out", str(out)]],
        model: [["score", *io_args, "--model", str(model), "--out", str(out)]],
        ranked: [eval_],
        attacks: [
            [*eval_, *io_args],
            ["sweep", *io_args, "--minisupport", "40%,50%", "--attacks", str(attacks), "--out", str(out)],
        ],
    }
    gen = ["gen", "--records", "80", "--attacks", "3", "--seed", "5", "--out", str(log)]
    assert main([*gen, "--attacks-out", str(attacks), "--schema-out", str(schema)]) == 0
    assert main([*mine_, "--emit-tidlists", "--out", str(model)]) == 0
    assert main(["score", *io_args, "--model", str(model), "--out", str(ranked)]) == 0
    originals = {path: path.read_text(encoding="utf-8") for path in commands}

    *head, last = originals[log].splitlines(keepends=True)
    fields = last.split("\t")
    fields[10] = HUGE  # sport
    cases = [
        (log, "".join(head) + "\t".join(fields)),
        (ranked, re.sub("n=[0-9]+", f"n={HUGE}", originals[ranked], count=1)),
        (attacks, f"{HUGE}\n"),
    ]
    rng = random.Random(15)
    cases += [(path, mutate(text, rng)) for _ in range(30) for path, text in originals.items()]
    capsys.readouterr()
    for number, (path, text) in enumerate(cases):
        path.write_bytes(text.encode("utf-8"))
        for argv in commands[path]:
            case = f"case {number}: {argv[0]} with {path.name} mutated"
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"{case}: {type(exc).__name__} escaped: {str(exc)[:200]}")
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), f"{case}: exit {code}: {err[:200]}"
            assert all(line.startswith("alertfp") for line in err.splitlines()), f"{case}: {err[:200]}"
        path.write_text(originals[path], encoding="utf-8")
