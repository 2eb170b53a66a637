"""The benchmark's span tracer (`bench/spans.py`) patches alertfp's
functions by the names its callers look them up by. A rename or a dropped
import of one of those names breaks the traced benchmark, so this checks
every target here, in a fraction of a second, without running the
benchmark, and that a traced parse and mine still report their lines,
rejects and the candidates and patterns of every level."""

import importlib
import io
from itertools import combinations, groupby
from pathlib import Path

import pytest

import alertfp.cli
import alertfp.miner
import alertfp.model
import alertfp.store
from alertfp.evaluate import SyntheticSpec, gen_synthetic
from alertfp.miner import MiningConfig
from alertfp.model import (
    Alert,
    AlertDataset,
    AttributeSchema,
    FieldKind,
    SchemaField,
    snort_schema,
)

from conftest import SNORT_SAMPLE

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_traced_patches_every_target_and_restores_it(spans):
    targets = [(owner, attr) for owner, attr, _, _ in spans._FUNCTION_PATCHES]
    targets += [
        (alertfp.store.ClassifierModel, "from_pattern_set"),
        (alertfp.model.AlertDataset, "transactions"),
    ]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in vars(owner)]
    assert not missing
    before = [vars(owner)[attr] for owner, attr in targets]
    with spans.traced(spans.Tracer()):
        assert all(
            vars(owner)[attr] is not original
            for (owner, attr), original in zip(targets, before)
        )
    assert all(
        vars(owner)[attr] is original for (owner, attr), original in zip(targets, before)
    )


def test_traced_mine_reports_the_first_level(spans, sample_dataset):
    tracer = spans.Tracer()
    with spans.traced(tracer):
        fps = alertfp.miner.mine(sample_dataset, MiningConfig(minisupport=2))
    names = {span["name"] for span in tracer.spans}
    assert {"miner.build_candidates_1", "miner.prune"} <= names
    metrics = spans.layer_metrics(tracer, tracer.spans, 1.0, lambda start, end: end - start)
    assert metrics["miner.L1.kept"] == sum(1 for p in fps if len(p) == 1) == 9


def test_traced_parse_books_every_line_and_the_reject(spans):
    text = SNORT_SAMPLE + SNORT_SAMPLE.splitlines(keepends=True)[0].replace("46,865", "x")
    tracer = spans.Tracer()
    with spans.traced(tracer):
        result = alertfp.cli.parse_log(io.StringIO(text), snort_schema())
        fps = alertfp.miner.mine(result.dataset, MiningConfig(minisupport=2))
    metrics = spans.layer_metrics(tracer, tracer.spans, 1.0, lambda start, end: end - start)
    assert (metrics["ingest.lines"], metrics["ingest.rejected"]) == (4, 1)
    assert metrics["miner.L1.kept"] == sum(1 for p in fps if len(p) == 1) == 9


def test_traced_mine_counts_only_cross_column_joins(spans):
    schema = AttributeSchema(
        (
            SchemaField("sig", FieldKind.CATEGORICAL),
            SchemaField("cid", FieldKind.IDENTIFIER),
            SchemaField("port", FieldKind.NUMERIC),
        )
    )
    rows = [("web", "1", "80"), ("web", "2", "443"), ("ssh", "3", "22"), ("ftp", "4", "21")] * 2
    ds = AlertDataset(schema, tuple(Alert(tid, row) for tid, row in enumerate(rows)))
    tracer = spans.Tracer()
    with spans.traced(tracer):
        fps = alertfp.miner.mine(ds, MiningConfig(minisupport=2))
    singles = [p.itemset[0] for p in fps if len(p) == 1]
    cross = sum(1 for a, b in combinations(singles, 2) if a.field_index != b.field_index)
    metrics = spans.layer_metrics(tracer, tracer.spans, 1.0, lambda start, end: end - start)
    assert (len(singles), cross) == (7, 12)
    assert metrics["miner.L2.candidates"] == cross


def test_traced_mine_counts_every_level_of_a_generated_log(spans):
    ds, _ = gen_synthetic(SyntheticSpec(600, 3, 5, 2))
    tracer = spans.Tracer()
    with spans.traced(tracer):
        fps = alertfp.miner.mine(ds, MiningConfig(minisupport=5))
    metrics = spans.layer_metrics(tracer, tracer.spans, 1.0, lambda start, end: end - start)
    single_item = set(ds.schema.single_item_indexes())
    by_length = [[] for _ in range(spans.MAX_LEVEL + 1)]
    for itemset in fps.itemsets:
        by_length[len(itemset)].append(itemset)
    skipped = 0
    for k in range(1, spans.MAX_LEVEL + 1):
        assert metrics[f"miner.L{k}.kept"] == len(by_length[k])
        if k == 1:  # level 1 is scanned at the threshold: every candidate is kept
            assert metrics["miner.L1.candidates"] == len(by_length[1])
            continue
        pairs = [
            (left[-1].field_index, right[-1].field_index)
            for _, group in groupby(by_length[k - 1], key=lambda itemset: itemset[:-1])
            for left, right in combinations(list(group), 2)
        ]
        within = sum(1 for a, b in pairs if a == b and a in single_item)
        skipped += within
        assert metrics[f"miner.L{k}.candidates"] == len(pairs) - within
    deepest = max(k for k, level in enumerate(by_length) if level)
    assert metrics["miner.levels"] == deepest == 10
    assert fps.count == 21711
    assert skipped > 0


def test_traced_score_and_sweep_report_what_the_bench_reads(spans, tmp_path):
    """The traced hooks read the model's patterns, the dataset's
    transactions and the pattern set's iteration; a command run through
    `main` must still feed each number the benchmark reports from them."""
    n = 600
    log, attacks, schema, model = (
        str(tmp_path / name) for name in ("log.tsv", "attacks.txt", "log.schema", "model.fps")
    )
    gen = ["gen", "--records", str(n), "--seed", "1", "--out", log, "--attacks-out", attacks]
    assert alertfp.cli.main([*gen, "--schema-out", schema]) == 0
    common = ["--input", log, "--schema", schema]
    assert alertfp.cli.main(["mine", *common, "--minisupport", "10", "--out", model]) == 0
    thresholds = ["10", "30", "1%"]
    runs = [
        (["score", *common, "--model", model, "--out", str(tmp_path / "ranked.tsv")], 1),
        (
            ["sweep", *common, "--attacks", attacks, "--minisupport", ",".join(thresholds),
             "--out", str(tmp_path / "sweep.txt")],
            len(thresholds),
        ),
    ]
    for argv, rankings in runs:
        tracer = spans.Tracer()
        with spans.traced(tracer):
            assert alertfp.cli.main(argv) == 0
        metrics = spans.layer_metrics(tracer, tracer.spans, 1.0, lambda start, end: end - start)
        assert metrics["scorer.calls"] == rankings * n
        # a key is an alert's frequent items, counted per ranking: one key for
        # all of a ranking's alerts would mean no pattern was read
        assert rankings < metrics["scorer.distinct_keys"] < metrics["scorer.calls"]
        assert metrics["evaluate.rows"] == (len(thresholds) if argv[0] == "sweep" else 0)
        assert metrics["model.items"] == 12 * n  # a generated alert itemizes to 12 items
