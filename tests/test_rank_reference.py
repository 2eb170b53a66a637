"""`alertfp rank`, `mine`, `score` and `sweep`, end to end, against a
from-scratch reference.

Seeded random small logs run through the command line at small absolute
minisupports: `rank` under both metrics, `mine` with tidlists, `score`
under both metrics against the model `mine` wrote from the same log, and
`sweep` over those minisupports and one that no itemset reaches. Every
ranked row, model pattern row and sweep row must equal the one this file
computes. The reference shares no code with alertfp: it is written from
the documented formats, imports nothing from alertfp but the command-line
entry point, counts supports by enumerating each alert's itemsets, and
sums support ratios with math.fsum.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from math import fsum

import pytest

from alertfp.cli import main

KINDS = ("categorical", "numeric", "identifier")
CATEGORICAL = ["web", "ssh", "dns", " web", "ssh ", "", " ", "null", "NULL", "Null "]
NUMERIC = ["80", "080", "0080", "1,080", "1080", "01,080", "22", "0", "000", "", "null", " 443 "]
IDENTIFIER = ["id1", " id1", "id2 ", "7", "07", "", "null"]
POOLS = {"categorical": CATEGORICAL, "numeric": NUMERIC, "identifier": IDENTIFIER}


def canonical(raw: str, kind: str) -> str:
    """A value as the ranked file writes it: trimmed; for an itemizable
    kind, blank or any case of null reads "null", and a number loses its
    commas and leading zeros."""
    text = raw.strip()
    if kind == "identifier":
        return text
    if not text or text.lower() == "null":
        return "null"
    if kind == "numeric":
        return str(int(text.replace(",", "")))
    return text


def random_log(rng: random.Random) -> tuple[list[str], list[list[str]]]:
    """3-4 column kinds, one of them itemizable at least, and 1-40 rows of
    raw values. Small pools make values repeat, so patterns form."""
    kinds = [rng.choice(KINDS) for _ in range(rng.randint(3, 4))]
    if set(kinds) == {"identifier"}:
        kinds[rng.randrange(len(kinds))] = rng.choice(KINDS[:2])
    pools = [rng.sample(POOLS[kind], rng.randint(2, 4)) for kind in kinds]
    rows = [[rng.choice(pool) for pool in pools] for _ in range(rng.randint(1, 40))]
    return kinds, rows


def itemized(kinds, rows):
    """Each row's canonical record, and its items: the (column index,
    value) pairs of its itemizable columns."""
    records = [[canonical(raw, kind) for raw, kind in zip(row, kinds)] for row in rows]
    indexes = [index for index, kind in enumerate(kinds) if kind != "identifier"]
    return records, [frozenset((i, record[i]) for i in indexes) for record in records]


def frequent(alert_items, minisupport: int) -> list[tuple[tuple, int]]:
    """Every itemset held by at least minisupport alerts, as its sorted
    items, with its count, in (length, itemset) order."""
    counts = Counter(
        subset
        for items in alert_items
        for size in range(1, len(items) + 1)
        for subset in combinations(sorted(items), size)
    )
    found = [(itemset, count) for itemset, count in counts.items() if count >= minisupport]
    return sorted(found, key=lambda pattern: (len(pattern[0]), pattern[0]))


def reference_rows(kinds, rows, minisupport: int, metric: str) -> list[str]:
    """The ranked file's rows: rank, tid, simple score, "%.6f" full score
    and the canonical record, sorted by (simple, tid) or by (raw sum, tid)."""
    n = len(rows)
    records, alert_items = itemized(kinds, rows)
    patterns = frequent(alert_items, minisupport)
    if not patterns:
        return []
    scored = []
    for tid, items in enumerate(alert_items):
        contained = [count for itemset, count in patterns if items.issuperset(itemset)]
        raw = fsum(count / n for count in contained)
        scored.append((len(contained), raw, tid))
    scored.sort(key=lambda s: (s[0], s[2]) if metric == "simple" else (s[1], s[2]))
    return [
        f"{rank}\t{tid}\t{simple}\t{raw / len(patterns):.6f}\t" + "\t".join(records[tid])
        for rank, (simple, raw, tid) in enumerate(scored, start=1)
    ]


def reference_model_rows(kinds, rows, minisupport: int) -> list[str]:
    """The model file's pattern rows with tidlists: support, the itemset as
    `index=value` tokens in item order, and the ascending tids holding it.
    No pool value holds a character the model escapes."""
    _, alert_items = itemized(kinds, rows)
    return [
        f"{count}\t" + ",".join(f"{i}={value}" for i, value in itemset) + "\t"
        + ",".join(str(tid) for tid, items in enumerate(alert_items) if items.issuperset(itemset))
        for itemset, count in frequent(alert_items, minisupport)
    ]


def reference_sweep_rows(kinds, rows, minisupports, attacks) -> list[str]:
    """The sweep report's rows, in the order of minisupports: each
    threshold's pattern count, the worst attack rank in the simple
    ranking and the "%.3f" reduction 100 * (n - rank) / n. A threshold no
    itemset reaches gives the failed row's prefix, which the error
    follows."""
    n = len(rows)
    _, alert_items = itemized(kinds, rows)
    out = []
    for minisupport in minisupports:
        ranked = reference_rows(kinds, rows, minisupport, "simple")
        if not ranked:
            out.append(f"{minisupport}\t-\t-\t-\t# ")
            continue
        rank_of = {int(tid): int(rank) for rank, tid, *_ in (row.split("\t") for row in ranked)}
        worst = max(rank_of[tid] for tid in attacks)
        count = len(frequent(alert_items, minisupport))
        out.append(f"{minisupport}\t{count}\t{worst}\t{100 * (n - worst) / n:.3f}")
    return out


def seeded_case(tmp_path, seed):
    """A seeded random log and schema, written under tmp_path, and the two
    minisupports to run it at."""
    rng = random.Random(seed)
    kinds, rows = random_log(rng)
    log, schema = tmp_path / "log.tsv", tmp_path / "log.schema"
    log.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    schema.write_text(
        "".join(f"c{index}\t{kind}\n" for index, kind in enumerate(kinds)), encoding="utf-8"
    )
    return kinds, rows, log, schema, rng.sample(range(1, 5), 2)


@pytest.mark.parametrize("seed", range(100))
def test_rank_matches_the_reference(tmp_path, seed):
    kinds, rows, log, schema, minisupports = seeded_case(tmp_path, seed)
    for minisupport in minisupports:
        for metric in ("simple", "fpof"):
            out = tmp_path / f"ranked-{minisupport}-{metric}.tsv"
            code = main([
                "rank", "--input", str(log), "--schema", str(schema),
                "--minisupport", str(minisupport), "--score", metric, "--out", str(out),
            ])
            expected = reference_rows(kinds, rows, minisupport, metric)
            if not expected:  # no frequent pattern: a data error, and nothing written
                assert code == 2 and not out.exists()
                continue
            assert code == 0
            header, *written = out.read_text(encoding="utf-8").split("\n")
            assert header == f"# alertfp-ranked v1 n={len(rows)} metric={metric}"
            assert written == expected + [""]


@pytest.mark.parametrize("seed", range(100))
def test_mine_matches_the_reference(tmp_path, seed):
    kinds, rows, log, schema, minisupports = seeded_case(tmp_path, seed)
    for minisupport in minisupports:
        out = tmp_path / f"model-{minisupport}.fps"
        code = main([
            "mine", "--input", str(log), "--schema", str(schema),
            "--minisupport", str(minisupport), "--emit-tidlists", "--out", str(out),
        ])
        expected = reference_model_rows(kinds, rows, minisupport)
        if not expected:  # no frequent pattern: a data error, and nothing written
            assert code == 2 and not out.exists()
            continue
        assert code == 0
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "# alertfp-model v1"
        assert lines[1:3] == [f"n_train={len(rows)}", f"minisupport={minisupport}"]
        assert lines[5] == f"patterns={len(expected)}"
        assert lines[6:] == expected + [""]


@pytest.mark.parametrize("seed", range(100))
def test_score_matches_the_reference(tmp_path, seed):
    kinds, rows, log, schema, minisupports = seeded_case(tmp_path, seed)
    io_args = ["--input", str(log), "--schema", str(schema)]
    for minisupport in minisupports:
        model = tmp_path / f"model-{minisupport}.fps"
        code = main(["mine", *io_args, "--minisupport", str(minisupport), "--out", str(model)])
        if not reference_rows(kinds, rows, minisupport, "simple"):
            assert code == 2 and not model.exists()
            continue
        assert code == 0
        for metric in ("simple", "fpof"):
            out = tmp_path / f"scored-{minisupport}-{metric}.tsv"
            code = main(["score", *io_args, "--model", str(model), "--score", metric, "--out", str(out)])
            assert code == 0
            header, *written = out.read_text(encoding="utf-8").split("\n")
            assert header == f"# alertfp-ranked v1 n={len(rows)} metric={metric}"
            assert written == reference_rows(kinds, rows, minisupport, metric) + [""]


@pytest.mark.parametrize("seed", range(100))
def test_sweep_matches_the_reference(tmp_path, seed):
    kinds, rows, log, schema, minisupports = seeded_case(tmp_path, seed)
    rng = random.Random(f"attacks-{seed}")
    attacks = rng.sample(range(len(rows)), min(len(rows), rng.randint(1, 2)))
    attack_file = tmp_path / "attacks.txt"
    attack_file.write_text("".join(f"{tid}\n" for tid in attacks), encoding="utf-8")
    thresholds = [*minisupports, len(rows) + 1]  # the last one no itemset reaches
    out = tmp_path / "sweep.tsv"
    code = main([
        "sweep", "--input", str(log), "--schema", str(schema), "--attacks", str(attack_file),
        "--minisupport", ",".join(map(str, thresholds)), "--out", str(out),
    ])
    assert code == 0
    written = out.read_text(encoding="utf-8").split("\n")
    expected = reference_sweep_rows(kinds, rows, thresholds, attacks)
    assert len(written) == len(expected) + 1 and written[-1] == ""
    for row, want in zip(written, expected):
        assert row.startswith(want) if want.endswith("# ") else row == want
