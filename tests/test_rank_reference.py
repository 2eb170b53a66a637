"""`alertfp rank` and `alertfp mine`, end to end, against a from-scratch
reference.

Seeded random small logs run through the command line at small absolute
minisupports: `rank` under both metrics, and `mine` with tidlists. Every
ranked row and every model pattern row must equal the one this file
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
