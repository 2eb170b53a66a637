"""Output checks that share no code with alertfp.

Logs, model files, ranked files and sweep reports are read here with
parsers written from the documented formats, and scores and supports are
recounted by direct scans, so a bug in alertfp's readers, itemizer or
miner cannot hide itself. Every check returns a list of problems; empty
means the output is correct.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import fsum

_TIMESTAMP = re.compile(r"(\d{1,2}/\d{1,2}/\d{4})\s+(\d{1,2}):(\d{2})(?::\d{2})?\s*([AaPp][Mm])")
_UNESCAPES = [("%0A", "\n"), ("%09", "\t"), ("%3D", "="), ("%2C", ","), ("%25", "%")]


def read_schema_kinds(path) -> list[str]:
    with open(path, encoding="utf-8") as stream:
        return [line.split("\t")[1].strip() for line in stream if line.strip()]


def itemize_line(line: str, kinds: list[str]) -> frozenset:
    """(column, canonical value) items of one tab-delimited record."""
    items = []
    for index, (raw, kind) in enumerate(zip(line.rstrip("\n").split("\t"), kinds)):
        if kind in ("identifier", "ignore"):
            continue
        text = raw.strip()
        if not text or text.lower() == "null":
            items.append((index, "null"))
        elif kind == "numeric":
            items.append((index, str(int(text.replace(",", "")))))
        elif kind == "timestamp":
            date, hour, minute, meridiem = _TIMESTAMP.fullmatch(" ".join(text.split())).groups()
            items.append((index, date))
            items.append((index, f"{int(hour)}:{minute}{meridiem.upper()}"))
        else:
            items.append((index, text))
    return frozenset(items)


def read_model(path) -> tuple[dict[str, str], list[tuple[frozenset, int]]]:
    """Header and (itemset, support) rows of a model file."""
    with open(path, encoding="utf-8", newline="") as stream:
        lines = stream.read().split("\n")
    header: dict[str, str] = {}
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        if "\t" not in line:
            key, _, value = line.partition("=")
            header[key] = value
            continue
        support, rendered = line.split("\t")[:2]
        itemset = []
        for token in rendered.split(","):
            index, _, value = token.partition("=")
            for code, char in _UNESCAPES:
                value = value.replace(code, char)
            itemset.append((int(index), value))
        rows.append((frozenset(itemset), int(support)))
    return header, rows


def model_without_build_time(path) -> bytes:
    with open(path, "rb") as stream:
        return b"".join(line for line in stream if not line.startswith(b"built_at="))


def check_model(model_path, log_path, kinds, n_records, minisupport, rng, sample=24) -> list[str]:
    """Header matches the training run; a seeded sample of itemsets has
    exactly the stored support, recounted in one pass over the log."""
    header, rows = read_model(model_path)
    problems = []
    expected_abs = -((-n_records * minisupport.numerator) // minisupport.denominator)
    if header.get("n_train") != str(n_records):
        problems.append(f"model n_train {header.get('n_train')} != {n_records}")
    if header.get("minisupport") != str(expected_abs):
        problems.append(f"model minisupport {header.get('minisupport')} != {expected_abs}")
    if not rows or header.get("patterns") != str(len(rows)):
        problems.append(f"model declares {header.get('patterns')} patterns, holds {len(rows)}")
        return problems
    picked = rng.sample(rows, min(sample, len(rows)))
    picked.append(max(rows, key=lambda row: len(row[0])))
    counts = [0] * len(picked)
    with open(log_path, encoding="utf-8") as stream:
        for line in stream:
            items = itemize_line(line, kinds)
            for k, (itemset, _) in enumerate(picked):
                if itemset <= items:
                    counts[k] += 1
    for (itemset, support), count in zip(picked, counts):
        if support != count or support < expected_abs:
            problems.append(f"itemset {sorted(itemset)} stored support {support}, counted {count}")
    return problems


def read_ranked(path) -> tuple[dict[str, str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as stream:
        header = stream.readline().rstrip("\n")
        rows = [line.rstrip("\n").split("\t", 4) for line in stream if line != "\n"]
    if not header.startswith("# alertfp-ranked v1"):
        return {}, rows
    return dict(part.split("=", 1) for part in header.split() if "=" in part), rows


def check_batch(ranked_path, batch_lines, kinds, patterns, n_train, attack_positions, rng,
                sample=4) -> list[str]:
    """A ranked score batch: complete, ordered by (simple score, tid), the
    batch's attacks on top, and sampled simple/FPOF scores recounted by
    scanning every model itemset."""
    meta, rows = read_ranked(ranked_path)
    n = len(batch_lines)
    problems = []
    if meta.get("n") != str(n) or len(rows) != n:
        return [f"{ranked_path}: header n={meta.get('n')}, {len(rows)} rows, batch has {n}"]
    try:
        keyed = [(int(r[0]), int(r[1]), int(r[2]), float(r[3]), r[4]) for r in rows]
    except (ValueError, IndexError):
        return [f"{ranked_path}: malformed row"]
    if [r[0] for r in keyed] != list(range(1, n + 1)):
        problems.append(f"{ranked_path}: ranks are not 1..{n}")
    if sorted(r[1] for r in keyed) != list(range(n)):
        problems.append(f"{ranked_path}: tids are not a permutation of 0..{n - 1}")
        return problems
    if [(r[2], r[1]) for r in keyed] != sorted((r[2], r[1]) for r in keyed):
        problems.append(f"{ranked_path}: not sorted by (simple score, tid)")
    for r in keyed:
        if r[4] != batch_lines[r[1]].rstrip("\n"):
            problems.append(f"{ranked_path}: tid {r[1]} carries the wrong record")
            break
    top = {r[1] for r in keyed[: len(attack_positions)]}
    if top != set(attack_positions):
        problems.append(f"{ranked_path}: attacks {sorted(attack_positions)} not on top ({sorted(top)})")
    for r in rng.sample(keyed, min(sample, n)):
        items = itemize_line(batch_lines[r[1]], kinds)
        hits = [support for itemset, support in patterns if itemset <= items]
        fpof = fsum(support / n_train for support in hits) / len(patterns)
        if len(hits) != r[2] or abs(fpof - r[3]) > 1.5e-6:
            problems.append(
                f"{ranked_path}: tid {r[1]} scored ({r[2]}, {r[3]}), recount ({len(hits)}, {fpof:.6f})"
            )
    return problems


def check_sweep(report_path, thresholds, n_records, n_attacks) -> list[str]:
    """One error-free row per threshold, pattern counts not rising with
    the threshold, and every row placing the last attack at n_attacks."""
    with open(report_path, encoding="utf-8") as stream:
        rows = [line.rstrip("\n").split("\t") for line in stream if line.strip()]
    if len(rows) != len(thresholds):
        return [f"sweep report has {len(rows)} rows, expected {len(thresholds)}"]
    problems = []
    counts = []
    for row, threshold in zip(rows, thresholds):
        if len(row) != 4 or "-" in row[1:]:
            problems.append(f"sweep row failed: {row}")
            continue
        expected_reduction = f"{100.0 * (n_records - n_attacks) / n_records:.3f}"
        if row[0] != str(threshold) or row[2] != str(n_attacks) or row[3] != expected_reduction:
            problems.append(f"sweep row {row}: expected threshold {threshold}, "
                            f"last attack rank {n_attacks}, reduction {expected_reduction}")
        counts.append(int(row[1]))
    if counts != sorted(counts, reverse=True):
        problems.append(f"sweep pattern counts rise with the threshold: {counts}")
    return problems


def parse_support(text: str) -> Fraction:
    """The minisupport ratio a `P%` argument stands for."""
    return Fraction(text.rstrip("%")) / 100
