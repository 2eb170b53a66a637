"""Tests of the benchmark itself: `python -m pytest bench` (about a minute).

They run every workload at ``--size tiny``, check that each run reports
exactly the metrics BENCHMARK.json declares, and check that the output
checks catch broken outputs.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KINDS = ["categorical", "identifier", "categorical", "numeric", "timestamp"]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170, check=False,
    )
    return proc, proc.stdout.splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_declared_metrics(workload, trace):
    proc, lines = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                            "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
    assert env["ALERTFP_WORKERS"].startswith("unset") and env["seed"] == 3
    if trace == "1":
        assert result["metrics"]["trace.accounted_frac"]["value"] > 0.95
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_set_workers_variable_is_removed():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
        env={"PATH": "/usr/bin:/bin", "ALERTFP_WORKERS": "4"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "unset (was '4')" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "results"))
    proc, lines = run_bench("--workload", "nightly", "--seed", "1", "--size", "tiny",
                            cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_speed_scales_each_stretch_by_its_own_samples():
    clock = speed.Speed()
    ref = speed.REFERENCE_S
    # samples (start, end, kernel s): before at [0, 1], inside at [5, 6], after at [10, 11]
    clock.samples = [(0.0, 1.0, ref), (5.0, 6.0, 3 * ref), (10.0, 11.0, ref)]
    # 1..5 at mean kernel 2*ref counts half, 6..10 likewise; the sample's second is left out
    assert clock.wall(1.0, 10.0) == pytest.approx(8.0)
    assert clock.scale(1.0, 10.0) == pytest.approx(4.0)
    assert clock.scale(1.0, 4.0) == pytest.approx(3.0 / 2)
    with pytest.raises(ValueError):
        clock.scale(10.5, 12.0)


# --- the checks catch broken outputs --------------------------------------

LOG = [
    "a\t1\tx\t1,000\t6/22/2010 8:57 AM\n",
    "a\t2\tx\t1000\t6/22/2010 8:58 AM\n",
    "b\t3\tx\t7\t6/22/2010 8:58 AM\n",
]


def test_itemize_line_follows_the_documented_rules():
    assert checks.itemize_line(LOG[0], KINDS) == frozenset(
        {(0, "a"), (2, "x"), (3, "1000"), (4, "6/22/2010"), (4, "8:57AM")}
    )
    assert (3, "null") in checks.itemize_line("a\t1\tx\t\t6/22/2010 8:57 AM\n", KINDS)


def write_model(path, rows, n_train=3, minisupport=2):
    lines = ["# alertfp-model v1", f"n_train={n_train}", f"minisupport={minisupport}",
             "schema_fp=0", "built_at=2026-01-01T00:00:00+00:00", f"patterns={len(rows)}"]
    path.write_text("\n".join(lines + rows) + "\n", encoding="utf-8")


def test_check_model_recounts_support(tmp_path):
    log = tmp_path / "log"
    log.write_text("".join(LOG), encoding="utf-8")
    model = tmp_path / "model"
    write_model(model, ["2\t0=a", "3\t2=x", "2\t3=1000", "2\t0=a,2=x"])
    args = (log, KINDS, 3, Fraction(2, 3), random.Random(0))
    assert checks.check_model(model, *args) == []
    write_model(model, ["2\t0=a", "2\t2=x"])
    assert any("counted 3" in p for p in checks.check_model(model, *args))


def test_check_batch_catches_a_wrong_score(tmp_path):
    patterns = [(frozenset({(0, "a")}), 2), (frozenset({(2, "x")}), 3)]
    ranked = tmp_path / "ranked"
    rows = [(1, 2, 1, 3 / 3 / 2), (2, 0, 2, (2 / 3 + 1) / 2), (3, 1, 2, (2 / 3 + 1) / 2)]
    body = "".join(f"{r}\t{t}\t{s}\t{f:.6f}\t{LOG[t].rstrip()}\n" for r, t, s, f in rows)
    ranked.write_text("# alertfp-ranked v1 n=3 metric=simple\n" + body, encoding="utf-8")
    args = (LOG, KINDS, patterns, 3)
    assert checks.check_batch(ranked, *args, [2], random.Random(0), sample=3) == []
    assert checks.check_batch(ranked, *args, [0], random.Random(0), sample=3)
    ranked.write_text(ranked.read_text().replace("\t2\t1\t", "\t2\t0\t"), encoding="utf-8")
    assert checks.check_batch(ranked, *args, [2], random.Random(0), sample=3)


def test_check_sweep_rejects_error_rows_and_rising_counts(tmp_path):
    report = tmp_path / "sweep"
    report.write_text("30\t90\t5\t99.983\n60\t80\t5\t99.983\n", encoding="utf-8")
    assert checks.check_sweep(report, (30, 60), 28_670, 5) == []
    report.write_text("30\t90\t5\t99.983\n60\t-\t-\t-\t# too many\n", encoding="utf-8")
    assert checks.check_sweep(report, (30, 60), 28_670, 5)
    report.write_text("30\t80\t5\t99.983\n60\t90\t5\t99.983\n", encoding="utf-8")
    assert checks.check_sweep(report, (30, 60), 28_670, 5)
