"""In-memory span tracing of alertfp's layers, patched in from outside.

Nothing under ``src/`` knows about tracing. ``traced(tracer)`` replaces
each public function a layer exposes with a wrapper that records a span,
at the name the caller looks it up by (the modules import functions by
name, so ``alertfp.cli.mine`` and ``alertfp.evaluate.mine`` are patched
separately), and restores the originals on exit.

A span is (id, name, parent id, operation id, start, end, attrs). The
layer is the part of the name before the first dot and matches a module
under ``src/alertfp/``; ``cli`` is the command span the benchmark opens
around each ``alertfp.cli.main`` call. A span's self time is its duration
minus the time its children cover. The wrappers' own counting (items,
distinct items, scorer cache keys) runs inside the traced job, in
``trace.hook`` spans that belong to no layer; holding on to the job's
objects to count them afterwards would slow the rest of the job more.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from itertools import chain, takewhile
from time import perf_counter

import alertfp.cli
import alertfp.evaluate
import alertfp.miner
import alertfp.model
import alertfp.scorer
import alertfp.store

LAYERS = ("ingest", "model", "miner", "scorer", "store", "evaluate")
HOOK = "trace.hook"  # the wrappers' own counting; a child span, so no layer pays for it
MAX_LEVEL = 12  # a Snort alert itemizes to 12 items, so no pattern is longer


def rss_kib() -> int:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as stream:
        return int(stream.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


class Tracer:
    """Collects spans of one or more traced jobs; single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op = 0
        self.level = 0  # mining level the next prune() belongs to
        self.items = 0
        self.distinct_items: set = set()
        self.scorer_calls = 0
        self.scorer_keys = 0

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def reset_counts(self) -> None:
        self.items = self.scorer_calls = self.scorer_keys = 0
        self.distinct_items = set()


# --- after-hooks: (tracer, span, args, result) -> None ----------------------


def _after_parse(tracer, span, args, result):
    span["attrs"]["lines"] = result.dataset.n + len(result.rejects)
    span["attrs"]["rejected"] = len(result.rejects)


def _after_c1(tracer, span, args, result):
    tracer.level = 1
    span["attrs"]["candidates"] = len(result)


def _after_join(tracer, span, args, result):
    tracer.level = len(args[0][0][0]) + 1  # mine() never joins an empty level
    span["attrs"]["candidates"] = len(result)


def _after_prune(tracer, span, args, result):
    span["attrs"].update(level=tracer.level, candidates=len(args[0]), kept=len(result))


def _after_mine(tracer, span, args, result):
    span["attrs"]["patterns"] = result.count


def _frequent_items(itemsets):
    """Items a scorer keys its cache on. Pattern sets are downward closed
    and canonically ordered, so these are exactly the leading 1-itemsets."""
    return {itemset[0] for itemset in takewhile(lambda s: len(s) == 1, itemsets)}


def _count_keys(tracer, transactions, frequent):
    tracer.scorer_calls += len(transactions)
    tracer.scorer_keys += len({t.items & frequent for t in transactions})


def _after_rank(tracer, span, args, result):
    data, fps = args[0], args[1]
    _count_keys(tracer, data.transactions(), _frequent_items(p.itemset for p in fps))


def _after_score_new(tracer, span, args, result):
    alerts, model = args[0], args[1]
    _count_keys(tracer, alerts.transactions(),
                _frequent_items(itemset for itemset, _ in model.patterns))


def _after_load(tracer, span, args, result):
    span["attrs"]["bytes"] = os.path.getsize(args[0])


def _after_save(tracer, span, args, result):
    span["attrs"]["bytes"] = os.path.getsize(args[1])


def _after_sweep(tracer, span, args, result):
    span["attrs"]["rows"] = len(result)
    span["attrs"]["rows_failed"] = sum(1 for row in result if row.error)


def _wrap(tracer, fn, name, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if after is not None:
            with tracer.span(HOOK):
                after(tracer, span, args, result)
        return result

    return wrapper


def _wrap_transactions(tracer, fn):
    """AlertDataset.transactions itemizes on the first call and returns a
    cached tuple after; only the first call per dataset counts as work."""

    @functools.wraps(fn)
    def wrapper(self):
        first = "_transactions" not in self.__dict__
        rss_before = rss_kib() if first else 0
        with tracer.span("model.itemize") as span:
            result = fn(self)
        if first:
            span["attrs"]["rss_growth_kib"] = rss_kib() - rss_before
            with tracer.span(HOOK):
                tracer.items += sum(len(t.items) for t in result)
                tracer.distinct_items.update(chain.from_iterable(t.items for t in result))
        return result

    return wrapper


# (owner, attribute, span name, after-hook)
_FUNCTION_PATCHES = [
    (alertfp.cli, "parse_log", "ingest.parse_log", _after_parse),
    (alertfp.cli, "mine", "miner.mine", _after_mine),
    (alertfp.cli, "save_model", "store.save_model", _after_save),
    (alertfp.cli, "load_model", "store.load_model", _after_load),
    (alertfp.cli, "score_new", "store.score_new", _after_score_new),
    (alertfp.cli, "write_ranked", "scorer.write_ranked", None),
    (alertfp.cli, "sweep", "evaluate.sweep", _after_sweep),
    (alertfp.cli, "write_sweep_report", "evaluate.write_sweep_report", None),
    (alertfp.evaluate, "mine", "miner.mine", _after_mine),
    (alertfp.evaluate, "rank", "scorer.rank", _after_rank),
    (alertfp.evaluate, "locate_attacks", "evaluate.locate_attacks", None),
    (alertfp.miner, "build_candidates_1", "miner.build_candidates_1", _after_c1),
    (alertfp.miner, "candidate_gen", "miner.candidate_gen", _after_join),
    (alertfp.miner, "prune", "miner.prune", _after_prune),
    (alertfp.scorer, "rank_with_scorer", "scorer.rank_with_scorer", None),
    (alertfp.store, "rank_with_scorer", "scorer.rank_with_scorer", None),
    (alertfp.scorer.PatternScorer, "__init__", "scorer.build", None),
]


@contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        for owner, attr, name, after in _FUNCTION_PATCHES:
            patch(owner, attr, _wrap(tracer, getattr(owner, attr), name, after))
        model_cls = alertfp.store.ClassifierModel
        from_fps = model_cls.__dict__["from_pattern_set"].__func__
        patch(model_cls, "from_pattern_set",
              classmethod(_wrap(tracer, from_fps, "store.from_pattern_set")))
        dataset_cls = alertfp.model.AlertDataset
        patch(dataset_cls, "transactions",
              _wrap_transactions(tracer, dataset_cls.__dict__["transactions"]))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics of one traced job ----------------------------------


def self_times(spans: list[dict], lengths: dict[int, float]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    out = dict(lengths)
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= lengths[s["id"]]
    return out


def per_level_names() -> list[str]:
    names = []
    for k in range(1, MAX_LEVEL + 1):
        names += [f"miner.L{k}.candidates", f"miner.L{k}.kept"]
    return names


def layer_metrics(tracer: Tracer, spans: list[dict], job_s: float, length) -> dict[str, float]:
    """Per-layer numbers of one traced job from its spans and stashes;
    `length(start, end)` is the time a span counts, in job_s's units."""
    lengths = {s["id"]: length(s["start"], s["end"]) for s in spans}
    own = self_times(spans, lengths)

    def total(name, key=None):
        if key is None:
            return sum(lengths[s["id"]] for s in spans if s["name"] == name)
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def self_of(prefix):
        return sum(own[s["id"]] for s in spans if s["name"].startswith(prefix))

    m: dict[str, float] = {}
    m["ingest.parse_s"] = total("ingest.parse_log")
    m["ingest.lines"] = total("ingest.parse_log", "lines")
    m["ingest.rejected"] = total("ingest.parse_log", "rejected")

    m["model.itemize_s"] = total("model.itemize")
    m["model.items"] = tracer.items
    m["model.distinct_items"] = len(tracer.distinct_items)
    m["model.txn_mib"] = next((s["attrs"]["rss_growth_kib"] for s in spans
                               if "rss_growth_kib" in s["attrs"]), 0) / 1024

    m["miner.mine_s"] = total("miner.mine")
    m["miner.c1_s"] = total("miner.build_candidates_1")
    m["miner.join_s"] = total("miner.candidate_gen")
    m["miner.prune_s"] = total("miner.prune")
    m["miner.self_s"] = self_of("miner.mine")
    m["miner.patterns"] = total("miner.mine", "patterns")
    per_level = {name: 0 for name in per_level_names()}
    levels_by_mine: dict[int, int] = {}
    for s in spans:
        if s["name"] != "miner.prune":
            continue
        level = s["attrs"]["level"]
        per_level[f"miner.L{level}.candidates"] += s["attrs"]["candidates"]
        per_level[f"miner.L{level}.kept"] += s["attrs"]["kept"]
        if s["attrs"]["kept"]:
            levels_by_mine[s["parent"]] = max(levels_by_mine.get(s["parent"], 0), level)
    m["miner.levels"] = max(levels_by_mine.values(), default=0)
    joined = sum(per_level[f"miner.L{k}.candidates"] for k in range(2, MAX_LEVEL + 1))
    kept = sum(per_level[f"miner.L{k}.kept"] for k in range(2, MAX_LEVEL + 1))
    m["miner.kept_ratio"] = kept / joined if joined else 0.0
    c1 = per_level["miner.L1.candidates"]
    m["miner.c1_kept_ratio"] = per_level["miner.L1.kept"] / c1 if c1 else 0.0
    m.update(per_level)

    m["scorer.build_s"] = total("scorer.build")
    m["scorer.score_s"] = total("scorer.rank_with_scorer")
    m["scorer.write_s"] = total("scorer.write_ranked")
    calls, keys = tracer.scorer_calls, tracer.scorer_keys
    m["scorer.calls"] = calls
    m["scorer.distinct_keys"] = keys
    m["scorer.hit_ratio"] = 1 - keys / calls if calls else 0.0

    m["store.load_s"] = total("store.load_model")
    m["store.save_s"] = total("store.save_model")
    m["store.model_bytes"] = max(
        (s["attrs"]["bytes"] for s in spans if "bytes" in s["attrs"]), default=0
    )

    m["evaluate.sweep_s"] = total("evaluate.sweep")
    m["evaluate.rows"] = total("evaluate.sweep", "rows")
    m["evaluate.rows_failed"] = total("evaluate.sweep", "rows_failed")

    m["cli.self_s"] = self_of("cli.")
    for layer in LAYERS:
        m[f"{layer}.layer_s"] = self_of(layer + ".")
    m["trace.hook_s"] = self_of(HOOK)
    accounted = m["cli.self_s"] + m["trace.hook_s"] + sum(m[f"{layer}.layer_s"] for layer in LAYERS)
    m["trace.accounted_frac"] = accounted / job_s
    return m
