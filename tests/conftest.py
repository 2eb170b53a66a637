import io
import random

import pytest

from alertfp.ingest import parse_log
from alertfp.miner import PatternSet
from alertfp.model import (
    Alert,
    AlertDataset,
    AttributeSchema,
    FieldKind,
    Item,
    SchemaField,
    Transaction,
    snort_schema,
)

# Tiny 4-transaction market basket used across the miner and scorer
# tests; each value is its own item.
BASKET_ROWS = ["1 3 4", "2 3 5", "1 2 3 5", "2 5"]

# Three-alert Snort sample in the tool's tab-delimited layout.
SNORT_SAMPLE = (
    "7\t1\t508\tWEB-MISC/doc/access\t25\t2\t6/11/2010 8:57 AM\t1136881320\t2148203530\t6\t46,865\t80\n"
    "7\t2\t508\tWEB-MISC/robots.txt/access\t25\t2\t6/11/2010 8:57 AM\t3632363311\t2148203629\t6\t34,074\t80\n"
    "7\t3\t508\tWEB-MISC/robots.txt/access\t25\t2\t8/11/2010 8:59 AM\t3632363313\t2148203229\t6\t34,075\t80\n"
)


def basket(tid, row):
    return Transaction(tid, frozenset(Item(0, v) for v in row.split()))


def baskets(rows):
    return [basket(tid, row) for tid, row in enumerate(rows)]


def itemset(*values):
    return tuple(sorted(Item(0, v) for v in values))


def random_baskets(rng: random.Random, max_transactions=30, max_distinct_items=12):
    """Small random market-basket dataset for oracle-equivalence runs."""
    n = rng.randint(1, max_transactions)
    alphabet_size = rng.randint(1, max_distinct_items)
    alphabet = [Item(0, f"v{v}") for v in range(alphabet_size)]
    txns = []
    for tid in range(n):
        width = rng.randint(1, alphabet_size)
        txns.append(Transaction(tid, frozenset(rng.sample(alphabet, width))))
    return txns


def random_schema_dataset(rng: random.Random, max_alerts=25):
    """Random categorical dataset under a real schema; the first column is
    constant so at least one item is always frequent."""
    width = rng.randint(2, 5)
    schema = AttributeSchema(
        tuple(SchemaField(f"c{i}", FieldKind.CATEGORICAL) for i in range(width))
    )
    n = rng.randint(2, max_alerts)
    alerts = []
    for tid in range(n):
        values = ["base"] + [
            f"x{rng.randrange(3)}" for _ in range(width - 1)
        ]
        alerts.append(Alert(tid, tuple(values)))
    return AlertDataset(schema, tuple(alerts))


def pattern_set(patterns, n, minisupport_abs):
    """The PatternSet of these FrequentPatterns, in the order given, built
    from its columns; a subset of a mined set need not be downward closed."""
    patterns = tuple(patterns)
    itemsets = tuple(p.itemset for p in patterns)
    supports = tuple(p.support_count for p in patterns)
    item_bits = {i: bits for p in patterns for i, bits in zip(p.itemset, p.item_bits)}
    return PatternSet(itemsets, supports, item_bits, n, minisupport_abs)


@pytest.fixture
def baskets4():
    return baskets(BASKET_ROWS)


@pytest.fixture
def sample_dataset():
    return parse_log(io.StringIO(SNORT_SAMPLE), snort_schema()).dataset


@pytest.fixture
def sample_log_path(tmp_path):
    path = tmp_path / "sample.tsv"
    path.write_text(SNORT_SAMPLE, encoding="utf-8")
    return path


@pytest.fixture
def snort_schema_path(tmp_path):
    from alertfp.ingest import write_schema

    path = tmp_path / "snort.schema"
    write_schema(path, snort_schema())
    return path


@pytest.fixture
def scorer_builds(monkeypatch):
    """A list that grows by one entry per PatternScorer built."""
    from alertfp.scorer import PatternScorer

    builds = []
    original = PatternScorer.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PatternScorer, "__init__", counting_init)
    return builds
