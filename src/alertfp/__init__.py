"""alertfp: rank IDS alerts by frequent-pattern outlier score.

Mine frequent itemsets (with the transactions they occur in) from an
alert log, score each alert by how many of those patterns it contains,
and re-sort the log so rare, anomalous alerts surface first.
"""

from .errors import (
    AlertFpError,
    BruteForceGuardError,
    EmptyDatasetError,
    EmptyPatternSetError,
    ModelFormatError,
    PatternExplosionError,
    SchemaError,
    SchemaMismatchError,
    ValueParseError,
)
from .evaluate import (
    SweepRow,
    SyntheticSpec,
    gen_synthetic,
    locate_attacks,
    reduction,
    sweep,
)
from .ingest import ParseResult, RejectedLine, load_schema, parse_log
from .miner import (
    FrequentPattern,
    MiningConfig,
    PatternSet,
    brute_force_mine,
    mine,
)
from .model import (
    Alert,
    AlertDataset,
    AttributeSchema,
    FieldKind,
    Item,
    SchemaField,
    Transaction,
    canonicalize_value,
    itemize,
    snort_schema,
    split_timestamp,
)
from .scorer import (
    PatternScorer,
    ScoreConfig,
    ScoredAlert,
    fpof,
    rank,
    simple_fpof,
    top_candidates,
)
from .store import (
    ClassifierModel,
    load_model,
    save_model,
    schema_fingerprint,
    score_new,
)

__version__ = "0.1.0"

__all__ = [
    "Alert",
    "AlertDataset",
    "AlertFpError",
    "AttributeSchema",
    "BruteForceGuardError",
    "ClassifierModel",
    "EmptyDatasetError",
    "EmptyPatternSetError",
    "FieldKind",
    "FrequentPattern",
    "Item",
    "MiningConfig",
    "ModelFormatError",
    "ParseResult",
    "PatternExplosionError",
    "PatternScorer",
    "PatternSet",
    "RejectedLine",
    "SchemaError",
    "SchemaField",
    "SchemaMismatchError",
    "ScoreConfig",
    "ScoredAlert",
    "SweepRow",
    "SyntheticSpec",
    "Transaction",
    "ValueParseError",
    "brute_force_mine",
    "canonicalize_value",
    "fpof",
    "gen_synthetic",
    "itemize",
    "load_model",
    "load_schema",
    "locate_attacks",
    "mine",
    "parse_log",
    "rank",
    "reduction",
    "save_model",
    "schema_fingerprint",
    "score_new",
    "simple_fpof",
    "snort_schema",
    "split_timestamp",
    "sweep",
    "top_candidates",
]
