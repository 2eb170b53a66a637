"""Triage-quality measurement and seeded synthetic logs.

The headline metric is the reduction percentage: with the worst-placed
known attack at rank k in an n-alert ranking, an analyst reading top-down
sees every attack after k records and can skip the remaining n-k, a
100*(n-k)/n saving. A minisupport sweep ranks and locates at each of
several thresholds, filtering one mine, to chart how pattern count and
attack placement respond.

The generator builds one day of routine traffic from a handful of
repeating attribute profiles with a skewed mix (a few signatures dominate,
as real sensors show) and plants attack records carrying rare attribute
combinations from a single source address.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import AlertFpError
from .ingest import COMMENT_PREFIX
from .miner import MiningConfig, mine
from .model import Alert, AlertDataset, snort_schema
from .scorer import ScoredAlert, rank
from .textio import Target, atomic_write


@dataclass(frozen=True)
class SweepRow:
    minisupport_abs: int
    pattern_count: int | None
    last_attack_rank: int | None
    reduction_pct: float | None
    error: str | None = None


def locate_attacks(
    ranked: Sequence[ScoredAlert], attack_tids: Iterable[int]
) -> list[int]:
    """1-based ranks of the known attacks, ascending."""
    wanted = set(attack_tids)
    by_tid = {sa.tid: sa.rank for sa in ranked}
    _check_attacks(wanted, by_tid)
    return sorted(by_tid[tid] for tid in wanted)


def _check_attacks(wanted: set[int], known) -> None:
    """Raise AlertFpError unless wanted is a non-empty subset of known."""
    if not wanted:
        raise AlertFpError("no attack tids given")
    missing = sorted(tid for tid in wanted if tid not in known)
    if missing:
        raise AlertFpError(f"unknown attack tid(s): {missing}")


def reduction(n: int, last_attack_rank: int) -> float:
    """Percentage of the ranked log below the worst-placed attack."""
    if not 1 <= last_attack_rank <= n:
        raise AlertFpError(
            f"attack rank {last_attack_rank} out of range for {n} alerts"
        )
    return 100.0 * (n - last_attack_rank) / n


def sweep(
    data,
    minisupports: Sequence[int | float],
    attack_tids: Iterable[int],
    config: MiningConfig | None = None,
) -> list[SweepRow]:
    """mine, rank by the simple score, locate, reduce at each threshold;
    one row per value.

    Support is anti-monotone, so the pattern set at a threshold is exactly
    the patterns of any lower threshold's set that reach it, in the same
    canonical order. The distinct thresholds are mined in ascending order
    until one mine succeeds; every higher threshold filters that set
    (`PatternSet.at_least`). A cap the lowest mine passed cannot trip on
    a subset of it.

    A failing threshold (explosion guard, empty pattern set) produces a
    row carrying the error instead of aborting the sweep: partial results
    are the point of a diagnostic run. No attack tids, or one outside
    [0, n), raises AlertFpError before anything is mined.
    """
    if not minisupports:
        raise AlertFpError("minisupport list is empty")
    base = config or MiningConfig()
    attack_tids = tuple(attack_tids)
    n = data.n if isinstance(data, AlertDataset) else len(data)
    _check_attacks(set(attack_tids), range(n))
    thresholds = [replace(base, minisupport=value).minisupport_abs(n) for value in minisupports]
    failed: dict[int, str] = {}
    lowest = None
    for s_abs in sorted(set(thresholds)):
        try:
            lowest = mine(data, replace(base, minisupport=s_abs))
            break
        except AlertFpError as exc:
            failed[s_abs] = str(exc)
    rows: list[SweepRow] = []
    for s_abs in thresholds:
        if s_abs in failed:
            rows.append(SweepRow(s_abs, None, None, None, error=failed[s_abs]))
            continue
        fps = lowest.at_least(s_abs)
        try:
            ranked = rank(data, fps)
            worst = max(locate_attacks(ranked, attack_tids))
            rows.append(SweepRow(s_abs, fps.count, worst, reduction(n, worst)))
        except AlertFpError as exc:
            rows.append(SweepRow(s_abs, None, None, None, error=str(exc)))
    return rows


def write_sweep_report(target: Target, rows: Iterable[SweepRow]) -> None:
    """One `minisupport<TAB>pattern_count<TAB>last_attack_rank<TAB>reduction_pct`
    row per threshold, reduction at 3 decimals; failed rows carry the error."""
    with atomic_write(target) as out:
        for row in rows:
            if row.error is None:
                out.write(
                    f"{row.minisupport_abs}\t{row.pattern_count}\t"
                    f"{row.last_attack_rank}\t{row.reduction_pct:.3f}\n"
                )
            else:
                out.write(f"{row.minisupport_abs}\t-\t-\t-\t# {row.error}\n")


# ---------------------------------------------------------------------------
# Attack-id files
# ---------------------------------------------------------------------------


def write_attack_ids(target: Target, tids: Iterable[int]) -> None:
    with atomic_write(target) as out:
        for tid in tids:
            out.write(f"{tid}\n")


def resolve_attack_selectors(
    lines: Iterable[str], dataset: AlertDataset | None = None
) -> set[int]:
    """Resolve attack selectors to tids.

    A bare integer is a tid. `field=value` (e.g. `cid=8347`) matches alerts
    whose named column carries that value and needs the parsed dataset.
    """
    tids: set[int] = set()
    for raw in lines:
        text = raw.strip()
        if not text or text.startswith(COMMENT_PREFIX):
            continue
        if text.isascii() and text.isdecimal():  # int() also takes other scripts' digits
            try:
                tids.add(int(text))
            except ValueError:  # more digits than int() converts
                raise AlertFpError(f"attack tid of {len(text)} digits is too long") from None
            continue
        name, sep, value = text.partition("=")
        if not sep:
            raise AlertFpError(f"unknown attack selector {text!r}")
        if dataset is None:
            raise AlertFpError(
                f"selector {text!r} needs the original log and schema to resolve"
            )
        index = dataset.schema.field_index(name.strip())
        matched = [a.tid for a in dataset.alerts if a.values[index] == value.strip()]
        if not matched:
            raise AlertFpError(f"selector {text!r} matches no alert")
        tids.update(matched)
    if not tids:
        raise AlertFpError("attack-id input selects no alerts")
    return tids


# ---------------------------------------------------------------------------
# Synthetic log generation
# ---------------------------------------------------------------------------

_ROUTINE_SIG_NAMES = [
    "WEB-MISC/robots.txt/access",
    "WEB-MISC/doc/access",
    "ICMP/PING/speedera",
    "SNMP/public/access-udp",
    "WEB-IIS/view-source/via-translate-header",
    "POLICY/FTP/anonymous-login-attempt",
    "DNS/named/version-attempt",
    "WEB-PHP/admin.php/access",
    "CHAT/IRC/nick-change",
    "SCAN/SSH/version-map-attempt",
    "WEB-CGI/formmail/access",
    "MISC/UPnP/malformed-advertisement",
]

_ATTACK_SIG_NAMES = [
    "SHELLCODE/x86/unicode-NOOP",
    "FTP/CWD/overflow-attempt",
    "WEB-MISC/chunked-encoding/transfer-attempt",
    "WEB-CGI/cart32.exe/access",
    "FTP/CWD/~root-attempt",
    "RPC/portmap/proxy-attempt",
    "EXPLOIT/ntpdx/overflow-attempt",
]

_CLASS_IDS = ["25", "31", "34", "38", "19"]
_PRIORITIES = ["1", "2", "3"]
_DPORTS = ["80", "80", "443", "21", "25", "53"]
_SIDS = ["5", "6", "7", "8"]
_GEN_DATE = "6/22/2010"
#: signature ids: one per routine profile, one per attack, never shared
_ROUTINE_SIG_IDS = range(100, 900)
_ATTACK_SIG_IDS = range(900, 1000)


@dataclass(frozen=True)
class SyntheticSpec:
    n_records: int
    n_attack: int = 5
    routine_profiles: int = 7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_records < 1:
            raise AlertFpError("n_records must be >= 1")
        if not 0 < self.n_attack < self.n_records:
            raise AlertFpError("need 0 < n_attack < n_records")
        if self.routine_profiles < 1:
            raise AlertFpError("routine_profiles must be >= 1")
        if self.n_attack > len(_ATTACK_SIG_IDS):
            raise AlertFpError(f"at most {len(_ATTACK_SIG_IDS)} planted attacks are supported")
        if self.routine_profiles > len(_ROUTINE_SIG_IDS):
            raise AlertFpError(f"at most {len(_ROUTINE_SIG_IDS)} routine profiles are supported")


def gen_synthetic(spec: SyntheticSpec) -> tuple[AlertDataset, tuple[int, ...]]:
    """Deterministic one-day alert log with planted attacks.

    Routine alerts repeat a profile's fixed attributes (signature, class,
    priority, destination, port) with harmonically skewed profile weights;
    only the counter, source, source port, and minute vary. Each attack
    carries a sensor id, signature id, signature name, and source port
    drawn from ranges the routine traffic never uses, all from one attack
    source address, so every attack record holds several values unique in
    the dataset and strictly fewer frequent patterns than any routine
    record.
    """
    rng = random.Random(spec.seed)
    schema = snort_schema()
    n = spec.n_records

    profile_count = spec.routine_profiles
    sig_ids = rng.sample(_ROUTINE_SIG_IDS, profile_count)
    names = list(_ROUTINE_SIG_NAMES)
    while len(names) < profile_count:
        names.append(f"GENERIC/service/access-{len(names)}")
    sig_names = rng.sample(names, profile_count)
    profiles = []
    for p in range(profile_count):
        profiles.append(
            {
                "sid": rng.choice(_SIDS),
                "sig_id": str(sig_ids[p]),
                "sig_name": sig_names[p],
                "class_id": rng.choice(_CLASS_IDS),
                "priority": rng.choice(_PRIORITIES),
                "ip_dst": str(rng.randrange(2_148_000_000, 2_149_000_000)),
                "proto": "6",
                "dport": rng.choice(_DPORTS),
            }
        )
    weights = [1.0 / (p + 1) for p in range(profile_count)]

    pool_size = max(50, n // 64)
    src_pool = [str(rng.randrange(1_000_000_000, 3_600_000_000)) for _ in range(pool_size)]

    attack_tids = tuple(sorted(rng.sample(range(n), spec.n_attack)))
    attack_src = str(rng.randrange(3_700_000_000, 3_800_000_000))
    attack_sig_ids = rng.sample(_ATTACK_SIG_IDS, spec.n_attack)
    attack_names = list(_ATTACK_SIG_NAMES)
    while len(attack_names) < spec.n_attack:
        attack_names.append(f"EXPLOIT/custom/probe-{len(attack_names)}")
    attack_sig_names = rng.sample(attack_names, spec.n_attack)
    attack_sports = rng.sample(range(60_000, 65_536), spec.n_attack)

    attack_index = {tid: k for k, tid in enumerate(attack_tids)}
    alerts = []
    for tid in range(n):
        timestamp = _minute_stamp(tid, n)
        attack_no = attack_index.get(tid)
        if attack_no is not None:
            values = (
                "9",
                str(tid + 1),
                str(attack_sig_ids[attack_no]),
                attack_sig_names[attack_no],
                rng.choice(_CLASS_IDS),
                rng.choice(_PRIORITIES),
                timestamp,
                attack_src,
                rng.choice(profiles)["ip_dst"],
                "6",
                str(attack_sports[attack_no]),
                rng.choice(["80", "21", "443", "null"]),
            )
        else:
            profile = rng.choices(profiles, weights=weights)[0]
            values = (
                profile["sid"],
                str(tid + 1),
                profile["sig_id"],
                profile["sig_name"],
                profile["class_id"],
                profile["priority"],
                timestamp,
                rng.choice(src_pool),
                profile["ip_dst"],
                profile["proto"],
                str(rng.randrange(1024, 60_000)),
                profile["dport"],
            )
        alerts.append(Alert(tid, values))
    return AlertDataset(schema, tuple(alerts)), attack_tids


def _minute_stamp(tid: int, n: int) -> str:
    minute_of_day = tid * 1440 // n
    hour24, minute = divmod(minute_of_day, 60)
    meridiem = "AM" if hour24 < 12 else "PM"
    hour12 = ((hour24 + 11) % 12) + 1
    return f"{_GEN_DATE} {hour12}:{minute:02d} {meridiem}"
