"""Draft-set assembly by hierarchical database access.

Databases are probed in a configured order (default: context, then model,
then stats — highest temporal locality first). Each probe asks only for
the remaining quota, duplicates keep the copy from the earlier (higher
locality) source, and once the set is full the remaining databases are
not touched at all. The per-database access log feeds both the latency
breakdown and the draft/verify success attribution.

The stats database is immutable, so within one generation a tail it has
answered once is answered from a memo: ``decode`` passes a fresh dict per
generation, keyed on the stats tail and holding the ``set_size`` best
continuations. Ranking is a total order, so a probe for ``want`` reads the
first ``want`` of them. A memo hit still counts as an attempted probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .context_db import ContextDB
from .model_db import ModelDB
from .stats_db import StatsDB

DB_LETTERS = "cms"
SOURCE_NAMES = {"c": "context", "m": "model", "s": "stats"}


@dataclass(slots=True)
class DraftCandidate:
    tokens: tuple[int, ...]
    source: str  # "context" | "model" | "stats"


@dataclass
class HierarchyConfig:
    """Knobs of the drafting hierarchy.

    order: probe order over database letters (subset or permutation of "cms")
    enabled: which databases participate
    set_size: draft-set capacity (candidates verified per step)
    tail_len: how many trailing context tokens the stats index matches on
    draft_len: maximum candidate length / stored value length
    """

    order: str = "cms"
    enabled: str = "cms"
    set_size: int = 7
    tail_len: int = 2
    draft_len: int = 4
    capacity: int = 4096

    def __post_init__(self) -> None:
        if self.set_size < 1 or self.tail_len < 1 or self.draft_len < 1:
            raise ValueError("set_size, tail_len and draft_len must be >= 1")
        for letter in self.enabled:
            if letter not in DB_LETTERS:
                raise ValueError(f"unknown database letter: {letter!r}")
            if self.order.count(letter) != 1:
                raise ValueError(
                    f"order {self.order!r} must contain enabled database "
                    f"{letter!r} exactly once"
                )
        if len(set(self.order)) != len(self.order):
            raise ValueError(f"order {self.order!r} repeats a database")


@dataclass
class AccessRecord:
    attempted: bool = False
    returned: int = 0
    kept: int = 0
    elapsed_ns: int = 0


AccessLog = dict[str, AccessRecord]


@dataclass
class DatabaseSet:
    context: ContextDB | None = None
    model: ModelDB | None = None
    stats: StatsDB | None = None

    def get(self, letter: str):
        return getattr(self, SOURCE_NAMES[letter])


def hierarchical_draft(
    context: list[int],
    dbs: DatabaseSet,
    config: HierarchyConfig,
    stats_memo: dict[tuple[int, ...], list] | None = None,
) -> tuple[list[DraftCandidate], AccessLog]:
    """Fill a draft set of at most ``set_size`` distinct candidates.

    Context and model databases are keyed on the last context token; the
    stats index matches the last ``tail_len`` tokens with shrinking-prefix
    fallback. Databases later in the order are skipped entirely once the
    set is full, which the access log records as attempted=False.
    ``stats_memo`` may be shared by calls with the same stats database and
    config only; without one, nothing is remembered between calls.
    """
    if not context:
        raise ValueError("context must be non-empty")
    log: AccessLog = {}
    candidates: list[DraftCandidate] = []
    seen: set[tuple[int, ...]] = set()
    key = context[-1]
    if stats_memo is None:
        stats_memo = {}
    for letter in config.order:
        if letter not in config.enabled:
            continue
        record = log[letter] = AccessRecord()
        want = config.set_size - len(candidates)
        if want == 0:
            continue
        db = dbs.get(letter)
        if db is None:
            raise ValueError(f"database {SOURCE_NAMES[letter]!r} enabled but not provided")
        start = time.perf_counter_ns()
        if letter == "s":
            tail = tuple(context[-config.tail_len:])
            ranked = stats_memo.get(tail)
            if ranked is None:
                ranked = db.retrieve(list(tail), config.draft_len, config.set_size)
                stats_memo[tail] = ranked
            values = [seq for seq, _count in ranked[:want]]
        else:
            values = db.lookup(key, want)
        record.elapsed_ns = time.perf_counter_ns() - start
        record.attempted = True
        record.returned = len(values)
        source = SOURCE_NAMES[letter]
        before = len(candidates)
        for value in values:
            tokens = tuple(value)
            if tokens not in seen:
                seen.add(tokens)
                candidates.append(DraftCandidate(tokens, source))
        record.kept = len(candidates) - before
    return candidates, log
