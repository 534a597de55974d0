"""Draft-set assembly by hierarchical database access.

Databases are probed in a configured order (default: context, then model,
then stats — highest temporal locality first). Each probe asks only for
the remaining quota, duplicates keep the copy from the earlier (higher
locality) source, and once the set is full the remaining databases are
not touched at all. One ``(letter, returned, kept)`` tuple per attempted
probe feeds the draft/verify success attribution; ``decode`` turns it into
an ``AccessLog`` only for a trace. Drafting reads no clock: a traced
``decode`` times each probe by wrapping the drafters it hands in.

Every database is one kind of draft source: ``db.drafter(hier)`` returns a
``Drafter``, a ``draft(context, want)`` callable for one generation, and
``DatabaseSet.drafters`` lists them in probe order. ``hierarchical_draft``
only walks that list. A draft is a tuple of token ids from database to
verification: each drafter hands out the tuples its database stores, and
they become the candidates' tokens uncopied. What a source learns for the
generation, such as the context DB's table, lives in its drafter; the
stats index's memo of rankings is the one thing kept across generations,
on the index, shared by every drafter of it. Every call counts as an
attempted probe whether or not the source answered it from memory. A
traced probe's time is the whole call, so the context DB's ingest counts
in its ``c`` probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from ._checks import check_int
from .context_db import ContextDB
from .model_db import ModelDB
from .stats_db import StatsDB

DB_LETTERS = "cms"
SOURCE_NAMES = {"c": "context", "m": "model", "s": "stats"}


class DraftCandidate(NamedTuple):
    """Names the fields of a draft candidate; ``hierarchical_draft``
    returns the same ``(tokens, source)`` pairs as plain tuples."""

    tokens: tuple[int, ...]
    source: str  # "context" | "model" | "stats"


@dataclass
class HierarchyConfig:
    """Knobs of the drafting hierarchy.

    order: the databases that take part, as letters from "cms" in probe
        order (highest locality first); "" means none
    set_size: draft-set capacity (candidates verified per step)
    tail_len: how many trailing context tokens the stats index matches on
    draft_len: maximum length of a stats continuation, and the length of
        every value in the context DB built by ``ContextDB.for_hierarchy``;
        model-DB values keep the window their database was built with.
        The context DB learns a position only once ``window`` tokens have
        followed it, so a larger ``draft_len`` there learns later
    """

    order: str = "cms"
    set_size: int = 7
    tail_len: int = 2
    draft_len: int = 4

    def __post_init__(self) -> None:
        for name in ("set_size", "tail_len", "draft_len"):
            check_int(name, getattr(self, name))
        order = self.order
        if not isinstance(order, str) or not set(order) <= set(DB_LETTERS):
            raise ValueError(f"order {order!r} is not made of letters from {DB_LETTERS!r}")
        if len(set(order)) != len(order):
            raise ValueError(f"order {order!r} repeats a database")


@dataclass
class AccessRecord:
    attempted: bool = False
    returned: int = 0
    kept: int = 0
    elapsed_ns: int = 0


AccessLog = dict[str, AccessRecord]
# One attempted probe: (letter, returned, kept).
Probe = tuple[str, int, int]
# draft(context, want) -> a fresh list of up to ``want`` continuations of
# ``context``: the tuples the database stores, which no caller can change.
Drafter = Callable[[list[int], int], list[tuple[int, ...]]]


@dataclass
class DatabaseSet:
    context: ContextDB | None = None
    model: ModelDB | None = None
    stats: StatsDB | None = None

    def drafters(self, hier: HierarchyConfig) -> list[tuple[str, Drafter]]:
        """``(letter, drafter)`` for each database in ``hier.order``, in
        that order, fresh for one generation."""
        out = []
        for letter in hier.order:
            db = getattr(self, SOURCE_NAMES[letter])
            if db is None:
                raise ValueError(f"the {SOURCE_NAMES[letter]} DB is ordered but not provided")
            out.append((letter, db.drafter(hier)))
        return out


def hierarchical_draft(
    context: list[int],
    drafters: list[tuple[str, Drafter]],
    config: HierarchyConfig,
) -> tuple[list[DraftCandidate], list[Probe]]:
    """Fill a draft set of at most ``set_size`` distinct candidates.

    ``drafters`` come from ``DatabaseSet.drafters`` and are probed in list
    order, each for the remaining quota. Candidates are plain ``(tokens,
    source)`` pairs whose tokens are the drafters' tuples themselves, not
    copies. Drafters later in the list are skipped entirely once the set
    is full, so the probes, one ``(letter, returned, kept)`` per attempted
    drafter, are a prefix of ``drafters``.
    """
    if not context:
        raise ValueError("context must be non-empty")
    candidates: list[DraftCandidate] = []
    probes: list[Probe] = []
    seen: set[tuple[int, ...]] = set()
    set_size = config.set_size
    for letter, draft in drafters:
        before = len(candidates)
        if before == set_size:
            break
        values = draft(context, set_size - before)
        source = SOURCE_NAMES[letter]
        for tokens in values:
            if tokens not in seen:
                seen.add(tokens)
                candidates.append((tokens, source))
        probes.append((letter, len(values), len(candidates) - before))
    return candidates, probes
