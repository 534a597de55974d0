"""Per-session LRU table of recently seen continuations.

Keys are single tokens; values are the full ``window`` tokens that
followed the key somewhere in the current prompt or generation, learned
once per position, when its window fills. The table is bounded two ways:
at most ``per_key`` values under one key and at most ``capacity`` (key,
value) pairs overall, both evicted least-recently-used first.

The table learns inside its drafter, so the whole per-generation learning
schedule lives here and ``decode`` treats this database like any other
draft source.

Recency rules: inserting an existing pair refreshes it instead of
duplicating; a lookup refreshes every returned pair, preserving their
relative order (the first returned value stays the most recent).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable

from ._checks import check_int

EvictionHook = Callable[[int, tuple[int, ...]], None]


class ContextDB:
    def __init__(
        self,
        *,
        window: int = 4,
        per_key: int = 7,
        capacity: int = 4096,
        on_evict: EvictionHook | None = None,
    ):
        for name, value in (("window", window), ("per_key", per_key), ("capacity", capacity)):
            check_int(name, value)
        self.window = window
        self.per_key = per_key
        self.capacity = capacity
        self.on_evict = on_evict
        # Per key: the values as an ordered set, least recently used first.
        self._values: dict[int, OrderedDict[tuple[int, ...], None]] = {}
        # Global recency over (key, value) pairs, oldest first.
        self._order: OrderedDict[tuple[int, tuple[int, ...]], None] = OrderedDict()

    @classmethod
    def for_hierarchy(cls, hier) -> ContextDB:
        """The context DB ``hd run`` and ``run_bench`` draft from: values of
        ``hier.draft_len`` tokens, at most ``hier.set_size`` under one key."""
        return cls(window=hier.draft_len, per_key=hier.set_size)

    def __len__(self) -> int:
        return len(self._order)

    def reset(self) -> None:
        """Drop every entry."""
        self._values.clear()
        self._order.clear()

    def _remove(self, key: int, value: tuple[int, ...]) -> None:
        per_key = self._values[key]
        del per_key[value]
        if not per_key:
            del self._values[key]
        del self._order[(key, value)]
        if self.on_evict is not None:
            self.on_evict(key, value)

    def insert(self, key: int, value: Iterable[int]) -> None:
        value = tuple(value)
        if not value:
            return
        per_key = self._values.get(key)
        if per_key is not None and value in per_key:
            per_key.move_to_end(value)
            self._order.move_to_end((key, value))
            return
        if per_key is None:
            per_key = OrderedDict()
            self._values[key] = per_key
        per_key[value] = None
        self._order[(key, value)] = None
        if len(per_key) > self.per_key:
            oldest = next(iter(per_key))
            self._remove(key, oldest)
        if len(self._order) > self.capacity:
            old_key, old_value = next(iter(self._order))
            self._remove(old_key, old_value)

    def ingest(self, seq: list[int]) -> None:
        """Insert one pair per position of ``seq`` whose window is full.

        Position ``i < len(seq) - window`` contributes key ``seq[i]`` with
        the following ``window`` tokens as the value. Each pair goes through
        ``insert`` in turn, with its refreshes, evictions and ``on_evict``.
        A sequence of ``window`` or fewer tokens has no full window and
        inserts nothing; only one shorter than 2 tokens raises.
        """
        if len(seq) < 2:
            raise ValueError("ingest needs a sequence of at least 2 tokens")
        window = self.window
        for i in range(len(seq) - window):
            self.insert(seq[i], seq[i + 1:i + 1 + window])

    def lookup(self, key: int, want: int) -> list[tuple[int, ...]]:
        """Up to ``want`` values for ``key``, most recently used first.

        The list is fresh; its values are the stored tuples themselves, not
        copies, which is safe because tuples are immutable.
        """
        if want < 0:
            raise ValueError("want must be >= 0")
        per_key = self._values.get(key)
        if per_key is None or want == 0:
            return []
        taken = list(reversed(per_key.keys()))[:want]
        # The values taken are already the key's most recent, in order, so
        # only the global order moves. Refresh from last returned to first
        # so the returned order is exactly the post-lookup recency order.
        for value in reversed(taken):
            self._order.move_to_end((key, value))
        return taken

    def drafter(self, hier) -> Callable[[list[int], int], list[tuple[int, ...]]]:
        """Draft source for one generation; making it empties the table.

        Each probe first ingests, in one call, every position of ``context``
        whose window filled since the previous probe, so each position is
        inserted once and a probe skipped because the draft set was full is
        caught up at the next. Then it looks up ``context[-1]``. Both calls
        read ``self.ingest`` and ``self.lookup`` at call time, so wrappers
        set on the instance see every one.
        """
        self.reset()
        window = self.window
        # The first position of the context not yet in the table.
        done = 0

        def draft(context: list[int], want: int) -> list[tuple[int, ...]]:
            nonlocal done
            full = len(context) - window
            if full > done:
                self.ingest(context[done:])
                done = full
            return self.lookup(context[-1], want)

        return draft
