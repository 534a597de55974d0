"""Per-session LRU table of recently seen continuations.

Keys are single tokens; values are the up-to-``window`` tokens that
followed the key somewhere in the current prompt or generation. The table
is rebuilt for every generation and bounded two ways: at most ``per_key``
values under one key and at most ``capacity`` (key, value) pairs overall,
both evicted least-recently-used first.

Recency rules: inserting an existing pair refreshes it instead of
duplicating; a lookup refreshes every returned pair, preserving their
relative order (the first returned value stays the most recent).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable

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
        if window < 1 or per_key < 1 or capacity < 1:
            raise ValueError("window, per_key and capacity must be >= 1")
        self.window = window
        self.per_key = per_key
        self.capacity = capacity
        self.on_evict = on_evict
        # Per key: the values as an ordered set, least recently used first.
        self._values: dict[int, OrderedDict[tuple[int, ...], None]] = {}
        # Global recency over (key, value) pairs, oldest first.
        self._order: OrderedDict[tuple[int, tuple[int, ...]], None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def reset(self) -> None:
        """Drop every entry."""
        self._values.clear()
        self._order.clear()

    def _touch(self, key: int, value: tuple[int, ...]) -> None:
        self._values[key].move_to_end(value)
        self._order.move_to_end((key, value))

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
            self._touch(key, value)
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
        """Insert one sliding-window pair per position of ``seq``.

        Position ``i`` contributes key ``seq[i]`` with the following
        ``min(window, remaining)`` tokens as the value; the final position
        has no followers and is skipped.
        """
        if len(seq) < 2:
            raise ValueError("ingest needs a sequence of at least 2 tokens")
        for i in range(len(seq) - 1):
            self.insert(seq[i], seq[i + 1:i + 1 + self.window])

    def lookup(self, key: int, want: int) -> list[list[int]]:
        """Up to ``want`` values for ``key``, most recently used first."""
        if want < 0:
            raise ValueError("want must be >= 0")
        per_key = self._values.get(key)
        if per_key is None or want == 0:
            return []
        taken = list(reversed(per_key.keys()))[:want]
        # Refresh from last returned to first so the returned order is
        # exactly the post-lookup recency order.
        for value in reversed(taken):
            self._touch(key, value)
        return [list(v) for v in taken]
