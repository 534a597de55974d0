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

How recency is kept: each key's values sit in a plain dict, least
recently used first, so a per-key eviction takes the dict's first value.
Each value maps to its use stamp, the next number of the table's one
counter, taken again at every refresh; that is the only recency kept, at
every size. A table over ``capacity`` takes its global victim from a queue
of the live (stamp, key, value) triples, sorted once and walked in order.
An entry whose pair has been refreshed or removed since no longer matches
its stamp and is skipped; any pair touched since the sort has a larger
stamp than every entry, so the first entry that matches is the global
least recently used. When the queue runs out it is sorted again from the
live stamps. Each O(n log n) sort is paid for by the n refreshes,
removals and evictions that used up the last queue, so an eviction costs
O(log n) amortized, and the queue never holds more than ``capacity + 1``
entries. A table that never goes over ``capacity`` sorts nothing.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterable, Iterator

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
        if on_evict is not None and not callable(on_evict):
            raise ValueError(f"on_evict must be callable or None, not {on_evict!r}")
        self.window = window
        self.per_key = per_key
        self.capacity = capacity
        self.on_evict = on_evict
        # Per key: value -> use stamp, least recently used first.
        self._values: dict[int, dict[tuple[int, ...], int]] = {}
        self._stamps = count()
        self._size = 0
        # Global eviction candidates, oldest first; see the module docstring.
        self._victims: Iterator[tuple[int, int, tuple[int, ...]]] = iter(())

    @classmethod
    def for_hierarchy(cls, hier) -> ContextDB:
        """The context DB ``hd run`` and ``run_bench`` draft from: values of
        ``hier.draft_len`` tokens, at most ``hier.set_size`` under one key."""
        return cls(window=hier.draft_len, per_key=hier.set_size)

    def __len__(self) -> int:
        return self._size

    def _by_age(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """Every (stamp, key, value) triple, least recently used first."""
        return sorted(
            (stamp, key, value)
            for key, values in self._values.items()
            for value, stamp in values.items()
        )

    @property
    def _order(self) -> list[tuple[int, tuple[int, ...]]]:
        """Every (key, value) pair, least recently used first."""
        return [(key, value) for _stamp, key, value in self._by_age()]

    def reset(self) -> None:
        """Drop every entry."""
        self._values.clear()
        self._size = 0
        self._victims = iter(())

    def _remove(self, key: int, value: tuple[int, ...]) -> None:
        per_key = self._values[key]
        del per_key[value]
        if not per_key:
            del self._values[key]
        self._size -= 1
        if self.on_evict is not None:
            self.on_evict(key, value)

    def _evict_oldest(self) -> None:
        """Remove the least recently used pair of the whole table."""
        table = self._values
        while True:
            for stamp, key, value in self._victims:
                per_key = table.get(key)
                if per_key is not None and per_key.get(value) == stamp:
                    self._remove(key, value)
                    return
            self._victims = iter(self._by_age())

    def insert(self, key: int, value: Iterable[int]) -> None:
        """Store ``value`` under ``key`` as the table's most recent pair.

        A pair already held is refreshed, not duplicated. A new pair that
        takes ``key`` over ``per_key`` values evicts the key's least
        recently used value; otherwise, one that takes the table over
        ``capacity`` pairs evicts the table's least recently used pair.
        Each eviction calls ``on_evict``. An empty value is ignored. The
        pair goes through ``_insert_windows``, the routine ``ingest`` uses.
        """
        value = tuple(value)
        if value:
            self._insert_windows((key, *value), len(value))

    def ingest(self, seq: list[int]) -> None:
        """Insert one pair per position of ``seq`` whose window is full.

        Position ``i < len(seq) - window`` contributes key ``seq[i]`` with
        the following ``window`` tokens as the value, inserted in turn by
        ``_insert_windows``, the routine ``insert`` uses. A sequence of
        ``window`` or fewer tokens has no full window and inserts nothing;
        only one shorter than 2 tokens raises.
        """
        if len(seq) < 2:
            raise ValueError("ingest needs a sequence of at least 2 tokens")
        self._insert_windows(tuple(seq), self.window)

    def _insert_windows(self, tokens: tuple[int, ...], window: int) -> None:
        """Insert, in turn, each position of ``tokens`` followed by a full
        ``window`` as a key and that window as its value, with ``insert``'s
        refreshes, evictions and ``on_evict`` calls. The loop is inline: a
        method call per pair was slower."""
        table = self._values
        stamps = self._stamps
        for i in range(len(tokens) - window):
            key = tokens[i]
            value = tokens[i + 1:i + 1 + window]
            per_key = table.get(key)
            if per_key is None:
                table[key] = {value: next(stamps)}
            elif value in per_key:
                if len(per_key) > 1:  # a key's only value needs no move
                    del per_key[value]
                per_key[value] = next(stamps)
                continue
            else:
                per_key[value] = next(stamps)
                if len(per_key) > self.per_key:
                    self._size += 1  # one pair in, then the key's oldest out
                    self._remove(key, next(iter(per_key)))
                    continue
            self._size += 1
            if self._size > self.capacity:
                self._evict_oldest()

    def lookup(self, key: int, want: int) -> list[tuple[int, ...]]:
        """Up to ``want`` values for ``key``, most recently used first.

        The list is fresh; its values are the stored tuples themselves, not
        copies, which is safe because tuples are immutable. A ``want`` that
        is not an ``int`` >= 0, or is a bool, raises ``ValueError``.
        """
        if type(want) is not int or want < 0:
            check_int("want", want, 0)
        per_key = self._values.get(key)
        if per_key is None or want == 0:
            return []
        taken = list(reversed(per_key))[:want]
        # The values taken are already the key's most recent, in order, so
        # only their stamps move. Refresh from last returned to first so
        # the returned order is exactly the post-lookup recency order.
        stamps = self._stamps
        for value in reversed(taken):
            per_key[value] = next(stamps)
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
