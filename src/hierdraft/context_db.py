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
The global order over all pairs only picks the victim once the table holds
more than ``capacity`` pairs, and a table below that pays nothing for it.
Until then each value maps to its use stamp, the next number of the
table's one counter, taken again at every refresh; ``ingest`` inserts its
pairs inline. The first time the table goes over ``capacity``, the global
order is built once from the stamps, as an ``OrderedDict``. From then on
every insert and returned value moves it, as the only recency kept, and
no more stamps are taken. ``reset`` drops it, so each generation starts
with stamps alone.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import count
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
        if on_evict is not None and not callable(on_evict):
            raise ValueError(f"on_evict must be callable or None, not {on_evict!r}")
        self.window = window
        self.per_key = per_key
        self.capacity = capacity
        self.on_evict = on_evict
        # Per key: value -> use stamp, least recently used first. Values
        # inserted once the global order exists map to None.
        self._values: dict[int, dict[tuple[int, ...], int | None]] = {}
        self._stamps = count()
        # Pairs held while there is no global order; len(self._lru) after.
        self._size = 0
        # Global recency over (key, value) pairs, oldest first; built the
        # first time the table goes over ``capacity``.
        self._lru: OrderedDict[tuple[int, tuple[int, ...]], None] | None = None

    @classmethod
    def for_hierarchy(cls, hier) -> ContextDB:
        """The context DB ``hd run`` and ``run_bench`` draft from: values of
        ``hier.draft_len`` tokens, at most ``hier.set_size`` under one key."""
        return cls(window=hier.draft_len, per_key=hier.set_size)

    def __len__(self) -> int:
        return self._size if self._lru is None else len(self._lru)

    @property
    def _order(self) -> Iterable[tuple[int, tuple[int, ...]]]:
        """Every (key, value) pair, least recently used first."""
        if self._lru is not None:
            return self._lru
        stamped = sorted(
            (stamp, key, value)
            for key, values in self._values.items()
            for value, stamp in values.items()
        )
        return [(key, value) for _stamp, key, value in stamped]

    def reset(self) -> None:
        """Drop every entry."""
        self._values.clear()
        self._size = 0
        self._lru = None

    def _remove(self, key: int, value: tuple[int, ...]) -> None:
        per_key = self._values[key]
        del per_key[value]
        if not per_key:
            del self._values[key]
        if self._lru is None:
            self._size -= 1
        else:
            del self._lru[(key, value)]
        if self.on_evict is not None:
            self.on_evict(key, value)

    def insert(self, key: int, value: Iterable[int]) -> None:
        value = tuple(value)
        if not value:
            return
        lru = self._lru
        per_key = self._values.get(key)
        if lru is not None:
            # The global order exists: it moves with every pair.
            if per_key is None:
                per_key = self._values[key] = {}
            elif value in per_key:
                if len(per_key) > 1:  # a key's only value needs no move
                    del per_key[value]
                    per_key[value] = None
                lru.move_to_end((key, value))
                return
            per_key[value] = None
            lru[(key, value)] = None
            if len(per_key) > self.per_key:
                self._remove(key, next(iter(per_key)))
            if len(lru) > self.capacity:
                self._remove(*next(iter(lru)))
            return
        stamp = next(self._stamps)
        if per_key is None:
            per_key = self._values[key] = {}
        elif value in per_key:
            if len(per_key) > 1:
                del per_key[value]
            per_key[value] = stamp
            return
        per_key[value] = stamp
        self._size += 1
        if len(per_key) > self.per_key:
            self._remove(key, next(iter(per_key)))
        if self._size > self.capacity:
            self._lru = OrderedDict.fromkeys(self._order)
            self._remove(*next(iter(self._lru)))

    def ingest(self, seq: list[int]) -> None:
        """Insert one pair per position of ``seq`` whose window is full.

        Position ``i < len(seq) - window`` contributes key ``seq[i]`` with
        the following ``window`` tokens as the value, with the refreshes,
        evictions and ``on_evict`` calls of inserting each pair in turn.
        A sequence of ``window`` or fewer tokens has no full window and
        inserts nothing; only one shorter than 2 tokens raises.
        """
        if len(seq) < 2:
            raise ValueError("ingest needs a sequence of at least 2 tokens")
        window = self.window
        end = len(seq) - window
        if self._lru is not None or end > self.capacity - self._size:
            # The global bound may bind: pair by pair, through ``insert``.
            for i in range(end):
                self.insert(seq[i], seq[i + 1:i + 1 + window])
            return
        # Each pair adds at most one entry, so these cannot take the table
        # over ``capacity``: insert them inline, stamped.
        table = self._values
        stamps = self._stamps
        tokens = tuple(seq)
        for i in range(end):
            key = tokens[i]
            value = tokens[i + 1:i + 1 + window]
            per_key = table.get(key)
            if per_key is None:
                table[key] = {value: next(stamps)}
                self._size += 1
            elif value in per_key:
                if len(per_key) > 1:
                    del per_key[value]
                per_key[value] = next(stamps)
            else:
                per_key[value] = next(stamps)
                self._size += 1
                if len(per_key) > self.per_key:
                    self._remove(key, next(iter(per_key)))

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
        taken = list(reversed(per_key))[:want]
        # The values taken are already the key's most recent, in order, so
        # only their stamps, or the global order, move. Refresh from last
        # returned to first so the returned order is exactly the
        # post-lookup recency order.
        lru = self._lru
        if lru is None:
            stamps = self._stamps
            for value in reversed(taken):
                per_key[value] = next(stamps)
        else:
            for value in reversed(taken):
                lru.move_to_end((key, value))
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
