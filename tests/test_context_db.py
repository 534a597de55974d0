import random

import pytest

from hierdraft import ContextDB


class ReferenceLru:
    """Flat-list LRU simulation: explicit clocks, linear scans, no shared code.

    Implements the same contract as ContextDB — per-key cap, global cap,
    refresh-on-lookup preserving the returned order — the slow obvious way.
    """

    def __init__(self, window, per_key, capacity):
        self.window = window
        self.per_key = per_key
        self.capacity = capacity
        self.clock = 0
        self.entries = []  # [key, value, last_touch]
        self.evicted = []

    def _find(self, key, value):
        for entry in self.entries:
            if entry[0] == key and entry[1] == value:
                return entry
        return None

    def insert(self, key, value):
        value = tuple(value)
        if not value:
            return
        self.clock += 1
        entry = self._find(key, value)
        if entry is not None:
            entry[2] = self.clock
            return
        self.entries.append([key, value, self.clock])
        mine = [e for e in self.entries if e[0] == key]
        if len(mine) > self.per_key:
            victim = min(mine, key=lambda e: e[2])
            self.entries.remove(victim)
            self.evicted.append((victim[0], victim[1]))
        if len(self.entries) > self.capacity:
            victim = min(self.entries, key=lambda e: e[2])
            self.entries.remove(victim)
            self.evicted.append((victim[0], victim[1]))

    def ingest(self, seq):
        for i in range(len(seq) - 1):
            self.insert(seq[i], seq[i + 1:i + 1 + self.window])

    def lookup(self, key, want):
        mine = sorted(
            (e for e in self.entries if e[0] == key), key=lambda e: -e[2]
        )[:want]
        for entry in reversed(mine):
            self.clock += 1
            entry[2] = self.clock
        return [list(e[1]) for e in mine]


def test_ingest_window_mechanics():
    db = ContextDB(window=4)
    db.ingest([3, 4, 5])
    assert db.lookup(3, 7) == [[4, 5]]
    assert db.lookup(4, 7) == [[5]]
    assert db.lookup(5, 7) == []


def test_per_key_lru_eviction():
    evicted = []
    db = ContextDB(window=4, per_key=3, on_evict=lambda k, v: evicted.append((k, v)))
    for i in range(4):
        db.insert(9, (100 + i,))
    assert evicted == [(9, (100,))]
    assert db.lookup(9, 7) == [[103], [102], [101]]


def test_global_capacity_eviction():
    db = ContextDB(window=2, per_key=7, capacity=3)
    for key in (1, 2, 3, 4):
        db.insert(key, (key + 10,))
    assert len(db) == 3
    assert db.lookup(1, 7) == []  # oldest pair evicted
    assert db.lookup(4, 7) == [[14]]


def test_reset_empties_table():
    db = ContextDB()
    db.ingest([3, 4, 5])
    db.reset()
    assert len(db) == 0
    assert db.lookup(3, 7) == []
    db.reset()  # no-op on empty
    assert len(db) == 0


def test_reinsert_refreshes_without_duplicate():
    db = ContextDB(window=4, per_key=2)
    db.insert(3, (4, 5))
    db.insert(3, (6, 7))
    db.insert(3, (4, 5))  # refresh, no duplicate
    assert db.lookup(3, 7) == [[4, 5], [6, 7]]
    db.insert(3, (8, 9))  # evicts (6, 7), the true LRU
    assert db.lookup(3, 7) == [[8, 9], [4, 5]]


def test_lookup_mru_first_after_two_ingests():
    db = ContextDB(window=4)
    db.ingest([3, 4, 5])
    db.ingest([3, 6, 7])
    assert db.lookup(3, 2) == [[6, 7], [4, 5]]


def test_lookup_refresh_preserves_returned_order():
    db = ContextDB(window=4, per_key=7)
    db.insert(1, (10,))
    db.insert(1, (11,))
    db.insert(1, (12,))
    first = db.lookup(1, 2)
    assert first == [[12], [11]]
    # The refresh must not invert the relative recency of returned values.
    assert db.lookup(1, 3) == [[12], [11], [10]]


def test_ingest_rejects_short_sequences():
    db = ContextDB()
    with pytest.raises(ValueError):
        db.ingest([3])


def test_lookup_rejects_negative_want():
    db = ContextDB()
    with pytest.raises(ValueError):
        db.lookup(3, -1)


def test_ingest_pair_count_matches_window_enumerator():
    rng = random.Random(31)
    seq = [rng.randrange(40) for _ in range(1000)]
    db = ContextDB(window=4, per_key=7, capacity=4096)
    ref = ReferenceLru(window=4, per_key=7, capacity=4096)
    db.ingest(seq)
    ref.ingest(seq)
    assert len(db) == len(ref.entries)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_trace_matches_reference(seed):
    rng = random.Random(seed)
    caps = dict(window=3, per_key=4, capacity=60)
    evicted = []
    db = ContextDB(on_evict=lambda k, v: evicted.append((k, v)), **caps)
    ref = ReferenceLru(**caps)
    for _ in range(3000):
        op = rng.random()
        if op < 0.5:
            key = rng.randrange(12)
            value = tuple(rng.randrange(12) for _ in range(rng.randint(1, 3)))
            db.insert(key, value)
            ref.insert(key, value)
        elif op < 0.7:
            seq = [rng.randrange(12) for _ in range(rng.randint(2, 8))]
            db.ingest(seq)
            ref.ingest(seq)
        else:
            key = rng.randrange(12)
            want = rng.randint(0, 6)
            assert db.lookup(key, want) == ref.lookup(key, want)
    assert evicted == ref.evicted
    assert len(db) == len(ref.entries)


def test_bounds_invariants_under_random_ops():
    rng = random.Random(99)
    db = ContextDB(window=3, per_key=3, capacity=25)
    for _ in range(2000):
        db.insert(rng.randrange(10), tuple(rng.randrange(10) for _ in range(2)))
        assert len(db) <= 25
        for key in range(10):
            per_key = db._values.get(key)
            if per_key is not None:
                assert len(per_key) <= 3
