import random

import pytest

from hierdraft import ContextDB, HierarchyConfig


class ReferenceLru:
    """Flat-list LRU simulation: explicit clocks, linear scans, no shared code.

    Implements the same contract as ContextDB — per-key cap, global cap,
    refresh-on-lookup preserving the returned order, one full-window value
    per ingested position — the slow obvious way.
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
        # Only positions followed by a full window are learned.
        for i in range(len(seq) - self.window):
            self.insert(seq[i], seq[i + 1:i + 1 + self.window])

    def lookup(self, key, want):
        mine = sorted(
            (e for e in self.entries if e[0] == key), key=lambda e: -e[2]
        )[:want]
        for entry in reversed(mine):
            self.clock += 1
            entry[2] = self.clock
        return [e[1] for e in mine]

    def order(self):
        """Every (key, value) pair, least recently used first."""
        return [(e[0], e[1]) for e in sorted(self.entries, key=lambda e: e[2])]


def test_ingest_window_mechanics():
    db = ContextDB(window=4)
    db.ingest([3, 4, 5, 6, 7, 8])
    assert db.lookup(3, 7) == [(4, 5, 6, 7)]
    assert db.lookup(4, 7) == [(5, 6, 7, 8)]
    assert db.lookup(5, 7) == []  # its window is not full yet


def test_per_key_lru_eviction():
    evicted = []
    db = ContextDB(window=4, per_key=3, on_evict=lambda k, v: evicted.append((k, v)))
    for i in range(4):
        db.insert(9, (100 + i,))
    assert evicted == [(9, (100,))]
    assert db.lookup(9, 7) == [(103,), (102,), (101,)]


def test_global_capacity_eviction():
    db = ContextDB(window=2, per_key=7, capacity=3)
    for key in (1, 2, 3, 4):
        db.insert(key, (key + 10,))
    assert len(db) == 3
    assert db.lookup(1, 7) == []  # oldest pair evicted
    assert db.lookup(4, 7) == [(14,)]


def test_reset_empties_table():
    db = ContextDB()
    db.ingest([3, 4, 5, 6, 7])
    assert len(db) == 1
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
    assert db.lookup(3, 7) == [(4, 5), (6, 7)]
    db.insert(3, (8, 9))  # evicts (6, 7), the true LRU
    assert db.lookup(3, 7) == [(8, 9), (4, 5)]


@pytest.mark.parametrize("capacity", [4096, 2], ids=["below-capacity", "at-capacity"])
def test_insert_of_an_empty_value_is_ignored(capacity):
    """An empty value adds no pair, refreshes nothing and evicts nothing,
    even into a full table."""
    evicted = []
    db = ContextDB(window=2, per_key=7, capacity=capacity,
                   on_evict=lambda k, v: evicted.append((k, v)))
    db.insert(1, (10,))
    db.insert(2, (20,))
    db.insert(3, ())
    db.insert(1, [])
    assert len(db) == 2
    assert db.lookup(3, 7) == []
    assert evicted == []
    db.insert(4, (40,))  # the oldest pair, not one the empty inserts touched
    assert evicted == ([(1, (10,))] if capacity == 2 else [])


def test_lookup_mru_first_after_two_ingests():
    db = ContextDB(window=2)
    db.ingest([3, 4, 5])
    db.ingest([3, 6, 7])
    assert db.lookup(3, 2) == [(6, 7), (4, 5)]


def test_lookup_refresh_preserves_returned_order():
    db = ContextDB(window=4, per_key=7)
    db.insert(1, (10,))
    db.insert(1, (11,))
    db.insert(1, (12,))
    first = db.lookup(1, 2)
    assert first == [(12,), (11,)]
    # The refresh must not invert the relative recency of returned values.
    assert db.lookup(1, 3) == [(12,), (11,), (10,)]


def test_ingest_rejects_short_sequences():
    db = ContextDB()
    with pytest.raises(ValueError):
        db.ingest([3])


@pytest.mark.parametrize(
    "settings",
    [{"window": 2.5}, {"per_key": True, "capacity": True}, {"capacity": 0}, {"window": "4"}],
    ids=["float-window", "bool-per-key-capacity", "zero-capacity", "string-window"],
)
def test_non_integer_settings_rejected(settings):
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        ContextDB(**settings)


@pytest.mark.parametrize("hook", [0, "print", [print]], ids=["int", "string", "list"])
def test_uncallable_eviction_hook_rejected(hook):
    """A bad hook is refused when the table is made, not at its first
    eviction deep inside a decode."""
    with pytest.raises(ValueError, match="on_evict must be callable or None"):
        ContextDB(on_evict=hook)


def test_for_hierarchy_takes_window_and_per_key_from_the_hierarchy():
    db = ContextDB.for_hierarchy(HierarchyConfig(set_size=3, draft_len=6))
    assert (db.window, db.per_key, db.capacity) == (6, 3, 4096)


def test_lookup_rejects_negative_want():
    db = ContextDB()
    with pytest.raises(ValueError):
        db.lookup(3, -1)


@pytest.mark.parametrize("want", [-1, True, 2.5])
def test_lookup_rejects_a_want_that_is_not_a_count(want):
    """A bool would run as 1 and a float fail inside the slice."""
    db = ContextDB(window=1)
    db.ingest([3, 4, 3, 5, 3, 6])
    with pytest.raises(ValueError, match="want must be an integer >= 0"):
        db.lookup(3, want)
    assert db.lookup(3, 1) == [(6,)]


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


def _random_ops(rng, db, ref, n_ops, n_keys):
    """Random inserts, ingests and lookups on both tables; every lookup
    must agree."""
    for _ in range(n_ops):
        op = rng.random()
        if op < 0.4:
            key = rng.randrange(n_keys)
            value = tuple(rng.randrange(4) for _ in range(rng.randint(1, 2)))
            db.insert(key, value)
            ref.insert(key, value)
        elif op < 0.6:
            seq = [rng.randrange(n_keys) for _ in range(rng.randint(2, 8))]
            db.ingest(seq)
            ref.ingest(seq)
        else:
            key = rng.randrange(n_keys)
            want = rng.randint(0, 4)
            assert db.lookup(key, want) == ref.lookup(key, want)


@pytest.mark.parametrize("capacity", [6, 30, 300])
def test_long_stretch_below_capacity_then_overflow_matches_reference(capacity):
    """A long stretch of refreshes, lookups and per-key evictions that
    cannot reach ``capacity`` (its keys hold at most
    ``per_key * n_keys <= capacity`` pairs), then a stretch over more keys
    that overflows: lookups, victims and recency all match the
    reference."""
    rng = random.Random(capacity)
    caps = dict(window=1, per_key=3, capacity=capacity)
    evicted = []
    db = ContextDB(on_evict=lambda k, v: evicted.append((k, v)), **caps)
    ref = ReferenceLru(**caps)
    _random_ops(rng, db, ref, 40 * capacity, n_keys=capacity // 3)
    assert ref.evicted and evicted == ref.evicted  # per-key evictions only
    assert list(db._order) == ref.order()
    _random_ops(rng, db, ref, 40 * capacity, n_keys=2 * capacity)
    assert evicted == ref.evicted
    assert list(db._order) == ref.order()
    assert len(db) == len(ref.entries) == capacity


def test_one_ingest_crossing_capacity_matches_reference():
    """One ``ingest`` call that takes the table over ``capacity`` partway
    through its sequence evicts what inserting each pair in turn would."""
    caps = dict(window=3, per_key=2, capacity=40)
    evicted = []
    db = ContextDB(on_evict=lambda k, v: evicted.append((k, v)), **caps)
    ref = ReferenceLru(**caps)
    rng = random.Random(5)
    first = [rng.randrange(30) for _ in range(40)]
    db.ingest(first)
    ref.ingest(first)
    for key in range(0, 30, 3):  # lookups move some pairs to the front
        assert db.lookup(key, 2) == ref.lookup(key, 2)
    assert len(db) == len(ref.entries) < 40
    crossing = [rng.randrange(60) for _ in range(60)]
    db.ingest(crossing)
    ref.ingest(crossing)
    assert evicted == ref.evicted
    assert len(db) == len(ref.entries) == 40
    assert list(db._order) == ref.order()
    for key in range(60):
        assert db.lookup(key, 2) == ref.lookup(key, 2)


def test_reset_after_overflow_matches_fresh_reference():
    """``reset`` after the table went over ``capacity`` empties it; a new
    stretch, overflowing again, matches a fresh reference."""
    caps = dict(window=2, per_key=3, capacity=20)
    evicted = []
    db = ContextDB(on_evict=lambda k, v: evicted.append((k, v)), **caps)
    rng = random.Random(8)
    _random_ops(rng, db, ReferenceLru(**caps), 400, n_keys=30)
    db.reset()
    assert len(db) == 0 and list(db._order) == []
    evicted.clear()
    ref = ReferenceLru(**caps)
    _random_ops(rng, db, ref, 60, n_keys=6)
    assert list(db._order) == ref.order()
    _random_ops(rng, db, ref, 400, n_keys=30)
    assert evicted == ref.evicted
    assert list(db._order) == ref.order()


def test_stale_victim_queue_is_sorted_again_and_matches_reference():
    """Overflow once, so the victim queue is sorted; refresh every live
    pair, through lookups and re-inserts, so every entry left in the queue
    is stale; then overflow again through ``insert`` and ``ingest``. The
    next eviction walks the stale queue to its end and sorts it again, and
    victims, ``on_evict`` order and later lookups match the reference."""
    caps = dict(window=2, per_key=3, capacity=12)
    evicted = []
    db = ContextDB(on_evict=lambda k, v: evicted.append((k, v)), **caps)
    ref = ReferenceLru(**caps)
    sorts = []
    by_age = db._by_age

    def counted():
        sorts.append(len(db))
        return by_age()

    db._by_age = counted
    for key in range(7):
        for value in ((key, 1), (key, 2)):
            db.insert(key, value)
            ref.insert(key, value)
    assert sorts == [13] and evicted == ref.evicted and len(evicted) == 2
    rng = random.Random(4)
    live = ref.order()
    rng.shuffle(live)
    for key, value in live:
        if key % 2:  # a lookup of 3 refreshes all of the key's values
            assert db.lookup(key, 3) == ref.lookup(key, 3)
        else:
            db.insert(key, value)
            ref.insert(key, value)
    assert sorts == [13]
    db.insert(20, (20, 1))  # every queued entry is stale now
    ref.insert(20, (20, 1))
    assert sorts == [13, 13]
    seq = [rng.randrange(30, 40) for _ in range(40)]
    db.ingest(seq)
    ref.ingest(seq)
    assert len(sorts) > 2  # the ingest used up the new queue
    assert evicted == ref.evicted
    assert len(db) == len(ref.entries) == 12
    assert [db.lookup(key, 3) for key in range(40)] == [ref.lookup(key, 3) for key in range(40)]
    db._by_age = by_age
    assert list(db._order) == ref.order()


@pytest.mark.parametrize(
    "per_key, capacity",
    [(2, 4096), (50, 12), (2, 12)],
    ids=["per-key-evictions", "global-evictions", "both-evictions"],
)
def test_ingest_equals_insert_pair_by_pair(per_key, capacity):
    """``ingest`` leaves the table, its recency and its evictions exactly as
    inserting each of its pairs in turn would."""
    rng = random.Random(per_key * capacity)
    window = 3
    fast_evicted, slow_evicted = [], []
    fast = ContextDB(window=window, per_key=per_key, capacity=capacity,
                     on_evict=lambda k, v: fast_evicted.append((k, v)))
    slow = ContextDB(window=window, per_key=per_key, capacity=capacity,
                     on_evict=lambda k, v: slow_evicted.append((k, v)))
    for _ in range(40):
        seq = [rng.randrange(6) for _ in range(rng.randint(2, 12))]
        fast.ingest(seq)
        for i in range(len(seq) - window):
            slow.insert(seq[i], seq[i + 1:i + 1 + window])
        assert list(fast._order) == list(slow._order)
    assert fast_evicted == slow_evicted
    assert fast_evicted  # the sequences forced evictions
    for key in range(6):
        assert fast.lookup(key, 7) == slow.lookup(key, 7)


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


def _recording(db):
    """Record every sequence the drafter ingests through the instance."""
    calls = []
    real_ingest = db.ingest

    def ingest(seq):
        calls.append(list(seq))
        real_ingest(seq)

    db.ingest = ingest
    return calls


def test_new_drafter_resets_table():
    db = ContextDB(window=4)
    db.ingest([3, 4, 5, 6, 7])
    assert db.lookup(3, 7) == [(4, 5, 6, 7)]
    draft = db.drafter(HierarchyConfig())
    assert len(db) == 0
    assert draft([9], 7) == []


@pytest.mark.parametrize("prompt_len", [1, 2, 6])
def test_drafter_learns_prompt_then_one_seam_per_probe(prompt_len):
    """Each probe ingests, in one call, every position whose window filled
    since the previous probe, and nothing else."""
    rng = random.Random(prompt_len)
    window = 3
    context = [rng.randrange(10) for _ in range(prompt_len)]
    db = ContextDB(window=window, per_key=4, capacity=40)
    calls = _recording(db)
    draft = db.drafter(HierarchyConfig())
    ref = ContextDB(window=window, per_key=4, capacity=40)
    expected, done = [], 0
    for _ in range(30):
        if len(context) - window > done:
            expected.append(context[done:])
            for p in range(done, len(context) - window):
                ref.insert(context[p], context[p + 1:p + 1 + window])
            done = len(context) - window
        assert draft(context, 5) == ref.lookup(context[-1], 5)
        assert list(db._order) == list(ref._order)
        context = context + [rng.randrange(10) for _ in range(rng.randint(1, window + 1))]
    assert calls == expected


def test_skipped_probe_catches_up_in_one_seam():
    hier = HierarchyConfig(draft_len=2)
    db = ContextDB(window=2)
    calls = _recording(db)
    draft = db.drafter(hier)
    context = list(range(3, 9))
    draft(context, 7)
    draft(context, 7)  # nothing new: no ingest
    context += [9, 10]  # a step that did not probe the context DB
    context += [11]
    draft(context, 7)
    # Positions 0-3 at the first probe, 4-6 (windows up to 11) at the last.
    assert calls == [list(range(3, 9)), list(range(7, 12))]


@pytest.mark.parametrize("window", [2, 4, 7])
def test_stepwise_probes_complete_every_value(window):
    """The drafter follows the table's own ``window``, not the hierarchy's
    ``draft_len``, and learning step by step stores exactly the values one
    ingest of the whole context stores."""
    context = list(range(10, 30))
    db = ContextDB(window=window)
    draft = db.drafter(HierarchyConfig())
    for n in range(1, len(context) + 1):
        draft(context[:n], 7)
    once = ContextDB(window=window)
    once.ingest(context)
    assert set(once._order) == set(db._order)


def _issued(stamps):
    """Pass on ``stamps`` one by one, listing each as it is issued."""
    issued = []

    def each():
        for stamp in stamps:
            issued.append(stamp)
            yield stamp

    return issued, each()


@pytest.mark.parametrize("window", [1, 3, 4])
def test_each_position_is_inserted_once(window):
    """Under a random probe schedule with skipped probes, position ``p`` is
    inserted exactly once, with its full window, for each
    ``p < len(context) - window`` at the last probe.

    ``ingest`` inserts inline, so the inserts are read off the use stamps:
    each insert, of a new pair or a refresh, takes the next stamp and
    leaves it on its pair. After each ``ingest`` call, the call's stamps
    name its inserted pairs in order, and a pair inserted again later in
    the call leaves its earlier stamp on no pair (``None``).
    """
    rng = random.Random(window)
    context = rng.sample(range(500), 400)  # distinct, so a key names its position
    db = ContextDB(window=window, per_key=7, capacity=4096)
    issued, db._stamps = _issued(db._stamps)
    inserted = []
    real_ingest = db.ingest

    def ingest(seq):
        first = len(issued)
        real_ingest(seq)
        by_stamp = {stamp: (key, value)
                    for key, values in db._values.items() for value, stamp in values.items()}
        inserted.extend(by_stamp.get(stamp) for stamp in issued[first:])

    db.ingest = ingest
    draft = db.drafter(HierarchyConfig())
    n = rng.randint(1, 6)
    while n < len(context):
        if rng.random() < 0.6:  # otherwise the set filled before ``c``
            draft(context[:n], 7)
        n += rng.randint(1, window + 2)
    draft(context, 7)
    expected = [(context[p], tuple(context[p + 1:p + 1 + window]))
                for p in range(len(context) - window)]
    assert inserted == expected
