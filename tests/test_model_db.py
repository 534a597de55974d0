import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierdraft import (
    Corpus,
    HierarchyConfig,
    ModelDB,
    build_model_db,
    build_vocab,
    load_model_db,
    save_model_db,
)

from conftest import container, make_corpus, restamp
from oracles import model_db_entries


def _vocab(n):
    return build_vocab([" ".join(f"v{i}" for i in range(n))])


def _rows(db: ModelDB) -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """key -> [(value, count), ...] in stored order, read from the
    table's columns."""
    keys, sizes, values, counts = db._columns
    rows = list(zip(map(tuple, values.tolist()), counts.tolist()))
    spans = zip(keys.tolist(), sizes.tolist(), np.cumsum(sizes).tolist())
    return {key: rows[end - size:end] for key, size, end in spans}


def _matches_the_oracle(db: ModelDB, expected: dict) -> None:
    """Every key, row, value and count, in each key's row order, equals
    the oracle's, and ``lookup`` hands out those values."""
    assert _rows(db) == expected
    assert db.keys() == sorted(expected)
    assert db._values == {key: [value for value, _ in rows] for key, rows in expected.items()}


def test_single_window_doc(tmp_path):
    corpus = Corpus(docs=[[3, 4, 5, 6, 1]], vocab=_vocab(10))
    db = build_model_db(corpus, window=4)
    assert db.lookup(3, 7) == [(4, 5, 6, 1)]
    assert db.n_sequences == 1
    path = tmp_path / "db.hdmd"
    save_model_db(db, path)
    assert _read_hdmd(path.read_bytes()) == (4, [[3], [1], [4, 5, 6, 1], [1]])


def _read_hdmd(data: bytes) -> tuple[int, list[list[int]]]:
    """An HDMD v2 file's window and columns, read with ``struct`` alone:
    12 bytes of magic, version and CRC, the ``u32`` window, the ``u32``
    array count, one ``u64`` length per array, then the ``u64`` arrays."""
    window, count = struct.unpack_from("<II", data, 12)
    at = 20 + 8 * count
    columns = []
    for length in struct.unpack_from(f"<{count}Q", data, 20):
        columns.append(list(struct.unpack_from(f"<{length // 8}Q", data, at)))
        at += length
    return window, columns


def test_top_k_keeps_most_frequent():
    docs = [[7, 8, 9, 9, 9]] * 5 + [[3, 4, 5, 6, 1], [10, 11, 12, 13, 14]]
    corpus = Corpus(docs=docs, vocab=_vocab(20))
    db = build_model_db(corpus, top_k=1, window=4)
    assert db.keys() == [7]
    assert db.lookup(7, 7) == [(8, 9, 9, 9)]


def test_build_matches_brute_force_counter():
    corpus = make_corpus(seed=17, n_docs=100, doc_words=520, vocab_words=80)
    assert corpus.n_tokens >= 50_000
    db = build_model_db(corpus, top_k=300, window=4, per_key=10**9)
    _matches_the_oracle(db, model_db_entries(corpus.docs, 300, 4, 10**9))


def test_lookup_order_matches_oracle_counts():
    corpus = make_corpus(seed=23, n_docs=20, doc_words=300, vocab_words=15)
    db = build_model_db(corpus, top_k=10_000, window=2, per_key=7)
    expected = model_db_entries(corpus.docs, 10_000, 2, 7)
    assert db.keys() == sorted(expected)
    for key, rows in expected.items():
        assert db.lookup(key, 7) == [value for value, _count in rows]


def _docs():
    """Up to 8 docs of 0-60 tokens over an alphabet of 1-16 ids, small or
    up to 2**63 - 1: few ids make counts tie, and many ids at a long
    window overflow one int64, so the builder re-ranks its packed
    prefixes. Sizes are drawn first, as plain lists would mostly be
    short."""
    def exactly(n, elements, **kwargs):
        return st.lists(elements, min_size=n, max_size=n, **kwargs)

    ids = st.one_of(st.integers(0, 20), st.integers(0, 2**63 - 1))
    alphabet = st.integers(1, 16).flatmap(lambda n: exactly(n, ids, unique=True))
    return alphabet.flatmap(
        lambda a: st.lists(
            st.integers(0, 60).flatmap(lambda n: exactly(n, st.sampled_from(a))),
            min_size=1, max_size=8,
        )
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    docs=_docs(),
    window=st.one_of(st.integers(1, 4), st.integers(16, 24)),
    top_k=st.integers(1, 60),
    per_key=st.integers(1, 8),
)
def test_build_matches_the_counter_oracle(docs, window, top_k, per_key):
    """The table equals the ``Counter`` build's, with docs shorter than
    the window, tied counts and cuts that bite."""
    corpus = Corpus(docs=docs, vocab=_vocab(5))
    db = build_model_db(corpus, top_k=top_k, window=window, per_key=per_key)
    _matches_the_oracle(db, model_db_entries(docs, top_k, window, per_key))


def test_lookup_edge_cases():
    corpus = Corpus(docs=[[3, 4, 5, 6, 1]], vocab=_vocab(10))
    db = build_model_db(corpus, window=4)
    assert db.lookup(99, 7) == []
    assert db.lookup(3, 0) == []


@pytest.mark.parametrize("want", [-1, True, 2.5])
def test_lookup_rejects_a_want_that_is_not_a_count(want):
    """A bool would run as 1 and a float fail inside the slice."""
    corpus = Corpus(docs=[[3, 4, 5, 6, 1], [3, 7, 8, 9, 1]], vocab=_vocab(12))
    db = build_model_db(corpus, window=4)
    with pytest.raises(ValueError, match="want must be an integer >= 0"):
        db.lookup(3, want)


def test_values_never_cross_doc_boundary():
    corpus = Corpus(docs=[[3, 4, 1], [5, 6, 1]], vocab=_vocab(10))
    db = build_model_db(corpus, window=2)
    all_grams = set()
    for key in db.keys():
        for value in db.lookup(key, 100):
            all_grams.add((key,) + tuple(value))
    assert all_grams == {(3, 4, 1), (5, 6, 1)}
    assert all(len(v) == 2 for k in db.keys() for v in db.lookup(k, 100))


def test_drafter_hands_out_the_stored_tuples():
    corpus = Corpus(docs=[[3, 4, 5, 6, 1], [3, 7, 8, 9, 1]], vocab=_vocab(12))
    db = build_model_db(corpus, window=4)
    draft = db.drafter(HierarchyConfig())
    first, second = draft([9, 3], 7), draft([3], 7)
    assert first == second == [(4, 5, 6, 1), (7, 8, 9, 1)]
    assert all(a is b for a, b in zip(first, second))
    first[0] = (0, 0, 0, 0)
    first.append((2, 2, 2, 2))
    assert draft([3], 7) == [(4, 5, 6, 1), (7, 8, 9, 1)]


@pytest.mark.parametrize(
    "setting, value",
    [("top_k", 0), ("top_k", True), ("window", True), ("window", 2.5), ("per_key", -1),
     ("per_key", 0)],
)
def test_build_rejects_bad_sizes(setting, value):
    corpus = Corpus(docs=[[3, 4, 5, 6, 1]], vocab=_vocab(10))
    with pytest.raises(ValueError, match=f"{setting} must be an integer >= 1"):
        build_model_db(corpus, **{setting: value})


@pytest.mark.parametrize(
    "bad", [True, 2.5, -1, "3", 2**63], ids=["bool", "float", "negative", "string", "past-int64"]
)
def test_build_refuses_a_token_that_is_not_an_id(bad):
    """An id ``load_model_db`` would refuse is refused before counting, in
    a doc too short to hold a gram as well."""
    for docs in ([[3, 4, 5, bad, 1]], [[3, 4, 5, 6, 1], [bad]]):
        with pytest.raises(ValueError, match=rf"token ids must be integers in \[0, {2**63}\)"):
            build_model_db(Corpus(docs=docs, vocab=_vocab(10)), window=4)


def test_per_key_cap():
    docs = [[3, i, i, 1] for i in range(4, 20)]
    corpus = Corpus(docs=docs, vocab=_vocab(30))
    db = build_model_db(corpus, window=3, per_key=7)
    assert len(db.lookup(3, 100)) == 7


def test_empty_generations_error():
    with pytest.raises(ValueError, match="empty"):
        build_model_db(Corpus(docs=[], vocab=_vocab(5)), window=4)


def test_save_load_roundtrip(tmp_path):
    corpus = Corpus(docs=[[3, 4, 5, 6, 1]], vocab=_vocab(10))
    db = build_model_db(corpus, window=4)
    path = tmp_path / "db.hdmd"
    save_model_db(db, path)
    assert load_model_db(path) == db


def test_truncated_file_fails_closed(tmp_path):
    """A file short of its last row fails its CRC, and with the CRC
    restamped, its lengths."""
    corpus = make_corpus(seed=3, n_docs=5, doc_words=100, vocab_words=20)
    db = build_model_db(corpus, window=4)
    path = tmp_path / "db.hdmd"
    save_model_db(db, path)
    data = path.read_bytes()
    assert _read_hdmd(data)[1][3][-1] > 0  # the last row's count ends the file
    cuts = [(data[:-8], "checksum mismatch"), (restamp(data[:-8]), "an array overruns the file")]
    for cut, match in cuts:
        path.write_bytes(cut)
        with pytest.raises(ValueError, match=f"corrupt model-db file: {match}"):
            load_model_db(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "db.hdmd"
    path.write_bytes(container(b"XXXX", 2, struct.pack("<I", 4), [b""] * 4))
    with pytest.raises(ValueError, match="unsupported model-db file"):
        load_model_db(path)


def test_malformed_header_rejected(tmp_path):
    """A file that ends inside its header numbers, and one that is not an
    HDMD file at all."""
    path = tmp_path / "db.hdmd"
    path.write_bytes(restamp(container(b"HDMD", 2, b"", [])[:12] + b"\x04\x00"))
    with pytest.raises(ValueError, match="corrupt model-db file: truncated header"):
        load_model_db(path)
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported model-db file"):
        load_model_db(path)


def test_an_empty_table_round_trips(tmp_path):
    """Docs shorter than the window give a table of no keys, and its file
    loads back empty."""
    db = build_model_db(Corpus(docs=[[3, 4, 1]], vocab=_vocab(10)), window=4)
    assert db.keys() == []
    save_model_db(db, tmp_path / "db.hdmd")
    assert _read_hdmd((tmp_path / "db.hdmd").read_bytes()) == (4, [[], [], [], []])
    assert load_model_db(tmp_path / "db.hdmd") == db


def test_an_empty_table_of_the_widest_window_loads_at_once(tmp_path):
    """A table of no rows sizes nothing by its window, so the widest
    ``u32`` window loads without building a row, and saves back the same
    bytes."""
    path = tmp_path / "db.hdmd"
    path.write_bytes(_hdmd([[], [], [], []], window=2**32 - 1))
    loaded = load_model_db(path)
    assert loaded == ModelDB(2**32 - 1, [], [], [], [])
    save_model_db(loaded, tmp_path / "again.hdmd")
    assert (tmp_path / "again.hdmd").read_bytes() == path.read_bytes()


def test_one_value_under_two_keys_loads(tmp_path):
    """Only a value repeated under one key is refused."""
    path = tmp_path / "db.hdmd"
    path.write_bytes(_hdmd([[3, 4], [1, 1], [4, 5, 4, 5], [2, 1]]))
    assert _rows(load_model_db(path)) == {3: [((4, 5), 2)], 4: [((4, 5), 1)]}


def test_save_is_byte_stable(tmp_path):
    corpus = make_corpus(seed=41, n_docs=30, doc_words=400, vocab_words=50)
    db = build_model_db(corpus, top_k=100_000, window=4)
    first = tmp_path / "a.hdmd"
    second = tmp_path / "b.hdmd"
    save_model_db(db, first)
    save_model_db(load_model_db(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_build_deterministic_bytes(tmp_path):
    for name in ("x", "y"):
        corpus = make_corpus(seed=41, n_docs=10, doc_words=200, vocab_words=30)
        db = build_model_db(corpus, top_k=500, window=4)
        save_model_db(db, tmp_path / f"{name}.hdmd")
    assert (tmp_path / "x.hdmd").read_bytes() == (tmp_path / "y.hdmd").read_bytes()


# A 12k-token corpus on 40 words: every key's list is cut to ``per_key``,
# and at window 2 the ``top_k`` cut falls inside a run of tied counts.
_GOLDEN_CORPUS = {"seed": 23, "n_docs": 40, "doc_words": 300, "vocab_words": 40}


@pytest.mark.parametrize(
    "settings, digest",
    [
        ({}, "5b012fce1c04af65a7296685ca027e71bac61671cb3095be1d7c4a0617c2ef6d"),
        ({"window": 2, "top_k": 600},
         "47f0eb9560b806ae3abdb1a5a06fd86aad84c2a1cdf1ebd3cabe58b46d66e68b"),
    ],
    ids=["defaults", "top-k-cut-in-a-tie"],
)
def test_hdmd_bytes_match_the_golden_digest(tmp_path, settings, digest):
    """The file of a fixed corpus keeps one digest, and it is the
    ``struct``-only container of the oracle's table as columns."""
    corpus = make_corpus(**_GOLDEN_CORPUS)
    db = build_model_db(corpus, **settings)
    path = tmp_path / "golden.hdmd"
    save_model_db(db, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    table = {"top_k": 100_000, "window": 4, "per_key": 7} | settings
    entries = model_db_entries(corpus.docs, table["top_k"], table["window"], table["per_key"])
    rows = [row for key in sorted(entries) for row in entries[key]]
    columns = [
        sorted(entries),
        [len(entries[key]) for key in sorted(entries)],
        [i for value, _count in rows for i in value],
        [count for _value, count in rows],
    ]
    assert path.read_bytes() == _hdmd(columns, db.window)


def _hdmd(columns, window=2, version=2) -> bytes:
    """HDMD bytes written exactly as given, with a valid CRC: ``columns``
    holds the keys, sizes, values and counts, each a list of ints stored
    as ``u64`` or the raw bytes of one array."""
    arrays = [c if isinstance(c, bytes) else struct.pack(f"<{len(c)}Q", *c) for c in columns]
    return container(b"HDMD", version, struct.pack("<I", window), arrays)


# Each v1 case, by its id, and the v2 columns that break the same rule:
# v1's string key, negative key and negative value ids are ids at or past
# 2**63 (a negative id read as u64 lands there); a string value and a
# float count are columns that hold no whole number of u64s; a record that
# is not an object is a sizes column longer than the keys; a record whose
# values are not a list is a values column of no ids.
@pytest.mark.parametrize(
    "columns, match",
    [
        ([[2**63], [1], [4, 5], [1]], "key 9223372036854775808 is not a token id above None"),
        ([[3, 3], [1, 1], [4, 5, 6, 7], [2, 1]], "key 3 is not a token id above 3"),
        ([[5, 3], [1, 1], [4, 5, 6, 7], [2, 1]], "key 3 is not a token id above 5"),
        ([[2**64 - 3], [1], [1, 2], [1]], "key 18446744073709551613 is not a token id"),
        ([[3], [1], [2**64 - 1, 2**64 - 2], [1]], "is not m ids"),
        ([[3], [1], [4, 5, 6], [1]], "3 value ids for 1 rows of m = 2 ids"),
        ([[3], [1], [4], [1]], "1 value ids for 1 rows of m = 2 ids"),
        ([[3], [1], b"ab", [1]], "array 2's 2 bytes are not uint64s"),
        ([[3], [1], [4, 5], [0]], "key 3 count 0 not"),
        ([[3], [1], [4, 5], [2**64 - 2]], "key 3 count 18446744073709551614 not"),
        ([[3], [1], [4, 5], struct.pack("<d", 1.5)[:4]], "array 3's 4 bytes are not uint64s"),
        ([[3], [1, 1], [4, 5], [1]], "1 keys and 2 sizes"),
        ([[3], [1], [], [1]], "0 value ids for 1 rows"),
        ([[3], [2], [4, 5, 4, 5], [1, 1]], "key 3 repeats a value"),
        ([[3], [2], [4, 5, 4, 5], [2, 1]], "key 3 repeats a value"),
        ([[3], [3], [4, 5, 6, 7, 4, 5], [3, 2, 1]], "key 3 repeats a value"),
        ([[3], [2], [4, 5, 6, 7], [1, 2]], "key 3 rows are not count-descending"),
        ([[3], [2], [6, 7, 4, 5], [1, 1]], "key 3 rows are not count-descending"),
        ([[3, 4], [0, 1], [6, 7], [1]], "key 3 has no values"),
    ],
    ids=["string-key", "duplicate-key", "descending-keys", "negative-key", "negative-value-ids",
         "long-value", "short-value",
         "string-value", "zero-count", "negative-count", "float-count", "list-record",
         "int-values", "repeated-value", "repeated-value-at-two-counts",
         "repeated-value-two-rows-apart", "count-ascending", "value-descending-at-tie",
         "no-values"],
)
def test_malformed_record_rejected(tmp_path, columns, match):
    path = tmp_path / "db.hdmd"
    path.write_bytes(_hdmd(columns))
    with pytest.raises(ValueError, match=f"corrupt model-db file: .*{match}"):
        load_model_db(path)


# v1's boolean header fields, by id: a window of 0, keys and sizes columns
# of different lengths (v1's record count), and a version that is not 2.
@pytest.mark.parametrize(
    "data, match",
    [
        (_hdmd([[3], [1], [4], [2]], window=0),
         "corrupt model-db file: window must be an integer >= 1, not 0"),
        (_hdmd([[3, 4], [1], [4], [2]], window=1), "corrupt model-db file: 2 keys and 1 sizes"),
        (_hdmd([[3], [1], [4], [2]], window=1, version=3), "unsupported model-db file: version 3"),
    ],
    ids=["bool-window", "bool-records", "bool-version"],
)
def test_bool_header_fields_rejected(tmp_path, data, match):
    path = tmp_path / "db.hdmd"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=match):
        load_model_db(path)


@pytest.mark.parametrize(
    "window, columns, match",
    [
        (2, [[3], [1], [4], [1]], "1 value ids for 1 rows of m = 2 ids"),
        (1, [[3], [1], [-1], [1]], "a column holds what is not an integer >= 0"),
        (1, [[-3], [1], [4], [1]], "a column holds what is not an integer >= 0"),
        (1, [[3], [1], [4], [-1]], "a column holds what is not an integer >= 0"),
        (1, [[3], [1], [4], [0]], "key 3 count 0 not in"),
        (1, [[3], [1], [4.0], [1]], "a column holds what is not an integer >= 0"),
        (1, [[3], [1], np.array([True]), [1]], "a column holds what is not an integer >= 0"),
        (True, [[3], [1], [4], [1]], "window must be an integer >= 1, not True"),
        (0, [[], [], [], []], "window must be an integer >= 1, not 0"),
        (2**32, [[], [], [], []], "window must be an integer <= 4294967295, not 4294967296"),
        (2, [[3], [2], [4, 5, 4, 5], [1, 1]], "key 3 repeats a value"),
    ],
    ids=["short-value", "negative-id", "negative-key", "negative-count", "zero-count",
         "float-id", "bool-id", "bool-window", "zero-window", "window-past-u32",
         "repeated-value"],
)
def test_the_constructor_refuses_a_malformed_table(window, columns, match):
    """What a load refuses, a build or a hand-made table is refused too,
    so no table saves a file its load refuses or fails inside its save."""
    with pytest.raises(ValueError, match=f"^{re.escape(match)}"):
        ModelDB(window, *columns)


@st.composite
def _tables(draw):
    """A window and the four columns of a table the constructor takes: up
    to 5 keys of 1-4 distinct values each, ids small or up to 2**63 - 1,
    counts that tie or not, each key's rows in (-count, value) order; or
    the empty table, at the widest ``u32`` window too."""
    window = draw(st.sampled_from([1, 2, 3, 2**32 - 1]))
    if window == 2**32 - 1:
        return window, [[], [], [], []]
    ids = st.one_of(st.integers(0, 5), st.integers(0, 2**63 - 1))
    counts = st.one_of(st.integers(1, 3), st.integers(1, 2**63 - 1))
    columns = [sorted(draw(st.sets(ids, max_size=5))), [], [], []]
    for _key in columns[0]:
        table = draw(st.dictionaries(st.tuples(*[ids] * window), counts, min_size=1, max_size=4))
        rows = sorted(table.items(), key=lambda row: (-row[1], row[0]))
        columns[1].append(len(rows))
        columns[2] += [i for value, _count in rows for i in value]
        columns[3] += [count for _value, count in rows]
    return window, columns


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=_tables())
def test_every_table_the_constructor_takes_round_trips(tmp_path_factory, table):
    """Save, load and save again: the load equals the table, and both
    files hold the same bytes."""
    window, columns = table
    db = ModelDB(window, *columns)
    root = tmp_path_factory.getbasetemp()
    save_model_db(db, root / "first.hdmd")
    loaded = load_model_db(root / "first.hdmd")
    assert loaded == db and _rows(loaded) == _rows(db) and loaded._values == db._values
    save_model_db(loaded, root / "second.hdmd")
    assert (root / "second.hdmd").read_bytes() == (root / "first.hdmd").read_bytes()


def test_a_load_shares_one_int_per_id(tmp_path):
    """A loaded value holds one int object per distinct id, as a build's
    does, and the load equals the build. Ids past 256 are not cached by
    Python, so each would otherwise be an object of its own."""
    db = build_model_db(make_corpus(seed=23, n_docs=40, doc_words=300, vocab_words=600), window=2)
    save_model_db(db, tmp_path / "db.hdmd")
    loaded = load_model_db(tmp_path / "db.hdmd")
    assert loaded == db and loaded._values == db._values
    ids = [i for values in loaded._values.values() for value in values for i in value]
    assert len({id(i) for i in ids}) == len(set(ids)) > 256
