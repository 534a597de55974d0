import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierdraft import (
    Corpus,
    HierarchyConfig,
    build_model_db,
    build_vocab,
    load_model_db,
    save_model_db,
)

from conftest import make_corpus
from oracles import model_db_entries


def _vocab(n):
    return build_vocab([" ".join(f"v{i}" for i in range(n))])


def test_single_window_doc(tmp_path):
    corpus = Corpus(docs=[[3, 4, 5, 6, 1]], vocab=_vocab(10))
    db = build_model_db(corpus, window=4)
    assert db.lookup(3, 7) == [(4, 5, 6, 1)]
    assert db.n_sequences == 1
    path = tmp_path / "db.jsonl"
    save_model_db(db, path)
    record = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
    assert record == {"key": 3, "values": [[4, 5, 6, 1]], "counts": [1]}


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
    expected = model_db_entries(corpus.docs, 300, 4, 10**9)
    assert db._entries == expected
    assert list(db._entries) == list(expected)


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
    """The table, key order included, equals the ``Counter`` build's, with
    docs shorter than the window, tied counts and cuts that bite."""
    corpus = Corpus(docs=docs, vocab=_vocab(5))
    db = build_model_db(corpus, top_k=top_k, window=window, per_key=per_key)
    expected = model_db_entries(docs, top_k, window, per_key)
    assert db._entries == expected
    assert list(db._entries) == list(expected)


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
        with pytest.raises(ValueError, match=r"token ids must be integers in \[0, 2\*\*63\)"):
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
    path = tmp_path / "db.jsonl"
    save_model_db(db, path)
    assert load_model_db(path) == db


def test_truncated_file_fails_closed(tmp_path):
    corpus = make_corpus(seed=3, n_docs=5, doc_words=100, vocab_words=20)
    db = build_model_db(corpus, window=4)
    path = tmp_path / "db.jsonl"
    save_model_db(db, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 2
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="corrupt"):
        load_model_db(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "db.jsonl"
    path.write_text('{"magic":"XXXX","version":1,"m":4,"records":0}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported model-db file"):
        load_model_db(path)


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "db.jsonl"
    path.write_text('{"magic":"HDMD","version":1,"records":0}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="corrupt model-db file"):
        load_model_db(path)
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported model-db file"):
        load_model_db(path)


def test_save_is_byte_stable(tmp_path):
    corpus = make_corpus(seed=41, n_docs=30, doc_words=400, vocab_words=50)
    db = build_model_db(corpus, top_k=100_000, window=4)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_model_db(db, first)
    save_model_db(load_model_db(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_build_deterministic_bytes(tmp_path):
    for name in ("x", "y"):
        corpus = make_corpus(seed=41, n_docs=10, doc_words=200, vocab_words=30)
        db = build_model_db(corpus, top_k=500, window=4)
        save_model_db(db, tmp_path / f"{name}.jsonl")
    assert (tmp_path / "x.jsonl").read_bytes() == (tmp_path / "y.jsonl").read_bytes()


# A 12k-token corpus on 40 words: every key's list is cut to ``per_key``,
# and at window 2 the ``top_k`` cut falls inside a run of tied counts.
_GOLDEN_CORPUS = {"seed": 23, "n_docs": 40, "doc_words": 300, "vocab_words": 40}


@pytest.mark.parametrize(
    "settings, digest",
    [
        ({}, "dc449ac045b604439f8f14171b4acb6b5dc035591e255c1bc46d43eea1279669"),
        ({"window": 2, "top_k": 600},
         "03397a572f3a9827aea443b2d7037ec6649ade0f6ab1034fc22ffec123702e87"),
    ],
    ids=["defaults", "top-k-cut-in-a-tie"],
)
def test_hdmd_bytes_match_the_golden_digest(tmp_path, settings, digest):
    """The file of a fixed corpus keeps the digest it had under the
    Counter-and-sorted build."""
    path = tmp_path / "golden.jsonl"
    save_model_db(build_model_db(make_corpus(**_GOLDEN_CORPUS), **settings), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


_HEADER = '{"magic":"HDMD","version":1,"m":2,"records":%d}'


@pytest.mark.parametrize(
    "records, match",
    [
        (['{"key":"3","values":[[4,5]],"counts":[1]}'], "key '3'"),
        (['{"key":3,"values":[[4,5]],"counts":[2]}', '{"key":3,"values":[[6,7]],"counts":[1]}'],
         "key 3 is not a token id above 3"),
        (['{"key":5,"values":[[4,5]],"counts":[2]}', '{"key":3,"values":[[6,7]],"counts":[1]}'],
         "key 3 is not a token id above 5"),
        (['{"key":-3,"values":[[1,2]],"counts":[1]}'], "key -3 is not a token id"),
        (['{"key":3,"values":[[-1,-2]],"counts":[1]}'], "is not m ids"),
        (['{"key":3,"values":[[4,5,6]],"counts":[1]}'], "is not m ids"),
        (['{"key":3,"values":[[4]],"counts":[1]}'], "is not m ids"),
        (['{"key":3,"values":["ab"],"counts":[1]}'], "is not m ids"),
        (['{"key":3,"values":[[4,5]],"counts":[0]}'], "key 3 count 0 not"),
        (['{"key":3,"values":[[4,5]],"counts":[-2]}'], "key 3 count -2 not"),
        (['{"key":3,"values":[[4,5]],"counts":[1.5]}'], "key 3 count 1.5 not"),
        (['[3]'], "corrupt model-db file"),
        (['{"key":3,"values":7,"counts":[1]}'], "corrupt model-db file"),
        (['{"key":3,"values":[[4,5],[4,5]],"counts":[1,1]}'], "key 3 repeats a value"),
        (['{"key":3,"values":[[4,5],[6,7]],"counts":[1,2]}'], "key 3 rows are not count-desc"),
        (['{"key":3,"values":[[6,7],[4,5]],"counts":[1,1]}'], "key 3 rows are not count-desc"),
        (['{"key":3,"values":[],"counts":[]}'], "key 3 has no values"),
    ],
    ids=["string-key", "duplicate-key", "descending-keys", "negative-key", "negative-value-ids",
         "long-value", "short-value",
         "string-value", "zero-count", "negative-count", "float-count", "list-record",
         "int-values", "repeated-value", "count-ascending", "value-descending-at-tie",
         "no-values"],
)
def test_malformed_record_rejected(tmp_path, records, match):
    path = tmp_path / "db.jsonl"
    path.write_text("\n".join([_HEADER % len(records), *records]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        load_model_db(path)


@pytest.mark.parametrize(
    "header, match",
    [
        ('{"magic":"HDMD","version":1,"m":true,"records":1}', "header 'm' is True"),
        ('{"magic":"HDMD","version":1,"m":1,"records":true}', "expected True records"),
        ('{"magic":"HDMD","version":true,"m":1,"records":1}', "unsupported model-db file"),
    ],
    ids=["bool-window", "bool-records", "bool-version"],
)
def test_bool_header_fields_rejected(tmp_path, header, match):
    # bool is an int subclass, so JSON true would pass a plain isinstance
    # or equality check as 1.
    path = tmp_path / "db.jsonl"
    path.write_text(header + '\n{"key":3,"values":[[4]],"counts":[2]}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        load_model_db(path)
