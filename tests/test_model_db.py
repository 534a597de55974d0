import json
from collections import Counter

import pytest

from hierdraft import Corpus, build_model_db, build_vocab, load_model_db, save_model_db

from conftest import make_corpus


def _vocab(n):
    return build_vocab([" ".join(f"v{i}" for i in range(n))])


def test_single_window_doc(tmp_path):
    corpus = Corpus(docs=[[3, 4, 5, 6, 1]], vocab=_vocab(10))
    db = build_model_db(corpus, window=4)
    assert db.lookup(3, 7) == [[4, 5, 6, 1]]
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
    assert db.lookup(7, 7) == [[8, 9, 9, 9]]


def _oracle_top_k(docs, top_k, window):
    """Independent (1 + window)-gram counting with a plain Counter."""
    size = 1 + window
    freq = Counter()
    for doc in docs:
        for i in range(len(doc) - size + 1):
            freq[tuple(doc[i:i + size])] += 1
    return sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]


def test_build_matches_brute_force_counter():
    corpus = make_corpus(seed=17, n_docs=100, doc_words=520, vocab_words=80)
    assert corpus.n_tokens >= 50_000
    top_k = 300
    db = build_model_db(corpus, top_k=top_k, window=4, per_key=10**9)
    expected = _oracle_top_k(corpus.docs, top_k, 4)
    got = []
    for key in db.keys():
        for value, count in db._entries[key]:
            got.append(((key,) + value, count))
    assert sorted(got, key=lambda kv: (-kv[1], kv[0])) == expected


def test_lookup_order_matches_oracle_counts():
    corpus = make_corpus(seed=23, n_docs=20, doc_words=300, vocab_words=15)
    db = build_model_db(corpus, top_k=10_000, window=2, per_key=7)
    expected = _oracle_top_k(corpus.docs, 10_000, 2)
    by_key = {}
    for gram, count in expected:
        by_key.setdefault(gram[0], []).append((list(gram[1:]), count))
    for key in db.keys():
        want = [v for v, _c in by_key[key][:7]]
        assert db.lookup(key, 7) == want


def test_lookup_edge_cases():
    corpus = Corpus(docs=[[3, 4, 5, 6, 1]], vocab=_vocab(10))
    db = build_model_db(corpus, window=4)
    assert db.lookup(99, 7) == []
    assert db.lookup(3, 0) == []


def test_values_never_cross_doc_boundary():
    corpus = Corpus(docs=[[3, 4, 1], [5, 6, 1]], vocab=_vocab(10))
    db = build_model_db(corpus, window=2)
    all_grams = set()
    for key in db.keys():
        for value in db.lookup(key, 100):
            all_grams.add((key,) + tuple(value))
    assert all_grams == {(3, 4, 1), (5, 6, 1)}
    assert all(len(v) == 2 for k in db.keys() for v in db.lookup(k, 100))


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


_HEADER = '{"magic":"HDMD","version":1,"m":2,"records":%d}'


@pytest.mark.parametrize(
    "records, match",
    [
        (['{"key":"3","values":[[4,5]],"counts":[1]}'], "key '3'"),
        (['{"key":3,"values":[[4,5]],"counts":[2]}', '{"key":3,"values":[[6,7]],"counts":[1]}'],
         "key 3 is not an integer above 3"),
        (['{"key":5,"values":[[4,5]],"counts":[2]}', '{"key":3,"values":[[6,7]],"counts":[1]}'],
         "key 3 is not an integer above 5"),
        (['{"key":3,"values":[[4,5,6]],"counts":[1]}'], "is not m ids"),
        (['{"key":3,"values":[[4]],"counts":[1]}'], "is not m ids"),
        (['{"key":3,"values":["ab"],"counts":[1]}'], "is not m ids"),
        (['{"key":3,"values":[[4,5]],"counts":[0]}'], "key 3 count 0 not"),
        (['{"key":3,"values":[[4,5]],"counts":[-2]}'], "key 3 count -2 not"),
        (['{"key":3,"values":[[4,5]],"counts":[1.5]}'], "key 3 count 1.5 not"),
        (['[3]'], "corrupt model-db file"),
        (['{"key":3,"values":7,"counts":[1]}'], "corrupt model-db file"),
    ],
    ids=["string-key", "duplicate-key", "descending-keys", "long-value", "short-value",
         "string-value", "zero-count", "negative-count", "float-count", "list-record",
         "int-values"],
)
def test_malformed_record_rejected(tmp_path, records, match):
    path = tmp_path / "db.jsonl"
    path.write_text("\n".join([_HEADER % len(records), *records]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        load_model_db(path)
