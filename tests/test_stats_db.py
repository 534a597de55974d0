import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierdraft import (
    Corpus,
    SEP,
    build_stats_db,
    build_suffix_array,
    build_vocab,
    load_stats_db,
    save_stats_db,
    verify_stats_db,
)

from conftest import make_corpus


def _vocab(n):
    return build_vocab([" ".join(f"v{i}" for i in range(n))])


def naive_suffix_sort(text):
    """Oracle: sort suffixes with Python's list comparison."""
    return sorted(range(len(text)), key=lambda i: text[i:])


def naive_occurrences(text, query):
    """Oracle: sliding-window substring scan."""
    L = len(query)
    return [i for i in range(len(text) - L + 1) if text[i:i + L] == query]


def naive_retrieve(text, tail, draft_len, want):
    """Oracle: shrinking-prefix scan + tally, stopping at the first hit."""
    for length in range(len(tail), 0, -1):
        occurrences = naive_occurrences(text, tail[-length:])
        if not occurrences:
            continue
        tally = {}
        for pos in occurrences:
            continuation = []
            for token in text[pos + length:pos + length + draft_len]:
                if token == SEP:
                    break
                continuation.append(token)
            if continuation:
                key = tuple(continuation)
                tally[key] = tally.get(key, 0) + 1
        ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))[:want]
        return [(list(c), n) for c, n in ranked]
    return []


def test_text_layout_single_token_doc():
    corpus = Corpus(docs=[[5]], vocab=_vocab(10))
    db = build_stats_db(corpus)
    assert db.tokens.tolist() == [5, SEP, SEP]
    assert len(db.suffix_array) == 3


def test_suffix_array_matches_naive_sort():
    rng = random.Random(7)
    for trial in range(6):
        n = rng.randint(1, 3000)
        alphabet = rng.randint(2, 12)
        text = [rng.randrange(alphabet) for _ in range(n)]
        sa = build_suffix_array(np.asarray(text, dtype=np.uint32))
        assert sa.tolist() == naive_suffix_sort(text)


def test_suffix_array_sortedness_invariant(big_stats_db):
    verify_stats_db(big_stats_db)  # permutation + token range + order


def test_find_range_counts_match_naive():
    corpus = make_corpus(seed=19, n_docs=6, doc_words=300, vocab_words=25)
    db = build_stats_db(corpus)
    text = db.tokens.tolist()
    rng = random.Random(3)
    for _ in range(300):
        length = rng.randint(1, 3)
        if rng.random() < 0.8:
            start = rng.randrange(len(text) - length)
            query = text[start:start + length]
        else:
            query = [rng.randrange(corpus.vocab.size) for _ in range(length)]
        lo, hi = db.find_range(query)
        occurrences = naive_occurrences(text, query)
        assert hi - lo == len(occurrences)
        assert sorted(int(p) for p in db.suffix_array[lo:hi]) == occurrences


def test_find_range_absent_query_is_empty():
    corpus = Corpus(docs=[[3, 4, 5]], vocab=_vocab(10))
    db = build_stats_db(corpus)
    lo, hi = db.find_range([9, 9])
    assert lo == hi


def test_find_range_whole_text_single_hit():
    corpus = Corpus(docs=[[3, 4, 5]], vocab=_vocab(10))
    db = build_stats_db(corpus)
    lo, hi = db.find_range(db.tokens.tolist())
    assert hi - lo == 1


def test_retrieve_single_occurrence():
    corpus = Corpus(docs=[[9, 3, 4, 5, 6, 8]], vocab=_vocab(12))
    db = build_stats_db(corpus)
    got = db.retrieve([3, 4], draft_len=4, want=7)
    assert got == [([5, 6, 8], 1)]  # followers up to the document boundary


def test_retrieve_shrinking_fallback():
    corpus = Corpus(docs=[[3, 4, 5]], vocab=_vocab(12))
    db = build_stats_db(corpus)
    # [9, 3] is absent but [3] occurs: falls back to the length-1 match.
    got = db.retrieve([9, 3], draft_len=4, want=7)
    assert got == [([4, 5], 1)]


def test_retrieve_never_crosses_sep():
    corpus = Corpus(docs=[[3, 4], [5, 6]], vocab=_vocab(12))
    db = build_stats_db(corpus)
    got = db.retrieve([4], draft_len=4, want=7)
    assert got == []  # the only follower of 4 is SEP: nothing to return
    got = db.retrieve([3], draft_len=4, want=7)
    assert got == [([4], 1)]


def test_retrieve_matches_naive_oracle():
    corpus = make_corpus(seed=29, n_docs=8, doc_words=250, vocab_words=18)
    db = build_stats_db(corpus)
    text = db.tokens.tolist()
    rng = random.Random(11)
    for _ in range(300):
        length = rng.randint(1, 2)
        if rng.random() < 0.8:
            start = rng.randrange(len(text) - length)
            tail = text[start:start + length]
        else:
            tail = [rng.randrange(corpus.vocab.size) for _ in range(length)]
        want = rng.randint(0, 8)
        assert db.retrieve(tail, draft_len=4, want=want) == naive_retrieve(
            text, tail, 4, want
        )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_retrieve_property_matches_naive_oracle(data):
    """Random small corpora and tails against the scan oracle: draft lengths
    1-8, tails of 1-4 tokens, want 0-10, tails that run into the final SEP
    and ids outside the vocabulary."""
    alphabet = data.draw(st.integers(1, 6), label="alphabet")
    vocab = _vocab(alphabet)
    ids = st.sampled_from([t for t in range(vocab.size) if t != SEP])
    docs = data.draw(
        st.lists(st.lists(ids, min_size=1, max_size=30), min_size=1, max_size=5),
        label="docs",
    )
    db = build_stats_db(Corpus(docs=docs, vocab=vocab))
    text = db.tokens.tolist()
    for _ in range(25):
        length = data.draw(st.integers(1, 4), label="tail_len")
        source = data.draw(st.sampled_from(["text", "end", "random"]), label="source")
        if source == "text" and len(text) > length:
            start = data.draw(st.integers(0, len(text) - length), label="start")
            tail = text[start:start + length]
        elif source == "end":
            tail = text[len(text) - length:]
        else:
            any_id = st.one_of(st.integers(-3, vocab.size + 3), st.just(2**40))
            tail = data.draw(
                st.lists(any_id, min_size=length, max_size=length), label="tail"
            )
        draft_len = data.draw(st.integers(1, 8), label="draft_len")
        want = data.draw(st.integers(0, 10), label="want")
        lo, hi = db.find_range(tail)
        assert max(hi - lo, 0) == len(naive_occurrences(text, tail))
        assert db.retrieve(tail, draft_len, want) == naive_retrieve(text, tail, draft_len, want)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_retrieve_smaller_want_is_a_prefix(data):
    """Ranking is a total order, so the top k are the first k of the top K;
    the per-generation stats memo in drafting relies on this."""
    alphabet = data.draw(st.integers(1, 5), label="alphabet")
    vocab = _vocab(alphabet)
    ids = st.sampled_from([t for t in range(vocab.size) if t != SEP])
    docs = data.draw(
        st.lists(st.lists(ids, min_size=1, max_size=40), min_size=1, max_size=5),
        label="docs",
    )
    db = build_stats_db(Corpus(docs=docs, vocab=vocab))
    for _ in range(10):
        tail = data.draw(st.lists(ids, min_size=1, max_size=3), label="tail")
        draft_len = data.draw(st.integers(1, 6), label="draft_len")
        big = data.draw(st.integers(0, 10), label="K")
        ranked = db.retrieve(tail, draft_len, big)
        for k in range(big + 1):
            assert db.retrieve(tail, draft_len, k) == ranked[:k]


def test_retrieve_is_pure():
    corpus = make_corpus(seed=1, n_docs=3, doc_words=100, vocab_words=10)
    db = build_stats_db(corpus)
    tail = [corpus.docs[0][0]]
    assert db.retrieve(tail, 4, 7) == db.retrieve(tail, 4, 7)


def test_save_load_roundtrip(tmp_path):
    corpus = make_corpus(seed=2, n_docs=4, doc_words=150, vocab_words=12)
    db = build_stats_db(corpus)
    path = tmp_path / "db.hdsa"
    save_stats_db(db, path)
    loaded = load_stats_db(path, verify=True)
    assert np.array_equal(loaded.tokens, db.tokens)
    assert np.array_equal(loaded.suffix_array, db.suffix_array)
    assert loaded.vocab_size == db.vocab_size


def test_save_twice_identical_bytes(tmp_path):
    corpus = make_corpus(seed=2, n_docs=4, doc_words=150, vocab_words=12)
    db = build_stats_db(corpus)
    a, b = tmp_path / "a.hdsa", tmp_path / "b.hdsa"
    save_stats_db(db, a)
    save_stats_db(load_stats_db(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_corrupt_header_rejected(tmp_path):
    path = tmp_path / "bad.hdsa"
    path.write_bytes(b"XXSA" + b"\x00" * 20)
    with pytest.raises(ValueError, match="bad magic"):
        load_stats_db(path)
    path.write_bytes(b"HD")
    with pytest.raises(ValueError, match="truncated"):
        load_stats_db(path)


def test_truncated_body_rejected(tmp_path):
    corpus = make_corpus(seed=2, n_docs=2, doc_words=50, vocab_words=10)
    db = build_stats_db(corpus)
    path = tmp_path / "db.hdsa"
    save_stats_db(db, path)
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(ValueError, match="corrupt"):
        load_stats_db(path)


def test_flipped_token_byte_fails_verify(tmp_path):
    corpus = make_corpus(seed=2, n_docs=2, doc_words=50, vocab_words=10)
    db = build_stats_db(corpus)
    path = tmp_path / "db.hdsa"
    save_stats_db(db, path)
    data = bytearray(path.read_bytes())
    # Highest byte of the first token becomes 0xFF: id flies out of vocab range.
    data[20 + 3] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="verification failed"):
        load_stats_db(path, verify=True)
    # The token-range check runs on every load, not only under --verify.
    with pytest.raises(ValueError):
        load_stats_db(path)


def test_oversized_corpus_rejected(monkeypatch):
    import hierdraft.stats_db as stats_db_mod

    monkeypatch.setattr(stats_db_mod, "_MAX_TOKENS", 10)
    corpus = make_corpus(seed=2, n_docs=2, doc_words=50, vocab_words=10)
    with pytest.raises(ValueError, match="corpus too large for format v1"):
        stats_db_mod.build_stats_db(corpus)


def test_swapped_sa_entries_fail_verify(tmp_path):
    corpus = make_corpus(seed=2, n_docs=2, doc_words=50, vocab_words=10)
    db = build_stats_db(corpus)
    sa = db.suffix_array.copy()
    sa[0], sa[1] = sa[1], sa[0]
    broken = type(db)(db.tokens, sa, db.vocab_size)
    with pytest.raises(ValueError, match="verification failed"):
        verify_stats_db(broken)


def _saved_bytes(tmp_path):
    corpus = Corpus(docs=[[3, 4], [5, 6]], vocab=_vocab(10))
    db = build_stats_db(corpus)
    path = tmp_path / "db.hdsa"
    save_stats_db(db, path)
    return db, path, bytearray(path.read_bytes())


def test_out_of_range_suffix_array_entry_rejected_without_verify(tmp_path):
    db, path, data = _saved_bytes(tmp_path)
    assert db.n_tokens == 7
    data[20 + 4 * db.n_tokens + 8] = 99  # third suffix-array entry
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="suffix array entry out of range"):
        load_stats_db(path)


def test_text_without_final_sep_rejected(tmp_path):
    db, path, data = _saved_bytes(tmp_path)
    data[20 + 4 * (db.n_tokens - 1)] = 3  # final SEP becomes a word id
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="does not end with SEP"):
        load_stats_db(path)
