import gc
import hashlib
import random
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierdraft import (
    Corpus,
    DatabaseSet,
    DecodeConfig,
    HierarchyConfig,
    SEP,
    StatsDB,
    build_stats_db,
    build_suffix_array,
    build_vocab,
    corpus_from_texts,
    decode,
    fit_kgram,
    load_stats_db,
    save_stats_db,
)

from conftest import container, make_corpus, restamp

# An HDSA v2 file's text starts past 12 bytes of magic, version and CRC,
# its u32 vocab_size, the u32 array count and two u64 array lengths.
_TEXT_AT = 36


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


def _texts():
    """Texts of 1-400 tokens: one- and two-symbol alphabets, long runs,
    periodic texts (they need the most doubling rounds) and sparse ids up
    to 2**32 - 1."""
    two = st.lists(st.integers(0, 1), min_size=1, max_size=400)
    one = st.integers(1, 400).map(lambda n: [7] * n)
    runs = st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 80)), min_size=1, max_size=20
    ).map(lambda rs: [s for s, k in rs for _ in range(k)][:400])
    periodic = st.tuples(
        st.lists(st.integers(0, 2), min_size=1, max_size=6), st.integers(1, 400)
    ).map(lambda pn: (pn[0] * 400)[:pn[1]])
    ids = st.one_of(st.sampled_from([0, 1, 2**32 - 2, 2**32 - 1]), st.integers(0, 2**32 - 1))
    sparse = st.lists(ids, min_size=1, max_size=400)
    return st.one_of(two, one, runs, periodic, sparse)


@settings(max_examples=300, deadline=None)
@given(text=_texts())
def test_suffix_array_property_matches_naive_sort(text):
    sa = build_suffix_array(np.asarray(text, dtype=np.uint32))
    assert sa.dtype == np.uint32
    assert sa.tolist() == naive_suffix_sort(text)


@pytest.mark.parametrize(
    "top", [0, 1, 2, 2**15 - 1, 2**16 - 2, 2**16 - 1, 2**16, 2**32 - 1],
)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_suffix_array_at_the_packing_bounds(top, data):
    """The first sort packs as many leading tokens as fit in 32 bits: 33
    for a text of zeros, two up to a largest id of 2**16 - 2, one from
    2**16 - 1 on. Texts of 1-24 tokens, many shorter than that width,
    whose largest id is ``top``."""
    ids = sorted({t for t in (0, 1, SEP, top - 1, top) if 0 <= t <= top})
    text = data.draw(st.lists(st.sampled_from(ids), max_size=23))
    text.insert(data.draw(st.integers(0, len(text))), top)
    sa = build_suffix_array(np.asarray(text, dtype=np.uint32))
    assert sa.tolist() == naive_suffix_sort(text)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(docs=st.lists(st.lists(st.sampled_from([0, 1, 3, 4]), max_size=2), min_size=1, max_size=60))
def test_suffix_array_of_a_sep_heavy_text(docs):
    """Docs of 0-2 tokens make a text that is mostly SEPs."""
    db = build_stats_db(Corpus(docs=docs, vocab=_vocab(5)))
    assert db.suffix_array.tolist() == naive_suffix_sort(db.tokens.tolist())


def test_suffix_array_of_an_empty_text():
    sa = build_suffix_array(np.empty(0, dtype=np.uint32))
    assert sa.dtype == np.uint32 and len(sa) == 0


@pytest.mark.parametrize(
    "text", [[-1, 0], [0, 2**32], [0.5, 1.0]], ids=["negative", "past-u32", "float"]
)
def test_suffix_array_rejects_ids_outside_u32(text):
    with pytest.raises(ValueError, match="token ids must be integers"):
        build_suffix_array(np.asarray(text))


def test_hdsa_bytes_match_the_golden_digest(tmp_path):
    """A text has exactly one suffix array, so the file of a fixed corpus
    keeps one digest, and it is the ``struct``-only container's."""
    path = tmp_path / "golden.hdsa"
    db = build_stats_db(make_corpus(seed=23, n_docs=40, doc_words=300))
    save_stats_db(db, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "ffb641c39be83a86db3b0cb4569aa19e0a755e36b73fd35b5c6d6099bcf302cf"
    )
    arrays = [db.tokens.astype("<u4").tobytes(), db.suffix_array.astype("<u4").tobytes()]
    assert path.read_bytes() == container(b"HDSA", 2, struct.pack("<I", db.vocab_size), arrays)


def test_build_memory_per_token():
    """tracemalloc sees numpy's buffers, so the build's high-water is
    deterministic: at most 30 bytes per token of text on a 200k-token
    corpus (the lexsort construction and its Python list took 61)."""
    corpus = make_corpus(seed=5, n_docs=400, doc_words=500)
    n = corpus.n_tokens + len(corpus.docs) + 1
    assert n >= 200_000
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        db = build_stats_db(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert db.n_tokens == n
    assert (peak - base) / n <= 30


def test_suffix_array_sortedness_invariant(big_stats_db, tmp_path):
    # Every load checks permutation, token range and suffix order.
    path = tmp_path / "big.hdsa"
    save_stats_db(big_stats_db, path)
    loaded = load_stats_db(path)
    assert np.array_equal(loaded.suffix_array, big_stats_db.suffix_array)


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


def _abcd_db():
    return build_stats_db(corpus_from_texts(["a b c a b d", "b c a b c"]))


def test_find_range_takes_numpy_integer_ids():
    db = _abcd_db()
    assert db.find_range([np.int64(3), np.uint32(4)]) == db.find_range([3, 4]) != (0, 0)


@pytest.mark.parametrize("query", [[3.9], [3.0], [True], [np.bool_(True)], [3, "4"]],
                         ids=["float", "whole-float", "bool", "numpy-bool", "string"])
def test_find_range_refuses_an_id_that_is_not_an_integer(query):
    """A non-integer id is refused, not truncated to another token's range."""
    with pytest.raises(ValueError, match="query ids must be integers"):
        _abcd_db().find_range(query)


def test_retrieve_refuses_a_tail_id_that_is_not_an_integer():
    with pytest.raises(ValueError, match="query ids must be integers"):
        _abcd_db().retrieve((3.7,), 2, 2)


@pytest.mark.parametrize(
    "draft_len, want, match",
    [(True, 2, "draft_len"), (2.0, 2, "draft_len"), (0, 2, "draft_len"),
     (2, 2.5, "want"), (2, False, "want"), (2, -1, "want")],
    ids=["bool-draft-len", "float-draft-len", "zero-draft-len",
         "float-want", "bool-want", "negative-want"],
)
def test_retrieve_refuses_a_bad_draft_len_or_want(draft_len, want, match):
    with pytest.raises(ValueError, match=f"^{match} must be an integer >= "):
        _abcd_db().retrieve((3,), draft_len, want)


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
    the stats drafters' memo relies on this."""
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


def test_memo_stays_within_its_bound_and_answers_as_retrieve(monkeypatch):
    monkeypatch.setattr("hierdraft.stats_db._MEMO_ENTRIES", 5)
    corpus = make_corpus(seed=3, n_docs=4, doc_words=150, vocab_words=6)
    db = build_stats_db(corpus)
    real_retrieve = db.retrieve
    misses = []

    def counting_retrieve(tail, draft_len, want):
        misses.append((tuple(tail), draft_len, want))
        return real_retrieve(tail, draft_len, want)

    monkeypatch.setattr(db, "retrieve", counting_retrieve)
    hiers = [HierarchyConfig(), HierarchyConfig(tail_len=1, draft_len=3, set_size=2)]
    drafters = [db.drafter(hier) for hier in hiers]
    ids = sorted({t for doc in corpus.docs for t in doc})
    rng = random.Random(4)
    for _ in range(300):
        pick = rng.randrange(len(hiers))
        hier, draft = hiers[pick], drafters[pick]
        context = rng.choices(ids, k=rng.randint(1, 3))
        want = rng.randint(0, hier.set_size)
        fresh = real_retrieve(context[-hier.tail_len:], hier.draft_len, hier.set_size)
        assert draft(context, want) == [tuple(seq) for seq, _count in fresh][:want]
        assert len(db._memo) <= 5
    # The memo holds the last five misses: the oldest were dropped first,
    # and a dropped key asked for again was retrieved again.
    assert list(db._memo) == misses[-5:]
    assert len(misses) > len(set(misses)) > 5


def test_a_released_index_is_freed_by_reference_counting():
    corpus = make_corpus(seed=1, n_docs=3, doc_words=100, vocab_words=10)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    db = build_stats_db(corpus)
    config = DecodeConfig(max_tokens=20, hierarchy=HierarchyConfig(order="s"))
    decode(model, corpus.docs[0][:4], DatabaseSet(stats=db), config)
    assert db._memo
    ref = weakref.ref(db)
    enabled = gc.isenabled()
    gc.disable()  # a reference cycle would then keep the index alive
    try:
        del db
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_save_load_roundtrip(tmp_path):
    corpus = make_corpus(seed=2, n_docs=4, doc_words=150, vocab_words=12)
    db = build_stats_db(corpus)
    path = tmp_path / "db.hdsa"
    save_stats_db(db, path)
    loaded = load_stats_db(path)
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
    data[_TEXT_AT + 3] ^= 0xFF
    path.write_bytes(restamp(data))
    with pytest.raises(ValueError, match="verification failed"):
        load_stats_db(path)


def test_oversized_corpus_rejected(monkeypatch):
    import hierdraft.stats_db as stats_db_mod

    monkeypatch.setattr(stats_db_mod, "_MAX_TOKENS", 10)
    corpus = make_corpus(seed=2, n_docs=2, doc_words=50, vocab_words=10)
    with pytest.raises(ValueError, match="corpus too large for format v2"):
        stats_db_mod.build_stats_db(corpus)


class _UnreadDoc:
    """A document with a length and no tokens to read."""

    def __len__(self):
        return 2**31

    def __iter__(self):
        raise AssertionError("a token was read")


def test_oversized_corpus_refused_before_reading_a_token():
    corpus = Corpus(docs=[_UnreadDoc(), _UnreadDoc()], vocab=_vocab(10))
    with pytest.raises(ValueError, match="corpus too large for format v2"):
        build_stats_db(corpus)


def test_swapped_sa_entries_fail_verify(tmp_path):
    corpus = make_corpus(seed=2, n_docs=2, doc_words=50, vocab_words=10)
    db = build_stats_db(corpus)
    sa = db.suffix_array.copy()
    sa[0], sa[1] = sa[1], sa[0]
    with pytest.raises(ValueError, match="verification failed"):
        type(db)(db.tokens, sa, db.vocab_size)


def _saved_bytes(tmp_path):
    corpus = Corpus(docs=[[3, 4], [5, 6]], vocab=_vocab(10))
    db = build_stats_db(corpus)
    path = tmp_path / "db.hdsa"
    save_stats_db(db, path)
    return db, path, bytearray(path.read_bytes())


def test_out_of_range_suffix_array_entry_rejected_without_verify(tmp_path):
    db, path, data = _saved_bytes(tmp_path)
    assert db.n_tokens == 7
    data[_TEXT_AT + 4 * db.n_tokens + 8] = 99  # third suffix-array entry
    path.write_bytes(restamp(data))
    with pytest.raises(ValueError, match="suffix array entry out of range"):
        load_stats_db(path)


def test_text_without_final_sep_rejected(tmp_path):
    db, path, data = _saved_bytes(tmp_path)
    data[_TEXT_AT + 4 * (db.n_tokens - 1)] = 3  # final SEP becomes a word id
    path.write_bytes(restamp(data))
    with pytest.raises(ValueError, match="does not end with SEP"):
        load_stats_db(path)


@pytest.mark.parametrize(
    "damage, match",
    [("swap", "suffixes .* out of order"), ("duplicate", "suffix array is not a permutation")],
)
def test_damaged_suffix_array_rejected_on_every_load(tmp_path, damage, match):
    """Two entries swapped, or one entry written twice: every entry is in
    range, and a plain load still raises."""
    db, path, data = _saved_bytes(tmp_path)
    at = _TEXT_AT + 4 * db.n_tokens  # the first suffix-array entry
    first, second = data[at:at + 4], data[at + 4:at + 8]
    data[at:at + 8] = second + first if damage == "swap" else first + first
    path.write_bytes(restamp(data))
    with pytest.raises(ValueError, match=f"verification failed: {match}"):
        load_stats_db(path)


def test_any_adjacent_swap_is_rejected():
    """The builder's array passes the check, and swapping any one adjacent
    pair of it fails: a text has exactly one suffix array."""
    rng = random.Random(17)
    for _ in range(50):
        alphabet = rng.randint(1, 4)
        docs = [[rng.randrange(3, 3 + alphabet) for _ in range(rng.randint(1, 8))]
                for _ in range(rng.randint(1, 4))]
        db = build_stats_db(Corpus(docs=docs, vocab=_vocab(alphabet)))
        StatsDB(db.tokens, db.suffix_array, db.vocab_size)
        for i in range(db.n_tokens - 1):
            sa = db.suffix_array.copy()
            sa[i], sa[i + 1] = sa[i + 1], sa[i]
            with pytest.raises(ValueError, match="out of order"):
                StatsDB(db.tokens, sa, db.vocab_size)


def test_order_check_compares_across_chunk_seams(monkeypatch):
    """With three entries per chunk, a swap or a repeat of any adjacent
    pair, most of them across a seam between chunks, is still rejected."""
    import hierdraft.stats_db as stats_db_mod

    monkeypatch.setattr(stats_db_mod, "_CHECK_CHUNK", 3)
    db = build_stats_db(Corpus(docs=[[3, 4, 3, 4, 5], [4, 3, 5, 5]], vocab=_vocab(3)))
    StatsDB(db.tokens, db.suffix_array, db.vocab_size)
    for i in range(db.n_tokens - 1):
        swapped = db.suffix_array.copy()
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        with pytest.raises(ValueError, match="out of order"):
            StatsDB(db.tokens, swapped, db.vocab_size)
        repeated = db.suffix_array.copy()
        repeated[i + 1] = repeated[i]
        with pytest.raises(ValueError, match="not a permutation"):
            StatsDB(db.tokens, repeated, db.vocab_size)


@pytest.mark.parametrize(
    "vocab_size, match",
    [(4.5, "an integer >= 1, not 4.5"), (True, "an integer >= 1, not True"),
     (2**40, f"an integer <= {2**32 - 1}, not {2**40}")],
    ids=["float", "bool", "past-u32"],
)
def test_vocab_size_must_be_an_integer_its_u32_header_field_holds(vocab_size, match):
    """Each would construct, and its save raise ``struct.error``."""
    db = build_stats_db(Corpus(docs=[[3, 4, 3]], vocab=_vocab(3)))
    with pytest.raises(ValueError, match=f"^vocab_size must be {match}$"):
        StatsDB(db.tokens, db.suffix_array, vocab_size)
