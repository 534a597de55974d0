import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierdraft import (
    EOS,
    SEP,
    UNK,
    Corpus,
    Vocab,
    build_model_db,
    build_stats_db,
    build_vocab,
    corpus_from_texts,
    detokenize,
    fit_kgram,
    load_corpus,
    tokenize,
)
from hierdraft.corpus import tokenize_strict

from conftest import make_text


def test_build_vocab_first_occurrence_order():
    vocab = build_vocab(["a b a"])
    assert tokenize("a b", vocab) == [3, 4]
    assert vocab.size == 5


def test_build_vocab_deterministic():
    first = build_vocab(["x y z x"])
    second = build_vocab(["x y z x"])
    assert first == second
    assert first == Vocab(["x", "y", "z"])


def test_build_vocab_empty_is_error():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab([])
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab(["", "   "])


def test_vocab_size_matches_distinct_word_count():
    text = make_text(random.Random(3), 10_000, vocab_words=700)
    vocab = build_vocab([text])
    # Independent oracle: a plain hash-set pass over the words.
    distinct = len(set(text.split()))
    assert vocab.size == 3 + distinct


def test_tokenize_basics():
    vocab = build_vocab(["a b a"])
    assert tokenize("a b", vocab) == [3, 4]
    assert tokenize("", vocab) == []
    assert tokenize("a z", vocab) == [3, UNK]


def test_detokenize_basics():
    vocab = build_vocab(["a b a"])
    assert detokenize([3, 4], vocab) == "a b"
    assert detokenize([], vocab) == ""
    assert detokenize([UNK], vocab) == "<unk>"
    assert detokenize([3, EOS, 4], vocab) == "a b"


def test_detokenize_unknown_id_is_error():
    vocab = build_vocab(["a"])
    with pytest.raises(ValueError, match="unknown token id"):
        detokenize([99], vocab)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=49), min_size=1, max_size=30))
def test_roundtrip_identity_on_in_vocab_sequences(indices):
    vocab = build_vocab([" ".join(f"word{i}" for i in range(50))])
    seq = [3 + i for i in indices]
    assert tokenize(detokenize(seq, vocab), vocab) == seq


def test_roundtrip_on_random_text():
    rng = random.Random(9)
    vocab = build_vocab([" ".join(f"t{i}" for i in range(100))])
    for _ in range(1000):
        words = [f"t{rng.randrange(100)}" for _ in range(rng.randint(1, 20))]
        text = " ".join(words)
        assert detokenize(tokenize(text, vocab), vocab) == text


def test_load_corpus_appends_eos(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("a b\nc d e\n", encoding="utf-8")
    corpus = load_corpus([path])
    assert len(corpus.docs) == 2
    assert all(doc[-1] == EOS for doc in corpus.docs)
    assert corpus.docs[0] == [3, 4, EOS]


def test_load_corpus_per_file(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("a b\nc d\n", encoding="utf-8")
    corpus = load_corpus([path], doc_per_line=False)
    assert len(corpus.docs) == 1
    assert corpus.docs[0][-1] == EOS


def test_load_corpus_unreadable_names_path(tmp_path):
    missing = tmp_path / "nope.txt"
    with pytest.raises(ValueError, match="nope.txt"):
        load_corpus([missing])


def test_corpus_docs_never_contain_sep():
    corpus = corpus_from_texts(["a b c", "d e"])
    for doc in corpus.docs:
        assert 2 not in doc


def test_vocab_save_load_roundtrip(tmp_path):
    vocab = build_vocab(["alpha beta gamma"])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    assert Vocab.load(path) == vocab
    assert path.read_text(encoding="utf-8") == "alpha\nbeta\ngamma\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("alpha\n\nbeta\ngamma\n", 2),  # a blank line would shift later ids
        ("alpha\nbeta gamma\n", 2),  # tokenize never yields a spaced word
        ("alpha\n beta\n", 2),
        ("alpha\nbeta\n\n", 3),
    ],
)
def test_vocab_load_fails_closed(tmp_path, text, line):
    path = tmp_path / "vocab.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"vocab.txt:{line}:"):
        Vocab.load(path)


def test_tokenize_strict_names_first_oov_word_and_line():
    vocab = build_vocab(["the cat sat"])
    assert tokenize_strict("the cat\nsat", vocab, "x") == tokenize("the cat sat", vocab)
    with pytest.raises(ValueError, match="out-of-vocabulary word 'dog' at prompts.txt:2$"):
        tokenize_strict("the cat\nthe dog sat\nthe emu", vocab, "prompts.txt")
    with pytest.raises(ValueError, match="'dog' at notes:8$"):
        tokenize_strict("the dog", vocab, "notes", line=8)


@pytest.mark.parametrize("doc_per_line", [True, False])
def test_load_corpus_rejects_oov_words(tmp_path, doc_per_line):
    vocab = build_vocab(["a b c"])
    path = tmp_path / "docs.txt"
    path.write_text("a b\n\nc z a\ny\n", encoding="utf-8")
    with pytest.raises(ValueError, match="out-of-vocabulary word 'z' at .*docs.txt:3$"):
        load_corpus([path], vocab=vocab, doc_per_line=doc_per_line)
    # Without a given vocabulary every word is in the one built.
    assert load_corpus([path], doc_per_line=doc_per_line).n_tokens > 0


def test_corpus_from_texts_rejects_oov_words():
    vocab = build_vocab(["the cat"])
    # The index counts every given text, blank ones included.
    with pytest.raises(ValueError, match="out-of-vocabulary word 'dog' in text 2$"):
        corpus_from_texts(["the cat", "  ", "the dog", "emu"], vocab=vocab)
    assert corpus_from_texts(["the cat", "cat"], vocab=vocab).docs == [[3, 4, EOS], [4, EOS]]


_BUILDERS = {
    "fit_kgram": lambda corpus: fit_kgram(corpus, k=2, alpha=0.5),
    "build_model_db": lambda corpus: build_model_db(corpus, window=1),
    "build_stats_db": build_stats_db,
}


@pytest.mark.parametrize("builder", _BUILDERS)
@pytest.mark.parametrize(
    "bad", [True, 2.7, -1, "past-the-bound"], ids=["bool", "float", "negative", "out-of-range"]
)
def test_every_builder_refuses_an_id_that_is_not_one(builder, bad):
    """One rule for the three builders: an id is an ``int``, not a bool,
    in [0, bound), the vocabulary's size for the model and the stats DB
    and 2**63 for the model DB. A numpy cast would make 2.7 a 2 (SEP) and
    ``True`` a 1."""
    vocab = build_vocab(["a b c"])
    if bad == "past-the-bound":
        bad = 2**63 if builder == "build_model_db" else vocab.size
    corpus = Corpus(docs=[[3, 4, 1], [3, bad, 5, 1]], vocab=vocab)
    with pytest.raises(ValueError, match=r"^token ids must be integers in \[0, \d+\)$"):
        _BUILDERS[builder](corpus)


def test_the_stats_builder_refuses_a_sep_inside_a_document():
    """A SEP inside a document would cut every continuation there."""
    corpus = Corpus(docs=[[3, 4, 1], [3, SEP, 5, 1]], vocab=build_vocab(["a b c"]))
    with pytest.raises(ValueError, match="^a document holds SEP$"):
        build_stats_db(corpus)
    build_stats_db(Corpus(docs=[[3, 4, 1], [3, 5, 1]], vocab=corpus.vocab))
