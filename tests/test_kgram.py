import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierdraft import (
    ModelCallCounter,
    apply_temperature,
    corpus_from_texts,
    fit_kgram,
    load_kgram,
    sample_token,
    save_kgram,
)

from conftest import make_corpus


@pytest.fixture(scope="module")
def abab_model():
    corpus = corpus_from_texts(["a b a b"])  # ids [3, 4, 3, 4, 1]
    return fit_kgram(corpus, k=2, alpha=0.01), corpus


def test_fit_counts_direct(abab_model):
    model, _ = abab_model
    assert model._counts[2][(3,)] == {4: 2}
    assert model._counts[2][(4,)] == {3: 1, 1: 1}


def test_unigram_symmetric_corpus():
    corpus = corpus_from_texts(["x y", "y x"])
    model = fit_kgram(corpus, k=1, alpha=0.5)
    probs = model.next_distribution([])
    assert probs[3] == probs[4]
    assert probs[3] > probs[0]  # observed beats smoothing-only mass


def test_total_bigram_count_equals_tokens_minus_docs():
    corpus = make_corpus(seed=5, n_docs=13, doc_words=180)
    model = fit_kgram(corpus, k=2, alpha=0.1)
    total_bigrams = sum(
        sum(table.values()) for table in model._counts[2].values()
    )
    # Independent token counter: each doc of length L yields L - 1 bigrams.
    assert total_bigrams == corpus.n_tokens - len(corpus.docs)


def test_fit_validation():
    corpus = corpus_from_texts(["a b"])
    with pytest.raises(ValueError):
        fit_kgram(corpus, k=0, alpha=0.1)
    with pytest.raises(ValueError):
        fit_kgram(corpus, k=2, alpha=0.0)


def test_next_distribution_argmax_observed(abab_model):
    model, _ = abab_model
    probs = model.next_distribution([3])
    assert int(np.argmax(probs)) == 4


def test_next_distribution_unseen_context_uniform():
    corpus = corpus_from_texts(["a b c"])
    model = fit_kgram(corpus, k=3, alpha=0.2)
    # Unseen unigram is impossible after fitting, but a model with empty
    # tables must fall back to uniform.
    empty = type(model)(3, 0.2, model.vocab_size, [dict() for _ in range(4)])
    probs = empty.next_distribution([5, 5])
    assert np.allclose(probs, 1.0 / model.vocab_size)


def _oracle_distribution(docs, k, alpha, vocab_size, context):
    """Independent re-derivation of backoff + add-alpha from raw docs."""
    for order in range(min(k, len(context) + 1), 0, -1):
        ctx = tuple(context[len(context) - (order - 1):])
        counts = {}
        for doc in docs:
            for i in range(len(doc) - order + 1):
                if tuple(doc[i:i + order - 1]) == ctx:
                    nxt = doc[i + order - 1]
                    counts[nxt] = counts.get(nxt, 0) + 1
        if counts:
            total = sum(counts.values())
            probs = np.full(vocab_size, alpha)
            for token, count in counts.items():
                probs[token] += count
            return probs / (total + alpha * vocab_size)
    return np.full(vocab_size, 1.0 / vocab_size)


def test_distribution_matches_backoff_oracle():
    corpus = make_corpus(seed=21, n_docs=4, doc_words=60, vocab_words=12)
    model = fit_kgram(corpus, k=3, alpha=0.05)
    rng = random.Random(77)
    all_tokens = [t for doc in corpus.docs for t in doc]
    for _ in range(100):
        length = rng.randint(0, 4)
        context = [rng.choice(all_tokens) for _ in range(length)]
        got = model.next_distribution(context)
        want = _oracle_distribution(corpus.docs, 3, 0.05, corpus.vocab.size, context)
        assert np.max(np.abs(got - want)) < 1e-12


def test_distribution_invariants():
    corpus = make_corpus(seed=2, n_docs=3, doc_words=80, vocab_words=30)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    rng = random.Random(5)
    for _ in range(50):
        context = [rng.randrange(corpus.vocab.size) for _ in range(rng.randint(0, 5))]
        probs = model.next_distribution(context)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs >= 0).all()
        again = model.next_distribution(context)
        assert np.array_equal(probs, again)  # bit-identical


def test_argmax_token_matches_temperature_zero():
    corpus = make_corpus(seed=8, n_docs=5, doc_words=100, vocab_words=25)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    rng = random.Random(13)
    all_tokens = [t for doc in corpus.docs for t in doc]
    for _ in range(200):
        context = [rng.choice(all_tokens) for _ in range(rng.randint(0, 4))]
        point = apply_temperature(model.next_distribution(context), 0.0)
        assert model.argmax_token(context) == int(np.argmax(point))


def test_apply_temperature_identity():
    probs = np.array([0.2, 0.5, 0.3])
    assert apply_temperature(probs, 1.0) is probs


def test_apply_temperature_zero_is_argmax():
    assert list(apply_temperature(np.array([0.2, 0.5, 0.3]), 0.0)) == [0.0, 1.0, 0.0]


def test_apply_temperature_tie_breaks_low_id():
    assert list(apply_temperature(np.array([0.5, 0.5]), 0.0)) == [1.0, 0.0]


def test_apply_temperature_negative_is_error():
    with pytest.raises(ValueError):
        apply_temperature(np.array([1.0]), -0.5)


def test_sample_point_mass_any_seed():
    probs = np.array([0.0, 1.0, 0.0])
    for seed in range(10):
        assert sample_token(probs, np.random.default_rng(seed)) == 1


def test_sample_deterministic_given_seed():
    probs = np.array([0.3, 0.3, 0.4])
    a = sample_token(probs, np.random.default_rng(42))
    b = sample_token(probs, np.random.default_rng(42))
    assert a == b


def test_sample_frequencies_monte_carlo():
    probs = np.array([0.25, 0.75])
    rng = np.random.default_rng(123)
    draws = 200_000
    ones = sum(sample_token(probs, rng) for _ in range(draws))
    assert abs(ones / draws - 0.75) < 0.005


def test_counter_busy_work_sleeps():
    import time

    counter = ModelCallCounter(cost_per_call_s=0.01)
    start = time.perf_counter()
    for _ in range(5):
        counter.bump()
    assert time.perf_counter() - start >= 0.05
    assert counter.calls == 5


def test_counter_spins_at_least_the_configured_cost(monkeypatch):
    import time

    def no_sleep(_seconds):
        raise AssertionError("the model cost must not sleep")

    monkeypatch.setattr(time, "sleep", no_sleep)
    cost_ns = 20_000
    counter = ModelCallCounter(cost_per_call_s=cost_ns / 1e9)
    for _ in range(50):
        start = time.perf_counter_ns()
        counter.bump()
        assert time.perf_counter_ns() - start >= cost_ns
    assert counter.calls == 50


def test_save_load_roundtrip(tmp_path, abab_model):
    model, _ = abab_model
    path = tmp_path / "model.hdkg"
    save_kgram(model, path)
    loaded = load_kgram(path)
    assert loaded.k == model.k
    assert loaded.alpha == model.alpha
    assert loaded.vocab_size == model.vocab_size
    assert loaded._counts == model._counts


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hdkg"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        load_kgram(path)


def test_load_rejects_truncated(tmp_path, abab_model):
    model, _ = abab_model
    path = tmp_path / "model.hdkg"
    save_kgram(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(ValueError, match="corrupt"):
        load_kgram(path)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50).filter(lambda w: sum(w) > 0),
    temperature=st.floats(0.0, 10.0, exclude_min=True),
)
def test_temperature_scaling_finite_and_normalised(weights, temperature):
    probs = np.asarray(weights) / sum(weights)
    scaled = apply_temperature(probs, temperature)
    assert np.all(np.isfinite(scaled))
    assert scaled.sum() == pytest.approx(1.0)


def test_temperature_near_zero_is_argmax_not_nan():
    scaled = apply_temperature(np.array([0.5, 0.3, 0.2]), 0.0005)
    assert scaled.tolist() == [1.0, 0.0, 0.0]
