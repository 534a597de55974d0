import functools
import gc
import hashlib
import math
import random
import struct
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hierdraft.kgram as kgram
from hierdraft import (
    Corpus,
    DecodeConfig,
    HierarchyConfig,
    KGramModel,
    ModelCallCounter,
    autoregressive_decode,
    corpus_from_texts,
    decode,
    fit_kgram,
    load_kgram,
    save_kgram,
)
from hierdraft.kgram import _unseen_draw

from conftest import container, fresh_dbs, make_corpus, restamp, sample_prompts
from oracles import apply_temperature


def _sample_token(probs, rng):
    """Reference inverse-CDF draw over a full distribution."""
    u = rng.random()
    cdf = np.cumsum(probs)
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, len(probs) - 1)


def _model(k, alpha, vocab_size, counts):
    """A model whose order-j tables are ``counts[j - 1]``, a
    ``{context: {token: count}}`` dict in any order, built from the columns
    ``KGramModel`` takes."""
    columns = []
    for order_tables in counts:
        contexts = sorted(order_tables)
        entries = [sorted(order_tables[ctx].items()) for ctx in contexts]
        columns.append((
            contexts,
            [len(table) for table in entries],
            [token for table in entries for token, _ in table],
            np.array([count for table in entries for _, count in table], np.uint64),
        ))
    return KGramModel(k, alpha, vocab_size, columns)


def _count_tables(model, order):
    """Order ``order``'s count tables as ``(context, {token: count})`` pairs,
    in the model's context order, read from its dicts one key at a time."""
    argmax = model._argmax[order]
    for key, table in model._tables[order].items():
        if type(table) is int:
            table = {argmax[key]: table}
        context = [0] * (order - 1)
        for i in range(order - 2, -1, -1):
            key, context[i] = divmod(key, model.vocab_size)
        yield tuple(context), table


def _tables(model):
    """Every order's ``{context: {token: count}}``."""
    return [dict(_count_tables(model, order)) for order in range(1, model.k + 1)]


def _save_kgram_per_entry(model, path):
    """The reference HDKG writer: one ``struct.pack`` per context id, table
    size, token and count, from ``_count_tables``, framed by the
    ``struct``-only ``container``."""
    arrays = []
    for order in range(1, model.k + 1):
        contexts, sizes, tokens, counts = [], [], [], []
        for ctx, table in _count_tables(model, order):
            contexts += [struct.pack("<I", i) for i in ctx]
            sizes.append(struct.pack("<I", len(table)))
            for token, count in table.items():
                tokens.append(struct.pack("<I", token))
                counts.append(struct.pack("<Q", count))
        arrays += [b"".join(column) for column in (contexts, sizes, tokens, counts)]
    header = struct.pack("<IId", model.k, model.vocab_size, model.alpha)
    with open(path, "wb") as fh:
        fh.write(container(b"HDKG", 2, header, arrays))


_cached_tables = functools.lru_cache(maxsize=4)(_tables)  # models hash by identity


def _backed_off(model, context):
    """The count table at the longest order whose context suffix has one,
    and its argmax by a rescan: what ``KGramModel.sample`` draws from."""
    n = len(context)
    tables = _cached_tables(model)
    for order in range(min(model.k, n + 1), 0, -1):
        table = tables[order - 1].get(tuple(context[n - order + 1:]))
        if table:
            return table, min((-count, token) for token, count in table.items())[1]
    return None


def _walk_weights(model, table, best, temperature):
    """The backed-off table's unseen weight, seen weights and total, with
    the float operations ``KGramModel.sample`` compiles, in their order."""
    alpha = model.alpha
    inv_t = 1.0 / temperature
    top = table[best] + alpha
    unseen = (alpha / top) ** inv_t
    weights = [((c + alpha) / top) ** inv_t for c in table.values()]
    return unseen, weights, sum(weights) + (model.vocab_size - len(weights)) * unseen


def _walk_sample(model, context, temperature, rng):
    """Reference draw: the O(table) walk that ``KGramModel.sample`` compiles
    away. Every weight is recomputed and the table walked in id order."""
    u = rng.random()
    vocab_size = model.vocab_size
    found = _backed_off(model, context)
    if found is None:
        return min(int(u * vocab_size), vocab_size - 1)
    table, best = found
    unseen, weights, total = _walk_weights(model, table, best, temperature)
    x = u * total
    # seen: weight of the seen tokens below `token`; `token - j` unseen ids
    # lie below it too.
    seen = 0.0
    prev = -1
    for j, (token, weight) in enumerate(zip(table, weights)):
        low = seen + (token - j) * unseen
        if x < low:
            return _unseen_draw(x - seen, unseen, j, prev, token)
        if x < low + weight:
            return token
        seen += weight
        prev = token
    return _unseen_draw(x - seen, unseen, len(weights), prev, vocab_size)


def _walk_boundaries(model, context, temperature):
    """Every value the walk compares ``x`` with, over the total it scales
    ``u`` by: the u at which the walk's answer can change."""
    found = _backed_off(model, context)
    if found is None:
        return []
    table, best = found
    unseen, weights, total = _walk_weights(model, table, best, temperature)
    points = []
    seen = 0.0
    for j, (token, weight) in enumerate(zip(table, weights)):
        low = seen + (token - j) * unseen
        points += [low, low + weight]
        seen += weight
    return [point / total for point in points]


@pytest.fixture(scope="module")
def abab_model():
    corpus = corpus_from_texts(["a b a b"])  # ids [3, 4, 3, 4, 1]
    return fit_kgram(corpus, k=2, alpha=0.01), corpus


def test_fit_counts_direct(abab_model):
    model, _ = abab_model
    bigrams = dict(_count_tables(model, 2))
    assert bigrams[(3,)] == {4: 2}
    assert bigrams[(4,)] == {3: 1, 1: 1}


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
        sum(table.values()) for _, table in _count_tables(model, 2)
    )
    # Independent token counter: each doc of length L yields L - 1 bigrams.
    assert total_bigrams == corpus.n_tokens - len(corpus.docs)


def test_fit_validation():
    corpus = corpus_from_texts(["a b"])
    with pytest.raises(ValueError):
        fit_kgram(corpus, k=0, alpha=0.1)
    with pytest.raises(ValueError):
        fit_kgram(corpus, k=2, alpha=0.0)


@pytest.mark.parametrize("bad", [9999, -2, 8, 3.5], ids=["9999", "-2", "vocab-size", "float"])
def test_fit_rejects_token_ids_outside_the_vocabulary(bad):
    # Counted, such ids would make save_kgram stop half-way through a
    # file on a struct.error.
    vocab = corpus_from_texts(["a b c d e"]).vocab
    assert vocab.size == 8
    corpus = Corpus(docs=[[3, 4, 1], [5, bad, 6, 1]], vocab=vocab)
    with pytest.raises(ValueError, match=r"token ids must be integers in \[0, 8\)"):
        fit_kgram(corpus, k=2, alpha=0.1)


def _window_counts(docs, order):
    """Order ``order``'s ``{context: {token: count}}``, counted one window at a time."""
    tables = {}
    for doc in docs:
        for i in range(len(doc) - order + 1):
            table = tables.setdefault(tuple(doc[i:i + order - 1]), {})
            table[doc[i + order - 1]] = table.get(doc[i + order - 1], 0) + 1
    return tables


def test_fit_packs_windows_only_while_they_fit_an_int64(tmp_path):
    """8 ids and k = 21 make windows up to 8 ** 21 - 1 = 2 ** 63 - 1, the
    largest int64: they count as the one-window-at-a-time oracle does, and
    round-trip through a file. One more order would wrap, so it raises."""
    corpus = make_corpus(seed=1, n_docs=3, doc_words=80, vocab_words=5, phrase_bank=4)
    assert corpus.vocab.size == 8
    model = fit_kgram(corpus, k=21, alpha=0.5)
    assert _tables(model) == [_window_counts(corpus.docs, order) for order in range(1, 22)]
    save_kgram(model, tmp_path / "model.hdkg")
    assert _tables(load_kgram(tmp_path / "model.hdkg")) == _tables(model)
    with pytest.raises(ValueError, match="k = 22 .* do not fit in an int64"):
        fit_kgram(corpus, k=22, alpha=0.5)


@pytest.mark.parametrize(
    "k, alpha, bad",
    [(2, math.nan, "alpha"), (2, math.inf, "alpha"), (2, True, "alpha"), (True, 0.1, "k"),
     (2.5, 0.1, "k")],
    ids=["nan-alpha", "inf-alpha", "bool-alpha", "bool-k", "float-k"],
)
def test_fit_rejects_what_load_rejects(k, alpha, bad):
    with pytest.raises(ValueError, match=f"^{bad} must be"):
        fit_kgram(corpus_from_texts(["a b"]), k=k, alpha=alpha)


def test_next_distribution_argmax_observed(abab_model):
    model, _ = abab_model
    probs = model.next_distribution([3])
    assert int(np.argmax(probs)) == 4


def test_next_distribution_unseen_context_uniform():
    corpus = corpus_from_texts(["a b c"])
    model = fit_kgram(corpus, k=3, alpha=0.2)
    # Unseen unigram is impossible after fitting, but a model with empty
    # tables must fall back to uniform.
    empty = _model(3, 0.2, model.vocab_size, [{}, {}, {}])
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


@pytest.mark.parametrize(
    "temperature", [math.nan, math.inf, -math.inf, True, False, np.bool_(False), "1", None]
)
def test_apply_temperature_rejects_non_finite_or_non_number(temperature):
    with pytest.raises(ValueError, match="temperature must be a finite number >= 0"):
        apply_temperature(np.array([0.2, 0.8]), temperature)


@pytest.mark.parametrize("temperature", [0, 2, np.float64(0.5)])
def test_apply_temperature_takes_any_real_number(temperature):
    scaled = apply_temperature(np.array([0.2, 0.8]), temperature)
    assert scaled.sum() == pytest.approx(1.0)


_BAD_SAMPLING_TEMPERATURES = [
    0, 0.0, -1, -0.5, math.nan, math.inf, -math.inf, True, False, np.bool_(True), "0.8", None
]


@pytest.mark.parametrize("temperature", _BAD_SAMPLING_TEMPERATURES)
def test_sample_rejects_bad_temperature(abab_model, temperature):
    model, _ = abab_model
    rng = _FixedU(0.5)
    with pytest.raises(ValueError, match="temperature must be a finite number > 0"):
        model.sample([3], temperature, rng)
    assert rng.calls == 0


@pytest.mark.parametrize("temperature", _BAD_SAMPLING_TEMPERATURES)
def test_sample_rejects_bad_temperature_after_a_good_one(temperature):
    # True == 1 and a NaN equals nothing: the check must not lean on ==.
    corpus = corpus_from_texts(["a b a b"])
    model = fit_kgram(corpus, k=2, alpha=0.01)
    for good in (1.0, 1):
        model.sample([4], good, _FixedU(0.5))
        with pytest.raises(ValueError, match="temperature must be a finite number > 0"):
            model.sample([4], temperature, _FixedU(0.5))


def test_sample_checks_the_temperature_only_when_it_changes(monkeypatch):
    corpus = make_corpus(seed=4, n_docs=3, doc_words=80, vocab_words=20)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    checked = []

    def check(name, temperature, positive):
        checked.append(temperature)

    monkeypatch.setattr(kgram, "check_number", check)
    rng = np.random.default_rng(0)
    doc = corpus.docs[0]
    temperatures = [0.7] * 50 + [1.3] * 50 + [0.7] * 50
    for i, temperature in enumerate(temperatures):
        model.sample(doc[i % 60:i % 60 + 2], temperature, rng)
    assert checked == [0.7, 1.3, 0.7]


def test_sample_point_mass_any_seed():
    probs = np.array([0.0, 1.0, 0.0])
    for seed in range(10):
        assert _sample_token(probs, np.random.default_rng(seed)) == 1


def test_sample_deterministic_given_seed():
    probs = np.array([0.3, 0.3, 0.4])
    a = _sample_token(probs, np.random.default_rng(42))
    b = _sample_token(probs, np.random.default_rng(42))
    assert a == b


def test_sample_frequencies_monte_carlo():
    probs = np.array([0.25, 0.75])
    rng = np.random.default_rng(123)
    draws = 200_000
    ones = sum(_sample_token(probs, rng) for _ in range(draws))
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
    assert _tables(loaded) == _tables(model)


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


class _FixedU:
    """A generator stand-in whose ``random()`` returns ``u`` and counts calls."""

    def __init__(self, u: float):
        self.u = u
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self.u


@st.composite
def _model_and_context(draw):
    """A small model with random count tables, given out of id order to
    ``_model``, of up to 8 entries or of 129-300, and a context, usually one
    the model has a table for."""
    vocab = draw(st.integers(1, 1000))
    rng = draw(st.randoms(use_true_random=False))

    def table():
        size = min(vocab, draw(st.one_of(st.integers(1, 8), st.integers(129, 300))))
        return {token: rng.randint(1, 40) for token in rng.sample(range(vocab), size)}

    ids = st.integers(0, vocab - 1)
    k = draw(st.integers(1, 3))
    counts = []
    for order in range(1, k + 1):
        if order == 1:
            contexts = draw(st.sampled_from([[()], [()], []]))
        else:
            contexts = draw(st.lists(st.tuples(*[ids] * (order - 1)), max_size=3, unique=True))
        counts.append({ctx: table() for ctx in contexts})
    alpha = draw(st.sampled_from([1e-3, 0.01, 0.5, 4.0]))
    known = [list(ctx) for order_tables in counts for ctx in order_tables]
    random_context = st.lists(ids, max_size=4)
    context = draw(st.one_of(st.sampled_from(known), random_context) if known else random_context)
    return _model(k, alpha, vocab, counts), context


@settings(max_examples=400, deadline=None)
@given(
    model_context=_model_and_context(),
    temperature=st.one_of(st.sampled_from([0.0005, 10.0]), st.floats(0.0, 10.0, exclude_min=True)),
    data=st.data(),
)
def test_sample_is_the_reference_inverse_cdf(model_context, temperature, data):
    """``sample`` draws the token ``_sample_token`` draws from
    ``apply_temperature(next_distribution(...))`` at the same uniform u, with
    one ``random()`` call, except for u within 1e-9 of a CDF boundary. Half
    the u are drawn close to a boundary."""
    model, context = model_context
    probs = apply_temperature(model.next_distribution(context), temperature)
    cdf = np.cumsum(probs)
    if data.draw(st.booleans()):
        u = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    else:
        # Next to either end of a token's interval; seen tokens (above the
        # smallest probability) are the ones the walk steps through.
        seen = np.flatnonzero(probs > probs.min())
        ids = st.sampled_from(seen.tolist()) if len(seen) else st.integers(0, len(cdf) - 1)
        end = data.draw(ids) - data.draw(st.sampled_from([0, 1]))
        delta = data.draw(st.one_of(st.floats(-1e-4, 1e-4), st.floats(-1e-7, 1e-7)))
        u = float(np.clip((cdf[end] if end >= 0 else 0.0) + delta, 0.0, 1 - 2**-53))
    rng = _FixedU(u)
    token = model.sample(context, temperature, rng)
    assert rng.calls == 1
    assert type(token) is int and 0 <= token < model.vocab_size
    if np.min(np.abs(cdf - u)) < 1e-9:
        return
    assert token == _sample_token(probs, _FixedU(u))


@settings(max_examples=200, deadline=None)
@given(
    model_context=_model_and_context(),
    temperature=st.one_of(st.sampled_from([0.0005, 10.0]), st.floats(0.0, 10.0, exclude_min=True)),
    data=st.data(),
)
def test_sample_is_bit_identical_to_the_walk(model_context, temperature, data):
    """``sample`` returns the token ``_walk_sample`` returns for the same u,
    with u at every boundary of the walk (over the total), at its
    ``math.nextafter`` neighbours, at both ends of [0, 1) and at random."""
    model, context = model_context
    us = [0.0, 1 - 2**-53, data.draw(st.floats(0.0, 1.0, exclude_max=True))]
    for point in _walk_boundaries(model, context, temperature):
        us += [math.nextafter(point, 0.0), point, math.nextafter(point, 1.0)]
    for u in us:
        if 0.0 <= u < 1.0:
            assert model.sample(context, temperature, _FixedU(u)) == _walk_sample(
                model, context, temperature, _FixedU(u)
            ), u


@pytest.mark.parametrize(
    "vocab_size, table, temperature",
    [
        (1914, {1159: 3, 1160: 10**6, 1161: 2, 1162: 3}, 0.32961693320443386),
        (438, {268: 10**6, 390: 10**6, 407: 2}, 0.35363219540104235),
    ],
)
def test_sample_is_the_walk_where_rounding_breaks_bound_order(vocab_size, table, temperature):
    """Rounding can put an entry's upper bound ``low_j + w_j`` below the one
    before it; the walk still returns at the first bound above x, which is
    why ``bisect`` runs over their running maximum."""
    model = _model(1, 0.5, vocab_size, [{(): table}])
    unseen, weights, _ = _walk_weights(model, table, max(table, key=table.get), temperature)
    seen, bounds = 0.0, []
    for j, (token, weight) in enumerate(zip(table, weights)):
        bounds.append(seen + (token - j) * unseen + weight)
        seen += weight
    assert bounds != sorted(bounds)
    for point in _walk_boundaries(model, [], temperature):
        for u in (math.nextafter(point, 0.0), point, math.nextafter(point, 1.0)):
            assert model.sample([], temperature, _FixedU(u)) == _walk_sample(
                model, [], temperature, _FixedU(u)
            ), u


def test_sample_after_a_temperature_switch_equals_a_fresh_model():
    """One model drawing at alternating temperatures draws what a model
    that only ever saw each temperature draws: no table compiled at one
    temperature serves another."""
    corpus = make_corpus(seed=6, n_docs=6, doc_words=150, vocab_words=40)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    fresh = {}
    rng = random.Random(9)
    doc = corpus.docs[0]
    contexts = [doc[i:i + 2] for i in range(0, 40, 2)] + [doc[i:i + 1] for i in range(10)]
    for temperature in [0.8, 2.5, 0.8, 0.05, 2.5, 0.8]:
        if temperature not in fresh:
            fresh[temperature] = fit_kgram(corpus, k=3, alpha=0.01)
        for context in contexts:
            u = rng.random()
            token = model.sample(context, temperature, _FixedU(u))
            assert token == fresh[temperature].sample(context, temperature, _FixedU(u))
            assert token == _walk_sample(model, context, temperature, _FixedU(u))


class _SwitchingU(_FixedU):
    """Returns ``u`` after drawing, from inside the first ``random()`` call,
    one token per ``(context, u)`` of ``draws`` at ``temperature``: another
    session switching the model's temperature in the middle of a draw."""

    def __init__(self, u, model, temperature, draws):
        super().__init__(u)
        self.switch = model, temperature, draws
        self.tokens = None

    def random(self):
        if self.tokens is None:
            model, temperature, draws = self.switch
            self.tokens = [model.sample(c, temperature, _FixedU(v)) for c, v in draws]
        return super().random()


def test_a_temperature_switch_in_the_middle_of_a_draw_changes_neither_draw():
    """A draw keeps the temperature it started at when another draw
    switches the model's temperature between its start and its table
    lookup, and what it compiles then never serves the other temperature."""
    corpus = make_corpus(seed=6, n_docs=6, doc_words=150, vocab_words=40)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    doc = corpus.docs[0]
    contexts = [doc[i:i + 2] for i in range(0, 40, 2)] + [doc[i:i + 1] for i in range(10)]
    assert {len(_backed_off(model, c)[0]) > 1 for c in contexts} == {True, False}
    us = [i / 7 + 0.03 for i in range(7)]
    for ours, theirs in ((0.8, 2.5), (2.5, 0.8), (0.05, 10.0)):
        model.sample(contexts[0], ours, _FixedU(0.5))
        for context in contexts:
            for u in us:
                rng = _SwitchingU(u, model, theirs, [(c, v) for c in contexts[:3] for v in us])
                token = model.sample(context, ours, rng)
                assert token == _walk_sample(model, context, ours, _FixedU(u))
                assert rng.tokens == [
                    _walk_sample(model, c, theirs, _FixedU(v)) for c in contexts[:3] for v in us
                ]
                # Back at `theirs`: no table compiled at `ours` serves it.
                for v in us:
                    assert model.sample(context, theirs, _FixedU(v)) == _walk_sample(
                        model, context, theirs, _FixedU(v)
                    )
                model.sample(context, ours, _FixedU(u))


def test_a_compiled_table_serves_only_the_table_it_was_compiled_from():
    """Compiled tables are keyed by the id of their count table; a record
    left under an id that now names another table (as after unpickling)
    is compiled again, not used."""
    corpus = make_corpus(seed=6, n_docs=6, doc_words=150, vocab_words=40)
    model = fit_kgram(corpus, k=2, alpha=0.01)
    tables = sorted(_count_tables(model, 2), key=lambda item: -len(item[1]))
    (context, table), (other_context, other) = tables[:2]
    model.sample(list(other_context), 0.8, _FixedU(0.5))
    compiled = model._sampling[2]
    compiled[id(table)] = (dict(table), *compiled[id(other)][1:])
    for u in np.linspace(0.0, 1.0, 200, endpoint=False):
        token = model.sample(list(context), 0.8, _FixedU(u))
        assert token == _walk_sample(model, list(context), 0.8, _FixedU(u))
    assert compiled[id(table)][0] is table


def test_sampling_keeps_only_multi_entry_tables_of_the_last_temperature():
    """Greedy decoding compiles nothing; sampling stores no one-entry table;
    a second temperature leaves only its own tables."""
    corpus = make_corpus(seed=4, n_docs=20, doc_words=300, vocab_words=60)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    prompts = sample_prompts(corpus, 4, seed=2)

    def run(target, temperature):
        for seed, prompt in enumerate(prompts):
            config = DecodeConfig(
                max_tokens=64, temperature=temperature, seed=seed, hierarchy=HierarchyConfig(order="c")
            )
            decode(target, prompt, fresh_dbs(), config)
            autoregressive_decode(target, prompt, config)

    run(model, 0.0)
    assert model._sampling[2] == {}
    for temperature in (0.8, 1.5):
        run(model, temperature)
        compiled = model._sampling[2]
        assert compiled
        assert all(len(table) > 1 for table, _, _ in compiled.values())
    fresh = fit_kgram(corpus, k=3, alpha=0.01)
    run(fresh, 1.5)
    assert _compiled(model) == _compiled(fresh)


def _compiled(model):
    """The model's compiled tables as (ids, floats) lists, which, unlike the
    ids of the count tables they are stored under, equal across models."""
    compiled = model._sampling[2].values()
    return sorted((tokens.tolist(), floats.tolist()) for _, floats, tokens in compiled)


def _assert_argmax_is_rescan(model):
    """Every context's argmax equals a rescan of its count table."""
    n_contexts = 0
    for order in range(1, model.k + 1):
        for ctx, table in _count_tables(model, order):
            assert list(table) == sorted(table)  # id order, as sampling walks it
            rescan = min((-count, token) for token, count in table.items())[1]
            assert model.argmax_token(list(ctx)) == rescan
            n_contexts += 1
    return n_contexts


def test_argmax_table_matches_rescan_oracle(tmp_path):
    corpus = make_corpus(seed=3, n_docs=12, doc_words=200, vocab_words=30)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    assert _assert_argmax_is_rescan(model) > 100
    path = tmp_path / "model.hdkg"
    save_kgram(model, path)
    loaded = load_kgram(path)
    assert _tables(loaded) == _tables(model)
    assert _assert_argmax_is_rescan(loaded) == _assert_argmax_is_rescan(model)


_GOLDEN_CORPUS = {"seed": 23, "n_docs": 40, "doc_words": 300}
_GOLDEN_DIGEST = "1629ace69f6f22b810a3c75f808fab85d8c4c1ff57e396fd82c6e3d1bfb7b768"


def _built(model):
    """The model's argmax and table lists; the first read builds both."""
    model._tables[1]
    return model._argmax, model._tables


def test_hdkg_bytes_match_the_golden_digest(tmp_path):
    """The v2 file of a fixed corpus keeps one digest, which the per-entry
    reference writer gives too; and loading it builds the very dicts
    fitting built."""
    model = fit_kgram(make_corpus(**_GOLDEN_CORPUS), k=3, alpha=0.01)
    path = tmp_path / "golden.hdkg"
    save_kgram(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _GOLDEN_DIGEST
    _save_kgram_per_entry(model, tmp_path / "oracle.hdkg")
    assert (tmp_path / "oracle.hdkg").read_bytes() == path.read_bytes()
    loaded = load_kgram(path)
    argmax, tables = _built(model)
    assert loaded._argmax == argmax
    assert loaded._tables == tables


@pytest.mark.parametrize(
    "tokens, counts",
    [([1], [1, 1]), ([1, 2], [1]), ([1, 2, 3], [1, 1, 1])],
    ids=["tokens-short", "counts-short", "both-long"],
)
def test_entry_columns_must_match_the_sizes(tokens, counts):
    """A model keeps its columns unbuilt, so entries that do not add up to
    the tables' sizes are refused when it is made, not at its first read."""
    unigrams = ((), [2], tokens, counts)
    n_tokens, n_counts = len(tokens), len(counts)
    with pytest.raises(ValueError, match=f"^{n_tokens} tokens and {n_counts} counts for 2 entries$"):
        KGramModel(1, 0.5, 5, [unigrams])


def _is_built(model) -> bool:
    return type(model._argmax) is list and type(model._tables) is list


def test_fit_then_save_builds_no_dicts(tmp_path):
    """A fitted model keeps its checked columns and ``save_kgram`` writes
    them, so fit-then-save never builds the dicts; an already-built model
    writes the same bytes from its dicts."""
    model = fit_kgram(make_corpus(**_GOLDEN_CORPUS), k=3, alpha=0.01)
    assert not _is_built(model)
    save_kgram(model, tmp_path / "unbuilt.hdkg")
    assert not _is_built(model)
    data = (tmp_path / "unbuilt.hdkg").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _GOLDEN_DIGEST
    _built(model)
    assert _is_built(model)
    save_kgram(model, tmp_path / "built.hdkg")
    assert (tmp_path / "built.hdkg").read_bytes() == data


def test_load_returns_a_built_model(tmp_path, abab_model):
    path = tmp_path / "model.hdkg"
    save_kgram(abab_model[0], path)
    assert _is_built(load_kgram(path))


def _draws(model, contexts):
    """What every reading method gives for each context."""
    rng = np.random.default_rng(4)
    return [
        (
            model.argmax_token(context),
            model.sample(context, 0.7, rng),
            model.next_distribution(context).tolist(),
        )
        for context in contexts
    ]


@pytest.mark.parametrize("first_read", ["argmax_token", "sample", "next_distribution"])
def test_the_first_read_of_a_fitted_model_builds_what_load_builds(tmp_path, first_read):
    corpus = make_corpus(seed=8, n_docs=8, doc_words=150, vocab_words=40)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    save_kgram(model, tmp_path / "model.hdkg")
    loaded = load_kgram(tmp_path / "model.hdkg")
    doc = corpus.docs[1]
    contexts = [[], [39]] + [doc[i:i + n] for i in range(0, 60, 3) for n in (1, 2, 5)]
    read = {
        "argmax_token": lambda: model.argmax_token(doc[:2]),
        "sample": lambda: model.sample(doc[:2], 0.7, np.random.default_rng(0)),
        "next_distribution": lambda: model.next_distribution(doc[:2]),
    }[first_read]
    assert not _is_built(model)
    read()
    assert _is_built(model)
    assert model._argmax == loaded._argmax
    assert model._tables == loaded._tables
    assert _draws(model, contexts) == _draws(loaded, contexts)


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
def test_a_dropped_model_is_freed_by_reference_counting(read):
    """The stand-ins hold the model weakly, so a fitted model, read or not,
    and its columns go as soon as its last holder drops it."""
    model = fit_kgram(make_corpus(seed=9, n_docs=4, doc_words=100, vocab_words=20), k=3, alpha=0.01)
    if read:
        model.argmax_token([1, 2])
    assert _is_built(model) == read
    ref = weakref.ref(model)
    enabled = gc.isenabled()
    gc.disable()  # a reference cycle would then keep the model alive
    try:
        del model
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_concurrent_first_reads_build_once(monkeypatch):
    """Threads that first-read one fitted model together all wait for one
    build and get the tokens a built model gives."""
    corpus = make_corpus(seed=9, n_docs=8, doc_words=150, vocab_words=40)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    contexts = [corpus.docs[0][i:i + 2] for i in range(0, 100, 2)]
    want = [fit_kgram(corpus, k=3, alpha=0.01).argmax_token(c) for c in contexts]
    real, builds = kgram._order_dicts, []

    def slow_order_dicts(*args):
        builds.append(args[0])
        time.sleep(0.01)  # the other threads arrive while the dicts are built
        return real(*args)

    monkeypatch.setattr(kgram, "_order_dicts", slow_order_dicts)
    start = threading.Barrier(4)
    got = [None] * 4

    def first_read(i):
        start.wait(timeout=10)
        got[i] = [model.argmax_token(c) for c in contexts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_read, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * 4
    assert builds == [1, 2, 3]


def _traced(build):
    """``build()``, the bytes it leaves allocated and its high-water, as
    tracemalloc (which sees numpy's buffers) counts them."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        built = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return built, held - base, peak - base


def test_fit_and_load_memory(tmp_path):
    """On a 100k-token corpus with 2003 ids, a loaded (built) model holds
    at most 200 bytes per context (161.3 measured). Fitting, which builds
    no dicts, peaks at 75 bytes per token (68.1 measured, 10% margin); it
    read 158.4 while fitting built them, 206.8 while the token, room and
    window arrays lived through the last order's build and the tables were
    listed before their dict was made, and 250 with a tuple and a dict per
    context, when a loaded context held 453 bytes. Loading, build
    included, peaks at 240 bytes per context (224.3 measured, 7% margin);
    it read 287.5 while the file's bytes lived through the build."""
    corpus = make_corpus(seed=5, n_docs=200, doc_words=500, vocab_words=2000)
    assert corpus.n_tokens == 100_200
    model, _, fit_peak = _traced(lambda: fit_kgram(corpus, k=3, alpha=0.01))
    save_kgram(model, tmp_path / "model.hdkg")
    n_contexts = sum(len(tables) for tables in _tables(model))
    del model
    loaded, held, load_peak = _traced(lambda: load_kgram(tmp_path / "model.hdkg"))
    assert _is_built(loaded)
    assert n_contexts == 70_389
    assert held / n_contexts <= 200
    assert load_peak / n_contexts <= 240
    assert fit_peak / corpus.n_tokens <= 75


def _hdkg(sections, k=None, vocab_size=7, alpha=0.5) -> bytes:
    """HDKG bytes written exactly as given, with a valid CRC:
    ``sections[order - 1]`` lists ``(context, [(token, count), ...])``
    pairs, stored as that order's four columns."""
    arrays = []
    for contexts in sections:
        ids = [i for ctx, _table in contexts for i in ctx]
        entries = [entry for _ctx, table in contexts for entry in table]
        arrays += [
            struct.pack(f"<{len(ids)}I", *ids),
            struct.pack(f"<{len(contexts)}I", *(len(table) for _ctx, table in contexts)),
            struct.pack(f"<{len(entries)}I", *(token for token, _count in entries)),
            struct.pack(f"<{len(entries)}Q", *(count for _token, count in entries)),
        ]
    header = struct.pack("<IId", len(sections) if k is None else k, vocab_size, alpha)
    return container(b"HDKG", 2, header, arrays)


_UNIGRAMS = [((), [(1, 1), (3, 2), (4, 1)])]
_BIGRAMS = [((3,), [(4, 2)]), ((4,), [(1, 1), (3, 1)])]


def test_hand_written_hdkg_loads(tmp_path):
    path = tmp_path / "model.hdkg"
    path.write_bytes(_hdkg([_UNIGRAMS, _BIGRAMS]))
    model = load_kgram(path)
    unigrams, bigrams = _tables(model)
    assert unigrams == {(): {1: 1, 3: 2, 4: 1}}
    assert bigrams == {(3,): {4: 2}, (4,): {1: 1, 3: 1}}
    assert model.argmax_token([4]) == 1


def test_load_allocates_nothing_sized_by_vocab_size(tmp_path):
    """A file that declares 2 ** 21 ids, the most the size rule admits at
    k = 3, loads in a few kilobytes. Its order-3 keys reach
    (2 ** 21) ** 2 - 1, and the file saves back unchanged."""
    top = 2**21 - 1
    sections = [
        [((), [(top, 3)])],
        [((top - 1,), [(5, 1), (top, 2)])],
        [((0, top), [(top, 1)]), ((top, top), [(7, 4)])],
    ]
    data = _hdkg(sections, vocab_size=2**21)
    path = tmp_path / "model.hdkg"
    path.write_bytes(data)
    model, _, peak = _traced(lambda: load_kgram(path))
    assert peak < 100_000
    assert _tables(model) == [
        {ctx: dict(entries) for ctx, entries in section} for section in sections
    ]
    assert model.argmax_token([top, top]) == 7
    assert model.argmax_token([5, 0, top]) == top
    assert model.argmax_token([top - 1]) == top
    assert model.argmax_token([1, 2]) == top
    save_kgram(model, tmp_path / "again.hdkg")
    assert (tmp_path / "again.hdkg").read_bytes() == data


@pytest.mark.parametrize(
    "vocab_size, k",
    [(2**32 - 1, 4), (2**21 + 1, 3), (2, 64)],
    ids=["2**32-1-ids-k4", "2**21+1-ids-k3", "2-ids-k64"],
)
def test_load_refuses_what_fit_refuses(tmp_path, vocab_size, k):
    """``fit_kgram``'s size rule holds on load: a ``vocab_size ** k`` past
    ``2 ** 63`` is refused, however few tables the file holds."""
    path = tmp_path / "model.hdkg"
    path.write_bytes(_hdkg([[((), [(1, 1)])]] + [[]] * (k - 1), vocab_size=vocab_size))
    match = f"corrupt k-gram model file: windows of k = {k} ids below {vocab_size} do not fit"
    with pytest.raises(ValueError, match=match):
        load_kgram(path)


def _array_ends(data: bytes) -> list[int]:
    """The byte offset where each array of an HDKG file ends, read with
    ``struct``: 12 bytes of magic, version and CRC, 16 of header, the
    array count, then one ``u64`` length per array."""
    (count,) = struct.unpack_from("<I", data, 28)
    at = 32 + 8 * count
    ends = [at]
    for length in struct.unpack_from(f"<{count}Q", data, 32):
        at += length
        ends.append(at)
    return ends


def test_load_rejects_a_file_cut_at_any_array_boundary(tmp_path):
    """A cut at the end of the header or of the length table, at any
    array's start or end, or a byte or a word short of an end, raises;
    with its CRC restamped too, so it reaches the length check."""
    model = fit_kgram(make_corpus(seed=2, n_docs=4, doc_words=60, vocab_words=20), k=3, alpha=0.5)
    path = tmp_path / "model.hdkg"
    save_kgram(model, path)
    data = path.read_bytes()
    ends = _array_ends(data)
    assert len(ends) == 13 and ends[-1] == len(data)
    cuts = {12, 28, 32, *ends} | {end - 1 for end in ends} | {end - 4 for end in ends}
    for cut in sorted(cuts - {len(data)}):
        for damaged in (data[:cut], restamp(data[:cut])):
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match="corrupt k-gram model file"):
                load_kgram(path)


@pytest.mark.parametrize("extra", [1, 2, 3, 4, 12])
def test_load_rejects_trailing_bytes(tmp_path, abab_model, extra):
    model, _ = abab_model
    path = tmp_path / "model.hdkg"
    save_kgram(model, path)
    path.write_bytes(path.read_bytes() + b"\x01" * extra)
    with pytest.raises(ValueError, match="corrupt k-gram model file: checksum mismatch"):
        load_kgram(path)
    path.write_bytes(restamp(path.read_bytes()))
    with pytest.raises(ValueError, match="corrupt k-gram model file: trailing bytes"):
        load_kgram(path)


def _largest_vocab(k: int) -> int:
    """The most ids an HDKG file can declare (a u32) that the size rule admits at ``k``."""
    top = min(2**32 - 1, round(2 ** (63 / k)))
    while top**k > 2**63:
        top -= 1
    return top


@st.composite
def _saveable_model(draw):
    """A model with k = 1-4, one-entry and multi-entry tables, counts at and
    above 2 ** 32 and ids up to ``vocab_size - 1``."""
    k = draw(st.integers(1, 4))
    top = _largest_vocab(k)
    vocab = draw(st.one_of(st.integers(1, 50), st.integers(1, top), st.just(top)))
    ids = st.one_of(st.integers(0, vocab - 1), st.just(vocab - 1))
    count = st.one_of(
        st.integers(1, 40), st.integers(2**32 - 1, 2**32 + 1), st.integers(1, 2**64 - 1)
    )
    table = st.dictionaries(ids, count, min_size=1, max_size=min(vocab, 5))
    counts = []
    for order in range(1, k + 1):
        if order == 1:
            contexts = draw(st.sampled_from([[()], []]))
        else:
            contexts = draw(st.lists(st.tuples(*[ids] * (order - 1)), max_size=6, unique=True))
        counts.append({ctx: draw(table) for ctx in contexts})
    return _model(k, draw(st.sampled_from([0.01, 0.5, 3.0])), vocab, counts)


@settings(max_examples=300, deadline=None)
@given(model=_saveable_model())
def test_save_kgram_writes_the_per_entry_writers_bytes(tmp_path_factory, model):
    """The bulk writer's bytes are the reference writer's, and they load
    back into the very dicts the model holds."""
    root = tmp_path_factory.mktemp("hdkg")
    save_kgram(model, root / "bulk.hdkg")
    _save_kgram_per_entry(model, root / "oracle.hdkg")
    data = (root / "bulk.hdkg").read_bytes()
    assert data == (root / "oracle.hdkg").read_bytes()
    loaded = load_kgram(root / "bulk.hdkg")
    assert loaded._tables == model._tables
    assert loaded._argmax == model._argmax


@settings(max_examples=100, deadline=None)
@given(model=_saveable_model())
def test_a_built_model_writes_what_its_columns_write(tmp_path_factory, model):
    """Counts at and past ``2 ** 63`` included, the bytes ``save_kgram``
    reads back from a model's dicts are those of its kept columns."""
    root = tmp_path_factory.mktemp("hdkg")
    save_kgram(model, root / "unbuilt.hdkg")
    _built(model)
    save_kgram(model, root / "built.hdkg")
    assert (root / "built.hdkg").read_bytes() == (root / "unbuilt.hdkg").read_bytes()


_BAD_ALPHA = "alpha must be a finite number > 0, not "


@pytest.mark.parametrize(
    "data, match",
    [
        (_hdkg([_UNIGRAMS, [((3,), [(7, 2)])]]), "token 7 >= vocab_size 7"),
        (_hdkg([_UNIGRAMS, [((3,), [(999999, 0)])]]), "token 999999 >= vocab_size"),
        (_hdkg([_UNIGRAMS, [((3,), [(4, 2)]), ((7,), [(4, 1)])]]), "context holds an id >= vocab"),
        (_hdkg([_UNIGRAMS, [((3,), [(4, 0)])]]), "count below 1"),
        (_hdkg([_UNIGRAMS, [((3,), []), ((4,), [(3, 1)])]]), r"table of 0 entries .* \(3,\)"),
        (_hdkg([_UNIGRAMS, [((3,), [(4, 2)]), ((3,), [(4, 2)])]]), "contexts not strictly"),
        (_hdkg([_UNIGRAMS, [((4,), [(3, 1)]), ((3,), [(4, 2)])]]), "contexts not strictly"),
        (_hdkg([_UNIGRAMS, [((4,), [(3, 1), (3, 1)])]]), "next tokens not strictly"),
        (_hdkg([_UNIGRAMS, [((4,), [(3, 1), (1, 1)])]]), "next tokens not strictly"),
        (_hdkg([_UNIGRAMS + _UNIGRAMS, _BIGRAMS]), "2 order-1 contexts"),
        (_hdkg([], k=0), "k = 0"),
        (_hdkg([_UNIGRAMS], k=2**32 - 1), "k = 4294967295"),
        (_hdkg([_UNIGRAMS, _BIGRAMS], vocab_size=0), "vocab_size must be an integer >= 1, not 0$"),
        (_hdkg([_UNIGRAMS, _BIGRAMS], alpha=math.nan), _BAD_ALPHA + "nan$"),
        (_hdkg([_UNIGRAMS, _BIGRAMS], alpha=math.inf), _BAD_ALPHA + "inf$"),
        (_hdkg([_UNIGRAMS, _BIGRAMS], alpha=0.0), _BAD_ALPHA + "0.0$"),
        (_hdkg([_UNIGRAMS, _BIGRAMS], alpha=-0.5), _BAD_ALPHA + "-0.5$"),
    ],
    ids=[
        "token-at-vocab-size", "token-999999-count-0", "context-id-at-vocab-size",
        "count-zero", "empty-table", "repeated-context", "descending-contexts",
        "repeated-next-token", "descending-next-tokens", "two-order-1-contexts",
        "k-zero", "k-beyond-the-file", "vocab-size-zero", "alpha-nan", "alpha-inf",
        "alpha-zero", "alpha-negative",
    ],
)
def test_load_fails_closed(tmp_path, data, match):
    path = tmp_path / "bad.hdkg"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"corrupt k-gram model file: .*{match}"):
        load_kgram(path)


def test_an_order_1_section_holds_one_table_in_a_fit_and_a_load(tmp_path):
    """One rule, in ``_checked``, refuses a second order-1 table however
    the columns come."""
    unigrams = ([(), ()], [1, 1], [1, 3], [1, 1])
    with pytest.raises(ValueError, match="^2 order-1 contexts$"):
        KGramModel(1, 0.5, 7, [unigrams])
    path = tmp_path / "bad.hdkg"
    path.write_bytes(_hdkg([_UNIGRAMS + _UNIGRAMS]))
    with pytest.raises(ValueError, match="^corrupt k-gram model file: 2 order-1 contexts$"):
        load_kgram(path)


_U4 = struct.Struct("<I")


@pytest.mark.parametrize(
    "arrays, match",
    [
        ([b"", _U4.pack(3), b"".join(map(_U4.pack, (1, 3, 4))), struct.pack("<3Q", 1, 2, 1),
          _U4.pack(3), struct.pack("<2I", 1, 1), struct.pack("<2I", 4, 3),
          struct.pack("<2Q", 2, 1)],
         "1 context ids for 2 order-2 tables"),
        ([b"", _U4.pack(1), _U4.pack(1), b"\x01" * 12], "array 3's 12 bytes are not uint64s"),
        ([b"", _U4.pack(1), _U4.pack(1), struct.pack("<Q", 1), b""], "k = 1 for 5 arrays"),
    ],
    ids=["contexts-short", "counts-not-whole-u8", "k-not-a-quarter-of-the-arrays"],
)
def test_load_refuses_columns_that_do_not_line_up(tmp_path, arrays, match):
    path = tmp_path / "bad.hdkg"
    k = max(1, len(arrays) // 4)
    path.write_bytes(container(b"HDKG", 2, struct.pack("<IId", k, 7, 0.5), arrays))
    with pytest.raises(ValueError, match=f"^corrupt k-gram model file: {match}"):
        load_kgram(path)


_ORDER_1 = ((), [2], [1, 3], [1, 2])
_ORDER_2 = ([1, 3], [1, 1], [3, 1], [1, 1])


@pytest.mark.parametrize(
    "k, orders",
    [(3, [_ORDER_1]), (1, [_ORDER_1, _ORDER_2]), (2, [])],
    ids=["too-few", "too-many", "none"],
)
def test_tables_must_hold_exactly_k_orders(k, orders):
    """Too few orders would fail the first read past them with
    ``IndexError``, and an order past ``k`` would be dropped by a save."""
    with pytest.raises(ValueError, match=f"^k = {k} for {len(orders)} orders of tables$"):
        KGramModel(k, 0.5, 10, orders)


def test_vocab_size_must_fit_its_u32_header_field():
    """A save would raise ``struct.error`` after the model was made."""
    with pytest.raises(ValueError, match=f"^vocab_size must be an integer <= {2**32 - 1}, not "):
        KGramModel(1, 0.5, 2**32 + 5, [_ORDER_1])
    assert KGramModel(1, 0.5, 2**32 - 1, [_ORDER_1]).vocab_size == 2**32 - 1
