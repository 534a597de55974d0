import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hierdraft.kgram as kgram
from hierdraft import (
    DecodeConfig,
    HierarchyConfig,
    KGramModel,
    ModelCallCounter,
    apply_temperature,
    autoregressive_decode,
    corpus_from_texts,
    decode,
    fit_kgram,
    load_kgram,
    save_kgram,
)
from hierdraft.kgram import _unseen_draw

from conftest import fresh_dbs, make_corpus, sample_prompts


def _sample_token(probs, rng):
    """Reference inverse-CDF draw over a full distribution."""
    u = rng.random()
    cdf = np.cumsum(probs)
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, len(probs) - 1)


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
    found = model._backoff(context)
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
    found = model._backoff(context)
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

    def check(temperature, positive):
        checked.append(temperature)

    monkeypatch.setattr(kgram, "_check_temperature", check)
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
    """A small model with random count tables, given out of id order, of up
    to 8 entries or of 129-300, and a context, usually one the model has a
    table for."""
    vocab = draw(st.integers(1, 1000))
    rng = draw(st.randoms(use_true_random=False))

    def table():
        size = min(vocab, draw(st.one_of(st.integers(1, 8), st.integers(129, 300))))
        return {token: rng.randint(1, 40) for token in rng.sample(range(vocab), size)}

    ids = st.integers(0, vocab - 1)
    k = draw(st.integers(1, 3))
    counts = [{}]
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
    return KGramModel(k, alpha, vocab, counts), context


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
    model = KGramModel(1, 0.5, vocab_size, [{}, {(): table}])
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
            fresh[temperature] = KGramModel(model.k, model.alpha, model.vocab_size, model._counts)
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
    assert {len(model._backoff(c)[0]) > 1 for c in contexts} == {True, False}
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
    tables = sorted(model._counts[2].items(), key=lambda item: -len(item[1]))
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
    fresh = KGramModel(model.k, model.alpha, model.vocab_size, model._counts)
    run(fresh, 1.5)
    assert model._sampling[2] == fresh._sampling[2]


def _assert_argmax_is_rescan(model):
    """Every context's argmax equals a rescan of its count table."""
    n_contexts = 0
    for order in range(1, model.k + 1):
        for ctx, table in model._counts[order].items():
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
    assert loaded._counts == model._counts
    assert _assert_argmax_is_rescan(loaded) == _assert_argmax_is_rescan(model)


def _hdkg(sections, k=None, vocab_size=7, alpha=0.5) -> bytes:
    """HDKG bytes written exactly as given: ``sections[order - 1]`` lists
    ``(context, [(token, count), ...])`` pairs."""
    out = [b"HDKG", struct.pack("<IIId", 1, len(sections) if k is None else k, vocab_size, alpha)]
    for order, contexts in enumerate(sections, 1):
        out.append(struct.pack("<Q", len(contexts)))
        for ctx, entries in contexts:
            out.append(struct.pack(f"<{order}I", *ctx, len(entries)))
            out.extend(struct.pack("<IQ", token, count) for token, count in entries)
    return b"".join(out)


_UNIGRAMS = [((), [(1, 1), (3, 2), (4, 1)])]
_BIGRAMS = [((3,), [(4, 2)]), ((4,), [(1, 1), (3, 1)])]


def test_hand_written_hdkg_loads(tmp_path):
    path = tmp_path / "model.hdkg"
    path.write_bytes(_hdkg([_UNIGRAMS, _BIGRAMS]))
    model = load_kgram(path)
    assert model._counts[1] == {(): {1: 1, 3: 2, 4: 1}}
    assert model._counts[2] == {(3,): {4: 2}, (4,): {1: 1, 3: 1}}
    assert model.argmax_token([4]) == 1


@pytest.mark.parametrize(
    "data, match",
    [
        (_hdkg([_UNIGRAMS, [((3,), [(7, 2)])]]), "token 7 >= vocab_size 7"),
        (_hdkg([_UNIGRAMS, [((3,), [(999999, 0)])]]), "token 999999 >= vocab_size"),
        (_hdkg([_UNIGRAMS, [((3,), [(4, 2)]), ((7,), [(4, 1)])]]), "context holds an id >= vocab"),
        (_hdkg([_UNIGRAMS, [((3,), [(4, 0)])]]), "count below 1"),
        (_hdkg([_UNIGRAMS, [((3,), []), ((4,), [(3, 1)])]]), "table of 0 entries"),
        (_hdkg([_UNIGRAMS, [((3,), [(4, 2)]), ((3,), [(4, 2)])]]), "contexts not strictly"),
        (_hdkg([_UNIGRAMS, [((4,), [(3, 1)]), ((3,), [(4, 2)])]]), "contexts not strictly"),
        (_hdkg([_UNIGRAMS, [((4,), [(3, 1), (3, 1)])]]), "next tokens not strictly"),
        (_hdkg([_UNIGRAMS, [((4,), [(3, 1), (1, 1)])]]), "next tokens not strictly"),
        (_hdkg([_UNIGRAMS + _UNIGRAMS, _BIGRAMS]), "2 order-1 contexts"),
        (_hdkg([], k=0), "k = 0"),
        (_hdkg([_UNIGRAMS], k=2**32 - 1), "k = 4294967295"),
        (_hdkg([_UNIGRAMS, _BIGRAMS], vocab_size=0), "vocab_size = 0"),
        (_hdkg([_UNIGRAMS, _BIGRAMS], alpha=math.nan), "alpha = nan"),
        (_hdkg([_UNIGRAMS, _BIGRAMS], alpha=math.inf), "alpha = inf"),
        (_hdkg([_UNIGRAMS, _BIGRAMS], alpha=0.0), "alpha = 0.0"),
        (_hdkg([_UNIGRAMS, _BIGRAMS], alpha=-0.5), "alpha = -0.5"),
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
