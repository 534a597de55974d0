import random
from collections import Counter

import numpy as np
import pytest

from hierdraft import (
    AccessRecord,
    DraftCandidate,
    ModelCallCounter,
    apply_temperature,
    attribute_verify_success,
    corpus_from_texts,
    fit_kgram,
    verify_greedy,
    verify_sampling,
)

from conftest import make_corpus


@pytest.fixture(scope="module")
def chain_model():
    # Greedy path after [3] is 4, after [3, 4] is 5, after [3, 4, 5] is EOS.
    corpus = corpus_from_texts(["a b c"])
    return fit_kgram(corpus, k=3, alpha=0.01)


def _cand(tokens, source="context"):
    return DraftCandidate(tuple(tokens), source)


def test_empty_set_is_autoregressive_step(chain_model):
    counter = ModelCallCounter()
    outcome = verify_greedy(chain_model, [3], [], counter)
    assert counter.calls == 1
    assert outcome.winner is None
    assert outcome.emitted == [chain_model.argmax_token([3])] == [4]
    assert outcome.recycled == [4]


def test_full_acceptance_emits_bonus(chain_model):
    counter = ModelCallCounter()
    outcome = verify_greedy(chain_model, [3], [_cand([4, 5])], counter)
    assert outcome.accepted == [2]
    bonus = chain_model.argmax_token([3, 4, 5])
    assert outcome.emitted == [4, 5, bonus]
    assert counter.calls == 1


def test_winner_is_longest_accepted(chain_model):
    outcome = verify_greedy(
        chain_model, [3], [_cand([4, 9]), _cand([4, 5])], ModelCallCounter()
    )
    assert outcome.accepted == [1, 2]
    assert outcome.winner == 1


def test_winner_tie_breaks_earliest(chain_model):
    outcome = verify_greedy(
        chain_model,
        [3],
        [_cand([4], "model"), _cand([4], "stats")],
        ModelCallCounter(),
    )
    assert outcome.winner == 0
    assert outcome.winner_source == "model"


def test_divergence_emits_correction(chain_model):
    outcome = verify_greedy(chain_model, [3], [_cand([9, 9])], ModelCallCounter())
    assert outcome.accepted == [0]
    assert outcome.emitted == [4]  # the model's own token at the divergence
    assert len(outcome.emitted) == outcome.accepted[outcome.winner] + 1


def test_recycled_equals_emitted_in_greedy(chain_model):
    outcome = verify_greedy(chain_model, [3], [_cand([4, 9])], ModelCallCounter())
    assert outcome.recycled == outcome.emitted


def _ar_greedy(model, prompt, n):
    out = list(prompt)
    for _ in range(n):
        out.append(model.argmax_token(out))
    return out[len(prompt):]


def test_500_random_steps_concatenate_to_greedy_decode():
    corpus = make_corpus(seed=33, n_docs=10, doc_words=300, vocab_words=40)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    rng = random.Random(8)
    context = list(corpus.docs[0][:5])
    prompt_len = len(context)
    for _ in range(500):
        draft_set = []
        for _ in range(rng.randint(0, 5)):
            tokens = _ar_greedy(model, context, rng.randint(1, 4))
            for j in range(len(tokens)):
                if rng.random() < 0.3:
                    tokens[j] = rng.randrange(corpus.vocab.size)
            draft_set.append(_cand(tokens))
        # Pairwise-distinct candidates, as the drafting contract guarantees.
        draft_set = list({c.tokens: c for c in draft_set}.values())
        outcome = verify_greedy(model, context, draft_set, ModelCallCounter())
        assert len(outcome.emitted) >= 1
        if outcome.winner is not None:
            assert len(outcome.emitted) == outcome.accepted[outcome.winner] + 1
        context.extend(outcome.emitted)
    # The losslessness property: same tokens as plain greedy decoding.
    generated = context[prompt_len:]
    assert generated == _ar_greedy(model, context[:prompt_len], len(generated))


def test_greedy_verify_walks_one_greedy_path(monkeypatch):
    """Candidates are scored against one lazily extended greedy path: a step
    makes max(accepted) + 1 argmax calls, none on more than k + draft_len
    tokens, however long the context."""
    corpus = make_corpus(seed=33, n_docs=10, doc_words=300, vocab_words=40)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    rng = random.Random(5)
    draft_len = 4
    real_argmax = model.argmax_token
    lengths: list[int] = []

    def counting_argmax(context):
        lengths.append(len(context))
        return real_argmax(context)

    context = list(corpus.docs[1][:50])
    for _ in range(300):
        draft_set = []
        for _ in range(rng.randint(0, 7)):
            tokens = _ar_greedy(model, context, rng.randint(1, draft_len))
            for j in range(len(tokens)):
                if rng.random() < 0.3:
                    tokens[j] = rng.randrange(corpus.vocab.size)
            draft_set.append(_cand(tokens))
        draft_set = list({c.tokens: c for c in draft_set}.values())
        lengths.clear()
        monkeypatch.setattr(model, "argmax_token", counting_argmax)
        outcome = verify_greedy(model, context, draft_set, ModelCallCounter())
        monkeypatch.undo()
        assert len(lengths) == max(outcome.accepted, default=0) + 1
        assert max(lengths) <= model.k + draft_len
        context.extend(outcome.emitted)


def test_acceptance_monotone_in_draft_set():
    corpus = make_corpus(seed=14, n_docs=6, doc_words=200, vocab_words=20)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    rng = random.Random(21)
    for _ in range(100):
        context = [rng.randrange(corpus.vocab.size) for _ in range(3)]
        sets = []
        for _ in range(4):
            tokens = tuple(rng.randrange(corpus.vocab.size) for _ in range(rng.randint(1, 4)))
            sets.append(_cand(tokens))
        sets = list({c.tokens: c for c in sets}.values())
        best = None
        for size in range(1, len(sets) + 1):
            outcome = verify_greedy(model, context, sets[:size], ModelCallCounter())
            won = outcome.accepted[outcome.winner]
            if best is not None:
                assert won >= best
            best = won


def test_sampling_requires_positive_temperature(chain_model):
    with pytest.raises(ValueError):
        verify_sampling(
            chain_model, [3], [], 0.0, np.random.default_rng(0), ModelCallCounter()
        )


def test_sampling_point_mass_accepts_fully():
    # alpha = 1e-12 makes the temperature-1 law an effective point mass on
    # the chain continuation, so the matching candidate always survives.
    model = fit_kgram(corpus_from_texts(["a b c"]), k=3, alpha=1e-12)
    for seed in range(200):
        outcome = verify_sampling(
            model,
            [3],
            [_cand([4, 5])],
            1.0,
            np.random.default_rng(seed),
            ModelCallCounter(),
        )
        assert outcome.accepted[0] == 2


def test_sampling_two_token_uniform_marginal():
    corpus = corpus_from_texts(["x y", "y x"])  # ids 3, 4 symmetric
    model = fit_kgram(corpus, k=1, alpha=0.01)
    counts = Counter()
    trials = 20_000
    for seed in range(trials):
        outcome = verify_sampling(
            model,
            [3],
            [_cand([3])],
            1.0,
            np.random.default_rng(seed),
            ModelCallCounter(),
        )
        counts[outcome.emitted[0]] += 1
    probs = apply_temperature(model.next_distribution([3]), 1.0)
    assert abs(counts[3] / trials - probs[3]) < 0.01
    assert abs(counts[4] / trials - probs[4]) < 0.01


def test_sampling_correction_token_counts(chain_model):
    rng = np.random.default_rng(7)
    outcome = verify_sampling(
        chain_model, [3], [_cand([9])], 1.0, rng, ModelCallCounter()
    )
    # Candidate is near-certainly rejected; the sampled token stays emitted.
    assert len(outcome.emitted) == 1
    assert outcome.accepted[0] in (0, 1)


def test_sampling_stops_when_survivors_exhausted(chain_model):
    for seed in range(50):
        outcome = verify_sampling(
            chain_model,
            [3],
            [_cand([4])],
            1.0,
            np.random.default_rng(seed),
            ModelCallCounter(),
        )
        if outcome.accepted[0] == 1:
            # Full acceptance of a length-1 candidate: exactly that token.
            assert outcome.emitted == [4]
        else:
            assert len(outcome.emitted) == 1


def _log(**kwargs):
    log = {}
    for letter, (attempted, returned, kept) in kwargs.items():
        log[letter] = AccessRecord(
            attempted=attempted, returned=returned, kept=kept, elapsed_ns=10
        )
    return log


def test_attribute_winner_scores_verify_success(chain_model):
    outcome = verify_greedy(
        chain_model, [3], [_cand([4, 5], "context")], ModelCallCounter()
    )
    log = _log(c=(True, 1, 1), m=(True, 0, 0), s=(False, 0, 0))
    tallies = attribute_verify_success(outcome, log)
    assert tallies["c"] == {"draft_failure": 0, "draft_success": 1, "verify_success": 1}
    assert tallies["m"] == {"draft_failure": 1, "draft_success": 0, "verify_success": 0}
    assert tallies["s"] == {"draft_failure": 0, "draft_success": 0, "verify_success": 0}


def test_attribute_zero_accept_scores_no_verify_success(chain_model):
    outcome = verify_greedy(chain_model, [3], [_cand([9], "model")], ModelCallCounter())
    assert outcome.accepted == [0]
    tallies = attribute_verify_success(outcome, _log(m=(True, 1, 1)))
    assert tallies["m"]["verify_success"] == 0
    assert tallies["m"]["draft_success"] == 1


def test_attribute_mismatched_lengths_error(chain_model):
    outcome = verify_greedy(chain_model, [3], [_cand([4])], ModelCallCounter())
    with pytest.raises(ValueError, match="mismatch"):
        attribute_verify_success(outcome, _log(c=(True, 0, 0)))
