import dataclasses
import json
import math

import numpy as np
import pytest

from hierdraft import (
    EOS,
    DatabaseSet,
    DecodeConfig,
    HierarchyConfig,
    ModelDB,
    aggregate_traces,
    autoregressive_decode,
    build_stats_db,
    corpus_from_texts,
    decode,
    fit_kgram,
    load_traces,
    save_traces,
    tokenize,
)
from hierdraft.drafting import SOURCE_NAMES
from hierdraft.engine import _UNIFORM_BLOCK, TRACE_SCHEMA
from hierdraft.kgram import ModelCallCounter
from hierdraft.verification import verify_sampling

from conftest import fresh_dbs, make_corpus, sample_prompts


def _hd_config(**kwargs):
    hier = kwargs.pop("hierarchy", None) or HierarchyConfig()
    return DecodeConfig(hierarchy=hier, **kwargs)


@pytest.fixture(scope="module")
def setup():
    corpus = make_corpus(seed=51, n_docs=20, doc_words=300, vocab_words=60)
    model = fit_kgram(corpus, k=3, alpha=0.01)
    from hierdraft import build_model_db, build_stats_db

    return corpus, model, build_model_db(corpus, top_k=5000, window=4), build_stats_db(corpus)


def test_disabled_dbs_match_autoregressive(setup):
    corpus, model, *_ = setup
    prompt = corpus.docs[0][:6]
    config = _hd_config(
        hierarchy=HierarchyConfig(order=""), max_tokens=30
    )
    output, metrics, _ = decode(model, prompt, fresh_dbs(), config)
    ar_output, ar_metrics = autoregressive_decode(
        model, prompt, DecodeConfig(max_tokens=30)
    )
    assert output == ar_output
    assert metrics.steps == metrics.tokens_generated
    assert metrics.tau == 1.0
    assert ar_metrics.tau == 1.0


def test_malformed_prompt_rejected(setup):
    _, model, *_ = setup
    with pytest.raises(ValueError, match="malformed prompt"):
        decode(model, [3, EOS, 4], fresh_dbs(), _hd_config())
    with pytest.raises(ValueError, match="malformed prompt"):
        autoregressive_decode(model, [], DecodeConfig())
    # The model packs context ids into one key, unique only inside its vocabulary.
    with pytest.raises(ValueError, match=r"malformed prompt: an id outside \[0, "):
        decode(model, [3, model.vocab_size], fresh_dbs(), _hd_config())
    with pytest.raises(ValueError, match=r"malformed prompt: an id outside \[0, "):
        autoregressive_decode(model, [-1, 3], DecodeConfig())


@pytest.mark.parametrize("ar", [False, True], ids=["decode", "autoregressive"])
@pytest.mark.parametrize(
    "prompt, kind",
    [([3, 4.5], "float"), ([3, True], "bool"), (["3"], "str"),
     ([3, np.float64(4.0)], "float64"), ([3, np.bool_(True)], "")],
    ids=["float", "bool", "str", "np-float", "np-bool"],
)
def test_prompt_ids_must_be_integers(setup, ar, prompt, kind):
    # 4.5 decoded as if it were 4, True as EOS, and "3" escaped as TypeError.
    _, model, *_ = setup
    with pytest.raises(ValueError, match=f"^malformed prompt: an id of type {kind}"):
        if ar:
            autoregressive_decode(model, prompt, DecodeConfig(max_tokens=4))
        else:
            decode(model, prompt, fresh_dbs(), _hd_config(max_tokens=4))


def test_numpy_integer_prompt_ids_decode_as_ints(setup):
    _, model, model_db, stats_db = setup
    config = _hd_config(max_tokens=8)
    want, _, _ = decode(model, [3, 4, 5], fresh_dbs(model_db, stats_db), config)
    prompt = [np.int64(3), np.uint16(4), 5]
    assert decode(model, prompt, fresh_dbs(model_db, stats_db), config)[0] == want
    assert autoregressive_decode(model, prompt, config)[0] == want


def test_greedy_losslessness_random_prompts(setup):
    corpus, model, model_db, stats_db = setup
    prompts = sample_prompts(corpus, 25, seed=4)
    for i, prompt in enumerate(prompts):
        config = _hd_config(max_tokens=24, seed=i, trace=True)
        output, metrics, trace = decode(
            model, prompt, fresh_dbs(model_db, stats_db), config
        )
        ar_output, ar_metrics = autoregressive_decode(
            model, prompt, DecodeConfig(max_tokens=24, seed=i)
        )
        assert output == ar_output
        assert metrics.steps <= ar_metrics.steps  # step compression
        if metrics.steps == ar_metrics.steps:
            # Equality only when no step accepted a single draft token.
            assert all(
                r.outcome.winner is None or r.outcome.accepted[r.outcome.winner] == 0
                for r in trace.steps
            )
        assert metrics.tau >= 1.0
        if metrics.alpha is not None:
            assert 0.0 <= metrics.alpha <= 1.0
        assert metrics.tokens_generated <= 24


def test_repeated_passage_reaches_full_tau(passage_model, passage_prompt, passage_corpus):
    from hierdraft import build_model_db, build_stats_db

    model_db = build_model_db(passage_corpus, window=4)
    stats_db = build_stats_db(passage_corpus)
    config = _hd_config(max_tokens=100, trace=True)
    output, metrics, trace = decode(
        passage_model, passage_prompt, fresh_dbs(model_db, stats_db), config
    )
    emitted_lens = [len(r.outcome.emitted) for r in trace.steps]
    accepted = [
        r.outcome.accepted[r.outcome.winner]
        for r in trace.steps
        if r.outcome.winner is not None
    ]
    first_full = next(i for i, a in enumerate(accepted) if a == 4)
    # Steady state: every step after the first full acceptance emits m+1.
    steady = emitted_lens[first_full + 1:]
    assert steady and all(length == 5 for length in steady)
    assert sum(steady) / len(steady) == 5.0
    # Exact step count: warm-up steps plus ceil(remaining / 5).
    warm_tokens = sum(emitted_lens[:first_full + 1])
    expected_steps = first_full + 1 + math.ceil((100 - warm_tokens) / 5)
    assert metrics.steps == expected_steps
    assert metrics.tokens_generated == 100
    # Greedy losslessness on the fixture as well.
    ar_output, _ = autoregressive_decode(
        passage_model, passage_prompt, DecodeConfig(max_tokens=100)
    )
    assert output == ar_output


def test_overshoot_truncated_but_traced(passage_model, passage_prompt, passage_corpus):
    from hierdraft import build_model_db, build_stats_db

    model_db = build_model_db(passage_corpus, window=4)
    stats_db = build_stats_db(passage_corpus)
    config = _hd_config(max_tokens=98, trace=True)
    output, metrics, trace = decode(
        passage_model, passage_prompt, fresh_dbs(model_db, stats_db), config
    )
    assert len(output) == 98 == metrics.tokens_generated
    traced = sum(len(r.outcome.emitted) for r in trace.steps)
    assert traced > 98  # the final full step is kept whole in the trace


def test_eos_truncation_matches_autoregressive():
    corpus = corpus_from_texts(["a b c d"])
    model = fit_kgram(corpus, k=3, alpha=0.01)
    a, b, c, d = tokenize("a b c d", corpus.vocab)
    # The one candidate runs past EOS: the step accepts c, d, EOS and the
    # output stops there.
    dbs = DatabaseSet(model=ModelDB(4, [b], [1], [c, d, EOS, a], [1]))
    config = _hd_config(
        hierarchy=HierarchyConfig(order="m"), max_tokens=50, trace=True
    )
    output, _, trace = decode(model, [a, b], dbs, config)
    ar_output, _ = autoregressive_decode(model, [a, b], DecodeConfig(max_tokens=50))
    assert [r.outcome.candidate_lens for r in trace.steps] == [[4]]
    assert [r.outcome.accepted for r in trace.steps] == [[3]]
    assert output == ar_output == [c, d, EOS]


def test_determinism_same_seed(setup):
    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[2][:5]
    outs = []
    for _ in range(2):
        config = _hd_config(max_tokens=40, seed=9, temperature=0.8, trace=True)
        output, metrics, trace = decode(
            model, prompt, fresh_dbs(model_db, stats_db), config
        )
        outs.append((output, metrics, trace))
    (out_a, met_a, tr_a), (out_b, met_b, tr_b) = outs
    assert out_a == out_b
    assert met_a.steps == met_b.steps
    assert met_a.tau == met_b.tau
    assert met_a.alpha == met_b.alpha
    assert met_a.tallies == met_b.tallies
    assert [r.outcome.emitted for r in tr_a.steps] == [
        r.outcome.emitted for r in tr_b.steps
    ]


def test_trace_replay_reproduces_metrics(setup, tmp_path):
    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[1][:6]
    config = _hd_config(max_tokens=30, trace=True)
    _, metrics, trace = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
    replayed = aggregate_traces([trace])
    assert dataclasses.asdict(replayed) == dataclasses.asdict(metrics)
    # Round trip through the JSONL persistence as well.
    path = tmp_path / "trace.jsonl"
    save_traces([trace], path)
    loaded = load_traces(path)[0]
    assert dataclasses.asdict(aggregate_traces([loaded])) == dataclasses.asdict(metrics)


def test_aggregate_single_trace_is_identity(setup):
    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[3][:6]
    config = _hd_config(max_tokens=25, trace=True)
    _, metrics, trace = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
    agg = aggregate_traces([trace])
    assert dataclasses.asdict(agg) == dataclasses.asdict(metrics)


def test_aggregate_matches_flat_recompute(setup):
    corpus, model, model_db, stats_db = setup
    traces = []
    for i, prompt in enumerate(sample_prompts(corpus, 6, seed=77)):
        config = _hd_config(max_tokens=20, seed=i, trace=True)
        _, _, trace = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
        traces.append(trace)
    agg = aggregate_traces(traces)
    # Flat oracle: recompute the headline ratios from raw step records.
    tokens = sum(len(t.output) for t in traces)
    steps = sum(len(t.steps) for t in traces)
    assert agg.tokens_generated == tokens
    assert agg.steps == steps
    assert agg.tau == tokens / steps
    accepted = drafted = 0
    for trace in traces:
        for record in trace.steps:
            o = record.outcome
            if o.winner is not None:
                accepted += o.accepted[o.winner]
                drafted += o.candidate_lens[o.winner]
    assert agg.alpha == (accepted / drafted if drafted else None)
    letter_of = {source: letter for letter, source in SOURCE_NAMES.items()}
    won = {letter: 0 for letter in "cms"}
    for trace in traces:
        for record in trace.steps:
            o = record.outcome
            if o.winner is not None:
                won[letter_of[o.winner_source]] += o.accepted[o.winner]
    assert {l: t["accepted_tokens"] for l, t in agg.tallies.items()} == won
    assert sum(won.values()) == accepted > 0
    for letter in "cms":
        probe_oracle = sum(
            1
            for trace in traces
            for record in trace.steps
            if record.access[letter].attempted
        )
        assert agg.probes.get(letter, 0) == probe_oracle


@pytest.mark.parametrize("order", ["cms", "mcs", "smc"])
@pytest.mark.parametrize("temperature", [0.0, 0.8])
def test_untraced_decode_builds_no_step_records(setup, monkeypatch, temperature, order):
    import hierdraft.drafting as drafting
    import hierdraft.engine as engine

    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[4][:6]
    config = _hd_config(
        hierarchy=HierarchyConfig(order=order),
        max_tokens=30,
        temperature=temperature,
        seed=3,
        trace=True,
    )
    traced_out, traced, _ = decode(model, prompt, fresh_dbs(model_db, stats_db), config)

    def forbidden(name):
        def build(*args, **kwargs):
            raise AssertionError(f"{name} built without tracing")

        return build

    for module, name in ((engine, "StepRecord"), (engine, "AccessRecord"), (drafting, "AccessRecord")):
        monkeypatch.setattr(module, name, forbidden(name))
    untraced = dataclasses.replace(config, trace=False)
    out, metrics, trace = decode(model, prompt, fresh_dbs(model_db, stats_db), untraced)
    assert trace is None
    assert out == traced_out
    for name in ("steps", "tau", "alpha", "alpha_all", "tallies", "probes"):
        assert getattr(metrics, name) == getattr(traced, name), name
    assert metrics.draft_latency_ns is None and metrics.verify_latency_ns_mean is None


@pytest.mark.parametrize("order", ["cms", "mcs", "smc"])
@pytest.mark.parametrize("temperature", [0.0, 0.8])
def test_decode_over_context_capacity_matches_autoregressive(setup, temperature, order):
    """A context DB of 16 pairs goes over its capacity in every generation:
    the output still equals autoregressive decoding's, and the untraced
    metrics equal the traced ones. A generation whose draft set fills
    before ``c`` is probed learns nothing, so evictions are counted over
    all four prompts."""
    corpus, model, model_db, stats_db = setup
    prompts = sample_prompts(corpus, 4, seed=17, min_len=20, max_len=40)
    evicted = {True: [], False: []}
    for seed, prompt in enumerate(prompts):
        config = _hd_config(
            hierarchy=HierarchyConfig(order=order),
            max_tokens=60,
            temperature=temperature,
            seed=seed,
            trace=True,
        )
        runs = []
        for trace in (True, False):
            dbs = fresh_dbs(model_db, stats_db, capacity=16)
            dbs.context.on_evict = lambda k, v, trace=trace: evicted[trace].append((k, v))
            runs.append(decode(model, prompt, dbs, dataclasses.replace(config, trace=trace)))
        (traced_out, traced, _), (out, metrics, _) = runs
        ar_output, _ = autoregressive_decode(
            model, prompt, DecodeConfig(max_tokens=60, temperature=temperature, seed=seed)
        )
        assert out == traced_out == ar_output
        for name in ("steps", "tau", "alpha", "alpha_all", "tallies", "probes"):
            assert getattr(metrics, name) == getattr(traced, name), name
    assert evicted[True] and evicted[True] == evicted[False]


@pytest.mark.parametrize("order", ["cms", "smc"])
@pytest.mark.parametrize("temperature", [0.0, 0.8])
def test_untraced_decode_reads_no_clock(setup, monkeypatch, temperature, order):
    """Only a traced decode times its probes and verify calls."""
    import time

    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[4][:6]
    config = _hd_config(
        hierarchy=HierarchyConfig(order=order), max_tokens=30, temperature=temperature, seed=3
    )
    expected, _, _ = decode(model, prompt, fresh_dbs(model_db, stats_db), config)

    def no_clock():
        raise AssertionError("untraced decode read time.perf_counter_ns")

    monkeypatch.setattr(time, "perf_counter_ns", no_clock)
    out, metrics, _ = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
    assert out == expected and metrics.steps > 0
    traced = dataclasses.replace(config, trace=True)
    with pytest.raises(AssertionError, match="perf_counter_ns"):
        decode(model, prompt, fresh_dbs(model_db, stats_db), traced)


def test_stats_db_retrieved_once_per_distinct_tail(setup, monkeypatch):
    corpus, model, _model_db, _stats_db = setup
    stats_db = build_stats_db(corpus)  # its memo starts empty
    real_retrieve = stats_db.retrieve
    calls: list[tuple[tuple[int, ...], int, int]] = []

    def counting_retrieve(tail, draft_len, want):
        calls.append((tuple(tail), draft_len, want))
        return real_retrieve(tail, draft_len, want)

    monkeypatch.setattr(stats_db, "retrieve", counting_retrieve)
    hier = HierarchyConfig(order="s")
    prompts = sample_prompts(corpus, 8, seed=12)
    seen: dict[tuple[tuple[int, ...], int, int], None] = {}
    hits = later_hits = 0
    for prompt in prompts:
        before = len(calls)
        config = _hd_config(hierarchy=hier, max_tokens=200, trace=True)
        _, metrics, trace = decode(model, prompt, fresh_dbs(stats_db=stats_db), config)
        probed = [tuple(r.context_tail) for r in trace.steps if r.access["s"].attempted]
        assert metrics.probes["s"] == len(probed) == len(trace.steps)
        keys = dict.fromkeys((tail, hier.draft_len, hier.set_size) for tail in probed)
        new = [key for key in keys if key not in seen]
        # One retrieve per key no generation has asked for yet, in
        # first-seen order; a memo hit still counts as a probe.
        assert calls[before:] == new
        seen.update(dict.fromkeys(new))
        hits += len(probed) - len(new)
        later_hits += len(keys) - len(new)
    assert calls == list(seen)
    assert later_hits > 0 and hits > later_hits
    # Replayed requests retrieve nothing.
    for prompt in prompts[:3]:
        decode(model, prompt, fresh_dbs(stats_db=stats_db), _hd_config(hierarchy=hier, max_tokens=200))
    assert calls == list(seen)
    # Another draft_len is another key, retrieved afresh once per tail.
    shorter = HierarchyConfig(order="s", draft_len=3)
    before = len(calls)
    _, metrics, trace = decode(
        model, prompts[0], fresh_dbs(stats_db=stats_db),
        _hd_config(hierarchy=shorter, max_tokens=200, trace=True),
    )
    tails = dict.fromkeys(tuple(r.context_tail) for r in trace.steps)
    assert calls[before:] == [(tail, 3, shorter.set_size) for tail in tails]
    assert metrics.probes["s"] == len(trace.steps) > len(tails)


@pytest.mark.parametrize("order", ["cms", "smc"])
@pytest.mark.parametrize("temperature", [0.0, 0.8])
def test_stats_memo_changes_no_output(setup, monkeypatch, temperature, order):
    """Outputs, steps, probes and tallies are the same whether the stats
    memo is cold, warmed by other requests, replayed or evicting."""
    corpus, model, model_db, _stats_db = setup
    prompts = sample_prompts(corpus, 6, seed=31)
    hier = HierarchyConfig(order=order)

    def run(stats_db):
        results = []
        for i, prompt in enumerate(prompts):
            config = _hd_config(hierarchy=hier, max_tokens=60, temperature=temperature, seed=i)
            dbs = fresh_dbs(model_db, stats_db())
            output, metrics, _ = decode(model, prompt, dbs, config)
            results.append((output, metrics.steps, metrics.probes, metrics.tallies))
        return results

    cold = run(lambda: build_stats_db(corpus))
    assert sum(probes.get("s", 0) for _, _, probes, _ in cold) > 0
    shared = build_stats_db(corpus)
    for i, prompt in enumerate(sample_prompts(corpus, 6, seed=32)):
        decode(model, prompt, fresh_dbs(model_db, shared), _hd_config(hierarchy=hier, seed=i))
    assert run(lambda: shared) == cold  # warmed by other requests
    assert run(lambda: shared) == cold  # replayed
    monkeypatch.setattr("hierdraft.stats_db._MEMO_ENTRIES", 3)
    evicting = build_stats_db(corpus)
    misses = []
    real_retrieve = evicting.retrieve

    def counting_retrieve(tail, draft_len, want):
        misses.append(tuple(tail))
        return real_retrieve(tail, draft_len, want)

    monkeypatch.setattr(evicting, "retrieve", counting_retrieve)
    assert run(lambda: evicting) == cold
    assert len(evicting._memo) == 3 < len(misses)  # it evicted


def test_every_probe_goes_through_the_instance_lookup(setup, monkeypatch):
    # hdbench's tracer wraps ``lookup`` on the instances, so drafters must
    # reach the databases through those attributes.
    corpus, model, model_db, stats_db = setup
    calls = {"c": 0, "m": 0}

    def counting(letter, lookup):
        def wrapped(key, want):
            calls[letter] += 1
            return lookup(key, want)

        return wrapped

    dbs = fresh_dbs(model_db, stats_db)
    monkeypatch.setattr(dbs.context, "lookup", counting("c", dbs.context.lookup))
    monkeypatch.setattr(model_db, "lookup", counting("m", model_db.lookup))
    for i, prompt in enumerate(sample_prompts(corpus, 6, seed=21)):
        calls.update(c=0, m=0)
        _, metrics, _ = decode(model, prompt, dbs, _hd_config(max_tokens=60, seed=i))
        assert calls["c"] == metrics.probes["c"] > 0
        assert calls["m"] == metrics.probes.get("m", 0)


def test_autoregressive_contract(setup):
    corpus, model, *_ = setup
    prompt = corpus.docs[4][:4]
    output, metrics = autoregressive_decode(model, prompt, DecodeConfig(max_tokens=1))
    assert len(output) == 1 and metrics.steps == 1
    a, _ = autoregressive_decode(
        model, prompt, DecodeConfig(max_tokens=15, temperature=0.7, seed=3)
    )
    b, _ = autoregressive_decode(
        model, prompt, DecodeConfig(max_tokens=15, temperature=0.7, seed=3)
    )
    assert a == b
    # Nothing is drafted or verified, so nothing is timed.
    assert metrics.draft_latency_ns is None and metrics.verify_latency_ns_mean is None
    # Per-step oracle: repeated argmax of the scored distribution.
    out, _ = autoregressive_decode(model, prompt, DecodeConfig(max_tokens=12))
    context = list(prompt)
    for token in out:
        assert token == model.argmax_token(context)
        context.append(token)


def test_reset_makes_runs_order_independent(setup):
    corpus, model, model_db, stats_db = setup
    prompt_a = corpus.docs[5][:6]
    prompt_b = corpus.docs[6][:6]
    dbs = fresh_dbs(model_db, stats_db)

    def run(prompt, seed):
        config = _hd_config(max_tokens=20, seed=seed, trace=True)
        output, metrics, trace = decode(model, prompt, dbs, config)
        return output, metrics.tallies, [r.outcome.emitted for r in trace.steps]

    b_after_a = (run(prompt_a, 0), run(prompt_b, 1))[1]
    b_alone = run(prompt_b, 1)
    assert b_after_a == b_alone


@pytest.mark.parametrize("temperature", [0.3, 0.8, 1.0])
def test_sampling_decode_equals_autoregressive_same_seed(setup, temperature):
    """Each emitted token is one in-order draw from the target distribution,
    so decode reproduces the tokens autoregressive sampling draws."""
    corpus, model, model_db, stats_db = setup
    tokens = steps = 0
    for i, prompt in enumerate(sample_prompts(corpus, 30, seed=9)):
        config = _hd_config(max_tokens=40, temperature=temperature, seed=i)
        output, metrics, _ = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
        ar_output, _ = autoregressive_decode(
            model, prompt, DecodeConfig(max_tokens=40, temperature=temperature, seed=i)
        )
        assert output == ar_output
        tokens += metrics.tokens_generated
        steps += metrics.steps
    assert tokens > steps  # some steps accepted draft tokens


@pytest.mark.parametrize("trace", [False, True])
def test_greedy_decoding_builds_no_rng(setup, monkeypatch, trace):
    """Nothing draws at T = 0, so neither decoder makes a generator there."""
    corpus, model, model_db, stats_db = setup

    def no_rng(*_args, **_kwargs):
        raise AssertionError("a greedy decode built an RNG")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    prompt = corpus.docs[2][:8]
    config = _hd_config(max_tokens=40, trace=trace)
    output, metrics, _ = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
    ar_output, _ = autoregressive_decode(model, prompt, DecodeConfig(max_tokens=40))
    assert output == ar_output
    assert metrics.tokens_generated > metrics.steps  # the drafters were used


def test_context_ingested_once_per_step(setup, monkeypatch):
    """An untraced decode feeds the context DB once per probe: the prompt's
    filled windows, then the windows each later step filled, at T = 0 and
    at T > 0 alike."""
    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[3][:6]
    for temperature in (0.0, 0.8):
        dbs = fresh_dbs(model_db, stats_db)
        real_ingest = dbs.context.ingest
        calls = []

        def counting_ingest(seq):
            calls.append(seq)
            real_ingest(seq)

        monkeypatch.setattr(dbs.context, "ingest", counting_ingest)
        config = _hd_config(max_tokens=60, temperature=temperature)
        _, metrics, _ = decode(model, prompt, dbs, config)
        assert len(calls) == metrics.probes["c"] == metrics.steps


def test_sampling_decode_is_seed_deterministic(setup):
    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[8][:5]
    config = _hd_config(max_tokens=20, temperature=1.0, seed=11)
    a, _, _ = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
    b, _, _ = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
    assert a == b


def _reference_sampling(model, prompt, max_tokens, temperature, seed):
    """Autoregressive sampling with a plain generator, one ``rng.random()``
    per ``KGramModel.sample`` draw."""
    rng = np.random.default_rng(seed)
    context = list(prompt)
    for _ in range(max_tokens):
        context.append(model.sample(context, temperature, rng))
        if context[-1] == EOS:
            break
    return context[len(prompt):]


@pytest.mark.parametrize("temperature", [0.5, 0.8])
def test_sampling_stream_equals_one_draw_at_a_time(setup, temperature):
    """Both decoders draw their uniforms in blocks, yet emit the tokens that
    drawing them one ``Generator.random()`` at a time gives, across block
    boundaries; ``verify_sampling`` and ``sample`` still take a generator."""
    corpus, model, model_db, stats_db = setup
    max_tokens = 2 * _UNIFORM_BLOCK + 50
    longest = 0
    for seed, prompt in enumerate(sample_prompts(corpus, 4, seed=21)):
        want = _reference_sampling(model, prompt, max_tokens, temperature, seed)
        config = _hd_config(max_tokens=max_tokens, temperature=temperature, seed=seed)
        assert autoregressive_decode(model, prompt, config)[0] == want
        assert decode(model, prompt, fresh_dbs(model_db, stats_db), config)[0] == want
        rng, context = np.random.default_rng(seed), list(prompt)
        while len(context) - len(prompt) < len(want):
            context += verify_sampling(model, context, [], temperature, rng, ModelCallCounter()).emitted
        assert context[len(prompt):] == want
        longest = max(longest, len(want))
    assert longest > 2 * _UNIFORM_BLOCK  # some generation crossed two block boundaries


@pytest.mark.parametrize(
    "field, value",
    [
        ("temperature", math.nan),
        ("temperature", math.inf),
        ("temperature", -math.inf),
        ("temperature", -0.5),
        ("model_call_cost_s", math.nan),
        ("model_call_cost_s", math.inf),
        ("model_call_cost_s", -1e-3),
        ("max_tokens", 2.5),
        ("max_tokens", True),
        ("seed", 1.5),
        ("seed", False),
        ("seed", -1),
        ("temperature", "hot"),
        ("temperature", True),
        ("model_call_cost_s", True),
    ],
)
def test_non_finite_or_negative_settings_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        DecodeConfig(**{field: value})


@pytest.mark.parametrize("temperature", [0.0, 0.8])
def test_trace_round_trip_is_exact(setup, tmp_path, temperature):
    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[2][:6]
    config = _hd_config(max_tokens=30, seed=5, temperature=temperature, trace=True)
    _, _, trace = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
    path = tmp_path / "trace.jsonl"
    save_traces([trace], path)
    assert load_traces(path) == [trace]
    assert json.loads(path.read_text(encoding="utf-8"))["schema"] == TRACE_SCHEMA


def _valid_trace_line(setup) -> dict:
    corpus, model, model_db, stats_db = setup
    config = _hd_config(max_tokens=8, trace=True)
    _, _, trace = decode(model, corpus.docs[3][:6], fresh_dbs(model_db, stats_db), config)
    return trace.to_dict()


def _drop_context_tail(d):
    del d["steps"][0]["context_tail"]
    return d


def _winning_step(d) -> dict:
    """Cut the trace to the step whose winner accepted the most tokens."""
    steps = [s for s in d["steps"] if s["outcome"]["winner"] is not None]
    d["steps"] = [max(steps, key=lambda s: s["outcome"]["accepted"][s["outcome"]["winner"]])]
    return d["steps"][0]


def _mangle_outcome(d, **changes):
    _winning_step(d)["outcome"].update(changes)
    return d


def _bump_kept(d):
    step = _winning_step(d)
    letter = next(l for l, rec in step["access"].items() if rec["attempted"])
    step["access"][letter]["kept"] += 1
    return d


def _slot_sources(d, step):
    """Each kept candidate's source: the databases' kept counts, in probe order."""
    sources = []
    for letter in d["config"]["hierarchy"]["order"]:
        if letter in step["access"]:
            sources += [SOURCE_NAMES[letter]] * step["access"][letter]["kept"]
    return sources


def _overshoot_accepted(d):
    """The winner accepted one token more than its candidate holds."""
    outcome = _winning_step(d)["outcome"]
    winner = outcome["winner"]
    outcome["candidate_lens"][winner] = outcome["accepted"][winner] - 1
    outcome["drafted_total"] = sum(outcome["candidate_lens"])
    return d


def _demote_winner(d):
    """Name a candidate that accepted fewer tokens, with its own source, the winner."""
    step = _winning_step(d)
    outcome = step["outcome"]
    accepted = outcome["accepted"]
    loser = next(i for i, a in enumerate(accepted) if a < max(accepted))
    outcome.update(winner=loser, winner_source=_slot_sources(d, step)[loser])
    return d


def _credit_other_source(d):
    """Credit the win to a probed database that did not keep the winner."""
    step = _winning_step(d)
    outcome = step["outcome"]
    true_source = _slot_sources(d, step)[outcome["winner"]]
    _kept, letter = min(
        (rec["kept"], letter)
        for letter, rec in step["access"].items()
        if SOURCE_NAMES[letter] != true_source
    )
    outcome["winner_source"] = SOURCE_NAMES[letter]
    return d


def _emit_one_more(d):
    emitted = _winning_step(d)["outcome"]["emitted"]
    emitted.append(emitted[-1])
    return d


def _with_enabled(d, schema):
    """The line with ``hierarchy.enabled`` back, as schema 3 wrote it, tagged ``schema``."""
    d["config"]["hierarchy"]["enabled"] = d["config"]["hierarchy"]["order"]
    return {**d, "schema": schema}


def _add_unknown_access_key(d):
    _winning_step(d)["access"]["x"] = dict(attempted=True, returned=1, kept=0, elapsed_ns=5)
    return d


def test_winning_step_trace_loads_and_replays(setup, tmp_path):
    path = tmp_path / "one-step.jsonl"
    d = _valid_trace_line(setup)
    step = _winning_step(d)
    assert step["outcome"]["accepted"][step["outcome"]["winner"]] >= 1
    path.write_text(json.dumps(d) + "\n", encoding="utf-8")
    assert aggregate_traces(load_traces(path)).steps == 1


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: {"prompt": [1]},
        _drop_context_tail,
        lambda d: [1, 2],
        lambda d: {**d, "schema": TRACE_SCHEMA + 1},
        lambda d: {k: v for k, v in d.items() if k != "schema"},
        lambda d: {**d, "extra": 0},
        lambda d: {**d, "config": {**d["config"], "temprature": 0.5}},
        lambda d: {**d, "config": {**d["config"], "temperature": "hot"}},
        lambda d: {**d, "steps": [{**d["steps"][0], "access": [1]}]},
        lambda d: {**d, "steps": [{**d["steps"][0], "outcome": {"winner": 0}}]},
        lambda d: "{not json",
        lambda d: {**d, "prompt": ["x"]},
        lambda d: {**d, "output": [3, -1]},
        lambda d: {**d, "prompt": [True]},
        lambda d: {**d, "steps": [{**d["steps"][0], "context_tail": [2.5]}]},
        lambda d: {**d, "steps": [{**d["steps"][0], "outcome": {
            **d["steps"][0]["outcome"], "emitted": ["4"]}}]},
        lambda d: {**d, "schema": 1},
        lambda d: _mangle_outcome(d, winner_source="bogus"),
        lambda d: _mangle_outcome(d, winner=99),
        lambda d: _mangle_outcome(d, candidate_lens=[]),
        _bump_kept,
        _add_unknown_access_key,
        lambda d: _mangle_outcome(d, winner=True),
        lambda d: {**d, "wall_time_s": "slow"},
        lambda d: {**d, "wall_time_s": float("inf")},
        lambda d: {**d, "config": {**d["config"], "hierarchy": {
            **d["config"]["hierarchy"], "order": "cq"}}},
        lambda d: _mangle_outcome(d, drafted_total=10**6),
        _overshoot_accepted,
        _demote_winner,
        _credit_other_source,
        _emit_one_more,
        lambda d: _with_enabled(d, 3),
        lambda d: _with_enabled(d, TRACE_SCHEMA),
        lambda d: {**d, "config": {**d["config"], "trace": "yes"}},
        lambda d: {**d, "config": {**d["config"], "trace": 1}},
        lambda d: {**d, "config": {**d["config"], "trace": None}},
    ],
    ids=["prompt-only", "no-context-tail", "list", "unknown-schema", "no-schema",
         "unknown-field", "unknown-config-field", "string-temperature", "list-access",
         "partial-outcome", "not-json", "string-prompt-id", "negative-output-id",
         "bool-prompt-id", "float-context-tail-id", "string-emitted-id",
         "schema-1", "bogus-winner-source", "winner-out-of-range", "no-candidate-lens",
         "kept-disagrees", "unknown-access-key", "bool-winner", "string-wall-time",
         "infinite-wall-time",
         "bad-hierarchy-letters", "drafted-total-not-sum", "accepted-past-candidate",
         "winner-not-best", "winner-source-kept-nothing-there", "emitted-past-accepted",
         "schema-3", "schema-4-with-enabled", "string-trace-flag", "int-trace-flag",
         "null-trace-flag"],
)
def test_load_traces_fails_closed(setup, tmp_path, mangle):
    path = tmp_path / "bad.jsonl"
    line = mangle(_valid_trace_line(setup))
    path.write_text((line if isinstance(line, str) else json.dumps(line)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed trace"):
        load_traces(path)
