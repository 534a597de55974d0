import dataclasses
import json
import math

import pytest

from hierdraft import (
    EOS,
    DecodeConfig,
    HierarchyConfig,
    aggregate_traces,
    autoregressive_decode,
    corpus_from_texts,
    decode,
    fit_kgram,
    load_traces,
    metrics_from_trace,
    save_traces,
    tokenize,
)

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
        hierarchy=HierarchyConfig(order="cms", enabled=""), max_tokens=30
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
    prompt = tokenize("a b", corpus.vocab)
    dbs = fresh_dbs()
    dbs.context.insert(prompt[-1], (5, 6, 1, 3))  # continuation over EOS
    config = _hd_config(
        hierarchy=HierarchyConfig(order="c", enabled="c"), max_tokens=50
    )
    output, _, _ = decode(model, prompt, dbs, config)
    ar_output, _ = autoregressive_decode(model, prompt, DecodeConfig(max_tokens=50))
    assert output == ar_output
    assert output[-1] == EOS
    assert output.count(EOS) == 1


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
    replayed = metrics_from_trace(trace)
    assert dataclasses.asdict(replayed) == dataclasses.asdict(metrics)
    # Round trip through the JSONL persistence as well.
    path = tmp_path / "trace.jsonl"
    save_traces([trace], path)
    loaded = load_traces(path)[0]
    assert dataclasses.asdict(metrics_from_trace(loaded)) == dataclasses.asdict(metrics)


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
    for letter in "cms":
        probe_oracle = sum(
            1
            for trace in traces
            for record in trace.steps
            if record.access[letter].attempted
        )
        assert agg.probes.get(letter, 0) == probe_oracle


def test_untraced_decode_builds_no_step_records(setup, monkeypatch):
    import hierdraft.engine as engine

    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[4][:6]
    config = _hd_config(max_tokens=30, trace=True)
    traced_out, traced_metrics, _ = decode(model, prompt, fresh_dbs(model_db, stats_db), config)

    def no_records(*args, **kwargs):
        raise AssertionError("StepRecord built without tracing")

    monkeypatch.setattr(engine, "StepRecord", no_records)
    untraced = dataclasses.replace(config, trace=False)
    out, metrics, trace = decode(model, prompt, fresh_dbs(model_db, stats_db), untraced)
    assert trace is None
    assert out == traced_out
    assert metrics.probes == traced_metrics.probes
    assert metrics.tallies == traced_metrics.tallies


def test_stats_db_retrieved_once_per_distinct_tail(setup, monkeypatch):
    corpus, model, model_db, stats_db = setup
    real_retrieve = stats_db.retrieve
    tails: list[tuple[int, ...]] = []

    def counting_retrieve(tail, draft_len, want):
        tails.append(tuple(tail))
        return real_retrieve(tail, draft_len, want)

    monkeypatch.setattr(stats_db, "retrieve", counting_retrieve)
    config = _hd_config(
        hierarchy=HierarchyConfig(order="s", enabled="s"), max_tokens=200, trace=True
    )
    hits = 0
    for prompt in sample_prompts(corpus, 8, seed=12):
        tails.clear()
        _, metrics, trace = decode(model, prompt, fresh_dbs(stats_db=stats_db), config)
        probed = [tuple(r.context_tail) for r in trace.steps if r.access["s"].attempted]
        assert metrics.probes["s"] == len(probed) == len(trace.steps)
        # One retrieve per distinct tail, in first-seen order, with a fresh
        # memo per generation; a memo hit still counts as a probe.
        assert tails == list(dict.fromkeys(probed))
        hits += len(probed) - len(tails)
    assert hits > 0


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


def test_recycle_flag_keeps_losslessness(setup):
    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[7][:6]
    for recycle in (True, False):
        config = _hd_config(max_tokens=30, recycle=recycle)
        output, _, _ = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
        ar_output, _ = autoregressive_decode(model, prompt, DecodeConfig(max_tokens=30))
        assert output == ar_output


def test_sampling_decode_is_seed_deterministic(setup):
    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[8][:5]
    config = _hd_config(max_tokens=20, temperature=1.0, seed=11)
    a, _, _ = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
    b, _, _ = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
    assert a == b


def test_ctx_db_size_recorded_in_trace(setup):
    corpus, model, model_db, stats_db = setup
    prompt = corpus.docs[9][:8]
    config = _hd_config(max_tokens=15, trace=True)
    _, _, trace = decode(model, prompt, fresh_dbs(model_db, stats_db), config)
    sizes = [r.ctx_db_size for r in trace.steps]
    assert all(size > 0 for size in sizes)
    assert sizes == sorted(sizes)  # growing context table during one decode


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
    assert json.loads(path.read_text(encoding="utf-8"))["schema"] == 1


def _valid_trace_line(setup) -> dict:
    corpus, model, model_db, stats_db = setup
    config = _hd_config(max_tokens=8, trace=True)
    _, _, trace = decode(model, corpus.docs[3][:6], fresh_dbs(model_db, stats_db), config)
    return trace.to_dict()


def _drop_context_tail(d):
    del d["steps"][0]["context_tail"]
    return d


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: {"prompt": [1]},
        _drop_context_tail,
        lambda d: [1, 2],
        lambda d: {**d, "schema": 2},
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
        lambda d: {**d, "steps": [{**d["steps"][0], "outcome": {
            **d["steps"][0]["outcome"], "recycled": [-2]}}]},
    ],
    ids=["prompt-only", "no-context-tail", "list", "unknown-schema", "no-schema",
         "unknown-field", "unknown-config-field", "string-temperature", "list-access",
         "partial-outcome", "not-json", "string-prompt-id", "negative-output-id",
         "bool-prompt-id", "float-context-tail-id", "string-emitted-id",
         "negative-recycled-id"],
)
def test_load_traces_fails_closed(setup, tmp_path, mangle):
    path = tmp_path / "bad.jsonl"
    line = mangle(_valid_trace_line(setup))
    path.write_text((line if isinstance(line, str) else json.dumps(line)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed trace"):
        load_traces(path)
