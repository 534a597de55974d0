"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a PASS line on success (run with ``pytest -s`` to see them
inline). Criteria are property-based or fixture-quantitative; none depend
on wall-clock except the two that measure it on purpose (the busy-work
speedup fixture and the runtime budgets).
"""

import itertools
import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from hierdraft import (
    ContextDB,
    DecodeConfig,
    HierarchyConfig,
    MethodSpec,
    autoregressive_decode,
    build_model_db,
    build_stats_db,
    corpus_from_texts,
    decode,
    fit_kgram,
    load_stats_db,
    run_bench,
    save_stats_db,
)

from conftest import fresh_dbs, make_corpus, sample_prompts
from oracles import apply_temperature
from test_context_db import ReferenceLru


def _pass(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def _all_configs():
    orders = ["".join(p) for p in itertools.permutations("cms")]
    subsets = ["c", "m", "s", "cm", "cs", "ms", "cms"]
    configs = [("order-" + o, o, "cms") for o in orders]
    configs += [("subset-" + s, "".join(l for l in "cms" if l in s), s) for s in subsets]
    return configs


def test_greedy_losslessness_all_orders_and_subsets(
    big_corpus, big_model, big_model_db, big_stats_db
):
    """HD greedy output is token-identical to autoregressive, always."""
    start = time.perf_counter()
    rng = random.Random(1234)
    prompts = sample_prompts(big_corpus, 180, seed=1234)
    prompts += [
        [rng.randrange(3, big_corpus.vocab.size) for _ in range(rng.randint(3, 8))]
        for _ in range(20)
    ]
    assert len(prompts) == 200
    configs = _all_configs()
    checked = 0
    for i, prompt in enumerate(prompts):
        ar_output, ar_metrics = autoregressive_decode(
            big_model, prompt, DecodeConfig(max_tokens=16)
        )
        for name, order, enabled in configs:
            config = DecodeConfig(
                max_tokens=16,
                hierarchy=HierarchyConfig(order=order),
                seed=i,
            )
            output, metrics, _ = decode(
                big_model, prompt, fresh_dbs(big_model_db, big_stats_db), config
            )
            assert output == ar_output, f"divergence under {name} on prompt {i}"
            assert metrics.steps <= ar_metrics.steps
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200 * 13
    assert elapsed < 60.0, f"losslessness sweep took {elapsed:.1f}s"
    _pass(
        f"greedy losslessness: 200 prompts x 13 configs == autoregressive "
        f"({elapsed:.1f}s)"
    )


@pytest.fixture(scope="module")
def tiny_setup():
    # vocab <= 10 ids: 3 reserved + 7 words.
    corpus = corpus_from_texts(
        ["p q r s t u v", "q p q r r s p", "r q p p s t v", "u v p q r s t"]
    )
    assert corpus.vocab.size <= 10
    # Low smoothing keeps the sequence law concentrated enough that the
    # 100k-run Monte Carlo comparison sits well inside its 0.02 tolerance.
    model = fit_kgram(corpus, k=2, alpha=0.02)
    model_db = build_model_db(corpus, top_k=1000, window=4)
    stats_db = build_stats_db(corpus)
    return corpus, model, model_db, stats_db


def test_sampling_single_step_total_variation(tiny_setup):
    """Emitted-token law of one sampling step equals the target distribution."""
    corpus, model, model_db, stats_db = tiny_setup
    from hierdraft import DraftCandidate, ModelCallCounter, verify_sampling

    context = [3, 4]
    draft_set = [DraftCandidate((4, 5), "context"), DraftCandidate((5,), "model")]
    trials = 200_000
    start = time.perf_counter()
    counts = Counter()
    rng = np.random.default_rng(2024)
    counter = ModelCallCounter()
    for _ in range(trials):
        outcome = verify_sampling(model, context, draft_set, 1.0, rng, counter)
        counts[outcome.emitted[0]] += 1
    elapsed = time.perf_counter() - start
    exact = apply_temperature(model.next_distribution(context), 1.0)
    tv = 0.5 * sum(
        abs(counts.get(t, 0) / trials - exact[t]) for t in range(corpus.vocab.size)
    )
    assert tv <= 0.01, f"single-step TV {tv:.4f}"
    assert elapsed < 30.0, f"single-step sweep took {elapsed:.1f}s"
    _pass(f"sampling losslessness (single step): TV {tv:.4f} <= 0.01 ({elapsed:.1f}s)")


def _enumerate_ar_law(model, prompt, temperature, depth):
    """Exact autoregressive law over emitted prefixes up to ``depth`` tokens."""
    law = {}

    def expand(prefix, prob):
        if prob == 0.0:
            return
        if len(prefix) == depth or (prefix and prefix[-1] == 1):
            law[tuple(prefix)] = law.get(tuple(prefix), 0.0) + prob
            return
        probs = apply_temperature(
            model.next_distribution(prompt + prefix), temperature
        )
        for token, p in enumerate(probs):
            if p > 0:
                expand(prefix + [token], prob * float(p))

    expand([], 1.0)
    return law


def test_sampling_sequence_total_variation(tiny_setup):
    """First-3-token law of full HD sampling decode equals enumerated AR law."""
    corpus, model, model_db, stats_db = tiny_setup
    prompt = [3, 4]
    runs = 100_000
    law = _enumerate_ar_law(model, prompt, 1.0, 3)
    assert abs(sum(law.values()) - 1.0) < 1e-9
    counts = Counter()
    for seed in range(runs):
        config = DecodeConfig(
            max_tokens=3,
            temperature=1.0,
            seed=seed,
            hierarchy=HierarchyConfig(),
        )
        output, _, _ = decode(
            model, prompt, fresh_dbs(model_db, stats_db), config
        )
        counts[tuple(output)] += 1
    support = set(law) | set(counts)
    tv = 0.5 * sum(
        abs(counts.get(seq, 0) / runs - law.get(seq, 0.0)) for seq in support
    )
    assert tv <= 0.02, f"sequence TV {tv:.4f}"
    _pass(f"sampling losslessness (sequence): TV {tv:.4f} <= 0.02 over {runs} runs")


def _np_occurrences(text: np.ndarray, query: list[int]) -> np.ndarray:
    n = len(text)
    L = len(query)
    if n < L:
        return np.empty(0, dtype=np.int64)
    mask = text[:n - L + 1] == query[0]
    for j in range(1, L):
        mask = mask & (text[j:n - L + 1 + j] == query[j])
    return np.flatnonzero(mask)


def _scan_retrieve(text: np.ndarray, tail, draft_len, want):
    from hierdraft import SEP

    text_list = text.tolist()
    for length in range(len(tail), 0, -1):
        occurrences = _np_occurrences(text, tail[-length:])
        if len(occurrences) == 0:
            continue
        tally = {}
        for pos in occurrences.tolist():
            continuation = []
            for token in text_list[pos + length:pos + length + draft_len]:
                if token == SEP:
                    break
                continuation.append(token)
            if continuation:
                key = tuple(continuation)
                tally[key] = tally.get(key, 0) + 1
        ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))[:want]
        return [(list(c), n) for c, n in ranked]
    return []


def test_suffix_array_oracle_equivalence():
    """find_range and retrieve equal the brute-force scan oracle exactly."""
    rng = random.Random(4321)
    total_queries = 0
    for corpus_idx in range(20):
        n_docs = rng.randint(2, 12)
        doc_words = rng.randint(100, 95_000 // n_docs)
        vocab_words = rng.randint(6, 60)
        corpus = make_corpus(
            seed=9000 + corpus_idx, n_docs=n_docs, doc_words=doc_words,
            vocab_words=vocab_words,
        )
        db = build_stats_db(corpus)
        assert db.n_tokens <= 100_000
        text = db.tokens.astype(np.int64)
        vocab_size = corpus.vocab.size
        for _ in range(1000):
            length = rng.randint(1, 3)
            if rng.random() < 0.7:
                start = rng.randrange(db.n_tokens - length)
                query = [int(t) for t in text[start:start + length]]
            else:
                query = [rng.randrange(vocab_size) for _ in range(length)]
            lo, hi = db.find_range(query)
            occurrences = _np_occurrences(text, query)
            assert hi - lo == len(occurrences)
            assert sorted(int(p) for p in db.suffix_array[lo:hi]) == occurrences.tolist()
            tail = query[:min(len(query), 2)]
            want = rng.randint(0, 8)
            assert db.retrieve(tail, 4, want) == _scan_retrieve(text, tail, 4, want)
            total_queries += 1
    assert total_queries == 20_000
    _pass("suffix-array oracle equivalence: 20 corpora x 1000 queries exact")


def test_lru_contract_against_reference():
    """10k random operations: identical lookups and eviction victims."""
    rng = random.Random(20_000)
    caps = dict(window=4, per_key=5, capacity=120)
    evicted = []
    db = ContextDB(on_evict=lambda k, v: evicted.append((k, v)), **caps)
    ref = ReferenceLru(**caps)
    lookups = 0
    for _ in range(10_000):
        op = rng.random()
        if op < 0.55:
            key = rng.randrange(25)
            value = tuple(rng.randrange(25) for _ in range(rng.randint(1, 4)))
            db.insert(key, value)
            ref.insert(key, value)
        elif op < 0.75:
            seq = [rng.randrange(25) for _ in range(rng.randint(2, 10))]
            db.ingest(seq)
            ref.ingest(seq)
        else:
            key = rng.randrange(25)
            want = rng.randint(0, 7)
            assert db.lookup(key, want) == ref.lookup(key, want)
            lookups += 1
    assert evicted == ref.evicted
    assert len(evicted) > 100  # the trace actually exercised eviction
    _pass(f"LRU contract: 10k ops, {lookups} lookups and {len(evicted)} evictions match")


def _passage_fixture():
    motif = "alpha beta gamma delta epsilon zeta eta"
    passage = " ".join([motif] * 8)
    corpus = corpus_from_texts([passage])
    model = fit_kgram(corpus, k=3, alpha=0.01)
    from hierdraft import tokenize

    prompt = tokenize(passage + " " + passage, corpus.vocab)
    return corpus, model, prompt


def test_fixture_tau_reaches_five():
    """Steady-state tau on the repeated passage is exactly m + 1 == 5."""
    corpus, model, prompt = _passage_fixture()
    model_db = build_model_db(corpus, window=4)
    stats_db = build_stats_db(corpus)
    config = DecodeConfig(max_tokens=1024, trace=True)
    output, metrics, trace = decode(
        model, prompt, fresh_dbs(model_db, stats_db), config
    )
    emitted_lens = [len(r.outcome.emitted) for r in trace.steps]
    accepted = [r.outcome.accepted[r.outcome.winner] for r in trace.steps]
    first_full = next(i for i, a in enumerate(accepted) if a == 4)
    steady = emitted_lens[first_full + 1:]
    assert steady, "no steady-state region"
    assert all(length == 5 for length in steady)
    assert sum(steady) / len(steady) == 5.0
    warm_tokens = sum(emitted_lens[:first_full + 1])
    expected_steps = first_full + 1 + math.ceil((1024 - warm_tokens) / 5)
    assert metrics.steps == expected_steps
    assert metrics.tokens_generated == 1024
    _pass(
        f"fixture tau: steady-state tau == 5.0 over {len(steady)} steps, "
        f"steps == {metrics.steps} exactly"
    )


def test_hierarchy_probe_invariant(big_corpus, big_model, big_model_db, big_stats_db):
    """Stats DB probed exactly when the set is not full after c and m."""
    prompts = sample_prompts(big_corpus, 30, seed=55)
    partial_steps = 0
    full_steps = 0
    for order, enabled in (("cms", "cms"), ("smc", "cms")):
        for i, prompt in enumerate(prompts):
            config = DecodeConfig(
                max_tokens=20,
                seed=i,
                trace=True,
                hierarchy=HierarchyConfig(order=order),
            )
            _, _, trace = decode(
                big_model, prompt, fresh_dbs(big_model_db, big_stats_db), config
            )
            for record in trace.steps:
                access = record.access
                if order == "cms":
                    before_s = access["c"].kept + access["m"].kept
                    assert access["s"].attempted == (before_s < 7)
                    if access["s"].attempted:
                        partial_steps += 1
                    else:
                        full_steps += 1
                else:
                    assert access["s"].attempted
    assert partial_steps > 0 and full_steps > 0  # both branches exercised
    _pass(
        f"hierarchy probe invariant: cms skipped s on {full_steps} steps, "
        f"probed on {partial_steps}; smc probed every step"
    )


def test_metric_bounds_every_run(big_corpus, big_model, big_model_db, big_stats_db):
    """tau >= 1, alpha in [0,1], tokens <= T; disabled DBs give tau == 1."""
    prompts = sample_prompts(big_corpus, 10, seed=97)
    for i, prompt in enumerate(prompts):
        for enabled in ("cms", "c", "ms", ""):
            config = DecodeConfig(
                max_tokens=18,
                seed=i,
                hierarchy=HierarchyConfig(
                    order=enabled
                ),
            )
            _, metrics, _ = decode(
                big_model, prompt, fresh_dbs(big_model_db, big_stats_db), config
            )
            assert metrics.tau >= 1.0
            assert metrics.tokens_generated <= 18
            if metrics.alpha is not None:
                assert 0.0 <= metrics.alpha <= 1.0
            if enabled == "":
                assert metrics.tau == 1.0
                assert metrics.steps == metrics.tokens_generated
    report = run_bench(
        big_model,
        prompts[:2],
        [],
        runs=1,
        max_tokens=10,
    )
    assert report["rows"][0]["speedup"] == 1.0
    _pass("metric bounds: tau >= 1, alpha in [0,1], tokens <= T, AR speedup == 1.0")


def test_fixture_speedup_with_busywork():
    """With >= 1 ms per model call, HD is at least 2x faster than AR."""
    corpus, model, prompt = _passage_fixture()
    model_db = build_model_db(corpus, window=4)
    stats_db = build_stats_db(corpus)
    report = run_bench(
        model,
        [prompt],
        [MethodSpec("hd", databases="cms")],
        model_db=model_db,
        stats_db=stats_db,
        runs=5,
        max_tokens=120,
        model_call_cost_s=1e-3,
    )
    rows = {r["name"]: r for r in report["rows"]}
    speedup = rows["hd"]["speedup"]
    assert speedup >= 2.0, f"speedup {speedup:.2f}x"
    _pass(f"fixture speedup: HD {speedup:.2f}x >= 2x AR under 1 ms/call busy-work")


def _scrub_wallclock(obj):
    volatile = ("elapsed", "latency", "wall_time", "tokens_per_sec", "speedup")
    if isinstance(obj, dict):
        return {
            k: _scrub_wallclock(v)
            for k, v in obj.items()
            if not any(part in k for part in volatile)
        }
    if isinstance(obj, list):
        return [_scrub_wallclock(v) for v in obj]
    return obj


def test_determinism_byte_identical(big_corpus, big_model, big_model_db, big_stats_db, tmp_path):
    """Same seed and config: identical outputs, traces, and reports."""
    prompts = sample_prompts(big_corpus, 4, seed=31)
    blobs = []
    for _ in range(2):
        outputs = []
        traces = []
        for i, prompt in enumerate(prompts):
            config = DecodeConfig(
                max_tokens=24, seed=i, temperature=0.9, trace=True
            )
            output, _, trace = decode(
                big_model, prompt, fresh_dbs(big_model_db, big_stats_db), config
            )
            outputs.append(output)
            traces.append(_scrub_wallclock(trace.to_dict()))
        report = run_bench(
            big_model,
            prompts,
            [MethodSpec("hd", databases="cms")],
            model_db=big_model_db,
            stats_db=big_stats_db,
            runs=2,
            max_tokens=24,
        )
        blob = json.dumps(
            {"outputs": outputs, "traces": traces, "report": _scrub_wallclock(report)},
            sort_keys=True,
        ).encode()
        blobs.append(blob)
    assert blobs[0] == blobs[1]
    _pass("determinism: outputs, traces, and reports byte-identical across runs")


def test_format_stability_and_fail_closed(big_stats_db, tmp_path):
    """save -> load -> save is byte-stable; corrupt headers never half-load."""
    first = tmp_path / "a.hdsa"
    second = tmp_path / "b.hdsa"
    save_stats_db(big_stats_db, first)
    save_stats_db(load_stats_db(first), second)
    assert first.read_bytes() == second.read_bytes()
    data = bytearray(first.read_bytes())
    data[0] ^= 0xFF
    bad = tmp_path / "bad.hdsa"
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        load_stats_db(bad)
    short = tmp_path / "short.hdsa"
    short.write_bytes(first.read_bytes()[:13])
    with pytest.raises(ValueError):
        load_stats_db(short)
    _pass("format stability: byte-identical round trip, corrupt files rejected")
