import random

import pytest

from hierdraft import (
    ContextDB,
    Corpus,
    DatabaseSet,
    HierarchyConfig,
    build_model_db,
    build_stats_db,
    build_vocab,
    hierarchical_draft,
)
from hierdraft.drafting import SOURCE_NAMES

from conftest import make_corpus


def _vocab(n):
    return build_vocab([" ".join(f"v{i}" for i in range(n))])


def _empty_dbs():
    vocab = _vocab(10)
    return DatabaseSet(
        context=ContextDB(),
        model=build_model_db(Corpus(docs=[[3, 4, 5, 6, 7]], vocab=vocab), window=4),
        stats=build_stats_db(Corpus(docs=[[8, 9]], vocab=vocab)),
    )


def _prefilled(dbs, config):
    """Drafters in probe order with a lookup-only context drafter, so a
    pre-filled context table is neither reset nor fed the context."""
    def lookup(context, want):
        return dbs.context.lookup(context[-1], want)

    return [
        (l, lookup if l == "c" else getattr(dbs, SOURCE_NAMES[l]).drafter(config))
        for l in config.order
    ]


def test_all_dbs_miss_gives_empty_set():
    dbs = _empty_dbs()
    config = HierarchyConfig()
    candidates, probes = hierarchical_draft([5], dbs.drafters(config), config)
    assert candidates == []
    assert [probe[:3] for probe in probes] == [("c", 0, 0), ("m", 0, 0), ("s", 0, 0)]


def test_full_context_db_skips_later_dbs():
    dbs = _empty_dbs()
    for i in range(7):
        dbs.context.insert(5, (10 + i, 11 + i))
    config = HierarchyConfig()
    candidates, probes = hierarchical_draft([5], _prefilled(dbs, config), config)
    assert len(candidates) == 7
    assert all(source == "context" for _tokens, source in candidates)
    assert [probe[:3] for probe in probes] == [("c", 7, 7)]  # m and s not probed


def test_dedupe_first_source_wins():
    vocab = _vocab(12)
    dbs = DatabaseSet(
        context=ContextDB(),
        model=build_model_db(Corpus(docs=[[9, 9, 9, 9, 9]], vocab=vocab), window=4),
        stats=build_stats_db(
            Corpus(docs=[[3, 5, 6], [3, 5, 6], [3, 7, 8]], vocab=vocab)
        ),
    )
    dbs.context.insert(3, (5, 6))
    config = HierarchyConfig()
    candidates, probes = hierarchical_draft([3], _prefilled(dbs, config), config)
    assert candidates == [((5, 6), "context"), ((7, 8), "stats")]
    # s returned 2 (raw return, before dedupe) and kept 1.
    assert [probe[:3] for probe in probes] == [("c", 1, 1), ("m", 0, 0), ("s", 2, 1)]


def test_stats_tail_respects_context_length():
    vocab = _vocab(12)
    dbs = DatabaseSet(
        context=ContextDB(),
        model=build_model_db(Corpus(docs=[[9, 9, 9, 9, 9]], vocab=vocab), window=4),
        stats=build_stats_db(Corpus(docs=[[3, 4, 5]], vocab=vocab)),
    )
    config = HierarchyConfig(tail_len=2)
    candidates, _ = hierarchical_draft([3], dbs.drafters(config), config)
    assert candidates == [((4, 5), "stats")]


def _reference_draft(context, dbs, config):
    """Quota-based reference: straight-line reimplementation of the contract."""
    out = []
    seen = set()
    for letter in config.order:
        if len(out) >= config.set_size:
            continue
        want = config.set_size - len(out)
        if letter == "c":
            values = dbs.context.lookup(context[-1], want)
        elif letter == "m":
            values = dbs.model.lookup(context[-1], want)
        else:
            tail = context[-min(config.tail_len, len(context)):]
            values = [v for v, _c in dbs.stats.retrieve(tail, config.draft_len, want)]
        for value in values:
            key = tuple(value)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def _random_dbs(seed):
    corpus = make_corpus(seed=seed, n_docs=6, doc_words=150, vocab_words=12)
    dbs = DatabaseSet(
        context=ContextDB(),
        model=build_model_db(corpus, top_k=200, window=4),
        stats=build_stats_db(corpus),
    )
    rng = random.Random(seed + 1)
    for _ in range(60):
        key = rng.randrange(corpus.vocab.size)
        value = tuple(rng.randrange(corpus.vocab.size) for _ in range(rng.randint(1, 4)))
        dbs.context.insert(key, value)
    return corpus, dbs


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matches_reference_on_random_contents(seed):
    corpus, dbs = _random_dbs(seed)
    _, reference_dbs = _random_dbs(seed)  # same construction, fresh recency state
    rng = random.Random(seed + 50)
    config = HierarchyConfig()
    for _ in range(40):
        context = [rng.randrange(corpus.vocab.size) for _ in range(rng.randint(1, 5))]
        got, _probes = hierarchical_draft(context, _prefilled(dbs, config), config)
        want = _reference_draft(context, reference_dbs, config)
        assert [tokens for tokens, _source in got] == want


def test_disabled_db_equals_empty_db():
    corpus, dbs = _random_dbs(9)
    rng = random.Random(60)
    vocab = corpus.vocab
    no_stats = HierarchyConfig(order="cm")
    all_dbs = HierarchyConfig()
    empty_stats = DatabaseSet(
        context=dbs.context,
        model=dbs.model,
        stats=build_stats_db(Corpus(docs=[[vocab.size - 1]], vocab=vocab)),
    )
    for _ in range(25):
        context = [rng.randrange(vocab.size) for _ in range(3)]
        disabled, _ = hierarchical_draft(context, _prefilled(dbs, no_stats), no_stats)
        emptied, _ = hierarchical_draft(context, _prefilled(empty_stats, all_dbs), all_dbs)
        assert [t for t, _ in disabled] == [t for t, _ in emptied]


def test_candidates_distinct_and_bounded():
    corpus, dbs = _random_dbs(4)
    rng = random.Random(70)
    for _ in range(50):
        context = [rng.randrange(corpus.vocab.size) for _ in range(2)]
        config = HierarchyConfig(set_size=5)
        candidates, _ = hierarchical_draft(context, _prefilled(dbs, config), config)
        tokens = [t for t, _source in candidates]
        assert len(tokens) == len(set(tokens)) <= 5
        assert all(1 <= len(t) <= 4 for t in tokens)


def test_order_permutation_changes_sources():
    corpus, dbs = _random_dbs(5)
    _, dbs2 = _random_dbs(5)
    context = corpus.docs[0][:3]
    cms_config, smc_config = HierarchyConfig(order="cms"), HierarchyConfig(order="smc")
    cms, _ = hierarchical_draft(context, _prefilled(dbs, cms_config), cms_config)
    smc, _ = hierarchical_draft(context, _prefilled(dbs2, smc_config), smc_config)
    assert {t for t, _ in cms} and {t for t, _ in smc}
    order_cms = [source for _tokens, source in cms]
    assert order_cms == sorted(order_cms, key="context model stats".split().index)


def test_config_validation():
    with pytest.raises(ValueError):
        HierarchyConfig(order="cmsc")  # repeated database
    with pytest.raises(ValueError):
        HierarchyConfig(order="x")
    with pytest.raises(ValueError):
        HierarchyConfig(set_size=0)
    for bad in (
        {"order": "xyz"},  # letters outside "cms"
        {"order": "cmsq"},  # one unknown letter among known ones
        {"order": "cc"},  # repeated database
        {"order": ["c", "m"]},  # not a string
    ):
        with pytest.raises(ValueError):
            HierarchyConfig(**bad)
    for bad in ({"set_size": 2.5}, {"set_size": True, "draft_len": True}, {"tail_len": 1.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            HierarchyConfig(**bad)


def test_empty_context_rejected():
    dbs = _empty_dbs()
    with pytest.raises(ValueError):
        hierarchical_draft([], dbs.drafters(HierarchyConfig()), HierarchyConfig())


def test_ordered_but_missing_db_rejected():
    dbs = DatabaseSet(context=ContextDB(), model=None, stats=None)
    with pytest.raises(ValueError, match="model.*ordered but not provided"):
        dbs.drafters(HierarchyConfig())
    assert [letter for letter, _ in dbs.drafters(HierarchyConfig(order="c"))] == ["c"]


def _stub(values, calls, letter):
    def draft(context, want):
        calls.append((letter, want))
        return values[:want]

    return draft


def test_stub_drafters_get_remaining_quota():
    calls = []
    drafters = [
        ("m", _stub([(1,), (2,), (1,)], calls, "m")),
        ("c", _stub([(3,), (4,), (5,), (6,)], calls, "c")),
        ("s", _stub([(7,)], calls, "s")),
    ]
    candidates, probes = hierarchical_draft([9], drafters, HierarchyConfig(set_size=5))
    assert calls == [("m", 5), ("c", 3)]  # the duplicate (1,) cost m its third slot
    assert candidates == [
        ((1,), "model"), ((2,), "model"), ((3,), "context"), ((4,), "context"), ((5,), "context"),
    ]
    assert [probe[:3] for probe in probes] == [("m", 3, 2), ("c", 3, 3)]  # s skipped


def test_candidates_are_the_stored_tuples():
    """Nothing between a database and the draft set copies a draft."""
    vocab = _vocab(14)
    dbs = DatabaseSet(
        context=ContextDB(),
        model=build_model_db(Corpus(docs=[[3, 4, 5, 6, 7]], vocab=vocab), window=4),
        stats=build_stats_db(Corpus(docs=[[3, 9, 10], [3, 11]], vocab=vocab)),
    )
    config = HierarchyConfig()
    drafters = dbs.drafters(config)
    context = [3, 12, 13, 12, 3]  # the first window is full
    candidates, _probes = hierarchical_draft(context, drafters, config)
    stored = {
        "context": list(dbs.context._values[3]),
        "model": dbs.model._values[3],
        "stats": drafters[2][1](context, config.set_size),  # read from its memo
    }
    assert [source for _tokens, source in candidates] == ["context", "model", "stats", "stats"]
    for tokens, source in candidates:
        assert any(tokens is value for value in stored[source])
    first, second = dbs.context.lookup(3, 7), dbs.context.lookup(3, 7)
    assert first == [(12, 13, 12, 3)] and first[0] is second[0] is stored["context"][0]


def test_stats_drafters_share_one_memo(monkeypatch):
    """One ``retrieve`` per distinct (tail, draft_len, set_size), whichever
    drafter, in whichever generation, asks first."""
    vocab = _vocab(12)
    stats = build_stats_db(Corpus(docs=[[3, 4, 5], [3, 4, 6]], vocab=vocab))
    real_retrieve = stats.retrieve
    calls = []

    def counting_retrieve(tail, draft_len, want):
        calls.append((tuple(tail), draft_len, want))
        return real_retrieve(tail, draft_len, want)

    monkeypatch.setattr(stats, "retrieve", counting_retrieve)
    config = HierarchyConfig(tail_len=1, set_size=3)
    first, second = stats.drafter(config), stats.drafter(config)
    assert first([3], 1) == [(4, 5)]
    assert first([3], 3) == [(4, 5), (4, 6)]  # memo hit, read deeper
    assert calls == [((3,), 4, 3)]
    assert second([3], 2) == [(4, 5), (4, 6)]
    assert stats.drafter(config)([9, 3], 3) == [(4, 5), (4, 6)]  # a later generation
    assert calls == [((3,), 4, 3)]  # every drafter read the first one's ranking
    # Each hit is a fresh list: changing one changes no later answer.
    first([3], 3).clear()
    assert second([3], 3) == [(4, 5), (4, 6)]
    # Another draft_len or set_size is another key, retrieved afresh.
    assert stats.drafter(HierarchyConfig(tail_len=1, set_size=3, draft_len=1))([3], 3) == [(4,)]
    assert stats.drafter(HierarchyConfig(tail_len=1, set_size=1))([3], 1) == [(4, 5)]
    assert calls == [((3,), 4, 3), ((3,), 1, 3), ((3,), 4, 1)]
    assert first([3], 3) == [(4, 5), (4, 6)]
    assert len(calls) == 3


@pytest.mark.parametrize("letter", ["c", "m", "s"])
def test_every_drafter_refuses_a_negative_want(letter):
    """A quota below 0 raises, as ``lookup`` and ``retrieve`` do, where a
    slice would hand back all continuations but the last; so do a bool and
    a float. The stats drafter raises on a memo hit as on a miss."""
    vocab = _vocab(10)
    docs = [[3, 4], [3, 5], [3, 6]]
    dbs = DatabaseSet(
        context=ContextDB(window=1),
        model=build_model_db(Corpus(docs=docs, vocab=vocab), window=1),
        stats=build_stats_db(Corpus(docs=docs, vocab=vocab)),
    )
    (_, draft), = dbs.drafters(HierarchyConfig(order=letter, tail_len=1, draft_len=1))
    context = [3, 4, 3, 5, 3, 6, 3]
    with pytest.raises(ValueError, match="want must be an integer >= 0"):
        draft(context, -1)
    assert sorted(draft(context, 3)) == [(4,), (5,), (6,)]  # three continuations
    for want in (-1, -3, True, 2.5):
        with pytest.raises(ValueError, match="want must be an integer >= 0"):
            draft(context, want)
