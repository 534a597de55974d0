"""Seeded synthetic world and the three decode workloads built over it.

The world (training and stats corpora, target model, model DB) is built
from the fixed ``WORLD_SEED``; the run's ``--seed`` draws each workload's
prompts and decode seeds. With the world seeded per run as well, the model
DB mined from a few hundred generations changed the stats-DB probes per
token by 13% (relative standard deviation over six seeds, against 3% with
a fixed world), which no bound a regression check can use would absorb.
The program under test only receives token lists and the artifacts its
own public builders make from them.

Text comes from the phrase-bank generator of the package's tests: each
position is either a random word or, with probability ``phrase_prob``, a
whole phrase from the document's own bank, so n-grams repeat within a
document. Documents are five times the tests' length (and banks five times
their size, keeping the repetition rate) so the target rarely predicts EOS
and per-generation latencies vary less from seed to seed.
"""

from __future__ import annotations

import random
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from hierdraft import (
    EOS,
    Corpus,
    DecodeConfig,
    KGramModel,
    ModelDB,
    StatsDB,
    autoregressive_decode,
    build_model_db,
    build_stats_db,
    build_vocab,
    corpus_from_texts,
    fit_kgram,
    load_kgram,
    load_model_db,
    load_stats_db,
    save_kgram,
    save_model_db,
    save_stats_db,
)

# Shape of the fresh context DB every generation gets; the hierarchy itself
# is HierarchyConfig() defaults (cms, set_size 7, tail_len 2, draft_len 4).
CONTEXT_DB = {"window": 4, "per_key": 7, "capacity": 4096}
WORLD_SEED = 0
# Set-up checkpoints: every this many generated documents or mined
# generations, about a fifth of a second of work at full size.
CHECKPOINT_DOCS = 64
CHECKPOINT_GENERATIONS = 24


@dataclass(frozen=True)
class Workload:
    name: str
    temperature: float
    prompts: int
    prompt_len: tuple[int, int]
    max_tokens: int


def _workloads(loop: Workload, short: Workload, sample: Workload) -> dict[str, Workload]:
    return {w.name: w for w in (loop, short, sample)}


@dataclass
class Sizes:
    """World and workload sizes; ``FULL`` is the benchmark, ``TINY`` a smoke run."""

    vocab_words: int
    phrase_bank: int
    doc_words: int
    train_tokens: int
    stats_tokens: int
    mine_prompts: int  # per temperature, for the model DB
    mine_tokens: int
    workloads: dict[str, Workload]
    phrase_prob: float = 0.35


# Prompt counts: short-greedy has many because break-even is proportional
# to 1/(tau - 1) and tau is near 1.25, so it needs a tight tau; loop-greedy
# because its per-prompt latencies spread widely (some prompts probe the
# stats DB on most steps, others on none), which moves their median; and
# sample-long has few because its tau and output lengths barely vary, and
# fewer prompts leave time for more timed passes.
FULL = Sizes(
    vocab_words=2000,
    phrase_bank=200,
    doc_words=2250,
    train_tokens=270_000,
    stats_tokens=1_000_000,
    mine_prompts=120,
    mine_tokens=256,
    workloads=_workloads(
        Workload("loop-greedy", 0.0, 160, (64, 256), 512),
        Workload("short-greedy", 0.0, 800, (4, 12), 32),
        Workload("sample-long", 0.8, 24, (64, 256), 1024),
    ),
)
TINY = Sizes(
    vocab_words=200,
    phrase_bank=40,
    doc_words=600,
    train_tokens=6_000,
    stats_tokens=12_000,
    mine_prompts=6,
    mine_tokens=64,
    workloads=_workloads(
        Workload("loop-greedy", 0.0, 20, (16, 32), 32),
        Workload("short-greedy", 0.0, 20, (4, 12), 8),
        Workload("sample-long", 0.8, 20, (16, 32), 32),
    ),
)


def make_text(
    rng: random.Random,
    n_words: int,
    words: list[str],
    phrase_bank: int,
    phrase_prob: float,
) -> str:
    """Random text with recurring multi-word phrases so n-grams repeat.

    Each document draws its own phrase bank, so repetition is local to a
    document and generations from different prompts stay independent.
    """
    phrases = [rng.choices(words, k=rng.randint(3, 6)) for _ in range(phrase_bank)]
    out: list[str] = []
    while len(out) < n_words:
        if rng.random() < phrase_prob:
            out.extend(rng.choice(phrases))
        else:
            out.append(rng.choice(words))
    return " ".join(out[:n_words])


def sample_prompts(
    corpus: Corpus, n: int, rng: random.Random, min_len: int, max_len: int
) -> list[list[int]]:
    """Prompts cut from corpus docs (EOS stripped) so databases have coverage."""
    prompts = []
    for _ in range(n):
        doc = rng.choice(corpus.docs)
        length = rng.randint(min_len, max_len)
        start = rng.randint(0, max(0, len(doc) - 1 - length))
        prompt = [t for t in doc[start:start + length] if t != EOS]
        prompts.append(prompt or [doc[0]])
    return prompts


@dataclass
class World:
    model: KGramModel
    model_db: ModelDB
    stats_db: StatsDB
    train: Corpus
    # Builder phase -> (seconds, base count: tokens processed, or 1 for a load).
    phases: dict[str, tuple[float, int]]
    setup_s: float


def build_world(
    seed: int, sizes: Sizes, workdir: Path, probe: Callable[[], None] | None = None
) -> World:
    """Generate the texts, fit and mine with the package's builders, and
    round-trip every artifact through its on-disk format, as ``hd run``
    loads them on every call.

    ``probe`` runs at the start, at the end, and between phases and chunks
    of them, so that no stretch the benchmark can split lasts more than a
    few tenths of a second; the time it takes is left out of ``setup_s``.
    """
    start = time.perf_counter()
    phases: dict[str, tuple[float, int]] = {}
    probe_s = 0.0

    def checkpoint() -> None:
        nonlocal probe_s
        if probe is not None:
            t0 = time.perf_counter()
            probe()
            probe_s += time.perf_counter() - t0

    def timed(name: str, base: int, fn, *args, **kwargs):
        checkpoint()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        phases[name] = (time.perf_counter() - t0, base)
        checkpoint()
        return out

    rng = random.Random(seed)
    words = [f"w{i}" for i in range(sizes.vocab_words)]

    def texts(n_tokens: int) -> list[str]:
        n_docs = max(1, round(n_tokens / sizes.doc_words))
        out = []
        for i in range(n_docs):
            if i % CHECKPOINT_DOCS == 0:
                checkpoint()
            out.append(make_text(rng, sizes.doc_words, words, sizes.phrase_bank, sizes.phrase_prob))
        return out

    train_texts = texts(sizes.train_tokens)
    stats_texts = texts(sizes.stats_tokens)
    vocab = build_vocab(train_texts + stats_texts)
    n_words = sum(len(t.split()) for t in train_texts)
    train = timed("tokenize", n_words, corpus_from_texts, train_texts, vocab=vocab)
    stats = corpus_from_texts(stats_texts, vocab=vocab)

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        fitted = timed("fit_kgram", train.n_tokens, fit_kgram, train, k=3, alpha=0.01)
        save_kgram(fitted, tmp / "model.hdkg")
        del fitted
        model = timed("load_kgram", 1, load_kgram, tmp / "model.hdkg")

        gens = _mine_generations(model, train, rng, sizes, checkpoint)
        mined = timed("build_model_db", gens.n_tokens, build_model_db, gens)
        save_model_db(mined, tmp / "dm.jsonl")
        model_db = timed("load_model_db", 1, load_model_db, tmp / "dm.jsonl")

        built = timed("build_stats_db", stats.n_tokens, build_stats_db, stats)
        save_stats_db(built, tmp / "ds.hdsa")
        del built
        stats_db = timed("load_stats_db", 1, load_stats_db, tmp / "ds.hdsa")
    checkpoint()
    return World(model, model_db, stats_db, train, phases, time.perf_counter() - start - probe_s)


def _mine_generations(
    model: KGramModel, train: Corpus, rng, sizes: Sizes, checkpoint: Callable[[], None]
) -> Corpus:
    """The target's own greedy and T = 0.8 generations, as the paper mines m."""
    prompts = sample_prompts(train, 2 * sizes.mine_prompts, rng, 64, 256)
    docs = []
    for i, prompt in enumerate(prompts):
        if i % CHECKPOINT_GENERATIONS == 0:
            checkpoint()
        config = DecodeConfig(
            max_tokens=sizes.mine_tokens, temperature=0.8 if i % 2 else 0.0, seed=i
        )
        docs.append(autoregressive_decode(model, prompt, config)[0])
    return Corpus(docs=docs, vocab=train.vocab)


@dataclass(frozen=True)
class Request:
    prompt: list[int]
    seed: int  # the decode seed, used when sampling


def workload_requests(world: World, workload: Workload, seed: int) -> list[Request]:
    """The workload's prompts and decode seeds, from a random stream of its own."""
    rng = random.Random(f"{seed}/{workload.name}")
    prompts = sample_prompts(world.train, workload.prompts, rng, *workload.prompt_len)
    return [Request(prompt, rng.randrange(2**32)) for prompt in prompts]
