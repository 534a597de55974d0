"""Shared fixtures: synthetic corpora and the repeated-passage setup."""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from hierdraft import (
    ContextDB,
    Corpus,
    DatabaseSet,
    build_model_db,
    build_stats_db,
    corpus_from_texts,
    fit_kgram,
    tokenize,
)


def make_text(
    rng: random.Random,
    n_words: int,
    vocab_words: int = 200,
    phrase_bank: int = 40,
    phrase_prob: float = 0.35,
) -> str:
    """Random text with recurring multi-word phrases so n-grams repeat."""
    words = [f"w{i}" for i in range(vocab_words)]
    phrases = [
        " ".join(rng.choices(words, k=rng.randint(3, 6))) for _ in range(phrase_bank)
    ]
    out: list[str] = []
    while len(out) < n_words:
        if rng.random() < phrase_prob:
            out.extend(rng.choice(phrases).split())
        else:
            out.append(rng.choice(words))
    return " ".join(out[:n_words])


def container(magic: bytes, version: int, header: bytes, arrays: list[bytes]) -> bytes:
    """Container bytes written with ``struct`` and ``zlib`` alone, not with
    the package's writer: the magic, the version and the CRC32 of every
    byte after it, then ``header``, the array count, each array's byte
    length (``u64``) and the arrays, all little-endian."""
    lengths = struct.pack(f"<I{len(arrays)}Q", len(arrays), *map(len, arrays))
    body = header + lengths + b"".join(arrays)
    return magic + struct.pack("<II", version, zlib.crc32(body)) + body


def restamp(data: bytes | bytearray) -> bytes:
    """``data`` with its CRC recomputed, so a damaged container reaches the
    checks past the CRC."""
    return bytes(data[:8]) + struct.pack("<I", zlib.crc32(data[12:])) + bytes(data[12:])


def make_corpus(seed: int, n_docs: int, doc_words: int, **kwargs) -> Corpus:
    rng = random.Random(seed)
    texts = [make_text(rng, doc_words, **kwargs) for _ in range(n_docs)]
    return corpus_from_texts(texts)


@pytest.fixture(scope="session")
def big_corpus() -> Corpus:
    """>= 50k tokens across many docs, with phrase-level repetition."""
    corpus = make_corpus(seed=11, n_docs=120, doc_words=450)
    assert corpus.n_tokens >= 50_000
    return corpus


@pytest.fixture(scope="session")
def big_model(big_corpus):
    return fit_kgram(big_corpus, k=3, alpha=0.01)


@pytest.fixture(scope="session")
def big_model_db(big_corpus):
    return build_model_db(big_corpus, top_k=100_000, window=4, per_key=7)


@pytest.fixture(scope="session")
def big_stats_db(big_corpus):
    return build_stats_db(big_corpus)


def fresh_dbs(model_db=None, stats_db=None, *, window=4, per_key=7, capacity=4096):
    return DatabaseSet(
        context=ContextDB(window=window, per_key=per_key, capacity=capacity),
        model=model_db,
        stats=stats_db,
    )


def sample_prompts(corpus: Corpus, n: int, seed: int, min_len=4, max_len=12) -> list[list[int]]:
    """Prompts cut from corpus docs (EOS stripped) so databases have coverage."""
    rng = random.Random(seed)
    prompts = []
    for _ in range(n):
        doc = rng.choice(corpus.docs)
        length = rng.randint(min_len, max_len)
        start = rng.randint(0, max(0, len(doc) - 1 - length))
        prompt = [t for t in doc[start:start + length] if t != 1]
        if not prompt:
            prompt = [doc[0]]
        prompts.append(prompt)
    return prompts


# Repeated-passage fixture: a cyclic motif makes the greedy continuation an
# endless replay of the motif, and the doubled prompt preloads the context
# database with every continuation the decode will need.
MOTIF = "alpha beta gamma delta epsilon zeta eta"
PASSAGE = " ".join([MOTIF] * 8)


@pytest.fixture(scope="session")
def passage_corpus() -> Corpus:
    return corpus_from_texts([PASSAGE])


@pytest.fixture(scope="session")
def passage_model(passage_corpus):
    return fit_kgram(passage_corpus, k=3, alpha=0.01)


@pytest.fixture(scope="session")
def passage_prompt(passage_corpus) -> list[int]:
    return tokenize(PASSAGE + " " + PASSAGE, passage_corpus.vocab)
