"""Deterministic k-gram language model used as the verification target.

Next-token scoring is a pure function of (model, context): the longest
order whose context suffix has observed counts wins, add-alpha smoothing
is applied over the full vocabulary at that order, and ties at argmax
break toward the lowest token id. That makes greedy decoding a total
deterministic function, which is what makes speculative losslessness
directly testable.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus

KGRAM_MAGIC = b"HDKG"
KGRAM_VERSION = 1
_TINY = np.finfo(np.float64).tiny  # smallest normal float64


@dataclass
class ModelCallCounter:
    """Counts logical forward passes of the target model.

    One speculative step (whole draft set) and one autoregressive token
    each cost exactly one call. ``cost_per_call_s`` makes each call spin on
    ``time.perf_counter_ns`` until that much time has passed, so wall-clock
    benchmarks reflect a configurable model cost. A ``time.sleep`` would
    oversleep small costs by tens of microseconds; the spin overshoots by
    about one clock read, and a call never costs less than configured.
    """

    calls: int = 0
    cost_per_call_s: float = 0.0

    def bump(self) -> None:
        if self.cost_per_call_s > 0:
            deadline = time.perf_counter_ns() + math.ceil(self.cost_per_call_s * 1e9)
            while time.perf_counter_ns() < deadline:
                pass
        self.calls += 1


class KGramModel:
    """Count tables for orders 1..k with add-alpha smoothing and backoff."""

    def __init__(
        self,
        k: int,
        alpha: float,
        vocab_size: int,
        counts: list[dict[tuple[int, ...], dict[int, int]]],
    ):
        self.k = k
        self.alpha = alpha
        self.vocab_size = vocab_size
        # counts[j] maps a (j-1)-token context to {next_token: count}.
        # Index 0 is unused padding so counts[j] lines up with order j.
        self._counts = counts

    def _backoff_table(self, context: list[int]) -> dict[int, int] | None:
        """Count table at the longest order whose context suffix has mass."""
        top = min(self.k, len(context) + 1)
        for order in range(top, 0, -1):
            ctx = tuple(context[len(context) - (order - 1):]) if order > 1 else ()
            table = self._counts[order].get(ctx)
            if table:
                return table
        return None

    def next_distribution(self, context: list[int]) -> np.ndarray:
        """Smoothed next-token probabilities, length ``vocab_size``."""
        probs = np.full(self.vocab_size, self.alpha, dtype=np.float64)
        table = self._backoff_table(context)
        total = 0
        if table is not None:
            for token, count in table.items():
                probs[token] += count
            total = sum(table.values())
        return probs / (total + self.alpha * self.vocab_size)

    def argmax_token(self, context: list[int]) -> int:
        """Greedy next token: highest count at the backed-off order, lowest id on ties.

        Equals ``argmax(next_distribution(context))`` but skips building the
        vocabulary-sized vector; add-alpha smoothing is uniform so it never
        changes which token wins.
        """
        table = self._backoff_table(context)
        if not table:
            return 0
        best = min((-count, token) for token, count in table.items())
        return best[1]


def fit_kgram(corpus: Corpus, k: int, alpha: float) -> KGramModel:
    """Accumulate order-1..k window counts over every doc (EOS included)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if not corpus.docs:
        raise ValueError("empty corpus")
    counts: list[dict[tuple[int, ...], dict[int, int]]] = [dict() for _ in range(k + 1)]
    for doc in corpus.docs:
        for order in range(1, k + 1):
            tables = counts[order]
            for i in range(len(doc) - order + 1):
                ctx = tuple(doc[i:i + order - 1])
                nxt = doc[i + order - 1]
                table = tables.get(ctx)
                if table is None:
                    table = {}
                    tables[ctx] = table
                table[nxt] = table.get(nxt, 0) + 1
    return KGramModel(k, alpha, corpus.vocab.size, counts)


def apply_temperature(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Rescale a distribution; T == 0 collapses to argmax (lowest id wins ties)."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 1.0:
        return probs
    if temperature == 0.0:
        out = np.zeros_like(probs)
        out[int(np.argmax(probs))] = 1.0
        return out
    powered = np.power(probs, 1.0 / temperature)
    total = powered.sum()
    if not total >= _TINY:
        # At small T every power can underflow; scaled so the largest term
        # is 1, the sum cannot. Only here, as the division costs a pass per
        # sampled token.
        powered = np.power(probs / probs.max(), 1.0 / temperature)
        total = powered.sum()
    return powered / total


def sample_token(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw; deterministic for a given generator state."""
    u = rng.random()
    cdf = np.cumsum(probs)
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, len(probs) - 1)


def save_kgram(model: KGramModel, path: str | Path) -> None:
    """Versioned little-endian binary: magic, k, vocab_size, alpha, count tables."""
    with open(path, "wb") as fh:
        fh.write(KGRAM_MAGIC)
        fh.write(struct.pack("<IIId", KGRAM_VERSION, model.k, model.vocab_size, model.alpha))
        for order in range(1, model.k + 1):
            tables = model._counts[order]
            fh.write(struct.pack("<Q", len(tables)))
            for ctx in sorted(tables):
                table = tables[ctx]
                if order > 1:
                    fh.write(struct.pack(f"<{order - 1}I", *ctx))
                fh.write(struct.pack("<I", len(table)))
                for token in sorted(table):
                    fh.write(struct.pack("<IQ", token, table[token]))


def load_kgram(path: str | Path) -> KGramModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != KGRAM_MAGIC:
        raise ValueError("unsupported k-gram model file: bad magic")
    offset = 4
    try:
        version, k, vocab_size, alpha = struct.unpack_from("<IIId", data, offset)
        offset += struct.calcsize("<IIId")
        if version != KGRAM_VERSION:
            raise ValueError(f"unsupported k-gram model file: version {version}")
        counts: list[dict[tuple[int, ...], dict[int, int]]] = [dict() for _ in range(k + 1)]
        for order in range(1, k + 1):
            (n_ctx,) = struct.unpack_from("<Q", data, offset)
            offset += 8
            for _ in range(n_ctx):
                if order > 1:
                    ctx = struct.unpack_from(f"<{order - 1}I", data, offset)
                    offset += 4 * (order - 1)
                else:
                    ctx = ()
                (n_next,) = struct.unpack_from("<I", data, offset)
                offset += 4
                table: dict[int, int] = {}
                for _ in range(n_next):
                    token, count = struct.unpack_from("<IQ", data, offset)
                    offset += 12
                    table[token] = count
                counts[order][tuple(ctx)] = table
    except struct.error as exc:
        raise ValueError(f"corrupt k-gram model file: {exc}") from exc
    if offset != len(data):
        raise ValueError("corrupt k-gram model file: trailing bytes")
    return KGramModel(k, alpha, vocab_size, counts)
