"""Deterministic k-gram language model used as the verification target.

Next-token scoring is a pure function of (model, context): the longest
order whose context suffix has observed counts wins, add-alpha smoothing
is applied over the full vocabulary at that order, and ties at argmax
break toward the lowest token id. That makes greedy decoding a total
deterministic function, which is what makes speculative losslessness
directly testable.

The model is immutable, so its per-token work is precompiled: count
tables are kept in ascending token-id order, and the argmax of every table
is found at construction (a one-entry table's is its key). A greedy draw is
then a backoff walk of dict reads. A sampling draw
(``KGramModel.sample``) reads only the backed-off count table: every
unseen token has the same closed-form weight, so the inverse CDF runs over
the table in id order and steps over each run of unseen ids in one
division. A table of two or more entries is compiled into two flat arrays
on its first draw at a temperature, and every later draw from it is one
``bisect``; a one-entry table is drawn from inline and never stored. The
model keeps the compiled tables of the one temperature it last sampled at
and drops them when it samples at another; greedy decoding compiles
nothing. On the hdbench world, sampling 60 generations at T = 0.8
compiles 5,046 tables, about 5.5 MB. A compile costs a few walks of its
table, so the store pays only where a table is drawn from again at the
same temperature: a model that switches temperature on every generation
compiles on nearly every multi-entry draw, and there sampling is slower
than the walk it replaced (``BENCH_14.json``, ``low_reuse``). A switch
replaces the sampling state in one assignment, so a model stays safe to
share between sessions that sample at different temperatures.
``next_distribution`` and ``apply_temperature`` build the full
vocabulary-sized law; with an inverse-CDF draw over it, they are the
reference the sampler is tested against.

HDKG loads fail closed: anything but a well-formed model raises
``ValueError`` (see ``load_kgram``).
"""

from __future__ import annotations

import math
import numbers
import struct
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from operator import lt
from pathlib import Path

import numpy as np

from .corpus import Corpus

KGRAM_MAGIC = b"HDKG"
KGRAM_VERSION = 1
_HEADER = struct.Struct("<IIId")
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
        # counts[j] maps a (j-1)-token context to {next_token: count}, with
        # ids below vocab_size. Index 0 is unused padding so counts[j] lines
        # up with order j. A table out of ascending id order is replaced by
        # its sorted copy.
        self._counts = counts
        # Context (of any order; lengths tell them apart) -> argmax of its
        # table, for tables of two or more entries; a one-entry table's
        # argmax is its key. max() keeps the first of equal counts: in id
        # order, the lowest id.
        self._argmax: dict[tuple[int, ...], int] = {}
        for tables in counts[1:]:
            for ctx, table in tables.items():
                if len(table) > 1:
                    ids = list(table)
                    if ids != sorted(ids):
                        table = tables[ctx] = dict(sorted(table.items()))
                    self._argmax[ctx] = max(table, key=table.__getitem__)
        # Sampling state: the last temperature drawn at (at first an object
        # no caller holds), 1 / it, and the tables compiled at it, keyed by
        # the id of the count table: an id is smaller to keep than a
        # context, and the record holds the table, so a reused id is caught.
        # A switch replaces the whole tuple in one assignment and a draw
        # reads it once, so concurrent draws at other temperatures can
        # neither change a draw's 1 / T nor store into its tables.
        self._sampling: tuple[object, float, dict[int, tuple[dict[int, int], array, array]]] = (
            object(), 0.0, {}
        )

    def _backoff(self, context: list[int]) -> tuple[dict[int, int], int] | None:
        """The non-empty table at the longest order whose context suffix has
        one, and its argmax."""
        counts = self._counts
        n = len(context)
        # A while loop: range() and min() cost more than the reads here.
        order = self.k if n >= self.k - 1 else n + 1
        while order:
            ctx = tuple(context[n - order + 1:])
            table = counts[order].get(ctx)
            if table:
                return table, self._argmax[ctx] if len(table) > 1 else next(iter(table))
            order -= 1
        return None

    def next_distribution(self, context: list[int]) -> np.ndarray:
        """Smoothed next-token probabilities, length ``vocab_size``."""
        probs = np.full(self.vocab_size, self.alpha, dtype=np.float64)
        found = self._backoff(context)
        total = 0
        if found is not None:
            table = found[0]
            for token, count in table.items():
                probs[token] += count
            total = sum(table.values())
        return probs / (total + self.alpha * self.vocab_size)

    def argmax_token(self, context: list[int]) -> int:
        """Greedy next token: highest count at the backed-off order, lowest id on ties.

        Equals ``argmax(next_distribution(context))``: add-alpha smoothing
        is uniform, so it never changes which token wins. Each table's
        argmax was found at construction, so this is a walk of dict reads.
        """
        found = self._backoff(context)
        return found[1] if found is not None else 0

    def sample(self, context: list[int], temperature: float, rng: np.random.Generator) -> int:
        """One draw at temperature T > 0 after ``context``.

        The token is the inverse CDF, in token-id order, of
        ``apply_temperature(next_distribution(context), T)`` at one
        ``rng.random()`` (the first token whose cumulative probability
        exceeds it), without the vocabulary-sized vectors. Weights are
        relative to the table's largest count ``c_max``, read at its
        precompiled argmax:
        ``((c + alpha) / (c_max + alpha)) ** (1/T)`` for a seen token and
        ``(alpha / (c_max + alpha)) ** (1/T)`` for each unseen one. Every
        weight is in [0, 1] and the argmax weighs 1, so no power overflows
        and the total is at least 1 at every T > 0; an unseen weight that
        underflows to 0 is never divided by.

        A table of two or more entries is compiled on its first draw at T
        (``_compile``) and kept on the model, so a later draw is one
        ``bisect``. The model keeps the tables of the one temperature it
        last sampled at: a draw at another drops them. A one-entry table is
        never stored; its draw is one power. A temperature that is not a
        finite, non-bool number > 0 raises ``ValueError``; it is checked
        when it differs from the last one.
        """
        state = self._sampling
        if temperature is not state[0]:
            state = self._switch_temperature(temperature, state)
        _, inv_t, compiled_tables = state
        u = rng.random()
        vocab_size = self.vocab_size
        found = self._backoff(context)
        if found is None:
            return min(int(u * vocab_size), vocab_size - 1)
        table, best = found
        if len(table) == 1:
            # The one seen token weighs exactly 1 and has `best` unseen ids
            # below it: a compiled draw's arithmetic, done inline.
            unseen = (self.alpha / (table[best] + self.alpha)) ** inv_t
            x = u * (1.0 + (vocab_size - 1) * unseen)
            low = best * unseen
            if x < low:
                return _unseen_draw(x, unseen, 0, -1, best)
            if x < low + 1.0:
                return best
            return _unseen_draw(x - 1.0, unseen, 1, best, vocab_size)
        compiled = compiled_tables.get(id(table))
        if compiled is None or compiled[0] is not table:
            compiled = compiled_tables[id(table)] = self._compile(table, best, inv_t)
        _, floats, tokens = compiled
        n = len(tokens)
        unseen = floats[0]
        x = u * floats[1]
        j = bisect_right(floats, x, 2, n + 2) - 2
        seen = floats[n + 2 + j]
        if j < n:
            token = tokens[j]
            if not x < seen + (token - j) * unseen:
                return token
        else:
            token = vocab_size
        return _unseen_draw(x - seen, unseen, j, tokens[j - 1] if j else -1, token)

    def _switch_temperature(self, temperature: float, state: tuple) -> tuple:
        """Check a temperature other than the last one and make it the
        sampling state; a new value starts with no compiled tables."""
        _check_temperature(temperature, positive=True)
        if temperature == state[0]:
            state = (temperature, state[1], state[2])
        else:
            state = (temperature, 1.0 / temperature, {})
        self._sampling = state
        return state

    def _compile(
        self, table: dict[int, int], best: int, inv_t: float
    ) -> tuple[dict[int, int], array, array]:
        """A table's inverse CDF at temperature ``1 / inv_t``: the table, the
        floats ``[unseen, total, bounds[0..n-1], seen[0..n]]`` and the ids.

        A walk over the table in id order would return at entry ``j`` when
        ``x < low_j`` (an unseen id below ``tokens[j]``) or
        ``x < low_j + w_j`` (``tokens[j]`` itself), where
        ``low_j = seen[j] + (tokens[j] - j) * unseen`` and ``seen[j]`` sums
        the weights before ``j``. Since ``low_j <= low_j + w_j``, it returns
        at the first ``j`` with ``x < low_j + w_j``: the first of ``bounds``
        above ``x``, as ``bounds`` holds the running maximum of those sums.
        Each float is computed with the walk's operations in the walk's
        order, so a draw is bit-identical to it. ``low_j`` is not stored;
        a draw recomputes it at the ``j`` it finds.
        """
        alpha = self.alpha
        top = table[best] + alpha
        unseen = (alpha / top) ** inv_t
        weights = array("d", (((c + alpha) / top) ** inv_t for c in table.values()))
        n = len(weights)
        floats = array("d", [0.0]) * (2 * n + 3)  # sized once: no spare capacity
        floats[0] = unseen
        floats[1] = sum(weights) + (self.vocab_size - n) * unseen
        seen = bound = 0.0
        for j, (token, weight) in enumerate(zip(table, weights)):
            floats[n + 2 + j] = seen
            bound = max(bound, seen + (token - j) * unseen + weight)
            floats[2 + j] = bound
            seen += weight
        floats[2 * n + 2] = seen
        return table, floats, array("I", list(table))


def _unseen_draw(offset: float, unseen: float, j: int, prev: int, nxt: int) -> int:
    """The unseen id ``offset`` weight into the run of unseen ids, above
    ``j`` seen ones, that lies between seen ids ``prev`` and ``nxt``.

    Clamped into (prev, nxt), as rounding at a boundary can step a rank
    out of it; with no unseen id there (or no unseen weight, which only
    rounding past the last boundary reaches) it is ``prev``.
    """
    if unseen > 0 and prev + 1 < nxt:
        return int(min(max(j + offset / unseen, prev + 1), nxt - 1))
    return prev


def fit_kgram(corpus: Corpus, k: int, alpha: float) -> KGramModel:
    """Accumulate order-1..k window counts over every doc (EOS included)."""
    # load_kgram's rules; bool is an int subclass, and True is neither k nor alpha.
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an integer >= 1, not {k!r}")
    real = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
    if not (real and math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite number > 0, not {alpha!r}")
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
    """Rescale a distribution; T == 0 collapses to argmax (lowest id wins ties).

    A temperature that is not a finite, non-bool number >= 0 raises
    ``ValueError``.
    """
    _check_temperature(temperature, positive=False)
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


def _check_temperature(temperature: float, positive: bool) -> None:
    """Raise ``ValueError`` unless ``temperature`` is a finite real number,
    not a bool, and > 0 (``positive``) or >= 0."""
    number = isinstance(temperature, numbers.Real) and not isinstance(temperature, bool)
    if not (number and math.isfinite(temperature)) or temperature < 0 or (
        positive and temperature == 0
    ):
        least = "> 0" if positive else ">= 0"
        raise ValueError(f"temperature must be a finite number {least}, not {temperature!r}")


def save_kgram(model: KGramModel, path: str | Path) -> None:
    """Versioned little-endian binary: magic, k, vocab_size, alpha, count tables."""
    with open(path, "wb") as fh:
        fh.write(KGRAM_MAGIC)
        fh.write(_HEADER.pack(KGRAM_VERSION, model.k, model.vocab_size, model.alpha))
        for order in range(1, model.k + 1):
            tables = model._counts[order]
            fh.write(struct.pack("<Q", len(tables)))
            for ctx in sorted(tables):
                table = tables[ctx]
                fh.write(struct.pack(f"<{order}I", *ctx, len(table)))
                for token in sorted(table):
                    fh.write(struct.pack("<IQ", token, table[token]))


def load_kgram(path: str | Path) -> KGramModel:
    """Read an HDKG file; anything but a well-formed model raises ``ValueError``.

    Besides truncation and trailing bytes, the load rejects ``k < 1``,
    ``vocab_size < 1``, a non-finite or non-positive ``alpha``, an order-1
    section with more than one context, contexts or next tokens that are
    not strictly ascending, a token or context id at or above
    ``vocab_size``, an empty table and a count below 1.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != KGRAM_MAGIC:
        raise ValueError("unsupported k-gram model file: bad magic")
    try:
        version, k, vocab_size, alpha = _HEADER.unpack_from(data, 4)
        if version != KGRAM_VERSION:
            raise ValueError(f"unsupported k-gram model file: version {version}")
        counts = _read_tables(data, 4 + _HEADER.size, k, vocab_size, alpha)
    except struct.error as exc:
        raise ValueError(f"corrupt k-gram model file: {exc}") from exc
    return KGramModel(k, alpha, vocab_size, counts)


def _read_tables(
    data: bytes, offset: int, k: int, vocab_size: int, alpha: float
) -> list[dict[tuple[int, ...], dict[int, int]]]:
    def corrupt(why: str) -> ValueError:
        return ValueError(f"corrupt k-gram model file: {why}")

    # Each order takes at least its 8-byte context count, which bounds k
    # before k + 1 dicts are allocated.
    if not 1 <= k <= (len(data) - offset) // 8:
        raise corrupt(f"k = {k}")
    if vocab_size < 1:
        raise corrupt(f"vocab_size = {vocab_size}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise corrupt(f"alpha = {alpha}")
    entry_structs: dict[int, struct.Struct] = {}  # n -> n (token, count) pairs
    counts: list[dict[tuple[int, ...], dict[int, int]]] = [dict() for _ in range(k + 1)]
    for order in range(1, k + 1):
        (n_ctx,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        if order == 1 and n_ctx > 1:
            raise corrupt(f"{n_ctx} order-1 contexts")
        # Context ids, table length and the first entry: all of a one-entry
        # table, the most common, in one call.
        head = struct.Struct(f"<{order}IIQ")
        unpack, head_size, n_at = head.unpack_from, head.size, order - 1
        rest_at = head_size - 12  # where a longer table's entries start
        tables = counts[order]
        for _ in range(n_ctx):
            fields = unpack(data, offset)
            ctx = fields[:n_at]
            n_next = fields[n_at]
            if n_next == 1:
                offset += head_size
                token = fields[-2]
                count = fields[-1]
                table = {token: count}
            else:
                if not 1 <= n_next <= (len(data) - offset - rest_at) // 12:
                    raise corrupt(f"table of {n_next} entries for context {ctx}")
                entries = entry_structs.get(n_next)
                if entries is None:
                    entries = entry_structs[n_next] = struct.Struct("<" + "IQ" * n_next)
                values = entries.unpack_from(data, offset + rest_at)
                offset += rest_at + entries.size
                tokens, table_counts = values[0::2], values[1::2]
                if not all(map(lt, tokens, tokens[1:])):
                    raise corrupt(f"next tokens not strictly ascending for context {ctx}")
                token, count = tokens[-1], min(table_counts)
                table = dict(zip(tokens, table_counts))
            if token >= vocab_size:
                raise corrupt(f"token {token} >= vocab_size {vocab_size}")
            if count < 1:
                raise corrupt(f"count below 1 for context {ctx}")
            tables[ctx] = table
        # Contexts ascend strictly (so none repeats) and their ids, like the
        # tokens above, stay below vocab_size.
        contexts = list(tables)
        if len(contexts) != n_ctx or not all(map(lt, contexts, contexts[1:])):
            raise corrupt(f"order-{order} contexts not strictly ascending")
        if order > 1 and contexts and max(map(max, contexts)) >= vocab_size:
            raise corrupt(f"an order-{order} context holds an id >= vocab_size {vocab_size}")
    if offset != len(data):
        raise corrupt("trailing bytes")
    return counts
