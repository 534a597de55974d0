"""Deterministic k-gram language model used as the verification target.

Next-token scoring is a pure function of (model, context): the longest
order whose context suffix has observed counts wins, add-alpha smoothing
is applied over the full vocabulary at that order, and ties at argmax
break toward the lowest token id. That makes greedy decoding a total
deterministic function, which is what makes speculative losslessness
directly testable.

The model is immutable, so its per-token work is precompiled. Per order
it keeps two dicts, keyed by the context packed as one int in base
``vocab_size``, oldest id first, so keys sort as context tuples do: one
maps a context to the argmax of its table (highest count, lowest id on
ties), the other to the table, a ``{token: count}`` dict in ascending id
order, or only the count when the table has one entry (its token is the
argmax). A greedy draw reads only the argmax dicts, one ``get`` per
backed-off order. On the hdbench world, where 170,229 of the 186,799
order-3 contexts have a one-entry table, the built model holds 38.6 MB
under ``tracemalloc``, 205 bytes per context.

``fit_kgram`` counts packed windows with ``np.unique``, and ``load_kgram``
reads each order's four columns as an HDKG v2 file stores them (see
``_container``). Both hand the columns to ``KGramModel``, which checks
them (``_checked``) and refuses a ``vocab_size ** k`` past ``2 ** 63``,
so every key fits a ``uint64``. The model keeps the checked columns and
builds the dicts from them once, on its first read, so fitting then
saving builds no dict: ``save_kgram`` writes the columns as they are.
``load_kgram`` copies each order's columns out of the file's bytes and
drops the bytes before it builds.

A sampling draw (``KGramModel.sample``) reads only the backed-off count
table: every unseen token has the same closed-form weight, so the inverse
CDF runs over the table in id order and steps over each run of unseen ids
in one division. A table of two or more entries is compiled into two flat
arrays on its first draw at a temperature, and every later draw from it is
one table read and one ``bisect``; a one-entry table is drawn from inline
and never stored. The model keeps the compiled tables of the one
temperature it last sampled at and drops them when it samples at another;
greedy decoding compiles nothing. On the hdbench world, its 120 mined
generations at T = 0.8 compile 5,046 tables, about 5.5 MB. A compile costs
a few walks of its table, so the store pays only where a table is drawn
from again at the same temperature: a model that switches temperature on
every generation compiles on nearly every multi-entry draw, and there
sampling is slower than the walk it replaced (``BENCH_14.json``,
``low_reuse``). A switch replaces the sampling state in one assignment, so
a model stays safe to share between sessions that sample at different
temperatures. ``next_distribution`` builds the full vocabulary-sized law;
the tests rescale it by temperature and draw from it by inverse CDF, and
that is the reference the sampler is tested against.

``KGramModel.__init__`` holds the rules on ``k``, ``alpha`` and
``vocab_size``, so ``fit_kgram`` and ``load_kgram`` refuse the same
models. HDKG loads fail closed: anything but a well-formed model raises
``ValueError`` (see ``load_kgram``).
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import _container
from ._checks import U32_MAX, check_ids, check_int, check_number
from .corpus import Corpus

KGRAM_MAGIC = b"HDKG"
KGRAM_VERSION = 2
_HEADER = "<IId"  # k, vocab_size, alpha
# Each order's contexts (flattened), sizes, tokens and counts.
_COLUMN_DTYPES = ("<u4", "<u4", "<u4", "<u8")


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
    """Count tables for orders 1..k with add-alpha smoothing and backoff.

    ``tables`` yields exactly ``k`` orders, order j's count tables j-th,
    as four columns, with contexts in strictly ascending order:
    ``contexts``, ``j - 1`` ids (oldest first) per context, flat or in
    rows; ``sizes``, each table's entry count; and ``tokens`` and
    ``counts``, every table's entries one table after another, tokens
    strictly ascending within a table. ``fit_kgram`` and ``load_kgram``
    build every model through here, one order at a time. ``k`` and
    ``vocab_size`` must be integers >= 1, ``vocab_size`` at most
    ``2 ** 32 - 1`` (its header field is a ``u32``), ``alpha`` a finite
    number > 0, and ``vocab_size ** k`` at most ``2 ** 63``; they are
    checked before ``tables`` is read. Anything but that and well-formed
    tables raises ``ValueError``.

    The model keeps the checked columns and builds its lookup dicts from
    them once, in ``_build``, which its first read calls (``load_kgram``
    calls it at once), dropping each order's columns as that order's dicts
    are made. Sessions that first read one model together wait for one
    build under the model's lock, and none sees a half-built dict.
    """

    def __init__(self, k: int, alpha: float, vocab_size: int, tables: Iterable[tuple]):
        check_int("k", k)
        check_int("vocab_size", vocab_size, 1, U32_MAX)
        check_number("alpha", alpha, positive=True)
        # Every window, and so every packed key, then fits an int64; past
        # 64 orders the rule fails for any vocabulary of two or more ids.
        if vocab_size ** min(k, 64) > 2**63:
            raise ValueError(f"windows of k = {k} ids below {vocab_size} do not fit in an int64")
        self.k = k
        self.alpha = alpha
        self.vocab_size = vocab_size
        checked = []
        for order, columns in enumerate(tables, 1):
            checked.append(_checked(order, vocab_size, *columns))
            del columns  # released before the next order is counted or read
        if len(checked) != k:
            raise ValueError(f"k = {k} for {len(checked)} orders of tables")
        # Per order (index 0 is unused padding), keyed by the context packed
        # as one int in base vocab_size: the argmax of its table, and the
        # table itself, a one-entry table being just its count. The model
        # keeps its checked columns in `_kept` until `_build` makes the two
        # lists from them; until then both are `_Unbuilt` stand-ins, whose
        # first index calls `_build`.
        self._kept: list[tuple] | None = checked
        self._lock = threading.Lock()
        build = weakref.WeakMethod(self._build)
        self._argmax: list[dict[int, int]] | _Unbuilt = _Unbuilt(build, 0)
        self._tables: list[dict[int, int | dict[int, int]]] | _Unbuilt = _Unbuilt(build, 1)
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

    def _columns(self, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Order ``order``'s tables as the four columns ``__init__`` takes,
        contexts one row per table: the checked columns themselves while
        the model is unbuilt, else ``uint32`` contexts, sizes and tokens,
        and ``uint64`` counts, read back from the dicts. ``save_kgram``
        writes these."""
        with self._lock:
            if self._kept is not None:
                return self._kept[order - 1]
        tables = self._tables[order]
        n = len(tables)
        # Every key fits a uint64 (the size rule in __init__).
        keys = np.fromiter(tables, np.uint64, n)
        contexts = np.empty((n, order - 1), np.uint32)
        for i in range(order - 2, -1, -1):
            keys, contexts[:, i] = np.divmod(keys, np.uint64(self.vocab_size))
        values = tables.values()
        sizes = np.fromiter((1 if type(t) is int else len(t) for t in values), np.uint32, n)
        multi = sizes > 1
        in_multi = np.repeat(multi, sizes)
        tokens = np.empty(len(in_multi), np.uint32)
        counts = np.empty(len(in_multi), np.uint64)
        # A one-entry table is its count, and its token is its argmax.
        # Counts go through array("Q"): np.fromiter takes no int past 2 ** 63.
        tokens[~in_multi] = np.fromiter(self._argmax[order].values(), np.uint32, n)[~multi]
        counts[~in_multi] = array("Q", (t for t in values if type(t) is int))
        dicts = [t for t in values if type(t) is not int]
        tokens[in_multi] = np.fromiter(chain.from_iterable(dicts), np.uint32)
        counts[in_multi] = array("Q", chain.from_iterable(map(dict.values, dicts)))
        return contexts, sizes, tokens, counts

    def _build(self) -> tuple[list, list]:
        """The argmax and table lists, built from the kept columns on the
        first call and set on the model only once every order is in them."""
        with self._lock:
            kept = self._kept
            if kept is not None:
                argmax, tables = [{}], [{}]
                for i, columns in enumerate(kept):
                    kept[i] = None
                    order_argmax, order_tables = _order_dicts(i + 1, self.vocab_size, *columns)
                    argmax.append(order_argmax)
                    tables.append(order_tables)
                self._argmax, self._tables = argmax, tables
                self._kept = None
            return self._argmax, self._tables

    def _backoff(self, context: list[int]) -> dict[int, int]:
        """The backed-off table as ``{token: count}``, empty if order 1 has none."""
        n = len(context)
        # A while loop: range() and min() cost more than the reads here.
        order = self.k if n >= self.k - 1 else n + 1
        key = 0
        vocab_size = self.vocab_size
        for token in context[n - order + 1:]:
            key = key * vocab_size + token
        tables = self._tables
        while (table := tables[order].get(key)) is None:
            if order == 1:
                return {}
            # Drop the oldest id: the key of the next order down.
            order -= 1
            key %= vocab_size ** (order - 1)
        return {self._argmax[order][key]: table} if type(table) is int else table

    def next_distribution(self, context: list[int]) -> np.ndarray:
        """Smoothed next-token probabilities, length ``vocab_size``."""
        probs = np.full(self.vocab_size, self.alpha, dtype=np.float64)
        table = self._backoff(context)
        for token, count in table.items():
            probs[token] += count
        return probs / (sum(table.values()) + self.alpha * self.vocab_size)

    def argmax_token(self, context: list[int]) -> int:
        """Greedy next token: highest count at the backed-off order, lowest id on ties.

        Equals ``argmax(next_distribution(context))``: add-alpha smoothing
        is uniform, so it never changes which token wins. Each table's
        argmax was found at construction, so this reads only the argmax
        dicts, one ``get`` per backed-off order. Context ids must lie in
        [0, ``vocab_size``), as packed keys are unique only there.
        """
        n = len(context)
        order = self.k if n >= self.k - 1 else n + 1
        key = 0
        vocab_size = self.vocab_size
        for token in context[n - order + 1:]:
            key = key * vocab_size + token
        argmax = self._argmax
        while True:
            token = argmax[order].get(key)
            if token is not None:
                return token
            if order == 1:
                return 0
            order -= 1
            key %= vocab_size ** (order - 1)

    def sample(self, context: list[int], temperature: float, rng: np.random.Generator) -> int:
        """One draw at temperature T > 0 after ``context``.

        The token is the inverse CDF, in token-id order, of
        ``next_distribution(context) ** (1/T)``, normalised, at one
        ``rng.random()`` (the first token whose cumulative probability
        exceeds it; ``rng`` may be a numpy ``Generator``), without the
        vocabulary-sized vectors. Weights are relative to the table's
        largest count ``c_max``, read at its precompiled argmax:
        ``((c + alpha) / (c_max + alpha)) ** (1/T)`` for a seen token and
        ``(alpha / (c_max + alpha)) ** (1/T)`` for each unseen one. Every
        weight is in [0, 1] and the argmax weighs 1, so no power overflows
        and the total is at least 1 at every T > 0; an unseen weight that
        underflows to 0 is never divided by.

        A table of two or more entries is compiled on its first draw at T
        (``_compile``) and kept on the model, so a later draw is an inline
        backoff walk and one ``bisect``; the argmax is read only to compile
        or for a one-entry table, whose draw is one power and is never
        stored. The model keeps the tables of the one temperature it last
        sampled at: a draw at another drops them. A temperature that is not
        a finite, non-bool number > 0 raises ``ValueError``; it is checked
        when it differs from the last one.
        """
        state = self._sampling
        if temperature is not state[0]:
            state = self._switch_temperature(temperature, state)
        _, inv_t, compiled_tables = state
        u = rng.random()
        n = len(context)
        order = self.k if n >= self.k - 1 else n + 1
        key = 0
        vocab_size = self.vocab_size
        for token in context[n - order + 1:]:
            key = key * vocab_size + token
        tables = self._tables
        while (table := tables[order].get(key)) is None:
            if order == 1:
                return min(int(u * vocab_size), vocab_size - 1)
            order -= 1
            key %= vocab_size ** (order - 1)
        if type(table) is int:
            # A one-entry table is its count. The one seen token weighs
            # exactly 1 and has `best` unseen ids below it: a compiled
            # draw's arithmetic and `_unseen_draw`'s, done inline. As x >= 0,
            # x < low only when best > 0 and unseen > 0.
            best = self._argmax[order][key]
            unseen = (self.alpha / (table + self.alpha)) ** inv_t
            x = u * (1.0 + (vocab_size - 1) * unseen)
            low = best * unseen
            if x < low:
                return int(min(x / unseen, best - 1))
            if x < low + 1.0:
                return best
            if unseen > 0 and best + 1 < vocab_size:
                return int(min(max(1 + (x - 1.0) / unseen, best + 1), vocab_size - 1))
            return best
        compiled = compiled_tables.get(id(table))
        if compiled is None or compiled[0] is not table:
            best = self._argmax[order][key]
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
        check_number("temperature", temperature, positive=True)
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


class _Unbuilt:
    """Stands in for a model's ``_argmax`` (``which`` 0) or ``_tables``
    (``which`` 1) until the first read, which builds both. It holds the
    model's ``_build`` weakly: a model that is never read is freed with its
    columns when its last holder drops it, not at the next collection."""

    __slots__ = ("build", "which")

    def __init__(self, build: weakref.WeakMethod, which: int):
        self.build = build
        self.which = which

    def __getitem__(self, order: int) -> dict:
        return self.build()()[self.which][order]


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
    """Accumulate order-1..k window counts over every doc (EOS included).

    Each window is packed into one int64, oldest id first in base
    ``vocab.size``, and counted by ``np.unique``; the packed windows sort
    as context-then-token tuples do, so they come out grouped into the
    model's tables. ``KGramModel``'s rules on ``k`` and ``alpha`` (among
    them a ``vocab.size ** k`` past ``2 ** 63``, where windows would wrap),
    an empty corpus and a token that is not an ``int`` (a bool neither) in
    [0, ``vocab.size``) raise ``ValueError`` before anything is counted.
    """
    vocab_size = corpus.vocab.size
    return KGramModel(k, alpha, vocab_size, _count_orders(corpus.docs, k, vocab_size))


def _count_orders(docs: list[list[int]], k: int, vocab_size: int) -> Iterator[tuple]:
    """Each order's columns, counted from ``docs`` when ``KGramModel`` asks
    for them. This frame alone holds the token, room and window arrays, and
    drops them before the last order is counted."""
    if not docs:
        raise ValueError("empty corpus")
    tokens = check_ids(docs, vocab_size)
    lengths = np.fromiter(map(len, docs), np.int64, len(docs))
    # room[i]: the tokens from i to the end of its doc, so the window of
    # `order` tokens at i lies inside one doc when room[i] >= order.
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(tokens))
    windows = tokens
    for order in range(1, k + 1):
        if order > 1:
            windows = windows[:-1] * vocab_size + tokens[order - 1:]
        kept = windows[room[:len(windows)] >= order]
        if order == k:
            del tokens, room, windows
        columns = _count_windows(kept, order, vocab_size)
        del kept
        yield columns
        del columns


def _count_windows(windows: np.ndarray, order: int, vocab_size: int) -> tuple:
    """The columns ``KGramModel`` takes for one order, from its packed
    windows; ids as ``uint32``, as an HDKG file holds them."""
    grams, counts = np.unique(windows, return_counts=True)
    contexts, nexts = np.divmod(grams, vocab_size)
    del grams
    heads = np.flatnonzero(np.diff(contexts, prepend=-1))
    places = vocab_size ** np.arange(order - 2, -1, -1, dtype=np.int64)
    sizes = np.diff(heads, append=len(nexts))
    contexts = (contexts[heads, None] // places % vocab_size).astype(np.uint32)
    return contexts, sizes, nexts.astype(np.uint32), counts


def _checked(order: int, vocab_size: int, contexts, sizes, tokens, counts) -> tuple:
    """One order's columns, as ``KGramModel`` takes them, checked and made
    arrays, with one row of contexts per table; the first fault found
    raises ``ValueError``. Contexts may come flat, as an HDKG file holds
    them.

    Order 1 holds at most one table, that of the empty context. Keys pack
    a context in ``uint64`` without loss, which the size rule in
    ``KGramModel.__init__`` keeps from wrapping, once every id is below
    ``vocab_size``; they must then ascend strictly, as the contexts do.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    contexts, tokens, counts = np.asarray(contexts), np.asarray(tokens), np.asarray(counts)
    n = len(sizes)
    if order == 1 and n > 1:
        raise ValueError(f"{n} order-1 contexts")
    if contexts.size != n * (order - 1):
        raise ValueError(f"{contexts.size} context ids for {n} order-{order} tables")
    contexts = contexts.reshape(n, order - 1)
    heads = np.cumsum(sizes) - sizes

    def context_of(entry: int) -> tuple[int, ...]:
        return tuple(contexts[np.searchsorted(heads, entry, "right") - 1].tolist())

    empty = np.flatnonzero(sizes < 1)
    if empty.size:
        raise ValueError(f"table of 0 entries for context {tuple(contexts[empty[0]].tolist())}")
    n_entries = int(sizes.sum())
    if not len(tokens) == len(counts) == n_entries:
        raise ValueError(f"{len(tokens)} tokens and {len(counts)} counts for {n_entries} entries")
    high = np.flatnonzero(tokens >= vocab_size)
    if high.size:
        raise ValueError(f"token {tokens[high[0]]} >= vocab_size {vocab_size}")
    low = np.flatnonzero(counts < 1)
    if low.size:
        raise ValueError(f"count below 1 for context {context_of(low[0])}")
    later = np.ones(len(tokens), dtype=bool)
    later[heads] = False  # entries after the first of their table
    falls = np.flatnonzero(later[1:] & (tokens[1:] <= tokens[:-1]))
    if falls.size:
        context = context_of(falls[0] + 1)
        raise ValueError(f"next tokens not strictly ascending for context {context}")
    if contexts.max(initial=0) >= vocab_size:
        raise ValueError(f"an order-{order} context holds an id >= vocab_size {vocab_size}")
    keys = _keys(contexts, vocab_size)
    if not (keys[1:] > keys[:-1]).all():
        raise ValueError(f"order-{order} contexts not strictly ascending")
    return contexts, sizes, tokens, counts


def _keys(contexts: np.ndarray, vocab_size: int) -> np.ndarray:
    """Each row of ``contexts`` packed as one ``uint64`` in base ``vocab_size``."""
    keys = np.zeros(len(contexts), dtype=np.uint64)
    for column in contexts.T:
        keys = keys * np.uint64(vocab_size) + column.astype(np.uint64)
    return keys


def _order_dicts(
    order: int, vocab_size: int, contexts, sizes, tokens, counts
) -> tuple[dict[int, int], dict[int, int | dict[int, int]]]:
    """One order's argmax and table dicts, from its ``_checked`` columns.

    Keys are Python ints. A table of two or more entries is a
    ``{token: count}`` dict in id order, and a one-entry table its count.
    The argmax (highest count, lowest id on ties) is the first entry of
    each table that holds its maximum.
    """
    if not len(sizes):
        return {}, {}
    heads = np.cumsum(sizes) - sizes
    keys = _keys(contexts, vocab_size).tolist()
    # One int object per distinct token, shared by every table and argmax
    # that holds it.
    ids, index = np.unique(tokens, return_inverse=True)
    ids = ids.astype(object)
    argmax = dict(zip(keys, ids[index[_first_maxima(counts, heads, sizes)]].tolist()))
    tables = dict(zip(keys, counts[heads].tolist()))
    multi = sizes > 1
    in_multi = np.repeat(multi, sizes)
    entry_tokens, entry_counts = ids[index[in_multi]].tolist(), counts[in_multi].tolist()
    end = 0
    for i, size in zip(np.flatnonzero(multi).tolist(), sizes[multi].tolist()):
        head, end = end, end + size
        tables[keys[i]] = dict(zip(entry_tokens[head:end], entry_counts[head:end]))
    return argmax, tables


def _first_maxima(counts: np.ndarray, heads: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The index of each table's first entry holding its largest count."""
    on_top = np.flatnonzero(counts == np.repeat(np.maximum.reduceat(counts, heads), sizes))
    return on_top[np.searchsorted(on_top, heads)]


def save_kgram(model: KGramModel, path: str | Path) -> None:
    """Write the model as an HDKG v2 container (see ``_container``): header
    ``k``, ``vocab_size`` and ``alpha``, then per order 1..k its four
    columns as ``KGramModel`` takes them, contexts flattened."""
    columns = [column for order in range(1, model.k + 1) for column in model._columns(order)]
    header = (model.k, model.vocab_size, model.alpha)
    _container.write(path, KGRAM_MAGIC, KGRAM_VERSION, _HEADER, header, columns, _COLUMN_DTYPES)


def load_kgram(path: str | Path) -> KGramModel:
    """Read an HDKG file; anything but a well-formed model raises ``ValueError``.

    Besides what the container refuses, that is a ``k`` of 0 or other than
    a quarter of the array count, and what ``KGramModel`` refuses, as for
    a fit. Nothing it allocates is sized by ``vocab_size``.
    """
    (k, vocab_size, alpha), arrays = _container.read(
        path, KGRAM_MAGIC, KGRAM_VERSION, "k-gram model", _HEADER, _COLUMN_DTYPES
    )
    try:
        if k < 1 or 4 * k != len(arrays):
            raise ValueError(f"k = {k} for {len(arrays)} arrays")
        orders = (tuple(map(np.array, arrays[i:i + 4])) for i in range(0, len(arrays), 4))
        model = KGramModel(k, alpha, vocab_size, orders)
    except ValueError as exc:
        raise ValueError(f"corrupt k-gram model file: {exc}") from None
    del arrays, orders  # the columns are copies: the file's bytes go before the build
    model._build()
    return model
