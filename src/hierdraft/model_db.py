"""Static table of the most frequent (1 + window)-token sequences.

Built once from a corpus of generated text and immutable afterwards: every
contiguous window inside a document (never across documents) is counted,
the globally most frequent ``top_k`` windows are kept, grouped under their
first token, and each key's list is capped so it can fill a draft set on
its own.

A ``ModelDB`` is four columns, as an HDMD v2 file holds them: ``keys``
(ascending), ``sizes`` (each key's row count), ``values`` (``window`` ids
per row) and ``counts``, rows key by key in lookup order. Its constructor
refuses anything but a well-formed table (``_checked``) with
``ValueError``, so a build or a load does too and every table saves to a
file that loads back. The file is the one container of ``_container``,
magic "HDMD", the window ``m`` (``u32``) its one header number and the
columns ``u64``. Equal inputs build byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _container
from ._checks import U32_MAX, check_ids, check_int
from .corpus import Corpus

MODEL_DB_MAGIC = b"HDMD"
MODEL_DB_VERSION = 2
_HEADER = "<I"  # the window m
_U8 = ("<u8",)  # the dtype of every column
_ID_BOUND = 2**63


class ModelDB:
    """Four checked ``uint64`` columns, and the lookup dict made from them
    once: key -> values in stored order, sharing one int object per id."""

    def __init__(self, window: int, keys, sizes, values, counts):
        self.window = window
        keys, sizes, values, counts = self._columns = _checked(window, keys, sizes, values, counts)
        self._values: dict[int, list[tuple[int, ...]]] = {}
        if len(counts):  # else there are no rows to size by ``window``
            ids, index = np.unique(values, return_inverse=True)
            rows = list(zip(*ids.astype(object)[index.reshape(-1, window).T].tolist()))
            del index
            spans = zip(keys.tolist(), sizes.tolist(), np.cumsum(sizes).tolist())
            self._values = {key: rows[end - size:end] for key, size, end in spans}

    @property
    def n_sequences(self) -> int:
        return len(self._columns[3])

    def keys(self) -> list[int]:
        return self._columns[0].tolist()

    def max_id(self) -> int:
        """The largest token id in any key or value; -1 for an empty table."""
        keys, _sizes, values, _counts = self._columns
        return int(max(keys.max(), values.max())) if len(keys) else -1

    def lookup(self, key: int, want: int) -> list[tuple[int, ...]]:
        """Up to ``want`` values for ``key`` in stored (count-descending) order.

        The list is a fresh slice; its values are the stored tuples
        themselves, not copies, which is safe because tuples are immutable.
        A ``want`` that is not an ``int`` >= 0, or is a bool, raises
        ``ValueError``.
        """
        if type(want) is not int or want < 0:
            check_int("want", want, 0)
        return self._values.get(key, [])[:want]

    def drafter(self, hier) -> Callable[[list[int], int], list[tuple[int, ...]]]:
        """Draft source for one generation: values keyed on the last token."""
        return lambda context, want: self.lookup(context[-1], want)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModelDB)
            and self.window == other.window
            and all(map(np.array_equal, self._columns, other._columns))
        )


def build_model_db(
    generations: Corpus,
    *,
    top_k: int = 100_000,
    window: int = 4,
    per_key: int = 7,
) -> ModelDB:
    """Count (1 + window)-grams per document, keep the global top ``top_k``.

    Ties in frequency break by ascending token order so the build is fully
    deterministic. After the global cut, each key keeps at most ``per_key``
    values (count descending, value ascending).

    The grams are the rows of a sliding window over the concatenated docs,
    less the rows that cross a document boundary. Each id is replaced by
    its rank among the distinct ids, and each gram is packed into one int64
    in that base, so one ``np.unique`` counts the grams in lexicographic
    order. Ranking is a stable sort on the negated counts, and both cuts
    are array operations; the rows kept go to ``ModelDB`` as its columns.
    A token that is a bool, not an int, negative or past int64 raises
    ``ValueError`` before anything is counted (``check_ids``).
    """
    for name, value in (("top_k", top_k), ("window", window), ("per_key", per_key)):
        check_int(name, value)
    docs = generations.docs
    if not docs:
        raise ValueError("empty generations corpus")
    tokens = check_ids(docs, _ID_BOUND)
    size = 1 + window
    lengths = np.fromiter(map(len, docs), np.int64, len(docs))
    if not (lengths >= size).any():
        return ModelDB(window, [], [], [], [])
    ids, index = np.unique(tokens, return_inverse=True)
    index = index.reshape(-1)
    del tokens
    # room[i]: the tokens from i to the end of its doc; the gram at i lies
    # inside one doc when room[i] >= size.
    room = np.repeat(np.cumsum(lengths), lengths)[: len(index) - size + 1]
    room -= np.arange(len(room))
    at = np.flatnonzero(room >= size)
    del room
    # Packed oldest id first, grams sort as their packed values do. Where
    # the next id would not fit, the packed prefixes become their ranks.
    base = len(ids)
    packed = index[at]
    for j in range(1, size):
        if (int(packed.max()) + 1) * base > 2**63:
            packed = np.unique(packed, return_inverse=True)[1].reshape(-1)
        packed *= base
        packed += index[at + j]
    _, first, counts = np.unique(packed, return_index=True, return_counts=True)
    grams = sliding_window_view(index, size)[at[first]]
    del index, at, packed, first
    # Rows of ``grams`` ascend, so a stable sort breaks count ties by gram.
    ranked = np.argsort(-counts, kind="stable")[:top_k]
    # By key, and in rank order within one; each key keeps its first
    # ``per_key`` rows, and keys go in the order of their first row's rank.
    by_key = np.argsort(grams[ranked, 0], kind="stable")
    grouped = ranked[by_key]
    heads = np.flatnonzero(np.diff(grams[grouped, 0], prepend=-1))
    sizes = np.minimum(np.diff(heads, append=len(grouped)), per_key)
    ends = np.cumsum(sizes)
    kept = grouped[np.arange(ends[-1]) + np.repeat(heads - ends + sizes, sizes)]
    rows, counts = ids[grams[kept]], counts[kept]
    del ids, grams, ranked, by_key, grouped, kept  # freed before the table is checked
    return ModelDB(window, rows[ends - sizes, 0], sizes, rows[:, 1:], counts)


def save_model_db(db: ModelDB, path: str | Path) -> None:
    header = (db.window,)
    _container.write(path, MODEL_DB_MAGIC, MODEL_DB_VERSION, _HEADER, header, db._columns, _U8)


def load_model_db(path: str | Path) -> ModelDB:
    """Read an HDMD file; anything but a well-formed table raises
    ``ValueError``. The columns stay views of the file's bytes."""
    (window,), arrays = _container.read(
        path, MODEL_DB_MAGIC, MODEL_DB_VERSION, "model-db", _HEADER, _U8
    )
    try:
        if len(arrays) != 4:
            raise ValueError(f"{len(arrays)} arrays, not 4")
        return ModelDB(window, *arrays)
    except ValueError as exc:
        raise ValueError(f"corrupt model-db file: {exc}") from None


def _checked(window: int, *columns) -> tuple[np.ndarray, ...]:
    """The four columns as ``uint64`` arrays, values one row of ``window``
    ids each, once they hold a well-formed table; else ``ValueError``.

    The window is an int in [1, 2**32), as the header's ``u32`` holds it,
    and each column holds integers >= 0. Every id is below 2**63 and every
    count in [1, 2**63). Keys ascend strictly, each holds at least one
    row, each key's rows ascend strictly in (-count, value), and no key
    holds one value twice.
    """
    check_int("window", window, 1, U32_MAX)
    columns = [np.asarray(column) for column in columns]
    if any(c.size and not (c.dtype.kind in "iu" and c.min() >= 0) for c in columns):
        raise ValueError("a column holds what is not an integer >= 0")
    keys, sizes, values, counts = (c.astype(np.uint64, copy=False).reshape(-1) for c in columns)
    n_rows = len(counts)
    if len(sizes) != len(keys):
        raise ValueError(f"{len(keys)} keys and {len(sizes)} sizes")
    if (sizes < 1).any():
        raise ValueError(f"key {keys[np.argmax(sizes < 1)]} has no values")
    # With every size at most n_rows, the sum cannot wrap.
    if sizes.max(initial=0) > n_rows or sizes.sum() != n_rows:
        raise ValueError(f"sizes that do not add up to {n_rows} rows")
    if len(values) != window * n_rows:
        raise ValueError(f"{len(values)} value ids for {n_rows} rows of m = {window} ids")
    bad = keys >= _ID_BOUND
    bad[1:] |= keys[1:] <= keys[:-1]
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"key {keys[i]} is not a token id above {keys[i - 1] if i else None}")
    values = values.reshape(n_rows, window)
    key_of = np.repeat(keys, sizes.astype(np.int64))
    if (values >= _ID_BOUND).any():
        i = np.argmax((values >= _ID_BOUND).any(axis=1))
        raise ValueError(f"key {key_of[i]} value {tuple(values[i].tolist())} is not m ids")
    if ((counts < 1) | (counts >= _ID_BOUND)).any():
        i = np.argmax((counts < 1) | (counts >= _ID_BOUND))
        raise ValueError(f"key {key_of[i]} count {counts[i]} not in [1, 2**63)")
    # Rows sorted by key, then value, as big-endian bytes: a value repeated
    # under one key sits next to itself, and ``rank`` orders a key's values.
    if n_rows > 1:  # else there are no two rows to compare
        rows = np.column_stack([key_of, values]).astype(">u8").view(f"V{8 * window + 8}").ravel()
        by = np.argsort(rows, kind="stable")
        repeated = rows[by[1:]] == rows[by[:-1]]
        if repeated.any():
            raise ValueError(f"key {key_of[by[np.argmax(repeated)]]} repeats a value")
        rank = np.argsort(by)
        ordered = (counts[:-1] > counts[1:]) | (counts[:-1] == counts[1:]) & (rank[:-1] < rank[1:])
        ordered |= key_of[:-1] != key_of[1:]
        if not ordered.all():
            i = np.argmin(ordered)
            raise ValueError(f"key {key_of[i]} rows are not count-descending, value-ascending")
    return keys, sizes, values, counts
