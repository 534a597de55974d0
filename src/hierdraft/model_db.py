"""Static table of the most frequent (1 + window)-token sequences.

Built once from a corpus of generated text and immutable afterwards: every
contiguous window inside a document (never across documents) is counted,
the globally most frequent ``top_k`` windows are kept, grouped under their
first token, and each key's list is capped so it can fill a draft set on
its own.

On-disk format is JSON lines: a header record {"magic": "HDMD",
"version": 1, "m": ..., "records": K} followed by one record per key,
keys ascending. Builds are deterministic, so equal inputs give
byte-identical files. Loading raises ``ValueError`` unless every key is a
token id (a non-negative integer) above the one before and holds at least
one value, every value is ``m`` token ids with a positive count, no key
repeats a value, and each key's rows are in lookup order: count
descending, value ascending.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._checks import check_int
from .corpus import Corpus

MODEL_DB_MAGIC = "HDMD"
MODEL_DB_VERSION = 1


class ModelDB:
    def __init__(self, window: int, entries: dict[int, list[tuple[tuple[int, ...], int]]]):
        self.window = window
        # key -> [(value, count), ...] sorted by count desc, value asc.
        self._entries = entries
        # key -> [value, ...] in the same order; ``lookup`` slices it.
        self._values = {key: [value for value, _count in rows] for key, rows in entries.items()}

    @property
    def n_sequences(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def keys(self) -> list[int]:
        return sorted(self._entries)

    def max_id(self) -> int:
        """The largest token id in any key or value; -1 for an empty table."""
        return max((max(key, *map(max, rows)) for key, rows in self._values.items()), default=-1)

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
            and self._entries == other._entries
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
    values (count descending, value ascending). Keys enter the table in
    the order of their best gram's rank.

    The grams are the rows of a sliding window over the concatenated docs,
    less the rows that cross a document boundary. Each id is replaced by
    its rank among the distinct ids, and each gram is packed into one int64
    in that base, so one ``np.unique`` counts the grams in lexicographic
    order. Ranking is a stable sort on the negated counts, both cuts are
    array operations, and only the rows kept become tuples, of one int
    object per distinct id. A token that is a bool, not an int, negative
    or past int64 raises ``ValueError`` before anything is counted;
    ``load_model_db`` would refuse a file holding the first three.
    """
    for name, value in (("top_k", top_k), ("window", window), ("per_key", per_key)):
        check_int(name, value)
    docs = generations.docs
    if not docs:
        raise ValueError("empty generations corpus")
    flat = list(chain.from_iterable(docs))
    if not set(map(type, flat)) <= {int} or (flat and not 0 <= min(flat) <= max(flat) < 2**63):
        raise ValueError("token ids must be integers in [0, 2**63)")
    size = 1 + window
    lengths = np.fromiter(map(len, docs), np.int64, len(docs))
    if not (lengths >= size).any():
        return ModelDB(window, {})
    ids, index = np.unique(np.array(flat, dtype=np.int64), return_inverse=True)
    index = index.reshape(-1)
    del flat
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
    columns = ids.astype(object)[grams[kept].T].tolist()
    rows = list(zip(zip(*columns[1:]), counts[kept].tolist()))
    starts, ends = (ends - sizes).tolist(), ends.tolist()
    entries = {
        columns[0][starts[g]]: rows[starts[g]:ends[g]]
        for g in np.argsort(by_key[heads]).tolist()
    }
    return ModelDB(window, entries)


def save_model_db(db: ModelDB, path: str | Path) -> None:
    keys = db.keys()
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "magic": MODEL_DB_MAGIC,
            "version": MODEL_DB_VERSION,
            "m": db.window,
            "records": len(keys),
        }
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for key in keys:
            rows = db._entries[key]
            record = {
                "key": key,
                "values": [list(v) for v, _c in rows],
                "counts": [c for _v, c in rows],
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_model_db(path: str | Path) -> ModelDB:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("unsupported model-db file: empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"unsupported model-db file: {exc}") from exc
    if (
        not isinstance(header, dict)
        or header.get("magic") != MODEL_DB_MAGIC
        or type(header.get("version")) is not int
        or header.get("version") != MODEL_DB_VERSION
    ):
        raise ValueError("unsupported model-db file")
    expected = header.get("records")
    records = lines[1:]
    # bool is an int subclass, and JSON true/false must not pass as counts.
    if type(expected) is not int or len(records) != expected:
        raise ValueError(
            f"corrupt model-db file: expected {expected} records, found {len(records)}"
        )
    window = header.get("m")
    if type(window) is not int or window < 1:
        raise ValueError(f"corrupt model-db file: header 'm' is {window!r}, not a window size")
    entries: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    prev = None
    for line in records:
        try:
            record = json.loads(line)
            key, values, counts = record["key"], record["values"], record["counts"]
            if len(values) != len(counts):
                raise ValueError("values/counts length mismatch")
            rows = [(tuple(v), c) for v, c in zip(values, counts)]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt model-db file: {exc}") from exc
        if type(key) is not int or key < 0 or (prev is not None and key <= prev):
            raise ValueError(
                f"corrupt model-db file: key {key!r} is not a token id above {prev}"
            )
        if not rows:
            raise ValueError(f"corrupt model-db file: key {key} has no values")
        for value, count in rows:
            if len(value) != window or any(type(t) is not int or t < 0 for t in value):
                raise ValueError(f"corrupt model-db file: key {key} value {value} is not m ids")
            if type(count) is not int or count < 1:
                raise ValueError(f"corrupt model-db file: key {key} count {count!r} not positive")
        if len({value for value, _count in rows}) != len(rows):
            raise ValueError(f"corrupt model-db file: key {key} repeats a value")
        ranks = [(-count, value) for value, count in rows]
        if ranks != sorted(ranks):
            raise ValueError(
                f"corrupt model-db file: key {key} rows are not count-descending, value-ascending"
            )
        entries[key] = rows
        prev = key
    return ModelDB(window, entries)
