"""Static table of the most frequent (1 + window)-token sequences.

Built once from a corpus of generated text and immutable afterwards: every
contiguous window inside a document (never across documents) is counted,
the globally most frequent ``top_k`` windows are kept, grouped under their
first token, and each key's list is capped so it can fill a draft set on
its own.

On-disk format is JSON lines: a header record {"magic": "HDMD",
"version": 1, "m": ..., "records": K} followed by one record per key,
keys ascending. Builds are deterministic, so equal inputs give
byte-identical files. Loading raises ``ValueError`` unless every key is an
integer above the one before and every value is ``m`` token ids with a
positive count.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from .corpus import Corpus

MODEL_DB_MAGIC = "HDMD"
MODEL_DB_VERSION = 1


class ModelDB:
    def __init__(self, window: int, entries: dict[int, list[tuple[tuple[int, ...], int]]]):
        self.window = window
        # key -> [(value, count), ...] sorted by count desc, value asc.
        self._entries = entries

    @property
    def n_sequences(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def keys(self) -> list[int]:
        return sorted(self._entries)

    def lookup(self, key: int, want: int) -> list[list[int]]:
        """Up to ``want`` values for ``key`` in stored (count-descending) order."""
        if want < 0:
            raise ValueError("want must be >= 0")
        rows = self._entries.get(key, [])
        return [list(value) for value, _count in rows[:want]]

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
    values (count descending, value ascending).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not generations.docs:
        raise ValueError("empty generations corpus")
    size = 1 + window
    freq: Counter[tuple[int, ...]] = Counter()
    for doc in generations.docs:
        for i in range(len(doc) - size + 1):
            freq[tuple(doc[i:i + size])] += 1
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    entries: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for gram, count in ranked:
        entries.setdefault(gram[0], []).append((gram[1:], count))
    for key, rows in entries.items():
        rows.sort(key=lambda vc: (-vc[1], vc[0]))
        del rows[per_key:]
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
        or header.get("version") != MODEL_DB_VERSION
    ):
        raise ValueError("unsupported model-db file")
    expected = header.get("records")
    records = lines[1:]
    if expected is None or len(records) != expected:
        raise ValueError(
            f"corrupt model-db file: expected {expected} records, found {len(records)}"
        )
    window = header.get("m")
    if not isinstance(window, int) or window < 1:
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
        if type(key) is not int or (prev is not None and key <= prev):
            raise ValueError(f"corrupt model-db file: key {key!r} is not an integer above {prev}")
        for value, count in rows:
            if len(value) != window or any(type(t) is not int for t in value):
                raise ValueError(f"corrupt model-db file: key {key} value {value} is not m ids")
            if type(count) is not int or count < 1:
                raise ValueError(f"corrupt model-db file: key {key} count {count!r} not positive")
        entries[key] = rows
        prev = key
    return ModelDB(window, entries)
