"""Suffix-array index over a large token corpus, with an exact binary format.

The indexed text is the concatenation of corpus documents, each followed
by a SEP sentinel, plus one final SEP terminator. SEP never appears inside
documents, so continuations read out of the index can be truncated at SEP
and provably never cross a document boundary.

Retrieval uses a shrinking context: the longest suffix of the supplied
tail that occurs in the text wins, its occurrences are collected, and the
distinct continuations are ranked by occurrence count (ties by ascending
token order, shorter continuations first).

Lookups are vectorized. Construction counts each token id once
(``np.bincount``) and keeps the cumulative counts as first-token bucket
offsets, so the suffix-array slice of a one-token query is read directly.
Longer queries narrow that slice one column at a time: the suffixes in it
share the query's first j tokens, so their (j + 1)-th tokens are sorted
and ``np.searchsorted`` over them gives the new bounds. The same order
keeps equal continuations of one slice adjacent, so they are counted with
one comparison between neighbouring rows, without a sort.

Construction fails closed: a suffix-array entry past the text, a token id
outside the vocabulary or a text that does not end with SEP raises
ValueError, whether the arrays come from the builder or from a file. These
checks are O(n) and always run; the O(n log n) permutation and suffix
ordering checks run under ``verify``.

Binary format v1, all integers little-endian:

    magic "HDSA" (4 bytes), version u32, vocab_size u32, n_tokens u64,
    tokens u32 * n_tokens, suffix array u32 * n_tokens

u32 positions cap the corpus at 2**32 - 1 tokens; the builder refuses
anything larger.
"""

from __future__ import annotations

from pathlib import Path
import struct

import numpy as np

from .corpus import Corpus, SEP

STATS_MAGIC = b"HDSA"
STATS_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")
_MAX_TOKENS = 2**32 - 1
_FULL_CHECK_LIMIT = 20_000


def build_suffix_array(tokens: np.ndarray) -> np.ndarray:
    """Prefix-doubling construction, O(n log^2 n), deterministic.

    Returns the positions of ``tokens`` sorted by lexicographic order of
    the suffixes starting there.
    """
    n = len(tokens)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.asarray(tokens, dtype=np.int64)
    k = 1
    while True:
        second = np.full(n, -1, dtype=np.int64)
        if k < n:
            second[:n - k] = rank[k:]
        order = np.lexsort((second, rank))
        if n == 1:
            return order
        boundary = (np.diff(rank[order]) != 0) | (np.diff(second[order]) != 0)
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order[0]] = 0
        new_rank[order[1:]] = np.cumsum(boundary)
        rank = new_rank
        if rank[order[-1]] == n - 1:
            return order
        k *= 2


class StatsDB:
    """Suffix-array index; construction fails closed on out-of-range data."""

    def __init__(self, tokens: np.ndarray, sa: np.ndarray, vocab_size: int):
        tokens = np.ascontiguousarray(tokens, dtype=np.uint32)
        sa = np.ascontiguousarray(sa, dtype=np.uint32)
        n = len(tokens)
        if len(sa) != n:
            raise ValueError("stats-db verification failed: suffix array and text lengths differ")
        if n and int(tokens.max()) >= vocab_size:
            raise ValueError("stats-db verification failed: token id out of vocab range")
        if n and int(sa.max()) >= n:
            raise ValueError("stats-db verification failed: suffix array entry out of range")
        if n and tokens[-1] != SEP:
            raise ValueError("stats-db verification failed: text does not end with SEP")
        self._tokens = tokens
        self._sa = sa
        self.vocab_size = vocab_size
        # Suffixes starting with token t fill sa[bucket[t]:bucket[t + 1]].
        # Sized by the largest token present, not by the header's vocab_size,
        # so a file cannot make the load allocate more than O(n); ids past
        # the end have no occurrences.
        self._bucket = [0] + np.bincount(tokens).cumsum().tolist()

    @property
    def n_tokens(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> np.ndarray:
        return self._tokens

    @property
    def suffix_array(self) -> np.ndarray:
        return self._sa

    def find_range(self, query: list[int]) -> tuple[int, int]:
        """Half-open slice of the suffix array whose suffixes start with ``query``."""
        if len(query) < 1:
            raise ValueError("query must be non-empty")
        q = [int(t) for t in query]
        bucket = self._bucket
        # Negative ids would wrap around the bucket list; ids past its end
        # do not occur in the text.
        if not all(0 <= t < len(bucket) - 1 for t in q):
            return 0, 0
        lo, hi = bucket[q[0]], bucket[q[0] + 1]
        n = len(self._tokens)
        for j, token in enumerate(q[1:], 1):
            if hi <= lo:
                break
            # Every suffix in sa[lo:hi] starts with q[:j], so column j is
            # sorted; only a suffix of exactly j tokens has no column j, and
            # as a prefix of the others it sorts first.
            if int(self._sa[lo]) + j == n:
                lo += 1
            column = self._tokens[self._sa[lo:hi] + j]
            # Ids are integers: the left bound of token + 1 is the right
            # bound of token.
            left, right = column.searchsorted((token, token + 1)).tolist()
            lo, hi = lo + left, lo + right
        return lo, hi

    def retrieve(
        self, tail: list[int], draft_len: int, want: int
    ) -> list[tuple[list[int], int]]:
        """Continuations after the longest matching suffix of ``tail``.

        Tries the full tail first, shrinking one token at a time until some
        occurrences exist; collects up to ``draft_len`` following tokens per
        occurrence (truncated at SEP), and returns the ``want`` most frequent
        distinct continuations as (tokens, count) pairs.
        """
        if want < 0:
            raise ValueError("want must be >= 0")
        if draft_len < 1:
            raise ValueError("draft_len must be >= 1")
        tail = [int(t) for t in tail]
        for length in range(len(tail), 0, -1):
            lo, hi = self.find_range(tail[-length:])
            if hi <= lo:
                continue
            return self._rank_continuations(lo, hi, length, draft_len, want)
        return []

    def _rank_continuations(
        self, lo: int, hi: int, match_len: int, draft_len: int, want: int
    ) -> list[tuple[list[int], int]]:
        # Column j holds token j of every continuation, rows in suffix order.
        # The text ends with SEP, so positions clipped to its end read SEP.
        offsets = np.arange(match_len, match_len + draft_len, dtype=np.int64)[:, None]
        canon = self._tokens.take(self._sa[lo:hi] + offsets, mode="clip")
        # Tokens shift up by one and everything from the first SEP on becomes
        # 0, so columns canonically encode variable-length continuations and
        # shorter prefixes sort first.
        alive = canon != SEP
        for j in range(1, draft_len):
            alive[j] &= alive[j - 1]
        canon += 1
        canon *= alive
        # Suffix order keeps equal continuations (equal text up to SEP or
        # draft_len) adjacent: a group starts wherever a row differs from the
        # one before it.
        edge = np.ones(hi - lo + 1, dtype=bool)
        (canon[:, 1:] != canon[:, :-1]).any(axis=0, out=edge[1:-1])
        bounds = edge.nonzero()[0]
        starts, counts = bounds[:-1], bounds[1:] - bounds[:-1]
        real = canon[0, starts] > 0  # drop the groups of empty continuations
        starts, counts = starts[real], counts[real]
        k = min(want, len(counts))
        if k == 0:
            return []
        # Only groups whose count reaches the k-th largest can be returned;
        # order those by count, then by encoded continuation. A single one
        # (the usual case for want = 1) needs no sort.
        if k < len(counts):
            pick = (counts >= np.sort(counts)[-k]).nonzero()[0]
            starts, counts = starts[pick], counts[pick]
        top = canon[:, starts]
        order = np.lexsort((*top[::-1], -counts))[:k] if len(counts) > 1 else [0]
        return [
            ([t - 1 for t in row if t], count)
            for row, count in zip(top[:, order].T.tolist(), counts[order].tolist())
        ]


def build_stats_db(corpus: Corpus) -> StatsDB:
    """Concatenate docs with SEP sentinels and index every suffix."""
    if not corpus.docs:
        raise ValueError("empty corpus")
    text: list[int] = []
    for doc in corpus.docs:
        text.extend(doc)
        text.append(SEP)
    text.append(SEP)
    if len(text) > _MAX_TOKENS:
        raise ValueError("corpus too large for format v1")
    tokens = np.asarray(text, dtype=np.uint32)
    sa = build_suffix_array(tokens)
    return StatsDB(tokens, sa, corpus.vocab.size)


def save_stats_db(db: StatsDB, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(STATS_MAGIC, STATS_VERSION, db.vocab_size, db.n_tokens))
        fh.write(db.tokens.astype("<u4").tobytes())
        fh.write(db.suffix_array.astype("<u4").tobytes())


def load_stats_db(path: str | Path, *, verify: bool = False) -> StatsDB:
    """Read a v1 file, failing closed; ``verify`` adds the ordering checks."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ValueError("corrupt stats-db file: truncated header")
    magic, version, vocab_size, n_tokens = _HEADER.unpack_from(data, 0)
    if magic != STATS_MAGIC:
        raise ValueError("unsupported stats-db file: bad magic")
    if version != STATS_VERSION:
        raise ValueError(f"unsupported stats-db file: version {version}")
    expected = _HEADER.size + 8 * n_tokens
    if len(data) != expected:
        raise ValueError(
            f"corrupt stats-db file: expected {expected} bytes, found {len(data)}"
        )
    body = np.frombuffer(data, dtype="<u4", offset=_HEADER.size)
    db = StatsDB(body[:n_tokens], body[n_tokens:], vocab_size)
    if verify:
        verify_stats_db(db)
    return db


def _suffix_less(tokens: np.ndarray, i: int, j: int) -> bool:
    n = len(tokens)
    while i < n and j < n:
        a, b = tokens[i], tokens[j]
        if a != b:
            return a < b
        i += 1
        j += 1
    return i == n and j < n


def verify_stats_db(db: StatsDB, *, min_pairs: int = 10_000, seed: int = 0) -> None:
    """Check permutation and suffix ordering; raise on failure.

    Token and position ranges are checked by every construction already.
    Ordering is checked over every adjacent pair on small indexes and over
    at least ``min_pairs`` sampled adjacent pairs on large ones.
    """
    n = db.n_tokens
    sa = db.suffix_array
    if not np.array_equal(np.sort(sa), np.arange(n, dtype=sa.dtype)):
        raise ValueError("stats-db verification failed: suffix array is not a permutation")
    if n < 2:
        return
    if n - 1 <= max(_FULL_CHECK_LIMIT, min_pairs):
        pairs = np.arange(n - 1)
    else:
        rng = np.random.default_rng(seed)
        pairs = rng.choice(n - 1, size=min_pairs, replace=False)
    tokens = db.tokens
    for p in pairs:
        if not _suffix_less(tokens, int(sa[p]), int(sa[p + 1])):
            raise ValueError(
                f"stats-db verification failed: suffixes {int(sa[p])} and "
                f"{int(sa[p + 1])} out of order"
            )
