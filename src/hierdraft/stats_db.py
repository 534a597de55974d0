"""Suffix-array index over a large token corpus, with an exact binary format.

The indexed text is the concatenation of corpus documents, each followed
by a SEP sentinel, plus one final SEP terminator. SEP never appears inside
documents, so continuations read out of the index can be truncated at SEP
and provably never cross a document boundary.

Retrieval uses a shrinking context: the longest suffix of the supplied
tail that occurs in the text wins, its occurrences are collected, and the
distinct continuations are ranked by occurrence count (ties by ascending
token order, shorter continuations first). In decoding the index is one
of the draft sources. Its text and suffix array never change after
construction, so a ranking is a pure function of its query, and every
drafter of one index shares one bounded memo of rankings, kept on the
instance: a tail retrieved in one generation is answered from it in the
next.

Lookups are vectorized. Construction counts each token id once
(``np.bincount``) and keeps the cumulative counts as first-token bucket
offsets, so the suffix-array slice of a one-token query is read directly.
Longer queries narrow that slice one column at a time: the suffixes in it
share the query's first j tokens, so their (j + 1)-th tokens are sorted
and ``np.searchsorted`` over them gives the new bounds. The same order
keeps equal continuations of one slice adjacent, so they are counted with
one comparison between neighbouring rows, without a sort.

``build_stats_db`` counts the tokens before it allocates anything, then
writes documents and SEPs straight into one uint32 array.
``build_suffix_array`` is prefix doubling over the suffixes still tied,
with uint32 ranks and no int64 array. Its first sort reads as many
leading tokens as fit in 32 bits: two while the largest id is below
2**16 - 1, more for fewer ids. On hdbench's 1M-token text (ids below
2004) three rounds follow, over 544k, 195k and 268 tied suffixes. The
whole build peaks at about 22 bytes per token under ``tracemalloc``,
text and suffix array included.

Construction fails closed, whether the arrays come from the builder or
from a file: a ``vocab_size`` that is not an integer in [1, 2**32), a
suffix-array entry past the text, a token id outside the vocabulary, a
text that does not end with SEP SEP (a document's SEP, then the
terminator; so an empty or one-token text fails), an array that is not a
permutation of the positions or one whose suffixes are out of order
raises ValueError. Every check is one O(n) vectorized pass, and every
check always runs; the order check goes over the array in fixed-size
chunks, so its only O(n) temporary is one uint32 rank array.

Binary format v2 is the one container of ``_container``, magic "HDSA",
with ``vocab_size`` (``u32``) as its one header number and two ``u32``
arrays: the text and its suffix array. u32 positions cap the corpus at
2**32 - 1 tokens; the builder refuses anything larger.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import _container
from ._checks import U32_MAX, check_ids, check_int
from .corpus import Corpus, SEP

STATS_MAGIC = b"HDSA"
STATS_VERSION = 2
_HEADER = "<I"  # vocab_size
_ARRAY_DTYPES = ("<u4",)  # the text, then its suffix array
_MAX_TOKENS = 2**32 - 1
# Rankings the drafters' memo holds per index, the oldest dropped first;
# about 1.4 kB each at the default set_size and draft_len.
_MEMO_ENTRIES = 4096


def build_suffix_array(tokens: np.ndarray) -> np.ndarray:
    """Positions of ``tokens`` (ids below 2**32) in the lexicographic order
    of the suffixes starting there, as ``uint32``; deterministic.

    Prefix doubling that re-sorts only the suffixes still tied (Larsson
    and Sadakane, TCS 2007). ``rank[i]`` is 1 + the first slot of the group
    of suffixes sharing suffix i's first h tokens; ``rank[n]`` is 0, the
    end of the text, below every token. A first sort groups the suffixes
    by their first h tokens, h as many as one value below 2**32 holds:
    up to 33 for a text of zeros, two while the largest id is below
    2**16 - 1, one from there on. Each round sorts every group of two or
    more by the rank h tokens on, so groups then share 2h tokens, and
    rewrites their ranks in place. A suffix alone in its group has its
    final slot and drops out, so a round costs O(m log m) for the m
    suffixes still tied, and there are about log2(longest repeat / h)
    rounds.

    Every sort is an in-place ``sort`` of uint64 keys that hold the value
    above the entry's index (``_order``). A round sorts by the rank h on,
    then, stably, by the suffix's own rank: a radix sort by the pair. One
    key for the pair, rank * (n + 1) + rank h on, would leave no room for
    the index and need an int64 argsort beside it. At most 16 bytes per
    tied suffix are live beside the 4-byte ranks: about 20 bytes per token
    under ``tracemalloc`` when every suffix is tied, the caller's text not
    counted.
    """
    tokens = np.asarray(tokens)
    n = len(tokens)
    if n > _MAX_TOKENS:
        raise ValueError("text too long for u32 suffix-array entries")
    if tokens.dtype != np.uint32:
        if n and (tokens.dtype.kind not in "iu" or tokens.min() < 0 or tokens.max() >= 2**32):
            raise ValueError("token ids must be integers in [0, 2**32)")
        tokens = tokens.astype(np.uint32)
    if not n:
        return np.empty(0, dtype=np.uint32)
    # The first sort reads each suffix's first h tokens as one value below
    # 2**32, the first token highest, in base top + 2: later tokens count
    # as id + 1, so the end of the text, 0, sorts below every id.
    top = int(tokens.max())
    h, span = 1, top + 1
    while h < n and span * (top + 2) <= 2**32:
        h, span = h + 1, span * (top + 2)
    key = tokens.astype(np.uint64)
    for j in range(1, h):
        key *= top + 2
        key[:n - j] += tokens[j:]
        key[:n - j] += 1
    pos = _order(key)
    key >>= 32  # the sorted values
    edges = _edges(key)
    del key
    rank = np.zeros(n + 1, dtype=np.uint32)
    rank[:n] = 1  # one group of every suffix, starting at slot 0
    pos = _split(rank, pos, edges)
    while len(pos):
        # Suffixes within h of the end read rank[n] = 0; taking the minimum
        # first keeps the uint32 sum from overflowing.
        pos = pos[_order(rank[np.minimum(pos, n - h) + h].astype(np.uint64))]
        pos = pos[_order(rank[pos].astype(np.uint64))]
        pos = _split(rank, pos, _edges(rank[np.minimum(pos, n - h) + h]))
        h *= 2
    sa = np.empty(n, dtype=np.uint32)
    slot = rank[:n]
    slot -= 1
    sa[slot] = np.arange(n, dtype=np.uint32)
    return sa


def _order(key: np.ndarray) -> np.ndarray:
    """Stable sorting permutation, as ``uint32``, of ``key``: uint64 values
    below 2**32. Each value is moved above its index, so one in-place sort
    orders the values and breaks ties by index; ``key`` is left so, sorted,
    each value still above its index."""
    key <<= 32
    key |= np.arange(len(key), dtype=np.uint32)
    key.sort()
    return key.astype(np.uint32)


def _edges(values: np.ndarray) -> np.ndarray:
    """True where an entry differs from the one before, first and one past
    the end included."""
    edges = np.ones(len(values) + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=edges[1:-1])
    return edges


def _heads(edges: np.ndarray) -> np.ndarray:
    """Index of the last edge at or before each entry, as ``uint32``."""
    head = np.arange(len(edges) - 1, dtype=np.uint32)
    head *= edges[:-1]
    return np.maximum.accumulate(head, out=head)


def _split(rank: np.ndarray, pos: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Rank the suffixes in ``pos`` by their new groups; return those still tied.

    ``pos`` lists whole groups in order, each sorted by the next part of
    the key, and ``new`` holds the ``_edges`` of that part (overwritten).
    An old group's first slot is its rank - 1, so a new group's rank is
    the old rank plus the offset of its first entry within the old group.
    """
    old = rank[pos]
    first = _edges(old)  # starts an old group
    new |= first
    old -= _heads(first)
    old += _heads(new)
    rank[pos] = old
    new[:-1] &= new[1:]  # alone in its new group
    return pos[~new[:-1]]


# Entries per chunk of the order check: its temporaries stay near 2 MB
# whatever the text's length.
_CHECK_CHUNK = 1 << 16


def _check_sorted(tokens: np.ndarray, sa: np.ndarray) -> None:
    """Raise unless ``sa`` is the suffix array of ``tokens``, in O(n).

    ``rank`` inverts ``sa``, with the empty suffix at position n ranked
    first. A permutation of the positions whose every adjacent pair has a
    smaller first token, or an equal first token and a smaller rank for
    the suffix one position on, is the sorted suffix array (Burkhardt and
    Kärkkäinen, CPM 2003): by induction on suffix length, the rank order
    is then the lexicographic order. Entries are known to be below n.
    Both passes go over ``sa`` in chunks, so only ``rank`` is O(n).
    """
    n = len(sa)
    rank = np.zeros(n + 1, dtype=np.uint32)
    for lo in range(0, n, _CHECK_CHUNK):
        hi = min(lo + _CHECK_CHUNK, n)
        rank[sa[lo:hi]] = np.arange(lo + 1, hi + 1, dtype=np.uint32)
    if not rank[:n].all():
        raise ValueError("stats-db verification failed: suffix array is not a permutation")
    # Chunks overlap by one entry, so every adjacent pair is compared.
    for lo in range(0, n - 1, _CHECK_CHUNK):
        part = sa[lo:lo + _CHECK_CHUNK + 1]
        first = tokens[part]
        after = rank[part + 1]
        ordered = first[:-1] < first[1:]
        ordered |= (first[:-1] == first[1:]) & (after[:-1] < after[1:])
        bad = np.flatnonzero(~ordered)
        if len(bad):
            i = lo + int(bad[0])
            raise ValueError(
                f"stats-db verification failed: suffixes {int(sa[i])} and "
                f"{int(sa[i + 1])} out of order"
            )


class StatsDB:
    """Checked suffix-array index; construction fails closed on any array
    that is not the suffix array of its text."""

    def __init__(self, tokens: np.ndarray, sa: np.ndarray, vocab_size: int):
        check_int("vocab_size", vocab_size, 1, U32_MAX)
        tokens = np.ascontiguousarray(tokens, dtype=np.uint32)
        sa = np.ascontiguousarray(sa, dtype=np.uint32)
        n = len(tokens)
        if len(sa) != n:
            raise ValueError("stats-db verification failed: suffix array and text lengths differ")
        # The builder's text ends with a document's SEP and the terminator,
        # so an empty or one-token text is a damaged file, not an empty index.
        if n < 2 or tokens[-2] != SEP or tokens[-1] != SEP:
            raise ValueError("stats-db verification failed: text does not end with SEP SEP")
        if int(tokens.max()) >= vocab_size:
            raise ValueError("stats-db verification failed: token id out of vocab range")
        if int(sa.max()) >= n:
            raise ValueError("stats-db verification failed: suffix array entry out of range")
        _check_sorted(tokens, sa)
        self._tokens = tokens
        self._sa = sa
        self.vocab_size = vocab_size
        # Suffixes starting with token t fill sa[bucket[t]:bucket[t + 1]].
        # Sized by the largest token present, not by the header's vocab_size,
        # so a file cannot make the load allocate more than O(n); ids past
        # the end have no occurrences.
        self._bucket = [0] + np.bincount(tokens).cumsum().tolist()
        # The drafters' memo: (tail, draft_len, set_size) -> ranked
        # continuations as tuples, oldest first. It holds only plain data,
        # so the index is in no reference cycle and reference counting
        # frees it.
        self._memo: OrderedDict[tuple, list[tuple[int, ...]]] = OrderedDict()

    @property
    def n_tokens(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> np.ndarray:
        return self._tokens

    @property
    def suffix_array(self) -> np.ndarray:
        return self._sa

    def find_range(self, query: Sequence[int]) -> tuple[int, int]:
        """Half-open slice of the suffix array whose suffixes start with
        ``query``. An id that is a bool or not an integer (numpy integers
        pass) raises ``ValueError``."""
        if len(query) < 1:
            raise ValueError("query must be non-empty")
        if not all(isinstance(t, (int, np.integer)) and type(t) is not bool for t in query):
            raise ValueError(f"query ids must be integers, not {list(query)!r}")
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
        self, tail: Sequence[int], draft_len: int, want: int
    ) -> list[tuple[list[int], int]]:
        """Continuations after the longest matching suffix of ``tail``.

        Tries the full tail first, shrinking one token at a time until some
        occurrences exist; collects up to ``draft_len`` following tokens per
        occurrence (truncated at SEP), and returns the ``want`` most frequent
        distinct continuations as (tokens, count) pairs. ``draft_len`` must
        be an integer >= 1 and ``want`` one >= 0, else ``ValueError``.
        """
        check_int("draft_len", draft_len)
        check_int("want", want, 0)
        for length in range(len(tail), 0, -1):
            lo, hi = self.find_range(tail[-length:])
            if hi <= lo:
                continue
            return self._rank_continuations(lo, hi, length, draft_len, want)
        return []

    def drafter(self, hier) -> Callable[[list[int], int], list[tuple[int, ...]]]:
        """Draft source matching the last ``tail_len`` context tokens.

        Every drafter of this index shares its memo, across generations,
        keyed on ``(tail, draft_len, set_size)``, which holds the
        ``set_size`` best continuations as tuples. Ranking is a total order,
        so a probe for ``want`` reads a fresh slice of the first ``want``.
        A miss calls ``self.retrieve`` at call time, so wrappers set on the
        instance see every miss and no hit. The memo holds at most
        ``_MEMO_ENTRIES`` rankings and drops the oldest first. A ``want``
        that ``retrieve`` would refuse raises ``ValueError`` on a hit too.
        """
        memo = self._memo
        tail_len, draft_len, set_size = hier.tail_len, hier.draft_len, hier.set_size

        def draft(context: list[int], want: int) -> list[tuple[int, ...]]:
            if type(want) is not int or want < 0:
                check_int("want", want, 0)
            tail = tuple(context[-tail_len:])
            key = (tail, draft_len, set_size)
            ranked = memo.get(key)
            if ranked is None:
                found = self.retrieve(tail, draft_len, set_size)
                ranked = [tuple(seq) for seq, _count in found]
                if len(memo) >= _MEMO_ENTRIES:
                    memo.popitem(last=False)
                memo[key] = ranked
            return ranked[:want]

        return draft

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
        # (a range with one distinct continuation) needs no sort.
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
    """Concatenate docs with SEP sentinels and index every suffix. Docs
    hold no SEP, and ids are checked (``check_ids``) after the length."""
    if not corpus.docs:
        raise ValueError("empty corpus")
    ends = np.cumsum([len(doc) for doc in corpus.docs])
    if ends[-1] + len(corpus.docs) + 1 > _MAX_TOKENS:
        raise ValueError(f"corpus too large for format v{STATS_VERSION}")
    ids = check_ids(corpus.docs, corpus.vocab.size)
    if (ids == SEP).any():
        raise ValueError("a document holds SEP")
    # A SEP after each document, and the terminator after the last one.
    tokens = np.insert(ids.astype(np.uint32), np.append(ends, ends[-1]), SEP)
    del ids
    sa = build_suffix_array(tokens)
    return StatsDB(tokens, sa, corpus.vocab.size)


def save_stats_db(db: StatsDB, path: str | Path) -> None:
    _container.write(
        path, STATS_MAGIC, STATS_VERSION, _HEADER, (db.vocab_size,),
        (db.tokens, db.suffix_array), _ARRAY_DTYPES,
    )


def load_stats_db(path: str | Path) -> StatsDB:
    """Read an HDSA file, failing closed: the container's checks, two
    arrays and every ``StatsDB`` check, suffix order included, run."""
    (vocab_size,), arrays = _container.read(
        path, STATS_MAGIC, STATS_VERSION, "stats-db", _HEADER, _ARRAY_DTYPES
    )
    if len(arrays) != 2:
        raise ValueError(f"corrupt stats-db file: {len(arrays)} arrays, not 2")
    return StatsDB(*arrays, vocab_size)
