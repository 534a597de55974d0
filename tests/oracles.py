"""Plain references the package's vectorized code is tested against.

``KGramModel.sample`` draws without building a vocabulary-sized vector;
the tests check it against ``apply_temperature`` applied to
``KGramModel.next_distribution`` and an inverse-CDF draw over the result.
``build_model_db`` counts packed grams with numpy; the tests check its
table against ``model_db_entries``, a ``Counter`` and one ``sorted``.
"""

from collections import Counter

import numpy as np

from hierdraft._checks import check_number

_TINY = np.finfo(np.float64).tiny  # smallest normal float64


def apply_temperature(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Rescale a distribution; T == 0 collapses to argmax (lowest id wins ties).

    A temperature that is not a finite, non-bool number >= 0 raises
    ``ValueError``.
    """
    check_number("temperature", temperature, positive=False)
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
        # is 1, the sum cannot.
        powered = np.power(probs / probs.max(), 1.0 / temperature)
        total = powered.sum()
    return powered / total


def model_db_entries(docs, top_k, window, per_key):
    """The table ``build_model_db`` keeps, as key -> [(value, count), ...]
    in each key's row order: every (1 + window)-gram inside a doc counted,
    the ``top_k`` most frequent kept (ties by ascending gram), grouped
    under their first token in rank order, and each key cut to
    ``per_key`` values. The table has no key order of its own."""
    size = 1 + window
    freq = Counter()
    for doc in docs:
        for i in range(len(doc) - size + 1):
            freq[tuple(doc[i:i + size])] += 1
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    entries = {}
    for gram, count in ranked:
        entries.setdefault(gram[0], []).append((gram[1:], count))
    for rows in entries.values():
        del rows[per_key:]
    return entries
