"""Reference laws the package's sampler is tested against.

``KGramModel.sample`` draws without building a vocabulary-sized vector;
the tests check it against ``apply_temperature`` applied to
``KGramModel.next_distribution`` and an inverse-CDF draw over the result.
"""

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
