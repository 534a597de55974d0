"""The two rules every numeric setting is checked by, and the one rule
every builder checks a corpus's token ids by, each written once.

bool is an int subclass, and JSON ``true`` must not pass as 1, so no rule
takes a bool; ``np.bool_`` is not a ``numbers.Real`` either.
"""

from __future__ import annotations

import math
import numbers
from itertools import chain

import numpy as np

U32_MAX = 2**32 - 1  # the largest value a ``u32`` header field holds


def check_int(name: str, value: object, least: int = 1, most: float = math.inf) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int``, not a bool, in [``least``, ``most``]."""
    if type(value) is not int or not least <= value <= most:
        bound = f"<= {most}" if type(value) is int and value > most else f">= {least}"
        raise ValueError(f"{name} must be an integer {bound}, not {value!r}")


def check_number(name: str, value: object, positive: bool) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite ``numbers.Real``,
    not a bool, and > 0 (``positive``) or >= 0."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value)) or value < 0 or (positive and value == 0):
        least = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be a finite number {least}, not {value!r}")


def check_ids(docs: list[list[int]], bound: int) -> np.ndarray:
    """Every id of ``docs``, one doc after another, as one int64 array;
    raise ``ValueError`` unless each is an ``int``, not a bool, in
    [0, ``bound``), for a ``bound`` of at most 2**63. A numpy cast would
    truncate a float and make a bool 1, so types are checked first."""
    flat = list(chain.from_iterable(docs))
    try:
        if set(map(type, flat)) <= {int}:
            ids = np.fromiter(flat, np.int64, len(flat))
            if not len(ids) or 0 <= ids.min() and ids.max() < bound:
                return ids
    except OverflowError:  # an int past int64
        pass
    raise ValueError(f"token ids must be integers in [0, {bound})")
