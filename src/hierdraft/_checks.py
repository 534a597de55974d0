"""The two rules every numeric setting is checked by, each written once.

bool is an int subclass, and JSON ``true`` must not pass as 1, so neither
rule takes a bool; ``np.bool_`` is not a ``numbers.Real`` either.
"""

from __future__ import annotations

import math
import numbers


def check_int(name: str, value: object, least: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int``, not a bool, >= ``least``."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")


def check_number(name: str, value: object, positive: bool) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite ``numbers.Real``,
    not a bool, and > 0 (``positive``) or >= 0."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value)) or value < 0 or (positive and value == 0):
        least = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be a finite number {least}, not {value!r}")
