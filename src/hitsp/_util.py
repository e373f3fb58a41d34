"""Shared low-level helpers: exact rationals, canonical JSON and resource caps.

Everything here is deliberately dependency-light.  Numeric quantities that feed
verification paths are kept as :class:`fractions.Fraction` so that downstream
comparisons can be exact; floats only appear where a caller explicitly asks for
Monte-Carlo estimates.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator


class ResourceCapError(RuntimeError):
    """A request exceeds a configured size or outcome budget."""


def parse_rational(value: object) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a ``"p/q"`` string.

    Floats are rejected: the file formats and internal invariants are exact, and
    silently accepting binary floats would corrupt them.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return Fraction(int(num), int(den))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


@contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift the interpreter's int-to-str digit limit inside the block, where
    it has one (Python 3.11, 3.10.7 and later), and restore it afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        yield
        return
    saved = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def format_rational(value: Fraction) -> object:
    """Render a Fraction as an int when integral, else as a ``"p/q"`` string
    (exact at any size)."""
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    with _unlimited_int_digits():
        return f"{value.numerator}/{value.denominator}"


def canonical_json(payload: object) -> str:
    """Serialize to a canonical JSON text: sorted keys, 2-space indent,
    newline; integers are written in full at any size, and ``Fraction``
    values as ``format_rational`` renders them."""
    with _unlimited_int_digits():
        return json.dumps(payload, sort_keys=True, indent=2, default=format_rational) + "\n"
