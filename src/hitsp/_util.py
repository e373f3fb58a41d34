"""Shared low-level helpers: exact rationals, canonical JSON, small graph routines.

Everything here is deliberately dependency-light.  Numeric quantities that feed
verification paths are kept as :class:`fractions.Fraction` so that downstream
comparisons can be exact; floats only appear where a caller explicitly asks for
Monte-Carlo estimates.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence


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


def format_rational(value: Fraction) -> object:
    """Render a Fraction as an int when integral, else as a ``"p/q"`` string."""
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def canonical_json(payload: object) -> str:
    """Serialize to a canonical JSON text: sorted keys, 2-space indent, newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def euler_circuit(n: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Vertex sequence of an Euler circuit of a connected even-degree multigraph.

    Returns a closed walk (first vertex repeated at the end) using every edge
    exactly once.  Raises ValueError if no circuit exists.
    """
    if not edges:
        raise ValueError("no edges")
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
    if any(len(inc) % 2 for inc in adjacency):
        raise ValueError("odd-degree vertex: no Euler circuit")
    used = [False] * len(edges)
    cursor = [0] * n
    start = edges[0][0]
    stack = [start]
    walk: list[int] = []
    while stack:
        u = stack[-1]
        advanced = False
        while cursor[u] < len(adjacency[u]):
            v, idx = adjacency[u][cursor[u]]
            cursor[u] += 1
            if not used[idx]:
                used[idx] = True
                stack.append(v)
                advanced = True
                break
        if not advanced:
            walk.append(stack.pop())
    if not all(used):
        raise ValueError("graph is not connected on its edge set")
    return walk[::-1]


def shortcut_order(walk: Sequence[int]) -> list[int]:
    """First-visit order of a closed walk (the classic shortcutting step)."""
    seen: set[int] = set()
    order: list[int] = []
    for v in walk:
        if v not in seen:
            seen.add(v)
            order.append(v)
    return order
