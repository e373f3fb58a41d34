"""Shared low-level helpers: exact rationals, canonical JSON, small graph routines.

Everything here is deliberately dependency-light.  Numeric quantities that feed
verification paths are kept as :class:`fractions.Fraction` so that downstream
comparisons can be exact; floats only appear where a caller explicitly asks for
Monte-Carlo estimates.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from typing import Iterable, Sequence


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


class UnionFind:
    """Standard disjoint-set forest with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self._parent = list(range(n))
        self._size = [1] * n

    def find(self, a: int) -> int:
        root = a
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[a] != root:
            self._parent[a], a = root, self._parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def groups(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i in range(len(self._parent)):
            out.setdefault(self.find(i), []).append(i)
        return out


def connected_components(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of an undirected (multi)graph on vertices 0..n-1."""
    uf = UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    return sorted(uf.groups().values())


def _max_flow_upto(capacity: list[list[int]], source: int, sink: int, limit: int) -> int:
    """Edmonds-Karp max flow on an integer capacity matrix, stopping at `limit`."""
    n = len(capacity)
    residual = [row[:] for row in capacity]
    flow = 0
    while flow < limit:
        parent = [-1] * n
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] < 0:
            u = queue.popleft()
            for v in range(n):
                if parent[v] < 0 and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            break
        bottleneck = limit - flow
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, residual[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        flow += bottleneck
    return flow


def _reachable_in_residual(capacity: list[list[int]], source: int, sink: int) -> set[int]:
    """Source side of a min cut: run max flow fully, then BFS the residual."""
    n = len(capacity)
    residual = [row[:] for row in capacity]
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] < 0:
            u = queue.popleft()
            for v in range(n):
                if parent[v] < 0 and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            break
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            b = residual[u][v]
            bottleneck = b if bottleneck is None else min(bottleneck, b)
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in range(n):
            if v not in seen and residual[u][v] > 0:
                seen.add(v)
                queue.append(v)
    return seen


def _capacity_matrix(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    cap = [[0] * n for _ in range(n)]
    for u, v in edges:
        if u != v:
            cap[u][v] += 1
            cap[v][u] += 1
    return cap


def edge_connectivity_at_least(n: int, edges: Sequence[tuple[int, int]], k: int) -> bool:
    """Whether the undirected multigraph has edge connectivity >= k."""
    if n <= 1:
        return True
    cap = _capacity_matrix(n, edges)
    if any(sum(row) < k for row in cap):
        return False
    return all(_max_flow_upto(cap, 0, t, k) >= k for t in range(1, n))


def small_edge_cut_witness(
    n: int, edges: Sequence[tuple[int, int]], k: int
) -> frozenset[int] | None:
    """A vertex set whose boundary has fewer than k edges, or None if k-connected."""
    if n <= 1:
        return None
    cap = _capacity_matrix(n, edges)
    for t in range(1, n):
        if _max_flow_upto(cap, 0, t, k) < k:
            side = _reachable_in_residual(cap, 0, t)
            return frozenset(range(n)) - frozenset(side)
    return None


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
