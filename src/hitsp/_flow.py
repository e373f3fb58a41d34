"""Exact cut queries on undirected multigraphs, all from one integer max flow.

:func:`_max_flow` (Edmonds-Karp) returns the flow value and the residual
graph.  On top of it: every minimum cut, as the closed sets of residual
graphs (Picard-Queyranne 1980); the minimum odd cut, as a fundamental cut of
a Gomory-Hu tree built by Gusfield's method (Padberg-Rao 1982); and a witness
side for a cut below k edges.  Capacities are summed per vertex pair and
kept as dict rows.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

Rows = list[dict[int, int]]


def _rows(n: int, edges: Iterable[tuple[int, int, int]]) -> Rows:
    """Symmetric capacity rows of an undirected multigraph; loops are dropped."""
    rows: Rows = [{} for _ in range(n)]
    for u, v, c in edges:
        if u != v:
            rows[u][v] = rows[u].get(v, 0) + c
            rows[v][u] = rows[v].get(u, 0) + c
    return rows


def _max_flow(capacity: Rows, sources: Iterable[int], sink: int) -> tuple[int, Rows]:
    """Maximum flow from a source set to ``sink``, and its residual rows."""
    residual = [dict(row) for row in capacity]
    sources = tuple(sources)
    flow = 0
    while True:
        parent = [-1] * len(residual)
        for s in sources:
            parent[s] = s
        queue = deque(sources)
        while queue and parent[sink] < 0:
            u = queue.popleft()
            for v, r in residual[u].items():
                if r > 0 and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            return flow, residual
        path = []
        v = sink
        while parent[v] != v:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        flow += bottleneck


def _closure(residual: Rows, start: Iterable[int], forward: bool = True) -> set[int]:
    """Vertices that ``start`` reaches along positive residual arcs.

    With ``forward`` false the arcs are followed backwards: the vertices that
    reach ``start``.
    """
    seen = set(start)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v, r in residual[u].items():
            if v not in seen and (r if forward else residual[v][u]) > 0:
                seen.add(v)
                stack.append(v)
    return seen


def all_min_cuts(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, list[frozenset[int]]]:
    """The edge connectivity λ of a unit-capacity multigraph and its minimum cuts.

    Each cut is listed once, by its side without vertex 0, in no fixed order.
    A side whose least vertex is i separates {0..i-1} from i, so it is a sink
    side of the ({0..i-1}, i)-flow when that flow equals λ.  The branching
    puts each free vertex on the source side with all it reaches, or on the
    sink side with all that reaches it; both choices stay closed, so every
    leaf is a distinct minimum cut.
    """
    capacity = _rows(n, ((u, v, 1) for u, v in edges))
    flows = [_max_flow(capacity, range(i), i) for i in range(1, n)]
    lam = min(value for value, _ in flows)
    sides: list[frozenset[int]] = []

    def branch(residual: Rows, inside: set[int], outside: set[int]) -> None:
        free = next((v for v in range(n) if v not in inside and v not in outside), None)
        if free is None:
            sides.append(frozenset(outside))
            return
        branch(residual, inside | _closure(residual, (free,)), outside)
        branch(residual, inside, outside | _closure(residual, (free,), False))

    for i, (value, residual) in enumerate(flows, start=1):
        if value == lam:
            branch(residual, _closure(residual, range(i)), _closure(residual, (i,), False))
    return lam, sides


def min_odd_cut(
    n: int, edges: Iterable[tuple[int, int, int]], odd: Iterable[int]
) -> tuple[int, frozenset[int]] | None:
    """A cheapest cut with an odd number of ``odd`` vertices on each side.

    Returns (capacity, side without vertex 0), or None when ``odd`` is empty;
    ``odd`` must have even size.  In Gusfield's tree the edge from s to
    ``parent[s]`` carries the minimum s-parent cut, and the vertices below s
    are a minimizing side of it.
    """
    odd = set(odd)
    if not odd:
        return None
    capacity = _rows(n, edges)
    parent = [0] * n
    weight = [0] * n
    for s in range(1, n):
        t = parent[s]
        value, residual = _max_flow(capacity, (s,), t)
        side = _closure(residual, (s,))
        weight[s] = value
        for i in side - {s}:
            if parent[i] == t:
                parent[i] = s
        if parent[t] in side:
            parent[s], parent[t] = parent[t], s
            weight[s], weight[t] = weight[t], value
    below = [{s} for s in range(n)]
    for v in range(1, n):
        u = parent[v]
        while u != 0:
            below[u].add(v)
            u = parent[u]
    best = min(
        (s for s in range(1, n) if len(below[s] & odd) % 2), key=weight.__getitem__
    )
    return weight[best], frozenset(below[best])


def small_edge_cut_witness(
    n: int, edges: Iterable[tuple[int, int]], k: int
) -> frozenset[int] | None:
    """A vertex set whose boundary has fewer than k edges, or None if k-connected."""
    capacity = _rows(n, ((u, v, 1) for u, v in edges))
    for t in range(1, n):
        value, residual = _max_flow(capacity, (0,), t)
        if value < k:
            return frozenset(range(n)) - _closure(residual, (0,))
    return None
