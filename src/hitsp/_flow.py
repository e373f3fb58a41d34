"""Exact cut queries on undirected multigraphs, all from one integer max flow.

:func:`_max_flow` (Edmonds-Karp) returns the flow value and the residual
graph.  On top of it: every minimum cut, as the closed sets of residual
graphs (Picard-Queyranne 1980); the minimum odd cut for an odd set T, from
|T| - 1 flows, as a fundamental cut of a cut tree on T alone (Padberg-Rao
1982); a witness side for a cut below k edges; and the first tight set of a
spanning-tree polytope point, from one flow per edge pair (Picard-Queyranne
1980; Cunningham 1984).  Capacities are summed per vertex pair and kept as
dict rows.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

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
    ``odd`` must have even size.  This builds a Gomory-Hu tree on the odd
    vertices alone, with |odd| - 1 flows.  Its nodes are groups of vertices,
    each holding one odd vertex already cut off; the next one, s, is cut from
    its group's t.  The flow side Y takes every branch F of the tree beyond
    the group whole: F hangs on a tree edge that was a minimum x-y cut with x
    in F, and Y | F (x in Y) or Y - F (x not in Y) is still a minimum s-t
    cut.  So no two cuts cross, each tree edge keeps its fundamental cut, and
    the cheapest one with an odd number of odd vertices on each side is a
    minimum odd cut (Padberg-Rao 1982).
    """
    terminals = sorted(set(odd))
    if not terminals:
        return None
    capacity = _rows(n, edges)
    everything = frozenset(range(n))
    members = [set(everything)]
    taken = [terminals[0]]
    # Tree edges: (group a, group b, value, a's side, the pair it was cut for:
    # the odd vertex on a's side, the one on b's side).
    links: list[tuple[int, int, int, frozenset[int], int, int]] = []
    for s in terminals[1:]:
        g = next(i for i, group in enumerate(members) if s in group)
        t = taken[g]
        value, residual = _max_flow(capacity, (s,), t)
        reach = _closure(residual, (s,))
        split = len(members)
        inside = members[g] & reach
        side = set(inside)
        for k, (a, b, c, cut, x, y) in enumerate(links):
            if g in (a, b):
                far, anchor = (everything - cut, y) if a == g else (cut, x)
                if anchor in reach:
                    side |= far
                    links[k] = (split if a == g else a, split if b == g else b, c, cut, x, y)
        members[g] -= inside
        members.append(inside)
        taken.append(s)
        links.append((split, g, value, frozenset(side), s, t))
    odd_set = set(terminals)
    value, side = min(
        ((c, cut) for _, _, c, cut, _, _ in links if len(cut & odd_set) % 2),
        key=lambda link: link[0],
    )
    return value, side if 0 not in side else everything - side


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


def first_tight_set(n: int, edges: Sequence[tuple[int, int, Fraction]]) -> frozenset[int] | None:
    """The first tight set S (2 <= |S| < n, x(E(S)) = |S| - 1) of a point x of
    the spanning-tree polytope: smallest first, then as ``combinations``
    orders them.  None if there is none; ValueError if x is outside.

    Over L, the lcm of the denominators, edge e gets capacity L x_e and
    vertex v the excess c_v = 2L - L x(delta(v)): an arc to the sink if
    positive, from the source if negative.  The cut of {source} | S is
    2L (|S| - x(E(S))) - (sum of negative c_v), and |S| - x(E(S)) >= 1 on the
    polytope, so the flow from {source, a, b} meets that bound at 1 exactly
    when a tight set holds a and b; the sources' closure is the least one.  A
    tight set is connected, so these least sets include every minimal one.
    """
    scale = lcm(*(x.denominator for _, _, x in edges))
    arcs = [(u, v, x.numerator * (scale // x.denominator)) for u, v, x in edges]
    excess = [2 * scale - sum(w for a, b, w in arcs if v in (a, b)) for v in range(n)]
    source, sink = n, n + 1
    # _rows adds the reverse arcs too; no cut counts them, as the source is
    # always on the source side and the sink never is.
    arcs += [(v, sink, c) if c > 0 else (source, v, -c) for v, c in enumerate(excess) if c]
    capacity = _rows(n + 2, arcs)
    bound = 2 * scale - sum(c for c in excess if c < 0)
    best = None
    for pair in sorted({(min(u, v), max(u, v)) for u, v, _ in edges}):
        value, residual = _max_flow(capacity, (source, *pair), sink)
        if value < bound:
            raise ValueError(f"targets leave the spanning-tree polytope at {pair}")
        side = sorted(_closure(residual, (source, *pair)) - {source})
        if value == bound and len(side) < n and (best is None or (len(side), side) < best):
            best = (len(side), side)
    return None if best is None else frozenset(best[1])
