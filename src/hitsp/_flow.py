"""Exact cut queries on undirected multigraphs, all from one integer max flow.

:func:`_max_flow` (Edmonds-Karp) returns the flow value and the residual
graph.  On top of it: every minimum cut, as the closed sets of residual
graphs (Picard-Queyranne 1980); the minimum odd cut for an odd set T, from
|T| - 1 flows, as a fundamental cut of a cut tree on T alone (Padberg-Rao
1982); a witness side for a cut below k edges; and the first tight set of a
spanning-tree polytope point, from one flow per edge pair (Picard-Queyranne
1980; Cunningham 1984).  Capacities are summed per vertex pair and kept as
dict rows.  Vertex sets are int bitmasks (bit v for vertex v): a residual's
positive arcs become one mask per vertex, and every closure is a frontier
expansion over those masks.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import compress
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
    """Maximum flow from a source set to ``sink``, and its residual rows.

    Each augmenting path is a shortest one, searched back from the sink, so
    a search stops at the first source it meets however many there are.
    """
    residual = [dict(row) for row in capacity]
    is_source = [False] * len(residual)
    for s in sources:
        is_source[s] = True
    flow = 0
    while True:
        toward = [-1] * len(residual)  # the next vertex on a path to the sink
        toward[sink] = sink
        queue = deque((sink,))
        start = -1
        while queue and start < 0:
            v = queue.popleft()
            for u in residual[v]:
                if toward[u] < 0 and residual[u][v] > 0:
                    toward[u] = v
                    if is_source[u]:
                        start = u
                        break
                    queue.append(u)
        if start < 0:
            return flow, residual
        path = []
        u = start
        while u != sink:
            path.append((u, toward[u]))
            u = toward[u]
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        flow += bottleneck


def _arc_masks(residual: Rows) -> tuple[list[int], list[int]]:
    """Per vertex: the mask of the heads of its positive residual arcs, and
    the mask of the tails of the positive arcs into it."""
    forward = [0] * len(residual)
    backward = [0] * len(residual)
    for u, row in enumerate(residual):
        for v, r in row.items():
            if r > 0:
                forward[u] |= 1 << v
                backward[v] |= 1 << u
    return forward, backward


def _closure(arcs: Sequence[int], frontier: int, seen: int = 0) -> int:
    """``seen`` with every vertex that ``frontier`` reaches along ``arcs``.

    ``arcs[u]`` masks the vertices one arc away from u: the ``forward``
    masks of :func:`_arc_masks`, or its ``backward`` masks for the vertices
    that reach ``frontier``.  ``seen`` must be closed already; the expansion
    stops at it.
    """
    seen |= frontier
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= arcs[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def members(mask: int) -> list[int]:
    """The vertices of a mask, ascending."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGITS)
    return list(compress(range(len(digits)), digits))


def all_min_cuts(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, list[int]]:
    """The edge connectivity λ of a unit-capacity multigraph and its minimum cuts.

    Each cut is listed once, as the mask of its side without vertex 0, in no
    fixed order.  A side whose least vertex is i separates {0..i-1} from i,
    so it is a sink side of the ({0..i-1}, i)-flow when that flow equals λ.
    Each branch puts the least free vertex on the source side with all it
    reaches, or on the sink side with all that reaches it; both choices stay
    closed, so every leaf is a distinct minimum cut.
    """
    capacity = _rows(n, ((u, v, 1) for u, v in edges))
    flows = [_max_flow(capacity, range(i), i) for i in range(1, n)]
    lam = min(value for value, _ in flows)
    everything = (1 << n) - 1
    sides: list[int] = []
    for i, (value, residual) in enumerate(flows, start=1):
        if value != lam:
            continue
        forward, backward = _arc_masks(residual)
        stack = [(_closure(forward, (1 << i) - 1), _closure(backward, 1 << i))]
        while stack:
            inside, outside = stack.pop()
            free = everything & ~(inside | outside)
            if not free:
                sides.append(outside)
                continue
            low = free & -free
            stack.append((inside, _closure(backward, low, outside)))
            stack.append((_closure(forward, low, inside), outside))
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
    everything = (1 << n) - 1
    groups = [everything]
    taken = [terminals[0]]
    # Tree edges: (group a, group b, value, a's side mask, the pair it was
    # cut for: the odd vertex on a's side, the one on b's side).
    links: list[tuple[int, int, int, int, int, int]] = []
    for s in terminals[1:]:
        g = next(i for i, group in enumerate(groups) if group >> s & 1)
        t = taken[g]
        value, residual = _max_flow(capacity, (s,), t)
        reach = _closure(_arc_masks(residual)[0], 1 << s)
        split = len(groups)
        inside = groups[g] & reach
        side = inside
        for k, (a, b, c, cut, x, y) in enumerate(links):
            if g in (a, b):
                far, anchor = (everything ^ cut, y) if a == g else (cut, x)
                if reach >> anchor & 1:
                    side |= far
                    links[k] = (split if a == g else a, split if b == g else b, c, cut, x, y)
        groups[g] ^= inside
        groups.append(inside)
        taken.append(s)
        links.append((split, g, value, side, s, t))
    odd_mask = sum(1 << v for v in terminals)
    value, side = min(
        ((c, cut) for _, _, c, cut, _, _ in links if (cut & odd_mask).bit_count() % 2),
        key=lambda link: link[0],
    )
    return value, frozenset(members(everything ^ side if side & 1 else side))


def small_edge_cut_witness(
    n: int, edges: Iterable[tuple[int, int]], k: int
) -> frozenset[int] | None:
    """A vertex set whose boundary has fewer than k edges, or None if k-connected."""
    capacity = _rows(n, ((u, v, 1) for u, v in edges))
    for t in range(1, n):
        value, residual = _max_flow(capacity, (0,), t)
        if value < k:
            reach = _closure(_arc_masks(residual)[0], 1)
            return frozenset(members(((1 << n) - 1) ^ reach))
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
        start = (1 << source) | (1 << pair[0]) | (1 << pair[1])
        side = members(_closure(_arc_masks(residual)[0], start) ^ (1 << source))
        if value == bound and len(side) < n and (best is None or (len(side), side) < best):
            best = (len(side), side)
    return None if best is None else frozenset(best[1])
