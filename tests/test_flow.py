"""The minimum odd cut against the all-vertex Gomory-Hu reference."""

import numpy as np
import pytest

import hitsp._flow
from hitsp._flow import _closure, _max_flow, _rows, min_odd_cut


def gusfield_min_odd_cut(n, edges, odd):
    """The former ``min_odd_cut``, kept as the reference: Gusfield's tree over
    all n vertices (n - 1 flows), read off by Padberg-Rao.  In the tree the
    edge from s to ``parent[s]`` carries the minimum s-parent cut, and the
    vertices below s are a minimizing side of it."""
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


def cut_value(edges, side):
    return sum(c for u, v, c in edges if (u in side) != (v in side))


def random_multigraph(rng, n):
    """Weighted multigraph edges on n vertices: repeated pairs, loops and zero
    capacities; a third of the graphs fall apart into two blocks."""
    blocks = [range(n)]
    if n >= 4 and rng.random() < 1 / 3:
        cut = int(rng.integers(1, n))
        blocks = [range(cut), range(cut, n)]
    edges = []
    for block in blocks:
        size = len(block)
        for _ in range(int(rng.integers(0, 3 * size + 1))):
            u, v = (block[int(i)] for i in rng.integers(0, size, size=2))
            edges.append((u, v, int(rng.choice([0, 0, 1, 2, 3, 5, 8]))))
    return edges


@pytest.fixture
def flow_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return _max_flow(*args)

    monkeypatch.setattr(hitsp._flow, "_max_flow", counted)
    return calls


def test_min_odd_cut_matches_the_all_vertex_tree(flow_calls):
    rng = np.random.default_rng(1982)
    graphs = zero_minima = 0
    for n in range(2, 13):
        for size in range(2, n + 1, 2):
            for _ in range(30):
                edges = random_multigraph(rng, n)
                odd = [int(v) for v in rng.choice(n, size=size, replace=False)]
                flow_calls.clear()
                value, side = min_odd_cut(n, edges, odd)
                assert len(flow_calls) == size - 1
                assert value == gusfield_min_odd_cut(n, edges, odd)[0]
                assert 0 not in side
                assert len(side & set(odd)) % 2 == 1
                assert cut_value(edges, side) == value
                graphs += 1
                zero_minima += value == 0
    assert graphs >= 1000 and zero_minima > 0


def test_min_odd_cut_without_odd_vertices_runs_no_flow(flow_calls):
    assert min_odd_cut(4, [(0, 1, 3), (1, 2, 1), (2, 3, 2)], []) is None
    assert flow_calls == []
