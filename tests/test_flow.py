"""The minimum odd cut against the all-vertex Gomory-Hu reference, and the
flow queries' results pinned on seeded inputs."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import hitsp._flow
from hitsp._flow import (
    _arc_masks,
    _closure,
    _max_flow,
    _rows,
    first_tight_set,
    members,
    min_odd_cut,
    small_edge_cut_witness,
)


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
        side = set(members(_closure(_arc_masks(residual)[0], 1 << s)))
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


def random_cycles(rng, n):
    """Unit edges of one to three random Hamiltonian cycles on n vertices,
    plus a few random edges: connectivity from 2 up, parallel edges, loops."""
    edges = []
    for _ in range(int(rng.integers(1, 4))):
        order = [int(v) for v in rng.permutation(n)]
        edges += zip(order, order[1:] + order[:1])
    edges += [tuple(int(v) for v in rng.integers(0, n, size=2)) for _ in range(int(rng.integers(0, n)))]
    return edges


def random_tree_point(rng, n):
    """A point of the spanning-tree polytope on n vertices: a convex
    combination of random spanning trees, some edges split into two items."""
    weights = [Fraction(int(rng.integers(1, 9)), 1) for _ in range(int(rng.integers(1, 4)))]
    total = sum(weights)
    mass = {}
    for w in weights:
        order = [int(v) for v in rng.permutation(n)]
        for i in range(1, n):
            pair = tuple(sorted((order[i], order[int(rng.integers(i))])))
            mass[pair] = mass.get(pair, 0) + w / total
    items = []
    for (u, v), x in sorted(mass.items()):
        items += [(u, v, x / 2), (v, u, x / 2)] if rng.random() < 0.2 else [(u, v, x)]
    return items


def seeded_flow_queries():
    """``min_odd_cut``, ``small_edge_cut_witness`` and ``first_tight_set`` on
    seeded inputs, as one JSON text."""
    rng = np.random.default_rng(1984)
    out = []
    for _ in range(150):
        n = int(rng.integers(2, 13))
        edges = random_multigraph(rng, n)
        odd = [int(v) for v in rng.choice(n, size=2 * int(rng.integers(0, n // 2 + 1)), replace=False)]
        found = min_odd_cut(n, edges, odd)
        out.append(found and [found[0], sorted(found[1])])
        unit = random_cycles(rng, n)
        for k in range(1, 7):
            witness = small_edge_cut_witness(n, unit, k)
            out.append(witness and sorted(witness))
    for _ in range(80):
        tight = first_tight_set(int(n := rng.integers(3, 9)), random_tree_point(rng, int(n)))
        out.append(tight and sorted(tight))
    return json.dumps(out)


def test_flow_queries_are_pinned_on_seeded_inputs():
    """The same results, side for side, as the set-based closures gave."""
    assert hashlib.sha256(seeded_flow_queries().encode()).hexdigest() == PINNED_FLOW_QUERIES


PINNED_FLOW_QUERIES = "4671ba6bc62505d3d5bc0e6a168a222ec5bcd6aeaa4ed812b1e7e100290ab4dc"
