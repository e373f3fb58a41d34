"""Minimum-cut enumeration and the laminar contraction hierarchy."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hitsp._flow import small_edge_cut_witness
from hitsp.cli import HIERARCHY_CORPUS
from hitsp.cuts import (
    InternalHierarchyError,
    _assert_cut_free,
    boundary_edges,
    build_hierarchy,
    canonical_side,
    enumerate_min_cuts,
    level_tree_problem,
)
from hitsp.instance import (
    GADGET_BUILDERS,
    HALF,
    build_support_graph,
    generate_instance,
    make_instance,
    split_vertex_for_eplus,
)

REFERENCE_SPECS = [label for label, _ in HIERARCHY_CORPUS] + [
    "cycle_chain:10",
    "cycle_chain:18",
    "random_half_integral:10",
    "random_half_integral:14",
    "random_half_integral:18",
]


def reference_instance(spec):
    family, _, size = spec.partition(":")
    return generate_instance(family, int(size)) if size else GADGET_BUILDERS[spec]()


def support_for(inst):
    return build_support_graph(split_vertex_for_eplus(inst))


def brute_force_min_cut_sides(support):
    """All proper vertex sets crossed by exactly 4 support edges (side w/o 0)."""
    n = support.n
    rest = list(range(1, n))
    out = set()
    for size in range(1, n):
        for side in combinations(rest, size):
            side_set = frozenset(side)
            if len(boundary_edges(support, side_set)) == 4:
                out.add(side_set)
    return out


def exhaustive_min_cut_sides(support):
    """Reference: scan all 2^(n-1) sides without vertex 0 for 4-edge boundaries."""
    n = support.n
    masks = np.arange(1, 1 << (n - 1), dtype=np.uint32)
    counts = np.zeros(masks.shape, dtype=np.int16)
    for e in support.edges:
        bu = (masks >> (e.u - 1)) & 1 if e.u > 0 else np.zeros_like(masks)
        bv = (masks >> (e.v - 1)) & 1 if e.v > 0 else np.zeros_like(masks)
        counts += (bu ^ bv).astype(np.int16)
    hits = masks[counts == 4]
    out = []
    for mask in hits.tolist():
        out.append(frozenset(i + 1 for i in range(n - 1) if (mask >> i) & 1))
    return out


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_min_cut_enumeration_matches_exhaustive_scan(spec):
    support = support_for(reference_instance(spec))
    cuts = enumerate_min_cuts(support)
    want = sorted(exhaustive_min_cut_sides(support), key=lambda s: (min(s), len(s), sorted(s)))
    assert [c.vertices for c in cuts] == want


def circulant_blob(offset, size=9):
    """Edges of the 4-regular circulant C_size(1, 2) on vertices offset, offset + 1, ..."""
    return [
        (offset + i, offset + (i + step) % size) for i in range(size) for step in (1, 2)
    ]


def test_small_edge_cut_witness_finds_a_planted_three_edge_cut():
    edges = circulant_blob(0) + circulant_blob(9) + [(0, 9), (3, 12), (6, 15)]
    assert small_edge_cut_witness(18, edges, 4) == frozenset(range(9, 18))
    assert small_edge_cut_witness(18, edges, 3) is None


def test_cut_free_check_rejects_a_proper_cut_above_sixteen_children():
    # Two 9-vertex blobs joined by a 4-edge cut, at 17 children plus the outside.
    edges = set(circulant_blob(0) + circulant_blob(9))
    edges -= {(0, 1), (2, 3), (9, 10), (11, 12)}
    edges |= {(0, 9), (1, 10), (2, 11), (3, 12)}
    support = build_support_graph(
        make_instance("two_blobs", 18, [(u, v, HALF, Fraction(1)) for u, v in sorted(edges)])
    )
    children = list(range(1, 18))
    parts = {v: frozenset([v]) for v in children}
    with pytest.raises(InternalHierarchyError):
        _assert_cut_free(support, children, parts)
    # The same contracted graph around one blob alone has no proper cut.
    _assert_cut_free(support, children[:8], parts)


@pytest.mark.parametrize("name", ["doubled_triangle", "four_blob", "split_k5"])
def test_min_cut_enumeration_matches_brute_force(name):
    support = support_for(GADGET_BUILDERS[name]())
    cuts = enumerate_min_cuts(support)
    assert {c.vertices for c in cuts} == brute_force_min_cut_sides(support)
    for cut in cuts:
        assert 0 not in cut.vertices
        assert tuple(sorted(cut.boundary)) == cut.boundary
        assert set(cut.boundary) == set(boundary_edges(support, cut.vertices))


def test_min_cut_enumeration_matches_brute_force_chain():
    support = support_for(generate_instance("cycle_chain", 3))
    cuts = enumerate_min_cuts(support)
    assert {c.vertices for c in cuts} == brute_force_min_cut_sides(support)


def test_canonical_side_excludes_vertex_zero():
    assert canonical_side([0, 1], 4) == frozenset({2, 3})
    assert canonical_side([2, 3], 4) == frozenset({2, 3})


def test_doubled_triangle_hierarchy_is_pure_ring():
    support = support_for(GADGET_BUILDERS["doubled_triangle"]())
    h = build_hierarchy(support)
    assert not h.internal_nodes()  # only singleton leaves
    assert len(h.final.member_nodes) == 3
    assert len(h.final_edges()) == len(support.edges) == 6
    # every pair class joins consecutive members with two parallel copies
    for cls in h.final.pair_classes:
        assert len(cls) == 2
        (u1, v1), (u2, v2) = (support.endpoints(e) for e in cls)
        assert {u1, v1} == {u2, v2}
    assert support.e_plus_pair is not None
    eplus_class = h.final.pair_classes[h.final.e_plus_class]
    assert set(eplus_class) == set(support.e_plus_pair)


def test_every_edge_has_two_last_cuts_in_its_boundary():
    for inst in (generate_instance("cycle_chain", 3),
                 generate_instance("envelope", 2),
                 GADGET_BUILDERS["four_blob"]()):
        support = support_for(inst)
        h = build_hierarchy(support)
        for e in range(len(support.edges)):
            left, right = h.edge_last_cuts[e]
            assert left != right
            for side in (left, right):
                bnd = boundary_edges(support, side)
                assert e in bnd
                if h.edge_level[e][0] != "final":
                    assert len(bnd) == 4


def test_final_edge_last_cuts_are_endpoint_complements():
    support = support_for(GADGET_BUILDERS["doubled_triangle"]())
    h = build_hierarchy(support)
    for e in h.final_edges():
        u, v = support.endpoints(e)
        sides = set(h.edge_last_cuts[e])
        member_sets = {m: h.nodes[m].vertices for m in h.final.member_nodes}
        want = set()
        for vertex in (u, v):
            owner = next(vs for vs in member_sets.values() if vertex in vs)
            want.add(frozenset(range(support.n)) - owner)
        assert sides == want


def test_charge_groups_cover_exactly_non_final_edges():
    support = support_for(generate_instance("envelope", 3))
    h = build_hierarchy(support)
    groups = h.charge_groups()
    final = set(h.final_edges())
    seen = set()
    for side, edges in groups.items():
        for e in edges:
            assert side in h.edge_last_cuts[e]
            seen.add(e)
    assert seen == set(range(len(support.edges))) - final


def test_cycle_node_structure_envelope():
    support = support_for(generate_instance("envelope", 2))
    h = build_hierarchy(support)
    cycles = h.cycle_nodes()
    assert cycles
    for nd in cycles:
        order = nd.child_order
        assert order is not None and set(order) == set(nd.children)
        assert len(nd.companion_classes) == len(order) - 1
        for i, cls in enumerate(nd.companion_classes):
            assert len(cls) == 2
            a = h.nodes[order[i]].vertices
            b = h.nodes[order[i + 1]].vertices
            for e in cls:
                u, v = support.endpoints(e)
                assert (u in a and v in b) or (u in b and v in a)
        # end pairs: two boundary edges touch each end child
        first, second = nd.end_pairs
        for pair, child in ((first, order[0]), (second, order[-1])):
            assert len(pair) == 2
            child_vs = h.nodes[child].vertices
            for e in pair:
                u, v = support.endpoints(e)
                assert (u in child_vs) != (v in child_vs)


def test_degree_node_internal_edges_span_children():
    support = support_for(GADGET_BUILDERS["split_k5"]())
    h = build_hierarchy(support)
    nodes = h.degree_nodes()
    assert nodes
    for nd in nodes:
        k, edges, marginals = level_tree_problem(h, nd.id)
        assert k == len(nd.children)
        assert all(m == Fraction(1, 2) for m in marginals)
        assert len(edges) == len(nd.internal_edges)
        touched = set()
        for a, b, e in edges:
            assert a != b
            assert 0 <= a < k and 0 <= b < k
            touched.update((a, b))
            assert e in nd.internal_edges
        assert touched == set(range(k))


def test_classification_covers_all_min_cuts():
    for inst in (generate_instance("cycle_chain", 4),
                 generate_instance("envelope", 3),
                 GADGET_BUILDERS["split_k5"](),
                 GADGET_BUILDERS["split_octahedron"]()):
        support = support_for(inst)
        h = build_hierarchy(support)
        kinds = {h.classify_min_cut(cut)[0] for cut in h.min_cuts}
        assert kinds <= {"critical", "interval", "arc"}
        assert "critical" in kinds
        # rings with >= 4 members contribute arc cuts distinct from members
        if len(h.final.member_nodes) >= 4:
            assert "arc" in kinds


def test_edge_levels_partition_support():
    support = support_for(generate_instance("envelope", 2))
    h = build_hierarchy(support)
    tops, bottoms, finals = h.top_edges(), h.bottom_edges(), h.final_edges()
    assert set(tops) | set(bottoms) | set(finals) == set(range(len(support.edges)))
    assert not (set(tops) & set(bottoms))
    assert not (set(tops) & set(finals))
    # final edges are exactly the ring pair classes
    ring = {e for cls in h.final.pair_classes for e in cls}
    assert set(finals) == ring


def test_bottom_edges_live_inside_cycle_nodes():
    support = support_for(generate_instance("envelope", 2))
    h = build_hierarchy(support)
    cycle_ids = {nd.id for nd in h.cycle_nodes()}
    for e in h.bottom_edges():
        kind, owner = h.edge_level[e]
        assert kind == "bottom"
        assert owner in cycle_ids
        assert e in h.nodes[owner].internal_edges


def test_to_json_and_dot_are_stable():
    support = support_for(generate_instance("cycle_chain", 2))
    h = build_hierarchy(support)
    d = h.to_json_dict()
    assert {n["id"] for n in d["nodes"]} == {nd.id for nd in h.nodes}
    assert d["final_cycle"]["member_nodes"] == list(h.final.member_nodes)
    dot = h.to_dot()
    assert dot.startswith("digraph hierarchy {")
    assert dot.endswith("}\n")


def test_interval_cuts_are_cycle_child_runs():
    support = support_for(generate_instance("envelope", 3))
    h = build_hierarchy(support)
    intervals = [c for c in h.min_cuts if h.classify_min_cut(c)[0] == "interval"]
    assert intervals
    for cut in intervals:
        _, (node_id, i, j) = h.classify_min_cut(cut)
        node = h.nodes[node_id]
        run = frozenset()
        for idx in range(i, j + 1):
            run = run | h.nodes[node.child_order[idx]].vertices
        assert run in cut.sides()
