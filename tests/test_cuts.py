"""Minimum-cut enumeration and the laminar contraction hierarchy."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import hitsp.cuts
from hitsp._flow import _max_flow, _rows, all_min_cuts, members, small_edge_cut_witness
from hitsp.cli import HIERARCHY_CORPUS
from hitsp.cuts import (
    CutHierarchy,
    CutNode,
    FinalCycle,
    InternalHierarchyError,
    MinCut,
    _assert_cut_free,
    _detect_doubled_path,
    _parallel_classes,
    build_hierarchy,
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


def boundary_edges(support, vertices):
    """Reference: sorted support edge ids with exactly one endpoint inside ``vertices``."""
    return tuple(sorted(e.id for e in support.edges if (e.u in vertices) != (e.v in vertices)))


def canonical_side(vertices, n):
    """Reference: the representation of a cut side that excludes vertex 0."""
    side = frozenset(vertices)
    return frozenset(range(n)) - side if 0 in side else side


def cut_sides(cut, n):
    """Both sides of a minimum cut of an ``n``-vertex graph."""
    return (cut.vertices, frozenset(range(n)) - cut.vertices)


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
    assert not [nd for nd in h.nodes if nd.children]  # only singleton leaves
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
            for i in (left, right):
                bnd = boundary_edges(support, h.min_cuts[i].vertices)
                assert e in bnd
                assert len(bnd) == 4


def test_final_edge_last_cuts_are_endpoint_complements():
    support = support_for(GADGET_BUILDERS["doubled_triangle"]())
    h = build_hierarchy(support)
    for e in h.final_edges():
        u, v = support.endpoints(e)
        sides = {h.min_cuts[i].vertices for i in h.edge_last_cuts[e]}
        member_sets = {m: h.nodes[m].vertices for m in h.final.member_nodes}
        want = set()
        for vertex in (u, v):
            owner = next(vs for vs in member_sets.values() if vertex in vs)
            want.add(canonical_side(frozenset(range(support.n)) - owner, support.n))
        assert sides == want


def test_charge_groups_cover_exactly_non_final_edges():
    support = support_for(generate_instance("envelope", 3))
    h = build_hierarchy(support)
    groups = h.charge_groups()
    final = set(h.final_edges())
    seen = set()
    for i, edges in groups.items():
        for e in edges:
            assert i in h.edge_last_cuts[e]
            seen.add(e)
    assert seen == set(range(len(support.edges))) - final


def test_every_split_octahedron_cut_is_needed(monkeypatch):
    """Each of split_octahedron's 8 minimum cuts names a node or a last cut;
    without it the hierarchy cannot be built."""
    support = support_for(GADGET_BUILDERS["split_octahedron"]())
    cuts = enumerate_min_cuts(support)
    h = build_hierarchy(support)
    assert {i for pair in h.edge_last_cuts for i in pair} == set(range(len(cuts))) == set(range(8))
    messages = []
    for i in range(len(cuts)):
        monkeypatch.setattr(hitsp.cuts, "enumerate_min_cuts", lambda s, i=i: cuts[:i] + cuts[i + 1:])
        with pytest.raises(InternalHierarchyError) as info:
            build_hierarchy(support)
        messages.append(str(info.value))
    # Cut 0 is the vertex {1}: its leaf has no minimum cut left to name it.
    assert messages[0] == "vertex set [1] is not a minimum cut"


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


def scan_classify(h, sides):
    """Reference: scan critical nodes, then every cycle node's non-full child
    runs, then the final ring's arcs, for the first set among ``sides``."""
    for nd in h.nodes:
        if nd.vertices in sides:
            return ("critical", nd.id)
    for nd in h.cycle_nodes():
        order = nd.child_order
        for i in range(len(order)):
            acc = frozenset()
            for j in range(i, len(order)):
                acc = acc | h.nodes[order[j]].vertices
                if acc in sides and (i, j) != (0, len(order) - 1):
                    return ("interval", (nd.id, i, j))
    members = h.final.member_nodes
    r = len(members)
    for start in range(r):
        acc = frozenset()
        for length in range(1, r):
            acc = acc | h.nodes[members[(start + length - 1) % r]].vertices
            if acc in sides:
                return ("arc", (start, length))
    return None


CLASSIFY_SPECS = (
    [label for label, _ in HIERARCHY_CORPUS]
    + [f"envelope:{k}" for k in range(6, 11)]
    + [f"cycle_chain:{k}" for k in range(5, 31)]
    + [f"random_half_integral:{k}" for k in range(8, 42)]
    + [f"k5_degree:{k}" for k in range(5, 18)]
)


def test_indexed_classification_equals_the_per_cut_scan():
    cuts = two_kinds = 0
    for spec in CLASSIFY_SPECS:
        h = build_hierarchy(support_for(reference_instance(spec)))
        for cut in h.min_cuts:
            sides = cut_sides(cut, h.support.n)
            assert h.classify_min_cut(cut) == scan_classify(h, set(sides)), (spec, cut)
            kinds = {scan_classify(h, {side}) for side in sides} - {None}
            two_kinds += len({kind for kind, _ in kinds}) == 2
            cuts += 1
    assert cuts == 6973
    # Some cuts have both sides indexed with different kinds (critical vs
    # arc on envelope:1), so only the lower scan rank gives the scan's label.
    assert two_kinds > 0


def test_a_side_in_no_shape_raises():
    h = build_hierarchy(support_for(generate_instance("envelope", 3)))
    n = h.support.n
    strays = [
        MinCut(vertices=frozenset(pair), boundary=(0, 1, 2, 3))
        for pair in combinations(range(1, n), 2)
    ]
    strays = [cut for cut in strays if scan_classify(h, set(cut_sides(cut, n))) is None]
    assert strays
    for cut in strays:
        with pytest.raises(InternalHierarchyError):
            h.classify_min_cut(cut)


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
        assert run in cut_sides(cut, support.n)


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_degree_node_children_split_boundary_into_level_and_rising_edges(spec):
    """A degree node's child crosses the node's level on ``across_edges``
    and rises on ``up_edges``, at most one edge, the rest of its boundary."""
    h = build_hierarchy(support_for(reference_instance(spec)))
    for nd in h.degree_nodes():
        level = set(nd.internal_edges)
        for child in (h.nodes[c] for c in nd.children):
            assert child.across_edges == tuple(f for f in child.boundary if f in level)
            assert child.up_edges == tuple(f for f in child.boundary if f not in level)
            assert len(child.up_edges) <= 1


# The set-based cut engine and contraction replay, kept as references for
# the bitmask ones in hitsp._flow and hitsp.cuts.


def set_closure(residual, start, forward=True):
    """Vertices that ``start`` reaches along positive residual arcs (with
    ``forward`` false: the vertices that reach ``start``)."""
    seen = set(start)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v, r in residual[u].items():
            if v not in seen and (r if forward else residual[v][u]) > 0:
                seen.add(v)
                stack.append(v)
    return seen


def reference_all_min_cuts(n, edges):
    """λ and every minimum cut's side without vertex 0, by recursive
    branching over the residual graphs' closures (Picard-Queyranne)."""
    capacity = _rows(n, ((u, v, 1) for u, v in edges))
    flows = [_max_flow(capacity, range(i), i) for i in range(1, n)]
    lam = min(value for value, _ in flows)
    sides = []

    def branch(residual, inside, outside):
        free = next((v for v in range(n) if v not in inside and v not in outside), None)
        if free is None:
            sides.append(frozenset(outside))
            return
        branch(residual, inside | set_closure(residual, (free,)), outside)
        branch(residual, inside, outside | set_closure(residual, (free,), False))

    for i, (value, residual) in enumerate(flows, start=1):
        if value == lam:
            branch(residual, set_closure(residual, range(i)), set_closure(residual, (i,), False))
    return lam, sides


def reference_min_cuts(support):
    _, sides = reference_all_min_cuts(support.n, ((e.u, e.v) for e in support.edges))
    cuts = [
        MinCut(
            vertices=side,
            boundary=tuple(e.id for e in support.edges if (e.u in side) != (e.v in side)),
        )
        for side in sides
    ]
    return tuple(sorted(cuts, key=lambda c: (min(c.vertices), len(c.vertices), sorted(c.vertices))))


def crossing(a, b):
    """All four regions non-empty; the fourth holds vertex 0."""
    sa, sb = a.vertices, b.vertices
    return bool(sa & sb) and bool(sa - sb) and bool(sb - sa)


def partition_alive(parts, side):
    return all(p <= side or not (p & side) for p in parts)


def reference_hierarchy(support):
    """The contraction replay as it was on frozensets: every round lists the
    alive cuts by ``partition_alive`` and tests each eligible one against
    all of them by ``crossing``."""
    if support.e_plus_pair is None:
        raise ValueError("hierarchy requires an instance with a distinguished doubled edge")
    n = support.n
    min_cuts = reference_min_cuts(support)
    index_of = {cut.vertices: i for i, cut in enumerate(min_cuts)}

    def cut_index(side):
        i = index_of.get(canonical_side(side, n))
        if i is None:
            raise InternalHierarchyError(f"vertex set {sorted(side)} is not a minimum cut")
        return i

    # Every node is a minimum cut: a vertex, or a chosen tight set.
    node_cut = [cut_index(frozenset([v])) for v in range(n)]
    e_plus_edge = support.edges[support.e_plus_pair[0]]
    ep_u, ep_v = e_plus_edge.u, e_plus_edge.v

    nodes = [
        CutNode(
            id=v,
            vertices=frozenset([v]),
            kind="degree",
            parent=None,
            children=(),
            boundary=min_cuts[node_cut[v]].boundary,
            internal_edges=(),
            up_edges=(),
            across_edges=(),
        )
        for v in range(n)
    ]
    node_of_vertex = list(range(n))
    alive_nodes = set(range(n))

    def parts():
        return [nodes[i].vertices for i in sorted(alive_nodes)]

    edge_level = [None] * len(support.edges)
    edge_last = [None] * len(support.edges)

    while True:
        current_parts = parts()
        alive_cuts = [c for c in min_cuts if partition_alive(current_parts, c.vertices)]
        candidates = []
        for cut in alive_cuts:
            inside = sum(1 for p in current_parts if p <= cut.vertices)
            outside = len(current_parts) - inside
            if inside < 2 or outside < 2:
                continue
            if any(crossing(cut, other) for other in alive_cuts if other is not cut):
                continue
            for side in cut_sides(cut, n):
                if not (ep_u in side and ep_v in side):
                    candidates.append(side)
        if not candidates:
            break
        minimal = [
            s for s in candidates if not any(o < s for o in candidates)
        ]
        minimal.sort(key=lambda s: (min(s), len(s), sorted(s)))
        chosen = minimal[0]

        child_ids = sorted({node_of_vertex[v] for v in chosen})
        part_of = {v: node_of_vertex[v] for v in range(n)}
        internal = [
            e.id
            for e in support.edges
            if e.u in chosen
            and e.v in chosen
            and part_of[e.u] != part_of[e.v]
        ]
        classes = _parallel_classes(support, internal, part_of)
        anchor = {c: min(nodes[c].vertices) for c in child_ids}
        order = _detect_doubled_path(child_ids, classes, anchor)
        new_id = len(nodes)
        node_cut.append(cut_index(chosen))
        boundary = min_cuts[node_cut[-1]].boundary
        if order is not None:
            kind = "cycle"
            companion_classes = tuple(
                tuple(sorted(classes[(min(a, b), max(a, b))]))
                for a, b in zip(order, order[1:])
            )
            end_first, end_last = (
                tuple(e for e in boundary if e in nodes[c].boundary) for c in (order[0], order[-1])
            )
            if len(end_first) != 2 or len(end_last) != 2 or set(end_first) & set(end_last):
                raise InternalHierarchyError(
                    "cycle node boundary does not split into two end pairs"
                )
            end_pairs = (end_first, end_last)
            child_order = tuple(order)
        else:
            kind = "degree"
            _assert_cut_free(support, child_ids, {c: nodes[c].vertices for c in child_ids})
            companion_classes = None
            end_pairs = None
            child_order = None

        for c in child_ids:
            nodes[c] = replace(nodes[c], parent=new_id)
        nodes.append(
            CutNode(
                id=new_id,
                vertices=frozenset(chosen),
                kind=kind,
                parent=None,
                children=tuple(child_ids),
                boundary=boundary,
                internal_edges=tuple(sorted(internal)),
                up_edges=(),
                across_edges=(),
                child_order=child_order,
                companion_classes=companion_classes,
                end_pairs=end_pairs,
            )
        )
        for v in chosen:
            node_of_vertex[v] = new_id
        alive_nodes -= set(child_ids)
        alive_nodes.add(new_id)

        level = "bottom" if kind == "cycle" else "top"
        for e in internal:
            edge_level[e] = (level, new_id)
        if kind == "cycle":
            prefix = frozenset()
            for a, b in zip(child_order, child_order[1:]):
                prefix |= nodes[a].vertices
                pair = (cut_index(prefix), cut_index(chosen - prefix))
                for e in classes[(min(a, b), max(a, b))]:
                    edge_last[e] = pair
        else:
            for e in internal:
                u, v = support.endpoints(e)
                edge_last[e] = (node_cut[part_of[u]], node_cut[part_of[v]])

    # Final ring verification and annotation.
    final_ids = sorted(alive_nodes)
    if len(final_ids) < 3:
        raise InternalHierarchyError(
            f"contraction stopped with {len(final_ids)} supernodes, expected a ring of >= 3"
        )
    part_of = {v: node_of_vertex[v] for v in range(n)}
    remaining = [e.id for e in support.edges if part_of[e.u] != part_of[e.v]]
    ring_classes = _parallel_classes(support, remaining, part_of)
    if any(len(v) != 2 for v in ring_classes.values()):
        raise InternalHierarchyError("final parallel classes are not all doubled")
    neighbors = {c: [] for c in final_ids}
    for a, b in ring_classes:
        neighbors[a].append(b)
        neighbors[b].append(a)
    if any(len(v) != 2 for v in neighbors.values()):
        raise InternalHierarchyError("final contracted graph is not a single ring")
    start = min(final_ids, key=lambda c: min(nodes[c].vertices))
    second = min(neighbors[start], key=lambda c: min(nodes[c].vertices))
    ring_order = [start, second]
    while len(ring_order) < len(final_ids):
        nxt = [c for c in neighbors[ring_order[-1]] if c != ring_order[-2]]
        if len(nxt) != 1:
            raise InternalHierarchyError("final contracted graph is not a single ring")
        ring_order.append(nxt[0])
    if ring_order[0] not in neighbors[ring_order[-1]]:
        raise InternalHierarchyError("final contracted graph is not a single ring")

    pair_classes = []
    e_plus_class = None
    for i, a in enumerate(ring_order):
        b = ring_order[(i + 1) % len(ring_order)]
        cls = tuple(sorted(ring_classes[(min(a, b), max(a, b))]))
        pair_classes.append(cls)
        if support.e_plus_pair[0] in cls:
            e_plus_class = i
    if e_plus_class is None:
        raise InternalHierarchyError("distinguished doubled edge is not on the final ring")
    for i, cls in enumerate(pair_classes):
        # A ring edge's last cuts are its end members' complements: the same cuts.
        pair = (node_cut[ring_order[i]], node_cut[ring_order[(i + 1) % len(ring_order)]])
        for e in cls:
            edge_level[e] = ("final", i)
            edge_last[e] = pair

    if any(level is None for level in edge_level):
        raise InternalHierarchyError("some support edge was never assigned a level")

    # Fill per-node up/across edges from parent boundaries.
    finished = []
    for nd in nodes:
        parent_boundary = set(nodes[nd.parent].boundary) if nd.parent is not None else set()
        up = tuple(sorted(set(nd.boundary) & parent_boundary))
        across = tuple(sorted(set(nd.boundary) - parent_boundary))
        parent_kind = nodes[nd.parent].kind if nd.parent is not None else None
        if parent_kind == "degree" and len(up) > 1:
            raise InternalHierarchyError(
                f"child {nd.id} of a degree node has {len(up)} rising boundary edges"
            )
        if parent_kind == "cycle" and len(up) not in (0, 2):
            raise InternalHierarchyError(
                f"child {nd.id} of a cycle node has {len(up)} rising boundary edges"
            )
        finished.append(replace(nd, up_edges=up, across_edges=across))

    hierarchy = CutHierarchy(
        support=support,
        nodes=tuple(finished),
        final=FinalCycle(
            member_nodes=tuple(ring_order),
            pair_classes=tuple(pair_classes),
            e_plus_class=e_plus_class,
        ),
        min_cuts=min_cuts,
        edge_level=tuple(edge_level),
        edge_last_cuts=tuple(edge_last),
    )
    for cut in min_cuts:
        hierarchy.classify_min_cut(cut)
    return hierarchy



REPLAY_SPECS = REFERENCE_SPECS + [
    *(f"envelope:{k}" for k in range(6, 11)),
    "cycle_chain:30",
    "cycle_chain:60",
    "random_half_integral:26",
    "random_half_integral:40",
]


@pytest.mark.parametrize("spec", REPLAY_SPECS)
def test_mask_replay_equals_the_set_replay(spec):
    support = support_for(reference_instance(spec))
    built, reference = build_hierarchy(support), reference_hierarchy(support)
    for field in ("min_cuts", "nodes", "final", "edge_level", "edge_last_cuts"):
        assert getattr(built, field) == getattr(reference, field), field


def random_connected_multigraph(rng, n):
    """Unit edges of one or two random Hamiltonian cycles on n vertices, at
    times a random matching, a few random chords and a doubled edge: parallel
    edges, and λ from 2 to 4 and beyond."""
    edges = []
    for _ in range(int(rng.integers(1, 3))):
        order = [int(v) for v in rng.permutation(n)]
        edges += zip(order, order[1:] + order[:1])
    if rng.random() < 0.5:
        order = [int(v) for v in rng.permutation(n)]
        edges += zip(order[::2], order[1::2])
    edges += [tuple(int(v) for v in rng.choice(n, size=2, replace=False)) for _ in range(int(rng.integers(0, n // 3 + 1)))]
    edges.append(edges[int(rng.integers(len(edges)))])
    return edges


def scanned_min_cuts(n, edges):
    """λ and the minimum cuts' side masks without vertex 0, by scanning all
    2^(n-1) - 1 such sides."""
    sides = np.arange(1, 1 << (n - 1), dtype=np.int64) << 1
    counts = sum(((sides >> u) ^ (sides >> v)) & 1 for u, v in edges)
    lam = int(counts.min())
    return lam, sorted(sides[counts == lam].tolist())


def test_cut_engine_equals_the_side_scan_for_connectivity_two_to_four():
    """λ and the side set are what ``_assert_cut_free`` reads of any
    contracted graph; here both come out as the scan's on seeded multigraphs."""
    rng = np.random.default_rng(1980)
    seen = {}
    for _ in range(240):
        n = int(rng.integers(3, 12))
        edges = random_connected_multigraph(rng, n)
        lam, sides = all_min_cuts(n, edges)
        assert (lam, sorted(sides)) == scanned_min_cuts(n, edges)
        assert len(set(sides)) == len(sides)
        seen[lam] = seen.get(lam, 0) + 1
    assert all(seen.get(lam, 0) >= 20 for lam in (2, 3, 4)), seen
