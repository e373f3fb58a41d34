"""Minimum cuts and the laminar contraction hierarchy of the support graph.

All support graphs here are 4-regular and 4-edge-connected, so every minimum
cut has exactly four boundary edges.  The hierarchy is produced by replaying
the contraction loop of the rounding algorithm: repeatedly pick an
inclusion-minimal tight vertex set that is proper in the current contracted
graph, is not crossed by any other tight set, and does not enclose the
distinguished doubled edge; classify its contracted structure as a doubled
path ("cycle" node) or a cut-free core ("degree" node); contract and repeat.
The loop must terminate with a ring of doubled parallel classes — anything
else is an internal error, not a user error.

The hierarchy then annotates every support edge with its sampling level and
its two *last cuts* (the innermost minimum cuts separating its endpoints),
which drive the parity-correction charging downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._flow import all_min_cuts
from .instance import SupportGraph

# Unused by the library: perfbench/tracing.py imports it to count "Karger"
# instances (support n above it).  It goes with the next benchmark change.
EXHAUSTIVE_CUT_LIMIT = 20


class InternalHierarchyError(RuntimeError):
    """The contraction replay reached a state the structure theory forbids."""


@dataclass(frozen=True, order=True)
class MinCut:
    """A minimum cut, stored as the side that excludes vertex 0.

    ``boundary`` lists the four support edge ids crossing the cut, sorted.
    ``n`` is the total vertex count, needed to reason about the other side.
    """

    vertices: frozenset[int]
    boundary: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if 0 in self.vertices:
            raise ValueError("canonical cut side must exclude vertex 0")
        if len(self.boundary) != 4:
            raise ValueError(f"minimum cut must have 4 boundary edges, got {len(self.boundary)}")

    def complement(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.vertices

    def sides(self) -> tuple[frozenset[int], frozenset[int]]:
        return (self.vertices, self.complement())


def canonical_side(vertices: Iterable[int], n: int) -> frozenset[int]:
    """The representation of a cut side that excludes vertex 0."""
    side = frozenset(vertices)
    if 0 in side:
        side = frozenset(range(n)) - side
    return side


def boundary_edges(support: SupportGraph, vertices: frozenset[int]) -> tuple[int, ...]:
    """Sorted support edge ids with exactly one endpoint inside ``vertices``."""
    return tuple(
        e.id for e in support.edges if (e.u in vertices) != (e.v in vertices)
    )


def enumerate_min_cuts(support: SupportGraph) -> tuple[MinCut, ...]:
    """All minimum (4-edge) cuts, exactly, from the residual graphs of n - 1 flows.

    Results are sorted by (min vertex, size, vertex tuple) of the canonical
    side.
    """
    _, sides = all_min_cuts(support.n, ((e.u, e.v) for e in support.edges))
    cuts = [
        MinCut(vertices=s, boundary=boundary_edges(support, s), n=support.n)
        for s in sides
    ]
    return tuple(sorted(cuts, key=lambda c: (min(c.vertices), len(c.vertices), sorted(c.vertices))))


def crossing(a: MinCut, b: MinCut) -> bool:
    """Whether the two cuts cross: all four intersection regions non-empty.

    Crossing is invariant under flipping either cut to its other side, so it
    is well-defined on canonical sides (both of which exclude vertex 0, making
    the fourth region automatically non-empty).
    """
    if a.n != b.n:
        raise ValueError("cuts from different graphs")
    sa, sb = a.vertices, b.vertices
    return bool(sa & sb) and bool(sa - sb) and bool(sb - sa)


@dataclass(frozen=True)
class CutNode:
    """One node of the laminar hierarchy.

    Leaves are single vertices (kind "degree", no children).  Internal nodes
    are the contracted tight sets, classified by the shape of their contracted
    interior: "cycle" when the children form a doubled path, "degree" when the
    contracted graph around them has no proper minimum cuts.

    ``up_edges`` are boundary edges shared with the parent's boundary (edges
    that remain on the boundary one level up); ``across_edges`` are the rest.
    ``child_order``/``companion_classes``/``end_pairs`` are cycle-node only:
    children in path order, the doubled parallel classes joining consecutive
    children, and the two boundary-edge pairs grouped by which end child they
    touch.
    """

    id: int
    vertices: frozenset[int]
    kind: str
    parent: int | None
    children: tuple[int, ...]
    boundary: tuple[int, ...]
    internal_edges: tuple[int, ...]
    up_edges: tuple[int, ...]
    across_edges: tuple[int, ...]
    child_order: tuple[int, ...] | None = None
    companion_classes: tuple[tuple[int, ...], ...] | None = None
    end_pairs: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass(frozen=True)
class FinalCycle:
    """The ring of doubled parallel classes left when contraction stops.

    ``member_nodes`` lists top-level node ids in ring order; ``pair_classes[i]``
    joins members i and i+1 (cyclically).  ``e_plus_class`` indexes the class
    holding the distinguished doubled edge.
    """

    member_nodes: tuple[int, ...]
    pair_classes: tuple[tuple[int, ...], ...]
    e_plus_class: int


@dataclass(frozen=True)
class CutHierarchy:
    """The full annotated hierarchy over a support graph.

    ``edge_level[e]`` is ("bottom", node), ("top", node) or ("final", class
    index); ``edge_last_cuts[e]`` holds the two last cuts as vertex sets; and
    ``charge_groups`` inverts that map: for every vertex set that occurs as a
    last cut, the edges that charge to it.
    """

    support: SupportGraph
    nodes: tuple[CutNode, ...]
    final: FinalCycle
    min_cuts: tuple[MinCut, ...]
    edge_level: tuple[tuple[str, int], ...]
    edge_last_cuts: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def node_vertices(self, node_id: int) -> frozenset[int]:
        return self.nodes[node_id].vertices

    def internal_nodes(self) -> tuple[CutNode, ...]:
        return tuple(nd for nd in self.nodes if nd.children)

    def cycle_nodes(self) -> tuple[CutNode, ...]:
        return tuple(nd for nd in self.nodes if nd.kind == "cycle" and nd.children)

    def degree_nodes(self) -> tuple[CutNode, ...]:
        return tuple(nd for nd in self.nodes if nd.kind == "degree" and nd.children)

    def last_cuts(self, edge_id: int) -> tuple[frozenset[int], frozenset[int]]:
        return self.edge_last_cuts[edge_id]

    def charge_groups(self) -> dict[frozenset[int], tuple[int, ...]]:
        """For each vertex set appearing as a last cut: the edges charging to it."""
        groups: dict[frozenset[int], list[int]] = {}
        for e, (left, right) in enumerate(self.edge_last_cuts):
            if self.edge_level[e][0] == "final":
                continue
            for side in (left, right):
                groups.setdefault(side, []).append(e)
        return {k: tuple(sorted(v)) for k, v in groups.items()}

    def top_edges(self) -> tuple[int, ...]:
        return tuple(
            e for e in range(len(self.support.edges)) if self.edge_level[e][0] == "top"
        )

    def bottom_edges(self) -> tuple[int, ...]:
        return tuple(
            e for e in range(len(self.support.edges)) if self.edge_level[e][0] == "bottom"
        )

    def final_edges(self) -> tuple[int, ...]:
        return tuple(
            e for e in range(len(self.support.edges)) if self.edge_level[e][0] == "final"
        )

    def cycle_intervals(self, node_id: int) -> dict[tuple[int, int], frozenset[int]]:
        """Vertex sets of all contiguous child runs [i..j] of a cycle node.

        Includes the full run (the node itself) under key (0, k-1).
        """
        node = self.nodes[node_id]
        if node.kind != "cycle" or node.child_order is None:
            raise ValueError(f"node {node_id} is not a cycle node")
        order = node.child_order
        out: dict[tuple[int, int], frozenset[int]] = {}
        for i in range(len(order)):
            acc: frozenset[int] = frozenset()
            for j in range(i, len(order)):
                acc = acc | self.nodes[order[j]].vertices
                out[(i, j)] = acc
        return out

    def final_arcs(self) -> dict[tuple[int, int], frozenset[int]]:
        """Vertex sets of contiguous member runs of the final ring (not full)."""
        members = self.final.member_nodes
        r = len(members)
        out: dict[tuple[int, int], frozenset[int]] = {}
        for start in range(r):
            acc: frozenset[int] = frozenset()
            for length in range(1, r):
                acc = acc | self.nodes[members[(start + length - 1) % r]].vertices
                out[(start, length)] = acc
        return out

    def classify_min_cut(self, cut: MinCut) -> tuple[str, object]:
        """Label a minimum cut as critical / interval / arc (the only shapes).

        Returns ("critical", node_id), ("interval", (node_id, i, j)) or
        ("arc", (start, length)).  Raises InternalHierarchyError when a cut
        matches none of these, which would contradict the structure theory.
        """
        sides = set(cut.sides())
        for nd in self.nodes:
            if nd.vertices in sides:
                return ("critical", nd.id)
        for nd in self.cycle_nodes():
            for (i, j), vs in self.cycle_intervals(nd.id).items():
                if vs in sides and (i, j) != (0, len(nd.child_order) - 1):
                    return ("interval", (nd.id, i, j))
        for (start, length), vs in self.final_arcs().items():
            if vs in sides:
                return ("arc", (start, length))
        raise InternalHierarchyError(
            f"minimum cut {sorted(cut.vertices)} is neither critical, interval, nor arc"
        )

    def to_json_dict(self) -> dict:
        """A JSON-ready description (used by the CLI hierarchy command)."""
        return {
            "nodes": [
                {
                    "id": nd.id,
                    "vertices": sorted(nd.vertices),
                    "kind": nd.kind,
                    "parent": nd.parent,
                    "children": list(nd.children),
                    "boundary": list(nd.boundary),
                    "up_edges": list(nd.up_edges),
                    "across_edges": list(nd.across_edges),
                    "child_order": list(nd.child_order) if nd.child_order else None,
                    "companion_classes": [list(c) for c in nd.companion_classes]
                    if nd.companion_classes
                    else None,
                }
                for nd in self.nodes
            ],
            "final_cycle": {
                "member_nodes": list(self.final.member_nodes),
                "pair_classes": [list(c) for c in self.final.pair_classes],
                "e_plus_class": self.final.e_plus_class,
            },
            "edge_levels": [list(level) for level in self.edge_level],
        }

    def to_dot(self) -> str:
        """Graphviz text for the laminar tree plus the final ring."""
        lines = ["digraph hierarchy {", "  rankdir=BT;"]
        for nd in self.nodes:
            label = f"{nd.id}: {{{','.join(str(v) for v in sorted(nd.vertices))}}} {nd.kind}"
            shape = "box" if nd.children else "ellipse"
            lines.append(f'  n{nd.id} [label="{label}", shape={shape}];')
            if nd.parent is not None:
                lines.append(f"  n{nd.id} -> n{nd.parent};")
        ring = " -> ".join(f"n{m}" for m in self.final.member_nodes)
        first = self.final.member_nodes[0]
        lines.append(f"  {ring} -> n{first} [style=dashed, constraint=false];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _partition_alive(parts: Sequence[frozenset[int]], side: frozenset[int]) -> bool:
    return all(p <= side or not (p & side) for p in parts)


def _parallel_classes(
    support: SupportGraph,
    edge_ids: Iterable[int],
    part_of: Mapping[int, int],
) -> dict[tuple[int, int], list[int]]:
    """Group edges by the unordered pair of parts their endpoints map to."""
    classes: dict[tuple[int, int], list[int]] = {}
    for e in edge_ids:
        u, v = support.endpoints(e)
        a, b = part_of[u], part_of[v]
        key = (min(a, b), max(a, b))
        classes.setdefault(key, []).append(e)
    return classes


def _detect_doubled_path(
    children: Sequence[int],
    classes: Mapping[tuple[int, int], list[int]],
    anchor: Mapping[int, int],
) -> list[int] | None:
    """Child ids in path order when the classes form a doubled path, else None.

    ``anchor`` maps each child to its lowest original vertex; the path is
    oriented to start at the end child with the smaller anchor.
    """
    if any(len(edges) != 2 for edges in classes.values()):
        return None
    degree: dict[int, list[int]] = {c: [] for c in children}
    for (a, b) in classes:
        degree[a].append(b)
        degree[b].append(a)
    ends = [c for c in children if len(degree[c]) == 1]
    if len(children) == 1 or len(ends) != 2 or any(len(degree[c]) > 2 for c in children):
        return None
    start = min(ends, key=lambda c: anchor[c])
    order = [start]
    prev = None
    while len(order) < len(children):
        nxt = [c for c in degree[order[-1]] if c != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    if len(set(order)) != len(children):
        return None
    return order


def _assert_cut_free(
    support: SupportGraph,
    children: Sequence[int],
    part_vertices: Mapping[int, frozenset[int]],
) -> None:
    """Check the contracted graph around a degree node has no proper min cuts.

    The contracted graph has one vertex per child plus one for the outside,
    each of degree 4.  Its minimum cuts come from the exact cut engine at any
    child count.  A cut below 4 edges, or a 4-edge cut with at least two
    contracted vertices on each side, contradicts the selection rule.
    """
    index = {v: i for i, c in enumerate(children) for v in part_vertices[c]}
    k = len(children) + 1
    outside = k - 1
    pairs = [(index.get(e.u, outside), index.get(e.v, outside)) for e in support.edges]
    lam, sides = all_min_cuts(k, pairs)
    if lam < 4 or any(2 <= len(side) <= k - 2 for side in sides):
        raise InternalHierarchyError(
            "degree node's contracted graph has a proper minimum cut"
        )


def build_hierarchy(support: SupportGraph) -> CutHierarchy:
    """Replay the contraction loop and annotate every edge with its last cuts."""
    if support.e_plus_pair is None:
        raise ValueError("hierarchy requires an instance with a distinguished doubled edge")
    n = support.n
    min_cuts = enumerate_min_cuts(support)
    e_plus_edge = support.edges[support.e_plus_pair[0]]
    ep_u, ep_v = e_plus_edge.u, e_plus_edge.v

    nodes: list[CutNode] = [
        CutNode(
            id=v,
            vertices=frozenset([v]),
            kind="degree",
            parent=None,
            children=(),
            boundary=boundary_edges(support, frozenset([v])),
            internal_edges=(),
            up_edges=(),
            across_edges=(),
        )
        for v in range(n)
    ]
    node_of_vertex = list(range(n))
    alive_nodes: set[int] = set(range(n))

    def parts() -> list[frozenset[int]]:
        return [nodes[i].vertices for i in sorted(alive_nodes)]

    edge_level: list[tuple[str, int] | None] = [None] * len(support.edges)
    edge_last: list[tuple[frozenset[int], frozenset[int]] | None] = [None] * len(support.edges)

    while True:
        current_parts = parts()
        alive_cuts = [c for c in min_cuts if _partition_alive(current_parts, c.vertices)]
        candidates: list[frozenset[int]] = []
        for cut in alive_cuts:
            inside = sum(1 for p in current_parts if p <= cut.vertices)
            outside = len(current_parts) - inside
            if inside < 2 or outside < 2:
                continue
            if any(crossing(cut, other) for other in alive_cuts if other is not cut):
                continue
            for side in cut.sides():
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
        boundary = boundary_edges(support, canonical_side(chosen, n))
        part_vertices = {c: nodes[c].vertices for c in child_ids}
        if order is not None:
            kind = "cycle"
            companion_classes = tuple(
                tuple(sorted(classes[(min(a, b), max(a, b))]))
                for a, b in zip(order, order[1:])
            )
            first_set = nodes[order[0]].vertices
            last_set = nodes[order[-1]].vertices
            end_first = tuple(
                sorted(
                    e
                    for e in boundary
                    if support.edges[e].u in first_set or support.edges[e].v in first_set
                )
            )
            end_last = tuple(
                sorted(
                    e
                    for e in boundary
                    if support.edges[e].u in last_set or support.edges[e].v in last_set
                )
            )
            if len(end_first) != 2 or len(end_last) != 2 or set(end_first) & set(end_last):
                raise InternalHierarchyError(
                    "cycle node boundary does not split into two end pairs"
                )
            end_pairs = (end_first, end_last)
            child_order = tuple(order)
        else:
            kind = "degree"
            _assert_cut_free(support, child_ids, part_vertices)
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
            prefix: frozenset[int] = frozenset()
            prefix_sets = []
            for c in child_order:
                prefix = prefix | nodes[c].vertices
                prefix_sets.append(prefix)
            full = prefix_sets[-1]
            for pos, (a, b) in enumerate(zip(child_order, child_order[1:])):
                for e in classes[(min(a, b), max(a, b))]:
                    edge_last[e] = (prefix_sets[pos], full - prefix_sets[pos])
        else:
            for e in internal:
                u, v = support.endpoints(e)
                edge_last[e] = (part_vertices[part_of[u]], part_vertices[part_of[v]])

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
    neighbors: dict[int, list[int]] = {c: [] for c in final_ids}
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
    full_vertices = frozenset(range(n))
    for i, cls in enumerate(pair_classes):
        left_member = nodes[ring_order[i]].vertices
        right_member = nodes[ring_order[(i + 1) % len(ring_order)]].vertices
        for e in cls:
            edge_level[e] = ("final", i)
            edge_last[e] = (full_vertices - left_member, full_vertices - right_member)

    if any(level is None for level in edge_level):
        raise InternalHierarchyError("some support edge was never assigned a level")

    # Fill per-node up/across edges from parent boundaries.
    finished: list[CutNode] = []
    for nd in nodes:
        if nd.parent is not None:
            parent_boundary = set(
                boundary_edges(support, nodes[nd.parent].vertices)
            )
        else:
            parent_boundary = set()
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


def level_tree_problem(
    hierarchy: CutHierarchy, node_id: int
) -> tuple[int, list[tuple[int, int, int]], list[Fraction]]:
    """The spanning-tree sampling problem inside one internal node.

    Returns (number of children, edges as (child_index_a, child_index_b,
    support_edge_id), target marginals).  Every support copy targets 1/2.
    """
    node = hierarchy.nodes[node_id]
    if not node.children:
        raise ValueError(f"node {node_id} is a leaf")
    index = {c: i for i, c in enumerate(node.children)}
    vertex_to_child: dict[int, int] = {}
    for c in node.children:
        for v in hierarchy.nodes[c].vertices:
            vertex_to_child[v] = index[c]
    edges = []
    for e in node.internal_edges:
        u, v = hierarchy.support.endpoints(e)
        edges.append((vertex_to_child[u], vertex_to_child[v], e))
    marginals = [Fraction(1, 2)] * len(edges)
    return (len(node.children), edges, marginals)
