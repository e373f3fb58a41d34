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
which drive the parity-correction charging downstream.  A cut is named by
its index into ``CutHierarchy.min_cuts`` everywhere outside this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_, xor
from typing import Iterable, Mapping, Sequence

from ._flow import all_min_cuts, members
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
    """

    vertices: frozenset[int]
    boundary: tuple[int, ...]

    def __post_init__(self) -> None:
        if 0 in self.vertices:
            raise ValueError("canonical cut side must exclude vertex 0")
        if len(self.boundary) != 4:
            raise ValueError(f"minimum cut must have 4 boundary edges, got {len(self.boundary)}")


def _edge_masks(support: SupportGraph) -> list[int]:
    """Per vertex, the mask of its incident support edge ids (bit e for edge
    e).  The XOR over a vertex set masks its boundary: an edge with both
    ends inside cancels."""
    masks = [0] * support.n
    for e in support.edges:
        masks[e.u] ^= 1 << e.id
        masks[e.v] ^= 1 << e.id
    return masks


def _vertex_mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in vertices)


def _side_key(side: int) -> tuple[int, int, list[int]]:
    """(min vertex, size, vertex list): the order of cuts and of tied choices."""
    vertices = members(side)
    return (vertices[0], len(vertices), vertices)


def enumerate_min_cuts(support: SupportGraph) -> tuple[MinCut, ...]:
    """All minimum (4-edge) cuts, exactly, from the residual graphs of n - 1 flows.

    Results are sorted by (min vertex, size, vertex tuple) of the canonical
    side.
    """
    _, sides = all_min_cuts(support.n, ((e.u, e.v) for e in support.edges))
    incident = _edge_masks(support).__getitem__
    return tuple(
        MinCut(
            vertices=frozenset(vertices),
            boundary=tuple(members(reduce(xor, map(incident, vertices)))),
        )
        for _, _, vertices in sorted(map(_side_key, sides))
    )


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
    index); ``edge_last_cuts[e]`` holds the two last cuts as indices into
    ``min_cuts``; and ``charge_groups`` inverts that map: for every cut index
    that occurs as a last cut, the edges that charge to it.
    """

    support: SupportGraph
    nodes: tuple[CutNode, ...]
    final: FinalCycle
    min_cuts: tuple[MinCut, ...]
    edge_level: tuple[tuple[str, int], ...]
    edge_last_cuts: tuple[tuple[int, int], ...]

    def cycle_nodes(self) -> tuple[CutNode, ...]:
        return tuple(nd for nd in self.nodes if nd.kind == "cycle" and nd.children)

    def degree_nodes(self) -> tuple[CutNode, ...]:
        return tuple(nd for nd in self.nodes if nd.kind == "degree" and nd.children)

    def last_cuts(self, edge_id: int) -> tuple[int, int]:
        return self.edge_last_cuts[edge_id]

    def charge_groups(self) -> dict[int, tuple[int, ...]]:
        """For each cut index appearing as a last cut: the edges charging to it."""
        groups: dict[int, list[int]] = {}
        for e, pair in enumerate(self.edge_last_cuts):
            if self.edge_level[e][0] != "final":
                for i in pair:
                    groups.setdefault(i, []).append(e)
        return {i: tuple(edges) for i, edges in groups.items()}

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

    @cached_property
    def _shapes(self) -> dict[int, tuple[int, str, object]]:
        """Each shape's vertex mask -> (rank, kind, label), ranked in scan order.

        The scan lists critical nodes, then each cycle node's contiguous child
        runs [i..j] short of the full run, then the final ring's runs of
        ``length`` members from ``start``; a set keeps its first label.
        """
        masks: list[int] = []
        for nd in self.nodes:
            children = (masks[c] for c in nd.children)
            masks.append(reduce(or_, children) if nd.children else _vertex_mask(nd.vertices))

        def scan() -> Iterable[tuple[str, object, int]]:
            for nd in self.nodes:
                yield ("critical", nd.id, masks[nd.id])
            for nd in self.cycle_nodes():
                order = nd.child_order
                for i in range(len(order)):
                    acc = 0
                    for j in range(i, len(order)):
                        acc |= masks[order[j]]
                        if (i, j) != (0, len(order) - 1):
                            yield ("interval", (nd.id, i, j), acc)
            ring = self.final.member_nodes
            r = len(ring)
            for start in range(r):
                acc = 0
                for length in range(1, r):
                    acc |= masks[ring[(start + length - 1) % r]]
                    yield ("arc", (start, length), acc)

        index: dict[int, tuple[int, str, object]] = {}
        for rank, (kind, label, mask) in enumerate(scan()):
            index.setdefault(mask, (rank, kind, label))
        return index

    def _classify(self, side: int) -> tuple[str, object]:
        """``classify_min_cut`` of the cut whose side without vertex 0 is the
        mask ``side``."""
        shapes = self._shapes
        found = [shapes[s] for s in (side, side ^ ((1 << self.support.n) - 1)) if s in shapes]
        if not found:
            raise InternalHierarchyError(
                f"minimum cut {members(side)} is neither critical, interval, nor arc"
            )
        _, kind, label = min(found)
        return (kind, label)

    def classify_min_cut(self, cut: MinCut) -> tuple[str, object]:
        """Label a minimum cut as critical / interval / arc (the only shapes).

        Returns ("critical", node_id), ("interval", (node_id, i, j)) or
        ("arc", (start, length)): the side found first in the scan order of
        ``_shapes``.  Raises InternalHierarchyError when a cut matches none
        of these, which would contradict the structure theory.
        """
        return self._classify(_vertex_mask(cut.vertices))

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
    if lam < 4 or any(2 <= side.bit_count() <= k - 2 for side in sides):
        raise InternalHierarchyError(
            "degree node's contracted graph has a proper minimum cut"
        )


def build_hierarchy(support: SupportGraph) -> CutHierarchy:
    """Replay the contraction loop and annotate every edge with its last cuts.

    Vertex and edge sets are int masks.  A cut stays alive while no part
    straddles it; parts only grow, so after each contraction the cuts that
    the new part meets partly are dropped for good.  So are the cuts with a
    single part on a side: counts only fall, and such a cut is never chosen
    and crosses no alive cut.  Each part is counted by one representative
    vertex, so a side holds ``(side & reps).bit_count()`` parts.
    """
    if support.e_plus_pair is None:
        raise ValueError("hierarchy requires an instance with a distinguished doubled edge")
    n = support.n
    everything = (1 << n) - 1
    min_cuts = enumerate_min_cuts(support)
    side_masks = [_vertex_mask(cut.vertices) for cut in min_cuts]
    index_of = {side: i for i, side in enumerate(side_masks)}

    def cut_index(side: int) -> int:
        i = index_of.get(everything ^ side if side & 1 else side)
        if i is None:
            raise InternalHierarchyError(f"vertex set {members(side)} is not a minimum cut")
        return i

    # Every node is a minimum cut: a vertex, or a chosen tight set.
    node_cut = [cut_index(1 << v) for v in range(n)]
    e_plus_edge = support.edges[support.e_plus_pair[0]]
    e_plus_ends = (1 << e_plus_edge.u) | (1 << e_plus_edge.v)

    nodes: list[CutNode] = [
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
    # Per node: its vertex mask and its boundary's edge mask.
    node_mask = [1 << v for v in range(n)]
    node_boundary = _edge_masks(support)
    node_of_vertex = list(range(n))
    reps, parts = everything, n
    alive = [i for i, side in enumerate(side_masks) if 2 <= side.bit_count() <= n - 2]

    edge_level: list[tuple[str, int] | None] = [None] * len(support.edges)
    edge_last: list[tuple[int, int] | None] = [None] * len(support.edges)

    # Alive cuts only die, so a cut crossed by none stays so, and one crossed
    # by an alive cut needs no new scan while that cut lives.
    uncrossed: set[int] = set()
    crosser: dict[int, int] = {}

    def crossed(i: int, live: set[int]) -> bool:
        """Whether an alive cut crosses cut i: all four regions non-empty,
        the fourth being the one that holds vertex 0."""
        if i in uncrossed:
            return False
        if crosser.get(i) in live:
            return True
        a = side_masks[i]
        for j in alive:
            b = side_masks[j]
            if a & b and a & ~b and b & ~a:
                crosser[i] = j
                return True
        uncrossed.add(i)
        return False

    while True:
        candidates: list[int] = []
        live = set(alive)
        for i in alive:
            if crossed(i, live):
                continue
            a = side_masks[i]
            for side in (a, everything ^ a):
                if side & e_plus_ends != e_plus_ends:
                    candidates.append(side)
        if not candidates:
            break
        minimal = [s for s in candidates if not any(o != s and not o & ~s for o in candidates)]
        chosen = min(minimal, key=_side_key)

        child_ids = sorted(node_of_vertex[v] for v in members(chosen & reps))
        new_id = len(nodes)
        # An edge inside the new part crosses two children's boundaries and
        # not the part's own, which is their XOR.
        node_boundary.append(reduce(xor, (node_boundary[c] for c in child_ids)))
        internal = tuple(members(reduce(or_, (node_boundary[c] for c in child_ids)) & ~node_boundary[-1]))
        classes = _parallel_classes(support, internal, node_of_vertex)
        anchor = {c: (node_mask[c] & -node_mask[c]).bit_length() - 1 for c in child_ids}
        order = _detect_doubled_path(child_ids, classes, anchor)
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

        level = "bottom" if kind == "cycle" else "top"
        for e in internal:
            edge_level[e] = (level, new_id)
        if kind == "cycle":
            prefix = 0
            for a, b in zip(child_order, child_order[1:]):
                prefix |= node_mask[a]
                pair = (cut_index(prefix), cut_index(chosen ^ prefix))
                for e in classes[(min(a, b), max(a, b))]:
                    edge_last[e] = pair
        else:
            for e in internal:
                u, v = support.endpoints(e)
                edge_last[e] = (node_cut[node_of_vertex[u]], node_cut[node_of_vertex[v]])

        for c in child_ids:
            nodes[c] = replace(nodes[c], parent=new_id)
        vertices = frozenset().union(*(nodes[c].vertices for c in child_ids))
        nodes.append(
            CutNode(
                id=new_id,
                vertices=vertices,
                kind=kind,
                parent=None,
                children=tuple(child_ids),
                boundary=boundary,
                internal_edges=internal,
                up_edges=(),
                across_edges=(),
                child_order=child_order,
                companion_classes=companion_classes,
                end_pairs=end_pairs,
            )
        )
        node_mask.append(chosen)
        for v in vertices:
            node_of_vertex[v] = new_id
        reps = reps & ~chosen | chosen & -chosen
        parts -= len(child_ids) - 1
        alive = [
            i
            for i in alive
            if (side_masks[i] & chosen) in (0, chosen)
            and 2 <= (side_masks[i] & reps).bit_count() <= parts - 2
        ]

    # Final ring verification and annotation.
    final_ids = sorted(node_of_vertex[v] for v in members(reps))
    if len(final_ids) < 3:
        raise InternalHierarchyError(
            f"contraction stopped with {len(final_ids)} supernodes, expected a ring of >= 3"
        )
    part_of = node_of_vertex
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
    for i, cls in enumerate(pair_classes):
        # A ring edge's last cuts are its end members' complements: the same cuts.
        pair = (node_cut[ring_order[i]], node_cut[ring_order[(i + 1) % len(ring_order)]])
        for e in cls:
            edge_level[e] = ("final", i)
            edge_last[e] = pair

    if any(level is None for level in edge_level):
        raise InternalHierarchyError("some support edge was never assigned a level")

    # Fill per-node up/across edges from parent boundaries.
    finished: list[CutNode] = []
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
    for side in side_masks:
        hierarchy._classify(side)
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
