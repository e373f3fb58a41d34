"""Problem instances: half-integral LP points on 4-regular support graphs.

An instance is a connected graph whose edges carry values in {1/2, 1} and
non-negative rational costs, such that every vertex sees total value exactly 2
and every proper vertex subset has boundary value at least 2.  Equivalently,
the *support multigraph* (value-1 edges doubled into two parallel copies) is
4-regular and 4-edge-connected.

The module also ships the deterministic instance generators used by the test
battery and the CLI, plus the vertex-splitting transform that introduces a
distinguished doubled edge (``e_plus``) when an instance has none.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from typing import Callable, Mapping, Sequence

import numpy as np

from ._flow import small_edge_cut_witness
from ._util import _unlimited_int_digits, canonical_json, format_rational, parse_rational

HALF = Fraction(1, 2)
ONE = Fraction(1)

GENERATOR_FAMILIES = ("envelope", "k5_degree", "cycle_chain", "random_half_integral")


class InstanceError(ValueError):
    """Base class for all instance validation failures."""


class MalformedInstanceError(InstanceError):
    """The document is not syntactically a valid instance description."""


class EdgeValueError(InstanceError):
    """An edge value is outside {1/2, 1}."""


class CostError(InstanceError):
    """An edge cost is negative (or otherwise not a valid rational)."""


class DegreeError(InstanceError):
    """Some vertex's incident edge values do not total exactly 2."""


class CutError(InstanceError):
    """Some proper vertex subset has boundary value below 2."""


@dataclass(frozen=True)
class InstanceEdge:
    """One instance edge: endpoints, LP value in {1/2, 1}, non-negative cost."""

    u: int
    v: int
    lp_value: Fraction
    cost: Fraction


@dataclass(frozen=True)
class HalfIntegralInstance:
    """A validated half-integral instance.

    ``e_plus`` optionally names (by index) a value-1 edge that the rounding
    pipeline keeps in every sampled connected subgraph.  ``duals`` optionally
    carries per-vertex dual values certifying that the LP cost of the instance
    equals the total edge cost weighted by values (used as an independent
    accounting cross-check; only the unit-cost generators provide them).
    """

    name: str
    n: int
    edges: tuple[InstanceEdge, ...]
    e_plus: int | None = None
    duals: tuple[Fraction, ...] | None = None

    def lp_cost(self) -> Fraction:
        return sum((e.lp_value * e.cost for e in self.edges), Fraction(0))

    @cached_property
    def cost_numerators(self) -> tuple[int, tuple[int, ...]]:
        """(scale, per-edge cost times scale), scale the lcm of the cost
        denominators; computed once per instance."""
        scale = lcm(*(e.cost.denominator for e in self.edges))
        return (scale, tuple((e.cost * scale).numerator for e in self.edges))

    @cached_property
    def incident_edges(self) -> tuple[frozenset[int], ...]:
        """Per vertex, the ids of the edges at it; computed once per instance."""
        out: list[set[int]] = [set() for _ in range(self.n)]
        for idx, e in enumerate(self.edges):
            out[e.u].add(idx)
            out[e.v].add(idx)
        return tuple(map(frozenset, out))

    def doubled_edges(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.edges) if e.lp_value == ONE)

    def with_e_plus(self, index: int) -> "HalfIntegralInstance":
        if self.edges[index].lp_value != ONE:
            raise MalformedInstanceError(
                f"edge {index} has value {self.edges[index].lp_value}, "
                "only a doubled edge can be e_plus"
            )
        return dataclasses.replace(self, e_plus=index)


@dataclass(frozen=True)
class SupportEdge:
    """One parallel copy in the support multigraph."""

    id: int
    u: int
    v: int
    instance_edge: int


@dataclass(frozen=True)
class SupportGraph:
    """The 4-regular 4-edge-connected support multigraph of an instance.

    A doubled instance edge has two consecutive support copies, a half edge
    one.  ``e_plus_pair`` is the pair of copy ids of the distinguished
    doubled edge, when one is named.  ``costs[e]`` is copy ``e``'s cost
    numerator over the instance's cost scale (``cost_numerators``).
    """

    n: int
    edges: tuple[SupportEdge, ...]
    e_plus_pair: tuple[int, int] | None
    costs: tuple[int, ...]

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        e = self.edges[edge_id]
        return (e.u, e.v)

    @cached_property
    def end_masks(self) -> tuple[int, ...]:
        """Per edge, the bitmask of its two endpoints: the XOR over a set of
        edges has bit ``v`` set exactly when vertex ``v`` has odd degree."""
        return tuple((1 << e.u) ^ (1 << e.v) for e in self.edges)

    @cached_property
    def arcs(self) -> tuple[tuple[tuple[int, tuple[int, int]], ...], ...]:
        """Per edge ``e``, the tour walk's entry at each end: ``(u, (v, e)), (v, (u, e))``."""
        return tuple(((e.u, (e.v, i)), (e.v, (e.u, i))) for i, e in enumerate(self.edges))


@dataclass(frozen=True)
class Metric:
    """Exact shortest-path closure of an instance's cost graph.

    ``numerators[u][v]`` is the distance times ``scale``, the lcm of the cost
    denominators; ``dist`` gives the same distances as ``Fraction`` rows,
    built on first read.
    """

    n: int
    scale: int
    numerators: tuple[tuple[int, ...], ...]

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        exact = {x: Fraction(x, self.scale) for x in set(chain.from_iterable(self.numerators))}
        return tuple(tuple(exact[x] for x in row) for row in self.numerators)


def _validate(
    name: str,
    n: int,
    edges: Sequence[InstanceEdge],
    e_plus: int | None,
    duals: Sequence[Fraction] | None,
) -> HalfIntegralInstance:
    if n < 3:
        raise MalformedInstanceError(f"n must be at least 3, got {n}")
    seen_pairs: set[tuple[int, int]] = set()
    for i, e in enumerate(edges):
        if not (0 <= e.u < n and 0 <= e.v < n):
            raise MalformedInstanceError(f"edge {i} endpoint out of range: {e.u},{e.v}")
        if e.u == e.v:
            raise MalformedInstanceError(f"edge {i} is a self-loop at {e.u}")
        key = (min(e.u, e.v), max(e.u, e.v))
        if key in seen_pairs:
            raise MalformedInstanceError(f"duplicate edge between {key[0]} and {key[1]}")
        seen_pairs.add(key)
        if e.lp_value not in (HALF, ONE):
            raise EdgeValueError(f"edge {i} has value {e.lp_value}, expected 1/2 or 1")
        if e.cost < 0:
            raise CostError(f"edge {i} has negative cost {e.cost}")
    # The incident values sum to 2n and to twice the total edge value, which
    # is at most the edge count: more vertices than edges cannot all reach 2.
    if n > len(edges):
        raise DegreeError(f"{len(edges)} edges cannot give {n} vertices incident value 2")
    degree_value = [Fraction(0)] * n
    for e in edges:
        degree_value[e.u] += e.lp_value
        degree_value[e.v] += e.lp_value
    for v, total in enumerate(degree_value):
        if total != 2:
            raise DegreeError(f"vertex {v} has incident value {total}, expected 2")
    support_pairs: list[tuple[int, int]] = []
    for e in edges:
        copies = 2 if e.lp_value == ONE else 1
        support_pairs.extend([(e.u, e.v)] * copies)
    witness = small_edge_cut_witness(n, support_pairs, 4)
    if witness is not None:
        raise CutError(
            f"vertex set {sorted(witness)} has boundary value below 2"
        )
    if e_plus is not None:
        if not (0 <= e_plus < len(edges)):
            raise MalformedInstanceError(f"e_plus index {e_plus} out of range")
        if edges[e_plus].lp_value != ONE:
            raise MalformedInstanceError(
                f"e_plus must reference a doubled edge, edge {e_plus} has value "
                f"{edges[e_plus].lp_value}"
            )
    duals_tuple: tuple[Fraction, ...] | None = None
    if duals is not None:
        if len(duals) != n:
            raise MalformedInstanceError(
                f"duals must list one value per vertex, got {len(duals)} for n={n}"
            )
        duals_tuple = tuple(Fraction(d) for d in duals)
    return HalfIntegralInstance(
        name=name, n=n, edges=tuple(edges), e_plus=e_plus, duals=duals_tuple
    )


def make_instance(
    name: str,
    n: int,
    edges: Sequence[tuple[int, int, Fraction, Fraction]],
    e_plus: int | None = None,
    duals: Sequence[Fraction] | None = None,
) -> HalfIntegralInstance:
    """Build and validate an instance from (u, v, value, cost) tuples."""
    built = [
        InstanceEdge(min(u, v), max(u, v), Fraction(val), Fraction(cost))
        for (u, v, val, cost) in edges
    ]
    return _validate(name, n, built, e_plus, duals)


def parse_instance(text: str) -> HalfIntegralInstance:
    """Parse and fully validate the canonical JSON instance format.

    Expected shape::

        {"name": str, "n": int,
         "edges": [{"u": int, "v": int, "x": "1/2"|"1", "cost": int|"p/q"}, ...],
         "e_plus": int?          # optional, index of a value-1 edge
         "duals": [int|"p/q"]?}  # optional, one value per vertex

    Integers are read in full at any length, as ``serialize_instance``
    writes them.
    """
    with _unlimited_int_digits():
        return _parse_payload(text)


def _parse_payload(text: str) -> HalfIntegralInstance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInstanceError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedInstanceError("invalid JSON: nested too deeply") from exc
    if not isinstance(payload, dict):
        raise MalformedInstanceError("top-level value must be an object")
    unknown = set(payload) - {"name", "n", "edges", "e_plus", "duals"}
    if unknown:
        raise MalformedInstanceError(f"unknown fields: {sorted(unknown)}")
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise MalformedInstanceError("'name' must be a non-empty string")
    n = payload.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise MalformedInstanceError("'n' must be an integer")
    raw_edges = payload.get("edges")
    if not isinstance(raw_edges, list) or not raw_edges:
        raise MalformedInstanceError("'edges' must be a non-empty list")
    edges: list[InstanceEdge] = []
    for i, item in enumerate(raw_edges):
        if not isinstance(item, dict) or set(item) != {"u", "v", "x", "cost"}:
            raise MalformedInstanceError(
                f"edge {i} must be an object with exactly the keys u, v, x, cost"
            )
        u, v = item["u"], item["v"]
        if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
            raise MalformedInstanceError(f"edge {i} endpoints must be integers")
        raw_x = item["x"]
        if not isinstance(raw_x, str):
            raise EdgeValueError(f"edge {i} value must be the string '1/2' or '1'")
        try:
            x = parse_rational(raw_x)
        except ValueError as exc:
            raise EdgeValueError(f"edge {i} value {raw_x!r} is not a rational") from exc
        if x not in (HALF, ONE):
            raise EdgeValueError(f"edge {i} has value {raw_x!r}, expected 1/2 or 1")
        try:
            cost = parse_rational(item["cost"])
        except ValueError as exc:
            raise CostError(f"edge {i} cost {item['cost']!r} is not a rational") from exc
        if cost < 0:
            raise CostError(f"edge {i} has negative cost {cost}")
        edges.append(InstanceEdge(min(u, v), max(u, v), x, cost))
    e_plus = payload.get("e_plus")
    if e_plus is not None and (not isinstance(e_plus, int) or isinstance(e_plus, bool)):
        raise MalformedInstanceError("'e_plus' must be an integer index")
    duals = None
    if "duals" in payload:
        raw_duals = payload["duals"]
        if not isinstance(raw_duals, list):
            raise MalformedInstanceError("'duals' must be a list")
        try:
            duals = [parse_rational(d) for d in raw_duals]
        except ValueError as exc:
            raise MalformedInstanceError(f"invalid dual value: {exc}") from exc
    return _validate(name, n, edges, e_plus, duals)


def serialize_instance(inst: HalfIntegralInstance) -> str:
    """Canonical JSON text; ``parse_instance`` round-trips it byte-identically."""
    payload: dict[str, object] = {
        "name": inst.name,
        "n": inst.n,
        "edges": [
            {
                "u": e.u,
                "v": e.v,
                "x": "1" if e.lp_value == ONE else "1/2",
                "cost": format_rational(e.cost),
            }
            for e in inst.edges
        ],
    }
    if inst.e_plus is not None:
        payload["e_plus"] = inst.e_plus
    if inst.duals is not None:
        payload["duals"] = [format_rational(d) for d in inst.duals]
    return canonical_json(payload)


def build_support_graph(inst: HalfIntegralInstance) -> SupportGraph:
    """Expand value-1 edges into two parallel copies, preserving edge order."""
    support: list[SupportEdge] = []
    e_plus_pair = None
    for idx, e in enumerate(inst.edges):
        if idx == inst.e_plus:
            e_plus_pair = (len(support), len(support) + 1)
        for _ in range(2 if e.lp_value == ONE else 1):
            support.append(SupportEdge(len(support), e.u, e.v, idx))
    costs = inst.cost_numerators[1]
    copy_costs = tuple(costs[e.instance_edge] for e in support)
    return SupportGraph(n=inst.n, edges=tuple(support), e_plus_pair=e_plus_pair, costs=copy_costs)


def split_vertex_for_eplus(inst: HalfIntegralInstance) -> HalfIntegralInstance:
    """Ensure the instance carries a distinguished doubled edge.

    If a value-1 edge already exists the instance is returned with ``e_plus``
    pointing at the lowest-index one (idempotent).  Otherwise a vertex is split
    into two halves joined by a new value-1, cost-0 edge: the four incident
    edges are divided two and two, trying vertices in id order and, per vertex,
    the three balanced divisions in incident-edge-id order, keeping the first
    that preserves the boundary condition.
    """
    doubled = inst.doubled_edges()
    if doubled:
        if inst.e_plus is not None:
            return inst
        return inst.with_e_plus(doubled[0])
    for v in range(inst.n):
        inc = sorted(inst.incident_edges[v])
        assert len(inc) == 4, "all-half instance must have exactly 4 edges per vertex"
        divisions = (
            (inc[0], inc[1]),
            (inc[0], inc[2]),
            (inc[0], inc[3]),
        )
        for keep in divisions:
            moved = tuple(i for i in inc if i not in keep)
            new_vertex = inst.n
            new_edges: list[tuple[int, int, Fraction, Fraction]] = []
            for idx, e in enumerate(inst.edges):
                u, w = e.u, e.v
                if idx in moved:
                    u = new_vertex if u == v else u
                    w = new_vertex if w == v else w
                new_edges.append((u, w, e.lp_value, e.cost))
            new_edges.append((v, new_vertex, ONE, Fraction(0)))
            try:
                candidate = make_instance(
                    name=f"{inst.name}_split{v}",
                    n=inst.n + 1,
                    edges=new_edges,
                    e_plus=len(new_edges) - 1,
                )
            except CutError:
                continue
            return candidate
    raise CutError("no vertex split preserves the boundary condition")


def metric_closure(inst: HalfIntegralInstance) -> Metric:
    """Exact all-pairs shortest-path distances over the instance's cost graph.

    Floyd–Warshall runs on the integer cost numerators, one vectorized
    relaxation per pivot.  sum(costs) + 1 marks an unreached pair, so no sum
    exceeds 2 * (sum(costs) + 1): int64 while that is under 2**63, Python
    integers (object dtype) beyond.  Costs are non-negative, so no pivot
    changes its own row or column and each relaxation equals the in-place
    loop.  The distances stay integers over the cost scale.
    """
    n = inst.n
    scale, costs = inst.cost_numerators
    unreached = sum(costs) + 1
    dist = np.full((n, n), unreached, dtype=np.int64 if 2 * unreached < 2**63 else object)
    np.fill_diagonal(dist, 0)
    for e, c in zip(inst.edges, costs):
        if c < dist[e.u, e.v]:
            dist[e.u, e.v] = dist[e.v, e.u] = c
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    cut_off = np.flatnonzero(dist == unreached)
    if cut_off.size:
        i, j = divmod(int(cut_off[0]), n)
        raise CutError(f"vertices {i} and {j} are disconnected")
    return Metric(n=n, scale=scale, numerators=tuple(map(tuple, dist.tolist())))


def _unit_singleton_duals(n: int) -> tuple[Fraction, ...]:
    return tuple([HALF] * n)


def generate_cycle_chain(k: int) -> HalfIntegralInstance:
    """A doubled path of k inner vertices closed off by two hub vertices.

    Vertices: hubs 0 and 1 joined by a doubled edge (the distinguished one),
    inner chain 2..k+1 joined by doubled edges, and four half edges tying the
    chain ends to both hubs.  Unit costs.
    """
    if k < 2:
        raise InstanceError("cycle_chain needs size >= 2")
    edges: list[tuple[int, int, Fraction, Fraction]] = [(0, 1, ONE, Fraction(1))]
    for i in range(k - 1):
        edges.append((2 + i, 3 + i, ONE, Fraction(1)))
    edges.extend(
        [
            (0, 2, HALF, Fraction(1)),
            (1, 2, HALF, Fraction(1)),
            (0, k + 1, HALF, Fraction(1)),
            (1, k + 1, HALF, Fraction(1)),
        ]
    )
    return make_instance(
        name=f"cycle_chain_{k}",
        n=k + 2,
        edges=edges,
        e_plus=0,
        duals=_unit_singleton_duals(k + 2),
    )


def generate_envelope(k: int) -> HalfIntegralInstance:
    """Two half-edge triangles joined by three doubled tubes of length k.

    Vertices 0,1,2 form one triangle, 3,4,5 the other; tube i (1-based) joins
    vertex i-1 to vertex i+2 through k-1 fresh vertices via doubled edges.
    The distinguished edge is the first tube-1 edge.  Unit costs.
    """
    if k < 1:
        raise InstanceError("envelope needs size >= 1")
    n = 3 * k + 3
    edges: list[tuple[int, int, Fraction, Fraction]] = []
    next_vertex = 6
    for tube in range(3):
        chain = [tube]
        for _ in range(k - 1):
            chain.append(next_vertex)
            next_vertex += 1
        chain.append(tube + 3)
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b, ONE, Fraction(1)))
    for tri in ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)):
        edges.append((tri[0], tri[1], HALF, Fraction(1)))
    return make_instance(
        name=f"envelope_{k}",
        n=n,
        edges=edges,
        e_plus=0,
        duals=_unit_singleton_duals(n),
    )


def generate_k5_degree(n: int) -> HalfIntegralInstance:
    """The circulant graph with offsets {1, 2}: all-half, no proper tight sets."""
    if n < 5:
        raise InstanceError("k5_degree needs size >= 5")
    edges: list[tuple[int, int, Fraction, Fraction]] = []
    for offset in (1, 2):
        for i in range(n):
            j = (i + offset) % n
            edges.append((i, j, HALF, Fraction(1)))
    return make_instance(
        name=f"k5_degree_{n}",
        n=n,
        edges=edges,
        duals=_unit_singleton_duals(n),
    )


def generate_random_half_integral(n: int, seed: int | None) -> HalfIntegralInstance:
    """A random 4-regular simple graph with all-half values and unit costs."""
    if n < 5:
        raise InstanceError("random_half_integral needs size >= 5")
    rng = np.random.default_rng(np.random.SeedSequence(0 if seed is None else seed))
    for _ in range(2000):
        stubs = np.repeat(np.arange(n), 4)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        seen: set[tuple[int, int]] = set()
        ok = True
        for a, b in pairs:
            u, v = int(min(a, b)), int(max(a, b))
            if u == v or (u, v) in seen:
                ok = False
                break
            seen.add((u, v))
        if not ok:
            continue
        edge_list = sorted(seen)
        if small_edge_cut_witness(n, edge_list, 4) is not None:
            continue
        return make_instance(
            name=f"random_half_integral_{n}_{0 if seed is None else seed}",
            n=n,
            edges=[(u, v, HALF, Fraction(1)) for (u, v) in edge_list],
            duals=_unit_singleton_duals(n),
        )
    raise RuntimeError("failed to sample a 4-regular 4-edge-connected graph")


def generate_instance(
    family: str, size: int, seed: int | None = None
) -> HalfIntegralInstance:
    """Deterministic instance generators for the four contract families."""
    if family == "cycle_chain":
        return generate_cycle_chain(size)
    if family == "envelope":
        return generate_envelope(size)
    if family == "k5_degree":
        return generate_k5_degree(size)
    if family == "random_half_integral":
        return generate_random_half_integral(size, seed)
    raise InstanceError(
        f"unknown family {family!r}; expected one of {', '.join(GENERATOR_FAMILIES)}"
    )


def build_doubled_triangle() -> HalfIntegralInstance:
    """Three vertices joined pairwise by doubled edges; the smallest instance."""
    edges = [
        (0, 1, ONE, Fraction(1)),
        (1, 2, ONE, Fraction(1)),
        (0, 2, ONE, Fraction(1)),
    ]
    return make_instance(
        name="doubled_triangle", n=3, edges=edges, e_plus=0,
        duals=_unit_singleton_duals(3),
    )


def build_four_blob() -> HalfIntegralInstance:
    """Four doubled pairs around a ring with two diagonals and a center vertex.

    Blob i (1-based) is the doubled pair (2i-2, 2i-1); first members form the
    ring, second members carry the diagonals and the spokes into center 8.
    The distinguished edge is the blob-1 pair.  Unit costs.
    """
    edges = [
        (0, 1, ONE, Fraction(1)),
        (2, 3, ONE, Fraction(1)),
        (4, 5, ONE, Fraction(1)),
        (6, 7, ONE, Fraction(1)),
        (0, 2, HALF, Fraction(1)),
        (2, 4, HALF, Fraction(1)),
        (4, 6, HALF, Fraction(1)),
        (0, 6, HALF, Fraction(1)),
        (1, 5, HALF, Fraction(1)),
        (3, 7, HALF, Fraction(1)),
        (1, 8, HALF, Fraction(1)),
        (3, 8, HALF, Fraction(1)),
        (5, 8, HALF, Fraction(1)),
        (7, 8, HALF, Fraction(1)),
    ]
    return make_instance(
        name="four_blob", n=9, edges=edges, e_plus=0,
        duals=_unit_singleton_duals(9),
    )


def build_split_k5() -> HalfIntegralInstance:
    """The 5-vertex circulant with one vertex split to create a doubled edge."""
    split = split_vertex_for_eplus(generate_k5_degree(5))
    return dataclasses.replace(split, name="split_k5", duals=None)


def build_split_octahedron() -> HalfIntegralInstance:
    """The 6-vertex circulant (octahedron) with one vertex split."""
    split = split_vertex_for_eplus(generate_k5_degree(6))
    return dataclasses.replace(split, name="split_octahedron", duals=None)


GADGET_BUILDERS: Mapping[str, Callable[[], HalfIntegralInstance]] = {
    "doubled_triangle": build_doubled_triangle,
    "four_blob": build_four_blob,
    "split_k5": build_split_k5,
    "split_octahedron": build_split_octahedron,
}
