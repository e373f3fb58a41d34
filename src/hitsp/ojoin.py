"""Tree sampling and the parity-correction (join) vector construction.

Given a validated instance this module: builds a per-level sampling plan from
the cut hierarchy (uniform companion choices inside chain-structured nodes,
weighted-tree sampling inside cut-free nodes, one copy per doubled class on
the final ring with the distinguished unit edge forced); computes, exactly,
each edge's probability that both of its recorded last cuts are crossed an
even number of times by the sampled connector; and turns one sampled
connector into a fractional parity-correction vector via truncated Bernoulli
reductions and deficit-sharing increases.  Feasibility of that vector against
every odd cut, minimum-cost parity matchings, and shortcut tours are provided
for verification and end-to-end runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from ._flow import min_odd_cut
from .cuts import (
    CutHierarchy,
    InternalHierarchyError,
    build_hierarchy,
    canonical_side,
    level_tree_problem,
)
from .instance import (
    HalfIntegralInstance,
    Metric,
    SupportGraph,
    build_support_graph,
    metric_closure,
    split_vertex_for_eplus,
)
from .maxent import TreeKernel, fit_lambda, sample_tree, tree_marginals

DEFAULT_TOP_TRUNCATION = Fraction(1_129_032, 10**7)
DEFAULT_BOTTOM_TRUNCATION = Fraction(1, 4)
DEFAULT_REDUCTION = Fraction(1, 12)


@dataclass(frozen=True)
class ChargingParams:
    """Exact rational parameters of the reduction/charging scheme.

    ``top_truncation`` caps the Bernoulli probability used for edges recorded
    inside cut-free nodes, ``bottom_truncation`` for edges recorded inside
    chain-structured nodes and on the final ring, and ``reduction`` is the
    amount removed from an edge's base value when its Bernoulli fires.
    """

    top_truncation: Fraction = DEFAULT_TOP_TRUNCATION
    bottom_truncation: Fraction = DEFAULT_BOTTOM_TRUNCATION
    reduction: Fraction = DEFAULT_REDUCTION

    def __init__(self, alpha=None, beta=None, tau=None):
        object.__setattr__(
            self,
            "top_truncation",
            DEFAULT_TOP_TRUNCATION if alpha is None else Fraction(alpha),
        )
        object.__setattr__(
            self,
            "bottom_truncation",
            DEFAULT_BOTTOM_TRUNCATION if beta is None else Fraction(beta),
        )
        object.__setattr__(
            self,
            "reduction",
            DEFAULT_REDUCTION if tau is None else Fraction(tau),
        )
        for name in ("top_truncation", "bottom_truncation", "reduction"):
            value = getattr(self, name)
            if value < 0 or value > 1:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class CycleLevel:
    """Sampling inside one chain-structured node: one uniform pick per class."""

    node_id: int
    classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DegreeLevel:
    """Sampling inside one cut-free node: a weighted spanning tree.

    ``level_edges`` are (child_index, child_index) pairs aligned with
    ``support_ids``; ``lam_float`` drives the sampler while ``lam_exact`` is
    the rationalized weight vector all exact computations use.
    ``uniform_exact`` records that unit weights already hit the half
    marginals, so outcomes are exactly uniform.
    """

    node_id: int
    vertex_count: int
    level_edges: tuple[tuple[int, int], ...]
    support_ids: tuple[int, ...]
    lam_float: tuple[float, ...]
    lam_exact: tuple[Fraction, ...]
    uniform_exact: bool


@dataclass(frozen=True)
class FinalLevel:
    """Sampling on the final ring: one copy per class, unit class forced."""

    classes: tuple[tuple[int, ...], ...]
    forced_class: int
    forced_edge: int


@dataclass(frozen=True)
class SamplingPlan:
    support: SupportGraph
    hierarchy: CutHierarchy
    cycle_levels: tuple[CycleLevel, ...]
    degree_levels: tuple[DegreeLevel, ...]
    final_level: FinalLevel


@dataclass(frozen=True)
class TreeSample:
    """One sampled connector plus the auxiliary uniforms for Bernoulli units.

    ``edges`` has exactly n entries (a spanning tree plus the one extra ring
    edge through the forced unit edge).  ``bernoulli_uniforms`` maps unit keys
    -- ("cycle", node_id), ("top", edge_id), ("final",) -- to floats in [0,1).
    """

    edges: tuple[int, ...]
    bernoulli_uniforms: dict


@dataclass(frozen=True)
class JoinVector:
    """A fractional parity-correction vector with provenance.

    ``values[e]`` is the final value on support edge ``e``; ``reduced`` lists
    edges whose Bernoulli fired while both their last cuts were even;
    ``deficits`` maps canonical min-cut sides to the shortfall repaired in the
    increase step; ``increases[e]`` is the amount added to edge ``e``.
    ``values[e] == Fraction(numerators[e], scale)``.
    """

    values: tuple[Fraction, ...]
    reduced: frozenset[int]
    deficits: dict
    increases: tuple[Fraction, ...]
    numerators: tuple[int, ...]
    scale: int

    def total(self) -> Fraction:
        return Fraction(sum(self.numerators), self.scale)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    minimum: Fraction
    witness: frozenset[int] | None
    floor_ok: bool
    minimum_value: Fraction


class PlanError(RuntimeError):
    """The hierarchy violated an invariant the charging scheme relies on."""


def build_sampling_plan(hierarchy: CutHierarchy) -> SamplingPlan:
    """Per-level samplers for the hierarchical tree distribution."""
    cycle_levels = []
    degree_levels = []
    for node in hierarchy.internal_nodes():
        if node.kind == "cycle":
            cycle_levels.append(
                CycleLevel(node_id=node.id, classes=node.companion_classes)
            )
            continue
        k, edges, targets = level_tree_problem(hierarchy, node.id)
        level_edges = tuple((a, b) for a, b, _ in edges)
        support_ids = tuple(e for _, _, e in edges)
        unit = [Fraction(1)] * len(level_edges)
        uniform_exact = all(
            m == Fraction(1, 2)
            for m in tree_marginals(k, level_edges, unit).values
        )
        if uniform_exact:
            lam_float = tuple(1.0 for _ in level_edges)
            lam_exact = tuple(Fraction(1) for _ in level_edges)
        else:
            fit = fit_lambda(k, list(level_edges), [float(t) for t in targets], tol=1e-12)
            if fit.forced or fit.deleted:
                raise PlanError(f"node {node.id} level fit pinned edges unexpectedly")
            lam_float = fit.values
            lam_exact = tuple(
                Fraction(v).limit_denominator(10**12) for v in fit.values
            )
        degree_levels.append(
            DegreeLevel(
                node_id=node.id,
                vertex_count=k,
                level_edges=level_edges,
                support_ids=support_ids,
                lam_float=lam_float,
                lam_exact=lam_exact,
                uniform_exact=uniform_exact,
            )
        )
    final = hierarchy.final
    forced_edge = min(final.pair_classes[final.e_plus_class])
    if hierarchy.support.e_plus_pair is not None:
        forced_edge = min(hierarchy.support.e_plus_pair)
    return SamplingPlan(
        support=hierarchy.support,
        hierarchy=hierarchy,
        cycle_levels=tuple(sorted(cycle_levels, key=lambda c: c.node_id)),
        degree_levels=tuple(sorted(degree_levels, key=lambda d: d.node_id)),
        final_level=FinalLevel(
            classes=final.pair_classes,
            forced_class=final.e_plus_class,
            forced_edge=forced_edge,
        ),
    )


def bernoulli_unit_keys(plan: SamplingPlan) -> tuple[tuple, ...]:
    """Unit keys in the fixed draw order: cycle nodes, top edges, final."""
    keys: list[tuple] = [("cycle", lvl.node_id) for lvl in plan.cycle_levels]
    keys.extend(("top", e) for e in plan.hierarchy.top_edges())
    keys.append(("final",))
    return tuple(keys)


def unit_key_for_edge(plan: SamplingPlan, edge_id: int) -> tuple:
    kind, detail = plan.hierarchy.edge_level[edge_id]
    if kind == "top":
        return ("top", edge_id)
    if kind == "bottom":
        return ("cycle", detail)
    return ("final",)


def sample_hierarchical_tree(plan: SamplingPlan, rng: np.random.Generator) -> TreeSample:
    """One connector: independent per-level choices, then the unit uniforms.

    Draw order is fixed (chain levels by node id, then cut-free levels by node
    id, then ring classes in order, then unit uniforms in key order) so a
    seeded generator reproduces samples exactly.
    """
    edges: list[int] = []
    for level in plan.cycle_levels:
        for cls in level.classes:
            edges.append(cls[int(rng.integers(len(cls)))])
    for level in plan.degree_levels:
        picked = sample_tree(
            level.vertex_count, list(level.level_edges), level.lam_float, rng
        )
        edges.extend(level.support_ids[i] for i in picked)
    for idx, cls in enumerate(plan.final_level.classes):
        if idx == plan.final_level.forced_class:
            edges.append(plan.final_level.forced_edge)
        else:
            edges.append(cls[int(rng.integers(len(cls)))])
    uniforms = {key: float(rng.random()) for key in bernoulli_unit_keys(plan)}
    return TreeSample(edges=tuple(sorted(edges)), bernoulli_uniforms=uniforms)


def _xor_convolve(
    law_a: dict[tuple[int, int], Fraction], law_b: dict[tuple[int, int], Fraction]
) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for (p1, q1), w1 in law_a.items():
        if w1 == 0:
            continue
        for (p2, q2), w2 in law_b.items():
            if w2 == 0:
                continue
            key = (p1 ^ p2, q1 ^ q2)
            out[key] = out.get(key, Fraction(0)) + w1 * w2
    return out


def _crossing_parity_bits(
    support: SupportGraph, edge_ids: Sequence[int], side_a: frozenset[int], side_b: frozenset[int]
) -> list[tuple[int, int]]:
    bits = []
    for e in edge_ids:
        u, v = support.endpoints(e)
        bits.append(
            (
                1 if (u in side_a) != (v in side_a) else 0,
                1 if (u in side_b) != (v in side_b) else 0,
            )
        )
    return bits


def _enumerated_level_law(
    outcomes: Sequence[tuple[Fraction, Sequence[int]]],
    support: SupportGraph,
    side_a: frozenset[int],
    side_b: frozenset[int],
) -> dict[tuple[int, int], Fraction]:
    law: dict[tuple[int, int], Fraction] = {}
    for weight, chosen in outcomes:
        pa = 0
        pb = 0
        for e in chosen:
            u, v = support.endpoints(e)
            if (u in side_a) != (v in side_a):
                pa ^= 1
            if (u in side_b) != (v in side_b):
                pb ^= 1
        key = (pa, pb)
        law[key] = law.get(key, Fraction(0)) + weight
    return law


def _level_parity_law(
    plan: SamplingPlan,
    level,
    side_a: frozenset[int],
    side_b: frozenset[int],
    kernels: dict[int, TreeKernel],
) -> dict[tuple[int, int], Fraction]:
    """Exact joint law of the level's parity contributions to two cuts.

    ``kernels`` maps each cut-free level's node id to its exact kernel.
    """
    support = plan.support
    if isinstance(level, CycleLevel):
        law = {(0, 0): Fraction(1)}
        for cls in level.classes:
            bits = _crossing_parity_bits(support, cls, side_a, side_b)
            class_law: dict[tuple[int, int], Fraction] = {}
            share = Fraction(1, len(cls))
            for b in bits:
                class_law[b] = class_law.get(b, Fraction(0)) + share
            law = _xor_convolve(law, class_law)
        return law
    if isinstance(level, DegreeLevel):
        bits = _crossing_parity_bits(support, level.support_ids, side_a, side_b)
        focus_a = [i for i, b in enumerate(bits) if b[0]]
        focus_b = [i for i, b in enumerate(bits) if b[1]]
        if not focus_a and not focus_b:
            return {(0, 0): Fraction(1)}
        return kernels[level.node_id].parity_pair(focus_a, focus_b)
    law = {(0, 0): Fraction(1)}
    for idx, cls in enumerate(level.classes):
        if idx == level.forced_class:
            chosen = [(Fraction(1), (level.forced_edge,))]
        else:
            chosen = [(Fraction(1, len(cls)), (e,)) for e in cls]
        law = _xor_convolve(
            law, _enumerated_level_law(chosen, support, side_a, side_b)
        )
    return law


def _all_levels(plan: SamplingPlan):
    return list(plan.cycle_levels) + list(plan.degree_levels) + [plan.final_level]


def level_kernels(plan: SamplingPlan) -> dict[int, TreeKernel]:
    """One exact kernel per cut-free level, keyed by node id."""
    return {
        level.node_id: TreeKernel(level.vertex_count, level.level_edges, level.lam_exact)
        for level in plan.degree_levels
    }


def _joint_even(
    plan: SamplingPlan,
    side_a: frozenset[int],
    side_b: frozenset[int],
    kernels: dict[int, TreeKernel],
) -> Fraction:
    """P[both cuts crossed evenly], via per-level parity laws convolved."""
    law = {(0, 0): Fraction(1)}
    for level in _all_levels(plan):
        law = _xor_convolve(law, _level_parity_law(plan, level, side_a, side_b, kernels))
    return law.get((0, 0), Fraction(0))


def compute_even_at_last_probs(plan: SamplingPlan) -> dict[int, Fraction]:
    """Per-edge probability that both last cuts are even in the sampled tree.

    Multiplies independent level parity laws (chain and ring levels
    enumerated, cut-free levels via signed tree counts from one exact kernel
    per level, built once per call).
    """
    hierarchy = plan.hierarchy
    kernels = level_kernels(plan)
    out: dict[int, Fraction] = {}
    cache: dict[tuple[frozenset[int], frozenset[int]], Fraction] = {}
    for e in range(len(plan.support.edges)):
        left, right = hierarchy.last_cuts(e)
        key = (left, right)
        if key not in cache:
            cache[key] = _joint_even(plan, left, right, kernels)
        out[e] = cache[key]
    return out


def cut_masks(hierarchy: CutHierarchy) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per support edge: the bitmask of minimum cuts it crosses, and the
    bitmask of its two last cuts.

    Bit ``i`` stands for ``hierarchy.min_cuts[i]``, so the XOR of a
    connector's crossing masks has bit ``i`` set exactly when the connector
    crosses that cut an odd number of times.
    """
    n = hierarchy.support.n
    m = len(hierarchy.support.edges)
    index = {cut.vertices: i for i, cut in enumerate(hierarchy.min_cuts)}
    crossing = [0] * m
    for i, cut in enumerate(hierarchy.min_cuts):
        for e in cut.boundary:
            crossing[e] |= 1 << i
    last = []
    for e in range(m):
        mask = 0
        for side in hierarchy.last_cuts(e):
            i = index.get(canonical_side(side, n))
            if i is None:
                raise PlanError(f"last cut {sorted(side)} of edge {e} is not a minimum cut")
            mask |= 1 << i
        last.append(mask)
    return tuple(crossing), tuple(last)


@dataclass(frozen=True)
class PreparedInstance:
    """Everything the per-sample pipeline needs, precomputed once.

    The last five fields are the integer tables of ``build_join_vector``.
    Cut ``i`` is ``cut_sides[i]``; ``edge_cut_mask[e]`` has bit ``i`` set when
    edge ``e`` crosses cut ``i`` and ``last_cut_mask[e]`` marks the edge's two
    last cuts.  Every vector entry, deficit and increase is an integer
    multiple of ``1 / scale``.  ``unit_edges`` maps each Bernoulli unit to the
    edges it may reduce (those with a positive even-at-last probability), and
    ``cut_charges[i]`` lists ``(edge, share * scale)`` for every edge charging
    to cut ``i`` with a positive share.
    """

    instance: HalfIntegralInstance
    support: SupportGraph
    hierarchy: CutHierarchy
    plan: SamplingPlan
    params: ChargingParams
    eal_probability: dict
    truncated: dict
    unit_threshold: dict
    unit_of: tuple
    edge_share: dict
    cut_sides: tuple
    cut_boundary: dict
    metric: Metric
    base_value: Fraction
    edge_cut_mask: tuple
    last_cut_mask: tuple
    scale: int
    unit_edges: dict
    cut_charges: tuple


def prepare_instance(
    instance: HalfIntegralInstance,
    params: ChargingParams | None = None,
) -> PreparedInstance:
    """Validate, split if needed, build hierarchy + plan + probability table."""
    params = params or ChargingParams()
    inst = split_vertex_for_eplus(instance)
    support = build_support_graph(inst)
    hierarchy = build_hierarchy(support)
    plan = build_sampling_plan(hierarchy)
    probs = compute_even_at_last_probs(plan)
    m = len(support.edges)

    for e in hierarchy.final_edges():
        if probs[e] != 1:
            raise PlanError(f"final edge {e} has even-at-last probability {probs[e]} != 1")

    truncated: dict[int, Fraction] = {}
    for e in range(m):
        kind = hierarchy.edge_level[e][0]
        cap = params.top_truncation if kind == "top" else params.bottom_truncation
        truncated[e] = min(cap, probs[e])

    unit_threshold: dict[tuple, Fraction] = {}
    unit_of = tuple(unit_key_for_edge(plan, e) for e in range(m))
    for e in range(m):
        key = unit_of[e]
        p = probs[e]
        thr = Fraction(0) if p == 0 else truncated[e] / p
        if key in unit_threshold:
            if unit_threshold[key] != thr:
                raise PlanError(
                    f"edges sharing unit {key} disagree on threshold: "
                    f"{unit_threshold[key]} vs {thr}"
                )
        else:
            unit_threshold[key] = thr
    for key in bernoulli_unit_keys(plan):
        unit_threshold.setdefault(key, Fraction(0))

    groups = hierarchy.charge_groups()
    edge_share: dict[frozenset[int], dict[int, Fraction]] = {}
    for side, members in groups.items():
        denom = sum((truncated[f] for f in members), Fraction(0))
        if denom > 0:
            edge_share[side] = {f: truncated[f] / denom for f in members}
        else:
            edge_share[side] = {f: Fraction(0) for f in members}

    cut_sides = tuple(cut.vertices for cut in hierarchy.min_cuts)
    cut_boundary = {cut.vertices: cut.boundary for cut in hierarchy.min_cuts}
    edge_cut_mask, last_cut_mask = cut_masks(hierarchy)

    # Before increases every entry is base - reduction * {0, 1}, so deficits
    # are multiples of 1 / lcm(den(base), den(reduction)); one more factor of
    # every share denominator makes each share * deficit an integer over L.
    base_value = Fraction(1, 4)
    scale = lcm(base_value.denominator, params.reduction.denominator) * lcm(
        *(s.denominator for shares in edge_share.values() for s in shares.values())
    )
    unit_edges = {
        key: tuple(e for e in range(m) if unit_of[e] == key and probs[e] != 0)
        for key in unit_threshold
    }
    cut_index = {side: i for i, side in enumerate(cut_sides)}
    cut_charges: list[list[tuple[int, int]]] = [[] for _ in cut_sides]
    for side, shares in edge_share.items():
        cut_charges[cut_index[canonical_side(side, support.n)]].extend(
            (f, (share * scale).numerator) for f, share in shares.items() if share
        )

    return PreparedInstance(
        instance=inst,
        support=support,
        hierarchy=hierarchy,
        plan=plan,
        params=params,
        eal_probability=dict(probs),
        truncated=truncated,
        unit_threshold=unit_threshold,
        unit_of=unit_of,
        edge_share=edge_share,
        cut_sides=cut_sides,
        cut_boundary=cut_boundary,
        metric=metric_closure(inst),
        base_value=base_value,
        edge_cut_mask=edge_cut_mask,
        last_cut_mask=last_cut_mask,
        scale=scale,
        unit_edges=unit_edges,
        cut_charges=tuple(tuple(c) for c in cut_charges),
    )


def resolve_bernoulli_units(prepared: PreparedInstance, sample: TreeSample) -> dict:
    """Each unit fires when its uniform falls below the truncation ratio.

    ``u.as_integer_ratio()`` is exact, so cross-multiplying decides
    ``Fraction(u) < threshold`` without building a ``Fraction``.
    """
    out = {}
    for key, u in sample.bernoulli_uniforms.items():
        a, b = u.as_integer_ratio()
        t = prepared.unit_threshold[key]
        out[key] = 1 if a * t.denominator < t.numerator * b else 0
    return out


def build_join_vector(prepared: PreparedInstance, sample: TreeSample) -> JoinVector:
    """The three-step construction applied to one sampled connector.

    Step 1 starts every support edge at the base value.  Step 2 subtracts the
    reduction from each edge whose two last cuts are both even and whose
    Bernoulli unit fired.  Step 3 measures each minimum cut's shortfall below
    1 (only where the connector crosses it an odd number of times) and adds to
    every non-ring edge the larger of its two proportional repair shares.

    All three steps run on integer numerators over ``prepared.scale``; the
    cut parities are the bits of the XOR of the tree edges' crossing masks.
    """
    scale = prepared.scale
    m = len(prepared.support.edges)
    crossing = prepared.edge_cut_mask
    parity = 0
    for e in sample.edges:
        parity ^= crossing[e]

    base = (prepared.base_value * scale).numerator
    values = [base] * m
    last = prepared.last_cut_mask
    reduced = []
    for key, fired in resolve_bernoulli_units(prepared, sample).items():
        if fired:
            reduced.extend(e for e in prepared.unit_edges[key] if not parity & last[e])
    reduction = (prepared.params.reduction * scale).numerator
    for e in reduced:
        values[e] -= reduction

    deficits: dict[int, int] = {}
    # ``cut_boundary`` is in ``cut_sides`` order; every minimum cut has
    # exactly four boundary edges.
    for i, (a, b, c, d) in enumerate(prepared.cut_boundary.values()):
        if parity >> i & 1:
            shortfall = scale - values[a] - values[b] - values[c] - values[d]
            if shortfall > 0:
                deficits[i] = shortfall

    increases: dict[int, int] = {}
    for i, deficit in deficits.items():
        for f, share in prepared.cut_charges[i]:
            amount = share * deficit // scale
            if amount > increases.get(f, 0):
                increases[f] = amount
    for f, amount in increases.items():
        values[f] += amount

    exact = {x: Fraction(x, scale) for x in {0, *values, *deficits.values(), *increases.values()}}
    return JoinVector(
        values=tuple(exact[x] for x in values),
        reduced=frozenset(reduced),
        deficits={
            side: exact[deficits.get(i, 0)] for i, side in enumerate(prepared.cut_sides)
        },
        increases=tuple(exact[increases.get(e, 0)] for e in range(m)),
        numerators=tuple(values),
        scale=scale,
    )


def odd_vertices(support: SupportGraph, tree_edges: Iterable[int]) -> tuple[int, ...]:
    degree = [0] * support.n
    for e in tree_edges:
        u, v = support.endpoints(e)
        degree[u] += 1
        degree[v] += 1
    return tuple(v for v in range(support.n) if degree[v] % 2 == 1)


def check_feasible(
    support: SupportGraph,
    tree_edges: Iterable[int],
    values: Sequence[Fraction],
    floor: Fraction | None = None,
) -> FeasibilityResult:
    """Verify the vector covers every cut with odd tree-degree, exactly, at any n.

    The values are scaled to integers by the lcm of their denominators, and
    the minimum odd cut comes from a Gomory-Hu tree of the support weighted by
    them (Padberg-Rao).  ``minimum`` is that cut's exact value (10^9 when no
    vertex is odd) and ``witness`` a minimizing side without vertex 0, given
    only when the vector is infeasible.  Also reports whether every entry
    clears ``floor`` (componentwise).
    """
    odd = odd_vertices(support, tree_edges)
    scale = lcm(*(x.denominator for x in values))
    found = min_odd_cut(
        support.n,
        ((e.u, e.v, int(x * scale)) for e, x in zip(support.edges, values)),
        odd,
    )
    minimum, witness = Fraction(10**9), None
    if found is not None:
        minimum, witness = Fraction(found[0], scale), found[1]
    feasible = minimum >= 1
    min_value = min(values)
    floor_ok = True if floor is None else min_value >= floor
    return FeasibilityResult(
        feasible=bool(feasible),
        minimum=minimum,
        witness=None if feasible else witness,
        floor_ok=bool(floor_ok),
        minimum_value=min_value,
    )


class JoinCalculator:
    """Minimum-cost perfect matchings on odd vertex sets, memoized.

    Uses bitmask dynamic programming with back-pointers up to ``exact_limit``
    odd vertices and a greedy pairing (an upper bound) beyond it; results are
    cached per odd set so repeated samples reuse the work.
    """

    def __init__(self, metric: Metric, exact_limit: int = 14):
        self.metric = metric
        self.exact_limit = exact_limit
        self._memo: dict[tuple[int, ...], tuple[tuple[tuple[int, int], ...], bool]] = {}
        self._exact_memo: dict[tuple[int, ...], Fraction] = {}
        self._dist = np.array(
            [[float(d) for d in row] for row in metric.dist], dtype=np.float64
        )

    def matching(self, odd: Sequence[int]) -> tuple[tuple[tuple[int, int], ...], bool]:
        """Vertex pairs covering the odd set, and whether they are DP-optimal."""
        odd = tuple(sorted(odd))
        if len(odd) % 2 == 1:
            raise ValueError("odd vertex set must have even size")
        if odd in self._memo:
            return self._memo[odd]
        if len(odd) <= self.exact_limit:
            value = (tuple(self._dp_matching(odd)), True)
        else:
            value = (tuple(self.greedy_matching(odd)), False)
        self._memo[odd] = value
        return value

    def cost(self, odd: Sequence[int]) -> tuple[Fraction, bool]:
        """Exact cost of the selected matching, and whether it is optimal."""
        pairs, exact = self.matching(odd)
        total = sum((self.metric.dist[u][v] for u, v in pairs), Fraction(0))
        return (total, exact)

    def exact_cost(self, odd: Sequence[int]) -> Fraction:
        """Optimal matching cost in exact rational arithmetic (small sets)."""
        odd = tuple(sorted(odd))
        if odd in self._exact_memo:
            return self._exact_memo[odd]
        k = len(odd)
        if k % 2 == 1:
            raise ValueError("odd vertex set must have even size")
        if k > 16:
            raise ValueError("exact matching limited to 16 odd vertices")
        dist = self.metric.dist
        dp: list[Fraction | None] = [None] * (1 << k)
        dp[0] = Fraction(0)
        for mask in range(1 << k):
            if dp[mask] is None:
                continue
            first = None
            for i in range(k):
                if not mask & (1 << i):
                    first = i
                    break
            if first is None:
                continue
            for j in range(first + 1, k):
                if mask & (1 << j):
                    continue
                nxt = mask | (1 << first) | (1 << j)
                cand = dp[mask] + dist[odd[first]][odd[j]]
                if dp[nxt] is None or cand < dp[nxt]:
                    dp[nxt] = cand
        result = dp[(1 << k) - 1]
        self._exact_memo[odd] = result
        return result

    def _dp_matching(self, odd: tuple[int, ...]) -> list[tuple[int, int]]:
        k = len(odd)
        if k == 0:
            return []
        dist = self._dist
        dp = np.full(1 << k, np.inf)
        dp[0] = 0.0
        choice = np.full(1 << k, -1, dtype=np.int64)
        for mask in range(1 << k):
            if dp[mask] == np.inf:
                continue
            first = None
            for i in range(k):
                if not mask & (1 << i):
                    first = i
                    break
            if first is None:
                continue
            for j in range(first + 1, k):
                if mask & (1 << j):
                    continue
                nxt = mask | (1 << first) | (1 << j)
                cand = dp[mask] + dist[odd[first], odd[j]]
                if cand < dp[nxt]:
                    dp[nxt] = cand
                    choice[nxt] = first * 64 + j
        pairs = []
        mask = (1 << k) - 1
        while mask:
            packed = int(choice[mask])
            i, j = packed // 64, packed % 64
            pairs.append((odd[i], odd[j]))
            mask &= ~(1 << i)
            mask &= ~(1 << j)
        return pairs

    def greedy_matching(self, odd: Sequence[int]) -> list[tuple[int, int]]:
        remaining = list(sorted(odd))
        pairs = []
        while remaining:
            u = remaining[0]
            best_j = min(
                range(1, len(remaining)),
                key=lambda j: self._dist[u, remaining[j]],
            )
            pairs.append((u, remaining[best_j]))
            del remaining[best_j]
            del remaining[0]
        return pairs


def tree_cost(
    instance: HalfIntegralInstance, support: SupportGraph, tree_edges: Iterable[int]
) -> Fraction:
    """Cost of a connector; each support copy pays its instance edge's cost."""
    return sum(
        (instance.edges[support.edges[e].instance_edge].cost for e in tree_edges),
        Fraction(0),
    )


def build_tour(
    support: SupportGraph,
    tree_edges: Sequence[int],
    matching_pairs: Sequence[tuple[int, int]],
    metric: Metric,
) -> tuple[list[int], Fraction]:
    """Close the connector + matching into a tour by shortcutting a closed walk.

    Returns the visiting order over all vertices and its exact metric cost.
    """
    from ._util import euler_circuit, shortcut_order

    multi = [tuple(support.endpoints(e)) for e in tree_edges]
    multi.extend((u, v) for u, v in matching_pairs)
    walk = euler_circuit(support.n, multi)
    order = shortcut_order(walk)
    cost = Fraction(0)
    for i, u in enumerate(order):
        v = order[(i + 1) % len(order)]
        cost += metric.dist[u][v]
    return (order, cost)


@dataclass(frozen=True)
class SampleOutcome:
    """Everything measured on one end-to-end sample."""

    tree_edges: tuple[int, ...]
    tree_cost: Fraction
    join_cost: Fraction
    join_exact: bool
    tour_cost: Fraction
    reduced_count: int
    vector_total: Fraction | None
    feasible: bool | None
    min_cut_value: Fraction | None
    min_edge_value: Fraction | None
    cut_loads: dict | None


def run_sample(
    prepared: PreparedInstance,
    rng: np.random.Generator,
    joins: JoinCalculator,
    build_vector: bool = True,
    check_vector: bool = False,
) -> SampleOutcome:
    """Sample a connector, price its parity matching and tour, optionally
    build and verify the correction vector."""
    sample = sample_hierarchical_tree(prepared.plan, rng)
    tree = sample.edges
    odd = odd_vertices(prepared.support, tree)
    pairs, join_exact = joins.matching(odd)
    join_cost = sum((prepared.metric.dist[u][v] for u, v in pairs), Fraction(0))
    _, tour = build_tour(prepared.support, tree, pairs, prepared.metric)
    vector_total = None
    reduced_count = 0
    feasible = None
    min_cut_value = None
    min_edge_value = None
    cut_loads = None
    if build_vector:
        vector = build_join_vector(prepared, sample)
        nums, scale = vector.numerators, vector.scale
        vector_total = vector.total()
        reduced_count = len(vector.reduced)
        min_edge_value = Fraction(min(nums), scale)
        loads = {
            side: nums[a] + nums[b] + nums[c] + nums[d]
            for side, (a, b, c, d) in prepared.cut_boundary.items()
        }
        exact = {x: Fraction(x, scale) for x in set(loads.values())}
        cut_loads = {side: exact[x] for side, x in loads.items()}
        if check_vector:
            result = check_feasible(
                prepared.support,
                tree,
                vector.values,
                floor=prepared.base_value - prepared.params.reduction,
            )
            feasible = result.feasible and result.floor_ok
            min_cut_value = result.minimum
    return SampleOutcome(
        tree_edges=tree,
        tree_cost=tree_cost(prepared.instance, prepared.support, tree),
        join_cost=join_cost,
        join_exact=join_exact,
        tour_cost=tour,
        reduced_count=reduced_count,
        vector_total=vector_total,
        feasible=feasible,
        min_cut_value=min_cut_value,
        min_edge_value=min_edge_value,
        cut_loads=cut_loads,
    )


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """The per-sample generator: child ``index`` of the root seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
