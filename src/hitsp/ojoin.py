"""Tree sampling and the parity-correction (join) vector construction.

Given a validated instance this module: describes the sampled connector by
one law, ``ConnectorLaw``, built from the cut hierarchy (uniform companion
choices inside chain-structured nodes, weighted-tree sampling inside cut-free
nodes, one copy per doubled class on the final ring with the distinguished
unit edge forced); computes, exactly, each edge's probability that both of
its recorded last cuts are crossed an even number of times by the sampled
connector; and turns one sampled connector into a fractional
parity-correction vector via truncated Bernoulli reductions and
deficit-sharing increases.  Feasibility of that vector against every odd
cut, minimum-cost parity matchings, and shortcut tours are provided for
verification and end-to-end runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import inf, lcm, nextafter, prod, sqrt
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._flow import members, min_odd_cut
from .cuts import CutHierarchy, InternalHierarchyError, build_hierarchy, level_tree_problem
from .instance import (
    HalfIntegralInstance,
    Metric,
    SupportGraph,
    build_support_graph,
    metric_closure,
    split_vertex_for_eplus,
)
from .maxent import LevelProblem, TreeLevel, fit_levels

DEFAULT_TOP_TRUNCATION = Fraction(1_129_032, 10**7)
DEFAULT_BOTTOM_TRUNCATION = Fraction(1, 4)
DEFAULT_REDUCTION = Fraction(1, 12)
BASE_VALUE = Fraction(1, 4)  # every support edge's value before reductions and increases


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
        for name, value, default in (
            ("top_truncation", alpha, DEFAULT_TOP_TRUNCATION),
            ("bottom_truncation", beta, DEFAULT_BOTTOM_TRUNCATION),
            ("reduction", tau, DEFAULT_REDUCTION),
        ):
            value = default if value is None else Fraction(value)
            if value < 0 or value > 1:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ConnectorLaw:
    """The one description of a sampled connector: ``fixed`` edges in every
    connector plus independent ``runs``, drawn in order: a ``TreeLevel`` by
    its walk, a tuple of doubled classes by one
    ``rng.integers(0, 2, size=len(run))`` call, which gives the same picks
    and generator state as one scalar call per class.  Raises
    ``InternalHierarchyError`` when some class is not doubled."""

    fixed: tuple[int, ...]
    runs: tuple

    def __post_init__(self) -> None:
        classes = [cls for run in self.runs if not isinstance(run, TreeLevel) for cls in run]
        if any(len(cls) != 2 for cls in classes):
            raise InternalHierarchyError("uniform-pick classes are not all doubled")

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        """One connector, as sorted edge ids."""
        edges = list(self.fixed)
        for run in self.runs:
            if isinstance(run, TreeLevel):
                edges.extend(run.sample(rng))
            else:
                picks = rng.integers(0, 2, size=len(run)).tolist()
                edges.extend([cls[i] for cls, i in zip(run, picks)])
        return tuple(sorted(edges))

    def characters(self, flip_sets: Sequence[frozenset[int]]) -> list[Fraction]:
        """E[(-1)^|T & F|] for each set F, for the sampled connector T: the
        product of its independent factors' characters.  The fixed edges give
        one sign, a doubled class 1 - |class & F| (1, 0 or -1), a cut-free
        level its kernel's sign expectation.  Each factor is asked once, for
        the sets whose product is not yet 0, and the product is reduced once."""
        values = [-1 if sum(e in F for e in self.fixed) % 2 else 1 for F in flip_sets]
        scales = [1] * len(flip_sets)
        for run in self.runs:
            live = [i for i, value in enumerate(values) if value]
            if isinstance(run, TreeLevel):
                factors = run.sign_expectations([flip_sets[i] for i in live])
            else:
                factors = [
                    prod(1 - (a in flip_sets[i]) - (b in flip_sets[i]) for a, b in run) for i in live
                ]
            for i, factor in zip(live, factors):
                values[i] *= factor.numerator
                scales[i] *= factor.denominator
        return [Fraction(value, scale) for value, scale in zip(values, scales)]


@dataclass(frozen=True)
class SamplingPlan:
    """The hierarchy's connector law and its Bernoulli units.

    ``connector`` fixes the forced ring edge and draws its runs in a fixed
    order: the chain classes (node id order), then each cut-free level (node
    id order; its vertices are its node's children and its ``edge_ids`` are
    support edge ids), then the unforced ring classes.  With no cut-free
    level the chain and ring classes are one run.  ``unit_keys`` labels the
    Bernoulli units in their fixed draw order: cycle nodes, top edges, final.
    A unit is named by its index into ``unit_keys``.
    """

    hierarchy: CutHierarchy
    connector: ConnectorLaw
    unit_keys: tuple[tuple, ...]

    @property
    def degree_levels(self) -> tuple[TreeLevel, ...]:
        """The cut-free levels, in draw order."""
        return tuple(run for run in self.connector.runs if isinstance(run, TreeLevel))


@dataclass(frozen=True)
class TreeSample:
    """One sampled connector plus the auxiliary uniforms for Bernoulli units.

    ``edges`` has exactly n entries (a spanning tree plus the one extra ring
    edge through the forced unit edge).  ``uniforms`` holds one float in
    [0, 1) per Bernoulli unit, in ``SamplingPlan.unit_keys`` order.
    """

    edges: tuple[int, ...]
    uniforms: tuple[float, ...]


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


class PlanError(RuntimeError):
    """The hierarchy violated an invariant the charging scheme relies on."""


def build_sampling_plan(hierarchy: CutHierarchy) -> SamplingPlan:
    """The connector law of the hierarchical tree distribution: one weight
    fit per cut-free level (all in one ``maxent.fit_levels`` stack), one
    uniform pick per doubled chain or ring class, and the lower copy of the
    distinguished doubled edge forced."""
    cycle_nodes = hierarchy.cycle_nodes()
    chain = [cls for node in cycle_nodes for cls in node.companion_classes]
    problems = []
    for node in hierarchy.degree_nodes():
        k, edges, targets = level_tree_problem(hierarchy, node.id)
        pairs, ids = tuple((a, b) for a, b, _ in edges), tuple(e for _, _, e in edges)
        problems.append(LevelProblem(k, pairs, ids, tuple(targets)))
    levels = fit_levels(problems, tol=1e-12)
    final = hierarchy.final
    ring = [cls for idx, cls in enumerate(final.pair_classes) if idx != final.e_plus_class]
    # Every cut-free level is drawn between the chain and the ring picks.
    runs = [tuple(chain), *levels, tuple(ring)] if levels else [tuple(chain + ring)]
    forced = min(hierarchy.support.e_plus_pair)
    return SamplingPlan(
        hierarchy=hierarchy,
        connector=ConnectorLaw((forced,), tuple(run for run in runs if run)),
        unit_keys=(
            *(("cycle", node.id) for node in cycle_nodes),
            *(("top", e) for e in hierarchy.top_edges()),
            ("final",),
        ),
    )


def sample_hierarchical_tree(plan: SamplingPlan, rng: np.random.Generator) -> TreeSample:
    """One connector: independent per-level choices, then the unit uniforms.

    Draw order is fixed (chain levels by node id, then cut-free levels by node
    id, then ring classes in order, then unit uniforms in key order) so a
    seeded generator reproduces samples exactly.  The picks come from
    ``plan.connector``; the forced ring edge takes no draw.
    """
    edges = plan.connector.sample(rng)
    return TreeSample(edges=edges, uniforms=tuple(rng.random(len(plan.unit_keys)).tolist()))


def parity_laws(
    characters: Callable[[list[frozenset[int]]], list[Fraction]],
    groups: Sequence[Sequence[frozenset[int]]],
) -> list[tuple[list[int], int]]:
    """The law of the parities (|T & F_1|, ..., |T & F_k|) mod 2 for each
    group of k edge sets, from chi(F) = E[(-1)^|T & F|].

    ``characters`` answers, in one batch for every group, the XOR of each
    non-empty subset S of the group's sets (subset S in binary order: bit i
    takes F_(i+1)).  The inverse Walsh-Hadamard transform
    P[pattern a] = 2^-k * sum_S (-1)^|a & S| chi(S), with chi of the empty
    set 1, runs on integers over the lcm D of the characters' denominators.
    Each group's law is its 2^k numerators (pattern a at index a, bit i the
    parity of F_(i+1)) over the common denominator 2^k * D.
    """
    batch, spans = [], []
    for group in groups:
        xors = [frozenset()]
        for flips in group:
            xors += [x ^ flips for x in xors]
        spans.append((len(batch), len(xors)))
        batch.extend(xors[1:])
    chi = characters(batch)
    laws = []
    for start, size in spans:
        values = [Fraction(1), *chi[start : start + size - 1]]
        denominator = lcm(*(x.denominator for x in values))
        law = [x.numerator * (denominator // x.denominator) for x in values]
        half = 1
        while half < size:
            for low in range(0, size, 2 * half):
                for i in range(low, low + half):
                    law[i], law[i + half] = law[i] + law[i + half], law[i] - law[i + half]
            half *= 2
        laws.append((law, size * denominator))
    return laws


def compute_even_at_last_probs(plan: SamplingPlan) -> dict[int, Fraction]:
    """Per-edge probability that both last cuts are even in the sampled tree.

    With A and B the two cuts' boundary edge sets, it is pattern 0 of the
    ``parity_laws`` of the pair under the connector's characters: a product
    over the independent factors the sampler draws (doubled chain and ring
    classes, cut-free levels through each level's exact kernel, the forced
    ring edge), all pairs in one batch.
    """
    hierarchy = plan.hierarchy
    keys = hierarchy.edge_last_cuts
    distinct = list(dict.fromkeys(keys))
    pairs = [[frozenset(hierarchy.min_cuts[i].boundary) for i in key] for key in distinct]
    laws = parity_laws(plan.connector.characters, pairs)
    probs = {key: Fraction(law[0], den) for key, (law, den) in zip(distinct, laws)}
    return {e: probs[key] for e, key in enumerate(keys)}


def cut_masks(hierarchy: CutHierarchy) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per support edge: the bitmask of minimum cuts it crosses, and the
    bitmask of its two last cuts.

    Bit ``i`` stands for ``hierarchy.min_cuts[i]``, the cut that
    ``hierarchy.last_cuts`` names by index ``i``, so the XOR of a connector's
    crossing masks has bit ``i`` set exactly when the connector crosses that
    cut an odd number of times.
    """
    crossing = [0] * len(hierarchy.support.edges)
    for i, cut in enumerate(hierarchy.min_cuts):
        for e in cut.boundary:
            crossing[e] |= 1 << i
    last = tuple((1 << a) | (1 << b) for a, b in hierarchy.edge_last_cuts)
    return tuple(crossing), last


@dataclass(frozen=True)
class PreparedInstance:
    """Everything the per-sample pipeline needs, precomputed once.

    Cut ``i`` is ``hierarchy.min_cuts[i]``, with side ``cut_sides[i]`` and
    boundary ``boundaries[i]``.  ``edge_cut_mask[e]`` has bit ``i`` set when
    edge ``e`` crosses cut ``i`` and ``last_cut_mask[e]`` marks the edge's
    two last cuts.  Every vector entry, deficit and increase is an integer
    multiple of ``1 / scale``; ``base_numerator`` and ``reduction_numerator``
    are ``BASE_VALUE`` and the reduction over it.  ``cut_charges[i]`` lists
    ``(edge, share * scale)`` for every non-ring edge with cut ``i`` among
    its last cuts and a positive share of its charge.  Costs are read off
    ``support.costs``, over ``metric.scale``.

    Bernoulli unit ``k`` is ``plan.unit_keys[k]``; ``unit_of[e]`` is edge
    ``e``'s unit.  ``unit_threshold`` and ``unit_table`` are in unit order,
    with ``unit_table[k] = (lo, inclusive, edges)``: ``lo`` is the largest
    double <= the unit's threshold t, ``inclusive`` says t is not itself a
    double, and ``edges`` are those the unit may reduce (a positive
    even-at-last probability).  A double u is below t exactly when
    ``u < lo``, or ``u == lo`` and ``inclusive``, so no sample needs a
    ``Fraction``.
    """

    instance: HalfIntegralInstance
    support: SupportGraph
    hierarchy: CutHierarchy
    plan: SamplingPlan
    params: ChargingParams
    eal_probability: dict
    unit_threshold: tuple
    unit_of: tuple
    cut_sides: tuple
    cut_boundary: dict
    boundaries: tuple
    metric: Metric
    base_numerator: int
    reduction_numerator: int
    edge_cut_mask: tuple
    last_cut_mask: tuple
    scale: int
    unit_table: tuple
    cut_charges: tuple


def _double_floor(t: Fraction) -> tuple[float, bool]:
    """The largest double <= ``t``, and whether it falls short of ``t``.
    ``float`` rounds a ``Fraction`` correctly, so one step down suffices."""
    lo = float(t)
    if Fraction(lo) > t:
        lo = nextafter(lo, -inf)
    return lo, Fraction(lo) != t


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

    for e in hierarchy.final_edges():
        if probs[e] != 1:
            raise PlanError(f"final edge {e} has even-at-last probability {probs[e]} != 1")

    truncated: dict[int, Fraction] = {}
    for e, (kind, _) in enumerate(hierarchy.edge_level):
        cap = params.top_truncation if kind == "top" else params.bottom_truncation
        truncated[e] = min(cap, probs[e])

    # A top edge is its own unit, a chain edge its cycle node's, a ring edge the final one.
    unit_index = {key: k for k, key in enumerate(plan.unit_keys)}
    unit_of = tuple(
        unit_index[{"top": ("top", e), "bottom": ("cycle", node), "final": ("final",)}[kind]]
        for e, (kind, node) in enumerate(hierarchy.edge_level)
    )
    thresholds: list[Fraction | None] = [None] * len(plan.unit_keys)
    unit_edges: list[list[int]] = [[] for _ in plan.unit_keys]
    for e, k in enumerate(unit_of):
        p = probs[e]
        thr = Fraction(0) if p == 0 else truncated[e] / p
        if thresholds[k] is None:
            thresholds[k] = thr
        elif thresholds[k] != thr:
            raise PlanError(
                f"edges sharing unit {plan.unit_keys[k]} disagree on threshold: "
                f"{thresholds[k]} vs {thr}"
            )
        if p != 0:
            unit_edges[k].append(e)
    unit_threshold = tuple(Fraction(0) if t is None else t for t in thresholds)
    unit_edges = tuple(map(tuple, unit_edges))

    edge_share: dict[int, dict[int, Fraction]] = {}
    for i, members in hierarchy.charge_groups().items():
        denom = sum((truncated[f] for f in members), Fraction(0))
        if denom > 0:
            edge_share[i] = {f: truncated[f] / denom for f in members}
        else:
            edge_share[i] = {f: Fraction(0) for f in members}

    cut_sides = tuple(cut.vertices for cut in hierarchy.min_cuts)
    boundaries = tuple(cut.boundary for cut in hierarchy.min_cuts)
    edge_cut_mask, last_cut_mask = cut_masks(hierarchy)

    # Before increases every entry is base - reduction * {0, 1}, so deficits
    # are multiples of 1 / lcm(den(base), den(reduction)); one more factor of
    # every share denominator makes each share * deficit an integer over L.
    scale = lcm(BASE_VALUE.denominator, params.reduction.denominator) * lcm(
        *(s.denominator for shares in edge_share.values() for s in shares.values())
    )
    cut_charges: list[tuple[tuple[int, int], ...]] = [()] * len(cut_sides)
    for i, shares in edge_share.items():
        cut_charges[i] = tuple((f, (share * scale).numerator) for f, share in shares.items() if share)

    return PreparedInstance(
        instance=inst,
        support=support,
        hierarchy=hierarchy,
        plan=plan,
        params=params,
        eal_probability=dict(probs),
        unit_threshold=unit_threshold,
        unit_of=unit_of,
        cut_sides=cut_sides,
        cut_boundary=dict(zip(cut_sides, boundaries)),
        boundaries=boundaries,
        metric=metric_closure(inst),
        base_numerator=(BASE_VALUE * scale).numerator,
        reduction_numerator=(params.reduction * scale).numerator,
        edge_cut_mask=edge_cut_mask,
        last_cut_mask=last_cut_mask,
        scale=scale,
        unit_table=tuple((*_double_floor(t), edges) for t, edges in zip(unit_threshold, unit_edges)),
        cut_charges=tuple(cut_charges),
    )


def resolve_bernoulli_units(prepared: PreparedInstance, sample: TreeSample) -> tuple[int, ...]:
    """Each unit fires (1) when its uniform falls below its threshold, read
    exactly off ``prepared.unit_table``; otherwise 0.  One entry per unit."""
    return tuple(
        1 if u < lo or (inclusive and u == lo) else 0
        for u, (lo, inclusive, _) in zip(sample.uniforms, prepared.unit_table)
    )


def _vector_numerators(
    prepared: PreparedInstance, sample: TreeSample
) -> tuple[list[int], list[int], dict[int, int], dict[int, int]]:
    """``build_join_vector`` on integers over ``prepared.scale``: the values,
    the reduced edges, and the positive deficits and increases keyed by cut
    index and edge.  Only fired units and odd cuts (the set bits of the
    parity mask, lowest first) are visited."""
    scale = prepared.scale
    crossing = prepared.edge_cut_mask
    parity = 0
    for e in sample.edges:
        parity ^= crossing[e]

    values = [prepared.base_numerator] * len(crossing)
    last = prepared.last_cut_mask
    reduced = []
    for fired, (_, _, edges) in zip(resolve_bernoulli_units(prepared, sample), prepared.unit_table):
        if fired:
            reduced.extend(e for e in edges if not parity & last[e])
    reduction = prepared.reduction_numerator
    for e in reduced:
        values[e] -= reduction

    # Deficits read the reduced values; increases are applied after all of
    # them.  Every minimum cut has exactly four boundary edges.
    boundaries = prepared.boundaries
    charges = prepared.cut_charges
    deficits: dict[int, int] = {}
    increases: dict[int, int] = {}
    rest = parity
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        a, b, c, d = boundaries[i]
        shortfall = scale - values[a] - values[b] - values[c] - values[d]
        if shortfall > 0:
            deficits[i] = shortfall
            for f, share in charges[i]:
                amount = share * shortfall // scale
                if amount > increases.get(f, 0):
                    increases[f] = amount
    for f, amount in increases.items():
        values[f] += amount
    return values, reduced, deficits, increases


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
    values, reduced, deficits, increases = _vector_numerators(prepared, sample)
    scale = prepared.scale
    exact = {x: Fraction(x, scale) for x in {0, *values, *deficits.values(), *increases.values()}}
    return JoinVector(
        values=tuple(exact[x] for x in values),
        reduced=frozenset(reduced),
        deficits={
            side: exact[deficits.get(i, 0)] for i, side in enumerate(prepared.cut_sides)
        },
        increases=tuple(exact[increases.get(e, 0)] for e in range(len(values))),
        numerators=tuple(values),
        scale=scale,
    )


def odd_mask(support: SupportGraph, tree_edges: Iterable[int]) -> int:
    """The odd-degree vertices of the edges as a bitmask (bit ``v`` for
    vertex ``v``): the XOR of their endpoint masks."""
    ends = support.end_masks
    mask = 0
    for e in tree_edges:
        mask ^= ends[e]
    return mask


def odd_vertices(support: SupportGraph, tree_edges: Iterable[int]) -> tuple[int, ...]:
    return tuple(members(odd_mask(support, tree_edges)))


def _check_numerators(
    support: SupportGraph, odd: int, values: Sequence[int], scale: int, floor: int | None
) -> FeasibilityResult:
    """``check_feasible`` on the integer numerators of the values over
    ``scale``, with the odd vertices as a bitmask and the floor as a
    numerator over the same scale."""
    found = min_odd_cut(
        support.n,
        ((e.u, e.v, x) for e, x in zip(support.edges, values)),
        members(odd),
    )
    minimum, witness = Fraction(10**9), None
    if found is not None:
        minimum, witness = Fraction(found[0], scale), found[1]
    feasible = minimum >= 1
    return FeasibilityResult(
        feasible=feasible,
        minimum=minimum,
        witness=None if feasible else witness,
        floor_ok=floor is None or min(values) >= floor,
    )


# The most verdicts one run's memo keeps: a vector that repeats often is
# soon among those seen, and a run of distinct vectors keeps no more.
VERDICT_MEMO_CAP = 256


def _check_memo(
    joins: JoinCalculator,
    support: SupportGraph,
    odd: int,
    values: Sequence[int],
    scale: int,
    floor: int | None,
) -> FeasibilityResult:
    """``_check_numerators``, each distinct (odd mask, numerators, scale,
    floor) checked once per ``joins`` while its ``verdicts`` have room: they
    keep the first ``VERDICT_MEMO_CAP`` results, so a run's memo holds at
    most one entry per checked sample and never more than the cap."""
    key = (odd, tuple(values), scale, floor)
    result = joins.verdicts.get(key)
    if result is None:
        result = _check_numerators(support, odd, values, scale, floor)
        if len(joins.verdicts) < VERDICT_MEMO_CAP:
            joins.verdicts[key] = result
    return result


def check_feasible(
    support: SupportGraph,
    tree_edges: Iterable[int],
    values: Sequence[Fraction],
    floor: Fraction | None = None,
) -> FeasibilityResult:
    """Verify the vector covers every cut with odd tree-degree, exactly, at any n.

    The values (and the floor) are scaled to integers by the lcm of their
    denominators, and the minimum odd cut comes from a Gomory-Hu tree on the
    odd vertices of the support weighted by them (Padberg-Rao), |T| - 1 flows
    for the odd set T.  ``minimum`` is that cut's exact value (10^9 when no
    vertex is odd) and ``witness`` a minimizing side without vertex 0, given
    only when the vector is infeasible.  Also reports whether every entry
    clears ``floor`` (componentwise).
    """
    denominators = [x.denominator for x in values]
    if floor is not None:
        denominators.append(floor.denominator)
    scale = lcm(*denominators)
    return _check_numerators(
        support,
        odd_mask(support, tree_edges),
        [x.numerator * (scale // x.denominator) for x in values],
        scale,
        None if floor is None else floor.numerator * (scale // floor.denominator),
    )


EXACT_JOIN_LIMIT = 14
EXACT_COST_LIMIT = 16  # the most odd vertices exact_cost prices: the oracle's join range


@lru_cache(maxsize=None)
def _join_layers(k: int) -> tuple[tuple[tuple[np.ndarray, ...], ...], int]:
    """The matching DP's reachable states on ``k`` sorted vertices, one layer
    per pair count: a state pairs its lowest free vertex with each later free
    one.  Per layer, for every transition: its source (an index into the
    previous layer), its pair ``first * k + second`` and its position in its
    target's group; then each group's start.  Targets are in increasing mask
    order and each group's sources in increasing mask order, the order a push
    DP over sorted masks offers them in.  Also the widest group.  Only
    ``k <= EXACT_COST_LIMIT`` is ever asked for, so the cache stays small."""
    layers, states, width = [], [0], 1
    for _ in range(k // 2):
        moves: dict[int, list[tuple[int, int]]] = {}
        for s, mask in enumerate(states):
            low = mask | (mask + 1)
            first = (low ^ mask).bit_length() - 1
            for j in range(first + 1, k):
                if not mask >> j & 1:
                    moves.setdefault(low | 1 << j, []).append((s, first * k + j))
        states = sorted(moves)
        groups = [moves[t] for t in states]
        width = max(width, *map(len, groups))
        layers.append((
            np.array([s for g in groups for s, _ in g]),
            np.array([p for g in groups for _, p in g]),
            np.array([i for g in groups for i in range(len(g))]),
            np.cumsum([0] + [len(g) for g in groups[:-1]]),
        ))
    return tuple(layers), width


class JoinCalculator:
    """Minimum-cost perfect matchings on odd vertex sets, memoized.

    Distances are the metric's integer numerators over its ``scale``.  One layered dynamic program pairs up to
    ``EXACT_JOIN_LIMIT`` odd vertices optimally; a greedy pairing (an upper
    bound) covers larger sets.  Each odd set's pairs and integer cost are
    cached under its vertex bitmask, so repeated samples reuse the work.
    """

    def __init__(self, metric: Metric):
        self.scale = metric.scale
        self.dist = metric.numerators
        self._top = max(max(row) for row in self.dist)
        self._matrix = np.array(self.dist, dtype=np.int64 if self._top < 2**63 else object)
        # One shared tuple per vertex pair keeps the memo small.
        self._pair = [[(u, v) for v in range(metric.n)] for u in range(metric.n)]
        self._memo: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}
        # The checked vectors' verdicts, one run's worth (``_check_memo``).
        self.verdicts: dict[tuple, FeasibilityResult] = {}

    def join(self, odd_mask: int) -> tuple[tuple[tuple[int, int], ...], bool, int]:
        """Pairs covering the odd set (bit ``v`` of ``odd_mask`` for vertex
        ``v``), whether they are optimal, and their cost times ``scale``."""
        found = self._memo.get(odd_mask)
        if found is None:
            odd = members(odd_mask)
            if len(odd) % 2 == 1:
                raise ValueError("odd vertex set must have even size")
            if len(odd) <= EXACT_JOIN_LIMIT:
                found = self._optimal(odd)
            else:
                pairs = self.greedy_matching(odd)
                found = (pairs, sum(self.dist[u][v] for u, v in pairs))
            self._memo[odd_mask] = found
        pairs, cost = found
        return pairs, 2 * len(pairs) <= EXACT_JOIN_LIMIT, cost

    def matching(self, odd: Sequence[int]) -> tuple[tuple[tuple[int, int], ...], bool]:
        """Vertex pairs covering the odd set, and whether they are optimal."""
        return self.join(sum(1 << v for v in set(odd)))[:2]

    def exact_cost(self, odd_mask: int) -> Fraction:
        """Optimal matching cost, exactly, on an odd-set mask of up to ``EXACT_COST_LIMIT`` vertices."""
        k = odd_mask.bit_count()
        if k > EXACT_COST_LIMIT or k % 2 == 1:
            raise ValueError(f"exact matching needs an even set of ≤ {EXACT_COST_LIMIT} vertices")
        if k > EXACT_JOIN_LIMIT:
            return Fraction(self._optimal(members(odd_mask))[1], self.scale)
        return Fraction(self.join(odd_mask)[2], self.scale)

    def cycle_cost(self, order: Sequence[int]) -> int:
        """Cost of the closed tour through ``order``, times ``scale``."""
        dist = self.dist
        return sum(dist[u][v] for u, v in zip(order, (*order[1:], *order[:1])))

    def _optimal(self, odd: Sequence[int]) -> tuple[tuple[tuple[int, int], ...], int]:
        """One sweep per layer of ``_join_layers``: every target keeps its
        cheapest transition, a tie going to the first source in push order.
        Cost and group position share one key, ``cost * width + position``,
        so a single ``np.minimum.reduceat`` picks both.  Keys are int64 when
        they cannot reach 2**63 and Python integers (object dtype) otherwise.
        Pairs come out last layer first."""
        k = len(odd)
        layers, width = _join_layers(k)
        rows = np.array(odd, dtype=np.intp)
        costs = self._matrix.take(rows, 0).take(rows, 1).ravel()
        if self._top * (k // 2 + 1) * width + width >= 2**63:
            costs = costs.astype(object)
        costs = costs * width
        best = np.zeros(1, dtype=costs.dtype)
        kept = []
        for src, pair, pos, starts in layers:
            keys = np.minimum.reduceat(best[src] + costs[pair] + pos, starts)
            position = keys % width
            best = keys - position
            kept.append(position)
        pairs, state = [], 0
        for (src, pair, _, starts), position in zip(reversed(layers), reversed(kept)):
            t = starts[state] + position[state]
            first, second = divmod(int(pair[t]), k)
            pairs.append(self._pair[odd[first]][odd[second]])
            state = src[t]
        return (tuple(pairs), int(best[0]) // width)

    def greedy_matching(self, odd: Sequence[int]) -> tuple[tuple[int, int], ...]:
        remaining = sorted(odd)
        pairs = []
        while remaining:
            row = self.dist[remaining[0]]
            best_j = min(range(1, len(remaining)), key=lambda j: row[remaining[j]])
            pairs.append(self._pair[remaining[0]][remaining.pop(best_j)])
            del remaining[0]
        return tuple(pairs)


def tree_cost(instance: HalfIntegralInstance, support: SupportGraph, tree_edges: Iterable[int]) -> Fraction:
    """Cost of a connector; each support copy pays its instance edge's cost."""
    return sum((instance.edges[support.edges[e].instance_edge].cost for e in tree_edges), Fraction(0))


def tour_order(
    support: SupportGraph, tree_edges: Sequence[int], matching_pairs: Sequence[tuple[int, int]]
) -> list[int]:
    """First-visit order of an Euler circuit of the connector (distinct
    support edges) plus the matching: Hierholzer's walk from the first
    edge's first endpoint, each vertex leaving by its first unused edge,
    tree edges in the given order before the pairs.  Raises ValueError
    without edges, at an odd degree, or when the edges are not connected."""
    if not tree_edges and not matching_pairs:
        raise ValueError("no edges")
    arcs, pair_id = support.arcs, len(support.edges)
    adjacency: list[list] = [[] for _ in range(support.n)]  # (neighbour, edge id), last edge first
    for j in range(len(matching_pairs) - 1, -1, -1):
        u, v = matching_pairs[j]
        adjacency[v].append((u, pair_id + j))
        adjacency[u].append((v, pair_id + j))
    for e in reversed(tree_edges):
        (u, forward), (v, back) = arcs[e]
        adjacency[v].append(back)
        adjacency[u].append(forward)
    for entries in adjacency:
        if len(entries) & 1:
            raise ValueError("odd-degree vertex: no Euler circuit")
    used = bytearray(pair_id + len(matching_pairs))
    stack, walk = [arcs[tree_edges[0]][0][0] if tree_edges else matching_pairs[0][0]], []
    while stack:
        entries = adjacency[stack[-1]]
        while entries:
            v, idx = entries.pop()
            if not used[idx]:
                used[idx] = 1
                stack.append(v)
                break
        else:
            walk.append(stack.pop())
    if len(walk) != len(tree_edges) + len(matching_pairs) + 1:
        raise ValueError("graph is not connected on its edge set")
    return list(dict.fromkeys(reversed(walk)))


def build_tour(
    support: SupportGraph, tree_edges: Sequence[int], matching_pairs: Sequence[tuple[int, int]], metric: Metric
) -> tuple[list[int], Fraction]:
    """The connector + matching shortcut into a tour: its order and exact metric cost."""
    order = tour_order(support, tree_edges, matching_pairs)
    return order, sum((metric.dist[u][v] for u, v in zip(order, order[1:] + order[:1])), Fraction(0))


@dataclass
class SampleOutcome:
    """Everything measured on one end-to-end sample of either pipeline.

    ``tree_numerator`` and ``join_numerator`` are the costs times
    ``joins.scale``, the cost scale; ``vector_values`` (the vector's entries)
    and their sum ``vector_numerator`` are over ``vector_scale``.  The tour
    is built and priced on the first read of ``tour_numerator`` or
    ``tour_cost``.  The hierarchy path fills ``min_edge_value`` and
    ``prepared``, whose cuts ``cut_loads`` sums the vector over when read (a
    load is linear in the vector); the degree-cut path fills
    ``normal_count``, the drawn matching's normal edges, of which
    ``reduced_count`` were reduced.  Not frozen: a frozen field costs an
    ``object.__setattr__`` call on every sample.
    """

    tree_edges: tuple[int, ...]
    tree_cost: Fraction
    join_cost: Fraction
    join_exact: bool
    vector_total: Fraction | None
    feasible: bool | None
    min_cut_value: Fraction | None
    tree_numerator: int
    join_numerator: int
    vector_numerator: int | None
    vector_values: Sequence[int] | None
    join_pairs: tuple[tuple[int, int], ...]
    vector_scale: int | None
    support: SupportGraph = field(repr=False, compare=False)
    joins: JoinCalculator = field(repr=False, compare=False)
    reduced_count: int = 0
    min_edge_value: Fraction | None = None
    prepared: PreparedInstance | None = field(default=None, repr=False, compare=False)
    normal_count: int | None = None
    _tour: int | None = field(default=None, repr=False, compare=False)

    @property
    def tour_numerator(self) -> int:
        if self._tour is None:
            self._tour = self.joins.cycle_cost(tour_order(self.support, self.tree_edges, self.join_pairs))
        return self._tour

    @property
    def tour_cost(self) -> Fraction:
        return Fraction(self.tour_numerator, self.joins.scale)

    @property
    def cut_loads(self) -> dict | None:
        """Each minimum cut's load y(δ(S)), keyed by side in ``cut_sides`` order."""
        prepared, values = self.prepared, self.vector_values
        if prepared is None:
            return None
        return {
            side: Fraction(sum(values[e] for e in boundary), self.vector_scale)
            for side, boundary in zip(prepared.cut_sides, prepared.boundaries)
        }


def finish_sample(
    joins: JoinCalculator,
    support: SupportGraph,
    tree: tuple[int, ...],
    odd: int,
    vector: tuple[list[int], int, int] | None,
    check_vector: bool,
    **extras,
) -> SampleOutcome:
    """The steps both pipelines share once a connector ``tree``, its odd
    mask and its vector ``(numerators, scale, floor numerator)`` are drawn:
    price the join, sum the tree's cost numerators off ``support.costs``
    (over ``joins.scale``), check the vector against its floor through
    :func:`_check_memo` when asked, and build the outcome with the
    pipeline's own ``extras``."""
    pairs, join_exact, join_numerator = joins.join(odd)
    tree_numerator = sum(support.costs[e] for e in tree)
    values = scale = vector_numerator = vector_total = feasible = min_cut_value = None
    if vector is not None:
        values, scale, floor = vector
        vector_numerator = sum(values)
        vector_total = Fraction(vector_numerator, scale)
        if check_vector:
            result = _check_memo(joins, support, odd, values, scale, floor)
            feasible = result.feasible and result.floor_ok
            min_cut_value = result.minimum
    return SampleOutcome(
        tree_edges=tree,
        tree_cost=Fraction(tree_numerator, joins.scale),
        join_cost=Fraction(join_numerator, joins.scale),
        join_exact=join_exact,
        vector_total=vector_total,
        feasible=feasible,
        min_cut_value=min_cut_value,
        tree_numerator=tree_numerator,
        join_numerator=join_numerator,
        vector_numerator=vector_numerator,
        vector_values=values,
        join_pairs=pairs,
        vector_scale=scale,
        support=support,
        joins=joins,
        **extras,
    )


def run_sample(
    prepared: PreparedInstance,
    rng: np.random.Generator,
    joins: JoinCalculator,
    build_vector: bool = True,
    check_vector: bool = False,
) -> SampleOutcome:
    """Sample a connector and price its parity matching; optionally build and
    verify the correction vector.  ``joins`` must price ``prepared.metric``;
    it also keeps each distinct checked vector's verdict
    (:func:`_check_memo`)."""
    sample = sample_hierarchical_tree(prepared.plan, rng)
    tree = sample.edges
    odd = odd_mask(prepared.support, tree)
    if not build_vector:
        return finish_sample(joins, prepared.support, tree, odd, None, False)
    values, reduced, _, _ = _vector_numerators(prepared, sample)
    scale = prepared.scale
    floor = prepared.base_numerator - prepared.reduction_numerator
    return finish_sample(
        joins, prepared.support, tree, odd, (values, scale, floor), check_vector,
        reduced_count=len(reduced),
        min_edge_value=Fraction(min(values), scale),
        prepared=prepared,
    )


def sample_records(
    draw: Callable[[np.random.Generator], SampleOutcome],
    seed: int,
    indices: range,
    fields: Sequence[str],
) -> list[tuple]:
    """The one sample loop of ``run``, ``degreecut`` and the sampled rows:
    sample ``i`` of ``indices`` is ``draw(rng)``, ``rng`` on the stream of
    ``sample_rng(seed, i)``, kept as the tuple of its outcome's ``fields``.
    One generator serves every sample, so a draw must not keep it."""
    record = attrgetter(*fields)
    return [record(draw(rng)) for rng in _streams(seed, indices)]


def sample_statistics(numerators: Sequence[int], unit: Fraction) -> tuple[Fraction, float, list[float]]:
    """The samples' values are ``x * unit`` over their integer numerators
    ``x``.  Returns their exact mean, their sample standard deviation (n - 1
    degrees of freedom, 0.0 for one sample) and the interval mean ± 3σ/√n.
    σ is the square root of the exact variance, which is rounded once to a
    float, so no float here depends on the order of the samples."""
    n = len(numerators)
    total = sum(numerators)
    mean = Fraction(total, n) * unit
    std = 0.0
    if n > 1:
        squares = sum(x * x for x in numerators)
        std = sqrt(Fraction(n * squares - total * total, n * (n - 1)) * unit * unit)
    half = 3 * (std / sqrt(n))
    return mean, std, [float(mean) - half, float(mean) + half]


# Seeding.  Sample i of root seed s draws from default_rng(SeedSequence(s, spawn_key=(i,)))'s
# stream, whose PCG64 state is computed here: SeedSequence's hash on uint32 columns.
SEED_SCHEME = "SeedSequence(root, spawn_key=(sample_index,))"
SEED_BLOCK = 256  # samples hashed at once; the last two blocks stay cached
_M32, _M128, _PCG_MULT = 0xFFFF_FFFF, (1 << 128) - 1, 0x2360ED051FC65DA44385DF649FCCF645
_POOL_HASH, _STATE_HASH, _MIX = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED), (0xCA01F9DD, 0x4973F715)


def _words(value: int) -> list[int]:
    """A non-negative int's little-endian 32-bit words, at least one."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    return [value >> k & _M32 for k in range(0, max(value.bit_length(), 1), 32)]


def _constants(const: int, mult: int) -> Iterator[tuple[int, int]]:
    """A SeedSequence hash's constants in turn: each step's and the next."""
    while True:
        yield const, (const := const * mult & _M32)


def _hash(value, constants: Iterator[tuple[int, int]]):
    """SeedSequence's hash step on an int or a uint32 column."""
    const, const_next = next(constants)
    value = (value ^ const) * const_next & _M32
    return value ^ value >> 16


def _mix_into(pool: list, dst: int, word, constants: Iterator[tuple[int, int]]) -> None:
    """SeedSequence's mix of the hashed ``word`` into ``pool[dst]``."""
    mixed = ((_MIX[0] * pool[dst] & _M32) - (_MIX[1] * _hash(word, constants) & _M32)) & _M32
    pool[dst] = mixed ^ mixed >> 16


def seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(8)`` for each
    ``i`` in ``[start, stop)``, one uint32 row each.  The run words are
    zero-padded to the pool of four (a spawn key follows); a key's words past
    the first are fixed up to each multiple of 2**32, where a range splits."""
    end = min(stop, ((start >> 32) + 1) << 32)
    if end < stop:
        return np.concatenate([seed_words(seed, start, end), seed_words(seed, end, stop)])
    run, key = _words(seed), _words(start)
    run += [0] * (4 - len(run))
    key[0] = np.arange(key[0], key[0] + stop - start, dtype=np.uint32)
    constants = _constants(*_POOL_HASH)
    pool = [_hash(word, constants) for word in run[:4]]
    for src, dst in [(src, dst) for src in range(4) for dst in range(4) if src != dst]:
        _mix_into(pool, dst, pool[src], constants)
    for word, dst in [(word, dst) for word in run[4:] + key for dst in range(4)]:
        _mix_into(pool, dst, word, constants)
    constants = _constants(*_STATE_HASH)
    return np.array([_hash(pool[j % 4], constants) for j in range(8)], dtype=np.uint32).T


@lru_cache(maxsize=2)
def _block_states(seed: int, block: int) -> list[tuple[int, int]]:
    """PCG64's (state, inc) for each sample from ``block * SEED_BLOCK`` on.
    It reads the words as 64-bit little-endian a, b, c, d: seed s = a·2^64 + b
    and sequence q = c·2^64 + d; inc = 2q + 1, and the state steps twice
    from 0, adding s between the steps."""
    words = seed_words(seed, block * SEED_BLOCK, (block + 1) * SEED_BLOCK).astype(np.uint64)
    states = []
    for a, b, c, d in (words[:, 0::2] | words[:, 1::2] << np.uint64(32)).tolist():
        inc = (c << 65 | d << 1 | 1) & _M128
        states.append(((((a << 64 | b) + inc) * _PCG_MULT + inc) & _M128, inc))
    return states


def _streams(seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """One generator, set in turn to the stream of each sample of ``indices``."""
    rng = np.random.Generator(np.random.PCG64(0))
    for i in indices:
        state, inc = _block_states(seed, i // SEED_BLOCK)[i % SEED_BLOCK]
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """A fresh generator on sample ``index``'s stream."""
    return next(_streams(seed, range(index, index + 1)))
