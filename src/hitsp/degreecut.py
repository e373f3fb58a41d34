"""The variant pipeline for instances whose only minimum cuts are vertex cuts.

Applies to all-half instances (every edge value 1/2, support 4-regular) where
no proper vertex set induces a 4-edge cut.  The pipeline decomposes a
fractional matching target into maximum matchings, samples one, and samples a
spanning tree whose marginals are 1 on the matching (except one zeroed edge,
which is added back afterwards so the whole matching always rides along),
5/12 at the unmatched root vertex for odd orders, and 1/3 elsewhere.  The
correction vector starts at 1/2 on matched edges, 1/4 at the root, 1/6
elsewhere; a matched edge away from the root's neighborhood drops from 1/2 to
1/6 whenever both its endpoints get even tree degree.

The tree marginal vector can sit on proper faces of the spanning tree
polytope (tight sets), so sampling decomposes recursively: any vertex set
whose internal marginal mass equals its size minus one is split off and
sampled independently of the contracted remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from ._flow import first_tight_set
from ._simplex import solve_equalities_nonneg
from ._util import ResourceCapError
from .instance import (
    HALF,
    HalfIntegralInstance,
    SupportGraph,
    build_support_graph,
    metric_closure,
)
from .maxent import LevelProblem, fit_levels
from .ojoin import (
    ConnectorLaw,
    JoinCalculator,
    SampleOutcome,
    finish_sample,
    odd_mask,
    parity_laws,
    sample_records,
    sample_statistics,
)


# The decomposition solves one system over every maximum matching; past this
# many the instance is refused (ResourceCapError) instead of run for minutes.
MATCHING_CAP = 10_000
VECTOR_SCALE = 12  # every correction-vector value is a whole number of twelfths


class DegreeCutError(ValueError):
    """The instance does not qualify for the variant pipeline."""


@dataclass(frozen=True)
class MatchingDecomposition:
    """A convex combination of maximum matchings hitting the target exactly.

    ``weights[i]`` pairs an exact weight with a matching (frozenset of edge
    ids); weights are positive and sum to 1.  ``method`` records whether the
    uniform law over all maximum matchings ("uniform") or the exact simplex
    ("simplex") produced it.  ``draw_probabilities`` are the float weights
    the sampler draws a matching index with.
    """

    weights: tuple[tuple[Fraction, frozenset[int]], ...]
    method: str
    draw_probabilities: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        floats = np.array([float(w) for w, _ in self.weights])
        object.__setattr__(self, "draw_probabilities", floats / floats.sum())

    def marginals(self, m: int) -> list[Fraction]:
        incidence = _incidence([matching for _, matching in self.weights], m)
        return _matching_marginals([w for w, _ in self.weights], incidence)


def _incidence(matchings: Sequence[frozenset[int]], m: int) -> np.ndarray:
    """The m x k 0/1 array whose entry (e, j) is 1 when matching j holds edge e."""
    incidence = np.zeros((m, len(matchings)), dtype=np.int64)
    edges = [e for matching in matchings for e in matching]
    owners = [j for j, matching in enumerate(matchings) for _ in matching]
    incidence[edges, owners] = 1
    return incidence


def _matching_marginals(weights: Sequence[Fraction], incidence: np.ndarray) -> list[Fraction]:
    """``incidence @ weights`` exactly: per row, the total weight of the
    matchings it holds.  The weights go over one common denominator, and the
    product runs on int64 when their numerators' abs-sum fits, else on
    Python integers."""
    den = lcm(*(w.denominator for w in weights))
    numerators = [w.numerator * (den // w.denominator) for w in weights]
    dtype = np.int64 if sum(map(abs, numerators)) < 2**63 else object
    sums = incidence.astype(dtype, copy=False) @ np.array(numerators, dtype=dtype)
    return [Fraction(x, den) for x in sums.tolist()]


def degree_cut_witness(instance: HalfIntegralInstance):
    """None when the instance qualifies; otherwise what disqualifies it.

    Returns ("value-one-edge", edge_id) or ("proper-min-cut", vertex_tuple).
    """
    for idx, e in enumerate(instance.edges):
        if e.lp_value != HALF:
            return ("value-one-edge", idx)
    support = build_support_graph(instance)
    from .cuts import enumerate_min_cuts

    for cut in enumerate_min_cuts(support):
        size = len(cut.vertices)
        if 2 <= size <= instance.n - 2:
            return ("proper-min-cut", tuple(sorted(cut.vertices)))
    return None


def require_degree_cut(instance: HalfIntegralInstance) -> None:
    witness = degree_cut_witness(instance)
    if witness is not None:
        kind, detail = witness
        raise DegreeCutError(f"not a degree-cut instance: {kind} {detail}")


def matching_size(n: int) -> int:
    return n // 2


def fractional_matching_target(instance: HalfIntegralInstance) -> list[Fraction]:
    """The per-edge matching marginals: (n-1)/(4n) for odd orders, 1/4 even."""
    n = instance.n
    if n % 2 == 1:
        value = Fraction(n - 1, 4 * n)
    else:
        value = Fraction(1, 4)
    return [value] * len(instance.edges)


def enumerate_maximum_matchings(instance: HalfIntegralInstance) -> list[frozenset[int]]:
    """All matchings of maximum size (perfect, or near-perfect for odd n).

    Raises ``ResourceCapError`` past ``MATCHING_CAP`` matchings.
    """
    n = instance.n
    target = matching_size(n)
    incident = [sorted(at) for at in instance.incident_edges]
    out: list[frozenset[int]] = []
    covered = [False] * n
    budget = n - 2 * target  # how many vertices may stay uncovered

    def extend(vertex: int, chosen: list[int], skipped: int) -> None:
        if len(chosen) == target:
            if len(out) == MATCHING_CAP:
                raise ResourceCapError(f"more than {MATCHING_CAP} maximum matchings")
            out.append(frozenset(chosen))
            return
        if vertex == n:
            return
        if covered[vertex]:
            extend(vertex + 1, chosen, skipped)
            return
        for idx in incident[vertex]:
            e = instance.edges[idx]
            other = e.v if e.u == vertex else e.u
            if other < vertex or covered[other]:
                continue
            covered[vertex] = covered[other] = True
            chosen.append(idx)
            extend(vertex + 1, chosen, skipped)
            chosen.pop()
            covered[vertex] = covered[other] = False
        if skipped < budget:
            extend(vertex + 1, chosen, skipped + 1)

    extend(0, [], 0)
    return sorted(out, key=lambda m: tuple(sorted(m)))


def decompose_matching(instance: HalfIntegralInstance) -> MatchingDecomposition:
    """Write the fractional matching target as an exact convex matching combination.

    The system has one row per edge and a last row of ones over the k
    maximum matchings, built once as an integer incidence array.  The uniform
    law, 1/k on each matching, is tried first; if it misses the target, the
    integer-preserving exact simplex of ``_simplex`` (numpy integer pivots,
    int64 while a bound rules out overflow) solves the same system.  Either
    result is checked exactly on integers: nonnegative weights, and the
    system times their numerators over one common denominator equals the
    target and 1.  ``DegreeCutError`` is raised if the simplex one fails.
    """
    target = fractional_matching_target(instance)
    matchings = enumerate_maximum_matchings(instance)
    if not matchings:
        raise DegreeCutError("instance has no maximum matching of expected size")
    k = len(matchings)
    system = np.vstack([_incidence(matchings, len(instance.edges)), np.ones(k, dtype=np.int64)])
    rhs = target + [Fraction(1)]
    uniform = [Fraction(1, k)] * k
    if _verify_decomposition(uniform, system, rhs):
        return MatchingDecomposition(weights=tuple(zip(uniform, matchings)), method="uniform")

    solution = solve_equalities_nonneg(system.tolist(), rhs)
    if solution is None:
        raise DegreeCutError("matching decomposition infeasible")
    if not _verify_decomposition(solution, system, rhs):
        raise DegreeCutError("simplex decomposition misses the matching target")
    pairs = tuple((w, matching) for w, matching in zip(solution, matchings) if w > 0)
    return MatchingDecomposition(weights=pairs, method="simplex")


def _verify_decomposition(
    weights: Sequence[Fraction], system: np.ndarray, rhs: Sequence[Fraction]
) -> bool:
    """Nonnegative weights with ``system @ weights == rhs`` exactly."""
    return all(w >= 0 for w in weights) and _matching_marginals(weights, system) == list(rhs)


def build_tree_levels(
    n: int,
    edges: Sequence[tuple[int, int]],
    targets: Sequence[Fraction],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[LevelProblem, ...]]:
    """Decompose a tree-polytope point into independently samplable levels:
    the pinned edges, the deleted ones and each level's fit problem.

    Edges with target 1 are pinned (in every tree), target 0 deleted; this
    is the one place edges are pinned, as ``maxent.fit_lambda`` fits
    interior targets only.  Any vertex set whose internal target mass
    equals its size minus one confines exactly that many tree edges, so the
    tree law factorizes: the set's interior and its contraction are
    independent problems.  Recursing on
    inclusion-minimal tight sets, each found by ``_flow.first_tight_set`` in
    polynomial time, yields levels with targets strictly inside their
    spanning-tree polytopes, where a weight fit converges.  Targets outside
    the polytope raise ``DegreeCutError``.  Nothing is fitted here:
    ``maxent.fit_levels`` fits the problems, as one stack for every matching
    in ``build_matching_contexts``.
    """
    pinned = tuple(i for i, t in enumerate(targets) if t == 1)
    deleted = tuple(i for i, t in enumerate(targets) if t == 0)
    size, contracted, had_cycle = _contract(n, edges, [edges[i] for i in pinned])
    if had_cycle:
        raise DegreeCutError("pinned tree edges contain a cycle")
    live = []
    for i, (u, v) in enumerate(contracted):
        if i in pinned or i in deleted:
            continue
        if u == v:
            raise DegreeCutError(f"edge {i} has positive target but is a self-loop")
        live.append((i, u, v))

    levels: list[LevelProblem] = []

    def split(nq: int, items: list[tuple[int, int, int]], tvals: dict) -> None:
        if nq <= 1:
            return
        tight = _first_tight_set(nq, items, tvals)
        if tight is None:
            ids, pairs = tuple(idx for idx, _, _ in items), tuple((u, v) for _, u, v in items)
            levels.append(LevelProblem(nq, pairs, ids, tuple(tvals[idx] for idx in ids)))
            return
        sset, inside = tight
        order = {v: i for i, v in enumerate(sorted(sset))}
        split(len(sset), [(idx, order[u], order[v]) for idx, u, v in inside], tvals)
        # Contract S onto its least vertex, which keeps the order of the rest;
        # the inside items become the loops.
        root = min(sset)
        outer, pairs, _ = _contract(nq, [(u, v) for _, u, v in items], [(v, root) for v in sset])
        split(outer, [(it[0], *p) for it, p in zip(items, pairs) if p[0] != p[1]], tvals)

    tvals = {i: Fraction(targets[i]) for i, _, _ in live}
    split(size, live, tvals)
    return (pinned, deleted, tuple(levels))


def _contract(
    n: int, edges: Sequence[tuple[int, int]], merge: Sequence[tuple[int, int]]
) -> tuple[int, list[tuple[int, int]], bool]:
    """Merge vertex pairs; returns (new n, remapped edges, had_cycle).

    ``had_cycle`` reports that some requested merge was already identified,
    i.e. the contracted edge set contained a cycle.
    """
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    had_cycle = False
    for u, v in merge:
        ru, rv = find(u), find(v)
        if ru == rv:
            had_cycle = True
        else:
            parent[ru] = rv
    roots = sorted({find(v) for v in range(n)})
    index = {r: i for i, r in enumerate(roots)}
    remapped = [(index[find(u)], index[find(v)]) for u, v in edges]
    return (len(roots), remapped, had_cycle)


def _first_tight_set(
    nq: int, items: Sequence[tuple[int, int, int]], tvals: dict
) -> tuple[frozenset[int], list[tuple[int, int, int]]] | None:
    """``_flow.first_tight_set`` over ``(id, u, v)`` items, and its items."""
    try:
        sset = first_tight_set(nq, [(u, v, tvals[idx]) for idx, u, v in items])
    except ValueError as exc:
        raise DegreeCutError(str(exc)) from None
    if sset is None:
        return None
    return sset, [it for it in items if it[1] in sset and it[2] in sset]


@dataclass(frozen=True)
class MatchingContext:
    """Everything derived from one sampled matching.

    ``base`` is the pre-reduction correction vector in twelfths, per edge:
    6 (1/2) on matched edges, 3 (1/4) at the unmatched root of an odd
    order, 2 (1/6) elsewhere.  ``normal_edges`` are the matched edges with
    no endpoint next to the root.  ``connector`` is the connector's law:
    every matched edge fixed, one independent run per level of the face
    decomposition of the remaining marginals.  The lowest-id matched edge
    has tree target 0 but is fixed all the same, so the whole matching is
    always present.
    """

    matching: frozenset[int]
    base: tuple[int, ...]
    normal_edges: tuple[int, ...]
    connector: ConnectorLaw


def tree_target_vector(
    instance: HalfIntegralInstance, matching: frozenset[int]
) -> tuple[tuple[Fraction, ...], int, int | None]:
    """The spanning-tree marginal vector for one matching.

    Matched edges carry 1 except the lowest-id one which carries 0; edges at
    the unmatched root carry 5/12; all others 1/3.  Returns (vector, dropped
    edge, root vertex).
    """
    n = instance.n
    covered = set()
    for e in matching:
        covered.add(instance.edges[e].u)
        covered.add(instance.edges[e].v)
    root = None
    if n % 2 == 1:
        missing = [v for v in range(n) if v not in covered]
        if len(missing) != 1:
            raise DegreeCutError(f"matching misses {len(missing)} vertices")
        root = missing[0]
    forced = min(matching)
    values = []
    for idx, e in enumerate(instance.edges):
        if idx == forced:
            values.append(Fraction(0))
        elif idx in matching:
            values.append(Fraction(1))
        elif root is not None and root in (e.u, e.v):
            values.append(Fraction(5, 12))
        else:
            values.append(Fraction(1, 3))
    return (tuple(values), forced, root)


def build_matching_contexts(
    instance: HalfIntegralInstance, matchings: Sequence[frozenset[int]]
) -> dict[frozenset[int], MatchingContext]:
    """The context of each matching: every matching is face-split first,
    then the levels of all of them are fitted in one ``maxent.fit_levels``
    stack (to 1e-10)."""
    edges = [(e.u, e.v) for e in instance.edges]
    parts = []
    for matching in matchings:
        values, forced, root = tree_target_vector(instance, matching)
        total = sum(values, Fraction(0))
        if total != instance.n - 1:
            raise DegreeCutError(f"tree targets sum to {total}, expected {instance.n - 1}")
        pinned, deleted, problems = build_tree_levels(instance.n, edges, values)
        if set(deleted) != {forced}:
            raise DegreeCutError("expected exactly the dropped matched edge at target 0")
        # Every level together with the pinned edges must account for a spanning tree.
        if len(pinned) + sum(p.vertex_count - 1 for p in problems) != instance.n - 1:
            raise DegreeCutError("face decomposition does not assemble a spanning tree")
        parts.append((matching, forced, root, pinned, problems))
    levels = iter(fit_levels([p for *_, problems in parts for p in problems], tol=1e-10))
    contexts = {}
    for matching, forced, root, pinned, problems in parts:
        terminals = frozenset()
        if root is not None:
            terminals = frozenset(v for i in instance.incident_edges[root] for v in edges[i] if v != root)
        base = tuple(
            6 if idx in matching else 3 if root in (u, v) else 2 for idx, (u, v) in enumerate(edges)
        )
        contexts[matching] = MatchingContext(
            matching=matching,
            base=base,
            normal_edges=tuple(sorted(e for e in matching if terminals.isdisjoint(edges[e]))),
            connector=ConnectorLaw((*pinned, forced), tuple(next(levels) for _ in problems)),
        )
    return contexts


def build_matching_context(
    instance: HalfIntegralInstance, matching: frozenset[int]
) -> MatchingContext:
    """:func:`build_matching_contexts` for one matching."""
    return build_matching_contexts(instance, [matching])[matching]


def correction_vector(
    support: SupportGraph, context: MatchingContext, odd: int
) -> tuple[list[int], list[int]]:
    """Apply the even-degree reduction to normal matched edges.

    ``odd`` is the connector's odd-degree vertex mask (``ojoin.odd_mask``).
    Returns (values in twelfths, reduced normal edges).  A normal matched
    edge drops from 1/2 to 1/6 when neither of its endpoints is in ``odd``,
    that is when both have even degree in the connector.
    """
    values = list(context.base)
    ends = support.end_masks
    reduced = [e for e in context.normal_edges if not odd & ends[e]]
    for e in reduced:
        values[e] = 2
    return (values, reduced)


def _endpoint_edges(
    instance: HalfIntegralInstance, edge: int
) -> tuple[frozenset[int], frozenset[int]]:
    """The edge sets at the two endpoints of ``edge``, itself included."""
    e = instance.edges[edge]
    return (instance.incident_edges[e.u], instance.incident_edges[e.v])


def normal_even_probabilities(
    instance: HalfIntegralInstance, context: MatchingContext, edges: Sequence[int]
) -> list[Fraction]:
    """P[both endpoints of a matched edge get even connector degree], exactly,
    for each of ``edges``.

    An endpoint's degree is the size of the connector's meet with the edges
    there, so this is pattern 0 of the ``parity_laws`` of the two endpoint
    sets under the connector's characters, all edges in one batch.
    """
    pairs = [_endpoint_edges(instance, edge) for edge in edges]
    laws = parity_laws(context.connector.characters, pairs)
    return [Fraction(law[0], den) for law, den in laws]


def exactly_one_each_probabilities(
    instance: HalfIntegralInstance, context: MatchingContext, edges: Sequence[int]
) -> list[Fraction]:
    """P[exactly one other edge enters at each endpoint of a matched edge],
    exactly, for each of ``edges``.

    The law of the other edges at the two endpoints, each a singleton set,
    is their ``parity_laws`` under the connector's characters (the inverse
    Walsh-Hadamard transform of the characters of every subset), all edges
    in one batch; the patterns with one edge on each side are summed.
    """
    sides = [[side - {edge} for side in _endpoint_edges(instance, edge)] for edge in edges]
    focus = [sorted(side_u | side_v) for side_u, side_v in sides]
    laws = parity_laws(context.connector.characters, [[frozenset({e}) for e in f] for f in focus])
    out = []
    for (side_u, side_v), f, (law, den) in zip(sides, focus, laws):
        u_bits = sum(1 << i for i, e in enumerate(f) if e in side_u)
        v_bits = sum(1 << i for i, e in enumerate(f) if e in side_v)
        hits = (
            x for a, x in enumerate(law) if (a & u_bits).bit_count() == 1 == (a & v_bits).bit_count()
        )
        out.append(Fraction(sum(hits), den))
    return out


def exactly_one_each_probability(
    instance: HalfIntegralInstance, context: MatchingContext, edge: int
) -> Fraction:
    """:func:`exactly_one_each_probabilities` for one edge."""
    return exactly_one_each_probabilities(instance, context, [edge])[0]


def expected_edge_vector(
    instance: HalfIntegralInstance, context: MatchingContext
) -> list[Fraction]:
    """E[y_e] for one matching: base values minus the reduction mass."""
    values = [Fraction(x, VECTOR_SCALE) for x in context.base]
    normal = context.normal_edges
    for e, even in zip(normal, normal_even_probabilities(instance, context, normal)):
        values[e] -= Fraction(1, 3) * even
    return values


def expected_vertex_values(
    instance: HalfIntegralInstance,
    decomposition: MatchingDecomposition,
    contexts: dict,
) -> list[Fraction]:
    """E[y(delta(u))] per vertex over matchings and trees, exactly."""
    out = [Fraction(0)] * instance.n
    for w, matching in decomposition.weights:
        per_edge = expected_edge_vector(instance, contexts[matching])
        for idx, e in enumerate(instance.edges):
            out[e.u] += w * per_edge[idx]
            out[e.v] += w * per_edge[idx]
    return out


def expected_edge_values(
    instance: HalfIntegralInstance, decomposition: MatchingDecomposition
) -> list[Fraction]:
    """E[z_e] over the matching draw: matched 1, root-incident 5/12, else 1/3.

    This is the connector membership probability per edge (the dropped edge
    returns to every tree), and it equals exactly 1/2 everywhere whenever the
    decomposition hits the target.
    """
    out = [Fraction(0)] * len(instance.edges)
    for w, matching in decomposition.weights:
        values, dropped, _ = tree_target_vector(instance, matching)
        for idx, value in enumerate(values):
            out[idx] += w * (1 if idx == dropped else value)
    return out


def sample_degree_cut(
    instance: HalfIntegralInstance,
    decomposition: MatchingDecomposition,
    contexts: dict,
    rng: np.random.Generator,
    joins: JoinCalculator,
    support: SupportGraph,
    metric,
    check_vector: bool = False,
) -> SampleOutcome:
    """One end-to-end sample: a matching, its connector and its correction
    vector in twelfths, then ``ojoin.finish_sample`` (join, costs off
    ``support.costs``, and the check against the 1/6 floor).
    ``joins`` prices the instance's metric and keeps each distinct checked
    vector's verdict; ``metric`` is not read."""
    probabilities = decomposition.draw_probabilities
    idx = int(rng.choice(len(probabilities), p=probabilities))
    context = contexts[decomposition.weights[idx][1]]
    tree = context.connector.sample(rng)
    odd = odd_mask(support, tree)
    values, reduced = correction_vector(support, context, odd)
    out = finish_sample(
        joins, support, tree, odd, (values, VECTOR_SCALE, 2), check_vector,
        reduced_count=len(reduced),
        normal_count=len(context.normal_edges),
    )
    out.tour_numerator  # priced at draw time, as the benchmark's loop times it (ROADMAP item 1)
    return out


def run_degree_cut(
    instance: HalfIntegralInstance,
    samples: int,
    seed: int,
    check_vectors: bool = False,
) -> dict:
    """Decompose, build per-matching contexts, then sample end to end
    through ``ojoin.sample_records``.  Returns the ``degreecut`` report's
    instance, decomposition, expected and results parts, exact values as
    ``Fraction``s."""
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    require_degree_cut(instance)
    decomposition = decompose_matching(instance)
    contexts = build_matching_contexts(instance, [m for _, m in decomposition.weights])
    support = build_support_graph(instance)
    metric = metric_closure(instance)
    joins = JoinCalculator(metric)

    expected_edges = expected_edge_values(instance, decomposition)
    expected_tree = sum((e.cost * z for e, z in zip(instance.edges, expected_edges)), Fraction(0))
    edge_value = next((v for v in expected_edges if v != HALF), HALF)
    per_vertex_max = max(expected_vertex_values(instance, decomposition, contexts))
    records = sample_records(
        lambda rng: sample_degree_cut(
            instance, decomposition, contexts, rng, joins, support, metric, check_vector=check_vectors
        ),
        seed, range(samples),
        ("tour_numerator", "vector_numerator", "reduced_count", "normal_count", "feasible"),
    )
    tour, vector, reduced, normal, feasible = zip(*records)
    lp = instance.lp_cost()
    mean_ratio, ratio_std, ratio_ci3 = sample_statistics(tour, Fraction(1, joins.scale) / lp)
    normal_draws = sum(normal)
    return {
        "instance": {"name": instance.name, "n": instance.n, "lp_cost": lp},
        "decomposition": {"method": decomposition.method, "matchings": len(decomposition.weights)},
        "expected": {"edge_value": edge_value, "tree_cost": expected_tree, "per_vertex_max": per_vertex_max},
        "results": {
            "samples": samples,
            "mean_tour_ratio": float(mean_ratio),
            "tour_ratio_std": ratio_std,
            "tour_ratio_ci3": ratio_ci3,
            "mean_vector_total": float(sample_statistics(vector, Fraction(1, VECTOR_SCALE))[0]),
            "normal_even_rate": sum(reduced) / normal_draws if normal_draws else None,
            "feasible_failures": sum(1 for f in feasible if f is False),
        },
    }
