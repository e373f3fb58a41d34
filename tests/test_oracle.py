"""Exhaustive enumeration oracles and the probability-bound battery."""

import math
import time
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterator

import numpy as np
import pytest

from hitsp.cli import HIERARCHY_CORPUS, corpus_instance
from hitsp.instance import (
    GADGET_BUILDERS,
    HalfIntegralInstance,
    generate_instance,
    metric_closure,
)
from hitsp.maxent import TreeLevel
from hitsp.ojoin import (
    ConnectorLaw,
    JoinCalculator,
    PreparedInstance,
    SamplingPlan,
    TreeSample,
    build_join_vector,
    prepare_instance,
    tree_cost,
)
from hitsp.oracle import (
    BernoulliConfig,
    HOEFFDING_FUNCTIONALS,
    Factor,
    LemmaCheck,
    PipelineExpectations,
    ResourceCapError,
    enumerate_spanning_trees,
    evaluate_functional,
    exact_pipeline_expectations,
    hoeffding_extremal,
    level_outcome_table,
    run_lemma_battery,
    subset_count_distribution,
    subset_joint_distribution,
)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def k5_parity_census() -> dict[tuple[int, int], int]:
    """Parity census of the 16 uniform trees of the complete 4-vertex graph.

    For the fixed edge (0, 1): counts of (degree parity of 0, parity of 1),
    with 0 meaning even.
    """
    census: dict[tuple[int, int], int] = {}
    for tree in enumerate_spanning_trees(4, K4_EDGES):
        deg = [0, 0, 0, 0]
        for i in tree:
            u, v = K4_EDGES[i]
            deg[u] += 1
            deg[v] += 1
        key = (deg[0] % 2, deg[1] % 2)
        census[key] = census.get(key, 0) + 1
    return census


# Reference routines the tests compare against; the pipeline never runs them.
def outcome_space_size(plan: SamplingPlan) -> tuple[int, int]:
    """(number of distinct trees, number of Bernoulli units) for the plan."""
    levels = level_outcome_table(plan.connector)
    return (prod(map(len, levels)), len(plan.unit_keys))


def exact_expectations_by_full_enumeration(
    prepared: PreparedInstance, cap: int = 2 * 10**5
) -> tuple[tuple[Fraction, ...], dict[frozenset, Fraction]]:
    """The dumbest possible route: every (tree, unit pattern) outcome drives
    the per-sample vector builder directly.  Tiny instances only."""
    plan = prepared.plan
    levels = level_outcome_table(plan.connector)
    units = plan.unit_keys
    tree_total = prod(map(len, levels))
    if tree_total * (2 ** len(units)) > cap:
        raise ResourceCapError("full outcome enumeration over cap")
    m = len(prepared.support.edges)
    totals = [Fraction(0)] * m
    loads = {side: Fraction(0) for side in prepared.cut_sides}
    for combo in product(*levels):
        tree_weight = prod((p for _, p in combo), start=Fraction(1))
        tree = tuple(sorted(e for chosen, _ in combo for e in chosen))
        for pattern in product((0, 1), repeat=len(units)):
            unit_weight = Fraction(1)
            for th, bit in zip(prepared.unit_threshold, pattern):
                unit_weight *= th if bit else 1 - th
            if unit_weight == 0:
                continue
            weight = tree_weight * unit_weight
            uniforms = tuple(0.0 if bit else 1.0 for bit in pattern)
            vector = build_join_vector(prepared, TreeSample(edges=tree, uniforms=uniforms))
            for e in range(m):
                totals[e] += weight * vector.values[e]
            for side in prepared.cut_sides:
                loads[side] += weight * sum(
                    (vector.values[e] for e in prepared.cut_boundary[side]),
                    Fraction(0),
                )
    return (tuple(totals), loads)


def hoeffding_random_minimum(
    m: int, q: Fraction, functional: str, count: int, seed: int
) -> Fraction:
    """Minimum functional value over random admissible configurations.

    Each configuration pins one probability to 1 (the count is a tree degree,
    never zero) and spreads the remaining mass q - 1 in random proportions,
    rejecting draws that push any entry above 1.  Arithmetic is exact, so
    every sampled configuration has success mass q precisely.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    q = Fraction(q)
    if not 1 <= q <= m:
        raise ValueError("total success mass must lie in [1, m]")
    rest = q - 1
    best: Fraction | None = None
    produced = 0
    while produced < count:
        raw = [Fraction(float(v)) for v in rng.random(m - 1)]
        total = sum(raw, Fraction(0))
        if total == 0:
            continue
        probs = [v * rest / total for v in raw]
        if any(v > 1 for v in probs):
            continue
        config = BernoulliConfig(tuple([Fraction(1)] + probs))
        value = evaluate_functional(functional, config)
        if best is None or value < best:
            best = value
        produced += 1
    assert best is not None
    return best


def optimal_tour_cost(instance: HalfIntegralInstance, cap: int = 13) -> Fraction:
    """Exact optimal metric tour cost by subset dynamic programming."""
    n = instance.n
    if n > cap:
        raise ResourceCapError(f"tour solver limited to {cap} vertices")
    dist = metric_closure(instance).dist
    full = 1 << (n - 1)
    best: list[list[Fraction | None]] = [[None] * (n - 1) for _ in range(full)]
    for v in range(n - 1):
        best[1 << v][v] = dist[n - 1][v]
    for mask in range(full):
        row = best[mask]
        for v in range(n - 1):
            cur = row[v]
            if cur is None or not (mask >> v) & 1:
                continue
            for w in range(n - 1):
                if (mask >> w) & 1:
                    continue
                nxt = mask | (1 << w)
                cand = cur + dist[v][w]
                if best[nxt][w] is None or cand < best[nxt][w]:
                    best[nxt][w] = cand
    answer = None
    for v in range(n - 1):
        value = best[full - 1][v]
        if value is None:
            continue
        total = value + dist[v][n - 1]
        if answer is None or total < answer:
            answer = total
    if answer is None:
        raise ValueError("no tour found")
    return answer

# Every corpus instance below envelope:4 (whose tree-by-tree reference takes
# seconds), plus a long chain.
COLLAPSE_SPECS = [
    spec for label, spec in HIERARCHY_CORPUS if label not in ("envelope:4", "envelope:5")
] + [("cycle_chain", 10)]


def _iterate_outcomes(
    levels: tuple[Factor, ...],
    cut_bound: list[tuple[int, ...]],
    edge_count: int,
    edge_cut_indices: list[tuple[int, ...]],
) -> Iterator[tuple[Fraction, tuple[int, ...], int, int]]:
    """Yield (weight, tree, cut-parity bitmask, even-at-last bitmask)."""
    for combo in product(*levels):
        weight = math.prod((p for _, p in combo), start=Fraction(1))
        tree = tuple(sorted(e for chosen, _ in combo for e in chosen))
        in_tree = set(tree)
        parity_mask = 0
        for i, bound in enumerate(cut_bound):
            if sum(1 for f in bound if f in in_tree) % 2 == 1:
                parity_mask |= 1 << i
        eal_mask = 0
        for e in range(edge_count):
            for idx in edge_cut_indices[e]:
                if (parity_mask >> idx) & 1:
                    break
            else:
                eal_mask |= 1 << e
        yield (weight, tree, parity_mask, eal_mask)


def reference_pipeline_expectations(prepared: PreparedInstance) -> PipelineExpectations:
    """The oracle's tree-by-tree route, kept as a reference.

    Trees come from the product of the factors' choice lists, one outcome at
    a time; the Bernoulli units are folded exactly per tree.  The join cost
    is averaged when every odd set stays within the exact matching range,
    otherwise reported as None.
    """
    plan = prepared.plan
    support = prepared.support
    hierarchy = prepared.hierarchy
    params = prepared.params
    tau = params.reduction
    m = len(support.edges)
    n = support.n

    levels = level_outcome_table(plan.connector)
    tree_total = math.prod(map(len, levels))
    units = plan.unit_keys

    cut_list = list(prepared.cut_sides)
    cut_bound = [prepared.cut_boundary[side] for side in cut_list]
    edge_cut_indices = hierarchy.edge_last_cuts
    groups = hierarchy.charge_groups()

    even_weight = [Fraction(0)] * len(cut_list)
    eal_weight = [Fraction(0)] * m
    marginal = [Fraction(0)] * m
    tree_cost_total = Fraction(0)
    joins = JoinCalculator(prepared.metric)
    join_total: Fraction | None = Fraction(0)

    for weight, tree, parity_mask, eal_mask in _iterate_outcomes(
        levels, cut_bound, m, edge_cut_indices
    ):
        for e in tree:
            marginal[e] += weight
        for i in range(len(cut_list)):
            if not (parity_mask >> i) & 1:
                even_weight[i] += weight
        for e in range(m):
            if (eal_mask >> e) & 1:
                eal_weight[e] += weight
        tree_cost_total += weight * tree_cost(prepared.instance, support, tree)
        if join_total is not None:
            degree = [0] * n
            for e in tree:
                u, v = support.endpoints(e)
                degree[u] += 1
                degree[v] += 1
            odd = tuple(v for v in range(n) if degree[v] % 2 == 1)
            if len(odd) > 16:
                join_total = None
            else:
                join_total += weight * joins.exact_cost(sum(1 << v for v in odd))

    # Truncations, unit thresholds, and responsibilities recomputed from the
    # enumerated probabilities, independently of the analytic pipeline.
    trunc = []
    for e in range(m):
        kind = hierarchy.edge_level[e][0]
        hi = params.top_truncation if kind == "top" else params.bottom_truncation
        trunc.append(min(hi, eal_weight[e]))
    theta = [
        Fraction(0) if eal_weight[e] == 0 else trunc[e] / eal_weight[e]
        for e in range(m)
    ]
    share: dict[int, dict[int, Fraction]] = {}
    for idx, members in groups.items():
        denom = sum((trunc[f] for f in members), Fraction(0))
        if denom > 0:
            share[idx] = {f: trunc[f] / denom for f in members}
        else:
            share[idx] = {f: Fraction(0) for f in members}

    unit_theta: dict[int, Fraction] = {}
    for e in range(m):
        key = prepared.unit_of[e]
        if key in unit_theta and unit_theta[key] != theta[e]:
            raise ValueError(f"edges sharing unit {key} disagree on threshold")
        unit_theta[key] = theta[e]

    fold_memo: dict[tuple, Fraction] = {}

    def fold_expected_increase(
        items_a: tuple[tuple[int, int], ...],
        items_b: tuple[tuple[int, int], ...],
        share_a: Fraction,
        share_b: Fraction,
        odd_a: int,
        odd_b: int,
    ) -> Fraction:
        key = (items_a, items_b, share_a, share_b, odd_a, odd_b)
        if key in fold_memo:
            return fold_memo[key]
        involved = sorted({u for u, _ in items_a} | {u for u, _ in items_b})
        count_a = dict(items_a)
        count_b = dict(items_b)
        total = Fraction(0)
        for pattern in product((0, 1), repeat=len(involved)):
            p = Fraction(1)
            hits_a = 0
            hits_b = 0
            for u, bit in zip(involved, pattern):
                th = unit_theta.get(u, Fraction(0))
                p *= th if bit else 1 - th
                if bit:
                    hits_a += count_a.get(u, 0)
                    hits_b += count_b.get(u, 0)
            if p == 0:
                continue
            total += p * max(
                share_a * tau * hits_a * odd_a,
                share_b * tau * hits_b * odd_b,
            )
        fold_memo[key] = total
        return total

    edge_value = [Fraction(1, 4) - tau * trunc[e] for e in range(m)]
    final_set = set(hierarchy.final_edges())
    for weight, tree, parity_mask, eal_mask in _iterate_outcomes(
        levels, cut_bound, m, edge_cut_indices
    ):
        # A cut's shortfall counts the reduced edges across its whole
        # boundary, ring edges included.
        cut_items: dict[int, tuple[tuple[int, int], ...]] = {}
        for e in range(m):
            if e in final_set:
                continue
            parts = []
            for idx in edge_cut_indices[e]:
                my_share = share.get(idx, {}).get(e, Fraction(0))
                odd = (parity_mask >> idx) & 1
                items: tuple[tuple[int, int], ...] = ()
                if odd and my_share > 0:
                    if idx not in cut_items:
                        counts: dict[int, int] = {}
                        for f in cut_bound[idx]:
                            if (eal_mask >> f) & 1:
                                u = prepared.unit_of[f]
                                counts[u] = counts.get(u, 0) + 1
                        cut_items[idx] = tuple(sorted(counts.items()))
                    items = cut_items[idx]
                parts.append((items, my_share, odd))
            (items_a, share_a, odd_a), (items_b, share_b, odd_b) = parts
            if (odd_a and share_a > 0 and items_a) or (
                odd_b and share_b > 0 and items_b
            ):
                edge_value[e] += weight * fold_expected_increase(
                    items_a, items_b, share_a, share_b, odd_a, odd_b
                )

    cut_even = {side: even_weight[i] for i, side in enumerate(cut_list)}
    cut_load = {
        side: sum((edge_value[e] for e in cut_bound[i]), Fraction(0))
        for i, side in enumerate(cut_list)
    }
    return PipelineExpectations(
        levels=levels,
        truncation=tuple(trunc),
        tree_outcomes=tree_total,
        unit_count=len(units),
        per_edge_marginal=tuple(marginal),
        per_edge_even=tuple(eal_weight),
        per_edge_value=tuple(edge_value),
        cut_even=cut_even,
        cut_load=cut_load,
        expected_tree_cost=tree_cost_total,
        expected_join_cost=join_total,
    )



@pytest.fixture(scope="module")
def triangle():
    return prepare_instance(GADGET_BUILDERS["doubled_triangle"]())


@pytest.fixture(scope="module")
def chain2():
    return prepare_instance(generate_instance("cycle_chain", 2))


def k4_law(lam: tuple[Fraction, ...]) -> ConnectorLaw:
    """A connector law of one cut-free K4 level with exact weights ``lam``."""
    level = TreeLevel(4, tuple(K4_EDGES), tuple(range(6)), (1.0,) * 6, lam)
    return ConnectorLaw((), (level,))


def test_enumerate_trees_uniform_k4():
    fixed, trees = level_outcome_table(k4_law((Fraction(1),) * 6))
    assert fixed == (((), Fraction(1)),)
    assert len(trees) == 16
    assert sorted(chosen for chosen, _ in trees) == sorted(enumerate_spanning_trees(4, K4_EDGES))
    assert all(p == Fraction(1, 16) for _, p in trees)


def test_enumerate_trees_weighted():
    """On a fitted level each tree's probability is the product of its
    edges' ``lam_exact``, normalized over the level's trees."""
    law = prepare_instance(GADGET_BUILDERS["split_octahedron"]()).plan.connector
    fitted = [run for run in law.runs if isinstance(run, TreeLevel) and set(run.lam_exact) != {1}]
    assert fitted
    for level in fitted:
        _, trees = level_outcome_table(ConnectorLaw((), (level,)))
        assert sum((p for _, p in trees), Fraction(0)) == 1
        assert len({p for _, p in trees}) > 1
        lam = dict(zip(level.edge_ids, level.lam_exact))
        weights = [prod((lam[e] for e in chosen), start=Fraction(1)) for chosen, _ in trees]
        total = sum(weights, Fraction(0))
        assert [p for _, p in trees] == [w / total for w in weights]


def test_level_with_no_positive_tree_weight_is_refused():
    with pytest.raises(ValueError, match="no spanning tree of positive weight"):
        level_outcome_table(k4_law((Fraction(0),) * 6))


def test_oversize_cut_free_level_is_refused_before_listing():
    # random_half_integral:26's 25-vertex level has about 3.9e11 trees;
    # listing them up to the cap took minutes.
    prepared = prepare_instance(generate_instance("random_half_integral", 26))
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="spanning tree count exceeds cap 10000000"):
        exact_pipeline_expectations(prepared)
    assert time.perf_counter() - start < 1.0


def test_enumerate_trees_cap():
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    with pytest.raises(ResourceCapError):
        enumerate_spanning_trees(8, edges, cap=100)


@pytest.mark.parametrize(("cap", "step"), [(2, "convolution step"), (8, "fold over 2 parity states")])
def test_oracle_work_cap(chain2, cap, step):
    with pytest.raises(ResourceCapError, match=step):
        exact_pipeline_expectations(chain2, cap=cap)
    exact_pipeline_expectations(chain2, cap=16)


def test_level_tables_are_probability_distributions(chain2):
    levels = level_outcome_table(chain2.plan.connector)
    for factor in levels:
        total = sum((p for _, p in factor), Fraction(0))
        assert total == 1
    count, units = outcome_space_size(chain2.plan)
    assert count == math.prod(map(len, levels))
    assert units >= 1


def test_subset_laws_are_consistent(chain2):
    levels = level_outcome_table(chain2.plan.connector)
    edges = tuple(range(3))
    joint = subset_joint_distribution(levels, edges)
    counts = subset_count_distribution(levels, edges)
    assert sum(joint.values(), Fraction(0)) == 1
    derived: dict[int, Fraction] = {}
    for pattern, p in joint.items():
        k = sum(pattern)
        derived[k] = derived.get(k, Fraction(0)) + p
    assert derived == {k: v for k, v in counts.items() if v != 0}


def test_pipeline_marginals_sum_to_tree_size(triangle):
    exp = exact_pipeline_expectations(triangle)
    n = triangle.support.n
    assert sum(exp.per_edge_marginal, Fraction(0)) == n  # every outcome has n edges
    # the forced ring copy is always in (1); its twin copy never is (0)
    assert all(0 <= m <= 1 for m in exp.per_edge_marginal)
    assert Fraction(1) in exp.per_edge_marginal
    assert Fraction(0) in exp.per_edge_marginal


def test_expectations_match_full_enumeration_triangle(triangle):
    exp = exact_pipeline_expectations(triangle)
    values, loads = exact_expectations_by_full_enumeration(triangle)
    assert tuple(exp.per_edge_value) == values
    assert exp.cut_load == loads


def test_expectations_match_full_enumeration_chain(chain2):
    exp = exact_pipeline_expectations(chain2)
    values, loads = exact_expectations_by_full_enumeration(chain2)
    assert tuple(exp.per_edge_value) == values
    assert exp.cut_load == loads


# Ids end in "-True": every case prices the join.
@pytest.mark.parametrize("spec", COLLAPSE_SPECS, ids=lambda spec: f"{spec}-True")
def test_state_collapse_matches_tree_by_tree_reference(spec):
    prepared = prepare_instance(corpus_instance(spec))
    assert exact_pipeline_expectations(prepared) == reference_pipeline_expectations(prepared)


def test_state_collapse_rejects_an_edge_in_two_factors(chain2, monkeypatch):
    import hitsp.oracle

    levels = level_outcome_table(chain2.plan.connector)
    monkeypatch.setattr(
        hitsp.oracle, "level_outcome_table", lambda law: levels + levels[:1]
    )
    with pytest.raises(ValueError, match="two sampling factors"):
        exact_pipeline_expectations(chain2)


def test_triangle_ring_loads_are_eleven_twelfths(triangle):
    exp = exact_pipeline_expectations(triangle)
    assert set(exp.cut_load.values()) == {Fraction(11, 12)}
    # every cut is even with certainty on the pure ring
    assert set(exp.cut_even.values()) == {Fraction(1)}


def test_expected_costs_triangle(triangle):
    exp = exact_pipeline_expectations(triangle)
    # two free ring classes of two copies each around the forced copy
    assert exp.tree_outcomes == 4
    assert exp.expected_tree_cost is not None
    assert exp.expected_join_cost is not None


@pytest.mark.parametrize("k", range(1, 11))
def test_envelope_tour_ratio_family_law(k):
    """(E[tree] + E[join]) / LP on envelope:k is exactly 1 + (2k+1)/(6k+6),
    tending to 4/3."""
    prepared = prepare_instance(generate_instance("envelope", k))
    exp = exact_pipeline_expectations(prepared)
    ratio = (exp.expected_tree_cost + exp.expected_join_cost) / prepared.instance.lp_cost()
    assert ratio == 1 + Fraction(2 * k + 1, 6 * k + 6)


def test_battery_passes_on_small_instances(triangle, chain2):
    for prepared in (triangle, chain2):
        checks = run_lemma_battery(prepared, exact_pipeline_expectations(prepared))
        assert checks
        failed = [c for c in checks if not c.passed]
        assert not failed, failed


def test_battery_rows_include_expected_kinds(chain2):
    names = {c.name for c in run_lemma_battery(chain2, exact_pipeline_expectations(chain2))}
    assert {"cut-even-13-27", "bottom-edge-1-4", "ring-edge-even"} <= names


@pytest.mark.parametrize(
    "relation, below, equal, above",
    [("<=", True, True, False), (">=", False, True, True), ("==", False, True, False)],
)
def test_lemma_check_derives_its_verdict(relation, below, equal, above):
    bound = Fraction(13, 27)
    for value, expected in ((bound - Fraction(1, 10**9), below), (bound, equal),
                            (bound + Fraction(1, 10**9), above)):
        assert LemmaCheck("row", "subject", value, bound, relation).passed is expected


def test_lemma_check_refuses_an_unknown_relation():
    with pytest.raises(ValueError, match="unknown relation '<'"):
        LemmaCheck("row", "subject", Fraction(0), Fraction(1), "<")


def test_k4_census():
    census = k5_parity_census()
    assert census == {(0, 0): 2, (0, 1): 4, (1, 0): 4, (1, 1): 6}
    assert sum(census.values()) == 16


def test_bernoulli_count_distribution():
    config = BernoulliConfig((Fraction(1), Fraction(1, 3)))
    law = config.count_distribution()
    assert law == {1: Fraction(2, 3), 2: Fraction(1, 3)}


def test_functionals_at_pinned_extremal_config():
    config = BernoulliConfig(
        (Fraction(1), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    )
    assert evaluate_functional("parity_even", config) == Fraction(13, 27)
    assert evaluate_functional("p_delta_bound", config) == Fraction(4, 27)
    assert evaluate_functional("p_W_bound", config) == Fraction(1, 27)


@pytest.mark.parametrize(
    "functional,minimum",
    [
        ("parity_even", Fraction(13, 27)),
        ("p_delta_bound", Fraction(4, 27)),
        ("p_W_bound", Fraction(1, 27)),
    ],
)
def test_extremal_scan_finds_pinned_minimum(functional, minimum):
    value, config = hoeffding_extremal(4, Fraction(2), functional)
    assert value == minimum
    assert sorted(config.probabilities) == [
        Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(1)
    ]


def test_random_configs_never_beat_the_scan():
    for functional in HOEFFDING_FUNCTIONALS:
        floor, _ = hoeffding_extremal(4, Fraction(2), functional)
        low = hoeffding_random_minimum(4, Fraction(2), functional, count=300, seed=9)
        assert low >= floor


def test_extremal_scan_rejects_bad_mass():
    with pytest.raises(ValueError):
        hoeffding_extremal(4, Fraction(1, 2), "parity_even")
    with pytest.raises(ValueError):
        hoeffding_extremal(7, Fraction(2), "parity_even")


def test_optimal_tour_matches_lp_on_tight_instance():
    inst = generate_instance("cycle_chain", 2)
    assert optimal_tour_cost(inst) == inst.lp_cost() == 4


def test_optimal_tour_cap():
    inst = generate_instance("envelope", 5)
    with pytest.raises(ResourceCapError):
        optimal_tour_cost(inst, cap=10)
