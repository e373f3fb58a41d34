"""Hierarchical sampling, correction vectors, feasibility, joins, and tours."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import hitsp.ojoin
from hitsp.cli import HIERARCHY_CORPUS, corpus_instance
from hitsp.cuts import boundary_edges, build_hierarchy, canonical_side
from hitsp.instance import (
    GADGET_BUILDERS,
    build_support_graph,
    generate_instance,
    metric_closure,
    split_vertex_for_eplus,
)
from hitsp.ojoin import (
    ChargingParams,
    DEFAULT_TOP_TRUNCATION,
    JoinCalculator,
    TreeSample,
    bernoulli_unit_keys,
    build_join_vector,
    build_sampling_plan,
    build_tour,
    check_feasible,
    compute_even_at_last_probs,
    cut_masks,
    odd_vertices,
    prepare_instance,
    resolve_bernoulli_units,
    run_sample,
    sample_hierarchical_tree,
    sample_rng,
    tree_cost,
    unit_key_for_edge,
)
from hitsp.maxent import count_weighted_trees

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def chain2():
    return prepare_instance(generate_instance("cycle_chain", 2))


@pytest.fixture(scope="module")
def envelope2():
    return prepare_instance(generate_instance("envelope", 2))


def test_default_params():
    p = ChargingParams()
    assert p.top_truncation == DEFAULT_TOP_TRUNCATION == Fraction(1129032, 10**7)
    assert p.bottom_truncation == Fraction(1, 4)
    assert p.reduction == Fraction(1, 12)


def test_params_validate_range():
    with pytest.raises(ValueError):
        ChargingParams(alpha=Fraction(3, 2))
    with pytest.raises(ValueError):
        ChargingParams(tau=Fraction(-1, 12))


def test_sampled_connector_shape(chain2):
    rng = sample_rng(0, 0)
    support = chain2.support
    for _ in range(25):
        sample = sample_hierarchical_tree(chain2.plan, rng)
        assert len(sample.edges) == support.n
        assert len(set(sample.edges)) == support.n
        # spans: union-find over the chosen edges connects everything
        parent = list(range(support.n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for e in sample.edges:
            u, v = support.endpoints(e)
            parent[find(u)] = find(v)
        assert len({find(v) for v in range(support.n)}) == 1
        # the distinguished doubled pair contributes exactly one copy, always
        a, b = support.e_plus_pair
        assert (a in sample.edges) != (b in sample.edges)
        assert set(sample.bernoulli_uniforms) == set(bernoulli_unit_keys(chain2.plan))


def test_cycle_levels_pick_one_companion_per_class(envelope2):
    rng = sample_rng(3, 1)
    h = envelope2.hierarchy
    for _ in range(10):
        sample = sample_hierarchical_tree(envelope2.plan, rng)
        chosen = set(sample.edges)
        for node in h.cycle_nodes():
            for cls in node.companion_classes:
                assert len(chosen & set(cls)) == 1


def test_sampling_is_seed_deterministic(chain2):
    a = sample_hierarchical_tree(chain2.plan, sample_rng(9, 4))
    b = sample_hierarchical_tree(chain2.plan, sample_rng(9, 4))
    assert a == b
    c = sample_hierarchical_tree(chain2.plan, sample_rng(9, 5))
    assert a != c or a.bernoulli_uniforms != c.bernoulli_uniforms


def test_final_edges_have_unit_even_probability(chain2):
    for e in chain2.hierarchy.final_edges():
        assert chain2.eal_probability[e] == 1


def test_truncation_caps_the_probability(envelope2):
    params = envelope2.params
    for e in range(len(envelope2.support.edges)):
        kind = envelope2.hierarchy.edge_level[e][0]
        cap = params.top_truncation if kind == "top" else params.bottom_truncation
        assert envelope2.truncated[e] == min(cap, envelope2.eal_probability[e])
        assert envelope2.unit_threshold[envelope2.unit_of[e]] >= 0


def monte_carlo_even_at_last_probs(plan, samples, seed):
    """Estimate each edge's even-at-last probability from sampled trees."""
    crossing, last = cut_masks(plan.hierarchy)
    m = len(plan.support.edges)
    hits = [0] * m
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(samples):
        parity = 0
        for e in sample_hierarchical_tree(plan, rng).edges:
            parity ^= crossing[e]
        for e in range(m):
            if not parity & last[e]:
                hits[e] += 1
    return {e: Fraction(hits[e], samples) for e in range(m)}


def test_exact_even_probabilities_match_monte_carlo(chain2):
    approx = monte_carlo_even_at_last_probs(chain2.plan, samples=4000, seed=2)
    for e, exact in chain2.eal_probability.items():
        assert abs(float(exact) - float(approx[e])) < 0.05


def test_edge_share_sums_to_one_over_charge_groups(envelope2):
    groups = envelope2.hierarchy.charge_groups()
    for side, edges in groups.items():
        total = sum((envelope2.edge_share[side][e] for e in edges), Fraction(0))
        mass = sum((envelope2.truncated[e] for e in edges), Fraction(0))
        if mass:
            assert total == 1
        else:
            assert total == 0


def test_unit_keys_partition_edges(envelope2):
    plan = envelope2.plan
    for e in range(len(envelope2.support.edges)):
        key = unit_key_for_edge(plan, e)
        kind = envelope2.hierarchy.edge_level[e][0]
        assert key[0] == {"top": "top", "bottom": "cycle", "final": "final"}[kind]


def test_vector_values_never_drop_below_reduced_base(chain2):
    floor = chain2.base_value - chain2.params.reduction
    rng = sample_rng(1, 0)
    for _ in range(40):
        sample = sample_hierarchical_tree(chain2.plan, rng)
        vector = build_join_vector(chain2, sample)
        assert all(v >= floor for v in vector.values)
        assert vector.total() == (
            chain2.base_value * len(vector.values)
            - chain2.params.reduction * len(vector.reduced)
            + sum(vector.increases, Fraction(0))
        )


def test_vector_reductions_require_even_last_cuts(chain2):
    support = chain2.support
    h = chain2.hierarchy
    rng = sample_rng(4, 7)
    for _ in range(40):
        sample = sample_hierarchical_tree(chain2.plan, rng)
        vector = build_join_vector(chain2, sample)
        in_tree = set(sample.edges)
        for e in vector.reduced:
            for side in h.edge_last_cuts[e]:
                crossing = len(set(boundary_edges(support, side)) & in_tree)
                assert crossing % 2 == 0


def test_vectors_cover_all_odd_cuts(chain2):
    rng = sample_rng(5, 0)
    for _ in range(60):
        sample = sample_hierarchical_tree(chain2.plan, rng)
        vector = build_join_vector(chain2, sample)
        result = check_feasible(chain2.support, sample.edges, vector.values)
        assert result.feasible, result.witness


def test_check_feasible_finds_a_violation():
    support = build_support_graph(
        split_vertex_for_eplus(GADGET_BUILDERS["doubled_triangle"]())
    )
    # a single edge gives both its endpoints odd degree; zeros cover nothing
    tree = (0,)
    zeros = [Fraction(0)] * len(support.edges)
    result = check_feasible(support, tree, zeros)
    assert not result.feasible
    assert result.witness is not None
    side = result.witness
    crossing = len(set(boundary_edges(support, side)) & set(tree))
    assert crossing % 2 == 1


def test_check_feasible_floor_flag(chain2):
    rng = sample_rng(2, 2)
    sample = sample_hierarchical_tree(chain2.plan, rng)
    vector = build_join_vector(chain2, sample)
    strict = check_feasible(
        chain2.support, sample.edges, vector.values, floor=Fraction(1, 2)
    )
    assert not strict.floor_ok
    loose = check_feasible(
        chain2.support, sample.edges, vector.values, floor=Fraction(1, 6)
    )
    assert loose.floor_ok


def test_odd_vertices_parity(chain2):
    rng = sample_rng(8, 0)
    sample = sample_hierarchical_tree(chain2.plan, rng)
    odd = odd_vertices(chain2.support, sample.edges)
    assert len(odd) % 2 == 0
    degree = [0] * chain2.support.n
    for e in sample.edges:
        u, v = chain2.support.endpoints(e)
        degree[u] += 1
        degree[v] += 1
    assert tuple(v for v in range(chain2.support.n) if degree[v] % 2) == odd


def brute_force_matching_cost(metric, odd):
    best = None

    def rec(rest, acc):
        nonlocal best
        if not rest:
            if best is None or acc < best:
                best = acc
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            rec(rest[1:i] + rest[i + 1:], acc + metric.dist[a][b])

    rec(list(odd), Fraction(0))
    return best


def test_join_matching_is_minimum(envelope2):
    metric = envelope2.metric
    joins = JoinCalculator(metric)
    rng = sample_rng(11, 0)
    for _ in range(10):
        sample = sample_hierarchical_tree(envelope2.plan, rng)
        odd = odd_vertices(envelope2.support, sample.edges)
        if len(odd) > 8:
            continue
        pairs, exact = joins.matching(odd)
        assert exact
        cost = sum((metric.dist[u][v] for u, v in pairs), Fraction(0))
        assert cost == brute_force_matching_cost(metric, odd)
        assert sorted(v for pair in pairs for v in pair) == sorted(odd)


def test_join_calculator_handles_empty_and_pairs():
    inst = generate_instance("cycle_chain", 2)
    joins = JoinCalculator(metric_closure(inst))
    pairs, exact = joins.matching(())
    assert pairs == () and exact
    pairs, exact = joins.matching((0, 2))
    assert exact and len(pairs) == 1


def test_tour_is_a_cheap_hamiltonian_cycle(chain2):
    joins = JoinCalculator(chain2.metric)
    rng = sample_rng(6, 0)
    for _ in range(20):
        out = run_sample(chain2, rng, joins, build_vector=False)
        assert out.tour_cost <= out.tree_cost + out.join_cost


def test_build_tour_visits_every_vertex_once(chain2):
    rng = sample_rng(6, 1)
    joins = JoinCalculator(chain2.metric)
    sample = sample_hierarchical_tree(chain2.plan, rng)
    odd = odd_vertices(chain2.support, sample.edges)
    pairs, _ = joins.matching(odd)
    order, cost = build_tour(chain2.support, sample.edges, pairs, chain2.metric)
    assert sorted(order) == list(range(chain2.support.n))
    direct = sum(
        (chain2.metric.dist[order[i]][order[(i + 1) % len(order)]]
         for i in range(len(order))),
        Fraction(0),
    )
    assert cost == direct


def test_tree_cost_charges_instance_edges_once(chain2):
    rng = sample_rng(7, 0)
    sample = sample_hierarchical_tree(chain2.plan, rng)
    cost = tree_cost(chain2.instance, chain2.support, sample.edges)
    by_hand = Fraction(0)
    for e in sample.edges:
        idx = chain2.support.edges[e].instance_edge
        by_hand += chain2.instance.edges[idx].cost
    assert cost == by_hand


def test_sample_rng_is_index_keyed():
    a = sample_rng(13, 2).random(4)
    b = sample_rng(13, 2).random(4)
    c = sample_rng(13, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_sample_populates_cut_loads(chain2):
    joins = JoinCalculator(chain2.metric)
    out = run_sample(chain2, sample_rng(0, 0), joins, build_vector=True)
    assert set(out.cut_loads) == set(chain2.cut_sides)
    # same seed, same draw order: rebuilding the vector reproduces every load
    vector = build_join_vector(
        chain2, sample_hierarchical_tree(chain2.plan, sample_rng(0, 0))
    )
    for side in chain2.cut_sides:
        assert out.cut_loads[side] == sum(
            (vector.values[e] for e in chain2.cut_boundary[side]), Fraction(0)
        )


def reference_join_vector(prepared, sample):
    """The all-``Fraction`` construction, kept as the reference for the
    integer kernel: per-cut parities from boundary counts, per-cut sums."""
    support = prepared.support
    hierarchy = prepared.hierarchy
    n = support.n
    m = len(support.edges)
    tree = set(sample.edges)
    units = {
        key: Fraction(u) < prepared.unit_threshold[key]
        for key, u in sample.bernoulli_uniforms.items()
    }
    parity = {
        side: sum(1 for e in prepared.cut_boundary[side] if e in tree) & 1
        for side in prepared.cut_sides
    }
    values = [prepared.base_value] * m
    reduced = set()
    for e in range(m):
        if prepared.eal_probability[e] == 0:
            continue
        left, right = hierarchy.last_cuts(e)
        if (
            parity[canonical_side(left, n)] == 0
            and parity[canonical_side(right, n)] == 0
            and units[prepared.unit_of[e]]
        ):
            values[e] -= prepared.params.reduction
            reduced.add(e)
    deficits = {}
    for side in prepared.cut_sides:
        if parity[side] == 0:
            deficits[side] = Fraction(0)
            continue
        total = sum((values[e] for e in prepared.cut_boundary[side]), Fraction(0))
        deficits[side] = max(Fraction(0), 1 - total)
    increases = [Fraction(0)] * m
    final_edges = set(hierarchy.final_edges())
    for e in range(m):
        if e in final_edges:
            continue
        best = Fraction(0)
        for side in hierarchy.last_cuts(e):
            deficit = deficits[canonical_side(side, n)]
            share = prepared.edge_share.get(side, {}).get(e, Fraction(0))
            best = max(best, share * deficit)
        values[e] += best
        increases[e] = best
    return values, frozenset(reduced), deficits, increases


# random_half_integral:10 has top edges and non-dyadic unit thresholds;
# four_blob is where an edge's two last cuts offer different positive repairs.
@pytest.mark.parametrize(
    "spec", ["envelope:3", "cycle_chain:10", "random_half_integral:10", "four_blob"]
)
def test_integer_kernel_matches_fraction_reference(spec):
    family, _, size = spec.partition(":")
    inst = generate_instance(family, int(size)) if size else GADGET_BUILDERS[spec]()
    prepared = prepare_instance(inst)
    joins = JoinCalculator(prepared.metric)
    for seed in range(200):
        sample = sample_hierarchical_tree(prepared.plan, sample_rng(seed, 0))
        values, reduced, deficits, increases = reference_join_vector(prepared, sample)
        vector = build_join_vector(prepared, sample)
        assert vector.values == tuple(values)
        assert vector.reduced == reduced
        assert vector.deficits == deficits
        assert vector.increases == tuple(increases)
        out = run_sample(prepared, sample_rng(seed, 0), joins)
        assert out.tree_edges == sample.edges
        assert out.vector_total == sum(values, Fraction(0))
        assert out.min_edge_value == min(values)
        assert out.cut_loads == {
            side: sum((values[e] for e in prepared.cut_boundary[side]), Fraction(0))
            for side in prepared.cut_sides
        }


def test_unit_fires_exactly_below_its_threshold(chain2):
    key = bernoulli_unit_keys(chain2.plan)[0]
    for threshold in (Fraction(1, 2), Fraction(3, 8), Fraction(1, 3), DEFAULT_TOP_TRUNCATION):
        prepared = replace(chain2, unit_threshold={**chain2.unit_threshold, key: threshold})
        at = float(threshold)
        for u in (at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)):
            sample = TreeSample(edges=(), bernoulli_uniforms={key: float(u)})
            fired = resolve_bernoulli_units(prepared, sample)[key]
            assert fired == (Fraction(float(u)) < threshold)
        if threshold.denominator & (threshold.denominator - 1) == 0:
            # a dyadic threshold is a float: equality must not fire
            sample = TreeSample(edges=(), bernoulli_uniforms={key: at})
            assert resolve_bernoulli_units(prepared, sample)[key] == 0


def reference_parity_pair(n, edges, lam, focus_a, focus_b):
    """The law of (|T∩A| mod 2, |T∩B| mod 2) from four full signed tree
    counts, one Laplacian determinant each (the pre-kernel routine)."""
    total = count_weighted_trees(n, edges, lam)
    set_a, set_b = set(focus_a), set(focus_b)
    char = {}
    for a_bit in (0, 1):
        for b_bit in (0, 1):
            signed = []
            for i, v in enumerate(lam):
                sign = 1
                if a_bit and i in set_a:
                    sign = -sign
                if b_bit and i in set_b:
                    sign = -sign
                signed.append(sign * Fraction(v))
            char[(a_bit, b_bit)] = count_weighted_trees(n, edges, signed) / total
    law = {}
    for p in (0, 1):
        for q in (0, 1):
            acc = Fraction(0)
            for a_bit in (0, 1):
                for b_bit in (0, 1):
                    sign = -1 if (a_bit * p + b_bit * q) % 2 else 1
                    acc += sign * char[(a_bit, b_bit)]
            law[(p, q)] = acc / 4
    return law


class DeterminantLevel:
    """Stands in for a level's kernel, answering through the reference."""

    def __init__(self, level):
        self.level = level

    def parity_pair(self, focus_a, focus_b):
        lv = self.level
        return reference_parity_pair(
            lv.vertex_count, list(lv.level_edges), list(lv.lam_exact), focus_a, focus_b
        )


@pytest.mark.parametrize(
    "spec",
    [label for label, _ in HIERARCHY_CORPUS]
    + ["random_half_integral:10", "random_half_integral:14"],
)
def test_even_at_last_table_matches_determinant_reference(spec, monkeypatch):
    if spec.startswith("random_half_integral"):
        inst = generate_instance("random_half_integral", int(spec.partition(":")[2]))
    else:
        inst = corpus_instance(dict(HIERARCHY_CORPUS)[spec])
    prepared = prepare_instance(inst)
    monkeypatch.setattr(
        hitsp.ojoin,
        "level_kernels",
        lambda plan: {lv.node_id: DeterminantLevel(lv) for lv in plan.degree_levels},
    )
    reference = compute_even_at_last_probs(prepared.plan)
    assert prepared.eal_probability == reference
    assert all(type(p) is Fraction for p in prepared.eal_probability.values())
