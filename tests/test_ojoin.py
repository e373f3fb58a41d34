"""Hierarchical sampling, correction vectors, feasibility, joins, and tours."""

import hashlib
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import sqrt
from types import SimpleNamespace

import numpy as np
import pytest
from test_cuts import boundary_edges
from test_maxent import count_weighted_trees

import hitsp.maxent
from hitsp.cli import HIERARCHY_CORPUS, corpus_instance
from hitsp.cuts import InternalHierarchyError, build_hierarchy
from hitsp.degreecut import build_matching_contexts, decompose_matching, sample_degree_cut
from hitsp.instance import (
    GADGET_BUILDERS,
    Metric,
    SupportEdge,
    SupportGraph,
    build_support_graph,
    generate_instance,
    metric_closure,
    split_vertex_for_eplus,
)
from hitsp.maxent import TreeLevel
from hitsp.ojoin import (
    BASE_VALUE,
    ChargingParams,
    ConnectorLaw,
    DEFAULT_TOP_TRUNCATION,
    JoinCalculator,
    TreeSample,
    _check_memo,
    _check_numerators,
    _double_floor,
    _join_layers,
    _vector_numerators,
    build_join_vector,
    build_sampling_plan,
    build_tour,
    check_feasible,
    compute_even_at_last_probs,
    cut_masks,
    odd_mask,
    odd_vertices,
    parity_laws,
    prepare_instance,
    resolve_bernoulli_units,
    run_sample,
    sample_hierarchical_tree,
    sample_records,
    sample_rng,
    sample_statistics,
    seed_words,
    tour_order,
    tree_cost,
)
from hitsp.oracle import exact_pipeline_expectations, level_outcome_table, subset_joint_distribution

HALF = Fraction(1, 2)
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
    with pytest.raises(ValueError, match="top_truncation"):
        ChargingParams(alpha=Fraction(3, 2))
    with pytest.raises(ValueError, match="bottom_truncation"):
        ChargingParams(beta=Fraction(5, 4))
    with pytest.raises(ValueError, match="reduction"):
        ChargingParams(tau=Fraction(-1, 12))
    # Each parameter is checked in turn: alpha's message comes first.
    with pytest.raises(ValueError, match="top_truncation"):
        ChargingParams(alpha=2, beta=2, tau=2)


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
        assert len(sample.uniforms) == len(chain2.plan.unit_keys)


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
    assert a != c or a.uniforms != c.uniforms


def test_final_edges_have_unit_even_probability(chain2):
    for e in chain2.hierarchy.final_edges():
        assert chain2.eal_probability[e] == 1


def test_truncation_caps_the_probability(envelope2):
    params = envelope2.params
    truncation = exact_pipeline_expectations(envelope2).truncation
    for e in range(len(envelope2.support.edges)):
        kind = envelope2.hierarchy.edge_level[e][0]
        cap = params.top_truncation if kind == "top" else params.bottom_truncation
        probability = envelope2.eal_probability[e]
        assert truncation[e] == min(cap, probability)
        # The unit's exact threshold is the truncation over the probability.
        assert envelope2.unit_threshold[envelope2.unit_of[e]] * probability == truncation[e]
        assert envelope2.unit_threshold[envelope2.unit_of[e]] >= 0


def monte_carlo_even_at_last_probs(plan, samples, seed):
    """Estimate each edge's even-at-last probability from sampled trees."""
    crossing, last = cut_masks(plan.hierarchy)
    m = len(plan.hierarchy.support.edges)
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
    """Each charged cut's shares, ``cut_charges`` over ``scale``, are the
    group's truncations over their sum; they sum to ``scale``."""
    groups = envelope2.hierarchy.charge_groups()
    truncation = exact_pipeline_expectations(envelope2).truncation
    scale = envelope2.scale
    for i, charges in enumerate(envelope2.cut_charges):
        assert {f for f, _ in charges} <= set(groups.get(i, ()))
    for i, edges in groups.items():
        charges = dict(envelope2.cut_charges[i])
        total = sum(charges.get(e, 0) for e in edges)
        mass = sum((truncation[e] for e in edges), Fraction(0))
        if mass:
            assert total == scale
            for e in edges:
                assert Fraction(charges.get(e, 0), scale) == truncation[e] / mass
        else:
            assert total == 0


def test_unit_keys_partition_edges(envelope2):
    plan = envelope2.plan
    for e in range(len(envelope2.support.edges)):
        key = plan.unit_keys[envelope2.unit_of[e]]
        kind, detail = envelope2.hierarchy.edge_level[e]
        assert key == {"top": ("top", e), "bottom": ("cycle", detail), "final": ("final",)}[kind]


def test_vector_values_never_drop_below_reduced_base(chain2):
    floor = BASE_VALUE - chain2.params.reduction
    rng = sample_rng(1, 0)
    for _ in range(40):
        sample = sample_hierarchical_tree(chain2.plan, rng)
        vector = build_join_vector(chain2, sample)
        assert all(v >= floor for v in vector.values)
        assert vector.total() == (
            BASE_VALUE * len(vector.values)
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
            for i in h.edge_last_cuts[e]:
                side = h.min_cuts[i].vertices
                crossing = len(set(boundary_edges(support, side)) & in_tree)
                assert crossing % 2 == 0


def test_vectors_cover_all_odd_cuts(chain2):
    rng = sample_rng(5, 0)
    for _ in range(60):
        sample = sample_hierarchical_tree(chain2.plan, rng)
        vector = build_join_vector(chain2, sample)
        result = check_feasible(chain2.support, sample.edges, vector.values)
        assert result.feasible, result.witness


def _popcount_parity(values):
    out = values.copy()
    shift = 1
    while shift < 32:
        out ^= out >> shift
        shift <<= 1
    return out & 1


def scan_min_odd_cut(support, tree_edges, values):
    """Reference: the minimum odd cut by a float scan of all 2^(n-1) sides.

    Sides within 1e-6 of the float minimum are re-checked exactly.  Returns
    10^9 when no vertex is odd, as check_feasible does.
    """
    n = support.n
    odd_mask = 0
    for v in odd_vertices(support, tree_edges):
        if v > 0:
            odd_mask |= 1 << (v - 1)
    masks = np.arange(1 << (n - 1), dtype=np.uint64)
    cross_total = np.zeros(masks.shape, dtype=np.float64)
    for e, edge in enumerate(support.edges):
        u, v = edge.u, edge.v
        bu = (masks >> np.uint64(u - 1)) & np.uint64(1) if u > 0 else np.zeros_like(masks)
        bv = (masks >> np.uint64(v - 1)) & np.uint64(1) if v > 0 else np.zeros_like(masks)
        cross_total += (bu ^ bv).astype(np.float64) * float(values[e])
    relevant = _popcount_parity(masks & np.uint64(odd_mask)) == 1
    minimum = Fraction(10**9)
    if relevant.any():
        vals = np.where(relevant, cross_total, np.inf)
        order = np.argsort(vals)
        threshold = float(vals[order[0]]) + 1e-6
        for idx in order:
            if vals[idx] > threshold:
                break
            mask = int(masks[idx])
            side = frozenset(v for v in range(1, n) if mask & (1 << (v - 1)))
            exact = sum(
                (
                    values[e]
                    for e, edge in enumerate(support.edges)
                    if (edge.u in side) != (edge.v in side)
                ),
                Fraction(0),
            )
            minimum = min(minimum, exact)
    return minimum


def assert_matches_scan(support, tree, values):
    result = check_feasible(support, tree, values)
    minimum = scan_min_odd_cut(support, tree, values)
    assert result.minimum == minimum
    assert result.feasible == (minimum >= 1)
    if result.witness is not None:
        side = result.witness
        assert 0 not in side
        assert len(set(odd_vertices(support, tree)) & side) % 2 == 1
        crossing = [e for e, x in enumerate(support.edges) if (x.u in side) != (x.v in side)]
        assert sum((values[e] for e in crossing), Fraction(0)) == minimum
    return result.witness is not None


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_check_feasible_matches_scan_on_sampled_vectors(spec):
    prepared = prepare_instance(reference_instance(spec))
    rng = sample_rng(31, 0)
    for _ in range(4):
        sample = sample_hierarchical_tree(prepared.plan, rng)
        vector = build_join_vector(prepared, sample)
        assert_matches_scan(prepared.support, sample.edges, vector.values)


def test_check_feasible_matches_scan_on_random_multigraphs():
    rng = np.random.default_rng(2024)
    empty_odd_sets = witnesses = 0
    for _ in range(300):
        n = int(rng.integers(2, 10))
        pairs = [
            (int(u), int(v))
            for u, v in rng.integers(0, n, size=(int(rng.integers(1, 3 * n)), 2))
            if u != v
        ]
        if not pairs:
            continue
        support = SupportGraph(
            n=n,
            edges=tuple(SupportEdge(i, u, v, i) for i, (u, v) in enumerate(pairs)),
            e_plus_pair=None,
            costs=(1,) * len(pairs),
        )
        # Quarters put many minima below 1, where the witness is returned and checked.
        values = [Fraction(int(c), 4) for c in rng.choice([0, 0, 1, 2, 3, 7], size=len(pairs))]
        tree = tuple(i for i in range(len(pairs)) if rng.random() < 0.5)
        empty_odd_sets += not odd_vertices(support, tree)
        witnesses += assert_matches_scan(support, tree, values)
    assert empty_odd_sets > 0 and witnesses > 0


@pytest.mark.parametrize("spec", REFERENCE_SPECS + ["random_half_integral:26"])
def test_run_sample_check_matches_check_feasible(spec):
    """The integer check ``run_sample`` makes gives the verdict and minimum of
    ``check_feasible`` on the ``Fraction`` vector."""
    prepared = prepare_instance(reference_instance(spec))
    joins = JoinCalculator(prepared.metric)
    floor = BASE_VALUE - prepared.params.reduction
    for idx in range(12):
        out = run_sample(prepared, sample_rng(17, idx), joins, check_vector=True)
        sample = sample_hierarchical_tree(prepared.plan, sample_rng(17, idx))
        assert sample.edges == out.tree_edges
        vector = build_join_vector(prepared, sample)
        result = check_feasible(prepared.support, sample.edges, vector.values, floor=floor)
        assert out.feasible == (result.feasible and result.floor_ok)
        assert out.min_cut_value == result.minimum


def test_verdict_memo_keeps_every_sample():
    """A run's verdict memo (on its ``JoinCalculator``) changes no outcome
    (verdict and minimum cut included) on the hierarchy corpus against a
    fresh calculator per sample, holds at most one entry per sample, and is
    hit: distinct vectors repeat."""
    entries = 0
    for label, _ in HIERARCHY_CORPUS:
        prepared = prepare_instance(reference_instance(label))
        joins = JoinCalculator(prepared.metric)
        for seed in range(200):
            fresh = JoinCalculator(prepared.metric)
            plain = run_sample(prepared, sample_rng(seed, 0), fresh, check_vector=True)
            kept = run_sample(prepared, sample_rng(seed, 0), joins, check_vector=True)
            assert kept == plain, (label, seed)
        assert 0 < len(joins.verdicts) <= 200
        entries += len(joins.verdicts)
    assert entries < 200 * len(HIERARCHY_CORPUS)


def test_verdict_memo_tells_vectors_of_one_odd_set_apart(chain2):
    """Two vectors with one odd set, one covering every odd cut and one
    covering none, each get their own verdict from one memo."""
    support, scale = chain2.support, chain2.scale
    odd = odd_mask(support, [0])
    joins = JoinCalculator(chain2.metric)
    for values in ([scale] * len(support.edges), [0] * len(support.edges), [scale] * len(support.edges)):
        expected = _check_numerators(support, odd, values, scale, 1)
        assert _check_memo(joins, support, odd, values, scale, 1) == expected
    assert [result.feasible for result in joins.verdicts.values()] == [True, False]


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


def float_dp_matching(metric, odd):
    """The former float bitmask DP: numpy distances, lowest free vertex
    first, strict ``<``, back-pointers packed as ``first * 64 + j``."""
    dist = np.array([[float(d) for d in row] for row in metric.dist])
    k = len(odd)
    dp = np.full(1 << k, np.inf)
    dp[0] = 0.0
    choice = np.full(1 << k, -1, dtype=np.int64)
    for mask in range(1 << k):
        if dp[mask] == np.inf:
            continue
        first = next((i for i in range(k) if not mask & (1 << i)), None)
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
        i, j = divmod(int(choice[mask]), 64)
        pairs.append((odd[i], odd[j]))
        mask &= ~(1 << i) & ~(1 << j)
    return tuple(pairs)


def fraction_dp_cost(metric, odd):
    """The former exact DP: the same recursion on ``Fraction`` costs."""
    k = len(odd)
    dp = [None] * (1 << k)
    dp[0] = Fraction(0)
    for mask in range(1 << k):
        if dp[mask] is None:
            continue
        first = next((i for i in range(k) if not mask & (1 << i)), None)
        if first is None:
            continue
        for j in range(first + 1, k):
            if mask & (1 << j):
                continue
            nxt = mask | (1 << first) | (1 << j)
            cand = dp[mask] + metric.dist[odd[first]][odd[j]]
            if dp[nxt] is None or cand < dp[nxt]:
                dp[nxt] = cand
    return dp[(1 << k) - 1]


def pairs_cost(metric, pairs):
    return sum((metric.dist[u][v] for u, v in pairs), Fraction(0))


@pytest.mark.parametrize(
    "spec", [label for label, _ in HIERARCHY_CORPUS] + ["random_half_integral:26"]
)
def test_integer_dp_matches_float_reference_on_sampled_odd_sets(spec):
    prepared = prepare_instance(reference_instance(spec))
    metric = prepared.metric
    joins = JoinCalculator(metric)
    odd_sets = {
        odd_vertices(prepared.support, sample_hierarchical_tree(prepared.plan, sample_rng(seed, 0)).edges)
        for seed in range(200)
    }
    checked = 0
    for odd in sorted(odd_sets):
        if len(odd) > 14:
            continue
        pairs, exact, numerator = joins.join(sum(1 << v for v in odd))
        assert exact
        assert pairs == float_dp_matching(metric, odd)
        assert Fraction(numerator, joins.scale) == pairs_cost(metric, pairs)
        assert joins.exact_cost(sum(1 << v for v in odd)) == pairs_cost(metric, pairs)
        checked += 1
    assert checked


def random_rational_metric(n, seed):
    """Shortest-path closure of a random complete graph with costs in
    thirds and fifths."""
    rng = np.random.default_rng(seed)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for u, v in combinations(range(n), 2):
        dist[u][v] = dist[v][u] = Fraction(int(rng.integers(1, 30)), int(rng.choice([3, 5])))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return Metric(n=n, scale=15, numerators=tuple(tuple(int(d * 15) for d in row) for row in dist))


@pytest.mark.parametrize("seed", range(6))
def test_exact_cost_matches_brute_force_and_fraction_dp_on_rational_metrics(seed):
    metric = random_rational_metric(18, seed)
    joins = JoinCalculator(metric)
    assert joins.scale == 15
    rng = np.random.default_rng(100 + seed)
    for size in (0, 2, 4, 6, 8, 10, 12, 14, 16):
        odd = tuple(sorted(int(v) for v in rng.choice(18, size=size, replace=False)))
        want = fraction_dp_cost(metric, odd)
        assert joins.exact_cost(sum(1 << v for v in odd)) == want
        if size <= 10:
            assert want == brute_force_matching_cost(metric, odd)
        if size <= 14:
            pairs, exact, numerator = joins.join(sum(1 << v for v in odd))
            assert exact and pairs_cost(metric, pairs) == want == Fraction(numerator, 15)
            assert sorted(v for pair in pairs for v in pair) == list(odd)
    with pytest.raises(ValueError):
        joins.exact_cost((1 << 18) - 1)
    with pytest.raises(ValueError):
        joins.exact_cost(0b111)


def push_dp_reference(dist, odd):
    """The former push DP, kept as the reference for the layered one: each
    reached mask pairs its lowest free vertex with every later free one,
    masks are expanded in increasing order one pair count at a time, and
    only a strictly cheaper candidate replaces a stored one."""
    rows = [[dist[u][v] for v in odd] for u in odd]
    full = (1 << len(odd)) - 1
    best = [None] * (full + 1)
    best[0] = 0
    choice = [0] * (full + 1)
    layer = [0]
    for _ in range(len(odd) // 2):
        reached = []
        for mask in layer:
            low = mask | (mask + 1)
            base, row = best[mask], rows[(low ^ mask).bit_length() - 1]
            rest = full & ~low
            while rest:
                bit = rest & -rest
                rest ^= bit
                nxt = low | bit
                cand = base + row[bit.bit_length() - 1]
                old = best[nxt]
                if old is None:
                    reached.append(nxt)
                elif cand >= old:
                    continue
                best[nxt] = cand
                choice[nxt] = low ^ mask | bit
        layer = sorted(reached)
    pairs = []
    mask = full
    while mask:
        pair = choice[mask]
        first = pair & -pair
        pairs.append((odd[first.bit_length() - 1], odd[(pair ^ first).bit_length() - 1]))
        mask ^= pair
    return (tuple(pairs), best[full])


def test_layered_dp_matches_push_dp_at_every_size():
    """Unit costs with ties everywhere and a zero-distance split pair, three
    rational metrics, and one metric whose keys outgrow int64."""
    unit = prepare_instance(reference_instance("random_half_integral:26")).metric
    zero = next(
        (u, v) for u in range(unit.n) for v in range(u + 1, unit.n) if unit.dist[u][v] == 0
    )
    base = random_rational_metric(18, 7)
    huge = Metric(n=18, scale=15, numerators=tuple(tuple(d * 2**54 for d in row) for row in base.numerators))
    overflows = 0
    for metric in [unit, *(random_rational_metric(18, seed) for seed in (21, 22, 23)), huge]:
        joins = JoinCalculator(metric)
        rng = np.random.default_rng(metric.n)
        for k in range(0, 17, 2):
            draws = [rng.choice(metric.n, size=k, replace=False).tolist() for _ in range(3)]
            if metric is unit and k:
                rest = [v for v in range(unit.n) if v not in zero]
                draws.append([*zero, *rng.choice(rest, size=k - 2, replace=False).tolist()])
            for odd in sorted({tuple(sorted(d)) for d in draws}):
                want = push_dp_reference(joins.dist, odd)
                assert joins._optimal(odd) == want
                overflows += want[1] * _join_layers(k)[1] >= 2**63
                if k <= 14:
                    pairs, exact, numerator = joins.join(sum(1 << v for v in odd))
                    assert exact and (pairs, numerator) == want
    # Some optimal keys of ``huge`` reach 2**63: int64 keys would wrap there.
    assert overflows


# sha256 of repr((edges, tuple(zip(unit_keys, uniforms)), next random()))
# for ``sample_rng(seed, 0)``, seeds 0-4, recorded with one scalar draw per
# Bernoulli unit: the batched draw must leave the stream unchanged.
DRAW_DIGESTS = {
    "random_half_integral:26": (
        "514d99b4eefe36189b4d547f9f6274bccf3b534233e616ab5166bee7ced5a4ef",
        "795345849dfc0a49ed9bbfa7545306f6c1c2605dd70cb072b1ce85c855f21dd6",
        "a04f9fff4a06fddb7b1f033b451adda561ce2a96e48d91317c7bef5f42e83fa9",
        "a8a4d6c2057b878d190188836be558b2d8071f4ea74920d787b80d3d0810e31f",
        "56c9f7180ba36bb195ecf4ac4013262d9a362eb9bf7f19f13969a26f5ae973c2",
    ),
    "envelope:5": (
        "883f8ef75f94f7eee720bee2d97b82121e07fb14edbcc36f4e646cd831ff72bb",
        "18c3e0aa8a43ad17d22be87068f7223e18fecf96bf2949f73088929d44efdef8",
        "98daa52932789e0cf6c339c6cfd74dc7d38acd5d7d75e1017db639fe3c8750bd",
        "57930529cb88a4324cc7b3a28813ec08237b6ae7ab7657f64315a79b0c7c89f6",
        "c7ec9dcbd739bc9c8e33a15940ca0a5d011317fdac18590f1f3254bfa2a2d432",
    ),
}


@pytest.mark.parametrize("spec", sorted(DRAW_DIGESTS))
def test_sample_draw_stream_is_pinned(spec):
    prepared = prepare_instance(reference_instance(spec))
    for seed, want in enumerate(DRAW_DIGESTS[spec]):
        rng = sample_rng(seed, 0)
        sample = sample_hierarchical_tree(prepared.plan, rng)
        record = (sample.edges, tuple(zip(prepared.plan.unit_keys, sample.uniforms)), float(rng.random()))
        assert hashlib.sha256(repr(record).encode()).hexdigest() == want


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


def euler_circuit(n, edges):
    """Vertex sequence of an Euler circuit of a connected even-degree
    multigraph: a closed walk (first vertex repeated at the end) using every
    edge once, by Hierholzer's algorithm with a cursor per vertex.  The
    former library routine, kept as the reference for ``tour_order``."""
    if not edges:
        raise ValueError("no edges")
    adjacency = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
    if any(len(inc) % 2 for inc in adjacency):
        raise ValueError("odd-degree vertex: no Euler circuit")
    used = [False] * len(edges)
    cursor = [0] * n
    stack = [edges[0][0]]
    walk = []
    while stack:
        u = stack[-1]
        advanced = False
        while cursor[u] < len(adjacency[u]):
            v, idx = adjacency[u][cursor[u]]
            cursor[u] += 1
            if not used[idx]:
                used[idx] = True
                stack.append(v)
                advanced = True
                break
        if not advanced:
            walk.append(stack.pop())
    if not all(used):
        raise ValueError("graph is not connected on its edge set")
    return walk[::-1]


def shortcut_order(walk):
    """First-visit order of a closed walk (the classic shortcutting step)."""
    seen, order = set(), []
    for v in walk:
        if v not in seen:
            seen.add(v)
            order.append(v)
    return order


def reference_tour_order(support, tree_edges, matching_pairs):
    multi = [support.endpoints(e) for e in tree_edges]
    multi.extend(matching_pairs)
    return shortcut_order(euler_circuit(support.n, multi))


def degree_cut_draw(spec):
    """A degree-cut instance's support and its one-sample draw."""
    from hitsp.degreecut import build_matching_contexts, decompose_matching, sample_degree_cut

    inst = reference_instance(spec)
    dec = decompose_matching(inst)
    contexts = build_matching_contexts(inst, [m for _, m in dec.weights])
    support, metric = build_support_graph(inst), metric_closure(inst)
    joins = JoinCalculator(metric)
    return support, lambda rng: sample_degree_cut(inst, dec, contexts, rng, joins, support, metric)


TOUR_SPECS = [label for label, _ in HIERARCHY_CORPUS] + [
    "random_half_integral:26", *(f"k5_degree:{k}" for k in range(5, 10)), "random_half_integral:18",
]


@pytest.mark.parametrize("spec", TOUR_SPECS)
def test_tour_order_matches_the_euler_circuit_reference(spec):
    """300 seeded samples of each pipeline: the same order as the former
    Euler circuit and shortcut, and the outcome prices that order."""
    if spec.startswith("k5_degree") or spec == "random_half_integral:18":
        support, draw = degree_cut_draw(spec)
    else:
        prepared = prepare_instance(reference_instance(spec))
        joins = JoinCalculator(prepared.metric)
        support = prepared.support
        draw = lambda rng: run_sample(prepared, rng, joins, build_vector=False)  # noqa: E731
    records = sample_records(draw, 41, range(300), ("tree_edges", "join_pairs", "tour_numerator", "joins"))
    for tree, pairs, tour, joins in records:
        order = tour_order(support, tree, pairs)
        assert order == reference_tour_order(support, tree, pairs)
        assert sorted(order) == list(range(support.n)) and tour == joins.cycle_cost(order)


def test_tour_order_raises_as_the_reference():
    """No edges, an odd degree and a disconnected edge set each raise the
    reference's ValueError."""
    support = prepare_instance(generate_instance("cycle_chain", 2)).support
    u, v = support.endpoints(0)
    others = sorted(set(range(support.n)) - {u, v})[:2]
    cases = {
        "no edges": ((), ()),
        "odd-degree vertex": ((0,), ()),
        "not connected": ((), ((u, v), (u, v), tuple(others), tuple(others))),
    }
    for message, (tree, pairs) in cases.items():
        for routine in (tour_order, reference_tour_order):
            with pytest.raises(ValueError, match=message):
                routine(support, tree, pairs)


def test_tree_cost_charges_instance_edges_once(chain2):
    rng = sample_rng(7, 0)
    sample = sample_hierarchical_tree(chain2.plan, rng)
    cost = tree_cost(chain2.instance, chain2.support, sample.edges)
    by_hand = Fraction(0)
    for e in sample.edges:
        idx = chain2.support.edges[e].instance_edge
        by_hand += chain2.instance.edges[idx].cost
    assert cost == by_hand


def with_rational_costs(inst):
    """The instance with costs in thirds and fifths, differing edge to edge."""
    costs = [Fraction(1 + i % 7, 3 + 2 * (i % 2)) for i in range(len(inst.edges))]
    return replace(inst, edges=tuple(replace(e, cost=c) for e, c in zip(inst.edges, costs)))


@pytest.mark.parametrize("spec", ["envelope:2", "k5_degree:6"])
def test_copy_costs_price_both_pipelines_on_non_unit_costs(spec):
    """``SupportGraph.costs`` holds each copy's instance-edge cost numerator,
    and every tree cost either pipeline sums from it equals ``tree_cost``.
    On envelope:2 copy ids and instance-edge ids differ, so a mix-up shows."""
    inst = with_rational_costs(reference_instance(spec))
    if spec.startswith("envelope"):
        prepared = prepare_instance(inst)
        inst, support = prepared.instance, prepared.support
        assert any(e.id != e.instance_edge for e in support.edges)
        joins = JoinCalculator(prepared.metric)

        def draw(rng):
            return run_sample(prepared, rng, joins)
    else:
        decomposition = decompose_matching(inst)
        contexts = build_matching_contexts(inst, [m for _, m in decomposition.weights])
        support, metric = build_support_graph(inst), metric_closure(inst)
        joins = JoinCalculator(metric)

        def draw(rng):
            return sample_degree_cut(inst, decomposition, contexts, rng, joins, support, metric)
    scale, numerators = inst.cost_numerators
    assert joins.scale == scale == 15
    for e in range(len(support.edges)):
        assert support.costs[e] == numerators[support.edges[e].instance_edge]
    for seed in range(200):
        out = draw(sample_rng(seed, 0))
        assert Fraction(out.tree_numerator, joins.scale) == tree_cost(inst, support, out.tree_edges)


def test_sample_rng_is_index_keyed():
    a = sample_rng(13, 2).random(4)
    b = sample_rng(13, 2).random(4)
    c = sample_rng(13, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# Every stream a sample may draw from: seeds of one to five 32-bit words, and
# spawn keys of one and two words, on both sides of 2**32.
SEED_GRID = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 1)
FAR_INDICES = (2**32 - 1, 2**32, 2**40 + 7)
CHOICE_P = [0.2, 0.5, 0.3]


def stream_draws(rng):
    """A generator's PCG64 state, then a draw of each kind the samplers make."""
    return SimpleNamespace(
        state=rng.bit_generator.state,
        draws=(rng.random(), rng.integers(0, 2, size=3).tolist(), int(rng.choice(3, p=CHOICE_P))),
    )


def attrs(outcome, fields):
    return tuple(getattr(outcome, name) for name in fields)


@pytest.mark.parametrize("seed", SEED_GRID)
def test_seed_streams_equal_spawned_seed_sequences(seed):
    """``sample_records`` (blocks of hashed states on one generator),
    ``sample_rng`` (a fresh generator) and ``seed_words`` (the report's
    ``sample_states``) against numpy's own ``SeedSequence`` children."""
    def spawned(i):
        return np.random.SeedSequence(seed, spawn_key=(i,))

    fields = ("state", "draws")
    near = sample_records(stream_draws, seed, range(5000), fields)
    far = [rec for i in FAR_INDICES for rec in sample_records(stream_draws, seed, range(i, i + 1), fields)]
    across = sample_records(stream_draws, seed, range(2**32 - 2, 2**32 + 2), fields)
    cases = [*zip(range(5000), near), *zip(FAR_INDICES, far), *zip(range(2**32 - 2, 2**32 + 2), across)]
    for i, record in cases:
        assert record == attrs(stream_draws(np.random.default_rng(spawned(i))), fields), i
    for i in (0, 1, 4999, *FAR_INDICES):
        assert attrs(stream_draws(sample_rng(seed, i)), fields) == attrs(
            stream_draws(np.random.default_rng(spawned(i))), fields
        ), i
    words = np.concatenate([seed_words(seed, 0, 5000), *(seed_words(seed, i, i + 1) for i in FAR_INDICES)])
    for i, row in zip([*range(5000), *FAR_INDICES], words.tolist()):
        assert row == spawned(i).generate_state(8).tolist(), i
        assert row[:2] == spawned(i).generate_state(2).tolist(), i
    assert seed_words(seed, 2**32 - 2, 2**32 + 2).tolist() == [
        spawned(i).generate_state(8).tolist() for i in range(2**32 - 2, 2**32 + 2)
    ]


def test_seeding_refuses_negative_seeds_and_indices():
    for seed, index in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            np.random.SeedSequence(seed, spawn_key=(index,))
        with pytest.raises(ValueError):
            sample_rng(seed, index)


def reference_statistics(values):
    """The mean, σ (n - 1 degrees of freedom) and mean ± 3σ/√n of exact
    ``Fraction`` values: the mean and the variance are exact, each rounded
    once to a float."""
    n = len(values)
    mean = sum(values, Fraction(0)) / n
    std = sqrt(float(sum(((v - mean) ** 2 for v in values), Fraction(0)) / (n - 1))) if n > 1 else 0.0
    half = 3 * (std / sqrt(n))
    return float(mean), std, [float(mean) - half, float(mean) + half]


def test_sample_statistics_are_rounded_from_exact_values():
    unit = Fraction(2, 7)
    numerators = [(i * 7919) % 103 - 40 for i in range(57)]
    mean, std, ci3 = sample_statistics(numerators, unit)
    assert mean == Fraction(sum(numerators), 57) * unit
    assert (float(mean), std, ci3) == reference_statistics([x * unit for x in numerators])
    # No float depends on the order the samples were summed in.
    shuffled = numerators[::-1][1::2] + numerators[::-1][::2]
    assert sorted(shuffled) == sorted(numerators)
    assert sample_statistics(shuffled, unit) == (mean, std, ci3)
    # One sample: σ is 0 and the interval is the mean.
    assert sample_statistics([5], unit) == (Fraction(10, 7), 0.0, [10 / 7, 10 / 7])


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


def per_sample_load_tuple(prepared, sample):
    """The former per-sample cut loads, kept as the reference for
    ``cut_loads``: one sum of four vector numerators per minimum cut, in
    ``hierarchy.min_cuts`` order, over ``prepared.scale``."""
    values = _vector_numerators(prepared, sample)[0]
    return tuple(sum(values[e] for e in cut.boundary) for cut in prepared.hierarchy.min_cuts)


@pytest.mark.parametrize("spec", ["envelope:10", "random_half_integral:26"])
def test_cut_loads_equal_the_per_sample_load_tuple(spec):
    prepared = prepare_instance(reference_instance(spec))
    joins = JoinCalculator(prepared.metric)
    for seed in range(200):
        out = run_sample(prepared, sample_rng(seed, 0), joins)
        loads = per_sample_load_tuple(prepared, sample_hierarchical_tree(prepared.plan, sample_rng(seed, 0)))
        want = {cut.vertices: Fraction(x, prepared.scale) for cut, x in zip(prepared.hierarchy.min_cuts, loads)}
        assert list(out.cut_loads.items()) == list(want.items()), seed


def reference_join_vector(prepared, sample):
    """The all-``Fraction`` construction, kept as the reference for the
    integer kernel: per-cut parities from boundary counts, per-cut sums."""
    hierarchy = prepared.hierarchy
    sides = prepared.cut_sides
    m = len(prepared.support.edges)
    tree = set(sample.edges)
    units = [Fraction(u) < t for u, t in zip(sample.uniforms, prepared.unit_threshold)]
    parity = {
        side: sum(1 for e in prepared.cut_boundary[side] if e in tree) & 1
        for side in prepared.cut_sides
    }
    values = [BASE_VALUE] * m
    reduced = set()
    for e in range(m):
        if prepared.eal_probability[e] == 0:
            continue
        left, right = hierarchy.last_cuts(e)
        if parity[sides[left]] == 0 and parity[sides[right]] == 0 and units[prepared.unit_of[e]]:
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
    shares = [dict(charges) for charges in prepared.cut_charges]
    final_edges = set(hierarchy.final_edges())
    for e in range(m):
        if e in final_edges:
            continue
        best = Fraction(0)
        for i in hierarchy.last_cuts(e):
            best = max(best, Fraction(shares[i].get(e, 0), prepared.scale) * deficits[sides[i]])
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


def reference_run_sample(prepared, rng, joins, build_vector):
    """The former ``run_sample`` composition: ``Fraction`` tree cost,
    ``build_tour``, and loads summed from ``build_join_vector``."""
    sample = sample_hierarchical_tree(prepared.plan, rng)
    tree = sample.edges
    pairs, join_exact = joins.matching(odd_vertices(prepared.support, tree))
    fields = {
        "tree_edges": tree,
        "tree_cost": tree_cost(prepared.instance, prepared.support, tree),
        "join_cost": pairs_cost(prepared.metric, pairs),
        "join_exact": join_exact,
        "tour_cost": build_tour(prepared.support, tree, pairs, prepared.metric)[1],
        "reduced_count": 0,
        "vector_total": None,
        "feasible": None,
        "min_cut_value": None,
        "min_edge_value": None,
        "cut_loads": None,
    }
    if build_vector:
        vector = build_join_vector(prepared, sample)
        fields.update(
            reduced_count=len(vector.reduced),
            vector_total=vector.total(),
            min_edge_value=min(vector.values),
            cut_loads={
                side: sum((vector.values[e] for e in prepared.cut_boundary[side]), Fraction(0))
                for side in prepared.cut_sides
            },
        )
    return fields


@pytest.mark.parametrize(
    "spec", ["envelope:5", "envelope:10", "cycle_chain:18", "random_half_integral:26"]
)
def test_run_sample_matches_fraction_composition(spec):
    prepared = prepare_instance(reference_instance(spec))
    joins = JoinCalculator(prepared.metric)
    for build_vector in (True, False):
        for seed in range(200):
            out = run_sample(prepared, sample_rng(seed, 3), joins, build_vector=build_vector)
            want = reference_run_sample(prepared, sample_rng(seed, 3), joins, build_vector)
            for name, value in want.items():
                got = getattr(out, name)
                assert got == value, (seed, name)
                assert type(got) is type(value), (seed, name)
            if build_vector:
                assert list(out.cut_loads) == list(prepared.cut_sides)
                assert all(type(x) is Fraction for x in out.cut_loads.values())
    # An outcome rebuilt from its fields, as the benchmark's self-test does,
    # keeps the tour priced above.
    rebuilt = out.__class__(**{**out.__dict__, "join_cost": out.join_cost + 1})
    assert rebuilt.join_cost == out.join_cost + 1 and rebuilt.tour_cost == out.tour_cost


def test_unit_fires_exactly_below_its_threshold(chain2):
    assert [row[:2] for row in chain2.unit_table] == [_double_floor(t) for t in chain2.unit_threshold]
    # A unit may reduce its edges of positive even-at-last probability.
    assert [row[2] for row in chain2.unit_table] == [
        tuple(e for e, unit in enumerate(chain2.unit_of) if unit == k and chain2.eal_probability[e])
        for k in range(len(chain2.plan.unit_keys))
    ]
    k = next(k for k, (_, _, edges) in enumerate(chain2.unit_table) if edges)
    edges = chain2.unit_table[k][2]
    units = len(chain2.plan.unit_keys)
    thresholds = (
        Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(1, 3),
        DEFAULT_TOP_TRUNCATION,
    )
    for threshold in thresholds:
        # Unit k's row as set-up builds it: lo is the largest double <= the
        # new threshold, and ``inclusive`` says the threshold is not one.
        lo, inclusive = _double_floor(threshold)
        assert Fraction(lo) <= threshold < Fraction(float(np.nextafter(lo, 2.0)))
        assert inclusive == (Fraction(lo) != threshold)
        table = list(chain2.unit_table)
        table[k] = (lo, inclusive, edges)
        prepared = replace(chain2, unit_table=tuple(table))
        for u in (lo, np.nextafter(lo, 0.0), np.nextafter(lo, 1.0)):
            fires = Fraction(float(u)) < threshold
            # Every other unit gets 1.0, which never fires.
            uniforms = [1.0] * units
            uniforms[k] = float(u)
            sample = TreeSample(edges=(), uniforms=tuple(uniforms))
            assert resolve_bernoulli_units(prepared, sample) == tuple(
                int(fires and j == k) for j in range(units)
            )
            # With no edges every cut is even, so a fired unit reduces all of
            # its edges.
            assert _vector_numerators(prepared, sample)[1] == (list(edges) if fires else [])


def reference_sign_expectation(n, edges, lam, flips):
    """E[(-1)^|T∩F|] as the signed tree count over the plain one, one full
    Laplacian determinant each (the pre-kernel routine)."""
    flips = set(flips)
    signed = [-Fraction(v) if i in flips else Fraction(v) for i, v in enumerate(lam)]
    return count_weighted_trees(n, edges, signed) / count_weighted_trees(n, edges, lam)


class DeterminantLevel:
    """Stands in for a level's kernel, answering through the reference."""

    def __init__(self, level):
        self.level = level

    def sign_expectations(self, flip_sets):
        lv = self.level
        return [
            reference_sign_expectation(lv.vertex_count, list(lv.level_edges), list(lv.lam_exact), flips)
            for flips in flip_sets
        ]


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
    monkeypatch.setattr(hitsp.maxent.TreeLevel, "kernel", lambda level: DeterminantLevel(level))
    reference = compute_even_at_last_probs(prepared.plan)
    assert prepared.eal_probability == reference
    assert all(type(p) is Fraction for p in prepared.eal_probability.values())


@pytest.mark.parametrize(
    "spec",
    [label for label, _ in HIERARCHY_CORPUS]
    + [f"random_half_integral:{size}" for size in range(8, 12)],
)
def test_even_at_last_table_matches_the_oracle(spec):
    """The characters' table equals the oracle's enumeration of the
    sampler's outcomes, edge for edge."""
    if spec.startswith("random_half_integral"):
        inst = generate_instance("random_half_integral", int(spec.partition(":")[2]))
    else:
        inst = corpus_instance(dict(HIERARCHY_CORPUS)[spec])
    prepared = prepare_instance(inst)
    expected = exact_pipeline_expectations(prepared).per_edge_even
    assert prepared.eal_probability == dict(enumerate(expected))


def test_parity_laws_of_a_mixed_connector_match_the_oracle():
    """Fixed edges, a run of doubled classes and a weighted K4 level, in one
    batch of two groups: the singletons of six edges (a fixed one, a class
    copy, three level edges and one in no factor, so most patterns have
    probability 0) and three sets that mix the factors.  Each law sums to 1
    and equals the oracle's enumeration."""
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    lam = tuple(Fraction(w) for w in (1, 2, 3, 1, 2, 3))
    level = TreeLevel(4, tuple(k4), tuple(range(10, 16)), tuple(map(float, lam)), lam)
    law = ConnectorLaw((30, 31), (((20, 21), (22, 23)), level))
    singles = (30, 20, 10, 13, 14, 99)
    mixed = (frozenset({10, 20, 31}), frozenset({13, 22, 23}), frozenset({11, 12, 15, 21, 30}))
    focus = tuple(sorted(set().union(singles, *mixed)))
    joint = subset_joint_distribution(level_outcome_table(law), focus)
    groups = [[frozenset({e}) for e in singles], mixed]
    laws = parity_laws(law.characters, groups)
    for group, (numerators, den) in zip(groups, laws):
        expected = [Fraction(0)] * (1 << len(group))
        for pattern, p in joint.items():
            tree = {e for e, bit in zip(focus, pattern) if bit}
            expected[sum(len(tree & flips) % 2 << i for i, flips in enumerate(group))] += p
        assert [Fraction(x, den) for x in numerators] == expected
        assert sum(numerators) == den and min(numerators) >= 0
    assert laws[0][0].count(0) > 32


def scalar_draw_sample(plan, rng):
    """The former sampler, kept as the reference for the draw runs: one
    scalar ``rng.integers`` call per class pick, level by level, read off
    the hierarchy itself."""
    hierarchy, final = plan.hierarchy, plan.hierarchy.final
    edges = []
    for node in hierarchy.cycle_nodes():
        for cls in node.companion_classes:
            edges.append(cls[int(rng.integers(len(cls)))])
    for level in plan.degree_levels:
        edges.extend(level.sample(rng))
    for idx, cls in enumerate(final.pair_classes):
        if idx == final.e_plus_class:
            edges.append(min(hierarchy.support.e_plus_pair))
        else:
            edges.append(cls[int(rng.integers(len(cls)))])
    uniforms = tuple(rng.random(len(plan.unit_keys)).tolist())
    return TreeSample(edges=tuple(sorted(edges)), uniforms=uniforms)


def all_cuts_vector_numerators(prepared, sample):
    """The former ``_vector_numerators``, kept as the reference for the
    odd-cut walk: every cut's parity bit is tested, and a unit fires by
    cross-multiplying its uniform's exact ratio with its threshold."""
    scale = prepared.scale
    crossing = prepared.edge_cut_mask
    parity = 0
    for e in sample.edges:
        parity ^= crossing[e]
    values = [(BASE_VALUE * scale).numerator] * len(crossing)
    last = prepared.last_cut_mask
    reduced = []
    for k, u in enumerate(sample.uniforms):
        a, b = u.as_integer_ratio()
        t = prepared.unit_threshold[k]
        if a * t.denominator < t.numerator * b:
            reduced.extend(e for e in prepared.unit_table[k][2] if not parity & last[e])
    for e in reduced:
        values[e] -= (prepared.params.reduction * scale).numerator
    deficits = {}
    for i, side in enumerate(prepared.cut_sides):
        if parity >> i & 1:
            shortfall = scale - sum(values[e] for e in prepared.cut_boundary[side])
            if shortfall > 0:
                deficits[i] = shortfall
    increases = {}
    for i, deficit in deficits.items():
        for f, share in prepared.cut_charges[i]:
            amount = share * deficit // scale
            if amount > increases.get(f, 0):
                increases[f] = amount
    for f, amount in increases.items():
        values[f] += amount
    return values, reduced, deficits, increases


@pytest.mark.parametrize(
    "spec",
    [label for label, _ in HIERARCHY_CORPUS]
    + ["cycle_chain:18", "envelope:10", "random_half_integral:26"],
)
def test_sample_path_matches_scalar_draws_and_all_cuts_scan(spec):
    prepared = prepare_instance(reference_instance(spec))
    for seed in range(200):
        rng, ref_rng = sample_rng(seed, 0), sample_rng(seed, 0)
        sample = sample_hierarchical_tree(prepared.plan, rng)
        want = scalar_draw_sample(prepared.plan, ref_rng)
        assert sample.edges == want.edges, seed
        assert sample.uniforms == want.uniforms, seed
        assert rng.random() == ref_rng.random(), seed
        got = _vector_numerators(prepared, sample)
        expected = all_cuts_vector_numerators(prepared, sample)
        assert got[:2] == expected[:2], seed
        assert [list(d.items()) for d in got[2:]] == [list(d.items()) for d in expected[2:]]


def test_draw_runs_merge_uniform_picks_between_walks():
    chains = prepare_instance(reference_instance("envelope:10")).plan
    (classes,) = chains.connector.runs
    assert not chains.degree_levels
    hierarchy = chains.hierarchy
    assert len(classes) == sum(
        len(node.companion_classes) for node in hierarchy.cycle_nodes()
    ) + len(hierarchy.final.pair_classes) - 1
    assert {len(cls) for cls in classes} == {2}
    with pytest.raises(InternalHierarchyError, match="not all doubled"):
        ConnectorLaw(chains.connector.fixed, (((0, 1, 2), *classes[1:]),))
    random = prepare_instance(reference_instance("random_half_integral:26")).plan
    level, classes = random.connector.runs
    assert isinstance(level, TreeLevel) and level is random.degree_levels[0]
    assert len(classes) == len(random.hierarchy.final.pair_classes) - 1


def test_uniform_run_draws_as_one_scalar_call_per_class():
    """One ``rng.integers(0, 2, size=k)`` call draws the picks of k scalar
    calls and leaves the same generator state, also with PCG64's 32-bit half
    buffered."""
    for case in range(200):
        length = 1 + case % 40
        rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
        if case % 2:
            rng.integers(0, 2, size=3)
            ref_rng.integers(0, 2, size=3)
        picks = rng.integers(0, 2, size=length).tolist()
        assert picks == [int(ref_rng.integers(2)) for _ in range(length)], case
        assert rng.bit_generator.state == ref_rng.bit_generator.state, case
