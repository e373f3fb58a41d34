"""The vertex-cut-only variant: matching decomposition and its pipeline."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from test_maxent import counted_kernels
from test_ojoin import reference_statistics, with_rational_costs
from test_simplex import reference_solve_equalities_nonneg

import hitsp.degreecut
import hitsp.ojoin
from hitsp.degreecut import (
    DegreeCutError,
    _first_tight_set,
    _incidence,
    _matching_marginals,
    build_matching_context,
    build_matching_contexts,
    build_tree_levels,
    decompose_matching,
    degree_cut_witness,
    enumerate_maximum_matchings,
    exactly_one_each_probabilities,
    exactly_one_each_probability,
    expected_edge_values,
    expected_vertex_values,
    fractional_matching_target,
    matching_size,
    normal_even_probabilities,
    require_degree_cut,
    run_degree_cut,
    sample_degree_cut,
    tree_target_vector,
)
from hitsp.instance import GADGET_BUILDERS, generate_instance, make_instance
from hitsp.ojoin import odd_mask, sample_rng, seed_words
from hitsp.oracle import level_outcome_table, subset_joint_distribution

HALF = Fraction(1, 2)


def two_k4_blocks():
    """Two K4s joined by a perfect matching: all-half but with a proper cut."""
    edges = []
    for base in (0, 4):
        for u, v in combinations(range(base, base + 4), 2):
            edges.append((u, v, "1/2", 1))
    for i in range(4):
        edges.append((i, i + 4, "1/2", 1))
    return make_instance("two_k4", 8, edges)


def test_witness_accepts_generator_instances():
    for n in (5, 6, 7, 8):
        inst = generate_instance("k5_degree", n)
        assert degree_cut_witness(inst) is None
        require_degree_cut(inst)


def test_witness_rejects_doubled_edges():
    witness = degree_cut_witness(GADGET_BUILDERS["doubled_triangle"]())
    assert witness is not None and witness[0] == "value-one-edge"
    with pytest.raises(DegreeCutError):
        require_degree_cut(GADGET_BUILDERS["doubled_triangle"]())


def test_witness_rejects_proper_tight_sets():
    witness = degree_cut_witness(two_k4_blocks())
    assert witness is not None
    kind, detail = witness
    assert kind == "proper-min-cut"
    assert set(detail) in ({0, 1, 2, 3}, {4, 5, 6, 7})


def test_matching_size():
    assert matching_size(5) == 2
    assert matching_size(6) == 3


def test_k5_decomposition_is_uniform():
    inst = generate_instance("k5_degree", 5)
    matchings = enumerate_maximum_matchings(inst)
    assert len(matchings) == 15
    assert all(len(m) == 2 for m in matchings)
    dec = decompose_matching(inst)
    assert len(dec.weights) == 15
    assert all(w == Fraction(1, 15) for w, _ in dec.weights)
    assert dec.marginals(len(inst.edges)) == [Fraction(1, 5)] * 10


def test_octahedron_matchings():
    inst = generate_instance("k5_degree", 6)
    matchings = enumerate_maximum_matchings(inst)
    # the octahedron has 8 perfect matchings... unless the generator differs;
    # pin the structural facts that matter: perfect, and decomposable to 1/4
    assert all(len(m) == 3 for m in matchings)
    dec = decompose_matching(inst)
    assert dec.marginals(len(inst.edges)) == fractional_matching_target(inst)
    total = sum((w for w, _ in dec.weights), Fraction(0))
    assert total == 1
    assert all(w > 0 for w, _ in dec.weights)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_marginals_hit_target_exactly(n):
    inst = generate_instance("k5_degree", n)
    dec = decompose_matching(inst)
    assert dec.marginals(len(inst.edges)) == fractional_matching_target(inst)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_expected_connector_membership_is_half(n):
    inst = generate_instance("k5_degree", n)
    dec = decompose_matching(inst)
    values = expected_edge_values(inst, dec)
    assert values == [HALF] * len(inst.edges)
    lp = inst.lp_cost()
    tree_cost = sum(
        (inst.edges[i].cost * values[i] for i in range(len(values))), Fraction(0)
    )
    assert tree_cost == lp


def contexts_for(inst, dec):
    return {m: build_matching_context(inst, m) for _, m in dec.weights}


@pytest.mark.parametrize("n", [6, 7])
def test_normal_edge_even_probability_floor(n):
    inst = generate_instance("k5_degree", n)
    dec = decompose_matching(inst)
    found = 0
    for _, matching in dec.weights:
        context = build_matching_context(inst, matching)
        evens = normal_even_probabilities(inst, context, context.normal_edges)
        for edge, even in zip(context.normal_edges, evens):
            found += 1
            value = exactly_one_each_probability(inst, context, edge)
            assert value >= Fraction(16, 81)
            # "exactly one per endpoint" is one of the even patterns
            assert even >= value
    if n >= 7:
        assert found > 0


@pytest.mark.parametrize(
    "family, size",
    [("k5_degree", 6), ("k5_degree", 7), ("k5_degree", 9), ("random_half_integral", 8)],
    ids=["6", "7", "9", "random_half_integral:8"],
)
def test_normal_even_probability_matches_tree_enumeration(family, size):
    """Each normal edge's even-degree and exactly-one-each probabilities
    equal the oracle's joint law of the edges at its endpoints, convolved
    from every listed choice of ``level_outcome_table(context.connector)``."""
    inst = generate_instance(family, size)
    checked = 0
    for _, matching in decompose_matching(inst).weights:
        context = build_matching_context(inst, matching)
        assert set(context.connector.fixed) == matching
        table = level_outcome_table(context.connector)
        evens = normal_even_probabilities(inst, context, context.normal_edges)
        for edge, even in zip(context.normal_edges, evens):
            u, v = inst.edges[edge].u, inst.edges[edge].v
            focus = tuple(sorted(inst.incident_edges[u] | inst.incident_edges[v]))
            joint = subset_joint_distribution(table, focus)
            at_u, at_v = (
                [pos for pos, e in enumerate(focus) if e in inst.incident_edges[w]] for w in (u, v)
            )
            degrees = [(sum(p[i] for i in at_u), sum(p[i] for i in at_v), p) for p in joint]
            assert even == sum(
                (joint[p] for du, dv, p in degrees if du % 2 == 0 and dv % 2 == 0), Fraction(0)
            )
            # The matched edge is in every connector, so one other edge at
            # each endpoint means degree 2 there.
            assert exactly_one_each_probability(inst, context, edge) == sum(
                (joint[p] for du, dv, p in degrees if du == dv == 2), Fraction(0)
            )
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("n", [5, 6, 7])
def test_vertex_loads_within_bound(n):
    inst = generate_instance("k5_degree", n)
    dec = decompose_matching(inst)
    contexts = contexts_for(inst, dec)
    loads = expected_vertex_values(inst, dec, contexts)
    bound = Fraction(227, 243)
    if n % 2 == 1:
        bound += Fraction(353, 243) / n
    assert max(loads) <= bound


def test_sampled_trees_contain_matching_and_span():
    inst = generate_instance("k5_degree", 6)
    dec = decompose_matching(inst)
    contexts = contexts_for(inst, dec)
    from hitsp.instance import build_support_graph, metric_closure
    from hitsp.ojoin import JoinCalculator

    support = build_support_graph(inst)
    metric = metric_closure(inst)
    joins = JoinCalculator(metric)
    rng = np.random.default_rng(0)
    for _ in range(15):
        out = sample_degree_cut(
            inst, dec, contexts, rng, joins, support, metric, check_vector=True
        )
        assert out.feasible
        chosen = {support.edges[c].instance_edge for c in out.tree_edges}
        assert any(matching <= chosen for _, matching in dec.weights)
        assert out.tour_cost <= out.tree_cost + out.join_cost


def test_run_degree_cut_report():
    report = run_degree_cut(
        generate_instance("k5_degree", 6), samples=200, seed=1, check_vectors=True
    )
    results = report["results"]
    assert results["samples"] == 200
    assert report["expected"]["edge_value"] == HALF
    assert results["feasible_failures"] == 0
    assert results["mean_tour_ratio"] <= 1.4671 + 3 * results["tour_ratio_std"]
    assert report["decomposition"]["matchings"] >= 8
    assert report["decomposition"]["method"] in ("uniform", "simplex")


@pytest.mark.parametrize("size", [5, 6, 7])
def test_run_degree_cut_equals_its_per_sample_outcomes(size):
    """The report's sampled results are, float for float, those computed
    from each sample's ``sample_degree_cut`` outcome, with ``build_tour``
    pricing the tour and the former route giving the drawn matching."""
    from hitsp.instance import build_support_graph, metric_closure
    from hitsp.ojoin import JoinCalculator

    inst = generate_instance("k5_degree", size)
    samples, seed = 120, 3
    report = run_degree_cut(inst, samples=samples, seed=seed, check_vectors=True)
    dec = decompose_matching(inst)
    contexts = build_matching_contexts(inst, [m for _, m in dec.weights])
    support, metric = build_support_graph(inst), metric_closure(inst)
    joins = JoinCalculator(metric)
    lp = inst.lp_cost()
    ratios, totals, hits, draws, failures = [], [], 0, 0, 0
    for i in range(samples):
        out = sample_degree_cut(
            inst, dec, contexts, sample_rng(seed, i), joins, support, metric, check_vector=True
        )
        ref = reference_degree_cut_sample(inst, dec, contexts, sample_rng(seed, i), joins, support, metric)
        assert out.tree_edges == ref["tree_edges"]
        ratios.append(ref["tour_cost"] / lp)
        totals.append(out.vector_total)
        hits += len(ref["reduced_normal"])
        draws += len(contexts[ref["matching"]].normal_edges)
        failures += out.feasible is False
    results = report["results"]
    mean, std, ci3 = reference_statistics(ratios)
    assert (results["mean_tour_ratio"], results["tour_ratio_std"], results["tour_ratio_ci3"]) == (mean, std, ci3)
    assert results["mean_vector_total"] == reference_statistics(totals)[0]
    assert results["normal_even_rate"] == (hits / draws if draws else None)
    assert results["feasible_failures"] == failures


def test_run_degree_cut_rejects_bad_instances():
    with pytest.raises(DegreeCutError):
        run_degree_cut(GADGET_BUILDERS["four_blob"](), samples=5, seed=0)


@pytest.mark.parametrize("samples", [0, -3])
def test_run_degree_cut_rejects_no_samples(samples, monkeypatch):
    """No samples is refused before any set-up, not reported as zeros."""
    def no_setup(*args):
        raise AssertionError("set-up ran")

    for name in ("require_degree_cut", "decompose_matching"):
        monkeypatch.setattr(hitsp.degreecut, name, no_setup)
    with pytest.raises(ValueError, match="samples must be positive"):
        run_degree_cut(generate_instance("k5_degree", 5), samples=samples, seed=0)


def test_reported_edge_value_is_the_first_off_half_value(monkeypatch):
    """The report names the first expected edge value that is not 1/2, as
    the z-expected-half row does, not a mean that can read 1/2 when single
    edges do not."""
    inst = generate_instance("k5_degree", 5)
    real = hitsp.degreecut.expected_edge_values
    assert set(real(inst, decompose_matching(inst))) == {HALF}
    off = [HALF, Fraction(1, 3), Fraction(2, 3)]
    monkeypatch.setattr(
        hitsp.degreecut, "expected_edge_values", lambda *args: off + real(*args)[len(off):]
    )
    assert sum(off, Fraction(0)) / len(off) == HALF
    report = run_degree_cut(inst, samples=1, seed=0)
    assert report["expected"]["edge_value"] == Fraction(1, 3)


def test_degree_cut_samples_use_the_shared_seeding_scheme():
    # run_degree_cut draws sample i from sample_rng(seed, i); the reports
    # were made with SeedSequence(seed, spawn_key=(i,)) streams, so both must
    # yield the same numbers, and run records seed_words' first two words.
    for seed in (0, 7, 2**40 + 3):
        for i in (0, 1, 999):
            inline = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            shared = sample_rng(seed, i)
            assert seed_words(seed, i, i + 1)[0, :2].tolist() == (
                np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2).tolist()
            )
            assert inline.random(16).tolist() == shared.random(16).tolist()
            assert inline.integers(1000, size=16).tolist() == shared.integers(
                1000, size=16
            ).tolist()


@pytest.mark.parametrize(
    "family,n",
    [("k5_degree", 5), ("k5_degree", 6), ("k5_degree", 7), ("random_half_integral", 5), ("random_half_integral", 6)],
)
def test_uniform_law_is_taken_exactly_when_it_hits_the_target(family, n):
    inst = generate_instance(family, n)
    matchings = enumerate_maximum_matchings(inst)
    uniform = [Fraction(1, len(matchings))] * len(matchings)
    incidence = _incidence(matchings, len(inst.edges))
    hits = _matching_marginals(uniform, incidence) == fractional_matching_target(inst)
    assert hits == (n < 7)
    dec = decompose_matching(inst)
    assert dec.method == ("uniform" if hits else "simplex")
    if hits:
        assert dec.weights == tuple(zip(uniform, matchings))


def fraction_marginals(weights, m):
    """Per-edge total weight of the matchings holding the edge, as Fraction sums."""
    out = [Fraction(0)] * m
    for w, matching in weights:
        for e in matching:
            out[e] += w
    return out


@pytest.mark.parametrize(
    "family,n", [("k5_degree", 5), ("k5_degree", 9), ("random_half_integral", 14), ("random_half_integral", 18)]
)
def test_marginals_equal_the_fraction_sums(family, n):
    inst = generate_instance(family, n)
    m = len(inst.edges)
    dec = decompose_matching(inst)
    assert dec.marginals(m) == fraction_marginals(dec.weights, m)
    # Numerators past int64 take the Python-integer product.
    rng = random.Random(n)
    matchings = [matching for _, matching in dec.weights]
    weights = [Fraction(rng.randint(0, 2**80), rng.randint(1, 2**70)) for _ in matchings]
    pairs = list(zip(weights, matchings))
    assert _matching_marginals(weights, _incidence(matchings, m)) == fraction_marginals(pairs, m)


@pytest.mark.parametrize(
    "family,n",
    [("k5_degree", 7), ("k5_degree", 9), ("random_half_integral", 8), ("random_half_integral", 14)],
)
def test_decomposition_equals_the_fraction_tableau_route(family, n, monkeypatch):
    inst = generate_instance(family, n)
    dec = decompose_matching(inst)
    assert dec.method == "simplex"
    monkeypatch.setattr(
        "hitsp.degreecut.solve_equalities_nonneg", reference_solve_equalities_nonneg
    )
    reference = decompose_matching(inst)
    assert dec.weights == reference.weights
    assert dec.method == reference.method


def test_simplex_decomposition_is_verified(monkeypatch):
    def first_matching_only(rows, rhs):
        return [Fraction(1)] + [Fraction(0)] * (len(rows[0]) - 1)

    monkeypatch.setattr("hitsp.degreecut.solve_equalities_nonneg", first_matching_only)
    with pytest.raises(DegreeCutError, match="misses the matching target"):
        decompose_matching(generate_instance("k5_degree", 7))


def reference_degree_cut_sample(inst, dec, contexts, rng, joins, support, metric):
    """The former ``DegreeCutSample`` route, kept as the reference for
    ``sample_degree_cut``: the matching drawn by ``rng.choice``, the former
    per-context sampler and the degree-counting reduction, with ``Fraction``
    tree and join costs and the ``build_tour`` tour."""
    from hitsp.ojoin import build_tour, odd_vertices

    weights = np.array([float(w) for w, _ in dec.weights])
    matching = dec.weights[int(rng.choice(len(weights), p=weights / weights.sum()))][1]
    context = contexts[matching]
    tree = reference_matching_tree(context, rng)
    pairs, _ = joins.matching(odd_vertices(support, tree))
    values, reduced = reference_correction_vector(inst, context, tree)
    return {
        "matching": matching,
        "tree_edges": tree,
        "tree_cost": sum((inst.edges[e].cost for e in tree), Fraction(0)),
        "join_cost": sum((metric.dist[u][v] for u, v in pairs), Fraction(0)),
        "tour_cost": build_tour(support, tree, pairs, metric)[1],
        "reduced_normal": tuple(reduced),
        "values": [Fraction(x, 12) for x in values],
    }


def reference_matching_tree(context, rng):
    """The former per-context sampler, kept as the reference for the shared
    connector law: the whole matching (the pinned edges and the dropped
    matched edge added back), plus independent level trees."""
    chosen = list(context.matching)
    for level in context.connector.runs:
        chosen.extend(level.sample(rng))
    return tuple(sorted(chosen))


@pytest.mark.parametrize("spec, rational", [(("k5_degree", 7), False), (("random_half_integral", 14), True)])
def test_degree_cut_sample_matches_fraction_composition(spec, rational):
    """Integer costs and twelfths give the former ``Fraction`` sums exactly,
    also on costs in thirds and fifths, and the shared connector law draws
    the former sampler's trees and leaves its generator state."""
    from hitsp.instance import build_support_graph, metric_closure
    from hitsp.ojoin import JoinCalculator

    inst = generate_instance(*spec)
    if rational:
        inst = with_rational_costs(inst)
        assert inst.cost_numerators[0] == 15
    dec = decompose_matching(inst)
    contexts = contexts_for(inst, dec)
    support = build_support_graph(inst)
    metric = metric_closure(inst)
    joins = JoinCalculator(metric)
    for seed in range(200):
        got_rng = sample_rng(seed, 0)
        out = sample_degree_cut(
            inst, dec, contexts, got_rng, joins, support, metric,
            check_vector=seed < 20,
        )
        rng = sample_rng(seed, 0)
        ref = reference_degree_cut_sample(inst, dec, contexts, rng, joins, support, metric)
        assert out.tree_edges == ref["tree_edges"]
        assert got_rng.bit_generator.state == rng.bit_generator.state
        values = ref["values"]
        assert out.tree_cost == ref["tree_cost"]
        assert out.join_cost == ref["join_cost"]
        assert out.tour_cost == ref["tour_cost"]
        assert out.vector_total == sum(values, Fraction(0))
        assert min(values) >= Fraction(1, 6)
        assert out.feasible is (True if seed < 20 else None)
        assert out.reduced_count == len(ref["reduced_normal"])
        assert out.normal_count == len(contexts[ref["matching"]].normal_edges)


@pytest.mark.parametrize("size", [5, 6, 7, 8, 9])
def test_sample_check_matches_check_feasible(size):
    """The integer check on twelfths gives ``check_feasible``'s result."""
    from hitsp.degreecut import correction_vector
    from hitsp.instance import build_support_graph, metric_closure
    from hitsp.ojoin import JoinCalculator, _check_numerators, check_feasible

    inst = generate_instance("k5_degree", size)
    dec = decompose_matching(inst)
    contexts = contexts_for(inst, dec)
    support = build_support_graph(inst)
    metric = metric_closure(inst)
    joins = JoinCalculator(metric)
    for seed in range(12):
        out = sample_degree_cut(
            inst, dec, contexts, sample_rng(seed, 0), joins, support, metric, check_vector=True
        )
        ref = reference_degree_cut_sample(inst, dec, contexts, sample_rng(seed, 0), joins, support, metric)
        tree = out.tree_edges
        assert tree == ref["tree_edges"]
        values = correction_vector(support, contexts[ref["matching"]], odd_mask(support, tree))[0]
        exact = [Fraction(x, 12) for x in values]
        result = check_feasible(support, tree, exact, floor=Fraction(1, 6))
        assert out.feasible == (result.feasible and result.floor_ok)
        assert _check_numerators(support, odd_mask(support, tree), values, 12, 2) == result


STACKED_CONTEXT_SPECS = [("k5_degree", n) for n in range(5, 14)] + [
    ("random_half_integral", n) for n in range(8, 25)
]


@pytest.mark.parametrize(
    "family, size", STACKED_CONTEXT_SPECS, ids=[f"{f}:{n}" for f, n in STACKED_CONTEXT_SPECS]
)
def test_stacked_contexts_equal_one_matching_contexts(family, size):
    """Every context of the decomposition, built in one stack for all
    matchings, equals the context built for its matching alone, field by
    field: weights to the bit, and the walk tables."""
    inst = generate_instance(family, size)
    matchings = [m for _, m in decompose_matching(inst).weights]
    stacked = build_matching_contexts(inst, matchings)
    assert list(stacked) == matchings
    for matching in matchings:
        alone, context = build_matching_context(inst, matching), stacked[matching]
        assert (context.matching, context.base, context.normal_edges) == (
            alone.matching, alone.base, alone.normal_edges
        )
        assert context.connector.fixed == alone.connector.fixed
        assert len(context.connector.runs) == len(alone.connector.runs)
        for level, single in zip(context.connector.runs, alone.connector.runs):
            assert level == single
            assert np.array(level.lam_float).tobytes() == np.array(single.lam_float).tobytes()
            assert level.walk == single.walk


def memo_samples(inst, seeds, shared):
    """``sample_degree_cut`` with vector checks at each seed, and the number
    of verdicts kept: one ``JoinCalculator`` (one verdict memo) for every
    seed when ``shared``, else a fresh one per seed, whose memo starts
    empty, so every vector is checked afresh."""
    from hitsp.instance import build_support_graph, metric_closure
    from hitsp.ojoin import JoinCalculator

    dec = decompose_matching(inst)
    contexts = build_matching_contexts(inst, [m for _, m in dec.weights])
    support, metric = build_support_graph(inst), metric_closure(inst)
    joins = JoinCalculator(metric)
    out = []
    for seed in seeds:
        if not shared:
            joins = JoinCalculator(metric)
        out.append(sample_degree_cut(
            inst, dec, contexts, sample_rng(seed, 0), joins, support, metric, check_vector=True,
        ))
    return out, len(joins.verdicts)


@pytest.mark.parametrize(
    "family, size", [("k5_degree", n) for n in range(5, 10)] + [("random_half_integral", 18)]
)
def test_verdict_memo_keeps_every_sample(family, size):
    """A run's verdict memo changes no sample and holds at most one entry
    per sample."""
    inst = generate_instance(family, size)
    kept, entries = memo_samples(inst, range(200), shared=True)
    fresh = memo_samples(inst, range(200), shared=False)[0]
    assert kept == fresh
    assert [out.tour_cost for out in kept] == [out.tour_cost for out in fresh]
    assert 0 < entries <= 200


def test_a_full_verdict_memo_still_checks_every_vector(monkeypatch):
    """Past ``VERDICT_MEMO_CAP`` entries the memo keeps no more verdicts,
    and each sample stays what a fresh check gives."""
    monkeypatch.setattr(hitsp.ojoin, "VERDICT_MEMO_CAP", 5)
    inst = generate_instance("random_half_integral", 18)
    kept, entries = memo_samples(inst, range(60), shared=True)
    fresh = memo_samples(inst, range(60), shared=False)[0]
    assert kept == fresh
    assert [out.tour_cost for out in kept] == [out.tour_cost for out in fresh]
    assert entries == 5


@pytest.mark.parametrize("family, size", [("k5_degree", 7), ("k5_degree", 9), ("random_half_integral", 18)])
def test_exactly_one_each_probabilities_match_one_edge_at_a_time(family, size):
    """One ``parity_laws`` batch per context gives each edge's own law."""
    inst = generate_instance(family, size)
    dec = decompose_matching(inst)
    checked = 0
    for context in build_matching_contexts(inst, [m for _, m in dec.weights]).values():
        edges = context.normal_edges
        batch = exactly_one_each_probabilities(inst, context, edges)
        assert batch == [exactly_one_each_probability(inst, context, e) for e in edges]
        checked += len(edges)
    assert checked > 0


def reference_base_correction_values(instance, context):
    """The former per-sample base vector in twelfths: 1/2 on matched, 1/4
    at the root, 1/6 else."""
    root = tree_target_vector(instance, context.matching)[2]
    values = []
    for idx, e in enumerate(instance.edges):
        if idx in context.matching:
            values.append(6)
        elif root is not None and root in (e.u, e.v):
            values.append(3)
        else:
            values.append(2)
    return values


def reference_correction_vector(instance, context, tree_edges):
    """The former degree-counting reduction: a normal matched edge drops
    from 1/2 to 1/6 when both endpoints have even connector degree."""
    degree = [0] * instance.n
    for e in set(tree_edges):
        degree[instance.edges[e].u] += 1
        degree[instance.edges[e].v] += 1
    values = reference_base_correction_values(instance, context)
    reduced = []
    for e in context.normal_edges:
        u, v = instance.edges[e].u, instance.edges[e].v
        if degree[u] % 2 == 0 and degree[v] % 2 == 0:
            values[e] = 2
            reduced.append(e)
    return (values, reduced)


@pytest.mark.parametrize(
    "family, size",
    [("k5_degree", n) for n in range(5, 10)] + [("random_half_integral", 18)],
)
def test_correction_vector_equals_the_degree_counting_reference(family, size):
    """The stored base and the odd-mask reduction give the former values
    and reduced edges, sample by sample, at odd orders (with a root) and
    even ones."""
    from hitsp.degreecut import correction_vector
    from hitsp.instance import build_support_graph, metric_closure
    from hitsp.ojoin import JoinCalculator

    inst = generate_instance(family, size)
    dec = decompose_matching(inst)
    contexts = contexts_for(inst, dec)
    for context in contexts.values():
        assert list(context.base) == reference_base_correction_values(inst, context)
    support = build_support_graph(inst)
    metric = metric_closure(inst)
    joins = JoinCalculator(metric)
    reduced_any = 0
    for seed in range(200):
        out = sample_degree_cut(inst, dec, contexts, sample_rng(seed, 0), joins, support, metric)
        ref = reference_degree_cut_sample(inst, dec, contexts, sample_rng(seed, 0), joins, support, metric)
        context = contexts[ref["matching"]]
        reference = reference_correction_vector(inst, context, out.tree_edges)
        assert correction_vector(support, context, odd_mask(support, out.tree_edges)) == reference
        assert out.tree_edges == ref["tree_edges"]
        assert out.reduced_count == len(reference[1])
        assert out.vector_total == Fraction(sum(reference[0]), 12)
        reduced_any += bool(reference[1])
    assert reduced_any > 0 or not any(c.normal_edges for c in contexts.values())


@pytest.mark.parametrize(
    "family, size", [("k5_degree", 7), ("k5_degree", 9), ("random_half_integral", 18)]
)
def test_contexts_build_no_kernel_and_laws_one_per_level(family, size, monkeypatch):
    """Fitting a level builds no kernel; the exact vertex loads build at most
    one per level, the first time a law asks about it."""
    built = counted_kernels(monkeypatch)
    inst = generate_instance(family, size)
    dec = decompose_matching(inst)
    contexts = contexts_for(inst, dec)
    assert built == []
    expected_vertex_values(inst, dec, contexts)
    levels = [level for context in contexts.values() for level in context.connector.runs]
    assert 0 < len(built) <= len(levels)
    assert len(built) == sum(level._kernel is not None for level in levels)
    before = len(built)
    expected_vertex_values(inst, dec, contexts)
    assert len(built) == before


def combinations_first_tight_set(nq, items, tvals):
    """The tight-set scan as a plain reference: every vertex subset by size,
    in ``combinations`` order, its internal mass summed in ``Fraction``s."""
    for size in range(2, nq):
        for subset in combinations(range(nq), size):
            sset = set(subset)
            inside = [it for it in items if it[1] in sset and it[2] in sset]
            if sum((tvals[it[0]] for it in inside), Fraction(0)) == size - 1:
                return sset, inside
    return None


@pytest.mark.parametrize(
    "family,n",
    [("k5_degree", n) for n in (5, 6, 7, 8, 9, 11, 13)]
    + [("random_half_integral", n) for n in (13, 18, 26)],
)
def test_tree_levels_equal_the_combinations_scan(family, n, monkeypatch):
    """Every k5_degree maximum matching, and every matching the random
    instances' decompositions draw.  A level is compared by its fit
    problem."""
    inst = generate_instance(family, n)
    if family == "k5_degree":
        matchings = enumerate_maximum_matchings(inst)
    else:
        matchings = [m for _, m in decompose_matching(inst).weights]
    edges = [(e.u, e.v) for e in inst.edges]
    targets = [tree_target_vector(inst, m)[0] for m in matchings]
    flows = [build_tree_levels(inst.n, edges, t) for t in targets]
    monkeypatch.setattr("hitsp.degreecut._first_tight_set", combinations_first_tight_set)
    assert [build_tree_levels(inst.n, edges, t) for t in targets] == flows
    # Tight sets split every context from n = 6 on; K5's stay one level.
    assert all((len(levels) > 1) == (n > 5) for _, _, levels in flows)


def random_tree(rng, nq, planted):
    """A random spanning tree on ``nq`` vertices that spans each of the
    disjoint ``planted`` sets: a random tree inside each, then random edges
    joining the parts."""
    edges, parts = [], []
    for sset in planted:
        order = rng.sample(sorted(sset), len(sset))
        edges += [(v, rng.choice(order[:i])) for i, v in enumerate(order) if i]
        parts.append(order)
    covered = set().union(*planted)
    parts += [[v] for v in range(nq) if v not in covered]
    rng.shuffle(parts)
    for i, part in enumerate(parts[1:], start=1):
        edges.append((rng.choice(part), rng.choice(rng.choice(parts[:i]))))
    return edges


def planted_targets(rng, nq, planted, denominators):
    """A point of the spanning-tree polytope on which every planted set is
    tight: a convex combination of random trees that each span every planted
    set, its weights broken off the rest by fractions over ``denominators``.
    Some pairs are split into two parallel items."""
    rest, weights = Fraction(1), []
    for _ in range(rng.randint(4, 7)):
        den = rng.choice(denominators)
        weights.append(rest * Fraction(rng.randint(1, den - 1), den))
        rest -= weights[-1]
    mass = {}
    for w in [*weights, rest]:
        for u, v in random_tree(rng, nq, planted):
            mass[min(u, v), max(u, v)] = mass.get((min(u, v), max(u, v)), 0) + w
    items, tvals = [], {}
    for (u, v), t in sorted(mass.items()):
        parts = [t / 3, t * 2 / 3] if rng.random() < 0.25 else [t]
        for part in parts:
            tvals[len(items)] = part
            items.append((len(items), *rng.sample((u, v), 2)))
    return items, tvals


@pytest.mark.parametrize("denominators", [(3, 4, 7, 12), (3, 2**31 - 1, 2**61 - 1)])
def test_first_tight_set_on_planted_targets(denominators):
    """Two tight sets of one size go to the lexicographically first, as in
    ``combinations``; a set of size nq - 1 is found; targets over
    denominators past the int64 range are exact."""
    rng = random.Random(6203)
    planted_first = largest = 0
    for trial in range(240):
        nq = rng.randint(5, 9)
        order = rng.sample(range(nq), nq)
        if trial % 3 == 0:
            size = rng.randint(2, nq // 2)
            planted = [set(order[:size]), set(order[size : 2 * size])]
        elif trial % 3 == 1:
            planted = [set(order[: nq - 1])]
        else:
            planted = [set(order[: rng.randint(2, nq - 1)])]
        items, tvals = planted_targets(rng, nq, planted, denominators)
        expected = combinations_first_tight_set(nq, items, tvals)
        assert _first_tight_set(nq, items, tvals) == expected
        planted_first += expected[0] == min(planted, key=sorted)
        largest += len(expected[0]) == nq - 1
    assert planted_first > 150 and largest > 0
    assert _first_tight_set(4, [], {}) is None
    # 1/2 on each edge of K4: only the whole vertex set is tight.
    k4 = [(i, u, v) for i, (u, v) in enumerate(combinations(range(4), 2))]
    assert _first_tight_set(4, k4, dict.fromkeys(range(6), HALF)) is None


def test_targets_outside_the_tree_polytope_raise():
    """A triangle at 3/4 per edge holds 9/4 > 2: alone, and inside a point
    whose total is still n - 1."""
    triangle = [(0, 1), (1, 2), (0, 2)]
    with pytest.raises(DegreeCutError, match="leave the spanning-tree polytope"):
        build_tree_levels(3, triangle, [Fraction(3, 4)] * 3)
    with pytest.raises(DegreeCutError, match="leave the spanning-tree polytope"):
        build_tree_levels(4, [*triangle, (2, 3)], [Fraction(3, 4)] * 4)
