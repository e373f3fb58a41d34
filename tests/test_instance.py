"""Instance parsing, validation, serialization, generators, and metrics."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from hitsp.instance import (
    CostError,
    CutError,
    EdgeValueError,
    GADGET_BUILDERS,
    GENERATOR_FAMILIES,
    HalfIntegralInstance,
    InstanceEdge,
    InstanceError,
    MalformedInstanceError,
    build_support_graph,
    generate_instance,
    make_instance,
    metric_closure,
    parse_instance,
    serialize_instance,
    split_vertex_for_eplus,
)

HALF = Fraction(1, 2)


def square_edges():
    return [(0, 1, "1", 1), (1, 2, "1/2", 1), (2, 3, "1", 1), (3, 0, "1/2", 1),
            (1, 3, "1/2", 1), (0, 2, "1/2", 1)]


def test_make_instance_roundtrip_bytes():
    inst = make_instance("square", 4, square_edges(), e_plus=0)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert serialize_instance(again) == text
    assert again == inst


def test_roundtrip_past_the_int_digit_limit():
    """Costs of 10**5000 and of a 5,000-digit "p/q" are read back in full."""
    sevens = 7 * (10**5000 - 1) // 9
    for cost in (Fraction(10**5000), Fraction(sevens, 3)):
        edges = [(0, 1, "1", cost)] + square_edges()[1:]
        inst = make_instance("square", 4, edges, e_plus=0)
        text = serialize_instance(inst)
        assert parse_instance(text) == inst
        assert serialize_instance(parse_instance(text)) == text
    assert '"7777' in text and '/3"' in text


def test_parse_maps_deep_nesting_to_malformed():
    with pytest.raises(MalformedInstanceError, match="nested too deeply"):
        parse_instance("[" * 100_000 + "]" * 100_000)


def test_parse_rejects_float_values():
    inst = make_instance("square", 4, square_edges())
    text = serialize_instance(inst).replace('"1/2"', "0.5")
    with pytest.raises(InstanceError):
        parse_instance(text)


def test_parse_rejects_bad_edge_value():
    with pytest.raises(EdgeValueError):
        make_instance("bad", 4, [(0, 1, "1/3", 1)] + square_edges()[1:])


def test_parse_rejects_negative_cost():
    with pytest.raises(CostError):
        make_instance("bad", 4, [(0, 1, "1", -1)] + square_edges()[1:])


def test_rejects_wrong_degree():
    # dropping an edge breaks the x(delta(v)) == 2 requirement
    with pytest.raises(InstanceError):
        make_instance("bad", 4, square_edges()[:-1])


def test_rejects_self_loop_and_duplicate():
    with pytest.raises(InstanceError):
        make_instance("bad", 4, [(0, 0, "1", 1)] + square_edges()[1:])
    dup = square_edges() + [(1, 2, "1/2", 1)]
    with pytest.raises(InstanceError):
        make_instance("bad", 4, dup)


def test_e_plus_must_be_doubled():
    inst = make_instance("square", 4, square_edges())
    with pytest.raises(MalformedInstanceError):
        inst.with_e_plus(1)  # a half edge
    assert inst.with_e_plus(0).e_plus == 0


def test_lp_cost_square():
    inst = make_instance("square", 4, square_edges())
    # 2 doubled unit edges + 4 half unit edges = 2 + 2
    assert inst.lp_cost() == 4


def test_support_graph_doubling_and_regularity():
    inst = make_instance("square", 4, square_edges(), e_plus=0)
    support = build_support_graph(inst)
    assert support.n == 4
    assert len(support.edges) == 8  # 2 doubled -> 4 copies, 4 half -> 4 copies
    degree = [0] * support.n
    for e in support.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    assert all(d == 4 for d in degree)
    assert support.e_plus_pair is not None
    a, b = support.e_plus_pair
    assert support.endpoints(a) == support.endpoints(b)


def test_support_copies_per_instance_edge():
    inst = make_instance("square", 4, square_edges())
    support = build_support_graph(inst)
    # Copies keep instance edge order: a doubled edge's two are consecutive.
    copies = [e.instance_edge for e in support.edges]
    assert copies == sorted(copies)
    for idx, edge in enumerate(inst.edges):
        want = 2 if edge.lp_value == 1 else 1
        assert copies.count(idx) == want
    assert support.e_plus_pair is None
    for d in inst.doubled_edges():
        pair = build_support_graph(inst.with_e_plus(d)).e_plus_pair
        assert [support.edges[i].instance_edge for i in pair] == [d, d]


def test_split_vertex_adds_one_vertex_when_needed():
    inst = GADGET_BUILDERS["split_k5"]()
    # already split by the builder: idempotent
    again = split_vertex_for_eplus(inst)
    assert again.n == inst.n
    base = generate_instance("k5_degree", 5)
    assert split_vertex_for_eplus(base.with_e_plus(base.doubled_edges()[0])).n == base.n + 1 if base.doubled_edges() else True


def test_metric_closure_triangle_inequality():
    inst = generate_instance("envelope", 2)
    metric = metric_closure(inst)
    n = inst.n
    for u in range(n):
        assert metric.dist[u][u] == 0
        for v in range(n):
            assert metric.dist[u][v] == metric.dist[v][u]
            for w in range(n):
                assert metric.dist[u][w] <= metric.dist[u][v] + metric.dist[v][w]


def fraction_closure(inst):
    """Reference: Floyd–Warshall as a triple loop over ``Fraction`` costs."""
    n = inst.n
    infinity = None
    dist = [[infinity] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = Fraction(0)
    for e in inst.edges:
        if dist[e.u][e.v] is None or e.cost < dist[e.u][e.v]:
            dist[e.u][e.v] = e.cost
            dist[e.v][e.u] = e.cost
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik is None:
                continue
            di = dist[i]
            for j in range(n):
                if dk[j] is None:
                    continue
                through = dik + dk[j]
                if di[j] is None or through < di[j]:
                    di[j] = through
    for i in range(n):
        for j in range(n):
            if dist[i][j] is None:
                raise CutError(f"vertices {i} and {j} are disconnected")
    return tuple(tuple(row) for row in dist)


def assert_closure_matches_reference(inst):
    got = metric_closure(inst).dist
    assert got == fraction_closure(inst)
    assert all(type(d) is Fraction for row in got for d in row)


def with_costs(inst, costs):
    edges = tuple(dataclasses.replace(e, cost=Fraction(c)) for e, c in zip(inst.edges, costs))
    return dataclasses.replace(inst, edges=edges)


@pytest.mark.parametrize("family,sizes", [
    ("envelope", range(1, 11)),
    ("cycle_chain", range(2, 31)),
    ("random_half_integral", range(8, 42)),
    ("k5_degree", range(5, 18)),
])
def test_integer_closure_equals_the_fraction_loop_on_generators(family, sizes):
    for size in sizes:
        assert_closure_matches_reference(generate_instance(family, size))


@pytest.mark.parametrize("name", sorted(GADGET_BUILDERS))
def test_integer_closure_equals_the_fraction_loop_on_gadgets(name):
    assert_closure_matches_reference(GADGET_BUILDERS[name]())


@pytest.mark.parametrize("spec", ["envelope:4", "cycle_chain:9", "random_half_integral:14", "k5_degree:8"])
def test_integer_closure_equals_the_fraction_loop_on_rational_and_huge_costs(spec):
    family, _, size = spec.partition(":")
    inst = generate_instance(family, int(size))
    rng = np.random.default_rng(20261018)
    m = len(inst.edges)
    for _ in range(6):
        dens = rng.choice([2, 3, 5, 7, 12], size=m).tolist()
        nums = rng.integers(0, 40, size=m).tolist()
        nums[: m // 5] = [0] * (m // 5)
        rng.shuffle(nums)
        assert_closure_matches_reference(with_costs(inst, [Fraction(a, d) for a, d in zip(nums, dens)]))
    huge = [10**25 + int(x) for x in rng.integers(0, 10**6, size=m)]
    huge[0] = 0
    _, numerators = with_costs(inst, huge).cost_numerators
    assert 2 * (sum(numerators) + 1) >= 2**63  # the object-dtype path
    assert_closure_matches_reference(with_costs(inst, huge))
    assert_closure_matches_reference(with_costs(inst, [Fraction(c, 12) for c in huge]))


def test_disconnected_closure_raises_the_reference_error():
    # two triangles, unvalidated: vertices 0-2 never reach 3-5
    edges = tuple(
        InstanceEdge(u, v, Fraction(1), Fraction(c))
        for u, v, c in [(0, 1, 1), (1, 2, 2), (2, 0, 3), (3, 4, 1), (4, 5, 1), (5, 3, 1)]
    )
    inst = HalfIntegralInstance(name="apart", n=6, edges=edges)
    with pytest.raises(CutError) as want:
        fraction_closure(inst)
    with pytest.raises(CutError) as got:
        metric_closure(inst)
    assert str(got.value) == str(want.value) == "vertices 0 and 3 are disconnected"


@pytest.mark.parametrize("family,size", [
    ("cycle_chain", 2), ("cycle_chain", 4),
    ("envelope", 1), ("envelope", 5),
    ("k5_degree", 5), ("k5_degree", 8),
])
def test_generators_produce_valid_instances(family, size):
    inst = generate_instance(family, size)
    support = build_support_graph(inst)
    degree = [0] * support.n
    for e in support.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    assert all(d == 4 for d in degree)


def test_generator_families_constant_is_exhaustive():
    for family in GENERATOR_FAMILIES:
        size = 2 if family in ("envelope", "cycle_chain") else 5
        inst = generate_instance(family, size, seed=0)
        assert inst.n >= 4


def test_unknown_family_raises():
    with pytest.raises(ValueError):
        generate_instance("nosuch", 3)


def test_random_family_is_seed_deterministic():
    a = generate_instance("random_half_integral", 8, seed=11)
    b = generate_instance("random_half_integral", 8, seed=11)
    assert serialize_instance(a) == serialize_instance(b)


@pytest.mark.parametrize("name", sorted(GADGET_BUILDERS))
def test_gadget_builders_validate(name):
    inst = GADGET_BUILDERS[name]()
    support = build_support_graph(inst)
    assert support.n >= 3
    degree = [0] * support.n
    for e in support.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    assert all(d == 4 for d in degree)


def test_duals_certify_lp_cost_when_present():
    inst = generate_instance("cycle_chain", 3)
    if inst.duals is None:
        pytest.skip("generator provides no duals")
    total = sum(inst.duals, Fraction(0))
    assert 2 * total == inst.lp_cost()
