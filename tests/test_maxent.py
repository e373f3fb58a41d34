"""Weighted spanning-tree counting, marginal fitting, sampling, parity characters."""

import pickle
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from test_cuts import boundary_edges

import hitsp.degreecut
import hitsp.maxent
import hitsp.ojoin
from hitsp._util import ResourceCapError
from hitsp.cli import DEGREE_CORPUS, HIERARCHY_CORPUS, corpus_instance
from hitsp.degreecut import build_matching_context, decompose_matching
from hitsp.instance import generate_instance
from hitsp.maxent import (
    FitConvergenceError,
    LambdaFit,
    LevelProblem,
    TreeKernel,
    TreeLevel,
    _block_inverse,
    _determinants,
    _laplacian,
    _prime_table,
    _product,
    _rationalized,
    _walk,
    _walk_tables,
    fit_lambda,
    fit_lambdas,
    fit_levels,
    tree_marginals,
)
from hitsp.ojoin import parity_laws, prepare_instance
from hitsp.oracle import enumerate_spanning_trees

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K5_EDGES = [(u, v) for u, v in combinations(range(5), 2)]


def sample_tree(n, edges, lam, rng):
    """One spanning tree via loop-erased random walks, weight-proportional:
    a level's walk over the edges' own indices, sorted.  Parallel edges are
    handled individually, so multigraph levels sample correctly."""
    return tuple(sorted(_walk(_walk_tables(n, edges, lam, range(len(edges))), rng)))


def joint_marginal(joint, position):
    """P[the edge at ``position`` of a joint law is in the tree]."""
    return sum((p for pattern, p in joint.items() if pattern[position]), Fraction(0))


def kernel_joint(kernel, focus):
    """The kernel's joint membership law over the focus edges, zero patterns
    omitted: ``parity_laws`` of the focus singletons, whose parities are the
    memberships."""
    [(law, den)] = parity_laws(kernel.sign_expectations, [[frozenset({e}) for e in focus]])
    patterns = (tuple(a >> i & 1 for i in range(len(focus))) for a in range(len(law)))
    return {pattern: Fraction(x, den) for pattern, x in zip(patterns, law) if x}


def determinant(matrix):
    """Exact determinant by ``Fraction`` Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(m)):
        pivot_row = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            if factor != 0:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def count_weighted_trees(n, edges, lam):
    """Total tree weight (the sum over spanning trees of the product of
    weights), exactly, as one Laplacian minor; weights may be negative,
    which is what the parity identities exploit."""
    lap = [[Fraction(0)] * n for _ in range(n)]
    for (u, v), w in zip(edges, lam):
        if u != v:
            lap[u][u] += w
            lap[v][v] += w
            lap[u][v] -= w
            lap[v][u] -= w
    return determinant([row[1:] for row in lap[1:]])


def test_unweighted_counts_match_cayley():
    assert count_weighted_trees(4, K4_EDGES, [1] * 6) == 16
    assert count_weighted_trees(5, K5_EDGES, [1] * 10) == 125


def test_weighted_triangle_count_by_hand():
    edges = [(0, 1), (1, 2), (2, 0)]
    lam = [Fraction(2), Fraction(3), Fraction(5)]
    # trees are the three edge pairs: 2*3 + 2*5 + 3*5
    assert count_weighted_trees(3, edges, lam) == 31


def test_parallel_edges_counted_separately():
    edges = [(0, 1), (0, 1)]
    assert count_weighted_trees(2, edges, [Fraction(1), Fraction(1)]) == 2


def test_enumeration_matches_determinant():
    trees = enumerate_spanning_trees(4, K4_EDGES)
    assert len(trees) == 16
    assert len(set(trees)) == 16
    for tree in trees:
        assert len(tree) == 3
    with pytest.raises(ResourceCapError):
        enumerate_spanning_trees(5, K5_EDGES, cap=100)


def test_marginals_sum_to_tree_size():
    lam = [Fraction(i + 1) for i in range(6)]
    marg = tree_marginals(4, K4_EDGES, lam)
    assert sum(marg.values, Fraction(0)) == 3


def test_marginals_match_enumeration():
    lam = [Fraction(i + 1) for i in range(6)]
    marg = tree_marginals(4, K4_EDGES, lam)
    trees = enumerate_spanning_trees(4, K4_EDGES)
    total = sum(lam[a] * lam[b] * lam[c] for a, b, c in trees)
    for e in range(6):
        direct = sum(
            lam[a] * lam[b] * lam[c] for a, b, c in trees if e in (a, b, c)
        )
        assert marg.values[e] == direct / total


def scalar_float_marginals(n, edges, lam):
    """The former float marginals, kept as the reference for the array fit:
    the Laplacian summed by ``+=`` and ``-=`` edge by edge, and each
    effective resistance read off the grounded inverse term by term."""
    lap = np.zeros((n, n))
    for (u, v), w in zip(edges, lam):
        if u == v:
            continue
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    grounded = lap[1:, 1:]
    inv = np.linalg.inv(grounded)
    out = []
    for (u, v), w in zip(edges, lam):
        if u == v:
            out.append(0.0)
            continue
        resistance = 0.0
        if u > 0:
            resistance += inv[u - 1, u - 1]
        if v > 0:
            resistance += inv[v - 1, v - 1]
        if u > 0 and v > 0:
            resistance -= 2.0 * inv[u - 1, v - 1]
        out.append(w * resistance)
    return out


def scalar_fit_lambda(n, edges, targets, tol=1e-8, max_iterations=100_000):
    """The former ``fit_lambda``, one edge at a time, kept as the reference
    the array fit must equal bit for bit.  Returns the fit and the final
    damping factor (1.0 when no step was damped)."""
    targets = [float(t) for t in targets]
    lam = [1.0] * len(edges)
    previous_error = float("inf")
    damping = 1.0
    for iterations in range(1, max_iterations + 1):
        marg = scalar_float_marginals(n, edges, lam)
        error = max(abs(m - t) for m, t in zip(marg, targets))
        if error <= tol:
            break
        if error > previous_error:
            damping = max(0.5 * damping, 1e-3)
        previous_error = error
        for j in range(len(lam)):
            ratio = targets[j] / max(marg[j], 1e-300)
            lam[j] *= ratio**damping
    else:
        raise FitConvergenceError("reference fit stalled", error)
    scale = lam[0]
    return LambdaFit(tuple(v / scale for v in lam), error, iterations), damping


def test_fit_uniform_half_on_k4_gives_constant_weights():
    fit = fit_lambda(4, K4_EDGES, [Fraction(1, 2)] * 6)
    marg = tree_marginals(4, K4_EDGES, fit.values)
    assert max(abs(float(m) - 0.5) for m in marg.values) <= 1e-8
    assert max(abs(v - 1.0) for v in fit.values) <= 1e-6


def test_fit_rejects_targets_at_zero_and_one():
    """Pinning is ``build_tree_levels``' work: the fit takes interior targets
    only, even when they sum to n - 1."""
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="strictly between"):
        fit_lambda(4, K4_EDGES, [1, half, half, half, half, 0])
    with pytest.raises(ValueError, match="strictly between"):
        fit_lambda(4, K4_EDGES, [1, half, half, half, Fraction(1, 4), Fraction(1, 4)])


def test_fit_rejects_bad_target_sums():
    with pytest.raises(ValueError, match="sum to"):
        fit_lambda(4, K4_EDGES, [Fraction(1, 2)] * 5 + [Fraction(3, 4)])
    with pytest.raises(ValueError):
        fit_lambda(4, K4_EDGES, [2] + [Fraction(1, 4)] * 5)


def test_fit_reports_stall_honestly(monkeypatch):
    monkeypatch.setattr(hitsp.maxent, "FIT_ITERATION_CAP", 1)
    with pytest.raises(FitConvergenceError) as info:
        fit_lambda(4, K4_EDGES, [Fraction(3, 4), Fraction(3, 4), Fraction(1, 2),
                                 Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    assert info.value.error > 0


def test_refit_is_a_fixed_point():
    # targets drawn as marginals of random weights are interior by construction
    rng = np.random.default_rng(5)
    for _ in range(3):
        lam = [Fraction(float(v)).limit_denominator(1000)
               for v in rng.uniform(0.3, 3.0, size=6)]
        targets = tree_marginals(4, K4_EDGES, lam).values
        fit = fit_lambda(4, K4_EDGES, targets, tol=1e-10)
        achieved = tree_marginals(4, K4_EDGES, fit.values)
        refit = fit_lambda(4, K4_EDGES, achieved.values, tol=1e-10)
        for a, b in zip(fit.values, refit.values):
            assert abs(a - b) <= 1e-6
        # and the fit recovers the generating weights up to the normalization
        scale = float(lam[0]) / fit.values[0]
        for a, b in zip(fit.values, lam):
            assert abs(a * scale - float(b)) <= 1e-6 * float(b)


def recorded_fits(monkeypatch, set_up):
    """The arguments and result of every problem of every ``fit_lambdas``
    stack ``set_up`` fits."""
    calls = []
    real = hitsp.maxent.fit_lambdas

    def record(problems, **options):
        fits = real(problems, **options)
        for (n, edges, targets), fit in zip(problems, fits):
            calls.append(((n, list(edges), list(targets)), options, fit))
        return fits

    monkeypatch.setattr(hitsp.maxent, "fit_lambdas", record)
    set_up()
    monkeypatch.undo()
    return calls


def degree_cut_set_up(inst):
    """The cut-free levels of every context of the instance's decomposition."""
    return [
        level
        for _, matching in decompose_matching(inst).weights
        for level in build_matching_context(inst, matching).connector.runs
    ]


FIT_SET_UPS = (
    [(label, lambda spec=spec: prepare_instance(corpus_instance(spec))) for label, spec in HIERARCHY_CORPUS]
    + [(label, lambda size=size: degree_cut_set_up(generate_instance("k5_degree", size)))
       for label, size in DEGREE_CORPUS]
    + [(f"random_half_integral:{size}",
        lambda size=size: prepare_instance(generate_instance("random_half_integral", size)))
       for size in range(8, 41)]
    + [(f"k5_degree:{size}", lambda size=size: degree_cut_set_up(generate_instance("k5_degree", size)))
       for size in range(8, 14)]
)


@pytest.mark.parametrize("set_up", [s for _, s in FIT_SET_UPS], ids=[label for label, _ in FIT_SET_UPS])
def test_fit_equals_the_scalar_reference_on_every_set_up_fit(set_up, monkeypatch):
    """Weights, error and iteration count of every fit a set-up's stacks
    make are those of the edge-by-edge loop, and of the problem's own stack
    of one, bit for bit."""
    for args, options, fit in recorded_fits(monkeypatch, set_up):
        reference, damping = scalar_fit_lambda(*args, **options)
        assert fit == reference
        assert fit == fit_lambda(*args, **options)
        assert damping == 1.0  # no generated level damps; see the test below


def multigraph_problem(seed):
    """A fit problem with parallel edges.  The fit takes interior targets
    only, so the self-loop (target 0) is dropped and every bridge (target 1)
    doubled."""
    rng = np.random.default_rng(2000 + seed)
    n, edges, lam = random_multigraph(rng)
    keep = [i for i, (u, v) in enumerate(edges) if u != v]
    edges, lam = [edges[i] for i in keep], [lam[i] for i in keep]
    bridges = [i for i, t in enumerate(tree_marginals(n, edges, lam).values) if t == 1]
    edges, lam = edges + [edges[i] for i in bridges], lam + [lam[i] for i in bridges]
    return n, edges, [float(t) for t in tree_marginals(n, edges, lam).values]


@pytest.mark.parametrize("seed", range(20))
def test_fit_equals_the_scalar_reference_on_random_multigraphs(seed):
    n, edges, targets = multigraph_problem(seed)
    fit = fit_lambda(n, edges, targets, tol=1e-10)
    assert fit == scalar_fit_lambda(n, edges, targets, tol=1e-10)[0]


# The error rises once on this triangle with a doubled edge, so every later
# step raises its ratios to the power 1/2.
DAMPED_EDGES = [(0, 1), (0, 2), (0, 1), (1, 2)]
DAMPED_PROBLEM = (3, DAMPED_EDGES, [float(t) for t in tree_marginals(
    3, DAMPED_EDGES, [Fraction(29, 45), Fraction(5, 38), Fraction(77, 64), Fraction(8, 13)]
).values])


def test_fit_equals_the_scalar_reference_through_damped_steps():
    reference, damping = scalar_fit_lambda(*DAMPED_PROBLEM, tol=1e-10)
    assert damping == 0.5
    assert fit_lambda(*DAMPED_PROBLEM, tol=1e-10) == reference


def set_up_problems(monkeypatch, set_up):
    """The (n, edges, targets) of every problem a set-up fits."""
    return [args for args, _, _ in recorded_fits(monkeypatch, set_up)]


def test_mixed_stacks_equal_the_scalar_reference_and_stacks_of_one(monkeypatch):
    """One stack of problems with many vertex counts: the hierarchy corpus,
    the 25- and 39-vertex levels of random_half_integral:26/40, the
    k5_degree:9 face levels, seeded random multigraphs and a damped problem,
    interleaved.  Each problem's weights, error and iteration count are
    those of the scalar loop and of its own stack of one."""
    problems = [DAMPED_PROBLEM]
    for _, spec in HIERARCHY_CORPUS:
        problems += set_up_problems(monkeypatch, lambda spec=spec: prepare_instance(corpus_instance(spec)))
    for size in (26, 40):
        inst = generate_instance("random_half_integral", size)
        problems += set_up_problems(monkeypatch, lambda inst=inst: prepare_instance(inst))
    inst = generate_instance("k5_degree", 9)
    problems += set_up_problems(monkeypatch, lambda: degree_cut_set_up(inst))
    problems += [multigraph_problem(seed) for seed in range(12)] + [DAMPED_PROBLEM]
    problems = [problems[i] for i in np.random.default_rng(4).permutation(len(problems))]
    counts = np.bincount([n for n, _, _ in problems])
    assert np.count_nonzero(counts) > 5 and counts.max() > 10
    fits = fit_lambdas(problems, tol=1e-10)
    damped = 0
    for (n, edges, targets), fit in zip(problems, fits):
        reference, damping = scalar_fit_lambda(n, edges, targets, tol=1e-10)
        assert fit == reference == fit_lambda(n, edges, targets, tol=1e-10)
        damped += damping != 1.0
    assert damped >= 2


STALLING_PROBLEM = (
    4, K4_EDGES,
    [Fraction(3, 4), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)],
)


def test_a_stalled_stack_names_its_first_stalled_problem(monkeypatch):
    """Problems that converge leave the stack; the error names the first
    stalled problem in stack order, not in vertex-count order, and carries
    that problem's last error."""
    converging = (4, K4_EDGES, [Fraction(1, 2)] * 6)
    monkeypatch.setattr(hitsp.maxent, "FIT_ITERATION_CAP", 2)
    with pytest.raises(FitConvergenceError, match="3-vertex, 4-edge level .* after 2 iterations") as info:
        fit_lambdas([converging, DAMPED_PROBLEM, STALLING_PROBLEM, converging])
    with pytest.raises(FitConvergenceError) as reference:
        scalar_fit_lambda(*DAMPED_PROBLEM, max_iterations=2)
    assert info.value.error == reference.value.error
    with pytest.raises(FitConvergenceError, match="4-vertex, 6-edge level .* after 2 iterations"):
        fit_lambdas([converging, STALLING_PROBLEM, DAMPED_PROBLEM])
    monkeypatch.setattr(hitsp.maxent, "FIT_ITERATION_CAP", 1)
    assert fit_lambdas([converging, converging]) == [fit_lambda(*converging)] * 2


def test_the_iteration_cap_is_read_at_each_call(monkeypatch):
    """``FIT_ITERATION_CAP`` bounds every fit as it stands at the call; a
    fit stall is a resource cap."""
    monkeypatch.setattr(hitsp.maxent, "FIT_ITERATION_CAP", 1)
    with pytest.raises(ResourceCapError, match="after 1 iterations"):
        fit_lambda(*STALLING_PROBLEM)
    monkeypatch.setattr(hitsp.maxent, "FIT_ITERATION_CAP", 100)
    assert fit_lambda(*STALLING_PROBLEM) == scalar_fit_lambda(*STALLING_PROBLEM)[0]


def test_sampled_trees_are_spanning_trees():
    rng = np.random.default_rng(0)
    lam = [1.0] * 6
    for _ in range(50):
        tree = sample_tree(4, K4_EDGES, lam, rng)
        assert len(tree) == 3
        seen = set()
        for e in tree:
            seen.update(K4_EDGES[e])
        assert seen == {0, 1, 2, 3}


def test_sampler_frequency_matches_weights():
    edges = [(0, 1), (0, 1), (1, 2)]
    lam = [3.0, 1.0, 1.0]
    rng = np.random.default_rng(42)
    hits = 0
    n_samples = 4000
    for _ in range(n_samples):
        tree = sample_tree(3, edges, lam, rng)
        if 0 in tree:
            hits += 1
    # first parallel copy carries 3/4 of the weight
    assert abs(hits / n_samples - 0.75) < 0.03


# A degree-cut style level: 5/12 at vertex 0, 1/3 elsewhere, with a parallel
# pair, so the fit moves every weight off 1.
def fit_one_level(n, edges, edge_ids, targets, tol):
    """``fit_levels`` on a stack of one problem."""
    return fit_levels([LevelProblem(n, tuple(edges), tuple(edge_ids), tuple(targets))], tol)[0]


WALK_EDGES = [(u, v) for u, v in combinations(range(5), 2)] + [(2, 1)]
WALK_TARGETS = [Fraction(5, 12) if 0 in e else Fraction(1, 3) for e in WALK_EDGES]
WALK_TREES = [
    (0, 5, 6, 8), (1, 3, 7, 10), (3, 4, 5, 6), (0, 3, 5, 7), (0, 7, 8, 10),
    (3, 4, 5, 8), (2, 5, 6, 8), (0, 5, 6, 10), (2, 5, 9, 10), (0, 4, 6, 7),
    (3, 8, 9, 10), (0, 2, 4, 8), (1, 2, 5, 8), (2, 5, 8, 10), (3, 6, 7, 9),
    (0, 6, 7, 8), (0, 4, 6, 7), (2, 3, 4, 6), (0, 2, 6, 7), (0, 5, 8, 9),
]


def test_level_walk_is_pinned_draw_for_draw():
    """The first 20 trees from seed 2026, and the generator's next uniform,
    as the per-call sampler drew them before levels kept their walk tables."""
    ids = [100 + i for i in range(len(WALK_EDGES))]
    level = fit_one_level(5, WALK_EDGES, ids, WALK_TARGETS, tol=1e-10)
    assert len(set(level.lam_float)) > 2 and level.lam_exact[0] == 1
    rng = np.random.default_rng(2026)
    assert [tuple(level.sample(rng)) for _ in range(20)] == [
        tuple(ids[i] for i in tree) for tree in WALK_TREES
    ]
    assert rng.random() == 0.5582973969485474
    rng = np.random.default_rng(2026)
    assert [sample_tree(5, WALK_EDGES, level.lam_float, rng) for _ in range(20)] == WALK_TREES
    assert rng.random() == 0.5582973969485474


def scalar_walk(level, rng):
    """The former sampler, kept as the reference for the block walk:
    Wilson's loop-erased walks rooted at vertex 0, one scalar
    ``rng.random()`` per step.  Returns the tree's edge ids, ascending."""
    n, edges, lam = level.vertex_count, level.level_edges, level.lam_float
    incident = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        if u != v and float(lam[idx]) > 0:
            incident[u].append((v, idx))
            incident[v].append((u, idx))
    buckets = [np.cumsum([float(lam[i]) for _, i in pairs]).tolist() for pairs in incident]
    in_tree = [False] * n
    in_tree[0] = True
    next_hop = [None] * n
    tree = []
    for start in range(1, n):
        u = start
        while not in_tree[u]:
            cum = buckets[u]
            r = rng.random() * cum[-1]
            choice = min(bisect_right(cum, r), len(cum) - 1)
            v, idx = incident[u][choice]
            next_hop[u] = (idx, v)
            u = v
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            idx, v = next_hop[u]
            tree.append(idx)
            u = v
    return sorted(level.edge_ids[i] for i in tree)


def random_walk_level(seed):
    """A weighted multigraph level on 2..30 vertices: a positive spanning
    tree, then extra edges that include loops, parallel copies and zero
    weights, under shuffled edge ids."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    edges = [(int(rng.integers(v)), v) for v in range(1, n)]
    lam = rng.uniform(0.05, 3.0, size=n - 1).tolist()
    for _ in range(int(rng.integers(0, 3 * n))):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        copies = int(rng.integers(1, 3))
        edges += [(u, v)] * copies
        lam += [0.0 if rng.random() < 0.15 else float(rng.uniform(0.05, 3.0)) for _ in range(copies)]
    ids = (1000 + rng.permutation(len(edges))).tolist()
    return TreeLevel(n, tuple(edges), tuple(ids), tuple(lam), tuple(_rationalized(lam)))


def stream_identity_levels():
    yield from (random_walk_level(seed) for seed in range(120))
    yield prepare_instance(generate_instance("random_half_integral", 26)).plan.degree_levels[0]
    for family, size in [("k5_degree", 9), ("random_half_integral", 18)]:
        inst = generate_instance(family, size)
        for _, matching in decompose_matching(inst).weights:
            yield from build_matching_context(inst, matching).connector.runs


def test_block_walk_is_stream_identical_to_the_scalar_walk():
    """Same trees and the same generator state as one ``rng.random()`` per
    step, also when PCG64's 32-bit half is buffered."""
    for case, level in enumerate(stream_identity_levels()):
        rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
        if case % 2:
            rng.integers(0, 2, size=2 * (case % 5) + 1)
            ref_rng.integers(0, 2, size=2 * (case % 5) + 1)
            assert rng.bit_generator.state["has_uint32"] == 1
        for _ in range(10):
            assert level.sample(rng) == scalar_walk(level, ref_rng), case
            assert rng.bit_generator.state == ref_rng.bit_generator.state, case


def test_level_builds_one_kernel_and_pickles_without_it():
    level = fit_one_level(5, WALK_EDGES, range(len(WALK_EDGES)), WALK_TARGETS, tol=1e-10)
    assert level.kernel() is level.kernel()
    copy = pickle.loads(pickle.dumps(level))
    assert copy == level and copy._kernel is None
    assert copy.kernel().marginals() == level.kernel().marginals()


def test_fit_level_keeps_unit_weights_that_hit_the_targets():
    level = fit_one_level(4, K4_EDGES, range(6), [Fraction(1, 2)] * 6, tol=1e-12)
    assert level.lam_float == (1.0,) * 6 and level.lam_exact == (1,) * 6
    assert level._kernel is None
    assert level == fit_one_level(4, K4_EDGES, range(6), [Fraction(1, 2)] * 6, tol=1e-12)


def unit_check_fit_level(n, edges, edge_ids, targets, tol):
    """The former ``fit_level``, kept as the reference: the unit-weight
    level when its kernel's exact marginals equal the targets, else the
    fit."""
    edges = tuple(edges)
    unit = TreeLevel(n, edges, tuple(edge_ids), (1.0,) * len(edges), (Fraction(1),) * len(edges))
    if unit.kernel().marginals() == tuple(targets):
        return unit
    fit = fit_lambda(n, list(edges), [float(t) for t in targets], tol=tol)
    return TreeLevel(n, edges, tuple(edge_ids), fit.values, tuple(_rationalized(fit.values)))


def recorded_levels(monkeypatch, set_up):
    """The problem and level of every ``fit_levels`` stack ``set_up`` fits,
    and the cut-free levels it returns."""
    calls = []

    def record(problems, tol):
        levels = fit_levels(problems, tol)
        calls.extend((problem, tol, level) for problem, level in zip(problems, levels))
        return levels

    monkeypatch.setattr(hitsp.ojoin, "fit_levels", record)
    monkeypatch.setattr(hitsp.degreecut, "fit_levels", record)
    return calls, set_up()


def hierarchy_levels(inst):
    return prepare_instance(inst).plan.degree_levels


LEVEL_SET_UPS = (
    [(label, lambda spec=spec: hierarchy_levels(corpus_instance(spec))) for label, spec in HIERARCHY_CORPUS]
    + [(f"random_half_integral:{size}",
        lambda size=size: hierarchy_levels(generate_instance("random_half_integral", size)))
       for size in (26, 40)]
    + [(f"{family}:{size}", lambda family=family, size=size: degree_cut_set_up(generate_instance(family, size)))
       for family, sizes in (("k5_degree", range(5, 10)), ("random_half_integral", (12, 18)))
       for size in sizes]
)


@pytest.mark.parametrize("set_up", [s for _, s in LEVEL_SET_UPS], ids=[label for label, _ in LEVEL_SET_UPS])
def test_fit_level_equals_the_unit_check_reference(set_up, monkeypatch):
    """Every cut-free level a set-up fits equals the former unit-check
    route's level, weights and rationalized weights alike."""
    calls, levels = recorded_levels(monkeypatch, set_up)
    assert [level for *_, level in calls] == list(levels)
    for problem, tol, level in calls:
        assert level == unit_check_fit_level(*problem, tol=tol)


def counted_kernels(monkeypatch):
    """A list that grows by one for every ``TreeKernel`` built."""
    built = []

    class Counted(TreeKernel):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(hitsp.maxent, "TreeKernel", Counted)
    return built


def test_prepare_instance_builds_one_kernel_per_cut_free_level(monkeypatch):
    """``random_half_integral:26`` has one cut-free level, asked once for
    its even-at-last table."""
    built = counted_kernels(monkeypatch)
    prepared = prepare_instance(generate_instance("random_half_integral", 26))
    assert len(prepared.plan.degree_levels) == 1
    assert len(built) == 1


def test_joint_distribution_matches_enumeration():
    lam = [Fraction(i + 1) for i in range(6)]
    joint = kernel_joint(TreeKernel(4, K4_EDGES, lam), (0, 3, 5))
    trees = enumerate_spanning_trees(4, K4_EDGES)
    total = sum(lam[a] * lam[b] * lam[c] for a, b, c in trees)
    law: dict[tuple[int, ...], Fraction] = {}
    for tree in trees:
        w = lam[tree[0]] * lam[tree[1]] * lam[tree[2]]
        pattern = tuple(1 if e in tree else 0 for e in (0, 3, 5))
        law[pattern] = law.get(pattern, Fraction(0)) + w / total
    assert joint == law
    assert joint_marginal(joint, 0) == tree_marginals(4, K4_EDGES, lam).values[0]


def test_parity_laws_match_enumeration():
    lam = [Fraction(i + 1) for i in range(6)]
    trees = enumerate_spanning_trees(4, K4_EDGES)
    total = sum(lam[a] * lam[b] * lam[c] for a, b, c in trees)
    focus_a, focus_b = (0, 1), (3, 4, 5)
    even_a = sum(
        lam[t[0]] * lam[t[1]] * lam[t[2]]
        for t in trees
        if len(set(t) & set(focus_a)) % 2 == 0
    ) / total
    kernel = TreeKernel(4, K4_EDGES, lam)
    assert (1 + kernel.sign_expectations([focus_a])[0]) / 2 == even_a
    weighted = [(set(t), lam[t[0]] * lam[t[1]] * lam[t[2]]) for t in trees]
    assert_characters_match(kernel, weighted, focus_a, focus_b)


def assert_characters_match(kernel, trees, focus_a, focus_b):
    """The kernel's characters on A, B and A ^ B equal the signed tree sums,
    and their inverse Walsh-Hadamard transform gives the law of the two
    parities, P[both even] at pattern 0."""
    total = sum(w for _, w in trees)
    set_a, set_b = set(focus_a), set(focus_b)
    for flips in (set_a, set_b, set_a ^ set_b):
        brute = sum(-w if len(t & flips) % 2 else w for t, w in trees) / total
        assert kernel.sign_expectations([flips])[0] == brute
    parities = [0] * 4
    for t, w in trees:
        parities[len(t & set_a) % 2 + 2 * (len(t & set_b) % 2)] += w
    [(law, den)] = parity_laws(kernel.sign_expectations, [(frozenset(set_a), frozenset(set_b))])
    assert [Fraction(x, den) for x in law] == [w / total for w in parities]


def random_multigraph(rng):
    """A connected multigraph on 3-6 vertices with a parallel edge, a self-loop
    and random Fraction weights in [1/9, 9]."""
    n = int(rng.integers(3, 7))
    edges = [(int(rng.integers(v)), v) for v in range(1, n)]  # a spanning tree
    for _ in range(int(rng.integers(1, n + 2))):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        edges.append((u, v))
    edges.append(edges[int(rng.integers(len(edges)))])
    edges.append((int(rng.integers(n)),) * 2)
    order = rng.permutation(len(edges))
    edges = [edges[i] for i in order]
    lam = [Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10))) for _ in edges]
    return n, edges, lam


def tree_weights(n, edges, lam):
    out = []
    for tree in enumerate_spanning_trees(n, edges):
        w = Fraction(1)
        for e in tree:
            w *= lam[e]
        out.append((set(tree), w))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_kernel_queries_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    n, edges, lam = random_multigraph(rng)
    m = len(edges)
    trees = tree_weights(n, edges, lam)
    total = sum(w for _, w in trees)
    assert total == count_weighted_trees(n, edges, lam)

    kernel = TreeKernel(n, edges, lam)
    marg = tree_marginals(n, edges, lam).values
    assert marg == tuple(sum(w for t, w in trees if e in t) / total for e in range(m))
    assert sum(marg) == n - 1

    focus_a = [int(e) for e in rng.choice(m, size=int(rng.integers(1, 4)), replace=False)]
    focus_b = [int(e) for e in rng.choice(m, size=int(rng.integers(0, 4)), replace=False)]
    even_a = sum(w for t, w in trees if len(t & set(focus_a)) % 2 == 0) / total
    assert (1 + kernel.sign_expectations([focus_a])[0]) / 2 == even_a
    signed = [-w if i in focus_a else w for i, w in enumerate(lam)]
    assert 2 * even_a - 1 == count_weighted_trees(n, edges, signed) / total

    assert_characters_match(kernel, trees, focus_a, focus_b)

    focus = focus_a + [e for e in focus_b if e not in focus_a]
    patterns: dict[tuple[int, ...], Fraction] = {}
    for t, w in trees:
        key = tuple(1 if e in t else 0 for e in focus)
        patterns[key] = patterns.get(key, Fraction(0)) + w / total
    assert kernel_joint(kernel, focus) == patterns


def test_kernel_handles_loops_and_disconnected_graphs():
    # A loop never enters a tree; its marginal is exactly 0.
    kernel = TreeKernel(2, [(0, 0), (0, 1), (1, 1)], [Fraction(5), Fraction(2), Fraction(3)])
    assert kernel.marginals() == (0, 1, 0)
    assert kernel_joint(kernel, [0, 1]) == {(0, 1): 1}
    assert TreeKernel(1, [(0, 0)], [Fraction(1)]).marginals() == (0,)
    for n, edges, lam in [
        (3, [(0, 1), (0, 1)], [Fraction(1), Fraction(1)]),  # vertex 2 is isolated
        (3, [(0, 2), (2, 0)], [Fraction(1), Fraction(2)]),  # vertex 1 is isolated
        (2, [(0, 1)], [Fraction(0)]),  # the only edge has weight 0
    ]:
        with pytest.raises(ValueError, match="no spanning tree"):
            TreeKernel(n, edges, lam)
    with pytest.raises(ValueError, match="non-negative"):
        TreeKernel(2, [(0, 1), (0, 1)], [Fraction(2), Fraction(-1)])


def test_kernel_past_the_prime_table_is_a_resource_cap():
    # The bound on W for one edge of weight 10^60000 has about 199,000 bits;
    # the product of the whole prime table has about 190,000.
    with pytest.raises(ResourceCapError, match="more primes than the table holds"):
        TreeKernel(2, [(0, 1)], [Fraction(10**60000)])


def _psd_inverse(matrix):
    """Exact inverse of a symmetric positive semidefinite matrix, via L D L^T."""
    size = len(matrix)
    zero = Fraction(0)
    rows = [row[:] for row in matrix]
    for c in range(size):
        top = rows[c]
        pivot = top[c]
        if pivot == 0:
            raise ValueError("matrix is singular")
        for r in range(c + 1, size):
            if top[r] != 0:
                factor = top[r] / pivot
                row = rows[r]
                row[r:] = [a - factor * b for a, b in zip(row[r:], top[r:])]
    inverse = [[zero] * size for _ in range(size)]
    for i in reversed(range(size)):
        d = rows[i][i]
        ell = [(k, x / d) for k, x in enumerate(rows[i]) if k > i and x != 0]
        for j in range(i + 1, size):
            inverse[i][j] = inverse[j][i] = -sum((l * inverse[k][j] for k, l in ell), zero)
        inverse[i][i] = 1 / d - sum((l * inverse[k][i] for k, l in ell), zero)
    return inverse


class FractionTreeKernel:
    """The Fraction kernel the residue kernel replaced: one L D L^T inverse
    of the grounded Laplacian, and every query a Fraction determinant."""

    def __init__(self, n, edges, lam):
        self.edges = tuple(edges)
        self.lam = tuple(_rationalized(lam))
        if any(w < 0 for w in self.lam):
            raise ValueError("tree weights must be non-negative")
        zero = Fraction(0)
        lap = [[zero] * n for _ in range(n)]
        for (u, v), w in zip(self.edges, self.lam):
            if u != v:
                lap[u][u] += w
                lap[v][v] += w
                lap[u][v] -= w
                lap[v][u] -= w
        try:
            inverse = _psd_inverse([row[1:] for row in lap[1:]])
        except ValueError:
            raise ValueError("graph has no spanning tree") from None
        self._rows = [[zero] * n] + [[zero] + row for row in inverse]

    def transfer(self, e, f):
        u, v = self.edges[e]
        x, y = self.edges[f]
        pot = [a - b for a, b in zip(self._rows[x], self._rows[y])]
        return self.lam[e] * (pot[u] - pot[v])

    def marginals(self):
        rows = self._rows
        return tuple(
            w * (rows[u][u] - 2 * rows[u][v] + rows[v][v])
            for (u, v), w in zip(self.edges, self.lam)
        )

    def sign_expectation(self, flips):
        order = sorted(set(flips))
        matrix = [
            [int(i == j) - 2 * self.transfer(e, f) for j, f in enumerate(order)]
            for i, e in enumerate(order)
        ]
        return determinant(matrix)

    def joint(self, focus):
        focus = tuple(focus)
        kernel = [[self.transfer(e, f) for f in focus] for e in focus]
        probabilities = {}
        for r in range(len(focus) + 1):
            for inside in combinations(range(len(focus)), r):
                pattern = tuple(1 if i in inside else 0 for i in range(len(focus)))
                matrix = [
                    row if bit else [int(i == j) - x for j, x in enumerate(row)]
                    for i, (row, bit) in enumerate(zip(kernel, pattern))
                ]
                prob = determinant(matrix)
                if prob != 0:
                    probabilities[pattern] = prob
        return probabilities


def assert_matches_fraction_kernel(n, edges, lam, pairs, joints=()):
    """Every query of the residue kernel equals the Fraction kernel's."""
    kernel, reference = TreeKernel(n, edges, lam), FractionTreeKernel(n, edges, lam)
    assert kernel.marginals() == reference.marginals()
    for focus_a, focus_b in pairs:
        for flips in (set(focus_a), set(focus_b), set(focus_a) ^ set(focus_b)):
            assert kernel.sign_expectations([flips])[0] == reference.sign_expectation(flips)
    for focus in joints:
        assert kernel_joint(kernel, focus) == reference.joint(focus)
    return kernel


def test_prime_table_stays_below_two_to_the_31():
    table = list(_prime_table())
    assert len(table) > 1000 and all(q < 2**31 for q in table)
    assert table == sorted(table, reverse=True) and table[0] == 2**31 - 1
    assert all(pow(2, q - 1, q) == 1 and pow(3, q - 1, q) == 1 for q in table[:50])


@pytest.mark.parametrize(
    "spec",
    [label for label, _ in HIERARCHY_CORPUS] + ["random_half_integral:26", "random_half_integral:30"],
)
def test_kernel_matches_fraction_kernel_on_cut_free_levels(spec):
    """The parity queries ``compute_even_at_last_probs`` makes of every
    cut-free level, plus joints over the small boundary sets."""
    if spec.startswith("random_half_integral"):
        inst = generate_instance("random_half_integral", int(spec.partition(":")[2]))
    else:
        inst = corpus_instance(dict(HIERARCHY_CORPUS)[spec])
    prepared = prepare_instance(inst)
    support = prepared.support
    sides = prepared.cut_sides
    for level in prepared.plan.degree_levels:
        position = {e: i for i, e in enumerate(level.edge_ids)}
        pairs = {
            tuple(
                tuple(sorted(position[e] for e in boundary_edges(support, sides[i]) if e in position))
                for i in prepared.hierarchy.last_cuts(edge)
            )
            for edge in range(len(support.edges))
        }
        joints = sorted({a for a, _ in pairs if 0 < len(a) <= 5})[:4]
        assert_matches_fraction_kernel(
            level.vertex_count, level.level_edges, level.lam_exact, sorted(pairs), joints
        )


@pytest.mark.parametrize(
    "family, size",
    [("k5_degree", 5), ("k5_degree", 6), ("k5_degree", 7), ("random_half_integral", 18)],
)
def test_kernel_matches_fraction_kernel_on_degree_cut_contexts(family, size):
    """The endpoint parity and joint queries of every matched edge."""
    inst = generate_instance(family, size)
    for _, matching in decompose_matching(inst).weights:
        context = build_matching_context(inst, matching)
        for level in context.connector.runs:
            position = {e: i for i, e in enumerate(level.edge_ids)}
            pairs, joints = [], []
            for edge in matching:
                ends = inst.edges[edge].u, inst.edges[edge].v
                at = [
                    tuple(pos for e, pos in position.items() if w in (inst.edges[e].u, inst.edges[e].v))
                    for w in ends
                ]
                pairs.append(tuple(at))
                joints.append(tuple(sorted(set(at[0] + at[1]) - {position.get(edge)})))
            assert_matches_fraction_kernel(
                level.vertex_count, level.level_edges, level.lam_exact, pairs, joints
            )


@pytest.mark.parametrize("seed", range(40))
def test_kernel_matches_fraction_kernel_on_random_multigraphs(seed):
    """Loops, parallel edges, zero weights and denominators up to 10^12."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(1, 8))
    edges = [(int(rng.integers(v)), v) for v in range(1, n)]
    edges += [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(int(rng.integers(1, 2 * n + 2)))]
    lam = [
        Fraction(int(rng.integers(1, 10**12)), int(rng.integers(1, 10**12)))
        if rng.random() < 0.8 or u == v
        else Fraction(0)
        for u, v in edges
    ]
    try:
        FractionTreeKernel(n, edges, lam)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            TreeKernel(n, edges, lam)
        return
    m = len(edges)
    pairs = [
        tuple(
            tuple(int(e) for e in rng.choice(m, size=int(rng.integers(0, min(m, 5) + 1)), replace=False))
            for _ in range(2)
        )
        for _ in range(6)
    ]
    joints = [a + tuple(e for e in b if e not in a)[: max(0, 5 - len(a))] for a, b in pairs]
    kernel = assert_matches_fraction_kernel(n, edges, lam, pairs, joints)
    assert sum(kernel.marginals()) == n - 1


def assert_batch_matches(n, edges, lam, flip_sets):
    """One batch equals one query at a time on a fresh kernel, and the
    Fraction kernel."""
    batched = TreeKernel(n, edges, lam).sign_expectations(flip_sets)
    single = TreeKernel(n, edges, lam)
    reference = FractionTreeKernel(n, edges, lam)
    assert batched == [single.sign_expectations([flips])[0] for flips in flip_sets]
    assert batched == [reference.sign_expectation(flips) for flips in flip_sets]
    return batched


def every_flip_set(m):
    """All subsets of range(m) by size, each of the first three twice."""
    sets = [list(c) for r in range(m + 1) for c in combinations(range(m), r)]
    return sets + sets[:3]


def test_batched_signs_equal_single_queries_on_k4():
    """Every size from 0 to 6 in one batch, with duplicates and the empty
    set.  A stack holds at most (4 / k)^2 sets, so the 15 pairs take four
    stacks and each of the 20 triples its own.  Under unit weights every
    marginal is 1/2, so each single edge's character is exactly 0."""
    flip_sets = every_flip_set(6)
    assert sum(len(f) == 2 for f in flip_sets) > 4**2 // 2**2
    signs = assert_batch_matches(4, K4_EDGES, [Fraction(1)] * 6, flip_sets)
    assert signs[0] == 1 and signs[1:7] == [0] * 6
    assert_batch_matches(4, K4_EDGES, [Fraction(i + 1, 7 - i) for i in range(6)], flip_sets)


@pytest.mark.parametrize("seed", range(6))
def test_batched_signs_equal_single_queries_on_random_multigraphs(seed):
    """Loops and parallel edges; sets of mixed sizes in random order."""
    rng = np.random.default_rng(3000 + seed)
    n, edges, lam = random_multigraph(rng)
    m = len(edges)
    flip_sets = [list(rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False)) for _ in range(30)]
    assert_batch_matches(n, edges, lam, [*flip_sets, *flip_sets[:5]])


def test_level_batch_skips_the_kernel_for_sets_missing_the_level():
    level = TreeLevel(4, tuple(K4_EDGES), (10, 11, 12, 13, 14, 15), (1.0,) * 6, (Fraction(1),) * 6)
    assert level.sign_expectations([{1, 2}, {99}]) == [1, 1]
    assert level._kernel is None
    assert level.sign_expectations([{10, 99}, {99}, {10, 11}]) == [0, 1, level.kernel().sign_expectations([[0, 1]])[0]]


def test_kernel_skips_a_prime_dividing_a_denominator():
    first = _prime_table()[0]
    lam = [Fraction(1, first), Fraction(2), Fraction(3), Fraction(first, 7), Fraction(5, 3), Fraction(1)]
    pairs = [((0,), (1, 2)), ((0, 3), (4,)), ((0, 1, 2, 3, 4, 5), ())]
    assert_matches_fraction_kernel(4, K4_EDGES, lam, pairs, [(0, 1, 3), (0, 5)])
    assert_batch_matches(4, K4_EDGES, lam, every_flip_set(6))


def test_kernel_skips_a_prime_where_the_laplacian_is_singular():
    # L = [[first]]: singular modulo the first table prime, not over Q.
    first = _prime_table()[0]
    lam = [Fraction(1), Fraction(first - 1), Fraction(7)]
    kernel = assert_matches_fraction_kernel(
        2, [(0, 1), (1, 0), (1, 1)], lam, [((0,), (1,)), ((0, 1), (0,))], [(0, 1, 2)]
    )
    assert_batch_matches(2, [(0, 1), (1, 0), (1, 1)], lam, every_flip_set(3))
    assert kernel.marginals() == (Fraction(1, first), Fraction(first - 1, first), 0)


def test_kernel_skips_a_prime_dividing_a_leading_block_minor():
    """L has n - 1 = 25 rows, so it splits into blocks of 12 and 13 and
    those into blocks of 6 and 7.  Vertex 1 meets only vertex 0 (weight
    q - 1) and vertex 14 (weight 1), so row 1 of L is (q, 0, ..., 0) inside
    its leading blocks: they are singular modulo the first table prime q,
    while det L is not.  The kernel drops q and still gets every value."""
    q = _prime_table()[0]
    rng = np.random.default_rng(7)
    n, others = 26, [0, *range(2, 26)]
    edges = [(0, 1), (1, 14)] + [(others[int(rng.integers(i))], others[i]) for i in range(1, 25)]
    edges += [tuple(int(v) for v in rng.choice(others, 2, replace=False)) for _ in range(20)]
    lam = [Fraction(q - 1), Fraction(1)]
    lam += [Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10))) for _ in edges[2:]]
    assert all(1 not in edge for edge in edges[2:])
    assert count_weighted_trees(n, edges, lam).numerator % q != 0
    m = len(edges)
    pairs = [((0,), (1,)), ((0, 1, 5), (2, 30))]
    pairs += [tuple(tuple(map(int, rng.choice(m, size=3, replace=False))) for _ in range(2)) for _ in range(4)]
    kernel = assert_matches_fraction_kernel(n, edges, lam, pairs, [(0, 1, 2), (0, 3, 4, 14)])
    assert q not in kernel._p.tolist() and len(kernel._p) > 1
    flip_sets = [list(rng.choice(m, size=int(rng.integers(1, 7)), replace=False)) for _ in range(20)]
    assert_batch_matches(n, edges, lam, flip_sets)


def matmul_laplacian(n, edges, lam_p, p):
    """The kernel's former Laplacian assembly, kept as the reference: the
    grounded incidence matrix times the weights times its transpose."""
    incidence = np.zeros((n, len(edges)), dtype=np.int64)
    for i, (u, v) in enumerate(edges):
        if u != v:
            incidence[u, i], incidence[v, i] = 1, -1
    incidence = incidence[1:]
    return (incidence * lam_p[:, None, :]) @ incidence.T % p[:, None, None]


def seeded_rational_graph(seed):
    """A connected multigraph on 30 vertices with loops, parallel edges, a
    zero weight and denominators up to 10^12."""
    rng = np.random.default_rng(seed)
    n = 30
    edges = [(int(rng.integers(v)), v) for v in range(1, n)]
    edges += [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(60)]
    edges += edges[-5:] + [(7, 7), (0, 0)]
    lam = [Fraction(int(rng.integers(1, 10**12)), int(rng.integers(1, 10**12))) for _ in edges]
    lam[-8] = Fraction(0)
    return n, edges, lam


@pytest.mark.parametrize("source", ["random_half_integral:26", "random_half_integral:40", "seeded"])
def test_scattered_laplacian_equals_the_incidence_product(source):
    """Every prime's Laplacian residues from one bincount equal the int64
    incidence product's, on the fitted cut-free levels and on a seeded
    graph with rational weights; the kernel's inverse inverts them."""
    if source == "seeded":
        graphs = [seeded_rational_graph(2024)]
    else:
        prepared = prepare_instance(generate_instance("random_half_integral", int(source.partition(":")[2])))
        graphs = [(lv.vertex_count, lv.level_edges, lv.lam_exact) for lv in prepared.plan.degree_levels]
    assert graphs
    for n, edges, lam in graphs:
        kernel = TreeKernel(n, edges, lam)
        p = kernel._p
        lap = _laplacian(n, kernel._ends, kernel._lam, p)
        assert (lap == matmul_laplacian(n, kernel.edges, kernel._lam, p)).all()
        for i in (0, len(p) - 1):
            inverse = kernel._inverse[i, 1:, 1:].astype(object)
            product = lap[i].astype(object) @ inverse % int(p[i])
            assert (product == np.eye(n - 1, dtype=np.int64)).all()


@pytest.mark.parametrize("size", [1, 8, 9, 17, 25])
def test_block_inverse_inverts_symmetric_residue_matrices(size):
    """Base case alone (up to 8 rows) and one, two or three levels of 2 x 2
    blocks, with odd splits at 9, 17 and 25.  A zero first entry makes the
    base case swap rows (for size 1, A is singular and det is 0)."""
    rng = np.random.default_rng(size)
    p = np.array(_prime_table()[:2] + _prime_table()[-2:], dtype=np.int64)
    a = rng.integers(0, 2**31, size=(4, size, size)) % p[:, None, None]
    a = (a + a.transpose(0, 2, 1)) % p[:, None, None]
    a[:2, 0, 0] = 0
    inverse, det = _block_inverse(a, p)
    for i, q in enumerate(p.tolist()):
        assert det[i] == determinant(a[i].tolist()) % q
        if det[i]:
            product = a[i].astype(object) @ inverse[i].astype(object) % q
            assert (product == np.eye(size, dtype=np.int64)).all()
    assert det[2:].all() and (det[:2] != 0).all() == (size > 1)


def gauss_jordan_determinants(a, p):
    """The determinants the kernel's queries took before forward
    elimination: division-free Gauss-Jordan elimination with row pivoting of
    each (k, k) residue matrix in the stack ``a``, in place, modulo its prime
    in ``p``, with one ``pow`` per matrix for the scale."""
    k, at = a.shape[1], np.arange(len(a))
    sign, pivots = np.ones(len(a), dtype=np.int64), np.ones(len(a), dtype=np.int64)
    for c in range(k):
        r = c + (a[:, c:, c] != 0).argmax(axis=1)
        if (r != c).any():
            row = a[at, r]
            a[at, r] = a[:, c]
            a[:, c] = row
            sign = np.where(r == c, sign, -sign)
        pivot, factor = a[:, c, c].copy(), a[:, :, c].copy()
        factor[:, c] = 0
        step = factor[:, :, None] * a[:, None, c]
        a *= pivot[:, None, None]
        a -= step
        a %= p[:, None, None]
        pivots = pivots * pivot % p
    det, scale = sign % p, np.ones_like(sign)
    for d in np.diagonal(a, axis1=1, axis2=2).T:
        det, scale = det * d % p, scale * pivots % p
    inverse = [pow(x, -1, q) if x else 0 for x, q in zip(scale.tolist(), p.tolist())]
    return det * np.array(inverse, dtype=np.int64) % p


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8])
def test_forward_determinants_equal_gauss_jordan(k):
    """Random residues; 0/1 entries, so that pivots vanish and rows swap;
    a zero column; a repeated row and a column that is a multiple of
    another (singular for k >= 2)."""
    rng = np.random.default_rng(k)
    p = np.array(_prime_table()[:2] + _prime_table()[-1:], dtype=np.int64)
    a = rng.integers(0, 2**31, size=(3, 40, k, k)) % p[:, None, None, None]
    a[:, :10] = rng.integers(0, 2, size=(3, 10, k, k))
    if k:
        a[:, 10:15, :, int(rng.integers(k))] = 0
        a[:, 15:20, -1] = a[:, 15:20, 0]
        a[:, 20:25, :, 0] = a[:, 20:25, :, -1] * 3 % p[:, None, None]
    expected = gauss_jordan_determinants(a.reshape(120, k, k).copy(), np.repeat(p, 40)).reshape(3, 40)
    assert (_determinants(a.copy(), p) == expected).all()
    assert (expected[:, 10:15] == 0).all() if k else (expected == 1).all()
    if k > 1:
        assert (expected[:, 15:25] == 0).all()
    for i, q in enumerate(p.tolist()):
        assert [determinant(m.tolist()) % q for m in a[i, ::3]] == expected[i, ::3].tolist()


def test_split_product_is_exact_at_extreme_residues():
    """Every entry p - 1 at the largest inner dimension the product accepts,
    and random residues, against Python ints; one more is a resource cap."""
    p = np.array([_prime_table()[0], _prime_table()[-1]], dtype=np.int64)
    k = 1 << 16
    a = np.ascontiguousarray(np.broadcast_to((p - 1)[:, None, None], (2, 2, k)))
    b = np.ascontiguousarray(a.transpose(0, 2, 1))
    exact = [a[i].astype(object) @ b[i].astype(object) % q for i, q in enumerate(p.tolist())]
    assert (_product(a, b, p) == np.array(exact, dtype=np.int64)).all()
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2**31, size=(2, 5, 300)) % p[:, None, None]
    b = rng.integers(0, 2**31, size=(2, 300, 4)) % p[:, None, None]
    exact = [a[i].astype(object) @ b[i].astype(object) % q for i, q in enumerate(p.tolist())]
    assert (_product(a, b, p) == np.array(exact, dtype=np.int64)).all()
    with pytest.raises(ResourceCapError, match="inner dimension"):
        _product(np.ones((2, 1, k + 1), dtype=np.int64), np.ones((2, k + 1, 1), dtype=np.int64), p)
