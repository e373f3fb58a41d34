"""Acceptance gate: every headline guarantee, at its stated tolerance.

One test per criterion; each prints a single [PASS]/[FAIL] line (shown by
``pytest -rA``) and fails loudly when the bound breaks.  The heavy shared
work (exact enumeration over the whole exact-mode corpus) happens once in a
module fixture and its elapsed time is charged to criterion 1.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hitsp.cli import HIERARCHY_CORPUS, corpus_instance, main
from hitsp.degreecut import (
    build_matching_context,
    decompose_matching,
    enumerate_maximum_matchings,
    exactly_one_each_probability,
    expected_edge_values,
    expected_vertex_values,
    fractional_matching_target,
    run_degree_cut,
)
from hitsp.instance import generate_instance
from hitsp.maxent import (
    enumerate_spanning_trees,
    fit_lambda,
    sample_tree,
    tree_marginals,
)
from hitsp.ojoin import JoinCalculator, prepare_instance, run_sample, sample_rng
from hitsp.oracle import (
    HOEFFDING_FUNCTIONALS,
    exact_pipeline_expectations,
    hoeffding_extremal,
    hoeffding_random_minimum,
    k5_parity_census,
    run_lemma_battery,
)

MAIN_CUT_BOUND = Fraction(99552, 100000)
MAIN_RATIO_BOUND = 1.49776
DEGREE_RATIO_BOUND = 1.4671
SIXTEEN_81 = Fraction(16, 81)
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """(label, prepared, oracle expectations) for the whole exact-mode corpus."""
    t0 = time.time()
    out = []
    for label, spec in HIERARCHY_CORPUS:
        prepared = prepare_instance(corpus_instance(spec))
        out.append((label, prepared, exact_pipeline_expectations(prepared)))
    return {"rows": out, "elapsed": time.time() - t0}


def test_criterion_1_per_cut_expected_load(corpus):
    worst = Fraction(0)
    worst_at = ""
    checked = 0
    for label, prepared, exp in corpus["rows"]:
        kind_of = {
            cut.vertices: prepared.hierarchy.classify_min_cut(cut)[0]
            for cut in prepared.hierarchy.min_cuts
        }
        for side, load in exp.cut_load.items():
            if kind_of[side] == "arc":  # cuts living on the final ring
                continue
            checked += 1
            if load > worst:
                worst, worst_at = load, f"{label} cut {sorted(side)}"
    elapsed = corpus["elapsed"]
    ok = worst <= MAIN_CUT_BOUND and elapsed < 300
    report(
        "criterion-1 per-cut expected load",
        ok,
        f"{checked} cuts, worst {float(worst):.6f} at {worst_at} "
        f"<= {float(MAIN_CUT_BOUND)} (exact), enumeration {elapsed:.1f}s < 300s",
    )


def test_criterion_2_tour_ratio_monte_carlo(corpus):
    t0 = time.time()
    samples = 50_000
    worst_label, worst_excess = "", -1.0
    for idx, (label, prepared, _) in enumerate(corpus["rows"]):
        joins = JoinCalculator(prepared.metric)
        lp = float(prepared.instance.lp_cost())
        total = 0.0
        total_sq = 0.0
        for i in range(samples):
            out = run_sample(prepared, sample_rng(20_000 + idx, i), joins,
                             build_vector=False)
            r = float(out.tree_cost + out.join_cost) / lp
            total += r
            total_sq += r * r
        mean = total / samples
        var = max(total_sq / samples - mean * mean, 0.0)
        sigma_mean = math.sqrt(var / samples)
        excess = mean - (MAIN_RATIO_BOUND + 3 * sigma_mean)
        if excess > worst_excess:
            worst_excess, worst_label = excess, f"{label} mean {mean:.5f}"
    elapsed = time.time() - t0
    ok = worst_excess <= 0 and elapsed < 600
    report(
        "criterion-2 combined-cost ratio",
        ok,
        f"{samples} samples x {len(corpus['rows'])} instances, worst case "
        f"{worst_label}, margin {-worst_excess:.5f} below {MAIN_RATIO_BOUND}+3s, "
        f"{elapsed:.0f}s < 600s",
    )


def test_criterion_3_probability_battery(corpus):
    required = {
        "cut-even-13-27",
        "top-cut-4-27",
        "top-cut-triple-1-27",
        "top-pair-7-32",
        "top-edge-13-54",
        "bottom-edge-1-4",
        "k5-level-edge-1-4",
        "bottom-gadget-tight",
    }
    seen: dict[str, int] = {}
    failures = []
    total = 0
    for label, prepared, exp in corpus["rows"]:
        for chk in run_lemma_battery(prepared, exp):
            total += 1
            seen[chk.name] = seen.get(chk.name, 0) + 1
            if not chk.passed:
                failures.append(f"{label}/{chk.name}/{chk.subject}")
    missing = required - set(seen)
    ok = not failures and not missing
    report(
        "criterion-3 probability battery",
        ok,
        f"{total} exact rows, {len(failures)} failures {failures[:3]}, "
        f"required kinds missing: {sorted(missing) if missing else 'none'}",
    )


def test_criterion_4_bernoulli_extremizers():
    pinned = {
        "parity_even": Fraction(13, 27),
        "p_delta_bound": Fraction(4, 27),
        "p_W_bound": Fraction(1, 27),
    }
    want_config = sorted([Fraction(1), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)])
    problems = []
    for functional in HOEFFDING_FUNCTIONALS:
        value, config = hoeffding_extremal(4, Fraction(2), functional)
        if value != pinned[functional]:
            problems.append(f"{functional} scan {value} != {pinned[functional]}")
        if sorted(config.probabilities) != want_config:
            problems.append(f"{functional} argmin {config.probabilities}")
        low = hoeffding_random_minimum(4, Fraction(2), functional,
                                       count=10_000, seed=77)
        if low < pinned[functional]:
            problems.append(f"{functional} random {low} dips below")
    report(
        "criterion-4 extremal Bernoulli bounds",
        not problems,
        "13/27, 4/27, 1/27 at {1,1/3,1/3,1/3} exactly; 10^4 random configs "
        f"per functional never below ({problems if problems else 'clean'})",
    )


def test_criterion_5_k4_census_and_sampler():
    census = k5_parity_census()
    census_ok = census == {(0, 0): 2, (0, 1): 4, (1, 0): 4, (1, 1): 6}
    rng = np.random.default_rng(123)
    n_samples = 100_000
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(n_samples):
        tree = sample_tree(4, K4_EDGES, [1.0] * 6, rng)
        counts[tree] = counts.get(tree, 0) + 1
    all_trees = enumerate_spanning_trees(4, K4_EDGES)
    tv = 0.5 * sum(
        abs(counts.get(t, 0) / n_samples - 1 / 16) for t in all_trees
    )
    ok = census_ok and len(counts) == 16 and tv <= 0.02
    report(
        "criterion-5 uniform-tree census and sampler",
        ok,
        f"census 2/4/4/6 {'ok' if census_ok else 'WRONG'}; "
        f"{len(counts)}/16 trees seen, TV {tv:.4f} <= 0.02 at {n_samples}",
    )


def test_criterion_6_weight_fitting():
    fit = fit_lambda(4, K4_EDGES, [Fraction(1, 2)] * 6)
    marg = tree_marginals(4, K4_EDGES, fit.values)
    marg_err = max(abs(float(m) - 0.5) for m in marg.values)
    lam_err = max(abs(v - 1.0) for v in fit.values)
    wheel_edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
    problems = []
    rng = np.random.default_rng(31)
    for trial in range(20):
        n, edges = ((4, K4_EDGES) if trial % 2 == 0 else (5, wheel_edges))
        lam = [Fraction(float(v)).limit_denominator(2000)
               for v in rng.uniform(0.25, 4.0, size=len(edges))]
        targets = tree_marginals(n, edges, lam).values
        first = fit_lambda(n, edges, targets, tol=1e-10)
        achieved = tree_marginals(n, edges, first.values)
        second = fit_lambda(n, edges, achieved.values, tol=1e-10)
        drift = max(abs(a - b) for a, b in zip(first.values, second.values))
        if drift > 1e-6:
            problems.append(f"trial {trial} drift {drift:.2e}")
    ok = marg_err <= 1e-8 and lam_err <= 1e-6 and not problems
    report(
        "criterion-6 marginal fitting",
        ok,
        f"uniform-target marginal error {marg_err:.2e} <= 1e-8, weight spread "
        f"{lam_err:.2e} <= 1e-6; 20 random refits fixed "
        f"({problems if problems else 'all stable'})",
    )


def test_criterion_7_degree_cut_suite():
    problems = []
    # exact decomposition facts on the all-half complete graph of order 5
    k5 = generate_instance("k5_degree", 5)
    matchings = enumerate_maximum_matchings(k5)
    dec5 = decompose_matching(k5)
    if len(matchings) != 15:
        problems.append(f"matching count {len(matchings)}")
    if sorted(w for w, _ in dec5.weights) != [Fraction(1, 15)] * 15:
        problems.append("weights not uniform 1/15")
    if dec5.marginals(len(k5.edges)) != [Fraction(1, 5)] * len(k5.edges):
        problems.append("marginals not 1/5")
    # connector membership and per-vertex loads, exactly, for orders 5-7
    for n in (5, 6, 7):
        inst = generate_instance("k5_degree", n)
        dec = decompose_matching(inst)
        if expected_edge_values(inst, dec) != [Fraction(1, 2)] * len(inst.edges):
            problems.append(f"n={n} connector membership != 1/2")
        contexts = {m: build_matching_context(inst, m) for _, m in dec.weights}
        bound = Fraction(227, 243)
        if n % 2 == 1:
            bound += Fraction(353, 243) / n
        worst = max(expected_vertex_values(inst, dec, contexts))
        if worst > bound:
            problems.append(f"n={n} vertex load {worst} > {bound}")
        floor = None
        for _, matching in dec.weights:
            ctx = contexts[matching]
            for edge in ctx.normal_edges:
                v = exactly_one_each_probability(inst, ctx, edge)
                floor = v if floor is None else min(floor, v)
        if floor is not None and floor < SIXTEEN_81:
            problems.append(f"n={n} exact normal floor {floor} < 16/81")
    # sampled frequencies and the even-order ratio at scale
    n_samples = 100_000
    rep = run_degree_cut(generate_instance("k5_degree", 6), samples=n_samples,
                         seed=4, check_vectors=True)
    sigma = math.sqrt(float(SIXTEEN_81) * (1 - float(SIXTEEN_81)) / n_samples)
    if rep.normal_even_rate < float(SIXTEEN_81) - 3 * sigma:
        problems.append(f"normal even rate {rep.normal_even_rate:.4f}")
    ratio_sigma = rep.tour_ratio_std / math.sqrt(n_samples)
    if rep.mean_tour_ratio > DEGREE_RATIO_BOUND + 3 * ratio_sigma:
        problems.append(f"even-order ratio {rep.mean_tour_ratio:.4f}")
    if rep.feasible_failures:
        problems.append(f"{rep.feasible_failures} infeasible vectors")
    report(
        "criterion-7 degree-cut suite",
        not problems,
        f"15x1/15 decomposition, membership 1/2 exact, vertex loads bounded, "
        f"normal rate {rep.normal_even_rate:.4f} >= {float(SIXTEEN_81):.4f}-3s, "
        f"ratio {rep.mean_tour_ratio:.4f} <= {DEGREE_RATIO_BOUND}+3s "
        f"({problems if problems else 'clean'})",
    )


def test_criterion_8_every_vector_feasible(corpus):
    per_instance = 400
    checked = 0
    problems = []
    for label, prepared, _ in corpus["rows"]:
        joins = JoinCalculator(prepared.metric)
        floor = prepared.base_value - prepared.params.reduction
        if 6 * floor < 1:
            problems.append("six-edge floor arithmetic broken")
        for i in range(per_instance):
            out = run_sample(prepared, sample_rng(80_000, checked), joins,
                             build_vector=True, check_vector=True)
            checked += 1
            if out.min_edge_value < Fraction(1, 6):
                problems.append(f"{label}#{i} edge below 1/6")
            if not out.feasible:
                problems.append(f"{label}#{i} fails the exact odd-cut check")
    report(
        "criterion-8 vector feasibility",
        not problems,
        f"{checked} sampled vectors, each checked exactly against every odd "
        f"cut, every value >= 1/6, 6-edge floor holds "
        f"({problems[:3] if problems else 'clean'})",
    )


def test_criterion_9_byte_identical_reports(tmp_path):
    problems = []
    pairs = [
        (["run", "--gen", "cycle_chain:3", "--samples", "300", "--seed", "7",
          "--jobs", "2"], "run-jobs2"),
        (["run", "--gen", "envelope:2", "--samples", "120", "--seed", "1",
          "--jobs", "3", "--mode", "float"], "run-jobs3-float"),
        (["verify-lemmas", "--gen", "doubled_triangle"], "verify"),
        (["degreecut", "--gen", "k5_degree:5", "--samples", "150",
          "--seed", "2"], "degreecut"),
    ]
    for argv, label in pairs:
        a = tmp_path / f"{label}-a.json"
        b = tmp_path / f"{label}-b.json"
        if main(argv + ["--out", str(a)]) not in (0,):
            problems.append(f"{label} exit nonzero")
            continue
        main(argv + ["--out", str(b)])
        if a.read_bytes() != b.read_bytes():
            problems.append(f"{label} bytes differ")
    report(
        "criterion-9 deterministic reports",
        not problems,
        f"{len(pairs)} command pairs byte-identical incl. --jobs 2 and 3 "
        f"({problems if problems else 'clean'})",
    )
