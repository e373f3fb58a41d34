"""Exhaustive ground truth for the sampling pipeline, and the bound battery.

The enumeration recomputes pipeline quantities from the sampler's explicit
outcome lists — each independent factor's choices (the fixed edges, doubled
class picks, listed spanning trees) collapsed onto cut-parity and
odd-vertex masks and XOR-convolved, Bernoulli units folded exactly per
state — with no determinant identities or analytic parity laws, so the
fast paths can be compared against these numbers at zero tolerance.

The module is also the one home of the probability-bound battery that
``verify-lemmas`` reports: every bound constant, every ``LemmaCheck`` row
(the enumerated rows, the cut-load and six-edge-floor rows, the sampled
feasibility rows and the degree-cut rows) and the extremal
Bernoulli-configuration search.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import prod

from ._util import ResourceCapError
from .cuts import level_tree_problem
from .degreecut import (
    build_matching_contexts,
    decompose_matching,
    enumerate_maximum_matchings,
    exactly_one_each_probabilities,
    expected_edge_values,
    expected_vertex_values,
    fractional_matching_target,
)
from .instance import HalfIntegralInstance
from .maxent import TreeKernel, TreeLevel
from .ojoin import (
    BASE_VALUE,
    EXACT_COST_LIMIT,
    ConnectorLaw,
    JoinCalculator,
    PreparedInstance,
    run_sample,
    sample_records,
)

# Caps the oracle's work: each listed level's tree count, each convolution
# step's states x collapsed choices, and the fold's parity states x edges.
DEFAULT_OUTCOME_CAP = 10**7

# The battery's bounds, each with its claim; probabilities are over the sampled connector.
# The 1.49776 ratio rests on MAIN_CUT_BOUND, the 1.4671 ratio on DEGREE_VERTEX_BOUND.
MAIN_CUT_BOUND = Fraction(99552, 100000)  # E[y(δ(S))] on a proper minimum cut S
DEGREE_VERTEX_BOUND = Fraction(227, 243)  # E[y(δ(v))] per vertex, degree-cut, even n
DEGREE_VERTEX_SLACK = Fraction(353, 243)  # what odd n adds, over n, to DEGREE_VERTEX_BOUND
NORMAL_EVEN_BOUND = Fraction(16, 81)  # P[one tree edge enters each end of a normal edge]
EDGE_HALF = Fraction(1, 2)  # E[z_e], each degree-cut edge's connector membership
K5_MATCHINGS = Fraction(15)  # K5's maximum matchings, all listed
K5_WEIGHT = Fraction(1, 15)  # the largest of 15 weights summing to 1 is 1/15 iff all are
K5_MARGINAL = Fraction(1, 5)  # the smallest of K5's 10 marginals (sum 2) is 1/5 iff all are
CUT_EVEN_BOUND = Fraction(13, 27)  # P[a tight 4-edge cut is even]
CERTAIN = Fraction(1)  # P[even] of a cut that is no edge's last cut, and of a ring edge
BOTTOM_EDGE_BOUND = Fraction(1, 4)  # P[even at last], an edge inside a chain node
TOP_CUT_BOUND = Fraction(4, 27)  # Σ P[even at last] round a cut-free child with no outward edge
TOP_TRIPLE_BOUND = Fraction(1, 27)  # the same sum over its worst three boundary edges
TOP_PAIR_BOUND = Fraction(7, 32)  # the same over the worst two inward edges, one outward edge
EXACTLY_ONE_BOUND = Fraction(1, 2)  # P[the tree holds exactly one of that child's 3 inward edges]
EXACTLY_TWO_BOUND = Fraction(3, 8)  # P[the tree holds exactly two of them]
K5_LEVEL_EDGE_BOUND = Fraction(1, 4)  # P[even at last], an edge of a K5-shaped cut-free level
TOP_EDGE_BOUND = Fraction(13, 54)  # P[even at last], a level edge whose end cuts split 1-0 outward
WINDOW_BOUND = Fraction(1, 4)  # P[each end window of a chain node holds one tree edge]
SIX_EDGE_FLOOR = Fraction(1)  # 6·(base value − τ): a reduced edge keeps at least 1/6
EDGE_FLOOR = Fraction(1, 6)  # the smallest entry of every sampled correction vector
NO_FAILURES = Fraction(0)  # sampled vectors that miss an odd cut (run --check-vectors)


def degree_vertex_bound(n: int) -> Fraction:
    """The bound on a degree-cut instance's expected per-vertex load."""
    return DEGREE_VERTEX_BOUND + (DEGREE_VERTEX_SLACK / n if n % 2 == 1 else 0)


def enumerate_spanning_trees(
    n: int, edges: Sequence[tuple[int, int]], cap: int = DEFAULT_OUTCOME_CAP
) -> list[tuple[int, ...]]:
    """All spanning trees as sorted edge-index tuples (backtracking search).

    Raises ResourceCapError when the count would exceed ``cap``.
    """
    m = len(edges)
    out: list[tuple[int, ...]] = []

    def extend(start: int, chosen: list[int], parent: list[int], count: int) -> None:
        if count == n - 1:
            out.append(tuple(chosen))
            if len(out) > cap:
                raise ResourceCapError(f"spanning tree count exceeds cap {cap}")
            return
        if m - start < (n - 1) - count:
            return
        for idx in range(start, m):
            u, v = edges[idx]

            def find(a: int) -> int:
                while parent[a] != a:
                    a = parent[a]
                return a

            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            snapshot = parent[:]
            parent[ru] = rv
            chosen.append(idx)
            extend(idx + 1, chosen, parent, count + 1)
            chosen.pop()
            parent[:] = snapshot

    extend(0, [], list(range(n)), 0)
    return out


# One independent sampling factor: its explicit (edge set, probability) choices.
Factor = tuple[tuple[tuple[int, ...], Fraction], ...]


def level_outcome_table(law: ConnectorLaw) -> tuple[Factor, ...]:
    """Flatten a connector law into independent factors, in its draw order.

    The fixed edges are one certain choice and each doubled class one
    uniform pick.  Each cut-free level lists its spanning trees, each with
    probability proportional to the product of the level's exact weights
    ``lam_exact``; a level whose tree weights sum to 0 raises ValueError.
    The sampled connector is the union of one choice per factor.  A level
    with more than ``DEFAULT_OUTCOME_CAP`` trees, counted first by the
    Matrix-Tree theorem, raises ResourceCapError before any is listed.
    """
    out: list[Factor] = [((law.fixed, Fraction(1)),)]
    for run in law.runs:
        if not isinstance(run, TreeLevel):
            out.extend(tuple(((e,), Fraction(1, 2)) for e in cls) for cls in run)
            continue
        unit = (Fraction(1),) * len(run.level_edges)
        if TreeKernel(run.vertex_count, run.level_edges, unit).weight > DEFAULT_OUTCOME_CAP:
            raise ResourceCapError(f"spanning tree count exceeds cap {DEFAULT_OUTCOME_CAP}")
        trees = enumerate_spanning_trees(run.vertex_count, run.level_edges)
        weights = [prod((run.lam_exact[i] for i in t), start=Fraction(1)) for t in trees]
        total = sum(weights, Fraction(0))
        if total == 0:
            raise ValueError("cut-free level has no spanning tree of positive weight")
        out.append(tuple(
            (tuple(sorted(run.edge_ids[i] for i in t)), w / total)
            for t, w in zip(trees, weights)
        ))
    return tuple(out)


def subset_joint_distribution(
    levels: tuple[Factor, ...], edge_ids: tuple[int, ...]
) -> dict[tuple[int, ...], Fraction]:
    """Exact joint membership law of a few edges, by per-factor convolution.

    Focus edge ``pos`` carries state bit ``pos`` and every other edge none;
    factors share no edge, so the XOR of the chosen masks is their union.
    """
    edge_state = defaultdict(int, {e: 1 << pos for pos, e in enumerate(edge_ids)})
    law = _state_law(levels, edge_state, DEFAULT_OUTCOME_CAP)
    return {
        tuple((mask >> pos) & 1 for pos in range(len(edge_ids))): w
        for mask, w in law.items()
    }


def subset_count_distribution(
    levels: tuple[Factor, ...], edge_ids: tuple[int, ...]
) -> dict[int, Fraction]:
    """Exact law of how many of the given edges the sampled tree contains."""
    joint = subset_joint_distribution(levels, edge_ids)
    out: dict[int, Fraction] = {}
    for pattern, w in joint.items():
        c = sum(pattern)
        out[c] = out.get(c, Fraction(0)) + w
    return out


@dataclass(frozen=True)
class PipelineExpectations:
    """Exact enumeration results for one prepared instance, with the factor
    table and the per-edge truncations they were computed from."""

    levels: tuple[Factor, ...]
    truncation: tuple[Fraction, ...]
    tree_outcomes: int
    unit_count: int
    per_edge_marginal: tuple[Fraction, ...]
    per_edge_even: tuple[Fraction, ...]
    per_edge_value: tuple[Fraction, ...]
    cut_even: dict[frozenset, Fraction]
    cut_load: dict[frozenset, Fraction]
    expected_tree_cost: Fraction
    expected_join_cost: Fraction | None


def _state_law(
    levels: tuple[Factor, ...], edge_state: Sequence[int] | Mapping[int, int], cap: int
) -> dict[int, Fraction]:
    """Law of the XOR of the chosen edges' state masks over all factors.

    Each factor's choices are collapsed onto their masks first.  XOR equals
    the parity of the union only because no edge belongs to two factors.
    Raises ResourceCapError when a step would pair more than ``cap`` states
    with choices.
    """
    owner: dict[int, int] = {}
    law = {0: Fraction(1)}
    for idx, factor in enumerate(levels):
        collapsed: dict[int, Fraction] = {}
        for chosen, p in factor:
            mask = 0
            for e in chosen:
                if owner.setdefault(e, idx) != idx:
                    raise ValueError(f"edge {e} appears in two sampling factors")
                mask ^= edge_state[e]
            collapsed[mask] = collapsed.get(mask, Fraction(0)) + p
        if len(law) * len(collapsed) > cap:
            raise ResourceCapError(
                f"convolution step {len(law)} states * {len(collapsed)} choices exceeds cap {cap}"
            )
        nxt: dict[int, Fraction] = {}
        for state, w in law.items():
            for mask, p in collapsed.items():
                key = state ^ mask
                nxt[key] = nxt.get(key, Fraction(0)) + w * p
        law = nxt
    return law


def exact_pipeline_expectations(
    prepared: PreparedInstance, cap: int = DEFAULT_OUTCOME_CAP
) -> PipelineExpectations:
    """Average the construction over the sampler's outcome space, exactly.

    The factors of ``level_outcome_table`` are independent and share no
    edge, so the connector's cut parities and odd vertex set are the XOR of
    one choice's masks per factor.  The oracle XOR-convolves the factors'
    choice tuples into the law of (cut-parity mask, odd-vertex mask), prices
    each distinct odd set's optimal join once, and then does the remaining
    non-linear work once per distinct cut-parity mask: even-at-last masks
    and the exact fold of the Bernoulli units (independent of the tree).
    Marginals and the tree cost are linear, so they come from per-factor
    sums.  The join cost is None when some odd set exceeds the exact
    matching range (``EXACT_COST_LIMIT`` vertices).  ResourceCapError is
    raised when a convolution step or the fold exceeds ``cap``.
    """
    plan = prepared.plan
    support = prepared.support
    hierarchy = prepared.hierarchy
    params = prepared.params
    tau = params.reduction
    m = len(support.edges)

    levels = level_outcome_table(plan.connector)
    tree_total = prod(map(len, levels))
    units = plan.unit_keys

    cut_list = prepared.cut_sides
    cut_bound = prepared.boundaries
    # Bit i of a state is the parity of cut i, bit shift + v the degree
    # parity of vertex v.
    shift = len(cut_list)
    edge_state = [0] * m
    for i, bound in enumerate(cut_bound):
        for f in bound:
            edge_state[f] ^= 1 << i
    for e in range(m):
        u, v = support.endpoints(e)
        edge_state[e] ^= ((1 << u) ^ (1 << v)) << shift
    last_mask = [(1 << a) | (1 << b) for a, b in hierarchy.edge_last_cuts]

    marginal = [Fraction(0)] * m
    for factor in levels:
        for chosen, p in factor:
            for e in chosen:
                marginal[e] += p
    tree_cost_total = sum(
        (
            prepared.instance.edges[support.edges[e].instance_edge].cost * marginal[e]
            for e in range(m)
        ),
        Fraction(0),
    )

    joins = JoinCalculator(prepared.metric)
    parity_bits = (1 << shift) - 1
    parity_law: dict[int, Fraction] = {}
    join_total: Fraction | None = Fraction(0)
    for state, weight in _state_law(levels, edge_state, cap).items():
        parity = state & parity_bits
        parity_law[parity] = parity_law.get(parity, Fraction(0)) + weight
        odd = state >> shift
        if odd.bit_count() > EXACT_COST_LIMIT:
            join_total = None
        if join_total is not None:
            join_total += weight * joins.exact_cost(odd)
    if len(parity_law) * m > cap:
        raise ResourceCapError(
            f"fold over {len(parity_law)} parity states * {m} edges exceeds cap {cap}"
        )

    even_weight = [Fraction(0)] * len(cut_list)
    eal_weight = [Fraction(0)] * m
    eal_masks = {}
    for parity_mask, weight in parity_law.items():
        for i in range(len(cut_list)):
            if not (parity_mask >> i) & 1:
                even_weight[i] += weight
        eal_mask = 0
        for e in range(m):
            if not parity_mask & last_mask[e]:
                eal_mask |= 1 << e
                eal_weight[e] += weight
        eal_masks[parity_mask] = eal_mask

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
    for idx, members in hierarchy.charge_groups().items():
        denom = sum((trunc[f] for f in members), Fraction(0))
        if denom > 0:
            share[idx] = {f: trunc[f] / denom for f in members}
        else:
            share[idx] = {f: Fraction(0) for f in members}

    unit_theta: dict[int, Fraction] = {}
    for e in range(m):
        key = prepared.unit_of[e]
        if key in unit_theta and unit_theta[key] != theta[e]:
            raise ValueError(f"edges sharing unit {units[key]} disagree on threshold")
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
    for parity_mask, weight in parity_law.items():
        eal_mask = eal_masks[parity_mask]
        # A cut's shortfall counts the reduced edges across its whole
        # boundary, ring edges included.
        cut_items: dict[int, tuple[tuple[int, int], ...]] = {}
        for e in range(m):
            if e in final_set:
                continue
            parts = []
            for idx in hierarchy.last_cuts(e):
                my_share = share[idx][e]
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


@dataclass(frozen=True)
class LemmaCheck:
    """One verified probability bound: value `relation` bound on `subject`.

    The verdict is derived from the row's own numbers, so a row can never
    print a relation that its value and bound contradict.
    """

    name: str
    subject: str
    value: Fraction
    bound: Fraction
    relation: str

    def __post_init__(self) -> None:
        if self.relation not in ("<=", ">=", "=="):
            raise ValueError(f"unknown relation {self.relation!r}")

    @property
    def passed(self) -> bool:
        if self.relation == "<=":
            return self.value <= self.bound
        if self.relation == ">=":
            return self.value >= self.bound
        return self.value == self.bound


def run_lemma_battery(
    prepared: PreparedInstance, expectations: PipelineExpectations
) -> tuple[LemmaCheck, ...]:
    """Every verified probability bound on one instance, from enumeration."""
    hierarchy = prepared.hierarchy
    params = prepared.params
    p = expectations.per_edge_even
    trunc = expectations.truncation
    levels = expectations.levels
    checks: list[LemmaCheck] = []

    # Parity floor on every 4-edge tight cut.
    for side, even in expectations.cut_even.items():
        label = f"cut {sorted(side)}"
        checks.append(LemmaCheck("cut-even-13-27", label, even, CUT_EVEN_BOUND, ">="))

    # Cuts that are nobody's last cut never go odd.
    last = {i for pair in hierarchy.edge_last_cuts for i in pair}
    for i, cut in enumerate(hierarchy.min_cuts):
        if i not in last:
            label = f"cut {sorted(cut.vertices)}"
            even = expectations.cut_even[cut.vertices]
            checks.append(LemmaCheck("spectator-cut-even", label, even, CERTAIN, "=="))

    # Ring-level edges are always even at last.
    for e in hierarchy.final_edges():
        checks.append(LemmaCheck("ring-edge-even", f"edge {e}", p[e], CERTAIN, "=="))

    # Edges inside chain-structured nodes clear 1/4.
    for e in hierarchy.bottom_edges():
        checks.append(LemmaCheck("bottom-edge-1-4", f"edge {e}", p[e], BOTTOM_EDGE_BOUND, ">="))

    # A degree node's child has at most one rising edge (build_hierarchy
    # refuses more); its other boundary edges lie in the node's level.
    for node in hierarchy.degree_nodes():
        k, level_edges, _ = level_tree_problem(hierarchy, node.id)
        children = [hierarchy.nodes[c] for c in node.children]
        k5_shape = (
            k == 4
            and len(level_edges) == 6
            and len({frozenset((a, b)) for a, b, _ in level_edges}) == 6
            and all(child.up_edges for child in children)
        )
        for child in children:
            boundary, inward = child.boundary, child.across_edges
            label = f"node {node.id} child {child.id}"
            if not child.up_edges:
                total = sum((p[f] for f in boundary), Fraction(0))
                checks.append(LemmaCheck("top-cut-4-27", label, total, TOP_CUT_BOUND, ">="))
                worst = min(
                    sum((p[f] for f in w), Fraction(0))
                    for w in combinations(boundary, 3)
                )
                checks.append(
                    LemmaCheck("top-cut-triple-1-27", label, worst, TOP_TRIPLE_BOUND, ">=")
                )
            else:
                worst_pair = min(
                    sum((p[f] for f in w), Fraction(0))
                    for w in combinations(inward, 2)
                )
                checks.append(LemmaCheck("top-pair-7-32", label, worst_pair, TOP_PAIR_BOUND, ">="))
                gain = sum((trunc[f] for f in boundary), Fraction(0))
                checks.append(
                    LemmaCheck("top-cut-min-gain", label, gain, 2 * params.top_truncation, ">=")
                )
                # The child must be reached through its level, so its three
                # inward edges always intersect the tree.
                law = subset_count_distribution(levels, inward)
                covered = sum((w for c, w in law.items() if c >= 1), Fraction(0))
                if covered == 1:
                    one, two = law.get(1, Fraction(0)), law.get(2, Fraction(0))
                    checks += [
                        LemmaCheck("three-edge-exactly-one", label, one, EXACTLY_ONE_BOUND, ">="),
                        LemmaCheck("three-edge-exactly-two", label, two, EXACTLY_TWO_BOUND, ">="),
                    ]
        if k5_shape:
            for f in node.internal_edges:
                checks.append(
                    LemmaCheck("k5-level-edge-1-4", f"edge {f}", p[f], K5_LEVEL_EDGE_BOUND, ">=")
                )

    # Level edges whose endpoint cuts (the two children they join) split
    # one-and-zero on outward edges.
    for e in hierarchy.top_edges():
        ends = set(hierarchy.support.endpoints(e))
        up_counts = sorted(
            len(hierarchy.nodes[c].up_edges)
            for c in hierarchy.nodes[hierarchy.edge_level[e][1]].children
            if not ends.isdisjoint(hierarchy.nodes[c].vertices)
        )
        if up_counts == [0, 1]:
            checks.append(LemmaCheck("top-edge-13-54", f"edge {e}", p[e], TOP_EDGE_BOUND, ">="))

    # End-window law for chain-structured nodes: an interior doubled edge is
    # even at last exactly when each end window contributes one tree edge.
    for node in hierarchy.cycle_nodes():
        window_a, window_b = node.end_pairs
        joint = subset_joint_distribution(levels, window_a + window_b)
        hit = sum(
            (
                w
                for pattern, w in joint.items()
                if pattern[0] + pattern[1] == 1 and pattern[2] + pattern[3] == 1
            ),
            Fraction(0),
        )
        label = f"node {node.id}"
        checks.append(LemmaCheck("bottom-window-quarter", label, hit, WINDOW_BOUND, ">="))
        if _matches_window_gadget(joint):
            checks.append(LemmaCheck("bottom-gadget-tight", label, hit, WINDOW_BOUND, "=="))
    return tuple(checks)


def _matches_window_gadget(joint: dict[tuple[int, ...], Fraction]) -> bool:
    """Does the 4-edge window law factor as the tight product form?

    The tight form pairs one edge of each window into a uniform either-or
    choice, with the two remaining edges independent fair coins — i.e. the
    eight patterns containing exactly one of the paired edges all carry
    probability 1/8.
    """
    eighth = Fraction(1, 8)
    return any(
        all(w == (eighth if pattern[a] + pattern[c] == 1 else 0) for pattern, w in joint.items())
        for a in (0, 1)
        for c in (2, 3)
    )


def cut_load_rows(
    prepared: PreparedInstance, expectations: PipelineExpectations
) -> list[LemmaCheck]:
    """Each minimum cut's exact expected load, arc cuts of chain nodes left out."""
    kind_of = {
        cut.vertices: prepared.hierarchy.classify_min_cut(cut)[0]
        for cut in prepared.hierarchy.min_cuts
    }
    loads = expectations.cut_load
    return [
        LemmaCheck("cut-load-main", f"cut {sorted(side)}", loads[side], MAIN_CUT_BOUND, "<=")
        for side in sorted(loads, key=sorted)
        if kind_of[side] != "arc"
    ]


def six_edge_floor_row(prepared: PreparedInstance) -> LemmaCheck:
    """The charging parameters' floor on a reduced edge's base value."""
    floor_total = 6 * (BASE_VALUE - prepared.params.reduction)
    return LemmaCheck("six-edge-floor", "params", floor_total, SIX_EDGE_FLOOR, ">=")


def sampled_feasibility_rows(
    prepared: PreparedInstance, label: str, samples: int, seed: int
) -> list[LemmaCheck]:
    """Sampled end-to-end vectors, checked as ``run --check-vectors`` checks
    them: odd-cut coverage and the 1/6 edge floor.  Each distinct vector is
    checked once."""
    joins = JoinCalculator(prepared.metric)
    records = sample_records(
        lambda rng: run_sample(prepared, rng, joins, check_vector=True),
        seed, range(samples), ("feasible", "min_edge_value"),
    )
    failures = Fraction(sum(1 for feasible, _ in records if not feasible))
    min_edge = min(edge for _, edge in records)
    return [
        LemmaCheck("sampled-vectors-feasible", label, failures, NO_FAILURES, "=="),
        LemmaCheck("edge-floor-1-6", label, min_edge, EDGE_FLOOR, ">="),
    ]


def degree_cut_rows(inst: HalfIntegralInstance) -> list[LemmaCheck]:
    """Every exact bound of the degree-cut pipeline on one instance."""
    name = inst.name
    decomposition = decompose_matching(inst)
    m = len(inst.edges)
    target = fractional_matching_target(inst)
    marginals = decomposition.marginals(m)
    exact = Fraction(sum(1 for i in range(m) if marginals[i] == target[i]))
    z_values = expected_edge_values(inst, decomposition)
    z_first_off = next((v for v in z_values if v != EDGE_HALF), EDGE_HALF)
    expected_tree = sum((inst.edges[i].cost * z_values[i] for i in range(m)), Fraction(0))
    rows = [
        LemmaCheck("matching-marginals-exact", name, exact, Fraction(m), "=="),
        LemmaCheck("z-expected-half", name, z_first_off, EDGE_HALF, "=="),
        LemmaCheck("tree-cost-matches-lp", name, expected_tree, inst.lp_cost(), "=="),
    ]
    contexts = build_matching_contexts(inst, [m for _, m in decomposition.weights])
    normal = [
        value
        for context in contexts.values()
        for value in exactly_one_each_probabilities(inst, context, context.normal_edges)
    ]
    if normal:
        rows.append(LemmaCheck("normal-even-16-81", name, min(normal), NORMAL_EVEN_BOUND, ">="))
    worst = max(expected_vertex_values(inst, decomposition, contexts))
    rows.append(LemmaCheck("vertex-load-degree", name, worst, degree_vertex_bound(inst.n), "<="))
    if inst.n == 5:
        count = Fraction(len(enumerate_maximum_matchings(inst)))
        weights = [w for w, _ in decomposition.weights]
        rows += [
            LemmaCheck("k5-matching-count", name, count, K5_MATCHINGS, "=="),
            LemmaCheck("k5-weights-uniform", name, max(weights), K5_WEIGHT, "=="),
            LemmaCheck("k5-edge-marginal", name, min(marginals), K5_MARGINAL, "=="),
        ]
    return rows


@dataclass(frozen=True)
class BernoulliConfig:
    """Success probabilities of independent Bernoulli variables."""

    probabilities: tuple[Fraction, ...]

    def count_distribution(self) -> dict[int, Fraction]:
        pmf = {0: Fraction(1)}
        for q in self.probabilities:
            nxt: dict[int, Fraction] = {}
            for c, w in pmf.items():
                if q < 1:
                    nxt[c] = nxt.get(c, Fraction(0)) + w * (1 - q)
                if q > 0:
                    nxt[c + 1] = nxt.get(c + 1, Fraction(0)) + w * q
            pmf = nxt
        return pmf


HOEFFDING_FUNCTIONALS = ("parity_even", "p_delta_bound", "p_W_bound")


def evaluate_functional(name: str, config: BernoulliConfig) -> Fraction:
    """The three lower-bounded functionals over a sum of Bernoullis."""
    pmf = config.count_distribution()
    if name == "parity_even":
        return sum((w for c, w in pmf.items() if c % 2 == 0), Fraction(0))
    one = pmf.get(1, Fraction(0))
    three = pmf.get(3, Fraction(0))
    if name == "p_delta_bound":
        return Fraction(52, 27) - 3 * one - 4 * three
    if name == "p_W_bound":
        return Fraction(13, 9) - Fraction(5, 2) * one - 3 * three
    raise ValueError(f"unknown functional {name!r}")


def hoeffding_extremal(
    m: int, q: Fraction, functional: str
) -> tuple[Fraction, BernoulliConfig]:
    """Minimize a functional over m Bernoullis with fixed success mass q.

    The count being modeled is the tree degree of a contracted vertex, which
    is at least 1 with certainty, so admissible configurations have at least
    one probability equal to 1.  Within that domain the minimum is attained
    on the restricted grid where every probability is 0, 1, or one shared
    interior value; this scans that grid exactly and returns the argmin.
    """
    if m > 6:
        raise ValueError("extremal scan supports at most 6 variables")
    q = Fraction(q)
    if not 1 <= q <= m:
        raise ValueError("total success mass must lie in [1, m]")
    best: tuple[Fraction, BernoulliConfig] | None = None
    for ones in range(1, min(m, int(q)) + 1):
        rest = q - ones
        if rest == 0:
            config = BernoulliConfig(
                tuple([Fraction(1)] * ones + [Fraction(0)] * (m - ones))
            )
            value = evaluate_functional(functional, config)
            if best is None or value < best[0]:
                best = (value, config)
            continue
        for k in range(ones + 1, m + 1):
            x = rest / (k - ones)
            if not 0 < x <= 1:
                continue
            config = BernoulliConfig(
                tuple([Fraction(1)] * ones + [x] * (k - ones) + [Fraction(0)] * (m - k))
            )
            value = evaluate_functional(functional, config)
            if best is None or value < best[0]:
                best = (value, config)
    if best is None:
        raise ValueError("no feasible configuration")
    return best
