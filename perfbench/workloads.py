"""The benchmark's workloads and the instances, commands and loop each runs.

Each workload names hierarchy instances (set up with ``prepare_instance`` and
sampled with ``run_sample``), degree-cut instances (set up with the steps of
``run_degree_cut`` and sampled with ``sample_degree_cut``) and the CLI
invocations to time.  Instance specs are ``family:size`` or a gadget name;
``random_half_integral`` instances always use generator seed 0, so the
workload seed varies the samples drawn, not the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hitsp import degreecut, instance, ojoin
from hitsp.cli import DEGREE_CORPUS, DEGREE_VERTEX_BOUND, DEGREE_VERTEX_SLACK, HIERARCHY_CORPUS

GENERATOR_SEED = 0
# Seed of the CLI commands and of the golden check samples, so that their
# outputs can be compared digest for digest on every run.
REFERENCE_SEED = 0
CHECK_SAMPLES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    hierarchy: tuple[str, ...]
    degree: tuple[str, ...]
    commands: tuple[tuple[str, str], ...]
    samples: int  # --samples of every run and degreecut command
    # Set-ups per run; setup_s is their median.  random-large takes two, as
    # each of its set-ups costs about 10 s on a 2-core machine.
    setup_reps: int = 3


CHAINS = ("envelope:5", "cycle_chain:18", "envelope:10")
VERIFY_HIERARCHY = tuple(
    label for label, _ in HIERARCHY_CORPUS if label != "envelope:5"
) + ("cycle_chain:10",)
VERIFY_DEGREE = tuple(label for label, _ in DEGREE_CORPUS)
LARGE = ("random_half_integral:26",)
DEGREE = ("random_half_integral:18", "k5_degree:9")

# README.md gives why each workload runs these instances and commands.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sample-chains",
            CHAINS,
            (),
            tuple(("run", s) for s in CHAINS),
            200,
        ),
        Workload(
            "verify-exact",
            VERIFY_HIERARCHY,
            VERIFY_DEGREE,
            tuple(("verify-lemmas", s) for s in VERIFY_HIERARCHY + VERIFY_DEGREE),
            0,
        ),
        Workload(
            "random-large",
            LARGE,
            (),
            tuple(("run", s) for s in LARGE),
            200,
            setup_reps=2,
        ),
        Workload(
            "degree-cut",
            (),
            DEGREE,
            tuple(("degreecut", s) for s in DEGREE),
            1000,
        ),
    )
}

# The same workloads at the smallest sizes, for the benchmark's self-test.
TINY = {
    "sample-chains": Workload("sample-chains", ("envelope:2",), (), (("run", "envelope:2"),), 20),
    "verify-exact": Workload(
        "verify-exact",
        ("envelope:2",),
        ("k5_degree:5",),
        (("verify-lemmas", "envelope:2"), ("verify-lemmas", "k5_degree:5")),
        0,
    ),
    "random-large": Workload(
        "random-large",
        ("random_half_integral:10",),
        (),
        (("run", "random_half_integral:10"),),
        20,
    ),
    "degree-cut": Workload("degree-cut", (), ("k5_degree:5",), (("degreecut", "k5_degree:5"),), 20),
}


def make_instance(spec: str):
    if spec in instance.GADGET_BUILDERS:
        return instance.GADGET_BUILDERS[spec]()
    family, _, size = spec.partition(":")
    return instance.generate_instance(family, int(size), seed=GENERATOR_SEED)


def join_check(checker, support, metric, joins, tree_edges, join_cost) -> None:
    """The join pairs cover the odd set exactly once and price as reported."""
    odd = ojoin.odd_vertices(support, tree_edges)
    pairs, _ = joins.matching(odd)
    ends = [v for pair in pairs for v in pair]
    checker.expect(sorted(ends) == list(odd), f"join pairs are not a perfect matching of {odd}")
    cost = sum((metric.dist[u][v] for u, v in pairs), Fraction(0))
    checker.expect(cost == join_cost, f"join cost {join_cost} != summed distances {cost}")


class HierarchyUnit:
    """One hierarchy instance: set up by ``prepare_instance``."""

    kind = "hierarchy"

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.instance = make_instance(spec)
        self.lp = self.instance.lp_cost()
        self.state = None
        self.joins = None

    def set_up(self):
        return ojoin.prepare_instance(self.instance)

    def adopt(self, prepared) -> None:
        self.state = prepared
        self.joins = ojoin.JoinCalculator(prepared.metric)

    def check_set_up(self, checker, prepared, first: bool) -> None:
        if self.state is not None:
            checker.expect(
                prepared.eal_probability == self.state.eal_probability,
                f"{self.spec}: even-at-last table differs between set-ups",
            )
        if not first:
            return
        checker.same(f"eal/{self.spec}", sorted(prepared.eal_probability.items()))
        joins = ojoin.JoinCalculator(prepared.metric)
        outs = [
            ojoin.run_sample(prepared, ojoin.sample_rng(REFERENCE_SEED, i), joins)
            for i in range(CHECK_SAMPLES)
        ]
        checker.same(
            f"samples/{self.spec}",
            [
                (o.tree_edges, o.tree_cost, o.vector_total, o.reduced_count, o.min_edge_value, o.cut_loads)
                for o in outs
            ],
        )

    def sample(self, rng):
        return ojoin.run_sample(self.state, rng, self.joins, build_vector=True)

    def check_sample(self, checker, out) -> None:
        p = self.state
        join_check(checker, p.support, p.metric, self.joins, out.tree_edges, out.join_cost)

    def sizes(self) -> dict:
        p = self.state
        return {"support_n": p.support.n, "edges": len(p.support.edges), "min_cuts": len(p.cut_sides)}


@dataclass(frozen=True)
class DegreeState:
    decomposition: object
    contexts: dict
    edge_values: list
    vertex_values: list


class DegreeUnit:
    """One degree-cut instance: set up by the steps of ``run_degree_cut``."""

    kind = "degree"

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.instance = make_instance(spec)
        self.lp = self.instance.lp_cost()
        self.support = instance.build_support_graph(self.instance)
        self.metric = instance.metric_closure(self.instance)
        self.state = None
        self.joins = None

    def set_up(self) -> DegreeState:
        inst = self.instance
        decomposition = degreecut.decompose_matching(inst)
        contexts = {m: degreecut.build_matching_context(inst, m) for _, m in decomposition.weights}
        edge_values = degreecut.expected_edge_values(inst, decomposition)
        vertex_values = degreecut.expected_vertex_values(inst, decomposition, contexts)
        return DegreeState(decomposition, contexts, edge_values, vertex_values)

    def adopt(self, state: DegreeState) -> None:
        self.state = state
        self.joins = ojoin.JoinCalculator(self.metric)

    def check_set_up(self, checker, state: DegreeState, first: bool) -> None:
        inst = self.instance
        m = len(inst.edges)
        weights = [w for w, _ in state.decomposition.weights]
        checker.expect(
            all(w > 0 for w in weights) and sum(weights, Fraction(0)) == 1,
            f"{self.spec}: decomposition weights are not a convex combination",
        )
        checker.expect(
            state.decomposition.marginals(m) == degreecut.fractional_matching_target(inst),
            f"{self.spec}: decomposition marginals miss the matching target",
        )
        checker.expect(
            all(v == Fraction(1, 2) for v in state.edge_values),
            f"{self.spec}: expected edge value is not 1/2",
        )
        tree_cost = sum((e.cost * z for e, z in zip(inst.edges, state.edge_values)), Fraction(0))
        checker.expect(tree_cost == self.lp, f"{self.spec}: expected tree cost {tree_cost} != LP {self.lp}")
        bound = DEGREE_VERTEX_BOUND + (DEGREE_VERTEX_SLACK / inst.n if inst.n % 2 else 0)
        checker.expect(max(state.vertex_values) <= bound, f"{self.spec}: vertex load over {bound}")

    def sample(self, rng):
        s = self.state
        return degreecut.sample_degree_cut(
            self.instance, s.decomposition, s.contexts, rng, self.joins, self.support, self.metric
        )

    def check_sample(self, checker, out) -> None:
        join_check(checker, self.support, self.metric, self.joins, out.tree_edges, out.join_cost)

    def sizes(self) -> dict:
        return {
            "support_n": self.support.n,
            "edges": len(self.support.edges),
            "matchings": len(self.state.decomposition.weights),
        }


def make_units(workload: Workload) -> list:
    return [HierarchyUnit(s) for s in workload.hierarchy] + [DegreeUnit(s) for s in workload.degree]
