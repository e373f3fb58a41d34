"""In-memory spans around calls into hitsp's public functions.

A traced run swaps selected module functions for wrappers that record a span
(name, start, end, parent, info) per call, then restores the originals.  The
wrappers live here, so nothing in ``src/`` changes.  ``info`` holds counters
taken from the call's public return value, never from private state.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

from hitsp.cuts import EXHAUSTIVE_CUT_LIMIT

# A cut-free level is checked for proper minimum cuts only while its
# contracted graph (children plus the outside vertex) has at most 16 vertices.
CUT_FREE_CHECK_LIMIT = 16


def _hierarchy_info(hierarchy, args) -> dict:
    edges = range(len(hierarchy.support.edges))
    return {
        "min_cuts": len(hierarchy.min_cuts),
        "karger": int(hierarchy.support.n > EXHAUSTIVE_CUT_LIMIT),
        "cycle_nodes": len(hierarchy.cycle_nodes()),
        "degree_nodes": len(hierarchy.degree_nodes()),
        "unchecked": sum(
            1
            for node in hierarchy.degree_nodes()
            if len(node.children) + 1 > CUT_FREE_CHECK_LIMIT
        ),
        "eal_pairs": len({hierarchy.last_cuts(e) for e in edges}),
    }


# (module, attribute) -> how to describe the return value, or None.
TRACED: dict[tuple[str, str], object] = {
    ("instance", "build_support_graph"): None,
    ("instance", "metric_closure"): None,
    ("instance", "generate_instance"): None,
    ("instance", "parse_instance"): None,
    ("cuts", "enumerate_min_cuts"): lambda r, a: {"count": len(r)},
    ("cuts", "build_hierarchy"): _hierarchy_info,
    ("maxent", "fit_lambda"): lambda r, a: {
        "iterations": r.iterations,
        "error": r.error,
    },
    ("ojoin", "prepare_instance"): None,
    ("ojoin", "build_sampling_plan"): None,
    ("ojoin", "compute_even_at_last_probs"): None,
    ("ojoin", "sample_hierarchical_tree"): None,
    ("ojoin", "build_join_vector"): None,
    ("ojoin", "build_tour"): None,
    ("ojoin", "tree_cost"): None,
    ("ojoin", "check_feasible"): None,
    ("ojoin", "run_sample"): None,
    ("oracle", "exact_pipeline_expectations"): lambda r, a: {
        "tree_outcomes": r.tree_outcomes,
        "unit_count": r.unit_count,
    },
    ("oracle", "run_lemma_battery"): None,
    ("degreecut", "degree_cut_witness"): None,
    ("degreecut", "enumerate_maximum_matchings"): lambda r, a: {"count": len(r)},
    ("degreecut", "decompose_matching"): lambda r, a: {"method": r.method},
    ("degreecut", "build_matching_context"): None,
    ("degreecut", "expected_edge_values"): None,
    ("degreecut", "expected_vertex_values"): None,
    ("degreecut", "exactly_one_each_probability"): None,
    ("degreecut", "sample_degree_cut"): None,
    ("degreecut", "run_degree_cut"): None,
    ("cli", "cmd_run"): None,
    ("cli", "cmd_verify"): None,
    ("cli", "cmd_degreecut"): None,
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, info]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, func, describe):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                result = func(*args, **kwargs)
            if describe is not None:
                rec[4] = describe(result, args)
            return result

        traced.__wrapped__ = func
        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "info": i}
            for n, s, e, p, i in self.spans
        ]


class Patcher:
    """Installs the tracer's wrappers everywhere hitsp binds a traced name."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for (mod_name, attr), describe in TRACED.items():
            original = getattr(importlib.import_module(f"hitsp.{mod_name}"), attr)
            wrappers[id(original)] = (original, self.tracer.wrap(f"{mod_name}.{attr}", original, describe))
        # ``from .x import f`` copies the binding, so rebind every copy.
        hitsp_modules = [m for k, m in sys.modules.items() if k == "hitsp" or k.startswith("hitsp.")]
        for module in hitsp_modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(module, attr, wrappers[id(value)][1])

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.remove()


class SpanIndex:
    """Queries over finished spans, grouped by the root ("phase") of each."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.phase: list[str] = []
        # A parent is always recorded before its children.
        for name, start, end, parent, _ in spans:
            if parent is None:
                self.phase.append(name)
            else:
                self.child_time[parent] += end - start
                self.phase.append(self.phase[parent])

    def select(self, name: str, phase: str, parent: str | None = None) -> list[int]:
        return [
            i
            for i, rec in enumerate(self.spans)
            if rec[0] == name
            and self.phase[i] == phase
            and (parent is None or (rec[3] is not None and self.spans[rec[3]][0] == parent))
        ]

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.child_time[i]

    def total(self, name: str, phase: str) -> float:
        return sum(self.duration(i) for i in self.select(name, phase))

    def total_self(self, name: str, phase: str) -> float:
        return sum(self.self_time(i) for i in self.select(name, phase))

    def mean(self, name: str, phase: str, parent: str | None = None) -> float:
        picked = self.select(name, phase, parent)
        return sum(self.duration(i) for i in picked) / len(picked) if picked else 0.0

    def infos(self, name: str, phase: str) -> list[dict]:
        return [self.spans[i][4] for i in self.select(name, phase)]
