"""Benchmark hitsp's ``run``, ``verify-lemmas`` and ``degreecut`` end to end.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  One process, one thread, a closed loop: each
workload sets up its instances (several times, reporting the median), samples
them round-robin for ``--seconds`` seconds, then times its CLI invocations
in process through ``hitsp.cli.main``.  Every output is checked.  With
``--trace 1`` the run records spans around calls into hitsp's modules and
reports per-layer metrics instead.  The last stdout line is the result JSON;
a full record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from speed import now

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
RATIO_ROUNDS = 300  # leading rounds of each run averaged into combined_ratio_mean
MIN_SAMPLES = 1000  # so that at least ten samples lie above p99
BLOCK_SECONDS = 0.05  # raw sampling time per throughput block

END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    "samples_per_s": "samples/s",
    "sample_p50_ms": "ms",
    "sample_p99_ms": "ms",
    "combined_ratio_mean": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "instance.support_s": "s",
    "instance.metric_closure_s": "s",
    "cuts.min_cuts_s": "s",
    "cuts.hierarchy_s": "s",
    "cuts.min_cut_count": "count",
    "cuts.karger_instances": "count",
    "cuts.cycle_nodes": "count",
    "cuts.degree_nodes": "count",
    "cuts.unchecked_cut_free_levels": "count",
    "ojoin.plan_s": "s",
    "maxent.fit_iterations": "count",
    "maxent.fit_error": "prob",
    "maxent.lam_exact_marginal_error": "prob",
    "ojoin.eal_table_s": "s",
    "ojoin.eal_pairs": "count",
    "ojoin.sample_tree_us": "us",
    "ojoin.join_vector_us": "us",
    "ojoin.join_match_us": "us",
    "ojoin.tour_us": "us",
    "ojoin.sample_rest_us": "us",
    "ojoin.join_greedy_fraction": "fraction",
    "ojoin.odd_set_mean": "vertices",
    "ojoin.odd_set_max": "vertices",
    "ojoin.odd_set_distinct_fraction": "fraction",
    "oracle.expectations_s": "s",
    "oracle.battery_s": "s",
    "oracle.tree_outcomes": "count",
    "oracle.unit_patterns": "count",
    "oracle.outcomes_per_s": "1/s",
    "ojoin.check_feasible_ms": "ms",
    "degreecut.enumerate_matchings_s": "s",
    "degreecut.matching_count": "count",
    "degreecut.decompose_s": "s",
    "degreecut.simplex_fallbacks": "count",
    "degreecut.contexts_s": "s",
    "degreecut.expected_values_s": "s",
    "degreecut.sample_us": "us",
    "cli.prepare_calls": "count",
    "cli.report_s": "s",
    "trace.overhead_s": "s",
}


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


class Bench:
    """One run of one workload; ``tracer`` is set for a traced run."""

    def __init__(self, workload, seed: int, seconds: float, checker, tracer=None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.checker = checker
        self.tracer = tracer
        self.units = []
        self.rounds = 0
        self.join_stats = {"samples": 0, "greedy": 0, "odd_sizes": [], "distinct": 0}
        self.odd_seen: dict[str, set] = {}
        self.lam_error = 0.0
        # Raw (start, end) intervals; converted to seconds once the run ends.
        self.setup_spans: list[list[tuple[float, float]]] = []
        self.sample_spans: list[tuple[float, float]] = []
        self.command_spans: list[tuple[float, float]] = []
        self.ratios: list[float] = []

    # -- set-up ---------------------------------------------------------------

    def set_up(self, units, reps: int) -> None:
        """Set every unit up ``reps`` times; the last set-up is kept."""
        for rep in range(reps):
            spans = []
            for unit in units:
                with self.checker.op(f"set-up {unit.spec}"):
                    start = now()
                    state = unit.set_up()
                    spans.append((start, now()))
                    unit.check_set_up(self.checker, state, first=rep == 0)
                    unit.adopt(state)
            self.setup_spans.append(spans)
        self.units = [u for u in units if u.state is not None]

    def traced_set_up(self, units) -> None:
        """Set up once under spans; hierarchy set-up is rebuilt from its steps."""
        from hitsp import cuts, instance, maxent, ojoin

        tracer, checker = self.tracer, self.checker
        for unit in units:
            with checker.op(f"traced set-up {unit.spec}"):
                if unit.kind == "degree":
                    with tracer.span("phase.setup"):
                        state = unit.set_up()
                    unit.check_set_up(checker, state, first=True)
                    unit.adopt(state)
                    continue
                with tracer.span("phase.setup"):
                    inst = instance.split_vertex_for_eplus(unit.instance)
                    support = instance.build_support_graph(inst)
                    hierarchy = cuts.build_hierarchy(support)
                    plan = ojoin.build_sampling_plan(hierarchy)
                    probs = ojoin.compute_even_at_last_probs(plan)
                    metric = instance.metric_closure(inst)
                prepared = unit.set_up()
                checker.expect(probs == prepared.eal_probability, f"{unit.spec}: rebuilt even-at-last table differs")
                checker.expect(plan == prepared.plan, f"{unit.spec}: rebuilt sampling plan differs")
                checker.expect(metric == prepared.metric, f"{unit.spec}: rebuilt metric differs")
                unit.check_set_up(checker, prepared, first=True)
                unit.adopt(prepared)
                for level in prepared.plan.degree_levels:
                    marginals = maxent.tree_marginals(
                        level.vertex_count, list(level.level_edges), list(level.lam_exact)
                    ).values
                    worst = max(abs(m - Fraction(1, 2)) for m in marginals)
                    self.lam_error = max(self.lam_error, float(worst))
        self.units = [u for u in units if u.state is not None]

    # -- sampling loop --------------------------------------------------------

    def loop(self, step, clock=None) -> None:
        """Round-robin closed loop over the units for ``seconds`` seconds.

        With a ``clock``, its speed probes run between samples.
        """
        from hitsp.ojoin import sample_rng

        checker = self.checker
        tick = clock.tick if clock else lambda: None
        start = perf_counter()
        rounds = 0
        while self.units and (
            rounds < RATIO_ROUNDS
            or len(self.sample_spans) < MIN_SAMPLES
            or perf_counter() - start < self.seconds
        ):
            for unit in self.units:
                with checker.op(f"sample {unit.spec} #{rounds}"):
                    span, out = step(unit, sample_rng(self.seed, rounds), rounds)
                    self.sample_spans.append(span)
                    tick()
                    unit.check_sample(checker, out)
                    if rounds < RATIO_ROUNDS:
                        self.ratios.append(float((out.tree_cost + out.join_cost) / unit.lp))
            rounds += 1
        self.rounds = rounds

    @staticmethod
    def plain_step(unit, rng, index):
        start = now()
        out = unit.sample(rng)
        return (start, now()), out

    def traced_step(self, unit, rng, index):
        """Hierarchy samples are rebuilt from ``run_sample``'s public steps
        under spans, then compared with the composite call."""
        from hitsp import ojoin

        if unit.kind == "degree":
            return self.plain_step(unit, rng, index)
        tracer, p = self.tracer, unit.state
        with tracer.span("bench.sample") as rec:
            sample = ojoin.sample_hierarchical_tree(p.plan, rng)
            with tracer.span("bench.join_match"):
                odd = ojoin.odd_vertices(p.support, sample.edges)
                pairs, exact = unit.joins.matching(odd)
                join_cost = sum((p.metric.dist[u][v] for u, v in pairs), Fraction(0))
            _, tour = ojoin.build_tour(p.support, sample.edges, pairs, p.metric)
            vector = ojoin.build_join_vector(p, sample)
            with tracer.span("bench.sample_rest"):
                vector_total = vector.total()
                cut_loads = {
                    side: sum((vector.values[e] for e in p.cut_boundary[side]), Fraction(0))
                    for side in p.cut_sides
                }
                tree_cost = ojoin.tree_cost(p.instance, p.support, sample.edges)
        out = unit.sample(ojoin.sample_rng(self.seed, index))
        rebuilt = (sample.edges, tree_cost, join_cost, exact, tour, vector_total, len(vector.reduced), cut_loads)
        composite = (
            out.tree_edges, out.tree_cost, out.join_cost, out.join_exact, out.tour_cost,
            out.vector_total, out.reduced_count, out.cut_loads,
        )
        self.checker.expect(rebuilt == composite, f"{unit.spec} #{index}: rebuilt sample differs from run_sample")
        stats = self.join_stats
        stats["samples"] += 1
        stats["greedy"] += not out.join_exact
        stats["odd_sizes"].append(len(odd))
        seen = self.odd_seen.setdefault(unit.spec, set())
        if odd not in seen:
            seen.add(odd)
            stats["distinct"] += 1
        return (rec[1], rec[2]), out

    # -- commands -------------------------------------------------------------

    def commands(self, traced: bool = False) -> tuple[list[tuple[float, float]], dict[str, bytes]]:
        """Time every CLI invocation of the workload; check each report."""
        from hitsp import cli
        from hitsp.instance import serialize_instance

        from workloads import make_instance

        w = self.workload
        reports_dir = WORK / "reports"
        reports_dir.mkdir(parents=True, exist_ok=True)
        spans = []
        reports: dict[str, bytes] = {}
        for sub, spec in w.commands:
            label = f"{sub}-{spec.replace(':', '-')}"
            out_path = reports_dir / f"{w.name}-{label}{'-traced' if traced else ''}.json"
            if spec.startswith("random_half_integral:"):
                inst_path = WORK / "instances" / f"{spec.replace(':', '-')}.json"
                inst_path.parent.mkdir(parents=True, exist_ok=True)
                inst_path.write_text(serialize_instance(make_instance(spec)))
                argv = [sub, "--instance", str(inst_path)]
            else:
                argv = [sub, "--gen", spec]
            if sub == "run":
                argv += ["--samples", str(w.samples), "--seed", "0", "--jobs", "1", "--mode", "rational"]
            elif sub == "degreecut":
                argv += ["--samples", str(w.samples), "--seed", "0"]
            argv += ["--out", str(out_path)]
            with self.checker.op(f"hitsp {sub} {spec}"):
                captured = io.StringIO()
                span = self.tracer.span("bench.command") if traced else nullcontext()
                start = now()
                with span, redirect_stdout(captured), redirect_stderr(captured):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    finally:
                        spans.append((start, now()))
                self.checker.expect(code == 0, f"hitsp {sub} {spec} exited {code}: {captured.getvalue()[-300:]}")
                data = out_path.read_bytes()
                reports[label] = data
                check_report(self.checker, sub, spec, w, json.loads(data))
        return spans, reports

    def end_to_end(self, duration) -> dict[str, float]:
        """The end-to-end metrics, with ``duration(start, end)`` as the clock."""
        setups = [sum(duration(*span) for span in rep) for rep in self.setup_spans]
        latencies = [duration(*span) for span in self.sample_spans]
        rates = []
        count, busy, raw_busy = 0, 0.0, 0.0
        for (start, end), latency in zip(self.sample_spans, latencies):
            count, busy, raw_busy = count + 1, busy + latency, raw_busy + end - start
            if raw_busy >= BLOCK_SECONDS:
                rates.append(count / busy)
                count, busy, raw_busy = 0, 0.0, 0.0
        latencies.sort()
        return {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "command_s": sum(duration(*span) for span in self.command_spans),
            "samples_per_s": statistics.median(rates) if rates else 0.0,
            "sample_p50_ms": 1e3 * quantile(latencies, 0.50) if latencies else 0.0,
            "sample_p99_ms": 1e3 * quantile(latencies, 0.99) if latencies else 0.0,
            "combined_ratio_mean": statistics.fmean(self.ratios) if self.ratios else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def check_report(checker, sub: str, spec: str, workload, report: dict) -> None:
    """Property checks on one report, and digests of its exact parts."""
    if sub == "verify-lemmas":
        checker.expect(report["summary"]["failed"] == 0, f"verify-lemmas {spec}: rows failed")
        checker.expect(all(r["passed"] for r in report["rows"]), f"verify-lemmas {spec}: a row failed")
        if spec not in workload.degree:
            checker.same(f"verify/{spec}", report["rows"])
        return
    samples = workload.samples
    results = report["results"]
    checker.expect(results["samples"] == samples, f"{sub} {spec}: sample count {results['samples']}")
    checker.expect(results["feasible_failures"] == 0, f"{sub} {spec}: infeasible vectors")
    if sub == "run":
        checker.expect(0 <= results["join_exact_fraction"] <= 1, f"run {spec}: join_exact_fraction out of range")
        join_free = {
            k: results[k]
            for k in (
                "samples", "mean_tree_cost", "mean_vector_total", "mean_reduced_count",
                "per_cut_mean_load", "feasible_checked", "feasible_failures",
            )
        }
        checker.same(
            f"run/{spec}/{samples}",
            {"instance": report["instance"], "seeds": report["seeds"], "results": join_free},
        )
        return
    expected = report["expected"]
    checker.expect(expected["edge_value"] == "1/2", f"degreecut {spec}: edge value {expected['edge_value']}")
    checker.expect(
        expected["tree_cost"] == report["instance"]["lp_cost"],
        f"degreecut {spec}: expected tree cost differs from LP cost",
    )
    checker.expect(expected["per_vertex_ok"] is True, f"degreecut {spec}: vertex load over bound")
    checker.same(
        f"degreecut/{spec}/{samples}",
        {
            "instance": report["instance"],
            "expected": {k: expected[k] for k in ("edge_value", "tree_cost", "per_vertex_bound")},
        },
    )


def layer_metrics(bench: Bench, untraced_command_s: float, traced_command_s: float) -> dict[str, float]:
    """Per-layer metrics from a traced run's spans, by phase (see README)."""
    from tracing import SpanIndex

    ix = SpanIndex(bench.tracer.spans)
    S, L, C = "phase.setup", "phase.loop", "phase.command"

    def info_sum(name: str, key: str, phase: str = S) -> float:
        return sum(i[key] for i in ix.infos(name, phase))

    stats = bench.join_stats
    sizes = stats["odd_sizes"]
    expectations_s = ix.total("oracle.exact_pipeline_expectations", C)
    tree_outcomes = info_sum("oracle.exact_pipeline_expectations", "tree_outcomes", C)
    run_calls = ix.select("cli.cmd_run", C)
    prepare_in_run = [
        i for i in ix.select("ojoin.prepare_instance", C)
        if any(bench.tracer.spans[j][0] == "cli.cmd_run" for j in ancestors(ix, i))
    ]
    report_s = sum(ix.self_time(i) for i in ix.select("bench.command", C))
    report_s += sum(ix.self_time(i) for i, rec in enumerate(ix.spans) if ix.phase[i] == C and rec[0].startswith("cli."))
    fits = ix.infos("maxent.fit_lambda", S)
    return {
        "instance.support_s": ix.total("instance.build_support_graph", S),
        "instance.metric_closure_s": ix.total("instance.metric_closure", S),
        "cuts.min_cuts_s": ix.total("cuts.enumerate_min_cuts", S),
        "cuts.hierarchy_s": ix.total_self("cuts.build_hierarchy", S),
        "cuts.min_cut_count": info_sum("cuts.build_hierarchy", "min_cuts"),
        "cuts.karger_instances": info_sum("cuts.build_hierarchy", "karger"),
        "cuts.cycle_nodes": info_sum("cuts.build_hierarchy", "cycle_nodes"),
        "cuts.degree_nodes": info_sum("cuts.build_hierarchy", "degree_nodes"),
        "cuts.unchecked_cut_free_levels": info_sum("cuts.build_hierarchy", "unchecked"),
        "ojoin.plan_s": ix.total("ojoin.build_sampling_plan", S),
        "maxent.fit_iterations": sum(f["iterations"] for f in fits),
        "maxent.fit_error": max((f["error"] for f in fits), default=0.0),
        "maxent.lam_exact_marginal_error": bench.lam_error,
        "ojoin.eal_table_s": ix.total("ojoin.compute_even_at_last_probs", S),
        "ojoin.eal_pairs": info_sum("cuts.build_hierarchy", "eal_pairs"),
        "ojoin.sample_tree_us": 1e6 * ix.mean("ojoin.sample_hierarchical_tree", L, "bench.sample"),
        "ojoin.join_vector_us": 1e6 * ix.mean("ojoin.build_join_vector", L, "bench.sample"),
        "ojoin.join_match_us": 1e6 * ix.mean("bench.join_match", L),
        "ojoin.tour_us": 1e6 * ix.mean("ojoin.build_tour", L, "bench.sample"),
        "ojoin.sample_rest_us": 1e6 * ix.mean("bench.sample_rest", L),
        "ojoin.join_greedy_fraction": stats["greedy"] / stats["samples"] if stats["samples"] else 0.0,
        "ojoin.odd_set_mean": statistics.fmean(sizes) if sizes else 0.0,
        "ojoin.odd_set_max": max(sizes, default=0),
        "ojoin.odd_set_distinct_fraction": stats["distinct"] / stats["samples"] if stats["samples"] else 0.0,
        "oracle.expectations_s": expectations_s,
        "oracle.battery_s": ix.total("oracle.run_lemma_battery", C),
        "oracle.tree_outcomes": tree_outcomes,
        "oracle.unit_patterns": sum(2 ** i["unit_count"] for i in ix.infos("oracle.exact_pipeline_expectations", C)),
        "oracle.outcomes_per_s": tree_outcomes / expectations_s if expectations_s else 0.0,
        "ojoin.check_feasible_ms": 1e3 * ix.mean("ojoin.check_feasible", C),
        "degreecut.enumerate_matchings_s": ix.total("degreecut.enumerate_maximum_matchings", S),
        "degreecut.matching_count": info_sum("degreecut.enumerate_maximum_matchings", "count"),
        "degreecut.decompose_s": ix.total("degreecut.decompose_matching", S),
        "degreecut.simplex_fallbacks": sum(
            1 for i in ix.infos("degreecut.decompose_matching", S) if i["method"] == "simplex"
        ),
        "degreecut.contexts_s": ix.total("degreecut.build_matching_context", S),
        "degreecut.expected_values_s": ix.total("degreecut.expected_edge_values", S)
        + ix.total("degreecut.expected_vertex_values", S),
        "degreecut.sample_us": 1e6 * ix.mean("degreecut.sample_degree_cut", L),
        "cli.prepare_calls": len(prepare_in_run) / len(run_calls) if run_calls else 0.0,
        "cli.report_s": report_s,
        "trace.overhead_s": traced_command_s - untraced_command_s,
    }


def ancestors(ix, i: int):
    parent = ix.spans[i][3]
    while parent is not None:
        yield parent
        parent = ix.spans[parent][3]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, record: bool = False) -> dict:
    """Run one workload; returns the full record (metrics, checks, machine).

    With ``record`` the digests are collected instead of compared.
    """
    import numpy

    from checks import Checker, load_golden
    from speed import SpeedClock
    from tracing import Patcher, Tracer
    from workloads import TINY, WORKLOADS, make_units

    workload = (TINY if tiny else WORKLOADS)[name]
    checker = Checker(None if record else load_golden())
    load_start = os.getloadavg()
    units = make_units(workload)
    unscaled: dict[str, float] = {}
    if not trace:
        bench = Bench(workload, seed, seconds, checker)
        with SpeedClock() as clock:
            bench.set_up(units, workload.setup_reps)
            with clock.stepping():
                bench.loop(bench.plain_step, clock)
            bench.command_spans, _ = bench.commands()
        metrics = bench.end_to_end(clock.duration)
        unscaled = bench.end_to_end(lambda start, end: end - start)
    else:
        tracer = Tracer()
        bench = Bench(workload, seed, seconds, checker, tracer)
        patcher = Patcher(tracer)
        with patcher.installed():
            bench.traced_set_up(units)
            with tracer.span("phase.loop"):
                bench.loop(bench.traced_step)
        plain_spans, plain = bench.commands()
        with patcher.installed(), tracer.span("phase.command"):
            traced_spans, traced = bench.commands(traced=True)
        with checker.op("reports identical with and without tracing"):
            for label, data in plain.items():
                checker.expect(traced.get(label) == data, f"{label}: report differs under tracing")
        metrics = layer_metrics(
            bench,
            sum(end - start for start, end in plain_spans),
            sum(end - start for start, end in traced_spans),
        )
        write_json(WORK / "traces" / f"{name}-seed{seed}.json", tracer.to_json())
    names = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "tiny": tiny,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": git_commit(),
            "load_average_start": load_start,
            "load_average_end": os.getloadavg(),
        },
        "setup_reps": 1 if trace else workload.setup_reps,
        "samples": len(bench.sample_spans),
        "rounds": bench.rounds,
        "command_samples": workload.samples,
        "instances": {u.spec: u.sizes() for u in bench.units},
        "unscaled_metrics": unscaled,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "error_rate": checker.failed / checker.attempted if checker.attempted else 1.0,
        "failures": checker.messages,
        "recorded_digests": checker.recorded,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in names.items()},
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hitsp" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no hitsp sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}\n")
        return 2
    record = run_workload(args.workload, abs(args.seed), args.seconds, bool(args.trace))
    out = WORK / "results" / f"{args.workload}-seed{abs(args.seed)}-trace{args.trace}.json"
    write_json(out, record)
    print(f"perfbench {args.workload} seed={record['seed']} trace={args.trace} samples={record['samples']}")
    for key, metric in record["metrics"].items():
        print(f"  {key:34s} {metric['value']:>16.7g} {metric['unit']}")
    print(f"  {'error_rate':34s} {record['error_rate']:>16.7g} fraction ({record['failed']}/{record['attempted']})")
    for message in record["failures"][:10]:
        print(f"  FAILED: {message.splitlines()[-1]}")
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"instances: {json.dumps(record['instances'], sort_keys=True)}")
    print(f"record: {out.relative_to(ROOT)}")
    result = {
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
