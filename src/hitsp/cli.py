"""Command-line driver: generation, validation, sampling runs, and reports.

Subcommands: ``gen``, ``validate``, ``hierarchy``, ``run``, ``verify-lemmas``,
``degreecut``.  All reports are canonical JSON (sorted keys) so identical
configurations produce byte-identical files, including under ``--jobs > 1``.

Exit codes: 0 success, 2 invalid instance or structure, 3 verified bound
failure, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from importlib import metadata
from math import sqrt

import numpy as np

from ._util import ResourceCapError, canonical_json, format_rational, parse_rational
from .cuts import InternalHierarchyError, build_hierarchy
from .degreecut import (
    DegreeCutError,
    decompose_matching,
    build_matching_context,
    enumerate_maximum_matchings,
    exactly_one_each_probability,
    expected_edge_values,
    expected_vertex_values,
    fractional_matching_target,
    run_degree_cut,
)
from .instance import (
    GADGET_BUILDERS,
    GENERATOR_FAMILIES,
    HalfIntegralInstance,
    InstanceError,
    build_support_graph,
    generate_instance,
    parse_instance,
    serialize_instance,
    split_vertex_for_eplus,
)
from .ojoin import (
    ChargingParams,
    JoinCalculator,
    PlanError,
    prepare_instance,
    run_sample,
    sample_rng,
)
from .oracle import (
    LemmaCheck,
    exact_pipeline_expectations,
    run_lemma_battery,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BOUND_FAILED = 3
EXIT_RESOURCE_CAP = 4

MAIN_CUT_BOUND = Fraction(99552, 100000)
DEGREE_VERTEX_BOUND = Fraction(227, 243)
DEGREE_VERTEX_SLACK = Fraction(353, 243)
SIXTEEN_81 = Fraction(16, 81)

HIERARCHY_CORPUS: tuple[tuple[str, object], ...] = (
    ("cycle_chain:2", ("cycle_chain", 2)),
    ("cycle_chain:3", ("cycle_chain", 3)),
    ("cycle_chain:4", ("cycle_chain", 4)),
    ("envelope:1", ("envelope", 1)),
    ("envelope:2", ("envelope", 2)),
    ("envelope:3", ("envelope", 3)),
    ("envelope:4", ("envelope", 4)),
    ("envelope:5", ("envelope", 5)),
    ("doubled_triangle", "doubled_triangle"),
    ("four_blob", "four_blob"),
    ("split_k5", "split_k5"),
    ("split_octahedron", "split_octahedron"),
)
DEGREE_CORPUS: tuple[tuple[str, int], ...] = (
    ("k5_degree:5", 5),
    ("k5_degree:6", 6),
    ("k5_degree:7", 7),
)


def library_version() -> str:
    try:
        return metadata.version("hitsp")
    except metadata.PackageNotFoundError:
        return "unknown"


def corpus_instance(spec: object) -> HalfIntegralInstance:
    if isinstance(spec, str):
        return GADGET_BUILDERS[spec]()
    family, size = spec
    return generate_instance(family, size)


def _parse_gen_spec(text: str) -> tuple[str, int]:
    family, sep, size = text.partition(":")
    if not sep or family not in GENERATOR_FAMILIES:
        raise InstanceError(
            f"generator spec must be family:size with family in "
            f"{', '.join(GENERATOR_FAMILIES)}; got {text!r}"
        )
    try:
        return (family, int(size))
    except ValueError as exc:
        raise InstanceError(f"generator size {size!r} is not an integer") from exc


def load_instance(args: argparse.Namespace) -> HalfIntegralInstance:
    if getattr(args, "instance", None):
        with open(args.instance, "r", encoding="utf-8") as fh:
            return parse_instance(fh.read())
    if getattr(args, "gen", None):
        if args.gen in GADGET_BUILDERS:
            return GADGET_BUILDERS[args.gen]()
        family, size = _parse_gen_spec(args.gen)
        return generate_instance(family, size, seed=getattr(args, "seed", None))
    raise InstanceError("provide --instance PATH or --gen FAMILY:SIZE")


class ArgumentError(ValueError):
    """A command-line value is malformed or out of range."""


def charging_params(args: argparse.Namespace) -> ChargingParams:
    try:
        return ChargingParams(
            alpha=parse_rational(args.alpha) if args.alpha else None,
            beta=parse_rational(args.beta) if args.beta else None,
            tau=parse_rational(args.tau) if args.tau else None,
        )
    except ValueError as exc:
        raise ArgumentError(f"--alpha/--beta/--tau: {exc}") from exc


def _config_dict(args: argparse.Namespace, fields: tuple[str, ...]) -> dict:
    out: dict[str, object] = {"subcommand": args.command}
    for field in fields:
        out[field] = getattr(args, field, None)
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, rows: list[tuple[str, object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerows(rows)


def _side_key(side: frozenset) -> str:
    return ",".join(str(v) for v in sorted(side))


# ---------------------------------------------------------------------------
# gen / validate / hierarchy


def cmd_gen(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    _emit(serialize_instance(inst), args.out)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    support = build_support_graph(split_vertex_for_eplus(inst))
    summary = {
        "name": inst.name,
        "n": inst.n,
        "edges": len(inst.edges),
        "lp_cost": format_rational(inst.lp_cost()),
        "half_edges": sum(1 for e in inst.edges if e.lp_value == Fraction(1, 2)),
        "doubled_edges": sum(1 for e in inst.edges if e.lp_value == 1),
        "support_n": support.n,
        "support_edges": len(support.edges),
        "has_duals": inst.duals is not None,
        "valid": True,
    }
    _emit(canonical_json(summary), args.out)
    return EXIT_OK


def cmd_hierarchy(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    support = build_support_graph(split_vertex_for_eplus(inst))
    hierarchy = build_hierarchy(support)
    if args.dot:
        _emit(hierarchy.to_dot(), args.out)
    else:
        _emit(canonical_json(hierarchy.to_json_dict()), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# run

_WORKER_STATE: dict = {}


def _chunk_ranges(samples: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous sample ranges, one per worker; never more workers than
    samples or than the machine has CPUs."""
    jobs = max(1, min(jobs, samples, os.cpu_count() or 1))
    base, extra = divmod(samples, jobs)
    ranges = []
    start = 0
    for i in range(jobs):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def _init_worker(instance_text: str, params_key: tuple) -> None:
    inst = parse_instance(instance_text)
    params = ChargingParams(*(Fraction(p) if p else None for p in params_key))
    _adopt(prepare_instance(inst, params=params))


def _adopt(prepared) -> None:
    _WORKER_STATE["prepared"] = prepared
    _WORKER_STATE["joins"] = JoinCalculator(prepared.metric)
    # Report order of the per-cut loads, fixed once per instance.
    _WORKER_STATE["cut_keys"] = sorted((_side_key(s), s) for s in prepared.cut_sides)


def _run_chunk(task: tuple[int, int, int, bool]) -> list[tuple]:
    seed, start, end, check_vectors = task
    prepared = _WORKER_STATE["prepared"]
    joins = _WORKER_STATE["joins"]
    cut_keys = _WORKER_STATE["cut_keys"]
    records = []
    for idx in range(start, end):
        out = run_sample(
            prepared,
            sample_rng(seed, idx),
            joins,
            build_vector=True,
            check_vector=check_vectors,
        )
        records.append(
            (
                out.tree_cost,
                out.join_cost,
                out.tour_cost,
                out.vector_total,
                out.reduced_count,
                out.join_exact,
                out.feasible,
                tuple((key, out.cut_loads[side]) for key, side in cut_keys),
            )
        )
    return records


def cmd_run(args: argparse.Namespace) -> int:
    if args.samples <= 0:
        sys.stderr.write(f"invalid arguments: --samples must be positive, got {args.samples}\n")
        return EXIT_INVALID
    inst = load_instance(args)
    params = charging_params(args)
    prepared = prepare_instance(inst, params=params)
    lp = inst.lp_cost()
    samples = args.samples
    chunks = _chunk_ranges(samples, args.jobs)
    tasks = [(args.seed, start, end, args.check_vectors) for start, end in chunks]

    if len(chunks) == 1:
        _adopt(prepared)
        chunk_results = [_run_chunk(tasks[0])]
        _WORKER_STATE.clear()
    else:
        with ProcessPoolExecutor(
            max_workers=len(chunks),
            initializer=_init_worker,
            initargs=(serialize_instance(inst), (args.alpha, args.beta, args.tau)),
        ) as pool:
            chunk_results = list(pool.map(_run_chunk, tasks))

    records = [rec for chunk in chunk_results for rec in chunk]
    exact = args.mode == "rational"

    def agg(values: list[Fraction]) -> object:
        if exact:
            mean = sum(values, Fraction(0)) / len(values)
            return format_rational(mean)
        return float(sum(float(v) for v in values) / len(values))

    ratios = [float((rec[0] + rec[1]) / lp) for rec in records]
    mean_ratio = sum(ratios) / len(ratios)
    if len(ratios) > 1:
        var = sum((r - mean_ratio) ** 2 for r in ratios) / (len(ratios) - 1)
        std = sqrt(var)
    else:
        std = 0.0
    sigma_mean = std / sqrt(len(ratios))

    cut_sums: dict[str, Fraction] = {}
    for rec in records:
        for key, value in rec[7]:
            cut_sums[key] = cut_sums.get(key, Fraction(0)) + value
    per_cut = {
        key: format_rational(total / samples) if exact else float(total / samples)
        for key, total in sorted(cut_sums.items())
    }

    seeds = [
        np.random.SeedSequence(args.seed, spawn_key=(i,)).generate_state(2).tolist()
        for i in range(min(samples, 100))
    ]
    feasible_known = [rec[6] for rec in records if rec[6] is not None]
    report = {
        "command": "run",
        "version": library_version(),
        "config": _config_dict(
            args,
            (
                "instance", "gen", "samples", "seed", "mode",
                "alpha", "beta", "tau", "jobs", "check_vectors",
            ),
        ),
        "instance": {
            "name": inst.name,
            "n": inst.n,
            "support_n": prepared.support.n,
            "support_edges": len(prepared.support.edges),
            "lp_cost": format_rational(lp),
        },
        "seeds": {
            "root": args.seed,
            "scheme": "SeedSequence(root, spawn_key=(sample_index,))",
            "chunks": [list(c) for c in chunks],
            "sample_states": seeds,
        },
        "results": {
            "samples": samples,
            "mean_tree_cost": agg([rec[0] for rec in records]),
            "mean_join_cost": agg([rec[1] for rec in records]),
            "mean_tour_cost": agg([rec[2] for rec in records]),
            "mean_vector_total": agg([rec[3] for rec in records]),
            "mean_reduced_count": float(
                sum(rec[4] for rec in records) / len(records)
            ),
            "join_exact_fraction": float(
                sum(1 for rec in records if rec[5]) / len(records)
            ),
            "combined_ratio_mean": mean_ratio,
            "combined_ratio_std": std,
            "combined_ratio_ci3": [
                mean_ratio - 3 * sigma_mean,
                mean_ratio + 3 * sigma_mean,
            ],
            "mean_tour_ratio": float(
                sum(float(rec[2] / lp) for rec in records) / len(records)
            ),
            "per_cut_mean_load": per_cut,
            "feasible_checked": len(feasible_known),
            "feasible_failures": sum(1 for f in feasible_known if not f),
        },
    }
    text = canonical_json(report)
    _emit(text, args.out)
    if args.csv:
        flat = [(k, v) for k, v in report["results"].items() if not isinstance(v, (dict, list))]
        _write_csv(args.csv, flat)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-lemmas


def _feasibility_rows(
    prepared, label: str, samples: int, seed: int
) -> list[LemmaCheck]:
    """Sampled end-to-end vectors: odd-cut coverage and the 1/6 edge floor."""
    from .ojoin import check_feasible, build_join_vector, sample_hierarchical_tree

    failures = 0
    min_edge = None
    for idx in range(samples):
        rng = sample_rng(seed, idx)
        sample = sample_hierarchical_tree(prepared.plan, rng)
        vector = build_join_vector(prepared, sample)
        result = check_feasible(prepared.support, sample.edges, vector.values)
        if not result.feasible:
            failures += 1
        low = min(vector.values)
        if min_edge is None or low < min_edge:
            min_edge = low
    return [
        LemmaCheck(
            name="sampled-vectors-feasible",
            subject=label,
            value=Fraction(failures),
            bound=Fraction(0),
            relation="==",
            passed=failures == 0,
        ),
        LemmaCheck(
            name="edge-floor-1-6",
            subject=label,
            value=min_edge,
            bound=Fraction(1, 6),
            relation=">=",
            passed=min_edge >= Fraction(1, 6),
        ),
    ]


def _hierarchy_instance_rows(
    inst: HalfIntegralInstance, params: ChargingParams, feas_samples: int
) -> list[LemmaCheck]:
    prepared = prepare_instance(inst, params=params)
    expectations = exact_pipeline_expectations(prepared, include_costs=False)
    rows = list(run_lemma_battery(prepared, expectations))
    kind_of = {
        cut.vertices: prepared.hierarchy.classify_min_cut(cut)[0]
        for cut in prepared.hierarchy.min_cuts
    }
    for side in sorted(expectations.cut_load, key=sorted):
        if kind_of[side] == "arc":
            continue
        load = expectations.cut_load[side]
        rows.append(
            LemmaCheck(
                name="cut-load-main",
                subject=f"cut {sorted(side)}",
                value=load,
                bound=MAIN_CUT_BOUND,
                relation="<=",
                passed=load <= MAIN_CUT_BOUND,
            )
        )
    floor_total = 6 * (prepared.base_value - params.reduction)
    rows.append(
        LemmaCheck(
            name="six-edge-floor",
            subject="params",
            value=floor_total,
            bound=Fraction(1),
            relation=">=",
            passed=floor_total >= 1,
        )
    )
    rows.extend(_feasibility_rows(prepared, inst.name, feas_samples, seed=0))
    return rows


def _degree_instance_rows(inst: HalfIntegralInstance) -> list[LemmaCheck]:
    rows: list[LemmaCheck] = []
    decomposition = decompose_matching(inst)
    m = len(inst.edges)
    target = fractional_matching_target(inst)
    marginals = decomposition.marginals(m)
    rows.append(
        LemmaCheck(
            name="matching-marginals-exact",
            subject=inst.name,
            value=Fraction(sum(1 for i in range(m) if marginals[i] == target[i])),
            bound=Fraction(m),
            relation="==",
            passed=marginals == target,
        )
    )
    z_values = expected_edge_values(inst, decomposition)
    z_off = [v for v in z_values if v != Fraction(1, 2)]
    rows.append(
        LemmaCheck(
            name="z-expected-half",
            subject=inst.name,
            value=z_off[0] if z_off else Fraction(1, 2),
            bound=Fraction(1, 2),
            relation="==",
            passed=not z_off,
        )
    )
    expected_tree = sum(
        (inst.edges[i].cost * z_values[i] for i in range(m)), Fraction(0)
    )
    rows.append(
        LemmaCheck(
            name="tree-cost-matches-lp",
            subject=inst.name,
            value=expected_tree,
            bound=inst.lp_cost(),
            relation="==",
            passed=expected_tree == inst.lp_cost(),
        )
    )
    contexts = {
        matching: build_matching_context(inst, matching)
        for _, matching in decomposition.weights
    }
    normal_minimum = None
    for _, matching in decomposition.weights:
        context = contexts[matching]
        for edge in context.normal_edges:
            value = exactly_one_each_probability(inst, context, edge)
            if normal_minimum is None or value < normal_minimum:
                normal_minimum = value
    if normal_minimum is not None:
        rows.append(
            LemmaCheck(
                name="normal-even-16-81",
                subject=inst.name,
                value=normal_minimum,
                bound=SIXTEEN_81,
                relation=">=",
                passed=normal_minimum >= SIXTEEN_81,
            )
        )
    vertex_values = expected_vertex_values(inst, decomposition, contexts)
    bound = DEGREE_VERTEX_BOUND
    if inst.n % 2 == 1:
        bound = bound + DEGREE_VERTEX_SLACK / inst.n
    worst = max(vertex_values)
    rows.append(
        LemmaCheck(
            name="vertex-load-degree",
            subject=inst.name,
            value=worst,
            bound=bound,
            relation="<=",
            passed=worst <= bound,
        )
    )
    if inst.n == 5:
        matchings = enumerate_maximum_matchings(inst)
        rows.append(
            LemmaCheck(
                name="k5-matching-count",
                subject=inst.name,
                value=Fraction(len(matchings)),
                bound=Fraction(15),
                relation="==",
                passed=len(matchings) == 15,
            )
        )
        weights = [w for w, _ in decomposition.weights]
        uniform = all(w == Fraction(1, 15) for w in weights) and len(weights) == 15
        rows.append(
            LemmaCheck(
                name="k5-weights-uniform",
                subject=inst.name,
                value=min(weights),
                bound=Fraction(1, 15),
                relation="==",
                passed=uniform,
            )
        )
        marginal_ok = all(v == Fraction(1, 5) for v in marginals)
        rows.append(
            LemmaCheck(
                name="k5-edge-marginal",
                subject=inst.name,
                value=min(marginals),
                bound=Fraction(1, 5),
                relation="==",
                passed=marginal_ok,
            )
        )
    return rows


def cmd_verify(args: argparse.Namespace) -> int:
    params = charging_params(args)
    jobs: list[tuple[str, HalfIntegralInstance, str]] = []
    if args.instance or args.gen:
        inst = load_instance(args)
        from .degreecut import degree_cut_witness

        kind = "degree" if degree_cut_witness(inst) is None else "hierarchy"
        jobs.append((inst.name, inst, kind))
    else:
        for label, spec in HIERARCHY_CORPUS:
            jobs.append((label, corpus_instance(spec), "hierarchy"))
        for label, size in DEGREE_CORPUS:
            jobs.append((label, generate_instance("k5_degree", size), "degree"))

    rows: list[tuple[str, LemmaCheck]] = []
    for label, inst, kind in jobs:
        if kind == "degree":
            checks = _degree_instance_rows(inst)
        else:
            checks = _hierarchy_instance_rows(inst, params, args.feasibility_samples)
        rows.extend((label, chk) for chk in checks)

    failed = [(label, chk) for label, chk in rows if not chk.passed]
    payload = {
        "command": "verify-lemmas",
        "version": library_version(),
        "config": _config_dict(
            args, ("instance", "gen", "alpha", "beta", "tau", "feasibility_samples")
        ),
        "rows": [
            {
                "instance": label,
                "name": chk.name,
                "subject": chk.subject,
                "value": format_rational(chk.value),
                "relation": chk.relation,
                "bound": format_rational(chk.bound),
                "passed": chk.passed,
            }
            for label, chk in rows
        ],
        "summary": {
            "total": len(rows),
            "failed": len(failed),
            "passed": len(rows) - len(failed),
        },
    }
    _emit(canonical_json(payload), args.out)
    if args.out:
        for label, chk in rows:
            status = "PASS" if chk.passed else "FAIL"
            sys.stdout.write(
                f"[{status}] {label:20s} {chk.name:26s} {chk.subject:22s} "
                f"{float(chk.value):.6f} {chk.relation} {float(chk.bound):.6f}\n"
            )
    return EXIT_BOUND_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# degreecut


def cmd_degreecut(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    from .degreecut import degree_cut_witness

    witness = degree_cut_witness(inst)
    if witness is not None:
        kind, detail = witness
        sys.stderr.write(
            f"instance {inst.name!r} is not a degree-cut instance: "
            f"{kind} {detail}\n"
        )
        return EXIT_INVALID
    report = run_degree_cut(
        inst, samples=args.samples, seed=args.seed, check_vectors=args.check_vectors
    )
    bound = DEGREE_VERTEX_BOUND
    if inst.n % 2 == 1:
        bound = bound + DEGREE_VERTEX_SLACK / inst.n
    sigma_mean = (
        report.tour_ratio_std / sqrt(report.samples) if report.samples > 1 else 0.0
    )
    payload = {
        "command": "degreecut",
        "version": library_version(),
        "config": _config_dict(
            args, ("instance", "gen", "samples", "seed", "check_vectors")
        ),
        "instance": {
            "name": report.instance_name,
            "n": report.n,
            "lp_cost": format_rational(report.lp_cost),
        },
        "decomposition": {
            "method": report.decomposition_method,
            "matchings": report.matching_count,
        },
        "expected": {
            "edge_value": format_rational(report.expected_edge_value),
            "tree_cost": format_rational(report.expected_tree_cost),
            "per_vertex_max": format_rational(report.per_vertex_expected_max),
            "per_vertex_bound": format_rational(bound),
            "per_vertex_ok": report.per_vertex_expected_max <= bound,
        },
        "results": {
            "samples": report.samples,
            "mean_tour_ratio": report.mean_tour_ratio,
            "tour_ratio_std": report.tour_ratio_std,
            "tour_ratio_ci3": [
                report.mean_tour_ratio - 3 * sigma_mean,
                report.mean_tour_ratio + 3 * sigma_mean,
            ],
            "mean_vector_total": report.mean_vector_total,
            "normal_even_rate": report.normal_even_rate,
            "feasible_failures": report.feasible_failures,
        },
    }
    _emit(canonical_json(payload), args.out)
    if args.csv:
        flat = [
            ("mean_tour_ratio", report.mean_tour_ratio),
            ("tour_ratio_std", report.tour_ratio_std),
            ("mean_vector_total", report.mean_vector_total),
            ("normal_even_rate", report.normal_even_rate),
            ("feasible_failures", report.feasible_failures),
        ]
        _write_csv(args.csv, flat)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instance", help="path to an instance JSON file")
    parser.add_argument(
        "--gen",
        help="generator spec family:size "
        f"(families: {', '.join(GENERATOR_FAMILIES)}) or a gadget name "
        f"({', '.join(sorted(GADGET_BUILDERS))})",
    )


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", help="override the top truncation (rational)")
    parser.add_argument("--beta", help="override the bottom truncation (rational)")
    parser.add_argument("--tau", help="override the reduction step (rational)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitsp",
        description=(
            "Randomized rounding for half-integral metric TSP instances: "
            "hierarchical connector sampling, parity-correction vectors, "
            "and exhaustive verification of the probability bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    _add_instance_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="parse and validate an instance")
    _add_instance_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hierarchy", help="print the contraction hierarchy")
    _add_instance_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dot", action="store_true", help="emit Graphviz instead of JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("run", help="sample the pipeline end to end")
    _add_instance_flags(p)
    _add_param_flags(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("rational", "float"), default="rational")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--check-vectors", action="store_true", dest="check_vectors")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "verify-lemmas", help="exhaustively verify every probability bound"
    )
    _add_instance_flags(p)
    _add_param_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--feasibility-samples", type=int, default=64, dest="feasibility_samples"
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("degreecut", help="run the vertex-cut-only variant")
    _add_instance_flags(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-vectors", action="store_true", dest="check_vectors")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_degreecut)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, DegreeCutError, FileNotFoundError) as exc:
        sys.stderr.write(f"invalid instance: {exc}\n")
        return EXIT_INVALID
    except (PlanError, InternalHierarchyError) as exc:
        sys.stderr.write(f"structure error: {exc}\n")
        return EXIT_INVALID
    except ArgumentError as exc:
        sys.stderr.write(f"invalid arguments: {exc}\n")
        return EXIT_INVALID
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE_CAP


if __name__ == "__main__":
    sys.exit(main())
