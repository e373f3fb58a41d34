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
import errno
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from operator import add

from . import __version__
from ._util import ResourceCapError, canonical_json, format_rational, parse_rational
from .cuts import InternalHierarchyError, build_hierarchy
from .degreecut import DegreeCutError, degree_cut_witness, run_degree_cut
from .instance import (
    GADGET_BUILDERS,
    GENERATOR_FAMILIES,
    HalfIntegralInstance,
    InstanceError,
    MalformedInstanceError,
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
    SEED_SCHEME,
    prepare_instance,
    run_sample,
    sample_records,
    sample_statistics,
    seed_words,
)
from .oracle import (
    # perfbench/workloads.py reads the two bounds from here.
    DEGREE_VERTEX_BOUND,  # noqa: F401
    DEGREE_VERTEX_SLACK,  # noqa: F401
    LemmaCheck,
    cut_load_rows,
    degree_cut_rows,
    degree_vertex_bound,
    exact_pipeline_expectations,
    run_lemma_battery,
    sampled_feasibility_rows,
    six_edge_floor_row,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BOUND_FAILED = 3
EXIT_RESOURCE_CAP = 4

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
        try:
            with open(args.instance, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedInstanceError(f"{args.instance} is not UTF-8: {exc}") from exc
        except OSError as exc:
            raise ArgumentError(f"cannot read --instance {args.instance}: {exc.strerror}") from exc
        return parse_instance(text)
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
    return {"subcommand": args.command, **{field: getattr(args, field, None) for field in fields}}


def _open_output(path: str, newline: str | None = None):
    """``path`` opened for writing; a path that cannot be written is a bad argument."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ArgumentError(f"cannot write {path}: {exc.strerror}") from exc


def _check_writable(path: str | None) -> None:
    """Refuse an output path that cannot be written, as ``_open_output``
    would, but before any work and without creating or truncating it."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise ArgumentError(f"cannot write {path}: {os.strerror(code)}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with _open_output(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, results: dict) -> None:
    """One ``metric,value`` row per scalar in a report's ``results``."""
    with _open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerows((k, v) for k, v in results.items() if not isinstance(v, (dict, list)))


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
    """Contiguous sample ranges, one per worker, with no more workers than samples or CPUs."""
    jobs = max(1, min(jobs, samples, os.cpu_count() or 1))
    base, extra = divmod(samples, jobs)  # the first ``extra`` ranges take one more
    return [(i * base + min(i, extra), (i + 1) * base + min(i + 1, extra)) for i in range(jobs)]


def _init_worker(prepared) -> None:
    """Adopt the parent's prepared instance (a worker never re-prepares it)."""
    _WORKER_STATE["prepared"] = prepared
    _WORKER_STATE["joins"] = JoinCalculator(prepared.metric)


def _run_chunk(task: tuple[int, int, int, bool]) -> tuple[list[tuple], list[int]]:
    """Integer numerators per sample: tree, join and tour cost over the cost
    scale and vector total over the vector scale.  Also the chunk's sum of
    the vectors, per edge, over the vector scale: a cut's load is linear in
    the vector, so its boundary is summed once per report."""
    seed, start, end, check_vectors = task
    prepared, joins = _WORKER_STATE["prepared"], _WORKER_STATE["joins"]
    totals = [0] * len(prepared.support.edges)

    def draw(rng):
        nonlocal totals
        out = run_sample(prepared, rng, joins, check_vector=check_vectors)
        totals = list(map(add, totals, out.vector_values))
        return out

    records = sample_records(
        draw, seed, range(start, end),
        ("tree_numerator", "join_numerator", "tour_numerator", "vector_numerator",
         "reduced_count", "join_exact", "feasible"),
    )
    return records, totals


def cmd_run(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    params = charging_params(args)
    prepared = prepare_instance(inst, params=params)
    lp = inst.lp_cost()
    samples = args.samples
    chunks = _chunk_ranges(samples, args.jobs)
    tasks = [(args.seed, start, end, args.check_vectors) for start, end in chunks]

    if len(chunks) == 1:
        _init_worker(prepared)
        chunk_results = [_run_chunk(tasks[0])]
        _WORKER_STATE.clear()
    else:
        with ProcessPoolExecutor(len(chunks), initializer=_init_worker, initargs=(prepared,)) as pool:
            chunk_results = list(pool.map(_run_chunk, tasks))

    records = [rec for chunk, _ in chunk_results for rec in chunk]
    tree, join, tour, vector, reduced, join_exact, feasible = zip(*records)
    edge_totals = [sum(column) for column in zip(*(totals for _, totals in chunk_results))]
    exact = args.mode == "rational"
    cost_unit, vector_unit = Fraction(1, prepared.metric.scale), Fraction(1, prepared.scale)
    ratio_unit = cost_unit / lp

    def written(mean: Fraction) -> object:
        return format_rational(mean) if exact else float(mean)

    def agg(numerators: tuple[int, ...], unit: Fraction) -> object:
        return written(sample_statistics(numerators, unit)[0])

    ratio_mean, ratio_std, ratio_ci3 = sample_statistics([t + j for t, j in zip(tree, join)], ratio_unit)
    # A cut's load reports only its mean: one exact sum, with none of
    # sample_statistics' squares (up to 198 cuts on the chain corpus).
    per_cut = {
        _side_key(side): written(sum(edge_totals[e] for e in boundary) * vector_unit / samples)
        for side, boundary in zip(prepared.cut_sides, prepared.boundaries)
    }

    feasible_known = [f for f in feasible if f is not None]
    report = {
        "command": "run",
        "version": __version__,
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
            "scheme": SEED_SCHEME,
            "chunks": [list(c) for c in chunks],
            "sample_states": seed_words(args.seed, 0, min(samples, 100))[:, :2].tolist(),
        },
        "results": {
            "samples": samples,
            "mean_tree_cost": agg(tree, cost_unit),
            "mean_join_cost": agg(join, cost_unit),
            "mean_tour_cost": agg(tour, cost_unit),
            "mean_vector_total": agg(vector, vector_unit),
            "mean_reduced_count": sum(reduced) / samples,
            "join_exact_fraction": sum(join_exact) / samples,
            "combined_ratio_mean": float(ratio_mean),
            "combined_ratio_std": ratio_std,
            "combined_ratio_ci3": ratio_ci3,
            "mean_tour_ratio": float(sample_statistics(tour, ratio_unit)[0]),
            "per_cut_mean_load": per_cut,
            "feasible_checked": len(feasible_known),
            "feasible_failures": sum(1 for f in feasible_known if not f),
        },
    }
    text = canonical_json(report)
    _emit(text, args.out)
    if args.csv:
        _write_csv(args.csv, report["results"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-lemmas


def cmd_verify(args: argparse.Namespace) -> int:
    params = charging_params(args)
    jobs: list[tuple[str, HalfIntegralInstance, str]] = []
    if args.instance or args.gen:
        inst = load_instance(args)
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
            checks = degree_cut_rows(inst)
        else:
            prepared = prepare_instance(inst, params=params)
            expectations = exact_pipeline_expectations(prepared)
            checks = [
                *run_lemma_battery(prepared, expectations),
                *cut_load_rows(prepared, expectations),
                six_edge_floor_row(prepared),
                *sampled_feasibility_rows(prepared, inst.name, args.feasibility_samples, seed=0),
            ]
        rows.extend((label, chk) for chk in checks)

    failed = [(label, chk) for label, chk in rows if not chk.passed]
    payload = {
        "command": "verify-lemmas",
        "version": __version__,
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
    report = run_degree_cut(
        inst, samples=args.samples, seed=args.seed, check_vectors=args.check_vectors
    )
    bound = degree_vertex_bound(inst.n)
    expected = report["expected"]
    expected.update(per_vertex_bound=bound, per_vertex_ok=expected["per_vertex_max"] <= bound)
    payload = {
        "command": "degreecut",
        "version": __version__,
        "config": _config_dict(
            args, ("instance", "gen", "samples", "seed", "check_vectors")
        ),
        **report,
    }
    _emit(canonical_json(payload), args.out)
    if args.csv:
        _write_csv(args.csv, report["results"])
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


def _check_ranges(args: argparse.Namespace) -> None:
    """Reject a negative ``--seed`` and a non-positive ``--samples``,
    ``--feasibility-samples`` or ``--jobs``, whichever subcommand takes them."""
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ArgumentError(f"--seed must be non-negative, got {seed}")
    for name in ("samples", "feasibility_samples", "jobs"):
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise ArgumentError(f"--{name.replace('_', '-')} must be positive, got {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        for path in (getattr(args, "out", None), getattr(args, "csv", None)):
            _check_writable(path)
        return args.func(args)
    except (InstanceError, DegreeCutError) as exc:
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
