"""The command-line driver: subcommands, exit codes, determinism, reports."""

import hashlib
import json
import operator
import os
import pickle
import sys
import time
from fractions import Fraction

import pytest
from test_ojoin import reference_statistics

import hitsp
import hitsp.cuts
import hitsp.maxent
from hitsp._util import _unlimited_int_digits, canonical_json, format_rational
from hitsp.cli import main
from hitsp.instance import parse_instance
from hitsp.ojoin import prepare_instance


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "chain2.json"
    assert main(["gen", "--gen", "cycle_chain:2", "--out", str(path)]) == 0
    return str(path)


def test_gen_writes_parseable_instance(chain_file):
    with open(chain_file, "r", encoding="utf-8") as fh:
        inst = parse_instance(fh.read())
    assert inst.name == "cycle_chain_2"


def test_gen_accepts_gadget_names(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen", "--gen", "four_blob", "--out", str(out)]) == 0
    with open(out, "r", encoding="utf-8") as fh:
        assert parse_instance(fh.read()).name == "four_blob"


def test_gen_rejects_unknown_family(capsys):
    assert main(["gen", "--gen", "nosuch:3"]) == 2
    assert "invalid instance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--gen", "envelope:0"], "envelope needs size >= 1"),
        (["hierarchy", "--gen", "envelope:-1"], "envelope needs size >= 1"),
        (["run", "--gen", "cycle_chain:1"], "cycle_chain needs size >= 2"),
        (["degreecut", "--gen", "k5_degree:4"], "k5_degree needs size >= 5"),
        (["run", "--gen", "random_half_integral:2"], "random_half_integral needs size >= 5"),
    ],
)
def test_gen_rejects_undersized_families(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"invalid instance: {message}\n"


def test_validate_reports_summary(chain_file, tmp_path):
    out = tmp_path / "v.json"
    assert main(["validate", "--instance", chain_file, "--out", str(out)]) == 0
    data = read_json(str(out))
    assert data["valid"] and data["n"] == 4 and data["lp_cost"] == 4


def test_validate_missing_file_exits_2():
    assert main(["validate", "--instance", "/nonexistent/x.json"]) == 2


@pytest.mark.parametrize("command", ["validate", "run", "verify-lemmas", "degreecut"])
def test_unreadable_or_unwritable_paths_exit_2(command, tmp_path, capsys, monkeypatch):
    """A directory or a missing directory, given as a file, is a bad
    argument named in the message, not a traceback.  An output path is
    refused before the instance is even loaded, and no report is written."""
    gen = ["--gen", "k5_degree:5" if command == "degreecut" else "envelope:1"]
    fast = {"run": ["--samples", "2"], "degreecut": ["--samples", "2"]}.get(command, [])
    assert main([command, *fast, "--instance", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments: ") and f"cannot read --instance {tmp_path}: Is a directory" in err

    def no_set_up(args):
        raise AssertionError("set-up ran before the output paths were checked")

    monkeypatch.setattr("hitsp.cli.load_instance", no_set_up)
    report = tmp_path / "report.json"
    cases = [
        ([*gen, "--out", str(tmp_path)], f"cannot write {tmp_path}: Is a directory"),
        ([*gen, "--out", str(tmp_path / "no" / "r.json")], "No such file or directory"),
        ([*gen, "--out", str(report / "r.json")], f"cannot write {report / 'r.json'}: Not a directory"),
    ]
    if command in ("run", "degreecut"):
        cases.append(([*gen, "--csv", str(tmp_path)], f"cannot write {tmp_path}: Is a directory"))
        cases.append(([*gen, "--out", str(report), "--csv", str(tmp_path)], "Is a directory"))
    report.write_text("earlier report")
    for flags, message in cases:
        assert main([command, *fast, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments: ") and message in err
    assert report.read_text() == "earlier report"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"name": "\xff"}', "is not UTF-8"),
        (b"[" * 100_000, "nested too deeply"),
    ],
    ids=["not-utf8", "deep-nesting"],
)
def test_malformed_files_exit_2(content, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["validate", "--instance", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid instance: ") and message in err


def test_integer_literals_past_the_digit_limit_are_read(tmp_path, capsys):
    """A 5,001-digit integer cost parses; the instance then fails only
    because the cost is negative."""
    path = tmp_path / "big.json"
    assert main(["gen", "--gen", "envelope:1", "--out", str(path)]) == 0
    data = read_json(path)
    data["edges"][0]["cost"] = -(10**5000)
    with _unlimited_int_digits():
        path.write_text(json.dumps(data))
    assert main(["validate", "--instance", str(path)]) == 2
    assert "has negative cost -1" + "0" * 5000 in capsys.readouterr().err
    data["edges"][0]["cost"] = 10**5000
    with _unlimited_int_digits():
        path.write_text(json.dumps(data))
    assert main(["validate", "--instance", str(path)]) == 0


def test_validate_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "n": 3, "edges": []}')
    assert main(["validate", "--instance", str(bad)]) == 2


def test_validate_rejects_more_vertices_than_edges_before_allocating(tmp_path, capsys):
    edges = [{"u": u, "v": v, "x": "1", "cost": 1} for u, v in ((0, 1), (1, 2), (0, 2))]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"name": "big", "n": 10**15, "edges": edges}))
    assert main(["validate", "--instance", str(big)]) == 2
    assert "3 edges cannot give" in capsys.readouterr().err


def test_hierarchy_json_and_dot(chain_file, tmp_path):
    out = tmp_path / "h.json"
    assert main(["hierarchy", "--instance", chain_file, "--out", str(out)]) == 0
    data = read_json(str(out))
    assert "nodes" in data and "final_cycle" in data
    dot = tmp_path / "h.dot"
    assert main(["hierarchy", "--instance", chain_file, "--dot",
                 "--out", str(dot)]) == 0
    assert dot.read_text().startswith("digraph hierarchy {")


def test_run_report_shape(chain_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", "--instance", chain_file, "--samples", "60",
                 "--seed", "5", "--out", str(out)]) == 0
    data = read_json(str(out))
    assert data["config"]["samples"] == 60
    assert data["results"]["samples"] == 60
    assert data["seeds"]["root"] == 5
    assert len(data["seeds"]["sample_states"]) == 60
    assert data["instance"]["lp_cost"] == 4
    assert set(data["results"]["per_cut_mean_load"])  # non-empty
    lo, hi = data["results"]["combined_ratio_ci3"]
    assert lo <= data["results"]["combined_ratio_mean"] <= hi


def test_run_repeat_is_byte_identical(chain_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["run", "--instance", chain_file, "--samples", "80", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_parallel_repeat_is_byte_identical(chain_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["run", "--instance", chain_file, "--samples", "80", "--seed", "3",
            "--jobs", "2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_results_do_not_depend_on_chunking(chain_file, tmp_path):
    # random_half_integral:10 has a cut-free level, whose walk tables are
    # pickled into the workers.
    for instance in (["--instance", chain_file], ["--gen", "random_half_integral:10"]):
        reports = []
        for jobs in ("1", "3"):
            out = tmp_path / f"j{jobs}.json"
            assert main(["run", *instance, "--samples", "45",
                         "--seed", "11", "--jobs", jobs, "--out", str(out)]) == 0
            data = read_json(str(out))
            reports.append((data["results"], data["seeds"]["sample_states"]))
        assert reports[0] == reports[1], instance


def test_run_prepares_the_instance_once_at_one_job(chain_file, tmp_path, monkeypatch):
    import hitsp.cli

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return prepare_instance(*args, **kwargs)

    monkeypatch.setattr(hitsp.cli, "prepare_instance", counting)
    assert main(["run", "--instance", chain_file, "--samples", "12",
                 "--jobs", "1", "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


def test_workers_adopt_the_parents_prepared_instance(chain_file, tmp_path, monkeypatch):
    import hitsp.cli

    prepared = prepare_instance(parse_instance(open(chain_file).read()))

    def refuse(*args, **kwargs):
        raise AssertionError("prepare_instance called")

    monkeypatch.setattr(hitsp.cli, "prepare_instance", refuse)
    hitsp.cli._init_worker(pickle.loads(pickle.dumps(prepared)))
    try:
        records, totals = hitsp.cli._run_chunk((11, 0, 4, False))
        assert len(records) == 4 and len(totals) == len(prepared.support.edges)
    finally:
        hitsp.cli._WORKER_STATE.clear()

    # Forked workers inherit the patch: only the parent may prepare.
    parent = os.getpid()

    def parent_only(*args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError("a worker re-prepared the instance")
        return prepare_instance(*args, **kwargs)

    monkeypatch.setattr(hitsp.cli, "prepare_instance", parent_only)
    monkeypatch.setattr(hitsp.cli.os, "cpu_count", lambda: 2)
    reports = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.json"
        assert main(["run", "--instance", chain_file, "--samples", "30", "--seed", "5",
                     "--jobs", jobs, "--out", str(out)]) == 0
        data = read_json(str(out))
        # Only the fields naming the job split may differ.
        assert str(data["config"].pop("jobs")) == jobs
        assert len(data["seeds"].pop("chunks")) == int(jobs)
        reports[jobs] = data
    assert reports["1"] == reports["2"]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_run_rejects_non_positive_samples(samples, monkeypatch, capsys):
    import hitsp.cli

    def no_prepare(*args, **kwargs):
        raise AssertionError("prepared an instance for an invalid run")

    monkeypatch.setattr(hitsp.cli, "prepare_instance", no_prepare)
    assert main(["run", "--gen", "envelope:2", "--samples", samples]) == 2
    assert "--samples must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_rejects_non_positive_jobs(jobs, capsys):
    assert main(["run", "--gen", "envelope:2", "--samples", "5", "--jobs", jobs]) == 2
    assert f"--jobs must be positive, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_non_positive_feasibility_samples(samples, capsys):
    argv = ["verify-lemmas", "--gen", "envelope:2", "--feasibility-samples", samples]
    assert main(argv) == 2
    assert "--feasibility-samples must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_degreecut_rejects_non_positive_samples(samples, capsys):
    assert main(["degreecut", "--gen", "k5_degree:5", "--samples", samples]) == 2
    assert "--samples must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--gen", "random_half_integral:8"],
        ["validate", "--gen", "random_half_integral:8"],
        ["hierarchy", "--gen", "random_half_integral:8"],
        ["run", "--gen", "envelope:2"],
        ["verify-lemmas", "--gen", "random_half_integral:8"],
        ["degreecut", "--gen", "k5_degree:5"],
    ],
)
def test_negative_seed_exits_2(argv, capsys):
    assert main([*argv, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "invalid arguments: --seed must be non-negative, got -1\n"


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [("--tau", "0.1", "not a rational"), ("--alpha", "3/2", "must lie in [0, 1]")],
)
def test_run_rejects_bad_charging_params(flag, value, message, capsys):
    assert main(["run", "--gen", "envelope:2", "--samples", "5", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments:")
    assert message in err


def test_run_check_vectors_on_a_large_random_instance(tmp_path):
    # Support n = 27: every odd cut is checked exactly at any size.
    out = tmp_path / "r.json"
    assert main(["run", "--gen", "random_half_integral:26", "--samples", "4",
                 "--check-vectors", "--out", str(out)]) == 0
    data = read_json(str(out))
    assert data["results"]["feasible_checked"] == 4
    assert data["results"]["feasible_failures"] == 0


def test_chunk_ranges_never_exceed_the_cpu_count(monkeypatch):
    # Only the arithmetic is exercised: starting that many workers is the hazard.
    import hitsp.cli

    monkeypatch.setattr(hitsp.cli.os, "cpu_count", lambda: 2)
    assert hitsp.cli._chunk_ranges(5000, 5000) == [(0, 2500), (2500, 5000)]
    assert hitsp.cli._chunk_ranges(5, 1) == [(0, 5)]
    assert hitsp.cli._chunk_ranges(1, 8) == [(0, 1)]
    monkeypatch.setattr(hitsp.cli.os, "cpu_count", lambda: None)
    assert hitsp.cli._chunk_ranges(7, 3) == [(0, 7)]


def test_run_float_mode_and_csv(chain_file, tmp_path):
    out, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(["run", "--instance", chain_file, "--samples", "30",
                 "--mode", "float", "--out", str(out),
                 "--csv", str(csv_path)]) == 0
    data = read_json(str(out))
    assert isinstance(data["results"]["mean_tree_cost"], float)
    text = csv_path.read_text()
    assert text.startswith("metric,value")
    assert "combined_ratio_mean" in text


def test_run_check_vectors(chain_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", "--instance", chain_file, "--samples", "10",
                 "--check-vectors", "--out", str(out)]) == 0
    data = read_json(str(out))
    assert data["results"]["feasible_checked"] == 10
    assert data["results"]["feasible_failures"] == 0


def test_verify_single_instance_passes(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify-lemmas", "--gen", "doubled_triangle",
                 "--out", str(out)]) == 0
    data = read_json(str(out))
    assert data["summary"]["failed"] == 0
    assert data["summary"]["total"] > 0


def test_verify_envelope_6_fits_the_oracle_work_cap(tmp_path):
    # 2^20 connectors x 2^4 unit patterns, but only 4 cut-parity states.
    out = tmp_path / "verify.json"
    assert main(["verify-lemmas", "--gen", "envelope:6", "--out", str(out)]) == 0
    assert read_json(str(out))["summary"]["failed"] == 0


def test_default_verify_report_rows_are_pinned(tmp_path, capsys):
    # Every row of the built-in corpus, envelope:5 and the k5_degree rows
    # included, which the benchmark's golden digests leave out.
    out = tmp_path / "verify.json"
    assert main(["verify-lemmas", "--out", str(out)]) == 0
    rows = read_json(str(out))["rows"]
    assert len(rows) == 816
    digest = hashlib.sha256(canonical_json(rows).encode()).hexdigest()
    assert digest == "9c41bc6f53fb8d60c84652353fc3ce0e51d649cf0108d8441bc50fd4e5a40427"


def test_verify_reports_broken_floor_with_exit_3(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify-lemmas", "--gen", "doubled_triangle",
                 "--tau", "1/6", "--out", str(out)])
    assert code == 3
    data = read_json(str(out))
    failed = [r["name"] for r in data["rows"] if not r["passed"]]
    assert "six-edge-floor" in failed


def test_verify_degree_instance_routes_to_degree_rows(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify-lemmas", "--gen", "k5_degree:5",
                 "--out", str(out)]) == 0
    data = read_json(str(out))
    names = {r["name"] for r in data["rows"]}
    assert "k5-matching-count" in names
    assert "z-expected-half" in names


@pytest.mark.parametrize("spec", ["k5_degree:5", "envelope:2"])
def test_verify_rows_pass_exactly_when_their_numbers_say_so(spec, tmp_path):
    relations = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}
    out = tmp_path / "verify.json"
    assert main(["verify-lemmas", "--gen", spec, "--out", str(out)]) == 0
    rows = read_json(str(out))["rows"]
    assert rows
    for row in rows:
        holds = relations[row["relation"]](Fraction(row["value"]), Fraction(row["bound"]))
        assert row["passed"] is holds, row


def test_degreecut_finds_the_degree_cut_witness_once(monkeypatch, tmp_path):
    calls = []
    enumerate_min_cuts = hitsp.cuts.enumerate_min_cuts

    def counting(*args, **kwargs):
        calls.append(1)
        return enumerate_min_cuts(*args, **kwargs)

    monkeypatch.setattr(hitsp.cuts, "enumerate_min_cuts", counting)
    assert main(["degreecut", "--gen", "k5_degree:6", "--samples", "5",
                 "--out", str(tmp_path / "dc.json")]) == 0
    assert len(calls) == 1


def test_run_maps_a_missing_min_cut_to_a_structure_error(monkeypatch, capsys):
    # Cut 0 of split_octahedron is the vertex {1}, which names a leaf.
    enumerate_min_cuts = hitsp.cuts.enumerate_min_cuts
    monkeypatch.setattr(hitsp.cuts, "enumerate_min_cuts", lambda support: enumerate_min_cuts(support)[1:])
    assert main(["run", "--gen", "split_octahedron", "--samples", "3"]) == 2
    assert capsys.readouterr().err == "structure error: vertex set [1] is not a minimum cut\n"


# sha256 of the hierarchy reports, which no RNG or float reaches.
@pytest.mark.parametrize(
    "spec, flags, digest",
    [
        ("envelope:10", [], "5cca6a44b0f511dc08da4e52958e933995e678649d734bf4353b3d0586b5b9f6"),
        ("envelope:10", ["--dot"], "e446d0eda63d2ee25bb1b63f2feb60dbecf6379b095884988e9e0141e341f979"),
        ("four_blob", [], "a5a1b9f6e396b8eb4e620ec671c129bcbfc11c1e3e88eb861fd1664d6163aa67"),
        ("four_blob", ["--dot"], "049b66fa0ba47e5fbd44e413f77b807bdd632d7928e89a2f85ab335204d69c25"),
        ("split_octahedron", [], "a6990bc214f6333904eb0ce052712e44e6164570ad9bbbc54856e8ccd82a0f9a"),
        ("split_octahedron", ["--dot"], "2aaa75bcf3470e0af280fac7a792ae156232643ca88d5a8162628bb318092863"),
    ],
)
def test_hierarchy_reports_are_pinned(tmp_path, spec, flags, digest):
    out = tmp_path / "hierarchy"
    assert main(["hierarchy", "--gen", spec, *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_degreecut_report_and_rejection(tmp_path, capsys):
    out = tmp_path / "dc.json"
    assert main(["degreecut", "--gen", "k5_degree:6", "--samples", "50",
                 "--seed", "2", "--out", str(out)]) == 0
    data = read_json(str(out))
    assert data["expected"]["edge_value"] == "1/2"
    assert data["expected"]["per_vertex_ok"] is True
    assert data["results"]["feasible_failures"] == 0
    assert main(["degreecut", "--gen", "doubled_triangle",
                 "--samples", "5"]) == 2
    assert "not a degree-cut instance" in capsys.readouterr().err


def test_degreecut_csv_holds_every_scalar_result(tmp_path):
    out, csv_path = tmp_path / "dc.json", tmp_path / "dc.csv"
    assert main(["degreecut", "--gen", "k5_degree:5", "--samples", "30", "--seed", "4",
                 "--check-vectors", "--out", str(out), "--csv", str(csv_path)]) == 0
    results = read_json(str(out))["results"]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "metric,value"
    rows = [line.split(",") for line in lines[1:]]
    scalars = {k: v for k, v in results.items() if not isinstance(v, list)}
    assert sorted(name for name, _ in rows) == sorted(scalars) and "samples" in scalars
    for name, text in rows:
        value = scalars[name]
        assert text == ("" if value is None else str(value)), name
        assert value is None or type(value)(text) == value, name


def test_degreecut_refuses_too_many_matchings(capsys):
    """random_half_integral:25 has 12,034 maximum matchings, past the cap."""
    start = time.perf_counter()
    assert main(["degreecut", "--gen", "random_half_integral:25", "--samples", "20"]) == 4
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == "resource cap: more than 10000 maximum matchings\n"


@pytest.mark.parametrize(
    "argv, level",
    [
        (["degreecut", "--gen", "k5_degree:5"], "4-vertex, 8-edge"),
        (["run", "--gen", "split_octahedron"], "5-vertex, 8-edge"),
    ],
)
def test_a_stalled_fit_exits_4(argv, level, monkeypatch, capsys):
    """A weight fit that reaches its iteration cap is a resource cap: one
    line naming the stalled level, no traceback."""
    monkeypatch.setattr(hitsp.maxent, "FIT_ITERATION_CAP", 1)
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"resource cap: marginal fit of a {level} level stalled at error ")
    assert err.endswith(" after 1 iterations\n")


def test_degreecut_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["degreecut", "--gen", "k5_degree:5", "--samples", "40", "--seed", "6"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reports_embed_version_and_config(chain_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", "--instance", chain_file, "--samples", "5",
                 "--out", str(out)]) == 0
    data = read_json(str(out))
    assert data["version"]
    assert data["config"]["subcommand"] == "run"
    assert data["seeds"]["scheme"].startswith("SeedSequence")


def test_reports_carry_the_package_version(chain_file, tmp_path):
    runs = [
        ["run", "--instance", chain_file, "--samples", "5"],
        ["verify-lemmas", "--gen", "doubled_triangle", "--feasibility-samples", "2"],
        ["degreecut", "--gen", "k5_degree:5", "--samples", "5"],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"r{i}.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert read_json(str(out))["version"] == hitsp.__version__


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_run_aggregates_equal_the_fraction_arithmetic(tmp_path, mode):
    """Integer sums in ``run`` give the bytes of per-sample ``Fraction`` sums."""
    from dataclasses import replace

    from hitsp.instance import generate_instance, serialize_instance
    from hitsp.ojoin import JoinCalculator, run_sample, sample_rng

    inst = generate_instance("envelope", 3)
    costs = [Fraction(1 + i % 5, 3 + 2 * (i % 2)) for i in range(len(inst.edges))]
    inst = replace(inst, edges=tuple(replace(e, cost=c) for e, c in zip(inst.edges, costs)))
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst))
    # Two workers merge their chunks' per-edge vector sums into the same loads.
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"r{jobs}.json"
        assert main(["run", "--instance", str(path), "--samples", "40", "--seed", "9",
                     "--mode", mode, "--jobs", jobs, "--out", str(out)]) == 0
        reports.append(read_json(str(out)))
    assert reports[1]["seeds"]["chunks"] == ([[0, 20], [20, 40]] if (os.cpu_count() or 1) > 1 else [[0, 40]])
    assert reports[0]["results"] == reports[1]["results"]
    results = reports[1]["results"]

    prepared = prepare_instance(parse_instance(path.read_text()))
    assert prepared.metric.scale == 15
    lp = inst.lp_cost()
    joins = JoinCalculator(prepared.metric)
    outs = [run_sample(prepared, sample_rng(9, i), joins) for i in range(40)]

    def agg(values):
        mean = sum(values, Fraction(0)) / len(values)
        return format_rational(mean) if mode == "rational" else float(mean)

    for field, name in (("tree_cost", "mean_tree_cost"), ("join_cost", "mean_join_cost"),
                        ("tour_cost", "mean_tour_cost"), ("vector_total", "mean_vector_total")):
        assert results[name] == agg([getattr(o, field) for o in outs]), name
    mean, std, ci3 = reference_statistics([(o.tree_cost + o.join_cost) / lp for o in outs])
    assert (results["combined_ratio_mean"], results["combined_ratio_std"], results["combined_ratio_ci3"]) == (
        mean, std, ci3
    )
    assert results["mean_tour_ratio"] == reference_statistics([o.tour_cost / lp for o in outs])[0]
    for side in prepared.cut_sides:
        mean = sum((o.cut_loads[side] for o in outs), Fraction(0)) / 40
        key = ",".join(str(v) for v in sorted(side))
        assert results["per_cut_mean_load"][key] == (format_rational(mean) if mode == "rational" else float(mean))


def test_reports_write_rationals_past_the_digit_limit():
    # 5,000 sevens over 3 (coprime: the digit sum is 35,000) and 10^5000.
    sevens = 7 * (10**5000 - 1) // 9
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert format_rational(Fraction(sevens, 3)) == "7" * 5000 + "/3"
    text = canonical_json({"load": format_rational(Fraction(10**5000))})
    assert text == '{\n  "load": 1' + "0" * 5000 + "\n}\n"
    # A Fraction left in a report is written as format_rational writes it.
    assert canonical_json({"load": Fraction(10**5000)}) == text
    assert canonical_json([Fraction(sevens, 3)]) == '[\n  "' + "7" * 5000 + '/3"\n]\n'
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
