"""The command-line driver: subcommands, exit codes, determinism, reports."""

import json

import pytest

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


def test_validate_reports_summary(chain_file, tmp_path):
    out = tmp_path / "v.json"
    assert main(["validate", "--instance", chain_file, "--out", str(out)]) == 0
    data = read_json(str(out))
    assert data["valid"] and data["n"] == 4 and data["lp_cost"] == 4


def test_validate_missing_file_exits_2():
    assert main(["validate", "--instance", "/nonexistent/x.json"]) == 2


def test_validate_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "n": 3, "edges": []}')
    assert main(["validate", "--instance", str(bad)]) == 2


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
    reports = []
    for jobs in ("1", "3"):
        out = tmp_path / f"j{jobs}.json"
        assert main(["run", "--instance", chain_file, "--samples", "45",
                     "--seed", "11", "--jobs", jobs, "--out", str(out)]) == 0
        data = read_json(str(out))
        reports.append((data["results"], data["seeds"]["sample_states"]))
    assert reports[0] == reports[1]


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


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_run_rejects_non_positive_samples(samples, monkeypatch, capsys):
    import hitsp.cli

    def no_prepare(*args, **kwargs):
        raise AssertionError("prepared an instance for an invalid run")

    monkeypatch.setattr(hitsp.cli, "prepare_instance", no_prepare)
    assert main(["run", "--gen", "envelope:2", "--samples", samples]) == 2
    assert "--samples must be positive" in capsys.readouterr().err


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
