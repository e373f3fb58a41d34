"""Seeded corruptions of valid instance files: every subcommand must end in
exit 0 or 2, never in an escaped exception.  Half the mutations are of two
kinds that keep the file valid but change its support, so the hierarchy,
plan and degree-cut checks run on it: a 2-switch of two same-valued edges'
endpoints (which keeps every vertex's x-degree) and ``e_plus`` moved to
another doubled edge.  Either leaves the file as it is when it has no such
pair or edge."""

import copy
import json
import random

import pytest

from hitsp.cli import main
from hitsp.instance import GADGET_BUILDERS, generate_instance, serialize_instance

COMMANDS = (
    ["validate"],
    ["hierarchy"],
    ["run", "--samples", "3"],
    ["verify-lemmas", "--feasibility-samples", "2"],
    ["degreecut", "--samples", "3"],
)
BREAKING = ("drop-edge", "duplicate-edge", "x", "cost", "vertex", "missing-key", "truncate")
KEEPING = ("switch", "e-plus")
MUTATIONS = 24


def mutate(payload: dict, rng: random.Random) -> tuple[str, str]:
    """One mutation of an instance payload, returned as (kind, file text)."""
    data = copy.deepcopy(payload)
    edges = data["edges"]
    i = rng.randrange(len(edges))
    kind = rng.choice(KEEPING if rng.random() < 0.5 else BREAKING)
    if kind == "drop-edge":
        del edges[i]
    elif kind == "duplicate-edge":
        edges.insert(i, dict(edges[i]))
    elif kind == "x":
        edges[i]["x"] = rng.choice(["0", "2", "1/3"])
    elif kind == "cost":
        edges[i]["cost"] = rng.choice([-1, "-1/2", "abc", "1/0", None])
    elif kind == "vertex":
        edges[i][rng.choice("uv")] = rng.choice([-1, data["n"], data["n"] + 7])
    elif kind == "missing-key":
        owner = data if rng.random() < 0.5 else edges[i]
        del owner[rng.choice(sorted(owner))]
    elif kind == "switch":
        # (a, b), (c, d) become (a, d), (c, b), or (a, c), (b, d): no loops.
        twins = [j for j, e in enumerate(edges) if j != i and e["x"] == edges[i]["x"]]
        j = rng.choice(twins) if twins else i
        a, b, c, d = edges[i]["u"], edges[i]["v"], edges[j]["u"], edges[j]["v"]
        if j != i and a != d and c != b:
            edges[i]["v"], edges[j]["v"] = d, b
        elif j != i and a != c and b != d:
            edges[i]["v"], edges[j]["u"] = c, b
    elif kind == "e-plus":
        doubled = [j for j, e in enumerate(edges) if e["x"] == "1" and j != data.get("e_plus")]
        if doubled:
            data["e_plus"] = rng.choice(doubled)
    text = json.dumps(data)
    if kind == "truncate":
        text = text[: rng.randrange(len(text))]
    return kind, text


@pytest.mark.parametrize(
    "label, instance",
    [
        ("cycle_chain:3", lambda: generate_instance("cycle_chain", 3)),
        ("four_blob", GADGET_BUILDERS["four_blob"]),
        ("k5_degree:5", lambda: generate_instance("k5_degree", 5)),
    ],
)
def test_mutated_instances_exit_0_or_2(label, instance, tmp_path, capsys):
    payload = json.loads(serialize_instance(instance()))
    rng = random.Random(sum(map(ord, label)))
    path = tmp_path / "mutated.json"
    for _ in range(MUTATIONS):
        kind, text = mutate(payload, rng)
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            code = main([*command, "--instance", str(path), "--out", str(tmp_path / "out")])
            assert code in (0, 2), (label, kind, command, capsys.readouterr().err)
    capsys.readouterr()
