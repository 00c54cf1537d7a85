"""Byte-for-byte golden artifacts of the CLI on the bundled corpus.

``tests/golden/`` holds what ``pipeline`` writes for the corpus and the
``tower_blue_red_green`` goal, with one scripted dropped effect so the
execution log records a replan. The files were produced once and are compared
byte for byte: a refactor that keeps plans, costs and file formats must leave
them untouched. The same plan must come out of ``plan --library`` and, up to
the PDDL spelling of names, out of ``plan --domain/--problem`` on the emitted
PDDL. ``tests/golden/hmax/`` holds the plan and execution log of the same
run with ``--heuristic hmax``. ``tests/data/library_with_pddl_names.json`` is
the golden library as it was saved before library files dropped their
``pddl_names`` map; it must still load and plan the same.
"""

import json
from pathlib import Path

import pytest

from demoplan.cli import EXIT_OK, main
from demoplan.learning import load_library
from demoplan.pddl import library_name_map
from demoplan.synth import corpus_goals

GOLDEN = Path(__file__).parent / "golden"
OLD_LIBRARY = Path(__file__).parent / "data" / "library_with_pddl_names.json"
ARTIFACTS = (
    "library.json",
    "domain.pddl",
    "problem.pddl",
    "plan.json",
    "execution.json",
    "transcript.txt",
)
GOAL_ARGS = [
    arg
    for literal in corpus_goals()["tower_blue_red_green"]
    for arg in ("--goal", f"{literal.atom.name}({','.join(literal.atom.args)})")
]


def _pipeline(root, out, *extra):
    traces = sorted(str(p) for p in (root / "traces").glob("p*.json"))
    code = main(
        [
            "pipeline",
            *traces,
            "--init", str(root / "traces" / "init.json"),
            *GOAL_ARGS,
            "--faults", str(root / "faults.json"),
            "--out", str(out),
            *extra,
        ]
    )
    assert code == EXIT_OK


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["gen-traces", "--out", str(root / "traces")]) == EXIT_OK
    (root / "faults.json").write_text(json.dumps([{"step": 2, "mode": "drop_effects"}]))
    _pipeline(root, root / "out")
    return root


@pytest.mark.parametrize("name", ARTIFACTS)
def test_pipeline_artifact_matches_golden(run, name):
    assert (run / "out" / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def hmax_out(run):
    _pipeline(run, run / "out_hmax", "--heuristic", "hmax")
    return run / "out_hmax"


@pytest.mark.parametrize("name", ("plan.json", "execution.json"))
def test_hmax_pipeline_artifact_matches_golden(hmax_out, name):
    assert (hmax_out / name).read_bytes() == (GOLDEN / "hmax" / name).read_bytes()


def test_library_and_pddl_planning_agree_with_the_golden_plan(run, capsys):
    out = run / "out"
    capsys.readouterr()
    code = main(
        ["plan", "--library", str(out / "library.json"),
         "--init", str(run / "traces" / "init.json"), *GOAL_ARGS]
    )
    assert code == EXIT_OK
    library_plan = capsys.readouterr().out
    assert library_plan == (GOLDEN / "plan.json").read_text()

    code = main(["plan", "--domain", str(out / "domain.pddl"), "--problem", str(out / "problem.pddl")])
    assert code == EXIT_OK
    pddl_plan = json.loads(capsys.readouterr().out)
    expected = json.loads(library_plan)
    init_objects = [o["id"] for o in json.loads((run / "traces" / "init.json").read_text())["objects"]]
    names = library_name_map(load_library(out / "library.json")).extended(init_objects)
    for action in expected["actions"]:
        action["name"] = names.pddl(action["name"])
        action["objects"] = [names.pddl(o) for o in action["objects"]]
    assert pddl_plan == expected


def test_a_library_file_with_pddl_names_loads_and_plans_as_before(run, capsys):
    old, new = load_library(OLD_LIBRARY), load_library(GOLDEN / "library.json")
    assert (old.operators, old.counts) == (new.operators, new.counts)
    assert (old.vocabulary, old.types) == (new.vocabulary, new.types)
    capsys.readouterr()
    code = main(
        ["plan", "--library", str(OLD_LIBRARY), "--init", str(run / "traces" / "init.json"), *GOAL_ARGS]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "plan.json").read_text()
