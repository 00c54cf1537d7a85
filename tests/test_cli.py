import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import demoplan
from demoplan.cli import (
    EXIT_EXECUTION,
    EXIT_INVALID,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_UNSOLVABLE,
    build_parser,
    load_init,
    main,
    parse_literal_text,
)
from demoplan.errors import ParseError, SchemaError
from demoplan.learning import OperatorLibrary, load_library
from demoplan.model import Literal, ObjectInstance
from demoplan.monitor import MonitorConfig
from demoplan.pddl import parse_domain
from demoplan.segmentation import DEFAULT_RULES
from demoplan.synth import stacking_types, stacking_vocabulary
from demoplan.traces import DebounceConfig, debounce, load_trace

from helpers import rules_to_json
from oracles import json_text_reference

GOAL = "onTop(Cube_red1,Cube_green1)"
IMPOSSIBLE_GOAL = "onTop(Cube_red1,Cube_red1)"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Traces, a learned library, and pipeline artifacts, built once."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-traces", "--out", str(root / "traces")]) == EXIT_OK
    traces = sorted(str(p) for p in (root / "traces").glob("p*.json"))
    assert len(traces) == 12
    assert main(["learn", *traces, "--library", str(root / "library.json")]) == EXIT_OK
    # a reduced object set keeps unsolvability proofs cheap: the planner must
    # exhaust the whole reachable space before it can answer "no plan"
    (root / "small_init.json").write_text(
        json.dumps(
            {
                "objects": [
                    {"id": "Table_1", "type": "Table"},
                    {"id": "Right_hand", "type": "Hand"},
                    {"id": "Cube_red1", "type": "Wooden_cube"},
                    {"id": "Cube_green1", "type": "Wooden_cube"},
                ],
                "atoms": [
                    ["onTop", "Cube_red1", "Table_1"],
                    ["inTouch", "Cube_red1", "Table_1"],
                    ["onTop", "Cube_green1", "Table_1"],
                    ["inTouch", "Cube_green1", "Table_1"],
                ],
            }
        )
    )
    assert (
        main(
            [
                "pipeline",
                *traces,
                "--init", str(root / "traces" / "init.json"),
                "--goal", GOAL,
                "--out", str(root / "artifacts"),
            ]
        )
        == EXIT_OK
    )
    return root


def _plan_args(workspace, *extra):
    return [
        "plan",
        "--library", str(workspace / "library.json"),
        "--init", str(workspace / "traces" / "init.json"),
        *extra,
    ]


class TestLiteralSyntax:
    def test_accepts_negation_and_whitespace(self):
        vocabulary = stacking_vocabulary()
        lit = parse_literal_text("  ! inHand( Right_hand , Cube_red1 ) ", vocabulary)
        assert lit == Literal(vocabulary.atom("inHand", "Right_hand", "Cube_red1"), False)
        assert parse_literal_text("handOpen(Right_hand)", vocabulary).positive

    def test_rejects_malformed_text(self):
        vocabulary = stacking_vocabulary()
        with pytest.raises(ParseError):
            parse_literal_text("onTop(Cube_red1", vocabulary)
        with pytest.raises(ParseError):
            parse_literal_text("onTop(a,,b)", vocabulary)
        with pytest.raises(SchemaError):
            parse_literal_text("fly(Cube_red1)", vocabulary)

    def test_load_init(self, tmp_path):
        path = tmp_path / "init.json"
        path.write_text(
            json.dumps(
                {
                    "objects": [
                        {"id": "Cube_red1", "type": "Wooden_cube"},
                        {"id": "Table_1", "type": "Table"},
                    ],
                    "atoms": [["onTop", "Cube_red1", "Table_1"]],
                }
            )
        )
        library = OperatorLibrary.empty(stacking_vocabulary(), stacking_types())
        table, init = load_init(path, library.vocabulary, library.types)
        assert table.objects() == [
            ObjectInstance("Cube_red1", "Wooden_cube"), ObjectInstance("Table_1", "Table"),
        ]
        assert table.type_to_parent == library.types.type_to_parent
        assert len(init.true_atoms) == 1
        path.write_text(json.dumps({"atoms": []}))
        with pytest.raises(ParseError):
            load_init(path, stacking_vocabulary(), stacking_types())


class TestGenTraces:
    def test_writes_traces_and_task_files(self, tmp_path):
        assert main(["gen-traces", "--out", str(tmp_path)]) == EXIT_OK
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 14
        assert "init.json" in files and "goals.json" in files
        goals = json.loads((tmp_path / "goals.json").read_text())
        assert "red_on_green" in goals
        init = json.loads((tmp_path / "init.json").read_text())
        assert {o["id"] for o in init["objects"]} >= {"Table_1", "Cube_red1"}
        for name in files:
            if name.startswith("p"):
                load_trace(tmp_path / name)
            text = (tmp_path / name).read_text()
            assert text == json_text_reference(json.loads(text)), name

    def test_flicker_variant(self, workspace, tmp_path):
        assert main(["gen-traces", "--out", str(tmp_path / "clean")]) == EXIT_OK
        assert main(["gen-traces", "--out", str(tmp_path / "noisy"), "--flicker", "5"]) == EXIT_OK
        noisy_names = sorted(p.name for p in (tmp_path / "noisy").glob("p*.json"))
        assert all(name.endswith("_noisy.json") for name in noisy_names)
        assert len(noisy_names) == 12
        clean = load_trace(tmp_path / "clean" / "p1_single_right.json")
        noisy = load_trace(tmp_path / "noisy" / "p1_single_right_noisy.json")
        assert any(
            a.true_atoms != b.true_atoms for a, b in zip(clean.frames, noisy.frames)
        )
        recovered = debounce(noisy)
        assert [f.true_atoms for f in recovered.frames] == [f.true_atoms for f in clean.frames]
        # learn debounces by default, so the noisy corpus learns the clean library
        lib = tmp_path / "noisy.json"
        assert main(["learn", *(str(tmp_path / "noisy" / n) for n in noisy_names),
                     "--library", str(lib)]) == EXIT_OK
        assert lib.read_bytes() == (workspace / "library.json").read_bytes()


class TestLearn:
    def test_report_lines(self, tmp_path, capsys, fixture_path):
        lib = tmp_path / "lib.json"
        assert main(["learn", str(fixture_path), "--library", str(lib)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"{fixture_path}: 3 segments, 3 new, 0 reobserved"
        assert "  put: observed 1x, cost 1" in out
        assert out[-1] == f"library: 3 operators -> {lib}"

    def test_second_run_updates_in_place(self, tmp_path, capsys, fixture_path):
        lib = tmp_path / "lib.json"
        main(["learn", str(fixture_path), "--library", str(lib)])
        capsys.readouterr()
        assert main(["learn", str(fixture_path), "--library", str(lib)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0 new, 3 reobserved" in out
        library = load_library(lib)
        assert set(library.counts.values()) == {2}

    def test_a_segment_with_no_effect_is_dropped(self, tmp_path, capsys):
        """One rule label for both transitions of a hand that starts and
        stops moving: the segment changes nothing, so it gives no operator."""
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({
            "meta": {"demonstrator": "d", "scenario": "wiggle"},
            "vocabulary": [{"name": "handMove", "arg_types": ["Hand"]}],
            "objects": [{"id": "Right_hand", "type": "Hand"}],
            "frames": [{"t": t, "atoms": atoms}
                       for t, atoms in enumerate([[], [["handMove", "Right_hand"]], []])],
        }))
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([
            {"name": "wiggle", "actor_type": "Hand", "priority": priority,
             "conditions": [{"scope": "delta", "literal": literal}]}
            for priority, literal in ((2, ["handMove", "?actor"]), (1, ["!", "handMove", "?actor"]))
        ]))
        lib = tmp_path / "lib.json"
        argv = ["learn", str(trace), "--rules", str(rules), "--debounce", "1", "--library", str(lib)]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"{trace}: 1 segments, 0 new, 0 reobserved, 1 dropped (no effect)"
        assert out[-1] == f"library: 0 operators -> {lib}"

    def test_corpus_library_summary(self, workspace, capsys):
        lib = workspace / "again.json"
        traces = sorted(str(p) for p in (workspace / "traces").glob("p*.json"))
        assert main(["learn", *traces, "--library", str(lib)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"library: 7 operators -> {lib}" in out
        assert "  grasp: observed 18x, cost 1" in out
        assert "  place: observed 6x, cost 13" in out

    def test_one_trace_per_run_gives_the_one_shot_library(self, workspace, tmp_path, capsys):
        """Each run loads, merges into and saves the library of the last."""
        lib = tmp_path / "incremental.json"
        for trace in sorted((workspace / "traces").glob("p*.json")):
            assert main(["learn", str(trace), "--library", str(lib)]) == EXIT_OK
        assert lib.read_bytes() == (workspace / "library.json").read_bytes()


class TestPlan:
    def test_plan_payload(self, workspace, capsys, tmp_path):
        out_file = tmp_path / "plan.json"
        code = main(_plan_args(workspace, "--goal", GOAL, "--out", str(out_file)))
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["solvable"] is True
        assert payload["cost"] == 16
        assert [a["name"] for a in payload["actions"]] == ["reach", "grasp", "put", "place_2"]
        assert payload["actions"][0]["objects"] == ["Left_hand", "Cube_red1"]
        assert json.loads(out_file.read_text()) == payload

    def test_unit_costs_flag(self, workspace, capsys):
        code = main(_plan_args(workspace, "--goal", GOAL, "--unit-costs"))
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["cost"] == 4

    def test_unsolvable_goal_exits_2(self, workspace, capsys):
        code = main(
            [
                "plan",
                "--library", str(workspace / "library.json"),
                "--init", str(workspace / "small_init.json"),
                "--goal", IMPOSSIBLE_GOAL,
            ]
        )
        assert code == EXIT_UNSOLVABLE
        assert json.loads(capsys.readouterr().out) == {"solvable": False}

    def test_pddl_task(self, workspace, capsys):
        code = main(
            [
                "plan",
                "--domain", str(workspace / "artifacts" / "domain.pddl"),
                "--problem", str(workspace / "artifacts" / "problem.pddl"),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["cost"] == 16

    def test_an_untyped_parameter_binds_objects_of_every_type(self, capsys, tmp_path):
        (tmp_path / "domain.pddl").write_text(
            "(define (domain marks) (:requirements :strips :typing) (:types thing)"
            " (:predicates (p ?x)) (:action mark :parameters (?x) :precondition (and) :effect (p ?x)))"
        )
        (tmp_path / "problem.pddl").write_text(
            "(define (problem two) (:domain marks) (:objects a - thing b)"
            " (:init) (:goal (and (p a) (p b))))"
        )
        code = main(["plan", "--domain", str(tmp_path / "domain.pddl"),
                     "--problem", str(tmp_path / "problem.pddl")])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["cost"] == 2
        assert sorted(a["objects"] for a in payload["actions"]) == [["a"], ["b"]]

    def test_flag_conflicts_exit_3(self, workspace, capsys):
        cases = [
            ["plan", "--domain", str(workspace / "artifacts" / "domain.pddl")],
            ["plan", "--domain", "d.pddl", "--problem", "p.pddl", "--goal", GOAL],
            ["plan"],
            _plan_args(workspace),  # no --goal
        ]
        for argv in cases:
            assert main(argv) == EXIT_INVALID
            capsys.readouterr()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--problem", "p.pddl", "--library", "library.json"],
             "PDDL planning takes its task from the problem file"),
            (["--problem", "p.pddl", "--init", "init.json"],
             "PDDL planning takes its task from the problem file"),
            (["--problem", "p.pddl", "--goal", GOAL],
             "PDDL planning takes its task from the problem file"),
            ([], "--domain and --problem must be given together"),
        ],
        ids=["library", "init", "goal", "domain-without-problem"],
    )
    def test_a_mode_conflict_exits_3_with_its_message(self, capsys, extra, message):
        # decided from the command line alone, before any file is read
        assert main(["plan", "--domain", "d.pddl", *extra]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unit_costs_with_pddl_files_exits_3(self, workspace, capsys):
        artifacts = workspace / "artifacts"
        argv = ["plan", "--domain", str(artifacts / "domain.pddl"),
                "--problem", str(artifacts / "problem.pddl"), "--unit-costs"]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err == "error: --unit-costs only applies to --library planning\n"

    def test_missing_file_exits_3(self, workspace, capsys):
        code = main(
            [
                "plan",
                "--library", str(workspace / "nowhere.json"),
                "--init", str(workspace / "traces" / "init.json"),
                "--goal", GOAL,
            ]
        )
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_bad_goal_text_exits_3(self, workspace, capsys):
        for goal in ("onTop(Cube_red1", "fly(Cube_red1)", "onTop(Cube_red1,Right_hand)"):
            assert main(_plan_args(workspace, "--goal", goal)) == EXIT_INVALID
            capsys.readouterr()

    def test_node_limit_exits_4(self, workspace, capsys):
        code = main(_plan_args(workspace, "--goal", GOAL, "--node-limit", "3"))
        assert code == EXIT_LIMIT
        assert "expanded more than" in capsys.readouterr().err

    def test_negative_node_limit_exits_3(self, workspace, capsys):
        code = main(_plan_args(workspace, "--goal", GOAL, "--node-limit", "-1"))
        assert code == EXIT_INVALID
        assert "node limit must be a non-negative integer" in capsys.readouterr().err

    def test_hmax_gives_the_same_cost(self, workspace, capsys):
        code = main(_plan_args(workspace, "--goal", GOAL, "--heuristic", "hmax"))
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["cost"] == 16


class TestExecute:
    def _execute_args(self, workspace, *extra):
        return [
            "execute",
            "--library", str(workspace / "library.json"),
            "--init", str(workspace / "traces" / "init.json"),
            "--goal", GOAL,
            *extra,
        ]

    def test_faulty_run_recovers(self, workspace, capsys, tmp_path):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps([{"step": 1, "mode": "drop_effects"}]))
        log_file = tmp_path / "log.json"
        code = main(
            self._execute_args(
                workspace, "--faults", str(faults), "--out", str(log_file)
            )
        )
        assert code == EXIT_OK
        transcript = capsys.readouterr().out
        assert "replan at step" in transcript
        assert transcript.rstrip().endswith("outcome: success")
        text = log_file.read_text()
        payload = json.loads(text)
        assert text == json_text_reference(payload)
        assert payload["outcome"] == "success"
        assert len(payload["replans"]) == 1

    def test_a_faulty_run_compiles_its_actions_once(self, workspace, tmp_path, task_calls):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps([{"step": 1, "mode": "drop_effects"}]))
        assert main(self._execute_args(workspace, "--faults", str(faults))) == EXIT_OK
        # the dropped step leaves the world on the plan's path, so the one
        # replan keeps the rest of the plan instead of searching
        assert task_calls == {"_compile": 1, "search": 1}

    def test_non_integer_fault_step_exits_3(self, workspace, capsys, tmp_path):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps([{"step": "1", "mode": "drop_effects"}]))
        code = main(self._execute_args(workspace, "--faults", str(faults)))
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "fault record 0" in err and "step must be an integer" in err

    def test_zero_budget_exits_5(self, workspace, capsys, tmp_path):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps([{"step": 0, "mode": "drop_effects"}]))
        code = main(
            self._execute_args(workspace, "--faults", str(faults), "--max-replans", "0")
        )
        assert code == EXIT_EXECUTION
        assert "failure" in capsys.readouterr().out

    def test_unsolvable_exits_2(self, workspace, capsys):
        code = main(
            [
                "execute",
                "--library", str(workspace / "library.json"),
                "--init", str(workspace / "small_init.json"),
                "--goal", IMPOSSIBLE_GOAL,
            ]
        )
        assert code == EXIT_UNSOLVABLE
        assert "no plan" in capsys.readouterr().out


class TestPipeline:
    def test_artifacts(self, workspace):
        out = workspace / "artifacts"
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "domain.pddl",
            "execution.json",
            "library.json",
            "plan.json",
            "problem.pddl",
            "transcript.txt",
        ]
        payload = json.loads((out / "plan.json").read_text())
        assert payload["cost"] == 16
        doc = parse_domain((out / "domain.pddl").read_text())
        assert len(doc.actions) == 7
        assert (out / "transcript.txt").read_text().rstrip().endswith("outcome: success")
        execution = json.loads((out / "execution.json").read_text())
        assert execution["outcome"] == "success" and execution["replans"] == []
        library = load_library(out / "library.json")
        assert len(library.operators) == 7

    def test_progress_lines(self, workspace, capsys, tmp_path):
        traces = sorted(str(p) for p in (workspace / "traces").glob("p1_*.json"))
        code = main(
            [
                "pipeline",
                *traces,
                "--init", str(workspace / "traces" / "init.json"),
                "--goal", GOAL,
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "library: 7 operators" in out
        assert "plan: 4 steps, cost 8" in out
        assert "execution: success" in out

    def test_an_unsolvable_goal_writes_no_execution(self, workspace, capsys, tmp_path):
        traces = sorted(str(p) for p in (workspace / "traces").glob("p1_*.json"))
        code = main(["pipeline", *traces, "--init", str(workspace / "traces" / "init.json"),
                     "--goal", IMPOSSIBLE_GOAL, "--out", str(tmp_path)])
        assert code == EXIT_UNSOLVABLE
        assert capsys.readouterr().out.splitlines()[-1] == "plan: goal is unsolvable"
        assert json.loads((tmp_path / "plan.json").read_text()) == {"solvable": False}
        assert not (tmp_path / "execution.json").exists()

    def test_unit_costs_reach_the_emitted_domain(self, workspace, capsys, tmp_path):
        traces = sorted(str(p) for p in (workspace / "traces").glob("p1_*.json"))
        code = main(
            [
                "pipeline",
                *traces,
                "--init", str(workspace / "traces" / "init.json"),
                "--goal", GOAL,
                "--out", str(tmp_path),
                "--unit-costs",
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        code = main(
            ["plan", "--domain", str(tmp_path / "domain.pddl"),
             "--problem", str(tmp_path / "problem.pddl")]
        )
        assert code == EXIT_OK
        pddl_cost = json.loads(capsys.readouterr().out)["cost"]
        assert pddl_cost == json.loads((tmp_path / "plan.json").read_text())["cost"] == 4

    def test_a_rule_label_of_the_form_label_n_repeats_no_name(self, workspace, capsys, tmp_path):
        """Both release rules named place_2: the second place variant gets
        place_3, so the emitted domain plans at the library plan's cost."""
        rules = str(Path(__file__).parent / "data" / "rules_place_2.json")
        traces = sorted(str(p) for p in (workspace / "traces").glob("p*.json"))
        learn = ["learn", *traces, "--rules", rules, "--library", str(tmp_path / "lib.json")]
        assert main(learn) == EXIT_OK
        names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  ")]
        assert len(set(names)) == len(names) == 7
        p1 = sorted(str(p) for p in (workspace / "traces").glob("p1_*.json"))
        code = main(["pipeline", *p1, "--rules", rules, "--init",
                     str(workspace / "traces" / "init.json"), "--goal", GOAL, "--out", str(tmp_path)])
        assert code == EXIT_OK
        capsys.readouterr()
        code = main(["plan", "--domain", str(tmp_path / "domain.pddl"),
                     "--problem", str(tmp_path / "problem.pddl")])
        assert code == EXIT_OK
        pddl_cost = json.loads(capsys.readouterr().out)["cost"]
        assert pddl_cost == json.loads((tmp_path / "plan.json").read_text())["cost"] == 8


def _break_count(payload):
    payload["operators"][0]["count"] = "abc"


def _break_types(payload):
    payload["types"] = []


def _break_params(payload):
    payload["operators"][0]["params"][0] = payload["operators"][0]["params"][0][:1]


def _break_post(payload):
    del payload["operators"][0]["post"][0]


def _trace_case(breaks):
    """A learn run over a corpus trace edited by ``breaks``."""

    def case(workspace, tmp_path):
        payload = json.loads(sorted((workspace / "traces").glob("p1_*.json"))[0].read_text())
        breaks(payload)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        return path, ["learn", str(path), "--library", str(tmp_path / "library.json")]

    return case


def _rename_hands(payload):
    """No object is a Hand any more, so no built-in rule finds an actor."""
    for obj in payload["objects"]:
        obj["type"] = obj["type"].replace("Hand", "Gripper")
    for sig in payload["vocabulary"]:
        sig["arg_types"] = [t.replace("Hand", "Gripper") for t in sig["arg_types"]]


def _rules_case(workspace, tmp_path):
    payload = rules_to_json(DEFAULT_RULES)
    payload[0]["priority"] = "x"
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(payload))
    trace = sorted((workspace / "traces").glob("p1_*.json"))[0]
    return path, ["learn", str(trace), "--rules", str(path),
                  "--library", str(tmp_path / "library.json")]


def _faults_case(payload):
    """An execute run with ``payload`` as its fault file."""

    def case(workspace, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(payload))
        return path, ["execute", "--library", str(workspace / "library.json"),
                      "--init", str(workspace / "traces" / "init.json"), "--goal", GOAL,
                      "--faults", str(path)]

    return case


def _library_directory_case(workspace, tmp_path):
    return tmp_path, ["plan", "--library", str(tmp_path),
                      "--init", str(workspace / "traces" / "init.json"), "--goal", GOAL]


def _domain_case(text):
    def case(workspace, tmp_path):
        path = tmp_path / "domain.pddl"
        path.write_text(text)
        return path, ["plan", "--domain", str(path),
                      "--problem", str(workspace / "artifacts" / "problem.pddl")]

    return case


def _learned_domain_case(old, new):
    """The learned domain with its first ``old`` replaced by ``new``."""

    def case(workspace, tmp_path):
        text = (workspace / "artifacts" / "domain.pddl").read_text()
        assert old in text
        return _domain_case(text.replace(old, new, 1))(workspace, tmp_path)

    return case


def _domain_cost_case(cost):
    """The learned domain with its first cost-13 clause (line 51) spelled ``cost``."""
    return _learned_domain_case("(increase (total-cost) 13)", f"(increase (total-cost) {cost})")


def _problem_case(old, new):
    """The emitted problem with its first ``old`` replaced by ``new``."""

    def case(workspace, tmp_path):
        text = (workspace / "artifacts" / "problem.pddl").read_text()
        assert old in text
        path = tmp_path / "problem.pddl"
        path.write_text(text.replace(old, new, 1))
        return path, ["plan", "--domain", str(workspace / "artifacts" / "domain.pddl"),
                      "--problem", str(path)]

    return case


# a second :init must not replace the first
_repeated_init_case = _problem_case("  (:goal", "  (:init (handopen left_hand))\n  (:goal")


def _deep_trace_case(workspace, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path, ["learn", str(path), "--library", str(tmp_path / "library.json")]


class TestMalformedInput:
    """Every input file is read at one boundary: bad bytes, bad JSON or a bad
    entry exit 3 with a message that names the file."""

    @pytest.mark.parametrize(
        "case, message",
        [
            (_trace_case(lambda p: p["frames"][0].update(t="abc")),
             "frame 0 't' must be a number, got 'abc'"),
            (_trace_case(lambda p: p.update(types="x")), "'types' must be an object, got 'x'"),
            (_trace_case(lambda p: p.update(meta="x")), "'meta' must be an object, got 'x'"),
            (_trace_case(lambda p: p.update(meta=[])), "'meta' must be an object, got []"),
            (_trace_case(lambda p: p["meta"].update(demonstrator=["p1"])),
             "meta 'demonstrator' must be a string, got ['p1']"),
            (_trace_case(lambda p: p["meta"].update(scenario=None)),
             "meta 'scenario' must be a string, got None"),
            (_trace_case(lambda p: p.update(types=[])), "'types' must be an object, got []"),
            (_trace_case(lambda p: p["objects"].append({"id": "H2", "type": 3})),
             "'type' must be a string, got 3"),
            (_rules_case, "rule 0: 'priority' must be an integer, got 'x'"),
            (_faults_case([{"step": 1, "mode": "perturb", "adds": [{"a": 1}]}]),
             "fault record 0: atom entry must be a list of strings"),
            (_faults_case({"fault": [{"step": 1, "mode": "drop_effects"}]}),
             "fault file is missing required key 'faults'"),
            (_faults_case([{"step": 1, "mode": "explode"}]),
             "fault record 0: unknown fault mode 'explode'"),
            (_faults_case([{"step": 1, "mode": "drop_effects", "adds": [["handOpen", "Left_hand"]]}]),
             "fault record 0: drop_effects faults take no adds or dels"),
            (_faults_case([{"step": 0, "mode": "drop_effects"},
                           {"step": 1, "mode": "perturb", "adds": [["handOpen", "Left_hand"]],
                            "dels": [["handOpen", "Left_hand"]]}]),
             "fault record 1: fault adds and deletes the same atom"),
            (_faults_case([{"step": 1, "mode": "drop_effects"}, {"step": 0, "mode": "drop_effects"},
                           {"step": 1, "mode": "drop_effects"}]),
             "fault records 0 and 2 both script step 1"),
            (_library_directory_case, "cannot read"),
            (_domain_case("(define (domain learned)\n  (:requirements :strips\n"),
             "unbalanced parenthesis (line 2, column 3)"),
            (_domain_case("(" * 100_000 + ")" * 100_000), "expected (define ...)"),
            (_deep_trace_case, "not valid JSON"),
            (_trace_case(_rename_hands), "trace declares no object matching any rule actor"),
            (_domain_cost_case("1_0"), "cost must be a plain integer (line 51, column 30)"),
            (_domain_cost_case("+3"), "cost must be a plain integer (line 51, column 30)"),
            (_domain_cost_case("\u0663"), "cost must be a plain integer (line 51, column 30)"),
            (_domain_case("(define (domain learned)\n  (:types a - b b - a))\n"),
             "type hierarchy contains a cycle through 'a'"),
            (_learned_domain_case("      (graspable ?w1)\n",
                                  "      (graspable ?w1)\n      (not (graspable ?w1))\n"),
             "action 'grasp' has contradictory preconditions"),
            (_learned_domain_case("(?h1 - hand ?w1", "(?h1 ?h1 - hand ?w1"),
             "action 'grasp' repeats a parameter"),
            (_learned_domain_case("    :effect (and\n", "    :effect (inhand ?h1 ?w1)\n    :effect (and\n"),
             "repeated :effect (line 29, column 5)"),
            (_repeated_init_case, "repeated section ':init' (line 23, column 4)"),
            (_problem_case("(:domain learned)", "(:domain blocksworld)"),
             "problem is for domain 'blocksworld', not 'learned' at 2:12"),
            (_problem_case("  (:domain learned)\n", ""), "problem needs a (:domain learned) section"),
        ],
        ids=["trace-t", "trace-types", "trace-meta", "trace-meta-empty-list",
             "trace-meta-demonstrator-list", "trace-meta-scenario-null",
             "trace-types-empty-list", "trace-object-type", "rules-priority", "faults-adds",
             "faults-key", "faults-mode", "faults-drop-with-effects", "faults-overlap",
             "faults-same-step",
             "library-directory", "domain-unbalanced", "domain-deep-nesting",
             "trace-deep-nesting", "trace-without-actor", "domain-cost-underscore",
             "domain-cost-plus", "domain-cost-arabic-indic-digit", "domain-type-cycle",
             "domain-contradictory-precondition", "domain-duplicate-parameter",
             "domain-repeated-effect",
             "problem-repeated-init", "problem-other-domain", "problem-without-domain"],
    )
    def test_bad_file_exits_3_with_its_path(self, workspace, capsys, tmp_path, case, message):
        path, argv = case(workspace, tmp_path)
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.mark.parametrize(
        "breaks, message",
        [
            (_break_count, "operator 0: count must be an integer"),
            (_break_types, "library 'types' must be an object"),
            (_break_params, "operator 0: each parameter must be a [variable, type] pair"),
            (_break_post, "operator 0: operator 'grasp' post leaves out ['graspable(?w1)'] of its pre"),
        ],
    )
    def test_malformed_library_entry_exits_3(self, workspace, capsys, tmp_path, breaks, message):
        payload = json.loads((workspace / "library.json").read_text())
        breaks(payload)
        lib = tmp_path / "library.json"
        lib.write_text(json.dumps(payload))
        code = main(
            ["plan", "--library", str(lib), "--init", str(workspace / "traces" / "init.json"),
             "--goal", GOAL]
        )
        assert code == EXIT_INVALID
        assert f"error: {lib}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "atom, message",
        [
            (["fly", "Cube_red1"], "unknown predicate 'fly'"),
            (["onTop", "Left_hand", "Cube_red1"], "argument 'Left_hand' has type 'Hand'"),
        ],
    )
    def test_bad_init_atom_names_the_file(self, workspace, capsys, tmp_path, atom, message):
        payload = json.loads((workspace / "traces" / "init.json").read_text())
        payload["atoms"].append(atom)
        init = tmp_path / "init.json"
        init.write_text(json.dumps(payload))
        code = main(
            ["plan", "--library", str(workspace / "library.json"), "--init", str(init),
             "--goal", GOAL]
        )
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {init}: ") and message in err

    def test_invalid_fault_names_the_file(self, workspace, capsys, tmp_path):
        faults = tmp_path / "faults.json"
        faults.write_text('[{"step": -1, "mode": "drop_effects"}]')
        code = main(
            ["execute", "--library", str(workspace / "library.json"),
             "--init", str(workspace / "traces" / "init.json"), "--goal", GOAL,
             "--faults", str(faults)]
        )
        assert code == EXIT_INVALID
        assert f"error: {faults}: fault record 0: fault step must be >= 0" in capsys.readouterr().err

    def test_truncated_faults_file_exits_3(self, workspace, capsys, tmp_path):
        faults = tmp_path / "faults.json"
        faults.write_text('[{"step": 1, "mode": "drop_ef')
        code = main(
            ["execute", "--library", str(workspace / "library.json"),
             "--init", str(workspace / "traces" / "init.json"), "--goal", GOAL,
             "--faults", str(faults)]
        )
        assert code == EXIT_INVALID
        assert f"error: {faults}: not valid JSON" in capsys.readouterr().err

    def test_non_utf8_init_file_exits_3(self, workspace, capsys, tmp_path):
        init = tmp_path / "init.json"
        init.write_bytes(b'{"objects": [], "atoms": [["onTop", "Cube_r\xe9d1"]]}')
        code = main(
            ["plan", "--library", str(workspace / "library.json"), "--init", str(init),
             "--goal", GOAL]
        )
        assert code == EXIT_INVALID
        assert f"error: {init}: not valid UTF-8" in capsys.readouterr().err

    def test_non_utf8_problem_file_exits_3(self, workspace, capsys, tmp_path):
        problem = tmp_path / "problem.pddl"
        problem.write_bytes((workspace / "artifacts" / "problem.pddl").read_bytes() + b"; \xff\n")
        code = main(
            ["plan", "--domain", str(workspace / "artifacts" / "domain.pddl"),
             "--problem", str(problem)]
        )
        assert code == EXIT_INVALID
        assert f"error: {problem}: not valid UTF-8" in capsys.readouterr().err


class TestUnwritableOutput:
    """An output that cannot be written is a bad command line value: exit 3
    with a message that names it, and no traceback."""

    def _task(self, workspace):
        return ["--library", str(workspace / "library.json"),
                "--init", str(workspace / "traces" / "init.json"), "--goal", GOAL]

    @pytest.mark.parametrize(
        "command, name",
        [("plan", "plan.json"), ("execute", "x.json")],
    )
    def test_out_in_a_missing_directory(self, workspace, capsys, tmp_path, command, name):
        target = tmp_path / "nodir" / name
        assert main([command, *self._task(workspace), "--out", str(target)]) == EXIT_INVALID
        assert f"error: {target}: cannot write: " in capsys.readouterr().err

    def test_learn_library_in_a_missing_directory(self, workspace, capsys, tmp_path):
        trace = sorted((workspace / "traces").glob("p*.json"))[0]
        target = tmp_path / "nodir" / "lib.json"
        assert main(["learn", str(trace), "--library", str(target)]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert f"error: {target}: cannot write: " in captured.err
        # nothing reports operators as learned when they were never saved
        assert "segments" not in captured.out and captured.out == ""
        assert not target.exists()

    @pytest.mark.parametrize("failure", ["file size limit", "replace"])
    def test_a_failed_save_leaves_the_old_library_whole(self, workspace, capsys, tmp_path,
                                                        monkeypatch, failure):
        traces = [str(p) for p in sorted((workspace / "traces").glob("p1_*.json"))]
        library = tmp_path / "library.json"
        assert main(["learn", *traces, "--library", str(library)]) == EXIT_OK
        before = library.read_bytes()
        argv = ["learn", *traces, "--library", str(library)]
        if failure == "replace":
            def replace(*args):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(os, "replace", replace)
            assert main(argv) == EXIT_INVALID
            err = capsys.readouterr().err
        else:  # the limit holds in the child process only
            resource = pytest.importorskip("resource")
            limit = len(before) // 2
            proc = subprocess.run(
                [sys.executable, "-m", "demoplan", *argv], capture_output=True, text=True,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
            )
            assert proc.returncode == EXIT_INVALID and proc.stdout == ""
            err = proc.stderr
        assert err.startswith(f"error: {library}: cannot write: ")
        assert library.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["library.json"]  # no temporary file left

    def test_artifact_directory_that_is_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert main(["gen-traces", "--out", str(blocker)]) == EXIT_INVALID
        assert f"error: {blocker}: cannot create directory: " in capsys.readouterr().err


def test_exit_codes_keep_their_numbers():
    # The README and scripts rely on these numbers, not on the names.
    assert (EXIT_OK, EXIT_UNSOLVABLE, EXIT_INVALID, EXIT_LIMIT, EXIT_EXECUTION) == (0, 2, 3, 4, 5)


def test_each_option_default_is_its_dataclass_default():
    parser = build_parser()
    task = ["--library", "l.json", "--init", "i.json", "--goal", GOAL]
    learn = parser.parse_args(["learn", "t.json", "--library", "l.json"])
    execute = parser.parse_args(["execute", *task])
    pipeline = parser.parse_args(["pipeline", "t.json", "--init", "i.json", "--goal", GOAL])
    assert (DebounceConfig().window, MonitorConfig().max_replans) == (2, 5)
    for args in (learn, pipeline):
        assert args.debounce == DebounceConfig().window
    for args in (execute, pipeline):
        assert args.max_replans == MonitorConfig().max_replans
        assert args.node_limit == MonitorConfig().node_limit
        assert args.heuristic == MonitorConfig().heuristic


@pytest.mark.parametrize("where", ["read", "write", "create directory"])
def test_an_os_error_without_strerror_is_named_by_its_text(tmp_path, monkeypatch, capsys, where):
    def fail(*args, **kwargs):
        raise OSError("disk on fire")

    if where == "read":
        monkeypatch.setattr(Path, "read_text", fail)
        argv = ["learn", str(tmp_path / "trace.json"), "--library", str(tmp_path / "lib.json")]
    else:
        monkeypatch.setattr(*((os, "replace") if where == "write" else (Path, "mkdir")), fail)
        argv = ["gen-traces", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}") and err.endswith(f": cannot {where}: disk on fire\n")


def test_out_dir_falls_back_to_the_environment(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("DEMOPLAN_OUT", str(target))
    assert main(["gen-traces"]) == EXIT_OK
    assert (target / "init.json").is_file()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "demoplan", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "learn" in proc.stdout and "pipeline" in proc.stdout


# Runs each (output file, argv) pair of the JSON list in sys.argv[1] through
# the CLI, stdout to that file, and prints the exit codes as JSON.
_RUN_COMMANDS = """
import contextlib, json, sys
from demoplan.cli import main
codes = []
for name, argv in json.loads(sys.argv[1]):
    with open(name, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_outputs_do_not_depend_on_the_hash_seed(workspace, tmp_path):
    """Atom numbering follows set order, which the hash seed changes; no
    answer may. A process cannot change its own seed, so the commands run in
    one child process per seed, and every file they write is compared."""
    shutil.copytree(workspace / "traces", tmp_path / "traces")
    traces = sorted(f"../traces/{p.name}" for p in (tmp_path / "traces").glob("p*.json"))
    task = ["--library", "library.json", "--init", "../traces/init.json", "--goal", GOAL]
    faults = ["--faults", "faults.json"]
    commands = [
        ("learn.txt", ["learn", *traces, "--library", "library.json"]),
        ("pipeline.txt", ["pipeline", *(t for t in traces if "/p1_" in t), *task[2:], "--out", "out"]),
        ("plan_hmax.json", ["plan", *task, "--goal", "onTop(Cube_blue1,Cube_red1)", "--heuristic", "hmax"]),
        ("execute.txt", ["execute", *task, *faults, "--out", "execution.json"]),
        # hmax replans share one Task's tables
        ("execute_hmax.txt", ["execute", *task, *faults, "--heuristic", "hmax",
                              "--out", "execution_hmax.json"]),
    ]
    package = str(Path(demoplan.__file__).parents[1])
    for seed in (0, 123):
        run = tmp_path / f"seed{seed}"
        run.mkdir()
        (run / "faults.json").write_text(
            json.dumps([{"step": 1, "mode": "drop_effects"}, {"step": 4, "mode": "drop_effects"}])
        )
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)], cwd=run,
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": package},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [EXIT_OK] * len(commands), proc.stderr

    def files(run):
        return {str(p.relative_to(run)): p.read_bytes() for p in run.rglob("*") if p.is_file()}

    outputs = files(tmp_path / "seed0")
    assert len(outputs) == 15 and outputs == files(tmp_path / "seed123")
