import json

from demoplan.cli import EXIT_OK, main
from demoplan.model import State, satisfies
from demoplan.segmentation import DEFAULT_RULES, segment
from demoplan.synth import (
    corpus,
    corpus_goals,
    initial_state,
    inject_flicker,
    planning_objects,
    stacking_demo,
    stacking_types,
    stacking_vocabulary,
)
from demoplan.traces import DebounceConfig, debounce, load_trace


def test_schema_shape():
    vocabulary = stacking_vocabulary()
    assert [s.name for s in vocabulary.signatures] == [
        "graspable", "handMove", "handOpen", "inHand", "inTouch", "onTop",
    ]
    types = stacking_types()
    assert types.is_subtype("Wooden_cube", "Support")
    assert types.is_subtype("Table", "Support")
    assert not types.is_subtype("Hand", "Support")
    assert len(planning_objects()) == 7


def test_initial_state_has_all_cubes_on_the_table():
    vocabulary = stacking_vocabulary()
    state = initial_state()
    for cube in ("Cube_red1", "Cube_green1", "Cube_blue1", "Cube_yellow1"):
        assert vocabulary.atom("onTop", cube, "Table_1") in state
        assert vocabulary.atom("inTouch", cube, "Table_1") in state
    assert len(state.true_atoms) == 8


def test_corpus_covers_demonstrators_and_scenarios():
    demos = corpus()
    assert len(demos) == 12
    combos = {(d.trace.demonstrator, d.trace.scenario) for d in demos}
    assert len(combos) == 12
    assert {d.trace.demonstrator for d in demos} == {"p1", "p2", "p3"}
    assert {d.trace.scenario for d in demos} == {
        "single_right",
        "single_left",
        "double_right",
        "double_left",
    }


def test_demo_traces_start_at_the_shared_initial_state():
    for demo in corpus():
        assert demo.trace.frames[0].true_atoms == initial_state().true_atoms


def test_single_and_double_moves_have_the_expected_frame_counts():
    for demo in corpus():
        moves = 2 if "double" in demo.trace.scenario else 1
        assert len(demo.trace.frames) == 10 * moves + 2
        assert len(demo.segments) == 5 * moves


def test_scripted_goals_hold_at_the_final_frame():
    for demo in corpus():
        final = State(demo.trace.frames[-1].true_atoms)
        assert satisfies(final, demo.goal)


def test_scripted_segments_match_the_segmenter():
    for demo in corpus():
        assert tuple(segment(demo.trace, DEFAULT_RULES)) == demo.segments


def test_demonstrators_differ_only_in_timing():
    by_scenario = {}
    for demo in corpus():
        by_scenario.setdefault(demo.trace.scenario, []).append(demo.trace)
    for traces in by_scenario.values():
        atom_rows = {tuple(f.true_atoms for f in t.frames) for t in traces}
        assert len(atom_rows) == 1
        stamp_rows = {tuple(f.timestamp for f in t.frames) for t in traces}
        assert len(stamp_rows) == 3


def test_corpus_goals_are_well_formed():
    goals = corpus_goals()
    assert set(goals) == {
        "red_on_green",
        "blue_on_green",
        "tower_blue_red_green",
        "tower_red_blue_green",
    }
    assert all(len(g) >= 1 for g in goals.values())
    assert len(goals["tower_blue_red_green"]) == 2


class TestFlicker:
    def test_injection_is_seeded_and_changes_frames(self):
        demo = corpus()[0]
        noisy_a = inject_flicker(demo.trace, seed=3)
        noisy_b = inject_flicker(demo.trace, seed=3)
        assert [f.true_atoms for f in noisy_a.frames] == [f.true_atoms for f in noisy_b.frames]
        assert any(
            n.true_atoms != c.true_atoms
            for n, c in zip(noisy_a.frames, demo.trace.frames)
        )
        different = inject_flicker(demo.trace, seed=4)
        assert any(
            a.true_atoms != b.true_atoms for a, b in zip(noisy_a.frames, different.frames)
        )

    def test_first_frame_is_never_touched(self):
        for demo in corpus():
            for seed in range(5):
                noisy = inject_flicker(demo.trace, seed)
                assert noisy.frames[0].true_atoms == demo.trace.frames[0].true_atoms

    def test_debouncing_recovers_the_clean_trace(self):
        for demo in corpus():
            for seed in range(5):
                noisy = inject_flicker(demo.trace, seed)
                cleaned = debounce(noisy, DebounceConfig(2))
                assert [f.true_atoms for f in cleaned.frames] == [
                    f.true_atoms for f in demo.trace.frames
                ]

    def test_metadata_and_timestamps_survive(self):
        demo = corpus()[0]
        noisy = inject_flicker(demo.trace, 1)
        assert noisy.demonstrator == demo.trace.demonstrator
        assert noisy.scenario == demo.trace.scenario
        assert [f.timestamp for f in noisy.frames] == [f.timestamp for f in demo.trace.frames]


def test_write_corpus_files(tmp_path, capsys):
    assert main(["gen-traces", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    paths = sorted(tmp_path.glob("p*.json"))
    assert len(paths) == 12
    names = sorted(p.name for p in paths)
    assert names[0] == "p1_double_left.json"
    for path in paths:
        trace = load_trace(path)
        stem = path.stem
        assert stem == f"{trace.demonstrator}_{trace.scenario}"
        payload = json.loads(path.read_text())
        assert payload["types"]["parents"] == {"Table": "Support", "Wooden_cube": "Support"}


def test_stacking_demo_is_reproducible():
    moves = [("Cube_red1", "Table_1", "Cube_green1")]
    a = stacking_demo("p1", "Right_hand", moves, 0.5, scenario="custom")
    b = stacking_demo("p1", "Right_hand", moves, 0.5, scenario="custom")
    assert a.trace.frames == b.trace.frames
    assert a.segments == b.segments
    assert a.goal == b.goal
    assert a.trace.scenario == "custom"
