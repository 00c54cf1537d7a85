"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of a ``random.Random``: the same seed gives
the same demonstrations, scenes, goals and faults. The program under test only
ever sees the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from demoplan.model import GroundAtom, Literal, ObjectInstance, State, Vocabulary
from demoplan.monitor import DROP_EFFECTS, PERTURB, Fault
from demoplan.synth import (
    BLUE,
    GREEN,
    LEFT_HAND,
    RED,
    RIGHT_HAND,
    TABLE,
    YELLOW,
    ScriptedDemo,
    inject_flicker,
    stacking_demo,
    stacking_vocabulary,
)
from demoplan.traces import Trace

HANDS = (LEFT_HAND, RIGHT_HAND)
# The scripted demonstrations always show the four corpus cubes.
DEMO_CUBES = (RED, GREEN, BLUE, YELLOW)
# Scenes draw from a larger pool because synth.stacking_types() stops at four.
SCENE_CUBES = DEMO_CUBES + ("Cube_orange1", "Cube_purple1", "Cube_white1", "Cube_black1")
DEMONSTRATORS = (("p1", 0.4), ("p2", 0.5), ("p3", 0.6))

STACK = "stack"
TOWER3 = "tower3"
TWO_TOWERS = "two_towers"
GOAL_CUBES = {STACK: 2, TOWER3: 3, TWO_TOWERS: 4}


# ---------------------------------------------------------------------------
# Demonstrations


def demo_script(rng: random.Random, n_moves: int) -> list[tuple[str, str, str]]:
    """A random legal pick-and-place script of (cube, source, dest) moves.

    Only a cube with nothing on top moves, and only onto the table (when it
    is not already there) or onto another clear cube.
    """
    support = {cube: TABLE for cube in DEMO_CUBES}
    moves = []
    for _ in range(n_moves):
        clear = [c for c in DEMO_CUBES if c not in support.values()]
        cube = rng.choice(clear)
        dests = [c for c in clear if c != cube]
        if support[cube] != TABLE:
            dests.append(TABLE)
        dest = rng.choice(dests)
        moves.append((cube, support[cube], dest))
        support[cube] = dest
    return moves


@dataclass(frozen=True)
class NoisyDemo:
    """One demonstration as the learner sees it, plus its ground truth."""

    clean: ScriptedDemo
    noisy: Trace
    goal: tuple[Literal, ...]
    moves: int


def final_goal(v: Vocabulary, moves: list[tuple[str, str, str]]) -> tuple[Literal, ...]:
    """Where every moved cube ends up, as onTop literals."""
    final = {}
    for cube, _, dest in moves:
        final[cube] = dest
    return tuple(Literal(v.atom("onTop", cube, dest)) for cube, dest in sorted(final.items()))


def learn_session(rng: random.Random, move_counts: tuple[int, ...], name: str) -> list[NoisyDemo]:
    """Demonstrations for one learning session, in the order they arrive.

    Every session shows each move count in ``move_counts`` once, so sessions
    from different seeds do the same amount of work.
    """
    v = stacking_vocabulary()
    counts = list(move_counts)
    rng.shuffle(counts)
    demos = []
    for i, n_moves in enumerate(counts):
        person, dt = rng.choice(DEMONSTRATORS)
        moves = demo_script(rng, n_moves)
        clean = stacking_demo(person, rng.choice(HANDS), moves, dt, f"{name}_{i}")
        noisy = inject_flicker(clean.trace, rng.randrange(1 << 30))
        demos.append(NoisyDemo(clean, noisy, final_goal(v, moves), n_moves))
    return demos


# ---------------------------------------------------------------------------
# Scenes and goals


@dataclass(frozen=True)
class Scene:
    """n cubes on the table, two idle hands, and a stacking goal."""

    objects: tuple[ObjectInstance, ...]
    init: State
    goal: tuple[Literal, ...]
    kind: str
    distractors: tuple[str, ...]

    @property
    def moves(self) -> int:
        """Goal literals that do not hold initially: each needs one move."""
        return sum(1 for lit in self.goal if (lit.atom in self.init.true_atoms) != lit.positive)


def scene(rng: random.Random, n_cubes: int, kind: str) -> Scene:
    v = stacking_vocabulary()
    cubes = rng.sample(SCENE_CUBES, n_cubes)
    objects = [ObjectInstance(h, "Hand") for h in HANDS]
    objects.append(ObjectInstance(TABLE, "Table"))
    objects.extend(ObjectInstance(c, "Wooden_cube") for c in cubes)
    atoms: list[GroundAtom] = []
    for cube in cubes:
        atoms.append(v.atom("onTop", cube, TABLE))
        atoms.append(v.atom("inTouch", cube, TABLE))
    top = lambda a, b: Literal(v.atom("onTop", a, b))
    if kind == STACK:
        goal = (top(cubes[0], cubes[1]),)
    elif kind == TOWER3:
        goal = (top(cubes[0], cubes[1]), top(cubes[1], cubes[2]))
    elif kind == TWO_TOWERS:
        goal = (top(cubes[0], cubes[1]), top(cubes[2], cubes[3]))
    else:
        raise ValueError(f"unknown goal kind {kind!r}")
    used = GOAL_CUBES[kind]
    return Scene(tuple(objects), State.of(atoms), goal, kind, tuple(cubes[used:]))


# ---------------------------------------------------------------------------
# Faults


def faults(rng: random.Random, sc: Scene, plan_steps: int, n_faults: int, phase: int) -> list[Fault]:
    """``n_faults`` faults at evenly spaced steps of a ``plan_steps``-step plan.

    The first fault sits at step ``phase`` (mod ``plan_steps``). Callers
    advance the phase by one per round, so over a run every step takes its
    turn and runs with different seeds replan about as much.

    ``drop_effects`` makes the step a no-op; ``perturb`` makes it a no-op and
    takes a cube the goal does not mention off the table. Both leave the goal
    reachable, and each costs exactly one replan because every step before
    ``plan_steps`` is certain to execute.
    """
    v = stacking_vocabulary()
    steps = sorted({(phase + k * plan_steps // n_faults) % plan_steps for k in range(n_faults)})
    out = []
    for step in steps:
        if rng.random() < 0.5:
            out.append(Fault(step, DROP_EFFECTS))
        else:
            cube = rng.choice(sc.distractors)
            dels = frozenset({v.atom("onTop", cube, TABLE), v.atom("inTouch", cube, TABLE)})
            out.append(Fault(step, PERTURB, frozenset(), dels))
    return out
