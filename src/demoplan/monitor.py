"""Closed-loop plan execution against a simulated world.

Before each action the monitor checks preconditions against the sensed state;
after each action it compares the sensed state with the predicted one. Any
mismatch triggers a replan, up to a configurable budget: it keeps the rest of
the last searched plan when the sensed state is on that plan's predicted path,
and searches from the sensed state otherwise. Faults are scripted per global
step index so failures are repeatable:
``drop_effects`` leaves the world untouched, ``perturb`` applies scripted
effects in place of the action's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import ValidationError, located
from .model import (
    GroundAtom,
    Literal,
    State,
    TypeTable,
    Vocabulary,
    apply,
    atom_from_list,
    atom_to_list,
    check_atom_types,
    expect,
    expect_keys,
    holds,
    read_json,
    satisfies,
)
from .planner import DEFAULT_NODE_LIMIT, GroundedAction, Plan, check_search_options, compiled

DROP_EFFECTS = "drop_effects"
PERTURB = "perturb"


@dataclass(frozen=True)
class Fault:
    """A scripted malfunction at one execution step (0-based, global)."""

    step: int
    mode: str
    adds: frozenset[GroundAtom] = frozenset()
    dels: frozenset[GroundAtom] = frozenset()

    def __post_init__(self):
        if self.step < 0:
            raise ValidationError(f"fault step must be >= 0, got {self.step}")
        if self.mode not in (DROP_EFFECTS, PERTURB):
            raise ValidationError(f"unknown fault mode {self.mode!r}")
        object.__setattr__(self, "adds", frozenset(self.adds))
        object.__setattr__(self, "dels", frozenset(self.dels))
        if self.mode == DROP_EFFECTS and (self.adds or self.dels):
            raise ValidationError("drop_effects faults take no adds or dels")
        if self.adds & self.dels:
            raise ValidationError("fault adds and deletes the same atom")


def faults_from_list(raw: object, vocabulary: Vocabulary, types: TypeTable) -> list[Fault]:
    if isinstance(raw, dict):
        raw = expect_keys(raw, "fault file", "faults")["faults"]
    faults = []
    for i, entry in enumerate(expect(raw, list, "fault file")):
        with located(f"fault record {i}"):
            expect_keys(entry, "entry", "step", "mode")
            step = expect(entry["step"], int, "step")
            adds, dels = (
                [atom_from_list(a, vocabulary) for a in expect(entry.get(k, []), list, k)]
                for k in ("adds", "dels")
            )
            for atom in adds + dels:
                check_atom_types(atom, types)
        faults.append(Fault(step, entry["mode"], frozenset(adds), frozenset(dels)))
    steps = [f.step for f in faults]
    if len(set(steps)) != len(steps):
        raise ValidationError("multiple faults scripted for the same step")
    return faults


def load_faults(path: str | Path, vocabulary: Vocabulary, types: TypeTable) -> list[Fault]:
    return read_json(path, lambda raw: faults_from_list(raw, vocabulary, types))


class WorldSim:
    """Holds the true world state and applies effects, faults included."""

    def __init__(self, initial: State, faults: Iterable[Fault] = ()):
        self.current = initial
        self.faults = {f.step: f for f in faults}

    def step(self, action: GroundedAction, step_index: int) -> State:
        fault = self.faults.get(step_index)
        if fault is None:
            self.current = apply(self.current, action.adds, action.dels)
        elif fault.mode == PERTURB:
            self.current = apply(self.current, fault.adds, fault.dels)
        return self.current


@dataclass(frozen=True)
class MonitorConfig:
    max_replans: int = 5
    node_limit: int = DEFAULT_NODE_LIMIT
    heuristic: str = "none"

    def __post_init__(self):
        budget = self.max_replans
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
            raise ValidationError(f"max_replans must be a non-negative integer, got {budget!r}")
        check_search_options(self.node_limit, self.heuristic)


@dataclass(frozen=True)
class StepRecord:
    step: int
    action: GroundedAction
    sensed: State
    discrepancy: tuple[GroundAtom, ...]


@dataclass(frozen=True)
class ReplanEvent:
    step: int
    reason: str
    plan: Plan


@dataclass(frozen=True)
class ExecutionLog:
    outcome: str
    reason: str = ""
    steps: tuple[StepRecord, ...] = ()
    replans: tuple[ReplanEvent, ...] = ()
    final_state: State = State()

    @property
    def succeeded(self) -> bool:
        return self.outcome == "success"


def execute(
    initial_plan: Plan,
    sim: WorldSim,
    goal: Sequence[Literal],
    actions: Iterable[GroundedAction],
    config: MonitorConfig = MonitorConfig(),
) -> ExecutionLog:
    """Run a plan to completion, replanning over ``actions`` on any surprise.

    ``actions`` is compiled once unless it is a Task already (``compiled``).
    A replan keeps the rest of the last searched plan when the whole sensed
    state is on its predicted path and it was searched on a Task of equal
    ``key``, for this goal, under ``config.heuristic``; otherwise, and for a
    plan built by hand or copied, it searches (``Task.rest_of``). A kept rest
    expands no states: ``config.node_limit`` bounds searches only.
    """
    goal = frozenset(goal)
    task = compiled(actions)
    proved, queue = initial_plan, list(initial_plan.actions)
    steps: list[StepRecord] = []
    replans: list[ReplanEvent] = []

    def replan(reason: str) -> Optional[str]:
        """Returns a failure reason, or None when a new plan was installed."""
        nonlocal proved, queue
        if len(replans) >= config.max_replans:
            return "replan budget exhausted"
        new_plan = task.rest_of(proved, sim.current, goal, config.heuristic)
        if new_plan is None:
            new_plan = proved = task.search(sim.current, goal, config.node_limit, config.heuristic)
        if new_plan is None:
            return "no plan reaches the goal from the sensed state"
        replans.append(ReplanEvent(len(steps), reason, new_plan))
        queue = list(new_plan.actions)
        return None

    def advance() -> Optional[str]:
        """Execute the next action; returns the reason to replan, if any."""
        if not queue:
            return "plan exhausted without reaching the goal"
        action = queue[0]
        unmet = [l for l in sorted(action.pre, key=Literal.sort_key) if not holds(sim.current, l)]
        if unmet:
            return f"preconditions of {action!r} unmet: {unmet}"
        expected = apply(sim.current, action.adds, action.dels)
        sensed = sim.step(action, len(steps))
        delta = sorted(expected.true_atoms ^ sensed.true_atoms, key=GroundAtom.sort_key)
        steps.append(StepRecord(len(steps), action, sensed, tuple(delta)))
        if delta:
            return f"state after {action!r} diverged on {delta}"
        queue.pop(0)
        return None

    while queue or not satisfies(sim.current, goal):
        reason = advance()
        failure = replan(reason) if reason else None
        if failure:
            return ExecutionLog("failure", failure, tuple(steps), tuple(replans), sim.current)
    return ExecutionLog("success", "", tuple(steps), tuple(replans), sim.current)


def log_to_dict(log: ExecutionLog) -> dict:
    return {
        "outcome": log.outcome,
        "reason": log.reason,
        "replans": [
            {
                "step": ev.step,
                "reason": ev.reason,
                "plan": [repr(a) for a in ev.plan.actions],
                "cost": ev.plan.total_cost,
            }
            for ev in log.replans
        ],
        "steps": [
            {
                "step": rec.step,
                "action": repr(rec.action),
                "discrepancy": [atom_to_list(a) for a in rec.discrepancy],
            }
            for rec in log.steps
        ],
        "final_state": [atom_to_list(a) for a in log.final_state.sorted_atoms()],
    }


def format_transcript(log: ExecutionLog) -> str:
    """Human-readable, one line per event, replans interleaved in step order."""
    lines = []
    by_step: dict[int, list[str]] = {}
    for ev in log.replans:
        by_step.setdefault(ev.step, []).append(
            f"replan at step {ev.step}: {ev.reason} -> {len(ev.plan.actions)} actions, cost {ev.plan.total_cost}"
        )
    for rec in log.steps:
        lines.extend(by_step.pop(rec.step, []))
        status = "ok" if not rec.discrepancy else f"diverged on {[repr(a) for a in rec.discrepancy]}"
        lines.append(f"step {rec.step}: {rec.action!r} ... {status}")
    for step in sorted(by_step):
        lines.extend(by_step[step])
    lines.append(f"outcome: {log.outcome}" + (f" ({log.reason})" if log.reason else ""))
    return "\n".join(lines) + "\n"
