"""The three benchmark workloads: learn_noisy, plan_scenes and execute_faults.

Each workload sets up once (timed, and repeated for a median), then serves
rounds of operations. A round is a fixed mix of operation shapes filled in
from the seeded generator, so runs with different seeds do the same amount
of work. ``run`` is the timed operation; ``check`` then verifies its output
without trusting the code under test, and a failed check counts the
operation as failed.

The benchmark calls only public functions of demoplan's traces,
segmentation, learning, pddl, planner and monitor modules. Spans are recorded
around those calls here, never inside the package.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from demoplan.errors import NoEffectSegment
from demoplan.learning import (
    OperatorLibrary,
    build_library,
    canonical_key,
    extract,
    learn_from_trace,
    lift,
    load_library,
    merge,
    save_library,
)
from demoplan.model import State
from demoplan.monitor import DROP_EFFECTS, ExecutionLog, MonitorConfig, WorldSim, execute
from demoplan.pddl import (
    DomainDoc,
    NameMap,
    ProblemDoc,
    emit_domain,
    emit_problem,
    library_name_map,
    parse_domain,
    parse_problem,
    render_domain,
    render_problem,
)
from demoplan.planner import Plan, PlanValidation, derive_costs, ground, plan, validate
from demoplan.segmentation import DEFAULT_RULES, segment
from demoplan.synth import corpus
from demoplan.traces import DebounceConfig, debounce, load_trace, save_trace
from oracles import dijkstra_plan, replay

import gen

HEURISTICS = ("none", "hmax")
# Every scripted move shows these five phases, so each yields five segments.
PHASES_PER_MOVE = 5


@dataclass(frozen=True)
class Sizes:
    """How much work one set-up and one round hold."""

    # Set up at least this many times, and for at least this long in all.
    setup_repeats: int
    setup_seconds: float
    learn_sessions: int
    session_moves: tuple[int, ...]
    # (cube count, goal kinds to draw from) per scene; each scene is planned
    # once per heuristic.
    plan_round: tuple[tuple[int, tuple[str, ...]], ...]
    # (cube count, tower height, fault count) per episode.
    exec_round: tuple[tuple[int, int, int], ...]


_TWO_MOVES = (gen.TOWER3, gen.TWO_TOWERS)

FULL = Sizes(
    setup_repeats=3,
    setup_seconds=1.0,
    learn_sessions=4,
    session_moves=(1, 2, 3, 4, 5, 6, 7, 8),
    # Single stacks on 4, 5 and 6 cubes, then two-move goals: 30 requests.
    # The mix puts the median and the 90th percentile inside a group of
    # similar requests rather than at a jump between two groups, so a few
    # slow requests cannot move either by much.
    plan_round=((4, (gen.STACK,)),) * 3
    + ((5, (gen.STACK,)),) * 4
    + ((6, (gen.STACK,)),) * 3
    + ((4, (gen.TOWER3,)), (4, (gen.TWO_TOWERS,))) * 2
    + ((5, _TWO_MOVES),),
    # Every (cubes, faults) pair for 2- and 3-cube towers, with the cheap
    # 2-cube towers twice, so the median falls among them and the 90th
    # percentile among the 3-cube towers on 5 cubes: 18 episodes.
    exec_round=tuple((n, h, f) for h in (2, 2, 3) for n in (4, 5) for f in (1, 2, 3)),
)

TINY = Sizes(
    setup_repeats=1,
    setup_seconds=0.0,
    learn_sessions=1,
    session_moves=(1, 3),
    plan_round=((4, (gen.STACK,)),),
    exec_round=((4, 2, 1),),
)


@dataclass
class Outcome:
    """The verdict on one operation, and what its layers did."""

    error: Optional[str] = None
    counts: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# learn_noisy


@dataclass(frozen=True)
class LearnStep:
    trace_path: Path
    library_path: Path
    demo: gen.NoisyDemo
    expected_library: bytes
    moves_so_far: int


@dataclass
class LearnResult:
    frames: int = 0
    segments: list = field(default_factory=list)
    added: int = 0
    reobserved: int = 0
    dropped: int = 0
    domain: str = ""
    problem: str = ""
    domain_doc: Optional[DomainDoc] = None
    problem_doc: Optional[ProblemDoc] = None
    names: Optional[NameMap] = None


class LearnNoisy:
    """One operation is one incremental ``demoplan learn`` step on a noisy trace.

    It makes the public calls cmd_learn makes, in its order: load the
    persisted library, load the trace, learn, save, then publish the result
    as PDDL and parse it back. Each session starts from an empty library.
    """

    name = "learn_noisy"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        rng = random.Random(seed)
        self.sessions: list[list[LearnStep]] = []
        for k in range(sizes.learn_sessions):
            folder = workdir / f"session{k}"
            if folder.exists():
                shutil.rmtree(folder)
            folder.mkdir(parents=True)
            demos = gen.learn_session(rng, sizes.session_moves, f"s{k}")
            reference = self._clean_libraries(demos, folder / "clean.json")
            steps, moves = [], 0
            for i, demo in enumerate(demos):
                path = folder / f"demo{i}.json"
                save_trace(demo.noisy, path)
                moves += demo.moves
                steps.append(LearnStep(path, folder / "library.json", demo, reference[i], moves))
            self.sessions.append(steps)

    @staticmethod
    def _clean_libraries(demos: list[gen.NoisyDemo], path: Path) -> list[bytes]:
        """The library file after each step, learned from the clean traces."""
        library = None
        out = []
        for demo in demos:
            trace = demo.clean.trace
            if library is None:
                library = OperatorLibrary.empty(trace.vocabulary, trace.types)
            learn_from_trace(library, trace, DEFAULT_RULES)
            save_library(library, path)
            out.append(path.read_bytes())
        return out

    def setup_failures(self, seed: int) -> list[str]:
        return []

    def round_inputs(self, index: int, rng: random.Random) -> list[LearnStep]:
        steps = self.sessions[index % len(self.sessions)]
        steps[0].library_path.unlink(missing_ok=True)
        return steps

    def run(self, inp: LearnStep, tr) -> LearnResult:
        res = LearnResult()
        with tr.span("learning.library_load"):
            library = load_library(inp.library_path) if inp.library_path.exists() else None
        with tr.span("traces.load"):
            trace = load_trace(inp.trace_path)
        res.frames = len(trace.frames)
        if library is None:
            library = OperatorLibrary.empty(trace.vocabulary, trace.types)
        if tr.enabled:
            self._replayed_learn(library, trace, tr, res)
        else:
            report = learn_from_trace(library, trace, DEFAULT_RULES, source=str(inp.trace_path))
            res.segments = report.segments
            res.added, res.reobserved = len(report.added), len(report.incremented)
            res.dropped = report.dropped_no_effect
        with tr.span("learning.library_save"):
            save_library(library, inp.library_path)
        clean = inp.demo.clean.trace
        objects = clean.objects
        with tr.span("planner.derive_costs"):
            costs = derive_costs(library)
        with tr.span("pddl.emit_domain"):
            res.domain = emit_domain(library, costs.costs)
        with tr.span("pddl.emit_problem"):
            res.problem = emit_problem(
                library, objects, State(clean.frames[0].true_atoms), inp.demo.goal
            )
        with tr.span("pddl.library_name_map"):
            res.names = library_name_map(library).extended(
                ["learned", "task"] + [o.id for o in objects]
            )
        with tr.span("pddl.parse_domain"):
            res.domain_doc = parse_domain(res.domain, name_map=res.names)
        with tr.span("pddl.parse_problem"):
            res.problem_doc = parse_problem(res.problem, domain=res.domain_doc, name_map=res.names)
        return res

    @staticmethod
    def _replayed_learn(library: OperatorLibrary, trace, tr, res: LearnResult) -> None:
        """learn_from_trace, call by call in its own order, with a span on each."""
        with tr.span("learning.learn_from_trace"):
            library.absorb_schema(trace.vocabulary, trace.types)
            with tr.span("traces.debounce"):
                cleaned = debounce(trace, DebounceConfig())
            with tr.span("segmentation.segment"):
                res.segments = segment(cleaned, DEFAULT_RULES)
            for seg in res.segments:
                try:
                    with tr.span("learning.extract"):
                        grounded = extract(cleaned, seg)
                except NoEffectSegment:
                    res.dropped += 1
                    continue
                with tr.span("learning.lift"):
                    lifted = lift(grounded, cleaned.types)
                with tr.span("learning.canonical_key"):
                    key = canonical_key(lifted)
                known = key in library.operators
                with tr.span("learning.merge"):
                    merge(library, lifted)
                with tr.span("learning.variant_names"):
                    library.variant_names()
                if known:
                    res.reobserved += 1
                else:
                    res.added += 1

    def check(self, inp: LearnStep, res: LearnResult) -> Outcome:
        out = Outcome()
        out.counts = {
            "traces.frames": res.frames,
            "segmentation.segments": len(res.segments),
            "learning.operators_added": res.added,
            "learning.operators_reobserved": res.reobserved,
            "pddl.domain_bytes": len(res.domain.encode()),
        }
        out.error = self._verdict(inp, res)
        return out

    @staticmethod
    def _verdict(inp: LearnStep, res: LearnResult) -> Optional[str]:
        if res.segments != list(inp.demo.clean.segments):
            return "segments of the debounced noisy trace differ from the script"
        if res.dropped:
            return f"{res.dropped} segments dropped as effect-free"
        if res.added + res.reobserved != len(res.segments):
            return "added plus re-observed operators do not match the segments"
        saved = inp.library_path.read_bytes()
        if saved != inp.expected_library:
            return "library learned from noisy traces differs from the clean-trace library"
        check_path = inp.library_path.with_name("roundtrip.json")
        save_library(load_library(inp.library_path), check_path)
        if check_path.read_bytes() != saved:
            return "library JSON changed across save -> load -> save"
        observed = sum(op["count"] for op in json.loads(saved)["operators"])
        if observed != PHASES_PER_MOVE * inp.moves_so_far:
            return f"library holds {observed} observations, expected {PHASES_PER_MOVE * inp.moves_so_far}"
        if render_domain(res.domain_doc, res.names) != res.domain:
            return "domain PDDL changed across emit -> parse -> emit"
        if render_problem(res.problem_doc, res.names) != res.problem:
            return "problem PDDL changed across emit -> parse -> emit"
        return None


# ---------------------------------------------------------------------------
# Planning on the corpus library


class _CorpusPlanning:
    """Shared set-up: the library learned from the bundled twelve-trace corpus."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.sizes = sizes
        self.library = build_library([d.trace for d in corpus()], DEFAULT_RULES)
        self.costs = derive_costs(self.library)
        self.per_move: Optional[int] = None
        self.steps_per_move = 1

    def setup_failures(self, seed: int) -> list[str]:
        """Derive the cost and length of one move with the independent
        Dijkstra oracle on a 4-cube scene, and check that a two-move goal
        costs exactly twice as much."""
        rng = random.Random(seed)
        one = gen.scene(rng, 4, gen.STACK)
        found = dijkstra_plan(ground(self.library, one.objects, self.costs), one.init, one.goal)
        if found is None:
            return ["oracle finds no plan for a single stack on 4 cubes"]
        self.per_move, self.steps_per_move = found[0], len(found[1])
        two = gen.scene(rng, 4, rng.choice(_TWO_MOVES))
        found = dijkstra_plan(ground(self.library, two.objects, self.costs), two.init, two.goal)
        if found is None or found[0] != 2 * self.per_move:
            return [f"oracle cost of a two-move {two.kind} goal is not 2 x {self.per_move}"]
        return []

    def _plan_error(self, p: Optional[Plan], sc: gen.Scene) -> Optional[str]:
        if p is None:
            return "no plan found"
        expected = None if self.per_move is None else self.per_move * sc.moves
        if p.total_cost != expected:
            return f"plan cost {p.total_cost}, expected {expected}"
        replayed = replay(p.actions, sc.init, sc.goal)
        if replayed is None or replayed[0] != p.total_cost:
            return "plan does not replay to the goal at its stated cost"
        return None

    @staticmethod
    def _plan_counts(actions: list, p: Optional[Plan]) -> dict[str, float]:
        counts = {"planner.grounded_actions": len(actions)}
        if p is not None:
            counts["planner.plan_steps"] = len(p.actions)
            counts["planner.plan_cost"] = p.total_cost
        return counts


@dataclass(frozen=True)
class PlanRequest:
    scene: gen.Scene
    heuristic: str
    pair: int


@dataclass(frozen=True)
class PlanResult:
    actions: list
    plan: Optional[Plan]
    validation: Optional[PlanValidation]


class PlanScenes(_CorpusPlanning):
    """One operation is one plan request: ground, plan, validate.

    Each scene is requested twice in a row, blind and with hmax, so the two
    costs can be compared.
    """

    name = "plan_scenes"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        super().__init__(seed, sizes, workdir)
        self._pair_costs: dict[int, int] = {}
        self._pairs = 0

    def round_inputs(self, index: int, rng: random.Random) -> list[PlanRequest]:
        specs = list(self.sizes.plan_round)
        rng.shuffle(specs)
        requests = []
        for n_cubes, kinds in specs:
            sc = gen.scene(rng, n_cubes, rng.choice(kinds))
            self._pairs += 1
            requests.extend(PlanRequest(sc, h, self._pairs) for h in HEURISTICS)
        self._pair_costs.clear()
        return requests

    def run(self, inp: PlanRequest, tr) -> PlanResult:
        sc = inp.scene
        with tr.span("planner.ground"):
            actions = ground(self.library, sc.objects, self.costs)
        with tr.span(f"planner.plan_{inp.heuristic}"):
            p = plan(actions, sc.init, sc.goal, heuristic=inp.heuristic)
        with tr.span("planner.validate"):
            checked = None if p is None else validate(p, sc.init, sc.goal)
        return PlanResult(actions, p, checked)

    def check(self, inp: PlanRequest, res: PlanResult) -> Outcome:
        out = Outcome(counts=self._plan_counts(res.actions, res.plan))
        out.error = self._plan_error(res.plan, inp.scene)
        if out.error is None and not res.validation.ok:
            out.error = "validate rejects the plan"
        if out.error is None:
            cost = res.plan.total_cost
            other = self._pair_costs.setdefault(inp.pair, cost)
            if other != cost:
                out.error = f"blind and hmax costs differ: {other} vs {cost}"
        return out


@dataclass(frozen=True)
class Episode:
    scene: gen.Scene
    faults: tuple


@dataclass(frozen=True)
class EpisodeResult:
    actions: list
    plan: Optional[Plan]
    log: Optional[ExecutionLog]


class ExecuteFaults(_CorpusPlanning):
    """One operation is one episode: ground, plan a tower, execute with faults."""

    name = "execute_faults"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        super().__init__(seed, sizes, workdir)
        # Where each episode shape's faults start; it moves one step per round.
        rng = random.Random(seed)
        self._phases = [rng.randrange(1 << 16) for _ in sizes.exec_round]

    def round_inputs(self, index: int, rng: random.Random) -> list[Episode]:
        specs = list(zip(self.sizes.exec_round, self._phases))
        rng.shuffle(specs)
        episodes = []
        for (n_cubes, height, n_faults), phase in specs:
            sc = gen.scene(rng, n_cubes, gen.STACK if height == 2 else gen.TOWER3)
            steps = self.steps_per_move * sc.moves
            chosen = gen.faults(rng, sc, steps, n_faults, phase + index)
            episodes.append(Episode(sc, tuple(chosen)))
        return episodes

    def run(self, inp: Episode, tr) -> EpisodeResult:
        sc = inp.scene
        with tr.span("planner.ground"):
            actions = ground(self.library, sc.objects, self.costs)
        with tr.span("planner.plan_none"):
            p = plan(actions, sc.init, sc.goal)
        if p is None:
            return EpisodeResult(actions, None, None)
        with tr.span("monitor.execute"):
            log = execute(p, WorldSim(sc.init, inp.faults), sc.goal, actions, MonitorConfig())
        return EpisodeResult(actions, p, log)

    def check(self, inp: Episode, res: EpisodeResult) -> Outcome:
        out = Outcome(counts=self._plan_counts(res.actions, res.plan))
        out.error = self._plan_error(res.plan, inp.scene)
        if res.log is not None:
            log = res.log
            final_plan = log.replans[-1].plan if log.replans else res.plan
            out.counts["monitor.steps"] = len(log.steps)
            out.counts["monitor.replans"] = len(log.replans)
            out.counts["monitor.useful_steps"] = len(final_plan.actions)
            out.error = out.error or self._log_error(log, inp)
        return out

    @staticmethod
    def _log_error(log: ExecutionLog, inp: Episode) -> Optional[str]:
        """Re-run the world independently and compare every sensed state."""
        sc = inp.scene
        if not log.succeeded:
            return f"episode failed: {log.reason}"
        if len(log.replans) != len(inp.faults):
            return f"{len(log.replans)} replans for {len(inp.faults)} faults"
        by_step = {f.step: f for f in inp.faults}
        atoms = frozenset(sc.init.true_atoms)
        states = [atoms]
        for rec in log.steps:
            act = rec.action
            if not all((lit.atom in atoms) == lit.positive for lit in act.pre):
                return f"step {rec.step} ran {act!r} with unmet preconditions"
            fault = by_step.get(rec.step)
            if fault is None:
                atoms = (atoms - act.dels) | act.adds
            elif fault.mode != DROP_EFFECTS:
                atoms = (atoms - fault.dels) | fault.adds
            if atoms != rec.sensed.true_atoms:
                return f"step {rec.step}: sensed state differs from an independent replay"
            states.append(atoms)
        if atoms != log.final_state.true_atoms:
            return "final state differs from an independent replay"
        if not all((lit.atom in atoms) == lit.positive for lit in sc.goal):
            return "episode ends without the goal holding"
        for ev in log.replans:
            if replay(ev.plan.actions, State(states[ev.step]), sc.goal) is None:
                return f"replan at step {ev.step} does not replay to the goal"
        return None


WORKLOADS = {w.name: w for w in (LearnNoisy, PlanScenes, ExecuteFaults)}
