"""Command line interface.

Subcommands cover the full loop: gen-traces writes a demonstration corpus,
learn turns traces into an operator library, plan searches over a library or
over PDDL files, execute runs a plan against a simulated world with optional
scripted faults, and pipeline chains all of it and writes every artifact.

Exit codes: 0 done/solved, 2 goal unsolvable, 3 invalid input (an output
path that cannot be written included), 4 resource limit hit, 5 execution
failed. All file outputs are deterministic: JSON is sorted and the PDDL
renderer is byte-stable.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import InputError, ParseError, SearchLimitExceeded, ValidationError, located
from .learning import (
    OperatorLibrary,
    TraceReport,
    learn_from_trace,
    load_library,
    save_library,
)
from .model import (
    Literal,
    State,
    TypeTable,
    Vocabulary,
    atom_from_list,
    atom_to_list,
    check_atom_types,
    expect,
    expect_keys,
    json_text,
    literal_to_list,
    objects_to_json,
    read_file,
    read_json,
    types_from_json,
    write_file,
)
from .monitor import (
    ExecutionLog,
    MonitorConfig,
    WorldSim,
    execute,
    format_transcript,
    load_faults,
    log_to_dict,
)
from .pddl import emit_domain, emit_problem, parse_domain, parse_problem
from .planner import (
    DEFAULT_NODE_LIMIT,
    Plan,
    derive_costs,
    ground,
    plan,
    task_from_docs,
)
from .segmentation import DEFAULT_RULES, load_rules
from .synth import corpus, corpus_goals, initial_state, inject_flicker, planning_objects
from .traces import DebounceConfig, load_trace, save_trace

EXIT_OK = 0
EXIT_UNSOLVABLE = 2
EXIT_INVALID = 3
EXIT_LIMIT = 4
EXIT_EXECUTION = 5

_LITERAL_RE = re.compile(r"^\s*(!?)\s*([A-Za-z][\w-]*)\s*(?:\(\s*(.*?)\s*\))?\s*$")


def parse_literal_text(text: str, vocabulary: Vocabulary) -> Literal:
    """Parse goal syntax like ``onTop(Cube_red1,Table_1)`` or ``!handOpen(h)``."""
    match = _LITERAL_RE.match(text)
    if match is None:
        raise ParseError(f"cannot parse literal {text!r}")
    negated, name, arg_text = match.groups()
    args = []
    if arg_text:
        args = [a.strip() for a in arg_text.split(",")]
        if any(not a for a in args):
            raise ParseError(f"empty argument in literal {text!r}")
    return Literal(vocabulary.atom(name, *args), positive=not negated)


def load_init(path, vocabulary: Vocabulary, types: TypeTable) -> tuple[TypeTable, State]:
    """Read an initial-state file: {"objects": [{id,type}...], "atoms": [[...]...]}.
    Returns ``types`` with the file's objects added, and the state."""

    def decode(payload) -> tuple[TypeTable, State]:
        expect_keys(payload, "init file", "objects", "atoms")
        table = types.with_instances(types_from_json(payload["objects"], {}, []).objects())
        entries = expect(payload["atoms"], list, "'atoms'")
        atoms = [atom_from_list(entry, vocabulary) for entry in entries]
        for atom in atoms:
            check_atom_types(atom, table)
        return table, State.of(atoms)

    return read_json(path, decode)


def _out_dir(value: Optional[str]) -> Path:
    """The artifact directory, created if missing."""
    out = Path(value or os.environ.get("DEMOPLAN_OUT", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"{out}: cannot create directory: {exc.strerror or exc}") from exc
    return out


def _plan_payload(plan_: Optional[Plan]) -> dict:
    if plan_ is None:
        return {"solvable": False}
    return {
        "solvable": True,
        "cost": plan_.total_cost,
        "actions": [
            {"name": a.name, "objects": list(a.objects), "cost": a.cost}
            for a in plan_.actions
        ],
    }


# ---------------------------------------------------------------------------
# shared steps: learn, build a task, execute


def _learn(args, library: OperatorLibrary) -> list[TraceReport]:
    """Learn the traces of ``args`` into ``library``."""
    rules = load_rules(args.rules) if args.rules else DEFAULT_RULES
    config = DebounceConfig(window=args.debounce)
    reports = []
    for trace_path in args.traces:
        trace = load_trace(trace_path)
        with located(trace_path):
            reports.append(learn_from_trace(library, trace, rules, config, source=str(trace_path)))
    return reports


def _library_task(args, library: OperatorLibrary):
    """Object table, initial state, goal, and grounded actions from --init/--goal."""
    table, init = load_init(args.init, library.vocabulary, library.types)
    if not args.goal:
        raise ValidationError("at least one --goal literal is required")
    goal = [parse_literal_text(text, library.vocabulary) for text in args.goal]
    for literal in goal:
        check_atom_types(literal.atom, table)
    cost_model = None if args.unit_costs else derive_costs(library)
    actions = ground(library, table.objects(), cost_model)
    return table, init, goal, actions


def _execute(args, library, table, init, goal, actions, plan_: Plan) -> ExecutionLog:
    """Run a plan in a simulated world with the --faults script, replanning as needed."""
    faults = load_faults(args.faults, library.vocabulary, table) if args.faults else []
    config = MonitorConfig(max_replans=args.max_replans, node_limit=args.node_limit,
                           heuristic=args.heuristic)
    return execute(plan_, WorldSim(init, faults), goal, actions, config)


# ---------------------------------------------------------------------------
# learn


def cmd_learn(args) -> int:
    lib_path = Path(args.library)
    library = load_library(lib_path) if lib_path.exists() else OperatorLibrary()
    reports = _learn(args, library)
    save_library(library, lib_path)  # before any report, so none claims an unsaved library
    for report in reports:
        line = (
            f"{report.source}: {len(report.segments)} segments, "
            f"{len(report.added)} new, {len(report.incremented)} reobserved"
        )
        if report.dropped_no_effect:
            line += f", {report.dropped_no_effect} dropped (no effect)"
        print(line)
    names = library.variant_names()
    costs = derive_costs(library).costs
    for key, count in sorted(library.counts.items()):
        print(f"  {names[key]}: observed {count}x, cost {costs[key]}")
    print(f"library: {len(library.operators)} operators -> {lib_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plan


def cmd_plan(args) -> int:
    if args.domain or args.problem:
        if not (args.domain and args.problem):
            raise ValidationError("--domain and --problem must be given together")
        if args.library or args.init or args.goal:
            raise ValidationError("PDDL planning takes its task from the problem file")
        if args.unit_costs:
            raise ValidationError("--unit-costs only applies to --library planning")
        domain = read_file(args.domain, parse_domain)
        problem = read_file(args.problem, lambda text: parse_problem(text, domain))
        actions, init, goal = task_from_docs(domain, problem)
    else:
        if not args.library:
            raise ValidationError("either --library or --domain/--problem is required")
        _, init, goal, actions = _library_task(args, load_library(args.library))
    plan_ = plan(actions, init, goal, node_limit=args.node_limit, heuristic=args.heuristic)
    text = json_text(_plan_payload(plan_))
    sys.stdout.write(text)
    if args.out:
        write_file(args.out, text)
    return EXIT_OK if plan_ is not None else EXIT_UNSOLVABLE


# ---------------------------------------------------------------------------
# execute


def cmd_execute(args) -> int:
    library = load_library(args.library)
    table, init, goal, actions = _library_task(args, library)
    plan_ = plan(actions, init, goal, node_limit=args.node_limit, heuristic=args.heuristic)
    if plan_ is None:
        print("no plan reaches the goal from the initial state")
        return EXIT_UNSOLVABLE
    log = _execute(args, library, table, init, goal, actions, plan_)
    sys.stdout.write(format_transcript(log))
    if args.out:
        write_file(args.out, json_text(log_to_dict(log)))
    return EXIT_OK if log.succeeded else EXIT_EXECUTION


# ---------------------------------------------------------------------------
# pipeline


def cmd_pipeline(args) -> int:
    out = _out_dir(args.out)
    library = OperatorLibrary()
    _learn(args, library)
    save_library(library, out / "library.json")
    print(f"library: {len(library.operators)} operators -> {out / 'library.json'}")

    costs = None if args.unit_costs else derive_costs(library).costs  # the ones the plan uses
    write_file(out / "domain.pddl", emit_domain(library, costs))
    table, init, goal, actions = _library_task(args, library)
    write_file(out / "problem.pddl", emit_problem(library, table.objects(), init, goal))
    print(f"pddl: {out / 'domain.pddl'}, {out / 'problem.pddl'}")

    plan_ = plan(actions, init, goal, node_limit=args.node_limit, heuristic=args.heuristic)
    write_file(out / "plan.json", json_text(_plan_payload(plan_)))
    if plan_ is None:
        print("plan: goal is unsolvable")
        return EXIT_UNSOLVABLE
    print(f"plan: {len(plan_.actions)} steps, cost {plan_.total_cost} -> {out / 'plan.json'}")

    log = _execute(args, library, table, init, goal, actions, plan_)
    write_file(out / "execution.json", json_text(log_to_dict(log)))
    write_file(out / "transcript.txt", format_transcript(log))
    print(f"execution: {log.outcome}" + (f" ({log.reason})" if log.reason else ""))
    return EXIT_OK if log.succeeded else EXIT_EXECUTION


# ---------------------------------------------------------------------------
# gen-traces


def cmd_gen_traces(args) -> int:
    out = _out_dir(args.out)
    paths = []
    for i, demo in enumerate(corpus()):
        trace = demo.trace
        name = f"{trace.demonstrator}_{trace.scenario}.json"
        if args.flicker is not None:
            trace = inject_flicker(trace, seed=args.flicker + i)
            name = f"{trace.demonstrator}_{trace.scenario}_noisy.json"
        path = out / name
        save_trace(trace, path)
        paths.append(path)
    init_payload = {
        "objects": objects_to_json(planning_objects()),
        "atoms": [atom_to_list(a) for a in initial_state().sorted_atoms()],
    }
    write_file(out / "init.json", json_text(init_payload))
    goals_payload = {
        name: [literal_to_list(l) for l in literals]
        for name, literals in corpus_goals().items()
    }
    write_file(out / "goals.json", json_text(goals_payload))
    for path in paths:
        print(path)
    print(out / "init.json")
    print(out / "goals.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_planning_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT,
                   help="abort search after this many expanded states")
    p.add_argument("--heuristic", choices=("none", "hmax"), default="none",
                   help="optional admissible heuristic (same optimum, fewer expansions)")
    p.add_argument("--unit-costs", action="store_true",
                   help="ignore observation counts and give every action cost 1")


def _add_task_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--library", help="operator library JSON")
    p.add_argument("--init", help="initial state JSON (objects + atoms)")
    p.add_argument("--goal", action="append", default=[],
                   help="goal literal like 'onTop(Cube_red1,Cube_green1)'; repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demoplan",
        description="Learn planning operators from demonstration traces, then plan and execute.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn or update an operator library from traces")
    p.add_argument("traces", nargs="+", help="demonstration trace JSON files")
    p.add_argument("--library", required=True, help="library file to create or update")
    p.add_argument("--rules", help="segmentation rule JSON (default: built-in rules)")
    p.add_argument("--debounce", type=int, default=2, help="debounce window in frames")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("plan", help="find a minimum-cost plan")
    _add_task_options(p)
    p.add_argument("--domain", help="PDDL domain file (with --problem)")
    p.add_argument("--problem", help="PDDL problem file (with --domain)")
    p.add_argument("--out", help="also write the plan JSON here")
    _add_planning_options(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("execute", help="execute a plan in a simulated world")
    _add_task_options(p)
    p.add_argument("--faults", help="scripted fault JSON file")
    p.add_argument("--max-replans", type=int, default=5, help="replanning budget")
    p.add_argument("--out", help="also write the execution log JSON here")
    _add_planning_options(p)
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("pipeline", help="learn, emit PDDL, plan, and execute in one go")
    p.add_argument("traces", nargs="+", help="demonstration trace JSON files")
    p.add_argument("--rules", help="segmentation rule JSON (default: built-in rules)")
    p.add_argument("--debounce", type=int, default=2, help="debounce window in frames")
    p.add_argument("--init", required=True, help="initial state JSON (objects + atoms)")
    p.add_argument("--goal", action="append", default=[], required=True,
                   help="goal literal; repeatable")
    p.add_argument("--faults", help="scripted fault JSON file")
    p.add_argument("--max-replans", type=int, default=5, help="replanning budget")
    p.add_argument("--out", help="artifact directory (default: $DEMOPLAN_OUT or .)")
    _add_planning_options(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("gen-traces", help="write the scripted demonstration corpus")
    p.add_argument("--out", help="output directory (default: $DEMOPLAN_OUT or .)")
    p.add_argument("--flicker", type=int, default=None, metavar="SEED",
                   help="inject recoverable sensor flicker with this seed")
    p.set_defaults(func=cmd_gen_traces)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SearchLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
