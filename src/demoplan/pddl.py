"""Emission and parsing of a typed STRIPS subset of PDDL.

Supported constructs: :strips, :typing, :negative-preconditions and
:action-costs, conjunctive preconditions and goals with negation, delta
effects, a single (total-cost) fluent, and :metric minimize. Anything else
(durative actions, quantifiers, conditional effects, axioms) raises
UnsupportedFeature rather than being silently dropped.

PDDL identifiers are lowercase by convention, so original-case names go
through a NameMap. Parsing restores the original spelling only through the map
the caller passes (``library_name_map`` extended with the problem's names);
without one, parsed names keep their PDDL spelling. Rendering is
deterministic: sections are sorted line-by-line and indentation is two
spaces, which makes emitted text byte-stable across runs.

A domain document holds its actions as model.ActionSchema, the same form a
library hands to the planner, so an emitted and re-parsed domain plans
exactly like the library it came from. A problem is parsed against its
domain: predicates, types and argument types all come from there. A problem
may declare its own :requirements, which are checked as a domain's are. Only
:types, :predicates and :action sections may repeat; any other is an error.

The reader turns a text into plain lists and str symbols with one regex pass
and keeps no places. A fault found in that form raises _Unplaced, and the
parse runs again on the form read by _read_all, whose symbols know their
offsets, where the same fault raises its error with a line and column; only a
failing parse pays for places. A domain tables its types and predicates when
it reads their sections.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence, TypeVar, Union

from .errors import EmptyDomain, InputError, PddlSyntaxError, UnsupportedFeature, ValidationError
from .learning import OperatorLibrary, fresh_name
from .model import (
    ActionSchema,
    GroundAtom,
    Literal,
    ObjectInstance,
    PredicateSignature,
    State,
    TypeTable,
    Vocabulary,
    check_atom_types,
)

T = TypeVar("T")

REQUIREMENTS = (":strips", ":typing", ":negative-preconditions", ":action-costs")

# The names every emitted domain and problem carry.
_DOMAIN_NAME = "learned"
_PROBLEM_NAME = "task"

# Words that must never be produced by name mangling.
_RESERVED = {
    "define", "domain", "problem", "object", "and", "or", "not", "when",
    "forall", "exists", "increase", "minimize", "maximize", "total-cost",
    "number", "either",
}

_INVALID_CHARS = re.compile(r"[^a-z0-9_-]")


@dataclass(frozen=True)
class NameMap:
    """Bijection between original-case identifiers and their PDDL spellings."""

    pairs: tuple[tuple[str, str], ...]

    @cached_property
    def _forward(self) -> dict[str, str]:
        return dict(self.pairs)

    @cached_property
    def _backward(self) -> dict[str, str]:
        return {pddl: orig for orig, pddl in self.pairs}

    def pddl(self, name: str) -> str:
        return self._forward.get(name, name)

    def orig(self, name: str) -> str:
        return self._backward.get(name, name)

    def extended(self, names: Iterable[str]) -> "NameMap":
        """Add names without disturbing existing assignments."""
        pairs = list(self.pairs)
        taken = set(self._backward) | _RESERVED
        for name in sorted(set(names) - set(self._forward)):
            pddl = fresh_name(_mangle(name), taken)
            taken.add(pddl)
            pairs.append((name, pddl))
        return NameMap(tuple(pairs))


def _mangle(name: str) -> str:
    out = _INVALID_CHARS.sub("_", name.lower())
    if not out or not out[0].isalpha():
        out = "x" + out
    return out


def library_name_map(library: OperatorLibrary) -> NameMap:
    """Deterministic map over every identifier the domain file will mention."""
    names = set(library.types.types)
    names.update(sig.name for sig in library.vocabulary.signatures)
    names.update(library.variant_names().values())
    return NameMap(()).extended(names)


@dataclass(frozen=True)
class DomainDoc:
    """A domain with its types and predicates in the forms a library holds them."""

    name: str
    types: TypeTable  # the type hierarchy, no instances
    vocabulary: Vocabulary
    actions: tuple[ActionSchema, ...]  # sorted by name, original-case names
    requirements: tuple[str, ...] = REQUIREMENTS


@dataclass(frozen=True)
class ProblemDoc:
    name: str
    domain_name: str
    objects: tuple[ObjectInstance, ...]  # sorted by id
    init: tuple[GroundAtom, ...]
    goal: tuple[Literal, ...]


def domain_to_doc(
    library: OperatorLibrary, costs: Optional[Mapping[str, int]] = None
) -> DomainDoc:
    """Build the document form of a library; costs default to 1 per action."""
    if not library.operators:
        raise EmptyDomain("cannot emit a domain from an empty operator library")
    return DomainDoc(
        name=_DOMAIN_NAME,
        types=library.types,
        vocabulary=library.vocabulary,
        actions=tuple(library.schemas(costs)),
    )


def problem_to_doc(
    library: OperatorLibrary,
    objects: Iterable[ObjectInstance],
    init: State,
    goal: Iterable[Literal],
) -> ProblemDoc:
    objects = tuple(sorted(objects, key=lambda o: o.id))
    table = library.types.with_instances(objects)
    goal = tuple(sorted(goal, key=Literal.sort_key))
    if not goal:
        raise ValidationError("a problem needs at least one goal literal")
    for atom in [*init.sorted_atoms(), *(literal.atom for literal in goal)]:
        if library.vocabulary.get(atom.name) != atom.predicate:
            raise ValidationError(f"signature mismatch for predicate {atom.name!r}")
        check_atom_types(atom, table)
    return ProblemDoc(
        name=_PROBLEM_NAME,
        domain_name=_DOMAIN_NAME,
        objects=objects,
        init=tuple(init.sorted_atoms()),
        goal=goal,
    )


# ---------------------------------------------------------------------------
# Rendering


def _atom_text(atom: GroundAtom, nm: NameMap) -> str:
    parts = [nm.pddl(atom.predicate.name)]
    parts.extend(a if a.startswith("?") else nm.pddl(a) for a in atom.args)
    return "(" + " ".join(parts) + ")"


def _literal_text(literal: Literal, nm: NameMap) -> str:
    text = _atom_text(literal.atom, nm)
    return text if literal.positive else f"(not {text})"


def _type_text(type_id: str, nm: NameMap) -> str:
    """A type's PDDL spelling; the root stays ``object`` even if the map renames that name."""
    return type_id if type_id == "object" else nm.pddl(type_id)


def _typed_params(params: Sequence[tuple[str, str]], nm: NameMap) -> str:
    return " ".join(f"{var} - {_type_text(type_id, nm)}" for var, type_id in params)


def _block(lines: Iterable[str], indent: str) -> list[str]:
    return [indent + line for line in sorted(lines)]


def render_domain(doc: DomainDoc, nm: NameMap) -> str:
    out = [f"(define (domain {nm.pddl(doc.name)})"]
    out.append(f"  (:requirements {' '.join(doc.requirements)})")
    out.append("  (:types")
    parents = doc.types.type_to_parent
    out.extend(
        _block(
            (f"{nm.pddl(t)} - {_type_text(parents.get(t, 'object'), nm)}" for t in doc.types.types),
            "    ",
        )
    )
    out.append("  )")
    out.append("  (:predicates")
    pred_lines = []
    for sig in doc.vocabulary.signatures:
        args = " ".join(f"?x{i + 1} - {_type_text(t, nm)}" for i, t in enumerate(sig.arg_types))
        pred_lines.append(f"({nm.pddl(sig.name)}{' ' + args if args else ''})")
    out.extend(_block(pred_lines, "    "))
    out.append("  )")
    out.append("  (:functions")
    out.append("    (total-cost) - number")
    out.append("  )")
    for action in sorted(doc.actions, key=lambda a: nm.pddl(a.name)):
        out.append(f"  (:action {nm.pddl(action.name)}")
        out.append(f"    :parameters ({_typed_params(action.params, nm)})")
        out.append("    :precondition (and")
        out.extend(_block((_literal_text(l, nm) for l in action.pre), "      "))
        out.append("    )")
        out.append("    :effect (and")
        effect_lines = [_atom_text(a, nm) for a in action.adds]
        effect_lines.extend(f"(not {_atom_text(a, nm)})" for a in action.dels)
        out.extend(_block(effect_lines, "      "))
        out.append(f"      (increase (total-cost) {action.cost})")
        out.append("    )")
        out.append("  )")
    out.append(")")
    return "\n".join(out) + "\n"


def render_problem(doc: ProblemDoc, nm: NameMap) -> str:
    out = [f"(define (problem {nm.pddl(doc.name)})"]
    out.append(f"  (:domain {nm.pddl(doc.domain_name)})")
    out.append("  (:objects")
    out.extend(_block((f"{nm.pddl(o.id)} - {_type_text(o.type_id, nm)}" for o in doc.objects), "    "))
    out.append("  )")
    out.append("  (:init")
    out.extend(_block((_atom_text(a, nm) for a in doc.init), "    "))
    out.append("    (= (total-cost) 0)")
    out.append("  )")
    out.append("  (:goal (and")
    out.extend(_block((_literal_text(l, nm) for l in doc.goal), "    "))
    out.append("  ))")
    out.append("  (:metric minimize (total-cost))")
    out.append(")")
    return "\n".join(out) + "\n"


def emit_domain(library: OperatorLibrary, costs: Optional[Mapping[str, int]] = None) -> str:
    nm = library_name_map(library).extended([_DOMAIN_NAME])
    return render_domain(domain_to_doc(library, costs), nm)


def emit_problem(
    library: OperatorLibrary,
    objects: Iterable[ObjectInstance],
    init: State,
    goal: Iterable[Literal],
) -> str:
    doc = problem_to_doc(library, objects, init, goal)
    nm = library_name_map(library).extended(
        [_PROBLEM_NAME, _DOMAIN_NAME] + [o.id for o in doc.objects]
    )
    return render_problem(doc, nm)


# ---------------------------------------------------------------------------
# Parsing


_Tree = Union[str, list]  # a symbol, or a parenthesized list of trees

# A comment, or a parenthesis or a symbol in group 1. Spaces, tabs, carriage
# returns and newlines only separate tokens; any other character belongs to a
# symbol.
_TOKEN = re.compile(r";[^\n]*|([()]|[^ \t\r\n();]+)")


def _read_plain(text: str) -> _Tree:
    """The one top-level form of ``text`` in plain lists and str symbols, read
    in one pass with an explicit stack so that deep nesting cannot exhaust the
    interpreter's recursion limit."""
    open_lists: list[list] = []
    items: list = []  # of the innermost open list, or of the top level
    for token in _TOKEN.findall(text):  # a comment reads as ""
        if token == "(":
            open_lists.append(items)
            items = []
        elif token == ")":
            if not open_lists:
                break  # it closes nothing
            done, items = items, open_lists.pop()
            items.append(done)
        elif token:
            items.append(token)
    else:
        if not open_lists and len(items) == 1:
            return items[0]
    return _read_all(text)  # not one form: this raises the error at its token


class _Symbol(str):
    """A symbol that knows its ``offset`` in its ``source`` text."""

    def place(self) -> tuple[int, int]:
        newline = self.source.rfind("\n", 0, self.offset)
        return self.source.count("\n", 0, self.offset) + 1, self.offset - newline


class _List(list):
    """A parenthesized list that knows its opening '(' symbol."""

    __slots__ = ("paren",)

    def __init__(self, paren: _Symbol):
        super().__init__()
        self.paren = paren


def _read_all(text: str) -> _Tree:
    """The form of ``text`` as ``_read_plain`` reads it, but of _Symbol and
    _List nodes, which a message can place. Only a fault runs this reader: it
    raises the errors of a text that is not one form."""
    open_lists: list[_List] = []
    top: Optional[_Tree] = None
    for match in _TOKEN.finditer(text):
        if match.group(1) is None:  # a comment
            continue
        tok = _Symbol(match.group(1))
        tok.offset, tok.source = match.start(), text
        if top is not None:
            raise _fail("trailing text after top-level form", tok)
        if tok == "(":
            open_lists.append(_List(tok))
            continue
        if tok == ")":
            if not open_lists:
                raise _fail("unexpected ')'", tok)
            item: _Tree = open_lists.pop()
        else:
            item = tok
        if open_lists:
            open_lists[-1].append(item)
        else:
            top = item
    if open_lists:
        raise _fail("unbalanced parenthesis", open_lists[-1].paren)
    if top is None:
        raise PddlSyntaxError("empty input", line=1, column=1)
    return top


class _Unplaced(Exception):
    """A fault met in a form read without places."""


def _parse(text: str, parse: Callable[..., T], *args) -> T:
    """``parse(form, *args)`` of the form of ``text``. A fault raises
    _Unplaced in a form of plain lists and symbols, so the parse runs again
    on the form read with places, where it raises the same fault, placed."""
    try:
        return parse(_read_plain(text), *args)
    except _Unplaced:
        pass
    return parse(_read_all(text), *args)


def _head(tree: _Tree) -> str:
    if isinstance(tree, list) and tree and isinstance(tree[0], str):
        return tree[0].lower()
    return ""


def _where(tree: _Tree) -> tuple[int, int]:
    """Where the first symbol of ``tree`` stands, or the '(' of an empty list."""
    node = tree
    while isinstance(node, list):
        node = node[0] if node else getattr(node, "paren", None)
    if not isinstance(node, _Symbol):
        raise _Unplaced
    return node.place()


def _fail(message: str, tree: _Tree) -> PddlSyntaxError:
    """A syntax error placed at the first token of ``tree``."""
    line, column = _where(tree)
    return PddlSyntaxError(message, line=line, column=column)


def _symbol(tree: _Tree, what: str) -> str:
    if not isinstance(tree, str):
        raise _fail(f"expected {what}", tree)
    return tree


def _only(section: list, message: str) -> _Tree:
    """The single item after the head of ``section``."""
    if len(section) != 2:
        raise _fail(message, section)
    return section[1]


def _typed_list(items: Sequence[_Tree], nm: NameMap, what: str) -> list[tuple[str, str]]:
    """Parse 'a b - T c - S d' into (name, type) pairs; untyped means object."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        tok = _symbol(items[i], f"{what} name")
        if tok != "-":
            pending.append(nm.orig(tok))
            i += 1
            continue
        if not pending:
            raise _fail("dangling '-' in typed list", tok)
        if i + 1 >= len(items) or items[i + 1] == "-":
            raise _fail("missing type after '-'", tok)
        type_tok = items[i + 1]
        if isinstance(type_tok, list):
            raise UnsupportedFeature("compound types are not supported (%d:%d)" % _where(type_tok))
        out.extend((p, nm.orig(type_tok)) for p in pending)
        pending = []
        i += 2
    out.extend((p, "object") for p in pending)
    return out


def _read(
    tree: _Tree,
    kind: str,
    nm: NameMap,
    readers: Mapping[str, Callable[[list], object]],
    unsupported: Collection[str] = (),
) -> tuple[str, dict[str, object]]:
    """Check ``(define (<kind> <name>) <section>...)`` and hand each section to
    the reader for its head; only :types, :predicates and :action may repeat.
    Returns the name and, per head, what its reader returned."""
    if _head(tree) != "define":
        raise _fail("expected (define ...)", tree)
    if len(tree) < 2 or _head(tree[1]) != kind or len(tree[1]) != 2:
        raise _fail(f"expected ({kind} <name>)", tree)
    name = nm.orig(_symbol(tree[1][1], f"{kind} name"))
    found: dict[str, object] = {}
    for section in tree[2:]:
        head = _head(section)
        if head in found and head not in (":types", ":predicates", ":action"):
            raise _fail(f"repeated section {head!r}", section)
        if head in readers:
            found[head] = readers[head](section)
        elif head in unsupported:
            raise UnsupportedFeature(f"{head} is not supported")
        else:
            raise _fail(f"unexpected section {head!r}", section)
    return name, found


_CONDITION_UNSUPPORTED = {"forall", "exists", "when", "or", "imply", "oneof", "either"}


@dataclass
class _ParseScope:
    """What literals are checked against: known predicates, a name-restoring
    map, and a table of the legal argument names with their types."""

    vocabulary: Vocabulary
    nm: NameMap
    table: TypeTable


def _parse_literal(tree: _Tree, scope: _ParseScope) -> Literal:
    if not isinstance(tree, list) or not tree:
        raise _fail("expected a literal", tree)
    head = _head(tree)
    if head in _CONDITION_UNSUPPORTED:
        raise UnsupportedFeature(f"'{head}' is not supported in this PDDL subset")
    if head == "not":
        if len(tree) != 2:
            raise _fail("'not' takes exactly one literal", tree)
        if _head(tree[1]) == "not":
            raise _fail("double negation", tree)
        return _parse_literal(tree[1], scope).negated()
    return Literal(_parse_atom(tree, scope), True)


def _parse_atom(tree: _Tree, scope: _ParseScope) -> GroundAtom:
    """The atom of ``tree``, typed by the one rule every input follows
    (``check_atom_types``); a fault is placed at the atom."""
    name = scope.nm.orig(_symbol(tree[0], "predicate name"))
    args = [scope.nm.orig(_symbol(sub, "argument")) for sub in tree[1:]]
    try:
        return check_atom_types(scope.vocabulary.atom(name, *args), scope.table)
    except InputError as exc:
        raise ValidationError(f"{exc} at " + "%d:%d" % _where(tree)) from exc


def _conjunction(tree: _Tree, scope: _ParseScope) -> list[Literal]:
    if _head(tree) == "and":
        return [_parse_literal(sub, scope) for sub in tree[1:]]
    return [_parse_literal(tree, scope)]


def parse_domain(text: str, name_map: NameMap = NameMap(())) -> DomainDoc:
    """Parse a domain file; raises PddlSyntaxError / UnsupportedFeature /
    ValidationError depending on what is wrong."""
    return _parse(text, _domain, name_map)


def _domain(tree: _Tree, nm: NameMap) -> DomainDoc:
    """The domain of ``tree``. Its types and predicates are tabled when each
    section is read, so an action sees only those declared before it."""
    types: dict[str, str] = {}  # type -> parent
    predicates: list[PredicateSignature] = []
    table, vocabulary = TypeTable(), Vocabulary(())
    actions: list[ActionSchema] = []

    def read_types(section: list) -> None:
        nonlocal table
        for t, parent in _typed_list(section[1:], nm, "type"):
            if types.setdefault(t, parent) != parent:
                raise ValidationError(f"type {t!r} is declared with two parents")
        table = TypeTable({}, types, frozenset(types))  # a type cycle raises SchemaError here

    def read_predicates(section: list) -> None:
        nonlocal vocabulary
        predicates.extend(_predicate(p, nm) for p in section[1:])
        vocabulary = Vocabulary(tuple(predicates))  # so does a repeated predicate

    def read_action(section: list) -> None:
        actions.append(_parse_action(section, vocabulary, table, nm))

    domain_name, found = _read(tree, "domain", nm, {
        ":requirements": _requirements,
        ":types": read_types,
        ":predicates": read_predicates,
        ":functions": _check_functions,
        ":action": read_action,
    }, (":durative-action", ":derived", ":constants", ":axiom"))

    for sig in vocabulary.signatures:
        for type_id in sig.arg_types:
            if not table.declares(type_id):
                raise ValidationError(f"predicate {sig.name!r} uses undeclared type {type_id!r}")
    names = [a.name for a in actions]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate action names in domain")
    return DomainDoc(
        name=domain_name,
        types=table,
        vocabulary=vocabulary,
        actions=tuple(sorted(actions, key=lambda a: a.name)),
        requirements=found.get(":requirements", REQUIREMENTS),
    )


def _requirements(section: list) -> tuple[str, ...]:
    seen = []
    for item in section[1:]:
        req = _symbol(item, "requirement").lower()
        if req not in REQUIREMENTS:
            raise UnsupportedFeature(f"requirement {req} is not supported")
        seen.append(req)
    return tuple(seen)


def _predicate(pred: _Tree, nm: NameMap) -> PredicateSignature:
    if not isinstance(pred, list) or not pred:
        raise _fail("malformed predicate declaration", pred)
    name = nm.orig(_symbol(pred[0], "predicate name"))
    params = _typed_list(pred[1:], nm, "parameter")
    if not all(var.startswith("?") for var, _ in params):
        raise _fail("predicate parameters must be variables", pred)
    return PredicateSignature(name, tuple(t for _, t in params))


def _check_functions(section: list) -> None:
    for fn in section[1:]:
        if isinstance(fn, str) and fn.lower() in ("-", "number"):
            continue
        if _head(fn) != "total-cost" or len(fn) != 1:
            raise UnsupportedFeature("only the (total-cost) function is supported")


def _parse_action(section: list, vocabulary: Vocabulary, table: TypeTable, nm: NameMap) -> ActionSchema:
    """The action of ``section``, in the scope of what was declared before it."""
    if len(section) < 2:
        raise _fail("action needs a name", section)
    name = nm.orig(_symbol(section[1], "action name"))

    body: dict[str, _Tree] = {}
    for i in range(2, len(section), 2):
        key_tok = _symbol(section[i], "action keyword")
        key = key_tok.lower()
        if key not in (":parameters", ":precondition", ":effect"):
            raise UnsupportedFeature(f"action keyword {key} is not supported")
        if key in body:
            raise _fail(f"repeated {key}", key_tok)
        if i + 1 >= len(section):
            raise _fail(f"missing value for {key}", key_tok)
        body[key] = section[i + 1]
    if len(body) != 3:
        raise _fail("action needs :parameters, :precondition and :effect", section)

    if not isinstance(body[":parameters"], list):
        raise _fail("expected a parameter list", body[":parameters"])
    params = _typed_list(body[":parameters"], nm, "parameter")
    for var, type_id in params:
        if not var.startswith("?"):
            raise _fail("action parameters must be variables", section)
        if not table.declares(type_id):
            raise ValidationError(f"action {name!r} uses undeclared type {type_id!r}")

    # Constants are not supported in action bodies: only the parameters are
    # instances of the action's table, so anything else is undeclared.
    instances = [ObjectInstance(*param) for param in dict(params).items()]
    scope = _ParseScope(vocabulary, nm, table.with_instances(instances))
    pre = _conjunction(body[":precondition"], scope)
    adds, dels, cost = _parse_effect(body[":effect"], scope)
    return ActionSchema(
        name, tuple(params), frozenset(pre), frozenset(adds), frozenset(dels), cost
    )


def _parse_effect(
    tree: _Tree, scope: _ParseScope
) -> tuple[list[GroundAtom], list[GroundAtom], int]:
    items = tree[1:] if _head(tree) == "and" else [tree]
    adds: list[GroundAtom] = []
    dels: list[GroundAtom] = []
    cost = None
    for item in items:
        head = _head(item)
        if head == "increase":
            if cost is not None:
                raise _fail("duplicate cost effect", item)
            cost = _parse_cost(item)
            continue
        if head in _CONDITION_UNSUPPORTED or head == "assign" or head == "decrease":
            raise UnsupportedFeature(f"'{head}' is not supported in effects")
        literal = _parse_literal(item, scope)
        (adds if literal.positive else dels).append(literal.atom)
    return adds, dels, 1 if cost is None else cost


def _parse_cost(tree: list) -> int:
    if len(tree) != 3 or _head(tree[1]) != "total-cost":
        raise UnsupportedFeature("only (increase (total-cost) n) is supported (%d:%d)" % _where(tree))
    tok = _symbol(tree[2], "cost value")
    # int() would also take 1_0, +3 and non-ASCII digits
    if not (tok.isascii() and tok.isdigit()):
        raise _fail("cost must be a plain integer", tok)
    value = int(tok)
    if value < 1:
        raise ValidationError(f"cost must be positive, got {value} at " + "%d:%d" % _where(tok))
    return value


def parse_problem(
    text: str,
    domain: DomainDoc,
    name_map: NameMap = NameMap(()),
) -> ProblemDoc:
    """Parse a problem file for ``domain``, resolving predicates and types against it."""
    return _parse(text, _problem, domain, name_map)


def _problem(tree: _Tree, domain: DomainDoc, nm: NameMap) -> ProblemDoc:
    problem_name, found = _read(tree, "problem", nm, {
        ":requirements": _requirements,
        ":domain": lambda section: _symbol(_only(section, "malformed :domain"), "domain name"),
        ":objects": lambda section: [ObjectInstance(*o) for o in _typed_list(section[1:], nm, "object")],
        ":init": lambda section: section[1:],
        ":goal": lambda section: _only(section, ":goal takes one formula"),
        ":metric": _check_metric,
    })
    if ":init" not in found or ":goal" not in found:
        raise PddlSyntaxError("problem needs :init and :goal", line=1, column=1)
    if ":domain" not in found:
        raise ValidationError(f"problem needs a (:domain {domain.name}) section")
    domain_name = nm.orig(found[":domain"])
    if domain_name.lower() != domain.name.lower():  # PDDL names ignore case
        raise ValidationError(f"problem is for domain {domain_name!r}, not {domain.name!r} at "
                              + "%d:%d" % _where(found[":domain"]))
    objects = found.get(":objects", [])
    if len({o.id for o in objects}) != len(objects):
        raise ValidationError("duplicate object declarations")
    table = domain.types.with_instances(objects)
    scope = _ParseScope(domain.vocabulary, nm, table)

    init_atoms = []
    for item in found[":init"]:
        if _head(item) == "=":
            _check_total_cost_init(item)
            continue
        literal = _parse_literal(item, scope)
        if not literal.positive:
            raise ValidationError("negative literals are not allowed in :init")
        init_atoms.append(literal.atom)
    goal = _conjunction(found[":goal"], scope)
    if not goal:
        raise ValidationError("goal must contain at least one literal")
    return ProblemDoc(
        name=problem_name,
        domain_name=domain.name,
        objects=tuple(sorted(objects, key=lambda o: o.id)),
        init=tuple(sorted(set(init_atoms), key=GroundAtom.sort_key)),
        goal=tuple(sorted(set(goal), key=Literal.sort_key)),
    )


def _check_metric(section: list) -> None:
    if (
        len(section) != 3
        or _symbol(section[1], "metric direction").lower() != "minimize"
        or _head(section[2]) != "total-cost"
    ):
        raise UnsupportedFeature("only (:metric minimize (total-cost)) is supported")


def _check_total_cost_init(item: list) -> None:
    if len(item) != 3 or _head(item[1]) != "total-cost":
        raise UnsupportedFeature(
            "only (= (total-cost) 0) is supported in :init (%d:%d)" % _where(item)
        )
    if _symbol(item[2], "fluent value") != "0":
        raise UnsupportedFeature("(total-cost) must start at 0")
