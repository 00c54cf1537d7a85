"""Emission and parsing of a typed STRIPS subset of PDDL.

Supported constructs: :strips, :typing, :negative-preconditions and
:action-costs, conjunctive preconditions and goals with negation, delta
effects, a single (total-cost) fluent, and :metric minimize. Anything else
(durative actions, quantifiers, conditional effects, axioms) raises
UnsupportedFeature rather than being silently dropped.

PDDL identifiers are lowercase by convention, so original-case names go
through a NameMap; the map is persisted with the library so parsed files can
be restored to their original spelling. Rendering is deterministic: sections
are sorted line-by-line and indentation is two spaces, which makes emitted
text byte-stable across runs.

A domain document holds its actions as model.ActionSchema, the same form a
library hands to the planner, so an emitted and re-parsed domain plans
exactly like the library it came from. A problem is parsed against its
domain: predicates, types and argument types all come from there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    EmptyDomain,
    PddlSyntaxError,
    UnsupportedFeature,
    ValidationError,
)
from .learning import OperatorLibrary
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

REQUIREMENTS = (":strips", ":typing", ":negative-preconditions", ":action-costs")

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

    def as_dict(self) -> dict[str, str]:
        return {orig: pddl for orig, pddl in sorted(self.pairs)}

    def extended(self, names: Iterable[str]) -> "NameMap":
        """Add names without disturbing existing assignments."""
        pairs = list(self.pairs)
        taken = set(self._backward) | _RESERVED
        for name in sorted(set(names) - set(self._forward)):
            pddl = _assign(name, taken)
            taken.add(pddl)
            pairs.append((name, pddl))
        return NameMap(tuple(pairs))


def _mangle(name: str) -> str:
    out = _INVALID_CHARS.sub("_", name.lower())
    if not out or not out[0].isalpha():
        out = "x" + out
    return out


def _assign(name: str, taken: set) -> str:
    base = _mangle(name)
    if base not in taken:
        return base
    n = 2
    while f"{base}_{n}" in taken:
        n += 1
    return f"{base}_{n}"


def build_name_map(names: Iterable[str]) -> NameMap:
    return NameMap(()).extended(names)


def library_name_map(library: OperatorLibrary) -> NameMap:
    """Deterministic map over every identifier the domain file will mention."""
    names = set(library.types.types)
    names.update(sig.name for sig in library.vocabulary.signatures)
    names.update(library.variant_names().values())
    return build_name_map(names)


@dataclass(frozen=True)
class DomainDoc:
    name: str
    types: tuple[tuple[str, Optional[str]], ...]
    predicates: tuple[PredicateSignature, ...]
    actions: tuple[ActionSchema, ...]  # sorted by name, original-case names
    requirements: tuple[str, ...] = REQUIREMENTS

    def vocabulary(self) -> Vocabulary:
        return Vocabulary(self.predicates)

    def type_table(self) -> TypeTable:
        return TypeTable({}, {t: parent for t, parent in self.types})


@dataclass(frozen=True)
class ProblemDoc:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]
    init: tuple[GroundAtom, ...]
    goal: tuple[Literal, ...]


def domain_to_doc(
    library: OperatorLibrary,
    costs: Optional[Mapping[str, int]] = None,
    name: str = "learned",
) -> DomainDoc:
    """Build the document form of a library; costs default to 1 per action."""
    if not library.operators:
        raise EmptyDomain("cannot emit a domain from an empty operator library")
    types = tuple(
        sorted((t, library.types.type_to_parent.get(t)) for t in library.types.types)
    )
    return DomainDoc(
        name=name,
        types=types,
        predicates=library.vocabulary.signatures,
        actions=tuple(library.schemas(costs)),
    )


def problem_to_doc(
    library: OperatorLibrary,
    objects: Iterable[ObjectInstance],
    init: State,
    goal: Iterable[Literal],
    name: str = "task",
    domain_name: str = "learned",
) -> ProblemDoc:
    objects = sorted(objects, key=lambda o: o.id)
    goal = tuple(sorted(goal, key=Literal.sort_key))
    if not goal:
        raise ValidationError("a problem needs at least one goal literal")
    table = library.types.with_instances(objects)
    for atom in [*init.sorted_atoms(), *(literal.atom for literal in goal)]:
        if library.vocabulary.get(atom.name) != atom.predicate:
            raise ValidationError(f"signature mismatch for predicate {atom.name!r}")
        check_atom_types(atom, table)
    return ProblemDoc(
        name=name,
        domain_name=domain_name,
        objects=tuple((o.id, o.type_id) for o in objects),
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


def _typed_params(params: Sequence[tuple[str, str]], nm: NameMap) -> str:
    return " ".join(f"{var} - {nm.pddl(type_id)}" for var, type_id in params)


def _block(lines: Iterable[str], indent: str) -> list[str]:
    return [indent + line for line in sorted(lines)]


def render_domain(doc: DomainDoc, nm: NameMap) -> str:
    out = [f"(define (domain {nm.pddl(doc.name)})"]
    out.append(f"  (:requirements {' '.join(doc.requirements)})")
    out.append("  (:types")
    out.extend(
        _block(
            (f"{nm.pddl(t)} - {nm.pddl(parent) if parent else 'object'}" for t, parent in doc.types),
            "    ",
        )
    )
    out.append("  )")
    out.append("  (:predicates")
    pred_lines = []
    for sig in doc.predicates:
        args = " ".join(f"?x{i + 1} - {nm.pddl(t)}" for i, t in enumerate(sig.arg_types))
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
    out.extend(_block((f"{nm.pddl(o)} - {nm.pddl(t)}" for o, t in doc.objects), "    "))
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


def emit_domain(
    library: OperatorLibrary,
    costs: Optional[Mapping[str, int]] = None,
    name: str = "learned",
) -> str:
    doc = domain_to_doc(library, costs, name)
    nm = library_name_map(library).extended([name])
    return render_domain(doc, nm)


def emit_problem(
    library: OperatorLibrary,
    objects: Iterable[ObjectInstance],
    init: State,
    goal: Iterable[Literal],
    name: str = "task",
    domain_name: str = "learned",
) -> str:
    doc = problem_to_doc(library, objects, init, goal, name, domain_name)
    nm = library_name_map(library).extended(
        [name, domain_name] + [o for o, _ in doc.objects]
    )
    return render_problem(doc, nm)


# ---------------------------------------------------------------------------
# Parsing


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            col += 1
            i += 1
            continue
        if c in "()":
            tokens.append(_Token(c, line, col))
            col += 1
            i += 1
            continue
        j = i
        while j < len(text) and text[j] not in " \t\r\n();":
            j += 1
        tokens.append(_Token(text[i:j], line, col))
        col += j - i
        i = j
    return tokens


_Tree = Union[_Token, list]


def _read_all(text: str) -> _Tree:
    """The one top-level form of ``text``, read with an explicit stack so
    that deep nesting cannot exhaust the interpreter's recursion limit."""
    tokens = _tokenize(text)
    if not tokens:
        raise PddlSyntaxError("empty input", line=1, column=1)
    open_lists: list[tuple[_Token, list]] = []
    for pos, tok in enumerate(tokens):
        if tok.text == "(":
            open_lists.append((tok, []))
            continue
        if tok.text == ")":
            if not open_lists:
                raise PddlSyntaxError("unexpected ')'", line=tok.line, column=tok.column)
            item: _Tree = open_lists.pop()[1]
        else:
            item = tok
        if not open_lists:
            if pos + 1 != len(tokens):
                extra = tokens[pos + 1]
                raise PddlSyntaxError(
                    "trailing text after top-level form", line=extra.line, column=extra.column
                )
            return item
        open_lists[-1][1].append(item)
    tok = open_lists[-1][0]
    raise PddlSyntaxError("unbalanced parenthesis", line=tok.line, column=tok.column)


def _head(tree: _Tree) -> str:
    if isinstance(tree, list) and tree and isinstance(tree[0], _Token):
        return tree[0].text.lower()
    return ""


def _where(tree: _Tree) -> tuple[int, int]:
    node = tree
    while isinstance(node, list):
        if not node:
            return (0, 0)
        node = node[0]
    return (node.line, node.column)


def _symbol(tree: _Tree, what: str) -> _Token:
    if not isinstance(tree, _Token):
        line, column = _where(tree)
        raise PddlSyntaxError(f"expected {what}", line=line, column=column)
    return tree


def _restore(token: _Token, nm: Optional[NameMap]) -> str:
    return nm.orig(token.text) if nm is not None else token.text


def _typed_list(
    items: Sequence[_Tree], nm: Optional[NameMap], what: str
) -> list[tuple[str, str]]:
    """Parse 'a b - T c - S d' into (name, type) pairs; untyped means object."""
    out: list[tuple[str, str]] = []
    pending: list[_Token] = []
    i = 0
    while i < len(items):
        tok = _symbol(items[i], f"{what} name")
        if tok.text == "-":
            if not pending:
                raise PddlSyntaxError("dangling '-' in typed list", line=tok.line, column=tok.column)
            if i + 1 >= len(items):
                raise PddlSyntaxError("missing type after '-'", line=tok.line, column=tok.column)
            type_tok = items[i + 1]
            if isinstance(type_tok, list):
                line, column = _where(type_tok)
                raise UnsupportedFeature(f"compound types are not supported ({line}:{column})")
            out.extend((_restore(p, nm), _restore(type_tok, nm)) for p in pending)
            pending = []
            i += 2
            continue
        pending.append(tok)
        i += 1
    out.extend((_restore(p, nm), "object") for p in pending)
    return out


_CONDITION_UNSUPPORTED = {"forall", "exists", "when", "or", "imply", "oneof", "either"}


@dataclass
class _ParseScope:
    """What literals are checked against: known predicates, a name-restoring
    map, the type of each legal argument, and the domain's subtype relation."""

    vocabulary: Vocabulary
    nm: Optional[NameMap]
    arg_types: Mapping[str, str]
    table: TypeTable

    def compatible(self, actual: str, expected: str) -> bool:
        return "object" in (actual, expected) or self.table.is_subtype(actual, expected)


def _parse_literal(tree: _Tree, scope: _ParseScope) -> Literal:
    if not isinstance(tree, list) or not tree:
        line, column = _where(tree)
        raise PddlSyntaxError("expected a literal", line=line, column=column)
    head = _head(tree)
    if head in _CONDITION_UNSUPPORTED:
        raise UnsupportedFeature(f"'{head}' is not supported in this PDDL subset")
    if head == "not":
        if len(tree) != 2:
            line, column = _where(tree)
            raise PddlSyntaxError("'not' takes exactly one literal", line=line, column=column)
        if _head(tree[1]) == "not":
            raise PddlSyntaxError("double negation", *_where(tree))
        return _parse_literal(tree[1], scope).negated()
    return Literal(_parse_atom(tree, scope), True)


def _parse_atom(tree: _Tree, scope: _ParseScope) -> GroundAtom:
    head_tok = _symbol(tree[0], "predicate name")
    name = _restore(head_tok, scope.nm)
    if name not in scope.vocabulary:
        raise ValidationError(
            f"unknown predicate {name!r} at {head_tok.line}:{head_tok.column}"
        )
    sig = scope.vocabulary.get(name)
    args = []
    for sub in tree[1:]:
        tok = _symbol(sub, "argument")
        args.append(_restore(tok, scope.nm))
    if len(args) != sig.arity:
        raise ValidationError(
            f"predicate {name!r} takes {sig.arity} arguments, got {len(args)} "
            f"at {head_tok.line}:{head_tok.column}"
        )
    for arg, expected in zip(args, sig.arg_types):
        actual = scope.arg_types.get(arg)
        if actual is None:
            raise ValidationError(
                f"undeclared name {arg!r} at {head_tok.line}:{head_tok.column}"
            )
        if not scope.compatible(actual, expected):
            raise ValidationError(
                f"argument {arg!r} of {name!r} should be a {expected}, is a {actual}"
            )
    return GroundAtom(sig, tuple(args))


def _conjunction(tree: _Tree, scope: _ParseScope) -> list[Literal]:
    if _head(tree) == "and":
        return [_parse_literal(sub, scope) for sub in tree[1:]]
    return [_parse_literal(tree, scope)]


def _define(text: str, kind: str, nm: Optional[NameMap]) -> tuple[str, list]:
    """The name and the remaining sections of ``(define (<kind> <name>) ...)``."""
    tree = _read_all(text)
    if _head(tree) != "define":
        line, column = _where(tree)
        raise PddlSyntaxError("expected (define ...)", line=line, column=column)
    sections = tree[1:]
    if not sections or _head(sections[0]) != kind or len(sections[0]) != 2:
        line, column = _where(tree)
        raise PddlSyntaxError(f"expected ({kind} <name>)", line=line, column=column)
    return _restore(_symbol(sections[0][1], f"{kind} name"), nm), sections[1:]


def parse_domain(text: str, name_map: Optional[NameMap] = None) -> DomainDoc:
    """Parse a domain file; raises PddlSyntaxError / UnsupportedFeature /
    ValidationError depending on what is wrong."""
    domain_name, sections = _define(text, "domain", name_map)

    requirements: tuple[str, ...] = REQUIREMENTS
    types: dict[str, Optional[str]] = {}  # type -> parent, None for object
    predicates: list[PredicateSignature] = []
    actions: list[ActionSchema] = []
    for section in sections:
        head = _head(section)
        if head == ":requirements":
            seen = []
            for item in section[1:]:
                req = _symbol(item, "requirement").text.lower()
                if req not in REQUIREMENTS:
                    raise UnsupportedFeature(f"requirement {req} is not supported")
                seen.append(req)
            requirements = tuple(seen)
        elif head == ":types":
            for t, parent in _typed_list(section[1:], name_map, "type"):
                parent = None if parent == "object" else parent
                if types.setdefault(t, parent) != parent:
                    raise ValidationError(f"type {t!r} is declared with two parents")
        elif head == ":predicates":
            for pred in section[1:]:
                if not isinstance(pred, list) or not pred:
                    line, column = _where(pred)
                    raise PddlSyntaxError("malformed predicate declaration", line=line, column=column)
                pname = _restore(_symbol(pred[0], "predicate name"), name_map)
                params = _typed_list(pred[1:], name_map, "parameter")
                for var, _ in params:
                    if not var.startswith("?"):
                        raise PddlSyntaxError(
                            "predicate parameters must be variables",
                            line=_where(pred)[0],
                            column=_where(pred)[1],
                        )
                predicates.append(PredicateSignature(pname, tuple(t for _, t in params)))
        elif head == ":functions":
            for fn in section[1:]:
                if isinstance(fn, _Token) and fn.text == "-":
                    continue
                if isinstance(fn, _Token) and fn.text.lower() == "number":
                    continue
                if _head(fn) != "total-cost" or len(fn) != 1:
                    raise UnsupportedFeature("only the (total-cost) function is supported")
        elif head == ":action":
            actions.append(_parse_action(section, predicates, types, name_map))
        elif head in (":durative-action", ":derived", ":constants", ":axiom"):
            raise UnsupportedFeature(f"{head} is not supported")
        else:
            line, column = _where(section)
            raise PddlSyntaxError(f"unexpected section {head!r}", line=line, column=column)

    doc = DomainDoc(
        name=domain_name,
        types=tuple(sorted(types.items())),
        predicates=tuple(sorted(predicates, key=lambda s: s.name)),
        actions=tuple(sorted(actions, key=lambda a: a.name)),
        requirements=requirements,
    )
    names = [a.name for a in doc.actions]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate action names in domain")
    doc.vocabulary()  # raises SchemaError on duplicate predicates
    return doc


def _parse_action(
    section: list,
    predicates: Sequence[PredicateSignature],
    types: Mapping[str, Optional[str]],
    nm: Optional[NameMap],
) -> ActionSchema:
    if len(section) < 2:
        line, column = _where(section)
        raise PddlSyntaxError("action needs a name", line=line, column=column)
    name = _restore(_symbol(section[1], "action name"), nm)
    vocabulary = Vocabulary(tuple(predicates))
    table = TypeTable({}, types)

    body: dict[str, _Tree] = {}
    i = 2
    while i < len(section):
        key_tok = _symbol(section[i], "action keyword")
        key = key_tok.text.lower()
        if key not in (":parameters", ":precondition", ":effect"):
            raise UnsupportedFeature(f"action keyword {key} is not supported")
        if i + 1 >= len(section):
            raise PddlSyntaxError(
                f"missing value for {key}", line=key_tok.line, column=key_tok.column
            )
        body[key] = section[i + 1]
        i += 2
    if ":parameters" not in body or ":precondition" not in body or ":effect" not in body:
        line, column = _where(section)
        raise PddlSyntaxError(
            "action needs :parameters, :precondition and :effect", line=line, column=column
        )

    if not isinstance(body[":parameters"], list):
        line, column = _where(body[":parameters"])
        raise PddlSyntaxError("expected a parameter list", line=line, column=column)
    params = _typed_list(body[":parameters"], nm, "parameter")
    param_types = dict(params)
    for var, type_id in params:
        if not var.startswith("?"):
            line, column = _where(section)
            raise PddlSyntaxError("action parameters must be variables", line=line, column=column)
        if type_id != "object" and type_id not in table.types:
            raise ValidationError(f"action {name!r} uses undeclared type {type_id!r}")

    # Constants are not supported in action bodies: only declared parameters
    # carry a type, so anything else fails the undeclared-name check.
    scope = _ParseScope(vocabulary, nm, param_types, table)
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
                line, column = _where(item)
                raise PddlSyntaxError("duplicate cost effect", line=line, column=column)
            cost = _parse_cost(item)
            continue
        if head in _CONDITION_UNSUPPORTED or head == "assign" or head == "decrease":
            raise UnsupportedFeature(f"'{head}' is not supported in effects")
        literal = _parse_literal(item, scope)
        (adds if literal.positive else dels).append(literal.atom)
    if set(adds) & set(dels):
        raise ValidationError("effect adds and deletes the same atom")
    return adds, dels, 1 if cost is None else cost


def _parse_cost(tree: list) -> int:
    line, column = _where(tree)
    if len(tree) != 3 or _head(tree[1]) != "total-cost":
        raise UnsupportedFeature(f"only (increase (total-cost) n) is supported ({line}:{column})")
    tok = _symbol(tree[2], "cost value")
    # int() would also take 1_0, +3 and non-ASCII digits
    if not (tok.text.isascii() and tok.text.isdigit()):
        raise PddlSyntaxError("cost must be a plain integer", line=tok.line, column=tok.column)
    value = int(tok.text)
    if value < 1:
        raise ValidationError(f"cost must be positive, got {value} at {tok.line}:{tok.column}")
    return value


def parse_problem(
    text: str,
    domain: DomainDoc,
    name_map: Optional[NameMap] = None,
) -> ProblemDoc:
    """Parse a problem file, resolving predicates and types against its domain."""
    problem_name, sections = _define(text, "problem", name_map)

    domain_name = ""
    objects: list[tuple[str, str]] = []
    init_section: Optional[list] = None
    goal_section: Optional[_Tree] = None
    for section in sections:
        head = _head(section)
        if head == ":domain":
            if len(section) != 2:
                line, column = _where(section)
                raise PddlSyntaxError("malformed :domain", line=line, column=column)
            domain_name = _restore(_symbol(section[1], "domain name"), name_map)
        elif head == ":objects":
            objects = _typed_list(section[1:], name_map, "object")
        elif head == ":init":
            init_section = section[1:]
        elif head == ":goal":
            if len(section) != 2:
                line, column = _where(section)
                raise PddlSyntaxError(":goal takes one formula", line=line, column=column)
            goal_section = section[1]
        elif head == ":metric":
            _check_metric(section)
        else:
            line, column = _where(section)
            raise PddlSyntaxError(f"unexpected section {head!r}", line=line, column=column)

    if init_section is None or goal_section is None:
        raise PddlSyntaxError("problem needs :init and :goal", line=1, column=1)
    if len(set(o for o, _ in objects)) != len(objects):
        raise ValidationError("duplicate object declarations")

    table = domain.type_table().with_instances(ObjectInstance(o, t) for o, t in objects)
    scope = _ParseScope(domain.vocabulary(), name_map, dict(objects), table)

    init_atoms = []
    for item in init_section:
        if _head(item) == "=":
            _check_total_cost_init(item)
            continue
        literal = _parse_literal(item, scope)
        if not literal.positive:
            raise ValidationError("negative literals are not allowed in :init")
        init_atoms.append(literal.atom)
    goal = _conjunction(goal_section, scope)
    if not goal:
        raise ValidationError("goal must contain at least one literal")
    return ProblemDoc(
        name=problem_name,
        domain_name=domain_name,
        objects=tuple(sorted(objects)),
        init=tuple(sorted(set(init_atoms), key=GroundAtom.sort_key)),
        goal=tuple(sorted(set(goal), key=Literal.sort_key)),
    )


def _check_metric(section: list) -> None:
    if (
        len(section) != 3
        or _symbol(section[1], "metric direction").text.lower() != "minimize"
        or _head(section[2]) != "total-cost"
    ):
        raise UnsupportedFeature("only (:metric minimize (total-cost)) is supported")


def _check_total_cost_init(item: list) -> None:
    line, column = _where(item)
    if len(item) != 3 or _head(item[1]) != "total-cost":
        raise UnsupportedFeature(f"only (= (total-cost) 0) is supported in :init ({line}:{column})")
    tok = _symbol(item[2], "fluent value")
    if tok.text != "0":
        raise UnsupportedFeature("(total-cost) must start at 0")
