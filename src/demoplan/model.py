"""Core symbolic model: typed objects, ground atoms, literals, states, and
lifted action schemas, plus the JSON codecs and the file reader every input
format shares.

States follow the closed-world convention: only true atoms are stored, and any
well-typed atom missing from the set is false.  Every type in this module is an
immutable value, so instances can be shared freely across threads.
"""

from __future__ import annotations

import json
import os
import reprlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar

from .errors import InputError, InvalidEffect, ParseError, SchemaError, ValidationError, located

T = TypeVar("T")

# PredicateSignature, GroundAtom and Literal are the members of every state,
# precondition and effect set, so each hashes its fields once, when it is
# built, into the value the dataclass would compute. Hashes of strings differ
# between processes, so a pickle holds only the fields and the hash is
# computed again when it is loaded.


def _cached_hash(value) -> int:
    return value._hash


def _rebuild(value) -> tuple:
    return type(value), tuple(getattr(value, f.name) for f in fields(value))


@dataclass(frozen=True)
class PredicateSignature:
    """A predicate name together with the ordered types of its arguments."""

    name: str
    arg_types: tuple[str, ...]

    __hash__ = _cached_hash
    __reduce__ = _rebuild

    def __post_init__(self):
        object.__setattr__(self, "arg_types", tuple(self.arg_types))
        if not self.name:
            raise SchemaError("predicate name must be nonempty")
        object.__setattr__(self, "_hash", hash((self.name, self.arg_types)))

    @property
    def arity(self) -> int:
        return len(self.arg_types)


@dataclass(frozen=True)
class ObjectInstance:
    """A concrete world object: an id plus the id of its type."""

    id: str
    type_id: str

    def __post_init__(self):
        if not self.id or not self.type_id:
            raise ValidationError(f"object needs nonempty id and type, got {self!r}")


@dataclass(frozen=True)
class GroundAtom:
    """A predicate applied to arguments.

    Arguments are object ids, or variable names like ``?w1`` once an operator
    has been lifted.  The arity is checked at construction time, so an atom
    with the wrong number of arguments can never exist.
    """

    predicate: PredicateSignature
    args: tuple[str, ...]

    __hash__ = _cached_hash
    __reduce__ = _rebuild

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.predicate.arity:
            raise ValidationError(
                f"{self.predicate.name} expects {self.predicate.arity} "
                f"argument(s), got {len(self.args)}: {self.args}"
            )
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    @property
    def name(self) -> str:
        return self.predicate.name

    def sort_key(self) -> tuple:
        return (self.predicate.name, self.args)

    def __repr__(self) -> str:
        return f"{self.name}({','.join(self.args)})"


@dataclass(frozen=True)
class Literal:
    """An atom with a polarity."""

    atom: GroundAtom
    positive: bool = True

    __hash__ = _cached_hash
    __reduce__ = _rebuild

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.atom, self.positive)))

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def sort_key(self) -> tuple:
        return (*self.atom.sort_key(), not self.positive)

    def __repr__(self) -> str:
        return repr(self.atom) if self.positive else f"!{self.atom!r}"


@dataclass(frozen=True)
class State:
    """The set of atoms that are true; everything else is false."""

    true_atoms: frozenset[GroundAtom] = frozenset()

    @staticmethod
    def of(atoms: Iterable[GroundAtom]) -> "State":
        return State(frozenset(atoms))

    def __contains__(self, atom: GroundAtom) -> bool:
        return atom in self.true_atoms

    def sorted_atoms(self) -> list[GroundAtom]:
        return sorted(self.true_atoms, key=GroundAtom.sort_key)


def holds(state: State, literal: Literal) -> bool:
    """Evaluate one literal against a state under the closed-world rule."""
    return (literal.atom in state.true_atoms) == literal.positive


def satisfies(state: State, literals: Iterable[Literal]) -> bool:
    return all(holds(state, lit) for lit in literals)


def apply(state: State, adds: Iterable[GroundAtom], dels: Iterable[GroundAtom]) -> State:
    """Produce the successor state ``(true \\ dels) | adds``.

    Raises InvalidEffect if the two sets overlap; an effect that adds and
    deletes the same atom has no defined meaning.
    """
    adds = frozenset(adds)
    dels = frozenset(dels)
    clash = adds & dels
    if clash:
        raise InvalidEffect(f"effect both adds and deletes {sorted(map(repr, clash))}")
    return State((state.true_atoms - dels) | adds)


@dataclass(frozen=True)
class ActionSchema:
    """A lifted action: distinct typed parameters, preconditions, add and
    delete effects over those parameters only, and a positive integer cost.
    No atom is both added and deleted, or required both true and false.

    A learned library (``OperatorLibrary.operators``) and a parsed PDDL
    domain (``DomainDoc.actions``) both hold actions in this one form, so
    both are grounded the same way.
    """

    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type_id)
    pre: frozenset[Literal]
    adds: frozenset[GroundAtom]
    dels: frozenset[GroundAtom]
    cost: int = 1

    def __post_init__(self):
        if not isinstance(self.cost, int) or self.cost < 1:
            raise ValidationError(
                f"cost of action {self.name!r} must be a positive integer, got {self.cost!r}"
            )
        if self.adds & self.dels:
            raise InvalidEffect(f"action {self.name!r} adds and deletes the same atom")
        variables = [var for var, _ in self.params]
        if len(set(variables)) != len(variables):
            raise ValidationError(f"action {self.name!r} repeats a parameter: {variables}")
        if len({l.atom for l in self.pre}) != len(self.pre):
            raise ValidationError(f"action {self.name!r} has contradictory preconditions")
        atoms = [*(l.atom for l in self.pre), *self.adds, *self.dels]
        stray = {arg for atom in atoms for arg in atom.args}.difference(variables)
        if stray:
            raise ValidationError(f"action {self.name!r} mentions non-parameters {sorted(stray)}")


@dataclass(frozen=True, eq=True)
class TypeTable:
    """Instance-to-type assignments plus an optional parent link per type.

    The table is flat unless parent links are supplied; subtype checks walk
    the parent chain and are reflexive. As in PDDL, ``object`` is the implicit
    root: every type is a subtype of it, a parent ``object`` is no parent, and
    ``object`` is never one of ``types`` and has no parent itself.
    """

    instance_to_type: Mapping[str, str] = field(default_factory=dict)
    type_to_parent: Mapping[str, str] = field(default_factory=dict)
    types: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "instance_to_type", dict(self.instance_to_type))
        parents = {t: p for t, p in self.type_to_parent.items() if p != "object"}
        if "object" in parents:
            raise SchemaError(f"the root type 'object' cannot have the parent {parents['object']!r}")
        object.__setattr__(self, "type_to_parent", parents)
        declared = {*self.types, *self.instance_to_type.values(), *parents, *parents.values()}
        object.__setattr__(self, "types", frozenset(declared - {"object"}))
        for start in self.type_to_parent:
            seen = {start}
            cur = start
            while cur in self.type_to_parent:
                cur = self.type_to_parent[cur]
                if cur in seen:
                    raise SchemaError(f"type hierarchy contains a cycle through {start!r}")
                seen.add(cur)

    def type_of(self, obj_id: str) -> str:
        type_id = self.instance_to_type.get(obj_id)
        if type_id is None:
            raise ValidationError(f"undeclared object {obj_id!r}")
        return type_id

    def ancestors(self, type_id: str) -> Iterator[str]:
        cur: str | None = type_id
        while cur is not None:
            yield cur
            cur = self.type_to_parent.get(cur)

    def is_subtype(self, type_id: str, ancestor: str) -> bool:
        return ancestor == "object" or ancestor in self.ancestors(type_id)

    def declares(self, type_id: str) -> bool:
        """Whether ``type_id`` is one of ``types`` or the root ``object``."""
        return type_id == "object" or type_id in self.types

    def objects(self) -> list[ObjectInstance]:
        return [
            ObjectInstance(obj, self.instance_to_type[obj])
            for obj in sorted(self.instance_to_type)
        ]

    def instances_of(self, type_id: str) -> list[str]:
        return [
            obj
            for obj in sorted(self.instance_to_type)
            if self.is_subtype(self.instance_to_type[obj], type_id)
        ]

    def with_instances(self, objects: Iterable[ObjectInstance]) -> "TypeTable":
        """A copy of this table with extra instances registered. An object of a type
        this table does not declare raises ValidationError; one retyped, SchemaError."""
        merged = dict(self.instance_to_type)
        for obj in objects:
            known = merged.get(obj.id)
            if known is not None and known != obj.type_id:
                raise SchemaError(f"object {obj.id!r} declared as both {known!r} and {obj.type_id!r}")
            if not self.declares(obj.type_id):
                raise ValidationError(f"object {obj.id!r} has undeclared type {obj.type_id!r}")
            merged[obj.id] = obj.type_id
        # only the instances change (to declared types), so skip __post_init__'s checks
        table = object.__new__(TypeTable)
        table.__dict__.update(vars(self), instance_to_type=merged)
        return table

    def merged(self, other: "TypeTable") -> "TypeTable":
        """This table with the types and parent links of ``other``, not its instances."""
        parents = dict(self.type_to_parent)
        for child, parent in other.type_to_parent.items():
            known = parents.get(child)
            if known is not None and known != parent:
                raise SchemaError(f"type {child!r} has conflicting parents {known!r} and {parent!r}")
            parents[child] = parent
        return TypeTable(self.instance_to_type, parents, self.types | other.types)


@dataclass(frozen=True, eq=True)
class Vocabulary:
    """The declared predicate signatures, unique by name."""

    signatures: tuple[PredicateSignature, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.signatures, key=lambda s: s.name))
        names = [s.name for s in ordered]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate predicate names in vocabulary: {names}")
        object.__setattr__(self, "signatures", ordered)

    @cached_property
    def by_name(self) -> dict[str, PredicateSignature]:
        return {s.name: s for s in self.signatures}

    def __contains__(self, name: str) -> bool:
        return name in self.by_name

    def get(self, name: str) -> PredicateSignature:
        sig = self.by_name.get(name)
        if sig is None:
            raise SchemaError(f"unknown predicate {name!r}")
        return sig

    def atom(self, name: str, *args: str) -> GroundAtom:
        return GroundAtom(self.get(name), tuple(args))

    def merged(self, other: "Vocabulary") -> "Vocabulary":
        combined = dict(self.by_name)
        for sig in other.signatures:
            known = combined.get(sig.name)
            if known is not None and known != sig:
                raise SchemaError(
                    f"predicate {sig.name!r} declared with arg types "
                    f"{known.arg_types} and {sig.arg_types}"
                )
            combined[sig.name] = sig
        return Vocabulary(tuple(combined.values()))


def check_atom_types(atom: GroundAtom, types: TypeTable) -> GroundAtom:
    """``atom`` if every argument is a declared object of a fitting type, else a ValidationError."""
    for arg, expected in zip(atom.args, atom.predicate.arg_types):
        actual = types.instance_to_type.get(arg)
        if actual is None:
            raise ValidationError(f"{atom!r}: argument {arg!r} is not a declared object")
        if not types.is_subtype(actual, expected):
            raise ValidationError(
                f"{atom!r}: argument {arg!r} has type {actual!r}, expected {expected!r}"
            )
    return atom


# JSON codecs shared by every file format in this package. Decoders check the
# shape of each value before they use it, so malformed JSON raises a ParseError
# or SchemaError and never a builtin error. Atoms and literals are lists:
# ["onTop","a","b"], negated ["!","onTop","a","b"].

NEGATION_MARK = "!"

_KINDS = {list: "a list", dict: "an object", str: "a string", int: "an integer",
          (int, float): "a number"}


def expect(value: Any, kind: Any, what: str) -> Any:
    """``value`` if it is a JSON value of ``kind`` (a bool is never a number),
    else a ParseError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"{what} must be {_KINDS[kind]}, got {reprlib.repr(value)}")
    return value


def expect_keys(value: Any, what: str, *keys: str) -> dict:
    """``value`` if it is a JSON object holding every key in ``keys``."""
    expect(value, dict, what)
    for key in keys:
        if key not in value:
            raise ParseError(f"{what} is missing required key {key!r}")
    return value


def _strings(value: Any, what: str) -> list[str]:
    for i, item in enumerate(expect(value, list, what)):
        expect(item, str, f"{what} entry {i}")
    return value


def atom_to_list(atom: GroundAtom) -> list[str]:
    return [atom.name, *atom.args]


def atom_from_list(entry: Any, vocabulary: Vocabulary) -> GroundAtom:
    if not isinstance(entry, list) or not entry or not all(isinstance(p, str) for p in entry):
        raise SchemaError(f"atom entry must be a list of strings, got {reprlib.repr(entry)}")
    return vocabulary.atom(entry[0], *entry[1:])


def once_per_entry(decode: Callable[[Any], T]) -> Callable[[Any], T]:
    """``decode`` run once per distinct atom or literal entry of one file; only successes are kept."""
    done: dict[tuple, T] = {}

    def decode_once(entry: Any) -> T:
        if type(entry) is not list:
            return decode(entry)
        key = tuple(entry)
        try:
            return done[key]
        except (KeyError, TypeError):  # not decoded yet, or an unhashable part and so bad
            pass
        done[key] = value = decode(entry)
        return value

    return decode_once


def literal_to_list(literal: Literal) -> list[str]:
    entry = atom_to_list(literal.atom)
    return entry if literal.positive else [NEGATION_MARK, *entry]


def literal_from_list(entry: Any, vocabulary: Vocabulary) -> Literal:
    if isinstance(entry, list) and entry[:1] == [NEGATION_MARK]:
        return Literal(atom_from_list(entry[1:], vocabulary), positive=False)
    return Literal(atom_from_list(entry, vocabulary), positive=True)


def vocabulary_to_json(vocabulary: Vocabulary) -> list[dict]:
    return [{"name": s.name, "arg_types": list(s.arg_types)} for s in vocabulary.signatures]


def vocabulary_from_json(entries: Any) -> Vocabulary:
    signatures = []
    for i, entry in enumerate(expect(entries, list, "'vocabulary'")):
        expect_keys(entry, f"vocabulary entry {i}", "name", "arg_types")
        name = expect(entry["name"], str, f"vocabulary entry {i} 'name'")
        arg_types = _strings(entry["arg_types"], f"vocabulary entry {i} 'arg_types'")
        signatures.append(PredicateSignature(name, tuple(arg_types)))
    return Vocabulary(tuple(signatures))


def objects_to_json(objects: Iterable[ObjectInstance]) -> list[dict]:
    return [{"id": o.id, "type": o.type_id} for o in objects]


def types_from_json(objects: Any, parents: Any, types: Any) -> TypeTable:
    """A type table from an ``objects`` list of {"id", "type"} entries, a
    ``parents`` map from type to parent type, and a list of extra type names."""
    instance_to_type = {}
    for i, entry in enumerate(expect(objects, list, "'objects'")):
        expect_keys(entry, f"object {i}", "id", "type")
        obj_id = expect(entry["id"], str, f"object {i} 'id'")
        if obj_id in instance_to_type:
            raise ValidationError(f"duplicate object id {obj_id!r}")
        instance_to_type[obj_id] = expect(entry["type"], str, f"object {i} 'type'")
    parents = expect(parents, dict, "'parents'")
    for child, parent in parents.items():
        expect(parent, str, f"parent of type {child!r}")
    return TypeTable(instance_to_type, parents, frozenset(_strings(types, "type names")))


# Every input file is read through read_file, so a file that cannot be read,
# is not UTF-8 or holds bad content raises an InputError whose message starts
# with its path, like any other bad input. A leading byte-order mark is
# skipped, so places in the file count from its first real character. Every
# output file is written through write_file, so one that cannot be written is
# bad input too.


def read_file(path: str | Path, decode: Callable[[str], T]) -> T:
    """Hand the text of ``path`` to ``decode``. Any InputError from ``decode``
    keeps its class and attributes and gets the path in front of its message."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc
    with located(path):
        return decode(text)


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, whole or not at all, or raise an
    InputError naming it. The text goes to a new file in the target's
    directory, which then takes an existing target's mode and replaces it."""
    target = os.path.realpath(path)  # a symlink is written through, not replaced
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies
        try:
            with open(fd, "w", encoding="utf-8") as out:
                out.write(text)
            if os.path.exists(target):
                os.chmod(temp, os.stat(target).st_mode & 0o7777)
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def read_json(path: str | Path, decode: Callable[[Any], T]) -> T:
    """read_file for a JSON file: ``decode`` gets the parsed payload."""
    return read_file(path, lambda text: decode(_parse_json(text)))


def json_text(payload: Any) -> str:
    """The text of every JSON file the package writes: two-space indent,
    sorted keys and a final newline, so equal payloads give equal bytes.
    These are the bytes of ``json.dumps(payload, indent=2, sort_keys=True)``
    and a newline, for a payload whose keys are strings; with an indent,
    ``json.dumps`` leaves its C encoder for a slower one written in Python."""
    out: list[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    """Append the text of ``value`` to ``out``; ``newline`` starts a line at its indentation."""
    if type(value) is str:
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple, dict)) and value:
        inner = newline + "  "
        separator = "," + inner
        if isinstance(value, dict):
            out.append("{" + inner)
            for key, item in sorted(value.items()):
                out.append(encode_basestring_ascii(key) + ": ")
                _write_json(item, inner, out)
                out.append(separator)
            out[-1] = newline + "}"
            return
        out.append("[" + inner)
        for item in value:
            _write_json(item, inner, out)
            out.append(separator)
        out[-1] = newline + "]"
    else:  # a number, None, a bool or an empty list or dict, as json.dumps writes it
        out.append(json.dumps(value))


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
