"""Seeded mutation fuzzing of every input file format.

Each format starts from one valid file: a trace, the rule table, the corpus
library, an init file, a faults file, and the emitted domain and problem.
Every mutation either loads or raises an InputError whose message starts with
the path of the mutated file; any other exception escaping a loader fails the
test. The mutations come from random.Random with a fixed seed, so a failure
names a file that can be rebuilt and read.
"""

import copy
import json
import random
import re

import pytest

from conftest import FIXTURE_PATH
from demoplan.cli import load_init
from demoplan.errors import InputError
from demoplan.learning import library_to_dict, load_library
from demoplan.model import atom_to_list, objects_to_json, read_file
from demoplan.monitor import load_faults
from demoplan.pddl import emit_domain, emit_problem, parse_domain, parse_problem
from demoplan.planner import derive_costs
from demoplan.segmentation import DEFAULT_RULES, load_rules
from demoplan.synth import corpus_goals, initial_state, planning_objects
from demoplan.traces import load_trace
from helpers import rules_to_json

MUTATIONS = 400

JSON_SAMPLES = (
    None, True, 0, -1, 7, 1.5, "", "x", "!", "?actor", "state", "Cube_red1", "onTop",
    [], {}, [[]], ["x"], ["!"], [1, 2], {"a": 1}, {"id": "H2", "type": 3},
)

PDDL_SAMPLES = (
    "(", ")", "and", "not", "-", "?x", "?h1", "object", "either", "forall", "when",
    ":action", ":parameters", ":effect", ":types", ":init", ":goal", "increase",
    "total-cost", "0", "-1", "1.5", "hand", "wooden_cube", "ontop", "cube_red1",
)


def _nodes(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _nodes(sub, path + (key,))
    elif isinstance(value, list):
        for index, sub in enumerate(value):
            yield from _nodes(sub, path + (index,))


def _get(value, path):
    for key in path:
        value = value[key]
    return value


def _mutate_json(payload, rng: random.Random) -> str:
    """One structural edit of a copy of ``payload``, or one edit of its text."""
    if rng.random() < 0.1:
        text = json.dumps(payload)
        cut = rng.randrange(len(text))
        # "\udcff" is written as the byte 0xff, which is not UTF-8
        return text[:cut] + rng.choice(("", "]", "}", ",", '"', "\\", "\udcff")) + text[cut + 1:]
    payload = copy.deepcopy(payload)
    paths = list(_nodes(payload))
    path = rng.choice(paths)
    if not path:
        return json.dumps(rng.choice(JSON_SAMPLES))
    parent, key = _get(payload, path[:-1]), path[-1]
    op = rng.randrange(5)
    if op == 0:
        parent[key] = copy.deepcopy(rng.choice(JSON_SAMPLES))
    elif op == 1:
        del parent[key]
    elif op == 2:
        parent[key] = [parent[key]]
    elif op == 3:
        parent[key] = copy.deepcopy(_get(payload, rng.choice(paths)))
    elif isinstance(parent, dict):
        parent[rng.choice(("x", "id", "name", "atoms", "types"))] = parent.pop(key)
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return json.dumps(payload)


def _mutate_pddl(text: str, rng: random.Random) -> str:
    """One to three token edits: delete, repeat, replace, or swap tokens."""
    tokens = re.findall(r"[()]|[^\s()]+|\s+", text)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        op = rng.randrange(4)
        if op == 0:
            del tokens[i]
        elif op == 1:
            tokens.insert(i, tokens[i])
        elif op == 2:
            tokens[i] = f" {rng.choice(PDDL_SAMPLES)} "
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


@pytest.fixture(scope="module")
def originals(corpus_library):
    """A valid file per format, with the loader that reads it back."""
    vocabulary, types = corpus_library.vocabulary, corpus_library.types
    table = types.with_instances(planning_objects())
    state_atoms = [atom_to_list(a) for a in initial_state().sorted_atoms()]
    goal = corpus_goals()["red_on_green"]
    domain = emit_domain(corpus_library, derive_costs(corpus_library).costs)
    domain_doc = parse_domain(domain)
    faults = [
        {"step": 1, "mode": "drop_effects"},
        {"step": 3, "mode": "perturb", "adds": state_atoms[:1], "dels": state_atoms[1:3]},
    ]
    return {
        "trace": (json.loads(FIXTURE_PATH.read_text()), load_trace),
        "rules": (rules_to_json(DEFAULT_RULES), load_rules),
        "library": (library_to_dict(corpus_library), load_library),
        "init": (
            {"objects": objects_to_json(planning_objects()), "atoms": state_atoms},
            lambda path: load_init(path, vocabulary, types),
        ),
        "faults": (faults, lambda path: load_faults(path, vocabulary, table)),
        "domain": (domain, lambda path: read_file(path, parse_domain)),
        "problem": (
            emit_problem(corpus_library, planning_objects(), initial_state(), goal),
            lambda path: read_file(path, lambda text: parse_problem(text, domain_doc)),
        ),
    }


@pytest.mark.parametrize(
    "fmt", ["trace", "rules", "library", "init", "faults", "domain", "problem"]
)
def test_every_mutation_loads_or_raises_an_input_error_naming_the_file(
    originals, tmp_path, fmt
):
    original, load = originals[fmt]
    rng = random.Random(f"fuzz-{fmt}")
    mutate = _mutate_pddl if isinstance(original, str) else _mutate_json
    loaded = rejected = 0
    for n in range(MUTATIONS):
        path = tmp_path / f"{fmt}-{n}"
        path.write_bytes(mutate(original, rng).encode("utf-8", "surrogateescape"))
        try:
            load(path)
            loaded += 1
        except InputError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            rejected += 1
    # the mutations reach both outcomes, so neither path goes untested
    assert loaded and rejected, (loaded, rejected)
