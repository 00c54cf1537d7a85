import gc
import random

import pytest

from demoplan.errors import (
    EmptyDomain,
    InputError,
    InvalidEffect,
    PddlSyntaxError,
    SchemaError,
    UnsupportedFeature,
    ValidationError,
)
from demoplan.learning import OperatorLibrary, lift, merge
from demoplan.model import (
    GroundAtom,
    ObjectInstance,
    PredicateSignature,
    State,
    TypeTable,
    read_file,
)
from demoplan.pddl import (
    NameMap,
    _read_all,
    _read_plain,
    domain_to_doc,
    emit_domain,
    emit_problem,
    library_name_map,
    parse_domain,
    parse_problem,
    render_domain,
    render_problem,
)
from demoplan.planner import plan, task_from_docs, validate
from demoplan.synth import corpus_goals, initial_state, planning_objects

from helpers import (
    OPERATOR_NAME_POOL,
    hostile_library,
    random_grounded_operator,
    random_library,
    toy_schema,
)
from oracles import read_all_reference

CRANE_DOMAIN = """(define (domain crane)
  (:requirements :strips :typing :negative-preconditions :action-costs)
  (:types crate - object)
  (:predicates
    (lifted ?c - crate)
    (stacked ?a - crate ?b - crate)
    (armfree)
  )
  (:functions (total-cost) - number)
  ; hoisting wears the winch, so it costs more than dropping
  (:action hoist
    :parameters (?c - crate)
    :precondition (and (armfree) (not (lifted ?c)))
    :effect (and (lifted ?c) (not (armfree)) (increase (total-cost) 2))
  )
  (:action drop-onto
    :parameters (?c - crate ?base - crate)
    :precondition (and (lifted ?c))
    :effect (and (stacked ?c ?base) (armfree) (not (lifted ?c)))
  )
)"""

CRANE_PROBLEM = """(define (problem restack)
  (:domain crane)
  (:objects c1 c2 - crate)
  (:init (armfree) (= (total-cost) 0))
  (:goal (and (stacked c1 c2) (armfree)))
  (:metric minimize (total-cost))
)"""


class TestNameMap:
    def test_mangling_rules(self):
        names = ["onTop", "OnTop", "1abc", "and", "hand move", "x"]
        nm = NameMap(()).extended(names)
        assert {name: nm.pddl(name) for name in names} == {
            "1abc": "x1abc",
            "OnTop": "ontop",
            "and": "and_2",
            "hand move": "hand_move",
            "onTop": "ontop_2",
            "x": "x",
        }

    def test_map_is_a_bijection(self):
        names = ["Wooden_cube", "wooden-CUBE", "put", "PUT", "define"]
        nm = NameMap(()).extended(names)
        seen = set()
        for name in names:
            mapped = nm.pddl(name)
            assert mapped not in seen
            seen.add(mapped)
            assert nm.orig(mapped) == name

    def test_assignment_ignores_input_order(self):
        names = ["zeta", "Alpha", "alpha", "Beta"]
        a = NameMap(()).extended(names)
        b = NameMap(()).extended(list(reversed(names)))
        assert sorted(a.pairs) == sorted(b.pairs)

    def test_extended_keeps_existing_assignments(self):
        nm = NameMap(()).extended(["onTop"])
        wider = nm.extended(["ONTOP"])
        assert wider.pddl("onTop") == nm.pddl("onTop")
        assert wider.pddl("ONTOP") != wider.pddl("onTop")

    def test_library_map_covers_every_identifier(self, corpus_library):
        nm = library_name_map(corpus_library)
        assert nm.pddl("handMove") == "handmove"
        assert nm.pddl("Wooden_cube") == "wooden_cube"
        assert nm.orig("wooden_cube") == "Wooden_cube"
        assert nm.pddl("place_2") == "place_2"
        assert nm.pddl("Support") == "support"


class TestEmission:
    def test_domain_header_and_determinism(self, corpus_library):
        text = emit_domain(corpus_library)
        assert text == emit_domain(corpus_library)
        assert text.startswith(
            "(define (domain learned)\n"
            "  (:requirements :strips :typing :negative-preconditions :action-costs)\n"
            "  (:types\n"
            "    hand - object\n"
            "    support - object\n"
            "    table - support\n"
            "    wooden_cube - support\n"
            "  )\n"
        )
        assert text.endswith(")\n")
        assert text.count("(:action ") == 7

    def test_problem_rejects_an_atom_of_another_signature(self, corpus_library):
        odd = GroundAtom(PredicateSignature("handOpen", ("Wooden_cube",)), ("Cube_red1",))
        goal = corpus_goals()["red_on_green"]
        with pytest.raises(ValidationError, match="^signature mismatch for predicate 'handOpen'$"):
            emit_problem(corpus_library, planning_objects(), State.of([odd]), goal)

    def test_problem_text_shape(self, corpus_library):
        goal = corpus_goals()["red_on_green"]
        text = emit_problem(corpus_library, planning_objects(), initial_state(), goal)
        assert text == emit_problem(corpus_library, planning_objects(), initial_state(), goal)
        assert "(define (problem task)" in text
        assert "(:domain learned)" in text
        assert "(= (total-cost) 0)" in text
        assert "(:metric minimize (total-cost))" in text
        assert "(ontop cube_red1 cube_green1)" in text

    def test_empty_library_cannot_be_emitted(self):
        vocabulary, table = toy_schema()
        with pytest.raises(EmptyDomain):
            emit_domain(OperatorLibrary.empty(vocabulary, table))

    def test_costs_must_be_positive_integers(self, corpus_library):
        zeroed = {key: 0 for key in corpus_library.operators}
        with pytest.raises(ValidationError):
            emit_domain(corpus_library, zeroed)

    def test_problem_needs_a_goal(self, corpus_library):
        with pytest.raises(ValidationError):
            emit_problem(corpus_library, planning_objects(), initial_state(), [])

    def test_problem_rejects_atoms_over_unknown_objects(self, corpus_library):
        goal = corpus_goals()["red_on_green"]
        with pytest.raises(ValidationError):
            emit_problem(
                corpus_library,
                [ObjectInstance("Table_1", "Table")],
                initial_state(),
                goal,
            )


class TestRoundTrips:
    def _corpus_name_map(self, library):
        return library_name_map(library).extended(
            ["learned", "task"] + [o.id for o in planning_objects()]
        )

    def test_corpus_domain_round_trips_byte_identically(self, corpus_library):
        text = emit_domain(corpus_library)
        nm = self._corpus_name_map(corpus_library)
        doc = parse_domain(text, name_map=nm)
        assert render_domain(doc, nm) == text

    def test_corpus_problem_round_trips_byte_identically(self, corpus_library):
        goal = corpus_goals()["tower_blue_red_green"]
        text = emit_problem(corpus_library, planning_objects(), initial_state(), goal)
        nm = self._corpus_name_map(corpus_library)
        domain_doc = parse_domain(emit_domain(corpus_library), name_map=nm)
        doc = parse_problem(text, domain=domain_doc, name_map=nm)
        assert render_problem(doc, nm) == text

    def test_parse_rebuilds_the_document_structure(self, corpus_library):
        text = emit_domain(corpus_library)
        nm = self._corpus_name_map(corpus_library)
        doc = parse_domain(text, name_map=nm)
        reference = domain_to_doc(corpus_library)
        assert doc == reference

    def test_a_parsed_domain_has_the_library_types(self, corpus_library):
        doc = parse_domain(emit_domain(corpus_library), name_map=library_name_map(corpus_library))
        assert doc.types == corpus_library.types
        assert doc.vocabulary == corpus_library.vocabulary

    def test_random_libraries_round_trip(self):
        rng = random.Random(2024)
        for _ in range(10):
            library = random_library(rng)
            nm = library_name_map(library).extended(["learned"])
            text = emit_domain(library)
            assert render_domain(parse_domain(text, name_map=nm), nm) == text

    def test_a_large_library_round_trips(self):
        # stresses variant numbering and the name mangler: seven labels
        # spread over a hundred-plus operators, some with reserved names
        rng = random.Random(115)
        vocabulary, table = toy_schema()
        library = OperatorLibrary.empty(vocabulary, table)
        for _ in range(2000):
            if len(library.operators) >= 115:
                break
            op = random_grounded_operator(rng, rng.choice(OPERATOR_NAME_POOL))
            merge(library, lift(op, table))
        assert len(library.operators) == 115
        nm = library_name_map(library).extended(["learned"])
        text = emit_domain(library)
        doc = parse_domain(text, name_map=nm)
        assert render_domain(doc, nm) == text
        assert doc == domain_to_doc(library)

    def test_libraries_with_hostile_names_round_trip(self):
        """Types, predicates and operators named like PDDL keywords, ``object``,
        case variants and non-ASCII letters all come back as they were."""
        rng = random.Random(17)
        for _ in range(300):
            library = hostile_library(rng)
            if not library.operators:
                continue
            text = emit_domain(library)
            parse_domain(text)  # valid PDDL without the map: every type it names is declared
            doc = parse_domain(text, name_map=library_name_map(library))
            assert doc.types == library.types
            assert doc.vocabulary == library.vocabulary
            assert doc.actions == tuple(library.schemas())

    def test_labels_of_the_form_label_n_round_trip(self):
        """Labels that repeat a variant name still give every action its own name."""
        rng = random.Random(5)
        for _ in range(50):
            library = random_library(rng, 6, labels=("put", "put_2", "Put", "put_3"))
            names = list(library.variant_names().values())
            assert len(set(names)) == len(names)
            doc = parse_domain(emit_domain(library), name_map=library_name_map(library))
            assert doc.actions == tuple(library.schemas())

    def test_domain_costs_must_be_positive_integers(self, corpus_library):
        with pytest.raises(ValidationError, match="positive integer"):
            emit_domain(corpus_library, {key: 0 for key in corpus_library.operators})


class TestParsing:
    def test_a_declared_root_is_the_implicit_one(self):
        doc = parse_domain("(define (domain d) (:types object block - object thing))")
        assert doc.types == TypeTable({}, {}, frozenset({"block", "thing"}))
        assert doc.types.is_subtype("block", "object")

    def test_crane_domain(self):
        doc = parse_domain(CRANE_DOMAIN)
        assert doc.name == "crane"
        # documents keep actions sorted by name so rendering is deterministic
        assert [a.name for a in doc.actions] == ["drop-onto", "hoist"]
        assert doc.actions[1].cost == 2
        assert doc.actions[0].cost == 1  # no increase clause defaults to one
        assert doc.vocabulary.get("armfree").arity == 0
        assert doc.types == TypeTable(types=frozenset({"crate"}))  # no parent for a root

    def test_crane_problem_plans_and_validates(self):
        domain_doc = parse_domain(CRANE_DOMAIN)
        problem_doc = parse_problem(CRANE_PROBLEM, domain=domain_doc)
        actions, init, goal = task_from_docs(domain_doc, problem_doc)
        # injective grounding: hoist over 2 crates, drop-onto over ordered pairs
        assert len(actions) == 4
        result = plan(actions, init, goal)
        assert result.total_cost == 3
        assert [a.name for a in result.actions] == ["hoist", "drop-onto"]
        assert validate(result, init, goal).ok

    def test_keywords_are_case_insensitive_and_names_keep_case(self):
        text = CRANE_DOMAIN.replace("(define", "(DEFINE").replace("(domain crane)", "(Domain Crane)")
        text = text.replace("(:action hoist", "(:ACTION Hoist")
        doc = parse_domain(text)
        assert doc.name == "Crane"
        assert doc.actions[0].name == "Hoist"

    def test_comments_are_ignored(self):
        assert parse_domain(CRANE_DOMAIN + "\n; trailing commentary\n").name == "crane"

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(PddlSyntaxError) as err:
            parse_domain("(define (domain d)\n  (:predicates (p ?x)")
        assert err.value.line >= 1 and err.value.column >= 1
        with pytest.raises(PddlSyntaxError):
            parse_domain(CRANE_DOMAIN + " junk")

    def test_errors_read_from_a_file_name_it_and_keep_their_position(self, tmp_path):
        path = tmp_path / "domain.pddl"
        path.write_text("(define (domain d)\n  (:predicates (p ?x)")
        with pytest.raises(PddlSyntaxError) as err:
            read_file(path, parse_domain)
        assert str(err.value) == f"{path}: unbalanced parenthesis (line 2, column 3)"
        assert (err.value.line, err.value.column) == (2, 3)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        domain, problem = tmp_path / "domain.pddl", tmp_path / "problem.pddl"
        domain.write_bytes(b"\xef\xbb\xbf" + CRANE_DOMAIN.encode())
        problem.write_bytes(b"\xef\xbb\xbf" + CRANE_PROBLEM.encode())
        doc = read_file(domain, parse_domain)
        assert doc == parse_domain(CRANE_DOMAIN)
        assert read_file(problem, lambda text: parse_problem(text, doc)) == parse_problem(CRANE_PROBLEM, doc)
        # places count from the first character after the mark
        domain.write_bytes(b"\xef\xbb\xbf" + b"(define (domain d)\n  (:predicates (p ?x)")
        with pytest.raises(PddlSyntaxError) as err:
            read_file(domain, parse_domain)
        assert (err.value.line, err.value.column) == (2, 3)

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(PddlSyntaxError, match="expected \\(define"):
            parse_domain("(" * 10_000 + ")" * 10_000)
        negations = "(not " * 10_000 + "(lifted ?c)" + ")" * 10_000
        with pytest.raises(PddlSyntaxError, match="double negation"):
            parse_domain(CRANE_DOMAIN.replace("(and (lifted ?c))", negations))

    def test_structural_requirements(self):
        with pytest.raises(PddlSyntaxError):
            parse_domain("(definitely (domain d))")
        with pytest.raises(PddlSyntaxError):
            parse_domain(CRANE_DOMAIN.replace("    :parameters (?c - crate)\n", ""))

    def test_semantic_validation(self):
        with pytest.raises(ValidationError, match="unknown predicate"):
            parse_domain(CRANE_DOMAIN.replace("(and (lifted ?c))", "(and (levitated ?c))"))
        with pytest.raises(ValidationError, match=r"expects 1 argument\(s\), got 2"):
            parse_domain(CRANE_DOMAIN.replace("(and (lifted ?c))", "(and (lifted ?c ?base))"))
        with pytest.raises(ValidationError, match="undeclared type"):
            parse_domain(CRANE_DOMAIN.replace("?c - crate)\n    :precondition (and (armfree)", "?c - pallet)\n    :precondition (and (armfree)"))
        with pytest.raises(ValidationError, match="two parents"):
            parse_domain(CRANE_DOMAIN.replace("crate - object)", "crate - object crate - box box)"))
        with pytest.raises(ValidationError, match="duplicate action"):
            parse_domain(CRANE_DOMAIN[:-1] + CRANE_DOMAIN[CRANE_DOMAIN.index("(:action hoist"):])
        with pytest.raises(ValidationError, match="cost must be positive"):
            parse_domain(CRANE_DOMAIN.replace("(increase (total-cost) 2)", "(increase (total-cost) 0)"))

    def test_recognized_but_unsupported_constructs(self):
        cases = [
            CRANE_DOMAIN.replace("(and (lifted ?c))", "(or (lifted ?c))"),
            CRANE_DOMAIN.replace("(and (lifted ?c))", "(forall (?x - crate) (lifted ?x))"),
            CRANE_DOMAIN.replace("(stacked ?c ?base) ", "(when (armfree) (stacked ?c ?base)) "),
            CRANE_DOMAIN.replace(
                "(:types crate - object)", "(:types crate - object)\n  (:constants c0 - crate)"
            ),
            CRANE_DOMAIN.replace("(:action hoist", "(:durative-action glide)\n  (:action hoist"),
        ]
        for text in cases:
            with pytest.raises(UnsupportedFeature):
                parse_domain(text)

    def test_problem_validation(self):
        domain_doc = parse_domain(CRANE_DOMAIN)
        with pytest.raises(ValidationError, match="duplicate object"):
            parse_problem(CRANE_PROBLEM.replace("c1 c2 - crate", "c1 c1 - crate"), domain_doc)
        with pytest.raises(ValidationError, match="negative literals"):
            parse_problem(CRANE_PROBLEM.replace("(armfree)", "(not (armfree))"), domain_doc)
        with pytest.raises(UnsupportedFeature):
            parse_problem(CRANE_PROBLEM.replace("minimize", "maximize"), domain_doc)
        with pytest.raises(UnsupportedFeature):
            parse_problem(CRANE_PROBLEM.replace("(= (total-cost) 0)", "(= (total-cost) 5)"), domain_doc)
        with pytest.raises(ValidationError, match="'c9' is not a declared object"):
            parse_problem(CRANE_PROBLEM.replace("(stacked c1 c2)", "(stacked c1 c9)"), domain_doc)

    def test_problem_tolerates_missing_cost_bookkeeping(self):
        # files without the cost clauses still parse; we only reject wrong ones
        domain_doc = parse_domain(CRANE_DOMAIN)
        text = CRANE_PROBLEM.replace(" (= (total-cost) 0)", "").replace(
            "\n  (:metric minimize (total-cost))", ""
        )
        doc = parse_problem(text, domain=domain_doc)
        assert [a.name for a in doc.init] == ["armfree"]

    def test_goal_duplicates_collapse(self):
        domain_doc = parse_domain(CRANE_DOMAIN)
        doubled = CRANE_PROBLEM.replace(
            "(stacked c1 c2) (armfree)", "(stacked c1 c2) (stacked c1 c2) (armfree)"
        )
        doc = parse_problem(doubled, domain=domain_doc)
        assert len(doc.goal) == 2


def test_render_uses_document_order_for_params(corpus_library):
    # parameter lists are semantic and must never be resorted
    doc = domain_to_doc(corpus_library)
    put = next(a for a in doc.actions if a.name == "put")
    assert tuple(t for _, t in put.params) == ("Hand", "Table", "Wooden_cube")
    text = render_domain(doc, library_name_map(corpus_library).extended(["learned"]))
    assert ":parameters (?h1 - hand ?t1 - table ?w1 - wooden_cube)" in text


def _crane(old, new, text=CRANE_DOMAIN):
    assert old in text, old
    return text.replace(old, new, 1)


def _restack(old, new):
    return _crane(old, new, CRANE_PROBLEM)


_HOIST_PRE = "(and (armfree) (not (lifted ?c)))"
_HOIST_EFF = "(and (lifted ?c) (not (armfree)) (increase (total-cost) 2))"
_LIFTED_MAP = NameMap((("Lifted", "lifted"),))

# One malformed text per place the reader raises: (id, parse, text, class,
# message). A PddlSyntaxError's message ends in its line and column, which the
# test also checks against the attributes. Several cases pin the order of two
# checks on one item (requirement order, parameter order).
READER_ERRORS = [
    ("empty", "domain", "", PddlSyntaxError, "empty input (line 1, column 1)"),
    ("comment only", "domain", "; nothing here\n", PddlSyntaxError, "empty input (line 1, column 1)"),
    ("stray close", "domain", "\n  )", PddlSyntaxError, "unexpected ')' (line 2, column 3)"),
    ("trailing text", "domain", CRANE_DOMAIN + " junk", PddlSyntaxError,
     "trailing text after top-level form (line 21, column 3)"),
    ("trailing close", "domain", "(define (domain d)))", PddlSyntaxError,
     "trailing text after top-level form (line 1, column 20)"),
    ("unbalanced", "domain", "(define (domain d)\n  (:predicates (p ?x)", PddlSyntaxError,
     "unbalanced parenthesis (line 2, column 3)"),
    ("tab is one column", "domain", "(define\t(domain d)\n\t\t(:bogus))", PddlSyntaxError,
     "unexpected section ':bogus' (line 2, column 4)"),
    ("cr is one column", "domain", "(define (domain d)\r\n\r(:bogus)) ", PddlSyntaxError,
     "unexpected section ':bogus' (line 2, column 3)"),
    ("comment runs to end of line", "domain", "(define (domain d) ; (:x\n  (:bogus))",
     PddlSyntaxError, "unexpected section ':bogus' (line 2, column 4)"),
    ("nbsp is not a separator", "domain", "(define (domain\u00a0d))", PddlSyntaxError,
     "expected (domain <name>) (line 1, column 2)"),
    ("not define", "domain", "(definitely (domain d))", PddlSyntaxError,
     "expected (define ...) (line 1, column 2)"),
    ("bare symbol", "domain", "define", PddlSyntaxError, "expected (define ...) (line 1, column 1)"),
    ("no kind", "domain", "(define)", PddlSyntaxError, "expected (domain <name>) (line 1, column 2)"),
    ("wrong kind", "domain", "(define (problem d))", PddlSyntaxError,
     "expected (domain <name>) (line 1, column 2)"),
    ("kind arity", "domain", "(define (domain d e))", PddlSyntaxError,
     "expected (domain <name>) (line 1, column 2)"),
    ("kind name", "domain", "(define (domain (d)))", PddlSyntaxError,
     "expected domain name (line 1, column 18)"),
    ("requirement symbol", "domain", _crane(":action-costs)", ":action-costs (:adl))"),
     PddlSyntaxError, "expected requirement (line 2, column 73)"),
    ("requirement unsupported", "domain", _crane(":action-costs)", ":action-costs :ADL)"),
     UnsupportedFeature, "requirement :adl is not supported"),
    ("requirement order", "domain", _crane(":action-costs)", ":adl (:strips))"),
     UnsupportedFeature, "requirement :adl is not supported"),
    ("type name", "domain", _crane("(:types crate", "(:types (crate)"), PddlSyntaxError,
     "expected type name (line 3, column 12)"),
    ("dangling dash", "domain", _crane("(:types crate - object)", "(:types - crate)"),
     PddlSyntaxError, "dangling '-' in typed list (line 3, column 11)"),
    ("missing type", "domain", _crane("(:types crate - object)", "(:types crate -)"),
     PddlSyntaxError, "missing type after '-' (line 3, column 17)"),
    ("dash for a type", "domain", _crane("(:types crate - object)", "(:types crate - - object)"),
     PddlSyntaxError, "missing type after '-' (line 3, column 17)"),
    ("compound type", "domain", _crane("crate - object)", "crate - (either a b))"),
     UnsupportedFeature, "compound types are not supported (3:20)"),
    ("two parents", "domain", _crane("crate - object)", "crate - object crate - box box)"),
     ValidationError, "type 'crate' is declared with two parents"),
    ("type cycle", "domain", _crane("crate - object)", "crate - box box - crate)"),
     SchemaError, "type hierarchy contains a cycle through 'crate'"),
    ("type cycle without actions", "domain", "(define (domain d) (:types a - b b - a))",
     SchemaError, "type hierarchy contains a cycle through 'a'"),
    ("root with a parent", "domain", _crane("(:types crate - object)", "(:types object - thing crate)"),
     SchemaError, "the root type 'object' cannot have the parent 'thing'"),
    ("root with a parent without actions", "domain", "(define (domain d) (:types object - thing))",
     SchemaError, "the root type 'object' cannot have the parent 'thing'"),
    ("predicate symbol", "domain", _crane("(armfree)\n", "armfree\n"), PddlSyntaxError,
     "malformed predicate declaration (line 7, column 5)"),
    ("predicate empty", "domain", _crane("(armfree)\n", "()\n"), PddlSyntaxError,
     "malformed predicate declaration (line 7, column 5)"),
    ("predicate name", "domain", _crane("(armfree)\n", "((armfree))\n"), PddlSyntaxError,
     "expected predicate name (line 7, column 7)"),
    ("predicate variables", "domain", _crane("(lifted ?c - crate)", "(lifted c - crate)"),
     PddlSyntaxError, "predicate parameters must be variables (line 5, column 6)"),
    ("predicate list before variables", "domain", _crane("(lifted ?c - crate)", "(lifted c -)"),
     PddlSyntaxError, "missing type after '-' (line 5, column 15)"),
    ("duplicate predicate", "domain", _crane("(armfree)\n", "(armfree)\n    (armfree ?c - crate)\n"),
     SchemaError,
     "duplicate predicate names in vocabulary: ['armfree', 'armfree', 'lifted', 'stacked']"),
    ("duplicate predicate without actions", "domain", "(define (domain d) (:predicates (p) (p ?x)))",
     SchemaError, "duplicate predicate names in vocabulary: ['p', 'p']"),
    ("predicate type", "domain", _crane("(armfree)\n", "(armfree)\n    (glows ?g - ghost)\n"),
     ValidationError, "predicate 'glows' uses undeclared type 'ghost'"),
    ("predicate type without types", "domain", "(define (domain d) (:predicates (q ?x - ghost)))",
     ValidationError, "predicate 'q' uses undeclared type 'ghost'"),
    ("function", "domain", _crane("(:functions (total-cost)", "(:functions (fuel)"),
     UnsupportedFeature, "only the (total-cost) function is supported"),
    ("function arity", "domain", _crane("(total-cost) - number", "(total-cost ?x)"),
     UnsupportedFeature, "only the (total-cost) function is supported"),
    ("constants", "domain", _crane("(:types crate - object)", "(:types crate - object)\n  (:CONSTANTS c0)"),
     UnsupportedFeature, ":constants is not supported"),
    ("durative action", "domain", _crane("(:action hoist", "(:durative-action glide)\n  (:action hoist"),
     UnsupportedFeature, ":durative-action is not supported"),
    ("derived", "domain", _crane("(:action hoist", "(:derived (armfree))\n  (:action hoist"),
     UnsupportedFeature, ":derived is not supported"),
    ("axiom", "domain", _crane("(:action hoist", "(:axiom)\n  (:action hoist"),
     UnsupportedFeature, ":axiom is not supported"),
    ("unexpected section", "domain", _crane("(:action hoist", "(:bogus)\n  (:action hoist"),
     PddlSyntaxError, "unexpected section ':bogus' (line 11, column 4)"),
    ("symbol section", "domain", _crane("(:action hoist", "junk\n  (:action hoist"),
     PddlSyntaxError, "unexpected section '' (line 11, column 3)"),
    ("empty section", "domain", _crane("(:action hoist", "()\n  (:action hoist"),
     PddlSyntaxError, "unexpected section '' (line 11, column 3)"),
    ("duplicate action", "domain",
     CRANE_DOMAIN[:-1] + CRANE_DOMAIN[CRANE_DOMAIN.index("(:action hoist"):],
     ValidationError, "duplicate action names in domain"),
    ("action name missing", "domain", "(define (domain d)\n  (:action))", PddlSyntaxError,
     "action needs a name (line 2, column 4)"),
    ("action name", "domain", _crane("(:action hoist", "(:action (hoist)"), PddlSyntaxError,
     "expected action name (line 11, column 13)"),
    ("action keyword", "domain", _crane(":parameters (?c - crate)\n", "(:parameters) (?c - crate)\n"),
     PddlSyntaxError, "expected action keyword (line 12, column 6)"),
    ("action keyword unsupported", "domain", _crane(":parameters (?c - crate)\n", ":vars (?c - crate)\n"),
     UnsupportedFeature, "action keyword :vars is not supported"),
    ("missing value", "domain", "(define (domain d)\n  (:action a :parameters))", PddlSyntaxError,
     "missing value for :parameters (line 2, column 14)"),
    ("missing keyword", "domain", _crane("    :parameters (?c - crate)\n", ""), PddlSyntaxError,
     "action needs :parameters, :precondition and :effect (line 11, column 4)"),
    ("parameter list", "domain", _crane(":parameters (?c - crate)", ":parameters ?c"),
     PddlSyntaxError, "expected a parameter list (line 12, column 17)"),
    ("parameter name", "domain", _crane(":parameters (?c - crate)", ":parameters ((?c) - crate)"),
     PddlSyntaxError, "expected parameter name (line 12, column 19)"),
    ("parameter dash for a type", "domain", _crane(":parameters (?c - crate)", ":parameters (?c - - crate)"),
     PddlSyntaxError, "missing type after '-' (line 12, column 21)"),
    ("parameter variable", "domain", _crane(":parameters (?c - crate)", ":parameters (c - crate)"),
     PddlSyntaxError, "action parameters must be variables (line 11, column 4)"),
    ("parameter type", "domain", _crane(":parameters (?c - crate)", ":parameters (?c - pallet)"),
     ValidationError, "action 'hoist' uses undeclared type 'pallet'"),
    ("parameter order", "domain",
     _crane(":parameters (?c - crate)", ":parameters (?c - pallet d - crate)"),
     ValidationError, "action 'hoist' uses undeclared type 'pallet'"),
    ("parameter variable before type", "domain",
     _crane(":parameters (?c - crate)", ":parameters (c - pallet)"),
     PddlSyntaxError, "action parameters must be variables (line 11, column 4)"),
    ("untyped parameter in a typed slot", "domain", _crane(":parameters (?c - crate)", ":parameters (?c)"),
     ValidationError, "lifted(?c): argument '?c' has type 'object', expected 'crate' at 13:40"),
    ("literal symbol", "domain", _crane(_HOIST_PRE, "(and armfree)"), PddlSyntaxError,
     "expected a literal (line 13, column 24)"),
    ("literal empty", "domain", _crane(_HOIST_PRE, "(and ())"), PddlSyntaxError,
     "expected a literal (line 13, column 24)"),
    ("or", "domain", _crane(_HOIST_PRE, "(or (armfree))"), UnsupportedFeature,
     "'or' is not supported in this PDDL subset"),
    ("imply", "domain", _crane(_HOIST_PRE, "(and (imply (armfree) (armfree)))"), UnsupportedFeature,
     "'imply' is not supported in this PDDL subset"),
    ("forall", "domain", _crane(_HOIST_PRE, "(forall (?x - crate) (lifted ?x))"), UnsupportedFeature,
     "'forall' is not supported in this PDDL subset"),
    ("not arity", "domain", _crane(_HOIST_PRE, "(not (armfree) (lifted ?c))"), PddlSyntaxError,
     "'not' takes exactly one literal (line 13, column 20)"),
    ("double negation", "domain", _crane(_HOIST_PRE, "(not (not (armfree)))"), PddlSyntaxError,
     "double negation (line 13, column 20)"),
    ("atom name", "domain", _crane(_HOIST_PRE, "((armfree))"), PddlSyntaxError,
     "expected predicate name (line 13, column 21)"),
    ("unknown predicate", "domain", _crane(_HOIST_PRE, "(levitated ?c)"), ValidationError,
     "unknown predicate 'levitated' at 13:20"),
    ("argument symbol", "domain", _crane(_HOIST_PRE, "(lifted (?c))"), PddlSyntaxError,
     "expected argument (line 13, column 28)"),
    ("arity", "domain", _crane(_HOIST_PRE, "(lifted ?c ?c)"), ValidationError,
     "lifted expects 1 argument(s), got 2: ('?c', '?c') at 13:20"),
    ("arity with a name map", "domain map", _crane(_HOIST_PRE, "(lifted ?c ?c)"), ValidationError,
     "Lifted expects 1 argument(s), got 2: ('?c', '?c') at 13:20"),
    ("undeclared name", "domain", _crane(_HOIST_PRE, "(lifted ?z)"), ValidationError,
     "lifted(?z): argument '?z' is not a declared object at 13:20"),
    ("argument type", "domain",
     _crane("crate - object)", "crate pallet - object)").replace("(?c - crate)", "(?c - pallet)"),
     ValidationError, "lifted(?c): argument '?c' has type 'pallet', expected 'crate' at 13:40"),
    ("duplicate cost", "domain",
     _crane(_HOIST_EFF, "(and (lifted ?c) (increase (total-cost) 2) (increase (total-cost) 3))"),
     PddlSyntaxError, "duplicate cost effect (line 14, column 57)"),
    ("when", "domain", _crane(_HOIST_EFF, "(when (armfree) (lifted ?c))"), UnsupportedFeature,
     "'when' is not supported in effects"),
    ("decrease", "domain", _crane(_HOIST_EFF, "(and (decrease (total-cost) 1))"), UnsupportedFeature,
     "'decrease' is not supported in effects"),
    ("assign", "domain", _crane(_HOIST_EFF, "(and (assign (total-cost) 1))"), UnsupportedFeature,
     "'assign' is not supported in effects"),
    ("effect symbol", "domain", _crane(_HOIST_EFF, "(and (lifted ?c) armfree)"), PddlSyntaxError,
     "expected a literal (line 14, column 30)"),
    ("add and delete", "domain", _crane(_HOIST_EFF, "(and (armfree) (not (armfree)))"),
     InvalidEffect, "action 'hoist' adds and deletes the same atom"),
    ("duplicate parameter", "domain", _crane("(?c - crate)", "(?c ?c - crate)"),
     ValidationError, "action 'hoist' repeats a parameter: ['?c', '?c']"),
    ("contradictory precondition", "domain", _crane(_HOIST_PRE, "(and (armfree) (not (armfree)))"),
     ValidationError, "action 'hoist' has contradictory preconditions"),
    ("action name only", "domain", _crane("(:action drop-onto", "(:action foo)\n  (:action drop-onto"),
     PddlSyntaxError, "action needs :parameters, :precondition and :effect (line 16, column 4)"),
    ("effect repeated", "domain",
     _crane(":effect " + _HOIST_EFF, ":effect (lifted ?c) :effect (not (armfree))"),
     PddlSyntaxError, "repeated :effect (line 14, column 25)"),
    ("parameters repeated", "domain",
     _crane(":precondition (and (lifted ?c))", ":precondition (and (lifted ?c)) :parameters (?c - crate)"),
     PddlSyntaxError, "repeated :parameters (line 18, column 37)"),
    ("precondition repeated in another case", "domain",
     _crane(":precondition (and (armfree)", ":precondition (armfree) :PRECONDITION (and (armfree)"),
     PddlSyntaxError, "repeated :precondition (line 13, column 29)"),
    ("cost fluent", "domain", _crane("(increase (total-cost) 2)", "(increase (fuel) 2)"),
     UnsupportedFeature, "only (increase (total-cost) n) is supported (14:47)"),
    ("cost value", "domain", _crane("(increase (total-cost) 2)", "(increase (total-cost) (2))"),
     PddlSyntaxError, "expected cost value (line 14, column 70)"),
    ("cost digits", "domain", _crane("(increase (total-cost) 2)", "(increase (total-cost) 1_0)"),
     PddlSyntaxError, "cost must be a plain integer (line 14, column 69)"),
    ("cost positive", "domain", _crane("(increase (total-cost) 2)", "(increase (total-cost) 0)"),
     ValidationError, "cost must be positive, got 0 at 14:69"),
    ("problem kind", "problem", "(define (domain crane))", PddlSyntaxError,
     "expected (problem <name>) (line 1, column 2)"),
    ("problem name missing", "problem", "(define (problem))", PddlSyntaxError,
     "expected (problem <name>) (line 1, column 2)"),
    ("domain arity", "problem", _restack("(:domain crane)", "(:domain)"), PddlSyntaxError,
     "malformed :domain (line 2, column 4)"),
    ("domain name", "problem", _restack("(:domain crane)", "(:domain (crane))"), PddlSyntaxError,
     "expected domain name (line 2, column 13)"),
    ("other domain", "problem", _restack("(:domain crane)", "(:domain blocksworld)"),
     ValidationError, "problem is for domain 'blocksworld', not 'crane' at 2:12"),
    ("domain missing", "problem", _restack("  (:domain crane)\n", ""), ValidationError,
     "problem needs a (:domain crane) section"),
    ("object name", "problem", _restack("(:objects c1", "(:objects (c1)"), PddlSyntaxError,
     "expected object name (line 3, column 14)"),
    ("object type missing", "problem", _restack("c1 c2 - crate", "c1 c2 -"), PddlSyntaxError,
     "missing type after '-' (line 3, column 19)"),
    ("object dash for a type", "problem", _restack("c1 c2 - crate", "c1 c2 - - crate"), PddlSyntaxError,
     "missing type after '-' (line 3, column 19)"),
    ("goal arity", "problem", _restack("(:goal (and (stacked c1 c2) (armfree)))",
                                       "(:goal (stacked c1 c2) (armfree))"),
     PddlSyntaxError, ":goal takes one formula (line 5, column 4)"),
    ("problem section", "problem",
     _restack("(:domain crane)", "(:domain crane)\n  (:requirements :fluents)"),
     UnsupportedFeature, "requirement :fluents is not supported"),
    ("problem constants", "problem", _restack("(:domain crane)", "(:domain crane)\n  (:constants)"),
     PddlSyntaxError, "unexpected section ':constants' (line 3, column 4)"),
    ("init missing", "problem", _restack("(:init (armfree) (= (total-cost) 0))", ""), PddlSyntaxError,
     "problem needs :init and :goal (line 1, column 1)"),
    ("goal missing", "problem", _restack("(:goal (and (stacked c1 c2) (armfree)))", ""),
     PddlSyntaxError, "problem needs :init and :goal (line 1, column 1)"),
    ("duplicate object", "problem", _restack("c1 c2 - crate", "c1 c1 - crate"), ValidationError,
     "duplicate object declarations"),
    ("negative init", "problem", _restack("(:init (armfree)", "(:init (not (armfree))"),
     ValidationError, "negative literals are not allowed in :init"),
    ("init predicate", "problem", _restack("(:init (armfree)", "(:init (levitated c1)"),
     ValidationError, "unknown predicate 'levitated' at 4:11"),
    ("untyped object in a typed init slot", "problem",
     _crane("(:init (armfree)", "(:init (lifted c3)", _restack("c1 c2 - crate", "c1 c2 - crate c3")),
     ValidationError, "lifted(c3): argument 'c3' has type 'object', expected 'crate' at 4:11"),
    ("init fluent", "problem", _restack("(= (total-cost) 0)", "(= (fuel) 0)"), UnsupportedFeature,
     "only (= (total-cost) 0) is supported in :init (4:21)"),
    ("init fluent value", "problem", _restack("(= (total-cost) 0)", "(= (total-cost) (0))"),
     PddlSyntaxError, "expected fluent value (line 4, column 37)"),
    ("init fluent start", "problem", _restack("(= (total-cost) 0)", "(= (total-cost) 5)"),
     UnsupportedFeature, "(total-cost) must start at 0"),
    ("metric", "problem", _restack("minimize", "maximize"), UnsupportedFeature,
     "only (:metric minimize (total-cost)) is supported"),
    ("metric direction", "problem", _restack("minimize", "(minimize)"), PddlSyntaxError,
     "expected metric direction (line 6, column 13)"),
    ("metric arity", "problem", _restack("(:metric minimize (total-cost))", "(:metric (minimize))"),
     UnsupportedFeature, "only (:metric minimize (total-cost)) is supported"),
    ("goal empty", "problem", _restack("(:goal (and (stacked c1 c2) (armfree)))", "(:goal (and))"),
     ValidationError, "goal must contain at least one literal"),
    ("goal name", "problem", _restack("(stacked c1 c2)", "(stacked c1 c9)"), ValidationError,
     "stacked(c1,c9): argument 'c9' is not a declared object at 5:16"),
    ("init repeated", "problem", _restack("(:goal", "(:init (armfree))\n  (:goal"), PddlSyntaxError,
     "repeated section ':init' (line 5, column 4)"),
    ("goal repeated", "problem", _restack("(:metric", "(:goal (armfree))\n  (:metric"),
     PddlSyntaxError, "repeated section ':goal' (line 6, column 4)"),
    ("requirements repeated", "domain", _crane("(:types", "(:requirements :strips)\n  (:types"),
     PddlSyntaxError, "repeated section ':requirements' (line 3, column 4)"),
]


def test_a_predicate_may_name_a_type_declared_after_it():
    doc = parse_domain("(define (domain d) (:predicates (q ?x - ghost)) (:types ghost))")
    assert doc.vocabulary.get("q").arg_types == ("ghost",) and doc.types.declares("ghost")


def test_a_problem_names_its_domain_in_any_case():
    domain = parse_domain(CRANE_DOMAIN)
    assert parse_problem(_restack("(:domain crane)", "(:domain CRANE)"), domain) == parse_problem(
        CRANE_PROBLEM, domain
    )


def test_problem_requirements_are_read_and_ignored():
    domain = parse_domain(CRANE_DOMAIN)
    text = _restack("(:domain crane)", "(:domain crane)\n  (:requirements :strips :typing)")
    assert parse_problem(text, domain) == parse_problem(CRANE_PROBLEM, domain)


@pytest.mark.parametrize(
    "parse, text, error, message", [case[1:] for case in READER_ERRORS],
    ids=[case[0] for case in READER_ERRORS],
)
def test_every_reader_error_is_pinned(parse, text, error, message):
    with pytest.raises(InputError) as caught:
        if parse == "problem":
            parse_problem(text, parse_domain(CRANE_DOMAIN))
        elif parse == "domain map":
            parse_domain(text, name_map=_LIFTED_MAP)
        else:
            parse_domain(text)
    assert type(caught.value) is error
    assert str(caught.value) == message
    if error is PddlSyntaxError:
        assert message.endswith(f" (line {caught.value.line}, column {caught.value.column})")


def test_an_object_of_an_undeclared_type_is_rejected():
    domain = parse_domain(CRANE_DOMAIN)
    with pytest.raises(ValidationError, match="^object 'zz' has undeclared type 'nosuchtype'$"):
        parse_problem(_restack("c1 c2 - crate", "c1 c2 - crate zz - nosuchtype"), domain)
    untyped = parse_problem(_restack("c1 c2 - crate", "c1 c2 - crate zz"), domain)
    assert ObjectInstance("zz", "object") in untyped.objects


def test_each_action_checks_the_types_of_its_own_parameters():
    # The map turns the parameter symbol x_x back into '?x' in both actions;
    # the second gives it a type that p does not take.
    text = """(define (domain d)
      (:types t1 t2 - object)
      (:predicates (p ?a - t1))
      (:action good :parameters (x_x - t1) :precondition (p x_x) :effect (not (p x_x)))
      (:action bad :parameters (x_x - t2) :precondition (p x_x) :effect (not (p x_x))))"""
    nm = NameMap(()).extended(["?x"])
    assert nm.pddl("?x") == "x_x"
    with pytest.raises(ValidationError, match=r"^p\(\?x\): argument '\?x' has type 't2', expected 't1' at 5:58$"):
        parse_domain(text, nm)


def test_parsing_leaves_no_garbage_cycle(corpus_library):
    # A cycle would keep a parse's tree alive until a collector pass; fewer
    # passes are part of what makes a learn step fast.
    nm = library_name_map(corpus_library).extended(
        ["learned", "task"] + [o.id for o in planning_objects()]
    )
    domain_text = emit_domain(corpus_library)
    goal = corpus_goals()["red_on_green"]
    problem_text = emit_problem(corpus_library, planning_objects(), initial_state(), goal)
    gc.collect()
    gc.disable()
    try:
        domain = parse_domain(domain_text, name_map=nm)
        parse_problem(problem_text, domain=domain, name_map=nm)
        del domain
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestDeclarationOrder:
    """An action is checked against the predicates and types declared before it."""

    LATE_LIFTED = _crane("    (lifted ?c - crate)\n", "").replace(
        "  (:action drop-onto", "  (:predicates (lifted ?c - crate))\n  (:action drop-onto"
    )

    def test_a_predicate_declared_after_an_action_is_unknown_to_it(self):
        with pytest.raises(ValidationError, match="unknown predicate 'lifted' at 12:40"):
            parse_domain(self.LATE_LIFTED)
        # without 'lifted' in hoist, the action after the declaration may use it
        text = _crane(_HOIST_EFF, "(and (not (armfree)))", _crane(_HOIST_PRE, "(armfree)", self.LATE_LIFTED))
        assert parse_domain(text).actions[1].adds == frozenset()

    def test_a_predicate_declared_before_an_action_is_known_to_it(self):
        early = self.LATE_LIFTED.replace("(:action hoist", "(:predicates (lifted ?c - crate))\n  (:action hoist")
        early = early.replace("  (:predicates (lifted ?c - crate))\n  (:action drop-onto", "  (:action drop-onto")
        assert parse_domain(early) == parse_domain(CRANE_DOMAIN)

    def test_a_type_declared_after_an_action_is_unknown_to_it(self):
        text = _crane("(:types crate - object)", "").replace(
            "  (:action drop-onto", "  (:types crate - object)\n  (:action drop-onto"
        )
        with pytest.raises(ValidationError, match="action 'hoist' uses undeclared type 'crate'"):
            parse_domain(text)


def _random_pddl_text(rng: random.Random) -> str:
    """A PDDL-like text: nested lists of symbols with every kind of
    separator, comments, and sometimes a stray, missing or trailing token."""
    symbols = ["define", ":action", "?c", "-", "crate", "lift-ed", "a1", "ü", "x\x0by", "12"]
    separators = [" ", "  ", "\t", "\n", "\r\n", "\r", "\n\n", " ; note\n", "; (not code)\r\n"]

    def form(depth: int) -> str:
        if depth > 3 or rng.random() < 0.3:
            return rng.choice(symbols)
        items = [form(depth + 1) for _ in range(rng.randint(0, 4))]
        parts = ["("]
        for item in items:
            parts += [rng.choice(separators) if rng.random() < 0.7 else " ", item]
        return "".join(parts + [rng.choice(["", *separators]), ")"])

    text = rng.choice(["", *separators]) + form(0)
    roll = rng.random()
    if roll < 0.1:
        text += rng.choice([")", " junk", "("])
    elif roll < 0.2 and ")" in text:
        cut = text.rindex(")")
        text = text[:cut] + text[cut + 1:]
    return text + rng.choice(["", "\n", "\r\n", " ; last line, no newline", "\t"])


def _positions(tree):
    """Each token of ``tree`` with its line and column, nested as in the tree."""
    if isinstance(tree, list):
        return ("(", *tree.paren.place(), [_positions(sub) for sub in tree])
    return (tree if isinstance(tree, str) else tree.text, *tree.place())


def _read_outcome(read, text):
    try:
        return "tree", _positions(read(text))
    except PddlSyntaxError as exc:
        return "error", str(exc), exc.line, exc.column


def test_every_token_keeps_the_line_and_column_the_reference_counts():
    rng = random.Random(31)
    texts = [_random_pddl_text(rng) for _ in range(500)]
    outcomes = []
    for text in texts:
        outcomes.append(_read_outcome(read_all_reference, text))
        assert _read_outcome(_read_all, text) == outcomes[-1], text
    assert 50 < sum(outcome[0] == "error" for outcome in outcomes) < 250
    assert all(
        any(test(text) for text in texts)
        for test in (
            lambda t: "\r\n" in t,
            lambda t: "\r" in t.replace("\r\n", ""),
            lambda t: "\t" in t,
            lambda t: ";" in t,
            lambda t: not t.endswith("\n") and "\n" in t,
        )
    )


def test_the_plain_form_is_the_placed_form():
    # A parse reads plain symbols and reads the text again with places only
    # to place a fault, so both readers must build one tree, or fail alike.
    rng = random.Random(31)
    for text in [_random_pddl_text(rng) for _ in range(500)]:
        try:
            placed = _read_all(text)
        except PddlSyntaxError as exc:
            with pytest.raises(PddlSyntaxError) as caught:
                _read_plain(text)
            assert (str(caught.value), caught.value.line, caught.value.column) == (str(exc), exc.line, exc.column)
            continue
        assert _read_plain(text) == placed, text
