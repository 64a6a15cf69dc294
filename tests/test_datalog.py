"""Datalog dialect: parser, engine semantics, aggregates, shipped corpus."""

import math
import time

import numpy as np
import pytest

from semcloud.datalog import (
    Diagnostic,
    ExternalRegistry,
    FactSet,
    DatalogSyntaxError,
    MissingExternal,
    ProgramRecursionError,
    SafetyError,
    SignatureMismatch,
    TypeMismatch,
    build_program,
    dump_facts,
    evaluate,
    parse_program,
    query,
)
from semcloud.datalog.corpus import RULES_TEXT, configuration_program
from semcloud.datalog.terms import (
    Atom,
    Binding,
    Rule,
    Var,
    format_body_element,
    rule_order,
)

from oracle import brute_force_ground
from stubs import make_registry, make_stub_funcs, pipeline_edb, row_function

EMPTY = ExternalRegistry()


class _Float(float):
    pass


class _Symbol(str):
    pass


def _ev(text, edb=(), registry=EMPTY):
    return evaluate(parse_program(text), FactSet(edb), registry)


class TestParser:
    def test_minimal_rule(self):
        program = parse_program("a(x) <- b(x).")
        assert len(program.rules) == 1
        assert program.rules[0].head.predicate == "a"
        assert program.calls == ()

    def test_corpus_parses(self):
        program = parse_program(RULES_TEXT)
        heads = {r.head.predicate for r in program.rules}
        assert "configured_resource" in heads
        confs = [r for r in program.rules
                 if r.head.predicate == "configured_resource"]
        assert len(confs) == 4
        assert all(r.head.arity == 6 for r in confs)

    def test_plans_follow_the_order_and_keep_each_rule_position(self):
        program = parse_program(RULES_TEXT)
        order = list(rule_order(program.rules))
        assert [plan.rule for plan in program.plans] == order
        assert [program.rules[plan.position] for plan in program.plans] == order
        # the plans are derived from the rules and take no part in equality
        assert build_program(program.rules) == program

    def test_self_recursion_rejected(self):
        with pytest.raises(ProgramRecursionError):
            parse_program("a(x) <- a(x).")

    def test_mutual_recursion_rejected(self):
        with pytest.raises(ProgramRecursionError):
            parse_program("a(x) <- b(x). b(x) <- a(x).")

    @pytest.mark.parametrize("text", [
        "a(m) <- u(z), m = #max{y : b(y)}.  b(x) <- a(x).",
        "a(#max{y : b(y)}) <- u(z).  b(x) <- a(x).",
    ])
    def test_recursion_through_a_comprehension_rejected(self, text):
        with pytest.raises(ProgramRecursionError):
            parse_program(text)

    @pytest.mark.parametrize("text, error", [
        ("a(x,y) <- b(x).", "rule 1 (a(x,y)): variable y is read where it is not bound"),
        ("a(x) <- b(x), y > 0.", "rule 1 (a(x)): variable y is read where it is not bound"),
        # a name bound inside a comprehension is not bound outside it
        ("c(z) <- b(z).  a(y) <- b(z), y = #max{x : c(x)} + x.",
         "rule 2 (a(y)): variable x is read where it is not bound"),
        ("a(z) <- b(z), #max{x : c(x)} > x.",
         "rule 1 (a(z)): variable x is read where it is not bound"),
        ("a(y) <- b(x), y = x, y = 1.", "rule 1 (a(y)): variable y is bound twice"),
        ("a(_) <- b(x).", "rule 1 (a(_)): variable _ is read where it is not bound"),
        # each _ is a variable of its own: binding one binds no other
        ("a(_) <- b(x), _ = x.", "rule 1 (a(_)): variable _ is read where it is not bound"),
    ], ids=["head", "comparison", "binding-after-comprehension",
            "comparison-after-comprehension", "two-bindings", "anonymous",
            "anonymous-bound-elsewhere"])
    def test_unsafe_rule_names_the_rule_and_the_variable(self, text, error):
        with pytest.raises(SafetyError) as raised:
            parse_program(text)
        assert str(raised.value) == error

    def test_syntax_error_reports_position(self):
        with pytest.raises(DatalogSyntaxError):
            parse_program("a(x <- b(x).")

    @pytest.mark.parametrize("text", [
        "a(m) <- u(z), m = #max{y : s(y + 1)}.",
        "a(m) <- u(z), m = #max{y : s(y, @f(z))}.",
        "a(m) <- u(z), m = #avg{y : s(y), t(#min{y, z})}.",
    ])
    def test_comprehension_atom_arguments_are_variables_or_constants(self, text):
        with pytest.raises((DatalogSyntaxError, SafetyError)):
            parse_program(text)


class TestEngine:
    def test_empty_edb_derives_nothing(self):
        result = _ev("a(x) <- b(x).")
        assert query(result, "a", 1) == []

    def test_simple_chain(self):
        result = _ev("a(x) <- b(x). c(x) <- a(x).", [("b", (1.0,)), ("b", (2.0,))])
        assert query(result, "c", 1) == [(1.0,), (2.0,)]

    def test_rule_order_is_textual_order_independent(self):
        edb = [("b", (3.0,))]
        forward = _ev("a(x) <- b(x). c(x) <- a(x).", edb)
        backward = _ev("c(x) <- a(x). a(x) <- b(x).", edb)
        assert forward == backward

    def test_binding_overwrites_bound_variable(self):
        # x is bound by the atom, then reassigned; the head sees the new value
        result = _ev("a(x) <- b(x), x = x + 10.", [("b", (1.0,))])
        assert query(result, "a", 1) == [(11.0,)]

    def test_set_semantics(self):
        result = _ev("a(y) <- b(x,y).", [("b", (1.0, 5.0)), ("b", (2.0, 5.0))])
        assert query(result, "a", 1) == [(5.0,)]

    def test_query_orders_and_handles_absent_predicate(self):
        result = _ev("a(x) <- b(x).", [("b", (2.0,)), ("b", (1.0,))])
        assert query(result, "a", 1) == [(1.0,), (2.0,)]
        assert query(result, "nothing", 3) == []

    def test_division_by_zero_drops_instance_with_diagnostic(self):
        diags = []
        result = evaluate(
            parse_program("a(y) <- b(x), y = 1 / x."),
            FactSet([("b", (0.0,)), ("b", (2.0,))]),
            EMPTY,
            diagnostics=diags,
        )
        assert query(result, "a", 1) == [(0.5,)]
        assert len(diags) == 1
        assert isinstance(diags[0], Diagnostic)
        assert "zero" in diags[0].reason

    def test_anonymous_variable_prints_as_written(self):
        diags = []
        evaluate(parse_program("a(x) <- b(x, _), _ = 1 / x."),
                 FactSet([("b", (0.0, 1.0))]), EMPTY, diagnostics=diags)
        assert [d.element for d in diags] == ["_ = (1 / x)"]

    def test_missing_external_raises(self):
        with pytest.raises(MissingExternal):
            _ev("a(y) <- b(x), y = @f(x).", [("b", (1.0,))])

    def test_arity_mismatch_raises(self):
        registry = ExternalRegistry()
        registry.register("f", row_function(lambda x, y: x + y), 2)
        with pytest.raises(SignatureMismatch):
            _ev("a(y) <- b(x), y = @f(x).", [("b", (1.0,))], registry)

    def test_non_finite_external_drops_instance(self):
        registry = ExternalRegistry()
        registry.register("f", row_function(lambda x: float("inf")), 1)
        diags = []
        result = evaluate(
            parse_program("a(y) <- b(x), y = @f(x)."),
            FactSet([("b", (1.0,))]), registry, diagnostics=diags)
        assert query(result, "a", 1) == []
        assert diags

    @pytest.mark.parametrize("text", [
        "a(y) <- b(x), y = x - 1.",
        "a(x * 2) <- b(x).",
        "a(x) <- b(x), x >= 1.",
        "a(x) <- b(x), 1 < x.",
        "a(y) <- b(x), y = #max{x, 1}.",
    ])
    def test_arithmetic_ordering_or_aggregate_on_a_symbol_raises(self, text):
        with pytest.raises(TypeMismatch):
            _ev(text, [("b", ("k",))])

    def test_anonymous_variables_do_not_join(self):
        result = _ev("a(x) <- b(x,_), c(_).",
                     [("b", (1.0, 7.0)), ("c", (99.0,))])
        assert query(result, "a", 1) == [(1.0,)]

    def test_failing_head_term_drops_instance(self):
        diags = []
        result = evaluate(parse_program("a(1 / x) <- b(x)."),
                          FactSet([("b", (0.0,)), ("b", (4.0,))]), EMPTY, diagnostics=diags)
        assert query(result, "a", 1) == [(0.25,)]
        assert diags == [Diagnostic("a", "a((1 / x))", "division by zero")]

    def test_non_finite_binding_arithmetic_drops_instance(self):
        diags = []
        result = evaluate(parse_program("a(y) <- b(x), y = x * x."),
                          FactSet([("b", (1e200,)), ("b", (3.0,))]), EMPTY, diagnostics=diags)
        assert query(result, "a", 1) == [(9.0,)]
        assert diags == [Diagnostic("a", "y = (x * x)", "non-finite binding value")]

    def test_failing_comparison_drops_instance(self):
        diags = []
        result = evaluate(parse_program("a(x) <- b(x), 1 / x > 0."),
                          FactSet([("b", (0.0,)), ("b", (2.0,))]), EMPTY, diagnostics=diags)
        assert query(result, "a", 1) == [(2.0,)]
        assert diags == [Diagnostic("a", "(1 / x) > 0", "division by zero")]

    def test_a_rule_built_by_hand_is_checked_for_safety(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        rule = Rule(head=Atom("a", (x,)), body=(Atom("b", (x,)), Binding(y, z)))
        with pytest.raises(SafetyError, match="variable z is read where it is not bound"):
            build_program([rule])

    def test_non_finite_computed_head_drops_instance_like_the_oracle(self):
        # a head computed by arithmetic or an aggregate is checked as a
        # binding is; a plain variable head is not checked
        text = ("a(x * x) <- b(x).  n(x * x - x * x) <- b(x).  m(#max{x * x, 1}) <- b(x).  "
                "h(#avg{x, x}) <- b(x).  v(x) <- b(x).  g(w) <- a(w).")
        edb = [("b", (1e200,)), ("b", (3.0,)), ("b", (1.7e308,))]
        program = parse_program(text)
        diags, dropped = [], []
        engine = evaluate(program, FactSet(edb), EMPTY, diags)
        _assert_same_facts(engine, brute_force_ground(program, edb, {}, dropped))
        assert query(engine, "g", 1) == [(9.0,)]
        assert query(engine, "n", 1) == [(0.0,)]
        assert query(engine, "m", 1) == [(9.0,)]
        assert query(engine, "h", 1) == [(3.0,), (1e200,)]
        assert len(query(engine, "v", 1)) == 3
        assert sorted((d.rule, d.element, d.reason) for d in diags) == sorted(
            (rule, format_body_element(element), reason) for rule, element, reason in dropped)
        assert sorted((d.rule, d.element) for d in diags) == [
            ("a", "a((x * x))"), ("a", "a((x * x))"), ("h", "h(#avg{x,x})"),
            ("m", "m(#max{(x * x),1})"), ("m", "m(#max{(x * x),1})"),
            ("n", "n(((x * x) - (x * x)))"), ("n", "n(((x * x) - (x * x)))")]
        assert {d.reason for d in diags} == {"non-finite head value"}

    def test_dropped_instance_without_a_diagnostics_list(self):
        result = _ev("a(y) <- b(x), y = 1 / x.", [("b", (0.0,)), ("b", (2.0,))])
        assert query(result, "a", 1) == [(0.5,)]


class TestAggregates:
    def test_term_list_max(self):
        result = _ev("a(y) <- b(x), y = #max{3, 7}.", [("b", (0.0,))])
        assert query(result, "a", 1) == [(7.0,)]

    def test_nested_min_max(self):
        result = _ev("a(y) <- b(x), y = #min{10, #max{4, 6}}.", [("b", (0.0,))])
        assert query(result, "a", 1) == [(6.0,)]

    def test_comprehension_avg_over_range(self):
        edb = [("range", (float(i),)) for i in (1, 2, 3)]
        result = _ev("a(y) <- b(x), y = #avg{i : range(i)}.",
                     edb + [("b", (0.0,))])
        assert query(result, "a", 1) == [(2.0,)]

    def test_empty_comprehension_drops_instance(self):
        diags = []
        result = evaluate(
            parse_program("a(y) <- b(x), y = #avg{i : range(i)}."),
            FactSet([("b", (0.0,))]), EMPTY, diagnostics=diags)
        assert query(result, "a", 1) == []
        assert any("comprehension" in d.reason for d in diags)

    def test_comprehension_sees_outer_bindings(self):
        edb = [("range", (1.0,)), ("range", (2.0,)), ("b", (10.0,))]
        result = _ev("a(y) <- b(x), y = #max{x * i : range(i)}.", edb)
        assert query(result, "a", 1) == [(20.0,)]


def _counting(func):
    """``row_function(func)`` that lists the rows of every call in ``.calls``."""
    lifted = row_function(func)

    def call(rows):
        call.calls.append(list(rows))
        return lifted(rows)

    call.calls = []
    return call


def _range(*values):
    return [("range", (v,)) for v in values]


class TestBatchedComprehensions:
    """A bare external in a comprehension is one call over every scope's
    arguments, with the outcome of calling it scope by scope."""

    def _evaluate(self, text, edb, func, arity=1):
        registry = ExternalRegistry()
        registry.register("f", func, arity)
        diags = []
        result = evaluate(parse_program(text), FactSet(edb), registry, diagnostics=diags)
        return query(result, "a", 1), diags

    def test_one_call_per_comprehension_with_rows_in_scope_order(self):
        edb = [("b", (10.0,)), ("b", (20.0,))] + _range(3.0, 1.0, 2.0, 9.0)
        batched = _counting(lambda x, i: x * i)
        facts, diags = self._evaluate("a(y) <- b(x), y = #avg{@f(x, i) : range(i)}.",
                                      edb, batched, arity=2)
        assert facts == [(37.5,), (75.0,)] and diags == []
        # not a bare call: evaluated scope by scope, one row per call
        per_scope = _counting(lambda x, i: x * i)
        assert self._evaluate("a(y) <- b(x), y = #avg{@f(x, i) + 0 : range(i)}.",
                              edb, per_scope, arity=2) == (facts, diags)
        assert len(batched.calls) == 2 and len(per_scope.calls) == 8
        assert [row for call in batched.calls for row in call] == \
            [row for call in per_scope.calls for row in call]

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_non_finite_value_at_any_row_drops_instance(self, j):
        f = _counting(lambda i: math.inf if i == float(j) else i)
        facts, diags = self._evaluate("a(y) <- b(x), y = #avg{@f(i) : range(i)}.",
                                      [("b", (0.0,))] + _range(0.0, 1.0, 2.0), f)
        assert facts == [] and len(f.calls) == 1
        assert [d.reason for d in diags] == ["@f returned a non-finite value"]

    @pytest.mark.parametrize("bad", [0.0, "k"], ids=["division-by-zero", "type-mismatch"])
    @pytest.mark.parametrize("order", ["value-first", "argument-first"])
    def test_first_failure_in_scope_order_wins(self, order, bad):
        # the engine's scope order over range(1), read from a first evaluation
        probe = _counting(lambda i: i)
        self._evaluate("a(y) <- b(x), y = #avg{@f(i) : range(i)}.",
                       [("b", (0.0,))] + _range(1.0, 3.0), probe)
        [[(first,), (second,)]] = probe.calls
        # @f(1 / d) is inf at d = 2 and its argument fails at d = bad
        good_scope, bad_scope = (first, second) if order == "value-first" else (second, first)
        edb = [("b", (0.0,)), ("d", (good_scope, 2.0)), ("d", (bad_scope, bad))]
        text = "a(y) <- b(x), y = #avg{@f(1 / d) : range(i), d(i, d)}."
        f = _counting(lambda x: math.inf)
        if order == "value-first":
            facts, diags = self._evaluate(text, edb + _range(1.0, 3.0), f)
            assert facts == [] and f.calls == [[(0.5,)]]
            assert [d.reason for d in diags] == ["@f returned a non-finite value"]
        elif bad == 0.0:
            facts, diags = self._evaluate(text, edb + _range(1.0, 3.0), f)
            assert facts == [] and f.calls == []
            assert [d.reason for d in diags] == ["division by zero"]
        else:
            with pytest.raises(TypeMismatch):
                self._evaluate(text, edb + _range(1.0, 3.0), f)
            assert f.calls == []

    def test_empty_comprehension_makes_no_call(self):
        f = _counting(lambda i: i)
        facts, diags = self._evaluate("a(y) <- b(x), y = #avg{@f(i) : range(i)}.",
                                      [("b", (0.0,))], f)
        assert facts == [] and f.calls == []
        assert [d.reason for d in diags] == ["#avg comprehension matched no facts"]

    @pytest.mark.parametrize("text", ["a(y) <- b(x), y = #avg{@f(i) : range(i)}.",
                                      "a(y) <- b(x), y = @f(x)."])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_wrong_number_of_values_raises(self, text, change):
        def f(rows):
            return [1.0] * (len(rows) + change)

        with pytest.raises(SignatureMismatch, match="returned"):
            self._evaluate(text, [("b", (0.0,))] + _range(1.0, 2.0), f)


class TestFactSet:
    def test_dump_facts_text(self):
        facts = FactSet([("q", (2.5,)), ("p", (3.0, "b")), ("p", (1.0, "a")),
                         ("r", ("a b", 1e20)), ("s", ())])
        assert dump_facts(facts) == 'p(1,a).\np(3,b).\nq(2.5).\nr("a b",1e+20).\ns.\n'

    def test_integers_are_floats(self):
        facts = FactSet([("p", (1,))])
        assert ("p", (1.0,)) in facts

    def test_lookup_on_bound_positions(self):
        facts = FactSet([("p", (1.0, "a")), ("p", (2.0, "b")), ("p", (3.0, "a"))])
        assert sorted(facts.lookup("p", 2, (1,), ("a",))) == [(1.0, "a"), (3.0, "a")]
        assert list(facts.lookup("p", 2, (0, 1), (2.0, "b"))) == [(2.0, "b")]
        assert list(facts.lookup("p", 2, (1,), ("c",))) == []
        assert list(facts.lookup("q", 2, (1,), ("a",))) == []
        assert facts.lookup("p", 2) == {(1.0, "a"), (2.0, "b"), (3.0, "a")}

    def test_index_buckets_follow_relation_order(self):
        facts = FactSet(("p", (float(i), float(i % 3))) for i in range(60))
        for value in (0.0, 1.0, 2.0):
            bucket = list(facts.lookup("p", 2, (1,), (value,)))
            assert bucket == [t for t in facts.lookup("p", 2) if t[1] == value]

    def test_index_follows_a_growing_relation(self):
        facts = FactSet([("p", (1.0, "a")), ("p", (2.0, "b"))])
        assert list(facts.lookup("p", 2, (1,), ("a",))) == [(1.0, "a")]
        facts.add("p", (3.0, "a"))
        facts.add("p", (1.0, "a"))  # already there: no change
        assert sorted(facts.lookup("p", 2, (1,), ("a",))) == [(1.0, "a"), (3.0, "a")]
        assert list(facts.lookup("p", 2, (1,), ("c",))) == []
        facts.add("p", (4.0, "c"))
        assert list(facts.lookup("p", 2, (1,), ("c",))) == [(4.0, "c")]

    def test_copy_shares_no_index(self):
        facts = FactSet([("p", (1.0, "a"))])
        assert list(facts.lookup("p", 2, (1,), ("a",))) == [(1.0, "a")]
        clone = facts.copy()
        assert list(clone.lookup("p", 2, (1,), ("a",))) == [(1.0, "a")]
        clone.add("p", (2.0, "a"))
        facts.add("p", (3.0, "a"))
        assert sorted(facts.lookup("p", 2, (1,), ("a",))) == [(1.0, "a"), (3.0, "a")]
        assert sorted(clone.lookup("p", 2, (1,), ("a",))) == [(1.0, "a"), (2.0, "a")]

    @pytest.mark.parametrize("value, stored", [
        (3, 3.0), (True, True), (np.float64(2.5), 2.5), (_Float(1.5), 1.5),
        (_Symbol("k"), "k"), (2.5, 2.5), ("k", "k"),
    ], ids=["int", "bool", "numpy-float64", "float-subclass", "str-subclass", "float", "str"])
    def test_add_stores_numbers_as_floats_and_keeps_the_rest(self, value, stored):
        facts = FactSet()
        facts.add("p", ("a", value))
        [tup] = facts.lookup("p", 2)
        assert tup == ("a", stored)
        # ints and float subclasses become floats; bools and strs, of any
        # class, are kept as they were given
        kept = isinstance(value, (bool, str)) or type(value) is float
        assert (tup[1] is value) == kept
        assert type(tup[1]) is (type(value) if kept else float)
        assert ("p", ("a", value)) in facts and ("p", ("a", stored)) in facts
        assert list(facts.lookup("p", 2, (1,), (value,))) == [tup]
        assert list(facts.lookup("p", 2, (0, 1), ("a", stored))) == [tup]
        facts.add("p", ["a", value])
        assert len(facts) == 1

    def test_adding_a_present_fact_keeps_the_indexes(self):
        facts = FactSet([("p", (1.0, "a")), ("p", (2.0, "b"))])
        bucket = facts.lookup("p", 2, (1,), ("a",))
        for args in [(1.0, "a"), (1, "a"), [1.0, "a"], (np.float64(1.0), "a")]:
            facts.add("p", args)
            assert facts.lookup("p", 2, (1,), ("a",)) is bucket
        facts.add("p", (3.0, "a"))
        assert sorted(facts.lookup("p", 2, (1,), ("a",))) == [(1.0, "a"), (3.0, "a")]

    def test_corpus_is_parsed_once(self):
        assert configuration_program() is configuration_program()


def _double_plus_one(x):
    return 2.0 * x + 1.0


# (program, EDB, externals): each rule reads a predicate, or calls an
# external, somewhere other than a plain body atom, or uses an operator that
# no corpus rule uses.
DEPENDENCY_CASES = [
    pytest.param("a(m) <- u(z), m = #max{y : z_r(y)}.  z_r(x) <- s(x).",
                 [("u", (1.0,)), ("s", (5.0,)), ("s", (2.0,))], {},
                 id="comprehension-over-idb"),
    pytest.param("a(m) <- u(z), m = #min{y : z_q(y)}.  z_q(x) <- z_r(x), x > 1.  z_r(x) <- s(x).",
                 [("u", (1.0,)), ("s", (5.0,)), ("s", (2.0,)), ("s", (1.0,))], {},
                 id="comprehension-two-strata-down"),
    pytest.param("a(z) <- u(z), z < 1 + #max{y : z_r(y)}.  b(#avg{y : z_r(y)}) <- u(z).  "
                 "z_r(x) <- s(x).",
                 [("u", (1.0,)), ("u", (9.0,)), ("s", (5.0,)), ("s", (2.0,))], {},
                 id="comprehension-in-arithmetic-and-head"),
    pytest.param("g(@f(x)) <- s(x).", [("s", (1.0,)), ("s", (2.5,))],
                 {"f": _double_plus_one}, id="external-in-head"),
    pytest.param("a(m) <- u(z), m = #max{@f(y) : z_r(y)}.  z_r(x) <- s(x).",
                 [("u", (1.0,)), ("s", (3.0,))], {"f": _double_plus_one},
                 id="external-in-comprehension"),
    pytest.param('a(x) <- p(x, x).  b(y) <- p(2, y), q(y, y, "k").',
                 [("p", (1.0, 1.0)), ("p", (1.0, 2.0)), ("p", (2.0, 2.0)), ("p", (2.0, 3.0)),
                  ("q", (2.0, 2.0, "k")), ("q", (3.0, 3.0, "j")), ("q", (3.0, 2.0, "k"))],
                 {}, id="constants-and-repeated-variables"),
    pytest.param("a(x) <- p(x, y), x == y.  b(x) <- q(x, y), x != y.  "
                 "c(d) <- p(x, y), x != y, d = x - y.",
                 [("p", (1.0, 1.0)), ("p", (3.0, 1.0)), ("p", (2.0, 5.0)),
                  ("q", ("k", "k")), ("q", ("k", "j")), ("q", ("j", 1.0))],
                 {}, id="equality-and-subtraction"),
]


@pytest.mark.parametrize("text,edb,funcs", DEPENDENCY_CASES)
def test_engine_reads_every_dependency_like_the_oracle(text, edb, funcs):
    program = parse_program(text)
    assert program.calls == tuple((name, 1) for name in funcs)
    registry = ExternalRegistry()
    for name, func in funcs.items():
        registry.register(name, row_function(func), 1)
    diagnostics = []
    engine = evaluate(program, FactSet(edb), registry, diagnostics)
    _assert_same_facts(engine, brute_force_ground(program, edb, funcs))
    assert diagnostics == []
    if funcs:
        with pytest.raises(MissingExternal):
            evaluate(program, FactSet(), EMPTY)


class TestCorpusAgainstOracle:
    def test_corpus_matches_brute_force_on_random_edbs(self):
        program = configuration_program()
        rng = np.random.RandomState(7)
        for trial in range(25):
            funcs = make_stub_funcs(rng)
            edb = pipeline_edb(rng, range_size=3,
                               drop_probability=0.15 if trial % 2 else 0.0)
            engine = evaluate(program, FactSet(edb), make_registry(funcs))
            oracle = brute_force_ground(program, edb, funcs)
            _assert_same_facts(engine, oracle)

    def test_full_edb_yields_exactly_one_configuration(self):
        program = configuration_program()
        rng = np.random.RandomState(11)
        for _ in range(10):
            funcs = make_stub_funcs(rng)
            edb = pipeline_edb(rng)
            result = evaluate(program, FactSet(edb), make_registry(funcs))
            assert len(query(result, "configured_resource", 6)) == 1


_NUMBERS = ("0", "1", "2", "3")
_SYMBOLS = ('"a"', '"b"', '"c"')
_AGGREGATES = ("max", "min", "avg")
_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


def _inf_at_three(x):
    return math.inf if x == 3.0 else 2.0 * x + 1.0


class _RandomProgram:
    """A random safe, non-recursive program in the parser's language, and an
    EDB for it, drawn from ``rng``.

    Each predicate column holds numbers ("n") or symbols ("s"), and numbers
    are read only where numbers are needed, so no instance raises
    TypeMismatch, which the engine raises and the oracle would drop.  Values
    are small integers, so most sums are exact in whatever order the engine
    and the oracle add them, and facts compare within a relative 1e-9.  A
    comprehension's value term can fail in one way
    only, so the reason a dropped instance gives does not depend on the
    order in which the engine and the oracle visit its scopes.
    ``features`` names the constructs the program uses.
    """

    def __init__(self, rng):
        self.rng = rng
        self.features = set()
        self.signatures = {}
        self.edb = []
        for i in range(rng.randint(2, 5)):
            predicate = "e%d" % i
            kinds = "".join(self.pick("nns") for _ in range(rng.randint(1, 4)))
            self.signatures[predicate] = kinds
            for _ in range(rng.randint(3, 10)):
                self.edb.append((predicate, tuple(
                    float(self.pick(_NUMBERS)) if kind == "n" else self.pick(_SYMBOLS)[1:-1]
                    for kind in kinds)))
        edb = sorted(self.signatures)
        defined, rules = [], []
        for _ in range(rng.randint(1, 6)):
            if defined and rng.rand() < 0.25:
                head = self.pick(defined)  # one more rule for an IDB predicate
                readable = edb + defined[:defined.index(head)]
            else:
                head = "q%d" % len(defined)
                readable = edb + defined
                defined.append(head)
            rules.append(self.rule(head, readable))
        self.text = "\n".join(rules)

    def pick(self, options):
        return options[self.rng.randint(len(options))]

    def fresh(self, prefix):
        self.count += 1
        return "%s%d" % (prefix, self.count)

    def rule(self, head, readable):
        self.bound, self.assigned, self.count = {}, set(), 0
        self.in_head = False
        body = []
        for _ in range(self.rng.randint(1, 4)):
            body.append(self.atom(self.pick(readable), self.bound, "x"))
            for _ in range(self.rng.randint(0, 2)):
                if self.rng.rand() < 0.5:
                    body.append(self.binding(readable))
                else:
                    body.append(self.comparison(readable))
        self.in_head = True
        if head in self.signatures:
            terms = [self.typed(kind, readable) for kind in self.signatures[head]]
        else:
            terms = [self.typed(self.pick("nnss"), readable)
                     for _ in range(self.rng.randint(1, 4))]
            self.signatures[head] = "".join(kind for _, kind in terms)
        return "%s(%s) <- %s." % (head, ",".join(text for text, _ in terms), ", ".join(body))

    def typed(self, kind, readable):
        """A head term of ``kind``: a bound variable, a symbol or a number term."""
        names = [name for name, k in self.bound.items() if k == kind]
        if kind == "s":
            return (self.pick(names) if names else self.pick(_SYMBOLS)), "s"
        if names and self.rng.rand() < 0.5:
            return self.pick(names), "n"
        return self.number(readable, 1), "n"

    def atom(self, predicate, scope, prefix):
        """An atom over ``predicate``; its fresh variables are added to ``scope``."""
        args, fresh = [], {}
        for kind in self.signatures[predicate]:
            r = self.rng.rand()
            keys = [name for name, k in scope.items() if k == kind]
            again = [name for name, k in fresh.items() if k == kind]
            if r < 0.3 and keys:
                key = self.pick(keys)
                args.append(key)
                self.features.add("bound variable")
                if key in self.assigned:
                    self.features.add("variable bound by a binding")
                if prefix == "u" and key in self.bound:
                    self.features.add("comprehension reads an outer binding")
            elif r < 0.45:
                args.append(self.pick(_NUMBERS if kind == "n" else _SYMBOLS))
                self.features.add("constant")
            elif r < 0.55:
                args.append("_")
                self.features.add("anonymous variable")
            elif r < 0.65 and again:
                args.append(self.pick(again))
                self.features.add("repeated variable")
            else:
                name = self.fresh(prefix)
                fresh[name] = kind
                args.append(name)
        scope.update(fresh)
        return "%s(%s)" % (predicate, ",".join(args))

    def binding(self, readable):
        expr = self.number(readable, 1)
        atom_bound = [name for name, k in self.bound.items()
                      if k == "n" and name not in self.assigned]
        if atom_bound and self.rng.rand() < 0.3:
            name = self.pick(atom_bound)
            self.features.add("binding overwrites")
        else:
            name = self.fresh("b")
        self.bound[name] = "n"
        self.assigned.add(name)
        return "%s = %s" % (name, expr)

    def comparison(self, readable):
        if self.rng.rand() < 0.3:
            kind = self.pick("ns")
            names = [name for name, k in self.bound.items() if k == kind]
            if names:
                other = self.pick(names + [self.pick(_NUMBERS if kind == "n" else _SYMBOLS)])
                return "%s %s %s" % (self.pick(names), self.pick(("==", "!=")), other)
        return "%s %s %s" % (self.number(readable, 1), self.pick(_COMPARISONS),
                             self.number(readable, 1))

    def number(self, readable, depth):
        """A numeric term over the bound variables."""
        names = [name for name, k in self.bound.items() if k == "n"]
        r = self.rng.rand()
        if depth == 0 or r < 0.4:
            return self.pick(names) if names and self.rng.rand() < 0.7 else self.pick(_NUMBERS)
        if r < 0.6:
            return "(%s %s %s)" % (self.number(readable, depth - 1), self.pick("+-*/"),
                                   self.number(readable, depth - 1))
        if r < 0.7:
            return "#%s{%s, %s}" % (self.pick(_AGGREGATES), self.number(readable, depth - 1),
                                    self.number(readable, depth - 1))
        if r < 0.8:
            return "@f(%s)" % self.number(readable, depth - 1)
        return self.comprehension(readable)

    def comprehension(self, readable):
        scope = dict(self.bound)
        condition = [self.atom(self.pick(readable), scope, "u")
                     for _ in range(self.rng.randint(1, 3))]
        local = [name for name, k in scope.items() if k == "n" and name not in self.bound]
        values = local + [name for name, k in self.bound.items() if k == "n"]
        if local and self.rng.rand() < 0.4:
            expr = "@f(%s)" % self.pick(local)  # fails only with a non-finite value
        elif values and self.rng.rand() < 0.5:
            # fails only on a division by zero
            expr = "(%s %s %s)" % (self.pick(values), self.pick("+-*/"),
                                   self.pick(values + list(_NUMBERS)))
        else:
            expr = self.pick(values) if values else self.pick(_NUMBERS)
        if self.in_head:
            self.features.add("comprehension in a head")
        return "#%s{%s : %s}" % (self.pick(_AGGREGATES), expr, ", ".join(condition))


class TestRandomPrograms:
    def test_engine_matches_the_oracle_on_random_programs(self):
        registry = ExternalRegistry()
        registry.register("f", row_function(_inf_at_three), 1)
        rng = np.random.RandomState(30)
        started = time.monotonic()
        features, derived, dropped_any = set(), 0, 0
        for trial in range(300):
            drawn = _RandomProgram(rng)
            program = parse_program(drawn.text)
            diagnostics, dropped = [], []
            engine = evaluate(program, FactSet(drawn.edb), registry, diagnostics)
            oracle = brute_force_ground(program, drawn.edb, {"f": _inf_at_three}, dropped)
            _assert_same_facts(engine, oracle)
            assert (sorted((d.rule, d.element, d.reason) for d in diagnostics)
                    == sorted((rule, format_body_element(element), reason)
                              for rule, element, reason in dropped)), (trial, drawn.text)
            features |= drawn.features
            derived += len(engine) > len(FactSet(drawn.edb))
            dropped_any += bool(diagnostics)
        assert time.monotonic() - started < 5.0
        assert features == {
            "bound variable", "variable bound by a binding", "binding overwrites",
            "comprehension reads an outer binding", "comprehension in a head",
            "constant", "anonymous variable", "repeated variable",
        }
        assert derived > 150 and dropped_any > 50


def _as_dict(factset):
    out = {}
    for pred, tup in factset:
        out.setdefault((pred, len(tup)), set()).add(tup)
    return out


def _match(a, b):
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, float) and isinstance(y, float):
            if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
                return False
        elif x != y:
            return False
    return True


def _assert_same_facts(engine_facts, oracle_store):
    mine = _as_dict(engine_facts)
    assert set(mine) == set(oracle_store), (
        sorted(set(mine) ^ set(oracle_store)))
    for key in mine:
        got = sorted(mine[key], key=lambda t: tuple(map(str, t)))
        want = sorted(oracle_store[key], key=lambda t: tuple(map(str, t)))
        assert len(got) == len(want), key
        unmatched = list(want)
        for tup in got:
            hit = next((w for w in unmatched if _match(tup, w)), None)
            assert hit is not None, (key, tup, want)
            unmatched.remove(hit)
