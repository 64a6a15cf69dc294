"""Datalog dialect: parser, engine semantics, aggregates, shipped corpus."""

import math

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
    dump_facts,
    evaluate,
    evaluate_aggregate,
    format_program,
    parse_facts,
    parse_program,
    query,
)
from semcloud.datalog.corpus import RULES_TEXT, configuration_program
from semcloud.datalog.parser import parse_ground_atom
from semcloud.datalog.terms import Aggregate, Const

from oracle import brute_force_ground
from stubs import make_registry, make_stub_funcs, pipeline_edb

EMPTY = ExternalRegistry()


def _ev(text, edb=(), registry=EMPTY):
    return evaluate(parse_program(text), FactSet(edb), registry)


class TestParser:
    def test_minimal_rule(self):
        program = parse_program("a(x) <- b(x).")
        assert len(program.rules) == 1
        assert program.rules[0].head.predicate == "a"
        assert program.externals == ()

    def test_round_trip_modulo_whitespace(self):
        program = configuration_program()
        again = parse_program(format_program(program))
        assert again.rules == program.rules

    def test_corpus_parses(self):
        program = parse_program(RULES_TEXT)
        heads = {r.head.predicate for r in program.rules}
        assert "configured_resource" in heads
        confs = [r for r in program.rules
                 if r.head.predicate == "configured_resource"]
        assert len(confs) == 4
        assert all(r.head.arity == 6 for r in confs)

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

    def test_unsafe_head_variable(self):
        with pytest.raises(SafetyError):
            parse_program("a(x,y) <- b(x).")

    def test_unsafe_comparison(self):
        with pytest.raises(SafetyError):
            parse_program("a(x) <- b(x), y > 0.")

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

    def test_ground_atom_parses_numbers_and_symbols(self):
        pred, args = parse_ground_atom("p(a,1.5,b).")
        assert pred == "p"
        assert args == ("a", 1.5, "b")


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

    def test_missing_external_raises(self):
        with pytest.raises(MissingExternal):
            _ev("a(y) <- b(x), y = @f(x).", [("b", (1.0,))])

    def test_arity_mismatch_raises(self):
        registry = ExternalRegistry()
        registry.register("f", lambda x, y: x + y, 2)
        with pytest.raises(SignatureMismatch):
            _ev("a(y) <- b(x), y = @f(x).", [("b", (1.0,))], registry)

    def test_non_finite_external_drops_instance(self):
        registry = ExternalRegistry()
        registry.register("f", lambda x: float("inf"), 1)
        diags = []
        result = evaluate(
            parse_program("a(y) <- b(x), y = @f(x)."),
            FactSet([("b", (1.0,))]), registry, diagnostics=diags)
        assert query(result, "a", 1) == []
        assert diags

    def test_anonymous_variables_do_not_join(self):
        result = _ev("a(x) <- b(x,_), c(_).",
                     [("b", (1.0, 7.0)), ("c", (99.0,))])
        assert query(result, "a", 1) == [(1.0,)]


class TestAggregates:
    def test_term_list_max(self):
        agg = Aggregate(kind="max", elements=(Const(3.0), Const(7.0)))
        assert evaluate_aggregate(agg, {}, FactSet(), EMPTY) == 7.0

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


class TestFactSet:
    def test_dump_parse_round_trip(self):
        facts = FactSet([("p", (1.0, "a")), ("q", (2.5,)), ("p", (3.0, "b"))])
        assert parse_facts(dump_facts(facts)) == facts

    def test_parse_facts_skips_comments_and_blanks(self):
        facts = parse_facts("% comment\n\np(1).\n")
        assert query(facts, "p", 1) == [(1.0,)]

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

    def test_corpus_is_parsed_once(self):
        assert configuration_program() is configuration_program()


def _double_plus_one(x):
    return 2.0 * x + 1.0


# (program, EDB, externals): each rule reads a predicate, or calls an
# external, somewhere other than a plain body atom.
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
]


@pytest.mark.parametrize("text,edb,funcs", DEPENDENCY_CASES)
def test_engine_reads_every_dependency_like_the_oracle(text, edb, funcs):
    program = parse_program(text)
    assert program.externals == tuple(sorted(funcs))
    registry = ExternalRegistry()
    for name, func in funcs.items():
        registry.register(name, func, 1)
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
