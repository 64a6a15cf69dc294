"""Parser for the rule syntax used by the configuration rule corpus.

Grammar sketch::

    program  := rule*
    rule     := atom ARROW body '.'         ARROW is one of '<-', ':-', 'U+2190'
    body     := element (',' element)*
    element  := atom | var '=' expr | expr CMP expr
    expr     := additive arithmetic over primaries
    primary  := number | '"'string'"' | ident | ident '(' args ')'
              | '@'ident '(' args ')' | '#'agg '{' ... '}' | '(' expr ')'

Inside rules a bare identifier in argument position is a variable ('_' is
anonymous); numbers and quoted strings are constants.  In ground-fact text
(see :func:`parse_ground_atom`) bare identifiers are symbol constants.
"""

from __future__ import annotations

import itertools
import re

from .errors import DatalogSyntaxError, SafetyError
from .terms import (
    AGGREGATE_KINDS,
    Aggregate,
    Arith,
    Atom,
    Binding,
    Comparison,
    Const,
    ExternalCall,
    Program,
    Rule,
    Var,
    rule_nodes,
    rule_order,
    walk,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<arrow><-|:-|←)
  | (?P<cmp><=|>=|==|!=|<|>)
  | (?P<num>\d+\.\d+(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<str>"(?:[^"\\]|\\.)*")
  | (?P<ext>@[A-Za-z_][A-Za-z0-9_]*)
  | (?P<agg>\#[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[(){},.:=+\-*/])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"<{self.kind} {self.text!r}>"


def _tokenize(text: str):
    line, col = 1, 1
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DatalogSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, ground: bool = False):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ground = ground  # ground mode: bare identifiers are constants
        self._anon = itertools.count()

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise DatalogSyntaxError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # -- grammar -----------------------------------------------------------

    def parse_program(self) -> list:
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> Rule:
        head = self.parse_atom()
        body = []
        if self.peek().kind == "arrow":
            self.next()
            body.append(self.parse_body_element())
            while self.at(","):
                self.next()
                body.append(self.parse_body_element())
        self.expect(".")
        return Rule(head=head, body=tuple(body))

    def parse_atom(self) -> Atom:
        tok = self.next()
        if tok.kind != "ident":
            raise DatalogSyntaxError(f"expected predicate name, got {tok.text!r}", tok.line, tok.col)
        args = []
        if self.at("("):
            self.next()
            if not self.at(")"):
                args.append(self.parse_expr())
                while self.at(","):
                    self.next()
                    args.append(self.parse_expr())
            self.expect(")")
        return Atom(predicate=tok.text, args=tuple(args))

    def parse_body_element(self):
        start = self.pos
        left = self.parse_expr()
        tok = self.peek()
        if tok.kind == "cmp":
            op = self.next().text
            right = self.parse_expr()
            return Comparison(op=op, left=left, right=right)
        if tok.text == "=":
            self.next()
            right = self.parse_expr()
            if not isinstance(left, Var):
                raise DatalogSyntaxError("left side of '=' must be a variable", tok.line, tok.col)
            return Binding(var=left, expr=right)
        # plain positive atom: re-parse the span as an atom
        self.pos = start
        return self.parse_body_atom()

    def parse_body_atom(self) -> Atom:
        """An atom that matches facts: a body atom or a comprehension condition."""
        tok = self.peek()
        atom = self.parse_atom()
        for a in atom.args:
            if not isinstance(a, (Var, Const)):
                raise DatalogSyntaxError(
                    f"atom arguments must be variables or constants: {atom.predicate}", tok.line, tok.col
                )
        return atom

    def parse_expr(self):
        left = self.parse_mul()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            right = self.parse_mul()
            left = Arith(op=op, left=left, right=right)
        return left

    def parse_mul(self):
        left = self.parse_primary()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            right = self.parse_primary()
            left = Arith(op=op, left=left, right=right)
        return left

    def parse_primary(self):
        tok = self.next()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "str":
            return Const(tok.text[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        if tok.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.text == "-":
            inner = self.parse_primary()
            return Arith(op="-", left=Const(0.0), right=inner)
        if tok.kind == "ext":
            name = tok.text[1:]
            self.expect("(")
            args = [self.parse_expr()]
            while self.at(","):
                self.next()
                args.append(self.parse_expr())
            self.expect(")")
            return ExternalCall(name=name, args=tuple(args))
        if tok.kind == "agg":
            kind = tok.text[1:]
            if kind not in AGGREGATE_KINDS:
                raise DatalogSyntaxError(f"unknown aggregate #{kind}", tok.line, tok.col)
            self.expect("{")
            first = self.parse_expr()
            if self.at(":"):
                self.next()
                condition = [self.parse_body_atom()]
                while self.at(","):
                    self.next()
                    condition.append(self.parse_body_atom())
                self.expect("}")
                return Aggregate(kind=kind, expr=first, condition=tuple(condition))
            elements = [first]
            while self.at(","):
                self.next()
                elements.append(self.parse_expr())
            self.expect("}")
            return Aggregate(kind=kind, elements=tuple(elements))
        if tok.kind == "ident":
            if self.ground:
                return Const(tok.text)
            if tok.text == "_":
                return Var(name=f"_anon{next(self._anon)}")
            return Var(name=tok.text)
        raise DatalogSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _variables(nodes) -> set:
    return {node.name for node in nodes if isinstance(node, Var)}


def _reads(terms) -> set:
    """Variables the terms read from their rule.

    The only atoms inside terms are comprehension conditions, and the
    variables they bind are local to the comprehension.
    """
    nodes = [node for term in terms for node in walk(term)]
    local = {name for node in nodes if isinstance(node, Atom) for name in _variables(node.args)}
    return _variables(nodes) - local


def _check_safety(rule: Rule) -> None:
    bound: set = set()
    seen_bindings: set = set()
    for el in rule.body:
        if isinstance(el, Atom):
            bound |= _variables(el.args)
        elif isinstance(el, Binding):
            if el.var.name in seen_bindings:
                raise SafetyError(
                    f"variable {el.var.name} bound twice in rule for {rule.head.predicate}"
                )
            seen_bindings.add(el.var.name)
            free = _reads((el.expr,)) - bound
            if free:
                raise SafetyError(
                    f"binding of {el.var.name} uses unbound variables {sorted(free)}"
                )
            bound.add(el.var.name)
        else:
            free = _reads((el.left, el.right)) - bound
            if free:
                raise SafetyError(f"comparison uses unbound variables {sorted(free)}")
    unbound_head = _reads(rule.head.args) - bound
    if unbound_head:
        raise SafetyError(
            f"head variables {sorted(unbound_head)} of {rule.head.predicate} are unsafe"
        )


def parse_program(text: str) -> Program:
    """Parse rule text into a validated (safe, non-recursive) Program."""
    rules = _Parser(text).parse_program()
    rule_order(rules)
    for rule in rules:
        _check_safety(rule)
    externals = {
        node.name for rule in rules for node in rule_nodes(rule) if isinstance(node, ExternalCall)
    }
    return Program(rules=tuple(rules), externals=tuple(sorted(externals)))


def parse_ground_atom(text: str):
    """Parse one ground atom line, e.g. ``hasVolume(d1,12.5).``"""
    parser = _Parser(text, ground=True)
    atom = parser.parse_atom()
    if parser.at("."):
        parser.next()
    tok = parser.peek()
    if tok.kind != "eof":
        raise DatalogSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    args = []
    for a in atom.args:
        if not isinstance(a, Const):
            raise DatalogSyntaxError("fact arguments must be ground")
        args.append(a.value)
    return atom.predicate, tuple(args)
