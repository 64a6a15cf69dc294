"""Ground fact storage, indexed by (predicate, arity), with set semantics."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DatalogSyntaxError
from .terms import format_value


def _sort_key(tup):
    # mixed str/float tuples: numbers sort before symbols, each kind internally
    return tuple((0, v, "") if isinstance(v, float) else (1, 0.0, v) for v in tup)


class FactSet:
    """A set of ground atoms. Values are floats or interned symbol strings."""

    def __init__(self, facts: Iterable = ()):
        self._index: dict = {}
        for pred, args in facts:
            self.add(pred, args)

    def add(self, predicate: str, args: Iterable) -> None:
        tup = tuple(float(a) if isinstance(a, (int, float)) and not isinstance(a, bool) else a for a in args)
        self._index.setdefault((predicate, len(tup)), set()).add(tup)

    def lookup(self, predicate: str, arity: int) -> frozenset:
        return self._index.get((predicate, arity), frozenset())

    def predicates(self):
        return sorted(self._index.keys())

    def copy(self) -> "FactSet":
        fs = FactSet()
        fs._index = {k: set(v) for k, v in self._index.items()}
        return fs

    def __len__(self) -> int:
        return sum(len(v) for v in self._index.values())

    def __iter__(self) -> Iterator:
        for (pred, _arity) in self.predicates():
            for tup in sorted(self._index[(pred, _arity)], key=_sort_key):
                yield pred, tup

    def __contains__(self, item) -> bool:
        pred, args = item
        tup = tuple(float(a) if isinstance(a, (int, float)) else a for a in args)
        return tup in self._index.get((pred, len(tup)), ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactSet):
            return NotImplemented
        mine = {k: v for k, v in self._index.items() if v}
        theirs = {k: v for k, v in other._index.items() if v}
        return mine == theirs

    def __repr__(self) -> str:
        return f"FactSet({len(self)} facts, {len(self._index)} predicates)"


def query(facts: FactSet, predicate: str, arity: int) -> list:
    """All tuples of a predicate, in a deterministic lexicographic order."""
    return sorted(facts.lookup(predicate, arity), key=_sort_key)


def dump_facts(facts: FactSet) -> str:
    """One atom per line: ``predicate(arg,...).`` in deterministic order."""
    lines = []
    for pred, tup in facts:
        if tup:
            lines.append("%s(%s)." % (pred, ",".join(format_value(v) for v in tup)))
        else:
            lines.append(pred + ".")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_facts(text: str) -> FactSet:
    """Inverse of :func:`dump_facts`; accepts optional trailing dots."""
    from .parser import parse_ground_atom  # local import avoids a cycle

    facts = FactSet()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        try:
            pred, args = parse_ground_atom(line)
        except DatalogSyntaxError as exc:
            raise DatalogSyntaxError(f"bad fact: {exc}", line=lineno, column=1) from exc
        facts.add(pred, args)
    return facts
