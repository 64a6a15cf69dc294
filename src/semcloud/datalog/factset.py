"""Ground fact storage, indexed by (predicate, arity), with set semantics.

Each relation also gets hash indexes on the argument positions a join has
already bound (the hash-join indexing of bottom-up engines; Abiteboul, Hull
& Vianu, *Foundations of Databases*, ch. 13).  An index is built on first
use and dropped when its relation gains a tuple, so its buckets always list
tuples in the relation's own iteration order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .terms import format_value


# the exact value types a fact may hold as it is; anything else is coerced
_CANONICAL = frozenset((float, str))
_NONE = frozenset()


def _sort_key(tup):
    # mixed str/float tuples: numbers sort before symbols, each kind internally
    return tuple((0, v, "") if isinstance(v, float) else (1, 0.0, v) for v in tup)


class FactSet:
    """A set of ground atoms. Values are floats or interned symbol strings."""

    def __init__(self, facts: Iterable = ()):
        self._index: dict = {}
        # (predicate, arity) -> {positions: {key: [tuple, ...]}}
        self._hashes: dict = {}
        for pred, args in facts:
            self.add(pred, args)

    def add(self, predicate: str, args: Iterable) -> None:
        """Add one fact; ints (not bools) and float subclasses become floats.

        A tuple of exact floats and strs, the form the engine derives, is
        stored as it is.
        """
        if type(args) is not tuple or not _CANONICAL.issuperset(map(type, args)):
            args = tuple(float(a) if isinstance(a, (int, float)) and not isinstance(a, bool)
                         else a for a in args)
        key = (predicate, len(args))
        relation = self._index.get(key)
        if relation is None:
            self._index[key] = {args}
        elif args not in relation:
            relation.add(args)
            self._hashes.pop(key, None)

    def lookup(self, predicate: str, arity: int, positions: tuple = (), key: tuple = ()):
        """Tuples of a relation whose args at ``positions`` equal ``key``.

        With no positions this is the whole relation.  Otherwise the
        matching tuples come from the relation's hash index on those
        positions, in the relation's iteration order.
        """
        relation = self._index.get((predicate, arity), _NONE)
        if not positions or not relation:
            return relation
        by_positions = self._hashes.get((predicate, arity))
        if by_positions is None:
            by_positions = self._hashes[(predicate, arity)] = {}
        buckets = by_positions.get(positions)
        if buckets is None:
            buckets = by_positions[positions] = {}
            for tup in relation:
                buckets.setdefault(tuple(tup[i] for i in positions), []).append(tup)
        return buckets.get(key, ())

    def copy(self) -> "FactSet":
        fs = FactSet()
        fs._index = {k: set(v) for k, v in self._index.items()}
        return fs

    def __len__(self) -> int:
        return sum(len(v) for v in self._index.values())

    def __iter__(self) -> Iterator:
        for key in sorted(self._index):
            for tup in sorted(self._index[key], key=_sort_key):
                yield key[0], tup

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
