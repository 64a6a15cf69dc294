from .engine import Diagnostic, ExternalRegistry, evaluate, evaluate_aggregate
from .errors import (
    DatalogError,
    DatalogSyntaxError,
    EmptyAggregate,
    MissingExternal,
    ProgramRecursionError,
    SafetyError,
    SignatureMismatch,
    TypeMismatch,
)
from .factset import FactSet, dump_facts, query
from .parser import parse_program
from .terms import Program, Rule

__all__ = [
    "Diagnostic",
    "ExternalRegistry",
    "FactSet",
    "Program",
    "Rule",
    "DatalogError",
    "DatalogSyntaxError",
    "EmptyAggregate",
    "MissingExternal",
    "ProgramRecursionError",
    "SafetyError",
    "SignatureMismatch",
    "TypeMismatch",
    "dump_facts",
    "evaluate",
    "evaluate_aggregate",
    "parse_program",
    "query",
]
