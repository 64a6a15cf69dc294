from .engine import Diagnostic, ExternalRegistry, build_program, evaluate
from .errors import (
    DatalogError,
    DatalogSyntaxError,
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
    "MissingExternal",
    "ProgramRecursionError",
    "SafetyError",
    "SignatureMismatch",
    "TypeMismatch",
    "build_program",
    "dump_facts",
    "evaluate",
    "parse_program",
    "query",
]
