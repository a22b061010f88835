"""Boolean-circuit DSL: parser, depth analysis, and evaluator.

Grammar (one statement per line, ``#`` starts a comment):

    INPUTS x1 x2 ... xn
    w = AND a b | OR a b | NOT a | TRUE | FALSE
    OUTPUT w

Identifiers match ``[a-z][a-z0-9_]*``; wires must be defined before use,
gates have fan-in at most two, and exactly one OUTPUT line is required.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import Error

__all__ = [
    "CircuitSyntaxError",
    "UndefinedWire",
    "DuplicateWire",
    "NoOutput",
    "ArityMismatch",
    "Input",
    "Const",
    "And",
    "Or",
    "Not",
    "Gate",
    "Circuit",
    "parse_circuit",
    "circuit_depth",
    "eval_circuit",
]


class CircuitSyntaxError(Error):
    """Malformed circuit text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UndefinedWire(Error):
    """A statement references a wire that has not been defined."""


class DuplicateWire(Error):
    """A wire name is defined twice."""


class NoOutput(Error):
    """The circuit text has no OUTPUT line."""


class ArityMismatch(Error):
    """Assignment length does not match the circuit's input count."""


@dataclass(frozen=True)
class Input:
    index: int


@dataclass(frozen=True)
class Const:
    bit: int


@dataclass(frozen=True)
class And:
    a: int
    b: int


@dataclass(frozen=True)
class Or:
    a: int
    b: int


@dataclass(frozen=True)
class Not:
    a: int


Gate = Input | Const | And | Or | Not


@dataclass(frozen=True)
class Circuit:
    input_count: int
    gates: tuple[Gate, ...]
    output: int


_IDENT = re.compile(r"[a-z][a-z0-9_]*")
_TOKEN = re.compile(r"\S+")


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; raises the grammar errors documented above."""
    gates: list[Gate] = []
    table: dict[str, int] = {}
    input_count = 0
    output: int | None = None
    saw_inputs = False

    def lookup(token: str, lineno: int) -> int:
        if token not in table:
            raise UndefinedWire(f"line {lineno}: wire {token!r} is not defined")
        return table[token]

    def check_ident(token: str, lineno: int, col: int) -> None:
        if not _IDENT.fullmatch(token):
            raise CircuitSyntaxError(f"bad identifier {token!r}", lineno, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        # '#' starts a comment, as in errors.records; columns are 1-based
        found = list(_TOKEN.finditer(raw.split("#", 1)[0]))
        tokens = [m.group() for m in found]
        columns = [m.start() + 1 for m in found]
        if not tokens:
            continue
        if output is not None:
            raise CircuitSyntaxError("content after OUTPUT", lineno)
        if tokens[0] == "INPUTS":
            if saw_inputs:
                raise CircuitSyntaxError("second INPUTS line", lineno)
            if len(tokens) == 1:
                raise CircuitSyntaxError("INPUTS needs at least one name", lineno)
            saw_inputs = True
            for tok, col in zip(tokens[1:], columns[1:]):
                check_ident(tok, lineno, col)
                if tok in table:
                    raise DuplicateWire(f"line {lineno}: wire {tok!r} redefined")
                table[tok] = len(gates)
                gates.append(Input(input_count))
                input_count += 1
            continue
        if tokens[0] == "OUTPUT":
            if len(tokens) != 2:
                raise CircuitSyntaxError("OUTPUT takes exactly one wire", lineno)
            output = lookup(tokens[1], lineno)
            continue
        if len(tokens) < 3 or tokens[1] != "=":
            raise CircuitSyntaxError("expected '<wire> = <op> ...'", lineno)
        name = tokens[0]
        check_ident(name, lineno, columns[0])
        if name in table:
            raise DuplicateWire(f"line {lineno}: wire {name!r} redefined")
        op, args = tokens[2], tokens[3:]
        if op == "AND" or op == "OR":
            if len(args) != 2:
                raise CircuitSyntaxError(f"{op} takes two wires", lineno)
            a, b = (lookup(t, lineno) for t in args)
            gates.append(And(a, b) if op == "AND" else Or(a, b))
        elif op == "NOT":
            if len(args) != 1:
                raise CircuitSyntaxError("NOT takes one wire", lineno)
            gates.append(Not(lookup(args[0], lineno)))
        elif op in ("TRUE", "FALSE"):
            if args:
                raise CircuitSyntaxError(f"{op} takes no arguments", lineno)
            gates.append(Const(1 if op == "TRUE" else 0))
        else:
            raise CircuitSyntaxError(f"unknown operation {op!r}", lineno,
                                     columns[2])
        table[name] = len(gates) - 1
    if output is None:
        raise NoOutput("circuit text has no OUTPUT line")
    return Circuit(input_count=input_count, gates=tuple(gates), output=output)


def circuit_depth(c: Circuit) -> int:
    """Longest input-to-output path, counting AND/OR/NOT gates."""
    depth = [0] * len(c.gates)
    for i, gate in enumerate(c.gates):
        match gate:
            case Input(_) | Const(_):
                depth[i] = 0
            case Not(a):
                depth[i] = depth[a] + 1
            case And(a, b) | Or(a, b):
                depth[i] = max(depth[a], depth[b]) + 1
    return depth[c.output]


def eval_circuit(c: Circuit, bits) -> int:
    """Evaluate the circuit on an assignment of 0/1 values."""
    if len(bits) != c.input_count:
        raise ArityMismatch(
            f"expected {c.input_count} input bits, got {len(bits)}")
    values = [0] * len(c.gates)
    for i, gate in enumerate(c.gates):
        match gate:
            case Input(index):
                values[i] = 1 if bits[index] else 0
            case Const(bit):
                values[i] = bit
            case And(a, b):
                values[i] = values[a] & values[b]
            case Or(a, b):
                values[i] = values[a] | values[b]
            case Not(a):
                values[i] = 1 - values[a]
    return values[c.output]
