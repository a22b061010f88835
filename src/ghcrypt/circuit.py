"""Boolean-circuit DSL: parser, printer, depth analysis, and evaluator.

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

from .errors import Error, records

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
    "format_circuit",
    "circuit_depth",
    "eval_circuit",
    "logic_gate_count",
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
    wire_names: tuple[str, ...]
    output: int


_IDENT = re.compile(r"[a-z][a-z0-9_]*")


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; raises the grammar errors documented above."""
    gates: list[Gate] = []
    names: list[str] = []
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
        tokens = " ".join(records(raw)).split()  # one line: at most one record
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
            for tok in tokens[1:]:
                check_ident(tok, lineno, raw.index(tok) + 1)
                if tok in table:
                    raise DuplicateWire(f"line {lineno}: wire {tok!r} redefined")
                table[tok] = len(gates)
                names.append(tok)
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
        check_ident(name, lineno, raw.index(name) + 1)
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
                                     raw.index(op) + 1)
        table[name] = len(names)
        names.append(name)
    if output is None:
        raise NoOutput("circuit text has no OUTPUT line")
    return Circuit(input_count=input_count, gates=tuple(gates),
                   wire_names=tuple(names), output=output)


def format_circuit(c: Circuit) -> str:
    """Canonical text for a circuit; parse(format(c)) reproduces the gates."""
    inputs = [c.wire_names[i] for i, g in enumerate(c.gates) if isinstance(g, Input)]
    lines = []
    if inputs:
        lines.append("INPUTS " + " ".join(inputs))
    for i, gate in enumerate(c.gates):
        name = c.wire_names[i]
        match gate:
            case Input(_):
                continue
            case Const(bit):
                lines.append(f"{name} = {'TRUE' if bit else 'FALSE'}")
            case And(a, b):
                lines.append(f"{name} = AND {c.wire_names[a]} {c.wire_names[b]}")
            case Or(a, b):
                lines.append(f"{name} = OR {c.wire_names[a]} {c.wire_names[b]}")
            case Not(a):
                lines.append(f"{name} = NOT {c.wire_names[a]}")
    lines.append(f"OUTPUT {c.wire_names[c.output]}")
    return "\n".join(lines) + "\n"


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


def logic_gate_count(c: Circuit) -> int:
    """Number of AND/OR/NOT gates (inputs and constants excluded)."""
    return sum(isinstance(g, (And, Or, Not)) for g in c.gates)


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
