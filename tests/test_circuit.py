import itertools
from pathlib import Path

import pytest

from ghcrypt.circuit import (
    And,
    ArityMismatch,
    CircuitSyntaxError,
    Const,
    DuplicateWire,
    Input,
    NoOutput,
    Not,
    Or,
    UndefinedWire,
    circuit_depth,
    eval_circuit,
    parse_circuit,
)

DATA = Path(__file__).parent / "data"

# independent truth functions for every fixture circuit
TRUTH = {
    "identity.bc": lambda x: x[0],
    "not1.bc": lambda x: 1 - x[0],
    "and2.bc": lambda x: x[0] & x[1],
    "or2.bc": lambda x: x[0] | x[1],
    "nand2.bc": lambda x: 1 - (x[0] & x[1]),
    "xor2.bc": lambda x: x[0] ^ x[1],
    "maj3.bc": lambda x: 1 if sum(x) >= 2 else 0,
    "mux3.bc": lambda x: x[1] if x[0] else x[2],
    "and4.bc": lambda x: int(all(x)),
    "or4.bc": lambda x: int(any(x)),
    "th2of4.bc": lambda x: 1 if sum(x) >= 2 else 0,
    "and8.bc": lambda x: int(all(x)),
    "const_true.bc": lambda x: 1,
    "const_mix.bc": lambda x: x[0] & x[1],
}

DEPTHS = {
    "identity.bc": 0,
    "not1.bc": 1,
    "and2.bc": 1,
    "or2.bc": 1,
    "nand2.bc": 2,
    "xor2.bc": 3,
    "maj3.bc": 3,
    "mux3.bc": 3,
    "and4.bc": 2,
    "or4.bc": 2,
    "th2of4.bc": 4,
    "and8.bc": 3,
    "const_true.bc": 1,
    "const_mix.bc": 2,
}


def fixture(name):
    return parse_circuit((DATA / name).read_text())


def logic_gate_count(c):
    """Number of AND/OR/NOT gates (inputs and constants excluded)."""
    return sum(isinstance(g, (And, Or, Not)) for g in c.gates)


def reference_text(c):
    """Circuit text for a gate list, wire i named w<i>."""
    inputs = [f"w{i}" for i, g in enumerate(c.gates) if isinstance(g, Input)]
    lines = ["INPUTS " + " ".join(inputs)] if inputs else []
    for i, gate in enumerate(c.gates):
        match gate:
            case Const(bit):
                lines.append(f"w{i} = {'TRUE' if bit else 'FALSE'}")
            case And(a, b) | Or(a, b):
                lines.append(f"w{i} = {type(gate).__name__.upper()} w{a} w{b}")
            case Not(a):
                lines.append(f"w{i} = NOT w{a}")
    return "\n".join(lines + [f"OUTPUT w{c.output}"]) + "\n"


class TestParsing:
    def test_identity(self):
        c = parse_circuit("INPUTS x1\nOUTPUT x1\n")
        assert c.input_count == 1
        assert circuit_depth(c) == 0
        assert logic_gate_count(c) == 0

    def test_maj3_gate_count(self):
        assert logic_gate_count(fixture("maj3.bc")) == 5

    def test_comments_and_blanks(self):
        c = parse_circuit("# a\nINPUTS x1  # inputs\n\nw = NOT x1\nOUTPUT w\n")
        assert logic_gate_count(c) == 1

    def test_undefined_wire(self):
        with pytest.raises(UndefinedWire):
            parse_circuit("OUTPUT y\n")
        with pytest.raises(UndefinedWire):
            parse_circuit("INPUTS x1\nw = AND x1 zz\nOUTPUT w\n")

    def test_duplicate_wire(self):
        with pytest.raises(DuplicateWire):
            parse_circuit("INPUTS x1 x1\nOUTPUT x1\n")
        with pytest.raises(DuplicateWire):
            parse_circuit("INPUTS x1\nx1 = TRUE\nOUTPUT x1\n")

    def test_no_output(self):
        with pytest.raises(NoOutput):
            parse_circuit("INPUTS x1\nw = NOT x1\n")

    def test_syntax_errors_carry_position(self):
        with pytest.raises(CircuitSyntaxError) as info:
            parse_circuit("INPUTS x1\nw = XAND x1 x1\nOUTPUT w\n")
        assert info.value.line == 2
        # columns come from token offsets, not from the first substring match
        with pytest.raises(CircuitSyntaxError) as info:
            parse_circuit("INPUTS x S\nOUTPUT x\n")
        assert (info.value.line, info.value.column) == (1, 10)
        with pytest.raises(CircuitSyntaxError) as info:
            parse_circuit("INPUTS a\nfo = fo a\nOUTPUT fo\n")
        assert (info.value.line, info.value.column) == (2, 6)
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("INPUTS x1\nw = AND x1\nOUTPUT w\n")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("INPUTS X1\nOUTPUT X1\n")  # uppercase identifier
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("INPUTS x1\nOUTPUT x1\nw = TRUE\n")

    def test_gate_structure(self):
        c = fixture("xor2.bc")
        kinds = [type(g) for g in c.gates]
        assert kinds == [Input, Input, Not, Not, And, And, Or]


class TestPrinter:
    """The gate list does not depend on wire names or layout: each fixture
    printed by ``reference_text`` parses back to its own gates."""

    @pytest.mark.parametrize("name", sorted(TRUTH))
    def test_roundtrip_gate_lists(self, name):
        c = fixture(name)
        again = parse_circuit(reference_text(c))
        assert again.gates == c.gates
        assert again.output == c.output


class TestDepth:
    @pytest.mark.parametrize("name", sorted(DEPTHS))
    def test_fixture_depths(self, name):
        assert circuit_depth(fixture(name)) == DEPTHS[name]

    def test_single_and(self):
        assert circuit_depth(parse_circuit(
            "INPUTS x1 x2\nw = AND x1 x2\nOUTPUT w\n")) == 1


class TestEval:
    @pytest.mark.parametrize("name", sorted(TRUTH))
    def test_full_truth_tables(self, name):
        c = fixture(name)
        truth = TRUTH[name]
        for bits in itertools.product((0, 1), repeat=c.input_count):
            assert eval_circuit(c, bits) == truth(bits), (name, bits)

    def test_examples(self):
        ident = parse_circuit("INPUTS x1\nOUTPUT x1\n")
        assert eval_circuit(ident, (1,)) == 1
        and2 = fixture("and2.bc")
        assert eval_circuit(and2, (1, 0)) == 0
        assert eval_circuit(fixture("maj3.bc"), (1, 1, 0)) == 1

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            eval_circuit(fixture("and2.bc"), (1,))
