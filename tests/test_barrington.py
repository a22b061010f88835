import itertools
import random
import time
from pathlib import Path

import pytest

from ghcrypt.circuit import (And, ArityMismatch, Circuit, Const, Not, Or, circuit_depth,
                             eval_circuit, parse_circuit)
from ghcrypt.errors import Error, FormatError
from ghcrypt.barrington import (
    DEPTH_CAP,
    SIZE_BASE,
    DepthExceeded,
    GroupProgram,
    NoCommutatorPair,
    SolvableGroup,
    compile_barrington,
    eval_program,
    find_commutator_pair,
    format_program,
    parse_program,
)
from ghcrypt.groupcore import TooLarge, cyclic_group, sym

DATA = Path(__file__).parent / "data"

FIXTURES = ["identity.bc", "not1.bc", "and2.bc", "or2.bc", "nand2.bc",
            "xor2.bc", "maj3.bc", "mux3.bc", "and4.bc", "or4.bc",
            "th2of4.bc", "and8.bc", "const_true.bc", "const_mix.bc"]


def fixture(name):
    return parse_circuit((DATA / name).read_text())


def exact_simulation(circuit, program):
    """Truth-table oracle: the program realizes target**B(x) everywhere."""
    H = program.group
    for bits in itertools.product((0, 1), repeat=circuit.input_count):
        want = program.target if eval_circuit(circuit, bits) else H.identity
        got = eval_program(program, bits)
        if got.index != want:
            return False
    return True


class TestCommutatorPair:
    def test_sym5_pair_is_valid(self):
        H = sym(5)
        a, b = find_commutator_pair(H)
        assert H.order_of(a.index) == 5 and H.order_of(b.index) == 5
        assert H.order_of((a * b * a.inverse() * b.inverse()).index) == 5

    def test_deterministic(self):
        p1 = find_commutator_pair(sym(5))
        p2 = find_commutator_pair(sym(5))
        assert (p1[0].index, p1[1].index) == (p2[0].index, p2[1].index)

    def test_sym3_has_none(self):
        with pytest.raises(NoCommutatorPair):
            find_commutator_pair(sym(3))

    def test_abelian_has_none(self):
        with pytest.raises(NoCommutatorPair):
            find_commutator_pair(cyclic_group(10))


class TestCompile:
    def test_solvable_group_rejected(self):
        with pytest.raises(SolvableGroup):
            compile_barrington(fixture("identity.bc"), sym(4))

    def test_identity_circuit(self):
        p = compile_barrington(fixture("identity.bc"), sym(5))
        assert len(p) == 1
        assert p.instructions[0][1] == 0
        assert p.instructions[0][0] == p.target

    def test_and_exhaustive(self):
        c = fixture("and2.bc")
        p = compile_barrington(c, sym(5))
        assert len(p) <= 4
        assert exact_simulation(c, p)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_corpus_exact_and_bounded(self, name):
        c = fixture(name)
        p = compile_barrington(c, sym(5))
        assert exact_simulation(c, p), name
        assert len(p) <= SIZE_BASE * 4 ** circuit_depth(c), name
        assert p.target != p.group.identity

    def test_depth_cap(self):
        with pytest.raises(DepthExceeded):
            compile_barrington(not_chain(DEPTH_CAP + 1), sym(5))
        # an even number of NOTs compacts to the identity's one instruction
        assert len(compile_barrington(not_chain(DEPTH_CAP), sym(5))) == 1

    def test_build_cap(self):
        # a balanced depth-7 OR tree builds 86,615 instructions before
        # compaction; depth 12 would build 44.7M, and raises before building
        assert len(compile_barrington(balanced_tree(7, "OR"), sym(5))) == 4 ** 7
        start = time.perf_counter()
        with pytest.raises(Error, match="before compaction"):
            compile_barrington(balanced_tree(12, "AND", "OR"), sym(5))
        assert time.perf_counter() - start < 1
        # only the output's cone is built, so a tree that does not reach the
        # output costs nothing and leaves the one input instruction
        deep = balanced_tree_text(8, "OR").replace("OUTPUT g255", "OUTPUT x0")
        assert deep.endswith("OUTPUT x0\n")
        program = compile_barrington(parse_circuit(deep), sym(5))
        assert program.instructions == ((program.target, 0),)

    def test_recoding_soundness(self):
        # conjugating all instructions and the target by a fixed element
        # preserves the simulation
        c = fixture("maj3.bc")
        p = compile_barrington(c, sym(5))
        H = p.group
        rng = random.Random(12)
        for _ in range(50):
            t = rng.randrange(H.order)
            ti = H.inverse(t)
            conj = GroupProgram(
                group=H,
                instructions=tuple((H.mul(H.mul(t, el), ti), var)
                                   for el, var in p.instructions),
                target=H.mul(H.mul(t, p.target), ti),
                input_count=p.input_count)
            assert exact_simulation(c, conj)


def not_chain(depth):
    gates = "".join(f"w{i + 1} = NOT w{i}\n" for i in range(depth))
    return parse_circuit(f"INPUTS w0\n{gates}OUTPUT w{depth}\n")


def balanced_tree_text(depth, *ops):
    """A balanced tree of 2**depth inputs whose level k from the inputs
    takes the gate ``ops[k % len(ops)]``; its output is g(2**depth - 1)."""
    level = [f"x{k}" for k in range(2 ** depth)]
    lines = ["INPUTS " + " ".join(level)]
    for k in range(depth):
        names = [f"g{len(lines) + j}" for j in range(len(level) // 2)]
        lines += [f"{name} = {ops[k % len(ops)]} {a} {b}"
                  for name, a, b in zip(names, level[::2], level[1::2])]
        level = names
    return "\n".join(lines + [f"OUTPUT {level[0]}"]) + "\n"


def balanced_tree(depth, *ops):
    return parse_circuit(balanced_tree_text(depth, *ops))


def or_and_chain(inputs):
    """OR/AND gates alternating along a chain of ``inputs`` inputs."""
    names = [f"x{k}" for k in range(1, inputs + 1)]
    lines = ["INPUTS " + " ".join(names)]
    acc, op = names[0], "OR"
    for k, name in enumerate(names[1:], start=1):
        lines.append(f"g{k} = {op} {acc} {name}")
        acc, op = f"g{k}", "AND" if op == "OR" else "OR"
    return parse_circuit("\n".join(lines + [f"OUTPUT {acc}"]) + "\n")


class TestCompaction:
    @pytest.mark.parametrize(
        "circuit", [fixture(name) for name in FIXTURES]
        + [not_chain(d) for d in range(DEPTH_CAP + 1)],
        ids=FIXTURES + [f"not{d}" for d in range(DEPTH_CAP + 1)])
    def test_compact_form(self, circuit):
        p = compile_barrington(circuit, sym(5))
        assert exact_simulation(circuit, p)
        elements = [el for el, _ in p.instructions]
        variables = [var for _, var in p.instructions]
        assert p.group.identity not in elements
        assert all(a != b for a, b in zip(variables, variables[1:]))
        pseudo = [j for j, var in enumerate(variables) if var == circuit.input_count]
        assert pseudo in ([], [len(p) - 1])

    @pytest.mark.parametrize("circuit, size", [
        (or_and_chain(6), 94), (or_and_chain(9), 766), (fixture("maj3.bc"), 40),
        (fixture("th2of4.bc"), 160), (fixture("or4.bc"), 16)],
        ids=["chain6", "chain9", "maj3", "th2of4", "or4"])
    def test_sizes(self, circuit, size):
        assert len(compile_barrington(circuit, sym(5))) == size


class TestEval:
    def test_all_skip(self):
        p = compile_barrington(fixture("and2.bc"), sym(5))
        assert eval_program(p, (0, 0)).index == 0

    def test_identity_program_select(self):
        p = compile_barrington(fixture("identity.bc"), sym(5))
        assert eval_program(p, (1,)).index == p.target

    def test_arity(self):
        p = compile_barrington(fixture("and2.bc"), sym(5))
        with pytest.raises(ArityMismatch):
            eval_program(p, (1,))


class TestProgramFiles:
    def test_roundtrip(self):
        p = compile_barrington(fixture("maj3.bc"), sym(5))
        text = format_program(p)
        assert text.startswith("GPROG v1 sym5 3 ")
        q = parse_program(text)
        assert q.instructions == p.instructions
        assert q.target == p.target
        assert q.input_count == p.input_count

    def test_bad_files(self):
        with pytest.raises(FormatError):
            parse_program("")
        with pytest.raises(FormatError):
            parse_program("GPROG v1 nosuch 2 1\n0 0\n")
        with pytest.raises(FormatError):
            parse_program("GPROG v1 sym5 2 0\n")  # identity target
        with pytest.raises(FormatError):
            parse_program("GPROG v1 sym5 2 1\n0 5\n")  # variable out of range
        with pytest.raises(FormatError):
            parse_program("GPROG v1 sym5 -1 5\n")  # negative input count
        with pytest.raises(FormatError):
            parse_program("GPROG v1 sym0 2 1\n")  # no group of order 0
        with pytest.raises(TooLarge):
            parse_program("GPROG v1 z20000 1 1\n")  # beyond the table guard


def blind_twin(circuit):
    """The same formula with every OR turned into AND and every NOT removed
    (a NOT's wire stands for its operand)."""
    gates, where = [], []
    for gate in circuit.gates:
        match gate:
            case Not(a):
                where.append(where[a])
                continue
            case And(a, b) | Or(a, b):
                gate = And(where[a], where[b])
        where.append(len(gates))
        gates.append(gate)
    return Circuit(circuit.input_count, tuple(gates), where[circuit.output])


def variables(circuit):
    """The public part of a compiled instruction: its variable index."""
    return tuple(v for _, v in compile_barrington(circuit, sym(5)).instructions)


class TestVariableSequenceAudit:
    """An encrypted program hides its elements but not its variable indices.
    Over Sym(5) the indices show the formula's read order and, through a
    trailing instruction on the always-true input, that its output is
    negated; which gates are AND or OR, and the inner NOTs, they do not."""

    @pytest.mark.parametrize("name", [f for f in FIXTURES if not f.startswith("const")])
    def test_blind_twin_reads_the_same_variables(self, name):
        circuit = fixture(name)
        assert not any(isinstance(g, Const) for g in circuit.gates)
        got, twin = variables(circuit), variables(blind_twin(circuit))
        pseudo = circuit.input_count
        assert got == twin or got == twin + (pseudo,), (got, twin)
        # the always-true input appears only as the trailing instruction
        assert pseudo not in got[:-1] and pseudo not in twin
        assert (got != twin) == (name in ("nand2.bc", "not1.bc"))

    def test_negated_output_shows(self):
        assert blind_twin(fixture("nand2.bc")) == fixture("and2.bc")
        assert variables(fixture("and2.bc")) == (0, 1, 0, 1)
        assert variables(fixture("nand2.bc")) == (0, 1, 0, 1, 2)
        assert blind_twin(fixture("not1.bc")) == fixture("identity.bc")
        assert variables(fixture("identity.bc")) == (0,)
        assert variables(fixture("not1.bc")) == (0, 1)
