"""Encrypted circuit simulation and the two interaction protocols.

An encrypted simulation is the plain computation run in the ciphertext
group, with the trapdoor used only to decrypt.  An encrypted program
replaces every instruction element of a group program by a random
encryption under a general public key; the plain selected-product loop
evaluates it over words, and decrypting the result reveals target**B(x).
A circuit of group operations runs through one step interpreter, over H
or over words with each constant encrypted afresh.

Both protocols run in-process as role objects that exchange the exact
serialized texts the CLI writes, so the transcripts are wire-ready:

* *evaluating an encrypted circuit*: Alice owns the keys and a secret
  boolean circuit, Bob owns the input bits;
* *evaluating at an encrypted input*: Alice owns a secret tuple of group
  elements, Bob owns a secret circuit of group operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import Error, FormatError, header, ints, records
from .groupcore import FiniteGroup, GroupElement
from .circuit import ArityMismatch, Circuit
from .barrington import GroupProgram, _selected_product, compile_barrington
from .freeprod import GWord, empty_word, format_gword, g_inverse, g_multiply, parse_gword
from .general import (
    GeneralCiphertext,
    GeneralPublicKey,
    GeneralSecretKey,
    _encrypt_words,
    decrypt_general,
    decrypt_general_text,
    encrypt_general,
)

__all__ = [
    "GroupMismatch",
    "UnexpectedValue",
    "EncryptedProgram",
    "encrypt_program",
    "eval_encrypted",
    "decrypt_output",
    "GInput",
    "GConst",
    "GMul",
    "GInv",
    "GroupCircuit",
    "eval_group_circuit",
    "parse_group_circuit",
    "Transcript",
    "format_transcript",
    "format_encrypted_program",
    "parse_encrypted_program",
    "CircuitAlice",
    "CircuitBob",
    "protocol_encrypted_circuit",
    "InputAlice",
    "InputBob",
    "protocol_encrypted_input",
]


class GroupMismatch(Error):
    """Program/circuit group differs from the key's plaintext group."""


class UnexpectedValue(Error):
    """A program's output is neither the identity nor the expected target."""


# ---------------------------------------------------------------------------
# encrypted programs

@dataclass(frozen=True)
class EncryptedProgram:
    """Group program with each instruction element replaced by a ciphertext
    word; the target stays public in H."""

    pk: GeneralPublicKey
    instructions: tuple[tuple[GWord, int], ...]
    target: int
    input_count: int

    def __len__(self) -> int:
        return len(self.instructions)


def encrypt_program(pk: GeneralPublicKey, p: GroupProgram, rng: random.Random, *,
                    phi_steps: int | None = None,
                    psi_length: int | None = None) -> EncryptedProgram:
    """Encrypt each instruction element independently: the words and the
    rng state of one ``encrypt_general`` per instruction, in order, from
    one ``general._encrypt_words`` call, at one modular inverse per factor
    for the whole program."""
    if p.group is not pk.group:
        raise GroupMismatch("program group differs from the key group")
    elements = [pk.group.element(element) for element, _ in p.instructions]
    words = _encrypt_words(pk, elements, rng, phi_steps, psi_length)
    instructions = tuple(zip(words, (var for _, var in p.instructions)))
    return EncryptedProgram(pk=pk, instructions=instructions,
                            target=p.target, input_count=p.input_count)


def eval_encrypted(ep: EncryptedProgram, bits) -> GeneralCiphertext:
    """Public evaluation: product of the selected ciphertext words."""
    return GeneralCiphertext(
        _selected_product(ep, bits, g_multiply, empty_word(ep.pk.family)))


def _output_bit(h: GroupElement, target: GroupElement) -> int:
    if h.index == target.index:
        return 1
    if h.index == h.group.identity:
        return 0
    raise UnexpectedValue(
        f"output {h.label!r} is neither the identity nor the target {target.label!r}")


def decrypt_output(sk: GeneralSecretKey, pk: GeneralPublicKey,
                   g: GeneralCiphertext, target: GroupElement) -> int:
    """1 when g decrypts to the target, 0 on the identity, error otherwise."""
    return _output_bit(decrypt_general(sk, pk, g), target)


def format_encrypted_program(ep: EncryptedProgram) -> str:
    lines = [f"EPROG v1 {ep.input_count} {ep.target}"]
    for word, var in ep.instructions:
        lines.append(f"{var} {format_gword(word)}")
    return "\n".join(lines) + "\n"


def parse_encrypted_program(text: str, pk: GeneralPublicKey) -> EncryptedProgram:
    lines = records(text)
    input_count, target = ints(header(lines, "EPROG v1", 2),
                               "encrypted program header fields")
    if input_count < 0:
        raise FormatError(f"input count {input_count} is negative")
    if not 0 < target < pk.group.order:
        raise FormatError(f"target {target} out of range")
    instructions = []
    for line in lines[1:]:
        var_str, *word = line.split(None, 1)
        (var,) = ints([var_str], f"instruction variable {var_str!r}")
        if not 0 <= var <= input_count:
            raise FormatError(f"variable {var} out of range")
        instructions.append((parse_gword("".join(word), pk.family), var))
    return EncryptedProgram(pk=pk, instructions=tuple(instructions),
                            target=target, input_count=input_count)


# ---------------------------------------------------------------------------
# circuits of group operations

@dataclass(frozen=True)
class GInput:
    index: int


@dataclass(frozen=True)
class GConst:
    value: int  # element index in H


@dataclass(frozen=True)
class GMul:
    a: int
    b: int


@dataclass(frozen=True)
class GInv:
    a: int


@dataclass(frozen=True)
class GroupCircuit:
    """A straight-line sequence of group operations with n inputs."""

    input_count: int
    steps: tuple
    output: int


# The most letters a word of Bob's group circuit may have.  Each MUL line
# can double a word, so a short text asks for exponential work; a product
# of two words within the cap has at most twice its letters.
WORD_CAP = 1 << 16


def _run_steps(circ: GroupCircuit, inputs, const, mul, inv):
    """Run the steps of circ on ``inputs`` and return the output value:
    ``const(index)`` gives a constant's value, ``mul`` and ``inv`` the
    operations.  Values are elements of H or ciphertext words alike."""
    if len(inputs) != circ.input_count:
        raise ArityMismatch(
            f"expected {circ.input_count} inputs, got {len(inputs)}")
    values = []
    for step in circ.steps:
        match step:
            case GInput(index):
                values.append(inputs[index])
            case GConst(value):
                values.append(const(value))
            case GMul(a, b):
                values.append(mul(values[a], values[b]))
            case GInv(a):
                values.append(inv(values[a]))
            case _:
                raise Error(f"unhandled step {step!r}")
    return values[circ.output]


def eval_group_circuit(circ: GroupCircuit, inputs, H: FiniteGroup) -> GroupElement:
    """Evaluate in H on a tuple of GroupElements."""
    if any(el.group is not H for el in inputs):
        raise GroupMismatch("input element from a different group")
    indices = [el.index for el in inputs]
    return H.element(_run_steps(circ, indices, int, H.mul, H.inverse))


def parse_group_circuit(text: str, H: FiniteGroup) -> GroupCircuit:
    lines = records(text)
    header(lines, "GCIRC v1")
    inputs = lines[1].split() if len(lines) > 1 else []
    if inputs[:1] != ["INPUTS"]:
        raise FormatError("missing INPUTS line")
    input_names = inputs[1:]
    steps: list = []
    table: dict[str, int] = {}
    for k, name in enumerate(input_names):
        if name in table:
            raise FormatError(f"input {name!r} repeated")
        table[name] = len(steps)
        steps.append(GInput(k))
    output = None
    for line in lines[2:]:
        if output is not None:
            raise FormatError("content after OUTPUT")
        tokens = line.split()
        if tokens[0] == "OUTPUT":
            if len(tokens) != 2 or tokens[1] not in table:
                raise FormatError(f"bad OUTPUT line {line!r}")
            output = table[tokens[1]]
            continue
        if len(tokens) < 3 or tokens[1] != "=":
            raise FormatError(f"bad statement {line!r}")
        name, op, args = tokens[0], tokens[2], tokens[3:]
        if name in table:
            raise FormatError(f"wire {name!r} redefined")
        if op == "MUL":
            if len(args) != 2 or any(a not in table for a in args):
                raise FormatError(f"bad MUL statement {line!r}")
            steps.append(GMul(table[args[0]], table[args[1]]))
        elif op == "INV":
            if len(args) != 1 or args[0] not in table:
                raise FormatError(f"bad INV statement {line!r}")
            steps.append(GInv(table[args[0]]))
        elif op == "CONST":
            # labels may contain spaces (cycle notation), keep the rest whole
            token = " ".join(args)
            if not token:
                raise FormatError(f"bad CONST statement {line!r}")
            try:
                (index,) = ints([token], "constant")
            except FormatError:
                try:
                    index = H.element_by_label(token).index
                except ValueError:
                    raise FormatError(f"unknown constant {token!r}") from None
            if not 0 <= index < H.order:
                raise FormatError(f"constant {token!r} out of range")
            steps.append(GConst(index))
        else:
            raise FormatError(f"unknown operation {op!r}")
        table[name] = len(steps) - 1
    if output is None:
        raise FormatError("missing OUTPUT line")
    return GroupCircuit(input_count=len(input_names), steps=tuple(steps),
                        output=output)


# ---------------------------------------------------------------------------
# transcripts and protocols

@dataclass(frozen=True)
class Transcript:
    """Ordered protocol messages: (role, kind, payload text)."""

    entries: tuple[tuple[str, str, str], ...]


def format_transcript(t: Transcript) -> str:
    lines = ["TRANSCRIPT v1"]
    for role, kind, payload in t.entries:
        lines.append(f"MSG {role} {kind}")
        lines.extend(payload.rstrip("\n").splitlines())
        lines.append("END")
    return "\n".join(lines) + "\n"


class CircuitAlice:
    """Key owner in the encrypted-circuit protocol; keeps the circuit secret."""

    def __init__(self, sk: GeneralSecretKey, pk: GeneralPublicKey,
                 circuit: Circuit, rng: random.Random, *,
                 phi_steps: int | None = None, psi_length: int | None = None):
        self.sk, self.pk, self.circuit, self.rng = sk, pk, circuit, rng
        self.phi_steps, self.psi_length = phi_steps, psi_length
        self._target: GroupElement | None = None

    def program_message(self) -> str:
        program = compile_barrington(self.circuit, self.pk.group)
        self._target = self.pk.group.element(program.target)
        encrypted = encrypt_program(self.pk, program, self.rng,
                                    phi_steps=self.phi_steps,
                                    psi_length=self.psi_length)
        return format_encrypted_program(encrypted)

    def result_message(self, word_text: str) -> tuple[str, int]:
        if self._target is None:
            raise Error("result requested before the program was sent")
        h = decrypt_general_text(self.sk, self.pk, word_text)
        bit = _output_bit(h, self._target)
        return f"bit: {bit}\nfg: {h.index}\n", bit


class CircuitBob:
    """Input owner in the encrypted-circuit protocol; sees only public data."""

    def __init__(self, pk: GeneralPublicKey, bits):
        self.pk = pk
        self.bits = tuple(1 if b else 0 for b in bits)

    def evaluation_message(self, program_text: str) -> str:
        ep = parse_encrypted_program(program_text, self.pk)
        return format_gword(eval_encrypted(ep, self.bits).word) + "\n"


def protocol_encrypted_circuit(alice: CircuitAlice, bob: CircuitBob
                               ) -> tuple[int, Transcript]:
    """Run the three-message encrypted-circuit protocol; returns
    (bit, transcript) where bit equals the circuit value on Bob's input."""
    msg1 = alice.program_message()
    msg2 = bob.evaluation_message(msg1)
    msg3, bit = alice.result_message(msg2)
    transcript = Transcript((
        ("alice", "program", msg1),
        ("bob", "word", msg2),
        ("alice", "result", msg3),
    ))
    return bit, transcript


class InputAlice:
    """Input owner in the encrypted-input protocol."""

    def __init__(self, sk: GeneralSecretKey, pk: GeneralPublicKey,
                 inputs, rng: random.Random, *,
                 phi_steps: int | None = None, psi_length: int | None = None):
        self.sk, self.pk, self.rng = sk, pk, rng
        self.inputs = tuple(inputs)
        self.phi_steps, self.psi_length = phi_steps, psi_length

    def inputs_message(self) -> str:
        """One word per input, as ``encrypt_general`` would draw them in
        turn, from one ``general._encrypt_words`` call."""
        words = _encrypt_words(self.pk, self.inputs, self.rng,
                               self.phi_steps, self.psi_length)
        return "\n".join(map(format_gword, words)) + "\n"

    def decrypt_message(self, word_text: str) -> tuple[str, GroupElement]:
        h = decrypt_general_text(self.sk, self.pk, word_text)
        return f"element: {h.index}\n", h


class InputBob:
    """Circuit owner in the encrypted-input protocol; sees only public data."""

    def __init__(self, pk: GeneralPublicKey, circ: GroupCircuit,
                 rng: random.Random, *,
                 phi_steps: int | None = None, psi_length: int | None = None):
        self.pk, self.circ, self.rng = pk, circ, rng
        self.phi_steps, self.psi_length = phi_steps, psi_length

    def evaluation_message(self, inputs_text: str) -> str:
        """Bob's circuit over Alice's words, constants encrypted in step order;
        Error as soon as a product passes ``WORD_CAP`` letters."""
        pk = self.pk
        words = [parse_gword(line, pk.family)
                 for line in inputs_text.strip().splitlines()]

        def const(index: int) -> GWord:
            return encrypt_general(pk, pk.group.element(index), self.rng,
                                   phi_steps=self.phi_steps,
                                   psi_length=self.psi_length).word

        def mul(u: GWord, v: GWord) -> GWord:
            product = g_multiply(u, v)
            if len(product) > WORD_CAP:
                raise Error(f"group circuit word passes {WORD_CAP} letters")
            return product

        result = _run_steps(self.circ, words, const, mul, g_inverse)
        return format_gword(result) + "\n"


def protocol_encrypted_input(alice: InputAlice, bob: InputBob
                             ) -> tuple[GroupElement, Transcript]:
    """Run the encrypted-input protocol; returns (element, transcript) where
    the element is Bob's circuit evaluated on Alice's plain inputs."""
    msg1 = alice.inputs_message()
    msg2 = bob.evaluation_message(msg1)
    msg3, element = alice.decrypt_message(msg2)
    transcript = Transcript((
        ("alice", "inputs", msg1),
        ("bob", "word", msg2),
        ("alice", "element", msg3),
    ))
    return element, transcript
