"""Compile boolean circuits into group programs over an unsolvable group.

A group program is a word of (element, variable) instructions; on an
assignment x it evaluates to the product of the elements whose variable is
set, and a correct program for a circuit B yields target**B(x) for every
x.  The classic construction: inputs become single instructions on a fixed
5-cycle, AND is the commutator of recoded subprograms (recoding = conjugate
every instruction and the target), NOT appends the inverted target and
retargets, OR is NOT-AND-NOT.  Instructions that do not depend on any
input reference a reserved always-true pseudo-variable with index equal to
the circuit's input count.

A last pass compacts the program: it moves every constant instruction to
the end by conjugation, merges neighbours on the same variable and drops
identities, so constants compile to at most one trailing instruction and
a NOT costs no instruction of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Error, FormatError, header, ints, records
from .groupcore import FiniteGroup, GroupElement, builtin_group, is_solvable
from .circuit import And, ArityMismatch, Circuit, Const, Input, Not, Or, circuit_depth

__all__ = [
    "SolvableGroup",
    "NoCommutatorPair",
    "DepthExceeded",
    "GroupProgram",
    "find_commutator_pair",
    "compile_barrington",
    "eval_program",
    "format_program",
    "parse_program",
    "SIZE_BASE",
    "DEPTH_CAP",
]

# compiled size is asserted against SIZE_BASE * 4**depth
SIZE_BASE = 3
# deeper circuits are rejected (DepthExceeded) before any instruction is built
DEPTH_CAP = 12


class SolvableGroup(Error):
    """The construction needs an unsolvable group."""


class NoCommutatorPair(Error):
    """No usable pair of order-5 elements with an order-5 commutator."""


class DepthExceeded(Error):
    """Circuit depth exceeds DEPTH_CAP."""


@dataclass(frozen=True)
class GroupProgram:
    """Instruction word: ``instructions[j] = (element index, variable index)``.

    Variable indices below ``input_count`` select assignment bits; the
    index equal to ``input_count`` is the reserved always-true input.
    """

    group: FiniteGroup
    instructions: tuple[tuple[int, int], ...]
    target: int
    input_count: int

    def __len__(self) -> int:
        return len(self.instructions)


def _selected_product(p, bits, mul, identity):
    """Left-to-right ``mul`` product, from ``identity``, of the instruction
    values selected by bits; ``p`` is a plain or an encrypted program."""
    if len(bits) != p.input_count:
        raise ArityMismatch(
            f"expected {p.input_count} input bits, got {len(bits)}")
    extended = tuple(1 if b else 0 for b in bits) + (1,)
    acc = identity
    for value, var in p.instructions:
        if extended[var]:
            acc = mul(acc, value)
    return acc


def eval_program(p: GroupProgram, bits) -> GroupElement:
    """Left-to-right product of the instruction elements selected by bits."""
    G = p.group
    return G.element(_selected_product(p, bits, G.mul, G.identity))


def find_commutator_pair(H: FiniteGroup) -> tuple[GroupElement, GroupElement]:
    """First pair (by element index) of order-5 elements whose commutator
    also has order 5."""
    fives = [i for i in range(1, H.order) if H.order_of(i) == 5]
    for a in fives:
        ia = H.inverse(a)
        for b in fives:
            comm = H.mul(H.mul(a, b), H.mul(ia, H.inverse(b)))
            if comm != H.identity and H.order_of(comm) == 5:
                return H.element(a), H.element(b)
    raise NoCommutatorPair(
        f"{H.name} has no order-5 pair with an order-5 commutator")


def _conjugator(H: FiniteGroup, src: int, dst: int, cache: dict) -> int:
    """Some c with c * src * c^-1 = dst, searched by element index."""
    key = (src, dst)
    if key not in cache:
        for c in range(H.order):
            if H.mul(H.mul(c, src), H.inverse(c)) == dst:
                cache[key] = c
                break
        else:
            raise NoCommutatorPair(
                f"elements {src} and {dst} are not conjugate in {H.name}")
    return cache[key]


def _recode(H: FiniteGroup, instrs, src: int, dst: int, cache: dict):
    """Conjugate a program so its target moves from src to dst."""
    if src == dst:
        return instrs
    c = _conjugator(H, src, dst, cache)
    ci = H.inverse(c)
    return tuple((H.mul(H.mul(c, el), ci), var) for el, var in instrs)


def compile_barrington(c: Circuit, H: FiniteGroup) -> GroupProgram:
    """Compile a circuit into a group program with target a fixed 5-cycle.

    Program size is bounded by SIZE_BASE * 4**depth(c); depths beyond
    DEPTH_CAP are rejected rather than silently truncated.
    """
    if is_solvable(H):
        raise SolvableGroup(f"{H.name} is solvable")
    depth = circuit_depth(c)
    if depth > DEPTH_CAP:
        raise DepthExceeded(f"circuit depth {depth} exceeds cap {DEPTH_CAP}")
    sigma, tau = find_commutator_pair(H)
    alpha, beta = sigma.index, tau.index
    gamma = H.mul(H.mul(alpha, beta),
                  H.mul(H.inverse(alpha), H.inverse(beta)))
    cache: dict = {}
    # fail early if the gadget's conjugations are unavailable in H
    for dst in (alpha, beta, H.inverse(alpha), H.inverse(beta), H.inverse(gamma)):
        _conjugator(H, gamma, dst, cache)
    pseudo = c.input_count

    programs: list[tuple[tuple[int, int], ...]] = []
    for gate in c.gates:
        match gate:
            case Input(index):
                instrs: tuple = ((gamma, index),)
            case Const(bit):
                instrs = ((gamma, pseudo),) if bit else ()
            case Not(a):
                instrs = _not(H, programs[a], gamma, pseudo, cache)
            case And(a, b):
                instrs = _and(H, programs[a], programs[b], alpha, beta, gamma, cache)
            case Or(a, b):
                na = _not(H, programs[a], gamma, pseudo, cache)
                nb = _not(H, programs[b], gamma, pseudo, cache)
                both = _and(H, na, nb, alpha, beta, gamma, cache)
                instrs = _not(H, both, gamma, pseudo, cache)
            case _:
                raise Error(f"unhandled gate {gate!r}")
        programs.append(instrs)
    result = GroupProgram(group=H, instructions=_compact(H, programs[c.output], pseudo),
                          target=gamma, input_count=c.input_count)
    bound = SIZE_BASE * 4 ** depth
    if len(result) > bound:
        raise Error(f"compiled size {len(result)} exceeds bound {bound}")
    return result


def _not(H: FiniteGroup, instrs, gamma: int, pseudo: int, cache: dict):
    # append target^-1: evaluates to gamma^-1 on 0 and identity on 1,
    # i.e. a program for the negation with target gamma^-1; recode back.
    flipped = instrs + ((H.inverse(gamma), pseudo),)
    return _recode(H, flipped, H.inverse(gamma), gamma, cache)


def _and(H: FiniteGroup, left, right, alpha: int, beta: int, gamma: int, cache: dict):
    # commutator gadget: alpha^u beta^v alpha^-u beta^-v = gamma iff u = v = 1
    part1 = _recode(H, left, gamma, alpha, cache)
    part2 = _recode(H, right, gamma, beta, cache)
    part3 = _recode(H, left, gamma, H.inverse(alpha), cache)
    part4 = _recode(H, right, gamma, H.inverse(beta), cache)
    return part1 + part2 + part3 + part4


def _compact(H: FiniteGroup, instrs, pseudo: int):
    # Move every pseudo-variable instruction to the end by conjugation,
    # e * g^x = (e g e^-1)^x * e, merge neighbours on one variable,
    # g1^x g2^x = (g1 g2)^x, and drop identities; the product is unchanged
    # on every assignment.
    out: list[tuple[int, int]] = []
    e = H.identity
    for el, var in instrs:
        if var == pseudo:
            e = H.mul(e, el)
            continue
        el = H.mul(H.mul(e, el), H.inverse(e))
        if out and out[-1][1] == var:
            el = H.mul(out.pop()[0], el)
        if el != H.identity:
            out.append((el, var))
    if e != H.identity:
        out.append((e, pseudo))
    return tuple(out)


# ---------------------------------------------------------------------------
# program text format

def format_program(p: GroupProgram) -> str:
    """Header 'GPROG v1 <group> <inputs> <target>', one instruction per line."""
    if builtin_group(p.group.name) is None:
        raise FormatError("only builtin groups can be serialized in GPROG files")
    lines = [f"GPROG v1 {p.group.name} {p.input_count} {p.target}"]
    for element, var in p.instructions:
        lines.append(f"{element} {var}")
    return "\n".join(lines) + "\n"


def parse_program(text: str) -> GroupProgram:
    lines = records(text)
    name, *fields = header(lines, "GPROG v1", 3)
    group = builtin_group(name)
    if group is None:
        raise FormatError(f"unknown group {name!r}")
    input_count, target = ints(fields, "program header fields")
    if input_count < 0:
        raise FormatError(f"input count {input_count} is negative")
    if not 0 < target < group.order:
        raise FormatError(f"target {target} out of range")
    instructions = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"bad instruction line {line!r}")
        element, var = ints(parts, f"instruction line {line!r}")
        if not 0 <= element < group.order:
            raise FormatError(f"element {element} out of range")
        if not 0 <= var <= input_count:
            raise FormatError(f"variable {var} out of range")
        instructions.append((element, var))
    return GroupProgram(group=group, instructions=tuple(instructions),
                        target=target, input_count=input_count)
