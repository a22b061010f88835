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
from functools import reduce

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
    "BUILD_CAP",
]

# compiled size is asserted against SIZE_BASE * 4**depth
SIZE_BASE = 3
# deeper circuits are rejected (DepthExceeded) before any instruction is built
DEPTH_CAP = 12
# so are circuits whose output's cone builds more than this many
# instructions before compaction, summed over its gates (``_built_size``); a
# balanced depth-7 OR tree builds 86,615, 43,689 of them at its output
BUILD_CAP = 1 << 17


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


def _selected(p, bits) -> list:
    """The instruction values selected by bits, in program order; ``p`` is
    a plain or an encrypted program."""
    if len(bits) != p.input_count:
        raise ArityMismatch(
            f"expected {p.input_count} input bits, got {len(bits)}")
    extended = tuple(1 if b else 0 for b in bits) + (1,)
    return [value for value, var in p.instructions if extended[var]]


def eval_program(p: GroupProgram, bits) -> GroupElement:
    """Left-to-right product of the instruction elements selected by bits."""
    G = p.group
    return G.element(reduce(G.mul, _selected(p, bits), G.identity))


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


def _conjugator(H: FiniteGroup, src: int, dst: int) -> int:
    """The first c by element index with c * src * c^-1 = dst."""
    for c in range(H.order):
        if H.mul(H.mul(c, src), H.inverse(c)) == dst:
            return c
    raise NoCommutatorPair(f"elements {src} and {dst} are not conjugate in {H.name}")


def _recode(H: FiniteGroup, instrs, c: int):
    """Conjugate every instruction by c, so the target t becomes c t c^-1."""
    ci = H.inverse(c)
    return tuple((H.mul(H.mul(c, el), ci), var) for el, var in instrs)


def _cone(c: Circuit) -> list[int]:
    """The gates the output depends on, in circuit order, marked in one
    reverse pass; no other gate is sized or built."""
    used = [False] * (c.output + 1)
    used[c.output] = True
    for i in range(c.output, -1, -1):
        if used[i]:
            match c.gates[i]:
                case Not(a):
                    used[a] = True
                case And(a, b) | Or(a, b):
                    used[a] = used[b] = True
    return [i for i, u in enumerate(used) if u]


def _built_size(c: Circuit, cone: list[int]) -> int:
    """The instructions ``compile_barrington`` builds before compaction,
    summed over the output's cone, in one pass: input 1, constant 0 or 1,
    NOT a + 1, AND 2(a + b), and OR 2(a + b) + 5 through its NOT/AND
    form."""
    sizes = [0] * (c.output + 1)
    for i in cone:
        match c.gates[i]:
            case Input(_):
                size = 1
            case Const(bit):
                size = 1 if bit else 0
            case Not(a):
                size = sizes[a] + 1
            case And(a, b):
                size = 2 * (sizes[a] + sizes[b])
            case Or(a, b):
                size = 2 * (sizes[a] + sizes[b]) + 5
            case gate:
                raise Error(f"unhandled gate {gate!r}")
        sizes[i] = size
    return sum(sizes)


def compile_barrington(c: Circuit, H: FiniteGroup) -> GroupProgram:
    """Compile a circuit into a group program with target a fixed 5-cycle.

    Only the gates the output depends on are built, so a gate outside its
    cone costs nothing.  Program size is bounded by SIZE_BASE *
    4**depth(c).  Depths beyond DEPTH_CAP, and circuits whose output would
    build more than BUILD_CAP instructions before compaction, are rejected
    before any instruction is built rather than silently truncated.
    """
    if is_solvable(H):
        raise SolvableGroup(f"{H.name} is solvable")
    depth = circuit_depth(c)
    if depth > DEPTH_CAP:
        raise DepthExceeded(f"circuit depth {depth} exceeds cap {DEPTH_CAP}")
    cone = _cone(c)
    built = _built_size(c, cone)
    if built > BUILD_CAP:
        raise Error(f"circuit builds {built} instructions before compaction, "
                    f"more than the cap {BUILD_CAP}")
    sigma, tau = find_commutator_pair(H)
    alpha, beta = sigma.index, tau.index
    gamma = H.mul(H.mul(alpha, beta),
                  H.mul(H.inverse(alpha), H.inverse(beta)))
    # every recoding's conjugator, found before any instruction is built:
    # gamma to alpha, beta, alpha^-1, beta^-1 for AND, gamma^-1 to gamma
    # for NOT
    to_alpha, to_beta, to_ialpha, to_ibeta = (
        _conjugator(H, gamma, dst)
        for dst in (alpha, beta, H.inverse(alpha), H.inverse(beta)))
    to_gamma = _conjugator(H, H.inverse(gamma), gamma)
    pseudo = c.input_count

    def not_(instrs):
        # append target^-1: evaluates to gamma^-1 on 0 and identity on 1,
        # i.e. a program for the negation with target gamma^-1; recode back
        return _recode(H, instrs + ((H.inverse(gamma), pseudo),), to_gamma)

    def and_(left, right):
        # commutator gadget: alpha^u beta^v alpha^-u beta^-v = gamma iff
        # u = v = 1
        return (_recode(H, left, to_alpha) + _recode(H, right, to_beta)
                + _recode(H, left, to_ialpha) + _recode(H, right, to_ibeta))

    programs: list[tuple[tuple[int, int], ...]] = [()] * (c.output + 1)
    for i in cone:
        match c.gates[i]:
            case Input(index):
                instrs: tuple = ((gamma, index),)
            case Const(bit):
                instrs = ((gamma, pseudo),) if bit else ()
            case Not(a):
                instrs = not_(programs[a])
            case And(a, b):
                instrs = and_(programs[a], programs[b])
            case Or(a, b):
                instrs = not_(and_(not_(programs[a]), not_(programs[b])))
            case gate:
                raise Error(f"unhandled gate {gate!r}")
        programs[i] = instrs
    result = GroupProgram(group=H, instructions=_compact(H, programs[c.output], pseudo),
                          target=gamma, input_count=c.input_count)
    bound = SIZE_BASE * 4 ** depth
    if len(result) > bound:
        raise Error(f"compiled size {len(result)} exceeds bound {bound}")
    return result


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
