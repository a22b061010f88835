"""The witness contracts of the general cryptosystem over more groups than
Sym(k) and Z_m: D4, Q8, (Z2)^4, A4 and A5, each built from permutation
generators.  Round trips, products, ``sample_A`` pairs in the kernel and
``combined_P`` of ``inverse_P_general`` witnesses, at 16-bit keys with phi
6 / psi 3; the trapdoor of each factor against enumeration, at keys under
2^14; and Barrington's construction over A5, the smallest unsolvable
group."""

import itertools
import random
from math import gcd
from pathlib import Path

import pytest

from ghcrypt.barrington import compile_barrington, eval_program
from ghcrypt.circuit import eval_circuit, parse_circuit
from ghcrypt.cyclic import CyclicCiphertext, NotInImage, decrypt_cyclic
from ghcrypt.freeprod import combined_P, g_inverse, g_multiply, phi_map, psi_map
from ghcrypt.general import (
    decrypt_general,
    encrypt_general,
    inverse_P_general,
    keygen_general,
    mult_ciphertexts_general,
    sample_A,
)
from ghcrypt.groupcore import FiniteGroup, _span, cyclic_group, sym

DATA = Path(__file__).parent / "data"

SIZES = {"phi_steps": 6, "psi_length": 3}


def permutation_group(name, *generators):
    """The group the permutations (one-line tuples) generate, identity first;
    element a times b is the permutation x -> b[a[x]]."""
    identity = tuple(range(len(generators[0])))
    elements, index = [identity], {identity: 0}
    for p in elements:  # grows while it is read: a breadth-first closure
        for g in generators:
            q = tuple(g[x] for x in p)
            if q not in index:
                index[q] = len(elements)
                elements.append(q)
    table = [[index[tuple(b[x] for x in a)] for b in elements] for a in elements]
    return FiniteGroup(table, name=name)


# Q8 acts on itself by left multiplication: points 0..7 are 1, -1, i, -i,
# j, -j, k, -k
GROUPS = [
    permutation_group("d4", (1, 2, 3, 0), (0, 3, 2, 1)),
    permutation_group("q8", (2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)),
    permutation_group("z2^4", *(tuple(x ^ 1 if x // 2 == k else x for x in range(8))
                                for k in range(4))),
    permutation_group("a4", (1, 2, 0, 3), (1, 0, 3, 2)),
    permutation_group("a5", (1, 2, 3, 4, 0), (1, 2, 0, 3, 4)),
]
A5 = GROUPS[-1]


def test_the_groups_are_the_named_ones():
    # order and number of involutions tell these five apart (D4 and Q8
    # have order 8, but Q8 has one involution and D4 five)
    shapes = {H.name: (H.order, [H.order_of(a) for a in range(H.order)].count(2))
              for H in GROUPS}
    assert shapes == {"d4": (8, 5), "q8": (8, 1), "z2^4": (16, 15), "a4": (12, 3),
                      "a5": (60, 15)}


def largest_order_generators(H):
    """Reference: the generator rule before odd orders were preferred, again
    and again the element of largest order, lowest index first, outside
    the subgroup so far."""
    by_order = sorted(range(H.order - 1, 0, -1), key=H.order_of)
    return tuple(_span(H.table, by_order)[0])


@pytest.mark.parametrize("H", [*map(sym, range(2, 7)), *map(cyclic_group, range(2, 13)),
                               *GROUPS], ids=lambda H: H.name)
def test_odd_orders_first_keeps_the_factor_count(H):
    # the rule keeps the first generator and the factor count, and never
    # gives more even-order factors (their letters need Jacobi symbols)
    old = largest_order_generators(H)

    def even(generators):
        return sum(H.order_of(g) % 2 == 0 for g in generators)

    assert H.generators[0] == old[0]
    assert len(H.generators) == len(old)
    assert even(H.generators) <= even(old)


@pytest.fixture(scope="module", params=GROUPS, ids=lambda H: H.name)
def keys(request):
    return keygen_general(request.param, 16, random.Random(request.param.name))


def test_round_trip(keys):
    pk, sk = keys
    rng = random.Random(1)
    for h in pk.group.elements():
        assert decrypt_general(sk, pk, encrypt_general(pk, h, rng, **SIZES)) == h


def test_products(keys):
    pk, sk = keys
    H, rng = pk.group, random.Random(2)
    for _ in range(30):
        a, b = H.element(rng.randrange(H.order)), H.element(rng.randrange(H.order))
        c = mult_ciphertexts_general(pk, encrypt_general(pk, a, rng, **SIZES),
                                     encrypt_general(pk, b, rng, **SIZES))
        assert decrypt_general(sk, pk, c) == a * b


def test_sample_A_pairs_map_into_kernel(keys):
    pk, sk = keys
    rng = random.Random(3)
    for _ in range(30):
        word = combined_P(pk.family, *sample_A(pk, rng, **SIZES))
        k = phi_map(word, sk.factors, pk.generators)
        assert psi_map(k, pk.group).index == pk.group.identity


def test_inverse_P_general_witnesses_evaluate_back(keys):
    pk, sk = keys
    H, rng = pk.group, random.Random(4)
    for _ in range(30):
        h = H.element(rng.randrange(H.order))
        c1, c2 = (encrypt_general(pk, h, rng, **SIZES) for _ in range(2))
        word = g_multiply(c1.word, g_inverse(c2.word))
        witness = inverse_P_general(sk, pk, word, rng)
        assert witness is not None
        assert combined_P(pk.family, *witness) == word


@pytest.mark.parametrize("H", GROUPS, ids=lambda H: H.name)
def test_trapdoor_agrees_with_enumeration(H):
    # factor orders 2, 3, 4 and 5 over these groups; 6-bit primes keep n
    # under 2^14, so every unit of every factor is decrypted
    pk, sk = keygen_general(H, 6, random.Random(f"enumerate:{H.name}"))
    for fpk, fsk in zip(pk.family.factors, sk.factors):
        n, m = fpk.n, fpk.m
        assert n < 1 << 14
        units = [x for x in range(1, n) if gcd(x, n) == 1]
        kernel = {pow(x, m, n) for x in units}
        inverses = [pow(r, -1, n) for r in fpk.transversal]
        for g in units:
            hits = [i for i, r_inv in enumerate(inverses) if g * r_inv % n in kernel]
            if hits:
                assert len(hits) == 1
                assert decrypt_cyclic(fsk, fpk, CyclicCiphertext(g)) == hits[0]
            else:  # a unit of Jacobi symbol -1 for even m
                with pytest.raises(NotInImage):
                    decrypt_cyclic(fsk, fpk, CyclicCiphertext(g))


@pytest.mark.parametrize("name", ["and2.bc", "xor2.bc", "maj3.bc", "mux3.bc", "th2of4.bc"])
def test_barrington_exact_on_a5(name):
    circuit = parse_circuit((DATA / name).read_text())
    program = compile_barrington(circuit, A5)
    for bits in itertools.product((0, 1), repeat=circuit.input_count):
        want = program.target if eval_circuit(circuit, bits) else A5.identity
        assert eval_program(program, bits).index == want, bits
