"""Same-seed library outputs, pinned byte for byte.

``golden_outputs`` runs the general cryptosystem from fixed seeds over a
cyclic table group (Z_6, a one-factor key) and over Sym(3): key texts,
ciphertexts under default, 0/0 and 0/2 randomization, their decryptions,
and ``inverse_P_general`` witnesses drawn from one rng, before and after
answers of None.  It also pins both protocols: full encrypted-input
transcripts over Sym(3) for a group circuit with CONST, MUL and INV steps,
and the sha256 of encrypted-circuit transcripts for ``data/and2.bc`` over
Sym(5) at 8 bits (the key text alone is about 49 KB).
``data/golden_same_seed.json`` holds what the code gave
when the file was made; refactors must reproduce it exactly.  A change
that alters outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_same_seed.json

and says so in its change notes.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from ghcrypt.circuit import parse_circuit
from ghcrypt.encsim import (
    CircuitAlice,
    CircuitBob,
    InputAlice,
    InputBob,
    format_transcript,
    parse_group_circuit,
    protocol_encrypted_circuit,
    protocol_encrypted_input,
)
from ghcrypt.freeprod import empty_word, format_gword, normalize
from ghcrypt.general import (
    decrypt_general,
    encrypt_general,
    format_general_pk,
    format_general_sk,
    inverse_P_general,
    keygen_general,
    mult_ciphertexts_general,
)
from ghcrypt.groupcore import cyclic_group, sym

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_same_seed.json"

# constants are encrypted in step order, so two CONST steps pin that order
INPUT_CIRCUIT = """GCIRC v1
INPUTS y1 y2
w1 = CONST 4
w2 = MUL y1 w1
w3 = INV w2
w4 = CONST 2
w5 = MUL w3 w4
w6 = MUL w5 y2
OUTPUT w6
"""

RANDOMIZATIONS = (
    {},
    {"phi_steps": 0, "psi_length": 0},
    {"phi_steps": 0, "psi_length": 2},
)


def _witness(res):
    if res is None:
        return None
    a, b = res
    return {"phi": [[i, v, int(a0)] for i, v, a0 in a],
            "psi": [list(syllable) for syllable in b]}


def _case(H, bits: int, seed: str) -> dict:
    rng = random.Random(seed)
    pk, sk = keygen_general(H, bits, rng)
    out = {"pk": format_general_pk(pk), "sk": format_general_sk(sk),
           "ciphertexts": [], "witnesses": []}
    for randomization in RANDOMIZATIONS:
        for h in H.elements():
            c = encrypt_general(pk, h, rng, **randomization)
            out["ciphertexts"].append(
                [format_gword(c.word), decrypt_general(sk, pk, c).index])
    # witness words: kernel products, non-kernel words, one-letter words
    words = [empty_word(pk.family)]
    for h in H.elements():
        c1 = encrypt_general(pk, h, rng, phi_steps=2, psi_length=2)
        c2 = encrypt_general(pk, h.inverse(), rng, phi_steps=2, psi_length=2)
        words.append(mult_ciphertexts_general(pk, c1, c2).word)
        if h.index:
            words.append(encrypt_general(pk, h, rng, phi_steps=2, psi_length=2).word)
            words.append(pk.transversal_word(h.index))
    for i in range(1, pk.family.count + 1):
        fpk = pk.family.public(i)
        s = rng.randrange(2, fpk.n)
        words.append(normalize(pk.family, [(i, pow(s, fpk.m, fpk.n))]))
    for word in words:
        out["witnesses"].append(
            [format_gword(word), _witness(inverse_P_general(sk, pk, word, rng))])
    out["rng_after"] = rng.random()
    return out


def _protocols() -> dict:
    out = {"input": [], "circuit": []}
    pk, sk = keygen_general(sym(3), 16, random.Random("golden:input"))
    circ = parse_group_circuit(INPUT_CIRCUIT, pk.group)
    for k, (inputs, randomization) in enumerate((
            ((1, 5), {}), ((3, 0), {"phi_steps": 2, "psi_length": 2}))):
        alice = InputAlice(sk, pk, [pk.group.element(i) for i in inputs],
                           random.Random(f"golden:input:{k}:alice"), **randomization)
        bob = InputBob(pk, circ, random.Random(f"golden:input:{k}:bob"),
                       **randomization)
        element, transcript = protocol_encrypted_input(alice, bob)
        out["input"].append([format_transcript(transcript), element.index])
    pk, sk = keygen_general(sym(5), 8, random.Random("golden:circuit"))
    circ = parse_circuit((DATA / "and2.bc").read_text())
    for bits in ((1, 1), (0, 1)):
        alice = CircuitAlice(sk, pk, circ, random.Random(f"golden:circuit:{bits}"),
                             phi_steps=2, psi_length=2)
        bit, transcript = protocol_encrypted_circuit(alice, CircuitBob(pk, bits))
        digest = hashlib.sha256(format_transcript(transcript).encode()).hexdigest()
        out["circuit"].append([digest, bit])
    return out


def golden_outputs() -> dict:
    return {"z6": _case(cyclic_group(6), 16, "golden:z6"),
            "sym3": _case(sym(3), 16, "golden:sym3"),
            "protocols": _protocols()}


def test_same_seed_outputs_unchanged():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(golden_outputs()))
    for name in want:
        for key in want[name]:
            assert got[name][key] == want[name][key], f"{name} {key} changed"
    assert got == want


if __name__ == "__main__":
    json.dump(golden_outputs(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
