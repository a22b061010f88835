"""Same-seed library outputs, pinned byte for byte.

``golden_outputs`` runs the general cryptosystem from fixed seeds over a
cyclic table group (Z_6, a one-factor key) and over Sym(3): key texts,
ciphertexts under default, 0/0 and 0/2 randomization, their decryptions,
and ``inverse_P_general`` witnesses drawn from one rng, before and after
answers of None.  ``data/golden_same_seed.json`` holds what the code gave
when the file was made; refactors must reproduce it exactly.  A change
that alters outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_same_seed.json

and says so in its change notes.
"""

import json
import random
import sys
from pathlib import Path

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

GOLDEN = Path(__file__).parent / "data" / "golden_same_seed.json"

RANDOMIZATIONS = (
    {},
    {"phi_steps": 0, "psi_length": 0},
    {"phi_steps": 0, "psi_length": 2},
)


def _witness(res):
    if res is None:
        return None
    a, b = res
    return {"depth": a.depth,
            "phi": [[l.factor, l.value, int(l.is_a0)] for l in a.letters],
            "psi": [[l.factor, l.index] for l in b.letters]}


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


def golden_outputs() -> dict:
    return {"z6": _case(cyclic_group(6), 16, "golden:z6"),
            "sym3": _case(sym(3), 16, "golden:sym3")}


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
