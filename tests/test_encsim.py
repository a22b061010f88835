import itertools
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest
from test_barrington import balanced_tree_text

from ghcrypt import encsim, freeprod
from ghcrypt.circuit import ArityMismatch, eval_circuit, parse_circuit
from ghcrypt.errors import Error, FormatError
from ghcrypt.barrington import compile_barrington
from ghcrypt.general import (
    GeneralCiphertext,
    decrypt_general,
    encrypt_general,
    keygen_general,
)
from ghcrypt.freeprod import format_gword, g_inverse, parse_gword
from ghcrypt.groupcore import sym
from ghcrypt.encsim import (
    CircuitAlice,
    CircuitBob,
    GConst,
    GInput,
    GInv,
    GMul,
    GroupCircuit,
    GroupMismatch,
    InputAlice,
    InputBob,
    UnexpectedValue,
    WORD_CAP,
    decrypt_output,
    encrypt_program,
    eval_encrypted,
    eval_group_circuit,
    format_encrypted_program,
    format_transcript,
    parse_encrypted_program,
    parse_group_circuit,
    protocol_encrypted_circuit,
    protocol_encrypted_input,
)

DATA = Path(__file__).parent / "data"


def fixture(name):
    return parse_circuit((DATA / name).read_text())


def longest_run(word, inside):
    """(length, start) of the longest run of consecutive letters of word
    that also stands in inside, starting at inside[start]; the earliest
    start among equals."""
    where: dict = {}
    for p, letter in enumerate(inside):
        where.setdefault(letter, []).append(p)
    best = (0, 0)
    for i, letter in enumerate(word):
        for p in where.get(letter, ()):
            k = 0
            while i + k < len(word) and p + k < len(inside) and word[i + k] == inside[p + k]:
                k += 1
            best = max(best, (k, -p))
    return best[0], -best[1]


@pytest.fixture(scope="module")
def sym5_keys():
    return keygen_general(sym(5), 8, random.Random(55))


SMALL = dict(phi_steps=3, psi_length=2)

# a group circuit of 64 MUL lines, each squaring the line before
SQUARINGS = "GCIRC v1\nINPUTS w0\n" + "".join(
    f"w{k + 1} = MUL w{k} w{k}\n" for k in range(64)) + "OUTPUT w64\n"


def or_and_chain(inputs):
    """OR/AND gates alternating along a chain of ``inputs`` inputs."""
    names = [f"x{k}" for k in range(1, inputs + 1)]
    lines = ["INPUTS " + " ".join(names)]
    acc, op = names[0], "OR"
    for k, name in enumerate(names[1:], start=1):
        lines.append(f"g{k} = {op} {acc} {name}")
        acc, op = f"g{k}", "AND" if op == "OR" else "OR"
    return parse_circuit("\n".join(lines + [f"OUTPUT {acc}"]) + "\n")


class TestEncryptProgram:
    def test_empty_program(self, sym5_keys):
        pk, _ = sym5_keys
        from ghcrypt.barrington import GroupProgram
        p = GroupProgram(group=pk.group, instructions=(), target=1, input_count=0)
        ep = encrypt_program(pk, p, random.Random(0), **SMALL)
        assert len(ep) == 0

    def test_instruction_roundtrip(self, sym5_keys):
        pk, sk = sym5_keys
        p = compile_barrington(fixture("and2.bc"), pk.group)
        ep = encrypt_program(pk, p, random.Random(1), **SMALL)
        assert ep.target == p.target
        for (word, var), (el, var0) in zip(ep.instructions, p.instructions):
            assert var == var0
            got = decrypt_general(sk, pk, GeneralCiphertext(word))
            assert got.index == el

    def test_group_mismatch(self, sym5_keys):
        p = compile_barrington(fixture("and2.bc"), sym(5))
        other = keygen_general(sym(3), 8, random.Random(2))[0]
        with pytest.raises(GroupMismatch):
            encrypt_program(other, p, random.Random(0))


class TestEvalEncrypted:
    def test_zero_selection(self, sym5_keys):
        pk, _ = sym5_keys
        c = parse_circuit("INPUTS x1 x2\ng = AND x1 x2\nOUTPUT g\n")
        p = compile_barrington(c, pk.group)
        ep = encrypt_program(pk, p, random.Random(3), **SMALL)
        word = eval_encrypted(ep, (0, 0))
        # every instruction depends on a real input here, so nothing is taken
        assert all(var < 2 for _, var in ep.instructions)
        assert word.word.is_identity

    def test_single_instruction(self, sym5_keys):
        pk, sk = sym5_keys
        p = compile_barrington(fixture("identity.bc"), pk.group)
        ep = encrypt_program(pk, p, random.Random(4), **SMALL)
        word = eval_encrypted(ep, (1,))
        assert word.word == ep.instructions[0][0]

    def test_matches_plain_program(self, sym5_keys):
        pk, sk = sym5_keys
        c = fixture("maj3.bc")
        p = compile_barrington(c, pk.group)
        ep = encrypt_program(pk, p, random.Random(5), **SMALL)
        from ghcrypt.barrington import eval_program
        for bits in itertools.product((0, 1), repeat=3):
            word = eval_encrypted(ep, bits)
            plain = eval_program(p, bits)
            assert decrypt_general(sk, pk, word).index == plain.index

    def test_word_length_bound(self, sym5_keys):
        pk, _ = sym5_keys
        p = compile_barrington(fixture("and2.bc"), pk.group)
        ep = encrypt_program(pk, p, random.Random(6), **SMALL)
        total = sum(len(w) for w, var in ep.instructions)
        assert len(eval_encrypted(ep, (1, 1)).word) <= total

    def test_sampled_assignments_eight_inputs(self, sym5_keys):
        # wide circuit, sampled assignments: encrypt once, evaluate many
        pk, sk = sym5_keys
        c = fixture("and8.bc")
        p = compile_barrington(c, pk.group)
        ep = encrypt_program(pk, p, random.Random(7), **SMALL)
        target = pk.group.element(p.target)
        rng = random.Random(8)
        seen = set()
        while len(seen) < 64:
            seen.add(tuple(rng.randrange(2) for _ in range(8)))
        for bits in seen:
            word = eval_encrypted(ep, bits)
            assert decrypt_output(sk, pk, word, target) == eval_circuit(c, bits)

    def test_wrong_number_of_bits(self, sym5_keys):
        pk, _ = sym5_keys
        p = compile_barrington(fixture("and2.bc"), pk.group)
        ep = encrypt_program(pk, p, random.Random(9), **SMALL)
        for bits in ((), (1,), (1, 1, 1)):
            with pytest.raises(ArityMismatch):
                eval_encrypted(ep, bits)

    def test_word_of_another_family(self, sym5_keys):
        pk, _ = sym5_keys
        other, _ = keygen_general(sym(5), 8, random.Random(56))
        assert other.family.factors != pk.family.factors
        p = compile_barrington(fixture("and2.bc"), pk.group)
        ep = encrypt_program(pk, p, random.Random(9), **SMALL)
        stranger = encrypt_general(other, other.group.element(1), random.Random(0),
                                   **SMALL).word
        (_, var), *rest = ep.instructions
        mixed = replace(ep, instructions=((stranger, var), *rest))
        with pytest.raises(ValueError, match="different factor families"):
            eval_encrypted(mixed, (1, 1))


class TestLinearEvaluation:
    """Work-count gate: Bob's evaluation hands each selected letter to the
    seam merge ``freeprod._join`` at most once, so it is linear in the
    selected letters.  A left fold of two-word products would hand over the
    accumulator at every step, quadratic in the length of the fold."""

    @pytest.fixture
    def handed(self, monkeypatch):
        """The letter counts of the calls to ``_join``, patched in both
        modules where its callers look it up."""
        counts = []
        join = freeprod._join

        def counted(factors, pieces):
            pieces = list(pieces)
            counts.append(sum(map(len, pieces)))
            return join(factors, pieces)

        monkeypatch.setattr(freeprod, "_join", counted)
        monkeypatch.setattr(encsim, "_join", counted)
        return counts

    @pytest.fixture(scope="class")
    def keys(self):
        return keygen_general(sym(5), 16, random.Random(1))

    def test_depth6_tree(self, keys, handed):
        pk, sk = keys
        c = parse_circuit(balanced_tree_text(6, "AND", "OR"))
        p = compile_barrington(c, pk.group)
        assert len(p) == 4096
        ep = encrypt_program(pk, p, random.Random(2), phi_steps=4, psi_length=2)
        rng = random.Random(3)
        bits = tuple(rng.randrange(2) for _ in range(c.input_count))
        selected = sum(len(w) for w, var in ep.instructions
                       if var == c.input_count or bits[var])
        word = eval_encrypted(ep, bits)
        assert 0 < sum(handed) <= selected
        target = pk.group.element(p.target)
        assert decrypt_output(sk, pk, word, target) == eval_circuit(c, bits)

    def test_alternating_one_letter_words(self, keys, handed):
        # an untrusted text of 40,000 one-letter words on the always-true
        # pseudo variable, alternating between two factors: nothing merges
        pk, _ = keys
        r1, r2 = (pk.family.public(i).transversal[1] for i in (1, 2))
        text = "EPROG v1 0 1\n" + f"0 1:{r1}\n0 2:{r2}\n" * 20_000
        result = CircuitBob(pk, ()).evaluation_message(text)
        assert 0 < sum(handed) <= 40_000
        assert len(result.split()) == 40_000


class TestDecryptOutput:
    def test_empty_is_zero(self, sym5_keys):
        pk, sk = sym5_keys
        from ghcrypt.freeprod import empty_word
        target = pk.group.element(1)
        word = GeneralCiphertext(empty_word(pk.family))
        assert decrypt_output(sk, pk, word, target) == 0

    def test_target_is_one(self, sym5_keys):
        pk, sk = sym5_keys
        target = pk.group.element(7)
        c = encrypt_general(pk, target, random.Random(8), **SMALL)
        assert decrypt_output(sk, pk, c, target) == 1

    def test_unexpected_value(self, sym5_keys):
        pk, sk = sym5_keys
        target = pk.group.element(7)
        other = encrypt_general(pk, pk.group.element(9), random.Random(9), **SMALL)
        with pytest.raises(UnexpectedValue):
            decrypt_output(sk, pk, other, target)


class TestGroupCircuits:
    def make_mul(self):
        return GroupCircuit(input_count=2,
                            steps=(GInput(0), GInput(1), GMul(0, 1)),
                            output=2)

    def test_eval_in_group(self):
        H = sym(3)
        circ = self.make_mul()
        a, b = H.element(1), H.element(3)
        assert eval_group_circuit(circ, (a, b), H).index == (a * b).index

    def test_inverse_step(self):
        H = sym(3)
        circ = GroupCircuit(2, (GInput(0), GInput(1), GMul(0, 1), GInv(2)), 3)
        a, b = H.element(3), H.element(4)
        want = (a * b).inverse().index
        assert eval_group_circuit(circ, (a, b), H).index == want

    def test_text_roundtrip(self):
        H = sym(3)
        circ = GroupCircuit(
            1, (GInput(0), GConst(3), GMul(0, 1), GInv(2)), 3)
        text = ("GCIRC v1\nINPUTS y1\nw1 = CONST 3\nw2 = MUL y1 w1\n"
                "w3 = INV w2\nOUTPUT w3\n")
        assert parse_group_circuit(text, H) == circ

    def test_parse_labels_and_errors(self):
        H = sym(3)
        circ = parse_group_circuit(
            "GCIRC v1\nINPUTS y1\nc = CONST (1 2)\nw = MUL y1 c\nOUTPUT w\n", H)
        assert circ.steps[1] == GConst(H.element_by_label("(1 2)").index)
        for bad in ("", "GCIRC v1\nINPUTS y1\n", "GCIRC v1\nINPUTS y1\nOUTPUT zz\n",
                    "GCIRC v1\nINPUTS y1\nw = FROB y1\nOUTPUT w\n",
                    "GCIRC v1\nINPUTSX y1 y2\nw = MUL y1 y2\nOUTPUT w\n"):
            with pytest.raises(FormatError):
                parse_group_circuit(bad, H)

    def test_squaring_chain_stops_at_the_word_cap(self, sym3_keys):
        # 64 squarings would make Bob's word 2^64 times as long as Alice's
        pk, sk = sym3_keys
        circ = parse_group_circuit(SQUARINGS, pk.group)
        text = InputAlice(sk, pk, (pk.group.element(3),), random.Random("cap:a")
                          ).inputs_message()
        bob = InputBob(pk, circ, random.Random("cap:b"))
        start = time.perf_counter()
        with pytest.raises(Error, match=f"group circuit word passes {WORD_CAP} letters"):
            bob.evaluation_message(text)
        assert time.perf_counter() - start < 1

    def bob_eval(self, pk, circ, words, rng):
        """Bob's evaluation over words, the circuit lifted to ciphertexts."""
        bob = InputBob(pk, circ, rng, **SMALL)
        text = "".join(format_gword(w) + "\n" for w in words)
        return parse_gword(bob.evaluation_message(text), pk.family)

    def test_lift_encrypts_constants(self, sym3_keys):
        pk, sk = sym3_keys
        circ = GroupCircuit(0, (GConst(4),), 0)
        got = self.bob_eval(pk, circ, (), random.Random(1))
        want = eval_group_circuit(circ, (), pk.group)
        assert decrypt_general(sk, pk, GeneralCiphertext(got)).index == want.index == 4

    def test_lifted_eval_compatible(self, sym3_keys):
        pk, sk = sym3_keys
        H = pk.group
        rng = random.Random(2)
        circ = GroupCircuit(
            2, (GInput(0), GInput(1), GConst(5), GMul(0, 1), GMul(3, 2)), 4)
        for _ in range(10):
            a, b = H.element(rng.randrange(6)), H.element(rng.randrange(6))
            want = eval_group_circuit(circ, (a, b), H)
            za = encrypt_general(pk, a, rng, **SMALL).word
            zb = encrypt_general(pk, b, rng, **SMALL).word
            got = self.bob_eval(pk, circ, (za, zb), rng)
            assert decrypt_general(sk, pk, GeneralCiphertext(got)).index == want.index


class TestProtocolCircuit:
    def run(self, keys, circuit, bits, seed="s"):
        pk, sk = keys
        alice = CircuitAlice(sk, pk, circuit, random.Random(f"{seed}:alice"),
                             **SMALL)
        bob = CircuitBob(pk, bits)
        return protocol_encrypted_circuit(alice, bob)

    def test_identity_both_ways(self, sym5_keys):
        c = fixture("identity.bc")
        assert self.run(sym5_keys, c, (0,))[0] == 0
        assert self.run(sym5_keys, c, (1,))[0] == 1

    def test_maj3_full_table(self, sym5_keys):
        c = fixture("maj3.bc")
        for bits in itertools.product((0, 1), repeat=3):
            bit, transcript = self.run(sym5_keys, c, bits)
            assert bit == eval_circuit(c, bits)
            assert len(transcript.entries) == 3

    def test_transcript_structure_and_determinism(self, sym5_keys):
        c = fixture("and2.bc")
        bit1, t1 = self.run(sym5_keys, c, (1, 0), seed="d")
        bit2, t2 = self.run(sym5_keys, c, (1, 0), seed="d")
        assert bit1 == bit2 == 0
        assert format_transcript(t1) == format_transcript(t2)
        text = format_transcript(t1)
        assert text.startswith("TRANSCRIPT v1\nMSG alice program\nEPROG v1 2 ")
        assert "MSG bob word" in text and "MSG alice result" in text
        # the final message logs the decrypted group element as well
        assert "fg: " in text

    def test_different_seed_changes_transcript(self, sym5_keys):
        c = fixture("and2.bc")
        _, t1 = self.run(sym5_keys, c, (1, 0), seed="a")
        _, t2 = self.run(sym5_keys, c, (1, 0), seed="b")
        assert format_transcript(t1) != format_transcript(t2)

    def test_depth8_chain(self):
        # 9-input OR/AND chain: 766 instructions, whose selected words Bob
        # merges in one pass, linear in their letters (TestLinearEvaluation)
        c = or_and_chain(9)
        keys = keygen_general(sym(5), 16, random.Random(58))
        assigned = [(1,) * 9, (0,) * 9, (1, 0, 1, 1, 0, 1, 1, 0, 1)]
        assert {eval_circuit(c, bits) for bits in assigned} == {0, 1}
        for bits in assigned:
            pk, sk = keys
            alice = CircuitAlice(sk, pk, c, random.Random(f"d8:{bits}"),
                                 phi_steps=2, psi_length=1)
            bit, _ = protocol_encrypted_circuit(alice, CircuitBob(pk, bits))
            assert bit == eval_circuit(c, bits)

    def test_alice_reads_bobs_input(self):
        """The protocol hides the circuit from Bob, not Bob's input from
        Alice.  Bob's product keeps the interior of every word he selects,
        in order, and Alice made every word, so a word whose interior she
        finds whole in his product, with a letter of no other variable's
        words, tells her that Bob set that variable.  One letter alone can
        mislead: products of public transversal entries recur at the seams
        of his product."""
        c = or_and_chain(6)
        pk, sk = keygen_general(sym(5), 16, random.Random(61))
        for bits in itertools.product((0, 1), repeat=6):
            alice = CircuitAlice(sk, pk, c, random.Random(f"audit:{bits}"),
                                 phi_steps=4, psi_length=2)
            program_text = alice.program_message()
            result = parse_gword(CircuitBob(pk, bits).evaluation_message(program_text),
                                 pk.family).letters
            program = parse_encrypted_program(program_text, pk)
            owners: dict = {}
            for word, var in program.instructions:
                for letter in word.letters:
                    owners.setdefault(letter, set()).add(var)
            starts: dict = {}
            for j, letter in enumerate(result):
                starts.setdefault(letter, []).append(j)

            def kept(interior):
                return any(result[j:j + len(interior)] == interior
                           for j in starts.get(interior[0], ()))

            guess = tuple(
                int(any(any(owners[letter] == {v} for letter in word.letters[1:-1])
                        and kept(word.letters[1:-1])
                        for word, var in program.instructions if var == v))
                for v in range(6))
            assert guess == bits

    def test_bob_uses_public_data_only(self, sym5_keys):
        pk, _ = sym5_keys
        bob = CircuitBob(pk, (1, 1))
        assert not hasattr(bob, "sk")


class TestProtocolInput:
    def test_passthrough(self, sym3_keys):
        pk, sk = sym3_keys
        H = pk.group
        circ = GroupCircuit(1, (GInput(0),), 0)
        for el in H.elements():
            alice = InputAlice(sk, pk, (el,), random.Random("p:a"), **SMALL)
            bob = InputBob(pk, circ, random.Random("p:b"), **SMALL)
            got, _ = protocol_encrypted_input(alice, bob)
            assert got.index == el.index

    def test_product_pairs(self, sym3_keys):
        pk, sk = sym3_keys
        H = pk.group
        circ = GroupCircuit(2, (GInput(0), GInput(1), GMul(0, 1)), 2)
        rng = random.Random(77)
        for _ in range(12):
            a, b = H.element(rng.randrange(6)), H.element(rng.randrange(6))
            alice = InputAlice(sk, pk, (a, b), random.Random(f"q:{a.index}:{b.index}"),
                               **SMALL)
            bob = InputBob(pk, circ, random.Random("q:bob"), **SMALL)
            got, transcript = protocol_encrypted_input(alice, bob)
            assert got.index == (a * b).index
            assert len(transcript.entries) == 3

    def test_with_constant(self, sym3_keys):
        pk, sk = sym3_keys
        H = pk.group
        c = H.element(2)
        circ = GroupCircuit(1, (GInput(0), GConst(2), GMul(0, 1)), 2)
        for el in (H.element(0), H.element(3), H.element(5)):
            alice = InputAlice(sk, pk, (el,), random.Random("r:a"), **SMALL)
            bob = InputBob(pk, circ, random.Random("r:b"), **SMALL)
            got, _ = protocol_encrypted_input(alice, bob)
            assert got.index == (el * c).index

    def test_alice_reads_bobs_circuit(self):
        """The protocol hides Alice's inputs from Bob, not Bob's circuit from
        Alice.  Bob's product keeps the interior letters of each of her
        words, or of its inverse, so the longest run of each word's letters
        (or its inverse's) in his result tells her where he multiplied that
        input in and whether he inverted it."""
        pk, sk = keygen_general(sym(3), 16, random.Random(61))
        H = pk.group
        for order in itertools.permutations(range(3)):
            for inverted in itertools.product((0, 1), repeat=3):
                # CONST 4, then acc = acc * y_j or acc * y_j^-1 in order
                steps, acc = [GInput(0), GInput(1), GInput(2), GConst(4)], 3
                for j in order:
                    if inverted[j]:
                        steps.append(GInv(j))
                    steps.append(GMul(acc, len(steps) - 1 if inverted[j] else j))
                    acc = len(steps) - 1
                circ = GroupCircuit(3, tuple(steps), acc)
                for seed in range(3):
                    rng = random.Random(f"audit:{order}:{inverted}:{seed}")
                    inputs = [H.element(rng.randrange(H.order)) for _ in range(3)]
                    alice = InputAlice(sk, pk, inputs, rng)
                    text = alice.inputs_message()
                    result = parse_gword(
                        InputBob(pk, circ, rng).evaluation_message(text), pk.family)
                    found = []
                    for line in text.splitlines():
                        word = parse_gword(line, pk.family)
                        (n0, at0), (n1, at1) = (longest_run(w.letters, result.letters)
                                                for w in (word, g_inverse(word)))
                        found.append((at0, 0) if n0 >= n1 else (at1, 1))
                    assert tuple(sorted(range(3), key=found.__getitem__)) == order
                    assert tuple(inv for _, inv in found) == inverted


class TestEncryptedProgramFiles:
    def test_roundtrip(self, sym5_keys):
        pk, _ = sym5_keys
        p = compile_barrington(fixture("and2.bc"), pk.group)
        ep = encrypt_program(pk, p, random.Random(10), **SMALL)
        text = format_encrypted_program(ep)
        again = parse_encrypted_program(text, pk)
        assert again.instructions == ep.instructions
        assert again.target == ep.target
        # a tab after each instruction's variable
        head, *body = text.splitlines()
        tabbed = "\n".join([head] + [line.replace(" ", "\t", 1) for line in body])
        assert tabbed.count("\t") == len(ep.instructions) > 0
        assert parse_encrypted_program(tabbed, pk).instructions == ep.instructions

    def test_bad_files(self, sym5_keys):
        pk, _ = sym5_keys
        with pytest.raises(FormatError):
            parse_encrypted_program("", pk)
        with pytest.raises(FormatError):
            parse_encrypted_program("EPROG v1 2 0\n", pk)
        with pytest.raises(FormatError):
            parse_encrypted_program("EPROG v1 2 1\n9 e\n", pk)
        with pytest.raises(FormatError):
            parse_encrypted_program("EPROG v1 -1 1\n", pk)  # negative input count
