import dataclasses
import operator
import random
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

from ghcrypt import cyclic, groupcore
from ghcrypt.barrington import GroupProgram, compile_barrington
from ghcrypt.circuit import parse_circuit
from ghcrypt.cyclic import factor_via_inverse_oracle
from ghcrypt.encsim import InputAlice, encrypt_program
from ghcrypt.errors import Error, FormatError
from ghcrypt.freeprod import (FactorFamily, combined_P, format_gword, g_multiply,
                               normalize, p_phi, parse_gword, phi_map, psi_map,
                               random_phi_witness)
from ghcrypt.general import (
    GeneralCiphertext,
    GeneralPublicKey,
    IdentityGroup,
    MalformedWord,
    decrypt_general,
    decrypt_general_text,
    encrypt_general,
    format_general_pk,
    format_general_sk,
    inverse_P_general,
    keygen_general,
    mult_ciphertexts_general,
    parse_general_pk,
    parse_general_sk,
    sample_A,
)
from ghcrypt.groupcore import FiniteGroup, _span, cyclic_group, sym
from ghcrypt.numtheory import jacobi, mod_inverse

DATA = Path(__file__).parent / "data"


def tampered_pk(pk, changes):
    """pk with factor i's public key replaced as ``changes[i]`` (a dict of
    CyclicPublicKey fields) says."""
    factors = list(pk.family.factors)
    for i, fields in changes.items():
        factors[i - 1] = dataclasses.replace(factors[i - 1], **fields)
    return GeneralPublicKey(pk.group, pk.generators, FactorFamily(tuple(factors)))


def tampered_pk_text(pk, changes):
    """Key text of ``tampered_pk``; the TRANSVERSAL section is rewritten to
    match, so only the factor lines are wrong."""
    return format_general_pk(tampered_pk(pk, changes))


def jacobi_minus_one(n):
    return next(v for v in range(2, n) if gcd(v, n) == 1 and jacobi(v, n) == -1)


class TestKeygen:
    def test_identity_group(self):
        with pytest.raises(IdentityGroup):
            keygen_general(FiniteGroup([[0]]), 8, random.Random(0))

    def test_z2_is_single_factor(self):
        pk, sk = keygen_general(cyclic_group(2), 8, random.Random(1))
        assert pk.family.count == 1
        assert pk.family.order(1) == 2

    def test_sym3_factor_orders(self, sym3_keys):
        pk, sk = sym3_keys
        assert pk.family.count == 2
        assert [pk.family.order(i) for i in (1, 2)] == [3, 2]
        assert [pk.group.labels[g] for g in pk.generators] == ["(1 2 3)", "(2 3)"]

    def test_distinct_moduli(self, sym3_keys):
        # Sym(6) has three factors, of orders 6, 5 and 5, from 8-bit primes
        sym6_pk, _ = keygen_general(sym(6), 8, random.Random(3))
        for pk in (sym3_keys[0], sym6_pk):
            moduli = [pk.family.public(i).n for i in range(1, pk.family.count + 1)]
            assert len(set(moduli)) == pk.family.count

    def test_cyclic_table_group_delegates(self):
        # a cyclic group presented as a table still gets the one-factor key
        pk, sk = keygen_general(cyclic_group(4), 8, random.Random(5))
        assert pk.family.count == 1
        assert pk.family.order(1) == 4

    @pytest.mark.parametrize("m,bits", [(2, 8), (3, 8), (2, 16), (3, 16)])
    def test_tiny_cyclic_groups_round_trip(self, m, bits):
        rng = random.Random(m * 37 + bits)
        pk, sk = keygen_general(cyclic_group(m), bits, rng)
        for el in pk.group.elements():
            for _ in range(10):
                c = encrypt_general(pk, el, rng)
                assert decrypt_general(sk, pk, c).index == el.index

    def test_transversal_words_decrypt_to_their_elements(self, sym3_keys):
        pk, sk = sym3_keys
        for el in range(pk.group.order):
            word = pk.transversal_word(el)
            assert len(word) == len(pk.coordinates[el])
            got = decrypt_general(sk, pk, GeneralCiphertext(word))
            assert got.index == el


class TestEncryptDecrypt:
    def test_degenerate_randomness_identity(self, sym3_keys):
        pk, _ = sym3_keys
        c = encrypt_general(pk, pk.group.element(0), random.Random(0),
                            phi_steps=0, psi_length=0)
        assert c.word.is_identity

    def test_degenerate_randomness_generator(self, sym3_keys):
        pk, _ = sym3_keys
        h = pk.group.element(2)
        c = encrypt_general(pk, h, random.Random(0), phi_steps=0, psi_length=0)
        assert c.word == pk.transversal_word(2)

    @pytest.mark.parametrize("fixture", ["sym3_keys", "z6_keys"])
    def test_roundtrip_all_elements(self, fixture, request):
        pk, sk = request.getfixturevalue(fixture)
        rng = random.Random(77)
        for el in pk.group.elements():
            for _ in range(10):
                c = encrypt_general(pk, el, rng)
                assert decrypt_general(sk, pk, c).index == el.index

    def test_ciphertexts_randomize(self, sym3_keys):
        pk, _ = sym3_keys
        rng = random.Random(5)
        h = pk.group.element(3)
        words = {c.word.letters for c in
                 (encrypt_general(pk, h, rng) for _ in range(10))}
        assert len(words) > 1

    def test_wrong_group_element(self, sym3_keys, z6_keys):
        pk, _ = sym3_keys
        other = cyclic_group(6).element(1)
        with pytest.raises(ValueError):
            encrypt_general(pk, other, random.Random(0))

    def test_one_factor_word_shape(self, z6_keys):
        pk, sk = z6_keys
        rng = random.Random(9)
        c = encrypt_general(pk, pk.group.element(3), rng)
        assert len(c.word) <= 1

    def test_malformed_cyclic_word(self, z6_keys, sym3_keys):
        pk6, sk6 = z6_keys
        pk3, _ = sym3_keys
        foreign = encrypt_general(pk3, pk3.group.element(1), random.Random(0))
        with pytest.raises(MalformedWord):
            decrypt_general(sk6, pk6, foreign)


class TestHomomorphism:
    @pytest.mark.parametrize("fixture", ["sym3_keys", "z6_keys"])
    def test_products(self, fixture, request):
        pk, sk = request.getfixturevalue(fixture)
        H = pk.group
        rng = random.Random(21)
        for _ in range(500):
            a = H.element(rng.randrange(H.order))
            b = H.element(rng.randrange(H.order))
            ca = encrypt_general(pk, a, rng)
            cb = encrypt_general(pk, b, rng)
            prod = mult_ciphertexts_general(pk, ca, cb)
            assert decrypt_general(sk, pk, prod).index == (a * b).index
            assert len(prod.word) <= len(ca.word) + len(cb.word)

    def test_identity_operand(self, sym3_keys):
        pk, sk = sym3_keys
        rng = random.Random(2)
        c = encrypt_general(pk, pk.group.element(4), rng)
        e = GeneralCiphertext(pk.transversal_word(0))
        assert mult_ciphertexts_general(pk, c, e).word == c.word

    def test_inverse_pair_cancels(self, sym3_keys):
        pk, sk = sym3_keys
        H = pk.group
        rng = random.Random(3)
        h = H.element(3)
        c1 = encrypt_general(pk, h, rng)
        c2 = encrypt_general(pk, h.inverse(), rng)
        prod = mult_ciphertexts_general(pk, c1, c2)
        assert decrypt_general(sk, pk, prod).index == 0


class TestSampleA:
    def test_zero_lengths(self, sym3_keys):
        pk, _ = sym3_keys
        a, b = sample_A(pk, random.Random(0), phi_steps=0, psi_length=0)
        assert len(a) == 0 and len(b) == 0

    def test_single_psi_letter_closed_off(self, sym3_keys):
        pk, _ = sym3_keys
        a, b = sample_A(pk, random.Random(1), phi_steps=0, psi_length=1)
        assert len(b) in (1, 2)  # second letter cancels the image if needed

    @pytest.mark.parametrize("sizes", [{"phi_steps": -1}, {"psi_length": -2}])
    def test_negative_sizes_rejected(self, sym3_keys, z6_keys, sizes):
        with pytest.raises(Error):
            sample_A(sym3_keys[0], random.Random(0), **sizes)
        for pk, _ in (sym3_keys, z6_keys):  # z6 takes the one-factor path
            with pytest.raises(Error):
                encrypt_general(pk, pk.group.element(1), random.Random(0), **sizes)

    def test_pairs_map_into_kernel(self, sym3_keys, z6_keys):
        for pk, sk in (sym3_keys, z6_keys):
            fam = pk.family
            rng = random.Random(4)
            for _ in range(40):
                a, b = sample_A(pk, rng, phi_steps=3, psi_length=2)
                word = combined_P(fam, a, b)
                k = phi_map(word, sk.factors, pk.generators)
                assert psi_map(k, pk.group).index == 0

    def test_phi_part_is_random_phi_witness(self, sym3_keys):
        # the same draws give the same triples
        pk, _ = sym3_keys
        for seed in range(20):
            a, _ = sample_A(pk, random.Random(seed), phi_steps=seed, psi_length=0)
            assert a == random_phi_witness(pk.family, seed, random.Random(seed))


class TestOnePassEncrypt:
    """The multi-factor path of encrypt_general normalizes the sampled
    witnesses and the representative in one pass; the word must be the one
    the composition gives, byte for byte."""

    SIZES = [(0, 0), (1, 0), (0, 3), (4, 2), (None, None)]

    @pytest.mark.parametrize("k,bits", [(3, 8), (4, 12), (5, 16)])
    def test_equals_combined_P_times_representative(self, k, bits):
        pk, _ = keygen_general(sym(k), bits, random.Random(140 + k))
        assert pk.family.count > 1
        for h in pk.group.elements():
            for s, (steps, length) in enumerate(self.SIZES):
                sizes = {"phi_steps": steps, "psi_length": length}
                seed = 10 * h.index + s
                encrypt_rng, sample_rng = random.Random(seed), random.Random(seed)
                got = encrypt_general(pk, h, encrypt_rng, **sizes)
                a, b = sample_A(pk, sample_rng, **sizes)
                want = g_multiply(combined_P(pk.family, a, b),
                                  pk.transversal_word(h.index))
                assert got.word == want, (k, h.index, sizes)
                # encryption draws exactly sample_A's numbers
                assert encrypt_rng.random() == sample_rng.random(), (k, h.index, sizes)


class TestOneInversePerFactor:
    """Encryption defers the x^-1 letters of its phi witnesses and inverts
    all the x values of a factor at once (Montgomery's trick): at most one
    modular inverse per factor per call, however many words the call
    makes.  A call for several elements gives the words, and leaves the rng
    in the state, of one ``encrypt_general`` per element in turn."""

    SIZES = [{"phi_steps": 4, "psi_length": 2}, {}]

    @pytest.fixture(scope="class")
    def sym5(self):
        """A Sym(5) key (two factors) and the Barrington program of a
        6-input OR/AND chain: the benchmark's circuit-deep shape."""
        pk, _ = keygen_general(sym(5), 16, random.Random(261))
        names = [f"x{k}" for k in range(1, 7)]
        lines, acc = ["INPUTS " + " ".join(names)], names[0]
        for k, name in enumerate(names[1:], start=1):
            lines.append(f"g{k} = {'OR' if k % 2 else 'AND'} {acc} {name}")
            acc = f"g{k}"
        program = compile_barrington(
            parse_circuit("\n".join(lines + [f"OUTPUT {acc}"]) + "\n"), pk.group)
        assert pk.family.count == 2 and len(program) == 94
        return pk, program

    @staticmethod
    def one_by_one(pk, elements, rng, sizes):
        return [encrypt_general(pk, h, rng, **sizes).word for h in elements]

    @pytest.mark.parametrize("sizes", SIZES + [{"phi_steps": 0, "psi_length": 2}])
    def test_encrypt_program(self, sym5, sizes, inverse_count):
        pk, program = sym5
        got_rng, want_rng = random.Random(262), random.Random(262)
        inverse_count[0] = 0
        ep = encrypt_program(pk, program, got_rng, **sizes)
        inverses = inverse_count[0]
        assert inverses == (0 if sizes.get("phi_steps") == 0 else pk.family.count)
        elements = [pk.group.element(el) for el, _ in program.instructions]
        assert [word for word, _ in ep.instructions] == self.one_by_one(
            pk, elements, want_rng, sizes)
        assert [var for _, var in ep.instructions] == [
            var for _, var in program.instructions]
        assert got_rng.random() == want_rng.random()

    def test_one_factor_program(self, z6_keys, inverse_count):
        pk, _ = z6_keys
        program = GroupProgram(pk.group, ((1, 0), (5, 1), (0, 2), (3, 0)), 1, 2)
        got_rng, want_rng = random.Random(263), random.Random(263)
        ep = encrypt_program(pk, program, got_rng)
        assert inverse_count[0] == 0
        elements = [pk.group.element(el) for el, _ in program.instructions]
        assert [word for word, _ in ep.instructions] == self.one_by_one(
            pk, elements, want_rng, {})
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("fixture", ["sym3_keys", "z6_keys"])
    @pytest.mark.parametrize("sizes", SIZES)
    def test_inputs_message(self, fixture, sizes, request, inverse_count):
        pk, sk = request.getfixturevalue(fixture)
        count = pk.family.count
        elements = [*pk.group.elements()] * 3
        for inputs in (elements, elements[:1], []):
            got_rng, want_rng = random.Random(264), random.Random(264)
            inverse_count[0] = 0
            text = InputAlice(sk, pk, inputs, got_rng, **sizes).inputs_message()
            assert inverse_count[0] <= (0 if count == 1 else count)
            words = self.one_by_one(pk, inputs, want_rng, sizes)
            assert text == "\n".join(map(format_gword, words)) + "\n"
            assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("sizes", SIZES + [{"phi_steps": 0, "psi_length": 0}])
    def test_each_call(self, sym5, z6_keys, sizes, inverse_count):
        for pk, _ in (sym5, z6_keys):
            count = pk.family.count
            rng = random.Random(265)
            for h in pk.group.elements():
                inverse_count[0] = 0
                encrypt_general(pk, h, rng, **sizes)
                assert inverse_count[0] <= (0 if count == 1 else count), h.index
                inverse_count[0] = 0
                sample_A(pk, rng, **sizes)
                assert inverse_count[0] <= count, h.index
            for steps in (0, 1, 4, 240):
                inverse_count[0] = 0
                witness = random_phi_witness(pk.family, steps, rng)
                assert inverse_count[0] <= count
                # an inverse exactly when some step drew an x
                assert (inverse_count[0] > 0) == any(not a0 for _, _, a0 in witness)


class TestPublicTail:
    """``encrypt_general`` ends each word with its psi syllables and the
    representative, written as raw public transversal letters R_i[e], and
    only letters facing a seam can merge.  So the public key alone reads h
    off the trailing run of such letters far more often than chance."""

    @staticmethod
    def read_tail(pk, word):
        """The product in H of the trailing run of transversal letters."""
        H = pk.group
        syllable = {(i, r): (i, e) for i, f in enumerate(pk.family.factors, start=1)
                    for e, r in enumerate(f.transversal)}
        run = []
        for letter in reversed(word.letters):
            if letter not in syllable:
                break
            run.append(syllable[letter])
        acc = H.identity
        for i, e in reversed(run):
            acc = H.mul(acc, H.power(pk.generators[i - 1], e))
        return acc

    # hits of 300 at key seed 5, rng seed 7: 93 for Sym(5) (chance 2.5),
    # 136 for Sym(3) (chance 50)
    @pytest.mark.parametrize("k,least", [(5, 75), (3, 120)])
    def test_public_key_reads_the_tail(self, k, least):
        pk, _ = keygen_general(sym(k), 16, random.Random(5))
        H, rng = pk.group, random.Random(7)
        hits = 0
        for _ in range(300):
            h = H.element(rng.randrange(H.order))
            c = encrypt_general(pk, h, rng, phi_steps=4, psi_length=2)
            hits += self.read_tail(pk, c.word) == h.index
        assert hits >= least


class TestEmptyPhiWord:
    """Each step of ``random_phi_witness`` skips its preimage letter x0
    with probability 1/(count+1).  When every step skips it, the witness
    is nested conjugations x^-1 ... x that cancel, so ``sample_A``'s phi
    part evaluates to the empty word: with probability (1/3)**4 at phi 4
    over two factors.  A ciphertext then carries no random letter."""

    def test_empty_exactly_when_no_preimage_letter(self):
        pk, _ = keygen_general(sym(5), 16, random.Random(5))
        assert pk.family.count == 2
        rng, draws, empty = random.Random(7), 3000, 0
        for _ in range(draws):
            a, _ = sample_A(pk, rng, phi_steps=4, psi_length=2)
            no_x0 = not any(is_a0 for _, _, is_a0 in a)
            assert p_phi(pk.family, a).is_identity == no_x0, a
            empty += no_x0
        # expected draws / 81 = 37.0, standard deviation 6.0; 41 at these seeds
        assert 7 <= empty <= 67, empty


class TestWorkCounts:
    """Deterministic counts of the number theory an encryption or a
    decryption does, so a regression shows without timing noise."""

    @staticmethod
    def count_jacobi(monkeypatch):
        """The moduli of the Jacobi symbols computed from now on, in order."""
        moduli = []

        def counting_jacobi(a, n):
            moduli.append(n)
            return jacobi(a, n)

        monkeypatch.setattr(cyclic, "jacobi", counting_jacobi)
        return moduli

    def test_encrypt_program_computes_no_jacobi_symbol(self, monkeypatch):
        from ghcrypt.barrington import compile_barrington
        from ghcrypt.circuit import parse_circuit
        from ghcrypt.encsim import encrypt_program

        pk, _ = keygen_general(sym(5), 16, random.Random(145))
        assert any(pk.family.order(i) % 2 == 0
                   for i in range(1, pk.family.count + 1))
        circuit = parse_circuit("INPUTS x1 x2 x3\ng1 = OR x1 x2\n"
                                "g2 = AND g1 x3\nOUTPUT g2\n")
        program = compile_barrington(circuit, pk.group)
        moduli = self.count_jacobi(monkeypatch)
        ep = encrypt_program(pk, program, random.Random(146),
                             phi_steps=4, psi_length=2)
        assert len(ep.instructions) == len(program.instructions) > 0
        assert moduli == []

    def test_decrypt_computes_one_jacobi_symbol_per_even_order_letter(
            self, monkeypatch):
        import builtins

        pk, sk = keygen_general(sym(5), 16, random.Random(147))
        euler = {(fsk.q - 1) // 2 for fsk in sk.factors}
        rng = random.Random(148)
        words = [encrypt_general(pk, h, rng, phi_steps=4, psi_length=2)
                 for h in pk.group.elements()]
        moduli = self.count_jacobi(monkeypatch)
        exponents = []

        def counting_pow(*args):
            exponents.append(args[1])
            return builtins.pow(*args)

        monkeypatch.setattr(cyclic, "pow", counting_pow, raising=False)
        for h, c in zip(pk.group.elements(), words):
            even = sum(pk.family.order(l.factor) % 2 == 0 for l in c.word.letters)
            before = len(moduli)
            assert decrypt_general(sk, pk, c).index == h.index
            assert len(moduli) - before == even
        assert moduli
        assert euler.isdisjoint(exponents)

    @staticmethod
    def protocol_sides(seed):
        """A Sym(5) key pair with factors of even and of odd order, Alice's
        encrypted program of a 3-input chain, and Bob's result word for
        input 111."""
        from ghcrypt.circuit import parse_circuit
        from ghcrypt.encsim import CircuitAlice, CircuitBob

        pk, sk = keygen_general(sym(5), 16, random.Random(seed))
        parities = {pk.family.order(i) % 2 for i in range(1, pk.family.count + 1)}
        assert parities == {0, 1}
        circuit = parse_circuit("INPUTS x1 x2 x3\ng1 = OR x1 x2\n"
                                "g2 = AND g1 x3\nOUTPUT g2\n")
        alice = CircuitAlice(sk, pk, circuit, random.Random(seed + 1),
                             phi_steps=4, psi_length=2)
        bob = CircuitBob(pk, (1, 1, 1))
        return pk, sk, alice, bob, alice.program_message()

    @staticmethod
    def even_and_odd(pk, letters):
        """The factors of these letters of even order, in order, and the
        number of odd-order letters."""
        even = [i for i in letters if pk.family.order(i) % 2 == 0]
        return even, len(letters) - len(even)

    def test_key_owner_reads_a_word_without_jacobi_symbols_mod_n(self, monkeypatch):
        # and mod q_i only for the letters of even-order factors
        pk, sk, alice, bob, program = self.protocol_sides(171)
        word = bob.evaluation_message(program)
        even, odd = self.even_and_odd(
            pk, [int(token.split(":")[0]) for token in word.split()])
        assert even and odd
        moduli = self.count_jacobi(monkeypatch)
        assert alice.result_message(word)[1] == 1
        assert not {f.n for f in pk.family.factors} & set(moduli)
        assert moduli == [sk.factors[i - 1].q for i in even]

    def test_bob_checks_only_even_order_letters_mod_n(self, monkeypatch):
        pk, _, _, bob, program = self.protocol_sides(172)
        even, odd = self.even_and_odd(
            pk, [int(token.split(":")[0])
                 for line in program.splitlines()[1:] for token in line.split()[1:]
                 if token != "e"])
        assert even and odd
        moduli = self.count_jacobi(monkeypatch)
        bob.evaluation_message(program)
        assert moduli == [pk.family.public(i).n for i in even]


def outcome(read, text):
    """The element index a reader returns for text, or the class and
    message of the domain error it raises."""
    try:
        return read(text).index
    except Error as exc:
        return type(exc), str(exc)


class TestOwnerReader:
    """``decrypt_general_text`` reads every text as ``parse_gword`` and then
    ``decrypt_general`` do: the same element, or the same error."""

    @staticmethod
    def readers(pk, sk):
        """The public reader and the key owner's, as functions of the text."""
        return (lambda t: decrypt_general(sk, pk, GeneralCiphertext(parse_gword(t, pk.family))),
                lambda t: decrypt_general_text(sk, pk, t))

    @staticmethod
    def hand_built(pk, rng):
        """Texts that are not normal forms: adjacent same-factor letters,
        cancelling pairs, letters i:1, comments and tabs."""
        texts = ["e", "e  # the identity\n", "1:1", "1:1\t1:1"]
        for _ in range(40):
            letters = []
            for _ in range(rng.randrange(1, 8)):
                i = rng.randrange(1, pk.family.count + 1)
                fpk = pk.family.public(i)
                v = pow(rng.randrange(2, fpk.n), fpk.m, fpk.n) * \
                    fpk.transversal[rng.randrange(fpk.m)] % fpk.n
                kind = rng.randrange(4)
                if kind == 0:    # a cancelling pair
                    letters += [f"{i}:{v}", f"{i}:{mod_inverse(v, fpk.n)}"]
                elif kind == 1:  # two adjacent letters of one factor
                    letters += [f"{i}:{v}", f"{i}:{fpk.transversal[1]}"]
                elif kind == 2:
                    letters.append(f"{i}:1")
                else:
                    letters.append(f"{i}:{v}")
            sep = rng.choice([" ", "\t", "\n", " # c\n"])
            texts.append(sep.join(letters) + "\n")
        return texts

    @pytest.mark.parametrize("H,bits,seed", [(sym(3), 16, 151), (sym(5), 16, 152),
                                             (cyclic_group(6), 16, 153),
                                             (cyclic_group(5), 12, 154)],
                             ids=["sym3", "sym5", "z6", "z5"])
    def test_same_element(self, H, bits, seed):
        pk, sk = keygen_general(H, bits, random.Random(seed))
        rng = random.Random(seed + 1000)
        public, owner = self.readers(pk, sk)
        words = [encrypt_general(pk, h, rng, phi_steps=4, psi_length=2)
                 for h in H.elements() for _ in range(2)]
        products = [mult_ciphertexts_general(pk, rng.choice(words), rng.choice(words))
                    for _ in range(20)]
        texts = [format_gword(c.word) for c in words + products]
        texts += self.hand_built(pk, rng)
        for text in texts:
            want = outcome(public, text)
            assert isinstance(want, int), (text, want)
            assert outcome(owner, text) == want, text

    @pytest.mark.parametrize("H,seed", [(sym(3), 161), (sym(5), 162),
                                        (cyclic_group(6), 163),
                                        (cyclic_group(5), 164)],
                             ids=["sym3", "sym5", "z6", "z5"])
    def test_same_error(self, H, seed):
        pk, sk = keygen_general(H, 16, random.Random(seed))
        public, owner = self.readers(pk, sk)
        good = format_gword(encrypt_general(pk, H.element(1), random.Random(seed)).word)
        texts = ["", "# only a comment\n", "e e", "1:", ":5", "1:x", "0:5",
                 f"{pk.family.count + 1}:5", good + " 1:0 1:x", good + " 1:x 1:0"]
        for i, (fpk, fsk) in enumerate(zip(pk.family.factors, sk.factors), start=1):
            v = fpk.transversal[1]
            bad = [0, fpk.n, v + fpk.n, -v, fsk.p, fsk.q, fpk.n - fsk.p]
            if fpk.m % 2 == 0:
                # two letters of Jacobi symbol -1 whose product is a member:
                # normalize would merge them into one good letter
                u = jacobi_minus_one(fpk.n)
                w = next(w for w in range(u + 1, fpk.n)
                         if jacobi(w, fpk.n) == -1 and gcd(w, fpk.n) == 1)
                assert jacobi(u * w % fpk.n, fpk.n) == 1
                bad.append(u)
                texts.append(f"{i}:{u} {i}:{w}")
                texts.append(f"{good} {i}:{u} {i}:{w} {good}")
            for b in bad:
                texts += [f"{i}:{b}", f"{good} {i}:{b}", f"{i}:{b} {good}",
                          f"{i}:{b} 1:x", f"{i}:{b}\t{i}:{b}"]
        for text in texts:
            want = outcome(public, text)
            assert not isinstance(want, int), (text, want)
            assert outcome(owner, text) == want, text

    def test_member_of_uncovered_coset(self):
        # a key pair whose order-3 factor has R[2] in R[1]'s coset: its
        # public key loads (no public check can tell), its secret key does
        # not; built in memory, the old R[2] is a member that decrypts to
        # no coset, and both readers say so with decrypt_cyclic's NotInImage
        pk, sk = keygen_general(sym(3), 16, random.Random(33))
        i = next(i for i, f in enumerate(pk.family.factors, start=1) if f.m == 3)
        fpk = pk.family.public(i)
        r = fpk.transversal
        moved = {i: {"transversal": (r[0], r[1], r[1] * pow(5, 3, fpk.n) % fpk.n)}}
        loaded = parse_general_pk(tampered_pk_text(pk, moved))
        with pytest.raises(FormatError, match=f"factor {i}: .* one coset"):
            parse_general_sk(format_general_sk(sk), loaded)
        public, owner = self.readers(tampered_pk(pk, moved), sk)
        for text in (f"{i}:{r[2]}", f"# c\n{i}:{r[2]}\n"):
            want = outcome(public, text)
            assert want == (cyclic.NotInImage, f"{r[2]} lies in no transversal coset")
            assert outcome(owner, text) == want, text


class TestInverseP:
    def test_empty_word(self, sym3_keys):
        pk, sk = sym3_keys
        from ghcrypt.freeprod import empty_word
        res = inverse_P_general(sk, pk, empty_word(pk.family), random.Random(0))
        assert res is not None
        a, b = res
        assert len(a) == 0 and len(b) == 0

    def test_kernel_word_reproduced(self, sym3_keys):
        pk, sk = sym3_keys
        fam = pk.family
        rng = random.Random(31)
        H = pk.group
        for _ in range(200):
            h = H.element(rng.randrange(H.order))
            c1 = encrypt_general(pk, h, rng, phi_steps=2, psi_length=2)
            c2 = encrypt_general(pk, h.inverse(), rng, phi_steps=2, psi_length=2)
            word = mult_ciphertexts_general(pk, c1, c2).word
            res = inverse_P_general(sk, pk, word, rng)
            assert res is not None
            a, b = res
            assert combined_P(fam, a, b) == word

    def test_non_kernel_rejected(self, sym3_keys):
        pk, sk = sym3_keys
        word = pk.transversal_word(2)
        assert inverse_P_general(sk, pk, word, random.Random(0)) is None

    def test_one_factor_key(self, z6_keys):
        pk, sk = z6_keys
        fam = pk.family
        rng = random.Random(15)
        c = encrypt_general(pk, pk.group.element(0), rng)
        res = inverse_P_general(sk, pk, c.word, rng)
        assert res is not None
        a, b = res
        assert combined_P(fam, a, b) == c.word
        ch = encrypt_general(pk, pk.group.element(2), rng)
        assert inverse_P_general(sk, pk, ch.word, rng) is None

    @pytest.mark.parametrize("fixture,other", [("sym3_keys", "z6_keys"),
                                               ("z6_keys", "sym3_keys")])
    def test_foreign_word_rejected(self, fixture, other, request):
        pk, sk = request.getfixturevalue(fixture)
        pk_other, _ = request.getfixturevalue(other)
        rng = random.Random(6)
        one_letter = pk_other.transversal_word(1)
        encrypted = encrypt_general(pk_other, pk_other.group.element(1), rng)
        assert len(one_letter) == 1
        for word in (one_letter, encrypted.word):
            with pytest.raises(MalformedWord):
                inverse_P_general(sk, pk, word, rng)

    def test_factor_membership_agrees_with_trapdoor(self, sym3_keys):
        # deciding one-letter kernel membership through the full inversion
        # matches the factor trapdoor answer
        pk, sk = sym3_keys
        fam = pk.family
        rng = random.Random(8)
        from ghcrypt.cyclic import is_mth_power, random_unit
        from ghcrypt.freeprod import normalize
        for _ in range(500):
            i = rng.randrange(1, fam.count + 1)
            fpk, fsk = fam.public(i), sk.factors[i - 1]
            v = random_unit(fpk.n, rng)
            if fpk.m % 2 == 0:
                v = v * v % fpk.n  # stay inside the Jacobi-1 group
            word = normalize(fam, [(i, v)])
            via_inverse = inverse_P_general(sk, pk, word, rng) is not None
            assert via_inverse == is_mth_power(fsk, v)


class TestFactoringReduction:
    """Factoring ⇔ inversion for general keys: an oracle that inverts the
    general system (``inverse_P_general``) factors every n_i.  Ask it for a
    witness of the one-letter kernel word (i, a^m): G_i is abelian, so in
    the witness's projection onto factor i each x and x^-1 cancel, and the
    product b of the factor-i preimage letters has b^m = a^m (mod n_i).
    ``factor_via_inverse_oracle`` takes b as its m-th root; the secret key
    is used only inside the oracle."""

    def test_inverse_P_general_factors_every_modulus(self):
        pk, sk = keygen_general(sym(5), 32, random.Random(1))
        oracle_rng = random.Random(271)

        def root_oracle(i):
            n = pk.family.public(i).n

            def oracle(power):
                witness = inverse_P_general(sk, pk, normalize(pk.family, [(i, power)]),
                                            oracle_rng)
                if witness is None:
                    return None
                root = 1
                for j, v, is_a0 in witness[0]:
                    if j == i and is_a0:
                        root = root * v % n
                return root

            return oracle

        for i, fpk in enumerate(pk.family.factors, start=1):
            p, q = factor_via_inverse_oracle(fpk, root_oracle(i), random.Random(272 + i))
            assert p * q == fpk.n and 1 < p < fpk.n, i


class TestKeyFiles:
    @pytest.mark.parametrize("fixture", ["sym3_keys", "z6_keys"])
    def test_roundtrip(self, fixture, request):
        pk, sk = request.getfixturevalue(fixture)
        pk_text = format_general_pk(pk)
        sk_text = format_general_sk(sk)
        pk2 = parse_general_pk(pk_text)
        assert pk2.generators == pk.generators
        assert pk2.family.factors == pk.family.factors
        assert pk2.group.table == pk.group.table
        sk2 = parse_general_sk(sk_text, pk2)
        assert sk2 == sk
        assert format_general_pk(pk2) == pk_text
        # a parsed key is fully usable on its own
        rng = random.Random(50)
        h = pk2.group.element(1)
        c = encrypt_general(pk2, h, rng)
        assert decrypt_general(sk2, pk2, c).index == 1

    def test_parsed_secret_key_decrypts_without_inversions(self, sym3_keys, inverse_count):
        pk, sk = sym3_keys
        pk2 = parse_general_pk(format_general_pk(pk))
        sk2 = parse_general_sk(format_general_sk(sk), pk2)
        c = encrypt_general(pk2, pk2.group.element(4), random.Random(51))
        inverse_count[0] = 0
        assert decrypt_general(sk2, pk2, c).index == 4
        assert inverse_count[0] == 0

    def test_modulus_mismatch_names_its_factor(self, sym3_keys):
        # primes that fit factor i's order but belong to another modulus
        pk, sk = sym3_keys
        i = pk.family.count
        _, other = cyclic.keygen_cyclic(pk.family.public(i).m, 16, random.Random(52))
        lines = format_general_sk(sk).splitlines()
        lines[i] = f"FACTOR {i} {other.p} {other.q}"
        with pytest.raises(FormatError, match=f"^factor {i}: secret key does not "
                                              "match the public modulus$"):
            parse_general_sk("\n".join(lines) + "\n", pk)

    def test_bad_files(self, sym3_keys):
        pk, sk = sym3_keys
        text = format_general_pk(pk)
        with pytest.raises(FormatError):
            parse_general_pk(text.replace("GHC-GENERAL-PK", "GHC-NOPE"))
        # truncate the TRANSVERSAL section
        lines = text.strip().splitlines()
        with pytest.raises(FormatError):
            parse_general_pk("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError):
            parse_general_sk("GHC-GENERAL-SK v1\nFACTOR 1 3 5\n", pk)

    def test_tab_separated_fields(self, sym3_keys):
        # a tab after FACTOR and after each TRANSVERSAL element
        pk, _ = sym3_keys
        text = format_general_pk(pk)
        head, sep, section = text.partition("TRANSVERSAL\n")
        tabbed = head.replace("FACTOR ", "FACTOR\t") + sep + "".join(
            line.replace(" ", "\t", 1) + "\n" for line in section.splitlines())
        assert tabbed.count("\t") == pk.family.count + pk.group.order - 1
        assert format_general_pk(parse_general_pk(tabbed)) == text

    def test_noncanonical_transversal_rejected(self, sym3_keys):
        # the section repeats the FACTOR lines and must spell each word as
        # the format writes it: not as value + n, with a leading zero, as
        # two letters of the same product or with an identity letter
        pk, _ = sym3_keys
        text = format_general_pk(pk)
        line = next(line for line in text.partition("TRANSVERSAL\n")[2].splitlines()
                    if len(line.split()) == 2)
        el, token = line.split()
        factor, value = map(int, token.split(":"))
        n = pk.family.public(factor).n
        split = f"{factor}:4 {factor}:{value * mod_inverse(4, n) % n}"
        for spelling in (f"{factor}:{value + n}", f"{factor}:0{value}",
                         f"0{factor}:{value}", split, f"{token} {factor}:1"):
            with pytest.raises(FormatError):
                parse_general_pk(text.replace(line, f"{el} {spelling}"))

    def test_tampered_transversal_rejected(self, sym3_keys):
        pk, _ = sym3_keys
        text = format_general_pk(pk)
        lines = text.strip().splitlines()
        # swap the last two transversal entries' element tags
        a, b = lines[-2].split(" ", 1), lines[-1].split(" ", 1)
        swapped = lines[:-2] + [f"{a[0]} {b[1]}", f"{b[0]} {a[1]}"]
        # list the second-to-last element twice and the last not at all
        repeated = lines[:-1] + [lines[-2]]
        for bad in (swapped, repeated):
            with pytest.raises(FormatError):
                parse_general_pk("\n".join(bad) + "\n")

    def test_entry_outside_ciphertext_group_rejected(self, sym3_keys):
        # R[0] is in no TRANSVERSAL word, but p_psi uses it whenever
        # sample_A draws exponent 0
        pk, _ = sym3_keys
        i = next(i for i, f in enumerate(pk.family.factors, 1) if f.m == 2)
        fpk = pk.family.public(i)
        bad_r0 = (jacobi_minus_one(fpk.n),) + fpk.transversal[1:]
        with pytest.raises(FormatError):
            parse_general_pk(tampered_pk_text(pk, {i: {"transversal": bad_r0}}))

    def test_transversal_entry_one_rejected(self, sym3_keys):
        # R[1] = 1 is an m-th power, so the generator it should stand for
        # would not decrypt; format_general_pk writes its word as "e", and
        # the one-letter spelling "1:1" is no way around the check
        pk, _ = sym3_keys
        fpk = pk.family.public(1)
        text = tampered_pk_text(pk, {1: {"transversal": (fpk.transversal[0], 1)
                                            + fpk.transversal[2:]}})
        el = pk.generators[0]
        assert f"\n{el} e\n" in text
        for spelling in ("e", "1:1"):
            with pytest.raises(FormatError, match="R\\[e\\] for e >= 1 is 1"):
                parse_general_pk(text.replace(f"\n{el} e\n", f"\n{el} {spelling}\n"))

    def test_non_unit_entry_outside_words_rejected(self, sym3_keys):
        # R[0] of an order-3 factor: no word has an exponent-0 syllable, so
        # no TRANSVERSAL word checks this entry
        pk, sk = sym3_keys
        i = next(i for i, f in enumerate(pk.family.factors, 1) if f.m == 3)
        assert all(e for word in pk.coordinates.values() for _, e in word)
        fpk, p = pk.family.public(i), sk.factors[i - 1].p
        bad = (p,) + fpk.transversal[1:]
        with pytest.raises(FormatError):
            parse_general_pk(tampered_pk_text(pk, {i: {"transversal": bad}}))

    def test_even_modulus_rejected(self, sym3_keys):
        # an odd-order factor takes no Jacobi symbol of its letters, so an
        # even n with odd unit entries passes every word check
        pk, _ = sym3_keys
        i = next(i for i, f in enumerate(pk.family.factors, 1) if f.m == 3)
        fpk = pk.family.public(i)
        odd = tuple(r if r % 2 else r + fpk.n for r in fpk.transversal)
        text = tampered_pk_text(pk, {i: {"n": 2 * fpk.n, "transversal": odd}})
        with pytest.raises(FormatError):
            parse_general_pk(text)

    def test_repeated_factor_modulus_rejected(self, sym3_keys):
        # factor 1's whole FACTOR line copied into factor 2
        pk, _ = sym3_keys
        fpk = pk.family.public(1)
        text = tampered_pk_text(pk, {2: {"m": fpk.m, "n": fpk.n,
                                         "transversal": fpk.transversal}})
        with pytest.raises(FormatError, match="distinct"):
            parse_general_pk(text)

    def test_all_element_key_rejected(self):
        # a Sym(3) key of the former shape, one factor per nonidentity
        # element: the parser recomputes the generators, so such keys must
        # be regenerated
        text = (DATA / "sym3_all_elements_pk.txt").read_text()
        assert text.count("FACTOR") == 5
        with pytest.raises(FormatError, match="expected 2 factors, found 5"):
            parse_general_pk(text)


Z2XZ2 = FiniteGroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                    name="z2xz2")


class TestGenerators:
    def test_symmetric_groups(self):
        assert [sym(3).labels[g] for g in sym(3).generators] == ["(1 2 3)", "(2 3)"]
        # after the first, odd orders before even ones
        assert {k: [sym(k).order_of(g) for g in sym(k).generators]
                for k in (4, 5, 6)} == {4: [4, 3], 5: [6, 5], 6: [6, 5, 5]}

    @pytest.mark.parametrize("m", range(2, 13))
    def test_cyclic_groups_keep_their_first_generator(self, m):
        H = cyclic_group(m)
        first = next(i for i in range(1, m) if H.order_of(i) == m)
        assert H.generators == (first,)

    def test_one_generating_set_per_parse(self, monkeypatch):
        # a parse picks the generators once, for Light's test, and the key
        # reads them from the group; counts, not timings, so exact
        pk, _ = keygen_general(sym(5), 8, random.Random(5))
        text = format_general_pk(pk)
        spans, light = [], []

        def counting_span(*args):
            spans.append(_span(*args))
            return spans[-1]

        def counting_itemgetter(*items):
            light.append(items)
            return operator.itemgetter(*items)

        monkeypatch.setattr(groupcore, "_span", counting_span)
        monkeypatch.setattr(groupcore, "operator",
                            SimpleNamespace(itemgetter=counting_itemgetter))
        parsed = parse_general_pk(text)
        assert len(spans) == 1
        assert len(light) == 2
        assert parsed.generators == tuple(spans[0][0]) == pk.generators

    def test_noncyclic_abelian(self):
        pk, _ = keygen_general(Z2XZ2, 8, random.Random(4))
        assert [pk.family.order(i) for i in range(1, pk.family.count + 1)] == [2, 2]

    # every word of a cyclic group has one letter
    @pytest.mark.parametrize("H,longest", [
        (sym(3), 2), (sym(5), 5), (sym(6), 6), (Z2XZ2, 2),
        *((cyclic_group(m), 1) for m in range(2, 13))],
        ids=lambda v: getattr(v, "name", v))
    def test_shortest_words(self, H, longest):
        pk, _ = keygen_general(H, 8, random.Random(H.order))
        assert pk.generators == H.generators
        assert _span(H.table, pk.generators)[1] == frozenset(range(H.order))
        assert set(pk.coordinates) == set(range(H.order))
        for el, word in pk.coordinates.items():
            assert all(a[0] != b[0] for a, b in zip(word, word[1:])), word
            acc = H.identity
            for factor, e in word:
                assert 0 < e < pk.family.order(factor)
                acc = H.mul(acc, H.power(pk.generators[factor - 1], e))
            assert acc == el
        assert max(map(len, pk.coordinates.values())) <= longest
