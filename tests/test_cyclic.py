import random
from math import gcd

import pytest

from ghcrypt.numtheory import (ExhaustedRetries, NotAUnit, jacobi, mod_inverse,
                               mth_roots_of_unity)
from ghcrypt.cyclic import (
    BadOrder,
    CyclicCiphertext,
    FactorInstance,
    NotInImage,
    OracleFailure,
    PlaintextRange,
    apply_P,
    decrypt_cyclic,
    encrypt_cyclic,
    factor_via_inverse_oracle,
    format_cyclic_pk,
    format_cyclic_sk,
    in_group_G,
    inverse_P_cyclic,
    is_mth_power,
    keygen_cyclic,
    mult_ciphertexts,
    parse_cyclic_pk,
    parse_cyclic_sk,
)
from ghcrypt.errors import FormatError


class ScriptedRng:
    """Feeds a fixed sequence to randrange; for pinning randomness in tests."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, *args):
        return self.values.pop(0)


def units(n):
    return [x for x in range(1, n) if gcd(x, n) == 1]


def power_image(n, m):
    """Exhaustive oracle: the set of m-th powers of units mod n."""
    return {pow(x, m, n) for x in units(n)}


def coset_oracle(pk, g, kernel):
    """Exhaustive oracle for the plaintext of g, or None."""
    hits = [i for i, r in enumerate(pk.transversal)
            if g * pow(r, -1, pk.n) % pk.n in kernel]
    assert len(hits) <= 1
    return hits[0] if hits else None


class TestKeygenFixtures:
    def test_n35_unrandomized(self, key35):
        pk, sk = key35
        assert pk.n == 35 and pk.m == 3
        assert pk.transversal == (1, 17, 9)  # 17^2 = 289 = 9 (mod 35)
        assert sk.m_prime == 1 and sk.exp_p == 2 and sk.exp_q == 4

    def test_n77_unrandomized(self, key77):
        pk, sk = key77
        assert pk.n == 77 and pk.m == 2
        assert pk.transversal == (1, 6)
        # oracle: 6 is a non-square mod 77 with Jacobi symbol 1
        assert 6 not in power_image(77, 2)
        assert jacobi(6, 77) == 1
        assert sk.m_prime == 2 and sk.exp_q == 5

    def test_transversal_classes_distinct(self, key35, key77):
        for pk, sk in (key35, key77):
            kernel = power_image(pk.n, pk.m)
            classes = [coset_oracle(pk, r, kernel) for r in pk.transversal]
            assert classes == list(range(pk.m))


class TestKeygenProperties:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_shapes_and_invariants(self, m):
        rng = random.Random(100 + m)
        pk, sk = keygen_cyclic(m, 10, rng)
        assert pk.n == sk.p * sk.q
        assert (sk.p - 1) % m == 0
        assert gcd(m, sk.q - 1) == gcd(m, 2)
        assert sk.q % m == (m - 1) % m  # generated in the strong form
        assert len(pk.transversal) == m
        assert all(in_group_G(pk, r) for r in pk.transversal)
        # decrypting each representative recovers its index
        for i, r in enumerate(pk.transversal):
            assert decrypt_cyclic(sk, pk, CyclicCiphertext(r)) == i

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            keygen_cyclic(1, 8, random.Random(0))

    def test_too_small_interval(self):
        with pytest.raises(ExhaustedRetries):
            keygen_cyclic(2, 1, random.Random(0))

    def test_anomalous_torsion_pair(self):
        # p = 5, q = 13: all square roots of 1 mod 65 have Jacobi symbol 1,
        # yet the transversal must still split the units into two cosets of
        # the squares.
        pk, sk = keygen_cyclic(2, 4, random.Random(8), primes=(5, 13))
        kernel = power_image(65, 2)
        for g in units(65):
            if jacobi(g, 65) != 1:
                continue
            want = coset_oracle(pk, g, kernel)
            assert want is not None
            assert decrypt_cyclic(sk, pk, CyclicCiphertext(g)) == want

    def test_forced_primes_validated(self):
        with pytest.raises(ValueError):
            keygen_cyclic(3, 4, random.Random(0), primes=(7, 9))
        with pytest.raises(ValueError):
            keygen_cyclic(3, 4, random.Random(0), primes=(5, 7))  # 5 != 1 mod 3
        with pytest.raises(ValueError):
            # 6 mod 7 has order 2, so its powers miss cosets for m = 3
            keygen_cyclic(3, 4, random.Random(0), primes=(7, 5), base=6)


class TestGroupMembership:
    def test_odd_m_accepts_any_unit(self, key35):
        pk, _ = key35
        assert all(in_group_G(pk, g) for g in units(35))

    def test_even_m_examples(self, key77):
        pk, _ = key77
        assert not in_group_G(pk, 2)  # jacobi(2,77) = -1
        assert in_group_G(pk, 1)

    def test_not_a_unit(self, key77):
        pk, _ = key77
        with pytest.raises(NotAUnit):
            in_group_G(pk, 7)


class TestEncryptDecrypt:
    def test_apply_P_examples(self, key35, key77):
        pk35, _ = key35
        pk77, _ = key77
        assert apply_P(pk35, 1).value == 1
        assert apply_P(pk35, 2).value == 8
        assert apply_P(pk77, 3).value == 9

    def test_encrypt_pinned_randomness(self, key35, key77):
        pk35, _ = key35
        # a = 2: ciphertext 2^3 * 17 = 8 * 17 = 136 = 31 (mod 35)
        c = encrypt_cyclic(pk35, 1, ScriptedRng([2]))
        assert c.value == 31
        pk77, _ = key77
        # a = 3: 9 * 6 = 54 (mod 77)
        assert encrypt_cyclic(pk77, 1, ScriptedRng([3])).value == 54
        # identity randomness on plaintext 0 returns the representative
        assert encrypt_cyclic(pk35, 0, ScriptedRng([1])).value == 1

    def test_decrypt_examples(self, key35, key77):
        pk35, sk35 = key35
        assert decrypt_cyclic(sk35, pk35, CyclicCiphertext(31)) == 1
        assert decrypt_cyclic(sk35, pk35, CyclicCiphertext(pk35.transversal[0])) == 0
        pk77, sk77 = key77
        assert decrypt_cyclic(sk77, pk77, CyclicCiphertext(54)) == 1

    def test_plaintext_range(self, key35):
        pk, _ = key35
        with pytest.raises(PlaintextRange):
            encrypt_cyclic(pk, 3, random.Random(0))

    def test_not_in_image(self, key77):
        # 2 has Jacobi symbol -1, outside the ciphertext group entirely
        pk, sk = key77
        with pytest.raises(NotInImage):
            decrypt_cyclic(sk, pk, CyclicCiphertext(2))

    @pytest.mark.parametrize("m,bits", [(2, 8), (3, 8), (5, 12)])
    def test_roundtrip_random_keys(self, m, bits):
        rng = random.Random(m * 1000 + bits)
        pk, sk = keygen_cyclic(m, bits, rng)
        for i in range(m):
            for _ in range(20):
                c = encrypt_cyclic(pk, i, rng)
                assert in_group_G(pk, c.value)
                assert decrypt_cyclic(sk, pk, c) == i


class TestPowerTest:
    def test_examples(self, key35):
        pk, sk = key35
        assert is_mth_power(sk, 8)  # 2^3
        assert is_mth_power(sk, 1)
        assert not is_mth_power(sk, 17)

    def test_agrees_with_enumeration(self, key35, key77):
        # m' = gcd(m, q-1) is 1 for odd m (no q-side test) and 2 for even m
        keys = [key35, key77]
        keys += [keygen_cyclic(m, 5, random.Random(40 + m)) for m in (3, 4, 5, 6)]
        for pk, sk in keys:
            assert sk.m_prime == gcd(pk.m, 2)
            kernel = power_image(pk.n, pk.m)
            for g in units(pk.n):
                assert is_mth_power(sk, g) == (g in kernel), g


def reference_decrypt(sk, pk, c):
    """The coset scan with a fresh inverse of R[i] at every coset."""
    for i, r in enumerate(pk.transversal):
        if is_mth_power(sk, c.value * mod_inverse(r, pk.n) % pk.n):
            return i
    raise NotInImage(f"{c.value} lies in no transversal coset")


def decrypt_outcome(decrypt, sk, pk, value):
    try:
        return decrypt(sk, pk, CyclicCiphertext(value))
    except (NotAUnit, NotInImage) as exc:
        return type(exc)


class TestDecryptScan:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 64])
    def test_matches_reference_scan(self, m):
        rng = random.Random(500 + m)
        pk, sk = keygen_cyclic(m, 10, rng)
        values = [encrypt_cyclic(pk, rng.randrange(m), rng).value for _ in range(50)]
        values += [rng.randrange(1, pk.n) for _ in range(50)]
        values += [sk.p, sk.q]
        for v in values:
            want = decrypt_outcome(reference_decrypt, sk, pk, v)
            assert decrypt_outcome(decrypt_cyclic, sk, pk, v) == want, v

    def test_inverse_transversal(self):
        pk, _ = keygen_cyclic(6, 10, random.Random(77))
        assert len(pk.inverse_transversal) == pk.m
        assert all(r * r_inv % pk.n == 1
                   for r, r_inv in zip(pk.transversal, pk.inverse_transversal))

    def test_non_unit_and_jacobi_minus_one(self):
        for m in (2, 4, 6):
            pk, sk = keygen_cyclic(m, 10, random.Random(90 + m))
            with pytest.raises(NotAUnit):
                decrypt_cyclic(sk, pk, CyclicCiphertext(sk.q))
            with pytest.raises(NotAUnit):
                decrypt_cyclic(sk, pk, CyclicCiphertext(0))
            g = next(g for g in range(2, pk.n)
                     if gcd(g, pk.n) == 1 and jacobi(g, pk.n) == -1)
            with pytest.raises(NotInImage):
                decrypt_cyclic(sk, pk, CyclicCiphertext(g))
            # the same unit times any encryption stays outside the group
            c = encrypt_cyclic(pk, 1, random.Random(m))
            with pytest.raises(NotInImage):
                decrypt_cyclic(sk, pk, mult_ciphertexts(pk, c, CyclicCiphertext(g)))

    def test_roots_of_unity_cached_per_key(self, key35):
        _, sk = key35
        assert sk.roots_of_unity == (tuple(mth_roots_of_unity(3, 7)),
                                     tuple(mth_roots_of_unity(3, 5)))
        assert sk.roots_of_unity is sk.roots_of_unity


class TestInverse:
    def test_cube_roots_of_8(self, key35):
        pk, sk = key35
        oracle = sorted(x for x in units(35) if pow(x, 3, 35) == 8)
        assert oracle == [2, 22, 32]
        seen = set()
        rng = random.Random(5)
        for _ in range(200):
            a = inverse_P_cyclic(sk, pk, 8, rng)
            assert a in oracle
            seen.add(a)
        assert seen == set(oracle)  # every root is reachable

    def test_absent(self, key35):
        pk, sk = key35
        assert inverse_P_cyclic(sk, pk, 2, random.Random(0)) is None

    def test_roots_of_unity_case(self, key35):
        pk, sk = key35
        rng = random.Random(6)
        for _ in range(20):
            a = inverse_P_cyclic(sk, pk, 1, rng)
            assert pow(a, 3, 35) == 1

    def test_root_property_random(self, key77):
        pk, sk = key77
        rng = random.Random(7)
        for _ in range(100):
            g = pow(rng.randrange(1, 77), 2, 77)
            if gcd(g, 77) != 1:
                continue
            a = inverse_P_cyclic(sk, pk, g, rng)
            assert pow(a, 2, 77) == g


class TestHomomorphism:
    def test_identity_case(self, key35):
        pk, sk = key35
        rng = random.Random(1)
        c = encrypt_cyclic(pk, 2, rng)
        one = CyclicCiphertext(1)
        assert mult_ciphertexts(pk, c, one).value == c.value

    @pytest.mark.parametrize("fixture", ["key35", "key77"])
    def test_addition_mod_m(self, fixture, request):
        pk, sk = request.getfixturevalue(fixture)
        rng = random.Random(9)
        for _ in range(100):
            i, j = rng.randrange(pk.m), rng.randrange(pk.m)
            ci, cj = encrypt_cyclic(pk, i, rng), encrypt_cyclic(pk, j, rng)
            prod = mult_ciphertexts(pk, ci, cj)
            assert in_group_G(pk, prod.value)
            assert decrypt_cyclic(sk, pk, prod) == (i + j) % pk.m


class TestFactorAttack:
    def _honest_oracle(self, pk, sk, seed):
        orng = random.Random(seed)
        return lambda v: inverse_P_cyclic(sk, pk, v, orng)

    def test_recovers_small_factors(self, key35, key77):
        for (pk, sk), expect in ((key35, {5, 7}), (key77, {7, 11})):
            instance = FactorInstance.from_public_key(pk)
            oracle = self._honest_oracle(pk, sk, 17)
            p, q = factor_via_inverse_oracle(instance, oracle, random.Random(3))
            assert {p, q} == expect
            assert p * q == pk.n

    def test_random_keys(self):
        rng = random.Random(12)
        for m in (2, 3, 4):
            pk, sk = keygen_cyclic(m, 10, rng)
            instance = FactorInstance.from_public_key(pk)
            oracle = self._honest_oracle(pk, sk, 99 + m)
            p, q = factor_via_inverse_oracle(instance, oracle, random.Random(4))
            assert {p, q} == {sk.p, sk.q}

    def test_dishonest_oracle(self, key35):
        pk, _ = key35
        instance = FactorInstance.from_public_key(pk)
        with pytest.raises(OracleFailure):
            factor_via_inverse_oracle(instance, lambda v: 3, random.Random(0))

    def test_refusing_oracle(self, key35):
        pk, _ = key35
        instance = FactorInstance.from_public_key(pk)
        with pytest.raises(OracleFailure):
            factor_via_inverse_oracle(instance, lambda v: None, random.Random(0))


class TestKeyFiles:
    def test_pk_roundtrip(self, key35):
        pk, _ = key35
        text = format_cyclic_pk(pk)
        assert text == "GHC-CYCLIC-PK v1\nm: 3\nn: 35\nR: 1 17 9\n"
        assert parse_cyclic_pk(text) == pk

    def test_sk_roundtrip(self, key35):
        pk, sk = key35
        text = format_cyclic_sk(sk)
        assert text == "GHC-CYCLIC-SK v1\np: 7\nq: 5\n"
        assert parse_cyclic_sk(text, pk) == sk

    def test_bad_files(self):
        with pytest.raises(FormatError):
            parse_cyclic_pk("GHC-CYCLIC-SK v1\np: 7\nq: 5\n")
        with pytest.raises(FormatError):
            parse_cyclic_pk("GHC-CYCLIC-PK v1\nm: 3\nn: 35\n")
        with pytest.raises(FormatError):
            parse_cyclic_pk("GHC-CYCLIC-PK v1\nm: 3\nn: 35\nR: 1 17\n")
        with pytest.raises(FormatError):
            # 14 shares a factor with 35
            parse_cyclic_pk("GHC-CYCLIC-PK v1\nm: 3\nn: 35\nR: 1 17 14\n")
        pk = parse_cyclic_pk("GHC-CYCLIC-PK v1\nm: 3\nn: 35\nR: 1 17 9\n")
        with pytest.raises(FormatError):
            # gcd(3, 7-1) = 3 violates gcd(m, q-1) = gcd(m, 2)
            parse_cyclic_sk("GHC-CYCLIC-SK v1\np: 13\nq: 7\n", pk)
        with pytest.raises(FormatError):
            # primes fit m = 3, but 13 * 5 != 35
            parse_cyclic_sk("GHC-CYCLIC-SK v1\np: 13\nq: 5\n", pk)

    def test_even_modulus(self):
        # no Jacobi symbol modulo an even n, so no ciphertext group
        with pytest.raises(FormatError):
            parse_cyclic_pk("GHC-CYCLIC-PK v1\nm: 3\nn: 70\nR: 1 17 9\n")
