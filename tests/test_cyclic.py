import random
from math import gcd

import pytest

from ghcrypt.numtheory import (ExhaustedRetries, NotAUnit, factorize, jacobi,
                               mod_inverse, mth_root_mod_prime, mth_roots_of_unity)
from ghcrypt.cyclic import (
    BadOrder,
    CyclicCiphertext,
    CyclicPublicKey,
    CyclicSecretKey,
    NotInImage,
    OracleFailure,
    PlaintextRange,
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
    random_unit,
    transversal_characters,
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
        assert sk.m_prime == 1 and sk.exp_p == 2

    def test_n77_unrandomized(self, key77):
        pk, sk = key77
        assert pk.n == 77 and pk.m == 2
        assert pk.transversal == (1, 6)
        # oracle: 6 is a non-square mod 77 with Jacobi symbol 1
        assert 6 not in power_image(77, 2)
        assert jacobi(6, 77) == 1
        assert sk.m_prime == 2

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
            keygen_cyclic(2, 4, random.Random(0), primes=(7, 7))  # not distinct

    @pytest.mark.parametrize("p,q", [(1, 35), (-1, -35), (7, 2), (2, 7), (7, 7)])
    def test_from_primes_needs_distinct_odd_numbers(self, p, q):
        # p = 1 and p = -1 fit every m; 2 is prime but even
        for m in (2, 3):
            with pytest.raises(ValueError):
                CyclicSecretKey.from_primes(p, q, m)


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
        assert not in_group_G(pk, 7)
        # 78 = -76 = 1 (mod 77), but neither is written as a residue 1..76
        assert not any(in_group_G(pk, g) for g in (0, 77, 78, -76))


class TestEncryptDecrypt:
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
        # R[0] = 1, so plaintext 0 is the bare a^m
        assert encrypt_cyclic(pk35, 0, ScriptedRng([2])).value == 8
        assert encrypt_cyclic(pk77, 0, ScriptedRng([3])).value == 9

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

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 64])
    def test_shared_characters_match_reference_scan(self, m):
        # one characters list for a mixed sequence, kept across exceptions
        rng = random.Random(600 + m)
        pk, sk = keygen_cyclic(m, 10, rng)
        values = [encrypt_cyclic(pk, rng.randrange(m), rng).value for _ in range(60)]
        values += [rng.randrange(1, pk.n) for _ in range(60)]
        while len(values) < 140:
            g = rng.randrange(2, pk.n)
            if gcd(g, pk.n) == 1 and jacobi(g, pk.n) == -1:
                values.append(g)
        values += [0, sk.p, sk.q, 2 * sk.p, pk.n + pk.transversal[m - 1]]
        rng.shuffle(values)
        characters = []

        def shared(sk, pk, c):
            return decrypt_cyclic(sk, pk, c, characters)

        outcomes = set()
        for v in values:
            want = decrypt_outcome(reference_decrypt, sk, pk, v)
            assert decrypt_outcome(shared, sk, pk, v) == want, v
            outcomes.add(want if isinstance(want, type) else int)
        # every unit lies in the ciphertext group for odd m
        assert outcomes == {int, NotAUnit} | ({NotInImage} if m % 2 == 0 else set())
        assert characters[0] == pow(pk.transversal[0], (sk.p - 1) // m, sk.p)
        assert len(characters) <= m

    @pytest.mark.parametrize("fixture", ["key35", "key77"])
    def test_first_match_when_two_entries_share_a_coset(self, fixture, request):
        pk0, sk = request.getfixturevalue(fixture)
        n, m = pk0.n, pk0.m
        # R[1] times an m-th power: the coset of R[1] appears twice, the
        # coset of R[0] (m = 2) or R[2] (m = 3) not at all
        twin = pk0.transversal[1] * pow(2, m, n) % n
        for transversal in ((twin,) + pk0.transversal[1:],
                            pk0.transversal[1:] + (twin,)):
            pk = CyclicPublicKey(m=m, n=n, transversal=transversal)
            characters = []
            for v in units(n):
                want = decrypt_outcome(reference_decrypt, sk, pk, v)
                assert decrypt_outcome(decrypt_cyclic, sk, pk, v) == want, v
                got = decrypt_outcome(
                    lambda sk, pk, c: decrypt_cyclic(sk, pk, c, characters), sk, pk, v)
                assert got == want, v
            for v in (twin, pk0.transversal[1]):
                assert decrypt_cyclic(sk, pk, CyclicCiphertext(v)) == 0

    def test_keygen_self_check_is_linear_in_m(self, monkeypatch):
        import builtins

        from ghcrypt import cyclic
        calls = [0]

        def counting_pow(*args):
            calls[0] += 1
            return builtins.pow(*args)

        monkeypatch.setattr(cyclic, "pow", counting_pow, raising=False)
        m = 64
        keygen_cyclic(m, 16, random.Random(64))
        assert calls[0] < 4 * m

    @pytest.mark.parametrize("m", [2, 3, 6, 64])
    def test_keygen_self_check_rejects_a_transversal_in_one_coset(self, monkeypatch, m):
        from ghcrypt import cyclic
        from ghcrypt.errors import Error

        # base 1 puts every R[i] = s_i^m in the coset of the m-th powers
        monkeypatch.setattr(cyclic, "_admissible_base", lambda m, p, q, rng: 1)
        with pytest.raises(Error, match="internal keygen failure: bad transversal"):
            keygen_cyclic(m, 16, random.Random(m))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 64])
    def test_transversal_characters_are_plain(self, m):
        pk, sk = keygen_cyclic(m, 16, random.Random(700 + m))
        want = [pow(r, (sk.p - 1) // m, sk.p) for r in pk.transversal]
        assert transversal_characters(sk, pk) == want
        assert len(set(want)) == m

    def test_parsed_secret_key_decrypts_without_inversions(self, inverse_count):
        from ghcrypt import numtheory
        pk, sk = keygen_cyclic(6, 16, random.Random(78))
        pk2 = parse_cyclic_pk(format_cyclic_pk(pk))
        sk2 = parse_cyclic_sk(format_cyclic_sk(sk), pk2)
        c = encrypt_cyclic(pk2, 5, random.Random(79))
        inverse_count[0] = 0
        assert decrypt_cyclic(sk2, pk2, c) == 5
        assert len(set(transversal_characters(sk2, pk2))) == 6
        assert inverse_count[0] == 0
        # the counter sees mod_inverse as well
        numtheory.mod_inverse(5, pk.n)
        assert inverse_count[0] == 1

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

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12, 64])
    def test_sylow_generators_have_full_order(self, m):
        _, sk = keygen_cyclic(m, 16, random.Random(f"sylow:{m}"))
        powers = sorted(factorize(m).items())
        for prime, steps in ((sk.p, sk.root_steps[0]), (sk.q, sk.root_steps[1])):
            assert [(st.ell, st.e) for st in steps] == powers
            # every prime of m divides p - 1; only 2, for even m, divides q - 1
            with_generator = [st.ell for st in steps if st.b is not None]
            assert with_generator == ([ell for ell, _ in powers] if prime == sk.p
                                      else [2] * (m % 2 == 0))
            for st in steps:
                if st.b is not None:
                    s = factorize(prime - 1)[st.ell]
                    assert st.s == s
                    assert pow(st.b, st.ell ** s, prime) == 1
                    assert pow(st.b, st.ell ** (s - 1), prime) != 1
        assert sk.p * sk.p_inv_q % sk.q == 1


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

    def test_uniform_over_all_roots_even_m(self):
        # v2(12) = 2 > v2(6) and v2(16) = 4, so the Sylow walk runs past
        # the exponent of 2 in m on both primes
        pk, sk = keygen_cyclic(6, 4, random.Random("even-m"), primes=(13, 17))
        n = pk.n
        g = pow(5, 6, n)
        roots = sorted(x for x in units(n) if pow(x, 6, n) == g)
        assert len(roots) == 12  # gcd(6, 12) * gcd(6, 16)
        counts = dict.fromkeys(roots, 0)
        rng, samples = random.Random(46), 6000
        for _ in range(samples):
            counts[inverse_P_cyclic(sk, pk, g, rng)] += 1
        # one standard deviation of a frequency is sqrt(p (1 - p) / samples),
        # 0.0036 here; the bound is about five and a half of them
        for c in counts.values():
            assert abs(c / samples - 1 / 12) <= 0.02, counts

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 12])
    def test_rng_draws_only_the_two_roots_of_unity(self, m):
        pk, sk = keygen_cyclic(m, 16, random.Random(f"draws:{m}"))
        rng, twin = random.Random(m), random.Random()
        for _ in range(20):
            power = pow(random_unit(pk.n, rng), m, pk.n)
            twin.setstate(rng.getstate())
            assert inverse_P_cyclic(sk, pk, power, rng) is not None
            twin.choice(sk.roots_of_unity[0])
            twin.choice(sk.roots_of_unity[1])
            assert rng.getstate() == twin.getstate()
            # R[1] times an m-th power has no m-th root, and draws nothing
            assert inverse_P_cyclic(sk, pk, power * pk.transversal[1], rng) is None
            assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("m", [2, 3, 6, 64])
    def test_roots_factorize_nothing(self, monkeypatch, m):
        # the prime powers of m come with the key, not with each root
        from ghcrypt import numtheory
        pk, sk = keygen_cyclic(m, 16, random.Random(f"factorize:{m}"))
        calls = [0]

        def counting_factorize(n):
            calls[0] += 1
            return factorize(n)

        monkeypatch.setattr(numtheory, "factorize", counting_factorize)
        rng = random.Random(m)
        for _ in range(10):
            power = pow(random_unit(pk.n, rng), m, pk.n)
            assert pow(inverse_P_cyclic(sk, pk, power, rng), m, pk.n) == power
            assert inverse_P_cyclic(sk, pk, power * pk.transversal[1], rng) is None
        assert calls[0] == 0

    @pytest.mark.parametrize("m, bits", [(64, 256), (6, 32)])
    def test_one_full_size_power_per_step(self, monkeypatch, m, bits):
        # a power is full-size when its exponent has at least half the
        # modulus's bits; a root makes one per prime power of m and side
        from ghcrypt import numtheory
        pk, sk = keygen_cyclic(m, bits, random.Random(f"powers:{m}"))
        calls = []

        def counting(base, exp, mod=None):
            calls.append((exp, mod))
            return pow(base, exp, mod)

        monkeypatch.setattr(numtheory, "pow", counting, raising=False)
        rng = random.Random(m)
        for prime, steps in zip((sk.p, sk.q), sk.root_steps):
            # t > 1 in every step, so no exponent is negative
            assert all(prime - 1 != st.ell ** st.s for st in steps)
            for k in range(40):
                g = random_unit(pk.n, rng) % prime
                if k % 2 == 0:
                    g = pow(g, m, prime)
                calls.clear()
                x = mth_root_mod_prime(g, prime, steps)
                full = sum(exp >= 0 and exp.bit_length() >= mod.bit_length() // 2
                           for exp, mod in calls)
                if x is None:
                    assert k % 2 and 1 <= full <= len(steps)
                else:
                    assert pow(x, m, prime) == g
                    assert full == len(steps), calls
                assert all(exp >= 0 for exp, _ in calls)

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
            oracle = self._honest_oracle(pk, sk, 17)
            p, q = factor_via_inverse_oracle(pk, oracle, random.Random(3))
            assert {p, q} == expect
            assert p * q == pk.n

    def test_random_keys(self):
        rng = random.Random(12)
        for m in (2, 3, 4):
            pk, sk = keygen_cyclic(m, 10, rng)
            oracle = self._honest_oracle(pk, sk, 99 + m)
            p, q = factor_via_inverse_oracle(pk, oracle, random.Random(4))
            assert {p, q} == {sk.p, sk.q}

    def test_dishonest_oracle(self, key35):
        pk, _ = key35
        with pytest.raises(OracleFailure):
            factor_via_inverse_oracle(pk, lambda v: 3, random.Random(0))

    def test_refusing_oracle(self, key35):
        pk, _ = key35
        with pytest.raises(OracleFailure):
            factor_via_inverse_oracle(pk, lambda v: None, random.Random(0))


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

    def test_comments_and_blank_lines(self, key35):
        pk, sk = key35
        pk_text = "# key35\nGHC-CYCLIC-PK v1\n\nm: 3  # order\nn: 35\nR: 1 17 9\n"
        sk_text = "GHC-CYCLIC-SK v1  # secret\n#\np: 7\n\nq: 5\n"
        assert parse_cyclic_pk(pk_text) == parse_cyclic_pk(format_cyclic_pk(pk))
        assert parse_cyclic_sk(sk_text, pk) == parse_cyclic_sk(format_cyclic_sk(sk), pk)

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
        for r in ("1 1 9", "1 17 1"):
            with pytest.raises(FormatError, match="is 1"):
                # an entry R[e], e >= 1, of 1 leaves coset e undecryptable
                parse_cyclic_pk(f"GHC-CYCLIC-PK v1\nm: 3\nn: 35\nR: {r}\n")
        pk = parse_cyclic_pk("GHC-CYCLIC-PK v1\nm: 3\nn: 35\nR: 1 17 9\n")
        with pytest.raises(FormatError):
            # gcd(3, 7-1) = 3 violates gcd(m, q-1) = gcd(m, 2)
            parse_cyclic_sk("GHC-CYCLIC-SK v1\np: 13\nq: 7\n", pk)
        with pytest.raises(FormatError):
            # primes fit m = 3, but 13 * 5 != 35
            parse_cyclic_sk("GHC-CYCLIC-SK v1\np: 13\nq: 5\n", pk)

    def test_transversal_entries_in_one_coset(self, key35):
        # R[2] = 17 * 2^3 = 31 (mod 35) lies in R[1]'s coset: the public key
        # cannot tell, the secret key's characters can; built in memory,
        # the key pair cannot decrypt the old R[2] = 9
        pk, sk = key35
        bad = parse_cyclic_pk("GHC-CYCLIC-PK v1\nm: 3\nn: 35\nR: 1 17 31\n")
        with pytest.raises(FormatError, match="one coset"):
            parse_cyclic_sk(format_cyclic_sk(sk), bad)
        with pytest.raises(NotInImage):
            decrypt_cyclic(sk, bad, CyclicCiphertext(9))

    def test_even_modulus(self):
        # no Jacobi symbol modulo an even n, so no ciphertext group
        with pytest.raises(FormatError):
            parse_cyclic_pk("GHC-CYCLIC-PK v1\nm: 3\nn: 70\nR: 1 17 9\n")
