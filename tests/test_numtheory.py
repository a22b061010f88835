import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghcrypt import numtheory
from ghcrypt.numtheory import (
    EvenModulus,
    ExhaustedRetries,
    NotAUnit,
    NotCoprime,
    crt_pair,
    factorize,
    is_probable_prime,
    jacobi,
    mod_inverse,
    mth_root_mod_prime,
    mth_roots_of_unity,
    random_prime_congruent,
    root_constants,
)

PRIMES_UNDER_100 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def odd_primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(3, limit) if sieve[p]]


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def euler_character(a: int, p: int) -> int:
    """Quadratic character oracle for odd primes."""
    r = pow(a % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


class TestGcdInverse:
    def test_gcd_examples(self):
        assert gcd(12, 18) == 6
        assert gcd(5, 0) == 5
        assert gcd(0, 0) == 0
        assert gcd(3, 4) == 1

    def test_inverse_examples(self):
        assert mod_inverse(17, 35) == 33
        assert 17 * 33 % 35 == 1
        assert mod_inverse(1, 97) == 1
        assert mod_inverse(6, 77) == 13
        assert 6 * 13 % 77 == 1

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            mod_inverse(14, 77)

    @given(st.integers(2, 10**6), st.integers(1, 10**6))
    def test_inverse_property(self, n, a):
        a %= n
        if n < 2 or gcd(a, n) != 1:
            return
        assert a * mod_inverse(a, n) % n == 1


class TestJacobi:
    def test_examples(self):
        assert jacobi(1, 77) == 1
        assert jacobi(2, 77) == -1
        assert jacobi(6, 77) == 1

    def test_zero_iff_common_factor(self):
        assert jacobi(14, 77) == 0
        assert jacobi(0, 9) == 0

    def test_even_modulus(self):
        with pytest.raises(EvenModulus):
            jacobi(3, 10)

    def test_multiplicative_against_euler_oracle(self):
        # on a product of two odd primes the symbol splits into characters
        primes = odd_primes_below(10_000)
        rng = random.Random(7)
        for _ in range(500):
            p, q = rng.sample(primes, 2)
            n = p * q
            a = rng.randrange(n)
            assert jacobi(a, n) == euler_character(a, p) * euler_character(a, q)

    def test_prime_case_is_euler(self):
        for p in PRIMES_UNDER_100:
            for a in range(p):
                assert jacobi(a, p) == euler_character(a, p)

    def test_exhaustive_small_moduli(self):
        # every odd n < 400, prime powers included, against the product of
        # Euler characters over n's factorization with multiplicity
        for n in range(1, 400, 2):
            factors = factorize(n)
            for a in range(n):
                want = 1
                for p, e in factors.items():
                    want *= euler_character(a, p) ** e
                assert jacobi(a, n) == want, (a, n)

    def test_large_moduli_and_powers_of_two(self):
        # moduli across CPython's 30-bit digit boundaries, with n = 1, 3, 5
        # and 7 (mod 8) each met by odd and even counts of factors of 2 in a
        rng = random.Random(25)
        sizes = (31, 32, 61, 64, 128, 256)
        for p_bits, q_bits in zip(sizes, sizes[1:] + sizes[:1]):
            for residue in (1, 3, 5, 7):
                p = random_prime_congruent(p_bits, 3, 8, rng)
                q = random_prime_congruent(q_bits, 3 * residue, 8, rng)
                n = p * q
                assert n % 8 == residue
                for k in range(9):
                    a = 2 ** k * rng.randrange(1, n)
                    for b in (a, a % n, a + n, a + 7 * n):
                        assert jacobi(b, n) == euler_character(b, p) * euler_character(b, q)
                assert jacobi(0, n) == 0
                assert jacobi(n, n) == 0
        for a in (0, 1, 2, 2 ** 300):
            assert jacobi(a, 1) == 1

    @given(st.integers(0, 2 ** 1099 - 1), st.integers(0, 2 ** 1100),
           st.integers(0, 2 ** 1100))
    def test_multiplicative_and_periodic(self, k, a, b):
        n = 2 * k + 1
        assert jacobi(a * b % n, n) == jacobi(a, n) * jacobi(b, n)
        assert jacobi(a + n, n) == jacobi(a, n)


class TestPrimality:
    def test_examples(self):
        assert is_probable_prime(7)
        assert not is_probable_prime(35)
        assert is_probable_prime(2**31 - 1)
        assert trial_division_prime(2**31 - 1)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 6601):
            assert not is_probable_prime(n)

    def test_agrees_with_trial_division(self):
        for n in range(2, 2000):
            assert is_probable_prime(n) == trial_division_prime(n)


class TestRandomPrimeCongruent:
    def test_unique_candidate(self):
        # only prime = 1 (mod 3) in [8, 16] is 13
        assert random_prime_congruent(3, 1, 3, random.Random(0)) == 13

    def test_small_odd_primes(self):
        for seed in range(10):
            p = random_prime_congruent(2, 1, 2, random.Random(seed))
            assert p in (5, 7)

    def test_exhausted(self):
        with pytest.raises(ExhaustedRetries):
            random_prime_congruent(1, 1, 30, random.Random(0))

    def test_properties_and_determinism(self):
        rng1, rng2 = random.Random(5), random.Random(5)
        p1 = random_prime_congruent(24, 1, 6, rng1)
        p2 = random_prime_congruent(24, 1, 6, rng2)
        assert p1 == p2
        assert p1 % 6 == 1
        assert 2**24 <= p1 <= 2**25
        assert is_probable_prime(p1)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            random_prime_congruent(8, 2, 4, random.Random(0))

    @staticmethod
    def count_candidates(monkeypatch):
        """The candidates tested for primality from now on, in order."""
        candidates = []

        def counting(n, rng=None):
            candidates.append(n)
            return is_probable_prime(n, rng=rng)

        monkeypatch.setattr(numtheory, "is_probable_prime", counting)
        return candidates

    @pytest.mark.parametrize("modulus", [1, 3, 5, 7, 15])
    def test_odd_modulus_tests_only_odd_candidates(self, monkeypatch, modulus):
        candidates = self.count_candidates(monkeypatch)
        for seed in range(8):
            for residue in {1 % modulus, -1 % modulus}:
                candidates.clear()
                p = random_prime_congruent(16, residue, modulus, random.Random(seed))
                assert candidates[-1] == p and p % modulus == residue
                assert all(c % 2 == 1 and c % modulus == residue for c in candidates)

    @staticmethod
    def whole_class_prime(bits, residue, modulus, rng):
        """Reference: the draw before odd candidates were preferred, from
        every member of the class."""
        residue %= modulus
        lo, hi = 1 << bits, 1 << (bits + 1)
        first = lo + (residue - lo) % modulus
        count = (hi - first) // modulus + 1
        for _ in range(64 * bits):
            candidate = first + modulus * rng.randrange(count)
            if is_probable_prime(candidate, rng=rng):
                return candidate
        raise AssertionError("no prime")

    @pytest.mark.parametrize("modulus", [2, 4, 6, 10, 64])
    def test_even_modulus_draws_as_before(self, modulus):
        for seed in range(8):
            for bits in (16, 32):
                for residue in {1, modulus - 1}:
                    got_rng, want_rng = random.Random(seed), random.Random(seed)
                    assert (random_prime_congruent(bits, residue, modulus, got_rng)
                            == self.whole_class_prime(bits, residue, modulus, want_rng))
                    assert got_rng.random() == want_rng.random()


class TestCrt:
    def test_examples(self):
        assert crt_pair(3, 7, 2, 5) == 17
        assert crt_pair(0, 7, 0, 5) == 0
        assert crt_pair(1, 7, 1, 11) == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            crt_pair(1, 6, 1, 9)

    @given(st.sampled_from(PRIMES_UNDER_100), st.sampled_from(PRIMES_UNDER_100),
           st.integers(0, 10**6))
    def test_roundtrip(self, p, q, x):
        if p == q:
            return
        x %= p * q
        assert crt_pair(x % p, p, x % q, q) == x


class TestFactorize:
    def test_small(self):
        assert factorize(1) == {}
        assert factorize(12) == {2: 2, 3: 1}
        assert factorize(97) == {97: 1}
        assert factorize(120) == {2: 3, 3: 1, 5: 1}


def brute_force_roots(g: int, m: int, p: int) -> list[int]:
    return [x for x in range(1, p) if pow(x, m, p) == g % p]


def root(g: int, m: int, p: int) -> int | None:
    """mth_root_mod_prime with the root steps of (m, p)."""
    return mth_root_mod_prime(g, p, root_constants(factorize(m), p)[1])


class TestMthRoot:
    def test_identity_case(self):
        for m in (1, 2, 3, 4, 6):
            assert pow(root(1, m, 7), m, 7) == 1

    def test_steps_are_the_prime_powers_of_m(self):
        for p in (2, *PRIMES_UNDER_100):
            for m in range(1, 13):
                steps = root_constants(factorize(m), p)[1]
                assert [(st.ell, st.e) for st in steps] == sorted(factorize(m).items())
                for st in steps:
                    s = factorize(p - 1).get(st.ell, 0)
                    t = (p - 1) // st.ell ** s
                    assert st.s == s
                    assert st.exponent == (pow(st.ell ** st.e, -1, t) - 1) % (p - 1)
                    # a Sylow generator exactly where ell divides p - 1
                    assert (st.b is None) == (s == 0)
                    if s:
                        assert sorted(st.digits.values()) == list(range(st.ell))
                        assert all(pow(w, st.ell, p) == 1 for w in st.digits)
                assert root(1, m, p) is not None

    def test_cube_example(self):
        # cubes mod 7 are {1, 6}; the cube roots of 6 are {3, 5, 6}
        oracle = brute_force_roots(6, 3, 7)
        assert oracle == [3, 5, 6]
        assert root(6, 3, 7) in oracle

    def test_absent(self):
        assert brute_force_roots(2, 3, 7) == []
        assert root(2, 3, 7) is None

    def test_exhaustive_small_primes(self):
        # every case of a step, s = v_ell(p - 1) = 0, < e, = e and > e, with
        # and without t = (p - 1) / ell**s = 1 (p = 3, 5, 17 and 257 for
        # ell = 2, where u = 0)
        cases = set()
        for p in (2, *odd_primes_below(130), 257):
            for m in (2, 3, 4, 5, 6, 8, 12, 16, 64):
                steps = root_constants(factorize(m), p)[1]
                for st in steps:
                    order = ("s=0" if st.s == 0 else "s<e" if st.s < st.e
                             else "s=e" if st.s == st.e else "s>e")
                    cases.add((order, p - 1 == st.ell ** st.s))
                roots: dict[int, set[int]] = {}
                for x in range(1, p):
                    roots.setdefault(pow(x, m, p), set()).add(x)
                for g in range(1, p):
                    got = mth_root_mod_prime(g, p, steps)
                    if g in roots:
                        assert got in roots[g], (g, m, p)
                    else:
                        assert got is None, (g, m, p)
        # the second entry is t = 1
        assert {("s=0", False), ("s<e", False), ("s=e", False), ("s>e", False),
                ("s<e", True), ("s=e", True), ("s>e", True)} <= cases

    def test_large_prime_power_modulus(self):
        # 2-adic valuation of p-1 is 5 here; exercises the correction walk
        p = 97  # 96 = 2^5 * 3
        for g in range(1, p):
            oracle = brute_force_roots(g, 8, p)
            got = root(g, 8, p)
            assert (got in oracle) if oracle else (got is None)

    def test_sampled_primes_to_ten_thousand(self):
        rng = random.Random(31)
        primes = [p for p in odd_primes_below(10_000) if p > 1000]
        for _ in range(20):
            p = rng.choice(primes)
            m = rng.choice([2, 3, 4, 5, 6])
            g = rng.randrange(1, p)
            oracle = set(brute_force_roots(g, m, p))
            got = root(g, m, p)
            if oracle:
                assert got in oracle
            else:
                assert got is None

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            root(0, 3, 7)


class TestRootsOfUnity:
    def test_examples(self):
        assert mth_roots_of_unity(3, 7) == [1, 2, 4]
        assert mth_roots_of_unity(1, 13) == [1]
        assert mth_roots_of_unity(2, 7) == [1, 6]

    def test_count_and_membership(self):
        for p in PRIMES_UNDER_100:
            for m in (2, 3, 4, 5, 6, 12):
                roots = mth_roots_of_unity(m, p)
                assert len(roots) == gcd(m, p - 1)
                assert all(pow(x, m, p) == 1 for x in roots)
                assert roots == sorted(set(roots))
