import functools
import random

import pytest

from ghcrypt.cyclic import OracleFailure, is_mth_power, random_unit
from ghcrypt.errors import FormatError
from ghcrypt.freeprod import (
    FactorFamily,
    GLetter,
    GWord,
    KWord,
    LetterOutOfGroup,
    combined_P,
    empty_word,
    format_gword,
    g_inverse,
    g_multiply,
    inverse_p_phi,
    k_multiply,
    kword_from_runs,
    normalize,
    p_phi,
    p_psi,
    parse_gword,
    phi_map,
    psi_map,
    random_nonkernel_value,
    random_phi_witness,
    trapdoor_oracle,
)
from ghcrypt.freeprod import _join
from ghcrypt.groupcore import cyclic_group, sym
from ghcrypt.numtheory import mod_inverse


def fixpoint_normalize(family, letters):
    """Independent oracle: merge one adjacent same-factor pair per pass
    until nothing changes."""
    word = [(l.factor, l.value) if isinstance(l, GLetter) else tuple(l)
            for l in letters]
    word = [(i, v % family.public(i).n) for i, v in word]
    changed = True
    while changed:
        changed = False
        word = [(i, v) for i, v in word if v != 1]
        for k in range(len(word) - 1):
            (i1, v1), (i2, v2) = word[k], word[k + 1]
            if i1 == i2:
                word[k:k + 2] = [(i1, v1 * v2 % family.public(i1).n)]
                changed = True
                break
    return tuple(GLetter(i, v) for i, v in word if v != 1)


def random_value(family, i, rng):
    """A uniform element of factor i's group (Jacobi 1 for even order)."""
    from math import gcd

    from ghcrypt.numtheory import jacobi
    n = family.public(i).n
    while True:
        v = rng.randrange(1, n)
        if gcd(v, n) == 1 and (family.order(i) % 2 or jacobi(v, n) == 1):
            return v


def random_raw_word(family, rng, max_len=12):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        i = rng.randrange(1, family.count + 1)
        letters.append((i, random_value(family, i, rng)))
    return letters


class TestNormalize:
    def test_empty(self, small_family):
        assert normalize(small_family, []).is_identity

    def test_merge_then_delete(self, small_family):
        # 17 * 33 = 1 (mod 35): the factor-1 pair vanishes
        w = normalize(small_family, [(1, 17), (1, 33), (2, 4)])
        assert w.letters == (GLetter(2, 4),)

    def test_already_normal(self, small_family):
        w = normalize(small_family, [(1, 2), (2, 4)])
        assert w.letters == (GLetter(1, 2), GLetter(2, 4))

    def test_cascading_merge(self, small_family):
        # after the inner pair cancels, the outer letters meet and merge
        w = normalize(small_family, [(1, 2), (2, 4), (2, 58), (1, 3)])
        assert w.letters == (GLetter(1, 6),)

    def test_idempotent_and_order_independent(self, small_family):
        rng = random.Random(11)
        for _ in range(500):
            raw = random_raw_word(small_family, rng)
            w = normalize(small_family, raw)
            assert normalize(small_family, w.letters).letters == w.letters
            assert fixpoint_normalize(small_family, raw) == w.letters

    def test_mixed_items_and_cascades(self, small_family):
        # GLetters and pairs in one input; appending part of a word's
        # inverse cancels it letter by letter, from the seam outwards
        rng = random.Random(17)
        cascades = 0
        for _ in range(500):
            raw = random_raw_word(small_family, rng)
            if rng.random() < 0.5:
                inverse = [(i, mod_inverse(v, small_family.public(i).n))
                           for i, v in reversed(raw)]
                raw += inverse[:rng.randrange(len(inverse) + 1)]
                raw += random_raw_word(small_family, rng, 3)
            mixed = [GLetter(*l) if rng.random() < 0.5 else l for l in raw]
            w = normalize(small_family, mixed)
            assert w.letters == fixpoint_normalize(small_family, mixed)
            cascades += len(raw) - len(w) >= 6
        assert cascades > 50

    def test_word_operations_return_gletters(self, small_family):
        # a GLetter equals the pair it holds, so equality alone would not
        # notice a word of plain tuples
        rng = random.Random(23)
        for _ in range(200):
            u = normalize(small_family, random_raw_word(small_family, rng))
            v = normalize(small_family, random_raw_word(small_family, rng))
            uv = g_multiply(u, v)
            for w in (u, uv, g_multiply(uv, g_inverse(v)), g_inverse(u),
                      parse_gword(format_gword(u), small_family)):
                assert all(type(l) is GLetter for l in w.letters)

    @pytest.mark.parametrize("bad", [0, 3, -1])
    def test_bad_factor_raises_at_its_item(self, small_family, bad):
        rng = random.Random(19)
        for trial in range(50):
            raw = random_raw_word(small_family, rng)
            pos = rng.randrange(len(raw) + 1)
            raw.insert(pos, GLetter(bad, 2) if trial % 2 else (bad, 2))
            consumed = []

            def items():
                for item in raw:
                    consumed.append(item)
                    yield item

            with pytest.raises(ValueError):
                normalize(small_family, items())
            assert len(consumed) == pos + 1

    def test_subword_criterion(self, small_family):
        # inserting cancelling alien pairs does not change the one-factor
        # collapse: the normal form equals that of the factor subsequence
        rng = random.Random(13)
        for _ in range(200):
            base = [(1, rng.choice([2, 3, 4, 6, 9, 17]))
                    for _ in range(rng.randrange(1, 5))]
            word = list(base)
            for _ in range(rng.randrange(3)):
                pos = rng.randrange(len(word) + 1)
                v = rng.choice([4, 6, 9, 15])
                word[pos:pos] = [(2, v), (2, mod_inverse(v, 77))]
            w = normalize(small_family, word)
            assert w == normalize(small_family, base)


class TestWordAlgebra:
    def test_identity_laws(self, small_family, rng):
        raw = random_raw_word(small_family, rng)
        u = normalize(small_family, raw)
        e = empty_word(small_family)
        assert g_multiply(u, e) == u
        assert g_multiply(e, u) == u

    def test_inverse_law(self, small_family, rng):
        for _ in range(100):
            u = normalize(small_family, random_raw_word(small_family, rng))
            assert g_multiply(u, g_inverse(u)).is_identity
            assert g_multiply(g_inverse(u), u).is_identity

    def test_single_factor_inverse(self, small_family):
        u = normalize(small_family, [(1, 2)])
        v = normalize(small_family, [(1, 18)])  # 2 * 18 = 36 = 1 (mod 35)
        assert g_multiply(u, v).is_identity

    def test_associativity_sample(self, small_family, rng):
        for _ in range(50):
            u = normalize(small_family, random_raw_word(small_family, rng))
            v = normalize(small_family, random_raw_word(small_family, rng))
            w = normalize(small_family, random_raw_word(small_family, rng))
            assert g_multiply(g_multiply(u, v), w) == g_multiply(u, g_multiply(v, w))

    def test_length_never_exceeds_sum(self, small_family, rng):
        for _ in range(100):
            u = normalize(small_family, random_raw_word(small_family, rng))
            v = normalize(small_family, random_raw_word(small_family, rng))
            assert len(g_multiply(u, v)) <= len(u) + len(v)


class TestSeamMerge:
    """_join, behind g_multiply, the rotation of inverse_p_phi and Bob's
    fold, merges only at the seams; the reference is normalize over the
    concatenated letters."""

    def reference(self, family, *pieces):
        return normalize(family, [l for piece in pieces for l in piece]).letters

    def test_random_pairs(self, small_family):
        rng = random.Random(21)
        for _ in range(2000):
            u = normalize(small_family, random_raw_word(small_family, rng))
            v = normalize(small_family, random_raw_word(small_family, rng))
            assert g_multiply(u, v).letters == self.reference(
                small_family, u.letters, v.letters)

    def test_cascade_stops_on_merge(self, small_family):
        # v = (proper suffix of u)^-1 * w, where w starts in the factor of
        # the letter left facing the seam: the suffix cancels pair by pair,
        # then the walk ends on one merged letter
        rng = random.Random(22)
        for _ in range(1000):
            u = normalize(small_family, random_raw_word(small_family, rng, 16))
            if len(u) < 2:
                continue
            k = rng.randrange(1, len(u))
            facing = u.letters[k - 1]
            n = small_family.public(facing.factor).n
            x = random_value(small_family, facing.factor, rng)
            while x * facing.value % n == 1:
                x = random_value(small_family, facing.factor, rng)
            rest = normalize(small_family, random_raw_word(small_family, rng)).letters
            if rest and rest[0].factor == facing.factor:
                rest = rest[1:]
            w = (GLetter(facing.factor, x),) + rest
            v = GWord(small_family, g_inverse(GWord(small_family, u.letters[k:])).letters + w)
            got = g_multiply(u, v).letters
            assert got == self.reference(small_family, u.letters, v.letters)
            assert got == (u.letters[:k - 1]
                           + (GLetter(facing.factor, facing.value * x % n),) + rest)

    def rotations(self, word):
        for idx in range(len(word)):
            yield word.letters[idx + 1:], word.letters[:idx]

    def test_rotation_random_words(self, small_family):
        rng = random.Random(23)
        for _ in range(500):
            g = normalize(small_family, random_raw_word(small_family, rng))
            for tail, head in self.rotations(g):
                got = _join(small_family.factors, (tail, head))
                assert got == self.reference(small_family, tail, head)

    def test_rotation_of_kernel_words(self, small_family):
        # p_phi words are conjugates x^-1 ... x, so rotating around the
        # middle cancels across the seam
        rng = random.Random(24)
        shrank = 0
        for _ in range(300):
            g = p_phi(small_family, random_phi_witness(small_family, rng.randrange(1, 7), rng))
            for tail, head in self.rotations(g):
                got = _join(small_family.factors, (tail, head))
                assert got == self.reference(small_family, tail, head)
                shrank += len(got) < len(tail) + len(head) - 1
        assert shrank > 50

    def test_k_pieces(self, small_family):
        # up to 8 words, an empty one among them about every other time
        assert _join(small_family.factors, []) == ()
        rng = random.Random(25)
        for _ in range(1000):
            pieces = [normalize(small_family, random_raw_word(small_family, rng, 6)).letters
                      for _ in range(rng.randrange(9))]
            if rng.randrange(2):
                pieces.insert(rng.randrange(len(pieces) + 1), ())
            got = _join(small_family.factors, pieces)
            assert got == self.reference(small_family, *pieces)

    def test_alternating_inverses_cancel_the_accumulator(self, small_family):
        # w, w^-1, w, ...: every w^-1 pops the whole list; a product of two
        # pieces cancelled by one inverse pops across their seam
        rng = random.Random(26)
        for _ in range(200):
            w = normalize(small_family, random_raw_word(small_family, rng, 16))
            if w.is_identity:
                continue
            w_inv = g_inverse(w).letters
            for k in range(1, 8):
                pieces = [(w.letters, w_inv)[j % 2] for j in range(k)]
                got = _join(small_family.factors, pieces)
                assert got == (w.letters if k % 2 else ())
            v = normalize(small_family, random_raw_word(small_family, rng, 16))
            both = g_inverse(g_multiply(w, v)).letters
            assert _join(small_family.factors, (w.letters, v.letters, both)) == ()

    def test_cascade_across_pieces_stops_on_merge(self, small_family):
        # as test_cascade_stops_on_merge, with u cut into several pieces, so
        # the walk pops letters of more than one earlier piece
        rng = random.Random(27)
        cascades = 0
        for _ in range(1000):
            u = normalize(small_family, random_raw_word(small_family, rng, 16)).letters
            if len(u) < 3:
                continue
            k = rng.randrange(1, len(u) - 1)
            facing = u[k - 1]
            n = small_family.public(facing.factor).n
            x = random_value(small_family, facing.factor, rng)
            while x * facing.value % n == 1:
                x = random_value(small_family, facing.factor, rng)
            rest = normalize(small_family, random_raw_word(small_family, rng)).letters
            if rest and rest[0].factor == facing.factor:
                rest = rest[1:]
            v = (g_inverse(GWord(small_family, u[k:])).letters
                 + (GLetter(facing.factor, x),) + rest)
            cuts = sorted(rng.sample(range(1, len(u)), rng.randrange(1, len(u))))
            pieces = [u[a:b] for a, b in zip([0] + cuts, cuts + [len(u)])] + [v]
            got = _join(small_family.factors, pieces)
            assert got == self.reference(small_family, *pieces)
            assert got == (u[:k - 1] + (GLetter(facing.factor, facing.value * x % n),)
                           + rest)
            cascades += cuts[-1] > k
        assert cascades > 100


class TestPhi:
    def test_empty(self, small_family, small_secrets):
        assert phi_map(empty_word(small_family), small_secrets).is_identity

    def test_kernel_letter_vanishes(self, small_family, small_secrets):
        w = normalize(small_family, [(1, 8)])  # 8 = 2^3
        assert phi_map(w, small_secrets).is_identity

    def test_single_letter_exponent(self, small_family, small_secrets):
        # 17 represents coset 1, 9 = 17^2 coset 2
        assert phi_map(normalize(small_family, [(1, 17)]), small_secrets).runs == ((1, 1, 3),)
        assert phi_map(normalize(small_family, [(1, 9)]), small_secrets).runs == ((1, 2, 3),)

    def test_homomorphism_law(self, small_family, small_secrets, rng):
        for _ in range(300):
            u = normalize(small_family, random_raw_word(small_family, rng))
            v = normalize(small_family, random_raw_word(small_family, rng))
            lhs = phi_map(g_multiply(u, v), small_secrets)
            rhs = k_multiply(phi_map(u, small_secrets), phi_map(v, small_secrets))
            assert lhs == rhs


def reference_coset(sk, pk, value):
    """The coset scan: first i with value * R[i]^-1 an m-th power."""
    for i, r in enumerate(pk.transversal):
        if is_mth_power(sk, value * pow(r, -1, pk.n) % pk.n):
            return i
    raise AssertionError(f"{value} lies in no coset")


def long_raw_word(family, rng, length):
    factors = [rng.randrange(1, family.count + 1) for _ in range(length)]
    return [(i, random_value(family, i, rng)) for i in factors]


class TestPhiLongWords:
    def test_matches_per_letter_reference(self, small_family, small_secrets, sym3_keys):
        pk, sk = sym3_keys
        rng = random.Random(71)
        for family, secrets, symbols in ((small_family, small_secrets, None),
                                         (pk.family, sk.factors, pk.generators)):
            for _ in range(5):
                w = normalize(family, long_raw_word(family, rng, 600))
                assert len(w) > 60 * family.count
                want = kword_from_runs(
                    (symbols[l.factor - 1] if symbols else l.factor,
                     reference_coset(secrets[l.factor - 1],
                                     family.public(l.factor), l.value),
                     family.order(l.factor))
                    for l in w.letters)
                assert phi_map(w, secrets, symbols) == want


class TestKWord:
    def test_runs_normalize(self):
        k = kword_from_runs([(1, 2, 3), (1, 2, 3), (2, 1, 2)])
        assert k.runs == ((1, 1, 3), (2, 1, 2))
        assert k.letters == (1, 2)

    def test_cancellation(self):
        k = kword_from_runs([(1, 1, 3), (2, 1, 2), (2, 1, 2), (1, 2, 3)])
        assert k.is_identity

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            kword_from_runs([(1, 1, 3), (1, 1, 4)])


class TestPsi:
    def oracle(self, H, letters):
        return functools.reduce(H.mul, letters, H.identity)

    def test_trivial_cases(self):
        H = sym(3)
        assert psi_map(KWord(()), H).index == 0
        assert psi_map(kword_from_runs([(3, 1, 3)]), H).index == 3

    def test_two_transpositions(self):
        H = sym(3)
        a = H.element_by_label("(1 2)").index
        b = H.element_by_label("(1 3)").index
        k = kword_from_runs([(a, 1, 2), (b, 1, 2)])
        assert psi_map(k, H).label == "(1 2 3)"

    def _valid_words(self, H, max_len):
        """All flattened letter sequences obeying the run-length bounds."""
        orders = {i: H.order_of(i) for i in range(1, H.order)}

        def extend(word, run_sym, run_len, length):
            yield tuple(word)
            if length == max_len:
                return
            for s in orders:
                nl = run_len + 1 if s == run_sym else 1
                if nl >= orders[s]:
                    continue
                word.append(s)
                yield from extend(word, s, nl, length + 1)
                word.pop()

        yield from extend([], None, 0, 0)

    @pytest.mark.parametrize("H", [sym(3), cyclic_group(6)])
    def test_exhaustive_short_words(self, H):
        for letters in self._valid_words(H, 4):
            runs = [(s, 1, H.order_of(s)) for s in letters]
            k = kword_from_runs(runs)
            assert psi_map(k, H).index == self.oracle(H, k.letters)

    def test_long_random_words(self):
        H = sym(5)
        rng = random.Random(3)
        for _ in range(10_000):
            letters = [rng.randrange(1, 120) for _ in range(rng.randrange(40))]
            k = kword_from_runs([(s, 1, H.order_of(s)) for s in letters])
            assert psi_map(k, H).index == self.oracle(H, k.letters)

    def test_power_expansion_case(self):
        # adjacent distinct symbols inside one cyclic subgroup, product != 1
        H = cyclic_group(6)
        k = kword_from_runs([(1, 1, 6), (2, 1, 3)])  # 1 + 2 = 3
        assert psi_map(k, H).index == 3

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            psi_map(kword_from_runs([(9, 1, 2)]), sym(3))


class TestPPhi:
    def test_empty(self, small_family):
        assert p_phi(small_family, ()).is_identity

    def test_single_preimage_letter(self, small_family):
        w = ((1, 2, True),)
        assert p_phi(small_family, w).letters == (GLetter(1, 8),)

    def test_conjugated_insertion(self, small_family):
        # x^-1 x0 x with x = [17,1], x0 = ]2,1[: everything is factor 1,
        # so the evaluation collapses to 33 * 8 * 17 = 4488 = 8 (mod 35)
        w = ((1, 33, False), (1, 2, True), (1, 17, False))
        assert p_phi(small_family, w).letters == (GLetter(1, 8),)

    def test_non_unit_preimage_letter(self, small_family):
        for factor, value in ((1, 7), (1, 0), (2, 11), (2, -22)):
            with pytest.raises(LetterOutOfGroup):
                p_phi(small_family, ((factor, value, True),))

    def test_preimage_letter_of_jacobi_minus_one(self, small_family):
        # jacobi(2, 77) = -1, but 2^2 = 4 lies in the order-2 factor group
        w = ((2, 2, True),)
        assert p_phi(small_family, w).letters == (GLetter(2, 4),)

    def test_plain_letter_outside_group(self, small_family):
        for factor, value in ((2, 2), (1, 7), (2, 0)):
            with pytest.raises(LetterOutOfGroup):
                p_phi(small_family, ((factor, value, False),))

    def test_factor_index_out_of_range(self, small_family):
        for is_a0 in (True, False):
            with pytest.raises(ValueError):
                p_phi(small_family, ((3, 2, is_a0),))

    def test_witness_lands_in_kernel(self, small_family, small_secrets, rng):
        for _ in range(100):
            w = random_phi_witness(small_family, rng.randrange(8), rng)
            g = p_phi(small_family, w)
            assert phi_map(g, small_secrets).is_identity


class TestRandomWitness:
    def test_zero_steps(self, small_family, rng):
        assert random_phi_witness(small_family, 0, rng) == ()

    def test_nonkernel_values_are_nonkernel(self, small_family, small_secrets, rng):
        for i in (1, 2):
            for _ in range(50):
                v = random_nonkernel_value(small_family.public(i), rng)
                w = normalize(small_family, [(i, v)])
                assert not phi_map(w, small_secrets).is_identity


def quadratic_phi_witness(family, steps, rng):
    """Reference: the witness builder as it was, rebuilding the whole list
    at every step, with the same draws in the same order."""
    letters = []
    for _ in range(steps):
        x0_choice = rng.randrange(family.count + 1)  # 0 = skip
        x_choice = rng.randrange(family.count + 1)
        mid = []
        if x0_choice:
            mid.append((x0_choice, random_unit(family.public(x0_choice).n, rng), True))
        if x_choice:
            v = random_nonkernel_value(family.public(x_choice), rng)
            v_inv = mod_inverse(v, family.public(x_choice).n)
            letters = [(x_choice, v_inv, False)] + mid + letters + [(x_choice, v, False)]
        else:
            letters = mid + letters
    return tuple(letters)


class TestLinearWitnessBuild:
    """The one-pass builder gives the witness of the quadratic one for the
    same rng, and leaves the rng at the same place."""

    @pytest.fixture(params=["one factor", "two factors"])
    def family(self, request, small_family):
        if request.param == "one factor":
            return FactorFamily(small_family.factors[:1])
        return small_family

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_steps_0_to_64(self, family, seed):
        for steps in range(65):
            got_rng = random.Random(f"{seed}:{steps}")
            want_rng = random.Random(f"{seed}:{steps}")
            got = random_phi_witness(family, steps, got_rng)
            assert got == quadratic_phi_witness(family, steps, want_rng), steps
            assert got_rng.random() == want_rng.random(), steps

    def test_1000_steps(self, family):
        got_rng, want_rng = random.Random(1000), random.Random(1000)
        got = random_phi_witness(family, 1000, got_rng)
        assert got == quadratic_phi_witness(family, 1000, want_rng)
        assert got_rng.random() == want_rng.random()


class CountingOracle:
    def __init__(self, family, secrets, rng):
        self.calls = 0
        self._inner = trapdoor_oracle(family, secrets, rng)

    def __call__(self, factor, value):
        self.calls += 1
        return self._inner(factor, value)


class TestInversePPhi:
    def test_empty_word(self, small_family, small_secrets, rng):
        a, t = inverse_p_phi(empty_word(small_family),
                             trapdoor_oracle(small_family, small_secrets, rng))
        assert len(a) == 0 and t.is_identity

    def test_single_nonkernel_letter(self, small_family, small_secrets, rng):
        g = normalize(small_family, [(1, 17)])
        a, t = inverse_p_phi(g, trapdoor_oracle(small_family, small_secrets, rng))
        assert len(a) == 0 and t == g

    def test_single_kernel_letter(self, small_family, small_secrets, rng):
        g = normalize(small_family, [(1, 8)])
        a, t = inverse_p_phi(g, trapdoor_oracle(small_family, small_secrets, rng))
        assert t.is_identity
        assert len(a) == 1 and a[0][2]
        assert p_phi(small_family, a) == g

    def test_kernel_roundtrip_and_call_bound(self, small_family, small_secrets, rng):
        for _ in range(200):
            w = random_phi_witness(small_family, rng.randrange(6), rng)
            g = p_phi(small_family, w)
            oracle = CountingOracle(small_family, small_secrets, rng)
            a, t = inverse_p_phi(g, oracle)
            assert t.is_identity
            assert p_phi(small_family, a) == g
            assert oracle.calls <= max(1, len(g)) ** 2

    def test_nonkernel_detected(self, small_family, small_secrets, rng):
        for _ in range(200):
            w = random_phi_witness(small_family, rng.randrange(4), rng)
            g = p_phi(small_family, w)
            i = rng.randrange(1, small_family.count + 1)
            bad = g_multiply(g, normalize(
                small_family, [(i, random_nonkernel_value(small_family.public(i), rng))]))
            a, t = inverse_p_phi(bad, trapdoor_oracle(small_family, small_secrets, rng))
            assert not t.is_identity
            assert len(a) == 0

    def test_oracle_failure(self, small_family):
        g = normalize(small_family, [(1, 8)])
        with pytest.raises(OracleFailure):
            inverse_p_phi(g, lambda factor, value: 3)

    def test_factor_extraction(self, small_family, small_secrets, rng):
        # flattening the factor-1 preimage letters of a witness for a
        # factor-1 kernel element gives a direct single-letter preimage
        for _ in range(200):
            a_val = rng.randrange(2, 35)
            from math import gcd
            if gcd(a_val, 35) != 1:
                continue
            g = normalize(small_family, [(1, pow(a_val, 3, 35))])
            if g.is_identity:
                continue
            witness, t = inverse_p_phi(g, trapdoor_oracle(small_family, small_secrets, rng))
            assert t.is_identity
            product = 1
            for factor, value, is_a0 in witness:
                if is_a0 and factor == 1:
                    product = product * value % 35
            assert pow(product, 3, 35) == g.letters[0].value


class TestPsiWitness:
    def test_empty(self, small_family):
        assert p_psi(small_family, ()).is_identity

    def test_single_letter(self, small_family):
        w = ((1, 1),)
        assert p_psi(small_family, w).letters == (GLetter(1, 17),)

    def test_cancelling_pair_maps_to_identity_class(self, small_family, small_secrets):
        # 17 (class 1) then 9 (class 2): product has class 0 under phi
        w = ((1, 1), (1, 2))
        g = p_psi(small_family, w)
        assert len(g) <= 2
        assert phi_map(g, small_secrets).is_identity

    def test_index_range(self, small_family):
        with pytest.raises(ValueError):
            p_psi(small_family, ((1, 3),))


class TestCombinedP:
    def test_trivial(self, small_family):
        assert combined_P(small_family, (), ()).is_identity

    def test_left_identity(self, small_family):
        b = ((2, 1),)
        assert combined_P(small_family, (), b) == p_psi(small_family, b)

    def test_random_witness_in_phi_kernel(self, small_family, small_secrets, rng):
        a = random_phi_witness(small_family, 4, rng)
        g = combined_P(small_family, a, ())
        assert phi_map(g, small_secrets).is_identity


class TestTextEncoding:
    def test_empty_encoding(self, small_family):
        assert format_gword(empty_word(small_family)) == "e"
        assert parse_gword("e", small_family).is_identity

    def test_roundtrip(self, small_family, rng):
        for _ in range(50):
            w = normalize(small_family, random_raw_word(small_family, rng))
            assert parse_gword(format_gword(w), small_family) == w

    def test_letter_out_of_group(self, small_family):
        with pytest.raises(LetterOutOfGroup):
            parse_gword("1:7", small_family)  # shares a factor with 35
        with pytest.raises(LetterOutOfGroup):
            parse_gword("2:2", small_family)  # jacobi(2,77) = -1, even order

    def test_bad_tokens(self, small_family):
        for bad in ("", "1", "1:xx", "0:5", "3:2", "1:7"):
            with pytest.raises((FormatError, ValueError, LetterOutOfGroup)):
                parse_gword(bad, small_family)
