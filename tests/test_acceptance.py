"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria with stated
runtime budgets assert them; everything is seeded and deterministic.
"""

import itertools
import random
import time
from math import gcd
from pathlib import Path

import pytest

from ghcrypt.circuit import circuit_depth, eval_circuit, parse_circuit
from ghcrypt.cyclic import (
    CyclicCiphertext,
    CyclicPublicKey,
    CyclicSecretKey,
    decrypt_cyclic,
    encrypt_cyclic,
    factor_via_inverse_oracle,
    in_group_G,
    inverse_P_cyclic,
    is_mth_power,
    keygen_cyclic,
    mult_ciphertexts,
)
from ghcrypt.barrington import SIZE_BASE, compile_barrington, eval_program
from ghcrypt.freeprod import (
    FactorFamily,
    GLetter,
    kword_from_runs,
    g_multiply,
    inverse_p_phi,
    normalize,
    p_phi,
    phi_map,
    psi_map,
    k_multiply,
    random_nonkernel_value,
    random_phi_witness,
    trapdoor_oracle,
)
from ghcrypt.general import (
    decrypt_general,
    encrypt_general,
    keygen_general,
)
from ghcrypt.groupcore import cyclic_group, sym
from ghcrypt.encsim import (
    CircuitAlice,
    CircuitBob,
    GInput,
    GMul,
    GroupCircuit,
    InputAlice,
    InputBob,
    protocol_encrypted_circuit,
    protocol_encrypted_input,
)
from ghcrypt.cli import run_cli

DATA = Path(__file__).parent / "data"


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: PASS{suffix}")


def units(n):
    return [x for x in range(1, n) if gcd(x, n) == 1]


def test_01_cyclic_round_trip():
    t0 = time.time()
    trials = 200
    for m in (2, 3, 4, 5, 6):
        for bits in (8, 16, 32):
            rng = random.Random(f"c1:{m}:{bits}")
            pk, sk = keygen_cyclic(m, bits, rng)
            for plaintext in range(m):
                for _ in range(trials):
                    c = encrypt_cyclic(pk, plaintext, rng)
                    assert decrypt_cyclic(sk, pk, c) == plaintext
    elapsed = time.time() - t0
    assert elapsed < 60, f"cyclic round trips took {elapsed:.1f}s"
    report(1, "cyclic round trip", f"m in 2..6, N in {{8,16,32}}, {trials} trials each, {elapsed:.1f}s")


def test_02_cyclic_homomorphism():
    failures = 0
    for m in (2, 3, 4, 5, 6):
        rng = random.Random(f"c2:{m}")
        pk, sk = keygen_cyclic(m, 16, rng)
        for _ in range(200):
            i, j = rng.randrange(m), rng.randrange(m)
            prod = mult_ciphertexts(pk, encrypt_cyclic(pk, i, rng),
                                    encrypt_cyclic(pk, j, rng))
            if decrypt_cyclic(sk, pk, prod) != (i + j) % m:
                failures += 1
    assert failures == 0
    report(2, "cyclic homomorphism", "200 pairs per key, zero failures")


def _valid_pairs(m, limit):
    """All (p, q) with p*q <= limit, p = 1 (mod m), gcd(m, q-1) = gcd(m, 2)."""
    primes = [p for p in range(3, limit // 3 + 1)
              if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    out = []
    for p in primes:
        if (p - 1) % m:
            continue
        for q in primes:
            if q == p or p * q > limit:
                continue
            if gcd(m, q - 1) == gcd(m, 2):
                out.append((p, q))
    return out


def test_03_trapdoor_vs_brute_force():
    checked_keys = 0
    for m in (2, 3):
        for p, q in _valid_pairs(m, 10_000):
            n = p * q
            rng = random.Random(f"c3:{n}:{m}")
            pk, sk = keygen_cyclic(m, 4, rng, primes=(p, q))
            kernel = {pow(x, m, n) for x in units(n)}
            inverses = {}
            for r in pk.transversal:
                inverses[r] = pow(r, -1, n)
            for g in units(n):
                assert is_mth_power(sk, g) == (g in kernel), (n, m, g)
                if in_group_G(pk, g):
                    hits = [i for i, r in enumerate(pk.transversal)
                            if g * inverses[r] % n in kernel]
                    assert len(hits) == 1
                    assert decrypt_cyclic(sk, pk, CyclicCiphertext(g)) == hits[0]
            checked_keys += 1
    report(3, "trapdoor vs brute force",
           f"{checked_keys} moduli <= 10^4 for m in {{2,3}}, every unit checked")


def test_04_inverse_correctness_and_uniformity(key35):
    pk, sk = key35
    rng = random.Random("c4")
    # correctness on 2000 samples across random kernel elements
    for _ in range(2000):
        g = pow(rng.randrange(1, 35), 3, 35)
        if gcd(g, 35) != 1:
            continue
        a = inverse_P_cyclic(sk, pk, g, rng)
        assert a is not None and pow(a, 3, 35) == g
    # uniformity over the three cube roots of the fixed cube 8
    roots = sorted(x for x in units(35) if pow(x, 3, 35) == 8)
    assert roots == [2, 22, 32]
    counts = {r: 0 for r in roots}
    samples = 2000
    for _ in range(samples):
        counts[inverse_P_cyclic(sk, pk, 8, rng)] += 1
    for r, c in counts.items():
        assert abs(c / samples - 1 / 3) <= 0.05, counts
    freqs = ", ".join(f"{c / samples:.3f}" for c in counts.values())
    report(4, "reduction FACTOR->INVERSE", f"2000 verified roots; frequencies {freqs}")


def test_05_inverse_to_factor_reduction():
    t0 = time.time()
    keys = []
    keygen_rng = random.Random("c5:keys")
    for k in range(10):
        m = (2, 3, 4, 5, 6)[k % 5]
        keys.append((m, *keygen_cyclic(m, 12, keygen_rng)))
    total_rate = []
    for m, pk, sk in keys:
        wins = 0
        for seed in range(100):
            rng = random.Random(f"c5:{pk.n}:{seed}")
            oracle_rng = random.Random(f"c5o:{pk.n}:{seed}")
            oracle = lambda v: inverse_P_cyclic(sk, pk, v, oracle_rng)
            try:
                p, q = factor_via_inverse_oracle(pk, oracle, rng)
            except Exception:
                continue
            if {p, q} == {sk.p, sk.q}:
                wins += 1
        assert wins >= 67, (pk.n, wins)
        total_rate.append(wins)
    elapsed = time.time() - t0
    assert elapsed < 120, f"attack runs took {elapsed:.1f}s"
    report(5, "reduction INVERSE->FACTOR",
           f"success {min(total_rate)}..{max(total_rate)}/100 on 10 keys, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def family_for_words():
    pk1 = CyclicPublicKey(m=3, n=35, transversal=(13, 4, 12))
    sk1 = CyclicSecretKey.from_primes(7, 5, 3)
    pk2 = CyclicPublicKey(m=2, n=77, transversal=(36, 17))
    sk2 = CyclicSecretKey.from_primes(7, 11, 2)
    pk3, sk3 = keygen_cyclic(2, 4, random.Random(0), primes=(11, 13))
    return FactorFamily((pk1, pk2, pk3)), (sk1, sk2, sk3)


def _random_raw(family, rng, max_len=10):
    from ghcrypt.numtheory import jacobi
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        i = rng.randrange(1, family.count + 1)
        n = family.public(i).n
        while True:
            v = rng.randrange(1, n)
            if gcd(v, n) != 1:
                continue
            if family.order(i) % 2 == 0 and jacobi(v, n) != 1:
                continue
            break
        out.append((i, v))
    return out


def _fixpoint_normalize(family, raw):
    word = [(i, v % family.public(i).n) for i, v in raw]
    changed = True
    while changed:
        changed = False
        word = [(i, v) for i, v in word if v != 1]
        for k in range(len(word) - 1):
            if word[k][0] == word[k + 1][0]:
                i = word[k][0]
                word[k:k + 2] = [(i, word[k][1] * word[k + 1][1] % family.public(i).n)]
                changed = True
                break
    return tuple(GLetter(i, v) for i, v in word if v != 1)


def test_06_free_product_calculus(family_for_words):
    family, secrets = family_for_words
    rng = random.Random("c6")
    for _ in range(10_000):
        raw = _random_raw(family, rng)
        w = normalize(family, raw)
        assert normalize(family, w.letters).letters == w.letters
        assert _fixpoint_normalize(family, raw) == w.letters
    for _ in range(1000):
        u = normalize(family, _random_raw(family, rng))
        v = normalize(family, _random_raw(family, rng))
        assert (phi_map(g_multiply(u, v), secrets)
                == k_multiply(phi_map(u, secrets), phi_map(v, secrets)))
    # exhaustive rewriting check over Sym(3) for words of length <= 8
    H = sym(3)
    orders = {i: H.order_of(i) for i in range(1, 6)}
    count = 0

    def walk(word, run_sym, run_len):
        nonlocal count
        k = kword_from_runs([(s, 1, orders[s]) for s in word])
        import functools
        want = functools.reduce(H.mul, k.letters, 0)
        assert psi_map(k, H).index == want
        count += 1
        if len(word) == 8:
            return
        for s in orders:
            nl = run_len + 1 if s == run_sym else 1
            if nl >= orders[s]:
                continue
            word.append(s)
            walk(word, s, nl)
            word.pop()

    walk([], None, 0)
    report(6, "free-product calculus",
           f"10^4 normalizations, 10^3 pairs, {count} exhaustive words")


def test_07_kernel_witness_contract(family_for_words):
    family, secrets = family_for_words
    rng = random.Random("c7")

    class Counting:
        def __init__(self):
            self.calls = 0
            self.inner = trapdoor_oracle(family, secrets, rng)

        def __call__(self, i, v):
            self.calls += 1
            return self.inner(i, v)

    for _ in range(1000):
        w = random_phi_witness(family, rng.randrange(6), rng)
        g = p_phi(family, w)
        oracle = Counting()
        a, t = inverse_p_phi(g, oracle)
        assert t.is_identity
        assert p_phi(family, a) == g
        assert oracle.calls <= max(1, len(g)) ** 2
    for _ in range(1000):
        w = random_phi_witness(family, rng.randrange(4), rng)
        i = rng.randrange(1, family.count + 1)
        bad = g_multiply(p_phi(family, w), normalize(
            family, [(i, random_nonkernel_value(family.public(i), rng))]))
        a, t = inverse_p_phi(bad, trapdoor_oracle(family, secrets, rng))
        assert not t.is_identity
    report(7, "kernel witness contract",
           "10^3 kernel + 10^3 non-kernel words, call bound |g|^2 held")


def test_08_general_round_trip():
    t0 = time.time()
    plans = [
        (cyclic_group(6), 16, 50),
        (sym(3), 16, 50),
        (sym(5), 8, 5),
    ]
    for H, bits, trials in plans:
        rng = random.Random(f"c8:{H.name}")
        pk, sk = keygen_general(H, bits, rng)
        for el in H.elements():
            for _ in range(trials):
                c = encrypt_general(pk, el, rng)
                assert decrypt_general(sk, pk, c).index == el.index
    elapsed = time.time() - t0
    assert elapsed < 600, f"general round trips took {elapsed:.1f}s"
    report(8, "general round trip",
           f"Z6/Sym(3) x50 at N=16, Sym(5) x5 at N=8, {elapsed:.1f}s")


def test_09_barrington_exactness():
    H = sym(5)
    names = ["identity.bc", "not1.bc", "and2.bc", "or2.bc", "nand2.bc",
             "xor2.bc", "maj3.bc", "mux3.bc", "and4.bc", "or4.bc",
             "th2of4.bc", "and8.bc", "const_true.bc", "const_mix.bc"]
    assert len(names) >= 10
    for name in names:
        c = parse_circuit((DATA / name).read_text())
        depth = circuit_depth(c)
        assert c.input_count <= 8 and depth <= 5
        program = compile_barrington(c, H)
        assert len(program) <= SIZE_BASE * 4 ** depth
        for bits in itertools.product((0, 1), repeat=c.input_count):
            want = program.target if eval_circuit(c, bits) else 0
            assert eval_program(program, bits).index == want, (name, bits)
    report(9, "barrington exactness", f"{len(names)} circuits, full truth tables")


def test_10_encrypted_simulation():
    t0 = time.time()
    H = sym(5)
    pk, sk = keygen_general(H, 32, random.Random("c10:keys"))
    protocol_plans = ["identity.bc", "xor2.bc", "maj3.bc", "th2of4.bc"]
    runs = 0
    for name in protocol_plans:
        c = parse_circuit((DATA / name).read_text())
        assert c.input_count <= 4
        for bits in itertools.product((0, 1), repeat=c.input_count):
            alice = CircuitAlice(sk, pk, c, random.Random(f"c10:{name}:{bits}"),
                                 phi_steps=4, psi_length=2)
            bob = CircuitBob(pk, bits)
            bit, _ = protocol_encrypted_circuit(alice, bob)
            assert bit == eval_circuit(c, bits), (name, bits)
            runs += 1
    # dual protocol: products over Sym(3), all 36 input pairs
    H3 = sym(3)
    pk3, sk3 = keygen_general(H3, 16, random.Random("c10:s3"))
    circ = GroupCircuit(2, (GInput(0), GInput(1), GMul(0, 1)), 2)
    for a in H3.elements():
        for b in H3.elements():
            alice = InputAlice(sk3, pk3, (a, b),
                               random.Random(f"c10:i:{a.index}:{b.index}"),
                               phi_steps=3, psi_length=2)
            bob = InputBob(pk3, circ, random.Random("c10:bob"),
                           phi_steps=3, psi_length=2)
            got, _ = protocol_encrypted_input(alice, bob)
            assert got.index == (a * b).index
    elapsed = time.time() - t0
    assert elapsed < 300, f"protocol runs took {elapsed:.1f}s"
    report(10, "encrypted simulation",
           f"{runs} protocol-1 runs at N=32, 36 protocol-2 pairs, {elapsed:.1f}s")


def test_11_pipeline_determinism(tmp_path, capsys):
    artifacts = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        kd = base / "keys"
        assert run_cli(["keygen", "--group", "sym5", "--bits", "8",
                        "--seed", "det", "--out", str(kd)]) == 0
        cfile = base / "cipher.txt"
        assert run_cli(["encrypt", "--pk", str(kd / "pk.txt"),
                        "--plain", "(1 2 3 4 5)", "--seed", "det2",
                        "--out", str(cfile)]) == 0
        tr = base / "transcript.txt"
        assert run_cli(["protocol", "circuit", "--pk", str(kd / "pk.txt"),
                        "--sk", str(kd / "sk.txt"),
                        "--circuit", str(DATA / "and2.bc"), "--input", "10",
                        "--seed", "det3", "--phi-steps", "3",
                        "--psi-length", "2", "--transcript", str(tr)]) == 0
        artifacts.append(tuple(
            (kd / "pk.txt").read_bytes() + (kd / "sk.txt").read_bytes()
            + cfile.read_bytes() + tr.read_bytes()))
    capsys.readouterr()
    assert artifacts[0] == artifacts[1]
    report(11, "pipeline determinism", "keygen+encrypt+protocol byte-identical")
