"""The benchmark's seeded workloads.

Each workload is a closed loop with one caller.  Its inputs come from the
benchmark seed, and the program sees only generated texts: the parties
start from key texts and exchange the serialized messages the CLI writes.
Every output is checked against plain evaluation.

Calls into ghcrypt go through module attributes (``general.encrypt_general``
rather than a name imported into this file), so the wrappers the tracer
installs on those attributes see them.

* ``circuit-deep``: the encrypted-circuit protocol over Sym(5) at N=32 on a
  6-input OR/AND chain of depth 5 (199 instructions), with small
  randomization.  Every run starts from the key texts (Alice parses pk and
  sk, Bob parses pk, as each CLI invocation does).  Bob's word products
  lead, then Alice's per-letter decryption.  After the protocol the key
  owner also encrypts and decrypts one element and extracts one kernel
  witness; these give the per-call latencies and are timed apart from the
  protocol run.
* ``cyclic-wide``: encrypt, multiply and decrypt over Z_64 at N=256 through
  the general API (the one-factor path), plus a kernel-witness extraction.
  No long words; the 64-coset decryption scan and the root code lead.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from ghcrypt import circuit as circuit_mod
from ghcrypt import encsim, freeprod, general, groupcore

# Times are CPU time of this thread.  The workloads are single-threaded and
# do no I/O, so this is their latency less the time the process waits for a
# core that other tenants of the machine hold.
clock = time.thread_time

FULL = "full"


@dataclass
class Run:
    """Timings, messages and check results of one run."""

    run_s: float = 0.0
    roles: tuple[float, float, float] = (0.0, 0.0, 0.0)
    encrypt_s: list[float] = field(default_factory=list)
    decrypt_s: list[float] = field(default_factory=list)
    root_s: list[float] = field(default_factory=list)
    messages: tuple[str, ...] = ()
    wire_bytes: int = 0  # 0 until the protocol completes
    failed: int = 0

    def protocol(self, t0, t1, t2, t3, t4, messages) -> None:
        """Record a run started at t0 whose three roles ran t1..t2..t3..t4."""
        self.run_s = t4 - t0
        self.roles = (t2 - t1, t3 - t2, t4 - t3)
        self.messages = messages
        self.wire_bytes = sum(len(m.encode()) for m in messages)


def chain_circuit_text(rng: random.Random, inputs: int) -> str:
    """A chain of alternating OR/AND gates over a seeded input order."""
    names = [f"x{k}" for k in range(1, inputs + 1)]
    order = rng.sample(names, inputs)
    lines = ["INPUTS " + " ".join(names)]
    acc, op = order[0], "OR"
    for k, name in enumerate(order[1:], start=1):
        lines.append(f"g{k} = {op} {acc} {name}")
        acc, op = f"g{k}", "AND" if op == "OR" else "OR"
    lines.append(f"OUTPUT {acc}")
    return "\n".join(lines) + "\n"


def balanced_order(rng: random.Random, assignments) -> list[tuple[int, ...]]:
    """Every assignment once, in seeded order, interleaved so that each
    prefix holds every count of 1 bits in about its share of the whole.

    The word Bob builds grows with the number of 1 bits, so a run's median
    depends on that mix; a loop that stops part way through a cycle still
    sees the same mix whatever the seed."""
    classes: dict[int, list] = {}
    for bits in assignments:
        classes.setdefault(sum(bits), []).append(bits)
    for members in classes.values():
        rng.shuffle(members)
    total = sum(len(members) for members in classes.values())
    used = dict.fromkeys(classes, 0)
    order = []
    for t in range(1, total + 1):
        ones = max(classes, key=lambda c: t * len(classes[c]) / total - used[c])
        order.append(classes[ones][used[ones]])
        used[ones] += 1
    return order


def root_word_text(rng: random.Random, pk: general.GeneralPublicKey) -> str:
    """A one-letter word s**m_i in a seeded factor i: a kernel element."""
    i = rng.randrange(1, pk.family.count + 1)
    factor = pk.family.public(i)
    return f"{i}:{pow(rng.randrange(2, factor.n), factor.m, factor.n)}"


def extract_root(pk, sk, rng: random.Random, word_text: str, run: Run) -> int:
    """Time inverse_P_general on a kernel word; 1 when combined_P of the
    witness does not give the word back."""
    word = freeprod.parse_gword(word_text, pk.family)
    t0 = clock()
    witness = general.inverse_P_general(sk, pk, word, rng)
    run.root_s.append(clock() - t0)
    return int(witness is None or freeprod.combined_P(pk.family, *witness) != word)


class Workload:
    name = ""
    checks_per_run = 3
    # the tasks of reference.py whose total time calibrates its times
    reference_tasks = ("words", "powers")

    def __init__(self, size: str):
        self.size = size

    def group(self) -> groupcore.FiniteGroup:
        raise NotImplementedError

    def keygen(self, k: int) -> tuple[str, str]:
        """Key set k, as ``ghcrypt keygen`` makes it: key texts.

        The key sets do not depend on the benchmark seed: root extraction
        costs differ between keys by up to a half, and with per-seed keys
        that difference, not the program, set the spread of root_s."""
        pk, sk = general.keygen_general(self.group(), self.bits,
                                        random.Random(f"keys:{k}"))
        return general.format_general_pk(pk), general.format_general_sk(sk)

    def prepare(self, seed: int, keys: list[tuple[str, str]]) -> None:
        """Make the per-seed inputs.  Run i uses key set i % len(keys), so
        a run's median does not hang on one key's primes.  The reference
        parse of each public key is not timed."""
        self.seed, self.keys = seed, keys
        self.ref_pks = [general.parse_general_pk(pk_text) for pk_text, _ in keys]

    def run(self, i: int) -> Run:
        raise NotImplementedError

    def parse_keys(self, i: int):
        """Alice parses pk and sk, Bob parses pk."""
        pk_text, sk_text = self.keys[i % len(self.keys)]
        pk_a = general.parse_general_pk(pk_text)
        sk_a = general.parse_general_sk(sk_text, pk_a)
        return pk_a, sk_a, general.parse_general_pk(pk_text)


class CircuitDeep(Workload):
    name = "circuit-deep"
    bits = 32
    randomization = {"phi_steps": 4, "psi_length": 2}

    def group(self):
        return groupcore.sym(5)

    def prepare(self, seed, keys):
        super().prepare(seed, keys)
        inputs = 6 if self.size == FULL else 3
        self.circuit_text = chain_circuit_text(random.Random(f"{seed}:circuit"), inputs)
        self.reference = circuit_mod.parse_circuit(self.circuit_text)
        self.assignments = balanced_order(random.Random(f"{seed}:assignments"),
                                          itertools.product((0, 1), repeat=inputs))

    def key_owner(self, pk, sk, rng: random.Random, element_index: int,
                  word_text: str, run: Run) -> int:
        """Encrypt and decrypt one element, then extract one kernel witness;
        returns the number of wrong results."""
        element = pk.group.element(element_index)
        t0 = clock()
        c = general.encrypt_general(pk, element, rng, **self.randomization)
        t1 = clock()
        h = general.decrypt_general(sk, pk, c)
        t2 = clock()
        run.encrypt_s.append(t1 - t0)
        run.decrypt_s.append(t2 - t1)
        return int(h.index != element_index) + extract_root(pk, sk, rng, word_text, run)

    def run(self, i):
        ref_pk = self.ref_pks[i % len(self.keys)]
        rng = random.Random(f"{self.seed}:run:{i}")
        bits = self.assignments[i % len(self.assignments)]
        element_index = rng.randrange(ref_pk.group.order)
        word_text = root_word_text(rng, ref_pk)
        run = Run()
        t0 = clock()
        pk_a, sk_a, pk_b = self.parse_keys(i)
        c = circuit_mod.parse_circuit(self.circuit_text)
        alice = encsim.CircuitAlice(sk_a, pk_a, c, random.Random(f"{self.seed}:{i}:alice"),
                                    **self.randomization)
        bob = encsim.CircuitBob(pk_b, bits)
        t1 = clock()
        msg1 = alice.program_message()
        t2 = clock()
        msg2 = bob.evaluation_message(msg1)
        t3 = clock()
        msg3, bit = alice.result_message(msg2)
        t4 = clock()
        run.protocol(t0, t1, t2, t3, t4, (msg1, msg2, msg3))
        run.failed = int(bit != circuit_mod.eval_circuit(self.reference, bits))
        run.failed += self.key_owner(pk_a, sk_a, random.Random(f"{self.seed}:{i}:owner"),
                                     element_index, word_text, run)
        return run


class CyclicWide(Workload):
    """Alice encrypts two elements (``ghcrypt encrypt``), Bob multiplies the
    ciphertexts (``ghcrypt hommul``), Alice decrypts the product
    (``ghcrypt decrypt``) and then extracts one kernel witness."""

    name = "cyclic-wide"
    checks_per_run = 2
    reference_tasks = ("powers",)

    def __init__(self, size):
        super().__init__(size)
        self.order, self.bits = (64, 256) if size == FULL else (8, 64)

    def group(self):
        return groupcore.cyclic_group(self.order)

    def prepare(self, seed, keys):
        # the parties load their keys once; a run is one round of calls
        super().prepare(seed, keys)
        self.parsed = [self.parse_keys(k) for k in range(len(keys))]

    def run(self, i):
        rng = random.Random(f"{self.seed}:run:{i}")
        a, b = rng.randrange(self.order), rng.randrange(self.order)
        word_text = root_word_text(rng, self.ref_pks[i % len(self.keys)])
        owner = random.Random(f"{self.seed}:{i}:alice")
        pk_a, sk_a, pk_b = self.parsed[i % len(self.keys)]
        run = Run()
        t0 = t1 = clock()
        words = []
        for plain in (a, b):
            te = clock()
            c = general.encrypt_general(pk_a, pk_a.group.element(plain), owner)
            run.encrypt_s.append(clock() - te)
            words.append(freeprod.format_gword(c.word))
        msg1 = "\n".join(words) + "\n"
        t2 = clock()
        w1, w2 = (freeprod.parse_gword(line, pk_b.family) for line in msg1.splitlines())
        product = general.mult_ciphertexts_general(
            pk_b, general.GeneralCiphertext(w1), general.GeneralCiphertext(w2))
        msg2 = freeprod.format_gword(product.word) + "\n"
        t3 = clock()
        word = freeprod.parse_gword(msg2, pk_a.family)
        td = clock()
        h = general.decrypt_general(sk_a, pk_a, general.GeneralCiphertext(word))
        run.decrypt_s.append(clock() - td)
        msg3 = h.label + "\n"
        t4 = clock()
        run.protocol(t0, t1, t2, t3, t4, (msg1, msg2, msg3))
        run.failed = int(h.index != (a + b) % self.order)
        run.failed += extract_root(pk_a, sk_a, owner, word_text, run)
        return run


WORKLOADS = {w.name: w for w in (CircuitDeep, CyclicWide)}
