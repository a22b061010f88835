"""Reference tasks that measure how fast the machine runs right now.

A shared machine's speed drifts by a third and more over tens of seconds,
in CPU time too, because other tenants contend for the cores' caches and
execution units.  A run of the benchmark times fixed tasks between its
runs of the workload and scales the workload's times by their median time
(see ``run.py``).  Each workload names the tasks made of the kinds of work
it does (``Workload.reference_tasks``).

Each task copies the shape of a hot loop of the program with no ghcrypt
code, so it slows down with the machine much as the program does, and a
change to the program does not change it:

* ``words``: the free-product word work of the encrypted-circuit protocol:
  parse ``factor:value`` tokens, dropping letters whose Jacobi symbol is 0,
  and fold words into a growing product by a stack pass that merges
  adjacent letters of one factor into new frozen-dataclass letters.
* ``powers``: the coset scan of cyclic decryption: for each of 64 coset
  representatives, a modular inverse and gcd modulo a 256-bit n and one
  modular power modulo each 128-bit prime factor.

The inputs are the same in every run, whatever the benchmark seed.  Each
task's ``nominal_s`` is its fastest CPU time out of 150 runs on a 2-vCPU
Intel Xeon VM under CPython 3.11: its time on that machine when no other
tenant contends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class _Letter:
    factor: int
    value: int


class _Family:
    def __init__(self, moduli: tuple[int, ...]):
        self.moduli = moduli

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= len(self.moduli):
            raise ValueError(i)

    def modulus(self, i: int) -> int:
        self._check_index(i)
        return self.moduli[i - 1]


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _reduce(family: _Family, letters, validate: bool) -> tuple[_Letter, ...]:
    out: list[_Letter] = []
    for item in letters:
        if isinstance(item, _Letter):
            i, v = item.factor, item.value
        else:
            i, v = item
        v %= family.modulus(i)
        if v == 1 or validate and _jacobi(v, family.modulus(i)) == 0:
            continue
        if out and out[-1].factor == i:
            merged = out.pop().value * v % family.modulus(i)
            if merged != 1:
                out.append(_Letter(i, merged))
        else:
            out.append(_Letter(i, v))
    return tuple(out)


class Words:
    nominal_s = 0.0066

    def __init__(self):
        rng = random.Random("reference:words")
        moduli = tuple(rng.getrandbits(32) | (1 << 31) | 1 for _ in range(3))
        self.family = _Family(moduli)
        self.texts = []
        for _ in range(20):
            tokens = []
            for _ in range(40):
                i = rng.randrange(1, len(moduli) + 1)
                tokens.append(f"{i}:{rng.randrange(2, moduli[i - 1])}")
            self.texts.append(" ".join(tokens))

    def task(self) -> int:
        acc: tuple[_Letter, ...] = ()
        for text in self.texts:
            raw = []
            for token in text.split():
                factor, _, value = token.partition(":")
                raw.append((int(factor), int(value)))
            word = _reduce(self.family, raw, validate=True)
            acc = _reduce(self.family, acc + word, validate=False)
        return len(acc)


class Powers:
    nominal_s = 0.0062

    def __init__(self):
        rng = random.Random("reference:powers")
        self.p = rng.getrandbits(128) | (1 << 127) | 1
        self.q = rng.getrandbits(128) | (1 << 127) | 1
        self.n = self.p * self.q
        self.exp_p, self.exp_q = rng.getrandbits(122), rng.getrandbits(122)
        self.cosets = [rng.randrange(2, self.n) for _ in range(64)]
        self.values = [rng.randrange(2, self.n) for _ in range(2)]

    def task(self) -> int:
        p, q, n, hits = self.p, self.q, self.n, 0
        for c in self.values:
            for r in self.cosets:
                if gcd(r, n) != 1:
                    continue
                y = c * pow(r, -1, n) % n
                hits += pow(y % p, self.exp_p, p) == 1 and pow(y % q, self.exp_q, q) == 1
        return hits


TASKS = {"words": Words, "powers": Powers}
