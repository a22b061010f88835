"""Homomorphic cryptosystem over a cyclic group of order m.

The public key is a modulus n = p*q together with a transversal
R[0..m-1] of the subgroup of m-th powers inside

    G(n, m) = { g in Z_n^* : jacobi(g, n) in {1, (-1)^(m mod 2)} }

(all units for odd m, the Jacobi-symbol-1 half for even m).  Encryption of
the plaintext i is a^m * R[i] for a fresh random unit a; multiplying
ciphertexts adds plaintexts mod m.  The trapdoor is the factorization of n:
p = 1 (mod m) and gcd(m, q-1) = gcd(m, 2), so membership in the group of
m-th powers is decided by one exponentiation mod p, plus one mod q for even
m (for odd m every unit mod q is an m-th power).

Decryption scans the cosets R[i] * (m-th powers) in order.  The inverses
R[i]^-1 are computed once per public key (``inverse_transversal``) and the
m-th roots of unity once per secret key (``roots_of_unity``), so decrypting
a letter of plaintext i costs i + 1 powers mod p, plus one power mod q at
the matching coset for even m.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from math import gcd

from .errors import Error, FormatError
from .numtheory import (
    ExhaustedRetries,
    NotAUnit,
    crt_pair,
    factorize,
    is_probable_prime,
    jacobi,
    mod_inverse,
    mth_root_mod_prime,
    mth_roots_of_unity,
    random_prime_congruent,
)

__all__ = [
    "BadOrder",
    "PlaintextRange",
    "NotInImage",
    "OracleFailure",
    "CyclicPublicKey",
    "CyclicSecretKey",
    "CyclicCiphertext",
    "FactorInstance",
    "keygen_cyclic",
    "in_group_G",
    "apply_P",
    "encrypt_cyclic",
    "decrypt_cyclic",
    "is_mth_power",
    "inverse_P_cyclic",
    "mult_ciphertexts",
    "factor_via_inverse_oracle",
    "format_cyclic_pk",
    "check_cyclic_pk",
    "parse_cyclic_pk",
    "format_cyclic_sk",
    "parse_cyclic_sk",
    "random_unit",
]


class BadOrder(Error):
    """Plaintext group order must be at least 2."""


class PlaintextRange(Error):
    """Plaintext outside 0..m-1."""


class NotInImage(Error):
    """Ciphertext does not lie in any transversal coset (malformed)."""


class OracleFailure(Error):
    """An inversion oracle returned something that is not a root."""


@dataclass(frozen=True)
class CyclicPublicKey:
    m: int
    n: int
    transversal: tuple[int, ...]
    # Filled on first use.  A declared field keeps the instance's compact
    # attribute storage; a cached_property writes to __dict__, which makes
    # every later attribute read on the key slower in CPython 3.11.
    _inverse_transversal: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def inverse_transversal(self) -> tuple[int, ...]:
        """R[i]^-1 mod n for each i, the multipliers of the decryption scan."""
        if self._inverse_transversal is None:
            object.__setattr__(self, "_inverse_transversal", tuple(
                mod_inverse(r, self.n) for r in self.transversal))
        return self._inverse_transversal


@dataclass(frozen=True)
class CyclicSecretKey:
    p: int
    q: int
    m: int
    m_prime: int
    exp_p: int
    exp_q: int
    # filled on first use, as CyclicPublicKey._inverse_transversal
    _roots_of_unity: tuple[tuple[int, ...], tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_primes(cls, p: int, q: int, m: int) -> "CyclicSecretKey":
        if m < 2:
            raise BadOrder("plaintext order must be at least 2")
        if (p - 1) % m != 0:
            raise ValueError(f"p = {p} does not satisfy p = 1 (mod {m})")
        m_prime = gcd(m, q - 1)
        if m_prime != gcd(m, 2):
            raise ValueError(f"q = {q} violates gcd(m, q-1) = gcd(m, 2)")
        return cls(p=p, q=q, m=m, m_prime=m_prime,
                   exp_p=(p - 1) // m, exp_q=(q - 1) // m_prime)

    @property
    def roots_of_unity(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The sorted m-th roots of unity mod p and mod q."""
        if self._roots_of_unity is None:
            object.__setattr__(self, "_roots_of_unity", (
                tuple(mth_roots_of_unity(self.m, self.p)),
                tuple(mth_roots_of_unity(self.m, self.q))))
        return self._roots_of_unity


@dataclass(frozen=True)
class CyclicCiphertext:
    value: int


@dataclass(frozen=True)
class FactorInstance:
    """Public data of the factoring-with-transversal problem."""

    n: int
    m: int
    transversal: tuple[int, ...]

    @classmethod
    def from_public_key(cls, pk: CyclicPublicKey) -> "FactorInstance":
        return cls(n=pk.n, m=pk.m, transversal=pk.transversal)


def random_unit(n: int, rng: random.Random) -> int:
    """Uniform unit modulo n."""
    while True:
        a = rng.randrange(1, n)
        if gcd(a, n) == 1:
            return a


def in_group_G(pk: CyclicPublicKey, g: int) -> bool:
    """Membership in the ciphertext group: Jacobi symbol 1, or +-1 for odd m."""
    g %= pk.n
    if gcd(g, pk.n) != 1:
        raise NotAUnit(f"{g} is not a unit modulo {pk.n}")
    j = jacobi(g, pk.n)
    return j == 1 or (pk.m % 2 == 1 and j == -1)


def apply_P(pk: CyclicPublicKey, a: int) -> CyclicCiphertext:
    """The public one-way map a -> a^m mod n."""
    a %= pk.n
    if gcd(a, pk.n) != 1:
        raise NotAUnit(f"{a} is not a unit modulo {pk.n}")
    return CyclicCiphertext(pow(a, pk.m, pk.n))


def encrypt_cyclic(pk: CyclicPublicKey, plaintext: int, rng: random.Random) -> CyclicCiphertext:
    """Encrypt i in 0..m-1 as a^m * R[i] for a fresh random unit a."""
    if not 0 <= plaintext < pk.m:
        raise PlaintextRange(f"plaintext {plaintext} not in 0..{pk.m - 1}")
    a = random_unit(pk.n, rng)
    return CyclicCiphertext(
        pow(a, pk.m, pk.n) * pk.transversal[plaintext] % pk.n)


def is_mth_power(sk: CyclicSecretKey, g: int) -> bool:
    """Trapdoor test: is g an m-th power of a unit mod n?

    Uses the exponent test g^((p-1)/m) = 1 (mod p) and
    g^((q-1)/m') = 1 (mod q) with m' = gcd(m, q-1).  For odd m, m' = 1 and
    the q-side test holds for every unit (Fermat), so it is skipped: one
    power mod p, plus one mod q for even m when the first test holds.  For
    even m the q-side test is what rejects a unit with Jacobi symbol -1.
    """
    n = sk.p * sk.q
    g %= n
    if gcd(g, n) != 1:
        raise NotAUnit(f"{g} is not a unit modulo {n}")
    if pow(g % sk.p, sk.exp_p, sk.p) != 1:
        return False
    return sk.m_prime == 1 or pow(g % sk.q, sk.exp_q, sk.q) == 1


def decrypt_cyclic(sk: CyclicSecretKey, pk: CyclicPublicKey, c: CyclicCiphertext) -> int:
    """Recover the plaintext: the unique i with c * R[i]^-1 an m-th power.

    Scans i = 0, 1, ... with the cached inverses ``pk.inverse_transversal``,
    one ``is_mth_power`` per coset visited: a letter of plaintext i costs
    i + 1 powers mod p, plus one power mod q at the matching coset for
    even m.  A unit outside the ciphertext group raises NotInImage after
    the full scan; a non-unit raises NotAUnit.
    """
    n = pk.n
    for i, r_inv in enumerate(pk.inverse_transversal):
        if is_mth_power(sk, c.value * r_inv % n):
            return i
    raise NotInImage(f"{c.value} lies in no transversal coset")


def mult_ciphertexts(pk: CyclicPublicKey, c1: CyclicCiphertext, c2: CyclicCiphertext) -> CyclicCiphertext:
    """Homomorphic combination: decrypts to the sum of plaintexts mod m."""
    return CyclicCiphertext(c1.value * c2.value % pk.n)


def inverse_P_cyclic(sk: CyclicSecretKey, pk: CyclicPublicKey, g: int,
                     rng: random.Random) -> int | None:
    """A uniformly random a with a^m = g (mod n), or None when none exists.

    Extracts one root in each prime field and randomizes it by uniform
    m-th roots of unity componentwise, so every preimage is equally likely.
    """
    g %= pk.n
    if gcd(g, pk.n) != 1:
        raise NotAUnit(f"{g} is not a unit modulo {pk.n}")
    root_p = mth_root_mod_prime(g % sk.p, pk.m, sk.p, rng)
    if root_p is None:
        return None
    root_q = mth_root_mod_prime(g % sk.q, pk.m, sk.q, rng)
    if root_q is None:
        return None
    roots_p, roots_q = sk.roots_of_unity
    unity_p = rng.choice(roots_p)
    unity_q = rng.choice(roots_q)
    return crt_pair(root_p * unity_p % sk.p, sk.p,
                    root_q * unity_q % sk.q, sk.q)


# ---------------------------------------------------------------------------
# key generation

_BASE_ATTEMPTS = 4096


def _admissible_base(m: int, p: int, q: int, rng: random.Random) -> int:
    """A unit h mod pq whose class generates the m cosets of the m-th powers.

    It suffices that h mod p avoids the ell-th powers for every prime
    ell | m, and that for even m the component h mod q is a quadratic
    nonresidue (which also puts h inside the Jacobi-1 group).
    """
    primes = list(factorize(m))
    for _ in range(_BASE_ATTEMPTS):
        h_p = rng.randrange(2, p)
        if any(pow(h_p, (p - 1) // ell, p) == 1 for ell in primes):
            continue
        break
    else:
        raise ExhaustedRetries("no admissible base component mod p found")
    if m % 2 == 0:
        for _ in range(_BASE_ATTEMPTS):
            h_q = rng.randrange(2, q)
            if pow(h_q, (q - 1) // 2, q) != 1:
                break
        else:
            raise ExhaustedRetries("no quadratic nonresidue mod q found")
    else:
        h_q = random_unit(q, rng)
    return crt_pair(h_p, p, h_q, q)


def _validate_base(m: int, p: int, q: int, h: int) -> None:
    n = p * q
    if gcd(h, n) != 1:
        raise ValueError(f"base {h} is not a unit modulo {n}")
    h_p, h_q = h % p, h % q
    for ell in factorize(m):
        if pow(h_p, (p - 1) // ell, p) == 1:
            raise ValueError(f"base {h} has too small an order mod {p}")
    if m % 2 == 0 and pow(h_q, (q - 1) // 2, q) == 1:
        raise ValueError(f"base {h} must be a nonresidue mod {q} for even m")


def keygen_cyclic(m: int, bits: int, rng: random.Random, *,
                  randomize_transversal: bool = True,
                  primes: tuple[int, int] | None = None,
                  base: int | None = None) -> tuple[CyclicPublicKey, CyclicSecretKey]:
    """Generate a key pair for plaintext group Z_m with |p| = |q| = bits.

    Draws p = 1 (mod m) and q = -1 (mod m) from [2^bits, 2^(bits+1)], picks
    a base h = (h_p, h_q) whose powers represent all m cosets, and publishes
    the transversal {h^i * s_i^m} for fresh random units s_i.

    ``primes``, ``base`` and ``randomize_transversal=False`` are fixture
    hooks: they force the primes / base and skip the coset randomization so
    tests can pin exact key material.
    """
    if m < 2:
        raise BadOrder("plaintext order must be at least 2")
    if primes is not None:
        p, q = primes
        if not (is_probable_prime(p) and is_probable_prime(q)):
            raise ValueError("forced primes are not prime")
        if p == q or p % 2 == 0 or q % 2 == 0:
            raise ValueError("primes must be distinct and odd")
        sk = CyclicSecretKey.from_primes(p, q, m)
    else:
        for _ in range(64):
            p = random_prime_congruent(bits, 1 % m, m, rng)
            q = random_prime_congruent(bits, (-1) % m, m, rng)
            if p != q and p % 2 == 1 and q % 2 == 1:
                break
        else:
            raise ExhaustedRetries("could not find a distinct odd prime pair")
        sk = CyclicSecretKey.from_primes(p, q, m)
    n = p * q
    if base is None:
        h = _admissible_base(m, p, q, rng)
    else:
        h = base % n
        _validate_base(m, p, q, h)
    transversal = []
    for i in range(m):
        r = pow(h, i, n)
        if randomize_transversal:
            r = r * pow(random_unit(n, rng), m, n) % n
        transversal.append(r)
    pk = CyclicPublicKey(m=m, n=n, transversal=tuple(transversal))
    for i in range(m):  # self-check: coset of R[i] is exactly i
        if decrypt_cyclic(sk, pk, CyclicCiphertext(pk.transversal[i])) != i:
            raise Error("internal keygen failure: bad transversal")
    return pk, sk


# ---------------------------------------------------------------------------
# the reduction from factoring to the inversion oracle

def factor_via_inverse_oracle(instance: FactorInstance,
                              oracle: Callable[[int], int | None],
                              rng: random.Random,
                              *,
                              max_restarts: int = 64) -> tuple[int, int]:
    """Recover (p, q) from n given an oracle producing random m-th roots.

    Collects distinct roots of g^m for a random unit g until two of them
    agree modulo exactly one prime factor; their difference then reveals
    that factor through a gcd.  Odd m needs two roots, even m three.
    The oracle is the only secret-dependent component.
    """
    n, m = instance.n, instance.m
    target = 3 - (m % 2)
    for _ in range(max_restarts):
        g = random_unit(n, rng)
        power = pow(g, m, n)
        roots = {g}
        for _ in range(16 * m):
            if len(roots) >= target:
                break
            root = oracle(power)
            if root is None:
                raise OracleFailure(f"oracle refused the m-th power {power}")
            root %= n
            if pow(root, m, n) != power:
                raise OracleFailure(f"oracle returned a non-root {root}")
            roots.add(root)
        if len(roots) < target:
            continue  # unlucky oracle stream; restart with a fresh g
        for h1 in roots:
            for h2 in roots:
                if h1 <= h2:
                    continue
                d = gcd(h1 - h2, n)
                if d not in (1, n):
                    return n // d, d
    raise ExhaustedRetries("factoring reduction exceeded its restart budget")


# ---------------------------------------------------------------------------
# key files

def format_cyclic_pk(pk: CyclicPublicKey) -> str:
    lines = [
        "GHC-CYCLIC-PK v1",
        f"m: {pk.m}",
        f"n: {pk.n}",
        "R: " + " ".join(str(r) for r in pk.transversal),
    ]
    return "\n".join(lines) + "\n"


def _parse_fields(lines: list[str], header: str, fields: list[str]) -> dict[str, str]:
    if not lines or lines[0] != header:
        raise FormatError(f"expected header {header!r}")
    out: dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in fields or key in out:
            raise FormatError(f"unexpected line {line!r}")
        out[key] = value.strip()
    missing = [f for f in fields if f not in out]
    if missing:
        raise FormatError(f"missing fields: {', '.join(missing)}")
    return out


def check_cyclic_pk(pk: CyclicPublicKey, entries: Iterable[int] | None = None) -> None:
    """Raise FormatError unless n is odd and the transversal entries are
    residues 0 < r < n inside the ciphertext group G(n, m).

    ``entries`` names the indices whose group membership is checked here
    (default: all); a caller that checks the others elsewhere passes the
    rest, so no entry costs two Jacobi symbols.
    """
    n = pk.n
    if n < 3 or n % 2 == 0:
        raise FormatError(f"modulus {n} must be odd and at least 3")
    for r in pk.transversal:
        if not 0 < r < n:
            raise FormatError(f"transversal entry {r} is not a residue modulo {n}")
    for i in range(pk.m) if entries is None else entries:
        r = pk.transversal[i]
        if gcd(r, n) != 1 or not in_group_G(pk, r):
            raise FormatError(f"transversal entry {r} is outside the ciphertext group")


def parse_cyclic_pk(text: str) -> CyclicPublicKey:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    fields = _parse_fields(lines, "GHC-CYCLIC-PK v1", ["m", "n", "R"])
    try:
        m = int(fields["m"])
        n = int(fields["n"])
        transversal = tuple(int(x) for x in fields["R"].split())
    except ValueError:
        raise FormatError("non-integer key field") from None
    if m < 2:
        raise BadOrder("plaintext order must be at least 2")
    if len(transversal) != m:
        raise FormatError(f"transversal must list {m} elements")
    pk = CyclicPublicKey(m=m, n=n, transversal=transversal)
    check_cyclic_pk(pk)
    return pk


def format_cyclic_sk(sk: CyclicSecretKey) -> str:
    return f"GHC-CYCLIC-SK v1\np: {sk.p}\nq: {sk.q}\n"


def parse_cyclic_sk(text: str, pk: CyclicPublicKey) -> CyclicSecretKey:
    """Parse the secret key of ``pk``; FormatError unless p*q = n and the
    primes fit the plaintext order m."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    fields = _parse_fields(lines, "GHC-CYCLIC-SK v1", ["p", "q"])
    try:
        p, q = int(fields["p"]), int(fields["q"])
    except ValueError:
        raise FormatError("non-integer key field") from None
    try:
        sk = CyclicSecretKey.from_primes(p, q, pk.m)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if p * q != pk.n:
        raise FormatError("secret key does not match the public modulus")
    return sk
