"""Homomorphic cryptosystem over a cyclic group of order m.

The public key is a modulus n = p*q together with a transversal
R[0..m-1] of the subgroup of m-th powers inside

    G(n, m) = { g in Z_n^* : (g | n) in {1, (-1)^(m mod 2)} }

with (g | n) the Jacobi symbol (all units for odd m, the Jacobi-symbol-1
half for even m); ``in_group_G`` decides membership publicly, and the
key owner decides it by decrypting (``decrypt_cyclic``).  Encryption of
the plaintext i is a^m * R[i] for a fresh random unit a; multiplying
ciphertexts adds plaintexts mod m.  The trapdoor is the factorization of n:
p = 1 (mod m) and gcd(m, q-1) = gcd(m, 2), so membership in the group of
m-th powers is decided by one exponentiation mod p, plus one Legendre
symbol mod q for even m (for odd m every unit mod q is an m-th power).

Decryption compares characters.  The character x -> x^((p-1)/m) mod p
is a homomorphism whose kernel holds the m-th powers mod p, so c lies in
the coset of R[i] on the p side exactly when c and R[i] have the same
character (the test of Benaloh's dense probabilistic encryption, 1994).
For even m a match is confirmed by the Legendre symbol of c * R[i] mod q,
which is that of c * R[i]^-1; decryption takes no inverse.  A lone
ciphertext of plaintext i costs i + 2 powers mod p (its own character and
those of R[0..i]), plus one Jacobi symbol mod q for even m.  The
characters of the transversal depend only on the key pair, so a caller
decrypting many letters under one key passes one list that keeps them
(``decrypt_cyclic``'s ``characters``); each letter then costs one power
mod p, plus one Jacobi symbol mod q for even m, and the transversal
characters are computed once per list; ``freeprod._coset_run`` is the
caller that keeps such a list.  Key generation and the secret-key loader
(``load_cyclic_sk``, which ``parse_cyclic_sk`` and
``general.parse_general_sk`` share) check the transversal with the same
characters but without decrypting: the m characters of R[0..m-1]
(``transversal_characters``) must be distinct, one power mod p each.
Every entry lies in G(n, m), so for even m equal characters mod p force
equal Legendre symbols mod q, and distinct characters hold exactly when
each R[i] decrypts to i; the public key alone cannot tell.
``inverse_P_cyclic``'s constants come with the secret key
(``CyclicSecretKey.from_primes``, which factorizes m once), by one scan
per prime (``numtheory.root_constants``): the m-th roots of unity, the
steps of a root (per prime power ell^e of m its exponent, Sylow generator
and digit table), and p^-1 mod q.  A root then costs, per step and
prime, one full-size power, s = v_ell(p-1) digit steps of small powers
and no inverse.  It draws only two roots of unity: a fixed root times
uniform roots of unity on each side is a uniform root.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from math import gcd

from .errors import Error, FormatError, header, ints, records
from .numtheory import (
    ExhaustedRetries,
    NotAUnit,
    RootStep,
    crt_pair,
    factorize,
    is_probable_prime,
    jacobi,
    mth_root_mod_prime,
    random_prime_congruent,
    root_constants,
)

__all__ = [
    "BadOrder",
    "PlaintextRange",
    "NotInImage",
    "OracleFailure",
    "CyclicPublicKey",
    "CyclicSecretKey",
    "CyclicCiphertext",
    "keygen_cyclic",
    "in_group_G",
    "encrypt_cyclic",
    "decrypt_cyclic",
    "transversal_characters",
    "is_mth_power",
    "inverse_P_cyclic",
    "mult_ciphertexts",
    "factor_via_inverse_oracle",
    "format_cyclic_pk",
    "check_cyclic_pk",
    "parse_cyclic_pk",
    "format_cyclic_sk",
    "parse_cyclic_sk",
    "load_cyclic_sk",
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


@dataclass(frozen=True)
class CyclicSecretKey:
    p: int
    q: int
    m: int
    m_prime: int
    exp_p: int
    # inverse_P_cyclic's constants: the sorted m-th roots of unity and the
    # steps of an m-th root mod p and mod q (root_constants), and p^-1 mod q
    roots_of_unity: tuple[tuple[int, ...], tuple[int, ...]] = field(
        repr=False, compare=False)
    root_steps: tuple[tuple[RootStep, ...], tuple[RootStep, ...]] = field(
        repr=False, compare=False)
    p_inv_q: int = field(repr=False, compare=False)

    @classmethod
    def from_primes(cls, p: int, q: int, m: int) -> "CyclicSecretKey":
        """The key of the primes p and q for plaintext order m; ValueError
        unless p and q are distinct odd numbers of at least 3 that fit m
        (their primality is not tested)."""
        if m < 2:
            raise BadOrder("plaintext order must be at least 2")
        if p == q or min(p, q) < 3 or p % 2 == 0 or q % 2 == 0:
            raise ValueError(f"p = {p} and q = {q} must be distinct odd numbers >= 3")
        if (p - 1) % m != 0:
            raise ValueError(f"p = {p} does not satisfy p = 1 (mod {m})")
        m_prime = gcd(m, q - 1)
        if m_prime != gcd(m, 2):
            raise ValueError(f"q = {q} violates gcd(m, q-1) = gcd(m, 2)")
        powers = factorize(m)
        unity, steps = zip(root_constants(powers, p), root_constants(powers, q))
        return cls(p=p, q=q, m=m, m_prime=m_prime, exp_p=(p - 1) // m,
                   roots_of_unity=unity, root_steps=steps, p_inv_q=pow(p, -1, q))


@dataclass(frozen=True)
class CyclicCiphertext:
    value: int


def random_unit(n: int, rng: random.Random) -> int:
    """Uniform unit modulo n."""
    while True:
        a = rng.randrange(1, n)
        if gcd(a, n) == 1:
            return a


def in_group_G(pk: CyclicPublicKey, g: int) -> bool:
    """True when g is an element of the ciphertext group G(n, m) written as
    a residue 0 < g < n: a unit, of Jacobi symbol 1 for even m.

    The one membership rule for ciphertexts, word letters and transversal
    entries.  It never raises and never reduces g: a non-unit or a value
    outside 1..n-1 is simply not a member.  For even m the Jacobi symbol
    alone decides, since it is 0 on every non-unit.
    """
    n = pk.n
    if not 0 < g < n:
        return False
    return jacobi(g, n) == 1 if pk.m % 2 == 0 else gcd(g, n) == 1


def encrypt_cyclic(pk: CyclicPublicKey, plaintext: int, rng: random.Random) -> CyclicCiphertext:
    """Encrypt i in 0..m-1 as a^m * R[i] for a fresh random unit a."""
    if not 0 <= plaintext < pk.m:
        raise PlaintextRange(f"plaintext {plaintext} not in 0..{pk.m - 1}")
    a = random_unit(pk.n, rng)
    return CyclicCiphertext(
        pow(a, pk.m, pk.n) * pk.transversal[plaintext] % pk.n)


def is_mth_power(sk: CyclicSecretKey, g: int) -> bool:
    """Trapdoor test: is g an m-th power of a unit mod n?

    Uses the exponent test g^((p-1)/m) = 1 (mod p) and, for even m, the
    Legendre symbol (g | q) = 1 by ``jacobi``, which rejects the units of
    Jacobi symbol -1 (for odd m every unit mod q is an m-th power).  So one
    power mod p, plus one Jacobi symbol mod q for even m if the first holds.
    """
    n = sk.p * sk.q
    g %= n
    if gcd(g, n) != 1:
        raise NotAUnit(f"{g} is not a unit modulo {n}")
    if pow(g % sk.p, sk.exp_p, sk.p) != 1:
        return False
    return sk.m_prime == 1 or jacobi(g % sk.q, sk.q) == 1


def decrypt_cyclic(sk: CyclicSecretKey, pk: CyclicPublicKey, c: CyclicCiphertext,
                   characters: list[int] | None = None) -> int:
    """Recover the plaintext: the first i with c * R[i]^-1 an m-th power.

    With the character chi(x) = x^((p-1)/m) mod p, the p side of that test
    is chi(c) == chi(R[i]); for even m a p-side match also needs the
    Legendre symbol (c * R[i] | q) = 1, which equals (c * R[i]^-1 | q)
    (``jacobi``: reciprocity, about 0.45 of the cost of Euler's criterion
    at 33 bits and 0.2 at 257), and the scan goes on when it fails.  No inverse is taken.
    ``characters`` memoizes chi(R[0]), chi(R[1]), ... and is filled in
    order as the scan first reaches each coset; it belongs to this key
    pair, and a caller that decrypts several letters under the key passes
    the same list each time.  A letter of plaintext i costs one power mod
    p, the characters of R[0..i] not yet in the list, and one Jacobi
    symbol mod q per p-side match for even m.  A unit outside the
    ciphertext group raises NotInImage after the full scan; a non-unit
    raises NotAUnit.  So for a key pair made by keygen, decryption returns
    i only for members of G(n, m) and raises NotAUnit or NotInImage
    otherwise: the key owner can check a received value in 1..n-1 by
    decrypting it, with no Jacobi symbol mod n (the value is reduced mod
    n, so the range is the caller's to check).
    """
    n, p, q = pk.n, sk.p, sk.q
    value = c.value % n
    if gcd(value, n) != 1:
        raise NotAUnit(f"{value} is not a unit modulo {n}")
    x = pow(value % p, sk.exp_p, p)
    if characters is None:
        characters = []
    for i, r in enumerate(pk.transversal):
        if i == len(characters):
            characters.append(pow(r % p, sk.exp_p, p))
        if x == characters[i] and (sk.m_prime == 1 or jacobi(value * r % q, q) == 1):
            return i
    raise NotInImage(f"{c.value} lies in no transversal coset")


def transversal_characters(sk: CyclicSecretKey, pk: CyclicPublicKey) -> list[int]:
    """The characters R[i]^((p-1)/m) mod p of the m transversal entries,
    ``decrypt_cyclic``'s chi at one power mod p each.  They are distinct
    exactly when each R[i] decrypts to i."""
    p = sk.p
    return [pow(r % p, sk.exp_p, p) for r in pk.transversal]


def mult_ciphertexts(pk: CyclicPublicKey, c1: CyclicCiphertext, c2: CyclicCiphertext) -> CyclicCiphertext:
    """Homomorphic combination: decrypts to the sum of plaintexts mod m."""
    return CyclicCiphertext(c1.value * c2.value % pk.n)


def inverse_P_cyclic(sk: CyclicSecretKey, pk: CyclicPublicKey, g: int,
                     rng: random.Random) -> int | None:
    """A uniformly random a with a^m = g (mod n), or None when none exists.

    Extracts one root of g in each prime field, fixed by the key's root
    steps, and multiplies it by a uniform m-th root of unity on each
    side.  The roots of g mod p are that root times the roots of
    unity, and likewise mod q, so every preimage is equally likely.  Only
    a success draws from the rng: one ``choice`` per side.
    """
    g %= pk.n
    if gcd(g, pk.n) != 1:
        raise NotAUnit(f"{g} is not a unit modulo {pk.n}")
    root_p = mth_root_mod_prime(g, sk.p, sk.root_steps[0])
    if root_p is None:
        return None
    root_q = mth_root_mod_prime(g, sk.q, sk.root_steps[1])
    if root_q is None:
        return None
    a_p = root_p * rng.choice(sk.roots_of_unity[0]) % sk.p
    a_q = root_q * rng.choice(sk.roots_of_unity[1]) % sk.q
    return a_p + sk.p * ((a_q - a_p) * sk.p_inv_q % sk.q)


# ---------------------------------------------------------------------------
# key generation

_BASE_ATTEMPTS = 4096


def _admissible_base(m: int, p: int, q: int, rng: random.Random) -> int:
    """A unit h mod pq whose class generates the m cosets of the m-th powers.

    It suffices that h mod p avoids the ell-th powers for every prime
    ell | m, and that for even m the component h mod q is a quadratic
    nonresidue by ``jacobi`` (which also puts h inside the Jacobi-1 group).
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
            if jacobi(h_q, q) != 1:
                break
        else:
            raise ExhaustedRetries("no quadratic nonresidue mod q found")
    else:
        h_q = random_unit(q, rng)
    return crt_pair(h_p, p, h_q, q)


def keygen_cyclic(m: int, bits: int, rng: random.Random, *,
                  primes: tuple[int, int] | None = None
                  ) -> tuple[CyclicPublicKey, CyclicSecretKey]:
    """Generate a key pair for plaintext group Z_m with |p| = |q| = bits.

    Draws p = 1 (mod m) and q = -1 (mod m) from [2^bits, 2^(bits+1)], picks
    a base h = (h_p, h_q) whose powers represent all m cosets, and publishes
    the transversal {h^i * s_i^m} for fresh random units s_i, h^i by a
    running product.  ``primes`` forces the pair (p, q) in place of the
    draw; the rest stays random.

    Self-check: the ``transversal_characters`` of the m entries must be
    distinct, else Error; that holds exactly when each R[i] decrypts to i
    (see the module docstring).
    """
    if m < 2:
        raise BadOrder("plaintext order must be at least 2")
    if primes is not None:
        p, q = primes
        if not (is_probable_prime(p) and is_probable_prime(q)):
            raise ValueError("forced primes are not prime")
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
    h = _admissible_base(m, p, q, rng)
    transversal = []
    h_i = 1  # h^i mod n
    for _ in range(m):
        transversal.append(h_i * pow(random_unit(n, rng), m, n) % n)
        h_i = h_i * h % n
    pk = CyclicPublicKey(m=m, n=n, transversal=tuple(transversal))
    if len(set(transversal_characters(sk, pk))) != m:
        raise Error("internal keygen failure: bad transversal")
    return pk, sk


# ---------------------------------------------------------------------------
# the reduction from factoring to the inversion oracle

_MAX_RESTARTS = 64


def factor_via_inverse_oracle(pk: CyclicPublicKey,
                              oracle: Callable[[int], int | None],
                              rng: random.Random) -> tuple[int, int]:
    """Recover (p, q) from n given an oracle producing random m-th roots.

    Collects distinct roots of g^m for a random unit g until two of them
    agree modulo exactly one prime factor; their difference then reveals
    that factor through a gcd.  Odd m needs two roots, even m three; a
    fresh g is drawn up to ``_MAX_RESTARTS`` times.  The oracle is the only
    secret-dependent component.
    """
    n, m = pk.n, pk.m
    target = 3 - (m % 2)
    for _ in range(_MAX_RESTARTS):
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


def _parse_fields(text: str, magic: str, fields: list[str]) -> dict[str, str]:
    lines = records(text)
    header(lines, magic)
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


def check_cyclic_pk(pk: CyclicPublicKey) -> None:
    """Raise FormatError unless n is odd and at least 3, every transversal
    entry is an element of G(n, m) (``in_group_G``), and no entry R[e],
    e >= 1, is 1 (an m-th power, so no representative of coset e)."""
    n = pk.n
    if n < 3 or n % 2 == 0:
        raise FormatError(f"modulus {n} must be odd and at least 3")
    for r in pk.transversal:
        if not in_group_G(pk, r):
            raise FormatError(f"transversal entry {r} is not an element of "
                              f"G({n}, {pk.m}) within 1..{n - 1}")
    if 1 in pk.transversal[1:]:
        raise FormatError("transversal entry R[e] for e >= 1 is 1")


def parse_cyclic_pk(text: str) -> CyclicPublicKey:
    fields = _parse_fields(text, "GHC-CYCLIC-PK v1", ["m", "n", "R"])
    m, n, *transversal = ints([fields["m"], fields["n"], *fields["R"].split()],
                              "key field")
    if m < 2:
        raise BadOrder("plaintext order must be at least 2")
    if len(transversal) != m:
        raise FormatError(f"transversal must list {m} elements")
    pk = CyclicPublicKey(m=m, n=n, transversal=tuple(transversal))
    check_cyclic_pk(pk)
    return pk


def format_cyclic_sk(sk: CyclicSecretKey) -> str:
    return f"GHC-CYCLIC-SK v1\np: {sk.p}\nq: {sk.q}\n"


def load_cyclic_sk(p: int, q: int, pk: CyclicPublicKey) -> CyclicSecretKey:
    """The secret key (p, q) of ``pk``; FormatError unless the primes fit
    the plaintext order m, p*q = n and the transversal entries lie in m
    distinct cosets (``transversal_characters``)."""
    try:
        sk = CyclicSecretKey.from_primes(p, q, pk.m)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if p * q != pk.n:
        raise FormatError("secret key does not match the public modulus")
    if len(set(transversal_characters(sk, pk))) != pk.m:
        raise FormatError("two transversal entries lie in one coset")
    return sk


def parse_cyclic_sk(text: str, pk: CyclicPublicKey) -> CyclicSecretKey:
    """Parse the secret key of ``pk`` (``load_cyclic_sk``)."""
    fields = _parse_fields(text, "GHC-CYCLIC-SK v1", ["p", "q"])
    p, q = ints([fields["p"], fields["q"]], "key field")
    return load_cyclic_sk(p, q, pk)
