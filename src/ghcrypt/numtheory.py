"""Arbitrary-precision modular arithmetic primitives.

All values are plain Python integers; residues are kept canonical
(``0 <= value < modulus``).  Every randomized operation takes an explicit
``random.Random`` instance so results are reproducible from a seed.
"""

from __future__ import annotations

import random
from math import gcd, prod
from typing import NamedTuple

from .errors import Error

__all__ = [
    "NotAUnit",
    "EvenModulus",
    "NotCoprime",
    "ExhaustedRetries",
    "gcd",
    "mod_inverse",
    "jacobi",
    "is_probable_prime",
    "random_prime_congruent",
    "crt_pair",
    "factorize",
    "mth_root_mod_prime",
    "mth_roots_of_unity",
    "root_constants",
]


class NotAUnit(Error):
    """Operand is not invertible modulo the modulus."""


class EvenModulus(Error):
    """The Jacobi symbol requires an odd modulus."""


class NotCoprime(Error):
    """Arguments that must be coprime are not."""


class ExhaustedRetries(Error):
    """A bounded random search ran out of attempts."""


def mod_inverse(a: int, modulus: int) -> int:
    """Return the inverse of ``a`` modulo ``modulus``.

    Raises NotAUnit when gcd(a, modulus) != 1.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    a %= modulus
    if gcd(a, modulus) != 1:
        raise NotAUnit(f"{a} is not a unit modulo {modulus}")
    return pow(a, -1, modulus)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1.

    Returns 0 exactly when gcd(a, n) > 1.  Each step costs one remainder
    n % a, its only division, and for an even a one shift that strips all
    its factors of 2; the signs come off the low bits: (2/n) = -1 for
    n = 3, 5 (mod 8), and reciprocity flips for a = n = 3 (mod 4).
    """
    if n < 1 or n % 2 == 0:
        raise EvenModulus(f"Jacobi symbol undefined for modulus {n}")
    if a < 0:
        raise ValueError("a must be nonnegative")
    a %= n
    result = 1
    while a:
        if not a & 1:
            z = (a & -a).bit_length() - 1
            a >>= z
            if z & 1 and n & 7 in (3, 5):
                result = -result
        if 2 & a & n:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_ROUNDS = 40


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test with 40 random witnesses.

    Never rejects a prime; accepts a composite with probability at most
    4**-40.  With ``rng=None`` the witness choice is a deterministic
    function of ``n``, so repeated calls agree.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if rng is None:
        rng = random.Random(n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime_congruent(bits: int, residue: int, modulus: int, rng: random.Random) -> int:
    """Random probable prime p in [2**bits, 2**(bits+1)] with p = residue (mod modulus).

    The search draws uniformly from the odd members of the congruence class
    inside the interval and gives up (ExhaustedRetries) after 64*bits failed
    candidates.  For an odd modulus those are one class mod 2*modulus; for
    an even one every member is odd already.
    """
    if bits < 1:
        raise ValueError("bits must be at least 1")
    if modulus < 1:
        raise ValueError("modulus must be at least 1")
    residue %= modulus
    if gcd(residue, modulus) != 1:
        raise ValueError("residue must be coprime to the modulus")
    if modulus % 2:
        residue, modulus = residue + modulus * (1 - residue % 2), 2 * modulus
    lo, hi = 1 << bits, 1 << (bits + 1)
    first = lo + (residue - lo) % modulus
    if first > hi:
        raise ExhaustedRetries(
            f"no integers = {residue} (mod {modulus}) in [{lo}, {hi}]")
    count = (hi - first) // modulus + 1
    budget = 64 * bits
    for _ in range(budget):
        candidate = first + modulus * rng.randrange(count)
        if is_probable_prime(candidate, rng=rng):
            return candidate
    raise ExhaustedRetries(
        f"no prime = {residue} (mod {modulus}) in [{lo}, {hi}] after {budget} attempts")


def crt_pair(a_p: int, p: int, a_q: int, q: int) -> int:
    """Combine residues mod p and mod q into the unique residue mod p*q."""
    if p < 2 or q < 2:
        raise ValueError("moduli must be at least 2")
    if gcd(p, q) != 1:
        raise NotCoprime(f"moduli {p} and {q} are not coprime")
    a_p %= p
    a_q %= q
    return (a_p + p * ((a_q - a_p) * pow(p, -1, q) % q)) % (p * q)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division.

    Only intended for small inputs (group orders and exponents); never call
    this on cryptographic-size integers.
    """
    if n < 1:
        raise ValueError("n must be positive")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


class RootStep(NamedTuple):
    """The constants of one step of an m-th root mod p: an ell**e-th root,
    for a prime power ell**e of m.

    ``s`` is v_ell(p - 1) and t = (p - 1) / ell**s, and ``exponent`` is
    u - 1 mod p - 1 for u = (ell**e)^-1 mod t.  When s > 0, ``b``
    generates the ell-Sylow subgroup mod p (order ell**s, so b**-x is
    b**(ell**s - x)) and ``digits`` maps each ell-th root of 1 to its
    discrete log to the base b**(ell**(s-1)); both are None when s = 0.
    """

    ell: int
    e: int
    s: int
    exponent: int
    b: int | None
    digits: dict[int, int] | None


def _prime_power_root(a: int, p: int, step: RootStep) -> int | None:
    """One solution of x**(ell**e) = a (mod p), or None if there is none.

    One full-size power, r = a**(u-1).  x0 = a*r = a**u is a root up to
    the defect x0**(ell**e) / a = r**(ell**e) * a**(ell**e - 1), which lies
    in the ell-Sylow subgroup (u * ell**e = 1 mod t); when s = 0 that
    subgroup is trivial and x0 is the root.  Otherwise s digit steps read
    the defect's discrete log to b (Pohlig-Hellman): a root exists exactly
    when ell**min(e, s) divides it, and x0 * b**j is one for
    j * ell**e = -log (mod ell**s).  No inverse is taken.
    """
    ell, e, s, exponent, b, digits = step
    r = pow(a, exponent, p)
    x = a * r % p
    if not s:
        return x
    power = ell ** e
    defect = pow(r, power, p) * pow(a, power - 1, p) % p
    c, log = min(e, s), 0
    for k in range(s):
        digit = digits.get(pow(defect, ell ** (s - 1 - k), p))
        if digit is None:
            raise Error("defect is not in the ell-Sylow subgroup")
        if digit:
            if k < c:
                return None  # ell**c does not divide the log
            log += digit * ell ** k
            defect = defect * pow(b, ell ** s - digit * ell ** k, p) % p
    x = x * pow(b, -(log // ell ** c) % ell ** (s - c), p) % p
    if pow(x, power, p) != a:
        raise Error("internal root extraction failure")
    return x


def mth_root_mod_prime(g: int, p: int, steps: tuple[RootStep, ...]) -> int | None:
    """Some x with x**m = g (mod p), or None when no root exists.

    ``steps`` are the second half of ``root_constants(factorize(m), p)``:
    one ell**e-th root per prime power of m (Adleman-Manders-Miller), each
    one full-size power mod p, s = v_ell(p - 1) digit steps of small powers
    and no inverse.  The root depends on the arguments alone.
    """
    g %= p
    if g == 0:
        raise NotAUnit(f"{g} is not a unit modulo {p}")
    for step in steps:
        g = _prime_power_root(g, p, step)
        if g is None:
            return None
    return g


def root_constants(powers: dict[int, int], p: int
                   ) -> tuple[tuple[int, ...], tuple[RootStep, ...]]:
    """The sorted m-th roots of unity mod p, and the steps of an m-th root
    (``RootStep``, one per prime power ell**e of m, ascending); ``powers``
    is m's factorization {ell: e}, as ``factorize`` gives it.

    One scan finds the least z >= 2 whose ((p-1)/d)-th power w has order
    d = gcd(m, p-1): the roots are the powers of w, and as z is no ell-th
    power, z**t has order ell**s, so it is the step's Sylow generator b.
    A root then costs one full-size power per step, s digit steps and no
    inverse (``mth_root_mod_prime``).
    """
    if p < 2:
        raise ValueError("p must be prime")
    d = gcd(prod(ell ** e for ell, e in powers.items()), p - 1)
    if d == 1:
        return (1,), tuple(_root_step(ell, e, p, 1) for ell, e in powers.items())
    primes = [ell for ell in powers if d % ell == 0]
    for z in range(2, min(p, 1 << 20)):
        w = pow(z, (p - 1) // d, p)
        if all(pow(w, d // r, p) != 1 for r in primes):
            roots = [1]
            for _ in range(d - 1):
                roots.append(roots[-1] * w % p)
            return (tuple(sorted(roots)),
                    tuple(_root_step(ell, e, p, z) for ell, e in powers.items()))
    raise Error(f"could not find an element of order {d} modulo {p}")


def _root_step(ell: int, e: int, p: int, z: int) -> RootStep:
    """The step of an ell**e-th root mod p; z is no ell-th power mod p
    (unread when ell does not divide p - 1)."""
    t, s = p - 1, 0
    while t % ell == 0:
        t //= ell
        s += 1
    exponent = (pow(ell ** e, -1, t) - 1) % (p - 1)
    if not s:
        return RootStep(ell, e, 0, exponent, None, None)
    b = pow(z, t, p)
    gamma = pow(b, ell ** (s - 1), p)
    return RootStep(ell, e, s, exponent, b, {pow(gamma, i, p): i for i in range(ell)})


def mth_roots_of_unity(m: int, p: int) -> list[int]:
    """All x mod p with x**m = 1, sorted.  The list has gcd(m, p-1) entries."""
    return list(root_constants(factorize(m), p)[0])
