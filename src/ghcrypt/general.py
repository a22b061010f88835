"""Homomorphic cryptosystem over an arbitrary finite nonidentity group H.

The key takes the greedy generators of H (``FiniteGroup.generators``) and
one residue cryptosystem per generator, with plaintext order equal to the
generator's order; a cyclic H gets a single generator of order |H|.  The
public representative of an element of H is its shortest word over the
generators, one transversal letter per syllable.  Ciphertexts are
normal-form words over the factor family; decryption sends each letter to
its coset (``phi_map``) and folds the image in H (``psi_map``).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import Error, FormatError, header, ints, records
from .groupcore import FiniteGroup, GroupElement, format_group, read_group
from .numtheory import ExhaustedRetries, NotAUnit
from .cyclic import (
    CyclicPublicKey,
    CyclicSecretKey,
    NotInImage,
    check_cyclic_pk,
    in_group_G,
    keygen_cyclic,
    load_cyclic_sk,
    random_unit,
)
from .freeprod import (
    FactorFamily,
    GWord,
    _coset_run,
    _draw_phi_witness,
    _invert_pending,
    _letters,
    _outside_group,
    _phi_letters,
    _psi_letters,
    _tokens,
    g_inverse,
    g_multiply,
    inverse_p_phi,
    kword_from_runs,
    normalize,
    p_psi,
    phi_map,
    psi_map,
    format_gword,
    random_phi_witness,
    trapdoor_oracle,
)

__all__ = [
    "IdentityGroup",
    "MalformedWord",
    "GeneralPublicKey",
    "GeneralSecretKey",
    "GeneralCiphertext",
    "keygen_general",
    "encrypt_general",
    "decrypt_general",
    "decrypt_general_text",
    "mult_ciphertexts_general",
    "inverse_P_general",
    "format_general_pk",
    "parse_general_pk",
    "format_general_sk",
    "parse_general_sk",
]


class IdentityGroup(Error):
    """Cannot build a cryptosystem over the one-element group."""


class MalformedWord(Error):
    """A ciphertext word violates the structure the key implies."""


@dataclass(frozen=True)
class GeneralPublicKey:
    """Public key: the plaintext group, its generators, and one residue
    cryptosystem per generator.

    ``generators`` is ``H.generators``, element indices of H; factor i
    encrypts the powers of ``generators[i-1]``.
    """

    group: FiniteGroup
    generators: tuple[int, ...]
    family: FactorFamily = field(compare=False)
    # element index -> its shortest word: the (factor, exponent) syllables
    # whose generators[factor-1] ** exponent multiply to it
    coordinates: dict[int, tuple[tuple[int, int], ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        # Breadth first: layer by layer, factors in order, exponents
        # ascending, the first word to reach an element kept.  No two
        # adjacent syllables share a factor (they would merge into a
        # shorter word).
        rows = self.group.table
        table = {0: ()}
        layer = [0]
        while layer:
            reached = []
            for el in layer:
                for factor, g in enumerate(self.generators, start=1):
                    x, e = rows[el][g], 1
                    while x != el:
                        if x not in table:
                            table[x] = table[el] + ((factor, e),)
                            reached.append(x)
                        x, e = rows[x][g], e + 1
            layer = reached
        object.__setattr__(self, "coordinates", table)

    def transversal_word(self, element_index: int) -> GWord:
        """The public coset representative word for an element of H."""
        try:
            word = self.coordinates[element_index]
        except KeyError:
            raise ValueError(f"element {element_index} unknown to the key") from None
        return normalize(self.family, _psi_letters(self.family.factors, word))


@dataclass(frozen=True)
class GeneralSecretKey:
    factors: tuple[CyclicSecretKey, ...]


@dataclass(frozen=True)
class GeneralCiphertext:
    word: GWord

    def __len__(self) -> int:
        return len(self.word)


def _require_key_family(pk: GeneralPublicKey, word: GWord) -> None:
    if word.family.factors != pk.family.factors:
        raise MalformedWord("word does not match the key")


def keygen_general(H: FiniteGroup, bits: int, rng: random.Random
                   ) -> tuple[GeneralPublicKey, GeneralSecretKey]:
    """Generate a key pair for plaintext group H with |p_i| = |q_i| = bits.

    One factor per generator in ``H.generators``, of the generator's order
    (a single factor of order |H| for cyclic H; orders 6 and 5 for Sym(5),
    since the generators after the first are of odd order where they can
    be), with pairwise distinct moduli.
    """
    if H.order < 2:
        raise IdentityGroup("the plaintext group must have at least 2 elements")
    generators = H.generators
    publics: list[CyclicPublicKey] = []
    secrets: list[CyclicSecretKey] = []
    used: set[int] = set()
    for g in generators:
        for _ in range(64):
            pk_i, sk_i = keygen_cyclic(H.order_of(g), bits, rng)
            if pk_i.n not in used:
                break
        else:
            raise ExhaustedRetries("could not find distinct factor moduli")
        used.add(pk_i.n)
        publics.append(pk_i)
        secrets.append(sk_i)
    pk = GeneralPublicKey(H, generators, FactorFamily(tuple(publics)))
    return pk, GeneralSecretKey(tuple(secrets))


def _randomization(pk: GeneralPublicKey, phi_steps: int | None,
                   psi_length: int | None) -> tuple[int, int]:
    """The randomization sizes with their defaults, 2|H| and |H|; Error
    when either is negative."""
    steps = 2 * pk.group.order if phi_steps is None else phi_steps
    length = pk.group.order if psi_length is None else psi_length
    if steps < 0 or length < 0:
        raise Error(f"randomization sizes must be nonnegative, got "
                    f"phi steps {steps} and psi length {length}")
    return steps, length


def _psi_syllables(pk: GeneralPublicKey, length: int, rng: random.Random
                   ) -> tuple[tuple[int, int], ...]:
    """``sample_A``'s psi witness: ``length`` random transversal syllables
    closed off with the shortest word of the inverse of their image in H."""
    H = pk.group
    factors = pk.family.factors
    randrange, table, generators = rng.randrange, H.table, pk.generators
    count = len(factors)
    syllables: list[tuple[int, int]] = []
    acc = H.identity
    for _ in range(length):
        i = randrange(1, count + 1)
        e = randrange(factors[i - 1].m)
        syllables.append((i, e))
        g = generators[i - 1]
        for _ in range(e):
            acc = table[acc][g]
    return (*syllables, *pk.coordinates[H.inverse(acc)])


def sample_A(pk: GeneralPublicKey, rng: random.Random, *,
             phi_steps: int | None = None, psi_length: int | None = None
             ) -> tuple[tuple[tuple[int, int, bool], ...], tuple[tuple[int, int], ...]]:
    """Sample a random kernel proof pair (a, b), the witnesses ``combined_P``
    evaluates.

    ``a`` is the phi witness of ``freeprod.random_phi_witness`` grown by
    ``phi_steps`` conjugated insertions (default 2|H|), (factor, value,
    is_a0) triples, at one modular inverse per factor.  ``b`` is a psi
    witness of (factor, index) syllables: ``psi_length`` random
    transversal letters (default |H|) closed off with the shortest word of
    the inverse of their running image in H, so the evaluated pair always
    maps to the identity of H.
    """
    steps, length = _randomization(pk, phi_steps, psi_length)
    a = random_phi_witness(pk.family, steps, rng)
    return a, _psi_syllables(pk, length, rng)


def _encrypt_words(pk: GeneralPublicKey, elements: Sequence[GroupElement],
                   rng: random.Random, phi_steps: int | None,
                   psi_length: int | None) -> list[GWord]:
    """The ciphertext words of ``encrypt_general`` for a sequence of
    elements of H, in order, from the draws it makes for each in turn.

    With several factors every pair is drawn first (``sample_A``'s draws,
    the x^-1 letters deferred), then all x values of a factor are inverted
    at once: one modular inverse per factor for the whole sequence.  Each
    word is then one ``normalize`` pass over its pair and the
    representative's syllables, unchecked, since the sampled letters are
    members by construction.  A one-factor key takes no inverse, and its
    words come from ``encrypt_general``, one element at a time.
    """
    if pk.family.count == 1:
        return [encrypt_general(pk, h, rng, phi_steps=phi_steps,
                                psi_length=psi_length).word for h in elements]
    for h in elements:
        if h.group is not pk.group:
            raise ValueError("plaintext element belongs to a different group")
    steps, length = _randomization(pk, phi_steps, psi_length)
    family = pk.family
    factors = family.factors
    # combined_P of each pair times the representative: the same word, since
    # normal forms are unique
    pending: list[list[int]] = [[] for _ in factors]  # x values, then inverses
    pairs = [(_draw_phi_witness(factors, steps, rng, pending),
              _psi_syllables(pk, length, rng)) for _ in elements]
    _invert_pending(factors, pending)
    return [normalize(family, _phi_letters(factors, a, pending)
                      + _psi_letters(factors, b + pk.coordinates[h.index]))
            for (a, b), h in zip(pairs, elements)]


def encrypt_general(pk: GeneralPublicKey, h: GroupElement, rng: random.Random, *,
                    phi_steps: int | None = None,
                    psi_length: int | None = None) -> GeneralCiphertext:
    """Encrypt an element of H as a random kernel word times its coset
    representative.

    ``phi_steps`` / ``psi_length`` tune the randomization size; zero for
    both gives the bare representative (useful only in tests).  With
    several factors this is a one-element ``_encrypt_words``:
    ``sample_A``'s pair and the representative's syllables evaluated in
    one ``normalize`` pass, unchecked, at one modular inverse per factor.
    """
    if h.group is not pk.group:
        raise ValueError("plaintext element belongs to a different group")
    if pk.family.count == 1:
        # One factor: the kernel is the group of m-th powers, so a fresh a^m
        # is the whole random kernel word.  sample_A and the normalize pass
        # would reach the same kind of word at several times the cost of
        # this product.
        fpk = pk.family.public(1)
        bare = _randomization(pk, phi_steps, psi_length) == (0, 0)
        a = 1 if bare else random_unit(fpk.n, rng)
        value = pow(a, fpk.m, fpk.n)
        for _, e in pk.coordinates[h.index]:  # no syllable for the identity
            value = value * fpk.transversal[e] % fpk.n
        return GeneralCiphertext(normalize(pk.family, [(1, value)]))
    return GeneralCiphertext(_encrypt_words(pk, (h,), rng, phi_steps, psi_length)[0])


def decrypt_general(sk: GeneralSecretKey, pk: GeneralPublicKey,
                    c: GeneralCiphertext) -> GroupElement:
    """Evaluate the trapdoor epimorphism on a ciphertext word."""
    _require_key_family(pk, c.word)
    k = phi_map(c.word, sk.factors, pk.generators)
    return psi_map(k, pk.group)


def decrypt_general_text(sk: GeneralSecretKey, pk: GeneralPublicKey,
                         text: str) -> GroupElement:
    """The key owner's reader: decrypt a word straight from its text.

    The tokens, factor range and 0 < v < n_i checks are ``parse_gword``'s,
    but membership is decided by the trapdoor: for a key pair made by
    keygen a value decrypts exactly when it lies in G(n_i, m_i), so each
    letter costs one power mod p_i, plus one Jacobi symbol mod q_i for even
    m_i, and no Jacobi symbol mod n_i.  A letter that does not decrypt
    raises ``parse_gword``'s LetterOutOfGroup, and errors come in token
    order.  Each raw letter is decrypted before any merging, so two
    non-members whose product is a member are still rejected.  phi is a
    homomorphism and normal forms are unique, so the result is
    ``decrypt_general`` of ``parse_gword``'s word.  A member that decrypts
    to no coset (a loaded key pair whose public transversal leaves a coset
    uncovered) raises ``decrypt_cyclic``'s NotInImage, not LetterOutOfGroup.
    """
    factors = pk.family.factors
    run = _coset_run(factors, sk.factors, pk.generators)
    runs = []
    for i, v in _letters(_tokens(text), pk.family):
        fpk = factors[i - 1]
        if not 0 < v < fpk.n:
            raise _outside_group(fpk, i, v)
        try:
            runs.append(run(i, v))
        except NotInImage:
            if in_group_G(fpk, v):
                raise
            raise _outside_group(fpk, i, v) from None
        except NotAUnit:
            raise _outside_group(fpk, i, v) from None
    return psi_map(kword_from_runs(runs), pk.group)


def mult_ciphertexts_general(pk: GeneralPublicKey, c1: GeneralCiphertext,
                             c2: GeneralCiphertext) -> GeneralCiphertext:
    """Homomorphic combination: decrypts to the product in H."""
    return GeneralCiphertext(g_multiply(c1.word, c2.word))


def inverse_P_general(sk: GeneralSecretKey, pk: GeneralPublicKey, g: GWord,
                      rng: random.Random
                      ) -> tuple[tuple[tuple[int, int, bool], ...],
                                 tuple[tuple[int, int], ...]] | None:
    """Produce a kernel proof pair for g, or None when g is not a kernel
    element of the epimorphism onto H.

    On success ``combined_P`` maps the returned pair, the tuples
    ``sample_A`` draws, back to g.
    """
    _require_key_family(pk, g)
    r: tuple[tuple[int, int], ...] = ()
    # psi is injective on one factor, so a word of at most one letter is in
    # the kernel exactly when inverse_p_phi finds a root for its letter
    if len(g) > 1:
        k = phi_map(g, sk.factors, pk.generators)
        if psi_map(k, pk.group).index != pk.group.identity:
            return None
        # lift: one transversal letter per run, in its generator's factor
        r = tuple((pk.generators.index(x) + 1, exponent) for x, exponent, _ in k.runs)
    kernel_part = g_multiply(g, g_inverse(p_psi(pk.family, r)))
    witness, tail = inverse_p_phi(kernel_part, trapdoor_oracle(pk.family, sk.factors, rng))
    if tail.is_identity:
        return witness, r
    if len(g) <= 1:
        return None
    raise Error("internal inversion failure: residual non-kernel word")


# ---------------------------------------------------------------------------
# key files

def format_general_pk(pk: GeneralPublicKey) -> str:
    lines = ["GHC-GENERAL-PK v1"]
    lines.append(format_group(pk.group).rstrip("\n"))
    for i in range(1, len(pk.generators) + 1):
        fpk = pk.family.public(i)
        lines.append(f"FACTOR {i} {fpk.m} {fpk.n} R: "
                     + " ".join(str(r) for r in fpk.transversal))
    lines.append("TRANSVERSAL")
    for el in range(1, pk.group.order):
        lines.append(f"{el} {format_gword(pk.transversal_word(el))}")
    return "\n".join(lines) + "\n"


def parse_general_pk(text: str) -> GeneralPublicKey:
    lines = records(text)
    header(lines, "GHC-GENERAL-PK v1")
    group, idx = read_group(lines, 1)
    factors: list[CyclicPublicKey] = []
    while idx < len(lines) and (parts := lines[idx].split())[0] == "FACTOR":
        if len(parts) < 5 or parts[4] != "R:":
            raise FormatError(f"bad factor line {lines[idx]!r}")
        fi, m, n, *transversal = ints(parts[1:4] + parts[5:], "factor line fields")
        if fi != len(factors) + 1:
            raise FormatError("factor lines must be numbered consecutively")
        if len(transversal) != m:
            raise FormatError(f"factor {fi} transversal must list {m} elements")
        factors.append(CyclicPublicKey(m=m, n=n, transversal=tuple(transversal)))
        check_cyclic_pk(factors[-1])
        idx += 1
    if not factors:
        raise FormatError("key lists no factors")
    if len({f.n for f in factors}) != len(factors):
        raise FormatError("factor moduli must be distinct")
    generators = group.generators
    if len(factors) != len(generators):
        raise FormatError(
            f"expected {len(generators)} factors, found {len(factors)}")
    pk = GeneralPublicKey(group, generators, FactorFamily(tuple(factors)))
    for i, gen in enumerate(generators, start=1):
        if pk.family.order(i) != group.order_of(gen):
            raise FormatError(f"factor {i} order does not match its generator")
    if idx >= len(lines) or lines[idx] != "TRANSVERSAL":
        raise FormatError("missing TRANSVERSAL section")
    entries = lines[idx + 1:]
    if len(entries) != group.order - 1:
        raise FormatError("TRANSVERSAL must list every nonidentity element")
    # the section repeats entries of the FACTOR lines, checked above, so
    # each line must be spelled exactly as format_general_pk writes it: one
    # letter per syllable of the element's word (no entry R[e], e >= 1, is
    # 1, so transversal_word drops none); a line is split only when it
    # differs from that spelling, to accept other whitespace
    letters = [[f"{i}:{r}" for r in f.transversal]
               for i, f in enumerate(factors, start=1)]
    for el, entry in enumerate(entries, start=1):
        expected = " ".join([str(el), *[letters[i - 1][e]
                                         for i, e in pk.coordinates[el]]])
        if entry != expected and entry.split() != expected.split():
            raise FormatError(f"TRANSVERSAL line {el} is not {expected!r}")
    return pk


def format_general_sk(sk: GeneralSecretKey) -> str:
    lines = ["GHC-GENERAL-SK v1"]
    for i, fsk in enumerate(sk.factors, start=1):
        lines.append(f"FACTOR {i} {fsk.p} {fsk.q}")
    return "\n".join(lines) + "\n"


def parse_general_sk(text: str, pk: GeneralPublicKey) -> GeneralSecretKey:
    lines = records(text)
    header(lines, "GHC-GENERAL-SK v1")
    secrets: list[CyclicSecretKey] = []
    for line in lines[1:]:
        fi, p, q = ints(header([line], "FACTOR", 3), f"secret factor line {line!r}")
        if fi != len(secrets) + 1:
            raise FormatError("factor lines must be numbered consecutively")
        if fi > pk.family.count:
            raise FormatError("more secret factors than public factors")
        try:
            secrets.append(load_cyclic_sk(p, q, pk.family.public(fi)))
        except FormatError as exc:
            raise FormatError(f"factor {fi}: {exc}") from None
    if len(secrets) != pk.family.count:
        raise FormatError("secret count does not match factor count")
    return GeneralSecretKey(tuple(secrets))
