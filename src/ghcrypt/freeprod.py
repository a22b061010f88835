"""Word calculus in a free product of residue groups.

Ciphertexts of the general cryptosystem are words whose letters are units
drawn from per-factor groups G_i inside Z_{n_i}^*.  A word is kept in
normal form: adjacent letters always belong to distinct factors, and
identity letters are never stored, so two words are equal in the group
exactly when they are equal as sequences.

``normalize`` is the one path for raw letters (parsed text, evaluated
witnesses, transversal words): one stack pass, linear in the input.  It
does not check group membership: letters are checked where they enter,
``parse_gword`` and ``p_phi`` (a caller's witness) holding each value to
the public rule ``cyclic.in_group_G``, one Jacobi symbol mod n_i per
even-order letter.  The key owner reads a received word with
``general.decrypt_general_text`` instead: the same tokens, read by the same
tokenizer, but each raw letter is checked by decrypting it, since with the
factorization a letter decrypts exactly when it is a member.
``general.encrypt_general`` evaluates its own samples, members by
construction, without a check.  Words already in
normal form never go through it again.  Their product can only merge at
the seam, because inside each operand adjacent letters lie in distinct
factors (the normal form theorem for free products, Lyndon and Schupp,
*Combinatorial Group Theory*, ch. IV).  ``_join``, the one product of
such words, puts any number of them onto one list, each at its seam: one
pop per cancelled pair, at most one merged letter, then one ``extend``.
It is linear in the letters of all its pieces, where a left fold of
two-word products copies the whole accumulator at every step (quadratic
in the length of the fold).  ``g_multiply``, the rotation in
``inverse_p_phi`` and ``encsim.eval_encrypted`` all call it.

Two epimorphisms are implemented on top of the words:

* ``phi_map`` sends each letter to its coset index in the factor (this
  needs the factor secret keys) and lands in a free product of cyclic
  groups, represented by :class:`KWord`;
* ``psi_map`` evaluates a KWord in the target group: a left fold that
  multiplies in each run's power of its letter.

Membership of a word in the kernel of ``phi`` carries a *witness*: a word
over non-kernel letters and preimage letters, built from the empty word by
conjugated insertions.  A phi witness is a tuple of (factor, value, is_a0)
triples, is_a0 marking a preimage letter; a psi witness is a tuple of
(factor, index) syllables, each naming a transversal entry R_i[index].
``random_phi_witness`` samples phi witnesses, ``p_phi`` evaluates them,
``inverse_p_phi`` reconstructs one for any kernel word using an inversion
oracle for the factors (the rotation recursion), and ``p_psi``/``combined_P``
complete the proof system used by the general cryptosystem.
``general.sample_A`` draws a pair of the same tuples, and
``general.encrypt_general`` evaluates it in one ``normalize`` pass.
Each step of a phi witness puts a letter x and its inverse x^-1 around the
word.  The sampler defers the inverses: it draws every witness of a call
first, keeping the x values of each factor on one list, then inverts each
list with one ``pow(., -1, n_i)`` by Montgomery's trick
(``_invert_pending``).  So a call costs at most one modular inverse per
factor, whether it samples one witness or, through
``general._encrypt_words``, every witness of an encrypted program;
inversion draws nothing from the rng, so the words are those of inverting
each x on its own.

A :class:`FactorFamily` is public data: the calls that need trapdoors
(``phi_map``, ``trapdoor_oracle``) take the factor secret keys.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .errors import Error, FormatError, records
from .groupcore import FiniteGroup, GroupElement
from .numtheory import mod_inverse
from .cyclic import (
    CyclicCiphertext,
    CyclicPublicKey,
    CyclicSecretKey,
    OracleFailure,
    decrypt_cyclic,
    in_group_G,
    inverse_P_cyclic,
    random_unit,
)

__all__ = [
    "LetterOutOfGroup",
    "GLetter",
    "FactorFamily",
    "GWord",
    "KWord",
    "empty_word",
    "normalize",
    "g_multiply",
    "g_inverse",
    "phi_map",
    "k_multiply",
    "kword_from_runs",
    "psi_map",
    "p_phi",
    "random_phi_witness",
    "random_nonkernel_value",
    "inverse_p_phi",
    "p_psi",
    "combined_P",
    "trapdoor_oracle",
    "format_gword",
    "parse_gword",
]


class LetterOutOfGroup(Error):
    """A letter value is not a member of its factor group."""


class GLetter(NamedTuple):
    factor: int  # 1-based factor index
    value: int   # residue mod n_factor, never 1


@dataclass(frozen=True)
class FactorFamily:
    """The public factor groups G_1, ..., G_n; ``factors[i-1]`` is factor i.

    The trapdoors are not part of a family: they are the factor secret
    keys, held by the key owner and passed to the calls that need them.
    """

    factors: tuple[CyclicPublicKey, ...]

    @property
    def count(self) -> int:
        return len(self.factors)

    def public(self, i: int) -> CyclicPublicKey:
        if not 1 <= i <= len(self.factors):
            raise ValueError(f"factor index {i} out of range 1..{len(self.factors)}")
        return self.factors[i - 1]

    def order(self, i: int) -> int:
        return self.public(i).m


@dataclass(frozen=True)
class GWord:
    """Normal-form word; the empty word is the group identity."""

    family: FactorFamily
    letters: tuple[GLetter, ...]

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters


def empty_word(family: FactorFamily) -> GWord:
    return GWord(family, ())


def _outside_group(pk: CyclicPublicKey, i: int, v: int) -> LetterOutOfGroup:
    """The error for a value v of factor i that is no member of its group."""
    return LetterOutOfGroup(
        f"{v} is not an element of G({pk.n}, {pk.m}) within 1..{pk.n - 1}"
        f" (factor {i})")


def _check_letter(pk: CyclicPublicKey, i: int, v: int) -> None:
    """LetterOutOfGroup unless ``in_group_G`` holds for v in factor i."""
    if not in_group_G(pk, v):
        raise _outside_group(pk, i, v)


def normalize(family: FactorFamily,
              letters: Iterable[GLetter | tuple[int, int]]) -> GWord:
    """Reduce a raw letter sequence to normal form.

    Values are reduced mod their factor's modulus, adjacent same-factor
    letters are multiplied in their factor, identity letters are dropped,
    and newly adjacent pairs are re-merged (a stack pass, so the result is
    independent of merge order).  Every factor index is range-checked, as
    its item is reached; group membership of the values is the caller's to
    check.  A letter unpacks like a (factor, value) pair, so both kinds of
    item are read alike; the stack holds pairs, and each letter of the
    result is built once, at the end.
    """
    factors = family.factors
    count = len(factors)
    out: list[tuple[int, int]] = []
    for i, v in letters:
        pk = factors[i - 1] if 0 < i <= count else family.public(i)  # raises
        n = pk.n
        v %= n
        if v == 1:
            continue
        if out and out[-1][0] == i:
            merged = out.pop()[1] * v % n
            if merged != 1:
                out.append((i, merged))
        else:
            out.append((i, v))
    return GWord(family, tuple(map(GLetter._make, out)))


def _require_same_family(family: FactorFamily, words: Iterable[GWord]) -> None:
    for w in words:
        if w.family.factors != family.factors:
            raise ValueError("words belong to different factor families")


def _join(factors: tuple[CyclicPublicKey, ...],
          pieces: Iterable[tuple[GLetter, ...]]) -> tuple[GLetter, ...]:
    """Normal form of the concatenation of normal-form letter tuples: each
    piece goes onto one list at its seam, where a facing pair with product
    1 is popped and the walk goes on, and any other product becomes one
    letter, which the piece's next letter (another factor) cannot merge
    with.  Each letter is appended once and popped at most once."""
    out: list[GLetter] = []
    for piece in pieces:
        j = 0
        while out and j < len(piece) and out[-1].factor == piece[j].factor:
            i, v = piece[j]
            j += 1
            if (merged := out.pop().value * v % factors[i - 1].n) != 1:
                out.append(GLetter(i, merged))
        out.extend(piece[j:])
    return tuple(out)


def g_multiply(u: GWord, v: GWord) -> GWord:
    """Product of two normal-form words by ``_join``, as a new tuple that
    steps of the encrypted-input protocol may share."""
    _require_same_family(u.family, (v,))
    return GWord(u.family, _join(u.family.factors, (u.letters, v.letters)))


def g_inverse(u: GWord) -> GWord:
    """Reverse the word and invert each letter; stays in normal form."""
    factors = u.family.factors
    inv = tuple(GLetter(l.factor, mod_inverse(l.value, factors[l.factor - 1].n))
                for l in reversed(u.letters))
    return GWord(u.family, inv)


# ---------------------------------------------------------------------------
# KWords: the free product of the cyclic quotients

@dataclass(frozen=True)
class KWord:
    """Normal-form word over cyclic factors.

    Stored as runs (symbol, exponent, order) with 1 <= exponent < order and
    adjacent runs over distinct symbols; ``letters`` flattens each run into
    ``exponent`` repetitions of its symbol.
    """

    runs: tuple[tuple[int, int, int], ...]

    @property
    def letters(self) -> tuple[int, ...]:
        out: list[int] = []
        for symbol, exponent, _ in self.runs:
            out.extend([symbol] * exponent)
        return tuple(out)

    def __len__(self) -> int:
        return sum(exponent for _, exponent, _ in self.runs)

    @property
    def is_identity(self) -> bool:
        return not self.runs


def kword_from_runs(runs: Iterable[tuple[int, int, int]]) -> KWord:
    """Build a KWord from (symbol, exponent, order) runs, merging as needed."""
    out: list[tuple[int, int, int]] = []
    for symbol, exponent, order in runs:
        if order < 2:
            raise ValueError("run order must be at least 2")
        exponent %= order
        if exponent == 0:
            continue
        if out and out[-1][0] == symbol:
            prev_symbol, prev_exp, prev_order = out.pop()
            if prev_order != order:
                raise ValueError(f"conflicting orders for symbol {symbol}")
            merged = (prev_exp + exponent) % order
            if merged:
                out.append((symbol, merged, order))
        else:
            out.append((symbol, exponent, order))
    return KWord(tuple(out))


def k_multiply(u: KWord, v: KWord) -> KWord:
    return kword_from_runs(u.runs + v.runs)


def _coset_run(factors: tuple[CyclicPublicKey, ...],
               secrets: Sequence[CyclicSecretKey], symbols: Sequence[int]
               ) -> Callable[[int, int], tuple[int, int, int]]:
    """The key owner's per-letter step of phi: a letter (i, v) to the run
    (symbols[i-1], coset index of v, m_i) by ``decrypt_cyclic``, which
    raises NotAUnit or NotInImage for a value it cannot decrypt.

    The step keeps one transversal-character list per factor for all its
    calls, so a letter costs one power mod its p_i, plus one Jacobi symbol
    mod q_i for even order.  A run of exponent 0 (a kernel letter) is
    dropped by ``kword_from_runs``.
    """
    characters: list[list[int]] = [[] for _ in factors]

    def run(i: int, v: int) -> tuple[int, int, int]:
        pk = factors[i - 1]
        e = decrypt_cyclic(secrets[i - 1], pk, CyclicCiphertext(v), characters[i - 1])
        return symbols[i - 1], e, pk.m

    return run


def phi_map(g: GWord, secrets: Sequence[CyclicSecretKey],
            symbols: Sequence[int] | None = None) -> KWord:
    """Image of a word under the factor-wise coset epimorphism.

    ``secrets[i-1]`` is the secret key of factor i of the word's family
    (the trapdoor; a general key's ``factors``).  ``symbols[i-1]`` names
    the cyclic factor of factor i in the image (defaults to the factor
    index itself).  Each letter goes through ``_coset_run``: one power mod
    its p_i, plus one mod q_i for even order.
    """
    factors = g.family.factors
    run = _coset_run(factors, secrets, symbols or range(1, len(factors) + 1))
    return kword_from_runs(run(l.factor, l.value) for l in g.letters)


def psi_map(k: KWord, H: FiniteGroup) -> GroupElement:
    """Evaluate a KWord (letters indexing H) to its element of H.

    A left fold over the runs: each run (x, e) multiplies the running
    product by x**e in H, so the cost is linear in the length of the word.
    Every letter must name a nonidentity element of H.
    """
    acc = H.identity
    for symbol, exponent, _ in k.runs:
        if not 0 < symbol < H.order:
            raise ValueError(f"letter {symbol} does not index a nonidentity element")
        acc = H.mul(acc, H.power(symbol, exponent))
    return H.element(acc)


# ---------------------------------------------------------------------------
# kernel witnesses for phi

def _phi_letters(factors: tuple[CyclicPublicKey, ...],
                 triples: Iterable[tuple[int, int, bool | None]],
                 inverses: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The raw letters, unchecked, of sampled (factor, value, is_a0)
    triples: each preimage letter raised to its factor order, each deferred
    x^-1 letter (i, k, None) read as ``inverses[i-1][k]``, each plain letter
    as it is."""
    return [(i, inverses[i - 1][v] if a0 is None
             else pow(v, (pk := factors[i - 1]).m, pk.n) if a0 else v)
            for i, v, a0 in triples]


def p_phi(family: FactorFamily,
          witness: Sequence[tuple[int, int, bool]]) -> GWord:
    """Evaluate a phi witness, a sequence of (factor, value, is_a0)
    triples: preimage letters (is_a0 true) are raised to their factor
    order, plain letters pass through; the result is normalized and lies
    in the kernel of ``phi_map`` by construction.

    Every letter of the caller's witness is checked first.  A preimage
    letter a must be a unit: then a^m lies in the factor group (its Jacobi
    symbol is that of a to the m-th power, 1 for even m), so no Jacobi
    symbol is needed.  A plain letter must be an element of its factor
    group written as a residue (``cyclic.in_group_G``).
    """
    letters = []
    for i, v, a0 in witness:
        pk = family.public(i)  # range-checks i
        if not a0:
            _check_letter(pk, i, v)
        elif gcd(v, pk.n) != 1:
            raise LetterOutOfGroup(f"{v} is not a unit modulo {pk.n} (factor {i})")
        else:
            v = pow(v, pk.m, pk.n)
        letters.append((i, v))
    return normalize(family, letters)


def random_nonkernel_value(pk: CyclicPublicKey, rng: random.Random) -> int:
    """Public sampling of an element of factor group ``pk`` outside the
    kernel: a random m-th power times a non-identity transversal
    representative."""
    e = rng.randrange(1, pk.m)
    s = random_unit(pk.n, rng)
    return pow(s, pk.m, pk.n) * pk.transversal[e] % pk.n


def _draw_phi_witness(factors: tuple[CyclicPublicKey, ...], steps: int,
                      rng: random.Random, pending: list[list[int]]
                      ) -> list[tuple[int, int, bool | None]]:
    """The draws of ``random_phi_witness``, in its order, with each x^-1
    letter deferred: x is appended to ``pending[i-1]`` and the letter is
    written (i, k, None), k the position of x there.  ``_invert_pending``
    then replaces every x drawn for a factor by its inverse, at once."""
    count = len(factors)
    randrange = rng.randrange
    front: list[tuple[int, int, bool | None]] = []  # reversed
    back: list[tuple[int, int, bool | None]] = []
    for _ in range(steps):
        x0_choice = randrange(count + 1)  # 0 = skip
        x_choice = randrange(count + 1)
        if x0_choice:
            front.append((x0_choice, random_unit(factors[x0_choice - 1].n, rng), True))
        if x_choice:
            v = random_nonkernel_value(factors[x_choice - 1], rng)
            xs = pending[x_choice - 1]
            front.append((x_choice, len(xs), None))
            xs.append(v)
            back.append((x_choice, v, False))
    front.reverse()
    front += back
    return front


def _invert_pending(factors: tuple[CyclicPublicKey, ...],
                    pending: list[list[int]]) -> None:
    """Replace each x value ``_draw_phi_witness`` deferred by its inverse,
    in place, by Montgomery's trick (Montgomery 1987, "Speeding the Pollard
    and elliptic curve methods of factorization"): one ``pow(., -1, n_i)``
    for the product of factor i's values, none for an empty list, and three
    multiplications mod n_i per further value.  Inverses are unique, so
    each equals ``pow(x, -1, n_i)``."""
    for pk, xs in zip(factors, pending):
        if xs:
            n = pk.n
            prefix = xs[:]  # prefix[k] = xs[0] * ... * xs[k]
            for k in range(1, len(xs)):
                prefix[k] = prefix[k - 1] * xs[k] % n
            inverse = pow(prefix[-1], -1, n)  # of prefix[k], k going down
            for k in range(len(xs) - 1, 0, -1):
                inverse, xs[k] = inverse * xs[k] % n, inverse * prefix[k - 1] % n
            xs[0] = inverse


def random_phi_witness(family: FactorFamily, steps: int, rng: random.Random
                       ) -> tuple[tuple[int, int, bool], ...]:
    """Grow a phi witness by ``steps`` random conjugated insertions.

    Each step turns w into x^-1 x0 w x where x is a random non-kernel
    letter (or skipped) and x0 a random preimage letter (or skipped).  One
    pass, linear in ``steps``: the letters each step puts before the old
    word are collected in reverse, those after it in order.  x is a unit
    by construction; the x^-1 letters wait until every draw is made and
    are then inverted together (``_invert_pending``), at one modular
    inverse per factor for the whole witness.  Equal rng states give equal
    witnesses and leave the rng in equal states.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    factors = family.factors
    pending: list[list[int]] = [[] for _ in factors]
    drawn = _draw_phi_witness(factors, steps, rng, pending)
    _invert_pending(factors, pending)
    return tuple((i, pending[i - 1][v], False) if a0 is None else (i, v, a0)
                 for i, v, a0 in drawn)


def inverse_p_phi(g: GWord, oracle: Callable[[int, int], int | None]
                  ) -> tuple[tuple[tuple[int, int, bool], ...], GWord]:
    """Invert ``p_phi`` on a word using an inversion oracle.

    ``oracle(i, value)`` answers factor-i queries: it returns an m_i-th
    root of the value when the value is a kernel element and None
    otherwise.

    Returns a pair (witness, t).  The word is in the kernel of ``phi``
    exactly when t is the identity, and then the witness, a tuple of
    (factor, value, is_a0) triples, evaluates back to the word under
    ``p_phi``; otherwise the witness is empty.  Each round scans the
    current word for its first kernel letter, rotates the remaining
    letters around it and recurses; the witness is reassembled by
    conjugation on the way out.
    The rotation ``letters[idx+1:] + letters[:idx]`` is ``_join`` of two
    pieces of a normal-form word, so it merges only at their seam: a round
    costs its oracle calls plus time linear in the word.  The oracle-call
    count is at most len(g)**2.
    """
    family = g.family
    factors = family.factors
    frames: list[tuple[tuple[GLetter, ...], int, int]] = []
    current = g
    while current.letters:
        found = None
        for idx, letter in enumerate(current.letters):
            root = oracle(letter.factor, letter.value)
            if root is not None:
                pk = factors[letter.factor - 1]
                n_i = pk.n
                if pow(root, pk.m, n_i) != letter.value % n_i:
                    raise OracleFailure(
                        f"oracle for factor {letter.factor} returned a non-root")
                found = (idx, letter.factor, root % n_i)
                break
        if found is None:
            # not a kernel element; the pending frames are discarded
            return (), current
        idx, factor_j, root_j = found
        frames.append((current.letters[:idx], factor_j, root_j))
        current = GWord(family, _join(factors, (current.letters[idx + 1:],
                                                current.letters[:idx])))
    letters: list[tuple[int, int, bool]] = []
    for prefix, factor_j, root_j in reversed(frames):
        pre = [(i, v, False) for i, v in prefix]
        post = [(i, mod_inverse(v, factors[i - 1].n), False) for i, v in reversed(prefix)]
        letters = pre + [(factor_j, root_j, True)] + letters + post
    return tuple(letters), empty_word(family)


def _psi_letters(factors: tuple[CyclicPublicKey, ...],
                 syllables: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The raw letters (i, R_i[e]) of (factor, index) syllables, unchecked."""
    return [(i, factors[i - 1].transversal[e]) for i, e in syllables]


def p_psi(family: FactorFamily, witness: Sequence[tuple[int, int]]) -> GWord:
    """Evaluate a psi witness, a sequence of (factor, index) syllables, to
    the normalized product of the representatives R_factor[index]."""
    for i, e in witness:
        if not 0 <= e < family.order(i):  # range-checks i
            raise ValueError(f"transversal index {e} out of range")
    return normalize(family, _psi_letters(family.factors, witness))


def combined_P(family: FactorFamily, a: Sequence[tuple[int, int, bool]],
               b: Sequence[tuple[int, int]]) -> GWord:
    """The full proof-system map: P(a, b) = p_phi(a) * p_psi(b)."""
    return g_multiply(p_phi(family, a), p_psi(family, b))


def trapdoor_oracle(family: FactorFamily, secrets: Sequence[CyclicSecretKey],
                    rng: random.Random) -> Callable[[int, int], int | None]:
    """The honest inversion oracle ``oracle(i, value)`` of ``inverse_p_phi``:
    a random m_i-th root drawn with the secret key ``secrets[i-1]`` of
    factor i of ``family``, or None when the value has none."""
    factors = family.factors
    return lambda i, value: inverse_P_cyclic(secrets[i - 1], factors[i - 1], value, rng)


# ---------------------------------------------------------------------------
# text encoding

def format_gword(w: GWord) -> str:
    """Space-separated ``factor:value`` tokens; the empty word is ``e``."""
    if not w.letters:
        return "e"
    return " ".join(f"{l.factor}:{l.value}" for l in w.letters)


def _letters(text: str, family: FactorFamily) -> Iterator[tuple[int, int]]:
    """The raw (factor, value) letters of a ``format_gword`` text, in token
    order; none for ``e``.

    The text is read through ``errors.records``, so it takes '#' comments
    and blank lines like every other artifact.  FormatError for an empty
    text, a token that is not ``factor:value`` or a factor outside the
    family; the values are the caller's to check, letter by letter, so that
    errors come in token order.
    """
    tokens = [token for line in records(text) for token in line.split()]
    if not tokens:
        raise FormatError("empty word encoding (use 'e' for the identity)")
    if tokens == ["e"]:
        return
    count = family.count
    for token in tokens:
        factor_str, sep, value_str = token.partition(":")
        if not sep:
            raise FormatError(f"bad word token {token!r}")
        try:  # errors.ints, called per token, added a tenth to this parse
            factor, value = int(factor_str), int(value_str)
        except ValueError:
            raise FormatError(f"bad word token {token!r}") from None
        if not 1 <= factor <= count:
            raise FormatError(f"factor {factor} out of range 1..{count}")
        yield factor, value


def parse_gword(text: str, family: FactorFamily) -> GWord:
    """Parse the ``format_gword`` encoding of a word over ``family``.

    The public reader: each letter of ``_letters`` must be an element of
    its factor group written as a residue (``cyclic.in_group_G``), else
    LetterOutOfGroup; the letters are then normalized.
    """
    factors = family.factors
    raw = []
    for i, v in _letters(text, family):
        _check_letter(factors[i - 1], i, v)
        raw.append((i, v))
    return normalize(family, raw)
