"""Finite groups given by Cayley tables.

Element 0 is always the identity.  The composition convention for
permutation groups is "apply the left operand first": ``mul(a, b)`` means
*do a, then b*.  Barrington programs and the word calculus both depend on
this convention, so it is fixed here once and documented in the README.

A table file is read from the few rows that generate it: the other rows
are predicted and taken when the line is their canonical spelling, any
other line is read, and validation is unchanged (``read_group``).
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass

from .errors import Error, FormatError, header, ints, records

__all__ = [
    "NotAssociative",
    "NotLatinSquare",
    "NoIdentity",
    "NoInverse",
    "TooLarge",
    "FiniteGroup",
    "GroupElement",
    "sym",
    "cyclic_group",
    "builtin_group",
    "is_solvable",
    "parse_group",
    "format_group",
    "permutation_label",
]


class NotAssociative(Error):
    """The table fails the associativity law."""


class NotLatinSquare(Error):
    """Some row or column of the table repeats an entry."""


class NoIdentity(Error):
    """Row/column 0 of the table is not the identity map."""


class NoInverse(Error):
    """Some element has no two-sided inverse."""


class TooLarge(Error):
    """Requested group exceeds the Cayley-table size guard."""


# tables are built whole, so both builtin families stop at |sym(6)| = 720
_MAX_BUILTIN_ORDER = 720


class FiniteGroup:
    """Immutable finite group defined by its multiplication table."""

    def __init__(self, table, labels=None, name: str = "custom"):
        rows = tuple(map(tuple, table))
        self.order = len(rows)
        self.table = rows
        self.name = name
        self._inverse, self.generators = _validate_table(rows)
        if labels is None:
            labels = tuple(str(i) for i in range(self.order))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != self.order:
                raise FormatError("label count does not match group order")
            if len(set(labels)) != self.order:
                raise FormatError("labels must be distinct")
        self.labels = labels
        self._label_index = {lab: i for i, lab in enumerate(labels)}

    identity = 0

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self._inverse[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self._inverse[a], -k)
        acc = 0
        for _ in range(k):
            acc = self.table[acc][a]
        return acc

    def order_of(self, a: int) -> int:
        return _order_of(self.table, a)

    def element(self, index: int) -> "GroupElement":
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range")
        return GroupElement(self, index)

    def elements(self):
        return (GroupElement(self, i) for i in range(self.order))

    def element_by_label(self, label: str) -> "GroupElement":
        if label in self._label_index:
            return GroupElement(self, self._label_index[label])
        raise ValueError(f"no element labeled {label!r}")

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class GroupElement:
    group: FiniteGroup
    index: int

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.group is not self.group:
            raise ValueError("elements belong to different groups")
        return GroupElement(self.group, self.group.mul(self.index, other.index))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group.inverse(self.index))

    @property
    def label(self) -> str:
        return self.group.labels[self.index]

    def __repr__(self):
        return f"<{self.label} in {self.group.name}>"


def _order_of(rows, a: int) -> int:
    """The order of a, or 0 when its powers miss 0 for len(rows) steps
    (never in a group)."""
    acc = a
    for k in range(1, len(rows) + 1):
        if acc == 0:
            return k
        acc = rows[acc][a]
    return 0


def _validate_table(rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Check that ``rows``, a tuple of int tuples, is the Cayley table of a
    group with identity 0; returns each element's inverse and the
    generators Light's test checked.

    A group passes one pass: every row has length n, row 0 and column 0
    are the identity, the greedy generators (``_generators``, from element
    orders bounded by n steps) span every element through entries in
    range(n), each generator's row is a permutation of range(n), and the
    generators pass Light's test.  That pass proves the group axioms.
    Light's test says the row of x*g is the row of x read through the row
    of g, so by induction along the span from row 0 every row is a
    product of generator rows: a permutation of range(n), and the table is
    closed.  The elements g with (x*g)*y = x*(g*y) for all x, y are closed
    under products and hold every generator, and the span writes each
    element as such a product, so the table is associative.  With identity
    0 and every row a permutation, every element has a right inverse, so
    the table is a group: its columns are permutations and its inverses
    two-sided.  Any other table fails the pass, and only then do the
    ordered checks (``_diagnose``) run, to name its first defect.
    """
    n = len(rows)
    try:
        if ({*map(len, rows)} == {n} and rows[0] == tuple(range(n))
                and next(zip(*rows)) == rows[0]):
            generators = _generators(rows)
            full = set(range(n))
            if (generators is not None
                    and all(set(rows[g]) == full for g in generators)
                    and _light_failure(rows, generators) is None):
                return tuple(row.index(0) for row in rows), generators
    except (IndexError, TypeError):  # an entry >= n, or no int, as an index
        pass
    return _diagnose(rows)


def _diagnose(rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ordered checks, each with its own error: shape and range, the
    identity, rows, columns, inverses, then Light's test."""
    n = len(rows)
    if n == 0:
        raise FormatError("empty table")
    full = set(range(n))
    # a row that is not a permutation of range(n) is short, out of range or
    # repeats an entry; a repeat is reported after the identity check
    odd = [i for i, row in enumerate(rows) if len(row) != n or set(row) != full]
    for i in odd:
        if len(rows[i]) != n:
            raise FormatError(f"row {i} has length {len(rows[i])}, expected {n}")
        if not set(rows[i]) <= full:
            raise FormatError(f"row {i} contains out-of-range entries")
    identity = tuple(range(n))
    if rows[0] != identity or tuple(row[0] for row in rows) != identity:
        raise NoIdentity("row/column 0 must be the identity")
    if odd:
        raise NotLatinSquare(f"row {odd[0]} repeats an entry")
    for j, column in enumerate(zip(*rows)):
        if len(set(column)) != n:
            raise NotLatinSquare(f"column {j} repeats an entry")
    inverse = tuple(row.index(0) for row in rows)
    for a, b in enumerate(inverse):
        if rows[b][a] != 0:
            raise NoInverse(f"element {a} has no two-sided inverse")
    generators = _generators(rows)
    failure = _light_failure(rows, generators)
    if failure:
        x, g = failure
        y = next(y for y in range(n) if rows[rows[x][g]][y] != rows[x][rows[g][y]])
        raise NotAssociative(f"({x}*{g})*{y} != {x}*({g}*{y})")
    return inverse, generators


def _generators(rows) -> tuple[int, ...] | None:
    """The generators keys are built on (FiniteGroup.generators), or None
    when the span leaves range(n).

    Any generating set serves Light's test, so one ``_span`` call picks the
    set for both uses.  The first generator is the element of largest
    order, lowest index first; after it, again and again the element
    outside the subgroup so far of largest odd order, and only then of
    largest even order, lowest index first.  A factor of odd order checks
    its letters without a Jacobi symbol, so Sym(5) gets orders 6 and 5.
    """
    n = len(rows)
    order = [_order_of(rows, a) for a in range(n)]
    by_order = sorted(range(n - 1, 0, -1), key=order.__getitem__)
    by_parity = sorted(by_order, key=lambda a: order[a] % 2)
    generators, members = _span(rows, by_parity + by_order[-1:])
    return tuple(generators) if members == set(range(n)) else None


def _light_failure(rows, generators) -> tuple[int, int] | None:
    """The first (x, g) that fails Light's test, or None.

    Light's test (Clifford and Preston 1961): the elements g with
    (x*g)*y = x*(g*y) for all x, y are closed under products, so checking
    a generating set suffices.  Per generator g and element x, the row of
    x*g is compared with the row of x read through g's row, which must be
    a permutation of range(n).
    """
    for g in generators:
        through_g = operator.itemgetter(*rows[g])
        for x in range(len(rows)):
            if rows[rows[x][g]] != through_g(rows[x]):
                return x, g
    return None


@functools.cache
def sym(k: int) -> FiniteGroup:
    """Symmetric group on k points, 1 <= k <= 6.

    Elements are the permutations of ``range(k)`` in lexicographic one-line
    order (so the identity is element 0); labels use 1-based cycle notation.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > 6:
        raise TooLarge("sym(k) is limited to k <= 6")
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(q[p[x]] for x in range(k))] for q in perms]
        for p in perms
    ]
    labels = [permutation_label(p) for p in perms]
    return FiniteGroup(table, labels=labels, name=f"sym{k}")


@functools.cache
def cyclic_group(m: int) -> FiniteGroup:
    """Additive cyclic group of order m; element i is the residue i."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > _MAX_BUILTIN_ORDER:
        raise TooLarge(f"cyclic_group(m) is limited to m <= {_MAX_BUILTIN_ORDER}")
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return FiniteGroup(table, labels=[str(i) for i in range(m)], name=f"z{m}")


def builtin_group(spec: str) -> FiniteGroup | None:
    """Resolve builtin group names 'z<m>' and 'sym<k>' (m, k >= 1); None if
    unmatched."""
    match = re.fullmatch(r"z(\d+)", spec)
    if match and int(match.group(1)):
        return cyclic_group(int(match.group(1)))
    match = re.fullmatch(r"sym(\d+)", spec)
    if match and int(match.group(1)):
        return sym(int(match.group(1)))
    return None


def _span(rows, candidates, conjugators=()) -> tuple[list[int], set[int]]:
    """Greedy generators and the members of the subgroup they span, from
    the Cayley table ``rows``.

    Candidates are taken from the end of the list.  One outside the
    subgroup so far becomes a generator, which at least doubles the
    subgroup, so there are at most log2|G| of them; the members then grow
    by right multiplication (in a finite group that closes under inverses
    too).  For each pair (g⁻¹, g) in ``conjugators`` the new generator's
    conjugate g⁻¹xg joins the candidates, so the span ends closed under
    conjugation by each g.
    """
    pending = list(candidates)
    generators: list[int] = []
    members = {0}
    while pending:
        x = pending.pop()
        if x in members:
            continue
        generators.append(x)
        frontier = list(members)
        while frontier:
            y = frontier.pop()
            for g in generators:
                w = rows[y][g]
                if w not in members:
                    members.add(w)
                    frontier.append(w)
        pending.extend(rows[rows[g_inv][x]][g] for g_inv, g in conjugators)
    return generators, members


def _derived_subgroup(G: FiniteGroup, members: frozenset[int]) -> frozenset[int]:
    """[K, K] for the subgroup K with these members.

    [K, K] is the normal closure in K = <X> of the commutators [a, b] with
    a, b in X, so it is built from a generating set X of at most log2|K|
    elements instead of all |K|^2 commutators: one ``_span`` picks X, a
    second spans the commutators closed under conjugation by X.
    """
    gens, _ = _span(G.table, members)
    comms = [G.mul(G.mul(G.inverse(a), G.inverse(b)), G.mul(a, b))
             for a in gens for b in gens]
    return frozenset(_span(G.table, comms, [(G.inverse(g), g) for g in gens])[1])


def is_solvable(G: FiniteGroup) -> bool:
    """True when the derived series reaches the trivial subgroup."""
    current = frozenset(range(G.order))
    while True:
        nxt = _derived_subgroup(G, current)
        if nxt == current:
            return current == frozenset({0})
        current = nxt


# ---------------------------------------------------------------------------
# permutation labels (1-based cycle notation)

def permutation_label(perm) -> str:
    """Cycle-notation label like '(1 2 3)(4 5)'; the identity is 'e'."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = perm[x]
        cycles.append(cycle)
    if not cycles:
        return "e"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)


# ---------------------------------------------------------------------------
# table file format

def format_group(G: FiniteGroup) -> str:
    """Serialize a group table: 'GROUP v1 <order>', rows, LABELS section."""
    # one list lookup per entry, the writer's twin of read_group's
    # ``names`` and ``spelled`` (a str() per entry made a Sym(5) table 2.8
    # times slower); read_group takes a predicted row when its line is
    # spelled exactly so
    spelling = [str(x) for x in range(G.order)].__getitem__
    lines = [f"GROUP v1 {G.order}"]
    lines.extend(" ".join(map(spelling, row)) for row in G.table)
    lines.append("LABELS")
    lines.extend(G.labels)
    return "\n".join(lines) + "\n"


def read_group(lines: list[str], start: int = 0, name: str = "custom", *,
               last: bool = False) -> tuple[FiniteGroup, int]:
    """Read the group whose records (the format of :func:`format_group`)
    begin at ``lines[start]``; returns it and the index of the record after
    it.  With ``last`` nothing may follow the group.

    Rows are predicted from a generating set (``_predicted_rows``), and a
    predicted row is taken only when its canonical spelling is the line;
    any other line is read, in row order.  So the table, and every error,
    is that of a full parse, and ``FiniteGroup`` validates it as before."""
    (order,) = ints(header(lines[start:start + 1], "GROUP v1", 1), "group order")
    if order < 1:
        raise FormatError("group order must be positive")
    end = start + 1 + order
    if len(lines) < end:
        raise FormatError("truncated group table")
    # each entry through its canonical spelling, one C-level map per row
    # (int() per token made a Sym(5) key parse a quarter slower); a row
    # spelled otherwise ("03", "+3") is read by ints
    names = [str(x) for x in range(order)]
    spelled = dict(zip(names, range(order))).__getitem__
    rows = lines[start + 1:end]
    table, texts = _predicted_rows(rows, names, spelled)
    for i, line in enumerate(rows):
        if texts[i] != line:
            tokens = line.split()
            try:
                table[i] = _read_row(tokens, spelled)
            except KeyError:
                table[i] = ints(tokens, f"table row {i}")
    labels = None
    if end < len(lines) and lines[end] == "LABELS":
        labels = lines[end + 1:end + 1 + order]
        end += 1 + order
        if len(labels) != order:
            raise FormatError("LABELS section must have one line per element")
    if last and end < len(lines):
        raise FormatError(f"unexpected content {lines[end]!r} after table")
    return FiniteGroup(table, labels=labels, name=name), end


def _read_row(tokens: list[str], spelled) -> tuple[int, ...]:
    """One table row from its tokens; KeyError for a token that is not
    the canonical spelling of an element."""
    return tuple(map(spelled, tokens))


def _predicted_rows(lines: list[str], names: list[str], spelled
                    ) -> tuple[list, list]:
    """The rows of the table whose lines are ``lines``, as far as a few of
    them predict the others, and the text each row was read from or is
    predicted to have (None where a row is not known).

    Row 0 is predicted to be the identity.  Then, again and again, the
    lowest row not yet known is read, and the known rows are closed under
    the rows read: the row of x*g is the row of x read through the row of
    g, one ``itemgetter`` per row read, applied to the row's ints and to
    its canonical tokens alike.  In a group the known rows are a subgroup,
    so each row read at least doubles them and at most ceil(log2 n) rows
    are read; a row read that does not double them, one that is not
    canonical (KeyError) or one not of length n stops the prediction.
    Nothing here raises a domain error and nothing is checked: a wrong
    prediction only means that its line is read.
    """
    n = len(lines)
    table: list = [None] * n
    spellings: list = [None] * n
    table[0], spellings[0] = tuple(range(n)), names
    members: list[int] = [0]
    through: list = []  # (g, the row of g as an itemgetter), per row read
    try:
        for g in range(1, n):
            if table[g] is not None:
                continue
            tokens = lines[g].split()
            row = _read_row(tokens, spelled)
            if len(row) != n:
                break
            table[g], spellings[g] = row, tokens
            through.append((g, operator.itemgetter(*row)))
            # the members so far times g, each new member times every row
            # read: each (member, row read) pair is looked at once
            last = through[-1:]
            pending = [(x, last) for x in members]
            pending.append((g, through))
            known = len(members)
            members.append(g)
            while pending:
                x, by = pending.pop()
                for h, get in by:
                    y = table[x][h]
                    if table[y] is None:
                        table[y], spellings[y] = get(table[x]), get(spellings[x])
                        members.append(y)
                        pending.append((y, through))
            if len(members) < 2 * known:
                break
    except KeyError:
        pass
    texts = [None if s is None else " ".join(s) for s in spellings]
    for g, _ in through:
        texts[g] = lines[g]
    return table, texts


def parse_group(text: str, name: str = "custom") -> FiniteGroup:
    """Parse the table file format produced by :func:`format_group`."""
    return read_group(records(text), 0, name, last=True)[0]
