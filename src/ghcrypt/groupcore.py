"""Finite groups given by Cayley tables.

Element 0 is always the identity.  The composition convention for
permutation groups is "apply the left operand first": ``mul(a, b)`` means
*do a, then b*.  Barrington programs and the word calculus both depend on
this convention, so it is fixed here once and documented in the README.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import Error, FormatError

__all__ = [
    "NotAssociative",
    "NotLatinSquare",
    "NoIdentity",
    "NoInverse",
    "TooLarge",
    "FiniteGroup",
    "GroupElement",
    "group_from_table",
    "sym",
    "cyclic_group",
    "builtin_group",
    "is_solvable",
    "parse_group",
    "format_group",
    "parse_permutation",
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


class FiniteGroup:
    """Immutable finite group defined by its multiplication table."""

    def __init__(self, table, labels=None, name: str = "custom"):
        rows = tuple(tuple(int(x) for x in row) for row in table)
        self.order = len(rows)
        self.table = rows
        self.name = name
        _validate_table(rows)
        self._inverse = tuple(row.index(0) for row in rows)
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
        k, acc = 1, a
        while acc != 0:
            acc = self.table[acc][a]
            k += 1
        return k

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


def _validate_table(rows) -> None:
    n = len(rows)
    if n == 0:
        raise FormatError("empty table")
    full = set(range(n))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise FormatError(f"row {i} has length {len(row)}, expected {n}")
        if not set(row) <= full:
            raise FormatError(f"row {i} contains out-of-range entries")
    if any(rows[0][j] != j for j in range(n)) or any(rows[i][0] != i for i in range(n)):
        raise NoIdentity("row/column 0 must be the identity")
    for i, row in enumerate(rows):
        if len(set(row)) != n:
            raise NotLatinSquare(f"row {i} repeats an entry")
    for j in range(n):
        if len({rows[i][j] for i in range(n)}) != n:
            raise NotLatinSquare(f"column {j} repeats an entry")
    for a in range(n):
        b = rows[a].index(0)
        if rows[b][a] != 0:
            raise NoInverse(f"element {a} has no two-sided inverse")
    _check_associativity(rows)


def _check_associativity(rows) -> None:
    # Light's test: associativity over a generating set implies it everywhere,
    # which turns the n^3 scan into |gens| * n^2 work.
    n = len(rows)
    generators: list[int] = []
    closure = {0}
    for x in range(n):
        if x in closure:
            continue
        generators.append(x)
        frontier = [x]
        while frontier:
            y = frontier.pop()
            if y in closure:
                continue
            closure.add(y)
            for z in list(closure):
                for w in (rows[y][z], rows[z][y]):
                    if w not in closure:
                        frontier.append(w)
    for g in generators:
        col = tuple(rows[x][g] for x in range(n))
        for x in range(n):
            row_xg = rows[col[x]]
            row_x = rows[x]
            grow = rows[g]
            for y in range(n):
                if row_xg[y] != row_x[grow[y]]:
                    raise NotAssociative(
                        f"({x}*{g})*{y} != {x}*({g}*{y})")


def group_from_table(table, labels=None, name: str = "custom") -> FiniteGroup:
    """Validate a Cayley table and wrap it as a FiniteGroup."""
    return FiniteGroup(table, labels=labels, name=name)


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
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return FiniteGroup(table, labels=[str(i) for i in range(m)], name=f"z{m}")


def builtin_group(spec: str) -> FiniteGroup | None:
    """Resolve builtin group names 'z<m>' and 'sym<k>'; None if unmatched."""
    match = re.fullmatch(r"z(\d+)", spec)
    if match:
        return cyclic_group(int(match.group(1)))
    match = re.fullmatch(r"sym(\d+)", spec)
    if match:
        return sym(int(match.group(1)))
    return None


def _subgroup_closure(G: FiniteGroup, gens: list[int]) -> frozenset[int]:
    """The subgroup generated by ``gens``: right-multiply by the generators
    until nothing new appears (in a finite group that is closed under
    inverses too)."""
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.mul(x, g)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


def _normal_closure(G: FiniteGroup, seed: Iterable[int],
                    conjugators: list[int]) -> tuple[list[int], frozenset[int]]:
    """Generators and elements of the smallest subgroup that contains
    ``seed`` and is mapped into itself by conjugation with each of
    ``conjugators``.

    An element becomes a generator only when it lies outside the subgroup
    so far, which at least doubles it, so there are at most log2|G| of them.
    """
    gens: list[int] = []
    members = frozenset({0})
    pending = list(seed)
    while pending:
        x = pending.pop()
        if x in members:
            continue
        gens.append(x)
        members = _subgroup_closure(G, gens)
        pending.extend(G.mul(G.mul(G.inverse(g), x), g) for g in conjugators)
    return gens, members


def _derived_subgroup(G: FiniteGroup, members: frozenset[int]) -> frozenset[int]:
    """[K, K] for the subgroup K with these members.

    [K, K] is the normal closure in K = <X> of the commutators [a, b] with
    a, b in X, so it is built from a generating set X of at most log2|K|
    elements instead of all |K|^2 commutators.
    """
    gens, _ = _normal_closure(G, members, [])
    comms = [G.mul(G.mul(G.inverse(a), G.inverse(b)), G.mul(a, b))
             for a in gens for b in gens]
    return _normal_closure(G, comms, gens)[1]


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


def parse_permutation(label: str, k: int) -> tuple[int, ...]:
    """Parse 1-based cycle notation into a one-line permutation of range(k)."""
    label = label.strip()
    if label in ("e", "()"):
        return tuple(range(k))
    if not re.fullmatch(r"(\([0-9 ]*\))+", label):
        raise FormatError(f"bad permutation label {label!r}")
    image = list(range(k))
    for cyc in re.findall(r"\(([0-9 ]*)\)", label):
        tokens = cyc.split()
        if not tokens:
            continue
        if len(tokens) == 1 and len(tokens[0]) > 1:
            # compact single-digit form like (123)
            tokens = list(tokens[0])
        points = [int(t) - 1 for t in tokens]
        if len(points) < 2:
            raise FormatError(f"cycle {cyc!r} is too short")
        if any(not 0 <= x < k for x in points):
            raise FormatError(f"cycle {cyc!r} uses points outside 1..{k}")
        if len(set(points)) != len(points):
            raise FormatError(f"cycle {cyc!r} repeats a point")
        base = list(image)
        for i, x in enumerate(points):
            y = points[(i + 1) % len(points)]
            # apply this cycle after the ones already parsed
            for src in range(k):
                if base[src] == x:
                    image[src] = y
    return tuple(image)


# ---------------------------------------------------------------------------
# table file format

def format_group(G: FiniteGroup) -> str:
    """Serialize a group table: 'GROUP v1 <order>', rows, LABELS section."""
    lines = [f"GROUP v1 {G.order}"]
    for row in G.table:
        lines.append(" ".join(str(x) for x in row))
    lines.append("LABELS")
    lines.extend(G.labels)
    return "\n".join(lines) + "\n"


def _logical_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_group(text: str, name: str = "custom") -> FiniteGroup:
    """Parse the table file format produced by :func:`format_group`."""
    lines = _logical_lines(text)
    if not lines:
        raise FormatError("empty group file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "GROUP" or header[1] != "v1":
        raise FormatError(f"bad group header {lines[0]!r}")
    try:
        order = int(header[2])
    except ValueError:
        raise FormatError(f"bad group order {header[2]!r}") from None
    if order < 1:
        raise FormatError("group order must be positive")
    if len(lines) < 1 + order:
        raise FormatError("truncated group table")
    table = []
    for i in range(order):
        row = lines[1 + i].split()
        try:
            table.append([int(x) for x in row])
        except ValueError:
            raise FormatError(f"non-integer entry in table row {i}") from None
    rest = lines[1 + order:]
    labels = None
    if rest:
        if rest[0] != "LABELS":
            raise FormatError(f"unexpected content {rest[0]!r} after table")
        labels = rest[1:]
        if len(labels) != order:
            raise FormatError("LABELS section must have one line per element")
    return FiniteGroup(table, labels=labels, name=name)
