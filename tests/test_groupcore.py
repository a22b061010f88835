import itertools
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from ghcrypt import groupcore
from ghcrypt.errors import Error, FormatError, ints, records
from ghcrypt.groupcore import (
    FiniteGroup,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    TooLarge,
    builtin_group,
    cyclic_group,
    format_group,
    is_solvable,
    parse_group,
    read_group,
    sym,
)

DATA = Path(__file__).parent / "data"

Z2_TABLE = [[0, 1], [1, 0]]

# Latin square with identity and two-sided inverses that fails associativity:
# (1*1)*2 = 2 but 1*(1*2) = 4.
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# Latin square with identity where element 2 has right inverse 3 but left
# inverse 4.
ONESIDED_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def alternating5() -> FiniteGroup:
    """A_5 built by restricting sym(5) to even permutations."""
    s5 = sym(5)
    perms = list(itertools.permutations(range(5)))

    def parity(p):
        swaps = 0
        seen = [False] * len(p)
        for i in range(len(p)):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            swaps += length - 1
        return swaps % 2

    even = [i for i, p in enumerate(perms) if parity(p) == 0]
    back = {el: i for i, el in enumerate(even)}
    table = [[back[s5.mul(a, b)] for b in even] for a in even]
    return FiniteGroup(table, name="a5")


class TestConstruction:
    def test_trivial_group(self):
        G = FiniteGroup([[0]])
        assert G.order == 1

    def test_z2(self):
        G = FiniteGroup(Z2_TABLE)
        assert G.order == 2
        assert G.mul(1, 1) == 0

    def test_not_latin(self):
        with pytest.raises(NotLatinSquare):
            FiniteGroup([[0, 1], [1, 1]])

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            FiniteGroup([[1, 0], [0, 1]])

    def test_no_inverse(self):
        # the loop is not associative either; the inverse check comes first
        assert not brute_force_associative(ONESIDED_LOOP)
        with pytest.raises(NoInverse, match="element 2 has no two-sided inverse"):
            FiniteGroup(ONESIDED_LOOP)

    def test_not_associative(self):
        with pytest.raises(NotAssociative):
            FiniteGroup(NONASSOC_LOOP)

    def test_shape_errors(self):
        with pytest.raises(FormatError):
            FiniteGroup([[0, 1]])
        with pytest.raises(FormatError):
            FiniteGroup([[0, 5], [5, 0]])

    # a table with several defects gets the error of the first check it
    # fails: shape and range, identity, rows, columns, inverses, then Light
    @pytest.mark.parametrize("table,error,message", [
        # row 1 repeats 1, row 2 is short
        ([[0, 1, 2], [1, 1, 0], [2, 0]], FormatError, "row 2 has length 2"),
        # row 1 repeats 1, row 2 holds 3
        ([[0, 1, 2], [1, 1, 0], [2, 0, 3]], FormatError, "row 2 contains out-of-range"),
        # row 0 is not the identity, row 1 repeats 0
        ([[1, 0, 2], [0, 0, 1], [2, 1, 0]], NoIdentity, "row/column 0"),
        # column 1 repeats 2 and row 2 repeats 2: the row is reported
        ([[0, 1, 2], [1, 2, 0], [2, 2, 1]], NotLatinSquare, "row 2 repeats"),
        # columns 1 and 2 repeat, every row is a permutation
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], NotLatinSquare, "column 1 repeats"),
    ])
    def test_first_failing_check_names_the_error(self, table, error, message):
        with pytest.raises(error, match=re.escape(message)):
            FiniteGroup(table)


def _fill_latin(rows, i, j, rng):
    """Complete ``rows`` row by row from cell (i, j), random depth-first."""
    n = len(rows)
    if i == n:
        return True
    used = set(rows[i][:j]) | {rows[k][j] for k in range(i)}
    candidates = [v for v in range(n) if v not in used]
    rng.shuffle(candidates)
    nxt = (i, j + 1) if j + 1 < n else (i + 1, 1)
    for v in candidates:
        rows[i][j] = v
        if _fill_latin(rows, *nxt, rng):
            return True
    rows[i][j] = None
    return False


def random_loop(n, rng):
    """A random Latin square with identity 0 and two-sided inverses."""
    while True:
        rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
        assert _fill_latin(rows, 1, 1, rng)
        if all(rows[rows[a].index(0)][a] == 0 for a in range(n)):
            return tuple(tuple(row) for row in rows)


def relabeled(table, rng):
    """The table under a random relabeling that keeps 0 the identity."""
    n = len(table)
    perm = [0] + rng.sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return tuple(tuple(row) for row in out)


def swap_intercalate(table, rng):
    """The table with one random 2x2 subsquare [[a, b], [b, a]] outside row
    and column 0 turned into [[b, a], [a, b]]: still a Latin square with
    identity 0, usually no longer associative."""
    n = len(table)
    squares = [(r1, r2, c1, c2)
               for r1, r2 in itertools.combinations(range(1, n), 2)
               for c1, c2 in itertools.combinations(range(1, n), 2)
               if table[r1][c1] == table[r2][c2] and table[r1][c2] == table[r2][c1]]
    r1, r2, c1, c2 = rng.choice(squares)
    rows = [list(row) for row in table]
    rows[r1][c1], rows[r1][c2] = rows[r1][c2], rows[r1][c1]
    rows[r2][c1], rows[r2][c2] = rows[r2][c2], rows[r2][c1]
    return tuple(tuple(row) for row in rows)


def brute_force_associative(rows):
    n = len(rows)
    return all(rows[rows[x][y]][z] == rows[x][rows[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


class TestLightAssociativity:
    def test_random_loops_against_brute_force(self):
        from ghcrypt.groupcore import _validate_table
        rng = random.Random(2024)
        klein = [[a ^ b for b in range(4)] for a in range(4)]
        z2z4 = [[(a & 1 ^ b & 1) | ((a >> 1) + (b >> 1)) % 4 << 1 for b in range(8)]
                for a in range(8)]
        z2_cubed = [[a ^ b for b in range(8)] for a in range(8)]
        groups = [cyclic_group(k).table for k in range(4, 9)]
        groups += [klein, z2z4, z2_cubed, sym(3).table]
        tables = [random_loop(n, rng) for n in range(4, 9) for _ in range(12)]
        tables += [relabeled(t, rng) for t in groups for _ in range(3)]
        # loops one swap away from a group that needs several generators
        for t in (z2z4, z2_cubed, sym(3).table):
            for _ in range(12):
                loop = swap_intercalate(relabeled(t, rng), rng)
                if all(loop[loop[a].index(0)][a] == 0 for a in range(len(loop))):
                    tables.append(loop)
        verdicts = set()
        for rows in tables:
            want = brute_force_associative(rows)
            try:
                _validate_table(rows)
                got = True
            except NotAssociative as exc:
                got = False
                x, g, y = map(int, re.findall(r"\d+", str(exc))[:3])
                assert rows[rows[x][g]][y] != rows[x][rows[g][y]], str(exc)
            assert got == want, rows
            verdicts.add(got)
        assert verdicts == {True, False}


class TestOnePassValidation:
    """``_validate_table`` accepts a group by one pass and hands every other
    table to the ordered checks (``_diagnose``) to name its defect: on a
    seeded corpus of perturbed tables both give the same inverses and
    generators, or the same error class and message, and no other error
    escapes."""

    @staticmethod
    def outcome(check, rows):
        try:
            return check(rows)
        except Error as exc:
            return type(exc), str(exc)

    @staticmethod
    def perturbed(table, rng):
        """The table with one defect drawn at random (entries of row a
        are drawn from the row as it stands, which may be short)."""
        n = len(table)
        rows = [list(row) for row in table]
        kind = rng.randrange(7)
        a = rng.randrange(n)
        b, c = (rng.randrange(max(len(rows[a]), 1)) for _ in range(2))
        if not rows[a]:
            kind = 2
        if kind == 0:  # a changed entry
            rows[a][b] = rng.randrange(n)
        elif kind == 1:  # two entries of a row swapped
            rows[a][b], rows[a][c] = rows[a][c], rows[a][b]
        elif kind == 2:  # two rows swapped
            rows[a], rows[b] = rows[b], rows[a]
        elif kind == 3:  # two values swapped throughout
            rows = [[b if v == a else a if v == b else v for v in row] for row in rows]
        elif kind == 4:  # a short row
            del rows[a][b:]
        elif kind == 5:  # an entry >= n
            rows[a][b] = n + rng.randrange(3)
        else:  # a negative entry, half the time the alias v - n of v
            rows[a][b] = rows[a][b] - n if rng.randrange(2) else -rng.randrange(1, n + 1)
        return tuple(map(tuple, rows))

    def test_same_outcome_as_the_ordered_checks(self):
        from ghcrypt.groupcore import _diagnose, _validate_table
        rng = random.Random(2028)
        klein = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
        groups = [sym(k).table for k in range(1, 5)]
        groups += [cyclic_group(m).table for m in range(1, 13)]
        groups += [klein, relabeled(sym(3).table, rng), relabeled(klein, rng)]
        tables = [tuple(map(tuple, t)) for t in (NONASSOC_LOOP, ONESIDED_LOOP)]
        # every row a permutation, column 1 repeats: the pinned case
        tables.append(((0, 1, 2), (1, 2, 0), (2, 1, 0)))
        # a bad entry outside row and column 0: changed, out of range, or
        # the negative alias v - n of the right value v, which Python
        # indexing would read as v
        for table in (cyclic_group(4).table, sym(3).table):
            n = len(table)
            for i, j in itertools.product(range(1, n), repeat=2):
                for bad in (table[i][j] - n, n, (table[i][j] + 1) % n):
                    rows = [list(row) for row in table]
                    rows[i][j] = bad
                    tables.append(tuple(map(tuple, rows)))
        tables += [random_loop(n, rng) for n in range(3, 7) for _ in range(5)]
        tables += [swap_intercalate(relabeled(sym(3).table, rng), rng) for _ in range(5)]
        tables += groups
        for _ in range(2000):
            table = rng.choice(groups)
            for _ in range(rng.choice((1, 1, 2))):
                table = self.perturbed(table, rng)
            tables.append(table)
        kinds = set()
        for rows in tables:
            got = self.outcome(_validate_table, rows)
            assert got == self.outcome(_diagnose, rows), rows
            kinds.add(got[0] if isinstance(got[0], type) else "group")
        assert kinds == {"group", FormatError, NoIdentity, NotLatinSquare,
                         NoInverse, NotAssociative}


class TestPredictedRows:
    """``read_group`` reads a few rows token by token, predicts the others
    from them and takes a predicted row only when the line is its
    canonical spelling: on seeded perturbed texts it gives the same table
    and generators, or the same error class and message, as a reader of
    every row."""

    @staticmethod
    def full_parse(rows):
        """Every row through its canonical spellings, else through ints,
        then FiniteGroup."""
        spelled = {str(x): x for x in range(len(rows))}.__getitem__
        table = []
        for i, line in enumerate(rows):
            try:
                table.append(tuple(map(spelled, line.split())))
            except KeyError:
                table.append(ints(line.split(), f"table row {i}"))
        return FiniteGroup(table)

    @staticmethod
    def outcome(read):
        try:
            G = read()
        except Error as exc:
            return type(exc), str(exc)
        return G.table, G.generators

    @staticmethod
    def rows_read(table):
        # the rows read for a group: again and again the lowest element
        # outside the subgroup so far
        from ghcrypt.groupcore import _span
        return _span(table, range(len(table) - 1, 0, -1))[0]

    @staticmethod
    def perturbed(rows, row, rng):
        """The lines with one defect drawn at random in line ``row``."""
        n = len(rows)
        rows = list(rows)
        tokens = rows[row].split()
        b = rng.randrange(len(tokens))
        kind = rng.randrange(7)
        if kind == 0:  # a changed entry
            tokens[b] = str(rng.randrange(n))
        elif kind == 1:  # another spelling of the same entry
            tokens[b] = rng.choice(("0", "+")) + tokens[b]
        elif kind == 2:  # an entry >= n
            tokens[b] = str(n + rng.randrange(3))
        elif kind == 3:  # a non-integer token
            tokens[b] = "x"
        elif kind == 4:  # a short row (records() drops an empty one)
            del tokens[max(b, 1):]
        elif kind == 5:  # two rows swapped
            other = rng.randrange(n)
            rows[row], rows[other] = rows[other], rows[row]
            return rows
        rows[row] = ("\t" if kind == 6 else " ").join(tokens)
        return rows

    def test_same_outcome_as_reading_every_row(self):
        rng = random.Random(2029)
        tables = [G.table for G in [sym(k) for k in range(1, 6)]
                  + [cyclic_group(m) for m in (2, 5, 8, 12, 64)]]
        # loops, whose rows the rows read predict wrongly
        tables += [NONASSOC_LOOP, ONESIDED_LOOP]
        cases = [[" ".join(map(str, row)) for row in table] for table in tables]
        cases.append(records((DATA / "sym3_all_elements_pk.txt").read_text())[2:8])
        texts = []
        for rows in cases:
            n = len(rows)
            read = self.rows_read([tuple(map(int, row.split())) for row in rows])
            predicted = [i for i in range(n) if i not in read]
            texts.append(rows)
            for _ in range(60 if n > 1 else 4):
                bad = rows
                for _ in range(rng.choice((1, 1, 2))):
                    row = rng.choice(read if read and rng.randrange(2) else predicted)
                    bad = self.perturbed(bad, row, rng)
                texts.append(bad)
            # a bad entry in the first row read, and a second bad row,
            # non-integer, out of range or short, before it
            for first, before in itertools.product(("x", str(n)), ("y", str(n + 1), None)):
                if n > 1:
                    bad = [row.split() for row in rows]
                    bad[1][-1] = first
                    if before is None:
                        del bad[0][-1]
                    else:
                        bad[0][-1] = before
                    texts.append([" ".join(tokens) for tokens in bad])
        kinds = set()
        for rows in texts:
            lines = [f"GROUP v1 {len(rows)}", *rows]
            got = self.outcome(lambda: read_group(lines)[0])
            assert got == self.outcome(lambda: self.full_parse(rows)), rows
            kinds.add(got[0] if isinstance(got[0], type) else "group")
        assert kinds == {"group", FormatError, NoIdentity, NotLatinSquare,
                         NoInverse, NotAssociative}

    def test_rows_converted(self, monkeypatch):
        # a canonical Sym(5) text converts the rows of four generators,
        # within ceil(log2 120) = 7; with tabs every row is converted once
        converted = []
        read_row = groupcore._read_row

        def counting_read_row(tokens, spelled):
            converted.append(int(tokens[0]))  # row i begins with i
            return read_row(tokens, spelled)

        monkeypatch.setattr(groupcore, "_read_row", counting_read_row)
        G = sym(5)
        lines = format_group(G).splitlines()
        assert parse_group("\n".join(lines)).table == G.table
        assert converted == [1, 2, 6, 24]
        converted.clear()
        lines[1:121] = [row.replace(" ", "\t") for row in lines[1:121]]
        assert parse_group("\n".join(lines)).table == G.table
        assert sorted(converted) == list(range(120))


class TestSym:
    def test_orders(self):
        assert sym(1).order == 1
        assert sym(3).order == 6
        assert sym(5).order == 120

    def test_too_large(self):
        with pytest.raises(TooLarge):
            sym(7)

    def test_identity_is_element_zero(self):
        assert sym(4).labels[0] == "e"

    def test_composition_convention(self):
        # apply-left-first: (1 2) then (1 3) maps 1->2, 2->3, 3->1
        s3 = sym(3)
        a = s3.element_by_label("(1 2)")
        b = s3.element_by_label("(1 3)")
        assert (a * b).label == "(1 2 3)"
        # element 3 is the one-line permutation (1, 2, 0): 0->1, 1->2, 2->0
        assert (a * b).index == 3

    def test_labels_roundtrip(self):
        # elements in lexicographic one-line order, labels in cycle notation
        assert sym(3).labels == ("e", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)")
        for k in range(1, 7):
            G = sym(k)
            assert all(G.element_by_label(label).index == i
                       for i, label in enumerate(G.labels))


def commutator(a, b):
    """a * b * a^-1 * b^-1 from GroupElement products."""
    return a * b * a.inverse() * b.inverse()


class TestElementOps:
    def test_element_order(self):
        s3, s5 = sym(3), sym(5)
        assert s5.order_of(0) == 1
        assert s3.order_of(s3.element_by_label("(1 2)").index) == 2
        assert s5.order_of(s5.element_by_label("(1 2 3 4 5)").index) == 5

    def test_order_divides_group_order(self):
        for G in (sym(3), sym(4), sym(5), cyclic_group(12)):
            for g in range(G.order):
                assert G.order % G.order_of(g) == 0

    def test_commutator_trivial_cases(self):
        s3 = sym(3)
        x = s3.element(3)
        assert commutator(x, x).index == 0
        z = cyclic_group(6)
        assert commutator(z.element(2), z.element(5)).index == 0

    def test_commutator_inverse_law(self):
        s5 = sym(5)
        rng = random.Random(4)
        for _ in range(50):
            a = s5.element(rng.randrange(120))
            b = s5.element(rng.randrange(120))
            assert commutator(a, b).inverse().index == commutator(b, a).index

    def test_five_cycle_commutator_exists(self):
        # brute-force oracle: some pair of 5-cycles has a 5-cycle commutator
        s5 = sym(5)
        fives = [g for g in s5.elements() if s5.order_of(g.index) == 5]
        assert any(
            s5.order_of(commutator(a, b).index) == 5
            for a in fives for b in fives)

    def test_cyclic_subgroup(self):
        # the powers of g run through order_of(g) distinct elements
        s3 = sym(3)
        for label, order in (("e", 1), ("(1 2)", 2), ("(1 2 3)", 3)):
            g = s3.element_by_label(label).index
            powers = {s3.power(g, k) for k in range(s3.order_of(g))}
            assert len(powers) == order == s3.order_of(g)
            assert s3.power(g, order) == 0


def brute_force_closure(G, seed, normal=False):
    """Multiply on both sides until nothing new appears; with ``normal``
    also conjugate by every element."""
    members, frontier = {0}, list(seed)
    while frontier:
        x = frontier.pop()
        if x in members:
            continue
        members.add(x)
        frontier.extend(G.mul(x, y) for y in list(members))
        frontier.extend(G.mul(y, x) for y in list(members))
        if normal:
            frontier.extend(G.mul(G.mul(G.inverse(g), x), g) for g in range(G.order))
    return frozenset(members)


class TestSolvability:
    def test_textbook_classification(self):
        assert is_solvable(cyclic_group(6))
        assert is_solvable(sym(3))
        assert is_solvable(sym(4))
        assert not is_solvable(sym(5))
        assert not is_solvable(alternating5())

    def test_derived_series_of_sym3(self):
        # Sym(3) -> A_3 -> 1: the derived subgroup has order 3
        from ghcrypt.groupcore import _derived_subgroup
        s3 = sym(3)
        derived = _derived_subgroup(s3, frozenset(range(6)))
        assert len(derived) == 3

    @pytest.mark.parametrize("G", [sym(k) for k in range(1, 6)]
                             + [cyclic_group(m) for m in (1, 2, 6, 12, 64)]
                             + [alternating5()], ids=lambda G: G.name)
    def test_matches_all_pairs_definition(self, G):
        # the derived series from generating sets against the closure of
        # all |K|^2 commutators at every level
        from ghcrypt.groupcore import _derived_subgroup

        current = frozenset(range(G.order))
        while True:
            want = brute_force_closure(
                G, {G.mul(G.mul(a, b), G.mul(G.inverse(a), G.inverse(b)))
                    for a in current for b in current})
            assert _derived_subgroup(G, current) == want
            if want == current:
                break
            current = want
        assert is_solvable(G) == (current == frozenset({0}))


class TestSpan:
    GROUPS = ([sym(k) for k in range(1, 6)]
              + [cyclic_group(m) for m in (1, 2, 6, 12)]
              + [FiniteGroup([[a ^ b for b in range(4)] for a in range(4)], name="z2z2"),
                 alternating5()])

    @staticmethod
    def candidate_lists(G):
        rng = random.Random(G.order)
        lists = [list(range(G.order)), [], [0]]
        for size in (1, 2, 3):
            lists.append([rng.randrange(G.order) for _ in range(size)])
        return lists

    @pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.name)
    def test_members_are_the_closure(self, G):
        from ghcrypt.groupcore import _span
        for candidates in self.candidate_lists(G):
            assert _span(G.table, candidates)[1] == brute_force_closure(G, candidates)

    @pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.name)
    def test_all_conjugators_give_the_normal_closure(self, G):
        from ghcrypt.groupcore import _span
        everyone = [(G.inverse(g), g) for g in range(G.order)]
        for candidates in self.candidate_lists(G):
            _, members = _span(G.table, candidates, everyone)
            assert members == brute_force_closure(G, candidates, normal=True)

    @pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.name)
    def test_each_generator_is_new(self, G):
        from ghcrypt.groupcore import _span
        for candidates in self.candidate_lists(G):
            gens, _ = _span(G.table, candidates)
            for k, g in enumerate(gens):
                assert g not in brute_force_closure(G, gens[:k])
            assert 2 ** len(gens) <= G.order

    def test_candidates_taken_from_the_end(self):
        from ghcrypt.groupcore import _span
        G = cyclic_group(12)
        # 6 lies in <3> = {0, 3, 6, 9}, but 3 does not lie in <6> = {0, 6}
        assert _span(G.table, [6, 3])[0] == [3]
        assert _span(G.table, [3, 6])[0] == [6, 3]
        assert _span(G.table, [1, 5])[0] == [5]


class TestBuiltinsAndFiles:
    def test_builtin_specs(self):
        assert builtin_group("z6").order == 6
        assert builtin_group("sym3").order == 6
        assert builtin_group("weird") is None

    def test_cyclic_table_guard(self):
        # both builtin families stop at 720 elements, the order of sym(6)
        with pytest.raises(TooLarge):
            builtin_group("z721")
        assert builtin_group("z720").order == 720

    def test_format_parse_roundtrip(self):
        labelled = FiniteGroup(sym(3).table, labels=["e", "r", "r2", "s", "sr", "sr2"])
        for G in (sym(3), cyclic_group(5), sym(5), cyclic_group(64), labelled):
            text = format_group(G)
            # each entry spelled as str() spells it
            rows = [" ".join(str(x) for x in row) for row in G.table]
            assert text == "\n".join(
                [f"GROUP v1 {G.order}", *rows, "LABELS", *G.labels]) + "\n"
            back = parse_group(text)
            assert back.table == G.table
            assert back.labels == G.labels
            assert format_group(back) == text

    def test_comments_and_blanks_ignored(self):
        text = "# hi\nGROUP v1 2\n\n0 1  # identity row\n1 0\n"
        G = parse_group(text)
        assert G.order == 2

    def test_table_spellings(self):
        # any spelling int() reads is the same entry: leading zeros, plus
        # signs and tab separators
        spelling = {3: "03", 5: "+5"}
        rows = ["\t".join(spelling.get(x, str(x)) for x in row) for row in sym(3).table]
        G = parse_group("GROUP v1 6\n" + "\n".join(rows) + "\n")
        assert G.table == sym(3).table
        assert G.generators == sym(3).generators
        with pytest.raises(FormatError, match="non-integer table row 1"):
            parse_group("GROUP v1 2\n0 1\n1 x\n")

    def test_truncated_header_builds_nothing_of_its_order(self, monkeypatch):
        # nothing the size of the claimed order is made before the rows are
        # known to be there; a guard on range keeps a failure small
        def small_range(*args):
            assert max(args) < 1000, args
            return range(*args)
        monkeypatch.setattr(groupcore, "range", small_range, raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated group table"):
                parse_group("GROUP v1 1000000000\n0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_bad_files(self):
        with pytest.raises(FormatError):
            parse_group("")
        with pytest.raises(FormatError):
            parse_group("GROUP v2 2\n0 1\n1 0\n")
        with pytest.raises(FormatError):
            parse_group("GROUP v1 2\n0 1\n")
        with pytest.raises(FormatError):
            parse_group("GROUP v1 2\n0 1\n1 0\nLABELS\nonly_one\n")
