import itertools
import random

import pytest

from ghcrypt.errors import FormatError
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
    group_from_table,
    is_solvable,
    parse_group,
    parse_permutation,
    sym,
)

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
    return group_from_table(table, name="a5")


class TestConstruction:
    def test_trivial_group(self):
        G = group_from_table([[0]])
        assert G.order == 1

    def test_z2(self):
        G = group_from_table(Z2_TABLE)
        assert G.order == 2
        assert G.mul(1, 1) == 0

    def test_not_latin(self):
        with pytest.raises(NotLatinSquare):
            group_from_table([[0, 1], [1, 1]])

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            group_from_table([[1, 0], [0, 1]])

    def test_no_inverse(self):
        with pytest.raises(NoInverse):
            group_from_table(ONESIDED_LOOP)

    def test_not_associative(self):
        with pytest.raises(NotAssociative):
            group_from_table(NONASSOC_LOOP)

    def test_shape_errors(self):
        with pytest.raises(FormatError):
            group_from_table([[0, 1]])
        with pytest.raises(FormatError):
            group_from_table([[0, 5], [5, 0]])


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
        want = parse_permutation("(1 2 3)", 3)
        assert want == (1, 2, 0)

    def test_labels_roundtrip(self):
        s5 = sym(5)
        for i, perm in enumerate(itertools.permutations(range(5))):
            assert parse_permutation(s5.labels[i], 5) == perm

    def test_compact_cycle_form(self):
        assert parse_permutation("(123)", 3) == parse_permutation("(1 2 3)", 3)

    def test_bad_labels(self):
        for bad in ("(1 1)", "(0 2)", "(9 1)", "(1)", "nonsense"):
            with pytest.raises(FormatError):
                parse_permutation(bad, 5)


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

        def closure(seed):
            members, frontier = {0}, list(seed)
            while frontier:
                x = frontier.pop()
                if x in members:
                    continue
                members.add(x)
                frontier.extend(G.mul(x, y) for y in list(members))
                frontier.extend(G.mul(y, x) for y in list(members))
            return frozenset(members)

        current = frozenset(range(G.order))
        while True:
            want = closure({G.mul(G.mul(a, b), G.mul(G.inverse(a), G.inverse(b)))
                            for a in current for b in current})
            assert _derived_subgroup(G, current) == want
            if want == current:
                break
            current = want
        assert is_solvable(G) == (current == frozenset({0}))


class TestBuiltinsAndFiles:
    def test_builtin_specs(self):
        assert builtin_group("z6").order == 6
        assert builtin_group("sym3").order == 6
        assert builtin_group("weird") is None

    def test_format_parse_roundtrip(self):
        for G in (sym(3), cyclic_group(5)):
            text = format_group(G)
            back = parse_group(text)
            assert back.table == G.table
            assert back.labels == G.labels
            assert format_group(back) == text

    def test_comments_and_blanks_ignored(self):
        text = "# hi\nGROUP v1 2\n\n0 1  # identity row\n1 0\n"
        G = parse_group(text)
        assert G.order == 2

    def test_bad_files(self):
        with pytest.raises(FormatError):
            parse_group("")
        with pytest.raises(FormatError):
            parse_group("GROUP v2 2\n0 1\n1 0\n")
        with pytest.raises(FormatError):
            parse_group("GROUP v1 2\n0 1\n")
        with pytest.raises(FormatError):
            parse_group("GROUP v1 2\n0 1\n1 0\nLABELS\nonly_one\n")
