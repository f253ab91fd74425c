import random

import pytest

from oracles import (
    brute_force_subgroups,
    closure,
    conjugacy_partition,
    cycle_type,
    identity,
    is_even,
    maximal_classes,
    parse_perm,
    perm_conj,
    perm_mul,
    perm_str,
    subgroup_classes,
    table_group,
)

from hitbox.errors import DomainError, ParseError, ResourceLimitError
from hitbox.galois import table_entry, transitive_table


def grp(degree, *cycles):
    return closure(degree, [parse_perm(c, degree) for c in cycles])


A4 = grp(4, "(1,2,3)", "(1,2)(3,4)")
S3 = grp(3, "(1,2)", "(1,2,3)")
C2 = grp(2, "(1,2)")
C6 = grp(6, "(1,2,3,4,5,6)")
D6 = grp(6, "(1,2,3,4,5,6)", "(1,6)(2,5)(3,4)")


def test_parse_and_format():
    p = parse_perm("(1,2,3)(4,5)", 5)
    assert p == (1, 2, 0, 4, 3)
    assert perm_str(p) == "(1,2,3)(4,5)"
    assert parse_perm("()", 3) == identity(3)
    for bad in ("(1,2", "(1,2)(2,3)", "(0,1)", "(1,9)"):
        with pytest.raises(ParseError):
            parse_perm(bad, 4)


def test_closure_examples():
    assert A4.order == 12  # oracle below re-derives it by brute force
    assert len({perm_mul(a, b) for a in A4.elements for b in A4.elements}) == 12
    assert C2.order == 2
    assert closure(3, [identity(3)]).order == 1
    with pytest.raises(ResourceLimitError):
        closure(8, [parse_perm("(1,2)", 8), parse_perm("(1,2,3,4,5,6,7,8)", 8)], bound=1000)


def test_cycle_type_examples():
    assert cycle_type(parse_perm("(1,2,3)", 4)) == (3, 1)
    assert cycle_type(identity(6)) == (1, 1, 1, 1, 1, 1)
    assert cycle_type(parse_perm("(1,2)(3,4,5,6)", 6)) == (4, 2)


def test_subgroup_classes_against_brute_force():
    for G in (A4, S3, C6, D6):
        classes = subgroup_classes(G)
        oracle = conjugacy_partition(G, brute_force_subgroups(G))
        assert len(classes) == len(oracle)
        # every reported representative appears in exactly one oracle class
        for c in classes:
            hits = [cls for cls in oracle if c.representative.elements in cls]
            assert len(hits) == 1


def test_a4_subgroup_structure():
    classes = subgroup_classes(A4)
    assert len(classes) == 5  # trivial, C2, C3, V4, A4
    maxi = maximal_classes(A4)
    assert sorted(c.index for c in maxi) == [3, 4]
    orders = {c.index: c.representative.order for c in maxi}
    assert orders == {3: 4, 4: 3}  # V4 and C3


# (number of conjugacy classes of subgroups, indices of the maximal ones),
# as computed before joins were deduplicated and built from generators;
# S4 has 11 classes and S5 19, A4 5 and A5 9; the maximal indices of A5
# and of S5 (5T5, and 6T14 = PGL(2, 5) on six points) agree with the ATLAS
SUBGROUP_LATTICES = {
    "2T1": (2, [2]),
    "3T1": (2, [3]),
    "3T2": (4, [2, 3]),
    "4T1": (3, [2]),
    "4T2": (5, [2, 2, 2]),
    "4T3": (8, [2, 2, 2]),
    "4T4": (5, [3, 4]),
    "4T5": (11, [2, 3, 4]),
    "5T1": (2, [5]),
    "5T2": (4, [2, 5]),
    "5T3": (6, [2, 5]),
    "5T4": (9, [5, 6, 10]),
    "5T5": (19, [2, 5, 6, 10]),
    "6T3": (10, [2, 2, 2, 3]),
    "6T9": (22, [2, 2, 2, 3, 3]),
    "6T13": (26, [2, 2, 2, 9]),
    "6T14": (19, [2, 5, 6, 10]),
}


def test_subgroup_lattices_of_small_transitive_groups():
    labels = [e.label for n in (2, 3, 4, 5) for e in transitive_table(n)]
    assert set(labels) | {"6T3", "6T9", "6T13", "6T14"} == set(SUBGROUP_LATTICES)
    for label, (count, indices) in SUBGROUP_LATTICES.items():
        classes = subgroup_classes(table_group(label))
        assert len(classes) == count, label
        assert sorted(c.index for c in classes if c.is_maximal) == indices, label
        assert list(table_entry(label).maximal_indices) == indices, label
    # S6 is pinned to the ATLAS, because the oracle takes about 45 s on it:
    # A6 (index 2), two classes of S5 (index 6), S3 wr S2 (index 10), and
    # S2 wr S3 and S4 x S2 (index 15)
    assert table_entry("6T16").maximal_indices == (2, 6, 6, 10, 15, 15)


def test_maximal_indices_of_a6():
    # ATLAS: A6 has two classes of A5 (index 6), one of 3^2:4 (index 10)
    # and two of S4 (index 15)
    indices = sorted(c.index for c in maximal_classes(table_group("6T15")))
    assert indices == [6, 6, 10, 15, 15]
    assert list(table_entry("6T15").maximal_indices) == indices


def test_maximal_classes_examples():
    assert [(c.index, c.representative.order) for c in maximal_classes(C2)] == [(2, 1)]
    assert sorted(c.index for c in maximal_classes(S3)) == [2, 3]
    assert sorted(c.index for c in maximal_classes(D6)) == [2, 2, 2, 3]
    assert sorted(c.index for c in maximal_classes(C6)) == [2, 3]
    with pytest.raises(DomainError):
        maximal_classes(closure(3, [identity(3)]))


def test_lagrange_and_index():
    for G in (A4, S3, D6):
        for c in subgroup_classes(G):
            assert G.order % c.representative.order == 0
            assert c.index * c.representative.order == G.order


def test_conjugation_lands_in_one_class():
    rng = random.Random(15)
    classes = subgroup_classes(A4)
    elems = sorted(A4.elements)
    for c in classes:
        H = c.representative.elements
        for _ in range(20):
            g = rng.choice(elems)
            Hg = frozenset(perm_conj(g, h) for h in H)
            hits = 0
            for d in classes:
                K = d.representative.elements
                if any(frozenset(perm_conj(x, k) for k in K) == Hg for x in elems):
                    hits += 1
            assert hits == 1


def test_cycle_type_sets():
    assert A4.cycle_type_set() == frozenset({(1, 1, 1, 1), (2, 2), (3, 1)})
    S4 = grp(4, "(1,2)", "(1,2,3,4)")
    assert S4.cycle_type_set() == frozenset(
        {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)}
    )
    assert C2.cycle_type_set() == frozenset({(1, 1), (2,)})
    # subgroups see a subset of the parent's types
    for c in subgroup_classes(S4):
        assert c.representative.cycle_type_set() <= S4.cycle_type_set()


def test_parity():
    assert is_even(parse_perm("(1,2,3)", 3))
    assert not is_even(parse_perm("(1,2)", 2))
    assert A4.in_alternating()
    assert not D6.in_alternating()


def test_in_alternating_reads_the_generators_as_the_element_scan_would():
    for n in range(2, 7):
        for e in transitive_table(n):
            G = table_group(e.label)
            assert G.in_alternating() == all(is_even(g) for g in G.elements), e.label
