import functools
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    TABLE_GENERATORS,
    closure,
    conjugate_in_symmetric,
    conjugates_into,
    cycle_type_by_sympy,
    f2_rank_by_elimination,
    is_even,
    label_for_group,
    maximal_classes,
    subgroup_classes,
    table_group,
)

from hitbox import factorq, galois
from hitbox.errors import DomainError, InconclusiveError, ReferenceMismatchError
from hitbox.factorq import Factorization, factor_over_Q, rational_roots
from hitbox.galois import (
    GaloisId,
    classify_degree_le4,
    groups_match,
    identify_galois,
    sieve_degree_5_6,
    table_entry,
    transitive_subgroups,
    transitive_table,
)
from hitbox.harness import load_fixture, report_to_json, resolve_reference, verify_equivalence
from hitbox.polys import (
    UniPoly,
    _discriminant_ints,
    discriminant_uni,
    parse_poly,
    parse_unipoly,
    poly_str,
)
from hitbox.rationals import is_prime, is_square_int, is_square_rational, rationals_up_to_height

X = UniPoly.gen()
FERMAT = load_fixture("fermat-x6")


def serre_quartic(t) -> UniPoly:
    return parse_poly("3*X^4 - 4*X^3 + 1 + 3*T^2").specialize(Fraction(t))


def resolvent_cubic(f: UniPoly) -> UniPoly:
    """Monic cubic with roots x1x2+x3x4, x1x3+x2x4, x1x4+x2x3 of a quartic f,
    rescaled from the integer cubic ``galois._resolvent_ints`` of f's monic
    integer model F of scale m, which the quartic classifier reads: F's
    roots are m times f's, so the cubic's roots are m^2 times."""
    F, m = factorq._monic_int_model(f.primitive())
    r0, r1, r2, r3 = galois._resolvent_ints(F)
    s = m * m
    return UniPoly.from_ints([r0, r1 * s, r2 * s * s, r3 * s**3], s**3).monic()


def test_transitive_table_counts():
    assert [len(transitive_table(n)) for n in range(2, 7)] == [1, 2, 5, 5, 16]
    assert set(TABLE_GENERATORS) == {e.label for n in range(2, 7) for e in transitive_table(n)}
    assert sorted(e.order for e in transitive_table(4)) == [4, 4, 8, 12, 24]
    assert len(transitive_table(2)) == 1 and transitive_table(2)[0].order == 2
    with pytest.raises(DomainError):
        transitive_table(7)


@pytest.mark.parametrize("n", range(2, 7))
def test_table_columns_match_the_generators(n):
    """Every column of the embedded table, re-derived from the entry's
    generators by explicit closure: the label's k, the order, transitivity,
    the cycle types and their spelling, membership in A_n, the entries
    conjugate into it, and the maximal indices by the subgroup-lattice
    oracle (all but S6's, which ``test_permgroups`` pins to the ATLAS)."""
    entries = transitive_table(n)
    groups = [table_group(e.label) for e in entries]
    for k, (row, e, G) in enumerate(zip(galois._TABLE_DATA[n], entries, groups), 1):
        assert e.label == row[0] == f"{n}T{k}"
        assert G.degree == n and G.is_transitive(), e.label
        assert G.order == e.order, e.label
        types = G.cycle_type_set()
        assert e.cycle_types == types, e.label
        assert row[4] == " ".join("".join(map(str, ct)) for ct in sorted(types, reverse=True))
        assert e.in_alternating == all(is_even(g) for g in G.elements), e.label
        assert e.subgroup_ks == tuple(j for j, H in enumerate(groups, 1) if conjugates_into(H, G))
        if e.label != "6T16":
            assert list(e.maximal_indices) == sorted(c.index for c in maximal_classes(G)), e.label


@pytest.mark.parametrize("n", [4, 5, 6])
def test_embedded_tables_match_sympy_transitive_subgroups(n):
    """Provenance of the embedded generators: each table entry of degree n
    is conjugate in S_n to exactly one of sympy's transitive subgroups of
    S_n, and the matching is a bijection."""
    galois = pytest.importorskip("sympy.combinatorics.galois")
    names = {4: "S4TransitiveSubgroups", 5: "S5TransitiveSubgroups", 6: "S6TransitiveSubgroups"}
    theirs = {}
    for member in getattr(galois, names[n]):
        G = member.get_perm_group()
        theirs[member.name] = closure(n, [tuple(g.array_form) for g in G.generators])
    matches = {
        e.label: [name for name, H in theirs.items() if conjugate_in_symmetric(table_group(e.label), H)]
        for e in transitive_table(n)
    }
    assert all(len(m) == 1 for m in matches.values()), matches
    assert sorted(m[0] for m in matches.values()) == sorted(theirs)


def test_degree6_order12_entry_matches_auxiliary_degrees():
    entries = [e for e in transitive_table(6) if e.order == 12]
    indices = {
        e.label: sorted(c.index for c in maximal_classes(table_group(e.label))) for e in entries
    }
    assert indices["6T3"] == [2, 2, 2, 3]
    assert indices["6T4"] == [3, 4]


def test_is_square_examples():
    assert is_square_rational(Fraction(4, 9))
    assert not is_square_rational(Fraction(-1))
    assert is_square_rational(discriminant_uni(parse_unipoly("3*X^4-4*X^3+4")))


def test_resolvent_cubic_examples():
    assert resolvent_cubic(parse_unipoly("X^4+X+1")) == parse_unipoly("X^3-4*X-1")
    assert resolvent_cubic(parse_unipoly("X^4-1")) == parse_unipoly("X^3+4*X")


def test_resolvent_cubic_against_numeric_symmetric_sums():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(16)
    for _ in range(25):
        f = UniPoly([rng.randint(-6, 6) for _ in range(4)] + [1])
        R = resolvent_cubic(f)
        roots = numpy.roots([1] + [float(c) for c in reversed(f.coeffs[:-1])])
        x1, x2, x3, x4 = roots
        vals = [x1 * x2 + x3 * x4, x1 * x3 + x2 * x4, x1 * x4 + x2 * x3]
        prod = numpy.poly(vals)  # monic cubic with those roots
        for got, exp in zip(prod, [1] + [float(c) for c in reversed(R.coeffs[:-1])]):
            assert abs(got - exp) < 1e-5 * (1 + abs(exp))


def test_resolvent_discriminant_identity():
    rng = random.Random(17)
    done = 0
    while done < 50:
        f = UniPoly([rng.randint(-9, 9) for _ in range(4)] + [1])
        from hitbox.polys import squarefree_part

        if squarefree_part(f).degree != 4:
            continue
        assert discriminant_uni(resolvent_cubic(f)) == discriminant_uni(f)
        done += 1


KNOWN_QUARTICS = [
    ("X^4+X^3+X^2+X+1", "C4", 4),
    ("X^4-4*X^2+2", "C4", 4),
    ("X^4+1", "V4", 4),
    ("X^4-2", "D4", 8),
    ("X^4-3", "D4", 8),
    ("X^4+8*X+12", "A4", 12),
    ("X^4-X-1", "S4", 24),
    ("X^4+X+1", "S4", 24),
]


def test_classify_known_quartics():
    for text, kind, order in KNOWN_QUARTICS:
        gid = classify_degree_le4(factor_over_Q(parse_unipoly(text)))
        assert (gid.kind, gid.order) == (kind, order), text
        assert gid.mode == "definitive"


def test_classify_family_specializations():
    # degenerate parameter: the paper-level fact that the group has order 2
    gid = classify_degree_le4(factor_over_Q(serre_quartic(0)))
    assert gid.order == 2
    # generic parameter: alternating of order 12; no rational root of the
    # cubic auxiliary polynomial at t = 1 forces this independently
    f2_at_1 = parse_poly(
        "X^3 + 48*X^2 + (-1296*T^2 + 336)*X - 10368*T^2 + 640"
    ).specialize(1)
    assert rational_roots(f2_at_1) == set()
    gid = classify_degree_le4(factor_over_Q(serre_quartic(1)))
    assert (gid.label, gid.order) == ("4T4", 12)
    # parameter hit by the parametrized family: group departs from order 12
    gid = classify_degree_le4(factor_over_Q(serre_quartic(Fraction(10, 27))))
    assert gid.mode == "definitive" and gid.label != "4T4"


def test_classify_cubics_and_quadratics():
    assert classify_degree_le4(factor_over_Q(parse_unipoly("X^2-2"))).order == 2
    assert classify_degree_le4(factor_over_Q(parse_unipoly("X^3-3*X+1"))).kind == "C3"
    assert classify_degree_le4(factor_over_Q(parse_unipoly("X^3-2"))).kind == "S3"
    assert classify_degree_le4(factor_over_Q(parse_unipoly("X^3-1"))).order == 2
    # two quadratics: order 2 when the discriminant classes agree, else 4
    assert classify_degree_le4(factor_over_Q(parse_unipoly("(X^2-2)*(X^2-8)"))).order == 2
    assert classify_degree_le4(factor_over_Q(parse_unipoly("(X^2-2)*(X^2-3)"))).order == 4
    assert classify_degree_le4(factor_over_Q(parse_unipoly("(X-1)*(X-2)*(X+3)"))).order == 1


@pytest.mark.parametrize(
    "text, kind, order",
    [
        # the cubic's own field holds sqrt(-3): no C2 beyond its S3
        ("(X^3 - 2)*(X^2 + 3)", "S3", 6),
        ("(X^3 - 2)*(X^2 - 2)", "D6", 12),
        ("(X^3 - 3*X + 1)*(X^2 - 2)*(X - 5)", "C6", 6),
        ("(X^2 - 2)*(X^2 - 3)*(X^2 - 6)", "V4", 4),
        ("(X^2 - 2)*(X^2 - 3)*(X^2 + 1)", "C2^3", 8),
    ],
)
def test_reducible_sextics_get_their_splitting_field(text, kind, order):
    gid = sieve_degree_5_6(factor_over_Q(parse_unipoly(text)), 10)
    assert (gid.mode, gid.kind, gid.order) == ("definitive", kind, order)


_NONZERO_RATIONAL = st.builds(
    lambda n, d, s: Fraction(n, d) * s * s,
    st.integers(-40, 40).filter(bool),
    st.integers(1, 40),
    st.sampled_from([1, 2, Fraction(5, 3), 7]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_NONZERO_RATIONAL, max_size=4))
def test_f2_rank_from_square_tests_matches_elimination(classes):
    assert galois._f2_rank(classes) == f2_rank_by_elimination(classes)


def test_translation_invariance():
    rng = random.Random(18)
    polys = [parse_unipoly(t) for t, _, _ in KNOWN_QUARTICS[:5]]
    for f in polys:
        base = classify_degree_le4(factor_over_Q(f))
        for _ in range(3):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            shifted = classify_degree_le4(factor_over_Q(f.shift(c)))
            assert (shifted.label, shifted.order) == (base.label, base.order)


def test_disc_square_iff_in_alternating():
    for text, _, _ in KNOWN_QUARTICS:
        f = parse_unipoly(text)
        gid = classify_degree_le4(factor_over_Q(f))
        entry = table_entry(gid.label)
        assert is_square_rational(discriminant_uni(f)) == entry.in_alternating


def test_dedekind_soundness():
    rng = random.Random(19)
    done = 0
    while done < 50:
        f = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 4))] + [1])
        gid = classify_degree_le4(factor_over_Q(f))
        if gid.label is None:
            continue
        entry = table_entry(gid.label)
        p = rng.choice([3, 5, 7, 11, 13, 17, 19])
        ct = cycle_type_by_sympy(f, p)
        if ct is None:
            continue
        assert ct in entry.cycle_types, (f, p, ct, gid.label)
        done += 1


def test_sieve_quintic_definitive():
    gid = sieve_degree_5_6(factor_over_Q(parse_unipoly("X^5-X-1")), 200)
    assert gid.mode == "definitive" and gid.label == "5T5" and gid.order == 120


def test_sieve_sextic_candidates():
    gid = sieve_degree_5_6(factor_over_Q(parse_unipoly("X^6+63")), 200)
    assert gid.mode == "sieved"
    # the true dihedral group of order 12 always survives
    assert "6T3" in gid.candidates
    # groups missing an observed type are gone: the alternating cut removes
    # the even entries, and the 6-cycle removes the quintic-style groups
    assert "6T15" not in gid.candidates and "6T12" not in gid.candidates
    assert "6T7" not in gid.candidates  # no order-6 element there
    observed = gid.evidence.observed_types
    for lbl in gid.candidates:
        assert observed <= table_entry(lbl).cycle_types


def test_sieve_monotone_in_budget():
    f = parse_unipoly("X^6+63")
    small = sieve_degree_5_6(factor_over_Q(f), 4)
    big = sieve_degree_5_6(factor_over_Q(f), 40)
    assert set(big.candidates) <= set(small.candidates)
    f5 = parse_unipoly("X^5-4*X+2")
    small = sieve_degree_5_6(factor_over_Q(f5), 3)
    big = sieve_degree_5_6(factor_over_Q(f5), 60)
    assert set(big.candidates or (big.label,)) <= set(small.candidates or (small.label,))


def test_sieve_rejects_reducible_with_types():
    gid = sieve_degree_5_6(factor_over_Q(parse_unipoly("X^6-1")), 10)
    assert gid.factor_degrees == (1, 1, 2, 2)
    # splitting field is quadratic here, so the order is still exact
    assert gid.mode == "definitive" and gid.order == 2
    gid = sieve_degree_5_6(factor_over_Q(parse_unipoly("(X^3-2)*(X^3-3)")), 10)
    assert gid.mode == "factored" and gid.factor_degrees == (3, 3)
    with pytest.raises(DomainError):
        sieve_degree_5_6(factor_over_Q(parse_unipoly("X^6+63")), 0)


def test_groups_match():
    a4 = table_entry("4T4")
    gid = classify_degree_le4(factor_over_Q(serre_quartic(1)))
    assert groups_match(gid, a4) is True
    gid0 = classify_degree_le4(factor_over_Q(serre_quartic(0)))
    assert groups_match(gid0, a4) is False
    d6 = table_entry("6T3")
    sieved = sieve_degree_5_6(factor_over_Q(parse_unipoly("X^6+63")), 40)
    assert groups_match(sieved, d6) is None  # candidates disagree on order 12
    c2 = table_entry("2T1")
    assert groups_match(identify_galois(factor_over_Q(parse_unipoly("X^6-1"))), c2) is True
    # all-candidates-mismatch is a definitive no
    assert groups_match(sieved, table_entry("6T1")) is False
    # equal orders are not enough: the kinds must agree too
    s3 = classify_degree_le4(factor_over_Q(parse_unipoly("X^3-2")))
    assert groups_match(s3, table_entry("6T2")) is True
    assert groups_match(s3, table_entry("6T1")) is False


@pytest.mark.parametrize(
    "text, label, match",
    [
        ("(X^3-2)*(X^2+1)*(X-1)", "6T3", False),  # D6 of order 12, but intransitive
        ("X^5-X-30", "5T5", False),  # (X - 2) times a quartic: mode 'factored'
        ("(X^2-2)*(X^2-3)", "4T2", False),  # V4 of order 4, but intransitive
        ("X^6-1", "2T1", True),  # another degree: only the abstract group counts
    ],
)
def test_reducible_polynomial_never_matches_a_reference_of_its_degree(text, label, match):
    gid = identify_galois(factor_over_Q(parse_unipoly(text)))
    assert gid.factor_degrees
    assert groups_match(gid, table_entry(label)) is match


def test_identify_galois_radicalizes():
    gid = identify_galois(factor_over_Q(X**6))  # radical is X
    assert gid.order == 1
    gid = identify_galois(factor_over_Q(parse_unipoly("(X^2+1)^3")))
    assert gid.order == 2
    # serre-a4 at t = 0: (X - 1)^2 (3X^2 + 2X + 1), radical of degree 3
    gid = identify_galois(factor_over_Q(serre_quartic(0)))
    assert gid.degree == 4 and gid.factor_degrees == (1, 2) and gid.order == 2


def _identified_up_to_degree(fac, budget, within):
    """identify_galois's result with ``degree`` cleared, or its error."""
    try:
        return identify_galois(fac, budget, within)._replace(degree=None)
    except (DomainError, InconclusiveError) as e:
        return type(e), e.args


def _factors(min_degree: int):
    """Polynomials c0/den + ... + c(d-1)/den X^(d-1) + lead X^d, d <= 3."""
    return st.tuples(
        st.lists(st.integers(-6, 6), min_size=min_degree, max_size=3),
        st.sampled_from([1, 2, 3, -5]),
        st.sampled_from([1, 2, 3, 4]),
    ).map(lambda c: UniPoly([Fraction(a, c[2]) for a in c[0]] + [c[1]]))


@settings(max_examples=80, deadline=None)
@given(
    _factors(1),
    _factors(0),
    st.sampled_from([1, -1, 3, Fraction(-2, 7)]),
    st.sampled_from([2, 3]),
    st.sampled_from([1, 3, 24]),
    st.sampled_from([None, 0, -1]),
)
@example(X - 1, 3 * X**2 + 2 * X + 1, 3, 2, 24, None)  # serre-a4 at t = 0
@example(X**2 - 2, X**3 - X - 1, 3, 2, 24, -1)  # a reducible quintic radical
def test_identification_reads_only_the_distinct_factors(f, g, c, k, budget, within):
    radical = factor_over_Q(f * g)
    assume(all(m == 1 for _, m in radical.factors))
    n = f.degree + g.degree
    entry = None if within is None or n < 2 else transitive_table(n)[within]
    assert _identified_up_to_degree(
        factor_over_Q(c * f**k * g), budget, entry
    ) == _identified_up_to_degree(radical, budget, entry)


def test_transitive_subgroups_of_references():
    assert [e.label for e in transitive_subgroups(table_entry("6T3"))] == ["6T1", "6T2", "6T3"]
    assert [e.label for e in transitive_subgroups(table_entry("6T1"))] == ["6T1"]
    # oracle: the transitive classes among all subgroup classes of small groups
    for lbl in ("6T3", "6T5", "6T7", "5T3"):
        G = table_group(lbl)
        expect = {
            label_for_group(c.representative)
            for c in subgroup_classes(G)
            if c.representative.is_transitive()
        }
        assert {e.label for e in transitive_subgroups(table_entry(lbl))} == expect, lbl
    # the full symmetric groups contain every table entry
    for lbl in ("6T16", "5T5"):
        e = table_entry(lbl)
        assert transitive_subgroups(e) == tuple(transitive_table(e.degree))


def test_sieve_within_stops_at_first_singleton():
    d6 = table_entry("6T3")
    fac = factor_over_Q(parse_unipoly("X^6+2"))
    gid = sieve_degree_5_6(fac, 200, within=d6)
    assert (gid.mode, gid.label, gid.kind, gid.order) == ("conditional", "6T3", "D6", 12)
    assert 1 <= len(gid.evidence.primes) < 200
    assert groups_match(gid, d6) is True
    # without the reference the same evidence leaves D6's supergroups in
    full = sieve_degree_5_6(fac, len(gid.evidence.primes))
    assert full.mode == "sieved" and "6T3" in full.candidates
    # the full-table sieve stops at its singleton too, with the same answer
    quintic = factor_over_Q(parse_unipoly("X^5-X-1"))
    early = sieve_degree_5_6(quintic, 200)
    assert early.mode == "definitive" and early.label == "5T5"
    assert len(early.evidence.primes) < 200


def test_sieve_within_wrong_reference_raises():
    d6 = table_entry("6T3")
    # X^6+X+1 (group S6) has cycle type (3,2,1) mod 3, which D6 lacks
    f = parse_unipoly("X^6+X+1")
    assert cycle_type_by_sympy(f, 3) == (3, 2, 1)
    with pytest.raises(ReferenceMismatchError) as info:
        sieve_degree_5_6(factor_over_Q(f), 40, within=d6)
    err = info.value
    assert (err.prime, err.cycle_type, err.reference, err.t) == (3, (3, 2, 1), "6T3", None)
    assert "mod 3" in str(err) and "6T3" in str(err)
    with pytest.raises(DomainError) as info:
        sieve_degree_5_6(factor_over_Q(parse_unipoly("X^5-X-1")), 40, within=d6)
    assert not isinstance(info.value, ReferenceMismatchError)  # degrees differ


def test_sieve_refutes_a_wrong_single_candidate_reference():
    # inside C6 the only candidate is C6 itself; prime 5 gives (2,2,2), which
    # C6 has, and the D6 sextic X^6+2 first shows (2,2,1,1) mod 11
    with pytest.raises(ReferenceMismatchError) as info:
        sieve_degree_5_6(factor_over_Q(parse_unipoly("X^6+2")), 40, within=table_entry("6T1"))
    err = info.value
    assert (err.prime, err.cycle_type, err.reference) == (11, (2, 2, 1, 1), "6T1")


def _sympy_group(f: UniPoly):
    """sympy's Galois group of f, as the member of its transitive-subgroup
    enumeration for f's degree."""
    galoisgroups = pytest.importorskip("sympy.polys.numberfields.galoisgroups")
    import sympy

    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    name, _ = galoisgroups.galois_group(sympy.Poly(coeffs, x, domain="QQ"), by_name=True)
    return name


def _sympy_label(f: UniPoly) -> str:
    """nTk label of sympy's Galois group of f, matched by conjugacy in S_n."""
    G = _sympy_group(f).get_perm_group()
    return label_for_group(closure(f.degree, [tuple(g.array_form) for g in G.generators]))


@pytest.mark.parametrize(
    "text, sympy_label, verdict",
    [
        ("X^6+2", "6T3", "6T3"),
        ("X^6+63", "6T3", "6T3"),
        ("X^6-X^3+1", "6T1", None),
        # cycle types never exclude D6 above its regular S3
        ("X^6+108", "6T2", None),
    ],
)
def test_sieve_within_d6_matches_sympy_oracle(text, sympy_label, verdict):
    f = parse_unipoly(text)
    assert _sympy_label(f) == sympy_label
    gid = sieve_degree_5_6(factor_over_Q(f), 40, within=table_entry("6T3"))
    if verdict is not None:
        assert gid.mode == "conditional" and gid.label == verdict
        assert table_entry(gid.label).kind == "D6"
    else:
        assert gid.mode == "sieved" and sympy_label in gid.candidates
        assert groups_match(gid, table_entry("6T3")) is None


@settings(max_examples=25, deadline=None)
@given(a=st.integers(-300, 300), s=st.integers(-3, 3))
def test_sieve_within_d6_agrees_with_sympy_on_radical_sextics(a, s):
    # (X+s)^6 + a has its Galois group inside 6T3 (C6 x| C2 acting on the
    # sixth roots of -a), so the sieve may run inside 6T3
    f = (X + s) ** 6 + a
    fac = factor_over_Q(f)
    if not fac.is_irreducible():
        return
    gid = sieve_degree_5_6(fac, 40, within=table_entry("6T3"))
    label = _sympy_label(f)
    if gid.mode == "conditional":
        assert gid.label == label
    else:
        assert gid.mode == "sieved" and label in gid.candidates


# -- the resolvent cubic by its rational roots, and the sieve's residues ---------


@pytest.mark.parametrize(
    "text, label",
    [
        ("X^4+X^3+X^2+X+1", "4T1"),
        ("X^4-10*X^2+1", "4T2"),
        ("X^4-2", "4T3"),
        ("X^4+8*X+12", "4T4"),
        ("X^4+X+1", "4T5"),
    ],
)
def test_quartic_classifier_matches_sympy_on_each_quartic_group(text, label):
    f = parse_unipoly(text)
    # a rescaled, shifted, non-monic copy has the same group and puts a
    # common denominator into the integer resolvent
    g = f.compose(UniPoly([Fraction(1, 3), Fraction(2, 5)])) * 7
    for h in (f, g):
        assert _sympy_label(h) == label
        gid = classify_degree_le4(factor_over_Q(h))
        assert (gid.mode, gid.label) == ("definitive", label)


# rescaled, shifted, non-monic copies of the quartics of every group, and
# random quartics, many with a common denominator
_QUARTICS = st.one_of(
    st.tuples(
        st.sampled_from([parse_unipoly(text) for text, _, _ in KNOWN_QUARTICS]),
        st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(-2, 5), Fraction(7)]),
        st.integers(-3, 3),
        st.sampled_from([1, 3, -4, Fraction(5, 9)]),
    ).map(lambda c: c[0].compose(UniPoly([c[2], c[1]])) * c[3]),
    st.tuples(
        st.lists(st.integers(-20, 20), min_size=4, max_size=4),
        st.sampled_from([1, 2, 3, 6, 9, -4, 12]),
        st.sampled_from([1, 2, 5, 9]),
    ).map(lambda c: UniPoly([Fraction(a, c[2]) for a in c[0]] + [c[1]])),
)


@settings(max_examples=60, deadline=None)
@given(_QUARTICS)
@example(parse_unipoly("X^4+X^3+X^2+X+1"))  # C4: every scanned type fits C4, D4 and S4
@example(parse_unipoly("X^4+1"))  # V4: no usable odd prime needs more than (2,2)
@example(parse_unipoly("X^4+8*X+12"))  # A4: a 3-cycle and a square discriminant
@example(parse_unipoly("3*X^4-4*X^3+1+3/16"))  # serre-a4 at t = 1/4
def test_quartic_group_from_the_scan_matches_the_resolvent_path(f):
    fac = factor_over_Q(f)
    assume(fac.is_irreducible())
    resolvent_only = Factorization(fac.unit, fac.factors)
    gid = classify_degree_le4(fac)
    assert gid == classify_degree_le4(resolvent_only), poly_str(f)
    assert gid.mode == "definitive" and gid.evidence == galois.SieveEvidence()
    assert _sympy_label(f) == gid.label, poly_str(f)


# sympy names the groups of degree 2 and 3 by their action, the table by kind
_SYMPY_KIND = {"S2": "C2", "A3": "C3", "S3": "S3"}


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.lists(st.integers(-30, 30), min_size=2, max_size=3),
        st.sampled_from([1, 2, 3, 6, 9, -4, 12]),
        st.sampled_from([1, 2, 5, 9]),
    ).map(lambda c: UniPoly([Fraction(a, c[2]) for a in c[0]] + [c[1]]))
)
@example(parse_unipoly("X^3-3*X+1"))  # C3: a square discriminant
@example(parse_unipoly("X^3-2"))  # S3
def test_quadratic_and_cubic_groups_match_sympy(f):
    # non-monic leads and denominators put a scale into the monic model,
    # whose integer discriminant the table filter reads
    fac = factor_over_Q(f)
    assume(fac.is_irreducible())
    gid = identify_galois(fac)
    theirs = _sympy_group(f)
    assert gid.mode == "definitive", poly_str(f)
    assert (gid.label, gid.kind) == (_sympy_label(f), _SYMPY_KIND[theirs.name]), poly_str(f)
    assert gid.order == theirs.get_perm_group().order(), poly_str(f)
    # with no model handed over, the filter builds its own
    assert identify_galois(Factorization(fac.unit, fac.factors)) == gid


def test_quartic_classifier_reads_only_the_handed_over_scan(monkeypatch):
    # a fresh, unbounded residue cache that logs every read, by kernel
    reads = []

    @functools.lru_cache(maxsize=None)
    def cache(kernel, p, fp, *rest):
        return kernel(fp, p, *rest)

    def reading(kernel, p, fp, *rest):
        reads.append((kernel.__name__, p))
        return cache(kernel, p, fp, *rest)

    monkeypatch.setattr(factorq, "_residue_cache", reading)
    solved = []
    roots = galois.rational_roots
    monkeypatch.setattr(galois, "rational_roots", lambda f: solved.append(f) or roots(f))
    # a quartic of every group, two of them rescaled and shifted; the scan
    # of X^4-X-1 (S4) stops at the 4-cycle it sees at 3, and that of the C4
    # quartic at its 4-cycle, so both leave two or more rows
    quartics = [parse_unipoly(text) for text, _, _ in KNOWN_QUARTICS]
    quartics += [parse_unipoly("X^4-10*X^2+1"), parse_unipoly("X^4-2*X-2")]
    quartics += [f.compose(UniPoly([Fraction(2, 5), Fraction(1, 3)])) * 7 for f in quartics[:2]]
    labels = set()
    for f in quartics:
        fac = factor_over_Q(f)
        assert fac.is_irreducible() and fac.scanned, poly_str(f)
        reads.clear()
        solved.clear()
        gid = classify_degree_le4(fac)
        labels.add(gid.label)
        # no residue of the quartic is read: the filter takes the handed
        # over (p, cycle type) list and never resumes the walk; only the
        # resolvent cubic's roots are found mod a prime
        assert all(kernel != "_usable_ddf" for kernel, _ in reads), poly_str(f)
        if f in (parse_unipoly("X^4-X-1"), parse_unipoly("X^4+X^3+X^2+X+1")):
            assert fac.scanned[0][1] == (4,) and len(solved) == 1, poly_str(f)
    assert labels == {"4T1", "4T2", "4T3", "4T4", "4T5"}


def test_serre_a4_sweep_solves_the_resolvent_cubic_only_twice(monkeypatch):
    serre = load_fixture("serre-a4")
    ref, _ = resolve_reference(serre)
    calls, classified = [], []
    roots, classify = galois.rational_roots, galois.classify_degree_le4
    monkeypatch.setattr(galois, "rational_roots", lambda f: calls.append(f) or roots(f))
    monkeypatch.setattr(galois, "classify_degree_le4", lambda fac: classified.append(fac) or classify(fac))
    report = verify_equivalence(serre, ref, 30, keep_records=True)
    # the scan's 3-cycle and the square test settle every A4 record; only
    # the V4 fibres at t = +-10/27, which have no 3-cycle, solve the cubic
    assert len(calls) <= 2
    # each distinct fibre is classified once: P(-t, X) = P(t, X) halves the
    # 1110 records to 555 orbits {t, -t} through the sweep's record memo
    assert len(report.records) == 1110
    assert len(classified) == 555
    # the resolvent-only path, which reads no scan, gives the same report
    monkeypatch.setattr(
        galois,
        "classify_degree_le4",
        lambda fac: classify(Factorization(fac.unit, fac.factors)),
    )
    calls.clear()
    assert report_to_json(verify_equivalence(serre, ref, 30, keep_records=True)) == report_to_json(report)
    assert len(calls) == 554  # one per irreducible fibre; t = +-9/10 splits (2, 2)


def _walk(f: UniPoly, after: int = 2):
    """``factorq.usable_cycle_types`` on f's monic integer model."""
    F, m = factorq._monic_int_model(f.primitive())
    return factorq.usable_cycle_types(F, m, _discriminant_ints(F), after)


def _assert_walk_reads_the_cycle_types(f: UniPoly, k: int = 6):
    if not discriminant_uni(f.monic()):
        return  # a repeated factor: no prime is usable
    walked = list(islice(_walk(f), k))
    monic = f.monic()
    last = walked[-1][0]
    want = [(p, cycle_type_by_sympy(monic, p)) for p in range(3, last + 1, 2) if is_prime(p)]
    assert walked == [(p, ct) for p, ct in want if ct is not None], poly_str(f)
    # a walk resumed after a prime continues the same sequence
    assert list(islice(_walk(f, walked[1][0]), k - 2)) == walked[2:], poly_str(f)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=6),
    st.sampled_from([1, 2, 3, 5, 9, 15, -7]),
)
def test_walk_reads_the_cycle_types_of_the_monic_input(coeffs, lead):
    # the leading coefficients put primes into the monic model's scale m,
    # where the monic input has no usable reduction
    _assert_walk_reads_the_cycle_types(UniPoly(coeffs + [lead]))


def test_walk_skips_primes_dividing_the_scale():
    # X^4 + X + 2/81 has the model y^4 + 27y + 2 (m = 3), squarefree mod 3
    # with pattern (2, 1, 1); but 3 divides the monic input's denominator,
    # so the scan and the walk pass over it, and (3, 1) at 5 comes first
    f = parse_unipoly("81*X^4 + 81*X + 2")
    assert cycle_type_by_sympy(f.monic(), 3) is None
    F, m = factorq._monic_int_model(f.primitive())
    assert (F, m) == ([2, 27, 0, 0, 1], 3)
    assert factorq._usable_ddf(F, 3) is not None
    assert [p for p, _ in factorq._good_prime(F, m).splits] == [5]
    assert next(_walk(f)) == (5, (3, 1))
    fac = factor_over_Q(f)
    assert fac.model == (tuple(F), m) and fac.scanned == ((5, (3, 1)),)
    _assert_walk_reads_the_cycle_types(f)


def test_walk_refuses_a_repeated_factor():
    f = parse_unipoly("(X^2 - 2)^2*(X + 1)")
    with pytest.raises(DomainError):
        next(_walk(f))
    assert factor_over_Q(f).model is None and factor_over_Q(f).scanned == ()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=6),
    st.sampled_from([1, 2, 3, 6, -4, 9]),
)
@example([-63, 0, 0, 0, 0, 0], 64)  # fermat-x6 at t = 1/2: an odd type at the scan's first prime
@example([12, 8, 0, 0], 1)  # X^4+8*X+12, A4: every type even
@example([1, -3, 0], 1)  # X^3-3*X+1, C3
def test_an_odd_frobenius_reads_the_square_class_of_the_discriminant(coeffs, lead):
    # Stickelberger: squarefree mod an odd prime with r factors there, F
    # has a non-square discriminant when n - r is odd
    sympy = pytest.importorskip("sympy")
    f = UniPoly(coeffs + [lead])
    fac = factor_over_Q(f)
    assume(fac.is_irreducible())
    n = f.degree
    F, m = fac.model
    disc = _discriminant_ints(F)
    theirs = int(sympy.discriminant(sympy.Poly(list(reversed(f.primitive())), sympy.Symbol("x"))))
    # F(y) = m^n f(y/m) up to a square: both discriminants share a square class
    assert is_square_int(disc) == is_square_int(theirs), poly_str(f)
    for p, ct in fac.scanned:
        assert (n - len(ct)) % 2 == 0 or not is_square_int(theirs), (poly_str(f), p, ct)
    # the shortcut and the discriminant give one square class and one row set
    rows, evidence = galois._identify_irreducible(fac, fac.factors[0][0], 24, None)
    assert evidence.disc_square == is_square_int(disc), poly_str(f)
    fresh, computed = galois._identify_irreducible(Factorization(fac.unit, fac.factors), fac.factors[0][0], 24, None)
    assert (rows, evidence.disc_square) == (fresh, computed.disc_square), poly_str(f)
    # the walk skips only the primes dividing m: one dividing disc(F) is unusable
    walked = list(islice(factorq.usable_cycle_types(F, m, None), 6))
    assert walked == list(islice(factorq.usable_cycle_types(F, m, disc), 6)), poly_str(f)
    assert all(disc % p for p, _ in walked), poly_str(f)


def test_verify_sweeps_compute_a_discriminant_only_without_an_odd_frobenius(monkeypatch):
    calls = []
    disc = galois._discriminant_ints
    monkeypatch.setattr(galois, "_discriminant_ints", lambda F: calls.append(F) or disc(F))
    # every fermat-x6 fibre hands over an odd cycle type from its scan
    ref, _ = resolve_reference(FERMAT)
    calls.clear()
    verify_equivalence(FERMAT, ref, 7)
    assert calls == []
    # A4 has only even cycle types: one discriminant per computed record
    serre = load_fixture("serre-a4")
    ref, _ = resolve_reference(serre)
    calls.clear()
    verify_equivalence(serre, ref, 6)
    assert len(calls) == 23


def _sieve_outcome(fac, budget, within):
    try:
        return sieve_degree_5_6(fac, budget, within)
    except ReferenceMismatchError as e:
        return ("mismatch", e.prime, e.cycle_type)


# quintics and sextics whose leading coefficient puts 2 and 3 into the scale
# m of the monic model, where the monic input has no usable reduction
_QUINTICS_AND_SEXTICS = st.tuples(
    st.lists(st.integers(-12, 12), min_size=5, max_size=6),
    st.sampled_from([1, 2, 3, 6, 9, -4, 12]),
).map(lambda c: UniPoly(c[0] + [c[1]]))


@settings(max_examples=60, deadline=None)
@given(_QUINTICS_AND_SEXTICS)
@example(parse_unipoly("X^6+2"))  # D6: the sieve resumes the walk after the scan's 2 primes
@example(parse_unipoly("X^5-5*X+12"))  # D5, inside A5
@example(parse_unipoly("9*X^6+9*X+2"))  # m = 9
def test_sieve_on_the_handed_over_scan_matches_a_fresh_walk(f):
    fac = factor_over_Q(f)
    assume(fac.is_irreducible())
    fresh = Factorization(fac.unit, fac.factors)
    assert fresh == fac
    table = transitive_table(f.degree)
    # the symmetric group fits every polynomial; the cyclic one refutes most
    for within in (None, table[-1], table[0]):
        for budget in (1, 3, 24):
            got = _sieve_outcome(fac, budget, within)
            assert got == _sieve_outcome(fresh, budget, within), (poly_str(f), budget, within)


def test_sieve_adds_no_residue_cache_miss_at_the_scan_primes(monkeypatch):
    # a fresh, unbounded residue cache that logs every read
    reads = []

    @functools.lru_cache(maxsize=None)
    def cache(kernel, p, fp, *rest):
        return kernel(fp, p, *rest)

    def reading(kernel, p, fp, *rest):
        reads.append(p)
        return cache(kernel, p, fp, *rest)

    monkeypatch.setattr(factorq, "_residue_cache", reading)
    sextics = [FERMAT.P.specialize(t) for t in rationals_up_to_height(6) if t not in FERMAT.D]
    sextics += [parse_unipoly(s) for s in ("X^6+2", "X^6+X+1", "3*X^6-5*X+7", "X^6-X^3+1")]
    refs = [None, table_entry("6T3"), table_entry("6T1")]
    scanned, resumed = 0, 0
    for f in sextics:
        reads.clear()
        fac = factor_over_Q(f)
        if not fac.is_irreducible():
            continue
        # the factorization hands over every usable prime its scan read
        handed = [p for p, _ in fac.scanned]
        assert handed and max(reads) == handed[-1], poly_str(f)
        scanned += 1
        for budget in (1, 3, 24):
            for within in refs:
                reads.clear()
                got = _sieve_outcome(fac, budget, within)
                # no read at a handed-over prime: the scan's splits are not
                # read again, from the cache or otherwise
                assert not set(handed) & set(reads), (poly_str(f), budget)
                # a resumed walk reads no prime past the last one the sieve used
                last = got.evidence.primes[-1] if isinstance(got, GaloisId) else got[1]
                assert all(p <= last for p in reads), (poly_str(f), budget)
                resumed += bool(reads)
    assert scanned >= 20 and resumed >= 100
