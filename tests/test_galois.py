import functools
import random
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import maximal_classes, subgroup_classes

from hitbox import factorq, galois
from hitbox.errors import DomainError, ReferenceMismatchError
from hitbox.factorq import cycle_type_mod_p, factor_over_Q, rational_roots
from hitbox.galois import (
    classify_degree_le4,
    groups_match,
    identify_galois,
    label_for_group,
    resolvent_cubic,
    sieve_degree_5_6,
    table_entry,
    transitive_subgroups,
    transitive_table,
)
from hitbox.permgroups import closure, conjugate_in_symmetric
from hitbox.harness import load_fixture
from hitbox.polys import UniPoly, discriminant_uni, parse_poly, parse_unipoly, poly_str
from hitbox.rationals import is_prime, is_square_rational, rationals_up_to_height

X = UniPoly.gen()
FERMAT = load_fixture("fermat-x6")


def serre_quartic(t) -> UniPoly:
    return parse_poly("3*X^4 - 4*X^3 + 1 + 3*T^2").specialize(Fraction(t))


def test_transitive_table_counts():
    assert [len(transitive_table(n)) for n in range(2, 7)] == [1, 2, 5, 5, 16]
    assert sorted(e.order for e in transitive_table(4)) == [4, 4, 8, 12, 24]
    assert len(transitive_table(2)) == 1 and transitive_table(2)[0].order == 2
    with pytest.raises(DomainError):
        transitive_table(7)


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
        e.label: [name for name, H in theirs.items() if conjugate_in_symmetric(e.group, H)]
        for e in transitive_table(n)
    }
    assert all(len(m) == 1 for m in matches.values()), matches
    assert sorted(m[0] for m in matches.values()) == sorted(theirs)


def test_degree6_order12_entry_matches_auxiliary_degrees():
    entries = [e for e in transitive_table(6) if e.order == 12]
    indices = {
        e.label: sorted(c.index for c in maximal_classes(e.group)) for e in entries
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
    with pytest.raises(DomainError):
        resolvent_cubic(X**3 + 1)


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
        ct = cycle_type_mod_p(f, p)
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
    a4 = table_entry("4T4").group
    gid = classify_degree_le4(factor_over_Q(serre_quartic(1)))
    assert groups_match(gid, a4) is True
    gid0 = classify_degree_le4(factor_over_Q(serre_quartic(0)))
    assert groups_match(gid0, a4) is False
    d6 = table_entry("6T3").group
    sieved = sieve_degree_5_6(factor_over_Q(parse_unipoly("X^6+63")), 40)
    assert groups_match(sieved, d6) is None  # candidates disagree on order 12
    c2 = table_entry("2T1").group
    assert groups_match(identify_galois(factor_over_Q(parse_unipoly("X^6-1"))), c2) is True
    # all-candidates-mismatch is a definitive no
    assert groups_match(sieved, table_entry("6T1").group) is False


def test_label_for_group():
    for lbl in ("2T1", "3T2", "4T4", "5T3", "6T3", "6T8"):
        assert label_for_group(table_entry(lbl).group) == lbl


def test_identify_galois_radicalizes():
    gid = identify_galois(factor_over_Q(X**6))  # radical is X
    assert gid.order == 1
    gid = identify_galois(factor_over_Q(parse_unipoly("(X^2+1)^3")))
    assert gid.order == 2
    # serre-a4 at t = 0: (X - 1)^2 (3X^2 + 2X + 1), radical of degree 3
    gid = identify_galois(factor_over_Q(serre_quartic(0)))
    assert gid.degree == 4 and gid.factor_degrees == (1, 2) and gid.order == 2


def test_transitive_subgroups_of_references():
    assert [e.label for e in transitive_subgroups(table_entry("6T3").group)] == [
        "6T1",
        "6T2",
        "6T3",
    ]
    assert [e.label for e in transitive_subgroups(table_entry("6T1").group)] == ["6T1"]
    # oracle: the transitive classes among all subgroup classes of small groups
    for lbl in ("6T3", "6T5", "6T7", "5T3"):
        G = table_entry(lbl).group
        expect = {
            label_for_group(c.representative)
            for c in subgroup_classes(G)
            if c.representative.is_transitive()
        }
        assert {e.label for e in transitive_subgroups(G)} == expect, lbl
    # the full symmetric groups contain every table entry; each set builds fast
    for lbl in ("6T16", "5T5"):
        G = table_entry(lbl).group
        transitive_subgroups.cache_clear()
        start = time.perf_counter()
        got = transitive_subgroups(G)
        assert time.perf_counter() - start < 1.0
        assert got == tuple(transitive_table(G.degree))


def test_sieve_within_stops_at_first_singleton():
    d6 = table_entry("6T3").group
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
    d6 = table_entry("6T3").group
    # X^6+X+1 (group S6) has cycle type (3,2,1) mod 3, which D6 lacks
    f = parse_unipoly("X^6+X+1")
    assert cycle_type_mod_p(f, 3) == (3, 2, 1)
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
        sieve_degree_5_6(factor_over_Q(parse_unipoly("X^6+2")), 40, within=table_entry("6T1").group)
    err = info.value
    assert (err.prime, err.cycle_type, err.reference) == (11, (2, 2, 1, 1), "6T1")


def _sympy_label(f: UniPoly) -> str:
    """nTk label of sympy's Galois group of f, matched by conjugacy in S_n."""
    galoisgroups = pytest.importorskip("sympy.polys.numberfields.galoisgroups")
    import sympy

    from hitbox.permgroups import closure

    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    name, _ = galoisgroups.galois_group(sympy.Poly(coeffs, x, domain="QQ"), by_name=True)
    G = name.get_perm_group()
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
    gid = sieve_degree_5_6(factor_over_Q(f), 40, within=table_entry("6T3").group)
    if verdict is not None:
        assert gid.mode == "conditional" and gid.label == verdict
        assert table_entry(gid.label).kind == "D6"
    else:
        assert gid.mode == "sieved" and sympy_label in gid.candidates
        assert groups_match(gid, table_entry("6T3").group) is None


@settings(max_examples=25, deadline=None)
@given(a=st.integers(-300, 300), s=st.integers(-3, 3))
def test_sieve_within_d6_agrees_with_sympy_on_radical_sextics(a, s):
    # (X+s)^6 + a has its Galois group inside 6T3 (C6 x| C2 acting on the
    # sixth roots of -a), so the sieve may run inside 6T3
    f = (X + s) ** 6 + a
    fac = factor_over_Q(f)
    if not fac.is_irreducible():
        return
    gid = sieve_degree_5_6(fac, 40, within=table_entry("6T3").group)
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


def _assert_walk_reads_the_cycle_types(f: UniPoly, k: int = 6):
    disc = discriminant_uni(f.monic())
    if not disc:
        return  # a repeated factor: no prime is usable
    walked = list(islice(factorq.usable_cycle_types(f, disc), k))
    monic = f.monic()
    last = walked[-1][0]
    want = [(p, cycle_type_mod_p(monic, p)) for p in range(3, last + 1, 2) if is_prime(p)]
    assert walked == [(p, ct) for p, ct in want if ct is not None], poly_str(f)


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
    assert cycle_type_mod_p(f.monic(), 3) is None
    F, m = factorq._monic_int_model(f.primitive())
    assert (F, m) == ([2, 27, 0, 0, 1], 3)
    assert factorq._usable_ddf(F, 3) is not None
    assert [p for p, _ in factorq._good_prime(F, m).splits] == [5]
    assert next(factorq.usable_cycle_types(f, discriminant_uni(f.monic()))) == (5, (3, 1))
    _assert_walk_reads_the_cycle_types(f)


def test_walk_refuses_a_repeated_factor():
    f = parse_unipoly("(X^2 - 2)^2*(X + 1)")
    with pytest.raises(DomainError):
        next(factorq.usable_cycle_types(f, discriminant_uni(f.monic())))


def _sieve_outcome(fac, budget, within):
    try:
        return sieve_degree_5_6(fac, budget, within)
    except ReferenceMismatchError as e:
        return ("mismatch", e.prime, e.cycle_type)


def test_sieve_adds_no_residue_cache_miss_at_the_scan_primes(monkeypatch):
    # a fresh, unbounded residue cache that logs every read and every miss
    reads, misses = [], []

    @functools.lru_cache(maxsize=None)
    def cache(kernel, p, fp, *rest):
        misses.append(p)
        return kernel(fp, p, *rest)

    def reading(kernel, p, fp, *rest):
        reads.append(p)
        return cache(kernel, p, fp, *rest)

    monkeypatch.setattr(factorq, "_residue_cache", reading)
    sextics = [FERMAT.P.specialize(t) for t in rationals_up_to_height(6) if t not in FERMAT.D]
    sextics += [parse_unipoly(s) for s in ("X^6+2", "X^6+X+1", "3*X^6-5*X+7", "X^6-X^3+1")]
    refs = [None, table_entry("6T3").group, table_entry("6T1").group]
    scanned, revisited = 0, 0
    for f in sextics:
        reads.clear()
        fac = factor_over_Q(f)
        if not fac.is_irreducible():
            continue
        scan = set(reads)
        scanned += bool(scan)
        for budget in (1, 3, 24):
            for within in refs:
                reads.clear()
                misses.clear()
                got = _sieve_outcome(fac, budget, within)
                assert not scan & set(misses), (poly_str(f), budget)
                revisited += len(scan & set(reads))
                # the walk reads no prime past the last one the sieve used
                last = got[1] if isinstance(got, tuple) else got.evidence.primes[-1]
                assert max(reads) == last, (poly_str(f), budget)
    assert scanned >= 20 and revisited >= 100
