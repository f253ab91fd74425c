import hashlib
import importlib.util
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hitbox
from hitbox import harness, rationals
from hitbox.curves import PARAMETRIZATIONS, EllipticCurve
from hitbox.errors import DomainError, FixtureError, ReferenceMismatchError
from hitbox.factorq import factor_over_Q, rational_roots, root_mask, root_sieve
from hitbox.galois import table_entry
from hitbox.harness import (
    EquivalenceReport,
    HitData,
    _binomial_bound,
    _find_witness,
    compute_exclusion_set,
    enumerate_exceptional,
    exceptional_test,
    fixture_path,
    generic_factorization_type,
    generic_group,
    load_fixture,
    record_to_dict,
    report_to_json,
    resolve_reference,
    verify_equivalence,
)
from hitbox.localsolve import Place
from hitbox.polys import BiPoly, UniPoly, parse_poly
from hitbox.rationals import Value, coprime_pairs_up_to_height, height, rationals_up_to_height, sample_rationals

SERRE = load_fixture("serre-a4")
FERMAT = load_fixture("fermat-x6")
TOY = load_fixture(
    {
        "name": "toy-square",
        "P": "X^2 - T",
        "D": ["0"],
        "S": ["X^2 - T"],
        "G_label": "2T1",
    }
)


def test_fixture_loading_and_degrees():
    assert sorted(f.degree_x for f in SERRE.S) == [3, 4]
    assert sorted(f.degree_x for f in FERMAT.S) == [2, 2, 2, 3]
    assert SERRE.D == frozenset({Fraction(0)})
    assert FERMAT.D == frozenset({Fraction(-1), Fraction(1)})
    assert SERRE.provenance == {"P": "fixture", "S": "fixture", "D": "computed"}


def test_fixture_validation_errors():
    base = {
        "name": "bad",
        "P": "X^2 - T",
        "D": ["0"],
        "S": ["2*X^2 - T"],
    }
    with pytest.raises(FixtureError):
        load_fixture(base)  # non-monic auxiliary polynomial
    with pytest.raises(FixtureError):
        load_fixture({**base, "S": ["X - T"]})  # X-degree too small
    with pytest.raises(FixtureError):
        load_fixture({**base, "S": ["X^2 - T"], "D": ["7"]})  # D not contained
    with pytest.raises(FixtureError):
        load_fixture({**base, "S": ["X^2 - T"], "bogus": 1})
    with pytest.raises(FixtureError):
        load_fixture({"name": "x", "P": "X^2 - T", "S": []})  # missing D
    with pytest.raises(FixtureError):
        load_fixture("no-such-fixture-anywhere")
    # inseparable P is rejected
    with pytest.raises(FixtureError):
        load_fixture({"name": "insep", "P": "(X - T)^2", "D": [], "S": []})
    # D and S are lists of strings, name and notes strings, and a number in
    # D is refused before it is built if it has an exponent or 1001 digits
    ok = {**base, "S": ["X^2 - T"]}
    for bad in (
        {"D": ["1/0"]},
        {"D": [None]},
        {"D": None},
        {"D": "0"},
        {"D": [0]},
        {"D": ["1e100000"]},
        {"D": ["1e3000000"]},
        {"D": ["1" * 1001]},
        {"S": None},
        {"S": "X^2 - T"},
        {"notes": 5, "S": []},
        {"name": 5},
    ):
        with pytest.raises(FixtureError, match="^(D|S|name|notes): "):
            load_fixture({**ok, **bad})
    load_fixture(ok)


def test_a_fixture_file_that_is_no_json_object_is_refused(tmp_path):
    bad = tmp_path / "bad.json"
    for text in ("{", "[]", '"fermat-x6"'):
        bad.write_text(text)
        with pytest.raises(FixtureError):
            load_fixture(bad)
    bad.write_bytes(b"\xff")
    with pytest.raises(FixtureError):
        load_fixture(bad)
    with pytest.raises(FixtureError):
        load_fixture(tmp_path)  # a directory


def test_empty_s_accepted_with_flag():
    data = load_fixture({"name": "empty", "P": "X^2 - T", "D": ["0"], "S": []})
    assert "no maximal subgroup data" in data.notes


def test_compute_exclusion_set_examples():
    assert compute_exclusion_set(SERRE.P, SERRE.S) == {Fraction(0)}
    assert compute_exclusion_set(FERMAT.P, FERMAT.S) == {Fraction(-1), Fraction(1)}
    toy = compute_exclusion_set(parse_poly("X^2 - T"), [parse_poly("X^2 - T")])
    assert toy == {Fraction(0)}


def test_exclusion_set_order_independent():
    import itertools

    base = compute_exclusion_set(FERMAT.P, FERMAT.S)
    for perm in itertools.permutations(FERMAT.S):
        assert compute_exclusion_set(FERMAT.P, list(perm)) == base


def test_exceptional_test_examples():
    ref = table_entry("4T4")
    rec = exceptional_test(Fraction(10, 27), SERRE, ref)
    assert rec.verdict == "exceptional"
    assert rec.witness is not None and rec.witness[0] == 1  # the cubic, not the quartic
    index, root = rec.witness
    assert SERRE.S[index].eval(Fraction(10, 27), root) == 0  # exact recheck
    rec1 = exceptional_test(Fraction(1), SERRE, ref)
    assert rec1.verdict == "generic" and rec1.witness is None
    assert rec1.galois.label == "4T4"
    rec0 = exceptional_test(Fraction(0), SERRE, ref)
    assert rec0.verdict == "excluded" and rec0.galois.order == 2
    assert rec0.factorization == (1, 1, 2)


def test_fermat_t0_is_exceptional_via_the_quadratic_witness():
    rec = exceptional_test(Fraction(0), FERMAT)
    assert rec.verdict == "exceptional"
    index, root = rec.witness
    assert index == 2 and root in (Fraction(-3), Fraction(-9))
    assert FERMAT.S[index].eval(0, root) == 0
    # the cubic auxiliary polynomial also vanishes rationally at t = 0
    assert Fraction(-6) in rational_roots(FERMAT.S[3].specialize(0))
    assert rec.galois.order == 2  # splitting field of X^6 - 1


def test_witness_soundness_across_sweep():
    for rec in enumerate_exceptional(SERRE, 12):
        index, root = rec.witness
        assert SERRE.S[index].eval(rec.t, root) == 0
        assert not rec.in_d


def test_resolve_reference_paths():
    ref, prov = resolve_reference(SERRE)
    assert ref.order == 12 and "4T4" in prov
    ref2, prov2 = resolve_reference(FERMAT)
    assert ref2.order == 12 and "6T3" in prov2 and "not a proof" in prov2
    # structural mismatch: claim the wrong label for the sextic fixture
    broken = load_fixture(
        {
            "name": "broken",
            "P": FERMAT and "X^6 + T^6 - 1",
            "D": ["-1", "1"],
            "S": [
                "X^2 - 62208*((T-1)*(T+1)*(T^2-T+1)*(T^2+T+1))^3",
                "X^2 + 1728*((T-1)*(T+1)*(T^2-T+1)*(T^2+T+1))^2",
                "X^2 + 12*X + 27 + 9*T^6",
                "X^3 + 12*X^2 + 48*X + 72 - 8*T^6",
            ],
            "G_label": "6T4",
        }
    )
    with pytest.raises(FixtureError):
        resolve_reference(broken)
    # the order path: the auxiliary degrees pick 6T3 from the order-12 entries
    raw = {**json.loads(fixture_path("fermat-x6").read_text()), "G_order": 12}
    ref3, prov3 = resolve_reference(load_fixture(raw))
    assert ref3 == table_entry("6T3") and prov3 == "fixture order 12, matched 6T3"
    # degrees [2, 2, 3] fit neither order-12 entry (6T3: [2, 2, 2, 3]; 6T4: [3, 4])
    with pytest.raises(FixtureError):
        resolve_reference(load_fixture({**raw, "S": raw["S"][1:]}))


def test_resolve_reference_reads_maximal_indices_without_closing_groups():
    def sextic(*xdegs, **fields):
        S = tuple(BiPoly.var_x() ** k for k in xdegs)
        return HitData(name="sextic", P=FERMAT.P, D=FERMAT.D, S=S, **fields)

    with pytest.raises(FixtureError) as err:
        resolve_reference(sextic(2, 6, g_label="6T16"))
    assert str(err.value) == (
        "cannot pin one reference group of degree 6: table entries [] fit "
        "the auxiliary X-degrees [2, 6]"
    )
    ref, prov = resolve_reference(sextic(2, 6, 6, 10, 15, 15, g_order=720))
    assert ref == table_entry("6T16") and prov == "fixture order 720, matched 6T16"
    ref, prov = resolve_reference(sextic(6, 6, 10, 15, 15, g_label="6T15"))
    assert ref == table_entry("6T15") and prov == "fixture label 6T15"
    # the run path reads the table's columns: no permutation code is loaded
    ref, _ = resolve_reference(FERMAT)
    assert verify_equivalence(FERMAT, ref, 7).passed
    assert "hitbox.permgroups" not in sys.modules
    assert importlib.util.find_spec("hitbox.permgroups") is None


def _exclusion_set_never_runs(P, S):
    raise AssertionError("compute_exclusion_set ran")


def test_fixture_load_refuses_degree_above_6_and_too_many_auxiliaries(monkeypatch):
    monkeypatch.setattr(harness, "compute_exclusion_set", _exclusion_set_never_runs)
    with pytest.raises(FixtureError, match="^P: X-degree 7 is above 6"):
        load_fixture({"name": "x7", "P": "X^7 + T^7 - 1", "D": [], "S": []})
    nine = [f"X^2 - {k}*T" for k in range(1, 10)]
    with pytest.raises(FixtureError, match="^S: 9 auxiliary polynomials; at most 8"):
        load_fixture({"name": "s9", "P": "X^2 - T", "D": [], "S": nine})


def test_resolve_reference_refuses_degree_7_before_sampling():
    # load_fixture refuses degree 7 itself, so the data is built directly
    data = HitData(name="x7", P=parse_poly("X^7 + T^7 - 1"), D=frozenset(), S=())
    with pytest.raises(DomainError, match="no transitive table for degree 7"):
        resolve_reference(data)


def test_generic_group_examples():
    assert generic_group(SERRE.P, [1, 2, 3, Fraction(1, 2), 5]) == 12
    assert generic_group(FERMAT.P, [2, 3, Fraction(1, 2), 5, 7]) == 12
    assert generic_group(parse_poly("X^2 - T"), [2, 3, 5, 6, 7]) == 2
    with pytest.raises(DomainError):
        generic_group(SERRE.P, [1, 2, 3])


def test_generic_group_inconclusive_when_every_sample_unresolved():
    from hitbox.errors import InconclusiveError

    # every specialization splits into two cubics, which the identifier
    # reports as factored-only; no sample yields an order
    P = parse_poly("(X^3 - T)*(X^3 - 2*T)")
    with pytest.raises(InconclusiveError):
        generic_group(P, [2, 3, 5, 6, 7])


def test_verify_equivalence_serre_small():
    ref, _ = resolve_reference(SERRE)
    rep = verify_equivalence(SERRE, ref, 10)
    assert rep.passed and not rep.violations
    assert not rep.indeterminates  # quartic classification is exact
    assert rep.checked == sum(rep.counts.values())
    assert rep.counts.get("exceptional") == 2  # +-9/10 enter at height 10


def test_verify_equivalence_fermat_small():
    ref, _ = resolve_reference(FERMAT)
    rep = verify_equivalence(FERMAT, ref, 6, keep_records=True)
    assert rep.passed
    assert rep.counts.get("exceptional") == 1  # only t = 0
    # sieving inside the subgroups of 6T3 pins every irreducible sextic
    assert not rep.indeterminates
    for rec in rep.records:
        if rec.factorization == (6,):
            assert (rec.galois.mode, rec.galois.label, rec.match) == ("conditional", "6T3", True)


def test_verify_equivalence_wrong_reference_fails_fast():
    # C6 has no (2,2,1,1) element; the sieve meets one at a height-3 parameter
    with pytest.raises(ReferenceMismatchError) as info:
        verify_equivalence(FERMAT, table_entry("6T1"), 4)
    err = info.value
    assert err.reference == "6T1" and err.cycle_type == (2, 2, 1, 1)
    assert err.t is not None and height(err.t) <= 4
    assert f"t = {err.t}" in str(err) and f"mod {err.prime}" in str(err)
    # the sweep raises at its first failing value, which a higher bound
    # does not move
    with pytest.raises(ReferenceMismatchError) as info:
        verify_equivalence(FERMAT, table_entry("6T1"), 9)
    assert info.value.t == err.t


def test_groups_match_runs_once_per_orbit(monkeypatch):
    import hitbox.galois

    calls = []

    def counting(gid, reference):
        calls.append(gid)
        return hitbox.galois.groups_match(gid, reference)

    monkeypatch.setattr(harness, "groups_match", counting)
    # both fixtures are even in T: one computed record per orbit {t, -t}
    for data, bound, orbits in ((SERRE, 6, 23), (FERMAT, 7, 35)):
        ref, _ = resolve_reference(data)
        calls.clear()
        rep = verify_equivalence(data, ref, bound, keep_records=True)
        assert len(calls) == orbits == len({abs(r.t) for r in rep.records})
        assert all(rec.match is not None for rec in rep.records)


def test_sweep_identifies_each_distinct_fibre_once(monkeypatch):
    calls = []
    real = harness.factor_over_Q
    monkeypatch.setattr(harness, "factor_over_Q", lambda f: calls.append(f) or real(f))
    # both fixtures are polynomials in T^2, so the records at t and -t share
    # a fibre; X^2 - T repeats none
    for data, records, fibres in ((SERRE, 1110, 555), (FERMAT, 1109, 555), (TOY, 1110, 1110)):
        ref, _ = resolve_reference(data)
        for _ in range(2):  # the memo lives for one sweep only
            calls.clear()
            rep = verify_equivalence(data, ref, 30, keep_records=True)
            assert rep.checked == records
            assert len(calls) == len(set(calls)) == fibres


def test_both_fixtures_are_even_in_t_and_the_toy_is_not():
    assert SERRE.even_in_t and FERMAT.even_in_t
    assert not TOY.even_in_t  # X^2 - T
    assert FERMAT.d_pairs == {(-1, 1), (1, 1)}


@pytest.mark.parametrize("data, bound", [(SERRE, 8), (FERMAT, 8)])
def test_orbit_memo_gives_the_records_of_a_memo_free_sweep(data, bound):
    ref, _ = resolve_reference(data)
    values = [Fraction(a, b) for a, b in coprime_pairs_up_to_height(bound, data.D)]
    computed = [exceptional_test(t, data, ref) for t in values]
    memo: dict = {}
    assert [exceptional_test(t, data, ref, memo=memo) for t in values] == computed
    assert len(memo) == len({abs(t) for t in values}) < len(values)
    # the canonical order meets -t first; positive t first gives the same records
    memo.clear()
    assert [exceptional_test(t, data, ref, memo=memo) for t in reversed(values)] == computed[::-1]


def _factor_calls_per_sweep(monkeypatch, data, ref, bound):
    calls = []
    real = harness.factor_over_Q
    monkeypatch.setattr(harness, "factor_over_Q", lambda f: calls.append(f) or real(f))
    rep = verify_equivalence(data, ref, bound, keep_records=True)
    return len(calls), rep


def test_orbit_memo_is_off_for_an_odd_auxiliary_polynomial(monkeypatch):
    S = (SERRE.S[0], parse_poly("X^4 - T*X - 1"))  # the second member is odd in T
    data = HitData(name="odd-s", P=SERRE.P, D=compute_exclusion_set(SERRE.P, S), S=S)
    assert not data.even_in_t
    calls, rep = _factor_calls_per_sweep(monkeypatch, data, table_entry("4T4"), 8)
    ts = {r.t for r in rep.records}
    assert calls == rep.checked and any(-t in ts for t in ts if t)  # t and -t both factored


def test_orbit_memo_is_off_for_an_exclusion_set_that_is_not_symmetric(monkeypatch):
    data = HitData(name="lopsided-d", P=FERMAT.P, D=FERMAT.D | {Fraction(1, 2)}, S=FERMAT.S)
    assert not data.even_in_t
    ref, _ = resolve_reference(FERMAT)
    calls, rep = _factor_calls_per_sweep(monkeypatch, data, ref, 7)
    assert calls == rep.checked
    assert [r.t for r in rep.records if r.t in (Fraction(-1, 2), Fraction(1, 2))] == [Fraction(-1, 2)]
    assert rep.records == [exceptional_test(r.t, FERMAT, ref) for r in rep.records]


def test_generic_group_identifies_each_distinct_sample_once(monkeypatch):
    calls = []
    real = harness.factor_over_Q
    monkeypatch.setattr(harness, "factor_over_Q", lambda f: calls.append(f) or real(f))
    samples = [Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(2), Fraction(-3)]
    assert generic_group(FERMAT.P, samples) == 12
    assert calls == [FERMAT.P.specialize(t) for t in samples[:2] + samples[4:]]


@pytest.mark.parametrize("n", range(2, 7))
def test_binomial_bound_is_the_holomorph_of_the_cyclic_group(n):
    from oracles import closure, label_for_group

    # Hol(C_n) acts on Z/n by k -> uk + b: generated by the shift and the units
    shift = tuple((k + 1) % n for k in range(n))
    units = [tuple(u * k % n for k in range(n)) for u in range(2, n) if math.gcd(u, n) == 1]
    holomorph = closure(n, [shift, *units])
    bound = _binomial_bound(parse_poly(f"(T^2 + 1)*X^{n} - T^3 + 2"))
    assert bound.label == label_for_group(holomorph)
    assert bound.order == holomorph.order == n * (1 + len(units))


@pytest.mark.parametrize("P", [SERRE.P, FERMAT.P + parse_poly("X"), parse_poly("(T + 1)*X^6"), parse_poly("X^7 - T")])
def test_binomial_bound_is_none_outside_degrees_2_to_6_binomials(P):
    assert _binomial_bound(P) is None


def test_binomial_bound_leaves_the_sampled_order_unchanged():
    rng = random.Random(31)
    families = [SERRE.P, FERMAT.P]
    for _ in range(12):
        n = rng.randint(3, 6)
        a = UniPoly([rng.choice([1, 2, -3]), rng.randint(-2, 2)])
        c = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 4))])
        families.append(BiPoly([c, *[0] * (n - 1), a]))
    samples = sample_rationals(5, exclude={Fraction(0)})
    for P in families:
        assert generic_group(P, samples, within=_binomial_bound(P)) == generic_group(P, samples), P


def test_fermat_reference_sampling_stops_at_its_first_sample(monkeypatch):
    # inside Hol(C_6) = 6T3 the sieve pins t = -2 after two primes, so the
    # walk stops there; the provenance is the unbounded walk's
    calls, gids = [], []
    real_factor, real_identify = harness.factor_over_Q, harness.identify_galois
    monkeypatch.setattr(harness, "factor_over_Q", lambda f: calls.append(f) or real_factor(f))
    monkeypatch.setattr(harness, "identify_galois", lambda *a: gids.append(real_identify(*a)) or gids[-1])
    entry, prov = resolve_reference(FERMAT)
    assert entry == table_entry("6T3")
    assert prov == "order derived from specialization sampling (not a proof), matched 6T3"
    assert calls == [FERMAT.P.specialize(-2)]
    (gid,) = gids
    assert (gid.mode, gid.label, gid.evidence.primes) == ("conditional", "6T3", (5, 11))


def test_verify_equivalence_toy_square_family():
    from hitbox.rationals import is_square_rational

    ref, _ = resolve_reference(TOY)
    rep = verify_equivalence(TOY, ref, 16, keep_records=True)
    assert rep.passed
    for rec in rep.records:
        # exceptional exactly at the nonzero rational squares
        expect = rec.t != 0 and is_square_rational(rec.t)
        assert (rec.verdict == "exceptional") == expect, rec


def test_indeterminate_verdict_is_counted_and_listed():
    # X^6 + 3 (t = -3) has group S3 = 6T2, which the cycle-type sieve cannot
    # tell from 6T1 or 6T3; at t = -1 P(t, X) factors as (2, 4), which
    # gives only its factor degrees, but its group is intransitive, so it
    # is not the transitive reference and the record is not indeterminate
    P = parse_poly("X^6 - T")
    data = HitData(name="x6", P=P, D=compute_exclusion_set(P, ()), S=())
    report = verify_equivalence(data, table_entry("6T3"), 3)
    payload = json.loads(report_to_json(report))
    assert payload["counts"] == {"generic": 10, "indeterminate": 2, "violation": 2}
    assert payload["indeterminate_ts"] == ["-3", "-1/3"]
    assert [r.galois.mode for r in report.indeterminates] == ["sieved", "sieved"]
    assert report.indeterminates[0].galois.candidates == ("6T1", "6T2", "6T3")
    assert all(r.verdict == "indeterminate" and r.match is None for r in report.indeterminates)
    # S is empty, so no record has a witness, and G_t differs from G at
    # t = -1 and at t = 1 (X^6 - 1, group C2): both are violations, and
    # their verdict says so
    assert [(r.t, r.galois.mode, r.match, r.verdict) for r in report.violations] == [
        (-1, "factored", False, "violation"),
        (1, "definitive", False, "violation"),
    ]


def test_a_witness_with_the_reference_group_is_a_violation():
    # X - 1 has the root 1 at every t, while X^2 - T keeps the group 2T1
    # wherever t is not a square: each such witness contradicts its match
    P, S = parse_poly("X^2 - T"), (parse_poly("X - 1"),)
    data = HitData(name="toy", P=P, D=compute_exclusion_set(P, S), S=S)
    rec = exceptional_test(Fraction(2), data, table_entry("2T1"))
    assert rec.witness == (0, 1) and rec.match is True and rec.verdict == "violation"
    report = verify_equivalence(data, table_entry("2T1"), 2, keep_records=True)
    # t = 1 splits X^2 - 1: a witness where G_t differs, as it should
    assert report.counts == {"exceptional": 1, "violation": 5}
    assert report.violations == [r for r in report.records if r.verdict == "violation"]


def test_an_undecided_match_with_a_witness_is_indeterminate():
    # X^2 - 1 has a root at every t, so every record has a witness; at
    # t = -3 and -1/3 the sieve cannot tell 6T2 from 6T1 or 6T3, so the
    # match is undecided and the record is indeterminate, not exceptional
    P, S = parse_poly("X^6 - T"), (parse_poly("X^2 - 1"),)
    data = HitData(name="toy", P=P, D=compute_exclusion_set(P, S), S=S)
    report = verify_equivalence(data, table_entry("6T3"), 3, keep_records=True)
    assert report.counts == {"exceptional": 2, "indeterminate": 2, "violation": 10}
    assert [r.t for r in report.indeterminates] == [-3, Fraction(-1, 3)]
    assert all(r.witness is not None and r.match is None for r in report.indeterminates)
    # the listed indeterminates are exactly the records of that verdict
    assert report.indeterminates == [r for r in report.records if r.verdict == "indeterminate"]
    assert json.loads(report_to_json(report))["indeterminate_ts"] == ["-3", "-1/3"]
    rec = exceptional_test(Fraction(-3), data, table_entry("6T3"))
    assert rec.witness is not None and rec.match is None and rec.verdict == "indeterminate"


def test_degenerate_empty_s_flags_invalid():
    data = load_fixture({"name": "empty", "P": "3*X^4-4*X^3+1+3*T^2", "D": ["0"], "S": []})
    ref = table_entry("4T4")
    rep = verify_equivalence(data, ref, 4)
    assert rep.invalid_configuration
    assert not rep.passed


def test_factorization_implication_small():
    assert generic_factorization_type(FERMAT) == (6,)
    ref, _ = resolve_reference(FERMAT)
    rep = verify_equivalence(FERMAT, ref, 8, keep_records=True, factor_types=True)
    assert rep.passed and rep.counts["factorization_violations"] == 0
    # only t = 0 changes type inside this bound
    assert [r.t for r in rep.records if r.factorization != (6,)] == [0]
    ref, _ = resolve_reference(SERRE)
    rep2 = verify_equivalence(SERRE, ref, 8, factor_types=True)
    assert rep2.passed and rep2.counts["factorization_violations"] == 0


def test_factorization_implication_detects_a_missing_witness():
    # without the third and fourth auxiliary polynomials t = 0, where
    # X^6 - 1 splits, has no witness: an equivalence violation, and a
    # changed factorization type with no witness after it
    raw = json.loads(fixture_path("fermat-x6").read_text())
    two = load_fixture({**raw, "name": "fermat-two-quadratics", "S": raw["S"][:2]})
    rep = verify_equivalence(two, table_entry("6T3"), 4, factor_types=True)
    assert [r.t for r in rep.violations] == [0, 0]
    assert rep.counts["factorization_violations"] == 1
    assert not rep.passed and rep.kind == EquivalenceReport.kind == "equivalence"
    without = verify_equivalence(two, table_entry("6T3"), 4)
    assert [r.t for r in without.violations] == [0]
    assert "factorization_violations" not in without.counts


def test_enumerate_exceptional_monotone_prefix():
    small = enumerate_exceptional(SERRE, 10)
    large = enumerate_exceptional(SERRE, 27)
    small_keys = [r.t for r in small]
    assert small_keys == [r.t for r in large if height(r.t) <= 10]
    assert Fraction(10, 27) in {r.t for r in large}
    # canonical report order
    keys = [(height(r.t), r.t.numerator, r.t.denominator) for r in large]
    assert keys == sorted(keys)


def test_enumerate_fermat_finds_only_zero():
    recs = enumerate_exceptional(FERMAT, 12)
    assert [r.t for r in recs] == [Fraction(0)]


def test_enumerate_fermat_height_100_empty_beyond_zero():
    # 0 lies outside the exclusion set {-1, 1}, so it is the one record
    recs = enumerate_exceptional(FERMAT, 100)
    assert [r.t for r in recs] == [Fraction(0)]


def test_enumerate_serre_height_27_matches_parametrization_image():
    # oracle: sweep v of bounded height through the parametrization and
    # keep the first coordinates of height <= 27 (sweep-stable set)
    from hitbox.curves import eval_map, quartic_family_parametrization

    _, psi, _ = quartic_family_parametrization()
    images = set()
    for v in rationals_up_to_height(80):
        pt = eval_map(psi, v)
        if pt is not None and height(pt[0]) <= 27:
            images.add(pt[0])
    assert images == {
        Fraction(0),
        Fraction(9, 10),
        Fraction(-9, 10),
        Fraction(10, 27),
        Fraction(-10, 27),
    }
    found = {r.t for r in enumerate_exceptional(SERRE, 27)}
    assert found == images - SERRE.D


def test_reports_are_deterministic():
    ref, _ = resolve_reference(SERRE)
    for bound in (6, 7):
        a = report_to_json(verify_equivalence(SERRE, ref, bound))
        b = report_to_json(verify_equivalence(SERRE, ref, bound))
        assert a == b
        payload = json.loads(a)
        assert payload["passed"] is True and payload["kind"] == "equivalence"


def test_enumerate_is_deterministic():
    first = enumerate_exceptional(FERMAT, 12)
    again = enumerate_exceptional(FERMAT, 12)
    assert [record_to_dict(r) for r in again] == [record_to_dict(r) for r in first]
    assert [r.t for r in first] == [Fraction(0)]


@pytest.mark.parametrize("data", [SERRE, FERMAT], ids=lambda d: d.name)
def test_root_sieve_never_rejects_a_fibre_with_a_rational_root(data):
    # oracle: the unsieved scan, rational_roots on every specialization
    sieves = [root_sieve((f,)) for f in data.S]
    for a, b in coprime_pairs_up_to_height(60, data.D):
        t = Fraction(a, b)
        unsieved = None
        for i, f in enumerate(data.S):
            roots = rational_roots(f.specialize(t))
            assert root_mask(sieves[i], a, b) != 0 or not roots, (t, i)
            if roots and unsieved is None:
                unsieved = (i, min(roots))
        assert _find_witness((a, b), data) == unsieved, t


@pytest.mark.parametrize(
    "D",
    [set(), {0}, {-1, 1}, {-1, Fraction(2, 3), 5, Fraction(7, 11)}],
    ids=["none", "zero", "units", "mixed"],
)
def test_sweep_values_are_the_rationals_outside_d(D):
    data = HitData(name="d", P=FERMAT.P, D=frozenset(map(Fraction, D)), S=())
    for H in range(1, 41):
        expected = [(t.numerator, t.denominator) for t in rationals_up_to_height(H) if t not in data.D]
        assert list(coprime_pairs_up_to_height(H, data.D)) == expected


def test_root_sieve_leaves_only_the_exceptional_fermat_fibres():
    pairs = list(coprime_pairs_up_to_height(25, FERMAT.D))
    sieves = [root_sieve((f,)) for f in FERMAT.S]
    survivors = [sum(root_mask(sieve, a, b) != 0 for a, b in pairs) for sieve in sieves]
    assert len(pairs) == 797 and survivors == [0, 0, 1, 1]


def test_enumerate_builds_no_fraction_row_and_scans_each_parameter_once(monkeypatch):
    # the sweep reads coprime pairs, never the Fraction stream, builds a
    # Fraction only at its one hit (t = 0), and reaches each parameter
    # through the module global _find_witness exactly once; the hit adds
    # one call from its record, right after its own scan
    calls, built, real = [], [], harness._find_witness

    def counting(ab, data):
        calls.append(ab)
        return real(ab, data)

    def fraction(*args):
        built.append(Fraction(*args))
        return built[-1]

    def no_stream(bound):
        raise AssertionError("the Fraction stream was read")

    monkeypatch.setattr(harness, "_find_witness", counting)
    monkeypatch.setattr(harness, "Fraction", fraction)
    monkeypatch.setattr(rationals, "rationals_up_to_height", no_stream)
    monkeypatch.setattr(harness, "rationals_up_to_height", no_stream, raising=False)
    recs = enumerate_exceptional(FERMAT, 25)
    assert [r.t for r in recs] == [Fraction(0)]
    assert set(built) == {Fraction(0)} and len(calls) == 797 + 1
    pairs = list(coprime_pairs_up_to_height(25, FERMAT.D))
    i = pairs.index((0, 1))
    assert calls == pairs[: i + 1] + [(0, 1)] + pairs[i + 1 :]


def test_root_sieve_is_built_lazily():
    # set-up builds no table; each sweep builds it on first use
    fresh = load_fixture("fermat-x6")
    assert "root_sieve" not in fresh.__dict__
    recs = enumerate_exceptional(fresh, 40)
    assert "root_sieve" in fresh.__dict__
    assert [r.t for r in recs] == [Fraction(0)]
    ref, _ = resolve_reference(FERMAT)
    fresh = load_fixture("fermat-x6")
    assert "root_sieve" not in fresh.__dict__
    verify_equivalence(fresh, ref, 9)
    assert "root_sieve" in fresh.__dict__


# sha256 of the canonical JSON of sweeps whose outputs must never change;
# a refactor of the arithmetic underneath has to reproduce them byte for byte.
# fermat-x6 records its sextics as 'conditional' 6T3 with the primes used,
# since the sieve runs inside the reference's subgroups.
GOLDEN_VERIFY_HEIGHT_8 = {
    "serre-a4": "b0384ab870d0cbb5310f270aa2553c8575cfee3a4acf0252ce8e52c3bb21c12c",
    "fermat-x6": "4286de2b94b4f66d9a105bade6da04ebcccd6b07070dc2fd00d979c3698df91e",
}
GOLDEN_ENUMERATE_FERMAT_HEIGHT_12 = "ca6ac89625a28793b243307d24762e83b2212ce3efff251277952980b478fb73"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("data", [SERRE, FERMAT], ids=lambda d: d.name)
def test_verify_output_matches_golden_digest(data):
    ref, _ = resolve_reference(data)
    report = verify_equivalence(data, ref, 8, keep_records=True)
    assert _sha256(report_to_json(report)) == GOLDEN_VERIFY_HEIGHT_8[data.name]


def test_enumerate_output_matches_golden_digest():
    records = enumerate_exceptional(FERMAT, 12)
    text = json.dumps([record_to_dict(r) for r in records], sort_keys=True, separators=(",", ":"))
    assert _sha256(text) == GOLDEN_ENUMERATE_FERMAT_HEIGHT_12


def test_serial_imports_leave_the_process_pool_unloaded():
    """Importing the package for a sweep or a CLI run loads no process
    pool, and neither do sweeps that are given ``workers=2``: every sweep
    is serial."""
    src = Path(hitbox.__file__).resolve().parent.parent
    code = (
        "import sys, hitbox.harness, hitbox.curves, hitbox.cli; "
        "from hitbox.harness import enumerate_exceptional, load_fixture, resolve_reference, verify_equivalence; "
        "FERMAT = load_fixture('fermat-x6'); ref, _ = resolve_reference(FERMAT); "
        "verify_equivalence(FERMAT, ref, 7, workers=2); enumerate_exceptional(FERMAT, 12, workers=2); "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_cli_import_loads_no_dataclasses():
    """The value types are tuples and plain classes, and the bundled
    fixtures sit beside ``harness.py``: importing the CLI, in an interpreter
    with no site packages, leaves ``dataclasses`` and the ``inspect`` it
    pulls in unloaded, and ``importlib.resources`` too.  ``curves`` and
    ``localsolve`` are imported by the commands that use them, so they stay
    unloaded as well."""
    src = Path(hitbox.__file__).resolve().parent.parent
    unloaded = ("dataclasses", "inspect", "importlib.resources", "hitbox.curves", "hitbox.localsolve")
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import hitbox.cli; "
        f"print(sorted(m for m in {unloaded!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_records_and_fixture_data_survive_a_pickle_round_trip():
    # plain values: they pickle by their fields, cached tables included
    data = load_fixture("fermat-x6")
    built = data.root_sieve
    copy = pickle.loads(pickle.dumps(data))
    assert copy == data and copy.__dict__["root_sieve"] == built
    ref, _ = resolve_reference(data)
    rec = exceptional_test(Fraction(2), data, ref)
    assert rec.galois.mode == "conditional" and rec.galois.evidence.primes
    for value in (rec, rec.galois):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)


class _Lookalike(Value):
    """Another ``Value`` class, given the same field names and values."""

    def __init__(self, names, values):
        self._fields = names
        for name, value in zip(names, values):
            setattr(self, name, value)


# (make, its field names): the six classes built on ``rationals.Value``
VALUE_TYPES = {
    "HitData": (lambda: SERRE, ("name", "P", "D", "S", "provenance", "g_label", "g_order", "notes")),
    "Factorization": (lambda: factor_over_Q(parse_poly("(X^2+1)^2*(X-3)").as_unipoly_x()), ("unit", "factors")),
    "PlaneCurve": (lambda: PARAMETRIZATIONS["serre-a4"]()[0], ("f",)),
    "CurveToLineMap": (lambda: PARAMETRIZATIONS["serre-a4"]()[2], ("num", "den")),
    "EllipticCurve": (lambda: EllipticCurve.short(Fraction(-1, 2), 3), ("a4", "a6")),
    "Place": (lambda: Place(7), ("p",)),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_compare_hash_and_print_their_fields(name):
    make, names = VALUE_TYPES[name]
    v = make()
    assert type(v).__name__ == name
    values = tuple(getattr(v, f) for f in names)
    assert repr(v) == f"{name}(" + ", ".join(f"{f}={x!r}" for f, x in zip(names, values)) + ")"
    # equal only to the same class: not to a lookalike class, not to a tuple
    other = _Lookalike(names, values)
    assert v != other and other != v and v != values and values != v
    if name == "HitData":
        with pytest.raises(TypeError):
            hash(v)
    else:
        assert hash(v) == hash(values)
    copy = pickle.loads(pickle.dumps(v))
    assert copy == v and type(copy) is type(v) and repr(copy) == repr(v)


def _sympy_galois_order(f) -> int:
    galoisgroups = pytest.importorskip("sympy.polys.numberfields.galoisgroups")
    import sympy

    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    group, _ = galoisgroups.galois_group(sympy.Poly(coeffs, x, domain="QQ"))
    return group.order()


def test_galois_identification_matches_sympy_oracle():
    seen = {"definitive": 0, "sieved": 0}
    for data in (SERRE, FERMAT):
        n = data.P.degree_x
        for t in rationals_up_to_height(4):
            rec = exceptional_test(t, data)
            if rec.factorization != (n,):
                continue
            order = _sympy_galois_order(data.P.specialize(t))
            if rec.galois.mode == "definitive":
                assert order == rec.galois.order, (data.name, t)
            else:
                assert rec.galois.mode == "sieved"
                assert order in rec.galois.candidate_orders(), (data.name, t)
            seen[rec.galois.mode] += 1
    assert seen["definitive"] and seen["sieved"]


def test_conditional_verdicts_match_sympy_oracle():
    from oracles import closure, label_for_group

    galoisgroups = pytest.importorskip("sympy.polys.numberfields.galoisgroups")
    import sympy

    x = sympy.Symbol("x")
    ref, _ = resolve_reference(FERMAT)
    seen = {"conditional": 0, "sieved": 0}
    for t in rationals_up_to_height(4):
        rec = exceptional_test(t, FERMAT, ref)
        if rec.in_d or rec.factorization != (6,):
            continue
        f = FERMAT.P.specialize(t)
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
        name, _ = galoisgroups.galois_group(sympy.Poly(coeffs, x, domain="QQ"), by_name=True)
        gens = [tuple(g.array_form) for g in name.get_perm_group().generators]
        label = label_for_group(closure(6, gens))
        if rec.galois.mode == "conditional":
            assert table_entry(rec.galois.label).kind == table_entry(label).kind, t
            assert rec.galois.label == label, t
        else:
            assert rec.galois.mode == "sieved" and label in rec.galois.candidates, t
        seen[rec.galois.mode] += 1
    assert seen["conditional"] > 0


def test_record_serialization():
    rec = exceptional_test(Fraction(10, 27), SERRE)
    d = record_to_dict(rec)
    assert d["t"] == "10/27" and d["height"] == 27
    assert d["witness"]["index"] == 1
    assert d["verdict"] == "exceptional"
    assert "primes" not in d["galois"]  # quartics are not sieved
    ref, _ = resolve_reference(FERMAT)
    sieved = record_to_dict(exceptional_test(Fraction(2), FERMAT, ref))
    assert sieved["galois"]["mode"] == "conditional"
    assert sieved["galois"]["primes"] == [5, 11]
