import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hitbox
from hitbox.errors import DomainError, FixtureError, ReferenceMismatchError
from hitbox.factorq import may_have_rational_root, rational_roots
from hitbox.galois import table_entry, transitive_table
from hitbox.harness import (
    EquivalenceReport,
    HitData,
    _find_witness,
    _sweep_values,
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
from hitbox.permgroups import PermGroup
from hitbox.polys import BiPoly, parse_poly
from hitbox.rationals import height, rationals_up_to_height

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
    ref = table_entry("4T4").group
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
    assert ref3 == table_entry("6T3").group and prov3 == "fixture order 12, matched 6T3"
    # degrees [2, 2, 3] fit neither order-12 entry (6T3: [2, 2, 2, 3]; 6T4: [3, 4])
    with pytest.raises(FixtureError):
        resolve_reference(load_fixture({**raw, "S": raw["S"][1:]}))


def test_resolve_reference_reads_maximal_indices_without_closing_groups(monkeypatch):
    # every closure ends in one PermGroup, whichever module bound the name
    transitive_table(6)
    calls, init = [], PermGroup.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting_init)

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
    assert ref == table_entry("6T16").group and prov == "fixture order 720, matched 6T16"
    ref, prov = resolve_reference(sextic(6, 6, 10, 15, 15, g_label="6T15"))
    assert ref == table_entry("6T15").group and prov == "fixture label 6T15"
    assert calls == []


def test_resolve_reference_refuses_degree_7_before_sampling():
    data = load_fixture({"name": "x7", "P": "X^7 + T^7 - 1", "D": [], "S": []})
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
        verify_equivalence(FERMAT, table_entry("6T1").group, 4)
    err = info.value
    assert err.reference == "6T1" and err.cycle_type == (2, 2, 1, 1)
    assert err.t is not None and height(err.t) <= 4
    assert f"t = {err.t}" in str(err) and f"mod {err.prime}" in str(err)


def test_pooled_sweep_raises_the_first_failure_in_sweep_order():
    named = []
    for workers in (1, 2):
        with pytest.raises(ReferenceMismatchError) as info:
            verify_equivalence(FERMAT, table_entry("6T1").group, 9, workers=workers)
        named.append(info.value.t)
    assert named[0] == named[1]


def test_groups_match_runs_once_per_record(monkeypatch):
    import hitbox.galois
    import hitbox.harness as harness

    calls = []

    def counting(gid, reference):
        calls.append(gid)
        return hitbox.galois.groups_match(gid, reference)

    monkeypatch.setattr(harness, "groups_match", counting)
    for data, bound in ((SERRE, 6), (FERMAT, 7)):
        ref, _ = resolve_reference(data)
        calls.clear()
        rep = verify_equivalence(data, ref, bound, workers=1, keep_records=True)
        assert len(calls) == rep.checked
        assert all(rec.match is not None for rec in rep.records)


def test_verify_equivalence_toy_square_family():
    from hitbox.rationals import is_square_rational

    ref, _ = resolve_reference(TOY)
    rep = verify_equivalence(TOY, ref, 16, keep_records=True)
    assert rep.passed
    for rec in rep.records:
        # exceptional exactly at the nonzero rational squares
        expect = rec.t != 0 and is_square_rational(rec.t)
        assert (rec.verdict == "exceptional") == expect, rec


def test_degenerate_empty_s_flags_invalid():
    data = load_fixture({"name": "empty", "P": "3*X^4-4*X^3+1+3*T^2", "D": ["0"], "S": []})
    ref = table_entry("4T4").group
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
    rep = verify_equivalence(two, table_entry("6T3").group, 4, factor_types=True)
    assert [r.t for r in rep.violations] == [0, 0]
    assert rep.counts["factorization_violations"] == 1
    assert not rep.passed and rep.kind == EquivalenceReport.kind == "equivalence"
    without = verify_equivalence(two, table_entry("6T3").group, 4)
    assert [r.t for r in without.violations] == [0]
    assert "factorization_violations" not in without.counts


def test_enumerate_exceptional_monotone_prefix():
    small = enumerate_exceptional(SERRE, 10)
    large = enumerate_exceptional(SERRE, 27)
    small_keys = [r.t for r in small]
    assert small_keys == [r.t for r in large if height(r.t) <= 10]
    assert Fraction(10, 27) in {r.t for r in large}
    # canonical report order
    keys = [r.sort_key() for r in large]
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


def test_reports_are_deterministic_and_parallel_safe():
    ref, _ = resolve_reference(SERRE)
    # height 6 (46 values) stays serial; height 7 (70 values) reaches the pool
    for bound in (6, 7):
        a = report_to_json(verify_equivalence(SERRE, ref, bound, workers=1))
        b = report_to_json(verify_equivalence(SERRE, ref, bound, workers=1))
        assert a == b
        c = report_to_json(verify_equivalence(SERRE, ref, bound, workers=2))
        assert a == c
        payload = json.loads(a)
        assert payload["passed"] is True and payload["kind"] == "equivalence"


def test_enumerate_parallel_matches_serial():
    serial = enumerate_exceptional(FERMAT, 12, workers=1)
    pooled = enumerate_exceptional(FERMAT, 12, workers=2)
    assert [record_to_dict(r) for r in pooled] == [record_to_dict(r) for r in serial]
    assert [r.t for r in serial] == [Fraction(0)]


@pytest.mark.parametrize("data", [SERRE, FERMAT], ids=lambda d: d.name)
def test_root_sieve_never_rejects_a_fibre_with_a_rational_root(data):
    # oracle: the unsieved scan, rational_roots on every specialization
    for t in _sweep_values(data, 60):
        unsieved = None
        for i, f in enumerate(data.S):
            roots = rational_roots(f.specialize(t))
            assert may_have_rational_root(f, t) or not roots, (t, i)
            if roots and unsieved is None:
                unsieved = (i, min(roots))
        assert _find_witness(t, data.S) == unsieved, t


def test_root_sieve_leaves_only_the_exceptional_fermat_fibres():
    values = _sweep_values(FERMAT, 25)
    survivors = [sum(may_have_rational_root(f, t) for t in values) for f in FERMAT.S]
    assert len(values) == 797 and survivors == [0, 0, 1, 1]


def test_root_sieve_is_built_lazily_and_pooled_sweeps_agree():
    fresh = load_fixture("fermat-x6")
    assert all(f._sieve is None for f in fresh.S)  # set-up builds no table
    serial = enumerate_exceptional(fresh, 40, workers=1)
    assert all(f._sieve is not None for f in fresh.S)
    pooled = enumerate_exceptional(load_fixture("fermat-x6"), 40, workers=2)
    assert [record_to_dict(r) for r in pooled] == [record_to_dict(r) for r in serial]
    assert [r.t for r in serial] == [Fraction(0)]


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
@pytest.mark.parametrize("workers", [1, 2])
def test_verify_output_matches_golden_digest(data, workers):
    ref, _ = resolve_reference(data)
    report = verify_equivalence(data, ref, 8, workers=workers, keep_records=True)
    assert _sha256(report_to_json(report)) == GOLDEN_VERIFY_HEIGHT_8[data.name]


def test_enumerate_output_matches_golden_digest():
    records = enumerate_exceptional(FERMAT, 12, workers=1)
    text = json.dumps([record_to_dict(r) for r in records], sort_keys=True, separators=(",", ":"))
    assert _sha256(text) == GOLDEN_ENUMERATE_FERMAT_HEIGHT_12


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, list(jobs))


def test_pool_is_capped_at_cpu_count(monkeypatch):
    import concurrent.futures

    import hitbox.harness as harness

    ref, _ = resolve_reference(SERRE)
    serial = report_to_json(verify_equivalence(SERRE, ref, 7, workers=1, keep_records=True))
    # the pooled branch imports the pool class when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    _InlinePool.sizes = []
    capped = report_to_json(verify_equivalence(SERRE, ref, 7, workers=1000, keep_records=True))
    assert _InlinePool.sizes == [3] and capped == serial
    recs = enumerate_exceptional(SERRE, 10, workers=1000)
    assert _InlinePool.sizes == [3, 3]
    assert [r.t for r in recs] == [r.t for r in enumerate_exceptional(SERRE, 10, workers=1)]
    # a single CPU means no pool at all
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    verify_equivalence(SERRE, ref, 7, workers=1000)
    assert _InlinePool.sizes == [3, 3]


def test_serial_imports_leave_the_process_pool_unloaded():
    """Importing the package for a serial sweep or a CLI run loads no
    process pool; only a pooled sweep imports one."""
    src = Path(hitbox.__file__).resolve().parent.parent
    code = (
        "import sys, hitbox.harness, hitbox.curves, hitbox.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
    from hitbox.galois import label_for_group
    from hitbox.permgroups import closure

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
