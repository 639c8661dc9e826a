"""The Hopf-axiom checkers: pass cases, the s = 0 negative control, reports."""

import json
import random

import pytest

from bookhopf import (
    AxiomReport,
    BookAlgebra,
    Element,
    Monomial,
    check_antipode_law,
    check_associativity,
    check_bialgebra_compat,
    check_coassociativity,
    check_counit_law,
    check_relations,
    negative_control_matches,
    run_all,
)

AXIOMS = [
    "associativity",
    "coassociativity",
    "counit",
    "bialgebra",
    "antipode",
    "relations",
]


# -- pass cases ---------------------------------------------------------


@pytest.mark.parametrize("s", [1, 2])
def test_full_suite_passes_p3(s):
    report = run_all(BookAlgebra(3, s))
    assert report.passed
    assert [r.axiom for r in report.results] == AXIOMS
    assert all(r.status == "pass" for r in report.results)
    assert all(r.mode == "exhaustive" for r in report.results)
    assert not report.violations()


def test_full_suite_passes_p5_one_s():
    report = run_all(BookAlgebra(5, 3))
    assert report.passed
    assert report.result("associativity").checked == 5 ** 9  # all basis triples
    assert report.result("bialgebra").checked == 5 ** 6  # all basis pairs
    assert report.result("counit").checked == 125


def test_individual_checks_p3():
    A = BookAlgebra(3, 2)
    assert check_associativity(A).passed
    assert check_coassociativity(A).passed
    assert check_counit_law(A).passed
    assert check_bialgebra_compat(A).passed
    assert check_antipode_law(A).passed
    assert check_relations(A).passed


def test_relation_inventory():
    result = check_relations(BookAlgebra(5, 2)).result("relations")
    assert result.checked == 12  # six relations, once under Delta and once under S


# -- sampling control ---------------------------------------------------------


def test_small_domains_run_exhaustively_even_when_sampling_requested():
    report = check_associativity(BookAlgebra(3, 1), sample_size=5)
    assert report.result("associativity").mode == "exhaustive"


def test_large_domain_samples_deterministically():
    A = BookAlgebra(7, 3)
    first = check_associativity(A, seed=11, sample_size=1500)
    second = check_associativity(A, seed=11, sample_size=1500)
    r1, r2 = first.result("associativity"), second.result("associativity")
    assert r1.mode == "sampled(n=1500)" == r2.mode
    assert r1.checked == 1500 == r2.checked
    assert r1.passed and r2.passed
    third = check_associativity(A, seed=99, sample_size=1500)
    assert third.passed


def test_exhaustive_override_flag():
    report = check_counit_law(BookAlgebra(3, 1), exhaustive=True)
    assert report.result("counit").mode == "exhaustive"


@pytest.mark.parametrize("check", [check_associativity, check_bialgebra_compat])
@pytest.mark.parametrize("sample_size", [0, -5])
def test_sample_size_below_one_is_rejected(check, sample_size):
    with pytest.raises(ValueError, match="sample size"):
        check(BookAlgebra(3, 1), sample_size=sample_size)


@pytest.mark.parametrize(
    "p,s,sample_size",
    [(3, 1, 1_000_000), (3, 0, 1_000_000), (7, 3, 50)],
)
def test_a_pass_always_checked_something(p, s, sample_size):
    report = run_all(BookAlgebra(p, s, permissive=s == 0), sample_size=sample_size)
    assert any(r.passed for r in report.results)
    for r in report.results:
        assert r.checked > 0
        if r.passed:
            assert not r.violations


def test_a_check_that_examined_nothing_fails():
    from bookhopf.axioms import _Recorder

    result = _Recorder("associativity").finish("exhaustive")
    assert result.checked == 0 and not result.violations
    assert result.status == "fail"


# -- bialgebra fast path against plain Tensor2 arithmetic ----------------------


@pytest.mark.parametrize("p,s,draws", [(7, 3, 40), (7, 0, 40), (11, 3, 25), (11, 10, 25)])
def test_bialgebra_check_matches_tensor_arithmetic(p, s, draws):
    A = BookAlgebra(p, s, permissive=s == 0)
    seed = 1000 * p + s
    result = check_bialgebra_compat(A, seed=seed, sample_size=draws).result("bialgebra")
    assert result.mode == f"sampled(n={draws})"
    basis = A.basis()
    rng = random.Random(seed)  # replays the check's own draws
    pairs = [(basis[rng.randrange(len(basis))], basis[rng.randrange(len(basis))]) for _ in range(draws)]
    expected = []
    for m1, m2 in pairs:
        e1, e2 = Element.monomial(p, s, m1), Element.monomial(p, s, m2)
        if A.coproduct(e1 * e2) != A.coproduct(e1) * A.coproduct(e2):
            expected.append(f"Delta: m1={m1.render()}, m2={m2.render()}")
        if A.counit(e1 * e2) != A.counit(e1) * A.counit(e2):
            expected.append(f"epsilon: m1={m1.render()}, m2={m2.render()}")
    assert [v.at for v in result.violations] == expected
    assert result.passed == (not expected)
    if s == 0:
        assert expected  # the negative control exercises the failing branch too


# -- negative control (s = 0) ---------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_negative_control_fails_exactly_as_predicted(p):
    report = run_all(BookAlgebra(p, 0, permissive=True))
    assert not report.passed
    assert negative_control_matches(report, p)

    # the four axioms untouched by Delta(y)^p survive
    for axiom in ("associativity", "coassociativity", "counit", "antipode"):
        assert report.result(axiom).passed

    # the relation sweep fails at exactly the nilpotency of y under Delta
    relations = report.result("relations")
    assert [v.at for v in relations.violations] == [f"Delta: y^{p} = 0"]

    # every bialgebra violation happens where Delta(y^c) would need c1+c2 >= p
    bialgebra = report.result("bialgebra")
    assert not bialgebra.passed
    seen = set()
    for v in bialgebra.violations:
        assert v.at.startswith("Delta: ")
        m1, m2 = (Monomial.parse(part.split("=", 1)[1]) for part in v.at[7:].split(", "))
        assert m1.c + m2.c >= p and m1.b + m2.b < p
        seen.add((m1, m2))
    expected = sum(
        1
        for m1 in BookAlgebra(p, 0, permissive=True).basis()
        for m2 in BookAlgebra(p, 0, permissive=True).basis()
        if m1.c + m2.c >= p and m1.b + m2.b < p
    )
    assert len(seen) == expected == len(bialgebra.violations)


def test_negative_control_matcher_rejects_healthy_report():
    report = run_all(BookAlgebra(3, 1))
    assert not negative_control_matches(report, 3)


def test_violation_payload_shape():
    report = run_all(BookAlgebra(3, 0, permissive=True))
    v = report.result("relations").violations[0]
    d = v.to_dict()
    assert set(d) == {"lhs", "rhs", "at"}
    assert d["rhs"] == "0"
    assert "y" in d["lhs"]


# -- report serialization ---------------------------------------------------------


@pytest.mark.parametrize("p,s,permissive", [(3, 1, False), (3, 0, True)])
def test_report_round_trips_through_json(p, s, permissive):
    report = run_all(BookAlgebra(p, s, permissive=permissive))
    payload = json.loads(json.dumps(report.to_payload()))
    assert AxiomReport.from_payload(payload) == report


def test_report_lookup():
    report = run_all(BookAlgebra(3, 1))
    assert report.result("antipode").axiom == "antipode"
    with pytest.raises(KeyError):
        report.result("flux capacitor")
