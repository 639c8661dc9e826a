"""The Hopf-axiom checkers: pass cases, the s = 0 negative control, reports."""

import collections
import functools
import json
import random
from array import array

import pytest

from bookhopf import (
    AxiomReport,
    AxiomResult,
    BookAlgebra,
    Character,
    ConsistencyError,
    Cyclotomic,
    Element,
    Monomial,
    Tensor2,
    Tensor3,
    Violation,
    check_antipode_law,
    check_associativity,
    check_bialgebra_compat,
    check_coassociativity,
    check_counit_law,
    check_relations,
    classify,
    cyc_one,
    cyc_zero,
    negative_control_matches,
    root_power,
    run_all,
)
from bookhopf import axioms
from bookhopf.axioms import MAX_VIOLATIONS_RENDERED, _Lanes, _Proofs, _Rows
from bookhopf.hopf import StructureTable
from bookhopf.pbw import ONE, accumulate
from oracles import (
    associativity_violations,
    delta_digit_rows,
    doctor_delta,
    doctor_product,
    install_delta_rows,
    negate_unit_row,
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


def test_relations_read_the_live_structure_maps():
    A = BookAlgebra(5, 2)
    one, x = Monomial(0, 0, 0), Monomial(1, 0, 0)
    assert check_relations(A).passed
    doctor_delta(A, x, {(one, x): 1, (x, Monomial(0, 0, 2)): 1})
    result = check_relations(A).result("relations")
    assert [v.at for v in result.violations] == ["Delta: x y = q^-2 y x"]

    A = BookAlgebra(5, 2)
    assert check_relations(A).passed
    A.structure_table().antipode[A.basis_index(x)] = A.basis_index(Monomial(1, 0, 3)), 5  # -x g^3: code k + p is -q^k
    A._antipode_mono.clear()
    result = check_relations(A).result("relations")
    assert [v.at for v in result.violations] == ["S: x y = q^-2 y x"]


def test_the_presentation_has_one_owner():
    """check_relations and the character constructor both read BookAlgebra.relations."""
    A = BookAlgebra(5, 2)
    six = A.relations()
    A.relations = lambda: [*six, ("g = 1", "g", 0, "")]
    result = check_relations(A).result("relations")
    assert [v.at for v in result.violations] == ["Delta: g = 1", "S: g = 1"]
    with pytest.raises(ConsistencyError, match="^character beta_1 violates g = 1$"):
        Character(A, 1)
    assert Character(A, 0).j == 0


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
    with pytest.raises(ValueError, match="status"):
        AxiomResult.from_dict({**result.to_dict(), "status": "pass"})


def test_status_is_computed_from_checked_and_violations():
    assert "status" not in AxiomResult._fields
    assert AxiomResult("counit", [], 0.0, 1, "exhaustive").status == "pass"
    assert AxiomResult("counit", [], 0.0, 0, "exhaustive").status == "fail"
    violation = Violation("counit", "m=x", "0", "x")
    assert AxiomResult("counit", [violation], 0.0, 1, "exhaustive").status == "fail"


@pytest.mark.parametrize("axiom", ["associativity", "bialgebra"])
def test_axiom_result_from_dict_rejects_a_flipped_status(axiom):
    payload = run_all(BookAlgebra(3, 0, permissive=True)).result(axiom).to_dict()
    assert AxiomResult.from_dict(payload).to_dict() == payload
    payload["status"] = {"pass": "fail", "fail": "pass"}[payload["status"]]
    with pytest.raises(ValueError, match="status"):
        AxiomResult.from_dict(payload)


# -- associativity row compare against the per-triple reference -------------------


def all_triples(n):
    return ((i1, i2, i3) for i1 in range(n) for i2 in range(n) for i3 in range(n))


def replayed_triples(n, seed, draws):
    """The triples a sampled associativity check visits: divmod of randrange(n^3) draws."""
    rng = random.Random(seed)
    return [
        (code // (n * n), code // n % n, code % n)
        for code in (rng.randrange(n ** 3) for _ in range(draws))
    ]


@pytest.mark.parametrize("how", ["zero", "q-exponent", "monomial"])
@pytest.mark.parametrize("p", [3, 5])
def test_associativity_rows_flag_a_doctored_product_like_the_reference(p, how):
    A = BookAlgebra(p, 2)
    doctor_product(A, Monomial(0, 0, 1), Monomial(1, 0, 0), how)  # g x = q x g
    result = check_associativity(A).result("associativity")
    assert result.mode == "exhaustive" and result.checked == len(A.basis()) ** 3
    expected = associativity_violations(A, all_triples(len(A.basis())))
    assert expected and found(result) == expected


@pytest.mark.parametrize("how", ["zero", "q-exponent", "monomial"])
def test_sampled_associativity_flags_a_doctored_product_like_the_reference(how):
    A = BookAlgebra(7, 3)
    doctor_product(A, Monomial(0, 0, 1), Monomial(1, 0, 0), how)  # g x = q x g
    seed, draws = 1, 300_000  # about 600 of the 40 M triples read the doctored entry
    result = check_associativity(A, seed=seed, sample_size=draws).result("associativity")
    assert result.mode == f"sampled(n={draws})" and result.checked == draws
    expected = associativity_violations(A, replayed_triples(len(A.basis()), seed, draws))
    assert expected and found(result) == expected


@pytest.mark.parametrize("p", [3, 7, 11])
def test_associativity_visits_every_triple_or_the_randrange_draws(p):
    """On m1 m2 = basis[i1 - i2], every triple with i3 != 0 fails, so the violations spell out the triples."""
    A = BookAlgebra(p, 1)
    basis = A.basis()
    n = len(basis)
    A._products = array("i", [(i1 - i2) % n * p for i1 in range(n) for i2 in range(n)])
    seed, draws = 3, 2000
    result = check_associativity(A, seed=seed, sample_size=draws).result("associativity")
    if result.mode == "exhaustive":  # p = 3: every triple, in basis order
        assert p == 3 and result.checked == n ** 3
        triples = list(all_triples(n))
    else:  # the draws of randrange(n^3), which fix the sampled triples on every Python version
        assert result.checked == draws
        triples = replayed_triples(n, seed, draws)
    expected = associativity_violations(A, triples)
    assert [at for at, _, _ in expected] == [
        f"m1={basis[i1].render()}, m2={basis[i2].render()}, m3={basis[i3].render()}"
        for i1, i2, i3 in triples
        if i3 != 0
    ]
    assert found(result) == expected[:MAX_VIOLATIONS_RENDERED]


def counted_calls(monkeypatch, *methods):
    """Count the calls of each (class, method name); the counter is keyed by "Class.method"."""
    calls = collections.Counter()
    for cls, name in methods:
        method = getattr(cls, name)

        def counted(self, *args, method=method, key=f"{cls.__name__}.{name}", **kwargs):
            calls[key] += 1
            return method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


def test_associativity_renders_nothing_past_the_cap(monkeypatch):
    """Past MAX_VIOLATIONS_RENDERED failing triples no side or site is rendered; the first ones are unchanged."""
    A = BookAlgebra(3, 1)
    basis = A.basis()
    n = len(basis)
    A._products = array("i", [(i1 - i2) % n * 3 for i1 in range(n) for i2 in range(n)])  # m3 != 1 fails
    expected = associativity_violations(A, all_triples(n))
    assert len(expected) == n * n * (n - 1) > MAX_VIOLATIONS_RENDERED
    calls = counted_calls(monkeypatch, (Element, "render"), (Monomial, "render"))
    result = check_associativity(A).result("associativity")
    assert result.checked == n ** 3 and result.status == "fail"
    assert found(result) == expected[:MAX_VIOLATIONS_RENDERED]
    # two sides q^e basis[t], each one Element and one Monomial render, and three sites per violation
    assert calls == {"Element.render": 2 * MAX_VIOLATIONS_RENDERED, "Monomial.render": 5 * MAX_VIOLATIONS_RENDERED}


# -- associativity proved on the generators (premises U, F and R) ------------------


def associativity_outcome(A, **kwargs):
    result = check_associativity(A, **kwargs).result("associativity")
    return found(result), result.checked, result.mode, result.status


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_associativity_proof_holds_on_the_live_tables(p):
    for s in sorted({0, 1, p - 1}):
        assert _Rows(BookAlgebra(p, s, permissive=True)).proved()


def doctored_tables(p, count, seed):
    """Copies of the product table of H(p, 2) with 1-3 entries changed to zero, another q-exponent or another monomial.

    Half of the entries are drawn from the rows of 1, g, y and x, which the
    premises read; an entry that was 0 gets a random code.
    """
    rng = random.Random(seed)
    healthy = BookAlgebra(p, 2).product_table()
    n = p ** 3
    for _ in range(count):
        table = array("i", healthy)
        for _ in range(rng.randint(1, 3)):
            i1 = rng.choice([0, 1, p, p * p]) if rng.random() < 0.5 else rng.randrange(n)
            at, how = i1 * n + rng.randrange(n), rng.choice(["zero", "q-exponent", "monomial"])
            code = table[at]
            if code < 0:
                table[at] = rng.randrange(n * p)
            elif how == "zero":
                table[at] = -1
            elif how == "q-exponent":
                table[at] = code - code % p + (code + rng.randrange(1, p)) % p
            else:
                table[at] = (code + rng.randrange(1, n) * p) % (n * p)
        yield table


@pytest.mark.parametrize("p", [3, 5])
def test_associativity_proof_passes_no_doctored_table_with_a_violation(p):
    A = BookAlgebra(p, 2)
    for table in doctored_tables(p, 180, seed=p):
        A._products = table
        if _Rows(A).proved():
            assert not associativity_violations(A, all_triples(p ** 3))


def premise_breaking_table(p, premise):
    """A non-associative product table on which every premise of the proof holds but ``premise``.

    - "U": basis[i] basis[j] = basis[i + j + 1], or 0 past the last index,
      except 1 basis[n - 3] = q basis[n - 2], which the generators kill.
      1 is no unit, and the F route to basis[2] is g 1.
    - "F": Z_n with basis[0], g, y and x at 0, p, 2p and 3p, twisted by
      q^(a^2 b) for a and b the classes mod p.  R holds, as every generator
      lies in pZ_n, but the least index of a class a != 0 is reached only
      from greater indices of its class: F holds with the order j < i left out.
    - "R on g", "R on x", "R on y": H(p, 2) with every row of a monomial of
      exponent 2 in that letter times q; only that letter's R sees it.
    """
    n = p ** 3
    if premise == "U":
        table = [(i + j + 1) * p if i + j + 1 < n else -1 for i in range(n) for j in range(n)]
        table[n - 3] += 1
    elif premise == "F":
        special = {0: 0, 1: p, p: 2 * p, p * p: 3 * p}
        element = dict(special)
        element.update(zip((i for i in range(n) if i not in special), (v for v in range(n) if v not in special.values())))
        index = {v: i for i, v in element.items()}
        table = [
            index[(element[i] + element[j]) % n] * p + (element[i] % p) ** 2 * (element[j] % p) % p
            for i in range(n) for j in range(n)
        ]
    else:
        A = BookAlgebra(p, 2)
        k = "xyg".index(premise[-1])  # the letter's place in Monomial(b, c, a)
        table = [
            c - c % p + (c + 1) % p if c >= 0 and A.basis()[at // n][k] == 2 else c
            for at, c in enumerate(A.product_table())
        ]
    return array("i", table)


@pytest.mark.parametrize("premise", ["U", "F", "R on g", "R on x", "R on y"])
def test_associativity_proof_rejects_a_table_that_breaks_one_premise(premise):
    A = BookAlgebra(3, 2)
    A._products = premise_breaking_table(3, premise)
    expected = associativity_violations(A, all_triples(27))
    assert expected and not _Rows(A).proved()
    assert found(check_associativity(A).result("associativity")) == expected


@pytest.mark.parametrize("how", [None, "zero", "q-exponent", "monomial"])
@pytest.mark.parametrize("p,kwargs,mode", [(5, {}, "exhaustive"), (7, {"seed": 1, "sample_size": 300_000}, "sampled(n=300000)")])
def test_associativity_proof_changes_no_result(monkeypatch, p, kwargs, mode, how):
    """Proved or not, the result is the route's own: the same violations, checked, mode and status."""
    A = BookAlgebra(p, 2)
    if how:
        doctor_product(A, Monomial(0, 0, 1), Monomial(1, 0, 0), how)  # g x = q x g
    outcome = associativity_outcome(A, **kwargs)
    assert outcome[2] == mode and bool(outcome[0]) == bool(how)
    monkeypatch.setattr(_Rows, "proved", lambda self: False)
    assert associativity_outcome(A, **kwargs) == outcome


def test_a_proved_default_run_makes_no_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a proved run draws no triple")

    monkeypatch.setattr(axioms.random, "Random", no_draws)
    assert associativity_outcome(BookAlgebra(7, 3)) == ([], 1_000_000, "sampled(n=1000000)", "pass")


def test_a_run_of_fewer_than_a_fifth_of_n_squared_draws_tries_no_proof(monkeypatch):
    def no_rows(*args):
        raise AssertionError("below n^2 / 5 draws the proof costs more than the draws")

    monkeypatch.setattr(axioms, "_Rows", no_rows)
    draws = (7 ** 6 - 1) // 5
    assert associativity_outcome(BookAlgebra(7, 3), sample_size=draws) == ([], draws, f"sampled(n={draws})", "pass")


def test_a_proved_default_run_at_p11_makes_no_draw(monkeypatch):
    """The default 10^6 draws are over n^2 / 5 at p = 11: associativity and the bialgebra law are both proved."""
    def no_draws(*args):
        raise AssertionError("a proved run draws nothing")

    monkeypatch.setattr(axioms.random, "Random", no_draws)
    report = run_all(BookAlgebra(11, 3))
    assert report.passed
    for axiom in ("associativity", "bialgebra"):
        result = report.result(axiom)
        assert (result.mode, result.checked) == ("sampled(n=1000000)", 1_000_000)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_generation_writes_each_other_monomial_as_a_generator_times_an_earlier_one(p):
    A = BookAlgebra(p, 2)
    basis = A.basis()
    assert [basis[t] for t in A.generators] == [Monomial(0, 0, 1), Monomial(1, 0, 0), Monomial(0, 1, 0)]
    steps = A.generation()
    assert list(steps) == [i for i in range(1, p ** 3) if i not in A.generators]
    for i, (t, j, e) in steps.items():
        assert t in A.generators and j < i
        assert A.monomial_element(basis[t]) * A.monomial_element(basis[j]) * root_power(p, e) == A.monomial_element(basis[i])


@pytest.mark.parametrize("premise", ["U", "F"])
def test_generation_is_none_on_a_table_that_breaks_its_premise(premise):
    A = BookAlgebra(3, 2)
    A._products = premise_breaking_table(3, premise)
    assert A.generation() is None


# -- bialgebra lane kernel against plain Tensor2 arithmetic ----------------------


def tensor_violations(A, pairs):
    """The bialgebra violations that plain Element/Tensor2 arithmetic finds, in order."""
    p, s = A.p, A.s
    out = []
    for m1, m2 in pairs:
        e1, e2 = Element.monomial(p, s, m1), Element.monomial(p, s, m2)
        lhs, rhs = A.coproduct(e1 * e2), A.coproduct(e1) * A.coproduct(e2)
        if lhs != rhs:
            out.append((f"Delta: m1={m1.render()}, m2={m2.render()}", lhs.render(), rhs.render()))
        lhs, rhs = A.counit(e1 * e2), A.counit(e1) * A.counit(e2)
        if lhs != rhs:
            out.append((f"epsilon: m1={m1.render()}, m2={m2.render()}", lhs.render(), rhs.render()))
    return out


def found(result):
    return [(v.at, v.lhs, v.rhs) for v in result.violations]


def replayed_pairs(n, seed, draws):
    """The pairs (i1, i2) a sampled bialgebra check draws, in draw order."""
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(draws)]


@pytest.mark.parametrize(
    "p,s,draws", [(7, 3, 40), (7, 0, 40), (11, 3, 25), (11, 10, 25), (13, 5, 4)]
)
def test_bialgebra_check_matches_tensor_arithmetic(p, s, draws):
    A = BookAlgebra(p, s, permissive=s == 0)
    seed = 1000 * p + s
    result = check_bialgebra_compat(A, seed=seed, sample_size=draws).result("bialgebra")
    assert result.mode == f"sampled(n={draws})"
    basis = A.basis()
    pairs = [(basis[i1], basis[i2]) for i1, i2 in sorted(set(replayed_pairs(len(basis), seed, draws)))]
    expected = tensor_violations(A, pairs)  # the distinct drawn pairs, in basis order
    assert found(result) == expected
    assert result.passed == (not expected)
    if s == 0:
        assert expected  # the negative control exercises the failing branch too


def test_bialgebra_renders_a_zero_product_and_its_lanes_as_tensor2_does():
    """At s = 0 every failing pair has m1 m2 = 0: Delta(m1 m2) renders "0", Delta(m1) Delta(m2) as Tensor2 does."""
    A = BookAlgebra(3, 0, permissive=True)
    basis = A.basis()
    result = check_bialgebra_compat(A).result("bialgebra")
    expected = tensor_violations(A, [(m1, m2) for m1 in basis for m2 in basis])
    assert expected and found(result) == expected
    assert all(lhs == "0" != rhs for _, lhs, rhs in expected)


def test_bialgebra_renders_nothing_past_the_cap(monkeypatch):
    """H(7, 0) fails at 28 812 pairs, the cap falls inside a lane group, and no side is read or rendered past it."""
    A = BookAlgebra(7, 0, permissive=True)
    n = len(A.basis())
    calls = counted_calls(monkeypatch, (StructureTable, "render"), (_Lanes, "lane"))
    result = check_bialgebra_compat(A).result("bialgebra")
    assert result.checked == n * n and result.status == "fail"
    assert len(result.violations) == MAX_VIOLATIONS_RENDERED
    # every Delta(m1 m2) is 0 and needs no render; each Delta(m1) Delta(m2) is one lane read and one render
    assert calls == {"StructureTable.render": MAX_VIOLATIONS_RENDERED, "_Lanes.lane": MAX_VIOLATIONS_RENDERED}
    by_name = {m.render(): m for m in A.basis()}
    for v in (result.violations[0], result.violations[-1]):  # the first and the last rendered, as Tensor2 renders them
        m1, m2 = (by_name[part.split("=", 1)[1]] for part in v.at.removeprefix("Delta: ").split(", "))
        assert tensor_violations(A, [(m1, m2)]) == [(v.at, v.lhs, v.rhs)]


@pytest.fixture
def group_runs(monkeypatch):
    """The calls of _Lanes.group, one per lane group run, as (left, bc2, e12, expected)."""
    calls = []
    group = _Lanes.group

    def counted(self, *args):
        calls.append(args)
        return group(self, *args)

    monkeypatch.setattr(_Lanes, "group", counted)
    return calls


def test_exhaustive_bialgebra_runs_every_lane_group_once(group_runs):
    """3 p^2 runs of g, x and y on the live tables, which prove the law; where a premise fails, one run per g-orbit
    of m1 and x^b2 y^c2 while P1-P3 hold, and every (m1, x^b2 y^c2) once on a doctored row.  The runs of a
    failed premise are read back by the sweep, not run again."""
    result = check_bialgebra_compat(BookAlgebra(7, 3)).result("bialgebra")
    assert result.mode == "exhaustive" and result.checked == 343 ** 2 and result.passed
    assert len(group_runs) == 3 * 7 ** 2 == 147
    group_runs.clear()
    A = BookAlgebra(7, 3)
    healthy = A.counit_monomial
    A.counit_monomial = lambda m: A.q if m == Monomial(0, 0, 1) else healthy(m)  # fails eps(g g) = eps(g) eps(g)
    assert _Lanes(A).orbit() == 7 and not check_bialgebra_compat(A).passed
    assert len(group_runs) == 7 ** 4 == 2_401
    group_runs.clear()
    A = BookAlgebra(7, 3)
    doctor(A, "digit")  # breaks P1, so every m1 is its own orbit and no group is run twice to render
    assert not check_bialgebra_compat(A).passed
    assert len(group_runs) == 343 * 7 ** 2 == 16_807


def test_sampled_bialgebra_runs_each_drawn_lane_group_once(group_runs):
    """A group runs once per g-orbit of m1 its draws hit, also where it renders Delta violations at other m1 of
    the orbit, which are read off that first run; pairs drawn twice cost nothing more, and violations come in
    basis order.  The failed proof adds its runs of x, and of y up to x^0 y^(p-1), that the sweep does not read
    back."""
    p, seed, draws = 7, 0, 2500
    A = BookAlgebra(p, 0, permissive=True)
    basis = A.basis()
    result = check_bialgebra_compat(A, seed=seed, sample_size=draws).result("bialgebra")
    assert result.mode == f"sampled(n={draws})" and result.checked == draws
    drawn = sorted(set(replayed_pairs(len(basis), seed, draws)))
    expected = tensor_violations(A, [(basis[i1], basis[i2]) for i1, i2 in drawn])
    assert expected and found(result) == expected
    first = {}  # (g-orbit of m1, x^b2 y^c2) -> the first m1 that drew a lane there
    for i1, i2 in drawn:
        first.setdefault((i1 // p, i2 // p), i1)
    failing = {at for at, _, _ in expected}
    renders = {
        (i1, i2 // p) for i1, i2 in drawn
        if first[i1 // p, i2 // p] != i1 and f"Delta: m1={basis[i1].render()}, m2={basis[i2].render()}" in failing
    }
    premise = [(p * p, bc2) for bc2 in range(p * p)] + [(p, bc2) for bc2 in range(p)]  # x, then y to its bad lanes
    unread = [(i1, bc2) for i1, bc2 in premise if first.get((i1 // p, bc2)) != i1]
    assert renders and len(first) < len({(i1, i2 // p) for i1, i2 in drawn})
    assert len(group_runs) == len(first) + len(unread)


def own_run_texts(A, result):
    """(rendered, own) for the Delta violations of ``result``: the rhs as rendered, and Delta(m1) Delta(m2)
    rendered from lane a2 of m1's own ``_Lanes.run``, as the sweep did before it carried one run per g-orbit."""
    p, lanes = A.p, _Lanes(A)
    index = {m.render(): i for i, m in enumerate(A.basis())}
    runs, rendered, own = {}, [], []
    for v in result.violations:
        if v.at.startswith("Delta: "):
            i1, i2 = (index[part.split("=", 1)[1]] for part in v.at.removeprefix("Delta: ").split(", "))
            (bc2, a2), key = divmod(i2, p), (i1, i2 // p)
            if key not in runs:
                runs[key] = lanes.run(i1, bc2, lanes.left(i1))
            acc, bad, e12 = runs[key]
            assert bad >> a2 & 1
            rendered.append(v.rhs)
            own.append(lanes.table.render(lanes.lane(acc, a2), e12))
    return rendered, own


@pytest.mark.parametrize("p,options", [
    (3, {}), (5, {}), (7, {}),
    (7, {"seed": 0, "sample_size": 2500}), (7, {"seed": 3, "sample_size": 5000}),  # p <= 5 runs exhaustively
], ids=["p3", "p5", "p7", "p7-seed0-2500", "p7-seed3-5000"])
def test_each_delta_violation_renders_as_m1s_own_group_run(p, options):
    """At s = 0 every Delta(m1) Delta(m2) read off the first run of its g-orbit equals the text of m1's own run."""
    A = BookAlgebra(p, 0, permissive=True)
    result = check_bialgebra_compat(A, **options).result("bialgebra")
    rendered, own = own_run_texts(A, result)
    assert rendered and rendered == own
    assert any(v.at.startswith("Delta: m1=y g") for v in result.violations)  # an m1 that is not first in its orbit


def test_each_delta_violation_renders_as_m1s_own_group_run_on_doctored_tables():
    """The same on every doctored table that keeps P1-P3 and fails the check."""
    compared = []
    for how in DOCTORINGS:
        A = doctored_algebra(how)
        result = check_bialgebra_compat(A).result("bialgebra")
        if _Lanes(A).orbit() == A.p and not result.passed:
            rendered, own = own_run_texts(A, result)
            assert rendered == own, how
            compared += [how] * bool(rendered)
    assert compared == ["orbit digit", "R on x", "R on y"]


def doctor(A, how):
    """Replace the Delta row of x y g^2 (lane 2 of its group) by a wrong one."""
    p, s = A.p, A.s
    mono = Monomial(1, 1, 2)
    terms = dict(A.coproduct_monomial(mono).terms)
    (u, v), coeff = sorted(terms.items())[1]
    if how == "digit":  # one coefficient digit off by one
        terms[(u, v)] = coeff + A.q
    elif how == "g-exponent":  # one leg of one term moved to another power of g
        del terms[(u, v)]
        terms[(u, Monomial(v.b, v.c, (v.a + 1) % p))] = coeff
    else:  # one term too many
        assert (ONE, ONE) not in terms
        terms[(ONE, ONE)] = A.q
    doctor_delta(A, mono, terms)
    return mono


@functools.lru_cache(maxsize=None)
def healthy_tensor_violations(p, s):
    """tensor_violations of the undoctored H(p, s), per basis pair, computed once."""
    A = BookAlgebra(p, s)
    return {(m1, m2): tensor_violations(A, [(m1, m2)]) for m1 in A.basis() for m2 in A.basis()}


def doctored_tensor_violations(A, doctored):
    """tensor_violations over all basis pairs of A, whose Delta rows of the monomials ``doctored`` differ from
    H(p, s)'s: Delta(m1 m2) and Delta(m1) Delta(m2) read only the Delta rows of m1, m2 and m1 m2."""
    p, s = A.p, A.s
    healthy = healthy_tensor_violations(p, s)

    def reference(m1, m2):
        if doctored & {m1, m2, *(Element.monomial(p, s, m1) * Element.monomial(p, s, m2)).terms}:
            return tensor_violations(A, [(m1, m2)])
        return healthy[m1, m2]

    return [v for m1 in A.basis() for m2 in A.basis() for v in reference(m1, m2)]


@pytest.mark.parametrize("how", ["digit", "g-exponent", "extra term"])
@pytest.mark.parametrize("p", [3, 5])
def test_bialgebra_lane_kernel_flags_a_doctored_row(p, how):
    A = BookAlgebra(p, 2)
    mono = doctor(A, how)
    result = check_bialgebra_compat(A).result("bialgebra")
    assert result.mode == "exhaustive"
    expected = doctored_tensor_violations(A, {mono})
    assert expected and found(result) == expected
    assert any(f"m2={mono.render()}" in at for at, _, _ in expected)


def bialgebra_outcome(A, **options):
    result = check_bialgebra_compat(A, **options).result("bialgebra")
    return found(result), result.checked, result.mode


def doctor_orbit(A, how):
    """Doctor every row Delta(x y g^a) alike: P1 holds, and so do P2 and P3 unless ``how`` is "extra term"."""
    p = A.p
    rows = delta_digit_rows(A)
    for a in range(p):
        row = rows[A.basis_index(Monomial(1, 1, a))]
        if how == "digit":  # the same digit of the same term off by one
            u, v, digits = row[1]
            row[1] = u, v, (digits[0] + 1, *digits[1:])
        else:  # q g^a (x) g^a, of weight 0, in a row of weight 1 - s
            row.append((a, a, (0, 1) + (0,) * (p - 2)))
    install_delta_rows(A, rows)


def forced_full_sweep(monkeypatch):
    monkeypatch.setattr(_Lanes, "orbit", lambda self: 1)


@pytest.mark.parametrize("p,s", [(3, 1), (3, 0), (5, 2), (5, 0), (7, 3), (7, 0)])
def test_one_run_per_g_orbit_equals_the_full_sweep_on_the_live_tables(monkeypatch, p, s):
    A = BookAlgebra(p, s, permissive=True)
    assert _Lanes(A).orbit() == p
    reduced = bialgebra_outcome(A)
    forced_full_sweep(monkeypatch)
    assert bialgebra_outcome(A) == reduced
    assert bool(reduced[0]) == (s == 0)


@pytest.mark.parametrize("how", ["digit", "g-exponent", "extra term", "orbit digit", "orbit extra term", "product"])
def test_one_run_per_g_orbit_equals_the_full_sweep_on_doctored_tables(monkeypatch, how):
    """A premise that fails falls back to the full sweep; a consistently doctored orbit keeps the premises."""
    A = BookAlgebra(5, 2)
    if how == "product":
        doctor_product(A, Monomial(1, 0, 0), Monomial(0, 1, 3), "q-exponent")  # breaks P3
    elif how.startswith("orbit "):
        doctor_orbit(A, how[6:])
    else:
        doctor(A, how)  # breaks P1
    assert _Lanes(A).orbit() == (5 if how == "orbit digit" else 1)
    reduced = bialgebra_outcome(A)
    assert reduced[0]
    if how == "orbit digit":
        assert reduced[0] == doctored_tensor_violations(A, {Monomial(1, 1, a) for a in range(5)})
    forced_full_sweep(monkeypatch)
    assert bialgebra_outcome(A) == reduced


def test_one_run_per_g_orbit_equals_the_full_sweep_when_sampled(monkeypatch):
    A = BookAlgebra(11, 0, permissive=True)
    reduced = bialgebra_outcome(A, seed=1, sample_size=300)
    assert len(reduced[0]) == 72 and reduced[1:] == (300, "sampled(n=300)")
    forced_full_sweep(monkeypatch)
    assert bialgebra_outcome(A, seed=1, sample_size=300) == reduced


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_g_orbit_premises_hold_on_the_live_tables(p):
    for s in sorted({0, 1, p - 1}):
        assert _Lanes(BookAlgebra(p, s, permissive=True)).orbit() == p


# -- the bialgebra law proved on the generators ---------------------------------------


def bialgebra_route(A, **options):
    """The bialgebra outcome and whether the proof took it: a proved run calls no _Lanes.orbit."""
    with pytest.MonkeyPatch.context() as patch:
        calls = counted_calls(patch, (_Lanes, "orbit"))
        return bialgebra_outcome(A, **options), not calls


def swept(A, **options):
    """The bialgebra outcome with the proof refused at its first premise: the sweep alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Rows, "proved", lambda self: False)
        return bialgebra_outcome(A, **options)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_proved_bialgebra_run_equals_the_sweep(p):
    """For every s the proof holds exactly when s != 0, and changes no violation, checked or mode."""
    for s in range(p):
        A = BookAlgebra(p, s, permissive=True)
        for options in [{}] + ([{"seed": 3, "sample_size": 1000}] if p == 7 else []):
            outcome, proved = bialgebra_route(A, **options)
            assert proved == (s != 0) and bool(outcome[0]) == (s == 0)
            assert swept(A, **options) == outcome


def rotate_unit_row(A, mono):
    """Multiply the S row of ``mono`` by q."""
    table = A.structure_table()
    i = A.basis_index(mono)
    t, code = table.antipode[i]
    table.antipode[i] = t, code - code % A.p + (code + 1) % A.p
    A._antipode_mono.clear()


def twist_right_leg(A):
    """Delta' = (id (x) phi) Delta with phi(x^b y^c g^a) = q^b x^b y^c g^a, a Hopf automorphism of H.

    Delta' is an algebra map, so *multiplicative* holds, but at x every law fails:
    (Delta' (x) id) Delta'(x) has q 1 (x) 1 (x) x where (id (x) Delta') Delta'(x) has q^2, (eps (x) id) Delta'(x)
    is q x, and S(x_1) x_2 is (q - 1) x."""
    basis, p = A.basis(), A.p
    install_delta_rows(A, [
        [(u, v, digits[-basis[v].b % p:] + digits[:-basis[v].b % p]) for u, v, digits in row]
        for row in delta_digit_rows(A)
    ])


def doctored_algebra(how):
    """H(3, 2) doctored in its Delta, S, product table or eps: the doctorings the other tests build, an S row
    times q off the generators, and the twisted Delta of ``twist_right_leg``."""
    A = BookAlgebra(3, 2)
    x, yg2 = Monomial(1, 0, 0), Monomial(0, 1, 2)
    if how in ("digit", "g-exponent", "extra term"):
        doctor(A, how)
    elif how.startswith("orbit "):
        doctor_orbit(A, how[6:])
    elif how in ("zero", "q-exponent", "monomial"):
        doctor_product(A, x, yg2, how)
    elif how.startswith("S q "):
        rotate_unit_row(A, Monomial.parse(how[4:]))
    elif how.startswith("S "):
        negate_unit_row(A, "antipode", Monomial.parse(how[2:]))
    elif how == "eps(g) = q":
        healthy = A.counit_monomial
        A.counit_monomial = lambda m: A.q if m == Monomial(0, 0, 1) else healthy(m)
    elif how == "twist":
        twist_right_leg(A)
    else:  # a product table that breaks one premise of the associativity proof
        A._products = premise_breaking_table(3, how)
    return A


DOCTORINGS = [
    "digit", "g-exponent", "extra term", "orbit digit", "orbit extra term", "zero", "q-exponent", "monomial",
    "S g", "S x y g^2", "S q x^2 y g", "eps(g) = q", "U", "F", "R on g", "R on x", "R on y", "twist",
]


@pytest.mark.parametrize("how", DOCTORINGS)
def test_a_doctored_table_falls_back_or_is_healthy(how):
    """Each doctored table fails a premise and gets the sweep's own result, or is proved and healthy by Tensor2."""
    A = doctored_algebra(how)
    outcome, proved = bialgebra_route(A)
    assert outcome == swept(A)
    if proved:
        basis = A.basis()
        assert not outcome[0] and not tensor_violations(A, [(m1, m2) for m1 in basis for m2 in basis])
    assert proved == (how.startswith("S ") or how == "twist")  # S is not read, and the twisted Delta is an algebra map


@pytest.mark.parametrize("case", ["Delta(1) = 0", "eps = 0"])
def test_each_base_case_is_a_premise(case):
    """A Delta of zero values, or eps = 0, is multiplicative, but the law at 1 needs Delta(1) = 1 (x) 1 and eps(1) = 1:
    the proof refuses them, and the sweep passes."""
    A = BookAlgebra(3, 2)
    if case == "eps = 0":
        A.counit_monomial = lambda m: cyc_zero(3)
    else:  # 1 + q + q^2 = 0 in every row; the lift makes the table's width 1
        install_delta_rows(A, [[(0, 0, (1, 1, 1))] for _ in A.basis()])
    outcome, proved = bialgebra_route(A)
    assert not proved and outcome == ([], 27 ** 2, "exhaustive")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_at_s0_the_generator_premise_fails_exactly_on_y_against_x_b_y_p_minus_1(p):
    A = BookAlgebra(p, 0, permissive=True)
    basis, lanes = A.basis(), _Lanes(A)
    failing = []
    for t in A.generators:
        left = lanes.left(t)
        for bc2 in range(p * p):
            bad = lanes.run(t, bc2, left)[1]
            failing += [(basis[t], basis[bc2 * p + a2]) for a2 in range(p) if bad >> a2 & 1]
    y = Monomial(0, 1, 0)
    assert sorted(failing) == [(y, Monomial(b, p - 1, a)) for b in range(p) for a in range(p)]
    if p < 7:
        assert negative_control_matches(run_all(A), p)


def closed_form_coefficients(p, s):
    """{(b, c, k, l): [b k]_q [c l]_(q^-s^2) q^(-s k (c-l))}, the Delta coefficients, by Cyclotomic arithmetic."""

    def pascal(base_exp):
        rows = [[cyc_one(p)]]
        for n in range(1, p):
            prev = [cyc_zero(p), *rows[-1], cyc_zero(p)]
            rows.append([prev[k] + root_power(p, base_exp * k) * prev[k + 1] for k in range(n + 1)])
        return rows

    xs, ys = pascal(1), pascal(-s * s)
    return {
        (b, c, k, l): bx * by * root_power(p, -s * k * (c - l))
        for b in range(p) for c in range(p)
        for k, bx in enumerate(xs[b]) for l, by in enumerate(ys[c])
    }


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_lane_digit_width_bound(p):
    """The table's lift is exact and non-negative, and no accumulated digit reaches 2^(width-1)."""
    A = BookAlgebra(p, p - 2)
    table = A.structure_table()
    lanes = _Lanes(A)
    basis = A.basis()
    closed = closed_form_coefficients(p, p - 2)
    sums = []
    for (b, c, _), row in zip(basis, table.delta):
        for u, _, rotations in row:
            digits = table.digits(rotations[0])
            assert len(digits) == p and min(digits) == 0
            assert Cyclotomic(p, digits) == closed[b, c, basis[u].b, basis[u].c]
        sums.append(sum(sum(table.digits(r[0])) for _, _, r in row))
    assert table.root == max(sums)
    assert table.bound == max(sums) ** 2 < 1 << (table.width - 1)
    assert lanes.width == table.width <= 32  # keeps the packed products small up to p = 13
    # the heaviest Delta(m1) against the heaviest group stays under the bound
    i1 = sums.index(max(sums))
    bc2 = max(range(p * p), key=lambda bc: sum(sums[bc * p:(bc + 1) * p]))
    acc, _ = lanes.group(lanes.left(i1), bc2, 0, {})
    digit_mask = (1 << lanes.width) - 1
    top = max(v >> k * lanes.width & digit_mask for v in acc.values() for k in range(2 * p * p))
    assert 0 < top <= table.bound


@pytest.mark.parametrize("p,s", [(3, 1), (5, 0), (5, 2), (7, 3), (11, 0), (11, 3), (13, 5)])
def test_lane_output_keys_unpack_to_tensor_products(p, s):
    """Every lane of an accumulator reads as Delta(m1) Delta(m2), legs and g-exponents included, and renders as it."""
    A = BookAlgebra(p, s, permissive=s == 0)
    lanes = _Lanes(A)
    basis = A.basis()
    n = len(basis)
    table = A.product_table()
    structure = A.structure_table()
    rng = random.Random(100 * p + s)
    nonzero = 0
    for _ in range(4):  # x-exponents stay below p, y-exponents may overflow
        i1 = rng.randrange(n)
        bc2 = rng.randrange(p - basis[i1].b) * p + rng.randrange(p)
        code = table[i1 * n + bc2 * p]
        e12 = code % p if code >= 0 else 0
        acc, _ = lanes.group(lanes.left(i1), bc2, e12, {})
        for a2 in range(p):
            product = A.coproduct_monomial(basis[i1]) * A.coproduct_monomial(basis[bc2 * p + a2])
            lane = lanes.lane(acc, a2)
            terms = accumulate(((basis[k // n], basis[k % n]), structure.decode(v, e12)) for k, v in lane.items())
            assert terms == product.terms
            assert structure.render(lane, e12) == product.render()
            nonzero += bool(product)
    assert nonzero


# -- doctored Delta and S rows against plain Tensor3/Element arithmetic ---------------


def coassociativity_reference(A, monomials=None):
    """The coassociativity violations that plain Tensor3 arithmetic finds, in order."""
    p, s = A.p, A.s
    out = []
    for m in A.basis() if monomials is None else monomials:
        lhs = rhs = Tensor3.zero(p, s)
        for (m1, m2), c in A.coproduct_monomial(m).terms.items():
            for (u, v), d in A.coproduct_monomial(m1).terms.items():
                lhs = lhs + Tensor3.pure(p, s, u, v, m2, c * d)
            for (u, v), d in A.coproduct_monomial(m2).terms.items():
                rhs = rhs + Tensor3.pure(p, s, m1, u, v, c * d)
        if lhs != rhs:
            out.append((f"m={m.render()}", lhs.render(), rhs.render()))
    return out


def counit_reference(A):
    """The counit violations that plain Element arithmetic finds, in order."""
    p, s = A.p, A.s
    out = []
    for m in A.basis():
        expected = A.monomial_element(m)
        left = right = Element.zero(p, s)
        for (m1, m2), c in A.coproduct_monomial(m).terms.items():
            left = left + A.monomial_element(m2, c * A.counit_monomial(m1))
            right = right + A.monomial_element(m1, c * A.counit_monomial(m2))
        for leg, side in (("left", left), ("right", right)):
            if side != expected:
                out.append((f"m={m.render()} (eps on {leg} leg)", side.render(), expected.render()))
    return out


def antipode_reference(A, monomials=None):
    """The antipode violations that plain Element arithmetic finds, in order."""
    p, s = A.p, A.s
    out = []
    for m in A.basis() if monomials is None else monomials:
        expected = Element.unit(p, s).scale(A.counit_monomial(m))
        left = right = Element.zero(p, s)
        for (m1, m2), c in A.coproduct_monomial(m).terms.items():
            left = left + (A.antipode_monomial(m1) * A.monomial_element(m2)).scale(c)
            right = right + (A.monomial_element(m1) * A.antipode_monomial(m2)).scale(c)
        for leg, side in (("left", left), ("right", right)):
            if side != expected:
                out.append((f"m={m.render()} (S on {leg} leg)", side.render(), expected.render()))
    return out


def doctor_row(A, row):
    """Add 1 to the first or the last coefficient of the Delta row of x y g^2, or negate its S row.

    The first term is g^2 (x) x y g^2 and the last x y g^2 (x) g^(2+1+s), so
    the two Delta doctorings break the counit law on opposite legs.
    """
    mono = Monomial(1, 1, 2)
    if row == "S":
        negate_unit_row(A, "antipode", mono)
        return
    terms = dict(A.coproduct_monomial(mono).terms)
    key, coeff = (min if row == "Delta-first" else max)(terms.items())
    terms[key] = coeff + 1
    doctor_delta(A, mono, terms)


DOCTORED_CHECKS = {  # axiom -> (check, plain-arithmetic reference)
    "coassociativity": (check_coassociativity, coassociativity_reference),
    "counit": (check_counit_law, counit_reference),
    "antipode": (check_antipode_law, antipode_reference),
}


@pytest.mark.parametrize(
    "row,axiom,count_at_p3",
    [
        (row, axiom, count)
        for row in ("Delta-first", "Delta-last")
        for axiom, count in [("coassociativity", 7), ("counit", 1), ("antipode", 2)]
    ]
    + [("S", "antipode", 8)],
)
@pytest.mark.parametrize("p", [3, 5])
def test_doctored_row_fails_like_the_reference(p, row, axiom, count_at_p3):
    check, reference = DOCTORED_CHECKS[axiom]
    A = BookAlgebra(p, 1)
    doctor_row(A, row)
    (result,) = check(A).results
    expected = reference(A)
    assert expected and not result.passed
    assert found(result) == expected
    if p == 3:
        assert len(expected) == count_at_p3


@pytest.mark.parametrize("how", ["one digit", "every digit"])
def test_a_2_to_the_40_digit_widens_the_table(how):
    """A digit of 2^40 widens ``width`` past 80 bits and fails like the reference, with no carry
    to hide it; 2^40 on every digit is 2^40 (1 + q + ... + q^(p-1)) = 0, which the lift removes."""
    A = BookAlgebra(3, 1)
    healthy = A.structure_table().width
    rows = delta_digit_rows(A)
    i = A.basis_index(Monomial(1, 1, 2))
    u, v, digits = rows[i][0]
    big = 1 << 40
    rows[i][0] = u, v, (digits[0] + big, *digits[1:]) if how == "one digit" else tuple(d + big for d in digits)
    install_delta_rows(A, rows)
    table = A.structure_table()
    if how == "every digit":
        assert table.width == healthy and run_all(A).passed
        return
    assert table.root > big and table.width > 80 > healthy
    for check, reference in DOCTORED_CHECKS.values():
        (result,) = check(A).results
        assert not result.passed and found(result) == reference(A)
    bialgebra = check_bialgebra_compat(A).result("bialgebra")
    pairs = [(m1, m2) for m1 in A.basis() for m2 in A.basis()]
    assert not bialgebra.passed and found(bialgebra) == tensor_violations(A, pairs)


@pytest.mark.parametrize("row", ["Delta", "S", "both"])
def test_one_doctored_table_row_is_seen_by_every_reader(row):
    """Delta(x) with 2 x (x) g, and S(g) = -g^-1, are seen by every check that reads that row and by classify."""
    A = BookAlgebra(5, 2)
    x, g = Monomial(1, 0, 0), Monomial(0, 0, 1)
    if row != "S":
        doctor_delta(A, x, {(ONE, x): 1, (x, g): 2})
    if row != "Delta":
        negate_unit_row(A, "antipode", g)
    readers = {"antipode"} | ({"coassociativity", "counit", "bialgebra"} if row != "S" else set())
    for check in (check_coassociativity, check_counit_law, check_bialgebra_compat, check_antipode_law):
        (result,) = check(A).results
        assert result.passed == (result.axiom not in readers), result.axiom
    with pytest.raises(ConsistencyError, match="brute force disagrees with closed form"):
        classify(A)


@pytest.mark.parametrize("s", [1, 10])
def test_coassociativity_and_antipode_law_pass_at_p11(s):
    A = BookAlgebra(11, s)
    for check in (check_coassociativity, check_antipode_law):
        (result,) = check(A).results
        assert result.passed and result.checked == 11 ** 3 and result.mode == "exhaustive"


def test_coassociativity_and_antipode_law_flag_one_doctored_row_at_p11():
    """The coefficient of x^10 (x) g^10 in Delta(x^10) is off by one; few monomials read that row."""
    A = BookAlgebra(11, 1)
    mono = Monomial(10, 0, 0)
    terms = dict(A.coproduct_monomial(mono).terms)
    key = max(terms)
    terms[key] = terms[key] + 1
    doctor_delta(A, mono, terms)
    basis, table = A.basis(), A.structure_table()
    i = A.basis_index(mono)
    readers = [m for m, row in zip(basis, table.delta) if m == mono or any(i in (u, v) for u, v, _ in row)]
    (result,) = check_coassociativity(A).results
    sites = [v.at for v in result.violations]
    assert not result.passed and "m=x^10" in sites
    assert set(sites) <= {f"m={m.render()}" for m in readers}
    assert found(result)[sites.index("m=x^10")] == coassociativity_reference(A, [mono])[0]
    # the antipode law reads the Delta row of m alone, so only m = x^10 fails
    (result,) = check_antipode_law(A).results
    assert found(result) == antipode_reference(A, [mono])


def test_a_doctored_counit_fails_like_the_reference():
    """eps has one owner, counit_monomial: every check and BookAlgebra.counit read it."""
    A = BookAlgebra(3, 1)
    g = Monomial(0, 0, 1)
    healthy = A.counit_monomial
    A.counit_monomial = lambda m: A.q if m == g else healthy(m)
    assert A.counit(A.g + A.one) == A.q + 1
    result = check_counit_law(A).result("counit")
    assert not result.passed and found(result) == counit_reference(A)
    assert found(result)[0] == ("m=g (eps on left leg)", "q g", "g")
    # eps(g g) = 1 but eps(g) eps(g) = q^2
    bialgebra = check_bialgebra_compat(A).result("bialgebra")
    pairs = [(m1, m2) for m1 in A.basis() for m2 in A.basis()]
    assert not bialgebra.passed and found(bialgebra) == tensor_violations(A, pairs)
    assert ("epsilon: m1=g, m2=g", "1", "-1 - q") in found(bialgebra)  # q^2 at p = 3


# -- coassociativity, the counit law and the antipode law proved on the generators ----------


def law_route(check, A, refuse=False):
    """The outcome of a per-monomial check and whether the proof took it; ``refuse`` fails *multiplicative*,
    which every one of these proofs needs, so the sweep runs.  A proved run compares at 1, g, x and y only,
    so it calls ``StructureTable.differs`` fewer than n times, and a sweep at least n times."""
    with pytest.MonkeyPatch.context() as patch:
        if refuse:
            patch.setattr(_Proofs, "multiplicative", False)
        calls = counted_calls(patch, (StructureTable, "differs"))
        (result,) = check(A).results
    return (found(result), result.checked, result.mode), calls["StructureTable.differs"] < len(A.basis())


@pytest.mark.parametrize("p,s_values", [(3, range(3)), (5, range(5)), (7, range(7)), (11, [1, 10])])
def test_proved_per_monomial_laws_equal_the_sweep(p, s_values):
    """For every s the proofs hold exactly when s != 0, and change no violation, checked or mode."""
    for s in s_values:
        A = BookAlgebra(p, s, permissive=True)
        for check in (check_coassociativity, check_counit_law, check_antipode_law):
            outcome, proved = law_route(check, A)
            assert proved == (s != 0) and outcome == ([], p ** 3, "exhaustive")
            assert law_route(check, A, refuse=True) == (outcome, False)


@pytest.mark.parametrize("how", DOCTORINGS)
def test_a_doctored_table_gets_each_per_monomial_law_swept_or_is_healthy(how):
    """Each doctored table fails a premise and gets the sweep's own result, or is proved and healthy by plain
    Tensor3/Element arithmetic.  Only a doctored S leaves *multiplicative*, and so coassociativity and the
    counit law, proved; the twist keeps *multiplicative* but fails every law at x."""
    A = doctored_algebra(how)
    product_table_doctored = how in ("zero", "q-exponent", "monomial", "U", "F", "R on g", "R on x", "R on y")
    for axiom, (check, reference) in DOCTORED_CHECKS.items():
        outcome, proved = law_route(check, A)
        assert (outcome, proved) == (law_route(check, A, refuse=True)[0], how.startswith("S ") and axiom != "antipode")
        if not (product_table_doctored and axiom == "antipode"):  # that reference multiplies by Element, not the table
            assert outcome[0] == reference(A)
        if how in ("S q x^2 y g", "twist"):
            assert bool(outcome[0]) == (axiom == "antipode" or how == "twist"), axiom
        if how == "twist":  # no monomial before x in basis order has an x in Delta
            assert outcome[0][0][0].split()[0] == "m=x", axiom


def test_a_doctored_s_row_off_the_generators_fails_anti_multiplicativity():
    """S(x^2 y g) times q: the antipode law holds at 1, g, x and y, and Delta is still multiplicative, but
    S(x (x y g)) != S(x y g) S(x), so the proof is refused and the sweep reports the failing monomials."""
    A = BookAlgebra(3, 2)
    rotate_unit_row(A, Monomial(2, 1, 1))
    proofs = _Proofs(A)
    assert proofs.multiplicative and not proofs.anti_multiplicative
    generators = [A.basis()[i] for i in (0, *A.generators)]
    assert not antipode_reference(A, generators)
    outcome, proved = law_route(check_antipode_law, A)
    assert not proved and outcome[0] == antipode_reference(A)
    assert any(at.startswith("m=x^2 y g ") for at, _, _ in outcome[0])


@pytest.mark.parametrize("p,s", [(7, 3), (5, 0), (7, 0)])
def test_run_all_computes_each_verdict_once(monkeypatch, p, s):
    """One _Proofs serves the six checks: _Rows is built once, for *associative*; a healthy H(7, 3) runs the
    3 p^2 = 147 generator lane groups of *multiplicative* and no sweep, and the s = 0 control sweeps once, one
    run per g-orbit of m1 and x^b2 y^c2, reading back those of the failed premise: all p^4 at p = 5, whose 3 750
    violations stay below the cap, and at p = 7 the p^2 groups of only the first 12 g-orbits of m1, as the 12th
    renders the 10 000th violation and the sweep stops there."""
    calls = counted_calls(monkeypatch, (_Rows, "__init__"), (_Lanes, "run"), (_Lanes, "orbit"), (_Proofs, "__init__"))
    report = run_all(BookAlgebra(p, s, permissive=s == 0))
    assert report.passed if s else negative_control_matches(report, p)
    assert calls["_Rows.__init__"] == 1 and calls["_Proofs.__init__"] == 1
    if s:
        assert calls["_Lanes.run"] == 147 and not calls["_Lanes.orbit"]
    else:
        assert calls["_Lanes.orbit"] == 1 and calls["_Lanes.run"] == {5: 5 ** 4, 7: 12 * 7 ** 2}[p]


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


@functools.cache
def negative_control_report(p, **options):
    return run_all(BookAlgebra(p, 0, permissive=True), **options)


def with_bialgebra_violations(report, edit):
    """The report with the bialgebra violations replaced by ``edit`` of a copy of them."""
    return AxiomReport([
        r._replace(violations=edit(list(r.violations))) if r.axiom == "bialgebra" else r
        for r in report.results
    ])


def swap_two(violations):
    violations[1], violations[2] = violations[2], violations[1]
    return violations


@pytest.mark.parametrize(
    "edit",
    [lambda v: [], lambda v: v[:1], lambda v: v[:-1], swap_two],
    ids=["emptied", "cut-to-one", "last-dropped", "swapped"],
)
@pytest.mark.parametrize("p", [3, 5])
def test_negative_control_matcher_rejects_doctored_bialgebra_sites(p, edit):
    report = negative_control_report(p)
    assert negative_control_matches(report, p)
    assert not negative_control_matches(with_bialgebra_violations(report, edit), p)


@pytest.mark.parametrize("axiom", AXIOMS)
def test_negative_control_matcher_rejects_a_report_missing_a_result(axiom):
    report = negative_control_report(3)
    partial = AxiomReport([r for r in report.results if r.axiom != axiom])
    assert not negative_control_matches(partial, 3)


def test_negative_control_matcher_accepts_the_capped_p7_report():
    report = negative_control_report(7)
    bialgebra = report.result("bialgebra")
    assert bialgebra.mode == "exhaustive"
    assert len(bialgebra.violations) == MAX_VIOLATIONS_RENDERED  # of 28 812 predicted sites
    assert negative_control_matches(report, 7)
    assert not negative_control_matches(with_bialgebra_violations(report, lambda v: v[:-1]), 7)


def test_negative_control_matcher_accepts_a_sampled_p11_report():
    report = negative_control_report(11, sample_size=300, seed=1)
    bialgebra = report.result("bialgebra")
    assert bialgebra.mode == "sampled(n=300)" and len(bialgebra.violations) == 72
    assert negative_control_matches(report, 11)
    # a sampled site must still be a predicted one: x^10 x^10 does not overflow in y
    stray = Violation("bialgebra", "Delta: m1=x^10, m2=x^10", "0", "0")
    assert not negative_control_matches(with_bialgebra_violations(report, lambda v: v + [stray]), 11)


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
