"""The Hopf-axiom checkers: pass cases, the s = 0 negative control, reports."""

import collections
import functools
import itertools
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
from bookhopf.axioms import MAX_VIOLATIONS_RENDERED, _Lanes, _Proofs
from bookhopf.hopf import StructureTable
from bookhopf.pbw import ONE, accumulate
from bookhopf.hopf import bilinear_rows
from oracles import (
    associativity_by_generators,
    associativity_violations,
    bilinear_table_reference,
    delta_digit_rows,
    doctor_delta,
    doctor_product,
    install_delta_rows,
    lane,
    live_bialgebra_violations,
    negate_unit_row,
    own_run_texts,
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


@pytest.mark.parametrize("check", [check_associativity])
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
    """A sweep that finds nothing, over a domain of nothing, is a failure."""
    (result,) = axioms._prove_or_sweep(axioms._Recorder("associativity"), "exhaustive", 0, lambda: False,
                                       lambda: iter(())).results
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


@pytest.mark.parametrize("checked", ["0", "1", -5, True, False, 1.0, None])
def test_axiom_result_from_dict_rejects_a_checked_that_is_no_count(checked):
    """Only an int >= 0 is a count: "0", True and -5 are truthy and would let a run that examined nothing pass."""
    payload = check_counit_law(BookAlgebra(3, 1)).result("counit").to_dict()
    assert AxiomResult.from_dict(payload).passed
    assert not AxiomResult.from_dict({**payload, "checked": 0, "status": "fail"}).passed
    with pytest.raises(ValueError, match="checked must be an int >= 0"):
        AxiomResult.from_dict({**payload, "checked": checked})


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


@pytest.mark.parametrize("how", ["zero", "q-exponent", "monomial"])
@pytest.mark.parametrize("p", [3, 5])
def test_associativity_rows_flag_a_doctored_product_like_the_reference(p, how):
    A = BookAlgebra(p, 2)
    doctor_product(A, Monomial(0, 0, 1), Monomial(1, 0, 0), how)  # g x = q x g
    result = check_associativity(A).result("associativity")
    assert result.mode == "exhaustive" and result.checked == len(A.basis()) ** 3
    expected = associativity_violations(A, all_triples(len(A.basis())))
    assert expected and found(result) == expected


def triples_reading(A, i1, i2):
    """The triples, in basis order, whose two sides read the table entry basis[i1] basis[i2]: those of m1 m2,
    (m1 m2) m3, m2 m3 and m1 (m2 m3).  Where the rest of the table is associative, only they can fail."""
    p, n, table = A.p, len(A.basis()), A.product_table()
    out = {(i1, i2, k) for k in range(n)} | {(k, i1, i2) for k in range(n)}
    for u, v in itertools.product(range(n), repeat=2):
        t = table[u * n + v] // p  # -1 for a zero product
        if t == i1:
            out.add((u, v, i2))  # (basis[u] basis[v]) basis[i2] reads the entry
        if t == i2:
            out.add((i1, u, v))  # basis[i1] (basis[u] basis[v]) reads it
    return sorted(out)


def reported_triples(A, result):
    """The index triple (i1, i2, i3) of each associativity violation, read off its site."""
    index = {m.render(): i for i, m in enumerate(A.basis())}
    return [tuple(index[part.split("=", 1)[1]] for part in v.at.split(", ")) for v in result.violations]


@pytest.mark.parametrize("how", ["zero", "q-exponent", "monomial"])
def test_sampled_associativity_flags_a_doctored_product_like_the_reference(how):
    """Sampling options on a doctored H(7, 3), whose proof fails, get the exhaustive sweep: every triple that reads
    the doctored entry g x fails as the reference says, in basis order, below the cap, and no other does."""
    A = BookAlgebra(7, 3)
    n, g, x = len(A.basis()), Monomial(0, 0, 1), Monomial(1, 0, 0)
    doctor_product(A, g, x, how)  # g x = q x g
    result = check_associativity(A, seed=1, sample_size=300_000).result("associativity")
    assert result.mode == "exhaustive" and result.checked == n ** 3
    assert 0 < len(result.violations) < MAX_VIOLATIONS_RENDERED
    assert found(result) == associativity_violations(A, reported_triples(A, result))
    assert found(result) == associativity_violations(A, triples_reading(A, A.basis_index(g), A.basis_index(x)))


@pytest.mark.parametrize("p", [3, 7, 11])
def test_associativity_visits_every_triple_or_the_randrange_draws(p):
    """On m1 m2 = basis[i1 - i2], every triple with i3 != 0 fails, so the violations spell out the triples: every
    triple in basis order, up to the cap, whatever the sampling options, as the proof fails."""
    A = BookAlgebra(p, 1)
    basis = A.basis()
    n = len(basis)
    A._products = array("i", [(i1 - i2) % n * p for i1 in range(n) for i2 in range(n)])
    result = check_associativity(A, seed=3, sample_size=2000).result("associativity")
    assert result.mode == "exhaustive" and result.checked == n ** 3
    assert len(result.violations) == MAX_VIOLATIONS_RENDERED
    triples = reported_triples(A, result)
    failing = ((i1, i2, i3) for i1, i2, i3 in all_triples(n) if i3)
    assert triples == list(itertools.islice(failing, MAX_VIOLATIONS_RENDERED))
    expected = associativity_violations(A, triples)
    assert [at for at, _, _ in expected] == [
        f"m1={basis[i1].render()}, m2={basis[i2].render()}, m3={basis[i3].render()}" for i1, i2, i3 in triples
    ]
    assert found(result) == expected


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


def counted_sweeps(monkeypatch, drawn=None):
    """Count the sweeps that ``_prove_or_sweep`` runs, keyed by axiom; a proved run runs none.  With a Counter
    ``drawn``, also count the violations drawn from each axiom's sweeps."""
    calls = collections.Counter()
    prove_or_sweep = axioms._prove_or_sweep

    def counted(rec, mode, checked, proved, sweep):
        def counted_sweep():
            calls[rec.axiom] += 1
            return sweep() if drawn is None else counted_draws(rec.axiom, sweep())

        return prove_or_sweep(rec, mode, checked, proved, counted_sweep)

    def counted_draws(axiom, violations):
        for v in violations:
            drawn[axiom] += 1
            yield v

    monkeypatch.setattr(axioms, "_prove_or_sweep", counted)
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


@pytest.mark.parametrize("p", [3, 7])
def test_associativity_stops_at_the_cap(monkeypatch, p):
    """On m1 m2 = basis[i1 - i2] every triple with i3 != 0 fails, n - 1 per (m1, m2) row.  The sweep reads no row
    after the one that records the 10 000th violation: the 15th m1 at p = 3, the first at p = 7.  Each m1 builds
    one itemgetter for its map and two per m2 row, and the report is that of the whole sweep, which fails with
    n^3 checked, whatever the sampling options."""
    A = BookAlgebra(p, 1)
    n = p ** 3
    A._products = array("i", [(i1 - i2) % n * p for i1 in range(n) for i2 in range(n)])
    built = collections.Counter()
    itemgetter = axioms.itemgetter

    def counted(*items):
        built["itemgetter"] += 1
        return itemgetter(*items)

    monkeypatch.setattr(axioms, "itemgetter", counted)
    result = check_associativity(A, seed=3, sample_size=2000).result("associativity")
    assert len(result.violations) == MAX_VIOLATIONS_RENDERED and result.status == "fail"
    assert (result.mode, result.checked) == ("exhaustive", n ** 3)
    rows = -(-MAX_VIOLATIONS_RENDERED // (n - 1))  # the (m1, m2) rows read, the last one recording the cap
    assert -(-rows // n) == {3: 15, 7: 1}[p]
    assert built == {"itemgetter": -(-rows // n) + 2 * rows}


# -- associativity proved by the cocycle lemma, against the generator route of the oracles ----------


def associativity_outcome(A, **kwargs):
    result = check_associativity(A, **kwargs).result("associativity")
    return found(result), result.checked, result.mode, result.status


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_associativity_proof_holds_on_the_live_tables(p):
    """The cocycle premise and the generator route both prove the live table, permissive s = 0 included."""
    for s in sorted({0, 1, p - 1}):
        A = BookAlgebra(p, s, permissive=True)
        assert _Proofs(A).associative and associativity_by_generators(A)


def test_every_bilinear_table_is_associative_and_proved():
    """The cocycle lemma at p = 3: for every (alpha, beta, gamma) the brute-force sweep over all 27^3 triples
    finds the table of ``bilinear_rows`` associative, and the premise proves it."""
    p, n = 3, 27
    A = BookAlgebra(p, 1)
    for alpha, beta, gamma in itertools.product(range(p), repeat=3):
        A._products = array("i", b"".join(bilinear_rows(p, alpha, beta, gamma)))
        assert not associativity_violations(A, all_triples(n)), (alpha, beta, gamma)
        assert _Proofs(A).associative, (alpha, beta, gamma)


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
    """On every doctored copy the cocycle premise agrees with the generator route, and a proved table is associative."""
    A = BookAlgebra(p, 2)
    proved = 0
    for table in doctored_tables(p, 180, seed=p):
        A._products = table
        verdict = _Proofs(A).associative
        assert verdict == associativity_by_generators(A)
        if verdict:
            proved += 1
            assert not associativity_violations(A, all_triples(p ** 3))
    assert proved < 180


def premise_breaking_table(p, premise):
    """A non-associative product table on which every premise of the generator route holds but ``premise``.

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
    """Each table breaks one premise of the generator route; both it and the cocycle premise refuse it."""
    A = BookAlgebra(3, 2)
    A._products = premise_breaking_table(3, premise)
    expected = associativity_violations(A, all_triples(27))
    assert expected and not associativity_by_generators(A) and not _Proofs(A).associative
    assert found(check_associativity(A).result("associativity")) == expected


@pytest.mark.parametrize("how", [None, "zero", "q-exponent", "monomial"])
@pytest.mark.parametrize("p,kwargs,mode", [(5, {}, "exhaustive"), (7, {"seed": 1, "sample_size": 300_000}, "sampled(n=300000)")])
def test_associativity_proof_changes_no_result(monkeypatch, p, kwargs, mode, how):
    """Proved or not, the violations and status are the same.  A proved run carries the label ``mode``; a run whose
    proof fails, on a doctored table or refused, reports its sweep, exhaustive with n^3 checked."""
    A = BookAlgebra(p, 2)
    if how:
        doctor_product(A, Monomial(0, 0, 1), Monomial(1, 0, 0), how)  # g x = q x g
    outcome = associativity_outcome(A, **kwargs)
    proved_label = (p ** 9 if mode == "exhaustive" else kwargs["sample_size"], mode)
    assert outcome[1:3] == ((p ** 9, "exhaustive") if how else proved_label)
    assert bool(outcome[0]) == bool(how)
    monkeypatch.setattr(_Proofs, "associative", False)
    assert associativity_outcome(A, **kwargs) == (outcome[0], p ** 9, "exhaustive", outcome[3])


def test_a_proved_default_run_makes_no_draw(monkeypatch):
    """A proved run at p = 7 carries the default sample size as its label and runs no sweep; nothing draws."""
    sweeps = counted_sweeps(monkeypatch)
    assert associativity_outcome(BookAlgebra(7, 3)) == ([], 1_000_000, "sampled(n=1000000)", "pass")
    assert not sweeps


@pytest.mark.parametrize("p,kwargs,mode,checked", [
    pytest.param(3, {}, "exhaustive", 3 ** 9, id="p3-exhaustive"),
    pytest.param(7, {"sample_size": 1}, "sampled(n=1)", 1, id="p7-one-draw"),
    pytest.param(7, {"sample_size": (7 ** 6 - 1) // 5}, "sampled(n=23529)", 23529, id="p7-below-a-fifth-of-n-squared"),
    pytest.param(7, {}, "sampled(n=1000000)", 1_000_000, id="p7-default"),
    pytest.param(7, {"exhaustive": True}, "exhaustive", 7 ** 9, id="p7-exhaustive"),
])
def test_a_proved_run_of_any_size_builds_no_rows(monkeypatch, p, kwargs, mode, checked):
    """The proof is tried on every run, whatever its label, and a proved run neither sweeps nor decodes a row."""
    sweeps = counted_sweeps(monkeypatch)
    proofs = _Proofs(BookAlgebra(p, 2))
    assert associativity_outcome(proofs.algebra, _proofs=proofs, **kwargs) == ([], checked, mode, "pass")
    assert not sweeps and "rows" not in vars(proofs)


def test_a_proved_default_run_at_p11_makes_no_draw(monkeypatch):
    """At p = 11 associativity is proved with its default 10^6 sample size as the label, and the bialgebra law is
    proved as exhaustive over all n^2 pairs; no check sweeps."""
    sweeps = counted_sweeps(monkeypatch)
    report = run_all(BookAlgebra(11, 3))
    assert report.passed and not sweeps
    labels = {a: (report.result(a).mode, report.result(a).checked) for a in ("associativity", "bialgebra")}
    assert labels == {"associativity": ("sampled(n=1000000)", 1_000_000), "bialgebra": ("exhaustive", 1_771_561)}


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
    """``draws`` seeded uniform pairs (i1, i2) in [0, n)^2, in draw order."""
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(draws)]


@pytest.mark.parametrize(
    "p,s,draws", [(7, 3, 40), (7, 0, 40), (11, 3, 25), (11, 10, 25), (13, 5, 4)]
)
def test_bialgebra_check_matches_tensor_arithmetic(p, s, draws):
    """On ``draws`` seeded pairs the report says what Tensor2 arithmetic does; a capped report is compared on the
    pairs up to its last rendered violation, as the sweep renders in basis order and stops at the cap."""
    A = BookAlgebra(p, s, permissive=s == 0)
    basis = A.basis()
    n = len(basis)
    result = check_bialgebra_compat(A).result("bialgebra")
    assert (result.mode, result.checked) == ("exhaustive", n * n)
    index = {m.render(): i for i, m in enumerate(basis)}

    def pair(at):
        return tuple(index[part.split("=", 1)[1]] for part in at.split(": ", 1)[1].split(", "))

    reported = collections.defaultdict(list)
    for v in found(result):
        reported[pair(v[0])].append(v)
    last = pair(result.violations[-1].at) if len(result.violations) == MAX_VIOLATIONS_RENDERED else (n, 0)
    drawn = sorted({ij for ij in replayed_pairs(n, 1000 * p + s, draws) if ij <= last})
    expected = tensor_violations(A, [(basis[i1], basis[i2]) for i1, i2 in drawn])
    assert [v for ij in drawn for v in reported.get(ij, [])] == expected
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


def memo_keys(A, violations):
    """The distinct (lane, g-move, q-exponent) keys of the bialgebra sweep's text memo among the Delta
    ``violations`` of A, and their distinct (m1's g-orbit, x^b2 y^c2) runs, computed from the orbit lemma of
    check_bialgebra_compat: the rhs at basis[i1] = basis[first] g^a1 is lane a2 of run (basis[first], x^b2 y^c2),
    keys as in lane 0, with both legs moved by g^(a2 + a1), at q^(e12 + a1 wt(x^b2 y^c2))."""
    p, lanes = A.p, _Proofs(A).lanes
    index = {m.render(): i for i, m in enumerate(A.basis())}
    runs, keys = {}, set()
    for v in violations:
        i1, i2 = (index[part.split("=", 1)[1]] for part in v.at.removeprefix("Delta: ").split(", "))
        (first, a1), (bc2, a2) = divmod(i1, p), divmod(i2, p)
        if (first, bc2) not in runs:
            runs[first, bc2] = lanes.run(first * p, bc2, lanes.left(first * p))
        acc, _, e12 = runs[first, bc2]
        unmoved = frozenset(lane(lanes, acc, a2, -a2).items())  # lane a2 with its keys as in lane 0
        keys.add((unmoved, (a2 + a1) % p, (e12 + a1 * lanes.wt[bc2 * p]) % p))
    return keys, set(runs)


def test_bialgebra_renders_nothing_past_the_cap(monkeypatch):
    """H(7, 0) fails at 28 812 pairs, the cap falls inside a lane group, and no side is read or rendered past it:
    each g-orbit's run that a violation reads is unpacked once, all its bad lanes in one pass, and each distinct
    memo key rendered once."""
    A = BookAlgebra(7, 0, permissive=True)
    n = len(A.basis())
    calls = counted_calls(monkeypatch, (StructureTable, "render"), (_Lanes, "unpacked"))
    drawn = collections.Counter()
    sweeps = counted_sweeps(monkeypatch, drawn)
    result = check_bialgebra_compat(A).result("bialgebra")
    assert result.checked == n * n and result.status == "fail"
    assert len(result.violations) == MAX_VIOLATIONS_RENDERED
    assert all(v.at.startswith("Delta: ") and v.lhs == "0" for v in result.violations)
    # every Delta(m1 m2) is 0 and needs no render; Delta(m1) Delta(m2) is one render per distinct memo key, and no
    # violation past the cap is even drawn from the sweep
    keys, runs_read = memo_keys(A, result.violations)
    assert len(keys) < MAX_VIOLATIONS_RENDERED
    assert calls == {"StructureTable.render": len(keys), "_Lanes.unpacked": len(runs_read)}
    assert sweeps == {"bialgebra": 1} and drawn == {"bialgebra": MAX_VIOLATIONS_RENDERED}
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
    """3 p^2 runs of g, x and y on the live tables, which prove the law.  Where a premise fails the sweep reads the
    law table's runs back and vouches for every run whose lemma holds: with eps(g) = q every Delta lane is healthy,
    so the 3 p^2 runs of the table are all, and no Delta(m1) is built past them.  With the law table refused the
    kernel runs one group per g-orbit of m1 and x^b2 y^c2 while P1 and P2 hold, with Delta(m1) built once per orbit,
    and every (m1, x^b2 y^c2) once on a doctored row."""
    p = 7
    result = check_bialgebra_compat(BookAlgebra(p, 3)).result("bialgebra")
    assert result.mode == "exhaustive" and result.checked == p ** 6 and result.passed
    assert len(group_runs) == 3 * p ** 2 == 147

    def eps_doctored():
        A = BookAlgebra(p, 3)
        healthy = A.counit_monomial
        A.counit_monomial = lambda m: A.q if m == Monomial(0, 0, 1) else healthy(m)  # fails eps(g g) = eps(g) eps(g)
        assert _Proofs(A).lanes.orbit() == p
        return A

    for refused, runs in ((False, 3 * p ** 2), (True, p ** 4)):
        group_runs.clear()
        with pytest.MonkeyPatch.context() as patch:
            if refused:
                patch.setattr(_Proofs, "laws", None)
            lefts = counted_calls(patch, (_Lanes, "left"))
            assert not check_bialgebra_compat(eps_doctored()).passed
        assert len(group_runs) == runs and lefts["_Lanes.left"] == runs // p ** 2
    group_runs.clear()
    A = BookAlgebra(p, 3)
    doctor(A, "digit")  # breaks P1, so every m1 is its own orbit and no group is run twice to render
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Proofs, "laws", None)
        assert not check_bialgebra_compat(A).passed
    assert len(group_runs) == p ** 3 * p ** 2 == 16_807


@pytest.mark.parametrize("p,s,how,options", [
    (3, 0, None, {}), (5, 0, None, {}), (7, 0, None, {}),
    # the sampling options reach associativity's label only
    (7, 0, None, {"seed": 0, "sample_size": 2500}), (7, 0, None, {"seed": 3, "sample_size": 5000}),
    (7, 3, "digit", {}), (11, 0, None, {}),
], ids=["p3", "p5", "p7", "p7-seed0-2500", "p7-seed3-5000", "p7-s3-orbit-digit", "p11"])
def test_each_delta_violation_renders_as_m1s_own_group_run(p, s, how, options):
    """Every Delta(m1) Delta(m2) read off the first run of its g-orbit, through the text memo, equals the text of
    m1's own run read lane by lane: at s = 0 up to the cap, which ends the sweep at p >= 7, and on an orbit of
    H(7, 3) doctored alike, where the lemma's q^(a1 wt(m2)) is not 1 for m2 with a y."""
    A = BookAlgebra(p, s, permissive=s == 0)
    if how:
        doctor_orbit(A, how)
    result = check_bialgebra_compat(A, **options).result("bialgebra")
    rendered, own = own_run_texts(_Proofs(A).lanes, result)
    assert rendered and rendered == own
    assert (len(result.violations) == MAX_VIOLATIONS_RENDERED) == (s == 0 and p >= 7)  # the cap ends the sweep
    m1s = {v.at.split(", ")[0] for v in result.violations}
    assert any(" g" in m1 for m1 in m1s)  # an m1 that is not first in its orbit
    if how:
        assert _Proofs(A).lanes.orbit() == p and not _Proofs(A).multiplicative


def test_each_delta_violation_renders_as_m1s_own_group_run_on_doctored_tables():
    """The same on every doctored table that keeps *associative*, P1 and P2 and fails the check; a table that breaks
    *associative* runs no lane, and every one of them that fails renders what the live-table reference does."""
    compared, live = [], []
    for how in DOCTORINGS:
        A = doctored_algebra(how)
        result = check_bialgebra_compat(A).result("bialgebra")
        if result.passed:
            continue
        if not _Proofs(A).associative:
            assert found(result) == live_bialgebra_violations(A), how
            live.append(how)
        elif _Proofs(A).lanes.orbit() == A.p:
            rendered, own = own_run_texts(_Proofs(A).lanes, result)
            assert rendered == own, how
            compared += [how] * bool(rendered)
    assert compared == ["orbit digit"] and live == PRODUCT_DOCTORINGS


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
    """Doctor every row Delta(x y g^a) alike: P1 holds, and so does P2 unless ``how`` is "extra term"."""
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


def doctored_x_yg3():
    """H(5, 2) with its product x (y g^3) times q, which breaks *associative*."""
    A = BookAlgebra(5, 2)
    doctor_product(A, Monomial(1, 0, 0), Monomial(0, 1, 3), "q-exponent")
    return A


@functools.lru_cache(maxsize=None)
def live_x_yg3():
    """live_bialgebra_violations of ``doctored_x_yg3()``, about 4 s, computed once."""
    return live_bialgebra_violations(doctored_x_yg3())


def forced_full_sweep(monkeypatch):
    monkeypatch.setattr(_Lanes, "orbit", lambda self: 1)


@pytest.mark.parametrize("p,s", [(3, 1), (3, 0), (5, 2), (5, 0), (7, 3), (7, 0), (11, 0)])
def test_one_run_per_g_orbit_equals_the_full_sweep_on_the_live_tables(monkeypatch, p, s):
    A = BookAlgebra(p, s, permissive=True)
    assert _Proofs(A).lanes.orbit() == p
    reduced = bialgebra_outcome(A)
    forced_full_sweep(monkeypatch)
    assert bialgebra_outcome(A) == reduced
    assert bool(reduced[0]) == (s == 0)


@pytest.mark.parametrize("how", ["digit", "g-exponent", "extra term", "orbit digit", "orbit extra term", "product"])
def test_one_run_per_g_orbit_equals_the_full_sweep_on_doctored_tables(monkeypatch, how):
    """A premise that fails falls back to the full sweep; a consistently doctored orbit keeps the premises.  A
    doctored product breaks *associative*, which gives P3, so the per-pair route runs, with no lane, and reports
    what the live-table reference does."""
    A = doctored_x_yg3() if how == "product" else BookAlgebra(5, 2)
    if how.startswith("orbit "):
        doctor_orbit(A, how[6:])
    elif how != "product":
        doctor(A, how)  # breaks P1
    assert _Proofs(A).associative == (how != "product")
    assert _Proofs(A).lanes.orbit() == (1 if how in ("digit", "g-exponent", "extra term", "orbit extra term") else 5)
    with pytest.MonkeyPatch.context() as patch:
        calls = counted_calls(patch, (_Lanes, "run"), (_Lanes, "orbit"))
        reduced = bialgebra_outcome(A)
    assert reduced[0] and bool(calls) == (how != "product")
    if how == "product":
        assert reduced == (live_x_yg3(), 5 ** 6, "exhaustive")
    if how == "orbit digit":
        assert reduced[0] == doctored_tensor_violations(A, {Monomial(1, 1, a) for a in range(5)})
    forced_full_sweep(monkeypatch)
    assert bialgebra_outcome(A) == reduced


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_g_orbit_premises_hold_on_the_live_tables(p):
    for s in sorted({0, 1, p - 1}):
        assert _Proofs(BookAlgebra(p, s, permissive=True)).lanes.orbit() == p


# -- the bialgebra law proved on the generators ---------------------------------------


def bialgebra_route(A, **options):
    """The bialgebra outcome and whether the proof took it: a proved run runs no sweep, of either route."""
    with pytest.MonkeyPatch.context() as patch:
        sweeps = counted_sweeps(patch)
        return bialgebra_outcome(A, **options), not sweeps


def swept(A, **options):
    """The bialgebra outcome with the proof and the law table refused, as the CI steps refuse them: the route that
    *associative* picks, run whole, the lane sweep with every run made by the kernel where it holds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Proofs, "multiplicative", False)
        patch.setattr(_Proofs, "laws", None)
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


@pytest.mark.parametrize("p,s", [(7, 0), (11, 3)])
def test_sampling_options_leave_the_bialgebra_result_unchanged(p, s):
    """seed reaches no check, and sample_size and exhaustive only the label of the proved associativity run: with
    elapsed_ms stripped, every other result of ``run_all`` or of a check called alone is unchanged, the bialgebra
    law proved or swept whole."""
    A = BookAlgebra(p, s, permissive=s == 0)

    def results(**options):
        return [r._replace(elapsed_ms=None) for r in run_all(A, **options).results]

    default = results()
    assert (default[0].mode, default[0].checked) == ("sampled(n=1000000)", 1_000_000)
    bialgebra = default[AXIOMS.index("bialgebra")]
    assert (bialgebra.checked, bialgebra.mode) == (p ** 6, "exhaustive") and bool(bialgebra.violations) == (s == 0)
    assert results(seed=3) == default
    assert [r._replace(elapsed_ms=None) for check in axioms._CHECKS for r in check(A, seed=3).results] == default
    relabelled = ({"seed": 1, "sample_size": 300}, ("sampled(n=300)", 300)), ({"exhaustive": True}, ("exhaustive", p ** 9))
    for options, label in relabelled:
        first, *rest = results(**options)
        assert (first.mode, first.checked) == label
        assert [first._replace(mode=default[0].mode, checked=default[0].checked), *rest] == default


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


def sign_twist(A):
    """Each term u (x) v of every Delta row times (-1)^(b_u + s c_u + a_u), and eps(g^a) = (-1)^a.

    Both laws hold at every step pair of ``generation()``, and coassociativity and the counit law hold at 1, g, x
    and y; but (-1)^p = -1 breaks both laws where a g-exponent wraps past p, as at (g, g^(p-1)), a pair of right
    legs of the step (g, x g^(p-2)).  Only the leg pairs of *steps* refuse the proofs."""
    basis, p = A.basis(), A.p
    install_delta_rows(A, [
        [(u, v, tuple(-d for d in digits) if (basis[u].b + A.s * basis[u].c + basis[u].a) % 2 else digits)
         for u, v, digits in row]
        for row in delta_digit_rows(A)
    ])
    A.counit_monomial = lambda m: root_power(p, 0) * (-1) ** m.a if m.b == m.c == 0 else cyc_zero(p)


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
    elif how == "sign":
        sign_twist(A)
    else:  # a product table that breaks one premise of the associativity proof
        A._products = premise_breaking_table(3, how)
    return A


DOCTORINGS = [
    "digit", "g-exponent", "extra term", "orbit digit", "orbit extra term", "zero", "q-exponent", "monomial",
    "S g", "S x y g^2", "S q x^2 y g", "eps(g) = q", "U", "F", "R on g", "R on x", "R on y", "twist", "sign",
]
PRODUCT_DOCTORINGS = ["zero", "q-exponent", "monomial", "U", "F", "R on g", "R on x", "R on y"]  # break *associative*


@pytest.mark.parametrize("how", DOCTORINGS)
def test_a_doctored_table_falls_back_or_is_healthy(how):
    """Each doctored table fails a premise and gets the sweep's own result, or is proved and healthy by Tensor2; a
    doctored product table gets what the live-table reference reports."""
    A = doctored_algebra(how)
    outcome, proved = bialgebra_route(A)
    assert outcome == swept(A)
    assert _Proofs(A).associative == (how not in PRODUCT_DOCTORINGS)
    if how in PRODUCT_DOCTORINGS:
        assert outcome[0] and outcome[0] == live_bialgebra_violations(A)
    if proved:
        basis = A.basis()
        assert not outcome[0] and not tensor_violations(A, [(m1, m2) for m1 in basis for m2 in basis])
    assert proved == (how.startswith("S ") or how == "twist")  # S is not read, and the twisted Delta is an algebra map


@pytest.mark.parametrize("case", [*PRODUCT_DOCTORINGS, "x (y g^3) at 5"])
def test_a_table_that_breaks_associative_gets_the_live_table_reference_with_no_lane_run(case):
    """A lane reads u (w g^a2) off u w, which only a bilinear table gives.  Where *associative* fails, ``run_all``
    makes no _Lanes.run or _Lanes.orbit call, and the bialgebra check reports every violation that plain
    Cyclotomic arithmetic finds with each product, legs included, read off the live table."""
    A = doctored_x_yg3() if case.endswith(" at 5") else doctored_algebra(case)
    with pytest.MonkeyPatch.context() as patch:
        calls = counted_calls(patch, (_Lanes, "run"), (_Lanes, "orbit"))
        result = run_all(A).result("bialgebra")
    assert not _Proofs(A).associative and not calls
    expected = live_x_yg3() if case.endswith(" at 5") else live_bialgebra_violations(A)
    assert expected and found(result) == expected
    assert (result.checked, result.mode) == (A.p ** 6, "exhaustive")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_per_pair_route_forced_on_the_s0_control_equals_the_lane_sweep(p):
    """With *associative* refused, H(p, 0) takes the per-pair route, which runs no lane and reports the lane
    sweep's violations byte for byte, up to the cap at p = 7, with the same checked and mode."""
    A = BookAlgebra(p, 0, permissive=True)
    swept_by_lanes = bialgebra_outcome(A)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Proofs, "associative", False)
        calls = counted_calls(patch, (_Lanes, "run"), (_Lanes, "orbit"))
        assert bialgebra_outcome(A) == swept_by_lanes and not calls
    assert len(swept_by_lanes[0]) == len(axioms._negative_control_sites(p))  # capped at p = 7


@pytest.mark.parametrize("case", ["Delta(1) = 0", "eps = 0", "Delta(1) = 2"])
def test_each_base_case_is_a_premise(case):
    """A Delta of zero values, or eps = 0, is multiplicative, but the law at 1 needs Delta(1) = 1 (x) 1 and eps(1) = 1:
    the proof refuses them, and the sweep passes.  Delta(1) = 2 (1 (x) 1) breaks the law at every (1, m2), so the
    sweep may not vouch for the runs of 1, and it reports what Tensor2 arithmetic finds."""
    A = BookAlgebra(3, 2)
    if case == "eps = 0":
        A.counit_monomial = lambda m: cyc_zero(3)
    elif case == "Delta(1) = 0":  # 1 + q + q^2 = 0 in every row; the lift makes the table's width 1
        install_delta_rows(A, [[(0, 0, (1, 1, 1))] for _ in A.basis()])
    else:
        doctor_delta(A, ONE, {(ONE, ONE): 2})
    outcome, proved = bialgebra_route(A)
    basis = A.basis()
    expected = tensor_violations(A, [(m1, m2) for m1 in basis for m2 in basis]) if case == "Delta(1) = 2" else []
    assert not proved and outcome == (expected, 27 ** 2, "exhaustive")
    assert bool(expected) == (case == "Delta(1) = 2")


def test_the_leg_premises_refuse_a_sign_twist():
    """On ``sign_twist`` both laws hold at every step pair and coassociativity and the counit law hold at 1, g, x
    and y, but the leg pairs break both laws: *steps* refuses the proofs, and the sweeps report what plain
    Tensor3/Element arithmetic finds, failures beyond the generators included."""
    A = doctored_algebra("sign")
    proofs = _Proofs(A)
    broken = proofs.broken
    assert not any(j in broken[t][0] or j in broken[t][1] for t, j, _ in proofs.generation.values())
    assert not proofs.steps and not proofs.multiplicative
    generators = [A.basis()[i] for i in (0, *A.generators)]
    for check, reference in (DOCTORED_CHECKS["coassociativity"], DOCTORED_CHECKS["counit"]):
        assert not reference(A, generators)
        outcome, proved = law_route(check, A)
        assert not proved and outcome[0] and outcome[0] == reference(A)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_at_s0_the_generator_premise_fails_exactly_on_y_against_x_b_y_p_minus_1(p):
    A = BookAlgebra(p, 0, permissive=True)
    basis, lanes = A.basis(), _Proofs(A).lanes
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
    lanes = _Proofs(A).lanes
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
    lanes = _Proofs(A).lanes
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
        every = lanes.unpacked(acc, (1 << p) - 1)
        assert sorted(every) == list(range(p))
        for a2 in range(p):
            product = A.coproduct_monomial(basis[i1]) * A.coproduct_monomial(basis[bc2 * p + a2])
            read = lane(lanes, acc, a2)
            terms = accumulate(((basis[k // n], basis[k % n]), structure.decode(v, e12)) for k, v in read.items())
            assert terms == product.terms
            assert structure.render(read, e12) == product.render()
            # the sweep's unpacked lane, one of every lane unpacked in one pass: sorted, keys as in lane 0, the same
            # sum once both legs are moved by g^a2
            unpacked = every[a2]
            assert list(unpacked) == sorted(unpacked) and lane(lanes, acc, a2, -a2) == dict(unpacked)
            move = lanes.moved[a2]
            assert {move[k // n] * n + move[k % n]: w for k, w in unpacked} == read
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


def counit_reference(A, monomials=None):
    """The counit violations that plain Element arithmetic finds, in order, at ``monomials`` (default: the basis)."""
    p, s = A.p, A.s
    out = []
    for m in A.basis() if monomials is None else monomials:
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


def test_a_failed_per_monomial_proof_stops_at_its_first_violation(monkeypatch):
    """eps set to the character beta_1 (q^a on g^a, 0 off the group-likes) keeps *multiplicative* but fails the
    counit law at g on both legs and at x and y.  The proof draws the law at 1, g, x and y only up to its first
    violation, so it renders one side; the sweep renders each violation it reports once, and reports what plain
    Element arithmetic finds."""
    p = 5
    A = BookAlgebra(p, 2)
    A.counit_monomial = lambda m: root_power(p, m.a) if m.b == m.c == 0 else cyc_zero(p)
    assert _Proofs(A).multiplicative
    generators = [A.basis()[i] for i in (0, *A.generators)]
    assert [at for at, _, _ in counit_reference(A, generators)] == [
        "m=g (eps on left leg)", "m=g (eps on right leg)", "m=x (eps on right leg)", "m=y (eps on right leg)"]
    calls = counted_calls(monkeypatch, (StructureTable, "render"))
    result = check_counit_law(A).result("counit")
    assert found(result) == counit_reference(A) and len(result.violations) == 200
    assert (result.checked, result.mode) == (p ** 3, "exhaustive")
    assert calls == {"StructureTable.render": len(result.violations) + 1}


def law_route(check, A, refuse=False):
    """The outcome of a per-monomial check and whether the proof took it; ``refuse`` fails *steps*, the step
    premise that every one of these proofs needs, so the sweep runs.  A proved run compares at 1, g, x and y only,
    so it calls ``StructureTable.differs`` fewer than n times, and a sweep at least n times."""
    with pytest.MonkeyPatch.context() as patch:
        if refuse:
            patch.setattr(_Proofs, "steps", False)
        calls = counted_calls(patch, (StructureTable, "differs"))
        (result,) = check(A).results
    return (found(result), result.checked, result.mode), calls["StructureTable.differs"] < len(A.basis())


@pytest.mark.parametrize("p,s_values", [(3, range(3)), (5, range(5)), (7, range(7)), (11, [1, 10])])
def test_proved_per_monomial_laws_equal_the_sweep(p, s_values):
    """For every s the proofs hold, s = 0 included, where *multiplicative* fails but the step premises hold, and
    change no violation, checked or mode."""
    for s in s_values:
        A = BookAlgebra(p, s, permissive=True)
        assert _Proofs(A).multiplicative == (s != 0)
        for check in (check_coassociativity, check_counit_law, check_antipode_law):
            outcome, proved = law_route(check, A)
            assert proved and outcome == ([], p ** 3, "exhaustive")
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


def s0_kernel_runs(p):
    """The ``_Lanes.run`` calls of ``run_all`` on H(p, 0), derived from the negative control's predicates.

    Run (x^b1 y^c1, x^b2 y^c2) is bad, in all p lanes, iff c1 + c2 >= p and b1 + b2 < p, so law(t, x^b y^c g^a)
    fails only at t = y, c = p - 1, and the eps laws all hold.  The law table makes 3 p^2 runs.  The sweep takes
    the g-orbits x^b1 y^c1 in basis order, each yielding p^2 violations per bad run, up to the one that yields the
    cap-th; it vouches for 1 by the unit law, reads back x and y, and runs the kernel wherever the vouching lemma
    fails at the step x^b1 y^c1 = x x^(b1-1) y^c1, or y y^(c1-1) at b1 = 0.
    """
    def bad(b1, c1, b2, c2):
        return c1 + c2 >= p and b1 + b2 < p

    def law(t, b, c):
        return t != "y" or c != p - 1

    pairs = list(itertools.product(range(p), repeat=2))
    runs, violations = 3 * p * p, 0
    for b1, c1 in pairs:
        if violations >= MAX_VIOLATIONS_RENDERED:
            break
        violations += p * p * sum(bad(b1, c1, b2, c2) for b2, c2 in pairs)
        if (b1, c1) in ((0, 0), (0, 1), (1, 0)):
            continue
        t, bj, cj = ("x", b1 - 1, c1) if b1 else ("y", 0, c1 - 1)
        runs += sum(not (law(t, bj, cj) and not bad(bj, cj, b2, c2)
                         and (bj + b2 >= p or cj + c2 >= p or law(t, bj + b2, cj + c2))) for b2, c2 in pairs)
    return runs


@pytest.mark.parametrize("p,s", [(7, 3), (5, 0), (7, 0)])
def test_run_all_computes_each_verdict_once(monkeypatch, p, s):
    """One _Proofs serves the six checks, and associativity never sweeps, as *associative* is proved; a healthy
    H(7, 3) runs the 3 p^2 = 147 generator lane groups of the law table and no sweep, and the s = 0 control proves
    coassociativity, the counit and antipode laws on their step premises and sweeps only the bialgebra law, once,
    with the kernel runs that ``s0_kernel_runs`` derives from the predicates: one group per g-orbit of m1 and
    x^b2 y^c2, every orbit at p = 5, whose 3 750 violations stay below the cap, and at p = 7 only up to the orbit
    that renders the 10 000th violation, where the sweep stops.  eps is packed once, for the counit and antipode
    laws both."""
    calls = counted_calls(monkeypatch, (_Lanes, "run"), (_Lanes, "orbit"), (_Proofs, "__init__"),
                          (BookAlgebra, "counit_packed"))
    sweeps = counted_sweeps(monkeypatch)
    report = run_all(BookAlgebra(p, s, permissive=s == 0))
    assert report.passed if s else negative_control_matches(report, p)
    assert calls["_Proofs.__init__"] == 1 and calls["BookAlgebra.counit_packed"] == 1
    assert sweeps == ({} if s else {"bialgebra": 1})
    if s:
        assert calls["_Lanes.run"] == 147 and not calls["_Lanes.orbit"]
    else:
        assert calls["_Lanes.orbit"] == 1 and calls["_Lanes.run"] == s0_kernel_runs(p) < 3 * p * p + p ** 4


# -- the law table: vouched runs and step premises against the full routes ------------


def law_table_routes(A):
    """[(outcomes, kernel runs, swept axioms)] of the two routes of the four checks that read the law table, each
    outcome (violations, checked, mode) with one ``_Proofs`` shared.  The first refuses *multiplicative*, so the
    bialgebra sweep vouches and reads the table back, and the other three laws take their step premises; the
    second refuses the law table itself, so the kernel makes every run and every law is swept."""
    routes = []
    for refused, value in (("multiplicative", False), ("laws", None)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Proofs, refused, value)
            calls = counted_calls(patch, (_Lanes, "run"))
            sweeps = counted_sweeps(patch)
            proofs = _Proofs(A)
            outcomes = []
            for check in (check_coassociativity, check_counit_law, check_bialgebra_compat, check_antipode_law):
                (r,) = check(A, _proofs=proofs).results
                outcomes.append((found(r), r.checked, r.mode))
        routes.append((outcomes, calls["_Lanes.run"], set(sweeps)))
    return routes


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_at_s0_the_vouched_sweep_and_step_premises_equal_the_full_routes(p):
    """At s = 0 the step premises prove coassociativity, the counit and antipode laws, and the bialgebra sweep
    makes fewer kernel runs than the full route, with every result, cap included, unchanged."""
    (vouched, runs, swept), (full, all_runs, all_swept) = law_table_routes(BookAlgebra(p, 0, permissive=True))
    assert vouched == full and full[2][0]
    assert swept == {"bialgebra"} and all_swept == {"coassociativity", "counit", "bialgebra", "antipode"}
    assert runs == s0_kernel_runs(p) < all_runs


@pytest.mark.parametrize("case", [*DOCTORINGS, *(f"{how} at {p}" for how in ("orbit digit", "orbit extra term")
                                                 for p in (5, 7))])
def test_on_doctored_tables_the_vouched_sweep_and_step_premises_equal_the_full_routes(case):
    """Every doctored table, and the doctored orbits at p = 5 and 7, get the same four results whether the sweep
    vouches and the step premises are tried or the kernel makes every run and every law is swept."""
    how, _, p = case.partition(" at ")
    A = BookAlgebra(int(p), 2 if p == "5" else 3) if p else doctored_algebra(how)
    if p:
        doctor_orbit(A, how[6:])
    (vouched, runs, _), (full, all_runs, _) = law_table_routes(A)
    assert vouched == full and runs <= all_runs


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


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_negative_control_sites_equal_the_pair_predicate(p):
    """The predicted sites, read off the basis index, are those of the pair predicate over Monomial attributes."""
    basis = BookAlgebra(p, 0, permissive=True).basis()
    predicted = (
        f"Delta: m1={m1.render()}, m2={m2.render()}"
        for m1 in basis for m2 in basis if m1.c + m2.c >= p and m1.b + m2.b < p
    )
    assert axioms._negative_control_sites(p) == list(itertools.islice(predicted, MAX_VIOLATIONS_RENDERED))


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
