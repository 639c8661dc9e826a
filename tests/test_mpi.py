"""Modular pairs in involution: enumeration, twist, classification, oracles."""

import itertools
import json
import random

import pytest

from bookhopf import (
    BookAlgebra,
    Character,
    Classification,
    ConsistencyError,
    Element,
    GroupLike,
    Monomial,
    PairReport,
    Tensor2,
    check_convolution_inverse,
    classify,
    closed_form_predicate,
    cyc_one,
    cyc_zero,
    enumerate_characters,
    enumerate_group_likes,
    implements_s_squared,
    is_stable,
    root_power,
    run_all,
    twist,
)
from bookhopf import mpi
from oracles import (
    characters_reference,
    convolution_inverse_reference,
    delta2_twist_monomial,
    doctor_delta,
    doctor_product,
    negate_unit_row,
)


# -- enumeration ---------------------------------------------------------


def test_group_like_enumeration():
    A = BookAlgebra(3, 1)
    candidates = enumerate_group_likes(A)
    assert [l.i for l in candidates] == [0, 1, 2]
    assert candidates[0].element == A.one
    assert candidates[1].element == A.g
    assert GroupLike(A, 7).i == 1  # exponent wraps mod p


def test_character_enumeration():
    A = BookAlgebra(5, 2)
    characters = enumerate_characters(A)
    assert [beta.j for beta in characters] == [0, 1, 2, 3, 4]
    assert all(beta.on_g == root_power(5, beta.j) for beta in characters)


def test_character_zero_is_counit():
    A = BookAlgebra(3, 2)
    beta0 = Character(A, 0)
    for m in A.basis():
        assert beta0(m) == A.counit_monomial(m)


def test_characters_vanish_on_letters():
    A = BookAlgebra(5, 3)
    for beta in enumerate_characters(A):
        assert beta(Monomial(1, 0, 2)) == cyc_zero(5)  # x g^2
        assert beta(Monomial(0, 2, 1)) == cyc_zero(5)
        assert beta(A.x * A.g * A.g) == cyc_zero(5)


def test_character_evaluates_linearly():
    A = BookAlgebra(5, 2)
    beta = Character(A, 2)
    value = beta(3 * A.g + A.x)
    assert value == 3 * root_power(5, 2)


def test_character_exponent_matches_value():
    A = BookAlgebra(5, 2)
    for beta in enumerate_characters(A):
        for m in A.basis():
            e = beta.exponent(m)
            assert beta(m) == (cyc_zero(5) if e is None else root_power(5, e))


def element_route_multiplicative(A):
    """The j for which beta_j(e1 e2) = beta_j(m1) beta_j(m2) on all basis pairs.

    The reference route: Element products and Cyclotomic values throughout.
    """
    p, s = A.p, A.s
    basis = A.basis()
    elements = [Element.monomial(p, s, m) for m in basis]
    products = [[e1 * e2 for e2 in elements] for e1 in elements]
    found = []
    for j in range(p):
        beta = Character(A, j)
        values = [beta(m) for m in basis]
        if all(
            beta(products[i1][i2]) == v1 * v2
            for i1, v1 in enumerate(values)
            for i2, v2 in enumerate(values)
        ):
            found.append(j)
    return found


@pytest.mark.parametrize("p,s", [(p, s) for p in (3, 5) for s in range(p)])
def test_enumerate_characters_agrees_with_element_route(p, s):
    A = BookAlgebra(p, s, permissive=s == 0)
    assert [beta.j for beta in enumerate_characters(A)] == element_route_multiplicative(A)


G2, G3 = Monomial(0, 0, 2), Monomial(0, 0, 3)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_enumerate_characters_catches_one_wrong_product(p):
    A = BookAlgebra(p, 2)
    doctor_product(A, G2, G3, "q-exponent")  # g^2 g^3 = q g^5: beta_0 gives q, not 1
    with pytest.raises(ConsistencyError, match=r"^beta_0 not multiplicative at m1=g\^2, m2=g\^3$"):
        enumerate_characters(A)


@pytest.mark.parametrize(
    "how,j",
    [
        ("zero", 0),  # g^2 g^3 = 0: beta_0 gives 0, not 1
        ("monomial", 1),  # g^2 g^3 = g^6 (g at p = 5): beta_0 still gives 1, beta_1 does not
    ],
)
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_enumerate_characters_catches_a_zero_or_misplaced_product(p, how, j):
    A = BookAlgebra(p, 2)
    doctor_product(A, G2, G3, how)
    with pytest.raises(ConsistencyError, match=rf"^beta_{j} not multiplicative at m1=g\^2, m2=g\^3$"):
        enumerate_characters(A)


def character_outcome(characters_of, A):
    """The js of the characters, the text of the ConsistencyError, or IndexError for an entry read past the codes."""
    try:
        return [beta.j for beta in characters_of(A)]
    except ConsistencyError as error:
        return str(error)
    except IndexError:
        return IndexError


@pytest.mark.parametrize("p", [3, 5])
def test_enumerate_characters_equals_the_tuple_compare_on_doctored_group_parts(p):
    """Two codes per monomial decide every j: the same characters, or the same message, as the p-tuple compare,
    for each entry of the p x p corner (the g^a) doctored every way, and for zero products set to q^e g^a."""
    basis = BookAlgebra(p, 1).basis()
    outcomes = [character_outcome(enumerate_characters, BookAlgebra(p, 1))]
    assert outcomes == [character_outcome(characters_reference, BookAlgebra(p, 1))] == [list(range(p))]
    for m1, m2, how in itertools.product(basis[:p], basis[:p], ["zero", "q-exponent", "monomial"]):
        A = BookAlgebra(p, 1)
        doctor_product(A, m1, m2, how)
        outcomes.append(character_outcome(enumerate_characters, A))
        assert outcomes[-1] == character_outcome(characters_reference, A)
    n = len(basis)
    for i1, i2 in [(p * p, (p - 1) * p * p), (n - 1, n - 1), (p * (p - 1), p)]:  # x x^(p-1), the last, y^(p-1) y
        A = BookAlgebra(p, 1)
        assert A.product_table()[i1 * n + i2] == -1
        A._products[i1 * n + i2] = (i2 % p) * p + 1  # q g^a2
        outcomes.append(character_outcome(enumerate_characters, A))
        assert outcomes[-1] == character_outcome(characters_reference, A)
    assert sum(isinstance(o, str) for o in outcomes) == 3 * p * p + 3
    assert {o[:6] for o in outcomes[1:]} == {"beta_0", "beta_1"}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_the_zero_row_test_agrees_with_the_tuple_compare(p):
    """The rows of the m1 with b1 or c1 > 0 are decided by one test, and compared only where it fails: the same
    outcome as the p-tuple compare for an entry set to q g^a2 at the first of these rows' entries (m1 = y, m2 = 1),
    in the middle and at the last entry of the table, and for a middle entry set to the code of x (allowed) or to
    a code outside [-1, n p), which the compare reads as an index: -2 and n p pass, n p + 1 and -n p - 2 raise."""
    A = BookAlgebra(p, 1)
    basis, table = A.basis(), A.product_table()
    n = len(basis)
    middle = n // 2 * n + n // 2
    cases = [(p * n, None), (middle, None), (n * n - 1, None)]
    cases += [(middle, code) for code in (p * p, -2, n * p, n * p + 1, -n * p - 2)]
    outcomes = []
    for at, code in cases:
        healthy = table[at]
        table[at] = at % p * p + 1 if code is None else code  # q g^a2 for m2 = basis[at % n], a2 = at % p
        outcomes.append(character_outcome(enumerate_characters, A))
        assert outcomes[-1] == character_outcome(characters_reference, A), (at, code)
        table[at] = healthy
    names = [f"m1={basis[at // n].render()}, m2={basis[at % n].render()}" for at, _ in cases[:3]]
    assert names[0] == "m1=y, m2=1"
    assert outcomes == [*(f"beta_0 not multiplicative at {name}" for name in names), *[list(range(p))] * 3,
                        IndexError, IndexError]


# -- convolution inverse ---------------------------------------------------------


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (5, 2)])
def test_beta_composed_with_antipode_is_convolution_inverse(p, s):
    A = BookAlgebra(p, s)
    for beta in enumerate_characters(A):
        assert check_convolution_inverse(A, beta)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_convolution_inverse_off_the_table_matches_the_cyclotomic_sweep(p):
    """Every s and every beta_j at p <= 5; at p = 7, where the sweep is slow, j in {0, 1, p - 1}."""
    for s in range(p):
        A = BookAlgebra(p, s, permissive=True)
        for j in range(p) if p <= 5 else (0, 1, p - 1):
            beta = Character(A, j)
            assert check_convolution_inverse(A, beta) == convolution_inverse_reference(A, beta)
            assert check_convolution_inverse(A, beta)


@pytest.mark.parametrize("row,holds", [("S(g)", False), ("S(x)", True), ("Delta(g)", False)])
def test_convolution_inverse_reads_doctored_rows_like_the_cyclotomic_sweep(row, holds):
    """S(g) = -g^-1 or Delta(g) = 2 g (x) g breaks it for every beta; S(x) = x g^-1 is killed by beta."""
    A = BookAlgebra(5, 2)
    g, x = Monomial(0, 0, 1), Monomial(1, 0, 0)
    if row == "Delta(g)":
        doctor_delta(A, g, {(g, g): 2})
    else:
        negate_unit_row(A, "antipode", g if row == "S(g)" else x)
    for j in range(5):
        beta = Character(A, j)
        assert check_convolution_inverse(A, beta) == convolution_inverse_reference(A, beta) == holds


def test_convolution_identity_on_group_like():
    # beta(g) * beta(S(g)) = q^j q^-j = 1 = eps(g)
    A = BookAlgebra(3, 1)
    beta = Character(A, 1)
    assert beta(A.g) * beta(A.antipode(A.g)) == cyc_one(3)


# -- the twist ---------------------------------------------------------


@pytest.mark.parametrize("p,s", [(3, 2), (5, 2)])
def test_twist_fixes_g_for_every_pair(p, s):
    A = BookAlgebra(p, s)
    for l in enumerate_group_likes(A):
        for beta in enumerate_characters(A):
            assert twist(A, l, beta, A.g) == A.g


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (5, 2), (5, 4)])
def test_twist_generator_closed_forms(p, s):
    # T(x) = q^i beta(g)^-1 x and T(y) = q^(-i s) beta(g)^-s y
    A = BookAlgebra(p, s)
    for l in enumerate_group_likes(A):
        for beta in enumerate_characters(A):
            i = l.i
            assert twist(A, l, beta, A.x) == root_power(p, i) * beta.on_g ** -1 * A.x
            assert twist(A, l, beta, A.y) == (
                root_power(p, (-i * s) % p) * beta.on_g ** (-s) * A.y
            )


def test_twist_by_trivial_pair_is_identity():
    A = BookAlgebra(5, 2)
    l = GroupLike(A, 0)
    beta = Character(A, 0)
    for m in A.basis():
        el = Element.monomial(5, 2, m)
        assert twist(A, l, beta, el) == el


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2)])
def test_twist_is_algebra_automorphism(p, s):
    A = BookAlgebra(p, s)
    pairs = [(GroupLike(A, i), Character(A, j)) for i, j in [(0, 1), (1, 0), (2, 2)]]
    basis = A.basis()
    for l, beta in pairs:
        images = {m: twist(A, l, beta, Element.monomial(p, s, m)) for m in basis}
        for m1, m2 in itertools.product(basis, repeat=2):
            product = Element.monomial(p, s, m1) * Element.monomial(p, s, m2)
            assert twist(A, l, beta, product) == images[m1] * images[m2]


@pytest.mark.parametrize(
    "p,s", [(p, s) for p in (3, 5) for s in range(p)] + [(7, 2), (11, 5), (13, 9)]
)
def test_twist_matches_the_delta2_route(p, s):
    A = BookAlgebra(p, s, permissive=s == 0)
    if p <= 5:  # every pair on every basis monomial
        pairs = [(l, beta) for l in enumerate_group_likes(A) for beta in enumerate_characters(A)]
        monomials = A.basis()
    else:  # the implementing pair and one seeded pair, on g, x, y and 8 seeded monomials
        rng = random.Random(p)
        i = (1 + s) * pow(2, -1, p) % p
        pairs = [
            (GroupLike(A, i), Character(A, i - 1)),
            (GroupLike(A, rng.randrange(p)), Character(A, rng.randrange(p))),
        ]
        monomials = [Monomial(0, 0, 1), Monomial(1, 0, 0), Monomial(0, 1, 0), *rng.sample(A.basis(), 8)]
    for l, beta in pairs:
        for m in monomials:
            got = twist(A, l, beta, A.monomial_element(m))
            assert got == delta2_twist_monomial(A, l, beta, m), (l, beta, m)


def test_twist_validates_element():
    A, B = BookAlgebra(3, 1), BookAlgebra(5, 1)
    with pytest.raises(ValueError):
        twist(A, GroupLike(A, 1), Character(A, 0), B.x)


# -- implements / stable ---------------------------------------------------------


def test_implements_examples_h51():
    A = BookAlgebra(5, 1)
    assert implements_s_squared(A, GroupLike(A, 1), Character(A, 0))
    assert not implements_s_squared(A, GroupLike(A, 0), Character(A, 0))


def test_implements_examples_h52():
    A = BookAlgebra(5, 2)
    assert not implements_s_squared(A, GroupLike(A, 0), Character(A, 0))
    assert implements_s_squared(A, GroupLike(A, 4), Character(A, 3))


def test_stability_examples():
    A = BookAlgebra(5, 2)
    flag, value = is_stable(A, GroupLike(A, 0), Character(A, 3))
    assert flag and value == cyc_one(5)
    flag, value = is_stable(A, GroupLike(A, 4), Character(A, 3))
    assert not flag and value == root_power(5, 2)  # q^12 = q^2 != 1
    A1 = BookAlgebra(5, 1)
    flag, value = is_stable(A1, GroupLike(A1, 1), Character(A1, 0))
    assert flag and value == cyc_one(5)


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (5, 2)])
def test_stability_value_is_q_to_the_ij(p, s):
    A = BookAlgebra(p, s)
    for i in range(p):
        for j in range(p):
            _, value = is_stable(A, GroupLike(A, i), Character(A, j))
            assert value == root_power(p, (i * j) % p)


# -- closed form ---------------------------------------------------------


def test_closed_form_examples():
    assert closed_form_predicate(5, 1, 1, 0) == (True, True)
    assert closed_form_predicate(5, 4, 0, 4) == (True, True)
    assert closed_form_predicate(5, 2, 4, 3) == (True, False)
    assert closed_form_predicate(5, 2, 0, 0) == (False, True)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_closed_form_implements_is_a_singleton(p):
    inv2 = pow(2, -1, p)
    for s in range(1, p):
        winners = [
            (i, j)
            for i in range(p)
            for j in range(p)
            if closed_form_predicate(p, s, i, j)[0]
        ]
        assert winners == [(((1 + s) * inv2) % p, (((1 + s) * inv2) - 1) % p)]


# -- classification ---------------------------------------------------------


def test_classification_h51():
    c = classify(BookAlgebra(5, 1))
    assert c.mpi == ((1, 0),)
    assert c.implements == ((1, 0),)
    assert len(c.pairs) == 25


def test_classification_h52():
    c = classify(BookAlgebra(5, 2))
    assert c.mpi == ()
    assert c.implements == ((4, 3),)
    winner = next(r for r in c.pairs if r.implements_s2)
    assert (winner.i, winner.j) == (4, 3)
    assert not winner.stable
    assert winner.stability_value == root_power(5, 2)


def test_classification_h32():
    c = classify(BookAlgebra(3, 2))
    assert c.mpi == ((0, 2),)
    assert c.implements == ((0, 2),)


@pytest.mark.parametrize("p", [3, 5])
def test_mpi_exists_exactly_for_s_one_and_p_minus_one(p):
    for s in range(1, p):
        c = classify(BookAlgebra(p, s))
        assert bool(c.mpi) == (s in (1, p - 1))
        if s == 1:
            assert c.mpi == ((1, 0),)
        if s == p - 1:
            assert c.mpi == ((0, p - 1),)


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (5, 3)])
def test_generator_sufficiency_meta_property(p, s):
    # both T and S^2 are algebra maps, so agreement on {g, x, y} must be
    # equivalent to agreement everywhere; the brute force re-proves it
    A = BookAlgebra(p, s)
    for l in enumerate_group_likes(A):
        for beta in enumerate_characters(A):
            on_generators = all(
                twist(A, l, beta, gen) == A.s_squared(gen) for gen in (A.g, A.x, A.y)
            )
            assert implements_s_squared(A, l, beta) == on_generators


def test_classification_reports_ordered_and_complete():
    c = classify(BookAlgebra(3, 1))
    assert [(r.i, r.j) for r in c.pairs] == [
        (i, j) for i in range(3) for j in range(3)
    ]


def test_classification_json_round_trip():
    c = classify(BookAlgebra(5, 2))
    payload = json.loads(json.dumps(c.to_dict()))
    assert set(payload) == {"p", "s", "pairs", "mpi", "implements"}
    assert set(payload["pairs"][0]) == {"i", "j", "implements_s2", "stable", "beta_l"}
    restored = Classification.from_dict(payload)
    assert restored == c
    assert restored.mpi == c.mpi


def test_classification_from_dict_rejects_inconsistent_subsets():
    payload = classify(BookAlgebra(3, 1)).to_dict()
    payload["mpi"] = []
    with pytest.raises(ValueError):
        Classification.from_dict(payload)


@pytest.mark.parametrize("s", ["1", 7, 3, -1, True, 1.0, None])
def test_classification_from_dict_rejects_an_s_that_is_no_index(s):
    payload = classify(BookAlgebra(3, 1)).to_dict()
    assert Classification.from_dict(payload).s == 1
    with pytest.raises(ValueError, match=r"an int s in range\(p\)"):
        Classification.from_dict({**payload, "s": s})


@pytest.mark.parametrize("p", ["3", 3.0, True, None, 1, 2, 9])
def test_classification_from_dict_rejects_a_p_that_is_no_odd_prime(p):
    """A str p raised TypeError from the pair rows, and 9 is no p of H(p, s)."""
    payload = classify(BookAlgebra(3, 1)).to_dict()
    with pytest.raises(ValueError, match="needs an odd prime p"):
        Classification.from_dict({**payload, "p": p})


@pytest.mark.parametrize("row", [0, 3])  # (i=0, j=0) is stable, (i=1, j=0) is the MPI
def test_pair_report_from_dict_rejects_a_flipped_stable_flag(row):
    payload = classify(BookAlgebra(3, 1)).to_dict()["pairs"][row]
    assert PairReport.from_dict(3, payload).stable
    payload["stable"] = False
    with pytest.raises(ValueError, match="stable"):
        PairReport.from_dict(3, payload)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
@pytest.mark.parametrize("flag", ["implements_s2", "stable"])
def test_pair_report_from_dict_rejects_a_flag_that_is_no_bool(flag, value):
    """(i=0, j=0) is stable and does not implement S^2: "false" is truthy and would make it an MPI."""
    payload = classify(BookAlgebra(3, 1)).to_dict()["pairs"][0]
    assert not PairReport.from_dict(3, payload).is_mpi
    with pytest.raises(ValueError, match="flags that are bools"):
        PairReport.from_dict(3, {**payload, flag: value})


def pair_row_with(field, value):
    payload = classify(BookAlgebra(3, 1)).to_dict()["pairs"][4]  # (i=1, j=1)
    assert PairReport.from_dict(3, payload)[:2] == (1, 1)
    return {**payload, field: value}


@pytest.mark.parametrize("value", ["0", None, 1.0, True, -1, 3])
def test_pair_report_from_dict_rejects_an_i_that_is_no_index(value):
    with pytest.raises(ValueError, match=r"needs ints in range\(3\)"):
        PairReport.from_dict(3, pair_row_with("i", value))


@pytest.mark.parametrize("value", ["0", None, 1.0, False, -1, 3])
def test_pair_report_from_dict_rejects_a_j_that_is_no_index(value):
    with pytest.raises(ValueError, match=r"needs ints in range\(3\)"):
        PairReport.from_dict(3, pair_row_with("j", value))


def test_verdicts_are_computed_from_the_measured_fields():
    c = classify(BookAlgebra(5, 2))
    assert PairReport._fields == ("i", "j", "implements_s2", "stability_value")
    assert Classification._fields == ("p", "s", "pairs")
    for name in ("stable", "is_mpi"):
        assert isinstance(getattr(PairReport, name), property)
    for name in ("mpi", "implements"):
        assert isinstance(getattr(Classification, name), property)
    with pytest.raises(AttributeError):
        c.pairs[0].implements_s2 = True
    # any iterable of pairs is accepted and the subsets follow from it
    again = Classification(5, 2, (r for r in c.pairs))
    assert again == c and again.implements == ((4, 3),) and again.mpi == ()
    flipped = Classification(5, 2, [
        r._replace(stability_value=cyc_one(5)) if r.implements_s2 else r for r in c.pairs
    ])
    assert flipped.mpi == ((4, 3),)


def _doctor_delta_of_x(A):
    # the coefficient of x (x) g in Delta(x) becomes 2
    x, g = Monomial(1, 0, 0), Monomial(0, 0, 1)
    doctor_delta(A, x, {(Monomial(0, 0, 0), x): 1, (x, g): 2})


def _doctor_s_squared_of_x(A):
    negate_unit_row(A, "s_squared", Monomial(1, 0, 0))


@pytest.mark.parametrize("doctor", [_doctor_delta_of_x, _doctor_s_squared_of_x], ids=["delta", "s2"])
def test_classify_raises_when_brute_force_leaves_the_closed_form(doctor):
    A = BookAlgebra(5, 2)
    doctor(A)
    with pytest.raises(
        ConsistencyError, match=r"brute force disagrees with closed form at \(i=4, j=3\)"
    ):
        classify(A)


def test_checks_and_classify_read_the_structure_table_not_the_views():
    """After a passing run_all and classify, the Cyclotomic views hold only generators and group-likes."""
    A = BookAlgebra(7, 3)
    assert run_all(A).passed
    assert classify(A).implements == ((2, 1),)
    generators = {Monomial(0, 0, 0), Monomial(1, 0, 0), Monomial(0, 1, 0)}
    group_likes = {Monomial(0, 0, a) for a in range(7)}
    assert set(A._delta_mono) <= generators | group_likes
    assert set(A._antipode_mono) <= generators | {Monomial(0, 0, 1)}
    assert not A._s2_mono


def test_consistency_error_is_runtime_error():
    assert issubclass(ConsistencyError, RuntimeError)


# -- classify's per-character and per-group-like vectors ----------------------------


def _per_pair_route(A):
    """classify's outcome with one standalone implements_s_squared per pair.

    Returns (flags, at): the implements flags in classify's order, and the
    first (i, j) whose verdict leaves the closed form, where classify must
    raise, or None.
    """
    characters = enumerate_characters(A)
    flags = []
    for l in enumerate_group_likes(A):
        for beta in characters:
            implements = implements_s_squared(A, l, beta)
            cf_implements, cf_stable = closed_form_predicate(A.p, A.s, l.i, beta.j)
            if implements != cf_implements or (implements and is_stable(A, l, beta)[0] != cf_stable):
                return flags, (l.i, beta.j)
            flags.append(implements)
    return flags, None


@pytest.mark.parametrize("p,s", [(p, s) for p in (3, 5, 7) for s in range(p)])
def test_classify_flags_equal_standalone_implements_s_squared(p, s):
    A = BookAlgebra(p, s, permissive=s == 0)
    flags, at = _per_pair_route(A)
    assert at is None
    pairs = classify(A).pairs
    assert [(r.i, r.j) for r in pairs] == list(itertools.product(range(p), repeat=2))
    assert [r.implements_s2 for r in pairs] == flags


@pytest.mark.parametrize("p,s", [(5, 2), (7, 0), (7, 3)])
def test_implements_reads_1_g_x_y_first_and_a_failing_pair_fails_on_x_or_y(p, s):
    """The twist is compared on 1, g, x and y, then on the rest in basis order; a pair that does not implement S^2
    stops at x or y, and the verdict is the closed form's."""
    A = BookAlgebra(p, s, permissive=s == 0)
    n, (g, x, y) = A.dimension, A.generators
    for l in enumerate_group_likes(A):
        for beta in enumerate_characters(A):
            monomial, read = mpi._twist_monomial(A, mpi._conjugation(A, l), *mpi._character_vectors(A, beta)), []
            implements = mpi._implements(A, lambda i: read.append(i) or monomial(i))
            assert implements == closed_form_predicate(p, s, l.i, beta.j)[0]
            assert read[:4] == [0, g, x, y][:len(read)]
            if implements:
                assert read[4:] == [i for i in range(n) if i not in (0, g, x, y)]
            else:
                assert read[-1] in (x, y) and len(read) <= 4


XY = Monomial(1, 1, 0)
CLASSIFY_DOCTORINGS = {  # g^i xy and xy g^i g^-i are read by the conjugation by g^i, S(g^a) by every beta o S
    **{f"g^{i} xy {how}": lambda A, i=i, how=how: doctor_product(A, Monomial(0, 0, i), XY, how)
       for i in (2, 4) for how in ("zero", "q-exponent", "monomial")},
    **{f"xyg^{i} g^-{i} {how}": lambda A, i=i, how=how: doctor_product(A, Monomial(1, 1, i), Monomial(0, 0, -i % 5), how)
       for i in (2, 4) for how in ("zero", "q-exponent")},
    **{f"S(g^{a})": lambda A, a=a: negate_unit_row(A, "antipode", Monomial(0, 0, a)) for a in (1, 2)},
    "Delta(x)": _doctor_delta_of_x,
    "S^2(x)": _doctor_s_squared_of_x,
}


@pytest.mark.parametrize("doctor", CLASSIFY_DOCTORINGS.values(), ids=CLASSIFY_DOCTORINGS)
def test_a_doctored_table_gives_classify_the_per_pair_verdicts(doctor):
    """On H(5, 2), where (4, 3) implements S^2, classify raises where the per-pair route leaves the closed form."""
    A = BookAlgebra(5, 2)
    doctor(A)
    flags, at = _per_pair_route(A)
    if at is None:
        assert [r.implements_s2 for r in classify(A).pairs] == flags
    else:
        with pytest.raises(ConsistencyError, match=rf"at \(i={at[0]}, j={at[1]}\)"):
            classify(A)


@pytest.mark.parametrize("p", [5, 7])
def test_classify_every_s_in_one_process_equals_fresh_algebras(p):
    """The table pattern: each algebra is dropped before the next is built, which in CPython reuses its id."""
    got = []
    for s in range(1, p):
        A = BookAlgebra(p, s)
        got.append(classify(A).to_dict())
        del A
    algebras = {s: BookAlgebra(p, s) for s in reversed(range(1, p))}  # all alive at once, built the other way round
    assert got == [classify(algebras[s]).to_dict() for s in range(1, p)]


def test_classify_keeps_no_vector_across_calls():
    """An S row doctored after one classify is read by the next call, as by a standalone implements_s_squared."""
    A = BookAlgebra(5, 2)
    assert classify(A).implements == ((4, 3),)
    negate_unit_row(A, "antipode", Monomial(0, 0, 1))  # read by every beta o S
    assert not implements_s_squared(A, GroupLike(A, 4), Character(A, 3))
    with pytest.raises(ConsistencyError, match=r"at \(i=4, j=3\)"):
        classify(A)


def test_twist_and_implements_read_the_live_tables_after_classify():
    """A product-table entry doctored after classify is read by twist, implements_s_squared and classify."""
    A = BookAlgebra(5, 2)
    l, beta = GroupLike(A, 4), Character(A, 3)
    assert classify(A).implements == ((4, 3),)
    xy = A.monomial_element(XY)
    before = twist(A, l, beta, xy)  # only 1 (x) xy (x) g^3 of Delta^2(xy) survives beta, so g^4 xy g^-4 is its one read
    assert before != Element.zero(5, 2)
    doctor_product(A, Monomial(0, 0, 4), XY, "q-exponent")
    assert twist(A, l, beta, xy) == A.q * before
    assert not implements_s_squared(A, l, beta)
    with pytest.raises(ConsistencyError, match=r"at \(i=4, j=3\)"):
        classify(A)
