"""PBW monomials, closed-form products, and the sparse linear algebra."""

import itertools

import pytest
from hypothesis import given, strategies as st

from bookhopf import (
    Cyclotomic,
    Element,
    Monomial,
    Tensor2,
    Tensor3,
    cyc_one,
    mono_mul,
    mono_mul_exp,
    root_power,
)
from bookhopf.pbw import accumulate, join_terms, term_text
from oracles import normal_form, sum_text, word_of

ONE = Monomial(0, 0, 0)


def monomials(p):
    e = st.integers(min_value=0, max_value=p - 1)
    return st.builds(Monomial, e, e, e)


def all_monomials(p):
    return [Monomial(b, c, a) for b in range(p) for c in range(p) for a in range(p)]


# -- closed-form product ---------------------------------------------------------


def test_commutation_exponents_frozen():
    # g x = q x g, g y = q^-s y g, y x = q^s x y, read off single products
    p, s = 5, 2
    g, x, y = Monomial(0, 0, 1), Monomial(1, 0, 0), Monomial(0, 1, 0)
    assert mono_mul_exp(g, x, p, s) == (1, Monomial(1, 0, 1))
    assert mono_mul_exp(g, y, p, s) == ((-s) % p, Monomial(0, 1, 1))
    assert mono_mul_exp(y, x, p, s) == (s, Monomial(1, 1, 0))
    # and the already-ordered products pick up no scalar
    assert mono_mul_exp(x, g, p, s) == (0, Monomial(1, 0, 1))
    assert mono_mul_exp(x, y, p, s) == (0, Monomial(1, 1, 0))


@pytest.mark.parametrize("p,s", [(3, 1), (5, 2)])
def test_nilpotent_letters_kill_products(p, s):
    assert mono_mul_exp(Monomial(p - 1, 0, 0), Monomial(1, 0, 0), p, s) is None
    assert mono_mul_exp(Monomial(0, p - 1, 0), Monomial(1, 1, 0), p, s) is None
    assert mono_mul_exp(Monomial(2, 2, 0), Monomial(p - 2, 0, 0), p, s) is None


@pytest.mark.parametrize("p,s", [(3, 1), (5, 2), (7, 4)])
def test_unit_monomial_is_neutral(p, s):
    for m in all_monomials(p) if p < 7 else [Monomial(3, 2, 5)]:
        assert mono_mul_exp(ONE, m, p, s) == (0, m)
        assert mono_mul_exp(m, ONE, p, s) == (0, m)


@pytest.mark.parametrize("p,s", [(3, 2), (5, 1), (7, 3)])
def test_g_has_order_p(p, s):
    g = Monomial(0, 0, 1)
    e, acc = 0, ONE
    for _ in range(p):
        step = mono_mul_exp(acc, g, p, s)
        e, acc = (e + step[0]) % p, step[1]
    assert (e, acc) == (0, ONE)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_closed_form_matches_rewrite_oracle_p3(s):
    p = 3
    basis = all_monomials(p)
    for m1 in basis:
        for m2 in basis:
            expected = normal_form(word_of(m1) + word_of(m2), p, s)
            assert mono_mul_exp(m1, m2, p, s) == expected


@given(data=st.data())
def test_closed_form_matches_rewrite_oracle_p5_sampled(data):
    p, s = 5, data.draw(st.integers(min_value=0, max_value=4))
    m1 = data.draw(monomials(p))
    m2 = data.draw(monomials(p))
    assert mono_mul_exp(m1, m2, p, s) == normal_form(word_of(m1) + word_of(m2), p, s)


def test_mono_mul_wraps_exponent_into_scalar():
    p, s = 5, 2
    g, x = Monomial(0, 0, 1), Monomial(1, 0, 0)
    assert mono_mul(g, x, p, s) == (root_power(p, 1), Monomial(1, 0, 1))
    assert mono_mul(Monomial(4, 0, 0), x, p, s) is None


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2)])
def test_product_associative_exhaustive(p, s):
    basis = all_monomials(p)
    for m1, m2, m3 in itertools.product(basis, repeat=3):
        left = mono_mul_exp(m1, m2, p, s)
        if left is not None:
            left = mono_mul_exp(left[1], m3, p, s)
            if left is not None:
                left = ((left[0] + mono_mul_exp(m1, m2, p, s)[0]) % p, left[1])
        right = mono_mul_exp(m2, m3, p, s)
        if right is not None:
            e23 = right[0]
            right = mono_mul_exp(m1, right[1], p, s)
            if right is not None:
                right = ((right[0] + e23) % p, right[1])
        assert left == right


# -- rendering ---------------------------------------------------------


@pytest.mark.parametrize(
    "mono,text",
    [
        (Monomial(0, 0, 0), "1"),
        (Monomial(1, 0, 0), "x"),
        (Monomial(0, 1, 0), "y"),
        (Monomial(0, 0, 1), "g"),
        (Monomial(2, 1, 4), "x^2 y g^4"),
        (Monomial(0, 3, 1), "y^3 g"),
    ],
)
def test_monomial_render_frozen(mono, text):
    assert mono.render() == text
    assert Monomial.parse(text) == mono


def test_monomial_parse_rejects_junk():
    with pytest.raises(ValueError):
        Monomial.parse("x^2 z")
    with pytest.raises(ValueError):
        Monomial.parse("")


def test_monomial_parse_round_trip_all_p5():
    for m in all_monomials(5):
        assert Monomial.parse(m.render()) == m


# -- sparse elements ---------------------------------------------------------


def test_accumulate_drops_exactly_the_cancelled_keys():
    p = 5
    q = root_power(p, 1)
    assert accumulate([]) == {}
    assert accumulate(iter(())) == {}
    # "x" cancels to zero and is dropped; "y" cancels and comes back
    acc = accumulate([("x", q), ("y", q), ("x", -q), ("y", -q), ("y", q * q), ("z", 1 + q)])
    assert acc == {"y": q * q, "z": 1 + q}
    assert accumulate([("x", 2), ("x", -2), ("x", 3)]) == {"x": 3}


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2))))
def test_accumulate_matches_a_plain_sum(pairs):
    acc = accumulate(pairs)
    assert all(acc.values())  # no stored coefficient is zero
    totals = {}
    for key, coeff in pairs:
        totals[key] = totals.get(key, 0) + coeff
    assert acc == {key: tot for key, tot in totals.items() if tot}


def test_element_linear_structure():
    p, s = 5, 2
    x = Element.monomial(p, s, Monomial(1, 0, 0))
    y = Element.monomial(p, s, Monomial(0, 1, 0))
    g = Element.monomial(p, s, Monomial(0, 0, 1))
    assert (x + y) * g == x * g + y * g
    assert 3 * x - x - x - x == Element.zero(p, s)
    assert (x - x) == Element.zero(p, s)
    assert x * Element.unit(p, s) == x
    assert bool(x) and not bool(x - x)
    assert len(x + y) == 2


def test_element_product_uses_commutation():
    p, s = 5, 2
    q = root_power(p, 1)
    x = Element.monomial(p, s, Monomial(1, 0, 0))
    g = Element.monomial(p, s, Monomial(0, 0, 1))
    assert g * x == q * (x * g)


def test_element_nilpotency():
    p, s = 3, 1
    x = Element.monomial(p, s, Monomial(1, 0, 0))
    power = Element.unit(p, s)
    for _ in range(p):
        power = power * x
    assert power == Element.zero(p, s)


def test_element_render_frozen():
    p, s = 5, 2
    q = root_power(p, 1)
    x = Element.monomial(p, s, Monomial(1, 0, 0))
    g = Element.monomial(p, s, Monomial(0, 0, 1))
    assert (x + q * g).render() == "q g + x"
    assert ((1 + q) * x).render() == "(1 + q) x"
    assert (-(x * g)).render() == "-x g"
    assert Element.zero(p, s).render() == "0"


def cyclotomics(p):
    """Small values of Q(zeta_p), 0 and the units +-q^k included."""
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return st.lists(coeff, max_size=p).map(lambda cs: Cyclotomic(p, cs)) | st.builds(
        lambda sign, k: sign * root_power(p, k), st.sampled_from([1, -1]), st.integers(0, p - 1)
    )


@given(data=st.data())
def test_join_terms_renders_the_sparse_sums(data):
    """_Sparse.render, join_terms and an independent spelling agree on random Elements, Tensor2s and Tensor3s.

    The terms passed to join_terms keep their zero coefficients, which it must drop.
    """
    p, s = 5, 2
    cls, legs = data.draw(st.sampled_from([(Element, 1), (Tensor2, 2), (Tensor3, 3)]))
    keys = monomials(p) if legs == 1 else st.tuples(*[monomials(p)] * legs)
    terms = data.draw(st.dictionaries(keys, cyclotomics(p), max_size=6))
    texts = [(cls._render_key(key), c.render()) for key, c in sorted(terms.items())]
    assert cls(p, s, terms).render() == join_terms(texts) == sum_text(texts)


@given(data=st.data())
def test_a_term_is_its_empty_key_prefix_and_its_key_text(data):
    """The property StructureTable.render builds on: for a key text other than "1" a term's text is the empty key
    text's followed by the key text; a coefficient "0" has none."""
    p = 5
    ctext = data.draw(cyclotomics(p)).render()
    ktext = " (x) ".join(m.render() for m in data.draw(st.lists(monomials(p), min_size=2, max_size=3)))
    prefix = term_text(ctext, "")
    assert term_text(ctext, ktext) == (prefix and prefix + ktext)
    assert (prefix == "") == (ctext == "0")


def test_mixing_parameters_raises():
    x3 = Element.monomial(3, 1, Monomial(1, 0, 0))
    x5 = Element.monomial(5, 1, Monomial(1, 0, 0))
    x52 = Element.monomial(5, 2, Monomial(1, 0, 0))
    with pytest.raises(ValueError):
        x3 + x5
    with pytest.raises(ValueError):
        x5 * x52


@pytest.mark.parametrize("cls", [Element, Tensor2, Tensor3])
def test_scalar_multiples_are_what_coerce_takes(cls):
    """A scalar from another field raises _coerce's ValueError on both sides; a non-scalar is a TypeError."""
    h = cls.unit(5, 2)
    assert h * 2 == 2 * h == h.scale(2)
    assert h * root_power(5, 1) == root_power(5, 1) * h == h.scale(root_power(5, 1))
    for product in (lambda: h * root_power(3, 1), lambda: root_power(3, 1) * h):
        with pytest.raises(ValueError, match=r"Q\(zeta_5\) and Q\(zeta_3\)"):
            product()
    for product in (lambda: h * "x", lambda: "x" * h, lambda: h * 1.5, lambda: 1.5 * h):
        with pytest.raises(TypeError):
            product()


# -- tensors ---------------------------------------------------------


def test_tensor2_legwise_product_frozen():
    # (x (x) g) * (1 (x) x) = q * (1 (x) x) * (x (x) g) = x (x) q x g
    p, s = 5, 2
    q = root_power(p, 1)
    xg = Tensor2.pure(p, s, Monomial(1, 0, 0), Monomial(0, 0, 1))
    ox = Tensor2.pure(p, s, Monomial(0, 0, 0), Monomial(1, 0, 0))
    assert xg * ox == q * (ox * xg)
    assert (xg * ox).render() == "q x (x) x g"


def test_tensor3_legwise_product():
    p, s = 3, 1
    t = Tensor3.pure(p, s, Monomial(0, 0, 1), Monomial(0, 0, 1), Monomial(0, 0, 1))
    unit = Tensor3.unit(p, s)
    assert t * unit == t
    cube = unit
    for _ in range(p):
        cube = cube * t
    assert cube == unit


@given(data=st.data())
def test_pure_tensor_products_are_legwise(data):
    """A product of two pure tensors is the pure tensor of the leg-wise mono_mul products, or 0 if a leg vanishes."""
    p = data.draw(st.sampled_from([3, 5, 7]))
    s = data.draw(st.integers(0, p - 1))
    cls, legs = data.draw(st.sampled_from([(Tensor2, 2), (Tensor3, 3)]))
    k1, k2 = (data.draw(st.tuples(*[monomials(p)] * legs)) for _ in range(2))
    c1, c2 = data.draw(cyclotomics(p)), data.draw(cyclotomics(p))
    legwise = [mono_mul(u, v, p, s) for u, v in zip(k1, k2)]
    if None in legwise:
        expected = cls.zero(p, s)
    else:
        coeff = c1 * c2
        for c, _ in legwise:
            coeff = coeff * c
        expected = cls.pure(p, s, *(m for _, m in legwise), coeff)
    assert cls.pure(p, s, *k1, c1) * cls.pure(p, s, *k2, c2) == expected


def test_tensor_zero_legs_drop():
    p, s = 3, 1
    t = Tensor2.pure(p, s, Monomial(2, 0, 0), Monomial(0, 0, 1))
    u = Tensor2.pure(p, s, Monomial(1, 0, 0), Monomial(0, 0, 1))
    assert t * u == Tensor2.zero(p, s)  # x^2 * x = x^3 = 0 on the first leg
