"""Exact arithmetic in Q(zeta_p): field axioms, inverses, rendering."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bookhopf import Cyclotomic, cyc_one, cyc_zero, root_power

PRIMES = [3, 5, 7]


def scalars(p):
    """Random elements of Q(zeta_p) with small rational coordinates."""
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.lists(coeff, min_size=p - 1, max_size=p - 1).map(
        lambda cs: sum(
            (c * root_power(p, i) for i, c in enumerate(cs) if c), cyc_zero(p)
        )
    )


# -- root-of-unity basics ---------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_root_has_order_p(p):
    q = root_power(p, 1)
    assert q ** p == cyc_one(p)
    assert all(q ** j != cyc_one(p) for j in range(1, p))


@pytest.mark.parametrize("p", PRIMES)
def test_power_index_wraps(p):
    for j in range(-2 * p, 2 * p):
        assert root_power(p, j) == root_power(p, j % p)


@pytest.mark.parametrize("p", PRIMES)
def test_minimal_polynomial(p):
    total = sum((root_power(p, i) for i in range(1, p)), cyc_one(p))
    assert total == cyc_zero(p)


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_of_root_is_conjugate_power(p):
    q = root_power(p, 1)
    assert q.inv() == root_power(p, p - 1)
    assert q ** -1 == root_power(p, p - 1)


# -- frozen values ---------------------------------------------------------


def test_inverse_of_one_plus_root_p5():
    q = root_power(5, 1)
    value = (cyc_one(5) + q).inv()
    assert value == -q - q ** 3
    assert value * (cyc_one(5) + q) == cyc_one(5)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        cyc_zero(5).inv()
    with pytest.raises(ZeroDivisionError):
        cyc_one(3) ** -1 * 0 + cyc_zero(3).inv()


def test_invalid_p_rejected():
    for bad in (0, 1, 2, 4, 9, -3):
        with pytest.raises(ValueError):
            root_power(bad, 1)


def test_mixing_different_p_raises():
    with pytest.raises(ValueError):
        root_power(3, 1) + root_power(5, 1)
    with pytest.raises(ValueError):
        root_power(3, 1) * root_power(5, 1)


# -- rational interplay ---------------------------------------------------------


def test_equality_and_hash_with_rationals():
    one = cyc_one(5)
    assert one == 1
    assert hash(one) == hash(1)
    half = Cyclotomic.from_rational(5, Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    assert root_power(5, 1) != 1


def test_as_rational_and_coeffs():
    q = root_power(7, 1)
    assert q.as_rational() is None
    assert (q * 0 + 3).as_rational() == Fraction(3)
    assert (2 * q).coeffs == (Fraction(0), Fraction(2)) + (Fraction(0),) * 4
    value = Fraction(-3, 2) * q ** 2
    assert value.coeffs[2] == Fraction(-3, 2)


def test_arithmetic_coerces_ints_and_fractions():
    q = root_power(5, 1)
    assert 1 + q == q + 1
    assert 2 * q - q == q
    assert q / 2 == Fraction(1, 2) * q
    assert (q + Fraction(1, 3)) - Fraction(1, 3) == q


# -- field axioms (hypothesis) -----------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_ring_axioms(p, data):
    a = data.draw(scalars(p))
    b = data.draw(scalars(p))
    c = data.draw(scalars(p))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + cyc_zero(p) == a
    assert a * cyc_one(p) == a
    assert a - a == cyc_zero(p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@given(data=st.data())
def test_multiplicative_inverses(p, data):
    a = data.draw(scalars(p))
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert a * a.inv() == cyc_one(p)
        assert a.inv().inv() == a
        assert a ** -2 == (a.inv()) ** 2


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_hash_agrees_with_equality(p, data):
    """A rational value hashes as its Fraction, whatever its route or p; equal values hash equal."""
    f = data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=12))
    q = root_power(p, 1)
    for c in (Cyclotomic.from_rational(p, f), Cyclotomic(p, [f]), (q + f) - q, f * q ** 0, Cyclotomic(3, [f])):
        assert c.as_rational() == f
        assert hash(c) == hash(c.as_rational()) == hash(f)
    if f.denominator == 1:
        assert hash(Cyclotomic(p, [f])) == hash(int(f))
    a, b = data.draw(scalars(p)), data.draw(scalars(p))
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    if b:
        assert (a * b) / b == a and hash((a * b) / b) == hash(a)


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_power_laws(p, data):
    a = data.draw(scalars(p))
    assert a ** 0 == cyc_one(p)
    assert a ** 3 == a * a * a
    b = data.draw(scalars(p))
    assert (a * b) ** 2 == a ** 2 * b ** 2


# -- rendering ---------------------------------------------------------


@pytest.mark.parametrize(
    "p,build,text",
    [
        (5, lambda q: cyc_zero(5), "0"),
        (5, lambda q: cyc_one(5), "1"),
        (5, lambda q: q, "q"),
        (5, lambda q: q ** 2, "q^2"),
        (5, lambda q: -q, "-q"),
        (5, lambda q: 1 - q, "1 - q"),
        (5, lambda q: 1 + q + q ** 3, "1 + q + q^3"),
        (5, lambda q: Fraction(1, 2) * q ** 2 - 1, "-1 + (1/2)q^2"),
        (3, lambda q: 2 * q - Fraction(3, 4), "-3/4 + 2q"),
        (5, lambda q: q ** 4, "-1 - q - q^2 - q^3"),
    ],
)
def test_render_frozen(p, build, text):
    assert build(root_power(p, 1)).render() == text


@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_parse_inverts_render(p, data):
    a = data.draw(scalars(p))
    assert Cyclotomic.parse(p, a.render()) == a


def test_parse_frozen_strings():
    q = root_power(5, 1)
    assert Cyclotomic.parse(5, "1 - q + (1/2)q^2") == 1 - q + Fraction(1, 2) * q ** 2
    assert Cyclotomic.parse(5, "0") == cyc_zero(5)
    assert Cyclotomic.parse(5, "-q^3") == -(q ** 3)
    with pytest.raises(ValueError):
        Cyclotomic.parse(5, "totally not a scalar")
    with pytest.raises(ValueError):
        Cyclotomic.parse(5, "q +")


# -- cross-check against sympy ---------------------------------------------------------


def _random_scalar(rng, p):
    """A seeded scalar: general, a rational times a power of q, or rational."""
    kind = rng.randrange(3)
    if kind == 0:
        return Cyclotomic(p, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(p - 1)])
    scale = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
    return root_power(p, rng.randrange(p) if kind == 1 else 0) * scale


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_mul_and_inv_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    phi = sympy.cyclotomic_poly(p, t)

    def to_sympy(z):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * t ** e for e, c in enumerate(z.coeffs)),
            sympy.Integer(0),
        )

    def reduce(expr):
        return sympy.Poly(sympy.rem(sympy.expand(expr), phi, t), t)

    rng = random.Random(p)
    for _ in range(40):
        a, b = _random_scalar(rng, p), _random_scalar(rng, p)
        assert reduce(to_sympy(a) * to_sympy(b)) == sympy.Poly(to_sympy(a * b), t)
        if a:
            assert reduce(to_sympy(a) * to_sympy(a.inv())) == sympy.Poly(1, t)
            assert a.inv().inv() == a
