"""Structure maps of H(p, s): coproduct, counit, antipode, iterates."""

import itertools
import random
from array import array

import pytest

from bookhopf import (
    BookAlgebra,
    Element,
    Monomial,
    Tensor2,
    Tensor3,
    cyc_one,
    cyc_zero,
    is_odd_prime,
    mono_mul_exp,
    root_power,
)
from bookhopf.hopf import bilinear_rows
from bookhopf.pbw import accumulate
from oracles import (
    GeneratorPowers,
    bilinear_table_reference,
    gaussian_binomial,
    product_table_reference,
    structure_table_reference,
)


def test_is_odd_prime():
    assert [n for n in range(20) if is_odd_prime(n)] == [3, 5, 7, 11, 13, 17, 19]
    assert not is_odd_prime(2)
    assert not is_odd_prime(121)
    assert is_odd_prime(97)
    assert not is_odd_prime(7.0)


def test_one_primality_test():
    import bookhopf.cyclotomic

    assert is_odd_prime is bookhopf.cyclotomic.is_odd_prime


# -- construction ---------------------------------------------------------


def test_construct_validates_p():
    for bad in (0, 1, 2, 4, 6, 9, -5):
        with pytest.raises(ValueError):
            BookAlgebra(bad, 1)


def test_construct_validates_s():
    for bad in (-1, 5, 17, "1"):
        with pytest.raises(ValueError):
            BookAlgebra(5, bad)


@pytest.mark.parametrize("p,s", [(5, True), (5, False), (True, 1), (False, 0)])
def test_construct_rejects_a_bool(p, s):
    """A bool is an int, but BookAlgebra(5, True) would print as s=True and read g y = q^-True y g."""
    with pytest.raises(ValueError, match=f"^{'s' if type(p) is int else 'p'} must be"):
        BookAlgebra(p, s, permissive=True)


def test_s_zero_needs_permissive():
    with pytest.raises(ValueError, match="permissive"):
        BookAlgebra(5, 0)
    algebra = BookAlgebra(5, 0, permissive=True)
    assert algebra.permissive
    assert algebra.s == 0


def test_basic_fields():
    A = BookAlgebra(5, 2)
    assert A.dimension == 125
    assert A.q == root_power(5, 1)
    assert len(A.basis()) == 125
    assert A.basis()[0] == Monomial(0, 0, 0)
    assert A.one == Element.unit(5, 2)


def test_foreign_elements_rejected():
    A3, A5 = BookAlgebra(3, 1), BookAlgebra(5, 1)
    with pytest.raises(ValueError):
        A5.coproduct(A3.x)
    with pytest.raises(ValueError):
        A3.antipode(A5.g)
    with pytest.raises(TypeError):
        A3.coproduct("x")


# -- coproduct ---------------------------------------------------------


def test_coproduct_generators():
    p, s = 5, 2
    A = BookAlgebra(p, s)
    g, x, y, one = Monomial(0, 0, 1), Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 0)
    assert A.coproduct(A.g) == Tensor2.pure(p, s, g, g)
    assert A.coproduct(A.one) == Tensor2.pure(p, s, one, one)
    assert A.coproduct(A.x) == Tensor2(p, s, {(one, x): 1, (x, g): 1})
    gs = Monomial(0, 0, s)
    assert A.coproduct(A.y) == Tensor2(p, s, {(one, y): 1, (y, gs): 1})


def test_coproduct_x_squared_frozen():
    p, s = 5, 2
    A = BookAlgebra(p, s)
    q = A.q
    got = A.coproduct_monomial(Monomial(2, 0, 0))
    want = Tensor2(
        p,
        s,
        {
            (Monomial(0, 0, 0), Monomial(2, 0, 0)): 1,
            (Monomial(1, 0, 0), Monomial(1, 0, 1)): 1 + q,
            (Monomial(2, 0, 0), Monomial(0, 0, 2)): 1,
        },
    )
    assert got == want
    assert got.render() == "1 (x) x^2 + (1 + q) x (x) x g + x^2 (x) g^2"


@pytest.mark.parametrize("p,s", [(3, 1), (5, 2), (7, 3), (5, 0), (11, 3)])
def test_coproduct_powers_match_gaussian_binomials(p, s):
    A = BookAlgebra(p, s, permissive=s == 0)
    for b in range(p):
        got = A.coproduct_monomial(Monomial(b, 0, 0))
        want = {
            (Monomial(k, 0, 0), Monomial(b - k, 0, k)): gaussian_binomial(b, k, p)
            for k in range(b + 1)
        }
        assert got == Tensor2(p, s, want)
    for c in range(p):
        got = A.coproduct_monomial(Monomial(0, c, 0))
        want = {
            (Monomial(0, k, 0), Monomial(0, c - k, (s * k) % p)): gaussian_binomial(
                c, k, p, base_exp=(-s * s) % p
            )
            for k in range(c + 1)
        }
        assert got == Tensor2(p, s, want)


@pytest.mark.parametrize(
    "p,s,a_values",
    [pytest.param(p, s, range(p), id=f"{p}-{s}-every-a") for p in (3, 5, 7) for s in range(p)]
    + [
        pytest.param(p, s, (0, 1, p - 1), id=f"{p}-{s}-a-in-0-1-{p - 1}")
        for p in (11, 13)
        for s in (0, 1, p - 1)
    ],
)
def test_closed_forms_match_generator_powers(p, s, a_values):
    # Delta, S and S^2 of every basis monomial with g-exponent in a_values: the
    # views, and the integer rows of the structure table decoded through the fold
    A = BookAlgebra(p, s, permissive=s == 0)
    reference = GeneratorPowers(A)
    table, basis = A.structure_table(), A.basis()

    def unit_row(t, code):
        return A.monomial_element(basis[t], (-1 if code >= p else 1) * root_power(p, code))

    for a in a_values:
        for b in range(p):
            for c in range(p):
                m = Monomial(b, c, a)
                i = A.basis_index(m)
                delta, antipode = reference.coproduct(m), reference.antipode(m)
                assert A.coproduct_monomial(m) == delta, m
                assert A.antipode_monomial(m) == antipode, m
                # rotation e, then a shift by j digits past digit p - 1, folded back and undone
                decoded = Tensor2(p, s, {
                    (basis[u], basis[v]): table.decode(r[e] << j * table.width, -(e + j) % p)
                    for u, v, r in table.delta[i]
                    for e, j in [((u + v) % p, (u * v + 1) % p)]
                })
                assert decoded == delta, m
                assert unit_row(*table.antipode[i]) == antipode, m
                (t, _), = antipode.terms.items()
                s_squared = reference.antipode(t).scale(antipode.terms[t])
                assert unit_row(*table.s_squared[i]) == s_squared == A.s_squared_monomial(m), m


def test_coproduct_is_algebra_map_p3():
    A = BookAlgebra(3, 2)
    basis = A.basis()
    for m1 in basis:
        for m2 in basis:
            lhs = A.coproduct(Element.monomial(3, 2, m1) * Element.monomial(3, 2, m2))
            rhs = A.coproduct_monomial(m1) * A.coproduct_monomial(m2)
            assert lhs == rhs


# -- counit ---------------------------------------------------------


def test_counit_values():
    A = BookAlgebra(5, 2)
    assert A.counit(A.g) == cyc_one(5)
    assert A.counit(A.x) == cyc_zero(5)
    assert A.counit(A.y) == cyc_zero(5)
    mixed = 3 * (A.g * A.g) + A.x * A.y
    assert A.counit(mixed) == 3  # eps(3 g^2 + x y) = 3 by linearity
    for m in A.basis():
        expected = cyc_one(5) if (m.b, m.c) == (0, 0) else cyc_zero(5)
        assert A.counit_monomial(m) == expected


# -- antipode ---------------------------------------------------------


def test_antipode_generators():
    p, s = 5, 2
    A = BookAlgebra(p, s)
    assert A.antipode(A.g) == Element.monomial(p, s, Monomial(0, 0, p - 1))
    assert A.antipode(A.one) == A.one
    assert A.antipode(A.x) == Element(p, s, {Monomial(1, 0, p - 1): -1})
    assert A.antipode(A.y) == Element(p, s, {Monomial(0, 1, (p - s) % p): -1})


def test_antipode_xg_frozen():
    # S(xg) = S(g) S(x) = -g^-1 x g^-1 = -q^-1 x g^(p-2)
    p, s = 5, 2
    A = BookAlgebra(p, s)
    got = A.antipode(A.x * A.g)
    want = -(A.q.inv()) * Element.monomial(p, s, Monomial(1, 0, p - 2))
    assert got == want
    assert got.render() == "(1 + q + q^2 + q^3) x g^3"


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (5, 2)])
def test_antipode_is_anti_map(p, s):
    A = BookAlgebra(p, s)
    basis = A.basis()
    for m1 in basis:
        for m2 in basis:
            product = Element.monomial(p, s, m1) * Element.monomial(p, s, m2)
            lhs = A.antipode(product)
            rhs = A.antipode_monomial(m2) * A.antipode_monomial(m1)
            assert lhs == rhs


# -- the square of the antipode ---------------------------------------------------


@pytest.mark.parametrize("p,s", [(3, 1), (5, 2), (5, 4), (7, 3)])
def test_s_squared_generator_values(p, s):
    A = BookAlgebra(p, s)
    q = A.q
    assert A.s_squared(A.g) == A.g
    assert A.s_squared(A.x) == q * A.x
    assert A.s_squared(A.y) == q ** (-s * s) * A.y


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (5, 4)])
def test_s_squared_diagonal_closed_form(p, s):
    # S^2(x^b y^c g^a) = q^(b - s^2 c) x^b y^c g^a
    A = BookAlgebra(p, s)
    for m in A.basis():
        scale = root_power(p, (m.b - s * s * m.c) % p)
        assert A.s_squared_monomial(m) == scale * Element.monomial(p, s, m)


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (5, 2)])
def test_s_squared_has_order_exactly_p(p, s):
    A = BookAlgebra(p, s)
    image = A.x
    for _ in range(p):
        image = A.s_squared(image)
    assert image == A.x
    # no smaller order: iterating k < p times scales x by q^k != 1
    image = A.x
    for k in range(1, p):
        image = A.s_squared(image)
        assert image != A.x


# -- double coproduct ---------------------------------------------------------


def test_delta2_frozen():
    p, s = 5, 2
    A = BookAlgebra(p, s)
    one, g, x = Monomial(0, 0, 0), Monomial(0, 0, 1), Monomial(1, 0, 0)
    assert A.delta2(A.g) == Tensor3.pure(p, s, g, g, g)
    assert A.delta2(A.one) == Tensor3.pure(p, s, one, one, one)
    want = Tensor3(
        p, s, {(one, one, x): 1, (one, x, g): 1, (x, g, g): 1}
    )
    assert A.delta2(A.x) == want


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (5, 2)])
def test_delta2_is_coassociative(p, s):
    # (Delta (x) id) Delta == (id (x) Delta) Delta, assembled independently
    A = BookAlgebra(p, s)
    for m in A.basis():
        left = A.delta2_monomial(m)
        right = Tensor3.zero(p, s)
        for (m1, m2), c in A.coproduct_monomial(m).terms.items():
            for (u, v), d in A.coproduct_monomial(m2).terms.items():
                right = right + Tensor3.pure(p, s, m1, u, v, c * d)
        assert left == right


# -- memoization hygiene ---------------------------------------------------------


def test_structure_maps_are_pure():
    A = BookAlgebra(5, 2)
    m = Monomial(3, 2, 1)
    first = A.coproduct_monomial(m)
    second = A.coproduct_monomial(m)
    assert first == second and first is second  # memoized
    assert A.antipode_monomial(m) is A.antipode_monomial(m)


# -- the basis-index product table ---------------------------------------------------


@pytest.mark.parametrize(
    "p,s,draws",
    [(3, 1, None), (3, 0, None), (5, 2, None), (7, 3, None), (11, 4, 20_000), (13, 6, 20_000)],
)
def test_product_table_matches_closed_form(p, s, draws):
    A = BookAlgebra(p, s, permissive=s == 0)
    assert A._products is None  # built on first use, never in __init__
    table = A.product_table()
    assert A.product_table() is table
    basis = A.basis()
    n = len(basis)
    assert len(table) == n * n
    assert [A.basis_index(m) for m in basis] == list(range(n))
    if draws is None:
        pairs = itertools.product(range(n), repeat=2)
    else:
        rng = random.Random(p * s)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(draws)]
    for i, j in pairs:
        r = mono_mul_exp(basis[i], basis[j], p, s)
        code = table[i * n + j]
        if r is None:
            assert code == -1
        else:
            assert code >= 0 and (code % p, basis[code // p]) == r


@pytest.mark.parametrize(
    "p,s",
    [(p, s) for p in (3, 5, 7) for s in range(p)] + [(p, s) for p in (11, 13) for s in (0, 1, 2, p - 1)],
)
def test_product_table_equals_the_per_product_reference(p, s):
    """The block fill equals the mono_mul_exp fill as one whole array, permissive s = 0 included."""
    table = BookAlgebra(p, s, permissive=s == 0).product_table()
    reference = product_table_reference(p, s)
    assert table.typecode == reference.typecode == "i"
    assert table == reference


@pytest.mark.parametrize("p,s", [(p, s) for p in (3, 5, 7, 11) for s in range(p)])
def test_structure_table_equals_the_row_at_a_time_reference(p, s):
    """The block fill equals the row-at-a-time fill at every s: every Delta row with all p rotations, S, S^2, R,
    R^2 and the width, permissive s = 0 included."""
    table = BookAlgebra(p, s, permissive=s == 0).structure_table()
    reference = structure_table_reference(p, s)
    assert (table.root, table.bound, table.width) == (reference.root, reference.bound, reference.width)
    assert table.antipode == reference.antipode
    assert table.s_squared == reference.s_squared
    assert len(table.delta) == p ** 3
    for i, (row, expected) in enumerate(zip(table.delta, reference.delta)):
        assert [(u, v, tuple(r)) for u, v, r in row] == expected, i


def bilinear_exponents(p, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(p) for _ in range(3)) for _ in range(count)]


@pytest.mark.parametrize(
    "p,exponents",
    [(3, list(itertools.product(range(3), repeat=3))), (5, bilinear_exponents(5, 6, 5)), (7, bilinear_exponents(7, 2, 7))],
)
def test_bilinear_rows_equal_the_entrywise_formula(p, exponents):
    """The block builder of product_table, at every (alpha, beta, gamma) at p = 3 and a seeded few at p = 5 and 7,
    equals the table filled one entry at a time; an exponent taken mod p or not gives the same table."""
    n = p ** 3
    for alpha, beta, gamma in exponents:
        rows = list(bilinear_rows(p, alpha, beta, gamma))
        assert len(rows) == n
        table = array("i", b"".join(rows))
        assert table == bilinear_table_reference(p, alpha, beta, gamma), (alpha, beta, gamma)
        assert b"".join(bilinear_rows(p, alpha - p, beta + p, gamma - 2 * p)) == table.tobytes()


# -- rendering a packed sum straight from the structure table -------------------------


def decoded_tensor(A, packed, e, legs):
    """The Tensor2 or Tensor3 whose terms are the packed sum's values decoded at q^e."""
    table, basis = A.structure_table(), A.basis()
    n = len(basis)
    terms = accumulate(
        (tuple(basis[k // n ** j % n] for j in reversed(range(legs))), table.decode(v, e)) for k, v in packed.items()
    )
    return (Tensor2 if legs == 2 else Tensor3)._raw(A.p, A.s, terms)


@pytest.mark.parametrize("p,s", [(3, 1), (5, 2), (7, 0)])
def test_packed_sum_renders_as_its_decoded_tensor(p, s):
    """StructureTable.render equals Tensor2/Tensor3 render of the decoded terms, at every rotation q^e."""
    A = BookAlgebra(p, s, permissive=s == 0)
    table, basis = A.structure_table(), A.basis()
    n = len(basis)
    # -1, a coefficient of several terms, and 1 + q + ... + q^(p-1) = 0, by their lifts
    named = {"-1": (0,) + (1,) * (p - 1), "1 + q": (1, 1) + (0,) * (p - 2), "0": (1,) * p}
    named = {text: table.pack(digits) for text, digits in named.items()}
    assert {text: table.decode(v).render() for text, v in named.items()} == {text: text for text in named}
    assert table.render({}) == table.render({}, legs=3) == "0"
    assert table.render({n + 1: named["0"]}) == "0"  # a value that decodes to 0 drops its term
    assert table.render({1: named["-1"], n: named["1 + q"], n + 1: named["0"]}) == "-1 (x) g + (1 + q) g (x) 1"
    assert table.render({2 * n * n: named["-1"]}, legs=3) == "-g^2 (x) 1 (x) 1"
    # Delta rows, products of two rows' values (2p - 1 digits, unfolded) and the named values, at random keys
    rng = random.Random(p)
    row_values = [r[0] for row in table.delta for _, _, r in row]
    values = [*named.values(), *row_values, *(rng.choice(row_values) * rng.choice(row_values) for _ in range(20))]
    sums = [{}, *({u * n + v: r[0] for u, v, r in table.delta[t]} for t in rng.sample(range(n), 8))]
    for legs in (2, 3):
        sums += [{rng.randrange(n ** legs): rng.choice(values) for _ in range(rng.randrange(1, 12))} for _ in range(20)]
        for packed in sums:
            for e in range(p):
                assert table.render(packed, e, legs) == decoded_tensor(A, packed, e, legs).render()
    for t in range(n):
        e = t % p
        row = {u * n + v: r[0] for u, v, r in table.delta[t]}
        assert table.render(row, e) == A.coproduct_monomial(basis[t]).scale(root_power(p, e)).render()
