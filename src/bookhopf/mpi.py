"""Search for modular pairs in involution on the book Hopf algebras H(p, s).

A modular pair in involution is a group-like element l together with a
character beta such that twisting by the pair reproduces the square of the
antipode and beta kills l:

    S^2(h) = beta(h_1) l h_2 l^{-1} beta^{-1}(h_3)   and   beta(l) = 1,

where h_1 (x) h_2 (x) h_3 runs over the iterated coproduct of h and
beta^{-1} = beta o S is the convolution inverse of beta.

This module enumerates the candidate group-likes l = g^i and the characters
beta_j (determined by beta(g) = q^j), evaluates the twist by brute force on
every basis monomial, and classifies all p^2 pairs.  Each brute-force verdict
is cross-checked against the closed-form congruences

    implements S^2  <=>  j = i - 1  and  (1 - 2i + s) s = 0   (mod p),
    stable on the implementing locus  <=>  i (i - 1) = 0      (mod p),

and any disagreement aborts the run: the agreement of the two routes is the
point of the computation, so neither side is ever silently preferred.
"""

from itertools import chain
from math import prod
from typing import NamedTuple

from .cyclotomic import Cyclotomic, cyc_one, cyc_zero, is_odd_prime, root_power
from .pbw import Element, Monomial, Tensor2


class ConsistencyError(RuntimeError):
    """Two independently computed routes to the same fact disagree.

    Raised when a verified-at-construction invariant fails or when the
    brute-force classification contradicts the closed-form congruences;
    either way it signals a kernel bug, not bad user input.
    """


class GroupLike:
    """A group-like element l = g^i of H(p, s), verified at construction.

    Group-likeness (Delta(l) = l (x) l and eps(l) = 1) is checked through the
    actual structure maps rather than assumed from the form of l.
    """

    __slots__ = ("algebra", "i", "element", "inverse")

    def __init__(self, algebra, i):
        p = algebra.p
        self.algebra = algebra
        self.i = i % p
        mono = Monomial(0, 0, self.i)
        self.element = algebra.monomial_element(mono)
        self.inverse = algebra.monomial_element(Monomial(0, 0, (p - self.i) % p))
        if algebra.coproduct_monomial(mono) != Tensor2.pure(p, algebra.s, mono, mono):
            raise ConsistencyError(f"candidate g^{self.i} is not group-like under Delta")
        if algebra.counit_monomial(mono) != cyc_one(p):
            raise ConsistencyError(f"candidate g^{self.i} has counit != 1")
        if self.element * self.inverse != Element.unit(p, algebra.s):
            raise ConsistencyError(f"g^{self.i} * g^{p - self.i} != 1")

    def __repr__(self):
        return f"GroupLike(g^{self.i})"


class Character:
    """The algebra character beta_j of H(p, s): beta(g) = q^j, beta(x) = beta(y) = 0.

    Any character must kill x and y (the commutation relation g x = q x g
    forces (1 - q) beta(g) beta(x) = 0 with beta(g) invertible, likewise for
    y), so it is determined by its value on g, a p-th root of unity.  Every
    value on a basis monomial is therefore 0 or a power of q, and
    :meth:`exponent` is the one place that says which.  The constructor
    re-checks each relation of ``BookAlgebra.relations`` under this assignment;
    ``enumerate_characters`` additionally verifies full multiplicativity on
    every basis pair, comparing q-exponents.
    """

    __slots__ = ("algebra", "j", "on_g")

    def __init__(self, algebra, j):
        p = algebra.p
        self.algebra = algebra
        self.j = j % p
        self.on_g = root_power(p, self.j)
        self._verify_relations()

    def exponent(self, mono):
        """k with beta(x^b y^c g^a) = q^k, i.e. j*a mod p when b = c = 0; None for 0."""
        if mono.b or mono.c:
            return None
        return (self.j * mono.a) % self.algebra.p

    def __call__(self, h):
        """Evaluate the character on a Monomial or an Element."""
        if isinstance(h, Monomial):
            e = self.exponent(h)
            return cyc_zero(self.algebra.p) if e is None else root_power(self.algebra.p, e)
        return sum((coeff * self(mono) for mono, coeff in h.terms.items()), cyc_zero(self.algebra.p))

    def _verify_relations(self):
        """Each relation of ``BookAlgebra.relations`` holds under g -> q^j, x, y -> 0."""
        p = self.algebra.p
        values = {"g": self.on_g, "x": cyc_zero(p), "y": cyc_zero(p)}

        def beta(word):  # of the product of a word's letters; None is the zero word
            return cyc_zero(p) if word is None else prod(map(values.__getitem__, word), start=cyc_one(p))

        for name, lhs, e, rhs in self.algebra.relations():
            if beta(lhs) != root_power(p, e) * beta(rhs):
                raise ConsistencyError(f"character beta_{self.j} violates {name}")

    def __repr__(self):
        return f"Character(beta(g)=q^{self.j})"


def enumerate_group_likes(algebra):
    """The p verified group-like candidates g^0, ..., g^(p-1)."""
    return [GroupLike(algebra, i) for i in range(algebra.p)]


def enumerate_characters(algebra):
    """The p characters beta_j, each verified multiplicative on all basis pairs.

    Every value of a character on a basis monomial is 0 or a power of q, and
    m1 m2 is q^e m12 or 0, so beta_j(m1 m2) = beta_j(m1) beta_j(m2) is an
    identity between q-exponents mod p, with None standing for 0.  By
    ``Character.exponent`` the exponent of beta_j on a monomial is None for
    every j or j a, affine in j, and so are those of both sides: the
    identity holds for every j iff it holds for j = 0 and 1.  So a value is
    coded k0 p + k1 by its exponents under beta_0 and beta_1, -1 for 0, and
    as in the associativity check one row of the product table gives the
    codes of beta(m1 m2) for every m2, compared as one list with the row of
    beta(m1) beta(m2), built once per code of m1.  A failure names the first
    pair in basis order and the first j that fails there.

    Only the p rows of the g^a are compared when one test passes on the
    rest of the table, the rows of the m1 with b1 or c1 > 0, which is the
    slice after the first p n entries.  On such a row every beta_j(m1) is 0,
    so beta(m1) beta(m2) is coded -1 for every m2, and so is beta(m1 m2)
    exactly when the entry is -1 or the code t p + e of a monomial basis[t]
    with b or c > 0, that is t >= p.  So a row of entries in {-1} and
    [p^2, n p) passes the compare, and the test asks exactly that of the
    whole slice at C speed: ``issuperset`` on slices of p rows, faster at
    p = 13 than on one copy of the slice or on an ``islice``.  Where it
    fails, those rows are compared too, so the first failing pair and j are
    named as before.  The compare reads an entry outside [-1, n p) through
    ``lhs_of`` as an index, so it may let such an entry pass, or raise
    IndexError, where the test fails: the compare has the last word, and
    the outcome on any table is the compare's.
    """
    p = algebra.p
    basis = algebra.basis()
    n = len(basis)
    table = algebra.product_table()
    characters = [Character(algebra, j) for j in range(p)]
    codes = [-1 if (k := characters[0].exponent(m)) is None else k * p + characters[1].exponent(m) for m in basis]

    def times(u, v):  # the code of beta(m) beta(m') from those of m and m'
        return -1 if u < 0 or v < 0 else (u // p + v // p) % p * p + (u + v) % p

    lhs_of = [-1] * (n * p + 1)  # lhs_of[t * p + e] is the code of q^e basis[t]; lhs_of[-1] that of 0
    for t, u in enumerate(codes):
        if u >= 0:
            lhs_of[t * p:(t + 1) * p] = [times(u, e * p + e) for e in range(p)]
    allowed = frozenset([-1, *range(p * p, n * p)])  # the entries on which a row of a zero beta(m1) passes
    passes = all(allowed.issuperset(table[i1 * n:(i1 + p) * n]) for i1 in range(p, n, p))  # p rows a slice
    rows = {}
    for i1, m1 in enumerate(basis[:p] if passes else basis):
        u = codes[i1]
        if u not in rows:  # times(u, v) for every code v in [0, p^2) and -1, read off for the codes of the basis
            rows[u] = list(map([*(times(u, v) for v in range(p * p)), -1].__getitem__, codes))
        lhs, rhs = list(map(lhs_of.__getitem__, table[i1 * n:(i1 + 1) * n])), rows[u]
        if lhs != rhs:
            i2 = next(i2 for i2 in range(n) if lhs[i2] != rhs[i2])
            j = int(min(lhs[i2], rhs[i2]) >= 0 and lhs[i2] // p == rhs[i2] // p)  # beta_0 fails unless k0 agrees
            raise ConsistencyError(f"beta_{j} not multiplicative at m1={m1.render()}, m2={basis[i2].render()}")
    return characters


def check_convolution_inverse(algebra, beta):
    """Whether beta o S is the two-sided convolution inverse of beta.

    Verifies sum beta(m_1) beta(S(m_2)) = eps(m) = sum beta(S(m_1)) beta(m_2)
    over the coproduct legs of every basis monomial, off the structure
    table: beta is q^k or 0 on a basis monomial (``Character.exponent``), so
    beta o S is a unit code or None there, and each term adds its rotated Delta
    coefficient on the side its sign picks; eps(m) is added to the minus side.
    """
    A = algebra
    p, table = A.p, A.structure_table()
    beta_of, beta_of_s = _character_vectors(A, beta)
    eps = A.counit_packed()
    for i, row in enumerate(table.delta):
        for left in (True, False):  # beta(m_1) beta(S m_2), then beta(S m_1) beta(m_2)
            plus, minus = {}, {0: eps[i]}
            for u, v, r in row:
                k, code = (beta_of[u], beta_of_s[v]) if left else (beta_of[v], beta_of_s[u])
                if k is not None and code is not None:
                    side = minus if code >= p else plus
                    side[0] = side.get(0, 0) + r[(code + k) % p]
            if table.differs(plus, minus):
                return False
    return True


def _character_vectors(algebra, beta):
    """beta and beta o S on every basis monomial: q-exponents, and unit codes (k for q^k, k + p for -q^k); None for 0."""
    beta_of = [beta.exponent(m) for m in algebra.basis()]
    p, antipode = algebra.p, algebra.structure_table().antipode
    return beta_of, [None if (k := beta_of[t]) is None else code - code % p + (code + k) % p for t, code in antipode]


def _conjugation(algebra, l):
    """The code of g^i basis[t] g^-i for every t, -1 for 0, off the product table."""
    A = algebra
    p, n, products = A.p, A.dimension, A.product_table()
    gi, g_inv = (A.basis_index(Monomial(0, 0, e % p)) for e in (l.i, -l.i))
    codes = [(c, -1 if c < 0 else products[c // p * n + g_inv]) for c in products[gi * n:(gi + 1) * n]]
    return [-1 if d < 0 else d - d % p + (c + d) % p for c, d in codes]


def _twist_monomial(algebra, conjugated, beta_of, beta_of_s):
    """The twist by (l, beta) of basis[i], as packed sums (plus, minus) by basis index.

    beta(h_1) l h_2 l^{-1} beta(S h_3) is summed over (Delta (x) id) Delta off
    the structure table: u (x) h_3 in Delta(m) is skipped when beta(S h_3) = 0,
    before Delta(u) is read, and h_1 (x) h_2 in Delta(u) when beta(h_1) = 0.
    beta(S h_3) = +-q^k picks the side; g^i h_2 g^-i is read off ``conjugated``.
    ``classify`` builds beta_of and beta_of_s once per character and
    ``conjugated`` once per group-like; ``twist`` and ``implements_s_squared`` per call.
    """
    p, rows = algebra.p, algebra.structure_table().delta

    def monomial(i):
        plus, minus = {}, {}
        for u, m3, r in rows[i]:
            if (v3 := beta_of_s[m3]) is None:
                continue
            side = minus if v3 >= p else plus
            for m1, m2, r2 in rows[u]:
                if (v1 := beta_of[m1]) is not None and (c := conjugated[m2]) >= 0:
                    side[c // p] = side.get(c // p, 0) + r[(v3 + v1 + c) % p] * r2[0]
        return plus, minus

    return monomial


def twist(algebra, l, beta, h):
    """T(h) = beta(h_1) l h_2 l^{-1} beta^{-1}(h_3), extended linearly.

    beta^{-1} = beta o S (see check_convolution_inverse); Delta^2 is never built.
    """
    A = algebra
    table, monomial = A.structure_table(), _twist_monomial(A, _conjugation(A, l), *_character_vectors(A, beta))
    total = Element.zero(A.p, A.s)
    for mono, coeff in A._own(h).terms.items():
        terms = table.decoded(*monomial(A.basis_index(mono)))
        total = total + Element._raw(A.p, A.s, terms).scale(coeff)
    return total


def implements_s_squared(algebra, l, beta):
    """Whether the twist by (l, beta) equals S^2 on every basis monomial.

    Full brute force: although both maps are algebra maps (so the generators
    would suffice), every one of the p^3 monomials is compared with its S^2
    row +-q^k basis[t], added as X^k on the side opposite its sign.
    """
    return _implements(algebra, _twist_monomial(algebra, _conjugation(algebra, l), *_character_vectors(algebra, beta)))


def _implements(algebra, monomial):
    """Whether the twist ``monomial`` (see ``_twist_monomial``) equals S^2 on every basis monomial.

    1, g, x and y are compared first, then the rest in basis order, and the verdict is the same.  A pair that
    does not implement S^2 fails on x or y, so every pair at p = 7 reads 3 monomials in the median, where in
    basis order it read 8 of 343 (14 of 2 197 at p = 13).
    """
    p, n, table = algebra.p, algebra.dimension, algebra.structure_table()
    g, x, y = algebra.generators
    for i in chain((0, g, x, y), range(2, y), range(y + 1, x), range(x + 1, n)):
        t, code = table.s_squared[i]
        plus, minus = monomial(i)
        side = plus if code >= p else minus
        side[t] = side.get(t, 0) + (1 << code % p * table.width)
        if table.differs(plus, minus):
            return False
    return True


def is_stable(algebra, l, beta):
    """Evaluate beta(l); the pair is stable when the value is 1."""
    value = beta(l.element)
    return value == cyc_one(algebra.p), value


def closed_form_predicate(p, s, i, j):
    """(implements, stable) from the proof congruences; pure modular arithmetic.

    implements  <=>  j = i - 1 (mod p)  and  (1 - 2i + s) s = 0 (mod p)
    stable      <=>  i (i - 1) = 0 (mod p)

    The stable congruence is the exponent test for beta(l) = q^(i(i-1)) and
    therefore presupposes j = i - 1; it is only meaningful on implementing
    pairs (see classify for how the two routes are reconciled off that locus).
    """
    implements = (j - i + 1) % p == 0 and ((1 - 2 * i + s) * s) % p == 0
    stable = (i * (i - 1)) % p == 0
    return implements, stable


class PairReport(NamedTuple):
    """Brute-force verdict for one pair (g^i, beta_j); stable (beta(l) = 1) and is_mpi are computed."""

    i: int
    j: int
    implements_s2: bool
    stability_value: Cyclotomic

    @property
    def stable(self):
        return self.stability_value == 1

    @property
    def is_mpi(self):
        return self.implements_s2 and self.stable

    def to_dict(self):
        return {
            "i": self.i,
            "j": self.j,
            "implements_s2": self.implements_s2,
            "stable": self.stable,
            "beta_l": self.stability_value.render(),
        }

    @classmethod
    def from_dict(cls, p, payload):
        i, j = payload["i"], payload["j"]  # "0" or a bool would read as an index, and "false" is truthy
        if not (type(i) is type(j) is int and 0 <= i < p and 0 <= j < p) or any(
                type(payload[flag]) is not bool for flag in ("implements_s2", "stable")):
            raise ValueError(f"(i={i!r}, j={j!r}) needs ints in range({p}) and flags that are bools")
        out = cls(i, j, payload["implements_s2"], Cyclotomic.parse(p, payload["beta_l"]))
        if out.stable != payload["stable"]:
            raise ValueError(f"stable flag inconsistent with beta_l at (i={out.i}, j={out.j})")
        return out


class Classification(NamedTuple("Classification", [("p", int), ("s", int), ("pairs", tuple)])):
    """All p^2 pair verdicts for one H(p, s); the MPI and implements subsets are computed."""

    __slots__ = ()

    def __new__(cls, p, s, pairs):  # any iterable of pairs, kept as a tuple
        return super().__new__(cls, p, s, tuple(pairs))

    @property
    def mpi(self):
        return tuple((r.i, r.j) for r in self.pairs if r.is_mpi)

    @property
    def implements(self):
        return tuple((r.i, r.j) for r in self.pairs if r.implements_s2)

    def to_dict(self):
        return {
            "p": self.p,
            "s": self.s,
            "pairs": [r.to_dict() for r in self.pairs],
            "mpi": [{"i": i, "j": j} for (i, j) in self.mpi],
            "implements": [{"i": i, "j": j} for (i, j) in self.implements],
        }

    @classmethod
    def from_dict(cls, payload):
        p, s = payload["p"], payload["s"]  # a str or a bool is neither, and 7 is no s of H(3, s)
        if not (type(p) is type(s) is int and is_odd_prime(p) and 0 <= s < p):
            raise ValueError(f"(p={p!r}, s={s!r}) needs an odd prime p and an int s in range(p)")
        out = cls(p, s, [PairReport.from_dict(p, row) for row in payload["pairs"]])
        if out.mpi != tuple((row["i"], row["j"]) for row in payload["mpi"]):
            raise ValueError("mpi subset inconsistent with pair flags")
        if out.implements != tuple((row["i"], row["j"]) for row in payload["implements"]):
            raise ValueError("implements subset inconsistent with pair flags")
        return out


def classify(algebra):
    """Brute-force all p^2 pairs (g^i, beta_j) and cross-check the closed form.

    For every pair the twist is compared with S^2 on all basis monomials and
    beta(l) is evaluated; the verdicts must agree with closed_form_predicate.
    The implements flags are compared on every pair.  The stable flags are
    compared on implementing pairs only, because the closed-form stable
    congruence presupposes the implementing locus; off that locus the check
    that keeps both routes honest is the exponent shadow beta(l) = q^(i*j),
    which is asserted for every pair.  Any disagreement raises
    ConsistencyError naming the offending (i, j).  beta and beta o S on the
    basis are built once per character, and g^i m g^-i once per group-like.
    """
    A = algebra
    p, s = A.p, A.s
    group_likes = enumerate_group_likes(A)
    characters = enumerate_characters(A)
    vectors = [_character_vectors(A, beta) for beta in characters]
    reports = []
    for l in group_likes:
        conjugated = _conjugation(A, l)
        for beta, (beta_of, beta_of_s) in zip(characters, vectors):
            i, j = l.i, beta.j
            implements = _implements(A, _twist_monomial(A, conjugated, beta_of, beta_of_s))
            stable, value = is_stable(A, l, beta)
            if value != root_power(p, (i * j) % p):
                raise ConsistencyError(
                    f"beta(l) != q^(i*j) at (i={i}, j={j}): got {value.render()}"
                )
            cf_implements, cf_stable = closed_form_predicate(p, s, i, j)
            if implements != cf_implements or (implements and stable != cf_stable):
                raise ConsistencyError(
                    f"brute force disagrees with closed form at (i={i}, j={j}): "
                    f"brute (implements={implements}, stable={stable}) vs "
                    f"closed form (implements={cf_implements}, stable={cf_stable})"
                )
            reports.append(PairReport(i, j, implements, value))
    return Classification(p, s, reports)
