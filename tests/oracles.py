"""Independent slow-route oracles used only by the tests.

The library multiplies PBW monomials through a closed-form exponent and
reads Delta and S of a basis monomial off closed forms (q-binomial sums and
a single signed power of q).  The oracles here recompute the same objects by
more elementary means — one adjacent-letter swap at a time, a textbook
recurrence, the generator images of the paper multiplied out power by power,
or the whole Delta^2 image — so tests can compare two genuinely different
routes to the same value.
``convolution_inverse_reference`` is the per-monomial ``Cyclotomic`` sweep
that ``check_convolution_inverse`` replaced, and ``product_table_reference``
the ``mono_mul_exp`` fill that ``BookAlgebra.product_table`` replaced, and
``characters_reference`` the p-tuple compare that ``enumerate_characters``
replaced, and ``associativity_by_generators`` the generator route that the
cocycle premise ``_Proofs.associative`` replaced.  ``bilinear_table_reference``
fills the table of ``hopf.bilinear_rows`` one entry at a time, and ``structure_table_reference`` is the
row-at-a-time fill that the block fill of ``BookAlgebra.structure_table`` replaced.
``live_bialgebra_violations`` multiplies Delta(m1) Delta(m2) out in ``Cyclotomic`` arithmetic with every product
read off the live product table, the slow route of the bialgebra check's per-pair route.
``law_table_multiplicative`` is the law-table verdict that the presentation premise
``_Proofs.multiplicative`` replaced, and ``anti_multiplicative_reference`` the 4 n compare that
``_Proofs.anti_multiplicative`` replaced.
``lane`` reads one lane of a bialgebra accumulator per violation, and ``own_run_texts`` renders every Delta
violation from m1's own lane group run through it, as the bialgebra sweep did before it unpacked each lane once
and rendered each distinct text once.
``doctor_product`` breaks one entry of the product table, and
``doctor_delta`` and ``negate_unit_row`` one row of the structure table, so
that the tests can show the fast checks notice.
"""

from array import array
from itertools import chain, product
from math import comb
from operator import itemgetter
from types import SimpleNamespace

from bookhopf import Character, ConsistencyError, Cyclotomic, Element, Monomial, Tensor2, cyc_one, cyc_zero, root_power
from bookhopf.axioms import _Proofs
from bookhopf.hopf import StructureTable, _digits, _pack, _q_binomial_rows, _rotated, lift
from bookhopf.pbw import accumulate, basis_monomials, mono_mul_exp

_ORDER = {"x": 0, "y": 1, "g": 2}


def word_of(mono):
    """The letters of a monomial in normal order, e.g. (2,1,1) -> 'xxyg'."""
    return "x" * mono.b + "y" * mono.c + "g" * mono.a


def normal_form(word, p, s):
    """Straighten a word in the letters x, y, g one adjacent swap at a time.

    Returns (e, Monomial) meaning q^e * x^b y^c g^a, or None when a letter
    count reaches p (x^p = y^p = 0 kill the word).  Only the two-letter
    exchange rules are used:

        g x -> q     x g    (exponent +1)
        g y -> q^-s  y g    (exponent -s)
        y x -> q^s   x y    (exponent +s)
    """
    letters = list(word)
    e = 0
    swapped = True
    while swapped:
        swapped = False
        for k in range(len(letters) - 1):
            u, v = letters[k], letters[k + 1]
            if _ORDER[u] <= _ORDER[v]:
                continue
            if u == "g" and v == "x":
                e += 1
            elif u == "g" and v == "y":
                e -= s
            else:  # y x
                e += s
            letters[k], letters[k + 1] = v, u
            swapped = True
    b = letters.count("x")
    c = letters.count("y")
    a = letters.count("g")
    if b >= p or c >= p:
        return None
    return e % p, Monomial(b, c, a % p)


def gaussian_binomial(n, k, p, base_exp=1):
    """The Gaussian binomial [n choose k] in base q^base_exp over Q(zeta_p).

    Computed by the q-Pascal recurrence [n k] = [n-1 k-1] + q^k [n-1 k],
    which is the convention the coproduct construction realises:
    Delta(x^b) = sum_k [b k]_q x^k (x) x^(b-k) g^k, and Delta(y^c) the same
    shape in base q^(-s^2) with g^(s k) on the right leg.
    """
    if k < 0 or k > n:
        return cyc_zero(p)
    if k == 0 or k == n:
        return cyc_one(p)
    return gaussian_binomial(n - 1, k - 1, p, base_exp) + root_power(
        p, (base_exp * k) % p
    ) * gaussian_binomial(n - 1, k, p, base_exp)


class _Powers:
    """The powers u^0, u^1, ... of one value u, grown on demand."""

    def __init__(self, unit, u):
        self.u = u
        self.row = [unit]

    def __getitem__(self, k):
        while len(self.row) <= k:
            self.row.append(self.row[-1] * self.u)
        return self.row[k]


class GeneratorPowers:
    """Delta and S of basis monomials of ``A`` from powers of the generator images.

    The images are written out as in the paper:

        Delta(g) = g (x) g,  Delta(x) = 1 (x) x + x (x) g,  Delta(y) = 1 (x) y + y (x) g^s
        S(g) = g^-1,  S(x) = -x g^-1,  S(y) = -y g^-s

    Delta(x^b y^c g^a) = Delta(x)^b Delta(y)^c Delta(g)^a and
    S(x^b y^c g^a) = S(g)^a S(y)^c S(x)^b are multiplied out with ``Tensor2``
    and ``Element`` products, the powers of each generator grown once.
    """

    def __init__(self, A):
        p, s = A.p, A.s
        one, x, y, g = Monomial(0, 0, 0), Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 1)
        delta_images = {
            "x": Tensor2(p, s, {(one, x): 1, (x, g): 1}),
            "y": Tensor2(p, s, {(one, y): 1, (y, Monomial(0, 0, s)): 1}),
            "g": Tensor2(p, s, {(g, g): 1}),
        }
        antipode_images = {
            "x": Element(p, s, {Monomial(1, 0, p - 1): -1}),
            "y": Element(p, s, {Monomial(0, 1, -s % p): -1}),
            "g": Element(p, s, {Monomial(0, 0, p - 1): 1}),
        }
        self.delta_powers = {k: _Powers(Tensor2.unit(p, s), u) for k, u in delta_images.items()}
        self.antipode_powers = {k: _Powers(Element.unit(p, s), u) for k, u in antipode_images.items()}

    def coproduct(self, mono):
        d = self.delta_powers
        return d["x"][mono.b] * d["y"][mono.c] * d["g"][mono.a]

    def antipode(self, mono):
        s = self.antipode_powers
        return s["g"][mono.a] * s["y"][mono.c] * s["x"][mono.b]


def sum_text(terms):
    """The text of a sum of (key text, coefficient text) terms, spelled out apart from the library's join.

    A coefficient "0" drops its term; a coefficient of several terms is
    parenthesised; a leading minus becomes the sign; a coefficient 1 is not
    written before a key other than 1, and the key 1 is not written at all.
    """
    out = ""
    for key, coeff in terms:
        if coeff == "0":
            continue
        if " " in coeff:
            coeff = f"({coeff})"
        sign, coeff = ("-", coeff[1:]) if coeff.startswith("-") else ("+", coeff)
        body = coeff if key == "1" else key if coeff == "1" else f"{coeff} {key}"
        out += f" {sign} {body}" if out else ("-" if sign == "-" else "") + body
    return out or "0"


def associativity_violations(A, triples):
    """The associativity violations (at, lhs, rhs) over index triples, one triple at a time.

    Both sides are read off ``A.product_table()``, whose codes are t * p + e
    for q^e basis[t] and -1 for 0, so d - d % p + (c + d) % p is the code of
    q^(e_c + e_d) basis[t_d].  No row or shift of ``check_associativity``
    is shared, so the two routes can be compared on a doctored table.
    """
    p = A.p
    basis = A.basis()
    n = len(basis)
    table = A.product_table()

    def render(code):
        return "0" if code < 0 else A.monomial_element(basis[code // p], root_power(p, code % p)).render()

    out = []
    for i1, i2, i3 in triples:
        left = right = -1
        c = table[i1 * n + i2]
        if c >= 0:
            d = table[c // p * n + i3]
            if d >= 0:
                left = d - d % p + (c + d) % p
        c = table[i2 * n + i3]
        if c >= 0:
            d = table[i1 * n + c // p]
            if d >= 0:
                right = d - d % p + (c + d) % p
        if left != right:
            at = f"m1={basis[i1].render()}, m2={basis[i2].render()}, m3={basis[i3].render()}"
            out.append((at, render(left), render(right)))
    return out


def product_table_reference(p, s):
    """The product table of H(p, s) as ``BookAlgebra.product_table`` lays it out, one ``mono_mul_exp`` per (m1, x^b y^c).

    The q-exponent of m1 x^b y^c g^a does not depend on a, so one closed-form
    product fills the p entries for a = 0..p-1: the code of its a = 0 entry
    plus ``rot[m.a]``, the offsets of g^(m.a + a) for a = 0..p-1.
    """
    zero = [-1] * p
    rot = [[(a0 + a) % p * p for a in range(p)] for a0 in range(p)]
    columns = [Monomial(b, c, 0) for b in range(p) for c in range(p)]
    table = array("i")
    for m1 in basis_monomials(p):
        for m2 in columns:
            r = mono_mul_exp(m1, m2, p, s)
            if r is None:
                table.extend(zero)
            else:
                e, m = r
                base = (m.b * p + m.c) * p * p + e
                table.extend([base + k for k in rot[m.a]])
    return table


def bilinear_table_reference(p, alpha, beta, gamma):
    """The table of q^(alpha a1 b2 + beta a1 c2 + gamma c1 b2), one entry per basis pair, laid out as the product table."""
    basis = basis_monomials(p)
    index = {m: i for i, m in enumerate(basis)}
    table = array("i")
    for m1 in basis:
        for m2 in basis:
            b, c = m1.b + m2.b, m1.c + m2.c
            if b >= p or c >= p:
                table.append(-1)
            else:
                e = (alpha * m1.a * m2.b + beta * m1.a * m2.c + gamma * m1.c * m2.b) % p
                table.append(index[Monomial(b, c, (m1.a + m2.a) % p)] * p + e)
    return table


def associativity_by_generators(A):
    """Whether every basis triple is associative, by induction on the generators over the live product table.

    The route ``check_associativity`` took before its cocycle lemma: it holds
    iff ``A.generation()`` does (premises U and F) and premise R, (t m2) m3 =
    t (m2 m3) for every generator t and all m2 and m3, the exhaustive sweep's
    row compare on the three m1 in {g, x, y}.  With U and F, the step
    ((t basis[j]) m2) m3 = (t (basis[j] m2)) m3 = t ((basis[j] m2) m3) =
    t (basis[j] (m2 m3)) = (t basis[j]) (m2 m3) by R and the law at basis[j]
    carries the law from 1 to every basis monomial.  R is compared a row
    over all m3 at a time, each row read through an ``itemgetter`` of codes.
    """
    p, table = A.p, A.product_table()
    n = len(A.basis())
    shift = [[c - c % p + (c + e) % p for c in range(n * p)] + [-1] for e in range(p)]  # code -> q^e times it

    def row(t):  # basis[t] m3 over all m3, read through a list indexed by code
        return itemgetter(*table[t * n:(t + 1) * n])

    def r_holds(t):
        # t times q^e basis[u], at the code u p + e: q^e (t basis[u]); the last entry is 0 times t
        times_t = [-1 if (d := table[t * n + c // p]) < 0 else shift[c % p][d] for c in range(n * p)] + [-1]
        for m2 in range(n):
            c = table[t * n + m2]  # t m2
            lhs = (-1,) * n if c < 0 else row(c // p)(shift[c % p])  # (t m2) m3
            if lhs != row(m2)(times_t):  # t (m2 m3)
                return False
        return True

    return A.generation() is not None and all(r_holds(t) for t in A.generators)


def live_bialgebra_violations(A):
    """The bialgebra violations (at, lhs, rhs) of every basis pair, in basis order, in plain ``Cyclotomic`` arithmetic.

    Every product is read off the live ``A.product_table()``: m1 m2 for Delta(m1 m2) and eps(m1 m2), and each leg
    product u1 u2 and v1 v2 of Delta(m1) Delta(m2), multiplied out term by term.  Nothing is read off u w for a
    product u (w g^a), so a doctored table that is not bilinear is read as it stands.
    """
    p, s = A.p, A.s
    basis = A.basis()
    n = len(basis)
    table = A.product_table()
    powers = [root_power(p, e) for e in range(p)]
    delta = [[(A.basis_index(u), A.basis_index(v), c) for (u, v), c in A.coproduct_monomial(m).terms.items()]
             for m in basis]
    eps = [A.counit_monomial(m) for m in basis]

    def times(i, j):  # basis[i] basis[j] = q^e basis[t] as (t, e), or None for 0
        c = table[i * n + j]
        return None if c < 0 else divmod(c, p)

    out = []
    for i1, i2 in product(range(n), repeat=2):
        at = f"m1={basis[i1].render()}, m2={basis[i2].render()}"
        m = times(i1, i2)
        lhs = Tensor2.zero(p, s) if m is None else Tensor2(p, s, {
            (basis[u], basis[v]): c * powers[m[1]] for u, v, c in delta[m[0]]})
        terms = []
        for u1, v1, c1 in delta[i1]:
            for u2, v2, c2 in delta[i2]:
                u, v = times(u1, u2), times(v1, v2)
                if u is not None and v is not None:
                    terms.append(((basis[u[0]], basis[v[0]]), c1 * c2 * powers[(u[1] + v[1]) % p]))
        rhs = Tensor2(p, s, accumulate(terms))
        if lhs != rhs:
            out.append((f"Delta: {at}", lhs.render(), rhs.render()))
        lhs, rhs = cyc_zero(p) if m is None else eps[m[0]] * powers[m[1]], eps[i1] * eps[i2]
        if lhs != rhs:
            out.append((f"epsilon: {at}", lhs.render(), rhs.render()))
    return out


def law_table_multiplicative(A):
    """Whether Delta and eps are algebra maps, read off the law table: no index in ``_Proofs.broken`` at 1, g, x
    and y, the laws at 1 and at every generator against every basis monomial, which carry to every pair along
    ``generation()`` where the product table is associative.  False where the table is not, as it is then None."""
    broken = _Proofs(A).broken
    return broken is not None and not any(chain(*broken.values()))


def anti_multiplicative_reference(A):
    """Whether S(m1 m2) = S(m2) S(m1) for every basis pair, by S(t m) = S(m) S(t) at t in {1, g, x, y} and every m,
    4 n compares of unit codes off the S rows and the product table, on an associative product table."""
    if not _Proofs(A).associative:
        return False
    p, n = A.p, len(A.basis())
    products, S = A.product_table(), A.structure_table().antipode

    def image(t, j):  # S(basis[t] basis[j])
        c = products[t * n + j]
        if c < 0:
            return None
        u, code = S[c // p]
        return u, code - code % p + (code + c) % p

    def reversed_product(t, j):  # S(basis[j]) S(basis[t])
        (u, a), (v, b) = S[j], S[t]
        c = products[u * n + v]
        return None if c < 0 else (c // p, (a + b + c) % p + p * ((a >= p) != (b >= p)))

    return all(image(t, j) == reversed_product(t, j) for t in (0, *A.generators) for j in range(n))


def doctor_product(A, m1, m2, how):
    """Change the product-table entry of m1 m2 to 0, to q times it, or to the next monomial.

    ``how`` is "zero", "q-exponent" or "monomial"; the next monomial in basis
    order keeps the power of q.
    """
    p = A.p
    basis = A.basis()
    n = len(basis)
    A.product_table()
    at = basis.index(m1) * n + basis.index(m2)
    code = A._products[at]
    if how == "zero":
        A._products[at] = -1
    elif how == "q-exponent":
        A._products[at] = code - code % p + (code + 1) % p
    else:
        A._products[at] = (code + p) % (n * p)


def delta_digit_rows(A):
    """The Delta rows of ``A.structure_table()`` as (u, v, digits), the form StructureTable takes."""
    table = A.structure_table()
    return [[(u, v, tuple(table.digits(r[0]))) for u, v, r in row] for row in table.delta]


def install_delta_rows(A, rows):
    """Rebuild A's structure table from Delta rows (u, v, digits), one block each, so that its width follows them;
    S is kept."""
    blocks = [([d for _, _, d in row], [([u for u, _, _ in row], [v for _, v, _ in row])]) for row in rows]
    A._table = StructureTable(A.p, blocks, A.structure_table().antipode)
    A._delta_mono.clear()


def structure_table_reference(p, s):
    """The structure table of H(p, s) filled a row at a time, as ``BookAlgebra.structure_table`` was before its
    block fill: the digit tuples of every row, then their lifts, R as the largest row sum, the width and the
    rotations, each packed from a rotated lift.

    Returns a namespace with ``delta`` (rows of (u, v, rotations)), ``antipode``, ``s_squared``, ``root``,
    ``bound`` and ``width``, laid out as ``StructureTable``'s.
    """
    w = (comb(p - 1, (p - 1) // 2) ** 2).bit_length()
    xs, ys = ([[_pack(ds, w) for ds in row] for row in _q_binomial_rows(p, e)] for e in (1, -s * s))
    delta = []
    for b, c in product(range(p), repeat=2):
        terms = [(k, l, _rotated(_digits(bx * by, p, w), -s * k * (c - l)))
                 for k, bx in enumerate(xs[b]) for l, by in enumerate(ys[c])]
        delta += ([((k * p + l) * p + a, ((b - k) * p + c - l) * p + (a + k + s * l) % p, d)
                   for k, l, d in terms] for a in range(p))
    antipode = [((b * p + c) * p + (-a - b - s * c) % p,
                 (s * s * c * (c - 1) // 2 - b * (b - 1) // 2 - a * b + s * a * c) % p + p * ((b + c) % 2))
                for b, c, a in ((m.b, m.c, m.a) for m in basis_monomials(p))]
    lifts = {d: lift(d) for d in {d for row in delta for _, _, d in row}}
    root = max(sum(sum(lifts[d]) for _, _, d in row) for row in delta)
    width = (root ** 2 + root).bit_length() + 1
    rotations = {d: tuple(_pack(_rotated(lifted, e), width) for e in range(p)) for d, lifted in lifts.items()}
    s_squared = []
    for t, code in antipode:  # S(S(m)) = +-q^code S(basis[t]) = +-q^code +-q^code2 basis[t2]
        t2, code2 = antipode[t]
        s_squared.append((t2, (code + code2) % p + p * ((code >= p) ^ (code2 >= p))))
    return SimpleNamespace(delta=[[(u, v, rotations[d]) for u, v, d in row] for row in delta], antipode=antipode,
                           s_squared=s_squared, root=root, bound=root ** 2, width=width)


def doctor_delta(A, mono, terms):
    """Replace the Delta row of ``mono`` in the structure table by ``terms``, {(m1, m2): coefficient}."""
    rows = delta_digit_rows(A)
    rows[A.basis_index(mono)] = [
        (A.basis_index(u), A.basis_index(v), (Cyclotomic(A.p, ()) + c).num + (0,))
        for (u, v), c in terms.items()
    ]
    install_delta_rows(A, rows)


def negate_unit_row(A, rows, mono):
    """Negate the S or S^2 row (``rows`` is "antipode" or "s_squared") of ``mono`` in the structure table."""
    table = A.structure_table()
    i = A.basis_index(mono)
    t, code = getattr(table, rows)[i]
    getattr(table, rows)[i] = t, (code + A.p) % (2 * A.p)
    A._antipode_mono.clear()
    A._s2_mono.clear()


def lane(lanes, acc, a2, a1=0):
    """Lane a2 of a ``_Lanes`` accumulator as a packed sum keyed t_u n + t_v, both legs moved by g^(a2 + a1): the
    per-violation read the bialgebra sweep made before it unpacked each lane once and memoized its texts."""
    n, move, shift, mask = lanes.n, lanes.moved[(a2 + a1) % lanes.p], a2 * lanes.lane_bits, lanes.lane_mask
    return {move[key // n] * n + move[key % n]: w for key, v in acc.items() if (w := v >> shift & mask)}


def own_run_texts(lanes, result):
    """(rendered, own) for the Delta violations of a bialgebra ``result``: the rhs as rendered, and Delta(m1) Delta(m2)
    rendered from lane a2 of m1's own ``lanes.run``, read by ``lane`` with no memo, as the sweep did before it carried
    one run per g-orbit and rendered each distinct text once."""
    p = lanes.p
    index = {name: i for i, name in enumerate(lanes.table.names)}
    runs, rendered, own = {}, [], []
    for v in result.violations:
        if v.at.startswith("Delta: "):
            i1, i2 = (index[part.split("=", 1)[1]] for part in v.at.removeprefix("Delta: ").split(", "))
            (bc2, a2), key = divmod(i2, p), (i1, i2 // p)
            if key not in runs:
                runs[key] = lanes.run(i1, bc2, lanes.left(i1))
            acc, bad, e12 = runs[key]
            assert bad >> a2 & 1, v.at
            rendered.append(v.rhs)
            own.append(lanes.table.render(lane(lanes, acc, a2), e12))
    return rendered, own


def delta2_twist_monomial(A, l, beta, mono):
    """The twist beta(h_1) l h_2 l^{-1} beta(S h_3) of one basis monomial, over Delta^2.

    Sums over the terms of the finished ``A.delta2_monomial(mono)``, whereas
    ``bookhopf.twist`` reads Delta twice and never builds Delta^2.
    """
    total = Element.zero(A.p, A.s)
    for (m1, m2, m3), coeff in A.delta2_monomial(mono).terms.items():
        v1 = beta(m1)
        if not v1:
            continue
        v3 = beta(A.antipode_monomial(m3))
        if not v3:
            continue
        conjugated = l.element * A.monomial_element(m2) * l.inverse
        total = total + (coeff * v1 * v3) * conjugated
    return total


def convolution_inverse_reference(A, beta):
    """Whether beta o S is the two-sided convolution inverse of beta, summed in ``Cyclotomic`` arithmetic.

    sum beta(m_1) beta(S(m_2)) = eps(m) = sum beta(S(m_1)) beta(m_2) over the
    decoded ``coproduct_monomial`` and ``antipode_monomial`` of every basis
    monomial, with beta evaluated through ``Character.__call__``.
    """
    p = A.p
    for m in A.basis():
        eps = A.counit_monomial(m)
        left = right = cyc_zero(p)
        for (m1, m2), coeff in A.coproduct_monomial(m).terms.items():
            left = left + coeff * beta(m1) * beta(A.antipode_monomial(m2))
            right = right + coeff * beta(A.antipode_monomial(m1)) * beta(m2)
        if left != eps or right != eps:
            return False
    return True


def characters_reference(algebra):
    """``enumerate_characters`` comparing a p-tuple of exponents, one per character, for every basis pair.

    The same characters, or the same ``ConsistencyError``: the first failing
    pair in basis order, and the first failing j there.
    """
    p = algebra.p
    basis = algebra.basis()
    n = len(basis)
    table = algebra.product_table()
    characters = [Character(algebra, j) for j in range(p)]
    vectors = [tuple(beta.exponent(m) for beta in characters) for m in basis]

    def times(u, v):  # the vector of beta_j(m) beta_j(m') from those of m and m'
        return tuple(None if k is None or l is None else (k + l) % p for k, l in zip(u, v))

    # lhs_of[t * p + e] is the vector of q^e basis[t]; lhs_of[-1] that of 0
    lhs_of = [times(v, (e,) * p) for v in vectors for e in range(p)] + [(None,) * p]
    rows = {}
    for i1, m1 in enumerate(basis):
        u = vectors[i1]
        if u not in rows:
            rows[u] = tuple(times(u, v) for v in vectors)
        lhs, rhs = itemgetter(*table[i1 * n:(i1 + 1) * n])(lhs_of), rows[u]
        if lhs != rhs:
            i2 = next(i2 for i2 in range(n) if lhs[i2] != rhs[i2])
            j = next(j for j in range(p) if lhs[i2][j] != rhs[i2][j])
            raise ConsistencyError(f"beta_{j} not multiplicative at m1={m1.render()}, m2={basis[i2].render()}")
    return characters
