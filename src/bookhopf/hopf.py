"""The book Hopf algebra H(p, s) over Q(zeta_p) and its structure maps.

H(p, s) is the p^3-dimensional algebra with generators g, x, y subject to

    g x = q x g,   g y = q^(-s) y g,   g^p = 1,   x^p = y^p = 0,
    x y = q^(-s) y x,

where q = zeta_p (``BookAlgebra.relations`` owns these six relations; the
relations check and the characters read them), carrying the Hopf structure

    Delta(g) = g (x) g
    Delta(x) = 1 (x) x + x (x) g
    Delta(y) = 1 (x) y + y (x) g^s
    eps(g) = 1, eps(x) = eps(y) = 0
    S(g) = g^(-1), S(x) = -x g^(-1), S(y) = -y g^(-s)

for 0 < s < p.  At s = 0, Delta(y)^p != 0 in characteristic zero, so H(p, 0)
is not a bialgebra; the constructor refuses it unless ``permissive=True``,
which builds the maps anyway so that the axiom checker can exhibit the failure.

Delta and S of a basis monomial come from closed forms.  Delta(x) and
Delta(y) are sums of two terms that q-commute (in base q and q^(-s^2)), so
the q-binomial theorem expands Delta(x)^b Delta(y)^c Delta(g)^a, and
S(g)^a S(y)^c S(x)^b is one monomial; in normal order

    Delta(x^b y^c g^a) = sum_{k<=b, l<=c} [b k]_q [c l]_{q^(-s^2)} q^(-s k (c-l))
                         x^k y^l g^a (x) x^(b-k) y^(c-l) g^(a+k+s l)
    S(x^b y^c g^a) = (-1)^(b+c) q^(s^2 c(c-1)/2 - b(b-1)/2 - a b + s a c) x^b y^c g^(-a-b-s c)

No q-binomial with n < p vanishes.  The relations check and the bialgebra
check on all pairs certify that Delta is a well-defined algebra map.

Every check and ``classify`` read Delta, S and S^2 off one integer table,
``BookAlgebra.structure_table``, filled from the closed forms on first use.
Delta row i lists (left index, right index, packed coefficient) of
Delta(basis[i]); S row i is (index, code) for S(basis[i]) = +-q^k
basis[index], code k for +q^k and k + p for -q^k; S^2 rows compose S rows.
Comparing packed sums is exact:

- *Lift.*  A coefficient is held in Z[C_p] = Z[X]/(X^p - 1) as the min-digit
  lift of its value in Z[zeta_p]: a representative minus its least digit
  times 1 + X + ... + X^(p-1), which is 0 in Z[zeta_p].
- *Packing.*  Digit i takes ``width`` bits at bit i * width, and each
  coefficient is kept with its p rotations by q^e (X^e mod X^p - 1).  The
  int product of two packed values is their product in Z[X], 2p - 1 digits,
  with no carry while every digit stays below 2^width.
- *Fold.*  Adding digit i + p onto digit i reduces mod X^p - 1.  Two values
  of Z[C_p] are equal in Z[zeta_p] iff their difference is a multiple of
  1 + X + ... + X^(p-1), i.e. iff all p digits of the folded difference are
  equal; a bias of 2^(width-1) per digit keeps it non-negative (``differs``).
- *Width.*  A lift's digit sum is its value at X = 1, so digit sums
  multiply, and a unit +-q^k moves digits without changing their sum (its
  sign picks the side it is summed on).  With R the largest digit sum of a
  Delta row, a compared side sums products of one row's coefficients with
  those of the rows of its legs, at most R^2 per digit, plus at most one
  more row or unit, at most R.  ``width`` is derived from R^2 + R and
  asserted before use.

The fill works a block at a time.  The p rows x^b y^c g^a, a = 0..p-1,
have the same terms (k, l) with the same coefficient
[b k]_q [c l]_(q^-s^2) q^(-s k (c-l)), which does not depend on a; only
their indices move with a.  So each coefficient is lifted, weighed,
packed and rotated once per block, not once per row, and the rows of a
block have one digit sum: R, the largest over rows, is the largest block
sum.  ``StructureTable`` takes the blocks and alone lifts, sizes and
rotates; a block may hold one row, so it takes arbitrary rows too.

The views ``coproduct_monomial``, ``antipode_monomial`` and
``s_squared_monomial`` decode a row and are memoized per instance.  Both
tables are built on first use; fills are idempotent, so racing first
computations are harmless.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property
from itertools import chain, product
from math import comb
from operator import add, lshift

from .cyclotomic import _build, _normalize, cyc_zero, is_odd_prime, root_power
from .pbw import Element, Monomial, Tensor2, Tensor3, accumulate, basis_monomials, join_terms, join_texts, term_text

__all__ = ["BookAlgebra", "StructureTable", "bilinear_rows"]


def _rotated(digits, e):
    """digits times X^e mod X^p - 1."""
    e %= len(digits)
    return digits[-e:] + digits[:-e]


def _pack(digits, w):
    return sum(map(lshift, digits, range(0, len(digits) * w, w)))


def _digits(v, p, w):
    """The p digits, w bits each, of a packed value of at most 2p digits, folded mod X^p - 1."""
    v, mask = (v & (1 << p * w) - 1) + (v >> p * w), (1 << w) - 1
    return tuple([v >> i & mask for i in range(0, p * w, w)])


def lift(digits):
    """The min-digit lift of the Z[zeta_p] value with these p digits (see the module docstring)."""
    return tuple(map(min(digits).__rsub__, digits))


def _q_binomial_rows(p, base_exp):
    """Rows n < p of [n k] in base q^base_exp as digits in Z[C_p]: [n k] = [n-1 k-1] + q^(base_exp k) [n-1 k]."""
    zero = (0,) * p
    rows = [[(1,) + zero[1:]]]
    for n in range(1, p):
        prev = [zero, *rows[-1], zero]
        rows.append([tuple(map(add, prev[k], _rotated(prev[k + 1], base_exp * k))) for k in range(n + 1)])
    return rows


def bilinear_rows(p, alpha, beta, gamma):
    """The rows of the product table of q^(alpha a1 b2 + beta a1 c2 + gamma c1 b2), as bytes of ``array("i")``.

    Laid out as ``BookAlgebra.product_table``: x^b1 y^c1 g^a1 x^b2 y^c2 g^a2
    is q^(alpha a1 b2 + beta a1 c2 + gamma c1 b2) x^b y^c g^(a1+a2), with
    b = b1 + b2 and c = c1 + c2, and zero once b or c reaches p; the table
    of H(p, s) is the one at (1, -s, s).  The exponent does not depend on
    a2, so the p entries a2 = 0..p-1 of a row and a (b2, c2) are a block
    fixed by (b, c), a1 and e.  The p^4 blocks are made once as bytes, block
    ((b p + c) p + a1) p + e, then zero blocks up to b = 2p - 2, and a row
    is one join of its p^2 blocks: the p rows sharing (c1, a1) read one key
    list at offset b1 p^3, and c >= p keys -1, the last, zero block.  Block
    ((b p + c) p + a1) p + e holds (b p + c) p^2 + e plus the offsets of
    g^(a1 + a2): it is made as one int of p machine-int lanes, the offsets'
    lanes plus that constant in every lane, which carries into no other lane
    as every entry is below 2^31.
    """
    p3, order = p ** 3, sys.byteorder
    width = array("i").itemsize * p
    ones = int.from_bytes(array("i", [1] * p).tobytes(), order)
    rot = [int.from_bytes(array("i", [(a1 + a) % p * p for a in range(p)]).tobytes(), order) for a1 in range(p)]
    blocks = [(lanes + k * ones).to_bytes(width, order)
              for bc in range(0, p3 * p, p * p) for lanes in rot for k in range(bc, bc + p)]
    blocks += [array("i", [-1] * p).tobytes()] * ((p - 1) * p3)
    keys = [[(b2 * p + c1 + c2) * p * p + a1 * p + (alpha * a1 * b2 + beta * a1 * c2 + gamma * c1 * b2) % p
             if c1 + c2 < p else -1 for b2 in range(p) for c2 in range(p)]
            for c1 in range(p) for a1 in range(p)]
    for b1 in range(p):
        shifted = blocks[b1 * p3:]
        for row in keys:
            yield b"".join(map(shifted.__getitem__, row))


class StructureTable:
    """Delta, S and S^2 of every basis monomial as integer rows (see the module docstring).

    ``delta[i]`` lists (u, v, rotations), rotations[e] the packed lift of the
    coefficient times q^e; ``antipode[i]`` and ``s_squared[i]`` are (index,
    code).  ``root`` is R and ``bound`` is R^2.
    """

    def __init__(self, p, blocks, antipode):
        """``blocks`` lists (coefficients, rows), the rows in basis order: row (us, vs) of a block is the Delta row
        of the terms us[k] (x) vs[k] times coefficients[k], any p digits in Z[C_p].

        Each coefficient is lifted, packed and rotated once (a value met before is read back), and R is the
        largest digit sum of a block, which every row of the block has.  A block of one row takes any row."""
        self.p = p
        self.basis = basis_monomials(p)  # in basis order
        self._decoded = {}  # (packed value, e mod p) -> decode(value, e)
        self._texts = [{} for _ in range(p)]  # [e][packed value] -> its term_text before a key, on first render
        lifts = {d: lift(d) for d in dict.fromkeys(chain.from_iterable(coefficients for coefficients, _ in blocks))}
        self.root = max(sum(map(sum, map(lifts.__getitem__, coefficients))) for coefficients, _ in blocks)
        self.bound = self.root ** 2
        width = self.width = (self.bound + self.root).bit_length() + 1
        assert self.bound + self.root < 1 << (width - 1), "digits must stay below 2^(width-1)"
        self.digit_mask = (1 << width) - 1
        self.rep = sum(1 << i * width for i in range(p))
        self.fold_mask = self.rep * self.digit_mask
        self.bias = self.rep << (width - 1)
        made, shifts, mask = {}, range(p * width, 0, -width), self.fold_mask  # made: lift -> its p rotations
        for d, lifted in lifts.items():
            if (rotations := made.get(lifted)) is None:  # rotation e is the value twice over, shifted p - e digits
                v = self.pack(lifted)
                rotations = made[lifted] = tuple(map(mask.__and__, map((v << p * width | v).__rshift__, shifts)))
            lifts[d] = rotations
        self.delta = delta = []
        for coefficients, rows in blocks:
            rotations = list(map(lifts.__getitem__, coefficients))
            delta += [list(zip(us, vs, rotations)) for us, vs in rows]
        self.antipode = antipode
        self.s_squared = [(antipode[t][0], (code + antipode[t][1]) % p + p * ((code >= p) != (antipode[t][1] >= p)))
                          for t, code in antipode]

    def pack(self, digits):
        return _pack(digits, self.width)

    def digits(self, v):
        return _digits(v, self.p, self.width)

    def _value(self, v, e):
        return _build(self.p, *_normalize(self.p, _rotated(self.digits(v), e), 1))

    def decode(self, v, e=0):
        """The value in Z[zeta_p] of a packed value times q^e, memoized: a Cyclotomic is immutable."""
        if (c := self._decoded.get(key := (v, e % self.p))) is None:
            c = self._decoded[key] = self._value(v, e)
        return c

    def decoded(self, plus, minus=None):
        """{basis[key]: value} of the non-zero values of the packed sums ``plus`` minus ``minus``, keyed by index."""
        return accumulate(chain(
            ((self.basis[key], self.decode(v)) for key, v in plus.items()),
            ((self.basis[key], -self.decode(v)) for key, v in (minus or {}).items()),
        ))

    @cached_property
    def names(self):  # the text of every basis monomial, in basis order
        return [m.render() for m in self.basis]

    def render(self, packed, e=0, legs=2):
        """The text of a packed sum {key: value} times q^e, as Element (legs 1), Tensor2 or Tensor3 renders it.

        Keys u, u n + v or (i n + j) n + k of basis indices sort as Monomial keys; a term decoding to 0 is
        dropped.  ``pbw.term_text`` owns the term rule: its text for the empty key text, built once per
        (value, e), is followed by each key's leg text in a Tensor2 or Tensor3 sum, one join over the sorted
        keys.  An Element sum, whose key text "1" takes no prefix, goes through ``join_terms``."""
        names, texts, n = self.names, self._texts[e % self.p], self.p ** 3
        items = sorted(packed.items())
        if legs == 1:
            return join_terms((names[k], self.decode(v, e).render()) for k, v in items)
        parts = []
        for k, v in items:
            if (prefix := texts.get(v)) is None:
                prefix = texts[v] = term_text(self._value(v, e).render(), "")  # its own memo: no Cyclotomic is kept
            if prefix:
                head = names[k // n] if legs == 2 else f"{names[k // (n * n)]} (x) {names[k // n % n]}"
                parts += prefix, head, " (x) ", names[k % n]
        return join_texts(parts)

    def differs(self, lhs, rhs):
        """Whether two sums {key: packed value} differ in Z[zeta_p] at some key; a missing key is 0."""
        fold, half, bias, digit, rep = self.fold_mask, self.p * self.width, self.bias, self.digit_mask, self.rep

        def bad(v, w):
            d = (v & fold) + (v >> half & fold) + bias - (w & fold) - (w >> half & fold)
            return d != (d & digit) * rep

        get = rhs.get
        return (any(v != (w := get(key, 0)) and bad(v, w) for key, v in lhs.items())
                or any(key not in lhs and bad(0, w) for key, w in rhs.items()))


class BookAlgebra:
    """A concrete H(p, s) with exact structure maps over Q(zeta_p)."""

    def __init__(self, p, s, permissive=False):
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p!r}")
        if isinstance(s, bool) or not isinstance(s, int) or not 0 <= s < p:  # a bool is an int, read as 0 or 1
            raise ValueError(f"s must be an integer with 0 <= s < {p}, got {s!r}")
        if s == 0 and not permissive:
            raise ValueError(
                f"s = 0 is rejected: H({p}, 0) is not a bialgebra in characteristic "
                f"zero (Delta(y)^{p} != 0 although y^{p} = 0); "
                "pass permissive=True to build it anyway"
            )
        self.p = p
        self.s = s
        self.permissive = permissive
        self.q = root_power(p, 1)

        self.one = Element.unit(p, s)
        self.g = Element.monomial(p, s, Monomial(0, 0, 1))
        self.x = Element.monomial(p, s, Monomial(1, 0, 0))
        self.y = Element.monomial(p, s, Monomial(0, 1, 0))
        self.generators = (1, p * p, p)  # the basis indices of g, x and y

        self._delta_mono, self._antipode_mono, self._s2_mono = {}, {}, {}  # views of structure-table rows
        self._basis = None
        self._products = None
        self._table = None

    def relations(self):
        """The defining relations as (name, lhs word, q-exponent, rhs word): the one owner of the presentation.

        A relation reads product(lhs) = q^exponent * product(rhs); rhs None means 0.
        """
        p, s = self.p, self.s
        return [
            ("g x = q x g", "gx", 1, "xg"),
            (f"g y = q^-{s} y g", "gy", -s, "yg"),
            (f"g^{p} = 1", "g" * p, 0, ""),
            (f"x^{p} = 0", "x" * p, 0, None),
            (f"y^{p} = 0", "y" * p, 0, None),
            (f"x y = q^-{s} y x", "xy", -s, "yx"),
        ]

    # -- basis ----------------------------------------------------------------

    @property
    def dimension(self):
        return self.p ** 3

    def basis(self):
        """All p^3 basis monomials, in the fixed (b, c, a) lexicographic order."""
        if self._basis is None:
            self._basis = basis_monomials(self.p)
        return self._basis

    def basis_index(self, mono):
        """The index of a basis monomial in :meth:`basis`."""
        return (mono.b * self.p + mono.c) * self.p + mono.a

    def product_table(self):
        """Closed-form products of all basis pairs by basis index, built on first use: ``bilinear_rows(p, 1, -s, s)``.

        With n = p^3 and indices in :meth:`basis` order, entry ``i * n + j``
        is ``t * p + e`` when basis[i] basis[j] = q^e basis[t], and -1 when
        the product is 0.  It holds p^6 32-bit integers (0.5 MB at p = 7,
        7 MB at p = 11), each below p^4, which fits for every p < 215.
        x^b1 y^c1 g^a1 x^b2 y^c2 g^a2 = q^(a1 (b2 - s c2) + s c1 b2) x^b y^c g^(a1+a2).
        """
        if self._products is None:
            table = array("i")
            for row in bilinear_rows(self.p, 1, -self.s, self.s):
                table.frombytes(row)
            self._products = table
        return self._products

    def generation(self):
        """How g, x and y generate the basis on the live product table: the premise of every proof by generators.

        Returns {i: (t, j, e)} for every basis index i but 1, g, x and y, with
        basis[i] = q^e basis[t] basis[j], t in ``generators`` and j < i, the
        first such (t, j) in generator then basis order.  Returns None unless
        premise U holds (the row of 1 is the identity) and premise F (every
        such i has a (t, j, e)).  The ``axioms`` module docstring states the
        lemma that the proofs build on it.
        """
        p, n, table = self.p, self.dimension, self.product_table()
        if table[:n] != array("i", range(0, n * p, p)):  # U
            return None
        steps = {}
        for t in self.generators:
            for j, c in enumerate(table[t * n:(t + 1) * n]):
                if c // p > j:  # t basis[j] = q^(c % p) basis[c // p]; a zero product, c = -1, reaches nothing
                    steps.setdefault(c // p, (t, j, -c % p))
        rest = [i for i in range(1, n) if i not in self.generators]
        return {i: steps[i] for i in rest} if all(i in steps for i in rest) else None  # F

    def structure_table(self):
        """Delta, S and S^2 of every basis monomial as a StructureTable, filled on first use.

        The closed forms run in Z[C_p], packed ``w`` bits per digit: a digit of
        [b k] [c l] is at most C(b, k) C(c, l), its digit sum, folded or not,
        and a product met before is unpacked once.  The p rows x^b y^c g^a
        are one block: they share its coefficients, so the table lifts and
        rotates each once and takes R per block (see the module docstring).
        Row a holds the terms x^k y^l (x) x^(b-k) y^(c-l) g^(k+s l) with g^a
        more on both legs, the right leg's g-exponent mod p read off
        ``turn[a]``.
        """
        if self._table is None:
            p, s = self.p, self.s
            w = (comb(p - 1, (p - 1) // 2) ** 2).bit_length()
            xs, ys = ([[_pack(ds, w) for ds in row] for row in _q_binomial_rows(p, e)] for e in (1, -s * s))
            turn = [[(a + e) % p for e in range(p)] for a in range(p)]  # turn[a][e] = (a + e) mod p
            blocks, digits = [], {}  # digits: packed [b k] [c l] -> its digits, folded
            for b, c in product(range(p), repeat=2):
                terms = [(k, l) for k in range(b + 1) for l in range(c + 1)]
                coefficients = []
                for k, l in terms:  # [b k] [c l] times q^(-e): digit i moves to i - e
                    v = xs[b][k] * ys[c][l]
                    d = digits.get(v) or digits.setdefault(v, _digits(v, p, w))
                    e = s * k * (c - l) % p
                    coefficients.append(d[e:] + d[:e])
                us = [(k * p + l) * p for k, l in terms]
                vs = [((b - k) * p + c - l) * p for k, l in terms]
                shifts = [(k + s * l) % p for k, l in terms]
                rows = [(list(map(a.__add__, us)), list(map(add, vs, map(turn[a].__getitem__, shifts)))) for a in range(p)]
                blocks.append((coefficients, rows))
            antipode = [((b * p + c) * p + (-a - b - s * c) % p,
                         (s * s * c * (c - 1) // 2 - b * (b - 1) // 2 - a * b + s * a * c) % p + p * ((b + c) % 2))
                        for b, c, a in self.basis()]
            self._table = StructureTable(p, blocks, antipode)
        return self._table

    def monomial_element(self, mono, coeff=1):
        return Element.monomial(self.p, self.s, mono, coeff)

    # -- structure maps on basis monomials: views of the structure table --------------

    def coproduct_monomial(self, mono):
        """Delta(x^b y^c g^a): its row of the structure table as a Tensor2, memoized."""
        t = self._delta_mono.get(mono)
        if t is None:
            table, basis = self.structure_table(), self.basis()
            t = self._delta_mono[mono] = Tensor2._raw(self.p, self.s, accumulate(
                ((basis[u], basis[v]), table.decode(r[0])) for u, v, r in table.delta[self.basis_index(mono)]
            ))
        return t

    def counit_monomial(self, mono):
        """eps(x^b y^c g^a) = 1 if b = c = 0 else 0."""
        if mono.b == 0 and mono.c == 0:
            return root_power(self.p, 0)
        return cyc_zero(self.p)

    def counit_packed(self):
        """eps of every basis monomial, packed like the structure table; a digit sum of at most R keeps every reader
        within the width."""
        table = self.structure_table()
        values = [self.counit_monomial(m) for m in self.basis()]
        assert all(e.den == 1 for e in values), "eps is integral"
        lifts = [lift(e.num + (0,)) for e in values]
        assert max(map(sum, lifts)) <= table.root, "eps must stay within the table's width"
        return [table.pack(d) for d in lifts]

    def _unit_row(self, memo, rows, mono):
        el = memo.get(mono)
        if el is None:
            t, code = rows[self.basis_index(mono)]
            u = root_power(self.p, code)
            el = memo[mono] = Element._raw(self.p, self.s, {self.basis()[t]: -u if code >= self.p else u})
        return el

    def antipode_monomial(self, mono):
        """S(x^b y^c g^a): its row of the structure table as an Element, memoized."""
        return self._unit_row(self._antipode_mono, self.structure_table().antipode, mono)

    def s_squared_monomial(self, mono):
        """S^2(x^b y^c g^a): its row of the structure table as an Element, memoized."""
        return self._unit_row(self._s2_mono, self.structure_table().s_squared, mono)

    def delta2_monomial(self, mono):
        """(Delta (x) id) Delta on a basis monomial, built afresh on each call."""
        return Tensor3._raw(self.p, self.s, accumulate(
            ((u, v, m2), c * d)
            for (m1, m2), c in self.coproduct_monomial(mono).terms.items()
            for (u, v), d in self.coproduct_monomial(m1).terms.items()
        ))

    # -- linear extensions ---------------------------------------------------------

    def _extend(self, h, image, result_cls):
        return result_cls._raw(self.p, self.s, accumulate(
            (key, c * d) for mono, c in h.terms.items() for key, d in image(mono).terms.items()
        ))

    def _own(self, h):
        if not isinstance(h, Element):
            raise TypeError(f"expected an Element, got {type(h).__name__}")
        if (h.p, h.s) != (self.p, self.s):
            raise ValueError(f"element of H({h.p},{h.s}) passed to H({self.p},{self.s})")
        return h

    def coproduct(self, h):
        return self._extend(self._own(h), self.coproduct_monomial, Tensor2)

    def counit(self, h):
        return sum((c * self.counit_monomial(mono) for mono, c in self._own(h).terms.items()), cyc_zero(self.p))

    def antipode(self, h):
        return self._extend(self._own(h), self.antipode_monomial, Element)

    def s_squared(self, h):
        return self._extend(self._own(h), self.s_squared_monomial, Element)

    def delta2(self, h):
        return self._extend(self._own(h), self.delta2_monomial, Tensor3)

    def __repr__(self):
        flag = ", permissive" if self.permissive else ""
        return f"BookAlgebra(p={self.p}, s={self.s}{flag})"
