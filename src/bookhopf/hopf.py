"""The book Hopf algebra H(p, s) over Q(zeta_p) and its structure maps.

H(p, s) is the p^3-dimensional algebra with generators g, x, y subject to

    g x = q x g,   g y = q^(-s) y g,   g^p = 1,   x^p = y^p = 0,
    x y = q^(-s) y x,

where q = zeta_p, carrying the Hopf structure

    Delta(g) = g (x) g
    Delta(x) = 1 (x) x + x (x) g
    Delta(y) = 1 (x) y + y (x) g^s
    eps(g) = 1, eps(x) = eps(y) = 0
    S(g) = g^(-1), S(x) = -x g^(-1), S(y) = -y g^(-s)

for 0 < s < p.  At s = 0 the coproduct fails to respect y^p = 0 in
characteristic zero (Delta(y)^p != 0), so H(p, 0) is not a bialgebra; the
constructor refuses it unless ``permissive=True``, which builds the maps
anyway so that the failure can be exhibited by the axiom checker.

Delta and S of a basis monomial come from closed forms, as the product does
(``pbw.mono_mul_exp``).  Delta(x) and Delta(y) are sums of two terms that
q-commute (in base q and q^(-s^2)), so the q-binomial theorem expands
Delta(x)^b Delta(y)^c Delta(g)^a, and S(g)^a S(y)^c S(x)^b is one monomial;
moving g past x and y to normal order gives

    Delta(x^b y^c g^a) = sum_{k<=b, l<=c} [b k]_q [c l]_{q^(-s^2)} q^(-s k (c-l))
                         x^k y^l g^a (x) x^(b-k) y^(c-l) g^(a+k+s l)
    S(x^b y^c g^a) = (-1)^(b+c) q^(s^2 c(c-1)/2 - b(b-1)/2 - a b + s a c) x^b y^c g^(-a-b-s c)

Each q-binomial with n < p is non-zero, so no term vanishes.  The relations
check and the bialgebra check on all pairs certify that Delta is a
well-defined algebra map.  Images of basis monomials under Delta, S and S^2
are memoized per instance, as the checks and ``classify`` read them many
times.  Delta^2 is not: each reader reads every image once
(the twist sums over (Delta (x) id) Delta from the Delta memo).  The
basis-index product table is built on first use; every fill is idempotent
(pure values, insertion only), so racing first computations are harmless.
"""

from __future__ import annotations

from array import array

from .cyclotomic import cyc_zero, is_odd_prime, root_power
from .pbw import Element, Monomial, Tensor2, Tensor3, accumulate, basis_monomials, mono_mul_exp

__all__ = ["BookAlgebra"]


def _q_binomial_rows(p, base_exp):
    """Rows n < p of [n k] in base q^base_exp: [n k] = [n-1 k-1] + q^(base_exp k) [n-1 k]."""
    rows = [[root_power(p, 0)]]
    for n in range(1, p):
        prev = [cyc_zero(p), *rows[-1], cyc_zero(p)]
        rows.append([prev[k] + root_power(p, base_exp * k) * prev[k + 1] for k in range(n + 1)])
    return rows


class BookAlgebra:
    """A concrete H(p, s) with exact structure maps over Q(zeta_p)."""

    def __init__(self, p, s, permissive=False):
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p!r}")
        if not isinstance(s, int) or not 0 <= s < p:
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

        # rows n = 0..p-1 of the q-binomials in the two bases Delta reads
        self._binomials_x = _q_binomial_rows(p, 1)
        self._binomials_y = _q_binomial_rows(p, -s * s)
        # per-monomial caches
        self._delta_mono = {}
        self._antipode_mono = {}
        self._s2_mono = {}
        self._basis = None
        self._products = None

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
        """Closed-form products of all basis pairs by basis index, built on first use.

        With n = p^3 and indices in :meth:`basis` order, entry ``i * n + j``
        is ``t * p + e`` when basis[i] basis[j] = q^e basis[t], and -1 when
        the product is 0.  The table holds p^6 32-bit integers (0.5 MB at
        p = 7, 7 MB at p = 11), so nothing builds it until a check or
        ``classify`` asks for it; entries stay below p^4, which fits for
        every p < 215, and no larger table would fit in memory.  The
        q-exponent of m1 x^b y^c g^a does not depend on a, so one closed-form
        product fills the p entries for a = 0..p-1.
        """
        if self._products is None:
            p, s = self.p, self.s
            zero = [-1] * p
            table = array("i")
            for m1 in self.basis():
                for b in range(p):
                    for c in range(p):
                        r = mono_mul_exp(m1, Monomial(b, c, 0), p, s)
                        if r is None:
                            table.extend(zero)
                        else:
                            e, m = r
                            first = self.basis_index(m) - m.a
                            table.extend([(first + (m.a + a) % p) * p + e for a in range(p)])
            self._products = table
        return self._products

    def monomial_element(self, mono, coeff=1):
        return Element.monomial(self.p, self.s, mono, coeff)

    # -- structure maps on basis monomials ---------------------------------------

    def coproduct_monomial(self, mono):
        """Delta(x^b y^c g^a) from the closed form in the module docstring, memoized."""
        t = self._delta_mono.get(mono)
        if t is None:
            p, s = self.p, self.s
            b, c, a = mono
            t = Tensor2._raw(p, s, {
                (Monomial(k, l, a), Monomial(b - k, c - l, (a + k + s * l) % p)):
                    bx * by * root_power(p, -s * k * (c - l))
                for k, bx in enumerate(self._binomials_x[b])
                for l, by in enumerate(self._binomials_y[c])
            })
            self._delta_mono[mono] = t
        return t

    def counit_monomial(self, mono):
        """eps(x^b y^c g^a) = 1 if b = c = 0 else 0."""
        if mono.b == 0 and mono.c == 0:
            return root_power(self.p, 0)
        return cyc_zero(self.p)

    def antipode_monomial(self, mono):
        """S(x^b y^c g^a) from the closed form in the module docstring, memoized."""
        el = self._antipode_mono.get(mono)
        if el is None:
            p, s = self.p, self.s
            b, c, a = mono
            coeff = root_power(p, s * s * c * (c - 1) // 2 - b * (b - 1) // 2 - a * b + s * a * c)
            if (b + c) % 2:
                coeff = -coeff
            el = Element._raw(p, s, {Monomial(b, c, (-a - b - s * c) % p): coeff})
            self._antipode_mono[mono] = el
        return el

    def s_squared_monomial(self, mono):
        el = self._s2_mono.get(mono)
        if el is None:
            el = self.antipode(self.antipode_monomial(mono))
            self._s2_mono[mono] = el
        return el

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
        total = cyc_zero(self.p)
        for mono, c in self._own(h).terms.items():
            total = total + c * self.counit_monomial(mono)
        return total

    def antipode(self, h):
        return self._extend(self._own(h), self.antipode_monomial, Element)

    def s_squared(self, h):
        return self._extend(self._own(h), self.s_squared_monomial, Element)

    def delta2(self, h):
        return self._extend(self._own(h), self.delta2_monomial, Tensor3)

    def __repr__(self):
        flag = ", permissive" if self.permissive else ""
        return f"BookAlgebra(p={self.p}, s={self.s}{flag})"
