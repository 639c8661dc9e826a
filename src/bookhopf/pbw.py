"""Sparse PBW-basis linear algebra for the book algebra H(p, s).

Basis monomials are x^b y^c g^a with 0 <= a, b, c < p, written in the fixed
normal order x-before-y-before-g.  The product of two basis monomials is a
single scalar multiple of a basis monomial (or zero), given in closed form by

    (x^b1 y^c1 g^a1)(x^b2 y^c2 g^a2)
        = q^(a1*b2 + s*(c1*b2 - a1*c2)) x^(b1+b2) y^(c1+c2) g^(a1+a2 mod p),

vanishing when b1+b2 >= p or c1+c2 >= p.  ``Element`` is a sparse linear
combination of monomials; ``Tensor2`` and ``Tensor3`` are the same thing over
pairs and triples of monomials, multiplied leg by leg with no braiding.

All values are immutable once constructed and never store zero coefficients,
so equality is plain dictionary comparison.  Sums of (key, coefficient) pairs,
here and in ``hopf`` and ``axioms``, all go through :func:`accumulate`, the one
place that drops coefficients that cancel to zero.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .cyclotomic import cyc_zero, root_power

__all__ = ["Monomial", "basis_monomials", "mono_mul", "mono_mul_exp", "accumulate", "Element", "Tensor2", "Tensor3"]


class Monomial(NamedTuple):
    """Exponent triple of a PBW basis monomial x^b y^c g^a."""

    b: int
    c: int
    a: int

    def render(self):
        parts = []
        for name, e in (("x", self.b), ("y", self.c), ("g", self.a)):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append(f"{name}^{e}")
        return " ".join(parts) if parts else "1"

    __str__ = render

    @classmethod
    def parse(cls, text):
        """Inverse of :meth:`render`."""
        s = text.strip()
        if s == "1":
            return cls(0, 0, 0)
        if not s:
            raise ValueError("cannot parse an empty monomial (the unit renders as '1')")
        exps = {"x": 0, "y": 0, "g": 0}
        for piece in s.split():
            name, _, e = piece.partition("^")
            if name not in exps:
                raise ValueError(f"cannot parse monomial {text!r}")
            exps[name] = int(e) if e else 1
        return cls(exps["x"], exps["y"], exps["g"])


ONE = Monomial(0, 0, 0)


def basis_monomials(p):
    """All p^3 basis monomials x^b y^c g^a, in (b, c, a) lexicographic order."""
    return tuple(Monomial(b, c, a) for b in range(p) for c in range(p) for a in range(p))


def mono_mul_exp(m1, m2, p, s):
    """Closed-form monomial product as (exponent of q, Monomial), or None if zero."""
    b = m1.b + m2.b
    if b >= p:
        return None
    c = m1.c + m2.c
    if c >= p:
        return None
    e = m1.a * m2.b + s * (m1.c * m2.b - m1.a * m2.c)
    return e % p, Monomial(b, c, (m1.a + m2.a) % p)


def mono_mul(m1, m2, p, s):
    """Closed-form monomial product as (Cyclotomic scalar, Monomial), or None if zero."""
    r = mono_mul_exp(m1, m2, p, s)
    if r is None:
        return None
    return root_power(p, r[0]), r[1]


def accumulate(pairs):
    """Sum (key, coefficient) pairs into a dict that holds no zero coefficient."""
    acc = {}
    for key, coeff in pairs:
        prev = acc.get(key)
        tot = coeff if prev is None else prev + coeff
        if tot:
            acc[key] = tot
        elif prev is not None:
            del acc[key]
    return acc


def term_text(ctext, ktext):
    """The text of a term after another in a sum, " + term" or " - term", and "" for a coefficient "0", which
    drops its term: the one owner of the term rule.

    For a key text other than "1" it is the empty key text's followed by ``ktext``, so that
    ``StructureTable.render`` builds it once per coefficient."""
    if ctext == "0":
        return ""
    if ktext == "1":
        term = ctext if " " not in ctext else f"({ctext})"
    elif ctext == "1":
        term = ktext
    elif ctext == "-1":
        term = "-" + ktext
    else:
        term = f"({ctext}) {ktext}" if " " in ctext else f"{ctext} {ktext}"
    return " - " + term[1:] if term.startswith("-") else " + " + term


def join_texts(texts):
    """A sum of ``term_text`` texts: their concatenation, whose leading " + " is dropped and " - " becomes "-".

    An empty sum is "0"."""
    text = "".join(texts)
    return ("-" if text[1] == "-" else "") + text[3:] if text else "0"


def join_terms(terms):
    """The text of a sum of (key text, coefficient text) terms, in order."""
    return join_texts(term_text(ctext, ktext) for ktext, ctext in terms)


def _check_monomial(m, p):
    if not (0 <= m.b < p and 0 <= m.c < p and 0 <= m.a < p):
        raise ValueError(f"monomial exponents {tuple(m)} out of range for p={p}")


def _as_scalar(p, value):
    scalar = cyc_zero(p)._coerce(value)
    if scalar is None:
        raise TypeError(f"cannot use {value!r} as a coefficient")
    return scalar


class _Sparse:
    """Shared machinery for Element / Tensor2 / Tensor3; keys are tuples of legs unless a subclass says otherwise."""

    __slots__ = ("p", "s", "terms")

    def __init__(self, p, s, terms=None):
        self.p = p
        self.s = s
        clean = {}
        for key, coeff in (terms or {}).items():
            key = self._as_key(key, p)
            coeff = _as_scalar(p, coeff)
            if coeff:
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, p, s, terms):
        obj = object.__new__(cls)
        obj.p = p
        obj.s = s
        obj.terms = terms
        return obj

    @classmethod
    def _as_key(cls, key, p):
        if cls._legs == 1:
            m = key if isinstance(key, Monomial) else Monomial(*key)
            _check_monomial(m, p)
            return m
        key = tuple(m if isinstance(m, Monomial) else Monomial(*m) for m in key)
        if len(key) != cls._legs:
            raise ValueError(f"expected {cls._legs} tensor legs, got {len(key)}")
        for m in key:
            _check_monomial(m, p)
        return key

    @classmethod
    def zero(cls, p, s):
        return cls._raw(p, s, {})

    @classmethod
    def unit(cls, p, s):
        key = ONE if cls._legs == 1 else (ONE,) * cls._legs
        return cls._raw(p, s, {key: root_power(p, 0)})

    def _compatible(self, other):
        if not isinstance(other, type(self)):
            return None
        if (other.p, other.s) != (self.p, self.s):
            raise ValueError(
                f"cannot combine values from H({self.p},{self.s}) and H({other.p},{other.s})"
            )
        return other

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        other = self._compatible(other)
        if other is None:
            return NotImplemented
        return self._raw(self.p, self.s, accumulate(chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return self._raw(self.p, self.s, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = self._compatible(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def scale(self, coeff):
        """Scalar multiple (coefficient may be int, Fraction or Cyclotomic)."""
        coeff = _as_scalar(self.p, coeff)
        if not coeff:
            return self._raw(self.p, self.s, {})
        return self._raw(self.p, self.s, {k: v * coeff for k, v in self.terms.items()})

    # -- multiplicative structure ---------------------------------------------

    def _mul_key(self, k1, k2):
        """The product of two keys leg by leg, with no braiding: (exponent of q, key), or None if a leg vanishes."""
        p, s = self.p, self.s
        acc_e = 0
        monos = []
        for u, v in zip(k1, k2):
            r = mono_mul_exp(u, v, p, s)
            if r is None:
                return None
            acc_e += r[0]
            monos.append(r[1])
        return acc_e, tuple(monos)

    def _products(self, other):
        """(key, coefficient) of each non-zero product of a term of self and one of other."""
        p = self.p
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                r = self._mul_key(k1, k2)
                if r is not None:
                    yield r[1], c1 * c2 * root_power(p, r[0])

    def __mul__(self, other):
        compatible = self._compatible(other)
        if compatible is None:
            return self.__rmul__(other)
        return self._raw(self.p, self.s, accumulate(self._products(compatible)))

    def __rmul__(self, other):
        """A scalar multiple, scalars being what ``Cyclotomic._coerce`` takes; anything else is NotImplemented."""
        scalar = cyc_zero(self.p)._coerce(other)
        return NotImplemented if scalar is None else self.scale(scalar)

    # -- comparisons and views --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, type(self)) or self._legs != other._legs:
            return NotImplemented
        return (self.p, self.s) == (other.p, other.s) and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, self.p, self.s, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    @staticmethod
    def _render_key(key):
        return " (x) ".join(m.render() for m in key)

    def render(self):
        return join_terms((self._render_key(key), self.terms[key].render()) for key in sorted(self.terms))

    __str__ = render

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p}, s={self.s}, {self.render()})"


class Element(_Sparse):
    """A sparse linear combination of PBW monomials of H(p, s)."""

    __slots__ = ()
    _legs = 1

    @classmethod
    def monomial(cls, p, s, mono, coeff=1):
        return cls(p, s, {mono: coeff})

    def _mul_key(self, k1, k2):
        return mono_mul_exp(k1, k2, self.p, self.s)

    @staticmethod
    def _render_key(key):
        return key.render()


class Tensor2(_Sparse):
    """A sparse element of H(p, s) tensor H(p, s), multiplied leg by leg."""

    __slots__ = ()
    _legs = 2

    @classmethod
    def pure(cls, p, s, m1, m2, coeff=1):
        return cls(p, s, {(m1, m2): coeff})


class Tensor3(_Sparse):
    """A sparse element of the triple tensor power of H(p, s)."""

    __slots__ = ()
    _legs = 3

    @classmethod
    def pure(cls, p, s, m1, m2, m3, coeff=1):
        return cls(p, s, {(m1, m2, m3): coeff})
