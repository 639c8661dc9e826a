"""Exact arithmetic in the prime cyclotomic field Q(zeta_p).

A scalar is stored in the power basis 1, z, ..., z^(p-2), where z is a fixed
primitive p-th root of unity with minimal polynomial
Phi_p(t) = 1 + t + ... + t^(p-1).  Reduction modulo Phi_p happens eagerly on
construction, so the representation is canonical: two scalars are equal if and
only if their coefficient tuples are equal.

Coefficients are exact rationals, held as integer numerators over a single
positive denominator in lowest terms (the public ``coeffs`` property exposes
them as ``Fraction`` objects).  Integers grow without bound; nothing here ever
rounds.  Instances are immutable, hence safe to share across threads.

Every coefficient the Hopf structure builds is an integer, so ``fractions``
(which loads ``decimal`` and ``numbers`` with it, about 2.4 ms per process)
is imported only by the members that take or return a non-integral rational:
``coeffs``, ``as_rational``, ``parse``, a non-int coefficient or operand, a
compare across p, and the hash of a non-integral value.  An int operand takes
an int path.  An operand is a ``Fraction`` only if ``fractions`` is already
loaded, which is exact, as no ``Fraction`` exists before its module does.

The printable form is a polynomial in ``q``, e.g. ``1 - q + (1/2)q^2``, and
``Cyclotomic.parse`` inverts it exactly.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import gcd, lcm

__all__ = ["Cyclotomic", "root_power", "cyc_zero", "cyc_one", "is_odd_prime"]


def _fraction(*args):
    """``Fraction(*args)``, importing ``fractions`` on first use."""
    from fractions import Fraction

    return Fraction(*args)


def _is_fraction(value):
    """Whether value is a ``Fraction``, without importing ``fractions``: none exists before it is loaded."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def _build(p, num, den, power):
    obj = object.__new__(Cyclotomic)
    obj.p = p
    obj.num = num
    obj.den = den
    obj._power = power
    return obj


def _normalize(p, nums, den):
    """Canonicalize a length-p integer coefficient list over ``den``.

    Index p-1 is folded down via z^(p-1) = -(1 + z + ... + z^(p-2)); the gcd of
    all entries and the denominator is stripped; the pure-power tag is detected.
    """
    top = nums[p - 1]
    if top:
        nums = [v - top for v in nums[: p - 1]]
    else:
        nums = nums[: p - 1]
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    if not any(nums):
        return (0,) * (p - 1), 1, None
    power = None
    if den == 1:
        if all(v == -1 for v in nums):
            power = p - 1
        else:
            hits = [e for e, v in enumerate(nums) if v]
            if len(hits) == 1 and nums[hits[0]] == 1:
                power = hits[0]
    return tuple(nums), den, power


class Cyclotomic:
    """An element of Q(zeta_p) in canonical power-basis form."""

    __slots__ = ("p", "num", "den", "_power")

    def __init__(self, p, coeffs=()):
        _check_p(p)
        fracs = [c if isinstance(c, int) or _is_fraction(c) else _fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        nums = [0] * p
        for e, f in enumerate(fracs):
            nums[e % p] += f.numerator * (den // f.denominator)
        self.num, self.den, self._power = _normalize(p, nums, den)
        self.p = p

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(p, value):
        _check_p(p)
        f = value if isinstance(value, int) else _fraction(value)  # an int is its own numerator over 1
        if not f:
            return cyc_zero(p)
        num = (f.numerator,) + (0,) * (p - 2)
        power = 0 if f == 1 else None
        return _build(p, num, f.denominator, power)

    # -- views ---------------------------------------------------------------

    @property
    def coeffs(self):
        """The p-1 power-basis coefficients as exact Fractions."""
        return tuple(_fraction(n, self.den) for n in self.num)

    def as_rational(self):
        """The value as a Fraction if it lies in Q, else None."""
        if any(self.num[1:]):
            return None
        return _fraction(self.num[0], self.den)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise ValueError(
                    f"cannot mix scalars from Q(zeta_{self.p}) and Q(zeta_{other.p})"
                )
            return other
        if isinstance(other, int) or _is_fraction(other):
            return Cyclotomic.from_rational(self.p, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p, d1, d2 = self.p, self.den, other.den
        if d1 == d2:
            nums = [a + b for a, b in zip(self.num, other.num)]
            den = d1
        else:
            den = lcm(d1, d2)
            m1, m2 = den // d1, den // d2
            nums = [a * m1 + b * m2 for a, b in zip(self.num, other.num)]
        num, den, power = _normalize(p, nums + [0], den)
        return _build(p, num, den, power)

    __radd__ = __add__

    def __neg__(self):
        if not any(self.num):
            return self
        return _build(self.p, tuple(-v for v in self.num), self.den, None)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _shift(self, j):
        """self * zeta^j via index rotation (O(p) additions)."""
        p = self.p
        j %= p
        if j == 0:
            return self
        nums = [0] * p
        for e, v in enumerate(self.num):
            nums[(e + j) % p] = v
        num, den, power = _normalize(p, nums, self.den)
        return _build(p, num, den, power)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.p
        if self._power is not None:
            if other._power is not None:
                return root_power(p, self._power + other._power)
            return other._shift(self._power)
        if other._power is not None:
            return self._shift(other._power)
        n1, n2 = self.num, other.num
        conv = [0] * (2 * p - 3)
        for e1, v1 in enumerate(n1):
            if v1:
                for e2, v2 in enumerate(n2):
                    if v2:
                        conv[e1 + e2] += v1 * v2
        for e in range(2 * p - 4, p - 1, -1):
            if conv[e]:
                conv[e - p] += conv[e]
        num, den, power = _normalize(p, conv[: p - 1] + [conv[p - 1]], self.den * other.den)
        return _build(p, num, den, power)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse c / (self * c), c = sigma_2(self) ... sigma_(p-1)(self).

        sigma_k: zeta -> zeta^k permutes the coefficient list, and self * c, the
        norm of self, is a nonzero rational.
        """
        if not any(self.num):
            raise ZeroDivisionError("inverse of the zero cyclotomic scalar")
        p = self.p
        if self._power is not None:
            return root_power(p, -self._power)
        rational = self.as_rational()
        if rational is not None:
            return Cyclotomic.from_rational(p, 1 / rational)
        c = root_power(p, 0)
        for k in range(2, p):
            nums = [0] * p
            for e, v in enumerate(self.num):
                nums[e * k % p] = v
            c = c * _build(p, *_normalize(p, nums, self.den))
        return c * (1 / (self * c).as_rational())

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        p = self.p
        if self._power is not None:
            return root_power(p, self._power * n)
        if n < 0:
            return self.inv() ** (-n)
        result = root_power(p, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            if self.p == other.p:
                return self.num == other.num and self.den == other.den
            a, b = self.as_rational(), other.as_rational()
            return a is not None and a == b
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other and not any(self.num[1:])
        if _is_fraction(other):
            return self.as_rational() == other
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as its Fraction, to agree with __eq__ across p and with int and Fraction;
        # hash(n) is hash(Fraction(n, 1)), so an integral value builds no Fraction
        if any(self.num[1:]):
            return hash((self.p, self.num, self.den))
        return hash(self.num[0]) if self.den == 1 else hash(_fraction(self.num[0], self.den))

    def __bool__(self):
        return any(self.num)

    # -- rendering ------------------------------------------------------------

    def render(self):
        """Polynomial-in-q text form, e.g. ``1 - q + (1/2)q^2``."""
        if not any(self.num):
            return "0"
        parts = []
        for e, n in enumerate(self.num):
            if n == 0:
                continue
            neg, n, d = n < 0, abs(n), self.den
            if d > 1:  # the coefficient n/d in lowest terms
                g = gcd(n, d)
                n, d = n // g, d // g
            if e == 0:
                body = str(n) if d == 1 else f"{n}/{d}"
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                if d > 1:
                    body = f"({n}/{d}){qpart}"
                else:
                    body = qpart if n == 1 else f"{n}{qpart}"
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    __str__ = render

    def __repr__(self):
        return f"Cyclotomic(p={self.p}, {self.render()})"

    @classmethod
    def parse(cls, p, text):
        """Inverse of :meth:`render` (accepts exactly that grammar)."""
        s = text.strip()
        if s == "0":
            return cyc_zero(p)
        s = s.replace(" - ", " + -")
        total = cyc_zero(p)
        for chunk in s.split(" + "):
            chunk = chunk.strip().replace(" ", "")
            if not chunk:
                raise ValueError(f"cannot parse scalar text {text!r}")
            sign = 1
            if chunk.startswith("-") and not chunk[1:2].isdigit():
                sign, chunk = -1, chunk[1:]
            m = _term_re().match(chunk)
            if not m or (m.group("pn") is None and m.group("n") is None and m.group("q") is None):
                raise ValueError(f"cannot parse scalar term {chunk!r} in {text!r}")
            if m.group("pn") is not None:
                coeff = _fraction(int(m.group("pn")), int(m.group("pd")))
            elif m.group("n") is not None:
                coeff = _fraction(int(m.group("n")), int(m.group("d") or 1))
            else:
                coeff = 1
            if m.group("q"):
                e = int(m.group("e") or 1)
            else:
                e = 0
            total = total + root_power(p, e) * (sign * coeff)
        return total


# -- module-level helpers ------------------------------------------------------


@lru_cache(maxsize=None)
def _term_re():
    """The grammar of one term of :meth:`Cyclotomic.render`, compiled on the first ``parse``."""
    import re

    return re.compile(
        r"^(?:\((?P<pn>-?\d+)/(?P<pd>\d+)\)|(?P<n>-?\d+)(?:/(?P<d>\d+))?)?"
        r"(?P<q>q(?:\^(?P<e>\d+))?)?$"
    )


def is_odd_prime(p):
    """Whether p is an int that is an odd prime (trial division)."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _check_p(p):
    """Reject any order for which reduction mod Phi_p would be wrong."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p!r}")


@lru_cache(maxsize=None)
def _power_table(p):
    _check_p(p)
    table = []
    for j in range(p - 1):
        num = tuple(1 if e == j else 0 for e in range(p - 1))
        table.append(_build(p, num, 1, j))
    table.append(_build(p, (-1,) * (p - 1), 1, p - 1))
    return tuple(table)


def root_power(p, j):
    """zeta_p^j as a canonical (cached) scalar."""
    table = _power_table(p)
    return table[j % p]


@lru_cache(maxsize=None)
def cyc_zero(p):
    _check_p(p)
    return _build(p, (0,) * (p - 1), 1, None)


def cyc_one(p):
    return root_power(p, 0)

