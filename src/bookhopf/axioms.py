"""Hopf-algebra axiom verification for a BookAlgebra instance.

Each check returns an :class:`AxiomReport` whose per-axiom results carry a
pass/fail status, the list of violations (both sides of the failed equation
rendered exactly, plus the offending basis data), and wall-clock timing.
``run_all`` aggregates the six checks in a fixed order.

Checks over basis pairs/triples run exhaustively when the domain is small
(pairs: up to 25 000, i.e. p <= 5; triples: up to 2 000 000, i.e. p <= 5) or
when the requested sample size covers the whole domain; otherwise they draw
seeded uniform samples, so reports are deterministic given (p, s, seed).
Everything here is pure computation over immutable values; checks can safely
run concurrently on the same algebra instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from .cyclotomic import cyc_zero, root_power
from .pbw import Element, Monomial, Tensor2, Tensor3, mono_mul_exp

__all__ = [
    "Violation",
    "AxiomResult",
    "AxiomReport",
    "check_associativity",
    "check_coassociativity",
    "check_counit_law",
    "check_bialgebra_compat",
    "check_antipode_law",
    "check_relations",
    "run_all",
    "negative_control_matches",
    "PAIR_EXHAUSTIVE_LIMIT",
    "TRIPLE_EXHAUSTIVE_LIMIT",
    "DEFAULT_SAMPLE_SIZE",
    "DEFAULT_SEED",
]

PAIR_EXHAUSTIVE_LIMIT = 25_000
TRIPLE_EXHAUSTIVE_LIMIT = 2_000_000
DEFAULT_SAMPLE_SIZE = 1_000_000
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Violation:
    axiom: str
    at: str
    lhs: str
    rhs: str

    def to_dict(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "at": self.at}


@dataclass
class AxiomResult:
    axiom: str
    status: str  # "pass" | "fail"
    violations: list[Violation]
    elapsed_ms: float
    checked: int
    mode: str

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return {
            "axiom": self.axiom,
            "status": self.status,
            "violations": [v.to_dict() for v in self.violations],
            "elapsed_ms": self.elapsed_ms,
            "checked": self.checked,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            axiom=d["axiom"],
            status=d["status"],
            violations=[
                Violation(axiom=d["axiom"], at=v["at"], lhs=v["lhs"], rhs=v["rhs"])
                for v in d["violations"]
            ],
            elapsed_ms=d["elapsed_ms"],
            checked=d["checked"],
            mode=d["mode"],
        )


@dataclass
class AxiomReport:
    results: list[AxiomResult] = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def result(self, axiom):
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)

    def violations(self):
        return [v for r in self.results for v in r.violations]

    def to_payload(self):
        return [r.to_dict() for r in self.results]

    @classmethod
    def from_payload(cls, payload):
        return cls(results=[AxiomResult.from_dict(d) for d in payload])


MAX_VIOLATIONS_RENDERED = 10_000  # keep pathological reports bounded


class _Recorder:
    def __init__(self, axiom):
        self.axiom = axiom
        self.violations = []
        self.t0 = perf_counter()
        self.checked = 0

    def hit(self, at, lhs, rhs):
        if len(self.violations) < MAX_VIOLATIONS_RENDERED:
            self.violations.append(Violation(self.axiom, at, lhs, rhs))

    def finish(self, mode):
        elapsed = round((perf_counter() - self.t0) * 1000.0, 3)
        # a check that examined nothing has shown nothing: never a pass
        status = "pass" if self.checked and not self.violations else "fail"
        return AxiomResult(self.axiom, status, self.violations, elapsed, self.checked, mode)


def _plan(domain, sample_size, exhaustive, limit):
    """Return ("exhaustive", None) or ("sampled", n) for a domain of given size.

    Raises ValueError for a sample size below 1, which would check nothing.
    """
    if sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")
    if exhaustive or domain <= limit or sample_size >= domain:
        return "exhaustive", None
    return f"sampled(n={sample_size})", sample_size


def _render_scaled_mono(p, s, e, mono):
    return Element._raw(p, s, {mono: root_power(p, e)}).render()


def check_associativity(algebra, *, seed=DEFAULT_SEED, sample_size=DEFAULT_SAMPLE_SIZE, exhaustive=False):
    """(m1 m2) m3 = m1 (m2 m3) over basis triples, via the closed-form product."""
    A = algebra
    p, s = A.p, A.s
    basis = A.basis()
    n = len(basis)
    rec = _Recorder("associativity")
    mode, draws = _plan(n ** 3, sample_size, exhaustive, TRIPLE_EXHAUSTIVE_LIMIT)

    def both_sides(m1, m2, m3):
        left = mono_mul_exp(m1, m2, p, s)
        if left is not None:
            e12, m12 = left
            left = mono_mul_exp(m12, m3, p, s)
            if left is not None:
                left = ((e12 + left[0]) % p, left[1])
        right = mono_mul_exp(m2, m3, p, s)
        if right is not None:
            e23, m23 = right
            right = mono_mul_exp(m1, m23, p, s)
            if right is not None:
                right = ((e23 + right[0]) % p, right[1])
        return left, right

    def examine(m1, m2, m3):
        rec.checked += 1
        left, right = both_sides(m1, m2, m3)
        if left != right:
            rec.hit(
                f"m1={m1.render()}, m2={m2.render()}, m3={m3.render()}",
                "0" if left is None else _render_scaled_mono(p, s, *left),
                "0" if right is None else _render_scaled_mono(p, s, *right),
            )

    if draws is None:
        for m1 in basis:
            for m2 in basis:
                for m3 in basis:
                    examine(m1, m2, m3)
    else:
        rng = random.Random(seed)
        for _ in range(draws):
            examine(basis[rng.randrange(n)], basis[rng.randrange(n)], basis[rng.randrange(n)])
    return AxiomReport([rec.finish(mode)])


def check_coassociativity(algebra, **_ignored):
    """(Delta (x) id) Delta = (id (x) Delta) Delta on every basis monomial."""
    A = algebra
    p, s = A.p, A.s
    rec = _Recorder("coassociativity")
    for mono in A.basis():
        rec.checked += 1
        lhs = A.delta2_monomial(mono)
        acc = {}
        for (m1, m2), c in A.coproduct_monomial(mono).terms.items():
            for (u, v), d in A.coproduct_monomial(m2).terms.items():
                key = (m1, u, v)
                coeff = c * d
                prev = acc.get(key)
                tot = coeff if prev is None else prev + coeff
                if tot:
                    acc[key] = tot
                elif prev is not None:
                    del acc[key]
        rhs = Tensor3._raw(p, s, acc)
        if lhs != rhs:
            rec.hit(f"m={mono.render()}", lhs.render(), rhs.render())
    return AxiomReport([rec.finish("exhaustive")])


def check_counit_law(algebra, **_ignored):
    """(eps (x) id) Delta = id = (id (x) eps) Delta on every basis monomial."""
    A = algebra
    p, s = A.p, A.s
    rec = _Recorder("counit")
    for mono in A.basis():
        rec.checked += 1
        left = {}
        right = {}
        for (m1, m2), c in A.coproduct_monomial(mono).terms.items():
            if m1.b == 0 and m1.c == 0:  # eps(g^a) = 1
                _acc(left, m2, c)
            if m2.b == 0 and m2.c == 0:
                _acc(right, m1, c)
        expected = Element.monomial(p, s, mono)
        lhs_el = Element._raw(p, s, left)
        rhs_el = Element._raw(p, s, right)
        if lhs_el != expected:
            rec.hit(f"m={mono.render()} (eps on left leg)", lhs_el.render(), expected.render())
        if rhs_el != expected:
            rec.hit(f"m={mono.render()} (eps on right leg)", rhs_el.render(), expected.render())
    return AxiomReport([rec.finish("exhaustive")])


def _acc(acc, key, coeff):
    prev = acc.get(key)
    tot = coeff if prev is None else prev + coeff
    if tot:
        acc[key] = tot
    elif prev is not None:
        del acc[key]


def check_bialgebra_compat(algebra, *, seed=DEFAULT_SEED, sample_size=DEFAULT_SAMPLE_SIZE, exhaustive=False):
    """Delta and eps are algebra maps: checked on basis pairs.

    The inner loop runs over every term pair of the memoized coproducts, so it
    is written against packed integer keys with interned coefficient values
    (coefficient products memoized); this changes nothing about what is
    verified, only how fast the exhaustive p = 7 sweep finishes.
    """
    A = algebra
    p, s = A.p, A.s
    basis = A.basis()
    n = len(basis)
    rec = _Recorder("bialgebra")
    mode, draws = _plan(n * n, sample_size, exhaustive, PAIR_EXHAUSTIVE_LIMIT)
    one = root_power(p, 0)
    zero = cyc_zero(p)
    powers = tuple(root_power(p, e) for e in range(p))

    # Unpack the memoized coproducts once.  Coefficients are interned to small
    # ids and encoded as single base-2^40 integers (_pack_vec), so the inner
    # accumulation is plain int addition; products with the q^e factor are
    # memoized per (id, id, e) under the key (id1 * n_ids + id2) * p + e,
    # which is injective for every p.  Per basis monomial we keep two views of
    # the same terms: left rows carry the four per-term constants of the
    # commutation exponent, right rows the raw exponents and id2 * p.
    intern = {}
    left_rows = []
    right_rows = []
    coeff_of = []
    for m in basis:
        left = []
        right = []
        for (u, v), coeff in A.coproduct_monomial(m).terms.items():
            key = (coeff.num, coeff.den)
            vid = intern.get(key)
            if vid is None:
                vid = intern[key] = len(coeff_of)
                coeff_of.append(coeff)
            # moving the right factor's x/y letters past this term's g legs:
            # e = wb*A1 - wc*A2 + zb*A3 - zc*A4 (mod p)
            left.append((
                u.b, u.c, u.a, v.b, v.c, v.a, vid,
                (u.a + s * u.c) % p, (s * u.a) % p,
                (v.a + s * v.c) % p, (s * v.a) % p,
            ))
            right.append((u.b, u.c, u.a, v.b, v.c, v.a, vid, vid * p))
        left_rows.append(left)
        right_rows.append(right)
    stride = len(coeff_of) * p
    prod_memo = {}

    def packed_delta(i, scale_e):
        scale = powers[scale_e]
        out = {}
        for (ub, uc, ua, vb, vc, va, vid, _) in right_rows[i]:
            packed = _pack_vec(coeff_of[vid] * scale, p)
            out[(ub * p + uc) * p + ua + ((vb * p + vc) * p + va) * _BIG] = packed
        return out

    def examine(i1, i2):
        rec.checked += 1
        m1 = basis[i1]
        m2 = basis[i2]
        acc = {}
        row2 = right_rows[i2]
        for (ub, uc, ua, vb, vc, va, vid1, a1, a2, a3, a4) in left_rows[i1]:
            base = vid1 * stride
            for (wb, wc, wa, zb, zc, za, vid2, vid2p) in row2:
                bb = ub + wb
                if bb >= p:
                    continue
                cc = uc + wc
                if cc >= p:
                    continue
                bb2 = vb + zb
                if bb2 >= p:
                    continue
                cc2 = vc + zc
                if cc2 >= p:
                    continue
                e = (wb * a1 - wc * a2 + zb * a3 - zc * a4) % p
                mkey = base + vid2p + e
                coeff = prod_memo.get(mkey)
                if coeff is None:
                    coeff = prod_memo[mkey] = _pack_vec(
                        coeff_of[vid1] * coeff_of[vid2] * powers[e], p
                    )
                key = (bb * p + cc) * p + (ua + wa) % p + ((bb2 * p + cc2) * p + (va + za) % p) * _BIG
                prev = acc.get(key)
                tot = coeff if prev is None else prev + coeff
                if tot:
                    acc[key] = tot
                elif prev is not None:
                    del acc[key]
        prod = mono_mul_exp(m1, m2, p, s)
        if prod is None:
            expected = {}
        else:
            e, m12 = prod
            expected = packed_delta((m12.b * p + m12.c) * p + m12.a, e)
        if acc != expected:
            rec.hit(
                f"Delta: m1={m1.render()}, m2={m2.render()}",
                _render_packed2(p, s, expected),
                _render_packed2(p, s, acc),
            )
        # eps part
        eps1 = one if (m1.b == 0 and m1.c == 0) else zero
        eps2 = one if (m2.b == 0 and m2.c == 0) else zero
        if prod is None:
            eps12 = zero
        else:
            e, m12 = prod
            eps12 = powers[e] if (m12.b == 0 and m12.c == 0) else zero
        if eps12 != eps1 * eps2:
            rec.hit(
                f"epsilon: m1={m1.render()}, m2={m2.render()}",
                eps12.render(),
                (eps1 * eps2).render(),
            )

    if draws is None:
        for i1 in range(n):
            for i2 in range(n):
                examine(i1, i2)
    else:
        rng = random.Random(seed)
        for _ in range(draws):
            examine(rng.randrange(n), rng.randrange(n))
    return AxiomReport([rec.finish(mode)])


_BIG = 1 << 20  # packs two monomial indices into one int key
_BASE = 1 << 40  # digit width for packed coefficient vectors


def _pack_vec(coeff, p):
    """Encode an integer coefficient vector as one int, digits base 2^40.

    The encoding n = sum(v[i] * _BASE**i) is injective while every component
    stays below _BASE/2 in absolute value; sums reached in the bialgebra check
    are bounded by p^4 * max|structure constant|^2, far under that.  Addition
    of packed values is then exact componentwise addition, and zero packs to 0.
    """
    assert coeff.den == 1, "structure constants are integral"
    n = 0
    for v in reversed(coeff.num):
        n = n * _BASE + v
    return n


def _unpack_vec(n, p):
    value = cyc_zero(p)
    for i in range(p - 1):
        n, digit = divmod(n, _BASE)
        if digit >= _BASE // 2:
            digit -= _BASE
            n += 1
        if digit:
            value = value + digit * root_power(p, i)
    return value


def _unpack_mono(code, p):
    return Monomial(code // (p * p), (code // p) % p, code % p)


def _render_packed2(p, s, packed):
    terms = {
        (_unpack_mono(code % _BIG, p), _unpack_mono(code // _BIG, p)): _unpack_vec(coeff, p)
        for code, coeff in packed.items()
    }
    return Tensor2._raw(p, s, terms).render()


def check_antipode_law(algebra, **_ignored):
    """m(S (x) id)Delta = eps(.)1 = m(id (x) S)Delta on every basis monomial."""
    A = algebra
    p, s = A.p, A.s
    rec = _Recorder("antipode")
    for mono in A.basis():
        rec.checked += 1
        left = {}
        right = {}
        for (m1, m2), c in A.coproduct_monomial(mono).terms.items():
            for sm, sc in A.antipode_monomial(m1).terms.items():
                r = mono_mul_exp(sm, m2, p, s)
                if r is not None:
                    _acc(left, r[1], c * sc * root_power(p, r[0]))
            for sm, sc in A.antipode_monomial(m2).terms.items():
                r = mono_mul_exp(m1, sm, p, s)
                if r is not None:
                    _acc(right, r[1], c * sc * root_power(p, r[0]))
        eps = A.counit_monomial(mono)
        expected = {Monomial(0, 0, 0): eps} if eps else {}
        lhs_el = Element._raw(p, s, left)
        rhs_el = Element._raw(p, s, right)
        target = Element._raw(p, s, expected)
        if lhs_el != target:
            rec.hit(f"m={mono.render()} (S on left leg)", lhs_el.render(), target.render())
        if rhs_el != target:
            rec.hit(f"m={mono.render()} (S on right leg)", rhs_el.render(), target.render())
    return AxiomReport([rec.finish("exhaustive")])


def _relation_words(p, s):
    """The defining relations as (name, lhs word, q-exponent, rhs word).

    A relation reads: product(lhs) = q^exponent * product(rhs); rhs None means 0.
    """
    return [
        ("g x = q x g", "gx", 1, "xg"),
        (f"g y = q^-{s} y g", "gy", -s, "yg"),
        (f"g^{p} = 1", "g" * p, 0, ""),
        (f"x^{p} = 0", "x" * p, 0, None),
        (f"y^{p} = 0", "y" * p, 0, None),
        (f"x y = q^-{s} y x", "xy", -s, "yx"),
    ]


def check_relations(algebra, **_ignored):
    """Each defining relation holds after applying Delta and after applying S.

    Delta is multiplicative, so a relation u = c v is checked as
    Delta-images multiplied in order; S is anti-multiplicative, so both
    products are reversed (same scalar).
    """
    A = algebra
    p, s = A.p, A.s
    rec = _Recorder("relations")
    q = root_power(p, 1)

    def delta_word(word):
        out = Tensor2.unit(p, s)
        for letter in word:
            out = out * A._delta_gen[letter]
        return out

    def antipode_word(word):
        out = Element.unit(p, s)
        for letter in reversed(word):
            out = out * A._antipode_gen[letter]
        return out

    for name, lhs_word, e, rhs_word in _relation_words(p, s):
        rec.checked += 1
        lhs = delta_word(lhs_word)
        rhs = Tensor2.zero(p, s) if rhs_word is None else delta_word(rhs_word).scale(q ** e)
        if lhs != rhs:
            rec.hit(f"Delta: {name}", lhs.render(), rhs.render())
        rec.checked += 1
        lhs_s = antipode_word(lhs_word)
        rhs_s = Element.zero(p, s) if rhs_word is None else antipode_word(rhs_word).scale(q ** e)
        if lhs_s != rhs_s:
            rec.hit(f"S: {name}", lhs_s.render(), rhs_s.render())
    return AxiomReport([rec.finish("exhaustive")])


_CHECKS = (
    check_associativity,
    check_coassociativity,
    check_counit_law,
    check_bialgebra_compat,
    check_antipode_law,
    check_relations,
)


def run_all(algebra, *, seed=DEFAULT_SEED, sample_size=DEFAULT_SAMPLE_SIZE, exhaustive=False):
    """Run the six axiom checks in a fixed order and merge the reports."""
    results = []
    for check in _CHECKS:
        results.extend(
            check(algebra, seed=seed, sample_size=sample_size, exhaustive=exhaustive).results
        )
    return AxiomReport(results)


def negative_control_matches(report, p):
    """True iff the failure pattern is exactly the predicted s = 0 breakdown.

    At s = 0 the only broken relation image is Delta(y)^p != 0; the bialgebra
    compatibility check necessarily fails with it, but only on pairs whose
    y-exponents overflow (c1 + c2 >= p) while the x-exponents do not.  All
    other axioms must pass.
    """
    try:
        relations = report.result("relations")
    except KeyError:
        return False
    if [v.at for v in relations.violations] != [f"Delta: y^{p} = 0"]:
        return False
    for axiom in ("associativity", "coassociativity", "counit", "antipode"):
        try:
            if not report.result(axiom).passed:
                return False
        except KeyError:
            return False
    try:
        bialgebra = report.result("bialgebra")
    except KeyError:
        return False
    for v in bialgebra.violations:
        kind, _, rest = v.at.partition(": ")
        if kind != "Delta":
            return False
        try:
            parts = dict(item.split("=", 1) for item in rest.split(", "))
            m1 = Monomial.parse(parts["m1"])
            m2 = Monomial.parse(parts["m2"])
        except (KeyError, ValueError):
            return False
        if not (m1.c + m2.c >= p and m1.b + m2.b < p):
            return False
    return True
