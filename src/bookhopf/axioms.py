"""Hopf-algebra axiom verification for a BookAlgebra instance.

Each check returns an :class:`AxiomReport` whose results carry a pass/fail
status, the violations (both sides rendered exactly, with the offending
basis data) and wall-clock timing; ``run_all`` runs the six checks in a
fixed order.  Every check covers its whole domain, by a proof or a sweep,
and no check draws.  A sweep reports exhaustive with its whole domain
checked, and so does a proved run of every check but associativity, which
carries the label of ``_plan``: ``sample_size`` and ``exhaustive`` reach
that label alone, and ``seed`` reaches nothing.  Every check and
``run_all`` take the three as keywords.

*Proof by generators.*  Every check but the relations is first proved on
the live tables: associativity by the cocycle lemma of
``check_associativity``, the other four by induction on the generators g,
x and y.  Every proof rests on ``BookAlgebra.generation()``, premises U
(the row of 1 in the product table is the identity) and F (every
basis[i] but 1, g, x and y is q^e t basis[j] for a generator t and some
j < i).  *Lemma:* let a law L(m)
about a basis monomial m hold at m = 1 and at g, x and y, and let
L(basis[j]) imply L(t basis[j]) for every generator t and basis[j].  Then
L holds on the whole basis, by strong induction on i along the (t, j, e)
of ``generation()``, as L(q^e m) is L(m) for the laws here.  Each proof
states only its law, its checks at 1 and at the generators, and its step
from basis[j] to t basis[j].  ``_Proofs`` computes the premises the
proofs share, each at most once per table state:

- *associative*: ``generation()`` holds and the live product table is
  that of a bilinear q-exponent, the proof of ``check_associativity``;
- *presented*: *associative* at (alpha, beta, gamma) = (1, -s, s), so that
  ``Element`` multiplies as the live table does, and ``relations()`` a
  presentation of H by g, x and y;
- *multiplicative*: Delta and eps are algebra maps, the proof of
  ``check_bialgebra_compat`` by its presentation lemma: *presented*,
  Delta(1) = 1 (x) 1 and eps(1) = 1, the Delta and eps images of the
  relations, and both laws at every step of ``generation()``;
- *steps*: both laws hold at every step pair (t, basis[j]) of
  ``generation()``, at every pair of left legs and at every pair of
  right legs of Delta(t) and Delta(basis[j]);
- *anti-multiplicative*: S(m1 m2) = S(m2) S(m1), by the same lemma on
  *presented*, S(1) = 1, the reversed S images of the relations and
  S(basis[i]) = q^e S(basis[j]) S(t) at every step.

The five proofs, each with its premises: associativity (*associative*),
the bialgebra law (*multiplicative*), coassociativity and the counit law
(*steps* and the law at 1, g, x and y) and the antipode law (*steps*,
*anti-multiplicative* and the law at 1, g, x and y).  Where
*multiplicative* holds, so does *steps*, with no further work.  At s = 0
it fails at the relation image Delta(y)^p = 0, and ``_Proofs.broken``
decides *steps* off the run memo of ``lanes._Lanes``: the 3 p^2 lane runs
of t in {g, x, y} against every x^b y^c, where the law Delta(t m) =
Delta(t) Delta(m) at a pair (t, m) is one bit.  *steps* holds there, so
only the bialgebra law is swept, and the sweep reads every run off that
memo too.  The ``lanes`` module holds that whole failure path, and a run
whose proofs hold does not load it.  One protocol, ``_prove_or_sweep``,
runs them all: a proved run reports its mode and ``checked``, with no
violation; if a premise fails, the sweep runs as if no proof had been
tried.  ``run_all`` passes one ``_Proofs`` to every check, and a check
called alone builds its own; nothing is cached on the algebra, whose
tables a caller may change between checks.

*One cap.*  Every sweep, and the relations check, is a generator of
(at, lhs, rhs) that renders a violation only as it yields it, and
``_Recorder.finish`` takes the first MAX_VIOLATIONS_RENDERED of them with
one ``islice``.  That leaves the generator suspended at the cap, so
nothing is read or rendered past it: past the cap nothing can change
the report, which fails with its ``checked``.

Every check but the relations runs on integers: products are read off the
basis-index product table, and Delta and S off the structure table, whose
compares the ``hopf`` module docstring shows exact; eps is read off
``BookAlgebra.counit_monomial``.  ``StructureTable.render`` renders the
failing sides of coassociativity, the counit law and Delta
multiplicativity straight from their packed sums, ``Element`` those of
associativity, the antipode law and the relations.  The checks are pure
computation and may run concurrently on one algebra instance.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from time import perf_counter
from typing import NamedTuple

from .cyclotomic import root_power
from .hopf import bilinear_rows
from .pbw import Element

__all__ = [
    "Violation", "AxiomResult", "AxiomReport", "check_associativity", "check_coassociativity",
    "check_counit_law", "check_bialgebra_compat", "check_antipode_law", "check_relations", "run_all",
    "TRIPLE_EXHAUSTIVE_LIMIT", "DEFAULT_SAMPLE_SIZE",
]

TRIPLE_EXHAUSTIVE_LIMIT = 2_000_000
DEFAULT_SAMPLE_SIZE = 1_000_000


class Violation(NamedTuple):
    axiom: str
    at: str
    lhs: str
    rhs: str

    def to_dict(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "at": self.at}


class AxiomResult(NamedTuple):
    axiom: str
    violations: list[Violation]
    elapsed_ms: float
    checked: int
    mode: str

    @property
    def status(self):
        # a check that examined nothing has shown nothing: never a pass
        return "pass" if self.checked and not self.violations else "fail"

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
        axiom, found = d["axiom"], d["violations"]
        if type(axiom) is not str:
            raise ValueError(f"axiom must be a str, got {axiom!r}")
        checked, mode, elapsed_ms = d["checked"], d["mode"], d["elapsed_ms"]  # a bool is an int, a str no count
        if type(checked) is not int or checked < 0 or type(mode) is not str or not (
                type(elapsed_ms) in (int, float) and 0 <= elapsed_ms < float("inf")):  # NaN is not >= 0
            raise ValueError(f"{axiom}: checked must be an int >= 0, mode a str and elapsed_ms a number >= 0, got "
                             f"{checked!r}, {mode!r} and {elapsed_ms!r}")
        if type(found) is not list or not all(
                type(v) is dict and all(type(v.get(k)) is str for k in ("at", "lhs", "rhs")) for v in found):
            raise ValueError(f"{axiom}: violations must be a list of dicts whose at, lhs and rhs are strs")
        violations = [Violation(axiom, v["at"], v["lhs"], v["rhs"]) for v in found]
        out = cls(axiom, violations, elapsed_ms, checked, mode)
        if out.status != d["status"]:
            raise ValueError(f"{out.axiom}: status {d['status']!r} disagrees with checked and violations")
        return out


class AxiomReport(NamedTuple):
    results: list[AxiomResult]

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
        self.t0 = perf_counter()

    def finish(self, mode, checked, found):
        """The result, with the first MAX_VIOLATIONS_RENDERED of the (at, lhs, rhs) that ``found`` yields: ``islice``
        draws none past them, so a sweep left suspended there reads and renders nothing past the cap."""
        violations = [Violation(self.axiom, *v) for v in islice(found, MAX_VIOLATIONS_RENDERED)]
        elapsed = round((perf_counter() - self.t0) * 1000.0, 3)
        return AxiomResult(self.axiom, violations, elapsed, checked, mode)


def _prove_or_sweep(rec, mode, checked, proved, sweep):
    """The protocol of every proof by generators: report the route's ``mode`` and ``checked``, and unless
    ``proved()`` the violations that ``sweep()``, the route as if no proof had been tried, yields up to the cap."""
    return AxiomReport([rec.finish(mode, checked, () if proved() else sweep())])


def _per_monomial(rec, algebra, proofs, premises, law):
    """``_prove_or_sweep`` for a law checked per basis monomial: ``law(indices)`` yields its violations there.

    Proved when the ``_Proofs`` verdicts named in ``premises`` hold and
    ``law`` yields nothing at 1, g, x and y, where it is drawn from only up
    to its first violation; the run then reports exhaustive with every
    monomial checked.  Otherwise ``law`` runs on the whole basis.
    """
    n = len(algebra.basis())

    def proved():
        premised = all(getattr(proofs, premise) for premise in premises)
        return premised and next(law((0, *algebra.generators)), None) is None

    return _prove_or_sweep(rec, "exhaustive", n, proved, lambda: law(range(n)))


def _plan(domain, sample_size, exhaustive):
    """The label (mode, checked) of a proved associativity run over ``domain`` triples: ("exhaustive", domain), or
    (f"sampled(n={sample_size})", sample_size) past TRIPLE_EXHAUSTIVE_LIMIT triples for a sample size below the
    domain, unless ``exhaustive``.

    Raises ValueError for a sample size that is not an int (a bool included) or below 1, which would check nothing.
    """
    if type(sample_size) is not int:  # 2.5 or True would label a pass with no count, "5" would not compare
        raise ValueError(f"sample size must be an int, got {sample_size!r}")
    if sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")
    if exhaustive or domain <= TRIPLE_EXHAUSTIVE_LIMIT or sample_size >= domain:
        return "exhaustive", domain
    return f"sampled(n={sample_size})", sample_size


def _shifts(p, n):
    """shift[e] maps each code to the code of q^e times it and ends in -1, so that index -1 (a zero product) stays -1."""
    return [tuple(c - c % p + (c + e) % p for c in range(n * p)) + (-1,) for e in range(p)]


def _summed(row, n, e=0):
    """A Delta row times q^e as a packed sum {u n + v: value}, summed per key."""
    out = {}
    for u, v, r in row:
        out[u * n + v] = out.get(u * n + v, 0) + r[e]
    return out


def check_associativity(algebra, *, sample_size=DEFAULT_SAMPLE_SIZE, exhaustive=False, _proofs=None, **_ignored):
    """(m1 m2) m3 = m1 (m2 m3) over basis triples, read off the product table.

    Codes are t * p + e for q^e basis[t] and -1 for 0, as in the table.

    *Proof by the cocycle lemma*, ``_Proofs.associative``, tried on every
    run.  Write m_u = x^b y^c g^a for u = (b, c, a), with 0 <= b, c < p and
    a taken mod p, and for integers alpha, beta and gamma let

        phi(u, v) = alpha a_u b_v + beta a_u c_v + gamma c_u b_v.

    *Lemma:* the product m_u m_v = q^phi(u, v) m_(u+v), which is 0 once
    b_u + b_v or c_u + c_v reaches p, is associative.  phi is additive in
    each argument, and q^phi(u, v) depends on a_u only mod p, so
    q^phi(u + v, w) = q^(phi(u, w) + phi(v, w)) and q^phi(u, v + w) =
    q^(phi(u, v) + phi(u, w)).  Hence, where neither side is 0,

        (m_u m_v) m_w = q^(phi(u, v) + phi(u + v, w)) m_(u+v+w) = q^(phi(u, v) + phi(u, w) + phi(v, w)) m_(u+v+w)
        m_u (m_v m_w) = q^(phi(v, w) + phi(u, v + w)) m_(u+v+w) = q^(phi(u, v) + phi(u, w) + phi(v, w)) m_(u+v+w)

    As b and c are never negative, the left side is 0 exactly when
    b_u + b_v + b_w or c_u + c_v + c_w reaches p, and so is the right side:
    one side is 0 exactly when the other is.  The premise holds when
    ``generation()`` does, as the other proofs need premise F, and the live
    table is ``hopf.bilinear_rows`` at (alpha, beta, gamma), read off its
    entries g x = q^alpha x g, g y = q^beta y g and y x = q^gamma x y; if
    any of the three is 0 it fails.  H(p, s) is the table at (1, -s, s).
    The two tables are compared a row at a time, so no second table is
    kept, and the proof costs about one table fill: 0.03 s at p = 11 and
    0.08 s at p = 13 (2-core Xeon VM, Python 3.11).  A proved run reports
    the label of ``_plan``: exhaustive with n^3 triples checked, or, at
    p >= 7 with the default sample size or one below n^3, sampled with the
    sample size as ``checked``, although it draws nothing.

    *The sweep*, where the proof fails.  The proof holds on every H(p, s),
    s = 0 included, so only a library caller with a doctored table gets
    here.  For each m1 the sweep compares the rows (m1 m2) m3 and
    m1 (m2 m3) over all m3 at once, for every m2, and walks a differing row
    in m3 order, yielding its violations.  (m1 m2) m3 is row t12 of
    ``_Proofs.rows`` read through ``shift[e12]``, and m1 (m2 m3) is row m2
    read through a map, built per m1, that takes the code of q^e basis[t]
    to that of m1 q^e basis[t]; each read is an ``itemgetter`` of the row,
    built on the fly.  At the cap (see the module docstring) the sweep is
    drawn from no more, so it stops there.  It reports exhaustive with n^3
    checked, whatever ``sample_size`` and ``exhaustive`` say.  Its cost is the library's to bear: about 1 s on a
    doctored H(7, 2), and where fewer violations than the cap arise up to
    about 2.4 minutes at p = 11 and 11 minutes at p = 13 (108 ms and 296 ms
    per m1 on the same VM).
    """
    A = algebra
    p, s = A.p, A.s
    basis = A.basis()
    n = len(basis)
    rec = _Recorder("associativity")
    proofs = _proofs or _Proofs(A)
    mode, checked = _plan(n ** 3, sample_size, exhaustive)
    if not proofs.associative:
        mode, checked = "exhaustive", n ** 3  # the sweep's

    def render(code):
        return "0" if code < 0 else Element._raw(p, s, {basis[code // p]: root_power(p, code % p)}).render()

    def sweep():
        rows, shift, zero = proofs.rows, _shifts(p, n), (-1,) * n
        for i1 in range(n):
            row = rows[i1]
            f = tuple(chain.from_iterable(zip(*map(itemgetter(*row), shift)))) + (-1,)  # m1 q^e basis[t] at t p + e
            for i2, c in enumerate(row):  # m1 m2 = q^e12 basis[t12] at c = t12 p + e12, or 0 at c = -1
                lhs = zero if c < 0 else itemgetter(*rows[c // p])(shift[c % p])
                rhs = itemgetter(*rows[i2])(f)
                if lhs == rhs:
                    continue
                for i3, left, right in zip(range(n), lhs, rhs):
                    if left != right:
                        yield (f"m1={basis[i1].render()}, m2={basis[i2].render()}, m3={basis[i3].render()}",
                               render(left), render(right))

    return _prove_or_sweep(rec, mode, checked, lambda: proofs.associative, sweep)


def check_coassociativity(algebra, *, _proofs=None, **_ignored):
    """(Delta (x) id) Delta = (id (x) Delta) Delta on every basis monomial.

    Both sides are packed sums off the structure table, keyed by the basis
    indices of the three legs; a failing monomial's sides are rendered
    straight from those sums.

    *Proof by generators* (see the module docstring), on the premise
    *steps* and this row compare at 1, g, x and y.  Write Delta(t) =
    sum t1 (x) t2 and Delta(basis[j]) = sum b1 (x) b2 over their terms, and
    multiply in H (x) H and H (x) H (x) H leg by leg; the step is

        (Delta (x) id) Delta(t basis[j]) = (Delta (x) id)(Delta(t) Delta(basis[j]))        Delta law at (t, basis[j])
                                         = sum Delta(t1) Delta(b1) (x) t2 b2                 Delta law at (t1, b1)
                                         = (Delta (x) id) Delta(t) . (Delta (x) id) Delta(basis[j])
                                         = (id (x) Delta) Delta(t) . (id (x) Delta) Delta(basis[j])   law at t, basis[j]
                                         = sum t1 b1 (x) Delta(t2) Delta(b2)
                                         = (id (x) Delta)(Delta(t) Delta(basis[j]))          Delta law at (t2, b2)
                                         = (id (x) Delta) Delta(t basis[j])                  Delta law at (t, basis[j])

    It reads the Delta law at every step pair and at every pair of left
    legs (t1, b1) and of right legs (t2, b2), all in *steps*, for which t1
    and t2 must be 1 or a generator.  A proved run reports
    exhaustive with n checked; if a premise fails, the row compare runs on
    every monomial.
    """
    A = algebra
    basis = A.basis()
    n = len(basis)
    rec = _Recorder("coassociativity")
    table = A.structure_table()

    def law(indices):
        legs = {leg for i in indices for u, v, _ in table.delta[i] for leg in (u, v)}
        right = {t: [(u * n + v, r[0]) for u, v, r in table.delta[t]] for t in legs}  # keys of the last two legs
        left = {t: [(key * n, d) for key, d in row] for t, row in right.items()}  # keys of the first two legs
        for i in indices:
            lhs, rhs = {}, {}
            lget, rget = lhs.get, rhs.get
            for u, v, r in table.delta[i]:
                c, head = r[0], u * n * n
                for key, d in left[u]:
                    key += v
                    lhs[key] = lget(key, 0) + c * d
                for key, d in right[v]:
                    key += head
                    rhs[key] = rget(key, 0) + c * d
            if table.differs(lhs, rhs):
                yield f"m={basis[i].render()}", table.render(lhs, legs=3), table.render(rhs, legs=3)

    return _per_monomial(rec, A, _proofs or _Proofs(A), ("steps",), law)


def check_counit_law(algebra, *, _proofs=None, **_ignored):
    """(eps (x) id) Delta = id = (id (x) eps) Delta on every basis monomial, off the structure table.

    *Proof by generators* (see the module docstring), on the premise
    *steps* and this check at 1, g, x and y.  With the notation of
    check_coassociativity, the step is

        (eps (x) id) Delta(t basis[j]) = (eps (x) id)(Delta(t) Delta(basis[j]))   Delta law at (t, basis[j])
                                       = sum eps(t1) eps(b1) t2 b2                  eps law at (t1, b1)
                                       = ((eps (x) id) Delta(t)) ((eps (x) id) Delta(basis[j]))
                                       = t basis[j]                                 law at t and at basis[j]

    and likewise on the right leg, with the eps law at (t2, b2).  It reads
    the Delta and eps laws at every step pair and the eps law at every
    pair of left legs and of right legs, all in *steps*.  A proved run
    reports exhaustive with n checked; if a premise fails, every
    monomial is checked.
    """
    A = algebra
    basis = A.basis()
    rec = _Recorder("counit")
    table = A.structure_table()
    proofs = _proofs or _Proofs(A)
    eps = proofs.eps

    def law(indices):
        for i in indices:
            left, right = {}, {}
            for u, v, r in table.delta[i]:
                if eps[u]:
                    left[v] = left.get(v, 0) + r[0] * eps[u]
                if eps[v]:
                    right[u] = right.get(u, 0) + r[0] * eps[v]
            for leg, side in (("left", left), ("right", right)):
                if table.differs(side, {i: 1}):
                    yield f"m={basis[i].render()} (eps on {leg} leg)", table.render(side, legs=1), basis[i].render()

    return _per_monomial(rec, A, proofs, ("steps",), law)


def check_bialgebra_compat(algebra, *, _proofs=None, **_ignored):
    """Delta and eps are algebra maps: checked on every basis pair (m1, m2).

    *Proof by the presentation lemma*, the premise *multiplicative*
    (``_Proofs.multiplicative``).  Let A be the free algebra on g, x and y
    modulo the six relations of ``relations()``.

    - *A is H.*  ``relations()`` holds one commutation relation per pair of
      generators and one power relation per generator, so A is spanned by
      the x^b y^c g^a with b, c, a < p.  Each relation holds in H, so g, x
      and y give an algebra map A -> H, onto by ``generation()``, and an
      isomorphism as dim A <= p^3 = dim H.  *associative* at (alpha, beta,
      gamma) = (1, -s, s) makes the live table the one that ``Element``
      multiplies the images below by (``_Proofs.presented``).
    - *Delta extends.*  The live Delta(g), Delta(x) and Delta(y) extend to
      an algebra map D: A -> H (x) H iff their images of the relations
      hold, with D(1) = 1 (x) 1 = Delta(1) (``_Proofs.unit``); so do
      eps(g), eps(x) and eps(y), to a character, with eps(1) = 1.
    - *D is Delta* iff Delta(basis[i]) = q^e Delta(t) Delta(basis[j]) at
      every step (t, j, e) of ``generation()``, by strong induction along
      them; likewise for eps.

    An x- or y-step is checked as a plain term product.  A g-step, h g^a =
    q^-wt(h) g h g^(a-1) with h = x^b y^c and a >= 1, follows from P1 and
    P2 and Delta(g) = g (x) g, which P1 at g and the unit give:
    g (w g^(a-1)) = q^wt(w) w g^a, so Delta(g) Delta(h g^(a-1)) is Delta(h)
    moved by g^a, at q^(wt(w) + wt(z)) = q^wt(h) per term.  Here wt(w) is
    given by g w = q^wt(w) w g in the product table, and ``_Proofs.orbit``
    checks P1, the Delta row of x^b y^c g^a is that of x^b y^c with both
    legs moved by g^a and the same coefficients, and P2, wt(w) + wt(z) =
    wt(x^b y^c) for every term w (x) z of Delta(x^b y^c), on the structure
    table.  The cocycle lemma gives P3, (u g) w = q^wt(w) (u w) g for every
    basis pair, so (u g^a) w = q^(a wt(w)) (u w) g^a: phi(u + g, w) =
    phi(u, w) + phi(g, w), phi(g, w) = wt(w) and phi(., g) = 0.  A proved
    run loads no ``lanes`` module; it costs the relation images, which the
    relations check reads back, P1, P2 and about p^4 / 2 term products.

    If a premise fails, ``lanes.bialgebra_sweep`` runs as if no proof had
    been tried: the lane sweep where *associative* holds, as at s = 0, where
    the image Delta(y)^p = 0 fails, and the per-pair route where it fails;
    its docstring states their lemmas.  The check ignores ``seed``,
    ``sample_size`` and ``exhaustive``.
    """
    n = len(algebra.basis())
    rec = _Recorder("bialgebra")
    proofs = _proofs or _Proofs(algebra)

    def sweep():
        from .lanes import bialgebra_sweep  # the failure path: a run whose proofs hold loads no lane code

        return bialgebra_sweep(algebra, proofs)

    return _prove_or_sweep(rec, "exhaustive", n * n, lambda: proofs.multiplicative, sweep)


class _ProductRows(dict):
    """Row t of a product table as a tuple of codes, ``rows[t]``, decoded on its first read; ``_Proofs.rows``.

    Equal codes share one int, and code -1 (a zero product) reads the last entry of ``codes``.
    """

    def __init__(self, table, n, p):
        super().__init__()
        self.table, self.n, self.codes = table, n, [*range(n * p), -1]

    def __missing__(self, t):
        n = self.n
        row = self[t] = tuple(map(self.codes.__getitem__, self.table[t * n:(t + 1) * n]))
        return row


def check_antipode_law(algebra, *, _proofs=None, **_ignored):
    """m(S (x) id)Delta = eps(.)1 = m(id (x) S)Delta on every basis monomial.

    Read off the structure table: S of a leg is a unit +-q^k times one basis
    monomial, its product with the other leg is read off the product table,
    and the rotated coefficient is summed on the side its sign picks, so
    both sides stay non-negative (eps(m) is added to the minus side).

    *Proof by generators* (see the module docstring), on the premises
    *steps* and *anti-multiplicative* and this check at 1, g, x and y on
    both legs.  With Delta(a b) = a1 b1 (x) a2 b2, the Delta law at the
    step pair (a, b) = (t, basis[j]), the step is

        S(a1 b1) a2 b2 = S(b1) S(a1) a2 b2 = S(b1) eps(a) b2 = eps(a) eps(b) 1
        a1 b1 S(a2 b2) = a1 b1 S(b2) S(a2) = a1 eps(b) S(a2) = eps(a) eps(b) 1

    by anti-multiplicativity, associativity, U and the law at t and at
    basis[j], and eps(a) eps(b) = eps(a b), the eps law at the step pair.
    A proved run reports exhaustive with n checked; if a premise fails,
    every monomial is checked.
    """
    A = algebra
    p, s = A.p, A.s
    basis = A.basis()
    n = len(basis)
    rec = _Recorder("antipode")
    products = A.product_table()
    table = A.structure_table()
    S = table.antipode
    proofs = _proofs or _Proofs(A)
    eps = proofs.eps

    def law(indices):
        for i in indices:
            for leg in ("left", "right"):
                plus, minus = {}, {0: eps[i]}  # keyed by basis index; basis[0] = 1
                for u, v, r in table.delta[i]:
                    t, code = S[u] if leg == "left" else S[v]
                    c = products[t * n + v] if leg == "left" else products[u * n + t]  # S(u) v or u S(v)
                    if c >= 0:
                        side = minus if code >= p else plus
                        side[c // p] = side.get(c // p, 0) + r[(code + c) % p]
                if table.differs(plus, minus):
                    target = Element._raw(p, s, table.decoded({0: eps[i]}))  # eps(m) 1
                    got = Element._raw(p, s, table.decoded(plus, minus)) + target
                    yield f"m={basis[i].render()} (S on {leg} leg)", got.render(), target.render()

    return _per_monomial(rec, A, proofs, ("steps", "anti_multiplicative"), law)


def check_relations(algebra, *, _proofs=None, **_ignored):
    """Each defining relation of ``BookAlgebra.relations`` holds after applying Delta and after applying S.

    Both sides are read back from ``_Proofs.images``, which reads Delta and
    S through ``coproduct`` and ``antipode``, as every other check reads
    them: a relation u = c v is checked as Delta-images multiplied in order,
    and as S-images with both products reversed (same scalar), as S is
    anti-multiplicative.  A pass means the images of x, y and g extend to an
    algebra map and an anti-algebra map, the first step of the presentation
    lemma of check_bialgebra_compat.  At s = 0 this check fails at y^p = 0,
    and with it the proof that Delta is multiplicative.
    """
    rec = _Recorder("relations")
    images = [(f"{label}: {name}", lhs, rhs)
              for label, name, lhs, rhs in (_proofs or _Proofs(algebra)).images if label in ("Delta", "S")]
    found = ((at, lhs.render(), rhs.render()) for at, lhs, rhs in images if lhs != rhs)
    return AxiomReport([rec.finish("exhaustive", len(images), found)])


class _Proofs:
    """The premises that the proofs by generators share, on one table state (see the module docstring).

    Each verdict is computed on first use, at most once per object.
    ``run_all`` builds one object and passes it to every check, a check
    called alone builds its own, and nothing is cached on the algebra; so
    are the tables they share, ``rows``, ``eps`` and ``images``, and the
    failure-path state ``lanes`` (with its memo of lane runs), ``counit``
    and ``broken``, which only a refused proof builds, each off the
    ``lanes`` module, imported on first use.  ``broken`` set to None
    refuses both *steps* and the sweep's vouching lemma.
    """

    def __init__(self, algebra):
        self.algebra = algebra

    @cached_property
    def rows(self):
        A = self.algebra
        return _ProductRows(A.product_table(), len(A.basis()), A.p)

    @cached_property
    def moved(self):  # moved[a][t]: basis[t] g^a
        p, n = self.algebra.p, len(self.algebra.basis())
        return [[t - t % p + (t + a) % p for t in range(n)] for a in range(p)]

    @cached_property
    def wt(self):  # g w = q^wt(w) w g, read off the product-table row of g = basis[1]
        return [c % self.algebra.p for c in self.rows[1]]

    @cached_property
    def lanes(self):
        from .lanes import _Lanes  # failure-path state: a run whose proofs hold loads no lane code

        return _Lanes(self.algebra, self)

    @cached_property
    def counit(self):
        from .lanes import _Counit

        return _Counit(self.algebra)

    @cached_property
    def eps(self):
        """eps of every basis monomial, packed like the structure table (``BookAlgebra.counit_packed``)."""
        return self.algebra.counit_packed()

    @cached_property
    def generation(self):
        return self.algebra.generation()

    @cached_property
    def exponents(self):
        """(alpha, beta, gamma) read off the live entries g x, g y and y x, or None if one of them is 0 or
        ``generation()`` fails."""
        A = self.algebra
        n, table, (g, x, y) = len(A.basis()), A.product_table(), A.generators
        codes = table[g * n + x], table[g * n + y], table[y * n + x]
        return None if self.generation is None or min(codes) < 0 else tuple(c % A.p for c in codes)

    @cached_property
    def associative(self):
        """Every basis triple is associative: ``exponents`` is not None and the live table is ``bilinear_rows`` at
        them, by the cocycle lemma of check_associativity.  The tables are compared a row at a time, as bytes, so no
        second table is kept."""
        A = self.algebra
        n, table = len(A.basis()), A.product_table()
        return self.exponents is not None and all(
            table[i * n:(i + 1) * n].tobytes() == row for i, row in enumerate(bilinear_rows(A.p, *self.exponents)))

    @cached_property
    def images(self):
        """Both sides of each relation u = q^e v of ``relations()`` (v None for 0) in H and under Delta, S and eps,
        as (map, name, lhs, rhs), made once for the premises and check_relations: each map is read off the live
        tables, through ``coproduct``, ``antipode`` and ``counit``, and multiplied as ``Element`` multiplies, S in
        reverse order."""
        A, q = self.algebra, root_power(self.algebra.p, 1)
        maps = [(label, f(A.one), {c: f(getattr(A, c)) for c in "gxy"}, step)  # each generator read once
                for label, f, step in (("H", lambda h: h, 1), ("Delta", A.coproduct, 1), ("S", A.antipode, -1),
                                       ("eps", A.counit, 1))]

        def image(out, letters, word):
            for letter in word:
                out = out * letters[letter]
            return out

        return [(label, name, lhs := image(one, letters, u[::step]),
                 lhs * 0 if v is None else image(one, letters, v[::step]) * q ** e)
                for name, u, e, v in A.relations() for label, one, letters, step in maps]

    def holds(self, label):
        """Every relation holds under the map ``label`` of ``images``."""
        return all(lhs == rhs for at, _, lhs, rhs in self.images if at == label)

    @cached_property
    def presented(self):
        """The premise of the presentation lemma (check_bialgebra_compat): ``relations()`` holds one commutation
        relation per pair of generators and one power relation per generator, each true in H, and the live table
        multiplies as ``Element`` does: *associative* at (alpha, beta, gamma) = (1, -s, s)."""
        p, s = self.algebra.p, self.algebra.s

        def shape(u, v):  # "gx" for a commutation relation of g and x, "g" for g^p = c, "?" for anything else
            if len(u) == 2 and v == u[::-1] != u:
                return "".join(sorted(u))
            return u[:1] if u == u[:1] * p and v in (None, "") else "?"

        return (self.associative and self.exponents == (1, -s % p, s % p) and self.holds("H")
                and sorted(shape(u, v) for _, u, _, v in self.algebra.relations()) == ["g", "gx", "gy", "x", "xy", "y"])

    @cached_property
    def unit(self):
        """Delta(1) = 1 (x) 1 and eps(1) = 1, which with U give the Delta and eps laws at (1, m) for every m."""
        structure, n = self.algebra.structure_table(), len(self.algebra.basis())
        return not structure.differs(_summed(structure.delta[0], n), {0: 1}) and self.eps[0] == 1

    @cached_property
    def orbit(self):
        """P1 and P2 of check_bialgebra_compat on the structure table, which *associative* completes with P3: the
        g-steps of ``multiplicative``, and the one group run per g-orbit of m1 of the lane sweep."""
        p, n, moved, wt = self.algebra.p, len(self.algebra.basis()), self.moved, self.wt
        delta = self.algebra.structure_table().delta
        return all(delta[i] == [(moved[i % p][u], moved[i % p][v], r) for u, v, r in delta[i - i % p]]
                   for i in range(n)) and not any(
            (wt[u] + wt[v] - wt[i]) % p for i in range(0, n, p) for u, v, _ in delta[i])

    @cached_property
    def multiplicative(self):
        """Delta and eps are algebra maps, by the presentation lemma of check_bialgebra_compat: ``presented``,
        ``unit``, the Delta and eps images, and the step laws at every step (t, j, e) of ``generation()``, for Delta
        by ``orbit`` at a g-step and a term product off ``rows`` at an x- or y-step, for eps as q^-e eps(basis[i])
        (eps moved -e mod p digits up, which the fold of ``differs`` wraps) against eps(t) eps(basis[j])."""
        if not (self.presented and self.unit and self.holds("Delta") and self.holds("eps")):
            return False
        A, eps = self.algebra, self.eps
        p, n, table = A.p, len(A.basis()), A.structure_table()
        steps, g = self.generation.items(), A.generators[0]
        return (not any(table.differs({0: eps[t] * eps[j]}, {0: eps[i] << -e % p * table.width})
                        for i, (t, j, e) in steps)
                and self.orbit
                and not any(table.differs(self.product(t, j, e), _summed(table.delta[i], n))
                            for i, (t, j, e) in steps if t != g))

    def product(self, i1, i2, e=0):
        """q^e Delta(basis[i1]) Delta(basis[i2]) as a packed sum, each leg product read off ``rows``."""
        A, rows, out = self.algebra, self.rows, {}
        p, n, delta = A.p, len(A.basis()), A.structure_table().delta
        for u, v, r in delta[i1]:
            row_u, row_v = rows[u], rows[v]
            for w, z, d in delta[i2]:
                if (cu := row_u[w]) >= 0 and (cv := row_v[z]) >= 0:
                    key = cu // p * n + cv // p
                    out[key] = out.get(key, 0) + r[(cu + cv + e) % p] * d[0]
        return out

    @cached_property
    def broken(self):
        from .lanes import broken_laws

        return broken_laws(self)

    @cached_property
    def steps(self):
        """The premise of every per-monomial step: the Delta and eps laws, read off ``broken`` (the runs of g, x and y
        in the run memo, and the eps rows), at every step pair (t, basis[j]) of ``generation()`` and at the pairs of
        left legs and of right legs of Delta(t) and Delta(basis[j]), which Delta(t) Delta(basis[j]) multiplies; a leg
        of Delta(t) other than 1 or a generator, where ``broken`` holds no law, refuses it.  It holds with no further
        work where ``multiplicative`` does."""
        if self.multiplicative or self.broken is None:
            return self.multiplicative
        broken, delta = self.broken, self.algebra.structure_table().delta

        def pairs(t, j):  # (u, js): both laws must hold at (basis[u], basis[k]) for every k in js
            yield t, (j,)
            for side in (0, 1):
                for u in {term[side] for term in delta[t]}:
                    yield u, {term[side] for term in delta[j]}

        return all(u in broken and broken[u][0].isdisjoint(js) and broken[u][1].isdisjoint(js)
                   for t, j, _ in self.generation.values() for u, js in pairs(t, j))

    @cached_property
    def anti_multiplicative(self):
        """S(m1 m2) = S(m2) S(m1) for every basis pair, by the presentation lemma of check_bialgebra_compat for an
        algebra map to the opposite algebra: ``presented``, S(1) = 1, the (reversed) S images and S(basis[i]) =
        q^e S(basis[j]) S(t) at every step (t, j, e) of ``generation()``, n - 4 compares of unit codes off the S
        rows and the product table, a code k < p for +q^k and k + p for -q^k."""
        if not (self.presented and self.holds("S")):
            return False
        A = self.algebra
        p, n = A.p, len(A.basis())
        products, S = A.product_table(), A.structure_table().antipode

        def step(t, j, e):  # q^e S(basis[j]) S(t), or None for 0
            (u, a), (v, b) = S[j], S[t]
            c = products[u * n + v]
            return None if c < 0 else (c // p, (a + b + c + e) % p + p * ((a >= p) != (b >= p)))

        return S[0] == (0, 0) and all(S[i] == step(t, j, e) for i, (t, j, e) in self.generation.items())


_CHECKS = (
    check_associativity,
    check_coassociativity,
    check_counit_law,
    check_bialgebra_compat,
    check_antipode_law,
    check_relations,
)


def run_all(algebra, *, sample_size=DEFAULT_SAMPLE_SIZE, exhaustive=False, **_ignored):
    """Run the six axiom checks in a fixed order and merge the reports; one ``_Proofs`` serves them all."""
    proofs = _Proofs(algebra)
    results = []
    for check in _CHECKS:
        results.extend(check(algebra, sample_size=sample_size, exhaustive=exhaustive, _proofs=proofs).results)
    return AxiomReport(results)

