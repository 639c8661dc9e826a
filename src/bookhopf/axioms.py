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
- the *law table*, read only where *associative* holds: the 3 p^2 lane
  runs of t in {g, x, y} against every x^b y^c, made with no early stop.
  The law Delta(t m) = Delta(t) Delta(m) at a pair (t, m) is one bit of
  it, and eps(t m) = eps(t) eps(m) is read off ``counit_monomial``; at
  t = 1 both laws are Delta(1) = 1 (x) 1 and eps(1) = 1, with U;
- *multiplicative*: Delta and eps are algebra maps, the proof of
  ``check_bialgebra_compat``: both laws hold at every pair of the table,
  and at 1;
- *steps*: both laws hold at every step pair (t, basis[j]) of
  ``generation()``; and the Delta law (*coassociative legs*) or the eps
  law (*counit legs*) at the pairs of left legs and the pairs of right
  legs of Delta(t) and Delta(basis[j]), for every step;
- *anti-multiplicative*: S(m1 m2) = S(m2) S(m1), proved on S(t m) =
  S(m) S(t) for t in {1, g, x, y} and every m, which needs *associative*.

The five proofs, each with its premises: associativity (*associative*),
the bialgebra law (*multiplicative*), coassociativity (*steps*,
*coassociative legs* and the law at 1, g, x and y), the counit law
(*steps*, *counit legs* and the law at 1, g, x and y) and the antipode
law (*steps*, *anti-multiplicative* and the law at 1, g, x and y).  Where
*multiplicative* holds, so does every step premise, with no further work;
at s = 0 it fails, but the step premises hold, so only the bialgebra law
is swept, and that sweep reads the law table back to pass most of its
runs with no kernel call.  One protocol, ``_prove_or_sweep``, runs them
all: a proved run reports its mode and ``checked``, with no violation;
if a premise fails, the sweep runs as if no proof had been tried.
``run_all`` passes one ``_Proofs`` to every check, and a check called
alone builds its own; nothing is cached on the algebra, whose tables a
caller may change between checks.

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
from operator import getitem, itemgetter
from time import perf_counter
from typing import NamedTuple

from .cyclotomic import cyc_zero, root_power
from .hopf import bilinear_rows
from .pbw import Element, basis_monomials

__all__ = [
    "Violation", "AxiomResult", "AxiomReport", "check_associativity", "check_coassociativity",
    "check_counit_law", "check_bialgebra_compat", "check_antipode_law", "check_relations", "run_all",
    "negative_control_matches", "TRIPLE_EXHAUSTIVE_LIMIT", "DEFAULT_SAMPLE_SIZE",
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
        out = cls(
            axiom=d["axiom"],
            violations=[
                Violation(axiom=d["axiom"], at=v["at"], lhs=v["lhs"], rhs=v["rhs"])
                for v in d["violations"]
            ],
            elapsed_ms=d["elapsed_ms"],
            checked=d["checked"],
            mode=d["mode"],
        )
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

    Raises ValueError for a sample size below 1, which would check nothing.
    """
    if sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")
    if exhaustive or domain <= TRIPLE_EXHAUSTIVE_LIMIT or sample_size >= domain:
        return "exhaustive", domain
    return f"sampled(n={sample_size})", sample_size


def _shifts(p, n):
    """shift[e] maps each code to the code of q^e times it and ends in -1, so that index -1 (a zero product) stays -1."""
    return [tuple(c - c % p + (c + e) % p for c in range(n * p)) + (-1,) for e in range(p)]


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

    *Proof by generators* (see the module docstring), on the premises
    *steps* and *coassociative legs* and this row compare at 1, g, x and y.
    Write Delta(t) = sum t1 (x) t2 and Delta(basis[j]) = sum b1 (x) b2 over
    their terms, and multiply in H (x) H and H (x) H (x) H leg by leg; the
    step is

        (Delta (x) id) Delta(t basis[j]) = (Delta (x) id)(Delta(t) Delta(basis[j]))        Delta law at (t, basis[j])
                                         = sum Delta(t1) Delta(b1) (x) t2 b2                 Delta law at (t1, b1)
                                         = (Delta (x) id) Delta(t) . (Delta (x) id) Delta(basis[j])
                                         = (id (x) Delta) Delta(t) . (id (x) Delta) Delta(basis[j])   law at t, basis[j]
                                         = sum t1 b1 (x) Delta(t2) Delta(b2)
                                         = (id (x) Delta)(Delta(t) Delta(basis[j]))          Delta law at (t2, b2)
                                         = (id (x) Delta) Delta(t basis[j])                  Delta law at (t, basis[j])

    It reads the Delta law at every step pair (*steps*) and at every pair
    of left legs (t1, b1) and of right legs (t2, b2) (*coassociative legs*),
    for which t1 and t2 must be 1 or a generator.  A proved run reports
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

    return _per_monomial(rec, A, _proofs or _Proofs(A), ("steps", "coassociative_legs"), law)


def check_counit_law(algebra, *, _proofs=None, **_ignored):
    """(eps (x) id) Delta = id = (id (x) eps) Delta on every basis monomial, off the structure table.

    *Proof by generators* (see the module docstring), on the premises
    *steps* and *counit legs* and this check at 1, g, x and y.  With the
    notation of check_coassociativity, the step is

        (eps (x) id) Delta(t basis[j]) = (eps (x) id)(Delta(t) Delta(basis[j]))   Delta law at (t, basis[j])
                                       = sum eps(t1) eps(b1) t2 b2                  eps law at (t1, b1)
                                       = ((eps (x) id) Delta(t)) ((eps (x) id) Delta(basis[j]))
                                       = t basis[j]                                 law at t and at basis[j]

    and likewise on the right leg, with the eps law at (t2, b2).  It reads
    the Delta and eps laws at every step pair (*steps*) and the eps law at
    every pair of left legs and of right legs (*counit legs*).  A proved
    run reports exhaustive with n checked; if a premise fails, every
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

    return _per_monomial(rec, A, proofs, ("steps", "counit_legs"), law)


def check_bialgebra_compat(algebra, *, _proofs=None, **_ignored):
    """Delta and eps are algebra maps: checked on every basis pair (m1, m2).

    Delta(m1 m2) = Delta(m1) Delta(m2) is checked on the structure table's
    packed coefficients, whose compare the ``hopf`` module docstring shows
    exact, for all p monomials m2 = x^b2 y^c2 g^a2, a2 = 0..p-1, at once:

    - *a2 does not enter the twist.*  The q-exponent of m x^b y^c g^a does
      not depend on a.  So the terms of the p rows Delta(x^b2 y^c2 g^a2),
      both legs moved by g^-a2, are grouped across rows; a group term
      w (x) z meets a term u (x) v of Delta(m1) with the same q^e in every
      row, read off the product-table rows of u and v, and its output
      monomials differ from row to row only by g^a2 on both legs; so does
      m1 m2.  No shape of Delta is assumed: a row with a wrong coefficient,
      g-exponent or term lands in its own lane or group.
    - *Lanes.*  A packed value holds p lanes of 2p digits; lane a2 of a
      group term holds its coefficient in row a2.  One int product of a
      q^e-rotated Delta(m1) coefficient with a group term is the p lane
      products at once.  A lane sums products of the coefficients of
      Delta(m1) with those of one row, at most R^2 per digit, and the
      expected row adds at most R, so no digit carries into the next digit
      or lane; the fold and the biased difference run on all lanes at once.
    - *One group run per g-orbit of m1.*  With wt(w) given by g w = q^wt(w) w g
      in the product table, ``_Lanes.orbit`` checks three premises on the live
      tables: P1, the Delta row of x^b y^c g^a is that of x^b y^c with both
      legs moved by g^a and the same coefficients; P2, wt(w) + wt(z) =
      wt(x^b y^c) for every term w (x) z of Delta(x^b y^c); P3, (u g) w =
      q^wt(w) (u w) g for every basis pair, so (u g^a) w = q^(a wt(w)) (u w) g^a.
      *Lemma:* then at m1 = h g^a1, h = x^b1 y^c1, Delta(m1) Delta(m2) and
      Delta(m1 m2) are both q^(a1 wt(m2)) times their values at (h, m2) with
      both legs moved by g^a1, so all m1 of an orbit fail in the same lanes.
      If a premise fails, every m1 is its own orbit, and the sweep runs every group.

    The expected side Delta(m1 m2) is read off the product table and the
    lane groups, memoized per product monomial.  Both sides of eps(m1 m2) =
    eps(m1) eps(m2) are read off ``counit_monomial``, one row over all m2 per
    m1, with one object per value so that equal rows compare by identity.

    *Proof by generators* (see the module docstring): the premise
    *multiplicative*, ``_Proofs.multiplicative``.  The law at m1 is
    Delta(m1 m2) = Delta(m1) Delta(m2) and eps(m1 m2) = eps(m1) eps(m2) for
    every m2.  It rests on these premises:

    - *associative*, which holds ``generation()``: H is associative, and so
      is H (x) H, whose products the lanes read leg by leg;
    - Delta(1) = 1 (x) 1 and eps(1) = 1 (``_Proofs.unit``), which with U
      give the law at 1;
    - eps(t m) = eps(t) eps(m) for t in {g, x, y} and every m;
    - no bad lane in the law table, the 3 p^2 runs of m1 in {g, x, y}
      against every x^b2 y^c2 (``_Proofs.laws``): the law at the
      generators.  The table is made whole, with no early stop, and the
      sweep reads its runs back.

    The step, with Delta(q^e m) = q^e Delta(m) and the same for eps, is

        Delta((t basis[j]) m2) = Delta(t (basis[j] m2))                 H associative
                               = Delta(t) Delta(basis[j] m2)            the law at t
                               = Delta(t) (Delta(basis[j]) Delta(m2))   the law at basis[j]
                               = Delta(t basis[j]) Delta(m2)            H (x) H associative, the law at t

    and likewise for eps.  If every premise holds the run reports
    exhaustive with n^2 pairs checked and calls no ``_Lanes.orbit``; it
    costs 3 p^2 group runs instead of up to p^4.  Otherwise the sweep below
    runs as if no proof had been tried, as it does on a doctored table and
    at s = 0, where the runs of y against x^b y^(p-1) fail.  Either way the
    result is that of the sweep; the check ignores ``seed``,
    ``sample_size`` and ``exhaustive``.

    The sweep takes the g-orbits of m1 in basis order.  At the first m1 of
    an orbit, basis[first], it takes the p^2 groups (basis[first],
    x^b2 y^c2): it reads a run of the law table back, vouches for a run
    (below) with no kernel call, or builds ``_Lanes.left`` once and runs
    it, keeping the accumulator of a run with a bad lane; it then yields
    the violations of every m1 of the orbit in basis order, each rendered
    as it is yielded, with no Tensor2 built: Delta(m1 m2) from its Delta
    row at q^e1 for m1 m2 = q^e1 basis[t], and by the lemma, at basis[i1] =
    basis[first] g^a1, Delta(m1) Delta(m2) as lane a2 of the run with both
    legs moved by g^(a2 + a1), at q^(e12 + a1 wt(x^b2 y^c2)).  eps values
    are compared by identity, as ``_Counit`` keeps one object per value.

    *Vouching.*  Where *associative* holds, the run (basis[first],
    x^b2 y^c2) has no bad lane, and the sweep makes no kernel call for it,
    if basis[first] is 1 and ``_Proofs.unit`` holds (the law at 1), or if
    all of these hold:

    - ``generation()`` gives basis[first] = q^e t basis[j], and j is the
      first m1 of its own g-orbit, so that its runs are made;
    - the law table holds law(t, basis[j]);
    - the run (basis[j], x^b2 y^c2) had no bad lane;
    - for every a2, basis[j] x^b2 y^c2 g^a2 is 0 or q^e' basis[k] with
      law(t, basis[k]) in the law table.

    Then, with m2 = x^b2 y^c2 g^a2, in every lane,

        Delta(t basis[j] m2) = Delta(t) Delta(basis[j] m2)             law(t, basis[k]), H associative
                             = Delta(t) Delta(basis[j]) Delta(m2)      the run of basis[j], H (x) H associative
                             = Delta(t basis[j]) Delta(m2)             law(t, basis[j])

    where a zero product makes both sides 0.  At H(5, 0) the law table's
    75 runs and 185 of the sweep's 625 are kernel calls; where it stops at
    the cap, ``run_all`` calls the kernel 357 times at H(7, 0) and 462 at
    H(11, 0).

    *Each piece of work once.*  Every bad lane of a run is unpacked in one
    pass, on the first violation that reads the run in its orbit, as a
    sorted tuple of (key, packed value) with keys as in lane 0
    (``_Lanes.unpacked``); equal tuples get one number.  A memo local to
    the sweep maps (lane number, g-move (a2 + a1) mod p, q-exponent
    (e12 + a1 wt(x^b2 y^c2)) mod p) to the rendered text, so each distinct
    key is rendered once and equal texts share one str object.  The memo is
    exact: ``StructureTable.render`` is a pure function of the packed sum it
    is given and of its exponent mod p, the sorted tuple and the g-move fix
    that sum (the tuple its values and unmoved keys, the move its keys),
    and the key holds the exponent.  At s = 0 the 3 750 violations of
    p = 5 take 620 renders.

    The sweep is drawn from no more at the cap (see the module docstring),
    so no run is unpacked nor lane rendered past it, and the report fails
    with n^2 checked.
    """
    A = algebra
    p = A.p
    n = len(A.basis())
    rec = _Recorder("bialgebra")
    proofs = _proofs or _Proofs(A)

    def sweep():
        table, lanes, eps, laws = A.product_table(), proofs.lanes, proofs.counit, proofs.laws or {}
        structure, names, moved, wt = lanes.table, lanes.table.names, lanes.moved, lanes.wt
        numbers, texts = {}, {}  # unpacked lane -> its number; (number, g-move, q-exponent) -> its text
        masks = {}  # first m1 of a g-orbit -> the bad lanes of each of its runs, by x^b2 y^c2
        orbit = lanes.orbit()

        def vouched(first):
            """The x^b2 y^c2 whose run at basis[first] the vouching lemma passes with no kernel call."""
            broken, steps = proofs.broken, proofs.generation
            if broken is None:
                return ()
            if first == 0:  # basis[0] = 1: the law at 1, by unit and U, which associative holds
                return range(p * p) if proofs.unit else ()
            if first not in steps:
                return ()
            t, j, _ = steps[first]
            delta_broken, healthy = broken[t][0], masks.get(j)  # j's runs, if j is the first m1 of its g-orbit
            if healthy is None or j in delta_broken:
                return ()
            row = proofs.rows[j]
            return {bc2 for bc2, bad in enumerate(healthy)
                    if not bad and all(c < 0 or c // p not in delta_broken for c in row[bc2 * p:bc2 * p + p])}

        for first in range(0, n, orbit):
            skip, left = vouched(first), None
            runs = []  # per x^b2 y^c2: (accumulator if a lane is bad, bad lanes, e12)
            for bc2 in range(p * p):
                if bc2 in skip:
                    run = None, 0, 0
                elif (run := laws.get((first, bc2))) is None:
                    if left is None:
                        left = lanes.left(first)
                    acc, bad, e12 = lanes.run(first, bc2, left)
                    run = acc if bad else None, bad, e12
                runs.append(run)
            masks[first] = [bad for _, bad, _ in runs]
            lanes_of = {}  # bc2 -> {a2: (number, lane a2 of run bc2)}, unpacked on the run's first violation
            for a1, i1 in enumerate(range(first, first + orbit)):  # basis[i1] = basis[first] g^a1
                eps_lhs, eps_rhs = eps.lhs(i1), eps.rhs(i1)
                eps_ok = eps_lhs == eps_rhs
                delta_at, eps_at = f"Delta: m1={names[i1]}, m2=", f"epsilon: m1={names[i1]}, m2="
                for bc2, (acc, bad, e12) in enumerate(runs):
                    if eps_ok and not bad:
                        continue
                    e = (e12 + a1 * wt[bc2 * p]) % p
                    for i2 in range(bc2 * p, bc2 * p + p):
                        if bad >> i2 % p & 1:
                            t, e1 = divmod(table[i1 * n + i2], p)  # m1 m2 = q^e1 basis[t], or 0 for t = -1
                            row = {u * n + v: r[0] for u, v, r in structure.delta[t]} if t >= 0 else None
                            lhs = "0" if row is None else structure.render(row, e1)
                            if (run_lanes := lanes_of.get(bc2)) is None:
                                run_lanes = lanes_of[bc2] = {a2: (numbers.setdefault(unpacked, len(numbers)), unpacked)
                                                             for a2, unpacked in lanes.unpacked(acc, bad).items()}
                            lane = run_lanes[i2 % p]
                            if (rhs := texts.get(key := (lane[0], (i2 + a1) % p, e))) is None:
                                move = moved[key[1]]
                                rhs = texts[key] = structure.render(
                                    {move[k // n] * n + move[k % n]: w for k, w in lane[1]}, e)
                            yield delta_at + names[i2], lhs, rhs
                        if eps_lhs[i2] is not eps_rhs[i2]:
                            yield eps_at + names[i2], eps_lhs[i2].render(), eps_rhs[i2].render()

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


class _Lanes:
    """The packed Delta rows of check_bialgebra_compat for one algebra, p lanes per value.

    Lane a of a packed value holds 2p digits of the structure table's
    ``width`` at bit a * lane_bits.  An output key t_u n + t_v stands for
    basis[t_u] (x) basis[t_v] in lane 0; in lane a2 both legs carry g^a2 more.
    ``products[t]`` is row t of the product table, read off ``_Proofs.rows``,
    which decodes it on its first read: ``orbit`` and the sweep read every
    row, but the law table only those of 1, g, g^s, x and y.
    """

    def __init__(self, algebra, products):
        p = self.p = algebra.p
        n = self.n = len(algebra.basis())
        table = self.table = algebra.structure_table()
        self.rows, self.width, self.rep = table.delta, table.width, table.rep
        self.lane_bits = 2 * p * self.width
        self.lane_mask = (1 << self.lane_bits) - 1
        lane_ones = sum(1 << a * self.lane_bits for a in range(p))
        self.low = lane_ones * table.digit_mask  # digit 0 of every lane
        self.fold_mask = lane_ones * table.fold_mask  # digits 0..p-1 of every lane
        self.bias = lane_ones * table.bias
        self.moved = [[t - t % p + (t + a) % p for t in range(n)] for a in range(p)]  # moved[a][t]: basis[t] g^a
        self.products = products
        self.wt = [c % p for c in self.products[1]]  # g w = q^wt(w) w g, g = basis[1]
        self.groups = [self._group(bc) for bc in range(p * p)]
        self.memo = {-1: {}}  # t -> self.expected(t); a zero product (t = -1) expects no term

    def _group(self, bc):
        """Terms of the p rows x^b y^c g^a2, both legs moved by g^-a2, grouped across lanes a2."""
        p = self.p
        grouped = {}
        for a2 in range(p):
            back = self.moved[-a2]
            for u, v, rotations in self.rows[bc * p + a2]:
                key = back[u], back[v]
                grouped[key] = grouped.get(key, 0) + (rotations[0] << a2 * self.lane_bits)
        return [(w, z, packed) for (w, z), packed in grouped.items()]

    def orbit(self):
        """p if P1-P3 of check_bialgebra_compat hold on the live tables, else 1: the size of a g-orbit of m1."""
        p, n, rows, products, moved, wt = self.p, self.n, self.rows, self.products, self.moved, self.wt
        # after_g[k][c] is the code of q^(e+k) basis[t] g, for c that of q^e basis[t]; -1 (zero) reads -1
        after_g = [tuple(moved[1][c // p] * p + (c + k) % p for c in range(n * p)) + (-1,) for k in range(p)]
        columns = [after_g[k] for k in wt]
        return p if (
            all(rows[i] == [(moved[i % p][u], moved[i % p][v], r) for u, v, r in rows[i - i % p]] for i in range(n))
            and not any((wt[u] + wt[v] - wt[i]) % p for i in range(0, n, p) for u, v, _ in rows[i])
            and all(tuple(map(getitem, columns, products[u])) == products[moved[1][u]] for u in range(n))
        ) else 1

    def expected(self, t):
        """Biased packed Delta(x^B y^C g^(a + a2)) in lane a2, for t the index of x^B y^C g^a:
        group t // p with both legs moved by g^a and lane a + a2 rotated down to lane a2."""
        p, n, a = self.p, self.n, t % self.p
        move, low, high = self.moved[a], a * self.lane_bits, (p - a) * self.lane_bits
        return {
            move[w] * n + move[z]:
                self.bias - (packed >> low | (packed & (1 << low) - 1) << high)
            for w, z, packed in self.groups[t // p]
        }

    def run(self, i1, bc2, left):
        """(accumulator, mask of the bad lanes, e12) of group (basis[i1], x^b2 y^c2), for left = self.left(i1)."""
        # m1 x^b2 y^c2 = q^e12 basis[t12], or 0 for t12 = -1, where any e12 serves
        t12, e12 = divmod(self.products[i1][bc2 * self.p], self.p)
        expected = self.memo.get(t12)
        if expected is None:
            expected = self.memo[t12] = self.expected(t12)
        return (*self.group(left, bc2, e12, expected), e12)

    def left(self, i1):
        """The terms of Delta(basis[i1]): the product-table rows of both legs, and the rotated lifts."""
        products = self.products
        return [(products[u], products[v], rotations) for u, v, rotations in self.rows[i1]]

    def group(self, left, bc2, e12, expected):
        """Accumulate Delta(m1) times group bc2 and compare with ``expected``.

        Returns the accumulator and the mask of the lanes a2 (bit a2) where
        Delta(m1) Delta(m2) differs from Delta(m1 m2).  The products are
        taken at q^(e - e12), so the accumulator is q^-e12 times
        Delta(m1) Delta(m2) and compares with the unscaled Delta rows.
        """
        p, n = self.p, self.n
        acc = {}
        get = acc.get
        terms = self.groups[bc2]
        for row_u, row_v, rotated in left:
            for w, z, packed in terms:
                cu = row_u[w]
                if cu < 0:
                    continue
                cv = row_v[z]
                if cv < 0:
                    continue
                key = cu // p * n + cv // p
                acc[key] = get(key, 0) + rotated[(cu + cv - e12) % p] * packed
        half, fold_mask, low, rep, bias = p * self.width, self.fold_mask, self.low, self.rep, self.bias
        rest = dict(expected)
        bad = 0
        for key, v in acc.items():
            d = (v & fold_mask) + (v >> half & fold_mask) + rest.pop(key, bias)
            bad |= d ^ (d & low) * rep
        for d in rest.values():
            bad |= d ^ (d & low) * rep
        return acc, sum(1 << a for a in range(p) if bad >> a * self.lane_bits & self.lane_mask)

    def unpacked(self, acc, bad):
        """Every bad lane a2 (bit a2 of ``bad``) of an accumulator, {a2: sorted tuple of (key, packed value)} with
        keys t_u n + t_v as in lane 0, in one pass over the sorted accumulator."""
        mask, shifts = self.lane_mask, [(a2, a2 * self.lane_bits) for a2 in range(self.p) if bad >> a2 & 1]
        lanes = {a2: [] for a2, _ in shifts}
        for key, v in sorted(acc.items()):
            for a2, shift in shifts:
                if w := v >> shift & mask:
                    lanes[a2].append((key, w))
        return {a2: tuple(terms) for a2, terms in lanes.items()}


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


def check_relations(algebra, **_ignored):
    """Each defining relation of ``BookAlgebra.relations`` holds after applying Delta and after applying S.

    Delta and S are read through ``coproduct`` and ``antipode``, as every
    other check reads them.  Delta is multiplicative, so a relation u = c v
    is checked as Delta-images multiplied in order; S is anti-multiplicative,
    so both products are reversed (same scalar).  A pass means the images of
    x, y and g extend to a well-defined algebra map.  That it is Delta on
    the whole basis is the bialgebra check's: proved on the generators
    where its premises hold, and otherwise swept over the pairs.  At s = 0
    this check fails at y^p = 0, and the bialgebra proof at its runs of y
    against x^b y^(p-1), so the sweep runs there.
    """
    A = algebra
    p, s = A.p, A.s
    rec = _Recorder("relations")
    q = root_power(p, 1)
    letters = {"x": A.x, "y": A.y, "g": A.g}
    relations = A.relations()

    def word_image(structure_map, word, step):
        out = structure_map(A.one)
        for letter in word[::step]:
            out = out * structure_map(letters[letter])
        return out

    def sweep():
        for name, lhs_word, e, rhs_word in relations:
            for label, f, step in (("Delta", A.coproduct, 1), ("S", A.antipode, -1)):
                lhs = word_image(f, lhs_word, step)
                rhs = type(lhs).zero(p, s) if rhs_word is None else word_image(f, rhs_word, step).scale(q ** e)
                if lhs != rhs:
                    yield f"{label}: {name}", lhs.render(), rhs.render()

    return AxiomReport([rec.finish("exhaustive", 2 * len(relations), sweep())])


class _Proofs:
    """The premises that the proofs by generators share, on one table state (see the module docstring).

    Each verdict is computed on first use, at most once per object.
    ``run_all`` builds one object and passes it to every check, a check
    called alone builds its own, and nothing is cached on the algebra.
    ``rows``, ``lanes``, ``counit`` and ``eps`` are built at most once:
    ``rows`` for ``lanes`` and the associativity sweep, ``lanes`` and
    ``counit`` for the law table and the bialgebra sweep, which reads the
    table's runs back, and ``eps`` for the counit and antipode laws.
    """

    def __init__(self, algebra):
        self.algebra = algebra

    @cached_property
    def rows(self):
        A = self.algebra
        return _ProductRows(A.product_table(), len(A.basis()), A.p)

    @cached_property
    def lanes(self):
        return _Lanes(self.algebra, self.rows)

    @cached_property
    def counit(self):
        return _Counit(self.algebra)

    @cached_property
    def eps(self):
        """eps of every basis monomial, packed like the structure table (``BookAlgebra.counit_packed``)."""
        return self.algebra.counit_packed()

    @cached_property
    def generation(self):
        return self.algebra.generation()

    @cached_property
    def associative(self):
        """Every basis triple is associative: ``generation()`` holds and the live table is ``bilinear_rows`` at the
        q-exponents of its entries g x, g y and y x, by the cocycle lemma of check_associativity.  The tables are
        compared a row at a time, as bytes, so no second table is kept."""
        A = self.algebra
        p, n, table = A.p, len(A.basis()), A.product_table()
        g, x, y = A.generators
        codes = table[g * n + x], table[g * n + y], table[y * n + x]
        if self.generation is None or min(codes) < 0:
            return False
        rows = bilinear_rows(p, *(c % p for c in codes))
        return all(table[i * n:(i + 1) * n].tobytes() == row for i, row in enumerate(rows))

    @cached_property
    def unit(self):
        """Delta(1) = 1 (x) 1 and eps(1) = 1, which with U give the Delta and eps laws at (1, m) for every m."""
        structure, n = self.algebra.structure_table(), len(self.algebra.basis())
        unit = {}  # Delta(1), summed per key
        for u, v, r in structure.delta[0]:
            unit[u * n + v] = unit.get(u * n + v, 0) + r[0]
        return not structure.differs(unit, {0: 1}) and self.counit.values[0] == 1

    @cached_property
    def laws(self):
        """The law table: the run ``_Lanes.run(t, x^b y^c)`` of every generator t and every x^b y^c, made with no
        early stop, as {(t, b p + c): (accumulator if a lane is bad, else None, bad lanes, e12)}.

        Bit a of the bad lanes is set where Delta(t m) != Delta(t) Delta(m), m = x^b y^c g^a, so that law is one
        bit.  The lanes read a product u (w g^a) off u w, which a bilinear table guarantees: the table is None
        unless ``associative``.
        """
        if not self.associative:
            return None
        lanes, p, runs = self.lanes, self.algebra.p, {}
        for t in self.algebra.generators:
            left = lanes.left(t)
            for bc in range(p * p):
                acc, bad, e12 = lanes.run(t, bc, left)
                runs[t, bc] = acc if bad else None, bad, e12
        return runs

    @cached_property
    def broken(self):
        """{t: (Delta, eps)} for t = 0 (the index of 1) and each generator: the indices i where Delta(t basis[i])
        != Delta(t) Delta(basis[i]), read off ``laws``, and where eps(t basis[i]) != eps(t) eps(basis[i]).  At 1
        both are empty if ``unit`` holds and every index if not.  None where ``laws`` is."""
        if self.laws is None:
            return None
        A, eps = self.algebra, self.counit
        p, n = A.p, len(A.basis())
        everything = frozenset(range(n))
        broken = {0: (frozenset(), frozenset()) if self.unit else (everything, everything)}
        for t in A.generators:
            lhs, rhs = eps.lhs(t), eps.rhs(t)
            masks = [(bc, run[1]) for bc in range(p * p) if (run := self.laws[t, bc])[1]]
            broken[t] = (frozenset(bc * p + a for bc, mask in masks for a in range(p) if mask >> a & 1),
                         frozenset() if lhs == rhs else frozenset(i for i in range(n) if lhs[i] is not rhs[i]))
        return broken

    @cached_property
    def multiplicative(self):
        """Delta and eps are algebra maps: the proof of check_bialgebra_compat, ``broken`` empty at 1, g, x and y."""
        return self.broken is not None and not any(chain.from_iterable(self.broken.values()))

    @cached_property
    def steps(self):
        """The Delta and eps laws on every step pair (t, basis[j]) of ``generation()``, read off ``broken``: the
        premise that the step of every per-monomial proof reads.  It holds with no further work where
        ``multiplicative`` does."""
        broken = self.broken
        return self.multiplicative or broken is not None and not any(
            j in broken[t][0] or j in broken[t][1] for t, j, _ in self.generation.values())

    def _on_legs(self, law):
        """Whether the Delta law (``law`` 0) or the eps law (1) holds on every pair (left leg of Delta(t), left leg
        of Delta(basis[j])) and every pair of right legs, for every step (t, j, e) of ``generation()``: the pairs
        that Delta(t) Delta(basis[j]) multiplies leg by leg.  A leg of Delta(t) other than 1 or a generator
        refuses it, as ``broken`` holds no law there.  It holds with no further work where ``multiplicative`` does."""
        if self.multiplicative:
            return True
        broken, delta = self.broken, self.algebra.structure_table().delta
        if broken is None:
            return False
        for t, j, _ in self.generation.values():
            for side in (0, 1):
                for u in {term[side] for term in delta[t]}:
                    if u not in broken:
                        return False
                    bad = broken[u][law]
                    if bad and not bad.isdisjoint(term[side] for term in delta[j]):
                        return False
        return True

    @cached_property
    def coassociative_legs(self):
        """The Delta law on the leg pairs of every step, the premise of the coassociativity step."""
        return self._on_legs(0)

    @cached_property
    def counit_legs(self):
        """The eps law on the leg pairs of every step, the premise of the counit step."""
        return self._on_legs(1)

    @cached_property
    def anti_multiplicative(self):
        """S(m1 m2) = S(m2) S(m1) for every basis pair, on the premise ``associative``.

        The law at m1 is S(m1 m2) = S(m2) S(m1) for every m2, checked at
        m1 in {1, g, x, y} on unit codes off the S rows and the product
        table, 4 n compares; the step is S((t basis[j]) m2) = S(t (basis[j] m2))
        = S(basis[j] m2) S(t) = (S(m2) S(basis[j])) S(t) = S(m2) S(t basis[j]).
        A code k < p is +q^k and k + p is -q^k, as in the S rows.
        """
        if not self.associative:
            return False
        A = self.algebra
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


class _Counit:
    """Both sides of eps(m1 m2) = eps(m1) eps(m2) over all m2, one tuple per m1, read off ``counit_monomial``.

    One object per value, so that equal tuples compare by identity.
    """

    def __init__(self, algebra):
        p = algebra.p
        n = self.n = len(algebra.basis())
        self.table = algebra.product_table()
        canon = {}

        def value(c):
            return canon.setdefault((c.num, c.den), c)

        values = self.values = [value(algebra.counit_monomial(m)) for m in algebra.basis()]
        distinct = {id(e): e for e in values}
        scaled = {k: [value(e * root_power(p, j)) for j in range(p)] for k, e in distinct.items()}  # e q^j
        # eps of q^e basis[t] at the product code t * p + e; code -1 (a zero product) reads the last entry
        self.of_code = [scaled[id(values[c // p])][c % p] for c in range(n * p)] + [value(cyc_zero(p))]
        self.rows = {}  # id(e) -> eps(m1) eps(m2) over all m2, for eps(m1) = e
        for k, e in distinct.items():
            times = {id(f): value(e * f) for f in distinct.values()}
            self.rows[k] = tuple([times[id(f)] for f in values])

    def lhs(self, i1):
        """eps(m1 m2) over all m2, m1 = basis[i1]."""
        n = self.n
        return tuple(map(self.of_code.__getitem__, self.table[i1 * n:(i1 + 1) * n]))

    def rhs(self, i1):
        """eps(m1) eps(m2) over all m2."""
        return self.rows[id(self.values[i1])]


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


def negative_control_matches(report, p):
    """True iff the failure pattern is exactly the predicted s = 0 breakdown.

    At s = 0 the only broken relation image is Delta(y)^p != 0; the bialgebra
    compatibility check necessarily fails with it, but only on pairs whose
    y-exponents overflow (c1 + c2 >= p) while the x-exponents do not.  All
    other axioms must pass, and the bialgebra check must report exactly
    those pairs, in basis order, up to MAX_VIOLATIONS_RENDERED of them.
    """
    results = {r.axiom: r for r in report.results}
    healthy = ("associativity", "coassociativity", "counit", "antipode")
    if not all(a in results for a in (*healthy, "bialgebra", "relations")):
        return False
    if [v.at for v in results["relations"].violations] != [f"Delta: y^{p} = 0"]:
        return False
    if not all(results[a].passed for a in healthy):
        return False
    return [v.at for v in results["bialgebra"].violations] == _negative_control_sites(p)


def _negative_control_sites(p):
    """The ``at`` of the predicted s = 0 bialgebra violations, in basis order, up to MAX_VIOLATIONS_RENDERED: every
    (m1, m2) with c1 + c2 >= p and b1 + b2 < p, read off the basis index (b p + c) p + a with no pair tested."""
    names = [m.render() for m in basis_monomials(p)]
    sites = (
        f"Delta: m1={names[i1]}, m2={names[i2]}"
        for i1 in range(p ** 3)
        for b1, c1 in [divmod(i1 // p, p)]
        for b2 in range(p - b1)
        for c2 in range(p - c1, p)
        for i2 in range((b2 * p + c2) * p, (b2 * p + c2 + 1) * p)
    )
    return list(islice(sites, MAX_VIOLATIONS_RENDERED))
