"""Hopf-algebra axiom verification for a BookAlgebra instance.

Each check returns an :class:`AxiomReport` whose results carry a pass/fail
status, the violations (both sides rendered exactly, with the offending
basis data) and wall-clock timing; ``run_all`` runs the six checks in a
fixed order.  Checks over basis pairs or triples run exhaustively when the
domain is small (up to 25 000 pairs or 2 000 000 triples, i.e. p <= 5) or
the sample size covers it, and otherwise on seeded uniform draws, so a
report is deterministic given (p, s, seed).

*Proof by generators.*  Every check but the relations is first proved by
induction on the generators g, x and y, on the live tables.  Every proof
rests on ``BookAlgebra.generation()``, premises U (the row of 1 in the
product table is the identity) and F (every basis[i] but 1, g, x and y is
q^e t basis[j] for a generator t and some j < i).  *Lemma:* let a law L(m)
about a basis monomial m hold at m = 1 and at g, x and y, and let
L(basis[j]) imply L(t basis[j]) for every generator t and basis[j].  Then
L holds on the whole basis, by strong induction on i along the (t, j, e)
of ``generation()``, as L(q^e m) is L(m) for the laws here.  Each proof
states only its law, its checks at 1 and at the generators, and its step
from basis[j] to t basis[j].  ``_Proofs`` computes the three premises the
proofs share, each at most once per table state:

- *associative*: ``_Rows.proved()``, the proof of ``check_associativity``;
- *multiplicative*: Delta and eps are algebra maps, the proof of
  ``check_bialgebra_compat``, which needs *associative*;
- *anti-multiplicative*: S(m1 m2) = S(m2) S(m1), proved on S(t m) =
  S(m) S(t) for t in {1, g, x, y} and every m, which needs *associative*.

The five proofs, each with its premises: associativity (its own row
compare on g, x and y), the bialgebra law (*multiplicative*),
coassociativity and the counit law (*multiplicative* and the law at 1, g,
x and y) and the antipode law (*multiplicative*, *anti-multiplicative* and
the law at 1, g, x and y).  One protocol, ``_prove_or_sweep``, runs them
all: a proved run reports its route's mode and ``checked``, with no
violation and no draw; if a premise fails, the route runs as if no proof
had been tried.  ``run_all`` passes one ``_Proofs`` to every check, and a
check called alone builds its own; nothing is cached on the algebra, whose
tables a caller may change between checks.

Every check but the relations runs on integers: products are read off the
basis-index product table, and Delta and S off the structure table, whose
compares the ``hopf`` module docstring shows exact; eps is read off
``BookAlgebra.counit_monomial``.  ``StructureTable.render`` renders the
failing sides of coassociativity, the counit law and Delta
multiplicativity straight from their packed sums, ``Element`` those of
associativity, the antipode law and the relations, up to
MAX_VIOLATIONS_RENDERED.  The checks are pure computation and may run
concurrently on one algebra instance.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import chain, islice
from operator import getitem, itemgetter
from time import perf_counter
from typing import NamedTuple

from .cyclotomic import cyc_zero, root_power
from .pbw import Element, basis_monomials

__all__ = [
    "Violation", "AxiomResult", "AxiomReport", "check_associativity", "check_coassociativity",
    "check_counit_law", "check_bialgebra_compat", "check_antipode_law", "check_relations", "run_all",
    "negative_control_matches", "PAIR_EXHAUSTIVE_LIMIT", "TRIPLE_EXHAUSTIVE_LIMIT", "DEFAULT_SAMPLE_SIZE",
    "DEFAULT_SEED",
]

PAIR_EXHAUSTIVE_LIMIT = 25_000
TRIPLE_EXHAUSTIVE_LIMIT = 2_000_000
DEFAULT_SAMPLE_SIZE = 1_000_000
DEFAULT_SEED = 0


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
        self.violations = []
        self.t0 = perf_counter()
        self.checked = 0

    @property
    def full(self):  # callers render no violation past the cap
        return len(self.violations) >= MAX_VIOLATIONS_RENDERED

    def hit(self, at, lhs, rhs):
        if not self.full:
            self.violations.append(Violation(self.axiom, at, lhs, rhs))

    def finish(self, mode):
        elapsed = round((perf_counter() - self.t0) * 1000.0, 3)
        return AxiomResult(self.axiom, self.violations, elapsed, self.checked, mode)


def _prove_or_sweep(rec, mode, checked, proved, sweep):
    """The protocol of every proof by generators: report the route's ``mode`` and ``checked``; unless
    ``proved()``, first run ``sweep()``, the route as if no proof had been tried, which records the violations."""
    rec.checked = checked
    if not proved():
        sweep()
    return AxiomReport([rec.finish(mode)])


def _per_monomial(rec, algebra, proofs, premises, law):
    """``_prove_or_sweep`` for a law checked per basis monomial by ``law(rec, indices)``.

    Proved when the ``_Proofs`` verdicts named in ``premises`` hold and
    ``law`` finds nothing at 1, g, x and y; the run then reports exhaustive
    with every monomial checked.  Otherwise ``law`` runs on the whole basis.
    """
    n = len(algebra.basis())

    def proved():
        if not all(getattr(proofs, premise) for premise in premises):
            return False
        scratch = _Recorder(rec.axiom)
        law(scratch, (0, *algebra.generators))
        return not scratch.violations

    return _prove_or_sweep(rec, "exhaustive", n, proved, lambda: law(rec, range(n)))


def _plan(domain, sample_size, exhaustive, limit):
    """Return ("exhaustive", None) or ("sampled", n) for a domain of given size.

    Raises ValueError for a sample size below 1, which would check nothing.
    """
    if sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")
    if exhaustive or domain <= limit or sample_size >= domain:
        return "exhaustive", None
    return f"sampled(n={sample_size})", sample_size


def _shifts(p, n):
    """shift[e] maps each code to the code of q^e times it and ends in -1, so that index -1 (a zero product) stays -1."""
    return [tuple(c - c % p + (c + e) % p for c in range(n * p)) + (-1,) for e in range(p)]


def check_associativity(algebra, *, seed=DEFAULT_SEED, sample_size=DEFAULT_SAMPLE_SIZE, exhaustive=False,
                        _proofs=None):
    """(m1 m2) m3 = m1 (m2 m3) over basis triples, read off the product table.

    Codes are t * p + e for q^e basis[t] and -1 for 0, as in the table.
    The exhaustive sweep compares the rows of ``_Rows.differing`` for every
    m1 and walks a differing row in m3 order to record violations.  A
    sampled run makes one uniform draw i1 n^2 + i2 n + i3 in [0, n^3) per
    triple, by rejection on ``getrandbits`` as ``Random.randrange(n ** 3)`` does.

    *Proof by generators* (see the module docstring), by ``_Rows.proved``,
    whose verdict ``_Proofs.associative`` keeps, not the rows.  The law at
    m1 is (m1 m2) m3 = m1 (m2 m3) for all m2 and m3.  At 1 it is U; at the
    generators it is premise R, the sweep's own row compare on
    the three m1 in {g, x, y}; and the step is

        ((t basis[j]) m2) m3 = (t (basis[j] m2)) m3    R
                             = t ((basis[j] m2) m3)    R, bilinearly
                             = t (basis[j] (m2 m3))    the law at basis[j]
                             = (t basis[j]) (m2 m3)    R, bilinearly

    with the codes carrying every q^e.  The proof reads 3 n^2 entries in
    C-level row compares, and costs about as much as n^2 / 5 draws, which
    read 4 entries each in Python: 0.47 s against 1.13 s for 10^6 draws at
    p = 11, and 1.53 s against 1.49 s at p = 13 (2-core Xeon VM, Python
    3.11).  So it is tried on every exhaustive run and on a sampled run of
    at least n^2 / 5 draws, which takes in the default 10^6 at every p up to
    13.  A proved run reports what its route would have: exhaustive with
    n^3 triples checked, or sampled with its draws as ``checked``, which are
    triples of the proved whole.  Only an exhaustive sweep builds ``_Rows``
    again.
    """
    A = algebra
    p, s = A.p, A.s
    basis = A.basis()
    n = len(basis)
    rec = _Recorder("associativity")
    mode, draws = _plan(n ** 3, sample_size, exhaustive, TRIPLE_EXHAUSTIVE_LIMIT)
    proofs = _proofs or _Proofs(A)

    def render(code):
        return "0" if code < 0 else Element._raw(p, s, {basis[code // p]: root_power(p, code % p)}).render()

    def hit(i1, i2, i3, left, right):
        if not rec.full:
            rec.hit(f"m1={basis[i1].render()}, m2={basis[i2].render()}, m3={basis[i3].render()}",
                    render(left), render(right))

    def sweep():
        if draws is None:
            rows = _Rows(A)
            for i1 in range(n):
                for i2, lhs, rhs in rows.differing(i1):
                    for i3 in range(n):
                        if lhs[i3] != rhs[i3]:
                            hit(i1, i2, i3, lhs[i3], rhs[i3])
            return
        table, shift = A.product_table(), _shifts(p, n)
        n2, n3 = n * n, n ** 3
        k = n3.bit_length()
        getrandbits = random.Random(seed).getrandbits
        for _ in range(draws):
            while (code := getrandbits(k)) >= n3:
                pass
            c = table[code // n]  # m1 m2
            left = -1 if c < 0 else shift[c % p][table[c // p * n + code % n]]
            c = table[code % n2]  # m2 m3
            right = -1 if c < 0 else shift[c % p][table[code // n2 * n + c // p]]
            if left != right:
                hit(code // n2, code // n % n, code % n, left, right)

    def proved():
        return (draws is None or 5 * draws >= n * n) and proofs.associative

    return _prove_or_sweep(rec, mode, n ** 3 if draws is None else draws, proved, sweep)


class _Rows:
    """The associativity rows of one product table: for each m1, (m1 m2) m3 and m1 (m2 m3) over all m3 at once.

    ``row[t]`` reads row t of the table through a code map: (m1 m2) m3 is
    row t12 through ``shift[e12]``, and m1 (m2 m3) is row m2 through a map
    built per m1 that takes the code of q^e basis[t] to that of
    m1 q^e basis[t].  Equal codes share one int, so the rows hold n^2
    references to n p + 1 ints (38 MB at p = 13, not 174 MB).
    """

    def __init__(self, algebra):
        self.algebra = algebra
        p = self.p = algebra.p
        n = self.n = len(algebra.basis())
        table = self.table = algebra.product_table()
        self.shift = _shifts(p, n)
        codes = [*range(n * p), -1]
        self.row = [itemgetter(*map(codes.__getitem__, table[t * n:(t + 1) * n])) for t in range(n)]

    def differing(self, i1):
        """(i2, lhs, rhs) for each m2 whose rows (m1 m2) m3 and m1 (m2 m3) over all m3 differ, m1 = basis[i1]."""
        p, n, table, row, shift = self.p, self.n, self.table, self.row, self.shift
        zero = (-1,) * n
        f = tuple(chain.from_iterable(zip(*map(row[i1], shift)))) + (-1,)
        for i2 in range(n):
            c = table[i1 * n + i2]
            lhs = zero if c < 0 else row[c // p](shift[c % p])
            rhs = row[i2](f)
            if lhs != rhs:
                yield i2, lhs, rhs

    def proved(self):
        """True iff ``generation()`` holds and premise R of check_associativity, so that every triple is associative."""
        A = self.algebra
        return A.generation() is not None and not any(next(self.differing(t), None) for t in A.generators)


def check_coassociativity(algebra, *, _proofs=None, **_ignored):
    """(Delta (x) id) Delta = (id (x) Delta) Delta on every basis monomial.

    Both sides are packed sums off the structure table, keyed by the basis
    indices of the three legs; a failing monomial's sides are rendered
    straight from those sums.

    *Proof by generators* (see the module docstring), on the premise
    *multiplicative* and this row compare at 1, g, x and y.  Delta is an
    algebra map, so (Delta (x) id) and (id (x) Delta) are algebra maps of
    H (x) H, and both sides of the law are algebra maps of H; the step is

        (Delta (x) id) Delta(t basis[j]) = (Delta (x) id) Delta(t) . (Delta (x) id) Delta(basis[j])
                                         = (id (x) Delta) Delta(t) . (id (x) Delta) Delta(basis[j])
                                         = (id (x) Delta) Delta(t basis[j])

    by the law at t and at basis[j].  A proved run reports exhaustive with
    n checked; if a premise fails, the row compare runs on every monomial.
    """
    A = algebra
    basis = A.basis()
    n = len(basis)
    rec = _Recorder("coassociativity")
    table = A.structure_table()

    def law(rec, indices):
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
            if not rec.full and table.differs(lhs, rhs):
                rec.hit(f"m={basis[i].render()}", table.render(lhs, legs=3), table.render(rhs, legs=3))

    return _per_monomial(rec, A, _proofs or _Proofs(A), ("multiplicative",), law)


def check_counit_law(algebra, *, _proofs=None, **_ignored):
    """(eps (x) id) Delta = id = (id (x) eps) Delta on every basis monomial, off the structure table.

    *Proof by generators* (see the module docstring), on the premise
    *multiplicative* and this check at 1, g, x and y.  eps is an algebra
    map, so (eps (x) id) Delta and (id (x) eps) Delta are algebra maps of H,
    as id is; the step is (eps (x) id) Delta(t basis[j]) = (eps (x) id)
    Delta(t) . (eps (x) id) Delta(basis[j]) = t basis[j] by the law at t
    and at basis[j], and likewise on the right leg.  A proved run reports
    exhaustive with n checked; if a premise fails, every monomial is checked.
    """
    A = algebra
    basis = A.basis()
    rec = _Recorder("counit")
    table = A.structure_table()
    eps = A.counit_packed()

    def law(rec, indices):
        for i in indices:
            left, right = {}, {}
            for u, v, r in table.delta[i]:
                if eps[u]:
                    left[v] = left.get(v, 0) + r[0] * eps[u]
                if eps[v]:
                    right[u] = right.get(u, 0) + r[0] * eps[v]
            for leg, side in (("left", left), ("right", right)):
                if not rec.full and table.differs(side, {i: 1}):
                    at = f"m={basis[i].render()} (eps on {leg} leg)"
                    rec.hit(at, table.render(side, legs=1), basis[i].render())

    return _per_monomial(rec, A, _proofs or _Proofs(A), ("multiplicative",), law)


def check_bialgebra_compat(algebra, *, seed=DEFAULT_SEED, sample_size=DEFAULT_SAMPLE_SIZE, exhaustive=False,
                           _proofs=None):
    """Delta and eps are algebra maps: checked on basis pairs (m1, m2).

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
      If a premise fails, every m1 is its own orbit: the full sweep.

    The expected side Delta(m1 m2) is read off the product table and the
    lane groups, memoized per product monomial.  Both sides of eps(m1 m2) =
    eps(m1) eps(m2) are read off ``counit_monomial``, one row over all m2 per
    m1, with one object per value so that equal rows compare by identity.

    *Proof by generators* (see the module docstring): the premise
    *multiplicative*, ``_Proofs.multiplicative``.  The law at m1 is
    Delta(m1 m2) = Delta(m1) Delta(m2) and eps(m1 m2) = eps(m1) eps(m2) for
    every m2.  It rests on four premises, tried in this order:

    - *associative*, which holds ``generation()``: H is associative, and so
      is H (x) H, whose products the lanes read leg by leg;
    - Delta(1) = 1 (x) 1 and eps(1) = 1, which with U give the law at 1;
    - eps(t m) = eps(t) eps(m) for t in {g, x, y} and every m;
    - no bad lane in the 3 p^2 group runs of m1 in {g, x, y}: the law at
      the generators.  The runs stop at the first bad lane; the sweep
      reads back those it would run, so a failed proof costs it little.

    The step, with Delta(q^e m) = q^e Delta(m) and the same for eps, is

        Delta((t basis[j]) m2) = Delta(t (basis[j] m2))                 H associative
                               = Delta(t) Delta(basis[j] m2)            the law at t
                               = Delta(t) (Delta(basis[j]) Delta(m2))   the law at basis[j]
                               = Delta(t basis[j]) Delta(m2)            H (x) H associative, the law at t

    and likewise for eps.  If every premise holds the run reports its mode
    and ``checked``, draws nothing and calls no ``_Lanes.orbit``; it costs
    3 p^2 group runs instead of up to p^4.  Otherwise the sweep below runs as if
    no proof had been tried, as it does on a doctored table and at s = 0,
    where the runs of y against x^b y^(p-1) fail.

    Both modes sweep the groups (m1, x^b2 y^c2) in basis order, each with a
    mask of the lanes a2 it reads: all of them when exhaustive.  A sampled
    run first replays its draws, i1 then i2 from ``Random(seed)``, into bit
    i2 % p of group (i1, i2 // p); a group runs at the first m1 of its orbit
    that drew a lane there, so it never runs more groups than the exhaustive
    sweep, lists violations in basis order and a pair drawn twice once, and
    ``checked`` counts its draws.  Up to MAX_VIOLATIONS_RENDERED failing
    lanes are rendered by ``StructureTable.render``, with no Tensor2 built:
    Delta(m1 m2) from its Delta row at q^e12, Delta(m1) Delta(m2) from the
    first run of its (g-orbit, x^b2 y^c2), at basis[first], which the sweep
    carries through the orbit, with its accumulator while a later m1 reads a
    bad lane: so a group runs once per g-orbit also when rendering.  By the
    lemma, at basis[i1] = basis[first] g^a1 Delta(m1) Delta(m2) is lane a2
    of that run with both legs moved by g^(a2 + a1) (``_Lanes.lane``), at
    q^(e12 + a1 wt(x^b2 y^c2)); a1 is i1 - first, not i1 mod p, as a
    sampled run's first run can be at any m1 of the orbit.  Once
    MAX_VIOLATIONS_RENDERED violations are rendered the sweep stops before
    the next m1: past the cap nothing can change the report, which fails
    with ``checked`` as planned.  So an exhaustive sweep runs all p^4 groups
    only where fewer violations arise; at s = 0 it runs 588 of them at
    p = 7 and 726 at p = 11.
    """
    A = algebra
    p = A.p
    basis = A.basis()
    n = len(basis)
    rec = _Recorder("bialgebra")
    mode, draws = _plan(n * n, sample_size, exhaustive, PAIR_EXHAUSTIVE_LIMIT)
    proofs = _proofs or _Proofs(A)

    def sweep():
        table, lanes, eps, tried = A.product_table(), proofs.lanes, proofs.counit, proofs.tried
        structure, names = lanes.table, lanes.table.names
        groups = p * p  # per m1, one group per x^b2 y^c2

        def run(i1, bc2, left):
            return tried.pop((i1, bc2), None) or lanes.run(i1, bc2, left)

        if draws is None:
            masks = [(1 << p) - 1] * (n * groups)
        else:
            masks = [0] * (n * groups)  # i1 p^2 + i2 // p -> the lanes i2 % p drawn
            rng = random.Random(seed)
            for _ in range(draws):
                i1, i2 = rng.randrange(n), rng.randrange(n)
                masks[i1 * groups + i2 // p] |= 1 << i2 % p

        def at(kind, i1, i2):
            return f"{kind}: m1={names[i1]}, m2={names[i2]}"

        orbit = lanes.orbit()
        for i1 in range(n):
            if rec.full:
                break  # past the cap nothing can change the report: it fails, with its checked and violations
            if i1 % orbit == 0:
                carried = {}  # bc2 -> (i1, accumulator if the rest of the orbit reads a bad lane, bad lanes, e12)
            row_masks = masks[i1 * groups:(i1 + 1) * groups]
            if not any(row_masks):
                continue
            left = lanes.left(i1)
            eps_lhs, eps_rhs = eps.lhs(i1), eps.rhs(i1)
            eps_ok = eps_lhs == eps_rhs
            for bc2, mask in enumerate(row_masks):
                if not mask:
                    continue
                if bc2 in carried:
                    first, acc, bad, e12 = carried[bc2]
                else:
                    first, (acc, bad, e12) = i1, run(i1, bc2, left)
                    later = masks[(i1 + 1) * groups + bc2:(i1 - i1 % orbit + orbit) * groups:groups]
                    carried[bc2] = i1, acc if any(m & bad for m in later) else None, bad, e12
                if eps_ok and not bad or rec.full:
                    continue
                a1 = i1 - first  # basis[i1] = basis[first] g^a1
                for i2 in range(bc2 * p, bc2 * p + p):
                    if not mask >> i2 % p & 1:
                        continue
                    if bad >> i2 % p & 1 and not rec.full:
                        t, e = divmod(table[i1 * n + i2], p)  # m1 m2 = q^e basis[t], or 0 for t = -1
                        row = {u * n + v: r[0] for u, v, r in structure.delta[t]} if t >= 0 else None
                        lhs = "0" if row is None else structure.render(row, e)
                        rhs = structure.render(lanes.lane(acc, i2 % p, a1), e12 + a1 * lanes.wt[bc2 * p])
                        rec.hit(at("Delta", i1, i2), lhs, rhs)
                    if eps_lhs[i2] != eps_rhs[i2] and not rec.full:
                        rec.hit(at("epsilon", i1, i2), eps_lhs[i2].render(), eps_rhs[i2].render())

    return _prove_or_sweep(rec, mode, n * n if draws is None else draws, lambda: proofs.multiplicative, sweep)


class _Lanes:
    """The packed Delta rows of check_bialgebra_compat for one algebra, p lanes per value.

    Lane a of a packed value holds 2p digits of the structure table's
    ``width`` at bit a * lane_bits.  An output key t_u n + t_v stands for
    basis[t_u] (x) basis[t_v] in lane 0; in lane a2 both legs carry g^a2 more.
    """

    def __init__(self, algebra):
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
        # products[t] is row t of the product table; equal codes share one int,
        # and code -1 (a zero product) indexes the last entry of ``codes``
        products = algebra.product_table()
        codes = [*range(n * p), -1]
        self.products = [tuple(map(codes.__getitem__, products[t * n:(t + 1) * n])) for t in range(n)]
        self.wt = [c % p for c in self.products[1]]  # g w = q^wt(w) w g, g = basis[1]
        self.groups = [self._group(bc) for bc in range(p * p)]
        self.memo = {-1: {}}  # t -> self.expected(t); a zero product (t = -1) expects no term

    def _group(self, bc):
        """Terms of the p rows x^b y^c g^a2, both legs moved by g^-a2, grouped across lanes a2."""
        p = self.p
        grouped = {}
        for a2 in range(p):
            for u, v, rotations in self.rows[bc * p + a2]:
                key = u - u % p + (u - a2) % p, v - v % p + (v - a2) % p
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
        low, high = a * self.lane_bits, (p - a) * self.lane_bits
        return {
            (w - w % p + (w + a) % p) * n + z - z % p + (z + a) % p:
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

    def lane(self, acc, a2, a1=0):
        """Lane a2 of an accumulator as a packed sum keyed t_u n + t_v, both legs moved by g^(a2 + a1)."""
        n, move, shift, mask = self.n, self.moved[(a2 + a1) % self.p], a2 * self.lane_bits, self.lane_mask
        return {move[key // n] * n + move[key % n]: w for key, v in acc.items() if (w := v >> shift & mask)}


def check_antipode_law(algebra, *, _proofs=None, **_ignored):
    """m(S (x) id)Delta = eps(.)1 = m(id (x) S)Delta on every basis monomial.

    Read off the structure table: S of a leg is a unit +-q^k times one basis
    monomial, its product with the other leg is read off the product table,
    and the rotated coefficient is summed on the side its sign picks, so
    both sides stay non-negative (eps(m) is added to the minus side).

    *Proof by generators* (see the module docstring), on the premises
    *multiplicative* and *anti-multiplicative* and this check at 1, g, x and
    y on both legs.  With Delta(a b) = a1 b1 (x) a2 b2, the step for a = t
    and b = basis[j] is

        S(a1 b1) a2 b2 = S(b1) S(a1) a2 b2 = S(b1) eps(a) b2 = eps(a) eps(b) 1
        a1 b1 S(a2 b2) = a1 b1 S(b2) S(a2) = a1 eps(b) S(a2) = eps(a) eps(b) 1

    by anti-multiplicativity, associativity, U and the law at t and at
    basis[j], and eps(a) eps(b) = eps(a b).  A proved run reports
    exhaustive with n checked; if a premise fails, every monomial is checked.
    """
    A = algebra
    p, s = A.p, A.s
    basis = A.basis()
    n = len(basis)
    rec = _Recorder("antipode")
    products = A.product_table()
    table = A.structure_table()
    S = table.antipode
    eps = A.counit_packed()

    def law(rec, indices):
        for i in indices:
            for leg in ("left", "right"):
                plus, minus = {}, {0: eps[i]}  # keyed by basis index; basis[0] = 1
                for u, v, r in table.delta[i]:
                    t, code = S[u] if leg == "left" else S[v]
                    c = products[t * n + v] if leg == "left" else products[u * n + t]  # S(u) v or u S(v)
                    if c >= 0:
                        side = minus if code >= p else plus
                        side[c // p] = side.get(c // p, 0) + r[(code + c) % p]
                if not rec.full and table.differs(plus, minus):
                    target = Element._raw(p, s, table.decoded(basis.__getitem__, {0: eps[i]}))  # eps(m) 1
                    got = Element._raw(p, s, table.decoded(basis.__getitem__, plus, minus)) + target
                    rec.hit(f"m={basis[i].render()} (S on {leg} leg)", got.render(), target.render())

    return _per_monomial(rec, A, _proofs or _Proofs(A), ("multiplicative", "anti_multiplicative"), law)


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

    def word_image(structure_map, word, step):
        out = structure_map(A.one)
        for letter in word[::step]:
            out = out * structure_map(letters[letter])
        return out

    for name, lhs_word, e, rhs_word in A.relations():
        for label, f, step in (("Delta", A.coproduct, 1), ("S", A.antipode, -1)):
            rec.checked += 1
            lhs = word_image(f, lhs_word, step)
            rhs = type(lhs).zero(p, s) if rhs_word is None else word_image(f, rhs_word, step).scale(q ** e)
            if lhs != rhs:  # two images per relation, far below the cap
                rec.hit(f"{label}: {name}", lhs.render(), rhs.render())
    return AxiomReport([rec.finish("exhaustive")])


class _Proofs:
    """The premises that the proofs by generators share, on one table state (see the module docstring).

    Each verdict is computed on first use, at most once per object.
    ``run_all`` builds one object and passes it to every check, a check
    called alone builds its own, and nothing is cached on the algebra.
    ``lanes`` and ``counit`` are built at most once, for the premise
    *multiplicative* and for the bialgebra sweep; ``tried`` holds the lane
    group runs of a failed *multiplicative*, which the sweep reads back.
    """

    def __init__(self, algebra):
        self.algebra = algebra
        self.tried = {}  # (i1, bc2) -> a group run of the generator premise

    @cached_property
    def lanes(self):
        return _Lanes(self.algebra)

    @cached_property
    def counit(self):
        return _Counit(self.algebra)

    @cached_property
    def associative(self):
        """``_Rows.proved()``: every basis triple is associative.  The verdict is kept, not the rows."""
        return _Rows(self.algebra).proved()

    @cached_property
    def multiplicative(self):
        """Delta and eps are algebra maps: the proof of check_bialgebra_compat, which needs ``associative``."""
        if not self.associative:
            return False
        A, lanes, eps = self.algebra, self.lanes, self.counit
        n, structure = lanes.n, lanes.table
        unit = {}  # Delta(1), summed per key
        for u, v, r in structure.delta[0]:
            unit[u * n + v] = unit.get(u * n + v, 0) + r[0]
        if structure.differs(unit, {0: 1}) or eps.values[0] != 1:
            return False
        if any(eps.lhs(t) != eps.rhs(t) for t in A.generators):
            return False
        # x and y first: the sweep reads back their runs, which start g-orbits, but not those of g
        for t in sorted(A.generators, reverse=True):
            left = lanes.left(t)
            for bc2 in range(A.p ** 2):
                self.tried[t, bc2] = result = lanes.run(t, bc2, left)
                if result[1]:
                    return False
        self.tried.clear()  # no sweep reads them
        return True

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


def run_all(algebra, *, seed=DEFAULT_SEED, sample_size=DEFAULT_SAMPLE_SIZE, exhaustive=False):
    """Run the six axiom checks in a fixed order and merge the reports; one ``_Proofs`` serves them all."""
    proofs = _Proofs(algebra)
    results = []
    for check in _CHECKS:
        results.extend(
            check(algebra, seed=seed, sample_size=sample_size, exhaustive=exhaustive, _proofs=proofs).results
        )
    return AxiomReport(results)


def negative_control_matches(report, p):
    """True iff the failure pattern is exactly the predicted s = 0 breakdown.

    At s = 0 the only broken relation image is Delta(y)^p != 0; the bialgebra
    compatibility check necessarily fails with it, but only on pairs whose
    y-exponents overflow (c1 + c2 >= p) while the x-exponents do not.  All
    other axioms must pass.  An exhaustive bialgebra run must report exactly
    those pairs, in basis order, up to MAX_VIOLATIONS_RENDERED of them; in a
    sampled run every reported pair must be one of them.
    """
    results = {r.axiom: r for r in report.results}
    healthy = ("associativity", "coassociativity", "counit", "antipode")
    if not all(a in results for a in (*healthy, "bialgebra", "relations")):
        return False
    if [v.at for v in results["relations"].violations] != [f"Delta: y^{p} = 0"]:
        return False
    if not all(results[a].passed for a in healthy):
        return False
    bialgebra = results["bialgebra"]
    basis = basis_monomials(p)
    names = [m.render() for m in basis]

    def overflows(m1, m2):
        return m1.c + m2.c >= p and m1.b + m2.b < p

    if bialgebra.mode == "exhaustive":
        predicted = (
            f"Delta: m1={names[i1]}, m2={names[i2]}"
            for i1, m1 in enumerate(basis)
            for i2, m2 in enumerate(basis)
            if overflows(m1, m2)
        )
        return [v.at for v in bialgebra.violations] == list(islice(predicted, MAX_VIOLATIONS_RENDERED))
    by_name = dict(zip(names, basis))
    for v in bialgebra.violations:
        kind, _, rest = v.at.partition(": m1=")
        m1, _, m2 = rest.partition(", m2=")
        m1, m2 = by_name.get(m1), by_name.get(m2)
        if kind != "Delta" or m1 is None or m2 is None or not overflows(m1, m2):
            return False
    return True
