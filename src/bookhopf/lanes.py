"""The failure path of the bialgebra check, which a run whose proofs hold does not load.

Where ``axioms.check_bialgebra_compat`` cannot prove Delta and eps
multiplicative, as at s = 0 or on a doctored table, it runs
``bialgebra_sweep``: the lane sweep with its vouching lemma, or the
per-pair route.  Here too are ``broken_laws``, which ``_Proofs.broken``
imports on first use, the lane kernel ``_Lanes`` and its memo of lane runs,
the eps rows ``_Counit`` and ``negative_control_matches``, which ``verify``
runs at s = 0 alone.  A process compiles this code only where it runs it.
"""

from itertools import islice

from .axioms import MAX_VIOLATIONS_RENDERED, _summed
from .cyclotomic import cyc_zero, root_power
from .pbw import basis_monomials


def bialgebra_sweep(algebra, proofs):
    """The violations of Delta(m1 m2) = Delta(m1) Delta(m2) and eps(m1 m2) = eps(m1) eps(m2) over every basis pair,
    as (at, lhs, rhs) in basis order: the sweep of check_bialgebra_compat where its proof fails.

    *The lane sweep*, where *associative* holds, compares the structure
    table's packed coefficients, exact by the ``hopf`` module docstring; the
    live product table is that of a bilinear q-exponent phi
    (check_associativity), and the lanes check all p monomials m2 =
    x^b2 y^c2 g^a2, a2 = 0..p-1, at once:

    - *a2 does not enter the twist.*  The q-exponent phi(m, x^b y^c g^a)
      does not depend on a, as phi reads no g-exponent of its right
      argument.  So the terms of the p rows Delta(x^b2 y^c2 g^a2),
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
    - *One group run per g-orbit of m1.*  Where ``_Proofs.orbit`` holds,
      P1, P2 and P3 of check_bialgebra_compat give the *lemma*: at
      m1 = h g^a1, h = x^b1 y^c1, Delta(m1) Delta(m2) and Delta(m1 m2) are
      both q^(a1 wt(m2)) times their values at (h, m2) with both legs moved
      by g^a1, so all m1 of an orbit fail in the same lanes.  If P1 or P2
      fails, every m1 is its own orbit, and the sweep runs every group.

    The expected side Delta(m1 m2) is read off the product table and the
    lane groups, memoized per product monomial.  Both sides of eps(m1 m2) =
    eps(m1) eps(m2) are read off ``counit_monomial``, one row over all m2 per
    m1, with one object per value so that equal rows compare by identity.

    The sweep takes the g-orbits of m1 in basis order.  At the first m1 of
    an orbit, basis[first], it reads the p^2 runs (basis[first], x^b2 y^c2)
    off the run memo of ``_Lanes``: it records there each run it vouches for
    (below), with no kernel call, and ``_Lanes.made`` makes each run not yet
    made.  It then yields the violations of every m1 of the orbit in basis
    order, each rendered as it is yielded, with no Tensor2 built:
    Delta(m1 m2) from its Delta row at q^e1 for m1 m2 = q^e1 basis[t], and
    by the lemma, at basis[i1] = basis[first] g^a1, Delta(m1) Delta(m2) as
    lane a2 of the run with both legs moved by g^(a2 + a1), at
    q^(e12 + a1 wt(x^b2 y^c2)).  eps values are compared by identity, as
    ``_Counit`` keeps one object per value.  Last, it drops the accumulators
    of the orbit's runs from the memo.

    *Vouching.*  The run (basis[first], x^b2 y^c2) has no bad lane, and
    the sweep makes no kernel call for it, if basis[first] is 1 and
    ``_Proofs.unit`` holds (the law at 1), or if all of these hold:

    - ``generation()`` gives basis[first] = q^e t basis[j], and the memo
      holds the runs of basis[j], the first m1 of a g-orbit swept before;
    - ``_Proofs.broken`` holds law(t, basis[j]);
    - the run (basis[j], x^b2 y^c2) had no bad lane;
    - for every a2, basis[j] x^b2 y^c2 g^a2 is 0 or q^e' basis[k] with
      law(t, basis[k]) in ``_Proofs.broken``.

    Then, with m2 = x^b2 y^c2 g^a2, in every lane,

        Delta(t basis[j] m2) = Delta(t) Delta(basis[j] m2)             law(t, basis[k]), H associative
                             = Delta(t) Delta(basis[j]) Delta(m2)      the run of basis[j], H (x) H associative
                             = Delta(t basis[j]) Delta(m2)             law(t, basis[j])

    where a zero product makes both sides 0.  At H(5, 0) ``broken_laws``
    makes 75 runs and the sweep 185 of the 625 it reads; where it stops at
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

    The sweep is drawn from no more at the cap (see the ``axioms`` module
    docstring), so no run is unpacked nor lane rendered past it, and the
    report fails with n^2 checked.

    *The per-pair route*, where *associative* fails (a doctored product
    table need not give u (w g^a2) off u w, nor P3), runs no lane.  Pair by
    pair in basis order, Delta(m1 m2) is the Delta row of its product code
    and Delta(m1) Delta(m2) a sum of term products, each leg product read off
    the live table; they are compared, rendered and eps checked as in the
    sweep, about 0.35 s at p = 5.
    """
    A = algebra
    p = A.p
    n = len(A.basis())

    table, structure = A.product_table(), A.structure_table()

    def product_row(i1, i2):
        """Delta(m1 m2) as a packed sum read off the product code, None for m1 m2 = 0."""
        t, e1 = divmod(table[i1 * n + i2], p)  # m1 m2 = q^e1 basis[t], or 0 for t = -1
        return _summed(structure.delta[t], n, e1) if t >= 0 else None

    def lane_sweep():
        lanes, names, eps = proofs.lanes, structure.names, proofs.counit
        moved, wt, memo = lanes.moved, lanes.wt, lanes.runs
        numbers, texts = {}, {}  # unpacked lane -> its number; (number, g-move, q-exponent) -> its text
        orbit = p if proofs.orbit else 1

        def vouched(first):
            """The x^b2 y^c2 whose run at basis[first] the vouching lemma passes with no kernel call."""
            broken, steps = proofs.broken, proofs.generation
            if broken is None or first and first not in steps:
                return ()
            if first == 0:  # basis[0] = 1: the law at 1, by unit and U, which associative holds
                return range(p * p) if proofs.unit else ()
            t, j, _ = steps[first]
            delta_broken = broken[t][0]
            if (j, 0) not in memo or j in delta_broken:  # j's runs are in the memo once its g-orbit is swept
                return ()
            return [bc2 for bc2 in range(p * p) if not memo[j, bc2][1]
                    and all(c < 0 or c // p not in delta_broken for c in proofs.rows[j][bc2 * p:bc2 * p + p])]

        for first in range(0, n, orbit):
            for bc2 in vouched(first):
                memo[first, bc2] = None, 0, 0
            runs = [lanes.made(first, bc2) for bc2 in range(p * p)]  # per x^b2 y^c2
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
                            lhs = "0" if (row := product_row(i1, i2)) is None else structure.render(row)
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
            memo.update(((first, bc2), (None, bad, e12)) for bc2, (acc, bad, e12) in enumerate(runs) if acc is not None)

    def pairs():
        names, eps = structure.names, proofs.counit
        for i1 in range(n):
            eps_lhs, eps_rhs = eps.lhs(i1), eps.rhs(i1)
            for i2 in range(n):
                if structure.differs(row := product_row(i1, i2) or {}, rhs := proofs.product(i1, i2)):
                    yield f"Delta: m1={names[i1]}, m2={names[i2]}", structure.render(row), structure.render(rhs)
                if eps_lhs[i2] is not eps_rhs[i2]:
                    yield f"epsilon: m1={names[i1]}, m2={names[i2]}", eps_lhs[i2].render(), eps_rhs[i2].render()

    sweep = lane_sweep if proofs.associative else pairs
    return sweep()


def broken_laws(proofs):
    """``_Proofs.broken``, {t: (Delta, eps)} for t = 0 (the index of 1) and each generator: the indices i where
    Delta(t basis[i]) != Delta(t) Delta(basis[i]), bit a of the bad lanes of run (t, x^b y^c) for i the index of
    x^b y^c g^a, and where eps(t basis[i]) != eps(t) eps(basis[i]).  At 1 both are empty if ``unit`` holds and every
    index if not.  The 3 p^2 runs are made here, into the run memo, and only a refused ``multiplicative`` reads this,
    through ``steps`` and the sweep.  None unless ``associative``, on which every lane run rests."""
    if not proofs.associative:
        return None
    A, eps, lanes = proofs.algebra, proofs.counit, proofs.lanes
    p, n = A.p, len(A.basis())
    broken = {0: (frozenset(),) * 2 if proofs.unit else (frozenset(range(n)),) * 2}
    for t in A.generators:
        lhs, rhs = eps.lhs(t), eps.rhs(t)
        bad = [lanes.made(t, bc)[1] for bc in range(p * p)]
        broken[t] = (frozenset(i for i in range(n) if bad[i // p] >> i % p & 1),
                     frozenset() if lhs == rhs else frozenset(i for i in range(n) if lhs[i] is not rhs[i]))
    return broken


class _Lanes:
    """The packed Delta rows of check_bialgebra_compat for one algebra, p lanes per value.

    Lane a of a packed value holds 2p digits of the structure table's
    ``width`` at bit a * lane_bits.  An output key t_u n + t_v stands for
    basis[t_u] (x) basis[t_v] in lane 0; in lane a2 both legs carry g^a2 more.
    Every run rests on ``_Proofs.associative``, which gives u (w g^a2) off
    u w and P3.  ``products[t]`` is row t of the product table, decoded on
    its first read by ``_Proofs.rows``: ``broken_laws`` reads only those of
    1, g, g^s, x and y.  ``made`` makes each run into the run memo ``runs``
    at most once, and the sweep records its vouched runs there.
    """

    def __init__(self, algebra, proofs):
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
        self.moved, self.wt, self.products = proofs.moved, proofs.wt, proofs.rows
        self.groups = [self._group(bc) for bc in range(p * p)]
        self.memo = {-1: {}}  # t -> self.expected(t); a zero product (t = -1) expects no term
        self.runs = {}  # the run memo: (i1, bc2) -> (accumulator if a lane is bad, else None, bad lanes, e12)
        self.last = None, None  # (i1, self.left(i1)) of the last run made

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

    def made(self, i1, bc2):
        """Run (basis[i1], x^b2 y^c2) read off ``runs``, where ``run`` makes it on its first read."""
        if (out := self.runs.get((i1, bc2))) is None:
            if self.last[0] != i1:
                self.last = i1, self.left(i1)
            acc, bad, e12 = self.run(i1, bc2, self.last[1])
            out = self.runs[i1, bc2] = acc if bad else None, bad, e12
        return out

    def run(self, i1, bc2, left):
        """(accumulator, mask of the bad lanes, e12) of group (basis[i1], x^b2 y^c2), for left = self.left(i1)."""
        # m1 x^b2 y^c2 = q^e12 basis[t12], or 0 for t12 = -1, where any e12 serves
        t12, e12 = divmod(self.products[i1][bc2 * self.p], self.p)
        if (expected := self.memo.get(t12)) is None:
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
