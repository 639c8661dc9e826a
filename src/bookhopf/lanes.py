"""The failure-path state of the bialgebra check: its packed lane kernel and its eps rows.

``axioms._Proofs`` builds a ``_Lanes`` and a ``_Counit`` only where the
proof that Delta and eps are multiplicative fails, as at s = 0 or on a
doctored table, for the law table and the sweep of
``check_bialgebra_compat``, whose docstring states the lemmas they rest
on.  A run whose proofs hold does not load this module, so a process
compiles the kernel only where it runs it.
"""

from .cyclotomic import cyc_zero, root_power


class _Lanes:
    """The packed Delta rows of check_bialgebra_compat for one algebra, p lanes per value.

    Lane a of a packed value holds 2p digits of the structure table's
    ``width`` at bit a * lane_bits.  An output key t_u n + t_v stands for
    basis[t_u] (x) basis[t_v] in lane 0; in lane a2 both legs carry g^a2 more.
    Every run rests on ``_Proofs.associative``, which gives u (w g^a2) off
    u w and P3.  ``products[t]`` is row t of the product table, decoded on
    its first read by ``_Proofs.rows``: the law table reads only those of
    1, g, g^s, x and y.
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
