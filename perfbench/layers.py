"""Traced per-layer suite: calls each bookhopf module from outside and times it.

Every section is one operation with its own id; its spans nest under a root
span named ``section.<name>``.  A span's name starts with the layer it times,
so a layer's self time is the sum over its spans of the duration minus the
part covered by child spans.  Timed rows check their own results afterwards,
so a row never times a broken path; problems are returned, never raised.

Sections, in order:

- ``cli``: ``cli.main`` on the workload's first operation, untraced, then
  the same operation as spans around its public calls.  The difference of
  the two wall times is the tracing overhead.
- ``cyclotomic``: general x general products, sums and inverses of real
  Delta coefficients (q-binomials) of H(7, s) and H(11, s).
- ``pbw``: single-monomial Element products against ``mono_mul_exp`` on the
  same pairs, and Tensor2 products of coproducts at p = 7.
- ``hopf``: cold fills of Delta, S, S^2 and Delta^2 on a fresh H(7, s), then
  warm Delta memo reads.
- ``axioms``: the six ``check_*`` calls on H(5, s) (H(5, 0) for the
  negative control), exhaustive, judged by the oracle.
- ``mpi``: group-likes, characters, the S^2 sweep timed per pair, and
  ``classify`` on a fresh H(5, s), judged by the oracle.
"""

import io
import json
from contextlib import contextmanager
from math import comb
from statistics import median
from time import perf_counter

import oracle
from bookhopf import (
    AxiomReport,
    BookAlgebra,
    Element,
    Monomial,
    check_antipode_law,
    check_associativity,
    check_bialgebra_compat,
    check_coassociativity,
    check_counit_law,
    check_relations,
    classify,
    cli,
    enumerate_characters,
    enumerate_group_likes,
    implements_s_squared,
    mono_mul_exp,
    negative_control_matches,
    root_power,
)

LAYERS = ("cyclotomic", "pbw", "hopf", "axioms", "mpi", "cli")
CHECKS = (
    ("associativity", check_associativity),
    ("coassociativity", check_coassociativity),
    ("counit", check_counit_law),
    ("bialgebra", check_bialgebra_compat),
    ("antipode", check_antipode_law),
    ("relations", check_relations),
)
CYCLOTOMIC_PAIRS = 20_000  # split evenly between p = 7 and p = 11
PBW_PAIRS = 30_000
TENSOR_PAIRS = 200
LOOKUP_ROUNDS = 100  # warm passes over the basis


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = 0

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = perf_counter()

    @contextmanager
    def section(self, name):
        self.op += 1
        with self.span(f"section.{name}") as idx:
            yield idx

    def seconds(self, idx):
        _, start, end, _, _ = self.spans[idx]
        return end - start

    def self_times(self):
        """Self time per layer, in seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += end - start - child
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                fh.write(json.dumps(row) + "\n")


def run_suite(tracer, rng, op):
    """Run every section in SECTIONS; return (metrics, counts, problems, failed sections).

    ``op`` is the workload's first operation, run by the ``cli`` section.
    The axioms section runs on H(5, 0) when ``op`` is the negative control.
    """
    metrics, counts, problems = {}, {}, []
    failed = 0
    for section in SECTIONS:
        before = len(problems)
        with tracer.section(section.__name__[1:]):
            section(tracer, rng, op, metrics, counts, problems)
        failed += len(problems) > before
    for layer, seconds in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics, counts, problems, failed


def _per_call_us(tracer, idx, calls):
    return tracer.seconds(idx) / calls * 1e6


def _cyclotomic(tr, rng, op, m, counts, problems):
    pairs, operands = [], []
    for p in (7, 11):
        algebra = BookAlgebra(p, rng.randint(1, p - 1))
        roots = {root_power(p, k) for k in range(p)}
        found = {
            coeff
            for b in range(p)
            for c in range(p)
            for coeff in algebra.coproduct_monomial(Monomial(b, c, 0)).terms.values()
            if coeff not in roots and coeff.as_rational() is None
        }
        found = sorted(found, key=lambda z: z.render())
        operands += found
        pairs += [(rng.choice(found), rng.choice(found)) for _ in range(CYCLOTOMIC_PAIRS // 2)]
    with tr.span("cyclotomic.mul") as mul:
        products = [a * b for a, b in pairs]
    with tr.span("cyclotomic.add") as add:
        sums = [a + b for a, b in pairs]
    with tr.span("cyclotomic.inv") as inv:
        inverses = [z.inv() for z in operands]
    inverse = dict(zip(operands, inverses))
    bad = sum(
        ab * inverse[b] != a or a_b - b != a
        for (a, b), ab, a_b in zip(pairs, products, sums)
    )
    if bad:
        problems.append(f"cyclotomic: {bad} pairs fail (a*b)*b.inv() == a or (a+b)-b == a")
    m["cyclotomic.mul.us"] = _per_call_us(tr, mul, len(pairs))
    m["cyclotomic.add.us"] = _per_call_us(tr, add, len(pairs))
    m["cyclotomic.inv.us"] = _per_call_us(tr, inv, len(operands))
    counts["cyclotomic.mul.ops"] = len(pairs)
    counts["cyclotomic.inv.ops"] = len(operands)


def _pbw(tr, rng, op, m, counts, problems):
    p, s = 7, rng.randint(1, 6)
    algebra = BookAlgebra(p, s)
    basis = algebra.basis()
    n = len(basis)
    elements = [Element.monomial(p, s, mono) for mono in basis]
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(PBW_PAIRS)]
    with tr.span("pbw.element_mul") as el_mul:
        element_products = [elements[i] * elements[j] for i, j in pairs]
    with tr.span("pbw.mono_mul_exp") as exp_mul:
        closed_forms = [mono_mul_exp(basis[i], basis[j], p, s) for i, j in pairs]
    zero = Element.zero(p, s)
    bad = sum(
        got != (zero if cf is None else Element.monomial(p, s, cf[1], root_power(p, cf[0])))
        for got, cf in zip(element_products, closed_forms)
    )
    if bad:
        problems.append(f"pbw: Element and mono_mul_exp products disagree on {bad} pairs")
    deltas = [algebra.coproduct_monomial(mono) for mono in basis]
    tensor_pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(TENSOR_PAIRS)]
    with tr.span("pbw.tensor2_mul") as t2_mul:
        tensor_products = [deltas[i] * deltas[j] for i, j in tensor_pairs]
    bad = sum(
        got != algebra.coproduct(elements[i] * elements[j])
        for got, (i, j) in zip(tensor_products, tensor_pairs)
    )
    if bad:
        problems.append(f"pbw: Delta(m1) Delta(m2) != Delta(m1 m2) on {bad} pairs")
    m["pbw.element_mul.us"] = _per_call_us(tr, el_mul, len(pairs))
    m["pbw.mono_mul_exp.us"] = _per_call_us(tr, exp_mul, len(pairs))
    m["pbw.tensor2_mul.us"] = _per_call_us(tr, t2_mul, len(tensor_pairs))
    counts["pbw.element_mul.ops"] = len(pairs)
    counts["pbw.mono_mul_exp.ops"] = len(pairs)
    counts["pbw.tensor2_mul.term_pairs"] = sum(len(deltas[i]) * len(deltas[j]) for i, j in tensor_pairs)


def _hopf(tr, rng, op, m, counts, problems):
    p = 7
    algebra = BookAlgebra(p, rng.randint(1, p - 1))
    basis = algebra.basis()
    fills = {}
    for name, image in (
        ("delta", algebra.coproduct_monomial),
        ("antipode", algebra.antipode_monomial),
        ("s2", algebra.s_squared_monomial),
        ("delta2", algebra.delta2_monomial),
    ):
        with tr.span(f"hopf.{name}_fill") as idx:
            fills[name] = [image(mono) for mono in basis]
        m[f"hopf.{name}_fill.s"] = tr.seconds(idx)
    with tr.span("hopf.delta_lookup") as idx:
        for _ in range(LOOKUP_ROUNDS):
            for mono in basis:
                algebra.coproduct_monomial(mono)
    m["hopf.delta_lookup.us"] = _per_call_us(tr, idx, LOOKUP_ROUNDS * len(basis))
    terms = {name: sum(len(t) for t in images) for name, images in fills.items()}
    # Delta(x^b y^c g^a) has (b+1)(c+1) terms and Delta^2 has C(b+2,2) C(c+2,2);
    # S and S^2 send a basis monomial to a multiple of one basis monomial.
    expected = {
        "delta": p * (p * (p + 1) // 2) ** 2,
        "delta2": p * comb(p + 2, 3) ** 2,
        "antipode": p ** 3,
    }
    for name, want in expected.items():
        if terms[name] != want:
            problems.append(f"hopf: sum of |{name}(m)| is {terms[name]}, expected {want}")
    if any(list(img.terms) != [mono] for img, mono in zip(fills["s2"], basis)):
        problems.append("hopf: S^2 does not fix every basis monomial up to a scalar")
    for name in ("delta", "antipode", "delta2"):
        counts[f"hopf.{name}.terms"] = terms[name]


def verify_run(tr, algebra, seed, sample_size):
    """The CLI's ``runs[0]`` object for ``verify`` and the span index of each check."""
    results, spans = [], []
    for name, check in CHECKS:
        with tr.span(f"axioms.{name}") as idx:
            results += check(algebra, seed=seed, sample_size=sample_size).results
        spans.append(idx)
    run = {"s": algebra.s, "permissive": algebra.permissive, "axioms": [r.to_dict() for r in results]}
    report = AxiomReport(results)
    if algebra.s == 0:
        with tr.span("axioms.negative_control_matches"):
            run["negative_control_matches"] = negative_control_matches(report, algebra.p)
        run["passed"] = run["negative_control_matches"]
    else:
        run["passed"] = report.passed
    return run, spans


def _axioms(tr, rng, op, m, counts, problems):
    s = 0 if op.s == 0 else rng.randint(1, 4)
    check_op = oracle.Op("verify", 5, s, seed=rng.randrange(1 << 31), permissive=s == 0)
    algebra = BookAlgebra(5, s, permissive=s == 0)
    run, check_spans = verify_run(tr, algebra, check_op.seed, oracle.DEFAULT_SAMPLE_SIZE)
    problems += [f"axioms: {msg}" for msg in oracle.check_verify_run(check_op, run)]
    for (name, _), idx, result in zip(CHECKS, check_spans, run["axioms"]):
        m[f"axioms.{name}.s"] = tr.seconds(idx)
        counts[f"axioms.{name}.checked"] = result["checked"]
        counts[f"axioms.{name}.violations"] = len(result["violations"])
    delta_terms = sum(len(algebra.coproduct_monomial(mono)) for mono in algebra.basis())
    counts["axioms.bialgebra.term_pairs"] = delta_terms ** 2


def _mpi(tr, rng, op, m, counts, problems):
    p, s = 5, rng.randint(1, 4)
    algebra = BookAlgebra(p, s)
    with tr.span("mpi.group_likes") as idx:
        group_likes = enumerate_group_likes(algebra)
    m["mpi.group_likes.s"] = tr.seconds(idx)
    with tr.span("mpi.characters") as idx:
        characters = enumerate_characters(algebra)
    m["mpi.characters.s"] = tr.seconds(idx)
    with tr.span("hopf.prefill"):  # keep the Delta^2 and S^2 fills out of the per-pair times
        for mono in algebra.basis():
            algebra.delta2_monomial(mono)
            algebra.s_squared_monomial(mono)
    implements, per_pair = [], []
    with tr.span("mpi.s2_sweep") as sweep:
        for l in group_likes:
            for beta in characters:
                with tr.span("mpi.implements_s_squared") as idx:
                    if implements_s_squared(algebra, l, beta):
                        implements.append((l.i, beta.j))
                per_pair.append(tr.seconds(idx))
    want = oracle.expected_classification(p, s)[0]
    if implements != want:
        problems.append(f"mpi: S^2 sweep found {implements}, expected {want}")
    with tr.span("mpi.classify") as idx:
        run = classify(BookAlgebra(p, s)).to_dict()
    problems += [f"mpi: {msg}" for msg in oracle.check_classify_run(p, s, run)]
    m["mpi.s2_sweep.s"] = tr.seconds(sweep)
    m["mpi.s2_sweep.pair_p50.us"] = median(per_pair) * 1e6
    m["mpi.s2_sweep.pair_max.us"] = max(per_pair) * 1e6
    m["mpi.classify.s"] = tr.seconds(idx)
    counts["mpi.characters.products"] = p * (p ** 3) ** 2
    counts["mpi.s2_sweep.pairs"] = len(per_pair)


def _cli(tr, rng, op, m, counts, problems):
    out = io.StringIO()
    start = perf_counter()  # no span: this is the untraced reference, not cli self time
    code = cli.main(op.argv(), out=out)
    untraced = perf_counter() - start
    problems += [f"cli.main: {msg}" for msg in oracle.check(op, code, out.getvalue())]
    with tr.span("op.traced") as traced:
        with tr.span("hopf.BookAlgebra"):
            algebra = BookAlgebra(op.p, op.s, permissive=op.permissive)
        if op.command == "classify":
            with tr.span("mpi.classify"):
                run = classify(algebra).to_dict()
            payload = {"command": "classify", "p": op.p, "runs": [run]}
        else:
            seed = 0 if op.seed is None else op.seed
            sample_size = oracle.DEFAULT_SAMPLE_SIZE if op.sample_size is None else op.sample_size
            run, _ = verify_run(tr, algebra, seed, sample_size)
            payload = {"command": "verify", "p": op.p, "runs": [run], "passed": run["passed"]}
        with tr.span("cli.render"):
            text = json.dumps(payload, indent=2)
    problems += [f"traced op: {msg}" for msg in oracle.check(op, 0, text)]
    m["cli.main.s"] = untraced
    m["trace.overhead_s"] = tr.seconds(traced) - untraced


# cli runs first, on a fresh process, so that cli.main is not timed on a heap
# the other sections have grown.
SECTIONS = (_cli, _cyclotomic, _pbw, _hopf, _axioms, _mpi)
