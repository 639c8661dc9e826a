"""Acceptance gate: the eight guarantees this package ships with.

Each test prints exactly one line, ``criterion N (label): pass`` or
``... : FAIL``, mirroring the checklist in the README.  Expensive
classifications are computed once and shared; the recorded wall-clock times
are asserted against the stated budgets on the first (cold) computation.
"""

import itertools
import sys
import time
from contextlib import contextmanager

from bookhopf import (
    BookAlgebra,
    check_convolution_inverse,
    classify,
    closed_form_predicate,
    enumerate_characters,
    enumerate_group_likes,
    mono_mul,
    negative_control_matches,
    root_power,
    run_all,
    twist,
)
from oracles import normal_form, word_of


def announce(line):
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        announce(f"criterion {number} ({label}): FAIL")
        raise
    announce(f"criterion {number} ({label}): pass")


_ALGEBRAS = {}
_CLASSIFICATIONS = {}


def algebra(p, s):
    key = (p, s)
    if key not in _ALGEBRAS:
        _ALGEBRAS[key] = BookAlgebra(p, s, permissive=(s == 0))
    return _ALGEBRAS[key]


def classification(p, s):
    """Classification of H(p, s) plus the wall-clock seconds it cost (cold)."""
    key = (p, s)
    if key not in _CLASSIFICATIONS:
        start = time.perf_counter()
        result = classify(algebra(p, s))
        _CLASSIFICATIONS[key] = (result, time.perf_counter() - start)
    return _CLASSIFICATIONS[key]


def test_criterion_1_theorem_reproduction():
    # Brute force finds an MPI exactly for s in {1, p-1}: (g, counit) at
    # s = 1 and (1, beta(g) = q^(p-1)) at s = p-1, within 30 s per (7, s).
    with criterion(1, "theorem reproduction"):
        for p in (3, 5, 7):
            for s in range(1, p):
                result, elapsed = classification(p, s)
                assert bool(result.mpi) == (s in (1, p - 1))
                if s == 1:
                    assert result.mpi == ((1, 0),)
                elif s == p - 1:
                    assert result.mpi == ((0, p - 1),)
                else:
                    assert result.mpi == ()
                if p == 7:
                    assert elapsed < 30.0


def test_criterion_2_closed_form_equivalence():
    # Brute-force (implements, stable) flags match the closed-form predicate
    # on every (i, j, s) triple — p^3 of them per p, s = 0 included through
    # permissive mode — and the whole p = 7 sweep stays under 5 minutes.
    with criterion(2, "closed-form equivalence"):
        for p in (3, 5, 7):
            triples = 0
            for s in range(p):
                result, _ = classification(p, s)
                for report in result.pairs:
                    implements, stable = closed_form_predicate(p, s, report.i, report.j)
                    assert report.is_mpi == (implements and stable)
                    triples += 1
            assert triples == p**3
        assert sum(classification(7, s)[1] for s in range(7)) < 300.0


def test_criterion_3_hopf_axiom_suite():
    # Associativity, coassociativity, counit, bialgebra compatibility and
    # the antipode law: exhaustive for p in {3, 5} (under a minute at p = 5),
    # proved at p = 7, where associativity carries the label sampled(n=1000000) and draws nothing.
    with criterion(3, "Hopf axiom suite"):
        elapsed_p5 = 0.0
        for p in (3, 5):
            for s in range(1, p):
                start = time.perf_counter()
                report = run_all(algebra(p, s))
                if p == 5:
                    elapsed_p5 += time.perf_counter() - start
                assert report.passed
                assert all(r.mode == "exhaustive" for r in report.results)
        assert elapsed_p5 < 60.0
        for s in range(1, 7):
            report = run_all(algebra(7, s))
            assert report.passed
            assert report.result("associativity").mode == "sampled(n=1000000)"
            for r in report.results:
                assert r.mode in ("exhaustive", "sampled(n=1000000)")


def test_criterion_4_negative_control():
    # H(3, 0) and H(5, 0) in permissive mode break exactly where predicted:
    # the relation check fails at Delta(y)^p = 0 and nowhere else.
    with criterion(4, "negative control"):
        start = time.perf_counter()
        for p in (3, 5):
            report = run_all(algebra(p, 0))
            assert not report.passed
            relations = report.result("relations")
            assert [v.at for v in relations.violations] == [f"Delta: y^{p} = 0"]
            assert negative_control_matches(report, p)
        assert time.perf_counter() - start < 10.0


def test_criterion_5_unique_implementing_pair():
    # For every admissible s exactly one pair implements S^2, sitting at
    # i = (1+s)/2 and j = i-1 mod p; read off the criterion-1 classifications.
    with criterion(5, "unique implementing pair"):
        for p in (3, 5, 7):
            half = pow(2, -1, p)
            for s in range(1, p):
                result, _ = classification(p, s)
                i = (1 + s) * half % p
                assert result.implements == ((i, (i - 1) % p),)


def test_criterion_6_generator_closed_forms():
    # S^2 fixes g and scales x by q and y by q^(-s^2); the twist of any pair
    # fixes g and scales x by q^i beta(g)^-1 and y by q^(-is) beta(g)^-s.
    with criterion(6, "generator closed forms"):
        for p in (3, 5, 7):
            q = root_power(p, 1)
            for s in range(1, p):
                A = algebra(p, s)
                assert A.s_squared(A.g) == A.g
                assert A.s_squared(A.x) == q * A.x
                assert A.s_squared(A.y) == root_power(p, (-s * s) % p) * A.y
                for l in enumerate_group_likes(A):
                    for beta in enumerate_characters(A):
                        scale_x = root_power(p, l.i) * beta.on_g ** -1
                        scale_y = root_power(p, (-l.i * s) % p) * beta.on_g ** (-s)
                        assert twist(A, l, beta, A.g) == A.g
                        assert twist(A, l, beta, A.x) == scale_x * A.x
                        assert twist(A, l, beta, A.y) == scale_y * A.y


def test_criterion_7_convolution_inverse():
    # beta . S is the two-sided convolution inverse of every character beta,
    # checked against the counit on every basis monomial.
    with criterion(7, "convolution inverse"):
        for p in (3, 5, 7):
            for s in range(1, p):
                A = algebra(p, s)
                for beta in enumerate_characters(A):
                    assert check_convolution_inverse(A, beta)


def test_criterion_8_structure_constant_oracle():
    # The closed-form monomial product agrees with the letter-by-letter
    # rewrite oracle on every basis pair of H(3, s) and H(5, s), every s.
    with criterion(8, "structure-constant oracle"):
        for p in (3, 5):
            for s in range(p):
                basis = algebra(p, s).basis()
                for m1, m2 in itertools.product(basis, repeat=2):
                    slow = normal_form(word_of(m1) + word_of(m2), p, s)
                    fast = mono_mul(m1, m2, p, s)
                    if slow is None:
                        assert fast is None
                    else:
                        assert fast == (root_power(p, slow[0]), slow[1])
