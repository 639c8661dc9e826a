"""Mutation gate: every mutant below must be killed by the tests named for it.

For each mutant this script copies ``src/`` to a temporary directory,
applies one exact (file, old, new) replacement, and runs the mutant's test
selection against the copy with pytest, in a process of its own, with the
plugin ``no_shrink`` loaded: hypothesis skips its shrink phase there, so a
property test can be named at the cost of finding a failure only.  A mutant
fails the gate if every selected test passes (it survived), or if its
``old`` text is not found exactly once, so that a refactor which moves the
mutated code must update this list.  The equivalent mutants, which change
no result, are listed apart with their reasons; the gate checks only that
their ``old`` text is still found exactly once, and runs no test for them.

Run from anywhere, with pytest installed:

    python tests/mutants/run.py              # every mutant
    python tests/mutants/run.py NAME ...     # the named mutants only

It prints one line per mutant (its name, killed or SURVIVED, the failing
tests of the selection and the seconds it took) and exits 1 if any mutant
survives or is stale.  pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/bookhopf
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


AXIOMS, HOPF = "tests/test_axioms.py::", "tests/test_hopf.py::"
CLI, CYCLOTOMIC = "tests/test_cli.py::", "tests/test_cyclotomic.py::"
RATIONALS = CYCLOTOMIC + "test_equality_and_hash_with_rationals"
INT_PATHS = CYCLOTOMIC + "test_int_paths_agree_with_the_fraction_route"  # property tests, one per p

MUTANTS = [
    # the one cap: each sweep yields its violations and _Recorder.finish takes the first MAX of them with islice
    Mutant("cap plus one", "axioms.py",
           "islice(found, MAX_VIOLATIONS_RENDERED)", "islice(found, MAX_VIOLATIONS_RENDERED + 1)",
           (AXIOMS + "test_bialgebra_renders_nothing_past_the_cap",
            AXIOMS + "test_associativity_renders_nothing_past_the_cap")),
    Mutant("no cap", "axioms.py",
           "islice(found, MAX_VIOLATIONS_RENDERED)", "found",
           (AXIOMS + "test_bialgebra_renders_nothing_past_the_cap",
            AXIOMS + "test_negative_control_matcher_accepts_the_capped_p7_report")),
    Mutant("every sweep drawn whole", "axioms.py",
           "() if proved() else sweep()", "() if proved() else list(sweep())",
           (AXIOMS + "test_bialgebra_renders_nothing_past_the_cap",
            AXIOMS + "test_run_all_computes_each_verdict_once[7-0]")),
    Mutant("associativity row sweep drawn whole", "axioms.py",
           "lambda: proofs.associative, sweep)", "lambda: proofs.associative, lambda: iter(list(sweep())))",
           (AXIOMS + "test_associativity_renders_nothing_past_the_cap",)),
    Mutant("bialgebra sweep drawn whole", "lanes.py",
           "    return sweep()\n", "    return iter(list(sweep()))\n",
           (AXIOMS + "test_bialgebra_renders_nothing_past_the_cap",
            AXIOMS + "test_run_all_computes_each_verdict_once[7-0]")),
    # the proofs by generators
    Mutant("per-monomial proof ignores its law", "axioms.py",
           "return premised and next(law((0, *algebra.generators)), None) is None", "return premised",
           (AXIOMS + "test_a_failed_per_monomial_proof_stops_at_its_first_violation",
            AXIOMS + "test_a_doctored_table_gets_each_per_monomial_law_swept_or_is_healthy[twist]")),
    Mutant("gamma read off x y", "axioms.py",
           "table[y * n + x]", "table[x * n + y]",
           (AXIOMS + "test_a_proved_default_run_makes_no_draw",
            AXIOMS + "test_associativity_proof_holds_on_the_live_tables[5]")),
    # the run memo of _Lanes, which broken_laws fills for g, x and y and the sweep reads every run from
    Mutant("a run made again past the memo", "lanes.py",
           "if (out := self.runs.get((i1, bc2))) is None:", "if (out := None) is None:",
           (AXIOMS + "test_run_all_computes_each_verdict_once[5-0]",
            AXIOMS + "test_run_all_makes_each_lane_run_once_and_keeps_no_accumulator[5]")),
    Mutant("Delta(m1) built again for every run", "lanes.py",
           "if self.last[0] != i1:", "if True:",
           (AXIOMS + "test_exhaustive_bialgebra_runs_every_lane_group_once",
            AXIOMS + "test_run_all_makes_each_lane_run_once_and_keeps_no_accumulator[5]")),
    Mutant("a vouched run recorded with a bad lane", "lanes.py",
           "memo[first, bc2] = None, 0, 0", "memo[first, bc2] = None, 1, 0",
           (AXIOMS + "test_run_all_computes_each_verdict_once[5-0]",
            AXIOMS + "test_negative_control_fails_exactly_as_predicted[5]")),
    Mutant("an orbit's accumulators kept in the memo", "lanes.py",
           "((first, bc2), (None, bad, e12))", "((first, bc2), (acc, bad, e12))",
           (AXIOMS + "test_run_all_makes_each_lane_run_once_and_keeps_no_accumulator[3]",
            AXIOMS + "test_run_all_makes_each_lane_run_once_and_keeps_no_accumulator[5]")),
    # the sweep's vouching lemma and the step premises of the per-monomial proofs, both read off _Proofs.broken
    Mutant("vouch without law(t, basis[j])", "lanes.py",
           "if (j, 0) not in memo or j in delta_broken:", "if (j, 0) not in memo:",
           (AXIOMS + "test_on_doctored_tables_the_vouched_sweep_and_step_premises_equal_the_full_routes[orbit digit]",
            AXIOMS + "test_on_doctored_tables_the_vouched_sweep_and_step_premises_equal_the_full_routes[orbit digit at 5]")),
    Mutant("vouch without the run of basis[j]", "lanes.py",
           "if not memo[j, bc2][1]\n                    and all(c < 0", "if all(c < 0",
           (AXIOMS + "test_at_s0_the_vouched_sweep_and_step_premises_equal_the_full_routes[5]",
            AXIOMS + "test_negative_control_fails_exactly_as_predicted[5]")),
    Mutant("vouch without law(t, basis[k])", "lanes.py",
           "\n                    and all(c < 0 or c // p not in delta_broken"
           " for c in proofs.rows[j][bc2 * p:bc2 * p + p])]", "]",
           (AXIOMS + "test_at_s0_the_vouched_sweep_and_step_premises_equal_the_full_routes[5]",
            AXIOMS + "test_negative_control_fails_exactly_as_predicted[5]")),
    Mutant("vouch for 1 without the unit law", "lanes.py",
           "return range(p * p) if proofs.unit else ()", "return range(p * p)",
           (AXIOMS + "test_each_base_case_is_a_premise[Delta(1) = 2]",)),
    Mutant("steps without its leg pairs", "axioms.py",
           "for side in (0, 1):", "for side in ():",
           (AXIOMS + "test_the_leg_premises_refuse_a_sign_twist",
            AXIOMS + "test_on_doctored_tables_the_vouched_sweep_and_step_premises_equal_the_full_routes[sign]")),
    # every lane run rests on *associative*: where it fails the per-pair route runs
    Mutant("the sweep chosen whatever associative says", "lanes.py",
           "sweep = lane_sweep if proofs.associative else pairs", "sweep = lane_sweep",
           (AXIOMS + "test_a_table_that_breaks_associative_gets_the_live_table_reference_with_no_lane_run[q-exponent]",
            AXIOMS + "test_a_table_that_breaks_associative_gets_the_live_table_reference_with_no_lane_run[U]")),
    # the presentation lemma: _Proofs.presented, unit, the relation images and the step laws; _Proofs.orbit holds
    # P1 and P2, which give the g-steps and the sweep's one run per g-orbit
    Mutant("y^p = 0 dropped from relations()", "hopf.py",
           '            (f"y^{p} = 0", "y" * p, 0, None),\n', "",
           (AXIOMS + "test_the_presentation_premise_needs_one_relation_per_pair_and_per_power[drop y^3 = 0]",
            AXIOMS + "test_relation_inventory")),
    Mutant("the Delta step compare skipped", "axioms.py",
           "table.differs(self.product(t, j, e), _summed(table.delta[i], n))", "False",
           (AXIOMS + "test_the_presentation_premises_equal_the_law_table_and_the_4n_compare[orbit digit]",
            AXIOMS + "test_the_presentation_premises_equal_the_law_table_and_the_4n_compare[orbit digit at 7]")),
    Mutant("the eps step compare skipped", "axioms.py",
           "table.differs({0: eps[t] * eps[j]}, {0: eps[i] << -e % p * table.width})", "False",
           (AXIOMS + "test_the_presentation_premises_equal_the_law_table_and_the_4n_compare[eps(g) = q]",
            AXIOMS + "test_a_doctored_table_falls_back_or_is_healthy[eps(g) = q]")),
    Mutant("unit skipped", "axioms.py",
           "if not (self.presented and self.unit and", "if not (self.presented and",
           (AXIOMS + "test_each_base_case_is_a_premise[eps = 0]",)),
    Mutant("the (1, -s, s) test dropped", "axioms.py",
           "self.associative and self.exponents == (1, -s % p, s % p) and", "self.associative and",
           (AXIOMS + "test_the_presentation_premise_reads_the_live_exponents",)),
    Mutant("P2 dropped from the shared g-orbit premise", "axioms.py",
           " and not any(\n            (wt[u] + wt[v] - wt[i]) % p for i in range(0, n, p) for u, v, _ in delta[i])", "",
           (AXIOMS + "test_one_run_per_g_orbit_equals_the_full_sweep_on_doctored_tables[orbit extra term]",)),
    Mutant("the S step compare skipped", "axioms.py",
           "all(S[i] == step(t, j, e) for i, (t, j, e) in self.generation.items())", "True",
           (AXIOMS + "test_a_doctored_s_row_off_the_generators_fails_anti_multiplicativity",
            AXIOMS + "test_the_presentation_premises_equal_the_law_table_and_the_4n_compare[S q x^2 y g]")),
    # the g-moves of the bialgebra lanes
    Mutant("group moved by g^a2, not g^-a2", "lanes.py",
           "back = self.moved[-a2]", "back = self.moved[a2]",
           (AXIOMS + "test_bialgebra_lane_kernel_flags_a_doctored_row[3-digit]",
            AXIOMS + "test_one_run_per_g_orbit_equals_the_full_sweep_on_the_live_tables[3-1]")),
    Mutant("expected side never moved", "lanes.py",
           "move, low, high = self.moved[a],", "move, low, high = self.moved[0],",
           (AXIOMS + "test_one_run_per_g_orbit_equals_the_full_sweep_on_the_live_tables[3-1]",
            AXIOMS + "test_exhaustive_bialgebra_runs_every_lane_group_once")),
    # the rendering of the bialgebra sweep, one memoized text per (lane, g-move, q-exponent)
    Mutant("render without a1 in the g-move", "lanes.py",
           "key := (lane[0], (i2 + a1) % p, e)", "key := (lane[0], i2 % p, e)",
           (AXIOMS + "test_each_delta_violation_renders_as_m1s_own_group_run[p5]",
            AXIOMS + "test_bialgebra_renders_nothing_past_the_cap")),
    Mutant("render without the orbit's q-weight", "lanes.py",
           "e = (e12 + a1 * wt[bc2 * p]) % p", "e = e12 % p",
           (AXIOMS + "test_each_delta_violation_renders_as_m1s_own_group_run[p5]",
            AXIOMS + "test_each_delta_violation_renders_as_m1s_own_group_run[p7-s3-orbit-digit]")),
    Mutant("text memo key without its q-exponent", "lanes.py",
           "key := (lane[0], (i2 + a1) % p, e)", "key := (lane[0], (i2 + a1) % p)",
           (AXIOMS + "test_each_delta_violation_renders_as_m1s_own_group_run[p5]",
            AXIOMS + "test_each_delta_violation_renders_as_m1s_own_group_run[p7-s3-orbit-digit]")),
    Mutant("text memo key without its g-move", "lanes.py",
           "texts.get(key := (lane[0], (i2 + a1) % p, e))) is None:\n"
           "                                move = moved[key[1]]",
           "texts.get(key := (lane[0], e))) is None:\n"
           "                                move = moved[(i2 + a1) % p]",
           (AXIOMS + "test_each_delta_violation_renders_as_m1s_own_group_run[p5]",
            AXIOMS + "test_each_delta_violation_renders_as_m1s_own_group_run[p7-s3-orbit-digit]")),
    # the structure table and the constructor
    Mutant("fill drops q^(-s k (c-l))", "hopf.py",
           "e = s * k * (c - l) % p", "e = 0",
           (HOPF + "test_structure_table_equals_the_row_at_a_time_reference[3-1]",
            AXIOMS + "test_full_suite_passes_p3[1]")),
    Mutant("a bool s accepted", "hopf.py",
           "if isinstance(s, bool) or not isinstance(s, int)", "if not isinstance(s, int)",
           (HOPF + "test_construct_rejects_a_bool",)),
    # the int paths of Cyclotomic, which import no fractions, and the console entry's collector and frozen heap
    Mutant("int == without its test of the irrational part", "cyclotomic.py",
           "return self.den == 1 and self.num[0] == other and not any(self.num[1:])",
           "return self.den == 1 and self.num[0] == other",
           (RATIONALS, INT_PATHS)),
    Mutant("int == without its test of the denominator", "cyclotomic.py",
           "return self.den == 1 and self.num[0] == other and not any(self.num[1:])",
           "return self.num[0] == other and not any(self.num[1:])",
           (RATIONALS, INT_PATHS)),
    Mutant("from_rational tags every int as q^0", "cyclotomic.py",
           "power = 0 if f == 1 else None", "power = 0 if f == 1 or type(f) is int else None",
           (RATIONALS, *(f"{CYCLOTOMIC}test_int_paths_agree_with_the_fraction_route[{p}]" for p in (3, 5, 7)))),
    Mutant("a Fraction operand not coerced", "cyclotomic.py",
           "if isinstance(other, int) or _is_fraction(other):", "if isinstance(other, int):",
           (CYCLOTOMIC + "test_arithmetic_coerces_ints_and_fractions", INT_PATHS)),
    Mutant("the console entry leaves the collector on", "cli.py",
           "    gc.disable()\n", "",
           (CLI + "test_the_console_entry_runs_with_the_collector_off",)),
    Mutant("the console entry skips the freeze", "cli.py",
           "    gc.freeze()\n", "",
           (CLI + "test_the_console_entry_runs_with_the_collector_off",)),
]

EQUIVALENT = [
    (Mutant("associative premise without generation()", "axioms.py",
            "None if self.generation is None or min(codes) < 0 else", "None if min(codes) < 0 else", ()),
     "a table equal to bilinear_rows at any (alpha, beta, gamma) satisfies premises U and F, so generation() holds "
     "wherever the row compare does"),
    (Mutant("bialgebra sweep without its skip of a clean run", "lanes.py",
            "                    if eps_ok and not bad:\n                        continue\n", "", ()),
     "a run with no bad lane reaches no Delta violation, and where the eps rows are equal every pair of entries is "
     "one object, as _Counit keeps one object per value, so the loop it skips yields nothing"),
    (Mutant("a Fraction coefficient built again", "cyclotomic.py",
            "c if isinstance(c, int) or _is_fraction(c) else _fraction(c)", "c if isinstance(c, int) else _fraction(c)",
            ()),
     "Fraction(f) of a Fraction f is an equal Fraction, and a Fraction coefficient means fractions is loaded already"),
]


def apply(tree, mutant):
    """Apply the mutant's replacement in ``tree``/bookhopf; False if its old text is not found exactly once."""
    path = tree / "bookhopf" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def stale(mutant):
    return (ROOT / "src" / "bookhopf" / mutant.file).read_text().count(mutant.old) != 1


def run(mutant, scratch):
    """(failed, total) tests of the mutant's selection against a mutated copy of src/, or None if it is stale."""
    tree = scratch / "src"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT / "src", tree, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if not apply(tree, mutant):
        return None
    report = scratch / "report.xml"
    path = os.pathsep.join(map(str, (tree, ROOT / "tests", Path(__file__).parent)))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no_shrink",
                    f"--junit-xml={report}", *mutant.tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    if not report.exists():
        return len(mutant.tests), len(mutant.tests)  # pytest could not even start: every test failed
    suite = ET.parse(report).getroot().find("testsuite")
    failed = int(suite.get("failures")) + int(suite.get("errors"))
    return failed, int(suite.get("tests"))


def imports_the_copy(scratch):
    """The selection runs against the mutated copy, not an installed bookhopf."""
    tree = scratch / "src"
    shutil.copytree(ROOT / "src", tree, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    env = {**os.environ, "PYTHONPATH": str(tree)}
    out = subprocess.run([sys.executable, "-c", "import bookhopf; print(bookhopf.__file__)"], cwd=ROOT, env=env,
                         capture_output=True, text=True).stdout
    shutil.rmtree(tree)
    return out.startswith(str(tree))


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS} - {m.name for m, _ in EQUIVALENT}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        if not imports_the_copy(scratch):
            sys.exit("the mutated copy of src/ is not what the tests import")
        for mutant in chosen:
            t0 = time.perf_counter()
            outcome = run(mutant, scratch)
            seconds = time.perf_counter() - t0
            if outcome is None:
                verdict = "STALE: old text not found exactly once"
            else:
                failed, total = outcome
                verdict = f"killed by {failed} of {total}" if failed else f"SURVIVED all {total}"
            print(f"{mutant.name}: {verdict} ({seconds:.1f} s)", flush=True)
            if outcome is None or not outcome[0]:
                bad.append(mutant.name)
    for mutant, reason in EQUIVALENT:
        if not names or mutant.name in names:
            print(f"{mutant.name}: equivalent, {'STALE' if stale(mutant) else 'text found'}; {reason}")
            if stale(mutant):
                bad.append(mutant.name)
    if bad:
        sys.exit(f"mutation gate failed: {bad}")


if __name__ == "__main__":
    main(sys.argv[1:])
