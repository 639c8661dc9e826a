"""Correctness oracle for the JSON that ``bookhopf`` prints, built without bookhopf.

Every expected verdict comes from the closed forms of the source paper and
every expected work count from the documented exhaustive/sampled rule, so a
defect in the library cannot make its own output look right:

- ``classify``: H(p, s) has exactly one pair implementing S^2, at
  i = (1 + s) / 2 (mod p), j = i - 1; it is an MPI iff s is 1 or p - 1;
  beta(g^i) evaluates to q^(i j) for every pair.
- ``verify`` with s != 0: exit 0, all six axioms pass, and each ``checked``
  equals the planned domain or sample size.
- the negative control ``verify --s 0 --permissive``: exit 0, the relation
  violations are exactly ``Delta: y^p = 0``, the bialgebra violations are
  exactly the pairs whose y-exponents overflow while the x-exponents do not,
  and the other four axioms pass.

A ``pass`` with ``checked == 0`` is a vacuous pass and is rejected.
"""

import json
import sys
from typing import NamedTuple

AXIOMS = ("associativity", "coassociativity", "counit", "bialgebra", "antipode", "relations")
PAIR_EXHAUSTIVE_LIMIT = 25_000
TRIPLE_EXHAUSTIVE_LIMIT = 2_000_000
DEFAULT_SAMPLE_SIZE = 1_000_000
RELATION_CHECKS = 12  # six defining relations, each under Delta and under S


class Op(NamedTuple):
    """One ``bookhopf`` invocation; ``seed``/``sample_size`` None means the CLI default."""

    command: str
    p: int
    s: int
    seed: int | None = None
    sample_size: int | None = None
    permissive: bool = False

    def argv(self):
        args = [self.command, "--p", str(self.p), "--s", str(self.s)]
        if self.permissive:
            args.append("--permissive")
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        if self.sample_size is not None:
            args += ["--sample-size", str(self.sample_size)]
        return args + ["--format", "json"]


def render_root(p, k):
    """q^k rendered as the CLI prints it, in the power basis 1, q, ..., q^(p-2)."""
    k %= p
    if k == 0:
        return "1"
    if k < p - 1:
        return "q" if k == 1 else f"q^{k}"
    return "-1 - q" + "".join(f" - q^{e}" for e in range(2, p - 1))


def render_monomial(b, c, a):
    parts = [
        name if e == 1 else f"{name}^{e}"
        for name, e in (("x", b), ("y", c), ("g", a))
        if e
    ]
    return " ".join(parts) if parts else "1"


def expected_classification(p, s):
    """(implementing pairs, MPI pairs) from the closed form."""
    i = (1 + s) * pow(2, -1, p) % p
    pair = (i, (i - 1) % p)
    return [pair], ([pair] if s % p in (1, p - 1) else [])


def planned_work(p, sample_size):
    """Expected (checked, mode) per axiom under the exhaustive/sampled rule."""
    n = p ** 3

    def plan(domain, limit):
        if domain <= limit or sample_size >= domain:
            return domain, "exhaustive"
        return sample_size, f"sampled(n={sample_size})"

    return {
        "associativity": plan(n ** 3, TRIPLE_EXHAUSTIVE_LIMIT),
        "coassociativity": (n, "exhaustive"),
        "counit": (n, "exhaustive"),
        "bialgebra": plan(n * n, PAIR_EXHAUSTIVE_LIMIT),
        "antipode": (n, "exhaustive"),
        "relations": (RELATION_CHECKS, "exhaustive"),
    }


def negative_control_bialgebra_sites(p):
    """Where Delta fails to be multiplicative on H(p, 0): c1 + c2 >= p, b1 + b2 < p."""
    r = range(p)
    return {
        f"Delta: m1={render_monomial(b1, c1, a1)}, m2={render_monomial(b2, c2, a2)}"
        for b1 in r for c1 in r for a1 in r
        for b2 in r for c2 in r for a2 in r
        if c1 + c2 >= p and b1 + b2 < p
    }


def check(op, exit_code, stdout):
    """Problems found in one operation's exit code and output; empty means correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        payload = json.loads(stdout)
        if payload["command"] != op.command or payload["p"] != op.p or len(payload["runs"]) != 1:
            return ["payload does not describe the operation"]
        run = payload["runs"][0]
        if run["s"] != op.s:
            return [f"payload is for s={run['s']}, not s={op.s}"]
        if op.command == "classify":
            return check_classify_run(op.p, op.s, run)
        problems = check_verify_run(op, run)
        if payload["passed"] is not True:
            problems.append("overall verdict is not passed")
        return problems
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed payload: {exc!r}"]


def check_classify_run(p, s, run):
    problems = []
    implements, mpi = expected_classification(p, s)
    grid = [(i, j) for i in range(p) for j in range(p)]
    if [(r["i"], r["j"]) for r in run["pairs"]] != grid:
        return ["pairs are not the p^2 grid in (i, j) order"]
    for r in run["pairs"]:
        i, j = r["i"], r["j"]
        if r["implements_s2"] != ((i, j) in implements):
            problems.append(f"implements_s2 wrong at (i={i}, j={j})")
        if r["stable"] != (i * j % p == 0):
            problems.append(f"stable wrong at (i={i}, j={j})")
        if r["beta_l"] != render_root(p, i * j):
            problems.append(f"beta_l wrong at (i={i}, j={j}): {r['beta_l']!r}")
    if [(d["i"], d["j"]) for d in run["implements"]] != implements:
        problems.append(f"implementing set {run['implements']} != {implements}")
    if [(d["i"], d["j"]) for d in run["mpi"]] != mpi:
        problems.append(f"MPI set {run['mpi']} != {mpi}")
    return problems


def check_verify_run(op, run):
    """Check one verify run (the ``runs[0]`` object) against the plan and the verdicts."""
    problems = []
    p = op.p
    results = run["axioms"]
    if [r["axiom"] for r in results] != list(AXIOMS):
        return [f"axioms {[r['axiom'] for r in results]} != {list(AXIOMS)}"]
    plan = planned_work(p, DEFAULT_SAMPLE_SIZE if op.sample_size is None else op.sample_size)
    by_name = {r["axiom"]: r for r in results}
    for r in results:
        name = r["axiom"]
        if r["status"] == "pass" and r["checked"] == 0:
            problems.append(f"{name}: vacuous pass (checked=0)")
        if (r["checked"], r["mode"]) != plan[name]:
            problems.append(f"{name}: checked={r['checked']} mode={r['mode']}, planned {plan[name]}")
        if (r["status"] == "pass") != (not r["violations"]):
            problems.append(f"{name}: status {r['status']} with {len(r['violations'])} violations")
    if op.s != 0:
        for r in results:
            if r["status"] != "pass":
                problems.append(f"{r['axiom']}: {r['status']} with {len(r['violations'])} violations")
        if run["passed"] is not True:
            problems.append("run not passed")
        return problems
    for name in ("associativity", "coassociativity", "counit", "antipode"):
        if by_name[name]["status"] != "pass":
            problems.append(f"negative control: {name} should pass")
    relation_sites = [v["at"] for v in by_name["relations"]["violations"]]
    if relation_sites != [f"Delta: y^{p} = 0"]:
        problems.append(f"negative control: relation violations {relation_sites}")
    sites = [v["at"] for v in by_name["bialgebra"]["violations"]]
    if len(sites) != len(set(sites)) or set(sites) != negative_control_bialgebra_sites(p):
        problems.append(f"negative control: {len(sites)} bialgebra violations at unexpected sites")
    if run.get("negative_control_matches") is not True or run["passed"] is not True:
        problems.append("negative control not reported as matching")
    return problems


def main(argv):
    """``python3 oracle.py '<Op as a JSON list>' <exit code> < stdout``: print the problems as JSON."""
    op = Op(*json.loads(argv[0]))
    print(json.dumps(check(op, int(argv[1]), sys.stdin.read())))


if __name__ == "__main__":
    main(sys.argv[1:])
