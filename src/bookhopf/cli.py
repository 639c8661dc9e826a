"""Command-line front end: verify Hopf axioms, classify modular pairs.

Three subcommands share a small option surface:

    bookhopf verify   --p P (--s S | --all-s) [--permissive] [--seed N]
                      [--sample-size N] [--exhaustive] [--format text|json]
    bookhopf classify --p P (--s S | --all-s) [--permissive] [--format text|json]
    bookhopf table    --p P [--format text|json]

P is an odd prime of at most MAX_P = 13 (the library itself takes any odd
prime); a larger p is a usage error, as the checks grow like p^6.  The bound
limits the input size, not the run time.  Every check is proved where its
premises hold (see the ``axioms`` module) and swept whole where they fail,
and no check draws: per s a verify process takes about 0.1 s at p = 7,
most of it start-up, 0.2-0.3 s at p = 11 and 0.3-0.4 s at p = 13, most of it
there in the fills of the product and structure tables.  The console entry
runs with the cyclic garbage collector off and freezes the heap at exit, so
that shutdown does not walk it (see ``entry``).
``--sample-size`` and ``--exhaustive`` set only the label that a proved
associativity run reports, and ``--seed`` reaches nothing; associativity
is proved on every H(p, s) the CLI builds.  Where
the bialgebra proof fails, as at s = 0, its check takes the p^2 lane groups
of one m1 per g-orbit off one memo of lane runs, each made at most once or
vouched for, and yields the violations of the whole orbit from those runs;
coassociativity, the counit law and the antipode law stay proved there on
their step premise.  Every report takes the first
MAX_VIOLATIONS_RENDERED = 10 000 violations of its sweep with one
``islice``, and the sweep, drawn from no more, stops there: past that
nothing can change the report.  At s = 0 and p = 11 that is 462 lane
kernel runs in all, 363 of them those of g, x and y, of the 14 641 groups.
Exit codes: 0 = all checks pass / classification consistent, 1 = an axiom
violation or a brute-force/closed-form disagreement, 2 = usage error.  The
text and JSON renderings of a run carry the same data: each subcommand
returns its payload, and ``main`` alone prints it, as JSON or through the
subcommand's text renderer.
"""

import argparse
import gc
import json
import sys
from json.encoder import encode_basestring_ascii as _str

from .cyclotomic import is_odd_prime
from .hopf import BookAlgebra

# ``axioms`` is imported by the verify handler and ``mpi`` by the classify and table handlers, so that a
# process compiles and runs only the modules of its command

MAX_P = 13


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bookhopf", description="Exact verifier and modular-pair classifier for the Hopf algebras H(p, s)."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_s, with_sampling):
        sp.add_argument("--p", type=int, required=True, help=f"odd prime p, at most {MAX_P}")
        if with_s:
            group = sp.add_mutually_exclusive_group(required=True)
            group.add_argument("--s", type=int, help="twist parameter s, 0 <= s < p")
            group.add_argument("--all-s", action="store_true", help="run every s in 1..p-1")
            sp.add_argument(
                "--permissive", action="store_true", help="allow s = 0 (H(p, 0) is kept as a negative control)"
            )
        if with_sampling:
            # unset (None), --sample-size takes run_all's default, DEFAULT_SAMPLE_SIZE
            sp.add_argument("--seed", type=int, help="ignored: no check draws")
            sp.add_argument(
                "--sample-size", type=int,
                help="the sample size, at least 1, that a proved associativity run reports past 2 000 000 triples",
            )
            sp.add_argument(
                "--exhaustive", action="store_true", help="report a proved associativity run as exhaustive"
            )
        sp.add_argument("--format", choices=("text", "json"), default="text", help="output format")

    add_common(sub.add_parser("verify", help="run the Hopf-axiom suite"), True, True)
    add_common(sub.add_parser("classify", help="classify modular pairs in involution"), True, False)
    add_common(sub.add_parser("table", help="summary of the classification across s"), False, False)
    return parser


def _check_p(p):
    if not is_odd_prime(p):
        raise ValueError(f"p must be prime and odd; got {p}")
    if p > MAX_P:
        raise ValueError(f"p must be at most {MAX_P}; got {p} (the checks grow like p^6)")


def _s_values(args):
    if args.all_s:
        return list(range(1, args.p))
    return [args.s]


def _algebra(args, s):
    if s == 0 and not args.permissive:  # the library's own refusal names its keyword, not the option
        raise ValueError(
            f"s = 0 is rejected: H({args.p}, 0) is not a bialgebra in characteristic zero "
            f"(Delta(y)^{args.p} != 0 although y^{args.p} = 0); pass --permissive to build it anyway"
        )
    return BookAlgebra(args.p, s, permissive=args.permissive)


# -- verify ---------------------------------------------------------------------


def _verify_one(args, s):
    from .axioms import run_all

    options = {} if args.sample_size is None else {"sample_size": args.sample_size}
    report = run_all(_algebra(args, s), exhaustive=args.exhaustive, **options)
    run = {"s": s, "permissive": args.permissive, "axioms": report.to_payload()}
    if s == 0:
        from .lanes import negative_control_matches  # the failure path, which the s = 0 control has loaded

        run["negative_control_matches"] = negative_control_matches(report, args.p)
    run["passed"] = run["negative_control_matches"] if s == 0 else report.passed
    return run


def _render_verify_text(payload, out):
    for run in payload["runs"]:
        print(f"verify H({payload['p']}, {run['s']})", file=out)
        for r in run["axioms"]:
            print(f"  {r['axiom']:<16} {r['status']:<4} checked={r['checked']}"
                  f" mode={r['mode']} elapsed={r['elapsed_ms']}ms", file=out)
            for v in r["violations"]:
                print(f"    violated at {v['at']}: lhs={v['lhs']} rhs={v['rhs']}", file=out)
        if "negative_control_matches" in run:
            verdict = "yes" if run["negative_control_matches"] else "NO"
            print(f"  negative control matches the predicted failure: {verdict}", file=out)
        print(f"  passed: {'yes' if run['passed'] else 'NO'}", file=out)
    print(f"overall: {'pass' if payload['passed'] else 'FAIL'}", file=out)


def cmd_verify(args):
    _check_p(args.p)
    runs = [_verify_one(args, s) for s in _s_values(args)]
    passed = all(run["passed"] for run in runs)
    payload = {"command": "verify", "p": args.p, "runs": runs, "passed": passed}
    return payload, _render_verify_text, 0 if passed else 1


# -- classify ---------------------------------------------------------------------


def _render_classify_text(payload, out):
    for run in payload["runs"]:
        p, s = payload["p"], run["s"]
        print(f"classify H({p}, {s})", file=out)
        for row in run["pairs"]:
            flags = []
            if row["implements_s2"]:
                flags.append("implements S^2")
            if row["stable"]:
                flags.append("stable")
            tag = ", ".join(flags) if flags else "-"
            print(f"  (i={row['i']}, j={row['j']}) beta(l)={row['beta_l']} {tag}", file=out)
        mpi = ", ".join(f"(i={d['i']}, j={d['j']})" for d in run["mpi"]) or "none"
        imp = ", ".join(f"(i={d['i']}, j={d['j']})" for d in run["implements"]) or "none"
        print(f"  MPI: {mpi}", file=out)
        print(f"  implements S^2: {imp}", file=out)


def cmd_classify(args):
    from .mpi import classify

    _check_p(args.p)
    runs = [classify(_algebra(args, s)).to_dict() for s in _s_values(args)]
    return {"command": "classify", "p": args.p, "runs": runs}, _render_classify_text, 0


# -- table ---------------------------------------------------------------------


def _render_table_text(payload, out):
    print(f"modular pairs in involution for H({payload['p']}, s)", file=out)
    for row in payload["rows"]:
        parts = []
        for d in row["implements"]:
            key = f"(i={d['i']}, j={d['j']})"
            parts.append(f"{key} beta(l)={row['beta_l'][key]}")
        flag = "yes" if row["has_mpi"] else "no "
        print(f"  s={row['s']}: MPI {flag} implements {', '.join(parts)}", file=out)


def cmd_table(args):
    from .mpi import classify

    _check_p(args.p)
    rows = []
    for s in range(1, args.p):
        run = classify(BookAlgebra(args.p, s)).to_dict()
        rows.append({
            "s": s,
            "has_mpi": bool(run["mpi"]),
            "mpi": run["mpi"],
            "implements": run["implements"],
            "beta_l": {f"(i={r['i']}, j={r['j']})": r["beta_l"] for r in run["pairs"] if r["implements_s2"]},
        })
    return {"command": "table", "p": args.p, "rows": rows}, _render_table_text, 0


_SCALARS = {int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__, type(None): lambda v: "null"}


class _Encoded(dict):
    """Each string's JSON text, encoded by the C string encoder on its first read."""

    def __missing__(self, text):
        encoded = self[text] = _str(text)
        return encoded


def _json(value, out, pad="\n", encoded=None):
    """Append the text of json.dumps(value, indent=2) to the list ``out``, byte for byte.

    ``json.dumps`` with ``indent`` set runs its pure-Python encoder; here
    every string goes through the C string encoder.  The strings of a
    payload repeat: the 3 751 violations of ``verify --p 5 --s 0
    --permissive`` carry 420 distinct Delta(m1) Delta(m2) texts, about
    1.4 MB of them, under the same three keys.  So each distinct string,
    key or value, is encoded once per top-level call, into the memo
    ``encoded`` that the call makes and passes down, and its text is
    appended again from there.  ``main`` makes one top-level call, so
    nothing is carried from one ``main`` call to the next.
    """
    if (scalar := _SCALARS.get(type(value))) is not None:  # as json.dumps writes them, without its call
        out.append(scalar(value))
        return
    if not value or not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))  # a string, a float, or an empty list or dict
        return
    encoded = _Encoded() if encoded is None else encoded
    inner = pad + "  "
    keyed = isinstance(value, dict)
    out.append("{" if keyed else "[")
    sep = inner
    for item in value.items() if keyed else value:
        out.append(sep)
        if keyed:
            key, item = item
            out.append(encoded[key])
            out.append(": ")
        if type(item) is str:
            out.append(encoded[item])
        else:
            _json(item, out, inner, encoded)
        sep = "," + inner
    out.append(pad + ("}" if keyed else "]"))


def _consistency_error():
    """``mpi.ConsistencyError``, or no exception class at all while ``mpi``, which alone raises it, is not loaded."""
    mpi = sys.modules.get(f"{__package__}.mpi")
    return () if mpi is None else mpi.ConsistencyError


def main(argv=None, out=None):
    out = sys.stdout if out is None else out
    args = _build_parser().parse_args(argv)
    handlers = {"verify": cmd_verify, "classify": cmd_classify, "table": cmd_table}
    try:
        payload, render, code = handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _consistency_error() as exc:  # evaluated only on an error, so verify never imports mpi
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        chunks = []
        _json(payload, chunks)
        chunks.append("\n")
        for k in range(0, len(chunks), 4096):  # a block at a time: few writes, and no copy of megabytes of text
            out.write("".join(chunks[k:k + 4096]))
    else:
        render(payload, out)
    return code


def entry():
    """The ``bookhopf`` console script and ``python -m bookhopf.cli``: ``main`` on the process's arguments, its return
    value the exit code, with the cyclic garbage collector off for the rest of the process and the heap frozen at
    exit.

    Every table, row, lane group and memo of a run is acyclic and freed by
    reference counting, so a collection finds nothing of them, while the
    passes that the allocations trigger walk them all: a one-s command at
    p <= 7 makes 12-17 gen-0 passes and one gen-1 pass (1-1.5 ms), ``verify
    --p 13 --s 3`` 201, 18 and one gen-2 pass (22 ms), and ``table --p 13``
    2 111, 192 and 16 (0.28 s).  A whole ``main`` call leaves only the cycles
    of its argparse parser in the heap (168 objects on Python 3.11), the same
    for every command.  The interpreter's shutdown collections run with the
    collector off too, and walk the cyclic heap of every loaded module;
    ``gc.freeze()`` after ``main`` returns moves that heap out of their
    reach, 4-6 ms per process.  ``main`` leaves the collector as it finds it
    and never freezes, as tests and library callers run it in their own
    processes.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
