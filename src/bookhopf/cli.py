"""Command-line front end: verify Hopf axioms, classify modular pairs.

Three subcommands share a small option surface:

    bookhopf verify   --p P (--s S | --all-s) [--permissive] [--seed N]
                      [--sample-size N] [--exhaustive] [--format text|json]
    bookhopf classify --p P (--s S | --all-s) [--permissive] [--format text|json]
    bookhopf table    --p P [--format text|json]

P is an odd prime of at most MAX_P = 13 (the library itself takes any odd
prime); a larger p is a usage error, as the checks grow like p^6.  The bound
limits the input size, not the run time.  Associativity and the bialgebra
law are proved on the generators where their premises hold (see the
``axioms`` module), so a default verify draws nothing: per s it takes
about 0.2 s at p = 7, 1 s at p = 11 and 2.6 s at p = 13, about half of it
in the associativity proof (21 s at p = 11 and 2 minutes at p = 13
while the bialgebra check swept its draws).  Where a premise fails, as at
s = 0, the bialgebra check runs one lane group of p pairs per g-orbit of
m1 that its draws hit, and renders the violations of the whole orbit from
that run, until it has rendered MAX_VIOLATIONS_RENDERED = 10 000 of them:
past that nothing can change its report.  At s = 0 that is 726 of the
14 641 groups of an exhaustive run at p = 11, and 968 with the default
10^6 draws, which hit every group.
Exit codes: 0 = all checks pass / classification consistent, 1 = an axiom
violation or a brute-force/closed-form disagreement, 2 = usage error.  The
text and JSON renderings of a run carry the same data: each subcommand
returns its payload, and ``main`` alone prints it, as JSON or through the
subcommand's text renderer.
"""

import argparse
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
            # unset (None), --seed and --sample-size take run_all's defaults, DEFAULT_SEED and DEFAULT_SAMPLE_SIZE
            sp.add_argument("--seed", type=int, help="sampling seed")
            sp.add_argument(
                "--sample-size", type=int,
                help="draws per sampled check, at least 1 (domains at most this size run exhaustively)",
            )
            sp.add_argument(
                "--exhaustive", action="store_true", help="force exhaustive checks regardless of domain size"
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
    from .axioms import negative_control_matches, run_all

    options = {key: value for key in ("seed", "sample_size") if (value := getattr(args, key)) is not None}
    report = run_all(_algebra(args, s), exhaustive=args.exhaustive, **options)
    run = {"s": s, "permissive": args.permissive, "axioms": report.to_payload()}
    if s == 0:
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


def _json(value, out, pad="\n"):
    """Append the text of json.dumps(value, indent=2) to the list ``out``, byte for byte.

    ``json.dumps`` with ``indent`` set runs its pure-Python encoder; here
    every string goes through the C string encoder, which builds the text of
    a payload of 3 751 violations in about half the time.
    """
    if (scalar := _SCALARS.get(type(value))) is not None:  # as json.dumps writes them, without its call
        out.append(scalar(value))
        return
    if not value or not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))  # a string, a float, or an empty list or dict
        return
    keyed, inner = isinstance(value, dict), pad + "  "
    sep = ("{" if keyed else "[") + inner
    for item in value.items() if keyed else value:
        if keyed:
            key, item = item
            out.append(sep + _str(key) + ": ")
        else:
            out.append(sep)
        if type(item) is str:
            out.append(_str(item))
        else:
            _json(item, out, inner)
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
