"""End-to-end checks of the command-line front end."""

import hashlib
import json
import subprocess
import sys
from io import StringIO

import pytest

from bookhopf import BookAlgebra, Monomial, Tensor2, cli


def run_cli(argv):
    out = StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run_cli(argv + ["--format", "json"])
    return code, json.loads(text)


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


# -- verify ---------------------------------------------------------------------


def test_verify_passes_on_healthy_algebra():
    code, text = run_cli(["verify", "--p", "3", "--s", "1"])
    assert code == 0
    assert "overall: pass" in text
    assert "counit" in text and "exhaustive" in text


def test_verify_all_s():
    code, payload = run_json(["verify", "--p", "3", "--all-s"])
    assert code == 0
    assert [run["s"] for run in payload["runs"]] == [1, 2]
    assert payload["passed"] is True


def test_verify_json_shape():
    code, payload = run_json(["verify", "--p", "3", "--s", "2"])
    assert code == 0
    assert payload["command"] == "verify" and payload["p"] == 3
    (run,) = payload["runs"]
    assert run["s"] == 2 and run["passed"] is True
    for record in run["axioms"]:
        assert set(record) >= {"axiom", "status", "checked", "mode", "violations"}
        assert record["status"] == "pass" and record["violations"] == []


def test_verify_rejects_composite_p(capsys):
    code, text = run_cli(["verify", "--p", "4", "--s", "1"])
    assert code == 2
    assert text == ""
    assert "p must be prime" in capsys.readouterr().err


def test_verify_s_zero_needs_permissive(capsys):
    code, _ = run_cli(["verify", "--p", "3", "--s", "0"])
    assert code == 2
    assert "permissive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_s_zero_refusal_names_the_option(command, capsys):
    code, text = run_cli([command, "--p", "3", "--s", "0"])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "pass --permissive to build it anyway" in err and "permissive=True" not in err


def test_verify_s_zero_negative_control():
    code, text = run_cli(["verify", "--p", "3", "--s", "0", "--permissive"])
    assert code == 0  # failing exactly as predicted counts as success
    assert "negative control matches the predicted failure: yes" in text
    assert "overall: pass" in text
    assert "Delta: y^3 = 0" in text


def test_verify_sampling_flags_accepted():
    code, payload = run_json(
        ["verify", "--p", "3", "--s", "1", "--seed", "7", "--sample-size", "50"]
    )
    assert code == 0
    modes = {r["mode"] for run in payload["runs"] for r in run["axioms"]}
    assert modes == {"exhaustive"}  # every H(3, s) domain is tiny


@pytest.mark.parametrize("size", ["0", "-5"])
def test_verify_rejects_sample_size_below_one(size, capsys):
    code, text = run_cli(["verify", "--p", "7", "--s", "3", "--sample-size", size])
    assert code == 2
    assert text == ""
    assert "error: sample size must be at least 1" in capsys.readouterr().err


# sha256 of the JSON output with every elapsed_ms stripped, frozen so that
# the order and rendering of checks and violations cannot drift
PINNED_VERIFY_OUTPUT = [
    (["verify", "--p", "5", "--s", "0", "--permissive"], 3751,
     "8429359e9f81167fd6578f0c29286478deb4cf63980d179c64a9dbc2bb3a0f24"),
    (["verify", "--p", "7", "--s", "3", "--seed", "7"], 0,
     "6a925a8c46caee5bb9906f8526da4566e3f4e09d78ed1a2d710c775a2d9ba053"),
    # at the cap: 10 000 Delta violations, most rendered from the first group run of their g-orbit, and y^7 = 0
    (["verify", "--p", "7", "--s", "0", "--permissive"], 10_001,
     "f7acbcf02fb3dd191cb41ef42066f960c6a60c64d8d34a5a23332117497dd7f0"),
    # the sampling options change associativity's label alone: the bialgebra result is that of the run without them
    (["verify", "--p", "7", "--s", "0", "--permissive", "--sample-size", "5000", "--seed", "3"], 10_001,
     "ded4ff74166e6224e66cd1de0c581e306fdbae34140c1b68f7e0b05bcc0c246f"),
]


@pytest.mark.parametrize(
    "argv,violations,digest", PINNED_VERIFY_OUTPUT,
    ids=["p5-s0-permissive", "p7-s3-seed7", "p7-s0-permissive", "p7-s0-permissive-sampled"],
)
def test_verify_output_is_pinned(argv, violations, digest):
    code, payload = run_json(argv)
    assert code == 0
    assert sum(len(r["violations"]) for run in payload["runs"] for r in run["axioms"]) == violations
    text = json.dumps(strip_elapsed(payload), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if "--sample-size" in argv:
        _, unsampled = run_json(argv[:argv.index("--sample-size")])
        assert bialgebra_results(payload) == bialgebra_results(unsampled)


def bialgebra_results(payload):
    return [strip_elapsed(r) for run in payload["runs"] for r in run["axioms"] if r["axiom"] == "bialgebra"]


# the same for classify at p = 7 and the brute-force table at p = 7 and 11,
# whose S^2 sweep sums the twist over (Delta (x) id) Delta on every basis monomial
PINNED_CLASSIFY_OUTPUT = [
    (["classify", "--p", "7", "--all-s"],
     "3ff55548ae58fbf776970c16e8b78ede249e15eaad3cc8837dd437c1ce62fb3f"),
    (["table", "--p", "7"],
     "671913a73a4f45f527570c132560834d2a82729d5f9bf665b7e2b3dfdc2c0f08"),
    (["table", "--p", "11"],
     "41c7f5a204f1cb32cfd9dcc1f4949952712fd159220884c01a36634b1ed823da"),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED_CLASSIFY_OUTPUT, ids=["classify-p7", "table-p7", "table-p11"]
)
def test_classify_output_is_pinned(argv, digest):
    code, payload = run_json(argv)
    assert code == 0
    text = json.dumps(strip_elapsed(payload), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "5", "--s", "0", "--permissive"], ["verify", "--p", "3", "--all-s"],
    ["classify", "--p", "5", "--all-s"], ["table", "--p", "3"],
])
def test_json_output_is_json_dumps_with_indent_2(argv):
    code, text = run_cli(argv + ["--format", "json"])
    assert code == 0 and text == json.dumps(json.loads(text), indent=2) + "\n"


SHARED = "q\u00e9 \u2028\x00\x1f\t\"\\ x^2 (x) y g^3"  # one object: non-ASCII, control characters, escapes


@pytest.mark.parametrize("value", [
    {}, [], "", 0, -1.5e-07, None, True, False, "q\u00e9\n\"", (1, "x"),
    {"a": [], "b": {}, "c": [[], [{}], {"d": [1, 2.5, None, True, "x"]}]},
    # one str object as a key and as a value at several depths, next to an equal string that is another object
    {SHARED: SHARED, "a": [SHARED, {SHARED: [SHARED, {SHARED: SHARED}]}], "b": {"c": SHARED, SHARED: "d"},
     "e": "".join([SHARED[:5], SHARED[5:]])},
    [SHARED, [SHARED, [SHARED, {SHARED: [SHARED]}]], "\u00e9", {"\u00e9": "\u00e9"}],
])
def test_json_printer_writes_the_bytes_of_json_dumps(value):
    chunks = []
    cli._json(value, chunks)
    assert "".join(chunks) == json.dumps(value, indent=2)


def test_json_memo_lives_for_one_main_call(monkeypatch):
    """Each ``main`` call encodes through a memo of its own, so two calls in one process print the same bytes, with
    a call that encodes other strings between them."""
    memos = []
    encoded = cli._Encoded

    class Counted(encoded):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(cli, "_Encoded", Counted)
    first = run_cli(["table", "--p", "3", "--format", "json"])
    between = run_cli(["verify", "--p", "3", "--s", "0", "--permissive", "--format", "json"])
    assert run_cli(["table", "--p", "3", "--format", "json"]) == first
    assert first[0] == 0 and between[0] == 0 and len(memos) == 3
    assert first[1] == json.dumps(json.loads(first[1]), indent=2) + "\n"
    assert between[1] == json.dumps(json.loads(between[1]), indent=2) + "\n"


def test_verify_is_deterministic():
    argv = ["verify", "--p", "3", "--s", "2"]
    assert strip_elapsed(run_json(argv)[1]) == strip_elapsed(run_json(argv)[1])


# -- classify ---------------------------------------------------------------------


def test_classify_text_h51():
    code, text = run_cli(["classify", "--p", "5", "--s", "1"])
    assert code == 0
    assert "classify H(5, 1)" in text
    assert "MPI: (i=1, j=0)" in text
    assert "implements S^2: (i=1, j=0)" in text
    assert "(i=1, j=0) beta(l)=1 implements S^2, stable" in text


def test_classify_json_h52():
    code, payload = run_json(["classify", "--p", "5", "--s", "2"])
    assert code == 0
    (run,) = payload["runs"]
    assert run["mpi"] == []
    assert run["implements"] == [{"i": 4, "j": 3}]
    assert len(run["pairs"]) == 25
    winner = next(r for r in run["pairs"] if r["implements_s2"])
    assert winner == {
        "i": 4,
        "j": 3,
        "implements_s2": True,
        "stable": False,
        "beta_l": "q^2",
    }


def test_classify_text_and_json_carry_same_data():
    _, text = run_cli(["classify", "--p", "3", "--all-s"])
    _, payload = run_json(["classify", "--p", "3", "--all-s"])
    for run in payload["runs"]:
        assert f"classify H(3, {run['s']})" in text
        for row in run["pairs"]:
            assert f"(i={row['i']}, j={row['j']}) beta(l)={row['beta_l']}" in text


def test_classify_permissive_zero():
    code, payload = run_json(["classify", "--p", "3", "--s", "0", "--permissive"])
    assert code == 0
    (run,) = payload["runs"]
    assert run["mpi"] == [{"i": 0, "j": 2}, {"i": 1, "j": 0}]
    assert len(run["implements"]) == 3  # every j = i - 1 pair implements when s = 0


@pytest.mark.parametrize(
    "argv", [["classify", "--p", "3", "--s", "1"], ["table", "--p", "3"]], ids=["classify", "table"]
)
def test_a_closed_form_disagreement_exits_1(argv, monkeypatch, capsys):
    from bookhopf import mpi

    monkeypatch.setattr(mpi, "closed_form_predicate", lambda p, s, i, j: (True, True))
    code, text = run_cli(argv)
    assert code == 1 and text == ""
    assert capsys.readouterr().err.startswith("inconsistency: brute force disagrees with closed form at (i=0, j=0)")


# -- table ---------------------------------------------------------------------


def test_table_p3():
    code, payload = run_json(["table", "--p", "3"])
    assert code == 0
    assert [row["s"] for row in payload["rows"]] == [1, 2]
    assert all(row["has_mpi"] for row in payload["rows"])
    assert payload["rows"][0]["mpi"] == [{"i": 1, "j": 0}]
    assert payload["rows"][1]["mpi"] == [{"i": 0, "j": 2}]


def test_table_p5_text():
    code, text = run_cli(["table", "--p", "5"])
    assert code == 0
    lines = {line.strip().split(":")[0]: line for line in text.splitlines() if "s=" in line}
    assert "MPI yes" in lines["s=1"] and "MPI yes" in lines["s=4"]
    assert "MPI no" in lines["s=2"] and "MPI no" in lines["s=3"]
    assert "beta(l)=q^2" in lines["s=2"]


def test_table_marks_mpi_exactly_when_stable():
    _, payload = run_json(["table", "--p", "5"])
    for row in payload["rows"]:
        assert row["has_mpi"] == (row["s"] in (1, 4))
        assert len(row["implements"]) == 1


# -- argument handling ----------------------------------------------------------


def test_s_and_all_s_are_mutually_exclusive():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--p", "3", "--s", "1", "--all-s"], out=StringIO())
    assert exc.value.code == 2


def test_s_choice_is_required():
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--p", "3"], out=StringIO())
    assert exc.value.code == 2


@pytest.mark.parametrize("p", [17, 101])
@pytest.mark.parametrize("argv", [["verify", "--s", "1"], ["classify", "--all-s"], ["table"]])
def test_p_above_13_is_rejected(argv, p, capsys):
    code, text = run_cli([argv[0], "--p", str(p), *argv[1:]])
    assert code == 2
    assert text == ""
    assert f"error: p must be at most 13; got {p}" in capsys.readouterr().err


def test_the_library_takes_p_above_the_cli_range():
    A = BookAlgebra(17, 3)
    assert A.coproduct_monomial(Monomial(1, 0, 2)) == Tensor2(
        17, 3, {(Monomial(0, 0, 2), Monomial(1, 0, 2)): 1, (Monomial(1, 0, 2), Monomial(0, 0, 3)): 1}
    )


def test_help_states_the_range_of_p(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"], out=StringIO())
    assert "odd prime p, at most 13" in capsys.readouterr().out


def test_out_of_range_s_rejected(capsys):
    code, _ = run_cli(["verify", "--p", "3", "--s", "5"])
    assert code == 2
    assert "s" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bookhopf.cli", "table", "--p", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "modular pairs in involution for H(3, s)" in proc.stdout
