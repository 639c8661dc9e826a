"""Self-tests of the benchmark: the oracle accepts real output and rejects doctored output."""

import copy
import json
from io import StringIO

from oracle import Op, check, negative_control_bialgebra_sites, planned_work, render_root
from layers import Tracer
from run import PROBE_REF_S, slowdown

from bookhopf import cli


def run(op):
    out = StringIO()
    code = cli.main(op.argv(), out=out)
    return code, json.loads(out.getvalue())


def test_oracle_accepts_real_output():
    for op in (
        Op("classify", 3, 1),
        Op("classify", 5, 2),
        Op("verify", 3, 2, seed=7),
        Op("verify", 3, 0, permissive=True),
        Op("verify", 3, 1, seed=3, sample_size=10),  # domain under the limit: exhaustive
    ):
        code, payload = run(op)
        assert check(op, code, json.dumps(payload)) == [], op


def test_oracle_rejects_wrong_mpi_set():
    op = Op("classify", 3, 1)  # s = 1 has an MPI
    code, payload = run(op)
    payload["runs"][0]["mpi"] = []
    assert any("MPI set" in msg for msg in check(op, code, json.dumps(payload)))


def test_oracle_rejects_vacuous_pass():
    op = Op("verify", 3, 1)
    code, payload = run(op)
    doctored = copy.deepcopy(payload)
    doctored["runs"][0]["axioms"][1]["checked"] = 0
    assert any("vacuous pass" in msg for msg in check(op, code, json.dumps(doctored)))


def test_oracle_rejects_nonzero_exit():
    op = Op("verify", 3, 1)
    _, payload = run(op)
    assert check(op, 1, json.dumps(payload)) == ["exit code 1"]


def test_planned_work_at_p7_default_sample():
    plan = planned_work(7, 1_000_000)
    assert plan["associativity"] == (1_000_000, "sampled(n=1000000)")
    assert plan["bialgebra"] == (343 ** 2, "exhaustive")
    assert len(negative_control_bialgebra_sites(5)) == 3750


def test_render_root_matches_the_library():
    from bookhopf import root_power

    for p in (3, 5, 7):
        for k in range(p):
            assert render_root(p, k) == root_power(p, k).render()


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.section("demo"):
        with tracer.span("mpi.outer") as outer:
            with tracer.span("pbw.inner") as inner:
                sum(range(10_000))
    self_times = tracer.self_times()
    assert abs(self_times["mpi"] - (tracer.seconds(outer) - tracer.seconds(inner))) < 1e-9
    assert self_times["pbw"] == tracer.seconds(inner)
    assert tracer.spans[inner][3] == outer and tracer.spans[inner][4] == 1


def test_slowdown_is_the_mean_core_speed():
    assert slowdown([PROBE_REF_S] * 3) == 1.0
    # half the time at reference speed, half at half speed: mean speed 3/4
    assert abs(slowdown([PROBE_REF_S, 2 * PROBE_REF_S]) - 4 / 3) < 1e-12
