"""One operation of each benchmark workload, run in-process and judged by the benchmark's oracle.

``perfbench/oracle.py`` derives every expected verdict and every expected
``checked``/``mode`` pair from closed forms, without importing bookhopf.  It
is loaded read-only by path, so a change to a check's plan fails here as
well as in the benchmark.
"""

import importlib.util
from io import StringIO
from pathlib import Path

import pytest

from bookhopf import cli

ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


def load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load_oracle()


@pytest.mark.parametrize(
    "op",
    [
        oracle.Op("classify", 7, 3),
        oracle.Op("verify", 7, 3, seed=11),
        oracle.Op("verify", 5, 0, permissive=True),
    ],
    ids=["classify-p7", "verify-p7", "negctl-p5"],
)
def test_a_workload_operation_passes_the_oracle(op):
    out = StringIO()
    code = cli.main(op.argv(), out=out)
    assert oracle.check(op, code, out.getvalue()) == []
