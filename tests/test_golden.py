"""Golden CLI output: stdout and exit code of fixed `--json` commands.

Each file under tests/golden/ holds one command's exit code on its first
line (`# exit N`) and its stdout after it, byte for byte.  The cases in
MUTANTS run with the recursion's index-set filter replaced by the
max_tail mutant (tests/conftest.py), so their files record what the
corpus reports on a wrong recursion.  A refactor that keeps the numbers
and the verdicts keeps these files.  To record them again after an
intended change of output, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from conftest import max_tail_recursion
from wildram.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "report_f3_type2": ["report", "t1^-2*t2", "--field", "3"],
    "report_f4_gen": ["report", "g*t1^-3*t2 + g^2*t2^-1 + 1",
                      "--field", "2^2"],
    "report_f5_type1": ["report", "t1^-3*t2^2 + t1^-1", "--field", "5",
                        "--type", "I"],
    "simulate_f2": ["simulate", "t1^-2*t2 + t1^-4*t2^3", "--field", "2"],
    "simulate_f3_sweep": ["simulate", "t1^-4*t2 + t1^-5*t2^2", "--field", "3",
                          "--mode", "sweep"],
    # its probes once needed a doubled series budget; translation is exact
    # now, and the case keeps its name
    "simulate_f2_escalates": ["simulate",
                              "t1*t2^-4 + 1 + t1^-1*t2^-4 + t1^-3*t2^-2",
                              "--field", "2"],
    "simulate_f2_sweep_orbit": ["simulate", "t1^-6*t2^3 + t2^-3", "--field",
                                "2", "--mode", "sweep", "--sweep-degree", "2"],
    "corpus_laurent_simulate": ["corpus", "--seed", "1", "--count", "60",
                                "--mode", "laurent", "--simulate"],
    "corpus_staircase": ["corpus", "--seed", "1", "--count", "200",
                         "--mode", "staircase"],
    "corpus_max_tail": ["corpus", "--seed", "1", "--count", "200"],
}
MUTANTS = {"corpus_max_tail"}


def _run(name):
    out = io.StringIO()
    patch = max_tail_recursion if name in MUTANTS else contextlib.nullcontext
    with patch(), contextlib.redirect_stdout(out):
        code = main(CASES[name] + ["--json"])
    return f"# exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _run(name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        (GOLDEN / f"{name}.txt").write_text(_run(name), encoding="utf-8")
    sys.exit(0)
