"""Byte-identity guard for the reports that print Evaluator results.

Each command below runs through ``ffmzv.cli.run`` with ``--json``, and the
digest of its report (``report_digest`` from perfbench/rep.py, which leaves
out ``elapsed_ms``) must equal the one in evaluator_digests.json.  The
digests were recorded while the value DP still ran on ``LaurentSeries``
products and sums, so they pin the printed coefficients of every family at
q = 2, 3, 4, 9 (entries above q included, precisions on both sides of
the 8-bit slot bound), the ``prodsum`` verdicts, and a
dependence search over a rational function with a genuine F_4 coefficient.

    python tests/test_evaluator_digests.py --record

rewrites evaluator_digests.json from the code on the path.
"""

import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("evaluator_digests.json")

_FAMILIES = ("zeta", "zeta-dagger", "li", "li-dagger", "zeta-star", "li-star")
_EVALS = (
    (2, ("(1)", "(3,1)", "(1,2,1)"), None),
    (3, ("(4,2)", "(1,1,2)"), None),
    (4, ("(5,1)", "(2,3)"), None),
    (9, ("(10,1)", "(2,1)"), 60),
    # past the 8-bit slots of the packed DP: (N+1)(p-1)^2 + (p-1) >= 256
    (2, ("(3,1)",), 300),
    (3, ("(4,2)",), 80),
    (9, ("(10,1)",), 80),
)

COMMANDS = {
    **{f"eval_{fam}_q{q}_{idx}" + ("" if prec is None else f"_N{prec}"):
       ["eval", "--q", str(q), "--family", fam, "--index", idx]
       + ([] if prec is None else ["--prec", str(prec)])
       for q, idxs, prec in _EVALS for idx in idxs for fam in _FAMILIES},
    "prodsum_q3": ["verify", "--suite", "prodsum", "--q", "3"],
    "prodsum_q4": ["verify", "--suite", "prodsum", "--q", "4", "--max-weight", "4"],
    "depend_q4_u": ["depend", "--q", "4", "--prec", "30", "--deg-bound", "2", "--values",
                    "zeta:(3);li:(3);zeta:(1,2);(u)*T+1;T^2+(u)"],
}


def _report_digest():
    spec = importlib.util.spec_from_file_location("perfbench_rep", ROOT / "perfbench" / "rep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.report_digest


def _digest(name, path):
    from ffmzv import cli
    code = cli.run(COMMANDS[name] + ["--json", str(path)], out=io.StringIO())
    digest, cases, fails = _report_digest()(path)
    return code, digest, cases, fails


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_evaluator_report_matches_recorded_digest(name, tmp_path):
    want = json.loads(DIGESTS.read_text())[name]
    code, digest, cases, fails = _digest(name, tmp_path / "report.json")
    assert (code, cases, fails) == (0, want["cases"], 0)
    assert digest == want["digest"], name


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            code, digest, cases, fails = _digest(name, Path(tmp) / "report.json")
            if code != 0 or fails:
                sys.exit(f"{name}: exit {code}, {fails} failures")
            out[name] = {"digest": digest, "cases": cases}
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
