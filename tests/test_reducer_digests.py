"""Byte-identity guard for the reports that print Reducer results.

Each command below runs through ``ffmzv.cli.run`` with ``--json``, and the
digest of its report (``report_digest`` from perfbench/rep.py, which leaves
out ``elapsed_ms``) must equal the one in reducer_digests.json.  The
digests were recorded before the Reducer computed over F_q(Y), so they pin
the printed coefficients, classes and verdicts of the F_q(T) computation.

    python tests/test_reducer_digests.py --record

rewrites reducer_digests.json from the code on the path.
"""

import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("reducer_digests.json")

COMMANDS = {
    **{f"reduce_{fam}_q{q}_{idx}": ["reduce", "--q", str(q), "--family", fam, "--index", idx]
       for q, idxs in ((2, ("(3,1)", "(1,2,1)", "(4,2)")),
                       (3, ("(4)", "(2,3)", "(1,4,1)")),
                       (4, ("(5)", "(1,5)")),
                       (9, ("(10)", "(1,10)")))
       for idx in idxs for fam in ("li", "zeta")},
    "iota_q2_w6": ["iota", "--q", "2", "--weight", "6"],
    "iota_q3_w1": ["iota", "--q", "3", "--weight", "1"],
    "iota_q4_w2": ["iota", "--q", "4", "--weight", "2"],
    "iota_q5_w7": ["iota", "--q", "5", "--weight", "7"],
    "iota_q9_w8": ["iota", "--q", "9", "--weight", "8"],
    "conjecture_q2": ["conjecture", "--q", "2", "--max-weight", "4"],
    "conjecture_q3": ["conjecture", "--q", "3", "--max-weight", "3"],
    "conjecture_q4": ["conjecture", "--q", "4", "--max-weight", "5"],
    "keylemma_q2": ["verify", "--suite", "keylemma", "--q", "2"],
    "keylemma_q3": ["verify", "--suite", "keylemma", "--q", "3"],
    "prop42_q5": ["verify", "--suite", "prop42", "--q", "5", "--max-weight", "5"],
    "prop42_q9": ["verify", "--suite", "prop42", "--q", "9", "--max-weight", "3"],
    "theorem_q4": ["verify", "--suite", "theorem", "--q", "4", "--max-weight", "6"],
    "theorem_q9": ["verify", "--suite", "theorem", "--q", "9", "--max-weight", "7"],
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
def test_reducer_report_matches_recorded_digest(name, tmp_path):
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
