"""Tier-1 byte-identity guard: the benchmark's reports hash to their recorded digests.

Runs the benchmark's unseeded steps, and both products steps at seed 0,
through ``ffmzv.cli.run`` with ``--json``, and compares the digest of each
report (``report_digest`` from perfbench/rep.py, which leaves out
``elapsed_ms``) with perfbench/digests.json.  perfbench/ is only read.
"""

import importlib.util
import io
import json
from pathlib import Path

import pytest

from ffmzv import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
STEPS = ["theorem_q2", "prop41_q3", "prop42_q3", "fundamental_q3", "depend_q2",
         "products_q3", "products_q4"]
SEED = 0


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    rep, workloads = _load("rep"), _load("workloads")
    plan = {name: argv for w in workloads.WORKLOADS for name, argv in workloads.steps(w, SEED)}
    recorded = json.loads((BENCH / "digests.json").read_text())
    return rep, workloads, plan, recorded


@pytest.mark.parametrize("step", STEPS)
def test_report_matches_recorded_digest(step, bench, tmp_path):
    rep, workloads, plan, recorded = bench
    path = tmp_path / f"{step}.json"
    code = cli.run(plan[step] + ["--json", str(path)], out=io.StringIO())
    assert code == 0
    digest, cases, fails = rep.report_digest(path)
    want = recorded[step][str(SEED) if workloads.seeded(step) else "any"]
    assert fails == 0 and cases > 0
    assert digest == want, step
