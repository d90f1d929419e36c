"""Record the report digests that the benchmark's correctness gate checks.

    python3 perfbench/record_digests.py --seeds 0-63

Runs every workload step once in this interpreter (the reports do not
depend on cold caches) and writes perfbench/digests.json: one digest per
step, and one per seed for the steps that take the benchmark's seed.
Run it only on a commit whose reports are known to be right; a change
that is meant to alter a report must record its digests again.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-63", help="inclusive range FIRST-LAST")
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path.insert(0, str(ROOT / "src"))
    from ffmzv import cli
    from rep import report_digest
    from workloads import WORKLOADS, seeded, steps

    out = {}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for workload, plan in WORKLOADS.items():
            for i, (name, _) in enumerate(plan):
                for seed in (seeds if seeded(name) else [seeds[0]]):
                    cmd = steps(workload, seed)[i][1]
                    path = Path(tmp) / f"{name}.json"
                    code = cli.run(cmd + ["--json", str(path)], out=io.StringIO())
                    digest, cases, fails = report_digest(path)
                    if code or fails:
                        print(f"{name} seed={seed}: exit {code}, {fails} failed cases; "
                              "not recording", file=sys.stderr)
                        return 1
                    out.setdefault(name, {})[str(seed) if seeded(name) else "any"] = digest
                    print(f"{name} seed={seed if seeded(name) else '-'} {digest}", flush=True)
    (HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
