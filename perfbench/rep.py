"""One cold repetition of a workload, in the fresh interpreter that runs this file.

    python3 perfbench/rep.py --root DIR --workload NAME --seed N --t0 T [--setup-only]
                             [--trace SPANS.npz]

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this interpreter (the clock is system-wide on Linux), so ``setup_s``
covers interpreter start, importing ffmzv and building the first
``Context``.  The workload's commands then run in order through
``ffmzv.cli.run(argv)``, each writing its JSON report with ``--json``.

Prints one JSON line: setup and wall time, time per step, peak RSS, and
per step the exit code, the case counts and the digest of the report.
With ``--setup-only`` it stops as soon as the first ``Context`` is built.
With ``--trace`` it also records spans (see spans.py), prints their
summary and writes the spans to the given path.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

# The report fields that carry the result.  elapsed_ms, and any timing or
# counter fields added later, are outside the digest.
DIGEST_FIELDS = ("check", "params", "cases", "summary", "version")


class SetupReached(Exception):
    """Raised by the --setup-only probe once the first Context exists."""


def report_digest(path: Path):
    """sha256 of the report's result fields, the number of cases, and the failures."""
    data = json.loads(path.read_text())
    reports = data if isinstance(data, list) else [data]
    kept = [{k: r.get(k) for k in DIGEST_FIELDS} for r in reports]
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    cases = sum(len(r["cases"]) for r in reports)
    fails = sum(r["summary"]["fail"] for r in reports)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest(), cases, fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None)
    args = ap.parse_args(argv)

    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    from ffmzv import cli
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"ffmzv imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    from workloads import steps

    marks = {}

    class TimedContext(cli.Context):
        def __init__(self, cli_args):
            super().__init__(cli_args)
            marks.setdefault("setup", time.perf_counter())
            if args.setup_only:
                raise SetupReached

    cli.Context = TimedContext
    plan = steps(args.workload, args.seed)

    if args.setup_only:
        try:
            cli.run(plan[0][1], out=io.StringIO())
        except SetupReached:
            pass
        print(json.dumps({"setup_s": marks["setup"] - args.t0}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    out_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=root / ".perfbench"))
    try:
        step_s, codes = {}, {}
        for name, cmd in plan:
            cmd = cmd + ["--json", str(out_dir / f"{name}.json")]
            t = time.perf_counter()
            if tracer is None:
                codes[name] = cli.run(cmd, out=io.StringIO())
            else:
                codes[name] = tracer.call(f"cli.step.{name}", cli.run, cmd, out=io.StringIO())
            step_s[name] = time.perf_counter() - t
        t_end = time.perf_counter()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        result = {"setup_s": marks["setup"] - args.t0, "wall_s": t_end - args.t0,
                  "peak_rss_mb": rss_kb / 1024.0, "step_s": step_s, "steps": {}}
        for name, _ in plan:
            path = out_dir / f"{name}.json"
            digest, cases, fails = report_digest(path) if path.exists() else (None, 0, 0)
            result["steps"][name] = {"exit": codes[name], "cases": cases, "fails": fails,
                                     "digest": digest}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
