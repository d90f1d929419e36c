"""The ffmzv benchmark: run a workload cold through the CLI and report its metrics.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Workloads are defined in workloads.py.  Every repetition runs in a fresh
interpreter (rep.py), because a CLI user pays for the empty memo caches
on every run.

--trace 0: cold repetitions until --seconds have passed (at least one),
  in STREAMS streams at once, each pinned to a core of its own, with
  SETUP_PROBES set-up probes before each repetition and after the last of
  its stream.  Reports the end-to-end metrics of BENCHMARK.json as
  medians: setup_s over the probes and the repetitions, scaled_wall_s and
  peak_rss_mb over the repetitions.  Both times are scaled to the
  reference core speed REF_RATE, from the speed that calibrate.py samples
  on the same core during the interval timed; the unscaled medians are
  printed too.
--trace 1: one untraced repetition and two traced ones (spans.py).
  Reports the per-layer metrics of BENCHMARK.json from the first traced
  repetition; the step times come from the untraced one, and
  trace_overhead_ratio is traced wall_s / untraced wall_s.  Every count
  must be identical in the two traced repetitions.

Every repetition is checked: each failed case, nonzero exit and report
digest that differs from digests.json (or, for a seed with no recorded
digest, from the other repetitions) counts as a failure.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from workloads import WORKLOADS, all_step_names, seeded

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 3  # set-up probes before each repetition and after the last
# Untraced repetitions run in this many streams at once, one per core.  The
# cores of a shared host speed up and slow down independently of each
# other, so two streams average over both.
STREAMS = min(2, len(os.sched_getaffinity(0)))
# Reference core speed, in calibrate.py chunks per second: a core of the
# 2-vCPU Xeon (Sapphire Rapids) host the benchmark was written on, while
# its host is loaded.  A time scaled to it is time * rate / REF_RATE, with
# rate the mean chunk rate sampled on that core while the time was taken.
REF_RATE = 5400.0
TRACED_REPS = 2
DEADLINE_S = 170  # a run must end within 180 s


class Tally:
    """Cases attempted and failures counted against them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}  # step -> digest of the first repetition

    def fail(self, why: str):
        self.failed += 1
        print(f"FAIL: {why}", file=sys.stderr)


def spawn(workload: str, seed: int, deadline: float, *extra) -> dict:
    """Run rep.py in a fresh interpreter and return its JSON line."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "rep.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"repetition of {workload} exited with {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    return {**json.loads(proc.stdout.splitlines()[-1]), "t0": t0}


class CoreSpeed:
    """calibrate.py sampling one core's speed, from start() until stop()."""

    def __init__(self, core: int):
        self.core = core
        self.proc = None
        self.samples = []

    def start(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py"), str(self.core)],
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"calibrate.py on core {self.core} did not start")

    def stop(self):
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        self.samples = [tuple(map(float, line.split())) for line in out.splitlines()]

    def scaled(self, start: float, seconds: float) -> float:
        """seconds, taken from start on this core, scaled to REF_RATE."""
        rates = [1.0 / d for t, d in self.samples if start <= t <= start + seconds]
        if not rates:
            raise RuntimeError(f"no speed sample of core {self.core} in a timed interval")
        return seconds * statistics.fmean(rates) / REF_RATE


def check(rep: dict, seed: int, recorded: dict, tally: Tally):
    """Count the cases of one repetition and every failure among them."""
    for name, st in rep["steps"].items():
        tally.attempted += max(st["cases"], 1)
        tally.failed += st["fails"]
        if st["fails"]:
            print(f"FAIL: {name}: {st['fails']} failed cases", file=sys.stderr)
        if st["exit"] != 0:
            tally.fail(f"{name}: exit code {st['exit']}")
        want = recorded.get(name, {}).get(str(seed) if seeded(name) else "any")
        first = tally.digests.setdefault(name, st["digest"])
        if st["digest"] is None:
            tally.fail(f"{name}: no JSON report")
        elif want is not None and st["digest"] != want:
            tally.fail(f"{name}: report digest {st['digest']} differs from the record {want}")
        elif st["digest"] != first:
            tally.fail(f"{name}: report digest differs between repetitions")


def digest_lines(tally: Tally, seed: int, recorded: dict):
    for name, got in tally.digests.items():
        key = str(seed) if seeded(name) else "any"
        state = "recorded" if recorded.get(name, {}).get(key) else "not recorded"
        print(f"digest {name} seed={seed if seeded(name) else '-'} {got} ({state})")


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(summary: dict, untraced: dict, overhead: float) -> dict:
    """Every per-layer metric the traced run can give, by name."""
    spans, ctr = summary["spans"], summary["counters"]
    out = {}
    for name, s in spans.items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
    out["algebra.gcd_useful_ratio"] = ratio(ctr["algebra.gcd_useful"],
                                            spans["algebra.Poly.gcd"]["calls"])
    out["reduction.passes_per_reduce"] = ratio(spans["reduction.u_step"]["calls"],
                                               spans["reduction.reduce_to_T"]["calls"])
    out["reduction.terms_in"] = ctr["reduction.terms_in"]
    out["reduction.terms_out"] = ctr["reduction.terms_out"]
    for metric, span in (("reduction.dagger_expand.hit_ratio", "reduction.dagger_expand"),
                         ("evaluate.value_hit_ratio", "evaluate.value_of_index")):
        out[metric] = ratio(spans[span]["leaf_calls"], spans[span]["calls"])
    out["gfnum.brute_power_sum.rows"] = ctr["gfnum.brute_power_sum.rows"]
    out["gfnum.kernel.cells"] = ctr["gfnum.kernel.cells"]
    out["dependence.candidates_kept_ratio"] = ratio(ctr["dependence.kept"],
                                                    ctr["gfnum.kernel.basis"])
    for step in all_step_names():
        out[f"cli.step.{step}_s"] = untraced["step_s"].get(step, 0.0)
    out["trace_overhead_ratio"] = overhead
    return out


def counts(summary: dict) -> dict:
    """The parts of a trace summary that must repeat exactly."""
    out = dict(summary["counters"])
    for name, s in summary["spans"].items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.leaf_calls"] = s["leaf_calls"]
    return out


def stream(workload: str, seed: int, seconds: int, deadline: float, core: int,
           stop: threading.Event):
    """Cold repetitions one after another on one core until --seconds have passed.

    At least one repetition runs.  Set-up probes run before every
    repetition and after the last one, so the set-up samples span the whole
    run, as the repetitions do.  Returns the probes and the repetitions,
    each with its times scaled to REF_RATE added as "setup_ref_s" and
    "wall_ref_s".
    """
    os.sched_setaffinity(0, {core})  # this thread, and so every process it starts
    speed = CoreSpeed(core)
    probes, reps = [], []
    try:
        speed.start()
        start = time.perf_counter()
        while not reps or (time.perf_counter() - start < seconds and not stop.is_set()):
            probes += [spawn(workload, seed, deadline, "--setup-only")
                       for _ in range(SETUP_PROBES)]
            reps.append(spawn(workload, seed, deadline))
        probes += [spawn(workload, seed, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
    except BaseException:
        stop.set()  # the other streams start no new repetition
        raise
    finally:
        speed.stop()
    for r in probes + reps:
        r["setup_ref_s"] = speed.scaled(r["t0"], r["setup_s"])
    for r in reps:
        r["wall_ref_s"] = speed.scaled(r["t0"], r["wall_s"])
    return probes, reps


def run_workload(workload: str, seed: int, seconds: int, trace: bool, spec: dict):
    deadline = time.perf_counter() + DEADLINE_S
    recorded = json.loads((HERE / "digests.json").read_text())
    tally = Tally()
    if not trace:
        stop = threading.Event()
        cores = sorted(os.sched_getaffinity(0))[:STREAMS]
        with ThreadPoolExecutor(STREAMS) as pool:
            streams = [pool.submit(stream, workload, seed, seconds, deadline, core, stop)
                       for core in cores]
            probes, reps = [], []
            for done in streams:
                more_probes, more_reps = done.result()
                probes += more_probes
                reps += more_reps
        for rep in reps:
            check(rep, seed, recorded, tally)
        values = {
            "setup_s": statistics.median(r["setup_ref_s"] for r in probes + reps),
            "scaled_wall_s": statistics.median(r["wall_ref_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        unscaled = {
            "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
        }
        note = (f"{len(reps)} repetitions, {len(probes) + len(reps)} set-ups, "
                f"{len(cores)} streams; unscaled medians: "
                + ", ".join(f"{k} = {v:.4f} s" for k, v in unscaled.items()))
        declared = spec["end_to_end"]
    else:
        untraced = spawn(workload, seed, deadline)
        check(untraced, seed, recorded, tally)
        traced = []
        for _ in range(TRACED_REPS):
            rep = spawn(workload, seed, deadline, "--trace", str(WORK / f"spans-{workload}.npz"))
            check(rep, seed, recorded, tally)
            traced.append(rep)
        first = counts(traced[0]["trace"])
        for rep in traced[1:]:
            again = counts(rep["trace"])
            for key in sorted(set(first) | set(again)):
                if first.get(key) != again.get(key):
                    tally.fail(f"count {key} differs between traced runs: "
                               f"{first.get(key)} vs {again.get(key)}")
        overhead = statistics.median(r["wall_s"] for r in traced) / untraced["wall_s"]
        values = layer_metrics(traced[0]["trace"], untraced, overhead)
        note = f"1 untraced and {len(traced)} traced repetitions"
        declared = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    tally.attempted = max(tally.attempted, 1)
    print(f"== {workload} seed={seed} ({note})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(f"  fail_ratio = {tally.failed / tally.attempted} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    digest_lines(tally, seed, recorded)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ffmzv" / "cli.py").is_file():
        print(f"no ffmzv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
