"""Sample the speed of one core while the benchmark's repetitions run on it.

    python3 perfbench/calibrate.py CORE

Pins itself to CORE, prints "ready", and then every INTERVAL_S times one
fixed chunk of pure-Python work, until it receives SIGTERM.  It then
prints one line per sample, "start duration", in ``time.perf_counter()``
seconds; that clock is system-wide on Linux, so the parent can match the
samples to the repetitions it timed.

The cores of a shared host change speed by up to about 2x within tens of
seconds, each on its own, as the host's other load comes and goes.  A chunk
timed on the same core as a repetition sees the same speed, so run.py can
scale the repetition's time to a fixed reference speed.  Each chunk takes
about 0.2 ms, so the sampling takes about 1% of the core.
"""

from __future__ import annotations

import os
import signal
import sys
import time

INTERVAL_S = 0.02


def chunk() -> int:
    """A fixed piece of interpreter work: dict updates, integer and string ops."""
    d, s = {}, 0
    for i in range(300):
        d[i & 31] = d.get(i & 31, 0) + i * i % 7
        s += len(str(i))
    return s


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    print("ready", flush=True)
    samples = []
    while not stopped:
        t = time.perf_counter()
        chunk()
        samples.append((t, time.perf_counter() - t))
        time.sleep(INTERVAL_S)
    sys.stdout.write("".join(f"{t!r} {d!r}\n" for t, d in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
