"""The benchmark's workloads: fixed sequences of ``ffmzv`` CLI commands.

Each workload is what a user runs from the shell, in order, to get a
verified result.  A repetition runs the whole sequence cold, in one fresh
interpreter, through the public entry point ``ffmzv.cli.run(argv)``.

``SEED`` in an argv is replaced by the benchmark's ``--seed``.  Only the
``products`` suite is randomised, so only its steps depend on the seed.
"""

from __future__ import annotations

SEED = "{seed}"

# Size of the products steps.  At the suite defaults (50 pairs of indices
# of weight <= 6) the work depends on which pairs a seed draws: the count
# of series multiplications spreads by 29% (IQR over ten seeds) even at 200
# pairs.  800 pairs of weight <= 4 draw nearly all 225 ordered pairs, so the
# work hardly depends on the seed (3%), while products still reach weight 8
# and zeta entries above q, which the brute-force power sums handle.
PRODUCT_SIZE = ["--max-weight", "4", "--pairs", "800"]


def _compositions(w: int):
    """All compositions of w, as tuples (the same set as ffmzv.compositions)."""
    if w == 0:
        return [()]
    return [(k,) + rest for k in range(1, w + 1) for rest in _compositions(w - k)]


_LI_W7 = ";".join("li:(" + ",".join(map(str, s)) + ")" for s in _compositions(7))

# Why each workload was chosen, and which layers it loads or leaves idle,
# is in README.md.
WORKLOADS = {
    "symbolic": [
        ("theorem_q2", ["verify", "--suite", "theorem", "--q", "2", "--max-weight", "7"]),
        ("prop41_q3", ["verify", "--suite", "prop41", "--q", "3"]),
        ("prop42_q3", ["verify", "--suite", "prop42", "--q", "3", "--max-weight", "5"]),
    ],
    "numeric_oracle": [
        ("products_q3", ["verify", "--suite", "products", "--q", "3", "--prec", "40",
                         *PRODUCT_SIZE, "--seed", SEED]),
        ("products_q4", ["verify", "--suite", "products", "--q", "4", "--prec", "40",
                         *PRODUCT_SIZE, "--seed", SEED]),
        ("fundamental_q3", ["verify", "--suite", "fundamental", "--q", "3", "--max-d", "5"]),
        ("depend_q2", ["depend", "--q", "2", "--values", _LI_W7, "--deg-bound", "3",
                       "--prec", "264"]),
    ],
}


def steps(workload: str, seed: int):
    """The (step name, argv) pairs of a workload, with the seed filled in."""
    return [(name, [str(seed) if a == SEED else a for a in argv])
            for name, argv in WORKLOADS[workload]]


def all_step_names():
    return [name for plan in WORKLOADS.values() for name, _ in plan]


def seeded(step: str) -> bool:
    """Whether a step takes the benchmark's seed."""
    return any(name == step and SEED in argv
               for plan in WORKLOADS.values() for name, argv in plan)
