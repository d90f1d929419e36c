"""Guard for the public quotient echelon, entry by entry.

``Reducer.quotient_space(w).echelon`` holds primitive polynomial rows N,
unique only up to an F_q scalar, so comparing N / N[pc] with a reference
would miss a change of that scalar.  The sha256 of every entry's codes and
of the pivot columns at each (q, w) below must equal the one in
echelon_digests.json, recorded before the elimination kept its rows packed.

    python tests/test_echelon_digests.py --record

rewrites echelon_digests.json from the code on the path.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

DIGESTS = Path(__file__).with_name("echelon_digests.json")

CASES = ((2, 9), (3, 8), (4, 6), (5, 6), (9, 5))


def _digest(q, w):
    from ffmzv import IndexAlgebra, Reducer, field
    qs = Reducer(IndexAlgebra(field(q))).quotient_space(w)
    text = json.dumps({"pivots": qs.pivots, "rows": [[x.c for x in row] for row in qs.echelon]})
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("q,w", CASES)
def test_quotient_echelon_matches_recorded_digest(q, w):
    assert _digest(q, w) == json.loads(DIGESTS.read_text())[f"q{q}_w{w}"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    out = {f"q{q}_w{w}": _digest(q, w) for q, w in CASES}
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
