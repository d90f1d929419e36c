"""Numeric linear-dependence search over F_q[T] from truncated series.

Solves sum_j a_j(T) v_j = 0 through the known coefficient range, with
polynomial unknowns of bounded degree, by exact F_q Gaussian
elimination (``GFVec.kernel``, on packed rows).  The matrix is laid out
column by column from the series codes, each column a shifted input, and
read off row by row as strided slices.  Results are candidates valid to
the working precision only; every returned tuple is re-verified against
the input series before it is emitted (``GFVec.combination_vanishes``,
which packs each input once).  An independent probe for the symbolic
reduction pipeline, and a way to hunt for relations outside the proven
families.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .algebra import LaurentSeries, Poly
from .errors import InvalidInput


@dataclass
class DependenceProblem:
    values: list
    deg_bound: int

    def __post_init__(self):
        if not self.values:
            raise InvalidInput("need at least one value")
        if self.deg_bound < 0:
            raise InvalidInput("degree bound must be >= 0")
        if not all(isinstance(v, LaurentSeries) for v in self.values):
            raise InvalidInput("values must be Laurent series")
        spec = self.values[0].spec
        prec = self.values[0].prec
        for v in self.values:
            if v.spec != spec:
                raise InvalidInput("values must share one field")
            if v.prec != prec:
                raise InvalidInput("values must share one precision")
        if prec <= 0:
            raise InvalidInput("need positive precision")
        self.spec = spec
        self.prec = prec


def recommended_precision(m: int, deg_bound: int) -> int:
    return m * (deg_bound + 1) + 8


def precision_warning(problem: DependenceProblem) -> str | None:
    rec = recommended_precision(len(problem.values), problem.deg_bound)
    if problem.prec < rec:
        return (f"precision {problem.prec} below the recommended "
                f"{rec} for {len(problem.values)} values at degree bound "
                f"{problem.deg_bound}; kernel may contain spurious candidates")
    return None


def find_dependence(problem: DependenceProblem) -> list:
    """Kernel of sum_j a_j v_j = 0 (deg a_j <= D) through T^-(prec - D).

    Returns a list of coefficient tuples of exact polynomials, one per
    kernel basis vector, normalized so the first nonzero polynomial is
    monic.  Candidates are certified only to the precision of the
    inputs; each one is substituted back before being returned.  A
    candidate whose nonzero polynomials all sit on inputs that are zero
    to the working precision says nothing about the values and is not
    returned.
    """
    spec = problem.spec
    D = problem.deg_bound
    vals = problem.values
    m = len(vals)
    # rows where every shifted series is known: exponents from the top lead
    # down to -(prec - D)
    low = -(problem.prec - D)
    high = max((v.lead if not v.is_zero_to_prec else low) for v in vals) + D
    nrows = high - low + 1
    # the matrix column by column, then each row as one strided slice: row r
    # of column j (D + 1) + t is the coefficient of T^(high - r) in T^t v_j
    typecode = "B" if spec.q <= 256 else "H"
    zeros = array(typecode, bytes(nrows * array(typecode).itemsize))
    data = array(typecode)
    for v in vals:
        codes = array(typecode, () if v.is_zero_to_prec else v.c[:nrows])
        for t in range(D + 1):
            top = min(high - v.lead - t, nrows) if codes else nrows
            col = codes[:nrows - top]
            data += zeros[:top] + col + zeros[top + len(col):]
    vec = spec.vec
    kernel = vec.kernel([data[r::nrows] for r in range(nrows)])
    inputs = vec.pack_series([v.c for v in vals], m * (D + 1))
    w, zero = D + 1, Poly._make(spec, ())
    out = []
    for codes in kernel:
        live = [j for j in range(m) if any(codes[j * w:(j + 1) * w])]
        # skip candidates that rest only on inputs zero to precision
        if all(vals[j].is_zero_to_prec for j in live):
            continue
        # normalize: first nonzero polynomial monic, by one row of the table
        lead = next(c for c in reversed(codes[live[0] * w:(live[0] + 1) * w]) if c)
        if lead != 1:
            row = spec._mul[spec.inv_idx(lead)]
            codes = [row[c] for c in codes]
        polys = [zero] * m
        for j in live:
            polys[j] = Poly._make(spec, tuple(codes[j * w:(j + 1) * w]))
        # re-verify on the input series, independently of the elimination
        terms = [(j, polys[j].c, vals[j].lead) for j in live if not vals[j].is_zero_to_prec]
        top = max(polys[j].degree for j in live)
        if vec.combination_vanishes(inputs, terms, top - problem.prec):
            out.append(tuple(polys))
    return out
