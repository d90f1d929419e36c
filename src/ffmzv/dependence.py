"""Numeric linear-dependence search over F_q[T] from truncated series.

Solves sum_j a_j(T) v_j = 0 through the known coefficient range, with
polynomial unknowns of bounded degree, by exact F_q Gaussian
elimination.  Results are candidates valid to the working precision
only; every returned tuple is re-verified against the inputs before it
is emitted.  An independent probe for the symbolic reduction pipeline,
and a way to hunt for relations outside the proven families.
"""

from __future__ import annotations

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
        spec = self.values[0].spec
        prec = self.values[0].prec
        for v in self.values:
            if not isinstance(v, LaurentSeries):
                raise InvalidInput("values must be Laurent series")
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
    import numpy as np
    spec = problem.spec
    D = problem.deg_bound
    vals = problem.values
    m = len(vals)
    # rows where every shifted series is known: exponents from the top lead
    # down to -(prec - D)
    low = -(problem.prec - D)
    high = max((v.lead if not v.is_zero_to_prec else low) for v in vals) + D
    if high < low:
        high = low
    nrows = high - low + 1
    ncols = m * (D + 1)
    mat = np.zeros((nrows, ncols), dtype=np.int64)
    for j, v in enumerate(vals):
        if v.is_zero_to_prec:
            continue
        for t in range(D + 1):
            # row r is the coefficient of T^(high - r) in T^t v, i.e. v.c[r - top]
            top = high - v.lead - t
            seg = v.c[:max(nrows - top, 0)]
            mat[top:top + len(seg), j * (D + 1) + t] = seg
    kernel = spec.vec.kernel(mat)
    arrays = [np.array(v.c, dtype=np.int64) for v in vals]
    out = []
    for vec in kernel:
        codes = vec.tolist()
        polys = [Poly._make(spec, tuple(codes[j * (D + 1):(j + 1) * (D + 1)]))
                 for j in range(m)]
        # skip candidates that rest only on inputs zero to precision
        if all(v.is_zero_to_prec for p, v in zip(polys, vals) if not p.is_zero):
            continue
        # normalize: first nonzero polynomial monic
        lead = next(p for p in polys if not p.is_zero)
        inv = lead.leading().inverse()
        polys = [p.scale(inv) for p in polys]
        # re-verify against the inputs at their common precision
        if _combination_vanishes(spec, polys, vals, arrays):
            out.append(tuple(polys))
    return out


def _combination_vanishes(spec, polys, vals, arrays) -> bool:
    """Whether sum_j p_j v_j is zero to its precision, prec - max deg p_j.

    Built from the input series, not from the kernel's matrix, so that the
    check is independent of the elimination; arrays[j] holds the codes of
    v_j as int64.  Over a prime field the codes are residues: c v is
    accumulated in int64 and reduced mod p once.
    """
    import numpy as np
    floor = max(max(p.degree, 0) for p in polys) - vals[0].prec
    terms = [(p, v, vc) for p, v, vc in zip(polys, vals, arrays)
             if not p.is_zero and not v.is_zero_to_prec]
    if not terms:
        return True
    high = max(v.lead + p.degree for p, v, _ in terms)
    # acc[r] is the coefficient of T^(high - r), down to T^floor
    acc = np.zeros(max(high - floor + 1, 0), dtype=np.int64)
    vec = spec.vec
    for p, v, vc in terms:
        for t, c in enumerate(p.c):
            if c:
                top = high - v.lead - t
                n = min(len(vc), len(acc) - top)
                if n <= 0:
                    continue
                if vec.e == 1:
                    acc[top:top + n] += c * vc[:n]
                else:
                    acc[top:top + n] = vec.add_t[acc[top:top + n], vec.mul_t[c, vc[:n]]]
    if vec.e == 1:
        acc %= spec.p
    return not acc.any()
