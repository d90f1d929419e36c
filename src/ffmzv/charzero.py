"""Classical (characteristic-zero) multiple zeta and dagger values.

Partial-sum evaluation with crude but valid tail bounds, the dual-index
construction, and the comparison reports contrasting the classical
picture with the function-field one.  Everything here is numeric:
congruences modulo zeta(2) are reported, never decided.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from .errors import NotAdmissible
from .indices import Index
from .reports import Case, Report

_ZETA_BOUND = 1.6449340668482266  # zeta(2), an upper bound for zeta(s), s >= 2


def dual_index(s) -> Index:
    """The duality involution on admissible indices; preserves weight."""
    s = Index(s)
    if s.is_empty:
        return s
    if not s.admissible:
        raise NotAdmissible(f"{s} does not start above 1")
    # split into blocks (a_i + 1, {1}^(b_i - 1))
    blocks = []
    i = 0
    while i < s.depth:
        a = s[i] - 1
        i += 1
        b = 1
        while i < s.depth and s[i] == 1:
            b += 1
            i += 1
        blocks.append((a, b))
    out = []
    for a, b in reversed(blocks):
        out.append(b + 1)
        out.extend([1] * (a - 1))
    return Index(out)


@dataclass(frozen=True)
class RealValue:
    """A partial-sum approximation together with a tail bound."""
    value: float
    tail_bound: float

    def agrees_with(self, other: "RealValue", tol: float) -> bool:
        return abs(float(self.value) - float(other.value)) <= tol + float(
            self.tail_bound) + float(other.tail_bound)


def _tail_bound(outer_exp: int, inner_exps, M: int) -> float:
    """Bound on the discarded tuples when the largest variable exceeds M.

    Inner factors with exponent 1 contribute at most (1 + ln x) each;
    inner factors with exponent >= 2 at most zeta(2).  Integrating
    x^-s (1 + ln x)^k over (M, inf) gives the finite sum below.
    """
    s = outer_exp
    if s < 2:
        raise NotAdmissible("outer exponent must be >= 2 for a finite tail")
    k = sum(1 for e in inner_exps if e == 1)
    const = 1.0
    for e in inner_exps:
        if e >= 2:
            const *= _ZETA_BOUND
    lm = 1.0 + math.log(M)
    total = 0.0
    for j in range(k + 1):
        total += (math.comb(k, j) * lm ** (k - j) * math.factorial(j)
                  / (s - 1) ** (j + 1))
    return const * M ** (1 - s) * total


def _nested_sum(exps, M: int, strict: bool) -> float:
    """Sum of prod_i m_i^-exps[i] over 1 <= m_1 <= ... <= m_r <= M, or over
    m_1 < ... < m_r when strict, by one cumulative sum per inner entry."""
    import numpy as np
    # extended-precision accumulation; on x86 np.longdouble carries a 64-bit significand
    n = np.arange(1, M + 1, dtype=np.longdouble)
    # inner[m-1] sums over the entries so far, the last part at most m
    # (strict: below m)
    inner = np.ones(M, dtype=np.longdouble)
    for e in exps[:-1]:
        inner = np.cumsum(n ** (-np.longdouble(e)) * inner)
        if strict:
            inner = np.concatenate((np.zeros(1, dtype=np.longdouble), inner[:-1]))
    return float(np.sum(n ** (-np.longdouble(exps[-1])) * inner))


def mzv_num(s, M: int = 10 ** 6) -> RealValue:
    """Multiple zeta value by nested cumulative sums over m_1 > ... > m_r >= 1."""
    s = Index(s)
    if s.is_empty:
        return RealValue(1.0, 0.0)
    if not s.admissible:
        raise NotAdmissible(f"{s} is not admissible (first entry must exceed 1)")
    if M < s.depth:
        raise NotAdmissible("cutoff smaller than the depth")
    return RealValue(_nested_sum(tuple(s)[::-1], M, True), _tail_bound(s[0], tuple(s)[1:], M))


def mzdv_num(s, M: int = 10 ** 6) -> RealValue:
    """Dagger value: weakly increasing m_1 <= ... <= m_r, signed by (-1)^depth."""
    s = Index(s)
    if s.is_empty:
        return RealValue(1.0, 0.0)
    if not s.rev_admissible:
        raise NotAdmissible(
            f"{s} has last entry 1; the regularized values are out of scope")
    if M < 1:
        raise NotAdmissible("cutoff must be >= 1")
    sign = -1.0 if s.depth % 2 else 1.0
    return RealValue(sign * _nested_sum(tuple(s), M, False),
                     _tail_bound(s[-1], tuple(s)[:-1], M))


def check_prodsum0(s, M: int = 10 ** 6, tol: float = 1e-5) -> Report:
    """The classical analogue of the slice identity: sum of zeta * dagger = 0."""
    s = Index(s)
    if s.is_empty or s[0] < 2 or s[-1] < 2:
        raise NotAdmissible("need first and last entry >= 2 so every slice converges")
    total = 0.0
    bound = tol
    for i in range(s.depth + 1):
        a = mzv_num(s.prefix(i), M)
        b = mzdv_num(s.drop(i), M)
        total += float(a.value) * float(b.value)
        bound += (abs(float(a.value)) * b.tail_bound + abs(float(b.value)) * a.tail_bound
                  + a.tail_bound * b.tail_bound)
    ok = abs(total) <= bound
    return Report(
        check="prodsum0", params={"index": str(s), "terms": M, "tol": tol},
        cases=[Case(input=str(s), status="pass" if ok else "fail",
                    detail=f"|sum| = {abs(total):.3e}, allowance {bound:.3e}")])


def duality_report(s, M: int = 10 ** 6, tol: float = 1e-5) -> Report:
    s = Index(s)
    d = dual_index(s)
    a = mzv_num(s, M)
    b = mzv_num(d, M)
    ok = a.agrees_with(b, tol)
    return Report(
        check="duality", params={"index": str(s), "terms": M, "tol": tol},
        cases=[Case(input=f"{s} vs {d}", status="pass" if ok else "fail",
                    detail=f"{float(a.value):.10f} vs {float(b.value):.10f}")])


def example45_report(M: int = 10 ** 6, tol: float = 1e-5) -> Report:
    """Values around the classical counterexample candidate.

    Emits zeta(2,4), zeta(2,1,1,2) (with the duality sub-check), the two
    dagger values, and zeta(3)^2.  The congruences modulo zeta(2) are an
    open matter and are not decided here.
    """
    z24 = mzv_num(Index((2, 4)), M)
    z2112 = mzv_num(Index((2, 1, 1, 2)), M)
    d24 = mzdv_num(Index((2, 4)), M)
    d2112 = mzdv_num(Index((2, 1, 1, 2)), M)
    z3 = mzv_num(Index((3,)), M)
    dual_ok = z24.agrees_with(z2112, tol)
    cases = [
        Case(input="zeta(2,4) = zeta(2,1,1,2)", status="pass" if dual_ok else "fail",
             detail=f"{float(z24.value):.10f} vs {float(z2112.value):.10f}"),
        Case(input="zeta-dagger(2,4)", status="observation",
             detail=f"{float(d24.value):.10f} (tail {d24.tail_bound:.2e})"),
        Case(input="zeta-dagger(2,1,1,2)", status="observation",
             detail=f"{float(d2112.value):.10f} (tail {d2112.tail_bound:.2e})"),
        Case(input="zeta(3)^2", status="observation",
             detail=f"{float(z3.value) ** 2:.10f}"),
    ]
    return Report(check="example45", params={"terms": M, "tol": tol}, cases=cases)
