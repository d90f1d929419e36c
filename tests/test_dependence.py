"""Numeric dependence search: recovery, emptiness, and soundness."""

import random

import pytest

from ffmzv import (DependenceProblem, Evaluator, Index, InvalidInput,
                   LaurentSeries, Poly, carlitz_l, field, find_dependence,
                   recommended_precision)
from ffmzv._gfnum import GFVec
from ffmzv.dependence import precision_warning
from ffmzv.indices import EMPTY


@pytest.fixture(scope="module")
def e2():
    return Evaluator(field(2))


def test_fundamental_relation_recovered(e2):
    F = field(2)
    vals = [e2.eval_value("li", Index((2,)), 30),
            e2.eval_value("li", Index((1, 1)), 30)]
    kernel = find_dependence(DependenceProblem(vals, 2))
    assert len(kernel) == 1
    a, b = kernel[0]
    assert a == F.poly([1])
    assert b == carlitz_l(F, 1)


def test_single_value_empty_kernel(e2):
    v = e2.eval_value("zeta", Index((1,)), 30)
    assert find_dependence(DependenceProblem([v], 3)) == []


def test_independent_pair_empty_kernel(e2):
    one = e2.eval_value("zeta", EMPTY, 30)
    z1 = e2.eval_value("zeta", Index((1,)), 30)
    assert find_dependence(DependenceProblem([one, z1], 2)) == []


def test_frobenius_square_relation(e2):
    z1 = e2.eval_value("zeta", Index((1,)), 30)
    z2 = e2.eval_value("zeta", Index((2,)), 30)
    kernel = find_dependence(DependenceProblem([z1 * z1, z2.with_prec((z1 * z1).prec)], 0))
    assert len(kernel) == 1
    a, b = kernel[0]
    assert str(a) == "1" and str(b) == "1"


def test_candidates_verify_against_inputs(e2):
    F = field(2)
    vals = [e2.eval_value("li", Index((2,)), 36),
            e2.eval_value("li", Index((1, 1)), 36),
            e2.eval_value("li", Index((1,)), 36)]
    prob = DependenceProblem(vals, 2)
    for tup in find_dependence(prob):
        acc = LaurentSeries.zero(F, 36)
        for p, v in zip(tup, vals):
            for t, c in enumerate(p.c):
                if c:
                    acc = acc + v.shift(t).scale(F.from_index(c))
        assert acc.is_zero_to_prec


def test_inputs_zero_to_precision_carry_no_candidates(e2):
    """li(1,1,1,1,1,1,1) has order 240 at q = 2, so at precision 60 it is
    stored as zero and 1·v = 0 holds vacuously; such candidates are dropped,
    while a true relation beside a zero input is still found."""
    F = field(2)
    vals = [e2.eval_value("li", Index(s), 60)
            for s in ((1,) * 7, (2, 1, 1, 1, 1, 1), (7,), (1, 6))]
    assert [v.is_zero_to_prec for v in vals] == [True, True, False, False]
    assert find_dependence(DependenceProblem(vals, 3)) == []
    vals = [e2.eval_value("li", Index(s), 30) for s in ((2,), (1,) * 7, (1, 1))]
    assert vals[1].is_zero_to_prec
    kernel = find_dependence(DependenceProblem(vals, 2))
    assert kernel == [(F.poly([1]), F.poly([]), carlitz_l(F, 1))]


def test_raising_precision_never_enlarges_kernel(e2):
    def kernel_at(n):
        vals = [e2.eval_value("li", Index((2,)), n),
                e2.eval_value("li", Index((1, 1)), n),
                e2.eval_value("li", Index((2, 1)), n)]
        return find_dependence(DependenceProblem(vals, 2))

    low = kernel_at(26)
    high = kernel_at(40)
    assert len(high) <= len(low)
    assert len(high) == 1  # the lifted fundamental relation survives


def test_input_validation(e2):
    with pytest.raises(InvalidInput):
        DependenceProblem([], 2)
    a = e2.eval_value("li", Index((1,)), 30)
    b = e2.eval_value("li", Index((2,)), 25)
    with pytest.raises(InvalidInput):
        DependenceProblem([a, b], 2)  # mixed precision
    e3 = Evaluator(field(3))
    c = e3.eval_value("li", Index((1,)), 30)
    with pytest.raises(InvalidInput):
        DependenceProblem([a, c], 2)  # mixed fields
    for values in ([1, 2], [a, 2], [2, a]):
        with pytest.raises(InvalidInput, match="Laurent series"):
            DependenceProblem(values, 1)


def test_precision_recommendation():
    assert recommended_precision(2, 2) == 14
    e = Evaluator(field(2))
    vals = [e.eval_value("li", Index((2,)), 10), e.eval_value("li", Index((1, 1)), 10)]
    assert precision_warning(DependenceProblem(vals, 2)) is not None
    vals = [e.eval_value("li", Index((2,)), 30), e.eval_value("li", Index((1, 1)), 30)]
    assert precision_warning(DependenceProblem(vals, 2)) is None


def kernel_matrix_reference(problem):
    """The dependence matrix built one cell at a time from the shifted series."""
    D, vals = problem.deg_bound, problem.values
    low = -(problem.prec - D)
    high = max((v.lead if not v.is_zero_to_prec else low) for v in vals) + D
    high = max(high, low)
    mat = [[0] * (len(vals) * (D + 1)) for _ in range(high - low + 1)]
    for j, v in enumerate(vals):
        for t in range(D + 1):
            for r, expo in enumerate(range(high, low - 1, -1)):
                mat[r][j * (D + 1) + t] = v.shift(t).coeff(expo).i
    return mat


def test_kernel_matrix_matches_cell_by_cell(e2, monkeypatch):
    seen = []
    real = GFVec.kernel

    def recording(self, rows):
        seen.append([list(r) for r in rows])
        return real(self, rows)

    monkeypatch.setattr(GFVec, "kernel", recording)
    e4 = Evaluator(field(4))
    F4 = field(4)
    problems = [
        DependenceProblem([e2.eval_value("li", Index((2,)), 30),
                           e2.eval_value("li", Index((1, 1)), 30),
                           LaurentSeries.zero(field(2), 30)], 2),
        DependenceProblem([e4.eval_value("zeta", Index((5,)), 24),
                           e4.eval_value("zeta", Index((1, 4)), 24).scale(F4.gen),
                           e4.eval_value("li", EMPTY, 27).shift(3)], 3),
    ]
    for prob in problems:
        seen.clear()
        find_dependence(prob)
        assert len(seen) == 1 and seen[0] == kernel_matrix_reference(prob)


def test_reverification_reaches_below_the_matrix():
    """v and v + T^-N agree on every matrix row at degree bound 1, so (1, -1)
    is in the kernel; substituted back at precision N it fails and is dropped."""
    F, N = field(3), 20
    one = LaurentSeries(F, 0, [1], N)
    bumped = LaurentSeries(F, 0, [1] + [0] * (N - 1) + [1], N)
    assert find_dependence(DependenceProblem([one, bumped], 1)) == []


def normalised_reference(problem, kernel):
    """The candidates of ``find_dependence`` from its kernel basis, by a Poly
    per block, each scaled by the inverse lead of the first nonzero one;
    also the leads."""
    F, vals, w = problem.spec, problem.values, problem.deg_bound + 1
    inputs = F.vec.pack_series([v.c for v in vals], len(vals) * w)
    out, leads = [], []
    for codes in kernel:
        polys = [Poly._make(F, tuple(codes[j * w:(j + 1) * w])) for j in range(len(vals))]
        if all(v.is_zero_to_prec for p, v in zip(polys, vals) if not p.is_zero):
            continue
        lead = next(p for p in polys if not p.is_zero).leading()
        leads.append(lead.i)
        polys = [p.scale(lead.inverse()) for p in polys]
        terms = [(j, p.c, v.lead) for j, (p, v) in enumerate(zip(polys, vals))
                 if not p.is_zero and not v.is_zero_to_prec]
        if F.vec.combination_vanishes(inputs, terms, max(p.degree for p in polys) - problem.prec):
            out.append(tuple(polys))
    return out, leads


@pytest.mark.parametrize("q", [4, 9])
def test_candidates_normalised_from_leads_other_than_1(q, monkeypatch):
    """Over GF(4) and GF(9) the first nonzero block of a kernel vector need
    not lead with 1: the inputs (u v, v) give -u^-1, (v, (g + h T) v) give
    -(g + h T), whose lead is -h, and random relations give random leads.
    Each candidate, normalised through one row of the multiplication
    table, is the candidate of the Poly-then-scale reference, with an input
    zero to precision and a failing re-verification among the problems."""
    F = field(q)
    rng = random.Random(q)
    seen = []
    real = GFVec.kernel

    def recording(self, rows):
        seen.append(real(self, rows))
        return seen[-1]

    monkeypatch.setattr(GFVec, "kernel", recording)
    N, leads = 20, set()
    for _ in range(6):
        v, w = (LaurentSeries._make(F, rng.randint(-2, 1), [rng.randrange(q) for _ in range(N + 2)],
                                    N) for _ in range(2))
        a, b = (F.poly([F.from_index(rng.randrange(q)) for _ in range(2)]) for _ in range(2))
        g, h = rng.sample(range(1, q), 2)
        rel = combination_reference([a, b], [v, w])
        gh = combination_reference([F.poly([F.from_index(g), F.from_index(h)])], [v])
        M = min(rel.prec, gh.prec)
        zero = LaurentSeries.zero(F, M)
        bumped = LaurentSeries._make(F, 0, [1] + [0] * (M - 1) + [1], M)
        problems = [([v.scale(F.gen), v], 0),
                    ([v, gh], 1),
                    ([rel, v, w, zero], 1),
                    ([bumped, LaurentSeries._make(F, 0, [1], M)], 1)]
        for vals, D in problems:
            vals = [x.with_prec(M) for x in vals]
            prob = DependenceProblem(vals, D)
            seen.clear()
            got = find_dependence(prob)
            want, first = normalised_reference(prob, seen[0])
            assert got == want, vals
            assert bool(got) != (vals[0] is bumped), vals
            leads.update(first)
    assert leads - {1}


def combination_reference(polys, vals):
    """The series re-verification: sum_j p_j v_j from shifts and scales."""
    acc = None
    for p, v in zip(polys, vals):
        term = LaurentSeries.zero(v.spec, v.prec - max(p.degree, 0))
        for t, c in enumerate(p.c):
            if c:
                term = term + v.shift(t).scale(v.spec.from_index(c))
        acc = term if acc is None else acc + term
    return acc


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_combination_vanishes_matches_series(q):
    """Random p_j, v_j plus a last value that cancels them, with one code
    changed just above or below the checked precision."""
    F, N, top = field(q), 16, 6
    rng = random.Random(q)
    for _ in range(30):
        m = rng.randint(1, 3)
        polys = [F.poly([F.from_index(rng.randrange(q)) for _ in range(rng.randint(0, 4))])
                 for _ in range(m)] + [F.poly([1])]
        vals = [LaurentSeries._make(F, rng.randint(-3, 2),
                                    [rng.randrange(q) for _ in range(N + 3)], N)
                for _ in range(m)]
        rest = -combination_reference(polys[:-1], vals)
        codes = [rest.coeff(x).i if x >= -rest.prec else rng.randrange(q)
                 for x in range(top, -N - 1, -1)]
        floor = max(max(p.degree, 0) for p in polys) - N
        bump = rng.randint(floor - 2, floor + 2)
        if bump >= -N:
            codes[top - bump] = F.add_idx(codes[top - bump], 1)
        vals.append(LaurentSeries._make(F, top, codes, N))
        want = bump < floor
        assert combination_reference(polys, vals).is_zero_to_prec == want
        inputs = F.vec.pack_series([v.c for v in vals], len(vals) * 5)
        terms = [(j, p.c, v.lead) for j, (p, v) in enumerate(zip(polys, vals))
                 if not p.is_zero and not v.is_zero_to_prec]
        assert F.vec.combination_vanishes(inputs, terms, floor) == want
