"""Generators, rewriting, quotients, the involution, and the checkers."""

import random

import pytest

from ffmzv import (EMPTY, Evaluator, Index, IndexAlgebra, InvalidInput, RatFunc, Reducer,
                   ReductionDiverged, carlitz_bracket, compositions, field, thakur_indices)
from ffmzv.reduction import BasisVector, QuotientSpace, _echelon


def l1(ctx):
    return RatFunc.of(carlitz_bracket(ctx.field, 1), ctx.field)


def gen_triples(q, wmax):
    for w in range(q, wmax + 1):
        for m in range(1, w // q + 1):
            rest = w - m * q
            for ws in range(rest + 1):
                for s in compositions(ws):
                    for n in compositions(rest - ws):
                        yield s, m, n


def test_gen_a_fundamental_shape(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        A, R, q = ctx.algebra, ctx.reducer, ctx.field.q
        for fam in ("li", "zeta"):
            g = R.gen_A(fam, EMPTY, 1, EMPTY)
            assert g == A.mono((q,)) - A.mono((1, q - 1)).scale(l1(ctx))


def test_gen_a_weight(ctx3):
    R = ctx3.reducer
    rng = random.Random(0)
    pool = [s for w in range(0, 4) for s in compositions(w)]
    for _ in range(10):
        s, n = rng.choice(pool), rng.choice(pool)
        m = rng.randint(1, 2)
        for fam in ("li", "zeta"):
            g = R.gen_A(fam, s, m, n)
            w = s.weight + m * ctx3.field.q + n.weight
            assert all(t.weight == w for t in g.terms)


def test_decompose(ctx2):
    R = ctx2.reducer
    d = R.decompose_T(Index((1, 2, 2, 5, 1)))
    assert (d.s, d.m, d.n) == (Index((1,)), 3, Index((5, 1)))
    d = R.decompose_T(Index((2,)))
    assert (d.s, d.m, d.n) == (EMPTY, 2, EMPTY)
    d = R.decompose_T(Index((1, 2, 1)))
    assert (d.s, d.m, d.n) == (Index((1, 2, 1)), 1, EMPTY)
    assert d.s.is_thakur(2)


def test_decompose_roundtrip_random():
    rng = random.Random(42)
    for q in (2, 3, 4):
        R = Reducer(IndexAlgebra(field(q)))
        for _ in range(4000):
            s = Index([rng.randint(1, q + 3) for _ in range(rng.randint(0, 7))])
            d = R.decompose_T(s)
            assert d.reassemble(q) == s
            assert d.s.is_thakur(q)
            assert d.n.in_iprime(q)
            assert d.m >= 1


def test_u_step_examples(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        A, R, q = ctx.algebra, ctx.reducer, ctx.field.q
        got = R.u_step("li", A.mono((q,)))
        assert got == A.mono((1, q - 1)).scale(l1(ctx))
        assert R.u_step("li", A.mono((1,))) == A.mono((1,))
    # q=2: (3) -> (2,1) + L1*(1,2)
    A, R = ctx2.algebra, ctx2.reducer
    got = R.u_step("li", A.mono((3,)))
    assert got == A.mono((2, 1)) + A.mono((1, 2)).scale(l1(ctx2))


def test_u_step_preserves_values(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        A, R, E = ctx.algebra, ctx.reducer, ctx.evaluator
        for fam in ("li", "zeta"):
            for s in ((ctx.field.q,), (ctx.field.q + 1,), (1, ctx.field.q)):
                stepped = R.u_step(fam, A.mono(s))
                assert E.eval_value(fam, stepped, 40) == E.eval_value(fam, Index(s), 40)


def test_reduce_fixes_thakur_support(ctx3):
    A, R = ctx3.algebra, ctx3.reducer
    P = A.mono((1, 2)) + A.mono((3, 1)).scale(ctx3.field.rat(ctx3.field.T))
    assert R.reduce_to_T("li", P) == P


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("fam", ["li", "zeta"])
def test_kernel_reduction(q, fam, ctx2, ctx3):
    ctx = ctx2 if q == 2 else ctx3
    R = ctx.reducer
    for s, m, n in gen_triples(q, 6):
        red = R.reduce_to_T(fam, R.gen_A(fam, s, m, n))
        assert red.is_zero, (fam, s, m, n)


def test_reduction_cap():
    ctx = Reducer(IndexAlgebra(field(2)))
    with pytest.raises(ReductionDiverged) as err:
        ctx.reduce_to_T("li", ctx.algebra.mono((5, 5)), cap=1)
    assert err.value.trail


def test_reducer_cap_is_keyword_only():
    A = IndexAlgebra(field(2))
    with pytest.raises(TypeError):
        Reducer(A, 5)
    assert Reducer(A, cap=5).cap == 5


def test_cap_bounds_the_height_fresh_and_warmed():
    """(5,5) at q=2 needs 43 rewriting levels, whatever is memoised already."""
    height = 43
    fresh = Reducer(IndexAlgebra(field(2)))
    P = fresh.algebra.mono((5, 5))
    red = fresh.reduce_to_T("li", P, cap=height)
    assert red.support() and all(a.is_thakur(2) for a in red.terms)
    with pytest.raises(ReductionDiverged):  # warmed: every index is memoised
        fresh.reduce_to_T("li", P, cap=height - 1)
    assert fresh.reduce_to_T("li", P, cap=height) == red
    fresh = Reducer(IndexAlgebra(field(2)))
    with pytest.raises(ReductionDiverged) as err:
        fresh.reduce_to_T("li", P, cap=height - 1)
    assert err.value.trail[0] == Index((5, 5))
    assert fresh.reduce_to_T("li", P, cap=height) == red  # warmed by the failed run


def test_rewriting_cycle_raises_with_the_cycle(monkeypatch):
    R = Reducer(IndexAlgebra(field(2)))
    A = R.algebra
    a, b, c = Index((3,)), Index((1, 2)), Index((4,))
    rule = {c: A.mono(a), a: A.mono(b) + A.mono((1, 1)), b: A.mono(a)}
    monkeypatch.setattr(R, "_u_image", lambda family, x: rule[x])
    with pytest.raises(ReductionDiverged) as err:
        R.reduce_to_T("li", A.mono(c))
    assert err.value.trail == (a, b)


def test_unbounded_rewriting_raises(monkeypatch):
    """A chain deeper than the recursion limit is a ReductionDiverged, not a crash."""
    R = Reducer(IndexAlgebra(field(2)))
    A = R.algebra
    monkeypatch.setattr(R, "_u_image", lambda family, x: A.mono((x[0] + 1,)))
    with pytest.raises(ReductionDiverged) as err:
        R.reduce_to_T("li", A.mono((3,)))
    assert err.value.trail == (Index((3,)),)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_rewriting_other_fields(q):
    """Generators reduce to zero and normal forms keep values, beyond q in {2, 3}."""
    F = field(q)
    R, E = Reducer(IndexAlgebra(F)), Evaluator(F)
    A = R.algebra
    for fam in ("li", "zeta"):
        for s, m, n in ((EMPTY, 1, EMPTY), (Index((1,)), 1, EMPTY), (EMPTY, 1, Index((1,)))):
            assert R.reduce_to_T(fam, R.gen_A(fam, s, m, n)).is_zero, (fam, s, m, n)
        for s in ((q,), (q + 1,), (1, q), (q, 1)):
            red = R.reduce_to_T(fam, A.mono(s))
            assert all(a.is_thakur(q) for a in red.terms)
            diff = E.eval_value(fam, red, 30) - E.eval_value(fam, Index(s), 30)
            assert diff.is_zero_to_prec and diff.prec == 30, (fam, s, diff.prec)


def test_value_preservation(ctx2, ctx3):
    rng = random.Random(7)
    for ctx in (ctx2, ctx3):
        E, A, R = ctx.evaluator, ctx.algebra, ctx.reducer
        pool = [s for w in range(1, 7) for s in compositions(w)]
        for _ in range(10):
            s = rng.choice(pool)
            for fam in ("li", "zeta"):
                red = R.reduce_to_T(fam, A.mono(s))
                assert E.eval_value(fam, red, 40) == E.eval_value(fam, s, 40), (fam, s)


def test_reduce_li_3_at_q2_numeric_oracle(ctx2):
    """The weight-3 reduction, cross-checked against the numeric value."""
    A, R, E = ctx2.algebra, ctx2.reducer, ctx2.evaluator
    red = R.reduce_to_T("li", A.mono((3,)))
    assert all(t.is_thakur(2) for t in red.terms)
    assert E.eval_value("li", red, 40) == E.eval_value("li", Index((3,)), 40)


def test_dagger_expand(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        R, A = ctx.reducer, ctx.algebra
        for fam in ("li", "zeta"):
            assert R.dagger_expand(fam, EMPTY) == A.one()
            for s in (1, 2, 3):
                assert R.dagger_expand(fam, Index((s,))) == A.mono((s,), -1)
    # depth 2, li side: (s2, s1) + (s1+s2)
    A3, R3 = ctx3.algebra, ctx3.reducer
    assert R3.dagger_expand("li", Index((1, 2))) == A3.mono((2, 1)) + A3.mono((3,))
    # q=2: dagger(3,3) - (3,3) = (6)
    A2, R2 = ctx2.algebra, ctx2.reducer
    assert R2.dagger_expand("li", Index((3, 3))) - A2.mono((3, 3)) == A2.mono((6,))


def test_dagger_expand_soundness_numeric(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        E, R = ctx.evaluator, ctx.reducer
        for w in range(1, 8):
            for s in compositions(w, max_depth=4):
                if s.depth > 4 or w > 7:
                    continue
                for fam in ("li", "zeta"):
                    famd = fam + "-dagger"
                    lhs = E.eval_value(famd, s, 40)
                    rhs = E.eval_value(fam, R.dagger_expand(fam, s), 40)
                    assert lhs == rhs, (fam, s)


def test_linear_solve(ctx2):
    R = ctx2.reducer
    F = ctx2.field
    zero = BasisVector(2, {})
    v1 = BasisVector(2, {Index((1, 1)): RatFunc.of(1, F)})
    assert R.linear_solve([v1], zero) == [RatFunc.of(0, F)]
    assert R.linear_solve([v1], v1) == [RatFunc.of(1, F)]
    assert R.linear_solve([], zero) == []
    # q=2, w=2: reduce(li, (2)) lies in span of reduce(li, (1)*(1))
    A = ctx2.algebra
    t1 = R.to_vector(2, R.reduce_to_T("li", A.mono((2,))))
    t2 = R.to_vector(2, R.reduce_to_T("li", A.harmonic(A.mono((1,)), A.mono((1,)))))
    got = R.linear_solve([t2], t1)
    assert got == [RatFunc.of(1, F)]
    # and something outside a one-vector span at weight 3
    e1 = BasisVector(3, {Index((1, 1, 1)): RatFunc.of(1, F)})
    e2 = BasisVector(3, {Index((2, 1)): RatFunc.of(1, F)})
    assert R.linear_solve([e1], e2) is None
    both = BasisVector(3, {Index((1, 1, 1)): RatFunc.of(F.T, F),
                           Index((2, 1)): RatFunc.of(1, F)})
    coeffs = R.linear_solve([e1, e2], both)
    assert coeffs == [RatFunc.of(F.T, F), RatFunc.of(1, F)]


def test_linear_solve_dependent_set(ctx3):
    R, F = ctx3.reducer, ctx3.field
    T = RatFunc.of(F.T, F)
    one = RatFunc.of(1, F)
    x, y, z = Index((1, 1, 1)), Index((1, 2)), Index((2, 1))
    vecs = [BasisVector(3, {x: one, y: T}),
            BasisVector(3, {y: one, z: one}),
            BasisVector(3, {x: one, y: T + one, z: one}),  # the sum of the first two
            BasisVector(3, {x: T})]
    target = BasisVector(3, {x: T * T + one, y: T - one, z: one})
    coeffs = R.linear_solve(vecs, target)
    combo = {}
    for c, v in zip(coeffs, vecs):
        for s, e in v.coords.items():
            combo[s] = combo.get(s, RatFunc.of(0, F)) + c * e
    assert BasisVector(3, combo) == target
    assert R.linear_solve(vecs[:3], BasisVector(3, {x: one})) is None


def test_quotient_dimensions(ctx2, ctx4):
    qs = ctx2.reducer.quotient_space(6)
    assert (qs.dim_space, qs.dim_ideal, qs.dim_quotient) == (8, 5, 3)
    # below the ideal weight there is nothing to mod out
    assert ctx4.reducer.quotient_space(2).dim_ideal == 0


def test_li6_class_nonzero(ctx2):
    A, R = ctx2.algebra, ctx2.reducer
    red = R.reduce_to_T("li", A.mono((6,)))
    qs = R.quotient_space(6)
    assert not qs.class_is_zero(R.to_vector(6, red))


def test_iota_weight_one_p_odd(ctx3):
    m = ctx3.reducer.iota_matrix(1)
    assert m.dim == 1
    assert m.rows[0][0] == RatFunc.of(-1, ctx3.field)


def test_iota_weight_zero(ctx2):
    m = ctx2.reducer.iota_matrix(0)
    assert m.dim == 1 and m.rows[0][0] == RatFunc.of(1, ctx2.field)


@pytest.mark.parametrize("q", [2, 3])
def test_iota_involution(q, ctx2, ctx3):
    ctx = ctx2 if q == 2 else ctx3
    for w in range(0, 7):
        assert ctx.reducer.iota_matrix(w).squared_is_identity(), w


def test_nontriviality_witnesses(ctx2, ctx3, ctx4):
    # p != 2: class(dagger(1) - (1)) != 0 at weight 1
    A3, R3 = ctx3.algebra, ctx3.reducer
    wit = R3.reduce_to_T("li", R3.dagger_expand("li", Index((1,))) - A3.mono((1,)))
    assert not R3.quotient_space(1).class_is_zero(R3.to_vector(1, wit))
    # q >= 4: class((2)) != 0 at weight 2
    A4, R4 = ctx4.algebra, ctx4.reducer
    wit = R4.reduce_to_T("li", A4.mono((2,)))
    assert not R4.quotient_space(2).class_is_zero(R4.to_vector(2, wit))
    # q = 2: class((6)) != 0 at weight 6
    A2, R2 = ctx2.algebra, ctx2.reducer
    wit = R2.reduce_to_T("li", A2.mono((6,)))
    assert not R2.quotient_space(6).class_is_zero(R2.to_vector(6, wit))


@pytest.mark.parametrize("q", [2, 3])
def test_check_theorem(q, ctx2, ctx3):
    ctx = ctx2 if q == 2 else ctx3
    for w in range(0, 7):
        rep = ctx.reducer.check_theorem(w)
        assert rep.ok, (q, w, [c for c in rep.cases if c.status == "fail"])


def test_check_theorem_weight_zero_vacuous(ctx2):
    rep = ctx2.reducer.check_theorem(0)
    assert rep.ok and len(rep.cases) == 1  # only the involution case


def test_check_keylemma(ctx2, ctx3):
    r = ctx2.reducer.check_keylemma(Index((2,)), EMPTY, [])
    assert r.ok and "exact zero" in r.cases[0].detail
    assert ctx2.reducer.check_keylemma(EMPTY, Index((1,)), [1]).ok
    assert ctx3.reducer.check_keylemma(Index((1,)), EMPTY, [2]).ok
    assert ctx3.reducer.check_keylemma(Index((1,)), Index((2,)), [1]).ok
    with pytest.raises(InvalidInput):
        ctx2.reducer.check_keylemma(EMPTY, EMPTY, [])


@pytest.mark.parametrize("q", [2, 3])
def test_check_prop41(q, ctx2, ctx3):
    ctx = ctx2 if q == 2 else ctx3
    for s in range(1, 5):
        for n in range(1, 5):
            rep = ctx.reducer.check_prop41(s, n)
            assert rep.ok, (q, s, n)


def test_check_prop42(ctx2, ctx3):
    assert ctx2.reducer.check_prop42(EMPTY, EMPTY).ok
    assert ctx3.reducer.check_prop42(Index((1,)), Index((2,))).ok
    # outside the hypotheses: only an observation, never a failure
    rep = ctx2.reducer.check_prop42(Index((2,)), EMPTY)
    assert rep.cases[0].status == "observation"
    rep = ctx2.reducer.check_prop42(EMPTY, Index((1, 1)))
    assert rep.cases[0].status == "observation"


def test_check_conjecture(ctx2):
    rep = ctx2.reducer.check_conjecture(EMPTY)
    assert rep.cases[0].status == "observation"
    assert "equal" in rep.cases[0].detail
    for s in ((1,), (2,), (3,), (4,)):
        rep = ctx2.reducer.check_conjecture(Index(s))
        assert rep.cases[0].status == "observation"
        assert rep.cases[0].detail == "classes equal"
    rep = ctx2.reducer.check_conjecture(Index((1, 2)))
    assert rep.cases[0].status == "observation"


# -- reference elimination over F_q(T) ------------------------------------------------
# The elimination in ffmzv.reduction runs fraction-free over F_q[T]; this is
# the plain Gauss-Jordan over F_q(T) it replaced, kept here as the oracle.
# Reduced row echelon forms are unique, so both must agree entry for entry.

def _field_echelon(rows, ncols: int):
    """Reduced row echelon form over F_q(T): (nonzero rows, pivot columns ascending)."""
    rows = [list(r) for r in rows]
    pivots = []
    for ci in range(ncols):
        rank = len(pivots)
        sel = next((r for r in range(rank, len(rows)) if not rows[r][ci].is_zero), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = rows[rank][ci].inverse()
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][ci].is_zero:
                f = rows[r][ci]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(ci)
    return rows[:len(pivots)], pivots


def _field_reduce(vec, echelon, pivots):
    """The residual of a dense vector after clearing every pivot column of the echelon."""
    vec = list(vec)
    for row, pc in zip(echelon, pivots):
        c = vec[pc]
        if not c.is_zero:
            vec = [a if b.is_zero else a - c * b for a, b in zip(vec, row)]
    return vec


def _dense(F, basis, vec):
    zero = RatFunc.of(0, F)
    return [vec.coords.get(s, zero) for s in basis]


def _oracle_class(F, basis, gens, vec):
    echelon, pivots = _field_echelon([_dense(F, basis, g) for g in gens], len(basis))
    dense = _field_reduce(_dense(F, basis, vec), echelon, pivots)
    return [v for i, v in enumerate(dense) if i not in pivots]


def _oracle_solve(F, basis, vectors, target):
    zero, one, n = RatFunc.of(0, F), RatFunc.of(1, F), len(vectors)
    rows = [_dense(F, basis, v) + [one if j == i else zero for j in range(n)]
            for i, v in enumerate(vectors)]
    echelon, pivots = _field_echelon(rows, len(basis) + n)
    residual = _field_reduce(_dense(F, basis, target) + [zero] * n, echelon, pivots)
    if any(not v.is_zero for v in residual[:len(basis)]):
        return None
    return [-v for v in residual[len(basis):]]


def _assert_same_echelon(F, rows, ncols):
    echelon, pivots = _echelon(rows, ncols)
    ref_rows, ref_pivots = _field_echelon(rows, ncols)
    assert pivots == ref_pivots
    assert [[RatFunc(x, row[pc]) for x in row] for row, pc in zip(echelon, pivots)] == ref_rows
    return echelon, pivots


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_elimination_matches_field_oracle(q):
    """Quotients, class vectors, iota rows and linear_solve at w <= 6 equal the
    F_q(T) Gauss-Jordan reference exactly."""
    R = Reducer(IndexAlgebra(field(q)))
    F, A = R.field, R.algebra
    for w in range(0, 7):
        qs = R.quotient_space(w)
        gens = qs.ideal_gens
        _assert_same_echelon(F, [_dense(F, qs.basis, g) for g in gens], len(qs.basis))
        images = [R.to_vector(w, R.reduce_to_T(fam, P)) for fam, P in
                  [("li", R.dagger_expand("li", a)) for a in qs.quotient_basis]
                  + [("zeta", A.mono(s)) for s in thakur_indices(q, w)[:3]]]
        cols = [_oracle_class(F, qs.basis, gens, v) for v in images]
        assert [qs.class_vector(v) for v in images] == cols
        assert [qs.class_is_zero(v) for v in images] == [all(x.is_zero for x in c)
                                                          for c in cols]
        assert R.iota_matrix(w).rows == [list(r) for r in zip(*cols[:qs.dim_quotient])]
        for target in images[-2:] + gens[-1:]:
            assert R.linear_solve(gens, target) == _oracle_solve(F, qs.basis, gens, target)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_elimination_fractional_rows_match_field_oracle(q):
    """Genuinely fractional, rank-deficient rows take the lcm-clearing path."""
    F = field(q)
    R = Reducer(IndexAlgebra(F))
    rng = random.Random(1000 + q)
    w = 6 if q == 2 else 5
    basis = thakur_indices(q, w)

    def poly(deg):
        return F.poly([F.from_index(rng.randrange(q)) for _ in range(deg + 1)])

    def rat():
        den = poly(rng.randint(0, 2))
        while den.is_zero:
            den = poly(rng.randint(0, 2))
        return RatFunc(poly(rng.randint(0, 2)), den)

    def combo(coeffs, vecs):
        out = {}
        for c, v in zip(coeffs, vecs):
            for s, e in v.coords.items():
                out[s] = out.get(s, RatFunc.of(0, F)) + c * e
        return BasisVector(w, out)

    for _ in range(4):
        free = [BasisVector(w, {s: rat() for s in rng.sample(basis, rng.randint(2, 5))})
                for _ in range(4)]
        vecs = free + [combo([rat() for _ in free], free) for _ in range(2)]
        rng.shuffle(vecs)
        assert any(not c.is_poly for v in vecs for c in v.coords.values())
        echelon, pivots = _assert_same_echelon(
            F, [_dense(F, basis, v) for v in vecs], len(basis))
        assert len(pivots) < len(vecs)
        qs = QuotientSpace(w, basis, vecs, echelon, pivots, F)
        inside = combo([rat() for _ in vecs], vecs)
        outside = BasisVector(w, {s: rat() for s in basis})
        for target in (inside, outside):
            assert qs.class_vector(target) == _oracle_class(F, basis, vecs, target)
            assert R.linear_solve(vecs, target) == _oracle_solve(F, basis, vecs, target)
        assert qs.class_is_zero(inside) and R.linear_solve(vecs, inside) is not None


def test_check_theorem_weight_8_q2(ctx2):
    rep = ctx2.reducer.check_theorem(8)
    assert rep.ok and len(rep.cases) == 179


def test_iota_involution_weight_7_q3(ctx3):
    assert ctx3.reducer.iota_matrix(7).squared_is_identity()
