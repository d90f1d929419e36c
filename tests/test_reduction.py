"""Generators, rewriting, quotients, the involution, and the checkers."""

import random

import pytest

from ffmzv import (EMPTY, Evaluator, Index, IndexAlgebra, IndexPoly, InvalidInput,
                   ProductKind, RatFunc, Reducer, ReductionDiverged, carlitz_bracket,
                   compositions, field, thakur_indices)
from ffmzv.reduction import BasisVector, QuotientSpace, _echelon, _phi, _phi_poly
from test_indices import CopyAndAdd, same_terms


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
    monkeypatch.setattr(R, "_rewrite", lambda family, x: rule[x])
    with pytest.raises(ReductionDiverged) as err:
        R.reduce_to_T("li", A.mono(c))
    assert err.value.trail == (a, b)


def test_unbounded_rewriting_raises(monkeypatch):
    """A chain deeper than the recursion limit is a ReductionDiverged, not a crash."""
    R = Reducer(IndexAlgebra(field(2)))
    A = R.algebra
    monkeypatch.setattr(R, "_rewrite", lambda family, x: A.mono((x[0] + 1,)))
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


# -- the accumulator against the copy-and-add sums it replaced ---------------------

class CopyAndAddReducer(CopyAndAdd):
    """Normal forms and dagger expansions summed with out = out + P.scale(c),
    over the reducer's own one-step images."""

    def __init__(self, R):
        super().__init__(R.algebra)
        self.R = R
        self._nf = {}
        self._dagger = {}

    def normal_form(self, fam, a):
        if a.is_thakur(self.R.q):
            return self.A.mono(a)
        if (fam, a) not in self._nf:
            self._nf[fam, a] = self.sum([(self.normal_form(fam, b), c)
                                         for b, c in self.R._u_image(fam, a).terms.items()])
        return self._nf[fam, a]

    def reduce_to_T(self, fam, P):
        return self.sum([(self.normal_form(fam, a), c) for a, c in P.terms.items()])

    def dagger_expand(self, fam, s):
        if s.is_empty:
            return self.A.one()
        if (fam, s) not in self._dagger:
            kind = ProductKind.HARMONIC if fam == "li" else ProductKind.QSHUFFLE
            self._dagger[fam, s] = self.sum(
                [(self.product(self.A.mono(s.prefix(i)), self.dagger_expand(fam, s.drop(i)),
                               kind), -1) for i in range(1, s.depth + 1)])
        return self._dagger[fam, s]


def _reduction_pool(q):
    if q <= 3:
        return [s for w in range(1, 6) for s in compositions(w, max_depth=3)]
    return [Index(s) for s in ((1,), (2, 1), (q,), (q + 1,), (1, q), (q, 1))]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_reduction_sums_match_copy_and_add(q):
    rng = random.Random(2000 + q)
    F = field(q)
    R = Reducer(IndexAlgebra(F))
    ref = CopyAndAddReducer(R)
    one, T = F.poly([1]), F.T
    coeffs = [RatFunc.of(one), RatFunc.of(-one), RatFunc.of(T), RatFunc(one, T + one)]
    pool = _reduction_pool(q)
    for fam in ("li", "zeta"):
        for _ in range(3):
            P = IndexPoly(F, {rng.choice(pool): rng.choice(coeffs) for _ in range(3)})
            assert same_terms(R.reduce_to_T(fam, P), ref.reduce_to_T(fam, P)), (fam, P)
        for s in [s for w in range(1, 5) for s in compositions(w, max_depth=3)]:
            assert same_terms(R.dagger_expand(fam, s), ref.dagger_expand(fam, s)), (fam, s)
    assert ref.cancelled > 0


def _memo_snapshot(R):
    """The terms of every memoised IndexPoly, in dict order, as strings."""
    def terms(v):
        P = v[0] if isinstance(v, tuple) else v
        return [(str(s), str(c)) for s, c in P.terms.items()]

    memos = {"prod": R.algebra._prod_memo, "d": R.algebra._d_memo,
             "nf": R._nf_memo, "dagger": R._dagger_memo}
    return {name: {k: terms(v) for k, v in memo.items()} for name, memo in memos.items()}


def test_memoised_sums_are_never_mutated():
    """Later checks build their sums next to the memoised ones, never in them."""
    R2, R3 = Reducer(IndexAlgebra(field(2))), Reducer(IndexAlgebra(field(3)))
    R2.check_theorem(6)
    for s in range(1, 4):
        for n in range(1, 4):
            R3.check_prop41(s, n)
    before = [_memo_snapshot(R) for R in (R2, R3)]
    assert all(before[1][name] for name in ("prod", "d", "nf", "dagger"))
    R2.check_theorem(7)
    # prop42 cases of total weight 3 to 6, the weights of prop41's memos
    for ws in range(4):
        for s in compositions(ws):
            if s.is_empty or s[-1] < 3:
                for n in (EMPTY, Index((1,)), Index((2,))):
                    if ws + n.weight <= 3:
                        R3.check_prop42(s, n)
    for R, snap in zip((R2, R3), before):
        now = _memo_snapshot(R)
        for name, memo in snap.items():
            assert len(now[name]) > len(memo) or name == "d"
            for key, terms in memo.items():
                assert now[name][key] == terms, (name, key)


# -- the F_q(Y) computation against the F_q(T) one --------------------------------

class TFormReducer(Reducer):
    """The computation over F_q(T): L_1 = T - T^q inside the Reducer and no
    substitution where a result leaves it."""

    def _L1(self):
        return RatFunc.of(carlitz_bracket(self.field, 1), self.field)

    def _phi(self, f):
        return f


class LeakingReducer(Reducer):
    """A mutant that hands its Y-form coefficients to the public API as they are."""

    def _phi(self, f):
        return f


def _terms(P):
    return list(P.terms.items())


def _quotient_data(qs):
    return (qs.basis, [g.coords for g in qs.ideal_gens], qs.echelon, qs.pivots,
            qs.quotient_basis)


def _reports(R, wmax):
    """Every checker's report up to weight wmax, as dicts."""
    q = R.q
    reps = [R.check_theorem(w) for w in range(wmax + 1)]
    reps += [R.check_prop41(s, n) for s in range(1, 3) for n in range(1, 3) if s + n <= wmax]
    reps += [R.check_prop42(s, n) for ws in range(wmax - q + 1) for s in compositions(ws)
             for n in (EMPTY, Index((1,))) if ws + q + n.weight <= wmax]
    reps += [R.check_keylemma(s, n, cs) for s in (EMPTY, Index((1,)))
             for n in (EMPTY, Index((1,))) for cs in ([], [1])
             if s.depth + n.depth + len(cs) >= 1
             and s.weight + n.weight + sum(cs) + len(cs) * (q - 1) <= wmax]
    reps += [R.check_conjecture(s) for w in range(wmax + 1) for s in compositions(w)]
    return [r.to_dict() for r in reps]


def _public_outputs(cls, q, wmax):
    """Every public Reducer output up to weight wmax, including inputs with
    T-coefficients, from a fresh reducer of the given class."""
    F = field(q)
    R = cls(IndexAlgebra(F))
    A, T = R.algebra, RatFunc.of(F.T)
    mixed = A.mono((q + 1,), T) + A.mono((1, q))
    frac = A.mono((2, q), RatFunc(F.poly([1]), F.T + F.poly([1]))) + A.mono((q, 1), T)
    out = {"gen_A": [_terms(R.gen_A(fam, s, m, n)) for fam in ("li", "zeta")
                     for w in range(wmax + 1) for s, m, n in R._ideal_cases(w)]}
    pool = [mixed, frac] + [A.mono(s) for w in range(1, wmax + 1) for s in compositions(w)]
    for fam in ("li", "zeta"):
        out["u_step", fam] = [_terms(R.u_step(fam, P)) for P in pool]
        out["reduce", fam] = [_terms(R.reduce_to_T(fam, P)) for P in pool]
        out["dagger", fam] = [_terms(R.dagger_expand(fam, s))
                              for w in range(wmax + 1) for s in compositions(w)]
        out["dagger_linear", fam] = [_terms(R.dagger_linear(fam, P)) for P in (mixed, frac)]
    for w in range(wmax + 1):
        qs = R.quotient_space(w)
        out["quotient", w] = _quotient_data(qs)
        out["iota", w] = R.iota_matrix(w).rows
        vecs = [R.to_vector(w, R.reduce_to_T("li", P)) for P in pool if P.weight() == w]
        vecs += [R.to_vector(w, R.reduce_to_T("li", A.mono((w,), T))),
                 R.to_vector(w, R.reduce_to_T("zeta", A.mono((w,), T)))] if w else []
        out["class", w] = [(qs.class_vector(v), qs.class_is_zero(v)) for v in vecs]
        out["class_of", w] = [R.class_of(w, R.reduce_to_T("li", P))
                              for P in pool if P.weight() == w]
        if vecs:
            out["solve", w] = [R.linear_solve(qs.ideal_gens, v) for v in vecs]
            out["solve_gens", w] = R.linear_solve(vecs[1:], vecs[0])
    out["reports"] = _reports(R, wmax)
    return out


# (7, 7) reaches the first weight with an ideal at q = 7
_REFERENCE_CASES = [(2, 6), (3, 6), (4, 6), (5, 6), (7, 4), (7, 7), (8, 4), (9, 4)]


@pytest.mark.parametrize("q,wmax", _REFERENCE_CASES)
def test_public_outputs_match_the_T_form_reference(q, wmax):
    got = _public_outputs(Reducer, q, wmax)
    want = _public_outputs(TFormReducer, q, wmax)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


def test_a_leaked_Y_form_coefficient_fails_the_reference():
    got = _public_outputs(LeakingReducer, 3, 4)
    want = _public_outputs(TFormReducer, 3, 4)
    differ = {key[0] if isinstance(key, tuple) else key
              for key in want if got[key] != want[key]}
    # only the verdicts, computed inside, survive the leak
    assert differ >= {"gen_A", "u_step", "reduce", "quotient", "iota", "class", "class_of"}
    assert got["reports"] == want["reports"]


def _no_phi(f):
    raise AssertionError(f"phi called on {f}")


@pytest.mark.parametrize("q,wmax", [(2, 7), (3, 6), (4, 6)])
def test_checkers_never_leave_Y(q, wmax, monkeypatch):
    """The checkers build no T-form value, and every memo holds Y-form coefficients."""
    R = Reducer(IndexAlgebra(field(q)))
    monkeypatch.setattr(R, "_phi", _no_phi)
    got = _reports(R, wmax)
    monkeypatch.undo()
    ref = TFormReducer(IndexAlgebra(field(q)))
    assert got == _reports(ref, wmax)
    assert R._nf_memo.keys() == ref._nf_memo.keys()
    lower = 0
    for key, (nf, height) in R._nf_memo.items():
        ref_nf, ref_height = ref._nf_memo[key]
        assert height == ref_height and _terms(R._public(nf)) == _terms(ref_nf), key
        for s, c in nf.terms.items():
            t = ref_nf.terms[s]
            assert (c.num.degree * q, c.den.degree * q) == (t.num.degree, t.den.degree)
            lower += c.num.degree < t.num.degree
    assert lower > 0
    assert R._dagger_memo.keys() == ref._dagger_memo.keys()
    for w, qs in R._quotient_memo.items():
        ref_qs = ref._quotient_memo[w]
        assert [[_phi_poly(x) for x in row] for row in qs.echelon] == ref_qs.echelon
        assert [[max(x.degree * q, -1) for x in row] for row in qs.echelon] == \
            [[x.degree for x in row] for row in ref_qs.echelon]
    for w, m in R._iota_memo.items():
        assert [[_phi(x) for x in row] for row in m.rows] == ref._iota_memo[w].rows


def _random_poly(rng, F, dmax):
    return F.poly([F.from_index(rng.randrange(F.q)) for _ in range(rng.randint(0, dmax + 1))])


def _random_ratfunc(rng, F, dmax):
    den = _random_poly(rng, F, dmax)
    while den.is_zero:
        den = _random_poly(rng, F, dmax)
    return RatFunc(_random_poly(rng, F, dmax), den)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_phi_is_a_degree_scaling_ring_map(q):
    rng = random.Random(4200 + q)
    F = field(q)
    for _ in range(40):
        f, g = _random_ratfunc(rng, F, 4), _random_ratfunc(rng, F, 4)
        assert _phi(f + g) == _phi(f) + _phi(g)
        assert _phi(f * g) == _phi(f) * _phi(g)
        a = _random_poly(rng, F, 5)
        assert _phi_poly(a).degree == (q * a.degree if not a.is_zero else -1)
        c = F.poly([F.from_index(rng.randrange(F.q))])
        assert _phi_poly(c) == c and _phi(RatFunc.of(c)) == RatFunc.of(c)
        # reduced with a monic denominator: the full constructor changes nothing
        img = _phi(f)
        assert img.den.is_zero is False and img.den.leading() == F.one
        assert img.num.gcd(img.den).degree == 0 or img.num.is_zero
        again = RatFunc(img.num, img.den)
        assert (again.num, again.den) == (img.num, img.den)
    y = F.poly([0, 1])
    assert _phi_poly(y) == F.T ** q - F.T
