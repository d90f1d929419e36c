"""Generators, rewriting, quotients, the involution, and the checkers."""

import collections
import random

import pytest

from ffmzv import (EMPTY, Evaluator, Index, IndexAlgebra, IndexPoly, InvalidInput,
                   ProductKind, RatFunc, Reducer, ReductionDiverged, carlitz_bracket,
                   compositions, field, thakur_indices)
from ffmzv._linalg import _clear
from ffmzv._packed import Packed, Quotient
from ffmzv.evaluate import ValueFamily
from ffmzv.indices import _accumulate, _add_codes
from ffmzv.reduction import (BasisVector, IotaMatrix, QuotientSpace, _echelon, _phi,
                             _phi_poly)
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
    """A chain deeper than the recursion limit is a ReductionDiverged, not a
    crash, both in reduce_to_T and in the checkers' packed reduction."""
    R = Reducer(IndexAlgebra(field(2)))
    A = R.algebra
    monkeypatch.setattr(R, "_rewrite", lambda family, x: A.mono((x[0] + 1,)))
    with pytest.raises(ReductionDiverged) as err:
        R.reduce_to_T("li", A.mono((3,)))
    assert err.value.trail == (Index((3,)),)
    with pytest.raises(ReductionDiverged) as err:
        R._reduce("li", {Index((3,)): 1})
    assert err.value.trail == (Index((3,)),)


def order_floor(E, fam, s):
    """The order bound at the lowest levels, sum_i max(f(s_i) deg L_{r-i},
    s_i (r - i)): a lower bound on the order of the value of s, since the
    levels of a plain family strictly descend to 0 and each level's bound
    grows with the level.  A comparison at this bound plus a precision
    reaches that many coefficients past the lowest order the value can
    have."""
    side, r = ValueFamily.parse(fam).side, len(s)
    return sum(E._order_bound(side, si, r - i) for i, si in enumerate(s, 1))


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
            prec = order_floor(E, fam, s) + 30
            value = E.eval_value(fam, Index(s), prec)
            assert not value.is_zero_to_prec, (fam, s, prec)
            diff = E.eval_value(fam, red, prec) - value
            assert diff.is_zero_to_prec and diff.prec == prec, (fam, s, diff.prec)


def test_value_preservation(ctx2, ctx3):
    rng = random.Random(7)
    for ctx in (ctx2, ctx3):
        E, A, R = ctx.evaluator, ctx.algebra, ctx.reducer
        pool = [s for w in range(1, 7) for s in compositions(w)]
        for _ in range(10):
            s = rng.choice(pool)
            for fam in ("li", "zeta"):
                red = R.reduce_to_T(fam, A.mono(s))
                prec = order_floor(E, fam, s) + 40
                value = E.eval_value(fam, s, prec)
                assert not value.is_zero_to_prec, (fam, s, prec)
                assert E.eval_value(fam, red, prec) == value, (fam, s)


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


class PlainDaggerOneReducer(Reducer):
    """A reducer whose li dagger expansion of (1) is (1) itself."""

    def _dagger(self, family, s):
        if family == "li" and s == Index((1,)):
            return {s: 1}
        return super()._dagger(family, s)


def test_nontrivial_case_fails_when_the_witness_vanishes():
    """With dagger(1) = (1) the w = 1 witness dagger(1) - (1) is zero, and the
    Y-form check reports the vanished class as a failure."""
    case = PlainDaggerOneReducer(IndexAlgebra(field(3)))._nontrivial_case(1)
    assert (case.status, case.detail) == ("fail", "class vanished")
    case = Reducer(IndexAlgebra(field(3)))._nontrivial_case(1)
    assert (case.status, case.detail) == ("pass", "nonzero class")


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
    for cs in ([0], [-1]):
        with pytest.raises(InvalidInput):
            ctx2.reducer.check_keylemma(EMPTY, EMPTY, cs)


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


class DaggerBumpReducer(Reducer):
    """A reducer whose dagger of one index on one side gains one Thakur
    index (none when term is None): on the zeta side the conjecture's
    classes differ there, on the li side a theorem case escapes the ideal."""

    def __init__(self, algebra, at, term, family="zeta"):
        super().__init__(algebra)
        self.at, self.family = Index(at), family
        self.term = None if term is None else Index(term)

    def _dagger(self, family, s):
        out = super()._dagger(family, s)
        if self.term is not None and family == self.family and s == self.at:
            out = dict(out)  # the memoised dict is shared
            _add_codes(out, {self.term: 1}, self.field.p)
        return out


def _conjecture_detail_by_apply(R, s):
    """The conjecture's detail from the public T-form quotient and IotaMatrix.apply."""
    w, A = s.weight, R.algebra
    qs = R.quotient_space(w)

    def cls(fam, P):
        return qs.class_vector(R.to_vector(w, R.reduce_to_T(fam, P)))

    lhs = R.iota_matrix(w).apply(cls("zeta", A.mono(s)))
    rhs = cls("zeta", R.dagger_expand("zeta", s))
    diff = [a - b for a, b in zip(lhs, rhs)]
    if all(v.is_zero for v in diff):
        return "classes equal"
    return "classes differ by " + " | ".join(
        f"{qs.quotient_basis[i]}: {v}" for i, v in enumerate(diff) if not v.is_zero)


@pytest.mark.parametrize("q, at", [(2, (1, 2, 2)), (3, (2, 3)), (4, (1, 4)), (5, (1, 5, 1))])
def test_conjecture_difference_matches_the_apply_reference(q, at):
    """A zeta-side dagger bumped by the first pivot column's index, whose
    class has fractional entries, makes the classes differ; the printed
    difference equals the one the public iota matrix gives through apply."""
    at = Index(at)
    qs = Reducer(IndexAlgebra(field(q))).quotient_space(at.weight)
    term = qs.basis[qs.pivots[0]]
    R = DaggerBumpReducer(IndexAlgebra(field(q)), at, term)
    detail = R.check_conjecture(at).cases[0].detail
    assert detail.startswith("classes differ by ") and "/" in detail
    assert detail == _conjecture_detail_by_apply(
        DaggerBumpReducer(IndexAlgebra(field(q)), at, term), at)


@pytest.mark.parametrize("q, w", [(2, 5), (2, 7), (3, 5), (4, 6)])
def test_theorem_reports_an_escaping_dagger_image(q, w):
    """A li-side dagger bumped by a quotient basis index takes the dagger
    image of the generator A(li; (); 1; n), which holds that index with
    coefficient one, out of the ideal; unbumped, every case passes."""
    n = Index((1,) * (w - q))
    at = Index((q,)).cat(n)
    term = Reducer(IndexAlgebra(field(q))).quotient_space(w).quotient_basis[0]
    plain = DaggerBumpReducer(IndexAlgebra(field(q)), at, None, "li").check_theorem(w)
    assert plain.cases and all(c.status == "pass" for c in plain.cases)
    bumped = DaggerBumpReducer(IndexAlgebra(field(q)), at, term, "li").check_theorem(w)
    failed = {c.input: c.detail for c in bumped.cases if c.status == "fail"}
    assert failed[f"A(li; s=(); m=1; n={n})"] == "dagger image escapes the ideal"
    assert all(detail == "dagger image escapes the ideal"
               for case, detail in failed.items() if case.startswith("A("))


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
    echelon, pivots = _echelon([_clear(r)[0] for r in rows], ncols)
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
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


def _spy_reductions(monkeypatch):
    """The slot width of every packed row reduction _echelon makes, in order,
    and the (old, new) slot counts of every repacking."""
    from ffmzv import _linalg
    widths, growth = [], []

    def reduce_slots(x, n, width, p):
        widths.append(width)
        return _linalg_reduce(x, n, width, p)

    def repack(x, runs, slots, width, new_slots, new_width):
        growth.append((slots, new_slots))
        return _linalg_repack(x, runs, slots, width, new_slots, new_width)

    _linalg_reduce, _linalg_repack = _linalg._reduce_slots, _linalg._repack
    monkeypatch.setattr(_linalg, "_reduce_slots", reduce_slots)
    monkeypatch.setattr(_linalg, "_repack", repack)
    return widths, growth


def _coprime_pair(F, rng, deg_d, deg_f):
    """Random coprime polynomials over F_p of exact degrees deg_d <= deg_f."""
    def poly(deg):
        return F.poly([rng.randrange(F.p) for _ in range(deg)] + [rng.randrange(1, F.p)])
    while True:
        d, f = poly(deg_d), poly(deg_f)
        if d.gcd(f).degree == 0:
            return d, f


@pytest.mark.parametrize("p", [2, 3, 5, 13, 17])
def test_echelon_slot_boundaries(p, monkeypatch):
    """Packed row updates around the 8-bit slot bound equal the F_q(T)
    Gauss-Jordan reference.  The first update is d*R - f*P with d, f coprime,
    whose slot sums are at most (p-1)^2 (len d + len f): the largest length
    sum whose bound fits 8 bits reduces by translate, one more repacks every
    row at 16 bits (at p = 13 no length sum of at least 2 fits 8 bits, and at
    p = 17 not even the rows' codes leave room for one product).  The entries
    of degree up to 4 in the last matrix make the slot count grow."""
    F = field(p)
    rng = random.Random(19 + p)

    def rat(c):
        return RatFunc.of(F.poly(c) if isinstance(c, list) else c, F)

    def rand(deg):
        return [rng.randrange(p) for _ in range(deg + 1)]

    most = 255 // (p - 1) ** 2
    for n in (most, most + 1):
        if n < 2:
            continue
        d, f = _coprime_pair(F, rng, (n - 2) // 2, n - 2 - (n - 2) // 2)
        rows = [[rat(d), rat(1), rat(rand(2)), rat(0)],
                [rat(f), rat(0), rat(rand(1)), rat(rand(3))],
                [rat(0), rat(rand(2)), rat(rand(3)), rat(rand(1))]]
        widths, _ = _spy_reductions(monkeypatch)
        _assert_same_echelon(F, rows, 4)
        assert widths[0] == (8 if n == most else 16), n
        monkeypatch.undo()
    widths, growth = _spy_reductions(monkeypatch)
    rows = [[rat(rand(rng.randint(0, 4))) for _ in range(7)] for _ in range(5)]
    c = rat(rand(2))
    rows.append([c * x + y for x, y in zip(rows[0], rows[1])])
    _, pivots = _assert_same_echelon(F, rows, 7)
    assert len(pivots) == 5
    assert any(new > old for old, new in growth)
    if p == 17:
        assert set(widths) == {16}


def test_echelon_entrywise_row_outgrows_slots():
    """Over GF(4) the pivot row [T, uT, 1, 0] has a genuine GF(4) code, so the
    other row takes the entrywise update and becomes [0, 0, T^2+T+1, T, ...],
    codes in F_2 of degree 2 past the 2 slots the input needed.  As the next
    pivot it stays entrywise, and the echelon equals the reference."""
    F = field(4)
    T, u, one = F.T, F.poly([F.gen]), F.poly([1])
    rows = [[T, u * T, one, F.poly([])], [T + one, u * (T + one), T, one]]
    _, pivots = _assert_same_echelon(F, [[RatFunc.of(x, F) for x in r] for r in rows], 4)
    assert pivots == [0, 2]


def test_check_theorem_weight_8_q2(ctx2):
    rep = ctx2.reducer.check_theorem(8)
    assert rep.ok and len(rep.cases) == 179


def test_iota_involution_weight_7_q3(ctx3):
    assert ctx3.reducer.iota_matrix(7).squared_is_identity()


def _squared_is_identity_by_apply(m):
    """The reference check: iota applied to each column of iota is that
    column's unit vector, in RatFunc arithmetic."""
    zero, one = RatFunc.of(0, m.field), RatFunc.of(1, m.field)
    return all(m.apply([row[j] for row in m.rows])
               == [one if i == j else zero for i in range(m.dim)] for j in range(m.dim))


@pytest.mark.parametrize("q, wmax", [(2, 7), (3, 6), (4, 6), (9, 4)])
def test_iota_square_matches_the_apply_reference(q, wmax):
    """The identity N N = D^2 I gives the reference's verdict on the Y-form
    and the public matrices, and on each of them with one entry changed
    by c, T or 1/(T+1).  A changed diagonal entry must fail: entry (i, i)
    of the square becomes 1 + 2 c iota_ii + c^2, which is 1 only if
    iota_ii = -c/2.  An off-diagonal one can keep an involution, and
    where iota_ji = 0 it leaves the diagonal of the square unchanged."""
    F = field(q)
    R = Reducer(IndexAlgebra(F))
    changes = (RatFunc.of(F.T), RatFunc(F.poly([1]), F.poly([1, 1])))
    for w in range(wmax + 1):
        qs = R._quotient(w)
        internal = [[RatFunc(x, qs.lam) for x in row] for row in R._iota(w)]
        for m in (IotaMatrix(w, qs.quotient_basis, internal, F), R.iota_matrix(w)):
            assert m.squared_is_identity() and _squared_is_identity_by_apply(m), w
            ends = {0, m.dim - 1} if m.dim else set()
            for i, j in ((i, j) for i in ends for j in ends):
                for c in changes:
                    rows = [list(row) for row in m.rows]
                    rows[i][j] = rows[i][j] + c
                    bad = IotaMatrix(m.weight, m.basis, rows, m.field)
                    verdict = bad.squared_is_identity()
                    assert verdict == _squared_is_identity_by_apply(bad), (w, i, j, c)
                    assert not (verdict and i == j), (w, i, c)


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
            nf = self.sum([(self.normal_form(fam, b), c)
                           for b, c in self.R._public(self.R._rewrite(fam, a)).terms.items()])
            # a packed normal form keeps no insertion order: it unpacks in
            # Thakur-basis order, and reduce_to_T's sums start from that
            self._nf[fam, a] = IndexPoly._of(nf.field, {
                s: nf.terms[s] for s in thakur_indices(self.R.q, a.weight) if s in nf.terms})
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
    """The terms of every memoised sum, in dict order, as strings: a coded
    product, D or dagger expansion by its codes, a packed normal form
    through its unpacked code tuples."""
    def terms(v):
        P = v[0] if isinstance(v, tuple) else v
        if isinstance(P, Packed):
            P = R._packed.unpack(P)
        return [(str(s), str(c)) for s, c in P.items()]

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
        return carlitz_bracket(self.field, 1)

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
        nf, ref_nf = R._packed.unpack(nf), ref._packed.unpack(ref_nf)
        assert height == ref_height and _terms(R._public(nf)) == _terms(ref._public(ref_nf)), key
        for s, c in nf.items():
            t = ref_nf[s]
            # code tuples are numerators: there is no denominator to compare
            assert (len(c) - 1) * q == len(t) - 1
            lower += len(c) < len(t)
    assert lower > 0
    assert R._dagger_memo.keys() == ref._dagger_memo.keys()
    for w, qs in R._quotients.items():
        ref_qs = ref._quotients[w]
        assert [[_phi_poly(x) for x in row] for row in qs.echelon] == ref_qs.echelon
        assert [[max(x.degree * q, -1) for x in row] for row in qs.echelon] == \
            [[x.degree for x in row] for row in ref_qs.echelon]
    for w, N in R._iota_memo.items():
        lam, ref_lam = R._quotients[w].lam, ref._quotients[w].lam
        assert [[_phi(RatFunc(x, lam)) for x in row] for row in N] == \
            [[RatFunc(x, ref_lam) for x in row] for row in ref._iota_memo[w]]


@pytest.mark.parametrize("q,w", [(3, 6), (9, 5)])
def test_involution_case_builds_no_fraction(q, w, monkeypatch):
    """A cold iota^2 case squares N = Lambda iota over F_p[Y]: it reduces no
    fraction, so the gcd-taking RatFunc constructor never runs."""
    R = Reducer(IndexAlgebra(field(q)))
    calls = []
    init = RatFunc.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    case = R._involution_case(w)
    monkeypatch.undo()
    assert case.status == "pass" and R._quotient(w).dim > 1
    assert calls == []


def _prop42_cases(q, wmax):
    """The prop42 suite's (s, n) pairs up to total weight wmax."""
    return [(s, n) for w in range(wmax + 1) for ws in range(w + 1) for s in compositions(ws)
            if s.is_empty or s[-1] < q for n in ([EMPTY] if w == ws else [Index((w - ws,))])]


@pytest.mark.parametrize("q, check", [
    (2, lambda R: [R.check_theorem(w) for w in range(8)]),
    (9, lambda R: [R.check_theorem(w) for w in range(10)]),
    (3, lambda R: [R.check_prop41(s, n) for s in range(1, 5) for n in range(1, 5)]),
    (3, lambda R: [R.check_prop42(s, n) for s, n in _prop42_cases(3, 5)]),
], ids=["theorem-2", "theorem-9", "prop41-3", "prop42-3"])
def test_checkers_do_no_RatFunc_arithmetic(q, check, monkeypatch):
    """Cold checkers sum products, dagger expansions and gen_A over F_p
    codes: no RatFunc is added, multiplied or built with a gcd."""
    R = Reducer(IndexAlgebra(field(q)))
    calls = collections.Counter()
    for name in ("__init__", "__add__", "__radd__", "__mul__", "__rmul__"):
        def spy(*args, _name=name, _fn=getattr(RatFunc, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(RatFunc, name, spy)
    reports = check(R)
    monkeypatch.undo()
    assert reports and all(c.status in ("pass", "observation") for r in reports for c in r.cases)
    assert calls == {}


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


# -- the packed F_p[Y] kernel --------------------------------------------------------

def _packed_all_top(R, w, degree):
    """A packed vector of weight w with every coordinate the all-(p-1)
    polynomial of the given degree, memoised under a key of its own."""
    F = R.field
    top = F.poly([F.p - 1] * (degree + 1))
    v = R._reduce("li", {t: top.c for t in thakur_indices(R.q, w)})
    key = ("li", Index((w + 1000,)))
    R._nf_memo[key] = (v, 0)
    return top, key


@pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 9])
def test_packed_sum_slot_boundaries(q):
    """Sums of all-(p-1) coefficients times all-(p-1) vectors at the largest
    term count the proved bound admits for a slot width, and one term more,
    come back exactly; at q = 4 and 9 the codes p - 1 are prime-subfield
    elements."""
    F = field(q)
    p, w, degree = F.p, 3, 3
    for length in (1, 2, degree + 1):
        c = (p - 1,) * length
        per_term = (p - 1) ** 2 * min(length, degree + 1)
        for width in (8, 16):
            most = ((1 << width) - 1) // per_term
            if most == 0:
                continue
            for n in (most, most + 1):
                R = Reducer(IndexAlgebra(F))
                top, key = _packed_all_top(R, w, degree)
                got = R._packed.combine(w, [(c, R._nf_memo[key][0])] * n)
                assert got.width == (width if n == most else 2 * width), (length, n)
                want = F.poly(c) * top * n
                assert got.degree == want.degree
                assert R._packed.unpack(got) == ({} if want.is_zero else {
                    t: want.c for t in thakur_indices(q, w)}), (length, n)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_packing_a_genuine_F_q_code_raises(q):
    F = field(q)
    R = Reducer(IndexAlgebra(F))
    t = thakur_indices(q, 2)[0]
    # the code p is u, outside F_p: the codes of u and of (T + 1) u
    for codes in ((F.p,), (F.p, F.p)):
        with pytest.raises(InvalidInput):
            R._reduce("li", {t: codes})
    # a generator packed by hand with the code of u survives the elimination
    n = len(thakur_indices(q, 2))
    gen = Packed(2, int.from_bytes(bytes([1] + [F.p] * (n - 1)), "little"), 1, 8, 0)
    with pytest.raises(InvalidInput):
        Quotient(R._packed, 2, [gen])


class PolyReference:
    """The normal forms summed over RatFunc coefficients with _accumulate, and
    membership and classes through the echelon residual (_residual)."""

    def __init__(self, R):
        self.R = R
        self.one = RatFunc.of(1, R.field)
        self.nf = {}

    def coeff(self, c):
        """A RatFunc from a RatFunc, an F_p[Y] code tuple or an F_p code."""
        if isinstance(c, RatFunc):
            return c
        return RatFunc.of(self.R.field.poly(c if isinstance(c, tuple) else (c,)))

    def normal_form(self, fam, a):
        if a.is_thakur(self.R.q):
            return {a: self.one}
        hit = self.nf.get((fam, a))
        if hit is None:
            hit = {}
            for b, c in self.R._rewrite(fam, a).items():
                _accumulate(hit, self.normal_form(fam, b), self.coeff(c))
            self.nf[fam, a] = hit
        return hit

    def reduce(self, fam, P):
        """The sum of c * NF(a) over the coded terms the Reducer sums."""
        out = {}
        for a, c in P.items():
            _accumulate(out, self.normal_form(fam, a), self.coeff(c))
        return out

    def terms(self, codes):
        """Unpacked code tuples as RatFunc terms."""
        return {s: self.coeff(c) for s, c in codes.items()}

    def quotient(self, w):
        qs = self.R._quotient(w)
        return QuotientSpace(w, qs.basis, [], qs.echelon, qs.pivots, self.R.field)

    def class_vector(self, w, terms):
        return self.quotient(w).class_vector(BasisVector(w, terms))

    def in_ideal(self, w, codes):
        return self.quotient(w).class_is_zero(BasisVector(w, self.terms(codes)))


@pytest.mark.parametrize("q,wmax", [(2, 8), (3, 6), (4, 6), (5, 5), (9, 4)])
def test_packed_kernel_matches_the_Poly_reference(q, wmax, monkeypatch):
    """Every packed reduction sum, memoised normal form, membership verdict
    and iota column the checkers compute equals the RatFunc sums and the
    residual over the echelon; each verdict is also checked on the vector
    plus a quotient basis element, which leaves the ideal."""
    F = field(q)
    R = Reducer(IndexAlgebra(F))
    ref = PolyReference(R)
    sums, verdicts = [], []
    reduce, kills = R._reduce, Quotient.kills

    def recording_reduce(fam, P):
        out = reduce(fam, P)
        sums.append((fam, P, out))
        return out

    def recording_kills(qs, v):
        out = kills(qs, v)
        verdicts.append((qs.weight, v, out))
        return out

    monkeypatch.setattr(R, "_reduce", recording_reduce)
    monkeypatch.setattr(Quotient, "kills", recording_kills)
    if q == 2:
        for w in range(wmax + 1):
            R.check_theorem(w)
    else:
        _reports(R, wmax)
    monkeypatch.undo()
    assert sums and verdicts and R._iota_memo
    for fam, P, v in sums:
        assert ref.terms(R._packed.unpack(v)) == ref.reduce(fam, P), (fam, P)
    for (fam, a), (v, _) in R._nf_memo.items():
        assert v.weight == a.weight, a
        assert ref.terms(R._packed.unpack(v)) == ref.normal_form(fam, a), a
    outside = 0
    for w, v, verdict in verdicts:
        terms = R._packed.unpack(v)
        assert verdict == ref.in_ideal(w, terms), (w, terms)
        qs = R._quotient(w)
        if qs.quotient_basis:
            last = qs.quotient_basis[-1]
            bumped = {**terms, last: (F.poly(terms.get(last, ())) + F.poly([1])).c}
            packed = R._reduce("li", bumped)
            assert qs.kills(packed) == ref.in_ideal(w, bumped)
            outside += not qs.kills(packed)
    assert outside > 0
    for w, N in R._iota_memo.items():
        qs = R._quotient(w)
        for j, a in enumerate(qs.quotient_basis):
            image = ref.reduce("li", R._dagger("li", a))
            assert [RatFunc(row[j], qs.lam) for row in N] == ref.class_vector(w, image), (w, a)


def test_packed_layout_grows_and_repacks_memoised_forms():
    """A sum that needs more slots than a weight's layout has grows it; a
    normal form memoised in the old layout is repacked when next used and
    reads back unchanged."""
    F = field(3)
    R = Reducer(IndexAlgebra(F))
    w, a = 4, Index((1, 3))
    before = R._packed.unpack(R._normal_form("li", a, R.cap, [])[0])
    slots = R._packed.layout(w)[0]
    assert R._nf_memo["li", a][0].slots == slots
    t = thakur_indices(3, w)[0]
    Y = F.poly([0] * (2 * slots) + [1])
    v = R._reduce("li", {t: Y.c})
    assert R._packed.layout(w)[0] > 2 * slots and R._nf_memo["li", a][0].slots == slots
    assert R._packed.unpack(v) == {t: Y.c}
    fitted = R._packed._fit(R._nf_memo["li", a][0])
    assert fitted.slots > 2 * slots and R._nf_memo["li", a][0] is fitted
    assert R._packed.unpack(fitted) == before
    got = R._packed.unpack(R._reduce("li", {a: Y.c}))
    assert got == {s: (F.poly(c) * Y).c for s, c in before.items()}


def test_quotient_packs_one_row_per_pivot():
    """At q = 9, w = 12 only 8 of the 2 036 Thakur coordinates are pivots;
    the quotient holds one packed row for each of them and no other copy,
    also after a query grows the rows' slot count."""
    R = Reducer(IndexAlgebra(field(9)))
    w = 12
    qs = R._quotient(w)
    assert (len(qs.basis), len(qs.pivots)) == (2036, 8)
    assert not qs.kills(R._packed.unit(qs.quotient_basis[0]))
    assert len(qs.rows) == len(qs.pivots) and not hasattr(qs, "entries")
    slots, t = qs.slots, qs.basis[qs.pivots[0]]
    Y = (0,) * slots + (1,)
    qs.kills(R._reduce("li", {t: Y}))
    assert qs.slots > slots
    assert len(qs.rows) == len(qs.pivots) and not hasattr(qs, "entries")
    ref = PolyReference(R)
    v = R._reduce("li", {t: Y, qs.basis[qs.pivots[-1]]: (2, 1), qs.quotient_basis[1]: (1,)})
    terms = ref.terms(R._packed.unpack(v))
    assert [RatFunc(c, qs.lam) for c in qs.classes(v)] == ref.class_vector(w, terms)


def test_packed_sum_whose_top_coefficients_cancel():
    """(1 + Y) v + 2Y v = v at q = 3: the degree is a bound from the terms,
    above the true one, while the codes, the verdict and the classes are
    exact; a sum that cancels to 0 keeps the weight's layout."""
    F = field(3)
    R = Reducer(IndexAlgebra(F))
    ref = PolyReference(R)
    w, degree = 5, 2
    top, key = _packed_all_top(R, w, degree)
    v = R._nf_memo[key][0]
    got = R._packed.combine(w, [((1, 1), v), ((0, 2), v)])
    assert got.degree >= degree
    terms = R._packed.unpack(got)
    assert terms == {t: top.c for t in thakur_indices(3, w)}
    qs = R._quotient(w)
    assert qs.kills(got) == ref.in_ideal(w, terms)
    assert [RatFunc(c, qs.lam) for c in qs.classes(got)] == \
        ref.class_vector(w, ref.terms(terms))
    zero = R._packed.combine(w, [((1, 1), v), ((2, 2), v)])
    assert zero.is_zero and zero.degree == -1
    assert (zero.slots, zero.width) == R._packed.layout(w) == (got.slots, got.width)


def test_quotient_cuts_the_runs_of_a_grown_layout():
    """Vectors whose layout has more slots than the quotient's rows, in
    another slot width, are cut to the rows' runs: every verdict and class
    equals the residual over the echelon."""
    F = field(3)
    R = Reducer(IndexAlgebra(F))
    ref = PolyReference(R)
    w = 7
    qs = R._quotient(w)

    def vectors():
        return ([R._reduce("li", R._packed.unpack(g)) for g in qs.gens]
                + [R._reduce("li", {a: (1,)}) for a in compositions(w)])

    for v in vectors():
        qs.kills(v)
    Y = F.poly([0] * qs.slots + [1])
    R._reduce("li", {qs.basis[0]: Y.c})
    verdicts = []
    for v in vectors():
        terms = R._packed.unpack(v)
        verdicts.append(qs.kills(v))
        assert verdicts[-1] == ref.in_ideal(w, terms), terms
        classes = [RatFunc(c, qs.lam) for c in qs.classes(v)]
        assert classes == ref.class_vector(w, ref.terms(terms)), terms
        assert v.slots > qs.slots and v.width != qs.width
    assert any(verdicts) and not all(verdicts)
