"""Numeric evaluation: power sums, the DP evaluator, and its oracles."""

import random

import pytest

from ffmzv import (EvalBudget, Evaluator, Index, LaurentSeries,
                   PrecisionTooExpensive, RatFunc, ValueFamily, carlitz_l,
                   compositions, field, rat_to_laurent)
from ffmzv.indices import EMPTY


def all_monic(F, d):
    """Every monic polynomial of degree d, by direct digit enumeration."""
    q = F.q
    out = []
    for tail in range(q ** d):
        coeffs = []
        v = tail
        for _ in range(d):
            coeffs.append(F.from_index(v % q))
            v //= q
        out.append(F.poly(coeffs + [F.one]))
    return out


def power_sum_oracle(F, d, s):
    """Exact power sum as a plain fraction sum; independent of the kernels."""
    total = RatFunc.of(0, F)
    for a in all_monic(F, d):
        total = total + RatFunc(F.poly([1]), a ** s)
    return total


def value_oracle(F, family, s, prec, dmax):
    """Direct nested-loop summation over level tuples, from exact fractions.

    Sound for comparisons at precision `prec` as long as every dropped
    tuple sits below the precision, which the callers arrange.
    """
    family = ValueFamily.parse(family)
    r = s.depth
    if r == 0:
        return LaurentSeries.one(F, prec)

    def factor(entry, d):
        if family.side == "li":
            return RatFunc(F.poly([1]), carlitz_l(F, d) ** entry)
        return power_sum_oracle(F, d, entry)

    total = LaurentSeries.zero(F, prec)

    if family.is_dagger:
        # weakly increasing levels d_1 <= ... <= d_r, sign (-1)^r
        def rec(i, lower, acc):
            nonlocal total
            if i == r:
                total = total + acc
                return
            for d in range(lower, dmax + 1):
                contrib = rat_to_laurent(factor(s[i], d), prec)
                rec(i + 1, d, (acc * contrib).with_prec(prec))

        rec(0, 0, LaurentSeries.one(F, prec))
        if r % 2:
            total = total.scale(-1)
    else:
        # strictly decreasing d_1 > ... > d_r >= 0; assign from the right
        def rec(i, lower, acc):
            nonlocal total
            if i < 0:
                total = total + acc
                return
            for d in range(lower, dmax + 1):
                contrib = rat_to_laurent(factor(s[i], d), prec)
                rec(i - 1, d + 1, (acc * contrib).with_prec(prec))

        rec(r - 1, 0, LaurentSeries.one(F, prec))
    return total


def test_l_poly(ctx2):
    E = ctx2.evaluator
    assert E.L(0) == ctx2.field.poly([1])
    assert E.L(1) == ctx2.field.T + ctx2.field.T ** 2  # T - T^q, char 2
    t = ctx2.field.T
    assert E.L(2) == (t + t ** 2) * (t + t ** 4)


def test_power_sum_basics(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        E = ctx.evaluator
        for s in (1, 2, 5):
            assert E.power_sum(0, s, 20) == LaurentSeries.one(ctx.field, 20)
    # q=2: S_1(1) = 1/L_1
    E2 = ctx2.evaluator
    got = E2.power_sum(1, 1, 25)
    want = rat_to_laurent(RatFunc(ctx2.field.poly([1]), E2.L(1)), 25)
    assert got == want
    # q=2: S_1(3) = (T^2+T+1)/(T^3 (T+1)^3), via the brute-force oracle
    F = ctx2.field
    ex = E2.power_sum_exact(1, 3)
    assert ex == power_sum_oracle(F, 1, 3)
    assert ex == RatFunc(F.poly([1, 1, 1]), F.T ** 3 * (F.T + F.poly([1])) ** 3)


@pytest.mark.parametrize("q", [2, 3])
def test_power_sum_exact_matches_oracle(q):
    F = field(q)
    E = Evaluator(F)
    for d in range(3):
        for s in range(1, 5):
            assert E.power_sum_exact(d, s) == power_sum_oracle(F, d, s)


@pytest.mark.parametrize("q", [2, 3])
def test_power_sum_coincides_with_carlitz_inverse(q):
    """S_d(s) = L_d^(-s) exactly for s <= q: exact fraction comparison."""
    F = field(q)
    E = Evaluator(F)
    for d in range(5):
        for s in range(1, q + 1):
            assert E.power_sum_exact(d, s) == RatFunc(F.poly([1]), carlitz_l(F, d) ** s)


def test_power_sum_series_matches_exact(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        E = ctx.evaluator
        for d in range(3):
            for s in range(1, 6):
                series = E.power_sum(d, s, 30)
                assert series == rat_to_laurent(E.power_sum_exact(d, s), 30)


def test_power_sum_budget():
    E = Evaluator(field(2), EvalBudget(max_bruteforce=16))
    E.power_sum(4, 3, 20)
    with pytest.raises(PrecisionTooExpensive):
        E.power_sum(5, 3, 20)
    with pytest.raises(PrecisionTooExpensive):
        E.eval_value("zeta", Index((3,)), 200)  # needs levels past the budget


def test_eval_value_basics(ctx2):
    E = ctx2.evaluator
    assert E.eval_value("zeta", EMPTY, 15) == LaurentSeries.one(ctx2.field, 15)
    for s in (1, 2, 3):
        li = E.eval_value("li", Index((s,)), 30)
        lid = E.eval_value("li-dagger", Index((s,)), 30)
        assert lid == li.scale(-1)
        zd = E.eval_value("zeta-dagger", Index((s,)), 30)
        z = E.eval_value("zeta", Index((s,)), 30)
        assert zd == z.scale(-1)


def test_fundamental_relation_numeric(ctx2):
    """Li_q(1) = L_1 * Li_(1,q-1)(1) at q = 2, N = 30."""
    E = ctx2.evaluator
    li2 = E.eval_value("li", Index((2,)), 30)
    li11 = E.eval_value("li", Index((1, 1)), 30)
    l1 = rat_to_laurent(RatFunc.of(E.L(1)), 30)
    assert li2 == l1 * li11


@pytest.mark.parametrize("q", [2, 3])
def test_dp_evaluator_against_bruteforce_oracle(q):
    """Depth <= 2, weight <= 4, levels <= 4: DP equals direct nested loops."""
    F = field(q)
    E = Evaluator(F)
    for w in range(1, 5):
        for s in compositions(w, max_depth=2):
            # li side at N = q^3 keeps the level cutoff at most 4
            n_li = q ** 3
            for fam in (ValueFamily.LI, ValueFamily.LI_DAGGER):
                got = E.eval_value(fam, s, n_li)
                want = value_oracle(F, fam, s, n_li, 4)
                assert got == want, (fam, s)
            # zeta side: any tuple touching a level >= 5 has order >= 5*min(s)
            n_z = min(s) * 5 - 1
            for fam in (ValueFamily.ZETA, ValueFamily.ZETA_DAGGER):
                got = E.eval_value(fam, s, n_z)
                want = value_oracle(F, fam, s, n_z, 4)
                assert got == want, (fam, s)


def test_fundamental_identity_check(ctx2, ctx3, ctx4):
    for ctx in (ctx2, ctx3, ctx4):
        for d in range(3):
            rep = ctx.evaluator.fundamental_identity_check(d)
            assert rep.ok, (ctx.field.q, d)


def test_fundamental_identity_budget(ctx2):
    E = Evaluator(field(2), EvalBudget(max_bruteforce=8))
    with pytest.raises(PrecisionTooExpensive):
        E.fundamental_identity_check(3)


def test_star_values(ctx3):
    E = ctx3.evaluator
    assert E.value_of_index("zeta-star", EMPTY, 20) == LaurentSeries.one(ctx3.field, 20)
    # depth 1: the sign cancels the dagger sign
    assert E.eval_value("zeta-star", Index((2,)), 30) == E.eval_value("zeta", Index((2,)), 30)
    # depth 2: (+1) * dagger of the reversal
    got = E.value_of_index("li-star", Index((1, 2)), 30)
    want = E.eval_value("li-dagger", Index((2, 1)), 30)
    assert got == want


def test_eval_linearity_with_ratfunc_coefficients(ctx2):
    E, A, F = ctx2.evaluator, ctx2.algebra, ctx2.field
    c = F.rat(F.T ** 2 + F.T)
    P = A.mono((1, 1), c) + A.mono((2,))
    got = E.eval_value("li", P, 30)
    want = (E.eval_value("li", Index((1, 1)), 30) * rat_to_laurent(c, 30)
            + E.eval_value("li", Index((2,)), 30))
    assert got == want


def test_product_formula_smoke(ctx3):
    E, A = ctx3.evaluator, ctx3.algebra
    rng = random.Random(1)
    pool = [s for w in range(1, 5) for s in compositions(w)]
    for _ in range(8):
        s, n = rng.choice(pool), rng.choice(pool)
        for fam, kind in (("zeta", "qshuffle"), ("li", "harmonic")):
            lhs = E.eval_value(fam, s, 40) * E.eval_value(fam, n, 40)
            rhs = E.eval_value(fam, A.product(A.mono(s), A.mono(n), kind), 40)
            assert lhs == rhs


def test_product_formula_multiterm_homogeneous(ctx2, ctx3):
    rng = random.Random(6)
    for ctx in (ctx2, ctx3):
        E, A, F = ctx.evaluator, ctx.algebra, ctx.field
        for _ in range(5):
            w1, w2 = rng.randint(1, 4), rng.randint(2, 5)
            pool1 = list(compositions(w1))
            pool2 = list(compositions(w2))
            P = (A.mono(rng.choice(pool1))
                 + A.mono(rng.choice(pool1), F.rat(F.T)))
            Q = (A.mono(rng.choice(pool2), F.rat(F.poly([1]), F.T + F.poly([1])))
                 + A.mono(rng.choice(pool2)))
            assert P.is_homogeneous and Q.is_homogeneous
            for fam, kind in (("zeta", "qshuffle"), ("li", "harmonic")):
                lhs = E.eval_value(fam, P, 40) * E.eval_value(fam, Q, 40)
                rhs = E.eval_value(fam, A.product(P, Q, kind), 40)
                assert lhs == rhs


def test_dagger_harmonic_product(ctx2, ctx3):
    rng = random.Random(2)
    for ctx in (ctx2, ctx3):
        E, A = ctx.evaluator, ctx.algebra
        pool = [s for w in range(1, 5) for s in compositions(w)]
        for _ in range(6):
            s, n = rng.choice(pool), rng.choice(pool)
            lhs = E.eval_value("li-dagger", s, 40) * E.eval_value("li-dagger", n, 40)
            rhs = E.eval_value("li-dagger", A.harmonic(A.mono(s), A.mono(n)), 40)
            assert lhs == rhs
