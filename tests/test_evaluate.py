"""Numeric evaluation: power sums, the DP evaluator, and its oracles."""

import random

import numpy as np
import pytest

import ffmzv._gfnum
import ffmzv.evaluate
from ffmzv import (EvalBudget, Evaluator, FieldSpec, Index, IndexAlgebra, InvalidInput,
                   LaurentSeries, PrecisionTooExpensive, RatFunc, Reducer, ValueFamily,
                   carlitz_l, compositions, field, rat_to_laurent)
from ffmzv.algebra import _read_slots, _recip_codes, carlitz_l_degree
from ffmzv.evaluate import SeriesPacking
from ffmzv.indices import EMPTY, IndexPoly


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


EXACT_QS = [2, 3, 4, 5, 7, 8, 9]


def _oracle_exponents(q):
    """s = 1, q - 1, q, q + 1, 2q and p(q + 1): p | s takes the Frobenius
    shortcut, the rest the general row powers.  For s <= q the numerator is
    1, so only p(q + 1) checks a Frobenius of a nontrivial sum."""
    p = field(q).p
    return sorted({1, 2, 3, 4, q - 1, q, q + 1, 2 * q, p * (q + 1)} if q <= 3 else
                  {1, q - 1, q, q + 1, 2 * q, p * (q + 1)})


@pytest.mark.parametrize("q", EXACT_QS)
def test_power_sum_exact_matches_oracle(q):
    F = field(q)
    E = Evaluator(F)
    for d in range(3 if q <= 5 else 2):
        for s in _oracle_exponents(q):
            assert E.power_sum_exact(d, s) == power_sum_oracle(F, d, s), (d, s)


@pytest.mark.parametrize("q", EXACT_QS)
def test_power_sum_coincides_with_carlitz_inverse(q):
    """S_d(s) = L_d^(-s) exactly for s <= q: exact fraction comparison."""
    F = field(q)
    E = Evaluator(F)
    for d in range(5 if q <= 5 else 3):
        for s in sorted({1, q - 1, q}):
            assert E.power_sum_exact(d, s) == RatFunc(F.poly([1]), carlitz_l(F, d) ** s), (d, s)


def test_power_sum_series_matches_exact(ctx2, ctx3):
    """Both sides run one kernel, so each is also held to the fraction-sum oracle."""
    for F in (ctx2.field, ctx3.field, field(4), field(8), field(9)):
        E = Evaluator(F)
        for d in range(3):
            for s in range(1, 6):
                exact = E.power_sum_exact(d, s)
                assert exact == power_sum_oracle(F, d, s), (F.q, d, s)
                series = E.power_sum(d, s, 30)
                assert series == rat_to_laurent(exact, 30), (F.q, d, s)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_power_sums_at_exponents_of_several_binary_digits(q):
    """a^s by square-and-multiply: s = 7, 11, 13 take a multiply after
    several squarings; the exact sums and their series match the
    fraction-sum oracle (at q = 9 on level 1, where the oracle is quick)."""
    F = field(q)
    E = Evaluator(F)
    for d in (1, 2) if q <= 4 else (1,):
        for s in (7, 11, 13):
            want = power_sum_oracle(F, d, s)
            assert E.power_sum_exact(d, s) == want, (d, s)
            for prec in (s * d, 3 * s * d):
                assert E.power_sum(d, s, prec) == rat_to_laurent(want, prec), (d, s, prec)


def test_level_zero_power_sum_takes_log_s_products(monkeypatch):
    """S_0(s) = 1, the level-0 factor of every zeta entry s > q: its one
    row a = 1 is powered by O(log s) products, not s - 1."""
    import time
    F = field(5)
    calls = []
    mul_codes = ffmzv._gfnum._mul_codes
    monkeypatch.setattr(ffmzv._gfnum, "_mul_codes",
                        lambda spec, a, b, n: calls.append(n) or mul_codes(spec, a, b, n))
    t0 = time.perf_counter()
    for s in (3999, 4000, 4096):
        assert Evaluator(F).power_sum(0, s, 60) == LaurentSeries.one(F, 60), s
    assert time.perf_counter() - t0 < 0.5
    # at most two products per binary digit of s, each cut to one coefficient
    assert len(calls) <= 3 * 2 * (4096).bit_length() and set(calls) == {1}


@pytest.mark.parametrize("q, s", [(9, 28), (8, 15)])
def test_level_series_at_high_precision_match_exact(q, s):
    """zeta (s) at N = 1000 keeps levels 1 and 2, where the order bound
    (1 + sigma_q(s - 1)) deg L_d is 360 (q=9) and 576 (q=8); their series
    are the exact power sums expanded to N.  (zeta (16) at q=8 keeps level 1
    only: see ``test_frobenius_floor_drops_level_2_of_zeta_16_at_q8``.)"""
    N = 1000
    E = Evaluator(field(q))
    cut = E._level_cutoff(ValueFamily.ZETA, Index((s,)), N)
    assert cut == 2
    for d, x in enumerate(E._level_factors(ValueFamily.ZETA, s, N)[1:], 1):
        got = E._packing(N).unpack(x)
        assert got == rat_to_laurent(E.power_sum_exact(d, s), N), d
        assert got.prec == N and (d > 1 or not got.is_zero_to_prec), d


def _codes_poly(F, codes):
    return F.poly([F.from_index(int(c)) for c in codes])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_divide_rows_matches_divmod(q, monkeypatch):
    """Dividing by one monic polynomial gives num divmod it; dividing by all
    of degree d at once gives the sum of their quotients and each remainder.
    Windows that move every 1 and 3 quotient digits put a move at every step
    and moves shorter than d."""
    F = field(q)
    rng = random.Random(q)
    for d in range(5):
        num = F.poly([F.from_index(rng.randrange(q)) for _ in range(8)] + [F.one])
        rows = [row[:-1] for row in F.vec._monic_codes(d)]
        want = [num.divmod(a) for a in all_monic(F, d)]
        total = sum((quo for quo, _ in want), F.poly([]))
        for chunk in (1, 3, 8):
            monkeypatch.setattr(ffmzv._gfnum, "_CHUNK", chunk)
            for row, (want_q, want_r) in enumerate(want):
                if row < 20 or row % 97 == 0:
                    quo, rem = F.vec._divide_rows(num.c, rows[row:row + 1])
                    assert _codes_poly(F, quo) == want_q, (chunk, d, row)
                    assert _codes_poly(F, rem[0]) == want_r, (chunk, d, row)
            quo, rem = F.vec._divide_rows(num.c, rows)
            assert _codes_poly(F, quo) == total, (chunk, d)
            assert all(_codes_poly(F, r) == want_r for r, (_, want_r) in zip(rem, want)), (chunk, d)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_monic_quotient_sum_matches_divmod(q):
    """The kernel is the sum of num // a^s over the monic a, by Poly.divmod;
    its remainder flag is exact when num is longer than 2 s d, and a shorter
    num (the series' case, where a^s is cut) still gives every quotient."""
    F = field(q)
    rng = random.Random(q)
    for d in range(4 if q <= 3 else 3):
        for s in range(1, 4):
            for n in sorted({s * d + 1, s * d + 3, 2 * s * d + 2, 2 * s * d + 5}):
                num = F.poly([F.from_index(rng.randrange(q)) for _ in range(n - 1)] + [F.one])
                want, rem = F.poly([]), False
                for a in all_monic(F, d):
                    quo, r = num.divmod(a ** s)
                    want, rem = want + quo, rem or not r.is_zero
                codes, got_rem = F.vec.monic_quotient_sum(list(num.c), d, s)
                assert F.poly([F.from_index(c) for c in codes]) == want, (d, s, n)
                if n > 2 * s * d:
                    assert got_rem == rem, (d, s, n)


def test_series_below_twice_the_divisor_degree_match_exact():
    """M = prec - s d + 1 <= s d cuts a^s to its top M coefficients."""
    for q in (2, 3, 4):
        E = Evaluator(field(q))
        for d in (1, 2):
            for s in range(q + 1, 2 * q + 2):
                exact = E.power_sum_exact(d, s)
                for prec in (s * d, s * d + 1, 2 * s * d - 1):
                    got = E.power_sum(d, s, prec)
                    assert got == rat_to_laurent(exact, prec), (q, d, s, prec)


def test_exact_numerators_in_row_blocks(monkeypatch):
    """Blocks of a few divisors, and windows that move every 1 or 3
    quotient digits, give the same numerators as one block."""
    want = {(q, d, s): Evaluator(field(q))._power_sum_numerator(d, s)
            for q in (3, 4) for d in (2, 3) for s in (1, q - 1, q + 1)}
    monkeypatch.setattr(ffmzv._gfnum, "_CELLS", 200)
    for chunk in (1, 3, 8):
        monkeypatch.setattr(ffmzv._gfnum, "_CHUNK", chunk)
        for (q, d, s), num in want.items():
            assert Evaluator(field(q))._power_sum_numerator(d, s) == num, (chunk, q, d, s)


def test_monic_codes_enumerate_every_monic_once():
    for q in (2, 3, 4, 9):
        F = field(q)
        for d in range(4):
            codes = F.vec._monic_codes(d)
            got = [F.poly([F.from_index(int(c)) for c in row]) for row in codes]
            assert got == all_monic(F, d), (q, d)


def test_exact_numerator_rejects_a_non_multiple(monkeypatch):
    """Every monic a must divide the numerator polynomial; T^5 + 1 is no multiple."""
    F = field(3)
    E = Evaluator(F)
    monkeypatch.setattr(E, "L", lambda d: F.T ** 5 + F.poly([1]))
    with pytest.raises(InvalidInput):
        E.power_sum_exact(1, 1)


def test_power_sum_budget():
    E = Evaluator(field(2), EvalBudget(max_bruteforce=16))
    E.power_sum(4, 3, 20)
    with pytest.raises(PrecisionTooExpensive):
        E.power_sum(5, 3, 20)
    with pytest.raises(PrecisionTooExpensive):
        E.eval_value("zeta", Index((3,)), 200)  # needs levels past the budget


def test_power_sum_series_updates_cap():
    """A direct series power sum is refused at once when its q^d rows of
    M = prec - s d + 1 quotient digits over min(M, s d) coefficients of a^s
    exceed MAX_DIVISION_UPDATES; 4.8e8 updates here ran 8.6 s uncapped."""
    import time
    E = Evaluator(field(3))
    t0 = time.perf_counter()
    with pytest.raises(PrecisionTooExpensive, match="483064560 coefficient updates"):
        E.power_sum(6, 40, 3000)
    assert time.perf_counter() - t0 < 0.5 and not E._power_sums
    budget = EvalBudget()
    cap = budget.MAX_DIVISION_UPDATES
    budget.check_series(2, 1, 1, cap // 2)  # two rows over one coefficient of a
    with pytest.raises(PrecisionTooExpensive):
        budget.check_series(2, 1, 1, cap // 2 + 1)
    budget.check_series(3, 6, 40, 0)  # no quotient digit, no update
    # the largest series the benchmark's numeric workload asks for, 4 960 updates
    budget.check_series(4, 2, 5, 31)
    assert E.power_sum(6, 40, 240).is_zero_to_prec  # M = 1: 729 * 1 * 1 updates


def test_level_cutoff_builds_no_unused_carlitz_l(monkeypatch):
    """ZETA (1,4) at q=3, N=40: the entry 1 runs the levels while
    deg L_d <= 40 (d <= 3, deg L_3 = 39) and the entry 4 while
    (1 + sigma_3(3)) deg L_d = 2 deg L_d <= 40 (d <= 2); S_d(4) is a brute
    force, so L_d is built only up to the closed-form cutoff d = 3."""
    asked = []
    real = ffmzv.evaluate.carlitz_l

    def recording(spec, d):
        asked.append(d)
        return real(spec, d)

    monkeypatch.setattr(ffmzv.evaluate, "carlitz_l", recording)
    prec = 40
    cutoff = max(d for d in range(prec) if carlitz_l_degree(3, d) <= prec)
    assert cutoff == 3
    Evaluator(field(3)).eval_value("zeta", Index((1, 4)), prec)
    assert asked and max(asked) <= cutoff


def digit_sum(n, q):
    """sigma_q(n), read off numpy's base-q spelling of n."""
    return sum(int(c, q) for c in np.base_repr(n, q))


# the largest level d brute-forced per q by the order-bound tests, and the
# largest order checked: past these levels only (q, d) = (2, 7), (4, 3) and
# (5, 3) have an order bound <= 300
BOUND_LEVELS = {2: 6, 3: 4, 4: 2, 5: 2, 7: 2, 8: 2, 9: 2}
MAX_CHECKED_ORDER = 300


@pytest.mark.parametrize("q", sorted(BOUND_LEVELS))
def test_power_sum_order_bound(q):
    """The brute-force S_d(s) has order >= (1 + sigma_q(s - 1)) deg L_d for
    s <= 3q + 1, with equality for s <= q + 1: the bound behind the zeta
    side's level cutoff, and sharp where the cutoff uses it most."""
    E = Evaluator(field(q))
    for d in range(1, BOUND_LEVELS[q] + 1):
        deg = carlitz_l_degree(q, d)
        for s in range(1, 3 * q + 2):
            bound = (1 + digit_sum(s - 1, q)) * deg
            if bound > MAX_CHECKED_ORDER:
                continue
            S = E.power_sum(d, s, bound)
            # precision `bound` keeps T^-bound: order >= bound leaves at most it
            assert S.lead is None or S.lead == -bound, (d, s, S.lead, bound)
            if s <= q + 1:
                assert S.lead == -bound, (d, s)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_power_sum_frobenius_order_floor(q):
    """The brute-force S_d(s) has order >= ``_order_bound`` for q < s <= q^3,
    at each d the default budget enumerates, up to order 300.  For p | s the
    bound p^k (1 + sigma_q(s' - 1)) deg L_d of S_d(s) = S_d(s')^(p^k) lies
    above 1 + sigma_q(s - 1) and is reached: at q=2, s=8, d=2 the lead is
    48 against 24, and at q=3, s=9, d=1, 27 against 15."""
    F = field(q)
    E, p = Evaluator(F), F.p
    raised = set()
    for s in range(q + 1, q ** 3 + 1):
        for d in range(1, 64):
            bound = E._order_bound("zeta", s, d)
            if bound > MAX_CHECKED_ORDER or q ** d > E.budget.max_bruteforce:
                break
            lead = E.power_sum(d, s, bound).lead
            assert lead is None or lead == -bound, (s, d, lead, bound)
            if bound > max((1 + digit_sum(s - 1, q)) * carlitz_l_degree(q, d), s * d):
                assert s % p == 0, (s, d)
                if lead == -bound:
                    raised.add((s, d, bound))
    assert raised
    examples = {2: (8, 2, 48), 3: (9, 1, 27)}
    if q in examples:
        assert examples[q] in raised


def test_frobenius_floor_drops_level_2_of_zeta_16_at_q8():
    """S_2(16) = S_2(1)^16 = 1/L_2^16 at q=8 has order 16 deg L_2 = 1152, so
    zeta (16) at N = 1000 keeps level 1 only (the bound 1 + sigma_8(15)
    gave 648 and kept level 2)."""
    E = Evaluator(field(8))
    assert E._order_bound("zeta", 16, 2) == 16 * carlitz_l_degree(8, 2) == 1152
    assert E._level_cutoff(ValueFamily.ZETA, Index((16,)), 1000) == 1


@pytest.mark.parametrize("q", sorted(BOUND_LEVELS))
def test_power_sum_past_the_level_cutoff_is_zero(q):
    """One level past ``_level_cutoff`` the brute-force S_d(s) is zero to
    precision, for every zeta entry q < s <= 3q + 1."""
    E = Evaluator(field(q))
    for prec in (20, 40, 60):
        for s in range(q + 1, 3 * q + 2):
            d = E._level_cutoff(ValueFamily.ZETA, Index((s,)), prec) + 1
            assert E.power_sum(d, s, prec).is_zero_to_prec, (prec, s, d)


def test_level_cutoff_keeps_the_trivial_order_bound():
    """S_d(s) also has order >= s d, each 1/a^s having it.  zeta (33) at
    q=2, N=130: sigma_2(32) = 1 admits d = 5 (2 deg L_5 = 124), but
    33 d <= 130 stops at d = 3, so 8 monic polynomials fit a budget of 16."""
    E = Evaluator(field(2), EvalBudget(max_bruteforce=16))
    assert E._level_cutoff(ValueFamily.ZETA, Index((33,)), 130) == 3
    assert E.value_of_index("zeta", Index((33,)), 130).prec == 130


def power_sums_from_carlitz_e(F, d, K):
    """S_d(k) for 1 <= k <= K from Carlitz's F_q-linear e_d.

    The sum over monic a of degree d of 1/(a - y) is (1/L_d) / (1 - g(y)),
    g(y) = sum_i y^(q^i) / (D_i L_{d-i}^(q^i)), so S_d(k) = b_{k-1} / L_d with
    b_0 = 1 and b_n = sum over q^i <= n of b_{n - q^i} / (D_i L_{d-i}^(q^i)).
    D_i and L_j are built here from their products, not by the library.
    """
    q, T, one = F.q, F.T, F.poly([1])

    def D(i):
        out = one
        for j in range(i):
            out = out * (T ** (q ** i) - T ** (q ** j))
        return out

    def L(j):
        out = one
        for i in range(1, j + 1):
            out = out * (T - T ** (q ** i))
        return out

    c = [RatFunc(one, D(i) * L(d - i) ** (q ** i)) for i in range(d + 1)]
    b = [RatFunc.of(1, F)]
    for n in range(1, K):
        acc = RatFunc.of(0, F)
        for i in range(d + 1):
            if q ** i <= n:
                acc = acc + c[i] * b[n - q ** i]
        b.append(acc)
    Ld = RatFunc.of(L(d), F)
    return [b[k - 1] / Ld for k in range(1, K + 1)]


@pytest.mark.parametrize("q,d,K", [(2, 3, 12), (3, 2, 14), (4, 2, 12)])
def test_carlitz_e_power_sums_match_exact(q, d, K):
    """A second power-sum oracle, independent of the enumeration."""
    F = field(q)
    E = Evaluator(F)
    for k, want in enumerate(power_sums_from_carlitz_e(F, d, K), start=1):
        assert E.power_sum_exact(d, k) == want, (d, k)


class SdCutoffEvaluator(Evaluator):
    """The truncation before the e_d order bound: a zeta entry s > q keeps
    every level with s d <= prec and brute-forces each of them."""

    def _order_bound(self, side, s, d):
        if side == "zeta" and s > self.q:
            return s * d
        return super()._order_bound(side, s, d)


@pytest.mark.parametrize("q", [3, 4])
def test_order_bound_cutoff_matches_the_sd_cutoff(q):
    """Every zeta, zeta-dagger and zeta-star value of weight <= 7 at N=40 is
    the same series under both truncations."""
    F = field(q)
    E, ref = Evaluator(F), SdCutoffEvaluator(F)
    for family in ("zeta", "zeta-dagger", "zeta-star"):
        for w in range(1, 8):
            for s in compositions(w):
                got = E.value_of_index(family, s, 40)
                want = ref.value_of_index(family, s, 40)
                assert (got.lead, got.c, got.prec) == (want.lead, want.c, want.prec), (family, s)


def test_zeta_side_reaches_weight_8_at_q3():
    """Every zeta and zeta-dagger index of weight <= 8 at q=3, N=60 evaluates
    within the default budget (the s d cutoff needed up to 3^15 monic
    polynomials here)."""
    E = Evaluator(field(3))
    for family in ("zeta", "zeta-dagger"):
        for w in range(1, 9):
            for s in compositions(w):
                assert E.value_of_index(family, s, 60).prec == 60


@pytest.mark.parametrize("q", [3, 4])
def test_products_compare_at_full_precision(q):
    """No vacuous pass: over every ordered pair of indices of weight <= 4 at
    N = 40, both sides of the product formula and their difference hold
    precision 40, for both families."""
    F = field(q)
    E, A = Evaluator(F), IndexAlgebra(F)
    pool = [s for w in range(1, 5) for s in compositions(w)]
    for s in pool:
        for n in pool:
            for fam, kind in (("zeta", "qshuffle"), ("li", "harmonic")):
                lhs = E.eval_value(fam, A.mono(s), 40) * E.eval_value(fam, A.mono(n), 40)
                rhs = E.eval_value(fam, A.product(A.mono(s), A.mono(n), kind), 40)
                diff = lhs - rhs
                assert lhs.prec >= 40 and rhs.prec >= 40 and diff.prec == 40, (fam, s, n)
                assert diff.is_zero_to_prec, (fam, s, n)


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


def test_exact_power_sums_bound_the_division_cells(monkeypatch):
    """q^d * deg L_d is capped as well as q^d, before any numerator is computed."""
    E = Evaluator(field(9))
    with pytest.raises(PrecisionTooExpensive, match="3922566021 cells"):
        E.power_sum_exact(5, 1)  # 9^5 * 66429 cells, though 9^5 <= 2^20
    with pytest.raises(PrecisionTooExpensive, match="48420180 cells"):
        E.fundamental_identity_check(3)  # level 4: 9^4 * 7380 cells
    assert not E._numerators
    assert E.fundamental_identity_check(2).ok
    E3 = Evaluator(field(3))
    monkeypatch.setattr(EvalBudget, "MAX_DIVISION_CELLS", 3 ** 3 * 39 - 1)
    with pytest.raises(PrecisionTooExpensive):
        E3.power_sum_exact(3, 1)
    assert E3.power_sum_exact(2, 1) == E3.power_sum_exact(2, 1)


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


def test_exact_power_sums_bound_the_row_powers():
    """For s0 > 1 the cells count the s0 deg L_d digits of each quotient and
    the updates the s0 d coefficients of a^s0 under each cell:
    (q, d, s) = (8, 3, 7), (9, 3, 8) and (8, 3, 14) fit both caps and
    compute, and triples whose s0 = 1 sum fits are refused at their s0
    before any numerator is built."""
    import time
    for q, d, s in ((8, 3, 7), (9, 3, 8), (8, 3, 14)):
        F = field(q)
        # s <= q has numerator 1; 14 = 2 * 7 at q = 8 is its Frobenius
        assert Evaluator(F).power_sum_exact(d, s) == RatFunc(F.poly([1]), carlitz_l(F, d) ** s)
    E = Evaluator(field(7))
    E.budget.check_division(7, 4)  # 7^4 * 2800 cells
    t0 = time.perf_counter()
    with pytest.raises(PrecisionTooExpensive, match="20168400 cells"):
        E.power_sum_exact(4, 3)
    assert time.perf_counter() - t0 < 0.5 and not E._numerators
    # a wide divisor at few rows: 4 * 100001^2 updates, though 400 004 cells
    E = Evaluator(field(2))
    t0 = time.perf_counter()
    with pytest.raises(PrecisionTooExpensive, match="40000800004 coefficient updates"):
        E.power_sum_exact(1, 100001)
    assert time.perf_counter() - t0 < 0.5 and not E._numerators
    budget = EvalBudget()
    budget.check_division(2, 1, 5791)
    with pytest.raises(PrecisionTooExpensive, match="coefficient updates"):
        budget.check_division(2, 1, 5793)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 32):
        d = 0
        while q ** (d + 1) <= budget.max_bruteforce:
            try:
                budget.check_division(q, d + 1)
            except PrecisionTooExpensive as exc:
                # s0 = 1 is refused by its cells alone, as before the updates cap
                assert "cells, above" in str(exc), (q, d)
                break
            # the fundamental identity: s0 = q - 1 at level d fits where d + 1 does
            budget.check_division(q, d, q - 1)
            d += 1
    budget.check_division(7, 3, 6)
    assert Evaluator(field(9)).power_sum_exact(2, 8) == power_sum_oracle(field(9), 2, 8)


# -- the packed value DP against the LaurentSeries reference -------------------

def reference_value(E, family, s, prec, levels):
    """The value DP on LaurentSeries products and sums, each level factor a
    series from ``rat_to_laurent`` or ``power_sum``; ``levels`` memoises the
    factors.  This is the loop the evaluator ran before it packed its series."""
    family = ValueFamily.parse(family)
    F = E.field
    if family.is_star:
        inner = reference_value(E, family.dagger, s.reversed(), prec, levels)
        return inner.scale(-1 if s.depth % 2 else 1)
    if s.is_empty:
        return LaurentSeries.one(F, prec)
    side, r = family.side, s.depth

    def level(entry, d):
        key = (side, entry, d, prec)
        if key not in levels:
            if E._order_bound(side, entry, d) > prec:
                levels[key] = LaurentSeries.zero(F, prec)
            elif side == "li" or entry <= F.q:
                levels[key] = rat_to_laurent(RatFunc(F.poly([1]), E.L(d) ** entry), prec)
            else:
                levels[key] = E.power_sum(d, entry, prec)
        return levels[key]

    entries = tuple(reversed(s)) if not family.is_dagger else tuple(s)
    order = range(1, r + 1) if family.is_dagger else range(r, 0, -1)
    H = [LaurentSeries.one(F, prec)] + [LaurentSeries.zero(F, prec)] * r
    for d in range(E._level_cutoff(family, s, prec) + 1):
        for i in order:
            u = level(entries[i - 1], d)
            if not u.is_zero_to_prec:
                H[i] = (H[i] + u * H[i - 1]).with_prec(prec)
    out = H[r].with_prec(prec)
    return out.scale(-1) if family.is_dagger and r % 2 else out


def reference_eval_value(E, family, P, prec, levels):
    """The value of an IndexPoly as a term-by-term LaurentSeries sum."""
    out = LaurentSeries.zero(E.field, prec)
    for s, c in P.terms.items():
        if c.num.degree == 0 and c.den.degree == 0:
            v = reference_value(E, family, s, prec, levels).scale(
                c.num.leading() * c.den.leading().inverse())
        else:
            ext = prec + max(c.num.degree - c.den.degree, 0)
            v = reference_value(E, family, s, ext, levels) * rat_to_laurent(c, ext)
        out = out + v
    return out


def same_series(a, b):
    return (a.lead, a.c, a.prec) == (b.lead, b.c, b.prec)


FAMILIES = [f.value for f in ValueFamily]
REFERENCE_PRECS = (0, 1, 40, 63, 64, 254, 255, 264)


def width_switches(p, top):
    """The precisions N <= top whose packed slots are wider than at N - 1."""
    width = [SeriesPacking(field(p), n).width for n in range(top + 1)]
    return [n for n in range(1, top + 1) if width[n] != width[n - 1]]


@pytest.mark.parametrize("q", EXACT_QS)
def test_packed_values_match_the_series_reference(q):
    """Every family, depth <= 4, entries above q included, at N across the
    8/16-bit slot switch of every p: the packed DP returns the lead, codes
    and precision of the LaurentSeries DP."""
    F = field(q)
    E = Evaluator(F)
    levels = {}
    p = F.p
    switch = width_switches(p, 264)[0]
    indices = [Index(t) for t in ((1,), (2, 1), (q + 1,), (1, q + 1), (1, 2, 1), (2, 1, 1, 3))]
    for prec in sorted(set(REFERENCE_PRECS) | {switch - 1, switch}):
        for family in FAMILIES:
            for s in indices:
                got = E.value_of_index(family, s, prec)
                want = reference_value(E, family, s, prec, levels)
                assert same_series(got, want), (family, s, prec)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_batched_values_match_single_queries(q):
    """One DP batch of every composition of weight <= 7, a trie walk that
    shares prefix rows, memoises the values a fresh Evaluator gives one
    index at a time, for every family at N = 0, 40 and 264, whichever of
    the two runs first."""
    F = field(q)
    batch = [s for w in range(8) for s in compositions(w)]
    random.Random(q).shuffle(batch)
    for prec in (0, 40, 264):
        for batch_first in (True, False):
            many, single = Evaluator(F), Evaluator(F)
            for family in ValueFamily:
                if batch_first:
                    many._dp_value(family, batch, prec)
                want = [single._packed_sum(family, {s: 1}, prec) for s in batch]
                if not batch_first:
                    many._dp_value(family, batch, prec)
                memo = dict(many._values)
                assert [many._packed_sum(family, {s: 1}, prec)
                        for s in batch] == want, (family, prec)
                assert many._values == memo, (family, prec)  # the batch left no value out


@pytest.mark.parametrize("q", EXACT_QS)
def test_packed_sums_match_the_term_by_term_sum(q):
    """An IndexPoly with F_p constants, a genuine F_q constant (q = 4, 8, 9),
    a polynomial and a fractional coefficient: eval_value is the
    term-by-term series sum, for every family."""
    F = field(q)
    E, A = Evaluator(F), IndexAlgebra(F)
    levels = {}
    rng = random.Random(q)
    pool = [s for w in range(1, 6) for s in compositions(w, max_depth=4)] + [Index((q + 1, 1))]
    T, one = F.T, F.poly([1])
    for prec in (0, 1, 40, 264):
        for family in FAMILIES:
            P = A.product(A.mono(rng.choice(pool)), A.mono(rng.choice(pool)), "harmonic")
            P = P + A.mono(rng.choice(pool), F.rat(T + one)) + A.mono(
                rng.choice(pool), F.rat(one, T ** 2 + one))
            if F.e > 1:
                P = P + A.mono(rng.choice(pool), F.rat(F.poly([F.gen])))
            assert any(c.num.c[0] >= F.p for c in P.terms.values()) == (F.e > 1)
            got = E.eval_value(family, P, prec)
            want = reference_eval_value(E, family, P, prec, levels)
            assert same_series(got, want), (family, prec)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_packed_sums_that_cancel_to_zero(q):
    """zeta (1, b) = zeta (1) - 1 and li (1, b) = li (1) - 1 to precision N
    for b > N, each nonzero.  A multiple of p of such terms at p - 1 each is
    zero to precision; on the li side there are enough of them to overflow
    a slot unless the sum is reduced on the way (on the zeta side S_0(b)
    costs b products, so it takes p terms).  So is value(s) minus its
    normal form, whose terms take both the packed sum and series products."""
    F = field(q)
    E, A, R = Evaluator(F), IndexAlgebra(F), Reducer(IndexAlgebra(F))
    p, N = F.p, 40
    cap = SeriesPacking(F, N).cap
    for family, count in (("zeta", p), ("li", p * (cap // (p - 1) ** 2 // p + 1))):
        assert family == "zeta" or count * (p - 1) ** 2 > cap
        v = E.eval_value(family, A.mono((1, N + 1)), N)
        assert not v.is_zero_to_prec and v == E.eval_value(family, A.mono((1,)) - A.mono(()), N)
        P = IndexPoly(F, {(1, b): p - 1 for b in range(N + 1, N + 1 + count)})
        got = E.eval_value(family, P, N)
        assert got.is_zero_to_prec and got.prec == N, family
        mixed = 0
        for s in [s for w in range(2, 5) for s in compositions(w)] + [Index((q + 1,))]:
            P = A.mono(s) - R.reduce_to_T(family, A.mono(s))
            mixed += any(c.num.degree > 0 for c in P.terms.values())
            got = E.eval_value(family, P, N)
            assert got.is_zero_to_prec and got.prec == N, (family, s)
            assert same_series(got, reference_eval_value(E, family, P, N, {}))
        assert mixed, family


@pytest.mark.parametrize("q", [3, 5, 9])
def test_packed_sums_of_memoised_values_run_no_walk(q, monkeypatch):
    """For the plain, dagger and star families, codes 1..p-1 and indices of
    odd and even depth: a value sum on an Evaluator that memoised every
    value one at a time equals the sum on a cold Evaluator and the series
    reference, and runs no DP walk; adding two new indices runs exactly
    one walk, over those two alone."""
    F = field(q)
    p, prec = F.p, 30
    pool = [Index(t) for t in ((1,), (2, 1), (q + 1,), (1, q + 1, 2), (2, 1, 1, 1), (1, 2))]
    terms = {s: 1 + i % (p - 1) for i, s in enumerate(pool)}
    assert set(terms.values()) == set(range(1, p))
    assert {s.depth % 2 for s in pool} == {0, 1}
    new = {Index((3, 2, 1)): p - 1, Index((2, 2)): 1}
    packing = SeriesPacking(F, prec)
    levels, walks = {}, []
    dp_value = Evaluator._dp_value

    def spy(self, family, batch, prec):
        walks.append((family, sorted(batch)))
        return dp_value(self, family, batch, prec)

    monkeypatch.setattr(Evaluator, "_dp_value", spy)
    for family in ValueFamily:
        warm = Evaluator(F)
        for s in terms:
            warm.value_of_index(family, s, prec)
        for batch in (terms, {**terms, **new}):
            want = Evaluator(F)._packed_sum(family, batch, prec)
            ref = reference_eval_value(warm, family, IndexPoly(F, batch), prec, levels)
            assert same_series(packing.unpack(want), ref), (family, len(batch))
            del walks[:]
            assert warm._packed_sum(family, batch, prec) == want, (family, len(batch))
            base = family.dagger if family.is_star else family
            missed = sorted(s.reversed() if family.is_star else s for s in new)
            assert walks == ([] if batch is terms else [(base, missed)]), family


@pytest.mark.parametrize("p", [2, 3, 5, 7, 257])
def test_packed_update_at_every_width_switch(p):
    """x + u h with every code p - 1 fills slot N of the product with
    N + 1 products: the slot sum (N + 1)(p - 1)^2 + (p - 1) is the bound
    the width holds, and at each switch it no longer fits the narrower
    width.  The reduced slot k is (N - k + 1)(p - 1)^2 + (p - 1) mod p."""
    F = field(p)
    switches = width_switches(p, 70000) if p <= 7 else [65535]
    assert switches
    for switch in switches:
        for n in (switch - 1, switch):
            packing = SeriesPacking(F, n)
            bound = (n + 1) * (p - 1) ** 2 + (p - 1)
            assert bound <= packing.cap and (n < switch or bound >= 1 << packing.width // 2)
            dtype = f"<u{packing.width // 8}"
            full = int.from_bytes(np.full(n + 1, p - 1, dtype).tobytes(), "little")
            got = _read_slots(packing.mul_add(full, full, full), n + 1, packing.width)
            k = np.arange(n + 1, dtype=np.int64)
            want = ((n - k + 1) * (p - 1) ** 2 + (p - 1)) % p
            assert np.array_equal(got, want), (p, n)


def test_packing_checks_its_input():
    """A code >= p, a positive lead or a precision below N raises; the zero
    series, and one of order > N known beyond N, pack to 0 and unpack at
    the packing's precision."""
    F4 = field(4)
    packing = SeriesPacking(F4, 10)
    with pytest.raises(InvalidInput, match="outside F_p"):
        packing.pack(LaurentSeries._make(F4, 0, [1, 0, F4.gen.i], 10))
    with pytest.raises(InvalidInput, match="positive lead"):
        packing.pack(LaurentSeries._make(F4, 1, [1], 10))
    with pytest.raises(InvalidInput, match="precision 9"):
        packing.pack(LaurentSeries._make(F4, 0, [1], 9))
    assert packing.pack(LaurentSeries.zero(F4, 12)) == 0
    assert packing.pack(LaurentSeries._make(F4, -11, [1], 30)) == 0
    assert same_series(packing.unpack(0), LaurentSeries.zero(F4, 10))
    v = LaurentSeries._make(F4, -2, [1, 1, 0, 1], 12)
    assert same_series(packing.unpack(packing.pack(v)), v.with_prec(10))
    E = Evaluator(F4)
    with pytest.raises(InvalidInput, match="positive lead"):
        E._packing(10).pack(rat_to_laurent(F4.rat(F4.T), 10))


def test_power_sum_past_the_precision_is_zero_within_budget():
    """S_30(5) at q = 2 is O(T^-150): zero at N = 10, though 2^30 monic
    polynomials exceed the brute-force budget."""
    E = Evaluator(field(2))
    got = E.power_sum(30, 5, 10)
    assert got.is_zero_to_prec and got.prec == 10
    with pytest.raises(PrecisionTooExpensive):
        E.power_sum(30, 5, 150)


def recip_loop(F, codes, m):
    """First m coefficients of 1/c by the coefficient recurrence."""
    inv0 = F.inv_idx(codes[0])
    out = [inv0]
    for k in range(1, m):
        acc = 0
        for j in range(1, min(k, len(codes) - 1) + 1):
            acc = F.add_idx(acc, F.mul_idx(codes[j], out[k - j]))
        out.append(F.mul_idx(inv0, F.neg_idx(acc)))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_newton_reciprocal_matches_the_recurrence(q):
    """Lengths on both sides of the 8/16-bit Kronecker slot switch
    (len (p-1)^2 < 256), F_p codes and, at q = 4, 9, genuine F_q codes."""
    F = field(q)
    p = F.p
    rng = random.Random(q)
    edge = 256 // (p - 1) ** 2
    for top in (p, q):
        for length in (1, 2, 5, edge - 1, edge, edge + 1, 300):
            for m in (1, 2, 3, edge - 1, edge, edge + 1, 2 * edge + 3, 600):
                codes = [rng.randrange(1, top)] + [rng.randrange(top) for _ in range(length - 1)]
                assert _recip_codes(F, codes, m) == recip_loop(F, codes, m), (top, length, m)


def test_series_field_check():
    """Series over GF(3) and GF(9) do not mix; a FieldSpec equal to field(3)
    but not the same object does."""
    a = LaurentSeries.one(field(3), 5)
    with pytest.raises(InvalidInput, match="mixed fields"):
        a + LaurentSeries.one(field(9), 5)
    with pytest.raises(InvalidInput, match="mixed fields"):
        a * LaurentSeries.one(field(9), 5)
    b = LaurentSeries.one(FieldSpec(3), 5)
    assert b.spec is not a.spec
    assert same_series(a + b, LaurentSeries._make(field(3), 0, [2], 5))
    assert a * b == a
