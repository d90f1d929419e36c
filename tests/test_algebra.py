"""Field, polynomial, rational-function, and Laurent-series arithmetic."""

import math
import random

import pytest

from ffmzv import (DivisionByZero, InsufficientPrecision, InvalidInput,
                   LaurentSeries, RatFunc, carlitz_l, field, poly_lucas_binom,
                   rat_to_laurent)


def test_gf_small_examples():
    F3 = field(3)
    assert F3.elem(2) * F3.elem(2) == F3.elem(1)
    F4 = field(4)
    u = F4.gen
    assert str(u * u) == "u+1"
    for q in (2, 3, 4, 8, 9):
        F = field(q)
        for a in F.elements():
            assert F.one * a == a


def test_gf_inverse_of_zero_raises():
    F = field(5)
    with pytest.raises(DivisionByZero):
        F.zero.inverse()


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25])
def test_field_axioms_random(q):
    F = field(q, modulus=(2, 0, 1)) if q == 25 else field(q)
    rng = random.Random(q)
    for _ in range(60):
        a, b, c = (F.from_index(rng.randrange(q)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert a * a.inverse() == F.one


def test_field_of_order_25_needs_modulus_or_table():
    # 25 is not in the built-in table; u^2+2 is irreducible over F_5
    F = field(25, modulus=(2, 0, 1))
    assert F.q == 25
    with pytest.raises(InvalidInput):
        field(49)


def test_bad_modulus_rejected():
    with pytest.raises(InvalidInput):
        field(4, modulus=(0, 0, 1))   # u^2 is reducible
    with pytest.raises(InvalidInput):
        field(6)


def test_lucas_binomials():
    assert poly_lucas_binom(4, 2, 2) == 0
    assert poly_lucas_binom(5, 2, 3) == 1
    for n in range(10):
        assert poly_lucas_binom(n, 0, 7) == 1
    # oracle: direct big-integer binomial mod p
    for p in (2, 3, 5):
        for a in range(30):
            for b in range(a + 1):
                assert poly_lucas_binom(a, b, p) == math.comb(a, b) % p
    assert poly_lucas_binom(3, 5, 2) == 0


def test_poly_basics():
    F2 = field(2)
    t = F2.T
    p = t ** 2 + F2.poly([1])
    assert str(p) == "T^2+1"
    assert p * p == t ** 4 + F2.poly([1])  # char-2 squaring
    q, r = (t ** 5 + t).divmod(t ** 2 + t)
    assert q * (t ** 2 + t) + r == t ** 5 + t
    assert F2.poly([]).is_zero and F2.poly([0, 0]).is_zero


def test_poly_big_multiplication_matches_schoolbook():
    rng = random.Random(11)
    for q in (3, 4):
        F = field(q)
        a = F.poly([F.from_index(rng.randrange(q)) for _ in range(150)])
        b = F.poly([F.from_index(rng.randrange(q)) for _ in range(130)])
        big = a * b  # routed through the convolution kernel
        small = F.poly([0])
        for k, c in enumerate(a.coeffs):
            small = small + (b * c).shift(k)
        assert big == small


def test_poly_frobenius():
    rng = random.Random(5)
    for q in (2, 3, 4, 9):
        F = field(q)
        for _ in range(10):
            x = F.poly([F.from_index(rng.randrange(q)) for _ in range(6)])
            y = F.poly([F.from_index(rng.randrange(q)) for _ in range(6)])
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()
            xn = F.poly([1])
            for n in range(F.q + 2):  # ** peels Frobenius factors off n
                assert x ** n == xn
                xn = xn * x


def test_ratfunc_canonical():
    F3 = field(3)
    t = F3.T
    f = RatFunc(t ** 2 - t, t * (t - F3.poly([1])) * (t + F3.poly([1])))
    # cancels to 1/(t+1); denominator monic
    assert f == RatFunc(F3.poly([1]), t + F3.poly([1]))
    g = RatFunc(F3.poly([2]) * t, F3.poly([2]) * (t ** 2))
    assert g.den.leading() == F3.one
    with pytest.raises(DivisionByZero):
        RatFunc(t, F3.poly([]))


def test_ratfunc_field_ops():
    F2 = field(2)
    t = F2.T
    a = RatFunc(F2.poly([1]), t)
    b = RatFunc(F2.poly([1]), t + F2.poly([1]))
    # 1/t + 1/(t+1) = 1/(t^2+t) in characteristic 2
    assert a + b == RatFunc(F2.poly([1]), t ** 2 + t)
    assert (a * b) / b == a
    assert a - a == RatFunc.of(0, F2)
    assert (a / b) * b == a


def _random_ratfunc(F, rng, fractional):
    def poly(deg):
        return F.poly([F.from_index(rng.randrange(F.q)) for _ in range(deg + 1)])
    if not fractional:
        return RatFunc.of(poly(rng.randint(0, 4)))
    den = poly(rng.randint(1, 3))
    while den.degree < 1:
        den = poly(rng.randint(1, 3))
    return RatFunc(poly(rng.randint(0, 4)), den)


def _assert_canonical(x):
    assert x.den.leading() == x.spec.one
    assert x.num.gcd(x.den) == x.spec.poly([1])
    assert not x.num.is_zero or x.den == x.spec.poly([1])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_ratfunc_ring_laws(q):
    """Polynomial operands take the gcd-free path, fractional ones the general
    one; every result is the canonical reduced fraction either way."""
    F = field(q)
    rng = random.Random(q)
    zero, one = RatFunc.of(0, F), RatFunc.of(1, F)
    for _ in range(30):
        a, b, c = (_random_ratfunc(F, rng, rng.random() < 0.5) for _ in range(3))
        results = [a + b, a - b, a * b, -a, a ** 3, (a + b) + c, a + (b + c),
                   (a * b) * c, a * (b * c), a * (b + c), a * b + a * c]
        for x in results:
            _assert_canonical(x)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == zero and a + (-a) == zero and -(-a) == a
        assert a + zero == a and a * one == a and a * zero == zero
        assert a ** 3 == a * a * a
        if not a.is_zero:
            _assert_canonical(a.inverse())
            _assert_canonical(b / a)
            assert a * a.inverse() == one
            assert (b / a) * a == b
            assert a ** -2 == (a * a).inverse()


def test_ratfunc_mixed_fields_raise():
    F2, F3, F4 = field(2), field(3), field(4)
    frac = RatFunc(F2.poly([1]), F2.T)
    for a, b in ((F2.rat(F2.T), F3.rat(F3.T)),  # both polynomial: the fast path
                 (F2.rat(F2.T), F4.rat(F4.T)),
                 (frac, F4.rat(F4.T)), (F3.rat(F3.T), frac)):
        for op in (lambda x, y: x + y, lambda x, y: x - y,
                   lambda x, y: x * y, lambda x, y: x / y):
            with pytest.raises(InvalidInput):
                op(a, b)


def test_ratfunc_rtruediv_unsupported_operand():
    F = field(3)
    x = F.rat(F.T)
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for /"):
        1.5 / x
    assert 1 / x == x.inverse() == RatFunc(F.poly([1]), F.T)


def test_rat_to_laurent_examples():
    F3 = field(3)
    t = F3.T
    # polynomial expands exactly
    s = rat_to_laurent(RatFunc.of(t ** 2 + F3.poly([1])), 5)
    assert s.lead == 2 and s.coeff(2) == F3.one and s.coeff(0) == F3.one
    # 1/T
    s = rat_to_laurent(RatFunc(F3.poly([1]), t), 3)
    assert str(s) == "T^-1 + O(T^-3)"
    # geometric oracle: 1/(T-1) = sum T^-k
    s = rat_to_laurent(RatFunc(F3.poly([1]), t - F3.poly([1])), 3)
    assert [s.coeff(-k).i for k in range(1, 4)] == [1, 1, 1]
    with pytest.raises(DivisionByZero):
        rat_to_laurent(RatFunc(F3.poly([1]), F3.poly([])), 3)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_rat_to_laurent_is_ring_homomorphism(q):
    rng = random.Random(17)
    F = field(q)
    N = 25
    for _ in range(15):
        def rand_rat():
            num = F.poly([F.from_index(rng.randrange(q)) for _ in range(rng.randint(1, 4))])
            den = F.poly([F.from_index(rng.randrange(q)) for _ in range(rng.randint(1, 4))]
                         + [1])
            return RatFunc(num if not num.is_zero else F.poly([1]), den)
        f, g = rand_rat(), rand_rat()
        assert rat_to_laurent(f, N) + rat_to_laurent(g, N) == rat_to_laurent(f + g, N)
        assert rat_to_laurent(f, N) * rat_to_laurent(g, N) == rat_to_laurent(f * g, N)


def test_laurent_add_and_zero():
    F2 = field(2)
    x = rat_to_laurent(RatFunc(F2.poly([1]), F2.T), 10)
    z = LaurentSeries.zero(F2, 10)
    assert x + z == x
    assert (x - x).is_zero_to_prec


def test_laurent_mul_precision_rule():
    F2 = field(2)
    a = LaurentSeries(F2, -1, (1,), 10)
    b = LaurentSeries(F2, -2, (1,), 10)
    ab = a * b
    assert ab.lead == -3 and ab.prec == 11  # min(10+2, 10+1)


def test_laurent_char2_square():
    F2 = field(2)
    s = LaurentSeries(F2, 0, (1, 1), 10)
    sq = s * s
    assert sq.coeff(0) == F2.one and sq.coeff(-2) == F2.one and sq.coeff(-1).is_zero


def test_laurent_div_and_insufficient_precision():
    F2 = field(2)
    x = rat_to_laurent(RatFunc(F2.poly([1, 1]), F2.T ** 2), 12)
    y = rat_to_laurent(RatFunc(F2.poly([1]), F2.T), 12)
    assert (x / y) == rat_to_laurent(RatFunc(F2.poly([1, 1]), F2.T), 8)
    with pytest.raises(InsufficientPrecision):
        LaurentSeries.zero(F2, 5).inverse()
    with pytest.raises(InsufficientPrecision):
        x.coeff(-13)


def test_laurent_equality_to_common_precision():
    F3 = field(3)
    a = rat_to_laurent(RatFunc(F3.poly([1]), F3.T - F3.poly([1])), 20)
    b = rat_to_laurent(RatFunc(F3.poly([1]), F3.T - F3.poly([1])), 8)
    assert a == b
    c = a + LaurentSeries(F3, -9, (1,), 20)  # differs below b's precision
    assert c == b and c != a


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_laurent_frobenius_property(q):
    rng = random.Random(3)
    F = field(q)
    for _ in range(10):
        x = LaurentSeries(F, 1, [F.from_index(rng.randrange(q)) for _ in range(8)], 15)
        y = LaurentSeries(F, 0, [F.from_index(rng.randrange(q)) for _ in range(8)], 15)
        px, py, pxy = x, y, x + y
        for _ in range(F.p - 1):
            px = px * x
            py = py * y
            pxy = pxy * (x + y)
        assert pxy == px + py
        # x^p raises each coefficient to the p-th power and spreads T^j to T^(pj)
        spread = [c for k in range(8) for c in [x.coeff(1 - k) ** F.p] + [F.zero] * (F.p - 1)]
        assert px == LaurentSeries(F, F.p, spread, 15)


def test_precision_soundness_recompute_higher():
    F3 = field(3)
    t = F3.T
    f = RatFunc(t ** 2 + F3.poly([2]), t ** 3 + t + F3.poly([1]))
    g = RatFunc(F3.poly([1]), t - F3.poly([1]))
    lo = rat_to_laurent(f, 10) * rat_to_laurent(g, 10)
    hi = rat_to_laurent(f, 30) * rat_to_laurent(g, 30)
    assert lo == hi  # compares down to the smaller precision


def test_carlitz_l_degrees():
    for q in (2, 3, 4):
        F = field(q)
        for d in range(5):
            assert carlitz_l(F, d).degree == (q ** (d + 1) - q) // (q - 1)
    F2 = field(2)
    assert carlitz_l(F2, 0) == F2.poly([1])
    assert carlitz_l(F2, 1) == F2.T + F2.T ** 2
    # q=2: L_2 = (T+T^2)(T+T^4)
    assert carlitz_l(F2, 2) == (F2.T + F2.T ** 2) * (F2.T + F2.T ** 4)
