"""Field, polynomial, rational-function, and Laurent-series arithmetic."""

import math
import random

import pytest

from ffmzv import (DivisionByZero, FieldSpec, InsufficientPrecision, InvalidInput,
                   LaurentSeries, RatFunc, carlitz_l, field, poly_lucas_binom,
                   rat_to_laurent)
from ffmzv.algebra import (_mul_codes, _p_split, _pack_rows, _pack_slots, _read_slots,
                           _reduce_slots, _slot_runs, _slot_width, carlitz_l_degree)


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25])
def test_field_tables_and_powers(q):
    """The inverse and Frobenius tables, FieldElem powers and the GFVec
    digit planes against repeated multiplication and the FieldSpec tables."""
    F = field(q, modulus=(2, 0, 1)) if q == 25 else field(q)
    p = F.p

    def repeated(a, n):
        acc = F.one
        for _ in range(n):
            acc = acc * a
        return acc

    for a in F.elements():
        assert F.frob_idx(a.i) == repeated(a, p).i
        for n in (0, 1, 2, 3, q - 2, q - 1, q):
            assert a ** n == repeated(a, n), (a, n)
        if a.is_zero:
            continue
        assert F.inv_idx(a.i) == repeated(a, q - 2).i
        assert (a * a.inverse()) == F.one
        for n in (-1, -2):
            assert a ** n == repeated(a.inverse(), -n), (a, n)
    vec, codes = F.vec, list(range(q))
    width = _slot_width(p - 1 + F.e * (p - 1) ** 2)
    every = vec._pack(codes, width)
    assert [vec._planes[a] for a in codes] == [tuple(F._digits(a)) for a in codes]
    assert vec._codes(every, q, width) == codes
    for b in codes:
        # b + a and b a for every a, on the packed digit planes
        plus = vec._pack([b] * q, width) + every
        assert vec._codes(_reduce_slots(plus, q * F.e, width, p), q, width) == F._add[b]
        times = vec._scale(every, b, q, width)
        assert vec._codes(_reduce_slots(times, q * F.e, width, p), q, width) == F._mul[b]
    assert _p_split(0, p) == (0, 0)
    assert _p_split(1, p) == (1, 0)
    for k in range(4):
        assert _p_split(p ** k, p) == (1, k)
        for m in (2, p + 1, 2 * p - 1):
            if m % p:
                assert _p_split(p ** k * m, p) == (m, k)


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
        big = a * b
        small = F.poly([0])
        for k, c in enumerate(a.coeffs):
            small = small + (b * c).shift(k)
        assert big == small


def _schoolbook_codes(spec, a, b, n=None):
    """The table loop that ``_mul_codes`` ran before the Kronecker product."""
    full = len(a) + len(b) - 1 if a and b else 0
    n = full if n is None else min(n, full)
    if n <= 0:
        return []
    mul, add = spec._mul, spec._add
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            row = mul[ai]
            for k, bj in enumerate(b[:n - i], i):
                if bj:
                    out[k] = add[out[k]][row[bj]]
    return out


def _prime_of(q):
    return next(d for d in range(2, q + 1) if q % d == 0)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 257, 4, 8, 9])
def test_mul_codes_matches_schoolbook(q):
    """Random operands of lengths 1..300, whole and cut to n coefficients;
    the lengths cross the 8/16-bit slot boundary at p = 3, 5, 7 and put
    p = 257 in 32-bit slots from length 2 on.  At q = 4, 8, 9, on a fresh
    field, the operands are F_p-coded (codes below p), genuine F_q-coded,
    or F_p-coded with one genuine code, in either order; the lengths cross
    the short length of the table loop and the 8/16-bit slot boundary."""
    p = _prime_of(q)
    F = field(q) if p == q else FieldSpec(p, round(math.log(q, p)))
    rng = random.Random(q)
    if p == q:
        lengths = [1, 2, 3, 5, 8, 16, 17, 40, 63, 64, 65, 100, 255, 256, 300]
        kinds = [(q, q)]
    else:
        lengths = [1, 2, 3, 4, 5, 6, 9, 17, 63, 64, 65, 100, 255, 256, 300]
        kinds = [(p, p), (q, q), (p, q), (q, p), ("mixed", p), (p, "mixed")]

    def operand(kind, length):
        if kind != "mixed":
            return tuple(rng.randrange(kind) for _ in range(length))
        out = [rng.randrange(p) for _ in range(length)]
        out[rng.randrange(length)] = rng.randrange(p, q)
        return tuple(out)

    for la in lengths:
        for lb in rng.sample(lengths, 4):
            for ka, kb in kinds:
                a, b = operand(ka, la), operand(kb, lb)
                for n in (None, 1, la, rng.randint(1, la + lb)):
                    assert _mul_codes(F, a, b, n) == _schoolbook_codes(F, a, b, n)
    assert _mul_codes(F, (), (1, 2), None) == [] and _mul_codes(F, (1,), (1,), 0) == []


@pytest.mark.parametrize("q, short", [(2, 255), (2, 256), (3, 63), (3, 64), (17, 255),
                                      (17, 256), (2, 65535), (2, 65536), (257, 65535),
                                      (257, 65536), (4, 255), (4, 256), (9, 63), (9, 64)])
def test_mul_codes_slot_boundaries(q, short):
    """Operands of all p-1 fill the middle slot up to the bound
    short·(p-1)^2 on which the slot width is chosen: just below or at
    2^8, 2^16 and 2^32.  A slot one bit too narrow overflows there.  At
    q = 4 and 9 the codes p-1 are F_p-coded, so they take the same slots."""
    p = _prime_of(q)
    F = field(q)
    c = p - 1

    def product(la, lb, n):
        m = la + lb - 1
        return [c * c * min(k + 1, la, lb, m - k) % p for k in range(n)]

    a, b = (c,) * short, (c,) * (short + 7)
    assert _mul_codes(F, a, b) == product(short, short + 7, 2 * short + 6)
    if short <= 300:  # cut to n, then sized: the same bound
        a = b = (c,) * (short + 50)
        assert _mul_codes(F, a, b, short) == product(short, short, short)
        assert _mul_codes(F, a, b, short) == _schoolbook_codes(F, a, b, short)


@pytest.mark.parametrize("bound, width", [(255, 8), (256, 16), (65535, 16), (65536, 32),
                                          (2 ** 32 - 1, 32), (2 ** 32, 64)])
def test_slot_codec_at_every_width_switch(bound, width):
    """Slots holding the bound itself, and 0, 1 and p - 1 around it, come back
    exact, and reduced mod p, from every read of the codec."""
    assert _slot_width(bound) == width and _slot_width(bound - 1) <= width
    top = (1 << width) - 1
    codes = [bound, 0, 1, top, bound - 1, 0, 0, top]
    x = _pack_slots(codes, width)
    assert x == sum(c << width * j for j, c in enumerate(codes))  # little-endian
    n = len(codes)
    assert _read_slots(x, n, width) == codes
    runs = _slot_runs(x, 2, 4, width)
    assert b"".join(runs) == x.to_bytes(n * width >> 3, "little")
    read = [_read_slots(int.from_bytes(run, "little"), 4, width) for run in runs]
    assert read == [codes[:4], codes[4:]]
    # a read of the first k slots of an int of n slots drops the rest
    assert _read_slots(x, 5, width, 0, n) == codes[:5]
    wide = (2, 3, 13, 31, 37, 61, 67, 127, 131, 257, 4093)
    # every prime up to 43, the last whose division lanes are 8 bits
    narrow = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    for p in narrow if width == 8 else wide:
        want = [c % p for c in codes]
        assert _read_slots(_reduce_slots(x, n, width, p), n, width) == want
        assert _read_slots(x, n, width, p) == want
        assert _read_slots(x, 5, width, p, n) == want[:5]
    # rows of 4 and 3 slots padded to runs of 6: slots 4, 5, 9, 10 and 11 are zero
    low = (1 << 4 * width) - 1
    rows = [codes[:4], tuple(codes[4:7])]
    assert _pack_rows(rows, 6, width) == x & low | (x >> 4 * width & low >> width) << 6 * width
    assert _pack_rows(read, 4, width) == x


def test_slot_width_raises_above_64_bits():
    assert _slot_width(0) == 8 and _slot_width(2 ** 64 - 1) == 64
    with pytest.raises(InvalidInput):
        _slot_width(2 ** 64)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 257])
def test_slot_codec_product_matches_schoolbook(p):
    """Pack, one big-int product and one reduced read give the schoolbook
    product over F_p, whole and cut, at lengths across the 8/16-bit slot
    switch of each p < 17 and in 32-bit slots at p = 257."""
    F = field(p)
    rng = random.Random(p)
    for la, lb in [(2, 2), (3, 40), (28, 29), (64, 64), (85, 90), (300, 257), (1, 7)]:
        for extreme in (False, True):
            a = [p - 1 if extreme else rng.randrange(p) for _ in range(la)]
            b = [p - 1 if extreme else rng.randrange(p) for _ in range(lb)]
            w = _slot_width(min(la, lb) * (p - 1) ** 2)
            x = _pack_slots(a, w) * _pack_slots(b, w)
            m = la + lb - 1
            for n in (m, m // 2 + 1, 1):
                assert _read_slots(x, n, w, p, m) == _schoolbook_codes(F, a, b, n)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_poly_ring_laws(q):
    """Lengths 0..260 reach the product paths: a scalar row, Kronecker slots
    over F_p, and the table loop over F_q, q = p^e."""
    p = _prime_of(q)
    F = FieldSpec(p, round(math.log(q, p)))  # a fresh field, not the shared field(q)
    rng = random.Random(q)
    zero, one = F.poly([]), F.poly([1])

    def rand():
        return F.poly([F.from_index(rng.randrange(q))
                       for _ in range(rng.choice([0, 1, 2, 7, 40, 70, 130, 260]))])

    for _ in range(12):
        a, b, c = rand(), rand(), rand()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * one == a and one * a == a
        assert a * zero == zero and (a - a) * b == zero
        if not (a.is_zero or b.is_zero):
            assert (a * b).degree == a.degree + b.degree
    x, xn = rand(), one
    while x.degree > 6:
        x = rand()
    for n in range(2 * q + 3):
        assert x ** n == xn
        xn = xn * x


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


def test_poly_mixed_fields_raise():
    F2, F3, F4 = field(2), field(3), field(4)
    for a, b in ((F2.T + 1, F3.T), (F2.T, F4.T + 1), (F4.T, F2.poly([1]))):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(InvalidInput):
                op(a, b)


def test_poly_equal_specs_that_are_distinct_objects_combine():
    G, F = FieldSpec(3), field(3)
    assert G is not F and G == F
    a, b = G.poly([1, 2, 1]), F.poly([2, 0, 1, 1])
    assert a + b == F.poly([0, 2, 2, 1])
    assert a - b == F.poly([2, 2, 0, 2])
    assert b - a == F.poly([1, 1, 0, 1])
    assert a * b == F.poly([2, 1, 0, 0, 0, 1])
    assert G.rat(a) * F.rat(b) == F.rat(a * b)
    assert G.rat(a) + F.rat(b) == F.rat(a + b)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_poly_and_ratfunc_coercions_match_the_explicit_operands(q):
    F = field(q)
    rng = random.Random(q)
    a = F.poly([rng.randrange(q) for _ in range(4)] + [1])
    r = RatFunc(F.T + 1, F.T ** 2 + F.T + F.poly([F.gen]))
    for n in (0, 1, 2, 5):
        assert a * n == n * a == a * F.poly([n])
        assert a + n == a + F.poly([n]) and a - n == a - F.poly([n])
        assert n - a == F.poly([n]) - a
        assert r + n == r + RatFunc.of(n, F)
        assert r * n == r * RatFunc.of(n, F)
    for c in F.elements():
        assert a * c == a * F.poly([c])
    assert r * a == a * r == r * RatFunc.of(a)
    assert r + a == r + RatFunc.of(a)
    assert (a * 0).c == () and (a * F.zero).c == ()
    assert (a - a).is_zero and (a - a).c == ()


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
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field(q)
        for d in range(5):
            assert carlitz_l(F, d).degree == (q ** (d + 1) - q) // (q - 1)
            assert carlitz_l_degree(q, d) == carlitz_l(F, d).degree
    F2 = field(2)
    assert carlitz_l(F2, 0) == F2.poly([1])
    assert carlitz_l(F2, 1) == F2.T + F2.T ** 2
    # q=2: L_2 = (T+T^2)(T+T^4)
    assert carlitz_l(F2, 2) == (F2.T + F2.T ** 2) * (F2.T + F2.T ** 4)
