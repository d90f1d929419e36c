"""Index slicing, classification, Delta, and the two products."""

import math
import random

import pytest

from ffmzv import (EMPTY, EmptyIndex, Index, IndexAlgebra, InvalidInput,
                   ProductKind, classify, compositions, field, parse_index,
                   repeat, thakur_indices)


def delta_oracle(q, p, s, n, j):
    """Direct big-integer evaluation of the carry coefficient."""
    if j < 1 or j >= s + n or j % (q - 1) != 0:
        return 0
    val = (-1) ** (s - 1) * math.comb(j - 1, s - 1) + (-1) ** (n - 1) * math.comb(j - 1, n - 1)
    return val % p


def test_slicing():
    s = Index((3, 1, 2))
    assert s.prefix(2) == Index((3, 1))
    assert s.minus == Index((1, 2))
    assert s.plus == Index((3, 1))
    assert s.prefix(0) == EMPTY
    assert s.suffix(s.depth + 1) == EMPTY
    assert s.suffix(1) == s
    assert s.drop(1) == s.minus
    with pytest.raises(EmptyIndex):
        _ = EMPTY.plus
    with pytest.raises(EmptyIndex):
        _ = EMPTY.minus
    with pytest.raises(InvalidInput):
        s.prefix(5)


def test_index_validation_and_parse():
    with pytest.raises(InvalidInput):
        Index((0, 1))
    assert parse_index("()") == EMPTY
    assert parse_index(" (3, 1,2) ") == Index((3, 1, 2))
    for bad in ["(1,", "3,1", "(a)", "(-1)", "(1.5)"]:
        with pytest.raises(InvalidInput):
            parse_index(bad)
    assert str(Index((3, 1, 2))) == "(3,1,2)"
    assert str(EMPTY) == "()"


def test_classify():
    got = classify(Index((3, 2)), 3)
    assert got["in_IT"] is True
    assert classify(Index((2, 3)), 3)["in_IT"] is False   # last entry 3 > q-1
    assert classify(EMPTY, 3) == {"in_IT": True, "in_Iprime": True,
                                  "admissible0": True, "rev_admissible0": True}
    assert classify(Index((4, 1)), 3)["in_Iprime"] is True
    assert classify(Index((3, 1)), 3)["in_Iprime"] is False
    assert classify(Index((1, 2)), 3)["admissible0"] is False
    assert classify(Index((2, 1)), 3)["rev_admissible0"] is False


def test_weight_and_depth():
    s = Index((3, 1, 2))
    assert s.weight == 6 and s.depth == 3
    assert EMPTY.weight == 0 and EMPTY.depth == 0
    assert repeat(2, 3) == Index((2, 2, 2))


def test_compositions_and_thakur():
    assert list(compositions(0)) == [EMPTY]
    assert len(list(compositions(5))) == 16
    assert len(list(compositions(5, max_depth=2))) == 5
    assert thakur_indices(2, 6) == sorted(
        s for s in compositions(6) if s.is_thakur(2))
    assert thakur_indices(2, 0) == [EMPTY]


def test_delta_examples_and_oracle():
    A2 = IndexAlgebra(field(2))
    A3 = IndexAlgebra(field(3))
    assert A2.delta(1, 1, 1).is_zero                       # 2 = 0 mod 2
    assert A3.delta(2, 2, 2) == field(3).elem(1)           # -2 = 1 mod 3
    assert A3.delta(1, 1, 1).is_zero                       # 2 does not divide 1
    for A, q, p in ((A2, 2, 2), (A3, 3, 3)):
        for s in range(1, 6):
            for n in range(1, 6):
                for j in range(1, 10):
                    assert A.delta(s, n, j).i == delta_oracle(q, p, s, n, j)


def test_delta_symmetry():
    A = IndexAlgebra(field(4))
    for s in range(1, 7):
        for n in range(1, 7):
            for j in range(1, s + n + 2):
                assert A.delta(s, n, j) == A.delta(n, s, j)


def test_harmonic_product_examples(ctx3):
    A = ctx3.algebra
    one = A.mono((1,))
    got = A.harmonic(one, one)
    assert got == A.mono((1, 1), 2) + A.mono((2,))


def test_qshuffle_examples(ctx2, ctx3):
    got2 = ctx2.algebra.qshuffle(ctx2.algebra.mono((1,)), ctx2.algebra.mono((1,)))
    assert got2 == ctx2.algebra.mono((2,))
    got3 = ctx3.algebra.qshuffle(ctx3.algebra.mono((1,)), ctx3.algebra.mono((1,)))
    assert got3 == ctx3.algebra.mono((1, 1), 2) + ctx3.algebra.mono((2,))


def test_d_operator(ctx3, ctx2):
    A = ctx3.algebra
    assert A.d_op(Index((3,)), A.one()).is_zero
    assert A.d_op(Index((2,)), A.mono((2,))) == A.mono((2, 2))
    # heads below q kill leading-1 arguments
    for ctx in (ctx2, ctx3):
        q = ctx.field.q
        for s in range(1, q):
            for tail in (EMPTY, Index((2,)), Index((1, 1))):
                arg = ctx.algebra.mono(Index((1,)).cat(tail))
                assert ctx.algebra.d_op(Index((s,)), arg).is_zero


def test_boxplus(ctx2):
    A = ctx2.algebra
    assert A.boxplus(A.mono((1, 2)), A.mono((3, 1))) == A.mono((1, 5, 1))
    assert A.boxplus(A.one(), A.mono((2,))).is_zero
    assert A.boxplus(A.mono((2,)), A.one()).is_zero
    # single entries splice to their sum
    q = 2
    assert A.boxplus(A.mono((q,)), A.mono((5 - q,))) == A.mono((5,))


def test_alpha(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        A, q = ctx.algebra, ctx.field.q
        assert A.alpha(1, (q - 1,), "harmonic", A.one()) == A.mono((1, q - 1))
        P = A.mono((3, 1))
        assert A.alpha(2, (q - 1,), "qshuffle", P, 0) == P
    got = ctx2.algebra.alpha(1, (1,), "harmonic", ctx2.algebra.mono((1,)))
    assert got == ctx2.algebra.mono((1, 2))  # the 2(1,1,1) term vanishes mod 2


@pytest.mark.parametrize("kind", list(ProductKind))
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_products_commutative_unital_graded(q, kind):
    rng = random.Random(kind.value)
    A = IndexAlgebra(field(q))
    for _ in range(12):
        w1, w2 = rng.randint(1, 4), rng.randint(1, 4)
        s = rng.choice(list(compositions(w1)))
        n = rng.choice(list(compositions(w2)))
        ps, pn = A.mono(s), A.mono(n)
        prod = A.product(ps, pn, kind)
        assert prod == A.product(pn, ps, kind)
        assert A.product(ps, A.one(), kind) == ps
        assert A.product(A.one(), ps, kind) == ps
        assert all(t.weight == w1 + w2 for t in prod.terms)


def test_weight_bookkeeping(ctx3):
    A = ctx3.algebra
    s, n = Index((2, 1)), Index((3,))
    assert all(t.weight == 6 for t in A.boxplus(A.mono(s), A.mono(n)).terms)
    assert all(t.weight == 8 for t in A.d_op(Index((2, 1)), A.mono((2, 3))).terms)
    got = A.alpha(2, (1,), "harmonic", A.mono((1, 1)), 2)
    assert all(t.weight == 2 + 2 * (2 + 1) for t in got.terms)


def test_harmonic_tail_identity(ctx2, ctx3):
    """s * n = (s+ * n, s_r) + (s * n+, n_l) + (s+ * n+, s_r + n_l)."""
    for ctx in (ctx2, ctx3):
        A = ctx.algebra
        pool = [s for w in range(1, 5) for s in compositions(w, max_depth=4)]
        for s in pool:
            for n in pool:
                if s.weight + n.weight > 8:
                    continue
                lhs = A.harmonic(A.mono(s), A.mono(n))

                def app(P, c):
                    return P.linear_map(lambda t: A.mono(t.cat((c,))))

                rhs = (app(A.harmonic(A.mono(s.plus), A.mono(n)), s[-1])
                       + app(A.harmonic(A.mono(s), A.mono(n.plus)), n[-1])
                       + app(A.harmonic(A.mono(s.plus), A.mono(n.plus)), s[-1] + n[-1]))
                assert lhs == rhs


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_qshuffle_associativity_sample(q):
    # expected from the level-wise model; exercised, never assumed
    rng = random.Random(99)
    A = IndexAlgebra(field(q))
    pool = [s for w in range(1, 4) for s in compositions(w, max_depth=2)]
    for _ in range(10):
        a, b, c = (A.mono(rng.choice(pool)) for _ in range(3))
        lhs = A.qshuffle(A.qshuffle(a, b), c)
        rhs = A.qshuffle(a, A.qshuffle(b, c))
        assert lhs == rhs


def test_index_poly_ops(ctx2):
    A = ctx2.algebra
    P = A.mono((1, 2)) + A.mono((3,))
    assert P.coeff((3,)) == ctx2.field.rat(1)
    assert (P - P).is_zero
    assert P.weight() == 3 and P.is_homogeneous
    Q = P + A.mono((1,))
    assert not Q.is_homogeneous and Q.weight() is None
    # 2*(1,1) vanishes mod 2
    assert str(A.mono((1, 1), 2) + A.mono((2,))) == "(2)"
    L = P.scale(ctx2.field.rat(ctx2.field.T))
    assert L.coeff((3,)) == ctx2.field.rat(ctx2.field.T)
