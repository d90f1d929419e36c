"""Index slicing, classification, Delta, and the two products."""

import math
import random

import pytest

from ffmzv import (EMPTY, EmptyIndex, Index, IndexAlgebra, IndexPoly, InvalidInput,
                   ProductKind, RatFunc, Reducer, classify, compositions, field, parse_index,
                   repeat, thakur_indices)
from ffmzv.indices import _accumulate


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


def test_unchecked_slices_still_validate_raw_input():
    s = Index((3, 1, 2))
    for got in (s.prefix(2), s.drop(1), s.plus, s.minus, s.reversed(), s.cat(s, (4,))):
        assert type(got) is Index
    assert s.cat(Index((1,)), (2, 5)) == Index((3, 1, 2, 1, 2, 5))
    assert s.reversed() == Index((2, 1, 3))
    with pytest.raises(InvalidInput):
        Index((1,)).cat((0,))
    with pytest.raises(InvalidInput):
        Index((1,)).cat(Index((2,)), (3, -1))
    A = IndexAlgebra(field(2))
    with pytest.raises(InvalidInput):
        A.mono((1,)).prepend((0, 1))
    assert A.mono((1,)).prepend((2, 3)) == A.mono((2, 3, 1))


# -- the accumulator against the copy-and-add sums it replaced ---------------------

def _sum_reference(field_, addends):
    """The copy-and-add sum of c * P over (P, c), and whether a term cancelled."""
    out, cancelled = IndexPoly.zero(field_), False
    for P, c in addends:
        X = P.scale(c)
        cancelled = cancelled or any(
            t in out.terms and (out.terms[t] + v).is_zero for t, v in X.terms.items())
        out = out + X
    return out, cancelled


class CopyAndAdd:
    """The index products, D, boxplus and linear maps summed with
    out = out + P.scale(c), as before the accumulator; records cancellations."""

    def __init__(self, A):
        self.A = A
        self.cancelled = 0
        self._memo = {}

    def sum(self, addends):
        out, cancelled = _sum_reference(self.A.field, addends)
        self.cancelled += cancelled
        return out

    def prod_indices(self, s, n, kind):
        A = self.A
        if s.is_empty:
            return A.mono(n)
        if n.is_empty:
            return A.mono(s)
        key = (kind, s, n)
        if key not in self._memo:
            s1, n1 = s[0], n[0]
            parts = [(self.prod_indices(s.minus, n, kind).prepend((s1,)), 1),
                     (self.prod_indices(s, n.minus, kind).prepend((n1,)), 1),
                     (self.prod_indices(s.minus, n.minus, kind).prepend((s1 + n1,)), 1)]
            if kind is ProductKind.QSHUFFLE:
                parts.append((self.d_indices(s, n), 1))
            self._memo[key] = self.sum(parts)
        return self._memo[key]

    def d_indices(self, s, n):
        A = self.A
        s1, n1 = s[0], n[0]
        tails = self.prod_indices(s.minus, n.minus, ProductKind.QSHUFFLE)
        parts = []
        for j in range(1, s1 + n1):
            dj = A.delta(s1, n1, j)
            if not dj.is_zero:
                term = self.product(A.mono((j,)), tails, ProductKind.QSHUFFLE)
                parts.append((term.prepend((s1 + n1 - j,)), dj))
        return self.sum(parts)

    def product(self, P, Q, kind):
        return self.sum([(self.prod_indices(s, n, kind), cs * cn)
                         for s, cs in P.terms.items() for n, cn in Q.terms.items()])

    def d_op(self, head, P):
        return self.sum([(self.d_indices(head, n), c)
                         for n, c in P.terms.items() if not n.is_empty])

    def boxplus(self, P, Q):
        A = self.A
        return self.sum([(A.mono(s.plus.cat((s[-1] + n[0],), n.minus)), cs * cn)
                         for s, cs in P.terms.items() if not s.is_empty
                         for n, cn in Q.terms.items() if not n.is_empty])

    def linear_map(self, P, fn):
        return self.sum([(fn(s), c) for s, c in P.terms.items()])


class AccumulateReference:
    """The product recursion, D and the dagger expansions over RatFunc
    coefficients summed with _accumulate, as before the F_p codes."""

    def __init__(self, A):
        self.A = A
        self._prod, self._d, self._dagger = {}, {}, {}

    def prod_indices(self, s, n, kind):
        A = self.A
        if s.is_empty:
            return A.mono(n)
        if n.is_empty:
            return A.mono(s)
        key = (kind, s, n)
        if key not in self._prod:
            s1, n1 = s[0], n[0]
            out = self.prod_indices(s.minus, n, kind).prepend((s1,))
            _accumulate(out.terms, self.prod_indices(s, n.minus, kind).prepend((n1,)).terms)
            _accumulate(out.terms,
                        self.prod_indices(s.minus, n.minus, kind).prepend((s1 + n1,)).terms)
            if kind is ProductKind.QSHUFFLE:
                _accumulate(out.terms, self.d_indices(s, n).terms)
            self._prod[key] = out
        return self._prod[key]

    def d_indices(self, s, n):
        if (s, n) not in self._d:
            A, s1, n1 = self.A, s[0], n[0]
            tails = self.prod_indices(s.minus, n.minus, ProductKind.QSHUFFLE)
            out = {}
            for j in range(1, s1 + n1):
                dj = A.delta(s1, n1, j)
                if not dj.is_zero:
                    term = self.product(A.mono((j,)), tails, ProductKind.QSHUFFLE)
                    _accumulate(out, term.prepend((s1 + n1 - j,)).terms, RatFunc.of(dj))
            self._d[s, n] = IndexPoly._of(A.field, out)
        return self._d[s, n]

    def product(self, P, Q, kind):
        out = {}
        for s, cs in P.terms.items():
            for n, cn in Q.terms.items():
                _accumulate(out, self.prod_indices(s, n, kind).terms, cs * cn)
        return IndexPoly._of(self.A.field, out)

    def dagger(self, kind, s):
        A = self.A
        if s.is_empty:
            return A.one()
        if (kind, s) not in self._dagger:
            acc = {}
            for i in range(1, s.depth + 1):
                _accumulate(acc, self.product(A.mono(s.prefix(i)), self.dagger(kind, s.drop(i)),
                                              kind).terms)
            self._dagger[kind, s] = -IndexPoly._of(A.field, acc)
        return self._dagger[kind, s]


def same_terms(got, want):
    """Equal term for term and in dict order."""
    return list(got.terms.items()) == list(want.terms.items())


def random_index_poly(rng, F, wmax, nterms):
    """Coefficients +-1, +-T, T + 1 and 1/(T + 1), so that sums cancel."""
    T, one = F.T, F.poly([1])
    pool = [one, -one, T, -T, T + one]
    terms = {}
    for _ in range(nterms):
        s = rng.choice([s for w in range(0, wmax + 1) for s in compositions(w, max_depth=3)])
        c = RatFunc(one, T + one) if rng.random() < 0.15 else RatFunc.of(rng.choice(pool))
        terms[s] = c
    return IndexPoly(F, terms)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_accumulator_matches_copy_and_add(q):
    rng = random.Random(1000 + q)
    F = field(q)
    A = IndexAlgebra(F)
    ref = CopyAndAdd(A)
    # (1)*(2) - (2)*(1) cancels in both commutative products
    pairs = [(A.mono((1,)) - A.mono((2,)), A.mono((2,)) + A.mono((1,)))]
    pairs += [(random_index_poly(rng, F, 3, rng.randint(1, 4)),
               random_index_poly(rng, F, 3, rng.randint(1, 4))) for _ in range(6)]
    for P, Q in pairs:
        for kind in ProductKind:
            assert same_terms(A.product(P, Q, kind), ref.product(P, Q, kind)), (P, Q, kind)
        for head in (Index((1,)), Index((q,)), Index((2, 1))):
            assert same_terms(A.d_op(head, Q), ref.d_op(head, Q)), (head, Q)
        assert same_terms(A.boxplus(P, Q), ref.boxplus(P, Q))

        def fn(t):
            return A.product(A.mono(t), Q, ProductKind.HARMONIC)

        assert same_terms(P.linear_map(fn), ref.linear_map(P, fn))
    assert ref.cancelled > 0


def test_accumulator_keeps_the_order_after_a_cancellation():
    F = field(3)
    A = IndexAlgebra(F)
    a, b, c = A.mono((1,)), A.mono((2,)), A.mono((3,))
    image = {Index((1,)): a + b, Index((2,)): c + a, Index((3,)): a}
    P = a - b + c  # (a + b) - (c + a) + a: a cancels, then comes back last
    got = P.linear_map(lambda t: image[t])
    want, cancelled = _sum_reference(F, [(image[t], coeff) for t, coeff in P.terms.items()])
    assert cancelled and same_terms(got, want)
    assert list(got.terms) == [Index((2,)), Index((3,)), Index((1,))]


def test_scale_by_one_returns_self():
    F = field(3)
    P = IndexAlgebra(F).mono((2, 1), F.T)
    assert P.scale(1) is P
    assert P.scale(F.rat(1)) is P
    assert P.scale(0).is_zero


def test_products_reject_mixed_fields():
    A2, A3 = IndexAlgebra(field(2)), IndexAlgebra(field(3))
    for op in (lambda: A2.product(A2.one(), A3.one(), "harmonic"),
               lambda: A2.boxplus(A3.mono((1,)), A2.mono((1,))),
               lambda: A2.d_op(Index((1,)), A3.mono((1,))),
               lambda: A2.mono((1,)).linear_map(lambda t: A3.mono(t))):
        with pytest.raises(InvalidInput):
            op()


def _coded_terms(A, terms):
    """Coded terms as (index, RatFunc) pairs, in dict order."""
    return [(s, A._coeffs[c]) for s, c in terms.items()]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_coded_recursion_matches_the_RatFunc_reference(q):
    """The coded products (both kinds), D and dagger expansions equal the
    RatFunc recursion term for term and in dict order, on every pair of
    indices of weight up to 5; every memoised code lies in 1..p-1, and
    every Delta lies in the prime subfield."""
    F = field(q)
    A = IndexAlgebra(F)
    R = Reducer(A)
    ref = AccumulateReference(A)
    pool = [s for w in range(6) for s in compositions(w)]
    for s in pool:
        for n in pool:
            for kind in ProductKind:
                assert _coded_terms(A, A._prod_indices(s, n, kind)) == \
                    list(ref.prod_indices(s, n, kind).terms.items()), (s, n, kind)
            if s and n:
                assert _coded_terms(A, A._d_indices(s, n)) == \
                    list(ref.d_indices(s, n).terms.items()), (s, n)
    for fam, kind in (("li", ProductKind.HARMONIC), ("zeta", ProductKind.QSHUFFLE)):
        for s in pool:
            assert _coded_terms(A, R._dagger(fam, s)) == list(ref.dagger(kind, s).terms.items())
    assert A._d_memo and R._dagger_memo
    for memo in (A._prod_memo, A._d_memo, R._dagger_memo):
        assert all(0 < c < F.p for terms in memo.values() for c in terms.values())
    deltas = {A.delta(a, b, j).i for a in range(1, 11) for b in range(1, 11)
              for j in range(1, a + b)}
    assert len(deltas) > 1 and all(c < F.p and F.frob_idx(c) == c for c in deltas)
