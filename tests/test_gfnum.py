"""The GF(q) array kernels of ``_gfnum`` against loop references.

``reference_kernel`` and ``reference_rows_power`` are the element loops the
array kernels replaced: Gauss-Jordan elimination one row at a time, and
a^s by s - 1 products with a.  Both sides must return the same arrays.
"""

import random

import numpy as np
import pytest

from ffmzv import field


def reference_kernel(vec, mat):
    """Basis of the right null space, eliminating one row at a time."""
    m = np.array(mat, dtype=np.int64)
    rows, cols = m.shape
    piv_cols = []
    rank = 0
    for c in range(cols):
        sel = None
        for r in range(rank, rows):
            if m[r, c] != 0:
                sel = r
                break
        if sel is None:
            continue
        if sel != rank:
            m[[rank, sel]] = m[[sel, rank]]
        inv = vec.spec.inv_idx(int(m[rank, c]))
        m[rank] = vec.mul_t[inv, m[rank]]
        for r in range(rows):
            if r != rank and m[r, c] != 0:
                f = int(m[r, c])
                m[r] = vec.add_t[m[r], vec.neg_t[vec.mul_t[f, m[rank]]]]
        piv_cols.append(c)
        rank += 1
        if rank == rows:
            break
    free = [c for c in range(cols) if c not in piv_cols]
    basis = []
    for fc in free:
        v = np.zeros(cols, dtype=np.int64)
        v[fc] = 1
        for r, pc in enumerate(piv_cols):
            v[pc] = vec.neg_t[int(m[r, fc])]
        basis.append(v)
    return basis


def reference_rows_power(vec, rows, s, keep):
    """Top keep coefficients of a^s for every code row a, by s - 1 products."""
    rows = rows[:, -keep:].astype(np.int64)
    k = rows.shape[1]
    out = rows
    for _ in range(s - 1):
        n = out.shape[1]
        acc = np.zeros((len(rows), n + k - 1), dtype=np.int64)
        for j in range(k):
            if vec.e == 1:
                acc[:, j:j + n] += out * rows[:, j, None]
            else:
                acc[:, j:j + n] = vec.add_t[acc[:, j:j + n], vec.mul_t[out, rows[:, j, None]]]
        out = (acc % vec.p if vec.e == 1 else acc)[:, -keep:]
    return out


def _product(vec, a, b):
    """Matrix product of two code matrices over GF(q), by the tables."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for t in range(a.shape[1]):
        out = vec.add_t[out, vec.mul_t[a[:, t, None], b[None, t, :]]]
    return out


def _matrices(F, rng):
    """Full-rank, rank-deficient, zero, 1 x n, n x 1, wide and tall code matrices."""
    q, vec = F.q, F.vec

    def rand(r, c):
        return np.array([[rng.randrange(q) for _ in range(c)] for _ in range(r)], dtype=np.int64)

    # lower times upper unitriangular: determinant 1
    eye = np.eye(7, dtype=np.int64)
    yield "full-rank", _product(vec, np.tril(rand(7, 7), -1) + eye, np.triu(rand(7, 7), 1) + eye)
    yield "rank-deficient", _product(vec, rand(9, 3), rand(3, 8))
    yield "rank-deficient-repeated", np.vstack([rand(2, 6)] * 3)
    yield "zero", np.zeros((5, 4), dtype=np.int64)
    yield "1 x n", rand(1, 6)
    yield "1 x n zero-led", np.array([[0, 0] + [rng.randrange(1, q) for _ in range(4)]])
    yield "n x 1", rand(6, 1)
    yield "wide", rand(4, 11)
    yield "tall", rand(12, 5)
    yield "tall sparse", rand(12, 6) * (rand(12, 6) == 0)


def _same_basis(got, want):
    return (len(got) == len(want)
            and all(g.dtype == np.int64 and np.array_equal(g, w) for g, w in zip(got, want)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_kernel_matches_the_row_loop_reference(q):
    """The same basis vectors, in the same order, on every matrix shape."""
    F = field(q)
    rng = random.Random(100 + q)
    for _ in range(4):
        for name, mat in _matrices(F, rng):
            want = reference_kernel(F.vec, mat)
            assert _same_basis(F.vec.kernel(mat), want), (name, mat.tolist())
            assert _same_basis(F.vec.kernel(mat.tolist()), want), name


def test_kernel_of_known_ranks():
    F = field(5)
    rng = random.Random(5)
    for name, mat in _matrices(F, rng):
        basis = F.vec.kernel(mat)
        for v in basis:
            assert not (mat @ v % 5).any(), name
        if name == "full-rank":
            assert basis == []
        if name == "zero":
            assert len(basis) == mat.shape[1]
        if name == "rank-deficient":
            assert len(basis) >= mat.shape[1] - 3


@pytest.mark.parametrize("p", [181, 191])
def test_kernel_on_both_sides_of_the_int16_bound(p):
    """(p - 1)^2 + p < 2^15 holds at p = 181 (int16 cells) and fails at
    p = 191 (int64 cells); entries near p - 1 reach the bound."""
    F = field(p)
    assert ((p - 1) ** 2 + p < 1 << 15) == (p == 181)
    rng = random.Random(p)
    for _ in range(3):
        for name, mat in _matrices(F, rng):
            assert _same_basis(F.vec.kernel(mat), reference_kernel(F.vec, mat)), name
        big = np.array([[rng.randrange(p - 6, p) for _ in range(9)] for _ in range(6)])
        big = np.vstack([big, (big[0] + big[1]) % p])
        assert _same_basis(F.vec.kernel(big), reference_kernel(F.vec, big))


def _codes_poly(F, codes):
    return F.poly([F.from_index(int(c)) for c in codes])


@pytest.mark.parametrize("p", [127, 131])
def test_divide_rows_on_both_sides_of_the_lazy_bound(p):
    """At d = 2 a cell takes two updates between reductions: 2 (p-1)^2 + p
    is below 2^15 at p = 127 (lazy) and above at p = 131 (reduced at every
    step).  Dividing a (T^2 + T + 1) by itself with every quotient digit
    p - 1 makes each update (p - 1)^2, the largest there is; its 70
    quotient digits span two windows."""
    F = field(p)
    d = 2
    assert (d * (p - 1) ** 2 + p < 1 << 15) == (p == 127)
    rng = random.Random(p)
    rows = [[1, 1], [1, p - 1], [p - 1, 1], [0, 0]] + [[rng.randrange(p), rng.randrange(p)]
                                                        for _ in range(4)]
    divisors = [F.poly([F.from_index(c) for c in row] + [F.one]) for row in rows]
    low = np.array(rows)
    quotient = F.poly([F.from_index(p - 1)] * 70)
    worst = quotient * divisors[0] + F.poly([F.from_index(p - 1)])
    rand = F.poly([F.from_index(rng.randrange(p)) for _ in range(70)] + [F.one])
    for num in (worst, rand):
        total = F.poly([])
        for row, a in enumerate(divisors):
            want_q, want_r = num.divmod(a)
            total = total + want_q
            quo, rem = F.vec._divide_rows(num.c, low[row:row + 1])
            assert rem.dtype == np.int16
            assert _codes_poly(F, quo) == want_q, (num, row)
            assert _codes_poly(F, rem[0]) == want_r, (num, row)
        quo, rem = F.vec._divide_rows(num.c, low)
        assert _codes_poly(F, quo) == total
        assert all(_codes_poly(F, r) == num % a for r, a in zip(rem, divisors))
    assert _codes_poly(F, F.vec._divide_rows(worst.c, low[:1])[0]) == quotient


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rows_power_matches_the_product_loop(q):
    """Square-and-multiply gives the codes of s - 1 products with a, at
    every cut, for exponents with one and with several binary digits."""
    F = field(q)
    for d in range(4 if q <= 4 else 3):
        rows = F.vec._monic_codes(d)
        for s in (1, 2, 3, 7, 8, 11, 13, 22):
            for keep in sorted({1, 2, s * d + 1, max(1, s * d // 2)}):
                want = reference_rows_power(F.vec, rows, s, keep)
                got = F.vec._rows_power(rows, s, keep)
                assert np.array_equal(got, want), (d, s, keep)
