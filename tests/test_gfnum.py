"""The packed GF(q) kernels of ``_gfnum`` against loop references.

``reference_kernel`` and ``reference_rows_power`` are element loops over the
field tables: Gauss-Jordan elimination one row at a time, and a^s by s - 1
products with a.  Both sides must return the same codes.
"""

import random
from array import array

import pytest

from ffmzv import field
from ffmzv.algebra import _slot_width


def reference_kernel(F, mat):
    """Basis of the right null space, eliminating one row at a time."""
    m = [list(r) for r in mat]
    rows, cols = len(m), len(m[0])
    add, mul, neg = F._add, F._mul, F._neg
    piv_cols = []
    rank = 0
    for c in range(cols):
        sel = next((r for r in range(rank, rows) if m[r][c]), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        inv = F.inv_idx(m[rank][c])
        m[rank] = [mul[inv][x] for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [add[x][neg[mul[f][y]]] for x, y in zip(m[r], m[rank])]
        piv_cols.append(c)
        rank += 1
        if rank == rows:
            break
    basis = []
    for fc in range(cols):
        if fc in piv_cols:
            continue
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(piv_cols):
            v[pc] = neg[m[r][fc]]
        basis.append(v)
    return basis


def reference_rows_power(F, rows, s, keep):
    """Top keep coefficients of a^s for every code tuple a, by s - 1 products."""
    out = []
    for a in rows:
        a = F.poly([F.from_index(c) for c in a])
        out.append((a ** s).c[-keep:])
    return out


def _product(F, a, b):
    """Matrix product of two code matrices over GF(q), by the tables."""
    add, mul = F._add, F._mul
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            acc = [add[u][mul[x][y]] for u, y in zip(acc, brow)]
        out.append(acc)
    return out


def _matrices(F, rng):
    """Full-rank, rank-deficient, zero, 1 x n, n x 1, wide and tall code matrices."""
    q = F.q

    def rand(r, c):
        return [[rng.randrange(q) for _ in range(c)] for _ in range(r)]

    # lower times upper unitriangular: determinant 1
    lower = [[rng.randrange(q) if j < i else int(i == j) for j in range(7)] for i in range(7)]
    upper = [[rng.randrange(q) if j > i else int(i == j) for j in range(7)] for i in range(7)]
    yield "full-rank", _product(F, lower, upper)
    yield "rank-deficient", _product(F, rand(9, 3), rand(3, 8))
    yield "rank-deficient-repeated", rand(2, 6) * 3
    yield "zero", [[0] * 4 for _ in range(5)]
    yield "1 x n", rand(1, 6)
    yield "1 x n zero-led", [[0, 0] + [rng.randrange(1, q) for _ in range(4)]]
    yield "n x 1", rand(6, 1)
    yield "wide", rand(4, 11)
    yield "tall", rand(12, 5)
    yield "tall sparse", [[x if rng.randrange(3) == 0 else 0 for x in row] for row in rand(12, 6)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_kernel_matches_the_row_loop_reference(q):
    """The same basis vectors, in the same order, on every matrix shape, from
    rows given as lists, tuples and arrays."""
    F = field(q)
    rng = random.Random(100 + q)
    for _ in range(4):
        for name, mat in _matrices(F, rng):
            want = reference_kernel(F, mat)
            assert F.vec.kernel(mat) == want, (name, mat)
            assert F.vec.kernel([tuple(r) for r in mat]) == want, name
            assert F.vec.kernel([array("B", r) for r in mat]) == want, name


def test_kernel_of_known_ranks():
    F = field(5)
    rng = random.Random(5)
    for name, mat in _matrices(F, rng):
        basis = F.vec.kernel(mat)
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) % 5 == 0 for row in mat), name
        if name == "full-rank":
            assert basis == []
        if name == "zero":
            assert len(basis) == len(mat[0])
        if name == "rank-deficient":
            assert len(basis) >= len(mat[0]) - 3


def test_kernel_rejects_a_ragged_matrix():
    F = field(3)
    for mat in ([], [[1, 2], [1]]):
        with pytest.raises(ValueError):
            F.vec.kernel(mat)


@pytest.mark.parametrize("p", [13, 17, 181, 191, 251, 257])
def test_kernel_on_both_sides_of_each_slot_width(p):
    """A row update leaves a slot at most (p - 1) + (p - 1)^2: 8-bit slots
    hold it at p = 13, not at 17; 16-bit slots at p = 251, not at 257.
    Entries near p - 1 reach the bound."""
    F = field(p)
    width = _slot_width(p - 1 + (p - 1) ** 2)
    assert width == {13: 8, 17: 16, 181: 16, 191: 16, 251: 16, 257: 32}[p]
    rng = random.Random(p)
    for _ in range(3):
        for name, mat in _matrices(F, rng):
            want = reference_kernel(F, mat)
            assert F.vec.kernel(mat) == want, name
            assert F.vec.kernel([array("H", r) for r in mat]) == want, name
        big = [[rng.randrange(p - 6, p) for _ in range(9)] for _ in range(6)]
        big.append([(a + b) % p for a, b in zip(big[0], big[1])])
        assert F.vec.kernel(big) == reference_kernel(F, big)


def _kernel_period(F):
    """Updates a reduced row of the kernel takes between reductions."""
    p, e = F.p, F.e
    grow = e * (p - 1) ** 2
    return ((1 << _slot_width(p - 1 + grow)) - 1 - (p - 1)) // grow


def _lazy_matrix(F, k, f, tail):
    """k pivot rows, row i the unit vector at column i followed by tail and
    q - 1; a row with f at each of those k columns, so that clearing them
    adds -f times a pivot row to it k times; and the unit vector at column
    k.  The second row's tail starts at k f tail, so that it ends zero in
    GF(q), and its last cell at q - 1."""
    add, mul = F._add, F._mul
    tail = tail + [F.q - 1]
    rows = [[int(i == j) for j in range(k)] + tail for i in range(k)]
    start = [0] * len(tail)
    for _ in range(k):
        start = [add[a][mul[f][b]] for a, b in zip(start, tail)]
    start[-1] = F.q - 1
    return rows + [[f] * k + start, [0] * k + [1] + [0] * (len(tail) - 1)]


@pytest.mark.parametrize("q", [2, 3, 13, 17, 4, 9])
def test_kernel_across_the_lazy_period(q, monkeypatch):
    """A row takes (2^w - 1 - (p - 1)) // (e (p - 1)^2) updates between
    reductions on w-bit slots: 254 at p = 2, 63 at p = 3, 1 at p = 13 on
    8 bits and 255 at p = 17 on 16 bits, 127 at q = 4 and 31 at q = 9.
    The row of f's of ``_lazy_matrix`` takes k updates, k on both sides of
    the period, and is reduced once a period.  Its tail cells that end zero
    in GF(q) are nonzero ints unless it was just reduced; they are neither
    taken as pivots nor cleared, the first when the last row is the pivot
    row there.  Its last cell starts at q - 1, so a slot that skips a
    reduction overflows (over GF(4) and GF(9) every nonzero f is taken, and
    some -f (q - 1) sets e (p - 1)^2 in a plane).  Every basis matches the
    reference, and the kernel reduces no row more often than that."""
    from ffmzv import _gfnum
    F = field(q)
    add, mul, neg = F._add, F._mul, F._neg
    period = _kernel_period(F)
    assert period == {2: 254, 3: 63, 13: 1, 17: 255, 4: 127, 9: 31}[q]
    reduce, calls = _gfnum._reduce_slots, []

    def counting(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(_gfnum, "_reduce_slots", counting)
    for f in range(1, q) if F.e > 1 else [1]:
        for k in sorted({max(period - 1, 1), period, period + 1, 2 * period + 1}):
            for tail in ([q - 1], [q - 1, 1]):
                mat = _lazy_matrix(F, k, f, tail)
                del calls[:]
                assert F.vec.kernel(mat) == reference_kernel(F, mat), (f, k, tail)
                # the row of f's ends at lead in its last cell.  Each pivot
                # row takes an update at column k and one more if lead is
                # not 0; the row of f's is then reduced as it becomes the
                # pivot row unless it just was, and once more to normalise
                # a lead other than 1
                lead = q - 1
                for _ in range(k):
                    lead = add[lead][neg[mul[f][q - 1]]]
                u = 1 + (lead != 0)
                want = k // period + k * (u // period + (u % period > 0))
                if lead:
                    want += (k % period > 0) + (lead != 1)
                assert len(calls) == want, (f, k, tail)


def _codes_poly(F, codes):
    return F.poly([F.from_index(int(c)) for c in codes])


def _most_bits(p):
    return max(bin(v).count("1") for v in range(1, p))


@pytest.mark.parametrize("p", [43, 47, 127, 131, 181, 191])
def test_divide_rows_on_both_sides_of_the_lazy_bound(p):
    """A cell enters at most p - 1 and grows by at most pop (p - 1) a step,
    pop the most bits set in a digit below p.  Byte lanes hold one such
    step at p = 43 (pop = 5), so the window is reduced after every step;
    from p = 47 on, the lanes take 16 bits and are reduced every
    (2^16 - 1 - (p - 1)) // (pop (p - 1)) steps.  Dividing
    a (T^2 + T + 1) by itself with every quotient digit p - 1 sets the
    most bits there are; its 70 quotient digits span several moves of the
    window."""
    F = field(p)
    assert (_slot_width((p - 1) * (1 + _most_bits(p))) == 8) == (p == 43)
    rng = random.Random(p)
    rows = [(1, 1), (1, p - 1), (p - 1, 1), (0, 0)] + [(rng.randrange(p), rng.randrange(p))
                                                       for _ in range(4)]
    divisors = [F.poly([F.from_index(c) for c in row] + [F.one]) for row in rows]
    quotient = F.poly([F.from_index(p - 1)] * 70)
    worst = quotient * divisors[0] + F.poly([F.from_index(p - 1)])
    rand = F.poly([F.from_index(rng.randrange(p)) for _ in range(70)] + [F.one])
    for num in (worst, rand):
        total = F.poly([])
        for row, a in zip(rows, divisors):
            want_q, want_r = num.divmod(a)
            total = total + want_q
            quo, rem = F.vec._divide_rows(num.c, [row])
            assert _codes_poly(F, quo) == want_q, (num, row)
            assert _codes_poly(F, rem[0]) == want_r, (num, row)
        quo, rem = F.vec._divide_rows(num.c, rows)
        assert _codes_poly(F, quo) == total
        assert all(_codes_poly(F, r) == num % a for r, a in zip(rem, divisors))
    assert _codes_poly(F, F.vec._divide_rows(worst.c, rows[:1])[0]) == quotient


@pytest.mark.parametrize("p, s", [(3, 126), (3, 127), (3, 200), (2, 254), (2, 255)])
def test_divide_rows_across_the_reduction_period(p, s):
    """Byte lanes hold (255 - (p - 1)) // (p - 1) steps of growth: 126 at
    p = 3 and 254 at p = 2.  A window of s d cells longer than that is
    reduced periodically; one of exactly that many cells never is.  Every
    quotient and remainder matches divmod by a^s for the monic a of degree 1."""
    F = field(p)
    rng = random.Random(s)
    rows = F.vec._rows_power(F.vec._monic_codes(1), s, s + 1)
    divisors = [_codes_poly(F, row) for row in rows]
    for n in (s + 1, s + 3 * 8 + 5, 2 * s + 37):
        num = F.poly([F.from_index(rng.randrange(p)) for _ in range(n - 1)] + [F.one])
        quo, rem = F.vec._divide_rows(num.c, [row[:-1] for row in rows])
        want = [num.divmod(a) for a in divisors]
        assert _codes_poly(F, quo) == sum((w for w, _ in want), F.poly([])), (s, n)
        assert [_codes_poly(F, r) for r in rem] == [r for _, r in want], (s, n)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rows_power_matches_the_product_loop(q):
    """Square-and-multiply gives the codes of s - 1 products with a, at
    every cut, for exponents with one and with several binary digits."""
    F = field(q)
    for d in range(4 if q <= 4 else 3):
        rows = list(F.vec._monic_codes(d))
        for s in (1, 2, 3, 7, 8, 11, 13, 22):
            for keep in sorted({1, 2, s * d + 1, max(1, s * d // 2)}):
                want = reference_rows_power(F, rows, s, keep)
                got = F.vec._rows_power(rows, s, keep)
                assert got == want, (d, s, keep)


@pytest.mark.parametrize("q, modulus", [(4, None), (8, None), (9, None), (25, (2, 0, 1))])
def test_monic_quotient_sum_over_extension_fields(q, modulus):
    """Over GF(p^e) each lane has e digit planes, and a digit of each plane
    selects its own blocks: the exact and series sums match divmod at every
    d up to the one whose q^d stays small, d = 0 included."""
    F = field(q, modulus=modulus)
    rng = random.Random(q)
    for d in range(3 if q <= 4 else 2):
        for s in (1, 2, q + 1):
            for n in sorted({s * d + 1, s * d + 4, 2 * s * d + 3}):
                num = F.poly([F.from_index(rng.randrange(q)) for _ in range(n - 1)] + [F.one])
                want, rem = F.poly([]), False
                for row in F.vec._monic_codes(d):
                    quo, r = num.divmod(_codes_poly(F, row) ** s)
                    want, rem = want + quo, rem or not r.is_zero
                codes, got_rem = F.vec.monic_quotient_sum(list(num.c), d, s)
                assert _codes_poly(F, codes) == want, (d, s, n)
                if n > 2 * s * d:
                    assert got_rem == rem, (d, s, n)


def test_wide_divisor_at_the_updates_cap():
    """(q, d, s) = (2, 1, 5791) is the widest divisor the updates cap lets
    an exact sum take: a window of 5791 cells, reduced every 254 steps.
    Its numerator (L_1 / a)^5791 summed over a = T, T + 1 matches the
    series expansion of S_1(5791), and its series sum the exact one."""
    from ffmzv import Evaluator, carlitz_l, rat_to_laurent
    F = field(2)
    E = Evaluator(F)
    s = 5791
    num = E._power_sum_numerator(1, s)
    L = carlitz_l(F, 1)
    assert num == (L // F.T) ** s + (L // F.poly([1, 1])) ** s
    prec = 2 * s
    assert E.power_sum(1, s, prec) == rat_to_laurent(E.power_sum_exact(1, s), prec)
