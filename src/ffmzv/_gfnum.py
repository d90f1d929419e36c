"""Vectorized GF(q) coefficient kernels.

Internal module.  Field elements are encoded as integers 0..q-1 (base-p
digit encoding of the residue class modulo the field modulus); arrays of
such codes are manipulated with numpy through the q x q addition and
multiplication tables.  For prime fields the code equals the residue, so
sums and products reduce mod p directly.  Polynomial products are not
here: they go through ``algebra._mul_codes``.

Every brute-force power sum over the monic polynomials of degree d goes
through one kernel, ``monic_quotient_sum``: a synthetic division of one
numerator by a^s for every monic a at once, vectorised over row blocks
of the enumeration, whose quotients are summed.  The evaluator picks the
numerator: a power of T for the series, a power of L_d for the exact sums.
a^s is built by square-and-multiply, each product cut to the coefficients
that reach the quotient.  The division holds the dividend as one int16
column per divisor, so each step is one contiguous row slice, and holds
only a window of _WINDOW quotient digits at a time.  Over F_p a cell is
reduced mod p only when it is read as a quotient digit, which is safe
while d (p-1)^2 + p < 2^15 for a divisor of degree d, and at every step
past that bound.

``kernel``, the elimination behind ``dependence.find_dependence``, clears
one pivot column from every row at once, in int16 arithmetic mod p over
F_p while (p-1)^2 + p < 2^15.
"""

from __future__ import annotations

# divisors x dividend coefficients of one row block of the division
_BLOCK_CELLS = 1 << 21
# quotient digits of one window of the division
_WINDOW = 64
# int16 holds every integer below this
_INT16_LIMIT = 1 << 15


class GFVec:
    """Array arithmetic bound to one ``FieldSpec``."""

    def __init__(self, spec):
        global np  # bound for every method; loaded by the first GFVec, not at import
        import numpy as np
        self.spec = spec
        self.p = spec.p
        self.e = spec.e
        self.q = spec.q
        self.add_t = np.array(spec._add, dtype=np.int64)
        self.mul_t = np.array(spec._mul, dtype=np.int64)
        self.neg_t = np.array(spec._neg, dtype=np.int64)
        # digit planes: dig[a, i] = i-th base-p digit of code a
        self.dig_t = np.array([spec._digits(a) for a in range(spec.q)], dtype=np.int64)
        self.pow_p = np.array([spec.p ** i for i in range(spec.e)], dtype=np.int64)

    # -- power sums over the monic polynomials ----------------------------

    def _monic_codes(self, d):
        """The q^d monic polynomials of degree d as a (q^d, d+1) code matrix.

        Low degree first; row r holds the base-q digits of r below the
        leading 1.  int16 holds every code, since the q x q tables bound q.
        """
        q = self.q
        out = np.ones((q ** d, d + 1), dtype=np.int16)
        digits = np.arange(q, dtype=np.int16)
        for j in range(d):
            out[:, j] = np.tile(np.repeat(digits, q ** j), q ** (d - 1 - j))
        return out

    def monic_quotient_sum(self, num, d, s):
        """Codes of the sum over monic degree-d a of num // a^s, and whether
        some a^s leaves a nonzero remainder.

        Only the top len(num) - s d coefficients of a^s reach the quotient,
        so a^s is built to that many and the lower ones, with as many low
        coefficients of num, are cut; the remainder is then that of the cut
        division.  Nothing is cut when num is longer than 2 s d, as L_d^s is.
        The monic polynomials are taken in row blocks of about _BLOCK_CELLS
        dividend cells; a^s is built per block and the blocks' quotient sums
        are added as field codes.
        """
        m = s * d
        cut = max(0, 2 * m + 1 - len(num))
        num = num[cut:]
        codes = self._monic_codes(d)
        block = max(1, _BLOCK_CELLS // len(num))
        total, rem = 0, False
        for lo in range(0, len(codes), block):
            div = self._rows_power(codes[lo:lo + block], s, m + 1 - cut)
            quo, r = self._divide_rows(num, div[:, :-1])
            total = self.add_t[total, quo]
            rem = rem or bool(r.any())
        return [int(c) for c in total], rem

    def _rows_power(self, rows, s, keep):
        """Codes of the top keep coefficients of a^s for every code row a,
        by square-and-multiply: O(log s) products, each cut to its top keep
        coefficients, which depend only on the top keep of each factor."""
        a = rows[:, -keep:].astype(np.int64)
        out = a
        for bit in bin(s)[3:]:
            out = self._rows_mul(out, out, keep)
            if bit == "1":
                out = self._rows_mul(out, a, keep)
        return out

    def _rows_mul(self, x, y, keep):
        """Codes of the top keep coefficients of the row-wise products x y,
        one array update per column of the narrower factor."""
        if x.shape[1] < y.shape[1]:
            x, y = y, x
        n, k = x.shape[1], y.shape[1]
        # column j of acc is coefficient lo + j of the full product
        lo = max(n + k - 1 - keep, 0)
        acc = np.zeros((len(x), n + k - 1 - lo), dtype=np.int64)
        for j in range(k):
            i = max(lo - j, 0)  # first column of x that reaches the kept part
            if i >= n:
                continue
            cols = acc[:, j + i - lo:j + n - lo]
            if self.e == 1:
                cols += x[:, i:] * y[:, j, None]
            else:
                cols[:] = self.add_t[cols, self.mul_t[x[:, i:], y[:, j, None]]]
        return acc % self.p if self.e == 1 else acc

    def _divide_rows(self, num, low):
        """Divide num, of length above d, by each monic polynomial whose d
        coefficients below the leading 1 are a row of low; returns the codes
        of the sum of the quotients and the remainders, one int16 row per
        divisor.

        A synthetic division on the dividend tiled as one column per divisor:
        step i reads quotient digit i from one contiguous row and updates the
        d rows below it.  It runs top down through windows of _WINDOW digits,
        so only _WINDOW + d rows are held: the cells below a window are still
        the dividend's, the d cells at its foot carry into the next window,
        and its digits are summed when it closes.  Over a prime field a cell
        takes c + (p - a_j) q_i and is reduced mod p only where read as a
        quotient digit, and once more at the end: it takes at most d updates
        between two reductions, so int16 holds it while d (p-1)^2 + p < 2^15.
        Past that bound every step reduces.  Over GF(p^e) a step is two
        gathers from the flat tables (twice as fast as the 2-D fancy index
        at q = 8 and 9), and each digit is counted per code; the counts
        become digit-plane sums.
        """
        d = low.shape[1]
        n = len(num) - d  # quotient digits
        p, q, prime = self.p, self.q, self.e == 1
        num = np.asarray(num, dtype=np.int16)
        if prime:
            lazy = d * (p - 1) ** 2 + p < _INT16_LIMIT
            neg_low = ((-low.T) % p).astype(np.int16 if lazy else np.int64)
        else:
            # flat indices x q + y into the (symmetric) tables
            mul_f, add_f = self.mul_t.ravel(), self.add_t.ravel()
            neg_low = self.neg_t[low.T] * q
        # sums[i]: quotient digit i summed over the divisors, or its count
        # per nonzero code over GF(p^e)
        sums = np.zeros((n, 1 if prime else q - 1), dtype=np.int64)
        buf = np.empty((_WINDOW + d, len(low)), dtype=np.int16)
        buf[_WINDOW:] = num[n:, None]
        for hi in range(n, 0, -_WINDOW):
            lo = max(hi - _WINDOW, 0)
            # R[j] is cell lo + j; its top d rows carry from the last window
            R = buf[_WINDOW - (hi - lo):]
            R[:hi - lo] = num[lo:hi, None]
            for i in range(hi - lo - 1, -1, -1):
                if prime:
                    top = R[i + d]
                    top %= p  # quotient digit lo + i
                    if lazy:
                        R[i:i + d] += neg_low * top
                    else:
                        R[i:i + d] = (R[i:i + d] + neg_low * top) % p
                else:
                    R[i:i + d] = add_f.take(mul_f.take(neg_low + R[i + d]) * q + R[i:i + d])
            if prime:
                sums[lo:hi, 0] = R[d:].sum(axis=1)
            else:
                for c in range(1, q):
                    sums[lo:hi, c - 1] = (R[d:] == c).sum(axis=1)
            buf[_WINDOW:] = R[:d]
        rem = buf[_WINDOW:]
        if prime:
            rem %= p
            return sums[:, 0] % p, rem.T
        return sums @ self.dig_t[1:] % p @ self.pow_p, rem.T

    # -- exact linear algebra over GF(q) -----------------------------------

    def kernel(self, mat):
        """Basis of the right null space of a code matrix, as a list of rows.

        Gauss-Jordan elimination column by column: the pivot is the first
        nonzero at or below the rows placed so far, and the column is cleared
        from every other row that is nonzero there by one array update over
        the columns from c on, where the pivot row is zero to the left of c.
        Over a prime field that update is integer arithmetic mod p, in int16
        when (p-1)^2 + p < 2^15 bounds every intermediate value; over
        GF(p^e) it goes through the tables.  Each free column gives one basis
        vector, with 1 there and the negated column of the reduced echelon
        form at the pivot columns.
        """
        m = np.asarray(mat)
        if m.ndim != 2:
            raise ValueError("matrix expected")
        p, prime = self.p, self.e == 1
        m = m.astype(np.int16 if prime and (p - 1) ** 2 + p < _INT16_LIMIT else np.int64)
        rows, cols = m.shape
        piv_cols = []
        rank = 0
        for c in range(cols):
            if rank == rows:
                break
            nz = np.flatnonzero(m[rank:, c])
            if not len(nz):
                continue
            sel = rank + int(nz[0])
            if sel != rank:
                m[[rank, sel]] = m[[sel, rank]]
            pivot = m[rank, c:]
            inv = self.spec.inv_idx(int(pivot[0]))
            pivot[:] = pivot * inv % p if prime else self.mul_t[inv, pivot]
            others = np.flatnonzero(m[:, c])
            others = others[others != rank]
            if len(others):
                block = m[others, c:]
                f = block[:, :1]
                if prime:
                    m[others, c:] = (block - f * pivot) % p
                else:
                    m[others, c:] = self.add_t[block, self.neg_t[self.mul_t[f, pivot]]]
            piv_cols.append(c)
            rank += 1
        is_free = np.ones(cols, dtype=bool)
        is_free[piv_cols] = False
        basis = []
        for fc in np.flatnonzero(is_free):
            v = np.zeros(cols, dtype=np.int64)
            v[fc] = 1
            col = m[:rank, fc].astype(np.int64)
            v[piv_cols] = -col % p if prime else self.neg_t[col]
            basis.append(v)
        return basis
