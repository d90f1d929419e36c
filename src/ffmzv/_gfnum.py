"""Vectorized GF(q) coefficient kernels.

Internal module.  Field elements are encoded as integers 0..q-1 (base-p
digit encoding of the residue class modulo the field modulus); arrays of
such codes are manipulated with numpy.  For prime fields the code equals
the residue and convolutions reduce mod p directly; for extension fields
arrays are split into base-p digit planes, convolved plane by plane, and
re-reduced with a precomputed reduction matrix for powers of the
generator u.
"""

from __future__ import annotations

import numpy as np

# int16 cells of one row block of the exact division (4 MB)
_BLOCK_CELLS = 1 << 21


class GFVec:
    """Array arithmetic bound to one ``FieldSpec``."""

    def __init__(self, spec):
        self.spec = spec
        self.p = spec.p
        self.e = spec.e
        self.q = spec.q
        q, p, e = self.q, self.p, self.e
        self.add_t = np.array([[spec.add_idx(a, b) for b in range(q)] for a in range(q)],
                              dtype=np.int64)
        self.mul_t = np.array([[spec.mul_idx(a, b) for b in range(q)] for a in range(q)],
                              dtype=np.int64)
        self.neg_t = np.array([spec.neg_idx(a) for a in range(q)], dtype=np.int64)
        # digit planes: dig[a, i] = i-th base-p digit of code a
        dig = np.zeros((q, e), dtype=np.int64)
        for a in range(q):
            v = a
            for i in range(e):
                dig[a, i] = v % p
                v //= p
        self.dig_t = dig
        self.pow_p = np.array([p ** i for i in range(e)], dtype=np.int64)
        # red[t] = digit vector of u^t reduced mod the field modulus, t < 2e-1
        red = np.zeros((2 * e - 1, e), dtype=np.int64)
        for t in range(2 * e - 1):
            red[t] = dig[spec.upower_idx(t)]
        self.red_t = red

    # -- encoding ---------------------------------------------------------

    def decode(self, arr):
        """Code array -> digit planes, shape arr.shape + (e,)."""
        return self.dig_t[arr]

    def encode(self, planes):
        """Digit planes (mod p already) -> code array."""
        return planes @ self.pow_p

    # -- elementwise ------------------------------------------------------

    def add(self, a, b):
        return self.add_t[a, b]

    def neg(self, a):
        return self.neg_t[a]

    def sub(self, a, b):
        return self.add_t[a, self.neg_t[b]]

    def mul(self, a, b):
        return self.mul_t[a, b]

    def scale(self, c, arr):
        return self.mul_t[c, arr]

    # -- convolution ------------------------------------------------------

    def _reduce_uplanes(self, planes):
        """Fold digit planes of u^t for t >= e back into the first e planes."""
        e = self.e
        if planes.shape[-1] <= e:
            return planes % self.p
        out = planes[..., :e].astype(np.int64)
        for t in range(e, planes.shape[-1]):
            out += planes[..., t:t + 1] * self.red_t[t]
        return out % self.p

    def conv(self, a, b):
        """Full 1-D convolution of two code arrays (polynomial product)."""
        if len(a) == 0 or len(b) == 0:
            return np.zeros(0, dtype=np.int64)
        if self.e == 1:
            return np.convolve(a, b) % self.p
        pa, pb = self.decode(a), self.decode(b)
        n = len(a) + len(b) - 1
        acc = np.zeros((n, 2 * self.e - 1), dtype=np.int64)
        for i in range(self.e):
            if not pa[:, i].any():
                continue
            for j in range(self.e):
                if not pb[:, j].any():
                    continue
                acc[:, i + j] += np.convolve(pa[:, i], pb[:, j])
        return self.encode(self._reduce_uplanes(acc))

    # -- row-wise truncated series (power sums) ---------------------------
    #
    # Rows are independent power series in 1/T, stored as digit planes of
    # shape (rows, M, e); column k holds the coefficient of T^(-k).

    def _rows_mul(self, A, B, M):
        rows = A.shape[0]
        e = self.e
        acc = np.zeros((rows, M, 2 * e - 1), dtype=np.int64)
        lb = B.shape[1]
        # one pass per coefficient i of A: its product with B fills columns i..i+n-1
        for i in range(min(A.shape[1], M)):
            n = min(lb, M - i)
            for x in range(e):
                a = A[:, i, x]
                if a.any():
                    acc[:, i:i + n, x:x + e] += a[:, None, None] * B[:, :n, :]
        return self._reduce_uplanes(acc)

    def _rows_inv(self, A, M):
        """Row-wise reciprocal mod T^-M; constant terms must equal 1."""
        rows = A.shape[0]
        e = self.e
        W = np.zeros((rows, 1, e), dtype=np.int64)
        W[:, 0, 0] = 1
        length = 1
        while length < M:
            length = min(2 * length, M)
            T = self._rows_mul(W, W, length)
            T = self._rows_mul(A[:, :length, :], T, length)
            W = (2 * np.pad(W, ((0, 0), (0, length - W.shape[1]), (0, 0))) - T) % self.p
        return W

    def _rows_pow(self, A, s, M):
        acc = None
        base = A
        while s:
            if s & 1:
                acc = base if acc is None else self._rows_mul(acc, base, M)
            s >>= 1
            if s:
                base = self._rows_mul(base, base, M)
        return acc

    def brute_power_sum(self, d, s, M):
        """Coefficients of sum over monic degree-d a of a^(-s), relative to T^(-s*d).

        Returns the first M coefficients (codes), i.e. the series is
        T^(-s*d) * (c[0] + c[1] T^-1 + ...).
        """
        codes = self._monic_codes(d)
        # a = T^d (1 + u), u's T^-k coefficient is a's coefficient of T^(d-k)
        mu = min(d, M - 1)
        A = np.zeros((len(codes), mu + 1, self.e), dtype=np.int64)
        A[:, 0, 0] = 1
        A[:, 1:, :] = self.dig_t[codes[:, d - mu:d][:, ::-1]]
        W = self._rows_inv(A, M)
        V = self._rows_pow(W, s, M)
        total = V.sum(axis=0) % self.p
        return [int(c) for c in self.encode(total)]

    # -- exact power sums over the monic polynomials ----------------------

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

    def monic_quotient_power_sum(self, num, d, s):
        """Codes of the sum over monic degree-d a of (num / a)^s.

        Returns None if some a leaves a remainder.  The monic polynomials
        are taken in row blocks, so the int16 division matrix stays near
        _BLOCK_CELLS cells however long num is.
        """
        codes = self._monic_codes(d)
        block = max(1, _BLOCK_CELLS // len(num))
        total = 0
        for lo in range(0, len(codes), block):
            quo, rem = self._divide_rows(num, codes[lo:lo + block, :d])
            if rem.any():
                return None
            total = total + self._rows_power_sum(quo, s)
        return [int(c) for c in self.encode(total % self.p)]

    def _divide_rows(self, num, low):
        """Divide num by each monic polynomial whose coefficients below the
        leading 1 are a row of low; returns (quotients, remainders) as int16."""
        d = low.shape[1]
        low = low.astype(np.int64)
        R = np.tile(np.asarray(num, dtype=np.int16), (len(low), 1))
        # synthetic division in place: column i + d becomes quotient digit i
        if self.e == 1:
            for i in range(len(num) - d - 1, -1, -1):
                R[:, i:i + d] = (R[:, i:i + d] - R[:, i + d, None] * low) % self.p
        else:
            neg_low = self.neg_t[low]
            for i in range(len(num) - d - 1, -1, -1):
                R[:, i:i + d] = self.add_t[R[:, i:i + d], self.mul_t[R[:, i + d, None], neg_low]]
        return R[:, d:], R[:, :d]

    def _rows_power_sum(self, rows, s):
        """Digit planes (unreduced) of the sum of row^s over polynomial code rows.

        For s = 1 the sum counts each code per column.  For s > 1 each row
        is powered with ``conv``: at these lengths (hundreds of columns) one
        C convolution per row beats a shift loop vectorised over the rows.
        """
        if s == 1:
            counts = np.stack([(rows == c).sum(axis=0) for c in range(1, self.q)], axis=1)
            return counts @ self.dig_t[1:]
        total = 0
        for row in rows:
            total = total + self.dig_t[self._pow(row.astype(np.int64), s)]
        return total

    def _pow(self, a, s):
        """a^s for one code array, by squaring with ``conv``."""
        acc = None
        while s:
            if s & 1:
                acc = a if acc is None else self.conv(acc, a)
            s >>= 1
            if s:
                a = self.conv(a, a)
        return acc

    # -- exact linear algebra over GF(q) -----------------------------------

    def kernel(self, mat):
        """Basis of the right null space of a code matrix, as a list of rows."""
        m = np.array(mat, dtype=np.int64)
        if m.ndim != 2:
            raise ValueError("matrix expected")
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
            inv = self.spec.inv_idx(int(m[rank, c]))
            m[rank] = self.mul_t[inv, m[rank]]
            for r in range(rows):
                if r != rank and m[r, c] != 0:
                    f = int(m[r, c])
                    m[r] = self.add_t[m[r], self.neg_t[self.mul_t[f, m[rank]]]]
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
                v[pc] = self.neg_t[int(m[r, fc])]
            basis.append(v)
        return basis
