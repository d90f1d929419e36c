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
"""

from __future__ import annotations

import numpy as np

# int16 cells of one row block of the division (4 MB)
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
        The monic polynomials are taken in row blocks, so the int16 division
        matrix stays near _BLOCK_CELLS cells however long num is; a^s is
        built per block.  Over a prime field the quotient codes are the
        residues and are summed as they are; over GF(p^e) each code is
        counted per column, without a digit-plane copy of the block.
        Counting at prime fields too would cost peak memory: the numeric
        benchmark's peak RSS read 40.16-40.18 MB with it against
        39.40-39.45 MB with the residue sum, ten runs each.
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
            rem = rem or bool(r.any())
            if self.e == 1:
                total = total + quo.sum(axis=0, dtype=np.int64)
            else:
                counts = np.stack([(quo == c).sum(axis=0) for c in range(1, self.q)], axis=1)
                total = total + counts @ self.dig_t[1:]
        total %= self.p
        if self.e > 1:
            total = total @ self.pow_p
        return [int(c) for c in total], rem

    def _rows_power(self, rows, s, keep):
        """Codes of the top keep coefficients of a^s for every code row a,
        by s - 1 products with a; they depend only on the top keep of a."""
        rows = rows[:, -keep:].astype(np.int64)
        k = rows.shape[1]
        out = rows
        for _ in range(s - 1):
            n = out.shape[1]
            acc = np.zeros((len(rows), n + k - 1), dtype=np.int64)
            for j in range(k):
                if self.e == 1:
                    acc[:, j:j + n] += out * rows[:, j, None]
                else:
                    acc[:, j:j + n] = self.add_t[acc[:, j:j + n], self.mul_t[out, rows[:, j, None]]]
            out = (acc % self.p if self.e == 1 else acc)[:, -keep:]
        return out

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
