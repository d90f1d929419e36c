"""Packed GF(q) kernels of the numeric oracle, on the slot codec of ``algebra``.

Internal module, standard library only, and the one that knows the digit
planes: an element of GF(p^e) is held as its e base-p digits, each in a slot
of its own, so a sum of elements is an integer sum followed by
``_reduce_slots``, and c x for a constant c is the F_p-linear map of c on
the planes.  Each kernel states the largest slot sum it lets build up and
packs at the ``_slot_width`` that holds it.  Polynomial products go through
``algebra._mul_codes``.

Every brute-force power sum over the monic polynomials of degree d goes
through one kernel, ``monic_quotient_sum``: a synthetic division of one
numerator by a^s for every monic a at once, whose quotients are summed.
The evaluator picks the numerator: a power of T for the series, a power of
L_d for the exact sums.  a^s is built per divisor by square-and-multiply,
each product cut to the coefficients that reach the quotient.  The division
holds its window of s d cells for all q^d divisors as one int of lanes, one
lane per divisor and plane, and each quotient digit costs a fixed handful of
big-int operations (``_divide_rows``).

``kernel``, the elimination of ``dependence.find_dependence``, packs each
matrix row into one int, with the planes of column c in slots
c e .. c e + e - 1, and clears a pivot column from a row by one
multiply-add.  A row is reduced lazily: only after the
(2^w - 1 - (p - 1)) // (e (p - 1)^2) updates its w-bit slots hold (254 at
p = 2 on 8 bits), before it becomes the pivot row, and once at the end;
cells are read mod p in between.  ``combination_vanishes`` re-checks the
candidates on the inputs.
"""

from __future__ import annotations

from itertools import chain, islice, product

from .algebra import (_mul_codes, _pack_slots, _read_slots, _reduce_slots, _slot_bytes,
                      _slot_codes, _slot_ones, _slot_width)


# steps of the division between two moves of its window
_CHUNK = 8
# window cells, divisors x (D + _CHUNK), of one division: more divisors are
# divided in blocks
_CELLS = 1 << 20


def _repeat(x: int, n: int, step: int) -> int:
    """x, of at most step bits, in n consecutive runs of step bits."""
    have = 1
    while 2 * have <= n:
        x |= x << step * have
        have *= 2
    if have < n:
        x |= (x & (1 << step * (n - have)) - 1) << step * have
    return x


class GFVec:
    """Packed arithmetic bound to one ``FieldSpec``."""

    def __init__(self, spec):
        self.spec = spec
        self.p = p = spec.p
        self.e = spec.e
        self.q = spec.q
        # the digit planes of each code, lowest first
        self._planes = [tuple(spec._digits(a)) for a in range(spec.q)]
        # a quotient digit is masked bit by bit: 2^t for t < bits, and at
        # most pop bits of a digit below p are set
        self._bits = (p - 1).bit_length()
        self._pop = max(bin(v).count("1") for v in range(1, p))
        self._maps = {}

    # -- digit planes --------------------------------------------------------

    def _pack(self, codes, width: int) -> int:
        """The int of a code sequence with the e planes of code j in slots
        j e .. j e + e - 1, each width bits."""
        if self.e == 1:
            return _pack_slots(codes, width)
        return _pack_slots(list(chain.from_iterable(map(self._planes.__getitem__, codes))), width)

    def _codes(self, x: int, n: int, width: int) -> list:
        """The n codes of a packed int whose slots are reduced."""
        slots = _read_slots(x, n * self.e, width)
        if self.e == 1:
            return slots
        codes = slots[::self.e]
        for k in range(1, self.e):
            pk = self.p ** k
            codes = [a + b * pk for a, b in zip(codes, slots[k::self.e])]
        return codes

    def _map(self, c: int):
        """The planes of c u^l for each l: plane i of c x is the sum over l
        of plane i of c u^l times plane l of x."""
        m = self._maps.get(c)
        if m is None:
            m = self._maps[c] = [self._planes[self.spec._mul[c][self.p ** l]]
                                 for l in range(self.e)]
        return m

    def _scale(self, x: int, c: int, n: int, width: int) -> int:
        """c x for x packed of n reduced codes: each slot is a sum of at most
        e products of digits, so it stays within e (p - 1)^2."""
        if self.e == 1:
            return c * x
        ones = _slot_ones(n, self.e * width) * ((1 << width) - 1)
        out = 0
        for l, col in enumerate(self._map(c)):
            xl = x & ones << l * width  # plane l of every code
            for i, m in enumerate(col):
                if m:
                    out += m * (xl << (i - l) * width if i >= l else xl >> (l - i) * width)
        return out

    # -- power sums over the monic polynomials ----------------------------

    def _monic_codes(self, d: int):
        """An iterator over the q^d monic polynomials of degree d as code
        tuples, low degree first; tuple r holds the base-q digits of r below
        the leading 1."""
        return (t[::-1] + (1,) for t in product(range(self.q), repeat=d))

    def _rows_power(self, rows, s: int, keep: int) -> list:
        """The top keep coefficients of a^s for every code tuple a, low first,
        by square-and-multiply on the reversed codes: O(log s) products, each
        cut to its first keep coefficients, which depend only on the first
        keep of each factor."""
        spec, out = self.spec, []
        for a in rows:
            r = a[::-1][:keep]
            x = r
            for bit in bin(s)[3:]:
                x = _mul_codes(spec, x, x, keep)
                if bit == "1":
                    x = _mul_codes(spec, x, r, keep)
            out.append(tuple(x[::-1]))
        return out

    def monic_quotient_sum(self, num, d: int, s: int):
        """Codes of the sum over monic degree-d a of num // a^s, and whether
        some a^s leaves a nonzero remainder.

        Only the top len(num) - s d coefficients of a^s reach the quotient,
        so a^s is built to that many and the lower ones, with as many low
        coefficients of num, are cut; the remainder is then that of the cut
        division.  Nothing is cut when num is longer than 2 s d, as L_d^s is.
        The divisors are taken in blocks of at most _CELLS window cells, and
        the blocks' quotient sums are added as field codes.
        """
        m = s * d
        cut = max(0, 2 * m + 1 - len(num))
        num, keep = num[cut:], m + 1 - cut
        monics = self._monic_codes(d)
        block = max(1, _CELLS // (keep + _CHUNK))
        add, total, rem = self.spec._add, None, False
        while True:
            rows = list(islice(monics, block))
            if not rows:
                return total, rem
            quo, r = self._divide_rows(num, [a[:-1] for a in self._rows_power(rows, s, keep)])
            total = quo if total is None else [add[x][y] for x, y in zip(total, quo)]
            rem = rem or any(map(any, r))

    def _divide_rows(self, num, rows):
        """Divide num, of length above D, by each monic polynomial of degree D
        whose D coefficients below the leading 1 are a code tuple of rows;
        returns the codes of the sum of the quotients and the remainders, one
        code list per divisor.

        A synthetic division on every divisor at once.  The window holds the
        cells of the division as blocks, the lowest first; a block is e
        planes of one lane per divisor.  Step i reads quotient digit i off
        the block of cell i + D, reduced by translate, and counts its digits
        with bytes.count; it adds the lane-wise product of the digit with -a
        to cells i .. i + D - 1: for each plane k and bit t, the lanes whose
        digit k has bit t set, repeated over the D blocks, select the blocks
        of -(2^t u^k) a_j computed in advance.  The window spans D + c cells,
        c = min(D, _CHUNK), and moves down by c cells once per c steps; in
        between, each plane's product is shifted to its cells.

        A cell enters at most p - 1 and grows by at most G = e pop (p - 1) a
        step, pop the most bits set in a digit below p, so lanes of the
        narrowest width over p - 1 + G (8 bits for prime p <= 43) hold it for
        (cap - (p - 1)) // G steps; the window is reduced that often, when D
        is longer.
        """
        spec, p, e, lanes = self.spec, self.p, self.e, len(rows)
        D = len(rows[0])
        n = len(num) - D
        if D == 0:
            row = spec._mul[lanes % p]
            return [row[c] for c in num], [() for _ in rows]
        grow = e * self._pop * (p - 1)
        width = _slot_width(p - 1 + grow)
        cap = (1 << width) - 1
        period = (cap - (p - 1)) // grow
        plane = lanes * width >> 3  # bytes of one plane of a block
        block = e * plane
        bits, pbits, reps = 8 * block, 8 * plane, e * D
        planes, mul = self._planes, spec._mul
        chunk = min(D, _CHUNK)
        # the blocks of -(2^t u^k) a_j for every lane, plane k and bit t
        flat = list(chain.from_iterable(zip(*rows)))
        steps = []
        for k in range(e):
            steps.append([])
            for t in range(self._bits):
                row = mul[(p - (1 << t)) * p ** k]
                cells = [_slot_bytes([planes[row[b]][i] for b in flat], width) for i in range(e)]
                if e > 1:
                    cells = [b"".join(c[j * plane:(j + 1) * plane] for j in range(D)
                                      for c in cells)]
                steps[k].append(int.from_bytes(cells[0], "little"))
        if width == 8:
            tests = [bytes(255 if v % p >> t & 1 else 0 for v in range(256))
                     for t in range(self._bits)]
        entered = {}

        def enter(codes):
            out = []
            for c in codes:
                x = entered.get(c)
                if x is None:
                    x = entered[c] = b"".join(_slot_bytes([v], width) * lanes for v in planes[c])
                out.append(x)
            return int.from_bytes(b"".join(out), "little")

        window = enter(num[n:])
        quo = [0] * n
        for hi in range(n, 0, -chunk):
            lo = max(hi - chunk, 0)
            # block o holds cell lo + o
            window = (window << bits * (hi - lo)) + enter(num[lo:hi])
            for i in range(hi - 1, lo - 1, -1):
                o = i - lo
                top = window >> bits * (o + D) & (1 << bits) - 1
                if top:
                    top = top.to_bytes(block, "little")
                    sums = [0] * e
                    for k, products in enumerate(steps):
                        digits = top[k * plane:(k + 1) * plane]
                        if width > 8:
                            digits = [v % p for v in _slot_codes(digits, width)]
                        part = 0
                        for t, cells in enumerate(products):
                            if width == 8:
                                mask = digits.translate(tests[t])
                                count = mask.count(255)
                            else:
                                sel = [v >> t & 1 for v in digits]
                                count = sum(sel)
                                mask = _slot_bytes([cap * v for v in sel], width)
                            if count:
                                sums[k] += count << t
                                x = _repeat(int.from_bytes(mask, "little"), reps, pbits) & cells
                                part += x
                        window += part << bits * o
                    quo[i] = spec._encode(sums)
                if D > period and i % period == 0:
                    window = _reduce_slots(window, (hi - lo + D) * e * lanes, width, p)
            window &= (1 << bits * D) - 1
        slots = _read_slots(window, reps * lanes, width, p)
        if e > 1:
            # the codes of each block from its planes
            codes = []
            for j in range(0, reps * lanes, e * lanes):
                blk = slots[j:j + lanes]
                for k in range(1, e):
                    pk = p ** k
                    blk = [a + b * pk for a, b in zip(blk, slots[j + k * lanes:j + (k + 1) * lanes])]
                codes += blk
            slots = codes
        return quo, [slots[r::lanes] for r in range(lanes)]

    # -- exact linear algebra over GF(q) -----------------------------------

    def kernel(self, rows):
        """Basis of the right null space of a matrix given as a list of rows
        of codes (lists, tuples or arrays), as a list of code lists.

        Gauss-Jordan elimination column by column on rows packed one int
        each: the pivot is the first nonzero at or below the rows placed so
        far, and the column is cleared from every other row that is nonzero
        there by adding -f times the pivot row, which is zero to the left of
        c.  Rows are reduced lazily.  A reduced slot is at most p - 1 and an
        update adds at most e (p - 1)^2 to it, so a row of w-bit slots takes
        (2^w - 1 - (p - 1)) // (e (p - 1)^2) updates between reductions: 254
        at p = 2 and 63 at p = 3 on 8 bits, 1 at p = 13.  A row is reduced
        when it has taken that many, before it becomes the pivot row (whose
        lead is normalised and which ``_scale`` reads), and once at the end
        for the echelon; the pivot search and the clearing read a cell plane
        by plane mod p.  Each free column gives one basis vector, with 1
        there and the negated column of the reduced echelon form at the
        pivot columns.
        """
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix expected")
        spec, p, e = self.spec, self.p, self.e
        cols = len(rows[0])
        grow = e * (p - 1) ** 2
        width = _slot_width(p - 1 + grow)
        # updates a reduced row takes; one of age last is reduced with its next
        period = ((1 << width) - p) // grow
        last = period - 1
        group, n = e * width, cols * e
        cell = (1 << group) - 1
        if e == 1:
            read = p.__rmod__  # inlined in the clearing loop
        else:
            low, planes = (1 << width) - 1, [(k * width, p ** k) for k in range(e)]

            def read(f):
                """The code of a cell whose planes may be unreduced."""
                code = 0
                for s, pk in planes:
                    code += (f >> s & low) % p * pk
                return code
        m = [self._pack(list(r), width) for r in rows]
        age = [0] * len(m)  # updates of each row since its last reduction
        piv_cols = []
        rank = 0
        for c in range(cols):
            if rank == len(m):
                break
            shift = c * group
            sel = next((r for r in range(rank, len(m)) if read(m[r] >> shift & cell)), None)
            if sel is None:
                continue
            pivot = m[sel]
            if age[sel]:
                pivot = _reduce_slots(pivot, n, width, p)
            m[sel], age[sel] = m[rank], age[rank]
            lead = read(pivot >> shift & cell)
            if lead != 1:
                pivot = _reduce_slots(self._scale(pivot, spec.inv_idx(lead), cols, width),
                                      n, width, p)
            m[rank], age[rank] = pivot, 0
            negs = {}
            for r, x in enumerate(m):
                f = x >> shift & cell
                if f and r != rank:
                    f = f % p if e == 1 else read(f)
                    if f:
                        t = negs.get(f)
                        if t is None:
                            t = negs[f] = self._scale(pivot, spec._neg[f], cols, width)
                        a = age[r]
                        if a < last:
                            m[r], age[r] = x + t, a + 1
                        else:
                            m[r], age[r] = _reduce_slots(x + t, n, width, p), 0
            piv_cols.append(c)
            rank += 1
        echelon = [self._codes(_reduce_slots(x, n, width, p) if a else x, cols, width)
                   for x, a in zip(m, age[:rank])]
        neg, pivots = spec._neg, set(piv_cols)
        basis = []
        for fc in range(cols):
            if fc in pivots:
                continue
            v = [0] * cols
            v[fc] = 1
            for pc, row in zip(piv_cols, echelon):
                v[pc] = neg[row[fc]]
            basis.append(v)
        return basis

    def pack_series(self, series, count: int):
        """(width, (packed int, length) of each code sequence) for
        ``combination_vanishes``; a slot holds count e (p - 1)^2."""
        width = _slot_width(count * self.e * (self.p - 1) ** 2)
        return width, [(self._pack(c, width), len(c)) for c in series]

    def combination_vanishes(self, packed, terms, floor: int) -> bool:
        """Whether sum_j a_j(T) v_j is zero down to T^floor, for terms
        (j, codes of a_j, lead of v_j) over the series packed by
        ``pack_series``, its count at least the number of nonzero a_j codes."""
        width, series = packed
        high = max((lead + len(a) - 1 for _, a, lead in terms), default=floor - 1)
        # slot group r is the coefficient of T^(high - r), down to T^floor
        n = high - floor + 1
        if n <= 0:
            return True
        group = self.e * width
        acc = 0
        for j, a, lead in terms:
            x, length = series[j]
            for t, c in enumerate(a):
                if c:
                    acc += self._scale(x, c, length, width) << group * (high - lead - t)
        return not _reduce_slots(acc & (1 << group * n) - 1, n * self.e, width, self.p)
