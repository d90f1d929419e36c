"""Fraction-free Gauss-Jordan elimination over F_q[X].

The reduced row echelon form over F_q(X) is computed over the polynomial
ring: rows stay polynomial, each with its pivot entry as its denominator,
and a residual is one polynomial combination over one common denominator,
so no gcd runs per entry.  The reduced echelon form and the residual are
unique, so the results are those of plain Gauss-Jordan over the field of
fractions.  The Reducer runs it over F_q[Y] (``_packed``) and
``linear_solve`` over F_q[T], which clears its fractions first (``_clear``).

A row with every code below p (every row of the Reducer) is one int in
the slot codec of ``algebra`` throughout: entry j is the run of S slots
from slot j*S, lowest degree first.  Its update is two big-int products,
with -(f/g) packed by its codes so that no slot goes negative, and one
reduction mod p.  A slot sum is at most (p-1)^2 (len(d/g) + len(f/g)):
slots are 8 bits, reduced by translate, while that is at most 255, and
every row is repacked wider otherwise.  S exceeds deg(d/g) + deg R and
deg(f/g) + deg P (upper bounds, made exact before S at least doubles:
unlike a packed sum's bound, they drift, and the refresh lowered 13 of 19
on the symbolic benchmark; without it a cold theorem q=2 w<=10 took
6.38 s, not 5.41 s, on a 2-vCPU host).
A row with a code >= p (linear_solve input over GF(p^e)), and any row
updated against one, is a list of Poly entries to the end, since its
degrees may outgrow S.
"""

from __future__ import annotations

from .algebra import (Poly, _pack_rows, _pack_slots, _read_slots, _reduce_slots, _repack,
                      _slot_width, _unpack_runs)


def _lcm(spec, polys) -> Poly:
    """The monic lcm of nonzero polynomials over spec, 1 for none."""
    out = Poly._make(spec, (1,))
    for b in polys:
        if b.degree > 0:
            b = b.monic()
            g = out.gcd(b) if out.degree > 0 else out
            out = out * (b // g if g.degree > 0 else b)
    return out


def _clear(vec):
    """(polynomial numerators, monic common denominator) of a nonempty RatFunc vector."""
    dens = {v.den for v in vec}
    den = _lcm(vec[0].spec, dens)
    if den.degree == 0:
        return [v.num for v in vec], den
    cofactor = {d: den // d for d in dens}
    return [v.num * cofactor[v.den] for v in vec], den


def _primitive(row):
    """The polynomial row divided by the monic gcd of its entries, taken
    lowest degree first, so a row with a constant entry costs no gcd."""
    entries = sorted((x for x in row if x.c), key=lambda x: len(x.c))
    if not entries or len(entries[0].c) == 1:
        return row
    g = entries[0]
    for x in entries[1:]:
        g = g.gcd(x)
        if g.degree == 0:
            return row
    g = g.monic()
    return [x // g for x in row]


def _entries(spec, x, ncols: int, slots: int, width: int) -> list:
    """The Poly entries of a row, unpacked if it is packed."""
    return _unpack_runs(spec, x, ncols, slots, width) if type(x) is int else x


def _lead(x, ci: int, ncols: int, slots: int, width: int) -> int:
    """The first column >= ci where a row has a nonzero entry, ncols if none;
    a packed row's is its lowest set bit at or above column ci."""
    if type(x) is not int:
        return next((j for j in range(ci, ncols) if x[j].c), ncols)
    y = x >> ci * slots * width
    return ci + ((y & -y).bit_length() - 1) // (slots * width) if y else ncols


def _entry(spec, x, j: int, slots: int, width: int) -> Poly:
    """Entry j of a row, read from its run alone if it is packed."""
    if type(x) is not int:
        return x[j]
    run = x >> j * slots * width & (1 << slots * width) - 1
    return Poly._make(spec, tuple(_read_slots(run, (run.bit_length() - 1) // width + 1, width)))


def _echelon(rows, ncols: int):
    """Reduced row echelon form over F_q(X) of polynomial rows, computed
    fraction-free over F_q[X] (X is Y inside the Reducer, T in linear_solve).

    Returns (rows, pivots), pivot columns ascending.  Each returned row N is a
    primitive polynomial row with N[pc] != 0 at its own pivot column pc and 0
    at every other pivot column, so N / N[pc] is the reduced row.  A column's
    pivot is its lowest-degree entry, the first such row on ties, and
    eliminating f against the pivot d replaces the row R by (d/g)*R - (f/g)*P
    with g = gcd(d, f), so entries stay polynomials.  A row's content is
    divided out when it becomes the pivot row and once more on the returned
    rows, not after every update.  N is primitive, so it is unique up to a
    nonzero scalar of F_q; the reduced row N / N[pc] is unique.  Only the
    pivot column of each row is read, and only the pivot row and the
    returned rows are unpacked.
    """
    if not rows:
        return [], []
    spec = rows[0][0].spec
    p = spec.p
    codes = [[x.c for x in row] for row in rows]
    degs = [max(map(len, c)) - 1 for c in codes]
    slots, width = max(1, max(degs) + 1), _slot_width(p - 1)
    rows = [_pack_rows(c, slots, width) if max(map(max, filter(None, c)), default=0) < p else row
            for c, row in zip(codes, rows)]
    pivots, ci = [], 0
    while len(pivots) < len(rows):
        rank = len(pivots)
        ci = min(_lead(rows[r], ci, ncols, slots, width) for r in range(rank, len(rows)))
        if ci == ncols:
            break
        col = [_entry(spec, rows[r], ci, slots, width) for r in range(rank, len(rows))]
        sel = rank + min((k for k, f in enumerate(col) if f.c), key=lambda k: col[k].degree)
        x = rows[sel]
        packed = type(x) is int
        entries = _entries(spec, x, ncols, slots, width)
        pivot_row = _primitive(entries)
        if pivot_row is not entries:
            x = _pack_rows([y.c for y in pivot_row], slots, width) if packed else pivot_row
        pdeg = max(len(y.c) for y in pivot_row) - 1
        rows[sel], degs[sel] = rows[rank], degs[rank]
        rows[rank], degs[rank] = x, pdeg
        d = pivot_row[ci]
        for r in range(len(rows)):
            x = rows[r]
            f = _entry(spec, x, ci, slots, width) if r != rank else None
            if f is None or f.is_zero:
                continue
            g = d.gcd(f)
            a, b = (d // g, f // g) if g.degree > 0 else (d, f)
            if not (packed and type(x) is int):
                x = _entries(spec, x, ncols, slots, width)
                rows[r] = [a * u if v.is_zero else a * u - b * v for u, v in zip(x, pivot_row)]
                continue
            need = max(a.degree + degs[r], b.degree + pdeg) + 1
            if need > slots:
                degs[r] = max(u.degree for u in _entries(spec, x, ncols, slots, width))
                need = max(a.degree + degs[r], b.degree + pdeg) + 1
            new_width = max(width, _slot_width((p - 1) ** 2 * (len(a.c) + len(b.c))))
            if need > slots or new_width > width:
                new_slots = slots if need <= slots else max(need, 2 * slots)
                rows = [_repack(y, ncols, slots, width, new_slots, new_width)
                        if type(y) is int else y for y in rows]
                slots, width, x = new_slots, new_width, rows[r]
            x = _pack_slots(a.c, width) * x + _pack_slots((-b).c, width) * rows[rank]
            rows[r] = _reduce_slots(x, ncols * slots, width, p)
            degs[r] = need - 1
        pivots.append(ci)
        ci += 1
    return [_primitive(_entries(spec, x, ncols, slots, width)) for x in rows[:len(pivots)]], pivots


def _residual(vec, echelon, pivots):
    """The residual of a dense RatFunc vector after clearing every pivot column
    of the echelon, as (polynomial numerators, one common denominator).

    With W = D*vec polynomial and L the lcm of the pivot entries d_i = N_i[pc_i]
    that W meets, the residual is (L*W - sum W[pc_i] * (L/d_i) * N_i) / (D*L).
    """
    w, den = _clear(vec)
    used = [(row, pc) for row, pc in zip(echelon, pivots) if not w[pc].is_zero]
    lcm = _lcm(den.spec, [row[pc] for row, pc in used])
    out = w if lcm.degree == 0 else [lcm * x for x in w]
    for row, pc in used:
        c = w[pc] * (lcm // row[pc])
        out = [x if y.is_zero else x - c * y for x, y in zip(out, row)]
    return out, den * lcm
