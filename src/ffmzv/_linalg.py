"""Fraction-free Gauss-Jordan elimination over F_q[X].

The reduced row echelon form over F_q(X) is computed over the polynomial
ring: rows stay polynomial, each with its pivot entry as its denominator,
and a residual is one polynomial combination over one common denominator,
so no gcd runs per entry.  The reduced echelon form and the residual are
unique, so the results are those of plain Gauss-Jordan over the field of
fractions.  The Reducer runs it over F_q[Y] (``reduction``) and
``linear_solve`` over F_q[T].
"""

from __future__ import annotations

from .algebra import Poly


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
    den = _lcm(vec[0].spec, [v.den for v in vec])
    if den.degree == 0:
        return [v.num for v in vec], den
    return [v.num * (den // v.den) for v in vec], den


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


def _echelon(rows, ncols: int):
    """Reduced row echelon form over F_q(X), computed fraction-free over F_q[X]
    (X is Y inside the Reducer, T in linear_solve).

    Returns (rows, pivots), pivot columns ascending.  Each returned row N is a
    primitive polynomial row with N[pc] != 0 at its own pivot column pc and 0
    at every other pivot column, so N / N[pc] is the reduced row.  A column's
    pivot is its lowest-degree entry, and eliminating f against the pivot d
    replaces the row R by (d/g)*R - (f/g)*P with g = gcd(d, f), so entries
    stay polynomials.  A row's content is divided out when it becomes the
    pivot row and once more on the returned rows, not after every update.
    N is primitive, so it is unique up to a nonzero scalar of F_q; the
    reduced row N / N[pc] is unique.
    """
    rows = [_clear(r)[0] for r in rows]
    pivots = []
    for ci in range(ncols):
        rank = len(pivots)
        live = [r for r in range(rank, len(rows)) if not rows[r][ci].is_zero]
        if not live:
            continue
        sel = min(live, key=lambda r: rows[r][ci].degree)
        pivot_row = _primitive(rows[sel])
        rows[sel] = rows[rank]
        rows[rank] = pivot_row
        d = pivot_row[ci]
        for r in range(len(rows)):
            f = rows[r][ci]
            if r == rank or f.is_zero:
                continue
            g = d.gcd(f)
            a, b = (d // g, f // g) if g.degree > 0 else (d, f)
            rows[r] = [a * x if y.is_zero else a * x - b * y for x, y in zip(rows[r], pivot_row)]
        pivots.append(ci)
    return [_primitive(r) for r in rows[:len(pivots)]], pivots


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
