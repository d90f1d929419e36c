"""Vectors over F_p[Y] on a Thakur basis, each packed into one Python int.

Every coefficient the Reducer's checkers sum lies in F_p[Y]: gen_A, the
products and the dagger expansions have F_p coefficients apart from the
powers of -Y, and F_p[Y] is closed under the rewriting's sums; the
Reducer hands them to ``combine`` as code tuples.  So a vector on the
Thakur indices of one weight, a normal form or a reduction sum, is one int
in the slot codec of ``algebra``: coordinate t is a run of ``slots`` slots
holding its F_p codes lowest degree first, so c * v is one big-int product
and a sum of terms is a sum of ints.

Slot k of coordinate t of c * v is sum_{i+j=k} c_i v_tj, at most
min(len c, deg v + 1) products of codes below p, so the slot bound of a sum
is (p-1)^2 min(len c, deg v + 1) summed over its terms, and the slot count
exceeds deg c + deg v for every term, so no coordinate runs into the next:
one reduction per finished vector gives the exact sum over F_p.  Its degree
is the bound max(len c + deg v) - 1 from the terms, exact unless top
coefficients cancel; it only sizes slots.  Packing a code >= p, a genuine
F_q element, raises; it never wraps.  Each weight has one layout, which
grows (the slot count at least doubling) when a sum needs more; a memoised
vector is repacked in place by ``combine``.

A ``Quotient`` packs Lambda times the class map of one weight's quotient
the same way, one row per pivot held only packed, so a class is one big-int
product for the quotient coordinates plus one per pivot; its generators
enter the elimination as F_p[Y] rows.
Vectors come out as F_p[Y] code tuples and classes as Polys in Y: the
Reducer builds RatFunc and IndexPoly only where a result leaves it.
"""

from __future__ import annotations

from ._linalg import _echelon, _lcm
from .algebra import (Poly, _pack_rows, _pack_slots, _reduce_slots, _repack, _slot_runs,
                      _slot_width, _unpack_runs)
from .errors import InvalidInput
from .indices import thakur_indices


class Packed:
    """A vector over F_p[Y] on the Thakur indices of one weight, as one int.

    Coordinate t, the t-th index of thakur_indices(q, weight), is the run of
    slots t*slots .. (t+1)*slots - 1, each width bits, holding its codes
    lowest degree first, every one below p.  degree bounds the largest degree
    of a coordinate from the terms of the sum (exact unless top coefficients
    cancel), -1 for the zero vector (whose weight may be None).
    """

    __slots__ = ("weight", "x", "slots", "width", "degree")

    def __init__(self, weight, x: int, slots: int, width: int, degree: int):
        self.weight = weight
        self.x = x
        self.slots = slots
        self.width = width
        self.degree = degree

    @property
    def is_zero(self) -> bool:
        return not self.x


class Layouts:
    """The packed layout of every weight over one GF(q), and the sums in it."""

    def __init__(self, field, q: int):
        self.field = field
        self.p = field.p
        self.q = q
        self._bases = {}
        self._layouts = {}
        self._scalars = {}

    def basis(self, w: int):
        """(Thakur indices of weight w, their positions)."""
        hit = self._bases.get(w)
        if hit is None:
            basis = thakur_indices(self.q, w)
            hit = self._bases[w] = (basis, {s: t for t, s in enumerate(basis)})
        return hit

    def layout(self, w: int, slots: int = 1, width: int = 8):
        """The (slots, width) of weight w, grown to hold at least the given
        ones.  A growing slot count at least doubles, so a memoised vector is
        repacked O(log degree) times."""
        old = self._layouts.get(w)
        if old is not None:
            slots = old[0] if slots <= old[0] else max(slots, 2 * old[0])
            width = max(width, old[1])
        self._layouts[w] = (slots, width)
        return slots, width

    def unit(self, s) -> Packed:
        """The basis vector of a Thakur index."""
        slots, width = self.layout(s.weight)
        pos = self.basis(s.weight)[1][s]
        return Packed(s.weight, 1 << width * slots * pos, slots, width, 0)

    def _fit(self, v: Packed) -> Packed:
        """v repacked in place to the current layout of its weight: a wider
        slot re-encodes the codes; more slots only zero-pad each coordinate's
        run.  Its value stays the same."""
        slots, width = self._layouts[v.weight]
        if v.slots != slots or v.width != width:
            n = len(self.basis(v.weight)[0])
            v.x = _repack(v.x, n, v.slots, v.width, slots, width)
            v.slots, v.width = slots, width
        return v

    def _scalar(self, codes: tuple, width: int) -> int:
        """A coefficient's codes packed into width-bit slots, memoised; a code
        >= p (outside the prime subfield) raises, so no slot wraps."""
        key = (codes, width)
        x = self._scalars.get(key)
        if x is None:
            if max(codes, default=0) >= self.p:
                raise InvalidInput(f"coefficient codes {codes} lie outside F_p[Y]")
            x = self._scalars[key] = _pack_slots(codes, width)
        return x

    def combine(self, w, terms) -> Packed:
        """The reduced sum of c * v over the (codes of c, Packed v) pairs, all
        of weight w, in a layout sized as the module docstring says: slots >
        deg c + deg v, and a width that holds the sum over the terms of
        (p-1)^2 min(len c, deg v + 1)."""
        live = [(c, v) for c, v in terms if v.degree >= 0]
        if not live:
            return Packed(w, 0, 1, 8, -1)
        p = self.p
        bound = (p - 1) ** 2 * sum(min(len(c), v.degree + 1) for c, v in live)
        top = max(len(c) + v.degree for c, v in live)
        slots, width = self.layout(w, top, _slot_width(bound))
        scalar, fit = self._scalar, self._fit
        x = 0
        for c, v in live:
            x += scalar(c, width) * fit(v).x
        n = len(self.basis(w)[0])
        x = _reduce_slots(x, n * slots, width, p)
        return Packed(w, x, slots, width, top - 1 if x else -1)

    def unpack(self, v: Packed) -> dict:
        """The nonzero coordinates of a packed vector as {Thakur index: F_p[Y]
        code tuple}, in Thakur-basis order."""
        if v.is_zero:
            return {}
        basis = self.basis(v.weight)[0]
        entries = _unpack_runs(self.field, v.x, len(basis), v.slots, v.width)
        return {s: c.c for s, c in zip(basis, entries) if c.c}


class Quotient:
    """One weight's quotient by the ideal of zeta(q-1): the packed generators
    gens, their reduced echelon form (``_linalg``), rows N_i with pivot
    entries d_i = N_i[pc_i], Lambda the monic lcm of the d_i, the quotient
    columns Q (the non-pivot coordinates) and one packed row
    -(Lambda / d_i) N_i[Q] per pivot.  Then Lambda v[Q] + sum_i v_{pc_i} row_i
    is Lambda times the residual of v on Q: the class of v is zero exactly
    when that sum is, and is the sum over Lambda.  Lambda v[Q] is one product
    of Lambda's packed codes with v's runs at Q.  The rows share one width,
    which holds every query's slot sums (rank + 1 terms, each entry and
    Lambda at most span codes).  The rows are held once, packed with span
    slots, and grown by ``_repack`` when a query's degree needs more.
    """

    def __init__(self, layouts: Layouts, weight: int, gens: list):
        spec, p = layouts.field, layouts.p
        self.weight, self.field, self.gens = weight, spec, gens
        self.basis = basis = layouts.basis(weight)[0]
        n = len(basis)
        self.echelon, self.pivots = echelon, pivots = _echelon(
            [_unpack_runs(spec, g.x, n, g.slots, g.width) for g in gens], n)
        self.lam = lam = _lcm(spec, [row[pc] for row, pc in zip(echelon, pivots)])
        self.columns = quotient = sorted(set(range(n)).difference(pivots))
        self.quotient_basis = [basis[t] for t in quotient]
        self.dim = len(quotient)
        scales = [-(lam // row[pc]) for row, pc in zip(echelon, pivots)]
        entries = [[(f * row[t]).c if row[t].c else () for t in quotient]
                   for row, f in zip(echelon, scales)]
        if any(max(c) >= p for row in [[lam.c], *entries] for c in row if c):
            raise InvalidInput("an echelon entry lies outside F_p[Y]")
        self.span = max([len(lam.c)] + [len(c) for row in entries for c in row])
        self.width = _slot_width((len(pivots) + 1) * (p - 1) ** 2 * self.span)
        self.lam_x = _pack_slots(lam.c, self.width)
        self.slots = self.span
        self.rows = [_pack_rows(entry, self.slots, self.width) for entry in entries]

    def _numerators(self, v: Packed):
        """Lambda * class(v) packed as dim runs of slots slots, reduced mod p,
        or None when v or the quotient is zero."""
        if v.weight != self.weight and not v.is_zero:
            raise InvalidInput("weight mismatch")
        if v.is_zero or not self.dim:
            return None
        need = v.degree + self.span
        if need > self.slots:
            old, self.slots = self.slots, max(need, 2 * self.slots)
            self.rows = [_repack(row, self.dim, old, self.width, self.slots, self.width)
                         for row in self.rows]
        x, n, size = v.x, len(self.basis), self.slots * self.width >> 3
        if v.width != self.width:
            x = _repack(x, n, v.slots, v.width, v.slots, self.width)
        runs = _slot_runs(x, n, v.slots, self.width)
        # a run of v may have more slots than the rows, all past deg v zero
        y = self.lam_x * int.from_bytes(
            b"".join(runs[t][:size].ljust(size, b"\0") for t in self.columns), "little")
        for pc, row in zip(self.pivots, self.rows):
            c = int.from_bytes(runs[pc], "little")
            if c:
                y += c * row
        return _reduce_slots(y, self.dim * self.slots, self.width, self.field.p)

    def kills(self, v: Packed) -> bool:
        """Whether the class of v is zero."""
        return not self._numerators(v)

    def classes(self, v: Packed) -> list:
        """Lambda times the class of v on the quotient basis, as Polys."""
        y = self._numerators(v)
        if y is None:
            return [Poly._make(self.field, ())] * self.dim
        return _unpack_runs(self.field, y, self.dim, self.slots, self.width)
