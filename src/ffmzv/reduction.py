"""Relation generators, rewriting to the Thakur basis, and the involution checks.

For each side ("zeta" with the q-shuffle product, "li" with the
harmonic product) the generator family gen_A spans all linear
relations among the values.  The rewriting rule subtracts the
generator in which a non-Thakur index occurs with unit coefficient;
its memoised normal form NF(a) expresses any combination in
coordinates on the Thakur index set.  There, one reduced-echelon
elimination decides ideal membership, builds the weight-graded quotients
by the weight-(q-1) zeta value, and solves linear systems; the dagger
involution becomes an explicit matrix.  The elimination computes the
reduced row echelon form fraction-free over the polynomial ring: rows
stay polynomial, each with its pivot entry as its denominator, and a
residual is one polynomial combination over one common denominator, so
no gcd runs per entry.  The reduced echelon form and the residual are
unique, so the results are those of plain Gauss-Jordan over the field
of fractions.

The Reducer computes over F_q(Y), Y = T^q - T.  The only T-dependent
constant its arithmetic meets is L_1 = T - T^q in gen_A (the Delta carries
and the product coefficients lie in F_p), and L_1 = -Y.  Inside the
Reducer every coefficient is therefore a rational function of Y, kept with
the same Poly / RatFunc types and FieldSpec, at 1/q of its T-degree: the
memoised normal forms and dagger expansions, the quotient echelons, the
iota matrices, and every membership and iota^2 test.  One substitution,
phi: Y -> T^q - T, maps a result to F_q(T) where it leaves the Reducer
through the public API (gen_A, u_step, reduce_to_T, dagger_expand,
dagger_linear, quotient_space, iota_matrix, and the coefficients
check_conjecture prints).  The checkers decide every case in Y and build
no T-form value.  This is exact:

* phi is an injective ring homomorphism F_q(Y) -> F_q(T), because
  T^q - T is transcendental over F_q.
* T^q - T has T-degree q and is monic, so deg_T phi(f) = q * deg_Y f and
  phi maps monic to monic.  The least-degree pivot choice therefore picks
  the same row.
* phi preserves coprimality (apply it to a Bezout identity), so contents,
  gcds and lcms commute with phi, and a reduced fraction with a monic
  denominator maps to a reduced fraction with a monic denominator: the
  boundary map needs no gcd.
* The reduced echelon form is unique.

So every step of the computation over F_q(T), down to the primitive
echelon rows, is the phi-image of the same step over F_q(Y).  User
coefficients in T never enter the internal ring: the linear maps scale the
phi-images per index, and a public QuotientSpace is the phi-image of the
internal one, so its class_vector, class_is_zero and linear_solve take
T-form input as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import Poly, RatFunc, carlitz_bracket
from .errors import InvalidInput, ReductionDiverged
from .evaluate import ValueFamily
from .indices import (EMPTY, Index, IndexAlgebra, IndexPoly, ProductKind,
                      _accumulate, compositions, repeat, thakur_indices)
from .reports import Case, Report

_FAMILIES = ("zeta", "li")
_KIND = {"zeta": ProductKind.QSHUFFLE, "li": ProductKind.HARMONIC}


def _family(name) -> str:
    if isinstance(name, ValueFamily):
        name = name.side
    if name not in _FAMILIES:
        raise InvalidInput(f"family must be one of {_FAMILIES}, got {name!r}")
    return name


def _lcm(a: Poly, b: Poly) -> Poly:
    """The monic lcm of two monic polynomials."""
    if a.degree == 0:
        return b
    if b.degree == 0:
        return a
    g = a.gcd(b)
    return a * (b // g) if g.degree > 0 else a * b


def _clear(vec):
    """(polynomial numerators, monic common denominator) of a nonempty RatFunc vector."""
    den = vec[0].den
    for v in vec[1:]:
        den = _lcm(den, v.den)
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
    stay polynomials; dividing out the content keeps their degrees down.
    """
    rows = [_primitive(_clear(r)[0]) for r in rows]
    pivots = []
    for ci in range(ncols):
        rank = len(pivots)
        live = [r for r in range(rank, len(rows)) if not rows[r][ci].is_zero]
        if not live:
            continue
        sel = min(live, key=lambda r: rows[r][ci].degree)
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pivot_row = rows[rank]
        d = pivot_row[ci]
        for r in range(len(rows)):
            f = rows[r][ci]
            if r == rank or f.is_zero:
                continue
            g = d.gcd(f)
            a, b = (d // g, f // g) if g.degree > 0 else (d, f)
            rows[r] = _primitive([a * x if y.is_zero else a * x - b * y
                                  for x, y in zip(rows[r], pivot_row)])
        pivots.append(ci)
    return rows[:len(pivots)], pivots


def _residual(vec, echelon, pivots):
    """The residual of a dense RatFunc vector after clearing every pivot column
    of the echelon, as (polynomial numerators, one common denominator).

    With W = D*vec polynomial and L the lcm of the pivot entries d_i = N_i[pc_i]
    that W meets, the residual is (L*W - sum W[pc_i] * (L/d_i) * N_i) / (D*L).
    """
    w, den = _clear(vec)
    used = [(row, pc) for row, pc in zip(echelon, pivots) if not w[pc].is_zero]
    lcm = den.spec.poly([1])
    for row, pc in used:
        lcm = _lcm(lcm, row[pc].monic())
    out = w if lcm.degree == 0 else [lcm * x for x in w]
    for row, pc in used:
        c = w[pc] * (lcm // row[pc])
        out = [x if y.is_zero else x - c * y for x, y in zip(out, row)]
    return out, den * lcm


@lru_cache(maxsize=None)
def _y_in_T(spec) -> Poly:
    """Y = T^q - T as a polynomial in T."""
    return -carlitz_bracket(spec, 1)


def _phi_poly(f: Poly) -> Poly:
    """f(T^q - T) for f in F_q[Y], by Horner's rule."""
    if f.degree <= 0:
        return f
    spec = f.spec
    y = _y_in_T(spec)
    out = Poly._make(spec, (f.c[-1],))
    for c in reversed(f.c[:-1]):
        out = out * y
        if c:
            out = out + Poly._make(spec, (c,))
    return out


def _phi(f: RatFunc) -> RatFunc:
    """The substitution Y -> T^q - T on a reduced fraction with a monic
    denominator; the image is one too, so no gcd runs."""
    if f.num.degree <= 0 and f.den.degree <= 0:
        return f
    return RatFunc._make(_phi_poly(f.num), _phi_poly(f.den))


@dataclass(frozen=True)
class TDecomposition:
    """a = (s, {q}^(m-1), n) with s Thakur, n empty or starting above q."""
    s: Index
    m: int
    n: Index

    def reassemble(self, q: int) -> Index:
        return self.s.cat(repeat(q, self.m - 1), self.n)


class BasisVector:
    """Coordinates of a value on the Thakur index set of one weight."""

    __slots__ = ("weight", "coords")

    def __init__(self, weight: int, coords: dict):
        self.weight = weight
        self.coords = {s: c for s, c in coords.items() if not c.is_zero}

    @property
    def is_zero(self):
        return not self.coords

    def items(self):
        return [(s, self.coords[s]) for s in sorted(self.coords)]

    def __eq__(self, other):
        return (isinstance(other, BasisVector) and other.weight == self.weight
                and other.coords == self.coords)

    def __str__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*{s}" if str(c) != "1" else str(s) for s, c in self.items())


class QuotientSpace:
    """The weight-w piece of the value span modulo the weight-(q-1) zeta ideal."""

    def __init__(self, weight: int, basis, ideal_gens, echelon, pivots, field):
        self.weight = weight
        self.basis = basis            # canonical list of Thakur indices
        self.ideal_gens = ideal_gens  # BasisVectors, pre-echelon
        self.echelon = echelon        # polynomial rows N, reduced row N / N[pivot]
        self.pivots = pivots          # pivot column positions, ascending
        self.field = field
        self.quotient_basis = [b for i, b in enumerate(basis) if i not in set(pivots)]

    @property
    def dim_space(self):
        return len(self.basis)

    @property
    def dim_ideal(self):
        return len(self.pivots)

    @property
    def dim_quotient(self):
        return len(self.quotient_basis)

    def class_vector(self, vec: BasisVector):
        """Quotient coordinates (on quotient_basis), as RatFuncs."""
        nums, den = self._clear_pivots(vec)
        pivot_set = set(self.pivots)
        return [RatFunc(x, den) for i, x in enumerate(nums) if i not in pivot_set]

    def class_is_zero(self, vec: BasisVector) -> bool:
        return all(x.is_zero for x in self._clear_pivots(vec)[0])

    def _clear_pivots(self, vec: BasisVector):
        if vec.weight != self.weight:
            raise InvalidInput("weight mismatch")
        zero = RatFunc.of(0, self.field)
        return _residual([vec.coords.get(s, zero) for s in self.basis],
                         self.echelon, self.pivots)


class IotaMatrix:
    """The involution on quotient coordinates at one weight, as an exact matrix."""

    def __init__(self, weight: int, basis, rows, field):
        self.weight = weight
        self.basis = basis  # quotient basis (Thakur indices)
        self.rows = rows    # rows[i][j]: coefficient of basis[i] in iota(basis[j])
        self.field = field

    @property
    def dim(self):
        return len(self.basis)

    def apply(self, coords):
        n = self.dim
        zero = RatFunc.of(0, self.field)
        out = []
        for i in range(n):
            acc = zero
            for j in range(n):
                c = coords[j]
                if c.is_zero:
                    continue
                acc = acc + self.rows[i][j] * c
            out.append(acc)
        return out

    def squared_is_identity(self) -> bool:
        zero, one = RatFunc.of(0, self.field), RatFunc.of(1, self.field)
        for j in range(self.dim):
            unit = [one if i == j else zero for i in range(self.dim)]
            if self.apply([row[j] for row in self.rows]) != unit:
                return False
        return True


class Reducer:
    """Rewriting, exact linear algebra, and the theorem checkers for one GF(q).

    Every memo holds Y-form coefficients (see the module docstring); the
    public methods return their phi-images in F_q(T).
    """

    def __init__(self, algebra: IndexAlgebra, *, cap: int = 10_000):
        self.algebra = algebra
        self.field = algebra.field
        self.q = algebra.q
        self.cap = cap
        self._nf_memo = {}
        self._dagger_memo = {}
        self._quotient_memo = {}
        self._iota_memo = {}
        self._public_quotients = {}
        self._public_iotas = {}

    # -- scalars and the boundary map ---------------------------------------------

    def _L1(self) -> RatFunc:
        """L_1 = T - T^q, which is -Y."""
        return RatFunc._make(self.field.poly([0, -1]))

    def _phi(self, f: RatFunc) -> RatFunc:
        """Y -> T^q - T: the one way a coefficient leaves the Reducer."""
        return _phi(f)

    def _public(self, P: IndexPoly) -> IndexPoly:
        return IndexPoly._of(self.field, {s: self._phi(c) for s, c in P.terms.items()})

    # -- generators -------------------------------------------------------------

    def gen_A(self, family, s, m: int, n) -> IndexPoly:
        """The relation generator for (s; m; n); homogeneous of weight wt(s)+mq+wt(n)."""
        return self._public(self._gen_A(family, s, m, n))

    def _gen_A(self, family, s, m: int, n) -> IndexPoly:
        family = _family(family)
        if m < 1:
            raise InvalidInput("m must be >= 1")
        A = self.algebra
        q = self.q
        s, n = Index(s), Index(n)
        kind = _KIND[family]
        qm = repeat(q, m)
        l1m = self._L1() ** m
        n_poly = A.mono(n)
        alpha_m = A.alpha(1, (q - 1,), kind, n_poly, m)
        out = A.mono(s.cat(qm, n))
        out = out + A.boxplus(A.mono(qm), n_poly).linear_map(lambda t: A.mono(s.cat(t)))
        if family == "zeta":
            dq = A.d_op(Index((q,)), n_poly)
            out = out + dq.linear_map(lambda t: A.mono(s.cat(repeat(q, m - 1), t)))
        out = out - alpha_m.linear_map(lambda t: A.mono(s.cat(t))).scale(l1m)
        out = out - A.boxplus(A.mono(s), alpha_m).scale(l1m)
        if family == "zeta" and not s.is_empty:
            ds = A.d_op(Index((s[-1],)), alpha_m)
            out = out - ds.linear_map(lambda t: A.mono(s.plus.cat(t))).scale(l1m)
        return out

    # -- rewriting ----------------------------------------------------------------

    def decompose_T(self, a) -> TDecomposition:
        """Unique splitting a = (s, {q}^(m-1), n), s Thakur, n empty or n_1 > q."""
        a = Index(a)
        q = self.q
        cut = a.depth
        for i, v in enumerate(a):
            if v > q:
                cut = i
                break
        n = a.drop(cut)
        run = 0
        while run < cut and a[cut - 1 - run] == q:
            run += 1
        s = a.prefix(cut - run)
        return TDecomposition(s=s, m=run + 1, n=n)

    def u_step(self, family, P: IndexPoly) -> IndexPoly:
        """One value-preserving rewriting pass; fixes anything already Thakur."""
        family = _family(family)
        return P.linear_map(lambda a: self._u_image(family, a))

    def _u_image(self, family, a: Index) -> IndexPoly:
        """The one-step image of a, in T."""
        return self._public(self._rewrite(family, a))

    def _rewrite(self, family, a: Index) -> IndexPoly:
        """The one-step image of a, in Y."""
        if a.is_thakur(self.q):
            return self.algebra.mono(a)
        dec = self.decompose_T(a)
        if not dec.n.is_empty:
            littler = Index((dec.n[0] - self.q,)).cat(dec.n.minus)
            gen = self._gen_A(family, dec.s, dec.m, littler)
        else:
            # no oversized entry, so the trailing run has m >= 2
            gen = self._gen_A(family, dec.s, dec.m - 1, EMPTY)
        out = self.algebra.mono(a) - gen
        if not out.coeff(a).is_zero:
            raise InvalidInput(f"rewriting failed to cancel {a}")
        return out

    def _normal_form(self, family, a: Index, cap: int, path: list):
        """(NF(a), rewriting height of a), memoised; path lists the indices
        being rewritten above a, outermost first."""
        key = (family, a)
        hit = self._nf_memo.get(key)
        if hit is None:
            if a.is_thakur(self.q):
                hit = (self.algebra.mono(a), 0)
            else:
                if a in path:
                    raise ReductionDiverged(f"rewriting {a} re-entered {a}",
                                            trail=path[path.index(a):])
                path.append(a)
                if len(path) > cap:
                    raise ReductionDiverged(
                        f"rewriting {path[0]} needs more than {cap} levels", trail=path)
                out, height = {}, 0
                for b, c in self._rewrite(family, a).terms.items():
                    nf, h = self._normal_form(family, b, cap, path)
                    _accumulate(out, nf.terms, c)
                    height = max(height, h)
                path.pop()
                hit = (IndexPoly._of(self.field, out), height + 1)
            self._nf_memo[key] = hit
        if len(path) + hit[1] > cap:
            trail = path + [a]
            raise ReductionDiverged(
                f"rewriting {trail[0]} needs more than {cap} levels", trail=trail)
        return hit

    def reduce_to_T(self, family, P: IndexPoly, cap=None) -> IndexPoly:
        """Sum of c * NF(a) over the terms c*a of P: Thakur-supported, same value.

        Raises ReductionDiverged when the rewriting of some index re-enters
        itself (trail: the cycle) or needs more than cap rewriting levels,
        or more levels than the interpreter's recursion limit allows.
        """
        return self._reduce(family, P, cap, self._public)

    def _reduce(self, family, P: IndexPoly, cap=None, image=None) -> IndexPoly:
        """Sum of c * image(NF(a)) over the terms c*a of P; image defaults to
        the identity, which keeps a Y-form P in Y."""
        family = _family(family)
        cap = self.cap if cap is None else cap

        def nf(a):
            out = self._normal_form(family, a, cap, [])[0]
            return out if image is None else image(out)
        try:
            return P.linear_map(nf)
        except RecursionError:
            raise ReductionDiverged("rewriting nests deeper than the recursion limit",
                                    trail=sorted(P.terms)) from None

    # -- dagger expansion ------------------------------------------------------------

    def dagger_expand(self, family, s) -> IndexPoly:
        """D with value(dagger, s) = value(plain, D(s)); D(empty) = empty."""
        return self._public(self._dagger(_family(family), Index(s)))

    def dagger_linear(self, family, P: IndexPoly) -> IndexPoly:
        return P.linear_map(lambda s: self.dagger_expand(family, s))

    def _dagger(self, family, s: Index) -> IndexPoly:
        key = (family, s)
        hit = self._dagger_memo.get(key)
        if hit is not None:
            return hit
        A = self.algebra
        if s.is_empty:
            out = A.one()
        else:
            kind = _KIND[family]
            # the sum of the products, negated once at the end
            acc = {}
            for i in range(1, s.depth + 1):
                _accumulate(acc, A.product(A.mono(s.prefix(i)),
                                           self._dagger(family, s.drop(i)), kind).terms)
            out = -IndexPoly._of(self.field, acc)
        self._dagger_memo[key] = out
        return out

    def _dagger_linear(self, family, P: IndexPoly) -> IndexPoly:
        return P.linear_map(lambda s: self._dagger(family, s))

    # -- exact linear algebra ------------------------------------------------------------

    def to_vector(self, w: int, P: IndexPoly) -> BasisVector:
        for s in P.terms:
            if not s.is_thakur(self.q) or s.weight != w:
                raise InvalidInput(f"{s} is not a weight-{w} Thakur index")
        return BasisVector(w, dict(P.terms))

    def linear_solve(self, vectors, target):
        """Exact membership of target in the span; returns coefficients or None.

        Eliminates the rows [v_i | e_i] and reduces [target | 0] against
        them: the residual is [target - sum x_i v_i | -x].
        """
        if not vectors and target.is_zero:
            return []
        weight = target.weight
        for v in vectors:
            if v.weight != weight:
                raise InvalidInput("weight mismatch in linear_solve")
        basis = thakur_indices(self.q, weight)
        zero = RatFunc.of(0, self.field)
        one = RatFunc.of(1, self.field)
        n = len(vectors)
        rows = [[v.coords.get(s, zero) for s in basis] + [zero] * n for v in vectors]
        for i, row in enumerate(rows):
            row[len(basis) + i] = one
        echelon, pivots = _echelon(rows, len(basis) + n)
        nums, den = _residual([target.coords.get(s, zero) for s in basis] + [zero] * n,
                              echelon, pivots)
        if any(not x.is_zero for x in nums[:len(basis)]):
            return None
        return [RatFunc(-x, den) for x in nums[len(basis):]]

    def quotient_space(self, w: int) -> QuotientSpace:
        """The phi-image of the weight-w quotient, built on first use."""
        hit = self._public_quotients.get(w)
        if hit is None:
            qs = self._quotient(w)
            phi = self._phi
            gens = [BasisVector(w, {s: phi(c) for s, c in g.coords.items()})
                    for g in qs.ideal_gens]
            echelon = [[phi(RatFunc._make(x)).num for x in row] for row in qs.echelon]
            hit = QuotientSpace(w, qs.basis, gens, echelon, qs.pivots, self.field)
            self._public_quotients[w] = hit
        return hit

    def _quotient(self, w: int) -> QuotientSpace:
        if w < 0:
            raise InvalidInput("weight must be >= 0")
        hit = self._quotient_memo.get(w)
        if hit is not None:
            return hit
        A = self.algebra
        basis = thakur_indices(self.q, w)
        gens = []
        lower = w - (self.q - 1)
        if lower >= 0:
            for b in thakur_indices(self.q, lower):
                prod = A.harmonic(A.mono(Index((self.q - 1,))), A.mono(b))
                gens.append(self.to_vector(w, self._reduce("li", prod)))
        zero = RatFunc.of(0, self.field)
        echelon, pivots = _echelon([[g.coords.get(s, zero) for s in basis] for g in gens],
                                   len(basis))
        out = QuotientSpace(w, basis, gens, echelon, pivots, self.field)
        self._quotient_memo[w] = out
        return out

    def class_of(self, w: int, P: IndexPoly):
        """Quotient coordinates of a Thakur-supported combination."""
        return self.quotient_space(w).class_vector(self.to_vector(w, P))

    def iota_matrix(self, w: int) -> IotaMatrix:
        """The phi-image of the weight-w involution matrix."""
        hit = self._public_iotas.get(w)
        if hit is None:
            m = self._iota(w)
            hit = IotaMatrix(w, m.basis, [[self._phi(x) for x in row] for row in m.rows],
                             self.field)
            self._public_iotas[w] = hit
        return hit

    def _iota(self, w: int) -> IotaMatrix:
        hit = self._iota_memo.get(w)
        if hit is not None:
            return hit
        qs = self._quotient(w)
        cols = []
        for a in qs.quotient_basis:
            img = self._reduce("li", self._dagger("li", a))
            cols.append(qs.class_vector(self.to_vector(w, img)))
        rows = [list(row) for row in zip(*cols)]
        out = IotaMatrix(w, qs.quotient_basis, rows, self.field)
        self._iota_memo[w] = out
        return out

    # -- checkers -------------------------------------------------------------------

    def _ideal_cases(self, w: int):
        """All (s, m, n) with wt(s) + m q + wt(n) = w, m >= 1, in canonical order."""
        out = []
        for m in range(1, w // self.q + 1):
            rest = w - m * self.q
            for ws in range(rest + 1):
                for s in compositions(ws):
                    for n in compositions(rest - ws):
                        out.append((s, m, n))
        out.sort(key=lambda t: (t[0].weight, t[0], t[1], t[2]))
        return out

    def _in_ideal(self, w: int, P: IndexPoly) -> bool:
        """Whether a reduced Y-form combination has class zero at weight w."""
        return self._quotient(w).class_is_zero(self.to_vector(w, P))

    def check_theorem(self, w: int) -> Report:
        """Dagger images of all weight-w li-side generators land in the ideal,
        and the involution squares to the identity there."""
        qs = self._quotient(w)
        cases = []
        for s, m, n in self._ideal_cases(w):
            gen = self._gen_A("li", s, m, n)
            ok = self._in_ideal(w, self._reduce("li", self._dagger_linear("li", gen)))
            cases.append(Case(
                input=f"A(li; s={s}; m={m}; n={n})",
                status="pass" if ok else "fail",
                detail="dagger image in ideal" if ok else "dagger image escapes the ideal"))
        inv_ok = self._iota(w).squared_is_identity()
        cases.append(Case(
            input=f"iota^2 @ w={w}",
            status="pass" if inv_ok else "fail",
            detail=f"quotient dimension {qs.dim_quotient}"))
        return Report(check="theorem", params={"q": self.q, "weight": w}, cases=cases)

    def check_keylemma(self, s, n, cs) -> Report:
        """Congruence of a dagger value of (s, alpha-chain(n)) with its expansion."""
        A = self.algebra
        s, n = Index(s), Index(n)
        cs = list(cs)
        m = len(cs)
        if s.depth + n.depth + m < 1:
            raise InvalidInput("at least one of s, n, cs must be nonempty")

        def chain(values, P):
            out = P
            for c in reversed(values):
                out = A.alpha(c, (self.q - 1,), ProductKind.HARMONIC, out, 1)
            return out

        full = chain(cs, A.mono(n)).linear_map(lambda t: A.mono(s.cat(t)))
        expr = self._dagger_linear("li", full)
        for i in range(1, s.depth + 1):
            left = A.mono(s.prefix(i))
            right = self._dagger_linear(
                "li", chain(cs, A.mono(n)).linear_map(lambda t: A.mono(s.drop(i).cat(t))))
            expr = expr + A.harmonic(left, right)
        for i in range(1, m + 1):
            left = chain(cs[:i], A.one()).linear_map(lambda t: A.mono(s.cat(t)))
            right = self._dagger_linear("li", chain(cs[i:], A.mono(n)))
            expr = expr + A.harmonic(left, right)
        for i in range(1, n.depth + 1):
            left = chain(cs, A.mono(n.prefix(i))).linear_map(lambda t: A.mono(s.cat(t)))
            right = self._dagger("li", n.drop(i))
            expr = expr + A.harmonic(left, right)
        reduced = self._reduce("li", expr)
        w = s.weight + n.weight + sum(cs) + m * (self.q - 1)
        if reduced.is_zero:
            status, detail = "pass", "exact zero before taking the quotient"
        else:
            ok = self._in_ideal(w, reduced)
            status = "pass" if ok else "fail"
            detail = "zero in the quotient" if ok else "nonzero class"
        return Report(check="keylemma",
                      params={"q": self.q, "s": str(s), "n": str(n), "cs": cs},
                      cases=[Case(input=f"s={s} n={n} cs={cs}", status=status, detail=detail)])

    def check_prop41(self, s: int, n: int) -> Report:
        """Single dagger q-shuffle: exact identity with its carry correction,
        plus the congruence form in the quotient."""
        A = self.algebra
        ds = self._dagger("zeta", Index((s,)))
        dn = self._dagger("zeta", Index((n,)))
        expr = A.qshuffle(ds, dn)
        prod = A.qshuffle(A.mono(Index((s,))), A.mono(Index((n,))))
        expr = expr - self._dagger_linear("zeta", prod)
        for j in range(1, s + n):
            dj = A.delta(s, n, j)
            if dj.is_zero:
                continue
            term = A.qshuffle(A.mono(Index((s + n - j,))),
                              self._dagger("zeta", Index((j,))))
            expr = expr - term.scale(dj)
        reduced = self._reduce("zeta", expr)
        exact_ok = reduced.is_zero
        w = s + n
        cong = A.qshuffle(ds, dn) - self._dagger_linear("zeta", prod)
        cong_ok = self._in_ideal(w, self._reduce("zeta", cong))
        cases = [
            Case(input=f"exact s={s} n={n}", status="pass" if exact_ok else "fail",
                 detail="identity with carry correction holds exactly" if exact_ok
                 else "nonzero reduction"),
            Case(input=f"congruence s={s} n={n}", status="pass" if cong_ok else "fail",
                 detail="q-shuffle product congruence in the quotient" if cong_ok
                 else "nonzero class"),
        ]
        return Report(check="prop41", params={"q": self.q, "s": s, "n": n}, cases=cases)

    def check_prop42(self, s, n) -> Report:
        """Dagger image of a zeta-side generator with m = 1 in the quotient."""
        s, n = Index(s), Index(n)
        hyp = (s.is_empty or s[-1] < self.q) and n.depth <= 1
        gen = self._gen_A("zeta", s, 1, n)
        img = self._reduce("zeta", self._dagger_linear("zeta", gen))
        ok = self._in_ideal(s.weight + self.q + n.weight, img)
        if hyp:
            status = "pass" if ok else "fail"
            detail = "in ideal" if ok else "escapes the ideal under the stated hypotheses"
        else:
            status = "observation"
            detail = ("beyond proven hypotheses: in ideal" if ok
                      else "beyond proven hypotheses: NOT in ideal")
        return Report(check="prop42",
                      params={"q": self.q, "s": str(s), "n": str(n)},
                      cases=[Case(input=f"s={s} n={n}", status=status, detail=detail)])

    def check_conjecture(self, s) -> Report:
        """Compare iota(class of zeta(s)) with the class of the dagger expansion.

        Open conjecture: always reported as an observation, never asserted.
        """
        s = Index(s)
        w = s.weight
        qs = self._quotient(w)
        lhs = self._iota(w).apply(qs.class_vector(
            self.to_vector(w, self._reduce("zeta", self.algebra.mono(s)))))
        rhs = qs.class_vector(self.to_vector(
            w, self._reduce("zeta", self._dagger("zeta", s))))
        diff = [a - b for a, b in zip(lhs, rhs)]
        equal = all(v.is_zero for v in diff)
        detail = "classes equal" if equal else (
            "classes differ by " + " | ".join(
                f"{qs.quotient_basis[i]}: {self._phi(v)}"
                for i, v in enumerate(diff) if not v.is_zero))
        return Report(check="conjecture", params={"q": self.q, "index": str(s)},
                      cases=[Case(input=str(s), status="observation", detail=detail)])
