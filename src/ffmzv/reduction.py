"""Relation generators, rewriting to the Thakur basis, and the involution checks.

For each side ("zeta" with the q-shuffle product, "li" with the harmonic
product) the generator family gen_A spans all linear relations among the
values. The rewriting rule subtracts the generator in which a non-Thakur
index occurs with unit coefficient; its memoised normal form NF(a)
expresses any combination in coordinates on the Thakur index set. There,
one reduced-echelon elimination decides ideal membership, builds the
weight-graded quotients by the weight-(q-1) zeta value, and solves
linear systems; the dagger involution becomes an explicit matrix. The
elimination (``_linalg``) computes the reduced row echelon form
fraction-free over the polynomial ring: rows stay polynomial, each with
its pivot entry as its denominator, and a residual is one polynomial
combination over one common denominator, so no gcd runs per entry. The
reduced echelon form and the residual are unique, so the results are
those of plain Gauss-Jordan over the field of fractions.

The Reducer computes over F_q(Y), Y = T^q - T.  The only T-dependent
constant its arithmetic meets is L_1 = T - T^q in gen_A (the Delta carries
and the product coefficients lie in F_p), and L_1 = -Y.  Inside the
Reducer every coefficient is therefore a rational function of Y, at 1/q
of its T-degree: the memoised normal forms and dagger expansions, the
quotient echelons, the iota matrices, and every membership and iota^2
test.  One substitution,
phi: Y -> T^q - T, maps a result to F_q(T) where it leaves the Reducer
through the public API (gen_A, u_step, reduce_to_T, dagger_expand,
dagger_linear, quotient_space, iota_matrix, and the coefficients
check_conjecture prints).  The checkers and iota's non-triviality witness
decide every case in Y and build no T-form value.  This is exact:

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

The checkers do no RatFunc arithmetic: dagger expansions map Index to
F_p codes, like the index products, and gen_A and a rewriting step map it
to the F_p[Y] code tuple of its coefficient.

Inside the Reducer every vector the checkers sum, a normal form or a
reduction sum of c * NF(a), has coefficients in F_p[Y] and is one packed
int: ``_reduce`` takes a dict of codes and returns one.  Each weight's
quotient is one ``_packed.Quotient``: its packed ideal generators enter
the elimination as F_p[Y] rows, and a class, like the iota matrix N, is
Lambda times it over F_p[Y], so iota^2 = id is N N = Lambda^2 I.

RatFunc and IndexPoly are built only where a result leaves the Reducer:
``_public`` maps code-tuple terms (gen_A, a rewriting step, a normal form
in reduce_to_T, a quotient generator) through phi, and ``_phi`` the
fractions of quotient_space, iota_matrix and a conjecture difference.  The
public T-form QuotientSpace and linear_solve take any F_q(T) input,
fractions and genuine F_q codes included, so they keep the residual over
the echelon.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._linalg import _clear, _echelon, _residual
from ._packed import Layouts, Packed, Quotient
from .algebra import Poly, RatFunc, carlitz_bracket
from .errors import InvalidInput, ReductionDiverged
from .evaluate import ValueFamily
from .indices import (EMPTY, Index, IndexAlgebra, IndexPoly, ProductKind, _add_codes,
                      _index, _prepend, compositions, repeat, thakur_indices)
from .reports import Case, Report

_FAMILIES = ("zeta", "li")
_KIND = {"zeta": ProductKind.QSHUFFLE, "li": ProductKind.HARMONIC}


def _family(name) -> str:
    if isinstance(name, ValueFamily):
        name = name.side
    if name not in _FAMILIES:
        raise InvalidInput(f"family must be one of {_FAMILIES}, got {name!r}")
    return name


def _phi_poly(f: Poly) -> Poly:
    """f(T^q - T) for f in F_q[Y], by Horner's rule."""
    if f.degree <= 0:
        return f
    spec = f.spec
    y = -carlitz_bracket(spec, 1)  # Y = T^q - T
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
        pivot_set = set(pivots)
        self.quotient_basis = [b for i, b in enumerate(basis) if i not in pivot_set]

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
        """Whether iota^2 is the identity: N N = D^2 I for N = D iota, D the
        monic lcm of the denominators."""
        n = self.dim
        if not n:
            return True
        nums, D = _clear([c for row in self.rows for c in row])
        return _is_involution([nums[i:i + n] for i in range(0, n * n, n)], D)


def _is_involution(N, D: Poly) -> bool:
    """Whether N N = D^2 I, that is (N / D)^2 = I, compared by code tuples."""
    zero, d2 = Poly._make(D.spec, ()), (D * D).c
    nonzero = [[(j, x) for j, x in enumerate(row) if x.c] for row in N]
    for i, row in enumerate(nonzero):
        acc = [zero] * len(N)
        for k, nik in row:
            for j, nkj in nonzero[k]:
                acc[j] = acc[j] + nik * nkj
        if any(v.c != (d2 if j == i else ()) for j, v in enumerate(acc)):
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
        self._quotients = {}
        self._iota_memo = {}
        self._public_quotients = {}
        self._public_iotas = {}
        self._packed = Layouts(self.field, self.q)

    # -- scalars and the boundary map ---------------------------------------------

    def _L1(self) -> Poly:
        """L_1 = T - T^q, which is -Y."""
        return self.field.poly([0, -1])

    # Y -> T^q - T, the one way a coefficient leaves the Reducer; an attribute
    # so that a test can substitute the identity (the T-form reference)
    _phi = staticmethod(_phi)

    def _public(self, terms: dict) -> IndexPoly:
        """The phi-image of Y-form terms held as F_p[Y] code tuples, as they
        leave the Reducer."""
        spec, phi = self.field, self._phi
        return IndexPoly._of(spec, {s: phi(RatFunc._make(Poly._make(spec, c)))
                                    for s, c in terms.items()})

    # -- generators -------------------------------------------------------------

    def gen_A(self, family, s, m: int, n) -> IndexPoly:
        """The relation generator for (s; m; n); homogeneous of weight wt(s)+mq+wt(n)."""
        return self._public(self._gen_A(family, s, m, n))

    def _gen_A(self, family, s, m: int, n) -> dict:
        """gen_A as a dict from Index to F_p[Y] code tuples."""
        family = _family(family)
        if m < 1:
            raise InvalidInput("m must be >= 1")
        A, q, p = self.algebra, self.q, self.field.p
        s, n = Index(s), Index(n)
        kind = _KIND[family]
        qm = repeat(q, m)
        # gen_A = x + L_1^m z with x and z over F_p: the parts never cancel,
        # as L_1 is not constant, so x keeps its place and z-only terms follow
        x = {s.cat(qm, n): 1}
        if not n.is_empty:
            x[_index(s + qm[:-1] + (q + n[0],) + n[1:])] = 1  # boxplus(q^m, n), one depth less
            if family == "zeta":
                _add_codes(x, A._d_indices(Index((q,)), n), p, 1, s + qm[:-1])
        alpha = {n: 1}
        for _ in range(m):
            alpha = _prepend((1,), A._product({Index((q - 1,)): 1}, alpha, kind))
        z = {_index(s + t): p - c for t, c in alpha.items()}
        if not s.is_empty:
            _add_codes(z, {_index(s[:-1] + (s[-1] + t[0],) + t[1:]): c
                           for t, c in alpha.items()}, p, p - 1)
            if family == "zeta":
                ds = {}
                for t, c in alpha.items():
                    _add_codes(ds, A._d_indices(Index((s[-1],)), t), p, c)
                _add_codes(z, ds, p, p - 1, s.plus)
        l1m = (self._L1() ** m).c
        out = {t: (c,) for t, c in x.items()}
        for t, c in z.items():
            codes = [c * v % p for v in l1m]
            if t in out:
                codes[0] = (codes[0] + out[t][0]) % p
            out[t] = tuple(codes)
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
        return P.linear_map(lambda a: self._public(self._rewrite(family, a)))

    def _rewrite(self, family, a: Index) -> dict:
        """The one-step image of a, in Y, as F_p[Y] code tuples."""
        if a.is_thakur(self.q):
            return {a: (1,)}
        dec = self.decompose_T(a)
        if not dec.n.is_empty:
            littler = Index((dec.n[0] - self.q,)).cat(dec.n.minus)
            gen = self._gen_A(family, dec.s, dec.m, littler)
        else:
            # no oversized entry, so the trailing run has m >= 2
            gen = self._gen_A(family, dec.s, dec.m - 1, EMPTY)
        if gen.get(a) != (1,):
            raise InvalidInput(f"rewriting failed to cancel {a}")
        p = self.field.p
        return {t: tuple(-v % p for v in c) for t, c in gen.items() if t != a}

    def _normal_form(self, family, a: Index, cap: int, path: list):
        """(NF(a) packed, rewriting height of a), memoised; path lists the
        indices being rewritten above a, outermost first."""
        key = (family, a)
        hit = self._nf_memo.get(key)
        if hit is None:
            if a.is_thakur(self.q):
                hit = (self._packed.unit(a), 0)
            else:
                if a in path:
                    raise ReductionDiverged(f"rewriting {a} re-entered {a}",
                                            trail=path[path.index(a):])
                path.append(a)
                if len(path) > cap:
                    raise ReductionDiverged(
                        f"rewriting {path[0]} needs more than {cap} levels", trail=path)
                terms, height = [], 0
                for b, c in self._rewrite(family, a).items():
                    v, h = self._normal_form(family, b, cap, path)
                    height = max(height, h)
                    terms.append((c, v))
                path.pop()
                hit = (self._packed.combine(a.weight, terms), height + 1)
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
        family = _family(family)
        nf = self._normal_forms(family, P.terms, self.cap if cap is None else cap)
        return P.linear_map(lambda a: self._public(self._packed.unpack(nf[a])))

    def _normal_forms(self, family, indices, cap: int) -> dict:
        """{a: NF(a) packed} over the indices; rewriting that nests deeper than
        the interpreter's recursion limit raises ReductionDiverged."""
        try:
            return {a: self._normal_form(family, a, cap, [])[0] for a in indices}
        except RecursionError:
            raise ReductionDiverged("rewriting nests deeper than the recursion limit",
                                    trail=sorted(indices)) from None

    def _reduce(self, family, P: dict) -> Packed:
        """Sum of c * NF(a) over a homogeneous Y-form combination P, a dict
        from Index to F_p[Y] code tuple (or to an F_p code, for a constant),
        as one packed vector."""
        family = _family(family)
        nf = self._normal_forms(family, P, self.cap)
        weights = {a.weight for a in P}
        if len(weights) > 1:
            raise InvalidInput("a packed reduction needs a homogeneous combination")
        return self._packed.combine(
            weights.pop() if weights else None,
            [(c if type(c) is tuple else (c,), nf[a]) for a, c in P.items()])

    # -- dagger expansion ------------------------------------------------------------

    def dagger_expand(self, family, s) -> IndexPoly:
        """D with value(dagger, s) = value(plain, D(s)); D(empty) = empty."""
        A = self.algebra
        return IndexPoly._of(self.field, {t: A._coeffs[c] for t, c in
                                          self._dagger(_family(family), Index(s)).items()})

    def dagger_linear(self, family, P: IndexPoly) -> IndexPoly:
        return P.linear_map(lambda s: self.dagger_expand(family, s))

    def _dagger(self, family, s: Index) -> dict:
        """The dagger expansion of s over F_p codes, memoised; never mutate it."""
        key = (family, s)
        hit = self._dagger_memo.get(key)
        if hit is None:
            if s.is_empty:
                hit = {EMPTY: 1}
            else:
                A, p, kind = self.algebra, self.field.p, _KIND[family]
                hit = {}
                for i in range(1, s.depth + 1):
                    _add_codes(hit, A._product({s.prefix(i): 1}, self._dagger(family, s.drop(i)),
                                               kind), p, p - 1)
            self._dagger_memo[key] = hit
        return hit

    def _dagger_sum(self, family, P: dict) -> dict:
        """The dagger image of a combination with F_p codes."""
        out, p = {}, self.field.p
        for s, c in P.items():
            _add_codes(out, self._dagger(family, s), p, c)
        return out

    def _dagger_linear(self, family, P: dict) -> dict:
        """The dagger image of F_p[Y] code tuples, summed over F_p per power of Y."""
        powers = [self._dagger_sum(family, {s: c[k] for s, c in P.items() if k < len(c) and c[k]})
                  for k in range(max(map(len, P.values()), default=0))]
        out = {}
        for k, terms in enumerate(powers):
            for t, v in terms.items():
                codes = out.get(t, ())
                out[t] = codes + (0,) * (k - len(codes)) + (v,)
        return out

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
        echelon, pivots = _echelon([_clear(r)[0] for r in rows], len(basis) + n)
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
            gens = [BasisVector(w, self._public(self._packed.unpack(g)).terms) for g in qs.gens]
            echelon = [[self._phi(RatFunc._make(x)).num for x in row] for row in qs.echelon]
            hit = QuotientSpace(w, qs.basis, gens, echelon, qs.pivots, self.field)
            self._public_quotients[w] = hit
        return hit

    def _quotient(self, w: int) -> Quotient:
        """The weight-w quotient and Lambda times its class map, built on first use."""
        if w < 0:
            raise InvalidInput("weight must be >= 0")
        hit = self._quotients.get(w)
        if hit is None:
            A, q = self.algebra, self.q
            zeta = Index((q - 1,))
            gens = [self._reduce("li", A._prod_indices(zeta, b, ProductKind.HARMONIC))
                    for b in thakur_indices(q, w - q + 1)]
            hit = self._quotients[w] = Quotient(self._packed, w, gens)
        return hit

    def class_of(self, w: int, P: IndexPoly):
        """Quotient coordinates of a Thakur-supported combination."""
        return self.quotient_space(w).class_vector(self.to_vector(w, P))

    def iota_matrix(self, w: int) -> IotaMatrix:
        """The phi-image of the weight-w involution matrix, N / Lambda."""
        hit = self._public_iotas.get(w)
        if hit is None:
            qs, phi = self._quotient(w), self._phi
            rows = [[phi(RatFunc(x, qs.lam)) for x in row] for row in self._iota(w)]
            hit = self._public_iotas[w] = IotaMatrix(w, qs.quotient_basis, rows, self.field)
        return hit

    def _iota(self, w: int) -> list:
        """N = Lambda iota over F_p[Y]: N[i][j] is Lambda times the coefficient
        of quotient basis element i in iota of element j."""
        hit = self._iota_memo.get(w)
        if hit is None:
            qs = self._quotient(w)
            cols = [qs.classes(self._reduce("li", self._dagger("li", a)))
                    for a in qs.quotient_basis]
            hit = self._iota_memo[w] = [list(row) for row in zip(*cols)]
        return hit

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

    def _involution_case(self, w: int) -> Case:
        """Whether iota^2 is the identity at weight w, as N N = Lambda^2 I in
        the Y-form: phi is an injective ring homomorphism, so the verdict is
        that of the T-form iota_matrix(w)."""
        qs = self._quotient(w)
        ok = _is_involution(self._iota(w), qs.lam)
        return Case(input=f"iota^2 @ w={w}", status="pass" if ok else "fail",
                    detail=f"quotient dimension {qs.dim}")

    def _nontrivial_case(self, w: int) -> Case:
        """Whether iota is non-trivial at weight w, by a witness whose class
        is nonzero, decided in the Y-form; an observation without a witness."""
        p, q = self.field.p, self.q
        if p != 2 and w == 1:
            witness = dict(self._dagger("li", Index((1,))))
            _add_codes(witness, {Index((1,)): 1}, p, p - 1)
            label = "class(dagger(1) - (1)) @ w=1"
        elif (q >= 4 and w == 2) or (q == 2 and w == 6):
            witness, label = {Index((w,)): 1}, f"class(({w})) @ w={w}"
        else:
            return Case(input=f"nontrivial @ w={w}", status="observation",
                        detail=f"no non-triviality witness configured for q={q}, w={w}")
        nz = not self._quotient(w).kills(self._reduce("li", witness))
        return Case(input=label, status="pass" if nz else "fail",
                    detail="nonzero class" if nz else "class vanished")

    def check_theorem(self, w: int) -> Report:
        """Dagger images of all weight-w li-side generators land in the ideal,
        and the involution squares to the identity there."""
        cases = []
        for s, m, n in self._ideal_cases(w):
            gen = self._gen_A("li", s, m, n)
            ok = self._quotient(w).kills(self._reduce("li", self._dagger_linear("li", gen)))
            cases.append(Case(
                input=f"A(li; s={s}; m={m}; n={n})",
                status="pass" if ok else "fail",
                detail="dagger image in ideal" if ok else "dagger image escapes the ideal"))
        cases.append(self._involution_case(w))
        return Report(check="theorem", params={"q": self.q, "weight": w}, cases=cases)

    def check_keylemma(self, s, n, cs) -> Report:
        """Congruence of a dagger value of (s, alpha-chain(n)) with its expansion."""
        A, harmonic = self.algebra, ProductKind.HARMONIC
        s, n, cs = Index(s), Index(n), list(Index(cs))
        m = len(cs)
        if s.depth + n.depth + m < 1:
            raise InvalidInput("at least one of s, n, cs must be nonempty")
        head = {Index((self.q - 1,)): 1}

        def chain(values, P):
            """The alpha chain (c_1, (q-1) * (c_2, ... (q-1) * P)) over F_p codes."""
            for c in reversed(values):
                P = _prepend((c,), A._product(head, P, harmonic))
            return P

        expr = self._dagger_sum("li", _prepend(s, chain(cs, {n: 1})))
        for i in range(1, s.depth + 1):
            right = self._dagger_sum("li", _prepend(s.drop(i), chain(cs, {n: 1})))
            A._product({s.prefix(i): 1}, right, harmonic, expr)
        for i in range(1, m + 1):
            left = _prepend(s, chain(cs[:i], {EMPTY: 1}))
            A._product(left, self._dagger_sum("li", chain(cs[i:], {n: 1})), harmonic, expr)
        for i in range(1, n.depth + 1):
            left = _prepend(s, chain(cs, {n.prefix(i): 1}))
            A._product(left, self._dagger("li", n.drop(i)), harmonic, expr)
        reduced = self._reduce("li", expr)
        w = s.weight + n.weight + sum(cs) + m * (self.q - 1)
        if reduced.is_zero:
            status, detail = "pass", "exact zero before taking the quotient"
        else:
            ok = self._quotient(w).kills(reduced)
            status = "pass" if ok else "fail"
            detail = "zero in the quotient" if ok else "nonzero class"
        return Report(check="keylemma",
                      params={"q": self.q, "s": str(s), "n": str(n), "cs": cs},
                      cases=[Case(input=f"s={s} n={n} cs={cs}", status=status, detail=detail)])

    def check_prop41(self, s: int, n: int) -> Report:
        """Single dagger q-shuffle: exact identity with its carry correction,
        plus the congruence form in the quotient."""
        A, p, qshuffle = self.algebra, self.field.p, ProductKind.QSHUFFLE
        cong = A._product(self._dagger("zeta", Index((s,))), self._dagger("zeta", Index((n,))),
                          qshuffle)
        image = self._dagger_sum("zeta", A._prod_indices(Index((s,)), Index((n,)), qshuffle))
        _add_codes(cong, image, p, p - 1)
        expr = dict(cong)
        for j in range(1, s + n):
            dj = A.delta(s, n, j).i
            if dj:
                A._product({Index((s + n - j,)): 1}, self._dagger("zeta", Index((j,))),
                           qshuffle, expr, p - dj)
        reduced = self._reduce("zeta", expr)
        exact_ok = reduced.is_zero
        cong_ok = self._quotient(s + n).kills(self._reduce("zeta", cong))
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
        """Dagger image of a zeta-side generator with m = 1 in the quotient.

        Within the hypotheses (s empty or s[-1] < q, n of depth <= 1) the
        case passes or fails; beyond them it is an observation.  The CLI
        suite runs in-hypothesis cases only, so the observation branches
        serve the Python API alone."""
        s, n = Index(s), Index(n)
        hyp = (s.is_empty or s[-1] < self.q) and n.depth <= 1
        gen = self._gen_A("zeta", s, 1, n)
        img = self._reduce("zeta", self._dagger_linear("zeta", gen))
        ok = self._quotient(s.weight + self.q + n.weight).kills(img)
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
        lam = qs.lam
        # Lambda^2 (iota(class) - class of the dagger) = N c - Lambda d
        c = qs.classes(self._reduce("zeta", {s: 1}))
        d = qs.classes(self._reduce("zeta", self._dagger("zeta", s)))
        diff, live = [], [(k, y) for k, y in enumerate(c) if y.c]
        for t, row, di in zip(qs.quotient_basis, self._iota(w), d):
            v = -(lam * di)
            for k, y in live:
                if row[k].c:
                    v = v + row[k] * y
            if v.c:
                diff.append(f"{t}: {self._phi(RatFunc(v, lam * lam))}")
        detail = "classes differ by " + " | ".join(diff) if diff else "classes equal"
        return Report(check="conjecture", params={"q": self.q, "index": str(s)},
                      cases=[Case(input=str(s), status="observation", detail=detail)])
