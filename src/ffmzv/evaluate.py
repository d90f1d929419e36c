"""Numeric evaluation in GF(q)((1/T)) and the exact power-sum identities.

The four value families share one cumulative dynamic program over the
degree level d: strictly descending levels for the plain families,
weakly ascending levels with the sign (-1)^depth for the dagger
families.  Power sums S_d(s) are brute-forced over the q^d monic
polynomials of degree d (budgeted); for s <= q the closed form 1/L_d^s
is used, which the test suite cross-checks against the brute force.
One brute-force kernel (``GFVec.monic_quotient_sum``, standard library
only, on the slot codec of ``algebra``) serves both the series and the
exact power sums: it divides a numerator num by a^s for every monic a of
degree d at once and sums the quotients.  The series
takes num = T^(M + s d - 1), whose quotients hold the first M
coefficients of T^(s d) a^(-s); the exact numerator takes num = L_d^s0,
whose quotients are (L_d / a)^s0, with a Frobenius for the p-power part
of s = s0 p^k.  Level cutoffs read deg L_d from its closed form
q(q^d - 1)/(q - 1); L_d itself is built only where a series or an exact
numerator uses it.

Truncation is conservative: a level factor is dropped only when its
order provably exceeds the requested precision, by the bound
max(f(s) deg L_d, s d) of ``Evaluator._level_cutoff``, which keeps the
brute force of a zeta entry s > q off every level with 2 deg L_d > prec.

The level DP runs on packed series (``SeriesPacking``): every level
factor and value lies in F_p((1/T)) with order >= 0 (S_d(s) is fixed by
Frobenius), one Python int at precision N.  A batch of indices shares
the transient DP rows of common prefixes (``_dp_value``); a value sum
with F_p coefficients is one ``_packed_sum``, and where every value is
memoised, one probe of the memo per term and no DP walk.  It is the one
path that signs a value: ``value_of_index`` is a sum of one term.

The polylogarithm families are evaluated at the all-ones point only;
that point lies inside the convergence domain of the underlying
multivariable series (|z_i| up to q^(s_i q/(q-1))), so the sums here
always make sense.  Other evaluation points are out of scope.
"""

from __future__ import annotations

import enum

from .algebra import (FieldSpec, LaurentSeries, Poly, RatFunc, _p_split, _pack_slots,
                      _read_slots, _reduce_slots, _slot_width, carlitz_bracket, carlitz_l,
                      carlitz_l_degree, rat_to_laurent)
from .errors import InvalidInput, PrecisionTooExpensive
from .indices import Index, IndexPoly
from .reports import Case, Report


class ValueFamily(enum.Enum):
    ZETA = "zeta"
    ZETA_DAGGER = "zeta-dagger"
    LI = "li"
    LI_DAGGER = "li-dagger"
    ZETA_STAR = "zeta-star"
    LI_STAR = "li-star"
    __hash__ = object.__hash__  # memo keys hash by identity, in C

    def __init__(self, value):
        # side: "zeta" (power sums) or "li" (Carlitz factorials)
        self.side, _, variant = value.partition("-")
        self.is_dagger, self.is_star = variant == "dagger", variant == "star"

    @classmethod
    def parse(cls, text):
        if isinstance(text, cls):
            return text
        try:
            return cls(text)
        except ValueError:
            raise InvalidInput(f"unknown value family {text!r}") from None

    @property
    def dagger(self) -> "ValueFamily":
        return ValueFamily.ZETA_DAGGER if self.side == "zeta" else ValueFamily.LI_DAGGER


def default_precision(weight: int) -> int:
    """Suite default: comfortably beyond every coefficient consumed at desk weights."""
    return 4 * weight + 24


def _digit_sum(n: int, q: int) -> int:
    """sigma_q(n), the sum of the base-q digits of n >= 0."""
    total = 0
    while n:
        n, r = divmod(n, q)
        total += r
    return total


class EvalBudget:
    """The caps on brute-force enumerations of monic polynomials.

    ``max_bruteforce`` caps q^d, the number of monic polynomials of degree
    d.  An exact power sum with s = s0 * p^k also divides L_d^s0, of degree
    s0 deg L_d with deg L_d = q(q^d - 1)/(q - 1), by a^s0 for each of them,
    so its cost follows the q^d * s0 * deg L_d cells of that division (one
    cell a row and a quotient digit): ``MAX_DIVISION_CELLS`` caps them at
    2^24, where an s0 = 1 numerator takes 0.2-0.35 s at (q, d) = (2, 11),
    (3, 7) and (5, 5) on a 2-vCPU Xeon VM (Python 3.11, the packed
    ``_gfnum`` division).  L_5 at q = 9 needs 3.9e9 cells, L_4 4.8e7.

    Each cell also updates the s0 d coefficients of a^s0 below its lead, so
    a wide divisor costs cells * s0 d updates, 0.2-7e-9 s each:
    ``MAX_DIVISION_UPDATES`` caps them at 2^27, 0.02-0.9 s at (q, d, s0) =
    (2, 1, 5791), (8, 1, 1447), (9, 2, 95) and (9, 3, 8).  It never binds
    at s0 = 1: there cells <= 2^24 leaves d <= 7, or d <= 11 and
    cells <= 2^23 at q = 2, so cells * d stays within 2^27.

    The series power sums divide one row per monic a for M = prec - s d + 1
    quotient digits over at most min(M, s d) coefficients of a^s, so
    ``check_series`` caps their q^d M min(M, s d) coefficient updates at the
    same ``MAX_DIVISION_UPDATES``: ``power_sum(6, 40, 3000)`` at q = 3 needs
    4.8e8.  Through the level cutoff q^d <= deg L_d <= prec / 2 for the
    entries s > q that take the series, so a value asks for at most
    prec^3 / 8 updates; zeta(40) at q = 3 and prec 3000 needs 1.4e8 at d = 5.
    """

    MAX_DIVISION_CELLS = 1 << 24
    MAX_DIVISION_UPDATES = 1 << 27

    def __init__(self, max_bruteforce: int = 1 << 20):
        self.max_bruteforce = max_bruteforce

    def check_enumeration(self, q: int, d: int):
        if self.max_bruteforce < q:
            raise InvalidInput("brute-force budget below q")
        if q ** d > self.max_bruteforce:
            raise PrecisionTooExpensive(
                f"enumerating q^d = {q}^{d} monic polynomials exceeds the budget "
                f"{self.max_bruteforce}; lower the precision or use an index with "
                f"all entries <= q")

    def check_series(self, q: int, d: int, s: int, m: int):
        """check_enumeration, and the cap on the coefficient updates of the
        series division: q^d rows of m quotient digits, each over at most
        min(m, s d) coefficients of a^s."""
        self.check_enumeration(q, d)
        updates = q ** d * max(m, 0) * min(m, s * d)
        if updates > self.MAX_DIVISION_UPDATES:
            raise PrecisionTooExpensive(
                f"the series sum of a^-{s} over q^d = {q}^{d} monic polynomials takes "
                f"{updates} coefficient updates ({m} quotient digits), above the cap "
                f"{self.MAX_DIVISION_UPDATES}; lower the precision, d or s")

    def check_division(self, q: int, d: int, s: int = 1):
        """check_enumeration, and the caps on the cells and the coefficient
        updates of dividing L_d^s0 by a^s0 for every monic a of degree d,
        s0 the part of s prime to the characteristic."""
        self.check_enumeration(q, d)
        s, _ = _p_split(s, next(k for k in range(2, q + 1) if q % k == 0))
        deg = carlitz_l_degree(q, d)
        cells = q ** d * s * deg
        what = (f"L_{d} (degree {deg}) by the" if s == 1 else
                f"L_{d}^{s} (degree {s * deg}) by the power {s} of the")
        if cells > self.MAX_DIVISION_CELLS:
            raise PrecisionTooExpensive(
                f"dividing {what} q^d = {q}^{d} monic polynomials takes {cells} cells, "
                f"above the cap {self.MAX_DIVISION_CELLS}; lower d{'' if s == 1 else ' or s'}")
        if cells * s * d > self.MAX_DIVISION_UPDATES:
            raise PrecisionTooExpensive(
                f"dividing {what} q^d = {q}^{d} monic polynomials takes {cells} cells "
                f"of width {s * d}, {cells * s * d} coefficient updates, above the cap "
                f"{self.MAX_DIVISION_UPDATES}; lower d or s")


class SeriesPacking:
    """Series of order >= 0 over F_p at one absolute precision N, each packed
    into one Python int in the slot codec of ``algebra``.

    Slot j, of ``width`` bits, holds the F_p code of T^(j - N), so slots
    0..N cover T^-N..T^0 and any two packed series are aligned.  Slot m of
    a product u * h is sum_{i+j=m} u_i h_j, at most N + 1 products of codes
    below p, and its slots N..2N hold T^-N..T^0, so x + (u * h >> width N)
    keeps every slot within the slot bound (N + 1)(p - 1)^2 + (p - 1), and
    one ``reduce`` gives the exact result over F_p.  Packing a code >= p, a
    series of positive lead or one known below precision N raises; it
    never wraps.
    A reduced packed int holds exactly T^-N..T^0, so packed ints compare at
    exactly N, never at a smaller precision as ``LaurentSeries ==`` can.
    """

    __slots__ = ("spec", "prec", "width", "cap", "one")

    def __init__(self, spec: FieldSpec, prec: int):
        if prec < 0:
            raise InvalidInput("precision must be >= 0")
        p = spec.p
        self.spec = spec
        self.prec = prec
        self.width = _slot_width((prec + 1) * (p - 1) ** 2 + (p - 1))
        self.cap = (1 << self.width) - 1  # the largest slot sum
        self.one = 1 << self.width * prec

    def pack(self, v: LaurentSeries) -> int:
        """The packed int of a series of order >= 0 with F_p codes, known to
        precision >= N."""
        if v.prec < self.prec:
            raise InvalidInput(f"cannot pack a series of precision {v.prec} < {self.prec}")
        if v.is_zero_to_prec or v.lead < -self.prec:
            return 0
        if v.lead > 0:
            raise InvalidInput(f"cannot pack a series of positive lead {v.lead}")
        codes = v.c[:v.lead + self.prec + 1][::-1]
        if max(codes) >= self.spec.p:
            raise InvalidInput("cannot pack a series with codes outside F_p")
        return _pack_slots(codes, self.width)

    def mul_add(self, x: int, u: int, h: int) -> int:
        """x + u h, reduced, for reduced x, u and h.

        With a and b the orders of u and h, only the slots >= b of u and
        >= a of h reach T^-N in u h, so the product is a short one, and
        zero to precision when a + b > N (always when u or h is zero).
        """
        w, n = self.width, self.prec
        a = n - (u.bit_length() - 1) // w
        b = n - (h.bit_length() - 1) // w
        if a + b > n:
            return x
        return self.reduce(x + ((u >> w * b) * (h >> w * a) >> w * (n - a - b)))

    def reduce(self, x: int) -> int:
        """x with every slot reduced mod p."""
        return _reduce_slots(x, self.prec + 1, self.width, self.spec.p)

    def unpack(self, x: int) -> LaurentSeries:
        """The LaurentSeries of a reduced packed int."""
        codes = _read_slots(x, self.prec + 1, self.width)
        return LaurentSeries._make(self.spec, 0, codes[::-1], self.prec)


class Evaluator:
    """Value computations over one GF(q), memoising power sums, packed level
    factors and packed values."""

    def __init__(self, field: FieldSpec, budget: EvalBudget | None = None):
        self.field = field
        self.q = field.q
        self.budget = budget if budget is not None else EvalBudget()
        self._power_sums, self._numerators, self._packings = {}, {}, {}
        self._level, self._values = {}, {}

    # -- Carlitz factorials -------------------------------------------------

    def L(self, d: int) -> Poly:
        """L_d as an exact polynomial; L_0 = 1."""
        return carlitz_l(self.field, d)

    # -- power sums ----------------------------------------------------------

    def power_sum(self, d: int, s: int, prec: int) -> LaurentSeries:
        """Sum of a^(-s) over the q^d monic a of degree d, to absolute precision."""
        if d < 0 or s < 1:
            raise InvalidInput("need d >= 0 and s >= 1")
        key = (d, s, prec)
        hit = self._power_sums.get(key)
        if hit is not None:
            return hit
        m = prec - s * d + 1
        if m <= 0:
            # every a^(-s) has order s d > prec
            out = LaurentSeries.zero(self.field, prec)
        else:
            self.budget.check_series(self.q, d, s, m)
            # T^(m + sd - 1) // a^s holds the first m coefficients of
            # T^(sd) a^(-s), highest first
            codes, _ = self.field.vec.monic_quotient_sum([0] * (m + s * d - 1) + [1], d, s)
            out = LaurentSeries._make(self.field, -s * d, codes[::-1], prec)
        self._power_sums[key] = out
        return out

    def power_sum_exact(self, d: int, s: int) -> RatFunc:
        """The same sum as an exact rational function (common denominator L_d^s)."""
        if d < 0 or s < 1:
            raise InvalidInput("need d >= 0 and s >= 1")
        self.budget.check_division(self.q, d, s)
        num = self._power_sum_numerator(d, s)
        return RatFunc(num, self.L(d).power(s))

    def _power_sum_numerator(self, d: int, s: int) -> Poly:
        """Sum over monic degree-d a of (L_d / a)^s; every a divides L_d.

        With s = s0 * p^k the sum is (sum of (L_d / a)^s0)^(p^k), a Frobenius
        of the memoised s0 numerator.
        """
        s0, k = _p_split(s, self.field.p)
        num = self._numerators.get((d, s0))
        if num is None:
            codes, rem = self.field.vec.monic_quotient_sum(self.L(d).power(s0).c, d, s0)
            if rem:
                raise InvalidInput("internal: L_d must be divisible by every monic a")
            while codes and not codes[-1]:  # the top digits of the sum often cancel
                codes.pop()
            num = Poly._make(self.field, tuple(codes))
            self._numerators[(d, s0)] = num
        return num.frobenius(k)

    def fundamental_identity_check(self, d: int) -> Report:
        """S_d(q) - L_1 S_{d+1}(1) * sum_{i<=d} S_i(q-1) = 0, exactly.

        Verified as an identity of rational functions with every power
        sum brute-forced; the three pieces are combined over the common
        denominator L_{d+1}^q so the test is a polynomial zero test.  The
        budget is checked on level d + 1 before any power sum is computed:
        where its q^(d+1) deg L_(d+1) cells fit, so do the (q - 1) q^d deg L_d
        cells of width (q - 1) d of the largest division at level d.
        """
        q = self.q
        self.budget.check_division(q, d + 1)
        lhs = self._power_sum_numerator(d, q) * (carlitz_bracket(self.field, d + 1).power(q))
        b = self._power_sum_numerator(d + 1, 1)
        acc = None
        for i in range(d + 1):
            lift = self.field.poly([1])
            for t in range(i + 1, d + 2):
                lift = lift * carlitz_bracket(self.field, t)
            term = self._power_sum_numerator(i, q - 1) * lift.power(q - 1)
            acc = term if acc is None else acc + term
        rhs = carlitz_bracket(self.field, 1) * b * acc
        diff = lhs - rhs
        ok = diff.is_zero
        detail = "identically zero" if ok else f"nonzero difference of degree {diff.degree}"
        return Report(
            check="fundamental",
            params={"q": q, "d": d},
            cases=[Case(input=f"d={d}", status="pass" if ok else "fail", detail=detail)],
        )

    # -- per-level factors ---------------------------------------------------

    def _packing(self, prec: int) -> "SeriesPacking":
        hit = self._packings.get(prec)
        if hit is None:
            hit = self._packings[prec] = SeriesPacking(self.field, prec)
        return hit

    def _level_factors(self, family: ValueFamily, s: int, prec: int) -> tuple:
        """The packed level-d factors of the entry s for d up to its
        ``_level_cutoff``: 1/L_d^s on the li side, S_d(s) on the zeta side."""
        key = (family.side, s, prec)
        hit = self._level.get(key)
        if hit is None:
            packing, out = self._packing(prec), []
            for d in range(self._level_cutoff(family, (s,), prec) + 1):
                if family.side == "li" or s <= self.q:
                    inv = RatFunc(self.field.poly([1]), self.L(d).power(s))
                    out.append(packing.pack(rat_to_laurent(inv, prec)))
                else:
                    out.append(packing.pack(self.power_sum(d, s, prec)))
            hit = self._level[key] = tuple(out)
        return hit

    def _order_bound(self, side: str, s: int, d: int) -> int:
        """A lower bound on the order of the level-d factor; see ``_level_cutoff``."""
        s0 = _p_split(s, self.field.p)[0]
        f = s if side == "li" else s // s0 * (1 + _digit_sum(s0 - 1, self.q))
        return max(f * carlitz_l_degree(self.q, d), s * d)

    def _level_cutoff(self, family: ValueFamily, s: Index, prec: int) -> int:
        """The last level d at which some entry's level-d factor can reach
        precision ``prec``: every factor past it has order > prec.

        Orders are at infinity, v(T^-k) = k.  The factor of the entry s at
        level d has order at least max(f(s) deg L_d, s d), with f(s) = s on
        the li side and f(s) = p^k (1 + sigma_q(s' - 1)) on the zeta side,
        s = p^k s' with p prime to s' and sigma_q the base-q digit sum.  On
        the li side the factor is 1/L_d^s, of order exactly s deg L_d >= s d.
        On the zeta side S_d(s) is a sum of 1/a^s of order s d each; the
        other bound comes from Carlitz's F_q-linear e_d(x) = prod over
        deg b < d of (x - b) (Goss, *Basic Structures of Function Field
        Arithmetic*, ch. 3; Thakur, *Function Field Arithmetic*, ch. 5):

            e_d(x) = sum_{i<=d} D_d / (D_i L_{d-i}^(q^i)) x^(q^i),

        so e_d'(x) = D_d / L_d, and e_d(T^d) = D_d.  The monic a of degree
        d are T^d + b, so sum_b 1/(x - b) = e_d'(x)/e_d(x) at x = T^d - y
        gives

            sum_a 1/(a - y) = (1/L_d) / (1 - e_d(y)/D_d),
            e_d(y)/D_d = sum_i c_i y^(q^i),  c_i = 1/(D_i L_{d-i}^(q^i)).

        S_d(s) is the coefficient of y^(s-1).  Expanding the geometric
        series, it is 1/L_d times a sum of products c_{i_1} ... c_{i_m} with
        q^{i_1} + ... + q^{i_m} = s - 1, and any such sum of powers of q has
        m >= sigma_q(s - 1) terms.  With deg D_i = i q^i,
        v(c_i) = i q^i + q^(i+1) + ... + q^d, which exceeds
        deg L_d = q + ... + q^d by the sum over 1 <= j <= i of
        q^i - q^j >= 0 (equality at i = 0, 1).  So every product has order
        >= (1 + m) deg L_d >= (1 + sigma_q(s - 1)) deg L_d.  For s <= q this
        is s deg L_d, the order of the closed form 1/L_d^s.  And S_d(s) =
        S_d(s')^(p^k), the p-th power being additive.  (f(s) >= 1 +
        sigma_q(s - 1), sigma_q being subadditive and submultiplicative.)

        Both bounds grow with d, so the cutoff is one scan per entry.  The
        value DP multiplies factors of order >= 0, so dropping a factor of
        order > prec changes no coefficient up to T^-prec.
        """
        cut = 0
        for entry in s:
            while self._order_bound(family.side, entry, cut + 1) <= prec:
                cut += 1
        return cut

    def value_of_index(self, family: ValueFamily, s: Index, prec: int) -> LaurentSeries:
        """Value of one index, a ``_packed_sum`` of one term."""
        family = ValueFamily.parse(family)
        return self._packing(prec).unpack(self._packed_sum(family, {s: 1}, prec))

    def _dp_value(self, family: ValueFamily, batch, prec: int):
        """Memoise the values of a batch of indices, without the dagger sign,
        in one walk over the trie of their entry tuples."""
        # Row i, H_i(d) = H_i(d-1) + u(d) H_(i-1)(d-1+weak), H_0 = 1, u the factor
        # of entry i, depends only on the first i entries consumed: reversed s
        # (plain, strict levels, weak = 0) or s (daggers, weak = 1); it is
        # constant past the entry's level cutoff.  The walk visits the sorted
        # entry tuples in preorder, computes each row once from its parent's
        # and holds it only while below it.
        if family.is_star:
            family, batch = family.dagger, [s.reversed() for s in batch]
        memo, weak = self._values, int(family.is_dagger)
        todo = {s if weak else s[::-1]: s for s in batch
                if (family, s, prec) not in memo}
        packing = self._packing(prec)
        level = {e: self._level_factors(family, e, prec) for e in set().union(*todo)}
        stack, prev = [[packing.one]], ()
        for entries, s in sorted(todo.items()):
            k = 0
            for a, b in zip(prev, entries):
                if a != b:
                    break
                k += 1
            del stack[k + 1:]
            for e in entries[k:]:
                # row[d] is H(d - 1); a row ends where it is constant
                factors, up, x, row = level[e], stack[-1], 0, [0]
                for u, h in zip(factors, up[weak:] + up[-1:] * len(factors)):
                    if u and h:
                        x = packing.mul_add(x, u, h)
                    row.append(x)
                stack.append(row)
            memo[(family, s, prec)] = stack[-1][-1]
            prev = entries

    def _packed_sum(self, family: ValueFamily, terms: dict, prec: int) -> int:
        """The reduced packed sum of k value(s) over the F_p codes {s: k} of
        terms; reduced early where a slot could overflow.  This is the one
        path that signs a value: a dagger value carries the sign (-1)^depth,
        and a star value is the dagger value of the reversed index, the
        signs cancelling.

        Each term is first one probe of the memoised values; only the misses
        go to ``_dp_value``, as one batch."""
        p, packing, memo = self.field.p, self._packing(prec), self._values
        odd = family.is_dagger
        if family.is_star:
            family, idx = family.dagger, [s.reversed() for s in terms]
        else:
            idx = list(terms)
        xs = [memo.get((family, s, prec)) for s in idx]
        if None in xs:
            self._dp_value(family, [s for s, x in zip(idx, xs) if x is None], prec)
            xs = [memo[(family, s, prec)] for s in idx]
        acc = bound = 0
        for s, k, x in zip(idx, terms.values(), xs):
            if odd and s.depth % 2:
                k = p - k
            if bound + k * (p - 1) > packing.cap:
                acc, bound = packing.reduce(acc), p - 1
            acc += k * x
            bound += k * (p - 1)
        # a bound below p is one term with k = 1, already reduced
        return acc if bound < p else packing.reduce(acc)

    def eval_value(self, family, P, prec: int) -> LaurentSeries:
        """F_q(T)-linear extension of the chosen family over an IndexPoly.

        The terms with an F_p constant coefficient are one ``_packed_sum``;
        any other is a series product, added to that sum as a series."""
        family = ValueFamily.parse(family)
        if not isinstance(P, IndexPoly):
            return self.value_of_index(family, Index(P), prec)
        p, consts, rest = self.field.p, {}, None
        for s, c in P.terms.items():
            if len(c.num.c) == 1 and c.den.c == (1,) and c.num.c[0] < p:  # dens are monic
                consts[s] = c.num.c[0]
                continue
            # a coefficient of degree g > 0 costs g coefficients of the value
            ext = prec + max(c.num.degree - c.den.degree, 0)
            v = self.value_of_index(family, s, ext) * rat_to_laurent(c, ext)
            rest = v if rest is None else rest + v
        out = self._packing(prec).unpack(self._packed_sum(family, consts, prec))
        return out if rest is None else out + rest
