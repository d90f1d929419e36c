"""Numeric evaluation in GF(q)((1/T)) and the exact power-sum identities.

The four value families share one cumulative dynamic program over the
degree level d: strictly descending levels for the plain families,
weakly ascending levels with the sign (-1)^depth for the dagger
families.  Power sums S_d(s) are brute-forced over the q^d monic
polynomials of degree d (budgeted); for s <= q the closed form 1/L_d^s
is used, which the test suite cross-checks against the brute force.
One brute-force kernel (``GFVec.monic_quotient_sum``) serves both the
series and the exact power sums: it divides a numerator num by a^s for
every monic a of degree d at once and sums the quotients.  The series
takes num = T^(M + s d - 1), whose quotients hold the first M
coefficients of T^(s d) a^(-s); the exact numerator takes num = L_d^s0,
whose quotients are (L_d / a)^s0, with a Frobenius for the p-power part
of s = s0 p^k.  Level cutoffs read deg L_d from its closed form
q(q^d - 1)/(q - 1); L_d itself is built only where a series or an exact
numerator uses it.

Truncation is conservative: a level factor is dropped only when its
order provably exceeds the requested precision.  Both sides use one
bound, max(f(s) deg L_d, s d) with f(s) = s on the li side and
f(s) = 1 + sigma_q(s - 1) on the zeta side (sigma_q the base-q digit
sum), proved from Carlitz's F_q-linear e_d in ``Evaluator._level_cutoff``.
For a zeta entry s > q, f(s) >= 2, so the brute force runs at no level
with 2 deg L_d > prec; the trivial bound s d alone would keep every
level with s d <= prec.

The polylogarithm families are evaluated at the all-ones point only;
that point lies inside the convergence domain of the underlying
multivariable series (|z_i| up to q^(s_i q/(q-1))), so the sums here
always make sense.  Other evaluation points are out of scope.
"""

from __future__ import annotations

import enum

from .algebra import (FieldSpec, LaurentSeries, Poly, RatFunc, carlitz_bracket,
                      carlitz_l, carlitz_l_degree, rat_to_laurent)
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

    @classmethod
    def parse(cls, text):
        if isinstance(text, cls):
            return text
        try:
            return cls(text)
        except ValueError:
            raise InvalidInput(f"unknown value family {text!r}") from None

    @property
    def is_dagger(self) -> bool:
        return self in (ValueFamily.ZETA_DAGGER, ValueFamily.LI_DAGGER)

    @property
    def is_star(self) -> bool:
        return self in (ValueFamily.ZETA_STAR, ValueFamily.LI_STAR)

    @property
    def side(self) -> str:
        """"zeta" (power sums) or "li" (Carlitz factorials)."""
        return "zeta" if self in (ValueFamily.ZETA, ValueFamily.ZETA_DAGGER,
                                  ValueFamily.ZETA_STAR) else "li"

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
    so its cost grows with the q^d * s0 * deg L_d cells of that division (one
    cell a row and a quotient digit) rather than with q^d alone.
    ``MAX_DIVISION_CELLS`` caps those cells at 2^24.  Measured on a 2-vCPU
    Xeon VM (Python 3.11, numpy 2.4), a cell takes 0.8-2.1e-7 s for s0 = 1
    at q = 2, 3, 4, 5, 8, 9, so an s0 = 1 numerator at the cap runs 1-4 s;
    L_5 at q = 9 needs 3.9e9 cells, L_4 at q = 9 4.8e7.

    Each cell also updates the s0 d coefficients of a^s0 below its lead, so
    for a wide divisor the time follows the cells * s0 d coefficient
    updates instead: 1.1-1.7e-8 s each at (q, d, s0) = (3, 6, 20),
    (9, 3, 28) and (2, 1, 16001), which take 22, 24 and 9 s.
    ``MAX_DIVISION_UPDATES`` caps them at 2^27: (2, 1, 5791), (8, 1, 1447)
    and (9, 2, 95) at the cap take 2.1, 2.4 and 1.9 s, (9, 3, 8) (1.1e8)
    1.7 s.  It never binds at s0 = 1: there cells <= 2^24 leaves d <= 7,
    or d <= 11 and cells <= 2^23 at q = 2, so cells * d stays within 2^27.

    The series power sums are capped by q^d alone.  Their division runs
    one row per monic a for M = prec - s d + 1 quotient digits over at
    most min(M, s d) coefficients of a^s; through the level cutoff
    q^d <= deg L_d <= prec / 2 for the entries s > q that take it, so that
    is at most prec^3 / 8 coefficient updates.  A direct ``power_sum`` call
    with a large prec is not bounded.
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

    def check_division(self, q: int, d: int, s: int = 1):
        """check_enumeration, and the caps on the cells and the coefficient
        updates of dividing L_d^s0 by a^s0 for every monic a of degree d,
        s0 the part of s prime to the characteristic."""
        self.check_enumeration(q, d)
        p = next(k for k in range(2, q + 1) if q % k == 0)
        while s % p == 0:
            s //= p
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


class Evaluator:
    """Value computations over one GF(q), memoising power sums, level series
    and values."""

    def __init__(self, field: FieldSpec, budget: EvalBudget | None = None):
        self.field = field
        self.q = field.q
        self.budget = budget if budget is not None else EvalBudget()
        self._power_sums = {}
        self._numerators = {}
        self._level = {}
        self._values = {}

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
        self.budget.check_enumeration(self.q, d)
        m = prec - s * d + 1
        if m <= 0:
            out = LaurentSeries.zero(self.field, prec)
        else:
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
        s0, k = s, 0
        while s0 % self.field.p == 0:
            s0 //= self.field.p
            k += 1
        num = self._numerators.get((d, s0))
        if num is None:
            codes, rem = self.field.vec.monic_quotient_sum(self.L(d).power(s0).c, d, s0)
            if rem:
                raise InvalidInput("internal: L_d must be divisible by every monic a")
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

    # -- per-level series ------------------------------------------------------

    def _level_series(self, side: str, s: int, d: int, prec: int) -> LaurentSeries:
        """The level-d factor: 1/L_d^s on the li side, S_d(s) on the zeta side.

        Past the order bound of ``_level_cutoff`` the factor is zero to
        precision, returned before L_d is built or any monic polynomial is
        enumerated.
        """
        key = (side, s, d, prec)
        hit = self._level.get(key)
        if hit is not None:
            return hit
        if self._order_bound(side, s, d) > prec:
            out = LaurentSeries.zero(self.field, prec)
        elif side == "li" or s <= self.q:
            out = rat_to_laurent(RatFunc(self.field.poly([1]), self.L(d).power(s)), prec)
        else:
            out = self.power_sum(d, s, prec)
        self._level[key] = out
        return out

    def _order_bound(self, side: str, s: int, d: int) -> int:
        """A lower bound on the order of the level-d factor; see ``_level_cutoff``."""
        f = s if side == "li" else 1 + _digit_sum(s - 1, self.q)
        return max(f * carlitz_l_degree(self.q, d), s * d)

    def _level_cutoff(self, family: ValueFamily, s: Index, prec: int) -> int:
        """The last level d at which some entry's level-d factor can reach
        precision ``prec``: every factor past it has order > prec.

        Orders are at infinity, v(T^-k) = k.  The factor of the entry s at
        level d has order at least max(f(s) deg L_d, s d), with f(s) = s on
        the li side and f(s) = 1 + sigma_q(s - 1) on the zeta side, sigma_q
        the base-q digit sum.  On the li side the factor is 1/L_d^s, of
        order exactly s deg L_d >= s d.  On the zeta side S_d(s) is a sum of
        1/a^s of order s d each; the other bound comes from Carlitz's
        F_q-linear e_d(x) = prod over deg b < d of (x - b) (Goss, *Basic
        Structures of Function Field Arithmetic*, ch. 3; Thakur, *Function
        Field Arithmetic*, ch. 5):

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
        is s deg L_d, the order of the closed form 1/L_d^s.

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
        """Value of one index; a star value is (-1)^depth times the dagger value
        of the reversed index."""
        family = ValueFamily.parse(family)
        if family.is_star:
            sign = -1 if s.depth % 2 else 1
            inner = self.value_of_index(family.dagger, s.reversed(), prec)
            return inner.scale(sign)
        key = (family, s, prec)
        hit = self._values.get(key)
        if hit is not None:
            return hit
        out = self._dp_value(family, s, prec)
        self._values[key] = out
        return out

    def _dp_value(self, family: ValueFamily, s: Index, prec: int) -> LaurentSeries:
        spec = self.field
        if s.is_empty:
            return LaurentSeries.one(spec, prec)
        r = s.depth
        dmax = self._level_cutoff(family, s, prec)
        side = family.side
        # entries[i] multiplies H_{i+1}; plain families consume the index from
        # the right (innermost level is the last entry), daggers from the left
        entries = tuple(reversed(s)) if not family.is_dagger else tuple(s)
        # ascending i lets H_i take H_{i-1} of the same level (weak, daggers);
        # descending i takes it from earlier levels only (strict, plain)
        order = range(1, r + 1) if family.is_dagger else range(r, 0, -1)
        H = [LaurentSeries.one(spec, prec)] + [LaurentSeries.zero(spec, prec)] * r
        for d in range(0, dmax + 1):
            for i in order:
                u = self._level_series(side, entries[i - 1], d, prec)
                if u.is_zero_to_prec:
                    continue
                H[i] = (H[i] + u * H[i - 1]).with_prec(prec)
        out = H[r].with_prec(prec)
        if family.is_dagger and r % 2:
            out = out.scale(-1)
        return out

    def eval_value(self, family, P, prec: int) -> LaurentSeries:
        """F_q(T)-linear extension of the chosen family over an IndexPoly."""
        family = ValueFamily.parse(family)
        if isinstance(P, Index):
            return self.value_of_index(family, P, prec)
        if not isinstance(P, IndexPoly):
            return self.value_of_index(family, Index(P), prec)
        out = LaurentSeries.zero(self.field, prec)
        for s, c in P.terms.items():
            if not (c.num.degree == 0 and c.den.degree == 0):
                # a coefficient of degree k > 0 costs k coefficients of the value
                ext = prec + max(c.num.degree - c.den.degree, 0)
                v = self.value_of_index(family, s, ext) * rat_to_laurent(c, ext)
            else:
                v = self.value_of_index(family, s, prec).scale(
                    c.num.leading() * c.den.leading().inverse())
            out = out + v
        return out
