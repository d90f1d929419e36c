"""Numeric evaluation in GF(q)((1/T)) and the exact power-sum identities.

The four value families share one cumulative dynamic program over the
degree level d: strictly descending levels for the plain families,
weakly ascending levels with the sign (-1)^depth for the dagger
families.  Power sums S_d(s) are brute-forced over the q^d monic
polynomials of degree d (budgeted); for s <= q the closed form 1/L_d^s
is used, which the test suite cross-checks against the brute force.
One vectorised enumerator (``GFVec._monic_codes``) serves both the
series and the exact power sums: the exact numerators divide L_d by all
monic a at once and sum the quotients' powers, with a Frobenius for the
p-power part of s.  Level cutoffs read deg L_d from its closed form
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


def _power_cells(n: int, s: int) -> int:
    """Multiply-adds of raising a length-n polynomial to the power s by
    squaring, as ``GFVec._pow`` does: one full product per step."""
    cells, acc, a = 0, None, n
    while s:
        if s & 1:
            if acc is not None:
                cells += acc * a
            acc = a if acc is None else acc + a - 1
        s >>= 1
        if s:
            cells += a * a
            a = 2 * a - 1
    return cells


class EvalBudget:
    """The caps on brute-force enumerations of monic polynomials.

    ``max_bruteforce`` caps q^d, the number of monic polynomials of degree
    d.  An exact power sum also divides L_d by each of them, q^d divisions
    of a polynomial of degree deg L_d = q(q^d - 1)/(q - 1), so its cost
    grows with the q^d * deg L_d cells of that division rather than with
    q^d alone.  ``MAX_DIVISION_CELLS`` caps those cells at 2^24.  Measured
    on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4) at 0.9-2.0e-7 s per cell
    for the s = 1 numerators at q = 3, 4, 5, 8, 9, 2^24 cells is about
    2-3 s, so no admitted numerator runs for minutes: L_5 at q = 9 needs
    3.9e9 cells, L_4 at q = 9 4.8e7.

    For s = s0 * p^k with s0 > 1 each of the q^d quotients is also raised
    to the power s0, by squaring with one convolution per step, and over
    GF(p^e) each convolution is e^2 convolutions of digit planes.
    ``MAX_POWER_CELLS`` caps the multiply-adds of those powers at 2^31.
    Measured on the same VM at about 1e-9 s per multiply-add (q = 7, 8, 9),
    that is about 2 s: it admits (3, 6) at q = 7 (7e8) and turns away
    (3, 7) at q = 8 (3e10) and (3, 8) at q = 9 (4e10), which ran 27-37 s.
    """

    MAX_DIVISION_CELLS = 1 << 24
    MAX_POWER_CELLS = 1 << 31

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
        """check_enumeration, and the caps on the cells of dividing L_d by
        every monic polynomial of degree d and of raising each quotient to
        the power s0, the part of s prime to the characteristic."""
        self.check_enumeration(q, d)
        deg = carlitz_l_degree(q, d)
        cells = q ** d * deg
        if cells > self.MAX_DIVISION_CELLS:
            raise PrecisionTooExpensive(
                f"dividing L_{d} (degree {deg}) by the q^d = {q}^{d} monic polynomials "
                f"takes {cells} cells, above the cap {self.MAX_DIVISION_CELLS}; "
                f"lower d")
        p = next(k for k in range(2, q + 1) if q % k == 0)
        e = 1
        while p ** e < q:
            e += 1
        while s % p == 0:
            s //= p
        cells = q ** d * _power_cells(deg - d + 1, s) * e * e
        if cells > self.MAX_POWER_CELLS:
            raise PrecisionTooExpensive(
                f"raising the q^d = {q}^{d} quotients of L_{d} to the power {s} takes "
                f"{cells} cells, above the cap {self.MAX_POWER_CELLS}; lower d or s")


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
            coeffs = self.field.vec.brute_power_sum(d, s, m)
            out = LaurentSeries._make(self.field, -s * d, coeffs, prec)
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
            codes = self.field.vec.monic_quotient_power_sum(self.L(d).c, d, s0)
            if codes is None:
                raise InvalidInput("internal: L_d must be divisible by every monic a")
            num = Poly._make(self.field, tuple(codes))
            self._numerators[(d, s0)] = num
        return num.frobenius(k)

    def fundamental_identity_check(self, d: int) -> Report:
        """S_d(q) - L_1 S_{d+1}(1) * sum_{i<=d} S_i(q-1) = 0, exactly.

        Verified as an identity of rational functions with every power
        sum brute-forced; the three pieces are combined over the common
        denominator L_{d+1}^q so the test is a polynomial zero test.  The
        budget is checked on level d + 1, the largest division, and on the
        (q - 1)-th powers of level d before any power sum is computed.
        """
        q = self.q
        self.budget.check_division(q, d + 1)
        self.budget.check_division(q, d, q - 1)
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
