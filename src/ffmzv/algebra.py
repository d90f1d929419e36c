"""Exact arithmetic underlying everything else.

Four layers, all immutable values with pure-function operations:

* ``FieldSpec`` / ``FieldElem`` -- the finite field GF(q), q = p^e, with
  precomputed arithmetic tables.  Elements are encoded as integers
  0..q-1 (base-p digits of the residue modulo the field modulus).
* ``Poly`` -- univariate polynomials over GF(q) in the variable printed
  as ``T``, stored lowest degree first with no trailing zeros.
* ``RatFunc`` -- reduced fractions of polynomials; denominators are
  monic and coprime to the numerator, so structural equality is
  semantic equality.
* ``LaurentSeries`` -- truncated elements of GF(q)((1/T)) carrying an
  explicit absolute precision: all coefficients of T^j with j >= -prec
  are stored and correct.  Equality compares down to the smaller
  precision, and ``is_zero_to_prec`` is the only zero test.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._gfnum import GFVec
from .errors import DivisionByZero, InsufficientPrecision, InvalidInput

# Irreducible monic moduli (coefficients low to high) for the small
# non-prime orders used at desk scale; anything else needs an explicit
# modulus.
BUILTIN_MODULI = {
    4: (1, 1, 1),      # u^2 + u + 1 over F_2
    8: (1, 1, 0, 1),   # u^3 + u + 1 over F_2
    9: (1, 0, 1),      # u^2 + 1 over F_3
}

_TABLE_LIMIT = 4096


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class FieldSpec:
    """GF(q) for q = p^e with full arithmetic tables.

    ``modulus`` is a sequence of e+1 integers in F_p, low degree first,
    monic and irreducible.  For e = 1 the modulus is the identity
    convention (u - 0) and is never consulted.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not _is_prime(p):
            raise InvalidInput(f"{p} is not prime")
        if e < 1:
            raise InvalidInput("extension degree must be >= 1")
        q = p ** e
        if q > _TABLE_LIMIT:
            raise InvalidInput(f"field order {q} above supported limit {_TABLE_LIMIT}")
        if e == 1:
            modulus = (0, 1)
        else:
            if modulus is None:
                if q in BUILTIN_MODULI:
                    modulus = BUILTIN_MODULI[q]
                else:
                    raise InvalidInput(
                        f"no built-in modulus for q={q}; pass one explicitly")
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1:
                raise InvalidInput("modulus must have degree e")
            # trial division by every monic polynomial of degree <= e/2
            fp = field(p)
            m = fp.poly(modulus)
            factors = (fp.poly([t // p ** k % p for k in range(d)] + [1])
                       for d in range(1, e // 2 + 1) for t in range(p ** d))
            if modulus[-1] != 1 or any((m % f).is_zero for f in factors):
                raise InvalidInput("modulus is not monic irreducible over F_p")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = tuple(modulus)
        self._build_tables()
        self._vec = None

    def _key(self):
        return (self.p, self.e, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"GF({self.q})"

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        digits = [self._digits(a) for a in range(q)]
        add = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                add[a][b] = self._encode([(x + y) % p for x, y in zip(digits[a], digits[b])])
        if e == 1:
            upow = [1]
            mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            # F_q = F_p[u]/(modulus): products and u-powers reduce as polynomials over F_p
            fp = field(p)
            m = fp.poly(self.modulus)
            upow = [self._encode((fp.T ** t % m).c) for t in range(2 * e - 1)]
            ups = [fp.poly(d) for d in digits]
            mul = [[self._encode((x * y % m).c) for y in ups] for x in ups]
        neg = [self._encode([(-x) % p for x in digits[a]]) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            b = a
            acc = 1
            n = q - 2
            while n:
                if n & 1:
                    acc = mul[acc][b]
                b = mul[b][b]
                n >>= 1
            inv[a] = acc
        frob = [0] * q
        for a in range(q):
            acc, base, n = 1, a, p
            while n:
                if n & 1:
                    acc = mul[acc][base]
                base = mul[base][base]
                n >>= 1
            frob[a] = acc
        self._add = add
        self._mul = mul
        self._neg = neg
        self._inv = inv
        self._frob = frob
        self._upow = upow

    def _digits(self, a: int):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + (d % self.p)
        return v

    # fast paths on codes
    def add_idx(self, a, b):
        return self._add[a][b]

    def mul_idx(self, a, b):
        return self._mul[a][b]

    def neg_idx(self, a):
        return self._neg[a]

    def inv_idx(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero in " + repr(self))
        return self._inv[a]

    def frob_idx(self, a):
        return self._frob[a]

    def upower_idx(self, t):
        return self._upow[t]

    @property
    def vec(self) -> GFVec:
        if self._vec is None:
            self._vec = GFVec(self)
        return self._vec

    # element constructors
    def elem(self, v) -> "FieldElem":
        """Element from an integer (prime-subfield embedding) or digit sequence."""
        if isinstance(v, FieldElem):
            if v.spec != self:
                raise InvalidInput("element from a different field")
            return v
        if isinstance(v, int):
            return FieldElem(self, v % self.p)
        return FieldElem(self, self._encode(list(v)))

    def from_index(self, i: int) -> "FieldElem":
        return FieldElem(self, i)

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    @property
    def gen(self) -> "FieldElem":
        """The residue of u (only meaningful for e > 1)."""
        return FieldElem(self, self.p if self.e > 1 else 1)

    def elements(self):
        return [FieldElem(self, i) for i in range(self.q)]

    # polynomial constructors
    def poly(self, coeffs) -> "Poly":
        """Polynomial from ints (prime-subfield embed) or FieldElems, low first."""
        idx = []
        for c in coeffs:
            if isinstance(c, FieldElem):
                if c.spec != self:
                    raise InvalidInput("coefficient from a different field")
                idx.append(c.i)
            else:
                idx.append(int(c) % self.p)
        return Poly._make(self, tuple(idx))

    @property
    def T(self) -> "Poly":
        return Poly._make(self, (0, 1))

    def rat(self, num, den=None) -> "RatFunc":
        num = num if isinstance(num, Poly) else self.poly([num] if isinstance(num, int) else num)
        if den is None:
            den = self.poly([1])
        elif not isinstance(den, Poly):
            den = self.poly([den] if isinstance(den, int) else den)
        return RatFunc(num, den)


@lru_cache(maxsize=None)
def _cached_field(p, e, modulus):
    return FieldSpec(p, e, modulus)


def field(q: int, modulus=None) -> FieldSpec:
    """Shared FieldSpec of order q (prime power); moduli built in for 4, 8, 9."""
    n, p = q, None
    for cand in range(2, q + 1):
        if q % cand == 0:
            p = cand
            break
    if p is None:
        raise InvalidInput("field order must be >= 2")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise InvalidInput(f"{q} is not a prime power")
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    return _cached_field(p, e, modulus)


def _fmt_elem(spec: FieldSpec, i: int) -> str:
    if spec.e == 1:
        return str(i)
    digits = spec._digits(i)
    terms = []
    for t in range(spec.e - 1, -1, -1):
        c = digits[t]
        if not c:
            continue
        if t == 0:
            terms.append(str(c))
        else:
            u = "u" if t == 1 else f"u^{t}"
            terms.append(u if c == 1 else f"{c}*{u}")
    return "+".join(terms) if terms else "0"


class FieldElem:
    """An element of GF(q), identified by its code 0..q-1."""

    __slots__ = ("spec", "i")

    def __init__(self, spec: FieldSpec, i: int):
        self.spec = spec
        self.i = i

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.spec != self.spec:
                raise InvalidInput("mixed fields")
            return other
        if isinstance(other, int):
            return self.spec.elem(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(self.spec, self.spec.add_idx(self.i, o.i))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.spec, self.spec.neg_idx(self.i))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(self.spec, self.spec.mul_idx(self.i, o.i))

    __rmul__ = __mul__

    def inverse(self):
        return FieldElem(self.spec, self.spec.inv_idx(self.i))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc, base = self.spec.one, self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    @property
    def is_zero(self):
        return self.i == 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.spec.elem(other)
        return isinstance(other, FieldElem) and other.spec == self.spec and other.i == self.i

    def __hash__(self):
        return hash((self.spec._key(), self.i))

    def __str__(self):
        return _fmt_elem(self.spec, self.i)

    def __repr__(self):
        return f"FieldElem({self.spec!r}, {self!s})"


def poly_lucas_binom(a: int, b: int, p: int) -> int:
    """binomial(a, b) mod p by the base-p digit product (Lucas)."""
    if b < 0 or b > a:
        return 0
    out = 1
    while a or b:
        da, db = a % p, b % p
        if db > da:
            return 0
        out = (out * math.comb(da, db)) % p
        a //= p
        b //= p
    return out


_SCHOOLBOOK_CUTOFF = 96


def _mul_codes(spec: FieldSpec, a, b, n=None) -> list:
    """First n coefficients (all if n is None) of the product of two code sequences."""
    full = len(a) + len(b) - 1 if a and b else 0
    n = full if n is None else min(n, full)
    if n <= 0:
        return []
    if len(a) * len(b) > _SCHOOLBOOK_CUTOFF * _SCHOOLBOOK_CUTOFF:
        import numpy as np
        out = spec.vec.conv(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        return [int(v) for v in out[:n]]
    mul, add = spec._mul, spec._add
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            row = mul[ai]
            for k, bj in enumerate(b[:n - i], i):
                if bj:
                    out[k] = add[out[k]][row[bj]]
    return out


class Poly:
    """Polynomial over GF(q) in T, coefficients low degree first, canonical."""

    __slots__ = ("spec", "c")

    def __init__(self, spec: FieldSpec, coeffs):
        idx = tuple(c.i if isinstance(c, FieldElem) else int(c) % spec.p for c in coeffs)
        while idx and idx[-1] == 0:
            idx = idx[:-1]
        self.spec = spec
        self.c = idx

    @classmethod
    def _make(cls, spec, idx: tuple) -> "Poly":
        while idx and idx[-1] == 0:
            idx = idx[:-1]
        self = object.__new__(cls)
        self.spec = spec
        self.c = idx
        return self

    @property
    def is_zero(self) -> bool:
        return not self.c

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.c) - 1

    @property
    def coeffs(self):
        return tuple(FieldElem(self.spec, i) for i in self.c)

    def coeff(self, k: int) -> FieldElem:
        return FieldElem(self.spec, self.c[k] if 0 <= k < len(self.c) else 0)

    def leading(self) -> FieldElem:
        if self.is_zero:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return FieldElem(self.spec, self.c[-1])

    def _check(self, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise InvalidInput("mixed fields")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.spec.poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        add = self.spec._add
        out = list(a)
        for k, v in enumerate(b):
            if v:
                out[k] = add[out[k]][v]
        return Poly._make(self.spec, tuple(out))

    __radd__ = __add__

    def __neg__(self):
        neg = self.spec._neg
        return Poly._make(self.spec, tuple([neg[v] for v in self.c]))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.spec.poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.spec.poly([other])
        if isinstance(other, FieldElem):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return Poly._make(self.spec, tuple(_mul_codes(self.spec, self.c, other.c)))

    __rmul__ = __mul__

    def scale(self, c: FieldElem) -> "Poly":
        row = self.spec._mul[c.i]
        return Poly._make(self.spec, tuple([row[v] for v in self.c]))

    def shift(self, k: int) -> "Poly":
        """Multiply by T^k (k >= 0)."""
        if self.is_zero:
            return self
        return Poly._make(self.spec, (0,) * k + self.c)

    def divmod(self, other: "Poly"):
        self._check(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        if self.degree < other.degree:
            return Poly._make(self.spec, ()), self
        spec = self.spec
        inv_lead = spec.inv_idx(other.c[-1])
        rem = list(self.c)
        dd = other.degree
        qlen = len(rem) - dd
        quo = [0] * qlen
        mul, add = spec._mul, spec._add
        for i in range(qlen - 1, -1, -1):
            c = mul[rem[i + dd]][inv_lead]
            if c:
                quo[i] = c
                row = mul[spec._neg[c]]
                for j, oj in enumerate(other.c, i):
                    if oj:
                        rem[j] = add[rem[j]][row[oj]]
        return Poly._make(spec, tuple(quo)), Poly._make(spec, tuple(rem[:dd]))

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __pow__(self, n: int) -> "Poly":
        """self ** n; the factor p^k of n is applied as a k-fold Frobenius first."""
        if n < 0:
            raise InvalidInput("negative polynomial power")
        times = 0
        while n and n % self.spec.p == 0:
            n //= self.spec.p
            times += 1
        base = self.frobenius(times) if times else self
        acc = Poly._make(self.spec, (1,))
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    power = __pow__

    def frobenius(self, times: int = 1) -> "Poly":
        """self ** (p ** times), via coefficient Frobenius and stride spreading."""
        spec = self.spec
        stride = spec.p ** times
        if self.is_zero:
            return self
        out = [0] * ((len(self.c) - 1) * stride + 1)
        for k, v in enumerate(self.c):
            w = v
            for _ in range(times):
                w = spec.frob_idx(w)
            out[k * stride] = w
        return Poly._make(spec, tuple(out))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.leading().inverse())

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.spec.poly([other])
        return isinstance(other, Poly) and other.spec == self.spec and other.c == self.c

    def __hash__(self):
        return hash((self.spec._key(), self.c))

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for k in range(len(self.c) - 1, -1, -1):
            v = self.c[k]
            if not v:
                continue
            cs = _fmt_elem(self.spec, v)
            if "+" in cs:
                cs = f"({cs})"
            if k == 0:
                terms.append(cs)
            else:
                t = "T" if k == 1 else f"T^{k}"
                terms.append(t if cs == "1" else f"{cs}*{t}")
        return "+".join(terms)

    def __repr__(self):
        return f"Poly({self!s})"


class RatFunc:
    """Reduced fraction of polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if num.spec != den.spec:
            raise InvalidInput("mixed fields")
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        if num.is_zero:
            den = num.spec.poly([1])
        else:
            if num.degree > 0 and den.degree > 0:  # a constant shares no factor
                g = num.gcd(den)
                if g.degree > 0:
                    num = num // g
                    den = den // g
            lead = den.leading()
            if lead != num.spec.one:
                inv = lead.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def _make(cls, num: Poly, den: Poly = None) -> "RatFunc":
        """num/den from a pair that is already reduced with den monic (default 1), no gcd."""
        self = object.__new__(cls)
        self.num = num
        self.den = Poly._make(num.spec, (1,)) if den is None else den
        return self

    @property
    def spec(self):
        return self.num.spec

    @property
    def is_poly(self) -> bool:
        return self.den.c == (1,)

    @property
    def is_zero(self):
        return self.num.is_zero

    @classmethod
    def of(cls, value, spec=None) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, Poly):
            return cls._make(value)
        if isinstance(value, FieldElem):
            return cls._make(value.spec.poly([value]))
        if isinstance(value, int):
            if spec is None:
                raise InvalidInput("field needed to coerce an int")
            return cls._make(spec.poly([value]))
        raise InvalidInput(f"cannot coerce {value!r} to a rational function")

    def _coerce(self, other):
        if isinstance(other, (int, Poly, FieldElem)):
            return RatFunc.of(other, self.spec)
        if isinstance(other, RatFunc):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_poly and o.is_poly:
            return RatFunc._make(self.num + o.num)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_poly and o.is_poly:
            return RatFunc._make(self.num * o.num)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise DivisionByZero("inverse of the zero rational function")
        inv = self.num.leading().inverse()
        return RatFunc._make(self.den.scale(inv), self.num.scale(inv))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc._make(self.num.power(n), self.den.power(n))

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, RatFunc) else other
        if not isinstance(o, RatFunc):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == self.spec.poly([1]):
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if "+" in ns:
            ns = f"({ns})"
        if "+" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFunc({self!s})"


def _recip_codes(spec: FieldSpec, codes, m: int):
    """First m coefficients of 1 / (c0 + c1 t + ...); c0 must be invertible."""
    inv0 = spec.inv_idx(codes[0])
    mul, add, neg = spec.mul_idx, spec.add_idx, spec.neg_idx
    out = [inv0]
    for k in range(1, m):
        acc = 0
        for j in range(1, min(k, len(codes) - 1) + 1):
            acc = add(acc, mul(codes[j], out[k - j]))
        out.append(mul(inv0, neg(acc)))
    return out


class LaurentSeries:
    """Truncated Laurent series in 1/T with absolute precision ``prec``.

    ``coeffs[i]`` is the coefficient of T^(lead - i); entries below
    T^(-prec) are never stored.  The zero-to-precision series stores no
    coefficients at all.
    """

    __slots__ = ("spec", "lead", "c", "prec")

    def __init__(self, spec: FieldSpec, lead: int, coeffs, prec: int):
        """Coefficients are FieldElems or ints (embedded in the prime subfield)."""
        self._set(spec, lead, [v.i if isinstance(v, FieldElem) else int(v) % spec.p
                               for v in coeffs], prec)

    @classmethod
    def _make(cls, spec: FieldSpec, lead: int, codes, prec: int) -> "LaurentSeries":
        """Series from field codes (0..q-1), the form every internal result takes."""
        self = object.__new__(cls)
        self._set(spec, lead, codes, prec)
        return self

    def _set(self, spec, lead, codes, prec):
        # drop anything below the precision, strip leading zeros, and pad so
        # that exactly one entry is stored per exponent down to -prec
        keep = lead + prec + 1
        codes = codes[:max(keep, 0)]
        start = 0
        while start < len(codes) and codes[start] == 0:
            start += 1
        self.spec = spec
        self.prec = prec
        if start == len(codes):
            self.lead, self.c = None, ()
        else:
            self.lead = lead - start
            self.c = tuple(codes[start:]) + (0,) * (keep - len(codes))

    @classmethod
    def zero(cls, spec: FieldSpec, prec: int) -> "LaurentSeries":
        return cls._make(spec, 0, (), prec)

    @classmethod
    def one(cls, spec: FieldSpec, prec: int) -> "LaurentSeries":
        return cls._make(spec, 0, (1,), prec)

    @property
    def is_zero_to_prec(self) -> bool:
        return not self.c

    def order(self) -> int:
        """Valuation in 1/T; prec+1 for a zero-to-precision series."""
        return self.prec + 1 if self.is_zero_to_prec else -self.lead

    def coeff(self, j: int) -> FieldElem:
        """Coefficient of T^j; raises below the stored precision."""
        if j < -self.prec:
            raise InsufficientPrecision(f"coefficient of T^{j} below precision {self.prec}")
        if self.is_zero_to_prec or j > self.lead:
            return self.spec.zero
        k = self.lead - j
        return FieldElem(self.spec, self.c[k] if k < len(self.c) else 0)

    def with_prec(self, prec: int) -> "LaurentSeries":
        """Truncate to precision prec; a series never gains precision."""
        if prec >= self.prec:
            return self
        return LaurentSeries._make(self.spec, self.lead or 0, self.c, prec)

    def _check(self, other):
        if self.spec != other.spec:
            raise InvalidInput("mixed fields")

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec, other.prec)
        if self.is_zero_to_prec:
            return other.with_prec(prec)
        if other.is_zero_to_prec:
            return self.with_prec(prec)
        a, b = (self, other) if self.lead >= other.lead else (other, self)
        n = a.lead + prec + 1
        off = a.lead - b.lead
        out = list(a.c[:max(n, 0)])
        add = self.spec._add
        for k, v in enumerate(b.c[:max(n - off, 0)], off):
            if v:
                out[k] = add[out[k]][v]
        return LaurentSeries._make(self.spec, a.lead, out, prec)

    def __neg__(self):
        if self.is_zero_to_prec:
            return self
        neg = self.spec.neg_idx
        return LaurentSeries._make(self.spec, self.lead, [neg(v) for v in self.c], self.prec)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec + other.order(), other.prec + self.order())
        if self.is_zero_to_prec or other.is_zero_to_prec:
            return LaurentSeries.zero(self.spec, prec)
        lead = self.lead + other.lead
        out = _mul_codes(self.spec, self.c, other.c, lead + prec + 1)
        return LaurentSeries._make(self.spec, lead, out, prec)

    def scale(self, c) -> "LaurentSeries":
        if isinstance(c, int):
            c = self.spec.elem(c)
        if c.is_zero or self.is_zero_to_prec:
            return LaurentSeries.zero(self.spec, self.prec)
        mul = self.spec.mul_idx
        return LaurentSeries._make(self.spec, self.lead, [mul(c.i, v) for v in self.c],
                                   self.prec)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by the exact monomial T^k."""
        if self.is_zero_to_prec:
            return LaurentSeries.zero(self.spec, self.prec - k)
        return LaurentSeries._make(self.spec, self.lead + k, self.c, self.prec - k)

    def inverse(self) -> "LaurentSeries":
        if self.is_zero_to_prec:
            raise InsufficientPrecision(
                "cannot invert a series indistinguishable from 0 at precision "
                f"{self.prec}")
        prec = self.prec + 2 * self.lead
        m = prec + (-self.lead) + 1  # number of coefficients of the result
        if m <= 0:
            return LaurentSeries.zero(self.spec, prec)
        inv = _recip_codes(self.spec, self.c, m)
        return LaurentSeries._make(self.spec, -self.lead, inv, prec)

    def __truediv__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        """Equality of all coefficients down to the smaller precision."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check(other)
        prec = min(self.prec, other.prec)
        a = self.with_prec(prec)
        b = other.with_prec(prec)
        if a.is_zero_to_prec or b.is_zero_to_prec:
            return a.is_zero_to_prec and b.is_zero_to_prec
        return a.lead == b.lead and a.c[:a.lead + prec + 1] == b.c[:b.lead + prec + 1]

    def __str__(self):
        tail = f"O(T^-{self.prec})" if self.prec >= 0 else f"O(T^{-self.prec})"
        if self.is_zero_to_prec:
            return tail
        terms = []
        for k, v in enumerate(self.c):
            if not v:
                continue
            e = self.lead - k
            cs = _fmt_elem(self.spec, v)
            if "+" in cs:
                cs = f"({cs})"
            if e == 0:
                terms.append(cs)
            else:
                t = "T" if e == 1 else f"T^{e}"
                terms.append(t if cs == "1" else f"{cs}*{t}")
        return " + ".join(terms + [tail])

    def __repr__(self):
        return f"LaurentSeries({self!s})"


def rat_to_laurent(f: RatFunc, prec: int) -> LaurentSeries:
    """Expand an exact rational function at the infinite place.

    All coefficients of T^j with j >= -prec are correct; the leading
    exponent is deg(num) - deg(den).
    """
    if prec < 0:
        raise InvalidInput("precision must be >= 0")
    spec = f.spec
    if f.is_zero:
        return LaurentSeries.zero(spec, prec)
    lead = f.num.degree - f.den.degree
    m = lead + prec + 1
    if m <= 0:
        return LaurentSeries.zero(spec, prec)
    inv = _recip_codes(spec, f.den.c[::-1], m)
    return LaurentSeries._make(spec, lead, _mul_codes(spec, f.num.c[::-1], inv, m), prec)


@lru_cache(maxsize=None)
def carlitz_bracket(spec: FieldSpec, i: int) -> Poly:
    """T - T^(q^i) for i >= 1."""
    if i < 1:
        raise InvalidInput("bracket index must be >= 1")
    out = [0] * (spec.q ** i + 1)
    out[1] = 1
    out[-1] = spec.neg_idx(1)
    return Poly._make(spec, tuple(out))


@lru_cache(maxsize=None)
def carlitz_l(spec: FieldSpec, d: int) -> Poly:
    """L_d = product of (T - T^(q^i)) for 1 <= i <= d; L_0 = 1."""
    if d == 0:
        return spec.poly([1])
    return carlitz_l(spec, d - 1) * carlitz_bracket(spec, d)
