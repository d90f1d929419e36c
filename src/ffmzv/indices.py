"""Indices and the free algebra they span over F_q(T).

An index is a finite sequence of positive integers; the empty index is
the unit.  ``IndexPoly`` is a finite F_q(T)-linear combination of
indices.  The two products live here: the plain harmonic
(quasi-shuffle) product, and the q-shuffle product which adds the
carry terms D driven by the coefficients Delta.

Every coefficient of an index product, a carry term D and a Delta lies
in F_p, so the product recursion memoises dicts from Index to an int code
in 1..p-1; the public products read them through one RatFunc per code.
Sums add in place, codes with ``_add_codes`` (one ``%`` per entry) and
RatFuncs with ``_accumulate``: new indices are appended, updated ones keep
their place, and an entry that cancels is deleted, which gives the terms
and dict order of the repeated sum ``out = out + P.scale(c)``.
"""

from __future__ import annotations

import enum

from .algebra import FieldSpec, RatFunc, poly_lucas_binom
from .errors import EmptyIndex, InvalidInput


class Index(tuple):
    """Composition of positive integers; () is the empty index."""

    def __new__(cls, entries=()):
        entries = tuple(map(int, entries))
        for x in entries:
            if x < 1:
                raise InvalidInput(f"index entries must be >= 1, got {x}")
        return super().__new__(cls, entries)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def depth(self) -> int:
        return len(self)

    @property
    def is_empty(self) -> bool:
        return not self

    def prefix(self, i: int) -> "Index":
        """First i entries; i = 0 gives the empty index."""
        if not 0 <= i <= self.depth:
            raise InvalidInput(f"prefix length {i} out of range")
        return _index(self[:i])

    def suffix(self, i: int) -> "Index":
        """Entries from position i on (1-based); i = depth+1 gives the empty index."""
        if not 1 <= i <= self.depth + 1:
            raise InvalidInput(f"suffix position {i} out of range")
        return _index(self[i - 1:])

    def drop(self, i: int) -> "Index":
        """Entries strictly after the first i."""
        return self.suffix(i + 1)

    @property
    def plus(self) -> "Index":
        """Drop the last entry."""
        if self.is_empty:
            raise EmptyIndex("the empty index has no last entry")
        return self.prefix(self.depth - 1)

    @property
    def minus(self) -> "Index":
        """Drop the first entry."""
        if self.is_empty:
            raise EmptyIndex("the empty index has no first entry")
        return self.suffix(2)

    def cat(self, *others) -> "Index":
        """Concatenation; only the pieces that are not already an Index are checked."""
        out = tuple(self)
        for o in others:
            out += o if isinstance(o, Index) else Index(o)
        return _index(out)

    def reversed(self) -> "Index":
        return _index(self[::-1])

    def is_thakur(self, q: int) -> bool:
        """All entries <= q and the last entry <= q-1 (true for the empty index)."""
        if self.is_empty:
            return True
        return all(s <= q for s in tuple.__getitem__(self, slice(0, -1))) and self[-1] <= q - 1

    def in_iprime(self, q: int) -> bool:
        """Empty, or first entry exceeding q."""
        return self.is_empty or self[0] > q

    @property
    def admissible(self) -> bool:
        """Empty, or first entry > 1 (convergence of classical zeta sums)."""
        return self.is_empty or self[0] > 1

    @property
    def rev_admissible(self) -> bool:
        """Empty, or last entry > 1 (convergence of the dagger sums)."""
        return self.is_empty or self[-1] > 1

    def __str__(self):
        return "(" + ",".join(str(x) for x in self) + ")"

    def __repr__(self):
        return f"Index{str(self)}"


def _index(entries: tuple) -> Index:
    """An Index from entries already known to be valid (slices and
    concatenations of indices), without the per-entry check."""
    return tuple.__new__(Index, entries)


EMPTY = Index()


def _is_one(c: RatFunc) -> bool:
    return c.num.c == (1,) and c.den.c == (1,)


def _accumulate(out: dict, terms: dict, c: RatFunc | None = None, coeffs=None) -> None:
    """out[s] += c * v for every term v*s of terms, in place (c None or one:
    no product; c is never zero); an entry that cancels to zero is deleted.
    With coeffs, the values of terms are codes and v is coeffs[code].

    This is ``out = out + IndexPoly(terms).scale(c)`` without the copy of
    out: new indices are appended, updated ones keep their place, so the
    dict order is the one the repeated sum gives.  out must be a dict the
    caller owns (never a memoised term dict); terms is only read.
    """
    if c is not None and _is_one(c):
        c = None
    get = out.get
    for s, v in terms.items():
        if coeffs is not None:
            v = coeffs[v]
        if c is not None:
            v = v * c
        old = get(s)
        if old is None:
            out[s] = v
        else:
            v = old + v
            if v.num.c:
                out[s] = v
            else:
                del out[s]


def _add_codes(out: dict, terms: dict, p: int, c: int = 1, prefix=None) -> None:
    """out[prefix + s] += c * v mod p for the terms v*s, codes in 1..p-1."""
    get = out.get
    for s, v in terms.items():
        if prefix is not None:
            s = _index(prefix + s)
        v = (get(s, 0) + c * v) % p
        if v:
            out[s] = v
        else:
            del out[s]


def _prepend(prefix, terms: dict) -> dict:
    """The terms with a fixed index in front of every index."""
    return {_index(prefix + s): v for s, v in terms.items()}


def parse_index(text: str) -> Index:
    """Parse "(3,1,2)" or "()" into an Index."""
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise InvalidInput(f"index must be parenthesized: {text!r}")
    body = t[1:-1].strip()
    if not body:
        return EMPTY
    parts = [p.strip() for p in body.split(",")]
    entries = []
    for p in parts:
        if not p.isdigit():
            raise InvalidInput(f"bad index entry {p!r} in {text!r}")
        entries.append(int(p))
    return Index(entries)


def repeat(s: int, m: int) -> Index:
    """The index (s, s, ..., s) with m copies."""
    return Index((s,) * m)


def classify(s: Index, q: int) -> dict:
    """Membership flags for the four index families used downstream."""
    return {
        "in_IT": s.is_thakur(q),
        "in_Iprime": s.in_iprime(q),
        "admissible0": s.admissible,
        "rev_admissible0": s.rev_admissible,
    }


def compositions(w: int, max_depth=None, max_part=None):
    """All indices of weight w (lexicographic), optionally bounded."""
    if w == 0:
        yield EMPTY
        return
    cap = w if max_part is None else min(w, max_part)
    depth_left = w if max_depth is None else max_depth
    if depth_left <= 0:
        return

    def rec(rem, parts, depth_left):
        if rem == 0:
            yield Index(parts)
            return
        if depth_left == 0:
            return
        for first in range(1, min(rem, cap) + 1):
            yield from rec(rem - first, parts + [first], depth_left - 1)

    yield from rec(w, [], depth_left)


def thakur_indices(q: int, w: int):
    """All weight-w indices with entries <= q and last entry <= q-1, lex order."""
    out = []
    for s in compositions(w, max_part=q):
        if s.is_thakur(q):
            out.append(s)
    return out


class ProductKind(enum.Enum):
    HARMONIC = "harmonic"
    QSHUFFLE = "qshuffle"
    __hash__ = object.__hash__  # memo keys hash by identity, in C

    @classmethod
    def parse(cls, text):
        if isinstance(text, cls):
            return text
        try:
            return cls(text)
        except ValueError:
            raise InvalidInput(f"unknown product kind {text!r}") from None


class IndexPoly:
    """Finite F_q(T)-linear combination of indices (an element of the free algebra)."""

    __slots__ = ("field", "terms")

    def __init__(self, field: FieldSpec, terms=None):
        self.field = field
        clean = {}
        for s, c in (terms or {}).items():
            c = RatFunc.of(c, field)
            if not c.is_zero:
                clean[Index(s)] = c
        self.terms = clean

    @classmethod
    def _of(cls, field: FieldSpec, terms: dict) -> "IndexPoly":
        """Wrap a dict of Index -> nonzero RatFunc, owned by the result, unchecked."""
        res = cls.__new__(cls)
        res.field = field
        res.terms = terms
        return res

    @classmethod
    def zero(cls, field: FieldSpec) -> "IndexPoly":
        return cls(field)

    @classmethod
    def mono(cls, field: FieldSpec, s, coeff=1) -> "IndexPoly":
        c = RatFunc.of(coeff, field)
        if c.is_zero:
            return cls._of(field, {})
        return cls._of(field, {s if isinstance(s, Index) else Index(s): c})

    @classmethod
    def one(cls, field: FieldSpec) -> "IndexPoly":
        return cls.mono(field, EMPTY)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return sorted(self.terms)

    def items(self):
        return [(s, self.terms[s]) for s in sorted(self.terms)]

    def coeff(self, s) -> RatFunc:
        return self.terms.get(Index(s), RatFunc.of(0, self.field))

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise InvalidInput("mixed coefficient fields")

    def __add__(self, other):
        if not isinstance(other, IndexPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        _accumulate(out, other.terms)
        return IndexPoly._of(self.field, out)

    def __neg__(self):
        return IndexPoly._of(self.field, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, IndexPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "IndexPoly":
        """c * self; scaling by one returns self."""
        c = RatFunc.of(c, self.field)
        if c.is_zero:
            return IndexPoly.zero(self.field)
        if _is_one(c):
            return self
        return IndexPoly._of(self.field, {s: v * c for s, v in self.terms.items()})

    def prepend(self, prefix) -> "IndexPoly":
        """Concatenate a fixed index in front of every term."""
        if not isinstance(prefix, Index):
            prefix = Index(prefix)
        return IndexPoly._of(self.field, {_index(prefix + s): c
                                          for s, c in self.terms.items()})

    def linear_map(self, fn) -> "IndexPoly":
        """Sum of coeff * fn(index) over the terms; fn returns an IndexPoly."""
        out = {}
        for s, c in self.terms.items():
            image = fn(s)
            self._check(image)
            _accumulate(out, image.terms, c)
        return IndexPoly._of(self.field, out)

    def weight(self):
        """The common weight of the support, or None if mixed/empty."""
        ws = {s.weight for s in self.terms}
        return ws.pop() if len(ws) == 1 else None

    @property
    def is_homogeneous(self) -> bool:
        return len({s.weight for s in self.terms}) <= 1

    def __eq__(self, other):
        return (isinstance(other, IndexPoly) and other.field == self.field
                and other.terms == self.terms)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for s, c in self.items():
            cs = str(c)
            if cs == "1":
                parts.append(str(s))
            else:
                if "+" in cs and not (cs.startswith("(") and cs.endswith(")")):
                    cs = f"({cs})"
                parts.append(f"{cs}*{s}")
        return " + ".join(parts)

    def __repr__(self):
        return f"IndexPoly({self!s})"


class IndexAlgebra:
    """The two products and the auxiliary operators, bound to one GF(q).

    All methods are pure; the product recursion is memoized on index
    pairs (function-cache contract: concurrent duplicate computation is
    harmless).
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.q = field.q
        self.p = field.p
        self._prod_memo = {}
        self._d_memo = {}
        self._coeffs = [RatFunc.of(k, field) for k in range(field.p)]

    def _own(self, *polys):
        for P in polys:
            if P.field is not self.field and P.field != self.field:
                raise InvalidInput("mixed coefficient fields")

    # -- scalars -----------------------------------------------------------

    def const(self, n: int) -> RatFunc:
        return RatFunc.of(self.field.poly([n]), self.field)

    def zero(self) -> IndexPoly:
        return IndexPoly.zero(self.field)

    def mono(self, s, coeff=1) -> IndexPoly:
        return IndexPoly.mono(self.field, s, coeff)

    def one(self) -> IndexPoly:
        return IndexPoly.one(self.field)

    # -- Delta -------------------------------------------------------------

    def delta(self, s: int, n: int, j: int):
        """The carry coefficient for level-wise products, in the prime subfield."""
        p = self.p
        if j < 1 or j >= s + n:
            return self.field.zero
        if (self.q - 1) != 1 and j % (self.q - 1) != 0:
            return self.field.zero
        a = poly_lucas_binom(j - 1, s - 1, p)
        if (s - 1) % 2:
            a = (-a) % p
        b = poly_lucas_binom(j - 1, n - 1, p)
        if (n - 1) % 2:
            b = (-b) % p
        return self.field.elem((a + b) % p)

    # -- products ----------------------------------------------------------

    def product(self, P: IndexPoly, Q: IndexPoly, kind) -> IndexPoly:
        kind = ProductKind.parse(kind)
        self._own(P, Q)
        out = {}
        for s, cs in P.terms.items():
            for n, cn in Q.terms.items():
                _accumulate(out, self._prod_indices(s, n, kind), cs * cn, self._coeffs)
        return IndexPoly._of(self.field, out)

    def harmonic(self, P: IndexPoly, Q: IndexPoly) -> IndexPoly:
        return self.product(P, Q, ProductKind.HARMONIC)

    def qshuffle(self, P: IndexPoly, Q: IndexPoly) -> IndexPoly:
        return self.product(P, Q, ProductKind.QSHUFFLE)

    def _product(self, P: dict, Q: dict, kind: ProductKind, out=None, scale: int = 1) -> dict:
        """out + scale * P * Q over F_p codes, in place (out None: a new dict)."""
        out = {} if out is None else out
        p = self.p
        for s, cs in P.items():
            for n, cn in Q.items():
                _add_codes(out, self._prod_indices(s, n, kind), p, scale * cs * cn % p)
        return out

    def _prod_indices(self, s: Index, n: Index, kind: ProductKind) -> dict:
        """s * n as a dict from Index to code, memoised; never mutate it."""
        if s.is_empty:
            return {n: 1}
        if n.is_empty:
            return {s: 1}
        key = (kind, s, n)
        hit = self._prod_memo.get(key)
        if hit is not None:
            return hit
        s1, n1, p = s[0], n[0], self.p
        # _prepend builds a fresh dict, so the sum can accumulate into it
        out = _prepend((s1,), self._prod_indices(s.minus, n, kind))
        _add_codes(out, self._prod_indices(s, n.minus, kind), p, 1, (n1,))
        _add_codes(out, self._prod_indices(s.minus, n.minus, kind), p, 1, (s1 + n1,))
        if kind is ProductKind.QSHUFFLE:
            _add_codes(out, self._d_indices(s, n), p)
        self._prod_memo[key] = out
        return out

    def _d_indices(self, s: Index, n: Index) -> dict:
        """D_s(n) for nonempty s and n, as codes, memoised; never mutate it."""
        key = (s, n)
        hit = self._d_memo.get(key)
        if hit is not None:
            return hit
        s1, n1 = s[0], n[0]
        tails = self._prod_indices(s.minus, n.minus, ProductKind.QSHUFFLE)
        out = {}
        for j in range(1, s1 + n1):
            dj = self.delta(s1, n1, j).i
            if dj:
                term = self._product({_index((j,)): 1}, tails, ProductKind.QSHUFFLE)
                _add_codes(out, term, self.p, dj, (s1 + n1 - j,))
        self._d_memo[key] = out
        return out

    def d_op(self, head: Index, P: IndexPoly) -> IndexPoly:
        """The carry operator D_head applied linearly; D_head(empty) = 0."""
        head = Index(head)
        if head.is_empty:
            raise EmptyIndex("the carry operator needs a nonempty head")
        self._own(P)
        out = {}
        for n, c in P.terms.items():
            if n.is_empty:
                continue
            _accumulate(out, self._d_indices(head, n), c, self._coeffs)
        return IndexPoly._of(self.field, out)

    # -- boxplus and alpha ---------------------------------------------------

    def boxplus(self, P: IndexPoly, Q: IndexPoly) -> IndexPoly:
        """Bilinear splice: (s+, s_r + n_1, n-); zero when either side is empty."""
        self._own(P, Q)
        out = {}
        for s, cs in P.terms.items():
            if s.is_empty:
                continue
            for n, cn in Q.terms.items():
                if n.is_empty:
                    continue
                spliced = _index(s[:-1] + (s[-1] + n[0],) + n[1:])
                _accumulate(out, {spliced: cs * cn})
        return IndexPoly._of(self.field, out)

    def alpha(self, c: int, s, kind, P: IndexPoly, iterations: int = 1) -> IndexPoly:
        """P  |->  (c, s * P), iterated; 0 iterations is the identity."""
        kind = ProductKind.parse(kind)
        s = Index(s)
        out = P
        for _ in range(iterations):
            out = self.product(self.mono(s), out, kind).prepend((c,))
        return out
