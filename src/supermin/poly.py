"""Sparse exact polynomials and rational functions in z and conj(z).

Three layers, all immutable by convention:

* ``Poly``       -- holomorphic polynomials; a key is the exponent of z;
* ``BiPoly``     -- polynomials in z and zbar; a key (a, b) stands for
                    z^a * zbar^b;
* ``RationalFn`` -- quotients of BiPolys.  The only automatic simplification
                    is cancellation of a common monomial z^c * zbar^d; genuine
                    identities are always tested by cross-multiplication.

Coefficients lie in Q(i, sqrt2, sqrt3, sqrt5) (see ``field``) and are
stored fraction-free: a polynomial maps (key, mask) to a pair of Python
ints (re, im) over one positive denominator, standing for

    sum  (re + i*im) / den * sqrt(RADICAL[mask]) * monomial(key).

The form is reduced -- no (0, 0) pair, and the gcd of the denominator and
all numerators is 1 -- so ``==`` and ``hash`` compare the stored data.
Products fold radicals as ``AlgScalar`` does, sqrt(R[m1]) * sqrt(R[m2]) =
R[m1 & m2] * sqrt(R[m1 ^ m2]), and multiply ints only.  A key's entries
are kept together, in the order AlgScalar arithmetic gives its masks, so
float evaluation sums them in the same order as ``complex(AlgScalar)``.

Constructors take {key: AlgScalar} dicts (ints and Fractions are accepted
as scalars).  ``terms`` is the read-only {key: AlgScalar} view of a
polynomial, built on first use, for readers outside the arithmetic.
``Poly`` and ``BiPoly`` share the ring code; a Poly never meets a BiPoly
implicitly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from types import MappingProxyType

from .field import RADICAL, AlgScalar, as_scalar

_SQRT = tuple(math.sqrt(r) for r in RADICAL)


def _add_pairs(k1, k2):
    return (k1[0] + k2[0], k1[1] + k2[1])


def _pair(a, b):
    return (a, b)


def _mul_into(out: dict, keys: dict, rows1, rows2, add) -> None:
    """out += p1 * p2, for the grouped rows (``_rows``) of two polynomials.

    Key pair by key pair, this is the AlgScalar arithmetic of the product of
    two coefficients added into a sum: the product is summed over its masks
    first, a sum that cancels stays as a (0, 0) placeholder, and a mask that
    comes back after cancelling moves behind its key's other masks.  ``keys``
    records the keys in order of first appearance, which is their place
    even when all their masks cancel.  ``_settled`` drops the placeholders.
    """
    get = out.get
    seen = keys.setdefault
    for k1, ms1 in rows1:
        for k2, ms2 in rows2:
            k = add(k1, k2)
            block: dict = {}
            for m1, p, q in ms1:
                for m2, c, d in ms2:
                    re = p * c - q * d
                    im = p * d + q * c
                    g = m1 & m2
                    if g:
                        g = RADICAL[g]
                        re *= g
                        im *= g
                    m = m1 ^ m2
                    v = block.get(m)
                    block[m] = (re, im) if v is None else (v[0] + re, v[1] + im)
            for m, (re, im) in block.items():
                if not (re or im):
                    continue
                km = (k, m)
                v = get(km)
                if v is None:
                    out[km] = (re, im)
                    seen(k)
                elif v[0] or v[1]:
                    out[km] = (v[0] + re, v[1] + im)
                else:
                    del out[km]
                    out[km] = (re, im)


def _settled(out: dict, keys) -> dict:
    """``out`` without (0, 0) entries, each key's entries brought together.

    Keys come in the order of ``keys``, masks in their order in ``out``.
    """
    groups: dict = {k: [] for k in keys}
    for km, v in out.items():
        if v[0] or v[1]:
            groups[km[0]].append((km, v))
    return {km: v for group in groups.values() for km, v in group}


class _SparsePoly:
    """Integer numerators {(key, mask): (re, im)} over one denominator.

    Sums, differences and equality are defined only between two
    polynomials of the same class.
    """

    __slots__ = ("_num", "_den", "_rows_cache", "_view", "_ceval")

    _CONST_KEY: object  # the key of the constant term
    _ADD: staticmethod  # the key of a product of two monomials

    def __init__(self, terms: dict | None = None):
        coeffs = []
        for k, c in (terms or {}).items():
            s = as_scalar(c)
            if s is None:
                raise TypeError(f"not a scalar: {c!r}")
            coeffs.append((k, s._terms))
        # over the lcm of reduced denominators the form is already reduced
        den = math.lcm(*(x.denominator for _, t in coeffs for pair in t.values() for x in pair))
        self._set(
            {
                (k, m): (re.numerator * (den // re.denominator),
                         im.numerator * (den // im.denominator))
                for k, t in coeffs
                for m, (re, im) in t.items()
            },
            den,
        )

    def _set(self, num: dict, den: int) -> None:
        self._num = num
        self._den = den
        self._rows_cache = self._view = self._ceval = None

    @classmethod
    def _of(cls, num: dict, den: int = 1):
        """The polynomial num / den, from settled numerators, reduced."""
        if den != 1:
            g = den
            for re, im in num.values():
                g = math.gcd(g, re, im)
                if g == 1:
                    break
            if g != 1:
                num = {k: (re // g, im // g) for k, (re, im) in num.items()}
                den //= g
        out = cls.__new__(cls)
        out._set(num, den)
        return out

    @classmethod
    def const(cls, c):
        return cls({cls._CONST_KEY: c})

    def _rows(self) -> list:
        """[(key, [(mask, re, im), ...])] in stored order, built once."""
        rows = self._rows_cache
        if rows is None:
            groups: dict = {}
            for (k, m), (re, im) in self._num.items():
                group = groups.get(k)
                if group is None:
                    group = groups[k] = []
                group.append((m, re, im))
            rows = self._rows_cache = list(groups.items())
        return rows

    def _complex_terms(self) -> list:
        """[(key, complex coefficient)]; masks summed as complex(AlgScalar) does."""
        den = self._den
        out = []
        for k, ms in self._rows():
            c = 0j
            for m, re, im in ms:
                r = _SQRT[m]
                c += complex(re / den * r, im / den * r)
            out.append((k, c))
        return out

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {key: AlgScalar} view, with Fraction parts."""
        view = self._view
        if view is None:
            den = self._den
            view = self._view = MappingProxyType({
                k: AlgScalar({m: (Fraction(re, den), Fraction(im, den)) for m, re, im in ms})
                for k, ms in self._rows()
            })
        return view

    def coeff(self, key) -> AlgScalar:
        """The coefficient of one monomial; zero when the key is absent."""
        den = self._den
        return AlgScalar({
            m: (Fraction(re, den), Fraction(im, den))
            for (k, m), (re, im) in self._num.items() if k == key
        })

    def __len__(self) -> int:
        """The number of monomials."""
        return len(self._rows())

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def _plus(self, other, sign: int):
        den = math.lcm(self._den, other._den)
        f1, f2 = den // self._den, sign * (den // other._den)
        out = {k: (re * f1, im * f1) for k, (re, im) in self._num.items()}
        get = out.get
        for k, (re, im) in other._num.items():
            re, im = re * f2, im * f2
            v = get(k)
            out[k] = (re, im) if v is None else (v[0] + re, v[1] + im)
        return self._of(_settled(out, {k: None for k, _ in out}), den)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._plus(other, 1)

    def __neg__(self):
        return self._of({k: (-re, -im) for k, (re, im) in self._num.items()}, self._den)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._plus(other, -1)

    def _times(self, other):
        """The product with a polynomial of the same class."""
        out: dict = {}
        keys: dict = {}
        _mul_into(out, keys, self._rows(), other._rows(), self._ADD)
        return self._of(_settled(out, keys), self._den * other._den)

    def _scale(self, other):
        """The product with a scalar; NotImplemented for anything else."""
        if type(other) is int:
            num = {k: (re * other, im * other) for k, (re, im) in self._num.items()}
            return self._of(num if other else {}, self._den)
        s = as_scalar(other)
        if s is None:
            return NotImplemented
        return self._times(self.const(s))

    __rmul__ = _scale

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))


class Poly(_SparsePoly):
    """Polynomial in z over Q(i, sqrt2, sqrt3, sqrt5)."""

    __slots__ = ()
    _CONST_KEY = 0
    _ADD = staticmethod(operator.add)

    @classmethod
    def monomial(cls, exp: int, c=1) -> Poly:
        return cls({exp: c})

    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return max(e for e, _ in self._num) if self._num else -1

    def ord(self) -> int:
        """Order of vanishing at z = 0; zero polynomial gives -1."""
        return min(e for e, _ in self._num) if self._num else -1

    def __mul__(self, other) -> Poly:
        if type(other) is not Poly:
            return self._scale(other)
        return self._times(other)

    def diff(self) -> Poly:
        return Poly._of(
            {(e - 1, m): (re * e, im * e) for (e, m), (re, im) in self._num.items() if e},
            self._den,
        )

    def scale_arg(self, r) -> Poly:
        """The polynomial p(r*z)."""
        s = as_scalar(r)
        if s is None:
            raise TypeError(f"not a scalar: {r!r}")
        powers: dict[int, AlgScalar] = {0: AlgScalar.one()}
        for e in range(1, self.degree() + 1):
            powers[e] = powers[e - 1] * s
        return Poly({e: c * powers[e] for e, c in self.terms.items()})

    def reverse(self, total: int) -> Poly:
        """z^total * p(1/z); ``total`` must cover the degree."""
        if self._num and total < self.degree():
            raise ValueError("reversal exponent smaller than degree")
        return Poly._of({(total - e, m): v for (e, m), v in self._num.items()}, self._den)

    def conj_factor(self) -> BiPoly:
        """The conjugate polynomial conj(p(z)) as a BiPoly in zbar."""
        return BiPoly._of(
            {((0, e), m): (re, -im) for (e, m), (re, im) in self._num.items()}, self._den
        )

    def to_bipoly(self) -> BiPoly:
        return BiPoly._of({((e, 0), m): v for (e, m), v in self._num.items()}, self._den)

    def __call__(self, z):
        if self._ceval is None:
            self._ceval = self._complex_terms()
        out = 0j
        for e, c in self._ceval:
            out = out + c * z**e
        return out

    def __repr__(self) -> str:
        if not self._num:
            return "Poly(0)"
        bits = [f"({self.terms[e]!r})*z^{e}" for e in sorted(self.terms)]
        return " + ".join(bits)


class BiPoly(_SparsePoly):
    """Polynomial in z and zbar; keys are (power of z, power of zbar)."""

    __slots__ = ()
    _CONST_KEY = (0, 0)
    _ADD = staticmethod(_add_pairs)

    @classmethod
    def one(cls) -> BiPoly:
        return cls.const(1)

    def __mul__(self, other) -> BiPoly:
        if type(other) is not BiPoly:
            return self._scale(other)
        return self._times(other)

    def conj(self) -> BiPoly:
        return BiPoly._of(
            {((b, a), m): (re, -im) for ((a, b), m), (re, im) in self._num.items()}, self._den
        )

    def diff_z(self) -> BiPoly:
        return BiPoly._of(
            {((a - 1, b), m): (re * a, im * a)
             for ((a, b), m), (re, im) in self._num.items() if a},
            self._den,
        )

    def diff_zbar(self) -> BiPoly:
        return BiPoly._of(
            {((a, b - 1), m): (re * b, im * b)
             for ((a, b), m), (re, im) in self._num.items() if b},
            self._den,
        )

    def reverse(self, total: int) -> BiPoly:
        """z^total * zbar^total * p(1/z, 1/zbar); total must cover the degrees."""
        out = {((total - a, total - b), m): v for ((a, b), m), v in self._num.items()}
        if any(a < 0 or b < 0 for (a, b), _ in out):
            raise ValueError("reversal exponent smaller than degree")
        return BiPoly._of(out, self._den)

    def content(self) -> tuple[int, int]:
        """Largest (c, d) with z^c * zbar^d dividing every term."""
        if not self._num:
            return (0, 0)
        return (min(a for (a, _), _ in self._num), min(b for (_, b), _ in self._num))

    def shift_down(self, c: int, d: int) -> BiPoly:
        return BiPoly._of(
            {((a - c, b - d), m): v for ((a, b), m), v in self._num.items()}, self._den
        )

    def __call__(self, z):
        """Evaluate at a complex number or an array of them (zbar = conj z)."""
        if self._ceval is None:
            self._ceval = [(a, b, c) for (a, b), c in self._complex_terms()]
        zb = z.conjugate()
        out = 0j
        for a, b, c in self._ceval:
            out = out + c * z**a * zb**b
        return out

    def __repr__(self) -> str:
        if not self._num:
            return "BiPoly(0)"
        bits = [f"({self.terms[k]!r})*z^{k[0]}*zb^{k[1]}" for k in sorted(self.terms)]
        return " + ".join(bits)


def hermitian_sum(terms) -> BiPoly:
    """The BiPoly sum of sign * u(z) * conj(v(z)) over (sign, u, v) in terms.

    ``u`` and ``v`` are Polys and ``sign`` is 1 or -1.  All products are
    added into one table over a common denominator, with no BiPoly formed
    for any of them.
    """
    terms = list(terms)
    den = math.lcm(*(u._den * v._den for _, u, v in terms))
    out: dict = {}
    keys: dict = {}
    for sign, u, v in terms:
        f = sign * (den // (u._den * v._den))
        rows = u._rows()
        if f != 1:
            rows = [(k, [(m, re * f, im * f) for m, re, im in ms]) for k, ms in rows]
        vbar = [(k, [(m, re, -im) for m, re, im in ms]) for k, ms in v._rows()]
        _mul_into(out, keys, rows, vbar, _pair)
    return BiPoly._of(_settled(out, keys), den)


class RationalFn:
    """Quotient of two BiPolys, reduced only by common monomial content.

    Two quotients are equal when their cross products agree, so a
    RationalFn has no hash.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = BiPoly(), BiPoly.one()
        else:
            ca, cb = num.content()
            da, db = den.content()
            c, d = min(ca, da), min(cb, db)
            if c or d:
                num = num.shift_down(c, d)
                den = den.shift_down(c, d)
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        if type(other) is not RationalFn:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def constant_value(self) -> AlgScalar:
        """The scalar c with num = c * den, when the function is constant.

        Constancy is num * den[k] == den * num[k] at the first key k of den;
        then c = num[k] / den[k].  Raises ValueError when no such scalar exists.
        """
        if self.num.is_zero():
            return AlgScalar.zero()
        key = next(iter(self.den._num))[0]
        n, d = self.num.coeff(key), self.den.coeff(key)
        if self.num * d != self.den * n:
            raise ValueError("rational function is not constant")
        return n / d

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def __repr__(self) -> str:
        return f"RationalFn({self.num!r}, {self.den!r})"


# ----------------------------------------------------------------- poly utils


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division over the field; b must be nonzero."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q: dict[int, AlgScalar] = {}
    r = a
    db = b.degree()
    lead = b.coeff(db).inverse()
    while r and r.degree() >= db:
        dr = r.degree()
        c = r.coeff(dr) * lead
        q[dr - db] = c
        r = r - b * Poly({dr - db: c})
    return Poly(q), r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials over the exact field."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        a = a * a.coeff(a.degree()).inverse()
    return a
