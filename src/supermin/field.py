"""Exact arithmetic in the number field Q(i, sqrt2, sqrt3, sqrt5).

Every scalar this toolkit needs lives in the degree-16 field obtained from the
rationals by adjoining i and the square roots of 2, 3 and 5.  A value is

    x = sum_m (re_m + i*im_m) * sqrt(RADICAL[m])

where mask bit 0 stands for sqrt2, bit 1 for sqrt3, bit 2 for sqrt5, and
RADICAL[m] is the product of the selected primes.  Multiplication of radicals
is closed:  sqrt(a)*sqrt(b) = g * sqrt(a*b/g^2) with g the product of shared
primes, which in mask terms is RADICAL[m1 & m2] * sqrt(RADICAL[m1 ^ m2]).

Scalars and the polynomials of ``poly`` share one layout and one ring core,
``_SparsePoly``: Python ints (re, im) per (key, mask) over one positive
denominator, standing for

    sum  (re + i*im) / den * sqrt(RADICAL[mask]) * monomial(key).

The form is reduced -- no (0, 0) pair, and the gcd of the denominator and
all numerators is 1 -- so ``==`` and ``hash`` compare the stored data.
Two radical folds multiply ints only, each with its own contract:

* ``_mul_into`` makes every value that floats read.  Entries keep their
  order of first appearance in a sum or product, a cancelled one holding
  its place as (0, 0) until settled; float conversions sum them in that
  order.
* ``_fold`` answers zero and equality tests (``products_vanish``,
  ``product_sum``) on BiPoly sums of signed products.  It groups each
  operand by radical mask and keys a monomial by one int, so its entries
  come in no particular order, and none of its results may reach float
  evaluation.

AlgScalar is the case with the single key 0.  Every operator is defined on
the core and takes its other operand through one hook, ``_coerce``, which
AlgScalar widens to ints and Fractions.  Fractions appear only where a
value crosses the boundary: the constructor and the factories take ints or
Fractions, and ``coeff(mask)``, ``as_fraction`` and ``repr`` give them back.
"""

from __future__ import annotations

import decimal
import itertools
import math
import operator
from fractions import Fraction
from types import MappingProxyType

# radicand represented by each mask: bit0 -> 2, bit1 -> 3, bit2 -> 5
RADICAL = (1, 2, 3, 6, 5, 10, 15, 30)
_SQRT = tuple(math.sqrt(r) for r in RADICAL)

# fixed mask order used when a scalar is flattened to coefficient lists
# (sorted by radicand value: 1, 2, 3, 5, 6, 10, 15, 30)
MASK_ORDER = (0, 1, 2, 4, 3, 5, 6, 7)


def _by_key(num: dict) -> list:
    """[(key, [(mask, re, im), ...])] of flat numerators, in stored order."""
    groups: dict = {}
    for (k, m), (re, im) in num.items():
        groups.setdefault(k, []).append((m, re, im))
    return list(groups.items())


def _mul_into(out: dict, num1: dict, num2: dict, add) -> None:
    """out += p1 * p2, for the flat numerators of two values.

    Each product enters ``out`` at (add(k1, k2), m1 ^ m2).  A sum that
    cancels stays as a (0, 0) pair, so the entry keeps its first place;
    ``_settled`` drops it.
    """
    get = out.get
    rows2 = _by_key(num2)
    for k1, ms1 in _by_key(num1):
        for k2, ms2 in rows2:
            k = add(k1, k2)
            for m1, p, q in ms1:
                for m2, c, d in ms2:
                    re = p * c - q * d
                    im = p * d + q * c
                    g = m1 & m2
                    if g:
                        g = RADICAL[g]
                        re *= g
                        im *= g
                    km = (k, m1 ^ m2)
                    v = get(km)
                    out[km] = (re, im) if v is None else (v[0] + re, v[1] + im)


def _settled(out: dict) -> dict:
    """``out`` without its (0, 0) entries."""
    return {km: v for km, v in out.items() if v[0] or v[1]}


def _by_mask(num: dict, s: int, t: int, f: int) -> list:
    """[(mask, [(key, value)])] of flat BiPoly numerators: z^a*zbar^b keyed
    (a << s) | (b << 3), and (re, im) held as the one int f*(re + im*2^t)."""
    rows: dict = {}
    for ((a, b), m), (re, im) in num.items():
        rows.setdefault(m, []).append(((a << s) | (b << 3), (re + (im << t)) * f))
    return list(rows.items())


def _bits(num: dict) -> int:
    """The largest bit length of the flat numerators' parts."""
    return max(map(abs, itertools.chain.from_iterable(num.values())), default=0).bit_length()


def _fold(terms) -> tuple[dict, int, int, int]:
    """Sum of sign * x * y over the list of (sign, x, y) ``terms``, x and y BiPolys.

    Returns (sums, den, s, t): the sum is sums / den, and each monomial
    z^a*zbar^b with mask m is keyed by the int (a << s) | (b << 3) | m,
    s set by the largest zbar exponent so that a product's b fits below
    a.  A part pair (re, im) is the int re + im*2^t, and every product
    goes into one dict unreduced.  Reduced modulo 2^(2t) + 1, where 2^t
    squares to -1, the packed ints multiply as complex numbers, and t is
    large enough that each sum's parts lie strictly within +-2^(t-1): so
    a sum is zero exactly when its residue is, and the residue gives back
    both parts.  Each operand is grouped by mask, and each pair of masks
    applies RADICAL[m1 & m2] and m1 ^ m2 once, outside the inner loop.
    """
    den = math.lcm(*(x._den * y._den for _, x, y in terms))
    top = max((b for _, x, y in terms for p in (x, y) for (_, b), _ in p._num), default=0)
    s = 3 + (2 * top).bit_length()
    factors = [sign * (den // (x._den * y._den)) for sign, x, y in terms]
    # a product's parts are below 2 * 30 * |f| * 2^(bits x + bits y) <= 2^(bound - 1),
    # so those of a sum of fewer than 2^(t - bound) products are below 2^(t - 1)
    bound = max((abs(f).bit_length() + _bits(x._num) + _bits(y._num) + 7
                 for f, (_, x, y) in zip(factors, terms)), default=0)
    t = bound + sum(len(x._num) * len(y._num) for _, x, y in terms).bit_length()
    out: dict = {}
    get = out.get
    for f, (_, x, y) in zip(factors, terms):
        rows2 = _by_mask(y._num, s, t, 1)
        for m1, row1 in _by_mask(x._num, s, t, f):
            for m2, row2 in rows2:
                g = RADICAL[m1 & m2]
                m = m1 ^ m2
                for k1, u in row1:
                    k1 |= m
                    u *= g
                    for k2, v in row2:
                        k = k1 + k2
                        out[k] = get(k, 0) + u * v
    return out, den, s, t


def products_vanish(terms) -> bool:
    """Whether the sum of sign * x * y over the (sign, x, y) in ``terms`` is zero.

    ``_fold`` keeps no entry order, so it only answers "is this zero" or,
    through ``product_sum``, "are these equal"; none of its results may
    reach float evaluation, which sums entries in stored order.
    """
    out, _, _, t = _fold(terms)
    n = (1 << 2 * t) + 1
    return not any(v % n for v in out.values())


def product_sum(terms):
    """The sum of sign * x * y over the (sign, x, y) in ``terms``, for
    equality and zero tests only: its entries are not in the order of first
    appearance that float evaluation reads (see ``products_vanish``).
    ``terms`` is not empty, and the sum has the class of its operands."""
    out, den, s, t = _fold(terms)
    n = (1 << 2 * t) + 1
    half = 1 << t - 1
    low = (1 << s - 3) - 1
    num = {}
    for k, v in out.items():
        v %= n
        if v:
            if v > n >> 1:
                v -= n
            re = ((v + half) & ((1 << t) - 1)) - half
            num[((k >> s, k >> 3 & low), k & 7)] = (re, (v - re) >> t)
    return type(terms[0][1])._of(num, den)


class _SparsePoly:
    """Integer numerators {(key, mask): (re, im)} over one denominator.

    Sums, differences and equality take the other operand through
    ``_coerce``; products also take a scalar the hook refuses.
    """

    __slots__ = ("_num", "_den", "_view", "_ceval")

    _CONST_KEY: object  # the key of the constant term
    _ADD: staticmethod  # the key of a product of two monomials

    def __init__(self, terms: dict | None = None):
        coeffs = []
        for k, c in (terms or {}).items():
            s = as_scalar(c)
            if s is None:
                raise TypeError(f"not a scalar: {c!r}")
            coeffs.append((k, s))
        # over the lcm of reduced denominators the form is already reduced
        den = math.lcm(*(s._den for _, s in coeffs))
        num = {}
        for k, s in coeffs:
            f = den // s._den
            for (_, m), (re, im) in s._num.items():
                num[(k, m)] = (re * f, im * f)
        self._set(num, den)

    def _set(self, num: dict, den: int) -> None:
        self._num = num
        self._den = den
        self._view = self._ceval = None

    @classmethod
    def _of(cls, num: dict, den: int = 1):
        """The value num / den, from settled numerators, reduced."""
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

    def float_terms(self) -> tuple[int, list]:
        """(k, [(key, re, im)]): the coefficients times 2^-k as floats.

        k is the largest numerator bit length less the denominator's, so
        the largest coefficient lies near 1 whatever the scale.  Each part
        is re * 2^-k / den rounded once (integer true division), times the
        square root of its radical; masks are summed in stored order.
        """
        if self._ceval is None:
            den = self._den
            k = max((max(abs(re).bit_length(), abs(im).bit_length())
                     for re, im in self._num.values()), default=0) - den.bit_length()
            scaled = den << k if k >= 0 else den
            up = max(-k, 0)
            out: dict = {}
            for (key, m), (re, im) in self._num.items():
                r = _SQRT[m]
                c = out.get(key, (0.0, 0.0))
                out[key] = (c[0] + (re << up) / scaled * r, c[1] + (im << up) / scaled * r)
            self._ceval = (k, [(key, re, im) for key, (re, im) in out.items()])
        return self._ceval

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {key: AlgScalar} view."""
        view = self._view
        if view is None:
            den = self._den
            view = self._view = MappingProxyType({
                k: AlgScalar._of({(0, m): (re, im) for m, re, im in ms}, den)
                for k, ms in _by_key(self._num)
            })
        return view

    def __len__(self) -> int:
        """The number of monomials."""
        return len({k for k, _ in self._num})

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
        return self._of(_settled(out), den)

    def _coerce(self, other):
        """``other`` as a value of this class, or None."""
        return other if type(other) is type(self) else None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    def __radd__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, 1)

    def __neg__(self):
        return self._of({k: (-re, -im) for k, (re, im) in self._num.items()}, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, -1)

    def _times(self, other):
        """The product with a value of the same class."""
        out: dict = {}
        _mul_into(out, self._num, other._num, self._ADD)
        return self._of(_settled(out), self._den * other._den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is not None:
            return self._times(o)
        if type(other) is int:
            num = {k: (re * other, im * other) for k, (re, im) in self._num.items()}
            return self._of(num if other else {}, self._den)
        s = as_scalar(other)
        if s is None:
            return NotImplemented
        return self._times(self.const(s))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._num == o._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))


def as_scalar(c) -> AlgScalar | None:
    """``c`` as an AlgScalar when it is one, an int or a Fraction; else None."""
    if isinstance(c, AlgScalar):
        return c
    if isinstance(c, (int, Fraction)):
        return AlgScalar({0: (c, 0)})
    return None


class AlgScalar(_SparsePoly):
    """Immutable element of Q(i, sqrt2, sqrt3, sqrt5): the key-0 case of the core."""

    __slots__ = ()
    _ADD = staticmethod(operator.add)
    _coerce = staticmethod(as_scalar)

    def __init__(self, terms: dict | None = None):
        """From {mask: (re, im)} with int or Fraction parts.

        Over the lcm of the parts' reduced denominators the form is
        already reduced.
        """
        parts = [(m, re, im) for m, (re, im) in (terms or {}).items() if re or im]
        den = math.lcm(*(x.denominator for _, re, im in parts for x in (re, im)))
        self._set({(0, m): (re.numerator * (den // re.denominator),
                            im.numerator * (den // im.denominator))
                   for m, re, im in parts}, den)

    # ---------------------------------------------------------------- factories

    @classmethod
    def zero(cls) -> AlgScalar:
        return cls()

    @classmethod
    def one(cls) -> AlgScalar:
        return cls({0: (1, 0)})

    @classmethod
    def i(cls) -> AlgScalar:
        return cls({0: (0, 1)})

    @classmethod
    def rational(cls, num, den=1) -> AlgScalar:
        return cls({0: (Fraction(num, den), 0)})

    @classmethod
    def term(cls, radicand: int, re, im=0) -> AlgScalar:
        """(re + i*im) * sqrt(radicand) for a squarefree radicand dividing 30."""
        try:
            mask = RADICAL.index(radicand)
        except ValueError:
            raise ValueError(f"radicand {radicand} is not one of {RADICAL}") from None
        return cls({mask: (Fraction(re), Fraction(im))})

    @classmethod
    def root(cls, n: int) -> AlgScalar:
        """Exact sqrt(n) for a non-negative integer n, e.g. root(90) = 3*sqrt(10).

        Raises ValueError when the squarefree kernel of n is not a divisor
        of 30 (the root then falls outside the field).
        """
        if n < 0:
            raise ValueError("root expects a non-negative integer")
        if n == 0:
            return cls.zero()
        # only 2, 3 and 5 may stay under the root; the rest must be a square
        square, kernel, m = 1, 1, n
        for p in (2, 3, 5):
            while m % (p * p) == 0:
                square *= p
                m //= p * p
            if m % p == 0:
                kernel *= p
                m //= p
        rest = math.isqrt(m)
        if rest * rest != m:
            raise ValueError(f"sqrt({n}) does not lie in Q(sqrt2, sqrt3, sqrt5)")
        return cls({RADICAL.index(kernel): (square * rest, 0)})

    # ------------------------------------------------------------------- state

    def is_rational(self) -> bool:
        return all(m == 0 for _, m in self._num)

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; only valid for purely rational, real scalars."""
        if not self._num:
            return Fraction(0)
        if set(self._num) != {(0, 0)} or self._num[(0, 0)][1]:
            raise ValueError(f"{self!r} is not a real rational")
        return Fraction(self._num[(0, 0)][0], self._den)

    def coeff(self, mask: int) -> tuple[Fraction, Fraction]:
        re, im = self._num.get((0, mask), (0, 0))
        return Fraction(re, self._den), Fraction(im, self._den)

    # -------------------------------------------------------------- arithmetic

    # the core's operators: perfbench/tracer.py wraps them by name in this class
    __add__ = _SparsePoly.__add__
    __radd__ = _SparsePoly.__radd__
    __mul__ = _SparsePoly.__mul__
    __rmul__ = _SparsePoly.__rmul__

    def galois(self, bits: int) -> AlgScalar:
        """Field automorphism negating the radicals selected by ``bits``."""
        return AlgScalar._of({
            km: (-re, -im) if (km[1] & bits).bit_count() & 1 else (re, im)
            for km, (re, im) in self._num.items()
        }, self._den)

    def conj(self) -> AlgScalar:
        return AlgScalar._of({km: (re, -im) for km, (re, im) in self._num.items()}, self._den)

    def inverse(self) -> AlgScalar:
        """Multiplicative inverse via the Galois-conjugate cascade.

        Multiplying by sigma(x) for each radical automorphism sigma lands the
        denominator in Q(i); one complex conjugation finishes the job.
        """
        if not self._num:
            raise ZeroDivisionError("inverse of zero")
        num = AlgScalar.one()
        den = self
        for bit in (1, 2, 4):
            if any(m & bit for _, m in den._num):
                g = den.galois(bit)
                num = num * g
                den = den * g
        a, b = den._num[(0, 0)]  # den is now (a + i*b) / d, rational complex
        d = den._den
        return num * AlgScalar._of({(0, 0): (a * d, -b * d)}, a * a + b * b)

    def __truediv__(self, other) -> AlgScalar:
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> AlgScalar:
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> AlgScalar:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = AlgScalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # ------------------------------------------------------------- conversions

    def __complex__(self) -> complex:
        k, terms = self.float_terms()
        re, im = terms[0][1:] if terms else (0.0, 0.0)
        return complex(math.ldexp(re, k), math.ldexp(im, k))

    def __repr__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for m in MASK_ORDER:
            if (0, m) not in self._num:
                continue
            re, im = self.coeff(m)
            if im == 0:
                body = frac_str(re)
            elif re == 0:
                body = f"{frac_str(im)}i"
            else:
                sign = "+" if im > 0 else "-"
                body = f"({frac_str(re)}{sign}{frac_str(abs(im))}i)"
            if m:
                body += f"*sqrt{RADICAL[m]}"
            parts.append(body)
        return " + ".join(parts)


def frac_str(f: Fraction) -> str:
    """``str(f)`` with no digit limit: ``str`` of an int over 4300 digits
    raises ValueError, while ``Decimal`` of an int is exact and prints all."""
    num, den = (str(decimal.Decimal(v)) for v in (f.numerator, f.denominator))
    return num if den == "1" else f"{num}/{den}"
