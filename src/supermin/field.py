"""Exact arithmetic in the number field Q(i, sqrt2, sqrt3, sqrt5).

Every scalar this toolkit needs lives in the degree-16 field obtained from the
rationals by adjoining i and the square roots of 2, 3 and 5.  A scalar is kept
as a sparse dict mapping a 3-bit radical mask to a complex-rational
coefficient, so

    x = sum_m (re_m + i*im_m) * sqrt(RADICAL[m])

where mask bit 0 stands for sqrt2, bit 1 for sqrt3, bit 2 for sqrt5, and
RADICAL[m] is the product of the selected primes.  Multiplication of radicals
is closed:  sqrt(a)*sqrt(b) = g * sqrt(a*b/g^2) with g the product of shared
primes, which in mask terms is RADICAL[m1 & m2] * sqrt(RADICAL[m1 ^ m2]).

AlgScalar is the public scalar: curve files, reports and the ``terms``
view of a polynomial hold AlgScalars with Fraction parts.  Polynomials do
not compute with it.  ``poly`` stores the same layout fraction-free, as
Python ints (re, im) per (key, mask) over one denominator per polynomial,
and folds radicals with the same RADICAL table.  It keeps its (key, mask)
entries in order of first appearance, so a coefficient in a ``terms``
view may list its masks in another order than AlgScalar arithmetic would.
"""

from __future__ import annotations

import math
from fractions import Fraction

# radicand represented by each mask: bit0 -> 2, bit1 -> 3, bit2 -> 5
RADICAL = (1, 2, 3, 6, 5, 10, 15, 30)

# fixed mask order used when a scalar is flattened to coefficient lists
# (sorted by radicand value: 1, 2, 3, 5, 6, 10, 15, 30)
MASK_ORDER = (0, 1, 2, 4, 3, 5, 6, 7)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class AlgScalar:
    """Immutable element of Q(i, sqrt2, sqrt3, sqrt5)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, tuple[Fraction, Fraction]] | None = None):
        if terms is None:
            terms = {}
        self._terms = {m: c for m, c in terms.items() if c[0] or c[1]}

    # ---------------------------------------------------------------- factories

    @classmethod
    def zero(cls) -> AlgScalar:
        return cls()

    @classmethod
    def one(cls) -> AlgScalar:
        return cls({0: (_ONE, _ZERO)})

    @classmethod
    def i(cls) -> AlgScalar:
        return cls({0: (_ZERO, _ONE)})

    @classmethod
    def rational(cls, num, den=1) -> AlgScalar:
        return cls({0: (Fraction(num, den), _ZERO)})

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
        square, kernel = 1, 1
        m = n
        p = 2
        while p * p <= m:
            while m % (p * p) == 0:
                square *= p
                m //= p * p
            if m % p == 0:
                kernel *= p
                m //= p
            p += 1
        kernel *= m  # leftover prime
        if 30 % kernel:
            raise ValueError(f"sqrt({n}) does not lie in Q(sqrt2, sqrt3, sqrt5)")
        return cls({RADICAL.index(kernel): (Fraction(square), _ZERO)})

    # ------------------------------------------------------------------- state

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_rational(self) -> bool:
        return all(m == 0 for m in self._terms)

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; only valid for purely rational, real scalars."""
        if not self._terms:
            return _ZERO
        if set(self._terms) != {0} or self._terms[0][1]:
            raise ValueError(f"{self!r} is not a real rational")
        return self._terms[0][0]

    def coeff(self, mask: int) -> tuple[Fraction, Fraction]:
        return self._terms.get(mask, (_ZERO, _ZERO))

    # -------------------------------------------------------------- arithmetic

    def __add__(self, other) -> AlgScalar:
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for m, (re, im) in o._terms.items():
            a, b = out.get(m, (_ZERO, _ZERO))
            out[m] = (a + re, b + im)
        return AlgScalar(out)

    __radd__ = __add__

    def __neg__(self) -> AlgScalar:
        return AlgScalar({m: (-re, -im) for m, (re, im) in self._terms.items()})

    def __sub__(self, other) -> AlgScalar:
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> AlgScalar:
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> AlgScalar:
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        out: dict[int, tuple[Fraction, Fraction]] = {}
        for m1, (a, b) in self._terms.items():
            for m2, (c, d) in o._terms.items():
                g = RADICAL[m1 & m2]
                m = m1 ^ m2
                re = (a * c - b * d) * g
                im = (a * d + b * c) * g
                if m in out:
                    p, q = out[m]
                    out[m] = (p + re, q + im)
                else:
                    out[m] = (re, im)
        return AlgScalar(out)

    __rmul__ = __mul__

    def galois(self, bits: int) -> AlgScalar:
        """Field automorphism negating the radicals selected by ``bits``."""
        out = {}
        for m, (re, im) in self._terms.items():
            if (m & bits).bit_count() & 1:
                out[m] = (-re, -im)
            else:
                out[m] = (re, im)
        return AlgScalar(out)

    def conj(self) -> AlgScalar:
        return AlgScalar({m: (re, -im) for m, (re, im) in self._terms.items()})

    def inverse(self) -> AlgScalar:
        """Multiplicative inverse via the Galois-conjugate cascade.

        Multiplying by sigma(x) for each radical automorphism sigma lands the
        denominator in Q(i); one complex conjugation finishes the job.
        """
        if not self._terms:
            raise ZeroDivisionError("inverse of zero")
        num = AlgScalar.one()
        den = self
        for bit in (1, 2, 4):
            if any(m & bit for m in den._terms):
                g = den.galois(bit)
                num = num * g
                den = den * g
        a, b = den._terms[0]  # den is now rational complex
        n2 = a * a + b * b
        return num * AlgScalar({0: (a / n2, -b / n2)})

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

    # ------------------------------------------------------------- comparisons

    def __eq__(self, other) -> bool:
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------- conversions

    def __complex__(self) -> complex:
        out = 0j
        for m, (re, im) in self._terms.items():
            r = math.sqrt(RADICAL[m])
            out += complex(re * r, im * r)
        return out

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m in MASK_ORDER:
            if m not in self._terms:
                continue
            re, im = self._terms[m]
            if im == 0:
                body = str(re)
            elif re == 0:
                body = f"{im}i"
            else:
                sign = "+" if im > 0 else "-"
                body = f"({re}{sign}{abs(im)}i)"
            if m:
                body += f"*sqrt{RADICAL[m]}"
            parts.append(body)
        return " + ".join(parts)


def as_scalar(c) -> AlgScalar | None:
    """``c`` as an AlgScalar when it is one, an int or a Fraction; else None."""
    if isinstance(c, AlgScalar):
        return c
    if isinstance(c, (int, Fraction)):
        return AlgScalar({0: (Fraction(c), _ZERO)})
    return None
