"""Sparse exact polynomials and rational functions in z and conj(z).

Three layers, all dict-keyed and immutable by convention:

* ``Poly``       -- holomorphic polynomials, terms {exponent: AlgScalar};
* ``BiPoly``     -- polynomials in z and zbar, terms {(a, b): AlgScalar}
                    standing for z^a * zbar^b;
* ``RationalFn`` -- quotients of BiPolys.  The only automatic simplification
                    is cancellation of a common monomial z^c * zbar^d; genuine
                    identities are always tested by cross-multiplication.

``Poly`` and ``BiPoly`` share the ring operations that do not depend on
the shape of a key; each writes its own product.
"""

from __future__ import annotations

from .field import AlgScalar, as_scalar

_ZERO = AlgScalar.zero()


class _SparsePoly:
    """Terms {key: AlgScalar} with zero coefficients dropped.

    Sums, differences and equality are defined only between two
    polynomials of the same class; a Poly never meets a BiPoly implicitly.
    """

    __slots__ = ("terms", "_ceval")

    _CONST_KEY: object  # the key of the constant term

    def __init__(self, terms: dict | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}
        self._ceval = None

    @classmethod
    def const(cls, c):
        s = as_scalar(c)
        if s is None:
            raise TypeError(f"not a scalar: {c!r}")
        return cls({cls._CONST_KEY: s})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def _scale(self, other):
        """The product with a scalar; NotImplemented for anything else."""
        s = as_scalar(other)
        if s is None:
            return NotImplemented
        return type(self)({k: c * s for k, c in self.terms.items()})

    __rmul__ = _scale

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class Poly(_SparsePoly):
    """Polynomial in z over Q(i, sqrt2, sqrt3, sqrt5)."""

    __slots__ = ()
    _CONST_KEY = 0

    @classmethod
    def monomial(cls, exp: int, c=1) -> Poly:
        return cls({exp: as_scalar(c)})

    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return max(self.terms) if self.terms else -1

    def ord(self) -> int:
        """Order of vanishing at z = 0; zero polynomial gives -1."""
        return min(self.terms) if self.terms else -1

    def __mul__(self, other) -> Poly:
        if type(other) is not Poly:
            return self._scale(other)
        out: dict[int, AlgScalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                p = c1 * c2
                out[e] = out[e] + p if e in out else p
        return Poly(out)

    def diff(self) -> Poly:
        return Poly({e - 1: c * e for e, c in self.terms.items() if e})

    def scale_arg(self, r) -> Poly:
        """The polynomial p(r*z)."""
        s = as_scalar(r)
        if s is None:
            raise TypeError(f"not a scalar: {r!r}")
        powers: dict[int, AlgScalar] = {0: AlgScalar.one()}
        top = self.degree()
        for e in range(1, top + 1):
            powers[e] = powers[e - 1] * s
        return Poly({e: c * powers[e] for e, c in self.terms.items()})

    def reverse(self, total: int) -> Poly:
        """z^total * p(1/z); ``total`` must cover the degree."""
        if self.terms and total < self.degree():
            raise ValueError("reversal exponent smaller than degree")
        return Poly({total - e: c for e, c in self.terms.items()})

    def conj_factor(self) -> BiPoly:
        """The conjugate polynomial conj(p(z)) as a BiPoly in zbar."""
        return BiPoly({(0, e): c.conj() for e, c in self.terms.items()})

    def to_bipoly(self) -> BiPoly:
        return BiPoly({(e, 0): c for e, c in self.terms.items()})

    def __call__(self, z):
        if self._ceval is None:
            self._ceval = [(e, complex(c)) for e, c in self.terms.items()]
        out = 0j
        for e, c in self._ceval:
            out = out + c * z**e
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = [f"({self.terms[e]!r})*z^{e}" for e in sorted(self.terms)]
        return " + ".join(bits)


class BiPoly(_SparsePoly):
    """Polynomial in z and zbar; keys are (power of z, power of zbar)."""

    __slots__ = ()
    _CONST_KEY = (0, 0)

    @classmethod
    def one(cls) -> BiPoly:
        return cls({(0, 0): AlgScalar.one()})

    def __mul__(self, other) -> BiPoly:
        if type(other) is not BiPoly:
            return self._scale(other)
        out: dict[tuple[int, int], AlgScalar] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                p = c1 * c2
                out[k] = out[k] + p if k in out else p
        return BiPoly(out)

    def conj(self) -> BiPoly:
        return BiPoly({(b, a): c.conj() for (a, b), c in self.terms.items()})

    def diff_z(self) -> BiPoly:
        return BiPoly({(a - 1, b): c * a for (a, b), c in self.terms.items() if a})

    def diff_zbar(self) -> BiPoly:
        return BiPoly({(a, b - 1): c * b for (a, b), c in self.terms.items() if b})

    def reverse(self, total: int) -> BiPoly:
        """z^total * zbar^total * p(1/z, 1/zbar); total must cover the degrees."""
        out = {(total - a, total - b): c for (a, b), c in self.terms.items()}
        if any(a < 0 or b < 0 for a, b in out):
            raise ValueError("reversal exponent smaller than degree")
        return BiPoly(out)

    def content(self) -> tuple[int, int]:
        """Largest (c, d) with z^c * zbar^d dividing every term."""
        if not self.terms:
            return (0, 0)
        return (min(a for a, _ in self.terms), min(b for _, b in self.terms))

    def shift_down(self, c: int, d: int) -> BiPoly:
        return BiPoly({(a - c, b - d): v for (a, b), v in self.terms.items()})

    def __call__(self, z):
        """Evaluate at a complex number or an array of them (zbar = conj z)."""
        if self._ceval is None:
            self._ceval = [(a, b, complex(c)) for (a, b), c in self.terms.items()]
        zb = z.conjugate()
        out = 0j
        for a, b, c in self._ceval:
            out = out + c * z**a * zb**b
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "BiPoly(0)"
        bits = [f"({self.terms[k]!r})*z^{k[0]}*zb^{k[1]}" for k in sorted(self.terms)]
        return " + ".join(bits)


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

        Raises ValueError when no such scalar exists.
        """
        if self.num.is_zero():
            return AlgScalar.zero()
        key = next(iter(self.den.terms))
        c = self.num.terms.get(key, _ZERO) * self.den.terms[key].inverse()
        if (self.num - self.den * c).is_zero():
            return c
        raise ValueError("rational function is not constant")

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
    lead = b.terms[db].inverse()
    while r and r.degree() >= db:
        dr = r.degree()
        c = r.terms[dr] * lead
        q[dr - db] = c
        r = r - b * Poly({dr - db: c})
    return Poly(q), r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials over the exact field."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        a = a * a.terms[a.degree()].inverse()
    return a
