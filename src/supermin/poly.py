"""Sparse exact polynomials and rational functions in z and conj(z).

Three layers, all immutable by convention:

* ``Poly``       -- holomorphic polynomials; a key is the exponent of z;
* ``BiPoly``     -- polynomials in z and zbar; a key (a, b) stands for
                    z^a * zbar^b;
* ``RationalFn`` -- quotients of BiPolys.  The only automatic simplification
                    is cancellation of a common monomial z^c * zbar^d; equality
                    is one zero test of the cross products (``products_vanish``).

Coefficients lie in Q(i, sqrt2, sqrt3, sqrt5).  ``Poly`` and ``BiPoly``
are cases of the ring core ``field._SparsePoly``, which ``AlgScalar``
shares: Python ints (re, im) per (key, mask) over one reduced
denominator, with entries in order of first appearance.  Float
evaluation sums the monomials, and each one's masks, in that order.

Constructors take {key: AlgScalar} dicts (ints and Fractions are accepted
as scalars).  ``terms`` is the read-only {key: AlgScalar} view of a
polynomial, built on first use, and the one way to read a coefficient.
Sums and equality take the same class only; a product also takes an int,
a Fraction or an AlgScalar, from either side.  A Poly never meets a
BiPoly implicitly.

Every float value comes from one kernel, ``evaluate``.  ``float_terms``
converts the coefficients once, scaled by an exact 2^-k taken from the
bit lengths of the numerators and the denominator, so no curve is too
large or too small to convert and the floats of 2^j * p are those of p.
The kernel holds complex values as (re, im) pairs of real float64 arrays:
each product and sum is a separate, once-rounded real ufunc, with no
complex-dtype multiply (numpy's AVX2/FMA loop rounds it differently from
its SSE2 loop) and no BLAS.  It forms the powers of z once per block of
points, shared by every polynomial of the call, in the order CPython's
``z**e`` forms them (exponents up to 100), and adds the terms of each
polynomial in stored order, as ``out = out + c * z**e`` would.  So its
bytes depend neither on the CPU nor on where the blocks fall.  With
``real_only`` it skips the imaginary sums, which leaves every real one
as it was.  A single point, given as two floats, runs the same term loop
on Python floats, with no numpy, and gets the bits of a one-element array.
"""

from __future__ import annotations

import math
import operator

from .field import _mul_into, _settled, _SparsePoly, products_vanish

# points per power table of the float kernel; bounds its memory
BLOCK = 2048


def _add_pairs(k1, k2):
    return (k1[0] + k2[0], k1[1] + k2[1])


def _pair(a, b):
    return (a, b)


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

    def diff(self) -> Poly:
        return Poly._of(
            {(e - 1, m): (re * e, im * e) for (e, m), (re, im) in self._num.items() if e},
            self._den,
        )

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
        """Evaluate at a complex number or an array of them."""
        return _unscaled(self, z)

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

    # the core's operator: perfbench/tracer.py wraps it by name in this class
    __mul__ = _SparsePoly.__mul__

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
        return _unscaled(self, z)

    def __repr__(self) -> str:
        if not self._num:
            return "BiPoly(0)"
        bits = [f"({self.terms[k]!r})*z^{k[0]}*zb^{k[1]}" for k in sorted(self.terms)]
        return " + ".join(bits)


# ------------------------------------------------------------- float kernel


def _powers(zr, zi, exps) -> dict:
    """{e: (re, im)} of z^e for e in ``exps``, each formed as CPython forms z**e.

    CPython's integer power (exponents up to 100) multiplies r = 1 by the
    squares z^(2^t) of the set bits of e, lowest bit first, each product
    (r.re*p.re - r.im*p.im, r.re*p.im + r.im*p.re).  So z^e is z^(e - 2^t)
    times z^(2^t), t the top bit of e; only the exponents on these chains
    get a row, so a sparse polynomial of huge degree costs little.  z^0 is
    the floats (1.0, 0.0), which broadcast over arrays to the same bits.
    """
    table = {0: (1.0, 0.0)}
    squares = [(zr, zi)]
    for e in sorted(exps):
        low, t = 0, 0
        while low != e:
            if t == len(squares):
                sr, si = squares[-1]
                squares.append((sr * sr - si * si, sr * si + si * sr))
            if e >> t & 1:
                high = low + (1 << t)
                if high not in table:
                    (lr, li), (sr, si) = table[low], squares[t]
                    table[high] = (lr * sr - li * si, lr * si + li * sr)
                low = high
            t += 1
    return table


def _add_terms(terms, pw, accr, acci):
    """accr + i*acci plus the terms (key, cr, ci) of ``float_terms`` at the
    powers ``pw``, added in stored order; arrays are added to in place and
    floats rebound.  With ``acci`` None the imaginary parts are skipped."""
    for key, cr, ci in terms:
        if type(key) is tuple:
            (ar, ai), (br, bi) = pw[key[0]], pw[key[1]]
            ur = cr * ar - ci * ai
            ui = cr * ai + ci * ar
            accr += ur * br + ui * bi
            if acci is not None:
                acci += ui * br - ur * bi
        else:
            ar, ai = pw[key]
            accr += cr * ar - ci * ai
            if acci is not None:
                acci += cr * ai + ci * ar
    return accr, acci


def evaluate(polys, zr, zi, *, real_only: bool = False) -> list[tuple]:
    """Values of Polys or BiPolys at the points z = zr + i*zi.

    ``zr`` and ``zi`` are real arrays of one shape, or two floats for a
    single point, which is evaluated without numpy.  For each polynomial
    the result is (re, im, k): its values times 2^-k, k from
    ``float_terms``.  A Poly term c*z^e is c times the power; a BiPoly term
    c*z^a*zbar^b is (c times z^a) times conj(z^b).  Array points are taken
    in blocks of ``BLOCK``, each with one power table for all ``polys``; a
    single point is the same sums of the same products, in floats.

    With ``real_only`` (for callers that read only real parts, such as
    the real Gram determinants) the imaginary parts are neither summed
    nor allocated, and ``im`` is None.  Each real part is the same sum of
    the same products in the same order, so its bytes are those of the
    full evaluation.
    """
    conv = [p.float_terms() for p in polys]
    exps = {e for _, terms in conv for key, _, _ in terms
            for e in (key if type(key) is tuple else (key,))}
    if isinstance(zr, float):
        pw = _powers(zr, zi, exps)
        return [(*_add_terms(terms, pw, 0.0, None if real_only else 0.0), k)
                for k, terms in conv]
    import numpy as np
    zr = np.asarray(zr, dtype=float)
    zi = np.asarray(zi, dtype=float)
    shape, fr, fi = zr.shape, zr.ravel(), zi.ravel()
    out = [(np.zeros(fr.size), None if real_only else np.zeros(fr.size)) for _ in polys]
    for lo in range(0, fr.size, BLOCK):
        pw = _powers(fr[lo:lo + BLOCK], fi[lo:lo + BLOCK], exps)
        for (_, terms), (vr, vi) in zip(conv, out):
            _add_terms(terms, pw, vr[lo:lo + BLOCK], None if vi is None else vi[lo:lo + BLOCK])
    return [(vr.reshape(shape), None if vi is None else vi.reshape(shape), k)
            for (k, _), (vr, vi) in zip(conv, out)]


def one_scale(values) -> tuple[list, list]:
    """Results of ``evaluate`` brought to their largest 2^-k: (re rows, im rows).

    Multiplying by a power of two is exact, so projective quantities of
    the rows (a sphere point, a ratio of components) are unchanged.
    """
    import numpy as np
    top = max((k for _, _, k in values), default=0)
    return ([np.ldexp(re, k - top) for re, _, k in values],
            [np.ldexp(im, k - top) for _, im, k in values])


def as_complex(re, im):
    """The complex array re + i*im, assembled without arithmetic."""
    import numpy as np
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _unscaled(p: _SparsePoly, z):
    """p(z) as a complex number, or a complex array for an array z."""
    import numpy as np
    z = np.asarray(z, dtype=complex)
    re, im, k = evaluate((p,), z.real, z.imag)[0]
    out = as_complex(np.ldexp(re, k), np.ldexp(im, k))
    return complex(out) if out.ndim == 0 else out


def hermitian_sum(terms) -> BiPoly:
    """The BiPoly sum of sign * u(z) * conj(v(z)) over (sign, u, v) in terms.

    ``u`` and ``v`` are Polys and ``sign`` is 1 or -1.  All products are
    added into one table over a common denominator, with no BiPoly formed
    for any of them.
    """
    terms = list(terms)
    den = math.lcm(*(u._den * v._den for _, u, v in terms))
    out: dict = {}
    for sign, u, v in terms:
        f = sign * (den // (u._den * v._den))
        num = {km: (re * f, im * f) for km, (re, im) in u._num.items()}
        vbar = {km: (re, -im) for km, (re, im) in v._num.items()}
        _mul_into(out, num, vbar, _pair)
    return BiPoly._of(_settled(out), den)


def primitive_parts(polys: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """``polys`` divided by the gcd of all their integer numerators and by
    z^c, c the least order at z = 0 among them: one exact scalar and one
    monomial, so every projective quantity of the tuple is kept."""
    g = math.gcd(*(x for p in polys for pair in p._num.values() for x in pair)) or 1
    c = min((e for p in polys for e, _ in p._num), default=0)
    return tuple(Poly._of({(e - c, m): (re // g, im // g) for (e, m), (re, im) in p._num.items()},
                          p._den) for p in polys)


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
        return products_vanish([(1, self.num, other.den), (-1, other.num, self.den)])

    # nothing in src/ calls it: perfbench/tracer.py wraps it by name.
    def __call__(self, z):
        return self.num(z) / self.den(z)

    def __repr__(self) -> str:
        return f"RationalFn({self.num!r}, {self.den!r})"
