"""Explicit superhorizontal polynomial curves and their normal forms.

The centerpiece is a two-parameter family of degree-(4a+2b) curves whose
image spheres ramify at exactly two points with equal singularity types.
Around it the module provides the lowest-degree member as a literal, the
diagonal normal form with its positive weight system, a deformation family
with eight free parameters, and the diagonal symmetry that normalizes the
deformation back onto the two-parameter family.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from .field import RADICAL, AlgScalar, as_scalar
from .g2 import _conj, derivation, dot, exp_apply, u_basis
from .poly import Poly

_DIM = 7
_FRAME = u_basis()  # the isotropic frame u_0..u_6
_U = tuple(zip(*_FRAME))  # the rows of the matrix whose columns are the frame
_CORNERS = (AlgScalar.root(15), AlgScalar.root(6))  # (r1, r8) of ``example_family``


def _scalars(values) -> tuple[AlgScalar, ...]:
    """Each value as an AlgScalar; TypeError for one that ``as_scalar`` refuses."""
    out = tuple(as_scalar(x) for x in values)
    if any(x is None for x in out):
        raise TypeError("parameters must be AlgScalars, ints or Fractions")
    return out


def _vectors_at(curve, exps) -> tuple[tuple[AlgScalar, ...], ...]:
    """The curve's coefficient 7-vector at each exponent of ``exps``."""
    zero = AlgScalar.zero()
    return tuple(tuple(comp.terms.get(e, zero) for comp in curve) for e in exps)


def _curve_of(exps, vectors) -> tuple[Poly, ...]:
    """The curve sum_e z^e * v_e, one dict per component: ``_vectors_at`` inverted."""
    return tuple(Poly({e: v[c] for e, v in zip(exps, vectors) if v[c]}) for c in range(_DIM))


def _apply(matrix, vec) -> tuple[AlgScalar, ...]:
    """matrix * vec, with zero entries skipped."""
    return tuple(sum((m * x for m, x in zip(row, vec) if m and x), AlgScalar.zero())
                 for row in matrix)


# --------------------------------------------------------------- type patterns


class SingularityTypeSpec(namedtuple("SingularityTypeSpec", "k")):
    """Exponent gaps k = (k_1..k_6) of a two-point-ramified normal form.

    Equal ramification at both singular points forces the palindromic
    pattern (a, b, a, a, b, a), so the whole spec is the pair (a, b).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace

    def __new__(cls, k):
        if len(k) != 6 or any(not isinstance(x, int) or x < 1 for x in k):
            raise ValueError("exponent gaps must be six positive integers")
        a, b = k[0], k[1]
        if k != (a, b, a, a, b, a):
            raise ValueError("exponent gaps must follow the pattern (a, b, a, a, b, a)")
        return super().__new__(cls, k)

    @classmethod
    def from_pair(cls, k1: int, k2: int) -> SingularityTypeSpec:
        if not (isinstance(k1, int) and isinstance(k2, int)) or k1 < 1 or k2 < 1:
            raise ValueError("k1 and k2 must be positive integers")
        return cls((k1, k2, k1, k1, k2, k1))

    @property
    def k1(self) -> int:
        return self.k[0]

    @property
    def k2(self) -> int:
        return self.k[1]

    def exponents(self) -> tuple[int, ...]:
        """Partial sums (0, k_1, k_1+k_2, ...): the z-exponent ladder."""
        return tuple(accumulate(self.k, initial=0))


# ------------------------------------------------------------ explicit curves


def _diagonal(k1: int, k2: int, r1: AlgScalar, r8: AlgScalar) -> tuple[AlgScalar, ...]:
    """The coefficients c_0..c_6 of the diagonal normal form v_p = c_p * u_p."""
    den2, den3, den32 = 2 * k1 + k2, 3 * k1 + k2, 3 * k1 + 2 * k2
    r18 = r1 * r8
    return (
        Fraction(k1 * k2 * k2 * (k1 + k2), den32 * den3 * den2 * den2) * r18 * r18,
        Fraction(k1 * k2, den32 * den2) * r18 * r1,
        Fraction(k2 * (k1 + k2), den2 * den3) * r18 * r8,
        Fraction(k2, den2) * AlgScalar.root(2) * r18,
        r1, r8, AlgScalar.one(),
    )


def example_family(k1: int, k2: int) -> tuple[Poly, ...]:
    """The two-parameter superhorizontal curve, exact, in e-coordinates.

    The diagonal form v_p = c_p * u_p of ``r_family`` at r1 = sqrt15 and
    r8 = sqrt6, so each component has one or two terms, rational multiples
    of sqrt30, sqrt3, sqrt2, sqrt5.  ValueError unless k1, k2 are positive ints.
    """
    spec = SingularityTypeSpec.from_pair(k1, k2)
    return _curve_of(spec.exponents(), [tuple(c * x if x else x for x in u)
                                        for c, u in zip(_diagonal(k1, k2, *_CORNERS), _FRAME)])


def lowest_curve() -> tuple[Poly, ...]:
    """The lowest-degree two-point-ramified member, as an explicit literal.

    Degree 8; equals the (1, 2) member of ``example_family`` scaled by
    70*sqrt2 (asserted in the test suite, not assumed here).
    """
    t = AlgScalar.term
    r = AlgScalar.rational

    def im(n):
        return AlgScalar.i() * r(n)

    return (
        Poly({3: t(15, 126), 5: t(15, -70)}),
        Poly({1: t(6, 75), 7: t(6, 70)}),
        Poly({0: im(135), 8: im(70)}),
        Poly({4: t(10, 210)}),
        Poly({3: t(15, 0, -126), 5: t(15, 0, -70)}),
        Poly({1: t(6, 0, -75), 7: t(6, 0, 70)}),
        Poly({0: r(-135), 8: r(70)}),
    )


# ----------------------------------------------------------------- normal form


class NormalFormCurve(namedtuple("NormalFormCurve", "spec vectors")):
    """A curve of the shape sum_p z^(K_p) v_p.

    ``vectors`` are the seven direction vectors in e-coordinates (exact
    AlgScalar entries), ``spec`` the gap pattern generating the
    strictly increasing ladder K_0..K_6 of ``exponents``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace

    def __new__(cls, spec, vectors):
        if len(vectors) != _DIM or any(len(v) != _DIM for v in vectors):
            raise ValueError("normal form needs seven direction 7-vectors")
        exps = spec.exponents()
        if any(exps[p] >= exps[p + 1] for p in range(_DIM - 1)):
            raise ValueError("exponent ladder must be strictly increasing")
        return super().__new__(cls, spec, vectors)

    def to_curve(self) -> tuple[Poly, ...]:
        """Assemble the polynomial curve."""
        return _curve_of(self.spec.exponents(), self.vectors)


def normal_form_of(curve, spec: SingularityTypeSpec) -> NormalFormCurve:
    """Read the direction vectors of a polynomial curve off its coefficients.

    The support is first shifted down by its lowest exponent, as
    ``poly.primitive_parts`` divides out z^c: z^c f is f in CP^6.  Fails when
    the shifted support is not contained in the given exponent ladder.  On
    the ladder, a linearly full curve has seven independent vectors, one at
    each exponent, so its singularity type at 0 and at infinity is the spec's.
    """
    exps = spec.exponents()
    support = set().union(*(comp.terms for comp in curve))
    low = min(support, default=0)
    if not {e - low for e in support} <= set(exps):
        raise ValueError(f"curve support {sorted(support)} not on the ladder {exps}")
    return NormalFormCurve(spec=spec, vectors=_vectors_at(curve, [e + low for e in exps]))


# ------------------------------------------------------------------ weights


def lambda_weights(spec: SingularityTypeSpec, j: int) -> AlgScalar:
    """The positive rational weight attached to slot j of the normal form.

    Numerator: product of k_r + ... + k_s over all intervals 1<=r<=s<=6.
    Denominator: the intervals ending at j times the intervals starting at
    j+1, i.e. the "hook" products of the ladder at the split point j.
    """
    if not 0 <= j <= 6:
        raise ValueError("slot index must lie in 0..6")
    K = spec.exponents()
    num = 1
    for r in range(1, 7):
        for s in range(r, 7):
            num *= K[s] - K[r - 1]
    den = 1
    for r in range(1, j + 1):
        den *= K[j] - K[r - 1]
    for r in range(1, 7 - j):
        den *= K[7 - r] - K[j]
    return AlgScalar.rational(Fraction(num, den))


def reality_check(form: NormalFormCurve):
    """Test the pairing pattern that makes the image sphere real.

    The bilinear products of the direction vectors must vanish except on
    the antidiagonal, where (v_j, v_{6-j}) = (-1)^j * mu * lambda_j for one
    common constant mu.  Returns (ok, mu); mu is solved from the (0, 6)
    pairing and verified everywhere else, each by an exact zero test.
    """
    lam = [lambda_weights(form.spec, j) for j in range(_DIM)]
    vectors = form.vectors
    mu = dot(vectors[0], vectors[6]) / lam[0]
    for j in range(_DIM):
        for i in range(_DIM):
            want = (-1) ** j * mu * lam[j] if i == 6 - j else 0
            if dot(vectors[j], vectors[i]) - want:
                return False, mu
    return True, mu


# ----------------------------------------------------------- deformation family


class RFamilyParams(namedtuple("RFamilyParams", "r1 r2 r3 r4 r5 r6 r7 r8",
                                defaults=(0, 0, 0, 0, 0, 0, 1))):
    """Eight deformation parameters (AlgScalars, ints or Fractions); the two
    corner ones must not vanish."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.r1 == 0 or self.r8 == 0:
            raise ValueError("corner parameters r1 and r8 must be nonzero")
        return self


def r_family(spec: SingularityTypeSpec, params: RFamilyParams) -> NormalFormCurve:
    """The eight-parameter deformation of the diagonal normal form.

    The diagonal form v_p = c_p * u_p, c_p a product of powers of r1, r8 and
    a constant of (k1, k2), is ``example_family`` at sqrt15, sqrt6.  The family
    moves it by one element of the Borel subgroup of G2^C:
    v_p = c_p * exp(N_A) * exp(t * N_45) * u_p, with t = r2 / r8, N_45 the
    derivation with d45 = 1 alone, and N_A = ``g2.derivation`` of
    (r7 - q*r4, r6 - q*r5, r3, 0, r4, r5), q = sqrt2 * r3 / 4 (the
    Baker-Campbell-Hausdorff cross terms of the two factors).  So for every
    choice with nonzero corners the curve stays superhorizontal and null,
    and the six interior parameters at zero give back the diagonal
    (circle-symmetric) form.  Raises TypeError on a parameter that is not
    an AlgScalar, int or Fraction.
    """
    r1, r2, r3, r4, r5, r6, r7, r8 = _scalars(params)
    diagonal = _diagonal(spec.k1, spec.k2, r1, r8)
    q = AlgScalar.term(2, Fraction(1, 4)) * r3
    n_t = derivation(0, 0, 0, r2 / r8, 0, 0)
    n_a = derivation(r7 - q * r4, r6 - q * r5, r3, 0, r4, r5)
    moved = (exp_apply(n_a, exp_apply(n_t, {p: c})) for p, c in enumerate(diagonal))
    return NormalFormCurve(spec=spec, vectors=tuple(
        _apply(_U, [x.get(a, 0) for a in range(_DIM)]) for x in moved))


# ---------------------------------------------------------------- normalizer


def chart_scale(spec: SingularityTypeSpec, r1, r8) -> AlgScalar:
    """The positive solution r of r^n * r1 * r8 = sqrt90 (n = 2k1 + k2), exactly.

    The root is sought as s * sqrt(m) with m in ``RADICAL`` and s a positive
    rational: s^n = q / sqrt(m)^n, with q = c_3(sqrt15, sqrt6) / c_3(r1, r8)
    = sqrt90 / (r1 r8), must be a positive rational with an exact n-th root.
    When q is a rational multiple of one radical, a positive root in the
    field has this form: each of its Galois conjugates is real with the same
    n-th power up to sign, so it is the root up to sign.  Raises ValueError
    on a zero corner, as ``RFamilyParams`` does, or when no m gives a root.
    """
    n = 2 * spec.k1 + spec.k2
    r1, r8 = _scalars((r1, r8))
    if not (r1 and r8):
        raise ValueError("corner parameters r1 and r8 must be nonzero")
    q = AlgScalar.root(90) / (r1 * r8)
    for m in RADICAL:
        sqrt_m = AlgScalar.root(m)
        t = q / sqrt_m**n
        frac = t.as_fraction() if t.is_rational() and not t.coeff(0)[1] else Fraction(0)
        s = _fraction_root(frac, n) if frac > 0 else None
        if s is not None:
            return s * sqrt_m
    raise ValueError(f"no r = s*sqrt(m) > 0 has r^{n} = sqrt90 / (r1 r8) = {q!r}")


def _int_root(x: int, n: int) -> int:
    """floor(x^(1/n)) for x >= 0, by Newton's method on integers."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)  # 2^ceil(bits/n) > x^(1/n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _fraction_root(frac: Fraction, n: int) -> Fraction | None:
    """The exact positive n-th root of a positive fraction, or None."""
    num = _int_root(frac.numerator, n)
    den = _int_root(frac.denominator, n)
    if num**n == frac.numerator and den**n == frac.denominator:
        return Fraction(num, den)
    return None


def normalizer(spec: SingularityTypeSpec, r1, r8) -> tuple[tuple[AlgScalar, ...], ...]:
    """The diagonal symmetry moving the deformation corners to standard size.

    Returns the exact 7x7 matrix U*diag(d)*U^H in e-coordinates as a tuple
    of rows, U the matrix whose columns are the isotropic frame, and
    d_p = c_p(sqrt15, sqrt6) / (c_p(r1, r8) * r^(K_p)), r from ``chart_scale``
    (ValueError on a zero corner or when it finds no root), whose equation
    is d_3 = 1: the matrix fixes u_3.  Column b is U times the vector
    d_j * conj(U[b][j]).  It preserves the cross product (``g2c_membership``),
    and conjugating the diagonal deformation family by it, with the chart
    change z -> r*z, lands exactly on the two-parameter family.
    """
    r = chart_scale(spec, r1, r8)
    std, here = (_diagonal(spec.k1, spec.k2, *c) for c in (_CORNERS, _scalars((r1, r8))))
    d = [a / (b * r**e) for a, b, e in zip(std, here, spec.exponents())]
    cols = [_apply(_U, [dj * _conj(x) for dj, x in zip(d, row)]) for row in _U]
    return tuple(zip(*cols))


def transform_curve(matrix, curve) -> tuple[Poly, ...]:
    """Apply an exact 7x7 matrix to each coefficient vector of a curve."""
    exps = sorted(set().union(*(comp.terms for comp in curve)))
    return _curve_of(exps, [_apply(matrix, v) for v in _vectors_at(curve, exps)])
