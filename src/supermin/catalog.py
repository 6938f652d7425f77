"""Explicit superhorizontal polynomial curves and their normal forms.

The centerpiece is a two-parameter family of degree-(4a+2b) curves whose
image spheres ramify at exactly two points with equal singularity types.
Around it the module provides the lowest-degree member as a literal, the
diagonal normal form with its positive weight system, a deformation family
with eight free parameters, and the diagonal symmetry that normalizes the
deformation back onto the two-parameter family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import AlgScalar, as_scalar
from .g2 import _conj, add_vec, dot, hdot, scale_vec, u_basis
from .poly import Poly

_DIM = 7
# float tolerances of reality_check (relative) and is_circle_symmetric
_REALITY_TOL = 1e-9
_CIRCLE_TOL = 1e-12


def _nonzero(x, tol: float) -> bool:
    """Exact test for an AlgScalar, |x| > tol for a float."""
    return bool(x) if isinstance(x, AlgScalar) else abs(x) > tol


# --------------------------------------------------------------- type patterns


@dataclass(frozen=True)
class SingularityTypeSpec:
    """Exponent gaps (k_1..k_6) of a two-point-ramified normal form.

    Equal ramification at both singular points forces the palindromic
    pattern (a, b, a, a, b, a), so the whole spec is the pair (a, b).
    """

    k: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.k) != 6 or any(not isinstance(x, int) or x < 1 for x in self.k):
            raise ValueError("exponent gaps must be six positive integers")
        a, b = self.k[0], self.k[1]
        if self.k != (a, b, a, a, b, a):
            raise ValueError("exponent gaps must follow the pattern (a, b, a, a, b, a)")

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
        out = [0]
        for gap in self.k:
            out.append(out[-1] + gap)
        return tuple(out)


# ------------------------------------------------------------ explicit curves


def example_family(k1: int, k2: int) -> tuple[Poly, ...]:
    """The two-parameter superhorizontal curve, exact, in e-coordinates.

    Each component is a one- or two-term polynomial; the coefficients are
    rational multiples of sqrt30, sqrt3, sqrt2, sqrt5 chosen so that the
    curve is null for the bilinear form and its tangent is everywhere
    cross-product-degenerate against the curve itself.
    """
    if not (isinstance(k1, int) and isinstance(k2, int)) or k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be positive integers")
    a = AlgScalar.term(30, Fraction(3 * k2 * (k1 + k2), (3 * k1 + k2) * (2 * k1 + k2)))
    b = AlgScalar.term(3, Fraction(15 * k1 * k2, (3 * k1 + 2 * k2) * (2 * k1 + k2)))
    c_im = Fraction(
        45 * k1 * k2 * k2 * (k1 + k2),
        (3 * k1 + 2 * k2) * (3 * k1 + k2) * (2 * k1 + k2) ** 2,
    )
    c = AlgScalar.term(2, 0, c_im)
    d = AlgScalar.term(5, Fraction(6 * k2, 2 * k1 + k2))
    half = Fraction(1, 2)
    i_ = AlgScalar.i()
    return (
        Poly({k1 + k2: a, 3 * k1 + k2: AlgScalar.term(30, -half)}),
        Poly({k1: b, 3 * k1 + 2 * k2: AlgScalar.term(3, 1)}),
        Poly({0: c, 4 * k1 + 2 * k2: AlgScalar.term(2, 0, half)}),
        Poly({2 * k1 + k2: d}),
        Poly({k1 + k2: -i_ * a, 3 * k1 + k2: AlgScalar.term(30, 0, -half)}),
        Poly({k1: -i_ * b, 3 * k1 + 2 * k2: AlgScalar.term(3, 0, 1)}),
        Poly({0: AlgScalar.term(2, -c_im), 4 * k1 + 2 * k2: AlgScalar.term(2, half)}),
    )


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


@dataclass(frozen=True)
class NormalFormCurve:
    """A curve of the shape sum_p z^(K_p) v_p.

    ``vectors`` are the seven direction vectors in e-coordinates (entries
    exact AlgScalar or complex), ``spec`` the gap pattern generating the
    strictly increasing ladder K_0..K_6 of ``exponents``.
    """

    spec: SingularityTypeSpec
    vectors: tuple[tuple, ...]

    def __post_init__(self):
        if len(self.vectors) != _DIM or any(len(v) != _DIM for v in self.vectors):
            raise ValueError("normal form needs seven direction 7-vectors")
        exps = self.spec.exponents()
        if any(exps[p] >= exps[p + 1] for p in range(_DIM - 1)):
            raise ValueError("exponent ladder must be strictly increasing")

    @property
    def exponents(self) -> tuple[int, ...]:
        return self.spec.exponents()

    def is_exact(self) -> bool:
        return all(isinstance(c, AlgScalar) for v in self.vectors for c in v)

    def to_curve(self) -> tuple[Poly, ...]:
        """Assemble the polynomial curve (exact entries required)."""
        if not self.is_exact():
            raise TypeError("normal form has float entries; use evaluate() instead")
        comps = [Poly() for _ in range(_DIM)]
        for exp, v in zip(self.exponents, self.vectors):
            term = Poly.monomial(exp)
            for c in range(_DIM):
                comps[c] = comps[c] + term * Poly.const(v[c])
        return tuple(comps)

    def evaluate(self, z: complex) -> np.ndarray:
        """Float value of the curve at z (works for float parameter data)."""
        out = np.zeros(_DIM, dtype=complex)
        for exp, v in zip(self.exponents, self.vectors):
            out += z**exp * np.array([complex(c) for c in v])
        return out

    def derivative_value(self, z: complex) -> np.ndarray:
        out = np.zeros(_DIM, dtype=complex)
        for exp, v in zip(self.exponents, self.vectors):
            if exp:
                out += exp * z ** (exp - 1) * np.array([complex(c) for c in v])
        return out

    def is_circle_symmetric(self) -> bool:
        """True when the direction vectors are mutually hermitian-orthogonal,
        which makes the curve invariant under rotations of z up to symmetry."""
        return not any(
            _nonzero(hdot(self.vectors[i], self.vectors[j]), _CIRCLE_TOL)
            for i in range(_DIM)
            for j in range(i + 1, _DIM)
        )


def normal_form_of(curve, spec: SingularityTypeSpec) -> NormalFormCurve:
    """Read the direction vectors of a polynomial curve off its coefficients.

    Fails when the curve's support is not contained in the given exponent
    ladder.
    """
    exps = spec.exponents()
    support = set()
    for comp in curve:
        support |= set(comp.terms)
    if not support <= set(exps):
        raise ValueError(f"curve support {sorted(support)} not on the ladder {exps}")
    vectors = tuple(
        tuple(comp.terms.get(exp, AlgScalar.zero()) for comp in curve) for exp in exps
    )
    return NormalFormCurve(spec=spec, vectors=vectors)


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
    pairing and verified everywhere else.  Exact vectors are tested
    exactly, float vectors to a tolerance relative to the largest entry.
    """
    lam = [lambda_weights(form.spec, j) for j in range(_DIM)]
    if not form.is_exact():
        lam = [complex(x) for x in lam]
    vectors = form.vectors
    mu = dot(vectors[0], vectors[6]) / lam[0]
    scale = max(abs(complex(c)) for v in vectors for c in v) ** 2
    if scale == 0.0:
        scale = 1.0
    for j in range(_DIM):
        for i in range(_DIM):
            want = (-1) ** j * mu * lam[j] if i == 6 - j else 0
            if _nonzero(dot(vectors[j], vectors[i]) - want, _REALITY_TOL * scale):
                return False, mu
    return True, mu


# ----------------------------------------------------------- deformation family


@dataclass(frozen=True)
class RFamilyParams:
    """Eight deformation parameters; the two corner ones must not vanish."""

    r1: object
    r2: object = 0
    r3: object = 0
    r4: object = 0
    r5: object = 0
    r6: object = 0
    r7: object = 0
    r8: object = 1

    def __post_init__(self):
        if self.r1 == 0 or self.r8 == 0:
            raise ValueError("corner parameters r1 and r8 must be nonzero")

    def as_tuple(self) -> tuple:
        return (self.r1, self.r2, self.r3, self.r4, self.r5, self.r6, self.r7, self.r8)

    def is_exact(self) -> bool:
        return all(
            isinstance(r, (AlgScalar, int, Fraction)) for r in self.as_tuple()
        )


def r_family(spec: SingularityTypeSpec, params: RFamilyParams) -> NormalFormCurve:
    """The eight-parameter deformation of the diagonal normal form.

    The direction vectors are explicit combinations of the isotropic frame
    whose coefficients are polynomial in the parameters; for every choice
    with nonzero corners the resulting curve stays superhorizontal and
    null.  Setting the six interior parameters to zero gives back a
    diagonal (circle-symmetric) form.
    """
    k1, k2 = spec.k1, spec.k2
    if params.is_exact():
        r1, r2, r3, r4, r5, r6, r7, r8 = (as_scalar(x) for x in params.as_tuple())
        sqrt2, basis = AlgScalar.root(2), u_basis()
    else:
        r1, r2, r3, r4, r5, r6, r7, r8 = (complex(x) for x in params.as_tuple())
        sqrt2 = complex(np.sqrt(2.0))
        basis = tuple(tuple(complex(c) for c in u) for u in u_basis())
    # a Fraction times an AlgScalar stays exact, times a complex is n/d in float
    rat, half = Fraction, Fraction(1, 2)
    den2 = (2 * k1 + k2)
    den3 = (3 * k1 + k2)
    den32 = (3 * k1 + 2 * k2)
    combos = (
        ((rat(k1 * k2 * k2 * (k1 + k2), den32 * den3 * den2 * den2) * r1 * r1 * r8 * r8, 0),),
        (
            (rat(k1 * k2, den32 * den2) * r1 * r1 * r8 * r5, 0),
            (rat(k1 * k2, den32 * den2) * r1 * r1 * r8, 1),
        ),
        (
            (rat(k2 * (k1 + k2), den2 * den3) * r1 * r8 * (r2 * r5 - r4 * r8), 0),
            (rat(k2 * (k1 + k2), den2 * den3) * r1 * r8 * r2, 1),
            (rat(k2 * (k1 + k2), den2 * den3) * r1 * r8 * r8, 2),
        ),
        (
            (rat(k2, den2) * r1 * r8 * sqrt2 * r3, 0),
            (rat(k2, den2) * r1 * r8 * 2 * r4, 1),
            (rat(k2, den2) * r1 * r8 * 2 * r5, 2),
            (rat(k2, den2) * r1 * r8 * sqrt2, 3),
        ),
        (
            (half * r1 * (sqrt2 * r3 * r5 - 2 * r6), 0),
            (half * r1 * (2 * r4 * r5 - sqrt2 * r3), 1),
            (r1 * r5 * r5, 2),
            (sqrt2 * r1 * r5, 3),
            (r1, 4),
        ),
        (
            (half * sqrt2 * (r2 * r3 * r5 - r3 * r4 * r8) + r7 * r8 - r2 * r6, 0),
            (r2 * r4 * r5 - half * sqrt2 * r2 * r3 - r4 * r4 * r8, 1),
            (r2 * r5 * r5 - half * sqrt2 * r3 * r8 - r4 * r5 * r8, 2),
            (sqrt2 * (r2 * r5 - r4 * r8), 3),
            (r2, 4),
            (r8, 5),
        ),
        (
            (r5 * r7 + half * r3 * r3 - r4 * r6, 0),
            (r7, 1),
            (r6, 2),
            (r3, 3),
            (r4, 4),
            (r5, 5),
            (1, 6),
        ),
    )
    vectors = []
    for combo in combos:
        vec = None
        for coeff, q in combo:
            term = scale_vec(coeff, basis[q])
            vec = term if vec is None else add_vec(vec, term)
        vectors.append(vec)
    return NormalFormCurve(spec=spec, vectors=tuple(vectors))


# ---------------------------------------------------------------- normalizer


def chart_scale(spec: SingularityTypeSpec, r1, r8):
    """The positive solution r of r^(2k1+k2) * r1 * r8 = sqrt90.

    Exact when sqrt90 / (r1 r8) is a rational with an exact integer-power
    root; otherwise the principal float root, with a warning.
    """
    n = 2 * spec.k1 + spec.k2
    if isinstance(r1, AlgScalar) and isinstance(r8, AlgScalar):
        q = AlgScalar.root(90) * (r1 * r8).inverse()
        frac = q.as_fraction() if q.is_rational() and not q.coeff(0)[1] else Fraction(0)
        if frac > 0:
            root = _fraction_root(frac, n)
            if root is not None:
                return AlgScalar.rational(root)
        warnings.warn(
            "chart scale is not exactly representable; falling back to float",
            stacklevel=2,
        )
        if frac > 0:
            # logarithms of the integers stay finite where float(frac) overflows
            log_q = math.log(frac.numerator) - math.log(frac.denominator)
            return complex(math.exp(log_q / n))
        q = complex(q)
    else:
        q = complex(AlgScalar.root(90)) / (complex(r1) * complex(r8))
    return q ** (1.0 / n)


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


def normalizer(spec: SingularityTypeSpec, r1, r8):
    """The diagonal symmetry moving the deformation corners to standard size.

    Returns a 7x7 matrix in e-coordinates, diagonal in the isotropic frame
    with entries fixed by the corner parameters and the chart scale.  The
    matrix preserves the cross product (membership is testable via
    ``g2c_membership``), and conjugating the diagonal deformation family by
    it, together with the chart change z -> r*z, lands exactly on the
    two-parameter family.
    """
    r = chart_scale(spec, r1, r8)
    k1, k2 = spec.k1, spec.k2
    exact = isinstance(r, AlgScalar) and isinstance(r1, AlgScalar) and isinstance(r8, AlgScalar)
    if exact:
        root, zero, basis = AlgScalar.root, AlgScalar.zero(), u_basis()
    else:
        r, r1, r8 = complex(r), complex(r1), complex(r8)
        root, zero = math.sqrt, 0j
        basis = [[complex(c) for c in u] for u in u_basis()]
    d = (
        90 / (r1 * r1 * r8 * r8),
        15 * root(6) / (r**k1 * r1 * r1 * r8),
        6 * root(15) / (r ** (k1 + k2) * r1 * r8 * r8),
        root(90) / (r ** (2 * k1 + k2) * r1 * r8),
        root(15) / (r ** (3 * k1 + k2) * r1),
        root(6) / (r ** (3 * k1 + 2 * k2) * r8),
        1 / r ** (4 * k1 + 2 * k2),
    )
    mat = [[zero] * _DIM for _ in range(_DIM)]
    for dj, u in zip(d, basis):
        for a in range(_DIM):
            if not u[a]:
                continue
            row = dj * u[a]
            for b in range(_DIM):
                if u[b]:
                    mat[a][b] = mat[a][b] + row * _conj(u[b])
    out = tuple(tuple(row) for row in mat)
    return out if exact else np.array(out)


def transform_curve(matrix, curve) -> tuple[Poly, ...]:
    """Apply an exact 7x7 matrix to each coefficient vector of a curve."""
    exps = set()
    for comp in curve:
        exps |= set(comp.terms)
    comps = [dict() for _ in range(_DIM)]
    for e in exps:
        vec = tuple(comp.terms.get(e, AlgScalar.zero()) for comp in curve)
        for a in range(_DIM):
            acc = AlgScalar.zero()
            for b in range(_DIM):
                if matrix[a][b] and vec[b]:
                    acc = acc + matrix[a][b] * vec[b]
            if acc:
                comps[a][e] = acc
    return tuple(Poly(c) for c in comps)
