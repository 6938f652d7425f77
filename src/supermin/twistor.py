"""The twistor fibration from the 5-quadric onto the 6-sphere.

A point of the quadric is a complex line [x] in C^7 with (x, x) = 0 (bilinear
product).  The fibration and its differential are

    project([x])        = (i/|x|^2) * (xbar cross x)
    pushforward_x(v)    = (i/|x|^2) * (xbar cross v  -  x cross vbar)

for tangent representatives v with (v, x) = 0 and <v, x> = 0.  The tangent
space splits as  V + H' + D:  the vertical space V (kernel of the
pushforward) is cut out by  x cross vbar = 0, the superhorizontal space H' by
x cross v = 0, and D is the rest of the horizontal space, spanned by the base
point itself seen as a complex tangent vector.  In closed form, with
x = lambda (a + ib), a and b real orthonormal and c = a cross b: H' is
{w + i (w cross c) : w perp a, b, c}, V its conjugate, D the line of c.

Fubini-Study lengths are normalized as ||v|| = 2|v| / |x|, so the pushforward
preserves lengths on H' and contracts by sqrt(2) on D.
"""

from __future__ import annotations

from collections import namedtuple

from .field import AlgScalar
from .g2 import CROSS_TERMS, cross, dot, hdot, scale_vec

_REL_TOL = 1e-9


def _is_exact(x) -> bool:
    return isinstance(x[0], AlgScalar)


class QuadricPoint(namedtuple("QuadricPoint", "x")):
    """Homogeneous coordinates of a quadric point, kept as a numpy vector."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace

    def __new__(cls, x):
        import numpy as np
        v = np.asarray(x, dtype=complex)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("zero vector does not define a projective point")
        if abs(np.dot(v, v)) > _REL_TOL * n * n:
            raise ValueError("point does not satisfy the quadric equation")
        return super().__new__(cls, v)


# Orthonormal bases of the three tangent distributions at a point: vertical
# and superhorizontal of shape (2, 7), horizontal_rest of shape (1, 7).
TangentSplit = namedtuple("TangentSplit", "vertical superhorizontal horizontal_rest")


def project(x):
    """Image of [x] on the unit 6-sphere.

    Exact vectors (AlgScalar entries) stay exact; anything else goes through
    numpy, imported on first use, and comes back as a real float 7-vector.
    """
    if _is_exact(x):
        xbar = tuple(c.conj() for c in x)
        scale = AlgScalar.i() * hdot(x, x).inverse()
        return scale_vec(scale, cross(xbar, x))
    import numpy as np
    v = np.asarray(x, dtype=complex)
    return project_arrays(v.real, v.imag)


def project_arrays(xr, xi):
    """``project`` of many points, each x given as 7 real and 7 imaginary
    parts (sequences of equal-shape real arrays); returns shape (points, 7).

    Component k of (i/|x|^2) * (conj(x) cross x) is -2/|x|^2 times the sum,
    over the (sign, i, j) of CROSS_TERMS[k] with i < j, of
    sign * Im(conj(x_i) x_j) = sign * (re_i im_j - re_j im_i): real products
    and sums only, in table order.
    """
    import numpy as np
    sq = xr[0] * xr[0] + xi[0] * xi[0]
    for a, b in zip(xr[1:], xi[1:]):
        sq = sq + (a * a + b * b)
    out = [np.zeros_like(sq) for _ in range(7)]
    for acc, comp in zip(out, CROSS_TERMS):
        for sign, i, j in comp:
            if i < j:
                im_ij = xr[i] * xi[j] - xr[j] * xi[i]
                if sign > 0:
                    acc -= im_ij
                else:
                    acc += im_ij
    return np.stack([2.0 * v / sq for v in out], axis=-1)


def pushforward(x, v):
    """Differential of the fibration at [x] applied to a tangent vector v."""
    if _is_exact(x):
        xbar = tuple(c.conj() for c in x)
        vbar = tuple(c.conj() for c in v)
        scale = AlgScalar.i() * hdot(x, x).inverse()
        diff = [a - b for a, b in zip(cross(xbar, v), cross(x, vbar))]
        return scale_vec(scale, diff)
    import numpy as np
    xf = np.asarray(x, dtype=complex)
    vf = np.asarray(v, dtype=complex)
    out = np.array(cross(xf.conjugate(), vf)) - np.array(cross(xf, vf.conjugate()))
    return 1j * out / np.vdot(xf, xf).real


def fs_norm(x, v) -> float:
    """Fubini-Study length of a tangent representative."""
    import numpy as np
    xf = np.asarray(x, dtype=complex)
    vf = np.asarray(v, dtype=complex)
    return 2.0 * np.linalg.norm(vf) / np.linalg.norm(xf)


def split_tangent(point: QuadricPoint) -> TangentSplit:
    """Orthonormal bases of V, H' and D at the given quadric point.

    x is a complex multiple of a + ib: a = Re x / |Re x|, b = Im x less its
    a part, normalized (so the bases stay orthonormal at a nearly null x).
    D is the line of c = a x b = -project(x).  Cross products with a, b, c
    act on W = {a, b, c}^perp as a quaternionic triple, so H' has the basis
    (w + i (w x c)) / sqrt2 for w = u and a x u, u the standard axis least
    in span {a, b, c} less its a, b, c parts (squared norm at least 4/7),
    normalized; V is the conjugate of H'.  Elementwise only: no BLAS call.
    """
    import numpy as np

    def unit(v):
        return v / np.sqrt((v * v).sum())

    x = point.x
    a = unit(x.real)
    b = unit(x.imag - (x.imag * a).sum() * a)
    c = np.array(cross(a, b))
    j = np.argmin(a * a + b * b + c * c)
    u = unit(np.eye(7)[j] - (a[j] * a + b[j] * b + c[j] * c))
    hp = np.array([w + 1j * np.array(cross(w, c)) for w in (u, np.array(cross(a, u)))])
    hp /= np.sqrt(2.0)
    return TangentSplit(hp.conjugate(), hp, c[None].astype(complex))


def random_quadric_point(rng) -> QuadricPoint:
    """Random [a + ib] with a, b random orthonormal vectors of R^7."""
    import numpy as np
    a = rng.standard_normal(7)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(7)
    b -= np.dot(b, a) * a
    b /= np.linalg.norm(b)
    return QuadricPoint(a + 1j * b)


def lemma_checks(point: QuadricPoint) -> dict:
    """Measured metric and linearity behaviour of the pushforward at a point.

    Returns the length ratios |dpi(v)| / ||v|| on H' and on D, and the
    residuals of complex linearity on H' (dpi(iv) = J dpi(v), J = base cross)
    and of anti-linearity on D (dpi(iv) = -J dpi(v)).
    """
    import numpy as np
    x = point.x
    split = split_tangent(point)
    base = project(x)

    def J(w):
        return np.array(cross(base.astype(complex), w))

    ratios_h, lin_resid = [], 0.0
    for v in split.superhorizontal:
        dv = pushforward(x, v)
        ratios_h.append(np.linalg.norm(dv) / fs_norm(x, v))
        lin_resid = max(lin_resid, np.linalg.norm(pushforward(x, 1j * v) - J(dv)))
    d = split.horizontal_rest[0]
    dd = pushforward(x, d)
    ratio_d = np.linalg.norm(dd) / fs_norm(x, d)
    anti_resid = np.linalg.norm(pushforward(x, 1j * d) + J(dd))
    vert_resid = max(
        np.linalg.norm(pushforward(x, v)) for v in split.vertical
    )
    return {
        "ratio_superhorizontal": ratios_h,
        "ratio_horizontal_rest": ratio_d,
        "linearity_residual": lin_resid,
        "antilinearity_residual": anti_resid,
        "vertical_residual": vert_resid,
    }


# ----------------------------------------------------------------- curve level


def is_superhorizontal(curve) -> bool:
    """Exact check that a polynomial curve satisfies f x f' = 0 identically."""
    df = [p.diff() for p in curve]
    return not any(cross(curve, df))


def is_quadric_curve(curve) -> bool:
    """Exact check of (f, f) = 0 as a polynomial identity."""
    return not dot(curve, curve)
