"""The twistor fibration from the 5-quadric onto the 6-sphere.

A point of the quadric is a complex line [x] in C^7 with (x, x) = 0 (bilinear
product).  The fibration and its differential are

    project([x])        = (i/|x|^2) * (xbar cross x)
    pushforward_x(v)    = (i/|x|^2) * (xbar cross v  -  x cross vbar)

for tangent representatives v with (v, x) = 0 and <v, x> = 0.  The tangent
space splits as  V + H' + D:  the vertical space V (kernel of the
pushforward) is cut out by  x cross vbar = 0, the superhorizontal space H' by
x cross v = 0, and D is the rest of the horizontal space, spanned by the base
point itself seen as a complex tangent vector.

Fubini-Study lengths are normalized as ||v|| = 2|v| / |x|, so the pushforward
preserves lengths on H' and contracts by sqrt(2) on D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import AlgScalar
from .g2 import cross, dot, hdot, mat_rank, scale_vec
from .poly import Poly

_REL_TOL = 1e-9


def _is_exact(x) -> bool:
    return isinstance(x[0], AlgScalar)


@dataclass(frozen=True)
class QuadricPoint:
    """Homogeneous coordinates of a quadric point, kept as a numpy vector."""

    x: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.x, dtype=complex)
        object.__setattr__(self, "x", v)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("zero vector does not define a projective point")
        if abs(np.dot(v, v)) > _REL_TOL * n * n:
            raise ValueError("point does not satisfy the quadric equation")


@dataclass(frozen=True)
class TangentSplit:
    """Orthonormal bases of the three tangent distributions at a point."""

    vertical: np.ndarray      # shape (2, 7)
    superhorizontal: np.ndarray  # shape (2, 7)
    horizontal_rest: np.ndarray  # shape (1, 7)


def project(x):
    """Image of [x] on the unit 6-sphere.

    Exact vectors (AlgScalar entries) stay exact; anything else goes through
    numpy and comes back as a real float 7-vector.
    """
    if _is_exact(x):
        xbar = tuple(c.conj() for c in x)
        scale = AlgScalar.i() * hdot(x, x).inverse()
        return scale_vec(scale, cross(xbar, x))
    v = np.asarray(x, dtype=complex)
    out = 1j * np.array(cross(v.conjugate(), v)) / np.vdot(v, v).real
    return out.real


def pushforward(x, v):
    """Differential of the fibration at [x] applied to a tangent vector v."""
    if _is_exact(x):
        xbar = tuple(c.conj() for c in x)
        vbar = tuple(c.conj() for c in v)
        scale = AlgScalar.i() * hdot(x, x).inverse()
        diff = [a - b for a, b in zip(cross(xbar, v), cross(x, vbar))]
        return scale_vec(scale, diff)
    xf = np.asarray(x, dtype=complex)
    vf = np.asarray(v, dtype=complex)
    out = np.array(cross(xf.conjugate(), vf)) - np.array(cross(xf, vf.conjugate()))
    return 1j * out / np.vdot(xf, xf).real


def fs_norm(x, v) -> float:
    """Fubini-Study length of a tangent representative."""
    xf = np.asarray(x, dtype=complex)
    vf = np.asarray(v, dtype=complex)
    return 2.0 * np.linalg.norm(vf) / np.linalg.norm(xf)


def _cross_matrix(x: np.ndarray) -> np.ndarray:
    cols = [cross(x, np.eye(7, dtype=complex)[j]) for j in range(7)]
    return np.column_stack([np.asarray(c) for c in cols])


def _nullspace(m: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(m)
    cutoff = _REL_TOL * (s[0] if len(s) and s[0] > 0 else 1.0)
    null = vh[np.sum(s > cutoff):]
    return null.conjugate()  # rows span the kernel


def _orthonormal_within(vectors: np.ndarray, conditions: list[np.ndarray]) -> np.ndarray:
    """Orthonormal basis of {v in span(vectors) : <v, c> = 0 for all c}."""
    if not len(vectors):
        return vectors
    coeff_rows = [vectors @ c.conjugate() for c in conditions]
    coeffs = _nullspace(np.array(coeff_rows)) if coeff_rows else np.eye(len(vectors))
    sub = coeffs @ vectors
    q, _ = np.linalg.qr(sub.T)
    return q.T[: len(sub)]


def split_tangent(point: QuadricPoint) -> TangentSplit:
    """Orthonormal bases of V, H' and D at the given quadric point."""
    x = point.x
    null_x = _nullspace(_cross_matrix(x))          # span {x} + H'
    hp = _orthonormal_within(null_x, [x])           # hermitian-orthogonal to x
    vert = _orthonormal_within(null_x.conjugate(), [x.conjugate()])
    if hp.shape[0] != 2 or vert.shape[0] != 2:
        raise ValueError("degenerate tangent split (point off the quadric?)")
    # tangent gauge: (v, x) = 0 and <v, x> = 0
    tangent = _nullspace(np.array([x, x.conjugate()]))
    rest = _orthonormal_within(tangent, list(vert) + list(hp))
    if rest.shape[0] != 1:
        raise ValueError("horizontal complement is not a complex line")
    return TangentSplit(vertical=vert, superhorizontal=hp, horizontal_rest=rest)


def random_quadric_point(rng) -> QuadricPoint:
    """Random [a + ib] with a, b random orthonormal vectors of R^7."""
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


def curve_point(curve, z: complex) -> np.ndarray:
    """Float evaluation of an exact curve at a complex parameter value."""
    return np.array([p(z) for p in curve], dtype=complex)


def sphere_image(curve, z: complex) -> np.ndarray:
    """The projected surface point in S^6 for parameter z."""
    return project(curve_point(curve, z))


def linear_fullness_order(curve) -> int:
    """Exact rank of the coefficient span; 7 means linearly full."""
    exps = sorted({e for p in curve for e in p.terms})
    return mat_rank([[p.terms.get(e, AlgScalar.zero()) for e in exps] for p in curve])
