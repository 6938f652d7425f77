"""The 7-dimensional cross product and its automorphism group.

The table below is the multiplication table of the compatible orthonormal
basis e_1..e_7 of R^7 (e_3 = e_1 x e_2, e_5 = e_1 x e_4, e_6 = e_2 x e_4,
e_7 = e_3 x e_4).  Entry t in row i, column j (0-based) means

    e_{i+1} x e_{j+1} = sign(t) * e_{|t|}

with 0 for a vanishing product.  Everything here is generic over the scalar
ring: entries of the vectors may be AlgScalar, Poly, BiPoly, complex
numbers or numpy scalars; they only need +, *, unary - and truthiness.
"""

from __future__ import annotations

from fractions import Fraction

from .field import AlgScalar

CROSS_TABLE = (
    (0, 3, -2, 5, -4, -7, 6),
    (-3, 0, 1, 6, 7, -4, -5),
    (2, -1, 0, 7, -6, 5, -4),
    (-5, -6, -7, 0, 1, 2, 3),
    (4, -7, 6, -1, 0, -3, 2),
    (7, 4, -5, -2, 3, 0, -1),
    (-6, 5, 4, -3, -2, 1, 0),
)


def _conj(v):
    f = getattr(v, "conj", None)
    return f() if callable(f) else v.conjugate()


def cross(x, y) -> list:
    """Cross product of two 7-vectors with entries in any common scalar ring."""
    out = [None] * 7
    for i in range(7):
        xi = x[i]
        if not xi:
            continue
        row = CROSS_TABLE[i]
        for j in range(7):
            yj = y[j]
            if not yj:
                continue
            t = row[j]
            if not t:
                continue
            v = xi * yj
            if t < 0:
                v = -v
            k = abs(t) - 1
            out[k] = v if out[k] is None else out[k] + v
    zero = None
    for k in range(7):
        if out[k] is None:
            if zero is None:
                zero = x[0] * 0
            out[k] = zero
    return out


def dot(x, y):
    """Symmetric bilinear product sum_i x_i * y_i (no conjugation)."""
    acc = x[0] * y[0]
    for i in range(1, 7):
        acc = acc + x[i] * y[i]
    return acc


def hdot(x, y):
    """Hermitian product sum_i x_i * conj(y_i) for scalar-entry vectors."""
    acc = x[0] * _conj(y[0])
    for i in range(1, 7):
        acc = acc + x[i] * _conj(y[i])
    return acc


def wedge_pair(x, y) -> dict[tuple[int, int], object]:
    """The 21 components x_i*y_j - x_j*y_i (i < j) of x wedge y."""
    return {
        (i, j): x[i] * y[j] - x[j] * y[i] for i in range(7) for j in range(i + 1, 7)
    }


def _size(v) -> int:
    """Number of terms of a polynomial entry; 1 for a scalar."""
    try:
        return len(v) or 1
    except TypeError:
        return 1


def _pivot(x, y) -> int | None:
    """The component c with y[c] != 0 that makes the cheapest products
    x[a]*y[c] and x[c]*y[a] (term counts multiplied); None when y == 0."""
    sx = sum(_size(v) for v in x)
    sy = sum(_size(v) for v in y)
    live = [c for c in range(7) if y[c]]
    if not live:
        return None
    return min(live, key=lambda c: _size(y[c]) * sx + _size(x[c]) * sy)


def proportional(x, y) -> bool:
    """Whether x wedge y == 0, i.e. x and y are pointwise proportional.

    With a pivot y[c] != 0 it suffices that x[a]*y[c] == x[c]*y[a] for the
    other six a: multiplying any minor x[a]*y[b] - x[b]*y[a] by y[c] turns
    it into x[c]*(y[a]*y[b] - y[b]*y[a]) = 0, and the entries lie in an
    integral domain.  Twelve products instead of the 42 of ``wedge_pair``.
    """
    c = _pivot(x, y)
    if c is None:
        return True
    return all(x[a] * y[c] == x[c] * y[a] for a in range(7) if a != c)


def std_basis(i: int) -> tuple:
    """The i-th standard basis vector (0-based) with AlgScalar entries."""
    return tuple(
        AlgScalar.one() if k == i else AlgScalar.zero() for k in range(7)
    )


def scale_vec(c, v) -> tuple:
    return tuple(c * x for x in v)


def add_vec(x, y) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def sub_vec(x, y) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


def double_cross_residual(u, v, w) -> tuple:
    """Residual of u x (v x w) + (u x v) x w = 2(u,w)v - (u,v)w - (v,w)u.

    Zero for every triple exactly when the table is a genuine cross product.
    """
    lhs = add_vec(cross(u, cross(v, w)), cross(cross(u, v), w))
    rhs = add_vec(
        scale_vec(2 * dot(u, w), v),
        add_vec(scale_vec(-dot(u, v), w), scale_vec(-dot(v, w), u)),
    )
    return sub_vec(lhs, rhs)


# ------------------------------------------------------------- isotropic basis

# The isotropic frame u_0..u_6 diagonalizing the weight-space picture.  Each
# vector is returned in e-coordinates with exact entries.  The cross products
# of this frame reproduce U_CROSS_TABLE below entry-by-entry.

def u_basis() -> tuple[tuple[AlgScalar, ...], ...]:
    h = Fraction(1, 2)
    re = lambda: AlgScalar.term(2, h)        # sqrt2/2
    im = lambda: AlgScalar.term(2, 0, h)     # i*sqrt2/2
    z = AlgScalar.zero
    u0 = (z(), z(), im(), z(), z(), z(), -re())
    u1 = (z(), re(), z(), z(), z(), -im(), z())
    u2 = (re(), z(), z(), z(), -im(), z(), z())
    u3 = (z(), z(), z(), AlgScalar.one(), z(), z(), z())
    u4 = (-re(), z(), z(), z(), -im(), z(), z())
    u5 = (z(), re(), z(), z(), z(), im(), z())
    u6 = (z(), z(), im(), z(), z(), z(), re())
    return (u0, u1, u2, u3, u4, u5, u6)


def to_u(vec) -> tuple:
    """Coordinates of an e-basis 7-vector in the isotropic frame.

    The frame is orthonormal for the hermitian pairing, so coordinate j is
    simply <vec, u_j>.
    """
    basis = u_basis()
    return tuple(hdot(vec, u) for u in basis)


# entry (m, k): u_i x u_j = i * sign(m) * (sqrt2 if |m| == 2 else 1) * u_k
_U_TABLE_RAW = (
    (0, 0, 0, (-1, 0), (-2, 1), (-2, 2), (-1, 3)),
    (0, 0, (2, 0), (1, 1), 0, (-1, 3), (-2, 4)),
    (0, (-2, 0), 0, (1, 2), (1, 3), 0, (-2, 5)),
    ((1, 0), (-1, 1), (-1, 2), 0, (1, 4), (1, 5), (-1, 6)),
    ((2, 1), 0, (-1, 3), (-1, 4), 0, (2, 6), 0),
    ((2, 2), (1, 3), 0, (-1, 5), (-2, 6), 0, 0),
    ((1, 3), (2, 4), (2, 5), (1, 6), 0, 0, 0),
)


def u_table_entry(i: int, j: int) -> tuple[AlgScalar, int] | None:
    """Expected value of u_i x u_j as (scalar, index), or None when zero."""
    raw = _U_TABLE_RAW[i][j]
    if raw == 0:
        return None
    m, k = raw
    sign = 1 if m > 0 else -1
    coeff = AlgScalar({0: (Fraction(0), Fraction(sign))})
    if abs(m) == 2:
        coeff = coeff * AlgScalar.root(2)
    return coeff, k


# ------------------------------------------------------------------- matrices

def mat_from_cols(cols) -> tuple:
    return tuple(tuple(cols[j][i] for j in range(7)) for i in range(7))

def mat_col(m, j) -> tuple:
    return tuple(m[i][j] for i in range(7))

def mat_rank(m) -> int:
    """Rank of a matrix over the exact field, by Gaussian elimination."""
    rows = [list(r) for r in m]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c].inverse()
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def g2c_membership(m, tol: float | None = None) -> bool:
    """Whether a 7x7 matrix is an automorphism of the complex cross product.

    With ``tol=None`` the entries are exact scalars and the check is an exact
    identity (invertibility  plus table preservation on every basis pair);
    with a float tolerance the matrix may have complex entries.
    """
    cols = [mat_col(m, j) for j in range(7)]
    for i in range(7):
        for j in range(i + 1, 7):
            lhs = cross(cols[i], cols[j])
            t = CROSS_TABLE[i][j]
            if t:
                target = cols[abs(t) - 1]
                rhs = scale_vec(-1, target) if t < 0 else target
                resid = sub_vec(lhs, rhs)
            else:
                resid = lhs
            if tol is None:
                if any(resid):
                    return False
            elif max(abs(complex(x)) for x in resid) > tol:
                return False
    if tol is None:
        return mat_rank(m) == 7
    import numpy as np

    return abs(np.linalg.det(np.array(m, dtype=complex))) > tol


def random_g2(rng):
    """A random element of the compact real form, as a 7x7 float matrix.

    Built from a random compatible basis: orthonormal f1, f2, f4 with f4
    orthogonal to f1 x f2 determine the rest through the table relations.
    """
    import numpy as np

    def unit(v):
        return v / np.linalg.norm(v)

    f1 = unit(rng.standard_normal(7))
    v = rng.standard_normal(7)
    f2 = unit(v - np.dot(v, f1) * f1)
    f3 = np.array(cross(f1, f2), dtype=float)
    w = rng.standard_normal(7)
    for b in (f1, f2, f3):
        w = w - np.dot(w, b) * b
    f4 = unit(w)
    f5 = np.array(cross(f1, f4), dtype=float)
    f6 = np.array(cross(f2, f4), dtype=float)
    f7 = np.array(cross(f3, f4), dtype=float)
    return np.column_stack([f1, f2, f3, f4, f5, f6, f7])
