"""The 7-dimensional cross product and its automorphism group.

The table below is the multiplication table of the compatible orthonormal
basis e_1..e_7 of R^7 (e_3 = e_1 x e_2, e_5 = e_1 x e_4, e_6 = e_2 x e_4,
e_7 = e_3 x e_4).  Entry t in row i, column j (0-based) means

    e_{i+1} x e_{j+1} = sign(t) * e_{|t|}

with 0 for a vanishing product.  The products below are generic over the
scalar ring: entries may be AlgScalar, Poly, BiPoly, complex numbers or
numpy scalars; they need only +, * and unary -, and none is tested for zero.
``hdot`` also needs a conjugation (``conj`` or ``conjugate``), and
``twistor.project`` and ``twistor.pushforward``, built on ``cross`` and
``hdot``, also need ``/``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce

from .field import AlgScalar, as_scalar

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


# component k of x cross y is the sum of sign * x[i] * y[j] over the six
# (sign, i, j) of CROSS_TERMS[k], in table order: the one reading of CROSS_TABLE
CROSS_TERMS = tuple(
    tuple((1 if t > 0 else -1, i, j) for i, row in enumerate(CROSS_TABLE)
          for j, t in enumerate(row) if abs(t) == k + 1)
    for k in range(7)
)


def cross(x, y) -> list:
    """Cross product of two 7-vectors with entries in any common scalar ring:
    each component's six products, zero factors included (0 * inf is NaN in
    floats), added in table order."""
    return [reduce(operator.add, (x[i] * y[j] if sign > 0 else -(x[i] * y[j])
                                  for sign, i, j in comp))
            for comp in CROSS_TERMS]


def dot(x, y):
    """Symmetric bilinear product sum_i x_i * y_i (no conjugation)."""
    acc = x[0] * y[0]
    for i in range(1, 7):
        acc = acc + x[i] * y[i]
    return acc


def hdot(x, y):
    """Hermitian product sum_i x_i * conj(y_i) for scalar-entry vectors."""
    return dot(x, [_conj(v) for v in y])


def wedge_pair(x, y) -> dict[tuple[int, int], object]:
    """The 21 components x_i*y_j - x_j*y_i (i < j) of x wedge y."""
    return {
        (i, j): x[i] * y[j] - x[j] * y[i] for i in range(7) for j in range(i + 1, 7)
    }


def std_basis(i: int) -> tuple:
    """The i-th standard basis vector (0-based) with AlgScalar entries."""
    return tuple(
        AlgScalar.one() if k == i else AlgScalar.zero() for k in range(7)
    )


def scale_vec(c, v) -> tuple:
    return tuple(c * x for x in v)


def sub_vec(x, y) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


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


def derivation(d16, d26, d36, d45, d46, d56) -> dict[tuple[int, int], AlgScalar]:
    """The strictly upper-triangular derivation N of the cross product in the
    isotropic frame, as {(a, b): the u_a coordinate of N*u_b}, zeros left out.

    N(x × y) = Nx × y + x × Ny; the six parameters (AlgScalars, ints or
    Fractions) are its entries in column 6 and at (4, 5), the other twelve
    follow from them.  N is nilpotent, so exp(N) lies in G2^C.
    """
    d16, d26, d36, d45, d46, d56 = (as_scalar(d) for d in (d16, d26, d36, d45, d46, d56))
    r2, h = AlgScalar.root(2), AlgScalar.term(2, Fraction(1, 2))
    entries = {
        (1, 6): d16, (2, 6): d26, (3, 6): d36, (4, 6): d46, (5, 6): d56, (4, 5): d45,
        (0, 1): d56, (0, 2): -d46, (0, 3): d36, (0, 4): -d26, (0, 5): d16,
        (1, 2): d45, (1, 3): r2 * d46, (1, 4): -h * d36, (2, 3): r2 * d56,
        (2, 5): -h * d36, (3, 4): r2 * d56, (3, 5): -r2 * d46,
    }
    return {ab: v for ab, v in entries.items() if v}


def exp_apply(n: dict, x: dict) -> dict:
    """exp(N)*x for a sparse N from ``derivation`` and a sparse vector x
    {a: the u_a coordinate}: the series x + Nx + N^2 x/2! + ... stops at
    N^6, since N^7 = 0 on the 7-dimensional space."""
    out, term = dict(x), x
    for k in range(1, 7):
        nxt: dict = {}
        for (a, b), v in n.items():
            if b in term:
                nxt[a] = nxt[a] + v * term[b] if a in nxt else v * term[b]
        term = {a: c * Fraction(1, k) for a, c in nxt.items() if c}
        for a, c in term.items():
            out[a] = out[a] + c if a in out else c
    return out


# ------------------------------------------------------------------- matrices

def mat_col(m, j) -> tuple:
    return tuple(m[i][j] for i in range(7))


def g2c_membership(m) -> bool:
    """Whether a 7x7 matrix of exact scalars is an automorphism of the
    complex cross product: an exact identity (table preservation on every
    basis pair, and m != 0).

    Preservation already implies invertibility. The kernel I of a matrix
    that preserves the product is an ideal of (C^7, x), and that algebra is
    simple, so I is 0 or everything. Take x != 0 in I. If (x, x) != 0 let
    u = x; otherwise pick y with (x, y) != 0 and let u = x cross y, which
    lies in I and has (u, u) = -(x, y)^2. Then every
    w = ((u, w) u - u cross (u cross w)) / (u, u) lies in I, so I = C^7.
    """
    cols = [mat_col(m, j) for j in range(7)]
    return not any(any(sub_vec(cross(cols[i], cols[j]), scale_vec(sign, cols[k])))
                   for k, comp in enumerate(CROSS_TERMS) for sign, i, j in comp
                   if i < j) and any(map(any, cols))


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
