from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from supermin.field import AlgScalar
from supermin import g2


def rand_vec(rng, imag=True):
    out = []
    for _ in range(7):
        c = AlgScalar.rational(rng.randint(-5, 5))
        if imag:
            c = c + AlgScalar.i() * rng.randint(-5, 5)
        out.append(c)
    return tuple(out)


# ---------------------------------------------------------------------------
# the multiplication table on the standard basis
# ---------------------------------------------------------------------------

def test_cross_table_all_49_entries():
    """cross() on basis pairs must reproduce the signed table exactly."""
    for i in range(7):
        for j in range(7):
            got = g2.cross(g2.std_basis(i), g2.std_basis(j))
            entry = g2.CROSS_TABLE[i][j]
            expected = [AlgScalar.zero()] * 7
            if entry != 0:
                k = abs(entry) - 1
                expected[k] = AlgScalar.rational(1 if entry > 0 else -1)
            assert list(got) == expected, (i, j)


def test_cross_antisymmetric_and_alternating():
    rng = random.Random(23)
    for _ in range(10):
        x, y = rand_vec(rng), rand_vec(rng)
        assert g2.cross(x, y) == [-c for c in g2.cross(y, x)]
        assert all(c.is_zero() for c in g2.cross(x, x))


def test_cross_forms_every_product():
    """e_2 x (inf, 0, ..., 0): cross skips no product, so 0 * inf makes a
    NaN wherever numpy's elementwise products make one."""
    x = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    y = [float("inf")] + [0.0] * 6
    with np.errstate(invalid="ignore"):
        prod = np.multiply.outer(x, y)
    want = [sum(sign * prod[i, j] for sign, i, j in comp) for comp in g2.CROSS_TERMS]
    assert np.isnan(want).any()
    np.testing.assert_array_equal(g2.cross(x, y), want)


def test_cross_orthogonal_to_factors_real():
    rng = random.Random(29)
    for _ in range(10):
        x, y = rand_vec(rng, imag=False), rand_vec(rng, imag=False)
        w = g2.cross(x, y)
        assert g2.dot(x, w).is_zero()
        assert g2.dot(y, w).is_zero()


def test_double_cross_identity():
    """u x (v x w) + (u x v) x w = 2(u,w)v - (u,v)w - (v,w)u on real vectors."""
    rng = random.Random(31)
    for _ in range(6):
        u, v, w = (rand_vec(rng, imag=False) for _ in range(3))
        lhs = g2.sub_vec(g2.cross(u, g2.cross(v, w)),
                         g2.scale_vec(-1, g2.cross(g2.cross(u, v), w)))
        rhs = g2.sub_vec(g2.scale_vec(2 * g2.dot(u, w), v),
                         g2.sub_vec(g2.scale_vec(g2.dot(u, v), w),
                                    g2.scale_vec(-g2.dot(v, w), u)))
        assert all(c.is_zero() for c in g2.sub_vec(lhs, rhs))


def test_cross_norm_identity_real():
    # |x x y|^2 = |x|^2 |y|^2 - (x,y)^2 for real vectors
    rng = random.Random(37)
    for _ in range(8):
        x, y = rand_vec(rng, imag=False), rand_vec(rng, imag=False)
        w = g2.cross(x, y)
        lhs = g2.dot(w, w)
        rhs = g2.dot(x, x) * g2.dot(y, y) - g2.dot(x, y) * g2.dot(x, y)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def test_dot_is_bilinear_not_hermitian():
    x = tuple(AlgScalar.i() if a == 0 else AlgScalar.zero() for a in range(7))
    assert g2.dot(x, x) == AlgScalar.rational(-1)
    assert g2.hdot(x, x) == AlgScalar.one()


def test_hdot_conjugate_symmetry():
    rng = random.Random(41)
    for _ in range(8):
        x, y = rand_vec(rng), rand_vec(rng)
        assert g2.hdot(x, y) == g2.hdot(y, x).conj()


def test_wedge_pair_minors():
    rng = random.Random(43)
    x, y = rand_vec(rng), rand_vec(rng)
    minors = g2.wedge_pair(x, y)
    assert set(minors) == {(i, j) for i in range(7) for j in range(i + 1, 7)}
    for (i, j), m in minors.items():
        assert m == x[i] * y[j] - x[j] * y[i]
    # proportional vectors wedge to zero
    lam = AlgScalar.root(3) + AlgScalar.i()
    z = g2.scale_vec(lam, x)
    assert all(m.is_zero() for m in g2.wedge_pair(x, z).values())


# ---------------------------------------------------------------------------
# the isotropic frame
# ---------------------------------------------------------------------------

def test_u_basis_is_unitary_frame():
    basis = g2.u_basis()
    for i in range(7):
        for j in range(7):
            want = AlgScalar.one() if i == j else AlgScalar.zero()
            assert g2.hdot(basis[i], basis[j]) == want


def test_u_basis_cross_table_all_49_entries():
    basis = g2.u_basis()
    for i in range(7):
        for j in range(7):
            got = g2.cross(basis[i], basis[j])
            entry = g2.u_table_entry(i, j)
            if entry is None:
                assert all(c.is_zero() for c in got), (i, j)
            else:
                coeff, k = entry
                want = g2.scale_vec(coeff, basis[k])
                assert tuple(got) == want, (i, j)


def test_u_basis_bilinear_pairing_antidiagonal():
    # (u_i, u_j) is zero unless j = 6 - i; the middle vector is real
    basis = g2.u_basis()
    for i in range(7):
        for j in range(7):
            val = g2.dot(basis[i], basis[j])
            if i + j == 6:
                assert not val.is_zero(), (i, j)
            else:
                assert val.is_zero(), (i, j)


# ---------------------------------------------------------------------------
# matrices and the symmetry group
# ---------------------------------------------------------------------------

def test_mat_helpers():
    rng = random.Random(53)
    cols = [rand_vec(rng) for _ in range(7)]
    m = tuple(tuple(col[i] for col in cols) for i in range(7))
    for j in range(7):
        assert g2.mat_col(m, j) == cols[j]


def test_identity_is_in_the_group():
    ident = tuple(g2.std_basis(i) for i in range(7))
    assert g2.g2c_membership(ident)


def test_random_group_element_float():
    rng = np.random.default_rng(61)
    for _ in range(3):
        m = g2.random_g2(rng)
        assert abs(np.linalg.det(np.array(m, dtype=complex)) - 1) < 1e-9


def test_membership_rejects_scaling():
    ident = tuple(g2.std_basis(i) for i in range(7))
    doubled = tuple(tuple(c * 2 for c in row) for row in ident)
    assert not g2.g2c_membership(doubled)


def test_membership_rejects_singular_matrices():
    """The zero matrix preserves every product and is refused for being
    zero; the identity with one column zeroed is singular, and by the
    simplicity argument in ``g2c_membership`` it fails preservation."""
    zero = tuple((AlgScalar.zero(),) * 7 for _ in range(7))
    assert not g2.g2c_membership(zero)
    ident = tuple(g2.std_basis(i) for i in range(7))
    col_zeroed = tuple(row[:3] + (AlgScalar.zero(),) + row[4:] for row in ident)
    assert not g2.g2c_membership(col_zeroed)



# ---------------------------------------------------------------------------
# the nilpotent derivations and their exponentials
# ---------------------------------------------------------------------------

def in_frame(n, v):
    """N*v in e-coordinates for an e-coordinate vector v: read v's
    u-coordinates off the unitary frame, apply N's table, map back."""
    basis = g2.u_basis()
    x = [g2.hdot(v, u) for u in basis]
    y = [AlgScalar.zero()] * 7
    for (a, b), c in n.items():
        y[a] = y[a] + c * x[b]
    return tuple(sum((y[a] * basis[a][i] for a in range(7)), AlgScalar.zero())
                 for i in range(7))


def breaks_leibniz_rule(n) -> list:
    """The frame pairs (i, j) on which N(u_i x u_j) != Nu_i x u_j + u_i x Nu_j."""
    basis = g2.u_basis()
    bad = []
    for i in range(7):
        for j in range(7):
            x, y = basis[i], basis[j]
            lhs = in_frame(n, g2.cross(x, y))
            rhs = [a + b for a, b in zip(g2.cross(in_frame(n, x), y), g2.cross(x, in_frame(n, y)))]
            if any(g2.sub_vec(lhs, rhs)):
                bad.append((i, j))
    return bad


def test_derivation_satisfies_the_leibniz_rule():
    """N(x x y) = Nx x y + x x Ny on all 49 pairs of the u-frame, for
    random rational parameters; the table has 18 entries, all above the
    diagonal."""
    rng = random.Random(71)
    for _ in range(3):
        d = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)]
        d[rng.randrange(6)] = rng.choice((1, -2))  # never all zero
        n = g2.derivation(*d)
        assert all(a < b for a, b in n)
        assert len(n) == 18 or 0 in d
        assert breaks_leibniz_rule(n) == []


def test_leibniz_check_names_a_broken_entry():
    """Negative control: the table with N[1][3] doubled breaks the rule."""
    n = g2.derivation(1, 2, 3, 4, 5, 6)
    n[(1, 3)] = n[(1, 3)] * 2
    assert breaks_leibniz_rule(n) != []


def test_exp_apply_is_the_truncated_series():
    """exp(N) fixes what N kills, adds Nx + N^2 x / 2 + ... otherwise, and
    exp(N) exp(-N) is the identity on every frame vector."""
    n = g2.derivation(0, 0, 0, 1, 0, 0)  # u_2 -> u_1, u_5 -> u_4
    one = AlgScalar.one()
    assert g2.exp_apply(n, {3: one}) == {3: one}
    assert g2.exp_apply(n, {5: one}) == {5: one, 4: one}
    n = g2.derivation(Fraction(1, 2), -1, AlgScalar.root(3), 2, 1, Fraction(-1, 3))
    minus = {ab: -c for ab, c in n.items()}
    for a in range(7):
        back = g2.exp_apply(minus, g2.exp_apply(n, {a: one}))
        assert {b: c for b, c in back.items() if c} == {a: one}
