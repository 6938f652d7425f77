from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supermin.field import AlgScalar
from supermin import g2
from supermin.poly import BiPoly, Poly


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
        res = g2.double_cross_residual(u, v, w)
        assert all(c.is_zero() for c in res)


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
# proportionality against a pivot
# ---------------------------------------------------------------------------

def wedge_vanishes(x, y) -> bool:
    return all(m.is_zero() for m in g2.wedge_pair(x, y).values())


@st.composite
def scalars(draw):
    c = AlgScalar.rational(draw(st.integers(-3, 3)))
    c = c + AlgScalar.i() * draw(st.integers(-3, 3))
    if draw(st.booleans()):
        c = c * AlgScalar.root(draw(st.sampled_from((2, 3, 5, 6))))
    return c


def entries(kind, nonzero=False):
    """Sparse Poly or BiPoly entries with at most three terms."""
    keys = st.integers(0, 3) if kind == "poly" else st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = st.dictionaries(keys, scalars(), min_size=int(nonzero), max_size=3)
    cls = Poly if kind == "poly" else BiPoly
    built = terms.map(cls)
    return built.filter(bool) if nonzero else built


def zero_vec(kind):
    return tuple((Poly() if kind == "poly" else BiPoly()) for _ in range(7))


@st.composite
def vector_pairs(draw):
    """(x, y) of one entry kind: independent, proportional (y = s x), with an
    all-zero side, with a single non-zero component of y, or proportional
    but for one component of x."""
    kind = draw(st.sampled_from(("poly", "bipoly")))
    vec = st.lists(entries(kind), min_size=7, max_size=7).map(tuple)
    x = draw(vec)
    shape = draw(st.sampled_from(("free", "scaled", "zero_x", "zero_y", "single", "broken")))
    if shape == "free":
        return x, draw(vec)
    if shape == "zero_x":
        return zero_vec(kind), draw(vec)
    if shape == "zero_y":
        return x, zero_vec(kind)
    s = draw(entries(kind, nonzero=True))
    if shape == "single":
        c = draw(st.integers(0, 6))
        y = tuple(v if a == c else v * 0 for a, v in enumerate(x))
        return (g2.scale_vec(s, y) if draw(st.booleans()) else x), y
    y = g2.scale_vec(s, x)
    if shape == "broken":
        a = draw(st.integers(0, 6))
        bump = draw(entries(kind, nonzero=True))
        x = tuple(v + bump if b == a else v for b, v in enumerate(x))
    return x, y


@settings(max_examples=300, deadline=None)
@given(vector_pairs())
def test_proportional_matches_all_minors(pair):
    x, y = pair
    assert g2.proportional(x, y) == wedge_vanishes(x, y)


def test_proportional_catches_a_break_off_the_pivot():
    z = Poly.monomial(1)
    one = Poly.const(1)
    # x[0] has one term and every other component two, so 0 is the cheapest
    # pivot; doubling a component keeps every term count, hence the pivot
    x = (one, z + one, z * z + z, z * z * z + one, z + z * z, one + z * z, z * z * z + z)
    y = g2.scale_vec(z * z + Poly.const(AlgScalar.root(2)), x)
    assert g2.proportional(x, y)
    for a in range(7):
        broken = tuple(v * 2 if b == a else v for b, v in enumerate(x))
        assert g2._pivot(broken, y) == 0
        assert not g2.proportional(broken, y), a
        assert not g2.proportional(y, broken), a


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


def test_to_u_from_u_roundtrip():
    # coordinates of the frame itself are the unit vectors
    for j in range(7):
        coords = g2.to_u(g2.u_basis()[j])
        assert coords[j] == AlgScalar.one()
        assert all(coords[m].is_zero() for m in range(7) if m != j)


# ---------------------------------------------------------------------------
# matrices and the symmetry group
# ---------------------------------------------------------------------------

def test_mat_helpers():
    rng = random.Random(53)
    cols = [rand_vec(rng) for _ in range(7)]
    m = g2.mat_from_cols(cols)
    for j in range(7):
        assert g2.mat_col(m, j) == cols[j]


def test_identity_is_in_the_group():
    ident = g2.mat_from_cols([g2.std_basis(i) for i in range(7)])
    assert g2.g2c_membership(ident)


def test_random_group_element_float():
    rng = np.random.default_rng(61)
    for _ in range(3):
        m = g2.random_g2(rng)
        assert g2.g2c_membership(m, tol=1e-9)
        assert abs(np.linalg.det(np.array(m, dtype=complex)) - 1) < 1e-9


def test_membership_rejects_scaling():
    ident = g2.mat_from_cols([g2.std_basis(i) for i in range(7)])
    doubled = tuple(tuple(c * 2 for c in row) for row in ident)
    assert not g2.g2c_membership(doubled)


def test_float_membership_tolerance():
    rng = np.random.default_rng(67)
    m = g2.random_g2(rng)
    assert not g2.g2c_membership(np.asarray(m) * 1.001, tol=1e-9)
