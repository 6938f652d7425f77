from __future__ import annotations

import numpy as np
import pytest

from supermin import catalog, g2, harmonic, twistor
from supermin.field import AlgScalar
from supermin.poly import evaluate, one_scale
from test_cli import BLAS_ENTRY_POINTS


def std_c(i):
    """Complex standard basis vector of C^7."""
    v = np.zeros(7, dtype=complex)
    v[i] = 1
    return v


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_lands_on_unit_sphere():
    rng = np.random.default_rng(101)
    for _ in range(20):
        pt = twistor.random_quadric_point(rng)
        p = twistor.project(pt.x)
        assert abs(np.linalg.norm(p) - 1) < 1e-12
        assert np.abs(np.imag(p)).max() < 1e-12


def test_project_scale_invariant():
    rng = np.random.default_rng(103)
    pt = twistor.random_quadric_point(rng)
    p1 = twistor.project(pt.x)
    p2 = twistor.project((2.5 - 1.25j) * pt.x)
    assert np.allclose(p1, p2, atol=1e-12)


def test_project_exact_reference_point():
    # [e1 + i e5] maps to e4: i (xbar x x)/|x|^2 with e1 x e5 entries from the table
    x = tuple(
        AlgScalar.one() if a == 0 else AlgScalar.i() if a == 4 else AlgScalar.zero()
        for a in range(7)
    )
    p = twistor.project(x)
    expected = g2.std_basis(3)
    assert tuple(p) == expected


def test_project_exact_matches_float():
    x = tuple(
        AlgScalar.one() if a == 0 else AlgScalar.i() if a == 4 else AlgScalar.zero()
        for a in range(7)
    )
    exact = np.array([complex(c) for c in twistor.project(x)])
    fl = twistor.project(np.array([complex(c) for c in x]))
    assert np.allclose(exact, fl, atol=1e-14)


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_finite_difference_oracle():
    """dpi along a curve through a point matches a central difference."""
    rng = np.random.default_rng(107)
    pt = twistor.random_quadric_point(rng)
    x = pt.x
    split = twistor.split_tangent(pt)
    h = 1e-5
    for v in list(split.superhorizontal) + list(split.horizontal_rest):
        fd = (np.asarray(twistor.project(x + h * v))
              - np.asarray(twistor.project(x - h * v))) / (2 * h)
        dv = twistor.pushforward(x, v)
        assert np.linalg.norm(dv - fd) < 1e-7


def test_pushforward_frozen_value():
    # at x = e1 + i e5, the direction e2 - i e6 pushes to -2 e7
    x = std_c(0) + 1j * std_c(4)
    v = std_c(1) - 1j * std_c(5)
    dv = twistor.pushforward(x, v)
    expected = -2.0 * std_c(6)
    assert np.linalg.norm(dv - expected) < 1e-14


def test_pushforward_frozen_value_exact():
    # the same point and direction as AlgScalar tuples stay exact
    zero, one, i = AlgScalar.zero(), AlgScalar.one(), AlgScalar.i()
    x = (one, zero, zero, zero, i, zero, zero)
    v = (zero, one, zero, zero, zero, -i, zero)
    dv = twistor.pushforward(x, v)
    assert dv == (zero,) * 6 + (AlgScalar.rational(-2),)


def test_pushforward_kills_the_phase_direction():
    # the circle action z -> e^{it} z on homogeneous coordinates is invisible
    # downstairs, so the direction i*x must push to zero
    rng = np.random.default_rng(109)
    pt = twistor.random_quadric_point(rng)
    assert np.linalg.norm(twistor.pushforward(pt.x, 1j * pt.x)) < 1e-12


def test_pushforward_lands_in_tangent_space():
    # images are tangent to the sphere: orthogonal to the base point
    rng = np.random.default_rng(111)
    pt = twistor.random_quadric_point(rng)
    base = twistor.project(pt.x)
    split = twistor.split_tangent(pt)
    for v in list(split.superhorizontal) + list(split.horizontal_rest):
        dv = twistor.pushforward(pt.x, v)
        assert abs(np.vdot(base, dv)) < 1e-10


# ---------------------------------------------------------------------------
# tangent splitting
# ---------------------------------------------------------------------------

def test_split_dimensions():
    rng = np.random.default_rng(113)
    pt = twistor.random_quadric_point(rng)
    split = twistor.split_tangent(pt)
    assert split.vertical.shape == (2, 7)
    assert split.superhorizontal.shape == (2, 7)
    assert split.horizontal_rest.shape == (1, 7)


def test_split_blocks_mutually_orthogonal():
    rng = np.random.default_rng(127)
    pt = twistor.random_quadric_point(rng)
    split = twistor.split_tangent(pt)
    blocks = list(split.vertical) + list(split.superhorizontal) + list(
        split.horizontal_rest
    )
    for i, a in enumerate(blocks):
        for j, b in enumerate(blocks):
            want = 1.0 if i == j else 0.0
            assert abs(np.vdot(a, b) - want) < 1e-10, (i, j)


def test_superhorizontal_space_at_reference_point():
    # at [e1 + i e5] the cross-kernel directions include e2 + i e6 shapes;
    # verify x itself lies in the kernel of y -> x x y
    x = std_c(0) + 1j * std_c(4)
    assert np.linalg.norm(np.array(g2.cross(x, x), dtype=complex)) < 1e-14
    pt = twistor.QuadricPoint(x)
    split = twistor.split_tangent(pt)
    for v in split.superhorizontal:
        assert np.linalg.norm(np.array(g2.cross(x, v), dtype=complex)) < 1e-10


# 20 random points, one of them times a complex factor, and [e1 + i e5]
SPLIT_CASES = [f"random-{seed}" for seed in range(20)] + ["scaled-7", "e1+ie5"]


def split_case(case):
    """The quadric point a tangent-split test case names."""
    if case == "e1+ie5":
        return twistor.QuadricPoint(std_c(0) + 1j * std_c(4))
    kind, seed = case.split("-")
    x = twistor.random_quadric_point(np.random.default_rng(int(seed))).x
    return twistor.QuadricPoint(300 * np.exp(2j) * x if kind == "scaled" else x)


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_blocks_have_their_defining_properties(case):
    """H' is 2-dimensional in x cross v = 0, V is 2-dimensional in
    x cross vbar = 0, D is the line of project(x), and all five vectors are
    tangent ((v, x) = 0 and <v, x> = 0) and orthonormal: together these fix
    each block, so no other construction is needed as an oracle."""
    pt = split_case(case)
    x = pt.x
    split = twistor.split_tangent(pt)
    assert [b.shape for b in split] == [(2, 7), (2, 7), (1, 7)]
    assert all(b.dtype == complex for b in split)
    tol = 1e-12 * np.linalg.norm(x)
    for v in split.superhorizontal:
        assert np.abs(np.array(g2.cross(x, v))).max() < tol
    for v in split.vertical:
        assert np.abs(np.array(g2.cross(x, v.conjugate()))).max() < tol
    five = np.vstack(split)
    assert np.abs(five @ x).max() < tol                 # (v, x) = 0
    assert np.abs(five @ x.conjugate()).max() < tol     # <v, x> = 0
    assert np.abs(five.conjugate() @ five.T - np.eye(5)).max() < 1e-12
    d, base = split.horizontal_rest[0], np.asarray(twistor.project(x))
    assert np.linalg.norm(d - np.vdot(base, d) * base) < 1e-12


def test_split_makes_no_blas_call(monkeypatch):
    """``split_tangent`` gives the same bases with every numpy entry point
    that can reach BLAS made to raise (the points are built before)."""
    points = [split_case(case) for case in SPLIT_CASES]
    want = [twistor.split_tangent(pt) for pt in points]

    def refuse(*args, **kwargs):
        raise AssertionError("a BLAS entry point was called")

    for module, names in BLAS_ENTRY_POINTS.items():
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    for pt, split in zip(points, want):
        for got, block in zip(twistor.split_tangent(pt), split):
            assert (got == block).all()


# ---------------------------------------------------------------------------
# metric lemmas at random points
# ---------------------------------------------------------------------------

def test_lemma_ratios_50_points():
    rng = np.random.default_rng(131)
    inv_sqrt2 = 1 / np.sqrt(2.0)
    for _ in range(50):
        pt = twistor.random_quadric_point(rng)
        rep = twistor.lemma_checks(pt)
        for r in rep["ratio_superhorizontal"]:
            assert abs(r - 1.0) < 1e-8
        assert abs(rep["ratio_horizontal_rest"] - inv_sqrt2) < 1e-8
        assert rep["linearity_residual"] < 1e-8
        assert rep["antilinearity_residual"] < 1e-8
        assert rep["vertical_residual"] < 1e-8


def test_equivariance_20_group_elements():
    """project(g x) = g project(x) for the compact symmetry group."""
    rng = np.random.default_rng(137)
    pt = twistor.random_quadric_point(rng)
    for _ in range(20):
        g = g2.random_g2(rng)
        gm = np.asarray(g, dtype=complex)
        lhs = twistor.project(gm @ pt.x)
        rhs = gm.real @ twistor.project(pt.x)
        assert np.linalg.norm(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# metric lemmas, exactly
# ---------------------------------------------------------------------------

def exact_vec(entries):
    """A 7-vector of AlgScalar from {index: value}, the rest 0."""
    return tuple(entries.get(k, AlgScalar.zero()) for k in range(7))


R2, R3, R5 = AlgScalar.root(2), AlgScalar.root(3), AlgScalar.root(5)
ONE = AlgScalar.one()
# real (a, b) with a perp b and |a| = |b|, so that x = a + ib is null
NULL_PAIRS = {
    "e1_e2": (exact_vec({0: ONE}), exact_vec({1: ONE})),
    "sqrt2_sqrt3": (exact_vec({0: ONE, 1: R2, 3: R3}), exact_vec({0: R2, 1: -ONE, 2: R3})),
    "sqrt5": (exact_vec({0: 2 * ONE, 2: ONE}), exact_vec({1: R5})),
}


def norm_sq(v):
    return g2.hdot(v, v)


def lemma_vectors(a, b):
    """x = a + ib, c = a x b, and w perp a, b, c: the first standard axis
    left nonzero once its a, b and c parts are taken out."""
    i = AlgScalar.i()
    x = tuple(p + i * q for p, q in zip(a, b))
    c = tuple(g2.cross(a, b))
    for k in range(7):
        w = g2.std_basis(k)
        for u in (a, b, c):
            w = g2.sub_vec(w, g2.scale_vec(g2.dot(w, u) * g2.dot(u, u).inverse(), u))
        if any(w):
            return x, c, w
    raise AssertionError("a, b, c span C^7")


@pytest.mark.parametrize("name", NULL_PAIRS)
def test_lemmas_hold_exactly_at_null_points(name):
    """The twistor lemmas as exact identities: with c = a x b and w perp
    a, b, c, h = |a|^2 w + i (w x c) is superhorizontal (x cross h = 0),
    pushed forward with ratio 1 and complex linearly; c is pushed forward
    with ratio 1/sqrt2 and anti-linearly; conj(h) is vertical.  FS lengths
    are ||v|| = 2|v| / |x|, so ratio 1 reads |dpi(h)|^2 |x|^2 = 4 |h|^2.
    Also dpi(x) = 2 project(x), and dpi(i x) = 0."""
    a, b = NULL_PAIRS[name]
    assert g2.dot(a, b) == 0 and g2.dot(a, a) == g2.dot(b, b)
    x, c, w = lemma_vectors(a, b)
    assert g2.dot(x, x) == 0
    i = AlgScalar.i()
    h = tuple(g2.dot(a, a) * p + i * q for p, q in zip(w, g2.cross(w, c)))
    base = twistor.project(x)

    def J(v):
        return tuple(g2.cross(base, v))

    assert not any(g2.cross(x, h))
    dh, dc = twistor.pushforward(x, h), twistor.pushforward(x, c)
    assert norm_sq(dh) * norm_sq(x) == 4 * norm_sq(h)
    assert norm_sq(dc) * norm_sq(x) == 2 * norm_sq(c)
    assert twistor.pushforward(x, g2.scale_vec(i, h)) == J(dh)
    assert twistor.pushforward(x, g2.scale_vec(i, c)) == g2.scale_vec(-ONE, J(dc))
    assert not any(twistor.pushforward(x, tuple(v.conj() for v in h)))
    assert twistor.pushforward(x, x) == g2.scale_vec(2, base)
    assert not any(twistor.pushforward(x, g2.scale_vec(i, x)))

    # negative control: the real part of h alone is not superhorizontal
    # and is not pushed forward with ratio 1
    half = g2.scale_vec(g2.dot(a, a), w)
    assert any(g2.cross(x, half))
    assert norm_sq(twistor.pushforward(x, half)) * norm_sq(x) != 4 * norm_sq(half)


@pytest.mark.parametrize("name", NULL_PAIRS)
def test_project_is_equivariant_exactly(name):
    """project(g x) = g project(x) for the compact rotation
    e_2 -> e_3 -> -e_2, e_6 -> e_7 -> -e_6, an element of G2."""
    g = [[AlgScalar.zero()] * 7 for _ in range(7)]
    for k in (0, 3, 4):
        g[k][k] = ONE
    for src, dst in ((1, 2), (5, 6)):
        g[dst][src], g[src][dst] = ONE, -ONE
    assert g2.g2c_membership(g)

    def apply(v):
        return tuple(g2.dot(row, v) for row in g)

    a, b = NULL_PAIRS[name]
    x, _, _ = lemma_vectors(a, b)
    assert twistor.project(apply(x)) == apply(twistor.project(x))


# ---------------------------------------------------------------------------
# curve-level predicates
# ---------------------------------------------------------------------------

def test_family_curves_are_superhorizontal_quadric(family_curves):
    for pair, curve in family_curves.items():
        assert twistor.is_quadric_curve(curve), pair
        assert twistor.is_superhorizontal(curve), pair
        harmonic.HarmonicSequence(curve)  # raises unless linearly full


def test_linear_fullness_is_exact_at_any_scale(curve11):
    """A tiny overall factor changes no rank; a float rank with an absolute
    cutoff would see the scaled coefficients as zero."""
    from supermin.poly import Poly

    tiny = Poly.const(AlgScalar.rational(1, 10**12))
    scaled = tuple(tiny * c for c in curve11)
    harmonic.HarmonicSequence(scaled)  # raises unless linearly full
    with pytest.raises(ValueError, match="failing order 3"):
        harmonic.HarmonicSequence((*curve11[:3], *(Poly(),) * 4))


def test_perturbed_curve_fails_superhorizontality(curve11):
    bad = list(curve11)
    comp = dict(bad[3].terms)
    exp = sorted(comp)[0]
    comp[exp] = comp[exp] * AlgScalar.rational(2)
    from supermin.poly import Poly

    bad[3] = Poly(comp)
    assert not twistor.is_superhorizontal(tuple(bad))


def test_sphere_image_is_unit(curve11):
    zs = np.array([0j, 0.5 + 0.25j, 2.0 - 1.0j])
    points = twistor.project_arrays(*one_scale(evaluate(curve11, zs.real, zs.imag)))
    for p in points:
        assert abs(np.linalg.norm(p) - 1) < 1e-12


def test_quadric_point_validation():
    with pytest.raises(ValueError):
        twistor.QuadricPoint(np.array([1.0, 0, 0, 0, 0, 0, 0]))  # (x,x) != 0
    with pytest.raises(ValueError):
        twistor.QuadricPoint(np.zeros(7))
