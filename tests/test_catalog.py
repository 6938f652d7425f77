from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from supermin import catalog, g2, twistor
from supermin.field import AlgScalar
from supermin.poly import Poly


def curves_equal(a, b) -> bool:
    return all((x - y).is_zero() for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# the two-parameter family and the printed curve
# ---------------------------------------------------------------------------

def test_example_family_validates_input():
    with pytest.raises(ValueError):
        catalog.example_family(0, 1)
    with pytest.raises(ValueError):
        catalog.example_family(1, -2)


def test_family_support_is_the_ladder(family_curves):
    for (k1, k2), curve in family_curves.items():
        spec = catalog.SingularityTypeSpec.from_pair(k1, k2)
        support = set()
        for comp in curve:
            support |= set(comp.terms)
        assert support <= set(spec.exponents())


def test_lowest_curve_is_scaled_family_member(curve12):
    """The explicit degree-8 curve equals 70*sqrt2 times the (1, 2) member."""
    scale = AlgScalar.term(2, 70)
    scaled = tuple(Poly.const(scale) * c for c in curve12)
    assert curves_equal(scaled, catalog.lowest_curve())


def test_lowest_curve_spot_values():
    low = catalog.lowest_curve()
    # fourth component is 210 sqrt10 z^4
    assert low[3] == Poly.monomial(4, AlgScalar.term(10, 210))
    # seventh component has constant term -135 and top term 70 z^8
    assert low[6].terms[0] == AlgScalar.rational(-135)
    assert low[6].terms[8] == AlgScalar.rational(70)
    assert low[6].degree() == 8


def test_lowest_curve_geometry():
    low = catalog.lowest_curve()
    assert twistor.is_quadric_curve(low)
    assert twistor.is_superhorizontal(low)
    assert twistor.linear_fullness_order(low) == 7


# ---------------------------------------------------------------------------
# type specifications and the exponent ladder
# ---------------------------------------------------------------------------

def test_spec_pattern_and_exponents():
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    assert spec.k == (1, 2, 1, 1, 2, 1)
    assert spec.k1 == 1 and spec.k2 == 2
    assert spec.exponents() == (0, 1, 3, 4, 5, 7, 8)
    assert catalog.SingularityTypeSpec.from_pair(2, 1).exponents() == (
        0, 2, 3, 5, 7, 8, 10,
    )


def test_spec_rejects_bad_patterns():
    with pytest.raises(ValueError):
        catalog.SingularityTypeSpec((1, 2, 1, 1, 2, 2))
    with pytest.raises(ValueError):
        catalog.SingularityTypeSpec((1, 2, 1))
    with pytest.raises(ValueError):
        catalog.SingularityTypeSpec((0, 1, 0, 0, 1, 0))


def test_normal_form_roundtrip(curve11):
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    form = catalog.normal_form_of(curve11, spec)
    assert form.is_exact()
    assert curves_equal(form.to_curve(), curve11)
    assert form.is_circle_symmetric()


def test_normal_form_rejects_off_ladder_support(curve11):
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    # the (1,1) curve has exponents outside the (1,2) ladder
    with pytest.raises(ValueError, match="ladder"):
        catalog.normal_form_of(curve11, spec)


def test_float_normal_form_requires_evaluate():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    vectors = tuple(tuple(complex(c) for c in v) for v in g2.u_basis())
    form = catalog.NormalFormCurve(spec=spec, vectors=vectors)
    assert not form.is_exact()
    with pytest.raises(TypeError):
        form.to_curve()
    val = form.evaluate(0.5 + 0.1j)
    assert val.shape == (7,)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def weight_oracle(exponents, j):
    """Independent integer-product recomputation of the slot weight."""
    K = exponents
    num = 1
    for r in range(1, 7):
        for s in range(r, 7):
            num *= K[s] - K[r - 1]
    den = 1
    for r in range(1, j + 1):
        den *= K[j] - K[r - 1]
    for r in range(1, 7 - j):
        den *= K[7 - r] - K[j]
    return Fraction(num, den)


def test_lambda_weights_match_oracle():
    for pair in ((1, 1), (1, 2), (2, 3), (3, 2)):
        spec = catalog.SingularityTypeSpec.from_pair(*pair)
        for j in range(7):
            got = catalog.lambda_weights(spec, j)
            assert got == AlgScalar.rational(weight_oracle(spec.exponents(), j))


def test_lambda_weights_frozen_values():
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    values = [catalog.lambda_weights(spec, j).as_fraction() for j in range(7)]
    assert values == [
        2903040, 9676800, 40642560, 67737600, 40642560, 9676800, 2903040,
    ]


def test_lambda_weights_palindromic():
    for pair in ((1, 1), (2, 1), (2, 3), (4, 5)):
        spec = catalog.SingularityTypeSpec.from_pair(*pair)
        lams = [catalog.lambda_weights(spec, j) for j in range(7)]
        for j in range(7):
            assert lams[j] == lams[6 - j]


def test_lambda_weights_range_check():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    with pytest.raises(ValueError):
        catalog.lambda_weights(spec, 7)


# ---------------------------------------------------------------------------
# reality of the image sphere
# ---------------------------------------------------------------------------

def test_reality_check_family(curve11, curve12):
    for pair, curve in (((1, 1), curve11), ((1, 2), curve12)):
        spec = catalog.SingularityTypeSpec.from_pair(*pair)
        form = catalog.normal_form_of(curve, spec)
        ok, mu = catalog.reality_check(form)
        assert ok, pair
        assert mu.is_rational()


def test_reality_constant_frozen(curve12):
    spec = catalog.SingularityTypeSpec.from_pair(1, 2)
    form = catalog.normal_form_of(curve12, spec)
    ok, mu = catalog.reality_check(form)
    assert ok
    assert mu == AlgScalar.rational(-1, 1505280)


def test_reality_check_detects_breakage(curve11):
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    form = catalog.normal_form_of(curve11, spec)
    vectors = list(form.vectors)
    vectors[2] = tuple(c * 3 for c in vectors[2])
    broken = catalog.NormalFormCurve(spec=spec, vectors=tuple(vectors))
    ok, _mu = catalog.reality_check(broken)
    assert not ok


# ---------------------------------------------------------------------------
# the deformation family
# ---------------------------------------------------------------------------

def test_rfamily_corners_must_be_nonzero():
    with pytest.raises(ValueError):
        catalog.RFamilyParams(r1=0)
    with pytest.raises(ValueError):
        catalog.RFamilyParams(r1=1, r8=0)


def test_rfamily_generic_exact_stays_superhorizontal():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    params = catalog.RFamilyParams(
        r1=AlgScalar.rational(2),
        r2=AlgScalar.rational(1, 3),
        r3=AlgScalar.root(2),
        r4=AlgScalar.rational(-1),
        r5=AlgScalar.rational(1, 2),
        r6=AlgScalar.root(3),
        r7=AlgScalar.rational(5),
        r8=AlgScalar.rational(1),
    )
    curve = catalog.r_family(spec, params).to_curve()
    assert twistor.is_quadric_curve(curve)
    assert twistor.is_superhorizontal(curve)
    assert twistor.linear_fullness_order(curve) == 7


def test_rfamily_second_pair_exact():
    spec = catalog.SingularityTypeSpec.from_pair(2, 3)
    params = catalog.RFamilyParams(
        r1=AlgScalar.rational(3),
        r4=AlgScalar.rational(1, 2),
        r7=AlgScalar.root(5),
        r8=AlgScalar.rational(-2),
    )
    curve = catalog.r_family(spec, params).to_curve()
    assert twistor.is_quadric_curve(curve)
    assert twistor.is_superhorizontal(curve)


def test_rfamily_diagonal_is_circle_symmetric():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    params = catalog.RFamilyParams(r1=AlgScalar.term(10, 3))
    form = catalog.r_family(spec, params)
    assert form.is_circle_symmetric()
    ok, _mu = catalog.reality_check(form)
    assert ok


def test_rfamily_float_path():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    params = catalog.RFamilyParams(r1=1.5 + 0.25j, r3=0.7, r8=2.0)
    form = catalog.r_family(spec, params)
    assert not form.is_exact()
    # superhorizontality in float: f x f' vanishes at sample points
    for z in (0.4 + 0.2j, -0.9 + 0.6j, 1.3 - 0.5j):
        f = form.evaluate(z)
        df = form.derivative_value(z)
        resid = np.linalg.norm(np.array(g2.cross(f, df), dtype=complex))
        scale = np.linalg.norm(f) * np.linalg.norm(df)
        assert resid < 1e-12 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# normalizer
# ---------------------------------------------------------------------------

def test_chart_scale_exact_unit():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    r = catalog.chart_scale(spec, AlgScalar.term(10, 3), AlgScalar.one())
    assert r == AlgScalar.one()


def test_chart_scale_exact_rational_root():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    # q = sqrt90 / (sqrt90/8) = 8 and the ladder corner is 3, so r = 2
    r1 = AlgScalar.term(10, Fraction(3, 8))
    r = catalog.chart_scale(spec, r1, AlgScalar.one())
    assert r == AlgScalar.rational(2)


def test_chart_scale_exact_root_beyond_float_range():
    """Exact roots come from integer arithmetic, not a rounded float root:
    q = 3^120 (about 1.8e57) and q = 10^402 both have exact cube roots."""
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    for q, root in ((3**120, 3**40), (10**402, 10**134)):
        r1 = AlgScalar.term(10, Fraction(3, q))  # sqrt90 / r1 = q
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = catalog.chart_scale(spec, r1, AlgScalar.one())
        assert r == AlgScalar.rational(root)


def test_chart_scale_float_fallback_above_1e308():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    r1 = AlgScalar.term(10, Fraction(3, 2 * 10**400))  # q = 2e400, no exact cube root
    with pytest.warns(UserWarning):
        r = catalog.chart_scale(spec, r1, AlgScalar.one())
    assert abs(math.log10(abs(r)) - (400 + math.log10(2)) / 3) < 1e-12


def test_chart_scale_float_fallback_warns():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    with pytest.warns(UserWarning):
        r = catalog.chart_scale(spec, AlgScalar.one(), AlgScalar.one())
    assert abs(r - 90 ** (1 / 6)) < 1e-12


def test_normalizer_is_exact_group_element():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    A = catalog.normalizer(spec, AlgScalar.term(10, 3), AlgScalar.one())
    assert g2.g2c_membership(A)


def test_normalizer_pipeline_unit_scale(curve11):
    """Conjugating the diagonal deformation with corner 3*sqrt10 lands
    exactly on the (1, 1) family member (chart scale 1)."""
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    r1 = AlgScalar.term(10, 3)
    r8 = AlgScalar.one()
    curve = catalog.r_family(spec, catalog.RFamilyParams(r1=r1, r8=r8)).to_curve()
    A = catalog.normalizer(spec, r1, r8)
    moved = catalog.transform_curve(A, curve)
    assert curves_equal(moved, curve11)


def test_normalizer_pipeline_chart_scale_two(curve11):
    """With corner sqrt90/8 the chart must be rescaled by 2 first; the
    combined move still lands exactly on the family member."""
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    r1 = AlgScalar.term(10, Fraction(3, 8))
    r8 = AlgScalar.one()
    r = catalog.chart_scale(spec, r1, r8)
    curve = catalog.r_family(spec, catalog.RFamilyParams(r1=r1, r8=r8)).to_curve()
    scaled = tuple(c.scale_arg(r) for c in curve)
    moved = catalog.transform_curve(catalog.normalizer(spec, r1, r8), scaled)
    assert curves_equal(moved, curve11)


def test_normalizer_float_path():
    spec = catalog.SingularityTypeSpec.from_pair(1, 1)
    with pytest.warns(UserWarning):
        A = catalog.normalizer(spec, AlgScalar.rational(2), AlgScalar.one())
    assert g2.g2c_membership(np.asarray(A), tol=1e-9)
